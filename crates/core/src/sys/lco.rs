//! LCO events as system actions: trigger, slot fill, contribute, wait,
//! semaphore acquire/release — and [`lco_sys_op`], the one way any code
//! path (parcel-driven or API-driven) performs an event on a local LCO.

use super::msg::SetSlot;
use super::reply;
use crate::action::{ActionId, Value};
use crate::error::PxResult;
use crate::gid::Gid;
use crate::lco::{Activations, LcoCore, Waiter};
use crate::locality::Locality;
use crate::parcel::Parcel;
use crate::runtime::RuntimeInner;
use crate::sched::{cause_of, kill_parcel};
use crate::stats::bump;
use crate::trace::TraceEventKind;
use std::sync::Arc;

/// Run an LCO operation on a local object and schedule any released
/// waiters. The closure runs under the object lock and must not call back
/// into the runtime; activations run after unlock, inheriting `trace` —
/// the causality of a released waiter flows from the event that released
/// it. Errors (missing object, wrong kind, protocol violations like
/// double-trigger) are returned so the caller can deliver them — a
/// parcel-driven caller kills the parcel with the error, an API-driven
/// caller returns it.
pub(crate) fn lco_sys_op(
    rt: &Arc<RuntimeInner>,
    loc: &Arc<Locality>,
    gid: Gid,
    trace: Option<u64>,
    op: impl FnOnce(&mut LcoCore) -> PxResult<Activations>,
) -> PxResult<()> {
    bump!(loc.counters.lco_events);
    let lco = loc.get_lco(gid)?;
    let (acts, resolved) = {
        let mut g = lco.lock();
        let r = op(&mut g);
        // Harvest the creation stamp exactly once, at the event that
        // resolved the LCO (fire or poison) — the spawn→resolution
        // latency, on this locality's clock.
        (r, g.take_resolve_latency())
    };
    if let (Some(reg), Some(d)) = (&loc.metrics, resolved) {
        reg.record_elapsed(crate::metrics::Instrument::SpawnResolve, d);
    }
    let acts = acts?;
    if !acts.is_empty() {
        loc.trace_event(trace, TraceEventKind::LcoRelease, gid.0, acts.len() as u64);
    }
    rt.schedule_activations(loc, acts, trace);
    Ok(())
}

/// Deliver the event `action` — [`super::LCO_SET`] triggers, anything
/// else ([`super::LCO_CONTRIBUTE`]) contributes — to the local LCO `gid`,
/// and record the trace event of a *successful* delivery: a fault value
/// poisons the object, anything else triggers it.
pub(crate) fn deliver(
    rt: &Arc<RuntimeInner>,
    loc: &Arc<Locality>,
    gid: Gid,
    action: ActionId,
    value: &Value,
    trace: Option<u64>,
) -> PxResult<()> {
    lco_sys_op(rt, loc, gid, trace, |l| {
        if action == super::LCO_SET {
            l.trigger(value.clone())
        } else {
            l.contribute(value.clone())
        }
    })?;
    record_event(loc, trace, gid, value);
    Ok(())
}

/// One branch when the event is untraced.
fn record_event(loc: &Locality, trace: Option<u64>, gid: Gid, payload: &Value) {
    if trace.is_some() {
        let (kind, aux) = match payload.fault() {
            Some(f) => (TraceEventKind::LcoPoison, u64::from(f.cause.code())),
            None => (TraceEventKind::LcoTrigger, 0),
        };
        loc.trace_event(trace, kind, gid.0, aux);
    }
}

pub(super) fn set(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    let r = deliver(rt, loc, p.dest, p.action, &p.payload, p.trace);
    reply(rt, loc, p, r.map(|()| Value::unit()));
}

pub(super) fn set_slot(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel, m: SetSlot) {
    let SetSlot { idx, value } = m;
    let r = lco_sys_op(rt, loc, p.dest, p.trace, |l| {
        l.trigger_slot(idx as usize, value)
    });
    if r.is_ok() {
        record_event(loc, p.trace, p.dest, &p.payload);
    }
    reply(rt, loc, p, r.map(|()| Value::unit()));
}

// px-analyze: allow(no-silent-loss): contributions are fire-and-forget by contract — the payload was delivered to the LCO or the parcel killed; there is no ack continuation to resolve.
pub(super) fn contribute(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    if let Err(e) = deliver(rt, loc, p.dest, p.action, &p.payload, p.trace) {
        kill_parcel(rt, loc, p, cause_of(&e), e.to_string());
    }
}

// px-analyze: allow(no-silent-loss): on success the continuation lives on as the LCO's registered waiter — a handoff, not a loss; on error the parcel is killed.
pub(super) fn get(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    let waiter = Waiter::Cont(p.cont.clone());
    if let Err(e) = lco_sys_op(rt, loc, p.dest, p.trace, |l| Ok(l.add_waiter(waiter))) {
        kill_parcel(rt, loc, p, cause_of(&e), e.to_string());
    }
}

// px-analyze: allow(no-silent-loss): on success the continuation is queued as the semaphore's waiter (released or resumed later) — a handoff; on error the parcel is killed.
pub(super) fn acquire(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    let waiter = Waiter::Cont(p.cont.clone());
    let op = |l: &mut LcoCore| l.acquire(waiter).map_err(|(e, _)| e);
    if let Err(e) = lco_sys_op(rt, loc, p.dest, p.trace, op) {
        kill_parcel(rt, loc, p, cause_of(&e), e.to_string());
    }
}

pub(super) fn release(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    let r = lco_sys_op(rt, loc, p.dest, p.trace, |l| Ok(l.release()));
    reply(rt, loc, p, r.map(|()| Value::unit()));
}
