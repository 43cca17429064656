//! LCO events as system actions: trigger, slot fill, contribute, wait,
//! semaphore acquire/release — and [`lco_sys_op`], the one way any code
//! path (parcel-driven or API-driven) performs an event on a local LCO.

use super::msg::SetSlot;
use super::reply;
use crate::action::{ActionId, Value};
use crate::error::{PxError, PxResult};
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
    bump!(loc.counters().lco_events);
    // Harvest the creation stamp exactly once, at the event that resolved
    // the LCO (fire or poison) — the spawn→resolution latency, on this
    // locality's clock.
    let (acts, resolved) = loc.lco_op(gid, |g| (op(g), g.take_resolve_latency()))?;
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

pub(super) fn contribute(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    let r = deliver(rt, loc, p.dest, p.action, &p.payload, p.trace);
    reply(rt, loc, p, r.map(|()| Value::unit()));
}

/// The waiter handoff behind `get` and `acquire`: the parcel's
/// continuation *moves* into the LCO as a [`Waiter::Cont`], to be applied
/// when the LCO fires or grants — the one end of a parcel that is neither
/// `complete` nor a kill, because what it carried lives on. When there is
/// no such LCO here, or `op` hands the waiter back, the continuation
/// returns to the parcel and the parcel is killed with the error.
fn hand_off(
    rt: &Arc<RuntimeInner>,
    loc: &Arc<Locality>,
    mut p: Parcel,
    op: impl FnOnce(&mut LcoCore, Waiter) -> Result<Activations, (PxError, Waiter)>,
) {
    let mut waiter = Some(Waiter::Cont(std::mem::take(&mut p.cont)));
    let handed = lco_sys_op(rt, loc, p.dest, p.trace, |l| {
        op(l, waiter.take().expect("taken once")).map_err(|(e, w)| {
            waiter = Some(w);
            e
        })
    });
    match (handed, waiter) {
        (Err(e), Some(Waiter::Cont(cont))) => {
            p.cont = cont;
            kill_parcel(rt, loc, p, cause_of(&e), e.to_string());
        }
        _ => p.spend(),
    }
}

pub(super) fn get(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    hand_off(rt, loc, p, |l, w| Ok(l.add_waiter(w)));
}

pub(super) fn acquire(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    hand_off(rt, loc, p, LcoCore::acquire);
}

pub(super) fn release(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    let r = lco_sys_op(rt, loc, p.dest, p.trace, |l| Ok(l.release()));
    reply(rt, loc, p, r.map(|()| Value::unit()));
}
