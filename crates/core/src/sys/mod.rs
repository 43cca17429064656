//! System actions (`__sys/*`): the runtime's own services, as parcels.
//!
//! The parcel — destination, action, payload, continuation — is the
//! model's only inter-locality mechanism, so LCO events, data get/put,
//! AGAS migration and the directory protocol are parcels too. This
//! module is their one home:
//!
//! * `sys_actions!` — one row per action: id, `"__sys/…"` name, wire
//!   lane, handler, and (for structured payloads) the message type. It
//!   generates the `ActionId` consts, [`ALL`], [`is_control`] and the
//!   dispatcher the scheduler calls — static calls on id equality, no
//!   registry, no `dyn`, no allocation.
//! * `msg` — each payload layout, written once and used by both ends.
//! * `Origin::request` — the split-phase "ask a rank, resume on the
//!   ack" primitive every protocol here, and every client-side
//!   suspension on a remote object, is built from.
//!
//! Adding an op is one table row, one message type and one handler fn.
//! User actions must not reuse the `__sys/` names.

use crate::action::{ActionId, Value};
use crate::error::{FaultCause, PxResult};
use crate::locality::Locality;
use crate::parcel::Parcel;
use crate::runtime::RuntimeInner;
use crate::sched::{cause_of, complete, kill_parcel};
use crate::stats::bump;
use std::sync::Arc;

pub(crate) mod agas;
mod echo;
pub(crate) mod lco;
pub(crate) mod msg;
mod request;

use msg::Wire;

/// The one definition of the system actions. Each row — const,
/// `"__sys/…"` name, wire lane, handler and, optionally, the payload's
/// message type — expands to the `ActionId` const, an entry of [`ALL`],
/// (for `control` rows) a term of [`is_control`], and an arm of the
/// dispatcher. A row that names a message type has its payload decoded
/// before the handler runs (`handler(rt, loc, parcel, message)`); an
/// undecodable one is killed as [`FaultCause::Decode`] right there.
macro_rules! sys_actions {
    (@control control) => { true };
    (@control data) => { false };
    (@run $rt:ident, $loc:ident, $p:ident, $string:literal, $handler:path) => {
        $handler($rt, $loc, $p)
    };
    (@run $rt:ident, $loc:ident, $p:ident, $string:literal, $handler:path, $msg:ty) => {
        match <$msg as Wire>::decode($p.payload.bytes()) {
            Ok(m) => $handler($rt, $loc, $p, m),
            Err(e) => {
                let why = format!(concat!("undecodable ", $string, " payload: {}"), e);
                kill_parcel($rt, $loc, $p, FaultCause::Decode, why)
            }
        }
    };
    ($($(#[$doc:meta])* $name:ident = $string:literal, $lane:ident, $handler:path $(, $msg:ty)?;)*) => {
        $($(#[$doc])* pub const $name: ActionId = ActionId::of($string);)*

        /// Every system action id.
        pub const ALL: [ActionId; [$($string),*].len()] = [$($name),*];

        /// Whether `a` rides the control priority lane (see the
        /// transport contract in `net/mod.rs`): balancer gossip,
        /// metrics pulls, name lookups, and every leg of a move and of
        /// the directory protocol. The reply to a control-lane request
        /// rides it too, as an ordinary [`LCO_SET`] (`sched::complete`).
        pub fn is_control(a: ActionId) -> bool {
            $((sys_actions!(@control $lane) && a == $name))||*
        }

        /// Run `p` if its action is a system action: these bypass the
        /// registry and use raw payload framing. Gives the parcel back
        /// for registry dispatch otherwise.
        pub(crate) fn dispatch(
            rt: &Arc<RuntimeInner>,
            loc: &Arc<Locality>,
            p: Parcel,
        ) -> Option<Parcel> {
            let a = p.action;
            $(if a == $name {
                sys_actions!(@run rt, loc, p, $string, $handler $(, $msg)?);
                return None;
            })*
            Some(p)
        }
    };
}

sys_actions! {
    /// Trigger an LCO with the payload value.
    LCO_SET = "__sys/lco_set", data, lco::set;
    /// Fill a dataflow slot: payload = `u32` index ++ value bytes.
    LCO_SET_SLOT = "__sys/lco_set_slot", data, lco::set_slot, msg::SetSlot;
    /// Contribute the payload to a reduction LCO.
    LCO_CONTRIBUTE = "__sys/lco_contribute", data, lco::contribute;
    /// Register the parcel's continuation as a waiter for the LCO value.
    LCO_GET = "__sys/lco_get", data, lco::get;
    /// Semaphore acquire; continuation runs when a permit is granted.
    LCO_ACQUIRE = "__sys/lco_acquire", data, lco::acquire;
    /// Semaphore release.
    LCO_RELEASE = "__sys/lco_release", data, lco::release;
    /// Read a data object; continuation receives `Vec<u8>`.
    DATA_GET = "__sys/data_get", data, agas::data_get;
    /// Overwrite a data object; payload = encoded `Vec<u8>`.
    DATA_PUT = "__sys/data_put", data, agas::data_put;
    /// Reply the payload to the continuation (round-trip measurements).
    PING = "__sys/ping", data, ping;
    /// Do nothing (parcel-overhead measurements).
    NOOP = "__sys/noop", data, noop;
    /// Echo-tree update (see [`crate::echo`]): payload = the new value.
    ECHO_UPDATE = "__sys/echo_update", data, echo::update;
    /// Echo-tree downward propagation: payload = `u64` version ++ value
    /// bytes.
    ECHO_PROP = "__sys/echo_prop", data, echo::prop, msg::EchoProp;
    /// Echo split-phase validation request: payload = the `u64` version
    /// the thread used; continuation receives the verdict.
    ECHO_VALIDATE = "__sys/echo_validate", data, echo::validate, msg::EchoValidate;
    /// Balancer gossip: payload = encoded peer-load view (see
    /// [`px_balance::PeerView::encode_gossip`]); merged into the
    /// destination locality's view. Control lane: it must outrun
    /// the backlog it reports.
    BALANCE_GOSSIP = "__sys/balance_gossip", control, balance_gossip;
    /// Metrics pull: reply the locality's encoded
    /// [`crate::metrics::MetricsSnapshot`] to the continuation. Rides the
    /// control priority lane (like gossip) so a saturated rank still
    /// answers `Runtime::cluster_metrics` promptly.
    METRICS_PULL = "__sys/metrics_pull", control, metrics_pull;
    /// Migrate the target data object: payload = `u16` destination
    /// locality ++ `u8` cause code (0 manual, 1 balancer). Addressed at
    /// the *object* (not a locality root) so the ordinary chase delivers
    /// it to the current owner; continuation receives unit on
    /// completion. Control lane, like every leg of a move: a balancer
    /// pull must not queue behind the backlog of the owner it relieves.
    AGAS_MIGRATE = "__sys/agas_migrate", control, agas::migrate, msg::Migrate;
    /// Install a migrating object's bytes at the destination: payload =
    /// `u64` gid ++ `u64` version ++ length-prefixed bytes. Control lane:
    /// the move holds its pin, and parks every parcel for the object,
    /// until this leg and its ack are back.
    DIR_INSTALL = "__sys/dir_install", control, agas::dir_install, msg::DirInstall;
    /// Flip a GID's authoritative home-directory entry: payload =
    /// `u64` gid ++ `u16` owner ++ `u8` cause code. Control lane.
    DIR_UPDATE = "__sys/dir_update", control, agas::dir_update, msg::DirUpdate;
    /// Ask a GID's home rank for its authoritative owner: payload =
    /// `u64` gid; continuation receives the owner as 2 LE bytes.
    /// Control lane — lookups must outrun data-lane backpressure.
    DIR_LOOKUP = "__sys/dir_lookup", control, agas::dir_lookup, msg::DirLookup;
    /// Advisory cache-repair hint for a rank that sent through a stale
    /// resolution: payload = `u64` gid ++ `u16` owner. Fire-and-forget,
    /// control lane.
    DIR_REPAIR = "__sys/dir_repair", control, agas::dir_repair, msg::DirRepair;
    /// Migration epilogue at the destination rank: payload = `u64` gid ++
    /// `u8` keep ++ `u16` owner. `keep = 1` (the source finished its
    /// remove) releases the install-time pin and drains parcels parked
    /// under it; `keep = 0` (the protocol failed mid-flight) additionally
    /// discards the provisionally installed copy and repoints the local
    /// directory at `owner` — the source, which never removed its copy.
    DIR_COMMIT = "__sys/dir_commit", control, agas::dir_commit, msg::DirCommit;
    /// Resolve a symbolic name in the receiving rank's table: payload =
    /// the UTF-8 name bytes; continuation receives the bound gid as
    /// 8 LE bytes, or a `HandlerError` fault when unbound. Routed to a
    /// process's home rank by [`crate::runtime::Runtime::lookup_name`],
    /// making `/proc/...` names cluster-visible. Control lane.
    NAME_LOOKUP = "__sys/name_lookup", control, agas::name_lookup;
}

/// A payload-less system parcel for `dest`, fire-and-forget as built.
pub(crate) fn bare(dest: crate::gid::Gid, action: ActionId) -> Parcel {
    Parcel::new(
        dest,
        action,
        Value::unit(),
        crate::parcel::Continuation::none(),
    )
}

/// The common handler tail: the op's value goes to the parcel's
/// continuation, its error kills the parcel under the error's cause — so
/// an ack is honest (a rejected trigger sends the error back instead of
/// a unit "success").
fn reply(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel, r: PxResult<Value>) {
    match r {
        Ok(v) => complete(rt, loc, p, v),
        Err(e) => kill_parcel(rt, loc, p, cause_of(&e), e.to_string()),
    }
}

/// Dispatch accounting is a NOOP's whole action; it completes with unit
/// like any other.
fn noop(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    complete(rt, loc, p, Value::unit());
}

fn ping(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    let echo = p.payload.clone();
    complete(rt, loc, p, echo);
}

/// Merge a peer's load view. With the balancer off there is nothing to
/// merge into, and the (counted) parcel completes all the same.
fn balance_gossip(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    bump!(loc.counters().gossip_parcels);
    if let Some(b) = &loc.balance {
        match px_balance::decode_gossip(p.payload.bytes()) {
            Ok(entries) => b.peers.lock().merge(&entries),
            Err(e) => {
                let msg = format!("undecodable gossip: {e}");
                return kill_parcel(rt, loc, p, FaultCause::Decode, msg);
            }
        }
    }
    complete(rt, loc, p, Value::unit());
}

/// Reply this locality's histograms to the continuation. A rank with
/// metrics off answers with empty histograms rather than stalling the
/// requester's merge.
fn metrics_pull(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    let snap = match &loc.metrics {
        Some(reg) => reg.snapshot(),
        None => crate::metrics::MetricsSnapshot::default(),
    };
    let v = Value::from_bytes(snap.encode());
    complete(rt, loc, p, v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gid::{Gid, LocalityId};
    use crate::runtime::{Config, RuntimeBuilder};

    #[test]
    fn sys_ids_distinct() {
        let set: std::collections::HashSet<u64> = ALL.iter().map(|i| i.0).collect();
        assert_eq!(set.len(), ALL.len());
        // The lane column: every leg of a move and the directory ops ride
        // the control lane, an LCO event only as a control request's
        // reply, and no user action ever does.
        assert!(is_control(DIR_LOOKUP) && is_control(AGAS_MIGRATE));
        assert!(is_control(DIR_INSTALL) && !is_control(LCO_SET));
        assert!(!is_control(ActionId::of("user/action")));
        // The handler column: the dispatcher consumes every row's id —
        // here with an empty payload, which each handler must survive
        // (it acks, or kills the parcel loudly) — and nothing else.
        let rt = RuntimeBuilder::new(Config::small(1, 1)).build().unwrap();
        let loc = rt.inner().locality(LocalityId(0));
        let root = Gid::locality_root(loc.id);
        let at_root = |a| bare(root, a);
        for a in ALL {
            assert!(dispatch(rt.inner(), loc, at_root(a)).is_none(), "{a:?}");
        }
        assert!(dispatch(rt.inner(), loc, at_root(ActionId::of("user/action"))).is_some());
        rt.shutdown();
    }
}
