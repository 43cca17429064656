//! The global address space as system actions, one protocol between any
//! two localities, in one OS process or across TCP: data get/put on an
//! object wherever it lives; the split-phase move (install at the
//! destination → update the home directory → remove at the source →
//! commit); the one rule for a parcel that does not find its object; the
//! home-directory lookups and repairs that keep the chase bounded; and
//! cluster-visible names. No lock is held across a round trip and no
//! worker blocks on one: each ack resumes as a depleted thread
//! (`Origin::request_then`), on the control lane like every leg of a
//! move.

use super::msg::{DirCommit, DirInstall, DirLookup, DirRepair, DirUpdate, Migrate, Wire};
use super::reply;
use crate::action::Value;
use crate::agas::MigrationCause;
use crate::error::{FaultCause, PxError, PxResult};
use crate::gid::{Gid, GidKind, LocalityId};
use crate::locality::{DataObject, Locality, Stored};
use crate::origin::Origin;
use crate::parcel::Parcel;
use crate::runtime::{Ctx, RuntimeInner};
use crate::sched::{cause_of, complete, kill_parcel};
use crate::stats::bump;
use crate::trace::TraceEventKind;
use std::sync::Arc;

/// Forwards a parcel may make before it dies as [`FaultCause::HopCap`].
/// Each forward follows a move that completed since its sender's view of
/// the owner was current, so only a migration storm reaches the cap.
const MAX_HOPS: u8 = 16;

/// The one rule for a parcel whose object `loc` does not hold, or holds
/// pinned by a move in flight, whether dispatch's residency check or a
/// handler's store access found it so. Under the parked-parcel lock
/// (`Agas::defer_during_migration`), with no move of the object in
/// flight here, `loc`'s directory and store read here are one consistent
/// state; so the parcel is
///
/// * parked on the pin while a move is in flight (no hop; it keeps its
///   process active until [`end_migration`] re-sends it);
/// * forwarded when the directory names another locality — a hop, and
///   the only kind;
/// * run here after all when the object arrived meanwhile;
/// * killed at once when `loc` is the GID's home, whose directory is
///   authoritative: the object was freed or never created, the same
///   `NoSuchObject` death `lco_route` gives an event for a freed LCO;
/// * otherwise re-routed on the answer of the GID's home.
pub(crate) fn not_here(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    let (gid, process) = (p.dest, p.process);
    if let Some(pg) = process {
        rt.process_task_started(pg, loc.id);
    }
    let look = || (loc.agas.authoritative_owner(gid), loc.contains(gid));
    let Some((p, (owner, resident))) = loc.agas.defer_during_migration(gid, p, look) else {
        return; // parked, still holding the token taken above
    };
    if let Some(pg) = process {
        rt.process_task_done(pg);
    }
    if owner != loc.id {
        forward(rt, loc, p, owner);
    } else if resident {
        rt.route_parcel(loc.id, loc.id, false, p);
    } else if gid.birthplace() == loc.id {
        bump!(loc.counters().dir_lookups_local);
        let e = PxError::NoSuchObject(gid);
        kill_parcel(rt, loc, p, cause_of(&e), e.to_string());
    } else {
        remote_dir_lookup(rt, loc, p);
    }
}

/// Send `p` on toward `owner`, which the directory names in place of
/// `loc`, and repair the sender's cache so its next parcel routes right.
/// The one site that spends a hop, and the one that checks the budget.
fn forward(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, mut p: Parcel, owner: LocalityId) {
    if p.hops >= MAX_HOPS {
        bump!(loc.counters().chase_cap_violations);
        let msg = format!("chase exhausted after {MAX_HOPS} hops (object at {owner})");
        return kill_parcel(rt, loc, p, FaultCause::HopCap, msg);
    }
    bump!(loc.counters().parcels_forwarded);
    if p.src == loc.id {
        loc.agas.repair_cache(loc.id, p.dest, owner);
    } else {
        // The sender's cache is its own: ship the hint as a control-lane
        // parcel (fire-and-forget: a lost hint only costs another chase).
        let hint = DirRepair { gid: p.dest, owner };
        Origin::at(rt, loc).send(hint.parcel(Gid::locality_root(p.src), None));
    }
    if owner != loc.id {
        bump!(loc.counters().dir_forwards);
    }
    p.hops += 1;
    let kind = TraceEventKind::ParcelForward;
    loc.trace_event(p.trace, kind, p.dest.0, u64::from(p.hops));
    rt.route_parcel(loc.id, owner, false, p);
}

/// [`reply`] for an op on a data object: one that left between the
/// residency check and the store access (a migration's final remove
/// interleaved) goes through [`not_here`] rather than stranding the
/// continuation. Wrong-kind targets are a user bug and fail fast —
/// retrying cannot fix them.
fn reply_or_chase(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel, r: PxResult<Value>) {
    match r {
        Err(PxError::NoSuchObject(_)) => not_here(rt, loc, p),
        r => reply(rt, loc, p, r),
    }
}

pub(super) fn data_get(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    let r = loc.data_op(p.dest, |d| {
        Value::encode(&d.read().bytes).expect("Vec<u8> encodes")
    });
    reply_or_chase(rt, loc, p, r);
}

pub(super) fn data_put(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    let bytes = match p.payload.decode::<Vec<u8>>() {
        Ok(bytes) => bytes,
        Err(e) => return kill_parcel(rt, loc, p, FaultCause::Decode, e.to_string()),
    };
    let written = loc.data_op(p.dest, |d| {
        let mut g = d.write();
        // Write freeze, checked under the object's write lock: a move
        // pins the GID *before* reading its snapshot, and that read blocks
        // on this lock — so an unfrozen put seen here is ordered before
        // the snapshot, never silently after it. A frozen put is parked
        // and re-sent toward the new owner on drain.
        let frozen = loc.agas.migration_in_flight(p.dest);
        if !frozen {
            g.bytes = bytes;
            g.version += 1;
        }
        !frozen
    });
    match written {
        Ok(true) => complete(rt, loc, p, Value::unit()),
        Ok(false) => not_here(rt, loc, p),
        Err(e) => reply_or_chase(rt, loc, p, Err(e)),
    }
}

/// Unpin `gid` and re-send the parcels parked under the pin; they
/// re-resolve against the directory as it now stands. Each gives back the
/// process token [`not_here`] took for it once it is on its way.
fn end_migration(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, gid: Gid) {
    for parked in loc.agas.end_migration(gid) {
        let process = parked.process;
        Origin::at(rt, loc).send(parked);
        if let Some(pg) = process {
            rt.process_task_done(pg);
        }
    }
}

/// `AGAS_MIGRATE` at the object's current owner: the split-phase move.
/// Pin the GID (write freeze) → snapshot bytes → `DIR_INSTALL` at the
/// destination → `DIR_UPDATE` at the home → remove the source copy →
/// unpin and drain parked parcels → `DIR_COMMIT` at the destination. A
/// request that finds another move of the object in flight parks on its
/// pin and chases the object once that move settles. Only a data object
/// moves, as with [`crate::runtime::Runtime::migrate_data`]: AGAS resolves
/// every other name to its birthplace without a lookup.
pub(super) fn migrate(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel, m: Migrate) {
    let Migrate { to, cause } = m;
    if p.dest.kind() != GidKind::Data {
        let e = PxError::NotMigratable(p.dest);
        return reply(rt, loc, p, Err(e));
    }
    if to.0 as usize >= rt.localities.len() {
        let msg = format!("migrate destination {to} out of range");
        return kill_parcel(rt, loc, p, FaultCause::HandlerError, msg);
    }
    let gid = p.dest;
    if to == loc.id {
        // Already here: the move is a no-op, ack immediately.
        return complete(rt, loc, p, Value::unit());
    }
    if !loc.agas.begin_migration(gid) {
        // Another migration of this object is mid-protocol: park the
        // request; the drain re-sends it once the store settles (it then
        // chases to wherever the object landed).
        return not_here(rt, loc, p);
    }
    // Snapshot under the pin: parked DATA_PUTs can no longer change the
    // bytes, so the installed copy is the authoritative image.
    let snapshot = loc.data_op(gid, |d| {
        let g = d.read();
        (g.bytes.clone(), g.version)
    });
    let (bytes, version) = match snapshot {
        Ok(s) => s,
        Err(e) => {
            end_migration(rt, loc, gid);
            return reply_or_chase(rt, loc, p, Err(e));
        }
    };
    let install = DirInstall {
        gid,
        version,
        bytes,
    };
    let trace = p.trace;
    let migration = Migration {
        request: p,
        to,
        cause,
    };
    Origin::at(rt, loc).request_then(
        install.parcel(Gid::locality_root(to), trace),
        move |ctx, ack| migration.installed(ctx, ack),
    );
}

/// A move between its acks, at the source.
struct Migration {
    /// The `migrate` request itself — addressed at the object, carrying
    /// the requester's continuation and trace — kept until the protocol
    /// can complete it.
    request: Parcel,
    to: LocalityId,
    cause: MigrationCause,
}

impl Migration {
    /// The install ack landed. If the destination now holds the object,
    /// flip the authoritative home-directory entry before removing the
    /// source copy (the no-window ordering: at every instant at least one
    /// locality serves the GID). A home that is the destination wrote its
    /// entry at the install, and a home that is this source writes it at
    /// the remove: only a third home is sent a `DIR_UPDATE`.
    fn installed(self, ctx: &mut Ctx<'_>, ack: Value) {
        let gid = self.request.dest;
        let home = gid.birthplace();
        if ack.is_fault() || home == ctx.here() || home == self.to {
            return self.updated(ctx, ack);
        }
        let update = DirUpdate {
            gid,
            owner: self.to,
            cause: self.cause,
        };
        Origin::at(ctx.rt_inner(), ctx.locality()).request_then(
            update.parcel(Gid::locality_root(home), self.request.trace),
            move |ctx, ack| self.updated(ctx, ack),
        );
    }

    /// The last ack landed (or a step died, and `ack` is its fault).
    fn updated(self, ctx: &mut Ctx<'_>, ack: Value) {
        let (rt, loc) = (ctx.rt_inner(), ctx.locality());
        let (gid, to) = (self.request.dest, self.to);
        if ack.is_fault() {
            // Transport fault to the destination or the home rank: unpin,
            // release parked writes — they re-resolve against the
            // unchanged directory; the source copy was never removed, so
            // the object stays served — and tell the destination to
            // discard any provisionally installed copy. Usually the
            // destination is the dead peer and this dead-letters quietly;
            // when the *home* rank died instead, the discard unpins the
            // destination and removes its orphan copy.
            end_migration(rt, loc, gid);
            let discard = DirCommit {
                gid,
                keep: false,
                owner: loc.id,
            };
            Origin::at(rt, loc).send(discard.parcel(Gid::locality_root(to), None));
            return complete(rt, loc, self.request, ack);
        }
        // Retire the source copy, repair the local cache, unpin and
        // release parked writes (they chase to the new owner). Counted
        // here, where the move completes, and nowhere else.
        match self.cause {
            MigrationCause::Manual => bump!(loc.counters().migrations_manual),
            MigrationCause::Balancer => bump!(loc.counters().migrations_balancer),
        }
        loc.agas.record_migration(gid, to);
        loc.remove(gid);
        loc.agas.repair_cache(loc.id, gid, to);
        end_migration(rt, loc, gid);
        // The source copy is gone: release the destination's install-time
        // pin so it drains parked writes and migration requests.
        let keep = DirCommit {
            gid,
            keep: true,
            owner: to,
        };
        Origin::at(rt, loc).send(keep.parcel(Gid::locality_root(to), None));
        loc.trace_event(
            self.request.trace,
            TraceEventKind::Migrate,
            gid.0,
            u64::from(to.0),
        );
        complete(rt, loc, self.request, Value::unit());
    }
}

/// `DIR_INSTALL` at a move's destination: adopt the object image into
/// the local store and point the local directory shard at ourselves
/// before acking (a parcel arriving between the ack and the home update
/// must already find the object here).
pub(super) fn dir_install(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel, m: DirInstall) {
    let gid = m.gid;
    // Pin the GID *before* the copy becomes visible: until the source's
    // `DIR_COMMIT` arrives, this locality may serve reads from the installed
    // image but must park writes and — crucially — migration requests.
    // Without the pin, a second migration could start here while the
    // source is still finalizing the first, and the source's
    // remove-at-source would then delete the copy the second migration
    // just installed: the object would vanish with both directories
    // pointing at each other.
    loc.agas.begin_migration(gid);
    let object = DataObject {
        bytes: m.bytes,
        version: m.version,
    };
    loc.insert_at(
        gid,
        Stored::Data(Arc::new(parking_lot::RwLock::new(object))),
    );
    loc.agas.record_migration(gid, loc.id);
    loc.agas.repair_cache(loc.id, gid, loc.id);
    complete(rt, loc, p, Value::unit());
}

pub(super) fn dir_update(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel, m: DirUpdate) {
    loc.agas.record_migration(m.gid, m.owner);
    loc.agas.repair_cache(loc.id, m.gid, m.owner);
    bump!(loc.counters().dir_repairs);
    complete(rt, loc, p, Value::unit());
}

pub(super) fn dir_lookup(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel, m: DirLookup) {
    bump!(loc.counters().dir_lookups_local);
    let owner = loc.agas.authoritative_owner(m.gid);
    complete(rt, loc, p, owner.encode());
}

/// Repair hints are advisory control traffic, sent fire-and-forget: a
/// lost hint only costs the sender another bounded chase.
pub(super) fn dir_repair(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel, m: DirRepair) {
    loc.agas.repair_cache(loc.id, m.gid, m.owner);
    bump!(loc.counters().dir_repairs);
    complete(rt, loc, p, Value::unit());
}

pub(super) fn dir_commit(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel, m: DirCommit) {
    let DirCommit { gid, keep, owner } = m;
    if !keep {
        // The migration failed after our provisional install: drop the
        // orphan copy and point back at the source, which never removed
        // its own.
        loc.remove(gid);
        loc.agas.record_migration(gid, owner);
        loc.agas.repair_cache(loc.id, gid, owner);
    }
    if loc.agas.migration_in_flight(gid) {
        end_migration(rt, loc, gid);
    }
    complete(rt, loc, p, Value::unit());
}

pub(super) fn name_lookup(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    let resolved = std::str::from_utf8(p.payload.bytes())
        .map_err(|_| "non-UTF-8 name_lookup payload".to_string())
        .and_then(|name| {
            rt.names
                .lookup_name(name)
                .map_err(|_| format!("name not bound at this rank: {name}"))
        });
    match resolved {
        Ok(gid) => complete(rt, loc, p, gid.encode()),
        Err(why) => kill_parcel(rt, loc, p, FaultCause::HandlerError, why),
    }
}

/// Split-phase remote directory lookup for a parcel that this locality's
/// advisory directory stranded: ask the GID's home for the authoritative
/// owner and forward on the answer (the hop is spent there). A dead home
/// rank poisons the reply through the transport dead-letter path, which
/// resolves the parcel as a counted `Transport` fault in bounded time.
fn remote_dir_lookup(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, retry: Parcel) {
    let gid = retry.dest;
    let home = gid.birthplace();
    bump!(loc.counters().dir_lookups_remote);
    let kind = TraceEventKind::Chase;
    loc.trace_event(retry.trace, kind, gid.0, u64::from(home.0));
    let stamp = loc.metrics_now();
    let ask = DirLookup { gid }.parcel(Gid::locality_root(home), retry.trace);
    Origin::at(rt, loc).request_then(ask, move |ctx, v| {
        let (rt, loc) = (ctx.rt_inner(), ctx.locality());
        loc.metric_elapsed(crate::metrics::Instrument::DirLookup, stamp);
        if v.is_fault() {
            let msg = format!("directory home {home} unreachable");
            return kill_parcel(rt, loc, retry, FaultCause::Transport, msg);
        }
        match LocalityId::decode(v.bytes()) {
            Ok(owner) => {
                loc.agas.repair_cache(loc.id, gid, owner);
                bump!(loc.counters().dir_repairs);
                forward(rt, loc, retry, owner);
            }
            Err(e) => {
                let msg = format!("undecodable dir_lookup reply: {e}");
                kill_parcel(rt, loc, retry, FaultCause::Decode, msg);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::origin::Caller;
    use crate::prelude::*;
    use crate::runtime::stepped::{for_seeds, Stepped};
    use std::cell::RefCell;

    /// `Config::small(n, 1)` with [`Touch`] registered, stepped on `seed`.
    fn stepped(n: usize, seed: u64) -> Stepped {
        let builder = RuntimeBuilder::new(Config::small(n, 1)).register::<Touch>();
        builder.stepped(seed)
    }

    /// One locality holding a data object `[9]` that is pinned and, as
    /// mid-move, absent from its owner's store; the object is returned
    /// for the test to put back.
    fn pinned_and_absent() -> (Stepped, Gid, Stored) {
        let s = stepped(1, 0);
        let x = s.rt.new_data_at(LocalityId(0), vec![9]);
        let loc = &s.rt.inner().localities[0];
        assert!(loc.agas.begin_migration(x));
        let object = loc.remove(x).unwrap();
        (s, x, object)
    }

    /// Put `object` back under `x` and end the move: the parked parcels
    /// are re-sent.
    fn put_back(s: &Stepped, x: Gid, object: Stored) {
        let loc = &s.rt.inner().localities[0];
        loc.insert_at(x, object);
        end_migration(s.rt.inner(), loc, x);
    }

    fn migrate(x: Gid, to: LocalityId) -> Parcel {
        let cause = MigrationCause::Manual;
        Migrate { to, cause }.parcel(x, None)
    }

    /// `p` sent from the driver's origin and stepped to quiescence: its
    /// reply, read.
    fn call(s: &mut Stepped, p: Parcel) -> PxResult<Value> {
        let fut = s.rt.origin().request(p);
        s.settle();
        s.reply(fut)
    }

    /// What each locality received and repaired over one move of `x`.
    fn move_legs(s: &mut Stepped, x: Gid, to: LocalityId) -> Vec<(u64, u64)> {
        let legs = |s: &Stepped| {
            s.rt.stats()
                .localities
                .iter()
                .map(|l| (l.parcels_recv, l.dir_repairs))
                .collect::<Vec<_>>()
        };
        let before = legs(s);
        call(s, migrate(x, to)).unwrap();
        let diff = |(a, b): (&(u64, u64), (u64, u64))| (b.0 - a.0, b.1 - a.1);
        before.iter().zip(legs(s)).map(diff).collect()
    }

    /// Each leg of three moves of an object born at locality 0, counted per
    /// locality as `(parcels_recv, dir_repairs)`. A move from or to the
    /// home is an install and a commit with no `DIR_UPDATE`: a home that
    /// is the source writes its entry at the remove, one that is the
    /// destination at the install. A move between two other localities
    /// sends the home one `DIR_UPDATE`, its one repair, and leaves every
    /// directory naming the new owner.
    #[test]
    fn only_a_move_between_strangers_updates_the_home() {
        let mut s = stepped(3, 0);
        let x = s.rt.new_data_at(LocalityId(0), vec![2; 8]);
        // Source: the request and the install's ack (two, and the home's
        // update's too, to L2). Destination: the install and the commit.
        // Home: the update to L2; at the driver's L0, each reply.
        let legs = [
            (1, [(2, 0), (2, 0), (0, 0)]),
            (2, [(2, 1), (3, 0), (2, 0)]),
            (0, [(3, 0), (0, 0), (2, 0)]),
        ];
        for (to, want) in legs {
            assert_eq!(move_legs(&mut s, x, LocalityId(to)), want, "to L{to}");
            let mut dirs = s.rt.inner().localities.iter();
            let named = dirs.all(|l| l.agas.authoritative_owner(x) == LocalityId(2));
            assert!(to != 2 || named, "a directory missed the update");
        }
        let read = call(&mut s, crate::sys::bare(x, crate::sys::DATA_GET));
        assert_eq!(read.unwrap().decode::<Vec<u8>>().unwrap(), vec![2; 8]);
    }

    /// A put that arrives while its object moves is frozen, like every
    /// parcel for a pinned object: it parks on the source's pin, is
    /// re-sent when the move ends, and lands once, at the new owner — one
    /// version past the image the move carried.
    #[test]
    fn a_put_during_a_move_lands_once_at_the_new_owner() {
        let mut s = stepped(2, 0);
        let (src, dst) = (LocalityId(0), LocalityId(1));
        let x = s.rt.new_data_at(src, vec![1; 4]);
        let moved = s.rt.origin().request(migrate(x, dst));
        // The source runs the request: the move pins and sends its install.
        assert!(s.turn(0));
        let src_loc = s.rt.inner().locality(src).clone();
        assert!(src_loc.agas.migration_in_flight(x));
        let bytes = Value::encode(&vec![7u8; 4]).unwrap();
        let put = Parcel::new(x, crate::sys::DATA_PUT, bytes, Continuation::none());
        let put = s.rt.origin().request(put);
        assert!(s.turn(0));
        assert_eq!(src_loc.agas.parked(x), 1, "the put parks on the pin");
        s.settle();
        assert!(s.reply(moved).is_ok() && s.reply(put).is_ok());
        assert!(!src_loc.contains(x));
        let object = s.rt.inner().locality(dst).data_op(x, |d| {
            let g = d.read();
            (g.bytes.clone(), g.version)
        });
        assert_eq!(object.unwrap(), (vec![7u8; 4], 1));
        assert_eq!(s.rt.stats().total().dead_parcels, 0);
    }

    /// A locality that is not an object's home, and whose advisory
    /// directory names itself for an object it does not hold — the entry
    /// a lost `DIR_COMMIT` leaves — asks the home once, and the read is
    /// forwarded on the answer.
    #[test]
    fn a_stale_entry_away_from_home_asks_the_home_once() {
        let mut s = stepped(2, 0);
        let (home, stale) = (LocalityId(0), LocalityId(1));
        let x = s.rt.new_data_at(home, vec![5]);
        s.rt.inner().locality(stale).agas.record_migration(x, stale);
        let (tx, rx) = std::sync::mpsc::channel();
        s.rt.spawn_at(stale, move |ctx| tx.send(ctx.fetch_data(x)).unwrap());
        s.settle();
        assert_eq!(s.take(rx.try_recv().unwrap()), Some(vec![5]));
        let stats = s.rt.stats();
        let (h, st) = (&stats.localities[0], &stats.localities[1]);
        assert_eq!((st.dir_lookups_remote, h.dir_lookups_local), (1, 1));
        assert_eq!((st.parcels_forwarded, h.chased_parcels), (1, 1));
        assert_eq!(stats.total().dead_parcels, 0);
        let cached = s.rt.inner().locality(stale).agas.resolve(stale, x);
        assert_eq!(cached.owner, home);
    }

    /// A parcel for a pinned object absent at its owner — here a process's
    /// `DATA_GET` — parks on the pin: dispatched once, then not again (the
    /// runtime settles with it parked), holding its process active; once
    /// the move ends it completes with no hop, and the process quiesces.
    #[test]
    fn a_parked_parcel_waits_for_the_move_and_keeps_its_process_active() {
        let (mut s, x, object) = pinned_and_absent();
        let proc = s.rt.create_process(LocalityId(0));
        let (tx, rx) = std::sync::mpsc::channel();
        proc.spawn_at(&s.rt, LocalityId(0), move |ctx| {
            // A raw send is the thread's own work, accounted to its
            // process (`fetch_data` sends a system parcel, which is not).
            let fut = ctx.new_future::<Vec<u8>>();
            let cont = Continuation::set(fut.gid());
            ctx.send_parcel(Parcel::new(x, crate::sys::DATA_GET, Value::unit(), cont));
            tx.send(fut).unwrap();
        });
        proc.finish_root(&s.rt);
        s.settle();
        let (fut, done) = (rx.try_recv().unwrap(), proc.done_future());
        assert_eq!(s.rt.inner().localities[0].agas.parked(x), 1);
        assert_eq!(s.rt.stats().total().parcels_recv, 1);
        assert_eq!(s.take(done), None, "quiescent with a parcel parked");
        assert_eq!(proc.active(&s.rt), 1, "the parked parcel's token");
        put_back(&s, x, object);
        s.settle();
        assert_eq!((s.take(fut), s.take(done)), (Some(vec![9]), Some(())));
        assert_eq!(proc.active(&s.rt), 0);
        let t = s.rt.stats().total();
        assert_eq!(t.parcels_recv, 2, "once parked, once re-sent");
        let (forwarded, hops) = (t.parcels_forwarded, t.chase_hops_total);
        assert_eq!((forwarded, hops, t.dead_parcels), (0, 0, 0));
    }

    /// A move to a locality that does not exist gets one answer on both
    /// paths, naming the destination: `Runtime::migrate_data` and a raw
    /// `AGAS_MIGRATE` parcel both fault with it, and the object stays.
    #[test]
    fn an_out_of_range_destination_gets_one_answer_on_both_paths() {
        let rt = RuntimeBuilder::new(Config::small(2, 1)).build().unwrap();
        let (x, nowhere) = (rt.new_data_at(LocalityId(1), vec![3]), LocalityId(9));
        let api = rt.migrate_data(x, nowhere).map(|()| Value::unit());
        for answer in [api, rt.sys_rpc(migrate(x, nowhere))] {
            let Err(PxError::Fault(f)) = answer else {
                panic!("expected a fault, got {answer:?}")
            };
            let why = "migrate destination L9 out of range";
            assert_eq!((f.cause, &*f.message), (FaultCause::HandlerError, why));
        }
        assert!(rt.inner().localities[1].contains(x));
        rt.shutdown();
    }

    /// A stepped runtime of three localities over a 10 µs wire, and
    /// every fault its dead-letter hook hears.
    fn lossy(seed: u64) -> (Stepped, Arc<parking_lot::Mutex<Vec<Fault>>>) {
        let faults = Arc::<parking_lot::Mutex<Vec<Fault>>>::default();
        let log = faults.clone();
        let cfg = Config::small(3, 1).with_latency(std::time::Duration::from_micros(10));
        let builder = RuntimeBuilder::new(cfg).on_dead_letter(move |f| log.lock().push(f.clone()));
        (builder.stepped(seed), faults)
    }

    /// A read of `x` requested at locality `l`.
    fn read_at(s: &Stepped, l: usize, x: Gid) -> Gid {
        let loc = &s.rt.inner().localities[l];
        Origin::at(s.rt.inner(), loc).request(crate::sys::bare(x, crate::sys::DATA_GET))
    }

    /// The dead-home arm of `remote_dir_lookup`: an object born at L1
    /// lives at L2, L0's directory names L0 for it — the entry a lost
    /// commit leaves — and L1, the object's home, is killed at a turn the
    /// seed draws before its heap delivers anything. A read at L0 strands
    /// there and asks the home: the ask dies once, and so does the read,
    /// each as `Transport`, the read's waiter told the home is
    /// unreachable; the hook hears of the loss once, and L0's and L2's
    /// stores hold what they held before.
    #[test]
    fn a_parcel_stranded_away_from_a_dead_home_dies_once() {
        for_seeds(1000, |seed| {
            let (mut s, faults) = lossy(seed);
            let x = s.rt.new_data_at(LocalityId(1), vec![4]);
            call(&mut s, migrate(x, LocalityId(2))).unwrap();
            let stale = &s.rt.inner().localities[0];
            stale.agas.record_migration(x, stale.id);
            let sizes = s.store_sizes();
            let read = read_at(&s, 0, x);
            let home = s.rt.inner().localities[1].clone();
            for _ in 0..s.draw(8) {
                if home.timers.due() || !s.step() {
                    break;
                }
            }
            s.kill(1);
            s.settle();
            let Err(PxError::Fault(f)) = s.reply(read) else {
                panic!("the read was answered")
            };
            let why = "directory home L1 unreachable";
            assert_eq!((f.cause, &*f.message), (FaultCause::Transport, why));
            let t = s.rt.stats().localities[0];
            let counts = (t.dir_lookups_remote, t.dead_parcels, t.dead_transport);
            assert_eq!(counts, (1, 2, 2), "one lookup; the ask and the read died");
            let faults = faults.lock().clone();
            let messages: Vec<_> = faults.iter().map(|f| (f.cause, &*f.message)).collect();
            let lost = (FaultCause::Transport, "peer L1 unreachable: killed");
            let ask = (FaultCause::Transport, "transport to locality 1 lost");
            assert_eq!(messages, [lost, ask, (FaultCause::Transport, why)]);
            let now = s.store_sizes();
            assert_eq!((now[0], now[2]), (sizes[0], sizes[2]));
        });
    }

    /// The stranded destination pin, probed with a kill: L1 moves
    /// the object it holds to L2, and dies once L2 has installed it —
    /// resident and pinned — before the install's ack reaches it. No
    /// commit will come, so L2's pin stays: a read sent there parks for
    /// good, and so does the move's own request, while a read at the home
    /// chases to the dead L1 and dies. An open defect (ROADMAP item 1);
    /// this pins what happens today, on 1 000 seeds.
    #[test]
    fn a_source_killed_between_install_and_commit_strands_the_destination_pin() {
        for_seeds(1000, |seed| {
            let (mut s, _) = lossy(seed);
            let (src, dst) = (LocalityId(1), LocalityId(2));
            let x = s.rt.new_data_at(LocalityId(0), vec![6]);
            call(&mut s, migrate(x, src)).unwrap();
            let moved = s.rt.origin().request(migrate(x, dst));
            let at_dst = s.rt.inner().locality(dst).clone();
            while !at_dst.contains(x) {
                assert!(s.step(), "the install never landed");
            }
            s.kill(1);
            let (parked, chased) = (read_at(&s, 2, x), read_at(&s, 0, x));
            s.settle();
            assert!(at_dst.agas.migration_in_flight(x), "the pin was lifted");
            assert_eq!(at_dst.agas.parked(x), 1, "the read at L2 parks");
            let pending = |fut| s.rt.inner().wait_lco(fut, Some(std::time::Duration::ZERO));
            assert!(matches!(pending(parked), Ok(None)) && matches!(pending(moved), Ok(None)));
            let Err(PxError::Fault(f)) = s.reply(chased) else {
                panic!("the home's read was answered")
            };
            assert_eq!(f.cause, FaultCause::Transport, "{f}");
        });
    }

    thread_local! {
        /// Touches that ran, and touches sent (with the sender), since the
        /// driver last looked: a stepped run turns on the test's thread.
        static RAN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
        static SENT: RefCell<Vec<(usize, u32)>> = const { RefCell::new(Vec::new()) };
    }

    /// A user action on a data object: it chases the object like any
    /// parcel addressed at it, and records that it ran.
    struct Touch;

    impl Action for Touch {
        const NAME: &'static str = "test/touch";
        type Args = u32;
        type Out = ();
        fn execute(_: &mut Ctx<'_>, _: Gid, k: u32) {
            RAN.with(|ran| ran.borrow_mut().push(k));
        }
    }

    /// A thread at locality `l`, of `proc` if given, sending touch `k`.
    fn touch(rt: &Runtime, proc: Option<ProcessRef>, l: usize, x: Gid, k: u32) {
        let send = move |ctx: &mut Ctx<'_>| {
            SENT.with(|sent| sent.borrow_mut().push((l, k)));
            let k = Value::encode(&k).unwrap();
            ctx.send_parcel(Parcel::new(x, Touch::id(), k, Continuation::none()));
        };
        let at = LocalityId(l as u16);
        proc.map_or_else(|| rt.spawn_at(at, send), |p| p.spawn_at(rt, at, send));
    }

    /// A seeded run between turns: where the object lived (birthplace, then
    /// each completed move's destination); per touch, the moves completed
    /// when it left and the owner its sender resolved, then its hops.
    struct Chase {
        s: Stepped,
        x: Gid,
        owners: Vec<usize>,
        left: [(usize, usize); 14],
        hops: [Option<u64>; 14],
        chased: u64,
    }

    impl Chase {
        fn residents(&self) -> Vec<usize> {
            let locs = &self.s.rt.inner().localities;
            (0..3).filter(|&l| locs[l].contains(self.x)).collect()
        }

        /// One turn, and what holds after every turn: moves of one object
        /// never overlap (once one completes, its destination alone holds
        /// the object), and a touch that ran spent no more hops than the
        /// moves completed since the locality its sender resolved last
        /// held the object — for a sender whose view was current, the
        /// moves that completed while it travelled.
        fn turn(&mut self) -> bool {
            let turned = self.s.step();
            let t = self.s.rt.stats().total();
            if t.migrations_manual as usize == self.owners.len() {
                let [owner] = self.residents()[..] else {
                    panic!("two residents")
                };
                self.owners.push(owner);
            }
            for (l, k) in SENT.take() {
                let loc = &self.s.rt.inner().localities[l];
                let seen = loc.agas.resolve(loc.id, self.x).owner;
                self.left[k as usize] = (self.owners.len() - 1, usize::from(seen.0));
            }
            let ran = RAN.take();
            assert!(ran.len() <= 1, "one dispatch per turn");
            for k in ran {
                let (hops, (sent, seen)) =
                    (t.chase_hops_total - self.chased, self.left[k as usize]);
                let since = self.owners[..=sent].iter().rposition(|&o| o == seen);
                let moves = self.owners.len() - 1 - since.unwrap_or(sent);
                assert!(
                    hops <= moves as u64,
                    "touch {k}: {hops} hops, {moves} moves"
                );
                self.hops[k as usize] = Some(hops);
            }
            self.chased = t.chase_hops_total;
            turned
        }
    }

    /// One seeded run: three localities; one object born at locality 0,
    /// moved up to seven times by requests from any locality, while eight
    /// threads of a process touch it from any locality. Checked after
    /// every turn ([`Chase::turn`]) and once it settles: the process is
    /// done only once every touch has run, and has no activity left;
    /// every move succeeded and no parcel died; the object lives once,
    /// where its home says; each locality's second touch after the run
    /// takes no hop (its first repaired its view); and once the object
    /// is moved home, every store is back to its size.
    fn chase(seed: u64) -> Stepped {
        let s = stepped(3, seed);
        let x = s.rt.new_data_at(LocalityId(0), vec![1; 4]);
        let (proc, sizes) = (s.rt.create_process(LocalityId(0)), s.store_sizes());
        let (owners, left, hops) = (vec![0], [(0, 0); 14], [None; 14]);
        let mut c = Chase {
            s,
            x,
            owners,
            left,
            hops,
            chased: 0,
        };
        // The moves and touches, each issued before a turn the seed picks.
        let (mut moves_left, mut k, mut moves, mut done) = (1 + c.s.draw(7), 0, vec![], false);
        loop {
            let (l, to) = (c.s.draw(3), LocalityId(c.s.draw(3) as u16));
            match c.s.draw(4) {
                0 if moves_left > 0 => {
                    moves_left -= 1;
                    let at = &c.s.rt.inner().localities[l];
                    moves.push(Origin::at(c.s.rt.inner(), at).request(migrate(x, to)));
                }
                1 if k < 8 => {
                    touch(&c.s.rt, Some(proc), l, x, k);
                    k += 1;
                }
                _ => {}
            }
            let issued = moves_left == 0 && k == 8;
            if issued {
                proc.finish_root(&c.s.rt);
            }
            if !c.turn() && issued {
                break;
            }
            if !done && c.s.take(proc.done_future()).is_some() {
                let ran = c.hops.iter().filter(|h| h.is_some()).count();
                assert_eq!(ran, 8, "done with touches queued");
                done = true;
            }
        }
        assert!(done && proc.active(&c.s.rt) == 0, "never quiesced");
        for fut in moves {
            c.s.reply(fut).unwrap();
        }
        assert_eq!(c.s.rt.stats().total().dead_parcels, 0);
        let home = c.s.rt.inner().localities[0].agas.authoritative_owner(x);
        assert_eq!(c.residents(), [usize::from(home.0)], "not where home says");
        for k in 8..14 {
            touch(&c.s.rt, None, (k as usize - 8) / 2, x, k);
            while c.turn() {}
        }
        let repaired = [9, 11, 13].map(|k| c.hops[k]);
        assert_eq!(repaired, [Some(0); 3], "a repaired sender's touch chased");
        call(&mut c.s, migrate(x, LocalityId(0))).unwrap();
        assert_eq!((c.residents(), c.s.store_sizes()), (vec![0], sizes));
        c.s
    }

    /// The chase on 1 000 seeds.
    #[test]
    fn seeded_moves_and_touches_keep_the_chase_bounded() {
        for_seeds(1000, |seed| drop(chase(seed)));
    }

    /// A seed replays: two runs of one seed count the same.
    #[test]
    fn a_seed_replays_to_the_same_stats() {
        let stats = |seed| format!("{:?}", chase(seed).rt.stats());
        assert_eq!(stats(7), stats(7));
        assert_ne!(stats(7), stats(8), "two seeds, one schedule");
    }
}
