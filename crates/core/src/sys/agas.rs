//! The global address space as system actions: data get/put on an object
//! wherever it lives, cross-rank migration (split-phase: install at the
//! destination → flip the home directory → remove at the source →
//! commit), the home-directory lookups and repairs that keep the chase
//! bounded, and cluster-visible names. No lock is held across a round
//! trip and no worker blocks on one: each ack resumes as a depleted
//! thread (`Origin::request_then`).

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
use crate::sched::{complete, kill_parcel, retry_after_migration};
use crate::stats::bump;
use crate::trace::TraceEventKind;
use std::sync::Arc;

/// [`reply`] for an op on a data object: one that left between the
/// residency check and the store access (a migration's final remove
/// interleaved) is chased rather than stranding the continuation.
/// Wrong-kind targets are a user bug and fail fast — retrying cannot fix
/// them.
fn reply_or_chase(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel, r: PxResult<Value>) {
    match r {
        Err(PxError::NoSuchObject(_)) => retry_after_migration(rt, loc, p),
        r => reply(rt, loc, p, r),
    }
}

pub(super) fn data_get(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    let r = loc
        .get_data(p.dest)
        .map(|d| Value::encode(&d.read().bytes).expect("Vec<u8> encodes"));
    reply_or_chase(rt, loc, p, r);
}

pub(super) fn data_put(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    let bytes = match p.payload.decode::<Vec<u8>>() {
        Ok(bytes) => bytes,
        Err(e) => return kill_parcel(rt, loc, p, FaultCause::Decode, e.to_string()),
    };
    let d = match loc.get_data(p.dest) {
        Ok(d) => d,
        Err(e) => return reply_or_chase(rt, loc, p, Err(e)),
    };
    let mut g = d.write();
    // Write freeze, checked under the object's write lock: a cross-rank
    // migration pins the GID *before* reading its snapshot, and that read
    // blocks on this lock — so an unfrozen put seen here is ordered
    // before the snapshot, never silently after it. A frozen put is
    // parked and re-sent toward the new owner on drain.
    if rt.distributed() && rt.agas.migration_in_flight(p.dest) {
        drop(g);
        return park_during_migration(rt, loc, p);
    }
    g.bytes = bytes;
    g.version += 1;
    drop(g);
    complete(rt, loc, p, Value::unit());
}

/// Park `p` against its target's in-flight migration: it lives in the
/// migration-sync map until `end_migration` drains and re-sends it. If
/// the protocol settled before we could park, chase the object to
/// wherever it landed.
fn park_during_migration(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    if let Some(back) = rt.agas.defer_during_migration(p.dest, p) {
        retry_after_migration(rt, loc, back);
    }
}

/// Unpin `gid` and re-send the parcels parked under the pin; they
/// re-resolve against the directory as it now stands.
fn end_migration(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, gid: Gid) {
    for parked in rt.agas.end_migration(gid) {
        Origin::at(rt, loc).send(parked);
    }
}

/// `AGAS_MIGRATE` at the object's current resident rank. Same-rank
/// destinations reduce to the in-process move; cross-rank destinations
/// run the split-phase protocol: pin the GID (write freeze) → snapshot
/// bytes → `DIR_INSTALL` at dest → `DIR_UPDATE` at the home rank → remove
/// the source copy → unpin and drain parked writes. Only a data object
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
    if rt.owns(to) {
        // Destination shares this OS process: the serialized in-process
        // move suffices (no RTT, so holding `migrate_lock` is fine).
        let r = crate::balance::migrate_object(rt, gid, loc.id, to, cause);
        return reply_or_chase(rt, loc, p, r.map(|()| Value::unit()));
    }
    if !rt.agas.begin_migration(gid) {
        // Another migration of this object is mid-protocol: park the
        // request; the drain re-sends it once the store settles (it then
        // chases to wherever the object landed).
        return park_during_migration(rt, loc, p);
    }
    // Snapshot under the pin: parked DATA_PUTs can no longer change the
    // bytes, so the installed copy is the authoritative image.
    let snapshot = loc.get_data(gid).map(|d| {
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

/// A cross-rank migration between its acks, at the source rank.
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
    /// flip the authoritative home-directory entry — remotely, unless
    /// this rank is the home — before removing the source copy (the
    /// no-window ordering: at every instant at least one rank serves the
    /// GID).
    fn installed(self, ctx: &mut Ctx<'_>, ack: Value) {
        let gid = self.request.dest;
        let home = gid.birthplace();
        if ack.is_fault() || ctx.rt_inner().owns(home) {
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
        // release parked writes (they chase to the new owner). Counted at
        // the initiating rank only; the destination and home ranks wrote
        // their directories via `note_owner` (no tallies).
        rt.agas.record_migration_caused(gid, to, self.cause);
        loc.remove(gid);
        rt.agas.repair_cache(loc.id, gid, to);
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

/// `DIR_INSTALL` at a migration's destination rank: adopt the object
/// image into the local store and point the local directory shard at
/// ourselves before acking (a parcel arriving between the ack and the
/// home update must already find the object here).
pub(super) fn dir_install(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel, m: DirInstall) {
    let gid = m.gid;
    // Pin the GID *before* the copy becomes visible: until the source's
    // `DIR_COMMIT` arrives, this rank may serve reads from the installed
    // image but must park writes and — crucially — migration requests.
    // Without the pin, a second migration could start here while the
    // source is still finalizing the first, and the source's
    // remove-at-source would then delete the copy the second migration
    // just installed: the object would vanish with both directories
    // pointing at each other.
    rt.agas.begin_migration(gid);
    let object = DataObject {
        bytes: m.bytes,
        version: m.version,
    };
    loc.insert_at(
        gid,
        Stored::Data(Arc::new(parking_lot::RwLock::new(object))),
    );
    rt.agas.note_owner(gid, loc.id);
    rt.agas.repair_cache(loc.id, gid, loc.id);
    complete(rt, loc, p, Value::unit());
}

pub(super) fn dir_update(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel, m: DirUpdate) {
    rt.agas.note_owner(m.gid, m.owner);
    rt.agas.repair_cache(loc.id, m.gid, m.owner);
    bump!(loc.counters().dir_repairs);
    complete(rt, loc, p, Value::unit());
}

pub(super) fn dir_lookup(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel, m: DirLookup) {
    bump!(loc.counters().dir_lookups_local);
    let owner = rt.agas.authoritative_owner(m.gid);
    complete(rt, loc, p, owner.encode());
}

/// Repair hints are advisory control traffic, sent fire-and-forget: a
/// lost hint only costs the sender another bounded chase.
pub(super) fn dir_repair(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel, m: DirRepair) {
    rt.agas.repair_cache(loc.id, m.gid, m.owner);
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
        rt.agas.note_owner(gid, owner);
        rt.agas.repair_cache(loc.id, gid, owner);
    }
    if rt.agas.migration_in_flight(gid) {
        end_migration(rt, loc, gid);
    }
    complete(rt, loc, p, Value::unit());
}

pub(super) fn name_lookup(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    let resolved = std::str::from_utf8(p.payload.bytes())
        .map_err(|_| "non-UTF-8 name_lookup payload".to_string())
        .and_then(|name| {
            rt.agas
                .lookup_name(name)
                .map_err(|_| format!("name not bound at this rank: {name}"))
        });
    match resolved {
        Ok(gid) => complete(rt, loc, p, gid.encode()),
        Err(why) => kill_parcel(rt, loc, p, FaultCause::HandlerError, why),
    }
}

/// Split-phase remote directory lookup for a parcel (already charged its
/// hop) that this rank's stale directory stranded: ask the GID's home
/// rank for the authoritative owner and re-route on the answer. A dead
/// home rank poisons the reply through the transport dead-letter path,
/// which resolves the parcel as a counted `Transport` fault in bounded
/// time.
pub(crate) fn remote_dir_lookup(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, retry: Parcel) {
    let gid = retry.dest;
    let home = gid.birthplace();
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
                rt.agas.repair_cache(loc.id, gid, owner);
                bump!(loc.counters().dir_repairs);
                rt.route_parcel(loc.id, owner, retry);
            }
            Err(e) => {
                let msg = format!("undecodable dir_lookup reply: {e}");
                kill_parcel(rt, loc, retry, FaultCause::Decode, msg);
            }
        }
    });
}
