//! The Active Global Address Space: name → locality resolution with
//! "efficient address translation … in the presence of dynamic object
//! distribution" (§2.1 requirement; §2.2 "global name space").
//!
//! Resolution is **home-based with caching**:
//!
//! 1. A GID's default home is its *birthplace* (packed in the GID itself).
//!    Only data objects migrate, so every other name (LCOs, processes,
//!    echo nodes, locality roots) resolves there with no lookup at all.
//! 2. Objects that migrate get an entry in the sharded **directory**; the
//!    entry is authoritative.
//! 3. Each locality keeps a **resolution cache**. Stale cache entries are
//!    possible immediately after a migration; the parcel layer repairs
//!    them by *forwarding* the mis-delivered parcel (bounded chase) and
//!    sending a cache-repair hint to the sender. This mirrors the classic
//!    home-forwarding AGAS design the ParalleX model assumes.
//!
//! The symbolic name service ("hierarchical naming structure") maps
//! path-style strings (`"/app/mesh/block7"`) to GIDs.
//!
//! ## Moves and the hop bound
//!
//! Every move of an object, in-process or across ranks, pins its GID
//! ([`Agas::begin_migration`]) from its first step to its last. A parcel
//! that does not find its object where it lands follows one rule
//! (`sys::agas::not_here`): it is forwarded when the directory names
//! another locality, parks on the pin when a move is in flight, and dies
//! at once when an authoritative directory says the object is absent —
//! freed, or never created. Only a forward costs a hop, and a forward
//! follows a directory entry some completed move wrote, so on both
//! backends **a parcel's hops are at most the moves of its object that
//! complete while it travels**. The 16-hop cap is reached only by a
//! migration storm.
//!
//! ## Distributed operation
//!
//! Over TCP every OS process holds one `Agas` instance, but only the
//! directory shards on a GID's **home rank** (its birthplace) are
//! cluster-authoritative. Other ranks' directory shards and caches are
//! advisory fast paths: they are filled by `__sys/dir_repair` hints and
//! by migration acknowledgements, and a stale answer is always repaired
//! by the same bounded forwarding chase used in-process (the chasing
//! parcel carries its hop count; the home rank is consulted via
//! `__sys/dir_lookup` on the control lane when the chase needs an
//! authoritative answer). A cross-rank move holds its pin across the
//! protocol's round trips; no lock is ever held across the wire.

use crate::error::{PxError, PxResult};
use crate::fxmap::{FxHashMap, FxHashSet};
use crate::gid::{Gid, GidKind, LocalityId};
use crate::stats::Counter;
use parking_lot::{Mutex, RwLock};

const DIR_SHARDS: usize = 16;

/// Who initiated a migration (surfaced in
/// [`crate::stats::StatsSnapshot`] so balancer churn is distinguishable
/// from application-directed placement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationCause {
    /// Explicit `migrate_data` call by the application/driver.
    Manual,
    /// Heat-driven pull by the `px-balance` balancer.
    Balancer,
}

/// State behind [`Agas::begin_migration`]/[`Agas::end_migration`]: which
/// GIDs have a move in flight, and the parcels parked against each until
/// the move settles.
#[derive(Default)]
struct MigrationSync {
    in_flight: FxHashSet<Gid>,
    deferred: FxHashMap<Gid, Vec<crate::parcel::Parcel>>,
}

/// The AGAS service shared by all localities of a runtime.
pub struct Agas {
    /// Directory of migrated objects (authoritative). Sharded to keep
    /// write contention off the resolution fast path.
    directory: Vec<RwLock<FxHashMap<Gid, LocalityId>>>,
    /// Per-locality resolution caches.
    caches: Vec<RwLock<FxHashMap<Gid, LocalityId>>>,
    /// Per-locality outgoing access heat: how often each locality sent a
    /// parcel at a remote data object since the balancer last drained the
    /// map. Only written when balancing is enabled (the send path gates
    /// the hook), so the un-balanced fast path never touches these locks.
    heat: Vec<Mutex<FxHashMap<Gid, u64>>>,
    /// Symbolic names (global, rarely written).
    names: RwLock<FxHashMap<String, Gid>>,
    /// Move serialization, one pin per GID. Every move pins its GID in
    /// `in_flight` for its whole run — the in-process store move and the
    /// cross-rank protocol's round trips alike — so two moves of one
    /// object never interleave (both could otherwise read the same
    /// source and leave a stale copy at the directory loser), and
    /// parcels that find the object absent meanwhile park in `deferred`.
    /// The lock only guards set/map membership — it is never held
    /// across a wire operation.
    migration_sync: Mutex<MigrationSync>,
    /// Monotone count of migrations (diagnostics).
    migrations: Counter,
    /// Migrations recorded with [`MigrationCause::Manual`].
    migrations_manual: Counter,
    /// Migrations recorded with [`MigrationCause::Balancer`].
    migrations_balancer: Counter,
}

impl std::fmt::Debug for Agas {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Agas")
            .field("migrations", &self.migrations.get())
            .field("names", &self.names.read().len())
            .finish()
    }
}

impl Agas {
    /// AGAS for `n` localities.
    pub fn new(n: usize) -> Self {
        Agas {
            directory: (0..DIR_SHARDS)
                .map(|_| RwLock::new(FxHashMap::default()))
                .collect(),
            caches: (0..n).map(|_| RwLock::new(FxHashMap::default())).collect(),
            heat: (0..n).map(|_| Mutex::new(FxHashMap::default())).collect(),
            names: RwLock::new(FxHashMap::default()),
            migration_sync: Mutex::new(MigrationSync::default()),
            migrations: Counter::default(),
            migrations_manual: Counter::default(),
            migrations_balancer: Counter::default(),
        }
    }

    #[inline]
    fn shard(&self, gid: Gid) -> &RwLock<FxHashMap<Gid, LocalityId>> {
        // Cheap mix: sequence low bits spread well already.
        &self.directory[(gid.0 as usize) & (DIR_SHARDS - 1)]
    }

    /// Resolve the current owner of `gid` as seen from locality `from`.
    /// Only data objects migrate, so any other name resolves to its
    /// birthplace without touching a cache or the directory.
    pub fn resolve(&self, from: LocalityId, gid: Gid) -> Resolution {
        if gid.kind() != GidKind::Data {
            return Resolution {
                owner: gid.birthplace(),
                source: ResolutionSource::Birthplace,
            };
        }
        if let Some(&owner) = self.caches[from.0 as usize].read().get(&gid) {
            return Resolution {
                owner,
                source: ResolutionSource::Cache,
            };
        }
        if let Some(&owner) = self.shard(gid).read().get(&gid) {
            self.caches[from.0 as usize].write().insert(gid, owner);
            return Resolution {
                owner,
                source: ResolutionSource::Directory,
            };
        }
        Resolution {
            owner: gid.birthplace(),
            source: ResolutionSource::Birthplace,
        }
    }

    /// Authoritative owner (directory, then birthplace) — used by a
    /// locality that received a parcel for an object it no longer owns.
    pub fn authoritative_owner(&self, gid: Gid) -> LocalityId {
        self.shard(gid)
            .read()
            .get(&gid)
            .copied()
            .unwrap_or_else(|| gid.birthplace())
    }

    /// Record a migration: `gid` now lives at `to`. Attributed to
    /// [`MigrationCause::Manual`]; the balancer uses
    /// [`Agas::record_migration_caused`].
    pub fn record_migration(&self, gid: Gid, to: LocalityId) {
        self.record_migration_caused(gid, to, MigrationCause::Manual);
    }

    /// Record a migration with an explicit cause.
    pub fn record_migration_caused(&self, gid: Gid, to: LocalityId, cause: MigrationCause) {
        // Tallies only: the directory write below is what synchronizes
        // the move itself.
        self.migrations.add(1);
        match cause {
            MigrationCause::Manual => self.migrations_manual.add(1),
            MigrationCause::Balancer => self.migrations_balancer.add(1),
        };
        self.note_owner(gid, to);
    }

    /// Directory write without migration accounting: the `__sys`
    /// directory ops use this at the destination and home ranks (the
    /// rank that *initiated* the move already counted the migration;
    /// counting it again at every participating rank would inflate the
    /// per-rank migration totals).
    pub fn note_owner(&self, gid: Gid, to: LocalityId) {
        let mut shard = self.shard(gid).write();
        if to == gid.birthplace() {
            // Back home: the directory entry is redundant.
            shard.remove(&gid);
        } else {
            shard.insert(gid, to);
        }
    }

    /// Repair one locality's cache entry (forwarding hint).
    pub fn repair_cache(&self, at: LocalityId, gid: Gid, owner: LocalityId) {
        self.caches[at.0 as usize].write().insert(gid, owner);
    }

    /// Total migrations recorded.
    pub fn migrations(&self) -> u64 {
        self.migrations.get()
    }

    /// Pin `gid` for a move. Returns `false` (and pins nothing) when a
    /// move of the same GID is already in flight — the caller must not
    /// race it: it parks its request via [`Agas::defer_during_migration`]
    /// or reports the object gone.
    /// Pair every `true` return with exactly one [`Agas::end_migration`],
    /// including on every failure path.
    pub fn begin_migration(&self, gid: Gid) -> bool {
        self.migration_sync.lock().in_flight.insert(gid)
    }

    /// Release a pin taken by a successful [`Agas::begin_migration`] and
    /// atomically take every parcel parked against it — the caller must
    /// re-send each one (they re-resolve against the settled directory).
    /// Unpinning and draining under one lock means a racing
    /// [`Agas::defer_during_migration`] either parks before the drain
    /// (and is returned here) or observes the pin gone and keeps its
    /// parcel; nothing can park forever.
    #[must_use = "re-send the parked parcels or their continuations hang"]
    pub fn end_migration(&self, gid: Gid) -> Vec<crate::parcel::Parcel> {
        let mut sync = self.migration_sync.lock();
        let removed = sync.in_flight.remove(&gid);
        debug_assert!(removed, "end_migration without begin_migration");
        sync.deferred.remove(&gid).unwrap_or_default()
    }

    /// Park `p` until the move of `gid` in flight settles, and return
    /// `None`. With no move in flight, run `look` under the same lock and
    /// hand the parcel back with its answer: no move of `gid` can start
    /// or end meanwhile, so what `look` reads of the directory and the
    /// stores is one consistent state.
    pub fn defer_during_migration<T>(
        &self,
        gid: Gid,
        p: crate::parcel::Parcel,
        look: impl FnOnce() -> T,
    ) -> Option<(crate::parcel::Parcel, T)> {
        let mut sync = self.migration_sync.lock();
        if sync.in_flight.contains(&gid) {
            sync.deferred.entry(gid).or_default().push(p);
            None
        } else {
            Some((p, look()))
        }
    }

    /// How many parcels are parked on `gid`'s pin.
    #[cfg(test)]
    pub(crate) fn parked(&self, gid: Gid) -> usize {
        let sync = self.migration_sync.lock();
        sync.deferred.get(&gid).map_or(0, Vec::len)
    }

    /// Whether a move of `gid` is currently in flight.
    pub fn migration_in_flight(&self, gid: Gid) -> bool {
        self.migration_sync.lock().in_flight.contains(&gid)
    }

    /// Migrations split by cause: `(manual, balancer)`.
    pub fn migrations_by_cause(&self) -> (u64, u64) {
        (self.migrations_manual.get(), self.migrations_balancer.get())
    }

    // ---- access heat -------------------------------------------------------

    /// Note that locality `from` addressed a parcel at remote object
    /// `gid`. Called from the send path only while balancing is enabled;
    /// the counts accumulate until [`Agas::drain_heat`] empties them each
    /// balancer round, so "heat" is accesses-per-round.
    pub fn note_access(&self, from: LocalityId, gid: Gid) {
        if let Some(m) = self.heat.get(from.0 as usize) {
            *m.lock().entry(gid).or_insert(0) += 1;
        }
    }

    /// Take and clear locality `from`'s access-heat map, hottest first.
    pub fn drain_heat(&self, from: LocalityId) -> Vec<(Gid, u64)> {
        let Some(m) = self.heat.get(from.0 as usize) else {
            return Vec::new();
        };
        let drained = std::mem::take(&mut *m.lock());
        let mut v: Vec<(Gid, u64)> = drained.into_iter().collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    // ---- symbolic names ---------------------------------------------------

    /// Bind a hierarchical name to a GID. Names are write-once.
    pub fn register_name(&self, name: &str, gid: Gid) -> PxResult<()> {
        let mut names = self.names.write();
        if names.contains_key(name) {
            return Err(PxError::DuplicateName(name.to_string()));
        }
        names.insert(name.to_string(), gid);
        Ok(())
    }

    /// Resolve a hierarchical name.
    pub fn lookup_name(&self, name: &str) -> PxResult<Gid> {
        self.names
            .read()
            .get(name)
            .copied()
            .ok_or_else(|| PxError::UnknownName(name.to_string()))
    }

    /// Remove a name binding, returning the GID it named.
    pub fn unregister_name(&self, name: &str) -> PxResult<Gid> {
        self.names
            .write()
            .remove(name)
            .ok_or_else(|| PxError::UnknownName(name.to_string()))
    }

    /// Remove every name under `prefix` in one pass, returning the
    /// removed bindings sorted by name. This is the bulk-teardown half of
    /// hierarchical naming: process exits (and any caller that registers
    /// then drops a family of names) use it instead of leaking entries
    /// into the global table one `unregister_name` miss at a time.
    pub fn unregister_names_under(&self, prefix: &str) -> Vec<(String, Gid)> {
        let mut names = self.names.write();
        let keys: Vec<String> = names
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        let mut out: Vec<(String, Gid)> = keys
            .into_iter()
            .map(|k| {
                let gid = names.remove(&k).expect("key collected under lock");
                (k, gid)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// List names under a prefix (hierarchy browsing).
    pub fn names_under(&self, prefix: &str) -> Vec<(String, Gid)> {
        let names = self.names.read();
        let mut out: Vec<(String, Gid)> = names
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

impl Agas {
    /// Resolve with instrumentation: counts a data object's cache hits
    /// and misses (split into directory lookups and birthplace fallbacks)
    /// on the asking locality. Backs the
    /// [`crate::stats::LocalityStats::agas_hit_rate`] ratio. Any other
    /// name cannot move: it resolves to its birthplace, uncounted.
    pub fn resolve_counted(&self, from: &crate::locality::Locality, gid: Gid) -> LocalityId {
        if gid.kind() != GidKind::Data {
            return gid.birthplace();
        }
        let r = self.resolve(from.id, gid);
        match r.source {
            ResolutionSource::Cache => {
                crate::stats::bump!(from.counters().agas_cache_hits);
            }
            ResolutionSource::Directory => {
                crate::stats::bump!(from.counters().agas_cache_misses);
                crate::stats::bump!(from.counters().agas_directory_lookups);
            }
            ResolutionSource::Birthplace => {
                crate::stats::bump!(from.counters().agas_cache_misses);
            }
        }
        r.owner
    }
}

/// Where a resolution came from (for instrumentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolutionSource {
    /// Locality cache hit.
    Cache,
    /// Directory (migrated object).
    Directory,
    /// Default home (never migrated, zero-lookup path).
    Birthplace,
}

/// A resolved owner plus its provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// The locality believed to own the object.
    pub owner: LocalityId,
    /// How the answer was obtained.
    pub source: ResolutionSource,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gid_at(loc: u16, seq: u64) -> Gid {
        Gid::new(LocalityId(loc), GidKind::Data, seq)
    }

    #[test]
    fn unmigrated_resolves_to_birthplace() {
        let agas = Agas::new(4);
        let g = gid_at(2, 100);
        let r = agas.resolve(LocalityId(0), g);
        assert_eq!(r.owner, LocalityId(2));
        assert_eq!(r.source, ResolutionSource::Birthplace);
    }

    #[test]
    fn migration_updates_directory_and_caches_on_lookup() {
        let agas = Agas::new(4);
        let g = gid_at(2, 100);
        agas.record_migration(g, LocalityId(3));
        let r = agas.resolve(LocalityId(0), g);
        assert_eq!(r.owner, LocalityId(3));
        assert_eq!(r.source, ResolutionSource::Directory);
        // Second resolve hits the cache.
        let r2 = agas.resolve(LocalityId(0), g);
        assert_eq!(r2.source, ResolutionSource::Cache);
        assert_eq!(agas.migrations(), 1);
    }

    #[test]
    fn migration_back_home_clears_directory() {
        let agas = Agas::new(4);
        let g = gid_at(1, 7);
        agas.record_migration(g, LocalityId(3));
        agas.record_migration(g, LocalityId(1));
        assert_eq!(agas.authoritative_owner(g), LocalityId(1));
    }

    #[test]
    fn stale_cache_then_repair() {
        let agas = Agas::new(4);
        let g = gid_at(0, 50);
        agas.record_migration(g, LocalityId(1));
        assert_eq!(agas.resolve(LocalityId(2), g).owner, LocalityId(1));
        // Object moves again; locality 2's cache is now stale.
        agas.record_migration(g, LocalityId(3));
        assert_eq!(
            agas.resolve(LocalityId(2), g).owner,
            LocalityId(1),
            "stale cache answer expected before repair"
        );
        agas.repair_cache(LocalityId(2), g, LocalityId(3));
        let r = agas.resolve(LocalityId(2), g);
        assert_eq!(r.owner, LocalityId(3));
        assert_eq!(r.source, ResolutionSource::Cache);
    }

    #[test]
    fn resolve_counted_tracks_hits_and_misses() {
        let agas = Agas::new(4);
        let loc = crate::locality::Locality::new(LocalityId(0), false);
        let g = gid_at(2, 5);
        // Birthplace resolution: a miss (no cache entry exists).
        agas.resolve_counted(&loc, g);
        assert_eq!(loc.stats().agas_cache_hits, 0);
        assert_eq!(loc.stats().agas_cache_misses, 1);
        // Migrated object: first resolve consults the directory (miss),
        // second hits the freshly filled cache.
        agas.record_migration(g, LocalityId(3));
        agas.resolve_counted(&loc, g);
        assert_eq!(loc.stats().agas_cache_misses, 2);
        assert_eq!(loc.stats().agas_directory_lookups, 1);
        agas.resolve_counted(&loc, g);
        assert_eq!(loc.stats().agas_cache_hits, 1);
        assert_eq!(loc.stats().agas_cache_misses, 2);
    }

    /// A name that cannot move resolves to its birthplace from any
    /// locality, even with a directory entry planted against it, and
    /// neither fills a cache entry nor counts a resolution.
    #[test]
    fn names_that_cannot_move_resolve_to_their_birthplace() {
        let agas = Agas::new(4);
        let loc = crate::locality::Locality::new(LocalityId(0), false);
        let kinds = [
            GidKind::Lco,
            GidKind::Process,
            GidKind::Echo,
            GidKind::Hardware,
            GidKind::User,
        ];
        for (seq, kind) in kinds.into_iter().enumerate() {
            let g = Gid::new(LocalityId(2), kind, seq as u64);
            agas.note_owner(g, LocalityId(3));
            for from in 0..4 {
                let r = agas.resolve(LocalityId(from), g);
                assert_eq!(r.owner, LocalityId(2), "{kind:?}");
                assert_eq!(r.source, ResolutionSource::Birthplace);
            }
            assert_eq!(agas.resolve_counted(&loc, g), LocalityId(2));
        }
        assert!(agas.caches.iter().all(|c| c.read().is_empty()));
        let s = loc.stats();
        assert_eq!((s.agas_cache_hits, s.agas_cache_misses), (0, 0));
        assert_eq!(s.agas_directory_lookups, 0);
    }

    #[test]
    fn migrations_attributed_by_cause() {
        let agas = Agas::new(4);
        let g = gid_at(0, 9);
        agas.record_migration(g, LocalityId(1));
        agas.record_migration_caused(g, LocalityId(2), MigrationCause::Balancer);
        agas.record_migration_caused(g, LocalityId(3), MigrationCause::Balancer);
        assert_eq!(agas.migrations(), 3);
        assert_eq!(agas.migrations_by_cause(), (1, 2));
        assert_eq!(agas.authoritative_owner(g), LocalityId(3));
    }

    #[test]
    fn heat_accumulates_and_drains_sorted() {
        let agas = Agas::new(2);
        let hot = gid_at(1, 1);
        let warm = gid_at(1, 2);
        for _ in 0..5 {
            agas.note_access(LocalityId(0), hot);
        }
        agas.note_access(LocalityId(0), warm);
        agas.note_access(LocalityId(1), warm); // other locality: separate map
        let h = agas.drain_heat(LocalityId(0));
        assert_eq!(h, vec![(hot, 5), (warm, 1)]);
        assert!(agas.drain_heat(LocalityId(0)).is_empty(), "drain clears");
        assert_eq!(agas.drain_heat(LocalityId(1)), vec![(warm, 1)]);
        // Out-of-range localities are a no-op, not a panic.
        agas.note_access(LocalityId(9), hot);
        assert!(agas.drain_heat(LocalityId(9)).is_empty());
    }

    #[test]
    fn migration_freeze_set_is_exclusive_per_gid() {
        let agas = Agas::new(2);
        let a = gid_at(0, 1);
        let b = gid_at(0, 2);
        assert!(agas.begin_migration(a), "first pin wins");
        assert!(!agas.begin_migration(a), "concurrent pin backs off");
        assert!(agas.migration_in_flight(a));
        assert!(agas.begin_migration(b), "other GIDs are independent");

        // A parcel aimed at the pinned GID parks; one aimed at a free
        // GID comes straight back.
        let park = crate::parcel::Parcel::new(
            a,
            crate::action::ActionId::of("test/park"),
            crate::action::Value::unit(),
            crate::parcel::Continuation::none(),
        );
        assert!(agas.defer_during_migration(a, park, || ()).is_none());
        let free = crate::parcel::Parcel::new(
            gid_at(0, 3),
            crate::action::ActionId::of("test/free"),
            crate::action::Value::unit(),
            crate::parcel::Continuation::none(),
        );
        let back = agas.defer_during_migration(gid_at(0, 3), free, || 7);
        assert!(matches!(back, Some((_, 7))), "back, with the look's answer");

        let drained = agas.end_migration(a);
        assert_eq!(drained.len(), 1, "unpin returns the parked parcels");
        assert_eq!(drained[0].dest, a);
        assert!(!agas.migration_in_flight(a));
        assert!(agas.begin_migration(a), "pin reusable after release");
        assert!(agas.end_migration(a).is_empty());
        assert!(agas.end_migration(b).is_empty());
    }

    #[test]
    fn symbolic_names() {
        let agas = Agas::new(1);
        let g = gid_at(0, 1);
        agas.register_name("/app/mesh/block0", g).unwrap();
        assert_eq!(agas.lookup_name("/app/mesh/block0").unwrap(), g);
        assert!(matches!(
            agas.register_name("/app/mesh/block0", g),
            Err(PxError::DuplicateName(_))
        ));
        assert!(matches!(
            agas.lookup_name("/nope"),
            Err(PxError::UnknownName(_))
        ));
    }

    #[test]
    fn hierarchical_prefix_listing() {
        let agas = Agas::new(1);
        agas.register_name("/a/x", gid_at(0, 1)).unwrap();
        agas.register_name("/a/y", gid_at(0, 2)).unwrap();
        agas.register_name("/b/z", gid_at(0, 3)).unwrap();
        let under_a = agas.names_under("/a/");
        assert_eq!(under_a.len(), 2);
        assert_eq!(under_a[0].0, "/a/x");
        let all = agas.names_under("/");
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn unregister_names_under_prefix() {
        let agas = Agas::new(1);
        agas.register_name("/proc/1f/counter", gid_at(0, 1))
            .unwrap();
        agas.register_name("/proc/1f/log", gid_at(0, 2)).unwrap();
        agas.register_name("/proc/2a/counter", gid_at(0, 3))
            .unwrap();
        agas.register_name("/global", gid_at(0, 4)).unwrap();
        let removed = agas.unregister_names_under("/proc/1f/");
        assert_eq!(
            removed,
            vec![
                ("/proc/1f/counter".to_string(), gid_at(0, 1)),
                ("/proc/1f/log".to_string(), gid_at(0, 2)),
            ]
        );
        // Removed names are gone; unrelated names survive.
        assert!(agas.lookup_name("/proc/1f/counter").is_err());
        assert_eq!(agas.lookup_name("/proc/2a/counter").unwrap(), gid_at(0, 3));
        assert_eq!(agas.lookup_name("/global").unwrap(), gid_at(0, 4));
        // The freed names can be re-registered (no tombstones), and a
        // second bulk pass removes nothing.
        assert!(agas.unregister_names_under("/proc/1f/").is_empty());
        agas.register_name("/proc/1f/counter", gid_at(0, 9))
            .unwrap();
        assert_eq!(agas.lookup_name("/proc/1f/counter").unwrap(), gid_at(0, 9));
    }

    #[test]
    fn unregister() {
        let agas = Agas::new(1);
        let g = gid_at(0, 1);
        agas.register_name("/tmp", g).unwrap();
        assert_eq!(agas.unregister_name("/tmp").unwrap(), g);
        assert!(agas.lookup_name("/tmp").is_err());
        assert!(agas.unregister_name("/tmp").is_err());
    }
}
