//! The Active Global Address Space: name → locality resolution with
//! "efficient address translation … in the presence of dynamic object
//! distribution" (§2.1 requirement; §2.2 "global name space").
//!
//! Every locality is an AGAS rank: it holds one [`Agas`] of its own, on
//! both backends, and one protocol runs between them — the same between
//! two localities of one OS process as between two processes over TCP.
//! Resolution is **home-based with caching**:
//!
//! 1. A GID's default home is its *birthplace* (packed in the GID itself).
//!    Only data objects migrate, so every other name (LCOs, processes,
//!    echo nodes, locality roots) resolves there with no lookup at all.
//! 2. Objects that migrate get an entry in the sharded **directory**. Only
//!    the directory of a GID's home locality is authoritative for it;
//!    another locality's entries are advisory fast paths, filled when an
//!    object is installed there or leaves from there.
//! 3. Each locality keeps a **resolution cache**. Stale cache entries are
//!    possible immediately after a migration; the parcel layer repairs
//!    them by *forwarding* the mis-delivered parcel (bounded chase) and
//!    sending a `__sys/dir_repair` hint to the sender. A locality whose
//!    directory cannot answer asks the home with `__sys/dir_lookup`.
//!    This mirrors the classic home-forwarding AGAS design the ParalleX
//!    model assumes.
//!
//! The symbolic name service ("hierarchical naming structure",
//! [`Names`]) maps path-style strings (`"/app/mesh/block7"`) to GIDs: one
//! table per OS process, with `/proc/...` names looked up at the
//! process's home rank across processes.
//!
//! ## Moves and the hop bound
//!
//! Every move of an object is the split-phase protocol of
//! `sys::agas::migrate`: install at the destination → update the home
//! directory → remove at the source → commit. It pins its GID
//! ([`Agas::begin_migration`]) at the source from its first step to its
//! last, and at the destination from the install to the commit; no lock
//! is held across a round trip. A parcel that does not find its object
//! where it lands, or finds it pinned, follows one rule
//! (`sys::agas::not_here`): it is forwarded when the directory names
//! another locality, parks on the pin while a move is in flight (so work
//! dispatched to a moving object runs where the object lands), dies at
//! once when the home's directory says the object is absent (freed, or
//! never created), and asks the home otherwise. Only a forward costs a hop, and a forward follows a
//! directory entry some completed move wrote, so **a parcel's hops are at
//! most the moves of its object completed since the locality its sender
//! resolved last held it** (`sys::agas`'s seeded chase checks it). The
//! 16-hop cap is reached only by a migration storm.

use crate::error::{PxError, PxResult};
use crate::fxmap::{FxHashMap, FxHashSet};
use crate::gid::{Gid, GidKind, LocalityId};
use parking_lot::{Mutex, RwLock};

const DIR_SHARDS: usize = 16;

/// Who asked for a migration (counted by the `migrations_manual` and
/// `migrations_balancer` rows, so balancer churn is distinguishable from
/// application-directed placement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationCause {
    /// Explicit `migrate_data` call by the application/driver.
    Manual,
    /// Heat-driven pull by the `px-balance` balancer.
    Balancer,
}

/// The parcels parked against each pinned GID until its move settles
/// ([`Agas::defer_during_migration`]).
type Deferred = FxHashMap<Gid, Vec<crate::parcel::Parcel>>;

/// One locality's AGAS: its directory (authoritative for the GIDs born
/// there), its resolution cache, its outgoing access heat and the pins of
/// the moves it takes part in.
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
    /// Parcels parked on a pin. A pin is taken and dropped under this
    /// lock, so a park and a look ([`Agas::defer_during_migration`]) see
    /// no pin change meanwhile.
    deferred: Mutex<Deferred>,
    /// Move serialization, one pin per GID. Every move pins its GID here
    /// across the protocol's round trips, so two moves of one object
    /// never interleave (both could otherwise read the same source and
    /// leave a stale copy at the directory loser), and parcels that find
    /// the object absent meanwhile park in `deferred`. Innermost: nothing
    /// is locked while it is held, so `DATA_PUT`'s write freeze can ask
    /// it under the object's own lock. Both locks guard membership only:
    /// neither is held across a wire operation.
    pins: Mutex<FxHashSet<Gid>>,
}

impl std::fmt::Debug for Agas {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Agas").finish_non_exhaustive()
    }
}

impl Agas {
    /// One locality's AGAS, in a system of `n` localities.
    pub fn new(n: usize) -> Self {
        Agas {
            directory: (0..DIR_SHARDS)
                .map(|_| RwLock::new(FxHashMap::default()))
                .collect(),
            caches: (0..n).map(|_| RwLock::new(FxHashMap::default())).collect(),
            heat: (0..n).map(|_| Mutex::new(FxHashMap::default())).collect(),
            deferred: Mutex::new(Deferred::default()),
            pins: Mutex::new(FxHashSet::default()),
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

    /// The directory's owner of `gid` (its entry, else the birthplace):
    /// authoritative at the GID's home locality, advisory elsewhere.
    pub fn authoritative_owner(&self, gid: Gid) -> LocalityId {
        self.shard(gid)
            .read()
            .get(&gid)
            .copied()
            .unwrap_or_else(|| gid.birthplace())
    }

    /// Record a migration in the directory: `gid` now lives at `to`. Each
    /// locality that takes part in a move writes its own directory — the
    /// destination at install, the home at its update, the source at
    /// remove — and the move is counted once, where it completes.
    pub fn record_migration(&self, gid: Gid, to: LocalityId) {
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

    /// Pin `gid` for a move. Returns `false` (and pins nothing) when a
    /// move of the same GID is already in flight — the caller must not
    /// race it: it parks its request via [`Agas::defer_during_migration`]
    /// or reports the object gone.
    /// Pair every `true` return with exactly one [`Agas::end_migration`],
    /// including on every failure path.
    pub fn begin_migration(&self, gid: Gid) -> bool {
        let _parks = self.deferred.lock();
        self.pins.lock().insert(gid)
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
        let mut parks = self.deferred.lock();
        let removed = self.pins.lock().remove(&gid);
        debug_assert!(removed, "end_migration without begin_migration");
        parks.remove(&gid).unwrap_or_default()
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
        let mut parks = self.deferred.lock();
        if self.pins.lock().contains(&gid) {
            parks.entry(gid).or_default().push(p);
            None
        } else {
            Some((p, look()))
        }
    }

    /// How many parcels are parked on `gid`'s pin.
    #[cfg(test)]
    pub(crate) fn parked(&self, gid: Gid) -> usize {
        self.deferred.lock().get(&gid).map_or(0, Vec::len)
    }

    /// Whether a move of `gid` is currently in flight.
    pub fn migration_in_flight(&self, gid: Gid) -> bool {
        self.pins.lock().contains(&gid)
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

/// The symbolic name table of one OS process (global, rarely written).
#[derive(Debug, Default)]
pub struct Names(RwLock<FxHashMap<String, Gid>>);

impl Names {
    /// Bind a hierarchical name to a GID. Names are write-once.
    pub fn register_name(&self, name: &str, gid: Gid) -> PxResult<()> {
        let mut names = self.0.write();
        if names.contains_key(name) {
            return Err(PxError::DuplicateName(name.to_string()));
        }
        names.insert(name.to_string(), gid);
        Ok(())
    }

    /// Resolve a hierarchical name.
    pub fn lookup_name(&self, name: &str) -> PxResult<Gid> {
        self.0
            .read()
            .get(name)
            .copied()
            .ok_or_else(|| PxError::UnknownName(name.to_string()))
    }

    /// Remove a name binding, returning the GID it named.
    pub fn unregister_name(&self, name: &str) -> PxResult<Gid> {
        self.0
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
        let mut names = self.0.write();
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
        let names = self.0.read();
        let mut out: Vec<(String, Gid)> = names
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
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
        let loc = crate::locality::Locality::new(LocalityId(0), false, 1);
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
        let loc = crate::locality::Locality::new(LocalityId(0), false, 1);
        let kinds = [
            GidKind::Lco,
            GidKind::Process,
            GidKind::Echo,
            GidKind::Hardware,
            GidKind::User,
        ];
        for (seq, kind) in kinds.into_iter().enumerate() {
            let g = Gid::new(LocalityId(2), kind, seq as u64);
            agas.record_migration(g, LocalityId(3));
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
        let names = Names::default();
        let g = gid_at(0, 1);
        names.register_name("/app/mesh/block0", g).unwrap();
        assert_eq!(names.lookup_name("/app/mesh/block0").unwrap(), g);
        assert!(matches!(
            names.register_name("/app/mesh/block0", g),
            Err(PxError::DuplicateName(_))
        ));
        assert!(matches!(
            names.lookup_name("/nope"),
            Err(PxError::UnknownName(_))
        ));
    }

    #[test]
    fn hierarchical_prefix_listing() {
        let names = Names::default();
        names.register_name("/a/x", gid_at(0, 1)).unwrap();
        names.register_name("/a/y", gid_at(0, 2)).unwrap();
        names.register_name("/b/z", gid_at(0, 3)).unwrap();
        let under_a = names.names_under("/a/");
        assert_eq!(under_a.len(), 2);
        assert_eq!(under_a[0].0, "/a/x");
        let all = names.names_under("/");
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn unregister_names_under_prefix() {
        let names = Names::default();
        names
            .register_name("/proc/1f/counter", gid_at(0, 1))
            .unwrap();
        names.register_name("/proc/1f/log", gid_at(0, 2)).unwrap();
        names
            .register_name("/proc/2a/counter", gid_at(0, 3))
            .unwrap();
        names.register_name("/global", gid_at(0, 4)).unwrap();
        let removed = names.unregister_names_under("/proc/1f/");
        assert_eq!(
            removed,
            vec![
                ("/proc/1f/counter".to_string(), gid_at(0, 1)),
                ("/proc/1f/log".to_string(), gid_at(0, 2)),
            ]
        );
        // Removed names are gone; unrelated names survive.
        assert!(names.lookup_name("/proc/1f/counter").is_err());
        assert_eq!(names.lookup_name("/proc/2a/counter").unwrap(), gid_at(0, 3));
        assert_eq!(names.lookup_name("/global").unwrap(), gid_at(0, 4));
        // The freed names can be re-registered (no tombstones), and a
        // second bulk pass removes nothing.
        assert!(names.unregister_names_under("/proc/1f/").is_empty());
        names
            .register_name("/proc/1f/counter", gid_at(0, 9))
            .unwrap();
        assert_eq!(names.lookup_name("/proc/1f/counter").unwrap(), gid_at(0, 9));
    }

    #[test]
    fn unregister() {
        let names = Names::default();
        let g = gid_at(0, 1);
        names.register_name("/tmp", g).unwrap();
        assert_eq!(names.unregister_name("/tmp").unwrap(), g);
        assert!(names.lookup_name("/tmp").is_err());
        assert!(names.unregister_name("/tmp").is_err());
    }
}
