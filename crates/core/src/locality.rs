//! Localities: the paper's "local physical domain".
//!
//! §2.2: "it is the locus of resources that can be guaranteed to operate
//! synchronously and for which hardware can guarantee compound atomic
//! operations on local data elements … Within a locality, all
//! functionality is bounded in space and time."
//!
//! Here a locality owns
//!
//! * an **object store** mapping GIDs to local first-class objects (data,
//!   LCOs, echo nodes, processes) — compound atomic operations are
//!   per-object locks, valid precisely because the objects never escape
//!   the locality except by explicit migration. The store is split into
//!   16 maps (`STORE_SHARDS`) by a GID's low bits, each behind its own
//!   read-write lock on its own cache line, as the AGAS directory is
//!   (`Agas::shard`): an insert or a remove waits only for its own
//!   shard's readers, and an LCO event (`Locality::lco_op`) runs in
//!   place under its shard's read lock and the object's mutex, with no
//!   reference counted out of the store;
//! * **run queues**: a control-plane queue, a general injector, a
//!   percolation staging queue, and one work-stealing ring per worker,
//!   plus the eventcount its idle workers sleep on (the crate-private
//!   `queue` module), and a heap of tasks due later (the crate-private
//!   `clock` module);
//! * a pool of **worker threads** executing ephemeral PX-threads;
//! * the locality's GID allocator and instrumentation counters.
//!
//! Localities interact only through parcels; nothing in this module hands
//! out references to another locality's store.

use crate::agas::Agas;
use crate::clock::{Clock, Heap};
use crate::error::{PxError, PxResult};
use crate::fxmap::FxHashMap;
use crate::gid::{Gid, GidAllocator, GidKind, LocalityId};
use crate::lco::LcoCore;
use crate::queue::{Injector, Local, Sleep, Stealer};
use crate::sched::Task;
use crate::stats::{LocalityCounters, LocalityStats};
use parking_lot::{Mutex, RwLock};
use px_balance::{LoadMonitor, PeerView};
use std::sync::Arc;
use std::time::Instant;

/// A first-class object resident in a locality's store.
#[derive(Clone)]
pub enum Stored {
    /// Local control object.
    Lco(Arc<Mutex<LcoCore>>),
    /// Raw data object (migratable).
    Data(Arc<RwLock<DataObject>>),
    /// Echo replica-tree node.
    Echo(Arc<Mutex<crate::echo::EchoNode>>),
    /// Parallel-process record.
    Process(Arc<crate::process::ProcessInner>),
}

impl std::fmt::Debug for Stored {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stored::Lco(_) => f.write_str("Stored::Lco"),
            Stored::Data(_) => f.write_str("Stored::Data"),
            Stored::Echo(_) => f.write_str("Stored::Echo"),
            Stored::Process(_) => f.write_str("Stored::Process"),
        }
    }
}

/// A mutable byte object with a version counter (bumped on every write, so
/// experiments can detect lost updates).
#[derive(Debug, Default, Clone)]
pub struct DataObject {
    /// Object payload.
    pub bytes: Vec<u8>,
    /// Write count.
    pub version: u64,
}

/// Shards of a locality's object store: a GID's low bits pick one.
pub(crate) const STORE_SHARDS: usize = 16;

/// One shard of the object store, on a cache line of its own: a lock
/// word every worker writes shares its line with no other shard's.
#[repr(align(64))]
struct Shard(RwLock<FxHashMap<Gid, Stored>>);

/// Per-locality balancer state (present only when `Config::balance` is
/// set, so the balanced and un-balanced runtimes differ by one `Option`
/// check on the hot paths).
pub(crate) struct BalanceState {
    /// Sliding-window load monitor, sampled by the balancer pulse.
    pub(crate) monitor: Mutex<LoadMonitor>,
    /// What this locality believes about every locality's load (filled by
    /// gossip parcels; decisions read only this view, never another
    /// locality's state directly).
    pub(crate) peers: Mutex<PeerView>,
}

impl BalanceState {
    pub(crate) fn new(n_localities: usize) -> BalanceState {
        BalanceState {
            monitor: Mutex::new(LoadMonitor::new(px_balance::MONITOR_WINDOW)),
            peers: Mutex::new(PeerView::new(n_localities)),
        }
    }
}

/// Which of a locality's queues a task handed here lands in: the one
/// switch both transports' delivery sides, the control and staging
/// lanes and the balancer's putback go through ([`Locality::deliver`]).
/// A task made here goes on its worker's ring instead
/// ([`Locality::spawn_here`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lane {
    /// The general run queue.
    Run,
    /// The percolation staging buffer.
    Staged,
    /// The control-plane queue (balancer gossip, metrics pulls, the
    /// directory protocol), drained ahead of all others.
    Control,
}

impl Lane {
    /// The lane of a data parcel: staging when percolated.
    #[inline]
    pub(crate) fn of_parcel(staged: bool) -> Lane {
        if staged {
            Lane::Staged
        } else {
            Lane::Run
        }
    }
}

/// One ParalleX locality.
pub struct Locality {
    /// This locality's id.
    pub id: LocalityId,
    /// General run queue (parcels, injected threads).
    pub(crate) injector: Injector<Task>,
    /// Percolation staging buffer: prestaged tasks whose data travelled
    /// with them; drained at higher priority than the injector.
    pub(crate) staging: Injector<Task>,
    /// Control-plane queue: balancer gossip, metrics pulls and the
    /// directory protocol land here and are drained ahead of all other
    /// work. Without it a saturated locality would answer them only
    /// after its entire data backlog — exactly when a peer most needs
    /// the answer.
    pub(crate) control: Injector<Task>,
    /// A stealer onto each worker's ring, set once by the builder before
    /// the locality is shared (empty where no workers run).
    pub(crate) stealers: Box<[Stealer<Task>]>,
    /// The object store, in [`STORE_SHARDS`] shards ([`Locality::shard`]).
    store: [Shard; STORE_SHARDS],
    /// This locality's AGAS: the directory home of the GIDs born here,
    /// and its own cache, heat and move pins (`crate::agas`).
    pub(crate) agas: Agas,
    /// GID allocator for objects born here.
    pub alloc: GidAllocator,
    /// Instrumentation: the shared row, then one row per worker
    /// ([`Locality::counters`] picks the caller's, [`Locality::stats`]
    /// sums them).
    counters: Box<[LocalityCounters]>,
    /// The eventcount this locality's idle workers sleep on.
    pub(crate) sleep: Sleep,
    /// Tasks due here later — wire arrivals, the balancer pulse — with
    /// their lane and `NetRtt` stamp ([`Locality::fire_due`]).
    pub(crate) timers: Heap<(Lane, Task, Option<Instant>)>,
    /// Workers prefer the staging queue (precious-resource policy, E4).
    pub staged_priority: bool,
    /// Balancer state; `None` unless `Config::balance` is set.
    pub(crate) balance: Option<BalanceState>,
    /// Causal-trace event ring; `None` unless `Config::trace` is enabled,
    /// so untraced runs pay one `Option` check per hook.
    pub(crate) trace: Option<Arc<crate::trace::TraceRing>>,
    /// Latency-histogram registry; `None` unless `Config::with_metrics`
    /// enabled metrics, so unmetered runs pay one `Option` check per hook.
    pub(crate) metrics: Option<Arc<crate::metrics::MetricsRegistry>>,
    /// This locality's workers run in another OS process (TCP transport):
    /// the local struct is a routing stub and must not mint GIDs — two
    /// processes allocating from the same locality id would collide.
    pub(crate) remote_stub: bool,
}

impl std::fmt::Debug for Locality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Locality")
            .field("id", &self.id)
            .field("objects", &self.object_count())
            .finish()
    }
}

impl Locality {
    /// Create an empty locality, one of `n`.
    pub fn new(id: LocalityId, staged_priority: bool, n: usize) -> Self {
        Locality {
            id,
            injector: Injector::new(),
            staging: Injector::new(),
            control: Injector::new(),
            stealers: Box::default(),
            store: std::array::from_fn(|_| Shard(RwLock::new(FxHashMap::default()))),
            agas: Agas::new(n),
            alloc: GidAllocator::new(id),
            counters: Box::new([LocalityCounters::default()]),
            sleep: Sleep::new(0),
            timers: Heap::new(&Clock::Real),
            staged_priority,
            balance: None,
            trace: None,
            metrics: None,
            remote_stub: false,
        }
    }

    /// Create this locality's worker rings, and its heap on `clock`
    /// (called by the builder, before the locality is shared): the
    /// stealers stay here, the owner ends go to the worker threads.
    pub(crate) fn attach_workers(&mut self, workers: usize, clock: &Clock) -> Vec<Local<Task>> {
        let rings: Vec<Local<Task>> = (0..workers).map(|_| Local::new()).collect();
        self.stealers = rings.iter().map(Local::stealer).collect();
        self.counters = (0..=workers).map(|_| LocalityCounters::default()).collect();
        self.sleep = Sleep::new(workers);
        self.timers = Heap::new(clock);
        rings
    }

    /// Attach balancer state (called by the builder, before the locality
    /// is shared).
    pub(crate) fn enable_balance(&mut self, n_localities: usize) {
        self.balance = Some(BalanceState::new(n_localities));
    }

    /// Mark this struct as a stub for a locality owned by another OS
    /// process (called by the builder, before the locality is shared).
    pub(crate) fn mark_remote_stub(&mut self) {
        self.remote_stub = true;
    }

    /// Attach a causal-trace event ring (called by the builder, before
    /// the locality is shared).
    pub(crate) fn enable_trace(&mut self, ring: Arc<crate::trace::TraceRing>) {
        self.trace = Some(ring);
    }

    /// Attach a latency-histogram registry (called by the builder, before
    /// the locality is shared).
    pub(crate) fn enable_metrics(&mut self, reg: Arc<crate::metrics::MetricsRegistry>) {
        self.metrics = Some(reg);
    }

    /// `Some(now)` when metrics are on — the enqueue/submit stamp taken by
    /// the producing side of a latency measurement. One pointer check when
    /// metrics are off.
    #[inline]
    pub(crate) fn metrics_now(&self) -> Option<std::time::Instant> {
        self.metrics.as_ref().map(|_| std::time::Instant::now())
    }

    /// Record the elapsed time since a [`Self::metrics_now`] stamp against
    /// `inst`, if metrics are on and the stamp was taken. Both stamps come
    /// from this process's monotonic clock — cross-rank spans are never
    /// measured this way.
    #[inline]
    pub(crate) fn metric_elapsed(
        &self,
        inst: crate::metrics::Instrument,
        since: Option<std::time::Instant>,
    ) {
        if let (Some(reg), Some(t)) = (&self.metrics, since) {
            reg.record_elapsed(inst, t.elapsed());
        }
    }

    /// Record one trace event here, if tracing is on and the parcel/task
    /// is traced (`trace != None`). Bumps the recorded/dropped counters.
    #[inline]
    pub(crate) fn trace_event(
        &self,
        trace: Option<u64>,
        kind: crate::trace::TraceEventKind,
        gid: u64,
        aux: u64,
    ) {
        if let (Some(ring), Some(t)) = (&self.trace, trace) {
            let dropped = ring.record(t, kind, gid, aux);
            crate::stats::bump!(self.counters().trace_events_recorded);
            if dropped {
                crate::stats::bump!(self.counters().trace_events_dropped);
            }
        }
    }

    /// The tag worker `w` lends its ring here under for a turn
    /// (`queue::Local::lend`): this locality's address, which a push made
    /// here matches ([`Locality::spawn_here`]), and the worker's counter
    /// row ([`Locality::counters`]). A worker outlives no locality it
    /// works for, since it holds the runtime that owns it.
    pub(crate) fn worker_tag(&self, w: usize) -> (usize, usize) {
        (self.key(), w + 1)
    }

    /// This locality's address: the owner key of its workers' turns.
    #[inline]
    fn key(&self) -> usize {
        self as *const Locality as usize
    }

    /// The counter row the calling thread bumps here: its own if it is
    /// one of this locality's workers, the shared row otherwise. Read a
    /// counter through [`Locality::stats`]: one row holds only part of it.
    #[inline]
    pub(crate) fn counters(&self) -> &LocalityCounters {
        let (at, row) = crate::queue::lent_tag();
        &self.counters[if at == self.key() { row } else { 0 }]
    }

    /// This locality's counters, every row summed, with what is sampled
    /// rather than counted filled in: searching is counted by the
    /// workers, but parked time is read off the sleep clock (a worker
    /// starved for the whole run still shows as idle), and the gauges are
    /// read now.
    pub(crate) fn stats(&self) -> LocalityStats {
        let mut s = LocalityCounters::sum(&self.counters);
        s.idle_ns += self.sleep.parked_ns();
        s.objects = self.object_count() as u64;
        s
    }

    /// Tasks waiting in the general run queue and on every worker's ring
    /// (balancer telemetry): the work handed here and the work made here.
    pub fn queue_depth(&self) -> usize {
        self.injector.len() + self.stealers.iter().map(Stealer::len).sum::<usize>()
    }

    /// Prestaged tasks waiting in the staging buffer.
    pub fn staging_depth(&self) -> usize {
        self.staging.len()
    }

    // ---- task ingress ----------------------------------------------------

    /// True when any of this locality's queues holds a task: what an idle
    /// worker polls while it spins and re-checks before it parks.
    pub(crate) fn has_work(&self) -> bool {
        !self.control.is_empty()
            || !self.staging.is_empty()
            || !self.injector.is_empty()
            || self.stealers.iter().any(|s| !s.is_empty())
    }

    /// Enqueue a task handed here on `lane` and wake a worker if one is
    /// parked.
    pub(crate) fn deliver(&self, lane: Lane, mut task: Task) {
        task.enqueued = self.metrics_now();
        match lane {
            Lane::Run => self.injector.push(task),
            Lane::Staged => self.staging.push(task),
            Lane::Control => self.control.push(task),
        }
        self.sleep.notify_one();
    }

    /// [`Locality::deliver`] on the general run queue.
    #[inline]
    pub(crate) fn push_task(&self, task: Task) {
        self.deliver(Lane::Run, task);
    }

    /// Enqueue a task made here — a spawn, a same-locality parcel, a
    /// released waiter — and wake a worker if one is parked. In a turn of
    /// one of this locality's workers it goes on that worker's ring, LIFO,
    /// where its data is still in cache; from any other thread (a driver,
    /// a worker of another locality) into the injector.
    pub(crate) fn spawn_here(&self, mut task: Task) {
        task.enqueued = self.metrics_now();
        if let Err(task) = Local::<Task>::push_lent(self.key(), task, &self.injector) {
            self.injector.push(task);
        }
        self.sleep.notify_one();
    }

    /// [`Locality::deliver`] of a wire message sent at `submitted`.
    pub(crate) fn arrive(&self, lane: Lane, task: Task, submitted: Option<Instant>) {
        self.metric_elapsed(crate::metrics::Instrument::NetRtt, submitted);
        self.deliver(lane, task);
    }

    /// Put `task` on this locality's heap, due on `lane` at `at`, and
    /// kick the poller's holder when it is the earliest.
    pub(crate) fn arm(&self, at: Instant, lane: Lane, task: Task, submitted: Option<Instant>) {
        if self.timers.arm(at, (lane, task, submitted)) {
            self.sleep.kick();
        }
    }

    /// Deliver every task on the heap that is due (the poller's holder).
    pub(crate) fn fire_due(&self) {
        for (lane, task, submitted) in self.timers.take_due() {
            self.arrive(lane, task, submitted);
        }
    }

    // ---- object store ----------------------------------------------------

    /// Insert a pre-built object under a fresh GID of `kind`.
    ///
    /// # Panics
    ///
    /// In a multi-process (TCP) runtime, panics when called on a
    /// locality owned by another OS process: the allocator here would
    /// mint GIDs the owning process also mints. Create objects at your
    /// own locality and share their GIDs via parcels.
    pub fn insert(&self, kind: GidKind, build: impl FnOnce(Gid) -> Stored) -> Gid {
        assert!(
            !self.remote_stub,
            "locality {} is owned by another OS process; objects must be created at the owning rank",
            self.id
        );
        let gid = self.alloc.alloc(kind);
        let obj = build(gid);
        // Every LCO creation funnels through here, so this single stamp
        // feeds the spawn→resolution instrument for all constructors.
        if self.metrics.is_some() {
            if let Stored::Lco(l) = &obj {
                l.lock().set_born(std::time::Instant::now());
            }
        }
        self.shard(gid).write().insert(gid, obj);
        gid
    }

    /// The store shard `gid` lives in.
    #[inline]
    fn shard(&self, gid: Gid) -> &RwLock<FxHashMap<Gid, Stored>> {
        &self.store[(gid.0 as usize) & (STORE_SHARDS - 1)].0
    }

    /// Insert an object under a caller-chosen GID (migration arrivals).
    pub fn insert_at(&self, gid: Gid, obj: Stored) {
        self.shard(gid).write().insert(gid, obj);
    }

    /// Look up any object.
    pub fn get(&self, gid: Gid) -> Option<Stored> {
        self.shard(gid).read().get(&gid).cloned()
    }

    /// True if the object is resident here.
    pub fn contains(&self, gid: Gid) -> bool {
        self.shard(gid).read().contains_key(&gid)
    }

    /// Remove an object (migration departure or explicit free).
    pub fn remove(&self, gid: Gid) -> Option<Stored> {
        self.shard(gid).write().remove(&gid)
    }

    /// Number of resident objects: every shard's, summed.
    pub fn object_count(&self) -> usize {
        self.store.iter().map(|s| s.0.read().len()).sum()
    }

    /// Create an LCO here: `build` receives the fresh GID and returns
    /// the core to store under it.
    pub(crate) fn new_lco(&self, build: impl FnOnce(Gid) -> LcoCore) -> Gid {
        self.insert(GidKind::Lco, |gid| {
            Stored::Lco(Arc::new(Mutex::new(build(gid))))
        })
    }

    /// Run `op` on the local LCO `gid` — the one way an event, a waiter
    /// or a withdrawal reaches one. `op` runs in place, under its shard's
    /// read lock and then the object's mutex (§2.2's per-object lock),
    /// and must not call back into the runtime. A one-shot LCO that `op`
    /// made hand its value to a waiter has been read
    /// ([`crate::lco::FutureRef`]): it leaves the store here, once both
    /// locks are released and before the caller schedules that
    /// activation, so nothing the reader does can find it again.
    pub(crate) fn lco_op<R>(&self, gid: Gid, op: impl FnOnce(&mut LcoCore) -> R) -> PxResult<R> {
        let shard = self.shard(gid).read();
        let (r, read) = match shard.get(&gid) {
            Some(Stored::Lco(lco)) => {
                let mut g = lco.lock();
                let r = op(&mut g);
                (r, g.is_read())
            }
            Some(_) => return Err(PxError::WrongObjectKind(gid)),
            None => return Err(PxError::NoSuchObject(gid)),
        };
        drop(shard);
        if read {
            self.remove(gid);
        }
        Ok(r)
    }

    /// Create a future LCO here: a shared one (a process's done future),
    /// which no read frees.
    pub fn new_future_lco(&self) -> Gid {
        self.new_lco(LcoCore::new_future)
    }

    /// Run `op` on the local data object `gid`, as [`Locality::lco_op`]
    /// runs one on an LCO: in place, under its shard's read lock, with no
    /// reference counted out of the store. `op` takes the object's own
    /// lock, read or write as it needs, and must not call back into the
    /// runtime.
    pub(crate) fn data_op<R>(
        &self,
        gid: Gid,
        op: impl FnOnce(&RwLock<DataObject>) -> R,
    ) -> PxResult<R> {
        match self.shard(gid).read().get(&gid) {
            Some(Stored::Data(d)) => Ok(op(d)),
            Some(_) => Err(PxError::WrongObjectKind(gid)),
            None => Err(PxError::NoSuchObject(gid)),
        }
    }

    /// Look up an echo-tree node, with kind checking.
    pub fn get_echo(&self, gid: Gid) -> PxResult<Arc<Mutex<crate::echo::EchoNode>>> {
        match self.get(gid) {
            Some(Stored::Echo(n)) => Ok(n),
            Some(_) => Err(PxError::WrongObjectKind(gid)),
            None => Err(PxError::NoSuchObject(gid)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Value;

    /// GIDs in every shard: each lands, is found and leaves in its own,
    /// and `object_count` — every shard summed — stays exact throughout.
    /// A one-shot future read through `lco_op` leaves the store once.
    #[test]
    fn store_insert_get_remove() {
        let loc = Locality::new(LocalityId(0), false, 1);
        let data = |i: u8| {
            move |_| {
                Stored::Data(Arc::new(RwLock::new(DataObject {
                    bytes: vec![i],
                    version: 0,
                })))
            }
        };
        let gids: Vec<Gid> = (0..2 * STORE_SHARDS as u8)
            .map(|i| loc.insert(GidKind::Data, data(i)))
            .collect();
        let shards: std::collections::BTreeSet<usize> =
            gids.iter().map(|g| g.0 as usize % STORE_SHARDS).collect();
        assert_eq!(shards.len(), STORE_SHARDS, "every shard holds two");
        assert_eq!(loc.object_count(), gids.len());
        for (i, &gid) in gids.iter().enumerate() {
            assert!(loc.contains(gid));
            let bytes = loc.data_op(gid, |d| d.read().bytes.clone());
            assert_eq!(bytes.unwrap(), vec![i as u8]);
        }
        for (n, &gid) in gids.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
            assert!(loc.remove(gid).is_some());
            assert!(!loc.contains(gid));
            assert_eq!(loc.object_count(), gids.len() - n / 2 - 1);
        }
        assert_eq!(loc.object_count(), STORE_SHARDS);

        let fut = loc.new_lco(|g| LcoCore::new_future(g).one_shot());
        assert_eq!(loc.object_count(), STORE_SHARDS + 1);
        let fired = loc.lco_op(fut, |l| l.trigger(Value::unit()));
        assert!(fired.unwrap().unwrap().is_empty(), "no waiter to release");
        assert!(loc.contains(fut), "fired, not read");
        assert!(loc.lco_op(fut, LcoCore::read_now).unwrap().is_some());
        assert!(!loc.contains(fut), "the read freed it");
        assert_eq!(loc.object_count(), STORE_SHARDS);
        assert!(matches!(
            loc.lco_op(fut, LcoCore::read_now),
            Err(PxError::NoSuchObject(_))
        ));
        assert_eq!(loc.object_count(), STORE_SHARDS);
    }

    #[test]
    fn kind_mismatch_is_error() {
        let loc = Locality::new(LocalityId(0), false, 1);
        let gid = loc.new_future_lco();
        assert!(matches!(
            loc.data_op(gid, |_| ()),
            Err(PxError::WrongObjectKind(_))
        ));
        assert!(loc.lco_op(gid, |_| ()).is_ok());
        let data = loc.insert(GidKind::Data, |_| Stored::Data(Arc::default()));
        assert!(matches!(
            loc.lco_op(data, |_| ()),
            Err(PxError::WrongObjectKind(_))
        ));
    }

    #[test]
    fn missing_object_is_error() {
        let loc = Locality::new(LocalityId(0), false, 1);
        let bogus = Gid::new(LocalityId(0), GidKind::Lco, 12345);
        assert!(matches!(
            loc.lco_op(bogus, |_| ()),
            Err(PxError::NoSuchObject(_))
        ));
    }

    /// Counter rows sum exactly. N closure threads run on locality 0's
    /// two workers, each counted in its own row. Then the driver sends M
    /// NOOPs from locality 0 (its shared row) and a worker of locality 1
    /// sends M more (its row there); locality 0's workers run all 2M.
    #[test]
    fn counter_rows_sum_exactly() {
        use crate::origin::Caller;
        use crate::runtime::{Config, RuntimeBuilder};
        use crate::{stats::StatsSnapshot, sys};
        const N: u64 = 2_000;
        const M: u64 = 300;
        let rt = RuntimeBuilder::new(Config::small(2, 2)).build().unwrap();
        let noop = || sys::bare(Gid::locality_root(LocalityId(0)), sys::NOOP);
        let settled = |ok: &dyn Fn(&StatsSnapshot) -> bool| {
            let t0 = Instant::now();
            while !ok(&rt.stats()) {
                assert!(t0.elapsed().as_secs() < 10, "{:?}", rt.stats().localities);
                std::thread::yield_now();
            }
        };
        for _ in 0..N {
            rt.spawn_at(LocalityId(0), |_| {});
        }
        settled(&|s| s.localities[0].threads_executed == N);
        let phase1 = rt.stats();
        for _ in 0..M {
            rt.origin().send(noop());
        }
        rt.spawn_at(LocalityId(1), move |ctx| {
            for _ in 0..M {
                ctx.send_parcel(noop());
            }
        });
        settled(&|s| s.localities[0].parcels_recv == 2 * M);
        rt.shutdown();
        let d = rt.stats().delta_from(&phase1);
        let (l0, l1) = (&d.localities[0], &d.localities[1]);
        assert_eq!(
            (l0.threads_executed, l0.parcels_sent, l0.parcels_recv),
            (0, M, 2 * M)
        );
        assert_eq!(
            (l1.threads_executed, l1.parcels_sent, l1.parcels_recv),
            (1, M, 0)
        );
        assert_eq!(d.total().parcels_sent, 2 * M);

        // Only workers run tasks, so the shared row counts none; the
        // driver's sends are all it holds of `parcels_sent`.
        let rows = &rt.inner().localities[0].counters;
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].threads_executed.get(), 0);
        assert_eq!(rows[0].parcels_sent.get(), M);
        let executed: u64 = rows[1..].iter().map(|r| r.threads_executed.get()).sum();
        assert_eq!(executed, N);
    }

    #[test]
    fn gids_are_born_here() {
        let loc = Locality::new(LocalityId(9), false, 10);
        let gid = loc.new_future_lco();
        assert_eq!(gid.birthplace(), LocalityId(9));
        assert_eq!(gid.kind(), GidKind::Lco);
    }
}
