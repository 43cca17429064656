//! The runtime: boot, shared state, and the external driver API.
//!
//! A [`Runtime`] owns `localities × workers` OS threads and nothing else:
//! the wire's delays and the balancer pulse are timers its workers fire.
//! It is built once via
//! [`RuntimeBuilder`] — the action registry freezes at build so parcel
//! dispatch never locks — and torn down with [`Runtime::shutdown`] (or on
//! drop).
//!
//! Two views of the same machinery, each an [`crate::origin::Origin`]
//! with a handle around it:
//!
//! * [`Ctx`] — handed to every PX-thread; split-phase only (never
//!   blocks): spawns, parcels, LCO events, suspension via depleted
//!   threads.
//! * [`Runtime`] — the external driver view; may block
//!   ([`Runtime::wait_future`], [`crate::lco::FutureRef::wait`]).

pub use crate::config::{Config, TransportKind};
pub use crate::ctx::Ctx;

use crate::action::{Action, ActionRegistry, Value};
use crate::agas::Names;
use crate::clock::Clock;
use crate::error::{Fault, PxError, PxResult};
use crate::fxmap::FxHashMap;
use crate::gid::{Gid, GidKind, LocalityId};
use crate::lco::{surface_fault, ExtSlot, FutureRef, LcoCore, ReduceFn, Waiter};
use crate::locality::Locality;
use crate::net::{PortSet, Transport, Wire};
use crate::origin::Caller;
use crate::parcel::{Continuation, Parcel};
use crate::process::{ProcessInner, ProcessRef};
use crate::queue::Local;
use crate::sched::{Task, Worker};
use crate::stats::Counter;
use crate::sys;
use parking_lot::{Mutex, RwLock};
use serde::{de::DeserializeOwned, Serialize};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

#[cfg(test)]
pub(crate) mod stepped;

/// Shared runtime state (everything workers need).
pub struct RuntimeInner {
    /// Configuration the runtime booted with.
    pub config: Config,
    /// All localities, indexed by id.
    pub localities: Arc<Vec<Arc<Locality>>>,
    /// The symbolic names of this OS process (each locality holds its own
    /// [`crate::agas::Agas`]).
    pub names: Names,
    /// Frozen action dispatch table.
    pub registry: ActionRegistry,
    pub(crate) wire: Wire,
    pub(crate) shutdown: AtomicBool,
    pub(crate) process_table: RwLock<FxHashMap<Gid, Arc<ProcessInner>>>,
    /// Parallel processes created (roots + subprocesses).
    pub(crate) processes_created: Counter,
    /// Parallel processes cancelled (each subtree member counts once).
    pub(crate) processes_cancelled: Counter,
    /// Exited-and-unreferenced process records reaped from the table.
    pub(crate) processes_reaped: Counter,
    /// The locality driver-level sends originate from: locality 0
    /// in-process (the seed convention), this process's rank over TCP.
    pub(crate) origin: LocalityId,
    /// The single locality whose workers run in this OS process (`None`
    /// in-process: all of them do).
    pub(crate) owned: Option<LocalityId>,
    /// Whether the send path records AGAS access heat: true only when the
    /// balancer is on *and* its policy can act on heat
    /// ([`px_balance::BalancePolicy::uses_heat`]) — otherwise the
    /// per-send heat-map update would be pure overhead.
    pub(crate) track_heat: bool,
    /// Dead-letter hook: observes every fault the runtime raises (parcel
    /// deaths and dead-ended LCO errors). `None` by default — faults are
    /// still counted and delivered to continuations either way.
    pub(crate) dead_letter: Option<DeadLetterHook>,
    /// Trace-aware dead-letter hook: like `dead_letter` but also handed
    /// the dying trace's captured event slice (empty when the fault's
    /// parcel carried no trace id).
    pub(crate) dead_letter_traced: Option<TracedDeadLetterHook>,
    /// Trace sampler and id allocator (`Some` iff `config.trace` is
    /// enabled).
    pub(crate) trace: Option<crate::trace::TraceState>,
    /// Armed parcels this runtime dropped (see [`crate::parcel`]).
    #[cfg(debug_assertions)]
    pub(crate) lost: Arc<crate::parcel::LostLog>,
}

/// Observer invoked (synchronously, on the worker that raised it) for
/// every fault. Keep it cheap and non-blocking; it runs on the hot path
/// of a dying parcel. Registered via [`RuntimeBuilder::on_dead_letter`].
///
/// The hook sees a superset of the `dead_parcels` counters: each counted
/// death is counted and reported in one call (`record_death`), plus
/// faults with no parcel to count — panics in closure threads
/// ([`Ctx::spawn`]/[`Ctx::when_ready`] bodies, visible in the `panics`
/// counter only), a lost rank — once, from the wire's one loss
/// transition (`net::Wire::lose`), on either backend — and
/// [`Ctx::acquire`] continuations
/// dropped because no permit can be granted (a poisoned semaphore, or a
/// target that is not a semaphore — that error is itself counted first).
/// One exemption: the TCP backend only counts what dies with no runtime
/// to tell — during `Runtime::shutdown`, or before `build` returns.
pub type DeadLetterHook = Arc<dyn Fn(&Fault) + Send + Sync + 'static>;

/// Trace-aware dead-letter observer, registered via
/// [`RuntimeBuilder::on_dead_letter_traced`]. Sees every fault the plain
/// [`DeadLetterHook`] sees, plus the causally ordered slice of trace
/// events captured for the dying parcel's trace id at the moment of death
/// — the full chase/forward/poison history when tracing is on. The dump
/// is empty when the fault's parcel carried no trace id (tracing off, or
/// the parcel was not sampled). Same contract: synchronous, keep it
/// cheap.
pub type TracedDeadLetterHook =
    Arc<dyn Fn(&Fault, &crate::trace::TraceDump) + Send + Sync + 'static>;

impl std::fmt::Debug for RuntimeInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeInner")
            .field("localities", &self.localities.len())
            .field("actions", &self.registry.len())
            .finish()
    }
}

impl RuntimeInner {
    /// Locality by id (panics on out-of-range — ids come from GIDs we
    /// minted, so out-of-range indicates memory corruption, not input).
    #[inline]
    pub fn locality(&self, id: LocalityId) -> &Arc<Locality> {
        &self.localities[id.0 as usize]
    }

    /// Report a fault to the dead-letter hooks, if any are registered.
    /// `trace` is the dying parcel's trace id, when it had one: the
    /// traced hook then also receives the trace's captured event slice
    /// (what `trace_dump_for` would return at this instant), and an
    /// empty dump otherwise.
    pub(crate) fn notify_dead_letter(&self, fault: &Fault, trace: Option<u64>) {
        if let Some(hook) = &self.dead_letter {
            hook(fault);
        }
        if let Some(hook) = &self.dead_letter_traced {
            let dump = match trace {
                Some(t) => self.local_trace_dump().filter(t),
                None => crate::trace::TraceDump::default(),
            };
            hook(fault, &dump);
        }
    }

    /// Merge every owned locality's trace ring into one causally ordered
    /// dump (this OS process's view only; see
    /// [`Runtime::trace_dump`] for the cross-rank story).
    pub(crate) fn local_trace_dump(&self) -> crate::trace::TraceDump {
        let mut events = Vec::new();
        for loc in self.localities.iter() {
            if let Some(ring) = &loc.trace {
                events.extend(ring.snapshot());
            }
        }
        crate::trace::TraceDump::new(events)
    }

    /// Merge the metrics registries of every locality this process owns
    /// (empty snapshot when metrics are off — remote stubs never have a
    /// registry, so in a multi-process system this is *this rank's*
    /// histograms only).
    pub(crate) fn local_metrics_snapshot(&self) -> crate::metrics::MetricsSnapshot {
        let mut merged = crate::metrics::MetricsSnapshot::default();
        for loc in self.localities.iter() {
            if let Some(reg) = &loc.metrics {
                merged.merge(&reg.snapshot());
            }
        }
        merged
    }

    /// Block the calling (driver, never worker) thread until LCO `gid`
    /// resolves, for at most `timeout` when one is given. `Ok(None)` is
    /// the timeout; a poisoned LCO surfaces as [`PxError::Fault`]. A wait
    /// that returns either reads a one-shot LCO and so frees it
    /// ([`FutureRef`]); a timeout withdraws the waiter instead, so the
    /// LCO stays for a retry however late it fires.
    pub(crate) fn wait_lco(
        self: &Arc<Self>,
        gid: Gid,
        timeout: Option<Duration>,
    ) -> PxResult<Option<Value>> {
        let loc = self.locality(gid.birthplace());
        // One op: a resolved LCO is read here; only a pending one gets a
        // slot to park on, registered under the same lock.
        let read = loc.lco_op(gid, |l| {
            l.read_now().ok_or_else(|| {
                let slot = Arc::new(ExtSlot::default());
                l.add_waiter(Waiter::External(slot.clone()));
                slot
            })
        })?;
        let slot = match read {
            Ok(v) => return surface_fault(v).map(Some),
            Err(slot) => slot,
        };
        match timeout {
            Some(t) => match slot.wait_timeout(t)? {
                Some(v) => Ok(Some(v)),
                None => match loc.lco_op(gid, |l| l.withdraw(&slot)) {
                    Ok(v) => v.map(surface_fault).transpose(),
                    // A one-shot leaves the store only once read, and
                    // with this slot among its waiters only its firing
                    // reads it: the activation that fills the slot is
                    // under way.
                    Err(PxError::NoSuchObject(_)) => slot.wait().map(Some),
                    Err(e) => Err(e),
                },
            },
            #[cfg(not(debug_assertions))]
            None => slot.wait().map(Some),
            // Sliced so that a wait whose answer was lost with a dropped
            // parcel fails here, with the loss, instead of hanging.
            #[cfg(debug_assertions)]
            None => loop {
                if let Some(v) = slot.wait_timeout(Duration::from_millis(50))? {
                    return Ok(Some(v));
                }
                self.lost.fail_if_any();
            },
        }
    }

    /// True when locality `id`'s workers run in this OS process.
    #[inline]
    pub(crate) fn owns(&self, id: LocalityId) -> bool {
        self.owned.is_none_or(|o| o == id)
    }

    /// True when this runtime is one rank of a multi-process system.
    #[inline]
    pub(crate) fn distributed(&self) -> bool {
        self.owned.is_some()
    }
}

/// Builds a [`Runtime`]: collect the action registry, validate the
/// config, boot workers.
pub struct RuntimeBuilder {
    config: Config,
    registry: ActionRegistry,
    errors: Vec<PxError>,
    dead_letter: Option<DeadLetterHook>,
    dead_letter_traced: Option<TracedDeadLetterHook>,
    /// This rank's listener, bound by the caller (`tcp_listener`).
    listener: Option<TcpListener>,
}

impl RuntimeBuilder {
    /// Start building with `config`.
    pub fn new(config: Config) -> Self {
        RuntimeBuilder {
            config,
            registry: ActionRegistry::new(),
            errors: Vec::new(),
            dead_letter: None,
            dead_letter_traced: None,
            listener: None,
        }
    }

    /// Listen on `listener`, already bound, instead of binding
    /// `TcpConfig::addrs[rank]` at [`RuntimeBuilder::build`] (TCP only:
    /// an in-process runtime drops it). A launcher binds rank 0 first
    /// and hands every rank it starts the real address: each of them
    /// then dials a listener that is up.
    pub fn tcp_listener(mut self, listener: TcpListener) -> Self {
        self.listener = Some(listener);
        self
    }

    /// Register a typed action (duplicates are reported at
    /// [`RuntimeBuilder::build`]).
    pub fn register<A: Action>(mut self) -> Self {
        if let Err(e) = self.registry.register::<A>() {
            self.errors.push(e);
        }
        self
    }

    /// Install a dead-letter hook observing every fault the runtime
    /// raises (parcel deaths by any cause, dead-ended LCO errors). Runs
    /// synchronously on the raising worker — keep it cheap. Faults are
    /// counted and propagated to continuations whether or not a hook is
    /// installed; the hook is for logging, alerting, and tests.
    pub fn on_dead_letter(mut self, hook: impl Fn(&Fault) + Send + Sync + 'static) -> Self {
        self.dead_letter = Some(Arc::new(hook));
        self
    }

    /// Install a trace-aware dead-letter hook: sees every fault
    /// [`RuntimeBuilder::on_dead_letter`] sees, plus the dying trace's
    /// captured event slice (see [`TracedDeadLetterHook`]). Both hooks
    /// may be installed; each observes every fault.
    pub fn on_dead_letter_traced(
        mut self,
        hook: impl Fn(&Fault, &crate::trace::TraceDump) + Send + Sync + 'static,
    ) -> Self {
        self.dead_letter_traced = Some(Arc::new(hook));
        self
    }

    /// Validate, construct, and boot the runtime.
    pub fn build(self) -> PxResult<Runtime> {
        let (inner, workers) = self.assemble(&Clock::Real)?;
        let joins = workers.into_iter().map(crate::sched::spawn).collect();
        let joins = Mutex::new(Some(joins));
        Ok(Runtime { inner, joins })
    }

    /// The runtime, its heaps on `clock`, and its workers to run (only
    /// the owned rank's in a multi-process system).
    fn assemble(self, clock: &Clock) -> PxResult<(Arc<RuntimeInner>, Vec<Worker>)> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        self.config.validate()?;
        let n = self.config.localities;
        let owned = match &self.config.transport {
            TransportKind::InProc => None,
            TransportKind::Tcp(tcp) => Some(LocalityId(tcp.rank)),
        };
        // One causality domain per OS process: in-process runs are domain
        // 0; over TCP each rank is its own domain (clocks incomparable).
        let domain = owned.map_or(0, |o| o.0);
        // One epoch shared by every ring of this runtime, so in-process
        // timestamps are comparable.
        let trace_epoch = self.config.trace.enabled().then(std::time::Instant::now);
        // The owner end of every worker ring, per locality: created with
        // the locality (its stealer set is immutable once shared) and
        // handed to the worker threads below.
        let mut rings: Vec<Vec<Local<Task>>> = Vec::with_capacity(n);
        let localities: Arc<Vec<Arc<Locality>>> = Arc::new(
            (0..n)
                .map(|i| {
                    let id = LocalityId(i as u16);
                    let accel = self.config.accelerators.contains(&id);
                    let mut loc = Locality::new(id, accel, n);
                    if self.config.balance.is_some() {
                        loc.enable_balance(n);
                    }
                    // Rings only where workers will run: a remote stub
                    // never executes anything worth recording.
                    if let Some(epoch) = trace_epoch {
                        if owned.is_none_or(|o| o == id) {
                            loc.enable_trace(Arc::new(crate::trace::TraceRing::new(
                                crate::trace::RING_CAPACITY,
                                id,
                                domain,
                                epoch,
                            )));
                        }
                    }
                    // Registries only where workers will run, like trace
                    // rings: a remote stub records nothing.
                    if self.config.metrics && owned.is_none_or(|o| o == id) {
                        loc.enable_metrics(Arc::new(crate::metrics::MetricsRegistry::default()));
                    }
                    // In a multi-process system the structs for other
                    // ranks are routing stubs: creating objects there
                    // would mint GIDs another process also mints.
                    if owned.is_some_and(|o| o != id) {
                        loc.mark_remote_stub();
                        rings.push(Vec::new());
                    } else {
                        let workers = self.config.workers_per_locality;
                        rings.push(loc.attach_workers(workers, clock));
                    }
                    Arc::new(loc)
                })
                .collect(),
        );
        let batch = self.config.max_batch_parcels;
        // Frames that never leave the process carry no integrity trailer.
        let (transport, ports, version): (Arc<dyn Transport>, _, _) = match &self.config.transport {
            TransportKind::InProc => {
                use crate::net::inproc::InProcTransport;
                let (wire, version) = (self.config.wire, px_wire::FRAME_VERSION);
                // An instant wire has no per-message cost to amortize, and
                // no pass to pull a port.
                let ports = (!wire.is_instant()).then(|| PortSet::new(batch, n, version));
                let ports = ports.flatten();
                let transport = InProcTransport::new(wire, localities.clone(), ports.clone());
                // Each locality's workers fire its heap where anything is
                // timed; a kick rings the holder's park.
                if !wire.is_instant() || self.config.balance.is_some() {
                    for loc in localities.iter() {
                        let bell = loc.timers.bell();
                        loc.sleep.drive_poller(move || bell.ring());
                    }
                }
                (Arc::new(transport), ports, version)
            }
            TransportKind::Tcp(tcp) => {
                use crate::net::tcp::{bind, TcpTransport};
                let listener = self.listener.map_or_else(|| bind(tcp), Ok)?;
                let version = px_wire::FRAME_VERSION_CHECKSUM;
                let ports = PortSet::new(batch, n, version);
                let transport =
                    TcpTransport::bootstrap(tcp, listener, localities.clone(), ports.clone());
                (Arc::new(transport?), ports, version)
            }
        };
        let wire = Wire::new(transport, localities.clone(), ports, version, owned);
        let track_heat = self
            .config
            .balance
            .as_ref()
            .is_some_and(|b| b.policy.uses_heat());
        let origin = owned.unwrap_or(LocalityId(0));
        let inner = Arc::new(RuntimeInner {
            names: Names::default(),
            registry: self.registry,
            wire,
            shutdown: AtomicBool::new(false),
            process_table: RwLock::new(FxHashMap::default()),
            processes_created: Counter::default(),
            processes_cancelled: Counter::default(),
            processes_reaped: Counter::default(),
            origin,
            owned,
            track_heat,
            dead_letter: self.dead_letter,
            dead_letter_traced: self.dead_letter_traced,
            trace: self
                .config
                .trace
                .enabled()
                .then(|| crate::trace::TraceState::new(self.config.trace.sample_every, domain)),
            localities,
            config: self.config,
            #[cfg(debug_assertions)]
            lost: Arc::default(),
        });
        // Late-bind the runtime into the transport so undeliverable
        // messages can be killed loudly (fault to continuation).
        inner.wire.bind(&inner);
        // The balancer pulse: one per owned locality, on its own heap
        // (see `crate::balance`).
        crate::balance::start(&inner);
        let mut workers = Vec::new();
        for (l, rings) in rings.into_iter().enumerate() {
            let worker = |(w, ring)| Worker::new(&inner, l, w, ring);
            workers.extend(rings.into_iter().enumerate().map(worker));
        }
        Ok((inner, workers))
    }
}

/// The booted runtime (external driver handle).
pub struct Runtime {
    inner: Arc<RuntimeInner>,
    joins: Mutex<Option<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl Runtime {
    /// Shared state handle (crate-internal plumbing).
    pub(crate) fn inner(&self) -> &Arc<RuntimeInner> {
        &self.inner
    }

    /// Number of localities.
    pub fn num_localities(&self) -> usize {
        self.inner.localities.len()
    }

    /// Snapshot all locality counters.
    pub fn stats(&self) -> crate::stats::StatsSnapshot {
        let localities: Vec<_> = self.inner.localities.iter().map(|l| l.stats()).collect();
        let moved = |row: fn(&crate::stats::LocalityStats) -> u64| localities.iter().map(row).sum();
        crate::stats::StatsSnapshot {
            migrations_manual: moved(|l| l.migrations_manual),
            migrations_balancer: moved(|l| l.migrations_balancer),
            localities,
            processes_created: self.inner.processes_created.get(),
            processes_cancelled: self.inner.processes_cancelled.get(),
            processes_reaped: self.inner.processes_reaped.get(),
            transport: self.inner.wire.transport_stats(),
        }
    }

    /// Merge every locality's trace ring into one causally ordered
    /// [`crate::trace::TraceDump`] (empty when tracing is off). In a
    /// multi-process system this is *this rank's* slice only; fetch the
    /// peers' dumps (e.g. with an action returning
    /// `rt.trace_dump().events`) and combine with
    /// [`crate::trace::TraceDump::merge`] for the cross-rank replay.
    pub fn trace_dump(&self) -> crate::trace::TraceDump {
        self.inner.local_trace_dump()
    }

    /// [`Runtime::trace_dump`] filtered to one trace id.
    pub fn trace_dump_for(&self, trace: u64) -> crate::trace::TraceDump {
        self.inner.local_trace_dump().filter(trace)
    }

    /// Allocate a fresh trace id for [`Runtime::send_action_traced`]
    /// (`None` when tracing is off). Ids are unique across ranks without
    /// coordination: the rank lives in the high bits.
    pub fn new_trace_id(&self) -> Option<u64> {
        self.inner.trace.as_ref().map(|t| t.fresh_id())
    }

    /// [`Runtime::send_action`] with an explicit trace id: the parcel and
    /// everything it causes — follow-on parcels, LCO events, faults —
    /// record under `trace` regardless of the sampling rate. The id rides
    /// the wire, so the chain is recorded on every rank it crosses.
    pub fn send_action_traced<A: Action>(
        &self,
        target: Gid,
        args: A::Args,
        cont: Continuation,
        trace: u64,
    ) -> PxResult<()> {
        let traced = self.origin().with_trace(Some(trace));
        traced.send_action::<A>(target, &args, cont)
    }

    // ---- metrics -----------------------------------------------------------

    /// This rank's merged latency histograms (an empty snapshot when
    /// metrics are off). In a multi-process system this is the local
    /// slice only; [`Runtime::cluster_metrics`] merges every rank's.
    pub fn local_metrics(&self) -> crate::metrics::MetricsSnapshot {
        self.inner.local_metrics_snapshot()
    }

    /// Merge every locality's latency histograms into one
    /// [`crate::metrics::ClusterMetrics`], callable from any rank.
    ///
    /// Single-process: snapshots each locality's registry directly.
    /// Multi-process: sends one `__sys/metrics_pull` parcel per remote
    /// rank over the control priority lane (the balancer-gossip path, so
    /// a backpressured data lane cannot starve the pull) and blocks for
    /// the replies. Only bucket *counts* cross the wire — each histogram
    /// was recorded against its own rank's monotonic clock and merging
    /// adds counts, so clocks are never compared cross-rank. A dead peer
    /// surfaces as [`PxError::Fault`] through the usual dead-letter path
    /// rather than a silent hang; for a bounded wait use
    /// [`Runtime::cluster_metrics_timeout`].
    pub fn cluster_metrics(&self) -> PxResult<crate::metrics::ClusterMetrics> {
        Ok(self
            .cluster_metrics_inner(None)?
            .expect("unbounded metrics pull cannot time out"))
    }

    /// [`Runtime::cluster_metrics`] with a per-reply timeout: `Ok(None)`
    /// when any rank's reply did not arrive in time.
    pub fn cluster_metrics_timeout(
        &self,
        timeout: Duration,
    ) -> PxResult<Option<crate::metrics::ClusterMetrics>> {
        self.cluster_metrics_inner(Some(timeout))
    }

    fn cluster_metrics_inner(
        &self,
        timeout: Option<Duration>,
    ) -> PxResult<Option<crate::metrics::ClusterMetrics>> {
        // One row per locality: read the registry of one whose workers
        // run here, pull from one that lives on another rank. Every pull
        // is issued before any reply is awaited, so the pulls fan out
        // concurrently: the total wait is one round trip, not one per
        // rank.
        let mut per_rank: Vec<(u16, crate::metrics::MetricsSnapshot)> = Vec::new();
        let mut pulls: Vec<(usize, Gid)> = Vec::new();
        for loc in self.inner.localities.iter() {
            let mut snap = crate::metrics::MetricsSnapshot::default();
            if !self.inner.owns(loc.id) {
                let ask = sys::bare(Gid::locality_root(loc.id), sys::METRICS_PULL);
                pulls.push((per_rank.len(), self.origin().request(ask)));
            } else if let Some(reg) = &loc.metrics {
                snap = reg.snapshot();
            }
            per_rank.push((loc.id.0, snap));
        }
        let pending: Vec<Gid> = pulls.iter().map(|&(_, fut)| fut).collect();
        let Some(replies) = self.inner.take_replies(&pending, timeout)? else {
            return Ok(None);
        };
        for (&(row, _), v) in pulls.iter().zip(replies) {
            per_rank[row].1 = crate::metrics::MetricsSnapshot::decode(v.bytes())?;
        }
        let mut merged = crate::metrics::MetricsSnapshot::default();
        for (_, s) in &per_rank {
            merged.merge(s);
        }
        Ok(Some(crate::metrics::ClusterMetrics { per_rank, merged }))
    }

    /// Render the Prometheus-style text exposition page for this rank:
    /// every [`crate::stats::StatsSnapshot`] total as a `name{} value`
    /// line, the derived ratio gauges, then one histogram block per
    /// metrics instrument (cumulative `_bucket{le="…"}` lines, `_sum`,
    /// `_count`, and precomputed quantiles — empty-but-present blocks
    /// when metrics are off). For a cluster-wide page, feed
    /// [`Runtime::cluster_metrics`]'s merged snapshot through
    /// [`crate::metrics::render_instruments`] instead.
    pub fn metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let stats = self.stats();
        let t = stats.total();
        let mut out = String::new();
        // Counter totals, one line per `counters!` row. The `{{}}` renders
        // as a literal empty label set so every line parses uniformly as
        // `name{labels} value`.
        t.for_each(|name, value| {
            let _ = writeln!(out, "px_{name}{{}} {value}");
        });
        let _ = writeln!(out, "px_processes_created{{}} {}", stats.processes_created);
        let _ = writeln!(
            out,
            "px_processes_cancelled{{}} {}",
            stats.processes_cancelled
        );
        let _ = writeln!(out, "px_processes_reaped{{}} {}", stats.processes_reaped);
        // Ratio gauges: all 0.0-guarded on empty counters, so this page
        // never prints NaN (pinned by the stats unit tests).
        let _ = writeln!(out, "px_busy_fraction{{}} {}", t.busy_fraction());
        let _ = writeln!(out, "px_parcels_per_frame{{}} {}", t.parcels_per_frame());
        let _ = writeln!(out, "px_mean_chase_len{{}} {}", t.mean_chase_len());
        let _ = writeln!(out, "px_agas_hit_rate{{}} {}", t.agas_hit_rate());
        crate::metrics::render_instruments(&self.inner.local_metrics_snapshot(), &mut out);
        out
    }

    /// Stop accepting work, wake and join all workers, stop the wire.
    /// Idempotent; also invoked on drop. Workers run their queues dry
    /// before they exit; what arrives later is abandoned (`net/mod.rs`,
    /// contract point 4). A debug build panics here if the runtime
    /// dropped a parcel it had taken charge of ([`crate::parcel`]).
    pub fn shutdown(&self) {
        let joins = self.joins.lock().take();
        if let Some(joins) = joins {
            // SeqCst, then notify: a worker either is found announced by
            // `notify_all` or reads the flag at its own re-check.
            self.inner.shutdown.store(true, Ordering::SeqCst);
            for loc in self.inner.localities.iter() {
                loc.sleep.notify_all();
            }
            for j in joins {
                let _ = j.join();
            }
        }
        #[cfg(debug_assertions)]
        {
            self.inner.lost.close();
            self.inner.lost.fail_if_any();
        }
    }

    // ---- work injection ---------------------------------------------------

    /// Spawn a PX-thread at `dest`.
    pub fn spawn_at(&self, dest: LocalityId, f: impl FnOnce(&mut Ctx<'_>) + Send + 'static) {
        self.origin().spawn_at(dest, f);
    }

    /// Send an action parcel (origin is locality 0 by driver convention;
    /// in a multi-process system, the locality this process owns).
    pub fn send_action<A: Action>(
        &self,
        target: Gid,
        args: A::Args,
        cont: Continuation,
    ) -> PxResult<()> {
        self.origin().send_action::<A>(target, &args, cont)
    }

    /// Run a closure inside a PX-thread at `dest` and block for its
    /// result (driver convenience; the result crosses back through a
    /// channel, not the wire).
    pub fn run_blocking<T, F>(&self, dest: LocalityId, f: F) -> T
    where
        T: Send + 'static,
        F: FnOnce(&mut Ctx<'_>) -> T + Send + 'static,
    {
        let (tx, rx) = sync_channel(1);
        self.spawn_at(dest, move |ctx| {
            let _ = tx.send(f(ctx));
        });
        rx.recv().expect("runtime dropped while running closure")
    }

    // ---- LCOs --------------------------------------------------------------

    /// Create a future LCO at `loc`.
    pub fn new_future<T: Serialize + DeserializeOwned>(&self, loc: LocalityId) -> FutureRef<T> {
        FutureRef::from_gid(self.origin().new_one_shot(loc, LcoCore::new_future))
    }

    /// Create an and-gate expecting `n` triggers at `loc`.
    pub fn new_and_gate(&self, loc: LocalityId, n: u64) -> Gid {
        self.origin()
            .new_lco(loc, |gid| LcoCore::new_and_gate(gid, n))
    }

    /// Create a reduction LCO at `loc` over `n` contributions.
    pub fn new_reduce<T: Serialize + DeserializeOwned>(
        &self,
        loc: LocalityId,
        n: u64,
        seed: &T,
        fold: ReduceFn,
    ) -> PxResult<FutureRef<T>> {
        let seed = Value::encode(seed)?;
        let gid = self
            .origin()
            .new_one_shot(loc, |gid| LcoCore::new_reduce(gid, n, seed, fold));
        Ok(FutureRef::from_gid(gid))
    }

    /// Create a counting semaphore at `loc`.
    pub fn new_semaphore(&self, loc: LocalityId, permits: u64) -> Gid {
        self.origin()
            .new_lco(loc, |gid| LcoCore::new_semaphore(gid, permits))
    }

    /// Trigger any LCO with an encoded value, routed like a parcel.
    pub fn trigger<T: Serialize>(&self, gid: Gid, value: &T) -> PxResult<()> {
        self.origin()
            .lco_event(gid, sys::LCO_SET, Value::encode(value)?);
        Ok(())
    }

    /// Fill a typed future.
    pub fn set_future<T: Serialize + DeserializeOwned>(
        &self,
        fut: FutureRef<T>,
        value: &T,
    ) -> PxResult<()> {
        self.trigger(fut.gid(), value)
    }

    /// Block until an LCO fires; returns the raw value. If the LCO is (or
    /// becomes) *poisoned* — a parcel feeding it died — this returns
    /// [`PxError::Fault`] instead of blocking forever. Either way a
    /// one-shot LCO has been read and is freed ([`FutureRef`]).
    pub fn wait_value(&self, gid: Gid) -> PxResult<Value> {
        let v = self.inner.wait_lco(gid, None)?;
        Ok(v.expect("an unbounded wait cannot time out"))
    }

    /// Block until a typed future fires. A poisoned future surfaces as
    /// [`PxError::Fault`] (see the README's "Failure semantics").
    pub fn wait_future<T: Serialize + DeserializeOwned>(&self, fut: FutureRef<T>) -> PxResult<T> {
        self.wait_value(fut.gid())?.decode()
    }

    /// Block with a timeout; `Ok(None)` on timeout, [`PxError::Fault`] if
    /// the future was poisoned. A timeout keeps the future for a retry
    /// ([`FutureRef`]).
    pub fn wait_future_timeout<T: Serialize + DeserializeOwned>(
        &self,
        fut: FutureRef<T>,
        timeout: Duration,
    ) -> PxResult<Option<T>> {
        match self.inner.wait_lco(fut.gid(), Some(timeout))? {
            Some(v) => Ok(Some(v.decode()?)),
            None => Ok(None),
        }
    }

    // ---- data objects ------------------------------------------------------

    /// Create a data object at `loc`.
    pub fn new_data_at(&self, loc: LocalityId, bytes: Vec<u8>) -> Gid {
        self.origin().new_data(loc, bytes)
    }

    /// Read a data object wherever it lives (driver-side shortcut for
    /// verification; inside PX-threads use parcels or
    /// [`Ctx::fetch_data`]). One `DATA_GET` round trip on both backends:
    /// a concurrent migration parks or forwards the request like any
    /// other parcel, and a missing object — freed or never created —
    /// returns `Err(PxError::Fault)`.
    pub fn read_data(&self, gid: Gid) -> PxResult<Vec<u8>> {
        self.sys_rpc(sys::bare(gid, sys::DATA_GET))?
            .decode::<Vec<u8>>()
    }

    /// Driver-side split-phase round trip: a request from the driver's
    /// origin, blocking the *driver* thread (never a worker) on the
    /// reply. A dead peer resolves it as `Err(PxError::Fault)` through
    /// the transport dead-letter path.
    pub(crate) fn sys_rpc(&self, p: Parcel) -> PxResult<Value> {
        self.wait_value(self.origin().request(p))
    }

    /// Migrate a data object to `to`: one `AGAS_MIGRATE` round trip, on
    /// both backends. The request chases the object to its current
    /// owner, which runs the split-phase move — install at `to`, update
    /// the home directory, remove at the source — so the object is served
    /// at every instant, and parcels routed on stale caches are forwarded
    /// (bounded chase). Every move pins the object's GID for its whole
    /// run: a call that races another move of the same object waits for
    /// it, then moves the object from wherever that one left it. A
    /// missing object — freed, or never created — or a peer dying
    /// mid-protocol returns `Err(PxError::Fault)` in bounded time; in
    /// the second case the object stays served at the source. So does a
    /// `to` that names no locality: the move's owner refuses it.
    pub fn migrate_data(&self, gid: Gid, to: LocalityId) -> PxResult<()> {
        if gid.kind() != GidKind::Data {
            return Err(PxError::NotMigratable(gid));
        }
        let cause = crate::agas::MigrationCause::Manual;
        self.sys_rpc(sys::msg::Migrate { to, cause }.parcel(gid, None))?;
        Ok(())
    }

    // ---- names & processes -------------------------------------------------

    /// Bind a hierarchical symbolic name.
    pub fn register_name(&self, name: &str, gid: Gid) -> PxResult<()> {
        self.inner.names.register_name(name, gid)
    }

    /// Resolve a symbolic name. Process-scoped names (`/proc/<gid>/...`)
    /// are cluster-visible: on a local miss for a process homed in
    /// another OS process, the lookup is forwarded as a `__sys/name_lookup` RPC to the
    /// owning process's home rank (the rank that registered them), so a
    /// GID published under a process on one rank resolves from any
    /// other. A dead home rank or an unbound name resolves as
    /// `Err(PxError::Fault)` in bounded time rather than hanging.
    pub fn lookup_name(&self, name: &str) -> PxResult<Gid> {
        let local = self.inner.names.lookup_name(name);
        let Err(PxError::UnknownName(_)) = &local else {
            return local;
        };
        let Some(home) = process_name_home(name) else {
            return local;
        };
        if self.inner.owns(home) {
            return local;
        }
        let name = Value::from_bytes(name.as_bytes().to_vec());
        let root = Gid::locality_root(home);
        let v = self.sys_rpc(Parcel::new(
            root,
            sys::NAME_LOOKUP,
            name,
            Continuation::none(),
        ))?;
        <Gid as sys::msg::Wire>::decode(v.bytes()).or(local)
    }

    /// Create a (root) parallel process homed at `home`. Subprocesses are
    /// created through [`ProcessRef::create_subprocess`].
    pub fn create_process(&self, home: LocalityId) -> ProcessRef {
        crate::process::create_process(&self.inner, home, None)
    }

    /// Reap exited-and-unreferenced process records from the runtime
    /// table now (the sweep also runs automatically every 64 process
    /// creations). Returns how many records were removed; the total is
    /// reported as `StatsSnapshot::processes_reaped`. Done-futures
    /// survive the reap — waiting on one still resolves — and a late
    /// activity decrement against a reaped record is a tolerated no-op.
    pub fn reap_processes(&self) -> usize {
        crate::process::reap_processes(&self.inner)
    }

    /// Live records in the process table (diagnostics for the GC).
    pub fn process_table_size(&self) -> usize {
        self.inner.process_table.read().len()
    }
}

/// The home rank of a process-scoped name (`/proc/<gid-hex>/...`): the
/// embedded process gid's birthplace — the rank whose table holds every
/// name registered through that process. `None` for non-process names.
fn process_name_home(name: &str) -> Option<LocalityId> {
    let rest = name.strip_prefix("/proc/")?;
    let hex = rest.split('/').next()?;
    let raw = u64::from_str_radix(hex, 16).ok()?;
    Some(Gid(raw).birthplace())
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_and_shutdown() {
        let rt = RuntimeBuilder::new(Config::small(2, 2)).build().unwrap();
        assert_eq!(rt.num_localities(), 2);
        rt.shutdown();
        rt.shutdown(); // idempotent
    }

    #[test]
    fn metrics_off_is_empty_but_renders() {
        let rt = RuntimeBuilder::new(Config::small(2, 1)).build().unwrap();
        rt.run_blocking(LocalityId(0), |_| {});
        assert_eq!(rt.local_metrics().total_count(), 0);
        let cluster = rt.cluster_metrics().unwrap();
        assert_eq!(cluster.per_rank.len(), 2);
        assert_eq!(cluster.merged.total_count(), 0);
        // The page still shows every counter row (once) and every
        // instrument (all-zero blocks), and no line is NaN.
        let text = rt.metrics_text();
        rt.stats().total().for_each(|name, _| {
            let line = format!("px_{name}{{}} ");
            assert_eq!(text.lines().filter(|l| l.starts_with(&line)).count(), 1);
        });
        for inst in crate::metrics::Instrument::ALL {
            assert!(text.contains(&format!("{}_bucket{{le=\"+Inf\"}} 0", inst.name())));
        }
        assert!(!text.contains("NaN"));
        // The store-size gauge, sampled as the page is built: of two new
        // futures, the one that was read is gone.
        let before = rt.stats().total().objects;
        let (read, _unread) = (
            rt.new_future::<u8>(LocalityId(0)),
            rt.new_future::<u8>(LocalityId(1)),
        );
        rt.set_future(read, &1).unwrap();
        assert_eq!(read.wait(&rt).unwrap(), 1);
        let line = format!("px_objects{{}} {}\n", before + 1);
        assert!(rt.metrics_text().contains(&line), "{line}");
        rt.shutdown();
    }

    #[test]
    fn metrics_record_and_cluster_merge_in_proc() {
        let cfg = Config::small(2, 1).with_metrics(true);
        let rt = RuntimeBuilder::new(cfg).build().unwrap();
        for dest in [LocalityId(0), LocalityId(1)] {
            for _ in 0..8 {
                rt.run_blocking(dest, |_| {});
            }
        }
        let cluster = rt.cluster_metrics().unwrap();
        // Merged totals are exactly the per-rank sums, and quantiles are
        // monotone for every instrument that saw samples.
        let sum: u64 = cluster.per_rank.iter().map(|(_, s)| s.total_count()).sum();
        assert_eq!(cluster.merged.total_count(), sum);
        assert!(cluster.merged.total_count() > 0);
        for inst in crate::metrics::Instrument::ALL {
            let h = cluster.merged.get(inst);
            assert!(h.quantile(0.5) <= h.quantile(0.99));
            assert!(h.quantile(0.99) <= h.quantile(0.999));
        }
        // Queue wait is recorded for every executed task.
        assert!(
            cluster
                .merged
                .get(crate::metrics::Instrument::QueueWait)
                .count
                >= 16
        );
        let text = rt.metrics_text();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            // Every exposition line is `name{labels} value`.
            let (name, value) = line.split_once(' ').expect("line has a value");
            assert!(name.contains('{') && name.ends_with('}'), "{line}");
            assert!(value.parse::<f64>().unwrap().is_finite(), "{line}");
        }
        rt.shutdown();
    }

    #[test]
    fn future_set_and_wait() {
        let rt = RuntimeBuilder::new(Config::small(2, 1)).build().unwrap();
        let fut = rt.new_future::<u64>(LocalityId(1));
        rt.set_future(fut, &99).unwrap();
        assert_eq!(fut.wait(&rt).unwrap(), 99);
        rt.shutdown();
    }

    #[test]
    fn spawn_runs_on_destination() {
        let rt = RuntimeBuilder::new(Config::small(3, 1)).build().unwrap();
        let fut = rt.new_future::<u16>(LocalityId(0));
        let gid = fut.gid();
        rt.spawn_at(LocalityId(2), move |ctx| {
            let here = ctx.here().0;
            ctx.trigger(gid, &here).unwrap();
        });
        assert_eq!(fut.wait(&rt).unwrap(), 2);
        rt.shutdown();
    }

    #[test]
    fn run_blocking_returns_value() {
        let rt = RuntimeBuilder::new(Config::small(2, 1)).build().unwrap();
        let v = rt.run_blocking(LocalityId(1), |ctx| ctx.here().0 * 10);
        assert_eq!(v, 10);
        rt.shutdown();
    }

    #[test]
    fn batched_transport_delivers_everything() {
        let cfg = Config::small(2, 1)
            .with_latency(Duration::from_micros(200))
            .with_max_batch_parcels(8);
        let rt = RuntimeBuilder::new(cfg).build().unwrap();
        // 20 triggers cross the wire to an and-gate at locality 1: full
        // frames of 8, and what locality 1's passes pull in between.
        let gate = rt.new_and_gate(LocalityId(1), 20);
        for _ in 0..20 {
            rt.trigger(gate, &()).unwrap();
        }
        let fut: crate::lco::FutureRef<()> = crate::lco::FutureRef::from_gid(gate);
        rt.wait_future(fut).unwrap();
        let stats = rt.stats();
        let total = stats.total();
        assert_eq!(total.parcels_recv, 20, "every parcel executed");
        assert!(
            total.frames_recv >= 3 && total.frames_recv <= 20,
            "expected coalesced frames, got {}",
            total.frames_recv
        );
        assert!(
            total.coalesced_parcels > 0,
            "batching should have coalesced something"
        );
        rt.shutdown();
    }

    /// The spend check on a seeded violation, in a shape and a file the
    /// lexical rule never looked at: a parcel the runtime has taken
    /// charge of, dropped by a quiet `return`. A driver waiting on an
    /// answer fails with the loss instead of hanging, and so does
    /// `shutdown`.
    #[cfg(debug_assertions)]
    #[test]
    fn an_armed_parcel_dropped_by_a_quiet_return_fails_its_driver() {
        fn deliver_unless_busy(p: Parcel, busy: bool) {
            if busy {
                return; // the bug: `p` falls out of scope here
            }
            unreachable!("{p:?}");
        }
        let said = |f: &dyn Fn()| {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .expect_err("the loss must fail the driver");
            panic.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        let rt = RuntimeBuilder::new(Config::small(1, 1)).build().unwrap();
        let root = Gid::locality_root(LocalityId(0));
        let lose_one = || {
            let mut p = sys::bare(root, sys::PING);
            p.arm(rt.inner());
            deliver_unless_busy(p, true);
        };
        lose_one();
        let never_set = rt.new_future::<u8>(LocalityId(0));
        let at_wait = said(&|| drop(rt.wait_future(never_set)));
        let what = format!(
            "parcel lost: {:?} for {root} was armed at {}",
            sys::PING,
            file!()
        );
        assert!(at_wait.starts_with(&what), "{at_wait}");
        // Reported once: the next loss is the next failure, at shutdown.
        lose_one();
        assert_eq!(said(&|| rt.shutdown()).matches("parcel lost").count(), 1);
        // And after shutdown nothing is the runtime's charge any more.
        lose_one();
        rt.shutdown();
    }

    #[test]
    fn wait_timeout_on_unset_future() {
        let rt = RuntimeBuilder::new(Config::small(1, 1)).build().unwrap();
        let fut = rt.new_future::<u8>(LocalityId(0));
        let r = rt
            .wait_future_timeout(fut, Duration::from_millis(20))
            .unwrap();
        assert!(r.is_none());
        rt.shutdown();
    }
}
