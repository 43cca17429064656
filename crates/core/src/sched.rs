//! PX-thread scheduling: work queues, stealing, parcel execution, and
//! continuation application.
//!
//! §2.2: "A thread is ephemeral and serves a single locality … Threads can
//! suspend or terminate when a remote access is required. If suspending, a
//! local control object is created from its state. If terminating, a
//! parcel is constructed and dispatched to the destination remote data
//! where a new thread is invoked thus moving the work, in essence, to the
//! data." and "Message-driven computing through parcels allows physical
//! resources (execution locality) to operate via a work queue model."
//!
//! A [`Task`] is one PX-thread activation: a fresh closure, a resumed
//! depleted thread, or a parcel (decoded lazily on a worker). Workers pull
//! from, in priority order: the control lane (when balancing is on), the
//! staging buffer (on percolation-priority localities), their own ring,
//! the locality injector, sibling rings
//! (work stealing — *within* the locality only; cross-locality balancing is
//! done with parcels, which is the model's point), and finally the staging
//! buffer.

use crate::action::{ActionId, Value};
use crate::error::{Fault, FaultCause, PxError};
use crate::gid::{Gid, LocalityId};
use crate::lco::{DepletedThread, LcoCore, Waiter};
use crate::locality::Locality;
use crate::parcel::{ContStep, Continuation, Parcel};
use crate::queue::{Idle, Local};
use crate::runtime::{Ctx, RuntimeInner};
use crate::stats::bump;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// System action identifiers. These dispatch inside the scheduler (no
/// registry lookup) and use raw payload framing; user actions must not
/// reuse these names.
pub mod sys {
    use crate::action::ActionId;

    /// The one definition of the system actions. Each row — const,
    /// `"__sys/…"` name, wire lane — expands to the `ActionId` const, an
    /// entry of [`ALL`] and (for `control` rows) a term of
    /// [`is_control`].
    macro_rules! sys_actions {
        (@control control) => { true };
        (@control data) => { false };
        ($($(#[$doc:meta])* $name:ident = $string:literal, $lane:ident;)*) => {
            $($(#[$doc])* pub const $name: ActionId = ActionId::of($string);)*

            /// Every system action id.
            pub const ALL: [ActionId; [$($string),*].len()] = [$($name),*];

            /// Whether `a` rides the control priority lane (see the
            /// transport contract in `net/mod.rs`): balancer gossip,
            /// metrics pulls, and the small directory ops.
            /// [`DIR_INSTALL`] is a `data` row — it carries object bytes
            /// and belongs under data-lane backpressure.
            pub fn is_control(a: ActionId) -> bool {
                $((sys_actions!(@control $lane) && a == $name))||*
            }
        };
    }

    sys_actions! {
        /// Trigger an LCO with the payload value.
        LCO_SET = "__sys/lco_set", data;
        /// Fill a dataflow slot: payload = `u32` index ++ value bytes.
        LCO_SET_SLOT = "__sys/lco_set_slot", data;
        /// Contribute the payload to a reduction LCO.
        LCO_CONTRIBUTE = "__sys/lco_contribute", data;
        /// Register the parcel's continuation as a waiter for the LCO value.
        LCO_GET = "__sys/lco_get", data;
        /// Semaphore acquire; continuation runs when a permit is granted.
        LCO_ACQUIRE = "__sys/lco_acquire", data;
        /// Semaphore release.
        LCO_RELEASE = "__sys/lco_release", data;
        /// Read a data object; continuation receives `Vec<u8>`.
        DATA_GET = "__sys/data_get", data;
        /// Overwrite a data object; payload = encoded `Vec<u8>`.
        DATA_PUT = "__sys/data_put", data;
        /// Reply the payload to the continuation (round-trip measurements).
        PING = "__sys/ping", data;
        /// Do nothing (parcel-overhead measurements).
        NOOP = "__sys/noop", data;
        /// Echo-tree update (see [`crate::echo`]).
        ECHO_UPDATE = "__sys/echo_update", data;
        /// Echo-tree downward propagation.
        ECHO_PROP = "__sys/echo_prop", data;
        /// Echo split-phase validation request.
        ECHO_VALIDATE = "__sys/echo_validate", data;
        /// Balancer gossip: payload = encoded peer-load view (see
        /// [`px_balance::PeerView::encode_gossip`]); merged into the
        /// destination locality's view. Control lane: it must outrun
        /// the backlog it reports.
        BALANCE_GOSSIP = "__sys/balance_gossip", control;
        /// Metrics pull: reply the locality's encoded
        /// [`crate::metrics::MetricsSnapshot`] to the continuation. Rides the
        /// control priority lane (like gossip) so a saturated rank still
        /// answers `Runtime::cluster_metrics` promptly.
        METRICS_PULL = "__sys/metrics_pull", control;
        /// Migrate the target data object: payload = `u16` destination
        /// locality ++ `u8` cause code (0 manual, 1 balancer). Addressed at
        /// the *object* (not a locality root) so the ordinary chase delivers
        /// it to the current resident rank; continuation receives unit on
        /// completion.
        AGAS_MIGRATE = "__sys/agas_migrate", data;
        /// Install a migrating object's bytes at the destination rank:
        /// payload = `u64` gid ++ `u64` version ++ length-prefixed bytes.
        /// Carries object payload, so it rides the *data* lane.
        DIR_INSTALL = "__sys/dir_install", data;
        /// Flip a GID's authoritative home-directory entry: payload =
        /// `u64` gid ++ `u16` owner ++ `u8` cause code. Control lane.
        DIR_UPDATE = "__sys/dir_update", control;
        /// Ask a GID's home rank for its authoritative owner: payload =
        /// `u64` gid; continuation receives the owner as 2 LE bytes.
        /// Control lane — lookups must outrun data-lane backpressure.
        DIR_LOOKUP = "__sys/dir_lookup", control;
        /// Advisory cache-repair hint for a rank that sent through a stale
        /// resolution: payload = `u64` gid ++ `u16` owner. Fire-and-forget,
        /// control lane.
        DIR_REPAIR = "__sys/dir_repair", control;
        /// Migration epilogue at the destination rank: payload = `u64` gid ++
        /// `u8` keep ++ `u16` owner. `keep = 1` (the source finished its
        /// remove) releases the install-time pin and drains parcels parked
        /// under it; `keep = 0` (the protocol failed mid-flight) additionally
        /// discards the provisionally installed copy and repoints the local
        /// directory at `owner` — the source, which never removed its copy.
        DIR_COMMIT = "__sys/dir_commit", control;
        /// Resolve a symbolic name in the receiving rank's table: payload =
        /// the UTF-8 name bytes; continuation receives the bound gid as
        /// 8 LE bytes, or a `HandlerError` fault when unbound. Routed to a
        /// process's home rank by [`crate::runtime::Runtime::lookup_name`],
        /// making `/proc/...` names cluster-visible. Control lane.
        NAME_LOOKUP = "__sys/name_lookup", control;
    }
}

/// Maximum forward hops before a parcel is declared dead (covers races
/// between migration and in-flight parcels; real losses are user bugs).
const MAX_HOPS: u8 = 16;

pub(crate) enum Work {
    /// Fresh PX-thread.
    Thread(Box<dyn FnOnce(&mut Ctx<'_>) + Send + 'static>),
    /// Resumption of a depleted thread with the LCO's value.
    Resume(DepletedThread, Value),
    /// Decoded parcel.
    Parcel(Parcel),
    /// Parcel as delivered by the wire; decoded on the worker.
    ParcelBytes(Vec<u8>),
    /// Multi-parcel frame from a coalescing port: one injector push per
    /// frame, each record decoded lazily as it executes.
    ParcelFrame(Vec<u8>),
}

/// A schedulable unit: one PX-thread activation.
pub struct Task {
    pub(crate) work: Work,
    /// Parallel process this activation is accounted to.
    pub(crate) process: Option<Gid>,
    /// Trace id this activation runs under (inherited by everything it
    /// sends or spawns; parcels carry their own id inside the bytes).
    pub(crate) trace: Option<u64>,
    /// Queue-entry stamp for the queue-wait instruments; set by the
    /// locality push hooks only when metrics are on (`None` otherwise —
    /// the stamp never crosses an OS-process boundary).
    pub(crate) enqueued: Option<Instant>,
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.work {
            Work::Thread(_) => "Thread",
            Work::Resume(..) => "Resume",
            Work::Parcel(_) => "Parcel",
            Work::ParcelBytes(_) => "ParcelBytes",
            Work::ParcelFrame(_) => "ParcelFrame",
        };
        write!(f, "Task::{kind}")
    }
}

impl Task {
    /// Fresh PX-thread from a closure.
    pub(crate) fn thread(f: impl FnOnce(&mut Ctx<'_>) + Send + 'static) -> Task {
        Task {
            work: Work::Thread(Box::new(f)),
            process: None,
            trace: None,
            enqueued: None,
        }
    }

    /// Depleted-thread resumption.
    pub(crate) fn resume(f: DepletedThread, v: Value) -> Task {
        Task {
            work: Work::Resume(f, v),
            process: None,
            trace: None,
            enqueued: None,
        }
    }

    /// Encoded parcel (from the wire).
    pub(crate) fn parcel_bytes(bytes: Vec<u8>) -> Task {
        Task {
            work: Work::ParcelBytes(bytes),
            process: None,
            trace: None,
            enqueued: None,
        }
    }

    /// Encoded multi-parcel frame (from a coalescing port).
    pub(crate) fn parcel_frame(bytes: Vec<u8>) -> Task {
        Task {
            work: Work::ParcelFrame(bytes),
            process: None,
            trace: None,
            enqueued: None,
        }
    }

    /// Number of parcel records this task carries (tests and diagnostics).
    #[cfg(test)]
    pub(crate) fn parcel_records(&self) -> usize {
        match &self.work {
            Work::Parcel(_) | Work::ParcelBytes(_) => 1,
            Work::ParcelFrame(bytes) => px_wire::FrameView::parse(bytes)
                .map(|v| v.record_count() as usize)
                .unwrap_or(0),
            _ => 0,
        }
    }

    /// Raw frame bytes carried by this task, if it is a frame (tests).
    #[cfg(test)]
    pub(crate) fn frame_bytes(&self) -> Option<&[u8]> {
        match &self.work {
            Work::ParcelFrame(bytes) => Some(bytes),
            _ => None,
        }
    }

    /// Decoded parcel (local short-circuit).
    pub(crate) fn parcel(p: Parcel) -> Task {
        Task {
            work: Work::Parcel(p),
            process: None,
            trace: None,
            enqueued: None,
        }
    }

    /// Attach process accounting.
    pub(crate) fn with_process(mut self, p: Option<Gid>) -> Task {
        self.process = p;
        self
    }

    /// Attach a trace id (inherited like the process tag).
    pub(crate) fn with_trace(mut self, t: Option<u64>) -> Task {
        self.trace = t;
        self
    }
}

/// Worker thread body. One per `(locality, worker index)`.
pub(crate) fn worker_main(
    rt: Arc<RuntimeInner>,
    loc_idx: usize,
    worker_idx: usize,
    local: Local<Task>,
) {
    let loc = rt.localities[loc_idx].clone();
    let mut search_started = Instant::now();
    // Set when this worker went idle: the next task it finds ends a
    // search, and the searcher passes the search on (below).
    let mut was_idle = false;
    loop {
        match find_task(&loc, &local, worker_idx) {
            Some(task) => {
                // Producers skip the wake while a worker spins, trusting
                // it to find their task. It found one; if that was not
                // all, the rest needs another pair of hands.
                if std::mem::take(&mut was_idle) && loc.has_work() {
                    loc.sleep.notify_one();
                }
                let found = Instant::now();
                bump!(
                    loc.counters.idle_ns,
                    found.duration_since(search_started).as_nanos() as u64
                );
                execute(&rt, &loc, &local, task);
                let done = Instant::now();
                bump!(
                    loc.counters.busy_ns,
                    done.duration_since(found).as_nanos() as u64
                );
                search_started = done;
            }
            None => {
                // SeqCst: the re-check inside `idle` must see a shutdown
                // flag stored before `Runtime::shutdown` notified.
                let stop = || rt.shutdown.load(Ordering::SeqCst);
                if stop() {
                    return;
                }
                was_idle = true;
                let parked = loc.sleep.idle(
                    worker_idx,
                    || loc.has_work() || stop(),
                    || {
                        bump!(loc.counters.parks);
                        // The search ends here. The park is timed by
                        // `sleep`, whose clock can be read while this
                        // worker is still parked (a starved worker never
                        // wakes to report it).
                        bump!(
                            loc.counters.idle_ns,
                            search_started.elapsed().as_nanos() as u64
                        );
                    },
                );
                if parked == Idle::Parked {
                    search_started = Instant::now();
                }
            }
        }
    }
}

/// Pull the next task according to the locality's queue discipline.
fn find_task(loc: &Locality, local: &Local<Task>, worker_idx: usize) -> Option<Task> {
    use crate::metrics::Instrument::{ControlLane, QueueWait};
    // Control plane first: balancer gossip must not starve behind the
    // data backlog it exists to measure. The queue exists only when
    // balancing is on, so the default discipline is untouched.
    if let Some(t) = loc.balance.as_ref().and_then(|b| b.control.steal()) {
        return Some(dequeued(loc, ControlLane, t));
    }
    // Precious-resource localities drain prestaged work first (§2.2
    // percolation: the staged queue is what keeps the expensive unit busy).
    if loc.staged_priority {
        if let Some(t) = loc.staging.steal() {
            return Some(dequeued(loc, QueueWait, t));
        }
    }
    if let Some(t) = local.pop() {
        return Some(dequeued(loc, QueueWait, t));
    }
    // Injector: batch-steal amortizes queue contention.
    if let Some(t) = loc.injector.steal_batch_and_pop(local) {
        return Some(dequeued(loc, QueueWait, t));
    }
    // Steal from siblings within the locality, starting after our own
    // index so victims rotate.
    let n = loc.stealers.len();
    for k in 1..n {
        if let Some(t) = loc.stealers[(worker_idx + k) % n].steal() {
            bump!(loc.counters.steals);
            return Some(dequeued(loc, QueueWait, t));
        }
    }
    // Staging last for ordinary localities.
    if !loc.staged_priority {
        if let Some(t) = loc.staging.steal() {
            return Some(dequeued(loc, QueueWait, t));
        }
    }
    None
}

/// Record a task's queue-wait sample at its dequeue site. The instrument
/// names the queue it actually waited in: the control lane gets its own
/// histogram, everything else is general queue wait. One `Option` check
/// when metrics are off (the stamp is `None` then, too).
#[inline]
fn dequeued(loc: &Locality, inst: crate::metrics::Instrument, mut t: Task) -> Task {
    loc.metric_elapsed(inst, t.enqueued.take());
    t
}

/// Execute one task on the current worker.
pub(crate) fn execute(
    rt: &Arc<RuntimeInner>,
    loc: &Arc<Locality>,
    local: &Local<Task>,
    task: Task,
) {
    let process = task.process;
    let trace = task.trace;
    // Cancellation gate (one branch when no process is attached): queued
    // closure tasks of a cancelled process are dropped loudly here — the
    // accounting decrement still runs, draining the process's activity
    // counter. Only `Work::Thread` is gated: parcels fall through so
    // `run_parcel` can deliver the fault to their continuations, and
    // resumes always run because they ARE the fault-delivery path (a
    // poisoned LCO resumes its depleted waiters with the fault, and the
    // process accounting lives inside that closure — `Task::resume`
    // never carries a process tag).
    if let Some(pgid) = process {
        if matches!(task.work, Work::Thread(_)) {
            if let Some(fault) = rt.process_cancel_fault(pgid) {
                bump!(loc.counters.tasks_cancelled);
                rt.notify_dead_letter(&fault, None);
                rt.process_task_done(pgid);
                return;
            }
        }
    }
    match task.work {
        Work::Thread(f) => {
            let mut ctx = Ctx::new(rt, loc, local, process, trace);
            // A closure thread has no continuation to notify; the panic
            // counter and dead-letter hook are its only observers.
            if let Err(msg) = run_guarded(loc, || f(&mut ctx)) {
                report_thread_panic(rt, loc, msg);
            }
            bump!(loc.counters.threads_executed);
        }
        Work::Resume(f, v) => {
            let mut ctx = Ctx::new(rt, loc, local, process, trace);
            if let Err(msg) = run_guarded(loc, || f(&mut ctx, v)) {
                report_thread_panic(rt, loc, msg);
            }
            bump!(loc.counters.resumes);
            bump!(loc.counters.threads_executed);
        }
        Work::ParcelBytes(bytes) => run_wire_parcel(rt, loc, local, &bytes),
        Work::ParcelFrame(bytes) => {
            bump!(loc.counters.frames_recv);
            match px_wire::FrameView::parse(&bytes) {
                Ok(view) => {
                    let mut seen = 0u32;
                    for record in view.records() {
                        seen += 1;
                        match record {
                            Ok(rec) => run_wire_parcel(rt, loc, local, rec),
                            Err(e) => {
                                loc.counters.count_death(FaultCause::Decode, 1);
                                let fault = Fault::new(
                                    FaultCause::Decode,
                                    ActionId(0),
                                    Gid::locality_root(loc.id),
                                    format!("corrupt frame record: {e}"),
                                );
                                rt.notify_dead_letter(&fault, None);
                            }
                        }
                    }
                    // A corrupt length prefix ends iteration early; the
                    // records it hid are lost with it — account every one
                    // (their process tags and continuations are unreadable,
                    // like any corrupt parcel's, so neither quiescence nor
                    // fault delivery can be repaired for them). The hook
                    // is notified once per lost record so its fault count
                    // stays a superset of `dead_parcels`.
                    let lost = view.record_count().saturating_sub(seen);
                    if lost > 0 {
                        loc.counters
                            .count_death(FaultCause::Decode, u64::from(lost));
                        let fault = Fault::new(
                            FaultCause::Decode,
                            ActionId(0),
                            Gid::locality_root(loc.id),
                            format!("record hidden behind a corrupt frame prefix ({lost} lost)"),
                        );
                        for _ in 0..lost {
                            rt.notify_dead_letter(&fault, None);
                        }
                    }
                }
                Err(e) => {
                    loc.counters.count_death(FaultCause::Decode, 1);
                    let fault = Fault::new(
                        FaultCause::Decode,
                        ActionId(0),
                        Gid::locality_root(loc.id),
                        format!("corrupt frame: {e}"),
                    );
                    rt.notify_dead_letter(&fault, None);
                }
            }
        }
        Work::Parcel(p) => run_parcel(rt, loc, local, p),
    }
    if let Some(pgid) = process {
        rt.process_task_done(pgid);
    }
}

/// Decode and run one wire-delivered parcel record. Wire deliveries carry
/// the process tag inside the parcel (`Task::process` is `None`); the
/// completion is accounted here.
fn run_wire_parcel(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, local: &Local<Task>, bytes: &[u8]) {
    match Parcel::decode(bytes) {
        Ok(p) => {
            let proc_gid = p.process;
            run_parcel(rt, loc, local, p);
            // Mirror of the send-side gate in `route_parcel`: in a
            // distributed runtime every wire delivery crossed an
            // OS-process boundary, so no token was taken in *this*
            // process for it — decrementing would drain someone else's
            // counter to a premature quiescence.
            if let Some(pg) = proc_gid {
                if !rt.distributed() {
                    rt.process_task_done(pg);
                }
            }
        }
        Err(e) => {
            // An undecodable parcel cannot name its continuation, so the
            // fault cannot be delivered — count it and tell the hook.
            loc.counters.count_death(FaultCause::Decode, 1);
            let fault = Fault::new(
                FaultCause::Decode,
                ActionId(0),
                Gid::locality_root(loc.id),
                format!("undecodable parcel: {e}"),
            );
            rt.notify_dead_letter(&fault, None);
        }
    }
}

/// Panic isolation: a panicking PX-thread kills neither the worker nor the
/// runtime; it is counted and the thread's effects up to the panic stand.
/// The panic message is returned so parcel dispatch can convert it into a
/// fault for the parcel's continuation instead of a bare counter bump.
fn run_guarded<T>(loc: &Locality, f: impl FnOnce() -> T) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => {
            bump!(loc.counters.panics);
            let msg = if let Some(s) = payload.downcast_ref::<&'static str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "PX-thread panicked".to_string()
            };
            Err(msg)
        }
    }
}

/// Report a panicked closure thread (no parcel, no continuation) to the
/// dead-letter hook; the `panics` counter was bumped by `run_guarded`.
fn report_thread_panic(rt: &Arc<RuntimeInner>, loc: &Locality, msg: String) {
    let fault = Fault::new(
        FaultCause::Panic,
        ActionId(0),
        Gid::locality_root(loc.id),
        msg,
    );
    rt.notify_dead_letter(&fault, None);
}

/// Map a runtime error to the fault cause recorded in the by-cause stats.
fn cause_of(e: &PxError) -> FaultCause {
    match e {
        PxError::UnknownAction(_) => FaultCause::UnknownAction,
        PxError::Wire(_) => FaultCause::Decode,
        // A healthy parcel rejected by an already-poisoned LCO dies of
        // the *rejection* (a handler error), not of whatever killed the
        // LCO's producer — inheriting that cause would double-count it
        // in the by-cause stats. The original fault stays readable in
        // the error message.
        PxError::Fault(_) => FaultCause::HandlerError,
        _ => FaultCause::HandlerError,
    }
}

/// Kill a parcel *loudly*: count the death (total and by cause), tell the
/// dead-letter hook, and — the point of the whole exercise — deliver the
/// fault to the parcel's continuation so every downstream waiter (future,
/// LCO, external `wait()`) resolves with an error instead of hanging.
pub(crate) fn kill_parcel(
    rt: &Arc<RuntimeInner>,
    loc: &Arc<Locality>,
    p: Parcel,
    cause: FaultCause,
    message: String,
) {
    let fault = Fault::new(cause, p.action, p.dest, message);
    loc.counters.count_death(cause, 1);
    // Record the death before notifying, so a traced dead-letter hook's
    // captured slice includes this very event.
    loc.trace_event(
        p.trace,
        crate::trace::TraceEventKind::ParcelKill,
        p.dest.0,
        u64::from(cause.code()),
    );
    rt.notify_dead_letter(&fault, p.trace);
    // Unconditional handoff: an empty continuation applies as a no-op,
    // and every other one resolves its waiters with the fault.
    apply_continuation(rt, loc, p.cont, Value::error(&fault), p.trace);
}

/// Execute a parcel: ownership check (with forwarding), then system or
/// registry dispatch, then continuation application.
fn run_parcel(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, local: &Local<Task>, p: Parcel) {
    bump!(loc.counters.parcels_recv);
    loc.trace_event(
        p.trace,
        crate::trace::TraceEventKind::ParcelDispatch,
        p.dest.0,
        p.action.0,
    );
    if p.staged {
        bump!(loc.counters.staged_executed);
    }

    // Cancellation gate, kept to one branch when no process is attached:
    // an in-flight parcel accounted to a cancelled process is killed
    // loudly at dispatch — counted by cause, reported to the dead-letter
    // hook, and its fault delivered to the continuation.
    if let Some(pgid) = p.process {
        if rt.process_cancel_fault(pgid).is_some() {
            let msg = format!("owning process {pgid} cancelled");
            kill_parcel(rt, loc, p, FaultCause::Cancelled, msg);
            return;
        }
    }

    // Ownership check for object-addressed parcels. Hardware names (the
    // locality root, the staging buffer) are always "here" by construction:
    // the sender routed on the GID's locality field.
    if !p.dest.is_hardware() && !loc.contains(p.dest) {
        let owner = rt.agas.authoritative_owner(p.dest);
        if owner != loc.id {
            // Stale resolution at the sender: forward the parcel (chase)
            // and repair the sender's cache so the next one routes right.
            if p.hops >= MAX_HOPS {
                bump!(loc.counters.chase_cap_violations);
                let msg = format!("chase exhausted after {MAX_HOPS} hops (object at {owner})");
                kill_parcel(rt, loc, p, FaultCause::HopCap, msg);
                return;
            }
            bump!(loc.counters.parcels_forwarded);
            if rt.owns(p.src) {
                rt.agas.repair_cache(p.src, p.dest, owner);
            } else {
                // The sender lives in another OS process: its cache is not
                // writable from here, so ship the hint as a control-lane
                // parcel instead.
                send_dir_repair(rt, loc, p.src, p.dest, owner);
            }
            if !rt.owns(owner) {
                bump!(loc.counters.dir_forwards);
            }
            let mut fwd = p;
            fwd.hops += 1;
            loc.trace_event(
                fwd.trace,
                crate::trace::TraceEventKind::ParcelForward,
                fwd.dest.0,
                u64::from(fwd.hops),
            );
            rt.route_parcel(loc.id, owner, fwd);
            return;
        }
        // We are the authoritative owner but the object is absent: either
        // it is mid-migration (retry; the wire acts as backoff) or it was
        // freed (bounded by MAX_HOPS, then dead).
        retry_after_migration(rt, loc, p);
        return;
    }
    // Chase accounting: this parcel is home; record how far it wandered.
    if p.hops > 0 {
        bump!(loc.counters.chased_parcels);
        bump!(loc.counters.chase_hops_total, u64::from(p.hops));
    }

    // A fault payload short-circuits execution: the fault an upstream
    // death produced flows straight through Call-chained actions to this
    // parcel's continuation instead of being fed to a handler as
    // (garbage) arguments. The LCO event actions are the exception —
    // *delivering* the fault to them is how an LCO gets poisoned.
    let a = p.action;
    if p.payload.is_fault() && a != sys::LCO_SET && a != sys::LCO_CONTRIBUTE {
        apply_continuation(rt, loc, p.cont, p.payload, p.trace);
        return;
    }

    // System actions first: they bypass the registry and use raw payload
    // framing. The stamp is recorded only when a sys arm consumed the
    // parcel; user actions fall through to their own instrument.
    let sys_start = loc.metrics_now();
    let p = match try_run_sys(rt, loc, p) {
        None => {
            loc.metric_elapsed(crate::metrics::Instrument::ExecuteSys, sys_start);
            return;
        }
        Some(p) => p,
    };

    // User action via the registry.
    match rt.registry.get(a) {
        Ok(handler) => {
            let mut ctx = Ctx::new(rt, loc, local, p.process, p.trace);
            let handler = handler.clone();
            let exec_start = loc.metrics_now();
            let result = run_guarded(loc, || handler(&mut ctx, p.dest, p.payload.bytes()));
            loc.metric_elapsed(crate::metrics::Instrument::ExecuteUser, exec_start);
            bump!(loc.counters.threads_executed);
            match result {
                Ok(Ok(v)) => apply_continuation(rt, loc, p.cont, v, p.trace),
                Ok(Err(e)) => {
                    let cause = cause_of(&e);
                    kill_parcel(rt, loc, p, cause, e.to_string());
                }
                Err(panic_msg) => kill_parcel(rt, loc, p, FaultCause::Panic, panic_msg),
            }
        }
        Err(PxError::UnknownAction(id)) => {
            let msg = format!("no handler registered for {id:?}");
            kill_parcel(rt, loc, p, FaultCause::UnknownAction, msg);
        }
        Err(_) => unreachable!("registry returns only UnknownAction"),
    }
}

/// Dispatch a system action (`__sys/*`), which bypasses the registry and
/// uses raw payload framing. Returns `None` when the parcel was consumed
/// here; gives the parcel back for registry dispatch otherwise.
fn try_run_sys(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) -> Option<Parcel> {
    let a = p.action;
    if a == sys::NOOP {
        // px-analyze: allow(no-silent-loss): a NOOP parcel carries no payload or continuation — being dropped after dispatch accounting is its entire contract.
        return None;
    } else if a == sys::PING {
        apply_continuation(rt, loc, p.cont, p.payload, p.trace);
        return None;
    } else if a == sys::LCO_SET {
        // The ack must be honest: a rejected trigger (double-trigger of a
        // single-assignment LCO, wrong kind, missing object) sends the
        // error back instead of a unit "success".
        match lco_sys_op(rt, loc, p.dest, p.trace, |l| l.trigger(p.payload.clone())) {
            Ok(()) => {
                record_lco_event(loc, p.trace, p.dest, &p.payload);
                apply_continuation(rt, loc, p.cont, Value::unit(), p.trace)
            }
            Err(e) => kill_parcel(rt, loc, p, cause_of(&e), e.to_string()),
        }
        return None;
    } else if a == sys::LCO_SET_SLOT {
        let bytes = p.payload.bytes();
        if bytes.len() >= 4 {
            let idx = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
            let v = Value::from_bytes(bytes[4..].to_vec());
            match lco_sys_op(rt, loc, p.dest, p.trace, |l| l.trigger_slot(idx, v.clone())) {
                Ok(()) => {
                    record_lco_event(loc, p.trace, p.dest, &p.payload);
                    apply_continuation(rt, loc, p.cont, Value::unit(), p.trace)
                }
                Err(e) => kill_parcel(rt, loc, p, cause_of(&e), e.to_string()),
            }
        } else {
            kill_parcel(
                rt,
                loc,
                p,
                FaultCause::Decode,
                "LCO_SET_SLOT payload shorter than the slot index".into(),
            );
        }
        return None;
    } else if a == sys::LCO_CONTRIBUTE {
        match lco_sys_op(rt, loc, p.dest, p.trace, |l| {
            l.contribute(p.payload.clone())
        }) {
            Ok(()) => record_lco_event(loc, p.trace, p.dest, &p.payload),
            Err(e) => kill_parcel(rt, loc, p, cause_of(&e), e.to_string()),
        }
        // px-analyze: allow(no-silent-loss): contributions are fire-and-forget by contract — the payload was delivered to the LCO (or the parcel killed) above; there is no ack continuation to resolve.
        return None;
    } else if a == sys::LCO_GET {
        if let Err(e) = lco_sys_op(rt, loc, p.dest, p.trace, |l| {
            Ok(l.add_waiter(Waiter::Cont(p.cont.clone())))
        }) {
            kill_parcel(rt, loc, p, cause_of(&e), e.to_string());
        }
        // px-analyze: allow(no-silent-loss): on success the continuation lives on as the LCO's registered waiter — a handoff, not a loss; on error the parcel was killed above.
        return None;
    } else if a == sys::LCO_ACQUIRE {
        if let Err(e) = lco_sys_op(rt, loc, p.dest, p.trace, |l| {
            l.acquire(Waiter::Cont(p.cont.clone()))
        }) {
            kill_parcel(rt, loc, p, cause_of(&e), e.to_string());
        }
        // px-analyze: allow(no-silent-loss): on success the continuation is queued as the semaphore's waiter (released or resumed later) — a handoff; on error the parcel was killed above.
        return None;
    } else if a == sys::LCO_RELEASE {
        match lco_sys_op(rt, loc, p.dest, p.trace, |l| Ok(l.release())) {
            Ok(()) => apply_continuation(rt, loc, p.cont, Value::unit(), p.trace),
            Err(e) => kill_parcel(rt, loc, p, cause_of(&e), e.to_string()),
        }
        return None;
    } else if a == sys::DATA_GET {
        match loc.get_data(p.dest) {
            Ok(d) => {
                let bytes = d.read().bytes.clone();
                let v = Value::encode(&bytes).expect("Vec<u8> encodes");
                apply_continuation(rt, loc, p.cont, v, p.trace);
            }
            // The object left between the residency check and the store
            // access (a migration's final remove interleaved): chase it
            // rather than stranding the continuation. Wrong-kind targets
            // are a user bug and fail fast — retrying cannot fix them.
            Err(PxError::NoSuchObject(_)) => retry_after_migration(rt, loc, p),
            Err(e) => kill_parcel(rt, loc, p, cause_of(&e), e.to_string()),
        }
        return None;
    } else if a == sys::DATA_PUT {
        match p.payload.decode::<Vec<u8>>() {
            Err(e) => {
                let msg = e.to_string();
                kill_parcel(rt, loc, p, FaultCause::Decode, msg);
            }
            Ok(bytes) => match loc.get_data(p.dest) {
                Ok(d) => {
                    let mut g = d.write();
                    // Write freeze, checked under the object's write lock:
                    // a cross-rank migration pins the GID *before* reading
                    // its snapshot, and that read blocks on this lock — so
                    // an unfrozen put seen here is ordered before the
                    // snapshot, never silently after it. A frozen put is
                    // parked and re-sent toward the new owner on drain.
                    if rt.distributed() && rt.agas.migration_in_flight(p.dest) {
                        drop(g);
                        let dest = p.dest;
                        if let Some(back) = rt.agas.defer_during_migration(dest, p) {
                            // The protocol settled between the two checks:
                            // chase the object to wherever it landed.
                            retry_after_migration(rt, loc, back);
                        }
                        // px-analyze: allow(no-silent-loss): the parked parcel lives in the migration-sync map — `end_migration` drains and re-sends it; a handoff, not a loss.
                        return None;
                    }
                    g.bytes = bytes;
                    g.version += 1;
                    drop(g);
                    apply_continuation(rt, loc, p.cont, Value::unit(), p.trace);
                }
                Err(PxError::NoSuchObject(_)) => retry_after_migration(rt, loc, p),
                Err(e) => kill_parcel(rt, loc, p, cause_of(&e), e.to_string()),
            },
        }
        return None;
    } else if a == sys::ECHO_UPDATE || a == sys::ECHO_PROP || a == sys::ECHO_VALIDATE {
        crate::echo::handle_sys(rt, loc, p);
        return None;
    } else if a == sys::BALANCE_GOSSIP {
        bump!(loc.counters.gossip_parcels);
        if let Some(b) = &loc.balance {
            match px_balance::decode_gossip(p.payload.bytes()) {
                Ok(entries) => b.peers.lock().merge(&entries),
                Err(e) => {
                    let msg = format!("undecodable gossip: {e}");
                    kill_parcel(rt, loc, p, FaultCause::Decode, msg);
                }
            }
        }
        // Without balance state (possible only if a user forges the
        // action name) the parcel is dropped by design: gossip is
        // advisory, carries no continuation, and was counted above.
        // px-analyze: allow(no-silent-loss): gossip is advisory control traffic with no continuation — on the decode path it merged or was killed above; the forged-action path drops a counted parcel by design.
        return None;
    } else if a == sys::METRICS_PULL {
        // Reply this locality's histograms to the continuation. A rank
        // with metrics off answers with empty histograms rather than
        // stalling the requester's merge gate.
        let snap = match &loc.metrics {
            Some(reg) => reg.snapshot(),
            None => crate::metrics::MetricsSnapshot::default(),
        };
        let v = Value::from_bytes(snap.encode());
        apply_continuation(rt, loc, p.cont, v, p.trace);
        return None;
    } else if a == sys::AGAS_MIGRATE {
        handle_agas_migrate(rt, loc, p);
        return None;
    } else if a == sys::DIR_INSTALL {
        handle_dir_install(rt, loc, p);
        return None;
    } else if a == sys::DIR_UPDATE {
        let mut r = px_wire::WireReader::new(p.payload.bytes());
        match (r.get_u64(), r.get_u16()) {
            (Ok(raw), Ok(owner)) => {
                let gid = Gid(raw);
                let owner = LocalityId(owner);
                rt.agas.note_owner(gid, owner);
                rt.agas.repair_cache(loc.id, gid, owner);
                bump!(loc.counters.dir_repairs);
                apply_continuation(rt, loc, p.cont, Value::unit(), p.trace);
            }
            _ => kill_parcel(
                rt,
                loc,
                p,
                FaultCause::Decode,
                "undecodable dir_update payload".into(),
            ),
        }
        return None;
    } else if a == sys::DIR_LOOKUP {
        let mut r = px_wire::WireReader::new(p.payload.bytes());
        match r.get_u64() {
            Ok(raw) => {
                bump!(loc.counters.dir_lookups_local);
                let owner = rt.agas.authoritative_owner(Gid(raw));
                let v = Value::from_bytes(owner.0.to_le_bytes().to_vec());
                apply_continuation(rt, loc, p.cont, v, p.trace);
            }
            Err(_) => kill_parcel(
                rt,
                loc,
                p,
                FaultCause::Decode,
                "undecodable dir_lookup payload".into(),
            ),
        }
        return None;
    } else if a == sys::DIR_REPAIR {
        let mut r = px_wire::WireReader::new(p.payload.bytes());
        if let (Ok(raw), Ok(owner)) = (r.get_u64(), r.get_u16()) {
            rt.agas.repair_cache(loc.id, Gid(raw), LocalityId(owner));
            bump!(loc.counters.dir_repairs);
        }
        // px-analyze: allow(no-silent-loss): repair hints are advisory fire-and-forget control traffic with no continuation — a lost or garbled hint only costs the sender another bounded chase.
        return None;
    } else if a == sys::DIR_COMMIT {
        let mut r = px_wire::WireReader::new(p.payload.bytes());
        match (r.get_u64(), r.get_u8(), r.get_u16()) {
            (Ok(raw), Ok(keep), Ok(owner)) => {
                let gid = Gid(raw);
                if keep == 0 {
                    // The migration failed after our provisional install:
                    // drop the orphan copy and point back at the source,
                    // which never removed its own.
                    loc.remove(gid);
                    rt.agas.note_owner(gid, LocalityId(owner));
                    rt.agas.repair_cache(loc.id, gid, LocalityId(owner));
                }
                if rt.agas.migration_in_flight(gid) {
                    for dp in rt.agas.end_migration(gid) {
                        rt.send_parcel(loc.id, dp);
                    }
                }
                apply_continuation(rt, loc, p.cont, Value::unit(), p.trace);
            }
            _ => kill_parcel(
                rt,
                loc,
                p,
                FaultCause::Decode,
                "undecodable dir_commit payload".into(),
            ),
        }
        return None;
    } else if a == sys::NAME_LOOKUP {
        let resolved = std::str::from_utf8(p.payload.bytes())
            .map_err(|_| "non-UTF-8 name_lookup payload".to_string())
            .and_then(|name| {
                rt.agas
                    .lookup_name(name)
                    .map_err(|_| format!("name not bound at this rank: {name}"))
            });
        match resolved {
            Ok(gid) => {
                let v = Value::from_bytes(gid.0.to_le_bytes().to_vec());
                apply_continuation(rt, loc, p.cont, v, p.trace);
            }
            Err(why) => kill_parcel(rt, loc, p, FaultCause::HandlerError, why),
        }
        return None;
    }

    Some(p)
}

/// Ship a cache-repair hint to a remote rank whose stale resolution made
/// this rank forward a parcel: `__sys/dir_repair`, control lane,
/// fire-and-forget (a lost hint only costs another chase).
fn send_dir_repair(
    rt: &Arc<RuntimeInner>,
    loc: &Arc<Locality>,
    at: LocalityId,
    gid: Gid,
    owner: LocalityId,
) {
    let mut w = px_wire::WireWriter::new();
    w.put_u64(gid.0);
    w.put_u16(owner.0);
    let p = Parcel::new(
        Gid::locality_root(at),
        sys::DIR_REPAIR,
        Value::from_bytes(w.into_bytes()),
        Continuation::none(),
    );
    rt.send_parcel(loc.id, p);
}

/// Create a future LCO at `loc` and register a depleted-thread waiter:
/// `f` runs on a worker with the LCO's value once it fires (or with the
/// fault once it is poisoned — transport kills poison the LCO through the
/// dead parcel's continuation). This is the split-phase backbone of the
/// directory protocols: no worker thread ever blocks on a remote ack.
fn when_lco_ready(
    rt: &Arc<RuntimeInner>,
    loc: &Arc<Locality>,
    f: impl FnOnce(&mut Ctx<'_>, Value) + Send + 'static,
) -> Gid {
    let fut = loc.new_future_lco();
    let lco = loc.get_lco(fut).expect("future LCO just created");
    let acts = lco.lock().add_waiter(Waiter::Depleted(Box::new(f)));
    rt.schedule_activations(loc, acts, None);
    fut
}

/// `__sys/agas_migrate` at the object's current resident rank. Same-rank
/// destinations reduce to the in-process move; cross-rank destinations run
/// the split-phase protocol: pin the GID (write freeze) → snapshot bytes →
/// `DIR_INSTALL` at dest → `DIR_UPDATE` at the home rank → remove the
/// source copy → unpin and drain parked writes. No lock is held across any
/// RTT; each ack resumes as a depleted thread.
fn handle_agas_migrate(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    let mut r = px_wire::WireReader::new(p.payload.bytes());
    let (to, cause) = match (r.get_u16(), r.get_u8()) {
        (Ok(t), Ok(c)) => (
            LocalityId(t),
            if c == 1 {
                crate::agas::MigrationCause::Balancer
            } else {
                crate::agas::MigrationCause::Manual
            },
        ),
        _ => {
            kill_parcel(
                rt,
                loc,
                p,
                FaultCause::Decode,
                "undecodable agas_migrate payload".into(),
            );
            return;
        }
    };
    if to.0 as usize >= rt.localities.len() {
        let msg = format!("migrate destination {to} out of range");
        kill_parcel(rt, loc, p, FaultCause::HandlerError, msg);
        return;
    }
    let gid = p.dest;
    if to == loc.id {
        // Already here: the move is a no-op, ack immediately.
        apply_continuation(rt, loc, p.cont, Value::unit(), p.trace);
        return;
    }
    if rt.owns(to) {
        // Destination shares this OS process: the serialized in-process
        // move suffices (no RTT, so holding `migrate_lock` is fine).
        match crate::balance::migrate_object(rt, gid, loc.id, to, cause) {
            Ok(()) => apply_continuation(rt, loc, p.cont, Value::unit(), p.trace),
            Err(PxError::NoSuchObject(_)) => retry_after_migration(rt, loc, p),
            Err(e) => kill_parcel(rt, loc, p, cause_of(&e), e.to_string()),
        }
        return;
    }
    if !rt.agas.begin_migration(gid) {
        // Another migration of this object is mid-protocol: park the
        // request; the drain re-sends it once the store settles (it then
        // chases to wherever the object landed).
        if let Some(back) = rt.agas.defer_during_migration(gid, p) {
            // The race resolved before we could park: just retry.
            retry_after_migration(rt, loc, back);
        }
        return;
    }
    // Snapshot under the pin: parked DATA_PUTs can no longer change the
    // bytes, so the installed copy is the authoritative image.
    let (bytes, version) = match loc.get_data(gid) {
        Ok(d) => {
            let g = d.read();
            (g.bytes.clone(), g.version)
        }
        Err(PxError::NoSuchObject(_)) => {
            for dp in rt.agas.end_migration(gid) {
                rt.send_parcel(loc.id, dp);
            }
            retry_after_migration(rt, loc, p);
            return;
        }
        Err(e) => {
            for dp in rt.agas.end_migration(gid) {
                rt.send_parcel(loc.id, dp);
            }
            kill_parcel(rt, loc, p, cause_of(&e), e.to_string());
            return;
        }
    };
    let Parcel { cont, trace, .. } = p;
    let install_ack = when_lco_ready(rt, loc, move |ctx, v| {
        let rt = ctx.rt_inner().clone();
        let loc = ctx.locality().clone();
        if v.is_fault() {
            fail_cross_rank_migration(&rt, &loc, gid, to, cont, v, trace);
            return;
        }
        // The destination holds the object; flip the authoritative
        // home-directory entry before removing the source copy (the PR 2
        // no-window ordering: at every instant at least one rank serves
        // the GID).
        let home = gid.birthplace();
        if rt.owns(home) {
            finalize_cross_rank_migration(&rt, &loc, gid, to, cause, cont, trace);
            return;
        }
        let update_ack = when_lco_ready(&rt, &loc, move |ctx, v| {
            let rt = ctx.rt_inner().clone();
            let loc = ctx.locality().clone();
            if v.is_fault() {
                fail_cross_rank_migration(&rt, &loc, gid, to, cont, v, trace);
            } else {
                finalize_cross_rank_migration(&rt, &loc, gid, to, cause, cont, trace);
            }
        });
        let mut w = px_wire::WireWriter::new();
        w.put_u64(gid.0);
        w.put_u16(to.0);
        w.put_u8(u8::from(cause == crate::agas::MigrationCause::Balancer));
        let mut up = Parcel::new(
            Gid::locality_root(home),
            sys::DIR_UPDATE,
            Value::from_bytes(w.into_bytes()),
            Continuation::set(update_ack),
        );
        up.trace = trace;
        rt.send_parcel(loc.id, up);
    });
    let mut w = px_wire::WireWriter::new();
    w.put_u64(gid.0);
    w.put_u64(version);
    w.put_len_bytes(&bytes);
    let mut install = Parcel::new(
        Gid::locality_root(to),
        sys::DIR_INSTALL,
        Value::from_bytes(w.into_bytes()),
        Continuation::set(install_ack),
    );
    install.trace = trace;
    rt.send_parcel(loc.id, install);
}

/// A cross-rank migration step died (transport fault to the destination
/// or the home rank): unpin the GID, release parked writes, tell the
/// destination to discard any provisionally installed copy, and deliver
/// the fault to the original `migrate` continuation. The parked writes
/// re-resolve against the unchanged directory — the source copy was never
/// removed, so the object stays served.
fn fail_cross_rank_migration(
    rt: &Arc<RuntimeInner>,
    loc: &Arc<Locality>,
    gid: Gid,
    to: LocalityId,
    cont: Continuation,
    fault: Value,
    trace: Option<u64>,
) {
    for dp in rt.agas.end_migration(gid) {
        rt.send_parcel(loc.id, dp);
    }
    // Usually the destination is the dead peer and this dead-letters
    // quietly; when the *home* rank died instead, the discard unpins the
    // destination and removes its orphan copy.
    send_dir_commit(rt, loc, gid, to, 0, loc.id);
    apply_continuation(rt, loc, cont, fault, trace);
}

/// Fire the migration epilogue at the destination rank (see
/// [`sys::DIR_COMMIT`]). `keep = 1` releases the install-time pin;
/// `keep = 0` also discards the installed copy and repoints the
/// destination's directory at `owner`.
fn send_dir_commit(
    rt: &Arc<RuntimeInner>,
    loc: &Arc<Locality>,
    gid: Gid,
    to: LocalityId,
    keep: u8,
    owner: LocalityId,
) {
    let mut w = px_wire::WireWriter::new();
    w.put_u64(gid.0);
    w.put_u8(keep);
    w.put_u16(owner.0);
    let c = Parcel::new(
        Gid::locality_root(to),
        sys::DIR_COMMIT,
        Value::from_bytes(w.into_bytes()),
        Continuation::none(),
    );
    rt.send_parcel(loc.id, c);
}

/// Both remote acks landed: retire the source copy, repair the local
/// cache, unpin, release parked writes (they chase to the new owner), and
/// ack the migration.
fn finalize_cross_rank_migration(
    rt: &Arc<RuntimeInner>,
    loc: &Arc<Locality>,
    gid: Gid,
    to: LocalityId,
    cause: crate::agas::MigrationCause,
    cont: Continuation,
    trace: Option<u64>,
) {
    // Counted at the initiating rank only; the destination and home
    // ranks wrote their directories via `note_owner` (no tallies).
    rt.agas.record_migration_caused(gid, to, cause);
    loc.remove(gid);
    rt.agas.repair_cache(loc.id, gid, to);
    for dp in rt.agas.end_migration(gid) {
        rt.send_parcel(loc.id, dp);
    }
    // The source copy is gone: release the destination's install-time
    // pin so it drains parked writes and migration requests.
    send_dir_commit(rt, loc, gid, to, 1, to);
    loc.trace_event(
        trace,
        crate::trace::TraceEventKind::Migrate,
        gid.0,
        u64::from(to.0),
    );
    apply_continuation(rt, loc, cont, Value::unit(), trace);
}

/// `__sys/dir_install` at a migration's destination rank: decode the
/// object image, adopt it into the local store, and point the local
/// directory shard at ourselves before acking (a parcel arriving between
/// the ack and the home update must already find the object here).
fn handle_dir_install(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    let mut r = px_wire::WireReader::new(p.payload.bytes());
    let decoded = match (r.get_u64(), r.get_u64(), r.get_len_bytes()) {
        (Ok(raw), Ok(version), Ok(bytes)) => (Gid(raw), version, bytes.to_vec()),
        _ => {
            kill_parcel(
                rt,
                loc,
                p,
                FaultCause::Decode,
                "undecodable dir_install payload".into(),
            );
            return;
        }
    };
    let (gid, version, bytes) = decoded;
    // Pin the GID *before* the copy becomes visible: until the source's
    // `DIR_COMMIT` arrives, this rank may serve reads from the installed
    // image but must park writes and — crucially — migration requests.
    // Without the pin, a second migration could start here while the
    // source is still finalizing the first, and the source's
    // remove-at-source would then delete the copy the second migration
    // just installed: the object would vanish with both directories
    // pointing at each other.
    rt.agas.begin_migration(gid);
    loc.insert_at(
        gid,
        crate::locality::Stored::Data(Arc::new(parking_lot::RwLock::new(
            crate::locality::DataObject { bytes, version },
        ))),
    );
    rt.agas.note_owner(gid, loc.id);
    rt.agas.repair_cache(loc.id, gid, loc.id);
    apply_continuation(rt, loc, p.cont, Value::unit(), p.trace);
}

/// Re-route a parcel whose target object is absent from the locality the
/// directory pointed at — mid-migration (including the final remove
/// interleaving with a check-then-get in a data handler). The directory
/// already knows the current owner, so this is the ordinary bounded
/// chase; a genuinely freed object exhausts the hop budget and dies.
fn retry_after_migration(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    if p.hops >= MAX_HOPS {
        bump!(loc.counters.chase_cap_violations);
        let msg = format!("retry budget exhausted after {MAX_HOPS} hops (object absent — freed?)");
        kill_parcel(rt, loc, p, FaultCause::HopCap, msg);
        return;
    }
    let home = p.dest.birthplace();
    if rt.distributed() && !rt.owns(home) {
        // This rank's directory claims ownership but the object is gone —
        // our view is stale and only the home rank's entry is
        // authoritative. Ask it where the object went (control lane) and
        // re-route on the answer.
        bump!(loc.counters.dir_lookups_remote);
        remote_dir_lookup(rt, loc, p);
        return;
    }
    bump!(loc.counters.dir_lookups_local);
    let owner = rt.agas.authoritative_owner(p.dest);
    let mut retry = p;
    retry.hops += 1;
    loc.trace_event(
        retry.trace,
        crate::trace::TraceEventKind::Chase,
        retry.dest.0,
        u64::from(owner.0),
    );
    rt.route_parcel(loc.id, owner, retry);
}

/// Split-phase remote directory lookup: send `__sys/dir_lookup` to the
/// GID's home rank, park the stranded parcel on a future LCO, and re-route
/// it when the authoritative owner comes back. A dead home rank poisons
/// the future through the transport dead-letter path, which resolves the
/// parcel as a counted `Transport` fault in bounded time.
fn remote_dir_lookup(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    let home = p.dest.birthplace();
    let gid = p.dest;
    let trace = p.trace;
    let stamp = loc.metrics_now();
    let mut retry = p;
    retry.hops += 1;
    loc.trace_event(
        trace,
        crate::trace::TraceEventKind::Chase,
        gid.0,
        u64::from(home.0),
    );
    let ack = when_lco_ready(rt, loc, move |ctx, v| {
        let rt = ctx.rt_inner().clone();
        let loc = ctx.locality().clone();
        loc.metric_elapsed(crate::metrics::Instrument::DirLookup, stamp);
        if v.is_fault() {
            let msg = format!("directory home {home} unreachable");
            kill_parcel(&rt, &loc, retry, FaultCause::Transport, msg);
            return;
        }
        let raw: [u8; 2] = match v.bytes().try_into() {
            Ok(r) => r,
            Err(_) => {
                kill_parcel(
                    &rt,
                    &loc,
                    retry,
                    FaultCause::Decode,
                    "short dir_lookup reply".into(),
                );
                return;
            }
        };
        let owner = LocalityId(u16::from_le_bytes(raw));
        rt.agas.repair_cache(loc.id, gid, owner);
        bump!(loc.counters.dir_repairs);
        rt.route_parcel(loc.id, owner, retry);
    });
    let mut w = px_wire::WireWriter::new();
    w.put_u64(gid.0);
    let mut lk = Parcel::new(
        Gid::locality_root(home),
        sys::DIR_LOOKUP,
        Value::from_bytes(w.into_bytes()),
        Continuation::set(ack),
    );
    lk.trace = trace;
    rt.send_parcel(loc.id, lk);
}

/// Record the trace event for a *successful* LCO trigger/contribute: a
/// fault value poisons the object, anything else triggers it. One branch
/// when the parcel is untraced.
fn record_lco_event(loc: &Locality, trace: Option<u64>, gid: Gid, payload: &Value) {
    if trace.is_some() {
        let (kind, aux) = match payload.fault() {
            Some(f) => (
                crate::trace::TraceEventKind::LcoPoison,
                u64::from(f.cause.code()),
            ),
            None => (crate::trace::TraceEventKind::LcoTrigger, 0),
        };
        loc.trace_event(trace, kind, gid.0, aux);
    }
}

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
    op: impl FnOnce(&mut LcoCore) -> crate::error::PxResult<crate::lco::Activations>,
) -> crate::error::PxResult<()> {
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
        loc.trace_event(
            trace,
            crate::trace::TraceEventKind::LcoRelease,
            gid.0,
            acts.len() as u64,
        );
    }
    rt.schedule_activations(loc, acts, trace);
    Ok(())
}

/// Apply a continuation specifier with the result value. Local LCO steps
/// run immediately; remote steps and calls become parcels. The causing
/// parcel's trace id rides along every step.
pub(crate) fn apply_continuation(
    rt: &Arc<RuntimeInner>,
    loc: &Arc<Locality>,
    cont: Continuation,
    value: Value,
    trace: Option<u64>,
) {
    for step in cont.steps {
        match step {
            ContStep::SetLco(g) => rt.lco_route(loc, g, sys::LCO_SET, value.clone(), trace),
            ContStep::Contribute(g) => {
                rt.lco_route(loc, g, sys::LCO_CONTRIBUTE, value.clone(), trace)
            }
            ContStep::Call { action, target } => {
                let mut p = Parcel::new(target, action, value.clone(), Continuation::none());
                p.trace = trace;
                rt.send_parcel(loc.id, p);
            }
        }
    }
}

impl RuntimeInner {
    /// Route an LCO event: local objects are handled in place, remote ones
    /// become system parcels (carrying `trace`, so the chain survives the
    /// hop).
    pub(crate) fn lco_route(
        self: &Arc<Self>,
        from: &Arc<Locality>,
        gid: Gid,
        action: ActionId,
        value: Value,
        trace: Option<u64>,
    ) {
        let owner = self.agas.resolve_counted(from, gid);
        if owner == from.id && from.contains(gid) {
            let op_action = action;
            let r = lco_sys_op(self, from, gid, trace, |l| {
                if op_action == sys::LCO_SET {
                    l.trigger(value.clone())
                } else {
                    l.contribute(value.clone())
                }
            });
            match r {
                Ok(()) => record_lco_event(from, trace, gid, &value),
                Err(e) => {
                    // Local LCO event with no parcel continuation to notify:
                    // the error dead-ends here. Count it like the parcel path
                    // would and let the dead-letter hook see it.
                    let fault = Fault::new(cause_of(&e), action, gid, e.to_string());
                    from.counters.count_death(fault.cause, 1);
                    from.trace_event(
                        trace,
                        crate::trace::TraceEventKind::ParcelKill,
                        gid.0,
                        u64::from(fault.cause.code()),
                    );
                    self.notify_dead_letter(&fault, trace);
                }
            }
        } else {
            let mut p = Parcel::new(gid, action, value, Continuation::none());
            p.trace = trace;
            self.send_parcel(from.id, p);
        }
    }

    /// Schedule LCO waiter activations at `loc` (the LCO's locality)
    /// under the trace of the releasing event, when it had one: resumed
    /// depleted threads and fired continuations inherit it.
    pub(crate) fn schedule_activations(
        self: &Arc<Self>,
        loc: &Arc<Locality>,
        acts: crate::lco::Activations,
        trace: Option<u64>,
    ) {
        for (w, v) in acts {
            match w {
                Waiter::Depleted(f) => loc.push_task(Task::resume(f, v).with_trace(trace)),
                Waiter::Cont(c) => apply_continuation(self, loc, c, v, trace),
                Waiter::External(slot) => slot.fill(v),
            }
        }
    }

    /// Send a parcel from `from`, resolving the destination and paying the
    /// wire cost when it crosses localities.
    pub(crate) fn send_parcel(self: &Arc<Self>, from: LocalityId, p: Parcel) {
        let from_loc = &self.localities[from.0 as usize];
        let mut p = p;
        // Trace sampler: an untraced parcel entering the send path is a
        // root; one in `sample_every` gets a fresh id here. One `Option`
        // branch when tracing is off.
        if p.trace.is_none() {
            if let Some(ts) = &self.trace {
                p.trace = ts.maybe_sample();
            }
        }
        let owner = self.agas.resolve_counted(from_loc, p.dest);
        // Balancer heat hook: remember that we keep addressing this
        // remote object, so the balancer can pull it toward us (heat is
        // drained every gossip round; see `crate::balance`). Gated on
        // `track_heat` so the default send path — and any policy that
        // never migrates — skips the lock entirely.
        if self.track_heat && owner != from && p.dest.kind() == crate::gid::GidKind::Data {
            self.agas.note_access(from, p.dest);
        }
        from_loc.trace_event(
            p.trace,
            crate::trace::TraceEventKind::ParcelSend,
            p.dest.0,
            u64::from(owner.0),
        );
        p.src = from;
        self.route_parcel(from, owner, p);
    }

    /// Route a parcel to a known owner locality.
    // px-analyze: allow(no-silent-loss): the tail path hands the parcel to `Wire::send_parcel`, which encodes it onto the wire — the local copy is spent, not lost.
    pub(crate) fn route_parcel(self: &Arc<Self>, from: LocalityId, owner: LocalityId, p: Parcel) {
        let from_loc = &self.localities[from.0 as usize];
        bump!(from_loc.counters.parcels_sent);
        if owner == from {
            // Same locality: no wire, no encoding; direct enqueue.
            bump!(from_loc.counters.bytes_sent, 0);
            let staged = p.staged;
            let process = p.process;
            let task = Task::parcel(p).with_process(process);
            if let Some(pg) = process {
                self.process_task_started(pg, owner);
            }
            if staged {
                from_loc.push_staged(task);
            } else {
                from_loc.push_task(task);
            }
            return;
        }
        // Process activity tokens never cross an OS-process boundary:
        // the increment here and the decrement at the receiver must land
        // in the *same* table, or a cross-rank parcel leaks a token and
        // `ProcessRef::wait` hangs forever. In a distributed runtime a
        // parcel bound for another rank therefore carries its pid for
        // cancellation context only; quiescence meters in-process work
        // (see the README's "Distributed deployment").
        if let Some(pg) = p.process {
            if self.owns(owner) {
                self.process_task_started(pg, owner);
            }
        }
        // Control traffic (balancer gossip, metrics pulls, directory
        // lookups/updates/repairs) bypasses the coalescing ports and
        // lands in the destination's control queue: it must outrun the
        // very backlog it reports on or repairs, and may not be dropped
        // or delayed under data-lane backpressure.
        if sys::is_control(p.action) {
            let bytes = p.encode();
            let n = bytes.len();
            self.wire
                .send(crate::net::WireMsg::Control { dest: owner, bytes }, n);
            bump!(from_loc.counters.bytes_sent, n as u64);
            // px-analyze: allow(no-silent-loss): the encoded control-lane frame is already on the wire (accounted above) — the in-memory parcel is spent, not lost.
            return;
        }
        // Parcel-borne process accounting: the receiving worker decrements
        // via the decoded parcel's process field. The wire either ships
        // the parcel alone or coalesces it into the destination's port
        // frame (see `net::BatchPolicy`); either way it reports the
        // encoded size for accounting.
        let n = self.wire.send_parcel(owner, &p);
        bump!(from_loc.counters.bytes_sent, n as u64);
    }

    /// Transfer a closure task to another locality (convenience spawn; see
    /// module docs — pays wire latency with a nominal 64-byte size).
    pub(crate) fn send_task(self: &Arc<Self>, from: LocalityId, dest: LocalityId, task: Task) {
        let from_loc = &self.localities[from.0 as usize];
        // Closures cannot cross an OS-process boundary (they do not
        // serialize). Die loudly here — before any queue push — so a
        // `spawn_at` to a remote rank is a counted, reported failure
        // instead of a task rotting on an unowned stub's queue.
        if !self.owns(dest) {
            let own = self.locality(self.origin);
            own.counters
                .count_death(crate::error::FaultCause::Transport, 1);
            let fault = Fault::new(
                crate::error::FaultCause::Transport,
                ActionId(0),
                Gid::locality_root(dest),
                "closure task cannot cross an OS-process boundary; use action parcels",
            );
            self.notify_dead_letter(&fault, None);
            return;
        }
        if let Some(pg) = task.process {
            self.process_task_started(pg, dest);
        }
        if dest == from {
            from_loc.push_task(task);
            return;
        }
        bump!(from_loc.counters.parcels_sent);
        bump!(from_loc.counters.bytes_sent, 64);
        self.wire.send(crate::net::WireMsg::Task { dest, task }, 64);
    }
}

// Parcels executed from `Work::Parcel`/`Work::ParcelBytes` carry their
// process tag inside the parcel; `execute` sees it via `Task::process` for
// local short-circuits, but wire deliveries decode late. Account those
// here: when a parcel with a process tag is decoded and run, the matching
// decrement is issued by `execute` only if `Task::process` was set, so
// `run_parcel` handles the wire case itself.
impl RuntimeInner {
    /// Account one dispatched activation at locality `at` (which is also
    /// recorded in the process's touched-locality bitmap — the broadcast
    /// fan-out set).
    pub(crate) fn process_task_started(&self, gid: Gid, at: LocalityId) {
        if let Some(p) = self.process_table.read().get(&gid) {
            p.note_touched(at);
            p.task_started();
        }
    }

    /// The cancellation fault of process `gid`, if it has been cancelled.
    pub(crate) fn process_cancel_fault(&self, gid: Gid) -> Option<crate::error::Fault> {
        let table = self.process_table.read();
        table
            .get(&gid)
            .filter(|p| p.is_cancelled())
            .map(|p| p.cancel_fault())
    }

    pub(crate) fn process_task_done(self: &Arc<Self>, gid: Gid) {
        let p = self.process_table.read().get(&gid).cloned();
        if let Some(p) = p {
            p.task_done(self);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn sys_ids_distinct() {
        let set: std::collections::HashSet<u64> = sys::ALL.iter().map(|i| i.0).collect();
        assert_eq!(set.len(), sys::ALL.len());
        // The lane column: small directory ops ride the control lane, the
        // object-bearing install does not, and no user action ever does.
        assert!(sys::is_control(sys::DIR_LOOKUP));
        assert!(!sys::is_control(sys::DIR_INSTALL));
        assert!(!sys::is_control(ActionId::of("user/action")));
    }

    #[test]
    fn corrupt_frame_counts_every_lost_record() {
        use crate::parcel::{Continuation, Parcel};
        use crate::runtime::{Config, RuntimeBuilder};
        let rt = RuntimeBuilder::new(Config::small(1, 1)).build().unwrap();
        let p = Parcel::new(
            crate::gid::Gid::locality_root(crate::gid::LocalityId(0)),
            sys::NOOP,
            Value::unit(),
            Continuation::none(),
        );
        let record = p.encode();
        let mut frame = px_wire::FrameBuf::new();
        for _ in 0..5 {
            frame.push_record(&record);
        }
        let mut bytes = frame.take();
        // Cut into record 3: records 1–2 execute, record 3 is corrupt,
        // records 4–5 are hidden behind it — all three must be counted.
        bytes.truncate(
            px_wire::FRAME_HEADER_LEN + 2 * (px_wire::RECORD_HEADER_LEN + record.len()) + 2,
        );
        let loc = rt.inner().localities[0].clone();
        loc.push_task(Task::parcel_frame(bytes));
        let t0 = Instant::now();
        loop {
            let dead = loc.counters.dead_parcels.load(Ordering::Relaxed);
            let recv = loc.counters.parcels_recv.load(Ordering::Relaxed);
            if dead == 3 && recv == 2 {
                break;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "counters never settled: dead={dead} recv={recv}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        rt.shutdown();
    }

    #[test]
    fn task_debug_names() {
        assert_eq!(format!("{:?}", Task::thread(|_| {})), "Task::Thread");
        assert_eq!(
            format!("{:?}", Task::parcel_bytes(vec![])),
            "Task::ParcelBytes"
        );
    }
}
