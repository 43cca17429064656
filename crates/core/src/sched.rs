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
//! depleted thread, or a parcel (decoded lazily on a worker). A task made
//! on a locality's worker — a spawn, a same-locality parcel, a released
//! waiter — goes on that worker's ring (`Locality::spawn_here`); one
//! handed over from elsewhere — the wire, a driver — into a queue of the
//! locality. Workers pull from, in priority order: the control lane, the
//! staging buffer (on percolation-priority localities), their own ring,
//! the locality injector, sibling rings (work stealing — *within* the
//! locality only; cross-locality balancing is done with parcels, which is
//! the model's point), and finally the staging buffer. Every
//! `EVENT_INTERVAL`-th look tries the injector before the ring, so work
//! a locality makes for itself cannot starve what the wire and the
//! drivers queued.

use crate::action::{ActionId, Value};
use crate::error::{Fault, FaultCause, PxError};
use crate::gid::{Gid, GidKind, LocalityId};
use crate::lco::{DepletedThread, Waiter};
use crate::locality::{Lane, Locality};
use crate::net::Record;
use crate::origin::Origin;
use crate::parcel::{ContStep, Continuation, Parcel};
use crate::queue::{Idle, Local};
use crate::runtime::{Ctx, RuntimeInner};
use crate::stats::bump;
use crate::sys;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

pub(crate) enum Work {
    /// Fresh PX-thread.
    Thread(Box<dyn FnOnce(&mut Ctx<'_>) + Send + 'static>),
    /// Resumption of a depleted thread with the LCO's value.
    Resume(DepletedThread, Value),
    /// Decoded parcel, boxed: a parcel is most of a task's size, and
    /// every push, pop and steal copies the whole slot.
    Parcel(Box<Parcel>),
    /// A frame of parcels as delivered by the wire — a coalescing port's,
    /// or a frame of one: one queue push per frame, each record decoded
    /// lazily on the worker as it executes.
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

// A ring slot holds a task, and every push, pop and steal copies it: the
// parcel it may carry is boxed to keep it within this bound.
#[cfg(all(not(debug_assertions), target_pointer_width = "64"))]
const _: () = assert!(size_of::<Task>() <= 96);

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.work {
            Work::Thread(_) => "Thread",
            Work::Resume(..) => "Resume",
            Work::Parcel(_) => "Parcel",
            Work::ParcelFrame(_) => "ParcelFrame",
        };
        write!(f, "Task::{kind}")
    }
}

impl Task {
    /// One activation of `work`, outside any process or trace.
    pub(crate) fn new(work: Work) -> Task {
        Task {
            work,
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

/// Tasks a busy worker runs between two passes of its locality's loop
/// (`Transport::drive`): a locality whose workers never run dry still
/// pulls its ports, and over TCP reads its sockets and writes its queues.
/// A constant, as in other runtimes whose workers drive their I/O. A due
/// timer or a ring (`clock::Heap::due`) brings the pass sooner: after
/// the task during which it happened. Also how often a worker's look
/// starts at the injector ([`find_task`]).
const EVENT_INTERVAL: u32 = 61;

/// One worker of a locality: its ring and its state between turns. A
/// worker thread turns it until shutdown ([`spawn`]); a stepped test, one
/// turn at a time on the test's thread (`Worker::step`).
pub(crate) struct Worker {
    /// The worker's own ring, lent to the thread for each turn.
    ring: Local<Task>,
    state: WorkerState,
}

/// A worker's state between turns, besides its ring.
pub(crate) struct WorkerState {
    rt: Arc<RuntimeInner>,
    loc: Arc<Locality>,
    idx: usize,
    since_pass: u32,
    /// Looks since the last one that started at the injector.
    since_fair: u32,
    /// When the current busy stretch began: the task that ended the last
    /// search was found.
    stretch_started: Instant,
    /// When the search for the next task began, on the locality's clock.
    search_started: Instant,
    /// Set while this worker searches: the next task it finds ends the
    /// search, opens a busy stretch, and the searcher passes the search
    /// on.
    searching: bool,
}

/// Start worker `w`'s thread, which turns it until shutdown.
pub(crate) fn spawn(mut w: Worker) -> JoinHandle<()> {
    crate::clock::spawn(usize::from(w.state.loc.id.0), w.state.idx, move || {
        while w.turn(WorkerState::idle) {}
    })
}

impl Worker {
    /// Worker `idx` of locality `l`, owning `ring`.
    pub(crate) fn new(rt: &Arc<RuntimeInner>, l: usize, idx: usize, ring: Local<Task>) -> Worker {
        let loc = rt.localities[l].clone();
        let (rt, since_pass, search_started) = (rt.clone(), 0, loc.timers.now());
        let state = WorkerState {
            rt,
            loc,
            idx,
            since_pass,
            since_fair: 0,
            stretch_started: search_started,
            search_started,
            searching: true,
        };
        Worker { ring, state }
    }

    /// One turn: the next task, run; with none queued, `idle`'s turn —
    /// the thread's park ([`WorkerState::idle`]) or a test's pass. True
    /// when a task ran or `idle` says go on. The turn runs with the ring
    /// lent to the thread (`queue::Local::lend`), on a thread and stepped
    /// alike: what its task makes here goes on the ring.
    fn turn(&mut self, idle: impl FnOnce(&mut WorkerState) -> bool) -> bool {
        let Worker { ring, state } = self;
        let tag = state.loc.worker_tag(state.idx);
        ring.lend(tag, || state.turn(ring, idle))
    }
}

impl WorkerState {
    /// [`Worker::turn`], with `ring` lent.
    fn turn(&mut self, ring: &Local<Task>, idle: impl FnOnce(&mut WorkerState) -> bool) -> bool {
        self.since_fair += 1;
        let fair = self.since_fair == EVENT_INTERVAL;
        if fair {
            self.since_fair = 0;
        }
        let (rt, loc) = (&self.rt, &self.loc);
        let Some(task) = find_task(loc, ring, self.idx, fair) else {
            // The first look that finds nothing closes the busy stretch;
            // its one clock read also starts the search.
            if !std::mem::replace(&mut self.searching, true) {
                self.search_started = loc.timers.now();
                let busy = self.search_started.duration_since(self.stretch_started);
                bump!(loc.counters().busy_ns, busy.as_nanos() as u64);
            }
            return idle(self);
        };
        if std::mem::take(&mut self.searching) {
            // Producers skip the wake while a worker spins, trusting it
            // to find their task. It found one; if that was not all, the
            // rest needs another pair of hands — and a poller this worker
            // left behind needs an idle one.
            if loc.has_work() || loc.sleep.poller_free() {
                loc.sleep.notify_one();
            }
            // The search ends and a busy stretch opens: the only clock
            // read on the way to a task. Back-to-back tasks read none.
            self.stretch_started = loc.timers.now();
            let idle = self.stretch_started.duration_since(self.search_started);
            bump!(loc.counters().idle_ns, idle.as_nanos() as u64);
        }
        execute(rt, loc, task);
        // Where something is timed — a TCP rank's sockets, an in-process
        // wire's latency, a balancer — the workers run the loop
        // (`net/mod.rs`, `clock.rs`): a busy one between tasks.
        if loc.sleep.polls() {
            self.since_pass += 1;
            if self.since_pass == EVENT_INTERVAL || loc.timers.due() {
                self.since_pass = 0;
                rt.wire.drive(loc.id, None);
            }
        }
        true
    }

    /// The thread's turn with no task queued: park until there is a
    /// reason to look again. False at shutdown.
    fn idle(&mut self) -> bool {
        let (rt, loc, w, search_started) = (&self.rt, &self.loc, self.idx, self.search_started);
        // SeqCst: the re-check inside `idle` must see a shutdown flag
        // stored before `Runtime::shutdown` notified.
        let stop = || rt.shutdown.load(Ordering::SeqCst);
        if stop() {
            return false;
        }
        let mut ready = || loc.has_work() || stop();
        let on_park = || {
            bump!(loc.counters().parks);
            // The search ends here. The park is timed by `sleep`, whose
            // clock can be read while this worker is still parked (a
            // starved worker never wakes to report it).
            let searched = loc.timers.now().duration_since(search_started);
            bump!(loc.counters().idle_ns, searched.as_nanos() as u64);
        };
        // The loop, where the workers run one and nobody holds it: a
        // pass (fire due timers, pull; over TCP also read and write), then
        // its blocking wait as the park, bounded by the earliest deadline.
        // In-process the holder sees all it waits for, so it spins first
        // like any idle worker; over TCP it would not see the sockets.
        let mut parked = Idle::Ready;
        let mut park = |wait: &mut dyn FnMut()| {
            let due = || ready() || loc.timers.due();
            parked = loc
                .sleep
                .idle_polling(w, !rt.distributed(), due, on_park, wait);
        };
        if loc.sleep.polls() && rt.wire.drive(loc.id, Some(&mut park)) {
            self.since_pass = 0;
        } else {
            parked = loc.sleep.idle(w, &mut ready, on_park);
        }
        if parked == Idle::Parked {
            self.search_started = loc.timers.now();
        }
        true
    }
}

/// Pull the next task according to the locality's queue discipline. A
/// `fair` look tries the injector before the worker's own ring: a ring
/// its own tasks keep refilling would otherwise hide the injector from
/// this worker for good.
fn find_task(loc: &Locality, local: &Local<Task>, worker_idx: usize, fair: bool) -> Option<Task> {
    use crate::metrics::Instrument::{ControlLane, QueueWait};
    // Control plane first: gossip, metrics pulls and directory traffic
    // must not starve behind the data backlog they measure or repair.
    if let Some(t) = loc.control.steal() {
        return Some(dequeued(loc, ControlLane, t));
    }
    // Precious-resource localities drain prestaged work first (§2.2
    // percolation: the staged queue is what keeps the expensive unit busy).
    if loc.staged_priority {
        if let Some(t) = loc.staging.steal() {
            return Some(dequeued(loc, QueueWait, t));
        }
    }
    // A fair look: the injector first, once every `EVENT_INTERVAL`.
    if fair {
        if let Some(t) = loc.injector.steal_batch_and_pop(local) {
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
            bump!(loc.counters().steals);
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
pub(crate) fn execute(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, task: Task) {
    let process = task.process;
    let trace = task.trace;
    // Cancellation gate (one branch when no process is attached): queued
    // closure tasks of a cancelled process are dropped loudly here — the
    // accounting decrement still runs, draining the process's activity
    // counter. Only `Work::Thread` is gated: parcels fall through so
    // `run_parcel` can deliver the fault to their continuations, and
    // resumes always run because they ARE the fault-delivery path (a
    // poisoned LCO resumes its depleted waiters with the fault, and the
    // process accounting lives inside that closure — a resume task
    // never carries a process tag).
    if let Some(pgid) = process {
        if matches!(task.work, Work::Thread(_)) {
            if let Some(fault) = rt.process_cancel_fault(pgid) {
                bump!(loc.counters().tasks_cancelled);
                rt.notify_dead_letter(&fault, None);
                rt.process_task_done(pgid);
                return;
            }
        }
    }
    match task.work {
        Work::Thread(f) => {
            let mut ctx = Ctx::new(rt, loc, process, trace);
            // A closure thread has no continuation to notify; the panic
            // counter and dead-letter hook are its only observers.
            if let Err(msg) = run_guarded(loc, || f(&mut ctx)) {
                report_thread_panic(rt, loc, msg);
            }
            bump!(loc.counters().threads_executed);
        }
        Work::Resume(f, v) => {
            let mut ctx = Ctx::new(rt, loc, process, trace);
            if let Err(msg) = run_guarded(loc, || f(&mut ctx, v)) {
                report_thread_panic(rt, loc, msg);
            }
            bump!(loc.counters().resumes);
            bump!(loc.counters().threads_executed);
        }
        Work::ParcelFrame(bytes) => {
            bump!(loc.counters().frames_recv);
            crate::net::for_each_record(&bytes, |rec| run_wire_parcel(rt, loc, rec));
        }
        Work::Parcel(p) => run_parcel(rt, loc, *p),
    }
    if let Some(pgid) = process {
        rt.process_task_done(pgid);
    }
}

/// Decode and run one wire-delivered parcel record. Wire deliveries carry
/// the process tag inside the parcel (`Task::process` is `None`); the
/// completion is accounted here.
fn run_wire_parcel(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, rec: Record) {
    let Some(p) = decode_record(rt, loc, rec) else {
        return;
    };
    let proc_gid = p.process;
    run_parcel(rt, loc, p);
    // Mirror of the send-side gate in `route_parcel`: in a distributed
    // runtime every wire delivery crossed an OS-process boundary, so no
    // token was taken in *this* process for it — decrementing would drain
    // someone else's counter to a premature quiescence.
    if let Some(pg) = proc_gid {
        if !rt.distributed() {
            rt.process_task_done(pg);
        }
    }
}

/// One record a frame reader (`net::for_each_record`) yielded, decoded and
/// armed — or its death, as `Decode`, at `loc`: a record that cannot be
/// read cannot name its continuation, so the hook is all there is to tell.
#[inline]
pub(crate) fn decode_record(rt: &Arc<RuntimeInner>, loc: &Locality, rec: Record) -> Option<Parcel> {
    let why = match rec.map(Parcel::decode) {
        Ok(Ok(mut p)) => {
            p.arm(rt);
            return Some(p);
        }
        Ok(Err(e)) => format!("undecodable parcel: {e}"),
        Err(e) => format!("corrupt frame: {e}"),
    };
    let root = Gid::locality_root(loc.id);
    rt.record_death(loc, root, ActionId(0), FaultCause::Decode, why, None);
    None
}

/// Panic isolation: a panicking PX-thread kills neither the worker nor the
/// runtime; it is counted and the thread's effects up to the panic stand.
/// The panic message is returned so parcel dispatch can convert it into a
/// fault for the parcel's continuation instead of a bare counter bump.
fn run_guarded<T>(loc: &Locality, f: impl FnOnce() -> T) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => {
            bump!(loc.counters().panics);
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
pub(crate) fn cause_of(e: &PxError) -> FaultCause {
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
    let fault = rt.record_death(loc, p.dest, p.action, cause, message, p.trace);
    complete(rt, loc, p, Value::error(&fault));
}

/// The good end of a parcel: its action is done and `value` — the result,
/// or a fault passing through — goes to its continuation. Unconditional:
/// an empty continuation applies as a no-op, every other one resolves its
/// waiters, so a handler has no "this one carries no continuation" case
/// to get wrong.
pub(crate) fn complete(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, mut p: Parcel, value: Value) {
    p.spend();
    let control = sys::is_control(p.action);
    apply_continuation(rt, loc, p.cont, value, p.trace, control);
}

/// Execute a parcel: ownership check (an absent object's parcel goes to
/// `sys::agas::not_here`), then system or registry dispatch, then
/// continuation application.
fn run_parcel(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    bump!(loc.counters().parcels_recv);
    loc.trace_event(
        p.trace,
        crate::trace::TraceEventKind::ParcelDispatch,
        p.dest.0,
        p.action.0,
    );
    if p.staged {
        bump!(loc.counters().staged_executed);
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
    // the sender routed on the GID's locality field. A data object with a
    // move in flight serves nothing here: its parcel parks on the move's
    // pin and runs where the move leaves the object.
    let dest = p.dest;
    let moving = || dest.kind() == GidKind::Data && loc.agas.migration_in_flight(dest);
    if !dest.is_hardware() && (!loc.contains(dest) || moving()) {
        return sys::agas::not_here(rt, loc, p);
    }
    // Chase accounting: this parcel is home; record how far it wandered.
    if p.hops > 0 {
        bump!(loc.counters().chased_parcels);
        bump!(loc.counters().chase_hops_total, u64::from(p.hops));
    }

    // A fault payload short-circuits execution: the fault an upstream
    // death produced flows straight through Call-chained actions to this
    // parcel's continuation instead of being fed to a handler as
    // (garbage) arguments. The LCO event actions are the exception —
    // *delivering* the fault to them is how an LCO gets poisoned.
    let a = p.action;
    if p.payload.is_fault() && a != sys::LCO_SET && a != sys::LCO_CONTRIBUTE {
        let fault = p.payload.clone();
        return complete(rt, loc, p, fault);
    }

    // System actions first: they bypass the registry and use raw payload
    // framing. The stamp is recorded only when a sys arm consumed the
    // parcel; user actions fall through to their own instrument.
    let sys_start = loc.metrics_now();
    let p = match sys::dispatch(rt, loc, p) {
        None => {
            loc.metric_elapsed(crate::metrics::Instrument::ExecuteSys, sys_start);
            return;
        }
        Some(p) => p,
    };

    // User action via the registry.
    match rt.registry.get(a) {
        Ok(handler) => {
            let mut ctx = Ctx::new(rt, loc, p.process, p.trace);
            let handler = handler.clone();
            let exec_start = loc.metrics_now();
            let result = run_guarded(loc, || handler(&mut ctx, p.dest, p.payload.bytes()));
            loc.metric_elapsed(crate::metrics::Instrument::ExecuteUser, exec_start);
            bump!(loc.counters().threads_executed);
            match result {
                Ok(Ok(v)) => complete(rt, loc, p, v),
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

/// Apply a continuation specifier with the result value. Local LCO steps
/// run immediately; remote steps and calls become parcels. The causing
/// parcel's trace id rides along every step, and so does its lane: the
/// LCO events that answer a control-lane parcel are sent on that lane
/// (`control`), so a reply never queues behind the backlog its request
/// outran. A call is a parcel of its own action, on that action's lane.
fn apply_continuation(
    rt: &Arc<RuntimeInner>,
    loc: &Arc<Locality>,
    cont: Continuation,
    value: Value,
    trace: Option<u64>,
    control: bool,
) {
    for step in cont.steps {
        match step {
            ContStep::SetLco(g) => {
                rt.lco_route(loc, g, sys::LCO_SET, value.clone(), trace, control)
            }
            ContStep::Contribute(g) => {
                rt.lco_route(loc, g, sys::LCO_CONTRIBUTE, value.clone(), trace, control)
            }
            ContStep::Call { action, target } => {
                let p = Parcel::new(target, action, value.clone(), Continuation::none());
                Origin::at(rt, loc).with_trace(trace).send(p);
            }
        }
    }
}

impl RuntimeInner {
    /// Route an LCO event: local objects are handled in place, remote ones
    /// become system parcels (carrying `trace`, so the chain survives the
    /// hop; on the control lane when `control` is set). LCOs never
    /// migrate, so one owned here but absent was freed — a one-shot
    /// future already read — and the event dies in place as a counted
    /// `NoSuchObject`, as a parcel for it does at its owner
    /// (`sys::agas::not_here`).
    pub(crate) fn lco_route(
        self: &Arc<Self>,
        from: &Arc<Locality>,
        gid: Gid,
        action: ActionId,
        value: Value,
        trace: Option<u64>,
        control: bool,
    ) {
        let owner = from.agas.resolve_counted(from, gid);
        if owner == from.id {
            if let Err(e) = sys::lco::deliver(self, from, gid, action, &value, trace) {
                // No continuation to notify: the error ends here.
                self.record_death(from, gid, action, cause_of(&e), e.to_string(), trace);
            }
        } else {
            let p = Parcel::new(gid, action, value, Continuation::none());
            Origin::at(self, from)
                .with_trace(trace)
                .send_toward(None, control, p);
        }
    }

    /// Record the death of `action` addressed at `dest`: count it (total
    /// and by cause), trace it, tell the dead-letter hook, and return the
    /// fault for whoever can still be told — a killed parcel's
    /// continuation, a waiter handed back by a failed local LCO event.
    /// The one place a death is counted: the TCP backend's count-only
    /// path, for when it has no runtime to tell, is the one exemption
    /// (`net::tcp`, `TcpShared::count_deaths`).
    pub(crate) fn record_death(
        &self,
        at: &Locality,
        dest: Gid,
        action: ActionId,
        cause: FaultCause,
        message: String,
        trace: Option<u64>,
    ) -> Fault {
        let fault = Fault::new(cause, action, dest, message);
        at.counters().count_death(cause, 1);
        // Record the death before notifying, so a traced dead-letter
        // hook's captured slice includes this very event.
        at.trace_event(
            trace,
            crate::trace::TraceEventKind::ParcelKill,
            dest.0,
            u64::from(cause.code()),
        );
        self.notify_dead_letter(&fault, trace);
        fault
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
                Waiter::Depleted(f) => {
                    loc.spawn_here(Task::new(Work::Resume(f, v)).with_trace(trace))
                }
                Waiter::Control(f) => {
                    let task = Task::new(Work::Resume(f, v)).with_trace(trace);
                    loc.deliver(Lane::Control, task);
                }
                Waiter::Cont(c) => apply_continuation(self, loc, c, v, trace, false),
                Waiter::External(slot) => slot.fill(v),
            }
        }
    }

    /// Route a parcel to a known owner locality: on the control lane when
    /// its action is a control row or `control` is set.
    pub(crate) fn route_parcel(
        self: &Arc<Self>,
        from: LocalityId,
        owner: LocalityId,
        control: bool,
        p: Parcel,
    ) {
        let from_loc = &self.localities[from.0 as usize];
        if owner == from {
            bump!(from_loc.counters().parcels_sent);
            // Same locality: no wire, no encoding, no bytes; direct enqueue.
            let (staged, process) = (p.staged, p.process);
            let task = Task::new(Work::Parcel(Box::new(p))).with_process(process);
            if let Some(pg) = process {
                self.process_task_started(pg, owner);
            }
            if staged {
                from_loc.deliver(Lane::Staged, task);
            } else {
                from_loc.spawn_here(task);
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
        // Control traffic (balancer gossip, metrics pulls, every leg of
        // a move, directory lookups and repairs, and their replies)
        // bypasses the coalescing ports and lands in the destination's
        // control queue: it must outrun the very backlog it reports on or
        // repairs, and may not be dropped or delayed under data-lane
        // backpressure. Parcel-borne process accounting: the receiving
        // worker decrements via the decoded parcel's process field.
        let lane = if control || sys::is_control(p.action) {
            Lane::Control
        } else {
            Lane::of_parcel(p.staged)
        };
        self.wire.send_parcel(from, owner, lane, p);
    }

    /// Transfer a closure task to another locality (convenience spawn; see
    /// module docs — pays wire latency with a nominal size,
    /// `net::TASK_BYTES`).
    pub(crate) fn send_task(self: &Arc<Self>, from: LocalityId, dest: LocalityId, task: Task) {
        // Closures cannot cross an OS-process boundary (they do not
        // serialize), nor reach a lost locality. Die loudly here — before
        // any queue push — so a `spawn_at` to a remote or lost rank is a
        // counted, reported failure instead of a task rotting on a queue
        // nobody drains.
        if !self.owns(dest) || self.wire.is_lost(dest) {
            return self.kill_task(dest, &task);
        }
        if let Some(pg) = task.process {
            self.process_task_started(pg, dest);
        }
        if dest == from {
            return self.localities[from.0 as usize].spawn_here(task);
        }
        self.wire.send_task(from, dest, task);
    }

    /// The one closure death: `task`, bound for `dest`, cannot get there —
    /// another OS process, or a lost rank — and dies as `Transport`.
    pub(crate) fn kill_task(&self, dest: LocalityId, task: &Task) {
        let (own, to) = (self.locality(self.origin), Gid::locality_root(dest));
        let why = format!("closure task cannot reach {dest}: use action parcels");
        let cause = FaultCause::Transport;
        self.record_death(own, to, ActionId(0), cause, why, task.trace);
    }
}

// Parcels executed from `Work::Parcel`/`Work::ParcelFrame` carry their
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

    /// The record of process `gid`, while the table still holds it.
    pub(crate) fn process(&self, gid: Gid) -> Option<Arc<crate::process::ProcessInner>> {
        self.process_table.read().get(&gid).cloned()
    }

    pub(crate) fn process_task_done(self: &Arc<Self>, gid: Gid) {
        if let Some(p) = self.process(gid) {
            p.task_done(self);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    impl Task {
        /// Number of parcel records this task carries.
        pub(crate) fn parcel_records(&self) -> usize {
            match &self.work {
                Work::Parcel(_) => 1,
                Work::ParcelFrame(bytes) => px_wire::FrameView::parse(bytes)
                    .map(|v| v.record_count() as usize)
                    .unwrap_or(0),
                _ => 0,
            }
        }

        /// Raw frame bytes carried by this task, if it is a frame.
        pub(crate) fn frame_bytes(&self) -> Option<&[u8]> {
            match &self.work {
                Work::ParcelFrame(bytes) => Some(bytes),
                _ => None,
            }
        }
    }

    impl Worker {
        /// One turn on the calling thread, which never parks: the next
        /// task, or with none queued one pass of the locality's loop (its
        /// due timers fire, the ports toward it are pulled). True when a
        /// task ran.
        pub(crate) fn step(&mut self) -> bool {
            self.turn(|w| {
                w.rt.wire.drive(w.loc.id, None);
                false
            })
        }

        /// True when this worker's locality has something to do: a task
        /// queued, or a timer due or a ring on its heap — and is not lost
        /// (`Stepped::kill`), whose queues are abandoned.
        pub(crate) fn ready(&self) -> bool {
            let (rt, loc) = (&self.state.rt, &self.state.loc);
            !rt.wire.is_lost(loc.id) && (loc.has_work() || loc.timers.due())
        }
    }

    #[test]
    fn corrupt_frame_counts_every_lost_record() {
        use crate::parcel::{Continuation, Parcel};
        use crate::runtime::{Config, RuntimeBuilder};
        let mut s = RuntimeBuilder::new(Config::small(1, 1)).stepped(0);
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
        let loc = s.rt.inner().localities[0].clone();
        loc.push_task(Task::new(Work::ParcelFrame(bytes)));
        s.settle();
        let stats = loc.stats();
        assert_eq!((stats.dead_parcels, stats.parcels_recv), (3, 2));
    }

    /// Contract point 2 of `net/mod.rs` with no balancer: a control-lane
    /// task delivered behind a data backlog is the next one a worker
    /// finds, and its wait is charged to the control-lane instrument. A
    /// bare locality — no runtime, no worker thread — so nothing is timed.
    #[test]
    fn control_outruns_data_with_the_balancer_off() {
        use crate::metrics::Instrument::{ControlLane, QueueWait};
        let mut loc = Locality::new(LocalityId(0), false, 1);
        let reg = Arc::new(crate::metrics::MetricsRegistry::default());
        loc.enable_metrics(reg.clone());
        assert!(loc.balance.is_none());
        for _ in 0..8 {
            loc.deliver(Lane::Run, Task::new(Work::Thread(Box::new(|_| {}))));
        }
        loc.deliver(Lane::Control, Task::new(Work::ParcelFrame(vec![])));
        let local = Local::new();
        let first = find_task(&loc, &local, 0, false).expect("nine tasks queued");
        assert_eq!(format!("{first:?}"), "Task::ParcelFrame", "control first");
        let waits = |inst| reg.snapshot().get(inst).count;
        assert_eq!((waits(ControlLane), waits(QueueWait)), (1, 0));
        let mut data = 0;
        while let Some(t) = find_task(&loc, &local, 0, false) {
            assert_eq!(format!("{t:?}"), "Task::Thread");
            data += 1;
        }
        assert_eq!((data, waits(QueueWait)), (8, 8));
        assert!(!loc.has_work());
    }

    /// A busy destination runs its pass after the task during which
    /// something asked for one, not `EVENT_INTERVAL` tasks on, counted in
    /// tasks. A chain at locality 1, each link spawning the next so its
    /// one worker never runs dry, arms a probe due at once on its own
    /// heap; the probe — on the control lane, run as soon as it is queued
    /// — reads how many links ran meanwhile: none. A later link puts a
    /// parcel in the batching port toward its own locality, and the next
    /// link finds the port pulled.
    #[test]
    fn a_busy_destination_delivers_a_due_message_within_event_interval_tasks() {
        use crate::runtime::{Config, Ctx, RuntimeBuilder};
        use std::sync::atomic::AtomicU32;
        // Links run so far, and how many had run when the probe ran and
        // when a link first found the port pulled.
        static RAN: AtomicU32 = AtomicU32::new(0);
        static SEEN_AT: AtomicU32 = AtomicU32::new(0);
        static PULLED_AT: AtomicU32 = AtomicU32::new(0);
        const ARMED_AT: u32 = 10;
        const SENT_AT: u32 = 20;
        fn link(ctx: &mut Ctx<'_>) {
            let (ran, loc) = (RAN.fetch_add(1, Ordering::SeqCst) + 1, ctx.locality());
            if loc.stats().batch_flush_pulled > 0 {
                return PULLED_AT.store(ran, Ordering::SeqCst);
            }
            if ran == ARMED_AT {
                let probe =
                    |_: &mut Ctx<'_>| SEEN_AT.store(RAN.load(Ordering::SeqCst), Ordering::SeqCst);
                let probe = Task::new(Work::Thread(Box::new(probe)));
                loc.arm(loc.timers.now(), Lane::Control, probe, None);
            }
            if ran == SENT_AT {
                let (to, noop) = (Gid::locality_root(loc.id), sys::NOOP);
                let p = Parcel::new(to, noop, Value::unit(), Continuation::none());
                ctx.rt_inner()
                    .wire
                    .send_parcel(loc.id, loc.id, Lane::Run, p);
            }
            ctx.spawn(link);
        }
        let cfg = Config::small(2, 1).with_max_batch_parcels(32);
        let mut s = RuntimeBuilder::new(cfg.with_latency(Duration::from_micros(50))).stepped(0);
        s.rt.spawn_at(LocalityId(1), link);
        s.run_until("the port pulled", |_| PULLED_AT.load(Ordering::SeqCst) != 0);
        let seen = [&SEEN_AT, &PULLED_AT].map(|links| links.load(Ordering::SeqCst));
        assert_eq!(seen, [ARMED_AT, SENT_AT + 1], "links run before each pass");
    }

    /// Work a worker makes for its own locality goes on its ring: a task
    /// that releases a local waiter and sends a same-locality parcel
    /// leaves the injector empty, and the next two turns run both. A
    /// driver's spawn is handed over from outside: it lands in the
    /// injector.
    #[test]
    fn work_made_on_a_worker_stays_on_its_ring() {
        use crate::runtime::{Config, RuntimeBuilder};
        let mut s = RuntimeBuilder::new(Config::small(1, 1)).stepped(0);
        let loc = s.rt.inner().localities[0].clone();
        s.rt.spawn_at(LocalityId(0), |ctx| {
            let fut = ctx.new_future::<u64>();
            ctx.when_future(fut, |_, _| {});
            ctx.set_future(fut, &7).unwrap();
            ctx.send_parcel(sys::bare(Gid::locality_root(ctx.here()), sys::NOOP));
        });
        assert_eq!(loc.injector.len(), 1, "a driver's spawn is injected");
        assert!(s.turn(0));
        assert_eq!(
            loc.injector.len(),
            0,
            "the resume and the parcel are on the ring"
        );
        let before = loc.stats();
        assert!(s.turn(0) && s.turn(0));
        let after = loc.stats();
        let ran = |f: fn(&crate::stats::LocalityStats) -> u64| f(&after) - f(&before);
        assert_eq!((ran(|l| l.resumes), ran(|l| l.parcels_recv)), (1, 1));
        assert!(!loc.has_work());
    }

    /// A worker whose tasks keep making local work still runs what was
    /// handed to its locality: a chain that spawns its next link on every
    /// turn hides a driver's task for at most `EVENT_INTERVAL + 1` turns.
    #[test]
    fn a_chain_of_local_work_does_not_starve_the_injector() {
        use crate::runtime::{Config, Ctx, RuntimeBuilder};
        use std::sync::atomic::AtomicBool;
        static PROBED: AtomicBool = AtomicBool::new(false);
        fn link(ctx: &mut Ctx<'_>) {
            if !PROBED.load(Ordering::SeqCst) {
                ctx.spawn(link);
            }
        }
        let mut s = RuntimeBuilder::new(Config::small(1, 1)).stepped(0);
        s.rt.spawn_at(LocalityId(0), link);
        assert!(s.turn(0), "the chain's first link");
        s.rt.spawn_at(LocalityId(0), |_| PROBED.store(true, Ordering::SeqCst));
        let mut turns = 0;
        while !PROBED.load(Ordering::SeqCst) {
            assert!(s.turn(0), "the chain runs while the probe waits");
            turns += 1;
            assert!(turns <= EVENT_INTERVAL + 1, "the probe starved");
        }
    }

    /// The spend check on the other shape the lexical rule declared out
    /// of scope: a parcel bound by a pattern (`Ok(mut p) =>`), as
    /// `decode_record` binds the ones it decodes, with an arm that lets it
    /// fall out of scope. An in-process runtime: the check is the type's,
    /// not the transport's.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "parcel lost: ")]
    fn a_pattern_bound_parcel_dropped_on_one_arm_fails_shutdown() {
        use crate::runtime::{Config, RuntimeBuilder};
        fn kill_unless_traced(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, rec: &[u8]) {
            match Parcel::decode(rec) {
                Ok(mut p) => {
                    p.arm(rt);
                    if p.trace.is_some() {
                        let why = "peer lost".to_string();
                        kill_parcel(rt, loc, p, FaultCause::Transport, why);
                    } // the bug: an untraced `p` is dropped here
                }
                Err(e) => panic!("{e}"),
            }
        }
        let rt = RuntimeBuilder::new(Config::small(1, 1)).build().unwrap();
        let rec = sys::bare(Gid::locality_root(LocalityId(0)), sys::NOOP).encode();
        kill_unless_traced(rt.inner(), rt.inner().locality(LocalityId(0)), &rec);
        rt.shutdown();
    }

    #[test]
    fn task_debug_names() {
        let thread = Task::new(Work::Thread(Box::new(|_| {})));
        assert_eq!(format!("{thread:?}"), "Task::Thread");
        let frame = Task::new(Work::ParcelFrame(vec![]));
        assert_eq!(format!("{frame:?}"), "Task::ParcelFrame");
    }
}
