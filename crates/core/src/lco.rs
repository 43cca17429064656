//! Local Control Objects — lightweight synchronization (§2.2).
//!
//! "A rich set of synchronization primitives is provided to facilitate
//! lightweight control and exploit a diversity of parallelism. LCOs
//! eliminate most uses of global barriers … Dataflow synchronization,
//! futures, and metathreads are examples … 'Depleted threads' provide a
//! kind of temporary state storage for suspended threads."
//!
//! An LCO is an addressable object (it has a [`Gid`]) that accumulates
//! *events* until a firing condition holds, then releases its *waiters*.
//! Waiters are exactly the paper's three consumers of control transfer:
//!
//! * **depleted threads** — continuation closures deposited by suspended
//!   PX-threads, resumed as fresh tasks at the LCO's locality;
//! * **continuation specifiers** — remote parcels waiting on the value
//!   (the `__lco_get` system action registers these);
//! * **external waiters** — OS threads outside the runtime blocking on a
//!   condition variable (the driver program).
//!
//! The concrete LCO kinds built here:
//!
//! | Kind | Fires when | Value |
//! |---|---|---|
//! | [`LcoBody::Future`] | `trigger` called once | the triggered value |
//! | [`LcoBody::AndGate`] | N triggers observed | unit |
//! | [`LcoBody::OrGate`] | first trigger | first value |
//! | [`LcoBody::Dataflow`] | all input slots filled | `combine(slots)` |
//! | [`LcoBody::Reduce`] | N contributions folded | folded value |
//! | semaphore ([`LcoCore::new_semaphore`]) | never "fires"; releases one waiter per permit | unit |
//!
//! Locking is per-object (`parking_lot::Mutex` around [`LcoCore`]); no
//! waiter code runs under the lock — operations return [`Activations`]
//! that the caller schedules after unlocking.
//!
//! Every kind can also become **poisoned** ([`LcoCore::poison`]): when a
//! producer the LCO was waiting on dies, the fault releases all current
//! and future waiters instead of leaving them hanging. A fault value
//! arriving through `trigger`/`trigger_slot`/`contribute` poisons rather
//! than fires, so faults propagate through LCO dependency chains.

use crate::action::Value;
use crate::error::{Fault, PxError, PxResult};
use crate::gid::Gid;
use crate::runtime::Ctx;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Duration;

/// A depleted-thread continuation: the saved state of a suspended
/// PX-thread, resumed with the LCO's value.
pub type DepletedThread = Box<dyn FnOnce(&mut Ctx<'_>, Value) + Send + 'static>;

/// Fold function for reduction LCOs.
pub type ReduceFn = Box<dyn Fn(Value, Value) -> Value + Send + 'static>;

/// Combine function for dataflow templates (all slots are `Some` when
/// called).
pub type CombineFn = Box<dyn Fn(&mut [Option<Value>]) -> Value + Send + 'static>;

/// Slot shared with an external OS thread blocked on an LCO.
#[derive(Debug, Default)]
pub struct ExtSlot {
    value: Mutex<Option<Value>>,
    cv: Condvar,
}

impl ExtSlot {
    /// Fill the slot and wake the waiting thread.
    pub fn fill(&self, v: Value) {
        let mut g = self.value.lock();
        *g = Some(v);
        self.cv.notify_all();
    }

    /// Block until the slot is filled. A fault value (the LCO was
    /// poisoned — its producer died) surfaces as [`PxError::Fault`].
    pub fn wait(&self) -> PxResult<Value> {
        let mut g = self.value.lock();
        loop {
            if let Some(v) = g.take() {
                return surface_fault(v);
            }
            self.cv.wait(&mut g);
        }
    }

    /// Block until the slot is filled or `timeout` elapses. `Ok(None)` on
    /// timeout; a fault fill surfaces as [`PxError::Fault`].
    pub fn wait_timeout(&self, timeout: Duration) -> PxResult<Option<Value>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut g = self.value.lock();
        loop {
            if let Some(v) = g.take() {
                return surface_fault(v).map(Some);
            }
            if self.cv.wait_until(&mut g, deadline).timed_out() {
                return g.take().map(surface_fault).transpose();
            }
        }
    }
}

/// Turn a fault value into the error it carries; pass payloads through.
pub(crate) fn surface_fault(v: Value) -> PxResult<Value> {
    match v.fault() {
        Some(f) => Err(PxError::Fault(f)),
        None => Ok(v),
    }
}

/// A consumer of an LCO's value.
pub enum Waiter {
    /// Suspended PX-thread resumed at the LCO's locality.
    Depleted(DepletedThread),
    /// Suspended PX-thread resumed at the LCO's locality on the control
    /// lane: the requester of a control-lane request, whose reply rode
    /// that lane too (`Origin::request_then`).
    Control(DepletedThread),
    /// Remote continuation specifier applied with the value.
    Cont(crate::parcel::Continuation),
    /// External OS thread.
    External(Arc<ExtSlot>),
}

impl std::fmt::Debug for Waiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Waiter::Depleted(_) => f.write_str("Waiter::Depleted"),
            Waiter::Control(_) => f.write_str("Waiter::Control"),
            Waiter::Cont(c) => write!(f, "Waiter::Cont({} steps)", c.steps.len()),
            Waiter::External(_) => f.write_str("Waiter::External"),
        }
    }
}

/// Waiter activations produced by an LCO operation, to be scheduled by the
/// caller once the object lock is released.
pub type Activations = Vec<(Waiter, Value)>;

/// Firing rule and in-flight event state of an LCO.
pub enum LcoBody {
    /// Single-assignment value (the classic future; "futures permit
    /// anonymous producer-consumer computing").
    Future,
    /// Counting join: fires with unit after `remaining` triggers.
    AndGate {
        /// Triggers still needed.
        remaining: u64,
    },
    /// First trigger wins; later triggers are ignored (not errors).
    OrGate,
    /// Dataflow template: fires when every input slot is filled.
    Dataflow {
        /// Input slots (indexed by `trigger_slot`).
        slots: Vec<Option<Value>>,
        /// Unfilled slot count.
        missing: usize,
        /// Produces the fired value from the filled slots.
        combine: CombineFn,
    },
    /// Fold `remaining` contributions, then fire with the accumulator.
    Reduce {
        /// Contributions still expected.
        remaining: u64,
        /// Current accumulator (starts as the seed).
        acc: Option<Value>,
        /// Fold function.
        fold: ReduceFn,
    },
    /// Counting semaphore: never becomes `Ready`; each release wakes one
    /// acquirer (FIFO). A 1-permit semaphore is the LCO mutex.
    Semaphore {
        /// Available permits.
        permits: u64,
        /// Acquirers waiting for a permit.
        queue: VecDeque<Waiter>,
    },
}

impl std::fmt::Debug for LcoBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LcoBody::Future => f.write_str("Future"),
            LcoBody::AndGate { remaining } => write!(f, "AndGate({remaining})"),
            LcoBody::OrGate => f.write_str("OrGate"),
            LcoBody::Dataflow { slots, missing, .. } => {
                write!(
                    f,
                    "Dataflow({}/{} filled)",
                    slots.len() - missing,
                    slots.len()
                )
            }
            LcoBody::Reduce { remaining, .. } => write!(f, "Reduce({remaining} left)"),
            LcoBody::Semaphore { permits, queue } => {
                write!(f, "Semaphore({permits} permits, {} queued)", queue.len())
            }
        }
    }
}

enum LcoState {
    Pending {
        waiters: Vec<Waiter>,
        body: LcoBody,
    },
    Ready(Value),
    /// A producer died before the firing condition was met: every current
    /// and future waiter receives the fault instead of a value.
    Poisoned(Fault),
}

/// The synchronized core of every LCO.
pub struct LcoCore {
    gid: Gid,
    state: LcoState,
    /// Creation stamp for the spawn→resolution latency instrument; set by
    /// the locality store at insert time only when metrics are on (`None`
    /// otherwise), consumed once at resolution.
    born: Option<std::time::Instant>,
    /// Set at creation for an LCO with one reader ([`FutureRef`]).
    one_shot: bool,
    /// A one-shot LCO has handed its value to its reader: it is done and
    /// leaves the store ([`crate::locality::Locality::lco_op`]).
    read: bool,
}

impl std::fmt::Debug for LcoCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.state {
            LcoState::Pending { waiters, body } => f
                .debug_struct("LcoCore")
                .field("gid", &self.gid)
                .field("body", body)
                .field("waiters", &waiters.len())
                .finish(),
            LcoState::Ready(v) => f
                .debug_struct("LcoCore")
                .field("gid", &self.gid)
                .field("ready", v)
                .finish(),
            LcoState::Poisoned(fault) => f
                .debug_struct("LcoCore")
                .field("gid", &self.gid)
                .field("poisoned", fault)
                .finish(),
        }
    }
}

impl LcoCore {
    fn with_state(gid: Gid, state: LcoState) -> Self {
        LcoCore {
            gid,
            state,
            born: None,
            one_shot: false,
            read: false,
        }
    }

    fn pending(gid: Gid, body: LcoBody) -> Self {
        Self::with_state(
            gid,
            LcoState::Pending {
                waiters: Vec::new(),
                body,
            },
        )
    }

    /// Mark this LCO one-shot: the first waiter it hands its value (or
    /// fault) to is its reader, and the read frees it ([`FutureRef`]).
    pub(crate) fn one_shot(mut self) -> Self {
        self.one_shot = true;
        self
    }

    /// True once a one-shot LCO has been read.
    pub(crate) fn is_read(&self) -> bool {
        self.read
    }

    /// Stamp the creation time (metrics on; called by the locality store
    /// right after construction, before the LCO is reachable).
    pub(crate) fn set_born(&mut self, at: std::time::Instant) {
        self.born = Some(at);
    }

    /// Consume the creation stamp if the LCO has resolved (fired or
    /// poisoned): the spawn→resolution latency, measured once on this
    /// locality's clock. `None` before resolution, after the first
    /// harvest, or when metrics were off at creation.
    pub(crate) fn take_resolve_latency(&mut self) -> Option<std::time::Duration> {
        match self.state {
            LcoState::Ready(_) | LcoState::Poisoned(_) => self.born.take().map(|b| b.elapsed()),
            LcoState::Pending { .. } => None,
        }
    }

    /// New future LCO.
    pub fn new_future(gid: Gid) -> Self {
        Self::pending(gid, LcoBody::Future)
    }

    /// New and-gate expecting `n` triggers (n = 0 fires on first waiter
    /// registration, holding unit).
    pub fn new_and_gate(gid: Gid, n: u64) -> Self {
        if n == 0 {
            Self::with_state(gid, LcoState::Ready(Value::unit()))
        } else {
            Self::pending(gid, LcoBody::AndGate { remaining: n })
        }
    }

    /// New or-gate (first trigger wins).
    pub fn new_or_gate(gid: Gid) -> Self {
        Self::pending(gid, LcoBody::OrGate)
    }

    /// New dataflow template with `n` input slots and a combine function
    /// (n = 0 has nothing to wait for and fires at creation, like the
    /// zero-count gate and reduction constructors — a pending zero-slot
    /// template could never fire and would hang its waiters).
    pub fn new_dataflow(gid: Gid, n: usize, combine: CombineFn) -> Self {
        if n == 0 {
            return Self::with_state(gid, LcoState::Ready(combine(&mut [])));
        }
        Self::pending(
            gid,
            LcoBody::Dataflow {
                slots: (0..n).map(|_| None).collect(),
                missing: n,
                combine,
            },
        )
    }

    /// New reduction over `n` contributions starting from `seed`.
    pub fn new_reduce(gid: Gid, n: u64, seed: Value, fold: ReduceFn) -> Self {
        if n == 0 {
            Self::with_state(gid, LcoState::Ready(seed))
        } else {
            Self::pending(
                gid,
                LcoBody::Reduce {
                    remaining: n,
                    acc: Some(seed),
                    fold,
                },
            )
        }
    }

    /// New counting semaphore with `permits` initial permits.
    pub fn new_semaphore(gid: Gid, permits: u64) -> Self {
        Self::pending(
            gid,
            LcoBody::Semaphore {
                permits,
                queue: VecDeque::new(),
            },
        )
    }

    /// The LCO's global name.
    #[inline]
    pub fn gid(&self) -> Gid {
        self.gid
    }

    /// True once the LCO has fired.
    pub fn is_ready(&self) -> bool {
        matches!(self.state, LcoState::Ready(_))
    }

    /// True once the LCO has been poisoned (a producer died).
    pub fn is_poisoned(&self) -> bool {
        matches!(self.state, LcoState::Poisoned(_))
    }

    /// The poisoning fault, if any.
    pub fn poison_fault(&self) -> Option<&Fault> {
        match &self.state {
            LcoState::Poisoned(f) => Some(f),
            _ => None,
        }
    }

    /// Peek at the fired value.
    pub fn value(&self) -> Option<Value> {
        match &self.state {
            LcoState::Ready(v) => Some(v.clone()),
            _ => None,
        }
    }

    fn fire(&mut self, value: Value) -> Activations {
        let waiters = match &mut self.state {
            LcoState::Pending { waiters, .. } => std::mem::take(waiters),
            LcoState::Ready(_) | LcoState::Poisoned(_) => Vec::new(),
        };
        self.state = LcoState::Ready(value.clone());
        self.hand_out(waiters, &value)
    }

    /// Release `waiters` with `value` (or a fault) as the LCO resolves:
    /// for a one-shot LCO with a waiter, its read.
    fn hand_out(&mut self, waiters: Vec<Waiter>, value: &Value) -> Activations {
        self.read |= self.one_shot && !waiters.is_empty();
        waiters.into_iter().map(|w| (w, value.clone())).collect()
    }

    /// Poison the LCO: a producer it was waiting on died. Every current
    /// waiter — value waiters *and* queued semaphore acquirers — is
    /// released exactly once with the fault. A shared LCO hands it to
    /// every later waiter too, on registration. A one-shot LCO has one
    /// reader, fault or value: the fault goes to that reader — now, or on
    /// registration if none waits yet — and the read frees the LCO, so a
    /// later reader finds it gone (`NoSuchObject`, as any freed object).
    /// Poisoning an LCO that has already fired (or is already poisoned)
    /// is a no-op: its waiters were satisfied, and the fault was counted
    /// where it was raised.
    pub fn poison(&mut self, fault: Fault) -> Activations {
        match &mut self.state {
            LcoState::Ready(_) | LcoState::Poisoned(_) => Vec::new(),
            LcoState::Pending { waiters, body } => {
                let mut all = std::mem::take(waiters);
                if let LcoBody::Semaphore { queue, .. } = body {
                    all.extend(std::mem::take(queue));
                }
                let v = Value::error(&fault);
                self.state = LcoState::Poisoned(fault);
                self.hand_out(all, &v)
            }
        }
    }

    /// Deliver a trigger event. Semantics depend on the body; see the
    /// module table. Errors on double-triggering single-assignment LCOs.
    /// A *fault* value does not trigger — it poisons: gates, reductions,
    /// and futures all propagate an upstream death to their waiters
    /// instead of counting it as a completion.
    pub fn trigger(&mut self, value: Value) -> PxResult<Activations> {
        if let Some(f) = value.fault() {
            return Ok(self.poison(f));
        }
        match &mut self.state {
            LcoState::Ready(_) => match self_body_tolerates_retrigger(&self.state) {
                true => Ok(Vec::new()),
                false => Err(PxError::AlreadyTriggered(self.gid)),
            },
            LcoState::Poisoned(f) => Err(PxError::Fault(f.clone())),
            LcoState::Pending { body, .. } => match body {
                LcoBody::Future => Ok(self.fire(value)),
                LcoBody::AndGate { remaining } => {
                    *remaining -= 1;
                    if *remaining == 0 {
                        Ok(self.fire(Value::unit()))
                    } else {
                        Ok(Vec::new())
                    }
                }
                LcoBody::OrGate => Ok(self.fire(value)),
                LcoBody::Dataflow { .. } => Err(PxError::WrongObjectKind(self.gid)),
                LcoBody::Reduce { .. } => self.contribute(value),
                LcoBody::Semaphore { .. } => Ok(self.release()),
            },
        }
    }

    /// Fill dataflow slot `idx`. A fault value poisons the whole template
    /// (one dead input means the combine can never run).
    pub fn trigger_slot(&mut self, idx: usize, value: Value) -> PxResult<Activations> {
        if let Some(f) = value.fault() {
            return Ok(self.poison(f));
        }
        match &mut self.state {
            LcoState::Ready(_) => Err(PxError::AlreadyTriggered(self.gid)),
            LcoState::Poisoned(f) => Err(PxError::Fault(f.clone())),
            LcoState::Pending { body, .. } => match body {
                LcoBody::Dataflow {
                    slots,
                    missing,
                    combine,
                } => {
                    if idx >= slots.len() {
                        return Err(PxError::WrongObjectKind(self.gid));
                    }
                    if slots[idx].is_some() {
                        return Err(PxError::AlreadyTriggered(self.gid));
                    }
                    slots[idx] = Some(value);
                    *missing -= 1;
                    if *missing == 0 {
                        let v = combine(slots);
                        Ok(self.fire(v))
                    } else {
                        Ok(Vec::new())
                    }
                }
                _ => Err(PxError::WrongObjectKind(self.gid)),
            },
        }
    }

    /// Fold a contribution into a reduction LCO. A fault contribution
    /// poisons the reduction (the fold can never complete its count).
    pub fn contribute(&mut self, value: Value) -> PxResult<Activations> {
        if let Some(f) = value.fault() {
            return Ok(self.poison(f));
        }
        match &mut self.state {
            LcoState::Ready(_) => Err(PxError::AlreadyTriggered(self.gid)),
            LcoState::Poisoned(f) => Err(PxError::Fault(f.clone())),
            LcoState::Pending { body, .. } => match body {
                LcoBody::Reduce {
                    remaining,
                    acc,
                    fold,
                } => {
                    let cur = acc.take().expect("reduce accumulator present");
                    *acc = Some(fold(cur, value));
                    *remaining -= 1;
                    if *remaining == 0 {
                        let v = acc.take().expect("accumulator");
                        Ok(self.fire(v))
                    } else {
                        Ok(Vec::new())
                    }
                }
                _ => Err(PxError::WrongObjectKind(self.gid)),
            },
        }
    }

    /// Register a waiter for the fired value. If the LCO already fired,
    /// the activation is returned immediately; if it is poisoned, the
    /// waiter is released immediately with the fault.
    pub fn add_waiter(&mut self, w: Waiter) -> Activations {
        let Some(v) = self.read_now() else {
            if let LcoState::Pending { waiters, .. } = &mut self.state {
                waiters.push(w);
            }
            return Vec::new();
        };
        vec![(w, v)]
    }

    /// Read a resolved LCO in place, as a waiter would be handed it: its
    /// value, or its fault — for a one-shot LCO, the read. `None` while
    /// pending.
    pub(crate) fn read_now(&mut self) -> Option<Value> {
        let v = match &self.state {
            LcoState::Ready(v) => v.clone(),
            LcoState::Poisoned(f) => Value::error(f),
            LcoState::Pending { .. } => return None,
        };
        self.read |= self.one_shot;
        Some(v)
    }

    /// Withdraw the external waiter `slot`, whose wait timed out: a later
    /// firing then hands the value to nobody and leaves it here for a
    /// retry. `None` when the LCO is still pending. When it resolved
    /// first, `slot` was among the waiters it released and the outcome is
    /// returned from here — the slot itself may not be filled yet, since
    /// activations run after the lock.
    pub(crate) fn withdraw(&mut self, slot: &Arc<ExtSlot>) -> Option<Value> {
        if let LcoState::Pending { waiters, .. } = &mut self.state {
            waiters.retain(|w| !matches!(w, Waiter::External(s) if Arc::ptr_eq(s, slot)));
        }
        self.read_now()
    }

    /// Semaphore acquire: runs (or queues) the waiter when a permit is
    /// available. On a poisoned semaphore the waiter is released
    /// immediately with the fault instead of queueing forever; on an LCO
    /// that is not a semaphore the waiter is handed back with the error,
    /// so the caller can still tell it.
    pub fn acquire(&mut self, w: Waiter) -> Result<Activations, (PxError, Waiter)> {
        match &mut self.state {
            LcoState::Pending {
                body: LcoBody::Semaphore { permits, queue },
                ..
            } => {
                if *permits > 0 {
                    *permits -= 1;
                    Ok(vec![(w, Value::unit())])
                } else {
                    queue.push_back(w);
                    Ok(Vec::new())
                }
            }
            LcoState::Poisoned(f) => Ok(vec![(w, Value::error(f))]),
            _ => Err((PxError::WrongObjectKind(self.gid), w)),
        }
    }

    /// Semaphore release: wakes the oldest queued acquirer or banks a
    /// permit.
    pub fn release(&mut self) -> Activations {
        match &mut self.state {
            LcoState::Pending {
                body: LcoBody::Semaphore { permits, queue },
                ..
            } => {
                if let Some(w) = queue.pop_front() {
                    vec![(w, Value::unit())]
                } else {
                    *permits += 1;
                    Vec::new()
                }
            }
            _ => Vec::new(),
        }
    }
}

// Or-gates tolerate late triggers by design; everything else is
// single-assignment once Ready.
fn self_body_tolerates_retrigger(state: &LcoState) -> bool {
    // After firing the body is gone; we conservatively allow retrigger only
    // for unit values — covers or-gates and late and-gate arrivals caused by
    // benign races (e.g. broadcast cancellation). Single-assignment futures
    // carry data, and double data triggers are real bugs.
    match state {
        LcoState::Ready(v) => v.is_empty(),
        _ => false,
    }
}

/// Typed handle to a future LCO holding a `T`.
///
/// **A one-shot future has one reader, and the read frees it.** Every
/// constructor that hands out a `FutureRef` — `new_future`, `new_reduce`,
/// [`Ctx::call`], [`Ctx::fetch_data`], [`Ctx::store_data`],
/// `ProcessRef::broadcast` — makes a one-shot LCO, and the first waiter it
/// releases is its reader: a driver wait that returns a value or a fault
/// ([`FutureRef::wait`], [`FutureRef::wait_timeout`]), a depleted thread's
/// resumption ([`Ctx::when_ready`], `when_future`, `when_resolved`), or a
/// remote `LCO_GET` whose continuation is applied. That release removes
/// the future from its locality's store, so the store stays bounded by
/// what is in flight (§2.2). A second read finds nothing
/// ([`PxError::NoSuchObject`]), and so does a late `set_future`. GIDs are
/// never reused, so a stale event cannot reach a newer object.
///
/// A wait that times out is not a read: it withdraws its waiter, and a
/// later firing leaves the value for the retry. A future nobody reads —
/// one abandoned after a timeout — stays in the store; cancelling its
/// process poisons it (a late reader gets the fault) but does not free
/// it. Gates, dataflows, semaphores and a process's done future are
/// shared: reading them frees nothing, including through a
/// [`FutureRef::from_gid`] wrapper.
///
/// The handle is `Copy` (a GID plus phantom type); the value lives at the
/// future's locality.
pub struct FutureRef<T> {
    gid: Gid,
    _t: PhantomData<fn() -> T>,
}

impl<T> Clone for FutureRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for FutureRef<T> {}

impl<T> std::fmt::Debug for FutureRef<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FutureRef({})", self.gid)
    }
}

impl<T: serde::Serialize + serde::de::DeserializeOwned> FutureRef<T> {
    /// Wrap an existing LCO GID (the GID must identify a future holding a
    /// `T` — this is the untyped escape hatch).
    pub fn from_gid(gid: Gid) -> Self {
        FutureRef {
            gid,
            _t: PhantomData,
        }
    }

    /// The future's global name.
    #[inline]
    pub fn gid(&self) -> Gid {
        self.gid
    }

    /// Block the calling OS thread until the future fires (external
    /// driver use only — PX-threads suspend instead of blocking).
    pub fn wait(&self, rt: &crate::runtime::Runtime) -> PxResult<T> {
        rt.wait_future(*self)
    }

    /// As [`FutureRef::wait`] with a timeout; `None` on timeout.
    pub fn wait_timeout(
        &self,
        rt: &crate::runtime::Runtime,
        timeout: Duration,
    ) -> PxResult<Option<T>> {
        rt.wait_future_timeout(*self, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gid::{GidKind, LocalityId};

    fn gid(n: u64) -> Gid {
        Gid::new(LocalityId(0), GidKind::Lco, n)
    }

    fn val(n: u64) -> Value {
        Value::encode(&n).unwrap()
    }

    #[test]
    fn future_fires_once() {
        let mut f = LcoCore::new_future(gid(1));
        assert!(!f.is_ready());
        let acts = f.trigger(val(9)).unwrap();
        assert!(acts.is_empty(), "no waiters yet");
        assert!(f.is_ready());
        assert_eq!(f.value().unwrap().decode::<u64>().unwrap(), 9);
        assert!(matches!(
            f.trigger(val(10)),
            Err(PxError::AlreadyTriggered(_))
        ));
    }

    #[test]
    fn waiter_before_and_after_fire() {
        let mut f = LcoCore::new_future(gid(1));
        let none = f.add_waiter(Waiter::Cont(crate::parcel::Continuation::none()));
        assert!(none.is_empty());
        let acts = f.trigger(val(3)).unwrap();
        assert_eq!(acts.len(), 1);
        // Late waiter gets the value immediately.
        let late = f.add_waiter(Waiter::Cont(crate::parcel::Continuation::none()));
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].1.decode::<u64>().unwrap(), 3);
    }

    #[test]
    fn and_gate_counts() {
        let mut g = LcoCore::new_and_gate(gid(2), 3);
        assert!(g.trigger(Value::unit()).unwrap().is_empty());
        assert!(g.trigger(Value::unit()).unwrap().is_empty());
        assert!(!g.is_ready());
        g.trigger(Value::unit()).unwrap();
        assert!(g.is_ready());
        // Late unit trigger tolerated (benign race).
        assert!(g.trigger(Value::unit()).unwrap().is_empty());
    }

    #[test]
    fn and_gate_zero_is_ready() {
        let g = LcoCore::new_and_gate(gid(3), 0);
        assert!(g.is_ready());
    }

    #[test]
    fn or_gate_first_wins() {
        let mut g = LcoCore::new_or_gate(gid(4));
        g.trigger(val(1)).unwrap();
        assert_eq!(g.value().unwrap().decode::<u64>().unwrap(), 1);
        // Later triggers ignored only if unit… data retrigger is an error.
        assert!(g.trigger(val(2)).is_err());
    }

    #[test]
    fn dataflow_fires_when_all_slots_filled() {
        let combine: CombineFn = Box::new(|slots| {
            let sum: u64 = slots
                .iter_mut()
                .map(|s| s.take().unwrap().decode::<u64>().unwrap())
                .sum();
            Value::encode(&sum).unwrap()
        });
        let mut d = LcoCore::new_dataflow(gid(5), 3, combine);
        d.trigger_slot(0, val(10)).unwrap();
        d.trigger_slot(2, val(30)).unwrap();
        assert!(!d.is_ready());
        d.trigger_slot(1, val(2)).unwrap();
        assert!(d.is_ready());
        assert_eq!(d.value().unwrap().decode::<u64>().unwrap(), 42);
    }

    #[test]
    fn dataflow_rejects_double_slot() {
        let combine: CombineFn = Box::new(|_| Value::unit());
        let mut d = LcoCore::new_dataflow(gid(6), 2, combine);
        d.trigger_slot(0, val(1)).unwrap();
        assert!(d.trigger_slot(0, val(1)).is_err());
        assert!(d.trigger_slot(5, val(1)).is_err());
    }

    #[test]
    fn reduce_folds_in_any_interleaving() {
        let fold: ReduceFn = Box::new(|a, b| {
            let x: u64 = a.decode().unwrap();
            let y: u64 = b.decode().unwrap();
            Value::encode(&(x + y)).unwrap()
        });
        let mut r = LcoCore::new_reduce(gid(7), 4, val(0), fold);
        for i in 1..=4u64 {
            r.contribute(val(i)).unwrap();
        }
        assert_eq!(r.value().unwrap().decode::<u64>().unwrap(), 10);
    }

    #[test]
    fn semaphore_permit_accounting() {
        let mut s = LcoCore::new_semaphore(gid(8), 1);
        // First acquire proceeds immediately.
        let a = s
            .acquire(Waiter::Cont(crate::parcel::Continuation::none()))
            .unwrap();
        assert_eq!(a.len(), 1);
        // Second queues.
        let b = s
            .acquire(Waiter::Cont(crate::parcel::Continuation::none()))
            .unwrap();
        assert!(b.is_empty());
        // Release hands the permit to the queued waiter, FIFO.
        let rel = s.release();
        assert_eq!(rel.len(), 1);
        // Release with empty queue banks a permit.
        assert!(s.release().is_empty());
        let c = s
            .acquire(Waiter::Cont(crate::parcel::Continuation::none()))
            .unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn trigger_on_dataflow_is_type_error() {
        let combine: CombineFn = Box::new(|_| Value::unit());
        let mut d = LcoCore::new_dataflow(gid(9), 1, combine);
        assert!(matches!(
            d.trigger(val(0)),
            Err(PxError::WrongObjectKind(_))
        ));
    }

    #[test]
    fn ext_slot_fill_then_wait() {
        let slot = Arc::new(ExtSlot::default());
        slot.fill(val(5));
        assert_eq!(slot.wait().unwrap().decode::<u64>().unwrap(), 5);
    }

    #[test]
    fn ext_slot_cross_thread() {
        let slot = Arc::new(ExtSlot::default());
        let s2 = slot.clone();
        let h = std::thread::spawn(move || s2.wait().unwrap().decode::<u64>().unwrap());
        std::thread::sleep(Duration::from_millis(10));
        slot.fill(val(77));
        assert_eq!(h.join().unwrap(), 77);
    }

    #[test]
    fn ext_slot_timeout() {
        let slot = ExtSlot::default();
        assert!(slot
            .wait_timeout(Duration::from_millis(5))
            .unwrap()
            .is_none());
    }

    #[test]
    fn ext_slot_fault_fill_surfaces_error() {
        let slot = ExtSlot::default();
        let f = sample_fault();
        slot.fill(Value::error(&f));
        match slot.wait_timeout(Duration::from_secs(1)) {
            Err(PxError::Fault(got)) => assert_eq!(got, f),
            other => panic!("expected fault, got {other:?}"),
        }
        slot.fill(Value::error(&f));
        assert!(matches!(slot.wait(), Err(PxError::Fault(_))));
    }

    fn sample_fault() -> Fault {
        Fault::new(
            crate::error::FaultCause::Panic,
            crate::action::ActionId::of("t/dead"),
            gid(99),
            "producer died",
        )
    }

    #[test]
    fn poison_releases_current_and_future_waiters() {
        let mut fu = LcoCore::new_future(gid(20));
        assert!(fu
            .add_waiter(Waiter::Cont(crate::parcel::Continuation::none()))
            .is_empty());
        let acts = fu.poison(sample_fault());
        assert_eq!(acts.len(), 1, "current waiter released");
        assert!(acts[0].1.is_fault());
        assert!(fu.is_poisoned());
        assert!(!fu.is_ready());
        assert_eq!(fu.poison_fault().unwrap(), &sample_fault());
        // Future waiters resolve immediately with the same fault.
        let late = fu.add_waiter(Waiter::Cont(crate::parcel::Continuation::none()));
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].1.fault().unwrap(), sample_fault());
        // Triggers after poison surface the fault to the triggerer.
        assert!(matches!(fu.trigger(val(1)), Err(PxError::Fault(_))));
    }

    #[test]
    fn fault_trigger_poisons_gates_and_reductions() {
        let mut g = LcoCore::new_and_gate(gid(21), 3);
        g.trigger(Value::unit()).unwrap();
        let acts = g.trigger(Value::error(&sample_fault())).unwrap();
        assert!(acts.is_empty(), "no waiters yet");
        assert!(g.is_poisoned(), "a dead contributor poisons the gate");

        let fold: ReduceFn = Box::new(|a, _| a);
        let mut r = LcoCore::new_reduce(gid(22), 2, val(0), fold);
        r.contribute(Value::error(&sample_fault())).unwrap();
        assert!(r.is_poisoned());

        let combine: CombineFn = Box::new(|_| Value::unit());
        let mut d = LcoCore::new_dataflow(gid(23), 2, combine);
        d.trigger_slot(1, Value::error(&sample_fault())).unwrap();
        assert!(d.is_poisoned());
    }

    #[test]
    fn poison_after_fire_is_noop() {
        let mut fu = LcoCore::new_future(gid(24));
        fu.trigger(val(8)).unwrap();
        assert!(fu.poison(sample_fault()).is_empty());
        assert!(fu.is_ready(), "a late fault cannot un-fire an LCO");
        assert_eq!(fu.value().unwrap().decode::<u64>().unwrap(), 8);
        // Double poison is equally a no-op.
        let mut p = LcoCore::new_future(gid(25));
        p.poison(sample_fault());
        assert!(p.poison(sample_fault()).is_empty());
    }

    #[test]
    fn poison_drains_semaphore_queue() {
        let mut s = LcoCore::new_semaphore(gid(26), 0);
        s.acquire(Waiter::Cont(crate::parcel::Continuation::none()))
            .unwrap();
        s.acquire(Waiter::External(Arc::new(ExtSlot::default())))
            .unwrap();
        let acts = s.poison(sample_fault());
        assert_eq!(acts.len(), 2, "queued acquirers released with the fault");
        assert!(acts.iter().all(|(_, v)| v.is_fault()));
        // A later acquire resolves immediately with the fault, not a hang.
        let late = s
            .acquire(Waiter::Cont(crate::parcel::Continuation::none()))
            .unwrap();
        assert_eq!(late.len(), 1);
        assert!(late[0].1.is_fault());
        assert!(s.release().is_empty());
    }

    #[test]
    fn zero_count_lcos_fire_at_creation() {
        assert!(LcoCore::new_and_gate(gid(27), 0).is_ready());
        let fold: ReduceFn = Box::new(|a, _| a);
        let r = LcoCore::new_reduce(gid(28), 0, val(3), fold);
        assert!(r.is_ready());
        assert_eq!(r.value().unwrap().decode::<u64>().unwrap(), 3);
        let combine: CombineFn = Box::new(|slots| {
            assert!(slots.is_empty());
            Value::encode(&11u64).unwrap()
        });
        let d = LcoCore::new_dataflow(gid(29), 0, combine);
        assert!(d.is_ready(), "zero-slot dataflow must not hang its waiters");
        assert_eq!(d.value().unwrap().decode::<u64>().unwrap(), 11);
    }
}
