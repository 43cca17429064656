//! The PX-thread view of the runtime: an [`Origin`] on the worker's own
//! locality.

use crate::action::{Action, Value};
use crate::error::{Fault, PxResult};
use crate::gid::{Gid, LocalityId};
use crate::lco::{CombineFn, FutureRef, LcoCore, ReduceFn, Waiter};
use crate::locality::Locality;
use crate::origin::Origin;
use crate::parcel::{Continuation, Parcel};
use crate::runtime::RuntimeInner;
use crate::sched::{Task, Work};
use crate::sys;
use serde::{de::DeserializeOwned, Serialize};
use std::sync::Arc;

/// Per-activation context handed to every PX-thread.
///
/// All operations are split-phase: nothing here blocks. A thread needing a
/// value that is not yet available either *suspends* ([`Ctx::when_ready`] —
/// its continuation becomes a depleted-thread LCO waiter) or *terminates*
/// into a parcel ([`Ctx::send`] with a continuation).
pub struct Ctx<'a> {
    /// Where this thread's calls come from: the locality it serves, its
    /// process and its trace.
    pub(crate) from: Origin<'a>,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(
        rt: &'a Arc<RuntimeInner>,
        loc: &'a Arc<Locality>,
        process: Option<Gid>,
        trace: Option<u64>,
    ) -> Self {
        let from = Origin::at(rt, loc).with_process(process).with_trace(trace);
        Ctx { from }
    }

    /// This rank's merged trace dump (empty when tracing is off) — the
    /// same view as [`crate::runtime::Runtime::trace_dump`], available
    /// from inside an action so a peer can fetch another rank's slice
    /// *in-band*: send an action that returns
    /// `ctx.trace_dump().filter(id).events` and merge the reply with the
    /// local dump.
    pub fn trace_dump(&self) -> crate::trace::TraceDump {
        self.from.rt().local_trace_dump()
    }

    /// The locality this thread serves (threads are ephemeral and serve a
    /// single locality, §2.2).
    #[inline]
    pub fn here(&self) -> LocalityId {
        self.from.loc().id
    }

    /// Number of localities in the system.
    #[inline]
    pub fn num_localities(&self) -> usize {
        self.from.rt().localities.len()
    }

    /// The current locality object (object store access).
    #[inline]
    pub fn locality(&self) -> &Arc<Locality> {
        self.from.loc()
    }

    /// Crate-internal runtime access.
    #[inline]
    pub(crate) fn rt_inner(&self) -> &Arc<RuntimeInner> {
        self.from.rt()
    }

    /// True when `gid` was born and still lives at this locality: the
    /// thread may operate on it in place.
    fn resident(&self, gid: Gid) -> bool {
        gid.birthplace() == self.here() && self.locality().contains(gid)
    }

    // ---- spawning ----------------------------------------------------------

    /// Spawn a PX-thread on this locality (LIFO on the worker's own ring —
    /// the cache-friendly fast path, `Locality::spawn_here`). Inherits
    /// the current process. When the balancer is on, an overloaded
    /// locality sheds the oldest of these to a quieter peer (the
    /// `balance` module).
    pub fn spawn(&mut self, f: impl FnOnce(&mut Ctx<'_>) + Send + 'static) {
        let (rt, loc) = (self.from.rt(), self.from.loc());
        if self.from.spawn_rejected(loc.id) {
            return;
        }
        let task = Task::new(Work::Thread(Box::new(f)))
            .with_process(self.from.process)
            .with_trace(self.from.trace);
        if let Some(p) = self.from.process {
            rt.process_task_started(p, loc.id);
        }
        loc.spawn_here(task);
    }

    /// Spawn a PX-thread at another locality (closure transfer paying
    /// wire latency; for data-bearing work prefer actions + parcels).
    /// Inherits the current process; to spawn into another one, use
    /// [`crate::process::ProcessRef::spawn_at`].
    pub fn spawn_at(&mut self, dest: LocalityId, f: impl FnOnce(&mut Ctx<'_>) + Send + 'static) {
        self.from.spawn_at(dest, f);
    }

    // ---- parcels -----------------------------------------------------------

    /// Send an action parcel: terminate-into-parcel style control
    /// migration (§2.2: work moves to the data).
    pub fn send<A: Action>(
        &mut self,
        target: Gid,
        args: A::Args,
        cont: Continuation,
    ) -> PxResult<()> {
        self.from.send_action::<A>(target, &args, cont)
    }

    /// Send an action and obtain a local future for its result.
    pub fn call<A: Action>(&mut self, target: Gid, args: A::Args) -> PxResult<FutureRef<A::Out>> {
        let fut = self.new_future::<A::Out>();
        self.send::<A>(target, args, Continuation::set(fut.gid()))?;
        Ok(fut)
    }

    /// Send a raw parcel (advanced; normal code uses [`Ctx::send`]).
    pub fn send_parcel(&mut self, p: Parcel) {
        self.from.send(p);
    }

    // ---- LCO creation -------------------------------------------------------

    /// Create a local future. Inside a process, the future is
    /// process-owned: cancelling the process poisons it.
    pub fn new_future<T: Serialize + DeserializeOwned>(&mut self) -> FutureRef<T> {
        FutureRef::from_gid(self.from.new_one_shot(self.here(), LcoCore::new_future))
    }

    /// Create a local and-gate over `n` events (process-owned inside a
    /// process, like [`Ctx::new_future`]).
    pub fn new_and_gate(&mut self, n: u64) -> Gid {
        let here = self.here();
        self.from.new_lco(here, |gid| LcoCore::new_and_gate(gid, n))
    }

    /// Create a local dataflow template with `n` slots (process-owned
    /// inside a process).
    pub fn new_dataflow(&mut self, n: usize, combine: CombineFn) -> Gid {
        let here = self.here();
        self.from
            .new_lco(here, |gid| LcoCore::new_dataflow(gid, n, combine))
    }

    /// Create a local reduction LCO (process-owned inside a process).
    pub fn new_reduce<T: Serialize + DeserializeOwned>(
        &mut self,
        n: u64,
        seed: &T,
        fold: ReduceFn,
    ) -> PxResult<FutureRef<T>> {
        let seed = Value::encode(seed)?;
        let here = self.here();
        let gid = self
            .from
            .new_one_shot(here, |gid| LcoCore::new_reduce(gid, n, seed, fold));
        Ok(FutureRef::from_gid(gid))
    }

    /// Create a local counting semaphore (process-owned inside a
    /// process).
    pub fn new_semaphore(&mut self, permits: u64) -> Gid {
        let here = self.here();
        self.from
            .new_lco(here, |gid| LcoCore::new_semaphore(gid, permits))
    }

    // ---- LCO events ----------------------------------------------------------

    /// Trigger an LCO (anywhere) with a typed value.
    pub fn trigger<T: Serialize>(&mut self, gid: Gid, value: &T) -> PxResult<()> {
        self.trigger_value(gid, Value::encode(value)?);
        Ok(())
    }

    /// Trigger an LCO with an already-encoded value.
    pub fn trigger_value(&mut self, gid: Gid, value: Value) {
        self.from.lco_event(gid, sys::LCO_SET, value);
    }

    /// Fill a typed future.
    pub fn set_future<T: Serialize + DeserializeOwned>(
        &mut self,
        fut: FutureRef<T>,
        value: &T,
    ) -> PxResult<()> {
        self.trigger(fut.gid(), value)
    }

    /// Fill dataflow slot `idx` of an LCO (anywhere).
    pub fn set_slot<T: Serialize>(&mut self, gid: Gid, idx: u32, value: &T) -> PxResult<()> {
        let v = Value::encode(value)?;
        if self.resident(gid) {
            self.from.lco_op(gid, |l| l.trigger_slot(idx as usize, v))?;
        } else {
            let fill = sys::msg::SetSlot { idx, value: v };
            self.from.send_sys(fill.parcel(gid, None));
        }
        Ok(())
    }

    /// Contribute to a reduction LCO (anywhere).
    pub fn contribute<T: Serialize>(&mut self, gid: Gid, value: &T) -> PxResult<()> {
        self.from
            .lco_event(gid, sys::LCO_CONTRIBUTE, Value::encode(value)?);
        Ok(())
    }

    // ---- suspension (depleted threads) ---------------------------------------

    /// Suspend on an LCO: deposit `f` as a depleted thread, resumed with
    /// the LCO's value. For a *remote* LCO the value is pulled with a
    /// `__sys/lco_get` request whose reply resumes `f` here — the thread
    /// itself still suspends locally (threads serve one locality).
    /// If `gid` is not an LCO, `f` is resumed with the fault that killed
    /// the request, from the local and the remote arm alike.
    pub fn when_ready(&mut self, gid: Gid, f: impl FnOnce(&mut Ctx<'_>, Value) + Send + 'static) {
        if self.resident(gid) {
            self.from.suspend_on(gid, false, f);
        } else {
            self.from.request_then(sys::bare(gid, sys::LCO_GET), f);
        }
    }

    /// Typed suspension on a future. The continuation runs only on
    /// success; a fault or a type mismatch silently drops it — use
    /// [`Ctx::when_resolved`] when the thread must observe failure.
    pub fn when_future<T, F>(&mut self, fut: FutureRef<T>, f: F)
    where
        T: Serialize + DeserializeOwned + 'static,
        F: FnOnce(&mut Ctx<'_>, T) + Send + 'static,
    {
        self.when_ready(fut.gid(), move |ctx, v| {
            if let Ok(t) = v.decode::<T>() {
                f(ctx, t);
            }
        });
    }

    /// Fault-aware typed suspension: the continuation always runs, with
    /// `Ok(value)` when the future fired or `Err(PxError::Fault)` when
    /// the parcel that was to fill it died (hop-cap, panic, unknown
    /// action, handler error). The split-phase counterpart of
    /// [`crate::lco::FutureRef::wait`]'s error return.
    pub fn when_resolved<T, F>(&mut self, fut: FutureRef<T>, f: F)
    where
        T: Serialize + DeserializeOwned + 'static,
        F: FnOnce(&mut Ctx<'_>, PxResult<T>) + Send + 'static,
    {
        self.when_ready(fut.gid(), move |ctx, v| f(ctx, v.decode::<T>()));
    }

    /// Acquire a semaphore LCO (anywhere); `f` runs when a permit is
    /// granted. Pair with [`Ctx::release`].
    ///
    /// If the semaphore is (or becomes) *poisoned*, or `sem` is not a
    /// semaphore at all, `f` is dropped rather than run — releasing
    /// waiters into their critical sections without a permit would
    /// silently break the mutual exclusion the semaphore exists to
    /// provide — and the drop is reported to the dead-letter hook. Raw
    /// `LCO_ACQUIRE` parcels observe the fault through their
    /// continuations instead.
    pub fn acquire(&mut self, sem: Gid, f: impl FnOnce(&mut Ctx<'_>) + Send + 'static) {
        let granted = move |ctx: &mut Ctx<'_>, v: Value| match v.fault() {
            None => f(ctx),
            Some(fault) => ctx.rt_inner().notify_dead_letter(
                &Fault::new(
                    fault.cause,
                    fault.action,
                    sem,
                    format!("acquire continuation dropped, no permit granted: {fault}"),
                ),
                None,
            ),
        };
        if self.resident(sem) {
            let w = Waiter::Depleted(Box::new(granted));
            self.from
                .deposit(sem, sys::LCO_ACQUIRE, w, |l, w| l.acquire(w));
        } else {
            self.from
                .request_then(sys::bare(sem, sys::LCO_ACQUIRE), granted);
        }
    }

    /// Release a semaphore LCO (anywhere).
    pub fn release(&mut self, sem: Gid) {
        if self.resident(sem) {
            // Releasing a missing/poisoned semaphore has no observer to
            // tell; the release is simply lost (as before).
            let _ = self.from.lco_op(sem, |l| Ok(l.release()));
        } else {
            self.from.send_sys(sys::bare(sem, sys::LCO_RELEASE));
        }
    }

    // ---- data objects ---------------------------------------------------------

    /// Create a local data object.
    pub fn new_data(&mut self, bytes: Vec<u8>) -> Gid {
        self.from.new_data(self.here(), bytes)
    }

    /// Read a *local* data object.
    pub fn read_local_data(&self, gid: Gid) -> PxResult<Vec<u8>> {
        self.locality().data_op(gid, |d| d.read().bytes.clone())
    }

    /// Fetch a possibly-remote data object into a local future
    /// (data-to-work movement; the comparison point for E6).
    pub fn fetch_data(&mut self, gid: Gid) -> FutureRef<Vec<u8>> {
        let fut = self.new_future::<Vec<u8>>();
        let cont = Continuation::set(fut.gid());
        self.from
            .send_sys(Parcel::new(gid, sys::DATA_GET, Value::unit(), cont));
        fut
    }

    /// Overwrite a possibly-remote data object; the returned future fires
    /// (unit) when the write is applied.
    pub fn store_data(&mut self, gid: Gid, bytes: &[u8]) -> PxResult<FutureRef<()>> {
        let fut = self.new_future::<()>();
        let cont = Continuation::set(fut.gid());
        self.from.send_sys(Parcel::new(
            gid,
            sys::DATA_PUT,
            Value::encode(&bytes)?,
            cont,
        ));
        Ok(fut)
    }

    // ---- names ------------------------------------------------------------------

    /// Bind a symbolic name.
    pub fn register_name(&mut self, name: &str, gid: Gid) -> PxResult<()> {
        self.from.rt().names.register_name(name, gid)
    }

    /// Resolve a symbolic name.
    pub fn lookup_name(&self, name: &str) -> PxResult<Gid> {
        self.from.rt().names.lookup_name(name)
    }
}
