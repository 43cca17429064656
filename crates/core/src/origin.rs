//! The origin of a client call: who is asking, and from where.
//!
//! §2.2 makes every operation an operation *from somewhere* — "a thread
//! is ephemeral and serves a single locality", and the parcel is the only
//! inter-locality mechanism. So every client call needs the same facts:
//! the runtime, the locality it is issued from, the parallel process it
//! is accounted to and the trace it belongs to. An [`Origin`] is those
//! facts as one `Copy` value. The driver's [`Runtime`] and a PX-thread's
//! [`Ctx`] each produce one through the sealed [`Caller`] trait, and every
//! operation that differs only in *who calls it* — send a parcel, hand
//! over a closure, create an LCO, route an LCO event, suspend, ask and
//! resume (`sys/request.rs`) — is written once, on the origin. A function
//! both sides may call takes `&impl Caller`.

use crate::action::{Action, ActionId, Value};
use crate::ctx::Ctx;
use crate::error::{PxError, PxResult};
use crate::gid::{Gid, GidKind, LocalityId};
use crate::lco::{Activations, DepletedThread, LcoCore, Waiter};
use crate::locality::{DataObject, Locality, Stored};
use crate::parcel::{Continuation, Parcel};
use crate::runtime::{Runtime, RuntimeInner};
use crate::sched::{cause_of, Task, Work};
use crate::stats::bump;
use crate::sys::lco::lco_sys_op;
use crate::trace::TraceEventKind;
use parking_lot::RwLock;
use std::sync::Arc;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Runtime {}
    impl Sealed for super::Ctx<'_> {}
    impl Sealed for std::sync::Arc<super::Runtime> {}
}

/// A handle client calls are made through: the driver's [`Runtime`] or a
/// PX-thread's [`Ctx`]. Sealed: an origin's locality must be one this OS
/// process owns, which only the runtime's own handles can promise.
pub trait Caller: sealed::Sealed {
    /// Where calls made through this handle come from.
    fn origin(&self) -> Origin<'_>;
}

impl Caller for Runtime {
    /// The rank this OS process owns (locality 0 in-process, the seed
    /// convention); no process, no trace.
    fn origin(&self) -> Origin<'_> {
        let rt = self.inner();
        Origin {
            resident: false,
            ..Origin::at(rt, rt.locality(rt.origin))
        }
    }
}

/// Driver threads share the runtime as an `Arc`; it calls as the runtime.
impl Caller for Arc<Runtime> {
    fn origin(&self) -> Origin<'_> {
        (**self).origin()
    }
}

impl Caller for Ctx<'_> {
    /// The locality the thread serves, its process and its trace.
    fn origin(&self) -> Origin<'_> {
        self.from
    }
}

/// Where a client call comes from (see the module docs).
#[derive(Clone, Copy)]
pub struct Origin<'a> {
    rt: &'a Arc<RuntimeInner>,
    /// Parcels are stamped, booked and routed *from* here, so it is
    /// always a locality whose workers run in this OS process.
    loc: &'a Arc<Locality>,
    /// The parallel process the caller's work is accounted to.
    pub(crate) process: Option<Gid>,
    /// The trace the caller runs under.
    pub(crate) trace: Option<u64>,
    /// The caller is a PX-thread running at `loc`. The driver is not: it
    /// sends *as* `loc` but was never there.
    resident: bool,
}

impl<'a> Origin<'a> {
    /// The runtime's own calls on one of `loc`'s workers (a handler, a
    /// protocol step), and the start of every other origin.
    pub(crate) fn at(rt: &'a Arc<RuntimeInner>, loc: &'a Arc<Locality>) -> Origin<'a> {
        debug_assert!(!loc.remote_stub, "an origin is a locality this rank owns");
        Origin {
            rt,
            loc,
            process: None,
            trace: None,
            resident: true,
        }
    }

    /// Account what this origin sends and spawns to `process`.
    pub(crate) fn with_process(mut self, process: Option<Gid>) -> Origin<'a> {
        self.process = process;
        self
    }

    /// Put what this origin causes under `trace`.
    pub(crate) fn with_trace(mut self, trace: Option<u64>) -> Origin<'a> {
        self.trace = trace;
        self
    }

    /// The runtime.
    #[inline]
    pub(crate) fn rt(self) -> &'a Arc<RuntimeInner> {
        self.rt
    }

    /// The locality calls are issued from.
    #[inline]
    pub(crate) fn loc(self) -> &'a Arc<Locality> {
        self.loc
    }

    // ---- parcels -----------------------------------------------------------

    /// Stamp and send `p` toward its target's resolved owner: the one
    /// place a parcel gets its sender, owning process and trace, and
    /// pays the wire when it crosses localities.
    pub(crate) fn send(self, p: Parcel) {
        self.send_toward(None, false, p);
    }

    /// [`Origin::send`], routed to `site` instead of the target's owner
    /// when one is given (percolation targets hardware, not the object's
    /// home), and on the control lane when `control` is set, whatever the
    /// action (the reply to a control-lane request rides the lane its
    /// request did).
    pub(crate) fn send_toward(self, site: Option<LocalityId>, control: bool, mut p: Parcel) {
        let (rt, here) = (self.rt, self.loc.id);
        p.arm(rt);
        p.src = here;
        p.process = p.process.or(self.process);
        p.trace = p.trace.or(self.trace);
        // Trace sampler: an untraced parcel entering the send path is a
        // root; one in `sample_every` gets a fresh id here. One `Option`
        // branch when tracing is off.
        if p.trace.is_none() {
            if let Some(ts) = &rt.trace {
                p.trace = ts.maybe_sample();
            }
        }
        let owner = site.unwrap_or_else(|| self.loc.agas.resolve_counted(self.loc, p.dest));
        // Balancer heat hook: remember that we keep addressing this
        // remote object, so the balancer can pull it toward us (heat is
        // drained every gossip round; see `crate::balance`). Gated on
        // `track_heat` so the default send path — and any policy that
        // never migrates — skips the lock entirely.
        if rt.track_heat && owner != here && p.dest.kind() == GidKind::Data {
            self.loc.agas.note_access(here, p.dest);
        }
        self.loc.trace_event(
            p.trace,
            TraceEventKind::ParcelSend,
            p.dest.0,
            u64::from(owner.0),
        );
        rt.route_parcel(here, owner, control, p);
    }

    /// [`Origin::send`] for a system parcel — an LCO event, a data get or
    /// put, an echo message: the runtime's traffic on the caller's behalf.
    /// It inherits the trace but not the process. Cancelling a process
    /// kills its *work* at dispatch, and an event a running thread has
    /// already issued is not work to kill: a dead release leaks the
    /// permit, a dead trigger hangs the waiter.
    pub(crate) fn send_sys(self, p: Parcel) {
        self.with_process(None).send(p);
    }

    /// Send action `A` on `target` with `args`; `cont` gets the result.
    pub(crate) fn send_action<A: Action>(
        self,
        target: Gid,
        args: &A::Args,
        cont: Continuation,
    ) -> PxResult<()> {
        self.send(Parcel::new(target, A::id(), Value::encode(args)?, cont));
        Ok(())
    }

    // ---- closure tasks -----------------------------------------------------

    /// Hand `f` to `dest` as a PX-thread of this origin's process and
    /// trace: the one gate-and-send of a closure task. A thread's closure
    /// leaves its locality over the wire (nominal size, real latency);
    /// the driver's was never resident anywhere and is injected where it
    /// runs. Closures do not serialize, so a `dest` in another OS process
    /// is a loud death (`RuntimeInner::send_task`).
    pub(crate) fn spawn_at(self, dest: LocalityId, f: impl FnOnce(&mut Ctx<'_>) + Send + 'static) {
        if self.spawn_rejected(dest) {
            return;
        }
        let task = Task::new(Work::Thread(Box::new(f)))
            .with_process(self.process)
            .with_trace(self.trace);
        let from = if self.resident { self.loc.id } else { dest };
        self.rt.send_task(from, dest, task);
    }

    /// The cancellation gate of every spawn: when this origin's process
    /// is cancelled the spawn is rejected loudly (counted at `dest`,
    /// reported to the dead-letter hook) and true is returned. One
    /// `Option` branch when no process is attached.
    pub(crate) fn spawn_rejected(self, dest: LocalityId) -> bool {
        let cancelled = self.process.and_then(|pg| self.rt.process_cancel_fault(pg));
        let Some(fault) = cancelled else {
            return false;
        };
        bump!(self.rt.locality(dest).counters().tasks_cancelled);
        self.rt.notify_dead_letter(&fault, None);
        true
    }

    // ---- objects -----------------------------------------------------------

    /// Create a shared LCO at `at` (a gate, dataflow or semaphore: reading
    /// it frees nothing) and record it in the owning process, if there is
    /// one, so cancellation can poison it.
    pub(crate) fn new_lco(self, at: LocalityId, build: impl FnOnce(Gid) -> LcoCore) -> Gid {
        let gid = self.rt.locality(at).new_lco(build);
        self.own_lco(gid);
        gid
    }

    /// [`Origin::new_lco`] for a one-shot LCO, whose one read frees it
    /// ([`crate::lco::FutureRef`]): every constructor that hands out a
    /// `FutureRef`, and [`Origin::request`], creates through here.
    pub(crate) fn new_one_shot(self, at: LocalityId, build: impl FnOnce(Gid) -> LcoCore) -> Gid {
        self.new_lco(at, |gid| build(gid).one_shot())
    }

    /// Create a data object at `at`.
    pub(crate) fn new_data(self, at: LocalityId, bytes: Vec<u8>) -> Gid {
        self.rt.locality(at).insert(GidKind::Data, |_| {
            Stored::Data(Arc::new(RwLock::new(DataObject { bytes, version: 0 })))
        })
    }

    /// Record an LCO in the owning process. No-op outside a process.
    fn own_lco(self, gid: Gid) {
        const PRUNE_EVERY: usize = 1024;
        let Some(pg) = self.process else { return };
        let Some(p) = self.rt.process(pg) else { return };
        match p.note_owned_lco(gid) {
            None => {
                // The process was cancelled concurrently — poison the
                // fresh LCO now so its waiters cannot hang.
                let fault = p.cancel_fault();
                let at = self.rt.locality(gid.birthplace());
                let _ = lco_sys_op(self.rt, at, gid, self.trace, move |l| Ok(l.poison(fault)));
            }
            // Periodic compaction: drop entries whose LCO already fired
            // (or left its store) so a long-lived process — the
            // multi-tenant parent — tracks only LCOs a cancel could
            // still affect, not every future it ever made.
            Some(len) if len.is_multiple_of(PRUNE_EVERY) => {
                p.prune_owned_lcos(|&g| {
                    let pending = |l: &mut LcoCore| !l.is_ready() && !l.is_poisoned();
                    let at = self.rt.locality(g.birthplace());
                    at.lco_op(g, pending).unwrap_or(false)
                });
            }
            Some(_) => {}
        }
    }

    // ---- LCO events and suspension -------------------------------------------

    /// Route the event `action` with `value` to LCO `gid`, wherever it
    /// lives, under this origin's trace.
    pub(crate) fn lco_event(self, gid: Gid, action: ActionId, value: Value) {
        self.rt
            .lco_route(self.loc, gid, action, value, self.trace, false);
    }

    /// Perform `op` on the LCO `gid` at this origin's locality, under its
    /// trace ([`lco_sys_op`]).
    pub(crate) fn lco_op(
        self,
        gid: Gid,
        op: impl FnOnce(&mut LcoCore) -> PxResult<Activations>,
    ) -> PxResult<()> {
        lco_sys_op(self.rt, self.loc, gid, self.trace, op)
    }

    /// Suspend on the LCO `gid` at this origin's locality: `f` resumes
    /// with its value, as this origin ([`Origin::depleted`]), on the
    /// control lane when `control` is set.
    pub(crate) fn suspend_on(
        self,
        gid: Gid,
        control: bool,
        f: impl FnOnce(&mut Ctx<'_>, Value) + Send + 'static,
    ) {
        let f = self.depleted(f);
        let w = if control {
            Waiter::Control(f)
        } else {
            Waiter::Depleted(f)
        };
        self.deposit(gid, crate::sys::LCO_GET, w, |l, w| Ok(l.add_waiter(w)));
    }

    /// `f` as a depleted thread of this origin. It resumes under the
    /// origin's trace even when the event that fires the LCO is untraced,
    /// and as work of the origin's process from now until it has run: the
    /// completion is issued by the continuation itself, because the
    /// waiter-scheduling path has no process context when the LCO fires.
    pub(crate) fn depleted(
        self,
        f: impl FnOnce(&mut Ctx<'_>, Value) + Send + 'static,
    ) -> DepletedThread {
        let (process, trace) = (self.process, self.trace);
        if process.is_none() && trace.is_none() {
            return Box::new(f);
        }
        if let Some(pg) = process {
            self.rt.process_task_started(pg, self.loc.id);
        }
        Box::new(move |ctx: &mut Ctx<'_>, v: Value| {
            ctx.from.process = process;
            ctx.from.trace = trace.or(ctx.from.trace);
            f(ctx, v);
            if let Some(pg) = process {
                ctx.from.rt.process_task_done(pg);
            }
        })
    }

    /// Deposit `w` on the LCO `gid` at this origin's locality through
    /// `op`. When `gid` turns out not to be an LCO `op` accepts (a data
    /// object, a future handed to `acquire`, an object removed since the
    /// residency check) the event dies as a killed parcel does
    /// ([`RuntimeInner::record_death`]) and `w` is resumed with the fault —
    /// what a remote request's killed parcel delivers through its reply —
    /// instead of being lost.
    pub(crate) fn deposit(
        self,
        gid: Gid,
        action: ActionId,
        w: Waiter,
        op: impl FnOnce(&mut LcoCore, Waiter) -> Result<Activations, (PxError, Waiter)>,
    ) {
        let mut w = Some(w);
        let deposited = match self.loc.lco_op(gid, |l| op(l, w.take().expect("run once"))) {
            Ok(deposited) => deposited,
            Err(e) => Err((e, w.take().expect("a failed lookup runs no op"))),
        };
        let acts = deposited.unwrap_or_else(|(e, w)| {
            let (cause, msg) = (cause_of(&e), e.to_string());
            let fault = self
                .rt
                .record_death(self.loc, gid, action, cause, msg, self.trace);
            vec![(w, Value::error(&fault))]
        });
        self.rt.schedule_activations(self.loc, acts, self.trace);
    }
}
