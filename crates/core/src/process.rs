//! Parallel processes (§2.2): hierarchical, cancellable, namespaced work
//! contexts spanning localities.
//!
//! "ParalleX differs from conventional distributed computing languages in
//! that the notion of parallel processes is not just that there may be
//! multiple processes being performed concurrently, but rather that each
//! process may have many parts, either subprocesses or threads, running
//! concurrently (or in parallel) as well and distributed across many
//! execution sites."
//!
//! A [`ProcessRef`] names a process. The subsystem gives it four powers:
//!
//! * **Hierarchy** — [`ProcessRef::create_subprocess`] builds trees of
//!   work contexts. A live child holds one activity token in its parent
//!   (released at the child's first quiescence or cancellation), so the
//!   Dijkstra–Scholten message-counting invariant extends up the tree:
//!   a parent cannot observe quiescence while any descendant still has
//!   work in flight.
//! * **Scoped namespace** — names registered through the process land
//!   under its AGAS prefix ([`ProcessRef::prefix`]) and are bulk
//!   unregistered at exit (first quiescence or cancellation), closing the
//!   name-table leak of long-running multi-tenant drivers. The prefix
//!   embeds the process gid, so in a multi-process system `/proc/...`
//!   names are *cluster-visible*: a lookup from another rank routes to
//!   the process's home rank over the control lane
//!   (`__sys/name_lookup`; see [`crate::runtime::Runtime::lookup_name`]).
//! * **Cancellation** — [`ProcessRef::cancel`] kills the whole subtree
//!   using the fault machinery: the done-future and every LCO the
//!   process created are poisoned with [`FaultCause::Cancelled`],
//!   in-flight parcels accounted to the process are killed loudly at
//!   dispatch, queued process threads are dropped (and counted), and new
//!   spawns are rejected. Every waiter — including [`ProcessRef::wait`]
//!   — resolves with [`crate::error::PxError::Fault`] in bounded time.
//! * **Collectives** — [`ProcessRef::broadcast`] fans an action out to
//!   every locality the process has touched and funnels the results
//!   through a reduction LCO.
//!
//! Termination (quiescence) is detected with an activity counter that is
//! incremented **before** a task is dispatched and decremented when it
//! completes — because the increment happens-before the send, the counter
//! can never be observed at zero while work is in flight. The process
//! holds a *root token* from creation until [`ProcessRef::finish_root`];
//! quiescence can therefore not fire while the creator is still spawning
//! initial work.

use crate::action::{Action, ActionId, Value};
use crate::error::{Fault, FaultCause, PxError, PxResult};
use crate::gid::{Gid, GidKind, LocalityId};
use crate::lco::{FutureRef, LcoCore, ReduceFn};
use crate::locality::Stored;
use crate::origin::Caller;
use crate::parcel::{Continuation, Parcel};
use crate::runtime::{Ctx, Runtime, RuntimeInner};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Shared process record (stored at the home locality and in the runtime's
/// process table).
pub struct ProcessInner {
    /// Process name.
    pub gid: Gid,
    /// Outstanding activations + the root token.
    active: AtomicU64,
    /// Future triggered (with unit) at quiescence; poisoned at cancel.
    done: Gid,
    /// Total activations ever accounted (diagnostics).
    spawned: crate::stats::Counter,
    /// Parent process, if this is a subprocess.
    parent: Option<Gid>,
    /// Direct children (subprocess GIDs), in creation order.
    children: Mutex<Vec<Gid>>,
    /// LCOs created through this process's threads (plus broadcast
    /// reductions); poisoned at cancel so their waiters resolve.
    owned_lcos: Mutex<Vec<Gid>>,
    /// Set once by [`cancel_process`]; checked on spawn and dispatch.
    cancelled: AtomicBool,
    /// The root token has been released (by `finish_root` or cancel).
    root_released: AtomicBool,
    /// First exit (quiescence or cancel) already ran: namespace cleaned,
    /// parent token released.
    exited: AtomicBool,
    /// Bitmap of localities this process has dispatched work to (word
    /// `i` covers localities `64·i .. 64·i+63`). Drives broadcast
    /// fan-out.
    touched: Vec<AtomicU64>,
}

impl std::fmt::Debug for ProcessInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessInner")
            .field("gid", &self.gid)
            // Relaxed: debug snapshot; exactness is not required.
            .field("active", &self.active.load(Ordering::Relaxed))
            .field("spawned", &self.spawned.get())
            .field("parent", &self.parent)
            .field("children", &self.children.lock().len())
            // Relaxed: debug snapshot; exactness is not required.
            .field("cancelled", &self.cancelled.load(Ordering::Relaxed))
            .finish()
    }
}

impl ProcessInner {
    pub(crate) fn new(gid: Gid, done: Gid, parent: Option<Gid>, n_localities: usize) -> Self {
        ProcessInner {
            gid,
            // 1 = the root token held by the creator.
            active: AtomicU64::new(1),
            done,
            spawned: crate::stats::Counter::default(),
            parent,
            children: Mutex::new(Vec::new()),
            owned_lcos: Mutex::new(Vec::new()),
            cancelled: AtomicBool::new(false),
            root_released: AtomicBool::new(false),
            exited: AtomicBool::new(false),
            touched: (0..n_localities.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Account one dispatched activation.
    pub(crate) fn task_started(&self) {
        self.active.fetch_add(1, Ordering::AcqRel);
        self.spawned.add(1);
    }

    /// Account one completed activation; at zero, triggers the
    /// done-future and runs first-exit cleanup (namespace, parent token).
    pub(crate) fn task_done(&self, rt: &Arc<RuntimeInner>) {
        if self.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            let home = rt.locality(self.done.birthplace());
            // The done-future is an or-gate-like unit trigger; re-triggers
            // on a quiesce/re-activate cycle are tolerated by the LCO, and
            // a cancel-poisoned done future rejects the trigger (fine: its
            // waiters already hold the fault).
            let _ = crate::sys::lco::lco_sys_op(rt, home, self.done, None, |l| {
                l.trigger(Value::unit())
            });
            self.first_exit(rt);
        }
    }

    /// One-shot exit work: bulk-unregister the process namespace and
    /// release the activity token this process holds in its parent. Runs
    /// at the first of quiescence or cancellation.
    fn first_exit(&self, rt: &Arc<RuntimeInner>) {
        if self.exited.swap(true, Ordering::AcqRel) {
            return;
        }
        // Boundary-terminated: a raw starts_with on the bare prefix would
        // also match a *different* process whose gid hex string extends
        // this one's (registration always inserts the '/', see `scoped`).
        rt.names
            .unregister_names_under(&format!("{}/", prefix_of(self.gid)));
        if let Some(parent) = self.parent {
            rt.process_task_done(parent);
        }
    }

    /// Note that work of this process was dispatched to locality `at`.
    pub(crate) fn note_touched(&self, at: LocalityId) {
        let (word, bit) = (at.0 as usize / 64, at.0 as usize % 64);
        if let Some(w) = self.touched.get(word) {
            // Avoid the RMW when the bit is already set (the common case
            // on a steady-state process).
            // Relaxed: the bitmap is only read after the process
            // quiesces (the AcqRel `active` count hitting zero orders
            // these sets before that read); bits only ever turn on.
            if w.load(Ordering::Relaxed) & (1 << bit) == 0 {
                w.fetch_or(1 << bit, Ordering::Relaxed);
            }
        }
    }

    /// Localities this process has dispatched work to, ascending.
    pub fn touched_localities(&self) -> Vec<LocalityId> {
        let mut out = Vec::new();
        for (i, w) in self.touched.iter().enumerate() {
            let mut bits = w.load(Ordering::Acquire);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(LocalityId((i * 64 + b) as u16));
                bits &= bits - 1;
            }
        }
        out
    }

    /// Record an LCO created through this process. Returns `None` if the
    /// process is already cancelled — the caller must poison the LCO
    /// immediately instead of waiting for a cancel that already ran —
    /// and `Some(list_len)` otherwise so the caller can trigger a
    /// periodic prune.
    pub(crate) fn note_owned_lco(&self, gid: Gid) -> Option<usize> {
        if self.cancelled.load(Ordering::Acquire) {
            return None;
        }
        let len = {
            let mut g = self.owned_lcos.lock();
            g.push(gid);
            g.len()
        };
        // Re-check: a cancel racing the push may have drained the list
        // before or after our insert; if it already drained, poison at the
        // caller (poisoning twice is a no-op).
        if self.cancelled.load(Ordering::Acquire) {
            None
        } else {
            Some(len)
        }
    }

    /// Drop owned-LCO entries `keep` rejects. Called periodically by the
    /// LCO-creation path so a long-lived process (the multi-tenant
    /// parent) does not accumulate every future it ever created.
    pub(crate) fn prune_owned_lcos(&self, keep: impl FnMut(&Gid) -> bool) {
        self.owned_lcos.lock().retain(keep);
    }

    /// Register a subprocess. Returns `false` when this (parent) process
    /// is already cancelled and must not accept children.
    fn note_child(&self, child: Gid) -> bool {
        if self.cancelled.load(Ordering::Acquire) {
            return false;
        }
        self.children.lock().push(child);
        !self.cancelled.load(Ordering::Acquire)
    }

    /// The fault delivered to everything this process's cancellation
    /// kills.
    pub(crate) fn cancel_fault(&self) -> Fault {
        Fault::new(
            FaultCause::Cancelled,
            ActionId(0),
            self.gid,
            "subtree torn down by ProcessRef::cancel",
        )
    }

    /// True once the process has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Outstanding activations (including the root token while held).
    pub fn active(&self) -> u64 {
        self.active.load(Ordering::Acquire)
    }

    /// Total activations accounted over the process lifetime.
    pub fn spawned(&self) -> u64 {
        self.spawned.get()
    }

    /// True once the record is only history: the process has exited
    /// (first quiescence or cancellation ran its cleanup) and no
    /// activation is outstanding. Such a record can be reaped; a late
    /// `task_done` after the reap degrades to a no-op, which the
    /// "done-future re-trigger tolerated" contract already allows.
    pub(crate) fn reapable(&self) -> bool {
        self.exited.load(Ordering::Acquire) && self.active.load(Ordering::Acquire) == 0
    }
}

/// The AGAS namespace prefix of process `gid` (no trailing slash).
fn prefix_of(gid: Gid) -> String {
    format!("/proc/{:x}", gid.0)
}

/// Handle to a parallel process. Every call takes the caller's handle as
/// `from` — the driver's [`Runtime`] or, inside a PX-thread, its [`Ctx`]
/// — except the two that block ([`ProcessRef::wait`],
/// [`ProcessRef::lookup_name`]), which are the driver's alone.
#[derive(Clone, Copy, Debug)]
pub struct ProcessRef {
    gid: Gid,
    done: Gid,
}

impl ProcessRef {
    pub(crate) fn new(gid: Gid, done: Gid) -> Self {
        ProcessRef { gid, done }
    }

    /// The process's global name.
    pub fn gid(&self) -> Gid {
        self.gid
    }

    /// Future that fires (unit) at quiescence: no threads or parcels of
    /// this process remain anywhere in the system. Poisoned with
    /// [`FaultCause::Cancelled`] if the process is cancelled first.
    pub fn done_future(&self) -> FutureRef<()> {
        FutureRef::from_gid(self.done)
    }

    /// This process's record, while the table still holds it.
    fn record(&self, from: &impl Caller) -> Option<Arc<ProcessInner>> {
        from.origin().rt().process(self.gid)
    }

    /// Release the root token. Call after the initial work is spawned;
    /// until then quiescence cannot trigger. Idempotent.
    pub fn finish_root(&self, from: &impl Caller) {
        if let Some(p) = self.record(from) {
            if !p.root_released.swap(true, Ordering::AcqRel) {
                p.task_done(from.origin().rt());
            }
        }
    }

    /// Spawn a PX-thread at `dest` accounted to this process. If the
    /// process has been cancelled the spawn is rejected loudly: the
    /// closure is dropped, `tasks_cancelled` is counted at `dest`, and
    /// the dead-letter hook observes the fault.
    pub fn spawn_at(
        &self,
        from: &impl Caller,
        dest: LocalityId,
        f: impl FnOnce(&mut Ctx<'_>) + Send + 'static,
    ) {
        let into = from.origin().with_process(Some(self.gid));
        into.spawn_at(dest, f)
    }

    /// Send an action parcel accounted to this process. Errors with the
    /// cancellation fault if the process has been cancelled.
    pub fn send_action<A: Action>(
        &self,
        from: &impl Caller,
        target: Gid,
        args: A::Args,
        cont: Continuation,
    ) -> PxResult<()> {
        let from = from.origin().with_process(Some(self.gid));
        if let Some(fault) = from.rt().process_cancel_fault(self.gid) {
            return Err(PxError::Fault(fault));
        }
        from.send_action::<A>(target, &args, cont)
    }

    /// Block the calling OS thread until the process quiesces. Resolves
    /// with [`PxError::Fault`] (cause [`FaultCause::Cancelled`]) if the
    /// process is cancelled instead.
    pub fn wait(&self, rt: &Runtime) -> PxResult<()> {
        self.done_future().wait(rt)
    }

    // ---- hierarchy ---------------------------------------------------------

    /// Create a subprocess homed at `home`. The child holds one activity
    /// token in this process until the child's first quiescence (or its
    /// cancellation), so [`ProcessRef::wait`] on the parent also waits
    /// for the entire subtree. Fails with the cancellation fault if this
    /// process is already cancelled.
    pub fn create_subprocess(&self, from: &impl Caller, home: LocalityId) -> PxResult<ProcessRef> {
        let rt = from.origin().rt();
        let Some(pi) = self.record(from) else {
            return Err(PxError::NoSuchObject(self.gid));
        };
        if pi.is_cancelled() {
            return Err(PxError::Fault(pi.cancel_fault()));
        }
        // The child's existence is parent activity (Dijkstra–Scholten
        // token), taken *before* the child can dispatch anything.
        pi.task_started();
        let child = create_process(rt, home, Some(self.gid));
        if !pi.note_child(child.gid) {
            // Parent was cancelled concurrently: the subtree must die
            // with it.
            cancel_process(rt, child.gid);
            return Err(PxError::Fault(pi.cancel_fault()));
        }
        Ok(child)
    }

    /// This process's parent, if it is a subprocess.
    pub fn parent(&self, from: &impl Caller) -> Option<ProcessRef> {
        let table = from.origin().rt().process_table.read();
        let pgid = table.get(&self.gid)?.parent?;
        let p = table.get(&pgid)?;
        Some(ProcessRef::new(pgid, p.done))
    }

    /// Direct children, in creation order.
    pub fn children(&self, from: &impl Caller) -> Vec<ProcessRef> {
        let table = from.origin().rt().process_table.read();
        let Some(me) = table.get(&self.gid) else {
            return Vec::new();
        };
        let kids: Vec<Gid> = me.children.lock().clone();
        kids.into_iter()
            .filter_map(|c| table.get(&c).map(|p| ProcessRef::new(c, p.done)))
            .collect()
    }

    /// Outstanding activations (diagnostics; includes held root tokens).
    pub fn active(&self, from: &impl Caller) -> u64 {
        self.record(from).map_or(0, |p| p.active())
    }

    /// True once [`ProcessRef::cancel`] has run on this process (or an
    /// ancestor).
    pub fn is_cancelled(&self, from: &impl Caller) -> bool {
        self.record(from).is_some_and(|p| p.is_cancelled())
    }

    // ---- cancellation ------------------------------------------------------

    /// Cancel this process and its entire subtree. Idempotent. After this
    /// returns: the done-future and every LCO created through the process
    /// are poisoned with [`FaultCause::Cancelled`] (releasing all current
    /// and future waiters), queued and in-flight work is killed loudly at
    /// dispatch, new spawns are rejected, and the process namespace is
    /// unregistered.
    pub fn cancel(&self, from: &impl Caller) {
        cancel_process(from.origin().rt(), self.gid);
    }

    // ---- process-scoped namespace ------------------------------------------

    /// The AGAS prefix all names registered through this process live
    /// under (`/proc/<gid>`); bulk-unregistered at exit.
    pub fn prefix(&self) -> String {
        prefix_of(self.gid)
    }

    /// Bind `name` under the process namespace prefix. The full path is
    /// returned (it is also resolvable through the global
    /// [`Runtime::lookup_name`]).
    pub fn register_name(&self, from: &impl Caller, name: &str, gid: Gid) -> PxResult<String> {
        let full = self.scoped(name);
        from.origin().rt().names.register_name(&full, gid)?;
        Ok(full)
    }

    /// Resolve a name previously registered through this process. Goes
    /// through [`Runtime::lookup_name`], so in a multi-process system a
    /// name registered at the process's home rank resolves from any
    /// rank holding this `ProcessRef`'s gid (the path embeds the home).
    pub fn lookup_name(&self, rt: &Runtime, name: &str) -> PxResult<Gid> {
        rt.lookup_name(&self.scoped(name))
    }

    /// All names currently registered under this process's prefix.
    pub fn names(&self, from: &impl Caller) -> Vec<(String, Gid)> {
        let under = format!("{}/", self.prefix());
        from.origin().rt().names.names_under(&under)
    }

    fn scoped(&self, name: &str) -> String {
        format!("{}/{}", self.prefix(), name.trim_start_matches('/'))
    }

    // ---- collectives -------------------------------------------------------

    /// Fan action `A` out to the root of every locality this process has
    /// touched, folding the per-locality results through a reduction LCO
    /// seeded with `seed`. The returned future fires once every locality
    /// has answered — or resolves with a fault if any leg dies (including
    /// by cancellation: the reduction is process-owned, so
    /// [`ProcessRef::cancel`] poisons it).
    pub fn broadcast<A: Action>(
        &self,
        from: &impl Caller,
        args: &A::Args,
        seed: &A::Out,
        fold: ReduceFn,
    ) -> PxResult<FutureRef<A::Out>> {
        let Some(me) = self.record(from) else {
            return Err(PxError::NoSuchObject(self.gid));
        };
        if me.is_cancelled() {
            return Err(PxError::Fault(me.cancel_fault()));
        }
        let from = from.origin().with_process(Some(self.gid));
        let locs = me.touched_localities();
        debug_assert!(!locs.is_empty(), "home is touched at creation");
        let (seed, payload) = (Value::encode(seed)?, Value::encode(args)?);
        let n = locs.len() as u64;
        // Owned by the process from birth: a cancel racing this setup
        // poisons the fresh reduction, so the caller's waiters resolve.
        let red = from.new_one_shot(self.gid.birthplace(), |gid| {
            LcoCore::new_reduce(gid, n, seed, fold)
        });
        if me.is_cancelled() {
            return Err(PxError::Fault(me.cancel_fault()));
        }
        for l in locs {
            let leg = Continuation::contribute(red);
            from.send(Parcel::new(
                Gid::locality_root(l),
                A::id(),
                payload.clone(),
                leg,
            ));
        }
        Ok(FutureRef::from_gid(red))
    }
}

/// Sweep the process table every this many creations, so a server that
/// makes one process per request stays bounded without anyone calling
/// [`Runtime::reap_processes`] by hand.
const REAP_EVERY: u64 = 64;

/// Create a process homed at `home`. Registered in the runtime's process
/// table and the home locality's store.
pub(crate) fn create_process(
    rt: &Arc<RuntimeInner>,
    home: LocalityId,
    parent: Option<Gid>,
) -> ProcessRef {
    let loc = rt.locality(home);
    let done = loc.new_future_lco();
    let gid = loc.alloc.alloc(GidKind::Process);
    let inner = Arc::new(ProcessInner::new(gid, done, parent, rt.localities.len()));
    inner.note_touched(home);
    loc.insert_at(gid, Stored::Process(inner.clone()));
    rt.process_table.write().insert(gid, inner);
    let created = rt.processes_created.add(1) + 1;
    if created.is_multiple_of(REAP_EVERY) {
        reap_processes(rt);
    }
    ProcessRef::new(gid, done)
}

/// Process-table GC: remove records that are exited, quiesced, and
/// unreferenced outside the runtime's own bookkeeping. Returns how many
/// were reaped (also accumulated in `StatsSnapshot::processes_reaped`).
///
/// "Unreferenced" is an `Arc::strong_count` check: the table and the
/// home locality's object store each hold one reference; anything beyond
/// those (a `task_done` in flight, a driver thread mid-query) defers the
/// record to a later sweep. `ProcessRef` is `Copy` and holds no
/// reference — queries through a kept handle simply see an absent
/// record after the reap (zero `active`, no children), and the done
/// future itself survives in the object store, so waiting on it still
/// resolves.
pub(crate) fn reap_processes(rt: &Arc<RuntimeInner>) -> usize {
    // The candidate clone below is reference #3.
    const EXPECTED_REFS: usize = 3;
    let candidates: Vec<Arc<ProcessInner>> = rt
        .process_table
        .read()
        .values()
        .filter(|p| p.reapable())
        .cloned()
        .collect();
    let mut reaped = 0usize;
    for p in candidates {
        let gid = p.gid;
        {
            let mut table = rt.process_table.write();
            // Re-check under the write lock: a late activation or a
            // transient clone (e.g. `process_task_started` on a racing
            // worker) defers the record to the next sweep.
            let still = table
                .get(&gid)
                .is_some_and(|cur| Arc::ptr_eq(cur, &p) && cur.reapable());
            if !still || Arc::strong_count(&p) != EXPECTED_REFS {
                continue;
            }
            table.remove(&gid);
        }
        rt.locality(gid.birthplace()).remove(gid);
        reaped += 1;
    }
    if reaped > 0 {
        rt.processes_reaped.add(reaped as u64);
    }
    reaped
}

/// Poison one process-owned LCO at its home locality.
fn poison_lco(rt: &Arc<RuntimeInner>, gid: Gid, fault: &Fault) {
    let loc = rt.locality(gid.birthplace());
    let f = fault.clone();
    // Missing objects (already freed) are fine to skip; poison itself is
    // idempotent.
    let _ = crate::sys::lco::lco_sys_op(rt, loc, gid, None, move |l| Ok(l.poison(f)));
}

/// Cancel `gid` and its whole subtree (idempotent, depth-first).
pub(crate) fn cancel_process(rt: &Arc<RuntimeInner>, gid: Gid) {
    let Some(p) = rt.process(gid) else { return };
    if p.cancelled.swap(true, Ordering::AcqRel) {
        return;
    }
    rt.processes_cancelled.add(1);
    let fault = p.cancel_fault();
    // Cancellation has no parcel to carry a trace id, so the event is
    // recorded unconditionally under the never-sampled id 0 when tracing
    // is on: a dump still shows *that* and *when* the subtree died.
    rt.locality(gid.birthplace()).trace_event(
        Some(0),
        crate::trace::TraceEventKind::ProcessCancel,
        gid.0,
        0,
    );
    rt.notify_dead_letter(&fault, None);
    // 1. Poison the done-future first: `wait` and `done_future` waiters
    //    resolve immediately, before the subtree teardown begins.
    poison_lco(rt, p.done, &fault);
    // 2. Poison every LCO the process created, releasing all waiter
    //    kinds (depleted threads resume with the fault, continuations
    //    carry it onward, external waiters return `Err`).
    let owned: Vec<Gid> = std::mem::take(&mut *p.owned_lcos.lock());
    for lco in owned {
        poison_lco(rt, lco, &fault);
    }
    // 3. Tear down the subtree.
    let children: Vec<Gid> = p.children.lock().clone();
    for c in children {
        cancel_process(rt, c);
    }
    // 4. Force-release the root token so the activity counter can drain
    //    to zero even if the creator never called `finish_root`.
    if !p.root_released.swap(true, Ordering::AcqRel) {
        p.task_done(rt);
    }
    // 5. Namespace cleanup + parent-token release (first exit). A
    //    cancelled child is terminated from its parent's perspective:
    //    what remains of its in-flight work is being killed at dispatch.
    p.first_exit(rt);
}

// Process-targeted method invocation: sending an ordinary action parcel
// whose `dest` is the process GID invokes the action *in the process's
// context* at its home locality — "messages incident upon them invoking
// methods". Dispatch happens through the normal parcel path;
// `ProcessRef::send_action` tags the parcel so spawned children join the
// process.

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_invariant() {
        let gid = Gid::new(LocalityId(0), GidKind::Process, 1);
        let done = Gid::new(LocalityId(0), GidKind::Lco, 2);
        let p = ProcessInner::new(gid, done, None, 4);
        assert_eq!(p.active(), 1, "root token held at creation");
        p.task_started();
        p.task_started();
        assert_eq!(p.active(), 3);
        assert_eq!(p.spawned(), 2);
    }

    /// The two nestings the lexical lock-order rule knew of, on the
    /// dynamic check's record once they have run: a directory shard over
    /// a resolution cache (`Agas::resolve`), the process table over a
    /// child list (`ProcessRef::children`). And the one rule for an
    /// absent object's parcel (`sys::agas::not_here`): the parked-parcel
    /// lock over a directory shard and a locality's store. And the one way
    /// an event reaches a local LCO (`Locality::lco_op`): a store shard's
    /// read lock over the LCO's mutex, both built in `locality.rs`. A
    /// class is where its lock is built.
    #[cfg(debug_assertions)]
    #[test]
    fn the_known_lock_nestings_are_on_record() {
        use crate::runtime::{Config, RuntimeBuilder};
        let rt = RuntimeBuilder::new(Config::small(2, 1)).build().unwrap();
        let data = rt.new_data_at(LocalityId(0), vec![1]);
        rt.migrate_data(data, LocalityId(1)).unwrap();
        // The home's directory answers for a locality whose cache is cold.
        rt.inner().localities[0].agas.resolve(LocalityId(1), data);
        let parent = rt.create_process(LocalityId(0));
        parent.create_subprocess(&rt, LocalityId(1)).unwrap();
        assert_eq!(parent.children(&rt).len(), 1);
        let never = Gid::new(LocalityId(1), GidKind::Data, 0xFEED);
        assert!(rt.read_data(never).is_err());
        let nested = |held: &str, taken: &str| {
            parking_lot::acquired_before()
                .iter()
                .any(|(h, t)| h != t && h.file().ends_with(held) && t.file().ends_with(taken))
        };
        assert!(nested("agas.rs", "agas.rs"), "shard -> caches");
        assert!(nested("agas.rs", "locality.rs"), "deferred -> store");
        assert!(nested("locality.rs", "locality.rs"), "store shard -> LCO");
        assert!(
            nested("runtime.rs", "process.rs"),
            "process_table -> children"
        );
        rt.shutdown();
    }

    #[test]
    fn touched_bitmap_dedups_and_sorts() {
        let gid = Gid::new(LocalityId(0), GidKind::Process, 1);
        let done = Gid::new(LocalityId(0), GidKind::Lco, 2);
        let p = ProcessInner::new(gid, done, None, 130);
        for l in [5u16, 129, 5, 0, 64, 129] {
            p.note_touched(LocalityId(l));
        }
        assert_eq!(
            p.touched_localities(),
            vec![
                LocalityId(0),
                LocalityId(5),
                LocalityId(64),
                LocalityId(129)
            ]
        );
        // Out-of-range localities are ignored, not a panic.
        p.note_touched(LocalityId(1000));
        assert_eq!(p.touched_localities().len(), 4);
    }

    #[test]
    fn owned_lco_registration_stops_at_cancel() {
        let gid = Gid::new(LocalityId(0), GidKind::Process, 1);
        let done = Gid::new(LocalityId(0), GidKind::Lco, 2);
        let p = ProcessInner::new(gid, done, None, 1);
        assert_eq!(
            p.note_owned_lco(Gid::new(LocalityId(0), GidKind::Lco, 3)),
            Some(1)
        );
        p.cancelled.store(true, Ordering::Release);
        assert_eq!(
            p.note_owned_lco(Gid::new(LocalityId(0), GidKind::Lco, 4)),
            None
        );
        // Pruning drops entries the keeper rejects.
        p.cancelled.store(false, Ordering::Release);
        p.note_owned_lco(Gid::new(LocalityId(0), GidKind::Lco, 5));
        p.prune_owned_lcos(|g| g.seq() != 3);
        // [3, 5] pruned to [5]; the next note makes the list [5, 6].
        assert_eq!(
            p.note_owned_lco(Gid::new(LocalityId(0), GidKind::Lco, 6)),
            Some(2)
        );
        assert_eq!(p.cancel_fault().cause, FaultCause::Cancelled);
    }

    #[test]
    fn prefix_is_stable_per_gid() {
        let gid = Gid::new(LocalityId(2), GidKind::Process, 17);
        assert_eq!(prefix_of(gid), format!("/proc/{:x}", gid.0));
    }
}
