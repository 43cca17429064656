//! Hierarchical-process integration tests: subprocess trees, scoped
//! namespaces, subtree cancellation, and collectives. The cancellation
//! tests are bounded-wait by construction — before cancellation became a
//! first-class exit, every one of them would hang.

use parallex::core::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Generous bound: a genuine hang hits this, a delivered fault never does.
const BOUND: Duration = Duration::from_secs(10);

struct CountHere;
impl Action for CountHere {
    const NAME: &'static str = "procs/count_here";
    type Args = u64;
    type Out = u64;
    fn execute(ctx: &mut Ctx<'_>, _t: Gid, x: u64) -> u64 {
        x + u64::from(ctx.here().0)
    }
}

struct Slow;
impl Action for Slow {
    const NAME: &'static str = "procs/slow";
    type Args = u64;
    type Out = ();
    fn execute(_ctx: &mut Ctx<'_>, _t: Gid, ns: u64) {
        std::thread::sleep(Duration::from_nanos(ns));
    }
}

/// Holds its worker until the test that owns the flags lets go.
struct Hold;
static HELD: AtomicBool = AtomicBool::new(false);
static LET_GO: AtomicBool = AtomicBool::new(false);
impl Action for Hold {
    const NAME: &'static str = "procs/hold";
    type Args = ();
    type Out = ();
    fn execute(_ctx: &mut Ctx<'_>, _t: Gid, _: ()) {
        HELD.store(true, Ordering::SeqCst);
        while !LET_GO.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    }
}

fn rt(locs: usize) -> Runtime {
    RuntimeBuilder::new(Config::small(locs, 1))
        .register::<CountHere>()
        .register::<Slow>()
        .register::<Hold>()
        .build()
        .unwrap()
}

fn expect_cancelled<T: std::fmt::Debug>(r: PxResult<Option<T>>) -> Fault {
    match r {
        Err(PxError::Fault(f)) => {
            assert_eq!(f.cause, FaultCause::Cancelled, "{f}");
            f
        }
        Ok(None) => panic!("timed out: cancellation fault was never delivered"),
        other => panic!("expected cancellation fault, got {other:?}"),
    }
}

// ---- hierarchy --------------------------------------------------------------

#[test]
fn parent_quiescence_waits_for_subprocess_trees() {
    let rt = rt(3);
    let root = rt.create_process(LocalityId(0));
    let counter = Arc::new(AtomicU64::new(0));
    // Two children, each with a grandchild; every node spawns leaf work.
    for l in 0..2u16 {
        let child = root.create_subprocess(&rt, LocalityId(l)).unwrap();
        let grand = child.create_subprocess(&rt, LocalityId(l + 1)).unwrap();
        for proc in [&child, &grand] {
            for _ in 0..4 {
                let c = counter.clone();
                proc.spawn_at(&rt, LocalityId(l), move |ctx| {
                    let c = c.clone();
                    // Nested spawn: still part of the same process.
                    ctx.spawn(move |_ctx| {
                        c.fetch_add(1, Ordering::SeqCst);
                    });
                });
            }
            proc.finish_root(&rt);
        }
    }
    root.finish_root(&rt);
    root.done_future()
        .wait_timeout(&rt, BOUND)
        .unwrap()
        .expect("root quiesced");
    // Quiescence of the ROOT implies every descendant's work ran.
    assert_eq!(counter.load(Ordering::SeqCst), 16);
    assert_eq!(root.active(&rt), 0);
    assert_eq!(root.children(&rt).len(), 2);
    let child = root.children(&rt)[0];
    assert_eq!(child.parent(&rt).unwrap().gid(), root.gid());
    rt.shutdown();
}

#[test]
fn subprocess_of_cancelled_parent_is_rejected() {
    let rt = rt(2);
    let root = rt.create_process(LocalityId(0));
    let child = root.create_subprocess(&rt, LocalityId(1)).unwrap();
    root.cancel(&rt);
    assert!(root.is_cancelled(&rt));
    assert!(child.is_cancelled(&rt), "cancel reaches the subtree");
    match root.create_subprocess(&rt, LocalityId(0)) {
        Err(PxError::Fault(f)) => assert_eq!(f.cause, FaultCause::Cancelled),
        other => panic!("expected rejection, got {other:?}"),
    }
    rt.shutdown();
}

/// The process calls made from inside PX-threads (the thread's `Ctx` is
/// the caller): a thread of `root` builds two subprocesses, fills them,
/// releases one and a sibling thread cancels the other.
#[test]
fn px_threads_build_finish_and_cancel_subprocesses() {
    let rt = rt(2);
    let root = rt.create_process(LocalityId(0));
    let ran = Arc::new(AtomicU64::new(0));
    let late_ran = Arc::new(AtomicBool::new(false));
    // Fires once both of `doomed`'s threads are running at locality 1:
    // a cancel after that finds nothing of theirs left to drop in a
    // queue, so the one `tasks_cancelled` below is the late spawn's.
    let started = rt.new_and_gate(LocalityId(1), 2);
    let (procs_tx, procs_rx) = std::sync::mpsc::channel();
    let (ran2, late) = (ran.clone(), late_ran.clone());
    root.spawn_at(&rt, LocalityId(0), move |ctx| {
        let kept = root.create_subprocess(ctx, LocalityId(0)).unwrap();
        let doomed = root.create_subprocess(ctx, LocalityId(1)).unwrap();
        for l in 0..2u16 {
            let ran = ran2.clone();
            kept.spawn_at(ctx, LocalityId(l), move |_| {
                ran.fetch_add(1, Ordering::SeqCst);
            });
            doomed.spawn_at(ctx, LocalityId(1), move |ctx| {
                ctx.trigger_value(started, Value::unit());
            });
        }
        // `kept` may quiesce; `doomed` keeps its root token, so only the
        // cancellation can resolve it.
        kept.finish_root(ctx);
        ctx.spawn_at(LocalityId(1), move |ctx| {
            ctx.when_ready(started, move |ctx, _| {
                doomed.cancel(ctx);
                doomed.spawn_at(ctx, LocalityId(0), move |_| {
                    late.store(true, Ordering::SeqCst);
                });
            });
        });
        procs_tx.send((kept, doomed)).unwrap();
    });
    root.finish_root(&rt);
    // The parent's quiescence covers everything above: its own threads,
    // the sibling's suspended continuation and both subprocesses.
    root.done_future()
        .wait_timeout(&rt, BOUND)
        .unwrap()
        .expect("root quiesced");
    let (kept, doomed) = procs_rx.try_recv().expect("the root thread ran");
    assert_eq!(ran.load(Ordering::SeqCst), 2, "wait covered `kept`");
    assert_eq!(
        kept.done_future().wait_timeout(&rt, BOUND).unwrap(),
        Some(())
    );
    expect_cancelled(doomed.done_future().wait_timeout(&rt, BOUND));
    let kids: Vec<Gid> = root.children(&rt).iter().map(|c| c.gid()).collect();
    assert_eq!(kids, [kept.gid(), doomed.gid()]);
    assert!(!late_ran.load(Ordering::SeqCst), "late spawn was rejected");
    let stats = rt.stats();
    assert_eq!(stats.total().tasks_cancelled, 1, "the rejected late spawn");
    assert_eq!(stats.processes_cancelled, 1);
    rt.shutdown();
}

// ---- cancellation -----------------------------------------------------------

#[test]
fn cancel_resolves_every_waiter_kind_in_bounded_time() {
    let rt = rt(2);
    let proc = rt.create_process(LocalityId(0));

    // Control: a future created OUTSIDE the process (run_blocking has no
    // process context) must not be touched by the cancel.
    let outside_fut: FutureRef<u64> = rt.run_blocking(LocalityId(0), |ctx| ctx.new_future::<u64>());
    // A process thread creates LCOs (process-owned) and publishes them.
    let (tx, rx) = std::sync::mpsc::channel();
    let resumed = Arc::new(AtomicU64::new(0));
    let resumed2 = resumed.clone();
    proc.spawn_at(&rt, LocalityId(0), move |ctx| {
        let fut = ctx.new_future::<u64>(); // process-owned
                                           // 2. A depleted thread suspended on it observes the fault.
        let r = resumed2.clone();
        ctx.when_resolved(fut, move |_ctx, out| {
            assert!(matches!(out, Err(PxError::Fault(_))));
            r.fetch_add(1, Ordering::SeqCst);
        });
        tx.send(fut).unwrap();
    });
    let process_fut = rx.recv_timeout(BOUND).unwrap();
    proc.finish_root(&rt);

    // 3. An external waiter on the process-owned future, blocked before
    //    the cancel.
    let rt_arc = std::sync::Arc::new(rt);
    let rt2 = rt_arc.clone();
    let waiter = std::thread::spawn(move || process_fut.wait_timeout(&rt2, BOUND));

    std::thread::sleep(Duration::from_millis(20));
    proc.cancel(&rt_arc);

    // Every waiter resolves with the cancellation fault, promptly.
    expect_cancelled(waiter.join().unwrap());
    expect_cancelled(proc.done_future().wait_timeout(&rt_arc, BOUND));
    let t0 = std::time::Instant::now();
    while resumed.load(Ordering::SeqCst) == 0 {
        assert!(t0.elapsed() < BOUND, "depleted thread never resumed");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The future created outside the process is unaffected.
    let r = rt_arc.wait_future_timeout(outside_fut, Duration::from_millis(50));
    assert!(
        matches!(r, Ok(None)),
        "non-process future must not be poisoned: {r:?}"
    );
    rt_arc.shutdown();
}

#[test]
fn cancel_kills_in_flight_parcels_loudly() {
    let rt = rt(2);
    let proc = rt.create_process(LocalityId(0));
    // 64 process parcels for the single worker at locality 1. The first
    // holds that worker until the cancel has landed, so the other 63 are
    // still queued then and die at dispatch with Cancelled.
    let gates: Vec<FutureRef<()>> = (0..64)
        .map(|_| {
            let fut = rt.new_future::<()>(LocalityId(0));
            let at_1 = Gid::locality_root(LocalityId(1));
            proc.send_action::<Hold>(&rt, at_1, (), Continuation::set(fut.gid()))
                .unwrap();
            fut
        })
        .collect();
    proc.finish_root(&rt);
    while !HELD.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    proc.cancel(&rt);
    LET_GO.store(true, Ordering::SeqCst);
    // Every continuation resolves: the executed leg with unit, killed
    // legs with the fault — none hang.
    let mut killed = 0u64;
    for fut in gates {
        match fut.wait_timeout(&rt, BOUND) {
            Ok(Some(())) => {}
            Ok(None) => panic!("a parcel continuation was stranded"),
            Err(PxError::Fault(f)) => {
                assert_eq!(f.cause, FaultCause::Cancelled);
                killed += 1;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert_eq!(killed, 63, "all but the parcel that held the worker");
    // Bounded drain: the process counter reaches zero.
    let t0 = std::time::Instant::now();
    while proc.active(&rt) > 0 {
        assert!(t0.elapsed() < BOUND, "activity counter never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    let total = rt.stats().total();
    assert_eq!(total.dead_cancelled, killed);
    assert_eq!(total.deaths_by_cause_total(), total.dead_parcels);
    assert_eq!(rt.stats().processes_cancelled, 1);
    // New spawns are rejected after cancel.
    assert!(matches!(
        proc.send_action::<Slow>(
            &rt,
            Gid::locality_root(LocalityId(1)),
            1,
            Continuation::none()
        ),
        Err(PxError::Fault(_))
    ));
    rt.shutdown();
}

/// Cancel while suspended remotely: a process thread suspends on a
/// future that is *not* the process's, at the other locality. The cancel
/// resumes the continuation — once, with the cancellation fault — through
/// the pending reply, which the process owns; the reply is freed, and the
/// remote future's late trigger finds nothing to fill and dies counted,
/// at once: a freed object's parcel makes no chase.
#[test]
fn cancel_resumes_a_thread_suspended_on_a_remote_future_once() {
    let rt = rt(2);
    let store = |rt: &Runtime| rt.run_blocking(LocalityId(0), |ctx| ctx.locality().object_count());
    let remote = rt.new_future::<u64>(LocalityId(1));
    let proc = rt.create_process(LocalityId(0));
    let initial = store(&rt);
    let (suspended_tx, suspended_rx) = std::sync::mpsc::channel();
    let (resumed_tx, resumed_rx) = std::sync::mpsc::channel();
    proc.spawn_at(&rt, LocalityId(0), move |ctx| {
        ctx.when_resolved(remote, move |_ctx, out| resumed_tx.send(out).unwrap());
        suspended_tx.send(()).unwrap();
    });
    proc.finish_root(&rt);
    suspended_rx.recv_timeout(BOUND).unwrap();
    proc.cancel(&rt);
    expect_cancelled(resumed_rx.recv_timeout(BOUND).unwrap().map(Some));
    expect_cancelled(proc.done_future().wait_timeout(&rt, BOUND));
    assert_eq!(store(&rt), initial, "the pending reply was freed");
    // The late trigger's continuation finds the reply future freed at
    // its owner and is dead-lettered there: counted, not lost, not re-run.
    rt.set_future(remote, &5).unwrap();
    let t0 = std::time::Instant::now();
    while rt.stats().total().dead_parcels == 0 {
        assert!(t0.elapsed() < BOUND, "the late reply vanished uncounted");
        std::thread::sleep(Duration::from_millis(1));
    }
    let total = rt.stats().total();
    assert_eq!((total.dead_parcels, total.dead_hop_cap), (1, 0));
    assert_eq!(total.dead_handler_error, 1);
    assert_eq!(total.deaths_by_cause_total(), total.dead_parcels);
    assert!(resumed_rx.try_recv().is_err(), "the continuation ran twice");
    assert_eq!(store(&rt), initial);
    rt.shutdown();
}

#[test]
fn healthy_workloads_report_zero_cancellations() {
    let rt = rt(2);
    let proc = rt.create_process(LocalityId(0));
    let hits = Arc::new(AtomicU64::new(0));
    for l in 0..2u16 {
        let h = hits.clone();
        proc.spawn_at(&rt, LocalityId(l), move |_ctx| {
            h.fetch_add(1, Ordering::SeqCst);
        });
    }
    proc.finish_root(&rt);
    proc.wait(&rt).unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 2);
    let total = rt.stats().total();
    assert_eq!(total.dead_cancelled, 0);
    assert_eq!(total.tasks_cancelled, 0);
    assert_eq!(rt.stats().processes_cancelled, 0);
    assert_eq!(rt.stats().processes_created, 1);
    rt.shutdown();
}

// ---- process-scoped namespaces ---------------------------------------------

#[test]
fn process_names_live_under_the_prefix_and_die_at_exit() {
    let rt = rt(2);
    let proc = rt.create_process(LocalityId(0));
    let data = rt.new_data_at(LocalityId(1), vec![1, 2, 3]);
    let full = proc.register_name(&rt, "blobs/input", data).unwrap();
    assert!(full.starts_with(&proc.prefix()), "{full}");
    // Resolvable both through the process view and the global table.
    assert_eq!(proc.lookup_name(&rt, "blobs/input").unwrap(), data);
    assert_eq!(rt.lookup_name(&full).unwrap(), data);
    assert_eq!(proc.names(&rt).len(), 1);
    // Same short name in a *different* process does not collide.
    let other = rt.create_process(LocalityId(1));
    other.register_name(&rt, "blobs/input", data).unwrap();
    // Exit (here: quiescence) bulk-unregisters the namespace.
    proc.finish_root(&rt);
    proc.wait(&rt).unwrap();
    assert!(proc.lookup_name(&rt, "blobs/input").is_err());
    assert!(rt.lookup_name(&full).is_err());
    // The other process's namespace is untouched.
    assert_eq!(other.lookup_name(&rt, "blobs/input").unwrap(), data);
    // Cancellation is also an exit: names vanish.
    let c = rt.create_process(LocalityId(0));
    c.register_name(&rt, "tmp", data).unwrap();
    c.cancel(&rt);
    assert!(c.lookup_name(&rt, "tmp").is_err());
    rt.shutdown();
}

// ---- collectives ------------------------------------------------------------

#[test]
fn broadcast_reaches_every_touched_locality_and_reduces() {
    let rt = rt(4);
    let proc = rt.create_process(LocalityId(0));
    // Touch localities 0 (home), 1, and 3 — but never 2.
    for l in [1u16, 3] {
        proc.spawn_at(&rt, LocalityId(l), |_ctx| {});
    }
    proc.finish_root(&rt);
    proc.wait(&rt).unwrap();
    // Sum of (100 + locality id) over {0, 1, 3} = 304.
    let fut = proc
        .broadcast::<CountHere>(
            &rt,
            &100,
            &0u64,
            Box::new(|a, b| {
                let x: u64 = a.decode().unwrap();
                let y: u64 = b.decode().unwrap();
                Value::encode(&(x + y)).unwrap()
            }),
        )
        .unwrap();
    assert_eq!(fut.wait_timeout(&rt, BOUND).unwrap(), Some(304));
    rt.shutdown();
}

#[test]
fn broadcast_on_cancelled_process_is_rejected_and_inflight_poisoned() {
    let rt = rt(3);
    let proc = rt.create_process(LocalityId(0));
    for l in 1..3u16 {
        proc.spawn_at(&rt, LocalityId(l), |_ctx| {});
    }
    proc.finish_root(&rt);
    proc.wait(&rt).unwrap();
    // An in-flight broadcast whose legs are slow...
    let fut = proc
        .broadcast::<Slow>(
            &rt,
            &20_000_000, // 20 ms per leg
            &(),
            Box::new(|a, _| a),
        )
        .unwrap();
    proc.cancel(&rt);
    // ...resolves with the fault instead of hanging (reduce is poisoned
    // or its legs are killed — either way the waiter learns).
    expect_cancelled(fut.wait_timeout(&rt, BOUND));
    // And a post-cancel broadcast is rejected outright.
    assert!(matches!(
        proc.broadcast::<CountHere>(&rt, &1, &0u64, Box::new(|a, _| a)),
        Err(PxError::Fault(_))
    ));
    rt.shutdown();
}

// ---- process-table GC -------------------------------------------------------

#[test]
fn reap_removes_quiesced_processes_and_keeps_the_done_contract() {
    let rt = rt(2);
    let mut done_futures = Vec::new();
    let mut procs = Vec::new();
    for i in 0..10u64 {
        let proc = rt.create_process(LocalityId((i % 2) as u16));
        let counter = Arc::new(AtomicU64::new(0));
        let c = counter.clone();
        proc.spawn_at(&rt, LocalityId(0), move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        proc.finish_root(&rt);
        proc.wait(&rt).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
        done_futures.push(proc.done_future());
        procs.push(proc);
    }
    assert_eq!(rt.process_table_size(), 10);
    assert_eq!(rt.stats().processes_reaped, 0, "no sweep ran yet");
    // `wait` resolves when the done future fires, which happens just
    // before the record's exit cleanup — poll until every record is
    // reapable.
    let t0 = std::time::Instant::now();
    let mut reaped = 0;
    while reaped < 10 {
        reaped += rt.reap_processes();
        assert!(t0.elapsed() < BOUND, "records never became reapable");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(rt.process_table_size(), 0);
    assert_eq!(rt.stats().processes_reaped, 10);
    // The done-future contract survives the reap: done futures still
    // resolve for late waiters, and handle queries degrade gracefully.
    for fut in done_futures {
        fut.wait(&rt).unwrap();
    }
    for proc in &procs {
        assert_eq!(proc.active(&rt), 0);
        assert!(proc.children(&rt).is_empty());
        assert!(!proc.is_cancelled(&rt));
    }
    // A re-sweep is a no-op.
    assert_eq!(rt.reap_processes(), 0);
    rt.shutdown();
}

#[test]
fn reap_runs_automatically_and_spares_live_processes() {
    let rt = rt(1);
    // A long-lived tenant parent that must survive every sweep.
    let parent = rt.create_process(LocalityId(0));
    // Churn enough one-shot processes to cross the periodic sweep
    // threshold several times.
    for _ in 0..200 {
        let p = rt.create_process(LocalityId(0));
        p.finish_root(&rt);
        p.wait(&rt).unwrap();
    }
    let t0 = std::time::Instant::now();
    while rt.stats().processes_reaped == 0 {
        assert!(t0.elapsed() < BOUND, "automatic sweep never fired");
        let p = rt.create_process(LocalityId(0));
        p.finish_root(&rt);
        p.wait(&rt).unwrap();
    }
    assert!(
        rt.process_table_size() < 200,
        "table should shrink: {} records",
        rt.process_table_size()
    );
    // The live parent was never reaped: it still accepts subprocesses.
    assert!(parent.create_subprocess(&rt, LocalityId(0)).is_ok());
    // Cancelled subtrees become reapable too, once drained.
    parent.cancel(&rt);
    let t0 = std::time::Instant::now();
    loop {
        rt.reap_processes();
        let gone = parent.active(&rt) == 0 && rt.process_table_size() == 0;
        if gone {
            break;
        }
        assert!(t0.elapsed() < BOUND, "cancelled subtree never reaped");
        std::thread::sleep(Duration::from_millis(1));
    }
    rt.shutdown();
}
