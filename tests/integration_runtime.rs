//! Cross-crate integration tests: the ParalleX runtime end to end, over a
//! real (latency-injecting) wire.

use parallex::core::prelude::*;
use parallex::core::{echo, lco::FutureRef};
use std::time::Duration;

struct Add;
impl Action for Add {
    const NAME: &'static str = "it/add";
    type Args = (u64, u64);
    type Out = u64;
    fn execute(_ctx: &mut Ctx<'_>, _t: Gid, (a, b): (u64, u64)) -> u64 {
        a + b
    }
}

struct Fib;
impl Action for Fib {
    const NAME: &'static str = "it/fib";
    type Args = u64;
    type Out = u64;
    #[allow(clippy::only_used_in_recursion)]
    fn execute(ctx: &mut Ctx<'_>, _t: Gid, n: u64) -> u64 {
        // Recursive actions exercise nested parcel execution (the result
        // is computed synchronously per activation; distribution happens
        // at the call sites below).
        if n < 2 {
            n
        } else {
            let f1 = Fib::execute(ctx, _t, n - 1);
            let f2 = Fib::execute(ctx, _t, n - 2);
            f1 + f2
        }
    }
}

fn rt_with_latency(locs: usize, us: u64) -> Runtime {
    RuntimeBuilder::new(Config::small(locs, 1).with_latency(Duration::from_micros(us)))
        .register::<Add>()
        .register::<Fib>()
        .build()
        .unwrap()
}

#[test]
fn typed_action_roundtrip_over_wire() {
    let rt = rt_with_latency(3, 50);
    let fut = rt.new_future::<u64>(LocalityId(0));
    rt.send_action::<Add>(
        Gid::locality_root(LocalityId(2)),
        (40, 2),
        Continuation::set(fut.gid()),
    )
    .unwrap();
    assert_eq!(fut.wait(&rt).unwrap(), 42);
    rt.shutdown();
}

#[test]
fn continuation_chains_migrate_control() {
    // Add at L1, whose result is contributed to a reduce at L0, twice.
    let rt = rt_with_latency(2, 20);
    let fold: parallex::core::lco::ReduceFn = Box::new(|a, b| {
        let x: u64 = a.decode().unwrap();
        let y: u64 = b.decode().unwrap();
        parallex::core::action::Value::encode(&(x + y)).unwrap()
    });
    let red = rt.new_reduce(LocalityId(0), 2, &0u64, fold).unwrap();
    for k in 0..2u64 {
        rt.send_action::<Add>(
            Gid::locality_root(LocalityId(1)),
            (k, 10),
            Continuation::contribute(red.gid()),
        )
        .unwrap();
    }
    assert_eq!(rt.wait_future(red).unwrap(), 21);
    rt.shutdown();
}

#[test]
fn migration_forwards_in_flight_parcels() {
    let rt = rt_with_latency(3, 30);
    let data = rt.new_data_at(LocalityId(1), vec![5u8; 64]);
    // Warm a stale resolution at L0 by fetching once.
    let warm = rt.run_blocking(LocalityId(0), move |ctx| ctx.fetch_data(data));
    let bytes = rt.wait_future(warm).unwrap();
    assert_eq!(bytes.len(), 64);
    // Migrate to L2, then fetch again from L0 (stale cache → forward).
    rt.migrate_data(data, LocalityId(2)).unwrap();
    let fut = rt.run_blocking(LocalityId(0), move |ctx| ctx.fetch_data(data));
    let bytes = rt.wait_future(fut).unwrap();
    assert_eq!(bytes.len(), 64);
    // The read goes to the authoritative owner.
    assert_eq!(rt.read_data(data).unwrap(), vec![5u8; 64]);
    let total = rt.stats().total();
    assert!(total.dead_parcels == 0, "no parcels may die: {total:?}");
    rt.shutdown();
}

/// Reads its target in place: the parcel is addressed at a data object,
/// so the scheduler dispatches it where the object is resident, and the
/// handler reads that locality's store. Replies 0 for a read, 1 for
/// `NoSuchObject` naming the target, 2 for anything else.
struct ReadHere;
impl Action for ReadHere {
    const NAME: &'static str = "it/read_here";
    type Args = ();
    type Out = u8;
    fn execute(ctx: &mut Ctx<'_>, target: Gid, (): ()) -> u8 {
        match ctx.read_local_data(target) {
            Ok(_) => 0,
            Err(PxError::NoSuchObject(g)) if g == target => 1,
            Err(_) => 2,
        }
    }
}

/// The race `benchmark/README.md` warns about (do not drive `agas_mix`
/// with `read_local_data`): a parcel passes the residency check at
/// dispatch, then a concurrent migration removes its object before the
/// handler reads it in place. Here the driver migrates the object right
/// after sending each read, while a worker dispatches it — one move per
/// read, so no chase outruns the hop cap. What can go missing is the
/// migrating *data object*, which the handler reports as its own
/// `NoSuchObject`; the request's future — one-shot, read once by the
/// driver — never does: every wait returns a reply, no parcel dies, and
/// the stores end where they began.
#[test]
fn read_local_data_races_migration_but_no_future_goes_missing() {
    const READS: u64 = 20_000;
    let rt = RuntimeBuilder::new(Config::small(2, 1))
        .register::<ReadHere>()
        .build()
        .unwrap();
    let data = rt.new_data_at(LocalityId(0), vec![7; 64]);
    let sizes = || -> Vec<u64> { rt.stats().localities.iter().map(|l| l.objects).collect() };
    let initial = sizes();
    let mut replies = [0u64; 3];
    for i in 0..READS {
        let fut = rt.new_future::<u8>(LocalityId(0));
        rt.send_action::<ReadHere>(data, (), Continuation::set(fut.gid()))
            .unwrap();
        rt.migrate_data(data, LocalityId((i % 2) as u16 ^ 1))
            .unwrap();
        let code = fut.wait_timeout(&rt, Duration::from_secs(10)).unwrap();
        replies[usize::from(code.expect("a reply within the bound"))] += 1;
    }
    eprintln!("read_local_data under migration (read, NoSuchObject, other): {replies:?}");
    assert_eq!(replies[2], 0);
    assert_eq!(rt.stats().total().dead_parcels, 0);
    assert_eq!(sizes(), initial);
    rt.shutdown();
}

#[test]
fn process_quiescence_spans_wire_latency() {
    let rt = rt_with_latency(3, 40);
    let proc = rt.create_process(LocalityId(0));
    let counter = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    for l in 0..3u16 {
        let c = counter.clone();
        proc.spawn_at(&rt, LocalityId(l), move |ctx| {
            // Children hop to the next locality before counting.
            let next = LocalityId((l + 1) % 3);
            for _ in 0..4 {
                let c = c.clone();
                ctx.spawn_at(next, move |_ctx| {
                    c.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                });
            }
        });
    }
    proc.finish_root(&rt);
    proc.wait(&rt).unwrap();
    assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 12);
    rt.shutdown();
}

#[test]
fn semaphore_serializes_across_localities() {
    let rt = rt_with_latency(2, 10);
    let sem = rt.new_semaphore(LocalityId(0), 1);
    let log = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
    let gate = rt.new_and_gate(LocalityId(0), 8);
    let gate_fut: FutureRef<()> = FutureRef::from_gid(gate);
    for k in 0..8u16 {
        let log = log.clone();
        rt.spawn_at(LocalityId(k % 2), move |ctx| {
            let log = log.clone();
            ctx.acquire(sem, move |ctx| {
                log.lock().push(("enter", k));
                log.lock().push(("exit", k));
                ctx.release(sem);
                ctx.trigger_value(gate, parallex::core::action::Value::unit());
            });
        });
    }
    rt.wait_future(gate_fut).unwrap();
    let log = log.lock();
    assert_eq!(log.len(), 16);
    // Critical sections must not interleave.
    for pair in log.chunks(2) {
        assert_eq!(pair[0].0, "enter");
        assert_eq!(pair[1].0, "exit");
        assert_eq!(pair[0].1, pair[1].1);
    }
    rt.shutdown();
}

#[test]
fn echo_tree_propagates_updates_over_wire() {
    let rt = rt_with_latency(4, 20);
    let tree = echo::create_tree(&rt, LocalityId(0), 2, &1u64).unwrap();
    // Update through the root.
    let root = tree.root;
    rt.spawn_at(LocalityId(3), move |ctx| {
        echo::update(ctx, root, &99u64).unwrap();
    });
    // Every replica must converge to version 2 value 99.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    for l in 0..4u16 {
        let node = tree.local_node(LocalityId(l));
        loop {
            let (v, ver) = rt.run_blocking(LocalityId(l), move |ctx| {
                echo::read_local::<u64>(ctx.locality(), node).unwrap()
            });
            if ver == 2 && v == 99 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "replica at L{l} did not converge: v{ver}={v}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    rt.shutdown();
}

#[test]
fn panics_are_isolated() {
    let rt = rt_with_latency(2, 0);
    let fut = rt.new_future::<u8>(LocalityId(0));
    let fut_gid = fut.gid();
    rt.spawn_at(LocalityId(1), |_ctx| {
        panic!("deliberate PX-thread panic");
    });
    // The runtime survives and continues to execute work.
    rt.spawn_at(LocalityId(1), move |ctx| {
        ctx.trigger(fut_gid, &7u8).unwrap();
    });
    assert_eq!(fut.wait(&rt).unwrap(), 7);
    assert_eq!(rt.stats().total().panics, 1);
    rt.shutdown();
}

#[test]
fn dataflow_across_localities() {
    let rt = rt_with_latency(3, 25);
    let out = rt.new_future::<u64>(LocalityId(0));
    let out_gid = out.gid();
    rt.spawn_at(LocalityId(0), move |ctx| {
        let combine: parallex::core::lco::CombineFn = Box::new(|slots| {
            let product: u64 = slots
                .iter_mut()
                .map(|s| s.take().unwrap().decode::<u64>().unwrap())
                .product();
            parallex::core::action::Value::encode(&product).unwrap()
        });
        let node = ctx.new_dataflow(3, combine);
        ctx.when_ready(node, move |ctx, v| {
            let product: u64 = v.decode().unwrap();
            ctx.trigger(out_gid, &product).unwrap();
        });
        // Producers at three localities fill the slots over the wire.
        for (idx, l) in [(0u32, 0u16), (1, 1), (2, 2)] {
            ctx.spawn_at(LocalityId(l), move |ctx| {
                ctx.set_slot(node, idx, &(idx as u64 + 2)).unwrap();
            });
        }
    });
    assert_eq!(out.wait(&rt).unwrap(), 2 * 3 * 4);
    rt.shutdown();
}

#[test]
fn symbolic_names_route_work() {
    let rt = rt_with_latency(2, 0);
    let data = rt.new_data_at(LocalityId(1), b"hello".to_vec());
    rt.register_name("/app/greeting", data).unwrap();
    let fut = rt.run_blocking(LocalityId(0), |ctx| {
        let gid = ctx.lookup_name("/app/greeting").unwrap();
        ctx.fetch_data(gid)
    });
    assert_eq!(rt.wait_future(fut).unwrap(), b"hello".to_vec());
    rt.shutdown();
}

#[test]
fn stats_accounting_is_consistent() {
    let rt = rt_with_latency(2, 0);
    let fut = rt.new_future::<u64>(LocalityId(0));
    rt.send_action::<Add>(
        Gid::locality_root(LocalityId(1)),
        (1, 2),
        Continuation::set(fut.gid()),
    )
    .unwrap();
    fut.wait(&rt).unwrap();
    let s = rt.stats();
    let total = s.total();
    assert!(total.parcels_sent >= 2, "action + lco_set: {total:?}");
    assert!(total.parcels_recv >= 2);
    assert_eq!(total.dead_parcels, 0);
    assert_eq!(total.panics, 0);
    rt.shutdown();
}

/// Tentpole happy path: an explicitly traced request replays end to end —
/// the send, its dispatch at the target, and the continuation's LCO
/// delivery all appear under one id, in causal order.
#[test]
fn traced_request_replays_in_causal_order() {
    let rt = RuntimeBuilder::new(Config::small(2, 1).with_trace_sampling(1))
        .register::<Add>()
        .build()
        .unwrap();
    let fut = rt.new_future::<u64>(LocalityId(0));
    let trace = rt.new_trace_id().expect("tracing is on");
    rt.send_action_traced::<Add>(
        Gid::locality_root(LocalityId(1)),
        (40, 2),
        Continuation::set(fut.gid()),
        trace,
    )
    .unwrap();
    assert_eq!(fut.wait(&rt).unwrap(), 42);
    // The ring write races the waiter wakeup by design (recording is
    // off the hot path), so give the worker a bounded moment to land
    // the trigger event before reading the timeline.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut dump = rt.trace_dump_for(trace);
    while !dump
        .events
        .iter()
        .any(|e| e.kind == TraceEventKind::LcoTrigger)
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(1));
        dump = rt.trace_dump_for(trace);
    }
    assert!(!dump.events.is_empty(), "traced request left a timeline");
    let pos = |kind: TraceEventKind| dump.events.iter().position(|e| e.kind == kind);
    let send = pos(TraceEventKind::ParcelSend).expect("send recorded");
    let dispatch = pos(TraceEventKind::ParcelDispatch).expect("dispatch recorded");
    let trigger = pos(TraceEventKind::LcoTrigger).expect("future set recorded");
    assert!(
        send < dispatch && dispatch < trigger,
        "causal order send -> dispatch -> trigger:\n{}",
        dump.render()
    );
    assert!(
        dump.events.iter().all(|e| e.trace == trace),
        "filtered dump carries only the requested id"
    );
    // The stats surface agrees that events were recorded and none lost.
    let total = rt.stats().total();
    assert!(total.trace_events_recorded >= dump.events.len() as u64);
    assert_eq!(total.trace_events_dropped, 0);
    rt.shutdown();
}
