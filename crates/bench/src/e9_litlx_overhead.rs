//! E9: LITL-X construct overheads (§2.3).
//!
//! LITL-X exists "to prototype a set of promising concepts and to test
//! their impact on system performance and efficiency"; the first such
//! impact is the overhead each construct adds (§2.1: "Overhead … can
//! determine … the minimum granularity of program tasks that can be
//! effectively exploited"). This harness measures per-operation cost of
//! every construct on an instant wire, giving the granularity floor.

use crate::table::print_table;
use px_core::parcel::Continuation;
use px_core::prelude::*;
use px_litlx::atomic::AtomicRegion;
use px_litlx::dataflow::DataflowNode;
use px_litlx::percolate::Directive;
use px_litlx::slots::SyncSlot;
use std::time::{Duration, Instant};

struct Noop;
impl Action for Noop {
    const NAME: &'static str = "e9/noop";
    type Args = ();
    type Out = ();
    fn execute(_ctx: &mut Ctx<'_>, _t: Gid, _a: ()) {}
}

/// One measured construct.
#[derive(Debug, Clone)]
pub struct Row {
    /// Construct name.
    pub construct: &'static str,
    /// Operations measured.
    pub ops: u64,
    /// Cost per operation.
    pub per_op: Duration,
}

fn build_rt() -> Runtime {
    RuntimeBuilder::new(Config::small(2, 1).with_accelerator(LocalityId(1)))
        .register::<Noop>()
        .build()
        .unwrap()
}

fn measure(name: &'static str, ops: u64, f: impl FnOnce()) -> Row {
    let t0 = Instant::now();
    f();
    let elapsed = t0.elapsed();
    Row {
        construct: name,
        ops,
        per_op: elapsed / ops as u32,
    }
}

/// Cost of a local PX-thread spawn (the TNT coarse-thread floor).
pub fn bench_spawn(ops: u64) -> Row {
    let rt = build_rt();
    let gate = rt.new_and_gate(LocalityId(0), ops);
    let gate_fut: FutureRef<()> = FutureRef::from_gid(gate);
    let row = measure("spawn (local thread)", ops, || {
        rt.spawn_at(LocalityId(0), move |ctx| {
            for _ in 0..ops {
                ctx.spawn(move |ctx| {
                    ctx.trigger_value(gate, px_core::action::Value::unit());
                });
            }
        });
        rt.wait_future(gate_fut).unwrap();
    });
    rt.shutdown();
    row
}

/// Future create → set → resume cycle (sequential dependency chain).
pub fn bench_future_cycle(ops: u64) -> Row {
    let rt = build_rt();
    let done = rt.new_future::<bool>(LocalityId(0));
    let done_gid = done.gid();
    let row = measure("future set+resume cycle", ops, || {
        rt.spawn_at(LocalityId(0), move |ctx| {
            fn cycle(ctx: &mut Ctx<'_>, left: u64, done: Gid) {
                if left == 0 {
                    ctx.trigger(done, &true).unwrap();
                    return;
                }
                let fut = ctx.new_future::<u64>();
                ctx.when_future(fut, move |ctx, _v| cycle(ctx, left - 1, done));
                ctx.set_future(fut, &left).unwrap();
            }
            cycle(ctx, ops, done_gid);
        });
        done.wait(&rt).unwrap();
    });
    rt.shutdown();
    row
}

/// Sync-slot signal + drain cycle.
pub fn bench_sync_slot(ops: u64) -> Row {
    let rt = build_rt();
    let done = rt.new_future::<bool>(LocalityId(0));
    let done_gid = done.gid();
    let row = measure("sync slot signal+fire", ops, || {
        rt.spawn_at(LocalityId(0), move |ctx| {
            fn cycle(ctx: &mut Ctx<'_>, left: u64, done: Gid) {
                if left == 0 {
                    ctx.trigger(done, &true).unwrap();
                    return;
                }
                let slot = SyncSlot::new(ctx, 1);
                slot.on_complete(ctx, move |ctx, _| cycle(ctx, left - 1, done));
                slot.signal(ctx);
            }
            cycle(ctx, ops, done_gid);
        });
        done.wait(&rt).unwrap();
    });
    rt.shutdown();
    row
}

/// Async invoke of a remote no-op action (parcel + continuation).
pub fn bench_async_invoke(ops: u64) -> Row {
    let rt = build_rt();
    let done = rt.new_future::<bool>(LocalityId(0));
    let done_gid = done.gid();
    let row = measure("async_invoke remote noop", ops, || {
        rt.spawn_at(LocalityId(0), move |ctx| {
            fn cycle(ctx: &mut Ctx<'_>, left: u64, done: Gid) {
                if left == 0 {
                    ctx.trigger(done, &true).unwrap();
                    return;
                }
                let fut = ctx
                    .call::<Noop>(Gid::locality_root(LocalityId(1)), ())
                    .unwrap();
                ctx.when_future(fut, move |ctx, ()| cycle(ctx, left - 1, done));
            }
            cycle(ctx, ops, done_gid);
        });
        done.wait(&rt).unwrap();
    });
    rt.shutdown();
    row
}

/// Atomic region enter/exit cycle.
pub fn bench_atomic_region(ops: u64) -> Row {
    let rt = build_rt();
    let region = AtomicRegion::new(&rt, LocalityId(0));
    let done = rt.new_future::<bool>(LocalityId(0));
    let done_gid = done.gid();
    let row = measure("atomic region enter/exit", ops, || {
        rt.spawn_at(LocalityId(0), move |ctx| {
            fn cycle(ctx: &mut Ctx<'_>, region: AtomicRegion, left: u64, done: Gid) {
                if left == 0 {
                    ctx.trigger(done, &true).unwrap();
                    return;
                }
                region.enter(ctx, move |ctx| {
                    ctx.spawn(move |ctx| cycle(ctx, region, left - 1, done));
                });
            }
            cycle(ctx, region, ops, done_gid);
        });
        done.wait(&rt).unwrap();
    });
    rt.shutdown();
    row
}

/// Two-input dataflow fire cycle.
pub fn bench_dataflow(ops: u64) -> Row {
    let rt = build_rt();
    let done = rt.new_future::<bool>(LocalityId(0));
    let done_gid = done.gid();
    let row = measure("dataflow 2-slot fire", ops, || {
        rt.spawn_at(LocalityId(0), move |ctx| {
            fn cycle(ctx: &mut Ctx<'_>, left: u64, done: Gid) {
                if left == 0 {
                    ctx.trigger(done, &true).unwrap();
                    return;
                }
                let node = DataflowNode::<u64, u64>::new(ctx, 2, |ins| ins[0] + ins[1]);
                node.on_fire(ctx, move |ctx, _| cycle(ctx, left - 1, done));
                node.put(ctx, 0, &1).unwrap();
                node.put(ctx, 1, &2).unwrap();
            }
            cycle(ctx, ops, done_gid);
        });
        done.wait(&rt).unwrap();
    });
    rt.shutdown();
    row
}

/// Percolation directive issue + staged execution.
pub fn bench_percolation(ops: u64) -> Row {
    let rt = build_rt();
    let gate = rt.new_and_gate(LocalityId(0), ops);
    let gate_fut: FutureRef<()> = FutureRef::from_gid(gate);
    let row = measure("percolation directive", ops, || {
        for _ in 0..ops {
            Directive::<Noop>::block(LocalityId(1), ())
                .with_continuation(Continuation::set(gate))
                .issue(&rt)
                .unwrap();
        }
        rt.wait_future(gate_fut).unwrap();
    });
    rt.shutdown();
    row
}

/// Run all construct measurements.
pub fn all(ops: u64) -> Vec<Row> {
    vec![
        bench_spawn(ops),
        bench_future_cycle(ops),
        bench_sync_slot(ops),
        bench_async_invoke(ops),
        bench_atomic_region(ops),
        bench_dataflow(ops),
        bench_percolation(ops),
    ]
}

/// Print the E9 table.
pub fn run() -> Vec<Row> {
    let rows = all(20_000);
    println!("\n[E9] instant wire, per-op cost of each LITL-X construct (granularity floor)");
    print_table(
        "E9 — LITL-X construct overheads",
        &["construct", "ops", "ns/op"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.construct.to_string(),
                    r.ops.to_string(),
                    r.per_op.as_nanos().to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    rows
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_construct_runs_its_op_count() {
        let _gate = crate::TIMING_GATE.lock();
        // Each bench returns only once its completion gate or future has
        // seen every op, so returning at all is the claim; what an op
        // costs is `px-bench e9`'s table and pxmark's probes.
        let rows = super::all(2_000);
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().all(|r| r.ops == 2_000), "{rows:?}");
    }
}
