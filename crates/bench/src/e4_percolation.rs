//! E4: percolation keeps the precious resource busy (§2.2).
//!
//! The claim: "For a precious resource, overhead and latency can greatly
//! degrade system efficiency. Percolation … employs ancillary mechanisms
//! to prestage data and tasks … Prefetching is also a form of prestaging
//! but performed by the compute element itself, thus imposing the
//! overhead burden, and possibly the impact of latency, on it as well."
//!
//! Three deliveries of the same `N × (4 KiB data + G µs kernel)` stream
//! to a one-worker accelerator locality behind a 25 µs wire:
//!
//! * **percolation** — data travels *with* the staged task; the
//!   accelerator only computes;
//! * **prefetch** — the accelerator receives descriptors and issues its
//!   own split-phase fetches (latency largely hidden by task overlap, but
//!   the fetch overhead lands on the accelerator);
//! * **demand (serialized)** — one task in flight at a time, the
//!   accelerator idles for a full fetch round trip per task (no latency
//!   tolerance — the conventional accelerator offload pattern).

use crate::table::{f2, ms, print_table};
use px_core::parcel::Continuation;
use px_core::prelude::*;
use px_litlx::percolate::Directive;
use px_workloads::synth::spin_for_ns;
use std::time::{Duration, Instant};

/// Tasks.
pub const TASKS: usize = 100;
/// Kernel grain, ns.
pub const GRAIN_NS: u64 = 30_000;
/// Data block per task, bytes.
pub const BLOCK: usize = 4096;
/// Wire latency.
pub const LATENCY: Duration = Duration::from_micros(25);

/// Accelerator locality id.
const ACCEL: LocalityId = LocalityId(2);
/// Data home locality id.
const HOME: LocalityId = LocalityId(0);

struct Kernel;
impl Action for Kernel {
    const NAME: &'static str = "e4/kernel";
    type Args = Vec<u8>;
    type Out = ();
    fn execute(_ctx: &mut Ctx<'_>, _t: Gid, data: Vec<u8>) {
        assert_eq!(data.len(), BLOCK);
        spin_for_ns(GRAIN_NS);
    }
}

/// Prefetch-mode descriptor: fetch `block`, compute, signal `gate`.
struct FetchKernel;
impl Action for FetchKernel {
    const NAME: &'static str = "e4/fetch_kernel";
    type Args = (Gid, Gid); // (block, gate)
    type Out = ();
    fn execute(ctx: &mut Ctx<'_>, _t: Gid, (block, gate): (Gid, Gid)) {
        let fut = ctx.fetch_data(block);
        ctx.when_future(fut, move |ctx, data: Vec<u8>| {
            assert_eq!(data.len(), BLOCK);
            spin_for_ns(GRAIN_NS);
            ctx.trigger_value(gate, px_core::action::Value::unit());
        });
    }
}

fn build_rt() -> Runtime {
    RuntimeBuilder::new(
        Config::small(3, 1)
            .with_latency(LATENCY)
            .with_accelerator(ACCEL),
    )
    .register::<Kernel>()
    .register::<FetchKernel>()
    .build()
    .unwrap()
}

/// Measurement for one delivery mode.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Mode name.
    pub mode: &'static str,
    /// Makespan.
    pub elapsed: Duration,
    /// Accelerator busy fraction during the run.
    pub accel_busy: f64,
    /// Staged tasks executed on the accelerator.
    pub staged: u64,
}

fn accel_busy(rt: &Runtime, before: &px_core::stats::LocalityStats) -> f64 {
    let after = rt.stats().localities[ACCEL.0 as usize];
    let d = after.delta_from(before);
    d.busy_ns as f64 / (d.busy_ns + d.idle_ns).max(1) as f64
}

/// Percolation: data rides with the staged task.
pub fn run_percolation() -> Row {
    let rt = build_rt();
    let gate = rt.new_and_gate(HOME, TASKS as u64);
    let gate_fut: FutureRef<()> = FutureRef::from_gid(gate);
    let block = vec![7u8; BLOCK];
    let before = rt.stats().localities[ACCEL.0 as usize];
    let t0 = Instant::now();
    for _ in 0..TASKS {
        Directive::<Kernel>::block(ACCEL, block.clone())
            .with_continuation(Continuation::set(gate))
            .issue(&rt)
            .unwrap();
    }
    rt.wait_future(gate_fut).unwrap();
    let elapsed = t0.elapsed();
    let row = Row {
        mode: "percolation",
        elapsed,
        accel_busy: accel_busy(&rt, &before),
        staged: rt.stats().localities[ACCEL.0 as usize].staged_executed,
    };
    rt.shutdown();
    row
}

/// Prefetch: the accelerator pulls its own data, split-phase.
pub fn run_prefetch() -> Row {
    let rt = build_rt();
    let gate = rt.new_and_gate(HOME, TASKS as u64);
    let gate_fut: FutureRef<()> = FutureRef::from_gid(gate);
    let blocks: Vec<Gid> = (0..TASKS)
        .map(|_| rt.new_data_at(HOME, vec![7u8; BLOCK]))
        .collect();
    let before = rt.stats().localities[ACCEL.0 as usize];
    let t0 = Instant::now();
    for &b in &blocks {
        rt.send_action::<FetchKernel>(Gid::locality_root(ACCEL), (b, gate), Continuation::none())
            .unwrap();
    }
    rt.wait_future(gate_fut).unwrap();
    let elapsed = t0.elapsed();
    let row = Row {
        mode: "prefetch",
        elapsed,
        accel_busy: accel_busy(&rt, &before),
        staged: rt.stats().localities[ACCEL.0 as usize].staged_executed,
    };
    rt.shutdown();
    row
}

/// Demand, serialized: the next task is only dispatched after the
/// previous completes (no latency tolerance at the accelerator).
pub fn run_demand_serialized() -> Row {
    let rt = build_rt();
    let blocks: Vec<Gid> = (0..TASKS)
        .map(|_| rt.new_data_at(HOME, vec![7u8; BLOCK]))
        .collect();
    let before = rt.stats().localities[ACCEL.0 as usize];
    let t0 = Instant::now();
    for &b in &blocks {
        // One-task gate; the driver (standing in for a conventional
        // offload host) waits before dispatching the next task.
        let gate1 = rt.new_and_gate(HOME, 1);
        rt.send_action::<FetchKernel>(Gid::locality_root(ACCEL), (b, gate1), Continuation::none())
            .unwrap();
        let gate_fut: FutureRef<()> = FutureRef::from_gid(gate1);
        rt.wait_future(gate_fut).unwrap();
    }
    let elapsed = t0.elapsed();
    let row = Row {
        mode: "demand-serial",
        elapsed,
        accel_busy: accel_busy(&rt, &before),
        staged: rt.stats().localities[ACCEL.0 as usize].staged_executed,
    };
    rt.shutdown();
    row
}

/// Print the E4 table.
pub fn run() -> Vec<Row> {
    let rows = vec![run_percolation(), run_prefetch(), run_demand_serialized()];
    println!(
        "\n[E4] {TASKS} kernels × {} µs on a 1-worker accelerator, {BLOCK} B/task, {} µs wire; compute bound = {} ms",
        GRAIN_NS / 1000,
        LATENCY.as_micros(),
        ms(Duration::from_nanos(TASKS as u64 * GRAIN_NS)),
    );
    print_table(
        "E4 — percolation vs accelerator-side prefetch vs serialized demand fetch",
        &["mode", "makespan ms", "accel busy", "staged tasks"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.to_string(),
                    ms(r.elapsed),
                    f2(r.accel_busy),
                    r.staged.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percolation_executes_staged() {
        let _gate = crate::TIMING_GATE.lock();
        let r = run_percolation();
        assert_eq!(r.staged as usize, TASKS);
    }

    #[test]
    fn ordering_percolation_beats_serialized_demand() {
        let _gate = crate::TIMING_GATE.lock();
        let perc = run_percolation();
        let demand = run_demand_serialized();
        // Serialized demand pays ≥ one RTT per task: ≥ 100 × 50 µs = 5 ms
        // over the compute bound.
        assert!(
            demand.elapsed > perc.elapsed + Duration::from_millis(3),
            "demand {:?} vs percolation {:?}",
            demand.elapsed,
            perc.elapsed
        );
    }
}
