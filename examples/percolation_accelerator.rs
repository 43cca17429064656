//! Percolation demo: keeping a precious resource busy (§2.2).
//!
//! Locality 2 plays the dataflow accelerator of Figure 1: one worker,
//! staging-buffer priority, behind a 25 µs wire. The same kernel stream
//! is delivered twice — percolated (data travels with the task) and
//! demand-fetched one-at-a-time — and the accelerator's busy fraction is
//! printed for both.
//!
//! ```sh
//! cargo run --release --example percolation_accelerator
//! ```

use parallex::core::prelude::*;
use parallex::litlx::percolate::Directive;
use parallex::workloads::synth::spin_for_ns;
use std::time::{Duration, Instant};

const TASKS: usize = 60;
const GRAIN_NS: u64 = 50_000;
const BLOCK: usize = 2048;
const ACCEL: LocalityId = LocalityId(2);

struct Kernel;
impl Action for Kernel {
    const NAME: &'static str = "demo/kernel";
    type Args = Vec<u8>;
    type Out = ();
    fn execute(_ctx: &mut Ctx<'_>, _t: Gid, data: Vec<u8>) {
        assert_eq!(data.len(), BLOCK);
        spin_for_ns(GRAIN_NS);
    }
}

struct FetchKernel;
impl Action for FetchKernel {
    const NAME: &'static str = "demo/fetch_kernel";
    type Args = (Gid, Gid);
    type Out = ();
    fn execute(ctx: &mut Ctx<'_>, _t: Gid, (block, gate): (Gid, Gid)) {
        let fut = ctx.fetch_data(block);
        ctx.when_future(fut, move |ctx, _data: Vec<u8>| {
            spin_for_ns(GRAIN_NS);
            ctx.trigger_value(gate, parallex::core::action::Value::unit());
        });
    }
}

fn accel_busy_delta(rt: &Runtime, before: &parallex::core::stats::LocalityStats) -> f64 {
    let after = rt.stats().localities[ACCEL.0 as usize];
    let d = after.delta_from(before);
    d.busy_ns as f64 / (d.busy_ns + d.idle_ns).max(1) as f64
}

fn main() {
    let rt = RuntimeBuilder::new(
        Config::small(3, 1)
            .with_latency(Duration::from_micros(25))
            .with_accelerator(ACCEL),
    )
    .register::<Kernel>()
    .register::<FetchKernel>()
    .build()
    .expect("boot");

    println!(
        "{TASKS} kernels × {} µs, block {BLOCK} B, wire 25 µs; compute bound {:.1} ms",
        GRAIN_NS / 1000,
        TASKS as f64 * GRAIN_NS as f64 / 1e6
    );

    // Percolated delivery.
    let gate = rt.new_and_gate(LocalityId(0), TASKS as u64);
    let gate_fut: FutureRef<()> = FutureRef::from_gid(gate);
    let before = rt.stats().localities[ACCEL.0 as usize];
    let t0 = Instant::now();
    for _ in 0..TASKS {
        Directive::<Kernel>::block(ACCEL, vec![9u8; BLOCK])
            .with_continuation(Continuation::set(gate))
            .issue(&rt)
            .unwrap();
    }
    rt.wait_future(gate_fut).unwrap();
    println!(
        "percolation : {:.2} ms, accelerator busy {:.0}%",
        t0.elapsed().as_secs_f64() * 1e3,
        accel_busy_delta(&rt, &before) * 100.0
    );

    // Demand-fetched, serialized delivery.
    let blocks: Vec<Gid> = (0..TASKS)
        .map(|_| rt.new_data_at(LocalityId(0), vec![9u8; BLOCK]))
        .collect();
    let before = rt.stats().localities[ACCEL.0 as usize];
    let t0 = Instant::now();
    for &b in &blocks {
        let gate1 = rt.new_and_gate(LocalityId(0), 1);
        rt.send_action::<FetchKernel>(Gid::locality_root(ACCEL), (b, gate1), Continuation::none())
            .unwrap();
        let f: FutureRef<()> = FutureRef::from_gid(gate1);
        rt.wait_future(f).unwrap();
    }
    println!(
        "demand fetch: {:.2} ms, accelerator busy {:.0}%",
        t0.elapsed().as_secs_f64() * 1e3,
        accel_busy_delta(&rt, &before) * 100.0
    );

    rt.shutdown();
}
