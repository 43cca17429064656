//! E11: starvation under skewed load (§2.1).
//!
//! The requirement: starvation is "the lack of work and therefore the
//! idle cycles experienced by an execution site … caused either due to
//! inadequate program parallelism or due to poor load balancing";
//! §2.2: "Message-driven computing through parcels allows physical
//! resources (execution locality) to operate via a work queue model."
//!
//! Workload: `N` equal tasks whose *natural* homes are Zipf-skewed over
//! localities (hot data ⇒ hot home). Two placements:
//!
//! * **static-affinity** — every task runs at its skewed home (what a
//!   partitioned-ownership model does);
//! * **work-queue spray** — tasks are dealt round-robin through parcels
//!   (the message-driven work-queue model; affinity traded for balance).
//!
//! The table reports makespan, the idle fraction of the starved
//! localities, and the busiest locality's share of the threads executed
//! — the split the placement controls.

use crate::table::{busiest_share, f2, ms, print_table};
use px_core::prelude::*;
use px_workloads::synth::{spin_for_ns, zipf_assign};
use std::time::{Duration, Instant};

/// Localities. Sized to small physical-core counts: with many more
/// spinning workers than cores, OS fair-share scheduling launders the
/// makespan contrast the table shows.
pub const LOCALITIES: usize = 2;
/// Tasks injected.
pub const TASKS: usize = 3_000;
/// Task grain, ns.
pub const GRAIN_NS: u64 = 15_000;

/// One measurement row.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Zipf skew of the natural homes.
    pub skew: f64,
    /// Static-affinity makespan.
    pub static_ms: Duration,
    /// Static-affinity mean idle fraction.
    pub static_idle: f64,
    /// Work-queue spray makespan.
    pub spray_ms: Duration,
    /// Spray mean idle fraction.
    pub spray_idle: f64,
    /// Threads each locality executed under static affinity.
    pub static_split: [u64; LOCALITIES],
    /// Threads each locality executed under the work-queue spray.
    pub spray_split: [u64; LOCALITIES],
}

fn run_placement(homes: &[u32], spray: bool) -> (Duration, f64, [u64; LOCALITIES]) {
    let rt = RuntimeBuilder::new(Config::small(LOCALITIES, 1))
        .build()
        .unwrap();
    // Completion counting must cost the same under both placements: each
    // task triggers an and-gate *on its own locality* (always the local
    // fast path), and the driver joins all gates.
    let dests: Vec<u16> = homes
        .iter()
        .enumerate()
        .map(|(k, &home)| {
            if spray {
                (k % LOCALITIES) as u16
            } else {
                home as u16
            }
        })
        .collect();
    let mut counts = [0u64; LOCALITIES];
    for &d in &dests {
        counts[d as usize] += 1;
    }
    let gates: Vec<Gid> = counts
        .iter()
        .enumerate()
        .map(|(l, &c)| rt.new_and_gate(LocalityId(l as u16), c))
        .collect();
    let before = rt.stats();
    let t0 = Instant::now();
    for &d in &dests {
        let gate = gates[d as usize];
        rt.spawn_at(LocalityId(d), move |ctx| {
            spin_for_ns(GRAIN_NS);
            ctx.trigger_value(gate, px_core::action::Value::unit());
        });
    }
    for (l, &gate) in gates.iter().enumerate() {
        if counts[l] > 0 {
            let fut: FutureRef<()> = FutureRef::from_gid(gate);
            rt.wait_future(fut).unwrap();
        }
    }
    let elapsed = t0.elapsed();
    let idle = 1.0 - rt.stats().delta_from(&before).mean_busy_fraction();
    // Counted after shutdown: a worker counts a thread once it has run
    // it, which for the last one is after its gate fired.
    rt.shutdown();
    let d = rt.stats().delta_from(&before);
    let split = std::array::from_fn(|l| d.localities[l].threads_executed);
    (elapsed, idle, split)
}

/// Sweep skews.
pub fn sweep(skews: &[f64]) -> Vec<Row> {
    skews
        .iter()
        .map(|&skew| {
            let homes = zipf_assign(TASKS, LOCALITIES, skew, 0xcafe);
            let (static_ms, static_idle, static_split) = run_placement(&homes, false);
            let (spray_ms, spray_idle, spray_split) = run_placement(&homes, true);
            Row {
                skew,
                static_ms,
                static_idle,
                spray_ms,
                spray_idle,
                static_split,
                spray_split,
            }
        })
        .collect()
}

/// Print the E11 table.
pub fn run() -> Vec<Row> {
    let rows = sweep(&[0.0, 1.5, 3.0]);
    // With LOCALITIES = 2, zipf s = 3.0 puts ~89% of tasks on one home.
    println!(
        "\n[E11] {TASKS} × {} µs tasks over {LOCALITIES} single-worker localities",
        GRAIN_NS / 1000
    );
    print_table(
        "E11 — starvation: static skewed placement vs message-driven work queue",
        &[
            "zipf s",
            "static ms",
            "static idle",
            "work-queue ms",
            "work-queue idle",
            "speedup",
            "static busiest",
            "work-queue busiest",
        ],
        rows.iter().map(|r| {
            vec![
                f2(r.skew),
                ms(r.static_ms),
                f2(r.static_idle),
                ms(r.spray_ms),
                f2(r.spray_idle),
                f2(r.static_ms.as_secs_f64() / r.spray_ms.as_secs_f64()),
                f2(busiest_share(&r.static_split)),
                f2(busiest_share(&r.spray_split)),
            ]
        }),
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Skew 3.0 puts ~89% of the tasks' homes on one of the two
    /// localities. Static affinity runs them there and the other
    /// locality starves; the work queue deals them evenly. Counted in the
    /// threads each locality executed; the makespans and idle fractions
    /// are `px-bench e11`'s table.
    #[test]
    fn work_queue_beats_static_under_skew() {
        let r = sweep(&[3.0])[0];
        let homes = zipf_assign(TASKS, LOCALITIES, 3.0, 0xcafe);
        let at_home = |l| homes.iter().filter(|&&h| h as usize == l).count() as u64;
        assert_eq!(r.static_split, std::array::from_fn(at_home), "{r:?}");
        assert!(busiest_share(&r.static_split) > 0.8, "{r:?}");
        let even = (TASKS / LOCALITIES) as u64;
        assert_eq!(r.spray_split, [even; LOCALITIES], "{r:?}");
    }
}
