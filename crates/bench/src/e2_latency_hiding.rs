//! E2: intrinsic latency hiding (§2.2).
//!
//! The claim: "Message-driven computing through parcels … largely
//! circumvents idle cycles due to blocking on remote access delays."
//!
//! Workload: each of `L` localities/ranks processes `T` tasks; a task
//! needs one remote datum (1 KiB from the neighbor) and then `G` µs of
//! compute. The ParalleX version issues all fetches split-phase and
//! computes as values arrive; the CSP version does the MPI-natural thing —
//! blocking get, then compute — with a zero-cost remote responder
//! (deliberately generous to the baseline). Sweep the injected wire
//! latency and watch the blocking model's time grow linearly while the
//! split-phase model stays near the compute bound. The mechanism is the
//! fetches each locality has in flight at once: the split-phase model
//! issues every task's fetch before the first reply, the blocking one
//! never has more than one outstanding.

use crate::table::{f2, ms, print_table};
use crate::InFlight;
use px_baseline::csp::World;
use px_core::net::WireModel;
use px_core::prelude::*;
use px_workloads::synth::spin_for_ns;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Localities / ranks.
pub const LOCALITIES: usize = 4;
/// Tasks per locality.
pub const TASKS: usize = 200;
/// Compute grain per task, ns.
pub const GRAIN_NS: u64 = 20_000;
/// Remote datum size, bytes.
pub const BLOCK: usize = 1024;

/// One sweep row.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Injected one-way latency.
    pub latency: Duration,
    /// ParalleX makespan.
    pub px: Duration,
    /// CSP makespan (max over ranks).
    pub csp: Duration,
    /// ParalleX worker busy fraction during the run.
    pub px_busy: f64,
}

/// Run the ParalleX side once, `tasks` per locality; returns (elapsed,
/// busy fraction, the fewest fetches any locality had in flight at its
/// peak).
pub fn run_parallex(latency: Duration, tasks: usize) -> (Duration, f64, u64) {
    let cfg = Config::small(LOCALITIES, 1).with_latency(latency);
    let rt = RuntimeBuilder::new(cfg).build().unwrap();
    // One 1 KiB block per locality, fetched by the neighbor.
    let blocks: Vec<Gid> = (0..LOCALITIES)
        .map(|i| rt.new_data_at(LocalityId(i as u16), vec![0xabu8; BLOCK]))
        .collect();
    let gate = rt.new_and_gate(LocalityId(0), (LOCALITIES * tasks) as u64);
    let gate_fut: FutureRef<()> = FutureRef::from_gid(gate);
    let fetches: Vec<Arc<InFlight>> = (0..LOCALITIES).map(|_| Arc::default()).collect();

    let before = rt.stats().total();
    let t0 = Instant::now();
    for (i, fetches) in fetches.iter().enumerate() {
        let remote = blocks[(i + 1) % LOCALITIES];
        let fetches = fetches.clone();
        rt.spawn_at(LocalityId(i as u16), move |ctx| {
            for _ in 0..tasks {
                fetches.issue();
                let fut = ctx.fetch_data(remote);
                let fetches = fetches.clone();
                ctx.when_future(fut, move |ctx, _bytes: Vec<u8>| {
                    fetches.answered();
                    spin_for_ns(GRAIN_NS);
                    ctx.trigger_value(gate, px_core::action::Value::unit());
                });
            }
        });
    }
    rt.wait_future(gate_fut).unwrap();
    let elapsed = t0.elapsed();
    let busy = rt.stats().total().delta_from(&before).busy_fraction();
    rt.shutdown();
    let in_flight = fetches.iter().map(|f| f.peak()).min().unwrap();
    (elapsed, busy, in_flight)
}

/// Run the CSP side once, `tasks` per rank; returns the max rank
/// makespan.
pub fn run_csp(latency: Duration, tasks: usize) -> Duration {
    let model = WireModel {
        latency,
        ns_per_byte: 0,
    };
    let times = World::run(LOCALITIES, model, move |mut rank| {
        rank.store_put(0, vec![0xabu8; BLOCK]);
        rank.barrier();
        let neighbor = (rank.id() + 1) % rank.world_size();
        let t0 = Instant::now();
        for _ in 0..tasks {
            let _block = rank.store_get(neighbor, 0); // blocking RTT
            spin_for_ns(GRAIN_NS);
        }
        t0.elapsed()
    });
    times.into_iter().max().unwrap()
}

/// Full sweep (median of `reps`).
pub fn sweep(latencies_us: &[u64], reps: usize) -> Vec<Row> {
    latencies_us
        .iter()
        .map(|&us| {
            let latency = Duration::from_micros(us);
            let mut pxs = Vec::new();
            let mut busys = Vec::new();
            let mut csps = Vec::new();
            for _ in 0..reps {
                let (p, b, _) = run_parallex(latency, TASKS);
                pxs.push(p);
                busys.push(b);
                csps.push(run_csp(latency, TASKS));
            }
            pxs.sort();
            csps.sort();
            busys.sort_by(f64::total_cmp);
            let px = pxs[pxs.len() / 2];
            let csp = csps[csps.len() / 2];
            Row {
                latency,
                px,
                csp,
                px_busy: busys[busys.len() / 2],
            }
        })
        .collect()
}

/// Print the E2 table.
pub fn run() -> Vec<Row> {
    let rows = sweep(&[0, 10, 25, 50, 100], 3);
    let compute_bound = Duration::from_nanos(TASKS as u64 * GRAIN_NS);
    println!(
        "\n[E2] {LOCALITIES} localities × {TASKS} tasks, grain {} µs, block {BLOCK} B; per-locality compute bound = {} ms",
        GRAIN_NS / 1000,
        ms(compute_bound),
    );
    print_table(
        "E2 — latency hiding: split-phase parcels vs blocking CSP",
        &["latency µs", "ParalleX ms", "CSP ms", "PX busy", "speedup"],
        rows.iter().map(|r| {
            vec![
                r.latency.as_micros().to_string(),
                ms(r.px),
                ms(r.csp),
                f2(r.px_busy),
                f2(r.csp.as_secs_f64() / r.px.as_secs_f64()),
            ]
        }),
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mechanism, counted: behind a 500 µs wire every ParalleX
    /// locality issues all of its tasks' fetches before the first reply.
    /// A blocking CSP rank has one outstanding by construction. What
    /// that overlap buys in makespan is `px-bench e2`'s table.
    #[test]
    fn latency_hiding_shape() {
        let latency = Duration::from_micros(500);
        let (_, _, in_flight) = run_parallex(latency, 50);
        assert_eq!(in_flight, 50, "ParalleX fetches in flight");
    }
}
