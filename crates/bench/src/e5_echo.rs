//! E5: echo split-phase copy semantics (§2.2).
//!
//! The claim: echo "permits overlap between coherency verification and
//! continued computation with the latest known value, thus reducing the
//! apparent latency and increasing the available parallelism."
//!
//! Workload: a shared writable variable in an echo tree rooted at L0;
//! reader threads at the other localities run `M` iterations of
//! (read replica → compute `G` µs → commit side effects). Two protocols:
//!
//! * **echo split-phase** — the reader issues the validation parcel and
//!   immediately continues into the next iteration with its current
//!   replica value; commits resolve asynchronously (some come back
//!   stale — that is the protocol working, not failing).
//! * **validate-first (blocking analogue)** — the reader fetches the
//!   authoritative value from the root *before* each compute, serializing
//!   a round trip into every iteration — what a coherent-read protocol
//!   costs on this topology.
//!
//! A writer updates the root throughout, so staleness is real.

use crate::table::{ms, print_table};
use px_core::echo;
use px_core::prelude::*;
use px_workloads::synth::spin_for_ns;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Localities (root + readers).
pub const LOCALITIES: usize = 4;
/// Iterations per reader.
pub const ITERS: usize = 100;
/// Compute grain, ns.
pub const GRAIN_NS: u64 = 25_000;
/// Wire latency.
pub const LATENCY: Duration = Duration::from_micros(25);
/// Writer updates during the run.
pub const UPDATES: usize = 20;

/// Result of one protocol run.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Protocol name.
    pub mode: &'static str,
    /// Time until all reader iterations completed.
    pub elapsed: Duration,
    /// Commits validated as current.
    pub ok: u64,
    /// Commits found stale (recomputed with the fresh value).
    pub stale: u64,
}

/// Echo split-phase protocol.
pub fn run_echo() -> Row {
    let rt = RuntimeBuilder::new(Config::small(LOCALITIES, 1).with_latency(LATENCY))
        .build()
        .unwrap();
    let tree = echo::create_tree(&rt, LocalityId(0), 2, &0u64).unwrap();
    let gate = rt.new_and_gate(LocalityId(0), ((LOCALITIES - 1) * ITERS) as u64);
    let gate_fut: FutureRef<()> = FutureRef::from_gid(gate);
    let stale_count = Arc::new(AtomicU64::new(0));

    let t0 = Instant::now();
    for l in 1..LOCALITIES {
        let node = tree.local_node(LocalityId(l as u16));
        let root = tree.root;
        let stale_count = stale_count.clone();
        rt.spawn_at(LocalityId(l as u16), move |ctx| {
            fn iterate(
                ctx: &mut Ctx<'_>,
                node: Gid,
                root: Gid,
                gate: Gid,
                left: usize,
                stale_count: Arc<AtomicU64>,
            ) {
                if left == 0 {
                    return;
                }
                // Read the local replica (free), compute with it.
                let (_val, version) =
                    echo::read_local::<u64>(ctx.locality(), node).expect("replica present");
                spin_for_ns(GRAIN_NS);
                // Split-phase commit: issue validation, then continue into
                // the next iteration immediately (the overlap).
                let sc = stale_count.clone();
                echo::commit::<u64, _>(ctx, root, version, move |ctx, outcome| {
                    if matches!(outcome, Ok(echo::CommitOutcome::Stale { .. })) {
                        // Relaxed: stat tally, read after the run joins.
                        sc.fetch_add(1, Ordering::Relaxed);
                    }
                    ctx.trigger_value(gate, px_core::action::Value::unit());
                })
                .unwrap();
                let sc = stale_count;
                iterate_tail(ctx, node, root, gate, left - 1, sc);
            }
            fn iterate_tail(
                ctx: &mut Ctx<'_>,
                node: Gid,
                root: Gid,
                gate: Gid,
                left: usize,
                stale_count: Arc<AtomicU64>,
            ) {
                ctx.spawn(move |ctx| iterate(ctx, node, root, gate, left, stale_count));
            }
            iterate(ctx, node, root, gate, ITERS, stale_count);
        });
    }
    // Writer: periodic root updates.
    let writer_root = tree.root;
    let rt_inner_updates = UPDATES;
    rt.spawn_at(LocalityId(0), move |ctx| {
        fn tick(ctx: &mut Ctx<'_>, root: Gid, k: usize) {
            if k == 0 {
                return;
            }
            spin_for_ns(200_000); // every 200 µs
            let _ = px_core::echo::update(ctx, root, &(k as u64));
            ctx.spawn(move |ctx| tick(ctx, root, k - 1));
        }
        tick(ctx, writer_root, rt_inner_updates);
    });

    rt.wait_future(gate_fut).unwrap();
    let elapsed = t0.elapsed();
    let (ok, stale) = echo::validation_stats(&rt, tree.root).unwrap();
    rt.shutdown();
    Row {
        mode: "echo split-phase",
        elapsed,
        ok,
        stale,
    }
}

/// Validate-first protocol: a coherent read (root fetch) before every
/// compute.
pub fn run_validate_first() -> Row {
    let rt = RuntimeBuilder::new(Config::small(LOCALITIES, 1).with_latency(LATENCY))
        .build()
        .unwrap();
    let tree = echo::create_tree(&rt, LocalityId(0), 2, &0u64).unwrap();
    let gate = rt.new_and_gate(LocalityId(0), ((LOCALITIES - 1) * ITERS) as u64);
    let gate_fut: FutureRef<()> = FutureRef::from_gid(gate);

    let t0 = Instant::now();
    for l in 1..LOCALITIES {
        let root = tree.root;
        rt.spawn_at(LocalityId(l as u16), move |ctx| {
            fn iterate(ctx: &mut Ctx<'_>, root: Gid, gate: Gid, left: usize) {
                if left == 0 {
                    return;
                }
                // Coherent read: validation round trip *before* compute
                // (used version 0 never matches, so the root returns the
                // current value — a fetch).
                echo::commit::<u64, _>(ctx, root, 0, move |ctx, _outcome| {
                    spin_for_ns(GRAIN_NS);
                    ctx.trigger_value(gate, px_core::action::Value::unit());
                    ctx.spawn(move |ctx| iterate(ctx, root, gate, left - 1));
                })
                .unwrap();
            }
            iterate(ctx, root, gate, ITERS);
        });
    }
    rt.wait_future(gate_fut).unwrap();
    let elapsed = t0.elapsed();
    let (ok, stale) = echo::validation_stats(&rt, tree.root).unwrap();
    rt.shutdown();
    Row {
        mode: "validate-first",
        elapsed,
        ok,
        stale,
    }
}

/// Print the E5 table.
pub fn run() -> Vec<Row> {
    let rows = vec![run_echo(), run_validate_first()];
    println!(
        "\n[E5] {} readers × {ITERS} iterations, grain {} µs, {} µs wire, {UPDATES} writer updates",
        LOCALITIES - 1,
        GRAIN_NS / 1000,
        LATENCY.as_micros(),
    );
    print_table(
        "E5 — echo split-phase commit vs validate-first (coherent read)",
        &["protocol", "makespan ms", "valid commits", "stale commits"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.to_string(),
                    ms(r.elapsed),
                    r.ok.to_string(),
                    r.stale.to_string(),
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
    fn split_phase_overlaps_validation() {
        let _gate = crate::TIMING_GATE.lock();
        let echo = run_echo();
        let blocking = run_validate_first();
        // validate-first serializes an RTT (≥ 50 µs) into each of 100
        // iterations per reader: ≥ 5 ms over the echo run.
        assert!(
            blocking.elapsed > echo.elapsed + Duration::from_millis(3),
            "blocking {:?} vs echo {:?}",
            blocking.elapsed,
            echo.elapsed
        );
        // All commits resolve one way or the other.
        assert_eq!(echo.ok + echo.stale, ((LOCALITIES - 1) * ITERS) as u64);
    }
}
