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
//!
//! The overlap is counted as the commits in flight at once: echo's
//! readers keep computing while many validations travel; validate-first
//! has at most one per reader.

use crate::table::{ms, print_table};
use crate::InFlight;
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
    /// Time until every commit resolved (the makespan).
    pub elapsed: Duration,
    /// Time until every reader finished its iterations: the latency the
    /// readers see.
    pub readers_done: Duration,
    /// Commits validated as current.
    pub ok: u64,
    /// Commits found stale (recomputed with the fresh value).
    pub stale: u64,
    /// Most commits issued and not yet resolved at once, over all readers.
    pub in_flight: u64,
}

/// A run's start, when its last reader finished (ns after), and its
/// commits in flight over all readers.
struct Progress {
    start: Instant,
    readers_done: AtomicU64,
    commits: InFlight,
}

type Done = Arc<Progress>;

/// A reader finished its iterations.
fn finished(done: &Done) {
    let at = done.start.elapsed().as_nanos() as u64;
    // Relaxed: read after the gate fires, which needs the calling task's
    // commit to resolve; a reader's one worker resolves it after this task.
    done.readers_done.fetch_max(at, Ordering::Relaxed);
}

/// A run's runtime, its echo tree rooted at L0, the and-gate every
/// commit triggers, and its start.
fn setup() -> (Runtime, echo::EchoTreeRef, Gid, Done) {
    let rt = RuntimeBuilder::new(Config::small(LOCALITIES, 1).with_latency(LATENCY))
        .build()
        .unwrap();
    let tree = echo::create_tree(&rt, LocalityId(0), 2, &0u64).unwrap();
    let gate = rt.new_and_gate(LocalityId(0), ((LOCALITIES - 1) * ITERS) as u64);
    let done = Arc::new(Progress {
        start: Instant::now(),
        readers_done: AtomicU64::new(0),
        commits: InFlight::default(),
    });
    (rt, tree, gate, done)
}

/// Wait for every commit to resolve, then tally the run.
fn tally(mode: &'static str, rt: Runtime, root: Gid, gate: Gid, done: &Done) -> Row {
    rt.wait_future(FutureRef::<()>::from_gid(gate)).unwrap();
    let elapsed = done.start.elapsed();
    let (ok, stale) = echo::validation_stats(&rt, root).unwrap();
    rt.shutdown();
    Row {
        mode,
        elapsed,
        // Relaxed: every reader finished before the gate fired (`finished`).
        readers_done: Duration::from_nanos(done.readers_done.load(Ordering::Relaxed)),
        ok,
        stale,
        in_flight: done.commits.peak(),
    }
}

/// Echo split-phase protocol.
pub fn run_echo() -> Row {
    let (rt, tree, gate, done) = setup();
    for l in 1..LOCALITIES {
        let node = tree.local_node(LocalityId(l as u16));
        let root = tree.root;
        let done = done.clone();
        rt.spawn_at(LocalityId(l as u16), move |ctx| {
            fn iterate(
                ctx: &mut Ctx<'_>,
                node: Gid,
                root: Gid,
                gate: Gid,
                left: usize,
                done: Done,
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
                done.commits.issue();
                let answered = done.clone();
                echo::commit::<u64, _>(ctx, root, version, move |ctx, _outcome| {
                    answered.commits.answered();
                    ctx.trigger_value(gate, px_core::action::Value::unit());
                })
                .unwrap();
                if left == 1 {
                    finished(&done);
                }
                ctx.spawn(move |ctx| iterate(ctx, node, root, gate, left - 1, done));
            }
            iterate(ctx, node, root, gate, ITERS, done);
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
    tally("echo split-phase", rt, tree.root, gate, &done)
}

/// Validate-first protocol: a coherent read (root fetch) before every
/// compute.
pub fn run_validate_first() -> Row {
    let (rt, tree, gate, done) = setup();
    for l in 1..LOCALITIES {
        let root = tree.root;
        let done = done.clone();
        rt.spawn_at(LocalityId(l as u16), move |ctx| {
            fn iterate(ctx: &mut Ctx<'_>, root: Gid, gate: Gid, left: usize, done: Done) {
                if left == 0 {
                    return;
                }
                // Coherent read: validation round trip *before* compute
                // (used version 0 never matches, so the root returns the
                // current value — a fetch).
                done.commits.issue();
                echo::commit::<u64, _>(ctx, root, 0, move |ctx, _outcome| {
                    done.commits.answered();
                    spin_for_ns(GRAIN_NS);
                    if left == 1 {
                        finished(&done);
                    }
                    ctx.trigger_value(gate, px_core::action::Value::unit());
                    ctx.spawn(move |ctx| iterate(ctx, root, gate, left - 1, done));
                })
                .unwrap();
            }
            iterate(ctx, root, gate, ITERS, done);
        });
    }
    tally("validate-first", rt, tree.root, gate, &done)
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
        &[
            "protocol",
            "readers done ms",
            "makespan ms",
            "valid commits",
            "stale commits",
            "commits in flight",
        ],
        rows.iter().map(|r| {
            vec![
                r.mode.to_string(),
                ms(r.readers_done),
                ms(r.elapsed),
                r.ok.to_string(),
                r.stale.to_string(),
                r.in_flight.to_string(),
            ]
        }),
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The overlap, counted: echo's readers run ahead of their
    /// validations, so more commits are in flight at once than there are
    /// readers; validate-first waits for each, one per reader at most.
    /// The readers' finish times and the makespans are `px-bench e5`'s
    /// table.
    #[test]
    fn split_phase_overlaps_validation() {
        let echo = run_echo();
        let blocking = run_validate_first();
        let readers = (LOCALITIES - 1) as u64;
        assert!(echo.in_flight > readers, "{echo:?}");
        assert!(blocking.in_flight <= readers, "{blocking:?}");
        // All commits resolve one way or the other.
        assert_eq!(echo.ok + echo.stale, readers * ITERS as u64);
    }
}
