//! E13: multi-tenant process trees — the isolation win of cancellation
//! (§2.2 parallel processes; the "per-tenant work contexts" scenario the
//! ROADMAP's heavy-traffic north star implies).
//!
//! `TENANTS` tenant processes share one runtime. Tenant request sizes are
//! Zipf-skewed, so a few tenants are *stragglers* carrying most of the
//! work while the rest are small. Each tenant is a subprocess tree: the
//! tenant root process spawns its tasks (blocking grain, like E12) round
//! robin over the localities.
//!
//! Two modes:
//!
//! * **run-to-completion** — every tenant runs until quiescence. The
//!   stragglers dominate the makespan; small tenants are long done while
//!   the runtime grinds the heavy tail.
//! * **deadline-cancel** — a deadline thread cancels every tenant that
//!   has not quiesced by the deadline ([`px_core::process::ProcessRef::cancel`]).
//!   Cancelled tenants resolve their waiters with
//!   `FaultCause::Cancelled`; queued work is dropped at dispatch, so the
//!   makespan is bounded by deadline + drain.
//!
//! The isolation win is the makespan ratio: on-time tenants are served at
//! the same cost, and the deadline bounds how much a straggler can drag
//! everyone's wall clock. The test counts its cause: the tasks the
//! cancelled stragglers never run. Healthy runs (a deadline no tenant misses)
//! must report **zero** cancellations — the subsystem is free until used.

use crate::table::{f2, ms, print_table};
use px_core::prelude::*;
use px_workloads::synth::{sleep_for_ns, zipf_assign};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulated localities (single-worker each, like E12).
pub const LOCALITIES: usize = 4;
/// Zipf skew of request sizes over tenants (~80%+ of the work lands on
/// the heaviest tenant at s = 2.5).
pub const SKEW: f64 = 2.5;

/// Experiment sizes (shrunk by `smoke`).
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Tenant processes.
    pub tenants: usize,
    /// Total tasks, Zipf-split over the tenants.
    pub tasks: usize,
    /// Per-task blocking grain, ns.
    pub grain_ns: u64,
    /// Deadline after which stragglers are cancelled (cancel mode only).
    pub deadline: Duration,
}

/// Full-size parameters.
pub const FULL: Params = Params {
    tenants: 12,
    tasks: 1600,
    grain_ns: 200_000,
    deadline: Duration::from_millis(30),
};

/// Smoke-test parameters (CI).
pub const SMOKE: Params = Params {
    tenants: 8,
    tasks: 240,
    grain_ns: 100_000,
    deadline: Duration::from_millis(15),
};

/// One measurement: the tenant fleet under one deadline policy.
#[derive(Debug, Clone)]
pub struct Row {
    /// `"run-to-completion"` or `"deadline-cancel"`.
    pub mode: String,
    /// Wall clock until every tenant resolved (quiesced or cancelled).
    pub makespan_ms: f64,
    /// Tenants that quiesced before resolution.
    pub tenants_completed: u64,
    /// Tenants cancelled at the deadline.
    pub tenants_cancelled: u64,
    /// Tasks that actually executed.
    pub tasks_executed: u64,
    /// Tasks dropped/killed by cancellation (queued threads + parcels).
    pub tasks_cancelled: u64,
    /// Process-subtree cancellations recorded by the runtime.
    pub processes_cancelled: u64,
    /// Every cancelled tenant's waiter observed `FaultCause::Cancelled`.
    pub faults_observed: u64,
}

/// Run the tenant fleet once. `deadline = None` lets stragglers run.
pub fn run_fleet(p: Params, deadline: Option<Duration>) -> Row {
    let rt = Arc::new(
        RuntimeBuilder::new(Config::small(LOCALITIES, 1).with_latency(Duration::from_micros(20)))
            .build()
            .unwrap(),
    );
    // Zipf-split the task budget over tenants.
    let assignment = zipf_assign(p.tasks, p.tenants, SKEW, 0xe13);
    let mut sizes = vec![0usize; p.tenants];
    for &t in &assignment {
        sizes[t as usize] += 1;
    }
    let executed = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let tenants: Vec<_> = (0..p.tenants)
        .map(|i| rt.create_process(LocalityId((i % LOCALITIES) as u16)))
        .collect();
    // Inject round-robin, one task per still-pending tenant per round —
    // fair-share arrival. A tenant with n tasks has all of them queued
    // within the first n rounds, so a small tenant's completion time
    // scales with *its* size (plus its fair share of the machine), not
    // with the straggler's backlog.
    let grain = p.grain_ns;
    let mut remaining = sizes.clone();
    let mut k = 0usize;
    while remaining.iter().any(|&r| r > 0) {
        for (t, rem) in remaining.iter_mut().enumerate() {
            if *rem == 0 {
                continue;
            }
            *rem -= 1;
            let executed = executed.clone();
            tenants[t].spawn_at(&rt, LocalityId((k % LOCALITIES) as u16), move |_ctx| {
                sleep_for_ns(grain);
                // Relaxed: completion tally, read after the run joins.
                executed.fetch_add(1, Ordering::Relaxed);
            });
            k += 1;
        }
    }
    for proc in &tenants {
        proc.finish_root(&rt);
    }

    // The deadline thread: cancel whatever has not quiesced in time.
    // `stop_tx` lets the driver wake it early once every tenant has
    // resolved, so a generous deadline does not stall the harness.
    let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
    let killer = deadline.map(|d| {
        let rt = rt.clone();
        let procs = tenants.clone();
        std::thread::spawn(move || {
            if stop_rx.recv_timeout(d).is_ok() {
                return; // fleet finished before the deadline
            }
            for proc in procs {
                if proc.active(&rt) > 0 && !proc.is_cancelled(&rt) {
                    proc.cancel(&rt);
                }
            }
        })
    });

    let mut completed = 0u64;
    let mut cancelled = 0u64;
    let mut faults = 0u64;
    for proc in &tenants {
        match proc.wait(&rt) {
            Ok(()) => completed += 1,
            Err(PxError::Fault(f)) => {
                cancelled += 1;
                if f.cause == FaultCause::Cancelled {
                    faults += 1;
                }
            }
            Err(e) => panic!("unexpected tenant error: {e}"),
        }
    }
    let makespan = t0.elapsed();
    let _ = stop_tx.send(());
    if let Some(k) = killer {
        k.join().unwrap();
    }
    // Snapshot after shutdown: the workers have fully drained (and
    // counted) the cancelled tenants' queued tasks by then.
    rt.shutdown();
    let stats = rt.stats();
    let total = stats.total();
    Row {
        mode: if deadline.is_some() {
            "deadline-cancel".into()
        } else {
            "run-to-completion".into()
        },
        makespan_ms: makespan.as_secs_f64() * 1e3,
        tenants_completed: completed,
        tenants_cancelled: cancelled,
        // Relaxed: the runtime has shut down; no writer remains.
        tasks_executed: executed.load(Ordering::Relaxed),
        tasks_cancelled: total.tasks_cancelled + total.dead_cancelled,
        processes_cancelled: stats.processes_cancelled,
        faults_observed: faults,
    }
}

fn print_rows(title: &str, rows: &[Row]) {
    print_table(
        title,
        &[
            "mode",
            "makespan",
            "done",
            "cancelled",
            "tasks run",
            "tasks killed",
            "faults",
        ],
        rows.iter().map(|r| {
            vec![
                r.mode.clone(),
                ms(Duration::from_secs_f64(r.makespan_ms / 1e3)),
                r.tenants_completed.to_string(),
                r.tenants_cancelled.to_string(),
                r.tasks_executed.to_string(),
                r.tasks_cancelled.to_string(),
                r.faults_observed.to_string(),
            ]
        }),
    );
}

fn run_with(p: Params) -> Vec<Row> {
    println!(
        "\n[E13] {} tenants, {} × {} µs Zipf(s={SKEW}) tasks over {LOCALITIES} localities, \
         deadline {:?}",
        p.tenants,
        p.tasks,
        p.grain_ns / 1000,
        p.deadline
    );
    let full = run_fleet(p, None);
    let cut = run_fleet(p, Some(p.deadline));
    let rows = vec![full, cut];
    print_rows(
        "E13 — tenant isolation: deadline cancellation vs letting stragglers run",
        &rows,
    );
    let win = rows[0].makespan_ms / rows[1].makespan_ms;
    println!("isolation win (makespan ratio): {}", f2(win));
    rows
}

/// Full experiment: print the table.
pub fn run() -> Vec<Row> {
    run_with(FULL)
}

/// CI smoke: the same table, scaled down.
pub fn smoke() -> Vec<Row> {
    run_with(SMOKE)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Healthy fleets — no deadline, or one nobody misses — must report
    /// zero cancellations anywhere in the runtime (the acceptance
    /// criterion's "free until used" guarantee).
    #[test]
    fn healthy_runs_report_zero_cancellations() {
        let p = Params {
            tenants: 4,
            tasks: 60,
            grain_ns: 20_000,
            deadline: Duration::from_secs(300), // generous: never fires
        };
        for deadline in [None, Some(p.deadline)] {
            let row = run_fleet(p, deadline);
            assert_eq!(row.tenants_cancelled, 0, "{row:?}");
            assert_eq!(row.tasks_cancelled, 0, "{row:?}");
            assert_eq!(row.processes_cancelled, 0, "{row:?}");
            assert_eq!(row.tenants_completed, p.tenants as u64);
            assert_eq!(row.tasks_executed, p.tasks as u64);
        }
    }

    /// The isolation claim, counted: with a straggler-heavy Zipf split,
    /// the deadline cancels the stragglers, every cancelled tenant's
    /// waiter sees `FaultCause::Cancelled`, no tenant hangs, and the
    /// stragglers' queued work is dropped instead of run. The makespans
    /// are `px-bench e13`'s table.
    #[test]
    fn deadline_cancellation_drops_the_stragglers_work() {
        let p = Params {
            tenants: 8,
            tasks: 600,
            grain_ns: 150_000,
            deadline: Duration::from_millis(12),
        };
        let full = run_fleet(p, None);
        let cut = run_fleet(p, Some(p.deadline));
        assert_eq!(full.tasks_executed, p.tasks as u64, "{full:?}");
        assert!(cut.tenants_cancelled > 0, "{cut:?}");
        assert_eq!(cut.faults_observed, cut.tenants_cancelled, "{cut:?}");
        assert_eq!(
            cut.tenants_completed + cut.tenants_cancelled,
            p.tenants as u64,
            "{cut:?}"
        );
        assert!(cut.tasks_executed < full.tasks_executed, "{cut:?}");
    }
}
