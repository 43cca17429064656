//! E12-over-TCP: the distributed AGAS directory pays off across real
//! OS processes.
//!
//! The in-process E12 showed the balancer's ~3x on skewed spawns and
//! hot objects; until the home-based distributed directory landed, the
//! balancer was telemetry-only over TCP and `migrate_data` refused to
//! cross ranks. This experiment reruns both E12 shapes on real 2- and
//! 4-rank loopback meshes, balancer-off vs adaptive:
//!
//! * **skewed-spawn** — rank 0 injects `N` equal blocking tasks as
//!   *parcel-bound* work (action parcels addressed at locality roots,
//!   so they execute wherever shedding delivers them — closures never
//!   cross an OS boundary) with Zipf-skewed homes. Only cross-rank work
//!   diffusion fixes this; the ideal gain is bounded by the skew and
//!   the rank count (~1.8x at 2 ranks, ~3x at 4).
//! * **hot-objects** — per hot object, a *serial dependency chain*
//!   bounces caller-rank → object → caller-rank for `hops` rounds. All
//!   objects are born on rank 0; half (2 ranks) to three quarters
//!   (4 ranks) of the chains run from remote callers, so balancer-off
//!   pays two wire crossings per hop on the critical path. Data-to-work
//!   migration pulls each object to its dominant caller and the chain
//!   goes local: the win is *latency elimination*, not load splitting,
//!   and lands well above 2x.
//!
//! `px-bench e12tcp` prints the table at 2 and 4 ranks (the full E14
//! run prints it too); `--smoke e12tcp` runs the 2-rank pair in CI.

use crate::mesh::{join_peers, reserve_addrs, spawn_peers};
use crate::table::{f2, ms, print_table};
use px_core::prelude::*;
use px_workloads::synth::{sleep_for_ns, zipf_assign};
use std::time::{Duration, Instant};

/// Zipf skew of the spawn homes (same shape as the in-process E12).
pub const SKEW: f64 = 3.0;

/// Experiment sizes (shrunk by `smoke`).
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Tasks in the skewed-spawn workload.
    pub tasks: usize,
    /// Per-task blocking grain, ns (skewed-spawn).
    pub grain_ns: u64,
    /// Hot objects (= serial chains) in the hot-objects workload.
    pub objects: usize,
    /// Rounds per chain.
    pub hops: u32,
    /// Per-hop blocking grain at the object, ns (small on purpose: the
    /// chain is latency-bound, that is the point).
    pub hot_grain_ns: u64,
}

/// Full-size parameters.
pub const FULL: Params = Params {
    tasks: 1200,
    grain_ns: 250_000,
    objects: 8,
    hops: 250,
    hot_grain_ns: 20_000,
};

/// Smoke-test parameters (CI; loopback-only).
pub const SMOKE: Params = Params {
    tasks: 200,
    grain_ns: 100_000,
    objects: 4,
    hops: 60,
    hot_grain_ns: 20_000,
};

/// The skewed-spawn task: block for the grain wherever the parcel was
/// delivered (its home, or the rank shedding moved it to).
struct Sleep;
impl Action for Sleep {
    const NAME: &'static str = "e12tcp/sleep";
    type Args = u64;
    type Out = ();
    fn execute(_ctx: &mut Ctx<'_>, _t: Gid, grain_ns: u64) {
        sleep_for_ns(grain_ns);
    }
}

/// One object-side hop of a dependency chain: block for the grain at
/// whichever rank currently owns the object, then bounce back to the
/// caller (or trigger the completion gate on the last round).
struct Hop;
impl Action for Hop {
    const NAME: &'static str = "e12tcp/hop";
    // (caller locality, remaining rounds, grain ns, completion gate gid)
    type Args = (u16, u32, u64, u64);
    type Out = ();
    fn execute(
        ctx: &mut Ctx<'_>,
        target: Gid,
        (caller, remaining, grain, gate): (u16, u32, u64, u64),
    ) {
        sleep_for_ns(grain);
        if remaining == 0 {
            ctx.trigger_value(Gid(gate), Value::unit());
        } else {
            ctx.send::<Relay>(
                Gid::locality_root(LocalityId(caller)),
                (target.0, caller, remaining - 1, grain, gate),
                Continuation::none(),
            )
            .unwrap();
        }
    }
}

/// The caller-side half of a chain round: re-address the object *from
/// the caller's rank*. This send is what records access heat at the
/// caller, so the balancer's data-to-work policy pulls the object here.
struct Relay;
impl Action for Relay {
    const NAME: &'static str = "e12tcp/relay";
    // (object gid, caller locality, remaining rounds, grain ns, gate gid)
    type Args = (u64, u16, u32, u64, u64);
    type Out = ();
    fn execute(
        ctx: &mut Ctx<'_>,
        _t: Gid,
        (obj, caller, remaining, grain, gate): (u64, u16, u32, u64, u64),
    ) {
        ctx.send::<Hop>(
            Gid(obj),
            (caller, remaining, grain, gate),
            Continuation::none(),
        )
        .unwrap();
    }
}

fn config(rank: u16, addrs: Vec<String>, adaptive: bool, p: &Params) -> Config {
    let cfg = Config::small(addrs.len(), 1).with_tcp(rank, addrs);
    if !adaptive {
        return cfg;
    }
    let mut balance = BalanceConfig::adaptive();
    // A *serial* chain accrues one heat unit per wire round trip — a
    // couple per 1ms round at loopback RTTs — so the pull trigger must
    // be far more sensitive than the in-process E12's: any remote
    // traffic at all justifies a pull when the scores agree (ping-pong
    // needs two competing callers, and heat is drained per round, so a
    // single stray access cannot oscillate an object).
    balance.gossip_interval = Duration::from_millis(1);
    balance.max_shed_per_round = (p.tasks as u64 / 16).max(32);
    balance.heat_threshold = 1;
    balance.max_pulls_per_round = (p.objects as u64).max(1);
    cfg.with_balance(balance)
}

fn build(rank: u16, addrs: Vec<String>, adaptive: bool, p: &Params) -> Runtime {
    RuntimeBuilder::new(config(rank, addrs, adaptive, p))
        .register::<Sleep>()
        .register::<Hop>()
        .register::<Relay>()
        .build()
        .expect("mesh rank bootstrap")
}

/// Runtime of a spawned rank (see [`crate::mesh::maybe_child`]); the
/// mesh must agree on `adaptive`: shedding and pulling are rank-local
/// decisions.
pub(crate) fn peer(rank: u16, addrs: Vec<String>, adaptive: bool) -> Runtime {
    // The caps in `FULL` are generous for every leg; shedding and
    // pulling self-limit through gossip, so the exact parent params do
    // not need to cross the process boundary.
    build(rank, addrs, adaptive, &FULL)
}

/// Reserve a `ranks`-wide mesh, spawn ranks 1..n and build rank 0.
fn launch(
    ranks: usize,
    adaptive: bool,
    p: &Params,
    child_args: &[&str],
) -> (Runtime, Vec<std::process::Child>) {
    let addrs = reserve_addrs(ranks);
    let role = if adaptive {
        "e12tcp-adaptive"
    } else {
        "e12tcp-off"
    };
    let peers = spawn_peers(&addrs, role, child_args);
    (build(0, addrs, adaptive, p), peers)
}

/// One measured leg.
#[derive(Debug, Clone)]
pub struct Row {
    /// `"skewed-spawn"` or `"hot-objects"`.
    pub workload: String,
    /// Mesh size (OS processes).
    pub ranks: u64,
    /// `"off"` or `"adaptive"`.
    pub policy: String,
    /// Wall-clock makespan, milliseconds.
    pub makespan_ms: f64,
    /// Makespan(off) / makespan(this row), within the same workload and
    /// mesh size (1.0 for the off rows).
    pub speedup_vs_off: f64,
    /// Tasks shed across ranks by work diffusion (rank 0's count).
    pub tasks_shed: u64,
    /// Balancer-initiated migrations recorded at rank 0.
    pub migrations_balancer: u64,
    /// Remote directory lookups at rank 0 (chases that asked home).
    pub dir_lookups_remote: u64,
    /// Directory repairs applied at rank 0.
    pub dir_repairs: u64,
}

fn collect_row(
    workload: &str,
    ranks: usize,
    adaptive: bool,
    makespan: Duration,
    rt: &Runtime,
) -> Row {
    let stats = rt.stats();
    let t = stats.total();
    Row {
        workload: workload.to_string(),
        ranks: ranks as u64,
        policy: if adaptive { "adaptive" } else { "off" }.to_string(),
        makespan_ms: makespan.as_secs_f64() * 1e3,
        speedup_vs_off: 1.0,
        tasks_shed: t.tasks_shed,
        migrations_balancer: stats.migrations_balancer,
        dir_lookups_remote: t.dir_lookups_remote,
        dir_repairs: t.dir_repairs,
    }
}

/// Skewed-spawn leg: Zipf homes over the mesh, every task a parcel
/// addressed at its home rank's locality root, one completion gate on
/// rank 0.
pub fn run_skewed_spawn(ranks: usize, adaptive: bool, p: &Params, child_args: &[&str]) -> Row {
    let (rt, peers) = launch(ranks, adaptive, p, child_args);
    let homes = zipf_assign(p.tasks, ranks, SKEW, 0xe12);
    let gate = rt.new_and_gate(LocalityId(0), p.tasks as u64);
    let fut: FutureRef<()> = FutureRef::from_gid(gate);
    let t0 = Instant::now();
    for &home in &homes {
        rt.send_action::<Sleep>(
            Gid::locality_root(LocalityId(home as u16)),
            p.grain_ns,
            Continuation::set(gate),
        )
        .unwrap();
    }
    rt.wait_future(fut).unwrap();
    let makespan = t0.elapsed();
    let row = collect_row("skewed-spawn", ranks, adaptive, makespan, &rt);
    join_peers(peers);
    rt.shutdown();
    row
}

/// Hot-objects leg: all objects born on rank 0, one serial
/// caller↔object chain per object, callers round-robined over the
/// ranks. Balancer-off pays two wire crossings per hop on every remote
/// chain's critical path; adaptive migrates each object to its caller.
pub fn run_hot_objects(ranks: usize, adaptive: bool, p: &Params, child_args: &[&str]) -> Row {
    let (rt, peers) = launch(ranks, adaptive, p, child_args);
    let objects: Vec<Gid> = (0..p.objects)
        .map(|_| rt.new_data_at(LocalityId(0), vec![0u8; 64]))
        .collect();
    let gate = rt.new_and_gate(LocalityId(0), p.objects as u64);
    let fut: FutureRef<()> = FutureRef::from_gid(gate);
    let t0 = Instant::now();
    for (k, &obj) in objects.iter().enumerate() {
        let caller = (k % ranks) as u16;
        rt.send_action::<Relay>(
            Gid::locality_root(LocalityId(caller)),
            (obj.0, caller, p.hops, p.hot_grain_ns, gate.0),
            Continuation::none(),
        )
        .unwrap();
    }
    rt.wait_future(fut).unwrap();
    let makespan = t0.elapsed();
    let row = collect_row("hot-objects", ranks, adaptive, makespan, &rt);
    join_peers(peers);
    rt.shutdown();
    row
}

fn pair(
    workload: fn(usize, bool, &Params, &[&str]) -> Row,
    ranks: usize,
    p: &Params,
    child_args: &[&str],
) -> [Row; 2] {
    let off = workload(ranks, false, p, child_args);
    let mut adaptive = workload(ranks, true, p, child_args);
    adaptive.speedup_vs_off = off.makespan_ms / adaptive.makespan_ms;
    [off, adaptive]
}

fn print_rows(title: &str, rows: &[Row]) {
    print_table(
        title,
        &[
            "workload",
            "ranks",
            "policy",
            "makespan",
            "speedup",
            "shed",
            "migrations",
            "dir rlu",
            "repairs",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.workload.clone(),
                    r.ranks.to_string(),
                    r.policy.clone(),
                    ms(Duration::from_secs_f64(r.makespan_ms / 1e3)),
                    f2(r.speedup_vs_off),
                    r.tasks_shed.to_string(),
                    r.migrations_balancer.to_string(),
                    r.dir_lookups_remote.to_string(),
                    r.dir_repairs.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Run both workloads at each mesh size, balancer-off vs adaptive.
pub fn legs(rank_counts: &[usize], p: &Params, child_args: &[&str]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &ranks in rank_counts {
        println!(
            "\n[E12tcp] {ranks}-rank mesh: {} skewed tasks, {} chains × {} hops",
            p.tasks, p.objects, p.hops
        );
        rows.extend(pair(run_skewed_spawn, ranks, p, child_args));
        rows.extend(pair(run_hot_objects, ranks, p, child_args));
    }
    print_rows(
        "E12tcp — balancer over TCP: adaptive vs off across mesh sizes",
        &rows,
    );
    rows
}

/// Full experiment: both workloads at 2 and 4 ranks.
pub fn run() -> Vec<Row> {
    legs(&[2, 4], &FULL, &[])
}

/// CI smoke: the 2-rank pair, scaled down. Asserts the
/// balancer actually engaged across the process boundary (counters, not
/// wall-clock: CI boxes are noisy).
pub fn smoke() -> Vec<Row> {
    let rows = legs(&[2], &SMOKE, &[]);
    assert_eq!(rows.len(), 4);
    for r in &rows {
        assert!(r.makespan_ms > 0.0, "degenerate measurement: {r:?}");
        if r.policy == "off" {
            assert_eq!(r.tasks_shed, 0, "off run must not shed: {r:?}");
            assert_eq!(r.migrations_balancer, 0, "off run must not migrate: {r:?}");
        }
    }
    let hot_adaptive = &rows[3];
    assert!(
        hot_adaptive.migrations_balancer > 0,
        "adaptive hot-objects run must pull objects across ranks: {hot_adaptive:?}"
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::TEST_CHILD as CHILD;

    /// The distributed hot-objects leg is the acceptance claim: adaptive
    /// pulls the hot objects to their callers and beats off by ≥2x at
    /// 2 ranks (the chains are latency-bound, so the win is wire RTTs
    /// eliminated, not load split). Retries absorb shared-host jitter.
    #[test]
    fn adaptive_beats_off_2x_on_hot_objects_over_tcp() {
        let _gate = crate::TIMING_GATE.lock();
        let p = Params {
            tasks: 0,
            grain_ns: 0,
            objects: 4,
            hops: 200,
            hot_grain_ns: 20_000,
        };
        let mut last = String::new();
        for _ in 0..3 {
            let [off, adaptive] = pair(run_hot_objects, 2, &p, CHILD);
            if adaptive.speedup_vs_off >= 2.0 && adaptive.migrations_balancer > 0 {
                return;
            }
            last = format!(
                "off {:.1}ms vs adaptive {:.1}ms (ratio {:.2}, migrations {})",
                off.makespan_ms,
                adaptive.makespan_ms,
                adaptive.speedup_vs_off,
                adaptive.migrations_balancer
            );
        }
        panic!("{last}");
    }

    /// Work diffusion crosses the process boundary: the skewed-spawn leg
    /// sheds parcel-bound tasks to the starving rank. What that buys in
    /// makespan is `px-bench e12tcp`'s table.
    #[test]
    fn skewed_spawn_sheds_parcels_across_ranks() {
        let _gate = crate::TIMING_GATE.lock();
        let p = Params {
            tasks: 300,
            grain_ns: 150_000,
            objects: 0,
            hops: 0,
            hot_grain_ns: 0,
        };
        let [_off, adaptive] = pair(run_skewed_spawn, 2, &p, CHILD);
        assert!(adaptive.tasks_shed > 0, "{adaptive:?}");
    }
}
