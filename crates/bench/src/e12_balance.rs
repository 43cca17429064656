//! E12: adaptive cross-locality load balancing (§2.1 starvation, §2.2
//! work-to-data vs data-to-work).
//!
//! Two imbalanced workloads, each run under four balancer settings
//! (off, `work-to-data`, `data-to-work`, `adaptive`):
//!
//! * **skewed-spawn** — the E11 starvation shape: `N` equal tasks whose
//!   homes are Zipf-skewed over the localities, so one locality drowns
//!   while the rest park. Only *work diffusion* (shedding + spawn
//!   redirect) can fix this: there is no data to migrate.
//! * **hot-objects** — the inverse shape: work is spread evenly but every
//!   task addresses an action at one of `K` data objects all born on
//!   locality 0 (a load-phase artifact), with caller affinity (locality
//!   `i` touches objects `k ≡ i mod L`). Work-to-data faithfully moves
//!   every action to locality 0 — the bottleneck. Only *heat-driven
//!   migration* can fix this: the balancer pulls each object toward its
//!   dominant caller and in-flight parcels chase it through AGAS
//!   forwarding.
//!
//! The `adaptive` policy must win (or tie the specialist) on **both** —
//! that is the tentpole claim, matching the comparative AMT studies in
//! PAPERS.md: runtime-directed balancing is what makes message-driven
//! models beat static placement on irregular workloads.
//!
//! Task grain is a *blocking* wait ([`px_workloads::synth::sleep_for_ns`]):
//! the latency-bound regime where placement dominates makespan. Sleeping
//! workers overlap on any host, so the comparison is meaningful even with
//! fewer physical cores than simulated localities (unlike the spin-grain
//! experiments, which gate on core count).

use crate::table::{f2, ms, print_table};
use px_core::prelude::*;
use px_workloads::synth::{sleep_for_ns, zipf_assign};
use std::time::{Duration, Instant};

/// Simulated localities (single-worker each, like E11).
pub const LOCALITIES: usize = 4;
/// Zipf skew of natural homes in the skewed-spawn workload (~85% of the
/// work lands on one locality at s = 3.0 with four bins).
pub const SKEW: f64 = 3.0;
/// Hot data objects in the hot-objects workload.
pub const HOT_OBJECTS: usize = 16;

/// Balancer settings compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setting {
    /// Balancer disabled (the seed runtime's behavior).
    Off,
    /// Work diffusion only.
    WorkToData,
    /// Heat-driven migration only.
    DataToWork,
    /// Both, load-gated.
    Adaptive,
}

impl Setting {
    /// All settings, in table order.
    pub const ALL: [Setting; 4] = [
        Setting::Off,
        Setting::WorkToData,
        Setting::DataToWork,
        Setting::Adaptive,
    ];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            Setting::Off => "off",
            Setting::WorkToData => "work-to-data",
            Setting::DataToWork => "data-to-work",
            Setting::Adaptive => "adaptive",
        }
    }

    fn config(self, tasks: usize) -> Config {
        let base = Config::small(LOCALITIES, 1).with_latency(Duration::from_micros(50));
        let balance = match self {
            Setting::Off => return base,
            Setting::WorkToData => BalanceConfig::work_to_data(),
            Setting::DataToWork => BalanceConfig::data_to_work(),
            Setting::Adaptive => BalanceConfig::adaptive(),
        };
        let mut balance = balance;
        balance.gossip_interval = Duration::from_micros(500);
        // Scale the per-round shed cap with the workload so diffusion can
        // keep up with the injection burst.
        balance.max_shed_per_round = (tasks as u64 / 16).max(32);
        balance.heat_threshold = 8;
        balance.max_pulls_per_round = HOT_OBJECTS as u64;
        base.with_balance(balance)
    }
}

/// Experiment sizes (shrunk by `smoke`).
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Tasks per workload run.
    pub tasks: usize,
    /// Per-task blocking grain, ns.
    pub grain_ns: u64,
}

/// Full-size parameters.
pub const FULL: Params = Params {
    tasks: 1200,
    grain_ns: 250_000,
};

/// Smoke-test parameters (CI).
pub const SMOKE: Params = Params {
    tasks: 200,
    grain_ns: 100_000,
};

/// One measurement: a workload under one balancer setting.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Balancer setting.
    pub setting: Setting,
    /// Wall-clock makespan.
    pub makespan: Duration,
    /// Tasks shed by work diffusion.
    pub tasks_shed: u64,
    /// Balancer-initiated migrations.
    pub migrations_balancer: u64,
    /// Parcels forwarded by AGAS chases (stale routes after migration).
    pub parcels_forwarded: u64,
    /// Gossip parcels received.
    pub gossip_parcels: u64,
    /// Total parcels received (for the off-run determinism check).
    pub parcels_recv: u64,
}

fn collect_row(setting: Setting, makespan: Duration, stats: &StatsSnapshot) -> Row {
    let t = stats.total();
    Row {
        setting,
        makespan,
        tasks_shed: t.tasks_shed,
        migrations_balancer: stats.migrations_balancer,
        parcels_forwarded: t.parcels_forwarded,
        gossip_parcels: t.gossip_parcels,
        parcels_recv: t.parcels_recv,
    }
}

/// Skewed-spawn workload: Zipf homes, blocking grain, one shared
/// and-gate on locality 0. Tasks that the balancer moves elsewhere pay a
/// trigger parcel back to the gate — the balanced runs carry that cost
/// honestly and win anyway.
pub fn run_skewed_spawn(setting: Setting, p: Params) -> Row {
    let rt = RuntimeBuilder::new(setting.config(p.tasks))
        .build()
        .unwrap();
    let homes = zipf_assign(p.tasks, LOCALITIES, SKEW, 0xe12);
    let gate = rt.new_and_gate(LocalityId(0), p.tasks as u64);
    let fut: FutureRef<()> = FutureRef::from_gid(gate);
    let grain = p.grain_ns;
    let t0 = Instant::now();
    for &home in &homes {
        rt.spawn_at(LocalityId(home as u16), move |ctx| {
            sleep_for_ns(grain);
            ctx.trigger_value(gate, Value::unit());
        });
    }
    rt.wait_future(fut).unwrap();
    let makespan = t0.elapsed();
    let stats = rt.stats();
    rt.shutdown();
    collect_row(setting, makespan, &stats)
}

/// The hot-objects action: block for the grain at whichever locality
/// currently owns the target object.
struct Touch;
impl Action for Touch {
    const NAME: &'static str = "e12/touch";
    type Args = u64;
    type Out = ();
    fn execute(_ctx: &mut Ctx<'_>, _target: Gid, grain_ns: u64) {
        sleep_for_ns(grain_ns);
    }
}

/// Hot-objects workload: tasks spread evenly, all data born on locality
/// 0, caller affinity `object k ↔ locality k mod L`. Every touch rides a
/// parcel with a continuation contributing to one completion gate.
pub fn run_hot_objects(setting: Setting, p: Params) -> Row {
    let rt = RuntimeBuilder::new(setting.config(p.tasks))
        .register::<Touch>()
        .build()
        .unwrap();
    let objects: Vec<Gid> = (0..HOT_OBJECTS)
        .map(|_| rt.new_data_at(LocalityId(0), vec![0u8; 64]))
        .collect();
    let gate = rt.new_and_gate(LocalityId(0), p.tasks as u64);
    let fut: FutureRef<()> = FutureRef::from_gid(gate);
    // Which object each task touches: affinity class = its home locality,
    // Zipf-ranked within the class so some objects are hotter than
    // others.
    let ranks = zipf_assign(p.tasks, HOT_OBJECTS / LOCALITIES, 1.2, 0xb001);
    let grain = p.grain_ns;
    let t0 = Instant::now();
    for (i, &rank) in ranks.iter().enumerate() {
        let home = i % LOCALITIES;
        let obj = objects[rank as usize * LOCALITIES + home];
        rt.spawn_at(LocalityId(home as u16), move |ctx| {
            ctx.send::<Touch>(obj, grain, Continuation::set(gate))
                .unwrap();
        });
    }
    rt.wait_future(fut).unwrap();
    let makespan = t0.elapsed();
    let stats = rt.stats();
    rt.shutdown();
    collect_row(setting, makespan, &stats)
}

/// Run one workload under every setting.
pub fn sweep(workload: fn(Setting, Params) -> Row, p: Params) -> Vec<Row> {
    Setting::ALL.iter().map(|&s| workload(s, p)).collect()
}

fn speedup(rows: &[Row], r: &Row) -> f64 {
    let off = rows[0].makespan.as_secs_f64();
    off / r.makespan.as_secs_f64()
}

fn print_rows(title: &str, rows: &[Row]) {
    print_table(
        title,
        &[
            "policy",
            "makespan",
            "speedup",
            "shed",
            "migrations",
            "forwarded",
            "gossip",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.setting.label().to_string(),
                    ms(r.makespan),
                    f2(speedup(rows, r)),
                    r.tasks_shed.to_string(),
                    r.migrations_balancer.to_string(),
                    r.parcels_forwarded.to_string(),
                    r.gossip_parcels.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn run_with(p: Params) -> (Vec<Row>, Vec<Row>) {
    println!(
        "\n[E12] {} × {} µs blocking tasks over {LOCALITIES} single-worker localities",
        p.tasks,
        p.grain_ns / 1000
    );
    let skewed = sweep(run_skewed_spawn, p);
    print_rows(
        "E12a — skewed-spawn starvation: work diffusion vs static placement",
        &skewed,
    );
    let hot = sweep(run_hot_objects, p);
    print_rows(
        "E12b — hot objects born on one locality: heat-driven migration",
        &hot,
    );
    (skewed, hot)
}

/// Full experiment: print both tables.
pub fn run() -> (Vec<Row>, Vec<Row>) {
    run_with(FULL)
}

/// CI smoke: the same tables, scaled down.
pub fn smoke() -> (Vec<Row>, Vec<Row>) {
    run_with(SMOKE)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate: with the adaptive policy, the E11-style
    /// imbalanced workload completes ≥ 1.3× faster than balancer-off on
    /// 4 simulated localities. Blocking grain means this holds regardless
    /// of physical core count; retries absorb shared-host jitter.
    #[test]
    fn adaptive_beats_off_on_skewed_spawn() {
        let _gate = crate::TIMING_GATE.lock();
        let p = Params {
            tasks: 400,
            grain_ns: 150_000,
        };
        let mut last = String::new();
        for _ in 0..3 {
            let off = run_skewed_spawn(Setting::Off, p);
            let adaptive = run_skewed_spawn(Setting::Adaptive, p);
            let ratio = off.makespan.as_secs_f64() / adaptive.makespan.as_secs_f64();
            if ratio >= 1.3 && adaptive.tasks_shed > 0 {
                return;
            }
            last = format!(
                "off {:?} vs adaptive {:?} (ratio {ratio:.2}, shed {})",
                off.makespan, adaptive.makespan, adaptive.tasks_shed
            );
        }
        panic!("{last}");
    }

    /// Hot-object workload: migration-capable policies must relocate the
    /// hot objects and beat balancer-off.
    #[test]
    fn adaptive_beats_off_on_hot_objects() {
        let _gate = crate::TIMING_GATE.lock();
        let p = Params {
            tasks: 400,
            grain_ns: 150_000,
        };
        let mut last = String::new();
        for _ in 0..3 {
            let off = run_hot_objects(Setting::Off, p);
            let adaptive = run_hot_objects(Setting::Adaptive, p);
            let ratio = off.makespan.as_secs_f64() / adaptive.makespan.as_secs_f64();
            if ratio >= 1.3 && adaptive.migrations_balancer > 0 {
                return;
            }
            last = format!(
                "off {:?} vs adaptive {:?} (ratio {ratio:.2}, migrations {})",
                off.makespan, adaptive.makespan, adaptive.migrations_balancer
            );
        }
        panic!("{last}");
    }

    /// Balancer-off runs are deterministic in parcel counts: the same
    /// workload twice yields identical `parcels_recv` (the bit-identical
    /// guarantee the `Config::balance: None` default promises).
    #[test]
    fn off_runs_have_identical_parcel_counts() {
        let p = Params {
            tasks: 120,
            grain_ns: 20_000,
        };
        let a = run_skewed_spawn(Setting::Off, p);
        let b = run_skewed_spawn(Setting::Off, p);
        assert_eq!(a.parcels_recv, b.parcels_recv);
        assert_eq!(a.tasks_shed, 0);
        assert_eq!(a.gossip_parcels, 0);
        assert_eq!(a.migrations_balancer, 0);
    }
}
