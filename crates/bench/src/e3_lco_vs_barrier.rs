//! E3: LCOs vs global barriers (§2.2).
//!
//! The claim: "LCOs eliminate most uses of global barriers greatly freeing
//! the dynamic adaptive flexibility of parallel processing and relaxing
//! the over constraining operation imposed by barriers."
//!
//! Workload: `L` localities each own `K` independent chains of `S`
//! stages; stage grains are lognormal with mean `MEAN_NS` and a swept
//! coefficient of variation. The BSP version barriers after every stage
//! (cost: `Σ_s max_rank(stage work)`); the ParalleX version chains each
//! sequence through local continuations (cost: `max_rank Σ_s(work)`).
//! Identical grains on both sides, same worker counts.

use crate::table::{f2, ms, print_table};
use px_baseline::bsp::supersteps;
use px_baseline::csp::World;
use px_core::net::WireModel;
use px_core::prelude::*;
use px_workloads::synth::{lognormal_work, spin_for_ns};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Localities / ranks (sized to physical cores so the barrier penalty is
/// not masked by OS fair-share scheduling of oversubscribed workers).
pub const LOCALITIES: usize = 2;
/// Chains per locality.
pub const CHAINS: usize = 48;
/// Stages per chain.
pub const STAGES: usize = 12;
/// Mean stage grain, ns.
pub const MEAN_NS: f64 = 40_000.0;

/// Grains indexed `[locality][chain][stage]`.
pub type Grains = Vec<Vec<Vec<u64>>>;

/// Deterministic grains for a CV setting.
pub fn make_grains(cv: f64, seed: u64) -> Grains {
    (0..LOCALITIES)
        .map(|l| {
            (0..CHAINS)
                .map(|c| lognormal_work(STAGES, MEAN_NS, cv, seed ^ ((l * CHAINS + c) as u64) << 8))
                .collect()
        })
        .collect()
}

/// Analytic bounds: (ParalleX bound `max_l Σ`, BSP bound `Σ_s max_l`).
pub fn bounds(grains: &Grains) -> (Duration, Duration) {
    let px = grains
        .iter()
        .map(|loc| loc.iter().flatten().sum::<u64>())
        .max()
        .unwrap();
    let mut bsp = 0u64;
    for s in 0..STAGES {
        bsp += grains
            .iter()
            .map(|loc| loc.iter().map(|chain| chain[s]).sum::<u64>())
            .max()
            .unwrap();
    }
    (Duration::from_nanos(px), Duration::from_nanos(bsp))
}

/// ParalleX: chains run as local continuation sequences; one and-gate
/// collects all chain completions.
pub fn run_parallex(grains: &Grains) -> Duration {
    let rt = RuntimeBuilder::new(Config::small(LOCALITIES, 1))
        .build()
        .unwrap();
    let gate = rt.new_and_gate(LocalityId(0), (LOCALITIES * CHAINS) as u64);
    let gate_fut: FutureRef<()> = FutureRef::from_gid(gate);
    let grains = Arc::new(grains.clone());
    let t0 = Instant::now();
    for l in 0..LOCALITIES {
        let grains = grains.clone();
        rt.spawn_at(LocalityId(l as u16), move |ctx| {
            for c in 0..CHAINS {
                let grains = grains.clone();
                fn step(
                    ctx: &mut Ctx<'_>,
                    grains: Arc<Grains>,
                    l: usize,
                    c: usize,
                    s: usize,
                    gate: Gid,
                ) {
                    spin_for_ns(grains[l][c][s]);
                    if s + 1 < STAGES {
                        ctx.spawn(move |ctx| step(ctx, grains, l, c, s + 1, gate));
                    } else {
                        ctx.trigger_value(gate, px_core::action::Value::unit());
                    }
                }
                ctx.spawn(move |ctx| step(ctx, grains, l, c, 0, gate));
            }
        });
    }
    rt.wait_future(gate_fut).unwrap();
    let elapsed = t0.elapsed();
    rt.shutdown();
    elapsed
}

/// BSP: barrier after every stage.
pub fn run_bsp(grains: &Grains) -> Duration {
    let grains = Arc::new(grains.clone());
    let times = World::run(LOCALITIES, WireModel::instant(), move |mut rank| {
        let id = rank.id();
        let g = grains.clone();
        rank.barrier();
        let t0 = Instant::now();
        supersteps(&mut rank, STAGES, |s, _| {
            for c in 0..CHAINS {
                spin_for_ns(g[id][c][s]);
            }
        });
        t0.elapsed()
    });
    times.into_iter().max().unwrap()
}

/// One sweep row.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Coefficient of variation of the grains.
    pub cv: f64,
    /// ParalleX measured.
    pub px: Duration,
    /// BSP measured.
    pub bsp: Duration,
    /// Analytic ParalleX bound.
    pub px_bound: Duration,
    /// Analytic BSP bound.
    pub bsp_bound: Duration,
    /// bsp / px.
    pub ratio: f64,
}

/// Sweep CV values.
pub fn sweep(cvs: &[f64]) -> Vec<Row> {
    cvs.iter()
        .map(|&cv| {
            let grains = make_grains(cv, 0x5eed);
            let (px_bound, bsp_bound) = bounds(&grains);
            let px = run_parallex(&grains);
            let bsp = run_bsp(&grains);
            Row {
                cv,
                px,
                bsp,
                px_bound,
                bsp_bound,
                ratio: bsp.as_secs_f64() / px.as_secs_f64(),
            }
        })
        .collect()
}

/// Print the E3 table.
pub fn run() -> Vec<Row> {
    let rows = sweep(&[0.0, 0.5, 1.0, 2.0]);
    println!(
        "\n[E3] {LOCALITIES} localities × {CHAINS} chains × {STAGES} stages, mean grain {} µs",
        MEAN_NS / 1000.0
    );
    print_table(
        "E3 — dataflow LCO chaining vs global barriers under imbalance",
        &[
            "grain CV",
            "ParalleX ms",
            "BSP ms",
            "PX bound ms",
            "BSP bound ms",
            "BSP/PX",
        ],
        rows.iter().map(|r| {
            vec![
                f2(r.cv),
                ms(r.px),
                ms(r.bsp),
                ms(r.px_bound),
                ms(r.bsp_bound),
                f2(r.ratio),
            ]
        }),
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_penalty_grows_with_imbalance() {
        // The claim, on the seeded analytic bounds: `Σ_s max_l` is never
        // below `max_l Σ_s`, and the gap opens and widens with the CV.
        // Deterministic on any box; the measured makespans (machine speed,
        // core count, shared-host jitter) are `px-bench e3`'s table.
        let bound_ratio = |cv| {
            let (px_bound, bsp_bound) = bounds(&make_grains(cv, 0x5eed));
            assert!(
                bsp_bound >= px_bound,
                "cv {cv}: {bsp_bound:?} < {px_bound:?}"
            );
            bsp_bound.as_secs_f64() / px_bound.as_secs_f64()
        };
        let (flat, skewed) = (bound_ratio(0.0), bound_ratio(1.5));
        assert!(
            skewed > flat,
            "cv 0 ratio {flat:.3}, cv 1.5 ratio {skewed:.3}"
        );
    }

    #[test]
    fn grains_deterministic() {
        assert_eq!(make_grains(1.0, 5), make_grains(1.0, 5));
    }
}
