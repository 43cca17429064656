//! # px-bench — experiment harnesses for every table and figure
//!
//! The ParalleX paper is a model paper: its quantitative artifacts are the
//! §3.2 design point and the performance claims of §2. Each module here
//! regenerates one experiment (see DESIGN.md §4 for the full index); the
//! bench targets under `benches/` are thin `harness = false` wrappers
//! that print the tables, so `cargo bench --workspace` reproduces the
//! whole evaluation.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`e1_design_point`] | §3.2 design point + Figure 1 structure |
//! | [`e2_latency_hiding`] | §2.2 parcels/multithreading latency hiding |
//! | [`e3_lco_vs_barrier`] | §2.2 LCOs eliminate global barriers |
//! | [`e4_percolation`] | §2.2 percolation vs prefetch vs demand fetch |
//! | [`e5_echo`] | §2.2 echo split-phase overlap |
//! | [`e6_work_to_data`] | §2.2 moving work to data |
//! | [`e7_modality`] | §3.2 two-modality heterogeneity |
//! | [`e8_irregular`] | §2.1 irregular workloads (Barnes–Hut trees) |
//! | [`e9_litlx_overhead`] | §2.3 LITL-X construct overheads |
//! | [`e10_datavortex`] | §3.2 Data Vortex vs crossbar vs torus |
//! | [`e11_starvation`] | §2.1 starvation under skewed load |
//! | [`e12_balance`] | §2.1/§2.2 adaptive balancing: diffusion + migration |
//! | [`e13_tenancy`] | §2.2 process trees: tenant isolation via cancellation |
//! | [`e14_distributed`] | §2.2 parcels over a real network: TCP multi-process |
//!
//! All experiments are functions returning plain row structs so tests can
//! assert the qualitative shapes (who wins, where crossovers fall) that
//! EXPERIMENTS.md records. Nothing here is a committed number: speeds
//! are measured by `pxmark` (`benchmark/`), the repo's one harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod e10_datavortex;
pub mod e11_starvation;
pub mod e12_balance;
pub mod e12_tcp;
pub mod e13_tenancy;
pub mod e14_distributed;
pub mod e1_design_point;
pub mod e2_latency_hiding;
pub mod e3_lco_vs_barrier;
pub mod e4_percolation;
pub mod e5_echo;
pub mod e6_work_to_data;
pub mod e7_modality;
pub mod e8_irregular;
pub mod e9_litlx_overhead;
pub mod mesh;
pub mod table;

/// Serializes wall-clock experiments: unit tests run concurrently by
/// default and would contend for cores, inverting timing comparisons.
/// Every timing-sensitive test takes this lock first.
pub static TIMING_GATE: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

/// True when the host exposes at least `n` hardware threads. Comparative
/// wall-clock experiments (barrier vs dataflow, static vs work-queue)
/// need real parallelism: on a single core every placement serializes to
/// the same makespan and the contrast they measure does not exist. Tests
/// asserting those contrasts skip (pass vacuously) below their core
/// floor; the experiment binaries still run and print whatever the host
/// yields.
pub fn has_cores(n: usize) -> bool {
    std::thread::available_parallelism()
        .map(|p| p.get() >= n)
        .unwrap_or(false)
}
