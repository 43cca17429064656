//! # px-bench — experiment harnesses for every table and figure
//!
//! The ParalleX paper is a model paper: its quantitative artifacts are the
//! §3.2 design point and the performance claims of §2. Each module here
//! regenerates one experiment, and the `px-bench` binary prints its
//! table: `px-bench e4` (any of `e1` … `e14`, `e12tcp`, `e14mesh`; add
//! `--smoke` for the scaled-down run CI makes).
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
//! All experiments are functions returning plain row structs. The tables
//! print times; the tests assert counts — fetches in flight, staged
//! executions, bytes moved, threads executed per locality, remote
//! touches — that the mechanism under test controls, so a verdict holds
//! on any core count and under any load. Nothing here is a committed
//! number: speeds are measured by `pxmark` (`benchmark/`), the repo's one
//! harness.

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

/// Operations issued and not yet answered, and the most ever
/// outstanding at once: the per-run count a verdict reads when its claim
/// is overlap (fetches in flight, commits awaiting validation).
#[derive(Debug, Default)]
pub struct InFlight(parking_lot::Mutex<(u64, u64)>);

impl InFlight {
    /// One more operation is outstanding.
    pub fn issue(&self) {
        let mut n = self.0.lock();
        n.0 += 1;
        n.1 = n.1.max(n.0);
    }

    /// An outstanding operation was answered.
    pub fn answered(&self) {
        self.0.lock().0 -= 1;
    }

    /// The most operations outstanding at once so far.
    pub fn peak(&self) -> u64 {
        self.0.lock().1
    }
}
