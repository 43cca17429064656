//! E1: the Gilgamesh II design point (§3.2) and Figure 1 structure.

use crate::table::{f2, print_table};
use px_gilgamesh::chip::{simulate_chip, ChipWorkload, NODES_PER_CHIP, PIM_MODULES};
use px_gilgamesh::design_point::{check_paper_claims, DesignPoint};

/// One row of the chip-count sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Compute chips.
    pub chips: u64,
    /// System peak, exaflops.
    pub exaflops: f64,
    /// Total MIND nodes.
    pub mind_nodes: u64,
    /// Hardware threads.
    pub threads: u64,
    /// System power, MW.
    pub megawatts: f64,
}

/// Sweep the design point over chip counts (the paper's scaling argument).
pub fn chip_sweep(chip_counts: &[u64]) -> Vec<SweepRow> {
    chip_counts
        .iter()
        .map(|&chips| {
            let mut dp = DesignPoint::paper_2020();
            dp.compute_chips = chips;
            dp.store_chips = chips;
            let s = dp.summary();
            SweepRow {
                chips,
                exaflops: s.system_exaflops,
                mind_nodes: s.total_mind_nodes,
                threads: s.hardware_threads,
                megawatts: s.system_megawatts,
            }
        })
        .collect()
}

/// Run the experiment and print its tables; returns the paper-claim
/// violations (must be empty).
pub fn run() -> Vec<String> {
    let dp = DesignPoint::paper_2020();
    let s = dp.summary();
    print_table(
        "E1a — Gilgamesh II design point (paper §3.2 vs model)",
        &["quantity", "paper claim", "model"],
        [
            vec![
                "chip structure".into(),
                "accel + 16 PIM × 32 MIND".into(),
                format!(
                    "accel + {} PIM × {} MIND",
                    dp.pim_modules_per_chip, dp.mind_nodes_per_module
                ),
            ],
            vec![
                "chip peak".into(),
                "≈10 TFLOPS".into(),
                format!("{:.2} TFLOPS", s.flops_per_chip / 1e12),
            ],
            vec![
                "system peak (100K chips)".into(),
                ">1 EFLOPS".into(),
                format!("{:.3} EFLOPS", s.system_exaflops),
            ],
            vec![
                "penultimate store".into(),
                "4 PB on 100K chips".into(),
                format!("{:.2} PB on {} chips", s.store_pb, dp.store_chips),
            ],
            vec![
                "MIND nodes".into(),
                "(derived)".into(),
                format!("{}", s.total_mind_nodes),
            ],
            vec![
                "hardware threads".into(),
                "\"million to billion way\"".into(),
                format!("{:.0}M", s.hardware_threads as f64 / 1e6),
            ],
            vec![
                "system power".into(),
                "(2020 envelope)".into(),
                format!("{:.1} MW", s.system_megawatts),
            ],
            vec![
                "efficiency".into(),
                "(derived)".into(),
                format!("{:.1} GF/W", s.gflops_per_watt),
            ],
            vec![
                "memory balance".into(),
                "(derived)".into(),
                format!("{:.4} B/FLOP", s.bytes_per_flop),
            ],
        ],
    );

    let sweep = chip_sweep(&[1_000, 10_000, 50_000, 100_000, 200_000]);
    print_table(
        "E1b — design-point sweep over chip count",
        &["chips", "EFLOPS", "MIND nodes", "HW threads", "MW"],
        sweep.iter().map(|r| {
            vec![
                r.chips.to_string(),
                format!("{:.3}", r.exaflops),
                r.mind_nodes.to_string(),
                r.threads.to_string(),
                f2(r.megawatts),
            ]
        }),
    );

    // Figure 1 structure, executed: one chip's PIM fabric under a
    // parcel work queue at two skews.
    let mut rows = Vec::new();
    for &skew in &[0.0, 0.8] {
        let r = simulate_chip(
            ChipWorkload {
                tasks: 100_000,
                skew,
                mem_ops: 8,
                alu_ops: 64,
                inject_per_cycle: 2.0,
            },
            16,
            7,
        );
        rows.push(vec![
            format!("{skew:.1}"),
            r.makespan.to_string(),
            f2(r.tasks_per_kcycle),
            f2(r.mean_utilization),
            f2(r.imbalance),
            f2(r.queue_p95),
        ]);
    }
    print_table(
        &format!(
            "E1c — one-chip PIM fabric simulation ({PIM_MODULES} modules, {NODES_PER_CHIP} MIND nodes, 16 threads each)"
        ),
        &["skew", "makespan (cyc)", "tasks/kcyc", "util", "imbalance", "queue p95"],
        rows,
    );

    let violations = check_paper_claims(&dp);
    if violations.is_empty() {
        println!("  paper-claim check: all §3.2 claims reproduced ✓");
    } else {
        println!("  paper-claim check FAILED: {violations:?}");
    }
    violations
}

#[cfg(test)]
mod tests {
    #[test]
    fn e1_reproduces_paper_claims() {
        assert!(super::run().is_empty());
    }

    #[test]
    fn sweep_monotone() {
        let rows = super::chip_sweep(&[1000, 2000, 4000]);
        assert!(rows[1].exaflops > rows[0].exaflops);
        assert!(rows[2].threads == 2 * rows[1].threads);
    }
}
