//! E7: the two-modality heterogeneity argument (§3.2, Figure 1).
//!
//! Thin wrapper over [`px_gilgamesh::modality`]: sweep temporal locality
//! θ and report ops/cycle on the three execution structures. The shape
//! the paper's architecture bets on: the dataflow accelerator dominates
//! at high θ, MIND PIM dominates at low θ, and the conventional cached
//! core is never the right answer at either extreme.

use crate::table::{f2, f3, print_table};
use px_gilgamesh::modality::{modality_sweep, ModalityRow};

/// θ values swept.
pub const THETAS: [f64; 7] = [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.98];

/// Run the sweep.
pub fn sweep() -> Vec<ModalityRow> {
    modality_sweep(&THETAS, 30_000, 16, 0xf1e2)
}

/// Print the E7 table; returns the rows.
pub fn run() -> Vec<ModalityRow> {
    let rows = sweep();
    println!("\n[E7] 30k accesses/stream, 16 ALU ops per access; models: cached core, MIND PIM, dataflow accelerator");
    print_table(
        "E7 — ops/cycle vs temporal locality θ (two-modality crossover)",
        &["theta", "LRU hit rate", "cached", "MIND", "accel", "winner"],
        rows.iter().map(|r| {
            let winner = if r.accel >= r.mind && r.accel >= r.cached {
                "accel"
            } else if r.mind >= r.cached {
                "MIND"
            } else {
                "cached"
            };
            vec![
                f2(r.theta),
                f3(r.hit_rate),
                f3(r.cached),
                f3(r.mind),
                f3(r.accel),
                winner.to_string(),
            ]
        }),
    );
    rows
}

#[cfg(test)]
mod tests {
    #[test]
    fn crossover_exists() {
        let rows = super::sweep();
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(first.mind > first.accel, "MIND wins cold");
        assert!(last.accel > last.mind, "accelerator wins hot");
    }
}
