//! `px-bench` binary: print any experiment's table.
//!
//! ```text
//! px-bench e4            # E4's table (any name in EXPERIMENTS)
//! px-bench --smoke e12   # scaled-down E12, as CI runs it
//! ```
//!
//! E14 and E12tcp re-execute this binary as the other ranks of a TCP
//! mesh; `mesh::maybe_child` routes those invocations.

use px_bench::*;

/// Prints one experiment's table.
type Run = fn();

/// Every experiment by name: its full run, and its scaled-down `--smoke`
/// run where it has one (elsewhere `--smoke` runs the full size).
#[rustfmt::skip]
const EXPERIMENTS: &[(&str, Run, Option<Run>)] = &[
    ("e1", || { e1_design_point::run(); }, None),
    ("e2", || { e2_latency_hiding::run(); }, None),
    ("e3", || { e3_lco_vs_barrier::run(); }, None),
    ("e4", || { e4_percolation::run(); }, None),
    ("e5", || { e5_echo::run(); }, None),
    ("e6", || { e6_work_to_data::run(); }, None),
    ("e7", || { e7_modality::run(); }, None),
    ("e8", || { e8_irregular::run(); }, None),
    ("e9", || { e9_litlx_overhead::run(); }, None),
    ("e10", || { e10_datavortex::run(); }, None),
    ("e11", || { e11_starvation::run(); }, None),
    ("e12", || { e12_balance::run(); }, Some(|| { e12_balance::smoke(); })),
    ("e12tcp", || { e12_tcp::run(); }, Some(|| { e12_tcp::smoke(); })),
    ("e13", || { e13_tenancy::run(); }, Some(|| { e13_tenancy::smoke(); })),
    ("e14", || { e14_distributed::run(); }, Some(|| { e14_distributed::smoke(); })),
    ("e14mesh", || { e14_distributed::mesh_smoke(); }, None),
];

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    eprintln!(
        "usage: px-bench [--smoke] <experiment>\nexperiments: {}",
        names.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    mesh::maybe_child();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (smoke, name) = match args.as_slice() {
        [name] => (false, name.as_str()),
        [flag, name] if flag == "--smoke" => (true, name.as_str()),
        _ => usage(),
    };
    match EXPERIMENTS.iter().find(|e| e.0 == name) {
        Some(&(_, full, scaled)) => match scaled {
            Some(scaled) if smoke => scaled(),
            _ => full(),
        },
        None => usage(),
    }
}
