//! Regenerates the e12_balance experiment tables (see DESIGN.md §4, EXPERIMENTS.md).
fn main() {
    px_bench::e12_balance::run();
}
