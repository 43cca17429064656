//! `px-bench` binary: run experiments outside the `cargo bench` harness.
//!
//! ```text
//! px-bench e12            # full E12 run
//! px-bench --smoke e12    # scaled-down E12 (CI smoke)
//! px-bench e13            # full E13 run
//! px-bench --smoke e13    # scaled-down E13 (CI smoke)
//! px-bench e14            # full E14 run: transports, 8/16-rank mesh, E12tcp
//! px-bench --smoke e14    # scaled-down transport table (CI smoke)
//! px-bench --smoke e14mesh # 8-rank mesh smoke (CI)
//! px-bench e12tcp         # balancer over TCP, 2+4 ranks
//! px-bench --smoke e12tcp # 2-rank balancer-on vs off (CI)
//! ```
//!
//! E14 and E12tcp re-execute this binary as the other ranks of a TCP
//! mesh; `mesh::maybe_child` routes those invocations.

fn usage() -> ! {
    eprintln!(
        "usage: px-bench [--smoke] <experiment>\n\
         experiments: e11, e12, e12tcp, e13, e14, e14mesh"
    );
    std::process::exit(2);
}

fn main() {
    px_bench::mesh::maybe_child();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (smoke, name) = match args.as_slice() {
        [name] => (false, name.as_str()),
        [flag, name] if flag == "--smoke" => (true, name.as_str()),
        _ => usage(),
    };
    match (name, smoke) {
        ("e12", true) => {
            px_bench::e12_balance::smoke();
        }
        ("e12", false) => {
            px_bench::e12_balance::run();
        }
        ("e12tcp", true) => {
            px_bench::e12_tcp::smoke();
        }
        ("e12tcp", false) => {
            px_bench::e12_tcp::run();
        }
        ("e13", true) => {
            px_bench::e13_tenancy::smoke();
        }
        ("e13", false) => {
            px_bench::e13_tenancy::run();
        }
        ("e14", true) => {
            px_bench::e14_distributed::smoke();
        }
        ("e14", false) => {
            px_bench::e14_distributed::run();
        }
        ("e14mesh", _) => {
            px_bench::e14_distributed::mesh_smoke();
        }
        ("e11", _) => {
            px_bench::e11_starvation::run();
        }
        _ => usage(),
    }
}
