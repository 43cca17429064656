//! The self-exec TCP mesh launcher shared by E14 and E12-over-TCP.
//!
//! Rank 0 is the experiment's own process, bound before any other rank
//! starts; ranks 1..n are re-executions of the same binary that find
//! their rank, rank 0's address, the rank count and the role they serve
//! in the environment, bind a port the kernel picks, build that role's
//! runtime, serve until the parent closes their stdin, and exit.

use px_core::prelude::{Runtime, RuntimeBuilder};
use std::io::Read;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};

/// The environment variable that turns an invocation of this binary
/// into a serving rank of a mesh.
pub const RANK_ENV: &str = "PX_MESH_RANK";
/// Rank 0's address, the rank count, and which experiment's peer to
/// build (see [`maybe_child`]).
const RANK0_ENV: &str = "PX_MESH_RANK0";
const RANKS_ENV: &str = "PX_MESH_RANKS";
const ROLE_ENV: &str = "PX_MESH_ROLE";

/// Arguments that route a re-executed *libtest* binary to the test that
/// calls [`maybe_child`] (the `px-bench` binary needs none: its `main`
/// calls it first).
#[cfg(test)]
pub(crate) const TEST_CHILD: &[&str] = &["mesh::tests::child_entry", "--exact", "--nocapture"];

/// If this process was spawned as a mesh peer, serve and exit — call
/// first from `main`. Serves until the parent closes stdin.
pub fn maybe_child() {
    let Ok(rank) = std::env::var(RANK_ENV) else {
        return;
    };
    let var = |name: &str| std::env::var(name).expect("a mesh peer's environment");
    let rank: u16 = rank.parse().expect("numeric rank");
    let ranks = var(RANKS_ENV).parse().expect("numeric rank count");
    let addrs = addrs(var(RANK0_ENV), ranks);
    let builder = match var(ROLE_ENV).as_str() {
        "e14" => crate::e14_distributed::rank_builder(rank, addrs),
        "e12tcp-off" => crate::e12_tcp::peer(rank, addrs, false),
        "e12tcp-adaptive" => crate::e12_tcp::peer(rank, addrs, true),
        other => panic!("unknown mesh role {other:?}"),
    };
    let rt = builder.build().expect("mesh rank bootstrap");
    let mut sink = String::new();
    let _ = std::io::stdin().read_to_string(&mut sink);
    rt.shutdown();
    std::process::exit(0);
}

/// Every rank's address list: where rank 0 listens, then a port the
/// kernel picks for each other rank.
fn addrs(rank0: String, ranks: usize) -> Vec<String> {
    let mut addrs = vec!["127.0.0.1:0".to_string(); ranks];
    addrs[0] = rank0;
    addrs
}

/// Bind rank 0 of a `ranks`-wide mesh, re-execute this binary as ranks
/// 1..n serving `role`, and build rank 0 from `rank0`'s builder, given
/// the mesh's address list.
pub fn launch(
    ranks: usize,
    role: &str,
    child_args: &[&str],
    rank0: impl FnOnce(Vec<String>) -> RuntimeBuilder,
) -> (Runtime, Vec<Child>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind rank 0");
    let at = listener.local_addr().expect("rank 0's address").to_string();
    let exe = std::env::current_exe().expect("own path");
    let peers = (1..ranks)
        .map(|rank| {
            Command::new(&exe)
                .args(child_args)
                .env(RANK_ENV, rank.to_string())
                .env(RANK0_ENV, &at)
                .env(RANKS_ENV, ranks.to_string())
                .env(ROLE_ENV, role)
                .stdin(Stdio::piped())
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn mesh peer")
        })
        .collect();
    let builder = rank0(addrs(at, ranks)).tcp_listener(listener);
    (builder.build().expect("rank 0 bootstrap"), peers)
}

/// Close the peers' stdin (their exit signal) and reap them.
pub fn join_peers(mut peers: Vec<Child>) {
    for child in &mut peers {
        drop(child.stdin.take());
    }
    for mut child in peers {
        let status = child.wait().expect("join mesh peer");
        assert!(status.success(), "mesh peer failed: {status:?}");
    }
}

#[cfg(test)]
mod tests {
    /// Child entry for the re-executed *test* binary: a no-op unless
    /// `PX_MESH_RANK` is set (then it serves its rank and exits there).
    #[test]
    fn child_entry() {
        super::maybe_child();
    }
}
