//! The self-exec TCP mesh launcher shared by E14 and E12-over-TCP.
//!
//! Rank 0 is the experiment's own process; ranks 1..n are re-executions
//! of the same binary that find their rank, the address list and the
//! role they serve in the environment, build that role's runtime, serve
//! until the parent closes their stdin, and exit.

use px_core::prelude::Runtime;
use std::io::Read;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};

/// The environment variable that turns an invocation of this binary
/// into a serving rank of a mesh.
pub const RANK_ENV: &str = "PX_MESH_RANK";
const ADDRS_ENV: &str = "PX_MESH_ADDRS";
/// Which experiment's peer to build: see [`maybe_child`].
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
    let rank: u16 = rank.parse().expect("numeric rank");
    let addrs: Vec<String> = std::env::var(ADDRS_ENV)
        .expect("mesh peers need the address list")
        .split(',')
        .map(String::from)
        .collect();
    let role = std::env::var(ROLE_ENV).expect("mesh peers need a role");
    let rt: Runtime = match role.as_str() {
        "e14" => crate::e14_distributed::rank_runtime(rank, addrs),
        "e12tcp-off" => crate::e12_tcp::peer(rank, addrs, false),
        "e12tcp-adaptive" => crate::e12_tcp::peer(rank, addrs, true),
        other => panic!("unknown mesh role {other:?}"),
    };
    let mut sink = String::new();
    let _ = std::io::stdin().read_to_string(&mut sink);
    rt.shutdown();
    std::process::exit(0);
}

/// Reserve `n` loopback listen addresses.
pub fn reserve_addrs(n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            format!("127.0.0.1:{}", l.local_addr().unwrap().port())
        })
        .collect()
}

/// Re-execute this binary as ranks 1..n serving `role`.
pub fn spawn_peers(addrs: &[String], role: &str, child_args: &[&str]) -> Vec<Child> {
    let exe = std::env::current_exe().expect("own path");
    (1..addrs.len())
        .map(|rank| {
            Command::new(&exe)
                .args(child_args)
                .env(RANK_ENV, rank.to_string())
                .env(ADDRS_ENV, addrs.join(","))
                .env(ROLE_ENV, role)
                .stdin(Stdio::piped())
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn mesh peer")
        })
        .collect()
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
