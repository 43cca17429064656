//! Distributed deployment: two OS processes forming one ParalleX system
//! over loopback TCP.
//!
//! The example spawns *itself* as the second rank (`PX_DIST_RANK=1`), so
//! one `cargo run --example distributed` demonstrates the whole story:
//! rank 0 binds first and hands the child its address (the only one
//! either rank is given; the child binds a port the kernel picks), the
//! bootstrap barrier, action parcels spawning threads at the remote
//! rank, continuation parcels carrying results back, batched checksummed
//! frames, and per-peer transport counters.
//!
//! ```text
//! rank 0 (parent)                      rank 1 (child, spawned)
//!   locality 0  ── Square parcels ──►    locality 1
//!              ◄── LCO_SET replies ──
//! ```
//!
//! Shutdown protocol: the child serves until the parent closes its
//! stdin — no in-band "stop" message needed, and a crashed parent tears
//! the child down the same way.

use parallex::core::prelude::*;
use std::io::Read;
use std::net::TcpListener;
use std::process::{Command, Stdio};
use std::time::Instant;

struct Square;
impl Action for Square {
    const NAME: &'static str = "dist/square";
    type Args = u64;
    type Out = u64;
    fn execute(_ctx: &mut Ctx<'_>, _t: Gid, n: u64) -> u64 {
        n * n
    }
}

/// Rank `rank` of a system of two whose rank 0 listens at `rank0`.
/// Rank 1 binds a port the kernel picks; rank 0 is handed its listener.
fn builder(rank: u16, rank0: String) -> RuntimeBuilder {
    let cfg = Config::small(2, 1)
        .with_tcp(rank, vec![rank0, "127.0.0.1:0".into()])
        .with_max_batch_parcels(16);
    RuntimeBuilder::new(cfg).register::<Square>()
}

fn main() {
    if let Ok(rank) = std::env::var("PX_DIST_RANK") {
        child(rank.parse().expect("numeric rank"));
        return;
    }
    parent();
}

/// Rank 1: serve parcels until the parent closes our stdin.
fn child(rank: u16) {
    let rank0 = std::env::var("PX_DIST_ADDR").expect("PX_DIST_ADDR");
    let rt = builder(rank, rank0).build().expect("bootstrap the mesh");
    eprintln!("[rank {rank}] mesh up, serving");
    let mut sink = String::new();
    let _ = std::io::stdin().read_to_string(&mut sink);
    eprintln!("[rank {rank}] parent closed stdin, shutting down");
    rt.shutdown();
}

/// Rank 0: spawn the child, run the spawn/await workload, print stats.
fn parent() {
    // Bound before rank 1 starts: its first dial finds rank 0 up.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let rank0 = listener.local_addr().unwrap().to_string();
    println!("[rank 0] system of 2 processes, rank 0 at {rank0}");
    let mut peer = Command::new(std::env::current_exe().unwrap())
        .env("PX_DIST_RANK", "1")
        .env("PX_DIST_ADDR", &rank0)
        .stdin(Stdio::piped())
        .spawn()
        .expect("spawn rank 1");

    let rt = builder(0, rank0).tcp_listener(listener).build();
    let rt = rt.expect("bootstrap the mesh");
    println!("[rank 0] bootstrap barrier passed; mesh up");

    // Spawn/await workload: parcels spawn Square threads at rank 1, the
    // continuations fill local futures over the wire.
    const N: u64 = 1000;
    let t0 = Instant::now();
    let futs: Vec<(u64, FutureRef<u64>)> = (0..N)
        .map(|i| {
            let fut = rt.new_future::<u64>(LocalityId(0));
            rt.send_action::<Square>(
                Gid::locality_root(LocalityId(1)),
                i,
                Continuation::set(fut.gid()),
            )
            .unwrap();
            (i, fut)
        })
        .collect();
    for (i, fut) in futs {
        assert_eq!(rt.wait_future(fut).unwrap(), i * i);
    }
    let pipelined = t0.elapsed();

    // Serial round-trips for a latency figure.
    const R: u64 = 200;
    let t0 = Instant::now();
    for i in 0..R {
        let fut = rt.new_future::<u64>(LocalityId(0));
        rt.send_action::<Square>(
            Gid::locality_root(LocalityId(1)),
            i,
            Continuation::set(fut.gid()),
        )
        .unwrap();
        assert_eq!(rt.wait_future(fut).unwrap(), i * i);
    }
    let serial = t0.elapsed();

    println!(
        "[rank 0] {N} pipelined spawn/awaits in {pipelined:?} ({:.0}/s)",
        N as f64 / pipelined.as_secs_f64()
    );
    println!(
        "[rank 0] {R} serial round-trips in {serial:?} (mean RTT {:.1} µs)",
        serial.as_secs_f64() * 1e6 / R as f64
    );
    let stats = rt.stats();
    for p in &stats.transport.peers {
        println!(
            "[rank 0] peer {}: {} msgs / {} B out, {} msgs / {} B in",
            p.peer, p.msgs_sent, p.bytes_sent, p.msgs_recv, p.bytes_recv
        );
    }
    assert_eq!(stats.total().dead_parcels, 0, "healthy run, no deaths");

    // Closing stdin is the shutdown signal.
    drop(peer.stdin.take());
    let status = peer.wait().expect("join rank 1");
    assert!(status.success());
    println!("[rank 0] rank 1 exited cleanly; done");
    rt.shutdown();
}
