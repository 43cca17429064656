//! E14: the distributed transport — spawn/await over real sockets.
//!
//! The paper's parcel model is a substrate for *distributed* ensembles
//! of localities; with the TCP backend that claim finally pays wire
//! rent. This experiment runs the same spawn/await workload (action
//! parcels spawn threads at the remote locality, continuation parcels
//! carry results back to local futures) over three transports:
//!
//! * `inproc-instant` — the seed wire, zero injected latency: the
//!   upper bound, every cost is a queue push;
//! * `inproc-50us` — the seed wire with 50 µs injected latency: the
//!   simulation the repo used for "remote" until this experiment;
//! * `tcp-2proc` — two real OS processes over loopback TCP with
//!   batched, checksummed frames (the bench re-executes itself as
//!   rank 1).
//!
//! Two figures per transport: **pipelined throughput** (all parcels in
//! flight at once — what latency *hiding* buys, §2.2) and **serial
//! round-trip time** (one in flight — what latency *costs*). The model
//! prediction: TCP loses on serial RTT (a real wire and a thread wake
//! per direction), but pipelining recovers most of the throughput
//! gap — which is exactly the split-phase story the paper tells.
//!
//! The **mesh legs** scale the same workload to N-rank meshes (rank 0
//! spawns ranks 1..N as real OS processes and round-robins the
//! spawn/await traffic across all of them) and report each rank's OS
//! thread count alongside throughput. With the event-loop transport the
//! thread count is *flat* in mesh size — the transport runs no thread
//! at all, each rank's workers read and write its sockets, whether it
//! peers with 1 or 63 others — which is what makes 64-rank meshes on one
//! box feasible at all (the per-peer thread-pair design needed 2(N−1)
//! transport threads per rank).
//!
//! `run()` prints the transport table, the 8- and 16-rank mesh table and
//! the E12-over-TCP table ([`crate::e12_tcp`]).

use crate::mesh::{join_peers, launch};
use crate::table::{f2, print_table};
use px_core::prelude::*;
use std::time::{Duration, Instant};

/// Experiment sizes (shrunk by `smoke`).
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Parcels in the pipelined throughput phase.
    pub msgs: u64,
    /// Round trips in the serial latency phase.
    pub serial: u64,
}

/// Full-size parameters.
pub const FULL: Params = Params {
    msgs: 20_000,
    serial: 1_000,
};

/// Smoke-test parameters (CI; loopback-only, fine on one core).
pub const SMOKE: Params = Params {
    msgs: 2_000,
    serial: 100,
};

struct Sq;
impl Action for Sq {
    const NAME: &'static str = "e14/square";
    type Args = u64;
    type Out = u64;
    fn execute(_ctx: &mut Ctx<'_>, _t: Gid, n: u64) -> u64 {
        n * n
    }
}

/// Report the executing process's OS thread count — the mesh legs send
/// this to every peer so the table can show per-rank threads.
struct Threads;
impl Action for Threads {
    const NAME: &'static str = "e14/threads";
    type Args = ();
    type Out = u64;
    fn execute(_ctx: &mut Ctx<'_>, _t: Gid, (): ()) -> u64 {
        count_threads()
    }
}

/// OS threads in this process (Linux procfs; 0 elsewhere).
pub fn count_threads() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count() as u64)
        .unwrap_or(0)
}

/// One measurement row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Transport under test.
    pub transport: String,
    /// Pipelined spawn/await throughput, parcels per second.
    pub pipelined_per_s: f64,
    /// Mean serial round-trip, microseconds.
    pub serial_rtt_us: f64,
}

/// One N-rank mesh measurement.
#[derive(Debug, Clone)]
pub struct MeshRow {
    /// Mesh size (OS processes, rank 0 included).
    pub ranks: u64,
    /// Pipelined spawn/await throughput across all peers, parcels/s.
    pub pipelined_per_s: f64,
    /// OS thread count of the rank-0 process.
    pub threads_rank0: u64,
    /// Largest OS thread count among ranks 1..N (via the `Threads`
    /// action — measured in-band over the mesh itself).
    pub threads_max_peer: u64,
}

/// This experiment's runtime at `rank` of the mesh at `addrs`: rank 0
/// in the measuring process, ranks 1..n via [`crate::mesh::maybe_child`].
pub(crate) fn rank_builder(rank: u16, addrs: Vec<String>) -> RuntimeBuilder {
    let cfg = Config::small(addrs.len(), 1)
        .with_tcp(rank, addrs)
        .with_max_batch_parcels(16);
    RuntimeBuilder::new(cfg)
        .register::<Sq>()
        .register::<Threads>()
}

/// Run the workload against an already-built runtime.
fn measure(rt: &Runtime, transport: &str, p: Params) -> Row {
    // Pipelined: everything in flight, then await.
    let t0 = Instant::now();
    let futs: Vec<(u64, FutureRef<u64>)> = (0..p.msgs)
        .map(|i| {
            let fut = rt.new_future::<u64>(LocalityId(0));
            rt.send_action::<Sq>(
                Gid::locality_root(LocalityId(1)),
                i,
                Continuation::set(fut.gid()),
            )
            .unwrap();
            (i, fut)
        })
        .collect();
    for (i, fut) in futs {
        assert_eq!(fut.wait(rt).unwrap(), i * i);
    }
    let pipelined = t0.elapsed();

    // Serial: one in flight.
    let t0 = Instant::now();
    for i in 0..p.serial {
        let fut = rt.new_future::<u64>(LocalityId(0));
        rt.send_action::<Sq>(
            Gid::locality_root(LocalityId(1)),
            i,
            Continuation::set(fut.gid()),
        )
        .unwrap();
        assert_eq!(fut.wait(rt).unwrap(), i * i);
    }
    let serial = t0.elapsed();

    Row {
        transport: transport.to_string(),
        pipelined_per_s: p.msgs as f64 / pipelined.as_secs_f64(),
        serial_rtt_us: serial.as_secs_f64() * 1e6 / p.serial as f64,
    }
}

fn inproc_rt(latency: Duration) -> Runtime {
    let mut cfg = Config::small(2, 1).with_max_batch_parcels(16);
    if !latency.is_zero() {
        cfg = cfg.with_latency(latency);
    }
    RuntimeBuilder::new(cfg).register::<Sq>().build().unwrap()
}

/// Run the TCP leg: bind, re-execute ourselves as rank 1, measure, tear
/// down. Returns the row and rank 0's stats.
fn tcp_leg(p: Params, child_args: &[&str]) -> (Row, StatsSnapshot) {
    let (rt, peers) = launch(2, "e14", child_args, |addrs| rank_builder(0, addrs));
    let row = measure(&rt, "tcp-2proc", p);
    let stats = rt.stats();
    assert_eq!(
        stats.total().dead_parcels,
        0,
        "healthy distributed run must lose nothing"
    );
    join_peers(peers);
    rt.shutdown();
    (row, stats)
}

/// Run one N-rank mesh leg: rank 0 (this process) plus `ranks - 1`
/// spawned peers, spawn/await traffic round-robined across every peer,
/// thread counts collected in-band via the `Threads` action.
fn mesh_leg(ranks: usize, p: Params, child_args: &[&str]) -> MeshRow {
    let (rt, peers) = launch(ranks, "e14", child_args, |addrs| rank_builder(0, addrs));

    // Pipelined: every parcel in flight at once, spread over all peers.
    let t0 = Instant::now();
    let futs: Vec<(u64, FutureRef<u64>)> = (0..p.msgs)
        .map(|i| {
            let dest = LocalityId((i % (ranks as u64 - 1) + 1) as u16);
            let fut = rt.new_future::<u64>(LocalityId(0));
            rt.send_action::<Sq>(Gid::locality_root(dest), i, Continuation::set(fut.gid()))
                .unwrap();
            (i, fut)
        })
        .collect();
    for (i, fut) in futs {
        assert_eq!(fut.wait(&rt).unwrap(), i * i);
    }
    let pipelined = t0.elapsed();

    // Per-rank thread counts, measured over the mesh itself.
    let threads_max_peer = (1..ranks as u16)
        .map(|r| {
            let fut = rt.new_future::<u64>(LocalityId(0));
            rt.send_action::<Threads>(
                Gid::locality_root(LocalityId(r)),
                (),
                Continuation::set(fut.gid()),
            )
            .unwrap();
            fut.wait(&rt).unwrap()
        })
        .max()
        .expect("at least one peer");

    let stats = rt.stats();
    assert_eq!(
        stats.total().dead_parcels,
        0,
        "healthy mesh run must lose nothing"
    );
    let row = MeshRow {
        ranks: ranks as u64,
        pipelined_per_s: p.msgs as f64 / pipelined.as_secs_f64(),
        threads_rank0: count_threads(),
        threads_max_peer,
    };
    join_peers(peers);
    rt.shutdown();
    row
}

/// The three-transport table at size `p`.
fn transports(p: Params) -> Vec<Row> {
    println!(
        "\n[E14] spawn/await over transports: {} pipelined + {} serial parcels",
        p.msgs, p.serial
    );
    let mut rows = Vec::new();
    for (name, latency) in [
        ("inproc-instant", Duration::ZERO),
        ("inproc-50us", Duration::from_micros(50)),
    ] {
        let rt = inproc_rt(latency);
        rows.push(measure(&rt, name, p));
        rt.shutdown();
    }
    rows.push(tcp_leg(p, &[]).0);
    print_table(
        "E14 — distributed transport: spawn/await throughput and latency",
        &["transport", "pipelined/s", "serial RTT µs"],
        rows.iter().map(|r| {
            vec![
                r.transport.clone(),
                format!("{:.0}", r.pipelined_per_s),
                f2(r.serial_rtt_us),
            ]
        }),
    );
    let penalty = rows[0].pipelined_per_s / rows[2].pipelined_per_s;
    println!("tcp pipelined penalty vs in-proc instant: {}x", f2(penalty));
    rows
}

fn print_mesh_table(mesh: &[MeshRow]) {
    print_table(
        "E14 — mesh scaling: threads stay flat as ranks grow",
        &["ranks", "pipelined/s", "threads rank0", "threads max peer"],
        mesh.iter().map(|m| {
            vec![
                m.ranks.to_string(),
                format!("{:.0}", m.pipelined_per_s),
                m.threads_rank0.to_string(),
                m.threads_max_peer.to_string(),
            ]
        }),
    );
}

/// Full experiment: the transport table, the 8- and 16-rank mesh legs
/// and E12-over-TCP at 2 and 4 ranks.
pub fn run() -> Vec<Row> {
    let rows = transports(FULL);
    print_mesh_table(&[8, 16].map(|ranks| mesh_leg(ranks, FULL, &[])));
    crate::e12_tcp::run();
    rows
}

/// CI smoke: the transport table, scaled down.
pub fn smoke() -> Vec<Row> {
    let rows = transports(SMOKE);
    assert_eq!(rows.len(), 3);
    for r in &rows {
        assert!(
            r.pipelined_per_s > 0.0 && r.serial_rtt_us > 0.0,
            "degenerate measurement: {r:?}"
        );
    }
    rows
}

/// CI smoke for the mesh legs: an 8-rank mesh end-to-end, with the
/// flat-thread-budget claim sanity-checked in-band.
pub fn mesh_smoke() -> MeshRow {
    let row = mesh_leg(8, SMOKE, &[]);
    print_mesh_table(std::slice::from_ref(&row));
    assert!(row.pipelined_per_s > 0.0, "degenerate mesh measurement");
    assert!(
        row.threads_rank0 > 0 && row.threads_max_peer > 0,
        "thread counts must be observable: {row:?}"
    );
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::TEST_CHILD;

    /// The TCP leg completes a healthy spawn/await workload end-to-end
    /// and reports per-peer traffic (the E14 smoke in miniature).
    #[test]
    fn tcp_leg_completes_and_counts() {
        let (row, stats) = tcp_leg(
            Params {
                msgs: 300,
                serial: 20,
            },
            TEST_CHILD,
        );
        assert!(row.pipelined_per_s > 0.0);
        let peer = stats.transport.peers.iter().find(|p| p.peer == 1).unwrap();
        assert!(peer.msgs_sent > 0 && peer.msgs_recv > 0);
        let total = stats.total();
        let flushed = total.batch_flush_full + total.batch_flush_pulled;
        assert!(flushed > 0, "batched run should ship port frames");
    }

    /// A 4-rank mesh completes a round-robined workload and reports
    /// observable per-rank thread counts (the mesh leg in miniature).
    #[test]
    fn mesh_leg_spreads_work_and_counts_threads() {
        let row = mesh_leg(
            4,
            Params {
                msgs: 300,
                serial: 0,
            },
            TEST_CHILD,
        );
        assert_eq!(row.ranks, 4);
        assert!(row.pipelined_per_s > 0.0);
        assert!(row.threads_rank0 > 0 && row.threads_max_peer > 0);
    }
}
