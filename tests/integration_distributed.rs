//! Two-OS-process integration tests over the TCP transport.
//!
//! The test binary re-executes itself as the second rank
//! (`dist_child_entry` is a no-op unless `PX_DIST_MODE` is set), so the
//! "cluster" is real: two processes, one locality each, loopback TCP,
//! the bootstrap barrier, and — in the trace test — a peer killed
//! mid-flight (what a loss means to the protocol is checked on seeds:
//! px-core's `net::tests::a_killed_locality_…`).

use parallex::core::percolation::percolate;
use parallex::core::prelude::*;
use std::collections::VecDeque;
use std::io::Read;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Generous bound: a genuine hang hits this, a delivered fault never does.
const BOUND: Duration = Duration::from_secs(20);

struct Square;
impl Action for Square {
    const NAME: &'static str = "dist/square";
    type Args = u64;
    type Out = u64;
    fn execute(_ctx: &mut Ctx<'_>, _t: Gid, n: u64) -> u64 {
        n * n
    }
}

/// pxmark's `agas_mix` client: at the locality it was sent to, read
/// (`fetch_data`) or overwrite (`store_data`) the object wherever it
/// lives, resume on that future, and fill the driver's with the number of
/// bytes read or written (`u64::MAX` on a fault).
struct Access;
impl Action for Access {
    const NAME: &'static str = "dist/access";
    /// Object, a byte to fill it with (`None` reads), the driver's future.
    type Args = (Gid, Option<u8>, Gid);
    type Out = ();
    fn execute(ctx: &mut Ctx<'_>, _t: Gid, (obj, write, done): Self::Args) {
        let reply = move |ctx: &mut Ctx<'_>, n: Option<usize>| {
            let n = n.map_or(u64::MAX, |n| n as u64);
            ctx.trigger(done, &n).expect("integers encode");
        };
        match write {
            None => {
                let read = ctx.fetch_data(obj);
                ctx.when_resolved(read, move |ctx, r| reply(ctx, r.ok().map(|b| b.len())));
            }
            Some(b) => {
                let bytes = [b; OBJECT_BYTES];
                let written = ctx.store_data(obj, &bytes).expect("bytes encode");
                ctx.when_resolved(written, move |ctx, r| {
                    reply(ctx, r.ok().map(|()| OBJECT_BYTES))
                });
            }
        }
    }
}

const OBJECT_BYTES: usize = 64;

/// Run for `ms` milliseconds on the worker that took it, after telling
/// `started` (if given) that it began. Returns `ms`.
struct Busy;
impl Action for Busy {
    const NAME: &'static str = "dist/busy";
    type Args = (u64, Option<Gid>);
    type Out = u64;
    fn execute(ctx: &mut Ctx<'_>, _t: Gid, (ms, started): Self::Args) -> u64 {
        if let Some(started) = started {
            ctx.trigger(started, &()).expect("unit encodes");
        }
        std::thread::sleep(Duration::from_millis(ms));
        ms
    }
}

/// Swallow a chunk of bytes.
struct Sink;
impl Action for Sink {
    const NAME: &'static str = "dist/sink";
    type Args = Vec<u8>;
    type Out = ();
    fn execute(_ctx: &mut Ctx<'_>, _t: Gid, _bytes: Vec<u8>) {}
}

/// Bulk bytes per `Sink` parcel.
const CHUNK: usize = 64 * 1024;

/// From inside one task, send `n` chunks to the `Sink` at `to`, each
/// reply setting the and-gate `done`.
struct Flood;
impl Action for Flood {
    const NAME: &'static str = "dist/flood";
    type Args = (Gid, u64, Gid);
    type Out = ();
    fn execute(ctx: &mut Ctx<'_>, _t: Gid, (to, n, done): Self::Args) {
        for _ in 0..n {
            let cont = Continuation::set(done);
            ctx.send::<Sink>(to, vec![0x5A; CHUNK], cont)
                .expect("bytes encode");
        }
    }
}

/// This process's runtime threads' voluntary context switches so far.
struct Switches;
impl Action for Switches {
    const NAME: &'static str = "dist/switches";
    type Args = ();
    type Out = u64;
    fn execute(_ctx: &mut Ctx<'_>, _t: Gid, (): ()) -> u64 {
        let px = threads()
            .into_iter()
            .filter(|(_, name)| name.starts_with("px-"));
        px.map(|(task, _)| voluntary_switches_of(&task)).sum()
    }
}

/// Requests per soak run: 10⁶ in release (CI's soak leg); a tenth in
/// the debug profile tier-1 runs, where every request also pays the
/// spend obligation and the lock-order check.
const SOAK: u64 = if cfg!(debug_assertions) {
    100_000
} else {
    1_000_000
};

/// Issue `n` requests with 32 in flight (pxmark's window), reading each
/// request's future once, oldest first. `issue(i)` sends request `i` and
/// returns its future and the value it must resolve to.
fn pipelined(rt: &Runtime, n: u64, mut issue: impl FnMut(u64) -> (FutureRef<u64>, u64)) {
    const WINDOW: usize = 32;
    let check = |(fut, want): (FutureRef<u64>, u64)| {
        assert_eq!(fut.wait_timeout(rt, BOUND).unwrap(), Some(want));
    };
    let mut window = VecDeque::with_capacity(WINDOW);
    for i in 0..n {
        if window.len() == WINDOW {
            check(window.pop_front().expect("window is full"));
        }
        window.push_back(issue(i));
    }
    window.into_iter().for_each(check);
}

/// Every locality's store size, read off the `objects` gauge.
fn store_sizes(rt: &Runtime) -> Vec<u64> {
    rt.stats().localities.iter().map(|l| l.objects).collect()
}

/// Rank 0's listener of a `ranks`-wide mesh, bound before any child
/// starts (each dials an address that is up), and the mesh's addresses.
fn rank0(ranks: usize) -> (TcpListener, Vec<String>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addrs = mesh_addrs(listener.local_addr().unwrap().to_string(), ranks);
    (listener, addrs)
}

/// The address list of every rank: where rank 0 listens. Every other
/// rank binds a port the kernel picks and learns the rest at bootstrap.
fn mesh_addrs(rank0: String, ranks: usize) -> Vec<String> {
    let mut addrs = vec!["127.0.0.1:0".to_string(); ranks];
    addrs[0] = rank0;
    addrs
}

/// Return this rank's slice of a trace: every locally recorded event of
/// the id, in recording order. The parent merges it with its own dump
/// for a cross-rank causal replay.
struct Slice;
impl Action for Slice {
    const NAME: &'static str = "dist/trace-slice";
    type Args = u64;
    type Out = Vec<TraceEvent>;
    fn execute(ctx: &mut Ctx<'_>, _t: Gid, trace: u64) -> Vec<TraceEvent> {
        ctx.trace_dump().filter(trace).events
    }
}

fn rt_config(rank: u16, addrs: Vec<String>, batched: bool, traced: bool, metered: bool) -> Config {
    let mut cfg = Config::small(addrs.len(), 1).with_tcp(rank, addrs);
    if batched {
        // Batching exercises coalesced checksummed frames over the
        // socket; the balancer (telemetry-only across processes)
        // exercises the control-plane priority lane.
        let mut balance = BalanceConfig::adaptive();
        balance.gossip_interval = Duration::from_millis(5);
        cfg = cfg.with_max_batch_parcels(16).with_balance(balance);
    }
    if traced {
        cfg = cfg.with_trace_sampling(1);
    }
    if metered {
        cfg = cfg.with_metrics(true);
    }
    cfg
}

/// A rank that coalesces up to 16 parcels per frame and runs nothing
/// else in the background: no balancer, so no gossip wakes an idle mesh
/// or dies toward a dead peer.
fn batched_config(rank: u16, addrs: Vec<String>) -> Config {
    let cfg = Config::small(addrs.len(), 1).with_tcp(rank, addrs);
    cfg.with_max_batch_parcels(16)
}

/// A runtime of `cfg`, on `listener` if one is given (rank 0).
fn build(cfg: Config, listener: Option<TcpListener>) -> Runtime {
    let mut builder = RuntimeBuilder::new(cfg)
        .register::<Square>()
        .register::<Slice>()
        .register::<Access>()
        .register::<Busy>()
        .register::<Sink>()
        .register::<Flood>()
        .register::<Switches>();
    if let Some(listener) = listener {
        builder = builder.tcp_listener(listener);
    }
    builder.build().unwrap()
}

fn spawn_child(mode: &str, addrs: &[String]) -> Child {
    spawn_child_at(mode, addrs, 1, Stdio::null())
}

/// Start rank `rank` of the mesh at `addrs` serving `mode` (no mesh for
/// a mode that runs its own): it is told rank 0's address and the rank
/// count.
fn spawn_child_at(mode: &str, addrs: &[String], rank: u16, stdout: Stdio) -> Child {
    Command::new(std::env::current_exe().unwrap())
        .args(["dist_child_entry", "--exact", "--nocapture"])
        .env("PX_DIST_MODE", mode)
        .env("PX_DIST_ADDR", addrs.first().map_or("", String::as_str))
        .env("PX_DIST_RANKS", addrs.len().to_string())
        .env("PX_DIST_RANK", rank.to_string())
        .stdin(Stdio::piped())
        .stdout(stdout)
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn child rank")
}

/// The second rank's body. A no-op under a normal test run; the parent
/// tests re-execute this binary with `PX_DIST_MODE` set.
#[test]
fn dist_child_entry() {
    let Ok(mode) = std::env::var("PX_DIST_MODE") else {
        return;
    };
    match mode.as_str() {
        "thread-count" => return count_threads_as_rank_zero(),
        "idle-tcp" => return idle_as_rank_zero(),
        "idle-inproc" => return idle_in_process(),
        _ => {}
    }
    let var = |name: &str| std::env::var(name).expect("a child rank's environment");
    let rank: u16 = var("PX_DIST_RANK").parse().expect("numeric rank");
    let ranks = var("PX_DIST_RANKS").parse().expect("numeric rank count");
    let addrs = mesh_addrs(var("PX_DIST_ADDR"), ranks);
    let cfg = match mode.as_str() {
        "quiet" | "switches" => batched_config(rank, addrs),
        "two-workers" => Config::small(ranks, 2).with_tcp(rank, addrs),
        _ => {
            let (batched, traced) = (mode.starts_with("serve"), mode == "serve-trace");
            rt_config(rank, addrs, batched, traced, mode == "serve-metrics")
        }
    };
    let rt = build(cfg, None);
    match mode.as_str() {
        // Register a gid under a process-scoped name at this rank,
        // publish the full path on stdout, then serve until the parent
        // closes stdin.
        "names" => {
            let owner = rt.create_process(LocalityId(rank));
            let data = rt.new_data_at(LocalityId(rank), vec![0x5A; 16]);
            let full = owner
                .register_name(&rt, "svc", data)
                .expect("register child-side name");
            use std::io::Write;
            println!("{full} {:x}", data.0);
            // Stdout is a pipe here (block-buffered): flush, or the
            // parent blocks forever waiting for this line.
            std::io::stdout().flush().expect("publish name line");
            let mut sink = String::new();
            let _ = std::io::stdin().read_to_string(&mut sink);
            rt.shutdown();
        }
        "drive" => {
            drive_from_rank_one(&rt);
            rt.shutdown();
        }
        // Flood rank 0 from inside one task while it floods this rank,
        // then serve until the parent is done too.
        "flood" => {
            flood(&rt, LocalityId(rank), LocalityId(0));
            let mut sink = String::new();
            let _ = std::io::stdin().read_to_string(&mut sink);
            rt.shutdown();
        }
        // Serve parcels until the parent closes our stdin.
        _ => {
            let mut sink = String::new();
            let _ = std::io::stdin().read_to_string(&mut sink);
            rt.shutdown();
        }
    }
}

/// Rank 1's driver, in the child: a process homed at rank 1 sends an
/// action and percolates a task toward rank 0 *and* toward its own rank,
/// every continuation a rank-1 future. Every reply arrives, the process
/// quiesces, nothing dies, and every send is booked on the locality this
/// rank owns — none on its stub of locality 0, whose queues no worker
/// drains.
fn drive_from_rank_one(rt: &Runtime) {
    let me = LocalityId(1);
    let p = rt.create_process(me);
    let mut replies = Vec::new();
    for dest in [LocalityId(0), me] {
        let root = Gid::locality_root(dest);
        let sent = rt.new_future::<u64>(me);
        p.send_action::<Square>(rt, root, 6, Continuation::set(sent.gid()))
            .unwrap();
        let staged = rt.new_future::<u64>(me);
        percolate::<Square>(rt, dest, root, &7, Continuation::set(staged.gid())).unwrap();
        replies.extend([(sent, 36), (staged, 49)]);
    }
    p.finish_root(rt);
    for (fut, want) in replies {
        assert_eq!(fut.wait_timeout(rt, BOUND).unwrap(), Some(want));
    }
    let quiesced = p.done_future().wait_timeout(rt, BOUND).unwrap();
    assert_eq!(quiesced, Some(()), "active = {}", p.active(rt));
    let stats = rt.stats();
    assert_eq!(stats.total().dead_parcels, 0);
    assert_eq!(stats.localities[1].parcels_sent, 4);
    assert_eq!(stats.localities[0].parcels_sent, 0, "booked on a stub");
}

/// The contract holds from every rank: calls made by a nonzero rank's
/// driver originate at the rank it owns (the parent commit sent
/// `ProcessRef::send_action` and driver-side percolation "from locality
/// 0" everywhere, which on rank 1 is a stub: no reply, no death, a
/// process that never quiesces). This rank only serves; the assertions
/// run in the child.
#[test]
fn calls_from_a_nonzero_ranks_driver_are_delivered() {
    let (listener, addrs) = rank0(2);
    let mut child = spawn_child("drive", &addrs);
    let rt = build(rt_config(0, addrs, false, false, false), Some(listener));
    let status = child.wait().unwrap();
    assert!(status.success(), "rank 1's driver lost a call: {status:?}");
    rt.shutdown();
}

/// Acceptance: a 2-process TCP run completes a spawn/await workload
/// end-to-end — action parcels spawn threads at the remote rank, local
/// futures await the results, the continuation parcels cross back.
#[test]
fn two_process_spawn_await_workload_completes() {
    let (listener, addrs) = rank0(2);
    let mut child = spawn_child("serve", &addrs);
    let rt = build(rt_config(0, addrs, true, false, false), Some(listener));
    const N: u64 = 200;
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
        let got = rt
            .wait_future_timeout(fut, BOUND)
            .unwrap()
            .expect("remote result within the bound");
        assert_eq!(got, i * i);
    }
    let stats = rt.stats();
    let peer = stats
        .transport
        .peers
        .iter()
        .find(|p| p.peer == 1)
        .expect("peer stats for rank 1");
    // Stream messages, not parcels: coalescing packs many parcels per
    // frame, so this is well below N on a batched run.
    assert!(peer.msgs_sent > 0, "outbound messages: {}", peer.msgs_sent);
    assert!(peer.msgs_recv > 0, "continuations came back over TCP");
    assert!(peer.bytes_sent > 0 && peer.bytes_recv > 0);
    let total = stats.total();
    assert!(
        total.batch_flush_full + total.batch_flush_pulled > 0,
        "a batched run should have shipped port frames"
    );
    assert_eq!(stats.total().dead_parcels, 0, "healthy run, no deaths");
    // Balancer gossip from the peer rank arrives over the TCP control
    // lane and is merged here (telemetry-only across processes).
    let t0 = Instant::now();
    while rt.stats().total().gossip_parcels == 0 {
        assert!(t0.elapsed() < BOUND, "no gossip ever crossed the wire");
        std::thread::sleep(Duration::from_millis(2));
    }
    // Closing the child's stdin tells it to shut down; it must exit 0.
    drop(child.stdin.take());
    let status = child.wait().unwrap();
    assert!(status.success(), "child rank failed: {status:?}");
    rt.shutdown();
}

/// Acceptance: `cluster_metrics()` across two real OS processes pulls
/// rank 1's histograms over the control lane and merges them with rank
/// 0's — the merged total equals the sum of the per-rank counts and the
/// quantiles of every instrument are monotone. Clocks are never
/// compared across ranks: each histogram holds durations measured on
/// its own rank, and merging adds bucket counts, not timestamps.
#[test]
fn two_process_cluster_metrics_merges_per_rank_histograms() {
    let (listener, addrs) = rank0(2);
    let mut child = spawn_child("serve-metrics", &addrs);
    let rt = build(rt_config(0, addrs, true, false, true), Some(listener));
    const N: u64 = 64;
    for i in 0..N {
        let fut = rt.new_future::<u64>(LocalityId(0));
        rt.send_action::<Square>(
            Gid::locality_root(LocalityId(1)),
            i,
            Continuation::set(fut.gid()),
        )
        .unwrap();
        let got = rt
            .wait_future_timeout(fut, BOUND)
            .unwrap()
            .expect("remote result within the bound");
        assert_eq!(got, i * i);
    }
    let cluster = rt.cluster_metrics().expect("pull over the control lane");
    assert_eq!(cluster.per_rank.len(), 2, "one snapshot per rank");
    let per_rank_total: u64 = cluster
        .per_rank
        .iter()
        .map(|(_, snap)| snap.total_count())
        .sum();
    assert_eq!(
        cluster.merged.total_count(),
        per_rank_total,
        "the merge is lossless"
    );
    for (rank, snap) in &cluster.per_rank {
        assert!(snap.total_count() > 0, "rank {rank} recorded nothing");
    }
    for inst in Instrument::ALL {
        let h = cluster.merged.get(inst);
        let (p50, p99, p999) = (h.quantile(0.50), h.quantile(0.99), h.quantile(0.999));
        assert!(
            p50 <= p99 && p99 <= p999,
            "{}: p50={p50} p99={p99} p999={p999}",
            inst.name()
        );
    }
    // The remote rank executed every Square action under its own
    // registry; the pull carried that across the wire.
    assert!(cluster.merged.get(Instrument::ExecuteUser).count >= N);
    drop(child.stdin.take());
    assert!(child.wait().unwrap().success());
    rt.shutdown();
}

/// The event-loop transport's headline invariant, measured across real
/// OS processes: this rank's thread count is **flat** as the mesh grows
/// from 1 peer to 7 — the transport runs no thread at all, the rank's
/// workers read and write its sockets — and a batched, balanced TCP rank
/// runs no thread for its coalescing ports or its balancer pulse either:
/// the loop's passes pull the ports and fire the pulse.
///
/// `/proc/self/task` is process-wide and sibling tests in this binary
/// run TCP runtimes of their own, so rank 0 of the measured meshes is a
/// child too (`dist_child_entry` in `thread-count` mode): a process that
/// runs nothing else.
#[test]
fn thread_count_stays_flat_from_one_peer_to_seven() {
    let mut child = spawn_child_at("thread-count", &[], 0, Stdio::null());
    drop(child.stdin.take());
    assert!(
        child.wait().unwrap().success(),
        "thread count check failed in the child (its panic is on stderr)"
    );
}

/// Body of the `thread-count` child: rank 0 of a 2-rank and then an
/// 8-rank mesh, counting its own threads with every connection live.
fn count_threads_as_rank_zero() {
    // Run one mesh of each size, pushing a round of real traffic to
    // every peer so all connections are live when we count.
    let mut counts = Vec::new();
    for ranks in [2usize, 8] {
        let (listener, addrs) = rank0(ranks);
        let mut children: Vec<Child> = (1..ranks as u16)
            .map(|r| spawn_child_at("serve", &addrs, r, Stdio::null()))
            .collect();
        let rt = build(rt_config(0, addrs, true, false, false), Some(listener));
        for r in 1..ranks as u16 {
            let fut = rt.new_future::<u64>(LocalityId(0));
            rt.send_action::<Square>(
                Gid::locality_root(LocalityId(r)),
                u64::from(r),
                Continuation::set(fut.gid()),
            )
            .unwrap();
            let got = rt
                .wait_future_timeout(fut, BOUND)
                .unwrap()
                .expect("remote result within the bound");
            assert_eq!(got, u64::from(r) * u64::from(r));
        }
        assert_eq!(
            px_threads(),
            ["px-L0-w0"],
            "one worker, and nothing for the transport, the ports or the \
             balancer at {ranks} ranks"
        );
        counts.push(threads().len());
        for child in &mut children {
            drop(child.stdin.take());
        }
        for mut child in children {
            assert!(child.wait().unwrap().success());
        }
        rt.shutdown();
    }
    assert_eq!(
        counts[0], counts[1],
        "process thread count must not grow with peers: {counts:?}"
    );
}

/// Every thread the runtime started (all of them are named `px-…`).
fn px_threads() -> Vec<String> {
    let mut names: Vec<String> = threads()
        .into_iter()
        .map(|(_, name)| name)
        .filter(|name| name.starts_with("px-"))
        .collect();
    names.sort();
    names
}

/// This process's threads: each one's `/proc` directory and name.
fn threads() -> Vec<(std::path::PathBuf, String)> {
    std::fs::read_dir("/proc/self/task")
        .expect("linux procfs")
        .filter_map(|t| {
            let task = t.ok()?.path();
            let name = std::fs::read_to_string(task.join("comm")).ok()?;
            Some((task, name.trim_end().to_string()))
        })
        .collect()
}

/// Voluntary context switches so far of this process's thread named
/// `name` — how often it blocked and was woken. The caller is a child
/// process that runs one runtime, so the name is unique.
fn voluntary_switches(name: &str) -> u64 {
    // A thread names itself once it runs, which may be after the
    // `spawn` that the runtime's `build` returned from.
    let t0 = Instant::now();
    let task = loop {
        if let Some((task, _)) = threads().into_iter().find(|(_, n)| n == name) {
            break task;
        }
        assert!(t0.elapsed() < BOUND, "no thread named {name}");
        std::thread::sleep(Duration::from_millis(1));
    };
    voluntary_switches_of(&task)
}

/// Voluntary context switches so far of the thread at `task`
/// (`/proc/self/task/<tid>`); 0 once it has exited.
fn voluntary_switches_of(task: &std::path::Path) -> u64 {
    let Ok(status) = std::fs::read_to_string(task.join("status")) else {
        return 0;
    };
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .expect("voluntary_ctxt_switches line");
    line.trim().parse().expect("a count")
}

/// How many times the thread named `name` wakes while the process does
/// nothing for 300 ms.
fn wakeups_while_idle(name: &str) -> u64 {
    let before = voluntary_switches(name);
    std::thread::sleep(Duration::from_millis(300));
    voluntary_switches(name) - before
}

/// "An idle mesh makes zero wakeups" (`net/tcp.rs`), with batching on:
/// the idle worker blocks in `epoll_wait`, untimed, until a socket or a
/// sender's kick has something for it — no timer ticks over the ports.
/// Measured in a child that runs nothing but rank 0 (`idle-tcp` mode).
#[test]
fn an_idle_batched_mesh_makes_no_wakeups() {
    let mut child = spawn_child_at("idle-tcp", &[], 0, Stdio::null());
    drop(child.stdin.take());
    assert!(
        child.wait().unwrap().success(),
        "idle check failed in the child (its panic is on stderr)"
    );
}

/// Body of the `idle-tcp` child: rank 0 of a live 2-rank batched mesh.
fn idle_as_rank_zero() {
    let (listener, addrs) = rank0(2);
    let mut peer = spawn_child("quiet", &addrs);
    let rt = build(batched_config(0, addrs), Some(listener));
    let fut = rt.new_future::<u64>(LocalityId(0));
    let to = Gid::locality_root(LocalityId(1));
    rt.send_action::<Square>(to, 5, Continuation::set(fut.gid()))
        .unwrap();
    assert_eq!(fut.wait_timeout(&rt, BOUND).unwrap(), Some(25));
    let woke = wakeups_while_idle("px-L0-w0");
    assert!(woke < 10, "the worker woke {woke} times in 300 idle ms");
    drop(peer.stdin.take());
    assert!(peer.wait().unwrap().success());
    rt.shutdown();
}

/// Idle is quiet in-process too: each locality's worker holds its loop,
/// and with nothing on its heap it parks untimed until a kick. And an
/// in-process runtime runs its workers and nothing else, whatever its
/// wire and with the balancer on. Here because the counts need a process
/// of their own (`idle-inproc` mode), like the thread counts above.
#[test]
fn an_idle_in_process_wire_makes_no_wakeups() {
    let mut child = spawn_child_at("idle-inproc", &[], 0, Stdio::null());
    drop(child.stdin.take());
    assert!(
        child.wait().unwrap().success(),
        "idle check failed in the child (its panic is on stderr)"
    );
}

/// Body of the `idle-inproc` child: a batched two-locality runtime over
/// a 5 µs wire, idle before its first parcel and again after it; then a
/// balanced one over a 50 µs wire, counting its threads.
fn idle_in_process() {
    let cfg = Config::small(2, 1)
        .with_latency(Duration::from_micros(5))
        .with_max_batch_parcels(16);
    let rt = build(cfg, None);
    // Thread start-up blocks a time or two (the allocator, the first
    // park): let it settle before the window opens.
    std::thread::sleep(Duration::from_millis(100));
    let workers = ["px-L0-w0", "px-L1-w0"];
    let quiet = |when: &str| {
        let woke = workers.map(wakeups_while_idle);
        assert!(woke.iter().all(|&w| w <= 1), "woke {woke:?} times {when}");
    };
    quiet("before any traffic");
    // One parcel in an otherwise empty port: locality 1's pass pulls it.
    let square = |rt: &Runtime| {
        let fut = rt.new_future::<u64>(LocalityId(0));
        let to = Gid::locality_root(LocalityId(1));
        rt.send_action::<Square>(to, 5, Continuation::set(fut.gid()))
            .unwrap();
        assert_eq!(fut.wait_timeout(rt, BOUND).unwrap(), Some(25));
    };
    square(&rt);
    assert!(rt.stats().total().batch_flush_pulled >= 1);
    quiet("after the ports emptied");
    rt.shutdown();
    let cfg = Config::small(2, 1).with_balance(BalanceConfig::adaptive());
    let rt = build(cfg.with_latency(Duration::from_micros(50)), None);
    square(&rt);
    // Counted after the round trip, which every thread took part in (a
    // thread names itself once it runs).
    assert_eq!(
        px_threads(),
        workers,
        "one worker per locality: neither the wire nor the balancer runs \
         a thread of its own"
    );
    rt.shutdown();
}

/// Closure spawns cannot cross the process boundary: they die loudly
/// (dead-letter + `dead_transport`) instead of hanging a queue nobody
/// drains.
#[test]
fn remote_closure_spawn_dies_loudly() {
    let (listener, addrs) = rank0(2);
    let mut child = spawn_child("serve", &addrs);
    let observed = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let seen = observed.clone();
    let mut cfg = Config::small(2, 1).with_tcp(0, addrs);
    cfg.wire = WireModel::instant();
    let rt = RuntimeBuilder::new(cfg)
        .tcp_listener(listener)
        .register::<Square>()
        .on_dead_letter(move |f| {
            if f.cause == FaultCause::Transport {
                seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        })
        .build()
        .unwrap();
    rt.spawn_at(LocalityId(1), |_| {
        unreachable!("closure must not run in another process");
    });
    let t0 = Instant::now();
    while observed.load(std::sync::atomic::Ordering::SeqCst) == 0 {
        assert!(t0.elapsed() < BOUND, "loud drop never reported");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(rt.stats().total().dead_transport >= 1);
    drop(child.stdin.take());
    let _ = child.wait();
    rt.shutdown();
}

/// `migrate_data` there and back in one process — create at locality
/// 0, migrate to 1, read the bytes back, migrate home, read again. The
/// split-phase protocol (install at dest → flip the home directory →
/// remove at source) keeps the object served at every instant, so
/// neither read can miss.
#[test]
fn migrate_data_round_trip_in_process() {
    let rt = build(Config::small(2, 1), None);
    let payload = vec![0xAB; 512];
    let gid = rt.new_data_at(LocalityId(0), payload.clone());

    // Outbound: locality 0 runs the move, locality 1 installs the bytes.
    rt.migrate_data(gid, LocalityId(1))
        .expect("outbound migration");
    assert_eq!(
        rt.read_data(gid).expect("remote read"),
        payload,
        "DATA_GET after the move"
    );

    // Inbound: the AGAS_MIGRATE chases to locality 1, which runs the same
    // protocol back toward the birthplace.
    rt.migrate_data(gid, LocalityId(0))
        .expect("inbound migration");
    assert_eq!(rt.read_data(gid).expect("local read"), payload);

    let stats = rt.stats();
    assert!(
        stats.migrations_manual >= 1,
        "locality 0 ran the outbound move: {}",
        stats.migrations_manual
    );
    rt.shutdown();
}

/// Driver-side RPCs (`read_data`, `migrate_data`) park their reply on a
/// fresh future at the origin locality; that future is freed once the
/// reply is taken, so a driver polling a remote object does not grow its
/// own store. Neither does the migration protocol it drives: the source's
/// install/update acks are one-shot reply futures too, freed when they
/// fire.
#[test]
fn reads_and_migrations_leave_the_origin_store_flat_in_process() {
    let rt = build(Config::small(2, 1), None);
    let payload = vec![0xC3; 64];
    let gid = rt.new_data_at(LocalityId(0), payload.clone());
    rt.migrate_data(gid, LocalityId(1))
        .expect("outbound migration");
    let objects = || rt.run_blocking(LocalityId(0), |ctx| ctx.locality().object_count());
    let before = objects();
    for _ in 0..1000 {
        assert_eq!(rt.read_data(gid).expect("remote read"), payload);
    }
    assert_eq!(objects(), before, "one reply future leaked per round trip");
    for _ in 0..200 {
        rt.migrate_data(gid, LocalityId(0)).expect("inbound leg");
        rt.migrate_data(gid, LocalityId(1)).expect("outbound leg");
    }
    assert_eq!(objects(), before, "one install ack leaked per outbound leg");
    rt.shutdown();
}

/// Soak, in one process: pxmark's `agas_mix` shape, `SOAK` times. A
/// client at either locality reads or writes a data object through its
/// own future and fills the driver's — three one-shot futures per
/// request, each freed by its one read — with a migration every 64. Once
/// the objects are sent home, every locality's `objects` gauge is back
/// where it began: the store holds what is in flight, not what has been.
#[test]
fn soak_in_process_accesses_leave_every_store_flat() {
    let rt = build(Config::small(2, 1), None);
    let home = |i: usize| LocalityId((i % 2) as u16);
    let objs: Vec<Gid> = (0..16)
        .map(|i| rt.new_data_at(home(i), vec![0; OBJECT_BYTES]))
        .collect();
    let initial = store_sizes(&rt);
    pipelined(&rt, SOAK, |i| {
        let o = i as usize % objs.len();
        if i % 64 == 63 {
            rt.migrate_data(objs[o], home(o + 1)).unwrap();
        }
        let fut = rt.new_future::<u64>(LocalityId(0));
        let write = (i % 10 == 0).then_some(i as u8);
        let client = Gid::locality_root(home(i as usize / 2));
        rt.send_action::<Access>(client, (objs[o], write, fut.gid()), Continuation::none())
            .unwrap();
        (fut, OBJECT_BYTES as u64)
    });
    for (o, &obj) in objs.iter().enumerate() {
        rt.migrate_data(obj, home(o)).unwrap();
    }
    assert_eq!(store_sizes(&rt), initial, "a locality's store grew");
    assert_eq!(rt.stats().total().dead_parcels, 0);
    rt.shutdown();
}

/// Process-scoped names are cluster-visible: the child registers a gid
/// under its own process's `/proc/...` prefix, and the parent resolves
/// the full path from the other rank — the local miss routes a
/// `__sys/name_lookup` to the process's home rank. An unbound name
/// under the same remote prefix faults loudly instead of hanging.
#[test]
fn process_scoped_names_resolve_across_ranks() {
    use std::io::BufRead;
    let (listener, addrs) = rank0(2);
    let mut child = spawn_child_at("names", &addrs, 1, Stdio::piped());
    let rt = build(rt_config(0, addrs, false, false, false), Some(listener));
    // The child is a libtest binary: its harness chatter shares stdout
    // (and even the same line — libtest prints `test ... ` without a
    // newline before running), so scan for the published `/proc/` path.
    let mut out = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    let published = loop {
        line.clear();
        assert!(
            out.read_line(&mut line).expect("child stdout readable") > 0,
            "child exited without publishing a name"
        );
        if let Some(i) = line.find("/proc/") {
            break line[i..].to_string();
        }
    };
    let mut parts = published.split_whitespace();
    let full = parts.next().expect("full name");
    let expect = Gid(u64::from_str_radix(parts.next().expect("gid hex"), 16).unwrap());
    assert!(full.starts_with("/proc/"), "process-scoped path: {full}");
    let got = rt.lookup_name(full).expect("name resolves from rank 0");
    assert_eq!(got, expect);
    assert_eq!(got.birthplace(), LocalityId(1), "bound at the child rank");
    let (prefix, _) = full.rsplit_once('/').expect("scoped path");
    match rt.lookup_name(&format!("{prefix}/absent")) {
        Err(PxError::Fault(f)) => assert_eq!(f.cause, FaultCause::HandlerError, "{f:?}"),
        other => panic!("unbound remote name must fault, got {other:?}"),
    }
    drop(child.stdin.take());
    assert!(child.wait().expect("join child").success());
    rt.shutdown();
}

/// Regression for the cross-rank migration deadlock: no lock is ever
/// held across an RTT, so concurrent migrations of the SAME object from
/// several driver threads — deliberately ping-ponging the object between
/// the two localities — all complete instead of wedging the scheduler,
/// and the object stays readable afterwards.
#[test]
fn concurrent_migrations_of_same_object_settle_in_process() {
    let rt = &build(Config::small(2, 1), None);
    let payload = b"contended".to_vec();
    let gid = rt.new_data_at(LocalityId(0), payload.clone());
    std::thread::scope(|s| {
        for t in 0..4u16 {
            s.spawn(move || {
                for i in 0..6u16 {
                    // Alternating destinations exercise the pin, the
                    // deferral queue, and the bounded chase at once.
                    let to = LocalityId((t + i) % 2);
                    match rt.migrate_data(gid, to) {
                        Ok(()) => {}
                        // A request that chased through too many
                        // mid-flight moves dies loudly at the hop cap
                        // instead of hanging — acceptable under this
                        // deliberately pathological contention.
                        Err(PxError::Fault(_)) => {}
                        Err(e) => panic!("unexpected error: {e:?}"),
                    }
                }
            });
        }
    });
    // The store settled: the object migrates home and reads clean.
    rt.migrate_data(gid, LocalityId(0)).expect("settle home");
    assert_eq!(
        rt.read_data(gid).expect("readable after the storm"),
        payload
    );
    rt.shutdown();
}

/// What only sockets show of a lost peer, across real OS processes: one
/// traced request replays end to end from both ranks — the send and its
/// network submission at rank 0, the receive and dispatch at rank 1 —
/// in causal order without comparing clocks; every leg of the move
/// protocol and a driver's read cross the socket both ways; then the
/// killed child is noticed by its EOF, a waiter on it faults as
/// `Transport`, so does a read of the object it held, and nothing dials
/// it or writes to it again.
#[test]
fn killed_peer_leaves_a_causally_ordered_cross_rank_trace() {
    let (listener, addrs) = rank0(2);
    let mut child = spawn_child("serve-trace", &addrs);
    let rt = build(rt_config(0, addrs, false, true, false), Some(listener));
    let root = Gid::locality_root(LocalityId(1));

    // One explicitly traced request, answered by the remote rank.
    let trace = rt.new_trace_id().expect("tracing is on");
    let fut = rt.new_future::<u64>(LocalityId(0));
    rt.send_action_traced::<Square>(root, 9, Continuation::set(fut.gid()), trace)
        .unwrap();
    assert_eq!(fut.wait_timeout(&rt, BOUND).unwrap(), Some(81));

    // Rank 1's slice of the trace, fetched in-band (an untraced action,
    // so the fetch does not pollute the timeline). Rank 1 recorded the
    // receive and the dispatch before it ran the request, so before the
    // reply left.
    let slice = rt.new_future::<Vec<TraceEvent>>(LocalityId(0));
    rt.send_action::<Slice>(root, trace, Continuation::set(slice.gid()))
        .unwrap();
    let remote = slice.wait_timeout(&rt, BOUND).unwrap().expect("a slice");
    assert!(
        remote.iter().all(|e| e.trace == trace && e.domain == 1),
        "the remote slice is rank 1's view of this trace: {remote:?}"
    );
    let merged = rt.trace_dump_for(trace).merge(TraceDump::new(remote));
    let pos = |kind: TraceEventKind, domain: u16| {
        let mut events = merged.events.iter();
        events.position(|e| e.kind == kind && e.domain == domain)
    };
    let submit0 = pos(TraceEventKind::NetSubmit, 0).expect("rank 0 recorded the submission");
    let recv1 = pos(TraceEventKind::NetRecv, 1).expect("rank 1 recorded the receive");
    let dispatch1 = pos(TraceEventKind::ParcelDispatch, 1).expect("rank 1 recorded the dispatch");
    assert!(
        submit0 < recv1 && recv1 < dispatch1,
        "send -> recv -> dispatch across the process boundary:\n{}",
        merged.render()
    );

    // While the owner lives, the move protocol's `__sys` kinds cross the
    // socket both ways: a move to rank 1, a driver's read there, a move
    // home that rank 1 runs, and back.
    let gid = rt.new_data_at(LocalityId(0), vec![7; 32]);
    rt.migrate_data(gid, LocalityId(1)).expect("outbound move");
    assert_eq!(rt.read_data(gid).expect("remote read"), vec![7; 32]);
    rt.migrate_data(gid, LocalityId(0)).expect("inbound move");
    rt.migrate_data(gid, LocalityId(1)).expect("outbound move");

    // Kill the peer and keep asking until its EOF is read here (a request
    // the kernel took before the peer died is lost without a diagnosis).
    child.kill().expect("kill child rank");
    let _ = child.wait();
    let ask = || {
        let fut = rt.new_future::<u64>(LocalityId(0));
        rt.send_action::<Square>(root, 7, Continuation::set(fut.gid()))
            .unwrap();
        rt.wait_future_timeout(fut, Duration::from_millis(200))
    };
    let deadline = Instant::now() + BOUND;
    let fault = loop {
        match ask() {
            Ok(_) => assert!(Instant::now() < deadline, "the EOF was never read"),
            Err(PxError::Fault(f)) => break f,
            Err(e) => panic!("unexpected error: {e:?}"),
        }
    };
    assert_eq!(fault.cause, FaultCause::Transport, "{fault}");
    // Lost for good: the next request dies before the socket, and the
    // vanished rank is never dialled again.
    let sent = rt.stats().transport.peers[0];
    assert!(matches!(ask(), Err(PxError::Fault(f)) if f.cause == FaultCause::Transport));
    let read = rt.read_data(gid);
    assert!(matches!(read, Err(PxError::Fault(f)) if f.cause == FaultCause::Transport));
    let peer = rt.stats().transport.peers[0];
    assert_eq!((peer.msgs_sent, peer.reconnects), (sent.msgs_sent, 0));
    rt.shutdown();
}

/// Send `CHUNKS` chunks from inside one task at `me` toward `peer`, and
/// wait until every one has been run there.
fn flood(rt: &Runtime, me: LocalityId, peer: LocalityId) {
    const CHUNKS: u64 = 128; // 8 MiB: twice the queue bound
    let done = rt.new_and_gate(me, CHUNKS);
    let args = (Gid::locality_root(peer), CHUNKS, done);
    rt.send_action::<Flood>(Gid::locality_root(me), args, Continuation::none())
        .unwrap();
    let done = FutureRef::<()>::from_gid(done);
    assert_eq!(
        done.wait_timeout(rt, BOUND).unwrap(),
        Some(()),
        "{me} flooded"
    );
}

/// A sender blocked on a peer's byte bound runs the loop itself: two
/// single-worker ranks each send 8 MiB to the other from inside one task.
/// Each task stops at the queue bound with nobody else to write its
/// queue or read the peer's bytes — its own passes do both.
#[test]
fn single_worker_ranks_flooding_each_other_both_complete() {
    let (listener, addrs) = rank0(2);
    let mut child = spawn_child("flood", &addrs);
    let rt = build(rt_config(0, addrs, false, false, false), Some(listener));
    flood(&rt, LocalityId(0), LocalityId(1));
    drop(child.stdin.take());
    assert!(child.wait().unwrap().success(), "rank 1's flood failed");
    assert_eq!(rt.stats().total().dead_parcels, 0);
    rt.shutdown();
}

/// The poller is attended whenever a worker is idle: on a two-worker
/// rank, while one worker runs a 300 ms task, the other takes the loop,
/// and a request to that rank is answered before the task ends.
#[test]
fn a_remote_request_is_answered_while_a_sibling_worker_is_busy() {
    let (listener, addrs) = rank0(2);
    let mut child = spawn_child("two-workers", &addrs);
    let rt = build(rt_config(0, addrs, false, false, false), Some(listener));
    let root = Gid::locality_root(LocalityId(1));
    let started = rt.new_future::<()>(LocalityId(0));
    let busy = rt.new_future::<u64>(LocalityId(0));
    let args = (300, Some(started.gid()));
    rt.send_action::<Busy>(root, args, Continuation::set(busy.gid()))
        .unwrap();
    // Sent from inside the busy task: the other worker wrote it.
    assert_eq!(started.wait_timeout(&rt, BOUND).unwrap(), Some(()));
    let square = rt.new_future::<u64>(LocalityId(0));
    rt.send_action::<Square>(root, 7, Continuation::set(square.gid()))
        .unwrap();
    assert_eq!(square.wait_timeout(&rt, BOUND).unwrap(), Some(49));
    assert_eq!(
        busy.wait_timeout(&rt, Duration::ZERO).unwrap(),
        None,
        "answered only once the busy task ended"
    );
    assert_eq!(busy.wait_timeout(&rt, BOUND).unwrap(), Some(300));
    drop(child.stdin.take());
    assert!(child.wait().unwrap().success());
    rt.shutdown();
}

/// What this side holds toward a peer that stops reading is bounded:
/// rank 1's only worker runs a 1 s task while rank 0 submits 64 MiB to
/// it. The queue and the write batch each stop at the byte bound, so the
/// high-watermark of both together reaches the bound (the sender blocked
/// there) and stays under two bounds and a message; afterwards every
/// chunk arrives.
#[test]
fn a_peer_that_stops_reading_is_held_to_two_byte_bounds() {
    /// `net::tcp`'s per-peer byte bound.
    const SEND_QUEUE_BYTES: u64 = 4 << 20;
    const CHUNKS: u64 = 1024; // 64 MiB
    let (listener, addrs) = rank0(2);
    let mut child = spawn_child("plain", &addrs);
    let rt = build(rt_config(0, addrs, false, false, false), Some(listener));
    let root = Gid::locality_root(LocalityId(1));
    rt.send_action::<Busy>(root, (1000, None), Continuation::none())
        .unwrap();
    let done = rt.new_and_gate(LocalityId(0), CHUNKS);
    for _ in 0..CHUNKS {
        rt.send_action::<Sink>(root, vec![0xA5; CHUNK], Continuation::set(done))
            .unwrap();
    }
    let done = FutureRef::<()>::from_gid(done);
    assert_eq!(done.wait_timeout(&rt, BOUND).unwrap(), Some(()));
    let hwm = rt.stats().transport.peers[0].queue_bytes_hwm;
    eprintln!("held at most {hwm} bytes toward the busy peer");
    let message = CHUNK as u64 + 64;
    assert!(
        (SEND_QUEUE_BYTES..=2 * SEND_QUEUE_BYTES + message).contains(&hwm),
        "held {hwm} bytes toward a peer that stopped reading"
    );
    drop(child.stdin.take());
    assert!(child.wait().unwrap().success());
    rt.shutdown();
}

/// Counts, not times: a request served by an idle TCP rank costs that
/// rank one block, in the poller, on the thread that then runs it. 2 000
/// serial requests, the serving rank's runtime threads' voluntary
/// context switches counted around them.
#[test]
fn a_served_request_costs_the_serving_rank_one_block() {
    const REQUESTS: u64 = 2_000;
    let (listener, addrs) = rank0(2);
    let mut child = spawn_child("switches", &addrs);
    let rt = build(batched_config(0, addrs), Some(listener));
    let root = Gid::locality_root(LocalityId(1));
    let ask = |n: u64| {
        let fut = rt.new_future::<u64>(LocalityId(0));
        rt.send_action::<Square>(root, n, Continuation::set(fut.gid()))
            .unwrap();
        assert_eq!(fut.wait_timeout(&rt, BOUND).unwrap(), Some(n * n));
    };
    let switches = || {
        let fut = rt.new_future::<u64>(LocalityId(0));
        rt.send_action::<Switches>(root, (), Continuation::set(fut.gid()))
            .unwrap();
        fut.wait_timeout(&rt, BOUND).unwrap().expect("a count")
    };
    (0..200).for_each(ask);
    let before = switches();
    (0..REQUESTS).for_each(ask);
    let per_request = (switches() - before) as f64 / REQUESTS as f64;
    eprintln!("serving rank: {per_request:.3} voluntary switches per request");
    assert!(
        per_request < 1.5,
        "{per_request:.3} blocks per served request"
    );
    drop(child.stdin.take());
    assert!(child.wait().unwrap().success());
    rt.shutdown();
}
