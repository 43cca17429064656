//! The TCP transport backend: localities as separate OS processes,
//! each rank's sockets **read and written by its own workers** — the
//! backend runs no thread.
//!
//! Each process owns exactly one locality (its *rank*) and peers with
//! every other over one plain TCP socket per pair. The byte protocol is
//! [`px_wire::stream`]: a fixed handshake (`magic ++ version ++
//! locality id ++ listen port`), then length-prefixed messages whose
//! bodies are parcel frames — the wire's one message shape, a port's or a
//! frame of one — in the checksummed version 2, so every parcel that
//! crosses a socket is covered by the frame's FNV-1a trailer. The
//! message kind names only the destination queue (`FRAME`,
//! `FRAME_STAGED`, `CONTROL`). The coalescing ports, batching policy, and
//! control-plane lane all sit above the `Transport` seam and work
//! unchanged.
//!
//! ## Thread model: zero transport threads, flat in peer count
//!
//! Every socket is nonblocking and registered with one epoll-based
//! poller ([`px_poll::Poller`] — vendored direct libc declarations, like
//! the other offline stand-ins). The listener, every peer's connection,
//! bootstrap connect retries and handshake deadlines are
//! multiplexed in one event loop (`io::IoLoop`), and the loop is a value,
//! not a thread: at most one thread at a time holds it (the own
//! locality's poller, `Sleep::try_poll`) and runs a *pass* — wait for
//! readiness, handle it, fire due timers (the loop's own, and the own
//! locality's heap: the balancer pulse), pull the ports and drain the
//! queues into writes. Retries are *timers* (poll timeouts), not
//! sleep-loops, and once the mesh is up nothing but a balancer is timed,
//! so an idle mesh makes zero wakeups, batched or not
//! (`an_idle_batched_mesh_makes_no_wakeups`). A 64-rank mesh costs this
//! process the same threads as a 2-rank mesh — none of the transport's
//! own (asserted by integration test).
//!
//! Who reads and writes, and when:
//!
//! * **Bootstrap and shutdown** run the loop on their caller's thread:
//!   `RuntimeBuilder::build` until the barrier below resolves, and the
//!   wire's teardown until what is queued is flushed or
//!   `SHUTDOWN_DRAIN` passes.
//! * **An idle worker.** A worker that finds no task takes the loop if
//!   nobody holds it and runs a nonblocking pass (pull, write, read); if
//!   that brings it nothing to run, it blocks in `epoll_wait` *as its
//!   park*. A frame that arrives is read, delivered and run by the thread
//!   the kernel woke, and the replies it sends leave in the pass before
//!   that worker parks again. The other idle workers park as usual; the
//!   holder gives the loop back before it runs what it read, and a worker
//!   that parked while the loop was held is woken to take it over, so it
//!   is attended whenever any worker is idle.
//! * **A busy worker** runs a nonblocking pass every 61 tasks
//!   (`sched::EVENT_INTERVAL`), so a rank that never runs dry still
//!   reads and writes.
//! * **A sender blocked on a peer's byte bound** (below) drives the loop
//!   itself when nobody holds it: it is what makes the room, and what
//!   reads the peer's bytes meanwhile — two single-worker ranks flooding
//!   each other from inside a task would otherwise wait on each other for
//!   good.
//!
//! A sender (a worker, the driver, the balancer) does not touch sockets:
//! `submit` appends to a per-peer `SendQueue` (control lane ahead of
//! data, bounded bytes for backpressure) and wakes the loop's holder
//! through the poller's eventfd on an empty→non-empty transition — or
//! skips the wake when nobody holds the loop, since whoever takes it next
//! pulls and drains before it blocks. A pass drains queues into a
//! [`px_wire::stream::WriteBatch`] per peer and ships it with **vectored
//! writes** (`write_vectored` over header/body slices) with explicit
//! partial-write carry-over — the kernel can cut a write mid-header or
//! mid-body and the batch resumes at exactly that byte (proptested in
//! `crates/wire/tests/write_proptest.rs`).
//!
//! Every pass also ships what the coalescing ports hold, so a batched
//! rank runs no thread for that and no timer: a sender whose record
//! lands in an empty port *kicks* (the same wake), and at the top of
//! every send pass the loop pulls both lanes' ports toward each peer into
//! that peer's queue — under the port lock, never waiting for one
//! (`PortSet::pull`) and never for room in a queue only it can drain.
//! Whatever gathered since the last pass rides one frame.
//!
//! ## Topology and bootstrap barrier
//!
//! The mesh keeps **one duplex connection per rank pair**, dialled by the
//! higher rank: rank `r` dials every rank below it and accepts from
//! every rank above it, and both directions of the pair's traffic share
//! that socket — same-peer traffic each way rides one ordered byte
//! stream. The loop keeps one state per peer that reads and writes it.
//!
//! Only rank 0's address is known in advance, and rank 0 keeps the
//! address table. Every other rank dials rank 0 at start, and its hello
//! (written by the dialer, first) says which port it listens on; rank 0
//! records the rank at the IP the connection came from and that port —
//! one rule, whatever address the rank bound. The acceptor reads exactly
//! the hello and writes none: it adopts the connection as that rank's
//! only if the rank is higher than its own and not connected yet, and
//! drops anything else unread. Once every rank has said hello, rank 0
//! writes each the table (`msg_kind::TABLE`, the first message on the
//! connection), and each rank dials every rank between 0 and itself. A
//! rank dials a peer once, when it learns the peer's address; so every
//! dial but the one to rank 0 targets a listener that is already bound,
//! and a rank that starts before rank 0 has bound is the only one that
//! waits out a connect retry.
//!
//! `TcpTransport::bootstrap` returns only once this process is connected
//! to every peer, every handshake byte (the hellos it writes, and on rank
//! 0 the tables) is flushed, and it has the table — so rank 0 has heard
//! every hello before any rank's `RuntimeBuilder::build` returns.
//! Connect attempts retry on a timer until `TcpConfig::bootstrap_timeout`
//! (peers boot in any order).
//!
//! ## Failure semantics
//!
//! **A lost connection is a dead peer.** Every way of noticing a loss —
//! EOF, a read or write error, a desynchronized stream — takes
//! `IoLoop::peer_lost`. It drops the socket and drains the write batch;
//! `TcpShared::lose` closes the peer's send queue and hands what both held
//! to the wire's one loss transition, `net::Wire::lose`, shared with the
//! in-process backend (the `net` contract's point 1): the dead-letter hook
//! hears of the peer once, and every parcel dies loudly as `Transport`,
//! its continuation faulted. From then on a parcel for the peer dies at
//! its sender; one that raced the loss into the closed queue is handed to
//! `lose` too. What the backend cannot read dies as `Decode`, through
//! `RuntimeInner::record_death`. With no runtime to tell — none bound
//! yet, or at teardown — `count_deaths` only counts, and no hook hears.
//!
//! The loop never re-dials, and never adopts a second connection for a
//! rank: whoever answers on a dead peer's address later, or dials in
//! claiming a rank already connected or dead, is not the process whose
//! state the queued parcels were addressed to, and is dropped unread;
//! rejoin-after-restart is membership, which the ROADMAP parks.
//!
//! Process accounting: activity tokens never cross an OS-process
//! boundary (see `route_parcel`), so a cross-rank parcel carries its
//! owning pid for cancellation context only; hierarchical quiescence
//! meters work within each process.
//!
//! What this backend **cannot** carry is a closure — closures do not
//! serialize. One spawned toward another rank dies once, as `Transport`,
//! in `RuntimeInner::send_task`, before the wire, and this backend is
//! never handed one; distributed work moves via action parcels, as the
//! model intends.

mod io;

use super::{for_each_record, Park, PortSet, Transport, WireMsg};
use crate::action::ActionId;
use crate::error::{FaultCause, PxError, PxResult};
use crate::gid::{Gid, LocalityId};
use crate::locality::{Lane, Locality};
use crate::parcel::Parcel;
use crate::runtime::RuntimeInner;
use crate::sched::{Task, Work};
use crate::stats::{Counter, PeerStats, TransportStats};
use parking_lot::{Condvar, Mutex};
use px_poll::Poller;
use px_wire::stream::msg_kind;
use std::collections::VecDeque;
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Per-peer outbound bound in bytes, twice over: a data-lane submit
/// toward a peer with this much already queued blocks until a pass of the
/// loop drains room — driving the loop itself when nobody else does — and
/// a pass moves no more data into the peer's write batch than this. A
/// peer that stops reading costs this side two bounds of memory, not
/// everything sent to it. The control lane is exempt: gossip must never
/// wait behind the backlog it reports.
const SEND_QUEUE_BYTES: usize = 4 * 1024 * 1024;

/// Configuration of the TCP backend: which locality this process *is*
/// and where rank 0 listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpConfig {
    /// The locality id owned by this OS process.
    pub rank: u16,
    /// Indexed by locality id; length must equal `Config::localities`.
    /// Two entries are read: `addrs[0]`, where rank 0 listens (every
    /// other rank dials it), and `addrs[rank]`, where this process binds
    /// (port 0 picks a free one) unless `RuntimeBuilder::tcp_listener`
    /// hands it a bound listener. Every other rank's address is learned
    /// at bootstrap, from rank 0's table.
    pub addrs: Vec<String>,
    /// How long `RuntimeBuilder::build` may wait for the full mesh
    /// (every peer connected, every handshake flushed) before failing
    /// loudly.
    pub bootstrap_timeout: Duration,
}

impl TcpConfig {
    /// Config for `rank` in a system whose rank 0 listens at `addrs[0]`
    /// (see [`TcpConfig::addrs`]; default 30 s bootstrap timeout).
    pub fn new(rank: u16, addrs: Vec<String>) -> TcpConfig {
        TcpConfig {
            rank,
            addrs,
            bootstrap_timeout: Duration::from_secs(30),
        }
    }
}

/// Send/receive counters for one peer.
#[derive(Default)]
struct PeerCounters {
    msgs_sent: Counter,
    bytes_sent: Counter,
    msgs_recv: Counter,
    bytes_recv: Counter,
}

/// One message queued toward a peer.
struct OutMsg {
    kind: u8,
    bytes: Vec<u8>,
    /// Submit-time stamp feeding the `NetRtt` instrument — `None` when
    /// metrics are off. Taken and read on this rank only (the stamp
    /// never crosses the wire).
    submitted: Option<Instant>,
}

/// Who is queueing a message toward a peer.
enum By {
    /// A sender thread: stamps the message now, waits for room on the
    /// data lane, wakes the loop's holder.
    Sender,
    /// A pass of the loop, pulling a port whose oldest record landed at
    /// the stamp. It is what makes room, so it never waits for any, and
    /// it needs no wake.
    Puller(Option<Instant>),
}

/// The submit-side half of a peer: two queue lanes plus backpressure
/// accounting, drained by the loop's passes.
#[derive(Default)]
struct SendQueue {
    /// Control lane: drained ahead of data, never backpressured.
    control: VecDeque<OutMsg>,
    /// Data lane: frames, in submission order.
    data: VecDeque<OutMsg>,
    /// Bytes across both lanes (bodies only; headers are a fixed tax).
    queued_bytes: usize,
    /// High-watermark of `queued_bytes` plus the write batch's unwritten
    /// bytes: all this side holds toward the peer (backpressure
    /// visibility).
    bytes_hwm: u64,
    /// Closed: peer lost or transport shutting down. Submits must not
    /// enqueue — the closing code drained the queues already.
    closed: bool,
}

/// Per-peer send state shared between submitters and the loop.
struct PeerSlot {
    queue: Mutex<SendQueue>,
    /// Signalled when a pass drains room (or the queue closes).
    room: Condvar,
    /// The write batch's unwritten bytes as the loop last left them, for
    /// `bytes_hwm`.
    unwritten: AtomicUsize,
    counters: PeerCounters,
}

impl PeerSlot {
    fn set_unwritten(&self, bytes: usize) {
        // Relaxed: a gauge for the high-watermark; it publishes nothing.
        self.unwritten.store(bytes, Ordering::Relaxed);
    }
}

/// State shared between submitters and the loop.
struct TcpShared {
    rank: u16,
    localities: Arc<Vec<Arc<Locality>>>,
    /// Indexed by locality id; `None` at `rank` (no self-peering).
    peers: Vec<Option<PeerSlot>>,
    /// Late-bound runtime for fault delivery.
    rt: OnceLock<Weak<RuntimeInner>>,
    shutting_down: AtomicBool,
    /// The loop's poller; a thread that does not hold the loop only
    /// `wake`s it.
    poller: Arc<Poller>,
    /// The event loop, run by whoever holds the own locality's poller
    /// (`Sleep::try_poll`); taken out at shutdown.
    io: Mutex<Option<io::IoLoop>>,
    /// The wire's coalescing ports, when it batches: every pass pulls
    /// them (see [`TcpShared::pull_ports`]).
    ports: Option<Arc<PortSet>>,
}

impl TcpShared {
    #[inline]
    fn own(&self) -> &Arc<Locality> {
        &self.localities[self.rank as usize]
    }

    #[inline]
    fn peer(&self, id: u16) -> &PeerSlot {
        self.peers[id as usize]
            .as_ref()
            .expect("peer slot exists for every non-self locality")
    }

    fn rt(&self) -> Option<Arc<RuntimeInner>> {
        self.rt.get().and_then(Weak::upgrade)
    }

    /// Deliver a received stream message — a frame — into the own
    /// locality's queue its kind names, honoring the control-plane
    /// priority lane.
    fn deliver_local(&self, kind: u8, body: Vec<u8>) {
        let lane = match kind {
            msg_kind::FRAME => Lane::Run,
            msg_kind::FRAME_STAGED => Lane::Staged,
            msg_kind::CONTROL => Lane::Control,
            // StreamAssembler rejects kinds past `msg_kind::MAX`; what is
            // left is a reserved kind — a bare parcel from a peer of
            // another version — which no frame parse can read.
            _ => return self.decode_death(format!("reserved stream message kind {kind}")),
        };
        self.own().deliver(lane, Task::new(Work::ParcelFrame(body)));
    }

    /// Record a transport trace event for every traced parcel record
    /// inside one stream message. Gated on the owned locality having a
    /// trace ring, so the untraced path pays one pointer check; a frame
    /// is walked only when tracing is live, reusing the record
    /// boundaries the frame already carries — no parcel decode.
    fn trace_stream_msg(
        &self,
        kind: crate::trace::TraceEventKind,
        msg: u8,
        body: &[u8],
        peer: u16,
    ) {
        let loc = self.own();
        // Gossip is never traced.
        if loc.trace.is_none() || msg == msg_kind::CONTROL {
            return;
        }
        for_each_record(body, |rec| {
            if let Ok(rec) = rec {
                trace_record(loc, kind, rec, peer);
            }
        });
    }

    fn submit(&self, msg: WireMsg) {
        if self.shutting_down.load(Ordering::Acquire) {
            return;
        }
        match msg {
            WireMsg::Frame { dest, lane, bytes } => {
                self.send_to_peer(dest, frame_kind(lane), bytes, By::Sender);
            }
            WireMsg::Task { .. } => unreachable!(
                "RuntimeInner::send_task runs a closure for this rank itself \
                 and kills one bound for another rank before the wire"
            ),
        }
    }

    /// A pass's pull: move whatever the coalescing ports toward `dest`
    /// hold into its send queue, ahead of the drain that follows.
    /// Returns `false` when a port was held by a sender and skipped.
    fn pull_ports(&self, dest: LocalityId) -> bool {
        let Some(ports) = &self.ports else {
            return true;
        };
        let dest_loc = &self.localities[dest.0 as usize];
        ports.pull(dest, dest_loc, |lane, bytes, opened_at| {
            self.send_to_peer(dest, frame_kind(lane), bytes, By::Puller(opened_at));
        })
    }

    /// Queue one message toward `dest` and, from a sender, wake the
    /// loop's holder. A sender's data-lane message blocks while the
    /// peer's queue is at its byte bound; the control lane and a pass's
    /// own pulls never do.
    fn send_to_peer(&self, dest: LocalityId, kind: u8, bytes: Vec<u8>, by: By) {
        // Submission intent is recorded before the closed check: a message
        // that raced the peer's loss shows NetSubmit followed by its
        // NetFault.
        self.trace_stream_msg(
            crate::trace::TraceEventKind::NetSubmit,
            kind,
            &bytes,
            dest.0,
        );
        let slot = self.peer(dest.0);
        let control = kind == msg_kind::CONTROL;
        // Stamped before the backpressure wait so NetRtt charges the
        // full submit→drain latency, including time spent blocked on a
        // slow peer's queue bound — and, for a pulled frame, the time its
        // oldest record spent in the port.
        let (submitted, from_sender) = match by {
            By::Sender => (self.own().metrics_now(), true),
            By::Puller(opened_at) => (opened_at, false),
        };
        let full = |q: &SendQueue| !q.closed && q.queued_bytes >= SEND_QUEUE_BYTES;
        let was_empty = loop {
            let mut q = slot.queue.lock();
            if from_sender && !control && full(&q) {
                drop(q);
                // This thread is the one that makes room when nobody runs
                // the loop (a rank whose workers are all busy, this one
                // included): drive it until there is room. Otherwise wait
                // for whoever does.
                let room = || !full(&slot.queue.lock());
                let drove = self.drive(Some(&mut |wait| {
                    if !room() {
                        wait();
                    }
                }));
                if !drove {
                    let mut q = slot.queue.lock();
                    if full(&q) {
                        slot.room.wait_for(&mut q, Duration::from_millis(100));
                    }
                }
                continue;
            }
            if q.closed {
                // The peer was lost (or shutdown raced) after the wire's
                // check: the closer already drained the queues, so this
                // message is ours to hand to the loss (silently dropped
                // during shutdown — teardown races stay benign).
                drop(q);
                if !self.shutting_down.load(Ordering::Acquire) {
                    self.lose(dest.0, "send queue closed", vec![bytes]);
                }
                return;
            }
            let was_empty = q.control.is_empty() && q.data.is_empty();
            q.queued_bytes += bytes.len();
            // Relaxed: the gauge the loop keeps for this high-watermark.
            let held = q.queued_bytes + slot.unwritten.load(Ordering::Relaxed);
            q.bytes_hwm = q.bytes_hwm.max(held as u64);
            let lane = if control { &mut q.control } else { &mut q.data };
            lane.push_back(OutMsg {
                kind,
                bytes,
                submitted,
            });
            break was_empty;
        };
        // One wake per empty→non-empty transition, not per message: a
        // pass drains whole queues, so a non-empty queue already has a
        // wake in flight (the eventfd coalesces) or is being drained
        // under this same lock right now.
        if was_empty && from_sender {
            // With nobody holding the loop there is nobody to wake:
            // whoever takes it next pulls and drains before it blocks.
            self.own().sleep.kick();
        }
    }

    /// [`Transport::drive`]. The own locality's poller says who holds the
    /// loop; giving it back (the guard's drop, after the loop's lock's)
    /// hands it over to a worker that parked while it was held.
    fn drive(&self, park: Option<Park<'_>>) -> bool {
        let Some(_held) = self.own().sleep.try_poll() else {
            return false;
        };
        let mut io = self
            .io
            .try_lock()
            .expect("holding the poller is holding the loop");
        let Some(io) = io.as_mut() else {
            return false; // shut down
        };
        io.drive(park);
        true
    }

    /// `peer` is lost, and `frames` were bound for it. Close its send
    /// queue — no submit slips in after — and release blocked submitters;
    /// then hand `frames` and what the queue held to the wire's loss
    /// transition (`Wire::lose`), or with no runtime to tell (none bound,
    /// or teardown) only count their records.
    fn lose(&self, peer: u16, why: &str, mut frames: Vec<Vec<u8>>) {
        let slot = self.peer(peer);
        {
            let q = &mut *slot.queue.lock();
            (q.closed, q.queued_bytes) = (true, 0);
            frames.extend(q.control.drain(..).chain(q.data.drain(..)).map(|m| m.bytes));
        }
        slot.room.notify_all();
        match self
            .rt()
            .filter(|_| !self.shutting_down.load(Ordering::Acquire))
        {
            Some(rt) => rt.wire.lose(&rt, LocalityId(peer), why, frames),
            None => {
                let mut records = 0;
                frames
                    .iter()
                    .for_each(|f| for_each_record(f, |_| records += 1));
                self.count_deaths(FaultCause::Transport, records);
            }
        }
    }

    /// The death of a stream message this backend cannot read — a
    /// reserved kind, a desynchronized stream — as `Decode`: recorded by
    /// the bound runtime, or only counted without one.
    fn decode_death(&self, why: String) {
        match self.rt() {
            Some(rt) => {
                let root = Gid::locality_root(LocalityId(self.rank));
                rt.record_death(self.own(), root, ActionId(0), FaultCause::Decode, why, None);
            }
            None => self.count_deaths(FaultCause::Decode, 1),
        }
    }

    /// Count `n` deaths of `cause` at the own locality, and nothing more:
    /// the one death px-core counts outside `RuntimeInner::record_death`,
    /// for when there is no runtime to tell — none bound (a bare
    /// transport, or the bootstrap before the build binds one), or
    /// teardown, when the scheduler may be gone. No hook hears of these
    /// deaths and no continuation is faulted.
    fn count_deaths(&self, cause: FaultCause, n: u64) {
        self.own().counters().count_death(cause, n);
    }
}

/// The stream message kind of a frame bound for `lane`.
fn frame_kind(lane: Lane) -> u8 {
    match lane {
        Lane::Run => msg_kind::FRAME,
        Lane::Staged => msg_kind::FRAME_STAGED,
        Lane::Control => msg_kind::CONTROL,
    }
}

/// Record one transport event for a single encoded parcel record, if the
/// record carries a trace id. The destination gid doubles as the event's
/// subject; `aux` names the peer rank on the far side of the hop.
fn trace_record(loc: &Locality, kind: crate::trace::TraceEventKind, bytes: &[u8], peer: u16) {
    if let Some(t) = Parcel::peek_trace(bytes) {
        let dest = bytes
            .get(..8)
            .map_or(0, |b| u64::from_le_bytes(b.try_into().expect("8 bytes")));
        loc.trace_event(Some(t), kind, dest, u64::from(peer));
    }
}

/// The socket-backed `Transport`. Built by
/// `TcpTransport::bootstrap`; see the module docs for the thread model
/// and failure semantics.
pub(crate) struct TcpTransport {
    shared: Arc<TcpShared>,
}

/// Bind `cfg.addrs[cfg.rank]`: this rank's listener, when the caller
/// did not hand one in.
pub(crate) fn bind(cfg: &TcpConfig) -> PxResult<TcpListener> {
    let at = &cfg.addrs[cfg.rank as usize];
    TcpListener::bind(at).map_err(|e| PxError::BadConfig(format!("tcp: bind {at}: {e}")))
}

impl TcpTransport {
    /// Run the event loop on this thread, listening on `listener`,
    /// until the full mesh exists (see the module docs' bootstrap
    /// barrier). Fails loudly after
    /// `cfg.bootstrap_timeout`. Every pass pulls `ports`.
    pub(crate) fn bootstrap(
        cfg: &TcpConfig,
        listener: TcpListener,
        localities: Arc<Vec<Arc<Locality>>>,
        ports: Option<Arc<PortSet>>,
    ) -> PxResult<TcpTransport> {
        let n = localities.len();
        let rank = cfg.rank;
        let own = (listener.local_addr())
            .map_err(|e| PxError::BadConfig(format!("tcp: listener address: {e}")))?;
        let rank0 = match rank {
            0 => own,
            _ => {
                let addr = &cfg.addrs[0];
                (addr.to_socket_addrs())
                    .map_err(|e| PxError::BadConfig(format!("tcp: resolve {addr}: {e}")))?
                    .next()
                    .ok_or_else(|| PxError::BadConfig(format!("tcp: {addr} resolves to nothing")))?
            }
        };
        listener
            .set_nonblocking(true)
            .map_err(|e| PxError::BadConfig(format!("tcp: nonblocking listener: {e}")))?;
        let poller =
            Poller::new().map_err(|e| PxError::BadConfig(format!("tcp: readiness poller: {e}")))?;

        let peers: Vec<Option<PeerSlot>> = (0..n as u16)
            .map(|j| {
                (j != rank).then(|| PeerSlot {
                    queue: Mutex::new(SendQueue::default()),
                    room: Condvar::new(),
                    unwritten: AtomicUsize::new(0),
                    counters: PeerCounters::default(),
                })
            })
            .collect();
        let shared = Arc::new(TcpShared {
            rank,
            localities,
            peers,
            rt: OnceLock::new(),
            shutting_down: AtomicBool::new(false),
            poller: Arc::new(poller),
            io: Mutex::new(None),
            ports,
        });
        // The rank's idle workers run the loop; one parked in it is woken
        // through the poller.
        let poller = shared.poller.clone();
        shared.own().sleep.drive_poller(move || poller.wake());
        let deadline = Instant::now() + cfg.bootstrap_timeout;
        let mut io = io::IoLoop::new(shared.clone(), listener, own.port(), rank0, deadline);
        let barrier = io.bootstrap();
        *shared.io.lock() = Some(io);
        let mut transport = TcpTransport { shared };
        match barrier {
            Ok(()) => Ok(transport),
            Err(why) => {
                transport.shutdown();
                Err(PxError::BadConfig(why))
            }
        }
    }
}

impl Transport for TcpTransport {
    fn submit(&self, msg: WireMsg) {
        self.shared.submit(msg);
    }

    fn bind(&self, rt: &Arc<RuntimeInner>) {
        let _ = self.shared.rt.set(Arc::downgrade(rt));
    }

    fn transport_stats(&self) -> TransportStats {
        TransportStats {
            peers: self
                .shared
                .peers
                .iter()
                .enumerate()
                .filter_map(|(id, slot)| {
                    let slot = slot.as_ref()?;
                    let c = &slot.counters;
                    let (depth, bytes_hwm) = {
                        let q = slot.queue.lock();
                        ((q.control.len() + q.data.len()) as u64, q.bytes_hwm)
                    };
                    Some(PeerStats {
                        peer: id as u16,
                        msgs_sent: c.msgs_sent.get(),
                        bytes_sent: c.bytes_sent.get(),
                        msgs_recv: c.msgs_recv.get(),
                        bytes_recv: c.bytes_recv.get(),
                        reconnects: 0,
                        queue_depth: depth,
                        queue_bytes_hwm: bytes_hwm,
                    })
                })
                .collect(),
        }
    }

    fn drive(&self, _at: LocalityId, park: Option<Park<'_>>) -> bool {
        self.shared.drive(park)
    }

    fn shutdown(&mut self) {
        let sh = &self.shared;
        sh.shutting_down.store(true, Ordering::Release);
        // Close the queues so blocked submitters exit; messages already
        // queued are drained below, before this returns.
        for slot in sh.peers.iter().flatten() {
            slot.queue.lock().closed = true;
            slot.room.notify_all();
        }
        // The drain runs on this thread. Only a sender just let out of
        // its backpressure wait can still hold the loop: wake it and wait
        // for it to let go.
        let held = loop {
            if let Some(held) = sh.own().sleep.try_poll() {
                break held;
            }
            sh.poller.wake();
            std::thread::yield_now();
        };
        let io = sh
            .io
            .try_lock()
            .expect("holding the poller is holding the loop")
            .take();
        drop(held);
        if let Some(io) = io {
            io.shut_down();
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Value;
    use crate::error::Fault;
    use crate::parcel::Continuation;

    fn test_localities(n: usize) -> Arc<Vec<Arc<Locality>>> {
        Arc::new(
            (0..n)
                .map(|i| Arc::new(Locality::new(LocalityId(i as u16), false, n)))
                .collect(),
        )
    }

    /// `n` loopback listeners, on ports the kernel picks.
    fn loopback(n: usize) -> Vec<TcpListener> {
        (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect()
    }

    /// Boot a mesh in this process, rank `i` listening on `listeners[i]`
    /// and told only rank 0's address: rank 0 — pulling `ports` — on this
    /// thread, every other rank on a thread of its own, joined before
    /// this returns.
    fn boot(listeners: Vec<TcpListener>, ports: Option<Arc<PortSet>>) -> Vec<TcpTransport> {
        let n = listeners.len();
        let addrs = vec![listeners[0].local_addr().unwrap().to_string(); n];
        let mut listeners = listeners.into_iter().enumerate();
        let (_, rank0) = listeners.next().unwrap();
        let others: Vec<_> = listeners
            .map(|(rank, listener)| {
                let cfg = TcpConfig::new(rank as u16, addrs.clone());
                std::thread::spawn(move || {
                    TcpTransport::bootstrap(&cfg, listener, test_localities(n), None).unwrap()
                })
            })
            .collect();
        let cfg = TcpConfig::new(0, addrs);
        let rank0 = TcpTransport::bootstrap(&cfg, rank0, test_localities(n), ports);
        let mut mesh = vec![rank0.unwrap()];
        mesh.extend(others.into_iter().map(|h| h.join().unwrap()));
        mesh
    }

    fn pair(
        listeners: Vec<TcpListener>,
        ports: Option<Arc<PortSet>>,
    ) -> (TcpTransport, TcpTransport, Arc<Vec<Arc<Locality>>>) {
        let mut mesh = boot(listeners, ports);
        let b = mesh.pop().expect("rank 1");
        let locs_b = b.shared.localities.clone();
        (mesh.pop().expect("rank 0"), b, locs_b)
    }

    /// True once `t` has lost `peer`: its send queue is closed.
    fn lost(t: &TcpTransport, peer: u16) -> bool {
        t.shared.peer(peer).queue.lock().closed
    }

    /// The locality a test drives: over TCP a rank drives its own loop,
    /// whichever it names.
    const HERE: LocalityId = LocalityId(0);

    fn noop_parcel(dest: LocalityId) -> Parcel {
        Parcel::new(
            Gid::locality_root(dest),
            crate::sys::NOOP,
            Value::unit(),
            Continuation::none(),
        )
    }

    /// A noop parcel toward `dest` in a checksummed frame of one: what the
    /// wire submits for a parcel sent on its own.
    fn noop_frame(dest: LocalityId) -> Vec<u8> {
        let p = noop_parcel(dest);
        let version = px_wire::FRAME_VERSION_CHECKSUM;
        px_wire::FrameBuf::of_one(version, p.wire_size(), |w| p.encode_into(w))
    }

    /// Submit a noop frame of one toward `dest`'s `lane`.
    fn send(t: &TcpTransport, dest: LocalityId, lane: Lane) {
        let bytes = noop_frame(dest);
        t.submit(WireMsg::Frame { dest, lane, bytes });
    }

    /// Poll until `poll` answers, running a nonblocking pass of each of
    /// `drive`'s loops from this thread first each time — the call an
    /// idle worker makes, without the park.
    fn wait_for<T>(drive: &[&dyn Transport], mut poll: impl FnMut() -> Option<T>, what: &str) -> T {
        let t0 = Instant::now();
        loop {
            for t in drive {
                t.drive(HERE, None);
            }
            if let Some(v) = poll() {
                return v;
            }
            assert!(t0.elapsed() < Duration::from_secs(10), "timed out: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn mesh_delivers_frames_on_every_lane() {
        let (a, mut b, locs_b) = pair(loopback(2), None);
        let dest = LocalityId(1);
        send(&a, dest, Lane::Run);
        let mut frame = px_wire::FrameBuf::with_version(px_wire::FRAME_VERSION_CHECKSUM);
        frame.push_record(&noop_parcel(dest).encode());
        frame.push_record(&noop_parcel(dest).encode());
        let (lane, bytes) = (Lane::Run, frame.take());
        a.submit(WireMsg::Frame { dest, lane, bytes });
        send(&a, dest, Lane::Control);
        send(&a, dest, Lane::Staged);
        // Each lane's queue gets its own: the frame of one and the
        // two-record frame on the general queue, the control frame on the
        // control queue (no balance state on the test locality — the lane
        // does not need one).
        let own = &locs_b[1];
        let mut records = 0usize;
        let mut tasks = 0usize;
        let both: [&dyn Transport; 2] = [&a, &b];
        wait_for(
            &both,
            || {
                while let Some(t) = own.injector.steal() {
                    tasks += 1;
                    records += t.parcel_records();
                }
                (tasks >= 2 && records >= 3).then_some(())
            },
            "general-queue messages",
        );
        assert_eq!(tasks, 2, "frame of one + frame of two");
        assert_eq!(records, 3, "1 + 2 records");
        let control = wait_for(&both, || own.control.steal(), "control frame");
        assert_eq!(control.parcel_records(), 1);
        wait_for(&both, || own.staging.steal().map(drop), "staged frame");
        let stats = a.transport_stats();
        let p1 = stats.peers.iter().find(|p| p.peer == 1).unwrap();
        assert_eq!(p1.msgs_sent, 4);
        assert!(p1.bytes_sent > 0);
        assert!(p1.queue_bytes_hwm > 0, "messages were queued");
        // Receive-side counters live on B.
        let bstats = b.transport_stats();
        let p0 = bstats.peers.iter().find(|p| p.peer == 0).unwrap();
        assert_eq!((p0.msgs_recv, p0.reconnects), (4, 0));
        b.shutdown();
        drop(a);
    }

    /// After rank 0 goes away, rank 1 — the rank that dialled it — must
    /// not find whoever listens at its address: the peer is dead, nothing
    /// dials, and every later submission dies loudly instead of landing in
    /// a stranger's socket. The impostor is rank 0's own listening socket,
    /// kept open past rank 0's shutdown, so no other process can take the
    /// port meanwhile.
    #[test]
    fn a_lost_connection_is_a_dead_peer() {
        let listeners = loopback(2);
        let impostor = listeners[0].try_clone().unwrap();
        let (mut a, b, _locs_b) = pair(listeners, None);
        a.shutdown();
        drop(a);
        impostor.set_nonblocking(true).unwrap();
        wait_for(
            &[&b],
            || lost(&b, 0).then_some(()),
            "rank 1 to declare rank 0 dead",
        );
        let own = b.shared.own();
        let dead_transport = || own.stats().dead_transport;
        let before = dead_transport();
        for _ in 0..50 {
            send(&b, LocalityId(0), Lane::Run);
        }
        assert_eq!(dead_transport() - before, 50, "each dies loudly");
        let t0 = Instant::now();
        while t0.elapsed() < 10 * io::CONNECT_RETRY {
            b.drive(HERE, None);
            assert!(impostor.accept().is_err(), "rank 1 dialled a dead peer");
            std::thread::sleep(Duration::from_millis(1));
        }
        let p0 = b.transport_stats().peers[0];
        assert_eq!((p0.reconnects, p0.msgs_sent), (0, 0));
    }

    /// Same-peer submission order holds across the two ways a frame
    /// leaves a port: a sender's `Full` flush and a pass's pull both hand
    /// the frame to the peer's queue under the port lock. A cap of 4,
    /// 20 000 numbered parcels from one sender, and a pause every 1 001 —
    /// no multiple of the cap, so what is left in the port can only
    /// leave by a pull. The order is read where the contract promises it,
    /// off the destination's queue (a worker's batch-steal runs what it
    /// takes newest first).
    #[test]
    fn full_flushes_and_pulls_keep_submission_order() {
        use crate::net::Wire;
        const N: u64 = 20_000;
        let ports = PortSet::new(4, 2, px_wire::FRAME_VERSION_CHECKSUM);
        let (a, mut b, locs_b) = pair(loopback(2), ports.clone());
        let locs_a = a.shared.localities.clone();
        let version = px_wire::FRAME_VERSION_CHECKSUM;
        let mut wire = Wire::new(Arc::new(a), locs_a.clone(), ports, version, Some(HERE));
        let dest = LocalityId(1);
        let mut next = 0u64;
        let mut arrived_through = |sent: u64| {
            wait_for(
                &[&b],
                || {
                    wire.drive(HERE, None);
                    while let Some(task) = locs_b[1].injector.steal() {
                        let frame = task.frame_bytes().expect("batched: frames only");
                        let view = px_wire::FrameView::parse(frame).expect("intact frame");
                        for rec in view.records() {
                            let p = Parcel::decode(rec.expect("intact record")).unwrap();
                            assert_eq!(p.payload.decode::<u64>().unwrap(), next);
                            next += 1;
                        }
                    }
                    (next == sent).then_some(())
                },
                "every parcel sent so far",
            );
        };
        for n in 0..N {
            let payload = Value::encode(&n).unwrap();
            let p = Parcel::new(
                Gid::locality_root(dest),
                crate::sys::NOOP,
                payload,
                Continuation::none(),
            );
            wire.send_parcel(HERE, dest, Lane::Run, p);
            if n % 1001 == 1000 {
                arrived_through(n + 1);
            }
        }
        arrived_through(N);
        let sent = locs_a[1].stats();
        let (full, pulled) = (sent.batch_flush_full, sent.batch_flush_pulled);
        assert!(full > 0 && pulled > 0, "{full} full, {pulled} pulled");
        wire.shutdown();
        b.shutdown();
    }

    /// The puller never waits on its own queue, and a sender blocked on
    /// the bound runs the loop itself when nobody else does. With a
    /// peer's queue at its byte bound a sender blocks; a pass's side of
    /// `send_to_peer` must not — it is what makes the room — and the
    /// blocked sender's own passes write what was queued.
    #[test]
    fn the_puller_never_waits_on_the_queue_it_drains() {
        let (a, mut b, _locs_b) = pair(loopback(2), None);
        let shared = a.shared.clone();
        let dest = LocalityId(1);
        // Full by the books while holding nothing: a drain subtracts only
        // what it moves.
        shared.peer(1).queue.lock().queued_bytes = SEND_QUEUE_BYTES;
        let t0 = Instant::now();
        let bytes = noop_frame(dest);
        shared.send_to_peer(dest, msg_kind::FRAME, bytes, By::Puller(None));
        // A blocked sender never gives up.
        assert!(
            t0.elapsed() < Duration::from_millis(50),
            "the puller waited"
        );
        let sender = std::thread::spawn({
            let shared = shared.clone();
            move || shared.send_to_peer(dest, msg_kind::FRAME, noop_frame(dest), By::Sender)
        });
        // Nobody else runs rank 0's loop: the blocked sender does, and its
        // pass writes the pulled message.
        wait_for(
            &[&b],
            || (b.transport_stats().peers[0].msgs_recv == 1).then_some(()),
            "the pulled message",
        );
        std::thread::sleep(Duration::from_millis(100));
        assert!(!sender.is_finished(), "a sender passed a full queue");
        assert!(
            !shared.own().sleep.poller_free(),
            "the blocked sender runs the loop"
        );
        // Make the room the books withheld, and wake the sender out of the
        // loop's wait.
        shared.peer(1).queue.lock().queued_bytes -= SEND_QUEUE_BYTES;
        shared.poller.wake();
        wait_for(
            &[],
            || sender.is_finished().then_some(()),
            "the blocked sender",
        );
        sender.join().unwrap();
        wait_for(
            &[&a, &b],
            || (b.transport_stats().peers[0].msgs_recv == 2).then_some(()),
            "both messages",
        );
        b.shutdown();
        drop(a);
    }

    /// Rank 0 reads no address: nobody dials it, so it waits out the
    /// barrier's deadline.
    #[test]
    fn bootstrap_times_out_without_peer() {
        let mut cfg = TcpConfig::new(0, vec![String::new(); 2]);
        cfg.bootstrap_timeout = Duration::from_millis(300);
        let locs = test_localities(2);
        let Err(err) = TcpTransport::bootstrap(&cfg, loopback(1).remove(0), locs, None) else {
            panic!("bootstrap without a peer must time out");
        };
        assert!(matches!(err, PxError::BadConfig(_)));
    }

    /// The TCP backend starts no thread: a rank's sockets are read and
    /// written by whoever runs its loop — the bootstrapping thread, then
    /// the workers — however many peers the mesh has. And it opens one
    /// connection per rank pair: a socket per listener, and two ends per
    /// pair.
    ///
    /// `/proc/self/task` is process-wide and sibling tests run transports
    /// of their own, so the count is taken in a child: this test binary
    /// re-executed with only this test selected.
    #[test]
    fn the_tcp_backend_starts_no_thread() {
        const IN_CHILD: &str = "PX_TCP_THREAD_COUNT_CHILD";
        if std::env::var_os(IN_CHILD).is_none() {
            let status = std::process::Command::new(std::env::current_exe().unwrap())
                .args([
                    "net::tcp::tests::the_tcp_backend_starts_no_thread",
                    "--exact",
                    "--nocapture",
                ])
                .env(IN_CHILD, "1")
                .stdout(std::process::Stdio::null())
                .status()
                .expect("re-execute the test binary");
            assert!(status.success(), "thread count check failed in the child");
            return;
        }
        let threads = || {
            std::fs::read_dir("/proc/self/task")
                .expect("linux procfs")
                .count()
        };
        let sockets = || {
            let fds = std::fs::read_dir("/proc/self/fd").expect("linux procfs");
            let fds = fds.filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok());
            fds.filter(|to| to.to_string_lossy().starts_with("socket:"))
                .count()
        };
        let (before, sockets_before) = (threads(), sockets());
        // A 4-rank mesh, all in this process: each rank bootstraps on a
        // thread of this test's own, joined before the count.
        let n = 4;
        let transports = boot(loopback(n), None);
        // Traffic on every connection, carried by this thread's passes.
        for (i, t) in transports.iter().enumerate() {
            for j in (0..n).filter(|&j| j != i) {
                send(t, LocalityId(j as u16), Lane::Run);
            }
        }
        let all: Vec<&dyn Transport> = transports.iter().map(|t| t as &dyn Transport).collect();
        let delivered = || {
            let got = transports.iter().map(|t| t.shared.own().injector.len());
            (got.sum::<usize>() == n * (n - 1)).then_some(())
        };
        wait_for(&all, delivered, "a message on every connection");
        assert_eq!(threads(), before, "the backend started a thread");
        assert_eq!(
            sockets() - sockets_before,
            n + n * (n - 1),
            "{n} listeners and two ends per rank pair"
        );
        for mut t in transports {
            t.shutdown();
        }
    }

    /// Each rank's connect attempts per peer, once every rank has its
    /// table.
    fn attempts_with_tables(mesh: &[TcpTransport]) -> Vec<Vec<u64>> {
        let all: Vec<&dyn Transport> = mesh.iter().map(|t| t as &dyn Transport).collect();
        let attempts = |t: &TcpTransport| t.shared.io.lock().as_ref()?.attempts();
        wait_for(
            &all,
            || mesh.iter().map(attempts).collect(),
            "every rank's table",
        )
    }

    /// No retry on the common path, by count: with rank 0 bound before any
    /// other rank starts, every connection of a 2- and a 4-rank mesh comes
    /// up on its first attempt, made by the higher rank — to rank 0, and
    /// (at 4 ranks) to each lower rank learned from the table. No rank
    /// dials a higher one.
    #[test]
    fn every_connection_comes_up_on_its_first_attempt() {
        for n in [2, 4] {
            let mesh = boot(loopback(n), None);
            let dials = |r: usize| {
                (0..n)
                    .filter(move |&j| j != r)
                    .map(move |j| u64::from(j < r))
            };
            let want: Vec<Vec<u64>> = (0..n).map(|r| dials(r).collect()).collect();
            assert_eq!(attempts_with_tables(&mesh), want, "{n} ranks");
        }
    }

    /// Write `table` onto `to` as one stream message.
    fn write_table(to: &mut std::net::TcpStream, table: &[std::net::SocketAddr]) {
        use px_wire::stream::{encode_msg_header, encode_table};
        use std::io::Write;
        let body = encode_table(table);
        let header = encode_msg_header(msg_kind::TABLE, body.len() as u32);
        to.write_all(&[&header[..], &body].concat()).unwrap();
    }

    /// Only rank 0 sends a table, and only once. A table on another
    /// rank's connection (from a fake rank 1 that rank 0 adopted at
    /// bootstrap), or a second one (from a fake rank 0 that accepted rank
    /// 1's dial and sent a valid first), desynchronizes that stream: the
    /// peer is lost, the event counts as a `Decode` death, and nothing is
    /// learned.
    #[test]
    fn a_stray_table_is_a_desynchronized_stream() {
        use px_wire::stream::{encode_handshake, HANDSHAKE_LEN};
        use std::io::{Read, Write};
        use std::net::{SocketAddr, TcpStream};
        let booting = |rank: u16, rank0: SocketAddr, listener: TcpListener| {
            let cfg = TcpConfig::new(rank, vec![rank0.to_string(); 2]);
            std::thread::spawn(move || {
                TcpTransport::bootstrap(&cfg, listener, test_localities(2), None).unwrap()
            })
        };
        // (a) A fake rank 1 dials rank 0.
        let listener = loopback(1).remove(0);
        let at0 = listener.local_addr().unwrap();
        let rank0 = booting(0, at0, listener);
        let mut fake1 = TcpStream::connect(at0).unwrap();
        fake1.write_all(&encode_handshake(1, 0)).unwrap();
        let rank0 = rank0.join().unwrap();
        // (b) A fake rank 0 accepts rank 1's dial and sends a valid table.
        let fake0 = loopback(1).remove(0);
        let at0 = fake0.local_addr().unwrap();
        let listener = loopback(1).remove(0);
        let table = [at0, listener.local_addr().unwrap()];
        let rank1 = booting(1, at0, listener);
        let (mut to1, _) = fake0.accept().unwrap();
        to1.read_exact(&mut [0; HANDSHAKE_LEN]).unwrap();
        write_table(&mut to1, &table);
        let rank1 = rank1.join().unwrap();
        for (t, mut forger, claims) in [(rank0, fake1, 1), (rank1, to1, 0)] {
            let before = attempts_with_tables(std::slice::from_ref(&t));
            write_table(&mut forger, &table);
            let own = t.shared.own();
            let refused = || (own.stats().dead_decode == 1).then_some(());
            wait_for(&[&t], refused, "the stray table refused");
            let rank = t.shared.rank;
            assert!(lost(&t, claims), "rank {rank} still trusts rank {claims}");
            assert_eq!(
                attempts_with_tables(std::slice::from_ref(&t)),
                before,
                "a stray table was learned"
            );
        }
    }

    /// A connection that claims a rank already connected is dropped
    /// unread. A forger dials rank 0 as rank 1 — a valid hello, then a
    /// parcel and a table: rank 0 closes it without reading past the
    /// hello (a close with bytes unread resets), keeps rank 1, counts no
    /// decode death and runs nothing of the forger's, and the real rank
    /// 1's parcels still arrive.
    #[test]
    fn a_forged_hello_for_a_connected_rank_is_dropped_unread() {
        use px_wire::stream::{encode_handshake, encode_msg_header};
        use std::io::{ErrorKind, Read, Write};
        let listeners = loopback(2);
        let at0 = listeners[0].local_addr().unwrap();
        let (a, b, _locs_b) = pair(listeners, None);
        let mut forger = std::net::TcpStream::connect(at0).unwrap();
        let frame = noop_frame(LocalityId(0));
        let header = encode_msg_header(msg_kind::FRAME, frame.len() as u32);
        let hello = encode_handshake(1, 0);
        forger
            .write_all(&[&hello[..], &header, &frame].concat())
            .unwrap();
        write_table(&mut forger, &[at0; 2]);
        forger.set_nonblocking(true).unwrap();
        let closed = || match forger.read(&mut [0; 64]) {
            Ok(0) => Some(()),
            Err(e) if e.kind() == ErrorKind::ConnectionReset => Some(()),
            Err(e) if e.kind() == ErrorKind::WouldBlock => None,
            other => panic!("the forger was answered: {other:?}"),
        };
        wait_for(&[&a], closed, "rank 0 to drop the forger");
        let own = a.shared.own();
        assert!(!lost(&a, 1), "a forger killed rank 1");
        assert_eq!(own.stats().dead_decode, 0, "the forger's stream was read");
        assert_eq!(own.injector.len(), 0, "the forger's parcel was delivered");
        send(&b, LocalityId(0), Lane::Run);
        let both: [&dyn Transport; 2] = [&a, &b];
        let arrived = || own.injector.steal().map(drop);
        wait_for(&both, arrived, "rank 1's parcel");
        let p1 = a.transport_stats().peers[0];
        assert_eq!(p1.msgs_recv, 1, "one message, from rank 1");
    }

    /// Rank 0 of a two-rank mesh, a runtime with one worker, whose rank 1
    /// is a stream this test dialled and said hello on, and every fault
    /// its dead-letter hook saw.
    fn runtime_with_a_forged_peer() -> (
        crate::runtime::Runtime,
        std::net::TcpStream,
        Arc<Mutex<Vec<Fault>>>,
    ) {
        use crate::runtime::{Config, RuntimeBuilder};
        use std::io::Write;
        let listener = loopback(1).remove(0);
        let at0 = listener.local_addr().unwrap();
        let faults = Arc::new(Mutex::new(Vec::new()));
        let seen = faults.clone();
        let builder =
            RuntimeBuilder::new(Config::small(2, 1).with_tcp(0, vec![at0.to_string(); 2]))
                .tcp_listener(listener)
                .on_dead_letter(move |f| seen.lock().push(f.clone()));
        let rank0 = std::thread::spawn(move || builder.build().unwrap());
        let mut peer = std::net::TcpStream::connect(at0).unwrap();
        peer.write_all(&px_wire::stream::encode_handshake(1, 0))
            .unwrap();
        (rank0.join().unwrap(), peer, faults)
    }

    /// Write one stream message of `kind` onto `to`.
    fn forge(to: &mut std::net::TcpStream, kind: u8, body: &[u8]) {
        use std::io::Write;
        let header = px_wire::stream::encode_msg_header(kind, body.len() as u32);
        to.write_all(&[&header[..], body].concat()).unwrap();
    }

    /// Poll `done` every millisecond for up to ten seconds.
    fn until(what: &str, mut done: impl FnMut() -> bool) {
        let t0 = Instant::now();
        while !done() {
            assert!(t0.elapsed() < Duration::from_secs(10), "timed out: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Every parcel a peer sends is checksummed, the control lane's too: a
    /// `CONTROL` message carries a frame of one, which runs; the same
    /// frame with one payload byte flipped dies once, as `Decode`, at the
    /// frame's checksum — nothing of it runs — and the stream stays in
    /// step, so the next intact frame runs.
    #[test]
    fn a_flipped_byte_in_a_control_frame_dies_at_the_checksum() {
        let (rt, mut peer, faults) = runtime_with_a_forged_peer();
        let stats = || rt.stats().localities[0];
        let frame = noop_frame(LocalityId(0));
        forge(&mut peer, msg_kind::CONTROL, &frame);
        until("the intact control frame", || stats().parcels_recv == 1);
        let mut flipped = frame.clone();
        // The action id's first byte, inside the one record.
        flipped[px_wire::FRAME_HEADER_LEN + px_wire::RECORD_HEADER_LEN + 8] ^= 0x01;
        forge(&mut peer, msg_kind::CONTROL, &flipped);
        until("the flipped frame's death", || stats().dead_parcels == 1);
        forge(&mut peer, msg_kind::CONTROL, &frame);
        until("the next intact frame", || stats().parcels_recv == 2);
        let s = stats();
        assert_eq!(
            (s.dead_parcels, s.dead_decode),
            (1, 1),
            "one death, as Decode"
        );
        let faults = faults.lock().clone();
        assert_eq!(faults.len(), 1, "{faults:?}");
        assert!(faults[0].message.contains("checksum"), "{faults:?}");
        rt.shutdown();
    }

    /// `PARCEL` is a reserved kind: a bare parcel from a peer of another
    /// version dies as `Decode` where it is delivered — counted once and
    /// told to the dead-letter hook once, naming the kind — runs nothing,
    /// and leaves the stream in step.
    #[test]
    fn a_bare_parcel_kind_dies_as_decode() {
        let (rt, mut peer, faults) = runtime_with_a_forged_peer();
        let stats = || rt.stats().localities[0];
        forge(
            &mut peer,
            msg_kind::PARCEL,
            &noop_parcel(LocalityId(0)).encode(),
        );
        until("the bare parcel's death", || stats().dead_decode == 1);
        forge(&mut peer, msg_kind::FRAME, &noop_frame(LocalityId(0)));
        until("the frame behind it", || stats().parcels_recv == 1);
        assert_eq!(stats().dead_parcels, 1, "nothing else died");
        let faults = faults.lock().clone();
        assert_eq!(faults.len(), 1, "{faults:?}");
        let kind = format!("kind {}", msg_kind::PARCEL);
        let (cause, message) = (faults[0].cause, &faults[0].message);
        assert_eq!(cause, FaultCause::Decode, "{faults:?}");
        assert!(message.contains(&kind), "{faults:?}");
        rt.shutdown();
    }

    /// A stream that desynchronizes — here a table on a connection that is
    /// not rank 0's — dies once as `Decode`, and the dead-letter hook
    /// hears of it as it hears of every counted death, beside the
    /// `Transport` fault of the peer's loss.
    #[test]
    fn a_desynchronized_stream_is_a_decode_death_and_a_lost_peer() {
        let (rt, mut peer, faults) = runtime_with_a_forged_peer();
        let table = px_wire::stream::encode_table(&[peer.peer_addr().unwrap(); 2]);
        forge(&mut peer, msg_kind::TABLE, &table);
        until("the death and the peer's loss", || faults.lock().len() == 2);
        let s = rt.stats().localities[0];
        assert_eq!((s.dead_parcels, s.dead_decode), (1, 1));
        let faults = faults.lock().clone();
        let causes: Vec<_> = faults.iter().map(|f| f.cause).collect();
        let want = [FaultCause::Decode, FaultCause::Transport];
        assert_eq!(causes, want, "{faults:?}");
        rt.shutdown();
    }

    /// A closure spawned toward another rank dies once, before the wire —
    /// counted as `Transport` and told to the dead-letter hook — and never
    /// reaches the backend.
    #[test]
    fn closure_tasks_cannot_cross_processes() {
        let (rt, _peer, faults) = runtime_with_a_forged_peer();
        rt.spawn_at(LocalityId(1), |_| unreachable!("a closure crossed"));
        let s = rt.stats().localities[0];
        assert_eq!((s.dead_parcels, s.dead_transport), (1, 1), "one death");
        let faults = faults.lock().clone();
        assert_eq!(faults.len(), 1, "{faults:?}");
        assert_eq!(faults[0].cause, FaultCause::Transport);
        assert!(faults[0].message.contains("closure"), "{faults:?}");
        let sent = rt.stats().transport.peers[0].msgs_sent;
        assert_eq!(sent, 0, "nothing went out");
        rt.shutdown();
    }
}
