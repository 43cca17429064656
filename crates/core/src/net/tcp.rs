//! The TCP transport backend: localities as separate OS processes,
//! driven by **one readiness-driven I/O thread per rank**.
//!
//! Each process owns exactly one locality (its *rank*) and peers with
//! every other over plain TCP sockets. The byte protocol is
//! [`px_wire::stream`]: a fixed handshake (`magic ++ version ++
//! locality id`), then length-prefixed messages whose bodies are the
//! *same* encoded parcels and (checksummed, version-2) frames the
//! in-process wire carries. The coalescing ports, batching policy, and
//! control-plane lane all sit above the `Transport` seam and work
//! unchanged.
//!
//! ## Thread model: flat in peer count
//!
//! The whole backend runs on **one** I/O thread (`px-tcp-io`),
//! regardless of mesh size: every socket is nonblocking and registered
//! with an epoll-based poller ([`px_poll::Poller`] — vendored direct
//! libc declarations, like the other offline stand-ins). The listener,
//! all outbound connections, all inbound connections, connect/reconnect
//! retries, and handshake deadlines are all multiplexed in the same
//! `epoll_wait` loop; retries are *timers* (poll timeouts), not
//! sleep-loops, so an idle mesh makes zero wakeups. A 64-rank mesh
//! costs this process exactly the same thread count as a 2-rank mesh —
//! thread cost scales with *ranks you run*, never with *peers you
//! have* (asserted by integration test; the predecessor spawned a
//! writer plus a reader thread per peer, capping mesh size at 2N+
//! threads per rank).
//!
//! Senders never touch sockets: `submit` appends to a per-peer
//! `SendQueue` (control lane ahead of data, bounded bytes for
//! backpressure) and wakes the poller via its eventfd. The I/O thread
//! drains queues into a [`px_wire::stream::WriteBatch`] per peer and
//! ships it with **vectored writes** (`write_vectored` over
//! header/body slices) with explicit partial-write carry-over — the
//! kernel can cut a write mid-header or mid-body and the batch resumes
//! at exactly that byte (proptested in
//! `crates/wire/tests/write_proptest.rs`).
//!
//! ## Topology and bootstrap barrier
//!
//! The mesh uses one **simplex** connection per ordered peer pair:
//! process `i`'s outgoing connection to `j` carries only `i → j`
//! traffic; `j` reads it as one of its inbound connections. No
//! multiplexing and no duplex framing races — same-peer traffic rides
//! one ordered byte stream.
//!
//! `TcpTransport::bootstrap` returns only once this process has
//! connected *to* every peer (handshake flushed) **and** accepted a
//! handshake *from* every peer — so when every rank's
//! `RuntimeBuilder::build` returns, the full N-process mesh exists: a
//! barrier, without a coordinator. Connect attempts retry on a timer
//! until `TcpConfig::bootstrap_timeout` (peers boot in any order).
//!
//! ## Failure semantics
//!
//! A dropped peer connection is detected by readiness: EOF/error on an
//! inbound connection, or error/hang-up on the outbound one. The peer
//! is marked **dead**, the dead-letter hook observes a
//! `FaultCause::Transport` fault, and every undeliverable message —
//! queued, batched, or submitted later — is killed *loudly* in
//! `kill_parcel` style: counted under `dead_transport`, with the fault
//! delivered to each parcel's continuation so waiters resolve with
//! `PxError::Fault` in bounded time instead of hanging. Fault delivery
//! is deferred to a scheduler task on the own locality because `submit`
//! may be called under a coalescing-port lock that a fault continuation
//! would need to re-take.
//!
//! Reconnection is an I/O-loop timer and bounded: on an outbound
//! connection failure the loop re-dials up to
//! `TcpConfig::reconnect_attempts` times (spaced by a retry timer) and
//! re-sends the unacknowledged write batch from the front message's
//! first byte — **at-least-once across a reconnect**: messages the peer
//! had already consumed from the failed connection can be delivered
//! twice, so actions crossing TCP should be idempotent, or set
//! `reconnect_attempts = 0` for at-most-once (failed batches are then
//! killed loudly instead). Once the attempts are spent, the peer is
//! permanently dead to this process — a later inbound connection from
//! it is still *read* (its parcels execute), but nothing is sent back;
//! rejoin-after-restart needs the distributed AGAS first (see ROADMAP).
//!
//! Process accounting: activity tokens never cross an OS-process
//! boundary (see `route_parcel`), so a cross-rank parcel carries its
//! owning pid for cancellation context only; hierarchical quiescence
//! meters work within each process.
//!
//! What this backend **cannot** do is deliver `WireMsg::Task` closures
//! to another process — closures do not serialize. Those die loudly at
//! submission with the same transport fault; distributed work moves via
//! action parcels, as the model intends.

use super::{Transport, TransportSubmitter, WireMsg};
use crate::action::ActionId;
use crate::error::{Fault, FaultCause, PxError, PxResult};
use crate::gid::{Gid, LocalityId};
use crate::locality::Locality;
use crate::parcel::Parcel;
use crate::runtime::RuntimeInner;
use crate::sched::Task;
use crate::stats::{PeerStats, TransportStats};
use parking_lot::{Condvar, Mutex};
use px_poll::{Interest, Poller, WAKE_TOKEN};
use px_wire::stream::{self, msg_kind, StreamAssembler, WriteBatch};
use std::collections::{BinaryHeap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-peer outbound queue bound in bytes: a data-lane submit toward a
/// peer with this much already queued blocks (briefly, re-checked) until
/// the I/O thread drains room — backpressure instead of unbounded
/// memory. The control lane is exempt: gossip must never wait behind
/// the backlog it reports.
const SEND_QUEUE_BYTES: usize = 4 * 1024 * 1024;
/// I/O slices per `write_vectored` call (well under any `IOV_MAX`).
const MAX_WRITE_SLICES: usize = 64;
/// Read chunk size for inbound connections.
const READ_CHUNK: usize = 64 * 1024;
/// Spacing between connect attempts (a poller timer, never a sleep).
const CONNECT_RETRY: Duration = Duration::from_millis(25);
/// Deadline for one nonblocking connect attempt to become writable.
const CONNECT_ATTEMPT_TIMEOUT: Duration = Duration::from_secs(5);
/// Deadline for an accepted connection to produce its handshake — a
/// silent stranger (port scanner, health checker) is dropped then.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);
/// How long shutdown keeps the loop alive to flush pending writes
/// before counting the leftovers as transport deaths.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(5);

/// Configuration of the TCP backend: which locality this process *is*
/// and where every locality listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpConfig {
    /// The locality id owned by this OS process.
    pub rank: u16,
    /// Listen address of every locality, indexed by locality id
    /// (`addrs[rank]` is this process's bind address). Length must equal
    /// `Config::localities`.
    pub addrs: Vec<String>,
    /// How long `RuntimeBuilder::build` may wait for the full mesh
    /// (connects out + handshakes in) before failing loudly.
    pub bootstrap_timeout: Duration,
    /// Reconnection attempts the I/O loop makes after an outbound
    /// connection failure before declaring the peer dead.
    pub reconnect_attempts: u32,
}

impl TcpConfig {
    /// Config for `rank` in a system whose localities listen at `addrs`
    /// (default 30 s bootstrap timeout, 1 reconnect attempt).
    pub fn new(rank: u16, addrs: Vec<String>) -> TcpConfig {
        TcpConfig {
            rank,
            addrs,
            bootstrap_timeout: Duration::from_secs(30),
            reconnect_attempts: 1,
        }
    }
}

/// Send/receive counters for one peer.
#[derive(Default)]
struct PeerCounters {
    msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
    frames_sent: AtomicU64,
    msgs_recv: AtomicU64,
    bytes_recv: AtomicU64,
    reconnects: AtomicU64,
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

/// The submit-side half of a peer: two queue lanes plus backpressure
/// accounting, drained by the I/O thread.
#[derive(Default)]
struct SendQueue {
    /// Control lane: drained ahead of data, never backpressured.
    control: VecDeque<OutMsg>,
    /// Data lane: parcels and frames, in submission order.
    data: VecDeque<OutMsg>,
    /// Bytes across both lanes (bodies only; headers are a fixed tax).
    queued_bytes: usize,
    /// High-watermark of `queued_bytes` (backpressure visibility).
    bytes_hwm: u64,
    /// Closed: peer declared dead or transport shutting down. Submits
    /// must not enqueue — the closing code drained the queues already.
    closed: bool,
}

/// Per-peer send state shared between submitters and the I/O thread.
struct PeerSlot {
    queue: Mutex<SendQueue>,
    /// Signalled when the I/O thread drains room (or closes the queue).
    room: Condvar,
    /// Peer declared unreachable (fast-path mirror of `queue.closed`
    /// outside shutdown).
    dead: AtomicBool,
    counters: PeerCounters,
}

/// State shared between submitters and the I/O thread.
struct TcpShared {
    rank: u16,
    resolved: Vec<Option<SocketAddr>>,
    reconnect_attempts: u32,
    localities: Arc<Vec<Arc<Locality>>>,
    /// Indexed by locality id; `None` at `rank` (no self-peering).
    peers: Vec<Option<PeerSlot>>,
    /// Late-bound runtime for fault delivery.
    rt: OnceLock<Weak<RuntimeInner>>,
    shutting_down: AtomicBool,
    /// The I/O thread's poller; submitters only `wake` it.
    poller: Poller,
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

    /// Deliver a received (or locally-addressed) stream message into the
    /// own locality's queues, honoring the control-plane priority lane.
    fn deliver_local(&self, kind: u8, body: Vec<u8>) {
        let loc = self.own();
        match kind {
            msg_kind::PARCEL => loc.push_task(Task::parcel_bytes(body)),
            msg_kind::PARCEL_STAGED => loc.push_staged(Task::parcel_bytes(body)),
            msg_kind::FRAME => loc.push_task(Task::parcel_frame(body)),
            msg_kind::FRAME_STAGED => loc.push_staged(Task::parcel_frame(body)),
            msg_kind::CONTROL => loc.push_control(Task::parcel_bytes(body)),
            // StreamAssembler rejects unknown kinds before this point.
            _ => loc.counters.count_death(FaultCause::Decode, 1),
        }
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
        if loc.trace.is_none() {
            return;
        }
        match msg {
            msg_kind::FRAME | msg_kind::FRAME_STAGED => {
                if let Ok(view) = px_wire::FrameView::parse(body) {
                    for rec in view.records().flatten() {
                        trace_record(loc, kind, rec, peer);
                    }
                }
            }
            msg_kind::CONTROL => {} // gossip is never traced
            _ => trace_record(loc, kind, body, peer),
        }
    }

    fn submit(&self, msg: WireMsg) {
        if self.shutting_down.load(Ordering::Acquire) {
            return;
        }
        match msg {
            WireMsg::Task { dest, task } => {
                if dest.0 == self.rank {
                    self.own().push_task(task);
                    return;
                }
                // Closures do not serialize: this is work the transport
                // cannot carry. Die loudly (counted + dead-letter) so the
                // mistake is visible instead of a silent hang.
                self.own().counters.count_death(FaultCause::Transport, 1);
                if let Some(rt) = self.rt() {
                    let fault = Fault::new(
                        FaultCause::Transport,
                        ActionId(0),
                        Gid::locality_root(dest),
                        "closure task cannot cross an OS-process boundary; use action parcels",
                    );
                    rt.notify_dead_letter(&fault, None);
                }
            }
            WireMsg::Parcel {
                dest,
                staged,
                bytes,
            } => {
                let kind = if staged {
                    msg_kind::PARCEL_STAGED
                } else {
                    msg_kind::PARCEL
                };
                self.send_to_peer(dest, kind, bytes);
            }
            WireMsg::Frame {
                dest,
                staged,
                bytes,
            } => {
                let kind = if staged {
                    msg_kind::FRAME_STAGED
                } else {
                    msg_kind::FRAME
                };
                self.send_to_peer(dest, kind, bytes);
            }
            WireMsg::Control { dest, bytes } => {
                self.send_to_peer(dest, msg_kind::CONTROL, bytes);
            }
        }
    }

    /// Queue one message toward `dest` and wake the I/O thread. The data
    /// lane blocks (bounded re-check) when the peer's queue is at its
    /// byte bound; the control lane never does.
    fn send_to_peer(&self, dest: LocalityId, kind: u8, bytes: Vec<u8>) {
        if dest.0 == self.rank {
            // Defensive: same-locality traffic short-circuits upstream.
            self.deliver_local(kind, bytes);
            return;
        }
        // Submission intent is recorded before the dead check: a message
        // toward a lost peer shows NetSubmit followed by its NetFault.
        self.trace_stream_msg(
            crate::trace::TraceEventKind::NetSubmit,
            kind,
            &bytes,
            dest.0,
        );
        let slot = self.peer(dest.0);
        if slot.dead.load(Ordering::Acquire) {
            self.kill_undeliverable(dest.0, vec![(kind, bytes)]);
            return;
        }
        let control = kind == msg_kind::CONTROL;
        // Stamped before the backpressure wait so NetRtt charges the
        // full submit→drain latency, including time spent blocked on a
        // slow peer's queue bound.
        let submitted = self.own().metrics_now();
        let was_empty = {
            let mut q = slot.queue.lock();
            if !control {
                while !q.closed && q.queued_bytes >= SEND_QUEUE_BYTES {
                    slot.room.wait_for(&mut q, Duration::from_millis(100));
                }
            }
            if q.closed {
                // Peer died (or shutdown raced) between the dead check
                // and the lock: the closer already drained the queues, so
                // this message is ours to kill (silently during
                // shutdown — teardown races stay benign).
                drop(q);
                if !self.shutting_down.load(Ordering::Acquire) {
                    self.kill_undeliverable(dest.0, vec![(kind, bytes)]);
                }
                return;
            }
            let was_empty = q.control.is_empty() && q.data.is_empty();
            q.queued_bytes += bytes.len();
            q.bytes_hwm = q.bytes_hwm.max(q.queued_bytes as u64);
            let lane = if control { &mut q.control } else { &mut q.data };
            lane.push_back(OutMsg {
                kind,
                bytes,
                submitted,
            });
            was_empty
        };
        // One wake per empty→non-empty transition, not per message: the
        // I/O thread drains whole queues per iteration, so a non-empty
        // queue already has a wake in flight (the eventfd coalesces) or
        // is being pulled under this same lock right now.
        if was_empty {
            self.poller.wake();
        }
    }

    /// Mark `peer` unreachable: close its queue (draining is the
    /// caller's job — under the same lock, so no submit can slip
    /// between), release blocked submitters, and tell the dead-letter
    /// hook (once per transition). Per-message deaths are counted where
    /// the messages are killed. Returns the drained queue contents.
    fn close_peer(&self, peer: u16, why: &str) -> Vec<(u8, Vec<u8>)> {
        let slot = self.peer(peer);
        let drained: Vec<(u8, Vec<u8>)> = {
            let mut q = slot.queue.lock();
            q.closed = true;
            q.queued_bytes = 0;
            let control = q.control.drain(..);
            // Field-split borrow: collect both lanes in priority order.
            let mut out: Vec<(u8, Vec<u8>)> = control.map(|m| (m.kind, m.bytes)).collect();
            out.extend(q.data.drain(..).map(|m| (m.kind, m.bytes)));
            out
        };
        slot.room.notify_all();
        let newly_dead = !slot.dead.swap(true, Ordering::AcqRel);
        if newly_dead && !self.shutting_down.load(Ordering::Acquire) {
            // Peer-death transition under the never-sampled id 0: visible
            // in full dumps even when no traced parcel was in flight.
            self.own().trace_event(
                Some(0),
                crate::trace::TraceEventKind::NetFault,
                0,
                u64::from(peer),
            );
            if let Some(rt) = self.rt() {
                let fault = Fault::new(
                    FaultCause::Transport,
                    ActionId(0),
                    Gid::locality_root(LocalityId(peer)),
                    format!("peer locality {peer} unreachable: {why}"),
                );
                rt.notify_dead_letter(&fault, None);
            }
        }
        drained
    }

    /// Kill undeliverable stream messages loudly. With a bound runtime
    /// the kill is deferred to a scheduler task on the own locality —
    /// `submit` may hold a coalescing-port lock that the fault
    /// continuations need — where each parcel dies via `kill_parcel`
    /// (counted, dead-letter, fault to continuation, process token
    /// released). Without one (tests, boot races) the deaths are counted
    /// directly.
    fn kill_undeliverable(&self, peer: u16, msgs: Vec<(u8, Vec<u8>)>) {
        if msgs.is_empty() {
            return;
        }
        let why = format!("transport to locality {peer} lost");
        match self.rt() {
            None => self.count_deaths(&msgs),
            Some(_) => {
                self.own().push_task(Task::thread(move |ctx| {
                    let rt = ctx.rt_inner().clone();
                    let loc = ctx.locality().clone();
                    for (kind, body) in msgs {
                        kill_stream_msg(&rt, &loc, kind, &body, &why);
                    }
                }));
            }
        }
    }

    /// Count per-parcel transport deaths without a runtime (no
    /// continuations to fault).
    fn count_deaths(&self, msgs: &[(u8, Vec<u8>)]) {
        let loc = self.own();
        for (kind, body) in msgs {
            loc.counters
                .count_death(FaultCause::Transport, count_records(*kind, body));
        }
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

/// Parcel records inside one stream message (for counting deaths when no
/// runtime is bound).
fn count_records(kind: u8, body: &[u8]) -> u64 {
    match kind {
        msg_kind::FRAME | msg_kind::FRAME_STAGED => px_wire::FrameView::parse(body)
            .map(|v| u64::from(v.record_count()))
            .unwrap_or(1),
        _ => 1,
    }
}

/// Kill every parcel inside one undeliverable stream message.
fn kill_stream_msg(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, kind: u8, body: &[u8], why: &str) {
    match kind {
        msg_kind::FRAME | msg_kind::FRAME_STAGED => match px_wire::FrameView::parse(body) {
            Ok(view) => {
                for rec in view.records() {
                    match rec {
                        Ok(bytes) => kill_record(rt, loc, bytes, why),
                        Err(_) => loc.counters.count_death(FaultCause::Decode, 1),
                    }
                }
            }
            Err(_) => loc.counters.count_death(FaultCause::Decode, 1),
        },
        _ => kill_record(rt, loc, body, why),
    }
}

fn kill_record(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, bytes: &[u8], why: &str) {
    match Parcel::decode(bytes) {
        Ok(p) => {
            // The transport flavor of this death, under the parcel's own
            // trace id (kill_parcel adds the ParcelKill right after).
            loc.trace_event(p.trace, crate::trace::TraceEventKind::NetFault, p.dest.0, 0);
            // No activity token to release: cross-rank parcels are not
            // accounted to their process at the sender (tokens never
            // cross an OS-process boundary — see `route_parcel`), and
            // every message this transport kills was bound for another
            // rank.
            crate::sched::kill_parcel(rt, loc, p, FaultCause::Transport, why.to_string());
        }
        Err(_) => loc.counters.count_death(FaultCause::Decode, 1),
    }
}

/// The socket-backed `Transport`. Built by
/// `TcpTransport::bootstrap`; see the module docs for the thread model
/// and failure semantics.
pub(crate) struct TcpTransport {
    shared: Arc<TcpShared>,
    io: Option<JoinHandle<()>>,
}

impl TcpTransport {
    /// Bind, spawn the I/O thread, and block until the full mesh exists
    /// (connected + handshake flushed to every peer, handshake accepted
    /// from every peer). Fails loudly after `cfg.bootstrap_timeout`.
    pub(crate) fn bootstrap(
        cfg: &TcpConfig,
        localities: Arc<Vec<Arc<Locality>>>,
    ) -> PxResult<TcpTransport> {
        let n = localities.len();
        let rank = cfg.rank;
        let mut resolved: Vec<Option<SocketAddr>> = Vec::with_capacity(n);
        for (j, addr) in cfg.addrs.iter().enumerate() {
            if j == rank as usize {
                resolved.push(None);
                continue;
            }
            let sa = addr
                .to_socket_addrs()
                .map_err(|e| PxError::BadConfig(format!("tcp: resolve {addr}: {e}")))?
                .next()
                .ok_or_else(|| PxError::BadConfig(format!("tcp: {addr} resolves to no address")))?;
            resolved.push(Some(sa));
        }
        let listen_addr = &cfg.addrs[rank as usize];
        let listener = TcpListener::bind(listen_addr)
            .map_err(|e| PxError::BadConfig(format!("tcp: bind {listen_addr}: {e}")))?;
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
                    dead: AtomicBool::new(false),
                    counters: PeerCounters::default(),
                })
            })
            .collect();
        let shared = Arc::new(TcpShared {
            rank,
            resolved,
            reconnect_attempts: cfg.reconnect_attempts,
            localities,
            peers,
            rt: OnceLock::new(),
            shutting_down: AtomicBool::new(false),
            poller,
        });

        let (barrier_tx, barrier_rx) = std::sync::mpsc::sync_channel::<Result<(), String>>(1);
        let io = {
            let sh = shared.clone();
            let deadline = Instant::now() + cfg.bootstrap_timeout;
            std::thread::Builder::new()
                .name("px-tcp-io".into())
                .spawn(move || IoLoop::new(sh, listener, deadline, barrier_tx).run())
                .expect("spawn tcp I/O thread")
        };
        let mut transport = TcpTransport {
            shared,
            io: Some(io),
        };
        // The loop enforces the deadline itself; the grace covers a
        // wedged thread, not a slow peer.
        let grace = cfg.bootstrap_timeout + Duration::from_secs(5);
        match barrier_rx.recv_timeout(grace) {
            Ok(Ok(())) => Ok(transport),
            Ok(Err(why)) => {
                transport.shutdown();
                Err(PxError::BadConfig(why))
            }
            Err(_) => {
                transport.shutdown();
                Err(PxError::BadConfig(
                    "tcp bootstrap: I/O thread unresponsive".into(),
                ))
            }
        }
    }
}

impl Transport for TcpTransport {
    fn submit(&self, msg: WireMsg, _bytes: usize) {
        self.shared.submit(msg);
    }

    fn submitter(&self) -> TransportSubmitter {
        let shared = self.shared.clone();
        Arc::new(move |msg, _bytes| shared.submit(msg))
    }

    fn supports_batching(&self) -> bool {
        true
    }

    fn frame_version(&self) -> u8 {
        px_wire::FRAME_VERSION_CHECKSUM
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
                        msgs_sent: c.msgs_sent.load(Ordering::Relaxed),
                        bytes_sent: c.bytes_sent.load(Ordering::Relaxed),
                        frames_sent: c.frames_sent.load(Ordering::Relaxed),
                        msgs_recv: c.msgs_recv.load(Ordering::Relaxed),
                        bytes_recv: c.bytes_recv.load(Ordering::Relaxed),
                        reconnects: c.reconnects.load(Ordering::Relaxed),
                        queue_depth: depth,
                        queue_bytes_hwm: bytes_hwm,
                    })
                })
                .collect(),
        }
    }

    fn shutdown(&mut self) {
        self.shared.shutting_down.store(true, Ordering::Release);
        // Close the queues so blocked submitters exit; messages already
        // queued are drained by the I/O loop before it stops.
        for slot in self.shared.peers.iter().flatten() {
            slot.queue.lock().closed = true;
            slot.room.notify_all();
        }
        self.shared.poller.wake();
        if let Some(h) = self.io.take() {
            // The I/O thread itself can be the one tearing the runtime
            // down: `kill_undeliverable` upgrades the runtime weak, and
            // when a peer dies during shutdown that temporary can be the
            // *last* strong reference — its drop runs `Wire::drop` (and
            // this shutdown) on the I/O thread. Joining would self-join
            // and panic; skip it — the loop observes `shutting_down` and
            // exits on its own (it only borrows `TcpShared`, which the
            // detached thread keeps alive).
            if h.thread().id() == std::thread::current().id() {
                return;
            }
            let _ = h.join();
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// The I/O loop: everything below runs on the single px-tcp-io thread.
// ---------------------------------------------------------------------------

/// Poll token namespaces (`u64::MAX` is the poller's wake token).
const TOKEN_LISTENER: u64 = u64::MAX - 1;
const TOKEN_OUT_BASE: u64 = 1 << 32;
const TOKEN_IN_BASE: u64 = 2 << 32;

/// Outbound connection state for one peer.
enum Conn {
    /// Nonblocking connect in flight (completion = writability).
    Connecting(TcpStream),
    /// Connected; handshake and queued messages flow.
    Up(TcpStream),
    /// Retry timer pending.
    Backoff,
    /// Permanently dead (attempts spent) — or torn down at shutdown.
    Down,
}

/// Loop-owned per-peer state (the submit side lives in [`PeerSlot`]).
struct PeerIo {
    conn: Conn,
    /// Queued wire bytes with partial-write carry-over.
    batch: WriteBatch,
    /// Unsent prefix of the connection handshake (empty once flushed).
    hello: Vec<u8>,
    /// Interest currently registered for the outbound socket.
    registered: Option<Interest>,
    /// Reconnect attempts left in the current failure episode
    /// (unlimited during bootstrap — the barrier deadline bounds it).
    attempts_left: u32,
    /// Guards stale `ConnectTimeout` timers across attempts.
    attempt_seq: u64,
    /// Outbound half of the bootstrap barrier: hello fully flushed once.
    hello_done: bool,
}

/// One accepted inbound connection (peer unknown until its handshake).
struct InConn {
    stream: TcpStream,
    peer: Option<u16>,
    asm: StreamAssembler,
    hello: [u8; stream::HANDSHAKE_LEN],
    hello_got: usize,
    /// Guards stale `HelloTimeout` timers across slab-slot reuse.
    seq: u64,
}

/// Timed work folded into the poll timeout (never a sleep).
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum TimerKind {
    /// Retry the outbound connect to a peer.
    Retry(u16),
    /// A connect attempt (identified by seq) ran out of time.
    ConnectTimeout(u16, u64),
    /// An inbound connection (slab idx, seq) never sent its handshake.
    HelloTimeout(usize, u64),
    /// The bootstrap barrier ran out of time.
    Bootstrap,
    /// Shutdown stops draining and counts the leftovers.
    Drain,
}

struct IoLoop {
    shared: Arc<TcpShared>,
    listener: TcpListener,
    peers: Vec<Option<PeerIo>>,
    inbound: Vec<Option<InConn>>,
    inbound_seq: u64,
    timers: BinaryHeap<std::cmp::Reverse<(Instant, TimerKind)>>,
    /// Barrier state: which peers have handshaked in.
    seen_in: Vec<bool>,
    heard: usize,
    barrier_tx: Option<SyncSender<Result<(), String>>>,
    bootstrap_deadline: Instant,
    /// Until the barrier resolves, connect retries are unlimited.
    bootstrapping: bool,
    drain_deadline: Option<Instant>,
}

impl IoLoop {
    fn new(
        shared: Arc<TcpShared>,
        listener: TcpListener,
        bootstrap_deadline: Instant,
        barrier_tx: SyncSender<Result<(), String>>,
    ) -> IoLoop {
        let n = shared.localities.len();
        let peers = (0..n as u16)
            .map(|j| {
                (j != shared.rank).then(|| PeerIo {
                    conn: Conn::Backoff,
                    batch: WriteBatch::new(),
                    hello: Vec::new(),
                    registered: None,
                    attempts_left: 0,
                    attempt_seq: 0,
                    hello_done: false,
                })
            })
            .collect();
        IoLoop {
            shared,
            listener,
            peers,
            inbound: Vec::new(),
            inbound_seq: 0,
            timers: BinaryHeap::new(),
            seen_in: vec![false; n],
            heard: 0,
            barrier_tx: Some(barrier_tx),
            bootstrap_deadline,
            bootstrapping: true,
            drain_deadline: None,
        }
    }

    fn run(mut self) {
        if self
            .shared
            .poller
            .register(
                self.listener.as_raw_fd(),
                TOKEN_LISTENER,
                Interest::READABLE,
            )
            .is_err()
        {
            self.fail_bootstrap("tcp: registering the listener failed".into());
            return;
        }
        self.arm_timer(self.bootstrap_deadline, TimerKind::Bootstrap);
        // Kick off the outbound mesh: every peer starts connecting now.
        for j in 0..self.peers.len() as u16 {
            if self.peers[j as usize].is_some() {
                self.start_connect(j);
            }
        }
        self.check_barrier();

        let mut events = Vec::new();
        loop {
            if self.observe_shutdown() {
                return;
            }
            let timeout = self
                .timers
                .peek()
                .map(|std::cmp::Reverse((at, _))| at.saturating_duration_since(Instant::now()));
            if self.shared.poller.wait(&mut events, timeout).is_err() {
                // A broken poller cannot make progress; fail loudly if
                // the barrier still waits, then stop.
                self.fail_bootstrap("tcp: poller wait failed".into());
                return;
            }
            for ev in &events {
                match ev.token {
                    WAKE_TOKEN => {} // queues scanned below
                    TOKEN_LISTENER => self.accept_ready(),
                    t if t >= TOKEN_IN_BASE => self.inbound_ready((t - TOKEN_IN_BASE) as usize),
                    t if t >= TOKEN_OUT_BASE => {
                        self.outbound_ready((t - TOKEN_OUT_BASE) as u16, ev.writable())
                    }
                    _ => {}
                }
            }
            self.fire_due_timers();
            self.pump_sends();
        }
    }

    // -- timers -------------------------------------------------------------

    fn arm_timer(&mut self, at: Instant, kind: TimerKind) {
        self.timers.push(std::cmp::Reverse((at, kind)));
    }

    fn fire_due_timers(&mut self) {
        let now = Instant::now();
        while let Some(std::cmp::Reverse((at, _))) = self.timers.peek() {
            if *at > now {
                break;
            }
            let std::cmp::Reverse((_, kind)) = self.timers.pop().expect("peeked");
            match kind {
                TimerKind::Retry(j) => {
                    if matches!(self.peer_io(j).conn, Conn::Backoff) {
                        self.start_connect(j);
                    }
                }
                TimerKind::ConnectTimeout(j, seq) => {
                    let io = self.peer_io(j);
                    if io.attempt_seq == seq && matches!(io.conn, Conn::Connecting(_)) {
                        self.connect_attempt_failed(j, "connect timed out");
                    }
                }
                TimerKind::HelloTimeout(idx, seq) => {
                    let stale = match self.inbound.get(idx).and_then(Option::as_ref) {
                        Some(c) => c.seq != seq || c.peer.is_some(),
                        None => true,
                    };
                    if !stale {
                        // Silent stranger: drop before it touches any
                        // runtime state (we never learned who it was).
                        self.drop_inbound(idx);
                    }
                }
                TimerKind::Bootstrap => {
                    if self.barrier_tx.is_some() {
                        let n = self.shared.localities.len();
                        self.fail_bootstrap(format!(
                            "tcp bootstrap barrier timed out: {} of {} peers handshaked",
                            self.heard,
                            n - 1
                        ));
                    }
                }
                TimerKind::Drain => {
                    // Handled by observe_shutdown on the next iteration.
                }
            }
        }
    }

    // -- bootstrap barrier --------------------------------------------------

    fn fail_bootstrap(&mut self, why: String) {
        if let Some(tx) = self.barrier_tx.take() {
            let _ = tx.send(Err(why));
        }
        self.bootstrapping = false;
    }

    fn check_barrier(&mut self) {
        if self.barrier_tx.is_none() {
            return;
        }
        let n = self.shared.localities.len();
        let out_ready = self.peers.iter().flatten().filter(|p| p.hello_done).count();
        if self.heard == n - 1 && out_ready == n - 1 {
            if let Some(tx) = self.barrier_tx.take() {
                let _ = tx.send(Ok(()));
            }
            self.bootstrapping = false;
        }
    }

    // -- outbound -----------------------------------------------------------

    fn peer_io(&mut self, j: u16) -> &mut PeerIo {
        self.peers[j as usize]
            .as_mut()
            .expect("peer io exists for every non-self locality")
    }

    fn out_token(j: u16) -> u64 {
        TOKEN_OUT_BASE + u64::from(j)
    }

    /// Begin a nonblocking connect attempt toward `j`.
    fn start_connect(&mut self, j: u16) {
        let addr = self.shared.resolved[j as usize].expect("peer addr resolved at bootstrap");
        let io = self.peer_io(j);
        io.attempt_seq += 1;
        let seq = io.attempt_seq;
        match px_poll::connect_nonblocking(&addr) {
            Ok(stream) => {
                let register = self.shared.poller.register(
                    stream.as_raw_fd(),
                    Self::out_token(j),
                    Interest::WRITABLE,
                );
                let io = self.peer_io(j);
                match register {
                    Ok(()) => {
                        io.conn = Conn::Connecting(stream);
                        io.registered = Some(Interest::WRITABLE);
                        self.arm_timer(
                            Instant::now() + CONNECT_ATTEMPT_TIMEOUT,
                            TimerKind::ConnectTimeout(j, seq),
                        );
                    }
                    Err(_) => {
                        drop(stream);
                        self.connect_attempt_failed(j, "poller registration failed");
                    }
                }
            }
            Err(_) => self.connect_attempt_failed(j, "connect failed"),
        }
    }

    /// One connect attempt failed: schedule a retry or give the peer up.
    fn connect_attempt_failed(&mut self, j: u16, why: &str) {
        let bootstrapping = self.bootstrapping;
        let io = self.peer_io(j);
        io.registered = None;
        if bootstrapping {
            // The barrier deadline bounds bootstrap; retries are free.
            io.conn = Conn::Backoff;
            self.arm_timer(Instant::now() + CONNECT_RETRY, TimerKind::Retry(j));
            return;
        }
        if io.attempts_left > 0 {
            io.attempts_left -= 1;
            io.conn = Conn::Backoff;
            self.arm_timer(Instant::now() + CONNECT_RETRY, TimerKind::Retry(j));
        } else {
            io.conn = Conn::Down;
            self.give_up_peer(j, why);
        }
    }

    /// The outbound connection to `j` failed mid-episode (write error,
    /// hang-up): start the bounded reconnect cycle, or give up.
    fn connection_lost(&mut self, j: u16, why: &str) {
        let io = self.peer_io(j);
        io.conn = Conn::Down;
        io.registered = None;
        io.batch.rewind(); // at-least-once: re-send from the front message
        io.hello.clear();
        if self.shared.shutting_down.load(Ordering::Acquire) {
            // Shutdown drains what it can; a lost connection now just
            // counts its leftovers.
            let io = self.peer_io(j);
            let leftovers = io.batch.drain_msgs();
            self.shared.count_deaths(&leftovers);
            return;
        }
        let attempts = self.shared.reconnect_attempts;
        let bootstrapping = self.bootstrapping;
        if bootstrapping || attempts > 0 {
            let io = self.peer_io(j);
            if !bootstrapping {
                io.attempts_left = attempts - 1;
            }
            io.conn = Conn::Backoff;
            self.arm_timer(Instant::now() + CONNECT_RETRY, TimerKind::Retry(j));
        } else {
            self.give_up_peer(j, why);
        }
    }

    /// Declare `j` dead: close its queue, kill everything queued or
    /// batched, loudly.
    fn give_up_peer(&mut self, j: u16, why: &str) {
        let io = self.peer_io(j);
        io.conn = Conn::Down;
        io.registered = None;
        let mut dead = io.batch.drain_msgs();
        dead.extend(self.shared.close_peer(j, why));
        self.shared.kill_undeliverable(j, dead);
    }

    /// Readiness on the outbound socket of peer `j`.
    fn outbound_ready(&mut self, j: u16, writable: bool) {
        match &self.peer_io(j).conn {
            Conn::Connecting(stream) => {
                if !writable {
                    return;
                }
                match px_poll::take_socket_error(stream) {
                    Ok(()) => {
                        // Connected: queue the handshake and (on a
                        // reconnect) count the re-establishment.
                        let rank = self.shared.rank;
                        let io = self.peer_io(j);
                        io.hello = stream::encode_handshake(rank).to_vec();
                        let Conn::Connecting(stream) = std::mem::replace(&mut io.conn, Conn::Down)
                        else {
                            unreachable!("matched Connecting above");
                        };
                        io.conn = Conn::Up(stream);
                        if io.hello_done {
                            self.shared
                                .peer(j)
                                .counters
                                .reconnects
                                .fetch_add(1, Ordering::Relaxed);
                            self.shared.own().trace_event(
                                Some(0),
                                crate::trace::TraceEventKind::NetReconnect,
                                0,
                                u64::from(j),
                            );
                            // Reconnect revives a dead-marked peer (the
                            // queue reopens only if it was closed by a
                            // *failed episode*, never after shutdown).
                            if !self.shared.shutting_down.load(Ordering::Acquire) {
                                let slot = self.shared.peer(j);
                                slot.queue.lock().closed = false;
                                slot.dead.store(false, Ordering::Release);
                            }
                        }
                        self.flush_peer(j);
                    }
                    Err(_) => {
                        let io = self.peer_io(j);
                        io.conn = Conn::Down;
                        io.registered = None;
                        self.connect_attempt_failed(j, "connect refused");
                    }
                }
            }
            Conn::Up(_) => {
                if writable {
                    self.flush_peer(j);
                }
                self.drain_outbound_read(j);
            }
            Conn::Backoff | Conn::Down => {}
        }
    }

    /// The peer never writes on our outbound (simplex) connection, so
    /// any read readiness is EOF/RST — the only way to notice a dropped
    /// peer between writes.
    fn drain_outbound_read(&mut self, j: u16) {
        let mut probe = [0u8; 512];
        let lost = {
            let Conn::Up(stream) = &mut self.peer_io(j).conn else {
                return;
            };
            loop {
                match stream.read(&mut probe) {
                    Ok(0) => break true,
                    Ok(_) => continue, // protocol garbage; discard
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break true,
                }
            }
        };
        if lost {
            self.connection_lost(j, "connection closed by peer");
        }
    }

    /// Write the hello and batched messages toward `j` until done or the
    /// socket fills; adjust epoll interest to match what remains.
    fn flush_peer(&mut self, j: u16) {
        let shared = self.shared.clone();
        let io = self.peer_io(j);
        let Conn::Up(stream) = &mut io.conn else {
            return;
        };
        let mut failed = false;
        // Handshake bytes go first, unvectored (seven bytes, once).
        while !io.hello.is_empty() {
            match stream.write(&io.hello) {
                Ok(n) => {
                    io.hello.drain(..n);
                    if io.hello.is_empty() {
                        io.hello_done = true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        let c = &shared.peer(j).counters;
        while !failed && io.hello.is_empty() && !io.batch.is_empty() {
            let mut slices = Vec::with_capacity(MAX_WRITE_SLICES);
            io.batch.unwritten_slices(&mut slices, MAX_WRITE_SLICES);
            match stream.write_vectored(&slices) {
                Ok(n) => {
                    drop(slices);
                    c.bytes_sent.fetch_add(n as u64, Ordering::Relaxed);
                    io.batch.advance_with(n, |kind| {
                        c.msgs_sent.fetch_add(1, Ordering::Relaxed);
                        if kind == msg_kind::FRAME || kind == msg_kind::FRAME_STAGED {
                            c.frames_sent.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => failed = true,
            }
        }
        if failed {
            self.connection_lost(j, "write failed");
            return;
        }
        self.update_interest(j);
        self.check_barrier();
    }

    /// Keep the outbound socket's epoll interest in sync: writable only
    /// while there are bytes to push (level-triggered OUT on an idle
    /// socket would spin the loop).
    fn update_interest(&mut self, j: u16) {
        let shared = self.shared.clone();
        let io = self.peer_io(j);
        let Conn::Up(stream) = &io.conn else { return };
        let want = if io.hello.is_empty() && io.batch.is_empty() {
            Interest::READABLE
        } else {
            Interest::BOTH
        };
        if io.registered != Some(want) {
            let fd = stream.as_raw_fd();
            let res = match io.registered {
                Some(_) => shared.poller.reregister(fd, Self::out_token(j), want),
                None => shared.poller.register(fd, Self::out_token(j), want),
            };
            if res.is_ok() {
                io.registered = Some(want);
            }
        }
    }

    /// Move queued messages into per-peer write batches and flush.
    fn pump_sends(&mut self) {
        for j in 0..self.peers.len() as u16 {
            let Some(slot) = &self.shared.peers[j as usize] else {
                continue;
            };
            let pulled = {
                let mut q = slot.queue.lock();
                if q.control.is_empty() && q.data.is_empty() {
                    false
                } else {
                    let io = self.peers[j as usize].as_mut().expect("peer io");
                    // Drain time closes the NetRtt window opened at
                    // submit — both stamps from this rank's clock.
                    let own = self.shared.own();
                    for m in q.control.drain(..) {
                        own.metric_elapsed(crate::metrics::Instrument::NetRtt, m.submitted);
                        io.batch.push(m.kind, m.bytes);
                    }
                    for m in q.data.drain(..) {
                        own.metric_elapsed(crate::metrics::Instrument::NetRtt, m.submitted);
                        io.batch.push(m.kind, m.bytes);
                    }
                    q.queued_bytes = 0;
                    true
                }
            };
            if pulled {
                slot.room.notify_all();
                if matches!(self.peer_io(j).conn, Conn::Up(_)) {
                    self.flush_peer(j);
                } else if matches!(self.peer_io(j).conn, Conn::Down)
                    && !self.shared.shutting_down.load(Ordering::Acquire)
                {
                    // Raced a dying peer: the queue was closed after
                    // these were enqueued. Kill them loudly now.
                    let dead = self.peer_io(j).batch.drain_msgs();
                    self.shared.kill_undeliverable(j, dead);
                }
            }
        }
    }

    // -- inbound ------------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    self.inbound_seq += 1;
                    let conn = InConn {
                        stream,
                        peer: None,
                        asm: StreamAssembler::new(),
                        hello: [0u8; stream::HANDSHAKE_LEN],
                        hello_got: 0,
                        seq: self.inbound_seq,
                    };
                    let idx = match self.inbound.iter().position(Option::is_none) {
                        Some(i) => {
                            self.inbound[i] = Some(conn);
                            i
                        }
                        None => {
                            self.inbound.push(Some(conn));
                            self.inbound.len() - 1
                        }
                    };
                    if self
                        .shared
                        .poller
                        .register(fd, TOKEN_IN_BASE + idx as u64, Interest::READABLE)
                        .is_err()
                    {
                        self.inbound[idx] = None;
                        continue;
                    }
                    self.arm_timer(
                        Instant::now() + HANDSHAKE_TIMEOUT,
                        TimerKind::HelloTimeout(idx, self.inbound_seq),
                    );
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    fn drop_inbound(&mut self, idx: usize) {
        // Dropping the stream closes the fd, which deregisters it.
        self.inbound[idx] = None;
    }

    /// Readiness on inbound connection `idx`: finish the handshake if
    /// pending, then drain stream messages into the local queues.
    fn inbound_ready(&mut self, idx: usize) {
        let Some(conn) = self.inbound.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        // Handshake phase: read exactly the hello, never beyond.
        while conn.peer.is_none() {
            match conn.stream.read(&mut conn.hello[conn.hello_got..]) {
                Ok(0) => {
                    self.drop_inbound(idx);
                    return;
                }
                Ok(n) => {
                    conn.hello_got += n;
                    if conn.hello_got < stream::HANDSHAKE_LEN {
                        continue;
                    }
                    let peer = match stream::decode_handshake(&conn.hello) {
                        Ok(p)
                            if (p as usize) < self.shared.localities.len()
                                && p != self.shared.rank =>
                        {
                            p
                        }
                        // Stranger, bad hello, or impossible id: drop it
                        // before it touches any runtime state.
                        _ => {
                            self.drop_inbound(idx);
                            return;
                        }
                    };
                    conn.peer = Some(peer);
                    if !self.seen_in[peer as usize] {
                        self.seen_in[peer as usize] = true;
                        self.heard += 1;
                        self.check_barrier();
                    }
                    // Re-borrow (check_barrier needed &mut self).
                    let Some(c) = self.inbound.get_mut(idx).and_then(Option::as_mut) else {
                        return;
                    };
                    let _ = c.stream.set_nodelay(true);
                    return self.inbound_ready(idx);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_inbound(idx);
                    return;
                }
            }
        }
        let peer = conn.peer.expect("handshaked above");
        let mut chunk = vec![0u8; READ_CHUNK];
        let why: &str;
        'conn: loop {
            let n = match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    why = "connection closed";
                    break 'conn;
                }
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    why = "read failed";
                    break 'conn;
                }
            };
            let c = &self.shared.peer(peer).counters;
            c.bytes_recv.fetch_add(n as u64, Ordering::Relaxed);
            conn.asm.feed(&chunk[..n]);
            loop {
                match conn.asm.next_msg() {
                    Ok(Some((kind, body))) => {
                        c.msgs_recv.fetch_add(1, Ordering::Relaxed);
                        self.shared.trace_stream_msg(
                            crate::trace::TraceEventKind::NetRecv,
                            kind,
                            &body,
                            peer,
                        );
                        self.shared.deliver_local(kind, body);
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // Desynchronized stream: unrecoverable for a
                        // length-prefixed protocol. Count it and drop the
                        // connection; the peer's loop will reconnect.
                        self.shared
                            .own()
                            .counters
                            .count_death(FaultCause::Decode, 1);
                        why = "stream desynchronized";
                        break 'conn;
                    }
                }
            }
        }
        self.drop_inbound(idx);
        if !self.shared.shutting_down.load(Ordering::Acquire) {
            // The peer's sending half died. Mark it dead for *our* sends
            // (its inbound connection to us is handled independently) —
            // same transition the per-peer reader threads used to make.
            let drained = self.shared.close_peer(peer, why);
            let mut dead = drained;
            let io = self.peer_io(peer);
            dead.extend(io.batch.drain_msgs());
            self.shared.kill_undeliverable(peer, dead);
        }
    }

    // -- shutdown -----------------------------------------------------------

    /// During shutdown: keep the loop alive while useful flushing
    /// remains, then count leftovers and stop. Returns true to exit.
    fn observe_shutdown(&mut self) -> bool {
        if !self.shared.shutting_down.load(Ordering::Acquire) {
            return false;
        }
        if self.barrier_tx.is_some() {
            self.fail_bootstrap("tcp bootstrap aborted by shutdown".into());
        }
        let deadline = match self.drain_deadline {
            Some(d) => d,
            None => {
                let d = Instant::now() + SHUTDOWN_DRAIN;
                self.drain_deadline = Some(d);
                self.arm_timer(d, TimerKind::Drain);
                // Pull whatever was queued before the queues closed.
                self.pump_sends();
                d
            }
        };
        let mut pending = false;
        for j in 0..self.peers.len() as u16 {
            let Some(io) = &self.peers[j as usize] else {
                continue;
            };
            if matches!(io.conn, Conn::Up(_)) && !(io.hello.is_empty() && io.batch.is_empty()) {
                pending = true;
            }
        }
        if pending && Instant::now() < deadline {
            return false;
        }
        // Count what never made it out (no runtime task: the scheduler
        // may already be gone at teardown).
        for io in self.peers.iter_mut().flatten() {
            let leftovers = io.batch.drain_msgs();
            self.shared.count_deaths(&leftovers);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Value;
    use crate::parcel::Continuation;

    fn test_localities(n: usize) -> Arc<Vec<Arc<Locality>>> {
        Arc::new(
            (0..n)
                .map(|i| Arc::new(Locality::new(LocalityId(i as u16), false)))
                .collect(),
        )
    }

    /// Reserve loopback addresses. (Bind-then-drop: the tiny reuse
    /// race is acceptable in tests.)
    fn free_addrs(n: usize) -> Vec<String> {
        (0..n)
            .map(|_| {
                let l = TcpListener::bind("127.0.0.1:0").unwrap();
                format!("127.0.0.1:{}", l.local_addr().unwrap().port())
            })
            .collect()
    }

    fn boot_pair() -> (TcpTransport, TcpTransport, Arc<Vec<Arc<Locality>>>) {
        let addrs = free_addrs(2);
        let locs_a = test_localities(2);
        let locs_b = test_localities(2);
        let cfg_a = TcpConfig::new(0, addrs.clone());
        let cfg_b = TcpConfig::new(1, addrs);
        // Bootstrap blocks until both sides are up: run one side on a
        // helper thread.
        let b = std::thread::spawn({
            let locs_b = locs_b.clone();
            move || TcpTransport::bootstrap(&cfg_b, locs_b).unwrap()
        });
        let a = TcpTransport::bootstrap(&cfg_a, locs_a).unwrap();
        let b = b.join().unwrap();
        (a, b, locs_b)
    }

    fn noop_parcel(dest: LocalityId) -> Vec<u8> {
        Parcel::new(
            Gid::locality_root(dest),
            crate::sys::NOOP,
            Value::unit(),
            Continuation::none(),
        )
        .encode()
    }

    fn wait_for<T>(mut poll: impl FnMut() -> Option<T>, what: &str) -> T {
        let t0 = Instant::now();
        loop {
            if let Some(v) = poll() {
                return v;
            }
            assert!(t0.elapsed() < Duration::from_secs(10), "timed out: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn mesh_delivers_parcels_frames_and_control() {
        let (a, mut b, locs_b) = boot_pair();
        let bytes = noop_parcel(LocalityId(1));
        a.submit(
            WireMsg::Parcel {
                dest: LocalityId(1),
                staged: false,
                bytes: bytes.clone(),
            },
            bytes.len(),
        );
        let mut frame = px_wire::FrameBuf::with_version(px_wire::FRAME_VERSION_CHECKSUM);
        frame.push_record(&bytes);
        frame.push_record(&bytes);
        let fb = frame.take();
        a.submit(
            WireMsg::Frame {
                dest: LocalityId(1),
                staged: false,
                bytes: fb.clone(),
            },
            fb.len(),
        );
        a.submit(
            WireMsg::Control {
                dest: LocalityId(1),
                bytes: bytes.clone(),
            },
            bytes.len(),
        );
        a.submit(
            WireMsg::Parcel {
                dest: LocalityId(1),
                staged: true,
                bytes: bytes.clone(),
            },
            bytes.len(),
        );
        // No balance state on the test locality: control falls back to
        // the general queue, so injector expects parcel + frame + control.
        let own = &locs_b[1];
        let mut records = 0usize;
        let mut tasks = 0usize;
        wait_for(
            || {
                while let Some(t) = own.injector.steal() {
                    tasks += 1;
                    records += t.parcel_records();
                }
                (tasks >= 3 && records >= 4).then_some(())
            },
            "general-queue messages",
        );
        assert_eq!(tasks, 3, "parcel + frame + control");
        assert_eq!(records, 4, "1 + 2 + 1 records");
        wait_for(|| own.staging.steal().map(drop), "staged parcel");
        wait_for(
            || {
                let stats = a.transport_stats();
                let p1 = stats.peers.iter().find(|p| p.peer == 1).unwrap();
                (p1.msgs_sent == 4).then_some(())
            },
            "send counters",
        );
        let stats = a.transport_stats();
        let p1 = stats.peers.iter().find(|p| p.peer == 1).unwrap();
        assert_eq!(p1.frames_sent, 1);
        assert!(p1.bytes_sent > 0);
        assert!(p1.queue_bytes_hwm > 0, "messages were queued");
        // Receive-side counters live on B.
        wait_for(
            || (b.transport_stats().peers[0].msgs_recv == 4).then_some(()),
            "recv counters",
        );
        let bstats = b.transport_stats();
        let p0 = bstats.peers.iter().find(|p| p.peer == 0).unwrap();
        assert!(p0.reconnects == 0);
        b.shutdown();
        drop(a);
    }

    #[test]
    fn dead_peer_kills_submissions_loudly() {
        let (a, mut b, _locs_b) = boot_pair();
        b.shutdown();
        drop(b);
        // A's loop observes the EOF/refusal and (after the bounded
        // reconnect) marks peer 1 dead; submissions are then killed
        // loudly (counted inline: no runtime is bound in this unit test).
        let own = a.shared.own().clone();
        let t0 = Instant::now();
        loop {
            let bytes = noop_parcel(LocalityId(1));
            let n = bytes.len();
            a.submit(
                WireMsg::Parcel {
                    dest: LocalityId(1),
                    staged: false,
                    bytes,
                },
                n,
            );
            if own
                .counters
                .dead_transport
                .load(std::sync::atomic::Ordering::Relaxed)
                > 0
            {
                break;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "peer death never resolved submissions"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(a);
    }

    #[test]
    fn bootstrap_times_out_without_peer() {
        let addrs = free_addrs(2);
        let mut cfg = TcpConfig::new(0, addrs);
        cfg.bootstrap_timeout = Duration::from_millis(300);
        let locs = test_localities(2);
        let Err(err) = TcpTransport::bootstrap(&cfg, locs) else {
            panic!("bootstrap without a peer must time out");
        };
        assert!(matches!(err, PxError::BadConfig(_)));
    }

    #[test]
    fn closure_tasks_cannot_cross_processes() {
        let (a, b, _locs_b) = boot_pair();
        a.submit(
            WireMsg::Task {
                dest: LocalityId(1),
                task: Task::thread(|_| {}),
            },
            64,
        );
        assert_eq!(
            a.shared
                .own()
                .counters
                .dead_transport
                .load(std::sync::atomic::Ordering::Relaxed),
            1,
            "closure transfer must die loudly"
        );
        drop(a);
        drop(b);
    }

    /// The tentpole invariant at transport level: the whole backend adds
    /// exactly ONE thread per rank, however many peers the mesh has.
    ///
    /// `/proc/self/task` is process-wide and sibling tests run transports
    /// of their own, so the count is taken in a child: this test binary
    /// re-executed with only this test selected.
    #[test]
    fn io_thread_count_is_flat_in_peers() {
        const IN_CHILD: &str = "PX_TCP_THREAD_COUNT_CHILD";
        if std::env::var_os(IN_CHILD).is_none() {
            let status = std::process::Command::new(std::env::current_exe().unwrap())
                .args([
                    "net::tcp::tests::io_thread_count_is_flat_in_peers",
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
        fn count_px_tcp_threads() -> usize {
            let tasks = std::fs::read_dir("/proc/self/task").expect("linux procfs");
            tasks
                .filter_map(|t| {
                    let comm = t.ok()?.path().join("comm");
                    let name = std::fs::read_to_string(comm).ok()?;
                    name.starts_with("px-tcp").then_some(())
                })
                .count()
        }
        // 4-rank mesh, all in this process (4 transports x 1 I/O thread).
        let n = 4;
        let addrs = free_addrs(n);
        let mut handles = Vec::new();
        for rank in 1..n as u16 {
            let addrs = addrs.clone();
            handles.push(std::thread::spawn(move || {
                TcpTransport::bootstrap(&TcpConfig::new(rank, addrs), test_localities(n)).unwrap()
            }));
        }
        let t0 = TcpTransport::bootstrap(&TcpConfig::new(0, addrs), test_localities(n)).unwrap();
        let mut transports = vec![t0];
        for h in handles {
            transports.push(h.join().unwrap());
        }
        assert_eq!(
            count_px_tcp_threads(),
            n,
            "one I/O thread per rank, zero per peer"
        );
        for mut t in transports {
            t.shutdown();
        }
    }
}
