//! The TCP transport backend: localities as separate OS processes,
//! each rank's sockets **read and written by its own workers** — the
//! backend runs no thread.
//!
//! Each process owns exactly one locality (its *rank*) and peers with
//! every other over plain TCP sockets. The byte protocol is
//! [`px_wire::stream`]: a fixed handshake (`magic ++ version ++
//! locality id ++ listen port`), then length-prefixed messages whose
//! bodies are the *same* encoded parcels and (checksummed, version-2)
//! frames the in-process wire carries. The coalescing ports, batching policy, and
//! control-plane lane all sit above the `Transport` seam and work
//! unchanged.
//!
//! ## Thread model: zero transport threads, flat in peer count
//!
//! Every socket is nonblocking and registered with one epoll-based
//! poller ([`px_poll::Poller`] — vendored direct libc declarations, like
//! the other offline stand-ins). The listener, all outbound and inbound
//! connections, bootstrap connect retries and handshake deadlines are
//! multiplexed in one event loop (`io::IoLoop`), and the loop is a value,
//! not a thread: at most one thread at a time holds it (the own
//! locality's poller, `Sleep::try_poll`) and runs a *pass* — wait for
//! readiness, handle it, fire due timers, pull the ports and drain the
//! queues into writes. Retries are *timers* (poll timeouts), not
//! sleep-loops, and once the mesh is up nothing is timed, so an idle
//! mesh makes zero wakeups, batched or not
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
//! The mesh uses one **simplex** connection per ordered peer pair:
//! process `i`'s outgoing connection to `j` carries only `i → j`
//! traffic; `j` reads it as one of its inbound connections. No
//! multiplexing and no duplex framing races — same-peer traffic rides
//! one ordered byte stream.
//!
//! Only rank 0's address is known in advance, and rank 0 keeps the
//! address table. Every other rank dials rank 0 at start, and its hello
//! says which port it listens on; rank 0 records the rank at the IP the
//! connection came from and that port — one rule, whatever address the
//! rank bound — and dials it back. Once every rank has said hello, rank 0
//! sends each the table (`msg_kind::TABLE`, behind the hello on its
//! connection), and each rank dials every peer it has not heard from. A
//! rank dials a peer once, the first time it learns the peer's address,
//! from its hello or from the table; so every dial but the one to rank 0
//! targets a listener that is already bound, and a rank that starts before
//! rank 0 has bound is the only one that waits out a connect retry.
//!
//! `TcpTransport::bootstrap` returns only once this process has
//! connected *to* every peer (handshake flushed) **and** accepted a
//! handshake *from* every peer — so when every rank's
//! `RuntimeBuilder::build` returns, the full N-process mesh exists.
//! Connect attempts retry on a timer until `TcpConfig::bootstrap_timeout`
//! (peers boot in any order).
//!
//! ## Failure semantics
//!
//! **A lost connection is a dead peer.** After bootstrap there is one
//! failure transition, `IoLoop::peer_lost`, and both ways of noticing a
//! loss take it: EOF, error or a desynchronized stream on the inbound
//! connection from the peer, and a write error or hang-up on the
//! outbound one. It closes the peer's send queue, drops the outbound
//! socket, marks the peer **dead** (the dead-letter hook observes one
//! `FaultCause::Transport` fault for the transition), and kills every
//! message still queued or batched — and every one submitted later —
//! *loudly* in `kill_parcel` style: counted under `dead_transport`, with
//! the fault delivered to each parcel's continuation so waiters resolve
//! with `PxError::Fault` in bounded time instead of hanging. Fault
//! delivery is deferred to a scheduler task on the own locality because
//! `submit` may be called under a coalescing-port lock that a fault
//! continuation would need to re-take.
//!
//! The loop never re-dials: whoever answers on a dead peer's address
//! later is not the process whose state the queued parcels were
//! addressed to. A later inbound connection from the peer is still
//! *read* (its parcels execute), but nothing is sent back;
//! rejoin-after-restart is membership, which the ROADMAP parks. What a
//! loss cannot account for is a message the kernel had already accepted
//! in full: it counts as sent, and whether the peer read it before the
//! connection died is unknown to this side.
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

mod io;

use super::{Park, PortSet, Transport, WireMsg};
use crate::action::ActionId;
use crate::error::{Fault, FaultCause, PxError, PxResult};
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
    /// (connects out + handshakes in) before failing loudly.
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
    frames_sent: Counter,
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
    /// Data lane: parcels and frames, in submission order.
    data: VecDeque<OutMsg>,
    /// Bytes across both lanes (bodies only; headers are a fixed tax).
    queued_bytes: usize,
    /// High-watermark of `queued_bytes` plus the write batch's unwritten
    /// bytes: all this side holds toward the peer (backpressure
    /// visibility).
    bytes_hwm: u64,
    /// Closed: peer declared dead or transport shutting down. Submits
    /// must not enqueue — the closing code drained the queues already.
    closed: bool,
}

/// Per-peer send state shared between submitters and the loop.
struct PeerSlot {
    queue: Mutex<SendQueue>,
    /// Signalled when a pass drains room (or the queue closes).
    room: Condvar,
    /// Peer declared unreachable (fast-path mirror of `queue.closed`
    /// outside shutdown).
    dead: AtomicBool,
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
    /// The wire's coalescing ports, once adopted: every pass pulls them
    /// (see [`TcpShared::pull_ports`]).
    ports: OnceLock<Arc<PortSet>>,
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
        let (lane, work) = match kind {
            msg_kind::PARCEL => (Lane::Run, Work::ParcelBytes(body)),
            msg_kind::PARCEL_STAGED => (Lane::Staged, Work::ParcelBytes(body)),
            msg_kind::FRAME => (Lane::Run, Work::ParcelFrame(body)),
            msg_kind::FRAME_STAGED => (Lane::Staged, Work::ParcelFrame(body)),
            msg_kind::CONTROL => (Lane::Control, Work::ParcelBytes(body)),
            // StreamAssembler rejects unknown kinds before this point.
            _ => return self.own().counters.count_death(FaultCause::Decode, 1),
        };
        self.own().deliver(lane, Task::new(work));
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
        for_each_record(msg, body, |rec| {
            if let Some(rec) = rec {
                trace_record(loc, kind, rec, peer);
            }
        });
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
            WireMsg::Parcel { dest, lane, bytes } => {
                let kind = match lane {
                    Lane::Run => msg_kind::PARCEL,
                    Lane::Staged => msg_kind::PARCEL_STAGED,
                    Lane::Control => msg_kind::CONTROL,
                };
                self.send_to_peer(dest, kind, bytes, By::Sender);
            }
            WireMsg::Frame { dest, lane, bytes } => {
                self.send_to_peer(dest, frame_kind(lane), bytes, By::Sender);
            }
        }
    }

    /// A pass's pull: move whatever the coalescing ports toward `dest`
    /// hold into its send queue, ahead of the drain that follows.
    /// Returns `false` when a port was held by a sender and skipped.
    fn pull_ports(&self, dest: LocalityId) -> bool {
        let Some(ports) = self.ports.get() else {
            return true;
        };
        let dest_loc = &self.localities[dest.0 as usize];
        ports.pull(dest, dest_loc, None, |lane, bytes, opened_at| {
            self.send_to_peer(dest, frame_kind(lane), bytes, By::Puller(opened_at));
        })
    }

    /// Queue one message toward `dest` and, from a sender, wake the
    /// loop's holder. A sender's data-lane message blocks while the
    /// peer's queue is at its byte bound; the control lane and a pass's
    /// own pulls never do.
    fn send_to_peer(&self, dest: LocalityId, kind: u8, bytes: Vec<u8>, by: By) {
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
            self.wake_poller();
        }
    }

    /// Wake the thread that holds the loop, if one does: it may be
    /// blocked in the poller's wait. With nobody holding it there is
    /// nobody to wake, and whoever takes it next pulls and drains before
    /// it blocks — the look [`crate::queue::Sleep::poller_held`] orders
    /// after the caller's publication.
    fn wake_poller(&self) {
        if self.own().sleep.poller_held() {
            self.poller.wake();
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
                let kill = move |ctx: &mut crate::runtime::Ctx<'_>| {
                    for (kind, body) in msgs {
                        for_each_record(kind, &body, |rec| {
                            kill_record(ctx.rt_inner(), ctx.locality(), rec, &why)
                        });
                    }
                };
                self.own()
                    .push_task(Task::new(Work::Thread(Box::new(kill))));
            }
        }
    }

    /// Count per-parcel transport deaths without a runtime (no
    /// continuations to fault).
    fn count_deaths(&self, msgs: &[(u8, Vec<u8>)]) {
        let mut records = 0;
        for (kind, body) in msgs {
            for_each_record(*kind, body, |_| records += 1);
        }
        self.own()
            .counters
            .count_death(FaultCause::Transport, records);
    }
}

/// The stream message kind of a coalesced frame bound for `lane`.
fn frame_kind(lane: Lane) -> u8 {
    match lane {
        Lane::Staged => msg_kind::FRAME_STAGED,
        // Control traffic is never coalesced.
        Lane::Run | Lane::Control => msg_kind::FRAME,
    }
}

/// The one reading of "a stream message is one parcel record or a frame
/// of them": call `f` once per record the message carries — `None` for a
/// frame that does not parse, a record whose length prefix is corrupt,
/// and each record the header counted behind that prefix.
fn for_each_record(kind: u8, body: &[u8], mut f: impl FnMut(Option<&[u8]>)) {
    if !matches!(kind, msg_kind::FRAME | msg_kind::FRAME_STAGED) {
        return f(Some(body));
    }
    let Ok(view) = px_wire::FrameView::parse(body) else {
        return f(None);
    };
    let mut seen = 0;
    for rec in view.records() {
        seen += 1;
        f(rec.ok());
    }
    (seen..view.record_count()).for_each(|_| f(None));
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

/// Kill one parcel record of an undeliverable stream message (`None`: a
/// record [`for_each_record`] could not read — counted, nothing to fault).
fn kill_record(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, rec: Option<&[u8]>, why: &str) {
    match rec.map(Parcel::decode) {
        Some(Ok(mut p)) => {
            p.arm(rt);
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
        _ => loc.counters.count_death(FaultCause::Decode, 1),
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
    /// until the full mesh exists (connected + handshake flushed to every
    /// peer, handshake accepted from every peer). Fails loudly after
    /// `cfg.bootstrap_timeout`.
    pub(crate) fn bootstrap(
        cfg: &TcpConfig,
        listener: TcpListener,
        localities: Arc<Vec<Arc<Locality>>>,
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
                    dead: AtomicBool::new(false),
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
            ports: OnceLock::new(),
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
    fn submit(&self, msg: WireMsg, _bytes: usize) {
        self.shared.submit(msg);
    }

    fn adopt_ports(&self, ports: &Arc<PortSet>) -> bool {
        let _ = self.shared.ports.set(ports.clone());
        true
    }

    fn kick(&self, _dest: LocalityId) {
        self.shared.wake_poller();
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
                        msgs_sent: c.msgs_sent.get(),
                        bytes_sent: c.bytes_sent.get(),
                        frames_sent: c.frames_sent.get(),
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

    fn drive(&self, park: Option<Park<'_>>) -> bool {
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
    use crate::parcel::Continuation;

    fn test_localities(n: usize) -> Arc<Vec<Arc<Locality>>> {
        Arc::new(
            (0..n)
                .map(|i| Arc::new(Locality::new(LocalityId(i as u16), false)))
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
    /// and told only rank 0's address: rank 0 on this thread, every other
    /// rank on a thread of its own, joined before this returns.
    fn boot(listeners: Vec<TcpListener>) -> Vec<TcpTransport> {
        let n = listeners.len();
        let addrs = vec![listeners[0].local_addr().unwrap().to_string(); n];
        let mut listeners = listeners.into_iter().enumerate();
        let (_, rank0) = listeners.next().unwrap();
        let others: Vec<_> = listeners
            .map(|(rank, listener)| {
                let cfg = TcpConfig::new(rank as u16, addrs.clone());
                std::thread::spawn(move || {
                    TcpTransport::bootstrap(&cfg, listener, test_localities(n)).unwrap()
                })
            })
            .collect();
        let cfg = TcpConfig::new(0, addrs);
        let mut mesh = vec![TcpTransport::bootstrap(&cfg, rank0, test_localities(n)).unwrap()];
        mesh.extend(others.into_iter().map(|h| h.join().unwrap()));
        mesh
    }

    /// The spend check on the other shape the lexical rule declared out
    /// of scope: a parcel bound by a pattern (`Ok(mut p) =>`), as
    /// [`kill_record`] binds the ones it decodes, with an arm that lets it
    /// fall out of scope. An in-process runtime: the check is the type's,
    /// not the transport's.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "parcel lost: ")]
    fn a_pattern_bound_parcel_dropped_on_one_arm_fails_shutdown() {
        use crate::runtime::{Config, RuntimeBuilder};
        fn kill_unless_traced(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, rec: &[u8]) {
            match Parcel::decode(rec) {
                Ok(mut p) => {
                    p.arm(rt);
                    if p.trace.is_some() {
                        let why = "peer lost".to_string();
                        crate::sched::kill_parcel(rt, loc, p, FaultCause::Transport, why);
                    } // the bug: an untraced `p` is dropped here
                }
                Err(_) => loc.counters.count_death(FaultCause::Decode, 1),
            }
        }
        let rt = RuntimeBuilder::new(Config::small(1, 1)).build().unwrap();
        let rec = crate::sys::bare(Gid::locality_root(LocalityId(0)), crate::sys::NOOP).encode();
        kill_unless_traced(rt.inner(), rt.inner().locality(LocalityId(0)), &rec);
        rt.shutdown();
    }

    fn boot_pair() -> (TcpTransport, TcpTransport, Arc<Vec<Arc<Locality>>>) {
        pair(loopback(2))
    }

    fn pair(listeners: Vec<TcpListener>) -> (TcpTransport, TcpTransport, Arc<Vec<Arc<Locality>>>) {
        let mut mesh = boot(listeners);
        let b = mesh.pop().expect("rank 1");
        let locs_b = b.shared.localities.clone();
        (mesh.pop().expect("rank 0"), b, locs_b)
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

    /// Poll until `poll` answers, running a nonblocking pass of each of
    /// `drive`'s loops from this thread first each time — the call an
    /// idle worker makes, without the park.
    fn wait_for<T>(drive: &[&dyn Transport], mut poll: impl FnMut() -> Option<T>, what: &str) -> T {
        let t0 = Instant::now();
        loop {
            for t in drive {
                t.drive(None);
            }
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
                lane: Lane::Run,
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
                lane: Lane::Run,
                bytes: fb.clone(),
            },
            fb.len(),
        );
        a.submit(
            WireMsg::Parcel {
                dest: LocalityId(1),
                lane: Lane::Control,
                bytes: bytes.clone(),
            },
            bytes.len(),
        );
        a.submit(
            WireMsg::Parcel {
                dest: LocalityId(1),
                lane: Lane::Staged,
                bytes: bytes.clone(),
            },
            bytes.len(),
        );
        // Each lane's queue gets its own: parcel + frame on the general
        // queue, the control parcel on the control queue (no balance
        // state on the test locality — the lane does not need one).
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
        assert_eq!(tasks, 2, "parcel + frame");
        assert_eq!(records, 3, "1 + 2 records");
        let control = wait_for(&both, || own.control.steal(), "control parcel");
        assert_eq!(control.parcel_records(), 1);
        wait_for(&both, || own.staging.steal().map(drop), "staged parcel");
        let stats = a.transport_stats();
        let p1 = stats.peers.iter().find(|p| p.peer == 1).unwrap();
        assert_eq!((p1.msgs_sent, p1.frames_sent), (4, 1));
        assert!(p1.bytes_sent > 0);
        assert!(p1.queue_bytes_hwm > 0, "messages were queued");
        // Receive-side counters live on B.
        let bstats = b.transport_stats();
        let p0 = bstats.peers.iter().find(|p| p.peer == 0).unwrap();
        assert_eq!((p0.msgs_recv, p0.reconnects), (4, 0));
        b.shutdown();
        drop(a);
    }

    #[test]
    fn dead_peer_kills_submissions_loudly() {
        let (a, mut b, _locs_b) = boot_pair();
        b.shutdown();
        drop(b);
        // A's loop observes the EOF and marks peer 1 dead; submissions
        // are then killed loudly (counted inline: no runtime is bound in
        // this unit test).
        let own = a.shared.own().clone();
        let submit = || {
            let bytes = noop_parcel(LocalityId(1));
            let (dest, lane, n) = (LocalityId(1), Lane::Run, bytes.len());
            a.submit(WireMsg::Parcel { dest, lane, bytes }, n);
            (own.counters.dead_transport.get() > 0).then_some(())
        };
        wait_for(&[&a], submit, "peer death resolving submissions");
        drop(a);
    }

    /// After rank 1 goes away, rank 0 must not find whoever listens at
    /// its address: the peer is dead, nothing dials, and every later
    /// submission dies loudly instead of landing in a stranger's socket.
    /// The impostor is rank 1's own listening socket, kept open past rank
    /// 1's shutdown, so no other process can take the port meanwhile.
    #[test]
    fn a_lost_connection_is_a_dead_peer() {
        let listeners = loopback(2);
        let impostor = listeners[1].try_clone().unwrap();
        let (a, mut b, _locs_b) = pair(listeners);
        b.shutdown();
        drop(b);
        impostor.set_nonblocking(true).unwrap();
        let peer = a.shared.peer(1);
        wait_for(
            &[&a],
            || peer.dead.load(Ordering::Acquire).then_some(()),
            "rank 0 to declare rank 1 dead",
        );
        let own = a.shared.own();
        let dead_transport = || own.counters.dead_transport.get();
        let before = dead_transport();
        for _ in 0..50 {
            let bytes = noop_parcel(LocalityId(1));
            let (dest, lane, n) = (LocalityId(1), Lane::Run, bytes.len());
            a.submit(WireMsg::Parcel { dest, lane, bytes }, n);
        }
        assert_eq!(dead_transport() - before, 50, "each dies loudly");
        let t0 = Instant::now();
        while t0.elapsed() < 10 * io::CONNECT_RETRY {
            a.drive(None);
            assert!(impostor.accept().is_err(), "rank 0 dialled a dead peer");
            std::thread::sleep(Duration::from_millis(1));
        }
        let p1 = a.transport_stats().peers[0];
        assert_eq!((p1.reconnects, p1.msgs_sent), (0, 0));
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
        use crate::net::{BatchPolicy, Wire};
        const N: u64 = 20_000;
        let (a, mut b, locs_b) = boot_pair();
        let locs_a = a.shared.localities.clone();
        let mut wire = Wire::new(Arc::new(a), locs_a.clone(), BatchPolicy::new(4));
        let dest = LocalityId(1);
        let mut next = 0u64;
        let mut arrived_through = |sent: u64| {
            wait_for(
                &[&b],
                || {
                    wire.drive(None);
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
            wire.send_parcel(dest, p);
            if n % 1001 == 1000 {
                arrived_through(n + 1);
            }
        }
        arrived_through(N);
        let sent = &locs_a[1].counters;
        let (full, pulled) = (sent.batch_flush_full.get(), sent.batch_flush_pulled.get());
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
        let (a, mut b, _locs_b) = boot_pair();
        let shared = a.shared.clone();
        let dest = LocalityId(1);
        // Full by the books while holding nothing: a drain subtracts only
        // what it moves.
        shared.peer(1).queue.lock().queued_bytes = SEND_QUEUE_BYTES;
        let t0 = Instant::now();
        let bytes = noop_parcel(dest);
        shared.send_to_peer(dest, msg_kind::PARCEL, bytes, By::Puller(None));
        // A blocked sender never gives up.
        assert!(
            t0.elapsed() < Duration::from_millis(50),
            "the puller waited"
        );
        let sender = std::thread::spawn({
            let shared = shared.clone();
            move || shared.send_to_peer(dest, msg_kind::PARCEL, noop_parcel(dest), By::Sender)
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
            shared.own().sleep.poller_held(),
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
        let Err(err) = TcpTransport::bootstrap(&cfg, loopback(1).remove(0), locs) else {
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
                task: Task::new(Work::Thread(Box::new(|_| {}))),
            },
            64,
        );
        assert_eq!(
            a.shared.own().counters.dead_transport.get(),
            1,
            "closure transfer must die loudly"
        );
        drop(a);
        drop(b);
    }

    /// The TCP backend starts no thread: a rank's sockets are read and
    /// written by whoever runs its loop — the bootstrapping thread, then
    /// the workers — however many peers the mesh has.
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
        let before = threads();
        // A 4-rank mesh, all in this process: each rank bootstraps on a
        // thread of this test's own, joined before the count.
        let n = 4;
        let transports = boot(loopback(n));
        // Traffic on every connection, carried by this thread's passes.
        for (i, t) in transports.iter().enumerate() {
            for j in (0..n).filter(|&j| j != i) {
                let (dest, lane) = (LocalityId(j as u16), Lane::Run);
                let bytes = noop_parcel(dest);
                t.submit(WireMsg::Parcel { dest, lane, bytes }, 0);
            }
        }
        let all: Vec<&dyn Transport> = transports.iter().map(|t| t as &dyn Transport).collect();
        let delivered = || {
            let got = transports.iter().map(|t| t.shared.own().injector.len());
            (got.sum::<usize>() == n * (n - 1)).then_some(())
        };
        wait_for(&all, delivered, "a message on every connection");
        assert_eq!(threads(), before, "the backend started a thread");
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
    /// up on its first attempt — to rank 0, back from it, and (at 4 ranks)
    /// between ranks that learned each other from the table or a hello.
    #[test]
    fn every_connection_comes_up_on_its_first_attempt() {
        for n in [2, 4] {
            let mesh = boot(loopback(n));
            assert_eq!(
                attempts_with_tables(&mesh),
                vec![vec![1; n - 1]; n],
                "{n} ranks"
            );
        }
    }

    /// Only rank 0 sends a table, and only once. A table on another
    /// rank's connection (forged to rank 0 as rank 1), or a second one
    /// (forged to rank 1 as rank 0), desynchronizes that stream: the
    /// peer is lost, the event counts as a `Decode` death, and nothing is
    /// dialled.
    #[test]
    fn a_stray_table_is_a_desynchronized_stream() {
        use px_wire::stream::{encode_handshake, encode_msg_header, encode_table};
        use std::io::Write;
        for (at, claims) in [(0usize, 1u16), (1, 0)] {
            let listeners = loopback(2);
            let addr = listeners[at].local_addr().unwrap();
            let mesh = boot(listeners);
            let before = attempts_with_tables(&mesh);
            let table = encode_table(&[addr; 2]);
            let mut forger = std::net::TcpStream::connect(addr).unwrap();
            forger.write_all(&encode_handshake(claims, 0)).unwrap();
            let header = encode_msg_header(msg_kind::TABLE, table.len() as u32);
            forger.write_all(&[&header[..], &table].concat()).unwrap();
            let own = mesh[at].shared.own();
            let all: Vec<&dyn Transport> = mesh.iter().map(|t| t as &dyn Transport).collect();
            let refused = || (own.counters.dead_decode.get() == 1).then_some(());
            wait_for(&all, refused, "the stray table refused");
            let lost = mesh[at].shared.peer(claims).dead.load(Ordering::Acquire);
            assert!(lost, "rank {at} still trusts rank {claims}");
            assert_eq!(
                attempts_with_tables(&mesh),
                before,
                "a stray table was learned"
            );
        }
    }
}
