//! The wire layer: inter-locality transport behind a backend-independent
//! `Transport` seam, with per-destination parcel batching.
//!
//! ## Architecture
//!
//! ```text
//!  send_parcel ─┬─ control lane, or unbatched: a frame of one ──┐
//!               └► PortSet (per-dest coalescing) ─ full frames ─┼─► Transport::submit
//!  send_task ───── closure task ────────────────────────────────┘           │
//!                    ▲    ▲                                          ┌──────┴───────┐
//!                    │    │                                          ▼              ▼
//!                    │    │                                   InProcTransport TcpTransport
//!                    │    │                                     (the dest's   (sockets, one
//!                    │    │                                     timer heap)   peer/process)
//!                    │    └─ the destination's next pass ────────────┘              │
//!                    └── this rank's loop's next pass ──────────────────────────────┘
//!        a pass: the worker holding the locality's poller (`drive`)
//! ```
//!
//! Everything above the `Transport` trait — the frame every parcel
//! crosses in, the control-plane priority lane, the coalescing ports
//! (`PortSet`), send and flush accounting — is backend-independent, and
//! `Wire` is the only caller of `Transport::submit` (its `transport`
//! is private): a parcel leaves one way. A frame that did not fill is
//! shipped by the next pass of the loop that carries it. The builder
//! knows the backend, so it builds the ports for the backend's
//! constructor, in the backend's frame version, or none for an instant
//! in-process wire. Two backends exist:
//!
//! * `inproc::InProcTransport` (default): all localities share one OS
//!   process; a message is a task put on the destination locality's
//!   timer heap, due after the injectable latency/bandwidth of a
//!   [`WireModel`] charged on the frame's length, and queued there by
//!   that locality's own worker — straight away on an instant wire.
//!   Frames are version 1: no integrity trailer.
//! * `tcp::TcpTransport`: each OS process owns one locality and peers
//!   over TCP sockets carrying the same frames inside [`px_wire::stream`]
//!   messages, checksummed (version 2).
//!
//! ## The `Transport` contract
//!
//! A backend implements `Transport` and must honor, in order of
//! importance:
//!
//! 1. **No silent loss.** A parcel that cannot be delivered dies
//!    *loudly*, through `RuntimeInner::record_death`, which counts it
//!    (by cause) and tells the dead-letter hook in one call, its fault
//!    delivered to its continuation so waiters resolve with
//!    `PxError::Fault` instead of hanging; bytes that do not read as
//!    parcels die the same way, as `Decode`. Only with no runtime to tell
//!    (none bound, or teardown) does a backend count a death alone. A
//!    parcel has three ends and no others — `sched::complete`,
//!    `sched::kill_parcel`, or a by-value encode onto the wire
//!    (`Parcel::ship_into`, called by `Wire::send_parcel` alone) — and
//!    debug builds fail the driver of a runtime that drops one it had
//!    taken charge of anywhere else (the spend obligation,
//!    [`crate::parcel`]). A lost rank is one transition, above the seam,
//!    for both backends: `Wire::lose`. The hook hears of the rank once;
//!    every record handed over dies as `Transport`; from then on a parcel
//!    or closure task for the rank dies at its sender, before the wire.
//!    Over TCP a lost connection is a dead peer (`peer_lost` hands over
//!    its queue and write batch), never re-established: a resend cannot
//!    tell what the peer consumed, and whoever answers at the old address
//!    need not be the peer. In-process only a stepped test kills a
//!    locality (`Stepped::kill`, handing over the frames on its heap and
//!    the ports toward it, and killing the closures on its heap). Still
//!    open: a message handed to the kernel in full
//!    counts as sent, read or not; the stepped twin of that window is
//!    what the killed locality's own queues held, abandoned with it.
//! 2. **Queue discipline at the destination.** A `WireMsg::Frame` lands
//!    in the queue its `Lane` names: the general run queue, the staging
//!    buffer, or — frames of one, never coalesced and never behind data
//!    backlog — the priority control queue, which every locality has
//!    whether or not the balancer runs; `WireMsg::Task` is an in-memory
//!    closure handoff to another locality of this process, which a
//!    backend that crosses address spaces is never handed. The control
//!    lane carries balancer gossip *and* `__sys/metrics_pull` requests:
//!    both are how a rank observes a struggling peer, so a backend may
//!    not drop or delay them under data-lane backpressure — the moments
//!    the data lane is saturated are exactly the moments the
//!    observability plane must still answer. The distributed AGAS rides
//!    the same lane — every leg of a move (`__sys/agas_migrate`,
//!    `dir_install`, `dir_update`, `dir_commit`), `dir_lookup`,
//!    `dir_repair`, and the reply to each (see `crate::sys`): a chase
//!    that must ask an object's home, the legs of a move that holds every
//!    parcel for its object parked, and the commit that unpins the
//!    destination copy are all on the critical path of every parcel
//!    *stuck behind* the data backlog, so queueing them with the data
//!    they unblock would deadlock the hot path against its own repair
//!    traffic. The directory ops are idempotent and individually small;
//!    what the backend owes them is ordering-free prompt delivery and the
//!    same loud-death rule — a lost `dir_update` is repaired by the next
//!    chase, but only if the loss is *visible* (counted, continuation
//!    faulted) rather than silent.
//! 3. **Submission is non-blocking-ish.** `submit` hands the message to
//!    the backend and returns. In-process it arms the message on the
//!    destination's timer heap and kicks the holder of that locality's
//!    poller when it is the earliest; the holder queues it once due. Over
//!    TCP it queues the message and wakes the event loop's holder; socket
//!    I/O happens on whichever thread runs the loop — a worker that ran
//!    out of work, a busy one every few dozen tasks — and on a sender
//!    that is blocked on room: a submit may block for backpressure (a
//!    bounded peer queue in *bytes*; the control lane is exempt so gossip
//!    never waits behind the backlog it reports), and while it does, it
//!    runs the loop itself if nobody else is, because it is the thread
//!    that makes the room. It must never deadlock against the port
//!    locks: fault delivery triggered *inside* `submit` is deferred to a
//!    scheduler task, because the caller may hold the coalescing-port
//!    lock of the very destination a fault continuation routes back to.
//!    Peer-loss faults therefore surface *after* `submit` returns, in
//!    bounded time — not as a submit error.
//! 4. **Shutdown flushes the wire and abandons the rest.** Pending
//!    messages are delivered (or killed loudly) before the transport's
//!    `shutdown` returns; afterwards `submit` is a silent no-op so
//!    teardown races stay benign. *Delivered* means queued at the
//!    destination, and a queue is only as good as its workers:
//!    `Runtime::shutdown` lets every worker run its queues dry before it
//!    exits, so what was queued before a locality's last look runs; a
//!    task that arrives later — from a locality still draining, a driver
//!    that keeps sending, the wire's teardown flush — is **abandoned by
//!    decision**: not run, not dead-lettered, its continuation not
//!    applied, dropped with the queue that holds it. Whoever needs the
//!    answer waits for it before shutting down. The debug-build spend
//!    check knows this one exemption, in one place: its log closes when
//!    `Runtime::shutdown` has joined the workers
//!    (`shutdown_runs_what_is_queued_and_abandons_what_arrives_after`).
//! 5. **Parcel bytes are opaque — including trace extensions.** A
//!    backend carries frames and their parcel records verbatim: it
//!    must not strip, reorder, or re-encode the flags byte or the
//!    optional extensions it gates (the owning pid and the
//!    `parcel_flags::HAS_TRACE` trace id — see [`crate::trace`]).
//!    Cross-rank causal tracing depends on the trace id arriving
//!    bit-identical at the destination; a backend that wants to observe
//!    it peeks ([`Parcel::peek_trace`]) rather than decodes.
//!
//! ## Batching (`PortSet`)
//!
//! Per-parcel transport overhead — a `Vec` allocation, a channel or
//! socket submission, an injector push, and a worker wakeup for every
//! message — dominates at fine grain (the AMT overhead studies in
//! PAPERS.md measure exactly this). When batching is enabled, each
//! sender-visible destination gets a **port**: a coalescing
//! [`px_wire::FrameBuf`] into which parcels are encoded *in place*. A
//! port flushes its frame as one wire message when it reaches
//! `max_batch_parcels` records or [`MAX_BATCH_BYTES`] bytes (the sender
//! does that itself). A frame that does not fill leaves by one rule on
//! both backends: the sender whose record lands in an *empty* port kicks
//! the loop that carries it — the destination locality's in-process,
//! this rank's over TCP — and that loop's next pass pulls the port:
//! whatever gathered there meanwhile rides one frame. No timer: batching
//! is paid for by load. Over TCP the kick wakes the loop's holder
//! (skipped when nobody holds it: whoever takes the loop next pulls
//! first); in-process it rings the destination's heap, which a busy
//! destination's worker sees after its running task (`clock::Heap::due`).
//! Every pass pulls both lanes' ports under the port lock (port → peer
//! queue or heap, the nesting a sender's full flush takes, so
//! same-destination order holds across both): over TCP toward each peer,
//! in-process toward its own locality, each frame going on its heap after
//! the wire's delay. Either way the wire runs no thread of its own, an
//! idle runtime makes no wakeups, and the shutdown drain pulls every port.
//!
//! The in-process delay model is applied per frame
//! (`delay_for(frame_bytes)`), so the latency and bandwidth arithmetic
//! stays honest while the fixed per-message costs amortize across the
//! batch.
//!
//! Ordering: under a pure-latency model, parcels to the same destination
//! stay in submission order within and across frames (a port's frames
//! ride the same `(time, seq)` queue the frames of one do). Two
//! relaxations, both of the "simultaneous messages are unordered, like a
//! real network" kind the pre-batching wire already documented:
//!
//! * with a nonzero `ns_per_byte` the delay is size-dependent, so a
//!   small frame submitted after a large one can overtake it at a frame
//!   boundary (unbatched, every parcel is a frame of its own);
//! * direct task transfers (`spawn_at` closures) do not pass through the
//!   ports — a task sent after a still-coalescing parcel can overtake it
//!   while it waits for the destination's next pass (in-process; closures do not
//!   cross the TCP backend at all). Code that needs a parcel's effects
//!   visible to a subsequently spawned closure must sequence through an
//!   LCO, not through submission order.
//!
//! Over TCP both relaxations hold trivially (the network reorders
//! nothing per connection, but every frame toward a peer shares one
//! ordered byte stream, so same-peer order is in fact *stronger*
//! than the timer heap's). What is ordered is *delivery* into the
//! destination's queue; a worker's batch-steal runs what it takes newest
//! first, on either backend.
//!
//! Messages are frames — a port's, or a frame of one parcel (they pay
//! the serialization cost honestly, plus 9 bytes of framing: the 5-byte
//! frame header and a record's 4-byte length) — or boxed tasks (closure
//! transfers used by `spawn_at`, which model the in-memory handoff of a
//! depleted thread and are charged a nominal `TASK_BYTES`).

pub(crate) mod inproc;
pub mod tcp;

pub use tcp::TcpConfig;

use crate::action::ActionId;
use crate::error::{Fault, FaultCause};
use crate::gid::{Gid, LocalityId};
use crate::locality::{Lane, Locality};
use crate::parcel::Parcel;
use crate::runtime::{Ctx, RuntimeInner};
use crate::sched::{decode_record, kill_parcel, Task, Work};
use crate::stats::{bump, Counter, TransportStats};
use crate::trace::TraceEventKind;
use parking_lot::Mutex;
use px_wire::{FrameBuf, WireError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency/bandwidth model for the in-process wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireModel {
    /// Fixed one-way latency added to every cross-locality message.
    pub latency: Duration,
    /// Serialization cost in nanoseconds per payload byte (0 = infinite
    /// bandwidth).
    pub ns_per_byte: u64,
}

impl WireModel {
    /// Zero-cost wire (direct delivery, nothing timed).
    pub fn instant() -> Self {
        WireModel {
            latency: Duration::ZERO,
            ns_per_byte: 0,
        }
    }

    /// Fixed latency, infinite bandwidth.
    pub fn with_latency(latency: Duration) -> Self {
        WireModel {
            latency,
            ns_per_byte: 0,
        }
    }

    /// True if messages skip the timer heap.
    pub fn is_instant(&self) -> bool {
        self.latency.is_zero() && self.ns_per_byte == 0
    }

    /// Delay for a message of `bytes`.
    #[inline]
    pub fn delay_for(&self, bytes: usize) -> Duration {
        self.latency + Duration::from_nanos(self.ns_per_byte * bytes as u64)
    }
}

/// Byte budget of a coalesced frame: a port flushes on reaching it.
pub const MAX_BATCH_BYTES: usize = 32 * 1024;

/// A message in flight between localities.
pub(crate) enum WireMsg {
    /// A frame of encoded parcels: a coalescing port's, or a frame of one
    /// — a control-lane parcel, or any parcel when batching is off.
    Frame {
        /// Destination locality.
        dest: LocalityId,
        /// The destination queue it lands in.
        lane: Lane,
        /// Encoded frame bytes (see [`px_wire::FrameBuf`]).
        bytes: Vec<u8>,
    },
    /// Direct task transfer between localities of one OS process
    /// (closures do not serialize: `RuntimeInner::send_task` kills one
    /// bound for another process before the wire).
    Task {
        /// Destination locality.
        dest: LocalityId,
        /// The task to enqueue.
        task: Task,
    },
}

/// One parcel record of a frame, or the error that hid it.
pub(crate) type Record<'a> = Result<&'a [u8], &'a WireError>;

/// The one reading of "a wire message is a frame of parcel records":
/// call `f` once per record the frame carries. A frame that does not
/// parse is one call with its error; a corrupt length prefix is one call
/// for its record and one for each record the header counted behind it,
/// all with the prefix's error.
#[inline]
pub(crate) fn for_each_record(frame: &[u8], mut f: impl FnMut(Record<'_>)) {
    let view = match px_wire::FrameView::parse(frame) {
        Ok(view) => view,
        Err(e) => return f(Err(&e)),
    };
    let mut left = view.record_count();
    for rec in view.records() {
        left -= 1;
        match rec {
            Ok(rec) => f(Ok(rec)),
            Err(e) => return (0..=left).for_each(|_| f(Err(&e))),
        }
    }
}

/// Bytes a closure task is charged on the wire: a nominal header.
pub(crate) const TASK_BYTES: usize = 64;

/// The backend seam of the wire layer. See the module docs for the full
/// contract (loud failure, queue discipline, deferred fault delivery,
/// flush-on-shutdown).
pub(crate) trait Transport: Send + Sync {
    /// Deliver `msg` toward its destination, charging whatever
    /// latency/bandwidth physics the backend has by the message's size (a
    /// frame's length, [`TASK_BYTES`] for a task). Called by the wire
    /// alone: frames of one, full frames, tasks.
    fn submit(&self, msg: WireMsg);

    /// One pass of locality `at`'s loop on this thread, unless another
    /// holds it (`false`): fire its due timers, pull the ports it carries
    /// (toward `at` in-process, toward every peer over TCP) and over TCP
    /// read and write. With `park`, then the loop's blocking wait, bounded
    /// by the earliest timer. Called by `at`'s workers (`sched::Worker`):
    /// an idle one with `park`, a busy one between tasks without.
    fn drive(&self, at: LocalityId, park: Option<Park<'_>>) -> bool;

    /// Late-bind the runtime (needed for fault delivery: a transport is
    /// constructed before the `RuntimeInner` that owns it). Called by
    /// `RuntimeBuilder::build`.
    fn bind(&self, _rt: &Arc<crate::runtime::RuntimeInner>) {}

    /// Per-peer transport statistics (empty for in-process). Called by
    /// `Runtime::stats`.
    fn transport_stats(&self) -> TransportStats {
        TransportStats::default()
    }

    /// Stop the backend, flushing or loudly killing pending messages
    /// first: in-process the heaps' arrivals are queued at once, over TCP
    /// the event loop flushes on the calling thread. Called by the wire —
    /// the transport's one holder — with the ports drained.
    fn shutdown(&mut self);
}

/// What [`Transport::drive`] hands the loop's blocking wait to.
pub(crate) type Park<'a> = &'a mut dyn FnMut(&mut dyn FnMut());

/// One coalescing queue: pending frame plus when its oldest record landed.
struct Port {
    frame: FrameBuf,
    /// Stamped when a record lands in the empty port: the `NetRtt` stamp
    /// of a pulled frame.
    opened_at: Option<Instant>,
}

impl Port {
    /// Take the pending frame and its stamp (`None` when empty), booked
    /// under `cause`: `batch_flush_full` (the sender, at the cap) or
    /// `batch_flush_pulled` (a backend's pass, or the shutdown drain). The
    /// caller ships it while still holding the port lock, so frames reach
    /// the backend in the order their records reached the port.
    fn take(&mut self, cause: &Counter, dest_loc: &Locality) -> Option<(Vec<u8>, Option<Instant>)> {
        if self.frame.is_empty() {
            return None;
        }
        let records = u64::from(self.frame.record_count());
        bump!(dest_loc.counters().frames_sent);
        // Counted at flush, under the port lock, so coalesced_parcels and
        // frames_sent advance together and their ratio never exceeds the cap.
        bump!(dest_loc.counters().coalesced_parcels, records - 1);
        bump!(cause);
        Some((self.frame.take(), self.opened_at.take()))
    }
}

/// Per-destination coalescing ports, one per data lane (index =
/// `dest * 2 + staged`), so percolation traffic batches separately from
/// general parcels and a frame is homogeneous in its delivery queue.
pub(crate) struct PortSet {
    /// A port flushes when its frame holds this many parcels
    /// ([`crate::runtime::Config::max_batch_parcels`]).
    max_batch_parcels: usize,
    ports: Vec<Mutex<Port>>,
}

impl PortSet {
    /// The ports for `localities` destinations, flushing at
    /// `max_batch_parcels` records (or [`MAX_BATCH_BYTES`]) and encoding
    /// frames of `frame_version` ([`px_wire::FRAME_VERSION`] in-process —
    /// bit-identical frames — [`px_wire::FRAME_VERSION_CHECKSUM`] across
    /// process boundaries); none when `max_batch_parcels` is 1 — batching
    /// off, every parcel ships in a frame of one, so latency-sensitive
    /// request/response chains see no added delay.
    pub(crate) fn new(
        max_batch_parcels: usize,
        localities: usize,
        frame_version: u8,
    ) -> Option<Arc<PortSet>> {
        let port = |_| {
            Mutex::new(Port {
                frame: FrameBuf::with_version(frame_version),
                opened_at: None,
            })
        };
        (max_batch_parcels > 1).then(|| {
            Arc::new(PortSet {
                max_batch_parcels,
                ports: (0..localities * 2).map(port).collect(),
            })
        })
    }

    #[inline]
    fn port(&self, dest: LocalityId, lane: Lane) -> &Mutex<Port> {
        &self.ports[dest.0 as usize * 2 + usize::from(lane == Lane::Staged)]
    }

    /// The backend's half: hand `ship` whatever both lanes' ports toward
    /// `dest` hold, with the stamp of each frame's oldest record, booked
    /// `batch_flush_pulled`. `ship` runs under the port lock (the nesting
    /// a sender's full flush takes), so same-destination order holds.
    /// Never waits for a port: a sender may hold one while blocked on the
    /// very queue the puller drains. Returns `false` when a held port was
    /// skipped — the caller pulls again once it has drained.
    pub(crate) fn pull(
        &self,
        dest: LocalityId,
        dest_loc: &Locality,
        mut ship: impl FnMut(Lane, Vec<u8>, Option<Instant>),
    ) -> bool {
        let (mut all, pulled) = (true, &dest_loc.counters().batch_flush_pulled);
        for lane in [Lane::Run, Lane::Staged] {
            let Some(mut port) = self.port(dest, lane).try_lock() else {
                all = false;
                continue;
            };
            if let Some((bytes, opened_at)) = port.take(pulled, dest_loc) {
                ship(lane, bytes, opened_at);
            }
        }
        all
    }
}

/// The runtime's wire: coalescing ports in front of a `Transport`
/// backend sinking into locality run queues (through the destination's
/// timer heap in-process, over sockets across OS processes), and the only
/// way onto it: [`Wire::send_parcel`] and [`Wire::send_task`] each book
/// their sender's `parcels_sent` and `bytes_sent` once.
pub(crate) struct Wire {
    transport: Arc<dyn Transport>,
    /// The ports, when the wire batches (the backend holds them too).
    ports: Option<Arc<PortSet>>,
    /// The frame version the backend carries: [`px_wire::FRAME_VERSION`]
    /// in-process, [`px_wire::FRAME_VERSION_CHECKSUM`] over TCP.
    version: u8,
    localities: Arc<Vec<Arc<Locality>>>,
    /// Over TCP, the locality whose loop carries all traffic; in-process
    /// (`None`) each destination's loop pulls toward it.
    owned: Option<LocalityId>,
    /// One flag per rank, set for good by [`Wire::lose`].
    lost: Vec<AtomicBool>,
}

impl Wire {
    /// Build the wire over `transport` for `localities`, with the ports
    /// `transport` was built with, shipping frames of `version`.
    pub(crate) fn new(
        transport: Arc<dyn Transport>,
        localities: Arc<Vec<Arc<Locality>>>,
        ports: Option<Arc<PortSet>>,
        version: u8,
        owned: Option<LocalityId>,
    ) -> Wire {
        let lost = localities.iter().map(|_| AtomicBool::new(false)).collect();
        Wire {
            transport,
            ports,
            version,
            localities,
            owned,
            lost,
        }
    }

    /// Encode one parcel from `from` toward `dest`'s `lane`. The parcel
    /// ends here, by value (`Parcel::ship_into`): its bytes are the
    /// transport's from now on. A control-lane parcel, and any parcel
    /// when the policy does not batch, leaves at once as a frame of one;
    /// the rest coalesce in the destination's port. A parcel for a lost
    /// rank is not encoded: it dies as itself, in a task of the sender's
    /// (the caller may hold a port lock its continuation needs).
    pub(crate) fn send_parcel(&self, from: LocalityId, dest: LocalityId, lane: Lane, p: Parcel) {
        let sender = &self.localities[from.0 as usize];
        let counters = sender.counters();
        bump!(counters.parcels_sent);
        if self.is_lost(dest) {
            let kill = move |ctx: &mut Ctx<'_>| kill_lost(ctx, p, dest);
            return sender.push_task(Task::new(Work::Thread(Box::new(kill))));
        }
        let dest_loc = &self.localities[dest.0 as usize];
        let ports = self.ports.as_ref().filter(|_| lane != Lane::Control);
        let Some(ports) = ports else {
            let bytes = FrameBuf::of_one(self.version, p.wire_size(), |w| p.ship_into(w));
            bump!(counters.bytes_sent, bytes.len() as u64);
            bump!(dest_loc.counters().frames_sent);
            return self.transport.submit(WireMsg::Frame { dest, lane, bytes });
        };
        let mut port = ports.port(dest, lane).lock();
        let was_empty = port.frame.is_empty();
        if was_empty {
            port.opened_at = Some(Instant::now());
        }
        // Book the record's full wire footprint (parcel + length prefix)
        // so `bytes_sent` tracks what the delay model charges; of the
        // frame, only the fixed 5-byte header goes unattributed.
        let n = port.frame.push_record_with(|w| p.ship_into(w)) + px_wire::RECORD_HEADER_LEN;
        bump!(counters.bytes_sent, n as u64);
        if port.frame.record_count() as usize >= ports.max_batch_parcels
            || port.frame.len() >= MAX_BATCH_BYTES
        {
            if let Some((bytes, _)) = port.take(&dest_loc.counters().batch_flush_full, dest_loc) {
                self.transport.submit(WireMsg::Frame { dest, lane, bytes });
            }
        } else if was_empty {
            // The first record of an idle port: the loop that carries it
            // hears of it now, outside the port lock. Later records ride
            // on this kick — the port stays non-empty until the flush it
            // causes. In-process the destination's heap is rung, so a
            // busy destination runs its pass after its next task.
            drop(port);
            match self.owned {
                Some(own) => self.localities[own.0 as usize].sleep.kick(),
                None => dest_loc.timers.ring(),
            }
        }
    }

    /// Hand a closure task from `from` to `dest`'s run queue, booked as
    /// one message of [`TASK_BYTES`]. Both are localities of this OS
    /// process (`RuntimeInner::send_task` sees to that).
    pub(crate) fn send_task(&self, from: LocalityId, dest: LocalityId, task: Task) {
        let counters = self.localities[from.0 as usize].counters();
        bump!(counters.parcels_sent);
        bump!(counters.bytes_sent, TASK_BYTES as u64);
        self.transport.submit(WireMsg::Task { dest, task });
    }

    /// [`Transport::drive`] on the backend.
    pub(crate) fn drive(&self, at: LocalityId, park: Option<Park<'_>>) -> bool {
        self.transport.drive(at, park)
    }

    /// [`Transport::bind`] on the backend.
    pub(crate) fn bind(&self, rt: &Arc<crate::runtime::RuntimeInner>) {
        self.transport.bind(rt);
    }

    /// [`Transport::transport_stats`] of the backend.
    pub(crate) fn transport_stats(&self) -> TransportStats {
        self.transport.transport_stats()
    }

    /// True once `rank` is lost ([`Wire::lose`]).
    #[inline]
    pub(crate) fn is_lost(&self, rank: LocalityId) -> bool {
        self.lost[rank.0 as usize].load(Ordering::Acquire)
    }

    /// The one loss transition: `rank` is gone for good. The first call
    /// marks it lost, traces `NetFault` under the never-sampled id 0,
    /// tells the dead-letter hook, and takes what the ports toward it hold
    /// (one that a sender holds is left for the pass that pulls it). Every
    /// call kills each record of `frames` and of those ports as
    /// `Transport`, under the parcel's own trace id, in one task deferred
    /// on the locality that saw the loss (the own rank over TCP,
    /// in-process the first live one): the caller may hold a port lock a
    /// fault continuation needs.
    pub(crate) fn lose(
        &self,
        rt: &Arc<RuntimeInner>,
        rank: LocalityId,
        why: &str,
        mut frames: Vec<Vec<u8>>,
    ) {
        let newly = !self.lost[rank.0 as usize].swap(true, Ordering::AcqRel);
        let mut live = self.localities.iter().filter(|l| !self.is_lost(l.id));
        let at = match self.owned {
            Some(own) => &self.localities[own.0 as usize],
            None => live.next().expect("a locality outlives the loss"),
        };
        if newly {
            at.trace_event(Some(0), TraceEventKind::NetFault, 0, u64::from(rank.0));
            let (root, why) = (
                Gid::locality_root(rank),
                format!("peer {rank} unreachable: {why}"),
            );
            let fault = Fault::new(FaultCause::Transport, ActionId(0), root, why);
            rt.notify_dead_letter(&fault, None);
            if let Some(ports) = &self.ports {
                let dest_loc = &self.localities[rank.0 as usize];
                ports.pull(rank, dest_loc, |_, frame, _| frames.push(frame));
            }
        }
        let kill = move |ctx: &mut Ctx<'_>| {
            for frame in frames {
                // A record that cannot be read dies as `Decode` instead.
                for_each_record(&frame, |rec| {
                    if let Some(p) = decode_record(ctx.rt_inner(), ctx.locality(), rec) {
                        kill_lost(ctx, p, rank);
                    }
                });
            }
        };
        at.push_task(Task::new(Work::Thread(Box::new(kill))));
    }

    /// Drain the ports, stop the transport.
    pub(crate) fn shutdown(&mut self) {
        if let Some(ports) = &self.ports {
            // A pull of every port, through `submit`; the backend holds
            // one only for a moment.
            for (dest, dest_loc) in self.localities.iter().enumerate() {
                let dest = LocalityId(dest as u16);
                while !ports.pull(dest, dest_loc, |lane, bytes, _| {
                    self.transport.submit(WireMsg::Frame { dest, lane, bytes });
                }) {
                    std::thread::yield_now();
                }
            }
        }
        if let Some(transport) = Arc::get_mut(&mut self.transport) {
            transport.shutdown();
        }
    }
}

/// Kill `p`, a parcel for the lost `rank`, as `Transport`: its `NetFault`
/// under its own trace id (`kill_parcel` adds the `ParcelKill`), and the
/// activity token its send took, if it took one — only toward a locality
/// of this process (`RuntimeInner::route_parcel`).
fn kill_lost(ctx: &mut Ctx<'_>, p: Parcel, rank: LocalityId) {
    let (rt, loc) = (ctx.rt_inner(), ctx.locality());
    loc.trace_event(p.trace, TraceEventKind::NetFault, p.dest.0, 0);
    let token = p.process.filter(|_| rt.owns(rank));
    let why = format!("transport to locality {} lost", rank.0);
    kill_parcel(rt, loc, p, FaultCause::Transport, why);
    if let Some(pg) = token {
        rt.process_task_done(pg);
    }
}

impl Drop for Wire {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::inproc::InProcTransport;
    use super::*;
    use crate::action::Value;
    use crate::clock::{stepped::Stepper, Clock};
    use crate::gid::Gid;
    use crate::parcel::Continuation;

    #[test]
    fn model_delay_arithmetic() {
        let m = WireModel {
            latency: Duration::from_micros(10),
            ns_per_byte: 2,
        };
        assert_eq!(m.delay_for(0), Duration::from_micros(10));
        assert_eq!(
            m.delay_for(1000),
            Duration::from_micros(10) + Duration::from_nanos(2000)
        );
        assert!(WireModel::instant().is_instant());
        assert!(!m.is_instant());
    }

    type Locs = Arc<Vec<Arc<Locality>>>;

    /// `n` bare localities (no workers) whose heaps keep `clock`.
    fn test_localities(n: usize, clock: &Clock) -> Locs {
        let loc = |i| {
            let mut loc = Locality::new(LocalityId(i as u16), false, n);
            loc.attach_workers(0, clock);
            Arc::new(loc)
        };
        Arc::new((0..n).map(loc).collect())
    }

    fn test_wire(model: WireModel, locs: &Locs, max_batch_parcels: usize) -> Wire {
        let ports = PortSet::new(max_batch_parcels, locs.len(), px_wire::FRAME_VERSION);
        let transport = InProcTransport::new(model, locs.clone(), ports.clone());
        Wire::new(
            Arc::new(transport),
            locs.clone(),
            ports,
            px_wire::FRAME_VERSION,
            None,
        )
    }

    /// A wire between two localities on a stepped clock: nothing moves
    /// until the test advances it and runs a pass.
    fn stepped_wire(model: WireModel, max_batch_parcels: usize) -> (Locs, Stepper, Wire) {
        let clock = Stepper::default();
        let locs = test_localities(2, &Clock::Stepped(clock.clone()));
        let wire = test_wire(model, &locs, max_batch_parcels);
        (locs, clock, wire)
    }

    /// Locality 1's pass — the one a worker runs when kicked or woken.
    fn pass(wire: &Wire) {
        assert!(wire.drive(LocalityId(1), None));
    }

    /// The locality every test parcel is sent from.
    const SENDER: LocalityId = LocalityId(0);

    /// Send `p` from locality 0 toward locality 1's run queue.
    fn send_to_1(wire: &Wire, p: Parcel) {
        wire.send_parcel(SENDER, LocalityId(1), Lane::Run, p);
    }

    const LATENCY: Duration = Duration::from_micros(10);

    /// A stepped wire with a 10 µs latency and `n` parcels sent toward
    /// locality 1, all before its next pass.
    fn burst(max_batch_parcels: usize, n: usize) -> (Locs, Stepper, Wire) {
        let latency = WireModel::with_latency(LATENCY);
        let (locs, clock, wire) = stepped_wire(latency, max_batch_parcels);
        for _ in 0..n {
            send_to_1(&wire, noop_parcel(LocalityId(1)));
        }
        (locs, clock, wire)
    }

    fn noop_parcel(dest: LocalityId) -> Parcel {
        Parcel::new(
            Gid::locality_root(dest),
            crate::sys::NOOP,
            Value::unit(),
            Continuation::none(),
        )
    }

    fn drain_count(loc: &Locality) -> (usize, usize) {
        // (tasks, parcels) delivered to the general injector.
        let mut tasks = 0;
        let mut parcels = 0;
        while let Some(t) = loc.injector.steal() {
            tasks += 1;
            parcels += t.parcel_records();
        }
        (tasks, parcels)
    }

    // ---- the in-process wire's delays, on the destination's heap ---------

    /// Parcel `n` toward locality 1, its payload `size` bytes long, each
    /// of them `n`. Returns the bytes the wire booked for it: on an
    /// unbatched wire its frame's length, which the delay is charged on.
    fn send(wire: &Wire, locs: &[Arc<Locality>], n: u8, size: usize) -> usize {
        let mut p = noop_parcel(LocalityId(1));
        p.payload = Value::encode(&vec![n; size]).unwrap();
        let before = locs[SENDER.0 as usize].stats().bytes_sent;
        send_to_1(wire, p);
        (locs[SENDER.0 as usize].stats().bytes_sent - before) as usize
    }

    /// Advance the clock `by`, run locality 1's pass, and read the parcels
    /// it queued, in order.
    fn step(clock: &Stepper, wire: &Wire, locs: &[Arc<Locality>], by: Duration) -> Vec<u8> {
        clock.advance(by);
        pass(wire);
        let mut queued = Vec::new();
        while let Some(t) = locs[1].injector.steal() {
            let frame = t.frame_bytes().expect("frames only");
            for rec in px_wire::FrameView::parse(frame).unwrap().records() {
                let payload = Parcel::decode(rec.unwrap()).unwrap().payload;
                queued.push(payload.decode::<Vec<u8>>().unwrap()[0]);
            }
        }
        queued
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn a_message_is_held_until_it_is_due() {
        let (locs, clock, wire) = stepped_wire(WireModel::with_latency(30 * MS), 1);
        send(&wire, &locs, 7, 1);
        let early = step(&clock, &wire, &locs, 30 * MS - Duration::from_nanos(1));
        assert!(early.is_empty(), "must not arrive before its delay");
        assert_eq!(step(&clock, &wire, &locs, Duration::from_nanos(1)), [7]);
    }

    #[test]
    fn bandwidth_lets_a_small_message_overtake_a_large_one() {
        let per_byte = WireModel {
            latency: Duration::ZERO,
            ns_per_byte: 20_000, // 20 µs per byte — exaggerated for test
        };
        let (locs, clock, wire) = stepped_wire(per_byte, 1);
        let large = per_byte.delay_for(send(&wire, &locs, 1, 1000)); // ~20 ms
        let small = per_byte.delay_for(send(&wire, &locs, 2, 10)); // ~0.8 ms
        assert!(small < large, "{small:?} vs {large:?}");
        assert_eq!(
            step(&clock, &wire, &locs, small),
            [2],
            "the small one overtakes"
        );
        assert_eq!(step(&clock, &wire, &locs, large - small), [1]);
    }

    /// Same-latency messages submitted in order arrive in order: the
    /// heap's `(time, seq)` order breaks ties by submission. Frames
    /// inherit this discipline; records within a frame are strictly
    /// ordered.
    #[test]
    fn equal_delays_keep_fifo_order() {
        let (locs, clock, wire) = stepped_wire(WireModel::with_latency(5 * MS), 1);
        for n in 0..50 {
            send(&wire, &locs, n, 1);
        }
        assert_eq!(
            step(&clock, &wire, &locs, 5 * MS),
            (0..50).collect::<Vec<_>>()
        );
    }

    /// Shutdown does not wait for what is on the wire: it queues it, in
    /// due order, for the queues' fate (contract point 4).
    #[test]
    fn shutdown_queues_what_is_pending() {
        let (locs, clock, mut wire) = stepped_wire(WireModel::with_latency(10 * MS), 1);
        for n in 1..=2 {
            send(&wire, &locs, n, 1);
        }
        wire.shutdown();
        assert_eq!(step(&clock, &wire, &locs, Duration::ZERO), [1, 2]);
        assert!(locs[1].timers.pop().is_none(), "the heap is empty");
    }

    // ---- batching ---------------------------------------------------------

    #[test]
    fn batch_flushes_on_parcel_count() {
        let (locs, clock, wire) = burst(4, 8);
        clock.advance(LATENCY);
        pass(&wire);
        assert_eq!(drain_count(&locs[1]), (2, 8), "two frames of four");
        assert_eq!(locs[1].stats().frames_sent, 2);
        assert_eq!(locs[1].stats().batch_flush_full, 2);
        assert_eq!(
            locs[1].stats().coalesced_parcels,
            6,
            "three of each four shared a frame"
        );
    }

    /// A port also flushes at [`MAX_BATCH_BYTES`], whatever its parcel
    /// cap: four parcels of a quarter of the budget each fill a frame past
    /// it, and the fifth opens the next frame.
    #[test]
    fn batch_flushes_on_byte_budget() {
        let (locs, clock, wire) = stepped_wire(WireModel::with_latency(LATENCY), usize::MAX);
        for n in 0..5 {
            send(&wire, &locs, n, MAX_BATCH_BYTES / 4);
        }
        assert_eq!(locs[1].stats().batch_flush_full, 1, "one frame filled");
        clock.advance(LATENCY);
        pass(&wire);
        clock.advance(LATENCY);
        pass(&wire);
        assert_eq!(
            drain_count(&locs[1]),
            (2, 5),
            "the full frame and the pulled one"
        );
        assert_eq!(locs[1].stats().batch_flush_pulled, 1);
    }

    /// A lone record leaves at the destination's next pass — the one its
    /// kick brings — and then waits out the wire's latency on that
    /// locality's heap: over a 50 µs wire it arrives when the clock has
    /// moved exactly 50 µs past the pull.
    #[test]
    fn a_lone_record_leaves_at_the_destinations_next_pass() {
        let latency = Duration::from_micros(50);
        let (locs, clock, wire) = stepped_wire(WireModel::with_latency(latency), 1000);
        send_to_1(&wire, noop_parcel(LocalityId(1)));
        pass(&wire);
        assert_eq!(locs[1].stats().batch_flush_pulled, 1, "pulled");
        clock.advance(latency - Duration::from_nanos(1));
        pass(&wire);
        assert_eq!(drain_count(&locs[1]), (0, 0), "still on the wire");
        clock.advance(Duration::from_nanos(1));
        pass(&wire);
        assert_eq!(drain_count(&locs[1]), (1, 1));
    }

    /// Records that land between two passes ride one frame: the first
    /// one's kick brings the pass, and the rest find the port open.
    #[test]
    fn records_that_land_between_two_passes_ride_one_frame() {
        let (locs, clock, wire) = burst(1000, 5);
        for n in [5, 3] {
            pass(&wire);
            clock.advance(LATENCY);
            pass(&wire);
            assert_eq!(drain_count(&locs[1]), (1, n));
            for _ in 0..3 {
                send_to_1(&wire, noop_parcel(LocalityId(1)));
            }
        }
        let c = locs[1].stats();
        assert_eq!((c.frames_sent, c.batch_flush_pulled), (2, 2));
        assert_eq!(c.coalesced_parcels, 4 + 2);
    }

    /// `NetRtt` means the same on both backends: a pulled frame is timed
    /// from its oldest record's landing in the port, so a straggler alone
    /// in its port reads at least the wire's latency. On the real clock:
    /// the stamps are real time.
    #[test]
    fn a_pulled_frame_is_timed_from_its_oldest_record() {
        let locs: Arc<Vec<Arc<Locality>>> = Arc::new(
            (0..2)
                .map(|i| {
                    let mut loc = Locality::new(LocalityId(i), false, 2);
                    loc.enable_metrics(Arc::default());
                    Arc::new(loc)
                })
                .collect(),
        );
        let latency = Duration::from_micros(50);
        let model = WireModel::with_latency(latency);
        let wire = test_wire(model, &locs, 16);
        for _ in 0..50 {
            send_to_1(&wire, noop_parcel(LocalityId(1)));
            let t0 = Instant::now();
            while drain_count(&locs[1]).1 == 0 {
                assert!(t0.elapsed() < Duration::from_secs(5), "never arrived");
                pass(&wire);
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        let metrics = locs[1].metrics.as_ref().unwrap().snapshot();
        let rtt = metrics.get(crate::metrics::Instrument::NetRtt);
        assert_eq!(rtt.count, 50);
        let floor = latency.as_nanos() as u64;
        assert!(rtt.quantile(0.5) >= floor, "p50 {} ns", rtt.quantile(0.5));
    }

    /// The drain is a pull of every port: what the ports hold at
    /// shutdown leaves in one frame each, booked `Pulled`.
    #[test]
    fn shutdown_drains_ports() {
        let (locs, _clock, mut wire) = burst(1000, 3);
        wire.shutdown();
        assert_eq!(drain_count(&locs[1]), (1, 3), "one frame, every parcel");
        assert_eq!(locs[1].stats().batch_flush_pulled, 1);
    }

    #[test]
    fn staged_and_plain_parcels_batch_separately() {
        let (locs, _clock, mut wire) = burst(1000, 0);
        let plain = noop_parcel(LocalityId(1));
        let mut staged = noop_parcel(LocalityId(1));
        staged.staged = true;
        wire.send_parcel(SENDER, LocalityId(1), Lane::Run, plain);
        wire.send_parcel(SENDER, LocalityId(1), Lane::Staged, staged);
        wire.shutdown();
        let (tasks, parcels) = drain_count(&locs[1]);
        assert_eq!((tasks, parcels), (1, 1), "plain frame in the injector");
        let mut staged_tasks = 0;
        while let Some(t) = locs[1].staging.steal() {
            staged_tasks += t.parcel_records();
        }
        assert_eq!(staged_tasks, 1, "staged frame in the staging buffer");
    }

    /// With batching off a parcel leaves at once as a frame of one: one
    /// frame, nothing coalesced or flushed, and the sender books the
    /// frame's full length.
    #[test]
    fn unbatched_policy_sends_frames_of_one() {
        let (locs, _clock, mut wire) = burst(1, 0);
        let p = noop_parcel(LocalityId(1));
        send_to_1(&wire, p.clone());
        wire.shutdown();
        let (tasks, parcels) = drain_count(&locs[1]);
        assert_eq!((tasks, parcels), (1, 1));
        let framing = px_wire::FRAME_HEADER_LEN + px_wire::RECORD_HEADER_LEN;
        let sent = locs[0].stats();
        assert_eq!(
            (sent.parcels_sent, sent.bytes_sent),
            (1, (framing + p.encode().len()) as u64)
        );
        let c = locs[1].stats();
        assert_eq!((c.frames_sent, c.coalesced_parcels), (1, 0));
        assert_eq!((c.batch_flush_full, c.batch_flush_pulled), (0, 0));
    }

    /// A control-lane parcel never waits in a port: on a batching wire it
    /// still leaves at once, a frame of one, and lands in the control
    /// queue.
    #[test]
    fn control_parcels_leave_at_once_as_frames_of_one() {
        let (locs, clock, wire) = burst(1000, 0);
        let p = noop_parcel(LocalityId(1));
        wire.send_parcel(SENDER, LocalityId(1), Lane::Control, p);
        clock.advance(LATENCY);
        pass(&wire);
        let control = locs[1].control.steal().expect("on the control queue");
        assert_eq!(control.parcel_records(), 1);
        let c = locs[1].stats();
        assert_eq!((c.frames_sent, c.batch_flush_pulled), (1, 0));
    }

    /// Acceptance pin: the in-process backend ships version-1 frames
    /// whose bytes are identical to encoding the same parcels into a
    /// plain `FrameBuf` — the transport refactor added no bytes to the
    /// in-process wire.
    #[test]
    fn inproc_frames_are_bit_identical_to_frame_buf() {
        let (locs, _clock, mut wire) = burst(1000, 3);
        wire.shutdown();
        let p = noop_parcel(LocalityId(1));
        let mut expected = px_wire::FrameBuf::new();
        for _ in 0..3 {
            expected.push_record(&p.encode());
        }
        let expected = expected.take();
        let mut frames = 0;
        while let Some(t) = locs[1].injector.steal() {
            frames += 1;
            assert_eq!(
                t.frame_bytes().expect("frame task"),
                expected.as_slice(),
                "in-proc wire bytes drifted from the version-1 frame format"
            );
        }
        assert_eq!(frames, 1);
    }

    // ---- a lost locality, on the stepped runtime --------------------------

    use crate::error::PxError;
    use crate::origin::{Caller, Origin};
    use crate::runtime::stepped::{for_seeds, Stepped};
    use crate::runtime::{Config, RuntimeBuilder};

    /// A request to move data object `x` to `to`.
    fn migrate(x: Gid, to: LocalityId) -> Parcel {
        use crate::sys::msg::Migrate;
        let cause = crate::agas::MigrationCause::Manual;
        Migrate { to, cause }.parcel(x, None)
    }

    /// What the crash of locality `l` abandoned in its queues, taken
    /// out: their parcel records, their closures, and how many of those a
    /// process owns.
    fn abandoned(s: &Stepped, l: usize) -> (usize, usize, u64) {
        let loc = &s.rt.inner().localities[l];
        let queues = [&loc.control, &loc.staging, &loc.injector];
        let queued = queues.map(|q| std::iter::from_fn(|| q.steal()));
        let rings = loc
            .stealers
            .iter()
            .flat_map(|q| std::iter::from_fn(|| q.steal()));
        let tasks: Vec<Task> = queued.into_iter().flatten().chain(rings).collect();
        let closures = tasks.iter().filter(|t| matches!(t.work, Work::Thread(_)));
        let owned = closures.clone().filter(|t| t.process.is_some()).count();
        let records = tasks.iter().map(|t| t.parcel_records()).sum();
        (records, closures.count(), owned as u64)
    }

    /// One seeded run: three localities over a 10 µs wire that coalesces
    /// four parcels a frame, every parcel traced. An object born at L0
    /// lives at `dead` (L1 or L2); at turns the seed draws, L0 and the
    /// other live locality ping any root and read the object, and `dead`
    /// is killed at one of them. At a turn no later than the kill, a task
    /// at L0 sends `dead` two closures over the wire, one a process's.
    /// Then toward it: a ping, a read, a move, a traced ping, a process's
    /// parcel and a closure. Once settled, the hook heard the loss once; a
    /// request toward a live locality was answered, one toward `dead`
    /// answered (before the kill), faulted as `Transport`, or — left
    /// before the kill — pending, as many as the crash abandoned; what the
    /// kill found, and all sent after it, faulted a request once, and
    /// those are all the `Transport` deaths with the process's parcel and
    /// the closures that neither ran nor were abandoned; the process
    /// quiesced unless the crash abandoned one of its closures; the traced
    /// fault precedes its waiter's poisoning; and each live store holds
    /// what it did, plus a future per pending request.
    fn a_kill(seed: u64) {
        let faults = Arc::new(Mutex::new(Vec::<Fault>::new()));
        let cfg = Config::small(3, 1).with_latency(LATENCY);
        let cfg = cfg.with_max_batch_parcels(4).with_trace_sampling(1);
        let log = faults.clone();
        let mut s = RuntimeBuilder::new(cfg)
            .on_dead_letter(move |f| log.lock().push(f.clone()))
            .stepped(seed);
        let dead = 1 + s.draw(2);
        let (live, at) = ([0, 3 - dead], LocalityId(dead as u16));
        let x = s.rt.new_data_at(LocalityId(0), vec![7; 8]);
        let moved = s.rt.origin().request(migrate(x, at));
        s.settle();
        s.reply(moved).unwrap();
        let proc = s.rt.create_process(LocalityId(0));
        let sizes = s.store_sizes();
        // Each request's reply future, where it lives, and — toward the
        // dead locality — whether it left after the kill.
        let mut asks = Vec::new();
        let mut ask = |s: &Stepped, from: usize, p: Parcel, after_kill: Option<bool>| {
            let loc = &s.rt.inner().localities[from];
            asks.push((Origin::at(s.rt.inner(), loc).request(p), from, after_kill));
        };
        let ping = |to: usize| {
            crate::sys::bare(Gid::locality_root(LocalityId(to as u16)), crate::sys::PING)
        };
        let read = || Parcel::new(x, crate::sys::DATA_GET, Value::unit(), Continuation::none());
        let ran = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let closure = |ran: &Arc<std::sync::atomic::AtomicU64>| {
            let ran = ran.clone();
            move |ctx: &mut Ctx<'_>| {
                ctx.spawn_at(at, move |_| _ = ran.fetch_add(1, Ordering::Relaxed));
            }
        };
        let kill_at = s.draw(24);
        let spawn_at = s.draw(kill_at + 1);
        for turn in 0..32 {
            if turn == spawn_at {
                s.rt.spawn_at(LocalityId(0), closure(&ran));
                proc.spawn_at(&s.rt, LocalityId(0), closure(&ran));
            }
            if turn == kill_at {
                s.kill(dead);
            }
            let (from, after) = (live[s.draw(2)], turn >= kill_at);
            match s.draw(3) {
                0 => {
                    let to = s.draw(3);
                    ask(&s, from, ping(to), (to == dead).then_some(after));
                }
                1 => ask(&s, from, read(), Some(after)),
                _ => {}
            }
            s.step();
        }
        s.kill(dead); // no news: the hook heard of the loss already
        ask(&s, 0, ping(dead), Some(true));
        ask(&s, live[1], read(), Some(true));
        ask(&s, 0, migrate(x, LocalityId(0)), Some(true));
        let trace = s.rt.new_trace_id();
        ask(&s, 0, ping(dead).with_trace(trace), Some(true));
        let send = move |ctx: &mut Ctx<'_>| ctx.send_parcel(noop_parcel(at));
        proc.spawn_at(&s.rt, LocalityId(0), send);
        proc.finish_root(&s.rt);
        s.rt.spawn_at(at, |_| unreachable!("a closure ran at a killed locality"));
        s.settle();

        let (mut faulted, mut pending) = (0, [0u64; 3]);
        for (fut, from, toward_dead) in asks {
            let fate = s.rt.inner().wait_lco(fut, Some(Duration::ZERO));
            match (fate, toward_dead) {
                (Ok(Some(_)), None | Some(false)) => {}
                (Err(PxError::Fault(f)), Some(_)) if f.cause == FaultCause::Transport => {
                    faulted += 1
                }
                (Ok(None), Some(false)) => pending[from] += 1,
                (fate, _) => panic!("{fate:?} for a request toward the dead: {toward_dead:?}"),
            }
        }
        // What the crash abandoned is all that hangs: every record the kill
        // found on the heap or in a port, and every one sent later, died;
        // so did each closure toward `dead` that neither ran nor hangs.
        let (records, closures, owned) = abandoned(&s, dead);
        assert_eq!(pending.iter().sum::<u64>(), records as u64);
        let ran = ran.load(Ordering::Relaxed);
        let closure_deaths = 2 - ran - closures as u64;
        let faults = faults.lock().clone();
        let lost = faults.iter().filter(|f| f.message.contains("unreachable"));
        assert_eq!(lost.count(), 1, "the hook hears the loss once");
        let transport = faults.iter().filter(|f| f.cause == FaultCause::Transport);
        // The process's parcel, the closure after the kill, and the two
        // before it that died.
        let deaths = faulted + 2 + closure_deaths;
        assert_eq!(transport.count() as u64, deaths + 1, "{faults:?}");
        assert_eq!(faults.len() as u64, deaths + 1, "{faults:?}");
        assert_eq!(s.rt.stats().total().dead_transport, deaths);
        assert_eq!(
            proc.active(&s.rt),
            owned,
            "every token but an abandoned one came back"
        );
        let done = s.take(proc.done_future());
        assert_eq!(done.is_some(), owned == 0);
        let events = s.rt.trace_dump_for(trace.expect("traced")).events;
        let pos = |kind| events.iter().position(|e| e.kind == kind).expect("traced");
        let fault_then_poison = pos(TraceEventKind::NetFault) < pos(TraceEventKind::LcoPoison);
        assert!(fault_then_poison, "{events:?}");
        let now = s.store_sizes();
        for l in live {
            assert_eq!(now[l], sizes[l] + pending[l], "L{l}'s store");
        }
    }

    /// The kill on 1 000 seeds.
    #[test]
    fn a_killed_locality_loses_every_record_once_and_strands_no_waiter() {
        for_seeds(1000, a_kill);
    }
}
