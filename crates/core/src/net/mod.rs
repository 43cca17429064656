//! The wire layer: inter-locality transport behind a backend-independent
//! `Transport` seam, with per-destination parcel batching.
//!
//! ## Architecture
//!
//! ```text
//!  send_parcel ──► PortSet (per-dest coalescing) ──► Transport::submit
//!                    ▲    ▲     full frames               │
//!                    │    │                        ┌──────┴───────┐
//!                    │    │                        ▼              ▼
//!                    │    │                 InProcTransport  TcpTransport
//!                    │    │                 (DelayLine +     (sockets, one
//!                    │    │                  queue pushes)    peer/process)
//!                    │    └─ flusher thread ───────┘              │
//!                    │       (timer, while a port is open)        │
//!                    └────── I/O thread pulls on a sender's kick ─┘
//! ```
//!
//! Everything above the `Transport` trait — `WireMsg` submission, the
//! control-plane priority lane, `BatchPolicy` coalescing ports, flush
//! accounting — is backend-independent; who ships a frame that did not
//! fill is the backend's answer to `Transport::adopt_ports`. Two backends
//! exist:
//!
//! * `inproc::InProcTransport` (default): all localities share one OS
//!   process; messages are queue pushes routed through a [`DelayLine`]
//!   with injectable latency/bandwidth ([`WireModel`]). This is the seed
//!   runtime's wire, preserved bit-for-bit: version-1 frames, identical
//!   delay arithmetic, identical counters.
//! * `tcp::TcpTransport`: each OS process owns one locality and peers
//!   over TCP sockets carrying the same length-prefixed records inside
//!   [`px_wire::stream`] messages, with checksummed (version-2) frames.
//!
//! ## The `Transport` contract
//!
//! A backend implements `Transport` and must honor, in order of
//! importance:
//!
//! 1. **No silent loss.** A message that cannot be delivered (peer gone,
//!    closure task addressed across an OS-process boundary) must die
//!    *loudly*: count the death (`FaultCause::Transport`
//!    / `dead_transport`), notify the dead-letter hook, and deliver the
//!    fault to each dead parcel's continuation so downstream waiters
//!    resolve with `PxError::Fault` instead of hanging. A parcel has
//!    three ends and no others — `sched::complete` (its value goes to its
//!    continuation), `sched::kill_parcel` (a counted fault goes there),
//!    or a by-value encode onto the wire (`Wire::send_parcel`,
//!    `Parcel::into_wire`) that makes it the next rank's — and debug
//!    builds fail the driver of a runtime that drops one it had taken
//!    charge of anywhere else (the spend obligation, [`crate::parcel`]).
//!    A lost connection is a dead peer: it kills everything still queued toward
//!    that peer and everything submitted afterwards, and a backend never
//!    re-establishes it on its own — a resend cannot tell what the peer
//!    already consumed, and whoever answers at the old address need not
//!    be the peer. Still open: a message handed to the kernel in full
//!    before the loss counts as sent, whether or not the peer read it;
//!    that in-flight window is for the deterministic-simulation item's
//!    accounting to check, not for the transport to guess at.
//! 2. **Queue discipline at the destination.** `WireMsg::Parcel`/`Frame`
//!    land in the queue their `Lane` names: the general run queue, the
//!    staging buffer, or — single parcels only, never coalesced and never
//!    behind data backlog — the priority control queue, which every
//!    locality has whether or not the balancer runs; `WireMsg::Task` is
//!    an in-memory closure handoff — backends that cross address spaces
//!    must reject it loudly rather than pretend. The control lane
//!    carries balancer gossip *and* `__sys/metrics_pull` requests: both
//!    are how a rank observes a struggling peer, so a backend may not
//!    drop or delay them under data-lane backpressure — the moments the
//!    data lane is saturated are exactly the moments the observability
//!    plane must still answer. The distributed AGAS directory rides the
//!    same lane (`__sys/dir_lookup`, `dir_update`, `dir_repair`,
//!    `dir_commit` — see `crate::sys`): a chase that must ask an
//!    object's home rank, the departure write that repoints the home
//!    entry mid-migration, and the commit that unpins the destination
//!    copy are all on the critical path of every parcel *stuck behind*
//!    the data backlog, so queueing them with the data they unblock
//!    would deadlock the hot path against its own repair traffic. The
//!    directory ops are idempotent and individually small; what the
//!    backend owes them is ordering-free prompt delivery and the same
//!    loud-death rule — a lost `dir_update` is repaired by the next
//!    chase, but only if the loss is *visible* (counted, continuation
//!    faulted) rather than silent.
//! 3. **Submission is non-blocking-ish.** `submit` hands the message to
//!    the backend and returns — it never performs I/O on the caller's
//!    thread (the TCP backend queues and wakes its event loop; socket
//!    writes happen on the I/O thread). It may block briefly for
//!    backpressure (a bounded peer queue in *bytes*; the control lane is
//!    exempt so gossip never waits behind the backlog it reports) but
//!    must never deadlock against the port locks: fault delivery
//!    triggered *inside* `submit` is deferred to a scheduler task,
//!    because the caller may hold the coalescing-port lock of the very
//!    destination a fault continuation routes back to. Peer-loss faults
//!    therefore surface *after* `submit` returns, in bounded time — not
//!    as a submit error.
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
//!    backend carries encoded parcels and frame records verbatim: it
//!    must not strip, reorder, or re-encode the flags byte or the
//!    optional extensions it gates (the owning pid and the
//!    `parcel_flags::HAS_TRACE` trace id — see [`crate::trace`]).
//!    Cross-rank causal tracing depends on the trace id arriving
//!    bit-identical at the destination; a backend that wants to observe
//!    it peeks ([`Parcel::peek_trace`]) rather than decodes.
//!
//! ## Batching (`BatchPolicy`, `PortSet`)
//!
//! Per-parcel transport overhead — a `Vec` allocation, a channel or
//! socket submission, an injector push, and a worker wakeup for every
//! message — dominates at fine grain (the AMT overhead studies in
//! PAPERS.md measure exactly this). When batching is enabled, each
//! sender-visible destination gets a **port**: a coalescing
//! [`px_wire::FrameBuf`] into which parcels are encoded *in place*. A
//! port flushes its frame as one wire message when it reaches
//! `max_batch_parcels` records or [`MAX_BATCH_BYTES`] bytes (the sender
//! does that itself). A frame that does not fill leaves by the backend's
//! own means, and the sender whose record lands in an *empty* port kicks
//! whoever that is:
//!
//! * **TCP: the I/O thread pulls.** The kick is one `Poller::wake`; at
//!   the top of its send pass the I/O thread takes whatever both lanes'
//!   ports toward each peer hold and queues it, under the port lock
//!   (port → peer queue, the nesting a sender's full flush takes — so
//!   same-peer order holds across both). No timer: batching is paid for
//!   by load. An idle port ships its first record at once; a burst rides
//!   one frame; a backlog fills frames to the cap while the thread is
//!   busy writing. What it costs is frames about half the size a 100 µs
//!   hold collected, and a thread wake per frame.
//! * **In-process: a timer flusher.** A delay line has no thread that
//!   could pull, so the wire runs `px-port-flusher`: blocked until the
//!   kick, then shipping records older than [`FLUSH_INTERVAL`] on a
//!   half-interval tick for as long as some port holds one. An idle
//!   runtime makes no wakeups on either backend.
//!
//! The in-process delay model is applied per frame
//! (`delay_for(frame_bytes)`), so the latency and bandwidth arithmetic
//! stays honest while the fixed per-message costs amortize across the
//! batch.
//!
//! Ordering: under a pure-latency model, parcels to the same destination
//! stay in submission order within and across frames (frames ride the
//! same `(time, seq)` min-heap the single-parcel path used). Two
//! relaxations, both of the "simultaneous messages are unordered, like a
//! real network" kind the pre-batching wire already documented:
//!
//! * with a nonzero `ns_per_byte` the delay is size-dependent, so a
//!   small frame submitted after a large one can overtake it at a frame
//!   boundary (the old wire had the same property per *parcel*);
//! * direct task transfers (`spawn_at` closures) do not pass through the
//!   ports — a task sent after a still-coalescing parcel can arrive up
//!   to [`FLUSH_INTERVAL`] earlier (in-process; closures do not cross
//!   the TCP backend at all). Code that needs a parcel's effects
//!   visible to a subsequently spawned closure must sequence through an
//!   LCO, not through submission order.
//!
//! Over TCP both relaxations hold trivially (the network reorders
//! nothing per connection, but frames and single parcels share one
//! ordered byte stream per peer, so same-peer order is in fact *stronger*
//! than the delay-line's). What is ordered is *delivery* into the
//! destination's queue; a worker's batch-steal runs what it takes newest
//! first, on either backend.
//!
//! Messages are encoded parcels (the normal case — they pay the
//! serialization cost honestly), multi-parcel frames, or boxed tasks
//! (closure transfers used by `spawn_at`, which model the in-memory
//! handoff of a depleted thread and are accounted with a nominal header
//! size).

pub mod delay;
pub(crate) mod inproc;
pub mod tcp;

pub use delay::DelayLine;
pub use tcp::TcpConfig;

use crate::gid::LocalityId;
use crate::locality::{Lane, Locality};
use crate::parcel::Parcel;
use crate::sched::Task;
use crate::stats::{bump, TransportStats};
use parking_lot::Mutex;
use px_wire::FrameBuf;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
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
    /// Zero-cost wire (direct delivery, no thread).
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

    /// True if messages can skip the delay line.
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
/// Longest a parcel may wait in a port before the in-process wire's
/// timer flusher ships it. The TCP backend has no such hold: its I/O
/// thread pulls the ports as soon as a sender's kick wakes it.
pub const FLUSH_INTERVAL: Duration = Duration::from_micros(100);

/// Flush policy for the per-destination coalescing ports.
///
/// The runtime sets one value, [`crate::runtime::Config::max_batch_parcels`]
/// (default 1: batching off, every parcel ships in its own message, so
/// latency-sensitive request/response chains see no added delay); the
/// byte budget and the in-process hold time are [`MAX_BATCH_BYTES`] and
/// [`FLUSH_INTERVAL`]. They are fields so the port unit tests can
/// isolate one flush cause by disabling the other two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BatchPolicy {
    /// Flush a port when its frame holds this many parcels (1 disables
    /// batching).
    pub max_batch_parcels: usize,
    /// Flush a port when its frame reaches this many bytes.
    pub max_batch_bytes: usize,
    /// Maximum time a parcel may wait in a port before the timer flusher
    /// ships it (in-process backend; nothing reads it over TCP).
    pub flush_interval: Duration,
}

impl BatchPolicy {
    /// The runtime's policy: up to `max_batch_parcels` per frame under
    /// the fixed byte budget and hold time.
    pub(crate) fn new(max_batch_parcels: usize) -> BatchPolicy {
        BatchPolicy {
            max_batch_parcels,
            max_batch_bytes: MAX_BATCH_BYTES,
            flush_interval: FLUSH_INTERVAL,
        }
    }

    /// True when coalescing is enabled: `max_batch_parcels` is the
    /// on/off switch.
    #[inline]
    pub fn is_batching(&self) -> bool {
        self.max_batch_parcels > 1
    }
}

/// A message in flight between localities.
pub(crate) enum WireMsg {
    /// Single encoded parcel: the unbatched data path, and all control
    /// traffic — latency-sensitive by nature, so never coalesced.
    Parcel {
        /// Destination locality.
        dest: LocalityId,
        /// The destination queue it lands in.
        lane: Lane,
        /// Encoded parcel bytes.
        bytes: Vec<u8>,
    },
    /// Multi-parcel frame from a coalescing port.
    Frame {
        /// Destination locality.
        dest: LocalityId,
        /// The destination queue it lands in (never the control lane).
        lane: Lane,
        /// Encoded frame bytes (see [`px_wire::FrameBuf`]).
        bytes: Vec<u8>,
    },
    /// Direct task transfer (closure crossing localities in-process; a
    /// cross-process backend must reject it loudly — closures do not
    /// serialize).
    Task {
        /// Destination locality.
        dest: LocalityId,
        /// The task to enqueue.
        task: Task,
    },
}

/// The backend seam of the wire layer. See the module docs for the full
/// contract (loud failure, queue discipline, deferred fault delivery,
/// flush-on-shutdown).
pub(crate) trait Transport: Send + Sync {
    /// Deliver `msg` toward its destination, charging `bytes` logical
    /// bytes to whatever latency/bandwidth physics the backend has.
    fn submit(&self, msg: WireMsg, bytes: usize);

    /// Offer the backend the wire's coalescing ports. The answer is how a
    /// record that does not fill its frame leaves: `None` — this backend
    /// gains nothing from coalescing, the wire drops the ports (an
    /// instant in-process wire: no per-message cost to amortize);
    /// [`FlushCause::Timer`] — the wire runs its timer flusher over them;
    /// [`FlushCause::Pulled`] — the backend kept a clone and ships them
    /// from its own thread whenever it is [kicked](Transport::kick).
    fn adopt_ports(&self, ports: &Arc<PortSet>) -> Option<FlushCause>;

    /// A record landed in an empty port: a backend that answered
    /// [`FlushCause::Pulled`] must pull its ports soon. Many kicks before
    /// the pull count as one; never blocks.
    fn kick(&self) {}

    /// Frame format version the ports should encode with
    /// ([`px_wire::FRAME_VERSION`] in-process — bit-identical frames —
    /// [`px_wire::FRAME_VERSION_CHECKSUM`] across process boundaries).
    fn frame_version(&self) -> u8 {
        px_wire::FRAME_VERSION
    }

    /// Late-bind the runtime (needed for fault delivery: a transport is
    /// constructed before the `RuntimeInner` that owns it).
    fn bind(&self, _rt: &Arc<crate::runtime::RuntimeInner>) {}

    /// Per-peer transport statistics (empty for in-process).
    fn transport_stats(&self) -> TransportStats {
        TransportStats::default()
    }

    /// Stop background threads, flushing or loudly killing pending
    /// messages first. Called with the ports drained and the timer
    /// flusher — the one other holder of the transport — already joined.
    fn shutdown(&mut self);
}

/// Why a port's frame was flushed (drives stats attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushCause {
    /// Hit `max_batch_parcels` or `max_batch_bytes`.
    Full,
    /// Aged out by the wire's timer flusher (in-process backend only).
    Timer,
    /// Pulled by the backend's own thread after a kick (TCP).
    Pulled,
}

/// One coalescing queue: pending frame plus when its oldest record landed.
struct Port {
    frame: FrameBuf,
    /// Stamped when a record lands in the empty port — always where the
    /// timer flusher needs an age, otherwise only with metrics on (it is
    /// then the `NetRtt` stamp of a pulled frame).
    opened_at: Option<Instant>,
}

impl Port {
    /// Take the pending frame and its stamp (`None` when empty), booked
    /// under `cause`. The caller ships it while still holding the port
    /// lock, so frames reach the backend in the order their records
    /// reached the port.
    fn take(
        &mut self,
        cause: FlushCause,
        dest_loc: &Locality,
    ) -> Option<(Vec<u8>, Option<Instant>)> {
        if self.frame.is_empty() {
            return None;
        }
        let records = u64::from(self.frame.record_count());
        bump!(dest_loc.counters.frames_sent);
        // Counted at flush, under the port lock, so coalesced_parcels and
        // frames_sent advance together and their ratio never exceeds the cap.
        bump!(dest_loc.counters.coalesced_parcels, records - 1);
        match cause {
            FlushCause::Full => bump!(dest_loc.counters.batch_flush_full),
            FlushCause::Timer => bump!(dest_loc.counters.batch_flush_timer),
            FlushCause::Pulled => bump!(dest_loc.counters.batch_flush_pulled),
        }
        Some((self.frame.take(), self.opened_at.take()))
    }
}

/// Per-destination coalescing ports, one per data lane (index =
/// `dest * 2 + staged`), so percolation traffic batches separately from
/// general parcels and a frame is homogeneous in its delivery queue.
pub(crate) struct PortSet {
    policy: BatchPolicy,
    ports: Vec<Mutex<Port>>,
}

impl PortSet {
    fn new(policy: BatchPolicy, localities: usize, frame_version: u8) -> PortSet {
        PortSet {
            policy,
            ports: (0..localities * 2)
                .map(|_| {
                    Mutex::new(Port {
                        frame: FrameBuf::with_version(frame_version),
                        opened_at: None,
                    })
                })
                .collect(),
        }
    }

    #[inline]
    fn port(&self, dest: LocalityId, lane: Lane) -> &Mutex<Port> {
        &self.ports[dest.0 as usize * 2 + usize::from(lane == Lane::Staged)]
    }

    /// The pulling backend's half: hand `ship` whatever both lanes' ports
    /// toward `dest` hold, with the stamp of each frame's oldest record.
    /// `ship` runs under the port lock (port → peer queue, the nesting a
    /// sender's `Full` flush takes), so same-peer order holds across
    /// pulls and `Full` flushes. Never waits for a port: a sender may
    /// hold one while blocked on the very queue the puller drains.
    /// Returns `false` when a held port was skipped — the caller pulls
    /// again once it has drained.
    pub(crate) fn pull(
        &self,
        dest: LocalityId,
        dest_loc: &Locality,
        mut ship: impl FnMut(Lane, Vec<u8>, Option<Instant>),
    ) -> bool {
        let mut all = true;
        for lane in [Lane::Run, Lane::Staged] {
            let Some(mut port) = self.port(dest, lane).try_lock() else {
                all = false;
                continue;
            };
            if let Some((bytes, opened_at)) = port.take(FlushCause::Pulled, dest_loc) {
                ship(lane, bytes, opened_at);
            }
        }
        all
    }

    /// Flush every port whose oldest record has waited `min_age` (zero:
    /// every port that holds anything). Returns whether a record is left
    /// waiting in some port.
    fn flush_aged(
        &self,
        localities: &[Arc<Locality>],
        min_age: Duration,
        cause: FlushCause,
        transport: &dyn Transport,
    ) -> bool {
        let mut waiting = false;
        for (idx, slot) in self.ports.iter().enumerate() {
            let dest = LocalityId((idx / 2) as u16);
            let lane = Lane::of_parcel(idx % 2 == 1);
            let mut port = slot.lock();
            if min_age.is_zero() || port.opened_at.is_some_and(|t0| t0.elapsed() >= min_age) {
                if let Some((bytes, _)) = port.take(cause, &localities[dest.0 as usize]) {
                    let n = bytes.len();
                    transport.submit(WireMsg::Frame { dest, lane, bytes }, n);
                }
            }
            waiting |= !port.frame.is_empty();
        }
        waiting
    }
}

/// The runtime's wire: coalescing ports in front of a `Transport`
/// backend sinking into locality run queues (directly in-process, over
/// sockets across OS processes).
pub(crate) struct Wire {
    transport: Arc<dyn Transport>,
    /// The ports, and how a record that does not fill its frame leaves
    /// one ([`Transport::adopt_ports`]).
    ports: Option<(Arc<PortSet>, FlushCause)>,
    /// Stamp `Port::opened_at`: the timer flusher ages records by it, the
    /// `NetRtt` instrument reads it off a pulled frame.
    stamp_ports: bool,
    localities: Arc<Vec<Arc<Locality>>>,
    /// Kicks the timer flusher; dropping it stops the thread.
    flusher_kick: Option<SyncSender<()>>,
    flusher: Option<JoinHandle<()>>,
}

impl Wire {
    /// Build the wire over `transport` for `localities`, coalescing per
    /// `policy`. Batching engages only when the policy asks for more than
    /// one parcel per message and the backend adopts the ports.
    pub(crate) fn new(
        transport: Arc<dyn Transport>,
        localities: Arc<Vec<Arc<Locality>>>,
        policy: BatchPolicy,
    ) -> Wire {
        let ports = policy.is_batching().then(|| {
            Arc::new(PortSet::new(
                policy,
                localities.len(),
                transport.frame_version(),
            ))
        });
        let ports = ports.and_then(|ports| {
            let lazy = transport.adopt_ports(&ports)?;
            Some((ports, lazy))
        });
        let (flusher_kick, flusher) = match &ports {
            Some((ports, FlushCause::Timer)) => {
                // Capacity one: kicks coalesce, and one sent before the
                // flusher blocks is still there when it does.
                let (kick_tx, kick_rx) = sync_channel::<()>(1);
                let handle = {
                    let ports = ports.clone();
                    let localities = localities.clone();
                    let transport = transport.clone();
                    std::thread::Builder::new()
                        .name("px-port-flusher".into())
                        .spawn(move || flusher_loop(&ports, &localities, &*transport, &kick_rx))
                        .expect("spawn port-flusher thread")
                };
                (Some(kick_tx), Some(handle))
            }
            _ => (None, None),
        };
        Wire {
            transport,
            stamp_ports: flusher.is_some() || localities.iter().any(|l| l.metrics.is_some()),
            ports,
            localities,
            flusher_kick,
            flusher,
        }
    }

    /// Encode and submit one parcel toward `dest`, batching according to
    /// the policy. The parcel ends here, by value: its bytes are the
    /// transport's from now on. Returns the encoded size for accounting.
    pub(crate) fn send_parcel(&self, dest: LocalityId, p: Parcel) -> usize {
        let lane = Lane::of_parcel(p.staged);
        let Some((ports, _)) = &self.ports else {
            // Unbatched path: identical to the pre-batching wire.
            let bytes = p.into_wire();
            let n = bytes.len();
            self.transport
                .submit(WireMsg::Parcel { dest, lane, bytes }, n);
            return n;
        };
        let dest_loc = &self.localities[dest.0 as usize];
        let mut port = ports.port(dest, lane).lock();
        let was_empty = port.frame.is_empty();
        if was_empty {
            port.opened_at = self.stamp_ports.then(Instant::now);
        }
        // Report the record's full wire footprint (parcel + length
        // prefix) so `bytes_sent` tracks what the delay model charges; of
        // the frame, only the fixed 5-byte header goes unattributed.
        let n = port.frame.push_record_with(|w| p.ship_into(w)) + px_wire::RECORD_HEADER_LEN;
        let policy = &ports.policy;
        if port.frame.record_count() as usize >= policy.max_batch_parcels
            || port.frame.len() >= policy.max_batch_bytes
        {
            if let Some((bytes, _)) = port.take(FlushCause::Full, dest_loc) {
                let len = bytes.len();
                self.transport
                    .submit(WireMsg::Frame { dest, lane, bytes }, len);
            }
        } else if was_empty {
            // The first record of an idle port: whoever flushes it hears
            // of it now, outside the port lock. Later records ride on this
            // kick — the port stays non-empty until the flush it causes.
            drop(port);
            match &self.flusher_kick {
                // A full channel is a kick already on its way.
                Some(flusher) => {
                    let _ = flusher.try_send(());
                }
                None => self.transport.kick(),
            }
        }
        n
    }

    /// Submit a non-parcel message (tasks; single parcels from callers
    /// that bypass batching).
    #[inline]
    pub(crate) fn send(&self, msg: WireMsg, bytes: usize) {
        self.transport.submit(msg, bytes);
    }

    /// Late-bind the runtime for transport-level fault delivery.
    pub(crate) fn bind(&self, rt: &Arc<crate::runtime::RuntimeInner>) {
        self.transport.bind(rt);
    }

    /// Per-peer transport statistics.
    pub(crate) fn transport_stats(&self) -> TransportStats {
        self.transport.transport_stats()
    }

    /// Stop the flusher, drain the ports, stop the transport.
    pub(crate) fn shutdown(&mut self) {
        self.flusher_kick = None; // closing the channel stops the flusher
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
        if let Some((ports, lazy)) = &self.ports {
            // From this thread, through `submit`, while the backend still
            // takes messages: the drain is booked as the lazy flush it
            // stands in for.
            ports.flush_aged(&self.localities, Duration::ZERO, *lazy, &*self.transport);
        }
        // Any flusher held the only other reference and is joined.
        if let Some(transport) = Arc::get_mut(&mut self.transport) {
            transport.shutdown();
        }
    }
}

impl Drop for Wire {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The in-process backend's flusher (a delay line has no thread that
/// could pull): blocked, untimed, until a sender kicks; then ticking at
/// half `flush_interval`, shipping any frame whose oldest record has
/// waited that long, for as long as some port holds a record.
fn flusher_loop(
    ports: &PortSet,
    localities: &[Arc<Locality>],
    transport: &dyn Transport,
    kicks: &Receiver<()>,
) {
    let interval = ports.policy.flush_interval;
    let tick = (interval / 2).clamp(Duration::from_micros(20), Duration::from_millis(10));
    while kicks.recv().is_ok() {
        // A kick that arrives mid-tick only shortens that tick.
        while !matches!(
            kicks.recv_timeout(tick),
            Err(RecvTimeoutError::Disconnected)
        ) {
            if !ports.flush_aged(localities, interval, FlushCause::Timer, transport) {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::inproc::InProcTransport;
    use super::*;
    use crate::action::Value;
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

    // ---- batching ---------------------------------------------------------

    fn test_localities(n: usize) -> Arc<Vec<Arc<Locality>>> {
        Arc::new(
            (0..n)
                .map(|i| Arc::new(Locality::new(LocalityId(i as u16), false)))
                .collect(),
        )
    }

    fn test_wire(model: WireModel, locs: &Arc<Vec<Arc<Locality>>>, policy: BatchPolicy) -> Wire {
        Wire::new(
            Arc::new(InProcTransport::new(model, locs.clone())),
            locs.clone(),
            policy,
        )
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

    #[test]
    fn batch_flushes_on_parcel_count() {
        let locs = test_localities(2);
        let wire = test_wire(
            WireModel::with_latency(Duration::from_micros(50)),
            &locs,
            BatchPolicy {
                max_batch_parcels: 4,
                max_batch_bytes: usize::MAX,
                flush_interval: Duration::from_secs(10), // timer disabled
            },
        );
        let p = noop_parcel(LocalityId(1));
        for _ in 0..8 {
            wire.send_parcel(LocalityId(1), p.clone());
        }
        // Two full frames of four parcels each. Accumulate across polls:
        // the delay thread may deliver the frames on either side of a
        // drain.
        let t0 = Instant::now();
        let (mut tasks, mut parcels) = (0, 0);
        while parcels < 8 {
            let (t, p) = drain_count(&locs[1]);
            tasks += t;
            parcels += p;
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "frames never arrived"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        assert_eq!(tasks, 2, "expected two frames");
        assert_eq!(parcels, 8, "expected all parcels");
        assert_eq!(locs[1].counters.frames_sent.get(), 2);
        assert_eq!(locs[1].counters.batch_flush_full.get(), 2);
        assert_eq!(
            locs[1].counters.coalesced_parcels.get(),
            6,
            "three of each four shared a frame"
        );
    }

    #[test]
    fn batch_flushes_on_byte_budget() {
        let locs = test_localities(2);
        let wire = test_wire(
            WireModel::with_latency(Duration::from_micros(50)),
            &locs,
            BatchPolicy {
                max_batch_parcels: usize::MAX,
                max_batch_bytes: 64,
                flush_interval: Duration::from_secs(10),
            },
        );
        let p = noop_parcel(LocalityId(1));
        for _ in 0..4 {
            wire.send_parcel(LocalityId(1), p.clone());
        }
        let t0 = Instant::now();
        loop {
            let (tasks, _) = drain_count(&locs[1]);
            if tasks > 0 {
                break;
            }
            assert!(t0.elapsed() < Duration::from_secs(5));
            std::thread::sleep(Duration::from_micros(200));
        }
        assert!(locs[1].counters.batch_flush_full.get() >= 1);
    }

    #[test]
    fn flusher_ships_stragglers() {
        let locs = test_localities(2);
        let wire = test_wire(
            WireModel::with_latency(Duration::from_micros(10)),
            &locs,
            BatchPolicy {
                max_batch_parcels: 1000,
                max_batch_bytes: usize::MAX,
                flush_interval: Duration::from_micros(200),
            },
        );
        let p = noop_parcel(LocalityId(1));
        wire.send_parcel(LocalityId(1), p.clone());
        let t0 = Instant::now();
        loop {
            let (tasks, parcels) = drain_count(&locs[1]);
            if tasks > 0 {
                assert_eq!(parcels, 1);
                break;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "straggler never flushed"
            );
            std::thread::sleep(Duration::from_micros(100));
        }
        assert_eq!(locs[1].counters.batch_flush_timer.get(), 1);
        drop(wire);
    }

    #[test]
    fn shutdown_drains_ports() {
        let locs = test_localities(2);
        let mut wire = test_wire(
            WireModel::with_latency(Duration::from_micros(10)),
            &locs,
            BatchPolicy {
                max_batch_parcels: 1000,
                max_batch_bytes: usize::MAX,
                flush_interval: Duration::from_secs(10),
            },
        );
        let p = noop_parcel(LocalityId(1));
        for _ in 0..3 {
            wire.send_parcel(LocalityId(1), p.clone());
        }
        wire.shutdown();
        let (tasks, parcels) = drain_count(&locs[1]);
        assert_eq!(tasks, 1, "one shutdown frame");
        assert_eq!(parcels, 3, "all pending parcels delivered");
    }

    #[test]
    fn staged_and_plain_parcels_batch_separately() {
        let locs = test_localities(2);
        let mut wire = test_wire(
            WireModel::with_latency(Duration::from_micros(10)),
            &locs,
            BatchPolicy {
                max_batch_parcels: 1000,
                max_batch_bytes: usize::MAX,
                flush_interval: Duration::from_secs(10),
            },
        );
        let plain = noop_parcel(LocalityId(1));
        let mut staged = noop_parcel(LocalityId(1));
        staged.staged = true;
        wire.send_parcel(LocalityId(1), plain);
        wire.send_parcel(LocalityId(1), staged);
        wire.shutdown();
        let (tasks, parcels) = drain_count(&locs[1]);
        assert_eq!((tasks, parcels), (1, 1), "plain frame in the injector");
        let mut staged_tasks = 0;
        while let Some(t) = locs[1].staging.steal() {
            staged_tasks += t.parcel_records();
        }
        assert_eq!(staged_tasks, 1, "staged frame in the staging buffer");
    }

    #[test]
    fn unbatched_policy_sends_single_parcels() {
        let locs = test_localities(2);
        let mut wire = test_wire(
            WireModel::with_latency(Duration::from_micros(10)),
            &locs,
            BatchPolicy::new(1),
        );
        let p = noop_parcel(LocalityId(1));
        let n = wire.send_parcel(LocalityId(1), p.clone());
        assert_eq!(n, p.encode().len());
        wire.shutdown();
        let (tasks, parcels) = drain_count(&locs[1]);
        assert_eq!((tasks, parcels), (1, 1));
        assert_eq!(
            locs[1].counters.frames_sent.get(),
            0,
            "no frames on the single-parcel path"
        );
    }

    /// Acceptance pin: the in-process backend ships version-1 frames
    /// whose bytes are identical to encoding the same parcels into a
    /// plain `FrameBuf` — the transport refactor added no bytes to the
    /// in-process wire.
    #[test]
    fn inproc_frames_are_bit_identical_to_frame_buf() {
        let locs = test_localities(2);
        let mut wire = test_wire(
            WireModel::with_latency(Duration::from_micros(10)),
            &locs,
            BatchPolicy {
                max_batch_parcels: 1000,
                max_batch_bytes: usize::MAX,
                flush_interval: Duration::from_secs(10),
            },
        );
        let p = noop_parcel(LocalityId(1));
        for _ in 0..3 {
            wire.send_parcel(LocalityId(1), p.clone());
        }
        wire.shutdown();
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
}
