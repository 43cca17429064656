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
//!                    │    └─ the delay line's next pass ┘         │
//!                    └── the event loop's next pass (a worker's) ─┘
//! ```
//!
//! Everything above the `Transport` trait — `WireMsg` submission, the
//! control-plane priority lane, `BatchPolicy` coalescing ports, flush
//! accounting — is backend-independent; a frame that did not fill is
//! shipped by the backend's own means, the backend that adopted the
//! ports (`Transport::adopt_ports`). Two backends exist:
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
//!    the backend and returns. Over TCP it queues the message and wakes
//!    the event loop's holder; socket I/O happens on whichever thread
//!    runs the loop — a worker that ran out of work, a busy one every
//!    few dozen tasks — and on a sender that is blocked on room: a
//!    submit may block for backpressure (a bounded peer queue in
//!    *bytes*; the control lane is exempt so gossip never waits behind
//!    the backlog it reports), and while it does, it runs the loop
//!    itself if nobody else is, because it is the thread that makes the
//!    room. It must never deadlock against the port locks: fault delivery
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
//! does that itself). A frame that does not fill leaves by one rule on
//! both backends: the sender whose record lands in an *empty* port kicks
//! the backend, which pulls the port at its next pass — whatever gathered
//! there meanwhile rides one frame. No timer: batching is paid for by
//! load. Over TCP the kick wakes the event loop's holder (skipped when
//! nobody holds it: whoever takes the loop next pulls first), and every
//! send pass pulls both lanes' ports toward each peer under the port lock
//! (port → peer queue, the nesting a sender's full flush takes, so
//! same-peer order holds across both). In-process the kick puts a pull
//! due at once on the delay line, whose thread ships the frame that
//! kicked — if a sender holds the port it looks again, but never ships a
//! later frame, which has a kick of its own — on the same `(time, seq)`
//! queue after the wire's delay. Either way the wire
//! runs no thread of its own, an idle runtime makes no wakeups, and the
//! shutdown drain pulls every port.
//!
//! The in-process delay model is applied per frame
//! (`delay_for(frame_bytes)`), so the latency and bandwidth arithmetic
//! stays honest while the fixed per-message costs amortize across the
//! batch.
//!
//! Ordering: under a pure-latency model, parcels to the same destination
//! stay in submission order within and across frames (frames ride the
//! same `(time, seq)` queue the single-parcel path uses). Two
//! relaxations, both of the "simultaneous messages are unordered, like a
//! real network" kind the pre-batching wire already documented:
//!
//! * with a nonzero `ns_per_byte` the delay is size-dependent, so a
//!   small frame submitted after a large one can overtake it at a frame
//!   boundary (the old wire had the same property per *parcel*);
//! * direct task transfers (`spawn_at` closures) do not pass through the
//!   ports — a task sent after a still-coalescing parcel can overtake it
//!   while it waits for the line's next pass (in-process; closures do not
//!   cross the TCP backend at all). Code that needs a parcel's effects
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
use crate::stats::{bump, Counter, TransportStats};
use parking_lot::Mutex;
use px_wire::FrameBuf;
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

/// Flush policy for the per-destination coalescing ports.
///
/// The runtime sets one value, [`crate::runtime::Config::max_batch_parcels`]
/// (default 1: batching off, every parcel ships in its own message, so
/// latency-sensitive request/response chains see no added delay); the
/// byte budget is [`MAX_BATCH_BYTES`]. Both are fields so the port unit
/// tests can isolate one `Full` cause by disabling the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BatchPolicy {
    /// Flush a port when its frame holds this many parcels (1 disables
    /// batching).
    pub max_batch_parcels: usize,
    /// Flush a port when its frame reaches this many bytes.
    pub max_batch_bytes: usize,
}

impl BatchPolicy {
    /// The runtime's policy: up to `max_batch_parcels` per frame under
    /// the fixed byte budget.
    pub(crate) fn new(max_batch_parcels: usize) -> BatchPolicy {
        BatchPolicy {
            max_batch_parcels,
            max_batch_bytes: MAX_BATCH_BYTES,
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

    /// Offer the backend the wire's coalescing ports. `false`: this
    /// backend gains nothing from coalescing, and the wire drops them (an
    /// instant in-process wire: no per-message cost to amortize). `true`:
    /// the backend kept a clone, and ships what does not fill whenever it
    /// is [kicked](Transport::kick).
    fn adopt_ports(&self, ports: &Arc<PortSet>) -> bool;

    /// A record landed in an empty port toward `dest`; the adopting
    /// backend must pull it at its next pass. TCP wakes the thread holding
    /// its event loop, if one does (many kicks before the pull count as
    /// one); in-process puts a pull due at once on the delay line. Called
    /// outside the port lock; never waits for a port.
    fn kick(&self, dest: LocalityId);

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

    /// Run one pass of the backend's event loop on the calling thread —
    /// handle what is ready, fire due timers, pull the ports and write
    /// what is queued — unless another thread is running it. With `park`,
    /// the pass then hands `park` the loop's blocking wait: a caller with
    /// nothing else to do runs it, and what arrives meanwhile is handled
    /// before this returns. `false`: there is no loop here (in-process),
    /// or another thread holds it.
    fn drive(&self, _park: Option<Park<'_>>) -> bool {
        false
    }

    /// Stop the backend — the delay line's thread in-process; over TCP
    /// the event loop, which flushes on the calling thread — flushing or
    /// loudly killing pending messages first. Called with the ports
    /// drained, by the wire — the transport's one holder.
    fn shutdown(&mut self);
}

/// What [`Transport::drive`] hands the loop's blocking wait to.
pub(crate) type Park<'a> = &'a mut dyn FnMut(&mut dyn FnMut());

/// One coalescing queue: pending frame plus when its oldest record landed.
struct Port {
    frame: FrameBuf,
    /// Stamped when a record lands in the empty port: the frame's identity
    /// to an in-process pull, and the `NetRtt` stamp of a pulled frame.
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
        bump!(dest_loc.counters.frames_sent);
        // Counted at flush, under the port lock, so coalesced_parcels and
        // frames_sent advance together and their ratio never exceeds the cap.
        bump!(dest_loc.counters.coalesced_parcels, records - 1);
        bump!(cause);
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

    /// The backend's half: hand `ship` whatever both lanes' ports toward
    /// `dest` hold — only a frame opened by `opened_by`, when given — with
    /// the stamp of each frame's oldest record, booked
    /// `batch_flush_pulled`. `ship` runs under the port lock (the nesting
    /// a sender's full flush takes), so same-destination order holds.
    /// Never waits for a port: a sender may hold one while blocked on the
    /// very queue the puller drains. Returns `false` when a held port was
    /// skipped — the caller pulls again once it has drained.
    pub(crate) fn pull(
        &self,
        dest: LocalityId,
        dest_loc: &Locality,
        opened_by: Option<Instant>,
        mut ship: impl FnMut(Lane, Vec<u8>, Option<Instant>),
    ) -> bool {
        let (mut all, pulled) = (true, &dest_loc.counters.batch_flush_pulled);
        for lane in [Lane::Run, Lane::Staged] {
            let Some(mut port) = self.port(dest, lane).try_lock() else {
                all = false;
                continue;
            };
            if opened_by.is_some_and(|by| port.opened_at.is_none_or(|t| t > by)) {
                continue;
            }
            if let Some((bytes, opened_at)) = port.take(pulled, dest_loc) {
                ship(lane, bytes, opened_at);
            }
        }
        all
    }
}

/// The runtime's wire: coalescing ports in front of a `Transport`
/// backend sinking into locality run queues (directly in-process, over
/// sockets across OS processes).
pub(crate) struct Wire {
    transport: Arc<dyn Transport>,
    /// The ports, when the backend adopted them
    /// ([`Transport::adopt_ports`]).
    ports: Option<Arc<PortSet>>,
    localities: Arc<Vec<Arc<Locality>>>,
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
        Wire {
            ports: ports.filter(|ports| transport.adopt_ports(ports)),
            transport,
            localities,
        }
    }

    /// Encode and submit one parcel toward `dest`, batching according to
    /// the policy. The parcel ends here, by value: its bytes are the
    /// transport's from now on. Returns the encoded size for accounting.
    pub(crate) fn send_parcel(&self, dest: LocalityId, p: Parcel) -> usize {
        let lane = Lane::of_parcel(p.staged);
        let Some(ports) = &self.ports else {
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
            port.opened_at = Some(Instant::now());
        }
        // Report the record's full wire footprint (parcel + length
        // prefix) so `bytes_sent` tracks what the delay model charges; of
        // the frame, only the fixed 5-byte header goes unattributed.
        let n = port.frame.push_record_with(|w| p.ship_into(w)) + px_wire::RECORD_HEADER_LEN;
        let policy = &ports.policy;
        if port.frame.record_count() as usize >= policy.max_batch_parcels
            || port.frame.len() >= policy.max_batch_bytes
        {
            if let Some((bytes, _)) = port.take(&dest_loc.counters.batch_flush_full, dest_loc) {
                let len = bytes.len();
                self.transport
                    .submit(WireMsg::Frame { dest, lane, bytes }, len);
            }
        } else if was_empty {
            // The first record of an idle port: the backend hears of it
            // now, outside the port lock. Later records ride on this
            // kick — the port stays non-empty until the flush it causes.
            drop(port);
            self.transport.kick(dest);
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

    /// Drive the backend's event loop on this thread
    /// ([`Transport::drive`]).
    pub(crate) fn drive(&self, park: Option<Park<'_>>) -> bool {
        self.transport.drive(park)
    }

    /// Drain the ports, stop the transport.
    pub(crate) fn shutdown(&mut self) {
        if let Some(ports) = &self.ports {
            // A pull of every port, through `submit`; the backend holds
            // one only for a moment.
            for (dest, dest_loc) in self.localities.iter().enumerate() {
                let dest = LocalityId(dest as u16);
                while !ports.pull(dest, dest_loc, None, |lane, bytes, _| {
                    let n = bytes.len();
                    self.transport
                        .submit(WireMsg::Frame { dest, lane, bytes }, n);
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

    // ---- batching ---------------------------------------------------------

    fn test_localities(n: usize) -> Arc<Vec<Arc<Locality>>> {
        Arc::new(
            (0..n)
                .map(|i| Arc::new(Locality::new(LocalityId(i as u16), false)))
                .collect(),
        )
    }

    fn test_wire(
        latency: Duration,
        locs: &Arc<Vec<Arc<Locality>>>,
        policy: BatchPolicy,
        clock: &Clock,
    ) -> Wire {
        let model = WireModel::with_latency(latency);
        let transport = InProcTransport::new(model, locs.clone(), clock);
        Wire::new(Arc::new(transport), locs.clone(), policy)
    }

    /// A wire whose line runs on a stepped clock: nothing moves until the
    /// test advances it.
    fn stepped_wire(
        latency: Duration,
        locs: &Arc<Vec<Arc<Locality>>>,
        policy: BatchPolicy,
    ) -> (Stepper, Wire) {
        let clock = Stepper::default();
        let wire = test_wire(latency, locs, policy, &Clock::Stepped(clock.clone()));
        (clock, wire)
    }

    const LATENCY: Duration = Duration::from_micros(10);

    /// A stepped wire over a 10 µs line with `n` parcels sent toward
    /// locality 1, all before the line's next pass.
    fn burst(policy: BatchPolicy, n: usize) -> (Arc<Vec<Arc<Locality>>>, Stepper, Wire) {
        let locs = test_localities(2);
        let (clock, wire) = stepped_wire(LATENCY, &locs, policy);
        for _ in 0..n {
            wire.send_parcel(LocalityId(1), noop_parcel(LocalityId(1)));
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

    /// Ports with no cap but `max_batch_parcels`.
    fn cap(max_batch_parcels: usize) -> BatchPolicy {
        BatchPolicy {
            max_batch_parcels,
            max_batch_bytes: usize::MAX,
        }
    }

    #[test]
    fn batch_flushes_on_parcel_count() {
        let (locs, clock, _wire) = burst(cap(4), 8);
        clock.advance(LATENCY);
        assert_eq!(drain_count(&locs[1]), (2, 8), "two frames of four");
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
        let budget = BatchPolicy {
            max_batch_parcels: usize::MAX,
            max_batch_bytes: 64,
        };
        let (locs, clock, _wire) = burst(budget, 4);
        clock.advance(LATENCY);
        assert_eq!(drain_count(&locs[1]).1, 4);
        assert!(locs[1].counters.batch_flush_full.get() >= 1);
    }

    /// A lone record leaves at the line's next pass: the kick's pull is
    /// due at once, so over a 50 µs line the record arrives when the
    /// clock has moved exactly 50 µs.
    #[test]
    fn a_lone_record_leaves_at_the_lines_next_pass() {
        let latency = Duration::from_micros(50);
        let locs = test_localities(2);
        let (clock, wire) = stepped_wire(latency, &locs, cap(1000));
        wire.send_parcel(LocalityId(1), noop_parcel(LocalityId(1)));
        clock.advance(latency - Duration::from_nanos(1));
        assert_eq!(drain_count(&locs[1]), (0, 0), "still on the wire");
        assert_eq!(locs[1].counters.batch_flush_pulled.get(), 1, "pulled");
        clock.advance(Duration::from_nanos(1));
        assert_eq!(drain_count(&locs[1]), (1, 1));
    }

    /// Records that land between two passes ride one frame: the first
    /// one's kick arms the pull, and the rest find the port open.
    #[test]
    fn records_that_land_between_two_passes_ride_one_frame() {
        let (locs, clock, wire) = burst(cap(1000), 5);
        clock.advance(LATENCY);
        assert_eq!(drain_count(&locs[1]), (1, 5));
        for _ in 0..3 {
            wire.send_parcel(LocalityId(1), noop_parcel(LocalityId(1)));
        }
        clock.advance(LATENCY);
        assert_eq!(drain_count(&locs[1]), (1, 3));
        let c = &locs[1].counters;
        assert_eq!((c.frames_sent.get(), c.batch_flush_pulled.get()), (2, 2));
        assert_eq!(c.coalesced_parcels.get(), 4 + 2);
    }

    /// An in-process pull ships only the frame that kicked it: a later
    /// frame has a kick of its own, and a pull that waited out a busy port
    /// must not chase the sender into it one record at a time.
    #[test]
    fn a_pull_ships_only_the_frame_that_kicked_it() {
        let stale = Instant::now();
        let (locs, _clock, wire) = burst(cap(1000), 1);
        let (ports, dest) = (wire.ports.as_ref().unwrap(), LocalityId(1));
        let mut shipped = 0;
        assert!(ports.pull(dest, &locs[1], Some(stale), |_, _, _| shipped += 1));
        assert_eq!(shipped, 0, "the frame opened after that kick");
        assert!(ports.pull(dest, &locs[1], Some(Instant::now()), |_, _, _| shipped += 1));
        assert_eq!(shipped, 1);
    }

    /// `NetRtt` means the same on both backends: a pulled frame is timed
    /// from its oldest record's landing in the port, so a straggler alone
    /// in its port reads at least the line's latency. On the real clock:
    /// the stamps are real time.
    #[test]
    fn a_pulled_frame_is_timed_from_its_oldest_record() {
        let locs: Arc<Vec<Arc<Locality>>> = Arc::new(
            (0..2)
                .map(|i| {
                    let mut loc = Locality::new(LocalityId(i), false);
                    loc.enable_metrics(Arc::default());
                    Arc::new(loc)
                })
                .collect(),
        );
        let latency = Duration::from_micros(50);
        let wire = test_wire(latency, &locs, BatchPolicy::new(16), &Clock::Real);
        for _ in 0..50 {
            wire.send_parcel(LocalityId(1), noop_parcel(LocalityId(1)));
            let t0 = Instant::now();
            while drain_count(&locs[1]).1 == 0 {
                assert!(t0.elapsed() < Duration::from_secs(5), "never arrived");
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
        let (locs, _clock, mut wire) = burst(cap(1000), 3);
        wire.shutdown();
        assert_eq!(drain_count(&locs[1]), (1, 3), "one frame, every parcel");
        assert_eq!(locs[1].counters.batch_flush_pulled.get(), 1);
    }

    #[test]
    fn staged_and_plain_parcels_batch_separately() {
        let locs = test_localities(2);
        let (_clock, mut wire) = stepped_wire(LATENCY, &locs, cap(1000));
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
        let (_clock, mut wire) = stepped_wire(LATENCY, &locs, BatchPolicy::new(1));
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
        let (locs, _clock, mut wire) = burst(cap(1000), 3);
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
}
