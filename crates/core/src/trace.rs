//! Causal tracing: replay a request end to end across localities and ranks.
//!
//! ParalleX computations are split-phase — a request is a *chain* of
//! parcels, LCO triggers, and continuations, not a call stack — so when a
//! parcel dies or a tail-latency outlier appears, no stack trace exists to
//! explain it. This module supplies the missing causality:
//!
//! * a **64-bit trace id** rides in the parcel header (gated on
//!   [`px_wire::parcel_flags::HAS_TRACE`], zero bytes when absent) and is
//!   inherited by everything a traced parcel causes: spawned threads,
//!   LCO triggers and poisons, fault deliveries, migration chases,
//!   balancer sheds, and follow-on parcels — across ranks, because the id
//!   is part of the wire encoding;
//! * each locality records compact [`TraceEvent`]s into a fixed-size,
//!   lock-free [`TraceRing`] (one atomic ticket cursor, per-slot
//!   seqlocks; a writer that collides with another a full ring ahead
//!   drops its event rather than blocking);
//! * [`crate::runtime::Runtime::trace_dump`] merges the rings into a
//!   [`TraceDump`], which can be filtered by trace id, serialized, shipped
//!   between ranks, merged with another rank's dump, and ordered causally
//!   (in-rank by recording order; cross-rank by matching each network
//!   receive with its submit).
//!
//! Tracing is **off by default** and costs one `Option` branch per hook
//! when off; [`TraceConfig::sample_every`] enables it for one in N root
//! parcels so production runs can keep it always-on.

use crate::gid::LocalityId;
use crate::stats::Counter;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Tracing knobs ([`crate::runtime::Config::trace`]; off by default).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Assign a fresh trace id to one in this many untraced root parcels
    /// (`0` = tracing off, `1` = trace everything). Parcels that already
    /// carry a trace id — inherited or explicit — are always recorded.
    pub sample_every: u64,
}

impl TraceConfig {
    /// True when tracing is on (ids are sampled and events recorded).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sample_every > 0
    }
}

/// The one definition of the trace event kinds. Each row — variant, ring
/// code, label — expands to the enum variant, an arm of
/// [`TraceEventKind::from_code`] and an arm of [`TraceEventKind::label`];
/// the serde variant index a shipped [`TraceEvent`] carries *is* the
/// code, so retiring a row renumbers nothing.
macro_rules! trace_events {
    ($($(#[$doc:meta])* $variant:ident = $code:literal, $label:literal;)*) => {
        /// What happened (the discriminant of a [`TraceEvent`]).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum TraceEventKind {
            $($(#[$doc])* $variant = $code,)*
        }

        impl Serialize for TraceEventKind {
            fn serialize<S: serde::Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
                s.put_variant(u32::from(self.code()))
            }
        }

        impl<'de> Deserialize<'de> for TraceEventKind {
            fn deserialize<D: serde::Deserializer<'de>>(d: &mut D) -> Result<Self, D::Error> {
                let code = d.take_variant()?;
                let kind = u16::try_from(code).ok().and_then(TraceEventKind::from_code);
                kind.ok_or_else(|| serde::de::Error::custom(format!("no trace event kind {code}")))
            }
        }

        impl TraceEventKind {
            /// Compact code for in-ring packing (see [`TraceRing`]);
            /// inverse of [`TraceEventKind::from_code`].
            pub fn code(self) -> u16 {
                self as u16
            }

            /// Decode a packed kind; `None` for codes no variant carries.
            pub fn from_code(code: u16) -> Option<TraceEventKind> {
                match code {
                    $($code => Some(TraceEventKind::$variant),)*
                    _ => None,
                }
            }

            /// Short lowercase label for rendering.
            pub fn label(self) -> &'static str {
                match self {
                    $(TraceEventKind::$variant => $label,)*
                }
            }
        }
    };
}

trace_events! {
    /// A parcel entered the runtime's send path (`aux` = dest locality).
    ParcelSend = 0, "parcel-send";
    /// A parcel began executing at its destination.
    ParcelDispatch = 1, "parcel-dispatch";
    /// A parcel was forwarded after a stale AGAS resolution
    /// (`aux` = hops so far).
    ParcelForward = 2, "parcel-forward";
    /// A parcel was killed (`aux` = [`crate::error::FaultCause`] wire
    /// code).
    ParcelKill = 3, "parcel-kill";
    /// An LCO was triggered with a value (`gid` = the LCO).
    LcoTrigger = 4, "lco-trigger";
    /// An LCO was poisoned with a fault (`aux` = cause wire code).
    LcoPoison = 5, "lco-poison";
    /// An LCO released a waiter (resumed thread or fired continuation).
    LcoRelease = 6, "lco-release";
    /// A parallel process was cancelled (`gid` = the process).
    ProcessCancel = 7, "process-cancel";
    /// An object migrated between localities (`aux` = new home).
    Migrate = 8, "migrate";
    /// An AGAS chase hop: a resolution was stale and repaired
    /// (`aux` = the corrected locality).
    Chase = 9, "chase";
    /// The balancer shed queued work to a less-loaded peer
    /// (`aux` = the receiving locality).
    BalanceShed = 10, "balance-shed";
    /// The transport accepted a traced message for a peer
    /// (`aux` = destination rank).
    NetSubmit = 11, "net-submit";
    /// The transport received a traced message from a peer
    /// (`aux` = source rank).
    NetRecv = 12, "net-recv";
    /// The transport declared a traced message undeliverable
    /// (`aux` = peer rank). Code 13 was the reconnect event of a transport
    /// that re-dialled; it stays unassigned.
    NetFault = 14, "net-fault";
}

/// One recorded event. Compact and `Copy`: six words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// The trace this event belongs to.
    pub trace: u64,
    /// What happened.
    pub kind: TraceEventKind,
    /// Subject gid (parcel dest, LCO, or process; `0` if not applicable).
    pub gid: u64,
    /// Kind-specific detail: fault-cause wire code, peer rank, hop count.
    pub aux: u64,
    /// Monotonic nanoseconds since the recording runtime's trace epoch.
    /// Comparable within one OS process only — cross-rank ordering uses
    /// causal matching, not clocks.
    pub at_ns: u64,
    /// Ticket of the recording ring: each locality's ring numbers its
    /// events on its own, so `seq` orders events of one ring only (and
    /// breaks ties on `at_ns`).
    pub seq: u64,
    /// Recording locality.
    pub locality: u16,
    /// Recording rank (one causality domain per OS process): events with
    /// equal `domain` are ordered by `(at_ns, seq)` — every ring of a
    /// runtime shares one epoch; events across domains only by send/recv
    /// matching.
    pub domain: u16,
}

/// One seqlock-protected slot: `seq` is `0` when never written, odd while
/// a writer owns the slot, and even `>= 2` once an event is published in
/// `words`. Six data words hold one packed [`TraceEvent`]:
/// `[trace, gid, aux, at_ns, ticket, kind | locality << 16 | domain << 32]`.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; 6],
}

/// Events per locality ring in a runtime; the oldest events are
/// overwritten when full (counted in `trace_events_dropped`).
pub const RING_CAPACITY: usize = 4096;

/// Fixed-size, lock-free per-locality event ring.
///
/// Writers take a ticket with one `fetch_add` on the cursor, claim the
/// slot by CASing its seqlock even→odd, store the six data words, and
/// publish with a Release store of the next even value. A writer that
/// loses the claim CAS collided with another writer a full ring ahead —
/// it drops its own event (the caller counts it in
/// `trace_events_dropped`) instead of blocking or tearing the slot.
/// Readers enter with an Acquire load of the seqlock, copy the words,
/// and revalidate the sequence behind an Acquire fence; a torn slot is
/// skipped, never surfaced.
pub struct TraceRing {
    locality: u16,
    domain: u16,
    epoch: Instant,
    cursor: Counter,
    slots: Vec<Slot>,
}

impl TraceRing {
    /// Build a ring of `capacity` slots for `locality` on rank `domain`,
    /// stamping timestamps relative to `epoch` (shared by every ring of
    /// one runtime so in-process timestamps are comparable).
    pub fn new(capacity: usize, locality: LocalityId, domain: u16, epoch: Instant) -> TraceRing {
        TraceRing {
            locality: locality.0,
            domain,
            epoch,
            cursor: Counter::default(),
            slots: (0..capacity.max(1))
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
        }
    }

    /// Record one event under `trace`. Returns `true` when an event was
    /// lost — either an older one overwritten (the ring wrapped) or this
    /// one dropped after losing the slot-claim race.
    pub fn record(&self, trace: u64, kind: TraceEventKind, gid: u64, aux: u64) -> bool {
        // The ticket only picks a slot; the claim CAS below is what
        // orders the write.
        let ticket = self.cursor.add(1);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        let seq = &slot.seq;
        let seq0 = seq.load(Ordering::Acquire);
        if seq0 & 1 == 1 {
            // A writer a full ring ahead owns the slot: drop this event.
            return true;
        }
        // Relaxed failure ordering: losing the claim race means this
        // event is dropped, nothing is read or written.
        let claim = seq.compare_exchange(seq0, seq0 + 1, Ordering::Acquire, Ordering::Relaxed);
        if claim.is_err() {
            return true;
        }
        let packed = [
            trace,
            gid,
            aux,
            self.epoch.elapsed().as_nanos() as u64,
            ticket,
            kind.code() as u64 | (self.locality as u64) << 16 | (self.domain as u64) << 32,
        ];
        for (cell, word) in slot.words.iter().zip(packed) {
            // Relaxed data stores: the Release publication below orders
            // them for any reader that sees the new sequence.
            cell.store(word, Ordering::Relaxed);
        }
        seq.store(seq0 + 2, Ordering::Release);
        seq0 != 0
    }

    /// Total events ever recorded (including overwritten and dropped
    /// ones).
    pub fn recorded(&self) -> u64 {
        self.cursor.get()
    }

    /// Copy out the surviving events, in recording order. Slots a writer
    /// is mid-way through are skipped (the wrap already counts the old
    /// event as overwritten), so the snapshot never contains a torn
    /// event.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 & 1 == 1 {
                continue; // never written, or a writer owns it right now
            }
            // Relaxed data reads: the Acquire fence below orders them
            // before the revalidation load.
            let words: [u64; 6] = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            std::sync::atomic::fence(Ordering::Acquire);
            // Relaxed revalidation load: the fence provides the edge.
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s1 != s2 {
                continue; // a writer claimed the slot mid-read: skip it
            }
            let Some(kind) = TraceEventKind::from_code((words[5] & 0xffff) as u16) else {
                continue;
            };
            out.push(TraceEvent {
                trace: words[0],
                gid: words[1],
                aux: words[2],
                at_ns: words[3],
                seq: words[4],
                kind,
                locality: (words[5] >> 16) as u16,
                domain: (words[5] >> 32) as u16,
            });
        }
        out.sort_by_key(|e| e.seq);
        out
    }
}

/// A merged, orderable set of trace events — what
/// [`crate::runtime::Runtime::trace_dump`] returns. Serializable so one
/// rank's slice can be shipped to another (e.g. over a parcel) and merged
/// into a cross-rank replay.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceDump {
    /// The events, causally ordered (see [`TraceDump::order_causally`]).
    pub events: Vec<TraceEvent>,
}

impl TraceDump {
    /// Build from raw events (orders them causally).
    pub fn new(events: Vec<TraceEvent>) -> TraceDump {
        let mut d = TraceDump { events };
        d.order_causally();
        d
    }

    /// The distinct trace ids present, ascending.
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.events.iter().map(|e| e.trace).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Only the events of `trace`, causally ordered.
    pub fn filter(&self, trace: u64) -> TraceDump {
        TraceDump {
            events: self
                .events
                .iter()
                .copied()
                .filter(|e| e.trace == trace)
                .collect(),
        }
    }

    /// Merge with another rank's dump and re-order causally.
    pub fn merge(mut self, other: TraceDump) -> TraceDump {
        self.events.extend(other.events);
        self.order_causally();
        self
    }

    /// Order events causally: within a domain (one OS process) by
    /// timestamp, `seq` breaking ties — the rings of one runtime share an
    /// epoch and stamp an event after claiming its slot, whereas their
    /// tickets are per ring; across domains, a [`TraceEventKind::NetRecv`] of
    /// trace `t` from rank `r` is placed after a matching
    /// [`TraceEventKind::NetSubmit`] of `t` sent from `r` — clocks are
    /// never compared across domains. If ring overwrites leave a receive
    /// unmatched, the ordering degrades gracefully to timestamp order for
    /// the stuck fronts rather than stalling.
    pub fn order_causally(&mut self) {
        // Per-domain queues in time order.
        let mut domains: HashMap<u16, Vec<TraceEvent>> = HashMap::new();
        for e in self.events.drain(..) {
            domains.entry(e.domain).or_default().push(e);
        }
        let mut queues: Vec<(Vec<TraceEvent>, usize)> = domains
            .into_values()
            .map(|mut v| {
                v.sort_by_key(|e| (e.at_ns, e.seq));
                (v, 0usize)
            })
            .collect();
        queues.sort_by_key(|(v, _)| v.first().map(|e| e.domain).unwrap_or(0));
        // Emitted-submit minus emitted-recv counts, keyed by
        // (trace, from-rank, to-rank).
        let mut in_flight: HashMap<(u64, u64, u64), i64> = HashMap::new();
        let mut out = Vec::with_capacity(queues.iter().map(|(v, _)| v.len()).sum());
        loop {
            let mut best: Option<usize> = None;
            let mut fallback: Option<usize> = None;
            for (qi, (q, at)) in queues.iter().enumerate() {
                let Some(e) = q.get(*at) else { continue };
                let enabled = match e.kind {
                    TraceEventKind::NetRecv => in_flight
                        .get(&(e.trace, e.aux, e.domain as u64))
                        .is_some_and(|n| *n > 0),
                    _ => true,
                };
                let better = |cur: Option<usize>| {
                    cur.is_none_or(|c| {
                        let (cq, cat) = &queues[c];
                        let ce = cq[*cat];
                        (e.at_ns, e.domain, e.seq) < (ce.at_ns, ce.domain, ce.seq)
                    })
                };
                if enabled && better(best) {
                    best = Some(qi);
                }
                if better(fallback) {
                    fallback = Some(qi);
                }
            }
            // No enabled front means an unmatched receive (its submit was
            // overwritten): make progress on the earliest front anyway.
            let Some(pick) = best.or(fallback) else { break };
            let (q, at) = &mut queues[pick];
            let e = q[*at];
            *at += 1;
            match e.kind {
                TraceEventKind::NetSubmit => {
                    *in_flight
                        .entry((e.trace, e.domain as u64, e.aux))
                        .or_insert(0) += 1;
                }
                TraceEventKind::NetRecv => {
                    *in_flight
                        .entry((e.trace, e.aux, e.domain as u64))
                        .or_insert(0) -= 1;
                }
                _ => {}
            }
            out.push(e);
        }
        self.events = out;
    }

    /// Render a human-readable timeline, one event per line.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for e in &self.events {
            let _ = writeln!(
                s,
                "  [rank{} L{} +{:>9.1}us] {:<15} trace={:#018x} gid={:#x} aux={}",
                e.domain,
                e.locality,
                e.at_ns as f64 / 1e3,
                e.kind.label(),
                e.trace,
                e.gid,
                e.aux,
            );
        }
        s
    }
}

/// Runtime-wide trace state: the sampler and the id allocator.
pub(crate) struct TraceState {
    /// `Config::trace.sample_every` (non-zero: tracing on).
    sample_every: u64,
    /// Untraced root parcels seen by the sampler.
    seen: Counter,
    /// Ids handed out (the low bits of the next id).
    next: Counter,
    /// This rank, baked into the id's high bits so ids never collide
    /// across ranks without coordination.
    domain: u16,
}

impl TraceState {
    pub(crate) fn new(sample_every: u64, domain: u16) -> TraceState {
        TraceState {
            sample_every,
            seen: Counter::default(),
            next: Counter::default(),
            domain,
        }
    }

    /// Sample one untraced root parcel: `Some(fresh id)` for one in
    /// `sample_every`, `None` otherwise.
    pub(crate) fn maybe_sample(&self) -> Option<u64> {
        if self.sample_every == 0 {
            return None;
        }
        let n = self.seen.add(1);
        if n.is_multiple_of(self.sample_every) {
            Some(self.fresh_id())
        } else {
            None
        }
    }

    /// Allocate a fresh, never-zero trace id unique to this rank:
    /// `(rank + 1) << 48 | counter`.
    pub(crate) fn fresh_id(&self) -> u64 {
        let seq = self.next.add(1);
        ((self.domain as u64 + 1) << 48) | (seq & 0xffff_ffff_ffff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace: u64, kind: TraceEventKind, domain: u16, seq: u64, at_ns: u64) -> TraceEvent {
        TraceEvent {
            trace,
            kind,
            gid: 0,
            aux: 0,
            at_ns,
            seq,
            locality: domain,
            domain,
        }
    }

    #[test]
    fn ring_records_and_wraps() {
        let r = TraceRing::new(4, LocalityId(2), 0, Instant::now());
        for i in 0..6u64 {
            let wrapped = r.record(7, TraceEventKind::ParcelSend, i, 0);
            assert_eq!(wrapped, i >= 4, "wrap starts at capacity");
        }
        assert_eq!(r.recorded(), 6);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4, "ring keeps the newest `capacity` events");
        // The survivors are the newest four, in recording order.
        assert_eq!(snap.iter().map(|e| e.gid).collect::<Vec<_>>(), [2, 3, 4, 5]);
        assert!(snap.iter().all(|e| e.locality == 2 && e.trace == 7));
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    /// Codes, labels and the serde variant index are on the wire (a
    /// shipped `TraceEvent`, a rendered dump): the table must keep what
    /// the hand-written enum, `from_code` and `label` had.
    #[test]
    fn kind_codes_round_trip() {
        let labels = "parcel-send parcel-dispatch parcel-forward parcel-kill lco-trigger \
                      lco-poison lco-release process-cancel migrate chase balance-shed \
                      net-submit net-recv - net-fault";
        for (code, label) in labels.split_whitespace().enumerate() {
            let bytes = [code as u8];
            let Some(k) = TraceEventKind::from_code(code as u16) else {
                // The reconnect event: retired, its code never reassigned.
                assert_eq!(code, 13);
                assert!(px_wire::from_bytes::<TraceEventKind>(&bytes).is_err());
                continue;
            };
            assert_eq!((k.code(), k.label()), (code as u16, label));
            assert_eq!(px_wire::to_bytes(&k).unwrap(), bytes);
            assert_eq!(px_wire::from_bytes::<TraceEventKind>(&bytes).unwrap(), k);
        }
        assert!(TraceEventKind::from_code(15).is_none());
    }

    /// Seqlock integrity: under concurrent writers a snapshot may miss
    /// in-flight slots but must never surface a torn event (mixed-up
    /// words would show as a wrong locality/domain/kind here).
    #[test]
    fn concurrent_writers_never_tear_the_ring() {
        use std::sync::Arc;
        let r = Arc::new(TraceRing::new(8, LocalityId(1), 2, Instant::now()));
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        r.record(t, TraceEventKind::LcoTrigger, i, t);
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            for e in r.snapshot() {
                assert_eq!(e.kind, TraceEventKind::LcoTrigger);
                assert_eq!(e.locality, 1);
                assert_eq!(e.domain, 2);
                assert!(e.trace < 4 && e.gid < 500 && e.aux == e.trace);
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(r.recorded(), 2000);
        assert_eq!(
            r.snapshot().len(),
            8,
            "quiescent ring: every slot published"
        );
    }

    #[test]
    fn zero_capacity_ring_degrades_to_one_slot() {
        let r = TraceRing::new(0, LocalityId(0), 0, Instant::now());
        r.record(1, TraceEventKind::ParcelSend, 0, 0);
        assert_eq!(r.snapshot().len(), 1);
    }

    #[test]
    fn sampler_rate_and_id_uniqueness() {
        let s = TraceState::new(4, 3);
        let hits: Vec<Option<u64>> = (0..8).map(|_| s.maybe_sample()).collect();
        assert!(hits[0].is_some() && hits[4].is_some());
        assert_eq!(hits.iter().flatten().count(), 2);
        let a = hits[0].unwrap();
        let b = hits[4].unwrap();
        assert_ne!(a, b);
        assert_eq!(a >> 48, 4, "rank baked into the high bits");
        assert_ne!(a, 0, "ids are never zero");
        let off = TraceState::new(0, 0);
        assert!(off.maybe_sample().is_none());
    }

    #[test]
    fn dump_filter_and_ids() {
        let d = TraceDump::new(vec![
            ev(1, TraceEventKind::ParcelSend, 0, 0, 0),
            ev(2, TraceEventKind::ParcelSend, 0, 1, 1),
            ev(1, TraceEventKind::ParcelDispatch, 0, 2, 2),
        ]);
        assert_eq!(d.trace_ids(), [1, 2]);
        assert_eq!(d.filter(1).events.len(), 2);
        assert!(d.filter(9).events.is_empty());
        assert!(d.render().contains("parcel-dispatch"));
    }

    /// The acceptance shape: cross-rank order comes from send/recv
    /// matching, not from comparing clocks of different processes — here
    /// rank 1's clock reads *earlier* than rank 0's throughout, and the
    /// merged order is still send → recv → dispatch → fault → poison.
    #[test]
    fn cross_rank_merge_orders_causally_despite_skewed_clocks() {
        let t = 42;
        let rank0 = TraceDump {
            events: vec![
                ev(t, TraceEventKind::ParcelSend, 0, 0, 1000),
                {
                    let mut e = ev(t, TraceEventKind::NetSubmit, 0, 1, 1001);
                    e.aux = 1; // to rank 1
                    e
                },
                {
                    let mut e = ev(t, TraceEventKind::NetFault, 0, 2, 1002);
                    e.aux = 1;
                    e
                },
                ev(t, TraceEventKind::ParcelKill, 0, 3, 1003),
                ev(t, TraceEventKind::LcoPoison, 0, 4, 1004),
            ],
        };
        let rank1 = TraceDump {
            events: vec![
                {
                    // Skewed: rank 1's timestamps all predate rank 0's.
                    let mut e = ev(t, TraceEventKind::NetRecv, 1, 0, 10);
                    e.aux = 0; // from rank 0
                    e
                },
                ev(t, TraceEventKind::ParcelDispatch, 1, 1, 11),
            ],
        };
        let merged = rank0.merge(rank1);
        let kinds: Vec<TraceEventKind> = merged.events.iter().map(|e| e.kind).collect();
        let pos = |k: TraceEventKind| kinds.iter().position(|&x| x == k).unwrap();
        assert!(pos(TraceEventKind::NetSubmit) < pos(TraceEventKind::NetRecv));
        assert!(pos(TraceEventKind::NetRecv) < pos(TraceEventKind::ParcelDispatch));
        assert!(pos(TraceEventKind::ParcelKill) < pos(TraceEventKind::LcoPoison));
        assert_eq!(merged.events.len(), 7);
    }

    /// An unmatched receive (its submit overwritten by ring wrap) cannot
    /// stall the merge.
    #[test]
    fn unmatched_recv_still_makes_progress() {
        let mut recv = ev(5, TraceEventKind::NetRecv, 1, 0, 10);
        recv.aux = 0;
        let d = TraceDump::new(vec![recv, ev(5, TraceEventKind::ParcelDispatch, 1, 1, 11)]);
        assert_eq!(d.events.len(), 2);
        assert_eq!(d.events[0].kind, TraceEventKind::NetRecv);
    }
}
