//! Instrumentation: the efficiency factors the paper names (§2.1) —
//! latency exposure, overhead, starvation — made measurable.
//!
//! Every locality keeps lock-free counters in rows: one per worker, which
//! only that worker writes, and one shared by every other thread (driver
//! threads, a TCP loop run off the workers, other localities' workers).
//! The rows are summed when a snapshot is taken (`Locality::stats`, the
//! one way to read them), so a [`LocalityStats`] total means what it
//! would with a single row. A [`StatsSnapshot`] is a consistent-enough
//! copy for experiment output (individual counters are exact;
//! cross-counter skew is bounded by the snapshot interval, which is fine
//! for the ratios the experiments report).

/// A monotone statistic: an event count, a running total, or a ticket
/// dispenser. Every `counters!` row, histogram cell, AGAS, process and
/// TCP-peer tally and trace or balancer ticket is one, so the runtime's
/// statistics are relaxed by construction and nothing else is: anywhere
/// else `Ordering::Relaxed` needs a comment saying why (held by the root
/// package's `tests/source_conventions.rs`).
///
/// Relaxed, once, for all of them: a counter publishes no other memory.
/// Each `add` is atomic, so no increment is lost and no two callers draw
/// one ticket; a reader sums or prints the value and decides nothing
/// about other data from it, so it needs no happens-before edge, and a
/// snapshot tolerates the bounded skew between two counters read apart.
#[repr(transparent)]
#[derive(Debug, Default)]
pub struct Counter(std::sync::atomic::AtomicU64);

// `repr(transparent)`: a `Counter` is laid out as the atomic it wraps.
const _: () = assert!(size_of::<Counter>() == size_of::<std::sync::atomic::AtomicU64>());

impl Counter {
    /// Add `n`; returns the value before the add (the caller's ticket,
    /// when the counter is a dispenser).
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        // Relaxed: a statistic publishes nothing (see the type's docs).
        self.0.fetch_add(n, std::sync::atomic::Ordering::Relaxed)
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // Relaxed: as in `add`.
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// The one definition of the per-locality statistics. Each counter row
/// (doc comment + name) becomes a [`Counter`] field of
/// [`LocalityCounters`], a `u64` field of [`LocalityStats`], and a term of
/// `snapshot`, `delta_from`, `total` and `for_each` — adding a counter is
/// adding a row here and a `bump!` where the event happens. A gauge row
/// is live state, not an event count: it has no cell, is sampled when the
/// snapshot is taken (`Locality::stats`), and a delta keeps the newer
/// sample.
macro_rules! counters {
    (
        $($(#[$doc:meta])* $name:ident,)*
        ; gauges:
        $($(#[$gdoc:meta])* $gauge:ident,)*
    ) => {
        /// One row of per-locality counters (all monotone). A locality
        /// keeps one row per worker plus one shared row, and sums them
        /// when a snapshot is taken (`Locality::stats`): a worker's
        /// per-task bumps write only its own row, which starts on its own
        /// cache lines, so no line is written by every worker.
        #[derive(Debug, Default)]
        #[repr(align(128))]
        pub struct LocalityCounters {
            $($(#[$doc])* pub $name: Counter,)*
        }

        /// Plain-data copy of [`LocalityCounters`], plus the gauges
        /// sampled beside it.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
        pub struct LocalityStats {
            $($(#[$doc])* pub $name: u64,)*
            $($(#[$gdoc])* pub $gauge: u64,)*
        }

        impl LocalityCounters {
            /// Copy current values (gauges read 0 until sampled).
            pub fn snapshot(&self) -> LocalityStats {
                Self::sum(std::slice::from_ref(self))
            }

            /// The element-wise sum of `rows` (gauges read 0 until
            /// sampled): one locality's counters.
            pub fn sum(rows: &[LocalityCounters]) -> LocalityStats {
                LocalityStats {
                    $($name: rows.iter().map(|r| r.$name.get()).sum(),)*
                    $($gauge: 0,)*
                }
            }
        }

        #[cfg(test)]
        impl LocalityCounters {
            /// Every counter cell, in table order.
            fn cells(&self) -> Vec<&Counter> {
                vec![$(&self.$name),*]
            }
        }

        impl LocalityStats {
            /// Element-wise difference (for interval measurements); a
            /// gauge keeps the newer sample.
            pub fn delta_from(&self, earlier: &LocalityStats) -> LocalityStats {
                LocalityStats {
                    $($name: self.$name - earlier.$name,)*
                    $($gauge: self.$gauge,)*
                }
            }

            /// Element-wise sum into `self` (behind [`StatsSnapshot::total`]).
            fn add(&mut self, other: &LocalityStats) {
                $(self.$name += other.$name;)*
                $(self.$gauge += other.$gauge;)*
            }

            /// Visit every counter, then every gauge, as `(name, value)`,
            /// in table order (the exposition page and anything else that
            /// lists them all).
            pub fn for_each(&self, mut f: impl FnMut(&'static str, u64)) {
                $(f(stringify!($name), self.$name);)*
                $(f(stringify!($gauge), self.$gauge);)*
            }
        }
    };
}

counters! {
    /// Parcels sent from this locality (including forwarded ones).
    parcels_sent,
    /// Parcels received and executed here.
    parcels_recv,
    /// Parcels that arrived here but had to be forwarded after migration.
    parcels_forwarded,
    /// Payload + header bytes sent. On the batched path this includes
    /// each record's length prefix (what the wire delay model charges);
    /// only the fixed per-frame header is unattributed.
    bytes_sent,
    /// PX-threads executed (fresh threads + parcel-spawned threads).
    threads_executed,
    /// Depleted threads resumed (suspensions that completed).
    resumes,
    /// Tasks stolen from a sibling worker within the locality.
    steals,
    /// Times a worker went to sleep with no work (starvation events).
    parks,
    /// Nanoseconds workers spent executing tasks, counted per busy
    /// stretch: from the clock read that ends a search (a task found) to
    /// the one at the first look that finds nothing. Back-to-back tasks
    /// read no clock, so the looks between them, and a loop pass run
    /// there, count as busy. A stretch still open is not yet counted.
    busy_ns,
    /// Nanoseconds workers spent idle: searching from a look that found
    /// nothing, or parked.
    idle_ns,
    /// LCO events processed (triggers, contributions, slot fills).
    lco_events,
    /// Percolated (prestaged) tasks executed.
    staged_executed,
    /// AGAS resolutions served from the local cache. Only data objects
    /// migrate, so only their resolutions are counted: every other name
    /// resolves to its birthplace without a lookup.
    agas_cache_hits,
    /// AGAS resolutions of data objects *not* served from the local cache
    /// (directory lookups plus birthplace fallbacks).
    agas_cache_misses,
    /// AGAS resolutions that consulted the directory.
    agas_directory_lookups,
    /// Parcel frames sent toward this locality — a port's flush, or a
    /// frame of one (sender side, aggregated over all senders).
    frames_sent,
    /// Parcel frames received and executed here.
    frames_recv,
    /// Parcels that shared a port frame with at least one earlier parcel
    /// (destination-attributed; the batching win in message counts).
    coalesced_parcels,
    /// Frames flushed because they hit `max_batch_parcels`/`max_batch_bytes`.
    batch_flush_full,
    /// Always 0: neither backend holds a port on a timer (both pull it
    /// at their next pass). A dead row, kept because pxmark's
    /// `net.flush_timer_share` reads it.
    batch_flush_timer,
    /// Frames a backend's pass pulled out of a port after a sender's kick
    /// — whatever gathered since the last pass, at the TCP event loop's
    /// or the in-process destination's — or that the shutdown drain took.
    batch_flush_pulled,
    /// Parcels that died, all causes (the sum of the five by-cause
    /// counters below). Every death also raises a fault delivered to the
    /// parcel's continuation — see the "Failure semantics" README section.
    dead_parcels,
    /// Deaths: forwarding hop budget exhausted (a migration storm).
    dead_hop_cap,
    /// Deaths: action absent from the registry.
    dead_unknown_action,
    /// Deaths: handler returned an error (including LCO protocol
    /// violations such as double-triggering).
    dead_handler_error,
    /// Deaths: action handler panicked.
    dead_panic,
    /// Deaths: undecodable parcel, frame record, or payload.
    dead_decode,
    /// Deaths: parcel belonged to a cancelled parallel process and was
    /// killed at dispatch.
    dead_cancelled,
    /// Deaths: the wire could not deliver (the destination rank was lost,
    /// or a closure task addressed across an OS-process boundary).
    dead_transport,
    /// Closure/resume PX-thread tasks dropped because their owning
    /// process was cancelled (not parcels, so not in `dead_parcels`;
    /// mirrors how thread panics live beside the parcel death counters).
    tasks_cancelled,
    /// PX-threads that panicked (isolated; the worker survives).
    panics,
    /// Balancer rounds in which this locality was sampled and gossiped.
    gossip_rounds,
    /// Gossip parcels received and merged here.
    gossip_parcels,
    /// Queued tasks shed from here to a less-loaded peer (work diffusion).
    tasks_shed,
    /// Balancer pull requests sent from here: `AGAS_MIGRATE` parcels
    /// asking an object's owner to move it here (heat-driven; a request
    /// the owner refuses or loses still counts).
    balance_pulls,
    /// Moves asked for by [`crate::runtime::Runtime::migrate_data`] that
    /// completed with this locality as their source (counted once per
    /// move, where it completes).
    migrations_manual,
    /// Moves asked for by the balancer's pulls that completed with this
    /// locality as their source.
    migrations_balancer,
    /// Hops accumulated by parcels that ultimately executed here: the
    /// forwards that followed stale resolutions (a hop is a routing cost
    /// paid to find the object; parking on a move's pin costs none).
    /// AGAS chase length numerator; divide by
    /// [`LocalityStats::chased_parcels`].
    chase_hops_total,
    /// Parcels executed here after at least one forward.
    chased_parcels,
    /// Parcels killed here by the forwarding hop cap (chase budget
    /// exhausted: a migration storm).
    chase_cap_violations,
    /// Causal-trace events recorded into this locality's ring (zero
    /// unless `Config::trace` is enabled).
    trace_events_recorded,
    /// Trace events lost to ring overwrite — a non-zero value means the
    /// ring is too small for the sampling rate and dump cadence.
    trace_events_dropped,
    /// Directory lookups answered by this rank's own home shards (the
    /// queried GID was born here, so no wire round-trip was needed).
    dir_lookups_local,
    /// Directory lookups sent to a remote home rank as `__sys/dir_lookup`
    /// parcels (request counted at the asking rank).
    dir_lookups_remote,
    /// Parcels forwarded because the local resolution named another
    /// locality (`parcels_forwarded` less the forwards to this locality
    /// itself, on a home's answer that raced the object's arrival).
    dir_forwards,
    /// Directory and cache repairs applied here: `__sys/dir_repair`
    /// hints, home-directory updates and the answers of remote lookups.
    dir_repairs,
    ; gauges:
    /// Objects resident in this locality's store — data, LCOs, echo
    /// nodes, process records — sampled at snapshot time. What is in
    /// flight, plus what lives on purpose: a one-shot future leaves when
    /// it is read, so a steady workload holds this flat.
    objects,
}

macro_rules! bump {
    ($field:expr) => {{
        let _ = $field.add(1);
    }};
    ($field:expr, $n:expr) => {{
        let _ = $field.add($n);
    }};
}
pub(crate) use bump;

impl LocalityStats {
    /// Fraction of worker time spent executing (1.0 = no starvation).
    pub fn busy_fraction(&self) -> f64 {
        let total = self.busy_ns + self.idle_ns;
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }

    /// Mean parcels per frame sent (1.0 = no coalescing benefit: every
    /// parcel a frame of one). Computed from the send-side counters, which
    /// a port's flush advances together under its lock, so the ratio is
    /// consistent even while frames are in flight.
    pub fn parcels_per_frame(&self) -> f64 {
        if self.frames_sent == 0 {
            0.0
        } else {
            // Frames carry coalesced parcels plus each frame's opener.
            (self.coalesced_parcels + self.frames_sent) as f64 / self.frames_sent as f64
        }
    }

    /// Mean forward hops per chased parcel (0.0 when nothing chased). A
    /// rising mean under a migration-heavy policy means senders' caches
    /// are staying stale longer than the repair hints can fix.
    pub fn mean_chase_len(&self) -> f64 {
        if self.chased_parcels == 0 {
            0.0
        } else {
            self.chase_hops_total as f64 / self.chased_parcels as f64
        }
    }

    /// Fraction of AGAS resolutions served from the local cache.
    pub fn agas_hit_rate(&self) -> f64 {
        let total = self.agas_cache_hits + self.agas_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.agas_cache_hits as f64 / total as f64
        }
    }
}

/// Send/receive accounting for one TCP peer (all zeros for the
/// in-process transport, which has no peers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PeerStats {
    /// The peer's locality id.
    pub peer: u16,
    /// Stream messages written toward the peer: one frame each (a port's
    /// or a frame of one, data or control).
    pub msgs_sent: u64,
    /// Bytes written toward the peer (bodies + stream headers).
    pub bytes_sent: u64,
    /// Stream messages received from the peer.
    pub msgs_recv: u64,
    /// Raw bytes read from the peer's connection.
    pub bytes_recv: u64,
    /// Always 0: a lost connection is a dead peer, never re-established
    /// (see [`crate::net::tcp`]). The field stays because pxmark reads it
    /// (`net.reconnects`) until a `benchmark` issue drops that row.
    pub reconnects: u64,
    /// Messages currently waiting in the peer's outbound send queue —
    /// a *gauge*, sampled at snapshot time (deltas keep the newer
    /// sample). A persistently high depth means the peer reads slower
    /// than this rank sends: backpressure is imminent.
    pub queue_depth: u64,
    /// High-watermark of bytes ever queued toward the peer at once — a
    /// *gauge* (deltas keep the newer sample). Compare against the
    /// transport's queue bound to see how close a slow peer has come to
    /// stalling this rank's senders.
    pub queue_bytes_hwm: u64,
}

/// Transport-level statistics: one entry per TCP peer; empty for the
/// in-process backend.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TransportStats {
    /// Per-peer counters, ascending by peer id (the own locality is
    /// absent — a process does not peer with itself).
    pub peers: Vec<PeerStats>,
}

/// Runtime-wide snapshot: one entry per locality plus totals.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct StatsSnapshot {
    /// Per-locality stats, indexed by locality id.
    pub localities: Vec<LocalityStats>,
    /// Completed moves asked for by
    /// [`crate::runtime::Runtime::migrate_data`]: the localities'
    /// `migrations_manual` rows, summed.
    pub migrations_manual: u64,
    /// Completed moves asked for by the balancer: the localities'
    /// `migrations_balancer` rows, summed.
    pub migrations_balancer: u64,
    /// Parallel processes created over the runtime's lifetime (roots and
    /// subprocesses).
    pub processes_created: u64,
    /// Parallel processes cancelled (each subtree member counts once).
    pub processes_cancelled: u64,
    /// Exited-and-unreferenced process records reaped from the process
    /// table (the process-table GC).
    pub processes_reaped: u64,
    /// Per-peer transport counters (TCP backend only).
    pub transport: TransportStats,
}

impl StatsSnapshot {
    /// Sum across localities.
    pub fn total(&self) -> LocalityStats {
        let mut t = LocalityStats::default();
        for l in &self.localities {
            t.add(l);
        }
        t
    }

    /// Mean busy fraction across localities (unweighted).
    pub fn mean_busy_fraction(&self) -> f64 {
        if self.localities.is_empty() {
            return 0.0;
        }
        self.localities
            .iter()
            .map(LocalityStats::busy_fraction)
            .sum::<f64>()
            / self.localities.len() as f64
    }

    /// Interval delta against an earlier snapshot.
    pub fn delta_from(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            localities: self
                .localities
                .iter()
                .zip(earlier.localities.iter())
                .map(|(now, then)| now.delta_from(then))
                .collect(),
            migrations_manual: self.migrations_manual - earlier.migrations_manual,
            migrations_balancer: self.migrations_balancer - earlier.migrations_balancer,
            processes_created: self.processes_created - earlier.processes_created,
            processes_cancelled: self.processes_cancelled - earlier.processes_cancelled,
            processes_reaped: self.processes_reaped - earlier.processes_reaped,
            transport: TransportStats {
                peers: self
                    .transport
                    .peers
                    .iter()
                    .zip(earlier.transport.peers.iter())
                    .map(|(now, then)| PeerStats {
                        peer: now.peer,
                        msgs_sent: now.msgs_sent - then.msgs_sent,
                        bytes_sent: now.bytes_sent - then.bytes_sent,
                        msgs_recv: now.msgs_recv - then.msgs_recv,
                        bytes_recv: now.bytes_recv - then.bytes_recv,
                        reconnects: now.reconnects - then.reconnects,
                        // Gauges, not counters: keep the newer sample.
                        queue_depth: now.queue_depth,
                        queue_bytes_hwm: now.queue_bytes_hwm,
                    })
                    .collect(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters() {
        let c = LocalityCounters::default();
        bump!(c.parcels_sent);
        bump!(c.parcels_sent);
        bump!(c.bytes_sent, 100);
        let s = c.snapshot();
        assert_eq!(s.parcels_sent, 2);
        assert_eq!(s.bytes_sent, 100);
    }

    #[test]
    fn every_table_row_reaches_every_generated_path() {
        // Give each counter a distinct value; a row the macro dropped from
        // any expansion shows up as a missing or wrong value below. The
        // row count is cross-checked against the struct's size, which no
        // repetition in the macro can get wrong the same way.
        let rows = std::mem::size_of::<LocalityStats>() / std::mem::size_of::<u64>();
        let c = LocalityCounters::default();
        // One gauge row, last: `objects`.
        assert_eq!(c.cells().len() + 1, rows);
        for (i, cell) in c.cells().into_iter().enumerate() {
            cell.add(i as u64 + 1);
        }
        let listed = |s: &LocalityStats| {
            let (mut names, mut values) = (Vec::new(), Vec::new());
            s.for_each(|name, value| {
                names.push(name);
                values.push(value);
            });
            (names, values)
        };
        let mut snap = c.snapshot();
        assert_eq!(snap.objects, 0, "a gauge is sampled, not counted");
        snap.objects = rows as u64;
        let (names, values) = listed(&snap);
        assert_eq!(values, (1..=rows as u64).collect::<Vec<_>>());
        assert_eq!(names[0], "parcels_sent");
        assert_eq!(names[rows - 1], "objects");
        let distinct: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(distinct.len(), rows);

        let twice = StatsSnapshot {
            localities: vec![snap, snap],
            ..Default::default()
        }
        .total();
        assert_eq!(
            listed(&twice).1,
            values.iter().map(|v| 2 * v).collect::<Vec<_>>()
        );
        // Counters subtract; the gauge keeps the newer sample.
        let mut delta = twice.delta_from(&snap);
        assert_eq!(delta.objects, twice.objects);
        delta.objects = snap.objects;
        assert_eq!(delta, snap);
    }

    #[test]
    fn death_counting_by_cause() {
        use crate::error::FaultCause;
        let c = LocalityCounters::default();
        c.count_death(FaultCause::HopCap, 1);
        c.count_death(FaultCause::Panic, 1);
        c.count_death(FaultCause::Decode, 3);
        let s = c.snapshot();
        assert_eq!(s.dead_parcels, 5);
        assert_eq!(s.dead_hop_cap, 1);
        assert_eq!(s.dead_panic, 1);
        assert_eq!(s.dead_decode, 3);
        assert_eq!(s.dead_unknown_action, 0);
        assert_eq!(s.dead_handler_error, 0);
        assert_eq!(s.deaths_by_cause_total(), s.dead_parcels);
    }

    #[test]
    fn busy_fraction_bounds() {
        let mut s = LocalityStats::default();
        assert_eq!(s.busy_fraction(), 0.0);
        s.busy_ns = 75;
        s.idle_ns = 25;
        assert!((s.busy_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn batch_counter_ratios() {
        let s = LocalityStats {
            frames_sent: 4,
            coalesced_parcels: 12,
            agas_cache_hits: 3,
            agas_cache_misses: 1,
            ..Default::default()
        };
        assert!((s.parcels_per_frame() - 4.0).abs() < 1e-12);
        assert!((s.agas_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(LocalityStats::default().parcels_per_frame(), 0.0);
        assert_eq!(LocalityStats::default().agas_hit_rate(), 0.0);
    }

    #[test]
    fn totals_and_deltas() {
        let a = LocalityStats {
            parcels_sent: 5,
            busy_ns: 10,
            ..Default::default()
        };
        let b = LocalityStats {
            parcels_sent: 8,
            busy_ns: 30,
            ..Default::default()
        };
        let snap = StatsSnapshot {
            localities: vec![a, b],
            ..Default::default()
        };
        assert_eq!(snap.total().parcels_sent, 13);
        let later = StatsSnapshot {
            localities: vec![b, b],
            migrations_manual: 2,
            migrations_balancer: 5,
            processes_created: 3,
            processes_cancelled: 1,
            processes_reaped: 4,
            ..Default::default()
        };
        let d = later.delta_from(&snap);
        assert_eq!(d.localities[0].parcels_sent, 3);
        assert_eq!(d.localities[1].parcels_sent, 0);
        assert_eq!(d.migrations_manual, 2);
        assert_eq!(d.migrations_balancer, 5);
        assert_eq!(d.processes_created, 3);
        assert_eq!(d.processes_cancelled, 1);
        assert_eq!(d.processes_reaped, 4);
    }

    #[test]
    fn transport_stats_delta() {
        let then = StatsSnapshot {
            transport: TransportStats {
                peers: vec![PeerStats {
                    peer: 1,
                    msgs_sent: 10,
                    bytes_sent: 100,
                    queue_depth: 9,
                    queue_bytes_hwm: 512,
                    ..Default::default()
                }],
            },
            ..Default::default()
        };
        let now = StatsSnapshot {
            transport: TransportStats {
                peers: vec![PeerStats {
                    peer: 1,
                    msgs_sent: 25,
                    bytes_sent: 400,
                    reconnects: 1,
                    queue_depth: 2,
                    queue_bytes_hwm: 4096,
                    ..Default::default()
                }],
            },
            ..Default::default()
        };
        let d = now.delta_from(&then);
        assert_eq!(d.transport.peers[0].msgs_sent, 15);
        assert_eq!(d.transport.peers[0].bytes_sent, 300);
        assert_eq!(d.transport.peers[0].reconnects, 1);
        // Gauges carry the newer sample, not a difference.
        assert_eq!(d.transport.peers[0].queue_depth, 2);
        assert_eq!(d.transport.peers[0].queue_bytes_hwm, 4096);
    }

    #[test]
    fn empty_delta_ratios_are_zero_not_nan() {
        // A zero-length interval (or a freshly booted runtime) must
        // yield 0.0 ratios, never NaN: the metrics text page prints
        // these gauges verbatim and Prometheus-style parsers choke on
        // NaN. Pinned here so a future rewrite of the helpers cannot
        // quietly reintroduce 0/0.
        let snap = StatsSnapshot {
            localities: vec![LocalityStats::default(); 3],
            ..Default::default()
        };
        let d = snap.delta_from(&snap);
        assert_eq!(d.mean_busy_fraction(), 0.0);
        let t = d.total();
        for ratio in [
            t.busy_fraction(),
            t.parcels_per_frame(),
            t.mean_chase_len(),
            t.agas_hit_rate(),
        ] {
            assert_eq!(ratio, 0.0);
            assert!(ratio.is_finite());
        }
        for l in &d.localities {
            assert!(l.busy_fraction().is_finite());
            assert!(l.parcels_per_frame().is_finite());
            assert!(l.mean_chase_len().is_finite());
            assert!(l.agas_hit_rate().is_finite());
        }
        // An empty snapshot (no localities at all) is also NaN-free.
        assert_eq!(StatsSnapshot::default().mean_busy_fraction(), 0.0);
    }

    #[test]
    fn chase_len_mean() {
        let mut s = LocalityStats::default();
        assert_eq!(s.mean_chase_len(), 0.0);
        s.chase_hops_total = 9;
        s.chased_parcels = 4;
        assert!((s.mean_chase_len() - 2.25).abs() < 1e-12);
    }
}
