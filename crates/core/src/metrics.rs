//! The metrics plane: lock-free latency histograms and the fixed
//! instrument registry.
//!
//! Every number in [`crate::stats::StatsSnapshot`] is a counter; counters
//! answer "how many" but not "how slow is the tail". The AMT comparative
//! studies in PAPERS.md attribute runtime overhead to individual phases
//! via latency *distributions*, so the runtime keeps log-bucketed
//! histograms for a small fixed set of phase latencies (see
//! [`Instrument`]) and can merge them cluster-wide (each rank records
//! against its own monotonic clock; only bucket **counts** cross ranks —
//! clocks are never compared).
//!
//! Like tracing and balancing, metrics are **off by default** and cost
//! one `Option` pointer check per hook when off
//! ([`crate::runtime::Config::with_metrics`] turns them on). When on, a
//! sample is two `fetch_add`s on cache-local atomic cells — no locks, no
//! allocation.
//!
//! ## Bucket scheme
//!
//! Log-linear, in nanoseconds: values below 16 get exact unit buckets;
//! above, each power-of-two octave is split into 16 linear sub-buckets
//! (relative error ≤ 1/16 ≈ 6.25%). All 64 value octaves are covered in
//! [`CELLS`] = 976 cells, so `u64::MAX` is representable and a merge
//! never clips.

use crate::stats::Counter;
use px_wire::{WireHistogram, WireReader, WireWriter};

/// Linear sub-buckets per power-of-two octave (as a shift: 2^4 = 16).
const LINEAR_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUBS: usize = 1 << LINEAR_BITS;
/// Total histogram cells: one unit bucket per value below `SUBS` (16),
/// then `SUBS` sub-buckets for each of the 60 octaves from 2^4 through
/// 2^63.
pub const CELLS: usize = SUBS + (64 - LINEAR_BITS as usize) * SUBS;

/// Map a value (nanoseconds) to its histogram cell.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= LINEAR_BITS
    let sub = ((v - (1u64 << exp)) >> (exp - LINEAR_BITS)) as usize;
    SUBS + (exp - LINEAR_BITS) as usize * SUBS + sub
}

/// Inclusive upper bound of a cell (the value reported for percentiles
/// that land in it). Saturates at `u64::MAX` for the last cell.
pub fn bucket_bound(idx: usize) -> u64 {
    if idx < SUBS {
        return idx as u64;
    }
    let exp = (idx - SUBS) as u32 / SUBS as u32 + LINEAR_BITS;
    let sub = ((idx - SUBS) % SUBS) as u64;
    let width = 1u64 << (exp - LINEAR_BITS);
    let lower = (1u64 << exp) + sub * width;
    lower.saturating_add(width - 1)
}

/// The one definition of the instrument registry. Each row — variant,
/// exposition name, help line — expands to the [`Instrument`] enum,
/// `ALL`, `name` and `help`; the exposition page, the cluster merge and
/// the bench rows all loop over `ALL`, so adding an instrument is adding
/// a row here and a `record` where the phase ends.
macro_rules! instruments {
    ($($(#[$doc:meta])* $variant:ident = $name:literal, $help:literal;)*) => {
        /// One runtime phase whose latency distribution is recorded. The
        /// registry is fixed at compile time.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Instrument {
            $($(#[$doc])* $variant,)*
        }

        impl Instrument {
            /// Every instrument, in registry order.
            pub const ALL: [Instrument; [$($name),*].len()] = [$(Instrument::$variant),*];

            /// Registry slot of this instrument.
            #[inline]
            pub fn index(self) -> usize {
                self as usize
            }

            /// Exposition metric name (nanosecond-valued histogram).
            pub fn name(self) -> &'static str {
                match self {
                    $(Instrument::$variant => $name,)*
                }
            }

            /// One-line help text for the exposition page.
            pub fn help(self) -> &'static str {
                match self {
                    $(Instrument::$variant => $help,)*
                }
            }
        }
    };
}

instruments! {
    /// Parcel/task wait in a run queue: enqueue → dequeue by a worker.
    QueueWait = "px_queue_wait_ns", "parcel/task wait in a run queue, enqueue to dequeue";
    /// Registered (user) action handler execution time.
    ExecuteUser = "px_execute_user_ns", "registered action handler execution time";
    /// System action (`__sys/*`) execution time.
    ExecuteSys = "px_execute_sys_ns", "system action execution time";
    /// LCO lifetime to resolution: creation → fire (the
    /// spawn→continuation-resolution latency of a split-phase request).
    SpawnResolve = "px_spawn_resolve_ns", "LCO creation to resolution (spawn to continuation)";
    /// Hold plus drain, not a round trip: a message sent whole, from
    /// transport submit to its drain onto the wire; a coalesced frame,
    /// from when its port opened (its oldest record landed) to the drain
    /// (TCP send-queue residence; timer-heap residence in-process). Local
    /// clock only.
    NetRtt = "px_net_rtt_ns", "port hold plus transport submit to wire drain";
    /// Control-lane delivery: control-queue push → priority drain.
    ControlLane = "px_control_lane_ns", "control-lane delivery, push to priority drain";
    /// Remote directory lookup: `__sys/dir_lookup` request sent → owner
    /// resolved at the asking rank. Local clock only.
    DirLookup = "px_dir_lookup_ns", "remote directory lookup, request to owner resolution";
}

/// One lock-free histogram: dense atomic cells plus count/sum totals,
/// each a [`Counter`] — read only by snapshots, which tolerate bounded
/// skew between cells.
pub struct Histogram {
    cells: Vec<Counter>,
    count: Counter,
    sum: Counter,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            cells: (0..CELLS).map(|_| Counter::default()).collect(),
            count: Counter::default(),
            sum: Counter::default(),
        }
    }
}

impl Histogram {
    /// Record one sample (nanoseconds). Wait-free: three `fetch_add`s.
    #[inline]
    pub fn record(&self, value_ns: u64) {
        self.cells[bucket_index(value_ns)].add(1);
        self.count.add(1);
        self.sum.add(value_ns);
    }

    /// Copy current cell values into a plain snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.get(),
            sum: self.sum.get(),
            cells: self.cells.iter().map(Counter::get).collect(),
        }
    }
}

/// Plain-data copy of a [`Histogram`]: mergeable, queryable,
/// wire-encodable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (nanoseconds).
    pub sum: u64,
    /// Dense bucket counts ([`CELLS`] entries).
    pub cells: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            cells: vec![0; CELLS],
        }
    }
}

impl HistogramSnapshot {
    /// Add another snapshot's buckets into this one. Saturating, not
    /// wrapping: unsigned saturating addition is still commutative *and*
    /// associative (every grouping yields `min(total, u64::MAX)`), so
    /// cluster merges stay order-invariant even if a peer ships a
    /// pathological `sum`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            *a = a.saturating_add(*b);
        }
    }

    /// Upper bound (ns) of the bucket holding quantile `q` in `0.0..=1.0`
    /// — p50 is `quantile(0.50)`, p999 is `quantile(0.999)`. Returns 0 on
    /// an empty histogram (never NaN). Monotone in `q` by construction:
    /// a cumulative walk over the same cells.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Rank of the target sample, 1-based, clamped into the recorded
        // range so q=1.0 lands on the last sample.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.cells.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(idx);
            }
        }
        bucket_bound(CELLS - 1)
    }

    /// Mean sample value in nanoseconds (0.0 when empty — never NaN).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Sparse wire form (non-empty cells only, canonical order).
    pub fn to_wire(&self) -> WireHistogram {
        WireHistogram {
            count: self.count,
            sum: self.sum,
            cells: self
                .cells
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(i, &c)| (i as u32, c))
                .collect(),
        }
    }

    /// Rebuild the dense form from the wire encoding. Cells beyond
    /// [`CELLS`] (a newer peer with a finer scheme) error rather than
    /// silently drop counts.
    pub fn from_wire(w: &WireHistogram) -> Result<HistogramSnapshot, px_wire::WireError> {
        let mut s = HistogramSnapshot {
            count: w.count,
            sum: w.sum,
            ..HistogramSnapshot::default()
        };
        for &(idx, c) in &w.cells {
            let cell = s
                .cells
                .get_mut(idx as usize)
                .ok_or_else(|| px_wire::WireError::Message("histogram cell out of range".into()))?;
            *cell = c;
        }
        Ok(s)
    }
}

/// The per-locality instrument registry: one atomic histogram per
/// [`Instrument`]. Attached to a [`crate::locality::Locality`] as an
/// `Option<Arc<MetricsRegistry>>`, so disabled runs pay one pointer check
/// per hook.
#[derive(Default)]
pub struct MetricsRegistry {
    hists: [Histogram; Instrument::ALL.len()],
}

impl MetricsRegistry {
    /// Record one sample (nanoseconds) against `inst`.
    #[inline]
    pub fn record(&self, inst: Instrument, value_ns: u64) {
        self.hists[inst.index()].record(value_ns);
    }

    /// Record an elapsed [`std::time::Duration`] against `inst`.
    #[inline]
    pub fn record_elapsed(&self, inst: Instrument, d: std::time::Duration) {
        self.record(inst, d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Snapshot every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            hists: self.hists.iter().map(Histogram::snapshot).collect(),
        }
    }
}

/// Plain-data snapshot of a whole registry (one histogram per
/// [`Instrument`], in [`Instrument::ALL`] order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    hists: Vec<HistogramSnapshot>,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            hists: Instrument::ALL
                .iter()
                .map(|_| HistogramSnapshot::default())
                .collect(),
        }
    }
}

impl MetricsSnapshot {
    /// The histogram for one instrument.
    pub fn get(&self, inst: Instrument) -> &HistogramSnapshot {
        &self.hists[inst.index()]
    }

    /// Merge another snapshot instrument-by-instrument (order-invariant).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    /// Total samples across all instruments.
    pub fn total_count(&self) -> u64 {
        self.hists.iter().map(|h| h.count).sum()
    }

    /// Encode every instrument's histogram for a `__sys/metrics_pull`
    /// reply payload (sparse [`WireHistogram`]s, registry order).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_varint(self.hists.len() as u64);
        for h in &self.hists {
            h.to_wire().encode_into(&mut w);
        }
        w.into_bytes()
    }

    /// Decode a pull-reply payload. A peer with *more* instruments is
    /// truncated to ours (forward compatibility); fewer instruments
    /// decode as empty histograms.
    pub fn decode(bytes: &[u8]) -> Result<MetricsSnapshot, px_wire::WireError> {
        let mut r = WireReader::new(bytes);
        let n = r.get_varint()? as usize;
        let mut s = MetricsSnapshot::default();
        for i in 0..n {
            let w = WireHistogram::decode_from(&mut r)?;
            if i < s.hists.len() {
                s.hists[i] = HistogramSnapshot::from_wire(&w)?;
            }
        }
        Ok(s)
    }
}

/// Cluster-wide merged metrics: what [`crate::runtime::Runtime::cluster_metrics`]
/// returns. Per-rank snapshots are kept alongside the merged totals so
/// callers can attribute tails to a rank; every histogram was recorded
/// against its own rank's clock and only bucket counts were merged.
#[derive(Debug, Clone, Default)]
pub struct ClusterMetrics {
    /// One `(locality id, snapshot)` entry per reporting locality.
    pub per_rank: Vec<(u16, MetricsSnapshot)>,
    /// All per-rank snapshots merged.
    pub merged: MetricsSnapshot,
}

/// Render one instrument's histogram as Prometheus-style text lines.
/// Every line is `name{labels} value`; buckets carry cumulative counts
/// under `le` labels like native Prometheus histograms.
fn render_histogram(name: &str, help: &str, h: &HistogramSnapshot, out: &mut String) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cum = 0u64;
    for (idx, &c) in h.cells.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cum += c;
        let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", bucket_bound(idx));
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{name}_sum{{}} {}", h.sum);
    let _ = writeln!(out, "{name}_count{{}} {}", h.count);
    for (label, q) in [
        ("0.5", 0.50),
        ("0.9", 0.90),
        ("0.99", 0.99),
        ("0.999", 0.999),
    ] {
        let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", h.quantile(q));
    }
}

/// Render every instrument into `out`, in registry order.
pub fn render_instruments(snap: &MetricsSnapshot, out: &mut String) {
    for inst in Instrument::ALL {
        render_histogram(inst.name(), inst.help(), snap.get(inst), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_monotone_and_in_range() {
        // Sorted sweep across every octave: index must never decrease.
        let mut probes: Vec<u64> = Vec::new();
        for exp in 0..64u32 {
            let v = 1u64 << exp;
            probes.extend([v, v + 1, v + (v >> 1), v.saturating_add(v - 1)]);
        }
        probes.sort_unstable();
        let mut prev = 0usize;
        for probe in probes {
            let idx = bucket_index(probe);
            assert!(idx < CELLS, "index {idx} out of range for {probe}");
            assert!(idx >= prev, "not monotone at {probe}: {idx} < {prev}");
            prev = idx;
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(u64::MAX), CELLS - 1);
    }

    #[test]
    fn bucket_bound_contains_value() {
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            100,
            1_000,
            123_456,
            u32::MAX as u64,
            u64::MAX / 3,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            let bound = bucket_bound(idx);
            assert!(bound >= v, "bound {bound} below value {v}");
            // Relative error of the reported bound is at most one
            // sub-bucket width (~6.25%).
            if v >= 16 {
                assert!(bound - v <= v / 8, "bound {bound} too far above {v}");
            }
        }
    }

    #[test]
    fn record_and_quantiles() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        let p50 = s.quantile(0.50);
        let p99 = s.quantile(0.99);
        let p999 = s.quantile(0.999);
        assert!((450..=600).contains(&p50), "p50 {p50}");
        assert!(p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
        assert!(p999 <= bucket_bound(bucket_index(1000)));
    }

    #[test]
    fn empty_histogram_is_zero_not_nan() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.quantile(0.999), 0);
        assert_eq!(s.mean_ns(), 0.0);
    }

    #[test]
    fn merge_is_lossless() {
        let a = Histogram::default();
        let b = Histogram::default();
        for v in 0..100u64 {
            a.record(v * 17);
            b.record(v * 1009);
        }
        let mut ab = a.snapshot();
        ab.merge(&b.snapshot());
        let mut ba = b.snapshot();
        ba.merge(&a.snapshot());
        assert_eq!(ab, ba, "merge must be order-invariant");
        assert_eq!(ab.count, 200);
        assert_eq!(
            ab.cells.iter().sum::<u64>(),
            200,
            "bucket counts must be preserved"
        );
    }

    #[test]
    fn wire_roundtrip_dense_sparse() {
        let h = Histogram::default();
        for v in [0u64, 3, 17, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        let w = s.to_wire();
        assert_eq!(HistogramSnapshot::from_wire(&w).unwrap(), s);
        // Canonical: strictly increasing, nonzero.
        assert!(w.cells.windows(2).all(|p| p[0].0 < p[1].0));
        assert!(w.cells.iter().all(|&(_, c)| c != 0));
    }

    #[test]
    fn registry_snapshot_encode_decode() {
        let reg = MetricsRegistry::default();
        reg.record(Instrument::QueueWait, 100);
        reg.record(Instrument::NetRtt, 5_000);
        reg.record(Instrument::NetRtt, 6_000);
        let s = reg.snapshot();
        assert_eq!(s.get(Instrument::QueueWait).count, 1);
        assert_eq!(s.get(Instrument::NetRtt).count, 2);
        assert_eq!(s.total_count(), 3);
        let back = MetricsSnapshot::decode(&s.encode()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn out_of_range_wire_cell_rejected() {
        let w = WireHistogram {
            count: 1,
            sum: 1,
            cells: vec![(CELLS as u32, 1)],
        };
        assert!(HistogramSnapshot::from_wire(&w).is_err());
    }

    #[test]
    fn rendered_text_lists_every_instrument() {
        let reg = MetricsRegistry::default();
        for inst in Instrument::ALL {
            reg.record(inst, 42);
        }
        let mut out = String::new();
        render_instruments(&reg.snapshot(), &mut out);
        for inst in Instrument::ALL {
            assert!(
                out.contains(&format!("{}_bucket{{le=", inst.name())),
                "missing bucket line for {}",
                inst.name()
            );
            assert!(out.contains(&format!("{}_count{{}} 1", inst.name())));
        }
        assert!(!out.contains("NaN"), "exposition must never print NaN");
    }
}
