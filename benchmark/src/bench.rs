//! One run of one workload: set up, measure the timed section from the
//! outside, check the outputs, and turn the result into metrics.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::ledger;
use crate::procstat;
use crate::spans::SpanLog;
use crate::summary::{self, Summary};
use crate::workloads::{Raw, Spec, Workload};
use px_core::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A run is this many segments, each a fresh instance of the workload (new
/// runtime, new threads, new rank 1) doing its share of the operations. A
/// runtime instance settles into a mode for its lifetime — where its
/// threads landed decides whether a hop costs 20 or 30 microseconds — and the
/// host stalls now and then, so a metric is the *median over segments*.
const SEGMENTS: u64 = 9;
/// `--smoke` runs every workload at this fraction of its size.
const SMOKE_DIVISOR: u64 = 50;
/// A traced run alternates this many untraced and traced segments (for
/// `trace.overhead_pct`) in this share of the time; the probes get the rest.
const TRACED_PAIRS: u64 = 3;
const TRACED_SHARE: f64 = 0.8;
/// A timed section is abandoned at this multiple of its nominal length.
const HARD_STOP_FACTOR: f64 = 2.5;

pub struct Request {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

/// What one run reports: the driver's result line and, for `pxmark run`,
/// the detail behind it.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    pub detail: Json,
}

impl Report {
    /// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, &(value, unit))| {
                            let m = Json::obj([("value", value.into()), ("unit", unit.into())]);
                            (name.to_string(), m)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// One timed section, measured from outside the workload.
struct Leg {
    raw: Raw,
    wall_s: f64,
    cpu_s: f64,
    /// Sum of `VmHWM` over ranks at the end of the section.
    peak_rss_mib: f64,
    /// Growth of the ranks' resident sets over the section.
    rss_growth_mib: f64,
    /// Counter deltas over the section (this rank's view).
    stats: StatsSnapshot,
    /// How long the host kept this guest's CPUs from it during the section.
    steal_s: f64,
}

impl Leg {
    /// The rate this section sustained: the median of its short
    /// stretches (ops ÷ wall when it was too short to have any).
    fn throughput(&self) -> f64 {
        match median_or_zero(&self.raw.unit_rates) {
            r if r > 0.0 => r,
            _ => self.raw.ops as f64 / self.wall_s,
        }
    }

    fn lat_p50_us(&self) -> f64 {
        median_or_zero(&self.raw.lat_us)
    }

    fn cpu_us_per_op(&self) -> f64 {
        self.cpu_s * 1e6 / self.raw.ops.max(1) as f64
    }
}

fn measure(w: &mut dyn Workload, ops: u64, nominal: Duration, spans: &mut SpanLog) -> Leg {
    let pids: Vec<u32> = std::iter::once(std::process::id())
        .chain(w.peer_pid())
        .collect();
    let cpu = |pids: &[u32]| {
        pids.iter()
            .map(|&p| procstat::cpu_time(p))
            .sum::<Duration>()
    };
    let rss_now = |pids: &[u32]| pids.iter().map(|&p| procstat::rss_mib(p).1).sum::<f64>();
    let (cpu0, rss0, stats0) = (cpu(&pids), rss_now(&pids), w.rt().stats());
    let steal0 = procstat::steal_time();
    let t0 = Instant::now();
    let mut raw = w.run(ops, t0 + nominal.mul_f64(HARD_STOP_FACTOR), spans);
    let wall_s = t0.elapsed().as_secs_f64();
    // Sorted once, here: every statistic below is an order statistic.
    summary::sort(&mut raw.lat_us);
    summary::sort(&mut raw.unit_rates);
    Leg {
        raw,
        wall_s,
        cpu_s: (cpu(&pids) - cpu0).as_secs_f64(),
        peak_rss_mib: pids.iter().map(|&p| procstat::rss_mib(p).0).sum(),
        rss_growth_mib: rss_now(&pids) - rss0,
        stats: w.rt().stats().delta_from(&stats0),
        steal_s: (procstat::steal_time() - steal0).as_secs_f64(),
    }
}

/// The checks every workload shares, after its own `verify`.
fn check(w: &mut dyn Workload, leg: &Leg) -> Result<(), String> {
    w.verify()?;
    let dead = w.rt().stats().total().dead_parcels;
    if dead != 0 {
        return Err(format!("{dead} dead parcels"));
    }
    if leg.raw.ops == 0 {
        return Err("no operation completed".into());
    }
    match leg.raw.failures.total() {
        0 => Ok(()),
        n => Err(format!("{n} requests failed: {:?}", leg.raw.failures)),
    }
}

/// Operations of `seconds` of the workload at its nominal rate.
pub fn ops_for(spec: &Spec, seconds: f64, smoke: bool) -> u64 {
    let ops = (seconds * spec.nominal_rate as f64) as u64;
    (ops / if smoke { SMOKE_DIVISOR } else { 1 }).max(1)
}

/// Segment `i`'s seed: every segment generates its own inputs.
fn segment_seed(seed: u64, i: u64) -> u64 {
    crate::workloads::Rng::new(seed, "segment").nth(i)
}

/// One segment: set up a fresh instance, measure its timed section, check
/// it, let `inspect` look at the live instance, shut it down.
struct Segment {
    leg: Leg,
    setup_s: f64,
    verdict: Result<(), String>,
}

fn segment<T>(
    req: &Request,
    i: u64,
    traced: bool,
    share: f64,
    spans: &mut SpanLog,
    inspect: impl FnOnce(&mut dyn Workload, &Leg) -> T,
) -> (Segment, T) {
    let t0 = Instant::now();
    let setup_span = spans.open("setup", None, None);
    let mut w = (req.spec.setup)(segment_seed(req.seed, i), traced, spans);
    spans.close(setup_span);
    let setup_s = t0.elapsed().as_secs_f64();
    let seconds = req.seconds * share;
    let section = spans.open("timed_section", None, None);
    let leg = measure(
        w.as_mut(),
        ops_for(req.spec, seconds, req.smoke),
        Duration::from_secs_f64(seconds),
        spans,
    );
    spans.close(section);
    let seen = inspect(w.as_mut(), &leg);
    let verdict = check(w.as_mut(), &leg);
    w.shutdown();
    (
        Segment {
            leg,
            setup_s,
            verdict,
        },
        seen,
    )
}

/// Median over segments of `f`, with its quartiles for the detail.
fn over_segments(segments: &[Segment], f: impl Fn(&Segment) -> f64) -> Summary {
    let mut values: Vec<f64> = segments.iter().map(f).collect();
    Summary::of(&mut values)
}

/// What every report says about its segments.
fn detail(req: &Request, segments: &[Segment]) -> Json {
    let sum = |f: fn(&Raw) -> u64| segments.iter().map(|s| f(&s.leg.raw)).sum::<u64>();
    let errors: Vec<Json> = segments
        .iter()
        .filter_map(|s| s.verdict.as_ref().err())
        .map(|e| e.as_str().into())
        .collect();
    Json::obj([
        ("workload", req.spec.name.into()),
        ("op", req.spec.op.into()),
        ("seed", req.seed.into()),
        ("seconds", req.seconds.into()),
        ("traced", Json::Bool(req.traced)),
        ("smoke", Json::Bool(req.smoke)),
        ("segments", (segments.len() as u64).into()),
        ("ops", sum(|r| r.ops).into()),
        ("requests", sum(|r| r.requests).into()),
        (
            "failed_by_kind",
            Json::obj([
                ("fault", sum(|r| r.failures.fault).into()),
                ("timeout", sum(|r| r.failures.timeout).into()),
                ("wrong_value", sum(|r| r.failures.wrong_value).into()),
            ]),
        ),
        ("latency_samples", sum(|r| r.lat_us.len() as u64).into()),
        (
            "wall_s",
            segments.iter().map(|s| s.leg.wall_s).sum::<f64>().into(),
        ),
        // Per-segment values behind each reported median.
        (
            "throughput_ops_s",
            over_segments(segments, |s| s.leg.throughput()).to_json(),
        ),
        (
            "lat_p50_us",
            over_segments(segments, |s| s.leg.lat_p50_us()).to_json(),
        ),
        (
            "cpu_us_per_op",
            over_segments(segments, |s| s.leg.cpu_us_per_op()).to_json(),
        ),
        ("setup_s", over_segments(segments, |s| s.setup_s).to_json()),
        (
            "steal_s",
            segments.iter().map(|s| s.leg.steal_s).sum::<f64>().into(),
        ),
        ("check_errors", Json::Arr(errors)),
    ])
}

pub fn run(req: &Request) -> Report {
    if req.traced {
        traced(req)
    } else {
        untraced(req)
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .expect("every reported metric is in the catalog")
}

fn report(
    req: &Request,
    segments: &[Segment],
    values: impl IntoIterator<Item = (&'static str, f64)>,
) -> Report {
    Report {
        correct: segments.iter().all(|s| s.verdict.is_ok()),
        attempted: segments
            .iter()
            .map(|s| s.leg.raw.requests)
            .sum::<u64>()
            .max(1),
        failed: segments.iter().map(|s| s.leg.raw.failures.total()).sum(),
        metrics: values
            .into_iter()
            .map(|(n, v)| (n, (v, unit_of(n))))
            .collect(),
        detail: detail(req, segments),
    }
}

fn untraced(req: &Request) -> Report {
    let mut off = SpanLog::new(Instant::now(), false);
    let n = if req.smoke { 1 } else { SEGMENTS };
    let segments: Vec<Segment> = (0..n)
        .map(|i| segment(req, i, false, 1.0 / n as f64, &mut off, |_, _| ()).0)
        .collect();
    let values = [
        (
            "throughput_ops_s",
            over_segments(&segments, |s| s.leg.throughput()).median,
        ),
        (
            "lat_p50_us",
            over_segments(&segments, |s| s.leg.lat_p50_us()).median,
        ),
        (
            "cpu_us_per_op",
            over_segments(&segments, |s| s.leg.cpu_us_per_op()).median,
        ),
        // The first segment's: a fresh process, so the high-water mark is
        // this much work's own and not the allocator's reuse of what
        // earlier instances freed.
        ("peak_rss_mb", segments[0].leg.peak_rss_mib),
        ("setup_s", over_segments(&segments, |s| s.setup_s).median),
    ];
    report(req, &segments, values)
}

/// Median of `sorted`, or 0 when the workload produced none.
fn median_or_zero(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        summary::median(sorted)
    }
}

/// [`median_or_zero`] of samples in any order.
fn median_of(mut samples: Vec<f64>) -> f64 {
    summary::sort(&mut samples);
    median_or_zero(&samples)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What the traced run reads off the last traced instance while it lives.
struct Inside {
    histograms: MetricsSnapshot,
    events: Vec<TraceEvent>,
    extras: Vec<(&'static str, f64)>,
}

fn traced(req: &Request) -> Report {
    // Untraced and traced segments alternate, so that the host's mood and
    // the instances' modes fall on both sides of `trace.overhead_pct`.
    let pairs = if req.smoke { 1 } else { TRACED_PAIRS };
    let share = TRACED_SHARE / (2 * pairs) as f64;
    let mut off = SpanLog::new(Instant::now(), false);
    let mut spans = SpanLog::new(Instant::now(), true);
    let mut reference = Vec::new();
    let mut segments = Vec::new();
    let mut inside = None;
    for i in 0..pairs {
        reference.push(segment(req, i, false, share, &mut off, |_, _| ()).0);
        // Spans, histograms and the ledger come from the last pair alone.
        let log = if i + 1 == pairs { &mut spans } else { &mut off };
        let (seg, seen) = segment(req, i, true, share, log, |w, leg| Inside {
            histograms: w
                .rt()
                .cluster_metrics_timeout(crate::workloads::REQUEST_TIMEOUT)
                .ok()
                .flatten()
                .map(|c| c.merged)
                .unwrap_or_default(),
            events: {
                let mut events = w.rt().trace_dump().events;
                events.extend(w.peer_trace());
                events
            },
            extras: w.extras(leg.lat_p50_us()),
        });
        segments.push(seg);
        inside = Some(seen);
    }
    let Inside {
        histograms,
        events,
        extras,
    } = inside.expect("at least one pair");
    let leg = &segments.last().expect("at least one pair").leg;
    let traced_ops_s = over_segments(&segments, |s| s.leg.throughput()).median;
    let reference_ops_s = over_segments(&reference, |s| s.leg.throughput()).median;

    let probe_budget = Duration::from_secs_f64(
        req.seconds * (1.0 - TRACED_SHARE)
            / PER_LAYER.iter().filter(|m| m.probe).count() as f64
            / if req.smoke { SMOKE_DIVISOR as f64 } else { 1.0 },
    );
    let probes = crate::probes::run_all(probe_budget, req.seed);

    // ---- per-layer metrics ------------------------------------------------
    let t = leg.stats.total();
    let ops = leg.raw.ops.max(1) as f64;
    let lat = &leg.raw.lat_us;
    let lat_p50_us = leg.lat_p50_us();
    let hist_ns = |inst: Instrument, q: f64| {
        let h = histograms.get(inst);
        if h.count == 0 {
            0.0
        } else {
            h.quantile(q) as f64
        }
    };
    let span_ns = |name: &str| median_of(spans.durations_ns(name));
    let peers = &leg.stats.transport.peers;

    let folded = if req.spec.ledger {
        ledger::fold(&events, 0, &leg.raw.traced)
    } else {
        ledger::Ledger::default()
    };
    let stage_median: BTreeMap<&str, f64> = folded
        .stages
        .iter()
        .map(|(&s, v)| (s, median_of(v.clone())))
        .collect();
    // A stage that most requests skip (the one LCO trigger that ends a
    // chain of 20 000 hops) adds to the sum by how often it occurs. A fold,
    // because `sum()` of nothing is -0.0.
    let most = folded.stages.values().map(Vec::len).max().unwrap_or(1);
    let stage_sum_ns = folded.stages.iter().fold(0.0, |sum, (s, v)| {
        sum + stage_median[s] * v.len() as f64 / most as f64
    });
    // What the stages should add up to: the request's round trip as the
    // caller saw it (stamped requests), else the traced leg's own p50.
    let rtt_ns = if leg.raw.traced.is_empty() {
        lat_p50_us * 1e3
    } else {
        median_of(
            leg.raw
                .traced
                .iter()
                .map(|r| (r.done_ns - r.send_ns) as f64)
                .collect(),
        )
    };

    let mut values: BTreeMap<&'static str, f64> = probes;
    values.extend(extras);
    values.extend([
        ("sched.steals", t.steals as f64),
        ("sched.parks", t.parks as f64),
        ("sched.parks_per_op", t.parks as f64 / ops),
        ("sched.busy_share", t.busy_fraction()),
        (
            "sched.queue_wait_p50_ns",
            hist_ns(Instrument::QueueWait, 0.5),
        ),
        (
            "sched.queue_wait_p99_ns",
            hist_ns(Instrument::QueueWait, 0.99),
        ),
        (
            "sched.exec_user_p50_ns",
            hist_ns(Instrument::ExecuteUser, 0.5),
        ),
        (
            "sched.exec_sys_p50_ns",
            hist_ns(Instrument::ExecuteSys, 0.5),
        ),
        ("lco.events", t.lco_events as f64),
        (
            "lco.spawn_resolve_p50_ns",
            hist_ns(Instrument::SpawnResolve, 0.5),
        ),
        ("agas.cache_hit_rate", t.agas_hit_rate()),
        (
            "agas.forwards_per_migration",
            ratio(
                t.parcels_forwarded as f64,
                leg.stats.migrations_manual as f64,
            ),
        ),
        ("agas.chase_len_mean", t.mean_chase_len()),
        ("agas.migrations", leg.stats.migrations_manual as f64),
        ("net.parcels_per_frame", t.parcels_per_frame()),
        (
            "net.bytes_per_parcel",
            ratio(t.bytes_sent as f64, t.parcels_sent as f64),
        ),
        (
            "net.flush_timer_share",
            ratio(t.batch_flush_timer as f64, t.frames_sent as f64),
        ),
        (
            "net.queue_bytes_hwm",
            peers.iter().map(|p| p.queue_bytes_hwm).max().unwrap_or(0) as f64,
        ),
        (
            "net.reconnects",
            peers.iter().map(|p| p.reconnects).sum::<u64>() as f64,
        ),
        ("net.submit_drain_p50_ns", hist_ns(Instrument::NetRtt, 0.5)),
        ("runtime.send_action_ns", span_ns("send_action")),
        ("runtime.new_future_ns", span_ns("new_future")),
        ("runtime.wait_ns", span_ns("wait")),
        ("runtime.migrate_ns", span_ns("migrate_data")),
        ("runtime.build_s", span_ns("build") / 1e9),
        (
            "runtime.bytes_per_request",
            (leg.rss_growth_mib * 1024.0 * 1024.0 / leg.raw.requests.max(1) as f64).max(0.0),
        ),
        (
            "trace.overhead_pct",
            100.0 * (1.0 - ratio(traced_ops_s, reference_ops_s)),
        ),
        ("trace.events_dropped", t.trace_events_dropped as f64),
        ("stage.sum_over_p50", ratio(stage_sum_ns, rtt_ns)),
        (
            "driver.lat_p90_us",
            summary::percentile(lat, 90.0).unwrap_or(0.0),
        ),
        (
            "driver.lat_p99_us",
            summary::percentile(lat, 99.0).unwrap_or(0.0),
        ),
        ("driver.lat_max_us", lat.last().copied().unwrap_or(0.0)),
        ("driver.max_late_us", leg.raw.max_late_us),
        (
            "driver.achieved_rate",
            if leg.raw.achieved_rate > 0.0 {
                leg.raw.achieved_rate
            } else {
                leg.throughput()
            },
        ),
        ("driver.samples", lat.len() as f64),
    ]);
    for m in PER_LAYER.iter() {
        let stage = m
            .name
            .strip_prefix("stage.")
            .and_then(|s| s.strip_suffix("_ns"));
        let v = stage.map_or(0.0, |s| stage_median.get(s).copied().unwrap_or(0.0));
        // Everything no source above filled in reads 0: the layer does
        // nothing on this workload.
        values.entry(m.name).or_insert(v);
    }
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "a metric is not in the catalog"
    );

    segments.extend(reference);
    let mut report = report(req, &segments, values);
    if let Json::Obj(m) = &mut report.detail {
        m.insert("reference_ops_s".into(), reference_ops_s.into());
        m.insert("traced_ops_s".into(), traced_ops_s.into());
    }
    write_trace_file(req, &spans, &histograms, &folded, &report);
    report
}

/// `benchmark/out/trace-<workload>.json`: the spans, histogram and ledger
/// rows of the traced run.
fn write_trace_file(
    req: &Request,
    spans: &SpanLog,
    histograms: &MetricsSnapshot,
    folded: &ledger::Ledger,
    report: &Report,
) {
    let histogram_rows = Instrument::ALL
        .iter()
        .map(|&inst| {
            let h = histograms.get(inst);
            let q = |q| if h.count == 0 { 0 } else { h.quantile(q) };
            let row = Json::obj([
                ("count", h.count.into()),
                ("p50_ns", q(0.5).into()),
                ("p90_ns", q(0.9).into()),
                ("p99_ns", q(0.99).into()),
            ]);
            (inst.name().to_string(), row)
        })
        .collect();
    let ledger_rows = folded
        .stages
        .iter()
        .map(|(&stage, samples)| {
            let mut samples = samples.clone();
            (stage.to_string(), Summary::of(&mut samples).to_json())
        })
        .collect();
    let doc = Json::obj([
        ("run", report.detail.clone()),
        ("spans", spans.to_json()),
        ("histograms", Json::Obj(histogram_rows)),
        ("ledger", Json::Obj(ledger_rows)),
        ("ledger_unmapped_pairs", folded.unmapped.into()),
        ("ledger_requests_missing", folded.requests_missing.into()),
        (
            "per_layer",
            Json::Obj(
                report
                    .metrics
                    .iter()
                    .map(|(n, &(v, _))| (n.to_string(), v.into()))
                    .collect(),
            ),
        ),
    ]);
    let dir = crate::out_dir();
    let path = dir.join(format!("trace-{}.json", req.spec.name));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.render()));
    match written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn ops_follow_the_nominal_rate_and_smoke_is_a_fiftieth() {
        let tree = workloads::find("tree_finegrain").unwrap();
        assert_eq!(ops_for(tree, 2.0, false), 2 * tree.nominal_rate);
        assert_eq!(ops_for(tree, 2.0, true), 2 * tree.nominal_rate / 50);
        // Never zero, however short the run.
        assert_eq!(ops_for(tree, 1e-9, true), 1);
    }

    #[test]
    fn segments_get_distinct_repeatable_seeds() {
        let seeds: Vec<u64> = (0..SEGMENTS).map(|i| segment_seed(7, i)).collect();
        assert_eq!(
            seeds,
            (0..SEGMENTS)
                .map(|i| segment_seed(7, i))
                .collect::<Vec<_>>()
        );
        assert!(seeds
            .iter()
            .all(|s| seeds.iter().filter(|t| *t == s).count() == 1));
        assert_ne!(segment_seed(7, 0), segment_seed(8, 0));
    }
}
