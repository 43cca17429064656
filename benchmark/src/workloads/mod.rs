//! The five workloads and what they share: the seeded generator, the
//! per-run raw result, and the table `main` dispatches on.

pub mod agas_mix;
pub mod bh_force;
pub mod hop_chain;
pub mod tcp_open;
pub mod tree_finegrain;

use crate::ledger::TracedRequest;
use crate::spans::SpanLog;
use px_core::prelude::*;
use std::time::{Duration, Instant};

/// A request that has not completed after this long is a failure.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// The benchmark traces 1 request in this many explicitly, for the ledger.
pub const EXPLICIT_TRACE_EVERY: u64 = 256;

/// SplitMix64: every generated input comes from one of these, seeded from
/// `--seed` and the workload's name.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Rng {
        let salt = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        Rng(seed ^ salt)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The `i`-th draw from here (the generator itself does not move).
    pub fn nth(&self, i: u64) -> u64 {
        let mut r = self.clone();
        (0..i).for_each(|_| {
            r.next();
        });
        r.next()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Requests that did not complete correctly, by kind. They stay in the
/// denominators: a failed request is an attempted one.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Failures {
    pub fault: u64,
    pub timeout: u64,
    pub wrong_value: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.fault + self.timeout + self.wrong_value
    }

    /// Classify one awaited reply against the value it should carry. The
    /// reply stands for `requests` requests (a chain of hops is awaited
    /// once), which all fail with it.
    pub fn check<T: PartialEq>(
        &mut self,
        reply: PxResult<Option<T>>,
        expected: &T,
        requests: u64,
    ) -> bool {
        match reply {
            Ok(Some(v)) if v == *expected => return true,
            Ok(Some(_)) => self.wrong_value += requests,
            Ok(None) => self.timeout += requests,
            Err(_) => self.fault += requests,
        }
        false
    }
}

/// What one timed section produced.
#[derive(Debug, Default)]
pub struct Raw {
    /// Operations completed correctly.
    pub ops: u64,
    pub requests: u64,
    pub failures: Failures,
    /// One latency per completed request, microseconds.
    pub lat_us: Vec<f64>,
    /// Throughput (ops/s) of each short stretch of the section — a tree,
    /// a phase, a thousand hops: tens of milliseconds. Their median is the
    /// rate the system sustains; a stall of the host lands in a few
    /// stretches and leaves it alone, where ops ÷ wall would absorb it.
    pub unit_rates: Vec<f64>,
    /// Explicitly traced requests (traced run only).
    pub traced: Vec<TracedRequest>,
    /// Open loop only: how late the generator ran at worst, and the rate
    /// it achieved.
    pub max_late_us: f64,
    pub achieved_rate: f64,
}

/// One built, warmed-up instance of a workload.
pub trait Workload {
    fn rt(&self) -> &Runtime;

    /// Pid of the second rank, when the workload has one.
    fn peer_pid(&self) -> Option<u32> {
        None
    }

    /// The timed section: `ops` operations, abandoned at `hard_stop`.
    fn run(&mut self, ops: u64, hard_stop: Instant, spans: &mut SpanLog) -> Raw;

    /// Checks on the final state, after the timed section.
    fn verify(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Per-layer metrics only this workload can measure, given the timed
    /// section's median request latency (traced run only).
    fn extras(&mut self, _lat_p50_us: f64) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// The second rank's trace events (its clock, its domain).
    fn peer_trace(&self) -> Vec<TraceEvent> {
        Vec::new()
    }

    /// Stop the runtime and every process the workload started.
    fn shutdown(self: Box<Self>) {
        self.rt().shutdown();
    }
}

pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// What one operation is, for the README and the report.
    pub op: &'static str,
    /// Operations per second at the parent commit on the reference box
    /// (2 cores). A run's timed sections add up to `seconds × nominal_rate`
    /// operations — fixed work, so memory and CPU per run compare across
    /// commits — and take about `--seconds` there.
    pub nominal_rate: u64,
    /// Whether a request is one chain of parcels the stage ledger can
    /// follow (`stage.*` reads 0 elsewhere).
    pub ledger: bool,
    /// Build the runtime (inside a `build` span), create the objects and
    /// run one warm-up batch.
    pub setup: fn(seed: u64, traced: bool, spans: &mut SpanLog) -> Box<dyn Workload>,
}

pub const ALL: [Spec; 5] = [
    hop_chain::SPEC,
    tree_finegrain::SPEC,
    tcp_open::SPEC,
    bh_force::SPEC,
    agas_mix::SPEC,
];

pub fn find(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

/// The runtime configuration of a traced run.
pub fn traced_config(cfg: Config, traced: bool) -> Config {
    if traced {
        cfg.with_metrics(true).with_trace_sampling(64)
    } else {
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_per_seed_and_differs_per_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, "a"), draw(1, "a"));
        assert_ne!(draw(1, "a"), draw(2, "a"));
        assert_ne!(draw(1, "a"), draw(1, "b"));
        let mut r = Rng::new(9, "x");
        assert!((0..1000).all(|_| r.below(10) < 10));
    }

    #[test]
    fn failures_classify_every_reply_kind() {
        let mut f = Failures::default();
        assert!(f.check(Ok(Some(4u64)), &4, 1));
        assert!(!f.check(Ok(Some(5u64)), &4, 1));
        assert!(!f.check(Ok(None), &4u64, 20));
        assert!(!f.check(Err(PxError::BadConfig("x".into())), &4u64, 1));
        assert_eq!(
            f,
            Failures {
                fault: 1,
                timeout: 20,
                wrong_value: 1
            }
        );
        assert_eq!(f.total(), 22);
    }

    #[test]
    fn workload_names_are_unique() {
        for (i, a) in ALL.iter().enumerate() {
            assert!(ALL[i + 1..].iter().all(|b| b.name != a.name));
            assert!(a.why.len() <= 200 && !a.why.contains('\n'));
        }
    }
}
