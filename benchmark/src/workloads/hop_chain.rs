//! `hop_chain`: chains of parcels bouncing between two localities, one in
//! flight at a time.

use super::{traced_config, Failures, Raw, Rng, Spec, Workload};
use crate::spans::SpanLog;
use px_core::prelude::*;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const SPEC: Spec = Spec {
    name: "hop_chain",
    why: "nothing overlaps: the serial path encode, in-proc submit, queue push, worker wake, dispatch, continuation; sleep protocol and queues own it, tcp/lco/agas idle",
    op: "one Hop parcel L0<->L1 (request = one hop, stamped in the action body)",
    nominal_rate: 36_000,
    ledger: true,
    setup,
};

const CHAIN_HOPS: u64 = 20_000;
const WARMUP_HOPS: u64 = 2_000;
/// Throughput is sampled over stretches of this many hops (≈ 30 ms).
const RATE_WINDOW_HOPS: usize = 1_000;
/// The driver waits once per chain, so one lost hop would hang it.
const CHAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// When the previous hop ran, and the gaps between hops so far (ns). Only
/// one hop of a chain runs at a time, so the lock is never contended.
static STAMPS: Mutex<(Option<Instant>, Vec<u32>)> = Mutex::new((None, Vec::new()));

fn step(acc: u64) -> u64 {
    acc.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

struct Hop;
impl Action for Hop {
    const NAME: &'static str = "pxmark/hop";
    /// Hops left after this one, the running value, the chain's future.
    type Args = (u64, u64, Gid);
    type Out = ();
    fn execute(ctx: &mut Ctx<'_>, _t: Gid, (left, acc, done): Self::Args) {
        {
            let now = Instant::now();
            let mut s = STAMPS.lock().expect("stamp lock: hop bodies do not panic");
            if let Some(prev) = s.0.replace(now) {
                s.1.push((now - prev).as_nanos() as u32);
            }
        }
        let acc = step(acc);
        let sent = if left == 0 {
            ctx.trigger(done, &acc)
        } else {
            let next = Gid::locality_root(LocalityId(1 - ctx.here().0));
            ctx.send::<Hop>(next, (left - 1, acc, done), Continuation::none())
        };
        sent.expect("plain integers always encode");
    }
}

struct HopChain {
    rt: Runtime,
    rng: Rng,
    traced: bool,
}

fn setup(seed: u64, traced: bool, spans: &mut SpanLog) -> Box<dyn Workload> {
    let rt = spans.time("build", None, None, || {
        RuntimeBuilder::new(traced_config(Config::small(2, 1), traced))
            .register::<Hop>()
            .build()
            .expect("in-process runtime builds")
    });
    let mut w = HopChain {
        rt,
        rng: Rng::new(seed, SPEC.name),
        traced,
    };
    let mut warm = Failures::default();
    w.chain(WARMUP_HOPS, None, &mut warm);
    assert_eq!(warm.total(), 0, "warm-up chain failed: {warm:?}");
    Box::new(w)
}

impl HopChain {
    /// Run one chain of `hops`; returns the gaps between hops (µs), or
    /// `None` when it failed.
    fn chain(
        &mut self,
        hops: u64,
        trace: Option<u64>,
        failures: &mut Failures,
    ) -> Option<Vec<f64>> {
        *STAMPS.lock().expect("stamp lock") = (None, Vec::with_capacity(hops as usize));
        let start = self.rng.next();
        let expected = (0..hops).fold(start, |acc, _| step(acc));
        let fut = self.rt.new_future::<u64>(LocalityId(0));
        let (target, args) = (
            Gid::locality_root(LocalityId(1)),
            (hops - 1, start, fut.gid()),
        );
        match trace {
            Some(id) => self
                .rt
                .send_action_traced::<Hop>(target, args, Continuation::none(), id),
            None => self
                .rt
                .send_action::<Hop>(target, args, Continuation::none()),
        }
        .expect("plain integers always encode");
        let ok = failures.check(fut.wait_timeout(&self.rt, CHAIN_TIMEOUT), &expected, hops);
        let gaps = std::mem::take(&mut STAMPS.lock().expect("stamp lock").1);
        ok.then(|| gaps.iter().map(|&ns| f64::from(ns) / 1e3).collect())
    }
}

impl Workload for HopChain {
    fn rt(&self) -> &Runtime {
        &self.rt
    }

    fn run(&mut self, ops: u64, hard_stop: Instant, spans: &mut SpanLog) -> Raw {
        let hops = CHAIN_HOPS.min(ops.max(1));
        let chains = ((ops + hops / 2) / hops).max(1);
        let mut raw = Raw::default();
        for i in 0..chains {
            if Instant::now() >= hard_stop {
                break;
            }
            // One chain carries an explicit id so the ledger has a trace
            // it asked for; the sampler picks up the others on its own.
            let trace = (self.traced && i == chains - 1)
                .then(|| self.rt.new_trace_id())
                .flatten();
            let unit = spans.open("chain", None, trace);
            let done = self.chain(hops, trace, &mut raw.failures);
            spans.close(unit);
            raw.requests += hops;
            if let Some(gaps) = done {
                raw.ops += hops;
                raw.unit_rates.extend(
                    gaps.chunks_exact(RATE_WINDOW_HOPS)
                        .map(|w| RATE_WINDOW_HOPS as f64 * 1e6 / w.iter().sum::<f64>()),
                );
                raw.lat_us.extend(gaps);
            }
        }
        raw
    }
}
