//! The stage ledger: where a traced request's time went, from the trace
//! plane's own events.
//!
//! Only deltas between consecutive events of one trace *within one rank*
//! are taken — ranks do not share a clock. What is left of a request's
//! measured round trip once every within-rank stage is subtracted is the
//! wire residual.

use px_core::prelude::{TraceEvent, TraceEventKind};
use std::collections::BTreeMap;

/// Stage names in request order (`stage.<name>_ns` in the metric list).
#[cfg(test)]
const STAGES: [&str; 8] = [
    "send_to_submit",
    "send_to_dispatch",
    "recv_to_dispatch",
    "dispatch_to_send",
    "dispatch_to_trigger",
    "trigger_to_release",
    "release_to_waiter",
    "wire_residual",
];

/// The stage a pair of consecutive same-rank events bounds, if any.
/// `NetSubmit → NetRecv` on one rank is the time the request spent *away*
/// and is deliberately unmapped.
fn stage_between(a: TraceEventKind, b: TraceEventKind) -> Option<&'static str> {
    use TraceEventKind::*;
    match (a, b) {
        (ParcelSend, NetSubmit) => Some("send_to_submit"),
        // In-process there is no transport event between the two.
        (ParcelSend, ParcelDispatch) => Some("send_to_dispatch"),
        (NetRecv, ParcelDispatch) => Some("recv_to_dispatch"),
        (ParcelDispatch, ParcelSend) => Some("dispatch_to_send"),
        (ParcelDispatch, LcoTrigger | LcoRelease) => Some("dispatch_to_trigger"),
        // The runtime records the release inside the LCO operation and the
        // trigger after it returns, so the pair arrives in either order.
        (LcoTrigger, LcoRelease) | (LcoRelease, LcoTrigger) => Some("trigger_to_release"),
        _ => None,
    }
}

/// A request the benchmark traced explicitly, stamped on its own clock.
#[derive(Debug, Clone, Copy)]
pub struct TracedRequest {
    pub trace: u64,
    /// Just before the `send_action_traced` call.
    pub send_ns: u64,
    /// When the caller's wait returned.
    pub done_ns: u64,
}

#[derive(Debug, Default)]
pub struct Ledger {
    /// Samples (ns) per stage: one per request when requests were
    /// stamped (a stage that occurs on both ranks is summed), else one
    /// per event pair.
    pub stages: BTreeMap<&'static str, Vec<f64>>,
    /// Same-rank event pairs that bound no stage.
    pub unmapped: u64,
    /// Stamped requests whose events had left the ring.
    pub requests_missing: u64,
}

/// The events of one trace, per rank, in time order. Localities of one
/// rank share a clock but not a ring, so `at_ns` orders them and the
/// ring's own sequence number only breaks ties.
type Chains = BTreeMap<u64, BTreeMap<u16, Vec<TraceEvent>>>;

fn chains_of(events: &[TraceEvent]) -> Chains {
    let mut chains = Chains::new();
    for e in events {
        chains
            .entry(e.trace)
            .or_default()
            .entry(e.domain)
            .or_default()
            .push(*e);
    }
    for chain in chains.values_mut().flat_map(BTreeMap::values_mut) {
        chain.sort_by_key(|e| (e.at_ns, e.locality, e.seq));
    }
    chains
}

/// Time per stage over one trace's same-rank event pairs.
fn stage_times(
    ranks: &BTreeMap<u16, Vec<TraceEvent>>,
    unmapped: &mut u64,
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for pair in ranks.values().flat_map(|chain| chain.windows(2)) {
        match stage_between(pair[0].kind, pair[1].kind) {
            Some(stage) => out.push((stage, (pair[1].at_ns - pair[0].at_ns) as f64)),
            None => *unmapped += 1,
        }
    }
    out
}

/// Fold `events` into per-stage samples. `home` is the rank (trace
/// domain) the benchmark's own clock lives on. With no stamped
/// `requests`, every trace in the dump is folded pair by pair.
pub fn fold(events: &[TraceEvent], home: u16, requests: &[TracedRequest]) -> Ledger {
    let chains = chains_of(events);
    let mut ledger = Ledger::default();
    if requests.is_empty() {
        for ranks in chains.values() {
            for (stage, d) in stage_times(ranks, &mut ledger.unmapped) {
                ledger.stages.entry(stage).or_default().push(d);
            }
        }
        return ledger;
    }

    // The trace clock's epoch is private to the runtime. The smallest gap
    // between a request's `send_ns` stamp and its first recorded event
    // estimates the offset between the two clocks (plus the few hundred
    // nanoseconds from the call to the first hook, which end up in no
    // stage).
    let home_chain = |r: &TracedRequest| {
        chains
            .get(&r.trace)
            .and_then(|ranks| ranks.get(&home))
            .filter(|c| {
                c.first()
                    .is_some_and(|e| e.kind == TraceEventKind::ParcelSend)
            })
    };
    let offset = requests
        .iter()
        .filter_map(|r| Some(home_chain(r)?[0].at_ns as i64 - r.send_ns as i64))
        .min()
        .unwrap_or(0);
    for r in requests {
        let Some(chain) = home_chain(r) else {
            ledger.requests_missing += 1;
            continue;
        };
        let mut per_stage: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (stage, d) in stage_times(&chains[&r.trace], &mut ledger.unmapped) {
            *per_stage.entry(stage).or_default() += d;
        }
        let last_ns = chain[chain.len() - 1].at_ns as i64 - offset;
        let to_waiter = (r.done_ns as i64 - last_ns).max(0) as f64;
        let rtt = r.done_ns.saturating_sub(r.send_ns) as f64;
        let explained = per_stage.values().sum::<f64>() + to_waiter;
        per_stage.insert("release_to_waiter", to_waiter);
        per_stage.insert("wire_residual", (rtt - explained).max(0.0));
        for (stage, d) in per_stage {
            ledger.stages.entry(stage).or_default().push(d);
        }
    }
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;
    use TraceEventKind::*;

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
    fn two_rank_round_trip_folds_within_rank_only() {
        // Rank 0's clock starts 1000 ns ahead of the bench clock; rank
        // 1's clock is unrelated (huge values) and must never be compared.
        let dump = vec![
            ev(7, ParcelSend, 0, 0, 1_100),
            ev(7, NetSubmit, 0, 1, 1_400),
            ev(7, NetRecv, 1, 50, 9_000_000),
            ev(7, ParcelDispatch, 1, 51, 9_002_000),
            ev(7, ParcelSend, 1, 52, 9_003_000),
            ev(7, NetSubmit, 1, 53, 9_003_500),
            ev(7, NetRecv, 0, 2, 51_400),
            ev(7, ParcelDispatch, 0, 3, 53_400),
            ev(7, LcoRelease, 0, 4, 53_900),
            ev(7, LcoTrigger, 0, 5, 54_000),
        ];
        let req = TracedRequest {
            trace: 7,
            send_ns: 100,
            done_ns: 58_000,
        };
        let l = fold(&dump, 0, &[req]);
        let one = |s: &str| {
            assert_eq!(l.stages[s].len(), 1, "{s}");
            l.stages[s][0]
        };
        // Two hops: the per-hop stages are summed over both ranks.
        assert_eq!(one("send_to_submit"), 800.0);
        assert_eq!(one("recv_to_dispatch"), 4_000.0);
        assert_eq!(one("dispatch_to_send"), 1_000.0);
        assert_eq!(one("dispatch_to_trigger"), 500.0);
        assert_eq!(one("trigger_to_release"), 100.0);
        // Offset 1000: the last event is at bench time 53_000.
        assert_eq!(one("release_to_waiter"), 5_000.0);
        // RTT 57_900 minus 6_400 of stages minus 5_000 to the waiter.
        assert_eq!(one("wire_residual"), 46_500.0);
        // Rank 0's submit → recv is time away, not a stage.
        assert_eq!(l.unmapped, 1);
        assert_eq!(l.requests_missing, 0);
    }

    #[test]
    fn in_process_chain_needs_no_stamps() {
        // Two localities of one rank: each ring numbers its own events, so
        // only the shared clock orders the chain.
        let at = |l: u16, e: TraceEvent| TraceEvent { locality: l, ..e };
        let dump = vec![
            at(0, ev(3, ParcelSend, 0, 10, 0)),
            at(1, ev(3, ParcelDispatch, 0, 2, 30_000)),
            at(1, ev(3, ParcelSend, 0, 3, 31_000)),
            at(0, ev(3, ParcelDispatch, 0, 11, 60_000)),
            // Another trace interleaved in the same ring.
            ev(4, ParcelSend, 0, 14, 61_000),
        ];
        let l = fold(&dump, 0, &[]);
        assert_eq!(l.stages["send_to_dispatch"], vec![30_000.0, 29_000.0]);
        assert_eq!(l.stages["dispatch_to_send"], vec![1_000.0]);
        assert!(!l.stages.contains_key("wire_residual"));
        assert_eq!(l.unmapped, 0);
    }

    #[test]
    fn overwritten_requests_are_counted_not_guessed() {
        let req = TracedRequest {
            trace: 99,
            send_ns: 0,
            done_ns: 10,
        };
        let l = fold(&[ev(1, ParcelSend, 0, 0, 5)], 0, &[req]);
        assert_eq!(l.requests_missing, 1);
        assert!(l.stages.is_empty());
    }

    #[test]
    fn every_stage_has_a_metric_in_the_catalog() {
        for s in STAGES {
            let name = format!("stage.{s}_ns");
            assert!(
                crate::catalog::PER_LAYER.iter().any(|m| m.name == name),
                "{name}"
            );
        }
    }

    #[test]
    fn every_mapped_stage_is_a_listed_stage() {
        let kinds = [
            ParcelSend,
            ParcelDispatch,
            LcoTrigger,
            LcoRelease,
            NetSubmit,
            NetRecv,
        ];
        for a in kinds {
            for b in kinds {
                if let Some(s) = stage_between(a, b) {
                    assert!(STAGES.contains(&s), "{s}");
                }
            }
        }
    }
}
