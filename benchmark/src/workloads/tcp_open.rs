//! `tcp_open`: two OS processes over loopback TCP, requests arriving on a
//! fixed schedule whether or not earlier ones have completed.

use super::{traced_config, Failures, Raw, Rng, Spec, Workload, EXPLICIT_TRACE_EVERY};
use crate::ledger::TracedRequest;
use crate::spans::SpanLog;
use px_core::prelude::*;
use std::io::Read;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub const SPEC: Spec = Spec {
    name: "tcp_open",
    why: "open loop at 50k/s, a third of closed-loop capacity: latency is service + flush timer + epoll wake, not backlog; net::tcp, px-poll, px-wire and lco fire-to-wake do the work",
    op: "one Sq spawn->resolve across the socket (request = op; latency from the due time)",
    nominal_rate: RATE,
    ledger: true,
    setup,
};

/// Offered load, requests per second.
const RATE: u64 = 50_000;
const WARMUP_REQUESTS: u64 = 2_000;
/// Throughput is sampled over stretches of this many replies (0.1 s).
const RATE_WINDOW_REQUESTS: u64 = 5_000;
/// Sleeping for less than this overshoots by more than it saves.
const MIN_SLEEP: Duration = Duration::from_micros(50);
/// First argument of the re-executed binary that serves rank 1.
pub const RANK1_ARG: &str = "__rank1";

/// When request `i` is due, in nanoseconds after the start, at `rate`/s.
pub fn due_ns(i: u64, rate: u64) -> u64 {
    (u128::from(i) * 1_000_000_000 / u128::from(rate)) as u64
}

struct Sq;
impl Action for Sq {
    const NAME: &'static str = "pxmark/sq";
    type Args = u64;
    type Out = u64;
    fn execute(_ctx: &mut Ctx<'_>, _t: Gid, n: u64) -> u64 {
        n.wrapping_mul(n)
    }
}

/// Rank 1's trace events, fetched in-band for the ledger.
struct TraceSlice;
impl Action for TraceSlice {
    const NAME: &'static str = "pxmark/trace_slice";
    type Args = ();
    type Out = Vec<TraceEvent>;
    fn execute(ctx: &mut Ctx<'_>, _t: Gid, (): ()) -> Vec<TraceEvent> {
        ctx.trace_dump().events
    }
}

fn config(rank: u16, addrs: Vec<String>, traced: bool) -> Config {
    traced_config(
        Config::small(2, 1)
            .with_tcp(rank, addrs)
            .with_max_batch_parcels(16),
        traced,
    )
}

/// Serve rank 1 until the parent closes our stdin. `args` are the
/// address list and the traced flag, as `setup` passes them.
pub fn serve_rank1(args: &[String]) -> Result<(), String> {
    let [addrs, traced] = args else {
        return Err(format!("{RANK1_ARG} takes <addr0,addr1> <0|1>"));
    };
    let addrs = addrs.split(',').map(String::from).collect();
    let rt = RuntimeBuilder::new(config(1, addrs, traced == "1"))
        .register::<Sq>()
        .register::<TraceSlice>()
        .build()
        .map_err(|e| format!("rank 1 bootstrap: {e}"))?;
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    rt.shutdown();
    Ok(())
}

struct TcpOpen {
    rt: Runtime,
    rank1: Child,
    rng: Rng,
    traced: bool,
}

fn setup(seed: u64, traced: bool, spans: &mut SpanLog) -> Box<dyn Workload> {
    // Reserve two loopback ports by binding and dropping, as E14 does.
    let addrs: Vec<String> = (0..2)
        .map(|_| {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
            format!(
                "127.0.0.1:{}",
                l.local_addr().expect("bound address").port()
            )
        })
        .collect();
    // The build span covers starting rank 1 and the bootstrap barrier.
    let (rank1, rt) = spans.time("build", None, None, || {
        let rank1 = Command::new(std::env::current_exe().expect("own executable path"))
            .args([RANK1_ARG, &addrs.join(","), if traced { "1" } else { "0" }])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .expect("re-execute pxmark as rank 1");
        let rt = RuntimeBuilder::new(config(0, addrs, traced))
            .register::<Sq>()
            .register::<TraceSlice>()
            .build()
            .expect("rank 0 bootstrap");
        (rank1, rt)
    });
    let mut w = TcpOpen {
        rt,
        rank1,
        rng: Rng::new(seed, SPEC.name),
        traced,
    };
    // Warm-up: one pipelined batch (connections, buffers, page faults).
    let mut warm = Failures::default();
    let batch: Vec<_> = (0..WARMUP_REQUESTS)
        .map(|_| {
            let x = w.rng.next();
            (request(&w.rt, x, None, spans), x.wrapping_mul(x))
        })
        .collect();
    for (fut, want) in batch {
        warm.check(fut.wait_timeout(&w.rt, super::REQUEST_TIMEOUT), &want, 1);
    }
    assert_eq!(warm.total(), 0, "warm-up batch failed: {warm:?}");
    Box::new(w)
}

/// Send one request for `x²`; spans are kept only for explicitly traced
/// requests (all of them would be most of a gigabyte).
fn request(rt: &Runtime, x: u64, trace: Option<u64>, spans: &mut SpanLog) -> FutureRef<u64> {
    let keep = trace.is_some();
    let fut = spans.time_if(keep, "new_future", None, trace, || {
        rt.new_future::<u64>(LocalityId(0))
    });
    let (target, cont) = (
        Gid::locality_root(LocalityId(1)),
        Continuation::set(fut.gid()),
    );
    spans
        .time_if(keep, "send_action", None, trace, || match trace {
            Some(id) => rt.send_action_traced::<Sq>(target, x, cont, id),
            None => rt.send_action::<Sq>(target, x, cont),
        })
        .expect("plain integers always encode");
    fut
}

/// One issued request on its way from the sender to the collector.
struct InFlight {
    fut: FutureRef<u64>,
    want: u64,
    due: Instant,
    /// Trace id and send stamp of an explicitly traced request.
    traced: Option<(u64, u64)>,
}

impl Workload for TcpOpen {
    fn rt(&self) -> &Runtime {
        &self.rt
    }

    fn peer_pid(&self) -> Option<u32> {
        Some(self.rank1.id())
    }

    fn run(&mut self, ops: u64, hard_stop: Instant, spans: &mut SpanLog) -> Raw {
        let mut raw = Raw::default();
        let (tx, rx) = mpsc::channel::<InFlight>();
        let mut send_spans = spans.sibling();
        let traced = self.traced;
        let t0 = Instant::now();
        // Split borrows: the sender thread draws inputs and issues, the
        // collector (this thread) only waits on futures.
        let rt = &self.rt;
        let rng = &mut self.rng;
        let (issued, max_late, last_issue, send_spans) = std::thread::scope(|s| {
            let sender = s.spawn(move || {
                let mut max_late = Duration::ZERO;
                let mut last_issue = t0;
                let mut issued = 0u64;
                for i in 0..ops {
                    let due = t0 + Duration::from_nanos(due_ns(i, RATE));
                    let now = Instant::now();
                    if now >= hard_stop {
                        break;
                    }
                    if due > now + MIN_SLEEP {
                        std::thread::sleep(due - now);
                    }
                    let trace = (traced && i.is_multiple_of(EXPLICIT_TRACE_EVERY))
                        .then(|| rt.new_trace_id())
                        .flatten();
                    let x = rng.next();
                    let send_ns = send_spans.now_ns();
                    let fut = request(rt, x, trace, &mut send_spans);
                    last_issue = Instant::now();
                    max_late = max_late.max(last_issue.saturating_duration_since(due));
                    issued += 1;
                    let sent = tx.send(InFlight {
                        fut,
                        want: x.wrapping_mul(x),
                        due,
                        traced: trace.map(|id| (id, send_ns)),
                    });
                    if sent.is_err() {
                        break;
                    }
                }
                (issued, max_late, last_issue, send_spans)
            });
            // Collector: wait in issue order; latency runs from the due
            // time, so a late generator or a stalled reply both count.
            let mut window_start = t0;
            for req in rx {
                let id = req.traced.map(|t| t.0);
                let reply = spans.time_if(id.is_some(), "wait", None, id, || {
                    req.fut.wait_timeout(rt, super::REQUEST_TIMEOUT)
                });
                let now = Instant::now();
                raw.requests += 1;
                if raw.requests.is_multiple_of(RATE_WINDOW_REQUESTS) {
                    raw.unit_rates
                        .push(RATE_WINDOW_REQUESTS as f64 / (now - window_start).as_secs_f64());
                    window_start = now;
                }
                if raw.failures.check(reply, &req.want, 1) {
                    raw.ops += 1;
                    raw.lat_us
                        .push(now.saturating_duration_since(req.due).as_secs_f64() * 1e6);
                    if let Some((trace, send_ns)) = req.traced {
                        raw.traced.push(TracedRequest {
                            trace,
                            send_ns,
                            done_ns: spans.now_ns(),
                        });
                    }
                }
            }
            sender.join().expect("sender thread does not panic")
        });
        spans.absorb(send_spans);
        raw.max_late_us = max_late.as_secs_f64() * 1e6;
        raw.achieved_rate = issued as f64 / (last_issue - t0).as_secs_f64().max(1e-9);
        raw
    }

    fn peer_trace(&self) -> Vec<TraceEvent> {
        let fut = self.rt.new_future::<Vec<TraceEvent>>(LocalityId(0));
        self.rt
            .send_action::<TraceSlice>(
                Gid::locality_root(LocalityId(1)),
                (),
                Continuation::set(fut.gid()),
            )
            .expect("unit always encodes");
        fut.wait_timeout(&self.rt, super::REQUEST_TIMEOUT)
            .ok()
            .flatten()
            .unwrap_or_default()
    }

    fn shutdown(mut self: Box<Self>) {
        // Closing its stdin is rank 1's signal to stop; reap it before
        // tearing down our side so no process outlives the benchmark.
        drop(self.rank1.stdin.take());
        let _ = self.rank1.wait();
        self.rt.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_an_exact_fixed_rate_schedule() {
        assert_eq!(due_ns(0, 50_000), 0);
        assert_eq!(due_ns(1, 50_000), 20_000);
        assert_eq!(due_ns(50_000, 50_000), 1_000_000_000);
        // No drift: request 3 of a 3/s schedule is due at exactly 1 s even
        // though each gap is a third of a second.
        assert_eq!(due_ns(1, 3), 333_333_333);
        assert_eq!(due_ns(3, 3), 1_000_000_000);
        // Far past where a u64 product would overflow.
        assert_eq!(due_ns(1 << 40, 1 << 10), (1u64 << 30) * 1_000_000_000);
        assert!((1..1000).all(|i| due_ns(i, 50_000) > due_ns(i - 1, 50_000)));
    }
}
