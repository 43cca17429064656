//! `agas_mix`: reads and writes of data objects through the runtime's own
//! `DATA_GET`/`DATA_PUT` path while the driver migrates the objects.

use super::{traced_config, Failures, Raw, Rng, Spec, Workload, EXPLICIT_TRACE_EVERY};
use crate::spans::SpanLog;
use px_core::prelude::*;
use std::collections::VecDeque;
use std::time::Instant;

pub const SPEC: Spec = Spec {
    name: "agas_mix",
    why: "one AGAS layer used two ways at once: cached resolutions beside directory writes (migrate, stale cache, forward, chase, repair); a change that helps one and hurts the other shows here",
    op: "one data-object access, 90% reads (request = op; closed loop, 32 outstanding, a migration every 64)",
    nominal_rate: 85_000,
    ledger: false,
    setup,
};

const OBJECTS: usize = 256;
const OBJECT_BYTES: usize = 256;
const OUTSTANDING: usize = 32;
const MIGRATE_EVERY: u64 = 64;
/// Throughput is sampled over stretches of this many operations (≈ 40 ms).
const RATE_WINDOW_OPS: u64 = 4_096;
/// Long enough (≈ 60 ms) that `setup_s` is the warm-up and not where the
/// two workers happened to start.
const WARMUP_OPS: u64 = 8_192;
/// Reply of a client whose access faulted or read malformed bytes; no
/// version ever reaches it.
const BAD_REPLY: u64 = u64::MAX;

/// Contents of object `idx` at version `k`: both numbers, then a fill
/// that depends on both, so a torn or misdirected read cannot validate.
pub fn pattern(idx: u32, k: u64) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(OBJECT_BYTES);
    bytes.extend_from_slice(&idx.to_le_bytes());
    bytes.extend_from_slice(&k.to_le_bytes());
    let salt = u64::from(idx)
        .wrapping_mul(31)
        .wrapping_add(k.wrapping_mul(17));
    bytes.extend((bytes.len()..OBJECT_BYTES).map(|j| (salt.wrapping_add(j as u64)) as u8));
    bytes
}

/// The version `bytes` holds, if they are a well-formed object `idx`.
pub fn version_of(idx: u32, bytes: &[u8]) -> Option<u64> {
    let k = u64::from_le_bytes(bytes.get(4..12)?.try_into().ok()?);
    (bytes == pattern(idx, k)).then_some(k)
}

/// The bench client: runs at the locality the seed chose, accesses the
/// object wherever AGAS says it lives, and fills the driver's future from
/// its own continuation — with the version read or written.
struct Access;
impl Action for Access {
    const NAME: &'static str = "pxmark/access";
    /// Object, its index, the version to write (`None` reads), the
    /// driver's future.
    type Args = (Gid, u32, Option<u64>, Gid);
    type Out = ();
    fn execute(ctx: &mut Ctx<'_>, _t: Gid, (obj, idx, write, done): Self::Args) {
        match write {
            None => {
                let fetched = ctx.fetch_data(obj);
                ctx.when_resolved(fetched, move |ctx, bytes| {
                    let k = bytes.ok().and_then(|b| version_of(idx, &b));
                    reply(ctx, done, k.unwrap_or(BAD_REPLY));
                });
            }
            Some(k) => match ctx.store_data(obj, &pattern(idx, k)) {
                Ok(stored) => ctx.when_resolved(stored, move |ctx, r| {
                    reply(ctx, done, if r.is_ok() { k } else { BAD_REPLY });
                }),
                Err(_) => reply(ctx, done, BAD_REPLY),
            },
        }
    }
}

fn reply(ctx: &mut Ctx<'_>, done: Gid, v: u64) {
    ctx.trigger(done, &v).expect("plain integers always encode");
}

struct Object {
    gid: Gid,
    home: LocalityId,
    /// Versions handed out to writes so far (version 0 is the creation).
    written: u64,
}

struct AgasMix {
    rt: Runtime,
    rng: Rng,
    objects: Vec<Object>,
    traced: bool,
}

/// One outstanding request.
struct Pending {
    fut: FutureRef<u64>,
    issued: Instant,
    obj: usize,
    /// `Some(k)` for a write of version `k`.
    wrote: Option<u64>,
    trace: Option<u64>,
}

fn setup(seed: u64, traced: bool, spans: &mut SpanLog) -> Box<dyn Workload> {
    let rt = spans.time("build", None, None, || {
        RuntimeBuilder::new(traced_config(Config::small(2, 1), traced))
            .register::<Access>()
            .build()
            .expect("in-process runtime builds")
    });
    let mut rng = Rng::new(seed, SPEC.name);
    let objects = (0..OBJECTS)
        .map(|idx| {
            let home = LocalityId(rng.below(2) as u16);
            Object {
                gid: rt.new_data_at(home, pattern(idx as u32, 0)),
                home,
                written: 0,
            }
        })
        .collect();
    let mut w = AgasMix {
        rt,
        rng,
        objects,
        traced,
    };
    let warm = w.closed_loop(WARMUP_OPS, None, spans);
    assert_eq!(
        warm.failures.total(),
        0,
        "warm-up failed: {:?}",
        warm.failures
    );
    Box::new(w)
}

impl AgasMix {
    fn issue(&mut self, i: u64, spans: &mut SpanLog) -> Pending {
        let obj = self.rng.below(OBJECTS as u64) as usize;
        let client = LocalityId(self.rng.below(2) as u16);
        let wrote = (self.rng.below(10) == 0).then(|| {
            self.objects[obj].written += 1;
            self.objects[obj].written
        });
        let trace = (self.traced && i.is_multiple_of(EXPLICIT_TRACE_EVERY))
            .then(|| self.rt.new_trace_id())
            .flatten();
        let keep = trace.is_some();
        let fut = spans.time_if(keep, "new_future", None, trace, || {
            self.rt.new_future::<u64>(LocalityId(0))
        });
        let args = (self.objects[obj].gid, obj as u32, wrote, fut.gid());
        let issued = Instant::now();
        let target = Gid::locality_root(client);
        spans
            .time_if(keep, "send_action", None, trace, || match trace {
                Some(id) => {
                    self.rt
                        .send_action_traced::<Access>(target, args, Continuation::none(), id)
                }
                None => self
                    .rt
                    .send_action::<Access>(target, args, Continuation::none()),
            })
            .expect("plain values always encode");
        Pending {
            fut,
            issued,
            obj,
            wrote,
            trace,
        }
    }

    fn collect(&mut self, p: Pending, raw: &mut Raw, spans: &mut SpanLog) {
        let reply = spans.time_if(p.trace.is_some(), "wait", None, p.trace, || {
            p.fut.wait_timeout(&self.rt, super::REQUEST_TIMEOUT)
        });
        raw.requests += 1;
        let ok = match p.wrote {
            // A write replies with exactly the version it stored.
            Some(k) => raw.failures.check(reply, &k, 1),
            // A read sees some version already handed out (writes from the
            // two client localities may land in either order); `BAD_REPLY`
            // is above all of them.
            None => {
                let written = self.objects[p.obj].written;
                let seen = reply.map(|r| r.map(|k| k <= written));
                raw.failures.check(seen, &true, 1)
            }
        };
        if ok {
            raw.ops += 1;
            raw.lat_us.push(p.issued.elapsed().as_secs_f64() * 1e6);
        }
    }

    /// `ops` accesses with `OUTSTANDING` in flight, one migration every
    /// `MIGRATE_EVERY`; stops issuing at `hard_stop`.
    fn closed_loop(&mut self, ops: u64, hard_stop: Option<Instant>, spans: &mut SpanLog) -> Raw {
        let mut raw = Raw::default();
        let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(OUTSTANDING);
        let mut window_start = Instant::now();
        for i in 0..ops {
            if inflight.len() == OUTSTANDING {
                let oldest = inflight.pop_front().expect("window is full");
                self.collect(oldest, &mut raw, spans);
            }
            if i % MIGRATE_EVERY == MIGRATE_EVERY - 1 {
                let o = self.rng.below(OBJECTS as u64) as usize;
                let to = LocalityId(1 - self.objects[o].home.0);
                let gid = self.objects[o].gid;
                let moved =
                    spans.time("migrate_data", None, None, || self.rt.migrate_data(gid, to));
                match moved {
                    Ok(()) => self.objects[o].home = to,
                    Err(_) => raw.failures.fault += 1,
                }
            }
            if i % RATE_WINDOW_OPS == RATE_WINDOW_OPS - 1 {
                let now = Instant::now();
                raw.unit_rates
                    .push(RATE_WINDOW_OPS as f64 / (now - window_start).as_secs_f64());
                window_start = now;
                if hard_stop.is_some_and(|stop| now >= stop) {
                    break;
                }
            }
            let p = self.issue(i, spans);
            inflight.push_back(p);
        }
        for p in inflight {
            self.collect(p, &mut raw, spans);
        }
        raw
    }
}

impl Workload for AgasMix {
    fn rt(&self) -> &Runtime {
        &self.rt
    }

    fn run(&mut self, ops: u64, hard_stop: Instant, spans: &mut SpanLog) -> Raw {
        self.closed_loop(ops, Some(hard_stop), spans)
    }

    /// Every object is resident at exactly one locality — the one the
    /// driver last migrated it to — and holds the bytes of one last,
    /// ordered write issued through the same client path.
    fn verify(&mut self) -> Result<(), String> {
        for o in 0..OBJECTS {
            let (gid, idx) = (self.objects[o].gid, o as u32);
            self.objects[o].written += 1;
            let k = self.objects[o].written;
            let fut = self.rt.new_future::<u64>(LocalityId(0));
            let client = Gid::locality_root(LocalityId((o % 2) as u16));
            self.rt
                .send_action::<Access>(client, (gid, idx, Some(k), fut.gid()), Continuation::none())
                .map_err(|e| e.to_string())?;
            let mut f = Failures::default();
            if !f.check(fut.wait_timeout(&self.rt, super::REQUEST_TIMEOUT), &k, 1) {
                return Err(format!("final write of object {o} failed: {f:?}"));
            }
            let bytes = self.rt.read_data(gid).map_err(|e| e.to_string())?;
            if bytes != pattern(idx, k) {
                return Err(format!("object {o} does not hold its final bytes"));
            }
            let resident: Vec<u16> = (0..2u16)
                .filter(|&l| {
                    self.rt
                        .run_blocking(LocalityId(l), move |ctx| ctx.read_local_data(gid).is_ok())
                })
                .collect();
            if resident != [self.objects[o].home.0] {
                return Err(format!(
                    "object {o} resident at {resident:?}, expected only L{}",
                    self.objects[o].home.0
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_validates_only_as_itself() {
        let p = pattern(7, 3);
        assert_eq!(p.len(), OBJECT_BYTES);
        assert_eq!(version_of(7, &p), Some(3));
        assert_eq!(version_of(8, &p), None);
        let mut torn = p.clone();
        torn[100] ^= 1;
        assert_eq!(version_of(7, &torn), None);
        assert_eq!(version_of(7, &p[..8]), None);
        assert_ne!(pattern(7, 3), pattern(7, 4));
    }
}
