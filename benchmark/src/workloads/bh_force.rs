//! `bh_force`: Barnes–Hut force phases in the E8 shape — the
//! application-shaped, compute-dominated run.

use super::{traced_config, Raw, Spec, Workload};
use crate::spans::SpanLog;
use px_core::action::Value;
use px_core::lco::ReduceFn;
use px_core::prelude::*;
use px_workloads::barnes_hut::{direct_forces, make_cluster, Body, Octree};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

pub const SPEC: Spec = Spec {
    name: "bh_force",
    why: "application-shaped and compute-dominated (E8 Barnes-Hut, per-body reduce LCO, no barrier): a runtime optimisation should move it little and must not regress it",
    op: "one body-force evaluation (request = one phase of 4 096)",
    nominal_rate: 85_000,
    ledger: false,
    setup,
};

pub const BODIES: usize = 4_096;
pub const THETA: f64 = 0.5;
const LOCALITIES: usize = 2;
/// E8's tolerance against the direct O(N²) sum.
const MAX_RMS_ERROR: f64 = 0.05;

/// Tree `i` covers the bodies resident at locality `i`; only actions
/// running there read it (the static stands in for the locality's store,
/// as in E8).
static TREES: RwLock<Vec<Arc<Octree>>> = RwLock::new(Vec::new());

struct ForceReq;
impl Action for ForceReq {
    const NAME: &'static str = "pxmark/force_req";
    type Args = [f64; 3];
    type Out = [f64; 3];
    fn execute(ctx: &mut Ctx<'_>, _t: Gid, pos: [f64; 3]) -> [f64; 3] {
        let tree = TREES.read().expect("tree store lock")[ctx.here().0 as usize].clone();
        tree.force_on(pos, THETA)
    }
}

/// Bodies of locality `l` under the round-robin partition.
pub fn partition(bodies: &[Body], l: usize) -> Vec<Body> {
    bodies.iter().skip(l).step_by(LOCALITIES).copied().collect()
}

/// Relative RMS error of `forces` against the direct sum.
fn rms_error(bodies: &[Body], forces: &[[f64; 3]]) -> f64 {
    let (mut num, mut den) = (0.0, 0.0);
    for (f, d) in forces.iter().zip(direct_forces(bodies)) {
        for k in 0..3 {
            num += (f[k] - d[k]).powi(2);
            den += d[k].powi(2);
        }
    }
    (num / den).sqrt()
}

struct BhForce {
    rt: Runtime,
    bodies: Vec<Body>,
    /// Forces of the warm-up phase: every later phase must reproduce them
    /// exactly (a two-term floating sum is order-independent).
    reference: Vec<[f64; 3]>,
}

fn setup(seed: u64, traced: bool, spans: &mut SpanLog) -> Box<dyn Workload> {
    let rt = spans.time("build", None, None, || {
        RuntimeBuilder::new(traced_config(Config::small(LOCALITIES, 1), traced))
            .register::<ForceReq>()
            .build()
            .expect("in-process runtime builds")
    });
    let bodies = make_cluster(BODIES, seed);
    *TREES.write().expect("tree store lock") = (0..LOCALITIES)
        .map(|l| Arc::new(Octree::build(&partition(&bodies, l))))
        .collect();
    let mut w = BhForce {
        rt,
        bodies,
        reference: Vec::new(),
    };
    w.reference = w.phase().expect("warm-up phase completes");
    Box::new(w)
}

impl BhForce {
    /// One force phase; `None` when the gate did not fire in time.
    fn phase(&mut self) -> Option<Vec<[f64; 3]>> {
        let forces = Arc::new(Mutex::new(vec![[0.0f64; 3]; BODIES]));
        let gate = self.rt.new_and_gate(LocalityId(0), BODIES as u64);
        for (i, b) in self.bodies.iter().enumerate() {
            let pos = b.pos;
            let forces = forces.clone();
            self.rt
                .spawn_at(LocalityId((i % LOCALITIES) as u16), move |ctx| {
                    let fold: ReduceFn = Box::new(|a, b| {
                        let x: [f64; 3] = a.decode().expect("partial force");
                        let y: [f64; 3] = b.decode().expect("partial force");
                        Value::encode(&[x[0] + y[0], x[1] + y[1], x[2] + y[2]])
                            .expect("floats always encode")
                    });
                    let red = ctx
                        .new_reduce(LOCALITIES as u64, &[0.0f64; 3], fold)
                        .expect("floats always encode");
                    for l in 0..LOCALITIES {
                        ctx.send::<ForceReq>(
                            Gid::locality_root(LocalityId(l as u16)),
                            pos,
                            Continuation::contribute(red.gid()),
                        )
                        .expect("floats always encode");
                    }
                    ctx.when_future(red, move |ctx, total: [f64; 3]| {
                        forces.lock().expect("force table lock")[i] = total;
                        ctx.trigger_value(gate, Value::unit());
                    });
                });
        }
        FutureRef::<()>::from_gid(gate)
            .wait_timeout(&self.rt, super::REQUEST_TIMEOUT)
            .ok()
            .flatten()?;
        let out = forces.lock().expect("force table lock").clone();
        Some(out)
    }
}

impl Workload for BhForce {
    fn rt(&self) -> &Runtime {
        &self.rt
    }

    fn run(&mut self, ops: u64, hard_stop: Instant, spans: &mut SpanLog) -> Raw {
        let phases = ((ops + BODIES as u64 / 2) / BODIES as u64).max(1);
        let mut raw = Raw::default();
        for i in 0..phases {
            if Instant::now() >= hard_stop {
                break;
            }
            let unit = spans.open("phase", None, Some(i));
            let t0 = Instant::now();
            let forces = self.phase();
            let wall = t0.elapsed();
            spans.close(unit);
            raw.requests += 1;
            let reply: PxResult<Option<&[[f64; 3]]>> = Ok(forces.as_deref());
            if raw.failures.check(reply, &self.reference.as_slice(), 1) {
                raw.ops += BODIES as u64;
                raw.lat_us.push(wall.as_secs_f64() * 1e6);
                raw.unit_rates.push(BODIES as f64 / wall.as_secs_f64());
            }
        }
        raw
    }

    /// The plain single-threaded run of one phase — every body against
    /// both trees, no runtime — and how close two workers come to halving it.
    fn extras(&mut self, lat_p50_us: f64) -> Vec<(&'static str, f64)> {
        let trees = TREES.read().expect("tree store lock").clone();
        let t0 = Instant::now();
        for b in &self.bodies {
            for tree in &trees {
                std::hint::black_box(tree.force_on(b.pos, THETA));
            }
        }
        let seq = t0.elapsed().as_secs_f64();
        let phase = lat_p50_us / 1e6;
        vec![
            ("app.seq_baseline_s", seq),
            ("app.parallel_efficiency", seq / (LOCALITIES as f64 * phase)),
        ]
    }

    fn verify(&mut self) -> Result<(), String> {
        let err = rms_error(&self.bodies, &self.reference);
        if err < MAX_RMS_ERROR {
            Ok(())
        } else {
            Err(format!(
                "force RMS error {err:.4} vs direct sum exceeds {MAX_RMS_ERROR}"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_round_robin_and_complete() {
        let bodies = make_cluster(9, 1);
        let (a, b) = (partition(&bodies, 0), partition(&bodies, 1));
        assert_eq!((a.len(), b.len()), (5, 4));
        assert_eq!(a[1].pos, bodies[2].pos);
        assert_eq!(b[0].pos, bodies[1].pos);
    }
}
