//! E8: irregular, time-varying parallelism — Barnes–Hut trees (§2.1).
//!
//! The requirement: "direct support for lightweight processing of
//! irregular time-varying sparse data structure parallelism such as that
//! for trees (N-body codes)".
//!
//! Distributed Barnes–Hut, both ways:
//!
//! * **ParalleX** — bodies are partitioned over localities; each locality
//!   builds an octree over its subset. A force evaluation for body `b`
//!   sends *work-to-data* parcels carrying `b`'s position to every
//!   locality; partial forces flow back as contributions to a per-body
//!   reduction LCO. No barrier anywhere; per-body dataflow joins.
//! * **CSP** — the classic MPI shape: allgather all bodies, build the
//!   full tree redundantly on every rank, compute the owned slice,
//!   barrier each step.
//!
//! Forces are verified against the sequential direct sum, so both
//! implementations are demonstrably computing the same physics.

use crate::table::{ms, print_table};
use parking_lot::RwLock;
use px_baseline::csp::World;
use px_core::net::WireModel;
use px_core::prelude::*;
use px_workloads::barnes_hut::{direct_forces, make_cluster, Body, Octree};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bodies in the cluster.
pub const BODIES: usize = 384;
/// Barnes–Hut opening angle.
pub const THETA: f64 = 0.5;
/// Wire latency for the distributed runs.
pub const LATENCY: Duration = Duration::from_micros(20);

/// Per-locality octrees. Trees are locality-resident state: entry `i` is
/// written once by locality `i` and only read by actions executing there
/// (the shared `Arc` stands in for the locality object store; storing the
/// arena through `px-wire` every step would only add constant overhead).
pub struct TreeStore {
    trees: Vec<RwLock<Option<LocalTree>>>,
}

/// A locality's bodies plus the octree built over them.
type LocalTree = (Vec<Body>, Octree);

static ACTION_STORE: RwLock<Option<Arc<TreeStore>>> = RwLock::new(None);

struct ForceReq;
impl Action for ForceReq {
    const NAME: &'static str = "e8/force_req";
    type Args = [f64; 3];
    type Out = [f64; 3];
    fn execute(ctx: &mut Ctx<'_>, _t: Gid, pos: [f64; 3]) -> [f64; 3] {
        let store = ACTION_STORE.read().clone().expect("store installed");
        let guard = store.trees[ctx.here().0 as usize].read();
        let (_, tree) = guard.as_ref().expect("tree built");
        tree.force_on(pos, THETA)
    }
}

/// One measurement row.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Localities / ranks used.
    pub localities: usize,
    /// ParalleX time per force phase.
    pub px: Duration,
    /// CSP time per force phase.
    pub csp: Duration,
    /// Relative RMS force error vs the direct sum (ParalleX run).
    pub px_err: f64,
}

/// ParalleX distributed force phase. Returns (elapsed, forces).
pub fn run_parallex(locs: usize, bodies: &[Body]) -> (Duration, Vec<[f64; 3]>) {
    let rt = RuntimeBuilder::new(Config::small(locs, 1).with_latency(LATENCY))
        .register::<ForceReq>()
        .build()
        .unwrap();
    // Partition round-robin and build per-locality trees.
    let store = Arc::new(TreeStore {
        trees: (0..locs).map(|_| RwLock::new(None)).collect(),
    });
    *ACTION_STORE.write() = Some(store.clone());
    let mut parts: Vec<Vec<Body>> = vec![Vec::new(); locs];
    let mut owner_of: Vec<(usize, usize)> = Vec::with_capacity(bodies.len());
    for (i, b) in bodies.iter().enumerate() {
        let l = i % locs;
        owner_of.push((l, parts[l].len()));
        parts[l].push(*b);
    }
    for (l, part) in parts.iter().enumerate() {
        let tree = Octree::build(part);
        *store.trees[l].write() = Some((part.clone(), tree));
    }

    // Collect per-body total forces through reduction LCOs.
    let forces = Arc::new(RwLock::new(vec![[0.0f64; 3]; bodies.len()]));
    let gate = rt.new_and_gate(LocalityId(0), bodies.len() as u64);
    let gate_fut: FutureRef<()> = FutureRef::from_gid(gate);

    let t0 = Instant::now();
    for (i, b) in bodies.iter().enumerate() {
        let (l, _) = owner_of[i];
        let pos = b.pos;
        let forces = forces.clone();
        let n_loc = locs;
        rt.spawn_at(LocalityId(l as u16), move |ctx| {
            // Reduction over one partial force from every locality.
            let fold: px_core::lco::ReduceFn = Box::new(|a, b| {
                let x: [f64; 3] = a.decode().unwrap();
                let y: [f64; 3] = b.decode().unwrap();
                px_core::action::Value::encode(&[x[0] + y[0], x[1] + y[1], x[2] + y[2]]).unwrap()
            });
            let red = ctx.new_reduce(n_loc as u64, &[0.0f64; 3], fold).unwrap();
            for j in 0..n_loc {
                ctx.send::<ForceReq>(
                    Gid::locality_root(LocalityId(j as u16)),
                    pos,
                    px_core::parcel::Continuation::contribute(red.gid()),
                )
                .unwrap();
            }
            let forces = forces.clone();
            ctx.when_future(red, move |ctx, total: [f64; 3]| {
                forces.write()[i] = total;
                ctx.trigger_value(gate, px_core::action::Value::unit());
            });
        });
    }
    rt.wait_future(gate_fut).unwrap();
    let elapsed = t0.elapsed();
    let out = forces.read().clone();
    *ACTION_STORE.write() = None;
    rt.shutdown();
    (elapsed, out)
}

/// CSP force phase: allgather, redundant full tree, compute own slice.
/// Returns (slowest rank's elapsed, forces).
pub fn run_csp(ranks: usize, bodies: &[Body]) -> (Duration, Vec<[f64; 3]>) {
    let n_bodies = bodies.len();
    let bodies = Arc::new(bodies.to_vec());
    let model = WireModel {
        latency: LATENCY,
        ns_per_byte: 0,
    };
    let times = World::run(ranks, model, move |mut rank| {
        let id = rank.id();
        let n = rank.world_size();
        let mine: Vec<Body> = bodies
            .iter()
            .enumerate()
            .filter(|(i, _)| i % n == id)
            .map(|(_, b)| *b)
            .collect();
        rank.barrier();
        let t0 = Instant::now();
        // Allgather bodies.
        for r in 0..n {
            if r != id {
                rank.send_t(r, 1, &mine).unwrap();
            }
        }
        let mut all: Vec<Body> = mine.clone();
        for _ in 0..n - 1 {
            let (_, theirs): (usize, Vec<Body>) = rank.recv_t(None, 1).unwrap();
            all.extend(theirs);
        }
        // Redundant full tree; compute owned forces.
        let tree = Octree::build(&all);
        let mut acc = Vec::with_capacity(mine.len());
        for b in &mine {
            acc.push(tree.force_on(b.pos, THETA));
        }
        rank.barrier();
        (t0.elapsed(), acc)
    });
    let elapsed = times.iter().map(|t| t.0).max().unwrap();
    // Rank `r` owns bodies `r, r + ranks, …`, in order.
    let forces = (0..n_bodies)
        .map(|i| times[i % ranks].1[i / ranks])
        .collect();
    (elapsed, forces)
}

/// Relative RMS error against the direct O(N²) sum.
pub fn rms_error(bodies: &[Body], forces: &[[f64; 3]]) -> f64 {
    let direct = direct_forces(bodies);
    let mut num = 0.0;
    let mut den = 0.0;
    for (f, d) in forces.iter().zip(direct.iter()) {
        for k in 0..3 {
            num += (f[k] - d[k]).powi(2);
            den += d[k].powi(2);
        }
    }
    (num / den).sqrt()
}

/// Sweep locality counts.
pub fn sweep(loc_counts: &[usize]) -> Vec<Row> {
    let bodies = make_cluster(BODIES, 2024);
    loc_counts
        .iter()
        .map(|&locs| {
            let (px, forces) = run_parallex(locs, &bodies);
            let (csp, _) = run_csp(locs, &bodies);
            Row {
                localities: locs,
                px,
                csp,
                px_err: rms_error(&bodies, &forces),
            }
        })
        .collect()
}

/// Print the E8 table.
pub fn run() -> Vec<Row> {
    let rows = sweep(&[1, 2, 4]);
    println!(
        "\n[E8] Barnes–Hut force phase, {BODIES} bodies, θ = {THETA}, {} µs wire",
        LATENCY.as_micros()
    );
    print_table(
        "E8 — irregular tree workload: ParalleX work-to-data vs CSP allgather",
        &["localities", "ParalleX ms", "CSP ms", "PX force RMS err"],
        rows.iter().map(|r| {
            vec![
                r.localities.to_string(),
                ms(r.px),
                ms(r.csp),
                format!("{:.4}", r.px_err),
            ]
        }),
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributed_forces_match_direct_sum() {
        let bodies = make_cluster(128, 7);
        let (_, forces) = run_parallex(2, &bodies);
        let err = rms_error(&bodies, &forces);
        assert!(err < 0.05, "distributed BH error too high: {err}");
    }

    #[test]
    fn csp_forces_match_direct_sum() {
        let bodies = make_cluster(64, 3);
        let (_, forces) = run_csp(2, &bodies);
        let err = rms_error(&bodies, &forces);
        assert!(err < 0.05, "CSP BH error too high: {err}");
    }
}
