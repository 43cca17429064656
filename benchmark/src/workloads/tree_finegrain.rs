//! `tree_finegrain`: binary spawn trees of microsecond leaves on one
//! locality with two workers.

use super::{traced_config, Failures, Raw, Rng, Spec, Workload};
use crate::spans::SpanLog;
use px_core::action::Value;
use px_core::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SPEC: Spec = Spec {
    name: "tree_finegrain",
    why: "local push/pop/steal and one contended and-gate with zero parcels and zero wire; the 1 us leaf keeps the mutex deques out of their bimodal zero-grain regime",
    op: "one PX-thread (request = one tree of 32 767)",
    nominal_rate: 1_300_000,
    ledger: false,
    setup,
};

const DEPTH: u32 = 14;
const LEAVES: u64 = 1 << DEPTH;
const TREE_TASKS: u64 = 2 * LEAVES - 1;
const LEAF_ITERS: u32 = 1_000;

/// The leaf's work: `LEAF_ITERS` xorshift steps from a per-leaf seed.
fn leaf_work(mut x: u64) -> u64 {
    for _ in 0..LEAF_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Leaf `path`'s input under this run's seed (never zero: xorshift's
/// fixed point).
fn leaf_seed(salt: u64, path: u64) -> u64 {
    (salt ^ path.wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1
}

/// One node: inner nodes spawn two children, leaves work and hit the gate.
fn node(ctx: &mut Ctx<'_>, depth: u32, path: u64, salt: u64, gate: Gid, sum: Arc<AtomicU64>) {
    if depth == DEPTH {
        let v = leaf_work(leaf_seed(salt, path));
        // Relaxed: a checksum read only after the gate has fired.
        sum.fetch_add(v, Ordering::Relaxed);
        ctx.trigger_value(gate, Value::unit());
        return;
    }
    for child in [2 * path, 2 * path + 1] {
        let sum = sum.clone();
        ctx.spawn(move |ctx| node(ctx, depth + 1, child, salt, gate, sum));
    }
}

struct TreeFinegrain {
    rt: Runtime,
    salt: u64,
    /// Wrapping sum of every leaf's result: the value one tree must produce.
    expected: u64,
    threads_before: u64,
    trees_run: u64,
}

fn setup(seed: u64, traced: bool, spans: &mut SpanLog) -> Box<dyn Workload> {
    let rt = spans.time("build", None, None, || {
        RuntimeBuilder::new(traced_config(Config::small(1, 2), traced))
            .build()
            .expect("in-process runtime builds")
    });
    let salt = Rng::new(seed, SPEC.name).next();
    let expected = (LEAVES..2 * LEAVES).fold(0u64, |acc, path| {
        acc.wrapping_add(leaf_work(leaf_seed(salt, path)))
    });
    let mut w = TreeFinegrain {
        rt,
        salt,
        expected,
        threads_before: 0,
        trees_run: 0,
    };
    let mut warm = Failures::default();
    w.tree(&mut warm);
    assert_eq!(warm.total(), 0, "warm-up tree failed: {warm:?}");
    w.verify().expect("warm-up tree ran every task");
    w.threads_before = TREE_TASKS;
    w.trees_run = 0;
    Box::new(w)
}

impl TreeFinegrain {
    fn tree(&mut self, failures: &mut Failures) -> bool {
        let gate = self.rt.new_and_gate(LocalityId(0), LEAVES);
        let sum = Arc::new(AtomicU64::new(0));
        let (salt, leaf_sum) = (self.salt, sum.clone());
        self.rt.spawn_at(LocalityId(0), move |ctx| {
            node(ctx, 0, 1, salt, gate, leaf_sum)
        });
        let fired = FutureRef::<()>::from_gid(gate).wait_timeout(&self.rt, super::REQUEST_TIMEOUT);
        self.trees_run += 1;
        // Relaxed: the gate's fire orders every leaf's add before this.
        let got = fired.map(|f| f.map(|()| sum.load(Ordering::Relaxed)));
        failures.check(got, &self.expected, 1)
    }
}

impl Workload for TreeFinegrain {
    fn rt(&self) -> &Runtime {
        &self.rt
    }

    fn run(&mut self, ops: u64, hard_stop: Instant, spans: &mut SpanLog) -> Raw {
        let trees = ((ops + TREE_TASKS / 2) / TREE_TASKS).max(1);
        let mut raw = Raw::default();
        for i in 0..trees {
            if Instant::now() >= hard_stop {
                break;
            }
            let unit = spans.open("tree", None, Some(i));
            let t0 = Instant::now();
            let ok = self.tree(&mut raw.failures);
            let wall = t0.elapsed();
            spans.close(unit);
            raw.requests += 1;
            if ok {
                raw.ops += TREE_TASKS;
                raw.lat_us.push(wall.as_secs_f64() * 1e6);
                raw.unit_rates.push(TREE_TASKS as f64 / wall.as_secs_f64());
            }
        }
        raw
    }

    fn verify(&mut self) -> Result<(), String> {
        let want = self.trees_run * TREE_TASKS;
        // The last leaf fires the gate from inside its body and is counted
        // when the body returns, so give the counter a moment to land.
        let settle = Instant::now() + Duration::from_secs(2);
        loop {
            let ran = self.rt.stats().total().threads_executed - self.threads_before;
            if ran == want {
                return Ok(());
            }
            if ran > want || Instant::now() >= settle {
                return Err(format!(
                    "threads_executed grew by {ran}, expected {want} for {} trees",
                    self.trees_run
                ));
            }
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_paths_are_the_last_level_of_a_heap_numbered_tree() {
        // Children of node p are 2p and 2p+1 from root 1, so depth-14
        // nodes are exactly LEAVES..2*LEAVES — what `expected` sums over.
        let mut level = vec![1u64];
        for _ in 0..DEPTH {
            level = level.iter().flat_map(|p| [2 * p, 2 * p + 1]).collect();
        }
        assert_eq!(level.len() as u64, LEAVES);
        assert_eq!((level[0], level[level.len() - 1]), (LEAVES, 2 * LEAVES - 1));
        assert_ne!(leaf_work(leaf_seed(0, 0)), 0);
    }
}
