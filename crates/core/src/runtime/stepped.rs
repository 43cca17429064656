//! The stepped runtime: no worker thread; the test's thread turns one
//! locality at a time (`Worker::step`, a worker thread's own turn), drawn
//! from a seed, and moves the stepped clock to the earliest deadline only
//! when no locality has anything to do. A seed fixes the whole run: a
//! failing one replays alone with `PX_SEED=<n>` ([`for_seeds`]). A test
//! can kill a locality between two turns ([`Stepped::kill`]), as a
//! crashed process dies.

use super::{Runtime, RuntimeBuilder};
use crate::action::Value;
use crate::clock::{stepped::Stepper, Clock};
use crate::error::PxResult;
use crate::gid::{Gid, LocalityId};
use crate::lco::FutureRef;
use crate::locality::Lane;
use crate::sched::{Work, Worker};
use parking_lot::Mutex;
use serde::{de::DeserializeOwned, Serialize};
use std::time::Duration;

/// Turns a stepped run may take before it is called stuck.
const MAX_STEPS: u64 = 1 << 20;

/// A thread-free runtime and the seeded driver that turns it.
pub(crate) struct Stepped {
    pub(crate) rt: Runtime,
    workers: Vec<Worker>,
    clock: Stepper,
    rng: u64,
}

impl RuntimeBuilder {
    /// Build with no worker thread and the localities' heaps on a stepped
    /// clock: the returned driver turns them in the order `seed` draws.
    pub(crate) fn stepped(self, seed: u64) -> Stepped {
        let clock = Stepper::default();
        let (inner, workers) = self.assemble(&Clock::Stepped(clock.clone())).unwrap();
        let (joins, rng) = (Mutex::new(Some(Vec::new())), seed);
        let rt = Runtime { inner, joins };
        Stepped {
            rt,
            workers,
            clock,
            rng,
        }
    }
}

impl Stepped {
    /// A number below `n`, the next of the seed's sequence (splitmix64).
    pub(crate) fn draw(&mut self, n: usize) -> usize {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    /// One turn of a locality that has something to do, drawn from the
    /// seed; or, when none has, the clock moved to the earliest deadline.
    /// False when nothing is queued or armed anywhere: quiescent.
    pub(crate) fn step(&mut self) -> bool {
        let ready = self.workers.iter().enumerate().filter(|(_, w)| w.ready());
        let ready: Vec<usize> = ready.map(|(w, _)| w).collect();
        if ready.is_empty() {
            let locs = self.rt.inner.localities.iter();
            let earliest = locs.filter_map(|l| l.timers.timeout()).min();
            earliest.map(|wait| self.clock.advance(wait)).is_some()
        } else {
            let w = ready[self.draw(ready.len())];
            self.workers[w].step();
            true
        }
    }

    /// One turn of the first worker of the `l`-th locality, whatever the
    /// seed draws.
    pub(crate) fn turn(&mut self, l: usize) -> bool {
        let lost = self.rt.inner.wire.is_lost(LocalityId(l as u16));
        assert!(!lost, "L{l} was killed: it never turns again");
        let before = self.rt.inner.localities[..l].iter();
        self.workers[before.map(|loc| loc.stealers.len()).sum::<usize>()].step()
    }

    /// Kill locality `l` between two turns, as a crashed process dies. What
    /// is on the wire toward it dies loudly: the frames on its heap go to
    /// the wire's one loss transition (`Wire::lose`), which kills each
    /// record, and those in the ports toward `l`; each closure on its heap
    /// dies as `Transport` and gives back the process token its send took.
    /// `l`'s own timers (a balancer pulse, armed on the control lane) die
    /// with it. The driver never turns `l` again, so its run queues are
    /// abandoned (`net` contract point 1). The one place the spend check
    /// exempts them: an armed parcel there drops only with the runtime,
    /// after `Runtime::shutdown` closed the check (as in point 4).
    pub(crate) fn kill(&mut self, l: usize) {
        let (inner, loc) = (&self.rt.inner, &self.rt.inner.localities[l]);
        let (mut frames, mut closures) = (Vec::new(), Vec::new());
        while let Some((lane, task, _)) = loc.timers.pop() {
            match task.work {
                Work::ParcelFrame(frame) => frames.push(frame),
                Work::Thread(_) if lane == Lane::Run => closures.push(task),
                _ => {}
            }
        }
        inner.wire.lose(inner, loc.id, "killed", frames);
        for task in closures {
            inner.kill_task(loc.id, &task);
            if let Some(pg) = task.process {
                inner.process_task_done(pg);
            }
        }
    }

    /// Turn until `done` holds at a moment when no locality has anything
    /// to do, failing with `what` if the runtime goes quiescent first.
    pub(crate) fn run_until(&mut self, what: &str, mut done: impl FnMut(&mut Stepped) -> bool) {
        for _ in 0..MAX_STEPS {
            if !self.workers.iter().any(Worker::ready) && done(self) {
                return;
            }
            assert!(self.step(), "quiescent before {what}");
        }
        panic!("{what} not reached in {MAX_STEPS} turns");
    }

    /// Turn until nothing is queued or armed anywhere.
    pub(crate) fn settle(&mut self) {
        let mut turns = 0..MAX_STEPS;
        while self.step() {
            assert!(turns.next().is_some(), "never settles");
        }
    }

    /// Every locality's store size, read off the `objects` gauge.
    pub(crate) fn store_sizes(&self) -> Vec<u64> {
        let stats = self.rt.stats();
        stats.localities.iter().map(|l| l.objects).collect()
    }

    /// `fut`'s value if it has one, read (which frees the future), or
    /// `None` with the future kept: a look that never blocks.
    pub(crate) fn take<T: Serialize + DeserializeOwned>(&self, fut: FutureRef<T>) -> Option<T> {
        self.rt.wait_future_timeout(fut, Duration::ZERO).unwrap()
    }

    /// The reply a request's future `fut` holds, read.
    pub(crate) fn reply(&self, fut: Gid) -> PxResult<Value> {
        let reply = self.rt.inner.wait_lco(fut, Some(Duration::ZERO));
        reply.map(|v| v.expect("the request was answered"))
    }
}

/// Run `scenario` on seeds `0..n`, or on `PX_SEED` alone when it is set:
/// a seed whose run panics fails the test with its number.
pub(crate) fn for_seeds(n: u64, scenario: impl Fn(u64)) {
    let one = |seed: String| seed.parse().map(|s| s..s + 1).expect("a numeric PX_SEED");
    for seed in std::env::var("PX_SEED").map_or(0..n, one) {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| scenario(seed)));
        assert!(run.is_ok(), "seed {seed} failed (PX_SEED={seed})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Config;

    /// Busy time is counted per busy stretch, not per task: `n`
    /// back-to-back tasks on one worker, each moving the clock by `D`,
    /// add exactly `n·D` to `busy_ns` once a look finds nothing, and the
    /// run reads the clock as often for 10 tasks as for 100.
    #[test]
    fn back_to_back_tasks_read_the_clock_per_stretch_not_per_task() {
        const D: Duration = Duration::from_micros(3);
        let run = |n: u32| {
            let mut s = RuntimeBuilder::new(Config::small(1, 1)).stepped(0);
            for _ in 0..n {
                let clock = s.clock.clone();
                s.rt.spawn_at(LocalityId(0), move |_| clock.advance(D));
            }
            let before = (s.clock.reads(), s.rt.stats().localities[0].busy_ns);
            s.settle();
            assert!(!s.turn(0), "a look that finds nothing closes the stretch");
            let busy = s.rt.stats().localities[0].busy_ns - before.1;
            assert_eq!(busy, (n * D).as_nanos() as u64);
            s.clock.reads() - before.0
        };
        let (ten, hundred) = (run(10), run(100));
        assert_eq!(ten, hundred, "clock reads grow with the tasks run");
    }
}
