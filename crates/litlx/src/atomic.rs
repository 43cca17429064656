//! Atomic sections under a weak (location-consistency) memory model.
//!
//! §2.3: LITL-X adds "atomic sections, a parallel programming construct
//! that can simplify the use of fine-grained synchronization, while
//! delivering scalable parallelism by using a weak memory consistency
//! model, such as location consistency" (Gao & Sarkar's LC model, paper
//! reference \[5\]; "analyzable atomic sections" is reference \[12\]).
//!
//! Two pieces:
//!
//! * [`AtomicRegion`] — a named critical section built on a 1-permit
//!   semaphore LCO. Entry is *split-phase*: `enter` suspends the
//!   continuation until the permit arrives (never spins, never blocks a
//!   worker).
//! * [`LcCell<T>`] — a location-consistent cell. Each atomic section
//!   performs **acquire** (pull the current value from the cell's home
//!   locality), runs the mutation on a private copy, then **release**
//!   (publish the copy back). Between acquire/release pairs there is *no*
//!   coherence traffic, and observers that don't synchronize may see stale
//!   values — exactly LC's contract, and what distinguishes it from the
//!   sequentially-consistent mutex the baseline uses.

use px_core::error::PxResult;
use px_core::gid::{Gid, LocalityId};
use px_core::runtime::{Ctx, Runtime};
use serde::{de::DeserializeOwned, Serialize};
use std::marker::PhantomData;

/// A named critical section (1-permit semaphore LCO).
#[derive(Debug, Clone, Copy)]
pub struct AtomicRegion {
    sem: Gid,
}

impl AtomicRegion {
    /// Create a region homed at `loc`.
    pub fn new(rt: &Runtime, loc: LocalityId) -> AtomicRegion {
        AtomicRegion {
            sem: rt.new_semaphore(loc, 1),
        }
    }

    /// The underlying semaphore LCO.
    pub fn gid(&self) -> Gid {
        self.sem
    }

    /// Enter the region: `f` runs when the permit is granted and **must
    /// complete the section** — the permit is released automatically when
    /// `f` returns. Split-phase: the caller's thread terminates; `f` is
    /// the continuation.
    pub fn enter(&self, ctx: &mut Ctx<'_>, f: impl FnOnce(&mut Ctx<'_>) + Send + 'static) {
        let sem = self.sem;
        ctx.acquire(sem, move |ctx| {
            f(ctx);
            ctx.release(sem);
        });
    }

    /// Enter with an explicit hand-off: `f` receives a [`RegionGuard`] it
    /// must eventually release (for sections spanning further
    /// continuations).
    pub fn enter_manual(
        &self,
        ctx: &mut Ctx<'_>,
        f: impl FnOnce(&mut Ctx<'_>, RegionGuard) + Send + 'static,
    ) {
        let sem = self.sem;
        ctx.acquire(sem, move |ctx| f(ctx, RegionGuard { sem }));
    }
}

/// Proof of region ownership; release it to let the next waiter in.
#[derive(Debug)]
pub struct RegionGuard {
    sem: Gid,
}

impl RegionGuard {
    /// Release the region.
    pub fn release(self, ctx: &mut Ctx<'_>) {
        ctx.release(self.sem);
    }
}

/// A location-consistent cell of `T`, homed at one locality.
pub struct LcCell<T> {
    home: Gid,
    region: AtomicRegion,
    _t: PhantomData<fn() -> T>,
}

impl<T> Clone for LcCell<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for LcCell<T> {}

impl<T> std::fmt::Debug for LcCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LcCell({})", self.home)
    }
}

impl<T: Serialize + DeserializeOwned + Send + 'static> LcCell<T> {
    /// Create the cell at `loc` with an initial value.
    pub fn new(rt: &Runtime, loc: LocalityId, initial: &T) -> PxResult<LcCell<T>> {
        let bytes = px_wire::to_bytes(initial)?;
        Ok(LcCell {
            home: rt.new_data_at(loc, bytes),
            region: AtomicRegion::new(rt, loc),
            _t: PhantomData,
        })
    }

    /// The home data object.
    pub fn gid(&self) -> Gid {
        self.home
    }

    /// Atomic section over the cell: acquire → fetch home value → run `f`
    /// on a private copy → publish → release. Writes inside `f` are
    /// invisible elsewhere until the release (weak consistency); the
    /// region serializes racing sections.
    pub fn atomic_update(
        &self,
        ctx: &mut Ctx<'_>,
        f: impl FnOnce(&mut Ctx<'_>, &mut T) + Send + 'static,
    ) {
        let home = self.home;
        self.region.enter_manual(ctx, move |ctx, guard| {
            let fut = ctx.fetch_data(home); // acquire: pull current value
            ctx.when_future(fut, move |ctx, bytes: Vec<u8>| {
                let mut value: T = match px_wire::from_bytes(&bytes) {
                    Ok(v) => v,
                    Err(_) => {
                        guard.release(ctx);
                        return;
                    }
                };
                f(ctx, &mut value);
                let bytes = px_wire::to_bytes(&value).expect("LcCell value must encode");
                let done = ctx.store_data(home, &bytes).expect("Vec<u8> encodes");
                // release: publish, then free the region.
                ctx.when_future(done, move |ctx, ()| {
                    guard.release(ctx);
                });
            });
        });
    }

    /// Driver-side blocking read (test/verification use).
    pub fn read_blocking(&self, rt: &Runtime) -> PxResult<T> {
        let bytes = rt.read_data(self.home)?;
        Ok(px_wire::from_bytes(&bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use px_core::prelude::*;
    use std::time::Duration;

    fn rt(locs: usize) -> Runtime {
        RuntimeBuilder::new(Config::small(locs, 2)).build().unwrap()
    }

    #[test]
    fn region_serializes_critical_sections() {
        let rt = rt(2);
        let region = AtomicRegion::new(&rt, LocalityId(0));
        // A non-atomic counter mutated only inside the region: if the
        // region failed to serialize, increments would race via the
        // read-sleep-write pattern.
        let counter = std::sync::Arc::new(parking_lot::Mutex::new(0u64));
        let gate = rt.new_and_gate(LocalityId(0), 16);
        let gate_fut: FutureRef<()> = FutureRef::from_gid(gate);
        for i in 0..16u16 {
            let c = counter.clone();
            let dest = LocalityId(i % 2);
            rt.spawn_at(dest, move |ctx| {
                region.enter(ctx, move |ctx| {
                    let read = *c.lock();
                    std::thread::yield_now();
                    *c.lock() = read + 1;
                    ctx.trigger_value(gate, px_core::action::Value::unit());
                });
            });
        }
        rt.wait_future(gate_fut).unwrap();
        assert_eq!(*counter.lock(), 16);
        rt.shutdown();
    }

    #[test]
    fn lc_cell_atomic_updates_all_land() {
        let rt = rt(3);
        let cell = LcCell::new(&rt, LocalityId(0), &0u64).unwrap();
        let gate = rt.new_and_gate(LocalityId(0), 30);
        let gate_fut: FutureRef<()> = FutureRef::from_gid(gate);
        for i in 0..30u16 {
            let dest = LocalityId(i % 3);
            rt.spawn_at(dest, move |ctx| {
                cell.atomic_update(ctx, move |ctx, v| {
                    *v += 1;
                    ctx.trigger_value(gate, px_core::action::Value::unit());
                });
            });
        }
        rt.wait_future(gate_fut).unwrap();
        // The gate fires when all sections have *run*; publishes follow
        // within the section's release. Poll briefly for the last store.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let v = cell.read_blocking(&rt).unwrap();
            if v == 30 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "updates lost: {v} of 30"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        rt.shutdown();
    }

    #[test]
    fn manual_guard_spans_continuations() {
        let rt = rt(2);
        let region = AtomicRegion::new(&rt, LocalityId(0));
        let done = rt.new_future::<bool>(LocalityId(0));
        let done_gid = done.gid();
        rt.spawn_at(LocalityId(1), move |ctx| {
            region.enter_manual(ctx, move |ctx, guard| {
                // Hold the region across a spawned continuation.
                ctx.spawn(move |ctx| {
                    guard.release(ctx);
                    ctx.trigger(done_gid, &true).unwrap();
                });
            });
        });
        assert!(done.wait(&rt).unwrap());
        rt.shutdown();
    }

    #[test]
    fn weak_read_sees_initial_before_any_update() {
        let rt = rt(1);
        let cell = LcCell::new(&rt, LocalityId(0), &123u32).unwrap();
        assert_eq!(cell.read_blocking(&rt).unwrap(), 123);
        rt.shutdown();
    }
}
