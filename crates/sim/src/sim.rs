//! The simulator core: components, contexts, and the run loop.

use crate::queue::EventQueue;
use crate::Time;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Identifies a component registered with a [`Simulator`].
///
/// Ids are assigned densely in registration order starting at 0, so models
/// can precompute id arithmetic (e.g. `node_base + node_index`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompId(pub u32);

/// A simulated hardware or software component.
///
/// Components receive events through [`Component::handle`] and react by
/// mutating their own state and scheduling further events via [`SimCtx`].
pub trait Component<E> {
    /// React to `event` arriving now.
    fn handle(&mut self, event: E, ctx: &mut SimCtx<'_, E>);
}

/// Per-dispatch view of the simulator handed to a component.
pub struct SimCtx<'a, E> {
    now: Time,
    self_id: CompId,
    queue: &'a mut EventQueue<E>,
    rng: &'a mut SmallRng,
    stop: &'a mut bool,
}

impl<E> SimCtx<'_, E> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The id of the component currently handling an event.
    #[inline]
    pub fn self_id(&self) -> CompId {
        self.self_id
    }

    /// Schedule `payload` for `dst` after `delay` ticks.
    #[inline]
    pub fn send_after(&mut self, delay: Time, dst: CompId, payload: E) {
        self.queue.push(self.now + delay, dst, payload);
    }

    /// Schedule `payload` for `dst` at absolute time `at` (must not be in
    /// the past — the calendar cannot rewind).
    #[inline]
    pub fn send_at(&mut self, at: Time, dst: CompId, payload: E) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at.max(self.now), dst, payload);
    }

    /// Schedule an event for the handling component itself.
    #[inline]
    pub fn wake_after(&mut self, delay: Time, payload: E) {
        let id = self.self_id;
        self.send_after(delay, id, payload);
    }

    /// Deterministic per-simulation random number generator.
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Request that the run loop stop after this dispatch completes.
    #[inline]
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

/// The discrete-event simulator.
///
/// Owns the component table, the event calendar, and a seeded RNG. The type
/// parameter `E` is the event payload exchanged between components.
pub struct Simulator<E> {
    components: Vec<Option<Box<dyn Component<E>>>>,
    queue: EventQueue<E>,
    now: Time,
    rng: SmallRng,
    stop: bool,
    dispatched: u64,
}

impl<E> Simulator<E> {
    /// New simulator with the given RNG seed (identical seeds replay
    /// identical histories).
    pub fn new(seed: u64) -> Self {
        Self {
            components: Vec::new(),
            queue: EventQueue::new(),
            now: 0,
            rng: SmallRng::seed_from_u64(seed),
            stop: false,
            dispatched: 0,
        }
    }

    /// Register a component, returning its dense id.
    pub fn add<C: Component<E> + 'static>(&mut self, comp: C) -> CompId {
        let id = CompId(self.components.len() as u32);
        self.components.push(Some(Box::new(comp)));
        id
    }

    /// Schedule an initial event from outside any component.
    pub fn send_at(&mut self, at: Time, dst: CompId, payload: E) {
        self.queue.push(at, dst, payload);
    }

    /// Current simulated time (time of the last dispatched event).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events dispatched so far.
    #[inline]
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Immutable access to a component (for reading results after a run).
    ///
    /// Panics if the id is out of range or the component is mid-dispatch.
    pub fn component(&self, id: CompId) -> &dyn Component<E> {
        self.components[id.0 as usize]
            .as_deref()
            .expect("component is mid-dispatch")
    }

    /// Take a component out of the simulator (e.g. to downcast and read
    /// final statistics after the run).
    pub fn remove(&mut self, id: CompId) -> Box<dyn Component<E>> {
        self.components[id.0 as usize]
            .take()
            .expect("component already removed")
    }

    /// Run until the calendar drains or a component calls
    /// [`SimCtx::stop`]. Returns the final simulated time.
    pub fn run(&mut self) -> Time {
        self.run_until(Time::MAX)
    }

    /// Run until the calendar drains, a component stops the simulation, or
    /// the next event would fire after `deadline`. Events at exactly
    /// `deadline` are still dispatched.
    pub fn run_until(&mut self, deadline: Time) -> Time {
        while !self.stop {
            match self.queue.peek_time() {
                Some(t) if t <= deadline => {}
                _ => break,
            }
            let ev = self.queue.pop().expect("peeked event must pop");
            self.now = ev.time;
            self.dispatched += 1;
            let idx = ev.dst.0 as usize;
            // Take the component out so it can receive `&mut self` while the
            // context borrows the queue; re-insert afterwards.
            let mut comp = self.components[idx]
                .take()
                .unwrap_or_else(|| panic!("event sent to missing component {idx}"));
            {
                let mut ctx = SimCtx {
                    now: self.now,
                    self_id: ev.dst,
                    queue: &mut self.queue,
                    rng: &mut self.rng,
                    stop: &mut self.stop,
                };
                comp.handle(ev.payload, &mut ctx);
            }
            self.components[idx] = Some(comp);
        }
        self.now
    }

    /// Clear the stop flag so the simulation can be resumed.
    pub fn clear_stop(&mut self) {
        self.stop = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    enum Ev {
        Tick,
        Add(u64),
    }

    struct Counter {
        total: u64,
        ticks: u32,
    }

    impl Component<Ev> for Counter {
        fn handle(&mut self, event: Ev, ctx: &mut SimCtx<'_, Ev>) {
            match event {
                Ev::Tick => {
                    self.ticks += 1;
                    if self.ticks < 5 {
                        ctx.wake_after(100, Ev::Tick);
                    }
                }
                Ev::Add(n) => self.total += n,
            }
        }
    }

    #[test]
    fn self_wakeups_advance_time() {
        let mut sim = Simulator::new(1);
        let c = sim.add(Counter { total: 0, ticks: 0 });
        sim.send_at(0, c, Ev::Tick);
        let end = sim.run();
        assert_eq!(end, 400); // ticks at 0,100,200,300,400
        assert_eq!(sim.dispatched(), 5);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulator::new(1);
        let c = sim.add(Counter { total: 0, ticks: 0 });
        sim.send_at(0, c, Ev::Tick);
        sim.run_until(150);
        assert_eq!(sim.now(), 100);
        assert_eq!(sim.pending(), 1); // the t=200 tick remains
    }

    #[test]
    fn events_route_to_correct_component() {
        use std::cell::Cell;
        use std::rc::Rc;

        // Models export results through shared handles; mirror that here.
        struct Acc(Rc<Cell<u64>>);
        impl Component<Ev> for Acc {
            fn handle(&mut self, event: Ev, _ctx: &mut SimCtx<'_, Ev>) {
                if let Ev::Add(n) = event {
                    self.0.set(self.0.get() + n);
                }
            }
        }

        let (ra, rb) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
        let mut sim = Simulator::new(1);
        let a = sim.add(Acc(ra.clone()));
        let b = sim.add(Acc(rb.clone()));
        sim.send_at(0, a, Ev::Add(3));
        sim.send_at(0, b, Ev::Add(9));
        sim.send_at(1, a, Ev::Add(4));
        sim.run();
        assert_eq!(ra.get(), 7);
        assert_eq!(rb.get(), 9);
    }

    struct Stopper;
    impl Component<Ev> for Stopper {
        fn handle(&mut self, _event: Ev, ctx: &mut SimCtx<'_, Ev>) {
            ctx.stop();
        }
    }

    #[test]
    fn stop_halts_run_loop() {
        let mut sim = Simulator::new(1);
        let s = sim.add(Stopper);
        sim.send_at(10, s, Ev::Tick);
        sim.send_at(20, s, Ev::Tick);
        sim.run();
        assert_eq!(sim.now(), 10);
        assert_eq!(sim.pending(), 1);
        sim.clear_stop();
        sim.run();
        assert_eq!(sim.now(), 20);
    }

    #[test]
    fn deterministic_replay() {
        fn trace() -> (Time, u64) {
            struct R;
            impl Component<Ev> for R {
                fn handle(&mut self, _e: Ev, ctx: &mut SimCtx<'_, Ev>) {
                    use rand::Rng;
                    let d: u64 = ctx.rng().gen_range(1..50);
                    if ctx.now() < 10_000 {
                        ctx.wake_after(d, Ev::Tick);
                    }
                }
            }
            let mut sim = Simulator::new(777);
            let r = sim.add(R);
            sim.send_at(0, r, Ev::Tick);
            let t = sim.run();
            (t, sim.dispatched())
        }
        assert_eq!(trace(), trace());
    }
}
