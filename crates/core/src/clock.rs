//! The rank's one clock: px-core's seam for timers and threads.
//!
//! [`Timers`] is the one deadline queue; the TCP event loop arms its
//! bootstrap, connect, handshake and drain timers on one. Each locality
//! has a [`Heap`], a `Timers` of tasks due there later: the in-process
//! wire's arrivals and the balancer pulse. Any thread arms it; the holder
//! of the locality's poller (`queue::Sleep`) fires it at the start of
//! every pass and parks with its earliest deadline as the timeout —
//! in-process on the heap's own timed park ([`Heap::park`]), over TCP in
//! `epoll_wait`. A ring ([`Heap::ring`]) asks for a pass sooner: it ends
//! the park, or a busy holder's look after its task finds it. [`spawn`]
//! is the one place px-core starts a thread, so the thread set is a table
//! of one row:
//!
//! | Thread | Runs | Started by |
//! |---|---|---|
//! | `px-L{l}-w{w}` | worker `w` of locality `l` | `RuntimeBuilder::build`, per worker of an owned locality |
//!
//! In test builds a runtime can run thread-free on a stepped [`Clock`]
//! (`runtime::stepped`): time moves only when every locality is idle,
//! and nothing parks on a stepped heap.
//!
//! Outside the seam, each for a reason: `queue.rs`'s paced spin is
//! wall-clock by nature, and a stepped run does not spin. Measurement
//! stamps (busy and idle ns in `sched.rs`, metrics and trace stamps,
//! `NetRtt`'s `submitted`, a port's `opened_at`) read time and never wait
//! for it. A worker reads the clock once per busy stretch, not per task:
//! where a task ends an idle search, and at the first look that finds
//! nothing (its busy and idle time, `sched.rs`); its look at its heap
//! after a task ([`Heap::due`]) reads the heap's clock only while
//! something is armed.
//! `ExtSlot::wait_timeout` and the debug build's sliced
//! `wait_lco` are a driver's OS thread waiting in real time, and a TCP
//! sender blocked on a peer's byte bound waits for room. The TCP loop's
//! `Instant::now` serves real sockets; its queue is a [`Timers`].

use parking_lot::{Condvar, Mutex};
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A deadline queue: the earliest item first, and items due at one
/// instant in the order they were armed.
pub(crate) struct Timers<T> {
    heap: BinaryHeap<Due<T>>,
    armed: u64,
}

/// An armed item, due at `.0`, armed `.1`-th. Ordered by those two alone,
/// and reversed: a `BinaryHeap` pops its greatest.
struct Due<T>(Instant, u64, T);

impl<T> PartialEq for Due<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.0, self.1) == (other.0, other.1)
    }
}
impl<T> Eq for Due<T> {}
impl<T> PartialOrd for Due<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Due<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0, other.1).cmp(&(self.0, self.1))
    }
}

impl<T> Timers<T> {
    pub(crate) fn new() -> Timers<T> {
        let heap = BinaryHeap::new();
        Timers { heap, armed: 0 }
    }

    /// Arm `item` to fall due at `at`.
    pub(crate) fn push(&mut self, at: Instant, item: T) {
        self.armed += 1;
        self.heap.push(Due(at, self.armed, item));
    }

    /// How long a wait at `now` may block: until the earliest item falls
    /// due, or untimed (`None`) with nothing armed.
    pub(crate) fn timeout(&self, now: Instant) -> Option<Duration> {
        let earliest = self.heap.peek()?;
        Some(earliest.0.saturating_duration_since(now))
    }

    /// The earliest item, if it is due by `now`.
    pub(crate) fn pop_due(&mut self, now: Instant) -> Option<T> {
        let earliest = self.heap.peek_mut().filter(|due| due.0 <= now)?;
        Some(PeekMut::pop(earliest).2)
    }

    /// The earliest item, due or not.
    pub(crate) fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|due| due.2)
    }

    /// Disarm every item `keep` refuses.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.heap.retain(|due| keep(&due.2));
    }
}

/// Start worker `w` of locality `l` running `body` (the table in the
/// module docs).
pub(crate) fn spawn(l: usize, w: usize, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    let builder = std::thread::Builder::new().name(format!("px-L{l}-w{w}"));
    builder.spawn(body).expect("spawn a px-core thread")
}

/// What a [`Heap`] keeps time by.
#[derive(Clone)]
pub(crate) enum Clock {
    Real,
    #[cfg(test)]
    Stepped(stepped::Stepper),
}

impl Clock {
    fn now(&self) -> Instant {
        match self {
            Clock::Real => Instant::now(),
            #[cfg(test)]
            Clock::Stepped(clock) => clock.now(),
        }
    }
}

/// What ends a [`Heap::park`] early. Sticky, like an eventfd: a ring
/// before the park makes the park return at once, and until a pass
/// answers it ([`Heap::answer`]) it asks for one ([`Heap::due`]).
#[derive(Default)]
pub(crate) struct Bell {
    rung: Mutex<bool>,
    cv: Condvar,
}

impl Bell {
    pub(crate) fn ring(&self) {
        *self.rung.lock() = true;
        self.cv.notify_one();
    }
}

/// A locality's timers: a [`Timers`] on a [`Clock`] that any thread arms
/// and the holder of the locality's poller fires and parks on.
pub(crate) struct Heap<T> {
    clock: Clock,
    timers: Mutex<Timers<T>>,
    bell: Arc<Bell>,
}

impl<T> Heap<T> {
    pub(crate) fn new(clock: &Clock) -> Heap<T> {
        Heap {
            clock: clock.clone(),
            timers: Mutex::new(Timers::new()),
            bell: Arc::default(),
        }
    }

    /// True when a pass is due: the heap was rung since the last pass
    /// began ([`Heap::ring`]), or its earliest item is due. A busy
    /// worker's look after each task, which never waits for a lock and
    /// reads the clock only when something is armed.
    pub(crate) fn due(&self) -> bool {
        let rung = self.bell.rung.try_lock().is_some_and(|rung| *rung);
        let timers = self.timers.try_lock();
        rung || timers.is_some_and(|t| t.heap.peek().is_some_and(|due| due.0 <= self.now()))
    }

    /// Ask for a pass: end the holder's park, or, with the holder busy,
    /// make its next look ([`Heap::due`]) run one.
    pub(crate) fn ring(&self) {
        self.bell.ring();
    }

    /// A pass begins: it answers every ring so far.
    pub(crate) fn answer(&self) {
        *self.bell.rung.lock() = false;
    }

    /// The heap's clock, read now.
    pub(crate) fn now(&self) -> Instant {
        self.clock.now()
    }

    /// Arm `item` to fall due at `at`. True when it is now the earliest:
    /// a holder parked on a later deadline must look again.
    pub(crate) fn arm(&self, at: Instant, item: T) -> bool {
        let mut timers = self.timers.lock();
        // A wait from `at` is zero long iff something falls due no later.
        let earliest = timers.timeout(at) != Some(Duration::ZERO);
        timers.push(at, item);
        earliest
    }

    /// Every item that is due, earliest first: one look at the clock and
    /// one lock, however many fell due.
    pub(crate) fn take_due(&self) -> Vec<T> {
        let (now, mut timers) = (self.clock.now(), self.timers.lock());
        std::iter::from_fn(|| timers.pop_due(now)).collect()
    }

    /// The earliest item, due or not (shutdown).
    pub(crate) fn pop(&self) -> Option<T> {
        self.timers.lock().pop()
    }

    /// How long the holder may park: until the earliest item falls due,
    /// or untimed with nothing armed.
    pub(crate) fn timeout(&self) -> Option<Duration> {
        self.timers.lock().timeout(self.clock.now())
    }

    /// What ends the park: the in-process poller's waker.
    pub(crate) fn bell(&self) -> Arc<Bell> {
        self.bell.clone()
    }

    /// The holder's timed park: block until the bell rings or the earliest
    /// item falls due. The deadline is read here, after the holder
    /// announced itself (`Sleep::idle_polling`): an item armed earlier is
    /// seen, and one armed later rings.
    pub(crate) fn park(&self) {
        let timeout = self.timeout();
        let mut rung = self.bell.rung.lock();
        if !*rung {
            match timeout {
                Some(wait) => drop(self.bell.cv.wait_for(&mut rung, wait)),
                None => self.bell.cv.wait(&mut rung),
            }
        }
        *rung = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn timers_pop_in_due_order_and_ties_in_push_order() {
        let t0 = Instant::now();
        let mut timers = Timers::new();
        for (at, item) in [(2, 'c'), (1, 'a'), (1, 'b'), (3, 'd')] {
            timers.push(t0 + at * MS, item);
        }
        assert_eq!(timers.timeout(t0), Some(MS));
        assert_eq!(timers.pop_due(t0), None, "nothing due yet");
        timers.retain(|&item| item != 'd');
        let mut popped = Vec::new();
        while let Some(item) = timers.pop_due(t0 + 5 * MS) {
            popped.push(item);
        }
        assert_eq!(popped, ['a', 'b', 'c']);
        assert_eq!(timers.timeout(t0), None, "untimed with nothing armed");
    }

    /// On the stepped clock: an item armed ahead of the earliest says
    /// so; the timeout reads the distance to the earliest, which an
    /// advance makes due ('a') while 'b' is not; a park with an item due
    /// returns at once; and only a ring ends a park with nothing armed.
    #[test]
    fn a_heap_parks_until_due_or_rung() {
        let clock = stepped::Stepper::default();
        let heap = Heap::new(&Clock::Stepped(clock.clone()));
        let t0 = heap.now();
        assert!(heap.arm(t0 + 10 * MS, 'b'), "the first is the earliest");
        assert!(!heap.arm(t0 + 20 * MS, 'c'));
        assert!(heap.arm(t0 + 2 * MS, 'a'), "ahead of the earliest");
        assert!(heap.take_due().is_empty(), "nothing due at the start");
        assert_eq!(heap.timeout(), Some(2 * MS));
        clock.advance(5 * MS);
        assert!(heap.due());
        assert_eq!(heap.take_due(), ['a'], "'a' due, 'b' not");
        assert!(!heap.due());
        assert!(heap.arm(t0, 'z'), "an item already due");
        heap.park();
        assert_eq!(heap.take_due(), ['z']);
        assert_eq!([heap.pop(), heap.pop()], [Some('b'), Some('c')]);
        assert_eq!(heap.timeout(), None, "untimed with nothing armed");
        let bell = heap.bell();
        let ringer = std::thread::spawn(move || bell.ring());
        heap.park();
        ringer.join().unwrap();
    }
}

#[cfg(test)]
pub(crate) mod stepped {
    //! The stepped clock: the test fake that replaces sleeping with
    //! stepping.

    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// A manual clock: time moves only when a test advances it. It counts
    /// its reads, so a test can tell how often a path looks at the time.
    #[derive(Clone)]
    pub(crate) struct Stepper(Arc<(Mutex<Instant>, AtomicU64)>);

    impl Default for Stepper {
        fn default() -> Stepper {
            Stepper(Arc::new((Mutex::new(Instant::now()), AtomicU64::new(0))))
        }
    }

    impl Stepper {
        pub(crate) fn now(&self) -> Instant {
            self.0 .1.fetch_add(1, Ordering::Relaxed);
            *self.0 .0.lock()
        }

        /// How many times the clock has been read ([`Stepper::now`]).
        pub(crate) fn reads(&self) -> u64 {
            self.0 .1.load(Ordering::Relaxed)
        }

        /// Move the clock `by` forward.
        pub(crate) fn advance(&self, by: Duration) {
            *self.0 .0.lock() += by;
        }
    }
}
