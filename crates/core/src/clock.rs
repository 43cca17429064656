//! The rank's one clock: px-core's seam for timers and threads.
//!
//! [`Timers`] is the one deadline queue; the TCP event loop arms its
//! bootstrap, connect, handshake and drain timers on one. A [`Line`] is a
//! queue fired on a thread of its own: the delay line, and the balancer
//! pulse (one item that re-arms itself). Idle, a line blocks untimed; on
//! shutdown it fires what is left once due, and what its sink schedules
//! meanwhile. [`spawn`] is the one place px-core starts a thread, so the
//! thread set is a table, [`Thread`]:
//!
//! | Thread | Runs | Started by |
//! |---|---|---|
//! | `px-L{l}-w{w}` | worker `w` of locality `l` | `RuntimeBuilder::build`, per worker of an owned locality |
//! | `px-delay-line` | a delay line's [`Line`] | a `DelayLine` with a non-instant model (the in-process wire, px-baseline) |
//! | `px-balancer` | the balancer pulse's [`Line`] | `RuntimeBuilder::build` with a balance config |
//!
//! A TCP rank's workers drive its sockets: that backend starts no thread.
//! In test builds a line can run on a stepped [`Clock`] instead: no
//! thread, and its items fire on the thread that advances the clock.
//!
//! Outside the seam, each for a reason: `queue.rs`'s paced spin is
//! wall-clock by nature, and a stepped run does not spin. Measurement
//! stamps (busy and idle ns in `sched.rs`, metrics and trace stamps,
//! `NetRtt`'s `submitted`, a port's `opened_at` and a kick's stamp) read
//! time and never wait for it. `ExtSlot::wait_timeout` and the debug build's sliced
//! `wait_lco` are a driver's OS thread waiting in real time. The TCP
//! loop's `Instant::now` serves real sockets; its queue is a [`Timers`].

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
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

    /// Disarm every item `keep` refuses.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.heap.retain(|due| keep(&due.2));
    }
}

/// Every thread px-core starts (the table in the module docs).
pub(crate) enum Thread {
    /// Worker `.1` of locality `.0`.
    Worker(usize, usize),
    DelayLine,
    Balancer,
}

/// Start `thread` running `body`.
pub(crate) fn spawn(thread: Thread, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    let name = match thread {
        Thread::Worker(l, w) => format!("px-L{l}-w{w}"),
        Thread::DelayLine => "px-delay-line".into(),
        Thread::Balancer => "px-balancer".into(),
    };
    let builder = std::thread::Builder::new().name(name);
    builder.spawn(body).expect("spawn a px-core thread")
}

/// What a [`Line`] keeps time by.
#[derive(Clone, Default)]
pub(crate) enum Clock {
    #[default]
    Real,
    #[cfg(test)]
    Stepped(stepped::Stepper),
}

/// Where a line hands each item that falls due.
pub(crate) type Sink<T> = dyn Fn(T, &mut Later<'_, T>) + Send + Sync;

/// A sink's hold on its own line: `after` puts an item on it, due after a
/// delay. `closing` is set while the line shuts down: it still fires all
/// it holds, so an item that re-arms itself must stop.
pub(crate) struct Later<'a, T> {
    pub(crate) after: &'a mut dyn FnMut(Duration, T),
    pub(crate) closing: bool,
}

/// A timed line: items go in with a delay and reach the sink once due.
pub(crate) enum Line<T: Send + 'static> {
    /// Everything is due at once: the sender runs the sink.
    Inline(Arc<Sink<T>>),
    /// A [`Timers`] on its own thread, fed through a channel.
    Threaded(Option<SyncSender<(T, Instant)>>, Option<JoinHandle<()>>),
    #[cfg(test)]
    Stepped(Arc<stepped::Heap<T>>),
}

impl<T: Send + 'static> Line<T> {
    /// A line on `clock` delivering into `sink`, run by `thread` unless
    /// the clock is stepped.
    pub(crate) fn new(clock: &Clock, thread: Thread, sink: Arc<Sink<T>>) -> Line<T> {
        match clock {
            Clock::Real => {
                let (tx, rx) = sync_channel(65536);
                let handle = spawn(thread, move || run(&rx, &*sink));
                Line::Threaded(Some(tx), Some(handle))
            }
            #[cfg(test)]
            Clock::Stepped(clock) => Line::Stepped(clock.heap(sink)),
        }
    }

    /// Put `item` on the line, due `delay` from now; a no-op once the
    /// line is shut down (runtime teardown).
    pub(crate) fn send_in(&self, item: T, delay: Duration) {
        match self {
            Line::Inline(sink) => inline(&**sink, item),
            Line::Threaded(Some(tx), _) => {
                let _ = tx.send((item, Instant::now() + delay));
            }
            Line::Threaded(None, _) => {}
            #[cfg(test)]
            Line::Stepped(heap) => heap.send_in(item, delay),
        }
    }

    /// Stop the line, firing what it holds first.
    pub(crate) fn shutdown(&mut self) {
        match self {
            Line::Inline(_) => {}
            Line::Threaded(tx, handle) => {
                *tx = None; // a closed channel starts the thread's flush
                if let Some(handle) = handle.take() {
                    let _ = handle.join();
                }
            }
            #[cfg(test)]
            Line::Stepped(heap) => heap.shutdown(),
        }
    }
}

impl<T: Send + 'static> Drop for Line<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// An inline line's delivery: whatever the sink schedules is due now.
fn inline<T>(sink: &Sink<T>, item: T) {
    let (after, closing) = (&mut |_, item| inline(sink, item), false);
    sink(item, &mut Later { after, closing });
}

/// A threaded line's body.
fn run<T>(rx: &Receiver<(T, Instant)>, sink: &Sink<T>) {
    let (mut timers, mut closing) = (Timers::new(), false);
    loop {
        // Fire what is due. What the sink schedules is stamped after
        // `now`, so it waits for the next pass, after the channel.
        let now = Instant::now();
        while let Some(item) = timers.pop_due(now) {
            let after = &mut |delay, item| timers.push(Instant::now() + delay, item);
            sink(item, &mut Later { after, closing });
        }
        // Wait for the next due item or submission, untimed with nothing
        // pending (idle is quiet). Closing: sleep to the next due item,
        // and exit once none is left.
        let next = match (timers.timeout(Instant::now()), closing) {
            (None, true) => return,
            (Some(wait), true) => {
                std::thread::sleep(wait);
                continue;
            }
            (Some(wait), false) => rx.recv_timeout(wait),
            (None, false) => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match next {
            Ok((item, at)) => {
                timers.push(at, item);
                for (item, at) in rx.try_iter() {
                    timers.push(at, item);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => closing = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

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

    /// On the real clock: an item arrives no earlier than due, and the
    /// shutdown flush runs what the sink schedules while closing.
    #[test]
    fn a_threaded_line_flushes_what_its_sink_schedules_while_closing() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let seen = log.clone();
        let sink: Arc<Sink<(u32, Instant)>> = Arc::new(move |(n, sent), later| {
            seen.lock().push((n, sent.elapsed()));
            if n > 0 {
                (later.after)(MS, (n - 1, Instant::now()));
            }
        });
        let mut line = Line::new(&Clock::Real, Thread::DelayLine, sink);
        line.send_in((3, Instant::now()), 2 * MS);
        line.shutdown();
        let log = log.lock();
        let order: Vec<u32> = log.iter().map(|&(n, _)| n).collect();
        assert_eq!(order, [3, 2, 1, 0]);
        assert!(log[0].1 >= 2 * MS && log[1..].iter().all(|&(_, d)| d >= MS));
    }
}

#[cfg(test)]
pub(crate) mod stepped {
    //! The stepped clock: the test fake that replaces sleeping with
    //! stepping.

    use super::{Later, Sink, Timers};
    use parking_lot::Mutex;
    use std::sync::{Arc, Weak};
    use std::time::{Duration, Instant};

    /// A manual clock. Time moves only when a test advances it, and the
    /// items of every line on it fire on the advancing thread, in due
    /// order, with the clock reading each one's due instant.
    #[derive(Clone)]
    pub(crate) struct Stepper(Arc<Mutex<(Instant, Lines)>>);

    type Lines = Vec<Weak<dyn Fire>>;

    /// A stepped line, as its clock sees it.
    trait Fire: Send + Sync {
        fn next_due(&self) -> Option<Instant>;
        /// Fire every item due by `now`.
        fn fire(&self, now: Instant);
    }

    impl Default for Stepper {
        fn default() -> Stepper {
            Stepper(Arc::new(Mutex::new((Instant::now(), Vec::new()))))
        }
    }

    impl Stepper {
        pub(crate) fn now(&self) -> Instant {
            self.0.lock().0
        }

        /// Move the clock `by` forward, firing every item that falls due
        /// on the way (what fired items schedule included) at its instant.
        pub(crate) fn advance(&self, by: Duration) {
            let to = self.now() + by;
            while let Some((at, line)) = self.earliest().filter(|&(at, _)| at <= to) {
                self.0.lock().0 = at;
                line.fire(at);
            }
            self.0.lock().0 = to;
        }

        fn earliest(&self) -> Option<(Instant, Arc<dyn Fire>)> {
            let lines: Vec<_> = self.0.lock().1.iter().filter_map(Weak::upgrade).collect();
            let armed = lines.into_iter().filter_map(|l| Some((l.next_due()?, l)));
            armed.min_by_key(|&(at, _)| at)
        }

        pub(super) fn heap<T: Send + 'static>(&self, sink: Arc<Sink<T>>) -> Arc<Heap<T>> {
            let timers = Mutex::new((Timers::new(), false));
            let heap = Arc::new(Heap {
                clock: self.clone(),
                timers,
                sink,
            });
            self.0.lock().1.push(Arc::downgrade(&heap) as Weak<Heap<T>>);
            heap
        }
    }

    /// A stepped line: a [`Timers`] (and whether it is closing) that its
    /// clock fires.
    pub(crate) struct Heap<T> {
        clock: Stepper,
        timers: Mutex<(Timers<T>, bool)>,
        sink: Arc<Sink<T>>,
    }

    impl<T: Send + 'static> Heap<T> {
        pub(super) fn send_in(&self, item: T, delay: Duration) {
            let at = self.clock.now() + delay;
            let mut timers = self.timers.lock();
            if !timers.1 {
                timers.0.push(at, item);
            }
        }

        /// Fire everything left, each item at its due instant (the clock
        /// moves there), and what the sink schedules meanwhile.
        pub(super) fn shutdown(&self) {
            self.timers.lock().1 = true;
            while let Some(at) = self.next_due() {
                let now = self.clock.now().max(at);
                self.clock.0.lock().0 = now;
                self.fire(now);
            }
        }
    }

    impl<T: Send + 'static> Fire for Heap<T> {
        fn next_due(&self) -> Option<Instant> {
            self.timers.lock().0.heap.peek().map(|due| due.0)
        }

        fn fire(&self, now: Instant) {
            loop {
                // Not locked while the sink runs: it may send on this line.
                let (item, closing) = {
                    let mut timers = self.timers.lock();
                    (timers.0.pop_due(now), timers.1)
                };
                let Some(item) = item else { return };
                let after = &mut |delay, item| self.timers.lock().0.push(now + delay, item);
                (self.sink)(item, &mut Later { after, closing });
            }
        }
    }
}
