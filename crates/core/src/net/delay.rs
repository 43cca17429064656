//! The software delay line: injectable latency/bandwidth for transports
//! whose "network" is a queue push in the same address space.
//!
//! On one host we *inject* the interconnect latency of the paper's
//! machines (§2.1 "latency … to access remote data or services"): each
//! cross-locality message waits on a [`DelayLine`] until `latency +
//! bytes·per_byte` has passed, on the line's own thread — a `clock::Line`,
//! which blocks while nothing is pending. With an instant model the
//! sender runs the sink inline and no thread is spawned. [`DelayLine`] is
//! public so px-baseline routes its messages through the *identical*
//! mechanism: the experiments compare execution models, not transports.

use super::WireModel;
use crate::clock::{Clock, Line, Sink, Thread};
use std::sync::Arc;
use std::time::Duration;

/// A generic software delay line: a message submitted with a byte size
/// reaches the sink after `model.delay_for(bytes)`. On shutdown (or drop)
/// pending messages are flushed after their remaining delay.
pub struct DelayLine<T: Send + 'static> {
    model: WireModel,
    line: Line<T>,
}

impl<T: Send + 'static> std::fmt::Debug for DelayLine<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DelayLine")
            .field("model", &self.model)
            .finish()
    }
}

impl<T: Send + 'static> DelayLine<T> {
    /// Build a delay line delivering into `sink`.
    pub fn new(model: WireModel, sink: Arc<dyn Fn(T) + Send + Sync + 'static>) -> DelayLine<T> {
        DelayLine::with_sink(model, Arc::new(move |msg, _| sink(msg)), &Clock::Real)
    }

    /// Build a delay line on `clock` whose sink may schedule more messages
    /// on the line (the in-process wire's port pulls).
    pub(crate) fn with_sink(model: WireModel, sink: Arc<Sink<T>>, clock: &Clock) -> DelayLine<T> {
        let line = if model.is_instant() {
            Line::Inline(sink)
        } else {
            Line::new(clock, Thread::DelayLine, sink)
        };
        DelayLine { model, line }
    }

    /// Submit a message of logical size `bytes`.
    pub fn send(&self, msg: T, bytes: usize) {
        self.send_in(msg, self.model.delay_for(bytes));
    }

    /// Put `msg` on the line, due `delay` from now. Simultaneous messages
    /// are unordered, like a real network.
    pub(crate) fn send_in(&self, msg: T, delay: Duration) {
        self.line.send_in(msg, delay);
    }

    /// The active model.
    pub fn model(&self) -> WireModel {
        self.model
    }

    /// Stop the thread, flushing pending messages first.
    pub fn shutdown(&mut self) {
        self.line.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::stepped::Stepper;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn instant_line_delivers_inline() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        let line: DelayLine<u32> = DelayLine::new(
            WireModel::instant(),
            Arc::new(move |_| {
                h.fetch_add(1, Ordering::SeqCst);
            }),
        );
        line.send(1, 100);
        assert_eq!(hits.load(Ordering::SeqCst), 1, "inline delivery expected");
    }

    type Log = Arc<Mutex<Vec<(u32, Instant)>>>;

    /// A line on a stepped clock, and the log of what reached its sink
    /// with the clock's reading at arrival.
    fn stepped(model: WireModel) -> (Stepper, DelayLine<u32>, Log) {
        let clock = Stepper::default();
        let log = Log::default();
        let (seen, reading) = (log.clone(), clock.clone());
        let sink: Arc<Sink<u32>> = Arc::new(move |v, _| seen.lock().push((v, reading.now())));
        let line = DelayLine::with_sink(model, sink, &Clock::Stepped(clock.clone()));
        (clock, line, log)
    }

    #[test]
    fn delayed_line_holds_messages() {
        let latency = 30 * MS;
        let (clock, line, log) = stepped(WireModel::with_latency(latency));
        let t0 = clock.now();
        line.send(7, 0);
        clock.advance(latency - Duration::from_nanos(1));
        assert!(log.lock().is_empty(), "must not arrive before its delay");
        clock.advance(Duration::from_nanos(1));
        assert_eq!(*log.lock(), [(7, t0 + latency)]);
    }

    #[test]
    fn bandwidth_cost_scales_with_bytes() {
        let (clock, line, log) = stepped(WireModel {
            latency: Duration::ZERO,
            ns_per_byte: 20_000, // 20 µs per byte — exaggerated for test
        });
        let t0 = clock.now();
        line.send(1, 1000); // 20 ms
        line.send(2, 10); // 200 µs: the small message overtakes
        clock.advance(20 * MS);
        let small = t0 + Duration::from_micros(200);
        assert_eq!(*log.lock(), [(2, small), (1, t0 + 20 * MS)]);
    }

    #[test]
    fn shutdown_flushes_pending() {
        let (clock, mut line, log) = stepped(WireModel::with_latency(10 * MS));
        let t0 = clock.now();
        line.send(1, 0);
        line.shutdown();
        assert_eq!(*log.lock(), [(1, t0 + 10 * MS)], "flushed when due");
    }

    #[test]
    fn ordering_preserved_for_equal_delays() {
        let (_clock, mut line, log) = stepped(WireModel::with_latency(5 * MS));
        for i in 0..50 {
            line.send(i, 0);
        }
        line.shutdown();
        // Same-latency messages submitted in order arrive in order: the
        // `(time, seq)` queue breaks ties by submission. Frames inherit
        // this discipline; records within a frame are strictly ordered.
        let order: Vec<u32> = log.lock().iter().map(|&(v, _)| v).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }
}
