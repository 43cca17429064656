//! The in-process transport backend: the seed runtime's wire, unchanged.
//!
//! All localities live in one OS process; "delivery" is a push onto the
//! destination locality's run queue (general, staging, or control),
//! optionally held back by a [`DelayLine`] so the latency/overhead/
//! starvation phenomena of a real interconnect stay measurable. This
//! backend is the behavioral baseline the `Transport` refactor is
//! pinned against: version-1 frames, identical delay arithmetic,
//! identical queue discipline, zero added bytes.

use super::delay::DelayLine;
use super::{Transport, TransportSubmitter, WireModel, WireMsg};
use crate::locality::Locality;
use crate::sched::Task;
use std::sync::Arc;

/// A wire message plus its submit-time stamp for the `NetRtt`
/// instrument (`None` when metrics are off). All localities share one
/// OS process here, so the stamp never leaves the clock it was taken
/// on even though it rides through the delay thread.
struct Stamped {
    msg: WireMsg,
    submitted: Option<std::time::Instant>,
}

/// Queue-push transport with injectable latency (the default backend).
pub(crate) struct InProcTransport {
    line: DelayLine<Stamped>,
    /// Sampled once at build (registries are attached pre-share), so the
    /// metrics-off submit path pays a single bool check.
    metrics_on: bool,
}

impl InProcTransport {
    /// Build the backend for `localities` under `model`.
    pub(crate) fn new(model: WireModel, localities: Arc<Vec<Arc<Locality>>>) -> InProcTransport {
        let metrics_on = localities.iter().any(|l| l.metrics.is_some());
        let sink: Arc<dyn Fn(Stamped) + Send + Sync> = Arc::new(move |s| {
            let Stamped { msg, submitted } = s;
            match msg {
                WireMsg::Parcel {
                    dest,
                    staged,
                    bytes,
                } => {
                    let loc = &localities[dest.0 as usize];
                    loc.metric_elapsed(crate::metrics::Instrument::NetRtt, submitted);
                    let task = Task::parcel_bytes(bytes);
                    if staged {
                        loc.push_staged(task);
                    } else {
                        loc.push_task(task);
                    }
                }
                WireMsg::Frame {
                    dest,
                    staged,
                    bytes,
                } => {
                    let loc = &localities[dest.0 as usize];
                    loc.metric_elapsed(crate::metrics::Instrument::NetRtt, submitted);
                    let task = Task::parcel_frame(bytes);
                    if staged {
                        loc.push_staged(task);
                    } else {
                        loc.push_task(task);
                    }
                }
                WireMsg::Task { dest, task } => {
                    let loc = &localities[dest.0 as usize];
                    loc.metric_elapsed(crate::metrics::Instrument::NetRtt, submitted);
                    loc.push_task(task);
                }
                WireMsg::Control { dest, bytes } => {
                    let loc = &localities[dest.0 as usize];
                    loc.metric_elapsed(crate::metrics::Instrument::NetRtt, submitted);
                    loc.push_control(Task::parcel_bytes(bytes));
                }
            }
        });
        InProcTransport {
            line: DelayLine::new(model, sink),
            metrics_on,
        }
    }

    #[inline]
    fn stamp(metrics_on: bool) -> Option<std::time::Instant> {
        metrics_on.then(std::time::Instant::now)
    }
}

impl Transport for InProcTransport {
    fn submit(&self, msg: WireMsg, bytes: usize) {
        let submitted = Self::stamp(self.metrics_on);
        self.line.send(Stamped { msg, submitted }, bytes);
    }

    fn submitter(&self) -> TransportSubmitter {
        // Bind directly to the delay thread (or the inline sink on an
        // instant model) so the flusher shares the line's delay
        // arithmetic. The `LineSender` keeps the delay channel open; the
        // wire joins the flusher — the only holder — before `shutdown`.
        let metrics_on = self.metrics_on;
        match self.line.sender() {
            Some(sender) => Arc::new(move |msg, bytes| {
                let submitted = Self::stamp(metrics_on);
                sender.send(Stamped { msg, submitted }, bytes)
            }) as TransportSubmitter,
            None => {
                let sink = self.line.sink();
                Arc::new(move |msg, _bytes| {
                    let submitted = Self::stamp(metrics_on);
                    sink(Stamped { msg, submitted })
                }) as TransportSubmitter
            }
        }
    }

    fn supports_batching(&self) -> bool {
        // Batching an instant wire would only add latency (there is no
        // per-message transport cost to amortize, and no delay thread to
        // ride); the policy check upstream keeps the pre-refactor gating.
        !self.line.model().is_instant()
    }

    fn shutdown(&mut self) {
        self.line.shutdown();
    }
}
