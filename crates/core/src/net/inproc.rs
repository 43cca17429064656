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
use super::{FlushCause, PortSet, Transport, WireModel, WireMsg};
use crate::locality::{Lane, Locality};
use crate::sched::{Task, Work};
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
            let (dest, lane, task) = match s.msg {
                WireMsg::Parcel { dest, lane, bytes } => {
                    (dest, lane, Task::new(Work::ParcelBytes(bytes)))
                }
                WireMsg::Frame { dest, lane, bytes } => {
                    (dest, lane, Task::new(Work::ParcelFrame(bytes)))
                }
                WireMsg::Task { dest, task } => (dest, Lane::Run, task),
            };
            let loc = &localities[dest.0 as usize];
            loc.metric_elapsed(crate::metrics::Instrument::NetRtt, s.submitted);
            loc.deliver(lane, task);
        });
        InProcTransport {
            line: DelayLine::new(model, sink),
            metrics_on,
        }
    }
}

impl Transport for InProcTransport {
    fn submit(&self, msg: WireMsg, bytes: usize) {
        let submitted = self.metrics_on.then(std::time::Instant::now);
        self.line.send(Stamped { msg, submitted }, bytes);
    }

    fn adopt_ports(&self, _ports: &Arc<PortSet>) -> Option<FlushCause> {
        // Batching an instant wire would only add latency (there is no
        // per-message transport cost to amortize, and no delay thread to
        // ride). A delay line has no thread that could pull the ports
        // either: the wire's timer flusher ships what does not fill.
        (!self.line.model().is_instant()).then_some(FlushCause::Timer)
    }

    fn shutdown(&mut self) {
        self.line.shutdown();
    }
}
