//! The in-process transport backend: the seed runtime's wire, unchanged.
//!
//! All localities live in one OS process; "delivery" is a push onto the
//! destination locality's run queue (general, staging, or control),
//! optionally held back by a [`DelayLine`] so the latency/overhead/
//! starvation phenomena of a real interconnect stay measurable. This
//! backend is the behavioral baseline the `Transport` refactor is
//! pinned against: version-1 frames, identical delay arithmetic,
//! identical queue discipline, zero added bytes.
//!
//! With batching on, the line's heap also holds the coalescing ports'
//! deadlines (`super`, Batching): the line is this wire's one clock and
//! one thread, and it blocks while nothing is pending.

use super::delay::{DelayLine, Sink};
use super::{PortSet, Transport, WireModel, WireMsg, FLUSH_INTERVAL};
use crate::gid::LocalityId;
use crate::locality::{Lane, Locality};
use crate::sched::{Task, Work};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// What rides the delay line.
enum Line {
    /// A wire message and its `NetRtt` stamp: taken at submit (`None`
    /// with metrics off), or a pulled frame's oldest record's landing,
    /// as over TCP. One OS process, so one clock.
    Msg {
        msg: WireMsg,
        submitted: Option<Instant>,
    },
    /// A port deadline: ship what the ports toward `dest` still hold of
    /// records that landed by `armed`.
    Hold { dest: LocalityId, armed: Instant },
}

/// Queue-push transport with injectable latency (the default backend).
pub(crate) struct InProcTransport {
    line: DelayLine<Line>,
    /// Sampled once at build (registries are attached pre-share), so the
    /// metrics-off submit path pays a single bool check.
    metrics_on: bool,
    /// The wire's ports, once adopted: pulled at their deadlines.
    ports: Arc<OnceLock<Arc<PortSet>>>,
}

impl InProcTransport {
    /// Build the backend for `localities` under `model`.
    pub(crate) fn new(model: WireModel, localities: Arc<Vec<Arc<Locality>>>) -> InProcTransport {
        let metrics_on = localities.iter().any(|l| l.metrics.is_some());
        let ports = Arc::new(OnceLock::<Arc<PortSet>>::new());
        let adopted = ports.clone();
        let sink: Arc<Sink<Line>> = Arc::new(move |line, later| match line {
            Line::Msg { msg, submitted } => {
                let (dest, lane, task) = match msg {
                    WireMsg::Parcel { dest, lane, bytes } => {
                        (dest, lane, Task::new(Work::ParcelBytes(bytes)))
                    }
                    WireMsg::Frame { dest, lane, bytes } => {
                        (dest, lane, Task::new(Work::ParcelFrame(bytes)))
                    }
                    WireMsg::Task { dest, task } => (dest, Lane::Run, task),
                };
                let loc = &localities[dest.0 as usize];
                loc.metric_elapsed(crate::metrics::Instrument::NetRtt, submitted);
                loc.deliver(lane, task);
            }
            Line::Hold { dest, armed } => {
                let ports = adopted
                    .get()
                    .expect("a deadline is armed by an adopted port");
                let dest_loc = &localities[dest.0 as usize];
                let took_all = ports.pull(dest, dest_loc, Some(armed), |lane, bytes, submitted| {
                    let at = Instant::now() + model.delay_for(bytes.len());
                    let msg = WireMsg::Frame { dest, lane, bytes };
                    later(Line::Msg { msg, submitted }, at);
                });
                if !took_all {
                    // A sender holds a port, perhaps blocked on this
                    // line's full channel: look again once the thread
                    // has drained it.
                    later(Line::Hold { dest, armed }, Instant::now());
                }
            }
        });
        InProcTransport {
            line: DelayLine::with_sink(model, sink),
            metrics_on,
            ports,
        }
    }
}

impl Transport for InProcTransport {
    fn submit(&self, msg: WireMsg, bytes: usize) {
        let submitted = self.metrics_on.then(Instant::now);
        self.line.send(Line::Msg { msg, submitted }, bytes);
    }

    fn adopt_ports(&self, ports: &Arc<PortSet>) -> bool {
        // Batching an instant wire would only add latency: there is no
        // per-message transport cost to amortize, and no thread to keep
        // a port's deadline.
        if self.line.model().is_instant() {
            return false;
        }
        let _ = self.ports.set(ports.clone());
        true
    }

    fn kick(&self, dest: LocalityId) {
        let armed = Instant::now();
        self.line
            .send_at(Line::Hold { dest, armed }, armed + FLUSH_INTERVAL);
    }

    fn shutdown(&mut self) {
        self.line.shutdown();
    }
}
