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
//! With batching on, a kick puts a pull of the coalescing ports on the
//! line, due at once (`super`, Batching): the line's thread pulls at its
//! next pass, as the TCP event loop does at its own. The line is this
//! wire's one thread, and it blocks while nothing is pending.

use super::delay::DelayLine;
use super::{PortSet, Transport, WireModel, WireMsg};
use crate::clock::{Clock, Sink};
use crate::gid::LocalityId;
use crate::locality::{Lane, Locality};
use crate::sched::{Task, Work};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// What rides the delay line.
enum Line {
    /// A wire message and its `NetRtt` stamp: taken at submit (`None`
    /// with metrics off), or a pulled frame's oldest record's landing,
    /// as over TCP. One OS process, so one clock.
    Msg {
        msg: WireMsg,
        submitted: Option<Instant>,
    },
    /// A kick at `kicked`: pull the ports toward `dest` if they still hold
    /// the frame opened by then. A later frame has a kick of its own, so a
    /// pull that waited out a busy port does not chase the sender into it
    /// and ship it one record at a time.
    Pull { dest: LocalityId, kicked: Instant },
}

/// Queue-push transport with injectable latency (the default backend).
pub(crate) struct InProcTransport {
    line: DelayLine<Line>,
    /// Sampled once at build (registries are attached pre-share), so the
    /// metrics-off submit path pays a single bool check.
    metrics_on: bool,
    /// The wire's ports, once adopted: pulled when kicked.
    ports: Arc<OnceLock<Arc<PortSet>>>,
}

impl InProcTransport {
    /// Build the backend for `localities` under `model`, its line on
    /// `clock`.
    pub(crate) fn new(
        model: WireModel,
        localities: Arc<Vec<Arc<Locality>>>,
        clock: &Clock,
    ) -> InProcTransport {
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
            Line::Pull { dest, kicked } => {
                let ports = adopted.get().expect("a kick comes from an adopted port");
                let dest_loc = &localities[dest.0 as usize];
                let took_all =
                    ports.pull(dest, dest_loc, Some(kicked), |lane, bytes, submitted| {
                        let delay = model.delay_for(bytes.len());
                        let msg = WireMsg::Frame { dest, lane, bytes };
                        (later.after)(delay, Line::Msg { msg, submitted });
                    });
                if !took_all {
                    // A sender holds a port, perhaps blocked on this
                    // line's full channel: look again once the thread
                    // has drained it.
                    (later.after)(Duration::ZERO, Line::Pull { dest, kicked });
                }
            }
        });
        InProcTransport {
            line: DelayLine::with_sink(model, sink, clock),
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
        // per-message transport cost to amortize, and no thread to pull.
        if self.line.model().is_instant() {
            return false;
        }
        let _ = self.ports.set(ports.clone());
        true
    }

    fn kick(&self, dest: LocalityId) {
        let kicked = Instant::now();
        self.line
            .send_in(Line::Pull { dest, kicked }, Duration::ZERO);
    }

    fn shutdown(&mut self) {
        self.line.shutdown();
    }
}
