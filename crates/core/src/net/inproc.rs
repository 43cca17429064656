//! The in-process transport backend: every locality in one OS process.
//!
//! "Delivery" is a push onto the destination locality's run queue
//! (general, staging, or control). On a non-instant [`WireModel`] a
//! message is first put on the destination's timer heap
//! (`Locality::timers`), due after `delay_for` its size — a frame's
//! length, a task's nominal [`super::TASK_BYTES`] — so the
//! latency/overhead/starvation phenomena of a real interconnect stay
//! measurable; the holder of that locality's poller — one of its own
//! workers — queues it once due, as the TCP event loop queues what it
//! reads. Parcels cross as version-1 frames (no integrity trailer: the
//! bytes never leave the process), a parcel sent alone as a frame of
//! one, which costs it 9 bytes of framing and one frame parse at the
//! destination.
//!
//! With batching on, a destination's pass also pulls the ports toward it
//! (`super`, Batching) and puts each frame on its own heap, due after the
//! frame's delay; a record landing in an empty port rings that heap, so
//! the pass comes at once, or after the running task on a busy
//! destination. The wire starts no thread, and an idle locality's holder
//! parks untimed while its heap is empty.

use super::{Park, PortSet, Transport, WireModel, WireMsg, TASK_BYTES};
use crate::gid::LocalityId;
use crate::locality::{Lane, Locality};
use crate::sched::{Task, Work};
use std::sync::Arc;
use std::time::Instant;

/// Queue-push transport with injectable latency (the default backend).
pub(crate) struct InProcTransport {
    model: WireModel,
    localities: Arc<Vec<Arc<Locality>>>,
    /// The wire's ports, when it batches: pulled by each destination's
    /// pass.
    ports: Option<Arc<PortSet>>,
    /// Sampled once at build (registries are attached pre-share), so the
    /// metrics-off submit path pays a single bool check.
    metrics_on: bool,
}

impl InProcTransport {
    /// Build the backend for `localities` under `model`, pulling `ports`.
    pub(crate) fn new(
        model: WireModel,
        localities: Arc<Vec<Arc<Locality>>>,
        ports: Option<Arc<PortSet>>,
    ) -> InProcTransport {
        let metrics_on = localities.iter().any(|l| l.metrics.is_some());
        InProcTransport {
            model,
            localities,
            ports,
            metrics_on,
        }
    }
}

impl Transport for InProcTransport {
    fn submit(&self, msg: WireMsg) {
        let submitted = self.metrics_on.then(Instant::now);
        let (dest, lane, task, bytes) = match msg {
            WireMsg::Frame { dest, lane, bytes } => {
                let n = bytes.len();
                (dest, lane, Task::new(Work::ParcelFrame(bytes)), n)
            }
            WireMsg::Task { dest, task } => (dest, Lane::Run, task, TASK_BYTES),
        };
        let loc = &self.localities[dest.0 as usize];
        if self.model.is_instant() {
            loc.arrive(lane, task, submitted);
        } else {
            let at = loc.timers.now() + self.model.delay_for(bytes);
            loc.arm(at, lane, task, submitted);
        }
    }

    fn drive(&self, at: LocalityId, park: Option<Park<'_>>) -> bool {
        let loc = &self.localities[at.0 as usize];
        let Some(_held) = loc.sleep.try_poll() else {
            return false;
        };
        // The ports toward here, after answering the rings that asked for
        // this pass: each frame goes on this heap, due after its delay,
        // timed from its oldest record. No kick: the holder reads its
        // deadline when it parks.
        loc.timers.answer();
        let pulled_all = self.ports.as_ref().is_none_or(|ports| {
            ports.pull(at, loc, |lane, bytes, opened_at| {
                let at = loc.timers.now() + self.model.delay_for(bytes.len());
                let frame = Task::new(Work::ParcelFrame(bytes));
                loc.timers.arm(at, (lane, frame, opened_at));
            })
        });
        loc.fire_due();
        // A sender held a port: no park, come straight back for what it
        // leaves there.
        if let Some(park) = park.filter(|_| pulled_all) {
            park(&mut || loc.timers.park());
        }
        true
    }

    fn shutdown(&mut self) {
        // Queue what is still on the wire: the workers have exited, so it
        // is abandoned with the queues (contract point 4).
        for loc in self.localities.iter() {
            while let Some((lane, task, _)) = loc.timers.pop() {
                loc.deliver(lane, task);
            }
        }
    }
}
