//! # px-sim — deterministic discrete-event simulation substrate
//!
//! The Gilgamesh II architecture study (§3 of the ParalleX paper) and the
//! Data Vortex interconnect are evaluated on a simulator rather than the
//! authors' hypothetical 2020-era silicon. This crate is that simulator
//! substrate: a classic event-calendar discrete-event core with
//!
//! * a total event order `(time, sequence)` → bit-identical reruns for a
//!   given seed,
//! * components addressed by [`CompId`] exchanging user-defined event
//!   payloads,
//! * a log-bucketed latency [`Histogram`] shared by the architecture
//!   experiments.
//!
//! ```
//! use px_sim::{Component, SimCtx, Simulator};
//!
//! struct Ping { left: u32, peer: px_sim::CompId }
//!
//! impl Component<u64> for Ping {
//!     fn handle(&mut self, token: u64, ctx: &mut SimCtx<'_, u64>) {
//!         if self.left > 0 {
//!             self.left -= 1;
//!             ctx.send_after(10, self.peer, token + 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(42);
//! let a = sim.add(Ping { left: 3, peer: px_sim::CompId(1) });
//! let b = sim.add(Ping { left: 3, peer: px_sim::CompId(0) });
//! assert_eq!(a, px_sim::CompId(0));
//! assert_eq!(b, px_sim::CompId(1));
//! sim.send_at(0, a, 0u64);
//! sim.run();
//! assert_eq!(sim.now(), 60); // 6 hops of 10 ticks
//! ```

#![warn(missing_docs)]

mod hist;
mod queue;
mod sim;

pub use hist::Histogram;
pub use queue::{EventQueue, QueuedEvent};
pub use sim::{CompId, Component, SimCtx, Simulator};

/// Simulated time in ticks. The architecture models interpret one tick as
/// one clock cycle of the modeled part.
pub type Time = u64;
