//! # px-core — the ParalleX execution model
//!
//! This crate implements the eight principal semantic elements of ParalleX
//! as described in §2.2 of *ParalleX: A Study of A New Parallel Computation
//! Model* (IPPS 2007):
//!
//! | Element | Where |
//! |---|---|
//! | **Localities** — synchronous domains with compound atomic operations | [`locality`] |
//! | **Global name space** — first-class named data *and* actions | [`gid`], [`agas`] |
//! | **Multithreading** — ephemeral PX-threads; suspend→LCO, terminate→parcel | [`ctx::Ctx`], [`sched`] |
//! | **Parcels** — message-driven computation with continuation specifiers | [`parcel`], [`net`] |
//! | **Local Control Objects** — futures, dataflow, gates, depleted threads | [`lco`] |
//! | **Percolation** — prestaging work+data at precious resources | [`percolation`] |
//! | **Echo** — split-phase copy semantics without global cache coherence | [`echo`] |
//! | **Parallel processes** — processes spanning localities, quiescence | [`process`] |
//!
//! Every client call is made *from somewhere*: [`origin::Origin`] — the
//! runtime, an owned locality, the owning process, the trace — is the
//! one implementation behind the driver's [`runtime::Runtime`] and the
//! thread's [`ctx::Ctx`]; [`config::Config`] is what a builder boots.
//!
//! The runtime maps each *locality* onto a private object store plus a pool
//! of worker OS threads; localities interact **only** through parcels
//! carried by a wire layer with injectable latency and bandwidth, so the
//! latency/overhead/starvation phenomena the paper discusses are directly
//! measurable on commodity hardware.
//!
//! ## Quick start
//!
//! ```
//! use px_core::prelude::*;
//!
//! // An action: the unit of work a parcel applies to a target object.
//! struct Square;
//! impl Action for Square {
//!     const NAME: &'static str = "examples/square";
//!     type Args = u64;
//!     type Out = u64;
//!     fn execute(_ctx: &mut Ctx<'_>, _target: Gid, n: u64) -> u64 { n * n }
//! }
//!
//! let rt = RuntimeBuilder::new(Config::small(2, 1))
//!     .register::<Square>()
//!     .build()
//!     .unwrap();
//!
//! // Create a future LCO, send a parcel whose continuation fills it.
//! let fut = rt.new_future::<u64>(LocalityId(1));
//! rt.send_action::<Square>(Gid::locality_root(LocalityId(1)), 12,
//!                          Continuation::set(fut.gid()));
//! assert_eq!(fut.wait(&rt).unwrap(), 144);
//! rt.shutdown();
//! ```
//!
//! PX-threads never block: remote interaction is split-phase. A thread that
//! needs a remote value either *terminates* into a parcel (work moves to
//! data) or *suspends* by depositing its continuation in an LCO (a
//! "depleted thread" in the paper's terminology).

// `queue` — the lock-free worker rings — is the one module that opts
// back in (`allow(unsafe_code)` at its top); everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod agas;
pub(crate) mod balance;
pub(crate) mod clock;
pub mod config;
pub mod ctx;
pub mod echo;
pub mod error;
pub mod fxmap;
pub mod gid;
pub mod lco;
pub mod locality;
pub mod metrics;
pub mod net;
pub mod origin;
pub mod parcel;
pub mod percolation;
pub mod process;
pub(crate) mod queue;
pub mod runtime;
pub mod sched;
pub mod stats;
pub mod sys;
pub mod trace;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::action::{Action, ActionId, Value};
    pub use crate::error::{Fault, FaultCause, PxError, PxResult};
    pub use crate::gid::{Gid, GidKind, LocalityId};
    pub use crate::lco::FutureRef;
    pub use crate::metrics::{ClusterMetrics, Instrument, MetricsSnapshot};
    pub use crate::net::{TcpConfig, WireModel};
    pub use crate::parcel::{Continuation, Parcel};
    pub use crate::process::ProcessRef;
    pub use crate::runtime::{Config, Ctx, DeadLetterHook, Runtime, RuntimeBuilder, TransportKind};
    pub use crate::stats::StatsSnapshot;
    pub use crate::trace::{TraceConfig, TraceDump, TraceEvent, TraceEventKind};
    pub use px_balance::{BalanceConfig, BalancePolicy};
}

pub use action::{Action, ActionId, Value};
pub use error::{Fault, FaultCause, PxError, PxResult};
pub use gid::{Gid, GidKind, LocalityId};
pub use lco::FutureRef;
pub use net::{TcpConfig, WireModel};
pub use parcel::{Continuation, Parcel};
pub use runtime::{Config, Ctx, DeadLetterHook, Runtime, RuntimeBuilder, TransportKind};
