//! # px-baseline — the "communicating sequential processes" comparator
//!
//! The ParalleX paper positions the model against "the communication
//! sequential process or more commonly the 'message passing model'
//! represented by various implementations of MPI" (§1). To measure the
//! claims, this crate implements that world faithfully enough to hurt:
//!
//! * [`csp`] — ranks as sequential OS threads with **blocking** two-sided
//!   `send`/`recv` (eager-buffered, MPI style), tag matching, and a
//!   message-based **global barrier** (gather-to-root + broadcast, paying
//!   full wire latency both ways).
//! * [`bsp`] — bulk-synchronous supersteps and collectives (reduce /
//!   allreduce) built on [`csp`].
//! * An RDMA-style **remote store** (`get`/`put`) whose responder costs
//!   the *owner* no compute — deliberately generous to the baseline, so
//!   the latency-hiding wins measured for ParalleX are conservative.
//!
//! Crucially, every message pays the same [`WireModel`] arithmetic as the
//! ParalleX runtime's in-process wire: it is stamped due `latency +
//! bytes·per_byte` after its send, and the receiving mailbox holds it
//! until then. The experiments compare execution models, not transport
//! implementations.
//!
//! ```
//! use px_baseline::csp::World;
//! use px_core::net::WireModel;
//!
//! let results = World::run(4, WireModel::instant(), |mut rank| {
//!     // Ring: everyone sends its id right, receives from the left.
//!     let n = rank.world_size();
//!     let right = (rank.id() + 1) % n;
//!     rank.send_t(right, 0, &(rank.id() as u64)).unwrap();
//!     let (_, left_id): (usize, u64) = rank.recv_t(None, 0).unwrap();
//!     left_id
//! });
//! assert_eq!(results, vec![3, 0, 1, 2]);
//! ```

#![warn(missing_docs)]

pub mod bsp;
pub mod csp;

pub use px_core::net::WireModel;
