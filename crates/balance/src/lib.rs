//! # px-balance — adaptive cross-locality load balancing
//!
//! The ParalleX paper's answer to starvation (§2.1) is message-driven
//! rebalancing rather than global barriers. §2.2: "Threads can suspend or
//! terminate when a remote access is required. If suspending, a local
//! control object is created from its state. If terminating, a parcel is
//! constructed and dispatched to the destination remote data where a new
//! thread is invoked thus moving the work, in essence, to the data." And:
//! "Message-driven computing through parcels allows physical resources
//! (execution locality) to operate via a work queue model."
//!
//! Moving the work to the data is the *default* direction. This crate
//! supplies the runtime-directed half the model implies but the seed
//! runtime left manual: deciding **when work should chase data, when hot
//! data should instead migrate toward its callers, and when an overloaded
//! locality should shed queued work** to a starving peer. It is pure
//! policy and accounting — no runtime dependency — so every decision is
//! unit-testable with plain numbers; `px-core` owns the wiring (gossip
//! parcels, AGAS heat hooks, the balancer pulse).
//!
//! Three pieces:
//!
//! * [`LoadMonitor`] — a cheap sliding window over per-locality
//!   [`LoadSample`]s (queued work, staging backlog) reduced to a
//!   comparable load [`LoadMonitor::score`].
//! * [`PeerView`] — what one locality believes about every other
//!   locality's load, updated by gossip: each round a locality sends its
//!   whole view to one rotating peer, and freshness is arbitrated by round
//!   number. No global barrier, no central coordinator.
//! * [`BalancePolicy`] — the decision: [`BalancePolicy::WorkToData`],
//!   [`BalancePolicy::DataToWork`] or [`BalancePolicy::Adaptive`],
//!   configured through [`BalanceConfig`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod monitor;
pub mod policy;
pub mod view;

pub use monitor::{LoadMonitor, LoadSample, MONITOR_WINDOW};
pub use policy::{BalanceConfig, BalancePolicy, PlacementQuery, ShedQuery, SHED_RATIO};
pub use view::{decode_gossip, GossipEntry, PeerView};
