//! The rule set. Each module exposes `check(...)` pushing [`Finding`]s;
//! see the crate docs for the invariant each rule guards.
//!
//! [`Finding`]: crate::Finding

pub mod allow_syntax;
pub mod atomic_ordering;
pub mod lock_order;
pub mod silent_loss;
