//! Error type for runtime operations, and the first-class fault value
//! that carries a parcel's cause of death along its continuation chain.

use crate::action::ActionId;
use crate::gid::Gid;
use crate::stats::{bump, LocalityCounters, LocalityStats};
use std::fmt;

/// Result alias for runtime operations.
pub type PxResult<T> = Result<T, PxError>;

/// The one definition of the fault causes. Each row — variant, stable
/// wire code (see [`px_wire::WireFault::cause`]), `Display` text, by-cause
/// death counter — expands to the [`FaultCause`] enum, `ALL`, `code`,
/// `from_code`, `Display`, `LocalityCounters::count_death` and
/// [`LocalityStats::deaths_by_cause_total`]: a new kill path is one row
/// here plus its counter's row in the `counters!` table.
macro_rules! fault_causes {
    ($($(#[$doc:meta])* $variant:ident = $code:literal, $text:literal, $counter:ident;)*) => {
        /// Why a parcel (or an LCO it was feeding) died. The kill paths of
        /// the scheduler, mirrored one-to-one by the by-cause dead-parcel
        /// counters in [`LocalityStats`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum FaultCause {
            $($(#[$doc])* $variant,)*
        }

        impl FaultCause {
            /// Every cause, in wire-code order.
            pub const ALL: [FaultCause; [$($code),*].len()] = [$(FaultCause::$variant),*];

            /// Stable wire code (see [`px_wire::WireFault::cause`]).
            pub fn code(self) -> u8 {
                match self {
                    $(FaultCause::$variant => $code,)*
                }
            }

            /// Decode a wire code; unknown codes (newer peer) map to
            /// [`FaultCause::HandlerError`], the most generic cause.
            pub fn from_code(code: u8) -> FaultCause {
                match code {
                    $($code => FaultCause::$variant,)*
                    _ => FaultCause::HandlerError,
                }
            }
        }

        impl fmt::Display for FaultCause {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(match self {
                    $(FaultCause::$variant => $text,)*
                })
            }
        }

        impl LocalityCounters {
            /// Count `n` parcel deaths: the total plus the by-cause
            /// counter (mirroring the AGAS migrations-by-cause breakdown).
            pub(crate) fn count_death(&self, cause: FaultCause, n: u64) {
                bump!(self.dead_parcels, n);
                match cause {
                    $(FaultCause::$variant => bump!(self.$counter, n),)*
                }
            }
        }

        impl LocalityStats {
            /// Parcel deaths summed over the by-cause counters. Always
            /// equals [`LocalityStats::dead_parcels`] (the invariant
            /// tested in the fault integration suite).
            pub fn deaths_by_cause_total(&self) -> u64 {
                0 $(+ self.$counter)*
            }
        }
    };
}

fault_causes! {
    /// The forwarding hop budget was exhausted chasing an object through
    /// a migration storm.
    HopCap = 0, "hop-cap exhausted", dead_hop_cap;
    /// The parcel named an action absent from the registry.
    UnknownAction = 1, "unknown action", dead_unknown_action;
    /// The action handler (user or system) returned an error — including
    /// LCO protocol violations such as double-triggering a future.
    HandlerError = 2, "handler error", dead_handler_error;
    /// The action handler panicked (the worker survived; the panic
    /// message rides in the fault).
    Panic = 3, "panicked action", dead_panic;
    /// The parcel payload (or frame record) could not be decoded.
    Decode = 4, "undecodable payload", dead_decode;
    /// The parcel's owning parallel process was cancelled: the parcel was
    /// killed at dispatch (or an LCO it fed was poisoned) by
    /// [`crate::process::ProcessRef::cancel`].
    Cancelled = 5, "process cancelled", dead_cancelled;
    /// The transport could not deliver: the peer's connection dropped (or
    /// a closure task was addressed to a locality owned by another OS
    /// process). Raised by the TCP backend so waiters on the lost work
    /// resolve instead of hanging.
    Transport = 6, "transport failure", dead_transport;
}

/// A first-class failure value: created where a parcel dies, delivered
/// along its continuation chain (poisoning LCOs it would have fed), and
/// ultimately surfaced to waiters as [`PxError::Fault`].
///
/// Faults are wire-encodable ([`px_wire::WireFault`] fixes the byte
/// layout) so a continuation on another locality still learns of the
/// death.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// What killed the parcel.
    pub cause: FaultCause,
    /// Action the dying parcel carried (`ActionId(0)` when the fault did
    /// not originate from an action dispatch).
    pub action: ActionId,
    /// Destination object of the dying parcel.
    pub dest: Gid,
    /// Human-readable description (panic message, error display, …).
    pub message: String,
}

impl Fault {
    /// Build a fault for a parcel addressed to `dest` carrying `action`.
    pub fn new(
        cause: FaultCause,
        action: ActionId,
        dest: Gid,
        message: impl Into<String>,
    ) -> Fault {
        Fault {
            cause,
            action,
            dest,
            message: message.into(),
        }
    }

    /// Convert to the wire schema.
    pub fn to_wire(&self) -> px_wire::WireFault {
        px_wire::WireFault {
            cause: self.cause.code(),
            action: self.action.0,
            dest: self.dest.0,
            message: self.message.clone(),
        }
    }

    /// Convert from the wire schema.
    pub fn from_wire(w: &px_wire::WireFault) -> Fault {
        Fault {
            cause: FaultCause::from_code(w.cause),
            action: ActionId(w.action),
            dest: Gid(w.dest),
            message: w.message.clone(),
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.cause, self.dest)?;
        if self.action.0 != 0 {
            write!(f, " (action {:?})", self.action)?;
        }
        if !self.message.is_empty() {
            write!(f, ": {}", self.message)?;
        }
        Ok(())
    }
}

/// Errors surfaced by the ParalleX runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PxError {
    /// A parcel named an action that is not in the registry.
    UnknownAction(ActionId),
    /// An action name was registered twice (or two names collided).
    DuplicateAction(&'static str),
    /// The target object does not exist at its resolved locality.
    NoSuchObject(Gid),
    /// The object exists but is of the wrong kind for the operation.
    WrongObjectKind(Gid),
    /// An LCO was triggered twice (single-assignment violation).
    AlreadyTriggered(Gid),
    /// Payload (de)serialization failed.
    Wire(px_wire::WireError),
    /// The runtime is shutting down and cannot accept work.
    ShuttingDown,
    /// A symbolic name was not found in the name service.
    UnknownName(String),
    /// A symbolic name was registered twice.
    DuplicateName(String),
    /// Echo validation found the value stale; carries the current version.
    EchoStale {
        /// Version the reader used.
        used: u64,
        /// Version currently at the root.
        current: u64,
    },
    /// Object migration was requested for a non-migratable object.
    NotMigratable(Gid),
    /// Configuration rejected at build time.
    BadConfig(String),
    /// A parcel died and its fault propagated to this waiter (the loud
    /// replacement for a silent hang).
    Fault(Fault),
}

impl fmt::Display for PxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PxError::UnknownAction(id) => write!(f, "unknown action {id:?}"),
            PxError::DuplicateAction(name) => write!(f, "action {name:?} registered twice"),
            PxError::NoSuchObject(g) => write!(f, "no such object {g}"),
            PxError::WrongObjectKind(g) => write!(f, "object {g} has the wrong kind"),
            PxError::AlreadyTriggered(g) => write!(f, "LCO {g} already triggered"),
            PxError::Wire(e) => write!(f, "wire format error: {e}"),
            PxError::ShuttingDown => write!(f, "runtime is shutting down"),
            PxError::UnknownName(n) => write!(f, "unknown symbolic name {n:?}"),
            PxError::DuplicateName(n) => write!(f, "symbolic name {n:?} already registered"),
            PxError::EchoStale { used, current } => {
                write!(f, "echo value stale: used v{used}, current v{current}")
            }
            PxError::NotMigratable(g) => write!(f, "object {g} cannot migrate"),
            PxError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            PxError::Fault(fault) => write!(f, "fault: {fault}"),
        }
    }
}

impl std::error::Error for PxError {}

impl From<px_wire::WireError> for PxError {
    fn from(e: px_wire::WireError) -> Self {
        PxError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_codes_are_distinct_and_round_trip() {
        let codes: std::collections::HashSet<u8> =
            FaultCause::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(codes.len(), FaultCause::ALL.len());
        for c in FaultCause::ALL {
            assert_eq!(FaultCause::from_code(c.code()), c);
            assert!(!c.to_string().is_empty());
        }
        // A code from a newer peer degrades to the most generic cause.
        assert_eq!(FaultCause::from_code(u8::MAX), FaultCause::HandlerError);
    }

    #[test]
    fn every_cause_has_its_own_death_counter() {
        let c = LocalityCounters::default();
        for (i, cause) in FaultCause::ALL.into_iter().enumerate() {
            let before = c.snapshot();
            c.count_death(cause, i as u64 + 1);
            let d = c.snapshot().delta_from(&before);
            // Exactly two counters move: the total and one by-cause row.
            let mut moved = 0;
            d.for_each(|_, v| moved += u32::from(v != 0));
            assert_eq!(moved, 2, "{cause}");
            assert_eq!(d.dead_parcels, i as u64 + 1);
            // Two causes sharing a counter would be summed twice here.
            assert_eq!(d.deaths_by_cause_total(), d.dead_parcels);
        }
    }
}
