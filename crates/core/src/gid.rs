//! Global identifiers: the ParalleX global name space.
//!
//! §2.2: "it allows any first class object to be remotely identified
//! efficiently through a hierarchical naming structure. In ParalleX,
//! actions as well as data are first class entities … Also, hardware
//! resources have their own names (typed)."
//!
//! A [`Gid`] packs a hierarchical name into 64 bits:
//!
//! ```text
//!   63      48 47    44 43                                    0
//!  +----------+--------+---------------------------------------+
//!  | locality |  kind  |              sequence                 |
//!  +----------+--------+---------------------------------------+
//! ```
//!
//! * `locality` — the locality at which the object was *born*. Resolution
//!   defaults to the birthplace; the AGAS directory overrides it for
//!   objects that have migrated (see [`crate::agas`]).
//! * `kind` — the typed-name tag ([`GidKind`]): data, LCO, process,
//!   hardware resource, … Hardware resources being nameable "to a limited
//!   degree by the software" is what lets percolation target a locality's
//!   staging buffer by name.
//! * `sequence` — per-locality allocation counter.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Index of a locality (the paper's "local physical domain").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LocalityId(pub u16);

impl fmt::Display for LocalityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Typed-name tag carried in every [`Gid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum GidKind {
    /// Plain data object in a locality's store.
    Data = 0,
    /// Local control object (future, dataflow, gate, …).
    Lco = 1,
    /// Parallel process (spans localities).
    Process = 2,
    /// Echo replica-tree node.
    Echo = 3,
    /// Hardware resource (locality root, staging buffer, …).
    Hardware = 4,
    /// Reserved for user extensions.
    User = 5,
}

impl GidKind {
    #[inline]
    fn from_bits(bits: u64) -> GidKind {
        match bits {
            0 => GidKind::Data,
            1 => GidKind::Lco,
            2 => GidKind::Process,
            3 => GidKind::Echo,
            4 => GidKind::Hardware,
            _ => GidKind::User,
        }
    }
}

const LOCALITY_SHIFT: u64 = 48;
const KIND_SHIFT: u64 = 44;
const KIND_MASK: u64 = 0xf;
const SEQ_MASK: u64 = (1 << KIND_SHIFT) - 1;

/// A 64-bit global identifier in the ParalleX name space.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Gid(pub u64);

impl Gid {
    /// Compose a GID from its fields.
    #[inline]
    pub fn new(locality: LocalityId, kind: GidKind, seq: u64) -> Gid {
        debug_assert!(seq <= SEQ_MASK, "sequence overflow");
        Gid((u64::from(locality.0) << LOCALITY_SHIFT)
            | ((kind as u64 & KIND_MASK) << KIND_SHIFT)
            | (seq & SEQ_MASK))
    }

    /// The locality where the object was created (its default home).
    #[inline]
    pub fn birthplace(self) -> LocalityId {
        LocalityId((self.0 >> LOCALITY_SHIFT) as u16)
    }

    /// The typed-name tag.
    #[inline]
    pub fn kind(self) -> GidKind {
        GidKind::from_bits((self.0 >> KIND_SHIFT) & KIND_MASK)
    }

    /// The per-locality sequence number.
    #[inline]
    pub fn seq(self) -> u64 {
        self.0 & SEQ_MASK
    }

    /// The distinguished hardware name for a locality itself. Parcels whose
    /// target is only "somewhere on locality L" (e.g. spawning fresh work)
    /// address the locality root.
    #[inline]
    pub fn locality_root(locality: LocalityId) -> Gid {
        Gid::new(locality, GidKind::Hardware, 0)
    }

    /// The hardware name of a locality's percolation staging buffer.
    #[inline]
    pub fn staging_buffer(locality: LocalityId) -> Gid {
        Gid::new(locality, GidKind::Hardware, 1)
    }

    /// True for hardware-kind names (not stored in the object store).
    #[inline]
    pub fn is_hardware(self) -> bool {
        self.kind() == GidKind::Hardware
    }
}

impl fmt::Debug for Gid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:?}.{}", self.birthplace(), self.kind(), self.seq())
    }
}

impl fmt::Display for Gid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Per-locality GID allocator. Sequence numbers are dense per kind-agnostic
/// counter; kinds share one sequence space for simplicity.
#[derive(Debug)]
pub struct GidAllocator {
    locality: LocalityId,
    // Starts at 16: sequences 0–15 are reserved hardware names.
    next: AtomicU64,
}

impl GidAllocator {
    /// Allocator for `locality`.
    pub fn new(locality: LocalityId) -> Self {
        Self {
            locality,
            next: AtomicU64::new(16),
        }
    }

    /// Allocate a fresh GID of `kind`.
    #[inline]
    pub fn alloc(&self, kind: GidKind) -> Gid {
        // Relaxed: a ticket. A fresh GID needs to be unique, which the
        // atomic add gives; whatever hands the GID to another thread is
        // what publishes the object behind it.
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(seq <= SEQ_MASK, "GID sequence space exhausted");
        Gid::new(self.locality, kind, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let g = Gid::new(LocalityId(513), GidKind::Lco, 0xabc_def0_1234);
        assert_eq!(g.birthplace(), LocalityId(513));
        assert_eq!(g.kind(), GidKind::Lco);
        assert_eq!(g.seq(), 0xabc_def0_1234);
    }

    #[test]
    fn all_kinds_roundtrip() {
        for kind in [
            GidKind::Data,
            GidKind::Lco,
            GidKind::Process,
            GidKind::Echo,
            GidKind::Hardware,
            GidKind::User,
        ] {
            let g = Gid::new(LocalityId(7), kind, 99);
            assert_eq!(g.kind(), kind, "{kind:?}");
        }
    }

    #[test]
    fn max_fields() {
        let g = Gid::new(LocalityId(u16::MAX), GidKind::User, SEQ_MASK);
        assert_eq!(g.birthplace(), LocalityId(u16::MAX));
        assert_eq!(g.seq(), SEQ_MASK);
    }

    #[test]
    fn allocator_is_unique_and_reserves_hardware_space() {
        let a = GidAllocator::new(LocalityId(3));
        let g1 = a.alloc(GidKind::Data);
        let g2 = a.alloc(GidKind::Lco);
        assert_ne!(g1.seq(), g2.seq());
        assert!(g1.seq() >= 16, "0..16 reserved for hardware names");
        assert_eq!(g1.birthplace(), LocalityId(3));
    }

    #[test]
    fn hardware_names_distinct() {
        let root = Gid::locality_root(LocalityId(2));
        let stage = Gid::staging_buffer(LocalityId(2));
        assert_ne!(root, stage);
        assert!(root.is_hardware());
        assert!(stage.is_hardware());
    }

    #[test]
    fn allocator_concurrent_uniqueness() {
        use std::sync::Arc;
        let a = Arc::new(GidAllocator::new(LocalityId(0)));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || {
                (0..1000)
                    .map(|_| a.alloc(GidKind::Data).0)
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "duplicate GIDs allocated");
    }

    #[test]
    fn display_is_structured() {
        let g = Gid::new(LocalityId(1), GidKind::Process, 20);
        assert_eq!(format!("{g}"), "L1.Process.20");
    }
}
