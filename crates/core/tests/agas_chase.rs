//! Property tests for the AGAS under migration churn: cache repair
//! converges and forwarding chases are bounded even when
//! `record_migration` runs concurrently with resolution — the regime the
//! balancer's heat-driven pulls create.

use proptest::prelude::*;
use px_core::agas::Agas;
use px_core::gid::{Gid, GidKind, LocalityId};
use std::sync::Arc;

const LOCALITIES: usize = 4;

fn gid(seq: u64) -> Gid {
    Gid::new(LocalityId(0), GidKind::Data, seq)
}

/// Simulate the scheduler's forwarding chase for a parcel sent from
/// `from`: start at the (possibly stale) resolved owner, then repeatedly
/// ask the directory and repair the sender's cache, counting hops until
/// the answer is stable. Returns the hop count.
///
/// This mirrors `run_parcel`: a mis-delivered parcel is forwarded to
/// `authoritative_owner` with a `repair_cache` hint, so a chase ends as
/// soon as the directory stops moving under it.
fn chase(agas: &Agas, from: LocalityId, g: Gid, max_hops: usize) -> usize {
    let mut at = agas.resolve(from, g).owner;
    let mut hops = 0;
    loop {
        let owner = agas.authoritative_owner(g);
        if owner == at {
            return hops;
        }
        hops += 1;
        assert!(
            hops <= max_hops,
            "chase exceeded {max_hops} hops (directory cannot outrun a bounded migration list)"
        );
        agas.repair_cache(from, g, owner);
        at = owner;
    }
}

proptest! {
    /// After any interleaving of migrations with concurrent resolutions
    /// and chases, (1) every chase is bounded by the number of migrations
    /// still outstanding when it started, and (2) once migrations stop,
    /// one repair makes every locality's cache agree with the directory.
    #[test]
    fn chase_bounded_and_cache_repair_converges(
        // Per-object migration scripts: (object seq, destination locality).
        moves in proptest::collection::vec((0u64..8, 0u16..LOCALITIES as u16), 1..64),
        askers in proptest::collection::vec(0u16..LOCALITIES as u16, 1..8),
    ) {
        let agas = Arc::new(Agas::new(LOCALITIES));
        let objects: Vec<Gid> = (0..8).map(gid).collect();

        // Warm every asker's cache with whatever the pre-migration state
        // is, so stale entries exist to be repaired.
        for &a in &askers {
            for &g in &objects {
                let _ = agas.resolve(LocalityId(a), g);
            }
        }

        let migrator = {
            let agas = agas.clone();
            let moves = moves.clone();
            std::thread::spawn(move || {
                for &(seq, to) in &moves {
                    agas.record_migration(gid(seq), LocalityId(to));
                }
            })
        };

        // Concurrent chasers: every hop a chaser takes must be justified
        // by a migration that happened, so the total is bounded by the
        // script length (plus the initial stale answer).
        let max_hops = moves.len() + 1;
        let chasers: Vec<_> = askers
            .iter()
            .map(|&a| {
                let agas = agas.clone();
                let objects = objects.clone();
                std::thread::spawn(move || {
                    for &g in &objects {
                        chase(&agas, LocalityId(a), g, max_hops);
                    }
                })
            })
            .collect();

        migrator.join().unwrap();
        for c in chasers {
            c.join().unwrap();
        }

        // Quiescent convergence: a single repair per (locality, object)
        // makes every cache authoritative, and it stays authoritative.
        for &a in &askers {
            for &g in &objects {
                let owner = agas.authoritative_owner(g);
                prop_assert_eq!(chase(&agas, LocalityId(a), g, 1) <= 1, true);
                agas.repair_cache(LocalityId(a), g, owner);
                let r = agas.resolve(LocalityId(a), g);
                prop_assert_eq!(r.owner, owner);
            }
        }

        // The directory agrees with the last migration per object.
        let mut last: std::collections::HashMap<u64, LocalityId> = Default::default();
        for &(seq, to) in &moves {
            last.insert(seq, LocalityId(to));
        }
        for (seq, to) in last {
            prop_assert_eq!(agas.authoritative_owner(gid(seq)), to);
        }
    }

    /// A repaired cache answers from the cache (no directory traffic) and
    /// with the hinted owner — the property the parcel layer's repair
    /// hints rely on for the "next one routes right" claim.
    #[test]
    fn repair_hint_is_sticky(
        owners in proptest::collection::vec(0u16..LOCALITIES as u16, 1..16),
    ) {
        let agas = Agas::new(LOCALITIES);
        let g = gid(0);
        for &to in &owners {
            agas.record_migration(g, LocalityId(to));
            agas.repair_cache(LocalityId(3), g, LocalityId(to));
            let r = agas.resolve(LocalityId(3), g);
            prop_assert_eq!(r.owner, LocalityId(to));
            prop_assert_eq!(r.source, px_core::agas::ResolutionSource::Cache);
        }
    }
}
