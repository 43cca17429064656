//! Percolation: prestaging work and data at precious resources (§2.2).
//!
//! "ParalleX provides a mechanism for moving work (both state and task
//! descriptions) to unused parts of the system through a mechanism
//! referred to as 'Percolation' which was devised as a latency hiding
//! mechanism as well. For a precious resource, overhead and latency can
//! greatly degrade system efficiency. Percolation … employs ancillary
//! mechanisms to prestage data and tasks in high speed memory near the
//! high cost compute elements when a task is to be performed. This is a
//! variation of parcels but used with hardware as the target rather than
//! abstract data objects. Prefetching is also a form of prestaging but
//! performed by the compute element itself, thus imposing the overhead
//! burden, and possibly the impact of latency, on it as well."
//!
//! Mechanically, a percolated task is a parcel with the `staged` bit set:
//! it is addressed to the destination locality's **staging buffer** (a
//! hardware name) and carries everything the task needs — action, target,
//! and the data itself in the payload. The destination's workers drain the
//! staging buffer at top priority when the locality is configured as a
//! *precious resource* (`Config::accelerators`), so the expensive unit
//! never waits on a remote fetch — the ancillary resources (the sender)
//! paid the marshalling overhead instead. The three-way comparison against
//! *demand fetch* (the accelerator suspends on remote reads) and
//! *consumer prefetch* (the accelerator spends its own cycles issuing
//! prefetches) is experiment E4.

use crate::action::{Action, Value};
use crate::error::PxResult;
use crate::gid::{Gid, LocalityId};
use crate::origin::Caller;
use crate::parcel::{Continuation, Parcel};

/// Send a percolated task: action `A` on `target` with `args`, prestaged
/// into `dest`'s staging buffer. The payload travels with the task, so
/// execution is purely local at the destination. `from` is the driver's
/// [`crate::runtime::Runtime`] or the calling thread's
/// [`crate::runtime::Ctx`]: the task is that caller's work (its locality
/// pays the marshalling, its process and trace ride along).
///
/// # Failure semantics
///
/// A percolated parcel dies like any other — unknown action, panicking
/// handler, handler error — and its death is loud: the fault is delivered
/// to `cont`, so a driver waiting on the continuation's future observes
/// [`crate::error::PxError::Fault`] instead of hanging while the
/// accelerator's staging buffer silently swallows the task.
pub fn percolate<A: Action>(
    from: &impl Caller,
    dest: LocalityId,
    target: Gid,
    args: &A::Args,
    cont: Continuation,
) -> PxResult<()> {
    let mut p = Parcel::new(target, A::id(), Value::encode(args)?, cont);
    p.staged = true;
    // Route explicitly to the staging destination: percolation targets
    // *hardware* (the locality), not the object's home.
    from.origin().send_toward(Some(dest), false, p);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Percolation is exercised end-to-end in the runtime integration
    // tests (`tests/percolation.rs`); here we only check parcel shaping.
    #[test]
    fn staged_bit_set() {
        let p = {
            let mut p = Parcel::new(
                Gid::locality_root(LocalityId(1)),
                crate::action::ActionId::of("x"),
                Value::unit(),
                Continuation::none(),
            );
            p.staged = true;
            p
        };
        let q = Parcel::decode(&p.encode()).unwrap();
        assert!(q.staged);
    }
}
