//! Echo: split-phase copy semantics without global cache coherence (§2.2).
//!
//! "ParalleX does not assume cache coherency outside of the domain of the
//! locality even though it has a global name space. When a writable
//! variable is to be used by many separate execution points during the
//! same temporal interval, ParalleX may assert a copy semantics called
//! 'echo'. This construct identifies the tree of equivalent locations all
//! of which are to be operated upon as if a single value … Echo is a split
//! phase operation. Using it requires that a thread defer committing side
//! effects until it gets an acknowledgement that the value it used is the
//! current one. This permits overlap between coherency verification and
//! continued computation with the latest known value."
//!
//! Implementation:
//!
//! * An **echo tree** has a *root* node (the authority, serializing
//!   updates) and *replica* nodes at other localities, connected
//!   parent→children. Every node holds `(value, version)`.
//! * **Reads** are local and free: [`read_local`] returns the replica's
//!   current value and version — possibly stale, by design.
//! * **Updates** go to the root ([`update`]): the root bumps its version
//!   and propagates `(version, value)` down the tree asynchronously with
//!   parcels. There is *no invalidation round-trip* — this is copy
//!   (update) semantics, not coherence.
//! * **Split-phase commit** ([`commit`]): a thread that computed with a
//!   replica value sends a validation parcel carrying the version it used;
//!   the root replies *valid* (version still current → commit side
//!   effects) or *stale* (here is the current `(version, value)` → retry).
//!   The thread keeps computing between issue and reply — that is the
//!   overlap the paper claims, and experiment E5 measures it.

use crate::action::Value;
use crate::error::{FaultCause, PxError, PxResult};
use crate::gid::{Gid, GidKind, LocalityId};
use crate::locality::{Locality, Stored};
use crate::parcel::{Continuation, Parcel};
use crate::runtime::{Ctx, Runtime, RuntimeInner};
use crate::sys;
use parking_lot::Mutex;
use px_wire::{WireReader, WireWriter};
use serde::{de::DeserializeOwned, Serialize};
use std::sync::Arc;

/// One node of an echo tree.
#[derive(Debug)]
pub struct EchoNode {
    /// This node's name.
    pub gid: Gid,
    /// Root of the tree (self for the root).
    pub root: Gid,
    /// Children to propagate updates to.
    pub children: Vec<Gid>,
    /// Current value bytes.
    pub value: Value,
    /// Version of `value` (root assigns versions).
    pub version: u64,
    /// Root only: count of validation requests answered "stale".
    pub stale_validations: u64,
    /// Root only: count answered "valid".
    pub ok_validations: u64,
}

/// Handle to an echo tree: the root GID plus one replica GID per locality.
#[derive(Debug, Clone)]
pub struct EchoTreeRef {
    /// Root node (authority).
    pub root: Gid,
    /// Node at each locality, indexed by locality id (the root's locality
    /// maps to the root itself).
    pub node_at: Vec<Gid>,
}

impl EchoTreeRef {
    /// The tree node resident at `loc` (read there for locality-free
    /// reads).
    pub fn local_node(&self, loc: LocalityId) -> Gid {
        self.node_at[loc.0 as usize]
    }
}

/// Build an echo tree rooted at `root_loc` spanning all localities, with
/// fan-out `arity` (a binary tree for `arity = 2`). Control-plane
/// operation: inserts nodes directly into the stores.
pub fn create_tree<T: Serialize>(
    rt: &Runtime,
    root_loc: LocalityId,
    arity: usize,
    initial: &T,
) -> PxResult<EchoTreeRef> {
    let inner = rt.inner();
    let n = inner.localities.len();
    let value = Value::encode(initial)?;
    assert!(arity >= 1, "echo tree arity must be >= 1");

    // Breadth-first shape: order localities with the root first, then
    // assign children by index arithmetic.
    let mut order: Vec<LocalityId> = Vec::with_capacity(n);
    order.push(root_loc);
    for i in 0..n {
        let id = LocalityId(i as u16);
        if id != root_loc {
            order.push(id);
        }
    }

    // Allocate GIDs.
    let gids: Vec<Gid> = order
        .iter()
        .map(|&l| inner.locality(l).alloc.alloc(GidKind::Echo))
        .collect();
    let root_gid = gids[0];

    // Insert nodes with children wired by BFS position.
    for (pos, (&l, &gid)) in order.iter().zip(gids.iter()).enumerate() {
        let children: Vec<Gid> = (1..=arity)
            .map(|k| pos * arity + k)
            .take_while(|&c| c < n)
            .map(|c| gids[c])
            .collect();
        let node = EchoNode {
            gid,
            root: root_gid,
            children,
            value: value.clone(),
            version: 1,
            stale_validations: 0,
            ok_validations: 0,
        };
        inner
            .locality(l)
            .insert_at(gid, Stored::Echo(Arc::new(Mutex::new(node))));
    }

    let mut node_at = vec![root_gid; n];
    for (&l, &gid) in order.iter().zip(gids.iter()) {
        node_at[l.0 as usize] = gid;
    }
    Ok(EchoTreeRef {
        root: root_gid,
        node_at,
    })
}

/// Read the local replica: `(value, version)`. Never blocks, never
/// communicates; staleness is bounded by propagation delay.
pub fn read_local<T: DeserializeOwned>(loc: &Locality, node: Gid) -> PxResult<(T, u64)> {
    match loc.get(node) {
        Some(Stored::Echo(n)) => {
            let g = n.lock();
            Ok((g.value.decode()?, g.version))
        }
        Some(_) => Err(PxError::WrongObjectKind(node)),
        None => Err(PxError::NoSuchObject(node)),
    }
}

/// Issue an update: route the new value to the root, which assigns the
/// next version and propagates down the tree. Fire-and-forget; use
/// [`commit`] when the writer needs the split-phase acknowledgement.
pub fn update<T: Serialize>(
    rt: &Arc<RuntimeInner>,
    from: LocalityId,
    root: Gid,
    value: &T,
) -> PxResult<()> {
    let p = Parcel::new(
        root,
        sys::ECHO_UPDATE,
        Value::encode(value)?,
        Continuation::none(),
    );
    rt.send_parcel(from, p);
    Ok(())
}

/// [`update`] from inside a PX-thread.
pub fn update_ctx<T: Serialize>(ctx: &mut Ctx<'_>, root: Gid, value: &T) -> PxResult<()> {
    let here = ctx.here();
    update(ctx.rt_inner(), here, root, value)
}

/// The outcome of a split-phase validation.
#[derive(Debug, Clone)]
pub enum CommitOutcome<T> {
    /// The version used is still current: commit your side effects.
    Valid,
    /// Stale: here is the current version and value; recompute.
    Stale {
        /// Current version at the root.
        version: u64,
        /// Current value at the root.
        value: T,
    },
}

/// Split-phase commit from inside a PX-thread: sends a validation parcel
/// for `used_version` and *suspends* the continuation `k` on the reply.
/// The worker is free to run other threads while the validation is in
/// flight (the overlap E5 measures).
///
/// `k` always runs: with `Ok(outcome)` when the root answered, or with
/// `Err(PxError::Fault(_))` when the validation parcel died (root freed,
/// hop cap, …) — the continuation must not be silently dropped, or the
/// thread's downstream waiters would hang exactly the way dead parcels
/// used to hang them.
pub fn commit<T, K>(ctx: &mut Ctx<'_>, root: Gid, used_version: u64, k: K) -> PxResult<()>
where
    T: DeserializeOwned + 'static,
    K: FnOnce(&mut Ctx<'_>, PxResult<CommitOutcome<T>>) + Send + 'static,
{
    // Local future receives the root's reply.
    let reply = ctx.locality().new_future_lco();
    let mut w = WireWriter::with_capacity(8);
    w.put_u64(used_version);
    let p = Parcel::new(
        root,
        sys::ECHO_VALIDATE,
        Value::from_bytes(w.into_bytes()),
        Continuation::set(reply),
    );
    ctx.rt_inner().send_parcel(ctx.here(), p);
    ctx.when_ready(reply, move |ctx, v| {
        let outcome = match v.fault() {
            // The validation parcel died; the death was counted and
            // dead-lettered where it was raised, and k observes it here.
            Some(f) => Err(PxError::Fault(f)),
            None => decode_validation::<T>(&v),
        };
        k(ctx, outcome);
    });
    Ok(())
}

/// Blocking variant of [`commit`] for external driver threads.
pub fn commit_blocking<T: DeserializeOwned + 'static>(
    rt: &Runtime,
    from: LocalityId,
    root: Gid,
    used_version: u64,
) -> PxResult<CommitOutcome<T>> {
    let inner = rt.inner();
    let reply = inner.locality(from).new_future_lco();
    let mut w = WireWriter::with_capacity(8);
    w.put_u64(used_version);
    let p = Parcel::new(
        root,
        sys::ECHO_VALIDATE,
        Value::from_bytes(w.into_bytes()),
        Continuation::set(reply),
    );
    inner.send_parcel(from, p);
    let v: Value = rt.wait_value(reply)?;
    decode_validation::<T>(&v)
}

// Reply framing: u8 tag (1 = valid, 0 = stale) ++ u64 version ++ value
// bytes (stale only).
fn decode_validation<T: DeserializeOwned>(v: &Value) -> PxResult<CommitOutcome<T>> {
    let mut r = WireReader::new(v.bytes());
    let tag = r.get_u8()?;
    let version = r.get_u64()?;
    if tag == 1 {
        Ok(CommitOutcome::Valid)
    } else {
        let rest = r.get_bytes(r.remaining())?;
        Ok(CommitOutcome::Stale {
            version,
            value: Value::from_bytes(rest.to_vec()).decode()?,
        })
    }
}

/// System-parcel handler for the three echo rows of `sys_actions!`.
/// Dead paths kill the parcel loudly (see [`crate::sched::kill_parcel`])
/// so a blocked [`commit_blocking`] caller gets a fault, not a hang.
// px-analyze: allow(no-silent-loss): update and propagation parcels are fire-and-forget — `update` and `propagate` build them without a continuation, and a stale propagation is superseded, not lost; validations reply and dead paths kill.
pub(crate) fn handle_sys(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    let node = match loc.get(p.dest) {
        Some(Stored::Echo(n)) => n,
        other => {
            let msg = match other {
                Some(_) => format!("{} is not an echo node", p.dest),
                None => format!("no echo node {} here", p.dest),
            };
            crate::sched::kill_parcel(rt, loc, p, FaultCause::HandlerError, msg);
            return;
        }
    };
    if p.action == sys::ECHO_UPDATE {
        // Root: assign next version, apply, propagate.
        let (version, value, children) = {
            let mut g = node.lock();
            debug_assert_eq!(g.root, g.gid, "updates must arrive at the root");
            g.version += 1;
            g.value = p.payload.clone();
            (g.version, g.value.clone(), g.children.clone())
        };
        propagate(rt, loc, version, &value, &children);
    } else if p.action == sys::ECHO_PROP {
        // Child: apply if newer, keep propagating.
        let mut r = WireReader::new(p.payload.bytes());
        let Ok(version) = r.get_u64() else {
            let msg = "echo propagation missing version".to_string();
            crate::sched::kill_parcel(rt, loc, p, FaultCause::Decode, msg);
            return;
        };
        let Ok(rest) = r.get_bytes(r.remaining()) else {
            let msg = "echo propagation payload truncated".to_string();
            crate::sched::kill_parcel(rt, loc, p, FaultCause::Decode, msg);
            return;
        };
        let value = Value::from_bytes(rest.to_vec());
        let children = {
            let mut g = node.lock();
            if version <= g.version {
                // Out-of-order propagation: an older update arrived late.
                // Newer value already applied; stop this branch.
                return;
            }
            g.version = version;
            g.value = value.clone();
            g.children.clone()
        };
        propagate(rt, loc, version, &value, &children);
    } else {
        // ECHO_VALIDATE: root answers valid/stale against current version.
        let mut r = WireReader::new(p.payload.bytes());
        let Ok(used) = r.get_u64() else {
            let msg = "echo validation missing version".to_string();
            crate::sched::kill_parcel(rt, loc, p, FaultCause::Decode, msg);
            return;
        };
        let reply = {
            let mut g = node.lock();
            let mut w = WireWriter::with_capacity(16 + g.value.len());
            if used == g.version {
                g.ok_validations += 1;
                w.put_u8(1);
                w.put_u64(g.version);
            } else {
                g.stale_validations += 1;
                w.put_u8(0);
                w.put_u64(g.version);
                w.put_bytes(g.value.bytes());
            }
            Value::from_bytes(w.into_bytes())
        };
        crate::sched::apply_continuation(rt, loc, p.cont, reply, p.trace);
    }
}

fn propagate(
    rt: &Arc<RuntimeInner>,
    loc: &Arc<Locality>,
    version: u64,
    value: &Value,
    children: &[Gid],
) {
    for &child in children {
        let mut w = WireWriter::with_capacity(8 + value.len());
        w.put_u64(version);
        w.put_bytes(value.bytes());
        let p = Parcel::new(
            child,
            sys::ECHO_PROP,
            Value::from_bytes(w.into_bytes()),
            Continuation::none(),
        );
        rt.send_parcel(loc.id, p);
    }
}

/// Root-side validation statistics `(ok, stale)` for experiment output.
pub fn validation_stats(rt: &Runtime, root: Gid) -> PxResult<(u64, u64)> {
    let loc = rt.inner().locality(root.birthplace());
    match loc.get(root) {
        Some(Stored::Echo(n)) => {
            let g = n.lock();
            Ok((g.ok_validations, g.stale_validations))
        }
        Some(_) => Err(PxError::WrongObjectKind(root)),
        None => Err(PxError::NoSuchObject(root)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_reply_framing() {
        // valid
        let mut w = WireWriter::new();
        w.put_u8(1);
        w.put_u64(5);
        let v = Value::from_bytes(w.into_bytes());
        match decode_validation::<u64>(&v).unwrap() {
            CommitOutcome::Valid => {}
            other => panic!("expected Valid, got {other:?}"),
        }
        // stale with payload
        let mut w = WireWriter::new();
        w.put_u8(0);
        w.put_u64(9);
        w.put_bytes(Value::encode(&123u64).unwrap().bytes());
        let v = Value::from_bytes(w.into_bytes());
        match decode_validation::<u64>(&v).unwrap() {
            CommitOutcome::Stale { version, value } => {
                assert_eq!(version, 9);
                assert_eq!(value, 123);
            }
            other => panic!("expected Stale, got {other:?}"),
        }
    }
}
