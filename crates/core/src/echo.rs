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
use crate::error::{PxError, PxResult};
use crate::gid::{Gid, GidKind, LocalityId};
use crate::locality::{Locality, Stored};
use crate::origin::Caller;
use crate::parcel::{Continuation, Parcel};
use crate::runtime::{Ctx, Runtime};
use crate::sys::{self, msg::EchoValidate, msg::EchoVerdict, msg::Wire};
use parking_lot::Mutex;
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
/// operation: inserts nodes directly into the stores, so every locality
/// must live in this OS process ([`PxError::BadConfig`] over TCP).
pub fn create_tree<T: Serialize>(
    rt: &Runtime,
    root_loc: LocalityId,
    arity: usize,
    initial: &T,
) -> PxResult<EchoTreeRef> {
    let inner = rt.inner();
    if inner.distributed() {
        return Err(PxError::BadConfig(
            "echo trees need every locality in this OS process".into(),
        ));
    }
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
    let node = loc.get_echo(node)?;
    let g = node.lock();
    Ok((g.value.decode()?, g.version))
}

/// Issue an update: route the new value to the root, which assigns the
/// next version and propagates down the tree. Fire-and-forget; use
/// [`commit`] when the writer needs the split-phase acknowledgement.
pub fn update<T: Serialize>(from: &impl Caller, root: Gid, value: &T) -> PxResult<()> {
    let payload = Value::encode(value)?;
    let p = Parcel::new(root, sys::ECHO_UPDATE, payload, Continuation::none());
    from.origin().send_sys(p);
    Ok(())
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
    let ask = EchoValidate { used: used_version }.parcel(root, None);
    // A dead validation parcel was counted and dead-lettered where it
    // was raised; its fault is the reply, and k observes it here.
    ctx.origin()
        .request_then(ask, move |ctx, v| k(ctx, outcome_of(&v)));
    Ok(())
}

/// Blocking variant of [`commit`] for external driver threads.
pub fn commit_blocking<T: DeserializeOwned + 'static>(
    rt: &Runtime,
    root: Gid,
    used_version: u64,
) -> PxResult<CommitOutcome<T>> {
    let ask = EchoValidate { used: used_version }.parcel(root, None);
    outcome_of(&rt.sys_rpc(ask)?)
}

/// The root's verdict as the committing thread sees it.
fn outcome_of<T: DeserializeOwned>(reply: &Value) -> PxResult<CommitOutcome<T>> {
    if let Some(f) = reply.fault() {
        return Err(PxError::Fault(f));
    }
    let verdict = EchoVerdict::decode(reply.bytes())?;
    if verdict.valid {
        return Ok(CommitOutcome::Valid);
    }
    Ok(CommitOutcome::Stale {
        version: verdict.version,
        value: verdict.value.decode()?,
    })
}

/// Root-side validation statistics `(ok, stale)` for experiment output.
pub fn validation_stats(rt: &Runtime, root: Gid) -> PxResult<(u64, u64)> {
    let node = rt.inner().locality(root.birthplace()).get_echo(root)?;
    let g = node.lock();
    Ok((g.ok_validations, g.stale_validations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Config, RuntimeBuilder};

    #[test]
    fn verdicts_decode_to_outcomes() {
        let verdict = |valid, value: &Value| {
            let value = value.clone();
            let v = EchoVerdict {
                valid,
                version: 9,
                value,
            };
            outcome_of::<u64>(&v.encode()).unwrap()
        };
        assert!(matches!(
            verdict(true, &Value::unit()),
            CommitOutcome::Valid
        ));
        match verdict(false, &Value::encode(&123u64).unwrap()) {
            CommitOutcome::Stale { version, value } => assert_eq!((version, value), (9, 123)),
            other => panic!("expected Stale, got {other:?}"),
        }
    }

    /// `create_tree` writes into every locality's store and allocator:
    /// on a rank of a multi-process system that would mint GIDs on
    /// stubs, so it is refused. (A one-rank TCP "mesh" boots alone.)
    #[test]
    fn trees_are_refused_on_a_distributed_runtime() {
        let port = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = format!("127.0.0.1:{}", port.local_addr().unwrap().port());
        drop(port);
        let cfg = Config::small(1, 1).with_tcp(0, vec![addr]);
        let rt = RuntimeBuilder::new(cfg).build().unwrap();
        let refused = create_tree(&rt, LocalityId(0), 2, &0u64);
        assert!(matches!(refused, Err(PxError::BadConfig(_))), "{refused:?}");
        rt.shutdown();
    }
}
