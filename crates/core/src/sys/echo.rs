//! The echo tree's three messages (see [`crate::echo`]): an update at
//! the root, its propagation down the tree, and the split-phase
//! validation a committing thread asks the root for. Dead paths kill the
//! parcel loudly, so a blocked `commit_blocking` caller gets a fault, not
//! a hang.

use super::msg::{EchoProp, EchoValidate, EchoVerdict, Wire};
use crate::action::Value;
use crate::echo::EchoNode;
use crate::error::FaultCause;
use crate::gid::Gid;
use crate::locality::Locality;
use crate::origin::Origin;
use crate::parcel::Parcel;
use crate::runtime::RuntimeInner;
use crate::sched::{complete, kill_parcel};
use parking_lot::Mutex;
use std::sync::Arc;

/// The echo node `p` addresses, with `p` handed back; a parcel addressed
/// at anything else dies here.
fn node_of(
    rt: &Arc<RuntimeInner>,
    loc: &Arc<Locality>,
    p: Parcel,
) -> Option<(Arc<Mutex<EchoNode>>, Parcel)> {
    match loc.get_echo(p.dest) {
        Ok(node) => Some((node, p)),
        Err(e) => {
            kill_parcel(rt, loc, p, FaultCause::HandlerError, e.to_string());
            None
        }
    }
}

/// Root: assign the next version, apply, propagate.
pub(super) fn update(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel) {
    let Some((node, p)) = node_of(rt, loc, p) else {
        return;
    };
    let (version, children) = {
        let mut g = node.lock();
        debug_assert_eq!(g.root, g.gid, "updates must arrive at the root");
        g.version += 1;
        g.value = p.payload.clone();
        (g.version, g.children.clone())
    };
    propagate(rt, loc, version, p.payload.clone(), &children);
    complete(rt, loc, p, Value::unit());
}

/// Child: apply if newer, keep propagating.
pub(super) fn prop(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel, m: EchoProp) {
    let Some((node, p)) = node_of(rt, loc, p) else {
        return;
    };
    let newer = {
        let mut g = node.lock();
        // An older update that arrived late stops here: the newer value
        // is already applied, and went down this branch.
        (m.version > g.version).then(|| {
            g.version = m.version;
            g.value = m.value.clone();
            g.children.clone()
        })
    };
    if let Some(children) = newer {
        propagate(rt, loc, m.version, m.value, &children);
    }
    complete(rt, loc, p, Value::unit());
}

/// Root: answer valid/stale against the current version.
pub(super) fn validate(rt: &Arc<RuntimeInner>, loc: &Arc<Locality>, p: Parcel, m: EchoValidate) {
    let Some((node, p)) = node_of(rt, loc, p) else {
        return;
    };
    let verdict = {
        let mut g = node.lock();
        let valid = m.used == g.version;
        if valid {
            g.ok_validations += 1;
        } else {
            g.stale_validations += 1;
        }
        EchoVerdict {
            valid,
            version: g.version,
            value: if valid {
                Value::unit()
            } else {
                g.value.clone()
            },
        }
    };
    complete(rt, loc, p, verdict.encode());
}

fn propagate(
    rt: &Arc<RuntimeInner>,
    loc: &Arc<Locality>,
    version: u64,
    value: Value,
    children: &[Gid],
) {
    let prop = EchoProp { version, value };
    for &child in children {
        Origin::at(rt, loc).send(prop.parcel(child, None));
    }
}
