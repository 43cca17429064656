//! Actions: the first-class units of work carried by parcels.
//!
//! §2.2: a parcel carries "an action specifier defining a task to be
//! applied to that object". Actions are *named* (they live in the global
//! name space alongside data), and the name is hashed into a stable
//! [`ActionId`] so both sides of a wire agree on dispatch without
//! exchanging strings.

use crate::error::{PxError, PxResult};
use crate::fxmap::{fnv1a, FxHashMap};
use crate::gid::Gid;
use crate::runtime::Ctx;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fmt;
use std::sync::Arc;

/// Stable identifier of an action: FNV-1a of its registered name.
#[derive(Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ActionId(pub u64);

impl ActionId {
    /// Derive the id for an action name.
    #[inline]
    pub const fn of(name: &str) -> ActionId {
        ActionId(fnv1a(name.as_bytes()))
    }
}

impl fmt::Debug for ActionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ActionId({:#018x})", self.0)
    }
}

/// An immutable, cheaply-cloneable serialized value (parcel payloads, LCO
/// results). A value of up to [`Value::INLINE`] bytes — a `u64` reply, a
/// `[f64; 3]`, the unit value — holds them in place: it is made, cloned
/// and dropped with no allocation and no reference count another thread
/// writes. A longer one shares its bytes behind an `Arc`, so one trigger
/// can feed many waiting continuations without copying them.
///
/// A value is either an ordinary payload or a **fault** — the encoded
/// cause of death of a parcel, delivered along its continuation chain
/// (see [`crate::error::Fault`]). Fault-ness is a flag beside the bytes,
/// not inside them, so an ordinary payload can never be mistaken for a
/// fault; the parcel header preserves the flag across the wire.
#[derive(Clone)]
pub struct Value(Repr);

/// A [`Value`]'s bytes and fault flag: the flag sits in each variant, so
/// the whole value is 32 bytes.
#[derive(Clone)]
enum Repr {
    /// At most [`Value::INLINE`] bytes, the first `len` of `buf`.
    Inline {
        fault: bool,
        len: u8,
        buf: [u8; Value::INLINE],
    },
    /// More than [`Value::INLINE`] bytes, shared.
    Shared { fault: bool, bytes: Arc<[u8]> },
}

#[cfg(target_pointer_width = "64")]
const _: () = assert!(size_of::<Value>() == 32);

impl Default for Value {
    fn default() -> Value {
        Value::unit()
    }
}

impl PartialEq for Value {
    /// Equal bytes and the same fault flag, however each is held.
    fn eq(&self, other: &Value) -> bool {
        self.is_fault() == other.is_fault() && self.bytes() == other.bytes()
    }
}

impl Eq for Value {}

impl Value {
    /// The most bytes a value holds in place.
    pub const INLINE: usize = 29;

    /// The unit value (zero bytes).
    pub fn unit() -> Value {
        Value::new([], false)
    }

    /// `bytes` and `fault` as a value: in place when they fit, else in one
    /// allocation.
    fn new(bytes: impl AsRef<[u8]> + Into<Arc<[u8]>>, fault: bool) -> Value {
        let len = bytes.as_ref().len();
        if len > Value::INLINE {
            let bytes = bytes.into();
            return Value(Repr::Shared { fault, bytes });
        }
        let mut buf = [0; Value::INLINE];
        buf[..len].copy_from_slice(bytes.as_ref());
        let len = len as u8;
        Value(Repr::Inline { fault, len, buf })
    }

    /// Encode a serializable value. The encoding runs in this thread's
    /// scratch writer ([`px_wire::with_scratch`], which keeps at most 64
    /// KiB between uses, so a larger value also regrows it) and is copied
    /// once into the value: in place when it fits, else into one
    /// allocation, the value's own `Arc<[u8]>`.
    pub fn encode<T: Serialize>(v: &T) -> PxResult<Value> {
        px_wire::with_scratch(|w| {
            px_wire::to_writer(w, v)?;
            Ok(Value::from_slice(w.as_slice(), false))
        })
    }

    /// Wrap already-encoded bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Value {
        Value::new(bytes, false)
    }

    /// Copy already-encoded bytes, with an explicit fault flag, in at
    /// most one allocation (the decode paths, which borrow the bytes from
    /// a frame; a parcel carries the flag in its header).
    pub(crate) fn from_slice(bytes: &[u8], fault: bool) -> Value {
        Value::new(bytes, fault)
    }

    /// Build a fault value carrying `f` (see [`crate::error::Fault`]).
    pub fn error(f: &crate::error::Fault) -> Value {
        Value::new(f.to_wire().encode(), true)
    }

    /// True when this value is a fault rather than a payload.
    #[inline]
    pub fn is_fault(&self) -> bool {
        match self.0 {
            Repr::Inline { fault, .. } | Repr::Shared { fault, .. } => fault,
        }
    }

    /// The fault carried by this value, if it is one. Corrupt fault bytes
    /// still yield a fault (cause [`crate::error::FaultCause::Decode`]) —
    /// fault-ness comes from the flag, and a flagged value must never
    /// decode as a success.
    pub fn fault(&self) -> Option<crate::error::Fault> {
        if !self.is_fault() {
            return None;
        }
        Some(match px_wire::WireFault::decode(self.bytes()) {
            Ok(w) => crate::error::Fault::from_wire(&w),
            Err(e) => crate::error::Fault::new(
                crate::error::FaultCause::Decode,
                ActionId(0),
                crate::gid::Gid(0),
                format!("corrupt fault payload: {e}"),
            ),
        })
    }

    /// Decode into a concrete type. The type must match what was encoded —
    /// the wire format is positional, not self-describing. A fault value
    /// never decodes: it surfaces as [`PxError::Fault`], so typed waiters
    /// observe upstream deaths as errors.
    pub fn decode<T: DeserializeOwned>(&self) -> PxResult<T> {
        if let Some(f) = self.fault() {
            return Err(PxError::Fault(f));
        }
        Ok(px_wire::from_bytes(self.bytes())?)
    }

    /// Raw encoded bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf, .. } => &buf[..usize::from(*len)],
            Repr::Shared { bytes, .. } => bytes,
        }
    }

    /// Encoded length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// True if the value has no bytes (the unit value).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_fault() {
            write!(f, "Value(fault, {} bytes)", self.len())
        } else {
            write!(f, "Value({} bytes)", self.len())
        }
    }
}

/// A typed action. Implement this trait and register the type with
/// [`crate::runtime::RuntimeBuilder::register`]; parcels then dispatch to
/// [`Action::execute`] on the destination locality.
///
/// `execute` runs inside an ephemeral PX-thread. It must not block: remote
/// interaction is expressed by sending further parcels or suspending via
/// LCO continuations on the [`Ctx`].
pub trait Action: 'static {
    /// Globally unique action name (hierarchical by convention,
    /// e.g. `"nbody/compute_force"`).
    const NAME: &'static str;

    /// Argument type carried in the parcel payload.
    type Args: Serialize + DeserializeOwned + Send + 'static;

    /// Result type fed to the parcel's continuation (use `()` for none).
    type Out: Serialize + DeserializeOwned + Send + 'static;

    /// Apply the action to `target` with `args`.
    fn execute(ctx: &mut Ctx<'_>, target: Gid, args: Self::Args) -> Self::Out;

    /// The action's stable id (derived from [`Action::NAME`]).
    #[inline]
    fn id() -> ActionId {
        ActionId::of(Self::NAME)
    }
}

/// Type-erased handler stored in the registry.
pub type ErasedHandler =
    Arc<dyn Fn(&mut Ctx<'_>, Gid, &[u8]) -> PxResult<Value> + Send + Sync + 'static>;

/// Immutable action dispatch table, frozen when the runtime is built so the
/// parcel fast path does no locking.
pub struct ActionRegistry {
    handlers: FxHashMap<u64, (&'static str, ErasedHandler)>,
}

impl fmt::Debug for ActionRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActionRegistry")
            .field("actions", &self.handlers.len())
            .finish()
    }
}

impl ActionRegistry {
    pub(crate) fn new() -> Self {
        Self {
            handlers: FxHashMap::default(),
        }
    }

    /// Register a typed action. Fails on duplicate names (or an FNV
    /// collision between two distinct names, which is treated the same).
    pub(crate) fn register<A: Action>(&mut self) -> PxResult<()> {
        let id = A::id();
        let handler: ErasedHandler = Arc::new(|ctx, target, payload| {
            let args: A::Args = px_wire::from_bytes(payload)?;
            let out = A::execute(ctx, target, args);
            Value::encode(&out)
        });
        if self.handlers.insert(id.0, (A::NAME, handler)).is_some() {
            return Err(PxError::DuplicateAction(A::NAME));
        }
        Ok(())
    }

    /// Look up a handler by id.
    #[inline]
    pub fn get(&self, id: ActionId) -> PxResult<&ErasedHandler> {
        self.handlers
            .get(&id.0)
            .map(|(_, h)| h)
            .ok_or(PxError::UnknownAction(id))
    }

    /// Number of registered actions.
    pub fn len(&self) -> usize {
        self.handlers.len()
    }

    /// True when no actions are registered.
    pub fn is_empty(&self) -> bool {
        self.handlers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_ids_are_stable_and_distinct() {
        let a = ActionId::of("nbody/compute_force");
        let b = ActionId::of("nbody/compute_force");
        let c = ActionId::of("nbody/update_body");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn value_roundtrip() {
        let v = Value::encode(&(1u32, "x".to_string())).unwrap();
        let (n, s): (u32, String) = v.decode().unwrap();
        assert_eq!(n, 1);
        assert_eq!(s, "x");
    }

    /// A value longer than [`Value::INLINE`] shares its bytes with its
    /// clones; one that fits holds its own, in place.
    #[test]
    fn value_clone_shares_bytes() {
        let v = Value::encode(&vec![0u8; 1024]).unwrap();
        let w = v.clone();
        assert!(matches!(v.0, Repr::Shared { .. }));
        assert_eq!(v.bytes().as_ptr(), w.bytes().as_ptr());
        let small = Value::encode(&[1.0f64, 2.0, 3.0]).unwrap();
        let copy = small.clone();
        assert!(matches!(copy.0, Repr::Inline { len: 24, .. }));
        assert_ne!(small.bytes().as_ptr(), copy.bytes().as_ptr());
        assert_eq!(small, copy);
    }

    /// The bound between the two: `INLINE` bytes in place, one more
    /// shared, and either equal to the same bytes held the other way.
    #[test]
    fn values_up_to_inline_bytes_are_held_in_place() {
        for n in [Value::INLINE, Value::INLINE + 1] {
            let bytes: Vec<u8> = (0..n as u8).collect();
            let (a, b) = (
                Value::from_bytes(bytes.clone()),
                Value::from_slice(&bytes, false),
            );
            let inline = n <= Value::INLINE;
            for v in [&a, &b] {
                assert_eq!(matches!(v.0, Repr::Inline { .. }), inline, "{n} bytes");
                assert_eq!(v.bytes(), &bytes[..]);
            }
            assert_eq!(a, b);
            assert_ne!(a, Value::from_slice(&bytes, true), "the fault flag counts");
        }
    }

    /// Every empty value is the unit value, however it was made, and
    /// holds its nothing in place.
    #[test]
    fn unit_value() {
        let v = Value::unit();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert!(matches!(v.0, Repr::Inline { len: 0, .. }));
        let empties = [
            Value::default(),
            Value::from_bytes(Vec::new()),
            Value::from_slice(&[], false),
            Value::encode(&()).unwrap(),
        ];
        for e in empties {
            assert_eq!(e, v);
            assert!(matches!(e.0, Repr::Inline { len: 0, .. }));
        }
        v.decode::<()>().unwrap();
        assert_ne!(
            Value::from_slice(&[], true),
            v,
            "the fault flag still counts"
        );
        assert_ne!(Value::from_bytes(vec![0]), v);
    }

    #[test]
    fn fault_value_roundtrips_and_never_decodes() {
        use crate::error::{Fault, FaultCause, PxError};
        let f = Fault::new(
            FaultCause::Panic,
            ActionId::of("x/y"),
            crate::gid::Gid(7),
            "boom",
        );
        let v = Value::error(&f);
        assert!(v.is_fault());
        assert_eq!(v.fault().unwrap(), f);
        // Typed decode surfaces the fault as an error, not as garbage data.
        match v.decode::<u64>() {
            Err(PxError::Fault(got)) => assert_eq!(got, f),
            other => panic!("expected fault error, got {other:?}"),
        }
        // Ordinary values are never faults.
        assert!(!Value::unit().is_fault());
        assert!(Value::encode(&1u64).unwrap().fault().is_none());
    }

    #[test]
    fn corrupt_fault_bytes_still_fault() {
        let v = Value::from_slice(&[1, 2], true);
        let f = v.fault().unwrap();
        assert_eq!(f.cause, crate::error::FaultCause::Decode);
        assert!(v.decode::<u64>().is_err());
    }

    #[test]
    fn decode_wrong_type_fails() {
        let v = Value::encode(&"text".to_string()).unwrap();
        // A string encodes as len+bytes; decoding as (u64, u64) must fail
        // (insufficient bytes).
        let r: PxResult<(u64, u64)> = v.decode();
        assert!(r.is_err());
    }
}
