//! Allocation counts of the byte paths through the wire layer: counts,
//! not times, so the result does not depend on the machine. Each call is
//! made once first to warm this thread's scratch writer, then counted.
//! The counter is per thread: sibling tests allocate on their own.

use px_core::{ActionId, Continuation, Gid, Parcel, Value};

mod common {
    pub mod alloc;
}

/// Allocations (and reallocations) `f` makes on this thread, after one
/// warm-up call.
fn allocs<R>(mut f: impl FnMut() -> R) -> usize {
    drop(f());
    let (out, n, _) = common::alloc::counted(f);
    drop(out);
    n
}

#[test]
fn encoding_a_value_allocates_only_the_value() {
    let data = vec![0u8; 4096];
    assert_eq!(allocs(|| Value::encode(&data).unwrap()), 1);
}

/// A value that fits in place — a `u64` reply, a `[f64; 3]`, the unit
/// value — is encoded, decoded and dropped with no allocation.
#[test]
fn a_small_value_allocates_nothing() {
    assert_eq!(allocs(|| Value::encode(&7u64).unwrap()), 0);
    assert_eq!(allocs(|| Value::encode(&[1.0f64, 2.0, 3.0]).unwrap()), 0);
    assert_eq!(allocs(|| Value::encode(&()).unwrap()), 0);
    let v = Value::encode(&[1.0f64, 2.0, 3.0]).unwrap();
    assert_eq!(allocs(|| v.decode::<[f64; 3]>().unwrap()), 0);
}

/// A clone copies a small value in place and shares a large one's bytes.
#[test]
fn cloning_a_value_allocates_nothing() {
    for v in [
        Value::unit(),
        Value::encode(&7u64).unwrap(),
        Value::encode(&vec![0u8; 4096]).unwrap(),
    ] {
        assert_eq!(allocs(|| v.clone()), 0, "{v:?}");
    }
}

#[test]
fn to_bytes_allocates_only_the_vector() {
    let data = vec![0u8; 4096];
    assert_eq!(allocs(|| px_wire::to_bytes(&data).unwrap()), 1);
}

#[test]
fn decoding_a_parcel_allocates_its_payload_and_its_steps() {
    let payload = Value::encode(&vec![0u8; 4096]).unwrap();
    let p = Parcel::new(Gid(1), ActionId(2), payload, Continuation::set(Gid(3)));
    let bytes = p.encode();
    assert_eq!(allocs(|| Parcel::decode(&bytes).unwrap()), 2);
}

/// A small payload is decoded in place: only the steps allocate.
#[test]
fn decoding_a_parcel_with_a_small_payload_allocates_only_its_steps() {
    let payload = Value::encode(&(7u64, 8u64)).unwrap();
    let p = Parcel::new(Gid(1), ActionId(2), payload, Continuation::set(Gid(3)));
    let bytes = p.encode();
    assert_eq!(allocs(|| Parcel::decode(&bytes).unwrap()), 1);
}

#[test]
fn decoding_a_byte_vector_allocates_only_the_vector() {
    let bytes = px_wire::to_bytes(&vec![0u8; 4096]).unwrap();
    assert_eq!(
        allocs(|| px_wire::from_bytes::<Vec<u8>>(&bytes).unwrap()),
        1
    );
    let bytes = px_wire::to_bytes(&[1.0f64, 2.0, 3.0]).unwrap();
    assert_eq!(
        allocs(|| px_wire::from_bytes::<[f64; 3]>(&bytes).unwrap()),
        0
    );
}

/// A parcel sent on its own crosses the wire as a frame of one, its
/// buffer sized from `Parcel::wire_size` (trailer included): one
/// allocation in either frame version, what encoding the bare parcel
/// costs — also for a parcel with every optional header field.
#[test]
fn a_frame_of_one_allocates_once() {
    let payload = Value::encode(&vec![0u8; 4096]).unwrap();
    let plain = Parcel::new(Gid(1), ActionId(2), payload, Continuation::set(Gid(3)));
    assert_eq!(allocs(|| plain.encode()), 1);
    let mut full = plain.clone();
    full.process = Some(Gid(4));
    full.trace = Some(5);
    full.cont = full.cont.then(px_core::parcel::ContStep::Call {
        action: ActionId(6),
        target: Gid(7),
    });
    for p in [&plain, &full] {
        for version in [px_wire::FRAME_VERSION, px_wire::FRAME_VERSION_CHECKSUM] {
            let frame = || px_wire::FrameBuf::of_one(version, p.wire_size(), |w| p.encode_into(w));
            assert_eq!(allocs(frame), 1, "version {version}");
        }
    }
}
