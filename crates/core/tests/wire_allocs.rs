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
