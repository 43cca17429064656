//! Allocation counts of the byte paths through the wire layer: counts,
//! not times, so the result does not depend on the machine. Each call is
//! made once first to warm this thread's scratch writer, then counted.
//! The counter is per thread: sibling tests allocate on their own.

use px_core::{ActionId, Continuation, Gid, Parcel, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the count is a
// const-initialised thread-local `Cell` with no destructor, so touching it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread, after one
/// warm-up call.
fn allocs<R>(mut f: impl FnMut() -> R) -> usize {
    drop(f());
    let before = ALLOCS.with(Cell::get);
    let out = f();
    let n = ALLOCS.with(Cell::get) - before;
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
