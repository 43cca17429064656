//! A global allocator that counts, per thread, the allocations made and
//! the largest one. Tests that count what a call allocates include it
//! with `mod common { pub mod alloc; }`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// (allocations and reallocations, largest size asked for).
    static ALLOCS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn record(size: usize) {
    let _ = ALLOCS.try_with(|a| {
        let (n, largest) = a.get();
        a.set((n + 1, largest.max(size)));
    });
}

// SAFETY: every call forwards to `System` unchanged; the record is a
// const-initialised thread-local `Cell` with no destructor, so touching it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result, the allocations (and reallocations) it made on this
/// thread, and the largest of them in bytes.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    let (before, _) = ALLOCS.with(Cell::get);
    ALLOCS.with(|a| a.set((before, 0)));
    let out = f();
    let (after, largest) = ALLOCS.with(Cell::get);
    (out, after - before, largest)
}
