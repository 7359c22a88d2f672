//! The one crate of the workspace allowed `unsafe`; `flux-lint`'s
//! `unsafe` rule keeps the keyword out of every other file. Each
//! `unsafe` item below carries the argument for its soundness.
//!
//! [`CountingAlloc`] is a global allocator that forwards to
//! [`System`] and counts, per thread, every call that obtains memory.
//! It is installed in exactly one test binary (`flux-rt`'s
//! `alloc_budget`), which pins allocations per warm operation; no
//! shipped binary links it.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Const-initialized and free of destructors, so reading or bumping
    /// it never allocates and never re-enters the allocator.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts `alloc`, `alloc_zeroed` and `realloc` calls on the calling
/// thread, then forwards them to [`System`]. Install it with
/// `#[global_allocator] static A: flux_sys::CountingAlloc = flux_sys::CountingAlloc;`.
pub struct CountingAlloc;

fn bump() {
    // During thread teardown the slot may be gone: such an allocation
    // goes uncounted rather than aborting the process.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// implements the `GlobalAlloc` contract; the only other work is `bump`,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's obligations on `layout` are `System::alloc`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded under this method's own contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's obligations on `layout` are `System::alloc_zeroed`'s.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded under this method's own contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: `ptr` came from this allocator, hence from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded under this method's own contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `ptr` came from this allocator, hence from `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded under this method's own contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns its result with the number of allocations it
/// made on this thread. Always zero unless [`CountingAlloc`] is the
/// global allocator.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}
