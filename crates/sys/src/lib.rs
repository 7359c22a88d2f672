//! The one crate of the workspace allowed `unsafe`; `flux-lint`'s
//! `unsafe` rule keeps the keyword out of every other file. Each
//! `unsafe` item below carries the argument for its soundness. It
//! holds two things, each behind a safe interface:
//!
//! - [`CountingAlloc`] is a global allocator that forwards to
//!   [`System`] and counts, per thread, every call that obtains memory
//!   and the bytes those calls ask for.
//!   It is installed in exactly one test binary (`flux-rt`'s
//!   `alloc_budget`), which pins allocations per warm operation.
//! - [`sha1_compress`] runs SHA1's compression function on the CPU's
//!   SHA instructions where the CPU has them, and reports `false`
//!   elsewhere so that `flux-hash` runs its portable compressor. It is
//!   why shipped binaries link this crate: `flux-hash` depends on it.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Const-initialized and free of destructors, so reading or bumping
    /// it never allocates and never re-enters the allocator.
    static ALLOCATIONS: Cell<Allocs> = const { Cell::new(Allocs { calls: 0, bytes: 0 }) };
}

/// What the allocator was asked for on one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocs {
    /// `alloc`, `alloc_zeroed` and `realloc` calls.
    pub calls: u64,
    /// The bytes those calls asked for: each allocation's size, and the
    /// new size of each `realloc`.
    pub bytes: u64,
}

/// Counts `alloc`, `alloc_zeroed` and `realloc` calls on the calling
/// thread and sums the bytes they ask for, then forwards them to
/// [`System`]. Install it with
/// `#[global_allocator] static A: flux_sys::CountingAlloc = flux_sys::CountingAlloc;`.
pub struct CountingAlloc;

fn bump(bytes: usize) {
    // During thread teardown the slot may be gone: such an allocation
    // goes uncounted rather than aborting the process.
    let _ = ALLOCATIONS.try_with(|n| {
        let Allocs { calls, bytes: sum } = n.get();
        n.set(Allocs { calls: calls + 1, bytes: sum + bytes as u64 });
    });
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// implements the `GlobalAlloc` contract; the only other work is `bump`,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's obligations on `layout` are `System::alloc`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: forwarded under this method's own contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's obligations on `layout` are `System::alloc_zeroed`'s.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
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
        bump(new_size);
        // SAFETY: forwarded under this method's own contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns its result with the allocations it made on this
/// thread and the bytes they asked for. Always zero unless
/// [`CountingAlloc`] is the global allocator.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, Allocs) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    (out, Allocs { calls: after.calls - before.calls, bytes: after.bytes - before.bytes })
}

/// Applies SHA1's compression function (FIPS 180-1) to `state` once per
/// block of `blocks`, in order, on the CPU's SHA instructions, and
/// returns `true`. Where the CPU has none this crate can drive — it
/// needs `x86_64` with the SHA extensions and SSE4.1, which std detects
/// once and caches — it returns `false` and leaves `state` untouched,
/// and the caller runs its portable compressor.
pub fn sha1_compress(state: &mut [u32; 5], blocks: &[[u8; 64]]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("sha") && std::is_x86_feature_detected!("sse4.1") {
        // SAFETY: `sha` and `sse4.1` were just detected, and every CPU
        // with SSE4.1 has SSSE3 and SSE2: all four features are present.
        unsafe { sha1_compress_x86(state, blocks) };
        return true;
    }
    // Unused when no hardware path is compiled in.
    let _ = (state, blocks);
    false
}

/// The Intel SHA-extension schedule: ABCD (A in the top lane) and E stay
/// in registers across blocks; each `sha1rnds4` runs four rounds.
///
/// # Safety
///
/// Calling it is `unsafe` outside code built with the four features it
/// enables: the caller must have detected them on this CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn sha1_compress_x86(state: &mut [u32; 5], blocks: &[[u8; 64]]) {
    use std::arch::x86_64::*;

    // Reverses all 16 bytes: four big-endian words, the first in the top lane.
    let bswap = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let [a, b, c, d, e] = state.map(|w| w as i32);
    let mut abcd = _mm_set_epi32(a, b, c, d);
    let mut e = _mm_set_epi32(e, 0, 0, 0);
    for block in blocks {
        let [mut w0, mut w1, mut w2, mut w3] = [0, 16, 32, 48].map(|at| {
            // SAFETY: `at + 16 <= 64`, so the unaligned 16-byte load reads
            // inside `block`.
            let words = unsafe { _mm_loadu_si128(block[at..].as_ptr().cast()) };
            _mm_shuffle_epi8(words, bswap)
        });
        // `prev` is the ABCD of four rounds back, whose A rotated is E.
        let mut prev = abcd;
        let mut cur = _mm_sha1rnds4_epu32(abcd, _mm_add_epi32(e, w0), 0);
        macro_rules! rounds4 {
            ($w:expr, $f:literal) => {
                let next = _mm_sha1rnds4_epu32(cur, _mm_sha1nexte_epu32(prev, $w), $f);
                (prev, cur) = (cur, next);
            };
        }
        // The next four message words replace the oldest four, `$w0`.
        macro_rules! schedule_rounds4 {
            ($w0:ident, $w1:ident, $w2:ident, $w3:ident, $f:literal) => {
                $w0 = _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32($w0, $w1), $w2), $w3);
                rounds4!($w0, $f);
            };
        }
        rounds4!(w1, 0);
        rounds4!(w2, 0);
        rounds4!(w3, 0);
        schedule_rounds4!(w0, w1, w2, w3, 0);
        schedule_rounds4!(w1, w2, w3, w0, 1);
        schedule_rounds4!(w2, w3, w0, w1, 1);
        schedule_rounds4!(w3, w0, w1, w2, 1);
        schedule_rounds4!(w0, w1, w2, w3, 1);
        schedule_rounds4!(w1, w2, w3, w0, 1);
        schedule_rounds4!(w2, w3, w0, w1, 2);
        schedule_rounds4!(w3, w0, w1, w2, 2);
        schedule_rounds4!(w0, w1, w2, w3, 2);
        schedule_rounds4!(w1, w2, w3, w0, 2);
        schedule_rounds4!(w2, w3, w0, w1, 2);
        schedule_rounds4!(w3, w0, w1, w2, 3);
        schedule_rounds4!(w0, w1, w2, w3, 3);
        schedule_rounds4!(w1, w2, w3, w0, 3);
        schedule_rounds4!(w2, w3, w0, w1, 3);
        schedule_rounds4!(w3, w0, w1, w2, 3);
        abcd = _mm_add_epi32(abcd, cur);
        e = _mm_sha1nexte_epu32(prev, e);
    }
    *state = [
        _mm_extract_epi32(abcd, 3),
        _mm_extract_epi32(abcd, 2),
        _mm_extract_epi32(abcd, 1),
        _mm_extract_epi32(abcd, 0),
        _mm_extract_epi32(e, 3),
    ]
    .map(|w| w as u32);
}

#[cfg(test)]
mod tests {
    /// A dispatcher that silently falls back fails here, not only in a
    /// benchmark.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn sha_capable_x86_cpus_take_the_hardware_path() {
        if std::is_x86_feature_detected!("sha") && std::is_x86_feature_detected!("sse4.1") {
            assert!(super::sha1_compress(&mut [0; 5], &[[0; 64]]));
        }
    }
}
