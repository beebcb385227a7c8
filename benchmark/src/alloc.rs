//! A counting `#[global_allocator]` for the traced run: allocations,
//! bytes requested and live heap, all threads of the process (the
//! servers run in-process, so their allocations are seen too).
//!
//! When counting is off every call costs one relaxed load on top of
//! the system allocator, so the untraced run measures the product's
//! allocator behaviour, not this wrapper's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The system allocator plus three statistics counters.
pub struct Counting;

// Relaxed everywhere: the counters publish no other data.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

fn size_of_layout(layout: Layout) -> i64 {
    i64::try_from(layout.size()).unwrap_or(i64::MAX)
}

fn count_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only additions are
// atomic counter updates, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract
    // (non-zero-sized layout), which is exactly `System.alloc`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            count_alloc(layout.size());
            LIVE.fetch_add(size_of_layout(layout), Relaxed);
        }
        // SAFETY: same layout, same contract, forwarded as received.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller guarantees `ptr` came from this allocator with
    // this `layout`; every block this allocator hands out is `System`'s.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(size_of_layout(layout), Relaxed);
        }
        // SAFETY: `ptr` was returned by `System` for `layout` (above).
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller guarantees `ptr`/`layout` describe a live block
    // of this allocator and that `new_size` is valid for the alignment.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            count_alloc(new_size);
            let new = i64::try_from(new_size).unwrap_or(i64::MAX);
            LIVE.fetch_add(new - size_of_layout(layout), Relaxed);
        }
        // SAFETY: `ptr` is `System`'s block for `layout`; forwarded as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Start counting. Called once, first thing in a traced run, so the
/// live-heap figure covers (almost) everything the run allocates.
pub fn enable() {
    ENABLED.store(true, Relaxed);
}

/// `(allocations, bytes requested)` since [`enable`].
pub fn totals() -> (u64, u64) {
    (ALLOCS.load(Relaxed), BYTES.load(Relaxed))
}

/// Bytes allocated and not yet freed since [`enable`].
pub fn live_bytes() -> i64 {
    LIVE.load(Relaxed)
}
