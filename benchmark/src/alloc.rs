//! The counting global allocator.
//!
//! It stays on in untraced runs too: each call into it costs two or
//! three relaxed atomic adds on top of the system allocator, and the
//! untraced and traced runs then use the same allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to [`System`] and counts calls and bytes.
pub struct Counting;

// Statistics only: nothing is published through these, so `Relaxed`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's contract is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's contract is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A resize is one call that frees the old size and takes the new.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's contract is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnap {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes handed out.
    pub allocated: u64,
    /// Bytes given back.
    pub freed: u64,
}

impl AllocSnap {
    /// Read the counters.
    pub fn now() -> AllocSnap {
        AllocSnap {
            allocs: ALLOCS.load(Ordering::Relaxed),
            allocated: ALLOCATED.load(Ordering::Relaxed),
            freed: FREED.load(Ordering::Relaxed),
        }
    }

    /// Bytes allocated and not yet freed.
    pub fn live(&self) -> i64 {
        self.allocated as i64 - self.freed as i64
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &AllocSnap) -> AllocSnap {
        AllocSnap {
            allocs: self.allocs - earlier.allocs,
            allocated: self.allocated - earlier.allocated,
            freed: self.freed - earlier.freed,
        }
    }
}
