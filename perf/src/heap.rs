//! Heap accounting for the per-operation memory metric.
//!
//! The process's `VmHWM` is dominated by the benchmark's own input pool
//! and, being a lifetime maximum, by the one rare request whose sweep
//! takes a memory-hungry path; neither says what a typical request
//! costs. The binary's global allocator therefore forwards every call to
//! the system allocator unchanged and keeps two relaxed counters: the
//! live heap bytes and their high-water mark since the last reset.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator plus live/peak byte counters.
#[derive(Debug)]
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// mfti-lint: allow(MFTI-D4) — `GlobalAlloc` is an unsafe trait; every
// method forwards its arguments to `System` unchanged and only updates
// the counters, so the allocator contract is `System`'s own.
unsafe impl GlobalAlloc for Counting {
    // mfti-lint: allow(MFTI-D4) — forwards to `System::alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    // mfti-lint: allow(MFTI-D4) — forwards to `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    // mfti-lint: allow(MFTI-D4) — forwards to `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    // mfti-lint: allow(MFTI-D4) — forwards to `System::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Starts a new high-water mark at the bytes live now; returns them.
pub fn start() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Peak bytes above `base` since [`start`], in MiB.
pub fn peak_mb_above(base: usize) -> f64 {
    PEAK.load(Relaxed).saturating_sub(base) as f64 / (1024.0 * 1024.0)
}
