//! Counting global allocator: live and peak heap bytes of this process.
//!
//! The end-to-end pass calls [`reset_peak`] once after set-up and reads
//! [`peak_bytes`] once after the window, so `peak_heap_mb` includes what
//! set-up left resident (the field, the references) plus the most the
//! ops, their checks and the server's threads ever held on top.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The allocator installed by `main.rs`.
pub struct Counting;

// Statistics only: no other memory is published through these counters.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's layout
// unchanged; the counters never influence which memory is handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc's `mallopt(3)`.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fix glibc malloc's trim and mmap thresholds for this process, so that
/// freed memory stays mapped and is reused.
///
/// With the defaults both thresholds adapt while the program runs, and a
/// thread arena gives the top of its heap back to the kernel whenever
/// the block freed last happens to lie there. Whether it does depends on
/// the order of the first allocations, so one run of `serve_mixed` in
/// three settled into a state where every compress request faulted its
/// buffers in again: twice the minor faults, +0.7 ms on a 1.9 ms request
/// for the whole run, whatever the commit. Returns whether both
/// settings were accepted; on another C library it does nothing.
pub fn pin_malloc_thresholds() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` takes two plain integers and only stores
        // tuning values inside the allocator; it may be called at any
        // time, from any thread. 32 MiB is the largest mmap threshold
        // glibc accepts; every block the workloads allocate is smaller.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1 && mallopt(M_MMAP_THRESHOLD, 1 << 25) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    false
}

/// Bytes currently allocated.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of live bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Restart the high-water mark from the current live size.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Other tests allocate concurrently in this process, so the
    /// assertions leave a few MiB of slack around a 64 MiB block.
    #[test]
    fn peak_follows_a_large_block_and_reset_forgets_it() {
        const BLOCK: usize = 64 << 20;
        const SLACK: usize = 8 << 20;
        reset_peak();
        let before = live_bytes();
        let block = std::hint::black_box(vec![1u8; BLOCK]);
        assert!(live_bytes() >= before + BLOCK - SLACK);
        assert!(peak_bytes() >= before + BLOCK - SLACK);
        drop(block);
        assert!(live_bytes() < before + SLACK);
        // The peak remembers the block until it is reset.
        assert!(peak_bytes() >= before + BLOCK - SLACK);
        reset_peak();
        assert!(peak_bytes() < before + SLACK);
    }
}
