//! Heap allocations per call as pins. A warm-scratch compression and
//! decompression allocate a fixed number of times for a given input, so a
//! stray copy or an extra working buffer shows here as a changed count,
//! where a timing would hide it in noise.
//!
//! The counting allocator counts the calls of the thread that makes them
//! (the harness's other threads allocate too), and every case runs once
//! before the counted call: the scratch is warm, and with `lcpio-trace`
//! enabled every span and counter is registered by then, so the pins are
//! the same with tracing on and off.
//!
//! A change that lowers a count re-pins it and says why.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lcpio_sz::{compress_typed_with, decompress_into, ErrorBound, SzConfig, SzScratch};

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    CALLS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// count is a const-initialized thread-local `Cell`, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls (`alloc`, `alloc_zeroed` and `realloc`) `f` makes on
/// this thread.
fn calls_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = CALLS.with(Cell::get);
    let r = f();
    (CALLS.with(Cell::get) - before, r)
}

/// Allocation calls of one warm-scratch compression of `data` and one
/// warm-scratch decompression of its stream.
fn counts(data: &[f32], dims: &[usize], eb: f64) -> (u64, u64) {
    let cfg = SzConfig::new(ErrorBound::Absolute(eb));
    let mut enc = SzScratch::<f32>::new();
    let mut dec = SzScratch::<f32>::new();
    let mut out = vec![0f32; data.len()];
    let warm = compress_typed_with(data, dims, &cfg, &mut enc).expect("compress");
    decompress_into(&warm.bytes, &mut out, &mut dec).expect("decompress");
    let (compress, stream) = calls_of(|| compress_typed_with(data, dims, &cfg, &mut enc).expect("compress"));
    assert_eq!(stream.bytes, warm.bytes, "a warm scratch writes the same stream");
    let (decompress, _) = calls_of(|| decompress_into(&stream.bytes, &mut out, &mut dec).expect("decompress"));
    (compress, decompress)
}

#[test]
fn warm_scratch_calls_allocate_a_pinned_number_of_times() {
    let dims = [12usize, 48, 48];
    let n: usize = dims.iter().product();
    let nyx = lcpio_datagen::nyx::velocity_x(48, 11);
    let chunk = &nyx.data[..n];
    // (compress, decompress) per case.
    assert_eq!(counts(chunk, &dims, 1e-1), (27, 14), "NYX chunk at 1e-1");
    assert_eq!(counts(chunk, &dims, 1e-4), (26, 22), "NYX chunk at 1e-4");
    // Constant: the LZSS pass is kept, and decoding expands it.
    assert_eq!(counts(&vec![1.0f32; n], &dims, 1e-3), (20, 4), "constant chunk");
}
