//! Heap allocations per call as pins. A warm-scratch compression and
//! decompression allocate a fixed number of times for a given input, so a
//! stray copy or an extra working buffer shows here as a changed count,
//! where a timing would hide it in noise. So does a fresh-scratch
//! compression, the path of every call that brings no scratch; there the
//! calls of 8 KiB or more are pinned too, the buffers that set its peak.
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

use lcpio_sz::{compress_typed, compress_typed_with, decompress_into, ErrorBound, SzConfig, SzScratch};

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Of those, the calls asking for [`LARGE`] bytes or more.
    static LARGE_CALLS: Cell<u64> = const { Cell::new(0) };
}

const LARGE: usize = 8 << 10;

fn count(size: usize) {
    CALLS.with(|c| c.set(c.get() + 1));
    if size >= LARGE {
        LARGE_CALLS.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counts are const-initialized thread-local `Cell`s, which allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls (`alloc`, `alloc_zeroed` and `realloc`) `f` makes on
/// this thread, and of those the calls for [`LARGE`] bytes or more (a
/// `realloc` counts by its new size).
fn calls_of<R>(f: impl FnOnce() -> R) -> ((u64, u64), R) {
    let before = (CALLS.with(Cell::get), LARGE_CALLS.with(Cell::get));
    let r = f();
    ((CALLS.with(Cell::get) - before.0, LARGE_CALLS.with(Cell::get) - before.1), r)
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
    let ((compress, _), stream) = calls_of(|| compress_typed_with(data, dims, &cfg, &mut enc).expect("compress"));
    assert_eq!(stream.bytes, warm.bytes, "a warm scratch writes the same stream");
    let ((decompress, _), _) = calls_of(|| decompress_into(&stream.bytes, &mut out, &mut dec).expect("decompress"));
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
    // At 1e-4 the exact table packs past 4 KiB, so the class form is
    // priced (its table built and packed: 13 calls more) and written; its
    // decoder builds from 144 class lengths instead of unpacking and
    // linking a table of thousands (7 calls fewer).
    assert_eq!(counts(chunk, &dims, 1e-4), (39, 15), "NYX chunk at 1e-4");
    // Constant: the LZSS pass is kept, and decoding expands it. The first
    // residual is the value's whole lattice index, so the code table spans
    // hundreds of symbols.
    assert_eq!(counts(&vec![1.0f32; n], &dims, 1e-3), (27, 7), "constant chunk");
}

#[test]
fn a_fresh_scratch_request_allocates_a_pinned_number_of_times() {
    // A serve request and a stream chunk: rank-1, 16 384 elements of a
    // CESM field (6 656 values, repeated, as the stream workloads build
    // their chunks), through `compress_typed` and so a fresh scratch.
    let cesm = lcpio_datagen::Dataset::CesmAtm.generate(65536, 11).data;
    let chunk: Vec<f32> = (0..16_384).map(|i| cesm[i % cesm.len()]).collect();
    let cfg = SzConfig::new(ErrorBound::Absolute(1e-3));
    let first = compress_typed(&chunk, &[chunk.len()], &cfg).expect("compress");
    let (calls, out) = calls_of(|| compress_typed(&chunk, &[chunk.len()], &cfg).expect("compress"));
    assert_eq!(out.bytes, first.bytes);
    // (all calls, calls of 8 KiB or more).
    assert_eq!(calls, (53, 20), "CESM request, fresh scratch");
}

#[test]
fn a_fresh_scratch_dump_chunk_allocates_a_pinned_number_of_times() {
    // One chunk of the data-dump cube: the first 12 planes of the NYX
    // velocity field at 96³, through `compress_typed`.
    let dims = [12usize, 96, 96];
    let nyx = lcpio_datagen::nyx::velocity_x(96, 11);
    let chunk = &nyx.data[..dims.iter().product()];
    // At 1e-4 the class form is priced and written (see the warm case).
    for (eb, pin) in [(1e-1, (43, 12)), (1e-4, (84, 29))] {
        let cfg = SzConfig::new(ErrorBound::Absolute(eb));
        let first = compress_typed(chunk, &dims, &cfg).expect("compress");
        let (calls, out) = calls_of(|| compress_typed(chunk, &dims, &cfg).expect("compress"));
        assert_eq!(out.bytes, first.bytes);
        // (all calls, calls of 8 KiB or more).
        assert_eq!(calls, pin, "NYX dump chunk at {eb:e}, fresh scratch");
    }
}
