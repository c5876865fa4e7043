//! What a trace-on build records about the lossless back end: how large
//! the Huffman table was and is, what the LZSS pass was given and made of
//! it, whether its output was kept, and how large a compact alphabet the
//! entropy stage built its tables over; and how predict-quantize splits
//! into choosing each block's predictor and quantizing. One test function,
//! so nothing else in this process touches the registry.
#![cfg(feature = "trace")]

use lcpio_sz::trace;
use lcpio_sz::{compress_typed, ErrorBound, SzConfig};

#[test]
fn lossless_back_end_counters_tell_kept_from_dropped() {
    let cfg = SzConfig::new(ErrorBound::Absolute(1e-3));
    let dims = [12usize, 48, 48];
    let n: usize = dims.iter().product();

    // One chunk of the NYX cube: the table packs to a fraction, the LZSS
    // pass is run, loses to its literal tax and is dropped.
    let nyx = lcpio_datagen::nyx::velocity_x(48, 11);
    trace::reset();
    let out = compress_typed(&nyx.data[..n], &dims, &cfg).expect("compress");
    let report = trace::snapshot();
    let counter = |name: &str| report.counter(name).unwrap_or_else(|| panic!("no {name} counter"));
    assert_eq!((counter("sz.lossless.kept"), counter("sz.lossless.dropped")), (0, 1));
    let (dense, packed) = (counter("sz.table.dense_bytes"), counter("sz.table.packed_bytes"));
    assert!(dense > 1000 && packed * 4 < dense, "table {dense} -> {packed}");
    // The compact alphabet the tables were built over: sixteen slots per
    // granule in use, far fewer than the 65 537 symbols of the quantizer,
    // no fewer than the symbols that have a code.
    let (slots, entries) = (counter("sz.huffman.slots"), counter("sz.huffman.table_entries"));
    assert_eq!((slots, entries), (14_192, 4_941), "compact alphabet, coded symbols");
    let (bytes_in, bytes_out) = (counter("sz.lossless.bytes_in"), counter("sz.lossless.bytes_out"));
    assert_eq!(bytes_in + 13, out.bytes.len() as u64, "the payload is stored as it is");
    assert!(bytes_out > bytes_in, "LZSS {bytes_in} -> {bytes_out}");
    let huffman = report.span("sz.huffman").expect("sz.huffman span");
    let pack = report.span("sz.table.pack").expect("sz.table.pack span");
    assert_eq!((huffman.count, pack.count), (1, 1));
    assert!(pack.total_ns <= huffman.total_ns, "sz.table.pack lies inside sz.huffman");
    // Predict-quantize is block selection plus quantization, one lap of
    // each per row of blocks (2 × 8 of them here) inside the one span.
    let span = |name: &str| report.span(name).unwrap_or_else(|| panic!("no {name} span"));
    let (whole, select, quantize) = (span("sz.predict_quantize"), span("sz.select"), span("sz.quantize"));
    assert_eq!((whole.count, select.count, quantize.count), (1, 16, 16));
    assert!(select.total_ns > 0 && quantize.total_ns > 0);
    assert!(select.total_ns + quantize.total_ns <= whole.total_ns, "both lie inside sz.predict_quantize");

    // A constant chunk: a table too short to pack, an LZSS pass that is kept.
    trace::reset();
    let out = compress_typed(&vec![1.0f32; n], &dims, &cfg).expect("compress");
    let report = trace::snapshot();
    let counter = |name: &str| report.counter(name).unwrap_or_else(|| panic!("no {name} counter"));
    assert_eq!((counter("sz.lossless.kept"), counter("sz.lossless.dropped")), (1, 0));
    assert_eq!(counter("sz.table.dense_bytes"), counter("sz.table.packed_bytes"));
    assert_eq!(counter("sz.lossless.bytes_out") + 13, out.bytes.len() as u64);

    // Whole-array Lorenzo (rank 1) chooses nothing.
    trace::reset();
    compress_typed(&nyx.data[..n], &[n], &cfg).expect("compress");
    let report = trace::snapshot();
    assert!(report.span("sz.predict_quantize").is_some());
    assert!(report.span("sz.select").is_none() && report.span("sz.quantize").is_none());

    // With the back end off, neither part runs.
    trace::reset();
    compress_typed(&nyx.data[..n], &dims, &cfg.with_lossless(false)).expect("compress");
    let report = trace::snapshot();
    assert_eq!(report.counter("sz.lossless.kept"), None);
    assert!(report.span("sz.table.pack").is_none() && report.span("sz.lossless").is_none());
    assert_eq!(report.counter("sz.table.dense_bytes"), report.counter("sz.table.packed_bytes"));
}
