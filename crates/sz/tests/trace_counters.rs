//! What a trace-on build records about the lossless back end: how large
//! the Huffman table was and is, what the LZSS pass was given and made of
//! it, whether its output was kept (and so written), and how large a
//! compact alphabet the entropy stage built its tables over; how the
//! entropy stage splits into histogram, build, emit and table pack; that
//! predict-quantize is one span with nothing inside it, at every rank; and
//! how the decode walk splits into table unpack, decoder build, symbol
//! decode and reconstruction. One test function, so nothing else in this
//! process touches the registry.

use lcpio_sz::header::FLAG_CLASS_CODES;
use lcpio_sz::trace;
use lcpio_sz::{compress_typed, decompress_into, ErrorBound, SzConfig, SzScratch};

#[test]
fn lossless_back_end_counters_tell_kept_from_dropped() {
    if !trace::collecting() {
        return;
    }
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
    assert_eq!((slots, entries), (14_288, 4_924), "compact alphabet, coded symbols");
    let (bytes_in, bytes_out) = (counter("sz.lossless.bytes_in"), counter("sz.lossless.bytes_out"));
    assert_eq!(bytes_in + 13, out.bytes.len() as u64, "the payload is stored as it is");
    assert!(bytes_out > bytes_in, "LZSS {bytes_in} -> {bytes_out}");
    let huffman = report.span("sz.huffman").expect("sz.huffman span");
    let pack = report.span("sz.table.pack").expect("sz.table.pack span");
    assert_eq!((huffman.count, pack.count), (1, 1));
    assert!(pack.total_ns <= huffman.total_ns, "sz.table.pack lies inside sz.huffman");
    // Predict-quantize is one span with no child span: every span the
    // call recorded is predict-quantize's, or the entropy or lossless
    // stage's.
    let span = |name: &str| report.span(name).unwrap_or_else(|| panic!("no {name} span"));
    assert_eq!(span("sz.predict_quantize").count, 1);
    let others = report.spans.keys().filter(|name| {
        !["sz.predict_quantize", "sz.huffman", "sz.table.pack", "sz.lossless"]
            .iter()
            .any(|stage| name == stage || name.starts_with(&format!("{stage}.")))
    });
    assert_eq!(others.collect::<Vec<_>>(), Vec::<&String>::new(), "spans outside the four stages");
    // The entropy stage's parts, one span each, one after the other inside
    // sz.huffman: histogram, code build, emit, table pack. The LZSS pass
    // is parsed and, dropped, never written.
    let parts = ["sz.huffman.count", "sz.huffman.build", "sz.huffman.emit", "sz.table.pack"].map(span);
    assert!(parts.iter().all(|part| part.count == 1));
    let inside: u64 = parts.iter().map(|part| part.total_ns).sum();
    assert!(inside <= huffman.total_ns, "the parts lie inside sz.huffman");
    assert_eq!(span("sz.lossless").count, 1);
    assert!(report.span("sz.lossless.emit").is_none(), "a dropped LZSS pass is not written");

    // A constant chunk: two codes, the zero residual and the first
    // element's, which is its whole lattice index (500 bins from zero), so
    // the table spans 501 symbols and packs to a few runs; an LZSS pass
    // that is kept.
    trace::reset();
    let out = compress_typed(&vec![1.0f32; n], &dims, &cfg).expect("compress");
    let report = trace::snapshot();
    let counter = |name: &str| report.counter(name).unwrap_or_else(|| panic!("no {name} counter"));
    assert_eq!((counter("sz.lossless.kept"), counter("sz.lossless.dropped")), (1, 0));
    assert_eq!((counter("sz.table.dense_bytes"), counter("sz.table.packed_bytes")), (501, 39));
    assert_eq!(counter("sz.lossless.bytes_out") + 13, out.bytes.len() as u64);
    let span = |name: &str| report.span(name).unwrap_or_else(|| panic!("no {name} span"));
    let (lossless, emit) = (span("sz.lossless"), span("sz.lossless.emit"));
    assert_eq!((lossless.count, emit.count), (1, 1));
    assert!(emit.total_ns <= lossless.total_ns, "sz.lossless.emit lies inside sz.lossless");

    // Rank 1 takes the same one span.
    trace::reset();
    compress_typed(&nyx.data[..n], &[n], &cfg).expect("compress");
    let report = trace::snapshot();
    assert_eq!(report.span("sz.predict_quantize").map(|s| s.count), Some(1));
    assert!(!report.spans.keys().any(|name| name.starts_with("sz.predict_quantize.")));

    // With the back end off, neither part runs.
    trace::reset();
    compress_typed(&nyx.data[..n], &dims, &cfg.with_lossless(false)).expect("compress");
    let report = trace::snapshot();
    assert_eq!(report.counter("sz.lossless.kept"), None);
    assert!(report.span("sz.table.pack").is_none() && report.span("sz.lossless").is_none());
    assert_eq!(report.counter("sz.table.dense_bytes"), report.counter("sz.table.packed_bytes"));

    // The four chunks of the cube, as `lcpio-codec`'s `SZLP` container
    // holds them, at 1e-3 (the exact form) and 1e-4 (the class form: its
    // code built and its table packed beside the exact ones).
    for (eb, form) in [(1e-3, 0), (1e-4, FLAG_CLASS_CODES)] {
        let cfg = SzConfig::new(ErrorBound::Absolute(eb));
        trace::reset();
        let chunks: Vec<Vec<u8>> =
            nyx.data.chunks(n).map(|chunk| compress_typed(chunk, &dims, &cfg).expect("compress").bytes).collect();
        let report = trace::snapshot();
        assert!(chunks.iter().all(|stream| stream[4] & FLAG_CLASS_CODES == form), "eb {eb:e}");
        let priced = 1 + (form != 0) as u64;
        for name in ["sz.huffman.build", "sz.table.pack"] {
            assert_eq!(report.span(name).map(|s| s.count), Some(4 * priced), "{name} at {eb:e}");
        }
        // Decoded as the container's restart decodes them: one scratch,
        // each chunk into its slice of the field. Each stage of the walk is
        // one span a chunk, inside `sz.decompress`.
        let (mut field, mut scratch) = (vec![0f32; nyx.data.len()], SzScratch::new());
        trace::reset();
        for (stream, out) in chunks.iter().zip(field.chunks_mut(n)) {
            decompress_into(stream, out, &mut scratch).expect("decompress");
        }
        let report = trace::snapshot();
        let span = |name: &str| report.span(name).unwrap_or_else(|| panic!("no {name} span at {eb:e}"));
        let parts = ["sz.table.unpack", "sz.huffman.decoder", "sz.huffman.decode", "sz.reconstruct"].map(span);
        assert!(parts.iter().all(|part| part.count == 4), "eb {eb:e}");
        let inside: u64 = parts.iter().map(|part| part.total_ns).sum();
        assert!(inside <= span("sz.decompress").total_ns, "the parts lie inside sz.decompress");
        assert_eq!(report.spans.len(), 5, "{:?}", report.spans.keys());
    }
}
