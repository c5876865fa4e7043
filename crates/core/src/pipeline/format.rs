//! The `LCS1` streaming container: the only module that knows its bytes.
//!
//! Two layouts carry the same frames. The legacy layout is a 20-byte
//! header (`LCS1`, element count `u64`, chunk size `u64`, little-endian)
//! followed by `[kind u8][len u32][payload]` frames. The wire layout is an
//! `LCW1` envelope whose container id is `LCS1`: the two `u64`s travel in
//! the `PARAMS` field, mixed-codec streams add a `CODEC_TAGS` field, and
//! each envelope frame is the kind byte followed by the payload.
//!
//! Everything here is written once and used by every path: header and
//! frame encoding for the writers, the positioned scan ([`scan_stream`])
//! for random-access restart and serial decode, and the push framer for
//! forward-only restart. The parsers below the scan and the framer are
//! shared, so both accept and reject the same streams.

use super::restart::ChunkSource;
use crate::error::{CoreError, PipelineError};
use lcpio_codec::policy::CodecId;
use lcpio_wire::envelope::{parse_header_partial, Envelope};
use lcpio_wire::stream::StreamDecoder;
use lcpio_wire::varint::{self, Partial};

/// Magic prefix of the streaming container.
pub const STREAM_MAGIC: [u8; 4] = *b"LCS1";

/// Frame tag: payload is a registry-decodable compressed stream.
pub(super) const FRAME_COMPRESSED: u8 = 0;
/// Frame tag: payload is raw little-endian `f32`s (codec-failure fallback).
pub(super) const FRAME_RAW: u8 = 1;

/// Legacy header: magic, element count, chunk size.
const LEGACY_HEADER_LEN: usize = 20;
/// Legacy frame header: kind byte, `u32` payload length.
const LEGACY_FRAME_HEADER_LEN: usize = 5;

fn err(seq: usize, msg: impl Into<String>) -> CoreError {
    CoreError::Pipeline(PipelineError::new(seq, 0, msg))
}

/// Typed error for a wire-envelope failure inside the core pipeline.
fn wire_err(e: lcpio_wire::WireError) -> CoreError {
    err(0, format!("wire envelope: {e}"))
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Serialize the LCS1 geometry (element count, chunk size) as the LCW1
/// `PARAMS` field — the wire-form replacement for the legacy 20-byte
/// header's two `u64`s.
pub(super) fn lcs_params(elements: u64, chunk_elements: u64) -> [u8; 16] {
    let mut p = [0u8; 16];
    p[..8].copy_from_slice(&elements.to_le_bytes());
    p[8..].copy_from_slice(&chunk_elements.to_le_bytes());
    p
}

/// Render the stream header: the legacy 20-byte `LCS1` header (magic,
/// element count, chunk size), or the `LCW1` envelope header carrying the
/// same geometry in its `PARAMS` field when `wire` is set. A wire header
/// additionally carries the per-frame `CODEC_TAGS` TLV when `codec_tags`
/// is given (mixed-codec containers only — the legacy header has no TLV
/// space, and fixed-policy wire streams omit the field so their bytes are
/// unchanged from earlier writers).
pub(super) fn header_bytes(
    wire: bool,
    elements: u64,
    chunk_elements: u64,
    chunks: usize,
    codec_tags: Option<&[u8]>,
) -> Vec<u8> {
    let params = lcs_params(elements, chunk_elements);
    if wire {
        let mut b = lcpio_wire::EnvelopeBuilder::new(STREAM_MAGIC).params(&params);
        if let Some(tags) = codec_tags {
            b = b.codec_tags(tags);
        }
        return b.header_bytes(chunks);
    }
    [&STREAM_MAGIC[..], &params[..]].concat()
}

/// Frame one chunk payload for the container: legacy `[kind][u32 len]`
/// framing, or an LCW1 frame (varint length, kind byte leading the
/// payload) when `wire` is set.
pub(super) fn frame_bytes(wire: bool, kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out;
    if wire {
        out = lcpio_wire::envelope::frame_prefix(payload.len() + 1);
        out.reserve(payload.len() + 1);
        out.push(kind);
    } else {
        out = Vec::with_capacity(LEGACY_FRAME_HEADER_LEN + payload.len());
        out.push(kind);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    }
    out.extend_from_slice(payload);
    out
}

/// The payload of a [`FRAME_RAW`] frame: the chunk's elements verbatim.
pub(super) fn raw_payload(chunk: &[f32]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(chunk.len() * 4);
    for &v in chunk {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    payload
}

// ---------------------------------------------------------------------------
// Shared parsers
// ---------------------------------------------------------------------------

/// What a stream header promises, in either layout.
struct Geometry {
    elements: u64,
    chunk_elements: u64,
    /// `CODEC_TAGS` of a mixed-codec wire stream.
    codec_tags: Option<Vec<u8>>,
}

/// Parse the legacy 20-byte header at the front of `head`.
fn parse_legacy_header(head: &[u8]) -> Result<Geometry, CoreError> {
    if head.len() < LEGACY_HEADER_LEN || head[..4] != STREAM_MAGIC {
        return Err(err(0, "not an LCS1 stream"));
    }
    Ok(Geometry {
        elements: u64::from_le_bytes(head[4..12].try_into().expect("8 bytes")),
        chunk_elements: u64::from_le_bytes(head[12..20].try_into().expect("8 bytes")),
        codec_tags: None,
    })
}

/// Parse a legacy `[kind][u32 len]` frame header into `(kind, len)`.
fn parse_legacy_frame_header(fh: &[u8]) -> Result<(u8, usize), CoreError> {
    check_kind(0, fh[0])?;
    Ok((fh[0], u32::from_le_bytes(fh[1..5].try_into().expect("4 bytes")) as usize))
}

/// Extract the stream geometry and codec tags from a wire header.
fn wire_geometry(env: &Envelope<'_>) -> Result<Geometry, CoreError> {
    if env.container != STREAM_MAGIC {
        return Err(err(0, "wire envelope does not carry an LCS1 stream"));
    }
    let params = env.params().ok_or_else(|| err(0, "wire LCS1 header missing params"))?;
    let p: [u8; 16] =
        params.try_into().map_err(|_| err(0, "wire LCS1 params must be 16 bytes"))?;
    Ok(Geometry {
        elements: u64::from_le_bytes(p[..8].try_into().expect("8 bytes")),
        chunk_elements: u64::from_le_bytes(p[8..].try_into().expect("8 bytes")),
        codec_tags: env.codec_tags().map_err(wire_err)?.map(<[u8]>::to_vec),
    })
}

/// The one frame-kind check.
fn check_kind(seq: usize, kind: u8) -> Result<(), CoreError> {
    if kind != FRAME_COMPRESSED && kind != FRAME_RAW {
        return Err(err(seq, "unknown frame tag"));
    }
    Ok(())
}

/// Validate the front of wire frame `seq` — its kind byte and, when the
/// header carried codec tags, the payload magic behind it — and return
/// the kind. `head` is the frame's first (up to five) bytes.
fn check_wire_frame(seq: usize, head: &[u8], tags: Option<&[u8]>) -> Result<u8, CoreError> {
    let Some((&kind, rest)) = head.split_first() else {
        return Err(err(0, "empty wire frame (missing kind byte)"));
    };
    check_kind(0, kind)?;
    if let Some(&tag) = tags.and_then(|t| t.get(seq)) {
        check_codec_tag(seq, tag, kind, &rest[..rest.len().min(4)])?;
    }
    Ok(kind)
}

/// Cross-check one frame against its header codec tag.
///
/// `FRAME_RAW` is accepted under any tag: the raw fallback keeps the
/// *planned* codec's tag (the header is written before compression runs).
/// A compressed frame must carry the tagged codec's container magic — an
/// unknown id or a forged tag is a typed error, caught during the scan
/// before any decode work. `magic` is the first (up to four) payload
/// bytes after the kind byte.
fn check_codec_tag(seq: usize, tag_byte: u8, kind: u8, magic: &[u8]) -> Result<(), CoreError> {
    let Some(tagged) = CodecId::from_u8(tag_byte) else {
        return Err(err(seq, "unknown codec id in codec-tag field"));
    };
    if kind != FRAME_COMPRESSED {
        return Ok(());
    }
    if tagged == CodecId::Raw {
        return Err(err(seq, "codec tag mismatch: raw tag on compressed frame"));
    }
    if magic.len() >= 4 && magic[..4] == lcpio_wire::MAGIC {
        // A wire-wrapped payload's inner codec resolves only through its
        // own envelope; the cheap scan leaves it to decode-time checks.
        return Ok(());
    }
    match lcpio_codec::registry().by_magic(magic) {
        Ok((codec, _)) if codec.name() == tagged.name() => Ok(()),
        _ => Err(err(seq, "codec tag mismatch: frame payload carries a different codec")),
    }
}

/// The one decoded-size gate ([`lcpio_wire::MAX_EXPANSION`] elements per
/// stored byte): no supported frame expands further. SZ refuses past 8
/// elements per byte of its payload *after* LZSS has been undone, and LZSS
/// stores at most 83 payload bytes per byte; ZFP stops at 512 and raw
/// frames are 4 bytes per element. A header promising more than the bytes
/// behind it could hold is forged — rejected before the count sizes any
/// allocation.
fn guard_elements(elements: u64, payload_bytes: u64) -> Result<usize, CoreError> {
    let bytes = usize::try_from(payload_bytes).unwrap_or(usize::MAX);
    lcpio_wire::guard_element_count(elements, bytes)
        .map_err(|_| err(0, "element count exceeds stream capacity"))
}

/// Decode one frame payload into its elements. Shared by
/// [`decode_stream`](super::decode_stream) and the restart pipelines so
/// every path applies identical rules.
pub(super) fn decode_frame(kind: u8, payload: &[u8], seq: usize) -> Result<Vec<f32>, CoreError> {
    check_kind(seq, kind)?;
    if kind == FRAME_COMPRESSED {
        return match lcpio_codec::registry().decompress_auto(payload, 1) {
            Ok((vals, _dims)) => Ok(vals),
            Err(e) => Err(err(seq, format!("chunk decode failed: {e}"))),
        };
    }
    if !payload.len().is_multiple_of(4) {
        return Err(err(seq, "raw frame length not a multiple of 4"));
    }
    Ok(payload.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
}

/// True if `bytes` are a streaming pipeline container in either its
/// legacy `LCS1` form or wrapped in an `LCW1` envelope whose container
/// id is `LCS1`.
pub fn is_stream_container(bytes: &[u8]) -> bool {
    bytes.starts_with(&STREAM_MAGIC)
        || Envelope::sniff(bytes)
            && Envelope::parse(bytes).is_ok_and(|env| env.container == STREAM_MAGIC)
}

/// One-line description of the container `bytes` hold: the streaming
/// container in either layout, else whatever the codec registry recognizes
/// (a codec container, bare or `LCW1`-wrapped). `None` for an unknown
/// magic or fewer than 4 bytes.
pub fn describe(bytes: &[u8]) -> Option<&'static str> {
    if bytes.starts_with(&STREAM_MAGIC) {
        Some("streaming pipeline container (LCS1)")
    } else if is_stream_container(bytes) {
        Some("LCW1 wire envelope (LCS1 streaming container)")
    } else {
        lcpio_codec::registry().describe(bytes)
    }
}

// ---------------------------------------------------------------------------
// Positioned scan
// ---------------------------------------------------------------------------

/// One frame's location inside the container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct FrameEntry {
    pub(super) kind: u8,
    pub(super) off: u64,
    pub(super) len: usize,
}

/// Index of an `LCS1` container: the header fields plus the offset and
/// length of every frame, built by one cheap scan over the frame headers
/// (payloads untouched).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamLayout {
    /// Total element count promised by the header.
    pub elements: usize,
    /// Elements per chunk (the last chunk may be shorter).
    pub chunk_elements: usize,
    pub(super) frames: Vec<FrameEntry>,
    codec_tags: Option<Vec<u8>>,
}

impl StreamLayout {
    /// Number of chunk frames in the container.
    pub fn chunks(&self) -> usize {
        self.frames.len()
    }

    /// Payload length in bytes of the largest frame — the dominant term of
    /// the streamed-restart buffering bound.
    pub fn max_frame_len(&self) -> usize {
        self.frames.iter().map(|f| f.len).max().unwrap_or(0)
    }

    /// Per-frame codec tags from the wire header's `CODEC_TAGS` TLV, if
    /// the container carried one (mixed-codec wire streams do; legacy and
    /// fixed-policy streams do not). Validated by the scan: one known id
    /// per frame, consistent with each compressed frame's payload magic.
    pub fn codec_tags(&self) -> Option<&[u8]> {
        self.codec_tags.as_deref()
    }
}

/// Positioned read of `len` bytes at `off`, as a typed scan error.
fn read_vec(
    source: &dyn ChunkSource,
    off: u64,
    len: usize,
    what: &str,
) -> Result<Vec<u8>, CoreError> {
    let mut buf = vec![0u8; len];
    source.read_at(off, &mut buf).map_err(|e| err(0, format!("{what} read failed: {e}")))?;
    Ok(buf)
}

/// Scan a streaming container's header and frame table — either the
/// legacy `LCS1` layout or its `LCW1` wire form (auto-detected from the
/// magic).
///
/// Every length that later drives an allocation is validated here against
/// the *actual* stream size, so a forged header can never trigger a huge
/// pre-allocation: frame lengths must fit inside the stream, and the
/// promised element count is capped at `MAX_EXPANSION`× the payload bytes.
pub fn scan_stream(source: &dyn ChunkSource) -> Result<StreamLayout, CoreError> {
    let total = source.len();
    let head = read_vec(source, 0, total.min(LEGACY_HEADER_LEN as u64) as usize, "header")?;
    if head.starts_with(&lcpio_wire::MAGIC) {
        return scan_wire_stream(source);
    }
    let geometry = parse_legacy_header(&head)?;
    let mut off = LEGACY_HEADER_LEN as u64;
    let elements = guard_elements(geometry.elements, total - off)?;
    let mut frames = Vec::new();
    while off < total {
        if off + LEGACY_FRAME_HEADER_LEN as u64 > total {
            return Err(err(0, "truncated frame header"));
        }
        let fh = read_vec(source, off, LEGACY_FRAME_HEADER_LEN, "frame header")?;
        let (kind, len) = parse_legacy_frame_header(&fh)?;
        off += LEGACY_FRAME_HEADER_LEN as u64;
        if len as u64 > total - off {
            return Err(err(0, "truncated frame payload"));
        }
        frames.push(FrameEntry { kind, off, len });
        off += len as u64;
    }
    Ok(StreamLayout {
        elements,
        chunk_elements: geometry.chunk_elements as usize,
        frames,
        codec_tags: None,
    })
}

/// Scan the `LCW1` wire form of the streaming container into the same
/// [`StreamLayout`] the legacy scan produces, so every decode path (serial
/// decode, sequential restart, overlapped restart) handles both forms
/// identically.
///
/// The scan reads only the envelope header plus ~15 bytes per frame
/// boundary — payloads stay untouched — and applies the same validation as
/// the legacy path: frame extents proven in-bounds with checked
/// arithmetic, nothing trailing the final frame, and the promised element
/// count capped at `MAX_EXPANSION`× the payload bytes.
fn scan_wire_stream(source: &dyn ChunkSource) -> Result<StreamLayout, CoreError> {
    let total = source.len();
    // Incrementally widen the header window until the envelope parses; it
    // is bounded by the wire crate's 1 MiB TLV-block ceiling.
    let cap = total.min(lcpio_wire::MAX_HEADER_LEN as u64 + 64) as usize;
    let mut want = cap.min(256);
    let (geometry, frame_count, frames_at) = loop {
        let buf = read_vec(source, 0, want, "header")?;
        match parse_header_partial(&buf).map_err(wire_err)? {
            Partial::Ready(env, used) => break (wire_geometry(&env)?, env.frame_count, used as u64),
            Partial::NeedMore if want >= cap => {
                return Err(err(0, "truncated wire envelope header"));
            }
            Partial::NeedMore => want = (want * 2).min(cap),
        }
    };
    let elements = guard_elements(geometry.elements, total - frames_at)?;

    let mut frames = Vec::with_capacity(frame_count.min(1 << 16));
    let mut off = frames_at;
    for seq in 0..frame_count {
        // One read covers the length varint, the kind byte and the
        // payload magic the codec-tag check looks at.
        let avail = (total - off).min(varint::MAX_LEN as u64 + 5) as usize;
        let fh = read_vec(source, off, avail, "frame header")?;
        let (len, used) = match varint::read_partial(&fh).map_err(wire_err)? {
            Partial::Ready(len, used) => (len, used),
            Partial::NeedMore => return Err(err(0, "truncated frame header")),
        };
        let payload_at = off + used as u64;
        if len > total - payload_at {
            return Err(err(0, "truncated frame payload"));
        }
        let head = &fh[used..fh.len().min(used + (len as usize).min(5))];
        let kind = check_wire_frame(seq, head, geometry.codec_tags.as_deref())?;
        frames.push(FrameEntry { kind, off: payload_at + 1, len: (len - 1) as usize });
        off = payload_at + len;
    }
    if off != total {
        return Err(err(0, "trailing bytes after final wire frame"));
    }
    Ok(StreamLayout {
        elements,
        chunk_elements: geometry.chunk_elements as usize,
        frames,
        codec_tags: geometry.codec_tags,
    })
}

// ---------------------------------------------------------------------------
// Push framer (forward-only input)
// ---------------------------------------------------------------------------

enum Framing {
    /// Fewer than four bytes seen: the layout is not known yet.
    Sniff,
    Wire(StreamDecoder),
    Legacy,
}

/// Format-sniffing incremental frame splitter for sources that only
/// support forward reads: buffers the first four bytes, then routes
/// everything through the wire crate's [`StreamDecoder`] (`LCW1`) or
/// splits the legacy layout itself, with the same parsers the positioned
/// scan uses.
pub(super) struct PushFramer {
    framing: Framing,
    /// Sniffed prefix, then (legacy) bytes awaiting a frame boundary.
    buf: Vec<u8>,
    peak: usize,
    geometry: Option<Geometry>,
    /// Frames handed out so far — indexes into the codec tags.
    next_frame: usize,
}

impl PushFramer {
    pub(super) fn new() -> Self {
        PushFramer {
            framing: Framing::Sniff,
            buf: Vec::new(),
            peak: 0,
            geometry: None,
            next_frame: 0,
        }
    }

    /// Push bytes in; get back every frame they completed as `(kind,
    /// bytes, start)`, its payload being `bytes[start..]` (an `LCW1` frame
    /// keeps its codec-id byte in front, so no payload byte is moved).
    /// Errors are terminal.
    pub(super) fn feed(&mut self, chunk: &[u8]) -> Result<Vec<(u8, Vec<u8>, usize)>, CoreError> {
        if let Framing::Wire(dec) = &mut self.framing {
            let frames = dec.feed(chunk).map_err(wire_err)?;
            if self.geometry.is_none() {
                if let Some(h) = dec.header() {
                    self.geometry = Some(wire_geometry(&h.envelope())?);
                }
            }
            let tags = self.geometry.as_ref().and_then(|g| g.codec_tags.as_deref());
            let mut out = Vec::with_capacity(frames.len());
            for f in frames {
                let kind = check_wire_frame(self.next_frame, &f.payload, tags)?;
                self.next_frame += 1;
                out.push((kind, f.payload, 1));
            }
            return Ok(out);
        }
        self.buf.extend_from_slice(chunk);
        self.peak = self.peak.max(self.buf.len());
        if matches!(self.framing, Framing::Sniff) {
            if self.buf.len() < 4 {
                return Ok(Vec::new());
            }
            if self.buf.starts_with(&lcpio_wire::MAGIC) {
                self.framing = Framing::Wire(StreamDecoder::new());
                let sniffed = std::mem::take(&mut self.buf);
                return self.feed(&sniffed);
            }
            self.framing = Framing::Legacy;
        }
        let mut cursor = 0usize;
        if self.geometry.is_none() {
            if self.buf.len() < LEGACY_HEADER_LEN {
                return Ok(Vec::new());
            }
            self.geometry = Some(parse_legacy_header(&self.buf)?);
            cursor = LEGACY_HEADER_LEN;
        }
        let mut out = Vec::new();
        while let Some(fh) = self.buf.get(cursor..cursor + LEGACY_FRAME_HEADER_LEN) {
            let (kind, len) = parse_legacy_frame_header(fh)?;
            let start = cursor + LEGACY_FRAME_HEADER_LEN;
            let Some(payload) = self.buf.get(start..start + len) else {
                break; // partial frame: wait for more bytes
            };
            out.push((kind, payload.to_vec(), 0));
            cursor = start + len;
        }
        self.buf.drain(..cursor);
        Ok(out)
    }

    /// Declare end-of-input; errors if a header or frame is incomplete.
    pub(super) fn finish(&self) -> Result<(), CoreError> {
        match &self.framing {
            Framing::Sniff => Err(err(0, "truncated stream")),
            Framing::Wire(dec) => dec.finish().map_err(wire_err),
            Framing::Legacy if self.geometry.is_none() => Err(err(0, "truncated LCS1 header")),
            Framing::Legacy if !self.buf.is_empty() => Err(err(0, "truncated frame")),
            Framing::Legacy => Ok(()),
        }
    }

    /// Element count promised by the header, once it has arrived.
    pub(super) fn elements(&self) -> Option<u64> {
        self.geometry.as_ref().map(|g| g.elements)
    }

    /// High-water mark of bytes buffered awaiting a frame boundary.
    pub(super) fn peak_buffered(&self) -> usize {
        match &self.framing {
            Framing::Wire(dec) => dec.peak_buffered(),
            _ => self.peak,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::test_support::*;
    use crate::pipeline::{decode_stream, run_restart, run_restart_streamed, SliceSource};
    use crate::records::Compressor;
    use lcpio_codec::BoundSpec;

    #[test]
    fn forged_element_count_is_rejected_before_allocation() {
        // A 20-byte header promising u64::MAX elements must be refused by
        // the capacity guard, not drive a giant Vec::with_capacity.
        let mut stream = header_bytes(false, u64::MAX, 1 << 18, 1, None);
        stream.extend_from_slice(&[FRAME_RAW, 4, 0, 0, 0, 0, 0, 0, 0]);
        let source = SliceSource::new(&stream);
        let err = scan_stream(&source).expect_err("forged header");
        assert!(err.to_string().contains("element count exceeds stream capacity"), "{err}");
        assert!(decode_stream(&stream).is_err());
        assert!(run_restart(&source, &restart_cfg()).is_err());
    }

    #[test]
    fn scan_stream_indexes_frames_without_touching_payloads() {
        let data = field(4_321);
        let stream = stream_of(&data);
        let layout = scan_stream(&SliceSource::new(&stream)).expect("scan");
        assert_eq!(layout.elements, data.len());
        assert_eq!(layout.chunk_elements, 1000);
        assert_eq!(layout.chunks(), 5);
    }

    #[test]
    fn wire_and_legacy_streams_decode_identically() {
        let data = field(7_321);
        let legacy = stream_of(&data);
        let wire = wire_stream_of(&data);
        assert_eq!(&legacy[..4], &STREAM_MAGIC);
        assert_eq!(&wire[..4], &lcpio_wire::MAGIC);
        let a = decode_stream(&legacy).expect("decode legacy");
        let b = decode_stream(&wire).expect("decode wire");
        assert_eq!(bits(&a), bits(&b));
        // Both scans agree on the geometry; only the framing differs.
        let la = scan_stream(&SliceSource::new(&legacy)).expect("scan legacy");
        let lb = scan_stream(&SliceSource::new(&wire)).expect("scan wire");
        assert_eq!(la.elements, lb.elements);
        assert_eq!(la.chunk_elements, lb.chunk_elements);
        assert_eq!(la.chunks(), lb.chunks());
        // The envelope's header and varint frame lengths cost under 1 % of
        // the legacy container, already at 8 chunks of 1000 elements.
        let toll = wire.len().abs_diff(legacy.len());
        assert!(toll * 100 < legacy.len(), "legacy {} B, wire {} B", legacy.len(), wire.len());
    }

    #[test]
    fn wire_scan_rejects_forged_element_count() {
        // A wire header claiming u64::MAX elements over a tiny payload
        // must trip the capacity guard during the scan.
        let mut stream = header_bytes(true, u64::MAX, 1 << 18, 1, None);
        let frame = frame_bytes(true, FRAME_RAW, &[0u8; 4]);
        stream.extend_from_slice(&frame);
        let err = scan_stream(&SliceSource::new(&stream)).expect_err("forged header");
        assert!(err.to_string().contains("element count exceeds stream capacity"), "{err}");
        assert!(decode_stream(&stream).is_err());
    }

    #[test]
    fn wire_scan_rejects_foreign_container_and_bad_frame_kind() {
        // An LCW1 envelope whose container id is not LCS1 is not a
        // streaming container.
        let env = lcpio_wire::EnvelopeBuilder::new(*b"SZL1")
            .params(&lcs_params(0, 1))
            .build(&[b"xxxx"]);
        assert!(scan_stream(&SliceSource::new(&env)).is_err());
        // A frame whose kind byte is neither compressed nor raw is
        // rejected during the scan, before any decode work.
        let mut bad = header_bytes(true, 4, 4, 1, None);
        bad.extend_from_slice(&frame_bytes(true, 7, &[0u8; 16]));
        let err = scan_stream(&SliceSource::new(&bad)).expect_err("bad kind");
        assert!(err.to_string().contains("unknown frame tag"), "{err}");
    }

    #[test]
    fn adaptive_policy_emits_mixed_codec_container_and_roundtrips() {
        let (data, stream) = mixed_stream(4096, 6);
        let layout = scan_stream(&SliceSource::new(&stream)).expect("scan");
        let tags = layout.codec_tags().expect("adaptive wire stream carries tags").to_vec();
        assert_eq!(tags.len(), 6);
        assert!(tags.contains(&CodecId::Sz.as_u8()), "no SZ chunk: {tags:?}");
        assert!(tags.contains(&CodecId::Zfp.as_u8()), "no ZFP chunk: {tags:?}");
        let back = decode_stream(&stream).expect("decode");
        assert_eq!(back.len(), data.len());
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() as f64 <= 1e-3 * 1.0000001, "{a} vs {b}");
        }
    }

    #[test]
    fn fixed_policy_wire_stream_carries_no_codec_tags() {
        let stream = wire_stream_of(&field(2_500));
        let layout = scan_stream(&SliceSource::new(&stream)).expect("scan");
        assert!(layout.codec_tags().is_none());
    }

    #[test]
    fn forged_codec_tag_is_rejected_by_scan_and_streamed_paths() {
        let data = field(600);
        let enc = Compressor::Sz
            .codec()
            .compress(&data, &[600], BoundSpec::Absolute(1e-3))
            .expect("compress");
        let mut payload = vec![FRAME_COMPRESSED];
        payload.extend_from_slice(&enc.bytes);

        // Tag claims ZFP over an SZ payload: typed error, both paths.
        let forged = tagged_envelope(&[CodecId::Zfp.as_u8()], &[payload.as_slice()]);
        let err = scan_stream(&SliceSource::new(&forged)).expect_err("forged tag");
        assert!(err.to_string().contains("codec tag mismatch"), "{err}");
        let mut rd: &[u8] = &forged;
        let err = run_restart_streamed(&mut rd, &restart_cfg()).expect_err("forged tag");
        assert!(err.to_string().contains("codec tag mismatch"), "{err}");

        // A raw tag over a compressed frame is forged too.
        let raw_tag = tagged_envelope(&[CodecId::Raw.as_u8()], &[payload.as_slice()]);
        assert!(scan_stream(&SliceSource::new(&raw_tag)).is_err());

        // The honest tag decodes.
        let honest = tagged_envelope(&[CodecId::Sz.as_u8()], &[payload.as_slice()]);
        assert_eq!(decode_stream(&honest).expect("decode").len(), 600);

        // A raw frame is accepted under any tag (fallback keeps the
        // planned codec's tag).
        let mut raw_payload = vec![FRAME_RAW];
        for v in &data {
            raw_payload.extend_from_slice(&v.to_le_bytes());
        }
        let fallback = tagged_envelope(&[CodecId::Zfp.as_u8()], &[raw_payload.as_slice()]);
        assert_eq!(decode_stream(&fallback).expect("decode"), data);
    }

    #[test]
    fn unknown_codec_id_in_tags_is_a_typed_error() {
        let data = field(600);
        let enc = Compressor::Sz
            .codec()
            .compress(&data, &[600], BoundSpec::Absolute(1e-3))
            .expect("compress");
        let mut payload = vec![FRAME_COMPRESSED];
        payload.extend_from_slice(&enc.bytes);
        let bad = tagged_envelope(&[9], &[payload.as_slice()]);
        let err = scan_stream(&SliceSource::new(&bad)).expect_err("unknown id");
        assert!(err.to_string().contains("unknown codec id"), "{err}");
        let mut rd: &[u8] = &bad;
        assert!(run_restart_streamed(&mut rd, &restart_cfg()).is_err());
        // Wrong tag count never reaches the codec check: the envelope
        // accessor rejects the shape.
        let short = tagged_envelope(&[1, 2], &[payload.as_slice()]);
        let err = scan_stream(&SliceSource::new(&short)).expect_err("shape");
        assert!(err.to_string().contains("wire envelope"), "{err}");
    }
}
