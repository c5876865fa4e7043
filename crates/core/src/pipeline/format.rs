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
//! frame encoding for the writers, and one frame walk ([`FrameWalk`]) for
//! every reader. The walk reads through a [`Cursor`]: positioned reads for
//! the scan ([`scan_stream`]) behind random-access restart and serial
//! decode, a forward-only reader for streamed restart. Both read the same
//! bytes with the same checks, so they accept and reject the same streams.

use super::restart::{ChunkSource, STREAM_READ_BYTES};
use crate::error::{CoreError, PipelineError};
use lcpio_codec::policy::CodecId;
use lcpio_codec::CodecError;
use lcpio_sz::SzError;
use lcpio_zfp::ZfpError;
use lcpio_wire::envelope::{parse_header_partial, Envelope};
use lcpio_wire::varint::{self, Partial};
use std::io;

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
// Frame checks and decode
// ---------------------------------------------------------------------------

/// The one frame-kind check.
fn check_kind(seq: usize, kind: u8) -> Result<(), CoreError> {
    if kind != FRAME_COMPRESSED && kind != FRAME_RAW {
        return Err(err(seq, "unknown frame tag"));
    }
    Ok(())
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

/// Decode one frame payload into `out`, its range of the restored field.
/// A frame whose element count is not its range's length is refused
/// before a value is written. Shared by
/// [`decode_stream`](super::decode_stream) and the restart pipelines so
/// every path applies identical rules.
pub(super) fn decode_frame(
    kind: u8,
    payload: &[u8],
    seq: usize,
    out: &mut [f32],
) -> Result<(), CoreError> {
    check_kind(seq, kind)?;
    let range_mismatch = || err(seq, "frame element count does not match its range");
    if kind == FRAME_COMPRESSED {
        let decoded = lcpio_codec::registry()
            .by_magic(payload)
            .and_then(|(codec, _)| codec.decompress_into(payload, out, 1));
        return match decoded {
            Ok(_dims) => Ok(()),
            Err(CodecError::Sz(SzError::InvalidDims) | CodecError::Zfp(ZfpError::InvalidDims)) => {
                Err(range_mismatch())
            }
            Err(e) => Err(err(seq, format!("chunk decode failed: {e}"))),
        };
    }
    if !payload.len().is_multiple_of(4) {
        return Err(err(seq, "raw frame length not a multiple of 4"));
    }
    if payload.len() / 4 != out.len() {
        return Err(range_mismatch());
    }
    for (v, c) in out.iter_mut().zip(payload.chunks_exact(4)) {
        *v = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
    Ok(())
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

/// `field` (the restored array) cut into runs of `chunk_elements`, the
/// last possibly shorter: frame `seq`'s range is the `seq`-th, and a
/// checked stream has one frame per run. An empty field has no runs, so
/// the zero chunk size an empty stream may carry cuts nothing.
pub(super) fn ranges(field: &mut [f32], chunk_elements: usize) -> std::slice::ChunksMut<'_, f32> {
    field.chunks_mut(chunk_elements.max(1))
}

/// Scan a streaming container's header and frame table — either the
/// legacy `LCS1` layout or its `LCW1` wire form (auto-detected from the
/// magic) — by walking its frames off positioned reads. Only the header
/// and the few bytes in front of each payload are read.
///
/// Every length that later drives an allocation is validated here against
/// the *actual* stream size, so a forged header can never trigger a huge
/// pre-allocation: frame lengths must fit inside the stream, and the
/// promised element count is capped at `MAX_EXPANSION`× the payload bytes.
/// The frame count must be the one the header's geometry calls for, so
/// the frames cut the restored field into exactly their ranges.
pub fn scan_stream(source: &dyn ChunkSource) -> Result<StreamLayout, CoreError> {
    let mut walk = FrameWalk::open(Positioned { source, off: 0, head: Vec::new() })?;
    let mut frames = Vec::with_capacity(walk.geometry.frames.min(1 << 16) as usize);
    while let Some((kind, (off, len))) = walk.next_frame()? {
        frames.push(FrameEntry { kind, off, len });
    }
    let Geometry { elements, chunk_elements, codec_tags, .. } = walk.geometry;
    Ok(StreamLayout {
        // The capacity guard `open` applies proved the count fits a usize.
        elements: elements as usize,
        chunk_elements: chunk_elements as usize,
        frames,
        codec_tags,
    })
}

// ---------------------------------------------------------------------------
// The frame walk
// ---------------------------------------------------------------------------

/// What a stream header promises, in either layout.
pub(super) struct Geometry {
    pub(super) elements: u64,
    pub(super) chunk_elements: u64,
    /// Frames the geometry calls for: one per `chunk_elements` run of the
    /// element count, the last possibly shorter. Frame `seq` holds the
    /// elements `seq · chunk_elements ..`, no more and no fewer.
    pub(super) frames: u64,
    /// `CODEC_TAGS` of a mixed-codec wire stream.
    codec_tags: Option<Vec<u8>>,
}

impl Geometry {
    /// Read the 16 `PARAMS` bytes (the legacy header's two `u64`s):
    /// element count, then chunk size, which only an empty stream may
    /// leave zero.
    fn new(p: &[u8], codec_tags: Option<Vec<u8>>) -> Result<Self, CoreError> {
        let elements = u64::from_le_bytes(p[..8].try_into().expect("8 bytes"));
        let chunk_elements = u64::from_le_bytes(p[8..16].try_into().expect("8 bytes"));
        if chunk_elements == 0 && elements > 0 {
            return Err(err(0, "zero chunk size"));
        }
        let frames = elements.div_ceil(chunk_elements.max(1));
        Ok(Geometry { elements, chunk_elements, frames, codec_tags })
    }
}

/// Where the frame walk reads its bytes: positioned reads off a
/// [`ChunkSource`] ([`Positioned`]) or a forward-only reader
/// ([`Forward`]). The walk never knows which, so both accept and reject
/// the same streams with the same errors.
pub(super) trait Cursor {
    /// What a frame's payload comes back as.
    type Payload;
    /// Up to `n` bytes at the cursor, fewer only where the stream ends.
    /// The cursor does not move.
    fn peek(&mut self, n: usize) -> Result<&[u8], CoreError>;
    /// Move past `n` bytes the last `peek` returned.
    fn advance(&mut self, n: usize);
    /// Bytes behind the cursor, when the stream's length is known.
    fn remaining(&self) -> Option<u64> {
        None
    }
    /// Take the next `len` bytes as a payload; a stream that ends first is
    /// truncated.
    fn payload(&mut self, len: usize) -> Result<Self::Payload, CoreError>;
}

/// Positioned reads off a [`ChunkSource`]: a payload is skipped, and comes
/// back as its `(offset, len)`.
struct Positioned<'s> {
    source: &'s dyn ChunkSource,
    off: u64,
    /// The bytes the last `peek` read.
    head: Vec<u8>,
}

impl Cursor for Positioned<'_> {
    type Payload = (u64, usize);

    fn peek(&mut self, n: usize) -> Result<&[u8], CoreError> {
        self.head.resize((self.source.len() - self.off).min(n as u64) as usize, 0);
        self.source.read_at(self.off, &mut self.head).map_err(read_err)?;
        Ok(&self.head)
    }

    fn advance(&mut self, n: usize) {
        self.off += n as u64;
    }

    fn remaining(&self) -> Option<u64> {
        Some(self.source.len() - self.off)
    }

    fn payload(&mut self, len: usize) -> Result<(u64, usize), CoreError> {
        if len as u64 > self.source.len() - self.off {
            return Err(err(0, "truncated frame payload"));
        }
        self.advance(len);
        Ok((self.off - len as u64, len))
    }
}

/// A forward-only reader behind a read-ahead buffer of one
/// [`STREAM_READ_BYTES`] fill, which widens only to hold a wire header
/// (see [`wire_header`]). A payload is copied out of it into a buffer of
/// its own, grown only as its bytes arrive, so a forged length sizes
/// nothing the stream does not back.
pub(super) struct Forward<'r> {
    reader: &'r mut dyn io::Read,
    buf: Vec<u8>,
    /// The unread bytes are `buf[at..end]`.
    at: usize,
    end: usize,
    /// Bytes read off `reader` so far.
    pub(super) bytes_in: u64,
    /// High-water mark of the bytes held that no decode worker has yet:
    /// the read-ahead plus the payload being read.
    pub(super) peak: usize,
}

impl<'r> Forward<'r> {
    pub(super) fn new(reader: &'r mut dyn io::Read) -> Self {
        Forward { reader, buf: Vec::new(), at: 0, end: 0, bytes_in: 0, peak: 0 }
    }
}

impl Cursor for Forward<'_> {
    type Payload = Vec<u8>;

    fn peek(&mut self, n: usize) -> Result<&[u8], CoreError> {
        if self.end - self.at < n {
            self.buf.copy_within(self.at..self.end, 0);
            (self.at, self.end) = (0, self.end - self.at);
            self.buf.resize(self.buf.len().max(n).max(STREAM_READ_BYTES), 0);
            while self.end < n {
                let got = loop {
                    match self.reader.read(&mut self.buf[self.end..]) {
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        got => break got.map_err(read_err)?,
                    }
                };
                if got == 0 {
                    break;
                }
                self.end += got;
                self.bytes_in += got as u64;
            }
            self.peak = self.peak.max(self.end);
        }
        Ok(&self.buf[self.at..self.end.min(self.at + n)])
    }

    fn advance(&mut self, n: usize) {
        self.at += n;
    }

    fn payload(&mut self, len: usize) -> Result<Vec<u8>, CoreError> {
        let mut payload = Vec::with_capacity(len.min(STREAM_READ_BYTES));
        while payload.len() < len {
            let got = self.peek((len - payload.len()).min(STREAM_READ_BYTES))?;
            if got.is_empty() {
                return Err(err(0, "truncated frame payload"));
            }
            let n = got.len();
            // Double as the bytes arrive, never past `len`.
            payload.reserve_exact(payload.len().max(n).min(len - payload.len()));
            payload.extend_from_slice(got);
            self.advance(n);
        }
        self.peak = self.peak.max(self.end - self.at + payload.len());
        Ok(payload)
    }
}

fn read_err(e: io::Error) -> CoreError {
    err(0, format!("stream read failed: {e}"))
}

/// The one walk over an `LCS1` stream's frames, in either layout, through
/// either [`Cursor`]: it sniffs `LCW1` from the first four bytes and reads
/// the header into its [`Geometry`], then yields each frame's kind and
/// payload in turn, and last checks that the stream ends where the
/// geometry says.
pub(super) struct FrameWalk<C> {
    pub(super) cursor: C,
    pub(super) geometry: Geometry,
    /// `LCW1` layout, else legacy.
    wire: bool,
    /// Frames yielded so far.
    next: u64,
}

impl<C: Cursor> FrameWalk<C> {
    /// Read the stream header. Where the cursor knows the stream's length,
    /// the promised element count must pass the capacity guard; a wire
    /// header's frame count must be the one its geometry calls for.
    pub(super) fn open(mut cursor: C) -> Result<Self, CoreError> {
        let head = cursor.peek(LEGACY_HEADER_LEN)?;
        let wire = head.starts_with(&lcpio_wire::MAGIC);
        let (geometry, frame_count) = if wire {
            wire_header(&mut cursor)?
        } else if head.len() == LEGACY_HEADER_LEN && head.starts_with(&STREAM_MAGIC) {
            let geometry = Geometry::new(&head[4..], None)?;
            cursor.advance(LEGACY_HEADER_LEN);
            // The legacy layout carries no frame count of its own.
            let frames = geometry.frames;
            (geometry, frames)
        } else {
            return Err(err(0, "not an LCS1 stream"));
        };
        // The one decoded-size gate ([`lcpio_wire::MAX_EXPANSION`] elements
        // per stored byte): no supported frame expands further. SZ refuses
        // past 8 elements per byte of its payload *after* LZSS has been
        // undone, and LZSS stores at most 83 payload bytes per byte; ZFP
        // stops at 512 and raw frames are 4 bytes per element. A header
        // promising more than the bytes behind it could hold is forged —
        // rejected before the count sizes any allocation.
        if let Some(rest) = cursor.remaining() {
            let rest = usize::try_from(rest).unwrap_or(usize::MAX);
            lcpio_wire::guard_element_count(geometry.elements, rest)
                .map_err(|_| err(0, "element count exceeds stream capacity"))?;
        }
        if frame_count != geometry.frames {
            return Err(err(0, "frame count does not match the header's geometry"));
        }
        Ok(FrameWalk { cursor, geometry, wire, next: 0 })
    }

    /// The next frame's kind and payload, or `None` once every frame the
    /// geometry calls for has come and the stream ended with the last.
    pub(super) fn next_frame(&mut self) -> Result<Option<(u8, C::Payload)>, CoreError> {
        if self.next == self.geometry.frames {
            if self.cursor.peek(1)?.is_empty() {
                return Ok(None);
            }
            let msg = "frame count does not match the header's geometry (trailing bytes)";
            return Err(err(0, msg));
        }
        let (kind, len) = if self.wire { self.wire_frame()? } else { self.legacy_frame()? };
        let payload = self.cursor.payload(len)?;
        self.next += 1;
        Ok(Some((kind, payload)))
    }

    /// A legacy `[kind][u32 len]` frame header: the kind and payload length.
    fn legacy_frame(&mut self) -> Result<(u8, usize), CoreError> {
        let fh = self.cursor.peek(LEGACY_FRAME_HEADER_LEN)?;
        if fh.is_empty() {
            // The stream ran out of frames before the geometry did.
            return Err(err(0, "frame count does not match the header's geometry"));
        }
        if fh.len() < LEGACY_FRAME_HEADER_LEN {
            return Err(err(0, "truncated frame header"));
        }
        let kind = fh[0];
        check_kind(0, kind)?;
        let len = u32::from_le_bytes(fh[1..5].try_into().expect("4 bytes")) as usize;
        self.cursor.advance(LEGACY_FRAME_HEADER_LEN);
        Ok((kind, len))
    }

    /// An `LCW1` frame's length, the kind byte in front of its payload and,
    /// when the header carries codec tags, the payload magic behind that:
    /// the kind and payload length.
    fn wire_frame(&mut self) -> Result<(u8, usize), CoreError> {
        let fh = self.cursor.peek(varint::MAX_LEN + 5)?;
        let Partial::Ready(len, used) = varint::read_frame_len(fh).map_err(wire_err)? else {
            return Err(err(0, "truncated frame header"));
        };
        let head = &fh[used..fh.len().min(used + len.min(5))];
        if head.len() < len.min(5) {
            return Err(err(0, "truncated frame payload"));
        }
        let Some((&kind, magic)) = head.split_first() else {
            return Err(err(0, "empty wire frame (missing kind byte)"));
        };
        check_kind(0, kind)?;
        let seq = self.next as usize;
        if let Some(&tag) = self.geometry.codec_tags.as_ref().and_then(|t| t.get(seq)) {
            check_codec_tag(seq, tag, kind, magic)?;
        }
        self.cursor.advance(used + 1);
        Ok((kind, len - 1))
    }
}

/// Read an `LCW1` header at the cursor: the geometry its `PARAMS` field
/// carries and its frame count. The window doubles until the envelope
/// parses; the wire crate refuses a TLV block past
/// [`lcpio_wire::MAX_HEADER_LEN`], so it stops short of twice that.
fn wire_header(cursor: &mut impl Cursor) -> Result<(Geometry, u64), CoreError> {
    let mut want = 256;
    loop {
        let buf = cursor.peek(want)?;
        match parse_header_partial(buf).map_err(wire_err)? {
            Partial::Ready(env, used) => {
                if env.container != STREAM_MAGIC {
                    return Err(err(0, "wire envelope does not carry an LCS1 stream"));
                }
                let params = env.params().filter(|p| p.len() == 16);
                let params = params.ok_or_else(|| err(0, "wire LCS1 params must be 16 bytes"))?;
                let tags = env.codec_tags().map_err(wire_err)?.map(<[u8]>::to_vec);
                let header = (Geometry::new(params, tags)?, env.frame_count as u64);
                cursor.advance(used);
                return Ok(header);
            }
            Partial::NeedMore if buf.len() < want => {
                return Err(err(0, "truncated wire envelope header"));
            }
            Partial::NeedMore => want *= 2,
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
