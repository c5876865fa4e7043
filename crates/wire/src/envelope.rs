//! Envelope header parsing/building and the validated frame index.

use crate::tlv::{self, push_tlv, TlvError};
use crate::varint::{self, Partial};
use crate::{
    tag, WireError, MAGIC, MAX_FRAMES, MAX_FRAME_LEN, MAX_HEADER_LEN, MAX_RANK, VERSION_MAJOR,
    VERSION_MINOR,
};

/// One TLV field as it appeared on the wire, including unknown tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawField<'a> {
    /// Field tag (see [`crate::tag`]).
    pub tag: u8,
    /// Raw value bytes.
    pub value: &'a [u8],
}

/// A parsed, validated envelope header.
#[derive(Debug, Clone)]
pub struct Envelope<'a> {
    /// Envelope major version (≤ [`VERSION_MAJOR`], enforced on parse).
    pub major: u8,
    /// Envelope minor version (any value accepted).
    pub minor: u8,
    /// Inner legacy container magic (`SZLP`, `LCS1`, ...).
    pub container: [u8; 4],
    /// Number of frames following the header.
    pub frame_count: usize,
    /// Every TLV field in wire order, unknown tags included.
    pub fields: Vec<RawField<'a>>,
    /// Byte offset of the first frame (total header length).
    pub frames_at: usize,
}

/// Tags this version understands; each may appear at most once.
const KNOWN_TAGS: [u8; 7] = [
    tag::CONTAINER,
    tag::FRAME_COUNT,
    tag::ELEMENT_TYPE,
    tag::DIMS,
    tag::CHUNK_TABLE,
    tag::PARAMS,
    tag::CODEC_TAGS,
];

/// Incremental header parse from the front of `buf`.
///
/// `NeedMore` means the buffer ends before the header does and more bytes
/// could complete it; every `Err` is final (corruption or version skew no
/// amount of further input can repair).
pub fn parse_header_partial(buf: &[u8]) -> Result<Partial<Envelope<'_>>, WireError> {
    if buf.len() >= 4 && buf[..4] != MAGIC {
        return Err(WireError::BadMagic([buf[0], buf[1], buf[2], buf[3]]));
    }
    if buf.len() < 6 {
        return Ok(Partial::NeedMore);
    }
    let (major, minor) = (buf[4], buf[5]);
    if major > VERSION_MAJOR {
        return Err(WireError::UnsupportedMajor { have: major, supported: VERSION_MAJOR });
    }
    if major == 0 {
        return Err(WireError::Malformed { what: "major version zero" });
    }
    let mut pos = 6usize;
    let tlv_len = match varint::read_partial(&buf[pos..])? {
        Partial::Ready(v, n) => {
            pos += n;
            v
        }
        Partial::NeedMore => return Ok(Partial::NeedMore),
    };
    if tlv_len > MAX_HEADER_LEN as u64 {
        return Err(WireError::LimitExceeded { what: "TLV header length" });
    }
    let end = pos + tlv_len as usize; // pos ≤ 16 and tlv_len ≤ 1 MiB: no overflow
    if buf.len() < end {
        return Ok(Partial::NeedMore);
    }
    let fields = parse_tlv_block(&buf[pos..end])?;

    let mut container: Option<[u8; 4]> = None;
    let mut frame_count: Option<u64> = None;
    for f in &fields {
        match f.tag {
            tag::CONTAINER => {
                let v: [u8; 4] = f
                    .value
                    .try_into()
                    .map_err(|_| WireError::Malformed { what: "container id must be 4 bytes" })?;
                container = Some(v);
            }
            tag::FRAME_COUNT => {
                let mut p = 0usize;
                let v = varint::read(f.value, &mut p)?;
                if p != f.value.len() {
                    return Err(WireError::Malformed { what: "frame count field" });
                }
                if v > MAX_FRAMES as u64 {
                    return Err(WireError::LimitExceeded { what: "frame count" });
                }
                frame_count = Some(v);
            }
            _ => {}
        }
    }
    let container = container.ok_or(WireError::MissingField { tag: tag::CONTAINER })?;
    let frame_count =
        frame_count.ok_or(WireError::MissingField { tag: tag::FRAME_COUNT })? as usize;
    Ok(Partial::Ready(
        Envelope { major, minor, container, frame_count, fields, frames_at: end },
        end,
    ))
}

/// Walk a complete TLV block, collecting every field and rejecting
/// duplicate known tags. Unknown tags are collected but otherwise skipped
/// (forward compatibility).
fn parse_tlv_block(block: &[u8]) -> Result<Vec<RawField<'_>>, WireError> {
    let mut fields = Vec::new();
    let mut seen = [false; 256];
    for field in tlv::fields(block) {
        let field = field.map_err(|e| match e {
            TlvError::Length(_) => WireError::Truncated { section: "TLV field length" },
            TlvError::LengthOverflow => WireError::Overflow { what: "TLV field length" },
            TlvError::ValueTruncated => WireError::Truncated { section: "TLV field value" },
        })?;
        if KNOWN_TAGS.contains(&field.tag) {
            if seen[field.tag as usize] {
                return Err(WireError::DuplicateField { tag: field.tag });
            }
            seen[field.tag as usize] = true;
        }
        fields.push(field);
    }
    Ok(fields)
}

/// Extent of one frame's payload inside the envelope bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameExtent {
    /// Payload start offset.
    pub off: usize,
    /// Payload length in bytes.
    pub len: usize,
}

/// Validated one-pass index over every frame in an envelope: each length
/// checked against the bytes actually present with overflow-proof
/// arithmetic, and nothing allowed to trail the final frame.
#[derive(Debug, Clone)]
pub struct FrameIndex {
    /// Per-frame payload extents, in wire order.
    pub entries: Vec<FrameExtent>,
    /// Total payload bytes across all frames.
    pub payload_bytes: usize,
}

impl<'a> Envelope<'a> {
    /// Parse a complete envelope header from the front of `bytes`.
    pub fn parse(bytes: &'a [u8]) -> Result<Envelope<'a>, WireError> {
        match parse_header_partial(bytes)? {
            Partial::Ready(env, _) => Ok(env),
            Partial::NeedMore => Err(WireError::Truncated { section: "envelope header" }),
        }
    }

    /// True if `bytes` start with the LCW1 magic.
    pub fn sniff(bytes: &[u8]) -> bool {
        bytes.starts_with(&MAGIC)
    }

    /// Build the validated frame index for the envelope `bytes` this
    /// header was parsed from. This is the single length-validation pass:
    /// after it succeeds, every `entries[i]` is a proven in-bounds slice.
    pub fn index(&self, bytes: &[u8]) -> Result<FrameIndex, WireError> {
        let mut pos = self.frames_at;
        if pos > bytes.len() {
            return Err(WireError::Truncated { section: "frame table" });
        }
        let mut entries = Vec::with_capacity(self.frame_count.min(1 << 16));
        let mut payload_bytes = 0usize;
        for _ in 0..self.frame_count {
            let len = varint::read(bytes, &mut pos)
                .map_err(|_| WireError::Truncated { section: "frame length" })?;
            if len > MAX_FRAME_LEN {
                return Err(WireError::LimitExceeded { what: "frame length" });
            }
            let len = len as usize;
            let end = pos.checked_add(len).ok_or(WireError::Overflow { what: "frame extent" })?;
            if end > bytes.len() {
                return Err(WireError::Truncated { section: "frame payload" });
            }
            entries.push(FrameExtent { off: pos, len });
            payload_bytes += len;
            pos = end;
        }
        if pos != bytes.len() {
            return Err(WireError::TrailingBytes { extra: bytes.len() - pos });
        }
        Ok(FrameIndex { entries, payload_bytes })
    }

    /// First field with tag `t`, if present.
    pub fn field(&self, t: u8) -> Option<&'a [u8]> {
        self.fields.iter().find(|f| f.tag == t).map(|f| f.value)
    }

    /// Element type tag, if the field is present.
    pub fn element_type(&self) -> Result<Option<u8>, WireError> {
        match self.field(tag::ELEMENT_TYPE) {
            None => Ok(None),
            Some([t]) => Ok(Some(*t)),
            Some(_) => Err(WireError::Malformed { what: "element type field" }),
        }
    }

    /// Array dims, if the field is present: varint rank then one varint
    /// per extent, rank ≤ [`MAX_RANK`], extents nonzero, product checked.
    pub fn dims(&self) -> Result<Option<Vec<usize>>, WireError> {
        let Some(v) = self.field(tag::DIMS) else { return Ok(None) };
        let mut pos = 0usize;
        let rank = varint::read(v, &mut pos)?;
        if rank == 0 || rank > MAX_RANK as u64 {
            return Err(WireError::LimitExceeded { what: "dims rank" });
        }
        let mut dims = Vec::with_capacity(rank as usize);
        for _ in 0..rank {
            let d = varint::read(v, &mut pos)?;
            let d = usize::try_from(d).map_err(|_| WireError::Overflow { what: "dim extent" })?;
            if d == 0 {
                return Err(WireError::Malformed { what: "zero dim extent" });
            }
            dims.push(d);
        }
        if pos != v.len() {
            return Err(WireError::Malformed { what: "dims field" });
        }
        dims.iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or(WireError::Overflow { what: "dims product" })?;
        Ok(Some(dims))
    }

    /// Per-frame chunk table, if present: exactly `frame_count` pairs of
    /// varints `(start, end)`.
    pub fn chunk_table(&self) -> Result<Option<Vec<(usize, usize)>>, WireError> {
        let Some(v) = self.field(tag::CHUNK_TABLE) else { return Ok(None) };
        let mut pos = 0usize;
        let mut table = Vec::with_capacity(self.frame_count);
        for _ in 0..self.frame_count {
            let a = varint::read(v, &mut pos)?;
            let b = varint::read(v, &mut pos)?;
            let a = usize::try_from(a).map_err(|_| WireError::Overflow { what: "chunk range" })?;
            let b = usize::try_from(b).map_err(|_| WireError::Overflow { what: "chunk range" })?;
            table.push((a, b));
        }
        if pos != v.len() {
            return Err(WireError::Malformed { what: "chunk table field" });
        }
        Ok(Some(table))
    }

    /// Container-specific opaque parameter bytes, if present.
    pub fn params(&self) -> Option<&'a [u8]> {
        self.field(tag::PARAMS)
    }

    /// Per-frame codec tags, if present: exactly `frame_count` bytes, one
    /// codec id per frame. The id values themselves are owned by the codec
    /// layer; the wire layer validates only the field's shape.
    pub fn codec_tags(&self) -> Result<Option<&'a [u8]>, WireError> {
        let Some(v) = self.field(tag::CODEC_TAGS) else { return Ok(None) };
        if v.len() != self.frame_count {
            return Err(WireError::Malformed { what: "codec tags field" });
        }
        Ok(Some(v))
    }
}

/// Builder for envelope headers and whole envelopes.
///
/// Field order is fixed (container, frame count, then extras in insertion
/// order) so identical inputs always serialize to identical bytes.
#[derive(Debug, Clone)]
pub struct EnvelopeBuilder {
    container: [u8; 4],
    major: u8,
    minor: u8,
    fields: Vec<(u8, Vec<u8>)>,
}

impl EnvelopeBuilder {
    /// New builder for the given inner container magic.
    pub fn new(container: [u8; 4]) -> Self {
        EnvelopeBuilder { container, major: VERSION_MAJOR, minor: VERSION_MINOR, fields: Vec::new() }
    }

    /// Override the major version (tests of version skew only).
    pub fn major(mut self, v: u8) -> Self {
        self.major = v;
        self
    }

    /// Override the minor version.
    pub fn minor(mut self, v: u8) -> Self {
        self.minor = v;
        self
    }

    /// Append an arbitrary TLV field (also how unknown-tag streams are
    /// built in forward-compat tests).
    pub fn raw_field(mut self, tag: u8, value: Vec<u8>) -> Self {
        self.fields.push((tag, value));
        self
    }

    /// Append the element type field.
    pub fn element_type(self, t: u8) -> Self {
        self.raw_field(tag::ELEMENT_TYPE, vec![t])
    }

    /// Append the dims field.
    pub fn dims(self, dims: &[usize]) -> Self {
        let mut v = Vec::new();
        varint::write_u64(&mut v, dims.len() as u64);
        for &d in dims {
            varint::write_u64(&mut v, d as u64);
        }
        self.raw_field(tag::DIMS, v)
    }

    /// Append the chunk table field.
    pub fn chunk_table(self, table: &[(usize, usize)]) -> Self {
        let mut v = Vec::new();
        for &(a, b) in table {
            varint::write_u64(&mut v, a as u64);
            varint::write_u64(&mut v, b as u64);
        }
        self.raw_field(tag::CHUNK_TABLE, v)
    }

    /// Append the opaque params field.
    pub fn params(self, bytes: &[u8]) -> Self {
        self.raw_field(tag::PARAMS, bytes.to_vec())
    }

    /// Append the per-frame codec-tag field (one id byte per frame; the
    /// caller must pass exactly as many bytes as frames it will emit).
    pub fn codec_tags(self, tags: &[u8]) -> Self {
        self.raw_field(tag::CODEC_TAGS, tags.to_vec())
    }

    /// Serialize the header for an envelope that will carry `frame_count`
    /// frames. Streaming writers emit this first, then each frame via
    /// [`frame_prefix`] as it completes.
    pub fn header_bytes(&self, frame_count: usize) -> Vec<u8> {
        let mut tlv = Vec::new();
        push_tlv(&mut tlv, tag::CONTAINER, &self.container);
        let mut fc = Vec::new();
        varint::write_u64(&mut fc, frame_count as u64);
        push_tlv(&mut tlv, tag::FRAME_COUNT, &fc);
        for (t, v) in &self.fields {
            push_tlv(&mut tlv, *t, v);
        }
        let mut out = Vec::with_capacity(6 + varint::MAX_LEN + tlv.len());
        out.extend_from_slice(&MAGIC);
        out.push(self.major);
        out.push(self.minor);
        varint::write_u64(&mut out, tlv.len() as u64);
        out.extend_from_slice(&tlv);
        out
    }

    /// Serialize a complete envelope: header plus every frame.
    pub fn build(&self, frames: &[&[u8]]) -> Vec<u8> {
        let mut out = self.header_bytes(frames.len());
        for f in frames {
            varint::write_u64(&mut out, f.len() as u64);
            out.extend_from_slice(f);
        }
        out
    }
}

/// Length prefix a streaming writer emits before each frame payload.
pub fn frame_prefix(len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(varint::MAX_LEN);
    varint::write_u64(&mut v, len as u64);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        EnvelopeBuilder::new(*b"SZLP")
            .element_type(1)
            .dims(&[32, 9, 7])
            .chunk_table(&[(0, 16), (16, 32)])
            .params(&[0xaa, 0xbb])
            .build(&[b"first frame", b"second"])
    }

    #[test]
    fn roundtrip_header_and_index() {
        let bytes = sample();
        let env = Envelope::parse(&bytes).unwrap();
        assert_eq!(env.major, VERSION_MAJOR);
        assert_eq!(env.minor, VERSION_MINOR);
        assert_eq!(env.container, *b"SZLP");
        assert_eq!(env.frame_count, 2);
        assert_eq!(env.element_type().unwrap(), Some(1));
        assert_eq!(env.dims().unwrap(), Some(vec![32, 9, 7]));
        assert_eq!(env.chunk_table().unwrap(), Some(vec![(0, 16), (16, 32)]));
        assert_eq!(env.params(), Some(&[0xaa, 0xbb][..]));
        let idx = env.index(&bytes).unwrap();
        assert_eq!(idx.entries.len(), 2);
        let f0 = idx.entries[0];
        let f1 = idx.entries[1];
        assert_eq!(&bytes[f0.off..f0.off + f0.len], b"first frame");
        assert_eq!(&bytes[f1.off..f1.off + f1.len], b"second");
        assert_eq!(idx.payload_bytes, 17);
    }

    #[test]
    fn empty_envelope_is_valid() {
        let bytes = EnvelopeBuilder::new(*b"LCS1").build(&[]);
        let env = Envelope::parse(&bytes).unwrap();
        assert_eq!(env.frame_count, 0);
        let idx = env.index(&bytes).unwrap();
        assert!(idx.entries.is_empty());
    }

    #[test]
    fn bad_magic_and_missing_fields() {
        let bytes = sample();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(Envelope::parse(&bad), Err(WireError::BadMagic(_))));
        // Header with no container field.
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.push(VERSION_MAJOR);
        out.push(VERSION_MINOR);
        let mut tlv = Vec::new();
        let mut fc = Vec::new();
        varint::write_u64(&mut fc, 0);
        push_tlv(&mut tlv, tag::FRAME_COUNT, &fc);
        varint::write_u64(&mut out, tlv.len() as u64);
        out.extend_from_slice(&tlv);
        assert_eq!(
            Envelope::parse(&out).unwrap_err(),
            WireError::MissingField { tag: tag::CONTAINER }
        );
    }

    #[test]
    fn duplicate_known_tag_rejected() {
        let bytes = EnvelopeBuilder::new(*b"SZLP").element_type(1).element_type(2).build(&[]);
        assert_eq!(
            Envelope::parse(&bytes).unwrap_err(),
            WireError::DuplicateField { tag: tag::ELEMENT_TYPE }
        );
    }

    #[test]
    fn unknown_tags_are_skipped_but_preserved() {
        let bytes = EnvelopeBuilder::new(*b"ZFLP")
            .raw_field(0x7f, vec![1, 2, 3])
            .raw_field(0xee, Vec::new())
            .build(&[b"x"]);
        let env = Envelope::parse(&bytes).unwrap();
        assert_eq!(env.field(0x7f), Some(&[1u8, 2, 3][..]));
        assert_eq!(env.field(0xee), Some(&[][..]));
        env.index(&bytes).unwrap();
    }

    #[test]
    fn version_rules() {
        // Higher minor decodes fine.
        let bytes = EnvelopeBuilder::new(*b"SZLP").minor(9).build(&[b"p"]);
        let env = Envelope::parse(&bytes).unwrap();
        assert_eq!(env.minor, 9);
        env.index(&bytes).unwrap();
        // Higher major is a typed error.
        let bytes = EnvelopeBuilder::new(*b"SZLP").major(VERSION_MAJOR + 1).build(&[b"p"]);
        assert_eq!(
            Envelope::parse(&bytes).unwrap_err(),
            WireError::UnsupportedMajor { have: VERSION_MAJOR + 1, supported: VERSION_MAJOR }
        );
        // Major zero is malformed.
        let bytes = EnvelopeBuilder::new(*b"SZLP").major(0).build(&[b"p"]);
        assert!(matches!(Envelope::parse(&bytes), Err(WireError::Malformed { .. })));
    }

    #[test]
    fn every_truncation_yields_a_typed_error() {
        let bytes = sample();
        let env = Envelope::parse(&bytes).unwrap();
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            let whole = Envelope::parse(prefix).and_then(|e| e.index(prefix).map(|_| ()));
            assert!(whole.is_err(), "cut at {cut} must fail");
            // The incremental parser must report NeedMore or a real error,
            // never a premature Ready of the full header... unless the cut
            // is past the header, in which case index() catches it above.
            if cut < env.frames_at {
                match parse_header_partial(prefix) {
                    Ok(Partial::NeedMore) | Err(_) => {}
                    Ok(Partial::Ready(_, used)) => {
                        panic!("cut at {cut} yielded a complete header of {used} bytes")
                    }
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample();
        bytes.push(0);
        let env = Envelope::parse(&bytes).unwrap();
        assert_eq!(env.index(&bytes).unwrap_err(), WireError::TrailingBytes { extra: 1 });
    }

    #[test]
    fn forged_frame_length_rejected_before_slicing() {
        // Header claims one frame of 2^40 bytes.
        let mut bytes = EnvelopeBuilder::new(*b"SZLP").header_bytes(1);
        varint::write_u64(&mut bytes, 1 << 40);
        bytes.extend_from_slice(&[0u8; 64]);
        let env = Envelope::parse(&bytes).unwrap();
        assert_eq!(env.index(&bytes).unwrap_err(), WireError::LimitExceeded { what: "frame length" });
        // Within the limit but beyond the buffer: truncated.
        let mut bytes = EnvelopeBuilder::new(*b"SZLP").header_bytes(1);
        varint::write_u64(&mut bytes, 1 << 20);
        bytes.extend_from_slice(&[0u8; 64]);
        let env = Envelope::parse(&bytes).unwrap();
        assert_eq!(
            env.index(&bytes).unwrap_err(),
            WireError::Truncated { section: "frame payload" }
        );
    }

    #[test]
    fn codec_tags_roundtrip_and_shape_validation() {
        // One tag byte per frame round-trips.
        let bytes = EnvelopeBuilder::new(*b"LCS1")
            .codec_tags(&[1, 2, 0])
            .build(&[b"a", b"bb", b"ccc"]);
        let env = Envelope::parse(&bytes).unwrap();
        assert_eq!(env.codec_tags().unwrap(), Some(&[1u8, 2, 0][..]));
        env.index(&bytes).unwrap();
        // Absent field reads back as None.
        let bytes = EnvelopeBuilder::new(*b"LCS1").build(&[b"a"]);
        assert_eq!(Envelope::parse(&bytes).unwrap().codec_tags().unwrap(), None);
        // Wrong length (fewer or more bytes than frames) is malformed.
        for tags in [&[1u8][..], &[1, 2, 0, 0][..]] {
            let bytes = EnvelopeBuilder::new(*b"LCS1").codec_tags(tags).build(&[b"a", b"b", b"c"]);
            let env = Envelope::parse(&bytes).unwrap();
            assert_eq!(
                env.codec_tags().unwrap_err(),
                WireError::Malformed { what: "codec tags field" }
            );
        }
        // Duplicate codec-tag field is rejected like any known tag.
        let bytes =
            EnvelopeBuilder::new(*b"LCS1").codec_tags(&[1]).codec_tags(&[2]).build(&[b"a"]);
        assert_eq!(
            Envelope::parse(&bytes).unwrap_err(),
            WireError::DuplicateField { tag: tag::CODEC_TAGS }
        );
        // Pre-tag decoders skip it: the field is just an unknown tag to
        // them, which parse_tlv_block collects without interpreting.
        let bytes = EnvelopeBuilder::new(*b"LCS1").codec_tags(&[1, 2]).build(&[b"a", b"b"]);
        let env = Envelope::parse(&bytes).unwrap();
        assert_eq!(env.field(tag::CODEC_TAGS), Some(&[1u8, 2][..]));
    }

    #[test]
    fn malformed_typed_fields_rejected() {
        // dims field with trailing garbage.
        let bytes = EnvelopeBuilder::new(*b"SZLP").raw_field(tag::DIMS, vec![1, 5, 9]).build(&[]);
        let env = Envelope::parse(&bytes).unwrap();
        assert!(env.dims().is_err());
        // element type of the wrong width.
        let bytes =
            EnvelopeBuilder::new(*b"SZLP").raw_field(tag::ELEMENT_TYPE, vec![1, 2]).build(&[]);
        let env = Envelope::parse(&bytes).unwrap();
        assert!(env.element_type().is_err());
        // zero dim extent.
        let bytes = EnvelopeBuilder::new(*b"SZLP").dims(&[4, 0]).build(&[]);
        let env = Envelope::parse(&bytes).unwrap();
        assert!(env.dims().is_err());
    }
}
