//! LCW1 — the unified, versioned wire envelope for lcpio containers.
//!
//! Every legacy container (`SZL1`, `SZLP`, `SZPR`, `ZFL1`, `ZFLP`,
//! `LCS1`) hand-rolls its own header, which forces whole-container
//! buffering and has bred a family of forged-header and truncation bugs
//! patched one container at a time. LCW1 is the one framing they all map
//! onto:
//!
//! ```text
//! offset 0   magic            b"LCW1"
//!        4   version major    u8  (decoder rejects newer majors)
//!        5   version minor    u8  (decoder accepts any minor)
//!        6   header length    varint, bytes of the TLV block
//!        ..  TLV block        sequence of (u8 tag, varint len, value)
//!        ..  frames           frame_count x (varint len, payload)
//! ```
//!
//! The TLV block carries a required container id (the legacy 4-byte
//! magic) and frame count, plus optional typed fields (element type,
//! dims, chunk table, opaque params). Unknown tags are skipped, so a
//! minor-version bump can add fields without breaking old decoders;
//! a major bump fails with a typed [`WireError::UnsupportedMajor`].
//!
//! Validation is centralized: [`envelope::Envelope::parse`] checks every
//! header field against a hard ceiling, [`envelope::Envelope::index`]
//! walks the frames once with checked arithmetic (never trusting a
//! length it has not compared against the bytes actually present), and
//! [`guard_element_count`] is the single decoded-size gate shared by all
//! container ports. The push-based [`stream::StreamDecoder`] accepts
//! arbitrary byte slices and yields each frame as soon as it completes,
//! buffering at most one partial frame.
//!
//! This crate is dependency-free and does no I/O; the container-specific
//! wrap/unwrap bridges live in `lcpio-codec` (SZ/ZFP containers) and
//! `lcpio-core` (LCS1 pipeline streams).

#![forbid(unsafe_code)]

pub mod envelope;
pub mod stream;
pub mod tlv;
pub mod varint;

pub use envelope::{Envelope, EnvelopeBuilder, FrameExtent, FrameIndex, RawField};
pub use stream::{StreamDecoder, StreamFrame, StreamHeader};
pub use tlv::{push_tlv, TlvError};
pub use varint::Partial;

/// Envelope magic.
pub const MAGIC: [u8; 4] = *b"LCW1";

/// Highest envelope major version this build can decode (and the one it
/// writes). A stream with a newer major fails with
/// [`WireError::UnsupportedMajor`].
pub const VERSION_MAJOR: u8 = 1;

/// Minor version written by this build. Decoders accept any minor: new
/// minors may only add TLV fields, which old decoders skip.
pub const VERSION_MINOR: u8 = 0;

/// Ceiling on the TLV header block in bytes. Real headers are tens of
/// bytes; a forged multi-megabyte claim is rejected before any buffering.
pub const MAX_HEADER_LEN: usize = 1 << 20;

/// Ceiling on the per-envelope frame count.
pub const MAX_FRAMES: usize = 1 << 22;

/// Ceiling on a single frame's payload length.
pub const MAX_FRAME_LEN: u64 = u32::MAX as u64;

/// Ceiling on array rank in the dims field (legacy containers allow 4;
/// headroom for future layouts without unbounded allocation).
pub const MAX_RANK: usize = 8;

/// Decoded-elements-per-stored-byte ceiling: the most any registered codec
/// can legitimately emit, so a header claiming more is forged. Shared by
/// all container ports via [`guard_element_count`].
///
/// * **SZ sets it.** Every element costs at least one Huffman bit in the
///   stream's payload, 8 elements per payload byte; the LZSS stage then
///   stores that payload, and its densest token (25 bits) emits at most
///   `MAX_MATCH = 259` bytes, so `lcpio_sz::lossless::decompress` refuses
///   more than `259 * 8 / 25 + 1 = 83` payload bytes per stored byte.
///   `8 * 83 = 664`, which a constant field approaches (≈ 620 measured).
/// * ZFP spends at least one bit per block of at most 64 elements:
///   `64 * 8 = 512`. Raw frames hold a quarter element per byte.
///
/// `lcpio-codec` has a test that fails if this drops below either
/// backend's own limit (this crate sees neither).
pub const MAX_EXPANSION: u64 = 664;

/// TLV tags understood by this version. Unknown tags are skipped on
/// decode (forward compatibility); known tags may appear at most once.
pub mod tag {
    /// Required. 4-byte legacy container magic (e.g. `SZLP`).
    pub const CONTAINER: u8 = 0x01;
    /// Required. Frame count as a varint.
    pub const FRAME_COUNT: u8 = 0x02;
    /// Optional. Element type tag (1 byte; matches the codecs' tags).
    pub const ELEMENT_TYPE: u8 = 0x03;
    /// Optional. Array dims: varint rank, then one varint per extent.
    pub const DIMS: u8 = 0x04;
    /// Optional. Per-frame slow-dimension ranges: frame_count pairs of
    /// varints `(start, end)`.
    pub const CHUNK_TABLE: u8 = 0x05;
    /// Optional. Container-specific opaque parameter bytes.
    pub const PARAMS: u8 = 0x06;
    /// Optional. Per-frame codec tags: exactly `frame_count` bytes, one
    /// codec id per frame, so a single envelope can carry mixed-codec
    /// chunks. Id values are assigned by the codec layer (0 = raw); the
    /// wire layer only enforces the field's shape. Old decoders skip the
    /// tag (forward compatibility), so tagged containers still decode
    /// under pre-tag readers.
    pub const CODEC_TAGS: u8 = 0x07;
}

/// Typed decode error. Every failure mode of the envelope layer is a
/// distinct variant, so callers (and tests) can tell a cut stream from a
/// forged one from a version skew.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The stream ends before `section` is complete.
    Truncated { section: &'static str },
    /// First four bytes are not `LCW1`.
    BadMagic([u8; 4]),
    /// Envelope major version is newer than this decoder understands.
    UnsupportedMajor { have: u8, supported: u8 },
    /// Structurally invalid data (bad varint, malformed field, ...).
    Malformed { what: &'static str },
    /// Arithmetic on a header field overflowed.
    Overflow { what: &'static str },
    /// A required TLV field is missing.
    MissingField { tag: u8 },
    /// A known TLV tag appeared more than once.
    DuplicateField { tag: u8 },
    /// A header field exceeds its hard ceiling.
    LimitExceeded { what: &'static str },
    /// Bytes remain after the last frame.
    TrailingBytes { extra: usize },
    /// Claimed element count exceeds what the payload could decode to.
    CapacityGuard { claimed: u64, payload_bytes: u64 },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { section } => {
                write!(f, "wire stream truncated in {section}")
            }
            WireError::BadMagic(m) => {
                write!(f, "not an LCW1 envelope (magic {:?})", String::from_utf8_lossy(m))
            }
            WireError::UnsupportedMajor { have, supported } => write!(
                f,
                "envelope major version {have} is newer than supported {supported}"
            ),
            WireError::Malformed { what } => write!(f, "malformed wire data: {what}"),
            WireError::Overflow { what } => write!(f, "wire header overflow in {what}"),
            WireError::MissingField { tag } => {
                write!(f, "required TLV field 0x{tag:02x} missing")
            }
            WireError::DuplicateField { tag } => {
                write!(f, "TLV field 0x{tag:02x} appears more than once")
            }
            WireError::LimitExceeded { what } => write!(f, "{what} exceeds hard limit"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the last frame")
            }
            WireError::CapacityGuard { claimed, payload_bytes } => write!(
                f,
                "claimed {claimed} elements exceeds capacity of {payload_bytes} payload bytes"
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// The one decoded-size gate: validate a header-claimed element count
/// against the payload bytes actually present *before* any allocation.
///
/// Returns the count as `usize` only if it is within the [`MAX_EXPANSION`]
/// capacity of the payload, so a forged 2^40 count can neither drive an
/// oversized reservation on 64-bit targets nor silently truncate on
/// 32-bit ones.
pub fn guard_element_count(claimed: u64, payload_bytes: usize) -> Result<usize, WireError> {
    if claimed > (payload_bytes as u64).saturating_mul(MAX_EXPANSION) {
        return Err(WireError::CapacityGuard { claimed, payload_bytes: payload_bytes as u64 });
    }
    usize::try_from(claimed).map_err(|_| WireError::Overflow { what: "element count" })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_guard_accepts_sane_and_rejects_forged() {
        assert_eq!(guard_element_count(1000, 100), Ok(1000));
        assert_eq!(guard_element_count(MAX_EXPANSION * 100, 100), Ok(66400));
        assert_eq!(
            guard_element_count(MAX_EXPANSION * 100 + 1, 100),
            Err(WireError::CapacityGuard { claimed: 66401, payload_bytes: 100 })
        );
        assert!(guard_element_count(1 << 40, 16).is_err());
        assert_eq!(guard_element_count(0, 0), Ok(0));
        assert!(guard_element_count(1, 0).is_err());
    }

    #[test]
    fn errors_display_without_panicking() {
        let cases: Vec<WireError> = vec![
            WireError::Truncated { section: "frame payload" },
            WireError::BadMagic(*b"SZLP"),
            WireError::UnsupportedMajor { have: 2, supported: 1 },
            WireError::Malformed { what: "x" },
            WireError::Overflow { what: "y" },
            WireError::MissingField { tag: 1 },
            WireError::DuplicateField { tag: 2 },
            WireError::LimitExceeded { what: "z" },
            WireError::TrailingBytes { extra: 3 },
            WireError::CapacityGuard { claimed: 9, payload_bytes: 1 },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }
}
