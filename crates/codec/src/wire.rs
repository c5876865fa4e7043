//! Bridge between the legacy containers and the LCW1 wire envelope.
//!
//! Every legacy container maps onto the envelope losslessly and
//! reversibly: [`wrap`] re-expresses a legacy stream as an LCW1 envelope
//! and [`unwrap`] rebuilds the exact legacy bytes (`unwrap(wrap(s)) == s`
//! for every valid `s` — pinned by tests). Legacy *compressors* keep
//! emitting legacy bytes, so format-regression hashes are untouched; the
//! wire form is an additional transport encoding, not a replacement.
//!
//! Frame shapes per container:
//!
//! | Inner      | Frames                      | Typed TLVs                     |
//! |------------|-----------------------------|--------------------------------|
//! | `SZL1`     | 1 (whole legacy stream)     | —                              |
//! | `ZFL1`     | 1 (whole legacy stream)     | —                              |
//! | `SZLP`     | 1 per chunk payload         | element type, dims, chunk table|
//! | `ZFLP`     | 1 per chunk payload         | element type, dims, chunk table|
//! | `SZPR`     | 2 (sign bitmap, inner `f64` stream) | element type, params (`r` bits, LE) |
//!
//! The serial containers ride whole because their internal layout has no
//! natural frame boundary; the chunked containers explode into one frame
//! per chunk so a streaming reader can hand each chunk to a decoder the
//! moment it arrives.

use crate::chunked::{self, Chunked};
use crate::{CodecError, ContainerInfo};
use lcpio_wire::envelope::{Envelope, EnvelopeBuilder};
use lcpio_wire::{tag, varint, WireError};
use std::borrow::Cow;

/// Registry entry for the wire envelope itself.
pub const WIRE_CONTAINER: ContainerInfo =
    ContainerInfo { magic: *b"LCW1", description: "versioned wire envelope (any codec)" };

/// True if `stream` starts with the LCW1 envelope magic.
pub fn is_wire(stream: &[u8]) -> bool {
    Envelope::sniff(stream)
}

/// The legacy container magic an LCW1 envelope carries, without decoding
/// any frame.
pub fn inner_magic(stream: &[u8]) -> Result<[u8; 4], CodecError> {
    Ok(Envelope::parse(stream)?.container)
}

/// How a legacy container maps onto LCW1 frames (for the docs table).
pub fn frame_shape(magic: [u8; 4]) -> &'static str {
    match &magic {
        b"SZL1" | b"ZFL1" => "1 frame (whole stream)",
        b"SZLP" | b"ZFLP" => "1 frame per chunk + dims/chunk-table TLVs",
        b"SZPR" => "2 frames (signs, inner) + params TLV",
        _ => "unmapped",
    }
}

/// Re-express a legacy container stream as an LCW1 envelope.
///
/// The legacy stream is parsed and validated first, so a corrupt input
/// fails here with the backend's typed error rather than producing an
/// envelope that cannot be unwrapped.
pub fn wrap(stream: &[u8]) -> Result<Vec<u8>, CodecError> {
    if stream.len() < 4 {
        return Err(CodecError::TooShort);
    }
    let magic: [u8; 4] = stream[..4].try_into().expect("4 bytes");
    match &magic {
        b"SZL1" | b"ZFL1" => Ok(EnvelopeBuilder::new(magic).build(&[stream])),
        b"SZLP" | b"ZFLP" => {
            let container = chunked::parse(stream)?;
            let table: Vec<(usize, usize)> =
                container.chunks().iter().map(|&(a, b, _)| (a, b)).collect();
            let frames: Vec<&[u8]> = container.chunks().iter().map(|&(_, _, p)| p).collect();
            Ok(EnvelopeBuilder::new(magic)
                .element_type(container.type_tag())
                .dims(container.dims())
                .chunk_table(&table)
                .build(&frames))
        }
        b"SZPR" => {
            let parts = lcpio_sz::pwrel::parse_pointwise_rel(stream)?;
            Ok(EnvelopeBuilder::new(magic)
                .element_type(parts.type_tag)
                .params(&parts.r.to_bits().to_le_bytes())
                .build(&[parts.signs, parts.inner]))
        }
        _ => Err(CodecError::UnknownMagic(magic)),
    }
}

/// A container as a codec adapter decodes it: the same two shapes whether
/// the bytes are legacy or an `LCW1` envelope.
pub(crate) enum Opened<'a> {
    /// `SZLP` / `ZFLP` in validated parsed form, chunk streams still in
    /// place in the bytes that carried them.
    Chunked(Chunked<'a>),
    /// Any other container as its legacy bytes: borrowed, except an
    /// enveloped `SZPR`, which is rebuilt from its two frames.
    Legacy(Cow<'a, [u8]>),
}

/// Reduce `stream` to the form its codec decodes. All frame lengths of an
/// envelope are validated in one pass ([`Envelope::index`]) before any
/// payload is touched, and an enveloped chunked container goes straight to
/// the chunked validator: no legacy bytes are re-emitted on the way.
pub(crate) fn open(stream: &[u8]) -> Result<Opened<'_>, CodecError> {
    if is_wire(stream) {
        return open_envelope(stream);
    }
    Ok(match stream.get(..4) {
        Some(b"SZLP" | b"ZFLP") => Opened::Chunked(chunked::parse(stream)?),
        _ => Opened::Legacy(Cow::Borrowed(stream)),
    })
}

/// [`open`] for a stream that must be an `LCW1` envelope.
fn open_envelope(stream: &[u8]) -> Result<Opened<'_>, CodecError> {
    let env = Envelope::parse(stream)?;
    let idx = env.index(stream)?;
    let frames: Vec<&[u8]> = idx.entries.iter().map(|e| &stream[e.off..e.off + e.len]).collect();
    let element_type =
        || env.element_type()?.ok_or(WireError::MissingField { tag: tag::ELEMENT_TYPE });
    match &env.container {
        b"SZL1" | b"ZFL1" => {
            if frames.len() != 1 {
                return Err(WireError::Malformed { what: "serial container frame count" }.into());
            }
            if !frames[0].starts_with(&env.container) {
                return Err(WireError::Malformed { what: "inner stream magic mismatch" }.into());
            }
            Ok(Opened::Legacy(Cow::Borrowed(frames[0])))
        }
        b"SZLP" | b"ZFLP" => {
            let dims = env.dims()?.ok_or(WireError::MissingField { tag: tag::DIMS })?;
            let table = chunk_table(&env)?;
            Ok(Opened::Chunked(Chunked::new(
                env.container,
                element_type()?,
                dims,
                &table,
                &frames,
            )?))
        }
        b"SZPR" => {
            if frames.len() != 2 {
                return Err(WireError::Malformed { what: "pwrel container frame count" }.into());
            }
            let params = env.params().ok_or(WireError::MissingField { tag: tag::PARAMS })?;
            let bits: [u8; 8] = params
                .try_into()
                .map_err(|_| WireError::Malformed { what: "pwrel params width" })?;
            let parts = lcpio_sz::pwrel::PwrelParts {
                type_tag: element_type()?,
                r: f64::from_bits(u64::from_le_bytes(bits)),
                signs: frames[0],
                inner: frames[1],
            };
            Ok(Opened::Legacy(Cow::Owned(lcpio_sz::pwrel::build_pointwise_rel(&parts))))
        }
        other => Err(CodecError::UnknownMagic(*other)),
    }
}

/// The `CHUNK_TABLE` TLV as the ranges it holds, however many: whether
/// that is one per frame is the chunked validator's question, so a forged
/// count fails there exactly as it does in the legacy form. Each pair is
/// at least two bytes of the field, which bounds the table by its input.
fn chunk_table(env: &Envelope<'_>) -> Result<Vec<(usize, usize)>, WireError> {
    let field =
        env.field(tag::CHUNK_TABLE).ok_or(WireError::MissingField { tag: tag::CHUNK_TABLE })?;
    let narrow =
        |v: u64| usize::try_from(v).map_err(|_| WireError::Overflow { what: "chunk range" });
    let mut pos = 0usize;
    let mut table = Vec::new();
    while pos < field.len() {
        let start = varint::read(field, &mut pos)?;
        let end = varint::read(field, &mut pos)?;
        table.push((narrow(start)?, narrow(end)?));
    }
    Ok(table)
}

/// Rebuild the exact legacy container bytes from an LCW1 envelope.
///
/// All frame lengths are validated in one pass ([`Envelope::index`])
/// before any payload is touched, and a chunked container's table and
/// claimed element count pass the chunked validator (the shared expansion
/// guard included) before the legacy container is re-emitted. Decoding
/// does not come through here: it reads the envelope's frames in place.
pub fn unwrap(stream: &[u8]) -> Result<Vec<u8>, CodecError> {
    Ok(match open_envelope(stream)? {
        Opened::Chunked(container) => container.build(),
        Opened::Legacy(bytes) => bytes.into_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{registry, BoundSpec};

    fn field(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.013).sin() * 40.0).collect()
    }

    fn roundtrip_bytes(legacy: &[u8]) {
        let wrapped = wrap(legacy).expect("wrap");
        assert!(is_wire(&wrapped));
        assert_eq!(inner_magic(&wrapped).unwrap(), legacy[..4]);
        let restored = unwrap(&wrapped).expect("unwrap");
        assert_eq!(restored, legacy, "wrap→unwrap must be byte-identical");
    }

    #[test]
    fn all_containers_roundtrip_byte_identical() {
        let data = field(4096);
        let sz = registry().by_name("sz").unwrap();
        let zfp = registry().by_name("zfp").unwrap();
        // SZL1 / ZFL1 serial.
        roundtrip_bytes(&sz.compress(&data, &[4096], BoundSpec::Absolute(1e-3)).unwrap().bytes);
        roundtrip_bytes(&zfp.compress(&data, &[4096], BoundSpec::Absolute(1e-3)).unwrap().bytes);
        // SZLP / ZFLP chunked.
        roundtrip_bytes(
            &sz.compress_chunked(&data, &[64, 64], BoundSpec::Absolute(1e-3), 4).unwrap().bytes,
        );
        roundtrip_bytes(
            &zfp.compress_chunked(&data, &[64, 64], BoundSpec::Absolute(1e-3), 4).unwrap().bytes,
        );
        // SZPR pointwise-relative.
        let positive: Vec<f32> = data.iter().map(|x| x.abs() + 1.0).collect();
        roundtrip_bytes(
            &sz.compress(&positive, &[4096], BoundSpec::PointwiseRelative(1e-3)).unwrap().bytes,
        );
    }

    #[test]
    fn wire_and_legacy_decode_identically() {
        let data = field(2048);
        for name in ["sz", "zfp"] {
            let codec = registry().by_name(name).unwrap();
            let legacy =
                codec.compress_chunked(&data, &[2048], BoundSpec::Absolute(1e-3), 3).unwrap().bytes;
            let wrapped = wrap(&legacy).unwrap();
            let (a, da) = registry().decompress_auto(&legacy, 2).unwrap();
            let (b, db) = registry().decompress_auto(&wrapped, 2).unwrap();
            assert_eq!(da, db);
            assert_eq!(a, b, "{name}: wire decode must equal legacy decode");
        }
    }

    #[test]
    fn wrap_rejects_garbage() {
        assert_eq!(wrap(b"XY").err(), Some(CodecError::TooShort));
        assert_eq!(wrap(b"NOPE....").err(), Some(CodecError::UnknownMagic(*b"NOPE")));
        // A truncated legacy container fails in the backend parser, typed.
        let data = field(512);
        let legacy = registry()
            .by_name("sz")
            .unwrap()
            .compress_chunked(&data, &[512], BoundSpec::Absolute(1e-3), 2)
            .unwrap()
            .bytes;
        for cut in 4..legacy.len() {
            assert!(wrap(&legacy[..cut]).is_err(), "cut at {cut} must not wrap");
        }
    }

    #[test]
    fn unwrap_rejects_forged_envelopes() {
        let data = field(512);
        let legacy = registry()
            .by_name("sz")
            .unwrap()
            .compress_chunked(&data, &[512], BoundSpec::Absolute(1e-3), 2)
            .unwrap()
            .bytes;
        let wrapped = wrap(&legacy).unwrap();
        // Unknown inner container.
        let bytes = EnvelopeBuilder::new(*b"ABCD").build(&[b"x"]);
        assert_eq!(unwrap(&bytes).err(), Some(CodecError::UnknownMagic(*b"ABCD")));
        // Serial envelope whose frame does not carry the inner magic.
        let bytes = EnvelopeBuilder::new(*b"SZL1").build(&[b"not the stream"]);
        assert!(matches!(unwrap(&bytes), Err(CodecError::Wire(WireError::Malformed { .. }))));
        // Chunked envelope missing its dims field.
        let bytes = EnvelopeBuilder::new(*b"SZLP").element_type(1).build(&[b"p"]);
        assert_eq!(
            unwrap(&bytes).err(),
            Some(CodecError::Wire(WireError::MissingField { tag: tag::DIMS })),
        );
        // Cut the wire stream at every offset: typed error, never panic.
        for cut in 0..wrapped.len() {
            assert!(unwrap(&wrapped[..cut]).is_err(), "cut at {cut} must not unwrap");
        }
    }

    #[test]
    fn forged_element_count_hits_expansion_guard() {
        // A 1 GiB-element claim over a few payload bytes must be refused
        // by the shared guard before any allocation.
        let bytes = EnvelopeBuilder::new(*b"SZLP")
            .element_type(1)
            .dims(&[1 << 30])
            .chunk_table(&[(0, 1 << 30)])
            .build(&[b"tiny"]);
        assert!(matches!(
            unwrap(&bytes),
            Err(CodecError::Wire(WireError::CapacityGuard { .. }))
        ));
    }
}
