//! Little-endian serialization helpers and the compressed-stream header.
//!
//! The format is deliberately explicit (no serde) so the byte layout is
//! stable and inspectable.
//!
//! Each field belongs to one stage of the payload (`crate::pipeline`), and
//! that stage's encode/decode pair is the only code that writes, reads and
//! validates it. The envelope is the lossless stage's:
//!
//! ```text
//! magic  b"SZL1"                                                    lossless
//! u8     flags   bit 0 FLAG_LOSSLESS: the body is the payload,      lossless
//!                      LZSS-compressed
//!                bit 1 FLAG_PACKED_TABLE: the table is packed       table
//!                bits 2-7: zero (a decoder refuses a stream that sets one)
//! u64    body length                                                lossless
//! ...    body: the payload, or its LZSS form; nothing after it      lossless
//! ```
//!
//! The two flags are independent: bit 0 says how the body turns into the
//! payload, bit 1 how one section inside the payload is written. The
//! payload, its stages nested (predict-quantize around entropy around the
//! table):
//!
//! ```text
//! u8     element type tag (0 = f32, 1 = f64)                 predict-quantize
//! u8     rank, then one u64 per dimension                    predict-quantize
//! u8     predictor: 0 = classic Lorenzo, 1 = block-adaptive  predict-quantize
//!        (any other value is refused)
//! u8     Lorenzo order for rank-1 data                       predict-quantize
//! f64    absolute error bound                                predict-quantize
//! u32    quantizer radius                                    predict-quantize
//! u64    element count                                       predict-quantize
//! u32    first symbol with a code                            entropy
//! u32    count: symbols from there to the last one with a    entropy
//!        code
//! ...    the code lengths of those `count` symbols (0 = no   table
//!        code), either
//!        dense:  `count` bytes, one length each (FLAG_PACKED_TABLE clear;
//!                every stream written before the flag existed), or
//!        packed: u64 section length, then run tokens under a Huffman code
//!                of their own (`crate::table` has the layout)
//! u64    Huffman-coded bits                                  entropy
//! u64 +  section: the Huffman-coded symbols                  entropy
//! u64 +  section: literals (escaped values, little-endian)   predict-quantize
//! u64 +  section: one bit per block, 1 = regression          predict-quantize
//!        (block mode only)
//! u64 +  section: four f32 per regression block              predict-quantize
//!        (block mode only; the payload ends here)
//! ```
//!
//! The writer packs the table only when that makes it smaller and keeps
//! the LZSS form only when that makes the body smaller, so a stream that
//! gains from neither is written with flags 0.

use crate::SzError;

/// Stream magic.
pub const MAGIC: [u8; 4] = *b"SZL1";

/// Flag bit: payload is LZSS-compressed.
pub const FLAG_LOSSLESS: u8 = 1;

/// Flag bit: the payload's code-length table is packed (run tokens under a
/// Huffman code) instead of one byte per symbol.
pub const FLAG_PACKED_TABLE: u8 = 2;
/// Bytes in front of a stream's body: magic, flags byte, body length.
pub const ENVELOPE_LEN: usize = 4 + 1 + 8;

/// Cursor-style little-endian writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume into bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Append a u8.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a u32 (LE).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a u64 (LE).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an f32 (LE bits).
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an f64 (LE bits).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed byte section.
    pub fn section(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.bytes(b);
    }
}

/// Cursor-style little-endian reader.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Read raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SzError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(SzError::Corrupt("section length overflows cursor"))?;
        if end > self.buf.len() {
            return Err(SzError::Corrupt("unexpected end of stream"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read a u8.
    pub fn u8(&mut self) -> Result<u8, SzError> {
        Ok(self.bytes(1)?[0])
    }

    /// Read a u32 (LE).
    pub fn u32(&mut self) -> Result<u32, SzError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a u64 (LE).
    pub fn u64(&mut self) -> Result<u64, SzError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Read an f64.
    pub fn f64(&mut self) -> Result<f64, SzError> {
        let b = self.bytes(8)?;
        Ok(f64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Read a length-prefixed byte section.
    ///
    /// The claimed length is validated against the bytes actually remaining
    /// *before* it is narrowed to `usize`, so a forged 2^40 length can
    /// neither drive an oversized slice reservation on 64-bit targets nor
    /// silently truncate on 32-bit ones.
    pub fn section(&mut self) -> Result<&'a [u8], SzError> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(SzError::Corrupt("section length exceeds remaining input"));
        }
        self.bytes(n as usize)
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bytes read so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEADBEEF);
        w.u64(u64::MAX - 3);
        w.f32(1.5);
        w.f64(-2.25e300);
        w.section(b"hello");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.bytes(4).unwrap(), 1.5f32.to_le_bytes());
        assert_eq!(r.f64().unwrap(), -2.25e300);
        assert_eq!(r.section().unwrap(), b"hello");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_an_error() {
        let mut w = Writer::new();
        w.u64(5);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..6]);
        assert!(r.u64().is_err());
    }

    #[test]
    fn section_with_bad_length_is_an_error() {
        let mut w = Writer::new();
        w.u64(1000); // claims 1000 bytes, provides none
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.section().is_err());
    }

    #[test]
    fn forged_huge_section_length_is_rejected_before_narrowing() {
        // Regression: a forged 2^40 section length used to be narrowed to
        // `usize` with `as` before any bounds check. The claim must be
        // validated as a u64 against the bytes actually remaining, so it
        // can neither reserve an absurd slice on 64-bit targets nor wrap
        // to a small in-bounds value on 32-bit ones.
        for forged in [1u64 << 40, u64::MAX, usize::MAX as u64, (u32::MAX as u64) + 1] {
            let mut w = Writer::new();
            w.u64(forged);
            w.bytes(&[0xAB; 32]); // far fewer bytes than claimed
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let err = r.section().expect_err("forged length must not parse");
            assert!(
                err.to_string().contains("section length exceeds remaining input"),
                "{err}"
            );
            // The cursor did not advance past the length prefix, so the
            // reader is still usable and no partial slice escaped.
            assert_eq!(r.remaining(), 32);
        }
    }
}
