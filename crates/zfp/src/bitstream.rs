//! LSB-first bit stream, mirroring ZFP's `bitstream` semantics.
//!
//! Within each byte, the first bit written occupies the least-significant
//! position. `write_bits` emits the *low* `n` bits of the operand, low bit
//! first, and returns the operand shifted right by `n` — the exact contract
//! of ZFP's `stream_write_bits`, which the embedded coder relies on.
//!
//! Writes are word-buffered: they accumulate into a 64-bit word and spill
//! whole words into the backing store, so `write_bits` costs one or two
//! shift/mask operations per call instead of one pass of the carry loop
//! per bit. Reads keep no buffer: each is one unaligned 8-byte load at the
//! bit position's byte (two for a read wider than 57 bits). The byte
//! layout is identical to the historical bit-at-a-time implementation
//! (retained in [`mod@reference`] and pinned by property tests): bit `p` of
//! the stream lives in byte `p / 8` at in-byte position `p % 8`.

/// Append-only LSB-first bit sink.
#[derive(Debug, Default, Clone)]
pub struct WriteStream {
    /// Completed 64-bit words, little-endian in the byte stream.
    words: Vec<u64>,
    /// Partial word accumulating the next `bits` bits.
    acc: u64,
    /// Bits used in `acc` (invariant: `< 64`).
    bits: u32,
}

impl WriteStream {
    /// New empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one bit; returns the bit (like `stream_write_bit`).
    #[inline]
    pub fn write_bit(&mut self, bit: bool) -> bool {
        self.acc |= (bit as u64) << self.bits;
        self.bits += 1;
        if self.bits == 64 {
            self.words.push(self.acc);
            self.acc = 0;
            self.bits = 0;
        }
        bit
    }

    /// Append the low `n` bits of `x`, LSB first; returns `x >> n`.
    #[inline]
    pub fn write_bits(&mut self, x: u64, n: usize) -> u64 {
        debug_assert!(n <= 64);
        if n == 0 {
            return x;
        }
        let n = n as u32;
        let v = if n == 64 { x } else { x & ((1u64 << n) - 1) };
        self.acc |= v << self.bits;
        let total = self.bits + n;
        if total >= 64 {
            self.words.push(self.acc);
            self.bits = total - 64;
            // Carry the bits of `v` that did not fit the spilled word.
            self.acc = if self.bits == 0 { 0 } else { v >> (n - self.bits) };
        } else {
            self.bits = total;
        }
        if n == 64 {
            0
        } else {
            x >> n
        }
    }

    /// Total bits written.
    pub fn bit_len(&self) -> usize {
        self.words.len() * 64 + self.bits as usize
    }

    /// Pad with zero bits until `bit_len` reaches `target`.
    pub fn pad_to(&mut self, target: usize) {
        let mut rem = target.saturating_sub(self.bit_len());
        while rem > 0 {
            let n = rem.min(64);
            self.write_bits(0, n);
            rem -= n;
        }
    }

    /// Finish, returning the underlying bytes (`ceil(bit_len / 8)` of them,
    /// unwritten trailing bits zero).
    pub fn into_bytes(self) -> Vec<u8> {
        let mut out = Vec::new();
        self.append_to(&mut out);
        out
    }

    /// Finish into the end of `out`: the bytes [`into_bytes`](Self::into_bytes)
    /// returns, with no buffer of their own.
    pub fn append_to(self, out: &mut Vec<u8>) {
        let end = out.len() + self.bit_len().div_ceil(8);
        out.reserve((self.words.len() + (self.bits > 0) as usize) * 8);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        if self.bits > 0 {
            out.extend_from_slice(&self.acc.to_le_bytes());
        }
        out.truncate(end);
    }
}

/// Mask of the low `n` bits (`n ≤ 64`).
#[inline]
pub(crate) fn mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Sequential LSB-first bit source. Reads past the end yield zero bits —
/// matching ZFP, whose decoder consumes "virtual" zero padding when a
/// truncated fixed-rate stream ends.
///
/// The reader keeps only its bit position. Every read is one unaligned
/// 8-byte load at byte `pos / 8`, shifted right by `pos % 8`, which leaves
/// at least 57 bits in view; a read wider than that takes a second load.
#[derive(Debug, Clone)]
pub struct ReadStream<'a> {
    buf: &'a [u8],
    /// Absolute bit position of the next unread bit.
    pos: usize,
}

/// Bits one load puts in view, wherever the position falls in its byte.
pub(crate) const WINDOW_BITS: usize = 57;

impl<'a> ReadStream<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ReadStream { buf, pos: 0 }
    }

    /// The stream from bit `bit` on, at least [`WINDOW_BITS`] of it in the
    /// low bits (zeros past the end of the buffer).
    #[inline]
    fn window(&self, bit: usize) -> u64 {
        let byte = bit / 8;
        let word = match self.buf.get(byte..byte + 8) {
            Some(b) => u64::from_le_bytes(b.try_into().expect("8-byte read")),
            None => {
                let tail = self.buf.get(byte..).unwrap_or_default();
                let mut b = [0u8; 8];
                b[..tail.len()].copy_from_slice(tail);
                u64::from_le_bytes(b)
            }
        };
        word >> (bit % 8)
    }

    /// Next bit (false past the end).
    #[inline]
    pub fn read_bit(&mut self) -> bool {
        self.read_bits(1) == 1
    }

    /// Next `n` bits as a u64 (LSB-first).
    #[inline]
    pub fn read_bits(&mut self, n: usize) -> u64 {
        let v = self.peek_bits(n);
        self.pos += n;
        v
    }

    /// The next `n` bits without consuming them (LSB-first, `n ≤ 64`).
    #[inline]
    pub fn peek_bits(&self, n: usize) -> u64 {
        debug_assert!(n <= 64);
        let mut v = self.window(self.pos);
        if n > WINDOW_BITS {
            v = (v & mask(56)) | (self.window(self.pos + 56) << 56);
        }
        v & mask(n as u32)
    }

    /// Consume `n` bits previously examined with
    /// [`peek_bits`](Self::peek_bits).
    #[inline]
    pub fn advance(&mut self, n: usize) {
        self.pos += n;
    }

    /// Scan a unary code: examine the next `n` bits (`n ≤ 64`) and consume
    /// up to and including the first 1 bit, or all `n` when they are zero.
    /// Returns `(consumed, zeros)`.
    #[inline]
    pub fn scan_unary(&mut self, n: usize) -> (usize, usize) {
        let v = self.peek_bits(n);
        let z = (v.trailing_zeros() as usize).min(n);
        let consumed = (z + 1).min(n);
        self.pos += consumed;
        (consumed, z)
    }

    /// Absolute bit position.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Skip to an absolute bit position (for fixed-rate blocks).
    pub fn seek(&mut self, bit: usize) {
        self.pos = bit;
    }
}

/// The original bit-at-a-time implementation, retained verbatim as the
/// executable specification of the stream layout. Property tests pin the
/// word-buffered streams above against these — the LSB-first layout *is*
/// the format, so equivalence here is format compatibility.
pub mod reference {
    /// Bit-at-a-time counterpart of [`super::WriteStream`].
    #[derive(Debug, Default, Clone)]
    pub struct RefWriteStream {
        buf: Vec<u8>,
        /// Bits used in the final byte (0 ⇒ boundary).
        bit_pos: u8,
    }

    impl RefWriteStream {
        /// New empty stream.
        pub fn new() -> Self {
            Self::default()
        }

        /// Append one bit; returns the bit.
        pub fn write_bit(&mut self, bit: bool) -> bool {
            if self.bit_pos == 0 {
                self.buf.push(0);
            }
            if bit {
                let last = self.buf.len() - 1;
                self.buf[last] |= 1 << self.bit_pos;
            }
            self.bit_pos = (self.bit_pos + 1) % 8;
            bit
        }

        /// Append the low `n` bits of `x`, LSB first; returns `x >> n`.
        pub fn write_bits(&mut self, x: u64, n: usize) -> u64 {
            debug_assert!(n <= 64);
            let mut v = x;
            for _ in 0..n {
                self.write_bit(v & 1 == 1);
                v >>= 1;
            }
            v
        }

        /// Total bits written.
        pub fn bit_len(&self) -> usize {
            if self.bit_pos == 0 {
                self.buf.len() * 8
            } else {
                (self.buf.len() - 1) * 8 + self.bit_pos as usize
            }
        }

        /// Pad with zero bits until `bit_len` reaches `target`.
        pub fn pad_to(&mut self, target: usize) {
            while self.bit_len() < target {
                self.write_bit(false);
            }
        }

        /// Finish, returning the underlying bytes.
        pub fn into_bytes(self) -> Vec<u8> {
            self.buf
        }
    }

    /// Bit-at-a-time counterpart of [`super::ReadStream`].
    #[derive(Debug, Clone)]
    pub struct RefReadStream<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> RefReadStream<'a> {
        /// Read from the start of `buf`.
        pub fn new(buf: &'a [u8]) -> Self {
            RefReadStream { buf, pos: 0 }
        }

        /// Next bit (false past the end).
        pub fn read_bit(&mut self) -> bool {
            let byte = self.pos / 8;
            let bit = if byte < self.buf.len() {
                (self.buf[byte] >> (self.pos % 8)) & 1 == 1
            } else {
                false
            };
            self.pos += 1;
            bit
        }

        /// Next `n` bits as a u64 (LSB-first).
        pub fn read_bits(&mut self, n: usize) -> u64 {
            debug_assert!(n <= 64);
            let mut v = 0u64;
            for i in 0..n {
                v |= (self.read_bit() as u64) << i;
            }
            v
        }

        /// Absolute bit position.
        pub fn bit_pos(&self) -> usize {
            self.pos
        }

        /// Skip forward to an absolute bit position.
        pub fn seek(&mut self, bit: usize) {
            self.pos = bit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bits() {
        let mut w = WriteStream::new();
        assert_eq!(w.write_bits(0b1011_0010_1111, 12), 0);
        w.write_bit(true);
        let bytes = w.into_bytes();
        let mut r = ReadStream::new(&bytes);
        assert_eq!(r.read_bits(12), 0b1011_0010_1111);
        assert!(r.read_bit());
    }

    #[test]
    fn write_bits_returns_shifted_operand() {
        let mut w = WriteStream::new();
        assert_eq!(w.write_bits(0b11010, 3), 0b11);
    }

    #[test]
    fn lsb_first_byte_layout() {
        let mut w = WriteStream::new();
        w.write_bit(true); // bit 0
        w.write_bit(false);
        w.write_bit(true); // bit 2
        assert_eq!(w.into_bytes(), vec![0b0000_0101]);
    }

    #[test]
    fn read_past_end_gives_zeros() {
        let mut r = ReadStream::new(&[0xFF]);
        assert_eq!(r.read_bits(8), 0xFF);
        assert_eq!(r.read_bits(16), 0);
        assert_eq!(r.bit_pos(), 24);
    }

    #[test]
    fn pad_to_target() {
        let mut w = WriteStream::new();
        w.write_bit(true);
        w.pad_to(17);
        assert_eq!(w.bit_len(), 17);
    }

    #[test]
    fn seek_supports_random_access() {
        let mut w = WriteStream::new();
        w.write_bits(0xAAAA, 16);
        let bytes = w.into_bytes();
        let mut r = ReadStream::new(&bytes);
        r.seek(8);
        assert_eq!(r.read_bits(4), 0xA);
    }

    #[test]
    fn full_width_writes_cross_word_boundaries() {
        let mut w = WriteStream::new();
        w.write_bits(0b101, 3); // misalign
        assert_eq!(w.write_bits(u64::MAX, 64), 0);
        w.write_bits(0, 61);
        let bytes = w.into_bytes();
        let mut r = ReadStream::new(&bytes);
        assert_eq!(r.read_bits(3), 0b101);
        assert_eq!(r.read_bits(64), u64::MAX);
        assert_eq!(r.read_bits(61), 0);
    }

    #[test]
    fn zero_width_ops_are_noops() {
        let mut w = WriteStream::new();
        assert_eq!(w.write_bits(0xDEAD, 0), 0xDEAD);
        assert_eq!(w.bit_len(), 0);
        let mut r = ReadStream::new(&[0xFF]);
        assert_eq!(r.read_bits(0), 0);
        assert_eq!(r.bit_pos(), 0);
    }

    #[test]
    fn matches_reference_on_mixed_widths() {
        // Deterministic mixed-width sequence exercising every spill case.
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let mut w = WriteStream::new();
        let mut rw = reference::RefWriteStream::new();
        for i in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let n = (i * 7 + (x as usize)) % 65;
            assert_eq!(w.write_bits(x, n), rw.write_bits(x, n));
            assert_eq!(w.bit_len(), rw.bit_len());
        }
        let a = w.into_bytes();
        let b = rw.into_bytes();
        assert_eq!(a, b);
        let mut r = ReadStream::new(&a);
        let mut rr = reference::RefReadStream::new(&b);
        let mut x = 0x0135_79bd_f246_8ace_u64;
        while r.bit_pos() < a.len() * 8 + 130 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let n = (x as usize) % 65;
            assert_eq!(r.read_bits(n), rr.read_bits(n), "at bit {}", rr.bit_pos());
            assert_eq!(r.bit_pos(), rr.bit_pos());
        }
    }
}
