//! LSB-first bit stream, mirroring ZFP's `bitstream` semantics.
//!
//! Within each byte, the first bit written occupies the least-significant
//! position. `write_bits` emits the *low* `n` bits of the operand, low bit
//! first, and returns the operand shifted right by `n` — the exact contract
//! of ZFP's `stream_write_bits`, which the embedded coder relies on.
//!
//! The implementation is word-buffered: writes accumulate into a 64-bit
//! word and spill whole words into the backing store, so `write_bits`
//! costs one or two shift/mask operations per call instead of one pass of
//! the carry loop per bit; reads load one or two words per call. The byte
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
        let n_bytes = self.bit_len().div_ceil(8);
        let mut out = Vec::with_capacity(self.words.len() * 8 + 8);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        if self.bits > 0 {
            out.extend_from_slice(&self.acc.to_le_bytes());
        }
        out.truncate(n_bytes);
        out
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
/// The reader is word-buffered: `acc` holds the next `avail` unread bits
/// (low bits first, upper bits zero), and refills load one *aligned* 64-bit
/// word, so `pos + avail` always sits on a 64-bit boundary and each word of
/// the stream is loaded exactly once per sequential pass.
#[derive(Debug, Clone)]
pub struct ReadStream<'a> {
    buf: &'a [u8],
    /// Absolute bit position of the next unread bit.
    pos: usize,
    /// Buffered upcoming bits (bits ≥ `avail` are zero).
    acc: u64,
    /// Valid bit count in `acc` (`pos + avail` is 64-aligned).
    avail: u32,
}

impl<'a> ReadStream<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        let mut s = ReadStream { buf, pos: 0, acc: 0, avail: 0 };
        s.refill(0);
        s
    }

    /// Load the aligned 64-bit little-endian word `word_idx`,
    /// zero-extending past the end of the buffer.
    #[inline]
    fn load_aligned(&self, word_idx: usize) -> u64 {
        let byte = word_idx * 8;
        match self.buf.len().checked_sub(byte) {
            Some(have) if have >= 8 => {
                u64::from_le_bytes(self.buf[byte..byte + 8].try_into().expect("8-byte read"))
            }
            Some(have) if have > 0 => {
                let mut b = [0u8; 8];
                b[..have].copy_from_slice(&self.buf[byte..]);
                u64::from_le_bytes(b)
            }
            _ => 0,
        }
    }

    /// Point the buffer at absolute bit position `bit`.
    #[inline]
    fn refill(&mut self, bit: usize) {
        let off = (bit % 64) as u32;
        self.acc = self.load_aligned(bit / 64) >> off;
        self.avail = 64 - off;
    }

    /// Next bit (false past the end).
    #[inline]
    pub fn read_bit(&mut self) -> bool {
        if self.avail == 0 {
            self.refill(self.pos);
        }
        let bit = self.acc & 1 == 1;
        self.acc >>= 1;
        self.avail -= 1;
        self.pos += 1;
        bit
    }

    /// Next `n` bits as a u64 (LSB-first).
    #[inline]
    pub fn read_bits(&mut self, n: usize) -> u64 {
        debug_assert!(n <= 64);
        let n = n as u32;
        let v = if n <= self.avail {
            let v = self.acc & mask(n);
            self.acc = self.acc.checked_shr(n).unwrap_or(0);
            self.avail -= n;
            v
        } else {
            // Combine the buffered tail with the next aligned word.
            let have = self.avail;
            let boundary = self.pos + have as usize;
            let next = self.load_aligned(boundary / 64);
            let need = n - have;
            let v = self.acc | ((next & mask(need)) << have);
            self.acc = next.checked_shr(need).unwrap_or(0);
            self.avail = 64 - need;
            v
        };
        self.pos += n as usize;
        v
    }

    /// The next `n` bits without consuming them (LSB-first, `n ≤ 64`).
    #[inline]
    pub fn peek_bits(&self, n: usize) -> u64 {
        debug_assert!(n <= 64);
        let n = n as u32;
        if n <= self.avail {
            self.acc & mask(n)
        } else {
            let boundary = self.pos + self.avail as usize;
            let next = self.load_aligned(boundary / 64);
            (self.acc | (next << (self.avail % 64))) & mask(n)
        }
    }

    /// Consume `n` bits (`n ≤ 64`) previously examined with
    /// [`peek_bits`](Self::peek_bits).
    #[inline]
    pub fn advance(&mut self, n: usize) {
        let n32 = n as u32;
        if n32 <= self.avail {
            self.acc = self.acc.checked_shr(n32).unwrap_or(0);
            self.avail -= n32;
            self.pos += n;
        } else {
            self.pos += n;
            self.refill(self.pos);
        }
    }

    /// Scan a unary code: examine the next `n` bits and consume up to and
    /// including the first 1 bit, or all `n` when they are zero. Returns
    /// `(consumed, zeros)` — equivalent to peeking `n` bits, taking
    /// `trailing_zeros + 1` on a nonzero chunk, and `n` otherwise, but
    /// without touching memory when the answer is in the buffered word.
    #[inline]
    pub fn scan_unary(&mut self, n: usize) -> (usize, usize) {
        debug_assert!(n <= 64);
        let n32 = n as u32;
        let window = self.avail.min(n32);
        let masked = self.acc & mask(window);
        if masked != 0 {
            let z = masked.trailing_zeros();
            self.acc >>= z + 1;
            self.avail -= z + 1;
            self.pos += (z + 1) as usize;
            return ((z + 1) as usize, z as usize);
        }
        if window == n32 {
            // All n bits are buffered and zero.
            self.acc = self.acc.checked_shr(n32).unwrap_or(0);
            self.avail -= n32;
            self.pos += n;
            return (n, n);
        }
        // Buffered tail is all zeros; continue into the next aligned word.
        let have = self.avail;
        let boundary = self.pos + have as usize;
        let next = self.load_aligned(boundary / 64);
        let need = n32 - have;
        let rest = next & mask(need);
        if rest != 0 {
            let z2 = rest.trailing_zeros();
            let zeros = have + z2;
            self.acc = next.checked_shr(z2 + 1).unwrap_or(0);
            self.avail = 64 - (z2 + 1);
            self.pos += (zeros + 1) as usize;
            ((zeros + 1) as usize, zeros as usize)
        } else {
            self.acc = next.checked_shr(need).unwrap_or(0);
            self.avail = 64 - need;
            self.pos += n;
            (n, n)
        }
    }

    /// Absolute bit position.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Skip to an absolute bit position (for fixed-rate blocks).
    pub fn seek(&mut self, bit: usize) {
        self.pos = bit;
        self.refill(bit);
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
