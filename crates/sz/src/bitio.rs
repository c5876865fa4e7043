//! Bit-granular reader/writer used by the Huffman coder and literal packer.
//!
//! Bits are packed MSB-first within each byte, which keeps the encoded
//! stream byte-order independent and makes canonical Huffman decoding a
//! simple left-to-right walk.
//!
//! Both directions work a word at a time: the writer collects bits in a
//! 64-bit accumulator and spills whole words, and the reader keeps its
//! unread bits left-aligned in a 64-bit register refilled with one
//! big-endian load per several reads. The Huffman decoder's bulk loop holds
//! a copy of that register in locals (one crate-internal refill step
//! serves both).

/// Append-only bit sink backed by a `Vec<u8>`.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits not yet flushed to `buf`, left-aligned (the next bit to
    /// emit is the MSB of `acc`); the unused low `64 - nbits` bits are
    /// always zero. `nbits < 64` between calls: the accumulator spills to
    /// `buf` as a whole big-endian word the moment it fills, so the common
    /// small push is a shift-or with no memory traffic.
    acc: u64,
    nbits: u8,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// New writer with reserved capacity in bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter { buf: Vec::with_capacity(bytes), acc: 0, nbits: 0 }
    }

    /// Append a single bit.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        self.push_bits(bit as u64, 1);
    }

    /// Append the low `n` bits of `value`, most-significant first.
    #[inline]
    pub fn push_bits(&mut self, value: u64, n: u8) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let masked = if n == 64 { value } else { value & ((1u64 << n) - 1) };
        let total = self.nbits as u32 + n as u32;
        if total <= 64 {
            // Hot path: the bits fit in the accumulator. `total ≥ 1`, so
            // the shift is at most 63 (and exactly 0 only when the word
            // fills completely, where `nbits == 0` implies `acc == 0`).
            self.acc |= masked << (64 - total);
            self.nbits = total as u8;
            if total == 64 {
                self.buf.extend_from_slice(&self.acc.to_be_bytes());
                self.acc = 0;
                self.nbits = 0;
            }
        } else {
            // The push straddles the word boundary: top up the accumulator
            // with the high `space` bits, spill it, and start a fresh word
            // with the remaining `n - space` low bits. Both shift counts
            // are in 1..=63 because 0 < space < n ≤ 64.
            let space = 64 - self.nbits as u32;
            self.acc |= masked >> (n as u32 - space);
            self.buf.extend_from_slice(&self.acc.to_be_bytes());
            let rem = n as u32 - space;
            self.acc = (masked & ((1u64 << rem) - 1)) << (64 - rem);
            self.nbits = rem as u8;
        }
    }

    /// Append every `(code, len)` of `codes`: the low `len ≤ 32` bits of
    /// `code`, which has none set above them. The bits `push_bits` calls
    /// would write, without a branch on their number: each round stores
    /// the whole accumulator at the write position and moves the position
    /// on by the whole bytes it holds, which leaves under 8 bits pending
    /// and room for 56. Two codes that fit that go in as one.
    pub(crate) fn push_codes(&mut self, codes: &[(u32, u8)]) {
        let mut pos = self.buf.len();
        // 4 bytes a code at most, the pending word, and the last word stored.
        self.buf.resize(pos + 4 * codes.len() + 16, 0);
        let (mut acc, mut nbits) = (self.acc, self.nbits as u32);
        let mut put = |code: u64, len: u32| {
            debug_assert!(len <= 56 && code >> len == 0);
            acc |= (code << 1 << (63 - len)) >> nbits;
            nbits += len;
            self.buf[pos..pos + 8].copy_from_slice(&acc.to_be_bytes());
            pos += (nbits / 8) as usize;
            acc <<= nbits & !7;
            nbits &= 7;
        };
        // The whole bytes pending on entry go out first.
        put(0, 0);
        let mut pairs = codes.chunks_exact(2);
        for pair in &mut pairs {
            let ((c0, l0), (c1, l1)) = (pair[0], pair[1]);
            if l0 + l1 <= 56 {
                put((c0 as u64) << l1 | c1 as u64, (l0 + l1) as u32);
            } else {
                put(c0 as u64, l0 as u32);
                put(c1 as u64, l1 as u32);
            }
        }
        if let [(code, len)] = *pairs.remainder() {
            put(code as u64, len as u32);
        }
        self.buf.truncate(pos);
        (self.acc, self.nbits) = (acc, nbits as u8);
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }

    /// Discard all written bits but keep the allocation (scratch reuse).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.acc = 0;
        self.nbits = 0;
    }

    /// Flush any pending partial byte (zero-padded) and borrow the encoded
    /// bytes. The writer stays usable: further pushes start a new byte.
    pub fn finish(&mut self) -> &[u8] {
        if self.nbits > 0 {
            // The accumulator is left-aligned with zeroed low bits, so its
            // leading big-endian bytes are the stream, padding included.
            let nbytes = (self.nbits as usize).div_ceil(8);
            self.buf.extend_from_slice(&self.acc.to_be_bytes()[..nbytes]);
            self.acc = 0;
            self.nbits = 0;
        }
        &self.buf
    }

    /// Finish and return the byte buffer (final byte zero-padded).
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.finish();
        self.buf
    }
}

/// Sequential bit source over a byte slice.
///
/// The unread bits sit left-aligned in a 64-bit register that is topped up
/// a word at a time, so a read is a shift of a register and the slice is
/// touched once per several reads.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Unread bits, next bit in the MSB. Below the top `nbits` the
    /// register holds zeros or the stream's own following bits (what a
    /// whole-word refill loaded beyond the bytes it counted): the next
    /// refill ORs the same bits over them, and nothing but stream bits or
    /// zero padding is ever visible.
    acc: u64,
    /// Leading bits of `acc` counted as loaded.
    nbits: u32,
    /// Next byte of `buf` to load.
    next: usize,
}

/// Error returned when a read runs past the end of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitStreamExhausted;

impl std::fmt::Display for BitStreamExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bit stream exhausted")
    }
}

impl std::error::Error for BitStreamExhausted {}

impl<'a> BitReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, acc: 0, nbits: 0, next: 0 }
    }

    /// A reader in the state a caller's own copy of the register reached:
    /// `acc`, `nbits` and `next` as [`BitReader::merge_word`] maintains
    /// them.
    pub(crate) fn resume(buf: &'a [u8], acc: u64, nbits: u32, next: usize) -> Self {
        BitReader { buf, acc, nbits, next }
    }

    /// The 8 bytes of `buf` at `next` as a big-endian word, `None` when
    /// fewer remain.
    #[inline(always)]
    pub(crate) fn word_at(buf: &[u8], next: usize) -> Option<u64> {
        let word = buf.get(next..next + 8)?;
        Some(u64::from_be_bytes(word.try_into().expect("8-byte slice")))
    }

    /// Refill a register `acc` holding `nbits ≤ 56` bits with `word`, the
    /// 8 bytes at `next`: the word is ORed in below the bits already
    /// there, and only the whole bytes that fit are counted, which leaves
    /// `nbits` in `56..=63`. Returns the new `(acc, nbits, next)`.
    #[inline(always)]
    pub(crate) fn merge_word(acc: u64, nbits: u32, next: usize, word: u64) -> (u64, u32, usize) {
        (acc | word >> nbits, nbits | 56, next + ((63 - nbits) >> 3) as usize)
    }

    /// The refill for the last bytes of the stream, where a whole word no
    /// longer fits: byte by byte up to 64 bits or the end. By value like
    /// [`BitReader::merge_word`], so that a reader held in a local never
    /// has its address taken and stays in registers.
    #[cold]
    #[inline(never)]
    fn refill_bytes(buf: &[u8], mut acc: u64, mut nbits: u32, mut next: usize) -> (u64, u32, usize) {
        while nbits <= 56 && next < buf.len() {
            acc |= (buf[next] as u64) << (56 - nbits);
            nbits += 8;
            next += 1;
        }
        (acc, nbits, next)
    }

    /// Top the register up to at least 56 bits, or to everything that is
    /// left of the stream.
    #[inline(always)]
    fn refill(&mut self) {
        debug_assert!(self.nbits <= 56);
        let (buf, acc, nbits, next) = (self.buf, self.acc, self.nbits, self.next);
        (self.acc, self.nbits, self.next) = match Self::word_at(buf, next) {
            Some(word) => Self::merge_word(acc, nbits, next, word),
            None => Self::refill_bytes(buf, acc, nbits, next),
        };
    }

    /// Next single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, BitStreamExhausted> {
        if self.nbits == 0 {
            self.refill();
            if self.nbits == 0 {
                return Err(BitStreamExhausted);
            }
        }
        let bit = self.acc >> 63 == 1;
        self.advance(1);
        Ok(bit)
    }

    /// Next `n` bits as the low bits of a u64, MSB-first.
    #[inline]
    pub fn read_bits(&mut self, n: u8) -> Result<u64, BitStreamExhausted> {
        debug_assert!(n <= 64);
        if n == 0 {
            return Ok(0);
        }
        if n <= 56 {
            let (v, avail) = self.peek_bits(n);
            if avail < n {
                return Err(BitStreamExhausted);
            }
            self.advance(n);
            return Ok(v);
        }
        // Wide reads (57–64 bits) are cold: two register reads.
        let hi = self.read_bits(n - 32)?;
        let lo = self.read_bits(32)?;
        Ok((hi << 32) | lo)
    }

    /// Peek up to `n ≤ 56` bits without consuming them. Returns the bits
    /// MSB-first in the low `n` positions (zero-padded past the end of the
    /// stream) plus the number of bits actually available.
    #[inline]
    pub fn peek_bits(&mut self, n: u8) -> (u64, u8) {
        debug_assert!(n <= 56);
        if n == 0 {
            return (0, 0);
        }
        let (window, avail) = self.window(n as u32);
        (window >> (64 - n as u32), avail.min(n as u32) as u8)
    }

    /// The register itself once it holds `want ≤ 56` bits or all that is
    /// left: the unread bits left-aligned and zero-padded past the end of
    /// the stream, and how many of them are stream bits.
    #[inline(always)]
    pub(crate) fn window(&mut self, want: u32) -> (u64, u32) {
        if self.nbits < want {
            self.refill();
        }
        (self.acc, self.nbits)
    }

    /// Consume `n` bits previously inspected with [`BitReader::peek_bits`]
    /// (at most the number it reported available).
    #[inline(always)]
    pub fn advance(&mut self, n: u8) {
        debug_assert!(n as u32 <= self.nbits && n < 64);
        self.acc <<= n;
        self.nbits -= n as u32;
    }

    /// Bits consumed so far.
    pub fn bit_pos(&self) -> usize {
        self.next * 8 - self.nbits as usize
    }

    /// Remaining readable bits.
    pub fn remaining_bits(&self) -> usize {
        self.buf.len() * 8 - self.bit_pos()
    }
}

#[cfg(test)]
impl BitWriter {
    /// Bytes of heap the writer holds on to.
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_bits() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.push_bit(b);
        }
        assert_eq!(w.bit_len(), 9);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn push_codes_writes_what_push_bits_writes() {
        // Lengths 1 to 32 in every mix (pairs that fit one store and pairs
        // that do not), slices of even and odd length, onto writers that
        // hold anything from no pending bits to 63.
        let mut x = 0x9e37_79b9u32;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        };
        let codes: Vec<(u32, u8)> = (0..2001)
            .map(|i| {
                let len = match i % 5 {
                    0 => 32,
                    1 => 1 + next() % 4,
                    2 => 24 + next() % 9,
                    _ => 1 + next() % 32,
                };
                ((next() as u64 & ((1u64 << len) - 1)) as u32, len as u8)
            })
            .collect();
        for pending in 0..64u8 {
            for n in [0usize, 1, 2, 3, 64, 2001] {
                let (mut one_by_one, mut bulk) = (BitWriter::new(), BitWriter::new());
                for w in [&mut one_by_one, &mut bulk] {
                    w.push_bits(0x5a5a_5a5a_5a5a_5a5a, pending);
                }
                for &(code, len) in &codes[..n] {
                    one_by_one.push_bits(code as u64, len);
                }
                bulk.push_codes(&codes[..n]);
                assert_eq!(bulk.bit_len(), one_by_one.bit_len(), "pending {pending} n {n}");
                // Still usable, and in the same state, afterwards.
                for w in [&mut one_by_one, &mut bulk] {
                    w.push_bits(0b101, 3);
                }
                assert_eq!(bulk.finish(), one_by_one.finish(), "pending {pending} n {n}");
            }
        }
    }

    #[test]
    fn roundtrip_multi_bit_values() {
        let mut w = BitWriter::new();
        w.push_bits(0b101, 3);
        w.push_bits(0xDEAD, 16);
        w.push_bits(1, 1);
        w.push_bits(0xCAFEBABE, 32);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xDEAD);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(32).unwrap(), 0xCAFEBABE);
    }

    #[test]
    fn exhaustion_detected() {
        let mut w = BitWriter::new();
        w.push_bits(0b11, 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        // The padded byte still yields 8 bits; past that we must error.
        assert_eq!(r.read_bits(8).unwrap(), 0b1100_0000);
        assert_eq!(r.read_bit(), Err(BitStreamExhausted));
    }

    #[test]
    fn bit_len_at_byte_boundary() {
        let mut w = BitWriter::new();
        w.push_bits(0xFF, 8);
        assert_eq!(w.bit_len(), 8);
        w.push_bit(true);
        assert_eq!(w.bit_len(), 9);
    }

    #[test]
    fn zero_width_write_is_noop() {
        let mut w = BitWriter::new();
        w.push_bits(123, 0);
        assert_eq!(w.bit_len(), 0);
        assert!(w.into_bytes().is_empty());
    }

    #[test]
    fn full_width_values_survive() {
        let mut w = BitWriter::new();
        w.push_bit(true); // misalign everything that follows
        w.push_bits(u64::MAX, 64);
        w.push_bits(0x0123_4567_89AB_CDEF, 64);
        w.push_bits(0x7FFF_FFFF_FFFF_FFFF, 63);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(64).unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.read_bits(63).unwrap(), 0x7FFF_FFFF_FFFF_FFFF);
    }

    #[test]
    fn clear_resets_and_reuses_allocation() {
        let mut w = BitWriter::new();
        w.push_bits(0xABCD, 16);
        w.push_bits(0b101, 3);
        w.clear();
        assert_eq!(w.bit_len(), 0);
        w.push_bits(0b1011, 4);
        assert_eq!(w.into_bytes(), vec![0b1011_0000]);
    }

    #[test]
    fn finish_pads_and_stays_usable() {
        let mut w = BitWriter::new();
        w.push_bits(0b101, 3);
        assert_eq!(w.finish(), &[0b1010_0000]);
        // Finishing twice is idempotent.
        assert_eq!(w.finish(), &[0b1010_0000]);
    }

    #[test]
    fn peek_does_not_consume_and_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.push_bits(0b1011, 4);
        let bytes = w.into_bytes(); // one byte: 1011_0000
        let mut r = BitReader::new(&bytes);
        let (v, avail) = r.peek_bits(12);
        assert_eq!(avail, 8, "one byte available");
        assert_eq!(v, 0b1011_0000_0000);
        assert_eq!(r.bit_pos(), 0, "peek must not consume");
        r.advance(4);
        let (v2, avail2) = r.peek_bits(4);
        assert_eq!(avail2, 4);
        assert_eq!(v2, 0b0000);
    }

    #[test]
    fn peek_at_end_reports_zero_available() {
        let mut r = BitReader::new(&[]);
        let (_, avail) = r.peek_bits(8);
        assert_eq!(avail, 0);
        assert_eq!(r.read_bit(), Err(BitStreamExhausted));
    }

    /// The `n` stream bits from bit `pos` on, zero-padded past the end.
    fn bits_at(bytes: &[u8], pos: usize, n: usize) -> u64 {
        (pos..pos + n).fold(0u64, |v, p| {
            let bit = bytes.get(p / 8).map_or(0, |b| (b >> (7 - p % 8)) & 1);
            (v << 1) | bit as u64
        })
    }

    /// A reader over `bytes` that has consumed `start` bits, in uneven
    /// reads so the register has been through refills of every phase.
    fn reader_at(bytes: &[u8], start: usize) -> BitReader<'_> {
        let mut r = BitReader::new(bytes);
        let mut left = start;
        for n in [1u8, 13, 7, 31, 56, 3].iter().cycle() {
            if left == 0 {
                break;
            }
            let n = (*n as usize).min(left);
            r.read_bits(n as u8).expect("within the stream");
            left -= n;
        }
        assert_eq!(r.bit_pos(), start);
        r
    }

    #[test]
    fn peek_matches_read_at_every_offset() {
        // The register must agree with bit-by-bit indexing across byte and
        // word boundaries, near the end, and for wide reads.
        let bytes: Vec<u8> = (0..32u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        let total = bytes.len() * 8;
        for start in [0usize, 1, 5, 7, 8, 13, 63, 64, 65, 200, 250, 255, 256] {
            for n in [1u8, 3, 8, 11, 24, 33, 56] {
                let mut r = reader_at(&bytes, start);
                let (v, avail) = r.peek_bits(n);
                assert_eq!(v, bits_at(&bytes, start, n as usize), "start={start} n={n}");
                assert_eq!(avail as usize, (total - start).min(n as usize), "start={start} n={n}");
                assert_eq!(r.bit_pos(), start, "peek must not consume");
            }
            for n in [1u8, 9, 32, 56, 57, 64] {
                let mut r = reader_at(&bytes, start);
                if start + n as usize <= total {
                    assert_eq!(r.read_bits(n).unwrap(), bits_at(&bytes, start, n as usize));
                    assert_eq!(r.bit_pos(), start + n as usize);
                    assert_eq!(r.remaining_bits(), total - start - n as usize);
                } else {
                    assert_eq!(r.read_bits(n), Err(BitStreamExhausted), "start={start} n={n}");
                }
            }
        }
    }

    #[test]
    fn every_stream_length_reads_back_bit_by_bit() {
        // Streams of 0..=20 bytes: the word refill, the byte-wise tail and
        // the hand-over between them, one bit at a time.
        for len in 0..=20usize {
            let bytes: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(91) ^ 0xC3).collect();
            let mut r = BitReader::new(&bytes);
            for pos in 0..len * 8 {
                assert_eq!(r.read_bit().unwrap() as u64, bits_at(&bytes, pos, 1), "len={len} pos={pos}");
            }
            assert_eq!(r.read_bit(), Err(BitStreamExhausted));
            assert_eq!(r.peek_bits(8), (0, 0));
        }
    }

    #[test]
    fn remaining_bits_tracks() {
        let bytes = [0u8; 2];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.remaining_bits(), 16);
        r.read_bits(5).unwrap();
        assert_eq!(r.remaining_bits(), 11);
    }
}
