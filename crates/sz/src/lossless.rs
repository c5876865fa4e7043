//! LZSS lossless backend.
//!
//! SZ finishes its pipeline by running a general-purpose lossless compressor
//! (Zstd in the reference implementation) over the assembled payload. We
//! implement LZSS with a 64 KiB window and hash-chain match finding: the
//! same algorithmic family, dependency-free.
//!
//! What the pass finds there is measured (DESIGN.md §12): the Huffman-coded
//! symbol section, most of the payload, is already entropy-coded and a byte
//! matcher finds next to nothing in it, while every byte it cannot match
//! costs a 9-bit literal. The pass pays for itself where the field is flat:
//! a constant or linear field codes to long runs of equal bytes and is
//! stored a few hundred times smaller for it. The pipeline keeps whichever
//! of the payload and this pass's output is smaller, so the matcher is
//! built to get through unmatchable bytes quickly and to lose nothing on
//! matchable ones.
//!
//! **The stride rule** (LZ4's search acceleration). The matcher counts the
//! probes since the last match that found none. A probe at `i` that misses
//! is followed by the probe at `i + 1 + misses / 32`: every byte is probed
//! until 32 probes in a row have missed, and from then on the step grows by
//! one with every further 32 misses. The bytes stepped over go out as
//! literals and are not inserted into the chains; a match sets the count
//! back to zero. Input that matches every few bytes is searched exactly as
//! a matcher without the rule searches it (no streak reaches 32), and a
//! megabyte of noise costs a few thousand probes instead of a million. The
//! rule is part of what `compress` writes, not of the format: any token
//! sequence decodes, and the test reference spells the same rule out.
//!
//! **Sized before it is written.** A parse (`parse`) records only the
//! back-references it finds; every byte none of them covers is a literal,
//! so the parse alone says how long the stream is (9 bits a literal, 25 a
//! match, the 4-byte length in front). The pipeline keeps the LZSS form
//! only when it is strictly shorter than the payload, which on a noisy
//! field it never is, so it writes the stream (`Parse::emit`) only then;
//! [`compress`] is the same parse, always emitted. There is one matcher and
//! one emitter either way.
//!
//! Token format (bit stream, MSB-first):
//! * `0` + 8 bits   — literal byte
//! * `1` + 16 bits offset + 8 bits length − [MIN_MATCH] — back-reference

use crate::bitio::{BitReader, BitWriter};

/// Window size for back-references (offset fits in 16 bits).
pub const WINDOW: usize = 1 << 16;
/// Minimum profitable match length (a match token costs 25 bits).
pub const MIN_MATCH: usize = 4;
/// Maximum match length encodable in 8 bits above MIN_MATCH.
pub const MAX_MATCH: usize = MIN_MATCH + 255;
/// Bits of a literal token and of a match token, flag bit included.
const LITERAL_BITS: u32 = 9;
const MATCH_BITS: u32 = 25;
/// Literal tokens the decoder takes at once, and the window bits that hold
/// their flags (all zero for a run of literals).
const LITERAL_RUN: u32 = 6;
const LITERAL_RUN_FLAGS: u64 = {
    let mut flags = 0u64;
    let mut t = 0;
    while t < LITERAL_RUN {
        flags |= 1 << (63 - LITERAL_BITS * t);
        t += 1;
    }
    flags
};
const _: () = assert!(LITERAL_RUN * LITERAL_BITS >= MATCH_BITS && LITERAL_RUN * LITERAL_BITS <= 56);
/// Hash-chain search depth; bounds worst-case compression time.
const MAX_CHAIN: usize = 32;
/// Chain heads: one per value of the 15-bit hash.
const HASH_SIZE: usize = 1 << 15;
/// Probes without a match after which the step between probed positions
/// grows, and per which it grows by one more (the stride rule).
const MISS_STRIDE: usize = 32;
/// Literal tokens that fit one `push_bits`.
const LITERALS_PER_PUSH: usize = 64 / LITERAL_BITS as usize;
/// "No position" in the chain tables. Positions are below `u32::MAX` by
/// [`accepts`].
const NONE: u32 = u32::MAX;

/// Error from [`decompress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LzssCorrupt;

impl std::fmt::Display for LzssCorrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt LZSS stream")
    }
}

impl std::error::Error for LzssCorrupt {}

/// True when [`compress`] can take an input of `len` bytes: the stream
/// stores the length, and the matcher its positions, as `u32`.
pub fn accepts(len: usize) -> bool {
    u32::try_from(len).is_ok()
}

#[inline]
fn word_at(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(data[i..i + 4].try_into().expect("4 bytes"))
}

/// Length of the common prefix of `data[c..]` and `data[i..]`, at most
/// `limit`, given that the first [`MIN_MATCH`] bytes are already known to
/// agree. Compares eight bytes at a time.
#[inline]
fn match_len(data: &[u8], c: usize, i: usize, limit: usize) -> usize {
    let mut l = MIN_MATCH;
    while l + 8 <= limit {
        let a = u64::from_le_bytes(data[c + l..c + l + 8].try_into().expect("8 bytes"));
        let b = u64::from_le_bytes(data[i + l..i + l + 8].try_into().expect("8 bytes"));
        if a != b {
            return l + ((a ^ b).trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < limit && data[c + l] == data[i + l] {
        l += 1;
    }
    l
}

/// The match finder's tables over the positions of one input.
///
/// `head` and `ring` are the hash chains: `head[h]` is the latest inserted
/// position whose 4-byte word hashes to `h` (15 bits), `ring[p % len]` the
/// position before `p` on the same chain. A walk only ever follows
/// positions at most [`WINDOW`] back, and it runs before the current
/// position is inserted, so a ring of `WINDOW` slots never hands out an
/// overwritten entry.
struct Chains {
    head: Vec<u32>,
    ring: Vec<u32>,
    ring_mask: usize,
}

impl Chains {
    /// Tables for an input with `positions` places a 4-byte word starts at.
    fn new(positions: usize) -> Self {
        let ring_len = positions.clamp(1, WINDOW).next_power_of_two();
        Chains { head: vec![NONE; HASH_SIZE], ring: vec![NONE; ring_len], ring_mask: ring_len - 1 }
    }

    #[inline]
    fn hash(word: u32) -> usize {
        (word.wrapping_mul(0x9E37_79B1) >> 17) as usize
    }

    /// Record position `i`, whose word hashes to `h`, as the latest of its
    /// chain.
    #[inline]
    fn insert(&mut self, i: usize, h: usize) {
        self.ring[i & self.ring_mask] = self.head[h];
        self.head[h] = i as u32;
    }

    /// The longest match for `data[i..]` among the first [`MAX_CHAIN`]
    /// in-window positions of chain `h`, as `(length, offset)`; the
    /// nearest one wins a tie. `(0, 0)` when none reaches [`MIN_MATCH`].
    #[inline]
    fn longest_match(&self, data: &[u8], i: usize, word: u32, h: usize) -> (usize, usize) {
        let limit = (data.len() - i).min(MAX_MATCH);
        // Only matches longer than this are of use: a candidate must agree
        // on the first word and on the byte at `best_len` to qualify.
        let mut best_len = MIN_MATCH - 1;
        let mut best_off = 0usize;
        let mut cand = self.head[h];
        let mut chain = 0;
        while cand != NONE && chain < MAX_CHAIN {
            let c = cand as usize;
            if i - c > WINDOW {
                break; // chain entries only get older
            }
            if word_at(data, c) == word && data[c + best_len] == data[i + best_len] {
                let l = match_len(data, c, i, limit);
                if l > best_len {
                    best_len = l;
                    best_off = i - c;
                    if l == limit {
                        break;
                    }
                }
            }
            cand = self.ring[c & self.ring_mask];
            chain += 1;
        }
        if best_off == 0 {
            (0, 0)
        } else {
            (best_len, best_off)
        }
    }
}

/// `bytes` as literal tokens, [`LITERALS_PER_PUSH`] to a `push_bits`.
#[inline]
fn push_literals(w: &mut BitWriter, bytes: &[u8]) {
    for group in bytes.chunks(LITERALS_PER_PUSH) {
        // A literal's flag bit is 0: the byte in a 9-bit field is the token.
        let tokens = group.iter().fold(0u64, |acc, &b| acc << LITERAL_BITS | b as u64);
        w.push_bits(tokens, (LITERAL_BITS as usize * group.len()) as u8);
    }
}

/// One back-reference of a parse: the position it starts at and its
/// 24-bit field (offset − 1, then length − [`MIN_MATCH`]).
#[derive(Debug, Clone, Copy)]
struct Match {
    at: u32,
    field: u32,
}

impl Match {
    fn len(self) -> usize {
        (self.field & 0xff) as usize + MIN_MATCH
    }
}

/// What the matcher makes of one input: its back-references in order.
/// Every byte no match covers is a literal, so they alone say the token
/// sequence, and with it how long the stream is before a bit of it is
/// written.
#[derive(Debug)]
pub(crate) struct Parse<'a> {
    data: &'a [u8],
    matches: Vec<Match>,
}

impl Parse<'_> {
    /// Bytes of the stream [`Parse::emit`] writes: the length header and
    /// the tokens, the last byte zero-padded.
    pub(crate) fn stream_len(&self) -> usize {
        let matched: usize = self.matches.iter().map(|m| m.len()).sum();
        let bits = (self.data.len() - matched) as u64 * LITERAL_BITS as u64
            + self.matches.len() as u64 * MATCH_BITS as u64;
        4 + bits.div_ceil(8) as usize
    }

    /// The stream, after the bytes of `head`: the original length (u32
    /// LE), then the tokens.
    pub(crate) fn emit(&self, head: &[u8]) -> Vec<u8> {
        let mut w = BitWriter::after(head, self.stream_len());
        // MSB-first, so the byte-swapped length lands little-endian.
        w.push_bits((self.data.len() as u32).swap_bytes() as u64, 32);
        let mut i = 0usize;
        for &m in &self.matches {
            push_literals(&mut w, &self.data[i..m.at as usize]);
            w.push_bits((1 << 24) | m.field as u64, MATCH_BITS as u8);
            i = m.at as usize + m.len();
        }
        push_literals(&mut w, &self.data[i..]);
        w.into_bytes()
    }
}

/// Find the back-references [`compress`] codes `data` with.
///
/// # Panics
///
/// When `data` is longer than [`accepts`] allows.
pub(crate) fn parse(data: &[u8]) -> Parse<'_> {
    let n = data.len();
    assert!(accepts(n), "LZSS input of {n} bytes exceeds the u32 length header");
    // Room for a match every MAX_MATCH bytes, what a flat input takes.
    let mut matches = Vec::with_capacity(n / MAX_MATCH + 1);
    // Positions a 4-byte word starts at; the last three bytes can only be
    // literals and are never inserted.
    let positions = n.saturating_sub(MIN_MATCH - 1);
    let mut t = Chains::new(positions);
    let mut i = 0usize;
    // Probes since the last match that found none (the stride rule).
    let mut misses = 0usize;
    while i < positions {
        let word = word_at(data, i);
        let h = Chains::hash(word);
        let (len, off) = t.longest_match(data, i, word, h);
        t.insert(i, h);
        if len == 0 {
            misses += 1;
            i += 1 + misses / MISS_STRIDE;
            continue;
        }
        misses = 0;
        matches.push(Match { at: i as u32, field: ((off - 1) << 8 | (len - MIN_MATCH)) as u32 });
        // Insert the skipped positions so later matches can find them.
        let end = i + len;
        for p in i + 1..end.min(positions) {
            t.insert(p, Chains::hash(word_at(data, p)));
        }
        i = end;
    }
    Parse { data, matches }
}

/// Compress `data`; output starts with the original length (u32 LE).
///
/// # Panics
///
/// When `data` is longer than [`accepts`] allows (4 GiB − 1): its length
/// would not fit the header. Callers store such a payload raw.
pub fn compress(data: &[u8]) -> Vec<u8> {
    parse(data).emit(&[])
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(stream: &[u8]) -> Result<Vec<u8>, LzssCorrupt> {
    if stream.len() < 4 {
        return Err(LzssCorrupt);
    }
    let n = u32::from_le_bytes([stream[0], stream[1], stream[2], stream[3]]) as usize;
    // A match token costs 25 bits and can emit at most MAX_MATCH bytes, so
    // the output can never legitimately exceed ~83× the stream size; a
    // corrupt length field must not drive the allocation.
    if n > 4 + (stream.len() - 4).saturating_mul(MAX_MATCH * 8 / 25 + 1) {
        return Err(LzssCorrupt);
    }
    // Filled through a cursor, not pushed to: the cursor stays in a
    // register, a vector's length does not.
    let mut out = vec![0u8; n];
    let mut at = 0usize;
    let mut r = BitReader::new(&stream[4..]);
    while at < n {
        // One look at the reader's window per token: its flag bit, then
        // either the literal's 8 bits or the match's 16 + 8.
        let (window, avail) = r.window(LITERAL_RUN * LITERAL_BITS);
        // Most of a payload is entropy-coded already and comes through as
        // literals: when the next few tokens all are, they are taken
        // together, one shift of the reader for the lot.
        if window & LITERAL_RUN_FLAGS == 0
            && avail >= LITERAL_RUN * LITERAL_BITS
            && n - at >= LITERAL_RUN as usize
        {
            for (t, byte) in out[at..at + LITERAL_RUN as usize].iter_mut().enumerate() {
                *byte = (window >> (64 - LITERAL_BITS * (t as u32 + 1))) as u8;
            }
            at += LITERAL_RUN as usize;
            r.advance((LITERAL_RUN * LITERAL_BITS) as u8);
            continue;
        }
        if window >> 63 == 0 {
            if avail < LITERAL_BITS {
                return Err(LzssCorrupt);
            }
            out[at] = (window >> (64 - LITERAL_BITS)) as u8;
            at += 1;
            r.advance(LITERAL_BITS as u8);
        } else {
            if avail < MATCH_BITS {
                return Err(LzssCorrupt);
            }
            let off = ((window >> (64 - 17)) & 0xffff) as usize + 1;
            let len = ((window >> (64 - MATCH_BITS)) & 0xff) as usize + MIN_MATCH;
            r.advance(MATCH_BITS as u8);
            // A match may not reach back past the start nor run past the
            // declared length.
            if off > at || len > n - at {
                return Err(LzssCorrupt);
            }
            // A match may overlap its own output (`off < len`): what is
            // written so far then repeats with period `off`, and copying
            // from its start doubles it until `len` bytes are out.
            let (start, end) = (at - off, at + len);
            while at < end {
                let run = (at - start).min(end - at);
                out.copy_within(start..start + run, at);
                at += run;
            }
        }
    }
    // A whole byte left after the last token: the stream is longer than
    // its tokens say.
    if r.remaining_bits() >= 8 {
        return Err(LzssCorrupt);
    }
    Ok(out)
}

/// The matcher `compress` replaced, kept as its executable specification:
/// a full-length `prev` array, byte-wise match extension, every candidate
/// measured, one token per `push`. With `strided` it follows the stride
/// rule and is what [`compress`] must write, byte for byte; without, it
/// probes every position, which is what streams were written with before
/// the rule existed (the pipeline's tests rebuild those with it).
#[cfg(test)]
pub(crate) fn compress_reference(data: &[u8], strided: bool) -> Vec<u8> {
    let hash4 = |i: usize| (word_at(data, i).wrapping_mul(0x9E37_79B1) >> 17) as usize;
    let mut w = BitWriter::new();
    let mut head = vec![NONE; HASH_SIZE];
    let mut prev = vec![NONE; data.len()];
    let mut i = 0usize;
    let mut misses = 0usize;
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash4(i);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != NONE && chain < MAX_CHAIN {
                let c = cand as usize;
                if i - c > WINDOW {
                    break;
                }
                let limit = (data.len() - i).min(MAX_MATCH);
                let mut l = 0;
                while l < limit && data[c + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_off = i - c;
                    if l == limit {
                        break;
                    }
                }
                cand = prev[c];
                chain += 1;
            }
            prev[i] = head[h];
            head[h] = i as u32;
        }
        if best_len >= MIN_MATCH {
            misses = 0;
            w.push_bit(true);
            w.push_bits((best_off - 1) as u64, 16);
            w.push_bits((best_len - MIN_MATCH) as u64, 8);
            let end = i + best_len;
            let mut p = i + 1;
            while p < end && p + MIN_MATCH <= data.len() {
                let h = hash4(p);
                prev[p] = head[h];
                head[h] = p as u32;
                p += 1;
            }
            i = end;
        } else {
            misses += 1;
            let step = if strided { 1 + misses / MISS_STRIDE } else { 1 };
            for &b in &data[i..(i + step).min(data.len())] {
                w.push_bit(false);
                w.push_bits(b as u64, 8);
            }
            i += step;
        }
    }
    let mut out = (data.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&w.into_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What [`compress`] must write.
    fn reference(data: &[u8]) -> Vec<u8> {
        compress_reference(data, true)
    }

    /// `n` bytes from a xorshift generator, each mapped through `f`.
    fn xorshift_bytes(seed: u32, n: usize, f: impl Fn(u32) -> u8) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                f(x)
            })
            .collect()
    }

    #[test]
    fn length_gate_is_the_u32_header() {
        // The predicate `compress` asserts and the pipeline consults;
        // no 4 GiB buffer needed to pin it.
        assert!(accepts(0));
        assert!(accepts(u32::MAX as usize));
        #[cfg(target_pointer_width = "64")]
        {
            assert!(!accepts(u32::MAX as usize + 1));
            assert!(!accepts(usize::MAX));
        }
    }

    #[test]
    fn lengths_below_a_word_match_reference() {
        // 0–3 bytes never reach the matcher; 4–7 insert 1–4 positions.
        for n in 0..=7usize {
            for data in [vec![9u8; n], (0..n as u8).collect::<Vec<_>>()] {
                let c = compress(&data);
                assert_eq!(c, reference(&data), "n={n}");
                assert_eq!(decompress(&c).unwrap(), data);
            }
        }
    }

    #[test]
    fn wrapped_ring_matches_reference() {
        // Longer than 2·WINDOW, so every ring slot is reused at least
        // twice, with material that matches at offsets up to and beyond
        // the window: a 40 000-byte noise block repeated (offset inside
        // the window), then again after a gap (offset 70 000, outside),
        // and a low-entropy stretch whose chains run to MAX_CHAIN.
        let block = xorshift_bytes(7, 40_000, |x| (x >> 24) as u8);
        let mut data = block.clone();
        data.extend_from_slice(&block);
        data.extend(xorshift_bytes(8, 30_000, |x| (x % 3) as u8));
        data.extend_from_slice(&block);
        data.extend(xorshift_bytes(9, 30_000, |x| (x >> 24) as u8));
        // Exactly WINDOW back: the farthest offset the format can express.
        let tail = data[data.len() - WINDOW..data.len() - WINDOW + 500].to_vec();
        data.extend_from_slice(&tail);
        assert!(data.len() > 2 * WINDOW);
        let c = compress(&data);
        assert_eq!(c, reference(&data));
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn stride_opens_after_a_miss_streak_and_closes_on_a_match() {
        // Noise: every probe misses, so the step grows by one per 32
        // probes and a stretch of n bytes takes about 8·sqrt(n) of them.
        let noise = xorshift_bytes(31, 100_000, |x| (x >> 24) as u8);
        let c = compress(&noise);
        assert_eq!(c, reference(&noise));
        assert_ne!(c, compress_reference(&noise, false), "noise has chance 4-byte repeats");
        assert_eq!(decompress(&c).unwrap(), noise);
        // Matchable input never builds a streak: the rule changes nothing.
        let text: Vec<u8> = b"hello world, ".iter().cycle().take(50_000).copied().collect();
        assert_eq!(compress(&text), compress_reference(&text, false));
    }

    #[test]
    fn long_miss_streak_that_ends_in_a_long_run_matches_reference() {
        // The run is entered with a step of dozens of bytes: the first
        // probe inside it finds nothing inserted (the bytes before were
        // stepped over), the step keeps growing until a probe sees an
        // earlier probe of the run, and from the match on every position
        // is searched again. All lengths of the noise change where in the
        // run the probes fall.
        for noise_len in [40_000usize, 40_001, 40_013, 70_000, 140_000] {
            let mut data = xorshift_bytes(41, noise_len, |x| (x >> 24) as u8);
            data.extend(std::iter::repeat_n(0u8, 30_000));
            data.extend(xorshift_bytes(42, 64, |x| (x >> 24) as u8));
            data.extend(std::iter::repeat_n(7u8, 3));
            let c = compress(&data);
            assert_eq!(c, reference(&data), "noise {noise_len}");
            assert_eq!(decompress(&c).unwrap(), data);
            // The run is found, if later than a matcher that probes every
            // byte finds it.
            assert!(c.len() < noise_len + noise_len / 8 + 1000, "noise {noise_len}: {}", c.len());
        }
    }

    #[test]
    fn match_starting_inside_a_stepped_over_stretch_matches_reference() {
        // A record that sits in noise, where the probes step dozens of
        // bytes at a time, and again a few thousand bytes later. Of its
        // first copy only the probed positions are inserted, so the second
        // can only be matched where a probe of it falls on the same byte
        // of the record as a probe of the first did; from that match on
        // every position is searched again and finds the next inserted
        // one. Each such match starts at a probed position and runs over
        // bytes that were stepped over. Shifting the record moves the
        // probes across it.
        let record = xorshift_bytes(0x33, 8000, |x| (x >> 16) as u8);
        for shift in 0..24usize {
            let mut data = xorshift_bytes(0x51, 50_000 + shift, |x| (x >> 24) as u8);
            data.extend_from_slice(&record);
            data.extend(xorshift_bytes(0x77, 9_000, |x| (x >> 24) as u8));
            data.extend_from_slice(&record);
            let c = compress(&data);
            assert_eq!(c, reference(&data), "shift {shift}");
            assert_eq!(decompress(&c).unwrap(), data);
            let all_literals = 4 + (data.len() * 9).div_ceil(8);
            assert!(c.len() + 2000 < all_literals, "shift {shift}: the repeat was not found");
        }
    }

    #[test]
    fn roundtrip_empty() {
        assert_eq!(decompress(&compress(&[])).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn roundtrip_short_literals() {
        let data = b"abc";
        assert_eq!(decompress(&compress(data)).unwrap(), data);
    }

    #[test]
    fn compresses_repetitive_data() {
        let data: Vec<u8> = b"hello world, ".iter().cycle().take(10_000).copied().collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 4, "{} vs {}", c.len(), data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn handles_overlapping_matches() {
        // Classic RLE-through-LZ case: aaaa... encoded as offset-1 matches.
        let data = vec![b'a'; 1000];
        let c = compress(&data);
        assert!(c.len() < 40);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_data_roundtrips() {
        // Pseudo-random bytes: expansion is bounded by ~12.5% (1 flag bit
        // per literal) plus the 4-byte header.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..5000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + data.len() / 8 + 8);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn truncated_stream_detected() {
        let data = vec![7u8; 100];
        let mut c = compress(&data);
        c.truncate(c.len() - 2);
        assert_eq!(decompress(&c), Err(LzssCorrupt));
    }

    #[test]
    fn bogus_offset_detected() {
        // Handcraft: length 8, one match token with offset 5 at position 0.
        let mut w = BitWriter::new();
        w.push_bit(true);
        w.push_bits(4, 16); // offset 5
        w.push_bits(4, 8); // len 8
        let mut s = 8u32.to_le_bytes().to_vec();
        s.extend_from_slice(&w.into_bytes());
        assert_eq!(decompress(&s), Err(LzssCorrupt));
    }

    #[test]
    fn tiny_header_detected() {
        assert_eq!(decompress(&[1, 2]), Err(LzssCorrupt));
    }

    proptest! {
        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let c = compress(&data);
            prop_assert_eq!(&c, &reference(&data));
            prop_assert_eq!(decompress(&c).unwrap(), data);
        }

        #[test]
        fn prop_roundtrip_structured(
            seed in any::<u8>(),
            reps in 1usize..200,
            chunk in 1usize..64,
        ) {
            let data: Vec<u8> = (0..chunk)
                .map(|i| seed.wrapping_add(i as u8))
                .collect::<Vec<_>>()
                .repeat(reps);
            let c = compress(&data);
            prop_assert_eq!(&c, &reference(&data));
            prop_assert_eq!(decompress(&c).unwrap(), data);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn prop_three_symbol_alphabet_matches_reference(
            // Every 4-byte word recurs thousands of times: the chains run
            // to MAX_CHAIN at nearly every position and ties between
            // equally long candidates are the rule.
            seed in any::<u32>(),
            n in 50_000usize..200_000,
        ) {
            let data = xorshift_bytes(seed, n, |x| b"abc"[(x % 3) as usize]);
            prop_assert_eq!(compress(&data), reference(&data));
        }

        #[test]
        fn prop_payload_shaped_input_matches_reference(
            // What the pipeline feeds it: runs of equal bytes (a code
            // length table), then noise (the coded symbols) longer than
            // 2·WINDOW so the ring wraps, then a repeated record.
            seed in any::<u32>(),
            runs in proptest::collection::vec((any::<u8>(), 1usize..600), 1..60),
            noise in 0usize..150_000,
            record in 1usize..40,
        ) {
            let mut data = Vec::new();
            for (byte, len) in runs {
                data.extend(std::iter::repeat_n(byte % 20, len));
            }
            data.extend(xorshift_bytes(seed, noise, |x| (x >> 24) as u8));
            let rec = xorshift_bytes(seed ^ 0x5555, record, |x| (x >> 16) as u8);
            for _ in 0..200 {
                data.extend_from_slice(&rec);
            }
            let c = compress(&data);
            prop_assert_eq!(&c, &reference(&data));
            prop_assert_eq!(decompress(&c).unwrap(), data);
        }
    }
}
