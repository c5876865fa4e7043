//! Canonical Huffman coding of quantization codes.
//!
//! SZ entropy-codes the quantization-bin indices with a Huffman tree built
//! from the actual symbol histogram. We implement canonical Huffman: only
//! the code *lengths* are serialized (as a compact table), and both encoder
//! and decoder derive identical codebooks from them.

use crate::bitio::{BitReader, BitStreamExhausted, BitWriter};

/// Maximum code length we allow; 32 keeps codes in a u32. A histogram
/// needs Fibonacci-like skew over at least F(34) ≈ 5.7 M symbols to ask
/// for more, and [`code_lengths`] refuses it when it does.
pub const MAX_CODE_LEN: u8 = 32;

/// Errors from Huffman coding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HuffmanError {
    /// The symbol alphabet was empty.
    EmptyAlphabet,
    /// A symbol outside the encoder's alphabet was submitted.
    UnknownSymbol(u32),
    /// The encoded stream ended prematurely or was corrupt.
    Corrupt,
    /// The histogram is so skewed that its Huffman tree is deeper than
    /// [`MAX_CODE_LEN`]; no decodable table exists for it.
    CodeTooLong,
}

impl std::fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffmanError::EmptyAlphabet => write!(f, "empty alphabet"),
            HuffmanError::UnknownSymbol(s) => write!(f, "unknown symbol {s}"),
            HuffmanError::Corrupt => write!(f, "corrupt Huffman stream"),
            HuffmanError::CodeTooLong => {
                write!(f, "Huffman code longer than {MAX_CODE_LEN} bits")
            }
        }
    }
}

impl std::error::Error for HuffmanError {}

impl From<BitStreamExhausted> for HuffmanError {
    fn from(_: BitStreamExhausted) -> Self {
        HuffmanError::Corrupt
    }
}

/// Compute canonical code lengths from symbol frequencies.
///
/// `freqs` maps dense symbol index → count; zero-count symbols get no code.
/// Returns a vector of code lengths aligned with `freqs`, or
/// [`HuffmanError::CodeTooLong`] when the tree is deeper than
/// [`MAX_CODE_LEN`] (clamping a depth would break the Kraft equality and
/// write a table the decoder rejects).
///
/// The tree is the one a min-heap over `(weight, node id)` builds, with
/// leaf ids below internal ids and internal ids in creation order, so the
/// lengths — and every stream coded with them — are a pure function of
/// the histogram. It is built without the heap: the leaves are sorted by
/// `(freq, index)`, the internal nodes queue up in creation order, and
/// each step takes the smaller front of the two queues. That pops exactly
/// the heap's sequence, because a new internal node weighs at least as
/// much as every earlier one (both of its children are no lighter than
/// the children of the node before it), which keeps the second queue
/// sorted by `(weight, id)` too, and on equal weights the leaf goes first
/// (its id is smaller).
pub fn code_lengths(freqs: &[u64]) -> Result<Vec<u8>, HuffmanError> {
    let present: Vec<(u64, usize)> =
        freqs.iter().enumerate().filter(|&(_, &f)| f > 0).map(|(i, &f)| (f, i)).collect();
    let m = present.len();
    if m == 0 {
        return Err(HuffmanError::EmptyAlphabet);
    }
    let mut lens = vec![0u8; freqs.len()];
    if m == 1 {
        // Degenerate alphabet: give the single symbol a 1-bit code.
        lens[present[0].1] = 1;
        return Ok(lens);
    }
    // Leaves in `(freq, index)` order. `present` is in index order, so a
    // stable counting sort on the frequency orders the rare symbols —
    // nearly all of a quantizer histogram — and only the frequent ones,
    // which share the last bucket, are left to a comparison sort.
    const RARE: usize = 256;
    let bucket = |f: u64| f.min(RARE as u64) as usize;
    let mut start = [0usize; RARE + 2];
    for &(f, _) in &present {
        start[bucket(f) + 1] += 1;
    }
    for b in 1..RARE + 2 {
        start[b] += start[b - 1];
    }
    let frequent = start[RARE];
    let mut leaves = vec![(0u64, 0usize); m];
    for &leaf in &present {
        let slot = &mut start[bucket(leaf.0)];
        leaves[*slot] = leaf;
        *slot += 1;
    }
    drop(present);
    leaves[frequent..].sort_unstable();
    // Nodes 0..m are the sorted leaves, m..2m-1 the internal nodes in
    // creation order; the last one is the root.
    let mut parent = vec![0usize; 2 * m - 1];
    let mut weights: Vec<u64> = Vec::with_capacity(m - 1);
    let (mut next_leaf, mut next_internal) = (0usize, 0usize);
    for id in m..2 * m - 1 {
        let mut sum = 0u64;
        for _ in 0..2 {
            let leaf_first = next_leaf < m
                && weights.get(next_internal).is_none_or(|&w| leaves[next_leaf].0 <= w);
            let node = if leaf_first {
                sum += leaves[next_leaf].0;
                next_leaf += 1;
                next_leaf - 1
            } else {
                sum += weights[next_internal];
                next_internal += 1;
                m + next_internal - 1
            };
            parent[node] = id;
        }
        weights.push(sum);
    }
    // Every parent has a larger index than its children, so one reverse
    // pass turns the parent array into depths in place.
    let root = 2 * m - 2;
    parent[root] = 0;
    for node in (0..root).rev() {
        parent[node] = parent[parent[node]] + 1;
    }
    for (&(_, sym), &depth) in leaves.iter().zip(&parent) {
        if depth > MAX_CODE_LEN as usize {
            return Err(HuffmanError::CodeTooLong);
        }
        lens[sym] = depth as u8;
    }
    Ok(lens)
}

/// The symbols that have a code, ordered by `(length, index)`, and the
/// number of codes per length: one counting sort shared by the encoder's
/// and the decoder's canonical code assignment. A length above
/// [`MAX_CODE_LEN`] is `Corrupt`.
fn symbols_by_length(
    lens: &[u8],
) -> Result<([u32; MAX_CODE_LEN as usize + 1], Vec<u32>), HuffmanError> {
    let mut count = [0u32; MAX_CODE_LEN as usize + 1];
    for &l in lens {
        if l > MAX_CODE_LEN {
            return Err(HuffmanError::Corrupt);
        }
        if l > 0 {
            count[l as usize] += 1;
        }
    }
    let mut next = [0u32; MAX_CODE_LEN as usize + 1];
    for l in 1..=MAX_CODE_LEN as usize {
        next[l] = next[l - 1] + count[l - 1];
    }
    let present = (next[MAX_CODE_LEN as usize] + count[MAX_CODE_LEN as usize]) as usize;
    let mut order = vec![0u32; present];
    for (i, &l) in lens.iter().enumerate() {
        if l > 0 {
            order[next[l as usize] as usize] = i as u32;
            next[l as usize] += 1;
        }
    }
    Ok((count, order))
}

/// Assign canonical codes (MSB-first) from code lengths.
///
/// Symbols are ordered by (length, index); the returned vector holds
/// `(code, len)` per symbol (len 0 ⇒ absent). The lengths must come from
/// [`code_lengths`]: a length above [`MAX_CODE_LEN`] panics.
pub fn canonical_codes(lens: &[u8]) -> Vec<(u32, u8)> {
    let (_, order) = symbols_by_length(lens).expect("code lengths within MAX_CODE_LEN");
    let mut codes = vec![(0u32, 0u8); lens.len()];
    let mut code = 0u32;
    let mut prev_len = 0u8;
    for &i in &order {
        let l = lens[i as usize];
        code <<= (l - prev_len) as u32;
        codes[i as usize] = (code, l);
        code += 1;
        prev_len = l;
    }
    codes
}

/// A canonical Huffman encoder over a dense `u32` alphabet `0..n`.
#[derive(Debug, Clone)]
pub struct HuffmanEncoder {
    codes: Vec<(u32, u8)>,
}

impl HuffmanEncoder {
    /// Build from symbol frequencies.
    pub fn from_freqs(freqs: &[u64]) -> Result<Self, HuffmanError> {
        let lens = code_lengths(freqs)?;
        Ok(HuffmanEncoder { codes: canonical_codes(&lens) })
    }

    /// Code lengths, for header serialization.
    pub fn lengths(&self) -> Vec<u8> {
        self.codes.iter().map(|&(_, l)| l).collect()
    }

    /// Encode one symbol into the writer.
    #[inline]
    pub fn encode(&self, sym: u32, w: &mut BitWriter) -> Result<(), HuffmanError> {
        let (code, len) = *self
            .codes
            .get(sym as usize)
            .ok_or(HuffmanError::UnknownSymbol(sym))?;
        if len == 0 {
            return Err(HuffmanError::UnknownSymbol(sym));
        }
        w.push_bits(code as u64, len);
        Ok(())
    }

    /// Encode a whole symbol slice, packing several codes into a 64-bit
    /// accumulator before each writer flush. Emits exactly the bytes that
    /// per-symbol [`HuffmanEncoder::encode`] calls would (MSB-first
    /// concatenation is associative); only the per-symbol writer overhead
    /// is amortized. On an unknown symbol the pending accumulator is
    /// dropped — the whole compression fails in that case, so no partial
    /// stream is ever observed.
    pub fn encode_slice(&self, syms: &[u32], w: &mut BitWriter) -> Result<(), HuffmanError> {
        let mut acc = 0u64;
        let mut nb = 0u32;
        // Symbols are consumed in pairs: the two table lookups are
        // independent and their codes are joined into one word before
        // touching the accumulator, so the serial shift-or chain runs
        // once per pair instead of once per symbol.
        let mut chunks = syms.chunks_exact(2);
        for pair in &mut chunks {
            let (c0, l0) =
                *self.codes.get(pair[0] as usize).ok_or(HuffmanError::UnknownSymbol(pair[0]))?;
            let (c1, l1) =
                *self.codes.get(pair[1] as usize).ok_or(HuffmanError::UnknownSymbol(pair[1]))?;
            if l0 == 0 || l1 == 0 {
                let bad = if l0 == 0 { pair[0] } else { pair[1] };
                return Err(HuffmanError::UnknownSymbol(bad));
            }
            // Each len ≤ MAX_CODE_LEN = 32, so a joined pair is ≤ 64 bits
            // and after a flush the shifts below cannot overflow. A
            // 64-bit pair with a non-empty accumulator flushes first.
            let joined = ((c0 as u64) << l1) | c1 as u64;
            let jlen = (l0 + l1) as u32;
            if nb + jlen > 64 {
                w.push_bits(acc, nb as u8);
                acc = 0;
                nb = 0;
            }
            if jlen == 64 {
                w.push_bits(joined, 64);
            } else {
                acc = (acc << jlen) | joined;
                nb += jlen;
            }
        }
        for &sym in chunks.remainder() {
            let (code, len) =
                *self.codes.get(sym as usize).ok_or(HuffmanError::UnknownSymbol(sym))?;
            if len == 0 {
                return Err(HuffmanError::UnknownSymbol(sym));
            }
            if nb + len as u32 > 64 {
                w.push_bits(acc, nb as u8);
                acc = 0;
                nb = 0;
            }
            acc = (acc << len) | code as u64;
            nb += len as u32;
        }
        if nb > 0 {
            w.push_bits(acc, nb as u8);
        }
        Ok(())
    }

    /// Total encoded length in bits for a histogram (entropy-cost estimate).
    pub fn encoded_bits(&self, freqs: &[u64]) -> u64 {
        freqs
            .iter()
            .zip(&self.codes)
            .map(|(&f, &(_, l))| f * l as u64)
            .sum()
    }
}

/// Width of the fast-path lookup table: one peek of this many bits
/// resolves every code of length ≤ LUT_BITS in O(1).
pub const LUT_BITS: u8 = 11;

/// Canonical Huffman decoder built from code lengths.
///
/// Decoding first consults a 2^[`LUT_BITS`]-entry prefix table (quantizer
/// codes cluster around the zero bin, so the common symbols have short
/// codes and hit the table); longer codes fall back to the canonical
/// first-code walk — O(max_len) per symbol without an explicit tree.
#[derive(Debug, Clone)]
pub struct HuffmanDecoder {
    /// first_code[l], count[l], and the symbols sorted by (len, index).
    first_code: [u32; MAX_CODE_LEN as usize + 1],
    first_sym_idx: [u32; MAX_CODE_LEN as usize + 1],
    count: [u32; MAX_CODE_LEN as usize + 1],
    sorted_syms: Vec<u32>,
    /// `(symbol, code_len)` per LUT_BITS-bit prefix; len 0 ⇒ slow path.
    lut: Vec<(u32, u8)>,
}

impl HuffmanDecoder {
    /// Build from per-symbol code lengths.
    pub fn from_lengths(lens: &[u8]) -> Result<Self, HuffmanError> {
        let (count, sorted_syms) = symbols_by_length(lens)?;
        if sorted_syms.is_empty() {
            return Err(HuffmanError::EmptyAlphabet);
        }
        // A valid prefix code satisfies the Kraft inequality; corrupt
        // headers can oversubscribe a length class, which would make the
        // canonical codes overflow their bit width (and the LUT below).
        let kraft: u128 = (1..=MAX_CODE_LEN as usize)
            .map(|l| (count[l] as u128) << (MAX_CODE_LEN as usize - l))
            .sum();
        if kraft > 1u128 << MAX_CODE_LEN {
            return Err(HuffmanError::Corrupt);
        }
        let mut first_code = [0u32; MAX_CODE_LEN as usize + 1];
        let mut first_sym_idx = [0u32; MAX_CODE_LEN as usize + 1];
        let mut code = 0u32;
        let mut idx = 0u32;
        for l in 1..=MAX_CODE_LEN as usize {
            code <<= 1;
            first_code[l] = code;
            first_sym_idx[l] = idx;
            code += count[l];
            idx += count[l];
        }
        // Fast path: expand every code of length ≤ LUT_BITS into all the
        // table slots sharing its prefix.
        let mut lut = vec![(0u32, 0u8); 1usize << LUT_BITS];
        for l in 1..=LUT_BITS.min(MAX_CODE_LEN) as usize {
            let c0 = first_code[l];
            for k in 0..count[l] {
                let sym = sorted_syms[(first_sym_idx[l] + k) as usize];
                let code = c0 + k;
                let shift = LUT_BITS as usize - l;
                let base = (code as usize) << shift;
                // Kraft validation above guarantees this fits; keep a
                // defensive clamp so no table can ever overrun.
                let end = (base + (1 << shift)).min(lut.len());
                if base >= end {
                    continue;
                }
                for slot in &mut lut[base..end] {
                    *slot = (sym, l as u8);
                }
            }
        }
        Ok(HuffmanDecoder { first_code, first_sym_idx, count, sorted_syms, lut })
    }

    /// Decode one symbol (LUT fast path, canonical walk fallback).
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u32, HuffmanError> {
        let (prefix, avail) = r.peek_bits(LUT_BITS);
        if avail > 0 {
            let (sym, len) = self.lut[prefix as usize];
            if len != 0 && len <= avail {
                r.advance(len);
                return Ok(sym);
            }
        }
        self.decode_walk(r)
    }

    /// Canonical first-code walk (always correct; used for codes longer
    /// than [`LUT_BITS`] and near the end of the stream). Works on a
    /// single peeked word: the candidate code at each length is a shift of
    /// the same 32-bit window, so no per-bit stream traffic.
    #[inline]
    pub fn decode_walk(&self, r: &mut BitReader<'_>) -> Result<u32, HuffmanError> {
        let (word, avail) = r.peek_bits(MAX_CODE_LEN);
        for l in 1..=avail {
            let c = self.count[l as usize];
            if c == 0 {
                continue;
            }
            let code = (word >> (MAX_CODE_LEN - l)) as u32;
            if code >= self.first_code[l as usize] && code < self.first_code[l as usize] + c {
                r.advance(l);
                let off = code - self.first_code[l as usize];
                return Ok(self.sorted_syms[(self.first_sym_idx[l as usize] + off) as usize]);
            }
        }
        Err(HuffmanError::Corrupt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The heap-based build `code_lengths` replaced, kept as its
    /// executable specification: pop the two smallest `(weight, id)`
    /// (leaf ids are symbol indices, internal ids follow in creation
    /// order), then count each leaf's parent hops. Depths are returned
    /// unclamped.
    fn reference_depths(freqs: &[u64]) -> Vec<u32> {
        let n = freqs.len();
        let present: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
        let mut depths = vec![0u32; n];
        if present.len() == 1 {
            depths[present[0]] = 1;
            return depths;
        }
        let mut parent = vec![usize::MAX; n];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
            present.iter().map(|&i| Reverse((freqs[i], i))).collect();
        while heap.len() > 1 {
            let Reverse((wa, a)) = heap.pop().unwrap();
            let Reverse((wb, b)) = heap.pop().unwrap();
            let id = parent.len();
            parent.push(usize::MAX);
            parent[a] = id;
            parent[b] = id;
            heap.push(Reverse((wa + wb, id)));
        }
        for &i in &present {
            let mut cur = i;
            while parent[cur] != usize::MAX {
                cur = parent[cur];
                depths[i] += 1;
            }
        }
        depths
    }

    /// `code_lengths` must give the reference's depths, or refuse exactly
    /// when one of them exceeds `MAX_CODE_LEN`.
    fn assert_matches_reference(freqs: &[u64]) {
        let want = reference_depths(freqs);
        match code_lengths(freqs) {
            Ok(lens) => {
                let got: Vec<u32> = lens.iter().map(|&l| l as u32).collect();
                assert_eq!(got, want);
            }
            Err(e) => {
                assert_eq!(e, HuffmanError::CodeTooLong);
                assert!(want.iter().any(|&d| d > MAX_CODE_LEN as u32));
            }
        }
    }

    /// The first `k` Fibonacci numbers (1, 1, 2, 3, …): the histogram
    /// whose Huffman tree is a path of depth `k - 1`.
    fn fibonacci(k: usize) -> Vec<u64> {
        let mut f = vec![1u64; k];
        for i in 2..k {
            f[i] = f[i - 1] + f[i - 2];
        }
        f
    }

    fn roundtrip(freqs: &[u64], msg: &[u32]) {
        let enc = HuffmanEncoder::from_freqs(freqs).unwrap();
        let dec = HuffmanDecoder::from_lengths(&enc.lengths()).unwrap();
        let mut w = BitWriter::new();
        for &s in msg {
            enc.encode(s, &mut w).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in msg {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn roundtrip_skewed_histogram() {
        let freqs = vec![1000, 500, 100, 10, 1, 0, 3];
        let msg = vec![0, 1, 0, 2, 0, 6, 4, 3, 1, 0, 0, 2];
        roundtrip(&freqs, &msg);
    }

    #[test]
    fn roundtrip_uniform_histogram() {
        let freqs = vec![5u64; 257];
        let msg: Vec<u32> = (0..257).collect();
        roundtrip(&freqs, &msg);
    }

    #[test]
    fn single_symbol_alphabet() {
        let freqs = vec![0, 42, 0];
        let msg = vec![1u32; 100];
        roundtrip(&freqs, &msg);
    }

    #[test]
    fn empty_alphabet_rejected() {
        assert_eq!(code_lengths(&[0, 0]).unwrap_err(), HuffmanError::EmptyAlphabet);
        assert!(HuffmanEncoder::from_freqs(&[]).is_err());
    }

    #[test]
    fn unknown_symbol_rejected() {
        let enc = HuffmanEncoder::from_freqs(&[10, 0, 10]).unwrap();
        let mut w = BitWriter::new();
        assert_eq!(enc.encode(1, &mut w).unwrap_err(), HuffmanError::UnknownSymbol(1));
        assert_eq!(enc.encode(7, &mut w).unwrap_err(), HuffmanError::UnknownSymbol(7));
    }

    #[test]
    fn skewed_codes_beat_flat_codes() {
        // Entropy coding must give the frequent symbol a short code.
        let freqs = vec![10_000u64, 10, 10, 10];
        let enc = HuffmanEncoder::from_freqs(&freqs).unwrap();
        let lens = enc.lengths();
        assert_eq!(lens[0], 1, "dominant symbol should get a 1-bit code");
        let bits = enc.encoded_bits(&freqs);
        let flat = 2 * freqs.iter().sum::<u64>();
        assert!(bits < flat, "huffman {bits} bits vs flat {flat}");
    }

    #[test]
    fn encode_slice_matches_per_symbol_encode() {
        // The batched emitter packs pairs of codes per accumulator round;
        // its output must be byte-for-byte what the one-at-a-time path
        // produces, including odd-length slices that hit the remainder
        // loop and skewed alphabets with long codes.
        let mut freqs = vec![1u64; 700];
        freqs[0] = 1 << 20;
        freqs[1] = 1 << 14;
        freqs[3] = 1 << 9;
        let enc = HuffmanEncoder::from_freqs(&freqs).unwrap();
        let mut x = 0x9e37_79b9u32;
        let msg: Vec<u32> = (0..10_001)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                if x % 4 == 0 { x % 700 } else { x % 4 }
            })
            .collect();
        for len in [0usize, 1, 2, 7, 10_001] {
            let mut a = BitWriter::new();
            for &s in &msg[..len] {
                enc.encode(s, &mut a).unwrap();
            }
            let mut b = BitWriter::new();
            enc.encode_slice(&msg[..len], &mut b).unwrap();
            assert_eq!(a.into_bytes(), b.into_bytes(), "len={len}");
        }
    }

    #[test]
    fn encode_slice_rejects_unknown_symbols() {
        let enc = HuffmanEncoder::from_freqs(&[10, 0, 10]).unwrap();
        let mut w = BitWriter::new();
        // Out-of-alphabet and zero-frequency symbols must error in both
        // the paired loop and the remainder loop.
        assert_eq!(enc.encode_slice(&[0, 7], &mut w).unwrap_err(), HuffmanError::UnknownSymbol(7));
        assert_eq!(enc.encode_slice(&[0, 1], &mut w).unwrap_err(), HuffmanError::UnknownSymbol(1));
        assert_eq!(
            enc.encode_slice(&[0, 2, 9], &mut w).unwrap_err(),
            HuffmanError::UnknownSymbol(9)
        );
        assert_eq!(
            enc.encode_slice(&[2, 0, 1], &mut w).unwrap_err(),
            HuffmanError::UnknownSymbol(1)
        );
    }

    #[test]
    fn kraft_inequality_holds() {
        let freqs: Vec<u64> = (1..=64).map(|i| i * i).collect();
        let lens = code_lengths(&freqs).unwrap();
        let kraft: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-9, "kraft={kraft}");
    }

    #[test]
    fn corrupt_stream_detected() {
        let enc = HuffmanEncoder::from_freqs(&[10, 20, 30, 5, 2]).unwrap();
        let dec = HuffmanDecoder::from_lengths(&enc.lengths()).unwrap();
        // A stream of all-ones longer than any code but never matching at
        // any length either decodes to *some* symbols or errors out at
        // exhaustion — it must not panic or loop forever.
        let bytes = vec![0xFFu8; 2];
        let mut r = BitReader::new(&bytes);
        let mut decoded = 0;
        while decoded < 100 {
            match dec.decode(&mut r) {
                Ok(_) => decoded += 1,
                Err(_) => break,
            }
        }
        assert!(decoded < 100);
    }

    #[test]
    fn lut_and_walk_paths_agree_on_every_symbol() {
        // Alphabet sized so codes straddle LUT_BITS: frequent symbols get
        // short (LUT) codes, the long tail exceeds the table width.
        let mut freqs = vec![1u64; 5000];
        freqs[0] = 1 << 20;
        freqs[1] = 1 << 16;
        freqs[2] = 1 << 12;
        let enc = HuffmanEncoder::from_freqs(&freqs).unwrap();
        let dec = HuffmanDecoder::from_lengths(&enc.lengths()).unwrap();
        let lens = enc.lengths();
        assert!(lens.iter().any(|&l| l > 0 && l <= LUT_BITS), "need LUT-covered codes");
        assert!(lens.iter().any(|&l| l > LUT_BITS), "need walk-only codes");
        // Every symbol must decode identically through decode() (LUT) and
        // decode_walk().
        let msg: Vec<u32> = (0..5000).step_by(7).chain([0, 1, 2, 4999]).collect();
        let mut w = BitWriter::new();
        for &s in &msg {
            enc.encode(s, &mut w).unwrap();
        }
        let bytes = w.into_bytes();
        let mut fast = BitReader::new(&bytes);
        let mut slow = BitReader::new(&bytes);
        for &s in &msg {
            assert_eq!(dec.decode(&mut fast).unwrap(), s);
            assert_eq!(dec.decode_walk(&mut slow).unwrap(), s);
            assert_eq!(fast.bit_pos(), slow.bit_pos(), "paths must consume identically");
        }
    }

    #[test]
    fn lut_path_respects_stream_end() {
        // A stream that ends mid-code must error, not decode padding zeros.
        let enc = HuffmanEncoder::from_freqs(&[100, 1, 1, 1, 1, 1, 1, 1, 1]).unwrap();
        let dec = HuffmanDecoder::from_lengths(&enc.lengths()).unwrap();
        let mut w = BitWriter::new();
        enc.encode(3, &mut w).unwrap(); // a multi-bit code
        let bytes = w.into_bytes();
        // Decode from an empty stream: must be Corrupt, not symbol 0.
        let empty: [u8; 0] = [];
        let mut r = BitReader::new(&empty);
        assert_eq!(dec.decode(&mut r), Err(HuffmanError::Corrupt));
        // Full stream decodes fine.
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.decode(&mut r).unwrap(), 3);
    }

    #[test]
    fn one_and_two_symbol_alphabets_match_reference() {
        assert_matches_reference(&[0, 0, 9, 0]);
        assert_matches_reference(&[3, 0, 0, 3]);
        assert_matches_reference(&[1, 0, 1000]);
        assert_eq!(code_lengths(&[0, 7, 0, 2]).unwrap(), vec![0, 1, 0, 1]);
    }

    #[test]
    fn fibonacci_weights_match_reference_up_to_the_deepest_code() {
        // k Fibonacci weights make a path of depth k − 1, so 33 of them
        // reach MAX_CODE_LEN exactly, whichever way round they lie.
        for k in 2..=MAX_CODE_LEN as usize + 1 {
            let mut freqs = fibonacci(k);
            assert_matches_reference(&freqs);
            let lens = code_lengths(&freqs).unwrap();
            assert_eq!(*lens.iter().max().unwrap() as usize, k - 1);
            freqs.reverse();
            assert_matches_reference(&freqs);
        }
    }

    #[test]
    fn tree_deeper_than_max_code_len_is_refused_not_clamped() {
        // One more Fibonacci weight asks for a 33-bit code. Clamping it to
        // 32 bits oversubscribes the code space (Kraft sum > 1) and writes
        // a table `from_lengths` rejects, so the build must fail instead.
        for k in [MAX_CODE_LEN as usize + 2, 40, 60] {
            let freqs = fibonacci(k);
            assert_eq!(code_lengths(&freqs).unwrap_err(), HuffmanError::CodeTooLong);
            assert_eq!(
                HuffmanEncoder::from_freqs(&freqs).unwrap_err(),
                HuffmanError::CodeTooLong
            );
            let clamped: Vec<u8> = reference_depths(&freqs)
                .iter()
                .map(|&d| d.min(MAX_CODE_LEN as u32) as u8)
                .collect();
            assert_eq!(HuffmanDecoder::from_lengths(&clamped).unwrap_err(), HuffmanError::Corrupt);
        }
    }

    #[test]
    fn counting_sort_orders_by_length_then_index() {
        let mut x = 0x2545_f491u32;
        let lens: Vec<u8> = (0..3000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                if x.is_multiple_of(3) { 0 } else { (x % 32) as u8 + 1 }
            })
            .collect();
        let mut want: Vec<u32> = (0..lens.len() as u32).filter(|&i| lens[i as usize] > 0).collect();
        want.sort_by_key(|&i| (lens[i as usize], i));
        let (count, order) = symbols_by_length(&lens).unwrap();
        assert_eq!(order, want);
        for l in 1..=MAX_CODE_LEN {
            assert_eq!(count[l as usize] as usize, lens.iter().filter(|&&x| x == l).count());
        }
        assert_eq!(count[0], 0);
    }

    proptest! {
        #[test]
        fn prop_equal_frequencies_match_reference(n in 1usize..700, f in 1u64..1000) {
            assert_matches_reference(&vec![f; n]);
        }

        #[test]
        fn prop_sparse_dense_alphabet_histograms_match_reference(
            // Few distinct counts over the 65 537-symbol alphabet: ties
            // between leaves and between leaves and internal nodes
            // everywhere, which is where the pop order could differ.
            hits in proptest::collection::vec((0usize..65_537, 1u64..6), 1..600),
            tail in proptest::collection::vec((0usize..65_537, any::<u32>()), 0..40),
        ) {
            let mut freqs = vec![0u64; 65_537];
            for (sym, f) in hits {
                freqs[sym] += f;
            }
            for (sym, f) in tail {
                freqs[sym] += f as u64;
            }
            assert_matches_reference(&freqs);
        }

        #[test]
        fn prop_fibonacci_weights_anywhere_match_reference(
            k in 2usize..40,
            stride in 1usize..1000,
            scale in 1u64..1000,
        ) {
            // Scaled Fibonacci weights scattered over a sparse alphabet,
            // on both sides of the depth limit.
            let mut freqs = vec![0u64; 40 * 1000];
            for (i, f) in fibonacci(k).into_iter().enumerate() {
                freqs[(i * stride * 7) % (40 * 1000 - 1)] += f * scale;
            }
            assert_matches_reference(&freqs);
        }
    }

    #[test]
    fn decoder_rejects_overlong_lengths() {
        let mut lens = vec![8u8; 4];
        lens[0] = MAX_CODE_LEN + 1;
        assert_eq!(HuffmanDecoder::from_lengths(&lens).unwrap_err(), HuffmanError::Corrupt);
    }
}
