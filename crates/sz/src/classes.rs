//! The class form of the entropy stage: a code for wide alphabets.
//!
//! At tight bounds a chunk's residuals spread over the whole quantizer
//! alphabet, so a code per symbol needs tens of thousands of code lengths
//! (a NYX chunk at 1e-4 stores 10.7–11.2 KB of them, packed), which the
//! decoder unpacks and builds its tables from before the first symbol. The
//! class form gives a residual `r = symbol − radius` with `|r| < 32` a
//! code of its own and any other the code of its *class*: `e = ⌊log2|r|⌋`,
//! the two bits below the leading one and the sign, followed by the
//! `e − 2` low bits of `|r|` raw (the shape of DEFLATE's length codes and
//! JPEG's magnitude categories). The escape, symbol 0, is a class:
//!
//! | class                    | residual                                | raw bits |
//! |--------------------------|-----------------------------------------|----------|
//! | 0                        | the escape                              | 0        |
//! | 1–63                     | `class − 32`                            | 0        |
//! | `64 + 8(e − 5) + 4s + m` | `(−1)^s · ((4 + m)·2^(e − 2) + raw)`    | `e − 2`  |
//!
//! That is `64 + 8·(⌊log2(radius − 1)⌋ − 4)` classes: 144 at the default
//! radius, 184 at the largest. The table stage stores the class code's
//! lengths, and the symbol section each class code followed by its raw
//! bits, MSB-first. `FLAG_CLASS_CODES` in the envelope says a stream is in
//! this form; the writer prices it where the exact table is large and
//! keeps the smaller form (`pipeline::entropy_encode`).

use std::ops::Range;

use crate::bitio::BitReader;
use crate::huffman::{HuffmanDecoder, HuffmanEncoder, LUT_BITS};
use crate::SzError;

/// Residuals of a magnitude below this keep a code of their own.
const CORE: usize = 32;
/// The classes of the largest radius, `Quantizer::MAX_RADIUS`.
const MAX_CLASSES: usize = 184;

/// The classes at `radius`.
pub(crate) fn class_count(radius: u32) -> usize {
    let top = radius.saturating_sub(1).checked_ilog2().unwrap_or(0) as usize;
    2 * CORE + 8 * top.saturating_sub(4)
}

/// The raw bits behind class `c`'s code.
fn raw_width(c: usize) -> u32 {
    c.checked_sub(2 * CORE).map_or(0, |wide| 3 + wide as u32 / 8)
}

/// The smallest magnitude class `c` (not the escape) stands for, and
/// whether its residuals are negative. A magnitude is its class's base
/// plus its raw bits.
fn base(c: usize) -> (usize, bool) {
    match c.checked_sub(2 * CORE) {
        None => (c.abs_diff(CORE), c < CORE),
        Some(wide) => ((4 + (wide & 3)) << raw_width(c), wide & 4 != 0),
    }
}

/// Every class at `radius` and the symbols it stands for, a run of
/// consecutive ones (empty for magnitudes at or past the radius).
fn runs(radius: u32) -> impl Iterator<Item = (usize, Range<usize>)> {
    let radius = radius as usize;
    (0..class_count(radius as u32)).map(move |c| {
        let (mag, neg) = base(c);
        let hi = (mag + (1 << raw_width(c))).min(radius);
        let lo = mag.min(hi);
        let syms = match c {
            0 => 0..1,
            _ if neg => radius + 1 - hi..radius + 1 - lo,
            _ => radius + lo..radius + hi,
        };
        (c, syms)
    })
}

/// The class form of the symbols `exact` counted at `radius`: its code
/// built into `classes`, and the bits the symbols take in it, raw bits
/// included. `None` where a class code and its raw bits together would
/// pass the 32 bits an emitted code holds, or a symbol is in no class
/// (the last of the alphabet, `2·radius`, which the quantizer never gives).
pub(crate) fn price(exact: &HuffmanEncoder, radius: u32, classes: &mut HuffmanEncoder) -> Option<u64> {
    let (mut freqs, mut raw, count) = ([0u64; MAX_CLASSES], 0, class_count(radius));
    for (c, syms) in runs(radius) {
        freqs[c] = exact.count_in(syms);
        raw += freqs[c] * raw_width(c) as u64;
    }
    if exact.count_in(2 * radius as usize..2 * radius as usize + 1) > 0 {
        return None;
    }
    classes.rebuild_from(&freqs[..count]).ok()?;
    let fits = |c: usize| classes.code(c as u32).map_or(true, |(_, len)| len as u32 + raw_width(c) <= 32);
    (0..count).all(fits).then(|| classes.coded_bits() + raw)
}

/// `exact`'s codes swapped for the class form's under `classes`, as
/// [`price`] built it: each symbol's class code and raw bits, the low
/// bits of its magnitude, as one code.
pub(crate) fn recode(exact: &mut HuffmanEncoder, radius: u32, classes: &HuffmanEncoder) {
    for (c, syms) in runs(radius) {
        let (Ok((code, len)), k) = (classes.code(c as u32), raw_width(c)) else { continue };
        // Raw bits ascend with the symbol over a positive class and descend
        // over a negative one.
        let raw = syms.start.abs_diff(radius as usize) as u32 & ((1 << k) - 1);
        exact.recode(syms, (code << k | raw, len + k as u8), if base(c).1 { u32::MAX } else { 1 });
    }
}

/// Class `c` at `radius` for the decode loop: bits 6..11 the raw bits
/// behind its code, bit 11 the sign, bits 12..32 how many raw values keep
/// the magnitude under the radius, bits 32..64 the symbol of raw value 0.
/// Bits 0..6 are left for the code's length and the raw bits together.
fn record(c: usize, radius: u32) -> u64 {
    if c == 0 {
        return 1 << 12;
    }
    let ((mag, neg), k) = (base(c), raw_width(c));
    let within = (radius as usize).saturating_sub(mag).min(1 << k) as u64;
    let sym = if neg { (radius as usize).wrapping_sub(mag) } else { radius as usize + mag } as u32;
    (sym as u64) << 32 | within << 12 | (neg as u64) << 11 | (k as u64) << 6 | k as u64
}

/// The symbol record `rec` and raw value `raw` give, and whether its
/// magnitude reaches the radius.
#[inline(always)]
fn symbol(rec: u64, raw: u64) -> (u32, bool) {
    let neg = 0u32.wrapping_sub((rec >> 11) as u32 & 1);
    let sym = ((rec >> 32) as u32).wrapping_add((raw as u32 ^ neg).wrapping_sub(neg));
    (sym, raw >= (rec >> 12) & 0xf_ffff)
}

/// The class form's decoder: a Huffman decoder over the classes, and per
/// class its [`record`].
pub(crate) struct ClassDecoder {
    codes: HuffmanDecoder,
    records: Vec<u64>,
    /// Per index of the primary table: the record of the class whose
    /// code the index starts with, that code's length added in; 0 where
    /// the code is longer than the table reaches.
    fast: Box<[u64; 1 << LUT_BITS]>,
}

impl ClassDecoder {
    /// From the code lengths of classes `first..first + lens.len()`, which
    /// the caller has checked lie below [`class_count`] at `radius`.
    pub(crate) fn new(lens: &[u8], first: usize, radius: u32) -> Result<Self, SzError> {
        let codes = HuffmanDecoder::from_occupied(lens, first).map_err(|_| SzError::Corrupt("class code"))?;
        let records: Vec<u64> = (0..first + lens.len()).map(|c| record(c, radius)).collect();
        let fast = codes.primary().map(|leaf| leaf.map_or(0, |(c, len)| records[c as usize] + len as u64));
        let fast = fast.collect::<Box<[u64]>>().try_into().expect("one record an index");
        Ok(ClassDecoder { codes, records, fast })
    }

    /// Decode `n` symbols from the start of `bytes` into `out` (resized to
    /// `n`), each `radius + r` as the exact form gives it.
    ///
    /// The bulk loop of [`HuffmanDecoder::decode_into`]: the window in a
    /// register, refilled from one 8-byte load every symbol (a class code
    /// and its raw bits take 49 bits at most, and a refill leaves 56 or
    /// more), one lookup for the class's code length, raw-bit count and
    /// symbol base, the raw bits read from the same window. The symbols
    /// where a whole word no longer fits go through `BitReader`, which
    /// finds raw bits that run past the section. A magnitude at or past
    /// the radius is an error.
    ///
    /// Decode budget: the symbols, four bytes each (the caller checks `n`
    /// at 8 a byte of section); the class decoder's tables, which are the
    /// exact decoder's over at most 184 codes; and 16 KiB of primary
    /// records plus 8 bytes a class.
    pub(crate) fn decode_into(&self, bytes: &[u8], n: usize, out: &mut Vec<u32>) -> Result<(), SzError> {
        const CODE: SzError = SzError::Corrupt("class code stream");
        out.resize(n, 0);
        let (out, mut past) = (&mut out[..], false);
        let (mut acc, mut nbits, mut next, mut done) = (0u64, 0u32, 0usize, 0usize);
        while done < out.len() {
            let Some(word) = BitReader::word_at(bytes, next) else { break };
            (acc, nbits, next) = BitReader::merge_word(acc, nbits, next, word);
            let mut rec = self.fast[(acc >> (64 - LUT_BITS as u32)) as usize];
            if rec & 63 == 0 {
                let (c, len) = self.codes.lookup(acc).ok_or(CODE)?;
                rec = self.records[c as usize] + len as u64;
            }
            // The code and the raw bits together, and the raw bits alone.
            let (used, k) = (rec as u32 & 63, (rec >> 6) as u32 & 31);
            let (sym, bad) = symbol(rec, (acc >> (64 - used)) & ((1 << k) - 1));
            out[done] = sym;
            (past, done) = (past | bad, done + 1);
            acc <<= used;
            nbits -= used;
        }
        let mut r = BitReader::resume(bytes, acc, nbits, next);
        for slot in &mut out[done..] {
            let c = self.codes.decode(&mut r).map_err(|_| CODE)? as usize;
            let raw = r.read_bits(raw_width(c) as u8);
            let (sym, bad) = symbol(self.records[c], raw.map_err(|_| SzError::Corrupt("raw bits past the section"))?);
            (*slot, past) = (sym, past | bad);
        }
        match past {
            true => Err(SzError::Corrupt("class magnitude at or past the radius")),
            false => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;
    use crate::quantizer::Quantizer;

    #[test]
    fn the_class_count_follows_the_radius() {
        let radii = [1, 2, 32, 33, 64, 65, Quantizer::DEFAULT_RADIUS, Quantizer::MAX_RADIUS];
        assert_eq!(radii.map(class_count), [64, 64, 64, 72, 72, 80, 144, MAX_CLASSES]);
    }

    #[test]
    fn the_classes_cover_the_quantizers_symbols_once() {
        // Every symbol a quantizer gives, 0..2·radius, in exactly one class,
        // the runs in class order within each sign, and each class's
        // record the symbol of its first raw value.
        for radius in [1, 2, 31, 32, 33, 40, 64, 1000, Quantizer::DEFAULT_RADIUS, Quantizer::MAX_RADIUS] {
            let mut seen = vec![0u8; 2 * radius as usize];
            for (c, syms) in runs(radius) {
                seen[syms.clone()].iter_mut().for_each(|n| *n += 1);
                if let Some(first) = syms.clone().next() {
                    let (_, neg) = base(c);
                    let at = if neg && c != 0 { syms.end - 1 } else { first };
                    assert_eq!(symbol(record(c, radius), 0), (at as u32, false), "class {c} radius {radius}");
                }
            }
            assert!(seen.iter().all(|&n| n == 1), "radius {radius}");
        }
    }

    /// `syms` (all below `2·radius`) coded in the class form and decoded:
    /// the bits [`price`] counted, and the symbols back.
    fn assert_round_trip(radius: u32, syms: &[u32]) {
        let mut exact = HuffmanEncoder::default();
        exact.rebuild(2 * radius as usize + 1, syms).unwrap();
        let mut classes = HuffmanEncoder::default();
        let bits = price(&exact, radius, &mut classes).expect("every symbol in a class");
        recode(&mut exact, radius, &classes);
        let mut w = BitWriter::new();
        exact.encode_slice(syms, &mut w).unwrap();
        assert_eq!(w.bit_len() as u64, bits, "radius {radius}");
        let (first, lens, _) = classes.table();
        let mut out = Vec::new();
        ClassDecoder::new(&lens, first, radius).unwrap().decode_into(w.finish(), syms.len(), &mut out).unwrap();
        assert!(out == syms, "radius {radius}");
    }

    #[test]
    fn every_symbol_comes_back() {
        // Whole alphabets, each symbol a few times (so the codes differ in
        // length), and at the large radii each class's first and last
        // symbol and the escape.
        for radius in [1, 2, 3, 31, 32, 33, 40, 64, 100, 1000, 4096] {
            let syms: Vec<u32> = (0..2 * radius).flat_map(|s| std::iter::repeat_n(s, 1 + s as usize % 5)).collect();
            assert_round_trip(radius, &syms);
        }
        for radius in [Quantizer::DEFAULT_RADIUS, Quantizer::MAX_RADIUS] {
            let ends: Vec<u32> = runs(radius).flat_map(|(_, syms)| [syms.start as u32, syms.end as u32 - 1]).collect();
            let syms: Vec<u32> = ends.iter().copied().cycle().take(5000).collect();
            assert_round_trip(radius, &syms);
        }
    }

    #[test]
    fn a_class_code_too_long_for_its_raw_bits_is_not_priced() {
        // One symbol of class 64 and Fibonacci counts 1, 2, 3, 5, … over
        // `more` classes: class 64 is among the two rarest, with a code of
        // `more` bits, and its 3 raw bits behind it. 32 bits fit the code
        // an emitter writes (and come back); 33 and 34 do not.
        let radius = Quantizer::DEFAULT_RADIUS;
        for (more, priced) in [(31, false), (30, false), (29, true)] {
            let (mut syms, mut counts) = (vec![radius + 32], (1, 2));
            for (_, run) in runs(radius).skip(1).take(more) {
                syms.extend(std::iter::repeat_n(run.start as u32, counts.0));
                counts = (counts.1, counts.0 + counts.1);
            }
            let mut exact = HuffmanEncoder::default();
            exact.rebuild(2 * radius as usize + 1, &syms).unwrap();
            let mut classes = HuffmanEncoder::default();
            assert_eq!(price(&exact, radius, &mut classes).is_some(), priced, "{more} classes");
            assert_eq!(classes.code(64).map(|(_, len)| len), Ok(more as u8), "{more} classes");
            if priced {
                assert_round_trip(radius, &syms);
            }
        }
    }
}
