//! The packed form of a stream's Huffman code-length table.
//!
//! A stream stores the code lengths of its occupied symbol range, one per
//! symbol. Dense, that is a byte each: tens of kilobytes per chunk at tight
//! bounds, most of them zero (bins no residual fell into) or equal to their
//! neighbour. Packed, the same lengths are written as run tokens (the shape
//! of RFC 1951 §3.2.7) and the tokens entropy-coded with this crate's own
//! canonical Huffman coder:
//!
//! | token   | meaning                          | extra bits |
//! |---------|----------------------------------|------------|
//! | 0–32    | one code length of that value    | 0          |
//! | 33      | the previous length, 3–6 times   | 2          |
//! | 34      | 3–10 zeros                       | 3          |
//! | 35      | 11–138 zeros                     | 7          |
//! | 36      | 139–65 674 zeros                 | 16         |
//!
//! The section is one MSB-first bit stream: the code length of each of the
//! 37 tokens (6 bits each, 0 = unused), then the tokens, each followed by
//! its extra bits, until the lengths of the whole range are out; zero bits
//! pad the last byte. How many lengths there are is not in the section:
//! the stream header's `count` says so.
//!
//! The tokenizer finds each run with an eight-byte compare and counts the
//! tokens as it makes them; the writer puts each token out with its extra
//! field as one code (two where together they pass 32 bits), a batch of
//! them to a `BitWriter::push_codes`.
//!
//! This is the table stage of the payload: [`encode`] chooses the form and
//! writes it, [`decode`] reads it back under the envelope's
//! `FLAG_PACKED_TABLE`.

use std::borrow::Cow;

use crate::bitio::{BitReader, BitWriter};
use crate::header::{Reader, Writer, FLAG_PACKED_TABLE};
use crate::huffman::{canonical_codes, code_lengths, HuffmanDecoder, MAX_CODE_LEN};
use crate::SzError;

/// The table stage: `lens` into `p` packed when the lossless back end is
/// on and the section with its length prefix is smaller (the rule its
/// LZSS pass follows too), dense, a byte each, otherwise. Quantization
/// codes cluster around the zero bin, so at loose bounds the range is a
/// few entries and stays dense. Returns the stage's flag bit.
pub(crate) fn encode(lens: &[u8], lossless: bool, p: &mut Writer) -> u8 {
    let packed = if lossless {
        let _span = lcpio_trace::span("sz.table.pack");
        pack(lens).filter(|section| 8 + section.len() < lens.len())
    } else {
        None
    };
    if lcpio_trace::collecting() {
        lcpio_trace::counter_add("sz.table.dense_bytes", lens.len() as u64);
        let stored = packed.as_ref().map_or(lens.len(), |section| 8 + section.len());
        lcpio_trace::counter_add("sz.table.packed_bytes", stored as u64);
    }
    match &packed {
        Some(section) => p.section(section),
        None => p.bytes(lens),
    }
    packed.map_or(0, |_| FLAG_PACKED_TABLE)
}

/// The table stage's decode: the `count` code lengths, from a packed
/// section when `flags` has `FLAG_PACKED_TABLE` and borrowed from `count`
/// dense bytes when not. Decode budget: [`unpack`]'s.
pub(crate) fn decode<'a>(r: &mut Reader<'a>, flags: u8, count: usize) -> Result<Cow<'a, [u8]>, SzError> {
    Ok(if flags & FLAG_PACKED_TABLE != 0 {
        Cow::Owned(unpack(r.section()?, count)?)
    } else {
        Cow::Borrowed(r.bytes(count)?)
    })
}

/// The first run token; the zero-run tokens follow it.
const REPEAT: u8 = MAX_CODE_LEN + 1;
const ZEROS: u8 = REPEAT + 1;
/// Per run token from [`REPEAT`] on: the shortest run it stands for and
/// the width of the field behind it, which holds the run's excess over
/// that.
const RUNS: [(usize, u8); 4] = [(MIN_RUN, 2), (MIN_RUN, 3), (11, 7), (139, 16)];
/// The shortest run a run token stands for, repeats and zeros alike.
const MIN_RUN: usize = 3;
const TOKENS: usize = REPEAT as usize + RUNS.len();
/// Width of a token's code length in the section's header.
const TOKEN_LEN_BITS: u8 = 6;

/// The shortest run `token` stands for and the width of its extra field.
fn run_of(token: u8) -> (usize, u8) {
    token.checked_sub(REPEAT).map_or((1, 0), |run| RUNS[run as usize])
}

/// The longest run `token` stands for.
fn longest(token: u8) -> usize {
    let (least, width) = run_of(token);
    least + (1 << width) - 1
}

/// Length of the run of `lens[0]` that `lens` starts with. Compares eight
/// bytes at a time.
#[inline]
fn run_len(lens: &[u8]) -> usize {
    let fill = u64::from_ne_bytes([lens[0]; 8]);
    let mut run = 1;
    while let Some(word) = lens.get(run..run + 8) {
        let diff = u64::from_le_bytes(word.try_into().expect("8 bytes")) ^ fill;
        if diff != 0 {
            return run + (diff.trailing_zeros() / 8) as usize;
        }
        run += 8;
    }
    run + lens[run..].iter().take_while(|&&l| l == lens[0]).count()
}

/// `lens` as tokens, each with the value of its extra field, into
/// `tokens`, and each token's count into `freqs`.
///
/// A run of zeros three or more long goes out as zero-run tokens, any
/// other run as its length once and then repeats of it, each time the
/// widest token that fits. What is left of a run, too short for a run
/// token, goes out as single lengths.
fn tokenize(lens: &[u8], tokens: &mut Vec<(u8, u16)>, freqs: &mut [u64; TOKENS]) {
    let mut at = 0;
    while at < lens.len() {
        let l = lens[at];
        let run = run_len(&lens[at..]);
        at += run;
        let mut left = run;
        if l != 0 || run < MIN_RUN {
            tokens.push((l, 0));
            freqs[l as usize] += 1;
            left -= 1;
        }
        while left >= MIN_RUN {
            let token = match l {
                0 if left >= run_of(ZEROS + 2).0 => ZEROS + 2,
                0 if left >= run_of(ZEROS + 1).0 => ZEROS + 1,
                0 => ZEROS,
                _ => REPEAT,
            };
            let take = left.min(longest(token));
            tokens.push((token, (take - run_of(token).0) as u16));
            freqs[token as usize] += 1;
            left -= take;
        }
        for _ in 0..left {
            tokens.push((l, 0));
        }
        freqs[l as usize] += left as u64;
    }
}

/// The packed section for `lens` (each at most [`MAX_CODE_LEN`]), or `None`
/// for an empty table, which has no packed form.
fn pack(lens: &[u8]) -> Option<Vec<u8>> {
    let mut tokens = Vec::with_capacity(lens.len() / 2);
    let mut freqs = [0u64; TOKENS];
    tokenize(lens, &mut tokens, &mut freqs);
    write_tokens(&tokens, &freqs)
}

/// The section that says `tokens`, whose counts are `freqs`, under the
/// Huffman code those counts give. Each token goes out with its extra
/// field as one code where the two fit 32 bits, as two where they do not
/// (a code over 16 bits before a 16-bit field), a batch of them to a
/// `push_codes`.
fn write_tokens(tokens: &[(u8, u16)], freqs: &[u64; TOKENS]) -> Option<Vec<u8>> {
    let codes = canonical_codes(&code_lengths(freqs).ok()?);
    let mut w = BitWriter::with_capacity(TOKENS + tokens.len());
    for &(_, len) in &codes {
        w.push_bits(len as u64, TOKEN_LEN_BITS);
    }
    let mut batch = [(0u32, 0u8); 512];
    for part in tokens.chunks(batch.len() / 2) {
        let mut k = 0;
        for &(token, extra) in part {
            let (code, len) = codes[token as usize];
            let width = run_of(token).1;
            if len + width <= 32 {
                batch[k] = (code << width | extra as u32, len + width);
                k += 1;
            } else {
                batch[k] = (code, len);
                batch[k + 1] = (extra as u32, width);
                k += 2;
            }
        }
        w.push_codes(&batch[..k]);
    }
    Some(w.into_bytes())
}

/// The `count` code lengths a packed `section` holds.
///
/// Decode budget: the output is allocated once, `count` bytes, and the
/// caller has checked `count` against the alphabet the stream header
/// declares (`count ≤ alphabet_size ≤ 2·MAX_RADIUS + 1`, two megabytes:
/// the constant `k` of a per-decode budget `c·input_len + k`). Beside it
/// stand the token decoder's tables, whose size the section's 28-byte
/// header decides and `count` does not: 8 KiB, and at most two 8 KiB
/// sub-tables more per token code longer than
/// [`LUT_BITS`](crate::huffman::LUT_BITS), so under 600 KiB whatever the
/// header says; that too is part of `k`. Everything a forged section can
/// say is an error: a token-length header no prefix code has (all zero,
/// oversubscribed, a length over 32), a run that overshoots `count`, a
/// repeat with nothing before it, a bit stream that ends before `count`
/// lengths are out, and bytes left over after them.
fn unpack(section: &[u8], count: usize) -> Result<Vec<u8>, SzError> {
    const TOKEN_STREAM: SzError = SzError::Corrupt("packed table token stream");
    const NO_PREVIOUS: SzError = SzError::Corrupt("packed table repeats nothing");
    let mut r = BitReader::new(section);
    let mut token_lens = [0u8; TOKENS];
    for l in &mut token_lens {
        *l = r.read_bits(TOKEN_LEN_BITS).map_err(|_| TOKEN_STREAM)? as u8;
    }
    let tokens = HuffmanDecoder::from_lengths(&token_lens)
        .map_err(|_| SzError::Corrupt("packed table token code"))?;
    // Zeroed once; a zero run then only moves the cursor.
    let mut lens = vec![0u8; count];
    let mut at = 0;
    while at < count {
        let token = tokens.decode(&mut r).map_err(|_| TOKEN_STREAM)? as u8;
        // One length: most of a tight bound's table, where neighbours differ.
        if token < REPEAT {
            lens[at] = token;
            at += 1;
            continue;
        }
        let value = if token == REPEAT { *lens[..at].last().ok_or(NO_PREVIOUS)? } else { 0 };
        let (least, width) = run_of(token);
        let run = least + r.read_bits(width).map_err(|_| TOKEN_STREAM)? as usize;
        if run > count - at {
            return Err(SzError::Corrupt("packed table run overshoots the symbol range"));
        }
        if value != 0 {
            lens[at..at + run].fill(value);
        }
        at += run;
    }
    if r.remaining_bits() >= 8 {
        return Err(SzError::Corrupt("packed table section length"));
    }
    Ok(lens)
}

/// The tokenizer [`tokenize`] replaced, kept as its executable
/// specification: a scan per run and a search per run token.
#[cfg(test)]
fn tokenize_reference(lens: &[u8]) -> Vec<(u8, u16)> {
    let mut tokens = Vec::with_capacity(lens.len() / 2);
    let mut rest = lens;
    while let Some(&l) = rest.first() {
        let run = rest.iter().take_while(|&&x| x == l).count();
        // A run of zeros goes out as zero-run tokens, a run of any other
        // length as that length once and then repeats of it, each time the
        // widest token that fits. What is left, too short for a run token,
        // goes round again as single lengths.
        let run_tokens = if l == 0 { ZEROS..TOKENS as u8 } else { REPEAT..ZEROS };
        let mut left = run;
        if l != 0 || run < run_of(ZEROS).0 {
            tokens.push((l, 0));
            left -= 1;
        }
        while left >= run_of(run_tokens.start).0 {
            let token = run_tokens.clone().rev().find(|&t| left >= run_of(t).0).expect("one fits");
            let take = left.min(longest(token));
            tokens.push((token, (take - run_of(token).0) as u16));
            left -= take;
        }
        rest = &rest[run - left..];
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn corrupt(section: &[u8], count: usize) -> &'static str {
        match unpack(section, count) {
            Err(SzError::Corrupt(what)) => what,
            other => panic!("expected a corrupt-table error, got {other:?}"),
        }
    }

    /// A token-length header (6 bits per token) followed by `body` bits.
    fn section_with_header(token_lens: &[(u8, u8)], body: &[(u64, u8)]) -> Vec<u8> {
        let mut w = BitWriter::new();
        for token in 0..TOKENS as u8 {
            let len = token_lens.iter().find(|&&(t, _)| t == token).map_or(0, |&(_, l)| l);
            w.push_bits(len as u64, TOKEN_LEN_BITS);
        }
        for &(bits, n) in body {
            w.push_bits(bits, n);
        }
        w.into_bytes()
    }

    /// Run lengths around every token's limits.
    const EDGES: [usize; 17] = [1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 138, 139, 140, 65_674, 65_675, 65_677];

    /// The section [`write_tokens`] must write for `tokens`: counted, coded
    /// and pushed one token at a time.
    fn write_reference(tokens: &[(u8, u16)]) -> Option<Vec<u8>> {
        let mut freqs = [0u64; TOKENS];
        for &(token, _) in tokens {
            freqs[token as usize] += 1;
        }
        let codes = canonical_codes(&code_lengths(&freqs).ok()?);
        let mut w = BitWriter::new();
        for &(_, len) in &codes {
            w.push_bits(len as u64, TOKEN_LEN_BITS);
        }
        for &(token, extra) in tokens {
            let (code, len) = codes[token as usize];
            let width = run_of(token).1;
            w.push_bits((code as u64) << width | extra as u64, len + width);
        }
        Some(w.into_bytes())
    }

    /// The section [`pack`] must write.
    fn pack_reference(lens: &[u8]) -> Option<Vec<u8>> {
        write_reference(&tokenize_reference(lens))
    }

    fn assert_matches_reference(lens: &[u8]) {
        let mut tokens = Vec::new();
        tokenize(lens, &mut tokens, &mut [0; TOKENS]);
        assert_eq!(tokens, tokenize_reference(lens), "tokens of {} lengths", lens.len());
        assert_eq!(pack(lens), pack_reference(lens), "section of {} lengths", lens.len());
    }

    #[test]
    fn run_boundaries_round_trip() {
        // Every run length around a token's limits, for zeros and for a
        // repeated length, alone and between other entries.
        let edges = EDGES;
        for &run in &edges {
            for value in [0u8, 9] {
                for (head, tail) in [(0usize, 0usize), (1, 0), (0, 1), (2, 2)] {
                    let mut lens = vec![5u8; head];
                    lens.extend(std::iter::repeat_n(value, run));
                    lens.extend(std::iter::repeat_n(32u8, tail));
                    let section = pack(&lens).expect("non-empty table");
                    assert_eq!(unpack(&section, lens.len()).unwrap(), lens, "run {run} of {value}");
                }
            }
        }
    }

    #[test]
    fn token_codes_too_long_to_share_a_push_with_their_field() {
        // Fibonacci counts over 22 tokens: the rarest get codes of 21
        // bits, and the widest run token's 16-bit field no longer fits
        // beside its code in 32 bits.
        let mut tokens = Vec::new();
        let (mut a, mut b) = (1usize, 1usize);
        for token in (0..20u8).chain([ZEROS + 1, ZEROS + 2]).rev() {
            let extra = if token > REPEAT { 0xbeef >> (16 - run_of(token).1) } else { 0 };
            tokens.extend(std::iter::repeat_n((token, extra), a));
            (a, b) = (b, a + b);
        }
        let mut freqs = [0u64; TOKENS];
        for &(token, _) in &tokens {
            freqs[token as usize] += 1;
        }
        let lens = code_lengths(&freqs).unwrap();
        assert!(lens[ZEROS as usize + 2] + 16 > 32, "{lens:?}");
        assert_eq!(write_tokens(&tokens, &freqs), write_reference(&tokens));
    }

    #[test]
    fn single_symbol_and_empty_tables() {
        // One entry: one token, a 1-bit code. An alphabet-sized run of one
        // length: one literal and repeats only. Nothing: no packed form.
        assert_eq!(pack(&[]), None);
        for lens in [vec![1u8], vec![32], vec![7; 2 * (1 << 20) + 1], vec![0; 70_000]] {
            let section = pack(&lens).expect("non-empty table");
            assert_eq!(unpack(&section, lens.len()).unwrap(), lens);
            assert!(section.len() < 40 + lens.len() / 12, "{} for {}", section.len(), lens.len());
        }
    }

    #[test]
    fn forged_sections_are_typed_errors() {
        let lens: Vec<u8> = [vec![0u8; 200], vec![7; 9], vec![3, 4, 5, 0, 0, 12]].concat();
        let good = pack(&lens).unwrap();
        assert_eq!(unpack(&good, lens.len()).unwrap(), lens);

        // A run that overshoots `count`: the same section read for a
        // shorter table ends inside the run of sevens or of zeros.
        for count in [1, 199, 203] {
            assert_eq!(corrupt(&good, count), "packed table run overshoots the symbol range");
        }
        // A table that ends short of `count`, and a truncated bit stream:
        // the tokens run out first.
        assert_eq!(corrupt(&good, lens.len() + 100), "packed table token stream");
        for cut in 1..good.len() {
            assert!(unpack(&good[..good.len() - cut], lens.len()).is_err(), "cut {cut}");
        }
        assert_eq!(corrupt(&good[..10], lens.len()), "packed table token stream");
        assert_eq!(corrupt(&[], lens.len()), "packed table token stream");
        // Bytes after the last token: the section length lied.
        let long = [good.clone(), vec![0]].concat();
        assert_eq!(corrupt(&long, lens.len()), "packed table section length");

        // Repeat-previous as the first token (the only token: code `0`).
        let repeat_first = section_with_header(&[(REPEAT, 1)], &[(0, 1), (0, 2)]);
        assert_eq!(corrupt(&repeat_first, 3), "packed table repeats nothing");
        // After a zero run there is a previous length, zero, to repeat
        // (canonical order gives the repeat token code `0`, the run `1`).
        let after_zeros =
            section_with_header(&[(ZEROS, 1), (REPEAT, 1)], &[(1, 1), (0, 3), (0, 1), (3, 2)]);
        assert_eq!(unpack(&after_zeros, 9).unwrap(), vec![0; 9]);

        // Token-length headers no prefix code has: all zero, three 1-bit
        // codes (Kraft), a 33-bit code.
        assert_eq!(corrupt(&[0; 64], 5), "packed table token code");
        let kraft = section_with_header(&[(1, 1), (2, 1), (3, 1)], &[(0, 16)]);
        assert_eq!(corrupt(&kraft, 5), "packed table token code");
        let overlong = section_with_header(&[(1, 1), (2, 33)], &[(0, 16)]);
        assert_eq!(corrupt(&overlong, 5), "packed table token code");
        // Every token at 32 bits is a prefix code, if a wasteful one: the
        // decoder's three table levels, then the first code (thirty-two
        // zero bits, a length of 0) as often as the section holds it.
        let deepest: Vec<(u8, u8)> = (0..TOKENS as u8).map(|t| (t, MAX_CODE_LEN)).collect();
        let zeros = section_with_header(&deepest, &[(0, 32), (0, 32), (0, 32)]);
        assert_eq!(unpack(&zeros, 3).unwrap(), vec![0; 3]);
        assert_eq!(corrupt(&zeros, 4), "packed table token stream");
        // A code the (incomplete) token code does not have.
        let no_such_code = section_with_header(&[(4, 1)], &[(0b01, 2)]);
        assert_eq!(corrupt(&no_such_code, 2), "packed table token stream");
    }

    proptest! {
        #[test]
        fn prop_pack_unpack_is_the_identity(
            // Runs of one value, short and long, zero more often than not:
            // what a length table is made of.
            runs in proptest::collection::vec(
                (prop_oneof![3 => Just(0u8), 2 => 0u8..33], prop_oneof![4 => 1usize..8, 1 => 1usize..300, 1 => 1usize..70_000]),
                1..40,
            ),
            noise in proptest::collection::vec(0u8..33, 0..200),
        ) {
            let mut lens = Vec::new();
            for (i, &(value, len)) in runs.iter().enumerate() {
                lens.extend(std::iter::repeat_n(value, len));
                if i % 7 == 3 {
                    lens.extend_from_slice(&noise);
                }
            }
            let section = pack(&lens).expect("non-empty table");
            prop_assert_eq!(unpack(&section, lens.len()).unwrap(), lens);
        }

        #[test]
        fn prop_tokens_and_sections_match_reference(
            // Runs at every token edge, of zeros, of one length and of the
            // longest codes, next to each other and to short runs, and
            // token codes long enough to split from their extra field.
            runs in proptest::collection::vec(
                (prop_oneof![Just(0u8), Just(9u8), Just(32u8), 0u8..33], 0..EDGES.len(), 0usize..3),
                1..12,
            ),
        ) {
            let mut lens = Vec::new();
            for &(value, edge, jitter) in &runs {
                lens.extend(std::iter::repeat_n(value, EDGES[edge] + jitter));
            }
            assert_matches_reference(&lens);
        }

        #[test]
        fn prop_unpack_survives_any_bytes(
            section in proptest::collection::vec(any::<u8>(), 0..200),
            count in 0usize..5000,
        ) {
            // Whatever the bytes say: an error, or exactly `count` lengths.
            if let Ok(lens) = unpack(&section, count) {
                prop_assert_eq!(lens.len(), count);
            }
        }
    }
}
