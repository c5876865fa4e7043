//! Canonical Huffman coding of quantization codes.
//!
//! SZ entropy-codes the quantization-bin indices with a Huffman tree built
//! from the actual symbol histogram. We implement canonical Huffman: only
//! the code *lengths* are serialized (as a compact table), and both encoder
//! and decoder derive identical codebooks from them.

use std::ops::Range;

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
pub fn code_lengths(freqs: &[u64]) -> Result<Vec<u8>, HuffmanError> {
    let mut lens = Vec::new();
    lengths_into(freqs, &mut lens, &mut Vec::new())?;
    Ok(lens)
}

/// Assign canonical codes (MSB-first) from code lengths.
///
/// Symbols are ordered by (length, index); the returned vector holds
/// `(code, len)` per symbol (len 0 ⇒ absent). The lengths must come from
/// [`code_lengths`]: a length above [`MAX_CODE_LEN`] panics.
pub fn canonical_codes(lens: &[u8]) -> Vec<(u32, u8)> {
    let mut codes = Vec::new();
    assign_codes(lens, (0..lens.len() as u32).filter(|&i| lens[i as usize] > 0), &mut codes);
    codes
}

/// [`canonical_codes`] into `codes`, given `coded`, the indices of the
/// lengths that are not 0 in ascending order: only they are visited.
///
/// The codes of one length are consecutive and start where the shorter
/// ones end, so the per-length counts give each length its first code and
/// one pass in index order gives each symbol the next of its length.
fn assign_codes(lens: &[u8], coded: impl Iterator<Item = u32> + Clone, codes: &mut Vec<(u32, u8)>) {
    let mut count = [0u64; MAX_CODE_LEN as usize + 1];
    for i in coded.clone() {
        count[lens[i as usize] as usize] += 1;
    }
    // One bit wider than a code: past the last code of a complete 32-bit
    // table the counter reaches 2^32.
    let mut next = [0u64; MAX_CODE_LEN as usize + 1];
    for l in 2..=MAX_CODE_LEN as usize {
        next[l] = (next[l - 1] + count[l - 1]) << 1;
    }
    codes.clear();
    codes.resize(lens.len(), (0, 0));
    for i in coded {
        let l = lens[i as usize];
        codes[i as usize] = (next[l as usize] as u32, l);
        next[l as usize] += 1;
    }
}

/// [`code_lengths`] into `lens`, and into `present` the indices of the
/// entries that have a count, ascending: the symbols that get a code.
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
/// (its id is smaller). Every working array is sized by the entries that
/// have a count, not by `freqs`, and indexed by `u32`.
fn lengths_into(freqs: &[u64], lens: &mut Vec<u8>, present: &mut Vec<u32>) -> Result<(), HuffmanError> {
    assert!(u32::try_from(freqs.len()).is_ok(), "symbol indices fit a u32");
    // The entries with a count, without a branch on each: every index is
    // written, and the cursor moves past the ones that count.
    present.clear();
    present.resize(freqs.len() + 1, 0);
    let mut m = 0;
    for (i, &f) in freqs.iter().enumerate() {
        present[m] = i as u32;
        m += (f != 0) as usize;
    }
    present.truncate(m);
    lens.clear();
    lens.resize(freqs.len(), 0);
    match *present.as_slice() {
        [] => return Err(HuffmanError::EmptyAlphabet),
        [only] => {
            // Degenerate alphabet: give the single symbol a 1-bit code.
            lens[only as usize] = 1;
            return Ok(());
        }
        _ => {}
    }
    // Leaves in `(freq, index)` order. `present` is in index order, so a
    // stable counting sort on the frequency orders the rare symbols —
    // nearly all of a quantizer histogram — and only the frequent ones,
    // which share the last bucket, are left to a comparison sort.
    const RARE: usize = 256;
    let bucket = |f: u64| f.min(RARE as u64) as usize;
    let mut start = [0usize; RARE + 2];
    for &i in present.iter() {
        start[bucket(freqs[i as usize]) + 1] += 1;
    }
    for b in 1..RARE + 2 {
        start[b] += start[b - 1];
    }
    let frequent = start[RARE];
    let mut leaves = vec![(0u64, 0u32); m];
    for &i in present.iter() {
        let f = freqs[i as usize];
        let slot = &mut start[bucket(f)];
        leaves[*slot] = (f, i);
        *slot += 1;
    }
    leaves[frequent..].sort_unstable();
    // Nodes 0..m are the sorted leaves, m..2m-1 the internal nodes in
    // creation order; the last one is the root.
    let mut parent = vec![0u32; 2 * m - 1];
    let mut weights: Vec<u64> = Vec::with_capacity(m - 1);
    let (mut next_leaf, mut next_internal) = (0usize, 0usize);
    for id in m as u32..2 * m as u32 - 1 {
        let mut sum = 0u64;
        for _ in 0..2 {
            let leaf_first =
                next_leaf < m && weights.get(next_internal).is_none_or(|&w| leaves[next_leaf].0 <= w);
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
        parent[node] = parent[parent[node] as usize] + 1;
    }
    for (&(_, sym), &depth) in leaves.iter().zip(&parent) {
        if depth > MAX_CODE_LEN as u32 {
            return Err(HuffmanError::CodeTooLong);
        }
        lens[sym as usize] = depth as u8;
    }
    Ok(())
}

/// Symbols per granule: the unit in which the encoder skips the parts of
/// its alphabet that are not in use.
const GRANULE: usize = 16;
/// The entry of a granule none of whose symbols is in use: past every slot.
const VACANT: u32 = u32::MAX;

/// The slot of `sym` in the compact alphabet `slots` describes: the one
/// lookup behind the histogram and both emitters. A vacant granule gives a
/// slot past the end of every table.
#[inline(always)]
fn slot_of(slots: &[u32], sym: u32) -> Option<usize> {
    Some(*slots.get(sym as usize / GRANULE)? as usize | (sym as usize % GRANULE))
}

/// Per granule in use (`slots` maps granules to their first slot) that
/// holds symbols of `range`: the first of those symbols and the slots they
/// take.
fn runs(slots: &[u32], range: Range<usize>) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
    (range.start / GRANULE..range.end.div_ceil(GRANULE)).filter_map(move |g| {
        let at = *slots.get(g).filter(|&&at| at != VACANT)? as usize;
        let (lo, hi) = (range.start.max(g * GRANULE), range.end.min(g * GRANULE + GRANULE));
        Some((lo, at + lo - g * GRANULE..at + hi - g * GRANULE))
    })
}

/// The table a stream stores: the first symbol that has a code, the code
/// lengths from it to the last that has one, and how many do.
pub(crate) type CodeTable = (usize, Vec<u8>, usize);

/// A canonical Huffman encoder over a dense `u32` alphabet `0..n`.
///
/// A quantizer's alphabet has `2·radius + 1` symbols and one call uses a
/// few hundred to a few thousand of them: bins around the zero bin, far
/// bins in both tails, the escape symbol 0. So the histogram, the tree, the
/// codes and the code table all live on a compact alphabet of 16 slots
/// per 16-symbol granule in use, and only `slot`, four bytes per granule, is
/// sized by the radius. The map from symbol to slot is monotone, so the
/// `(freq, index)` leaf order and the `(length, index)` canonical order,
/// and with them every code, are those of the dense alphabet. The buffers
/// are kept from one build to the next.
#[derive(Debug, Clone, Default)]
pub struct HuffmanEncoder {
    alphabet: usize,
    /// Per granule: its first slot, or [`VACANT`].
    slot: Vec<u32>,
    /// The granules in use, ascending.
    occupied: Vec<u32>,
    /// Per slot: count, code length, `(code, len)`.
    freqs: Vec<u64>,
    lens: Vec<u8>,
    codes: Vec<(u32, u8)>,
    /// Four interleaved sub-histograms, see [`HuffmanEncoder::count`].
    stripes: Vec<u32>,
}

impl HuffmanEncoder {
    /// Build from symbol frequencies.
    pub fn from_freqs(freqs: &[u64]) -> Result<Self, HuffmanError> {
        let mut enc = HuffmanEncoder::default();
        enc.rebuild_from(freqs)?;
        Ok(enc)
    }

    /// Rebuild from symbol frequencies, in the buffers of the last build.
    pub(crate) fn rebuild_from(&mut self, freqs: &[u64]) -> Result<(), HuffmanError> {
        self.lay_out(freqs.len(), |slot| {
            for (slot, granule) in slot.iter_mut().zip(freqs.chunks(GRANULE)) {
                if granule.iter().fold(0, |any, &f| any | f) != 0 {
                    *slot = 0;
                }
            }
        });
        for (counts, &granule) in self.freqs.chunks_mut(GRANULE).zip(&self.occupied) {
            for (count, &f) in counts.iter_mut().zip(&freqs[granule as usize * GRANULE..]) {
                *count = f;
            }
        }
        self.assign()
    }

    /// Build for `symbols`, all of them below `alphabet`, from their own
    /// histogram: the encoder [`HuffmanEncoder::from_freqs`] gives for it.
    pub(crate) fn rebuild(&mut self, alphabet: usize, symbols: &[u32]) -> Result<(), HuffmanError> {
        let span = lcpio_trace::span("sz.huffman.count");
        self.lay_out(alphabet, |slot| {
            for &sym in symbols {
                slot[sym as usize / GRANULE] = 0;
            }
        });
        self.count(symbols, u32::MAX as usize);
        drop(span);
        self.assign()
    }

    /// Size the compact alphabet: `mark` zeroes the entry of every granule
    /// that holds a symbol in use, and each of those gets its slots.
    fn lay_out(&mut self, alphabet: usize, mark: impl FnOnce(&mut [u32])) {
        self.alphabet = alphabet;
        self.slot.clear();
        self.slot.resize(alphabet.div_ceil(GRANULE), VACANT);
        mark(&mut self.slot);
        self.occupied.clear();
        for (granule, slot) in self.slot.iter_mut().enumerate() {
            if *slot != VACANT {
                *slot = (self.occupied.len() * GRANULE) as u32;
                self.occupied.push(granule as u32);
            }
        }
        // Sized exactly: the slots differ a little from call to call, and
        // growing by doubling would hold twice what the largest needed.
        self.freqs.clear();
        self.freqs.reserve_exact(self.occupied.len() * GRANULE);
        self.freqs.resize(self.occupied.len() * GRANULE, 0);
        self.lens.clear();
        self.codes.clear();
    }

    /// Add the histogram of `symbols` to `freqs`. Four interleaved
    /// sub-histograms break the store-to-load dependency that serializes
    /// runs of equal symbols: the common case, since quantization codes
    /// cluster hard around the zero bin. The stripes count in u32, so they
    /// are merged every `span` symbols, `u32::MAX` at most.
    fn count(&mut self, symbols: &[u32], span: usize) {
        let slots = self.freqs.len();
        let at = |sym| slot_of(&self.slot, sym).expect("the symbol's granule is marked");
        for part in symbols.chunks(span) {
            self.stripes.clear();
            self.stripes.reserve_exact(4 * slots);
            self.stripes.resize(4 * slots, 0);
            let (h0, rest) = self.stripes.split_at_mut(slots);
            let (h1, rest) = rest.split_at_mut(slots);
            let (h2, h3) = rest.split_at_mut(slots);
            let mut chunks = part.chunks_exact(4);
            for c in &mut chunks {
                h0[at(c[0])] += 1;
                h1[at(c[1])] += 1;
                h2[at(c[2])] += 1;
                h3[at(c[3])] += 1;
            }
            for &sym in chunks.remainder() {
                h0[at(sym)] += 1;
            }
            for (f, ((&a0, &a1), (&a2, &a3))) in
                self.freqs.iter_mut().zip(h0.iter().zip(h1.iter()).zip(h2.iter().zip(h3.iter())))
            {
                *f += (a0 as u64) + (a1 as u64) + (a2 as u64) + (a3 as u64);
            }
        }
    }

    /// Lengths and codes from `freqs`.
    fn assign(&mut self) -> Result<(), HuffmanError> {
        let _span = lcpio_trace::span("sz.huffman.build");
        // The symbols with a code go into the stripes' buffer, idle once
        // the histogram is merged and four times the size they need.
        lengths_into(&self.freqs, &mut self.lens, &mut self.stripes)?;
        assign_codes(&self.lens, self.stripes.iter().copied(), &mut self.codes);
        Ok(())
    }

    /// Size of the compact alphabet the tables are built over.
    pub(crate) fn slots(&self) -> usize {
        self.freqs.len()
    }

    /// How many of the symbols counted lie in `range` (within the
    /// alphabet).
    pub(crate) fn count_in(&self, range: Range<usize>) -> u64 {
        runs(&self.slot, range).map(|(_, slots)| self.freqs[slots].iter().sum::<u64>()).sum()
    }

    /// The bits the symbols counted take under the code built for them.
    pub(crate) fn coded_bits(&self) -> u64 {
        self.freqs.iter().zip(&self.lens).map(|(&f, &len)| f * len as u64).sum()
    }

    /// Give the symbols of `range` (within the alphabet) consecutive codes
    /// of length `len`, the first `code` and each next one `step` more,
    /// which the emitters then write in their place.
    pub(crate) fn recode(&mut self, range: Range<usize>, (code, len): (u32, u8), step: u32) {
        for (first, slots) in runs(&self.slot, range.clone()) {
            let code = code.wrapping_add(step.wrapping_mul((first - range.start) as u32));
            for (i, slot) in self.codes[slots].iter_mut().enumerate() {
                *slot = (code.wrapping_add(step.wrapping_mul(i as u32)), len);
            }
        }
    }

    /// Give up the lengths and the codes: nine bytes a slot that need not
    /// sit under what the caller does next.
    pub(crate) fn release(&mut self) {
        (self.lens, self.codes) = (Vec::new(), Vec::new());
    }

    /// The table of this encoder's codes.
    pub(crate) fn table(&self) -> CodeTable {
        let coded = |&len: &u8| len > 0;
        let (Some(&lo), Some(&hi)) = (self.occupied.first(), self.occupied.last()) else {
            return (0, Vec::new(), 0);
        };
        // Whole granules first, then cut down to the coded range.
        let base = lo as usize * GRANULE;
        let mut table = vec![0u8; (hi as usize + 1) * GRANULE - base];
        for (lens, &granule) in self.lens.chunks(GRANULE).zip(&self.occupied) {
            let at = granule as usize * GRANULE - base;
            table[at..at + GRANULE].copy_from_slice(lens);
        }
        let first = table.iter().position(coded).unwrap_or(0);
        table.truncate(table.iter().rposition(coded).map_or(0, |last| last + 1));
        table.drain(..first);
        (base + first, table, self.lens.iter().filter(|len| coded(len)).count())
    }

    /// Code lengths, for header serialization.
    pub fn lengths(&self) -> Vec<u8> {
        let (first, table, _) = self.table();
        let mut lens = vec![0u8; self.alphabet];
        lens[first..first + table.len()].copy_from_slice(&table);
        lens
    }

    /// The code of `sym`.
    #[inline(always)]
    pub(crate) fn code(&self, sym: u32) -> Result<(u32, u8), HuffmanError> {
        match slot_of(&self.slot, sym).and_then(|slot| self.codes.get(slot)) {
            Some(&(code, len)) if len > 0 => Ok((code, len)),
            _ => Err(HuffmanError::UnknownSymbol(sym)),
        }
    }

    /// Encode one symbol into the writer.
    #[inline]
    pub fn encode(&self, sym: u32, w: &mut BitWriter) -> Result<(), HuffmanError> {
        let (code, len) = self.code(sym)?;
        w.push_bits(code as u64, len);
        Ok(())
    }

    /// Encode a whole symbol slice. Emits exactly the bytes that per-symbol
    /// [`HuffmanEncoder::encode`] calls would (MSB-first concatenation is
    /// associative). The lookups of a block come first and its bits after,
    /// through `BitWriter::push_codes`: the lookups wait on the cache,
    /// the bits on one another, and neither on a branch. On an unknown
    /// symbol the blocks before it are written — the whole compression
    /// fails in that case, so no partial stream is ever observed.
    pub fn encode_slice(&self, syms: &[u32], w: &mut BitWriter) -> Result<(), HuffmanError> {
        let mut block = [(0u32, 0u8); 256];
        for part in syms.chunks(block.len()) {
            for (code, &sym) in block.iter_mut().zip(part) {
                *code = self.code(sym)?;
            }
            w.push_codes(&block[..part.len()]);
        }
        Ok(())
    }
}

/// Width of the primary decode table: one lookup of this many window bits
/// resolves every code of length ≤ `LUT_BITS`, and two of them at once
/// where both fit.
pub const LUT_BITS: u8 = 11;

/// Widest sub-table index. Codes longer than `LUT_BITS + SUB_BITS` go
/// through a third table, which reaches [`MAX_CODE_LEN`].
const SUB_BITS: u32 = 11;

// A table entry, 4 bytes:
//   bits 0..6   bits the entry consumes: the code's length, both codes'
//               of a pair, or the index width of the sub-table a link
//               points to
//   bit 6       PAIR
//   bit 7       LINK
//   bits 8..32  one symbol: the symbol
//               pair: the first code's length (4 bits), then the first and
//               the second symbol minus `pair_base` (10 bits each)
//               link: the sub-table's offset in `table`
const BITS_MASK: u32 = 0x3f;
const PAIR: u32 = 0x40;
const LINK: u32 = 0x80;
/// A link of width 0: no code starts with the bits that lead here.
const NO_CODE: u32 = LINK;
/// Width of a pair entry's symbol fields.
const PAIR_SYM_BITS: u32 = 10;
const PAIR_SYM_MASK: u32 = (1 << PAIR_SYM_BITS) - 1;
/// Symbols and sub-table offsets must fit the 24 bits above an entry's tag.
const FIELD_LIMIT: usize = 1 << 24;

/// The symbols of `lens` that have a code, in index order, each packed as
/// `index << 8 | length`.
///
/// Which symbols of the occupied range are coded is irregular at tight
/// bounds (the far bins are used here and there), so a test per symbol
/// mispredicts every other time; here every symbol is stored and the
/// cursor moves on only past a coded one. A stream with escapes stores
/// lengths from symbol 0 up, tens of thousands of zeros before the bins
/// it uses: all-zero words are skipped whole.
fn coded_symbols(lens: &[u8]) -> Vec<u32> {
    let mut packed: Vec<u32> = Vec::new();
    let mut keep = |base: usize, run: &[u8]| {
        let at = packed.len();
        packed.resize(at + run.len(), 0);
        let mut kept = at;
        for (i, &l) in run.iter().enumerate() {
            packed[kept] = ((base + i) as u32) << 8 | l as u32;
            kept += (l != 0) as usize;
        }
        packed.truncate(kept);
    };
    let mut words = lens.chunks_exact(8);
    let mut base = 0usize;
    for word in &mut words {
        if u64::from_ne_bytes(word.try_into().expect("8-byte chunk")) != 0 {
            keep(base, word);
        }
        base += 8;
    }
    keep(base, words.remainder());
    packed
}

/// Canonical Huffman decoder built from code lengths.
///
/// Table-driven throughout: the top [`LUT_BITS`] of the bit window index a
/// primary table whose entries give one symbol, two symbols (when two
/// codes fit those bits; quantizer codes cluster around the zero bin, so
/// at loose bounds most lookups yield a pair), or a link to a sub-table
/// indexed by the bits that follow. No symbol is found by trying lengths
/// one after the other. The tables are sized by the codes a stream uses,
/// not by its alphabet: see [`HuffmanDecoder::from_occupied`].
#[derive(Debug, Clone)]
pub struct HuffmanDecoder {
    /// The primary table (`1 << LUT_BITS` entries), then every sub-table.
    table: Vec<u32>,
    /// What the symbol fields of a pair entry count from.
    pair_base: u32,
}

// Three table levels reach the longest code.
const _: () = assert!(LUT_BITS as u32 + 2 * SUB_BITS >= MAX_CODE_LEN as u32);

impl HuffmanDecoder {
    /// Build from per-symbol code lengths over the whole alphabet.
    pub fn from_lengths(lens: &[u8]) -> Result<Self, HuffmanError> {
        let first = lens.iter().position(|&l| l > 0).ok_or(HuffmanError::EmptyAlphabet)?;
        let last = lens.iter().rposition(|&l| l > 0).expect("a coded symbol was just found");
        Self::from_occupied(&lens[first..=last], first)
    }

    /// Build from the code lengths of the symbols `first..first + lens.len()`
    /// of an alphabet whose other symbols have no code: the form a stream
    /// header stores them in. The work and the tables scale with `lens`
    /// and the number of codes, whatever the alphabet's size. Alphabets
    /// end at 2^24 symbols (beyond that the table is `Corrupt`).
    ///
    /// Canonical codes ascend with `(length, index)`, so the codes of one
    /// length are a run of consecutive values that starts where the
    /// shorter ones end. The per-length counts alone therefore say which
    /// table prefixes hold codes too long for their table, and how long:
    /// the sub-tables are laid out from the counts, and one pass over the
    /// coded symbols in index order then gives each its code (the next of
    /// its length) and writes it where it belongs. Nothing is sorted.
    pub fn from_occupied(lens: &[u8], first: usize) -> Result<Self, HuffmanError> {
        const MAX: usize = MAX_CODE_LEN as usize;
        if first.checked_add(lens.len()).is_none_or(|end| end > FIELD_LIMIT) {
            return Err(HuffmanError::Corrupt);
        }
        let coded = coded_symbols(lens);
        if coded.is_empty() {
            return Err(HuffmanError::EmptyAlphabet);
        }
        // One slot past the longest code collects the overlong lengths.
        let mut count = [0u32; MAX + 2];
        for &packed in &coded {
            count[((packed & 0xff) as usize).min(MAX + 1)] += 1;
        }
        if count[MAX + 1] > 0 {
            return Err(HuffmanError::Corrupt);
        }
        // A valid prefix code satisfies the Kraft inequality; corrupt
        // headers can oversubscribe a length class, which would make the
        // canonical codes overflow their bit width (and the tables below).
        let kraft: u64 = (1..=MAX).map(|l| (count[l] as u64) << (MAX - l)).sum();
        if kraft > 1u64 << MAX {
            return Err(HuffmanError::Corrupt);
        }
        // The next code of each length, left-justified in 32 bits.
        let mut next_code = [0u64; MAX + 1];
        let mut code = 0u64;
        for l in 1..=MAX {
            next_code[l] = code;
            code += (count[l] as u64) << (MAX - l);
        }
        let mut dec = HuffmanDecoder { table: vec![NO_CODE; 1 << LUT_BITS], pair_base: 0 };
        // Longest codes first: the first run to pass through a prefix is
        // the longest there and sets the width of its sub-table.
        for l in (LUT_BITS as usize + 1..=MAX).rev() {
            if count[l] > 0 {
                let last = next_code[l] + (((count[l] - 1) as u64) << (MAX - l));
                dec.link_run(next_code[l] as u32, last as u32, l as u32)?;
            }
        }
        for &packed in &coded {
            let l = (packed & 0xff) as usize;
            let code = next_code[l];
            next_code[l] = code + (1 << (MAX - l));
            dec.place(code as u32, l as u32, first as u32 + (packed >> 8));
        }
        dec.pair_up();
        Ok(dec)
    }

    /// The slot a code of `len` bits (left-justified in `code`) belongs
    /// in: down the links its leading bits select, to the first table
    /// whose index reaches `len` bits. Also that table's reach.
    #[inline]
    fn slot(&self, code: u32, len: u32) -> (usize, u32) {
        let (mut at, mut depth, mut width) = (0usize, 0u32, LUT_BITS as u32);
        loop {
            let slot = at + ((code << depth) >> (32 - width)) as usize;
            depth += width;
            if len <= depth {
                return (slot, depth);
            }
            let link = self.table[slot];
            debug_assert!(link & LINK != 0 && link != NO_CODE, "link_run laid this path");
            at = (link >> 8) as usize;
            width = link & BITS_MASK;
        }
    }

    /// Give every table prefix that the codes `lo..=hi` (left-justified,
    /// consecutive, all `len > LUT_BITS` bits long) pass through its
    /// sub-table, level by level: a prefix that has none yet gets one as
    /// wide as these codes need, [`SUB_BITS`] at most.
    fn link_run(&mut self, lo: u32, hi: u32, len: u32) -> Result<(), HuffmanError> {
        let mut reach = LUT_BITS as u32;
        while reach < len {
            for prefix in lo >> (32 - reach)..=hi >> (32 - reach) {
                let (slot, _) = self.slot(prefix << (32 - reach), reach);
                if self.table[slot] == NO_CODE {
                    let offset = self.table.len();
                    if offset >= FIELD_LIMIT {
                        return Err(HuffmanError::Corrupt);
                    }
                    let width = (len - reach).min(SUB_BITS);
                    self.table.resize(offset + (1 << width), NO_CODE);
                    self.table[slot] = (offset as u32) << 8 | LINK | width;
                }
            }
            reach += SUB_BITS;
        }
        Ok(())
    }

    /// Write `symbol`'s entry into every slot that starts with its code.
    #[inline]
    fn place(&mut self, code: u32, len: u32, symbol: u32) {
        let (slot, reach) = self.slot(code, len);
        self.table[slot..slot + (1 << (reach - len))].fill(symbol << 8 | len);
    }

    /// Turn primary entries into pairs: wherever the index bits after a
    /// code `a` hold a whole second code `b`, the entry yields both.
    /// Symbols further than the fields reach from the most frequent one
    /// stay single.
    fn pair_up(&mut self) {
        let lut = LUT_BITS as u32;
        if self.table[0] & LINK != 0 {
            return; // no code fits the primary table
        }
        // The all-zeros window holds the first canonical code: a shortest
        // one, so the most frequent symbol.
        let base = (self.table[0] >> 8).saturating_sub(1 << (PAIR_SYM_BITS - 1));
        self.pair_base = base;
        let fits = |sym: u32| sym.wrapping_sub(base) <= PAIR_SYM_MASK;
        let mut slot = 0usize;
        while slot < 1 << lut {
            let entry = self.table[slot];
            if entry & LINK != 0 {
                slot += 1;
                continue;
            }
            // Not a pair yet: slots turn into pairs one code's span at a
            // time, and this is the first visit to this one.
            let (a, len_a) = (entry >> 8, entry & BITS_MASK);
            let room = lut - len_a;
            if fits(a) {
                for tail in 0..1usize << room {
                    // What a window that starts with `tail` decodes to. An
                    // entry that is a pair already still gives its first code.
                    let after = self.table[(tail << len_a) & ((1 << lut) - 1)];
                    let (b, len_b) = self.first_symbol(after);
                    if after & LINK == 0 && len_b <= room && fits(b) {
                        self.table[slot + tail] = (b - base) << (12 + PAIR_SYM_BITS)
                            | (a - base) << 12
                            | len_a << 8
                            | PAIR
                            | (len_a + len_b);
                    }
                }
            }
            slot += 1 << room;
        }
    }

    /// The first symbol of a leaf entry and its code's length; length 0
    /// for [`NO_CODE`].
    #[inline(always)]
    fn first_symbol(&self, entry: u32) -> (u32, u32) {
        if entry & PAIR != 0 {
            (self.pair_base + ((entry >> 12) & PAIR_SYM_MASK), (entry >> 8) & 0xf)
        } else {
            (entry >> 8, entry & BITS_MASK)
        }
    }

    /// Follow `entry`, a link out of the table that window bits
    /// `..depth` indexed, down to a leaf entry or [`NO_CODE`]: one lookup
    /// per table level, three levels at most.
    #[inline(always)]
    fn follow(&self, mut entry: u32, window: u64, mut depth: u32) -> u32 {
        while entry & LINK != 0 {
            let width = entry & BITS_MASK;
            if width == 0 {
                break;
            }
            let index = ((window << depth) >> (64 - width)) as usize;
            entry = self.table[(entry >> 8) as usize + index];
            depth += width;
        }
        entry
    }

    /// Per index of the primary table: the symbol whose code the index
    /// bits start with and that code's length, or `None` where the codes
    /// there are longer than the table reaches (or no code starts so).
    pub(crate) fn primary(&self) -> impl Iterator<Item = Option<(u32, u32)>> + '_ {
        self.table[..1 << LUT_BITS].iter().map(|&entry| (entry & LINK == 0).then(|| self.first_symbol(entry)))
    }

    /// The symbol whose code the left-aligned `window` starts with, and
    /// that code's length; `None` where no code does. The window must hold
    /// [`MAX_CODE_LEN`] bits of the stream.
    #[inline]
    pub(crate) fn lookup(&self, window: u64) -> Option<(u32, u32)> {
        let entry = self.table[(window >> (64 - LUT_BITS as u32)) as usize];
        let (sym, len) = self.first_symbol(self.follow(entry, window, LUT_BITS as u32));
        (len > 0).then_some((sym, len))
    }

    /// Decode one symbol.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u32, HuffmanError> {
        let (window, avail) = r.window(MAX_CODE_LEN as u32);
        // The window is zero-padded past the end of the stream: a code
        // that needs padding bits to match did not match.
        match self.lookup(window) {
            Some((sym, len)) if len <= avail => {
                r.advance(len as u8);
                Ok(sym)
            }
            _ => Err(HuffmanError::Corrupt),
        }
    }

    /// Decode `n` symbols from the start of `bytes` into `out` (resized to
    /// `n`; what it held is dropped): the symbols `n` calls of
    /// [`HuffmanDecoder::decode`] give, or an error where one of them would
    /// fail.
    ///
    /// The bit window lives in a local register here, topped up from one
    /// 8-byte load when it holds fewer bits than the primary table indexes
    /// (on a link: than the longest code), and every lookup stores two
    /// symbols and advances by one or two, so the only data-dependent
    /// branches left are the refill and the link test.
    /// The last symbols of the stream, where an 8-byte load would cross
    /// its end, go through `decode` and its bit-exact end-of-stream rule.
    pub fn decode_into(
        &self,
        bytes: &[u8],
        n: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), HuffmanError> {
        // Every symbol takes at least one bit: `n` cannot drive the
        // allocation past what `bytes` could hold.
        if n > bytes.len().saturating_mul(8) {
            return Err(HuffmanError::Corrupt);
        }
        out.resize(n, 0);
        let lut_shift = 64 - LUT_BITS as u32;
        let (mut acc, mut nbits, mut next) = (0u64, 0u32, 0usize);
        let mut done = 0usize;
        while done + 2 <= n {
            // Loaded every time round although only a refill uses it: one
            // exit from the loop for both refills below, and the address
            // changes with a refill alone, so the load is never waited for.
            let Some(word) = BitReader::word_at(bytes, next) else { break };
            if nbits < LUT_BITS as u32 {
                (acc, nbits, next) = BitReader::merge_word(acc, nbits, next, word);
            }
            let mut entry = self.table[(acc >> lut_shift) as usize];
            if entry & LINK != 0 {
                if nbits < MAX_CODE_LEN as u32 {
                    (acc, nbits, next) = BitReader::merge_word(acc, nbits, next, word);
                }
                entry = self.follow(entry, acc, LUT_BITS as u32);
                if entry == NO_CODE {
                    return Err(HuffmanError::Corrupt);
                }
            }
            // Both stores always; a single symbol's second is overwritten
            // by the next lookup's first.
            out[done] = self.first_symbol(entry).0;
            out[done + 1] = self.pair_base + (entry >> (12 + PAIR_SYM_BITS));
            done += 1 + (entry & PAIR != 0) as usize;
            let used = entry & BITS_MASK;
            acc <<= used;
            nbits -= used;
        }
        let mut r = BitReader::resume(bytes, acc, nbits, next);
        for slot in &mut out[done..] {
            *slot = self.decode(&mut r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
impl HuffmanEncoder {
    /// Bytes of heap the encoder holds on to.
    pub(crate) fn capacity_bytes(&self) -> usize {
        (self.slot.capacity() + self.occupied.capacity() + self.stripes.capacity()) * 4
            + (self.freqs.capacity() + self.codes.capacity()) * 8
            + self.lens.capacity()
    }
}

/// The symbols that have a code, ordered by `(length, index)`, and the
/// number of codes per length: the counting sort behind the reference
/// decoder's tables. A length above [`MAX_CODE_LEN`] is `Corrupt`.
#[cfg(test)]
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

/// The decoder [`HuffmanDecoder`] replaced, kept as its executable
/// specification: the canonical first-code walk, which tries the lengths
/// one after the other on a peeked word. A code matches when it lies in
/// its length's range and the stream still holds that many bits.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct ReferenceDecoder {
    first_code: [u32; MAX_CODE_LEN as usize + 1],
    first_sym_idx: [u32; MAX_CODE_LEN as usize + 1],
    count: [u32; MAX_CODE_LEN as usize + 1],
    sorted_syms: Vec<u32>,
}

#[cfg(test)]
impl ReferenceDecoder {
    pub(crate) fn from_lengths(lens: &[u8]) -> Result<Self, HuffmanError> {
        let (count, sorted_syms) = symbols_by_length(lens)?;
        if sorted_syms.is_empty() {
            return Err(HuffmanError::EmptyAlphabet);
        }
        let kraft: u128 = (1..=MAX_CODE_LEN as usize)
            .map(|l| (count[l] as u128) << (MAX_CODE_LEN as usize - l))
            .sum();
        if kraft > 1u128 << MAX_CODE_LEN {
            return Err(HuffmanError::Corrupt);
        }
        let mut first_code = [0u32; MAX_CODE_LEN as usize + 1];
        let mut first_sym_idx = [0u32; MAX_CODE_LEN as usize + 1];
        let (mut code, mut idx) = (0u64, 0u32);
        for l in 1..=MAX_CODE_LEN as usize {
            code <<= 1;
            first_code[l] = code as u32;
            first_sym_idx[l] = idx;
            code += count[l] as u64;
            idx += count[l];
        }
        Ok(ReferenceDecoder { first_code, first_sym_idx, count, sorted_syms })
    }

    pub(crate) fn decode(&self, r: &mut BitReader<'_>) -> Result<u32, HuffmanError> {
        let (word, avail) = r.peek_bits(MAX_CODE_LEN);
        for l in 1..=avail {
            let c = self.count[l as usize];
            if c == 0 {
                continue;
            }
            let code = (word >> (MAX_CODE_LEN - l)) as u32;
            let first = self.first_code[l as usize];
            if code >= first && code - first < c {
                r.advance(l);
                let rank = self.first_sym_idx[l as usize] + (code - first);
                return Ok(self.sorted_syms[rank as usize]);
            }
        }
        Err(HuffmanError::Corrupt)
    }

    /// `n` symbols from the start of `bytes`, or the first error.
    pub(crate) fn decode_all(&self, bytes: &[u8], n: usize) -> Result<Vec<u32>, HuffmanError> {
        let mut r = BitReader::new(bytes);
        (0..n).map(|_| self.decode(&mut r)).collect()
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
                assert_encoder_matches_dense_tables(freqs, &lens);
            }
            Err(e) => {
                assert_eq!(e, HuffmanError::CodeTooLong);
                assert!(want.iter().any(|&d| d > MAX_CODE_LEN as u32));
            }
        }
    }

    /// The encoder's compact tables against `lens`, the code lengths over
    /// the dense alphabet of `freqs`, and their canonical codes: the same
    /// lengths, the same table section, the same bits for every symbol
    /// that has a code (through both emitters), none for the others.
    fn assert_encoder_matches_dense_tables(freqs: &[u64], lens: &[u8]) {
        let enc = HuffmanEncoder::from_freqs(freqs).unwrap();
        assert_eq!(enc.lengths(), lens);
        let first = lens.iter().position(|&l| l > 0).unwrap();
        let last = lens.iter().rposition(|&l| l > 0).unwrap();
        let coded: Vec<u32> = (0..lens.len() as u32).filter(|&s| lens[s as usize] > 0).collect();
        assert_eq!(enc.table(), (first, lens[first..=last].to_vec(), coded.len()));
        assert!(enc.slots() <= GRANULE * coded.len(), "{} slots", enc.slots());
        let want = encode_with(lens, &coded);
        let (mut one_by_one, mut bulk) = (BitWriter::new(), BitWriter::new());
        for &sym in &coded {
            enc.encode(sym, &mut one_by_one).unwrap();
        }
        enc.encode_slice(&coded, &mut bulk).unwrap();
        assert_eq!(one_by_one.into_bytes(), want);
        assert_eq!(bulk.into_bytes(), want);
        // A symbol without a code, in a granule in use or not, and one
        // past the alphabet: unknown to both emitters.
        let uncoded = (0..lens.len() as u32 + 40).filter(|&s| lens.get(s as usize).is_none_or(|&l| l == 0));
        for sym in uncoded.step_by(1 + lens.len() / 500) {
            let mut w = BitWriter::new();
            assert_eq!(enc.encode(sym, &mut w), Err(HuffmanError::UnknownSymbol(sym)));
            assert_eq!(enc.encode_slice(&[sym], &mut w), Err(HuffmanError::UnknownSymbol(sym)));
        }
        // Built from the symbols themselves, with the stripes merged every
        // few symbols or never, it is the same encoder, whatever the
        // buffers held before.
        if freqs.iter().sum::<u64>() < 1 << 16 {
            let symbols: Vec<u32> =
                coded.iter().flat_map(|&s| std::iter::repeat_n(s, freqs[s as usize] as usize)).collect();
            let stale = HuffmanEncoder::from_freqs(&[3, 0, 1, 1 << 40].repeat(700)).unwrap();
            let (mut merged, mut rebuilt) = (stale.clone(), stale);
            merged.lay_out(freqs.len(), |slot| coded.iter().for_each(|&s| slot[s as usize / GRANULE] = 0));
            merged.count(&symbols, 5);
            merged.assign().unwrap();
            rebuilt.rebuild(freqs.len(), &symbols).unwrap();
            for again in [merged, rebuilt] {
                assert_eq!((&again.slot, &again.freqs, &again.codes), (&enc.slot, &enc.freqs, &enc.codes));
                assert_eq!(again.table(), enc.table());
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
        let bits: u64 = freqs.iter().zip(&lens).map(|(&f, &l)| f * l as u64).sum();
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
                if x.is_multiple_of(4) { x % 700 } else { x % 4 }
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

    /// Code `msg` with the canonical codes of `lens`.
    fn encode_with(lens: &[u8], msg: &[u32]) -> Vec<u8> {
        let codes = canonical_codes(lens);
        let mut w = BitWriter::new();
        for &s in msg {
            let (code, len) = codes[s as usize];
            assert!(len > 0, "symbol {s} has no code");
            w.push_bits(code as u64, len);
        }
        w.into_bytes()
    }

    /// `n` symbols through the per-symbol `decode`.
    fn decode_one_by_one(
        dec: &HuffmanDecoder,
        bytes: &[u8],
        n: usize,
    ) -> Result<Vec<u32>, HuffmanError> {
        let mut r = BitReader::new(bytes);
        (0..n).map(|_| dec.decode(&mut r)).collect()
    }

    /// The bulk decoder, the per-symbol decoder and the reference walk must
    /// give the same symbols for `n` symbols of `bytes`, or all refuse.
    fn assert_decoders_agree(lens: &[u8], bytes: &[u8], n: usize) -> Option<Vec<u32>> {
        let reference = ReferenceDecoder::from_lengths(lens).unwrap();
        let dec = HuffmanDecoder::from_lengths(lens).unwrap();
        let want = reference.decode_all(bytes, n).ok();
        let mut bulk = vec![7u32; 3]; // stale contents must not survive
        let got = dec.decode_into(bytes, n, &mut bulk).ok().map(|()| bulk);
        assert_eq!(got, want, "bulk vs reference, n={n}, {} bytes", bytes.len());
        assert_eq!(decode_one_by_one(&dec, bytes, n).ok(), want, "per-symbol vs reference");
        want
    }

    /// Leaf depths of a random binary tree: repeatedly split a leaf (a
    /// deep one more often than not, so [`MAX_CODE_LEN`] is reached), then
    /// drop some leaves so the code is incomplete (Kraft sum below 1).
    fn random_depths(x: &mut u32, leaves: usize, drop_every: u32) -> Vec<u8> {
        let mut next = || {
            *x ^= *x << 13;
            *x ^= *x >> 17;
            *x ^= *x << 5;
            *x
        };
        let mut depths = vec![1u8, 1];
        while depths.len() < leaves {
            let deepest =
                (0..depths.len()).filter(|&i| depths[i] < MAX_CODE_LEN).max_by_key(|&i| depths[i]);
            let Some(deepest) = deepest else { break };
            let pick = if next() % 3 == 0 { next() as usize % depths.len() } else { deepest };
            if depths[pick] < MAX_CODE_LEN {
                depths[pick] += 1;
                let d = depths[pick];
                depths.push(d);
            }
        }
        if drop_every > 0 {
            depths.retain(|_| next() % drop_every != 0);
        }
        if depths.is_empty() {
            depths.push(1);
        }
        depths
    }

    /// Scatter `depths` over an alphabet of `alphabet` symbols starting at
    /// symbol `first`, `stride` apart.
    fn scatter(depths: &[u8], alphabet: usize, first: usize, stride: usize) -> Vec<u8> {
        let mut lens = vec![0u8; alphabet];
        for (i, &d) in depths.iter().enumerate() {
            lens[first + i * stride] = d;
        }
        lens
    }

    #[test]
    fn every_symbol_decodes_alike_through_all_three_decoders() {
        // Alphabet sized so codes straddle LUT_BITS: frequent symbols get
        // short codes (the primary table, pairs among them), the long
        // tail goes through sub-tables.
        let mut freqs = vec![1u64; 5000];
        freqs[0] = 1 << 20;
        freqs[1] = 1 << 16;
        freqs[2] = 1 << 12;
        let lens = HuffmanEncoder::from_freqs(&freqs).unwrap().lengths();
        assert!(lens.iter().any(|&l| l > 0 && l <= LUT_BITS), "need primary-table codes");
        assert!(lens.iter().any(|&l| l > LUT_BITS), "need sub-table codes");
        let dec = HuffmanDecoder::from_lengths(&lens).unwrap();
        let primary = &dec.table[..1 << LUT_BITS];
        assert!(primary.iter().any(|&e| e & PAIR != 0), "need pair entries");
        assert!(primary.iter().any(|&e| e & LINK != 0 && e != NO_CODE), "need links");
        let msg: Vec<u32> = (0..5000).step_by(7).chain([0, 1, 2, 4999, 0, 0, 1, 0]).collect();
        let bytes = encode_with(&lens, &msg);
        assert_eq!(assert_decoders_agree(&lens, &bytes, msg.len()), Some(msg));
    }

    #[test]
    fn random_tables_decode_alike_up_to_the_longest_code() {
        let mut x = 0x1234_5678u32;
        let mut deepest = 0u8;
        for round in 0..60usize {
            let leaves = [2usize, 3, 9, 40, 300, 2000][round % 6];
            let drop_every = [0u32, 5, 2][round % 3];
            let depths = random_depths(&mut x, leaves, drop_every);
            deepest = deepest.max(*depths.iter().max().unwrap());
            // The occupied range at the start, in the middle and at the
            // very end of a quantizer-sized alphabet.
            let alphabet = 65_537usize;
            let stride = 1 + round % 3;
            let span = (depths.len() - 1) * stride + 1;
            for first in [0, 32_768 - span / 2, alphabet - span] {
                let lens = scatter(&depths, alphabet, first, stride);
                let coded: Vec<u32> =
                    (0..alphabet as u32).filter(|&s| lens[s as usize] > 0).collect();
                // Every coded symbol once, then a random message.
                let mut msg = coded.clone();
                for _ in 0..500 {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    // Mostly the first few symbols: short codes, pairs.
                    let pick = if x.is_multiple_of(4) { x as usize } else { x as usize % 3 };
                    msg.push(coded[pick % coded.len()]);
                }
                let bytes = encode_with(&lens, &msg);
                assert_eq!(
                    assert_decoders_agree(&lens, &bytes, msg.len()),
                    Some(msg),
                    "round {round} first {first}"
                );
            }
        }
        assert_eq!(deepest, MAX_CODE_LEN, "the generator must reach 32-bit codes");
    }

    #[test]
    fn tables_are_bounded_by_the_number_of_long_codes() {
        // What a header of a few dozen lengths, forged or not, can make
        // the decoder allocate (`table::unpack` reads one of 37): the
        // primary table, and at most two sub-tables of `SUB_BITS` index
        // bits per code too long for it.
        let mut x = 0x9e37_79b9u32;
        let mut shapes: Vec<Vec<u8>> =
            (0..300).map(|round| random_depths(&mut x, 37, [0, 5, 2][round % 3])).collect();
        shapes.push(vec![MAX_CODE_LEN; 37]);
        shapes.push((1..=MAX_CODE_LEN).chain([MAX_CODE_LEN]).collect());
        shapes.push((1..=10).chain((12..=MAX_CODE_LEN).step_by(2)).collect());
        let mut largest = 0;
        for depths in &shapes {
            let dec = HuffmanDecoder::from_lengths(depths).unwrap();
            let long = depths.iter().filter(|&&d| d > LUT_BITS).count();
            let bound = (1 << LUT_BITS) + 2 * long * (1 << SUB_BITS);
            assert!(dec.table.len() <= bound, "{} entries for {depths:?}", dec.table.len());
            largest = largest.max(dec.table.len());
        }
        assert!(largest > 1 << LUT_BITS, "no shape reached a sub-table");
    }

    #[test]
    fn one_and_two_symbol_alphabets_decode_in_bulk() {
        // One symbol: a 1-bit code `0`; a `1` bit matches nothing.
        let lens = scatter(&[1], 9, 4, 1);
        assert_eq!(assert_decoders_agree(&lens, &[0x00, 0x00], 16), Some(vec![4; 16]));
        assert_eq!(assert_decoders_agree(&lens, &[0x00, 0x10], 16), None);
        assert_eq!(assert_decoders_agree(&lens, &[0x00], 9), None, "a ninth symbol needs a ninth bit");
        // Two symbols at the two ends of the alphabet.
        let lens = scatter(&[1, 1], 65_537, 0, 65_536);
        let bytes = [0b0110_1001u8, 0xFF, 0x00];
        let want: Vec<u32> = (0..24)
            .map(|i| if bytes[i / 8] >> (7 - i % 8) & 1 == 1 { 65_536 } else { 0 })
            .collect();
        assert_eq!(assert_decoders_agree(&lens, &bytes, 24), Some(want));
    }

    #[test]
    fn truncated_and_bit_flipped_streams_never_disagree_or_panic() {
        // A valid stream cut at every byte, and with every single bit
        // flipped: the decoders give the same symbols or all refuse. Run
        // in debug builds, an out-of-range shift in a refill would trap.
        let mut x = 0x9e37_79b9u32;
        for (leaves, drop_every) in [(2usize, 0u32), (12, 0), (12, 3), (400, 0), (400, 4)] {
            let depths = random_depths(&mut x, leaves, drop_every);
            let lens = scatter(&depths, 1 + depths.len() * 2, 1, 2);
            let coded: Vec<u32> = (0..lens.len() as u32).filter(|&s| lens[s as usize] > 0).collect();
            let msg: Vec<u32> = (0..96)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    let pick = if x.is_multiple_of(3) { x as usize } else { x as usize % 2 };
                    coded[pick % coded.len()]
                })
                .collect();
            let bytes = encode_with(&lens, &msg);
            for cut in 0..=bytes.len() {
                assert_decoders_agree(&lens, &bytes[..cut], msg.len());
            }
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 0x80 >> (bit % 8);
                assert_decoders_agree(&lens, &flipped, msg.len());
                // One symbol more than the stream was written with.
                assert_decoders_agree(&lens, &flipped, msg.len() + 1);
            }
        }
    }

    #[test]
    fn decoder_is_built_from_the_occupied_range_alone() {
        // `from_occupied` with an offset is `from_lengths` over the whole
        // alphabet, and a range that ends past 2^24 symbols is refused
        // before a byte of it is looked at.
        let depths = [2u8, 2, 3, 3, 3, 4, 4];
        let lens = scatter(&depths, 70_000, 61_234, 1);
        let msg: Vec<u32> = (61_234..61_241).chain([61_234, 61_240, 61_236]).collect();
        let bytes = encode_with(&lens, &msg);
        let whole = HuffmanDecoder::from_lengths(&lens).unwrap();
        let ranged = HuffmanDecoder::from_occupied(&depths, 61_234).unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        whole.decode_into(&bytes, msg.len(), &mut a).unwrap();
        ranged.decode_into(&bytes, msg.len(), &mut b).unwrap();
        assert_eq!(a, msg);
        assert_eq!(b, msg);
        assert_eq!(
            HuffmanDecoder::from_occupied(&depths, (1 << 24) - 3).unwrap_err(),
            HuffmanError::Corrupt
        );
        assert_eq!(
            HuffmanDecoder::from_occupied(&depths, usize::MAX).unwrap_err(),
            HuffmanError::Corrupt
        );
        assert_eq!(
            HuffmanDecoder::from_occupied(&[0, 0, 0], 5).unwrap_err(),
            HuffmanError::EmptyAlphabet
        );
        // A symbol count the stream cannot hold is refused before the
        // output is sized from it.
        let mut out = Vec::new();
        assert_eq!(whole.decode_into(&bytes, usize::MAX, &mut out), Err(HuffmanError::Corrupt));
        assert!(out.capacity() < 1 << 20);
    }

    #[test]
    fn decode_respects_stream_end() {
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
