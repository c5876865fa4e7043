//! The SZ compression/decompression pipeline: a stream is four stages
//! (mirroring SZ 1.4/2.x), each one encode/decode pair that alone writes,
//! reads and validates its own bytes (`header` names each field's stage):
//!
//! 1. **Predict-quantize** — Lorenzo stencil over reconstructed values, or
//!    the per-block adaptive choice between Lorenzo and hyperplane
//!    regression; residuals land in uniform bins of width `2·eb`, and
//!    out-of-range values escape to IEEE literals.
//! 2. **Entropy** — canonical Huffman coding of the bin indices.
//! 3. **Table** — the code lengths dense, or packed into run tokens where
//!    the lossless back end is on and that is smaller (`table`).
//! 4. **Lossless** — the envelope, and an LZSS pass over the whole payload
//!    kept only where it makes the stream smaller.
//!
//! [`compress_typed_with`] walks them forward and [`decompress_typed_with`]
//! in reverse, crossing each stage boundary once per call. Predictions are
//! computed from reconstructed values only, so the decompressor stays in
//! lock-step with the compressor and every value obeys the absolute error
//! bound.
//!
//! Both `f32` and `f64` fields are supported through [`Element`]; the
//! element type is recorded in the stream header and checked on decode.
//!
//! The hot loops are written row-at-a-time: the six Lorenzo stencil terms
//! that do not depend on the current row are accumulated into a scratch
//! row by [`lorenzo_3d_row_partial`] (elementwise, autovectorizable), and
//! only the single left-neighbour add stays in the serial scan. Repeated
//! compressions (the chunked parallel path) can reuse one [`SzScratch`]
//! per worker via [`compress_typed_with`] so quantize/encode stop
//! allocating per call.

use std::borrow::Cow;
use std::ops::Range;

use crate::bitio::{BitReader, BitWriter};
use crate::element::Element;
use crate::header::{Reader, Writer, ENVELOPE_LEN, FLAG_LOSSLESS, FLAG_PACKED_TABLE, MAGIC};
use crate::huffman::{CodeTable, HuffmanDecoder, HuffmanEncoder};
use crate::kernels;
use crate::lossless;
use crate::predictor::lorenzo_3d_row_partial;
use crate::quantizer::Quantizer;
use crate::regression::{
    abs_error_below_lanes, block_abs_error_below, fit_block, BlockCoeffs, BlockFitter, BLOCK_SIDE,
};
use crate::stats::CompressionStats;
use crate::table;
use crate::{Compressed, ErrorBound, PredictorMode, SzConfig, SzError};

/// Geometry after fusing 4-D inputs down to 3-D (SZ treats the slowest two
/// dimensions of a 4-D array as one).
#[derive(Debug, Clone, Copy)]
struct Geom {
    nz: usize,
    ny: usize,
    nx: usize,
    rank: usize,
}

fn geometry(dims: &[usize], len: usize) -> Result<Geom, SzError> {
    if dims.is_empty() || dims.len() > 4 || dims.contains(&0) {
        return Err(SzError::InvalidDims);
    }
    let n = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or(SzError::InvalidDims)?;
    if n != len || n == 0 {
        return Err(SzError::InvalidDims);
    }
    let g = match dims.len() {
        1 => Geom { nz: 1, ny: 1, nx: dims[0], rank: 1 },
        2 => Geom { nz: 1, ny: dims[0], nx: dims[1], rank: 2 },
        3 => Geom { nz: dims[0], ny: dims[1], nx: dims[2], rank: 3 },
        _ => Geom { nz: dims[0] * dims[1], ny: dims[2], nx: dims[3], rank: 4 },
    };
    Ok(g)
}

fn resolve_eb<T: Element>(data: &[T], eb: ErrorBound) -> Result<f64, SzError> {
    let abs = match eb {
        ErrorBound::Absolute(e) => e,
        ErrorBound::ValueRangeRelative(r) => {
            if r <= 0.0 || !r.is_finite() {
                return Err(SzError::InvalidErrorBound);
            }
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &v in data {
                let v = v.to_f64();
                if v.is_finite() {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
            let range = hi - lo;
            if range > 0.0 {
                r * range
            } else {
                // Constant (or all non-finite) data: any positive bound works.
                r
            }
        }
    };
    if abs <= 0.0 || !abs.is_finite() {
        return Err(SzError::InvalidErrorBound);
    }
    Ok(abs)
}

/// Reusable buffers for repeated compressions and decompressions.
///
/// One compression call touches half a dozen working arrays (symbols,
/// reconstructed values, histograms, bit sinks, …); allocating them per
/// call is pure overhead when many small arrays are compressed in a row —
/// exactly what the chunked parallel path does. Workers hold one scratch
/// each and pass it to [`compress_typed_with`]; buffers grow to the
/// high-water mark and stay. The decode side shares the same scratch via
/// [`decompress_typed_with`] (symbol array, reconstruction array, row
/// partials), so the chunked restart path stops allocating per chunk too.
#[derive(Debug)]
pub struct SzScratch<T> {
    /// The symbols predict-quantize hands the entropy stage (decode: the
    /// other way).
    symbols: Vec<u32>,
    // Predict-quantize: its sections' contents and bytes, the
    // reconstruction (`f64`, what predictions read), and the working
    // arrays of the block predictor.
    literals: Vec<T>,
    lit_bytes: Vec<u8>,
    block_bits: BitWriter,
    coeffs: Vec<f32>,
    recon: Vec<f64>,
    rowp: Vec<f64>,
    /// The values of one partial block.
    vals: Vec<f64>,
    select: SelectScratch,
    /// Predictor and fit of every block of the block row being coded.
    choices: Vec<(bool, BlockCoeffs)>,
    /// Per [`WAVEFRONT`] element, its offset from the block's first in the
    /// geometry of the call and its row-major position in the block.
    wave: Vec<(usize, usize)>,
    // Entropy: the encoder's tables and the coded bits.
    huff: HuffmanEncoder,
    sym_bits: BitWriter,
}

impl<T> SzScratch<T> {
    /// New empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        SzScratch {
            symbols: Vec::new(),
            literals: Vec::new(),
            lit_bytes: Vec::new(),
            block_bits: BitWriter::new(),
            coeffs: Vec::new(),
            recon: Vec::new(),
            rowp: Vec::new(),
            vals: Vec::new(),
            select: SelectScratch::default(),
            choices: Vec::new(),
            wave: Vec::new(),
            huff: HuffmanEncoder::default(),
            sym_bits: BitWriter::new(),
        }
    }
}

impl<T> Default for SzScratch<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Quantize one element, verifying that the error bound still holds after
/// the decompressor's final narrowing cast (large-magnitude values can
/// lose more than the slack to f32 rounding). Returns the symbol and the
/// reconstructed value; symbol 0 with the original value is the escape to
/// a literal.
///
/// `FAST` selects the quantizer's branch-free rounding path. Bit-identical
/// output (`Quantizer::try_encode_fast` is proven and property-tested equal
/// to `try_encode` whenever `fast_exact()` holds); [`compress_typed_with`]
/// selects it when `kernels::fast_enabled() && q.fast_exact()`.
#[inline]
fn quantize_one<T: Element, const FAST: bool>(q: &Quantizer, pred: f64, orig: T) -> (u32, f64) {
    let orig = orig.to_f64();
    let hit = if FAST { q.try_encode_fast(pred, orig) } else { q.try_encode(pred, orig) };
    match hit {
        Some((c, rec)) if (T::from_f64(rec).to_f64() - orig).abs() <= q.error_bound() => (c, rec),
        _ => (0, orig),
    }
}

/// [`quantize_one`], appending the symbol (and the literal of an escape)
/// to the output arrays; returns the reconstructed value.
#[inline]
fn encode_one<T: Element, const FAST: bool>(
    q: &Quantizer,
    pred: f64,
    orig: T,
    symbols: &mut Vec<u32>,
    literals: &mut Vec<T>,
) -> f64 {
    let (sym, rec) = quantize_one::<T, FAST>(q, pred, orig);
    symbols.push(sym);
    if sym == 0 {
        literals.push(orig);
    }
    rec
}

/// Classic (whole-array Lorenzo) encode. Fills `s.symbols` / `s.literals`
/// / `s.recon`.
fn encode_classic<T: Element, const FAST: bool>(
    data: &[T],
    g: Geom,
    order: u8,
    q: &Quantizer,
    s: &mut SzScratch<T>,
) {
    let n = data.len();
    s.recon.clear();
    s.recon.resize(n, 0.0);
    if g.rank == 1 && order == 2 {
        // First two elements peeled so the steady-state loop carries the
        // two previous reconstructions in locals instead of re-deriving
        // the predictor branch (and bounds checks) per element.
        let mut prev = 0.0f64;
        let mut prev2 = 0.0f64;
        for (i, &v) in data.iter().enumerate().take(2) {
            let pred = if i == 0 { 0.0 } else { prev };
            let rec = encode_one::<T, FAST>(q, pred, v, &mut s.symbols, &mut s.literals);
            s.recon[i] = rec;
            prev2 = prev;
            prev = rec;
        }
        for (i, &v) in data.iter().enumerate().skip(2) {
            let pred = 2.0 * prev - prev2;
            let rec = encode_one::<T, FAST>(q, pred, v, &mut s.symbols, &mut s.literals);
            s.recon[i] = rec;
            prev2 = prev;
            prev = rec;
        }
        return;
    }
    s.rowp.clear();
    s.rowp.resize(g.nx, 0.0);
    let mut idx = 0usize;
    for k in 0..g.nz {
        for j in 0..g.ny {
            lorenzo_3d_row_partial(&s.recon, g.ny, g.nx, k, j, 0, g.nx, &mut s.rowp);
            for i in 0..g.nx {
                let left = if i > 0 { s.recon[idx - 1] } else { 0.0 };
                let pred = s.rowp[i] + left;
                s.recon[idx] =
                    encode_one::<T, FAST>(q, pred, data[idx], &mut s.symbols, &mut s.literals);
                idx += 1;
            }
        }
    }
}

/// Mean |orig − Lorenzo(orig)| over a block, using *original* neighbours.
/// Only a mode-selection heuristic: correctness never depends on it.
fn lorenzo_probe_error<T: Element>(data: &[T], g: Geom, r: BlockRange) -> f64 {
    let at = |k: isize, j: isize, i: isize| -> f64 {
        if k < 0 || j < 0 || i < 0 {
            0.0
        } else {
            data[(k as usize * g.ny + j as usize) * g.nx + i as usize].to_f64()
        }
    };
    let mut err = 0.0;
    let mut cnt = 0usize;
    for k in r.k.0..r.k.1 {
        for j in r.j.0..r.j.1 {
            for i in r.i.0..r.i.1 {
                let (ki, ji, ii) = (k as isize, j as isize, i as isize);
                let pred = at(ki, ji, ii - 1) + at(ki, ji - 1, ii) + at(ki - 1, ji, ii)
                    - at(ki, ji - 1, ii - 1)
                    - at(ki - 1, ji, ii - 1)
                    - at(ki - 1, ji - 1, ii)
                    + at(ki - 1, ji - 1, ii - 1);
                err += (data[(k * g.ny + j) * g.nx + i].to_f64() - pred).abs();
                cnt += 1;
            }
        }
    }
    if cnt == 0 {
        0.0
    } else {
        err / cnt as f64
    }
}

/// Elements of a full block.
const BLOCK_LEN: usize = BLOCK_SIDE * BLOCK_SIDE * BLOCK_SIDE;

/// The block-local `[k, j, i]` of a full block's elements, by anti-diagonal
/// plane (`i + j + k` ascending).
const fn wavefront_order() -> [[u8; 3]; BLOCK_LEN] {
    let mut order = [[0u8; 3]; BLOCK_LEN];
    let mut n = 0;
    let mut t = 0;
    while t <= 3 * (BLOCK_SIDE - 1) {
        let mut k = 0;
        while k < BLOCK_SIDE {
            let mut j = 0;
            while j < BLOCK_SIDE {
                if t >= k + j && t - k - j < BLOCK_SIDE {
                    order[n] = [k as u8, j as u8, (t - k - j) as u8];
                    n += 1;
                }
                j += 1;
            }
            k += 1;
        }
        t += 1;
    }
    order
}

static WAVEFRONT: [[u8; 3]; BLOCK_LEN] = wavefront_order();

/// One block of [`encode_blocks`]: the half-open index ranges it covers.
#[derive(Debug, Clone, Copy)]
struct BlockRange {
    k: (usize, usize),
    j: (usize, usize),
    i: (usize, usize),
}

/// Quantize a regression block. Its predictions come from the coefficients
/// alone, never from `recon`, so the elements are independent of each
/// other and the loop runs without a carried dependence.
fn encode_regression_block<T: Element, const FAST: bool>(
    data: &[T],
    g: Geom,
    r: BlockRange,
    coeffs: &BlockCoeffs,
    q: &Quantizer,
    s: &mut SzScratch<T>,
) {
    for k in r.k.0..r.k.1 {
        for j in r.j.0..r.j.1 {
            let row = coeffs.row(j - r.j.0, k - r.k.0);
            let at = (k * g.ny + j) * g.nx;
            for i in r.i.0..r.i.1 {
                s.recon[at + i] = encode_one::<T, FAST>(
                    q,
                    row.at(i - r.i.0),
                    data[at + i],
                    &mut s.symbols,
                    &mut s.literals,
                );
            }
        }
    }
}

/// Quantize a Lorenzo block row by row: the elementwise part of the
/// stencil per row, then the serial left-neighbour scan.
fn encode_lorenzo_block_rows<T: Element, const FAST: bool>(
    data: &[T],
    g: Geom,
    r: BlockRange,
    q: &Quantizer,
    s: &mut SzScratch<T>,
) {
    for k in r.k.0..r.k.1 {
        for j in r.j.0..r.j.1 {
            lorenzo_3d_row_partial(&s.recon, g.ny, g.nx, k, j, r.i.0, r.i.1, &mut s.rowp);
            for i in r.i.0..r.i.1 {
                let idx = (k * g.ny + j) * g.nx + i;
                let left = if i > 0 { s.recon[idx - 1] } else { 0.0 };
                s.recon[idx] = encode_one::<T, FAST>(
                    q,
                    s.rowp[i - r.i.0] + left,
                    data[idx],
                    &mut s.symbols,
                    &mut s.literals,
                );
            }
        }
    }
}

/// [`encode_lorenzo_block_rows`] for a full block that has a row above and
/// a column to its left, visiting the elements in [`WAVEFRONT`] order.
///
/// Every element comes after the seven stencil neighbours it is predicted
/// from, so each prediction — computed with the operations of
/// [`lorenzo_3d_row_partial`] plus the left neighbour, in their order — and
/// with it every symbol, literal and reconstructed value is the one the
/// row-by-row order gives. What changes is that consecutive elements no
/// longer depend on each other (they lie on one anti-diagonal plane), so
/// the quantizer's add–divide–round–multiply chain, which the row order
/// runs strictly one element after the other, overlaps across elements.
/// Symbols and literals are put back into row-major order at the end.
fn encode_lorenzo_block_wavefront<T: Element, const FAST: bool>(
    data: &[T],
    g: Geom,
    r: BlockRange,
    q: &Quantizer,
    s: &mut SzScratch<T>,
) {
    let (k0, j0, i0) = (r.k.0, r.j.0, r.i.0);
    debug_assert!(j0 > 0 && i0 > 0);
    let SzScratch { recon, wave, symbols: all_symbols, literals, .. } = s;
    let plane = g.ny * g.nx;
    let first = (k0 * g.ny + j0) * g.nx + i0;
    let mut symbols = [0u32; BLOCK_LEN];
    for &(offset, at) in wave.iter() {
        let idx = first + offset;
        let u = idx - g.nx; // same plane, row above
        let partial = if idx >= plane {
            let p = idx - plane; // plane below, same row
            let d = p - g.nx; // plane below, row above
            (recon[u] + recon[p] - recon[d]) - (recon[u - 1] + recon[p - 1] - recon[d - 1])
        } else {
            recon[u] - recon[u - 1]
        };
        let (sym, rec) = quantize_one::<T, FAST>(q, partial + recon[idx - 1], data[idx]);
        recon[idx] = rec;
        symbols[at] = sym;
    }
    all_symbols.extend_from_slice(&symbols);
    if symbols.contains(&0) {
        for (row, row_symbols) in symbols.chunks_exact(BLOCK_SIDE).enumerate() {
            let at = first + (row / BLOCK_SIDE * g.ny + row % BLOCK_SIDE) * g.nx;
            for (v, _) in data[at..].iter().zip(row_symbols).filter(|(_, &sym)| sym == 0) {
                literals.push(*v);
            }
        }
    }
}

/// Blocks [`select_block_row`] decides side by side: one value of each in
/// a [`Lanes`], so what is a serial sum for one block is `LANES` independent
/// ones that fit a vector or two.
const LANES: usize = 4;
type Lanes = [f64; LANES];

/// Working arrays of [`select_block_row`].
#[derive(Debug, Default)]
struct SelectScratch {
    /// Two planes of `BLOCK_SIDE + 1` rows as `f64`: the row above the
    /// block row, then its own, each behind a zero column.
    planes: Vec<f64>,
    /// The Lorenzo-probe terms of one row.
    terms: Vec<f64>,
    /// The blocks' values, `[group of LANES blocks][element][lane]`.
    vals: Vec<Lanes>,
    /// Per group, each block's sum of probe terms.
    probe: Vec<Lanes>,
}

/// Predictor and fit of one block on its own, the way partial blocks are
/// decided: regression where its mean absolute error is below that of
/// Lorenzo on *original* neighbours. Only a heuristic: correctness never
/// depends on it.
fn select_block<T: Element>(
    data: &[T],
    g: Geom,
    r: BlockRange,
    vals: &mut Vec<f64>,
) -> (bool, BlockCoeffs) {
    let (nk, nj, ni) = (r.k.1 - r.k.0, r.j.1 - r.j.0, r.i.1 - r.i.0);
    vals.clear();
    for k in r.k.0..r.k.1 {
        for j in r.j.0..r.j.1 {
            let row = (k * g.ny + j) * g.nx;
            vals.extend(data[row + r.i.0..row + r.i.1].iter().map(|v| v.to_f64()));
        }
    }
    let coeffs = fit_block(vals, nk, nj, ni);
    let lor_err = lorenzo_probe_error(data, g, r);
    (block_abs_error_below(vals, nk, nj, ni, &coeffs, lor_err), coeffs)
}

/// [`select_block`] for the first `nb` blocks, all full, of the block row
/// at planes `k0..`, rows `j0..`; appends their choices.
///
/// Every data row is converted to `f64` once, the block values are laid
/// out `[element][block]` and every sum of the decision (the probe's, the
/// mean, the three projections, the regression error) runs over the
/// elements in `select_block`'s order with the blocks of a group side by
/// side. Each block's sums see the same terms in the same order, so the
/// choices are `select_block`'s; what changes is that four serial
/// 216-term chains per block become loops with no carried dependence.
fn select_block_row<T: Element>(
    data: &[T],
    g: Geom,
    (k0, j0): (usize, usize),
    nb: usize,
    sel: &mut SelectScratch,
    choices: &mut Vec<(bool, BlockCoeffs)>,
) {
    const B: usize = BLOCK_SIDE;
    let groups = nb.div_ceil(LANES);
    let cols = nb * B;
    // The lanes past the last block read zeros and are dropped at the end.
    let stride = 1 + groups * LANES * B;
    let SelectScratch { planes, terms, vals, probe } = sel;
    planes.clear();
    planes.resize(2 * (B + 1) * stride, 0.0);
    terms.resize(stride - 1, 0.0);
    vals.resize(groups * BLOCK_LEN, [0.0; LANES]);
    probe.clear();
    probe.resize(groups, [0.0; LANES]);
    let (mut behind, mut plane) = planes.split_at_mut((B + 1) * stride);
    // Rows `j0 − 1 .. j0 + B` of plane `k`; a row off the array stays zero.
    let load = |into: &mut [f64], k: usize| {
        for (r, row) in into.chunks_exact_mut(stride).enumerate() {
            let Some(j) = (j0 + r).checked_sub(1) else { continue };
            let at = (k * g.ny + j) * g.nx;
            for (d, v) in row[1..].iter_mut().zip(&data[at..at + cols]) {
                *d = v.to_f64();
            }
        }
    };
    if k0 > 0 {
        load(behind, k0 - 1);
    }
    for k in 0..B {
        load(plane, k0 + k);
        for j in 0..B {
            let (c, u) = (&plane[(j + 1) * stride..][..stride], &plane[j * stride..][..stride]);
            let (p, d) = (&behind[(j + 1) * stride..][..stride], &behind[j * stride..][..stride]);
            // `lorenzo_probe_error`'s terms, operation for operation.
            for (x, t) in terms.iter_mut().enumerate() {
                let pred = c[x] + u[x + 1] + p[x + 1] - u[x] - p[x] - d[x + 1] + d[x];
                *t = (c[x + 1] - pred).abs();
            }
            let e0 = (k * B + j) * B;
            for (group, sums) in probe.iter_mut().enumerate() {
                let at = group * LANES * B;
                for i in 0..B {
                    let v = &mut vals[group * BLOCK_LEN + e0 + i];
                    for l in 0..LANES {
                        v[l] = c[1 + at + l * B + i];
                        sums[l] += terms[at + l * B + i];
                    }
                }
            }
        }
        std::mem::swap(&mut behind, &mut plane);
    }
    let fitter = BlockFitter::new(B, B, B);
    for (group, sums) in probe.iter().enumerate() {
        let vals = &vals[group * BLOCK_LEN..(group + 1) * BLOCK_LEN];
        let coeffs = fitter.fit_lanes(vals);
        let lor_err = sums.map(|sum| sum / BLOCK_LEN as f64);
        let use_reg = abs_error_below_lanes(vals, B, B, &coeffs, &lor_err);
        let live = LANES.min(nb - group * LANES);
        choices.extend(use_reg.into_iter().zip(coeffs).take(live));
    }
}

/// Block-adaptive encode (per-block Lorenzo vs hyperplane regression).
/// Fills the scratch; returns `(regression_blocks, lorenzo_blocks)`.
fn encode_blocks<T: Element, const FAST: bool>(
    data: &[T],
    g: Geom,
    q: &Quantizer,
    s: &mut SzScratch<T>,
) -> (u64, u64) {
    let n = data.len();
    s.recon.clear();
    s.recon.resize(n, 0.0);
    s.rowp.clear();
    s.rowp.resize(g.nx.min(BLOCK_SIDE), 0.0);
    let mut regression_blocks = 0u64;
    let mut lorenzo_blocks = 0u64;
    let b = BLOCK_SIDE;
    s.wave.clear();
    s.wave.extend(WAVEFRONT.iter().map(|&[k, j, i]| {
        let (k, j, i) = (k as usize, j as usize, i as usize);
        ((k * g.ny + j) * g.nx + i, (k * b + j) * b + i)
    }));
    // One lap of each per block row; the registry is touched once a call.
    let mut select_laps = lcpio_trace::Stopwatch::new();
    let mut quantize_laps = lcpio_trace::Stopwatch::new();

    let blocks = |e: usize| e.div_ceil(b);
    for bk in 0..blocks(g.nz) {
        for bj in 0..blocks(g.ny) {
            let (k0, j0) = (bk * b, bj * b);
            let (k1, j1) = ((k0 + b).min(g.nz), (j0 + b).min(g.ny));
            let range = |bi: usize| BlockRange {
                k: (k0, k1),
                j: (j0, j1),
                i: (bi * b, (bi * b + b).min(g.nx)),
            };
            select_laps.lap(|| {
                s.choices.clear();
                // A row's full blocks together, if it is full in k and j.
                let batched = if (k1 - k0, j1 - j0) == (b, b) { g.nx / b } else { 0 };
                if batched > 0 {
                    select_block_row(data, g, (k0, j0), batched, &mut s.select, &mut s.choices);
                }
                for bi in batched..blocks(g.nx) {
                    s.choices.push(select_block(data, g, range(bi), &mut s.vals));
                }
            });
            quantize_laps.lap(|| {
                for bi in 0..blocks(g.nx) {
                    let (use_reg, coeffs) = s.choices[bi];
                    let r = range(bi);
                    s.block_bits.push_bit(use_reg);
                    if use_reg {
                        regression_blocks += 1;
                        s.coeffs.extend_from_slice(&coeffs.c);
                        encode_regression_block::<T, FAST>(data, g, r, &coeffs, q, s);
                    } else {
                        lorenzo_blocks += 1;
                        let full = (k1 - k0, j1 - j0, r.i.1 - r.i.0) == (b, b, b);
                        if full && j0 > 0 && r.i.0 > 0 {
                            encode_lorenzo_block_wavefront::<T, FAST>(data, g, r, q, s);
                        } else {
                            encode_lorenzo_block_rows::<T, FAST>(data, g, r, q, s);
                        }
                    }
                }
            });
        }
    }
    select_laps.commit("sz.select");
    quantize_laps.commit("sz.quantize");
    (regression_blocks, lorenzo_blocks)
}

// ---- The stages ----
//
// Four stages, each one encode/decode pair that alone writes, reads and
// validates its own bytes. In the payload they nest: predict-quantize's
// head, the entropy stage's fields around the table stage's form of the
// code lengths, then predict-quantize's sections; the lossless stage wraps
// the whole payload.

/// The predict-quantize stage: values to quantization symbols, under the
/// classic (whole-array Lorenzo) or the block-adaptive predictor.
///
/// Its bytes open and close the payload. In front of the entropy stage's:
/// the element type tag, the rank and dims, the predictor byte (0 classic,
/// 1 block-adaptive), the Lorenzo order, the error bound, the radius and
/// the element count. Behind them, ending the payload: the literal
/// section, and in block mode the block-flag and coefficient sections.
struct PredictQuantize {
    g: Geom,
    block_mode: bool,
    order: u8,
    q: Quantizer,
    /// Element count.
    n: usize,
}

impl PredictQuantize {
    /// The stage `cfg` asks for on `data` shaped as `dims`. The radius lands
    /// in the stream header and drives the decoder's alphabet allocation, so
    /// it must respect the same cap the decoder enforces. Clamping (rather
    /// than erroring) is sound: the radius is a quality/speed knob, and
    /// out-of-range residuals fall back to exact literals either way, so
    /// the error bound still holds.
    fn new<T: Element>(data: &[T], dims: &[usize], cfg: &SzConfig) -> Result<Self, SzError> {
        let g = geometry(dims, data.len())?;
        let q = Quantizer::new(resolve_eb(data, cfg.error_bound)?, cfg.radius.clamp(1, Quantizer::MAX_RADIUS));
        let block_mode = matches!(cfg.mode, PredictorMode::BlockAdaptive) && g.rank >= 2;
        Ok(PredictQuantize { g, block_mode, order: cfg.lorenzo_order, q, n: data.len() })
    }

    /// Encode: the head into `p`, then `data` quantized into the scratch
    /// under the `FAST` arithmetic (see `kernels`): the symbols the entropy
    /// stage codes, and the literals, block flags and coefficients
    /// [`PredictQuantize::encode_sections`] writes. Escapes and blocks are
    /// counted into `stats`.
    ///
    /// Out of line on purpose: inlined into the walk, the rank-1 loop
    /// shares its registers with everything there and carries the two
    /// previous reconstructions through the stack, which made a CESM
    /// request 7 % slower.
    #[inline(never)]
    fn encode<T: Element, const FAST: bool>(
        &self,
        data: &[T],
        dims: &[usize],
        p: &mut Writer,
        stats: &mut CompressionStats,
        s: &mut SzScratch<T>,
    ) {
        p.u8(T::TYPE_TAG);
        p.u8(dims.len() as u8);
        dims.iter().for_each(|&d| p.u64(d as u64));
        p.u8(self.block_mode as u8);
        p.u8(self.order);
        p.f64(self.q.error_bound());
        p.u32(self.q.radius());
        p.u64(self.n as u64);

        s.symbols.clear();
        s.symbols.reserve(self.n);
        s.literals.clear();
        s.block_bits.clear();
        s.coeffs.clear();
        let _span = lcpio_trace::span("sz.predict_quantize");
        if self.block_mode {
            (stats.regression_blocks, stats.lorenzo_blocks) = encode_blocks::<T, FAST>(data, self.g, &self.q, s);
        } else {
            encode_classic::<T, FAST>(data, self.g, self.order, &self.q, s);
        }
        stats.unpredictable = s.literals.len() as u64;
        stats.predictable = self.n as u64 - stats.unpredictable;
    }

    /// The sections behind the entropy stage's bytes: the literals
    /// (little-endian), then in block mode one bit per block (1 =
    /// regression) and four `f32` per regression block.
    fn encode_sections<T: Element>(&self, p: &mut Writer, s: &mut SzScratch<T>) {
        s.lit_bytes.clear();
        s.lit_bytes.reserve(s.literals.len() * T::BYTES);
        s.literals.iter().for_each(|&v| v.write_le(&mut s.lit_bytes));
        p.section(&s.lit_bytes);
        if self.block_mode {
            p.section(s.block_bits.finish());
            p.u64(4 * s.coeffs.len() as u64);
            s.coeffs.iter().for_each(|&c| p.f32(c));
        }
    }

    /// Decode the head of a payload of `T` values: the stage and the dims.
    /// The radius bounds the symbols a stream may use, so it is checked
    /// against the cap the encoder clamps to: a forged header cannot claim
    /// an absurd one. The element count sizes nothing before the entropy
    /// stage has checked it against the symbol section. A predictor byte
    /// this decoder does not know is an error, not a guess.
    fn decode_head<T: Element>(r: &mut Reader) -> Result<(Self, Vec<usize>), SzError> {
        if r.u8()? != T::TYPE_TAG {
            return Err(SzError::TypeMismatch);
        }
        let rank = r.u8()? as usize;
        if rank == 0 || rank > 4 {
            return Err(SzError::Corrupt("bad rank"));
        }
        let dims = (0..rank).map(|_| Ok(r.u64()? as usize)).collect::<Result<Vec<_>, SzError>>()?;
        let block_mode = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(SzError::Corrupt("unknown predictor")),
        };
        let (order, eb, radius, n) = (r.u8()?, r.f64()?, r.u32()?, r.u64()? as usize);
        let g = geometry(&dims, n)?;
        if eb <= 0.0 || !eb.is_finite() || radius == 0 || radius > Quantizer::MAX_RADIUS {
            return Err(SzError::Corrupt("bad quantizer params"));
        }
        Ok((PredictQuantize { g, block_mode, order, q: Quantizer::new(eb, radius), n }, dims))
    }

    /// Decode: this stage's sections, which end the payload, then the
    /// values of the entropy stage's `s.symbols`, one loop per predictor
    /// ([`Reconstruct`]).
    ///
    /// Decode budget: the output and the reconstruction array, `T::BYTES +
    /// 8` bytes an element, with the element count checked by the entropy
    /// stage at 8 a byte of symbol section (`c` = 128 per byte); `k` is
    /// nothing beyond them (the row partials are one row).
    fn decode<T: Element>(&self, r: &mut Reader, s: &mut SzScratch<T>) -> Result<Vec<T>, SzError> {
        let lit_bytes = r.section()?;
        let (block_flags, coeff_bytes) = if self.block_mode { (r.section()?, r.section()?) } else { (&[][..], &[][..]) };
        if lit_bytes.len() % T::BYTES != 0 || coeff_bytes.len() % 16 != 0 {
            return Err(SzError::Corrupt("literal or coeff section"));
        }
        if r.remaining() != 0 {
            return Err(SzError::Corrupt("trailing bytes after sections"));
        }
        let SzScratch { symbols, recon, rowp, .. } = s;
        // Every slot of `recon` is written before the stencil reads it (a
        // prediction only looks at rows above, planes behind and the column
        // to the left, all earlier in coding order), so what an earlier call
        // left there need not be cleared.
        recon.resize(self.n, 0.0);
        rowp.resize(if self.block_mode { self.g.nx.min(BLOCK_SIDE) } else { self.g.nx }, 0.0);
        let mut out = vec![T::from_f64(0.0); self.n];
        let literals = lit_bytes.chunks_exact(T::BYTES);
        let mut rc = Reconstruct { q: self.q, g: self.g, literals, recon, out: &mut out };
        if self.block_mode {
            rc.blocks(symbols, block_flags, coeff_bytes, rowp)?;
        } else if self.g.rank == 1 && self.order == 2 {
            rc.order2(symbols)?;
        } else {
            rc.classic(symbols, rowp)?;
        }
        Ok(out)
    }
}

/// The entropy stage: a canonical Huffman code over the symbols the call
/// used. Its bytes sit between predict-quantize's head and sections: the
/// first symbol with a code, `count` (the symbols from there to the last
/// one with a code), their code lengths in the table stage's form, the
/// number of coded bits and the symbol section. Returns the table stage's
/// flag bit; the code's size goes into `stats`.
fn entropy_encode<T, const FAST: bool>(
    alphabet: usize,
    lossless: bool,
    p: &mut Writer,
    stats: &mut CompressionStats,
    s: &mut SzScratch<T>,
) -> Result<u8, SzError> {
    let _span = lcpio_trace::span("sz.huffman");
    let (first, lens, present) = huffman_code::<T, FAST>(alphabet, s)?;
    stats.huffman_table_entries = present as u64;
    stats.huffman_bits = s.sym_bits.bit_len() as u64;
    p.u32(first as u32);
    p.u32(lens.len() as u32);
    let table_flag = table::encode(&lens, lossless, p);
    p.u64(stats.huffman_bits);
    p.section(s.sym_bits.finish());
    Ok(table_flag)
}

/// The entropy stage's code: histogram, Huffman table and codes over
/// `s.symbols` (all below `alphabet`), and their bits into `s.sym_bits`,
/// through the batched emitter under `FAST` and a symbol at a time
/// otherwise.
fn huffman_code<T, const FAST: bool>(alphabet: usize, s: &mut SzScratch<T>) -> Result<CodeTable, SzError> {
    s.huff.rebuild(alphabet, &s.symbols).map_err(|_| SzError::Internal("huffman build"))?;
    let _span = lcpio_trace::span("sz.huffman.emit");
    s.sym_bits.clear();
    if FAST {
        s.huff.encode_slice(&s.symbols, &mut s.sym_bits)
    } else {
        s.symbols.iter().try_for_each(|&sym| s.huff.encode(sym, &mut s.sym_bits))
    }
    .map_err(|_| SzError::Internal("huffman encode"))?;
    // The lossless stage comes later and holds the call's peak.
    Ok(s.huff.finish())
}

/// The entropy stage's decode: `n` symbols into `symbols`. The symbol
/// range is checked against `q`'s alphabet before a byte of the table is
/// read or unpacked: the decoder can then only ever give one of the
/// quantizer's symbols, and a packed table only ever expand to the
/// alphabet's size. Returns where the table (`count`, then the lengths in
/// their form) lies in the payload.
///
/// Decode budget: the symbols, four bytes an element, with every element
/// at least a bit of the symbol section (checked before decoding: `c` = 32
/// per byte); the decoder's tables, sized by the codes the table gives
/// (a small factor times at most `count`, plus under 0.2 MiB); and the
/// table stage's `k`.
fn entropy_decode(
    r: &mut Reader,
    flags: u8,
    q: &Quantizer,
    n: usize,
    symbols: &mut Vec<u32>,
) -> Result<Range<usize>, SzError> {
    let first = r.u32()? as usize;
    let table_from = r.pos();
    let count = r.u32()? as usize;
    if first.checked_add(count).is_none_or(|end| end > q.alphabet_size()) {
        return Err(SzError::Corrupt("symbol range out of alphabet"));
    }
    let lens = table::decode(r, flags, count)?;
    let table_at = table_from..r.pos();
    let _bit_count = r.u64()?;
    let sym_bytes = r.section()?;
    if n > sym_bytes.len().saturating_mul(8) {
        return Err(SzError::Corrupt("element count exceeds symbol stream"));
    }
    HuffmanDecoder::from_occupied(&lens, first)
        .map_err(|_| SzError::Corrupt("huffman table"))?
        .decode_into(sym_bytes, n, symbols)
        .map_err(|_| SzError::Corrupt("symbol stream"))?;
    Ok(table_at)
}

/// The lossless stage: the envelope (magic, flags byte, body length) and,
/// under `FLAG_LOSSLESS`, the payload's LZSS form as the body, kept only
/// when it is smaller. A payload LZSS cannot take (4 GiB or more: its
/// header and positions are u32) is stored raw, like one it fails to
/// shrink. `flags` holds the inner stages' bits.
fn lossless_encode(mut body: Vec<u8>, mut flags: u8, on: bool) -> Vec<u8> {
    if on && lossless::accepts(body.len()) {
        let _span = lcpio_trace::span("sz.lossless");
        let z = lossless::compress(&body);
        let kept = z.len() < body.len();
        if lcpio_trace::collecting() {
            lcpio_trace::counter_add("sz.lossless.bytes_in", body.len() as u64);
            lcpio_trace::counter_add("sz.lossless.bytes_out", z.len() as u64);
            lcpio_trace::counter_add("sz.lossless.kept", kept as u64);
            lcpio_trace::counter_add("sz.lossless.dropped", !kept as u64);
        }
        if kept {
            flags |= FLAG_LOSSLESS;
            body = z;
        }
    }
    let mut out = Writer::new();
    out.bytes(&MAGIC);
    out.u8(flags);
    out.section(&body);
    out.into_bytes()
}

/// The lossless stage's decode: the flags byte and the payload (the body,
/// or what its LZSS form expands to). A flag bit no stage knows, and a
/// byte after the body, are errors.
///
/// Decode budget: a raw body is borrowed; an LZSS body expands to at most
/// 83 bytes per byte of it, plus 4 (`lossless::decompress` checks its
/// length field against that before allocating).
fn lossless_decode(stream: &[u8]) -> Result<(u8, Cow<'_, [u8]>), SzError> {
    let mut env = Reader::new(stream);
    if env.bytes(4)? != MAGIC {
        return Err(SzError::Corrupt("bad magic"));
    }
    let flags = env.u8()?;
    if flags & !(FLAG_LOSSLESS | FLAG_PACKED_TABLE) != 0 {
        return Err(SzError::Corrupt("unknown flags"));
    }
    let body = env.section()?;
    if env.remaining() != 0 {
        return Err(SzError::Corrupt("trailing bytes after body"));
    }
    let payload = if flags & FLAG_LOSSLESS != 0 {
        Cow::Owned(lossless::decompress(body).map_err(|_| SzError::Corrupt("lzss"))?)
    } else {
        Cow::Borrowed(body)
    };
    Ok((flags, payload))
}

// ---- The walks ----

/// Compress `data` shaped as `dims` (1–4 dimensions, slowest first), for
/// any supported element type.
pub fn compress_typed<T: Element>(
    data: &[T],
    dims: &[usize],
    cfg: &SzConfig,
) -> Result<Compressed, SzError> {
    compress_typed_with(data, dims, cfg, &mut SzScratch::new())
}

/// [`compress_typed`] with caller-provided scratch buffers. Repeated calls
/// reuse the scratch's allocations; the output stream is identical to a
/// fresh-scratch call.
///
/// The arithmetic is chosen here, once per call: the fast forms when
/// `kernels::fast_enabled()` and the quantizer's geometry lets them match
/// the reference (both write the same bytes, see `kernels`).
pub fn compress_typed_with<T: Element>(
    data: &[T],
    dims: &[usize],
    cfg: &SzConfig,
    s: &mut SzScratch<T>,
) -> Result<Compressed, SzError> {
    let pq = PredictQuantize::new(data, dims, cfg)?;
    if kernels::fast_enabled() && pq.q.fast_exact() {
        compress_walk::<T, true>(&pq, data, dims, cfg.lossless, s)
    } else {
        compress_walk::<T, false>(&pq, data, dims, cfg.lossless, s)
    }
}

/// The stage walk, forward: predict-quantize, entropy (the table stage
/// inside it), predict-quantize's sections, lossless.
fn compress_walk<T: Element, const FAST: bool>(
    pq: &PredictQuantize,
    data: &[T],
    dims: &[usize],
    lossless: bool,
    s: &mut SzScratch<T>,
) -> Result<Compressed, SzError> {
    let mut stats = CompressionStats {
        elements: pq.n as u64,
        input_bytes: (pq.n * T::BYTES) as u64,
        ..CompressionStats::default()
    };
    let mut p = Writer::new();
    pq.encode::<T, FAST>(data, dims, &mut p, &mut stats, s);
    let table_flag = entropy_encode::<T, FAST>(pq.q.alphabet_size(), lossless, &mut p, &mut stats, s)?;
    pq.encode_sections(&mut p, s);
    let bytes = lossless_encode(p.into_bytes(), table_flag, lossless);
    stats.output_bytes = bytes.len() as u64;
    if lcpio_trace::collecting() {
        lcpio_trace::counter_add("sz.elements", stats.elements);
        lcpio_trace::counter_add("sz.bytes_in", stats.input_bytes);
        lcpio_trace::counter_add("sz.bytes_out", stats.output_bytes);
        lcpio_trace::counter_add("sz.predictable", stats.predictable);
        lcpio_trace::counter_add("sz.literal_escapes", stats.unpredictable);
        lcpio_trace::counter_add("sz.regression_blocks", stats.regression_blocks);
        lcpio_trace::counter_add("sz.lorenzo_blocks", stats.lorenzo_blocks);
        lcpio_trace::counter_add("sz.huffman.table_entries", stats.huffman_table_entries);
        lcpio_trace::counter_add("sz.huffman.slots", s.huff.slots() as u64);
        lcpio_trace::counter_add("sz.huffman.bits", stats.huffman_bits);
    }
    Ok(Compressed { bytes, stats })
}

/// Compress an `f32` field (the paper's data type).
pub fn compress(data: &[f32], dims: &[usize], cfg: &SzConfig) -> Result<Compressed, SzError> {
    compress_typed(data, dims, cfg)
}

/// Compress an `f64` field.
pub fn compress_f64(data: &[f64], dims: &[usize], cfg: &SzConfig) -> Result<Compressed, SzError> {
    compress_typed(data, dims, cfg)
}

/// Element type tag recorded in a compressed stream (without decoding it).
pub fn stream_type_tag(stream: &[u8]) -> Result<u8, SzError> {
    let (_, payload) = lossless_decode(stream)?;
    Reader::new(&payload).u8()
}

/// The bytes of `stream` that hold its Huffman table: the symbol count,
/// then the dense lengths or the packed section behind its length, as the
/// decoding walk finds them. For tests and fuzzers that aim there without
/// restating the header layout. `None` for a stream that does not decode
/// and for one whose payload is under an LZSS layer (its table is then no
/// stretch of the stream's bytes).
pub fn table_range(stream: &[u8]) -> Option<Range<usize>> {
    match decompress_walk::<f32>(stream, &mut SzScratch::new()) {
        Err(SzError::TypeMismatch) => decompress_walk::<f64>(stream, &mut SzScratch::new()).ok()?.2,
        walk => walk.ok()?.2,
    }
}

/// Decompress a stream produced by [`compress_typed`]. Returns the values
/// and the dimensions recorded in the header. Fails with
/// [`SzError::TypeMismatch`] when the stream holds a different element
/// type.
pub fn decompress_typed<T: Element>(stream: &[u8]) -> Result<(Vec<T>, Vec<usize>), SzError> {
    decompress_typed_with(stream, &mut SzScratch::new())
}

/// [`decompress_typed`] with caller-provided scratch buffers. Repeated
/// calls reuse the scratch's allocations (symbol array, reconstruction
/// array, row partials); the output is identical to a fresh-scratch call.
///
/// The stages in reverse: the whole symbol stream is entropy-decoded into
/// the scratch ([`HuffmanDecoder::decode_into`]), then one loop per
/// predictor turns symbols into values, each written to the
/// reconstruction array the Lorenzo stencil reads (`f64`) and, narrowed,
/// to the output.
pub fn decompress_typed_with<T: Element>(
    stream: &[u8],
    s: &mut SzScratch<T>,
) -> Result<(Vec<T>, Vec<usize>), SzError> {
    let _span = lcpio_trace::span("sz.decompress");
    decompress_walk(stream, s).map(|(values, dims, _)| (values, dims))
}

/// The stage walk in reverse: lossless, predict-quantize's head, entropy
/// (the table stage inside it), predict-quantize. Also gives where the
/// table lies in `stream` when the payload is stored raw.
#[allow(clippy::type_complexity)]
fn decompress_walk<T: Element>(
    stream: &[u8],
    s: &mut SzScratch<T>,
) -> Result<(Vec<T>, Vec<usize>, Option<Range<usize>>), SzError> {
    let (flags, payload) = lossless_decode(stream)?;
    let mut r = Reader::new(&payload);
    let (pq, dims) = PredictQuantize::decode_head::<T>(&mut r)?;
    let table = entropy_decode(&mut r, flags, &pq.q, pq.n, &mut s.symbols)?;
    let values = pq.decode(&mut r, s)?;
    let raw = matches!(payload, Cow::Borrowed(_));
    Ok((values, dims, raw.then(|| ENVELOPE_LEN + table.start..ENVELOPE_LEN + table.end)))
}

/// Longest run of elements the reconstruct loops prepare at once (see
/// [`Reconstruct::addends`]); a full block fits.
const RUN: usize = 256;
const _: () = assert!(BLOCK_LEN <= RUN);

/// What the reconstruct loops work on: the literal section they pull
/// escaped values from in coding order, the reconstruction array (`f64`,
/// what predictions are made from) and the output (the same values
/// narrowed to `T`, written as they are produced).
///
/// Every value is `prediction + q.offset(symbol)`, the prediction's terms
/// summed in the encoder's order, or a literal: which is why the values
/// cannot move. The loops differ from one loop with the predictor chosen
/// per element only in what sits on the dependency chain: a symbol's
/// offset does not depend on the prediction, so it is worked out for a run
/// of elements beforehand ([`Reconstruct::addends`]), where the range and
/// escape tests are also made, once per run.
struct Reconstruct<'a, T> {
    q: Quantizer,
    g: Geom,
    literals: std::slice::ChunksExact<'a, u8>,
    recon: &'a mut [f64],
    out: &'a mut [T],
}

impl<T: Element> Reconstruct<'_, T> {
    /// Per element of a run of `symbols` in coding order, what it adds to
    /// its prediction; for an escape (symbol 0), the literal that is its
    /// value. A symbol the quantizer has no bin for is an error (the
    /// table's range check rules it out; the loops do not rely on that).
    fn addends(&mut self, symbols: &[u32], addend: &mut [f64]) -> Result<(), SzError> {
        let last_code = 2 * self.q.radius();
        let (mut escape, mut stray) = (false, false);
        for (a, &sym) in addend.iter_mut().zip(symbols) {
            escape |= sym == 0;
            stray |= sym > last_code;
            *a = self.q.offset(sym);
        }
        if stray {
            return Err(SzError::Corrupt("symbol out of range"));
        }
        if escape {
            for (a, _) in addend.iter_mut().zip(symbols).filter(|(_, &sym)| sym == 0) {
                let literal = self.literals.next().ok_or(SzError::Corrupt("literal underrun"))?;
                *a = T::read_le(literal).to_f64();
            }
        }
        Ok(())
    }

    /// Store the value of element `idx`.
    #[inline(always)]
    fn put(&mut self, idx: usize, v: f64) {
        self.recon[idx] = v;
        self.out[idx] = T::from_f64(v);
    }

    /// Rank-1 order-2 prediction, the two previous values carried in
    /// locals.
    fn order2(&mut self, symbols: &[u32]) -> Result<(), SzError> {
        let mut addend = [0.0f64; RUN];
        let (mut prev, mut prev2) = (0.0f64, 0.0f64);
        for (run, syms) in symbols.chunks(RUN).enumerate() {
            self.addends(syms, &mut addend)?;
            for (i, (&sym, &add)) in syms.iter().zip(&addend).enumerate() {
                let idx = run * RUN + i;
                let v = if sym == 0 {
                    add
                } else {
                    let pred = match idx {
                        0 => 0.0,
                        1 => prev,
                        _ => 2.0 * prev - prev2,
                    };
                    pred + add
                };
                self.put(idx, v);
                prev2 = prev;
                prev = v;
            }
        }
        Ok(())
    }

    /// Whole-array Lorenzo, row by row: the elementwise part of the
    /// stencil per row, then the serial scan.
    fn classic(&mut self, symbols: &[u32], rowp: &mut [f64]) -> Result<(), SzError> {
        let g = self.g;
        let mut addend = [0.0f64; RUN];
        for (row, row_syms) in symbols.chunks_exact(g.nx).enumerate() {
            lorenzo_3d_row_partial(self.recon, g.ny, g.nx, row / g.ny, row % g.ny, 0, g.nx, rowp);
            let mut left = 0.0;
            for (run, syms) in row_syms.chunks(RUN).enumerate() {
                self.addends(syms, &mut addend)?;
                let at = run * RUN;
                left = self.scan_row(row * g.nx + at, left, syms, &rowp[at..], &addend);
            }
        }
        Ok(())
    }

    /// The serial part of a Lorenzo row: `symbols.len()` values from index
    /// `at` on, each its row partial plus the value to its left (`left`
    /// for the first) plus its addend, or its literal. Returns the last.
    #[inline]
    fn scan_row(
        &mut self,
        at: usize,
        mut left: f64,
        symbols: &[u32],
        partial: &[f64],
        addend: &[f64],
    ) -> f64 {
        let recon = &mut self.recon[at..at + symbols.len()];
        let out = &mut self.out[at..at + symbols.len()];
        for ((((&sym, &partial), &add), r), o) in
            symbols.iter().zip(partial).zip(addend).zip(recon.iter_mut()).zip(out.iter_mut())
        {
            left = if sym == 0 { add } else { partial + left + add };
            *r = left;
            *o = T::from_f64(left);
        }
        left
    }

    /// Block-adaptive streams: the blocks in coding order, each with the
    /// loop of its predictor. A block's symbols are contiguous, so its
    /// addends are one run.
    fn blocks(
        &mut self,
        symbols: &[u32],
        block_flags: &[u8],
        coeff_bytes: &[u8],
        rowp: &mut [f64],
    ) -> Result<(), SzError> {
        let g = self.g;
        let b = BLOCK_SIDE;
        let blocks = |e: usize| e.div_ceil(b);
        let mut flags = BitReader::new(block_flags);
        let mut coeffs = coeff_bytes.chunks_exact(16);
        let mut addend = [0.0f64; BLOCK_LEN];
        let mut at = 0usize;
        for bk in 0..blocks(g.nz) {
            for bj in 0..blocks(g.ny) {
                for bi in 0..blocks(g.nx) {
                    let (k0, j0, i0) = (bk * b, bj * b, bi * b);
                    let (k1, j1, i1) = ((k0 + b).min(g.nz), (j0 + b).min(g.ny), (i0 + b).min(g.nx));
                    let r = BlockRange { k: (k0, k1), j: (j0, j1), i: (i0, i1) };
                    let len = (k1 - k0) * (j1 - j0) * (i1 - i0);
                    let syms = &symbols[at..at + len];
                    at += len;
                    self.addends(syms, &mut addend)?;
                    if flags.read_bit().map_err(|_| SzError::Corrupt("block flags"))? {
                        let c = coeffs.next().ok_or(SzError::Corrupt("coeff underrun"))?;
                        let c = [0, 4, 8, 12]
                            .map(|o| f32::from_le_bytes([c[o], c[o + 1], c[o + 2], c[o + 3]]));
                        self.regression_block(r, &BlockCoeffs { c }, syms, &addend);
                    } else if len == BLOCK_LEN && j0 > 0 && i0 > 0 {
                        let syms = syms.try_into().expect("a full block's symbols");
                        self.lorenzo_block_interior(r, syms, &addend);
                    } else {
                        self.lorenzo_block(r, syms, &addend, rowp);
                    }
                }
            }
        }
        Ok(())
    }

    /// A regression block: predictions come from the coefficients alone,
    /// so nothing is carried from one element to the next.
    fn regression_block(
        &mut self,
        r: BlockRange,
        coeffs: &BlockCoeffs,
        symbols: &[u32],
        addend: &[f64],
    ) {
        let g = self.g;
        let width = r.i.1 - r.i.0;
        let mut rows = symbols.chunks_exact(width).zip(addend.chunks_exact(width));
        for k in r.k.0..r.k.1 {
            for j in r.j.0..r.j.1 {
                let row = coeffs.row(j - r.j.0, k - r.k.0);
                let at = (k * g.ny + j) * g.nx + r.i.0;
                let (syms, adds) = rows.next().expect("one row of symbols per block row");
                for (i, (&sym, &add)) in syms.iter().zip(adds).enumerate() {
                    self.put(at + i, if sym == 0 { add } else { row.at(i) + add });
                }
            }
        }
    }

    /// A Lorenzo block, its rows taken by anti-diagonal (`k + j`
    /// ascending) instead of in storage order. A row's prediction reads
    /// the row above it and the two rows in the plane behind, which lie on
    /// the two diagonals before its own, so every row still comes after
    /// all it is predicted from and gets the very values the storage order
    /// gives it. What the order buys: the rows of one diagonal do not
    /// depend on each other, so their serial scans (two dependent adds per
    /// element) overlap in the pipeline, where consecutive rows in storage
    /// order each wait for the one before.
    fn lorenzo_block(&mut self, r: BlockRange, symbols: &[u32], addend: &[f64], rowp: &mut [f64]) {
        let g = self.g;
        let (nk, nj, ni) = (r.k.1 - r.k.0, r.j.1 - r.j.0, r.i.1 - r.i.0);
        for diagonal in 0..nk + nj - 1 {
            for k in diagonal.saturating_sub(nj - 1)..=diagonal.min(nk - 1) {
                let j = diagonal - k;
                let (gk, gj) = (r.k.0 + k, r.j.0 + j);
                lorenzo_3d_row_partial(self.recon, g.ny, g.nx, gk, gj, r.i.0, r.i.1, rowp);
                let at = (gk * g.ny + gj) * g.nx + r.i.0;
                let left = if r.i.0 > 0 { self.recon[at - 1] } else { 0.0 };
                let done = (k * nj + j) * ni;
                let row = done..done + ni;
                self.scan_row(at, left, &symbols[row.clone()], rowp, &addend[row]);
            }
        }
    }

    /// [`Reconstruct::lorenzo_block`] for a full block with a row above
    /// and a column to its left — nearly all of a field's blocks — with
    /// every extent a constant: the row partials ([`lorenzo_3d_row_partial`]'s
    /// operations on `BLOCK_SIDE + 1` columns) and the scan work on fixed
    /// arrays, unrolled and free of bounds checks.
    ///
    /// Out of line on purpose: inlined into [`Reconstruct::blocks`] and on
    /// into `decompress_typed_with`, its row loop shares registers with
    /// everything there and spills (the reconstruct stage then takes half
    /// as long again).
    #[inline(never)]
    fn lorenzo_block_interior(
        &mut self,
        r: BlockRange,
        symbols: &[u32; BLOCK_LEN],
        addend: &[f64; BLOCK_LEN],
    ) {
        const B: usize = BLOCK_SIDE;
        let g = self.g;
        let plane = g.ny * g.nx;
        // Row `at - 1..at + B` of the reconstruction: a block row with the
        // column to its left.
        fn wide(recon: &[f64], at: usize) -> &[f64; B + 1] {
            recon[at - 1..at + B].try_into().expect("B + 1 columns")
        }
        for diagonal in 0..2 * B - 1 {
            for k in diagonal.saturating_sub(B - 1)..=diagonal.min(B - 1) {
                let j = diagonal - k;
                let at = ((r.k.0 + k) * g.ny + r.j.0 + j) * g.nx + r.i.0;
                let above = wide(self.recon, at - g.nx);
                let partial: [f64; B] = if r.k.0 + k > 0 {
                    let behind = wide(self.recon, at - plane);
                    let behind_above = wide(self.recon, at - plane - g.nx);
                    let sum: [f64; B + 1] =
                        std::array::from_fn(|i| above[i] + behind[i] - behind_above[i]);
                    std::array::from_fn(|i| sum[i + 1] - sum[i])
                } else {
                    std::array::from_fn(|i| above[i + 1] - above[i])
                };
                let done = (k * B + j) * B;
                let mut left = self.recon[at - 1];
                let values: [f64; B] = std::array::from_fn(|i| {
                    let (sym, add) = (symbols[done + i], addend[done + i]);
                    left = if sym == 0 { add } else { partial[i] + left + add };
                    left
                });
                self.recon[at..at + B].copy_from_slice(&values);
                self.out[at..at + B].copy_from_slice(&values.map(T::from_f64));
            }
        }
    }
}

/// Decompress an `f32` stream.
pub fn decompress(stream: &[u8]) -> Result<(Vec<f32>, Vec<usize>), SzError> {
    decompress_typed(stream)
}

/// Decompress an `f64` stream.
pub fn decompress_f64(stream: &[u8]) -> Result<(Vec<f64>, Vec<usize>), SzError> {
    decompress_typed(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{
        field_f32, fnv64, pinned_cases, pinned_field_f32, pinned_field_f64, salted_field, special32,
    };
    use crate::huffman::{canonical_codes, code_lengths, ReferenceDecoder};
    use crate::pwrel::{
        build_pointwise_rel, compress_pointwise_rel, decompress_pointwise_rel, parse_pointwise_rel,
        PwrelParts,
    };
    use crate::regression::fit_block_reference;
    use proptest::prelude::*;

    fn flags_of(stream: &[u8]) -> u8 {
        stream[4]
    }

    /// The legacy writer: the stream the encoder wrote for a lossless-on
    /// configuration before the table could be packed and before the
    /// matcher strode, rebuilt from `raw`, the stream of the same input
    /// with the lossless back end off (the dense payload, which has not
    /// changed). The reference matcher without the stride rule over the
    /// whole payload, kept when it is smaller.
    fn legacy_form(raw: &[u8]) -> Vec<u8> {
        assert_eq!(flags_of(raw), 0, "a lossless-off stream sets no flag");
        let payload = &raw[ENVELOPE_LEN..];
        let z = lossless::compress_reference(payload, false);
        if z.len() < payload.len() {
            [&MAGIC[..], &[FLAG_LOSSLESS], &(z.len() as u64).to_le_bytes(), &z].concat()
        } else {
            raw.to_vec()
        }
    }

    /// What `cfg` wrote for `data` before this format revision.
    fn legacy_stream<T: Element>(data: &[T], dims: &[usize], cfg: &SzConfig) -> Vec<u8> {
        let raw = compress_typed(data, dims, &cfg.with_lossless(false)).unwrap().bytes;
        if cfg.lossless {
            legacy_form(&raw)
        } else {
            raw
        }
    }

    fn le_bits<T: Element>(values: &[T]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for v in values {
            v.write_le(&mut bytes);
        }
        bytes
    }

    /// The legacy stream of `data` hashes to `pin`, decodes through the
    /// production decoder, and restores the values of today's stream bit
    /// for bit; today's stream is no larger. Returns today's flags byte.
    fn assert_legacy_pin<T: Element>(
        data: &[T],
        dims: &[usize],
        cfg: &SzConfig,
        pin: (usize, u64),
        what: &str,
    ) -> u8 {
        let legacy = legacy_stream(data, dims, cfg);
        assert_eq!((legacy.len(), fnv64(&legacy)), pin, "{what}: the legacy writer drifted");
        let new = compress_typed(data, dims, cfg).unwrap().bytes;
        let (old_values, old_dims) = decompress_typed::<T>(&legacy).expect("legacy stream decodes");
        let (new_values, new_dims) = decompress_typed::<T>(&new).expect("new stream decodes");
        assert_eq!(old_dims, new_dims, "{what}");
        assert_eq!(le_bits(&old_values), le_bits(&new_values), "{what}: values differ");
        assert!(new.len() <= legacy.len(), "{what}: {} grew to {}", legacy.len(), new.len());
        if !cfg.lossless {
            assert_eq!(new, legacy, "{what}: a lossless-off stream changed");
        }
        flags_of(&new)
    }

    #[test]
    fn legacy_streams_keep_their_hashes_and_restore_the_same_values() {
        // `crates/sz/tests/format_regression.rs` as it stood before the
        // packed table: same cases, same fields, the hashes it pinned then.
        const F32_LEGACY: [(usize, u64); 8] = [
            (1474, 0x0b0309fc53ac5be1),
            (1409, 0x9fdaeecd243a8a0f),
            (5903, 0x1bdaa0997fef96ce),
            (26857, 0xb11a0ea539ab285a),
            (19961, 0x601ec97a8dcf50c8),
            (74689, 0x2aed0cf73c1b7ce8),
            (1636, 0x91c2223b11df54df),
            (1235, 0x87bf1391edd3488b),
        ];
        const F64_LEGACY: [(usize, u64); 8] = [
            (1525, 0x1261634bde1d8502),
            (1419, 0x1ebb3a8c14a9b405),
            (6214, 0x71ecd856dbaf7552),
            (32902, 0x9a0f08e18388e23d),
            (21561, 0xb997cc275be17f2d),
            (100907, 0xa194a25cfbfcaee6),
            (2333, 0xe427dc5c54964d7d),
            (1260, 0xbd29894dd90bbddb),
        ];
        for (i, (dims, cfg)) in pinned_cases().iter().enumerate() {
            let what = format!("f32 case {i} ({dims:?})");
            assert_legacy_pin(&pinned_field_f32(i, dims), dims, cfg, F32_LEGACY[i], &what);
            let what = format!("f64 case {i} ({dims:?})");
            assert_legacy_pin(&pinned_field_f64(i, dims), dims, cfg, F64_LEGACY[i], &what);
        }
        // The large default-path field of `tests/format_regression.rs`.
        let dims = [64usize, 48, 96];
        let data = field_f32(dims.iter().product(), 0xf00d);
        let cfg = SzConfig::new(ErrorBound::Absolute(1e-3));
        assert_legacy_pin(&data, &dims, &cfg, (1239326, 0xa14fe20444c14883), "large 3-D");

        // `SZPR`: the wrapper around a legacy inner stream.
        let data: Vec<f32> = field_f32(900, 0xfeed)
            .into_iter()
            .map(|v| if v == 0.0 { 0.0 } else { v * v + 0.5 })
            .collect();
        let cfg = SzConfig::new(ErrorBound::Absolute(1.0));
        let raw = compress_pointwise_rel(&data, &[30, 30], 1e-3, &cfg.with_lossless(false)).unwrap();
        let parts = parse_pointwise_rel(&raw.bytes).unwrap();
        let legacy = build_pointwise_rel(&PwrelParts { inner: &legacy_form(parts.inner), ..parts });
        assert_eq!((legacy.len(), fnv64(&legacy)), (4719, 0x130883166a901ebc), "legacy SZPR");
        let new = compress_pointwise_rel(&data, &[30, 30], 1e-3, &cfg).unwrap().bytes;
        let (old_values, _) = decompress_pointwise_rel::<f32>(&legacy).unwrap();
        let (new_values, _) = decompress_pointwise_rel::<f32>(&new).unwrap();
        assert_eq!(le_bits(&old_values), le_bits(&new_values));
        assert!(new.len() < legacy.len());
    }

    #[test]
    fn a_stream_that_gains_from_neither_part_is_the_legacy_stream() {
        // A table too short to pack and a payload with no 32-miss streak:
        // byte for byte what was written before.
        let flat = vec![1.0f32; 24 * 24 * 24];
        let dims = [24usize, 24, 24];
        let cfg = SzConfig::new(ErrorBound::Absolute(1e-3));
        let new = compress_typed(&flat, &dims, &cfg).unwrap().bytes;
        assert_eq!(flags_of(&new), FLAG_LOSSLESS);
        assert_eq!(new, legacy_stream(&flat, &dims, &cfg));
    }

    /// One chunk (12 planes) of the NYX cube the default-path pins use.
    fn nyx_chunk(chunk: usize) -> (Vec<f32>, [usize; 3]) {
        let field = lcpio_datagen::nyx::velocity_x(48, 11);
        let plane = 48 * 48;
        (field.data[chunk * 12 * plane..(chunk + 1) * 12 * plane].to_vec(), [12, 48, 48])
    }

    /// Stages 1 and 2 of the encoder on `data`, into a fresh scratch, under
    /// the fast arithmetic: the predict-quantize stage, the scratch, and
    /// the entropy stage's code.
    fn quantize_and_code<T: Element>(
        data: &[T],
        dims: &[usize],
        cfg: &SzConfig,
    ) -> (PredictQuantize, SzScratch<T>, CodeTable) {
        let pq = PredictQuantize::new(data, dims, cfg).unwrap();
        let mut s = SzScratch::new();
        pq.encode::<T, true>(data, dims, &mut Writer::new(), &mut CompressionStats::default(), &mut s);
        let code = huffman_code::<T, true>(pq.q.alphabet_size(), &mut s).unwrap();
        (pq, s, code)
    }

    #[test]
    fn nyx_chunk_tables_pack_to_less_and_unpack_to_themselves() {
        for chunk in 0..4 {
            let (data, dims) = nyx_chunk(chunk);
            for eb in [1e-1, 1e-2, 1e-3, 1e-4] {
                let cfg = SzConfig::new(ErrorBound::Absolute(eb));
                let (_, _, (_, dense, _)) = quantize_and_code(&data, &dims, &cfg);
                // The table stage, both forms, there and back: the flag,
                // the bytes, the same lengths.
                for lossless in [false, true] {
                    let mut p = Writer::new();
                    let flag = table::encode(&dense, lossless, &mut p);
                    let bytes = p.into_bytes();
                    let mut r = Reader::new(&bytes);
                    assert_eq!(table::decode(&mut r, flag, dense.len()).unwrap(), &dense[..]);
                    assert_eq!(r.remaining(), 0);
                    if lossless {
                        assert_eq!(flag, FLAG_PACKED_TABLE);
                        assert!(bytes.len() < dense.len() / 2, "chunk {chunk} eb {eb:e}");
                    } else {
                        assert_eq!((flag, &bytes[..]), (0, &dense[..]));
                    }
                }
                // The stream with the packed table: the flag, the same
                // values out.
                let raw = compress_typed(&data, &dims, &cfg.with_lossless(false)).unwrap().bytes;
                let new = compress_typed(&data, &dims, &cfg).unwrap().bytes;
                assert_eq!(flags_of(&new), FLAG_PACKED_TABLE, "chunk {chunk} eb {eb:e}");
                let (old_values, _) = decompress_typed::<f32>(&raw).unwrap();
                let (new_values, _) = decompress_typed::<f32>(&new).unwrap();
                assert_eq!(le_bits(&old_values), le_bits(&new_values));
            }
        }
    }

    #[test]
    fn unknown_flag_bits_are_rejected() {
        let data: Vec<f32> = (0..512).map(|i| (i as f32 * 0.02).sin()).collect();
        for lossless in [false, true] {
            let cfg = SzConfig::new(ErrorBound::Absolute(1e-3)).with_lossless(lossless);
            let good = compress(&data, &[512], &cfg).unwrap().bytes;
            assert!(decompress(&good).is_ok());
            for bit in 2..8 {
                let mut bad = good.clone();
                bad[4] |= 1 << bit;
                assert_eq!(decompress(&bad).unwrap_err(), SzError::Corrupt("unknown flags"));
                assert_eq!(stream_type_tag(&bad).unwrap_err(), SzError::Corrupt("unknown flags"));
            }
        }
        // So is a predictor byte other than 0 and 1, in either mode: it is
        // never read as classic Lorenzo. Behind the envelope, the type tag
        // and two dims.
        const PREDICTOR_AT: usize = ENVELOPE_LEN + 1 + 1 + 2 * 8;
        for (mode, byte) in [(PredictorMode::Lorenzo, 0), (PredictorMode::BlockAdaptive, 1)] {
            let cfg = SzConfig::new(ErrorBound::Absolute(1e-3)).with_mode(mode).with_lossless(false);
            let good = compress(&data, &[16, 32], &cfg).unwrap().bytes;
            assert_eq!((flags_of(&good), good[PREDICTOR_AT]), (0, byte));
            for forged in 2..=u8::MAX {
                let mut bad = good.clone();
                bad[PREDICTOR_AT] = forged;
                assert_eq!(decompress(&bad).unwrap_err(), SzError::Corrupt("unknown predictor"));
            }
        }
    }

    #[test]
    fn bytes_after_the_body_or_the_payload_are_rejected() {
        // A payload stored raw, and one under LZSS.
        let sine: Vec<f32> = (0..512).map(|i| (i as f32 * 0.02).sin()).collect();
        let flat = vec![1.0f32; 512];
        for (data, lossless, inner) in [
            (&sine, false, "trailing bytes after sections"),
            (&flat, true, "lzss"),
        ] {
            let cfg = SzConfig::new(ErrorBound::Absolute(1e-3)).with_lossless(lossless);
            let good = compress(data, &[512], &cfg).unwrap().bytes;
            assert_eq!(flags_of(&good) & FLAG_LOSSLESS, lossless as u8);
            // A byte after the body.
            let mut bad = good.clone();
            bad.push(0);
            assert_eq!(decompress(&bad).unwrap_err(), SzError::Corrupt("trailing bytes after body"));
            assert_eq!(stream_type_tag(&bad).unwrap_err(), SzError::Corrupt("trailing bytes after body"));
            // The body a byte longer: a byte after the payload's last
            // section, or after the last LZSS token.
            let mut bad = good.clone();
            let body_len = u64::from_le_bytes(bad[5..ENVELOPE_LEN].try_into().unwrap());
            bad[5..ENVELOPE_LEN].copy_from_slice(&(body_len + 1).to_le_bytes());
            bad.push(0);
            assert_eq!(decompress(&bad).unwrap_err(), SzError::Corrupt(inner));
        }
    }

    #[test]
    fn predict_quantize_stage_round_trips() {
        // The head and the sections there and back, and the encoder's own
        // symbols reconstructed: the values it reconstructed, narrowed, to
        // the bit. Both modes and arithmetics, escapes included.
        let mut escapes = 0;
        for (dims, eb) in [(vec![13usize, 20, 19], 1e-3), (vec![40, 50], 1e-1), (vec![1000], 1e-5)] {
            let data = mixed_field(&dims, 0x9e37_79b9);
            for mode in [PredictorMode::BlockAdaptive, PredictorMode::Lorenzo] {
                let pq = PredictQuantize::new(&data, &dims, &SzConfig::new(ErrorBound::Absolute(eb)).with_mode(mode))
                    .unwrap();
                for fast in [true, false] {
                    let (mut p, mut s, mut stats) = (Writer::new(), SzScratch::new(), CompressionStats::default());
                    if fast {
                        pq.encode::<f32, true>(&data, &dims, &mut p, &mut stats, &mut s);
                    } else {
                        pq.encode::<f32, false>(&data, &dims, &mut p, &mut stats, &mut s);
                    }
                    pq.encode_sections(&mut p, &mut s);
                    escapes += stats.unpredictable;
                    let want: Vec<f32> = s.recon.iter().map(|&v| v as f32).collect();
                    let bytes = p.into_bytes();
                    let mut r = Reader::new(&bytes);
                    let (back, back_dims) = PredictQuantize::decode_head::<f32>(&mut r).unwrap();
                    assert_eq!((&back_dims, back.block_mode, back.n), (&dims, pq.block_mode, pq.n));
                    let values = back.decode(&mut r, &mut s).unwrap();
                    assert_eq!(le_bits(&values), le_bits(&want), "{dims:?} {mode:?} fast={fast}");
                }
            }
        }
        assert!(escapes > 0);
    }

    #[test]
    fn entropy_stage_round_trips() {
        // The table stage inside it in both forms: the symbols come back,
        // and the table lies behind the first coded symbol.
        let (data, dims) = nyx_chunk(1);
        for lossless in [false, true] {
            let cfg = SzConfig::new(ErrorBound::Absolute(1e-3)).with_lossless(lossless);
            let (pq, mut s, _) = quantize_and_code(&data, &dims, &cfg);
            let (mut p, mut stats) = (Writer::new(), CompressionStats::default());
            let flag = entropy_encode::<f32, true>(pq.q.alphabet_size(), lossless, &mut p, &mut stats, &mut s).unwrap();
            assert_eq!(flag, if lossless { FLAG_PACKED_TABLE } else { 0 });
            let bytes = p.into_bytes();
            let (mut r, mut symbols) = (Reader::new(&bytes), Vec::new());
            let table = entropy_decode(&mut r, flag, &pq.q, pq.n, &mut symbols).unwrap();
            assert_eq!((symbols, r.remaining(), table.start), (s.symbols, 0, 4));
            assert_eq!(bytes.len(), table.end + 8 + (stats.huffman_bits as usize).div_ceil(8) + 8);
        }
    }

    #[test]
    fn lossless_stage_round_trips() {
        // Runs LZSS shrinks, noise it cannot, and the stage off: the flags
        // byte says which body was kept, and the payload comes back.
        let runs = vec![7u8; 5000];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let noise: Vec<u8> = (0..5000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for (payload, on, lzss) in [(&runs, true, true), (&noise, true, false), (&runs, false, false)] {
            let stream = lossless_encode(payload.clone(), FLAG_PACKED_TABLE, on);
            let flags = FLAG_PACKED_TABLE | if lzss { FLAG_LOSSLESS } else { 0 };
            assert_eq!(flags_of(&stream), flags);
            let (back_flags, back) = lossless_decode(&stream).unwrap();
            assert_eq!((back_flags, &back[..]), (flags, &payload[..]));
            assert_eq!(matches!(back, Cow::Borrowed(_)), !lzss);
        }
    }

    #[test]
    fn table_flag_and_table_form_must_agree() {
        let (data, dims) = nyx_chunk(1);
        let cfg = SzConfig::new(ErrorBound::Absolute(1e-3));
        let packed = compress_typed(&data, &dims, &cfg).unwrap().bytes;
        let dense = compress_typed(&data, &dims, &cfg.with_lossless(false)).unwrap().bytes;
        assert_eq!((flags_of(&packed), flags_of(&dense)), (FLAG_PACKED_TABLE, 0));
        let corrupt = |stream: &[u8]| match decompress_typed::<f32>(stream) {
            Err(SzError::Corrupt(_)) => {}
            other => panic!("expected a corrupt-stream error, got {:?}", other.map(|(v, _)| v.len())),
        };
        // The flag on a dense table, and a packed table without it.
        let mut forged = dense.clone();
        forged[4] = FLAG_PACKED_TABLE;
        corrupt(&forged);
        let mut forged = packed.clone();
        forged[4] = 0;
        corrupt(&forged);
        // Where the header parse finds the table: the count, the section's
        // length, the section. The same table dense: the count and a byte
        // per symbol. Under an LZSS layer it is no range of the stream.
        let table = table_range(&packed).expect("no LZSS layer");
        let at = table.start + 4;
        let count = u32::from_le_bytes(packed[at - 4..at].try_into().unwrap());
        let len = u64::from_le_bytes(packed[at..at + 8].try_into().unwrap());
        assert_eq!(table.end, at + 8 + len as usize);
        assert_eq!(table_range(&dense), Some(table.start..at + count as usize));
        let flat = compress_typed(&vec![1.0f32; 4096], &[4096], &cfg).unwrap().bytes;
        assert_eq!((flags_of(&flat) & FLAG_LOSSLESS, table_range(&flat)), (FLAG_LOSSLESS, None));
        // A section length that lies, by a byte either way and by a lot.
        for lie in [len - 1, len + 1, len / 2, u64::MAX, 0] {
            let mut forged = packed.clone();
            forged[at..at + 8].copy_from_slice(&lie.to_le_bytes());
            corrupt(&forged);
        }
        // A count the section does not hold, within the alphabet.
        for lie in [count - 1, count + 1, 1] {
            let mut forged = packed.clone();
            forged[at - 4..at].copy_from_slice(&lie.to_le_bytes());
            assert!(decompress_typed::<f32>(&forged).is_err(), "count {count} forged to {lie}");
        }
        // And one beyond it: refused before anything is unpacked.
        let mut forged = packed.clone();
        forged[at - 4..at].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decompress_typed::<f32>(&forged).unwrap_err(),
            SzError::Corrupt("symbol range out of alphabet")
        );
    }

    /// The block encoder `encode_blocks` replaced, kept as its executable
    /// specification: one loop nest for both predictors, every block row
    /// by row in storage order, the regression error summed to the end and
    /// the hyperplane spelled out per element.
    fn encode_blocks_reference<T: Element, const FAST: bool>(
        data: &[T],
        g: Geom,
        q: &Quantizer,
        s: &mut SzScratch<T>,
    ) -> (u64, u64) {
        s.recon.clear();
        s.recon.resize(data.len(), 0.0);
        s.rowp.clear();
        s.rowp.resize(g.nx.min(BLOCK_SIDE), 0.0);
        let (mut regression_blocks, mut lorenzo_blocks) = (0u64, 0u64);
        let b = BLOCK_SIDE;
        let blocks = |e: usize| e.div_ceil(b);
        for bk in 0..blocks(g.nz) {
            for bj in 0..blocks(g.ny) {
                for bi in 0..blocks(g.nx) {
                    let (k0, j0, i0) = (bk * b, bj * b, bi * b);
                    let (k1, j1, i1) =
                        ((k0 + b).min(g.nz), (j0 + b).min(g.ny), (i0 + b).min(g.nx));
                    let (nk, nj, ni) = (k1 - k0, j1 - j0, i1 - i0);
                    s.vals.clear();
                    for k in k0..k1 {
                        for j in j0..j1 {
                            let row = (k * g.ny + j) * g.nx;
                            s.vals.extend(data[row + i0..row + i1].iter().map(|v| v.to_f64()));
                        }
                    }
                    let coeffs = fit_block_reference(&s.vals, nk, nj, ni);
                    let predict = |i: usize, j: usize, k: usize| {
                        coeffs.c[0] as f64
                            + coeffs.c[1] as f64 * i as f64
                            + coeffs.c[2] as f64 * j as f64
                            + coeffs.c[3] as f64 * k as f64
                    };
                    let mut reg_err = 0.0;
                    for (n, v) in s.vals.iter().enumerate() {
                        reg_err += (v - predict(n % ni, n / ni % nj, n / (ni * nj))).abs();
                    }
                    reg_err /= s.vals.len() as f64;
                    let range = BlockRange { k: (k0, k1), j: (j0, j1), i: (i0, i1) };
                    let lor_err = lorenzo_probe_error(data, g, range);
                    let use_reg = reg_err < lor_err;
                    s.block_bits.push_bit(use_reg);
                    if use_reg {
                        regression_blocks += 1;
                        s.coeffs.extend_from_slice(&coeffs.c);
                    } else {
                        lorenzo_blocks += 1;
                    }
                    for k in k0..k1 {
                        for j in j0..j1 {
                            if !use_reg {
                                lorenzo_3d_row_partial(
                                    &s.recon, g.ny, g.nx, k, j, i0, i1, &mut s.rowp,
                                );
                            }
                            for i in i0..i1 {
                                let idx = (k * g.ny + j) * g.nx + i;
                                let pred = if use_reg {
                                    predict(i - i0, j - j0, k - k0)
                                } else {
                                    let left = if i > 0 { s.recon[idx - 1] } else { 0.0 };
                                    s.rowp[i - i0] + left
                                };
                                s.recon[idx] = encode_one::<T, FAST>(
                                    q,
                                    pred,
                                    data[idx],
                                    &mut s.symbols,
                                    &mut s.literals,
                                );
                            }
                        }
                    }
                }
            }
        }
        (regression_blocks, lorenzo_blocks)
    }

    /// The decode loop `decompress_typed_with` replaced, kept as its
    /// executable specification: behind the same envelope, head and table
    /// reads, the rest of the layout read here, then one symbol at a time
    /// through the reference Huffman walk, the predictor chosen and the
    /// escape and range tests made per element, rows in storage order, the
    /// output narrowed in a second pass.
    fn decompress_reference<T: Element>(stream: &[u8]) -> Result<(Vec<T>, Vec<usize>), SzError> {
        const CORRUPT: SzError = SzError::Corrupt("reference");
        let (flags, payload) = lossless_decode(stream)?;
        let mut r = Reader::new(&payload);
        let (PredictQuantize { g, block_mode, order, q, n }, dims) = PredictQuantize::decode_head::<T>(&mut r)?;
        let (first_symbol, count) = (r.u32()? as usize, r.u32()? as usize);
        if first_symbol.checked_add(count).is_none_or(|end| end > q.alphabet_size()) {
            return Err(CORRUPT);
        }
        let code_lens = table::decode(&mut r, flags, count)?;
        let (_bit_count, sym_bytes, lit_bytes) = (r.u64()?, r.section()?, r.section()?);
        let (block_flags, coeff_bytes) = if block_mode { (r.section()?, r.section()?) } else { (&[][..], &[][..]) };
        if lit_bytes.len() % T::BYTES != 0 || coeff_bytes.len() % 16 != 0 || r.remaining() != 0 {
            return Err(CORRUPT);
        }
        let mut all_lens = vec![0u8; q.alphabet_size()];
        all_lens[first_symbol..first_symbol + code_lens.len()].copy_from_slice(&code_lens);
        let dec = ReferenceDecoder::from_lengths(&all_lens)
            .map_err(|_| SzError::Corrupt("huffman table"))?;
        let literals: Vec<T> = lit_bytes.chunks_exact(T::BYTES).map(T::read_le).collect();
        let block_bit_bytes = block_flags;
        let coeff_vals: Vec<f32> = coeff_bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();

        let mut sym_reader = BitReader::new(sym_bytes);
        let mut lit_iter = literals.iter();
        let mut recon = vec![0.0f64; n];
        let mut rowp = vec![0.0f64; if block_mode { g.nx.min(BLOCK_SIDE) } else { g.nx }];
        let mut next_value = |pred: f64, recon_slot: &mut f64| -> Result<(), SzError> {
            let sym = dec.decode(&mut sym_reader).map_err(|_| SzError::Corrupt("symbol stream"))?;
            if sym == 0 {
                let lit = lit_iter.next().ok_or(SzError::Corrupt("literal underrun"))?;
                *recon_slot = lit.to_f64();
            } else {
                if !q.is_code(sym) {
                    return Err(SzError::Corrupt("symbol out of range"));
                }
                *recon_slot = q.reconstruct(pred, sym);
            }
            Ok(())
        };

        if block_mode {
            let b = BLOCK_SIDE;
            let blocks = |e: usize| e.div_ceil(b);
            let mut flag_reader = BitReader::new(block_bit_bytes);
            let mut coeff_idx = 0usize;
            for bk in 0..blocks(g.nz) {
                for bj in 0..blocks(g.ny) {
                    for bi in 0..blocks(g.nx) {
                        let (k0, j0, i0) = (bk * b, bj * b, bi * b);
                        let (k1, j1, i1) =
                            ((k0 + b).min(g.nz), (j0 + b).min(g.ny), (i0 + b).min(g.nx));
                        let use_reg =
                            flag_reader.read_bit().map_err(|_| SzError::Corrupt("block flags"))?;
                        let coeffs = if use_reg {
                            if coeff_idx + 4 > coeff_vals.len() {
                                return Err(SzError::Corrupt("coeff underrun"));
                            }
                            let c: [f32; 4] =
                                coeff_vals[coeff_idx..coeff_idx + 4].try_into().unwrap();
                            coeff_idx += 4;
                            Some(BlockCoeffs { c })
                        } else {
                            None
                        };
                        for k in k0..k1 {
                            for j in j0..j1 {
                                match &coeffs {
                                    Some(c) => {
                                        for i in i0..i1 {
                                            let idx = (k * g.ny + j) * g.nx + i;
                                            let pred = c.predict(i - i0, j - j0, k - k0);
                                            next_value(pred, &mut recon[idx])?;
                                        }
                                    }
                                    None => {
                                        lorenzo_3d_row_partial(
                                            &recon, g.ny, g.nx, k, j, i0, i1, &mut rowp,
                                        );
                                        for i in i0..i1 {
                                            let idx = (k * g.ny + j) * g.nx + i;
                                            let left = if i > 0 { recon[idx - 1] } else { 0.0 };
                                            next_value(rowp[i - i0] + left, &mut recon[idx])?;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        } else if g.rank == 1 && order == 2 {
            let mut prev = 0.0f64;
            let mut prev2 = 0.0f64;
            for (idx, r) in recon.iter_mut().enumerate() {
                let pred = match idx {
                    0 => 0.0,
                    1 => prev,
                    _ => 2.0 * prev - prev2,
                };
                next_value(pred, r)?;
                prev2 = prev;
                prev = *r;
            }
        } else {
            let mut idx = 0usize;
            for k in 0..g.nz {
                for j in 0..g.ny {
                    lorenzo_3d_row_partial(&recon, g.ny, g.nx, k, j, 0, g.nx, &mut rowp);
                    for (i, &rp) in rowp.iter().enumerate() {
                        let left = if i > 0 { recon[idx - 1] } else { 0.0 };
                        next_value(rp + left, &mut recon[idx])?;
                        idx += 1;
                    }
                }
            }
        }
        Ok((recon.iter().map(|&v| T::from_f64(v)).collect(), dims))
    }

    /// The new decoder against the reference on one stream, with a fresh
    /// scratch and with one that an unrelated, larger decode has left full
    /// of stale values: equal dims and equal values bit for bit, or an
    /// error from both. `valid` says the stream is as the encoder wrote
    /// it. A damaged one can make either decoder add NaNs to NaNs, which
    /// no encoder output does (a NaN prediction always escapes); the
    /// payload such a sum carries is the compiler's choice of operand
    /// order, so there a NaN only has to meet a NaN.
    fn assert_decode_matches_reference<T: Element>(
        stream: &[u8],
        stale: &mut SzScratch<T>,
        valid: bool,
    ) {
        let bits = |x: &T| {
            let mut b = Vec::new();
            x.write_le(&mut b);
            b
        };
        let want = decompress_reference::<T>(stream).ok();
        assert!(want.is_some() || !valid, "the reference refuses an encoder's stream");
        for scratch in [&mut SzScratch::new(), stale] {
            let got = decompress_typed_with::<T>(stream, scratch).ok();
            match (&got, &want) {
                (Some((values, dims)), Some((ref_values, ref_dims))) => {
                    assert_eq!(dims, ref_dims);
                    assert_eq!(values.len(), ref_values.len());
                    for (i, (v, r)) in values.iter().zip(ref_values).enumerate() {
                        let both_nan = v.to_f64().is_nan() && r.to_f64().is_nan();
                        assert!(
                            bits(v) == bits(r) || (!valid && both_nan),
                            "element {i} of {dims:?}: {v:?} ({:?}), reference {r:?} ({:?})",
                            bits(v),
                            bits(r)
                        );
                    }
                }
                (None, None) => {}
                _ => panic!("new decoder ok: {}, reference ok: {}", got.is_some(), want.is_some()),
            }
        }
    }

    /// A scratch whose decode-side buffers hold the leftovers of a field
    /// larger than anything the tests below decode, none of it zero.
    fn stale_scratch<T: Element>() -> SzScratch<T> {
        let dims = [9usize, 26, 27];
        let data: Vec<T> = (0..dims.iter().product::<usize>())
            .map(|i| T::from_f64(1.0e5 + (i as f64 * 0.37).sin() * 3.0e4))
            .collect();
        let cfg = SzConfig::new(ErrorBound::Absolute(1e-2));
        let out = compress_typed(&data, &dims, &cfg).unwrap();
        let mut scratch = SzScratch::new();
        decompress_typed_with::<T>(&out.bytes, &mut scratch).unwrap();
        scratch
    }

    /// Shapes of rank 1 to 4 over `n0·n1·n2` elements; the extents are not
    /// multiples of `BLOCK_SIDE` more often than they are.
    fn shape(rank: usize, n0: usize, n1: usize, n2: usize) -> Vec<usize> {
        match rank {
            1 => vec![n0 * n1 * n2],
            2 => vec![n0 * n1, n2],
            3 => vec![n0, n1, n2],
            _ => vec![n0.div_ceil(2), 2, n1, n2],
        }
    }

    #[test]
    fn decoder_matches_reference_on_mixed_fields() {
        // Regression and Lorenzo blocks, full interior blocks and every
        // partial extent, first-plane blocks, literals (NaN, Inf, -0.0),
        // 2-D and fused 4-D geometry, the classic and the rank-1 loops.
        let (mut stale32, mut stale64) = (stale_scratch::<f32>(), stale_scratch::<f64>());
        for (dims, eb) in [
            (vec![13usize, 20, 19], 1e-3),
            (vec![12, 18, 18], 1e-2),
            (vec![6, 12, 12], 1e-5),
            (vec![7, 6, 25], 1e-1),
            (vec![40, 50], 1e-3),
            (vec![2, 7, 13, 14], 1e-3),
            (vec![1000], 1e-3),
        ] {
            let data = mixed_field(&dims, 0x9e37_79b9);
            let data64: Vec<f64> = data.iter().map(|&v| v as f64).collect();
            for mode in [PredictorMode::BlockAdaptive, PredictorMode::Lorenzo] {
                for radius in [Quantizer::DEFAULT_RADIUS, 4] {
                    let cfg =
                        SzConfig::new(ErrorBound::Absolute(eb)).with_mode(mode).with_radius(radius);
                    let out = compress_typed(&data, &dims, &cfg).unwrap();
                    assert_decode_matches_reference::<f32>(&out.bytes, &mut stale32, true);
                    let out = compress_typed(&data64, &dims, &cfg).unwrap();
                    assert_decode_matches_reference::<f64>(&out.bytes, &mut stale64, true);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_decoder_matches_reference_on_adversarial_fields(
            rank in 1usize..5,
            n0 in 1usize..15,
            n1 in 1usize..21,
            n2 in 1usize..27,
            seed in any::<u64>(),
            density in 0u32..101,
            specials in proptest::collection::vec(special32(), 48..49),
            eb in prop_oneof![3 => Just(1e-3f64), 1 => Just(1e-1f64), 1 => Just(1e-6f64)],
            lorenzo in any::<bool>(),
            order in 1u8..3,
            lossless in any::<bool>(),
            escape_heavy in any::<bool>(),
            flips in proptest::collection::vec((any::<u32>(), 0u8..8), 0..3),
        ) {
            let dims = shape(rank, n0, n1, n2);
            let data = salted_field(dims.iter().product(), seed, density, &specials);
            let data64: Vec<f64> = data.iter().map(|&v| v as f64).collect();
            let mode = if lorenzo { PredictorMode::Lorenzo } else { PredictorMode::BlockAdaptive };
            let mut cfg = SzConfig::new(ErrorBound::Absolute(eb))
                .with_mode(mode)
                .with_lossless(lossless)
                // Four bins a side: most residuals escape to literals.
                .with_radius(if escape_heavy { 4 } else { Quantizer::DEFAULT_RADIUS });
            cfg.lorenzo_order = order;
            let (mut stale32, mut stale64) = (stale_scratch::<f32>(), stale_scratch::<f64>());
            let mut out32 = compress_typed(&data, &dims, &cfg).unwrap().bytes;
            let mut out64 = compress_typed(&data64, &dims, &cfg).unwrap().bytes;
            assert_decode_matches_reference::<f32>(&out32, &mut stale32, true);
            assert_decode_matches_reference::<f64>(&out64, &mut stale64, true);
            // The same streams with a few bits flipped: whatever the
            // reference makes of them, the new decoder makes too.
            for out in [&mut out32, &mut out64] {
                for &(at, bit) in &flips {
                    let at = at as usize % out.len();
                    out[at] ^= 1 << bit;
                }
            }
            assert_decode_matches_reference::<f32>(&out32, &mut stale32, flips.is_empty());
            assert_decode_matches_reference::<f64>(&out64, &mut stale64, flips.is_empty());
        }
    }

    /// `data` with every mantissa bit in use. Sums of a few `f32` values
    /// are exact in `f64` and come out the same in any order; these do not.
    fn full_mantissas(data: &[f32]) -> Vec<f64> {
        (0..).zip(data).map(|(n, &v)| v as f64 + (n as f64).sin() * 1e-3).collect()
    }

    /// Everything `encode_blocks` leaves in the scratch must be what the
    /// reference leaves there, to the bit, under both quantizer paths, for
    /// `data` and for its [`full_mantissas`] as `f64`. Returns the
    /// coefficients and `(regression_blocks, lorenzo_blocks)` of `data`.
    fn assert_blocks_match_reference(data: &[f32], dims: &[usize], eb: f64) -> (Vec<f32>, (u64, u64)) {
        fn run<T: Element, const FAST: bool>(data: &[T], g: Geom, q: &Quantizer) -> (Vec<f32>, (u64, u64)) {
            let (mut new, mut old) = (SzScratch::<T>::new(), SzScratch::<T>::new());
            let counts = encode_blocks::<T, FAST>(data, g, q, &mut new);
            assert_eq!(counts, encode_blocks_reference::<T, FAST>(data, g, q, &mut old));
            assert_eq!(new.symbols, old.symbols);
            assert_eq!(le_bits(&new.literals), le_bits(&old.literals));
            assert_eq!(le_bits(&new.coeffs), le_bits(&old.coeffs));
            assert_eq!(new.block_bits.finish(), old.block_bits.finish());
            assert_eq!(le_bits(&new.recon), le_bits(&old.recon));
            (new.coeffs, counts)
        }
        let g = geometry(dims, data.len()).unwrap();
        let q = Quantizer::new(eb, Quantizer::DEFAULT_RADIUS);
        assert!(q.fast_exact());
        let data64 = full_mantissas(data);
        run::<f64, true>(&data64, g, &q);
        run::<f64, false>(&data64, g, &q);
        run::<f32, true>(data, g, &q);
        run::<f32, false>(data, g, &q)
    }

    /// A field with smooth stretches (Lorenzo blocks, many of them full and
    /// interior), tilted planes (regression blocks), noise, and the values
    /// that escape to literals.
    fn mixed_field(dims: &[usize], seed: u32) -> Vec<f32> {
        let n: usize = dims.iter().product();
        let nx = *dims.last().unwrap();
        let ny = if dims.len() >= 2 { dims[dims.len() - 2] } else { 1 };
        let mut x = seed | 1;
        (0..n)
            .map(|idx| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                let (i, j, k) = (idx % nx, idx / nx % ny, idx / (nx * ny));
                let noise = (x >> 8) as f32 / (1 << 24) as f32 - 0.5;
                let smooth = (i as f32 * 0.11).sin() * (j as f32 * 0.07).cos() + k as f32 * 0.013;
                let tilted = 3.0 * i as f32 - 2.0 * j as f32 + 0.5 * k as f32 + 0.02 * noise;
                match (k / 4 + j / 9 + x as usize % 2) % 4 {
                    0 | 1 => smooth + 1e-4 * noise,
                    2 => tilted,
                    _ => match x % 97 {
                        0 => f32::NAN,
                        1 => f32::INFINITY,
                        2 => -3.0e38,
                        3 => -0.0,
                        _ => smooth + 0.3 * noise,
                    },
                }
            })
            .collect()
    }

    #[test]
    fn wavefront_order_puts_every_stencil_neighbour_first() {
        let mut seen = [false; BLOCK_LEN];
        let at = |k: u8, j: u8, i: u8| (k as usize * BLOCK_SIDE + j as usize) * BLOCK_SIDE + i as usize;
        for &[k, j, i] in &WAVEFRONT {
            for (dk, dj, di) in
                [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
            {
                if k >= dk && j >= dj && i >= di {
                    assert!(seen[at(k - dk, j - dj, i - di)], "({k},{j},{i}) before its neighbour");
                }
            }
            assert!(!seen[at(k, j, i)], "({k},{j},{i}) visited twice");
            seen[at(k, j, i)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn block_encoder_matches_reference_on_mixed_fields() {
        // Full interior blocks (wavefront order), first-plane blocks, edge
        // blocks of every partial extent, 2-D and fused 4-D geometry.
        for (dims, eb) in [
            (vec![13usize, 20, 19], 1e-3),
            (vec![12, 18, 18], 1e-2),
            (vec![6, 12, 12], 1e-5),
            (vec![7, 6, 25], 1e-1),
            (vec![40, 50], 1e-3),
            (vec![2, 7, 13, 14], 1e-3),
        ] {
            let data = mixed_field(&dims, 0x9e37_79b9);
            assert_blocks_match_reference(&data, &dims, eb);
        }
    }

    /// What the block at block coordinates `(bk, bj, bi)` of
    /// [`block_row_field`] holds.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum BlockKind {
        Smooth,
        Tilted,
        NegativeZero,
        Holds(f32),
    }

    fn block_kind(bk: usize, bj: usize, bi: usize) -> BlockKind {
        match (bi, bj + bk) {
            // Whole block rows of tilted planes: regression along a batch.
            (_, rows) if rows % 3 == 1 => BlockKind::Tilted,
            // Single tilted blocks among smooth ones, at every lane of a
            // group: its error sum runs to the end, theirs stop early.
            (1 | 6 | 11 | 12, _) => BlockKind::Tilted,
            (9, _) => BlockKind::NegativeZero,
            (3, _) => BlockKind::Holds(f32::NAN),
            (4, _) => BlockKind::Holds(f32::INFINITY),
            (14, _) => BlockKind::Holds(f32::NEG_INFINITY),
            _ => BlockKind::Smooth,
        }
    }

    /// A field for the selection of a whole block row at a time: what each
    /// block holds goes by its position ([`block_kind`]). Smooth blocks go
    /// to Lorenzo and noisy tilted planes to regression; a block of `-0.0`
    /// is a regression block whose intercept keeps the sign.
    fn block_row_field(dims: &[usize], seed: u32) -> Vec<f32> {
        let g = geometry(dims, dims.iter().product()).unwrap();
        let mut x = seed | 1;
        (0..g.nz * g.ny * g.nx)
            .map(|idx| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                let (i, j, k) = (idx % g.nx, idx / g.nx % g.ny, idx / (g.nx * g.ny));
                let noise = (x >> 8) as f32 / (1 << 24) as f32 - 0.5;
                let plane = 2.0 + 0.05 * i as f32 - 0.03 * j as f32 + 0.02 * k as f32;
                let smooth = plane + 0.5 * (i as f32 * 0.4).sin() * (j as f32 * 0.3).cos();
                let (b, centre) = (BLOCK_SIDE, (i % BLOCK_SIDE, j % BLOCK_SIDE, k % BLOCK_SIDE) == (2, 3, 1));
                match block_kind(k / b, j / b, i / b) {
                    BlockKind::Smooth => smooth,
                    BlockKind::Tilted => plane + 0.1 * noise,
                    BlockKind::NegativeZero => -0.0,
                    BlockKind::Holds(special) if centre => special,
                    BlockKind::Holds(_) => smooth,
                }
            })
            .collect()
    }

    #[test]
    fn block_encoder_matches_reference_on_wide_rows() {
        // Rows of 16 blocks: four groups to a batch, a partial block behind
        // them and partial rows below at 97 and 13, no batch at all in 2-D.
        for dims in [vec![6usize, 12, 96], vec![12, 13, 97], vec![7, 96]] {
            for eb in [1e-2, 1e-4] {
                let data = block_row_field(&dims, 0x2545_f491);
                let (coeffs, (regression, lorenzo)) = assert_blocks_match_reference(&data, &dims, eb);
                // The field is what its comment says: regression wins whole
                // block rows and single blocks, Lorenzo a quarter at least.
                let g = geometry(&dims, data.len()).unwrap();
                let b = BLOCK_SIDE;
                let kinds = (0..g.nz.div_ceil(b)).flat_map(|bk| {
                    (0..g.ny.div_ceil(b))
                        .flat_map(move |bj| (0..g.nx.div_ceil(b)).map(move |bi| block_kind(bk, bj, bi)))
                });
                let tilted = kinds.clone().filter(|&kind| kind == BlockKind::Tilted).count() as u64;
                let zeros = kinds.filter(|&kind| kind == BlockKind::NegativeZero).count();
                assert!(
                    regression >= tilted + zeros as u64 && 4 * lorenzo >= regression + lorenzo,
                    "{dims:?}: {regression} regression blocks, {lorenzo} Lorenzo blocks"
                );
                let negative_intercepts =
                    coeffs.chunks_exact(4).filter(|c| c[0].to_bits() == (-0.0f32).to_bits()).count();
                assert_eq!(negative_intercepts, zeros, "{dims:?}: the mean of -0.0 is -0.0");
            }
        }
    }

    #[test]
    fn block_row_selection_is_the_per_block_selection() {
        // What the stream does not show: the fit of a block that went to
        // Lorenzo, and the probe's error itself, not only which side of
        // the regression error it fell on.
        let dims = [12usize, 13, 97];
        let g = geometry(&dims, dims.iter().product()).unwrap();
        let (b, nb) = (BLOCK_SIDE, g.nx / BLOCK_SIDE);
        for data in [block_row_field(&dims, 0x2545_f491), mixed_field(&dims, 0x9e37_79b9)] {
            let data = full_mantissas(&data);
            for (k0, j0) in [(0, 0), (0, 6), (6, 0), (6, 6)] {
                let (mut sel, mut choices) = (SelectScratch::default(), Vec::new());
                select_block_row(&data, g, (k0, j0), nb, &mut sel, &mut choices);
                assert_eq!(choices.len(), nb);
                for (bi, (use_reg, coeffs)) in choices.into_iter().enumerate() {
                    let r = BlockRange { k: (k0, k0 + b), j: (j0, j0 + b), i: (bi * b, bi * b + b) };
                    let (want_reg, want_coeffs) = select_block(&data, g, r, &mut Vec::new());
                    assert_eq!(use_reg, want_reg, "block {bi} of row ({k0}, {j0})");
                    assert_eq!(coeffs.c.map(f32::to_bits), want_coeffs.c.map(f32::to_bits));
                    let probe = sel.probe[bi / LANES][bi % LANES] / BLOCK_LEN as f64;
                    assert_eq!(probe.to_bits(), lorenzo_probe_error(&data, g, r).to_bits());
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_block_encoder_matches_reference(
            nz in 1usize..15,
            ny in 1usize..21,
            nx in 1usize..101,
            seed in any::<u32>(),
            eb_exp in -5i32..0,
        ) {
            let dims = [nz, ny, nx];
            assert_blocks_match_reference(&mixed_field(&dims, seed), &dims, 10f64.powi(eb_exp));
            assert_blocks_match_reference(&block_row_field(&dims, seed), &dims, 10f64.powi(eb_exp));
        }
    }

    /// The entropy stage `entropy_code` replaced, kept as its executable
    /// specification: a histogram over the quantizer's whole alphabet, the
    /// tree and the codes built over all of it, one `push_bits` a symbol,
    /// and the occupied range found by scanning every length.
    fn entropy_code_reference<T>(alphabet: usize, s: &mut SzScratch<T>) -> Result<CodeTable, SzError> {
        let mut freqs = vec![0u64; alphabet];
        for &sym in &s.symbols {
            freqs[sym as usize] += 1;
        }
        let lens = code_lengths(&freqs).map_err(|_| SzError::Internal("huffman build"))?;
        let codes = canonical_codes(&lens);
        for &sym in &s.symbols {
            let (code, len) = codes[sym as usize];
            s.sym_bits.push_bits(code as u64, len);
        }
        let first = lens.iter().position(|&l| l > 0).unwrap();
        let last = lens.iter().rposition(|&l| l > 0).unwrap();
        let present = lens.iter().filter(|&&l| l > 0).count();
        Ok((first, lens[first..=last].to_vec(), present))
    }

    /// A scratch whose encode-side buffers hold the leftovers of a call
    /// that used other symbols, more of them, at a radius of its own.
    fn stale_encode_scratch<T: Element>() -> SzScratch<T> {
        let noise = |i: u32| {
            let x = (i ^ i >> 3).wrapping_mul(2_654_435_761);
            ((x ^ x >> 15).wrapping_mul(0x2c1b_3c6d) >> 8) as f64 / (1 << 24) as f64 - 0.5
        };
        let data: Vec<T> = (0..5000u32)
            .map(|i| T::from_f64(if i % 97 == 0 { f64::NAN } else { 1000.0 * noise(i) }))
            .collect();
        let cfg = SzConfig::new(ErrorBound::Absolute(1e-2)).with_radius(1 << 17);
        let mut scratch = SzScratch::new();
        let out = compress_typed_with(&data, &[5000], &cfg, &mut scratch).unwrap();
        assert!(out.stats.huffman_table_entries > 1000 && out.stats.unpredictable > 0, "{:?}", out.stats);
        scratch
    }

    /// The dense reference swapped in at the entropy stage: on the symbols
    /// predict-quantize made, the stage's coder under either arithmetic
    /// gives the reference's table and bits, from a fresh and from a stale
    /// scratch. And the whole walk writes the same bytes and statistics
    /// under both arithmetics from either scratch. Returns the statistics.
    fn assert_matches_dense_entropy_stage<T: Element>(
        data: &[T],
        dims: &[usize],
        cfg: &SzConfig,
    ) -> CompressionStats {
        let pq = PredictQuantize::new(data, dims, cfg).unwrap();
        let alphabet = pq.q.alphabet_size();
        let want = compress_walk::<T, true>(&pq, data, dims, cfg.lossless, &mut SzScratch::new()).unwrap();
        let bits = |s: &mut SzScratch<T>| (s.sym_bits.bit_len(), s.sym_bits.finish().to_vec());
        let mut stale = stale_encode_scratch::<T>();
        for scratch in [&mut SzScratch::new(), &mut stale] {
            pq.encode::<T, true>(data, dims, &mut Writer::new(), &mut CompressionStats::default(), scratch);
            scratch.sym_bits.clear();
            let reference = (entropy_code_reference(alphabet, scratch).unwrap(), bits(scratch));
            let fast = (huffman_code::<T, true>(alphabet, scratch).unwrap(), bits(scratch));
            assert!(fast == reference, "{dims:?} {cfg:?}, fast arithmetic");
            let slow = (huffman_code::<T, false>(alphabet, scratch).unwrap(), bits(scratch));
            assert!(slow == reference, "{dims:?} {cfg:?}, reference arithmetic");
            for got in [
                compress_walk::<T, false>(&pq, data, dims, cfg.lossless, scratch).unwrap(),
                compress_walk::<T, true>(&pq, data, dims, cfg.lossless, scratch).unwrap(),
            ] {
                assert_eq!(got.bytes, want.bytes, "{dims:?} {cfg:?}");
                assert_eq!(got.stats, want.stats, "{dims:?} {cfg:?}");
            }
        }
        want.stats
    }

    /// A rank-1 chunk like the amplified HACC chunks of the stream
    /// workloads: at 1e-3 most values escape and the rest land in bins
    /// scattered over both tails.
    fn hacc_like_chunk(n: usize) -> Vec<f32> {
        let field = lcpio_datagen::Dataset::Hacc.generate(4 * n, 11).data;
        (0..n).map(|i| field[i % field.len()] * 1000.0).collect()
    }

    #[test]
    fn entropy_stage_matches_dense_reference_on_mixed_fields() {
        for (dims, eb) in [
            (vec![13usize, 20, 19], 1e-3),
            (vec![12, 18, 18], 1e-2),
            (vec![6, 12, 12], 1e-5),
            (vec![7, 6, 25], 1e-1),
            (vec![40, 50], 1e-3),
            (vec![2, 7, 13, 14], 1e-3),
            (vec![1000], 1e-3),
        ] {
            let data = mixed_field(&dims, 0x9e37_79b9);
            let data64: Vec<f64> = data.iter().map(|&v| v as f64).collect();
            for mode in [PredictorMode::BlockAdaptive, PredictorMode::Lorenzo] {
                for radius in [1, 64, Quantizer::DEFAULT_RADIUS, Quantizer::MAX_RADIUS] {
                    for lossless in [true, false] {
                        let cfg = SzConfig::new(ErrorBound::Absolute(eb))
                            .with_mode(mode)
                            .with_radius(radius)
                            .with_lossless(lossless);
                        assert_matches_dense_entropy_stage(&data, &dims, &cfg);
                        assert_matches_dense_entropy_stage(&data64, &dims, &cfg);
                    }
                }
            }
        }
    }

    #[test]
    fn entropy_stage_matches_dense_reference_at_the_edges_of_the_alphabet() {
        let default = SzConfig::new(ErrorBound::Absolute(1e-3));
        // Escapes plus both tails: symbol 0, and bins over nearly the
        // whole alphabet with long empty stretches between them.
        let hacc = hacc_like_chunk(16_384);
        for cfg in [default, default.with_lossless(false), default.with_radius(Quantizer::MAX_RADIUS)] {
            let stats = assert_matches_dense_entropy_stage(&hacc, &[hacc.len()], &cfg);
            assert!(stats.unpredictable > 0 && stats.huffman_table_entries > 100, "{stats:?}");
        }
        // Every value escapes: the single symbol 0 and its 1-bit code.
        let nans = vec![f32::NAN; 300];
        // A constant field: one escape, then the zero bin alone.
        let flat = vec![1.0e9f64; 300];
        for radius in [1, 64, Quantizer::DEFAULT_RADIUS, Quantizer::MAX_RADIUS] {
            let cfg = default.with_radius(radius).with_mode(PredictorMode::Lorenzo);
            let stats = assert_matches_dense_entropy_stage(&nans, &[300], &cfg);
            assert_eq!((stats.huffman_table_entries, stats.huffman_bits), (1, 300));
            let stats = assert_matches_dense_entropy_stage(&flat, &[15, 20], &cfg);
            assert_eq!((stats.huffman_table_entries, stats.unpredictable), (2, 1));
            // Both ends of the alphabet and nothing between: the zero bin,
            // the last bin, the first, and the escape of a residual two
            // bins too far.
            let reach = 2e-3 * (radius as f64 - 1.0);
            let ends = [0.0f64, reach, reach, 0.0, reach + 4e-3];
            let mut cfg = cfg;
            cfg.lorenzo_order = 1;
            let stats = assert_matches_dense_entropy_stage(&ends, &[ends.len()], &cfg);
            assert_eq!(stats.unpredictable, 1);
            let (_, _, (first, table, present)) = quantize_and_code(&ends, &[ends.len()], &cfg);
            assert_eq!((first, table.len()), (0, 2 * radius as usize), "radius {radius}");
            assert_eq!(present, if radius == 1 { 2 } else { 4 }, "radius {radius}");
        }
    }

    /// Bytes of heap the scratch holds on to.
    fn scratch_bytes<T>(s: &SzScratch<T>) -> usize {
        s.symbols.capacity() * 4
            + s.literals.capacity() * std::mem::size_of::<T>()
            + (s.recon.capacity() + s.rowp.capacity() + s.vals.capacity() + 2 * s.wave.capacity()) * 8
            + (s.select.planes.capacity() + s.select.terms.capacity()) * 8
            + (s.select.vals.capacity() + s.select.probe.capacity()) * 8 * LANES
            + s.choices.capacity() * std::mem::size_of::<(bool, BlockCoeffs)>()
            + s.huff.capacity_bytes()
            + s.sym_bits.capacity()
            + s.block_bits.capacity()
            + s.coeffs.capacity() * 4
            + s.lit_bytes.capacity()
    }

    #[test]
    fn scratch_is_sized_by_the_call_not_by_the_radius() {
        // The per-call fixed cost as an assertion: every buffer of the
        // scratch is filled or cleared by the call that sizes it, so what
        // it holds after one call bounds what that call touched.
        // 64 elements at the largest radius: four bytes per granule of the
        // alphabet, and under 64 KiB for everything else (the dense stage
        // held 48 MB here, beside a 16 MB code table).
        let hacc = hacc_like_chunk(16_384);
        let mut scratch = SzScratch::<f32>::new();
        let cfg = SzConfig::new(ErrorBound::Absolute(1e-3)).with_radius(Quantizer::MAX_RADIUS);
        let out = compress_typed_with(&hacc[..64], &[64], &cfg, &mut scratch).unwrap();
        assert!(out.stats.unpredictable > 0 && out.stats.huffman_table_entries > 8, "{:?}", out.stats);
        let granules = (2 * Quantizer::MAX_RADIUS as usize + 1).div_ceil(16);
        let held = scratch_bytes(&scratch);
        assert!(held < (64 << 10) + 4 * granules, "{held} bytes at MAX_RADIUS");
        // A request at the default radius: in proportion to its elements
        // and to the granules it occupies.
        let mut scratch = SzScratch::<f32>::new();
        let cfg = SzConfig::new(ErrorBound::Absolute(1e-3));
        compress_typed_with(&hacc, &[hacc.len()], &cfg, &mut scratch).unwrap();
        let occupied = scratch.huff.slots() / 16;
        let granules = (2 * Quantizer::DEFAULT_RADIUS as usize + 1).div_ceil(16);
        let held = scratch_bytes(&scratch);
        let bound = 32 * hacc.len() + 1024 * occupied + 4 * granules + (16 << 10);
        assert!(held < bound, "{held} bytes for {} elements, {occupied} granules", hacc.len());
        assert!(held < 1 << 20, "{held} bytes: the dense stage zeroed 1.5 MB a call");
    }

    #[test]
    fn geometry_fuses_4d() {
        let g = geometry(&[2, 3, 4, 5], 120).unwrap();
        assert_eq!((g.nz, g.ny, g.nx, g.rank), (6, 4, 5, 4));
    }

    #[test]
    fn geometry_rejects_mismatch() {
        assert!(geometry(&[2, 3], 7).is_err());
        assert!(geometry(&[], 0).is_err());
        assert!(geometry(&[0], 0).is_err());
        assert!(geometry(&[1, 2, 3, 4, 5], 120).is_err());
        assert!(geometry(&[usize::MAX, usize::MAX], 4).is_err());
    }

    #[test]
    fn resolve_relative_eb_uses_range() {
        let data = [0.0f32, 10.0];
        let eb = resolve_eb(&data, ErrorBound::ValueRangeRelative(1e-2)).unwrap();
        assert!((eb - 0.1).abs() < 1e-12);
    }

    #[test]
    fn resolve_relative_eb_constant_data() {
        let data = [5.0f32; 4];
        let eb = resolve_eb(&data, ErrorBound::ValueRangeRelative(1e-3)).unwrap();
        assert_eq!(eb, 1e-3);
    }

    #[test]
    fn resolve_rejects_bad_bounds() {
        assert!(resolve_eb(&[1.0f32], ErrorBound::Absolute(0.0)).is_err());
        assert!(resolve_eb(&[1.0f32], ErrorBound::Absolute(-1.0)).is_err());
        assert!(resolve_eb(&[1.0f32], ErrorBound::Absolute(f64::NAN)).is_err());
        assert!(resolve_eb(&[1.0f32], ErrorBound::ValueRangeRelative(-0.5)).is_err());
    }

    #[test]
    fn f64_roundtrip_respects_bound() {
        // Values whose precision exceeds f32: the f64 path must preserve
        // them to the requested bound.
        let data: Vec<f64> = (0..4096)
            .map(|i| 1.0 + (i as f64) * 1e-9 + (i as f64 * 0.01).sin() * 1e-5)
            .collect();
        let eb = 1e-8;
        let cfg = SzConfig::new(ErrorBound::Absolute(eb));
        let out = compress_f64(&data, &[4096], &cfg).expect("compress");
        let (rec, dims) = decompress_f64(&out.bytes).expect("decompress");
        assert_eq!(dims, vec![4096]);
        for (a, b) in data.iter().zip(&rec) {
            assert!((a - b).abs() <= eb, "{a} vs {b}");
        }
        // f32 storage could never hit this bound; f64 must beat 8 B/elem.
        assert!(out.bytes.len() < data.len() * 8);
    }

    #[test]
    fn f64_block_mode_roundtrip() {
        let (ny, nx) = (40, 50);
        let data: Vec<f64> = (0..ny * nx)
            .map(|idx| {
                let (j, i) = (idx / nx, idx % nx);
                (i as f64 * 0.1).sin() * (j as f64 * 0.07).cos() * 1e6
            })
            .collect();
        let eb = 1e-3;
        let out = compress_f64(&data, &[ny, nx], &SzConfig::new(ErrorBound::Absolute(eb)))
            .expect("compress");
        let (rec, _) = decompress_f64(&out.bytes).expect("decompress");
        for (a, b) in data.iter().zip(&rec) {
            assert!((a - b).abs() <= eb);
        }
    }

    #[test]
    fn type_tag_is_checked() {
        let f32_stream = compress(&[1.0f32; 64], &[64], &SzConfig::new(ErrorBound::Absolute(1e-3)))
            .expect("compress");
        assert_eq!(decompress_f64(&f32_stream.bytes).unwrap_err(), SzError::TypeMismatch);
        let f64_stream =
            compress_f64(&[1.0f64; 64], &[64], &SzConfig::new(ErrorBound::Absolute(1e-3)))
                .expect("compress");
        assert_eq!(decompress(&f64_stream.bytes).unwrap_err(), SzError::TypeMismatch);
        assert_eq!(stream_type_tag(&f32_stream.bytes).unwrap(), 0);
        assert_eq!(stream_type_tag(&f64_stream.bytes).unwrap(), 1);
    }

    #[test]
    fn forged_huge_radius_is_rejected_cheaply() {
        // The radius field sizes the decode alphabet; a forged value near
        // u32::MAX must be a cheap typed error, not gigabytes of Huffman
        // table setup. Lossless off keeps the payload raw so the field
        // sits at a fixed offset: magic(4) + flags(1) + body_len(8) +
        // tag(1) + rank(1) + dim(8) + block_mode(1) + order(1) + eb(8).
        let data: Vec<f32> = (0..256).map(|i| (i as f32 * 0.03).sin()).collect();
        let cfg = SzConfig::new(ErrorBound::Absolute(1e-3)).with_radius(4).with_lossless(false);
        let out = compress(&data, &[256], &cfg).expect("compress");
        const RADIUS_OFF: usize = 4 + 1 + 8 + 1 + 1 + 8 + 1 + 1 + 8;
        assert_eq!(&out.bytes[RADIUS_OFF..RADIUS_OFF + 4], &4u32.to_le_bytes());
        for forged in [u32::MAX, 1 << 31, Quantizer::MAX_RADIUS + 1] {
            let mut bad = out.bytes.clone();
            bad[RADIUS_OFF..RADIUS_OFF + 4].copy_from_slice(&forged.to_le_bytes());
            assert_eq!(
                decompress(&bad).unwrap_err(),
                SzError::Corrupt("bad quantizer params"),
                "radius {forged}"
            );
        }
        // The cap itself still decodes.
        let mut capped = out.bytes.clone();
        capped[RADIUS_OFF..RADIUS_OFF + 4]
            .copy_from_slice(&Quantizer::MAX_RADIUS.to_le_bytes());
        // (symbols were coded against radius 4, so decode may reject the
        // table — the point is it must not be rejected for the radius.)
        if let Err(e) = decompress(&capped) {
            assert_ne!(e, SzError::Corrupt("bad quantizer params"));
        }
    }

    #[test]
    fn oversized_configured_radius_is_clamped_not_fatal() {
        // An out-of-range config radius clamps to MAX_RADIUS and the
        // stream still round-trips within the bound.
        let data: Vec<f32> = (0..512).map(|i| (i as f32 * 0.01).cos() * 3.0).collect();
        let cfg = SzConfig::new(ErrorBound::Absolute(1e-3)).with_radius(u32::MAX);
        let out = compress(&data, &[512], &cfg).expect("compress clamps the radius");
        let (rec, _) = decompress(&out.bytes).expect("decompress");
        for (a, b) in data.iter().zip(&rec) {
            assert!((a - b).abs() <= 1e-3 + 1e-6);
        }
    }

    #[test]
    fn f64_literals_are_exact() {
        // Unpredictable f64 values must survive bit-exactly via literals.
        let data = vec![1.0e300f64, -2.2250738585072014e-308, 3.5, 1.0e-40];
        let cfg = SzConfig::new(ErrorBound::Absolute(1e-12)).with_radius(4);
        let out = compress_f64(&data, &[4], &cfg).expect("compress");
        let (rec, _) = decompress_f64(&out.bytes).expect("decompress");
        for (a, b) in data.iter().zip(&rec) {
            assert!((a - b).abs() <= 1e-12 || a == b, "{a} vs {b}");
        }
    }

    #[test]
    fn reused_scratch_is_bit_identical() {
        // One scratch across many differently-shaped compressions must
        // yield exactly the bytes a fresh scratch produces.
        let mut scratch = SzScratch::new();
        let fields: Vec<(Vec<usize>, Vec<f32>)> = vec![
            (vec![600], (0..600).map(|i| (i as f32 * 0.02).sin()).collect()),
            (vec![23, 17], (0..23 * 17).map(|i| (i as f32 * 0.1).cos() * 5.0).collect()),
            (vec![7, 8, 9], (0..7 * 8 * 9).map(|i| i as f32 * 0.5).collect()),
        ];
        for (dims, data) in &fields {
            for mode in [PredictorMode::Lorenzo, PredictorMode::BlockAdaptive] {
                let cfg = SzConfig::new(ErrorBound::Absolute(1e-3)).with_mode(mode);
                let fresh = compress_typed(data, dims, &cfg).unwrap();
                let reused = compress_typed_with(data, dims, &cfg, &mut scratch).unwrap();
                assert_eq!(fresh.bytes, reused.bytes, "dims {dims:?} mode {mode:?}");
                let (rec, d) = decompress(&fresh.bytes).unwrap();
                assert_eq!(&d, dims);
                for (a, b) in data.iter().zip(&rec) {
                    assert!((a - b).abs() <= 1e-3 + 1e-6);
                }
            }
        }
    }

    #[test]
    fn reused_decode_scratch_is_bit_identical() {
        // One scratch across many differently-shaped decompressions must
        // yield exactly the values a fresh decode produces — including
        // stale-state hazards: a large stream first (big recon/literal
        // high-water marks), then smaller ones.
        let mut scratch = SzScratch::new();
        let fields: Vec<(Vec<usize>, Vec<f32>)> = vec![
            (vec![11, 13, 17], (0..11 * 13 * 17).map(|i| (i as f32 * 0.05).sin() * 3.0).collect()),
            (vec![600], (0..600).map(|i| (i as f32 * 0.02).sin()).collect()),
            (vec![23, 17], (0..23 * 17).map(|i| (i as f32 * 0.1).cos() * 5.0).collect()),
        ];
        for (dims, data) in &fields {
            for mode in [PredictorMode::Lorenzo, PredictorMode::BlockAdaptive] {
                let cfg = SzConfig::new(ErrorBound::Absolute(1e-3)).with_mode(mode);
                let out = compress_typed(data, dims, &cfg).unwrap();
                let (fresh, d1) = decompress(&out.bytes).unwrap();
                let (reused, d2) = decompress_typed_with::<f32>(&out.bytes, &mut scratch).unwrap();
                assert_eq!(d1, d2);
                for (a, b) in fresh.iter().zip(&reused) {
                    assert_eq!(a.to_bits(), b.to_bits(), "dims {dims:?} mode {mode:?}");
                }
            }
        }
    }
}
