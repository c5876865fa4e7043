//! Embedded bit-plane coder with group testing.
//!
//! Transform coefficients (in negabinary, sequency order) are transmitted
//! one bit plane at a time, most-significant plane first. Within a plane,
//! the first `n` coefficients — those already past the significance
//! frontier from earlier planes — send their bits verbatim; the remainder
//! are group-tested: one bit says whether *any* remaining coefficient has a
//! bit in this plane, followed by a unary-coded position. This is a direct
//! transcription of ZFP's `encode_ints`/`decode_ints`.
//!
//! A bit `budget` caps the block's size (fixed-rate mode); both sides track
//! it identically so a truncated stream still decodes in lock-step.
//!
//! Two kernels, chosen by block size. For 16 and 64 coefficients the
//! const-generic [`encode_block`]/[`decode_block`] work on the block's bit
//! planes, which a tile transpose takes out of the coefficients in `N`
//! words. A rank-1 block (4 coefficients) has [`encode_rank1`] /
//! [`decode_rank1`], which need no planes: they hold the coefficients
//! bit-reversed and move a run of planes with one gather or scatter per
//! coefficient. In both, only a plane in which a coefficient turns
//! significant takes the group-test loop; the runs of planes between those
//! (and the all-verbatim tail after the last) move as many planes to a
//! stream word as fit one.

use crate::bitstream::{mask, ReadStream, WriteStream, WINDOW_BITS};
use crate::block::{as_block, as_block_mut};

/// Transpose every `N`×`N` bit tile of `a` in place (LSB orientation): on
/// return, bit `N·f + r` of `a[c]` equals bit `N·f + c` of the input's
/// `a[r]`, for each of the `64 / N` tiles `f` lying side by side in the
/// words. The recursive block-swap takes `log2(N) · N/2` word operations,
/// and it is its own inverse. For `N = 64` this is the 64×64 bit-matrix
/// transpose.
///
/// Each level pairs row `k` with row `k + j` in every group of `2j` rows.
/// Written over the two halves of a group, the pairs are independent
/// lanes, and the compiler vectorises the level with no intrinsics.
#[inline]
fn transpose<const N: usize>(a: &mut [u64; N]) {
    let mut j = N / 2;
    // Low half of every N-bit field.
    let mut m = u64::MAX / ((1u64 << j) + 1);
    while j != 0 {
        for pair in a.chunks_exact_mut(2 * j) {
            let (lo, hi) = pair.split_at_mut(j);
            for (x, y) in lo.iter_mut().zip(hi) {
                // Swap the (row-bit-j set, col-bit-j clear) block with its
                // mirror across the diagonal.
                let t = ((*x >> j) ^ *y) & m;
                *x ^= t << j;
                *y ^= t;
            }
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Bit plane `k` of a transposed block: coefficient `i` at bit `i`.
#[inline(always)]
fn plane<const N: usize>(planes: &[u64; N], k: u32) -> u64 {
    let k = k as usize;
    (planes[k % N] >> (N * (k / N))) & mask(N as u32)
}

/// Inverse of [`plane`] on a zeroed block: store the `N` low bits of `x`.
#[inline(always)]
fn set_plane<const N: usize>(planes: &mut [u64; N], k: u32, x: u64) {
    let k = k as usize;
    planes[k % N] |= x << (N * (k / N));
}

/// Bits a run of quiet planes may take in one go: what the budget covers,
/// at most a stream word. A 64-coefficient block takes no runs: past its
/// first planes one plane fills a word, and trying cost its decoder a
/// tenth on the 3-D probe.
#[inline(always)]
fn run_limit<const N: usize>(budget: usize) -> usize {
    if N < 64 {
        budget.min(64)
    } else {
        0
    }
}

/// Send plane `x` (coefficient `i` at bit `i`) of a block of `N` with
/// frontier `n`: the verbatim bits, then the group-test loop, which emits
/// each run (`1` group bit, zero or more `0` skip bits, an optional `1`
/// stop bit) as a single `write_bits` call. Both stop at the budget.
#[inline(always)]
fn encode_plane<const N: usize>(x: u64, n: &mut usize, budget: &mut usize, w: &mut WriteStream) {
    // Verbatim bits for coefficients before the significance frontier.
    let m = (*n).min(*budget);
    *budget -= m;
    let mut x = w.write_bits(x, m);
    // Group-tested remainder: one batched emit per significant coefficient
    // (or a lone 0 group bit when the plane is spent).
    while *n < N && *budget > 0 {
        if x == 0 {
            *budget -= 1;
            w.write_bit(false);
            break;
        }
        let z = x.trailing_zeros() as usize;
        // The stop bit is implicit when the run reaches the last
        // coefficient — the decoder infers it from `N`.
        let stop = *n + z < N - 1;
        let run = 1 + z + stop as usize;
        let pattern = if stop { 1u64 | (1u64 << (1 + z)) } else { 1u64 };
        let emit = run.min(*budget);
        w.write_bits(pattern, emit);
        *budget -= emit;
        x = x.checked_shr((z + 1) as u32).unwrap_or(0);
        *n += z + 1;
    }
}

/// Read back one plane [`encode_plane`] sent.
#[inline(always)]
fn decode_plane<const N: usize>(n: &mut usize, budget: &mut usize, r: &mut ReadStream<'_>) -> u64 {
    let m = (*n).min(*budget);
    *budget -= m;
    let mut x = r.read_bits(m);
    while *n < N && *budget > 0 {
        *budget -= 1;
        // The group bit and, in the same one-load look, the unary scan
        // after it up to the stop bit (or `avail` zeros when it falls past
        // the budget/block end). Reads past the end see zeros, exactly
        // like the bit-at-a-time loop.
        let avail = (N - 1 - *n).min(*budget);
        let bits = r.peek_bits(WINDOW_BITS);
        r.advance(1);
        if bits & 1 == 0 {
            break;
        }
        let (consumed, skipped) = if bits >> 1 != 0 || avail < WINDOW_BITS {
            let skipped = ((bits >> 1).trailing_zeros() as usize).min(avail);
            let consumed = (skipped + 1).min(avail);
            r.advance(consumed);
            (consumed, skipped)
        } else {
            // More zeros than the look holds.
            r.scan_unary(avail)
        };
        *budget -= consumed;
        *n += skipped;
        x += 1u64 << *n;
        *n += 1;
    }
    x
}

/// Encode the `N` negabinary coefficients of one block from plane
/// `intprec − 1` down to plane `kmin`, spending at most `budget` bits.
/// Returns the number of bits actually written. Serves `N` = 16 and 64;
/// rank 1 has [`encode_rank1`].
///
/// The stream is bit-identical to the historical bit-at-a-time coder. The
/// planes are transposed out of the coefficients once up front. A plane in
/// which no coefficient past the significance frontier `n` has a bit is
/// *quiet*: it costs its `n` verbatim bits and, while `n < N`, one 0 group
/// bit. Quiet planes go out as many to a `write_bits` as a word holds; a
/// block's leading zero planes, the stretches between two coefficients
/// turning significant and the all-verbatim tail once `n = N` are all
/// runs of them. Only a plane that moves the frontier (at most `N` per
/// block) or that the budget cuts short takes the group-test loop.
pub fn encode_block<const N: usize>(
    data: &[u64; N],
    intprec: u32,
    kmin: u32,
    mut budget: usize,
    w: &mut WriteStream,
) -> usize {
    debug_assert!(intprec <= 64);
    let start = w.bit_len();
    let mut planes = *data;
    transpose(&mut planes);
    let mut n = 0usize;
    let mut k = intprec;
    while budget > 0 && k > kmin {
        // A run of quiet planes, `per` bits each: whole planes only, and
        // only what the budget covers (at most 64 bits, whatever the
        // budget: a fixed-rate block stops mid-plane, in `encode_plane`).
        let per = n + (n < N) as usize;
        let limit = run_limit::<N>(budget);
        let mut word = 0u64;
        let mut used = 0usize;
        while used + per <= limit && k > kmin {
            let x = plane(&planes, k - 1);
            if n < N && x >> n != 0 {
                break;
            }
            word |= x << used;
            used += per;
            k -= 1;
        }
        if used > 0 {
            w.write_bits(word, used);
            budget -= used;
            continue;
        }
        k -= 1;
        encode_plane::<N>(plane(&planes, k), &mut n, &mut budget, w);
    }
    w.bit_len() - start
}

/// Decode the `N` negabinary coefficients of one block written by
/// [`encode_block`] into `planes` (overwritten), quiet planes a word at a
/// time as there. Reads past the end of the stream yield zero bits on
/// every path.
pub fn decode_block<const N: usize>(
    planes: &mut [u64; N],
    intprec: u32,
    kmin: u32,
    mut budget: usize,
    r: &mut ReadStream<'_>,
) {
    debug_assert!(intprec <= 64);
    *planes = [0u64; N];
    let mut n = 0usize;
    let mut k = intprec;
    while budget > 0 && k > kmin {
        // A run of quiet planes, under the conditions of `encode_block`.
        let per = n + (n < N) as usize;
        let limit = run_limit::<N>(budget);
        // No load when no run is possible (always at `N = 64`).
        let bits = if limit > 0 { r.peek_bits(limit) } else { 0 };
        let mut used = 0usize;
        while used + per <= limit && k > kmin {
            let field = bits >> used;
            // A set group bit ends the quiet run.
            if n < N && (field >> n) & 1 != 0 {
                break;
            }
            set_plane(planes, k - 1, field & mask(n as u32));
            used += per;
            k -= 1;
        }
        if used > 0 {
            r.advance(used);
            budget -= used;
            continue;
        }
        k -= 1;
        let x = decode_plane::<N>(&mut n, &mut budget, r);
        set_plane(planes, k, x);
    }
    // Planes back to coefficients: the transpose is its own inverse.
    transpose(planes);
}

/// Bits a rank-1 run spans at most: whole planes within one read window.
const RUN_BITS: usize = 56;

/// Group-bit lanes of a rank-1 run at frontier `n` (from the run's bit `n`
/// on): bit `per · j` for plane `j`, with `per = n + 1`; none at `n = 4`.
const GROUP_LANES: [u64; 5] =
    [u64::MAX, 0x5555_5555_5555_5555, 0x9249_2492_4924_9249, 0x1111_1111_1111_1111, 0];

/// `x / per` for a plane width `per` in `1..=4` and `x ≤ 64`, as
/// `(x · ⌈2¹⁶/per⌉) >> 16`, which is exact there.
#[inline(always)]
fn div_per(x: usize, per: usize) -> usize {
    const RECIPROCAL: [usize; 5] = [0, 1 << 16, 1 << 15, 21_846, 1 << 14];
    (x * RECIPROCAL[per]) >> 16
}

/// Bits `0, 2, 4, …` of `x`, packed.
#[inline(always)]
fn gather2(x: u64) -> u64 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x >> 4)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
    (x | (x >> 16)) & 0xffff_ffff
}

/// Bits `0, 4, 8, …` of `x`, packed.
#[inline(always)]
fn gather4(x: u64) -> u64 {
    let mut x = x & 0x1111_1111_1111_1111;
    x = (x | (x >> 3)) & 0x0303_0303_0303_0303;
    x = (x | (x >> 6)) & 0x000f_000f_000f_000f;
    x = (x | (x >> 12)) & 0x0000_00ff_0000_00ff;
    (x | (x >> 24)) & 0xffff
}

/// Inverse of [`gather2`]: the low 32 bits of `x` to bits `0, 2, 4, …`.
#[inline(always)]
fn scatter2(x: u64) -> u64 {
    let mut x = x & 0xffff_ffff;
    x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
    x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    (x | (x << 1)) & 0x5555_5555_5555_5555
}

/// Inverse of [`gather4`]: the low 16 bits of `x` to bits `0, 4, 8, …`.
#[inline(always)]
fn scatter4(x: u64) -> u64 {
    let mut x = x & 0xffff;
    x = (x | (x << 24)) & 0x0000_00ff_0000_00ff;
    x = (x | (x << 12)) & 0x000f_000f_000f_000f;
    x = (x | (x << 6)) & 0x0303_0303_0303_0303;
    (x | (x << 3)) & 0x1111_1111_1111_1111
}

/// Encode a rank-1 block (4 coefficients) in the format of
/// [`encode_block`], a run of quiet planes at a time.
///
/// With frontier `n`, a quiet plane is a fixed-width record of `per =
/// n + (n < 4)` bits: `n` verbatim bits and, while `n < 4`, a 0 group bit.
/// The coefficients are held bit-reversed, plane `k` at bit `63 − k`, so
/// the planes from the current one down sit in coding order from bit 0.
/// One `trailing_zeros` over the coefficients at and past the frontier
/// gives the run, as many planes as fit 56 bits and the budget; one
/// scatter per coefficient lays its bits at stride `per` (2 at `n = 1`, 4
/// at `n ≥ 3`, where coefficient 3's lane is the 0 group bits of `n = 3`;
/// a loop over the planes at `n = 2`) and one `write_bits` sends the run.
/// The plane that moves the frontier, or that the budget cuts, goes
/// through the group-test loop of [`encode_block`].
pub fn encode_rank1(
    data: &[u64; 4],
    intprec: u32,
    kmin: u32,
    mut budget: usize,
    w: &mut WriteStream,
) -> usize {
    debug_assert!(intprec <= 64);
    let start = w.bit_len();
    let rev = data.map(u64::reverse_bits);
    // `past[n]`: the planes in which a coefficient at or past `n` has a bit.
    let past =
        [rev[0] | rev[1] | rev[2] | rev[3], rev[1] | rev[2] | rev[3], rev[2] | rev[3], rev[3], 0];
    let mut n = 0usize;
    let mut k = intprec;
    while budget > 0 && k > kmin {
        let per = n + (n < 4) as usize;
        let fit = div_per(budget.min(RUN_BITS), per).min((k - kmin) as usize);
        // Planes `k − 1, k − 2, …` at bits `0, 1, …`.
        let at = 64 - k;
        let run = ((past[n] >> at).trailing_zeros() as usize).min(fit);
        if run > 0 {
            let c = rev.map(|c| c >> at);
            let word = match n {
                0 => 0,
                1 => scatter2(c[0]),
                2 => (0..run).fold(0, |word, j| {
                    word | ((c[0] >> j) & 1) << (3 * j) | ((c[1] >> j) & 1) << (3 * j + 1)
                }),
                _ => {
                    scatter4(c[0]) | scatter4(c[1]) << 1 | scatter4(c[2]) << 2 | scatter4(c[3]) << 3
                }
            };
            w.write_bits(word, run * per);
            budget -= run * per;
            k -= run as u32;
            continue;
        }
        k -= 1;
        let x = data.iter().enumerate().fold(0, |x, (i, &c)| x | ((c >> k) & 1) << i);
        encode_plane::<4>(x, &mut n, &mut budget, w);
    }
    w.bit_len() - start
}

/// Decode a rank-1 block written by [`encode_rank1`] into `data`
/// (overwritten), the mirror of it: one `peek_bits` covers a run, one
/// `trailing_zeros` over its group-bit lanes finds the plane that moves the
/// frontier, and one gather per coefficient takes its verbatim bits. The
/// coefficients build up bit-reversed and are reversed once at the end.
pub fn decode_rank1(
    data: &mut [u64; 4],
    intprec: u32,
    kmin: u32,
    mut budget: usize,
    r: &mut ReadStream<'_>,
) {
    debug_assert!(intprec <= 64);
    let mut rev = [0u64; 4];
    let mut n = 0usize;
    let mut k = intprec;
    while budget > 0 && k > kmin {
        let per = n + (n < 4) as usize;
        let fit = div_per(budget.min(RUN_BITS), per).min((k - kmin) as usize);
        let bits = r.peek_bits(RUN_BITS);
        // A set group bit ends the run.
        let groups = (bits >> n) & GROUP_LANES[n];
        let run = div_per(groups.trailing_zeros() as usize, per).min(fit);
        if run > 0 {
            let used = run * per;
            let bits = bits & mask(used as u32);
            // Plane `k − 1` goes to bit `64 − k`.
            let at = 64 - k;
            match n {
                0 => {}
                1 => rev[0] |= gather2(bits) << at,
                2 => {
                    for j in 0..run {
                        rev[0] |= ((bits >> (3 * j)) & 1) << (at as usize + j);
                        rev[1] |= ((bits >> (3 * j + 1)) & 1) << (at as usize + j);
                    }
                }
                _ => {
                    for (i, c) in rev.iter_mut().enumerate() {
                        *c |= gather4(bits >> i) << at;
                    }
                }
            }
            r.advance(used);
            budget -= used;
            k -= run as u32;
            continue;
        }
        k -= 1;
        let x = decode_plane::<4>(&mut n, &mut budget, r);
        for (i, c) in rev.iter_mut().enumerate() {
            *c |= ((x >> i) & 1) << (63 - k);
        }
    }
    *data = rev.map(u64::reverse_bits);
}

/// Slice entry to the block coders, dispatching on the block size.
///
/// # Panics
/// When `data` is not a ZFP block (4, 16 or 64 coefficients).
pub fn encode_ints(
    data: &[u64],
    intprec: u32,
    kmin: u32,
    budget: usize,
    w: &mut WriteStream,
) -> usize {
    match data.len() {
        4 => encode_rank1(as_block(data), intprec, kmin, budget, w),
        16 => encode_block::<16>(as_block(data), intprec, kmin, budget, w),
        64 => encode_block::<64>(as_block(data), intprec, kmin, budget, w),
        n => panic!("a ZFP block holds 4, 16 or 64 coefficients, not {n}"),
    }
}

/// Slice entry to the block decoders: decode `data.len()` coefficients
/// into `data` (overwritten).
///
/// # Panics
/// When `data` is not a ZFP block (4, 16 or 64 coefficients).
pub fn decode_ints_into(
    data: &mut [u64],
    intprec: u32,
    kmin: u32,
    budget: usize,
    r: &mut ReadStream<'_>,
) {
    match data.len() {
        4 => decode_rank1(as_block_mut(data), intprec, kmin, budget, r),
        16 => decode_block::<16>(as_block_mut(data), intprec, kmin, budget, r),
        64 => decode_block::<64>(as_block_mut(data), intprec, kmin, budget, r),
        n => panic!("a ZFP block holds 4, 16 or 64 coefficients, not {n}"),
    }
}

/// The slice-based coder this module's kernel replaced, kept as its
/// executable specification: a 64-word plane array filled per set bit and
/// one `write_bits`/`read_bits` round per plane whatever the frontier.
#[cfg(test)]
pub(crate) mod reference {
    use crate::bitstream::{ReadStream, WriteStream};

    /// `planes[k]` holds bit `k` of every coefficient, coefficient `i` at
    /// bit `i`.
    fn plane_masks(data: &[u64], planes: &mut [u64; 64]) {
        planes.fill(0);
        for (i, &v) in data.iter().enumerate() {
            let mut v = v;
            while v != 0 {
                planes[v.trailing_zeros() as usize] |= 1u64 << i;
                v &= v - 1;
            }
        }
    }

    pub(crate) fn encode_ints(
        data: &[u64],
        intprec: u32,
        kmin: u32,
        mut budget: usize,
        w: &mut WriteStream,
    ) -> usize {
        let size = data.len();
        let start = w.bit_len();
        let mut planes = [0u64; 64];
        plane_masks(data, &mut planes);
        let mut n = 0usize;
        let mut k = intprec;
        while budget > 0 && k > kmin {
            k -= 1;
            let mut x = planes[k as usize];
            let m = n.min(budget);
            budget -= m;
            x = w.write_bits(x, m);
            while n < size && budget > 0 {
                if x == 0 {
                    budget -= 1;
                    w.write_bit(false);
                    break;
                }
                let z = x.trailing_zeros() as usize;
                let stop = n + z < size - 1;
                let run = 1 + z + stop as usize;
                let pattern = if stop { 1u64 | (1u64 << (1 + z)) } else { 1u64 };
                let emit = run.min(budget);
                w.write_bits(pattern, emit);
                budget -= emit;
                x = x.checked_shr((z + 1) as u32).unwrap_or(0);
                n += z + 1;
            }
        }
        w.bit_len() - start
    }

    pub(crate) fn decode_ints_into(
        data: &mut [u64],
        intprec: u32,
        kmin: u32,
        mut budget: usize,
        r: &mut ReadStream<'_>,
    ) {
        let size = data.len();
        let mut planes = [0u64; 64];
        let mut n = 0usize;
        let mut k = intprec;
        while budget > 0 && k > kmin {
            k -= 1;
            let m = n.min(budget);
            budget -= m;
            let mut x = r.read_bits(m);
            while n < size && budget > 0 {
                budget -= 1;
                if !r.read_bit() {
                    break;
                }
                let avail = (size - 1 - n).min(budget);
                let (consumed, skipped) = r.scan_unary(avail);
                budget -= consumed;
                n += skipped;
                x += 1u64 << n;
                n += 1;
            }
            planes[k as usize] = x;
        }
        data.fill(0);
        for (k, &p) in planes.iter().enumerate() {
            let mut bits = p;
            while bits != 0 {
                data[bits.trailing_zeros() as usize] += 1u64 << k;
                bits &= bits - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixedpoint::INTPREC;
    use crate::negabinary;

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    fn decode_ints(
        size: usize,
        intprec: u32,
        kmin: u32,
        budget: usize,
        r: &mut ReadStream<'_>,
    ) -> Vec<u64> {
        let mut data = vec![0u64; size];
        decode_ints_into(&mut data, intprec, kmin, budget, r);
        data
    }

    fn roundtrip(values: &[i64], kmin: u32, budget: usize) -> Vec<i64> {
        let nb: Vec<u64> = values.iter().map(|&v| negabinary::encode(v)).collect();
        let mut w = WriteStream::new();
        encode_ints(&nb, INTPREC, kmin, budget, &mut w);
        let bytes = w.into_bytes();
        let mut r = ReadStream::new(&bytes);
        decode_ints(values.len(), INTPREC, kmin, budget, &mut r)
            .into_iter()
            .map(negabinary::decode)
            .collect()
    }

    /// Tile transposes for both block sizes that use them, on 64 seeded inputs
    /// each: against the bit-by-bit definition, and self-inverse.
    fn check_transpose<const N: usize>() {
        let mut x = 0x0123_4567_89ab_cdefu64 ^ N as u64;
        for input in 0..64 {
            let orig: [u64; N] = std::array::from_fn(|_| xorshift(&mut x));
            let mut naive = [0u64; N];
            for (c, out) in naive.iter_mut().enumerate() {
                for (r, &row) in orig.iter().enumerate() {
                    for f in 0..64 / N {
                        *out |= ((row >> (N * f + c)) & 1) << (N * f + r);
                    }
                }
            }
            let mut a = orig;
            transpose(&mut a);
            assert_eq!(a, naive, "N = {N}, input {input}");
            transpose(&mut a);
            assert_eq!(a, orig, "N = {N}, input {input}");
        }
    }

    #[test]
    fn transposes_match_naive_and_are_involutive() {
        check_transpose::<16>();
        check_transpose::<64>();
    }

    fn check_planes<const N: usize>() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ N as u64;
        let mut data = [0u64; N];
        for slot in data.iter_mut() {
            let v = xorshift(&mut x);
            *slot = v >> (v % 50);
        }
        let mut planes = data;
        transpose(&mut planes);
        let mut rebuilt = [0u64; N];
        for k in 0..64u32 {
            let expect = data.iter().enumerate().fold(0u64, |p, (i, &v)| p | ((v >> k) & 1) << i);
            assert_eq!(plane(&planes, k), expect, "N {N} plane {k}");
            set_plane(&mut rebuilt, k, expect);
        }
        assert_eq!(rebuilt, planes);
    }

    #[test]
    fn planes_match_per_plane_extraction() {
        check_planes::<16>();
        check_planes::<64>();
    }

    /// Coefficient blocks for the differential tests: full-width noise,
    /// the decaying magnitudes of a transformed smooth block, one lone
    /// coefficient, all zeros.
    fn blocks<const N: usize>(kind: usize, intprec: u32, seed: u64) -> Vec<[u64; N]> {
        let mut s = seed | 1;
        (0..3)
            .map(|_| {
                std::array::from_fn(|i| {
                    let v = xorshift(&mut s) >> (64 - intprec);
                    match kind {
                        0 => v,
                        1 => v >> (i as u32 * (intprec - 1) / N as u32),
                        2 => (v | 1) * (i == (v % N as u64) as usize) as u64,
                        _ => 0,
                    }
                })
            })
            .collect()
    }

    /// New against old coder on three consecutive blocks in one stream:
    /// streams byte-equal, bit positions equal after each block on both
    /// sides, coefficients equal; then the same from the stream truncated
    /// at every byte (`truncate`) — reads past the end yield zeros on
    /// every path of both coders.
    fn check_against_reference<const N: usize>(intprec: u32, truncate: impl Fn(u32) -> bool) {
        let budgets =
            [0, 1, N - 1, N, 5 * N + 3, 55, 56, 57, 63, 64, 65, usize::MAX / 2, usize::MAX];
        for kind in 0..4 {
            for kmin in 0..=intprec {
                for budget in budgets {
                    let what = format!("N {N} kind {kind} kmin {kmin} budget {budget}");
                    let data = blocks::<N>(kind, intprec, 0x5eed ^ kmin as u64);
                    let mut new = WriteStream::new();
                    let mut old = WriteStream::new();
                    // Start off a word boundary.
                    new.write_bits(5, 3);
                    old.write_bits(5, 3);
                    for b in &data {
                        let bits = encode_ints(b, intprec, kmin, budget, &mut new);
                        assert_eq!(
                            bits,
                            reference::encode_ints(b, intprec, kmin, budget, &mut old),
                            "{what}"
                        );
                        assert_eq!(new.bit_len(), old.bit_len(), "{what}");
                    }
                    let bytes = new.into_bytes();
                    assert_eq!(bytes, old.into_bytes(), "{what}");
                    let first_cut = if truncate(kmin) { 0 } else { bytes.len() };
                    for cut in first_cut..=bytes.len() {
                        let mut rn = ReadStream::new(&bytes[..cut]);
                        let mut ro = ReadStream::new(&bytes[..cut]);
                        rn.seek(3);
                        ro.seek(3);
                        for b in &data {
                            let mut got = [u64::MAX; N];
                            let mut want = [u64::MAX; N];
                            decode_ints_into(&mut got, intprec, kmin, budget, &mut rn);
                            reference::decode_ints_into(&mut want, intprec, kmin, budget, &mut ro);
                            assert_eq!(got, want, "{what} cut {cut}");
                            assert_eq!(rn.bit_pos(), ro.bit_pos(), "{what} cut {cut}");
                            if cut == bytes.len() && budget >= N * 64 {
                                let keep = u64::MAX.checked_shl(kmin).unwrap_or(0);
                                assert_eq!(got, b.map(|v| v & keep), "{what}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rank1_coder_matches_reference() {
        check_against_reference::<4>(35, |_| true);
        check_against_reference::<4>(57, |_| true);
        check_against_reference::<4>(64, |_| true);
    }

    #[test]
    fn rank2_coder_matches_reference() {
        check_against_reference::<16>(35, |_| true);
        check_against_reference::<16>(57, |k| k % 4 == 0);
        check_against_reference::<16>(64, |k| k % 8 == 0);
    }

    #[test]
    fn rank3_coder_matches_reference() {
        check_against_reference::<64>(35, |k| k % 8 == 0);
        check_against_reference::<64>(57, |k| k % 16 == 0);
        check_against_reference::<64>(64, |k| k == 0);
    }

    #[test]
    #[should_panic(expected = "a ZFP block holds 4, 16 or 64 coefficients")]
    fn other_lengths_are_refused() {
        encode_ints(&[1, 2, 3], INTPREC, 0, usize::MAX, &mut WriteStream::new());
    }

    #[test]
    fn decode_into_reuses_buffer() {
        let values: Vec<i64> = (0..64).map(|i| (i * 31 - 990) as i64).collect();
        let nb: Vec<u64> = values.iter().map(|&v| negabinary::encode(v)).collect();
        let mut w = WriteStream::new();
        encode_ints(&nb, INTPREC, 0, usize::MAX / 2, &mut w);
        let bytes = w.into_bytes();
        let mut buf = vec![0xFFFF_FFFFu64; 64]; // stale contents must be overwritten
        let mut r = ReadStream::new(&bytes);
        decode_ints_into(&mut buf, INTPREC, 0, usize::MAX / 2, &mut r);
        let dec: Vec<i64> = buf.iter().map(|&v| negabinary::decode(v)).collect();
        assert_eq!(dec, values);
    }

    #[test]
    fn lossless_when_all_planes_coded() {
        let mut values = vec![0, 1, -1, 1000, -1000, 123456, -654321, 1 << 30];
        values.resize(16, 0);
        let rec = roundtrip(&values, 0, usize::MAX / 2);
        assert_eq!(rec, values);
    }

    #[test]
    fn all_zero_block_is_one_bit_per_plane() {
        let values = vec![0u64; 64];
        let mut w = WriteStream::new();
        let bits = encode_ints(&values, INTPREC, 0, usize::MAX / 2, &mut w);
        assert_eq!(bits as u32, INTPREC, "one group-test bit per plane");
    }

    #[test]
    fn truncated_planes_bound_error() {
        let values: Vec<i64> = (0..16).map(|i| (i * 1001 - 8000) as i64).collect();
        // Drop the lowest 8 planes: error per coefficient < 2^9 in
        // negabinary weight terms.
        let kmin = 8;
        let rec = roundtrip(&values, kmin, usize::MAX / 2);
        for (a, b) in values.iter().zip(&rec) {
            assert!((a - b).abs() < 1 << 9, "{a} vs {b}");
        }
    }

    #[test]
    fn budget_truncation_keeps_sides_in_sync() {
        let values: Vec<i64> = (0..64).map(|i| ((i * 7919) % 4001 - 2000) as i64).collect();
        for budget in [16usize, 64, 256, 1024] {
            let nb: Vec<u64> = values.iter().map(|&v| negabinary::encode(v)).collect();
            let mut w = WriteStream::new();
            let used = encode_ints(&nb, INTPREC, 0, budget, &mut w);
            assert!(used <= budget);
            let bytes = w.into_bytes();
            let mut r = ReadStream::new(&bytes);
            let rec = decode_ints(values.len(), INTPREC, 0, budget, &mut r);
            // More budget ⇒ error can only improve; with generous budget it
            // must be exact.
            if budget >= 64 * INTPREC as usize {
                let dec: Vec<i64> = rec.into_iter().map(negabinary::decode).collect();
                assert_eq!(dec, values);
            }
        }
    }

    #[test]
    fn error_decreases_with_budget() {
        let values: Vec<i64> = (0..64).map(|i| ((i * 31 + 7) % 997 - 500) as i64 * 1024).collect();
        let mut prev_err = i64::MAX;
        for budget in [64usize, 128, 512, 2048, 8192] {
            let rec = roundtrip(&values, 0, budget);
            let err: i64 = values.iter().zip(&rec).map(|(a, b)| (a - b).abs()).max().unwrap();
            assert!(err <= prev_err, "budget {budget}: err {err} > prev {prev_err}");
            prev_err = err;
        }
        assert_eq!(prev_err, 0);
    }

    #[test]
    fn sparse_significance_pattern() {
        // Only one coefficient deep in the block is nonzero: group testing
        // should code this compactly and exactly.
        let mut values = vec![0i64; 64];
        values[63] = 99;
        let nb: Vec<u64> = values.iter().map(|&v| negabinary::encode(v)).collect();
        let mut w = WriteStream::new();
        let bits = encode_ints(&nb, INTPREC, 0, usize::MAX / 2, &mut w);
        let bytes = w.into_bytes();
        let mut r = ReadStream::new(&bytes);
        let rec: Vec<i64> = decode_ints(64, INTPREC, 0, usize::MAX / 2, &mut r)
            .into_iter()
            .map(negabinary::decode)
            .collect();
        assert_eq!(rec, values);
        // 64 coefficients × 35 planes would be 2240 verbatim bits; group
        // testing should beat that by a wide margin.
        assert!(bits < 700, "bits={bits}");
    }
}
