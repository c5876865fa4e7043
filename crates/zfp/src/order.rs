//! Coefficient ordering by total sequency.
//!
//! After the transform, low-frequency coefficients carry most energy. The
//! embedded coder visits coefficients in order of increasing *total
//! sequency* (the sum of per-axis frequencies), so significant bits appear
//! early in the stream and truncation discards the least important data
//! first. The permutation only needs to be identical on both sides; ties
//! are broken by linear index, matching the spirit of ZFP's static tables.
//! It is a compile-time table per block size, fused with the negabinary
//! conversion into one pass over the block.

use crate::negabinary;

/// The sequency permutation of a block of `N = 4^d` coefficients:
/// `perm[rank] = index`, ascending in `(x + y + z, index)`.
const fn sequency_order<const N: usize>() -> [u8; N] {
    let mut perm = [0u8; N];
    let mut rank = 0;
    let mut sequency = 0;
    while rank < N {
        let mut i = 0;
        while i < N {
            if i % 4 + (i / 4) % 4 + i / 16 == sequency {
                perm[rank] = i as u8;
                rank += 1;
            }
            i += 1;
        }
        sequency += 1;
    }
    perm
}

/// Carrier of the per-size table (a `const` cannot itself be generic).
struct Order<const N: usize>;

impl<const N: usize> Order<N> {
    const PERM: [u8; N] = sequency_order::<N>();
}

/// Gather into sequency order and convert: `out[r] = negabinary(data[perm[r]])`.
#[inline]
pub fn apply_negabinary<const N: usize>(data: &[i64; N], out: &mut [u64; N]) {
    for (o, p) in out.iter_mut().zip(Order::<N>::PERM) {
        *o = negabinary::encode(data[p as usize]);
    }
}

/// Inverse of [`apply_negabinary`]: `out[perm[r]] = signed(data[r])`.
#[inline]
pub fn invert_negabinary<const N: usize>(data: &[u64; N], out: &mut [i64; N]) {
    for (&v, p) in data.iter().zip(Order::<N>::PERM) {
        out[p as usize] = negabinary::decode(v);
    }
}

/// The permutation as the per-call sort the tables replaced.
#[cfg(test)]
pub(crate) mod reference {
    /// `perm[rank] = index` for a 4^d block.
    pub(crate) fn permutation(d: usize) -> Vec<usize> {
        let n = 4usize.pow(d as u32);
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by_key(|&i| {
            let (x, y, z) = match d {
                1 => (i, 0, 0),
                2 => (i % 4, i / 4, 0),
                _ => (i % 4, (i / 4) % 4, i / 16),
            };
            (x + y + z, i)
        });
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::reference::permutation;
    use super::*;

    fn table<const N: usize>() -> Vec<usize> {
        Order::<N>::PERM.iter().map(|&p| p as usize).collect()
    }

    #[test]
    fn tables_match_the_sorted_permutation() {
        assert_eq!(table::<4>(), permutation(1));
        assert_eq!(table::<4>(), vec![0, 1, 2, 3]);
        assert_eq!(table::<16>(), permutation(2));
        assert_eq!(table::<64>(), permutation(3));
    }

    #[test]
    fn permutation_is_a_bijection() {
        for p in [table::<4>(), table::<16>(), table::<64>()] {
            let mut seen = vec![false; p.len()];
            for &i in &p {
                assert!(!seen[i]);
                seen[i] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn dc_first_and_highest_frequency_last() {
        for p in [table::<4>(), table::<16>(), table::<64>()] {
            assert_eq!(p[0], 0);
            assert_eq!(*p.last().unwrap(), p.len() - 1);
        }
    }

    #[test]
    fn sequency_is_monotone() {
        let seq = |i: usize| (i % 4) + (i / 4) % 4 + i / 16;
        for w in table::<64>().windows(2) {
            assert!(seq(w[0]) <= seq(w[1]));
        }
    }

    #[test]
    fn apply_invert_roundtrip() {
        fn check<const N: usize>() {
            let data: [i64; N] = std::array::from_fn(|i| i as i64 * 7 - 30);
            let (mut fwd, mut back) = ([0u64; N], [0i64; N]);
            apply_negabinary(&data, &mut fwd);
            for (r, &p) in table::<N>().iter().enumerate() {
                assert_eq!(fwd[r], negabinary::encode(data[p]));
            }
            invert_negabinary(&fwd, &mut back);
            assert_eq!(back, data);
        }
        check::<4>();
        check::<16>();
        check::<64>();
    }
}
