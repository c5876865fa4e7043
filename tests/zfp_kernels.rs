//! Property tests for the word-level ZFP kernels through their public
//! entries: the 64-bit-buffered bitstream against its retained
//! bit-at-a-time reference, the const-generic transform against the
//! generic lane walker, and the block coder's slice entries against what
//! they must give back. (The coder's own reference is `#[cfg(test)]`, so
//! its differential tests live in `lcpio-zfp`.)

use lcpio::zfp::bitstream::reference::{RefReadStream, RefWriteStream};
use lcpio::zfp::bitstream::{ReadStream, WriteStream};
use lcpio::zfp::{coder, transform};
use proptest::prelude::*;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of write_bit / write_bits (widths 0–64) /
    /// pad_to produce byte-identical output and identical running bit_len
    /// and write_bits return values on both stream implementations.
    #[test]
    fn write_stream_matches_reference(seed in any::<u64>(), ops in 1usize..300) {
        let mut s = seed | 1;
        let mut w = WriteStream::new();
        let mut r = RefWriteStream::new();
        for _ in 0..ops {
            let x = xorshift(&mut s);
            match x % 8 {
                0 => {
                    let bit = x & 16 != 0;
                    w.write_bit(bit);
                    r.write_bit(bit);
                }
                7 => {
                    // pad forward up to 70 bits past the current end.
                    let target = r.bit_len() + (x >> 8) as usize % 70;
                    w.pad_to(target);
                    r.pad_to(target);
                }
                _ => {
                    let n = (x >> 32) as usize % 65;
                    let v = xorshift(&mut s);
                    prop_assert_eq!(w.write_bits(v, n), r.write_bits(v, n));
                }
            }
            prop_assert_eq!(w.bit_len(), r.bit_len());
        }
        prop_assert_eq!(w.into_bytes(), r.into_bytes());
    }

    /// Random interleavings of read_bit / read_bits / seek return identical
    /// values and positions on both readers, including reads that run past
    /// the end of the buffer (which must yield zeros).
    #[test]
    fn read_stream_matches_reference(
        seed in any::<u64>(),
        buf in proptest::collection::vec(any::<u8>(), 0..200),
        ops in 1usize..300,
    ) {
        let mut s = seed | 1;
        let mut r = ReadStream::new(&buf);
        let mut rr = RefReadStream::new(&buf);
        let limit = buf.len() * 8 + 130; // roam past the end on purpose
        for _ in 0..ops {
            let x = xorshift(&mut s);
            match x % 4 {
                0 => prop_assert_eq!(r.read_bit(), rr.read_bit()),
                3 => {
                    let to = (x >> 8) as usize % limit;
                    r.seek(to);
                    rr.seek(to);
                }
                _ => {
                    let n = (x >> 32) as usize % 65;
                    prop_assert_eq!(r.read_bits(n), rr.read_bits(n));
                }
            }
            prop_assert_eq!(r.bit_pos(), rr.bit_pos());
        }
    }

    /// peek_bits / advance / scan_unary agree with what a reference reader
    /// observes bit by bit: peeking never moves the cursor, and a unary
    /// scan consumes through the first 1 bit (or all n zeros).
    #[test]
    fn peek_and_scan_match_reference(
        seed in any::<u64>(),
        buf in proptest::collection::vec(any::<u8>(), 0..100),
        ops in 1usize..200,
    ) {
        let mut s = seed | 1;
        let mut r = ReadStream::new(&buf);
        let mut rr = RefReadStream::new(&buf);
        for _ in 0..ops {
            let x = xorshift(&mut s);
            let n = (x >> 32) as usize % 65;
            if x.is_multiple_of(2) {
                // Peek, verify against a lookahead, then advance.
                let peeked = r.peek_bits(n);
                let mut look = rr.clone();
                prop_assert_eq!(peeked, look.read_bits(n));
                prop_assert_eq!(r.bit_pos(), rr.bit_pos());
                r.advance(n);
                rr.seek(rr.bit_pos() + n);
            } else {
                let chunk = rr.read_bits(n);
                let expect = if chunk != 0 {
                    let z = chunk.trailing_zeros() as usize;
                    (z + 1, z)
                } else {
                    (n, n)
                };
                rr.seek(rr.bit_pos() - n + expect.0);
                prop_assert_eq!(r.scan_unary(n), expect);
            }
            prop_assert_eq!(r.bit_pos(), rr.bit_pos());
        }
    }

    /// The slice entries of the block coder, as the repo benchmark calls
    /// them (budget `usize::MAX` included): blocks of every size written
    /// back to back decode to their coefficients with the planes below
    /// `kmin` cleared, both sides ending on the same bit.
    #[test]
    fn coder_slice_entries_round_trip(
        seed in any::<u64>(),
        d in 1u32..4,
        intprec in 1u32..65,
        cut in 0u32..65,
        unbounded in any::<bool>(),
    ) {
        let mut s = seed | 1;
        let n = 4usize.pow(d);
        let kmin = cut % (intprec + 1);
        let budget = if unbounded { usize::MAX } else { 64 * n };
        let blocks: Vec<Vec<u64>> = (0..3)
            .map(|_| {
                (0..n)
                    .map(|i| (xorshift(&mut s) >> (64 - intprec)) >> (i % 7 * 5 % intprec as usize))
                    .collect()
            })
            .collect();
        let mut w = WriteStream::new();
        let mut bits = 0;
        for b in &blocks {
            bits += coder::encode_ints(b, intprec, kmin, budget, &mut w);
            prop_assert_eq!(w.bit_len(), bits);
        }
        let bytes = w.into_bytes();
        let mut r = ReadStream::new(&bytes);
        let keep = u64::MAX.checked_shl(kmin).unwrap_or(0);
        for b in &blocks {
            let mut got = vec![u64::MAX; n];
            coder::decode_ints_into(&mut got, intprec, kmin, budget, &mut r);
            let want: Vec<u64> = b.iter().map(|&v| v & keep).collect();
            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(r.bit_pos(), bits);
    }

    /// The const-generic transform kernels are exact drop-ins for the
    /// generic lane-walking path, forward and inverse, for d = 1, 2, 3.
    #[test]
    fn specialized_transform_matches_generic(seed in any::<u64>(), d in 1usize..4) {
        let mut s = seed | 1;
        let n = 4usize.pow(d as u32);
        let mut fast: Vec<i64> = (0..n).map(|_| (xorshift(&mut s) as i64) >> 31).collect();
        let mut slow = fast.clone();
        transform::forward(&mut fast, d);
        transform::forward_generic(&mut slow, d);
        prop_assert_eq!(&fast, &slow);
        transform::inverse(&mut fast, d);
        transform::inverse_generic(&mut slow, d);
        prop_assert_eq!(&fast, &slow);
    }
}
