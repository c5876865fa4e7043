//! Error-bounded linear quantization of prediction residuals.
//!
//! SZ quantizes the difference between the predicted and the actual value
//! into uniform bins of width `2·eb`. Bin index 0 is reserved as the
//! "unpredictable" escape symbol: values whose residual falls outside the
//! bin range are stored as IEEE-754 literals instead. Reconstruction adds
//! `code · 2·eb` to the prediction, so every reconstructed value is within
//! `eb` of the original — the absolute error bound guarantee.

/// Linear quantizer with a configurable bin radius.
#[derive(Debug, Clone, Copy)]
pub struct Quantizer {
    /// Absolute error bound (half the bin width).
    eb: f64,
    /// Number of bins on each side of zero. Symbol alphabet is
    /// `0 ..= 2*radius`, with 0 = escape and `radius` = zero residual.
    radius: u32,
    /// Cached `2·eb` (bin width) for the fast encode paths.
    twoeb: f64,
    /// Cached `radius − 0.5`: the escape threshold in residual space.
    radm: f64,
}

/// `1.5·2^52`: adding it to `|x| < 2^51` rounds `x` to the nearest integer
/// `k` (ties to even) and leaves `k`, in two's complement, in the low
/// mantissa bits of the sum.
const MAGIC: f64 = 6_755_399_441_055_744.0;

/// Outcome of quantizing one residual.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantized {
    /// In-range residual; payload is the Huffman symbol (`1..=2*radius`).
    Code(u32),
    /// Residual too large; the original value must be stored verbatim.
    Unpredictable,
}

impl Quantizer {
    /// Default bin radius used by SZ (65536 bins total on each side covers
    /// virtually every predictable residual).
    pub const DEFAULT_RADIUS: u32 = 32768;

    /// Largest accepted bin radius. The decoder's Huffman table and its
    /// setup scans are O(2·radius), so the radius recorded in a stream
    /// header must be bounded independent of what the header claims — an
    /// unchecked value near `u32::MAX` costs gigabytes of allocation and
    /// minutes of table scans per chunk. 32× the default leaves ample
    /// headroom for custom configs while keeping that work trivial.
    pub const MAX_RADIUS: u32 = 1 << 20;

    /// Create a quantizer. `eb` must be positive and finite; `radius`
    /// must be in `1..=MAX_RADIUS`.
    pub fn new(eb: f64, radius: u32) -> Self {
        assert!(eb > 0.0 && eb.is_finite(), "error bound must be positive");
        assert!((1..=Self::MAX_RADIUS).contains(&radius));
        Quantizer { eb, radius, twoeb: 2.0 * eb, radm: radius as f64 - 0.5 }
    }

    /// The configured absolute error bound.
    pub fn error_bound(&self) -> f64 {
        self.eb
    }

    /// The configured bin radius.
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// True when [`Quantizer::try_encode_fast`] reproduces
    /// [`Quantizer::try_encode`] bit for bit: the bin width `2·eb` must be
    /// finite (otherwise `q·(2·eb) ≠ (q·2)·eb`) and the radius small enough
    /// for exact f64 ↔ i32 symbol conversion.
    #[inline]
    pub fn fast_exact(&self) -> bool {
        self.twoeb.is_finite() && self.radius <= (1 << 30)
    }

    /// Number of symbols in the quantizer alphabet (escape + bins).
    pub fn alphabet_size(&self) -> usize {
        2 * self.radius as usize + 1
    }

    /// Quantize `actual - predicted`.
    #[inline]
    pub fn quantize(&self, predicted: f64, actual: f64) -> Quantized {
        let diff = actual - predicted;
        if !diff.is_finite() {
            return Quantized::Unpredictable;
        }
        // Round-to-nearest bin of width 2·eb.
        let q = (diff / (2.0 * self.eb)).round();
        if q.abs() >= self.radius as f64 {
            return Quantized::Unpredictable;
        }
        Quantized::Code((q as i64 + self.radius as i64) as u32)
    }

    /// Fused quantize + reconstruct for the encoder hot loop: one residual
    /// scaling shared by both halves, no enum round-trip. Returns the
    /// symbol and the reconstructed value, or `None` when the residual
    /// escapes to a literal. Bit-identical to
    /// `quantize` followed by `reconstruct` (the bin index round-trips
    /// exactly through i64).
    #[inline]
    pub fn try_encode(&self, predicted: f64, actual: f64) -> Option<(u32, f64)> {
        let diff = actual - predicted;
        if !diff.is_finite() {
            return None;
        }
        let q = (diff / (2.0 * self.eb)).round();
        if q.abs() >= self.radius as f64 {
            return None;
        }
        let sym = (q as i64 + self.radius as i64) as u32;
        Some((sym, predicted + q * 2.0 * self.eb))
    }

    /// Fast-path fused quantize + reconstruct: one residual-space range
    /// check (`|x| < radius − 0.5` is exactly the escape condition under
    /// round-half-away, and non-finite residuals fail it too), then three
    /// identities in place of `round`, the `i64` cast and its saturation:
    ///
    /// * `ym = x + MAGIC; y = ym − MAGIC` is `x` rounded to the nearest
    ///   integer, ties to even. `y` is within 0.5 of `x`, so `x − y` is
    ///   exact and a tie shows as `|x − y| == 0.5`; everywhere else `y` is
    ///   what rounding half away gives.
    /// * `y.copysign(x)` is that integer with the sign [`f64::round`]
    ///   keeps on a zero result (`x < 0` implies `y ≤ 0`, so nothing else
    ///   changes), and the sign decides `−0.0 + q·2eb`.
    /// * the low 32 bits of `ym` are `y` in two's complement for
    ///   `|y| < 2^31`, and [`Quantizer::fast_exact`] bounds the radius at
    ///   `2^30`.
    ///
    /// Requires [`Quantizer::fast_exact`]; bit-identical to
    /// [`Quantizer::try_encode`]: symbols, reconstructed bit patterns and
    /// escape decisions all match.
    #[inline]
    pub fn try_encode_fast(&self, predicted: f64, actual: f64) -> Option<(u32, f64)> {
        debug_assert!(self.fast_exact());
        let x = (actual - predicted) / self.twoeb;
        // Negated compare on purpose: a NaN residual fails `< radm` and
        // must take the escape branch, which `>=` would not preserve.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(x.abs() < self.radm) {
            return None;
        }
        let ym = x + MAGIC;
        let y = ym - MAGIC;
        if (x - y).abs() == 0.5 {
            return Some(self.encode_tie(predicted, x));
        }
        let sym = (ym.to_bits() as u32).wrapping_add(self.radius);
        Some((sym, predicted + y.copysign(x) * self.twoeb))
    }

    /// [`Quantizer::try_encode_fast`] for a residual exactly halfway
    /// between two bins, which real data does not produce: the reference's
    /// own rounding, out of line.
    #[cold]
    #[inline(never)]
    fn encode_tie(&self, predicted: f64, x: f64) -> (u32, f64) {
        let q = x.round();
        ((q as i64 + self.radius as i64) as u32, predicted + q * self.twoeb)
    }

    /// What a code's bin adds to the prediction: `(symbol − radius)·2·eb`.
    /// It does not depend on the prediction, so a decoder can have it
    /// ready before the prediction is. `symbol` must be at most
    /// `2·radius`: the bin index is taken in 32 bits (codes end at 2^21),
    /// which is what lets a loop over symbols convert several at once.
    #[inline]
    pub fn offset(&self, symbol: u32) -> f64 {
        let q = symbol as i32 - self.radius as i32;
        q as f64 * 2.0 * self.eb
    }

    /// Reconstruct a value from its prediction and symbol.
    #[inline]
    pub fn reconstruct(&self, predicted: f64, symbol: u32) -> f64 {
        predicted + self.offset(symbol)
    }

    /// True if `symbol` is a valid in-range code (not the escape).
    pub fn is_code(&self, symbol: u32) -> bool {
        symbol >= 1 && symbol <= 2 * self.radius
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_residual_gets_zero_symbol() {
        let q = Quantizer::new(1e-3, 512);
        match q.quantize(5.0, 5.0) {
            Quantized::Code(c) => assert_eq!(c, q.radius()),
            _ => panic!("zero residual must be predictable"),
        }
    }

    #[test]
    fn reconstruction_respects_error_bound() {
        let eb = 1e-2;
        let q = Quantizer::new(eb, 1024);
        for (pred, actual) in [(0.0, 0.37), (10.0, 9.81), (-5.0, -5.004), (1.0, 1.0)] {
            if let Quantized::Code(c) = q.quantize(pred, actual) {
                let rec = q.reconstruct(pred, c);
                assert!((rec - actual).abs() <= eb + 1e-12, "pred={pred} actual={actual} rec={rec}");
            } else {
                panic!("residual {} should be in range", actual - pred);
            }
        }
    }

    #[test]
    fn large_residual_is_unpredictable() {
        let q = Quantizer::new(1e-3, 16);
        assert_eq!(q.quantize(0.0, 1.0), Quantized::Unpredictable);
        assert_eq!(q.quantize(0.0, -1.0), Quantized::Unpredictable);
    }

    #[test]
    fn non_finite_residual_is_unpredictable() {
        let q = Quantizer::new(1e-3, 16);
        assert_eq!(q.quantize(0.0, f64::NAN), Quantized::Unpredictable);
        assert_eq!(q.quantize(0.0, f64::INFINITY), Quantized::Unpredictable);
    }

    #[test]
    fn alphabet_and_escape() {
        let q = Quantizer::new(0.5, 4);
        assert_eq!(q.alphabet_size(), 9);
        assert!(!q.is_code(0));
        assert!(q.is_code(1));
        assert!(q.is_code(8));
        assert!(!q.is_code(9));
    }

    #[test]
    #[should_panic(expected = "error bound must be positive")]
    fn zero_eb_rejected() {
        let _ = Quantizer::new(0.0, 8);
    }

    /// `try_encode_fast` against `try_encode`: the same escape decision,
    /// symbol and reconstructed bits.
    fn assert_fast_matches_reference(q: &Quantizer, pred: f64, actual: f64) {
        assert!(q.fast_exact());
        let what = || format!("{q:?} pred {pred:e} actual {actual:e}");
        match (q.try_encode_fast(pred, actual), q.try_encode(pred, actual)) {
            (Some((fs, fr)), Some((ss, sr))) => {
                assert_eq!(fs, ss, "{}", what());
                assert_eq!(fr.to_bits(), sr.to_bits(), "{}", what());
            }
            (None, None) => {}
            (a, b) => panic!("{}: fast {a:?} vs reference {b:?}", what()),
        }
    }

    fn ulp_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    fn ulp_down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    #[test]
    fn try_encode_fast_matches_reference_at_escape_boundary() {
        // eb = 0.5: the residual in bins is the difference itself, so every
        // probe below is exact.
        for radius in [1, 16, Quantizer::DEFAULT_RADIUS, Quantizer::MAX_RADIUS] {
            let q = Quantizer::new(0.5, radius);
            let edge = radius as f64 - 0.5; // escape iff |x| ≥ edge
            let mut probes = vec![edge, ulp_down(edge), ulp_up(edge), edge - 1.0, edge + 1.0];
            // Ties: k ± 0.5 for odd and even k (ties-to-even and half-away
            // part ways on every other one), near zero and near the edge.
            for k in [0.0, 1.0, 2.0, 3.0, 4.0, 7.0, 8.0, edge - 1.5, edge - 2.5] {
                probes.extend([k + 0.5, k - 0.5, ulp_up(k + 0.5), ulp_down(k + 0.5)]);
            }
            // Zero results: `round` keeps the residual's sign on them.
            probes.extend([0.0, 0.25, 0.49999999999999994, 1e-308, 5e-324, f64::MIN_POSITIVE]);
            probes.extend([1125899906842623.5, f64::MAX, f64::INFINITY, f64::NAN]);
            for x in probes {
                for x in [x, -x] {
                    for pred in [0.0, -0.0] {
                        assert_fast_matches_reference(&q, pred, x);
                    }
                    // A prediction the residual is not exact against.
                    assert_fast_matches_reference(&q, 3.0, x + 3.0);
                    assert_fast_matches_reference(&q, -1e6, x - 1e6);
                }
            }
        }
        // Non-finite input escapes on both paths.
        let q = Quantizer::new(0.5, 16);
        assert_eq!(q.try_encode_fast(0.0, f64::NAN), None);
        assert_eq!(q.try_encode_fast(0.0, f64::INFINITY), None);
        assert_eq!(q.try_encode_fast(0.0, 15.5), None);
        assert_eq!(q.try_encode_fast(-0.0, -0.25).map(|(s, r)| (s, r.to_bits())), Some((16, (-0.0f64).to_bits())));
    }

    #[test]
    fn try_encode_fast_matches_reference_at_extreme_bin_widths() {
        // Bin widths next to the subnormals and next to overflow: the
        // division gives subnormal, huge and infinite residuals.
        for eb in [5e-324, f64::MIN_POSITIVE / 2.0, f64::MIN_POSITIVE, 1e-300, 1e300, f64::MAX / 2.0] {
            for radius in [1, Quantizer::DEFAULT_RADIUS, Quantizer::MAX_RADIUS] {
                let q = Quantizer::new(eb, radius);
                for bins in [0.0, 0.25, 0.5, 1.0, 1.5, 2.5, 1000.5, radius as f64 - 0.5, radius as f64] {
                    for diff in [bins * (2.0 * eb), -bins * (2.0 * eb)] {
                        for pred in [0.0, -0.0, eb, -3.0 * eb] {
                            assert_fast_matches_reference(&q, pred, pred + diff);
                        }
                    }
                }
            }
        }
        assert!(!Quantizer::new(f64::MAX, 4).fast_exact());
    }

    proptest! {
        #[test]
        fn prop_try_encode_fast_is_bit_identical(
            pred in prop_oneof![6 => -1e6f64..1e6, 1 => Just(0.0f64), 1 => Just(-0.0f64)],
            // The residual in bins: anywhere, or (one case in four) on a tie.
            bins in prop_oneof![4 => -1e2f64..1e2, 1 => -0.5f64..0.5, 1 => -2e6f64..2e6],
            tie in -70_000i32..70_000,
            on_tie in 0u8..4,
            eb_exp in -6i32..0,
            radius in prop_oneof![
                Just(1u32),
                Just(Quantizer::DEFAULT_RADIUS),
                Just(Quantizer::MAX_RADIUS),
            ],
        ) {
            let eb = 10f64.powi(eb_exp);
            let q = Quantizer::new(eb, radius);
            let bins = if on_tie == 0 { tie as f64 + 0.5 } else { bins };
            assert_fast_matches_reference(&q, pred, pred + bins * (2.0 * eb));
            // The same residual with nothing lost to the bin width.
            assert_fast_matches_reference(&Quantizer::new(0.5, radius), pred, pred + bins);
        }

        #[test]
        fn prop_error_bound_guarantee(
            pred in -1e6f64..1e6,
            residual in -1e3f64..1e3,
            eb_exp in -6i32..0,
        ) {
            let eb = 10f64.powi(eb_exp);
            let q = Quantizer::new(eb, Quantizer::DEFAULT_RADIUS);
            let actual = pred + residual;
            if let Quantized::Code(c) = q.quantize(pred, actual) {
                let rec = q.reconstruct(pred, c);
                // Allow tiny slack for f64 rounding in reconstruct().
                prop_assert!((rec - actual).abs() <= eb * (1.0 + 1e-9) + 1e-12);
            }
        }

        #[test]
        fn prop_try_encode_matches_two_step(
            pred in -1e6f64..1e6,
            residual in -1e4f64..1e4,
        ) {
            let q = Quantizer::new(1e-3, 1024);
            let actual = pred + residual;
            match (q.try_encode(pred, actual), q.quantize(pred, actual)) {
                (Some((sym, rec)), Quantized::Code(c)) => {
                    prop_assert_eq!(sym, c);
                    prop_assert_eq!(rec.to_bits(), q.reconstruct(pred, c).to_bits());
                }
                (None, Quantized::Unpredictable) => {}
                (a, b) => prop_assert!(false, "fused/two-step disagree: {:?} vs {:?}", a, b),
            }
        }

        #[test]
        fn prop_symbols_in_alphabet(
            pred in -1e3f64..1e3,
            actual in -1e3f64..1e3,
        ) {
            let q = Quantizer::new(1e-2, 256);
            if let Quantized::Code(c) = q.quantize(pred, actual) {
                prop_assert!(q.is_code(c), "symbol {c} out of range");
            }
        }
    }
}
