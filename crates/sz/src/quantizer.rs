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
    /// The lattice predictor's spacing, `2·eb·`[`LATTICE_SHRINK`].
    step: f64,
    /// Cached `1 / step`: what the lattice predictor scales values by.
    inv_step: f64,
}

/// `1.5·2^52`: adding it to `|x| < 2^51` rounds `x` to the nearest integer
/// `k` (ties to even) and leaves `k`, in two's complement, in the low
/// mantissa bits of the sum.
const MAGIC: f64 = 6_755_399_441_055_744.0;

/// `2^51`: the reach of [`MAGIC`], and of the lattice indices a stream holds.
const LATTICE_REACH: f64 = 2_251_799_813_685_248.0;

/// `1 − 2^-10`: the lattice is a hair finer than the bins of `2·eb`. A value
/// is then within `eb·(1 − 2^-10)` of its lattice point, which leaves
/// `eb·2^-10` for narrowing that point to `f32`: half an ulp of any value
/// below `2^14·eb`, so there no element escapes by the narrowing. An `f32`
/// on a bin midpoint of the `2·eb` grid (data stored on a decimal grid of
/// step `eb`) misses both neighbours on that grid by a few ulps; here it has
/// a lattice point within the bound.
const LATTICE_SHRINK: f64 = 1.0 - 1.0 / 1024.0;

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
        let step = 2.0 * eb * LATTICE_SHRINK;
        Quantizer { eb, radius, step, inv_step: 1.0 / step }
    }

    /// The configured absolute error bound.
    pub fn error_bound(&self) -> f64 {
        self.eb
    }

    /// The configured bin radius.
    pub fn radius(&self) -> u32 {
        self.radius
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

    /// Fused quantize + reconstruct, what the writer of predictor bytes 0
    /// and 1 quantizes with: one residual scaling shared by both halves, no
    /// enum round-trip. Returns the
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

    /// The lattice point of `x`: `k`, the integer nearest `x·(1/step)` (ties
    /// to even, through [`MAGIC`]; `step` is `2·eb·`[`LATTICE_SHRINK`]), and
    /// `k·step`, the value a decoder writes for it. `(0, NaN)` where
    /// `x·(1/step)` is not finite or not below `2^51`, so that no value out
    /// of reach passes an error check.
    /// Branch-free, so a loop over values vectorises.
    #[inline]
    pub(crate) fn snap(&self, x: f64) -> (i64, f64) {
        let y = x * self.inv_step;
        let ym = y + MAGIC;
        let k = (ym.to_bits() as i64).wrapping_sub(MAGIC.to_bits() as i64);
        let inside = y.abs() < LATTICE_REACH;
        (if inside { k } else { 0 }, if inside { (ym - MAGIC) * self.step } else { f64::NAN })
    }

    /// `k·step`: the value of lattice point `k`, equal to what
    /// [`Quantizer::snap`] gives for every `|k| ≤ 2^51` (all an encoder
    /// writes). `k` goes to `f64` by the inverse of the [`MAGIC`] trick,
    /// which vectorises where `k as f64` does not; past `2^51`, which only
    /// a forged stream reaches, the value is garbage and not a panic.
    #[inline]
    pub(crate) fn lattice_value(&self, k: i64) -> f64 {
        (f64::from_bits((k as u64).wrapping_add(MAGIC.to_bits())) - MAGIC) * self.step
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

    proptest! {
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
