//! The switch between the legacy writer's reference and fast arithmetic.
//!
//! The default writer, the lattice predictor, has one arithmetic: its
//! residuals are an exact integer stencil. The predictor over
//! reconstructed values that older streams carry is written only by the
//! crate's test-only legacy writer, whose predict/quantize loops and
//! Huffman emitter exist twice: the reference forms
//! ([`Quantizer::try_encode`], per-symbol [`HuffmanEncoder::encode`]) and
//! the fast forms ([`Quantizer::try_encode_fast`],
//! [`HuffmanEncoder::encode_slice`]), property-tested bit-identical. The
//! fast forms are its default; the reference forms stay as what tests
//! compare against, and as the only correct choice for a quantizer whose
//! geometry the fast rounding cannot prove exact
//! ([`Quantizer::fast_exact`]). Decoding has no switch.
//!
//! [`force_scalar`] selects the reference forms for the whole process; it
//! reaches only that legacy writer, and the default writer's bytes do not
//! depend on it. The module keeps its name, and [`force_scalar`] and
//! [`simd_available`] their places in it, because the repo benchmark
//! imports `lcpio_sz::kernels`.
//!
//! [`Quantizer::try_encode`]: crate::Quantizer::try_encode
//! [`Quantizer::try_encode_fast`]: crate::Quantizer::try_encode_fast
//! [`Quantizer::fast_exact`]: crate::Quantizer::fast_exact
//! [`HuffmanEncoder::encode`]: crate::huffman::HuffmanEncoder::encode
//! [`HuffmanEncoder::encode_slice`]: crate::huffman::HuffmanEncoder::encode_slice

use std::sync::atomic::{AtomicBool, Ordering};

static FORCED_SCALAR: AtomicBool = AtomicBool::new(false);

/// Select the reference arithmetic (`true`) or the fast arithmetic
/// (`false`, the default). Process global; intended for tests and
/// benchmarks that compare both.
pub fn force_scalar(on: bool) {
    FORCED_SCALAR.store(on, Ordering::SeqCst);
}

/// Undo [`force_scalar`]: back to the default, the fast arithmetic.
pub fn reset_force_scalar() {
    force_scalar(false);
}

/// Whether this CPU reports AVX2. Nothing in this crate depends on it; the
/// repo benchmark records it with its environment.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the fast arithmetic is selected (callers still check
/// [`crate::Quantizer::fast_exact`] for the quantizer at hand).
pub fn fast_enabled() -> bool {
    !FORCED_SCALAR.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_overrides_dispatch() {
        force_scalar(true);
        assert!(!fast_enabled());
        force_scalar(false);
        assert!(fast_enabled());
        reset_force_scalar();
    }
}
