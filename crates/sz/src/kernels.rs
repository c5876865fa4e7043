//! What is left of the switch between two arithmetics: nothing it selects.
//!
//! Every writer in this crate has one arithmetic. The default writer, the
//! lattice predictor, codes an exact integer stencil; the crate's test-only
//! legacy writer, which writes the predictor over reconstructed values that
//! older streams carry, quantizes through [`Quantizer::try_encode`]. Both
//! emit their symbols through the batched
//! [`HuffmanEncoder::encode_slice`]. Decoding has no switch either.
//!
//! The three functions below select nothing. They keep their names and
//! this module its place because the repo benchmark imports them from
//! `lcpio_sz::kernels`; they go together with the benchmark rows that read
//! them.
//!
//! [`Quantizer::try_encode`]: crate::Quantizer::try_encode
//! [`HuffmanEncoder::encode_slice`]: crate::huffman::HuffmanEncoder::encode_slice

/// Selects nothing: once chose between two arithmetics of the legacy
/// writer, which now has one. Kept for the repo benchmark's imports.
pub fn force_scalar(_on: bool) {}

/// Selects nothing, like [`force_scalar`]. Kept for the repo benchmark's
/// imports.
pub fn reset_force_scalar() {}

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
