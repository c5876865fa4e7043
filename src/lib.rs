#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # lcpio — Lossy Compressed Power-aware I/O
//!
//! Umbrella crate for the reproduction of *"Modeling Power Consumption of
//! Lossy Compressed I/O for Exascale HPC Systems"* (Wilkins & Calhoun, 2022).
//!
//! This crate re-exports the workspace members under stable module names so
//! downstream users depend on a single crate:
//!
//! * [`codec`] — the unified codec abstraction: the object-safe
//!   [`Codec`](codec::Codec) trait and the static container registry that
//!   resolves backends by name and compressed streams by magic.
//! * [`sz`] — SZ-style error-bounded lossy compressor (prediction +
//!   quantization + Huffman + lossless backend).
//! * [`zfp`] — ZFP-style transform-coding lossy compressor (block
//!   floating-point + lifted transform + embedded coding).
//! * [`datagen`] — synthetic scientific data generators mirroring the
//!   SDRBench datasets used by the paper (CESM-ATM, HACC, NYX,
//!   Hurricane-ISABEL).
//! * [`powersim`] — CPU power/DVFS/energy simulator: calibrated V–f
//!   curves, P-state snapping, and an NFS write-path model.
//! * [`fit`] — Levenberg–Marquardt non-linear least squares used to fit the
//!   paper's `P(f) = a·f^b + c` power models.
//! * [`core`] — the paper's contribution: the experiment pipeline, fitted
//!   model tables, frequency-tuning rules, and energy-savings analyses.
//! * [`serve`] — compression as a service: the `LCRQ`/`LCRS` framed
//!   request protocol (spec: `PROTOCOL.md`), the sharded daemon behind
//!   `lcpio-cli serve`, its blocking client, and the mixed-workload
//!   driver.
//!
//! ## Quickstart
//!
//! ```
//! use lcpio::prelude::*;
//!
//! // Generate a small synthetic NYX-like field and compress it through
//! // the codec registry — the stream's magic identifies the codec, so
//! // decoding never needs to know which backend produced it.
//! let field = lcpio::datagen::nyx::generate_scaled(16, 42);
//! let codec = registry().by_name("sz").unwrap();
//! let out = codec
//!     .compress(&field.data, field.dims().extents(), BoundSpec::Absolute(1e-3))
//!     .unwrap();
//! assert!(out.bytes.len() < field.data.len() * 4);
//! let (restored, _dims) = registry().decompress_auto(&out.bytes, 1).unwrap();
//! assert_eq!(restored.len(), field.data.len());
//! ```

pub mod cli;

pub use lcpio_codec as codec;
pub use lcpio_core as core;
pub use lcpio_datagen as datagen;
pub use lcpio_fit as fit;
pub use lcpio_powersim as powersim;
pub use lcpio_serve as serve;
pub use lcpio_sz as sz;
pub use lcpio_wire as wire;
pub use lcpio_zfp as zfp;

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use lcpio_codec::{registry, BoundSpec, Codec, CodecStats, Encoded};
    pub use lcpio_core::experiment::{ExperimentConfig, SweepResult};
    pub use lcpio_core::tuning::TuningRule;
    pub use lcpio_datagen::{Dataset, Field};
    pub use lcpio_fit::{powerlaw::PowerLawFit, GoodnessOfFit};
    pub use lcpio_powersim::{Chip, CpuSpec, FrequencyLadder};
    pub use lcpio_sz::{ErrorBound, SzConfig};
}
