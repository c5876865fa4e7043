//! Per-chunk codec/DVFS policy layer.
//!
//! Every chunk that flows through the pipeline is assigned a [`ChunkPlan`]
//! — which codec to run, at what error bound, and at what simulated CPU
//! frequency — by a [`ChunkPolicy`]. The policies in this crate are the
//! ones that need nothing beyond the codecs themselves:
//!
//! * [`FixedPolicy`] reproduces the legacy behaviour: one codec, one
//!   bound, one frequency for every chunk (byte-identical output to the
//!   pre-policy pipeline).
//! * [`HeuristicPolicy`] samples each chunk cheaply — second-difference
//!   smoothness plus the SZ predictor hit ratio on a small contiguous
//!   window — and routes smooth/predictable chunks to SZ and rough ones
//!   to ZFP.
//!
//! The energy-aware `ParetoAdaptive` policy lives in `lcpio-core`
//! (`core::policy`), because it needs the fitted power models and the
//! Pareto machinery that sit above this crate in the dependency graph.
//!
//! Chunk codec ids are also what the per-frame codec-tag TLV
//! ([`lcpio_wire::tag::CODEC_TAGS`]) carries on the wire, one byte per
//! frame, so a single LCW1 container can hold mixed-codec chunks.

use crate::{registry, BoundSpec, CodecStats};

/// Wire-stable codec identifier, one byte per chunk on the wire.
///
/// `Raw` tags a chunk stored as uncompressed little-endian `f32`s (the
/// pipeline's fallback framing); the other ids name registry codecs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CodecId {
    /// Uncompressed little-endian f32 payload (pipeline raw fallback).
    Raw = 0,
    /// The SZ prediction + quantization codec.
    Sz = 1,
    /// The ZFP transform codec.
    Zfp = 2,
}

impl CodecId {
    /// Every id, in wire order.
    pub const ALL: [CodecId; 3] = [CodecId::Raw, CodecId::Sz, CodecId::Zfp];

    /// Decode a wire tag byte. Unknown ids are `None` — the decode path
    /// turns that into a typed error, never a panic.
    pub fn from_u8(v: u8) -> Option<CodecId> {
        match v {
            0 => Some(CodecId::Raw),
            1 => Some(CodecId::Sz),
            2 => Some(CodecId::Zfp),
            _ => None,
        }
    }

    /// The wire tag byte.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Registry name for compressing codecs (`"raw"` for the fallback).
    pub fn name(self) -> &'static str {
        match self {
            CodecId::Raw => "raw",
            CodecId::Sz => "sz",
            CodecId::Zfp => "zfp",
        }
    }
}

/// The per-chunk decision a policy hands to the pipeline: codec, error
/// bound, and the simulated DVFS frequency the energy model should
/// attribute the chunk's compression work at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkPlan {
    /// Codec to compress this chunk with.
    pub codec: CodecId,
    /// Error bound for this chunk.
    pub bound: BoundSpec,
    /// Simulated CPU frequency (GHz) for the chunk's compression phase.
    pub f_ghz: f64,
}

/// A per-chunk codec/frequency decision procedure.
///
/// `plan` must be a *pure function* of the chunk contents and sequence
/// number: the pipeline calls it once per chunk before streaming begins
/// (the wire header carries the per-frame codec tags up front), and the
/// sequential and overlapped paths must produce byte-identical containers.
pub trait ChunkPolicy: Send + Sync {
    /// Short policy name (`"fixed"`, `"heuristic"`, `"adaptive"`).
    fn name(&self) -> &'static str;

    /// Decide the plan for chunk `seq` with contents `chunk`.
    fn plan(&self, chunk: &[f32], seq: usize) -> ChunkPlan;
}

/// The legacy behaviour as a policy: every chunk gets the same plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedPolicy {
    /// The plan applied to every chunk.
    pub plan: ChunkPlan,
}

impl FixedPolicy {
    /// Fixed policy for one codec/bound/frequency triple.
    pub fn new(codec: CodecId, bound: BoundSpec, f_ghz: f64) -> Self {
        FixedPolicy { plan: ChunkPlan { codec, bound, f_ghz } }
    }
}

impl ChunkPolicy for FixedPolicy {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn plan(&self, _chunk: &[f32], _seq: usize) -> ChunkPlan {
        self.plan
    }
}

/// Elements sampled (as one contiguous window) per chunk by the
/// estimators. A window keeps the SZ predictor's locality intact, unlike
/// a strided sample, and caps the planning cost at a small fraction of
/// the chunk's compression time.
pub const SAMPLE_WINDOW: usize = 2048;

/// Ranges below this are treated as "constant field": smaller than any
/// normal f64, so subnormal-only and constant chunks take the same guarded
/// path instead of dividing by a (sub)normal-zero range.
const MIN_RANGE: f64 = f64::MIN_POSITIVE;

/// Steepness of the smoothness curve: decorrelated noise has
/// `mean|Δ²x| / range ≈ 0.5`, which must land well below any routing
/// threshold, while smooth fields (relative curvature ≲ 1e-2) stay near 1.
const SMOOTHNESS_GAIN: f64 = 8.0;

/// Second-difference smoothness of a chunk, in `[0, 1]` and always finite.
///
/// Computed as `1 / (1 + 8 · mean|Δ²x| / range)` over the finite
/// elements: 1.0 for fields a linear predictor nails exactly, falling
/// toward 0 as neighbouring values decorrelate (iid noise scores ≈ 0.2).
/// The guarded cases all return exact constants rather than NaN:
///
/// * empty, single-element, or two-element chunks → 1.0 (nothing to
///   predict across);
/// * constant chunks (range 0) → 1.0;
/// * all-NaN chunks (no finite triple) → 1.0 — deterministic, and the
///   codec choice is irrelevant for a field with no finite content;
/// * subnormal-only chunks (range below `MIN_RANGE`) → 1.0, avoiding a
///   subnormal/subnormal division.
pub fn smoothness(chunk: &[f32]) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in chunk {
        let x = x as f64;
        if x.is_finite() {
            lo = lo.min(x);
            hi = hi.max(x);
        }
    }
    let range = hi - lo; // NaN if no finite element was seen
    if !range.is_finite() || range < MIN_RANGE {
        return 1.0;
    }
    let mut sum = 0.0f64;
    let mut n = 0u64;
    for w in chunk.windows(3) {
        let (a, b, c) = (w[0] as f64, w[1] as f64, w[2] as f64);
        let d2 = a - 2.0 * b + c;
        if d2.is_finite() {
            sum += d2.abs();
            n += 1;
        }
    }
    if n == 0 {
        return 1.0;
    }
    let rel = (sum / n as f64) / range;
    let s = 1.0 / (1.0 + SMOOTHNESS_GAIN * rel);
    debug_assert!(s.is_finite() && (0.0..=1.0).contains(&s));
    s
}

/// Compress a contiguous sample window of `chunk` with the named registry
/// codec and return the run's stats, or `None` if the codec rejects the
/// request (e.g. ZFP with a non-absolute bound), the window is zero, or
/// the chunk is empty.
///
/// The window is taken from the middle of the chunk (up to `max_window`
/// elements) so edge padding does not skew the estimate. Used by
/// [`HeuristicPolicy`] for the SZ hit ratio (at [`SAMPLE_WINDOW`]) and by
/// the core `ParetoAdaptive` policy to predict per-arm ratio and work.
pub fn sample_stats(
    codec_name: &str,
    chunk: &[f32],
    bound: BoundSpec,
    max_window: usize,
) -> Option<CodecStats> {
    if chunk.is_empty() || max_window == 0 {
        return None;
    }
    let n = chunk.len().min(max_window);
    let start = (chunk.len() - n) / 2;
    let window = &chunk[start..start + n];
    if codec_name == "sz" {
        // Probe at a window-sized radius. No longer for its cost (SZ's
        // per-call fixed cost stopped scaling with the radius) but because
        // the pinned plans and golden tables are the clamped probe's: see
        // `sz_adapter::probe_stats`.
        let radius = (n as u32).max(PROBE_MIN_RADIUS);
        if let Some(stats) = crate::sz_adapter::probe_stats(window, bound, radius) {
            return Some(stats);
        }
    }
    let codec = registry().by_name(codec_name)?;
    codec.compress(window, &[n], bound).ok().map(|e| e.stats)
}

/// Floor for the probe quantizer radius: tiny windows still get enough
/// bins that quantizable residuals are not misclassified as literals.
const PROBE_MIN_RADIUS: u32 = 64;

/// SZ predictor hit ratio on a sample window, in `[0, 1]` and always
/// finite. Returns 0.0 when the sample cannot be compressed (empty chunk
/// or backend error), which steers the heuristic toward the
/// transform-domain codec.
pub fn sample_hit_rate(chunk: &[f32], bound: BoundSpec) -> f64 {
    match sample_stats("sz", chunk, bound, SAMPLE_WINDOW) {
        Some(stats) => stats.hit_rate().clamp(0.0, 1.0),
        None => 0.0,
    }
}

/// Smoothness / predictor-hit-ratio routing policy.
///
/// Scores each chunk as the *product* of [`smoothness`] and
/// [`sample_hit_rate`] — either a rough field or a poorly-predicted one
/// drags the score down. Chunks scoring at or above the threshold go to
/// SZ (whose linear predictor thrives on smooth fields), the rest to ZFP
/// (whose block transform degrades more gracefully on rough data).
/// Bounds ZFP cannot honour (non-absolute modes) force SZ regardless of
/// score. Both estimators are guarded, so the score is always finite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeuristicPolicy {
    /// Error bound applied to every chunk.
    pub bound: BoundSpec,
    /// Simulated frequency attributed to every chunk's compression.
    pub f_ghz: f64,
    /// Score at or above which a chunk routes to SZ.
    pub sz_threshold: f64,
}

impl HeuristicPolicy {
    /// Default routing threshold: CESM-like smooth fields score ≈ 0.9+,
    /// HACC-like particle data ≈ 0.3 or below, so the midpoint separates
    /// them with wide margins on both sides.
    pub const DEFAULT_THRESHOLD: f64 = 0.6;

    /// Heuristic policy at the given bound and simulated frequency.
    pub fn new(bound: BoundSpec, f_ghz: f64) -> Self {
        HeuristicPolicy { bound, f_ghz, sz_threshold: Self::DEFAULT_THRESHOLD }
    }

    /// The routing score for a chunk (smoothness × hit ratio).
    pub fn score(&self, chunk: &[f32]) -> f64 {
        let s = smoothness(chunk) * sample_hit_rate(chunk, self.bound);
        debug_assert!(s.is_finite());
        s
    }
}

impl ChunkPolicy for HeuristicPolicy {
    fn name(&self) -> &'static str {
        "heuristic"
    }

    fn plan(&self, chunk: &[f32], _seq: usize) -> ChunkPlan {
        let absolute = matches!(self.bound, BoundSpec::Absolute(_));
        let codec = if !absolute || self.score(chunk) >= self.sz_threshold {
            CodecId::Sz
        } else {
            CodecId::Zfp
        };
        ChunkPlan { codec, bound: self.bound, f_ghz: self.f_ghz }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_chunk(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.01).sin()).collect()
    }

    fn rough_chunk(n: usize) -> Vec<f32> {
        // Deterministic pseudo-noise: decorrelated neighbours.
        let mut state = 0x9E3779B97F4A7C15u64;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn codec_id_roundtrips_and_rejects_unknown() {
        for id in CodecId::ALL {
            assert_eq!(CodecId::from_u8(id.as_u8()), Some(id));
        }
        for v in 3..=255u8 {
            assert_eq!(CodecId::from_u8(v), None);
        }
        assert_eq!(CodecId::Sz.name(), "sz");
        assert_eq!(CodecId::Zfp.name(), "zfp");
        assert_eq!(CodecId::Raw.name(), "raw");
    }

    #[test]
    fn smoothness_separates_smooth_from_rough() {
        assert!(smoothness(&smooth_chunk(4096)) > 0.9);
        assert!(smoothness(&rough_chunk(4096)) < 0.6);
    }

    // Satellite regression tests: the estimators must stay finite on
    // degenerate fields — constant, all-NaN, subnormal-only — with no
    // div-by-zero or NaN plan scores.
    #[test]
    fn estimators_guard_degenerate_fields() {
        let bound = BoundSpec::Absolute(1e-3);
        let constant = vec![4.25f32; 1024];
        let all_nan = vec![f32::NAN; 1024];
        let subnormal = vec![f32::from_bits(1); 1024]; // smallest positive subnormal
        let mixed_subnormal: Vec<f32> =
            (0..1024).map(|i| f32::from_bits((i % 7 + 1) as u32)).collect();
        let empty: Vec<f32> = Vec::new();
        let tiny = vec![1.0f32, 2.0];
        let inf_laced: Vec<f32> =
            (0..1024).map(|i| if i % 5 == 0 { f32::INFINITY } else { i as f32 }).collect();

        for (name, chunk) in [
            ("constant", &constant),
            ("all_nan", &all_nan),
            ("subnormal", &subnormal),
            ("mixed_subnormal", &mixed_subnormal),
            ("empty", &empty),
            ("tiny", &tiny),
            ("inf_laced", &inf_laced),
        ] {
            let s = smoothness(chunk);
            assert!(s.is_finite() && (0.0..=1.0).contains(&s), "{name}: smoothness {s}");
            let h = sample_hit_rate(chunk, bound);
            assert!(h.is_finite() && (0.0..=1.0).contains(&h), "{name}: hit rate {h}");
            let pol = HeuristicPolicy::new(bound, 2.0);
            let score = pol.score(chunk);
            assert!(score.is_finite(), "{name}: score {score}");
            let plan = pol.plan(chunk, 0);
            assert!(plan.f_ghz.is_finite(), "{name}: plan frequency");
        }
        // Degenerate-but-smooth fields must take the SZ path (smoothness
        // guard returns 1.0, SZ encodes constants in a handful of bytes).
        let pol = HeuristicPolicy::new(bound, 2.0);
        assert_eq!(pol.plan(&constant, 0).codec, CodecId::Sz);
    }

    #[test]
    fn heuristic_routes_by_content() {
        let pol = HeuristicPolicy::new(BoundSpec::Absolute(1e-3), 2.4);
        let smooth = pol.plan(&smooth_chunk(8192), 0);
        assert_eq!(smooth.codec, CodecId::Sz);
        assert_eq!(smooth.bound, BoundSpec::Absolute(1e-3));
        assert_eq!(smooth.f_ghz, 2.4);
        let rough = pol.plan(&rough_chunk(8192), 1);
        assert_eq!(rough.codec, CodecId::Zfp);
        // Non-absolute bounds force SZ: ZFP cannot honour them.
        let pol = HeuristicPolicy::new(BoundSpec::PointwiseRelative(1e-3), 2.4);
        assert_eq!(pol.plan(&rough_chunk(8192), 0).codec, CodecId::Sz);
    }

    #[test]
    fn fixed_policy_is_constant() {
        let pol = FixedPolicy::new(CodecId::Zfp, BoundSpec::Absolute(1e-4), 1.2);
        for seq in 0..4 {
            let p = pol.plan(&smooth_chunk(64), seq);
            assert_eq!(p.codec, CodecId::Zfp);
            assert_eq!(p.bound, BoundSpec::Absolute(1e-4));
            assert_eq!(p.f_ghz, 1.2);
        }
        assert_eq!(pol.name(), "fixed");
    }

    #[test]
    fn sample_stats_respects_codec_limits() {
        let chunk = smooth_chunk(4096);
        let sz = sample_stats("sz", &chunk, BoundSpec::Absolute(1e-3), SAMPLE_WINDOW).unwrap();
        assert!(sz.elements as usize <= SAMPLE_WINDOW);
        assert!(sz.ratio() > 1.0);
        let small = sample_stats("sz", &chunk, BoundSpec::Absolute(1e-3), 256).unwrap();
        assert_eq!(small.elements, 256);
        // ZFP rejects non-absolute bounds → None, not a panic.
        assert!(sample_stats("zfp", &chunk, BoundSpec::PointwiseRelative(1e-3), 2048).is_none());
        assert!(sample_stats("nope", &chunk, BoundSpec::Absolute(1e-3), 2048).is_none());
        assert!(sample_stats("sz", &[], BoundSpec::Absolute(1e-3), 2048).is_none());
        assert!(sample_stats("sz", &chunk, BoundSpec::Absolute(1e-3), 0).is_none());
    }
}
