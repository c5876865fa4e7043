//! Energy-aware per-chunk policy layer (extension).
//!
//! `lcpio-codec` defines the [`ChunkPolicy`] trait plus the `Fixed` and
//! `Heuristic` implementations; this module adds the piece that needs
//! the fitted power models: [`ParetoAdaptive`], which prices every
//! candidate *arm* (codec × DVFS frequency) from a small sampled
//! compression of the chunk, then picks the minimum-energy arm whose
//! runtime stays within a throughput budget — the online controller
//! ROADMAP item 4 asks for, wrapping [`crate::pareto`] and the chip's
//! P-state ladder ([`lcpio_powersim::CpuSpec::snap`]).
//!
//! Arm costing: a contiguous sample window of the chunk is compressed
//! with each codec; the sampled [`lcpio_codec::CodecStats`], scaled to
//! the full chunk, and the predicted output bytes make one
//! [`TwoPhaseWork::compress_write`] unit. Both phases are priced
//! at every ladder frequency, so an arm's energy couples compute cost
//! *and* output size — the codec that shrinks the chunk more also pays
//! less write energy, which is what lets the adaptive policy dominate
//! fixed configurations on the energy-vs-ratio front rather than trading
//! one axis for the other.
//!
//! The module also hosts the interleaved CESM+HACC workload used by the
//! acceptance test, the bench, and the sweep driver's adaptive axis: a
//! stream alternating smooth climate chunks (loose relative bound → SZ
//! wins ratio and cycles) with range-amplified particle chunks (tight
//! relative bound → the SZ predictor collapses to literals and ZFP wins
//! both). One absolute bound across fields of wildly different dynamic
//! range is exactly the mixed-field I/O situation CEAZ-style adaptive
//! compression targets.

use crate::pareto::{energy_optimal, frequency_profile, FrequencyPoint};
use crate::pipeline::TwoPhaseWork;
use crate::records::Compressor;
use crate::tuning::TuningRule;
use crate::workmap::CostModel;
use lcpio_codec::policy::{sample_stats, ChunkPlan, ChunkPolicy, CodecId, FixedPolicy, HeuristicPolicy};
use lcpio_codec::{BoundSpec, CodecStats};
use lcpio_datagen::Dataset;
use lcpio_powersim::{Chip, Machine};
use serde::{Deserialize, Serialize};

/// Which chunk policy a pipeline run uses. The CLI's `--policy` flag
/// parses into this; without the flag a run uses `Fixed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Legacy behaviour: one codec, one bound, every chunk (default).
    Fixed,
    /// Content routing by smoothness × SZ predictor hit ratio, at the
    /// paper's Eqn-3 compression clock ([`TuningRule::PAPER`]).
    Heuristic,
    /// Pareto arm costing: minimum-energy codec × frequency per chunk
    /// under a throughput budget.
    Adaptive,
}

impl PolicyKind {
    /// Parse a CLI spelling (`fixed|heuristic|adaptive`).
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s.to_ascii_lowercase().as_str() {
            "fixed" => Some(PolicyKind::Fixed),
            "heuristic" => Some(PolicyKind::Heuristic),
            "adaptive" => Some(PolicyKind::Adaptive),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fixed => "fixed",
            PolicyKind::Heuristic => "heuristic",
            PolicyKind::Adaptive => "adaptive",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Throughput budget: an arm is feasible if its (compress + write)
/// runtime stays within this multiple of the same arm's runtime at f_max.
/// The energy knee sits well inside 2× on all three chips (asserted by
/// `energy_optimum_is_feasible_at_default_slack`), so the budget never
/// forces the controller off the energy optimum.
pub const DEFAULT_SLACK: f64 = 2.0;

/// Sample window per codec per chunk (elements) for adaptive arm costing. Smaller than the
/// heuristic's window: two codecs sample every chunk, and the plan
/// overhead budget is <2% of compress time.
pub const DEFAULT_SAMPLE_WINDOW: usize = 1024;

/// Cost of one candidate arm (codec at one frequency) for one chunk.
#[derive(Debug, Clone, Copy)]
struct ArmChoice {
    codec: CodecId,
    point: FrequencyPoint,
    predicted_bytes: f64,
}

/// The energy-aware policy: per chunk, predict ratio and joules for each
/// candidate codec from a sampled compression, evaluate compress + write
/// energy across the DVFS ladder, and pick the minimum-energy arm whose
/// runtime fits the throughput budget. Frequencies are snapped with
/// [`lcpio_powersim::CpuSpec::snap`], so every plan frequency lies on the
/// chip's P-state grid.
#[derive(Debug, Clone)]
pub struct ParetoAdaptive {
    machine: Machine,
    cost_model: CostModel,
    bound: BoundSpec,
}

impl ParetoAdaptive {
    /// Adaptive policy for one chip / bound / cost model.
    pub fn new(chip: Chip, bound: BoundSpec, cost_model: CostModel) -> Self {
        ParetoAdaptive {
            machine: Machine::for_chip(chip),
            cost_model,
            bound,
        }
    }

    /// Ladder-wide (runtime, energy) points for one codec arm on one
    /// chunk, plus the predicted full-chunk output bytes. `None` if the
    /// codec cannot compress the sample (e.g. ZFP with a non-absolute
    /// bound).
    fn arm_points(&self, codec: CodecId, chunk: &[f32]) -> Option<(Vec<FrequencyPoint>, f64)> {
        let compressor = compressor_of(codec)?;
        let stats = sample_stats(codec.name(), chunk, self.bound, DEFAULT_SAMPLE_WINDOW)?;
        if stats.elements == 0 {
            return None;
        }
        let scale = chunk.len() as f64 / stats.elements as f64;
        let predicted_bytes = stats.output_bytes as f64 * scale;
        let work = TwoPhaseWork::compress_write(
            &self.cost_model,
            &self.machine,
            compressor,
            &stats,
            scale,
            predicted_bytes,
        );
        Some((frequency_profile(&self.machine, &work), predicted_bytes))
    }

    /// The winning arm for a chunk, if any codec can compress it.
    fn choose(&self, chunk: &[f32]) -> Option<ArmChoice> {
        let mut best: Option<ArmChoice> = None;
        for codec in [CodecId::Sz, CodecId::Zfp] {
            let Some((points, predicted_bytes)) = self.arm_points(codec, chunk) else {
                continue;
            };
            // The ladder ascends, so the last point is the f_max arm the
            // throughput budget is anchored to.
            let t_fmax = points.last()?.runtime_s;
            let budget = DEFAULT_SLACK * t_fmax;
            let feasible: Vec<FrequencyPoint> =
                points.into_iter().filter(|p| p.runtime_s <= budget).collect();
            let Some(&opt) = energy_optimal(&feasible) else { continue };
            let better = match &best {
                None => true,
                Some(b) => {
                    opt.energy_j < b.point.energy_j - 1e-15
                        || (opt.energy_j <= b.point.energy_j + 1e-15
                            && predicted_bytes < b.predicted_bytes)
                }
            };
            if better {
                best = Some(ArmChoice { codec, point: opt, predicted_bytes });
            }
        }
        best
    }
}

impl ChunkPolicy for ParetoAdaptive {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn plan(&self, chunk: &[f32], _seq: usize) -> ChunkPlan {
        match self.choose(chunk) {
            Some(arm) => ChunkPlan {
                codec: arm.codec,
                bound: self.bound,
                f_ghz: self.machine.cpu.snap(arm.point.f_ghz),
            },
            // No codec can price the chunk (empty, or the bound is
            // rejected by every arm's sampler): fall back to the legacy
            // behaviour at f_max.
            None => ChunkPlan { codec: CodecId::Sz, bound: self.bound, f_ghz: self.machine.cpu.f_max_ghz },
        }
    }
}

/// The registry compressor behind a codec id (`None` for `Raw`).
pub fn compressor_of(codec: CodecId) -> Option<Compressor> {
    match codec {
        CodecId::Sz => Some(Compressor::Sz),
        CodecId::Zfp => Some(Compressor::Zfp),
        CodecId::Raw => None,
    }
}

/// The codec id of a registry compressor.
pub fn codec_id_of(compressor: Compressor) -> CodecId {
    match compressor {
        Compressor::Sz => CodecId::Sz,
        Compressor::Zfp => CodecId::Zfp,
    }
}

/// Construct the policy a [`PolicyKind`] names, with the pipeline's
/// compressor/bound as the fixed arm and the chip's DVFS ladder as the
/// frequency domain.
///
/// * `Fixed` — the configured codec at f_max (legacy behaviour).
/// * `Heuristic` — content routing, pinned at the paper's Eqn-3
///   compression clock ([`TuningRule::clocks`] of [`TuningRule::PAPER`]).
/// * `Adaptive` — [`ParetoAdaptive`] arm costing.
pub fn build_policy(
    kind: PolicyKind,
    compressor: Compressor,
    bound: BoundSpec,
    chip: Chip,
    cost_model: CostModel,
) -> Box<dyn ChunkPolicy> {
    let spec = Machine::for_chip(chip).cpu;
    match kind {
        PolicyKind::Fixed => {
            Box::new(FixedPolicy::new(codec_id_of(compressor), bound, spec.f_max_ghz))
        }
        PolicyKind::Heuristic => {
            Box::new(HeuristicPolicy::new(bound, TuningRule::PAPER.clocks(&spec).0))
        }
        PolicyKind::Adaptive => Box::new(ParetoAdaptive::new(chip, bound, cost_model)),
    }
}

/// Range amplifier for the HACC chunks of the interleaved workload. The
/// shared absolute bound becomes *relatively* tight on the amplified
/// particle field (≈4·10⁻⁹ of its range at the default 10⁻³ bound), which
/// collapses the SZ predictor to literals there while the CESM chunks
/// stay firmly in SZ territory — the regime where per-chunk codec choice
/// genuinely matters.
pub const HACC_RANGE_AMPLIFIER: f32 = 1000.0;

/// Interleaved CESM+HACC workload: `chunks` chunks of `chunk_elements`,
/// alternating smooth climate data (even chunks) with range-amplified
/// particle data (odd chunks). Deterministic in `seed`; sources are tiled
/// cyclically if a generated field is shorter than the requested stream.
pub fn interleaved_cesm_hacc(chunk_elements: usize, chunks: usize, seed: u64) -> Vec<f32> {
    let scale = chunk_elements.max(4096) * 4;
    let cesm = Dataset::CesmAtm.generate(scale, seed ^ 0xCE5).data;
    let hacc = Dataset::Hacc.generate(scale, seed ^ 0xAAC).data;
    let mut out = Vec::with_capacity(chunks * chunk_elements);
    for c in 0..chunks {
        let (src, amp) =
            if c % 2 == 0 { (&cesm, 1.0) } else { (&hacc, HACC_RANGE_AMPLIFIER) };
        let base = (c / 2) * chunk_elements;
        for i in 0..chunk_elements {
            out.push(src[(base + i) % src.len()] * amp);
        }
    }
    out
}

/// One policy (or fixed arm) evaluated over a whole chunked workload.
/// Flat field types so the serde shims serialize it into sweep JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyRecord {
    /// Label: `fixed-sz@1.40GHz`, `heuristic`, `adaptive`, ...
    pub label: String,
    /// Policy kind name (`fixed`/`heuristic`/`adaptive`).
    pub policy: String,
    /// Chip the energies were modelled on.
    pub chip: Chip,
    /// Total modelled compress + write energy (J).
    pub energy_j: f64,
    /// Total modelled compress + write runtime (s).
    pub runtime_s: f64,
    /// Input bytes across all chunks.
    pub bytes_in: u64,
    /// Output bytes across all chunks.
    pub bytes_out: u64,
    /// Chunks compressed with SZ.
    pub sz_chunks: u64,
    /// Chunks compressed with ZFP.
    pub zfp_chunks: u64,
    /// Chunks stored raw.
    pub raw_chunks: u64,
    /// Wall time spent planning (s; measured, not modelled).
    pub plan_s: f64,
    /// Wall time spent actually compressing the chosen chunks (s).
    pub compress_s: f64,
}

impl PolicyRecord {
    /// Compression ratio `bytes_in / bytes_out`.
    pub fn ratio(&self) -> f64 {
        if self.bytes_out == 0 {
            0.0
        } else {
            self.bytes_in as f64 / self.bytes_out as f64
        }
    }

    /// The record with its measured wall-times zeroed. Everything else in
    /// a [`PolicyRecord`] is modelled from deterministic compressions, but
    /// `plan_s`/`compress_s` are `Instant`-measured and vary run to run —
    /// sweep artifacts that must compare equal across re-runs store the
    /// canonical form and keep wall-times only in live study output.
    pub fn canonical(mut self) -> PolicyRecord {
        self.plan_s = 0.0;
        self.compress_s = 0.0;
        self
    }

    /// True if `self` dominates `other` on the energy-vs-ratio front:
    /// no worse on both axes, strictly better on at least one.
    pub fn dominates(&self, other: &PolicyRecord) -> bool {
        let no_worse =
            self.energy_j <= other.energy_j * (1.0 + 1e-9) && self.ratio() >= other.ratio() - 1e-12;
        let strictly =
            self.energy_j < other.energy_j * (1.0 - 1e-9) || self.ratio() > other.ratio() + 1e-12;
        no_worse && strictly
    }
}

/// Configuration of a policy comparison study.
#[derive(Debug, Clone, Copy)]
pub struct PolicyStudy {
    /// Shared absolute error bound.
    pub bound: BoundSpec,
    /// Chip whose power model and ladder the arms are priced on.
    pub chip: Chip,
    /// Cost model mapping codec stats to work profiles.
    pub cost_model: CostModel,
    /// Elements per chunk.
    pub chunk_elements: usize,
}

impl Default for PolicyStudy {
    fn default() -> Self {
        PolicyStudy {
            bound: BoundSpec::Absolute(1e-3),
            chip: Chip::Broadwell,
            cost_model: CostModel::default(),
            chunk_elements: 8192,
        }
    }
}

/// Results of [`run_policy_study`]: every fixed codec×frequency arm plus
/// the heuristic and adaptive policies, all over the same workload.
#[derive(Debug, Clone)]
pub struct PolicyStudyResult {
    /// One record per fixed (codec, ladder frequency) configuration.
    pub fixed: Vec<PolicyRecord>,
    /// The heuristic policy.
    pub heuristic: PolicyRecord,
    /// The adaptive policy.
    pub adaptive: PolicyRecord,
}

impl PolicyStudyResult {
    /// Fixed arms the adaptive policy fails to dominate (empty = the
    /// acceptance bar holds).
    pub fn undominated_fixed(&self) -> Vec<&PolicyRecord> {
        self.fixed.iter().filter(|f| !self.adaptive.dominates(f)).collect()
    }

    /// All records, fixed arms first.
    pub fn all(&self) -> Vec<&PolicyRecord> {
        let mut v: Vec<&PolicyRecord> = self.fixed.iter().collect();
        v.push(&self.heuristic);
        v.push(&self.adaptive);
        v
    }
}

/// Per-chunk, per-codec compression outcome cached by the study driver.
struct ChunkArm {
    stats: CodecStats,
    bytes: u64,
    compress_s: f64,
}

/// Evaluate fixed, heuristic, and adaptive policies over `data`, chunked
/// at `study.chunk_elements`, on one machine. Every chunk is compressed
/// once per codec (real compressions, real stats); each policy's energy
/// is then modelled from the stats of the codec its plan picked, with
/// compress *and* write phases attributed at the plan's frequency — the
/// same accounting for every policy, so the comparison is apples to
/// apples.
pub fn run_policy_study(data: &[f32], study: &PolicyStudy) -> PolicyStudyResult {
    let machine = Machine::for_chip(study.chip);
    let chunks: Vec<&[f32]> = data.chunks(study.chunk_elements.max(1)).collect();

    // Real compressions, once per codec per chunk.
    let mut arms: Vec<[Option<ChunkArm>; 2]> = Vec::with_capacity(chunks.len());
    for chunk in &chunks {
        let mut per = [None, None];
        for compressor in Compressor::ALL {
            let t0 = std::time::Instant::now();
            if let Ok(enc) = compressor.codec().compress(chunk, &[chunk.len()], study.bound) {
                per[compressor as usize] = Some(ChunkArm {
                    stats: enc.stats,
                    bytes: enc.bytes.len() as u64,
                    compress_s: t0.elapsed().as_secs_f64(),
                });
            }
        }
        arms.push(per);
    }
    let eval = |label: String, policy: &str, plans: &[ChunkPlan], plan_s: f64| -> PolicyRecord {
        let mut rec = PolicyRecord {
            label,
            policy: policy.to_string(),
            chip: study.chip,
            energy_j: 0.0,
            runtime_s: 0.0,
            bytes_in: 0,
            bytes_out: 0,
            sz_chunks: 0,
            zfp_chunks: 0,
            raw_chunks: 0,
            plan_s,
            compress_s: 0.0,
        };
        for (i, plan) in plans.iter().enumerate() {
            rec.bytes_in += (chunks[i].len() * 4) as u64;
            // Modelled compress + write of the chunk, both phases at the
            // plan's frequency.
            let arm = compressor_of(plan.codec)
                .and_then(|c| arms[i][c as usize].as_ref().map(|arm| (c, arm)));
            let (work, bytes_out) = match arm {
                Some((compressor, arm)) => {
                    rec.compress_s += arm.compress_s;
                    match compressor {
                        Compressor::Sz => rec.sz_chunks += 1,
                        Compressor::Zfp => rec.zfp_chunks += 1,
                    }
                    let work = TwoPhaseWork::compress_write(
                        &study.cost_model,
                        &machine,
                        compressor,
                        &arm.stats,
                        1.0,
                        arm.bytes as f64,
                    );
                    (work, arm.bytes)
                }
                // Raw fallback: no compression work, full-size write.
                None => {
                    rec.raw_chunks += 1;
                    let bytes = (chunks[i].len() * 4) as u64;
                    let io = machine.nfs.write_profile(bytes as f64);
                    (TwoPhaseWork { cpu: Default::default(), io }, bytes)
                }
            };
            let p = work.price(&machine, plan.f_ghz, plan.f_ghz);
            rec.energy_j += p.total_j();
            rec.runtime_s += p.sequential_s;
            rec.bytes_out += bytes_out;
        }
        rec
    };

    let plans_for = |policy: &dyn ChunkPolicy| -> (Vec<ChunkPlan>, f64) {
        let t0 = std::time::Instant::now();
        let plans = chunks.iter().enumerate().map(|(i, c)| policy.plan(c, i)).collect();
        (plans, t0.elapsed().as_secs_f64())
    };

    let mut fixed = Vec::new();
    for compressor in Compressor::ALL {
        for f in machine.cpu.ladder() {
            let pol = FixedPolicy::new(codec_id_of(compressor), study.bound, f);
            let (plans, plan_s) = plans_for(&pol);
            fixed.push(eval(
                format!("fixed-{}@{:.2}GHz", compressor.name().to_ascii_lowercase(), f),
                "fixed",
                &plans,
                plan_s,
            ));
        }
    }

    let heuristic_pol =
        build_policy(PolicyKind::Heuristic, Compressor::Sz, study.bound, study.chip, study.cost_model);
    let (plans, plan_s) = plans_for(heuristic_pol.as_ref());
    let heuristic = eval("heuristic".to_string(), "heuristic", &plans, plan_s);

    let adaptive_pol =
        build_policy(PolicyKind::Adaptive, Compressor::Sz, study.bound, study.chip, study.cost_model);
    let (plans, plan_s) = plans_for(adaptive_pol.as_ref());
    let adaptive = eval("adaptive".to_string(), "adaptive", &plans, plan_s);

    PolicyStudyResult { fixed, heuristic, adaptive }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> PolicyStudy {
        PolicyStudy::default()
    }

    #[test]
    fn policy_kind_parses_and_displays() {
        for kind in [PolicyKind::Fixed, PolicyKind::Heuristic, PolicyKind::Adaptive] {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(PolicyKind::parse("ADAPTIVE"), Some(PolicyKind::Adaptive));
        assert_eq!(PolicyKind::parse("greedy"), None);
    }

    #[test]
    fn interleaved_workload_is_deterministic_and_mixed() {
        let a = interleaved_cesm_hacc(4096, 6, 7);
        let b = interleaved_cesm_hacc(4096, 6, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4096 * 6);
        // Odd chunks carry the amplified particle field: far larger range.
        let range = |c: &[f32]| {
            c.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
                - c.iter().cloned().fold(f32::INFINITY, f32::min)
        };
        assert!(range(&a[4096..8192]) > 100.0 * range(&a[..4096]));
    }

    #[test]
    fn adaptive_plans_are_pure_and_on_grid() {
        let s = study();
        let pol = ParetoAdaptive::new(s.chip, s.bound, s.cost_model);
        let data = interleaved_cesm_hacc(s.chunk_elements, 4, 11);
        let machine = Machine::for_chip(s.chip);
        for (i, chunk) in data.chunks(s.chunk_elements).enumerate() {
            let p1 = pol.plan(chunk, i);
            let p2 = pol.plan(chunk, i);
            assert_eq!(p1, p2, "plan must be a pure function of the chunk");
            assert!((machine.cpu.snap(p1.f_ghz) - p1.f_ghz).abs() < 1e-12, "off-grid frequency");
            assert!(p1.f_ghz >= machine.cpu.f_min_ghz && p1.f_ghz <= machine.cpu.f_max_ghz);
        }
        // Degenerate chunks still plan (guarded estimators, fallback arm).
        for chunk in [&[][..], &[f32::NAN; 32][..], &[1.0f32; 32][..]] {
            let p = pol.plan(chunk, 0);
            assert!(p.f_ghz.is_finite());
        }
    }

    #[test]
    fn plan_frequencies_are_the_eqn3_clock_and_the_chosen_ladder_point() {
        let data = interleaved_cesm_hacc(4096, 4, 11);
        for chip in [Chip::Broadwell, Chip::Skylake, Chip::EpycLike] {
            let spec = Machine::for_chip(chip).cpu;
            let (bound, cost) = (BoundSpec::Absolute(1e-3), CostModel::default());
            let heuristic = build_policy(PolicyKind::Heuristic, Compressor::Sz, bound, chip, cost);
            let adaptive = ParetoAdaptive::new(chip, bound, cost);
            let eqn3 = TuningRule::PAPER.clocks(&spec).0;
            for (i, chunk) in data.chunks(4096).enumerate() {
                assert_eq!(heuristic.plan(chunk, i).f_ghz.to_bits(), eqn3.to_bits(), "{chip:?}");
                let arm = adaptive.choose(chunk).expect("an arm prices");
                let f = adaptive.plan(chunk, i).f_ghz;
                assert_eq!(f.to_bits(), arm.point.f_ghz.to_bits(), "{chip:?} chunk {i}");
                assert!(spec.ladder().any(|l| l.to_bits() == f.to_bits()), "{chip:?}: {f}");
            }
        }
    }

    #[test]
    fn energy_optimum_is_feasible_at_default_slack() {
        // The dominance argument needs the unconstrained energy optimum of
        // every arm to sit inside the default throughput budget on every
        // chip; otherwise adaptive would be forced off the optimum while
        // fixed arms are not.
        let data = interleaved_cesm_hacc(4096, 2, 3);
        for chip in Chip::ALL {
            let pol = ParetoAdaptive::new(chip, BoundSpec::Absolute(1e-3), CostModel::default());
            for chunk in data.chunks(4096) {
                for codec in [CodecId::Sz, CodecId::Zfp] {
                    let (points, _) = pol.arm_points(codec, chunk).expect("arm prices");
                    let t_fmax = points.last().unwrap().runtime_s;
                    let opt = energy_optimal(&points).unwrap();
                    assert!(
                        opt.runtime_s <= DEFAULT_SLACK * t_fmax,
                        "{}: {:?} optimum infeasible",
                        chip.name(),
                        codec
                    );
                }
            }
        }
    }

    #[test]
    fn adaptive_dominates_every_fixed_arm_on_interleaved_workload() {
        // The ROADMAP/ISSUE acceptance bar: on the interleaved CESM+HACC
        // dataset, adaptive beats every fixed codec×frequency
        // configuration on the energy-vs-ratio Pareto front.
        let s = study();
        let data = interleaved_cesm_hacc(s.chunk_elements, 8, 20220530);
        let result = run_policy_study(&data, &s);
        // The plans are genuinely mixed: SZ on CESM, ZFP on amplified HACC.
        assert_eq!(result.adaptive.sz_chunks, 4, "CESM chunks route to SZ");
        assert_eq!(result.adaptive.zfp_chunks, 4, "amplified HACC chunks route to ZFP");
        let undominated = result.undominated_fixed();
        assert!(
            undominated.is_empty(),
            "adaptive (E={:.3e} J, r={:.3}) fails to dominate: {}",
            result.adaptive.energy_j,
            result.adaptive.ratio(),
            undominated
                .iter()
                .map(|f| format!("{} (E={:.3e} J, r={:.3})", f.label, f.energy_j, f.ratio()))
                .collect::<Vec<_>>()
                .join(", ")
        );
        // The heuristic sits between: same codec routing, Eqn-3 frequency.
        assert_eq!(result.heuristic.sz_chunks, 4);
        assert_eq!(result.heuristic.zfp_chunks, 4);
        assert!(result.adaptive.energy_j <= result.heuristic.energy_j * (1.0 + 1e-9));
    }

    #[test]
    fn study_is_deterministic() {
        let s = study();
        let data = interleaved_cesm_hacc(s.chunk_elements, 4, 5);
        let a = run_policy_study(&data, &s);
        let b = run_policy_study(&data, &s);
        assert_eq!(a.adaptive.energy_j, b.adaptive.energy_j);
        assert_eq!(a.adaptive.bytes_out, b.adaptive.bytes_out);
        assert_eq!(a.heuristic.bytes_out, b.heuristic.bytes_out);
        assert_eq!(a.fixed.len(), b.fixed.len());
        for (x, y) in a.fixed.iter().zip(&b.fixed) {
            assert_eq!(x.energy_j, y.energy_j);
        }
        // 2 codecs × full ladder.
        assert_eq!(a.fixed.len(), 2 * Machine::for_chip(s.chip).cpu.ladder_len());
    }

    #[test]
    fn policy_record_dominance_semantics() {
        let base = PolicyRecord {
            label: "a".into(),
            policy: "fixed".into(),
            chip: Chip::Broadwell,
            energy_j: 10.0,
            runtime_s: 1.0,
            bytes_in: 1000,
            bytes_out: 100,
            sz_chunks: 1,
            zfp_chunks: 0,
            raw_chunks: 0,
            plan_s: 0.0,
            compress_s: 0.0,
        };
        let better = PolicyRecord { energy_j: 9.0, bytes_out: 90, ..base.clone() };
        let tied = base.clone();
        let mixed = PolicyRecord { energy_j: 9.0, bytes_out: 200, ..base.clone() };
        assert!(better.dominates(&base));
        assert!(!base.dominates(&better));
        assert!(!tied.dominates(&base));
        assert!(!mixed.dominates(&base) && !base.dominates(&mixed));
    }
}
