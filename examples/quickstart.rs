//! Quickstart: compress a synthetic NYX field with both registered codecs,
//! verify the error bound, and estimate the compress + write energy of
//! the full-size field on the simulated chips.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lcpio::codec::{registry, BoundSpec};
use lcpio::core::pipeline::{stretch, TwoPhaseWork};
use lcpio::core::records::Compressor;
use lcpio::core::tuning::TuningRule;
use lcpio::core::workmap::CostModel;
use lcpio::datagen::nyx;
use lcpio::powersim::{Chip, Machine};

fn main() {
    let eb = 1e-3;
    println!("generating a 64^3 NYX-like velocity field...");
    let field = nyx::velocity_x(64, 42);
    let dims: Vec<usize> = field.dims().extents().to_vec();

    // Both backends through the same trait: compress, auto-detect the
    // container on decode, verify the bound held.
    let mut sz_stats = None;
    for codec in registry().codecs() {
        let out = codec
            .compress(&field.data, &dims, BoundSpec::Absolute(eb))
            .expect("compression");
        let (rec, _) = registry().decompress_auto(&out.bytes, 1).expect("decompression");
        let err = max_err(&field.data, &rec);
        println!(
            "{:<3}: ratio {:>6.2}x  hit-rate {:>5.1}%  {:>5.2} bits/elem  max-error {:.2e} (bound {eb:.0e})",
            codec.name().to_uppercase(),
            out.stats.ratio(),
            out.stats.hit_rate() * 100.0,
            out.stats.bits_per_element(),
            err
        );
        assert!(err <= eb * 1.01);
        if codec.name() == "sz" {
            sz_stats = Some(out.stats);
        }
    }

    // --- What would this cost at full 512^3 scale, on real-ish hardware? ---
    // One two-phase job (compress, then write the result to NFS), priced
    // at the base clock and at the paper's Eqn-3 clocks.
    let cost = CostModel::default();
    let stats = sz_stats.expect("sz ran");
    let (scale, stored) = stretch(&stats, (512usize * 512 * 512 * 4) as f64);
    println!("\nestimated full-size (512^3) SZ compress + write cost:");
    for chip in Chip::ALL {
        let m = Machine::for_chip(chip);
        let job = TwoPhaseWork::compress_write(&cost, &m, Compressor::Sz, &stats, scale, stored);
        let fmax = m.cpu.f_max_ghz;
        let fast = job.price(&m, fmax, fmax);
        let (f_comp, f_write) = TuningRule::PAPER.clocks(&m.cpu);
        let tuned = job.price(&m, f_comp, f_write);
        println!(
            "  {:<9} base clock: {:>6.1} s / {:>7.1} J   Eqn-3 tuned: {:>6.1} s / {:>7.1} J  ({:.1}% energy saved)",
            chip.name(),
            fast.sequential_s,
            fast.total_j(),
            tuned.sequential_s,
            tuned.total_j(),
            (1.0 - tuned.total_j() / fast.total_j()) * 100.0
        );
    }
}

fn max_err(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (*x as f64 - *y as f64).abs()).fold(0.0, f64::max)
}
