//! Domain example: the paper's Table I datasets through both compressors
//! at all four error bounds — the compression side of §IV-A.
//!
//! Prints compression ratio and the simulated full-size compress + write
//! time/energy on the Broadwell node at base clock.
//!
//! ```text
//! cargo run --release --example compress_field
//! ```

use lcpio::codec::BoundSpec;
use lcpio::core::pipeline::{stretch, TwoPhaseWork};
use lcpio::core::records::Compressor;
use lcpio::core::workmap::CostModel;
use lcpio::datagen::Dataset;
use lcpio::powersim::{Chip, Machine};

fn main() {
    let cost = CostModel::default();
    let machine = Machine::for_chip(Chip::Broadwell);
    let fmax = machine.cpu.f_max_ghz;

    println!(
        "{:<10} {:<5} {:>8} {:>8} {:>10} {:>10}",
        "dataset", "codec", "eb", "ratio", "full_t(s)", "full_E(kJ)"
    );
    for ds in Dataset::MODEL_SETS {
        let field = ds.generate(2048, 7);
        let dims: Vec<usize> = field.dims().extents().to_vec();
        let full_bytes = field.full_bytes() as f64;
        for &eb in &[1e-1, 1e-2, 1e-3, 1e-4] {
            for comp in Compressor::ALL {
                let out = comp
                    .codec()
                    .compress(&field.data, &dims, BoundSpec::Absolute(eb))
                    .expect("compression");
                let (scale, stored) = stretch(&out.stats, full_bytes);
                let m = TwoPhaseWork::compress_write(
                    &cost, &machine, comp, &out.stats, scale, stored,
                )
                .price(&machine, fmax, fmax);
                println!(
                    "{:<10} {:<5} {:>8.0e} {:>7.1}x {:>10.1} {:>10.2}",
                    ds.name(),
                    comp.name(),
                    eb,
                    out.stats.ratio(),
                    m.sequential_s,
                    m.total_j() / 1e3
                );
            }
        }
    }
    println!("\n(full_t / full_E are extrapolated to each dataset's Table-I size\n on the simulated Broadwell node at its 2.0 GHz base clock)");
}
