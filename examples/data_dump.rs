//! The §VI-B use case: compress 512 GB of NYX `velocity_x` with SZ at four
//! error bounds and write it to NFS over 10 GbE, base clock vs Eqn-3
//! tuning (Figure 6).
//!
//! ```text
//! cargo run --release --example data_dump
//! ```

use lcpio::core::datadump::{run_data_dump, DataDumpConfig};
use lcpio::core::report::render_dump;

fn main() {
    println!("simulating the 512 GB NYX data dump on the Broadwell node...\n");
    let cfg = DataDumpConfig::paper();
    let (rows, summary) = run_data_dump(&cfg).expect("paper dump config compresses");
    println!("{}", render_dump("FIGURE 6 — energy dissipation for data dumping", &rows));
    println!(
        "mean savings: {:.1} kJ ({:.1}%)   [paper: 6.5 kJ, 13%]",
        summary.mean_saved_j / 1e3,
        summary.mean_savings * 100.0
    );

    // Breakdown for the finest bound, where compression dominates.
    if let Some(r) = rows.last() {
        println!(
            "\nbreakdown at eb {:.0e}: compression {:.1} kJ / {:.0} s, writing {:.1} kJ / {:.0} s (base clock)",
            r.error_bound,
            r.base.cpu_j / 1e3,
            r.base.cpu_s,
            r.base.io_j / 1e3,
            r.base.io_s
        );
    }
}
