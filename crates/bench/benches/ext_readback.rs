//! Extension: the read side of the workflow — fetch 512 GB of compressed
//! NYX data from NFS and decompress it, base clock vs Eqn-3 tuning.

use lcpio_bench::banner;
use lcpio_core::readback::{run_readback, ReadbackConfig};

fn main() {
    banner(
        "EXTENSION — read-back energy (fetch from NFS + decompress)",
        "mirrors the paper's write-side Figure 6 on the analysis side",
    );
    let r = run_readback(&ReadbackConfig::paper()).expect("paper read-back config compresses");
    println!("compression ratio of the stored file: {:.2}x", r.ratio);
    println!(
        "base clock: fetch {:.1} kJ / {:.0} s + decompress {:.1} kJ / {:.0} s = {:.1} kJ",
        r.base.io_j / 1e3,
        r.base.io_s,
        r.base.cpu_j / 1e3,
        r.base.cpu_s,
        r.base.total_j() / 1e3
    );
    println!(
        "tuned:      fetch {:.1} kJ / {:.0} s + decompress {:.1} kJ / {:.0} s = {:.1} kJ",
        r.tuned.io_j / 1e3,
        r.tuned.io_s,
        r.tuned.cpu_j / 1e3,
        r.tuned.cpu_s,
        r.tuned.total_j() / 1e3
    );
    println!("savings: {:.1}%", r.savings() * 100.0);
}
