//! Modeled joules for the work an op does, priced exactly as the CLI,
//! the pipelines and the serving daemon price it: `CodecStats` ->
//! `CostModel` work profile -> `powersim::simulate` on the simulated
//! Broadwell node. Deterministic, so a perf change can show that the
//! modeled energy did not move.

use lcpio_codec::policy::CodecId;
use lcpio_codec::CodecStats;
use lcpio_core::policy::compressor_of;
use lcpio_core::CostModel;
use lcpio_powersim::{simulate, Chip, Machine};

/// The chip every workload is priced on (the paper's m510 node).
pub const CHIP: Chip = Chip::Broadwell;

/// The simulated node.
pub fn machine() -> Machine {
    Machine::for_chip(CHIP)
}

/// Whole nanojoules: the workloads add energies as integers, so a
/// window's J/GB does not depend on how many op cycles fitted into it.
fn nanojoules(joules: f64) -> u64 {
    (joules * 1e9).round() as u64
}

/// Nanojoules to compress a chunk with `codec` at the planned frequency
/// (0 for a planned-raw chunk, which runs no codec).
pub fn compress_nj(codec: CodecId, stats: &CodecStats, f_ghz: f64) -> u64 {
    let Some(compressor) = compressor_of(codec) else {
        return 0;
    };
    let profile = CostModel::default().compression_profile(compressor, stats, 1.0);
    nanojoules(simulate(&machine(), f_ghz, &profile).energy_j)
}

/// Nanojoules to decompress a chunk that was compressed with `stats`, at
/// `f_max` (restart runs at the base clock).
pub fn decompress_nj(codec: CodecId, stats: &CodecStats) -> u64 {
    let Some(compressor) = compressor_of(codec) else {
        return 0;
    };
    let m = machine();
    let profile = CostModel::default().decompression_profile(compressor, stats, 1.0);
    nanojoules(simulate(&m, m.cpu.f_max_ghz, &profile).energy_j)
}

/// Nanojoules to push `bytes` of container through the modeled NFS
/// write path at `f_max`.
pub fn nfs_write_nj(bytes: u64) -> u64 {
    let m = machine();
    nanojoules(simulate(&m, m.cpu.f_max_ghz, &m.nfs.write_profile(bytes as f64)).energy_j)
}
