//! `dump3d_sz` — the paper's Fig 6 configuration on the path every user
//! runs: NYX `velocity_x` through `registry().by_name("sz")` (block
//! predictor + Huffman + LZSS), wrapped to LCW1 and written to a file,
//! cycling the paper's four bounds.

use super::{max_abs_err, shuffled, Lane, OpOutcome, Scale, Seeds, Workload, PAPER_BOUNDS};
use crate::energy;
use crate::spans::Recorder;
use lcpio_codec::policy::CodecId;
use lcpio_codec::{registry, BoundSpec, Codec, CodecStats, Encoded};
use lcpio_datagen::nyx;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One bound's reference: the container the first compression produced
/// and what an op at this bound is worth.
pub struct BoundRef {
    /// The error bound.
    pub eb: f64,
    /// The LCW1 container every later op must reproduce byte for byte.
    pub container: Vec<u8>,
    /// The compression run's statistics.
    pub stats: CodecStats,
    /// Where ops at this bound write.
    pub path: PathBuf,
}

/// The field, and per bound the reference container. Shared
/// with `restart3d_sz`, which reads the same four containers back.
pub struct Dump3dInputs {
    /// The NYX cube.
    pub field: Vec<f32>,
    /// Its dims, slowest first.
    pub dims: Vec<usize>,
    /// One reference per paper bound.
    pub bounds: Vec<BoundRef>,
    /// The order in which one op cycle visits the bounds.
    pub order: Vec<usize>,
}

/// Compress one bound the way `dump3d_sz` does (one codec thread), wrap.
pub fn compress_and_wrap(
    codec: &dyn Codec,
    field: &[f32],
    dims: &[usize],
    eb: f64,
) -> Result<(Encoded, Vec<u8>), String> {
    let encoded = codec
        .compress_chunked(field, dims, BoundSpec::Absolute(eb), 1)
        .map_err(|e| format!("compress at {eb}: {e}"))?;
    let container =
        lcpio_codec::wire::wrap(&encoded.bytes).map_err(|e| format!("wrap at {eb}: {e}"))?;
    Ok((encoded, container))
}

/// Decode `container` and require max |x - x̂| <= `eb` against `field`.
pub fn check_bound(container: &[u8], field: &[f32], eb: f64) -> Result<Vec<f32>, String> {
    let (restored, _) = registry()
        .decompress_auto(container, 1)
        .map_err(|e| format!("decode at {eb}: {e}"))?;
    if restored.len() != field.len() {
        return Err(format!(
            "decode at {eb}: {} elements, expected {}",
            restored.len(),
            field.len()
        ));
    }
    let err = max_abs_err(field, &restored);
    if err > eb {
        return Err(format!("bound {eb} violated: max error {err}"));
    }
    Ok(restored)
}

impl Dump3dInputs {
    /// Generate the cube from the field seed; compress and wrap it once
    /// per bound; draw the cycle's order from the traffic seed. The
    /// caller verifies the containers with [`check_bound`].
    pub fn new(scale: &Scale, seeds: Seeds, dir: &Path) -> Result<Self, String> {
        let field = nyx::velocity_x(scale.side, seeds.field);
        let dims = field.dims().extents().to_vec();
        let sz = registry().by_name("sz").ok_or("sz is not registered")?;
        let mut bounds = Vec::new();
        for eb in PAPER_BOUNDS {
            let (encoded, container) = compress_and_wrap(sz, &field.data, &dims, eb)?;
            let path = dir.join(format!("dump-eb{eb:e}.lcw"));
            bounds.push(BoundRef {
                eb,
                container,
                stats: encoded.stats,
                path,
            });
        }
        Ok(Dump3dInputs {
            field: field.data,
            dims,
            bounds,
            order: shuffled(PAPER_BOUNDS.len(), seeds.traffic),
        })
    }
}

/// The `dump3d_sz` workload.
pub struct Dump3d {
    inputs: Dump3dInputs,
    /// Modeled nanojoules of one op per bound: SZ compression at `f_max`
    /// (the registry path plans no DVFS) plus the NFS write of the
    /// container.
    nanojoules: Vec<u64>,
}

impl Dump3d {
    pub fn new(scale: &Scale, seeds: Seeds, dir: &Path) -> Result<Self, String> {
        let inputs = Dump3dInputs::new(scale, seeds, dir)?;
        for b in &inputs.bounds {
            check_bound(&b.container, &inputs.field, b.eb)?;
        }
        let f_max = energy::machine().cpu.f_max_ghz;
        let nanojoules = inputs
            .bounds
            .iter()
            .map(|b| {
                energy::compress_nj(CodecId::Sz, &b.stats, f_max)
                    + energy::nfs_write_nj(b.container.len() as u64)
            })
            .collect();
        Ok(Dump3d { inputs, nanojoules })
    }
}

struct DumpLane<'a> {
    w: &'a Dump3d,
    sz: &'static dyn Codec,
}

impl Lane for DumpLane<'_> {
    fn op(&mut self, i: usize, rec: &Recorder) -> OpOutcome {
        let kind = self.w.inputs.order[i % PAPER_BOUNDS.len()];
        let b = &self.w.inputs.bounds[kind];
        let (field, dims) = (&self.w.inputs.field, &self.w.inputs.dims);
        let op = i as u32;
        let start = Instant::now();
        let written = rec.scope("op", None, op, |parent| -> Result<Vec<u8>, String> {
            let encoded = rec
                .scope("codec.compress_chunked", parent, op, |_| {
                    self.sz
                        .compress_chunked(field, dims, BoundSpec::Absolute(b.eb), 1)
                })
                .map_err(|e| e.to_string())?;
            let container = rec
                .scope("codec.wrap", parent, op, |_| {
                    lcpio_codec::wire::wrap(&encoded.bytes)
                })
                .map_err(|e| e.to_string())?;
            rec.scope("fs.write", parent, op, |_| {
                std::fs::write(&b.path, &container)
            })
            .map_err(|e| e.to_string())?;
            Ok(container)
        });
        let end = Instant::now();
        // Determinism: the same bytes as the first compression at this bound.
        let ok = written.is_ok_and(|c| c == b.container);
        OpOutcome {
            kind,
            start,
            end,
            raw_bytes: (field.len() * 4) as u64,
            stored_bytes: b.container.len() as u64,
            nanojoules: self.w.nanojoules[kind],
            ok,
        }
    }
}

impl Workload for Dump3d {
    fn kinds(&self) -> &'static [&'static str] {
        &["eb1e-1", "eb1e-2", "eb1e-3", "eb1e-4"]
    }

    fn cycle_len(&self) -> usize {
        PAPER_BOUNDS.len()
    }

    fn lanes(&mut self) -> Vec<Box<dyn Lane + '_>> {
        let sz = registry().by_name("sz").expect("checked at set-up");
        vec![Box::new(DumpLane { w: self, sz })]
    }

    /// What landed on disk must be the reference container and decode
    /// within its bound.
    fn check(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        for b in &self.inputs.bounds {
            match std::fs::read(&b.path) {
                Ok(bytes) if bytes == b.container => {
                    if let Err(e) = check_bound(&bytes, &self.inputs.field, b.eb) {
                        failures.push(e);
                    }
                }
                Ok(_) => failures.push(format!("{} differs from the reference", b.path.display())),
                Err(e) => failures.push(format!("reading {}: {e}", b.path.display())),
            }
        }
        failures
    }
}
