//! `restart3d_sz` — the four `dump3d_sz` containers read back: file read,
//! then `registry().decompress_auto` (LCW1 unwrap, Huffman decode,
//! reconstruct). The same `sz` layer used the other way.

use super::dump3d::{check_bound, Dump3dInputs};
use super::{same_bits, Lane, OpOutcome, Scale, Seeds, Workload, PAPER_BOUNDS};
use crate::energy;
use crate::spans::Recorder;
use lcpio_codec::policy::CodecId;
use lcpio_codec::registry;
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Restartable {
    path: PathBuf,
    container_bytes: u64,
    /// The set-up decode every op must reproduce bit for bit.
    reference: Vec<f32>,
    /// Modeled nanojoules of one decode at `f_max`.
    nanojoules: u64,
}

/// The `restart3d_sz` workload.
pub struct Restart3d {
    files: Vec<Restartable>,
    /// The order in which one op cycle visits the files.
    order: Vec<usize>,
}

impl Restart3d {
    pub fn new(scale: &Scale, seeds: Seeds, dir: &Path) -> Result<Self, String> {
        let inputs = Dump3dInputs::new(scale, seeds, dir)?;
        let mut files = Vec::new();
        for b in inputs.bounds {
            std::fs::write(&b.path, &b.container)
                .map_err(|e| format!("writing {}: {e}", b.path.display()))?;
            files.push(Restartable {
                reference: check_bound(&b.container, &inputs.field, b.eb)?,
                nanojoules: energy::decompress_nj(CodecId::Sz, &b.stats),
                container_bytes: b.container.len() as u64,
                path: b.path,
            });
        }
        // The field itself is not needed again: only the files and the
        // reference decodes stay resident.
        Ok(Restart3d {
            files,
            order: inputs.order,
        })
    }
}

struct RestartLane<'a>(&'a Restart3d);

impl Lane for RestartLane<'_> {
    fn op(&mut self, i: usize, rec: &Recorder) -> OpOutcome {
        let kind = self.0.order[i % PAPER_BOUNDS.len()];
        let f = &self.0.files[kind];
        let op = i as u32;
        let start = Instant::now();
        let restored = rec.scope("op", None, op, |parent| -> Result<Vec<f32>, String> {
            let bytes = rec
                .scope("fs.read", parent, op, |_| std::fs::read(&f.path))
                .map_err(|e| e.to_string())?;
            let (data, _) = rec
                .scope("codec.decompress_auto", parent, op, |_| {
                    registry().decompress_auto(&bytes, 1)
                })
                .map_err(|e| e.to_string())?;
            Ok(data)
        });
        let end = Instant::now();
        let ok = restored.is_ok_and(|data| same_bits(&data, &f.reference));
        OpOutcome {
            kind,
            start,
            end,
            raw_bytes: (f.reference.len() * 4) as u64,
            stored_bytes: f.container_bytes,
            nanojoules: f.nanojoules,
            ok,
        }
    }
}

impl Workload for Restart3d {
    fn kinds(&self) -> &'static [&'static str] {
        &["eb1e-1", "eb1e-2", "eb1e-3", "eb1e-4"]
    }

    fn cycle_len(&self) -> usize {
        PAPER_BOUNDS.len()
    }

    fn lanes(&mut self) -> Vec<Box<dyn Lane + '_>> {
        vec![Box::new(RestartLane(self))]
    }
}
