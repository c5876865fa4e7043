//! The layer probes of the traced pass: every layer measured from
//! outside, by timing calls into its public functions on the workloads'
//! own inputs. Each probe reports a median; inputs and results pass
//! through `black_box`. `declared::PER_LAYER` says which end-to-end
//! metric each one should move.

mod codec_wire;
mod model;
mod pipeline;
mod serve;
mod sz;
mod zfp;

use crate::stats;
use crate::workloads::{stream, Scale, Seeds};
use lcpio_datagen::{nyx, Dataset};
use std::cell::Cell;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// `(declared name, value)` pairs a probe group measured.
pub type Values = Vec<(&'static str, f64)>;

/// How long each probe repeats: until it has made 10 calls or spent
/// 0.5 s (the issue's rule), never fewer than 3 calls; a probe whose 10
/// calls take under `seconds / 150` goes on until that has passed, so
/// that microsecond calls get thousands of samples.
#[derive(Debug)]
pub struct Timer {
    budget: Duration,
    fewest_reps: Cell<usize>,
}

const MIN_REPS: usize = 3;
const ENOUGH_REPS: usize = 10;
const ENOUGH_TIME: Duration = Duration::from_millis(500);
const MAX_REPS: usize = 10_000;

impl Timer {
    /// Timer for a run of `seconds`.
    pub fn new(seconds: f64) -> Self {
        Timer {
            budget: Duration::from_secs_f64(seconds / 150.0),
            fewest_reps: Cell::new(usize::MAX),
        }
    }

    /// The fewest calls any probe's median rests on so far.
    pub fn fewest_reps(&self) -> usize {
        self.fewest_reps.get()
    }

    /// Whether a probe with `members` round-robin members goes on after
    /// `reps` rounds and `elapsed`.
    fn goes_on(&self, reps: usize, elapsed: Duration, members: u32) -> bool {
        reps < MIN_REPS
            || (reps < MAX_REPS
                && elapsed < ENOUGH_TIME * members
                && (reps < ENOUGH_REPS || elapsed < self.budget * members))
    }

    /// Every call's duration, in seconds.
    pub fn samples<R>(&self, mut f: impl FnMut() -> R) -> Vec<f64> {
        let t0 = Instant::now();
        let mut samples = Vec::new();
        while self.goes_on(samples.len(), t0.elapsed(), 1) {
            let s = Instant::now();
            black_box(f());
            samples.push(s.elapsed().as_secs_f64());
        }
        self.fewest_reps
            .set(self.fewest_reps.get().min(samples.len()));
        samples
    }

    /// Median seconds per call of `f`.
    pub fn median_s<R>(&self, f: impl FnMut() -> R) -> f64 {
        stats::median(&mut self.samples(f))
    }

    /// Median seconds of `call(0)`, `call(1)`, ... `call(members - 1)`,
    /// called round-robin: the members of a ratio (forced-scalar against
    /// auto, lossless off against on) see the same machine state, so
    /// drift cancels.
    pub fn median_each_s(&self, members: usize, mut call: impl FnMut(usize)) -> Vec<f64> {
        let t0 = Instant::now();
        let mut samples = vec![Vec::new(); members];
        while self.goes_on(samples[0].len(), t0.elapsed(), members as u32) {
            for (member, s) in samples.iter_mut().enumerate() {
                let start = Instant::now();
                call(member);
                s.push(start.elapsed().as_secs_f64());
            }
        }
        self.fewest_reps
            .set(self.fewest_reps.get().min(samples[0].len()));
        samples.iter_mut().map(|s| stats::median(s)).collect()
    }

    /// Median seconds per *item* when one call of `f` handles `items` of
    /// them (for calls too short to time alone).
    pub fn median_per_item_s<R>(&self, items: usize, f: impl FnMut() -> R) -> f64 {
        self.median_s(f) / items as f64
    }
}

/// MB/s (1e6 B) for `bytes` handled in `seconds`.
pub fn mbps(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds
}

/// The inputs every probe group draws on, generated from the seeds like
/// the workloads' own.
pub struct Inputs {
    /// Input sizes.
    pub scale: Scale,
    /// The seeds.
    pub seeds: Seeds,
    /// The NYX cube of `dump3d_sz` / `restart3d_sz`.
    pub cube: Vec<f32>,
    /// Its dims.
    pub dims: Vec<usize>,
    /// The interleaved CESM/HACC field of the `stream_*` workloads.
    pub stream: Vec<f32>,
    /// A scratch directory for container files and the socket.
    pub dir: std::path::PathBuf,
    /// Probe repetition rule.
    pub timer: Timer,
}

impl Inputs {
    /// Stream chunk `i`: even chunks are CESM-like (the planner routes
    /// them to SZ), odd ones amplified HACC-like (routed to ZFP).
    pub fn stream_chunk(&self, i: usize) -> &[f32] {
        let n = self.scale.chunk_elements;
        &self.stream[i * n..(i + 1) * n]
    }

    /// The first `request_elements` of the CESM-like chunk: the shape of
    /// a `serve_mixed` request.
    pub fn request_chunk(&self) -> &[f32] {
        &self.stream[..self.scale.request_elements.min(self.scale.chunk_elements)]
    }
}

/// Run every probe group; with the values, the fewest calls any median
/// rests on. `datagen.*` is measured here, on the very generation calls
/// that make the inputs.
pub fn run_all(
    scale: &Scale,
    seeds: Seeds,
    seconds: f64,
    dir: &Path,
) -> Result<(Values, usize), String> {
    let timer = Timer::new(seconds);
    let mut values = Values::new();

    let t0 = Instant::now();
    let cube = nyx::velocity_x(scale.side, seeds.field);
    values.push((
        "datagen.nyx_melem_s",
        cube.data.len() as f64 / 1e6 / t0.elapsed().as_secs_f64(),
    ));
    // The two source fields exactly as `interleaved_cesm_hacc` asks for them.
    let source_scale = scale.chunk_elements.max(4096) * 4;
    for (name, dataset, salt) in [
        ("datagen.cesm_melem_s", Dataset::CesmAtm, 0xCE5),
        ("datagen.hacc_melem_s", Dataset::Hacc, 0xAAC),
    ] {
        let mut elements = 0;
        let s = timer.median_s(|| {
            let field = dataset.generate(source_scale, seeds.field ^ salt);
            elements = field.data.len();
            field
        });
        values.push((name, elements as f64 / 1e6 / s));
    }

    let inputs = Inputs {
        scale: *scale,
        seeds,
        dims: cube.dims().extents().to_vec(),
        cube: cube.data,
        stream: stream::stream_field(scale, seeds),
        dir: dir.to_path_buf(),
        timer,
    };
    values.extend(sz::probe(&inputs)?);
    values.extend(zfp::probe(&inputs)?);
    values.extend(codec_wire::probe(&inputs)?);
    values.extend(pipeline::probe(&inputs)?);
    values.extend(serve::probe(&inputs)?);
    values.extend(model::probe(&inputs)?);
    Ok((values, inputs.timer.fewest_reps()))
}
