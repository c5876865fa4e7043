//! The five closed-loop workloads and the loop that drives them.
//!
//! A workload is set up from the seeds (inputs, reference outputs, three
//! warm-up ops), then exposes one or more *lanes*. A lane is one closed
//! loop: its next op is issued when the previous one returns. The file
//! workloads have one lane; `serve_mixed` has one per client connection.
//! Every op times only the calls into the program; the output checks run
//! between ops, outside the timed span.
//!
//! The window closes on the first cycle boundary of every lane after
//! `--seconds`, so it holds whole op cycles.
//!
//! The sandbox shares its cores. With no pattern that any kernel of the
//! benchmark's own can sense, an op runs 1.3 to 1.5 times slower than
//! its twin one cycle earlier: single ops, stretches of seconds, whole
//! minutes; between a twentieth and nine tenths of a window. A
//! statistic that a slowdown of half the repeats moves is moved by the
//! sandbox in exactly that way: over ten-seed rounds the quartiles of the
//! window's own median, 90th percentile and bytes per wall second lie up
//! to 27 % apart, more than the widest bound `BENCHMARK.json` may declare.
//! The noise only ever adds time, and the op at a given position of the
//! cycle always does the same work, so the timing metrics are read off
//! the *quiet-machine latency profile*: the fastest repeat of every
//! cycle position. What they cannot show (a stall, a slow repeat, two
//! clients contending for the shards) is in the window's own statistics,
//! which the ledger keeps beside them as `window_*`.

mod dump3d;
mod restart3d;
pub mod serve_mixed;
pub mod stream;

use crate::spans::Recorder;
use crate::stats;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Input sizes. `FULL` is what `BENCHMARK.json`'s numbers are measured
/// at; `SMOKE` only proves that every path runs and every name prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Side of the NYX `velocity_x` cube (`dump3d_sz`, `restart3d_sz`).
    pub side: usize,
    /// Elements per rank-1 stream chunk (`stream_*`).
    pub chunk_elements: usize,
    /// Elements per serve request.
    pub request_elements: usize,
    /// Repeats required of every cycle position, and samples required
    /// beyond the window's own 90th percentile (0 waives both for
    /// `--smoke`).
    pub min_beyond: usize,
}

impl Scale {
    /// 96³ cube (3.5 MB; with its working arrays past the 4 MiB L2),
    /// 24 Ki-element chunks, 16 Ki-element requests: the largest sizes
    /// at which every workload finishes over 100 ops in the 15 s window
    /// the driver's time cap leaves room for, also while the sandbox is
    /// in its slow state.
    pub const FULL: Scale = Scale {
        side: 96,
        chunk_elements: 24 << 10,
        request_elements: 16 << 10,
        min_beyond: 10,
    };
    /// 32³ cube, 8 Ki-element chunks and requests.
    pub const SMOKE: Scale = Scale {
        side: 32,
        chunk_elements: 8 << 10,
        request_elements: 8 << 10,
        min_beyond: 0,
    };
}

/// What a run's inputs are made from.
///
/// The driver judges every metric across runs with ten different
/// `--seed`s. Fields generated from ten seeds compress 3.6 to 7.4 %
/// apart and decode up to 15 % apart, which would bury a lost percent of
/// ratio, so the *data* comes from `field` (fixed unless `--field-seed`
/// says otherwise) and `--seed` shuffles the *traffic*: the order of the
/// bounds, of the stream's chunks, of the request chunks. Every op cycle
/// then moves the same bytes whatever the seed, and `stored_ratio` and
/// `modeled_j_per_gb` are exact across seeds, not only per seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// Seed of the generated fields.
    pub field: u64,
    /// Seed of the order in which the traffic visits them.
    pub traffic: u64,
}

/// The default of both seeds.
pub const DEFAULT_SEED: u64 = 11;

/// A permutation of `0..n` drawn from `seed` (splitmix64, Fisher-Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

/// Chunks per stream container.
pub const STREAM_CHUNKS: usize = 32;
/// Warm-up ops per lane, inside set-up.
pub const WARMUP_OPS: usize = 3;
/// The paper's four absolute error bounds (§III-A).
pub const PAPER_BOUNDS: [f64; 4] = [1e-1, 1e-2, 1e-3, 1e-4];
/// The bound of the stream and serve workloads, and of most probes.
pub const STREAM_BOUND: f64 = 1e-3;

/// What one op did.
#[derive(Debug, Clone, Copy)]
pub struct OpOutcome {
    /// Index into the workload's `kinds()`.
    pub kind: usize,
    /// Start of the timed span.
    pub start: Instant,
    /// End of the timed span.
    pub end: Instant,
    /// Uncompressed bytes that entered or left a codec.
    pub raw_bytes: u64,
    /// Container or response bytes for those.
    pub stored_bytes: u64,
    /// Modeled energy for the op's work, in whole nanojoules: integer
    /// sums repeat exactly whatever the order of the ops.
    pub nanojoules: u64,
    /// No error status and every output check passed.
    pub ok: bool,
}

impl OpOutcome {
    /// The timed span, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// One closed loop of a workload.
pub trait Lane: Send {
    /// Run op `i` of this lane: time the calls into the program, then
    /// check the output.
    fn op(&mut self, i: usize, rec: &Recorder) -> OpOutcome;
}

/// A workload after set-up.
pub trait Workload {
    /// Names of the op kinds it cycles through.
    fn kinds(&self) -> &'static [&'static str];
    /// Ops per lane after which the op sequence repeats: the op at a
    /// given position of the cycle always does the same work. A window
    /// closes on a multiple of it.
    fn cycle_len(&self) -> usize;
    /// The closed loops, borrowing the workload's inputs.
    fn lanes(&mut self) -> Vec<Box<dyn Lane + '_>>;
    /// Checks after the window (decode what landed on disk, read the
    /// server's counters), one message per failure. Ops that compare
    /// every output with a verified reference need none.
    fn check(&mut self) -> Vec<String> {
        Vec::new()
    }
    /// Stop whatever set-up started and wait for it to end.
    fn tear_down(self: Box<Self>) {}
}

/// When a lane stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After exactly this many ops (warm-up, traced pass).
    Ops(usize),
    /// At the first cycle boundary after this much time.
    Window(Duration),
}

fn run_lane(lane: &mut dyn Lane, cycle: usize, stop: Stop, rec: &Recorder) -> Vec<OpOutcome> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(lane.op(out.len(), rec));
        let done = match stop {
            Stop::Ops(n) => out.len() >= n,
            // The cap only matters if an op stalls: never loop forever
            // waiting for a boundary.
            Stop::Window(w) => {
                let t = t0.elapsed();
                (t >= w && out.len() % cycle == 0) || t >= 3 * w
            }
        };
        if done {
            return out;
        }
    }
}

/// Drive every lane of `w` until `stop`; one outcome list per lane.
pub fn run_lanes(w: &mut dyn Workload, stop: Stop, rec: &Recorder) -> Vec<Vec<OpOutcome>> {
    let cycle = w.cycle_len();
    let mut lanes = w.lanes();
    if let [lane] = lanes.as_mut_slice() {
        return vec![run_lane(lane.as_mut(), cycle, stop, rec)];
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .map(|lane| s.spawn(move || run_lane(lane.as_mut(), cycle, stop, rec)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a lane panicked"))
            .collect()
    })
}

/// Build workload `name` from `seeds` and run its warm-up ops. Files go
/// under `dir`, which must exist and be empty.
pub fn set_up(
    name: &str,
    scale: &Scale,
    seeds: Seeds,
    dir: &Path,
) -> Result<Box<dyn Workload>, String> {
    let mut w: Box<dyn Workload> = match name {
        "dump3d_sz" => Box::new(dump3d::Dump3d::new(scale, seeds, dir)?),
        "restart3d_sz" => Box::new(restart3d::Restart3d::new(scale, seeds, dir)?),
        "stream_write" => Box::new(stream::StreamWrite::new(scale, seeds, dir)?),
        "stream_restart" => Box::new(stream::StreamRestart::new(scale, seeds, dir)?),
        "serve_mixed" => Box::new(serve_mixed::ServeMixed::new(scale, seeds, dir)?),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let warm = run_lanes(w.as_mut(), Stop::Ops(WARMUP_OPS), &Recorder::off());
    if warm.iter().flatten().any(|o| !o.ok) {
        return Err(format!("{name}: a warm-up op failed its check"));
    }
    Ok(w)
}

/// A fresh scratch directory for one set-up, inside the benchmark's own
/// `out/` (the driver allows writes only inside the checkout).
pub fn scratch_dir(out_dir: &Path, tag: &str) -> Result<PathBuf, String> {
    let dir = out_dir.join(format!("run-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Per-kind summary of a window.
#[derive(Debug, Clone, PartialEq)]
pub struct KindSummary {
    /// Kind name.
    pub name: &'static str,
    /// Ops of this kind.
    pub ops: usize,
    /// Their fastest latency, ms.
    pub min_ms: f64,
    /// Their median latency over the whole window, ms.
    pub p50_ms: f64,
}

/// The end-to-end figures of one window, set-up aside.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    /// Ops attempted.
    pub ops: usize,
    /// Ops that failed.
    pub failed: usize,
    /// Fewest repeats any cycle position got.
    pub repeats: usize,
    /// Uncompressed MB (1e6 B) of one op cycle per second of its
    /// quiet-machine profile, summed over lanes.
    pub throughput_mbps: f64,
    /// Median of the quiet-machine profile (nearest rank over the cycle
    /// positions of every lane).
    pub op_p50_ms: f64,
    /// 90th percentile of the quiet-machine profile.
    pub op_p90_ms: f64,
    /// Uncompressed / stored bytes of one op cycle of every lane.
    pub stored_ratio: f64,
    /// Modeled joules per uncompressed GB of the same ops.
    pub modeled_j_per_gb: f64,
    /// First op start to last op end, s.
    pub wall_s: f64,
    /// Uncompressed MB per wall second of the window.
    pub window_throughput_mbps: f64,
    /// Median latency of every op of the window.
    pub window_p50_ms: f64,
    /// Their 90th percentile, when at least `min_beyond` samples lie
    /// beyond it.
    pub window_p90_ms: Option<f64>,
    /// Per-kind figures.
    pub kinds: Vec<KindSummary>,
}

/// Reduce the lanes' outcomes to the end-to-end figures. `cycle` is the
/// workload's `cycle_len`; every cycle position must have run at least
/// `min_beyond` times (and at least once).
pub fn summarize(
    lanes: &[Vec<OpOutcome>],
    kinds: &'static [&'static str],
    cycle: usize,
    min_beyond: usize,
) -> Result<WindowSummary, String> {
    let all: Vec<&OpOutcome> = lanes.iter().flatten().collect();
    let (Some(first), Some(last)) = (
        all.iter().map(|o| o.start).min(),
        all.iter().map(|o| o.end).max(),
    ) else {
        return Err("no op ran".to_string());
    };
    let ops = all.len();
    // The quiet-machine profile: per lane and cycle position, the fastest
    // repeat, with the bytes an op at that position moves.
    let mut profile: Vec<f64> = Vec::new();
    let mut throughput_mbps = 0.0;
    let mut repeats = usize::MAX;
    for lane in lanes {
        let (mut lane_ms, mut lane_bytes) = (0.0, 0u64);
        for position in 0..cycle.min(lane.len()) {
            let at = lane.iter().skip(position).step_by(cycle);
            repeats = repeats.min(at.clone().count());
            let floor = stats::min(at.map(OpOutcome::latency_ms));
            lane_bytes += lane[position].raw_bytes;
            lane_ms += floor;
            profile.push(floor);
        }
        throughput_mbps += lane_bytes as f64 / 1e3 / lane_ms;
    }
    if repeats < min_beyond {
        return Err(format!(
            "{ops} ops in the window repeat some cycle position only {repeats} times; {min_beyond} are required"
        ));
    }
    profile.sort_unstable_by(f64::total_cmp);
    let of_profile = |p| stats::percentile(&profile, p, 0).expect("the profile is not empty");

    let mut lat_ms: Vec<f64> = all.iter().map(|o| o.latency_ms()).collect();
    let window_p50_ms = stats::median(&mut lat_ms);
    let kinds: Vec<KindSummary> = kinds
        .iter()
        .enumerate()
        .map(|(k, &name)| {
            let mut ms: Vec<f64> = all
                .iter()
                .filter(|o| o.kind == k)
                .map(|o| o.latency_ms())
                .collect();
            KindSummary {
                name,
                ops: ms.len(),
                min_ms: stats::min(ms.iter().copied()),
                p50_ms: stats::median(&mut ms),
            }
        })
        .collect();
    // One whole cycle of every lane: the lanes of `serve_mixed` may fit
    // different numbers of cycles into a window, and the byte and joule
    // ratios must not depend on that.
    let first_cycle = || lanes.iter().flat_map(|lane| lane.iter().take(cycle));
    let raw: u64 = first_cycle().map(|o| o.raw_bytes).sum();
    let stored: u64 = first_cycle().map(|o| o.stored_bytes).sum();
    let nanojoules: u64 = first_cycle().map(|o| o.nanojoules).sum();
    // Which is sound only if every repeat of a position moved what its
    // first repeat moved; one that did not is a failed op.
    let moved = |o: &OpOutcome| (o.raw_bytes, o.stored_bytes, o.nanojoules);
    let failed = lanes
        .iter()
        .flat_map(|lane| {
            lane.iter()
                .enumerate()
                .map(move |(i, o)| (o, &lane[i % cycle]))
        })
        .filter(|(o, first)| !o.ok || moved(o) != moved(first))
        .count();
    let window_raw: u64 = all.iter().map(|o| o.raw_bytes).sum();
    let wall_s = last.duration_since(first).as_secs_f64();
    Ok(WindowSummary {
        ops,
        failed,
        repeats,
        throughput_mbps,
        op_p50_ms: of_profile(0.50),
        op_p90_ms: of_profile(0.90),
        stored_ratio: raw as f64 / stored as f64,
        // nJ per byte is J per GB; one division of two exact integers.
        modeled_j_per_gb: nanojoules as f64 / raw as f64,
        wall_s,
        window_throughput_mbps: window_raw as f64 / 1e6 / wall_s,
        window_p50_ms,
        window_p90_ms: stats::percentile(&lat_ms, 0.90, min_beyond).ok(),
        kinds,
    })
}

/// Largest |a - b| over two equally long slices, in f64.
pub fn max_abs_err(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (f64::from(*x) - f64::from(*y)).abs())
        .fold(0.0, f64::max)
}

/// Bit-for-bit equality of two float slices (`==` would call NaNs
/// unequal and -0.0 equal to 0.0).
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Back-to-back ops of one lane with the given latencies, kind
    /// `i % 2`, 1 MB each, the first starting at `t0`.
    fn lane(t0: Instant, ms: impl IntoIterator<Item = u64>) -> Vec<OpOutcome> {
        let mut at = 0;
        ms.into_iter()
            .enumerate()
            .map(|(i, ms)| {
                let start = t0 + Duration::from_millis(at);
                at += ms;
                OpOutcome {
                    kind: i % 2,
                    start,
                    end: start + Duration::from_millis(ms),
                    raw_bytes: 1_000_000,
                    stored_bytes: 250_000,
                    nanojoules: 2_000_000,
                    ok: true,
                }
            })
            .collect()
    }

    const KINDS: &[&str] = &["fast", "slow"];

    #[test]
    fn timing_metrics_come_from_the_fastest_repeat_of_each_cycle_position() {
        let t0 = Instant::now();
        // 100 ops alternating a 10 ms and a 30 ms kind; a busy neighbour
        // slows ops 20..80 by half.
        let mut ops = lane(
            t0,
            (0..100).map(|i| {
                let quiet = if i % 2 == 0 { 10 } else { 30 };
                if (20..80).contains(&i) {
                    quiet * 3 / 2
                } else {
                    quiet
                }
            }),
        );
        ops[7].ok = false;
        let s = summarize(&[ops], KINDS, 2, 10).unwrap();
        assert_eq!((s.ops, s.failed, s.repeats), (100, 1, 50));
        // The profile is [10, 30] ms: 2 MB per 40 ms.
        assert!((s.throughput_mbps - 50.0).abs() < 1e-9);
        assert_eq!((s.op_p50_ms, s.op_p90_ms), (10.0, 30.0));
        // The window's own statistics follow the neighbour: 100 MB in
        // 2.6 s; sorted 20 x 10, 30 x 15, 20 x 30, 30 x 45.
        assert!((s.wall_s - 2.6).abs() < 1e-9);
        assert!((s.window_throughput_mbps - 100.0 / 2.6).abs() < 1e-9);
        assert_eq!((s.window_p50_ms, s.window_p90_ms), (22.5, Some(45.0)));
        assert!((s.stored_ratio - 4.0).abs() < 1e-12);
        // 2 mJ per MB = 2 J per GB.
        assert!((s.modeled_j_per_gb - 2.0).abs() < 1e-9);
        assert_eq!(
            s.kinds[1],
            KindSummary {
                name: "slow",
                ops: 50,
                min_ms: 30.0,
                p50_ms: 45.0
            }
        );
    }

    /// The price of reading the timing metrics off the fastest repeats,
    /// stated as a test: a slowdown that spares some repeats of every
    /// position moves only the `window_*` statistics. That is also all
    /// the sandbox's own slow stretches do, which is why those statistics
    /// cannot carry a bound (see the README for the measured spreads).
    #[test]
    fn a_slowdown_that_hits_half_the_repeats_moves_only_the_window_statistics() {
        let t0 = Instant::now();
        let window = |cycle: [u64; 4]| {
            let ops = lane(t0, (0..120).map(|i| cycle[i % 4]));
            summarize(&[ops], KINDS, 2, 10).unwrap()
        };
        let base = window([10, 30, 10, 30]);
        // Every second repeat of both positions now takes twice as long.
        let hit = window([10, 30, 20, 60]);
        assert_eq!((base.window_p50_ms, base.window_p90_ms), (20.0, Some(30.0)));
        assert_eq!((hit.window_p50_ms, hit.window_p90_ms), (25.0, Some(60.0)));
        assert!((base.window_throughput_mbps - 50.0).abs() < 1e-9);
        assert!((hit.window_throughput_mbps - 100.0 / 3.0).abs() < 1e-9);
        assert_eq!(
            (hit.throughput_mbps, hit.op_p50_ms, hit.op_p90_ms),
            (base.throughput_mbps, base.op_p50_ms, base.op_p90_ms)
        );
        // A slowdown of every repeat of one position moves them all.
        let all = window([10, 60, 10, 60]);
        assert_eq!((all.op_p50_ms, all.op_p90_ms), (10.0, 60.0));
        assert!((all.throughput_mbps - 2e3 / 70.0).abs() < 1e-9);
    }

    #[test]
    fn lanes_add_their_throughput_and_pool_their_profiles() {
        let t0 = Instant::now();
        let s = summarize(
            &[lane(t0, [10; 10]), lane(t0, [20; 10])],
            &["k", "k2"],
            1,
            10,
        )
        .unwrap();
        assert!((s.throughput_mbps - 150.0).abs() < 1e-9);
        assert_eq!((s.op_p50_ms, s.op_p90_ms), (10.0, 20.0));
        // 20 MB in the 200 ms the slower lane took.
        assert!((s.window_throughput_mbps - 100.0).abs() < 1e-9);
    }

    #[test]
    fn summary_refuses_a_cycle_position_with_too_few_repeats() {
        let t0 = Instant::now();
        // 19 ops of a 2-op cycle: the second position ran 9 times.
        let ops = lane(t0, [10; 19]);
        assert!(summarize(std::slice::from_ref(&ops), KINDS, 2, 10)
            .unwrap_err()
            .contains("only 9 times"));
        // The smoke rule waives that, and the window's own 90th
        // percentile needs no ten samples beyond it then.
        let s = summarize(&[ops], KINDS, 2, 0).unwrap();
        assert_eq!((s.repeats, s.window_p90_ms), (9, Some(10.0)));
        // Under 100 ops the window has no 90th percentile.
        let s = summarize(&[lane(t0, [10; 99])], KINDS, 1, 10).unwrap();
        assert_eq!(s.window_p90_ms, None);
        assert!(summarize(&[], KINDS, 1, 0).is_err());
    }

    #[test]
    fn an_op_that_moves_other_bytes_than_its_first_repeat_fails() {
        let t0 = Instant::now();
        let mut ops = lane(t0, [10; 8]);
        ops[5].stored_bytes += 1;
        assert_eq!(summarize(&[ops], KINDS, 2, 0).unwrap().failed, 1);
    }

    #[test]
    fn the_seed_shuffles_the_order_and_nothing_else() {
        let a = shuffled(16, 5);
        assert_eq!(a, shuffled(16, 5));
        assert_ne!(a, shuffled(16, 6));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        assert_eq!(shuffled(1, 9), vec![0]);
    }

    #[test]
    fn generated_inputs_depend_only_on_the_seeds() {
        let scale = Scale::SMOKE;
        let seeds = |field, traffic| Seeds { field, traffic };
        let field = |s| stream::stream_field(&scale, s);
        assert_eq!(field(seeds(5, 1)), field(seeds(5, 1)));
        // Another traffic seed: the same chunks in another order.
        let (a, b) = (field(seeds(5, 1)), field(seeds(5, 2)));
        assert_ne!(a, b);
        let chunks = |f: &[f32]| {
            let mut c: Vec<Vec<u32>> = f
                .chunks(scale.chunk_elements)
                .map(|c| c.iter().map(|v| v.to_bits()).collect())
                .collect();
            c.sort_unstable();
            c
        };
        assert_eq!(chunks(&a), chunks(&b));
        // Another field seed: other data.
        assert_ne!(chunks(&a), chunks(&field(seeds(6, 1))));
        let cube = |seed| lcpio_datagen::nyx::velocity_x(16, seed).data;
        assert_eq!(cube(5), cube(5));
        assert_ne!(cube(5), cube(6));
        let serve = |s| serve_mixed::ServeInputs::new(&scale, s).unwrap();
        let (a, b) = (serve(seeds(5, 1)), serve(seeds(5, 1)));
        assert_eq!(a.elements, b.elements);
        assert_eq!(a.containers, b.containers);
        assert_eq!(a.decoded, b.decoded);
        assert_ne!(a.elements, serve(seeds(5, 2)).elements);
    }

    #[test]
    fn bit_equality_is_stricter_than_float_equality() {
        assert!(same_bits(&[f32::NAN, 1.0], &[f32::NAN, 1.0]));
        assert!(!same_bits(&[0.0], &[-0.0]));
        assert!(!same_bits(&[1.0], &[1.0, 2.0]));
        assert_eq!(max_abs_err(&[1.0, 2.0], &[1.5, 2.0]), 0.5);
    }
}
