//! Machine-speed calibration: a fixed scalar recurrence the benchmark
//! owns, timed before and after every window. It touches none of the
//! program's code, so a change in it between the two readings is the
//! sandbox (a frequency step, a descheduled vCPU), not the commit.
//!
//! It does not see everything. The sandbox's dominant disturbance, under
//! which an op runs 1.3 to 1.5 times slower (single ops, seconds, whole
//! minutes), leaves this kernel's time unchanged, and so it did every other kernel
//! tried beside the ops (eight register-held multiply chains, an LZ-style
//! hash matcher, dependent loads over 16 MiB). A window that is not
//! marked noisy can therefore still have been slowed.

use std::hint::black_box;
use std::time::Instant;

const WORDS: usize = (8 << 20) / 8;
const PASSES: usize = 5;

/// 8 MiB of state for the recurrence, allocated once per process: a
/// fresh buffer for every reading lands on other physical pages, and the
/// reading follows them by up to 15 %.
pub struct Calibrator {
    buf: Vec<u64>,
}

impl Calibrator {
    /// Allocate and fill the buffer.
    pub fn new() -> Self {
        Calibrator {
            buf: (0..WORDS as u64).collect(),
        }
    }

    /// Heap bytes the buffer holds for the whole run; `peak_heap_mb` is
    /// reported without them.
    pub fn heap_bytes(&self) -> usize {
        self.buf.capacity() * std::mem::size_of::<u64>()
    }

    /// Median over five passes of the time, in milliseconds, to run the
    /// dependent multiply-add chain through the whole buffer four times.
    pub fn measure_ms(&mut self) -> f64 {
        let mut times = [0.0; PASSES];
        for t in &mut times {
            let t0 = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..4 {
                for w in self.buf.iter_mut() {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(*w);
                    *w = x;
                }
            }
            black_box(x);
            *t = t0.elapsed().as_secs_f64() * 1e3;
        }
        crate::stats::median(&mut times)
    }
}

/// Signed drift of `after` relative to `before`, in percent.
pub fn drift_pct(before_ms: f64, after_ms: f64) -> f64 {
    (after_ms - before_ms) / before_ms * 100.0
}

/// A window whose calibration moved by more than this is marked noisy.
pub const NOISY_DRIFT_PCT: f64 = 5.0;
