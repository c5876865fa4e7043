//! Order statistics over latency samples.

/// Median of `v` (sorted in place); the mean of the two middle values
/// for an even count. `NaN` for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest value of `v`; infinity for an empty slice.
pub fn min(v: impl IntoIterator<Item = f64>) -> f64 {
    v.into_iter().fold(f64::INFINITY, f64::min)
}

/// A percentile that was refused because too few samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples strictly beyond the requested rank.
    pub beyond: usize,
    /// Samples required beyond it.
    pub required: usize,
}

/// Nearest-rank percentile `p` (0..1) of an ascending-sorted slice.
///
/// Refused unless at least `min_beyond` samples lie above the returned
/// rank: a tail figure resting on a handful of samples is an outlier
/// report, not a percentile. The workloads pass 10 (so p90 needs 100
/// ops); `--smoke` passes 0.
pub fn percentile(sorted: &[f64], p: f64, min_beyond: usize) -> Result<f64, TooFewSamples> {
    let n = sorted.len();
    if n == 0 {
        return Err(TooFewSamples {
            beyond: 0,
            required: min_beyond,
        });
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
    let beyond = n - 1 - rank;
    if beyond < min_beyond {
        return Err(TooFewSamples {
            beyond,
            required: min_beyond,
        });
    }
    Ok(sorted[rank])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn p90_of_100_has_exactly_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.90, 10), Ok(90.0));
        assert_eq!(percentile(&v, 0.50, 10), Ok(50.0));
    }

    #[test]
    fn refuses_a_percentile_with_fewer_than_ten_samples_beyond() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        // ceil(0.9 * 99) = 90 -> rank 89, 9 samples beyond.
        assert_eq!(
            percentile(&v, 0.90, 10),
            Err(TooFewSamples {
                beyond: 9,
                required: 10
            })
        );
        // p99 of 100 samples leaves one beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 0.99, 10),
            Err(TooFewSamples {
                beyond: 1,
                required: 10
            })
        );
        // The smoke rule waives the guard.
        assert_eq!(percentile(&v, 0.99, 0), Ok(99.0));
        assert!(percentile(&[], 0.5, 0).is_err());
    }
}
