//! Exact summary statistics over raw samples.
//!
//! Quantiles are order statistics of the samples themselves (nearest
//! rank), never bucket edges, so a quantile is always a value that was
//! actually measured. Throughput is total work over total time, which a
//! few slow samples move less than a per-sample median does when the
//! machine's speed swings between modes.

/// The `q`-quantile of `samples` by nearest rank: the smallest sample with
/// at least `q · n` samples at or below it (`q = 0.5` of an even-sized set
/// is the lower median).
///
/// # Panics
///
/// If `samples` is empty or `q` lies outside `[0, 1]`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample set");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // The epsilon keeps `0.95 · 200` at rank 190 despite binary rounding.
    let rank = ((q * sorted.len() as f64) - 1e-9).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The lower median of `samples` (see [`quantile`]).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Work per second over a set of timed windows: `work / Σ seconds`.
///
/// # Panics
///
/// If the windows add up to no time at all.
pub fn throughput(work: f64, seconds: &[f64]) -> f64 {
    let total: f64 = seconds.iter().sum();
    assert!(total > 0.0, "throughput over zero measured time");
    work / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics_pick_measured_samples() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&samples), 3.0);
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&samples, 0.2), 1.0);
        assert_eq!(quantile(&samples, 0.21), 2.0);
        assert_eq!(quantile(&samples, 0.9), 5.0);
        assert_eq!(quantile(&samples, 1.0), 5.0);
        // Even-sized sets take the lower median, not an interpolation.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn high_quantiles_of_a_long_run_land_on_exact_ranks() {
        // 1..=200: p95 is the 190th value and p90 the 180th, with exactly
        // ten and twenty samples beyond them.
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.95), 190.0);
        assert_eq!(quantile(&samples, 0.9), 180.0);
        assert_eq!(quantile(&samples, 0.5), 100.0);
        // No log₂ bucketing: neighbours of a power of two stay distinct.
        assert_eq!(quantile(&[127.0, 128.0, 129.0], 1.0), 129.0);
    }

    #[test]
    fn throughput_is_sum_over_sum() {
        // Two windows of 1 s and 3 s doing 8 units: 2 units/s, where the
        // mean of the per-window rates would claim (8/2/1 + 8/2/3)/2 ≈ 2.67.
        assert_eq!(throughput(8.0, &[1.0, 3.0]), 2.0);
        assert_eq!(throughput(10.0, &[0.5, 0.5, 1.0, 2.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_sets_are_refused() {
        quantile(&[], 0.5);
    }
}
