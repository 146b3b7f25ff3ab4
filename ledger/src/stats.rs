//! Sample statistics and the across-rep estimator (the median).

/// Sorts samples ascending. Samples are finite by construction (durations
/// and counter ratios), so the total order never meets a NaN.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Nearest-rank percentile of ascending `sorted` samples; 0 when empty.
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() * pct as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The highest of p99, p90 and p50 that still has at least ten samples
/// beyond it: a percentile resting on fewer is one outlier, not a tail.
pub fn tail_pct(samples: usize) -> u32 {
    [99u32, 90]
        .into_iter()
        .find(|pct| samples * (100 - *pct as usize) >= 1000)
        .unwrap_or(50)
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Median latency of the last tenth of ops over that of the first tenth,
/// in op order: above 1 when per-op cost grows with cumulative work.
pub fn drift_ratio(in_order: &[f64]) -> f64 {
    let tenth = (in_order.len() / 10).max(1);
    if in_order.len() < 2 * tenth {
        return 1.0;
    }
    let first = median(&in_order[..tenth]);
    let last = median(&in_order[in_order.len() - tenth..]);
    if first > 0.0 {
        last / first
    } else {
        1.0
    }
}

/// (max − min) / min of per-rep values: how far single reps disagree.
pub fn rep_spread(values: &[f64]) -> f64 {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(0.0, f64::max);
    if min > 0.0 && min.is_finite() {
        (max - min) / min
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50), 50.0);
        assert_eq!(percentile(&s, 90), 90.0);
        assert_eq!(percentile(&s, 99), 99.0);
        assert_eq!(percentile(&s, 100), 100.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
        assert_eq!(percentile(&[], 50), 0.0);
        // Three samples: p50 is the middle one, not an interpolation.
        assert_eq!(percentile(&[1.0, 2.0, 9.0], 50), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_pct(20_000), 99);
        assert_eq!(tail_pct(1_000), 99);
        assert_eq!(tail_pct(999), 90);
        assert_eq!(tail_pct(100), 90);
        assert_eq!(tail_pct(99), 50);
        assert_eq!(tail_pct(32), 50);
    }

    #[test]
    fn median_of_reps_ignores_one_fast_and_one_slow_rep() {
        let reps = [104.0, 38.5, 131.0, 99.0, 100.0];
        assert_eq!(median(&reps), 100.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert!((rep_spread(&reps) - (131.0 - 38.5) / 38.5).abs() < 1e-12);
        assert_eq!(rep_spread(&[]), 0.0);
    }

    #[test]
    fn drift_compares_last_tenth_with_first() {
        let flat = vec![5.0; 100];
        assert_eq!(drift_ratio(&flat), 1.0);
        let mut growing = vec![10.0; 100];
        growing[90..].fill(30.0);
        assert_eq!(drift_ratio(&growing), 3.0);
        assert_eq!(drift_ratio(&[4.0]), 1.0);
    }
}
