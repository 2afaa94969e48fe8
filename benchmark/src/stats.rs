//! Order statistics for the handful of samples a run produces.

/// Median of `samples` (mean of the middle two for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. No interpolation, so a simulated
/// latency percentile is always a latency some query actually had. 0 for
/// no samples (a run in which every query failed).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn median_ignores_one_outlier_in_five() {
        assert_eq!(median(&[1.0, 1.1, 0.9, 1.05, 40.0]), 1.05);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=64).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 32.0);
        // p80 of 64 samples leaves 12 beyond it: the highest percentile
        // with at least ten samples above.
        assert_eq!(percentile(&s, 80.0), 52.0);
        assert_eq!(percentile(&s, 100.0), 64.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 80.0), 5.0);
        assert_eq!(percentile(&[], 80.0), 0.0);
    }

    #[test]
    fn min_max() {
        assert_eq!(min(&[2.0, -1.0, 3.0]), -1.0);
        assert_eq!(max(&[2.0, -1.0, 3.0]), 3.0);
    }
}
