//! Order statistics over timing samples.

/// The `p`-th percentile of `samples` by nearest rank; 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest of p99, p95, p90, p75 that still leaves at least ten of `n`
/// samples beyond it, or `None` when even p75 does not.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75]
        .into_iter()
        .find(|p| n * (100 - *p as usize) / 100 >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&samples), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(120), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
    }
}
