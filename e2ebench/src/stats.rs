//! Exact order statistics over raw per-op samples.
//!
//! Deliberately not `bench::TimingStats`: that type keeps a log-bucketed
//! `vas_obs::Histogram`, whose bucket error (up to 25%) is larger than the
//! run-to-run spread this benchmark has to resolve.

/// The `p`-th percentile (`0 ..= 100`) of `samples`, interpolating linearly
/// between the two closest ranks (rank `p/100 · (n − 1)` of the sorted
/// samples; NumPy's default definition). `None` for an empty input or a `p`
/// outside `0 ..= 100`.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The arithmetic mean of `samples` (`None` when empty).
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_computed_percentiles() {
        // Even count: the median sits halfway between the middle pair.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // Odd count: the middle element, whatever the input order.
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        // 1..=10: rank 0.9 · 9 = 8.1 → 9 + 0.1 · (10 − 9).
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((percentile(&ten, 90.0).unwrap() - 9.1).abs() < 1e-12);
        // 1..=101: rank 0.9 · 100 = 90 lands exactly on the 91st value.
        let hundred_one: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&hundred_one, 90.0), Some(91.0));
        // Quartiles of 1..=5 with this definition: 2 and 4.
        let five = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(percentile(&five, 25.0), Some(2.0));
        assert_eq!(percentile(&five, 75.0), Some(4.0));
    }

    #[test]
    fn edges_and_rejections() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0], 101.0), None);
        assert_eq!(percentile(&[1.0], -1.0), None);
        assert_eq!(percentile(&[7.5], 90.0), Some(7.5));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 100.0), Some(3.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
