//! Order statistics with the sample-support rule: a percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! "p99" is never read off a handful of points.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Samples strictly beyond quantile `q` (0..1) of `n` samples: the
/// ones ranked above the `ceil(q·n)`-th.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    // The epsilon keeps q·n = 990.0000001 from rounding up a rank.
    let rank = (q * n as f64 - 1e-9).ceil().max(0.0) as usize;
    n.saturating_sub(rank)
}

/// `true` when `n` samples support quantile `q` (see module docs).
pub fn supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_BEYOND
}

/// Quantile `q` of ascending `sorted` data, interpolating linearly
/// between order statistics.
///
/// # Panics
///
/// Panics on empty input.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts `values` ascending (NaN-free data).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of unsorted values.
///
/// # Panics
///
/// Panics on empty input.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(supported(1000, 0.99));
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert!(!supported(999, 0.99));
        assert!(supported(10_000, 0.999));
        assert!(!supported(9_999, 0.999));
    }

    #[test]
    fn median_needs_twenty_samples() {
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
        assert_eq!(samples_beyond(20, 0.5), 10);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
