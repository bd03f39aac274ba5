//! Medians, percentiles and quartile spreads.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller measured at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest, median and largest of `values`.
pub fn min_med_max(values: &[f64]) -> (f64, f64, f64) {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (min, median(values), max)
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Percentile `p` of an ascending slice, or `None` when fewer than
/// [`TAIL_SAMPLES`] samples lie beyond it — a p99 of 200 samples is two
/// outliers, not a percentile.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let beyond = sorted.len() - rank.clamp(1, sorted.len());
    (beyond >= TAIL_SAMPLES).then(|| percentile(sorted, p))
}

/// The highest percentile the sample supports by that rule, with its
/// value.
pub fn highest_supported(sorted: &[f64]) -> Option<(f64, f64)> {
    [99.99, 99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find_map(|p| tail_percentile(sorted, p).map(|v| (p, v)))
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so `compare` judges spread exactly as the acceptance rule does.
/// `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(min_med_max(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn p99_refuses_fewer_than_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: exactly 10 lie beyond the 990th.
        assert_eq!(tail_percentile(&v, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&v[..999], 99.0), None);
        assert_eq!(tail_percentile(&v, 99.9), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }
}
