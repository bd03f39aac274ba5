//! Completion-time statistics: percentiles and size-bucketed summaries.

use mtp_sim::time::Duration;
use serde::Serialize;

/// Percentile of a sample set (nearest-rank on a sorted copy).
///
/// `p` in `[0, 100]`. Returns 0 for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// Mean and sample standard deviation of a slice.
///
/// Returns `(0.0, 0.0)` for an empty slice and a zero deviation for a
/// single sample.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
    (mean, var.sqrt())
}

/// One completed transfer.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FctSample {
    /// Transfer size in bytes.
    pub bytes: u64,
    /// Completion time.
    pub fct: Duration,
}

/// Collects flow/message completion times and summarizes them.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FctCollector {
    /// All recorded samples.
    pub samples: Vec<FctSample>,
}

/// Summary statistics over a set of completions.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FctSummary {
    /// Number of samples.
    pub count: usize,
    /// Mean FCT in microseconds.
    pub mean_us: f64,
    /// Median FCT in microseconds.
    pub p50_us: f64,
    /// 99th-percentile FCT in microseconds.
    pub p99_us: f64,
    /// Worst FCT in microseconds.
    pub max_us: f64,
}

impl FctCollector {
    /// An empty collector.
    pub fn new() -> FctCollector {
        FctCollector::default()
    }

    /// Record one completion.
    pub fn record(&mut self, bytes: u64, fct: Duration) {
        self.samples.push(FctSample { bytes, fct });
    }

    /// Summarize all samples.
    pub fn summary(&self) -> FctSummary {
        Self::summarize(&self.samples)
    }

    /// Summarize the samples whose sizes fall in `[lo, hi)`.
    pub fn summary_for_sizes(&self, lo: u64, hi: u64) -> FctSummary {
        let bucket: Vec<FctSample> = self
            .samples
            .iter()
            .copied()
            .filter(|s| s.bytes >= lo && s.bytes < hi)
            .collect();
        Self::summarize(&bucket)
    }

    fn summarize(samples: &[FctSample]) -> FctSummary {
        let us: Vec<f64> = samples.iter().map(|s| s.fct.as_micros_f64()).collect();
        let mean = if us.is_empty() {
            0.0
        } else {
            us.iter().sum::<f64>() / us.len() as f64
        };
        FctSummary {
            count: us.len(),
            mean_us: mean,
            p50_us: percentile(&us, 50.0),
            p99_us: percentile(&us, 99.0),
            max_us: us.iter().cloned().fold(0.0, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 50.0), 51.0); // nearest rank on 0..99
        assert_eq!(percentile(&[], 99.0), 0.0);
        // round(p·(n−1)) on a short, unsorted series: rank 2 and rank 4.
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 99.0), 5.0);
    }

    #[test]
    fn summary_math() {
        let mut c = FctCollector::new();
        c.record(100, Duration::from_micros(10));
        c.record(100, Duration::from_micros(30));
        let s = c.summary();
        assert_eq!(s.count, 2);
        assert!((s.mean_us - 20.0).abs() < 1e-9);
        assert_eq!(s.max_us, 30.0);
    }

    #[test]
    fn size_buckets() {
        let mut c = FctCollector::new();
        c.record(500, Duration::from_micros(1));
        c.record(5_000, Duration::from_micros(2));
        c.record(50_000, Duration::from_micros(3));
        for (lo, hi) in [(100, 1_000), (1_000, 10_000), (10_000, 100_000)] {
            assert_eq!(c.summary_for_sizes(lo, hi).count, 1, "[{lo}, {hi})");
        }
        assert!((c.summary_for_sizes(1_000, 10_000).mean_us - 2.0).abs() < 1e-9);
    }
}
