//! Measurement helpers: binned time series.
//!
//! The paper's figures are time series (goodput every 32 µs in Fig. 5,
//! proxy buffer occupancy over time in Fig. 2) and distributions (99th-
//! percentile FCT in Fig. 6). [`BinSeries`] covers the former; percentile
//! machinery lives in `mtp-workload` next to the collectors that use it.

use serde::Serialize;

use crate::time::{Duration, Time};

/// Accumulates a quantity into fixed-width time bins.
///
/// Typical use: a receiver calls [`add`](Self::add) with the number of
/// goodput bytes each time a packet (or message) completes; afterwards
/// [`rates_gbps`](Self::rates_gbps) yields the per-bin throughput series the
/// figures plot.
#[derive(Debug, Clone, Serialize)]
pub struct BinSeries {
    bin: Duration,
    bins: Vec<f64>,
}

impl BinSeries {
    /// A series with bins of width `bin`.
    pub fn new(bin: Duration) -> BinSeries {
        assert!(bin.0 > 0, "zero-width bins");
        BinSeries {
            bin,
            bins: Vec::new(),
        }
    }

    /// Add `value` at time `t`.
    pub fn add(&mut self, t: Time, value: f64) {
        let idx = (t.0 / self.bin.0) as usize;
        if self.bins.len() <= idx {
            self.bins.resize(idx + 1, 0.0);
        }
        self.bins[idx] += value;
    }

    /// Record that time has advanced to `t` without adding anything, so
    /// trailing zero bins are represented.
    pub fn touch(&mut self, t: Time) {
        let idx = (t.0 / self.bin.0) as usize;
        if self.bins.len() <= idx {
            self.bins.resize(idx + 1, 0.0);
        }
    }

    /// Raw per-bin sums.
    pub fn sums(&self) -> &[f64] {
        &self.bins
    }

    /// Interpret bin sums as byte counts and convert each bin to Gbit/s.
    pub fn rates_gbps(&self) -> Vec<f64> {
        let secs = self.bin.as_secs_f64();
        self.bins.iter().map(|b| b * 8.0 / secs / 1e9).collect()
    }

    /// `(bin_start_time_us, sum)` pairs, for printing.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let w = self.bin.as_micros_f64();
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i as f64 * w, v))
    }

    /// Mean of the per-bin rates in Gbit/s over `[from, to)` bins.
    pub fn mean_rate_gbps(&self, from_bin: usize, to_bin: usize) -> f64 {
        let rates = self.rates_gbps();
        let to = to_bin.min(rates.len());
        if from_bin >= to {
            return 0.0;
        }
        rates[from_bin..to].iter().sum::<f64>() / (to - from_bin) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_accumulate_by_time() {
        let mut s = BinSeries::new(Duration::from_micros(32));
        s.add(Time(0), 100.0);
        s.add(Time(Duration::from_micros(31).0), 50.0);
        s.add(Time(Duration::from_micros(32).0), 25.0);
        assert_eq!(s.sums(), &[150.0, 25.0]);
    }

    #[test]
    fn rates_convert_bytes_to_gbps() {
        let mut s = BinSeries::new(Duration::from_micros(1));
        // 12500 bytes in 1 us = 100 Gbps.
        s.add(Time(0), 12_500.0);
        let rates = s.rates_gbps();
        assert!((rates[0] - 100.0).abs() < 1e-9, "got {}", rates[0]);
    }

    #[test]
    fn touch_extends_with_zeros() {
        let mut s = BinSeries::new(Duration::from_micros(10));
        s.add(Time(0), 1.0);
        s.touch(Time(Duration::from_micros(35).0));
        assert_eq!(s.sums(), &[1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn mean_rate_windows() {
        let mut s = BinSeries::new(Duration::from_micros(1));
        s.add(Time(0), 12_500.0); // 100 Gbps
        s.add(Time(1_000_000), 0.0); // 0 Gbps
        assert!((s.mean_rate_gbps(0, 2) - 50.0).abs() < 1e-9);
        assert_eq!(s.mean_rate_gbps(5, 2), 0.0);
    }
}
