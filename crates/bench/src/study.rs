//! Measurement helpers for the `mtp-scenario` runner.
//!
//! A scenario cell is reduced to sorted message completion times,
//! completions inside a fault window, round-to-nearest percentiles, and
//! the damaged-frame total across the four path links; the
//! periodic-workload builders are shared with `golden_replay.rs`'s inline
//! reference runs so both submit byte-identical schedules.

use mtp_core::ScheduledMsg;
use mtp_faults::ParallelPaths;
use mtp_sim::time::{Duration, Time};

/// `n` microseconds after the epoch.
pub fn us(n: u64) -> Time {
    Time::ZERO + Duration::from_micros(n)
}

/// Nearest-rank percentile over an already-sorted series (`p` in 0..=1).
/// NaN on empty input.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// The periodic workload every failure study submits: `count` messages of
/// `bytes`, one every `every_us`, as an MTP schedule.
pub fn mtp_periodic(count: u64, bytes: u64, every_us: u64) -> Vec<ScheduledMsg> {
    (0..count)
        .map(|i| ScheduledMsg::new(us(every_us * i), bytes as u32))
        .collect()
}

/// The same periodic workload as a TCP schedule.
pub fn tcp_periodic(count: u64, bytes: u64, every_us: u64) -> Vec<(Time, u64)> {
    (0..count).map(|i| (us(every_us * i), bytes)).collect()
}

/// Frames damaged in flight, summed over the network's four path links.
pub fn corrupted_frames(d: &ParallelPaths) -> u64 {
    [d.a_fwd, d.a_rev, d.b_fwd, d.b_rev]
        .iter()
        .map(|&l| d.sim.link_stats(l).corrupted_pkts)
        .sum()
}

/// Completion-time summary of one contender's message records.
pub struct CompletionStats {
    /// Sorted message completion times, microseconds.
    pub mct_us: Vec<f64>,
    /// Messages that completed.
    pub completed: usize,
    /// Completions strictly inside the window passed to
    /// [`completion_stats`] (0 when no window was given).
    pub during_window: usize,
    /// Nearest-rank p50 of `mct_us`.
    pub p50_us: f64,
    /// Nearest-rank p99 of `mct_us`.
    pub p99_us: f64,
}

/// Summarize `(submitted, completed)` message records, counting
/// completions strictly inside `window_us` when given.
pub fn completion_stats(
    records: impl Iterator<Item = (Time, Option<Time>)>,
    window_us: Option<(u64, u64)>,
) -> CompletionStats {
    let mut mct_us = Vec::new();
    let mut completed = 0usize;
    let mut during_window = 0usize;
    for (submitted, done) in records {
        if let Some(t) = done {
            completed += 1;
            mct_us.push(t.since(submitted).as_micros_f64());
            if let Some((from, to)) = window_us {
                if t > us(from) && t < us(to) {
                    during_window += 1;
                }
            }
        }
    }
    mct_us.sort_by(f64::total_cmp);
    CompletionStats {
        p50_us: percentile(&mct_us, 0.50),
        p99_us: percentile(&mct_us, 0.99),
        mct_us,
        completed,
        during_window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.50), 3.0);
        assert_eq!(percentile(&s, 0.99), 5.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn window_counting_is_strict() {
        let recs = vec![
            (us(0), Some(us(100))), // at the window edge: excluded
            (us(0), Some(us(101))), // inside
            (us(0), Some(us(200))), // at the far edge: excluded
            (us(0), None),
        ];
        let s = completion_stats(recs.into_iter(), Some((100, 200)));
        assert_eq!(s.completed, 3);
        assert_eq!(s.during_window, 1);
    }
}
