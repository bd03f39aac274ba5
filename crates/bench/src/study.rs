//! Measurement helpers for the `mtp-scenario` runner.
//!
//! A scenario cell is reduced to its completion count, completions inside
//! a fault window, nearest-rank completion-time percentiles, and the
//! damaged-frame total across the four path links; the periodic-workload
//! builder is shared with `golden_replay.rs`'s inline reference runs so
//! both submit byte-identical schedules.

use mtp_faults::ParallelPaths;
use mtp_sim::time::{Duration, Time};
use mtp_workload::percentile;

/// `n` microseconds after the epoch.
pub fn us(n: u64) -> Time {
    Time::ZERO + Duration::from_micros(n)
}

/// The periodic workload every failure study submits: `count` messages of
/// `bytes`, one every `every_us`.
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
    /// Messages that completed.
    pub completed: usize,
    /// Completions strictly inside the window passed to
    /// [`completion_stats`] (0 when no window was given).
    pub during_window: usize,
    /// Nearest-rank p50 completion time of the timed messages,
    /// microseconds (`None` when none completed).
    pub p50_us: Option<f64>,
    /// Nearest-rank p99, likewise.
    pub p99_us: Option<f64>,
}

/// Summarize `(submitted, completed, bytes)` message records, counting
/// completions strictly inside `window_us` when given and timing only
/// messages smaller than `below_bytes` when given.
pub fn completion_stats(
    records: impl Iterator<Item = (Time, Option<Time>, u64)>,
    window_us: Option<(u64, u64)>,
    below_bytes: Option<u64>,
) -> CompletionStats {
    let mut mct_us = Vec::new();
    let mut completed = 0usize;
    let mut during_window = 0usize;
    for (submitted, done, bytes) in records {
        if let Some(t) = done {
            completed += 1;
            if below_bytes.is_none_or(|b| bytes < b) {
                mct_us.push(t.since(submitted).as_micros_f64());
            }
            if let Some((from, to)) = window_us {
                if t > us(from) && t < us(to) {
                    during_window += 1;
                }
            }
        }
    }
    let pct = |p| (!mct_us.is_empty()).then(|| percentile(&mct_us, p));
    CompletionStats {
        completed,
        during_window,
        p50_us: pct(50.0),
        p99_us: pct(99.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_counting_is_strict() {
        let recs = vec![
            (us(0), Some(us(100)), 1), // at the window edge: excluded
            (us(0), Some(us(101)), 1), // inside
            (us(0), Some(us(200)), 1), // at the far edge: excluded
            (us(0), None, 1),
        ];
        let s = completion_stats(recs.into_iter(), Some((100, 200)), None);
        assert_eq!(s.completed, 3);
        assert_eq!(s.during_window, 1);
    }
}
