//! Pinned moments of the workload generators at fixed seeds.
//!
//! The unit tests in `src/` check shape properties (bounds, skew,
//! determinism); these pin exact values so a silent change to a sampler's
//! draw order, an inverse-CDF formula, or the stats kernels shows up as a
//! failing diff rather than a quietly different experiment.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_workload::{mean_std, percentile, poisson_schedule, FctCollector, SizeDist};

/// Bounded-Pareto §5.2 mix: the sampled mean at a fixed seed is pinned to
/// the digit, and sits where a heavy-tailed 10 KB–1 GB mix should (the
/// mean is dominated by rare elephants, far above the 10 KB floor).
#[test]
fn fig6_mix_mean_is_pinned() {
    let m = SizeDist::fig6_mix().mean_estimate(42, 20_000);
    assert!((m - 72_578.905_55).abs() < 1e-3, "fig6 mean drifted: {m}");
}

/// Web-search empirical CDF: pinned sampled mean, plus the analytic mean
/// of the piecewise-linear CDF as a sanity band (~1.2 MB).
#[test]
fn web_search_mean_is_pinned() {
    let m = SizeDist::web_search().mean_estimate(42, 20_000);
    assert!((m - 1_186_023.029_2).abs() < 1e-2, "web mean drifted: {m}");
    assert!((1.0e6..1.4e6).contains(&m));
}

/// Poisson arrivals at seed 7: exact count, byte total, and first-arrival
/// instant. The byte total must also land near the offered-load target
/// (60% of 10 Gbps over 50 ms = 37.5 MB).
#[test]
fn poisson_schedule_is_pinned_at_seed_7() {
    let mut rng = SmallRng::seed_from_u64(7);
    let sched = poisson_schedule(
        &mut rng,
        &SizeDist::Fixed { bytes: 40_000 },
        Bandwidth::from_gbps(10),
        0.6,
        Time::ZERO,
        Duration::from_millis(50),
        None,
    );
    assert_eq!(sched.len(), 900);
    let total: u64 = sched.iter().map(|&(_, b)| b).sum();
    assert_eq!(total, 36_000_000);
    assert_eq!(sched[0], (Time(154_340_804), 40_000));
    let target = 37.5e6;
    assert!((total as f64 - target).abs() / target < 0.10);
}

/// mean_std against hand-computed values (sample standard deviation, the
/// n-1 divisor) and its degenerate cases.
#[test]
fn mean_std_exact() {
    let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
    let (m, s) = mean_std(&xs);
    assert!((m - 5.0).abs() < 1e-12);
    // Sample variance = 32/7.
    assert!((s - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    assert_eq!(mean_std(&[]), (0.0, 0.0));
    assert_eq!(mean_std(&[3.0]), (3.0, 0.0));
}

/// Percentiles are nearest-rank on the sorted copy, independent of input
/// order, and clamp at the extremes.
#[test]
fn percentile_is_order_independent() {
    let sorted: Vec<f64> = (0..=200).map(|i| i as f64).collect();
    let mut shuffled = sorted.clone();
    shuffled.reverse();
    for p in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
        assert_eq!(percentile(&sorted, p), percentile(&shuffled, p));
    }
    assert_eq!(percentile(&sorted, 50.0), 100.0);
    assert_eq!(percentile(&sorted, 99.0), 198.0);
}

/// An FCT collector over a scripted sample set: summary and size-bucketed
/// summaries come out exactly.
#[test]
fn fct_summary_pinned() {
    let mut c = FctCollector::new();
    for i in 1..=100u64 {
        // Sizes span three decades; FCT grows linearly.
        c.record(i * 1_000, Duration::from_micros(10 * i));
    }
    let s = c.summary();
    assert_eq!(s.count, 100);
    assert!((s.mean_us - 505.0).abs() < 1e-9);
    assert_eq!(s.p50_us, 510.0);
    assert_eq!(s.p99_us, 990.0);
    assert_eq!(s.max_us, 1000.0);
    // 1 KB..10 KB holds sizes 1..9, 10 KB..100 KB holds 10..99.
    let counts = [(1_000, 10_000), (10_000, 100_000), (100_000, 1_000_000)]
        .map(|(lo, hi)| c.summary_for_sizes(lo, hi).count);
    assert_eq!(counts, [9, 90, 1]);
}
