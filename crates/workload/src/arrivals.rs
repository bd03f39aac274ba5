//! Arrival processes: open-loop Poisson workload schedules.

use rand::Rng;
use rand_distr::{Distribution, Exp};

use mtp_sim::time::{Bandwidth, Duration, Time};

use crate::size::SizeDist;

/// Generate an open-loop Poisson schedule of `(arrival, bytes)` pairs.
///
/// `load` is the offered load as a fraction of `capacity` (e.g. 0.6 =
/// 60%); sizes come from `sizes`. The schedule covers `[start, start +
/// horizon)`.
pub fn poisson_schedule<R: Rng + ?Sized>(
    rng: &mut R,
    sizes: &SizeDist,
    capacity: Bandwidth,
    load: f64,
    start: Time,
    horizon: Duration,
    mean_size_hint: Option<f64>,
) -> Vec<(Time, u64)> {
    assert!(load > 0.0, "zero load");
    let mean_size = mean_size_hint.unwrap_or_else(|| sizes.mean_estimate(12345, 5000));
    // Arrivals per second to hit the target byte rate.
    let byte_rate = capacity.bps() as f64 / 8.0 * load;
    let lambda = byte_rate / mean_size;
    let exp = Exp::new(lambda).expect("lambda > 0");
    let mut out = Vec::new();
    let mut t = start;
    let end = start + horizon;
    loop {
        let gap = Duration::from_secs_f64(exp.sample(rng));
        t += gap;
        if t >= end {
            break;
        }
        out.push((t, sizes.sample(rng)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_hits_target_load_approximately() {
        let mut rng = SmallRng::seed_from_u64(1);
        let sizes = SizeDist::Fixed { bytes: 100_000 };
        let cap = Bandwidth::from_gbps(10);
        let horizon = Duration::from_millis(100);
        let sched = poisson_schedule(&mut rng, &sizes, cap, 0.5, Time::ZERO, horizon, None);
        let total: u64 = sched.iter().map(|&(_, b)| b).sum();
        let offered_gbps = total as f64 * 8.0 / horizon.as_secs_f64() / 1e9;
        assert!(
            (offered_gbps - 5.0).abs() < 0.8,
            "offered {offered_gbps:.2} Gbps, wanted ~5"
        );
        // Arrivals are sorted and inside the horizon.
        assert!(sched.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(sched.iter().all(|&(t, _)| t < Time::ZERO + horizon));
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let sizes = SizeDist::web_search();
        let cap = Bandwidth::from_gbps(10);
        let mk = || {
            let mut rng = SmallRng::seed_from_u64(9);
            poisson_schedule(
                &mut rng,
                &sizes,
                cap,
                0.3,
                Time::ZERO,
                Duration::from_millis(10),
                None,
            )
        };
        assert_eq!(mk(), mk());
    }
}
