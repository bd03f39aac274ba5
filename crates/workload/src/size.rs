//! Message-size distributions.
//!
//! The paper's load-balancing evaluation (§5.2) uses "a mix of message
//! sizes (10 KB–1 GB)" that is "skewed toward short messages as per
//! existing studies", citing the DCTCP measurement study. This module
//! provides the heavy-tailed samplers the experiments draw from, plus an
//! empirical CDF type for replaying published distributions.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A message-size distribution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SizeDist {
    /// Every message is `bytes` long.
    Fixed {
        /// The constant size.
        bytes: u64,
    },
    /// Bounded Pareto: heavy-tailed with exponent `alpha`, truncated to
    /// `[min, max]`. `alpha` slightly above 1 gives the classic
    /// "mostly mice, a few elephants carrying most bytes" shape.
    BoundedPareto {
        /// Tail exponent (> 0).
        alpha: f64,
        /// Smallest size.
        min: u64,
        /// Largest size.
        max: u64,
    },
    /// Piecewise-linear inverse CDF: `(cum_prob, bytes)` points with
    /// `cum_prob` ascending to 1.0.
    Empirical {
        /// The CDF points.
        points: Vec<(f64, u64)>,
    },
}

impl SizeDist {
    /// The paper's §5.2 workload: 10 KB–1 GB, skewed toward short
    /// messages (bounded Pareto, alpha = 1.1).
    pub fn fig6_mix() -> SizeDist {
        SizeDist::BoundedPareto {
            alpha: 1.1,
            min: 10 * 1024,
            max: 1 << 30,
        }
    }

    /// A web-search-like distribution (after the DCTCP paper's measured
    /// CDF): mostly short queries with a meaningful tail of multi-MB
    /// background transfers.
    pub fn web_search() -> SizeDist {
        SizeDist::Empirical {
            points: vec![
                (0.15, 6 * 1024),
                (0.20, 13 * 1024),
                (0.30, 19 * 1024),
                (0.40, 33 * 1024),
                (0.53, 53 * 1024),
                (0.60, 133 * 1024),
                (0.70, 667 * 1024),
                (0.80, 1_333 * 1024),
                (0.90, 3_333 * 1024),
                (0.97, 6_667 * 1024),
                (1.00, 20_000 * 1024),
            ],
        }
    }

    /// Draw one message size.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match self {
            SizeDist::Fixed { bytes } => *bytes,
            SizeDist::BoundedPareto { alpha, min, max } => {
                // Inverse-CDF of the bounded Pareto.
                let (l, h) = (*min as f64, *max as f64);
                let u: f64 = rng.gen_range(0.0..1.0);
                let la = l.powf(*alpha);
                let ha = h.powf(*alpha);
                let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha);
                (x as u64).clamp(*min, *max)
            }
            SizeDist::Empirical { points } => {
                let u: f64 = rng.gen_range(0.0..1.0);
                let mut prev_p = 0.0;
                let mut prev_b = points.first().map(|&(_, b)| b).unwrap_or(1);
                for &(p, b) in points {
                    if u <= p {
                        // Linear interpolation within the segment.
                        let frac = if p > prev_p {
                            (u - prev_p) / (p - prev_p)
                        } else {
                            1.0
                        };
                        let lo = prev_b as f64;
                        let hi = b as f64;
                        return (lo + frac * (hi - lo)).round().max(1.0) as u64;
                    }
                    prev_p = p;
                    prev_b = b;
                }
                points.last().map(|&(_, b)| b).unwrap_or(1)
            }
        }
    }

    /// The distribution mean, estimated by sampling (used for load
    /// calculations; deterministic given the seed).
    pub fn mean_estimate(&self, seed: u64, n: usize) -> f64 {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let sum: u128 = (0..n).map(|_| self.sample(&mut rng) as u128).sum();
        sum as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(99)
    }

    #[test]
    fn fixed_is_constant() {
        let mut r = rng();
        assert_eq!(SizeDist::Fixed { bytes: 777 }.sample(&mut r), 777);
    }

    #[test]
    fn bounded_pareto_is_bounded_and_skewed() {
        let d = SizeDist::fig6_mix();
        let mut r = rng();
        let samples: Vec<u64> = (0..20_000).map(|_| d.sample(&mut r)).collect();
        assert!(samples.iter().all(|&s| (10 * 1024..=1 << 30).contains(&s)));
        // Skewed short: the median is far below the mean.
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        let mean = samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64;
        assert!(median * 3.0 < mean, "median {median}, mean {mean}");
        // And the short majority: at least half under 100 KB.
        let short = samples.iter().filter(|&&s| s < 100 * 1024).count();
        assert!(
            short * 2 >= samples.len(),
            "short fraction {short}/{}",
            samples.len()
        );
    }

    #[test]
    fn empirical_respects_extremes() {
        let d = SizeDist::web_search();
        let mut r = rng();
        for _ in 0..10_000 {
            let v = d.sample(&mut r);
            assert!((1..=20_000 * 1024).contains(&v), "sample {v}");
        }
    }

    #[test]
    fn empirical_is_monotone_in_u() {
        // With many samples, the distribution should cover small and large.
        let d = SizeDist::web_search();
        let mut r = rng();
        let samples: Vec<u64> = (0..5000).map(|_| d.sample(&mut r)).collect();
        assert!(samples.iter().any(|&s| s < 20 * 1024));
        assert!(samples.iter().any(|&s| s > 1024 * 1024));
    }

    #[test]
    fn mean_estimate_is_deterministic() {
        let d = SizeDist::fig6_mix();
        assert_eq!(d.mean_estimate(5, 1000), d.mean_estimate(5, 1000));
    }
}
