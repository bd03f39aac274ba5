//! HDR-style log-linear histogram.
//!
//! Values are bucketed by magnitude group (position of the most significant
//! bit) with 16 linear sub-buckets per group, the classic HdrHistogram
//! layout: relative error is bounded at ~6% across the full `u64` range
//! while the whole structure is one flat array. Recording is an increment
//! at a computed index — no allocation, no branching beyond the bucket
//! math — so it is safe in the simulator's hot path.

/// Sub-bucket resolution: 2^4 = 16 linear buckets per magnitude group.
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS;
/// Groups: values `< 16` index linearly; each further MSB position adds one
/// 16-wide group. 61 groups cover the whole `u64` range.
const GROUPS: usize = 61;
/// Total bucket count.
pub const BUCKETS: usize = GROUPS * SUBS;

#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS
        let group = (msb - SUB_BITS + 1) as usize;
        let sub = ((v >> (msb - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        group * SUBS + sub
    }
}

/// Lower bound of the value range covered by bucket `i` (used when
/// reporting quantiles).
fn bucket_floor(i: usize) -> u64 {
    let group = i / SUBS;
    let sub = (i % SUBS) as u64;
    if group == 0 {
        sub
    } else {
        let msb = group as u32 + SUB_BITS - 1;
        (1u64 << msb) | (sub << (msb - SUB_BITS))
    }
}

/// A fixed-size log-linear histogram of `u64` samples.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

impl Hist {
    /// An empty histogram. The one-time bucket allocation happens here;
    /// recording never allocates.
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of recorded samples (0 if none).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate value at quantile `q` in `[0, 1]`: the floor of the
    /// bucket containing the `ceil(q * count)`-th sample, clamped to the
    /// exact observed `[min, max]`. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Compact summary for snapshots.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
        }
    }

    /// Merge another histogram's samples into this one, bucket by bucket.
    ///
    /// The result is exactly what recording the union of both sample sets
    /// into one histogram would have produced — counts, sum, min, max, and
    /// therefore quantiles and the registry digest all agree — so
    /// per-shard histograms can be combined into a global one without any
    /// loss of fidelity.
    pub fn merge_from(&mut self, other: &Hist) {
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        // `min` keeps its empty-sentinel (u64::MAX) unless `other` has
        // samples; `max` starts at 0 so a plain max is always right.
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Fold the full bucket contents into a digest accumulator, so two
    /// histograms with identical samples (not just identical summaries)
    /// digest identically.
    pub(crate) fn fold_digest(&self, mut d: u64) -> u64 {
        for (i, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                d = fnv_step(d, i as u64);
                d = fnv_step(d, c);
            }
        }
        d
    }
}

/// One step of the snapshot digest: an FNV-shaped xor-then-multiply, with
/// multiplier `2^32 + 0x1b3` (not the FNV-1a-64 prime). Its values are
/// pinned by `scenarios/` and `benchmark/` — do not change.
pub(crate) fn fnv_step(d: u64, v: u64) -> u64 {
    (d ^ v.wrapping_add(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0x1_0000_01B3)
}

/// Compact histogram summary carried in a [`crate::Snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u128,
    /// Smallest sample (0 if empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Hist::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.mean(), 7.5);
    }

    #[test]
    fn bucket_floor_inverts_bucket_of() {
        // The floor of a value's bucket never exceeds the value, and the
        // next bucket's floor exceeds it: the defining sandwich.
        for &v in &[
            0u64,
            1,
            15,
            16,
            17,
            255,
            256,
            1000,
            65_535,
            1 << 40,
            u64::MAX,
        ] {
            let b = bucket_of(v);
            assert!(bucket_floor(b) <= v, "floor({b}) > {v}");
            if b + 1 < BUCKETS {
                assert!(bucket_floor(b + 1) > v, "floor({}) <= {v}", b + 1);
            }
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = Hist::new();
        h.record(1_000_000);
        let q = h.quantile(0.5);
        // Clamped to observed min/max, so a single sample is exact.
        assert_eq!(q, 1_000_000);

        let mut h = Hist::new();
        for v in [900_000u64, 1_000_000, 1_100_000] {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let err = (p50 as f64 - 1_000_000.0).abs() / 1_000_000.0;
        assert!(err < 0.0625, "p50 {p50} err {err}");
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = Hist::new();
        for v in 0..10_000u64 {
            h.record(v * 37);
        }
        let mut last = 0;
        for i in 0..=20 {
            let q = h.quantile(i as f64 / 20.0);
            assert!(q >= last, "q({i}/20) = {q} < {last}");
            last = q;
        }
        assert_eq!(h.quantile(1.0), 9_999 * 37);
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let mut left = Hist::new();
        let mut right = Hist::new();
        let mut both = Hist::new();
        for v in [3u64, 17, 900_000, 12] {
            left.record(v);
            both.record(v);
        }
        for v in [1u64, 44, 1 << 33] {
            right.record(v);
            both.record(v);
        }
        left.merge_from(&right);
        assert_eq!(left.count(), both.count());
        assert_eq!(left.sum(), both.sum());
        assert_eq!(left.summary(), both.summary());
        assert_eq!(left.fold_digest(0), both.fold_digest(0));

        // Merging an empty histogram changes nothing, including min.
        let before = left.summary();
        left.merge_from(&Hist::new());
        assert_eq!(left.summary(), before);
    }

    #[test]
    fn digest_distinguishes_sample_sets() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        a.record(100);
        a.record(200);
        b.record(100);
        b.record(400);
        assert_ne!(a.fold_digest(0), b.fold_digest(0));
        let mut c = Hist::new();
        c.record(100);
        c.record(200);
        assert_eq!(a.fold_digest(0), c.fold_digest(0));
    }
}
