//! The metrics registry and its snapshots.

use crate::hist::{fnv_step, Hist, HistSummary};
use crate::metric::{Gauge, HistId, Metric};

/// A registry of every counter, gauge, and histogram for one simulation.
///
/// Recording is a plain array add at the metric's static index — no
/// hashing, no locking, no allocation. One registry belongs to one
/// simulator instance (the engine owns it and hands it to nodes through
/// their `Ctx`), so parallel simulations never share counters.
#[derive(Debug, Clone)]
pub struct Registry {
    counters: [u64; Metric::COUNT],
    gauges: [i64; Gauge::COUNT],
    hists: Vec<Hist>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// A fresh registry with all counters at zero. Histogram buckets are
    /// allocated here, once; recording never allocates.
    pub fn new() -> Registry {
        Registry {
            counters: [0; Metric::COUNT],
            gauges: [0; Gauge::COUNT],
            hists: (0..HistId::COUNT).map(|_| Hist::new()).collect(),
        }
    }

    /// Add `n` to counter `m`.
    #[inline(always)]
    pub fn count(&mut self, m: Metric, n: u64) {
        self.counters[m as usize] += n;
    }

    /// Current value of counter `m`.
    #[inline]
    pub fn get(&self, m: Metric) -> u64 {
        self.counters[m as usize]
    }

    /// Move gauge `g` by `d` (positive or negative).
    #[inline(always)]
    pub fn gauge_add(&mut self, g: Gauge, d: i64) {
        self.gauges[g as usize] += d;
    }

    /// Current level of gauge `g`.
    #[inline]
    pub fn gauge(&self, g: Gauge) -> i64 {
        self.gauges[g as usize]
    }

    /// Record sample `v` into histogram `h`.
    #[inline(always)]
    pub fn record(&mut self, h: HistId, v: u64) {
        self.hists[h as usize].record(v);
    }

    /// Summary of histogram `h`.
    pub fn hist(&self, h: HistId) -> HistSummary {
        self.hists[h as usize].summary()
    }

    /// Merge every counter, gauge, and histogram from `other` into this
    /// registry.
    ///
    /// Counters and gauges add; histograms merge bucket-wise (see
    /// [`Hist::merge_from`]), so the merged registry is indistinguishable
    /// from one that recorded both instruction streams itself. This is how
    /// per-shard registries combine into the global view at a sharded
    /// run's epoch barriers.
    pub fn merge_from(&mut self, other: &Registry) {
        for (c, &o) in self.counters.iter_mut().zip(&other.counters) {
            *c += o;
        }
        for (g, &o) in self.gauges.iter_mut().zip(&other.gauges) {
            *g += o;
        }
        for (h, o) in self.hists.iter_mut().zip(&other.hists) {
            h.merge_from(o);
        }
    }

    /// A point-in-time copy of every metric, for reports, digests, and
    /// audit diffs.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.to_vec(),
            gauges: self.gauges.to_vec(),
            hists: self.hists.iter().map(Hist::summary).collect(),
            hist_digest: self
                .hists
                .iter()
                .fold(0xCBF2_9CE4_8422_2325, |d, h| h.fold_digest(d)),
        }
    }
}

/// A point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values, indexed like [`Metric::ALL`].
    pub counters: Vec<u64>,
    /// Gauge levels, indexed like [`Gauge::ALL`].
    pub gauges: Vec<i64>,
    /// Histogram summaries, indexed like [`HistId::ALL`].
    pub hists: Vec<HistSummary>,
    /// Digest of full histogram bucket contents (not just the summaries).
    pub hist_digest: u64,
}

impl Snapshot {
    /// Value of one counter.
    pub fn get(&self, m: Metric) -> u64 {
        self.counters[m as usize]
    }

    /// One stable 64-bit digest over every counter, gauge, and histogram
    /// bucket: two runs that accounted identically digest identically.
    pub fn digest(&self) -> u64 {
        let mut d = 0xCBF2_9CE4_8422_2325u64;
        for &c in &self.counters {
            d = fnv_step(d, c);
        }
        for &g in &self.gauges {
            d = fnv_step(d, g as u64);
        }
        d = fnv_step(d, self.hist_digest);
        d
    }

    /// Human-readable diff against `other` (empty string when identical):
    /// one line per differing counter/gauge, for audit failure messages.
    pub fn diff(&self, other: &Snapshot) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, m) in Metric::ALL.iter().enumerate() {
            if self.counters[i] != other.counters[i] {
                let _ = writeln!(
                    out,
                    "  {}: {} != {}",
                    m.name(),
                    self.counters[i],
                    other.counters[i]
                );
            }
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            if self.gauges[i] != other.gauges[i] {
                let _ = writeln!(
                    out,
                    "  {}: {} != {}",
                    g.name(),
                    self.gauges[i],
                    other.gauges[i]
                );
            }
        }
        if self.hist_digest != other.hist_digest {
            let _ = writeln!(
                out,
                "  hist_digest: {:#x} != {:#x}",
                self.hist_digest, other.hist_digest
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_and_read_round_trip() {
        let mut r = Registry::new();
        r.count(Metric::PktsOffered, 3);
        r.count(Metric::PktsOffered, 2);
        r.gauge_add(Gauge::LinksDown, 2);
        r.gauge_add(Gauge::LinksDown, -1);
        r.record(HistId::MsgFctUs, 120);
        assert_eq!(r.get(Metric::PktsOffered), 5);
        assert_eq!(r.gauge(Gauge::LinksDown), 1);
        assert_eq!(r.hist(HistId::MsgFctUs).count, 1);
    }

    #[test]
    fn snapshots_digest_identically_iff_identical() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        for r in [&mut a, &mut b] {
            r.count(Metric::PktsTx, 7);
            r.record(HistId::MsgBytes, 30_000);
        }
        assert_eq!(a.snapshot().digest(), b.snapshot().digest());
        assert_eq!(a.snapshot().diff(&b.snapshot()), "");
        b.count(Metric::PktsTx, 1);
        assert_ne!(a.snapshot().digest(), b.snapshot().digest());
        assert!(a.snapshot().diff(&b.snapshot()).contains("pkts_tx"));
    }

    #[test]
    fn merge_equals_single_registry_recording_everything() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        let mut whole = Registry::new();
        a.count(Metric::PktsTx, 7);
        whole.count(Metric::PktsTx, 7);
        a.gauge_add(Gauge::NodesDown, 1);
        whole.gauge_add(Gauge::NodesDown, 1);
        a.record(HistId::MsgFctUs, 150);
        whole.record(HistId::MsgFctUs, 150);
        b.count(Metric::PktsTx, 5);
        whole.count(Metric::PktsTx, 5);
        b.gauge_add(Gauge::NodesDown, -1);
        whole.gauge_add(Gauge::NodesDown, -1);
        b.record(HistId::MsgFctUs, 90);
        whole.record(HistId::MsgFctUs, 90);

        a.merge_from(&b);
        let merged = a.snapshot();
        let direct = whole.snapshot();
        assert_eq!(merged, direct);
        assert_eq!(merged.digest(), direct.digest());
    }
}
