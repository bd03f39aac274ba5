//! What every workload shares: the run configuration, the timed region,
//! and the result a run ends with.

use std::time::Instant;

use crate::host;
use crate::json::Value;
use crate::meter::{HostMeter, Measured, TABLE_MIB};
use crate::metrics::{metric_json, Layers, Workload, END_TO_END};
use crate::stats::{median, min_med_max};
use crate::trace::Span;

/// The seed a run uses when none is given; digests are pinned for it.
pub const DEFAULT_SEED: u64 = 1;

/// One invocation's settings.
pub struct RunCfg {
    /// The workload to run.
    pub workload: &'static Workload,
    /// Seed of the input generators.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Run at about 1/50 size (self-test).
    pub smoke: bool,
    /// Replace the pinned digest (self-test of the pin check).
    pub expect_digest: Option<String>,
    /// The instant spans are measured from.
    pub epoch: Instant,
}

/// One measured repetition.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Operations completed (the workload's unit).
    pub ops: u64,
    /// What the timed region measured.
    pub m: Measured,
}

impl Rep {
    /// Operations per wall second.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.m.wall_s
    }

    /// Process CPU microseconds per operation.
    pub fn cpu_us_per_op(&self) -> f64 {
        self.m.cpu_s * 1e6 / self.ops as f64
    }
}

/// Seconds one set-up took, at nominal host speed: the set-up is
/// bracketed by two reference slices.
pub fn time_setup<T>(meter: &mut HostMeter, f: impl FnOnce() -> T) -> (f64, T) {
    meter.take_factor();
    meter.tick();
    let t0 = Instant::now();
    let v = f();
    let raw = t0.elapsed().as_secs_f64();
    meter.tick();
    (raw / meter.take_factor(), v)
}

/// Time `f` `n` times; returns the seconds each took and the last value.
pub fn time_setups<T>(n: usize, meter: &mut HostMeter, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut samples = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let (s, v) = time_setup(meter, &mut f);
        samples.push(s);
        last = Some(v);
    }
    (samples, last.expect("at least one set-up"))
}

/// Fewest measured repetitions.
pub const MIN_REPS: usize = 3;

/// Measure a workload: repeat `rep` until the run's measuring time is
/// used up, and at least [`MIN_REPS`] times; an error ends the run. A
/// traced run stops at [`MIN_REPS`]: it needs the untraced median only to
/// state what the tracing cost.
pub fn measure(
    cfg: &RunCfg,
    out: &mut Outcome,
    mut rep: impl FnMut(&mut Outcome) -> Result<Rep, String>,
) -> Result<(), String> {
    let started = Instant::now();
    while out.reps.len() < MIN_REPS || (!cfg.trace && started.elapsed().as_secs_f64() < cfg.seconds)
    {
        let r = rep(out)?;
        out.reps.push(r);
    }
    out.peak_rss_mb = host::peak_rss_mib() - TABLE_MIB;
    Ok(())
}

/// What a run ends with.
pub struct Outcome {
    /// Operations attempted (packets, cells or messages).
    pub attempted: u64,
    /// Operations that failed or were never delivered.
    pub failed: u64,
    /// Every correctness check that did not hold; empty means correct.
    pub errors: Vec<String>,
    /// Seconds of each timed set-up.
    pub setup_s: Vec<f64>,
    /// The measured repetitions (untraced).
    pub reps: Vec<Rep>,
    /// `VmHWM` after the last measured repetition, MiB, net of the host
    /// meter's table.
    pub peak_rss_mb: f64,
    /// Per-layer metrics (traced runs).
    pub layers: Option<Layers>,
    /// Digests, counts and statements that belong in the result file.
    pub notes: Value,
    /// Spans per thread (traced runs).
    pub spans: Vec<(&'static str, Vec<Span>)>,
}

impl Outcome {
    /// An outcome with nothing measured yet.
    pub fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            setup_s: Vec::new(),
            reps: Vec::new(),
            peak_rss_mb: 0.0,
            layers: None,
            notes: Value::obj(),
            spans: Vec::new(),
        }
    }

    /// Record a failed check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.errors.push(what.into());
    }

    /// Whether every check held and nothing failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// `(min, median, max)` of each end-to-end metric, in table order.
    pub fn end_to_end(&self) -> Vec<(&'static str, &'static str, (f64, f64, f64))> {
        let rate: Vec<f64> = self.reps.iter().map(Rep::ops_per_s).collect();
        let cpu: Vec<f64> = self.reps.iter().map(Rep::cpu_us_per_op).collect();
        END_TO_END
            .iter()
            .map(|m| {
                let v = match m.name {
                    "setup_s" => min_med_max(&self.setup_s),
                    "ops_per_s" => min_med_max(&rate),
                    "cpu_us_per_op" => min_med_max(&cpu),
                    "peak_rss_mb" => (self.peak_rss_mb, self.peak_rss_mb, self.peak_rss_mb),
                    other => unreachable!("end-to-end metric `{other}` has no source"),
                };
                (m.name, m.unit, v)
            })
            .collect()
    }

    /// The one-line result the acceptance driver reads: end-to-end
    /// metrics for an untraced run, per-layer metrics for a traced one.
    pub fn result_line(&self) -> Value {
        let metrics = match &self.layers {
            Some(layers) => layers.to_json(),
            None => {
                let mut o = Value::obj();
                for (name, unit, (_, med, _)) in self.end_to_end() {
                    o.set(name, metric_json(med, unit));
                }
                o
            }
        };
        let mut line = Value::obj();
        line.set("correct", self.correct())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics);
        line
    }

    /// The full record written to `benchmark/out/`: the result line plus
    /// what it was measured with and on.
    pub fn record(&self, cfg: &RunCfg) -> Value {
        let mut rec = Value::obj();
        rec.set("workload", cfg.workload.name)
            .set("op", cfg.workload.op)
            .set("seed", cfg.seed)
            .set("seconds", cfg.seconds)
            .set("trace", cfg.trace)
            .set("smoke", cfg.smoke)
            .set("result", self.result_line());
        if !self.reps.is_empty() {
            let mut ranges = Value::obj();
            for (name, _, (min, med, max)) in self.end_to_end() {
                let mut s = Value::obj();
                s.set("min", min).set("median", med).set("max", max);
                ranges.set(name, s);
            }
            // Times above are at nominal host speed; these are what the
            // clocks showed and how far from nominal the host was.
            let raw: Vec<Value> = self
                .reps
                .iter()
                .map(|r| {
                    let mut v = Value::obj();
                    v.set("ops", r.ops)
                        .set("raw_wall_s", r.m.raw_wall_s)
                        .set("raw_cpu_s", r.m.raw_cpu_s)
                        .set("host_factor", r.m.host_factor)
                        .set("ref_slices", r.m.reference.slices)
                        .set("ref_ns", r.m.reference.ns);
                    v
                })
                .collect();
            rec.set("end_to_end", ranges)
                .set("raw", raw)
                .set("repetitions", self.reps.len() as u64)
                .set("setups", self.setup_s.len() as u64);
        }
        rec.set(
            "errors",
            self.errors
                .iter()
                .map(|e| Value::from(e.as_str()))
                .collect::<Vec<_>>(),
        )
        .set("notes", self.notes.clone())
        .set("host", host::descriptor());
        rec
    }
}

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome::new()
    }
}

/// Untraced rate over traced rate: how much the spans slowed the run.
pub fn trace_overhead(untraced: &[Rep], traced: &Rep) -> f64 {
    let rates: Vec<f64> = untraced.iter().map(Rep::ops_per_s).collect();
    median(&rates) / traced.ops_per_s()
}

/// FNV-1a 64 of `text` as 16 hex digits: how the harness pins a digest
/// without committing the digested text.
pub fn fnv_hex(text: &str) -> String {
    format!("{:016x}", fnv1a(FNV_OFFSET, text.as_bytes()))
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a 64 fold over `bytes`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Check a default-seed digest against its pin; other seeds have no pin
/// and rely on the workload's structural checks.
pub fn check_pin(cfg: &RunCfg, out: &mut Outcome, what: &str, got: &str, pins: (&str, &str)) {
    let pinned = if cfg.smoke { pins.1 } else { pins.0 };
    let want = match &cfg.expect_digest {
        Some(d) => d.as_str(),
        None if cfg.seed == DEFAULT_SEED => pinned,
        None => return,
    };
    if got != want {
        out.fail(format!("{what}: digest {got}, pinned {want}"));
    }
}
