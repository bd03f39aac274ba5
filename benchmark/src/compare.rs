//! `mtp-benchmark compare <a.jsonl> <b.jsonl>`: judge two sets of runs
//! by the recorded bounds, one row per (end-to-end metric, workload).
//!
//! Each file holds one run record per line, as `--append` writes them. A
//! row is **regressed** when `b`'s median is worse than `a`'s by more
//! than the metric's bound, **unresolved** when either side's own
//! run-to-run spread (quartile distance over median) is wider than the
//! bound — the runs cannot tell — and **within** otherwise.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};

/// Values per `(workload, metric)`.
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Read the untraced run records of a result file.
pub fn load(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        if rec.get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let metrics = rec
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("line {}: no result.metrics", n + 1))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                runs.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

/// A row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Within,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// A side's own spread exceeds the bound.
    Unresolved,
    /// A side has no runs of this row.
    Missing,
}

/// Judge one row. Returns the verdict and by what share of `a`'s median
/// `b` is worse (negative when better).
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    if a.is_empty() || b.is_empty() {
        return (Verdict::Missing, 0.0);
    }
    let (ma, mb) = (median(a), median(b));
    let worse = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let wide = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    let verdict = if wide(a) || wide(b) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    };
    (verdict, worse)
}

/// Print the table; returns how many rows regressed.
pub fn report(a: &Runs, b: &Runs) -> usize {
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "worse", "spread a", "spread b", "bound"
    );
    let mut regressed = 0;
    let none = Vec::new();
    for w in WORKLOADS {
        for m in END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (va, vb) = (a.get(&key).unwrap_or(&none), b.get(&key).unwrap_or(&none));
            let (verdict, worse) = judge(va, vb, m.better, m.bound);
            if verdict == Verdict::Regressed {
                regressed += 1;
            }
            let med = |v: &[f64]| {
                if v.is_empty() {
                    "-".to_string()
                } else {
                    format!("{:.6}", median(v))
                }
            };
            let spr =
                |v: &[f64]| spread(v).map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{:<18} {:<14} {:>14} {:>14} {:>7.1}% {:>8} {:>8} {:>5.0}%  {}",
                w.name,
                m.name,
                med(va),
                med(vb),
                worse * 100.0,
                spr(va),
                spr(vb),
                m.bound * 100.0,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Missing => "missing",
                }
            );
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [80.0, 81.0, 79.0, 80.5, 79.5];
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(
            judge(&steady, &steady, Better::Higher, 0.1).0,
            Verdict::Within
        );
        assert_eq!(
            judge(&steady, &slower, Better::Higher, 0.1).0,
            Verdict::Regressed
        );
        // The same drop is an improvement when lower is better.
        assert_eq!(
            judge(&steady, &slower, Better::Lower, 0.1).0,
            Verdict::Within
        );
        assert_eq!(
            judge(&steady, &noisy, Better::Higher, 0.1).0,
            Verdict::Unresolved
        );
        assert_eq!(judge(&steady, &[], Better::Higher, 0.1).0, Verdict::Missing);
    }

    #[test]
    fn loads_untraced_records_only() {
        let text = concat!(
            "{\"workload\":\"wire_rpc\",\"trace\":false,\"result\":{\"metrics\":{\"ops_per_s\":{\"value\":10,\"unit\":\"1/s\"}}}}\n",
            "{\"workload\":\"wire_rpc\",\"trace\":true,\"result\":{\"metrics\":{\"io.session.poll_ns\":{\"value\":5,\"unit\":\"ns\"}}}}\n",
            "\n",
            "{\"workload\":\"wire_rpc\",\"trace\":false,\"result\":{\"metrics\":{\"ops_per_s\":{\"value\":12,\"unit\":\"1/s\"}}}}\n",
        );
        let runs = load(text).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(
            runs[&("wire_rpc".to_string(), "ops_per_s".to_string())],
            vec![10.0, 12.0]
        );
        assert!(load("{\"result\":{}}").is_err());
    }
}
