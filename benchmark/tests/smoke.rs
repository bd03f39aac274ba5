//! Drives the built binary as the acceptance driver does, at smoke size.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Instant;

use mtp_benchmark::json::{self, Value};
use mtp_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-out")
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mtp-benchmark"))
        .args(args)
        .args(["--out-dir", out_dir().to_str().unwrap()])
        .output()
        .expect("run mtp-benchmark")
}

fn last_line(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no result line; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    json::parse(line).expect("result line is JSON")
}

/// Every metric of `table` is in the result with a finite value and its
/// unit, and nothing else is.
fn check_metrics(line: &Value, table: &[(&str, &str)], nonzero: bool, what: &str) {
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)), "{what}");
    assert!(
        line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0,
        "{what}"
    );
    assert_eq!(
        line.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{what}"
    );
    let metrics = line.get("metrics").and_then(Value::as_obj).unwrap();
    assert_eq!(metrics.len(), table.len(), "{what}: metric count");
    for ((name, m), (want_name, want_unit)) in metrics.iter().zip(table) {
        assert_eq!(name, want_name, "{what}");
        let v = m.get("value").and_then(Value::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{what}: {name} = {v:?}");
        assert!(!nonzero || v != Some(0.0), "{what}: {name} is 0");
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(*want_unit),
            "{what}: {name}"
        );
    }
}

#[test]
fn smoke_runs_every_workload_and_names_every_metric() {
    let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let layers: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    let started = Instant::now();
    let mut untraced_s = 0.0;
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let t0 = Instant::now();
            let out = bench(&[
                "--workload",
                w.name,
                "--smoke",
                "--seed",
                "1",
                "--trace",
                trace,
            ]);
            let took = t0.elapsed().as_secs_f64();
            let stderr = String::from_utf8_lossy(&out.stderr);
            if out.status.code() == Some(2) && stderr.contains("UDP loopback is unavailable") {
                // Never a silent pass: say what was not exercised.
                eprintln!("NOTICE: {} not run: {}", w.name, stderr.trim());
                continue;
            }
            assert!(out.status.success(), "{} trace {trace}: {stderr}", w.name);
            let what = format!("{} trace {trace}", w.name);
            if trace == "0" {
                untraced_s += took;
                check_metrics(&last_line(&out), &e2e, true, &what);
            } else {
                check_metrics(&last_line(&out), &layers, false, &what);
                let path = out_dir().join(format!("trace-{}.json", w.name));
                let text = std::fs::read_to_string(&path).expect("span file written");
                let doc = json::parse(&text).expect("span file is JSON");
                let threads = doc.get("threads").and_then(Value::as_arr).unwrap();
                assert!(!threads.is_empty(), "{what}: no spans");
                let overhead = last_line(&out);
                let x = overhead
                    .get("metrics")
                    .and_then(|m| m.get("trace_overhead_x"))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .unwrap();
                assert!(x > 0.0, "{what}: trace_overhead_x = {x}");
            }
        }
    }
    eprintln!(
        "smoke: untraced suite {untraced_s:.1} s, with traced runs {:.1} s",
        started.elapsed().as_secs_f64()
    );
    // The limit is for the optimised build; a debug build only reports.
    if !cfg!(debug_assertions) {
        assert!(
            untraced_s < 10.0,
            "untraced smoke suite took {untraced_s:.1} s"
        );
    }
}

#[test]
fn a_wrong_pin_fails_the_run() {
    for w in ["sim_fabric", "core_repair", "wire_rpc"] {
        let out = bench(&[
            "--workload",
            w,
            "--smoke",
            "--expect-digest",
            "0123456789abcdef",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        if stderr.contains("UDP loopback is unavailable") {
            eprintln!("NOTICE: {w} not run: {}", stderr.trim());
            continue;
        }
        assert_eq!(out.status.code(), Some(1), "{w}: a wrong pin must exit 1");
        assert_eq!(
            last_line(&out).get("correct"),
            Some(&Value::Bool(false)),
            "{w}"
        );
        assert!(stderr.contains("pinned 0123456789abcdef"), "{w}: {stderr}");
    }
    // The scenario corpus carries its pins in its own `[assert]` blocks;
    // `mtp-scenario`'s tests cover a wrong one there.
}

#[test]
fn bad_invocations_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--workload", "wire_rpc", "--trace", "2"],
        &["--seed", "1"],
        &["compare", "only-one-file"],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn compare_reads_what_append_writes() {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let (a, b) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
    for file in [&a, &b] {
        for seed in ["1", "2"] {
            let out = bench(&[
                "--workload",
                "core_repair",
                "--smoke",
                "--seed",
                seed,
                "--append",
                file.to_str().unwrap(),
            ]);
            assert!(out.status.success());
        }
    }
    let out = Command::new(env!("CARGO_BIN_EXE_mtp-benchmark"))
        .args(["compare", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .unwrap();
    let table = String::from_utf8_lossy(&out.stdout);
    // One row per (metric, workload); core_repair's rows have values,
    // the others are reported missing rather than dropped.
    assert_eq!(
        table
            .lines()
            .filter(|l| l.starts_with("core_repair"))
            .count(),
        END_TO_END.len(),
        "{table}"
    );
    assert!(table.contains("missing"), "{table}");
    assert!(
        table.lines().last().unwrap().ends_with("regressed"),
        "{table}"
    );
}
