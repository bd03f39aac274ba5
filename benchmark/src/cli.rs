//! The command line: run one workload, run them all, compare two result
//! files, or print the manifest.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use crate::json::{self, Value};
use crate::metrics::{self, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::{Outcome, RunCfg, DEFAULT_SEED};
use crate::workloads::{core, scn, sim, wire};
use crate::{compare, trace};

/// How long one run measures unless `--seconds` says otherwise; the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 12;
const SMOKE_SECONDS: f64 = 0.3;

const USAGE: &str = "\
usage: mtp-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
                     [--smoke] [--append FILE] [--out-dir DIR] [--expect-digest HEX]
       mtp-benchmark compare <a.jsonl> <b.jsonl>
       mtp-benchmark manifest";

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    append: Option<PathBuf>,
    out_dir: PathBuf,
    expect_digest: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        append: None,
        out_dir: PathBuf::from("benchmark/out"),
        expect_digest: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => a.workload = value(&mut i, flag)?,
            "--seed" => {
                a.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value(&mut i, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                };
            }
            "--smoke" => a.smoke = true,
            "--append" => a.append = Some(PathBuf::from(value(&mut i, flag)?)),
            "--out-dir" => a.out_dir = PathBuf::from(value(&mut i, flag)?),
            "--expect-digest" => a.expect_digest = Some(value(&mut i, flag)?),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if a.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(a)
}

/// Entry point of the binary.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("manifest") => {
            println!("{}", manifest());
            Ok(true)
        }
        Some("--help" | "-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        _ => parse(&args).and_then(|a| {
            if a.workload == "all" {
                run_all(&args)
            } else {
                run_one(&a)
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mtp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_compare(files: &[String]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err(format!("compare needs two files\n{USAGE}"));
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| compare::load(&t).map_err(|e| format!("{p}: {e}")))
    };
    let regressed = compare::report(&read(a)?, &read(b)?);
    println!("{regressed} row(s) regressed");
    Ok(regressed == 0)
}

fn dispatch(cfg: &RunCfg) -> Result<Outcome, String> {
    let wire_run = |shape| {
        // No partial numbers and no silent skip: without loopback UDP
        // there is nothing to measure.
        if !mtp_io::loopback_available() {
            return Err(
                "UDP loopback is unavailable here (bind or send on 127.0.0.1 failed); \
                 the wire workloads cannot run"
                    .to_string(),
            );
        }
        wire::run(cfg, shape)
    };
    match cfg.workload.name {
        "sim_fabric" => sim::run(cfg),
        "scn_corpus" => scn::run(cfg),
        "core_repair" => core::run(cfg),
        "wire_bulk" => wire_run(wire::BULK),
        "wire_rpc" => wire_run(wire::RPC),
        "wire_pingpong" => wire_run(wire::PINGPONG),
        other => unreachable!("workload `{other}` is in the table but has no runner"),
    }
}

fn run_one(a: &Args) -> Result<bool, String> {
    let workload: &'static Workload = metrics::workload(&a.workload).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{}`; one of: {}",
            a.workload,
            names.join(", ")
        )
    })?;
    let cfg = RunCfg {
        workload,
        seed: a.seed,
        seconds: a.seconds.unwrap_or(if a.smoke {
            SMOKE_SECONDS
        } else {
            RUN_SECONDS as f64
        }),
        trace: a.trace,
        smoke: a.smoke,
        expect_digest: a.expect_digest.clone(),
        epoch: Instant::now(),
    };
    let out = dispatch(&cfg)?;

    print_human(&cfg, &out);
    std::fs::create_dir_all(&a.out_dir).map_err(|e| format!("{}: {e}", a.out_dir.display()))?;
    let record = out.record(&cfg).render();
    let suffix = if cfg.trace { "-trace" } else { "" };
    write_file(
        &a.out_dir
            .join(format!("result-{}{suffix}.json", workload.name)),
        &format!("{record}\n"),
    )?;
    if cfg.trace {
        let threads: Vec<(&str, &[trace::Span])> =
            out.spans.iter().map(|(t, s)| (*t, s.as_slice())).collect();
        write_file(
            &a.out_dir.join(format!("trace-{}.json", workload.name)),
            &trace::render(workload.name, &threads),
        )?;
    }
    if let Some(path) = &a.append {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(f, "{record}").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // The result line is the last line of standard output.
    println!("{}", out.result_line().render());
    Ok(out.correct())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_human(cfg: &RunCfg, out: &Outcome) {
    eprintln!(
        "== {} (seed {}, {} s{}{}) ==",
        cfg.workload.name,
        cfg.seed,
        cfg.seconds,
        if cfg.trace { ", traced" } else { "" },
        if cfg.smoke { ", smoke" } else { "" }
    );
    if !out.reps.is_empty() && !cfg.trace {
        eprintln!(
            "  {} repetitions, {} set-ups; one op = one {}",
            out.reps.len(),
            out.setup_s.len(),
            cfg.workload.op
        );
        for (name, unit, (min, med, max)) in out.end_to_end() {
            eprintln!("  {name:<16} {med:>16.6} {unit:<5} (min {min:.6}, max {max:.6})");
        }
        let factors: Vec<f64> = out.reps.iter().map(|r| r.m.host_factor).collect();
        let (min, med, max) = crate::stats::min_med_max(&factors);
        eprintln!(
            "  times are at nominal host speed; host factor {med:.3} (min {min:.3}, max {max:.3})"
        );
    }
    if let Some(layers) = &out.layers {
        for m in PER_LAYER {
            let v = layers.get(m.name);
            if v != 0.0 {
                eprintln!("  {:<40} {:>16.4} {}", m.name, v, m.unit);
            }
        }
    }
    eprintln!(
        "  ops attempted {}, failed {}; {}",
        out.attempted,
        out.failed,
        if out.correct() {
            "correct"
        } else {
            "INCORRECT"
        }
    );
    for e in &out.errors {
        eprintln!("  check failed: {e}");
    }
}

/// Run every workload, each in a process of its own so that peak memory
/// is per workload, and print one table.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut rest: Vec<String> = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
        } else if a == "--workload" {
            skip = true;
        } else {
            rest.push(a.clone());
        }
    }
    let mut all_ok = true;
    let mut rows: Vec<(&str, Option<Value>)> = Vec::new();
    for w in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", w.name])
            .args(&rest)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", w.name))?;
        // `wait_with_output` waits until the child has ended.
        let output = child
            .wait_with_output()
            .map_err(|e| format!("wait {}: {e}", w.name))?;
        all_ok &= output.status.success();
        let stdout = String::from_utf8_lossy(&output.stdout);
        rows.push((
            w.name,
            stdout.lines().last().and_then(|l| json::parse(l).ok()),
        ));
    }
    let mut summary = Value::obj();
    for (name, line) in &rows {
        println!("{name}:");
        let metrics = line.as_ref().and_then(|l| l.get("metrics"));
        match metrics.and_then(Value::as_obj) {
            Some(fields) => {
                for (metric, m) in fields {
                    let v = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                    let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                    if v != 0.0 {
                        println!("  {metric:<40} {v:>16.6} {unit}");
                    }
                }
            }
            None => println!("  no result"),
        }
        summary.set(name, line.clone().unwrap_or(Value::Null));
    }
    let mut last = Value::obj();
    last.set("correct", all_ok).set("workloads", summary);
    println!("{}", last.render());
    Ok(all_ok)
}

/// The text of `BENCHMARK.json`, from the tables in [`metrics`].
pub fn manifest() -> String {
    let q = |s: &str| Value::from(s).render();
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--bin\", \"mtp-benchmark\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{sep}\n",
            q(w.name),
            q(w.why)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}\n",
            q(m.name),
            q(m.unit),
            q(m.better.word()),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}\n",
            q(m.name),
            q(m.unit),
            q(m.better.word())
        ));
    }
    out.push_str("  ]\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_invocation() {
        let a = parse(&args("--workload wire_rpc --seed 7 --seconds 8 --trace 1")).unwrap();
        assert_eq!(a.workload, "wire_rpc");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Some(8.0));
        assert!(a.trace && !a.smoke);
        assert!(parse(&args("--workload x --trace maybe")).is_err());
        assert!(parse(&args("--seed 1")).is_err());
        assert!(parse(&args("--workload x --seconds 0")).is_err());
        assert!(parse(&args("--workload x --bogus")).is_err());
    }

    #[test]
    fn manifest_is_json_with_exactly_the_contract_keys() {
        let doc = json::parse(&manifest()).expect("manifest parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(manifest().len() < 64 * 1024);
    }
}
