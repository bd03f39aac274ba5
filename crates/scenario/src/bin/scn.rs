//! `scn` — run a scenario file or a directory of them.
//!
//! ```text
//! scn scenarios/              # whole corpus
//! scn scenarios/fig5_alternation.toml
//! ```
//!
//! Each scenario executes every protocol × seed cell, per-scenario JSON
//! and a collated report land under `results/scenarios/`, and the exit
//! status is non-zero when any assertion is violated — a load/schema
//! error or a failed cell is a red CI run, never a panic.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mtp_scenario::report::{collate, write_report, write_scenario};
use mtp_scenario::run_scenario;
use mtp_scenario::schema::from_str;

fn collect_files(arg: &Path) -> Result<Vec<PathBuf>, String> {
    if arg.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(arg)
            .map_err(|e| format!("{}: {e}", arg.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "toml"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("{}: no .toml scenarios found", arg.display()));
        }
        Ok(files)
    } else if arg.is_file() {
        Ok(vec![arg.to_path_buf()])
    } else {
        Err(format!("{}: no such file or directory", arg.display()))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: scn <scenario.toml | scenarios-dir> ...");
        return ExitCode::FAILURE;
    }

    let mut files = Vec::new();
    for a in &args {
        match collect_files(Path::new(a)) {
            Ok(mut f) => files.append(&mut f),
            Err(e) => {
                eprintln!("scn: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut results = Vec::new();
    let mut load_errors = 0usize;
    for f in &files {
        let text = match std::fs::read_to_string(f) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("scn: {}: {e}", f.display());
                load_errors += 1;
                continue;
            }
        };
        let scenario = match from_str(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("scn: {}: {e}", f.display());
                load_errors += 1;
                continue;
            }
        };
        println!(
            "=== {} ({} protocols x {} seeds)",
            scenario.name,
            scenario.protocols.len(),
            scenario.seeds.len()
        );
        let r = run_scenario(&scenario);
        for c in &r.cells {
            let verdict = if c.violations.is_empty() {
                "ok"
            } else {
                "FAIL"
            };
            println!(
                "  {:<12} seed {:<4} completed {:<6} digest {}  {verdict}",
                c.protocol, c.seed, c.completed, c.digest
            );
            for v in &c.violations {
                println!("      {v}");
            }
        }
        results.push(r);
    }

    let report = collate(results);
    let dir = mtp_sim::telemetry::results_dir().join("scenarios");
    std::fs::create_dir_all(&dir).expect("create results/scenarios dir");
    for s in &report.scenarios {
        write_scenario(&dir, s);
    }
    let path = write_report(&dir, &report);

    println!(
        "\n{}/{} scenarios passed, {}/{} cells passed; report: {}",
        report.scenarios_passed,
        report.scenarios_run,
        report.cells_passed,
        report.cells_run,
        path.display()
    );
    if load_errors > 0 {
        eprintln!("scn: {load_errors} scenario file(s) failed to load");
    }
    if load_errors == 0 && report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
