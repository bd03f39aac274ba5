//! Report emission: per-scenario JSON plus a collated run report under
//! `results/scenarios/`.

use std::path::{Path, PathBuf};

use serde::Serialize;

use crate::run::ScenarioResult;

/// The collated outcome of one `scn` invocation over a corpus.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunReport {
    /// Scenario files executed.
    pub scenarios_run: usize,
    /// Scenarios whose every cell passed.
    pub scenarios_passed: usize,
    /// Total cells executed (scenario × protocol × seed).
    pub cells_run: usize,
    /// Cells with no violated assertion.
    pub cells_passed: usize,
    /// Flattened `<scenario>/<protocol>/<seed>: <violation>` lines, empty
    /// on a green run.
    pub failures: Vec<String>,
    /// Every scenario result, in execution order.
    pub scenarios: Vec<ScenarioResult>,
}

/// Collate scenario results into a run report.
pub fn collate(scenarios: Vec<ScenarioResult>) -> RunReport {
    let mut failures = Vec::new();
    let mut cells_run = 0;
    let mut cells_passed = 0;
    for s in &scenarios {
        for c in &s.cells {
            cells_run += 1;
            if c.violations.is_empty() {
                cells_passed += 1;
            } else {
                for v in &c.violations {
                    failures.push(format!("{}/{}/{}: {v}", c.scenario, c.protocol, c.seed));
                }
            }
        }
    }
    RunReport {
        scenarios_run: scenarios.len(),
        scenarios_passed: scenarios.iter().filter(|s| s.passed).count(),
        cells_run,
        cells_passed,
        failures,
        scenarios,
    }
}

/// Write one scenario's result to `results/scenarios/<name>.json`.
pub fn write_scenario(dir: &Path, s: &ScenarioResult) -> PathBuf {
    let path = dir.join(format!("{}.json", s.name));
    let json = serde_json::to_string_pretty(s).expect("serializable scenario result");
    std::fs::write(&path, json).expect("write scenario result");
    path
}

/// Write the collated report to `results/scenarios/report.json`.
pub fn write_report(dir: &Path, r: &RunReport) -> PathBuf {
    let path = dir.join("report.json");
    let json = serde_json::to_string_pretty(r).expect("serializable run report");
    std::fs::write(&path, json).expect("write run report");
    path
}
