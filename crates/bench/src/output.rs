//! Experiment output: stdout tables plus JSON records under `results/`.

use std::path::PathBuf;

use serde::Serialize;

/// A labelled experiment result written to `results/<name>.json`.
#[derive(Debug, Serialize)]
pub struct ExperimentRecord<T: Serialize> {
    /// Experiment id (e.g. "fig2").
    pub id: &'static str,
    /// What the paper's version of this artefact shows.
    pub paper_claim: &'static str,
    /// The measured data.
    pub data: T,
}

/// Serialize `record` to `results/<id>.json` (pretty-printed) and return
/// the path.
pub fn write_json<T: Serialize>(record: &ExperimentRecord<T>) -> PathBuf {
    let dir = mtp_sim::telemetry::results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{}.json", record.id));
    let json = serde_json::to_string_pretty(record).expect("serializable record");
    std::fs::write(&path, json).expect("write results file");
    path
}
