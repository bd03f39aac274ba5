//! Assertion failures are reports, not panics.
//!
//! An unsatisfiable `[assert]` bound and a tampered pinned digest must
//! both come back as violations naming the scenario, the cell
//! (protocol × seed), and the violated assertion — and the `scn` binary
//! must turn them into a non-zero exit, never a crash.

use mtp_scenario::report::collate;
use mtp_scenario::run::run_scenario;
use mtp_scenario::schema::from_str;

const BASE: &str = r#"
[scenario]
name = "failing"
seeds = [3]
horizon_us = 20000
protocols = ["mtp"]

[topology]
kind = "diamond"
[topology.path]
rate_gbps = 10
delay_us = 5

[workload]
kind = "periodic"
count = 4
bytes = 20000
interval_us = 50
"#;

#[test]
fn unsatisfiable_bound_names_scenario_cell_and_assertion() {
    let s = from_str(&format!(
        "{BASE}\n[assert.cells.mtp]\ncompleted = 9999\ntimeouts_max = 0\n"
    ))
    .expect("valid scenario");
    let result = run_scenario(&s);
    assert!(!result.passed);

    let report = collate(vec![result]);
    assert_eq!(report.cells_run, 1);
    assert_eq!(report.cells_passed, 0);
    let line = report
        .failures
        .iter()
        .find(|l| l.contains("assert completed"))
        .expect("a failure line for the completed bound");
    // The collated line carries scenario, protocol, and seed.
    assert!(line.starts_with("failing/mtp/3: "), "line: {line}");
    assert!(line.contains("expected 9999"), "line: {line}");
}

#[test]
fn unsatisfiable_goodput_bound_on_the_dumbbell_is_a_violation() {
    let s = from_str(
        r#"
[scenario]
name = "failing"
seeds = [3]
horizon_us = 2000
protocols = ["mtp"]

[topology]
kind = "dumbbell"
[topology.edge]
rate_gbps = 10
delay_us = 1
[topology.shared]
rate_gbps = 10
delay_us = 5

[workload]
kind = "streams"
senders = [2]
messages = 4
bytes = 20000

[assert.cells.mtp]
goodput_mean_min_gbps = 1000.0
"#,
    )
    .expect("valid scenario");
    let result = run_scenario(&s);
    assert!(!result.passed);
    let v = &result.cells[0].violations;
    let line = v
        .iter()
        .find(|l| l.contains("assert goodput_mean_min_gbps"))
        .unwrap_or_else(|| panic!("no goodput violation in {v:?}"));
    assert!(line.contains("expected >= 1000"), "line: {line}");
}

#[test]
fn tampered_digest_names_the_mismatch() {
    // Run once to learn the true digest, tamper one nibble, re-run.
    let clean = from_str(BASE).expect("valid scenario");
    let true_digest = run_scenario(&clean).cells[0].digest.clone();
    let mut tampered = true_digest.clone().into_bytes();
    tampered[0] = if tampered[0] == b'0' { b'1' } else { b'0' };
    let tampered = String::from_utf8(tampered).expect("hex digest");

    let s = from_str(&format!(
        "{BASE}\n[assert.digests]\n\"mtp/3\" = \"{tampered}\"\n"
    ))
    .expect("valid scenario");
    let result = run_scenario(&s);
    assert!(!result.passed);
    let v = &result.cells[0].violations;
    let line = v
        .iter()
        .find(|l| l.contains("assert digests"))
        .unwrap_or_else(|| panic!("no digest violation in {v:?}"));
    assert!(line.contains(&tampered), "line: {line}");
    assert!(line.contains(&true_digest), "line: {line}");
}

#[test]
fn scn_binary_reports_and_exits_nonzero() {
    let dir = std::env::temp_dir().join(format!("scn-assert-fail-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let file = dir.join("failing.toml");
    std::fs::write(
        &file,
        format!("{BASE}\n[assert.cells.mtp]\ncompleted = 9999\n"),
    )
    .expect("write scenario");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_scn"))
        .arg(&file)
        .current_dir(&dir)
        .output()
        .expect("run scn");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "scn must exit non-zero on a violated assertion; stdout:\n{stdout}"
    );
    assert!(stdout.contains("failing"), "stdout:\n{stdout}");
    assert!(stdout.contains("assert completed"), "stdout:\n{stdout}");
    // A report is still written for the failing run.
    assert!(dir.join("results/scenarios/report.json").is_file());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scn_binary_rejects_malformed_files_without_panicking() {
    let dir = std::env::temp_dir().join(format!("scn-bad-file-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let file = dir.join("broken.toml");
    std::fs::write(&file, "[scenario]\nname = 7\n").expect("write scenario");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_scn"))
        .arg(&file)
        .current_dir(&dir)
        .output()
        .expect("run scn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("broken.toml"), "stderr:\n{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}
