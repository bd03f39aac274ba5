//! `scn_corpus`: the frozen scenario corpus, parsed and run.
//!
//! The six files under `benchmark/corpus/` are a copy of `scenarios/` at
//! the commit that defined the benchmark, compiled into the binary so
//! the input cannot drift. Scenario seeds live in the files, so `--seed`
//! does not change this workload. Every cell checks its own `[assert]`
//! block: pinned digests, exactly-once ledgers, conservation.

use mtp_scenario::run::execute_cell;
use mtp_scenario::schema::{from_table, Protocol, Scenario};
use mtp_scenario::toml;

use crate::alloc::AllocSnap;
use crate::meter::{HostMeter, Timed};
use crate::metrics::Layers;
use crate::run::{measure, time_setups, trace_overhead, Outcome, Rep, RunCfg};
use crate::stats::median;
use crate::trace::{Span, Tracer};

const CORPUS: &[(&str, &str)] = &[
    (
        "corruption_diamond",
        include_str!("../../corpus/corruption_diamond.toml"),
    ),
    (
        "failover_diamond",
        include_str!("../../corpus/failover_diamond.toml"),
    ),
    (
        "fig5_alternation",
        include_str!("../../corpus/fig5_alternation.toml"),
    ),
    (
        "rolling_upgrade_wave",
        include_str!("../../corpus/rolling_upgrade_wave.toml"),
    ),
    (
        "rpc_fanin_tree",
        include_str!("../../corpus/rpc_fanin_tree.toml"),
    ),
    (
        "tenants_elephant_mice",
        include_str!("../../corpus/tenants_elephant_mice.toml"),
    ),
];

/// Protocol × seed cells in one pass over the corpus.
const CELLS_PER_PASS: u64 = 14;

/// Passes per repetition, `(full, smoke)`.
const PASSES: (u32, u32) = (2, 1);

const SETUPS: usize = 21;

const CELL_MTP: &str = "scenario.run.cell.mtp";
const CELL_TCP: &str = "scenario.run.cell.tcp";

fn load(text: &str, tr: &mut Tracer, id: u64) -> Result<Scenario, String> {
    let span = tr.enter("scenario.toml.parse", id);
    let table = toml::parse(text);
    tr.exit(span);
    let table = table.map_err(|e| e.to_string())?;
    let span = tr.enter("scenario.schema.decode", id);
    let scenario = from_table(table);
    tr.exit(span);
    scenario.map_err(|e| e.to_string())
}

/// What one pass over the corpus found.
#[derive(Default)]
struct Pass {
    cells: u64,
    passed: u64,
    violations: Vec<String>,
    /// Allocator calls made inside `execute_cell`.
    cell_allocs: u64,
    /// `scenario/protocol/seed` of each cell, in run order.
    labels: Vec<String>,
}

fn one_pass(tr: &mut Tracer, timed: &mut Timed<'_>, acc: &mut Pass) {
    for (name, text) in CORPUS {
        let scenario = match load(text, tr, acc.cells) {
            Ok(s) => s,
            Err(e) => {
                acc.violations.push(format!("{name}: {e}"));
                continue;
            }
        };
        for &p in &scenario.protocols {
            for &seed in &scenario.seeds {
                let span_name = if p == Protocol::Mtp {
                    CELL_MTP
                } else {
                    CELL_TCP
                };
                let a0 = AllocSnap::now();
                let span = tr.enter(span_name, acc.cells);
                let cell = execute_cell(&scenario, p, seed).result;
                tr.exit(span);
                acc.cell_allocs += AllocSnap::now().since(&a0).allocs;
                acc.cells += 1;
                if cell.violations.is_empty() {
                    acc.passed += 1;
                }
                for v in cell.violations {
                    acc.violations
                        .push(format!("{name}/{}/{seed}: {v}", p.key()));
                }
                if tr.on() {
                    acc.labels.push(format!("{name}/{}/{seed}", p.key()));
                }
                // A reference slice of the host meter between cells.
                timed.lap();
            }
        }
    }
}

fn repetition(passes: u32, meter: &mut HostMeter, tr: &mut Tracer) -> (Rep, Pass) {
    let mut acc = Pass::default();
    let mut timed = Timed::begin(meter);
    for _ in 0..passes {
        one_pass(tr, &mut timed, &mut acc);
    }
    let m = timed.end();
    (Rep { ops: acc.passed, m }, acc)
}

/// Run `scn_corpus`.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut meter = HostMeter::new(cfg.workload.nominal_slice_us);
    let passes = if cfg.smoke { PASSES.1 } else { PASSES.0 };
    let mut off = Tracer::new(false, cfg.epoch);

    // Set-up is what an experimenter pays before the first cell runs:
    // parsing and decoding every scenario.
    let (setup_s, loaded) = time_setups(SETUPS, &mut meter, || {
        CORPUS
            .iter()
            .map(|(_, text)| load(text, &mut off, 0))
            .collect::<Vec<_>>()
    });
    out.setup_s = setup_s;
    for (scenario, (name, _)) in loaded.iter().zip(CORPUS) {
        if let Err(e) = scenario {
            out.fail(format!("{name}: {e}"));
        }
    }

    let (_, warm) = repetition(passes, &mut meter, &mut off);
    out.attempted = warm.cells;
    out.failed = warm.cells - warm.passed;
    for v in warm.violations {
        out.fail(v);
    }
    if warm.cells != CELLS_PER_PASS * passes as u64 {
        out.fail(format!(
            "corpus ran {} cells, expected {}",
            warm.cells,
            CELLS_PER_PASS * passes as u64
        ));
    }
    out.notes
        .set("cells_per_repetition", warm.cells)
        .set("scenarios", CORPUS.len() as u64);

    measure(cfg, &mut out, |out| {
        let (rep, pass) = repetition(passes, &mut meter, &mut off);
        for v in pass.violations {
            out.fail(v);
        }
        Ok(rep)
    })?;

    if cfg.trace {
        let mut tr = Tracer::new(true, cfg.epoch);
        let (rep, pass) = repetition(passes, &mut meter, &mut tr);
        let spans = tr.into_spans();
        let mut layers = Layers::default();
        cell_layers(&mut layers, &spans, &pass, rep.m.host_factor, &mut out);
        layers.set("trace_overhead_x", trace_overhead(&out.reps, &rep));
        crate::probes::telemetry(&mut layers, &mut meter);
        out.layers = Some(layers);
        out.spans.push(("main", spans));
    }
    Ok(out)
}

fn cell_layers(
    layers: &mut Layers,
    spans: &[Span],
    pass: &Pass,
    host_factor: f64,
    out: &mut Outcome,
) {
    // Durations at nominal host speed, as the end-to-end times are.
    let dur = |s: &Span| (s.end - s.start) as f64 / host_factor;
    let named = |name: &str| -> Vec<&Span> { spans.iter().filter(|s| s.name == name).collect() };

    let parse_ns: f64 = named("scenario.toml.parse").iter().map(|s| dur(s)).sum();
    let passes = pass.cells / CELLS_PER_PASS;
    let corpus_kib = CORPUS.iter().map(|(_, t)| t.len()).sum::<usize>() as f64 / 1024.0;
    layers.set(
        "scenario.toml.parse_ns_per_kb",
        parse_ns / (corpus_kib * passes as f64),
    );
    let decodes = named("scenario.schema.decode");
    layers.set(
        "scenario.schema.decode_ns",
        decodes.iter().map(|s| dur(s)).sum::<f64>() / decodes.len() as f64,
    );

    let mtp: f64 = named(CELL_MTP).iter().map(|s| dur(s)).sum();
    let tcp: f64 = named(CELL_TCP).iter().map(|s| dur(s)).sum();
    let cells: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == CELL_MTP || s.name == CELL_TCP)
        .collect();
    let times: Vec<f64> = cells.iter().map(|s| dur(s)).collect();
    let slowest = cells
        .iter()
        .enumerate()
        .max_by(|a, b| dur(a.1).total_cmp(&dur(b.1)))
        .expect("the corpus has cells");
    layers.set("scenario.run.cell_ns_p50", median(&times));
    layers.set("scenario.run.cell_ns_max", dur(slowest.1));
    layers.set("scenario.run.mtp_share", mtp / (mtp + tcp));
    layers.set("scenario.run.tcp_share", tcp / (mtp + tcp));
    layers.set(
        "scenario.run.allocs_per_cell",
        pass.cell_allocs as f64 / pass.cells as f64,
    );
    out.notes
        .set("slowest_cell", pass.labels[slowest.0].as_str());
}
