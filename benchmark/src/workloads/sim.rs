//! `sim_fabric`: the fabric on the serial engine — and, outside the
//! timed region, on the 2-shard engine, whose digest must be the serial
//! one and whose speed is reported per layer.

use std::time::Instant;

use mtp_sim::time::{Duration, Time};
use mtp_sim::{monolithic_digest, DirLinkId, NodeId, ShardedSimulator, Simulator};
use mtp_telemetry::Metric;

use crate::fabric::{self, Fabric, FabricHost, Traffic};
use crate::meter::{HostMeter, Timed};
use crate::metrics::Layers;
use crate::probes;
use crate::run::{
    check_pin, fnv_hex, measure, time_setup, time_setups, trace_overhead, Outcome, Rep, RunCfg,
};
use crate::trace::{aggregate, Tracer};

/// Seed of the simulator's own random source. The fabric's nodes never
/// draw from it; the benchmark seed reaches the library only as the
/// generated schedule.
const SIM_SEED: u64 = 1;

/// Messages per host, `(full, smoke)`: about 6.3 M events, under a
/// second on the serial engine, so a run holds many repetitions.
const MSGS_PER_HOST: (u32, u32) = (160, 6);

/// FNV of the canonical digest at the default seed, `(full, smoke)`.
/// The sharded engine must render the same digest.
const PIN: (&str, &str) = ("71fce67104b33411", "a19638f45e45c45c");

/// Simulated time per work slice: about 40 k events, a few milliseconds,
/// between two reference slices of the host meter.
const SLICE: Duration = Duration::from_micros(10);

const SETUPS: usize = 15;

/// What one serial run produced.
struct SerialRun {
    rep: Rep,
    digest: String,
    sim: Simulator,
}

fn run_serial_once(
    traffic: &Traffic,
    mut sim: Simulator,
    meter: &mut HostMeter,
    tr: &mut Tracer,
) -> SerialRun {
    let horizon = traffic.horizon();
    let mut timed = Timed::begin(meter);
    let mut at = Time::ZERO;
    let mut slice = 0u64;
    loop {
        at = (at + SLICE).min(horizon);
        let span = tr.enter("sim.engine.run_until", slice);
        let more = sim.run_until(at);
        tr.exit(span);
        if at == horizon {
            assert!(!more, "fabric still has events at the horizon");
            break;
        }
        timed.lap();
        slice += 1;
    }
    let m = timed.end();
    SerialRun {
        rep: Rep {
            ops: sim.events_processed(),
            m,
        },
        digest: fnv_hex(&monolithic_digest(&sim)),
        sim,
    }
}

/// Conservation, full delivery and no damage on a finished serial run.
fn check_serial(out: &mut Outcome, fabric: &Fabric, traffic: &Traffic, sim: &Simulator) {
    for v in &sim.audit().violations {
        out.fail(format!("conservation: {v}"));
    }
    let (mut rx, mut malformed) = (0u64, 0u64);
    for &h in &fabric.hosts {
        let host = sim.node_as::<FabricHost>(NodeId(h));
        rx += host.rx_pkts;
        malformed += host.malformed;
    }
    out.attempted = traffic.packets();
    out.failed = traffic.packets().saturating_sub(rx);
    if malformed != 0 {
        out.fail(format!(
            "{malformed} packets arrived malformed on a clean fabric"
        ));
    }
}

/// A sharded simulator whose shard threads have finished building.
fn sharded(fabric: &Fabric) -> ShardedSimulator {
    let ss = ShardedSimulator::new(fabric.graph.plan(2, SIM_SEED, None));
    // The shards build on their own threads after `new` returns; an
    // audit is answered only once they have, so the build stays out of
    // the timed `run_until`.
    ss.audit().assert_ok();
    ss
}

/// What one run on the 2-shard engine produced; times at nominal host
/// speed.
struct ShardedRun {
    events: u64,
    wall_s: f64,
    cpu_s: f64,
    digest: String,
    ss: ShardedSimulator,
}

/// The fabric on two shards, start to horizon. Never inside an
/// end-to-end metric: two threads meeting at every epoch barrier run at
/// the mercy of how the host schedules two virtual CPUs, and ten runs of
/// it spread by two fifths of their median on the defining host.
fn run_sharded_once(
    out: &mut Outcome,
    fabric: &Fabric,
    traffic: &Traffic,
    meter: &mut HostMeter,
) -> ShardedRun {
    let mut ss = sharded(fabric);
    meter.take_factor();
    meter.tick();
    let (t0, cpu0) = (Instant::now(), crate::host::cpu_seconds());
    let more = ss.run_until(traffic.horizon());
    let (wall_s, cpu_s) = (
        t0.elapsed().as_secs_f64(),
        crate::host::cpu_seconds() - cpu0,
    );
    meter.tick();
    // Two reference slices around the whole run: a coarse factor, good
    // enough for a per-layer figure.
    let factor = meter.take_factor();
    let (wall_s, cpu_s) = (wall_s / factor, cpu_s / factor);
    assert!(!more, "fabric still has events at the horizon");
    for v in &ss.audit().violations {
        out.fail(format!("sharded conservation: {v}"));
    }
    ShardedRun {
        events: ss.events_processed(),
        wall_s,
        cpu_s,
        digest: fnv_hex(&ss.digest()),
        ss,
    }
}

/// `sim.links.*` and `sim.engine.timers_fired` from a finished serial sim.
fn link_layers(layers: &mut Layers, sim: &Simulator) {
    let (mut tx, mut dropped, mut marked, mut max_q) = (0u64, 0u64, 0u64, 0usize);
    for d in 0..sim.num_links() {
        let s = sim.link_stats(DirLinkId(d));
        tx += s.tx_pkts;
        dropped += s.dropped_pkts;
        marked += s.marked_pkts;
        max_q = max_q.max(s.max_qlen_pkts);
    }
    layers.set("sim.links.tx_pkts", tx as f64);
    layers.set("sim.links.dropped_pkts", dropped as f64);
    layers.set("sim.links.marked_pkts", marked as f64);
    layers.set("sim.links.max_qlen_pkts", max_q as f64);
    layers.set(
        "sim.engine.timers_fired",
        sim.telemetry().get(Metric::TimersFired) as f64,
    );
}

/// Run `sim_fabric`.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut meter = HostMeter::new(cfg.workload.nominal_slice_us);
    let n_msgs = if cfg.smoke {
        MSGS_PER_HOST.1
    } else {
        MSGS_PER_HOST.0
    };
    let (setup_s, (traffic, fabric, first)) = time_setups(SETUPS, &mut meter, || {
        let traffic = Traffic::generate(cfg.seed, n_msgs);
        let fabric = fabric::build(&traffic);
        let sim = fabric.graph.build_monolithic(SIM_SEED, None);
        (traffic, fabric, sim)
    });
    out.setup_s = setup_s;
    let mut off = Tracer::new(false, cfg.epoch);

    // Warm-up, discarded; it also carries the structural checks.
    let warm = run_serial_once(&traffic, first, &mut meter, &mut off);
    check_serial(&mut out, &fabric, &traffic, &warm.sim);
    check_pin(cfg, &mut out, "sim_fabric", &warm.digest, PIN);
    out.notes
        .set("digest", warm.digest.as_str())
        .set("events", warm.rep.ops)
        .set("packets", traffic.packets());
    let digest = warm.digest;
    drop(warm.sim);

    measure(cfg, &mut out, |out| {
        let sim = fabric.graph.build_monolithic(SIM_SEED, None);
        let run = run_serial_once(&traffic, sim, &mut meter, &mut off);
        if run.digest != digest {
            out.fail(format!("replay digest {} != first {digest}", run.digest));
        }
        Ok(run.rep)
    })?;

    // The same input on two shards must render the serial digest.
    let shard_run = run_sharded_once(&mut out, &fabric, &traffic, &mut meter);
    if shard_run.digest != digest {
        out.fail(format!(
            "2-shard digest {} != serial digest {digest}",
            shard_run.digest
        ));
    }

    if cfg.trace {
        let mut tr = Tracer::new(true, cfg.epoch);
        let sim = fabric.graph.build_monolithic(SIM_SEED, None);
        let run = run_serial_once(&traffic, sim, &mut meter, &mut tr);
        let spans = tr.into_spans();
        let m = &run.rep.m;
        let events = run.rep.ops as f64;
        let mut layers = Layers::default();
        layers.set("sim.engine.events", events);
        layers.set(
            "sim.engine.ns_per_event",
            aggregate(&spans)["sim.engine.run_until"].self_ns as f64 / m.host_factor / events,
        );
        layers.set(
            "sim.engine.allocs_per_kevent",
            m.alloc.allocs as f64 * 1e3 / events,
        );
        link_layers(&mut layers, &run.sim);
        let (build_s, built) =
            time_setup(&mut meter, || fabric.graph.build_monolithic(SIM_SEED, None));
        layers.set(
            "sim.engine.build_ns_per_node",
            build_s * 1e9 / built.num_nodes() as f64,
        );

        // The sharded engine against the serial run just traced.
        let snapshot = shard_run.ss.merged_snapshot();
        layers.set("sim.shard.speedup_x", m.wall_s / shard_run.wall_s);
        layers.set(
            "sim.shard.events_per_s",
            shard_run.events as f64 / shard_run.wall_s,
        );
        layers.set(
            "sim.shard.boundary_pkts",
            snapshot.get(Metric::PktsBoundaryOut) as f64,
        );
        layers.set(
            "sim.shard.cpu_s_per_wall_s",
            shard_run.cpu_s / shard_run.wall_s,
        );
        layers.set(
            "sim.shard.lookahead_ns",
            shard_run.ss.lookahead().0 as f64 / 1e3,
        );
        layers.set("trace_overhead_x", trace_overhead(&out.reps, &run.rep));
        probes::telemetry(&mut layers, &mut meter);
        out.layers = Some(layers);
        out.spans.push(("main", spans));
    }
    Ok(out)
}
