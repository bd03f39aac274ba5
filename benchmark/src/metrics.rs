//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! root of the repository states the same tables; a self-test keeps the
//! two equal.

use std::collections::BTreeMap;

use crate::json::Value;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A larger value is better.
    Higher,
    /// A smaller value is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named workload and the reason it is in the benchmark.
pub struct Workload {
    /// Name on the command line and in results.
    pub name: &'static str,
    /// What an operation is: the unit behind `ops_per_s`.
    pub op: &'static str,
    /// One line on why it is here.
    pub why: &'static str,
    /// Microseconds a reference slice of the host meter costs under this
    /// workload on the defining host in its quiet state (first decile of
    /// some hundred repetitions).
    pub nominal_slice_us: f64,
}

/// The six workloads.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sim_fabric",
        op: "event",
        why: "Fixed work: all-to-all packets over a 256-host Clos on the serial engine; wheel, links, dispatch and pool do all the work",
        nominal_slice_us: 520.0,
    },
    Workload {
        name: "scn_corpus",
        op: "cell",
        why: "Fixed work: the frozen scenario corpus parsed and run; many short MTP and TCP simulations with faults, as experimenters use it",
        nominal_slice_us: 615.0,
    },
    Workload {
        name: "core_repair",
        op: "frame",
        why: "Fixed work: 8 senders to 1 receiver through the frame codec and a seeded lossy channel on a virtual clock; no kernel, no engine",
        nominal_slice_us: 590.0,
    },
    Workload {
        name: "wire_bulk",
        op: "message",
        why: "Closed loop, 2 outstanding: 256 KiB messages over UDP loopback; the per-byte path with about 180 packets per message",
        nominal_slice_us: 625.0,
    },
    Workload {
        name: "wire_rpc",
        op: "message",
        why: "Closed loop, 16 outstanding: 512 B one-frame messages over UDP loopback; the per-message path, where session age shows",
        nominal_slice_us: 665.0,
    },
    Workload {
        name: "wire_pingpong",
        op: "message",
        why: "Closed loop, 1 outstanding: 512 B messages over UDP loopback; unloaded request latency with nothing to batch",
        nominal_slice_us: 665.0,
    },
];

/// An end-to-end metric: reported by every workload in untraced runs.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. Every workload reports every one of them.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// A per-layer metric: reported by every workload in traced runs, 0
/// where the workload does not reach the layer.
pub struct PerLayer {
    /// Name, prefixed with the layer (a crate's module).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

/// The per-layer metrics.
pub const PER_LAYER: &[PerLayer] = &[
    hi("sim.engine.events", "count"),
    lo("sim.engine.ns_per_event", "ns"),
    lo("sim.engine.timers_fired", "count"),
    lo("sim.engine.build_ns_per_node", "ns"),
    lo("sim.engine.allocs_per_kevent", "count"),
    hi("sim.links.tx_pkts", "count"),
    lo("sim.links.dropped_pkts", "count"),
    lo("sim.links.marked_pkts", "count"),
    lo("sim.links.max_qlen_pkts", "count"),
    hi("sim.shard.speedup_x", "x"),
    hi("sim.shard.events_per_s", "1/s"),
    lo("sim.shard.boundary_pkts", "count"),
    lo("sim.shard.cpu_s_per_wall_s", "ratio"),
    hi("sim.shard.lookahead_ns", "ns"),
    lo("scenario.toml.parse_ns_per_kb", "ns/KiB"),
    lo("scenario.schema.decode_ns", "ns"),
    lo("scenario.run.cell_ns_p50", "ns"),
    lo("scenario.run.cell_ns_max", "ns"),
    lo("scenario.run.mtp_share", "ratio"),
    lo("scenario.run.tcp_share", "ratio"),
    lo("scenario.run.allocs_per_cell", "count"),
    lo("core.sender.send_message_ns", "ns"),
    lo("core.sender.on_ack_ns", "ns"),
    lo("core.sender.on_timer_ns", "ns"),
    lo("core.sender.poll_at_ns", "ns"),
    lo("core.sender.pkts_sent", "count"),
    lo("core.sender.retransmissions", "count"),
    lo("core.sender.timeouts", "count"),
    lo("core.sender.nacks", "count"),
    lo("core.sender.retx_ratio", "ratio"),
    lo("core.receiver.on_data_ns", "ns"),
    lo("core.receiver.on_poll_ns", "ns"),
    lo("core.receiver.duplicates", "count"),
    lo("core.receiver.nacks_sent", "count"),
    lo("wire.header.emit_sealed_ns", "ns"),
    lo("wire.header.parse_sealed_ns", "ns"),
    lo("wire.header.overhead_ratio", "ratio"),
    lo("wire.integrity.payload_csum_ns_per_kb", "ns/KiB"),
    lo("io.frame.append_ns_per_frame", "ns"),
    lo("io.frame.iter_ns_per_frame", "ns"),
    lo("io.socket.send_batch_ns_per_dgram", "ns"),
    lo("io.socket.recv_batch_ns_per_dgram", "ns"),
    lo("io.session.try_send_ns", "ns"),
    lo("io.session.poll_ns", "ns"),
    lo("io.session.poll_calls", "count"),
    lo("io.session.busy_s", "s"),
    lo("io.session.handshake_s", "s"),
    lo("io.session.close_s", "s"),
    lo("io.session.frames_tx", "count"),
    lo("io.session.datagrams_tx", "count"),
    lo("io.session.send_syscalls", "count"),
    lo("io.session.recv_syscalls", "count"),
    hi("io.session.frames_per_datagram", "ratio"),
    hi("io.session.datagrams_per_send_syscall", "ratio"),
    lo("io.session.retx_ratio", "ratio"),
    lo("io.session.rto_fires", "count"),
    lo("io.session.backpressure_refusals", "count"),
    hi("io.session.age_decay_x", "x"),
    hi("io.session.goodput_mbps", "Mb/s"),
    lo("io.session.latency_p50_us", "us"),
    lo("io.session.latency_p99_us", "us"),
    lo("io.session.latency_p999_us", "us"),
    lo("io.listener.poll_once_ns", "ns"),
    lo("io.listener.busy_s", "s"),
    lo("io.listener.datagrams_rx", "count"),
    lo("io.listener.recv_syscalls", "count"),
    lo("io.listener.send_syscalls", "count"),
    lo("io.listener.reasm_refused", "count"),
    lo("io.listener.peak_reasm_bytes", "B"),
    lo("io.listener.linger_s", "s"),
    lo("io.syscalls_per_mb", "count"),
    lo("io.syscalls_per_msg", "count"),
    lo("io.cpu.user_s", "s"),
    lo("io.cpu.sys_s", "s"),
    lo("io.cpu.ns_per_byte", "ns/B"),
    lo("io.alloc.allocs_per_msg", "count"),
    lo("io.alloc.bytes_per_msg", "B"),
    lo("io.alloc.heap_kb_per_kmsg", "KiB"),
    lo("telemetry.registry.count_ns", "ns"),
    lo("telemetry.hist.record_ns", "ns"),
    lo("trace_overhead_x", "x"),
    lo("generator_late_us_max", "us"),
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The per-layer values of one traced run. Every metric in
/// [`PER_LAYER`] is present; a layer the workload does not reach stays 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Layers {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }
}

impl Layers {
    /// Set a metric.
    ///
    /// # Panics
    /// Panics on a name that is not in [`PER_LAYER`] — a harness bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        *slot = value;
    }

    /// A metric's value.
    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// The `metrics` object of a traced result, in table order.
    pub fn to_json(&self) -> Value {
        let mut o = Value::obj();
        for m in PER_LAYER {
            o.set(m.name, metric_json(self.0[m.name], m.unit));
        }
        o
    }
}

/// `{"value": v, "unit": u}`.
pub fn metric_json(value: f64, unit: &str) -> Value {
    let mut m = Value::obj();
    m.set("value", value).set("unit", unit);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tables_obey_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = Vec::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            names.push(m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            names.push(m.name);
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is outside this package; when the package is
    /// tested inside the repository the two must say the same thing.
    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            eprintln!("BENCHMARK.json not found beside the package; nothing to compare");
            return;
        };
        let doc = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Value::as_arr).unwrap().to_vec();
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();

        let got: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(got, want);

        let got: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Value::as_f64).unwrap(),
                )
            })
            .collect();
        let want: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.word().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(got, want);

        let got: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.word().to_string(),
                )
            })
            .collect();
        assert_eq!(got, want);
    }
}
