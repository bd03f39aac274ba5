//! Property tests for the scenario schema.
//!
//! 1. **Lossless roundtrip**: any valid scenario serialized by
//!    [`emit::to_toml`] decodes back to an equal `Scenario`.
//! 2. **Typed rejection**: unknown keys, out-of-range values, and
//!    zero-latency links are rejected with a [`SchemaError`] naming the
//!    offending field — never a panic.
//! 3. **Total decoding**: `from_str` never panics, on arbitrary byte
//!    soup or on mutated-valid documents.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod emit;

use emit::to_toml;
use mtp_scenario::schema::{
    self, from_str, Asserts, CellAsserts, FailMode, FaultSpec, Isolation, LeafSpineStrategy,
    LinkParams, LoadError, MtpOpts, Protocol, Scenario, TcpOpts, Topology, TwoPathStrategy,
    Workload,
};

// ------------------------------------------------- arbitrary scenarios

fn arb_link(rng: &mut SmallRng) -> LinkParams {
    let queue_pkts = rng.gen_range(1..=100_000);
    LinkParams {
        rate_gbps: rng.gen_range(1..=1000),
        delay_us: rng.gen_range(1..=1_000_000),
        queue_pkts,
        ecn_k: rng.gen_range(0..=queue_pkts),
    }
}

fn arb_name(rng: &mut SmallRng) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-";
    let len = rng.gen_range(1..=20);
    (0..len)
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())] as char)
        .collect()
}

fn arb_description(rng: &mut SmallRng) -> String {
    // Includes everything escape_basic has to handle.
    const CHARS: &[char] = &[
        'a', 'Z', '0', ' ', '.', ',', '"', '\\', '\n', '\t', '#', '=', '[', ']', 'é', '€',
    ];
    let len = rng.gen_range(0..=40);
    (0..len)
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

fn arb_float(rng: &mut SmallRng) -> f64 {
    // Positive finite values with messy mantissas; Display roundtrips
    // every finite f64 exactly, so no rounding is needed.
    rng.gen_range(0..u32::MAX) as f64 / 7.0 + 0.001
}

fn arb_topology(rng: &mut SmallRng) -> Topology {
    match rng.gen_range(0..4) {
        0 => Topology::Diamond {
            path: arb_link(rng),
        },
        1 => {
            let strategy = match rng.gen_range(0..4) {
                0 => TwoPathStrategy::Alternate {
                    period_us: rng.gen_range(1..=10_000_000),
                },
                1 => TwoPathStrategy::Ecmp,
                2 => TwoPathStrategy::Spray,
                _ => TwoPathStrategy::MtpLb,
            };
            Topology::TwoPath {
                a: arb_link(rng),
                b: arb_link(rng),
                host: rng.gen_bool(0.5).then(|| arb_link(rng)),
                strategy,
                goodput_bin_us: rng.gen_range(1..=1_000_000),
                pathlets: if strategy == TwoPathStrategy::MtpLb {
                    2
                } else {
                    rng.gen_range(1..=2)
                },
            }
        }
        2 => {
            let isolation = match rng.gen_range(0..3) {
                0 => None,
                1 => Some(Isolation::Drr),
                _ => Some(Isolation::FairShare),
            };
            Topology::Dumbbell {
                edge: arb_link(rng),
                shared: arb_link(rng),
                goodput_bin_us: rng.gen_range(1..=1_000_000),
                isolation,
                trimming: isolation.is_none() && rng.gen_bool(0.5),
            }
        }
        _ => Topology::LeafSpine {
            leaves: rng.gen_range(2..=16),
            spines: rng.gen_range(1..=16),
            hosts_per_leaf: rng.gen_range(1..=16),
            host_link: arb_link(rng),
            spine_link: arb_link(rng),
            strategy: match rng.gen_range(0..5) {
                0 => None,
                1 => Some(LeafSpineStrategy::Ecmp),
                2 => Some(LeafSpineStrategy::Spray),
                3 => Some(LeafSpineStrategy::MtpLb),
                _ => Some(LeafSpineStrategy::MtpConga),
            },
        },
    }
}

fn arb_workload(rng: &mut SmallRng, topo: &Topology, horizon_us: u64) -> Workload {
    match topo {
        Topology::TwoPath { .. } if rng.gen_bool(0.3) => {
            let min = rng.gen_range(1..=u32::MAX as u64);
            Workload::Poisson {
                load: rng.gen_range(1..=100) as f64 / 100.0,
                min_bytes: min,
                max_bytes: rng.gen_range(min..=u32::MAX as u64),
                until_us: rng.gen_range(1..=horizon_us),
            }
        }
        Topology::Diamond { .. } | Topology::TwoPath { .. } => {
            let alternates = matches!(
                topo,
                Topology::TwoPath {
                    strategy: TwoPathStrategy::Alternate { .. },
                    ..
                }
            );
            if rng.gen_bool(0.5) {
                Workload::Periodic {
                    count: rng.gen_range(1..=100_000),
                    bytes: rng.gen_range(1..=u32::MAX as u64),
                    interval_us: rng.gen_range(1..=10_000_000),
                }
            } else {
                let bytes = rng.gen_range(1..=u32::MAX as u64);
                Workload::Single {
                    bytes,
                    start_step_us: (alternates && rng.gen_bool(0.5))
                        .then(|| rng.gen_range(1..=10_000_000)),
                    chunk_bytes: rng
                        .gen_bool(0.5)
                        .then(|| rng.gen_range(bytes.div_ceil(100_000)..=bytes)),
                }
            }
        }
        Topology::Dumbbell { .. } if rng.gen_bool(0.5) => Workload::Streams {
            senders: (0..rng.gen_range(1..=4))
                .map(|_| rng.gen_range(1..=16))
                .collect(),
            messages: rng.gen_range(1..=100_000),
            bytes: rng.gen_range(1..=u32::MAX as u64),
        },
        Topology::Dumbbell { .. } => {
            let elephants = rng.gen_range(0..=16u64);
            let mice = if elephants == 0 {
                rng.gen_range(1..=16)
            } else {
                rng.gen_range(0..=16)
            };
            let min = rng.gen_range(1..=100_000);
            Workload::Tenants {
                elephants,
                elephant_bytes: rng.gen_range(1..=u32::MAX as u64),
                mice,
                mice_load: rng.gen_range(1..=100) as f64 / 100.0,
                mice_min_bytes: min,
                mice_max_bytes: min + rng.gen_range(0..=100_000u64),
            }
        }
        Topology::LeafSpine { .. } if rng.gen_bool(0.5) => {
            let min = rng.gen_range(1..=u32::MAX as u64);
            Workload::Permutation {
                load: rng.gen_range(1..=100) as f64 / 100.0,
                min_bytes: min,
                max_bytes: rng.gen_range(min..=u32::MAX as u64),
                alpha: 1.0 + rng.gen_range(1..=300) as f64 / 100.0,
                until_us: rng.gen_range(1..=horizon_us),
            }
        }
        Topology::LeafSpine { .. } => Workload::Fanin {
            rounds: rng.gen_range(1..=1000),
            bytes: rng.gen_range(1..=u32::MAX as u64),
            stagger_us: rng.gen_range(0..=10_000_000),
            round_gap_us: rng.gen_range(1..=10_000_000),
        },
    }
}

fn arb_fault(rng: &mut SmallRng, topo: &Topology, horizon_us: u64) -> Option<FaultSpec> {
    let mode = if rng.gen_bool(0.5) {
        FailMode::Blackhole
    } else {
        FailMode::Drain
    };
    let at_us = rng.gen_range(0..=horizon_us);
    let from_us = rng.gen_range(0..horizon_us);
    let to_us = rng.gen_range(from_us + 1..=horizon_us);
    let pick =
        |rng: &mut SmallRng, names: &[&str]| names[rng.gen_range(0..names.len())].to_string();
    match topo {
        Topology::LeafSpine { spines, .. } => Some(FaultSpec::CrashRestart {
            node: format!("spine{}", rng.gen_range(0..*spines)),
            from_us,
            to_us,
        }),
        topo => {
            let links = topo.link_names();
            match rng.gen_range(0..7) {
                0 if !topo.pair_names().is_empty() => Some(FaultSpec::CutBoth {
                    link: pick(rng, topo.pair_names()),
                    from_us,
                    to_us,
                    mode,
                }),
                0 => None,
                1 => Some(FaultSpec::LinkDown {
                    link: pick(rng, links),
                    at_us,
                    mode,
                }),
                2 => Some(FaultSpec::LinkUp {
                    link: pick(rng, links),
                    at_us,
                }),
                3 => Some(FaultSpec::Degrade {
                    link: pick(rng, links),
                    at_us,
                    rate_gbps: rng.gen_range(1..=1000),
                    delay_us: rng.gen_range(1..=1_000_000),
                }),
                4 => {
                    let ppm = rng.gen_range(0..=1_000_000);
                    Some(FaultSpec::CorruptRate {
                        link: pick(rng, links),
                        at_us,
                        ppm,
                        flips: if ppm == 0 { 0 } else { rng.gen_range(1..=3) },
                        seed_xor: rng.gen_range(0..=i64::MAX as u64),
                    })
                }
                5 => Some(FaultSpec::BitflipBurst {
                    link: pick(rng, links),
                    at_us,
                    pkts: rng.gen_range(1..=1_000_000),
                    flips: rng.gen_range(1..=3),
                    seed_xor: rng.gen_range(0..=i64::MAX as u64),
                }),
                _ => Some(FaultSpec::TruncateBurst {
                    link: pick(rng, links),
                    at_us,
                    pkts: rng.gen_range(1..=1_000_000),
                    seed_xor: rng.gen_range(0..=i64::MAX as u64),
                }),
            }
        }
    }
}

fn arb_cell(
    rng: &mut SmallRng,
    topo: &Topology,
    workload: &Workload,
    has_window: bool,
) -> CellAsserts {
    let single_sink = matches!(topo, Topology::Diamond { .. } | Topology::TwoPath { .. });
    let tenants = workload.tenant_of_sender().last().copied().unwrap_or(0);
    let mut c = CellAsserts {
        exactly_once: rng.gen_bool(0.5),
        completed: rng.gen_bool(0.5).then(|| rng.gen_range(0..100_000)),
        completed_min: rng.gen_bool(0.5).then(|| rng.gen_range(0..100_000)),
        during_window_min: (has_window && rng.gen_bool(0.5)).then(|| rng.gen_range(0..1000)),
        during_window_max: (has_window && rng.gen_bool(0.5)).then(|| rng.gen_range(0..1000)),
        p50_max_us: rng.gen_bool(0.5).then(|| arb_float(rng)),
        p99_max_us: rng.gen_bool(0.5).then(|| arb_float(rng)),
        timeouts_max: rng.gen_bool(0.5).then(|| rng.gen_range(0..10_000)),
        goodput_mean_min_gbps: (single_sink && rng.gen_bool(0.5)).then(|| arb_float(rng)),
        tenant_ratio_max: (tenants >= 2 && rng.gen_bool(0.5)).then(|| 1.0 + arb_float(rng)),
    };
    // The emitter elides all-default cell tables, so an all-default cell
    // would not survive the roundtrip as an explicit entry.
    if c == CellAsserts::default() {
        c.completed_min = Some(rng.gen_range(0..100_000));
    }
    c
}

fn arb_scenario(rng: &mut SmallRng) -> Scenario {
    let topology = arb_topology(rng);
    let horizon_us = rng.gen_range(1000..=10_000_000);
    let workload = arb_workload(rng, &topology, horizon_us);

    let mut protocols = Vec::new();
    for p in [Protocol::Mtp, Protocol::TcpNewReno, Protocol::TcpDctcp] {
        if topology.supports(p, &workload) && rng.gen_bool(0.5) {
            protocols.push(p);
        }
    }
    if protocols.is_empty() {
        protocols.push(Protocol::Mtp);
    }
    let has_tcp = protocols.iter().any(|&p| p != Protocol::Mtp);

    let mut seeds = Vec::new();
    let mut next = rng.gen_range(0..1000u64);
    for _ in 0..rng.gen_range(1..=5) {
        seeds.push(next);
        next += rng.gen_range(1..=100u64);
    }

    let faults: Vec<FaultSpec> = (0..rng.gen_range(0..=3))
        .filter_map(|_| arb_fault(rng, &topology, horizon_us))
        .collect();

    let window_us = rng.gen_bool(0.4).then(|| {
        let a = rng.gen_range(0..horizon_us);
        (a, rng.gen_range(a + 1..=horizon_us))
    });
    let mut cells = Vec::new();
    for &p in &protocols {
        if rng.gen_bool(0.5) {
            cells.push((p, arb_cell(rng, &topology, &workload, window_us.is_some())));
        }
    }
    let mut digests = Vec::new();
    for _ in 0..rng.gen_range(0..=2u32) {
        let p = protocols[rng.gen_range(0..protocols.len())];
        let s = seeds[rng.gen_range(0..seeds.len())];
        let key = format!("{}/{s}", p.key());
        if !digests.iter().any(|(k, _)| *k == key) {
            digests.push((key, format!("{:016x}", rng.gen_range(0..u64::MAX))));
        }
    }

    Scenario {
        name: arb_name(rng),
        description: arb_description(rng),
        seeds,
        horizon_us,
        protocols,
        mtp: MtpOpts {
            failover: rng.gen_bool(0.5),
        },
        tcp: TcpOpts {
            conn_per_message: has_tcp
                && matches!(topology, Topology::Dumbbell { .. })
                && rng.gen_bool(0.5),
        },
        topology: topology.clone(),
        workload,
        faults,
        asserts: Asserts {
            conservation: rng.gen_bool(0.8),
            corruption_accounting: matches!(topology, Topology::Diamond { .. })
                && rng.gen_bool(0.3),
            window_us,
            warmup_bins: rng.gen_range(0..=1000),
            fct_below_bytes: rng
                .gen_bool(0.3)
                .then(|| rng.gen_range(1..=u32::MAX as u64)),
            cells,
            digests,
        },
    }
}

// ----------------------------------------------------------- properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip_is_lossless(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let s = arb_scenario(&mut rng);
        let text = to_toml(&s);
        let back = from_str(&text)
            .unwrap_or_else(|e| panic!("emitted scenario failed to parse: {e}\n---\n{text}"));
        prop_assert_eq!(back, s);
    }

    #[test]
    fn decode_never_panics_on_byte_soup(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = from_str(&text);
    }

    #[test]
    fn decode_never_panics_on_mutated_valid(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let s = arb_scenario(&mut rng);
        let mut bytes = to_toml(&s).into_bytes();
        if !bytes.is_empty() {
            for _ in 0..rng.gen_range(1..=8usize) {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] = rng.gen_range(0..=255u32) as u8;
            }
        }
        let _ = from_str(&String::from_utf8_lossy(&bytes));
    }
}

// ------------------------------------------------------ typed rejection

/// A minimal valid diamond document the rejection tests mutate.
const BASE: &str = r#"
[scenario]
name = "base"
seeds = [1]
horizon_us = 1000
protocols = ["mtp"]

[topology]
kind = "diamond"
[topology.path]
rate_gbps = 10
delay_us = 5

[workload]
kind = "single"
bytes = 1000
"#;

fn schema_err(input: &str) -> schema::SchemaError {
    match from_str(input) {
        Err(LoadError::Schema(e)) => e,
        Err(LoadError::Parse(e)) => panic!("expected schema error, got parse error: {e}"),
        Ok(_) => panic!("expected rejection, input decoded"),
    }
}

#[test]
fn base_is_valid_and_roundtrips() {
    let s = from_str(BASE).expect("base document decodes");
    let emitted = to_toml(&s);
    assert_eq!(from_str(&emitted).expect("re-decode"), s, "{emitted}");
}

#[test]
fn unknown_keys_are_rejected_by_name() {
    let e = schema_err(&format!("{BASE}\n[assert]\nbogus = 1\n"));
    assert_eq!(e.field, "assert.bogus");
    let e = schema_err(&BASE.replace("delay_us = 5", "delay_us = 5\njunk = 1"));
    assert_eq!(e.field, "topology.path.junk");
    let e = schema_err(&format!("stray = true\n{BASE}"));
    assert_eq!(e.field, "stray");
}

#[test]
fn out_of_range_values_are_rejected_by_name() {
    let e = schema_err(&BASE.replace("rate_gbps = 10", "rate_gbps = 0"));
    assert_eq!(e.field, "topology.path.rate_gbps");
    assert!(e.msg.contains("out of range"), "msg: {}", e.msg);

    let e = schema_err(&BASE.replace("horizon_us = 1000", "horizon_us = 999999999999"));
    assert_eq!(e.field, "scenario.horizon_us");

    let e = schema_err(&format!(
        "{BASE}\n[[fault]]\nkind = \"bitflip_burst\"\nlink = \"a_fwd\"\nat_us = 1\npkts = 1\nflips = 7\n"
    ));
    assert_eq!(e.field, "fault[0].flips");
}

#[test]
fn zero_latency_links_are_rejected() {
    let e = schema_err(&BASE.replace("delay_us = 5", "delay_us = 0"));
    assert_eq!(e.field, "topology.path.delay_us");
    assert!(
        e.msg.contains("zero-latency links are not supported"),
        "msg: {}",
        e.msg
    );
}

#[test]
fn cut_window_must_be_ordered() {
    let e = schema_err(&format!(
        "{BASE}\n[[fault]]\nkind = \"cut_both\"\nlink = \"a\"\nfrom_us = 500\nto_us = 400\nmode = \"blackhole\"\n"
    ));
    assert_eq!(e.field, "fault[0].to_us");
}

#[test]
fn mice_load_must_be_in_unit_interval() {
    let doc = r#"
[scenario]
name = "m"
seeds = [1]
horizon_us = 1000
protocols = ["mtp"]

[topology]
kind = "dumbbell"
[topology.edge]
rate_gbps = 10
delay_us = 2
[topology.shared]
rate_gbps = 40
delay_us = 5

[workload]
kind = "tenants"
elephants = 1
elephant_bytes = 1000
mice = 1
mice_load = 1.5
mice_min_bytes = 100
mice_max_bytes = 200
"#;
    let e = schema_err(doc);
    assert_eq!(e.field, "workload.mice_load");
}

#[test]
fn window_bounds_need_a_window() {
    let e = schema_err(&format!(
        "{BASE}\n[assert.cells.mtp]\nduring_window_min = 1\n"
    ));
    assert_eq!(e.field, "assert.cells.mtp");
    assert!(e.msg.contains("window_us"), "msg: {}", e.msg);
}

#[test]
fn digest_keys_and_values_are_validated() {
    let e = schema_err(&format!("{BASE}\n[assert.digests]\n\"mtp/1\" = \"nope\"\n"));
    assert!(e.field.starts_with("assert.digests"), "field: {}", e.field);

    let e = schema_err(&format!(
        "{BASE}\n[assert.digests]\n\"mtp/99\" = \"0123456789abcdef\"\n"
    ));
    assert!(e.msg.contains("99"), "msg: {}", e.msg);

    // A spelling `u64::from_str` takes but `check_asserts` would never
    // look up: the pin must be refused, not silently left unchecked.
    for key in ["mtp/01", "mtp/+1", "mtp/001"] {
        let e = schema_err(&format!(
            "{BASE}\n[assert.digests]\n\"{key}\" = \"0123456789abcdef\"\n"
        ));
        assert!(e.field.starts_with("assert.digests"), "field: {}", e.field);
        assert!(e.msg.contains("not a seed"), "{key}: {}", e.msg);
    }

    let e = schema_err(&format!(
        "{BASE}\n[assert.digests]\n\"tcp-dctcp/1\" = \"0123456789abcdef\"\n"
    ));
    assert!(
        e.msg.contains("not in scenario.protocols"),
        "msg: {}",
        e.msg
    );
}

#[test]
fn unsupported_protocol_topology_pairs_are_rejected() {
    let doc = r#"
[scenario]
name = "x"
seeds = [1]
horizon_us = 1000
protocols = ["mtp", "tcp-newreno"]

[topology]
kind = "dumbbell"
[topology.edge]
rate_gbps = 10
delay_us = 2
[topology.shared]
rate_gbps = 40
delay_us = 5

[workload]
kind = "tenants"
elephants = 1
elephant_bytes = 1000
mice = 1
mice_load = 0.5
mice_min_bytes = 100
mice_max_bytes = 200
"#;
    let e = schema_err(doc);
    assert!(
        e.msg.contains("tcp-newreno"),
        "error should name the unsupported protocol: {e}"
    );
}

#[test]
fn corruption_accounting_needs_the_diamond() {
    let doc = r#"
[scenario]
name = "x"
seeds = [1]
horizon_us = 1000
protocols = ["mtp"]

[topology]
kind = "two-path"
strategy = "ecmp"
[topology.a]
rate_gbps = 10
delay_us = 1
[topology.b]
rate_gbps = 10
delay_us = 1

[workload]
kind = "single"
bytes = 1000

[assert]
corruption_accounting = true
"#;
    let e = schema_err(doc);
    assert_eq!(e.field, "assert.corruption_accounting");
}

// ------------------------------------------- two-path Poisson (Fig. 6)

const HEAD: &str =
    "[scenario]\nname = \"lb\"\nseeds = [1]\nhorizon_us = 1000\nprotocols = [\"mtp\"]\n";
const TWO_PATH: &str = "[topology]\nkind = \"two-path\"\nstrategy = \"mtp-lb\"\n\
    [topology.a]\nrate_gbps = 10\ndelay_us = 1\n[topology.b]\nrate_gbps = 10\ndelay_us = 2\n";
const HOST: &str = "[topology.host]\nrate_gbps = 20\ndelay_us = 1\n";
const POISSON: &str = "[workload]\nkind = \"poisson\"\nload = 0.5\n\
    min_bytes = 1000\nmax_bytes = 100000\nuntil_us = 500\n";
const FCT_BELOW: &str = "[assert]\nfct_below_bytes = 10000\n";

/// The three shapes that take neither Poisson traffic nor a host link.
const OTHER_TOPOLOGIES: [&str; 3] = [
    "[topology]\nkind = \"diamond\"\n[topology.path]\nrate_gbps = 10\ndelay_us = 5\n",
    "[topology]\nkind = \"dumbbell\"\n[topology.edge]\nrate_gbps = 10\ndelay_us = 2\n\
     [topology.shared]\nrate_gbps = 40\ndelay_us = 5\n",
    "[topology]\nkind = \"leaf-spine\"\nleaves = 2\nspines = 2\nhosts_per_leaf = 2\n\
     [topology.host_link]\nrate_gbps = 10\ndelay_us = 1\n\
     [topology.spine_link]\nrate_gbps = 10\ndelay_us = 1\n",
];

fn fig6_like() -> String {
    [HEAD, TWO_PATH, HOST, POISSON, FCT_BELOW].concat()
}

#[test]
fn fig6_like_document_is_valid_and_roundtrips() {
    let s = from_str(&fig6_like()).expect("fig6-like document decodes");
    assert_eq!(s.asserts.fct_below_bytes, Some(10_000));
    assert_eq!(from_str(&to_toml(&s)).expect("re-decode"), s);
}

#[test]
fn mtp_lb_refuses_tcp() {
    let doc = fig6_like().replace("[\"mtp\"]", "[\"mtp\", \"tcp-dctcp\"]");
    let e = schema_err(&doc);
    assert_eq!(e.field, "topology.strategy");
    assert!(e.msg.contains("tcp-dctcp"), "msg: {}", e.msg);
}

#[test]
fn poisson_runs_only_on_two_path() {
    for topo in OTHER_TOPOLOGIES {
        let e = schema_err(&[HEAD, topo, POISSON].concat());
        assert_eq!(e.field, "workload.kind", "{topo}");
        assert!(e.msg.contains("poisson"), "msg: {}", e.msg);
    }
}

#[test]
fn poisson_arrivals_end_by_the_horizon() {
    let e = schema_err(&fig6_like().replace("until_us = 500", "until_us = 1001"));
    assert_eq!(e.field, "workload.until_us");
    assert!(e.msg.contains("1..=1000"), "msg: {}", e.msg);
}

#[test]
fn poisson_size_range_must_be_ordered() {
    let e = schema_err(&fig6_like().replace("min_bytes = 1000", "min_bytes = 200000"));
    assert_eq!(e.field, "workload.min_bytes");
    assert!(e.msg.contains("max_bytes"), "msg: {}", e.msg);
}

#[test]
fn host_link_is_two_path_only() {
    for topo in OTHER_TOPOLOGIES {
        let e = schema_err(&[HEAD, topo, HOST, POISSON].concat());
        assert_eq!(e.field, "topology.host", "{topo}");
    }
}

#[test]
fn fct_below_bytes_must_be_positive() {
    let e = schema_err(&fig6_like().replace("fct_below_bytes = 10000", "fct_below_bytes = 0"));
    assert_eq!(e.field, "assert.fct_below_bytes");
    assert!(e.msg.contains("out of range"), "msg: {}", e.msg);
}

// -------------------- leaf-spine permutation and phase sweep (Figs. 6, 5)

const LEAF_SPINE: &str = "[topology]\nkind = \"leaf-spine\"\nleaves = 2\nspines = 2\n\
    hosts_per_leaf = 2\nstrategy = \"mtp-conga\"\n\
    [topology.host_link]\nrate_gbps = 10\ndelay_us = 1\n\
    [topology.spine_link]\nrate_gbps = 10\ndelay_us = 1\n";
const PERMUTATION: &str = "[workload]\nkind = \"permutation\"\nload = 0.5\n\
    min_bytes = 1000\nmax_bytes = 100000\nalpha = 1.2\nuntil_us = 500\n";
const ALTERNATE: &str = "[topology]\nkind = \"two-path\"\nstrategy = \"alternate\"\n\
    alternate_period_us = 384\n\
    [topology.a]\nrate_gbps = 10\ndelay_us = 1\n[topology.b]\nrate_gbps = 1\ndelay_us = 1\n";
const STEPPED: &str = "[workload]\nkind = \"single\"\nbytes = 1000\nstart_step_us = 37\n";

fn permutation_like() -> String {
    [HEAD, LEAF_SPINE, PERMUTATION].concat()
}

#[test]
fn permutation_and_stepped_documents_are_valid_and_roundtrip() {
    for doc in [permutation_like(), [HEAD, ALTERNATE, STEPPED].concat()] {
        let s = from_str(&doc).expect("document decodes");
        assert_eq!(from_str(&to_toml(&s)).expect("re-decode"), s, "{doc}");
    }
}

#[test]
fn unknown_leaf_spine_strategy_is_refused() {
    let e = schema_err(&permutation_like().replace("mtp-conga", "alternate"));
    assert_eq!(e.field, "topology.strategy");
    assert!(e.msg.contains("`alternate`"), "msg: {}", e.msg);
}

#[test]
fn permutation_runs_only_on_leaf_spine() {
    let others = [OTHER_TOPOLOGIES[0], OTHER_TOPOLOGIES[1], TWO_PATH];
    for topo in others {
        let e = schema_err(&[HEAD, topo, PERMUTATION].concat());
        assert_eq!(e.field, "workload.kind", "{topo}");
        assert!(e.msg.contains("permutation"), "msg: {}", e.msg);
    }
}

#[test]
fn stepped_start_needs_an_alternate_two_path() {
    let others = [OTHER_TOPOLOGIES[0], TWO_PATH];
    for topo in others {
        let e = schema_err(&[HEAD, topo, STEPPED].concat());
        assert_eq!(e.field, "workload.start_step_us", "{topo}");
    }
}

#[test]
fn pareto_alpha_must_exceed_one() {
    for alpha in ["1.0", "1", "0.5"] {
        let e = schema_err(&permutation_like().replace("alpha = 1.2", &format!("alpha = {alpha}")));
        assert_eq!(e.field, "workload.alpha");
        assert!(e.msg.contains("must be > 1"), "msg: {}", e.msg);
    }
}

#[test]
fn permutation_arrivals_end_by_the_horizon() {
    let e = schema_err(&permutation_like().replace("until_us = 500", "until_us = 1001"));
    assert_eq!(e.field, "workload.until_us");
    assert!(e.msg.contains("1..=1000"), "msg: {}", e.msg);
}

// ------------------------------- dumbbell streams and isolation (Figs. 3, 7)

const DUMBBELL: &str = "[topology]\nkind = \"dumbbell\"\ngoodput_bin_us = 32\n\
    isolation = \"drr\"\n\
    [topology.edge]\nrate_gbps = 100\ndelay_us = 1\nqueue_pkts = 256\necn_k = 40\n\
    [topology.shared]\nrate_gbps = 100\ndelay_us = 10\nqueue_pkts = 256\necn_k = 40\n";
const STREAMS: &str = "[workload]\nkind = \"streams\"\nsenders = [1, 8]\n\
    messages = 4\nbytes = 16384\n";
const TCP_HEAD: &str = "[scenario]\nname = \"lb\"\nseeds = [1]\nhorizon_us = 1000\n\
    protocols = [\"tcp-newreno\"]\n";
const CONN_PER_MESSAGE: &str = "[tcp]\nconn_per_message = true\n";
const RATIO: &str = "[assert.cells.mtp]\ntenant_ratio_max = 1.1\n";

fn streams_like() -> String {
    [HEAD, DUMBBELL, STREAMS, RATIO].concat()
}

#[test]
fn streams_documents_are_valid_and_roundtrip() {
    let tcp = [TCP_HEAD, CONN_PER_MESSAGE, DUMBBELL, STREAMS].concat();
    let fair = streams_like().replace("\"drr\"", "\"fair-share\"");
    for doc in [streams_like(), tcp, fair] {
        let s = from_str(&doc).expect("document decodes");
        assert_eq!(from_str(&to_toml(&s)).expect("re-decode"), s, "{doc}");
    }
    let s = from_str(&streams_like()).expect("document decodes");
    assert_eq!(s.workload.tenant_of_sender(), [1, 2, 2, 2, 2, 2, 2, 2, 2]);
}

#[test]
fn fair_share_refuses_tcp() {
    let doc = [TCP_HEAD, DUMBBELL, STREAMS]
        .concat()
        .replace("\"drr\"", "\"fair-share\"");
    let e = schema_err(&doc);
    assert_eq!(e.field, "topology.isolation");
    assert!(e.msg.contains("tcp-newreno"), "msg: {}", e.msg);
}

#[test]
fn conn_per_message_needs_tcp_on_the_dumbbell() {
    let e = schema_err(&[HEAD, CONN_PER_MESSAGE, DUMBBELL, STREAMS].concat());
    assert_eq!(e.field, "tcp.conn_per_message");
    assert!(e.msg.contains("no TCP protocol"), "msg: {}", e.msg);

    let e = schema_err(
        &[
            TCP_HEAD,
            CONN_PER_MESSAGE,
            OTHER_TOPOLOGIES[0],
            "[workload]\nkind = \"single\"\nbytes = 1000\n",
        ]
        .concat(),
    );
    assert_eq!(e.field, "tcp.conn_per_message");
    assert!(e.msg.contains("`diamond`"), "msg: {}", e.msg);
}

#[test]
fn every_tenant_needs_a_sender() {
    for senders in ["[0]", "[1, 0]"] {
        let e = schema_err(&streams_like().replace("[1, 8]", senders));
        assert_eq!(e.field, "workload.senders", "{senders}");
        assert!(e.msg.contains("got 0"), "msg: {}", e.msg);
    }
    let e = schema_err(&streams_like().replace("[1, 8]", "[]"));
    assert_eq!(e.field, "workload.senders");
}

#[test]
fn queue_must_hold_its_marking_threshold() {
    let e = schema_err(&streams_like().replacen("ecn_k = 40", "ecn_k = 300", 1));
    assert_eq!(e.field, "topology.edge.ecn_k");
    assert!(e.msg.contains("queue_pkts (256)"), "msg: {}", e.msg);

    let e = schema_err(&streams_like().replace(
        "delay_us = 10\nqueue_pkts = 256",
        "delay_us = 10\nqueue_pkts = 0",
    ));
    assert_eq!(e.field, "topology.shared.queue_pkts");
    assert!(e.msg.contains("out of range"), "msg: {}", e.msg);
}

#[test]
fn tenant_ratio_needs_two_tenants() {
    let e = schema_err(&streams_like().replace("[1, 8]", "[4]"));
    assert_eq!(e.field, "assert.cells.mtp.tenant_ratio_max");
    assert!(e.msg.contains("two tenants"), "msg: {}", e.msg);

    let e = schema_err(&[BASE, "\n", RATIO].concat());
    assert_eq!(e.field, "assert.cells.mtp.tenant_ratio_max");
}

#[test]
fn streams_run_only_on_the_dumbbell() {
    let others = [OTHER_TOPOLOGIES[0], OTHER_TOPOLOGIES[2], TWO_PATH];
    for topo in others {
        let e = schema_err(&[HEAD, topo, STREAMS].concat());
        assert_eq!(e.field, "workload.kind", "{topo}");
        assert!(e.msg.contains("streams"), "msg: {}", e.msg);
    }
}

// ---------------- §4 ablations: one pathlet, blob chunks, NDP trimming

const SPRAY: &str = "[topology]\nkind = \"two-path\"\nstrategy = \"spray\"\npathlets = 1\n\
    [topology.a]\nrate_gbps = 100\ndelay_us = 1\n[topology.b]\nrate_gbps = 100\ndelay_us = 2\n";
const CHUNKED: &str = "[workload]\nkind = \"single\"\nbytes = 10000\nchunk_bytes = 1460\n";
const TRIMMING: &str = "[topology]\nkind = \"dumbbell\"\n\
    [topology.edge]\nrate_gbps = 100\ndelay_us = 1\n\
    [topology.shared]\nrate_gbps = 100\ndelay_us = 1\nqueue_pkts = 9\necn_k = 9\n\
    trimming = true\n";
const INCAST: &str = "[workload]\nkind = \"streams\"\nsenders = [16]\nmessages = 1\n\
    bytes = 65536\n";

#[test]
fn ablation_documents_are_valid_and_roundtrip() {
    for doc in [
        [HEAD, SPRAY, CHUNKED].concat(),
        [HEAD, TRIMMING, INCAST].concat(),
    ] {
        let s = from_str(&doc).expect("document decodes");
        assert_eq!(from_str(&to_toml(&s)).expect("re-decode"), s, "{doc}");
    }
}

#[test]
fn pathlets_is_a_two_path_key() {
    for topo in OTHER_TOPOLOGIES {
        let topo = topo.replacen("\"\n", "\"\npathlets = 1\n", 1);
        let e = schema_err(&[HEAD, &topo, CHUNKED].concat());
        assert_eq!(e.field, "topology.pathlets", "{topo}");
    }
}

#[test]
fn one_pathlet_refuses_the_balancer() {
    let topo = TWO_PATH.replace("\"mtp-lb\"\n", "\"mtp-lb\"\npathlets = 1\n");
    let e = schema_err(&[HEAD, &topo, CHUNKED].concat());
    assert_eq!(e.field, "topology.pathlets");
    assert!(e.msg.contains("mtp-lb"), "msg: {}", e.msg);
}

#[test]
fn pathlets_is_one_or_two() {
    for n in ["0", "3"] {
        let doc = [
            HEAD,
            &SPRAY.replace("pathlets = 1", &format!("pathlets = {n}")),
            CHUNKED,
        ];
        let e = schema_err(&doc.concat());
        assert_eq!(e.field, "topology.pathlets", "{n}");
        assert!(e.msg.contains("1..=2"), "msg: {}", e.msg);
    }
}

#[test]
fn chunks_fit_the_message() {
    for (bytes, chunk) in [(10_000, 0), (10_000, 10_001), (10_000_000, 99)] {
        let workload =
            format!("[workload]\nkind = \"single\"\nbytes = {bytes}\nchunk_bytes = {chunk}\n");
        let e = schema_err(&[HEAD, SPRAY, &workload].concat());
        assert_eq!(e.field, "workload.chunk_bytes", "{bytes}/{chunk}");
        assert!(e.msg.contains("out of range"), "msg: {}", e.msg);
    }
}

#[test]
fn trimming_is_the_dumbbell_shared_link_alone() {
    let drr = TRIMMING.replacen("\"\n", "\"\nisolation = \"drr\"\n", 1);
    let e = schema_err(&[HEAD, &drr, INCAST].concat());
    assert_eq!(e.field, "topology.shared.trimming");
    assert!(e.msg.contains("isolate"), "msg: {}", e.msg);

    let edge = TRIMMING.replace(
        "delay_us = 1\n[topology.shared]",
        "delay_us = 1\ntrimming = true\n[topology.shared]",
    );
    let e = schema_err(&[HEAD, &edge, INCAST].concat());
    assert_eq!(e.field, "topology.edge.trimming");

    let path = SPRAY.replace("delay_us = 2\n", "delay_us = 2\ntrimming = true\n");
    let e = schema_err(&[HEAD, &path, CHUNKED].concat());
    assert_eq!(e.field, "topology.b.trimming");
}
