//! Property tests for the scenario schema.
//!
//! 1. **Lossless roundtrip**: any valid scenario serialized by
//!    [`emit::to_toml`] decodes back to an equal `Scenario`.
//! 2. **Typed rejection**: unknown keys, out-of-range values, and
//!    zero-latency links are rejected with a [`SchemaError`] naming the
//!    offending field — never a panic. Every bounded key is offered just
//!    outside its range, and every kind-scoped key under a kind that does
//!    not list it. Every rule between keys is refused at its own key,
//!    with its own message, when it alone fails.
//! 3. **Total decoding**: `from_str` never panics, on arbitrary byte
//!    soup or on mutated-valid documents.
//!
//! The generator, the probe and the catalog are one [`Keys`] walk over
//! `scenario_keys`, so each key's range, and each rule between keys with
//! its repair, is written once, in the schema.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::ops::RangeInclusive;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod emit;

use emit::to_toml;
use mtp_scenario::schema::{
    self, from_str, from_table, scenario_keys, CellAsserts, FaultSpec, Keys, List, LoadError,
    Names, Reals, Scenario, SchemaError, Topology, FAULTS, PROTOCOLS, TOPOLOGIES, WORKLOADS,
};
use mtp_scenario::toml::{parse, Table, Value};

type Walk = Result<(), SchemaError>;

/// Cases per property: at least 256, more under `PROPTEST_CASES`.
fn cases() -> u32 {
    ProptestConfig::default().cases.max(256)
}

// ------------------------------------------------------------- the walk

/// A bounded numeric key: an integer, a list's integer items, or a real.
#[derive(Debug, Clone)]
enum Bound {
    Int(RangeInclusive<u64>),
    Items(RangeInclusive<u64>),
    Real(Reals),
}

/// The test's [`Keys`] walk. With an RNG it is the generator: it draws
/// every key in its range and calls each failing rule's repair, except
/// the `spare`-th's, after which it repairs nothing; it gives each
/// optional key already set, and keeps the shape `draw` chose (each sum
/// type's kind, the faults, cells, protocols and the number of pins).
/// With a catalog round it gives every optional key and takes each
/// round's name. Otherwise it is the probe: it changes nothing. All three
/// record what they visit.
#[derive(Default)]
struct Trail<'r> {
    rng: Option<&'r mut SmallRng>,
    round: Option<usize>,
    /// The failing rule the generator leaves for the decoder, from 0.
    spare: Option<usize>,
    /// Failing rules the generator has met.
    failed: usize,
    /// The spared rule's refusal.
    refusal: Option<SchemaError>,
    /// A repair changed the kind of the table walked: its keys are not
    /// the kind `pick` recorded, so they are not credited to it.
    rekinded: bool,
    /// Field path of the table walked, as refusals spell it.
    field: Vec<String>,
    /// The same with each sum type's kind in place: `fault[cut_both]`.
    scope: Vec<String>,
    /// Keys and wire names visited: `workload[single].bytes`,
    /// `topology[two-path].strategy=ecmp`.
    seen: BTreeSet<String>,
    /// Each bounded key's field path and bound.
    bounds: Vec<(String, Bound)>,
}

impl Trail<'_> {
    fn visit(&mut self, key: &str) {
        if self.rekinded {
            return;
        }
        let scope = self.scope.join(".");
        self.seen
            .insert(format!("{scope}.{key}").trim_start_matches('.').into());
    }

    /// The field path of `key` in the table walked.
    fn path(&self, key: impl Display) -> String {
        let field = format!("{}.{key}", self.field.join("."));
        field.trim_start_matches('.').to_string()
    }

    fn bound(&mut self, key: &str, b: Bound) {
        self.visit(key);
        let field = self.path(key);
        self.bounds.push((field, b));
    }

    fn within<R>(&mut self, field: String, scope: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.field.push(field);
        self.scope.push(scope.to_string());
        let r = f(self);
        self.field.pop();
        self.scope.pop();
        self.rekinded = false;
        r
    }
}

/// An integer in `r`, one time in four its low end, where relationships
/// between keys fail most (no tenants, a repeated seed).
fn int(rng: &mut SmallRng, r: RangeInclusive<u64>) -> u64 {
    if rng.gen_bool(0.25) {
        *r.start()
    } else {
        rng.gen_range(r)
    }
}

/// A string of everything `escape_basic` has to handle.
fn text(rng: &mut SmallRng) -> String {
    const CHARS: &[char] = &[
        'a', 'Z', '0', ' ', '.', ',', '"', '\\', '\n', '\t', '#', '=', '[', ']', 'é', '€',
    ];
    (0..rng.gen_range(0..=40))
        .map(|_| *pick(rng, CHARS))
        .collect()
}

impl Keys for Trail<'_> {
    fn has(&mut self, _: &str, set: bool) -> bool {
        match (&mut self.rng, self.round) {
            (Some(rng), _) => set || rng.gen_bool(0.5),
            (None, Some(_)) => true,
            (None, None) => set,
        }
    }

    fn u64(&mut self, key: &str, v: &mut u64, range: RangeInclusive<u64>) -> Walk {
        if let Some(rng) = &mut self.rng {
            *v = int(rng, range.clone());
        }
        self.bound(key, Bound::Int(range));
        Ok(())
    }

    fn f64(&mut self, key: &str, v: &mut f64, range: Reals) -> Walk {
        if let Some(rng) = &mut self.rng {
            // Messy mantissas: Display roundtrips every finite f64.
            *v = match range {
                Reals::From(lo) | Reals::Above(lo) => {
                    lo + rng.gen_range(0..u32::MAX) as f64 / 7.0 + 0.001
                }
                Reals::Fraction => rng.gen_range(1..=100) as f64 / 100.0,
            };
        }
        self.bound(key, Bound::Real(range));
        Ok(())
    }

    fn bool(&mut self, key: &str, v: &mut bool) -> Walk {
        if let Some(rng) = &mut self.rng {
            *v = rng.gen_bool(0.5);
        }
        self.visit(key);
        Ok(())
    }

    fn str(&mut self, key: &str, v: &mut String) -> Walk {
        if let Some(rng) = &mut self.rng {
            *v = text(rng);
        }
        self.visit(key);
        Ok(())
    }

    fn pick<T: Clone>(&mut self, key: &str, v: &mut T, names: &Names<T>) -> Walk {
        if key != "kind" {
            match (&mut self.rng, self.round) {
                (Some(rng), _) => *v = pick(rng, names.all).1.clone(),
                (None, Some(r)) => *v = names.all[r % names.all.len()].1.clone(),
                (None, None) => {}
            }
        }
        let name = names.name(v);
        self.visit(&format!("{key}={name}"));
        if key == "kind" {
            let scope = self.scope.last_mut().expect("a kind is inside a table");
            *scope = format!("{scope}[{name}]");
        }
        Ok(())
    }

    fn u64s(&mut self, key: &str, v: &mut Vec<u64>, list: &List) -> Walk {
        if let Some(rng) = &mut self.rng {
            let (lo, hi) = (*list.len.start(), *list.len.end());
            let n = rng.gen_range(lo..=hi.min(lo + 4));
            *v = (0..n).map(|_| int(rng, list.each.clone())).collect();
        }
        self.bound(key, Bound::Items(list.each.clone()));
        Ok(())
    }

    fn picks<T: Clone + PartialEq>(&mut self, key: &str, v: &mut Vec<T>, names: &Names<T>) -> Walk {
        for p in v.iter() {
            self.visit(&format!("{key}={}", names.name(p)));
        }
        Ok(())
    }

    fn span(&mut self, key: &str, v: &mut Option<(u64, u64)>) -> Walk {
        if let Some(rng) = &mut self.rng {
            *v = rng.gen_bool(0.4).then(|| {
                (
                    rng.gen_range(0..=i64::MAX as u64),
                    rng.gen_range(0..=i64::MAX as u64),
                )
            });
        }
        self.visit(key);
        Ok(())
    }

    fn table(&mut self, key: &str, f: impl FnOnce(&mut Self) -> Walk) -> Walk {
        self.visit(key);
        self.within(key.to_string(), key, f)
    }

    fn tables<T: Default>(
        &mut self,
        key: &str,
        v: &mut Vec<T>,
        mut f: impl FnMut(&mut Self, &mut T) -> Walk,
    ) -> Walk {
        self.visit(key);
        for (i, x) in v.iter_mut().enumerate() {
            self.within(format!("{key}[{i}]"), key, |w| f(w, x))?;
        }
        Ok(())
    }

    fn named<T: Clone, V: Default>(
        &mut self,
        key: &str,
        v: &mut Vec<(T, V)>,
        names: &Names<T>,
        mut f: impl FnMut(&mut Self, &mut V) -> Walk,
    ) -> Walk {
        self.visit(key);
        for (name, x) in v.iter_mut() {
            let name = names.name(name);
            self.visit(&format!("{key}={name}"));
            self.within(format!("{key}.{name}"), key, |w| f(w, x))?;
        }
        Ok(())
    }

    fn pins(&mut self, key: &str, v: &mut Vec<(String, String)>) -> Walk {
        if let Some(rng) = &mut self.rng {
            for (i, (pin, hex)) in v.iter_mut().enumerate() {
                // The index first keeps them distinct, as a table's keys are.
                *pin = format!("{i}{}", text(rng));
                *hex = format!("{:016x}", rng.gen_range(0..u64::MAX));
            }
        }
        self.visit(key);
        Ok(())
    }

    fn rule(&mut self, key: impl Display, ok: bool, msg: impl Display, fix: impl FnOnce()) -> Walk {
        if ok || self.rng.is_none() || self.refusal.is_some() {
            return Ok(());
        }
        if self.spare == Some(self.failed) {
            let field = self.path(key);
            self.refusal = Some(SchemaError {
                field,
                msg: msg.to_string(),
            });
        } else {
            self.rekinded |= key.to_string() == "kind";
            fix();
        }
        self.failed += 1;
        Ok(())
    }
}

// ------------------------------------------------- arbitrary scenarios

fn pick<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

fn arb_scenario(rng: &mut SmallRng) -> Scenario {
    draw(rng, None).0
}

/// A scenario and the generator that walked it: the shape by hand, every
/// key by the walk, which repairs each rule that fails but the `spare`-th.
fn draw(rng: &mut SmallRng, spare: Option<usize>) -> (Scenario, Trail<'_>) {
    let topology = pick(rng, TOPOLOGIES.all).1.clone();
    let leaf_spine = matches!(topology, Topology::LeafSpine { .. });
    let faults: Vec<_> = (FAULTS.all.iter())
        .filter(|(_, f)| match f {
            FaultSpec::CutBoth { .. } => !topology.pair_names().is_empty(),
            FaultSpec::CrashRestart { .. } => leaf_spine,
            _ => !topology.link_names().is_empty(),
        })
        .collect();
    // A topology that publishes no link or node name takes no fault.
    let n_faults = if faults.is_empty() {
        0
    } else {
        rng.gen_range(0..=3)
    };
    // Any non-empty set of protocols; the rules drop those with no driver.
    let mask = rng.gen_range(1..1u32 << PROTOCOLS.all.len());
    let mut s = Scenario {
        workload: pick(rng, WORKLOADS.all).1.clone(),
        faults: (0..n_faults)
            .map(|_| pick(rng, &faults).1.clone())
            .collect(),
        protocols: (0..)
            .zip(PROTOCOLS.all)
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, (_, p))| *p)
            .collect(),
        topology,
        ..Scenario::default()
    };
    s.asserts.cells = (s.protocols.iter())
        .filter(|_| rng.gen_bool(0.5))
        .map(|&p| (p, CellAsserts::default()))
        .collect();
    s.asserts.digests = vec![Default::default(); rng.gen_range(0..=2)];
    let mut gen = Trail {
        rng: Some(rng),
        spare,
        ..Trail::default()
    };
    scenario_keys(&mut gen, &mut s).expect("drawing refuses nothing");
    (s, gen)
}

// ----------------------------------------------------------- properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

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

// ------------------------------------------- every key, by its own table

/// Every key and wire name of every kind: `scenario_keys` walked over
/// each topology × workload × fault kind, each round taking a different
/// name of every non-kind choice.
fn catalog() -> BTreeSet<String> {
    let mut seen = BTreeSet::new();
    for (_, topology) in TOPOLOGIES.all {
        for (_, workload) in WORKLOADS.all {
            for round in 0..8 {
                let mut s = Scenario {
                    topology: topology.clone(),
                    workload: workload.clone(),
                    faults: FAULTS.all.iter().map(|(_, f)| f.clone()).collect(),
                    protocols: PROTOCOLS.all.iter().map(|(_, p)| *p).collect(),
                    ..Scenario::default()
                };
                s.asserts.cells = s
                    .protocols
                    .iter()
                    .map(|&p| (p, Default::default()))
                    .collect();
                let mut t = Trail {
                    round: Some(round),
                    ..Trail::default()
                };
                scenario_keys(&mut t, &mut s).expect("listing refuses nothing");
                seen.append(&mut t.seen);
            }
        }
    }
    seen
}

#[test]
fn generator_draws_every_key_and_name() {
    let mut drawn = BTreeSet::new();
    for seed in 0..u64::from(cases()) {
        drawn.append(&mut draw(&mut SmallRng::seed_from_u64(seed), None).1.seen);
    }
    let all = catalog();
    let missed: Vec<_> = all.difference(&drawn).collect();
    assert!(missed.is_empty(), "never drawn: {missed:?}");
    assert!(all.contains("fault[degrade].delay_us"), "{all:?}");
}

/// Set `path` (dotted, `name[i]` for an array's item) in `t` to `v`.
fn set(t: &mut Table, path: &str, v: Value) {
    let Some((head, rest)) = path.split_once('.') else {
        t.insert(path, v);
        return;
    };
    let inner = match head.split_once('[') {
        Some((name, i)) => match t.get_mut(name) {
            Some(Value::Array(items)) => {
                &mut items[i.trim_end_matches(']').parse::<usize>().unwrap()]
            }
            other => panic!("{path}: {other:?}"),
        },
        None => t.get_mut(head).unwrap_or_else(|| panic!("{path}")),
    };
    match inner {
        Value::Table(t) => set(t, rest, v),
        other => panic!("{path}: {other:?}"),
    }
}

/// The literals one step outside `b`, where the file format has them.
fn outside(b: &Bound) -> Vec<Value> {
    let ints = |r: &RangeInclusive<u64>| {
        let above = (*r.end() < i64::MAX as u64).then(|| *r.end() as i64 + 1);
        [Some(*r.start() as i64 - 1), above].into_iter().flatten()
    };
    match b {
        Bound::Int(r) => ints(r).map(Value::Int).collect(),
        Bound::Items(r) => ints(r).map(|x| Value::Array(vec![Value::Int(x)])).collect(),
        Bound::Real(Reals::From(lo)) => vec![Value::Float(lo.next_down())],
        Bound::Real(Reals::Above(lo)) => vec![Value::Float(*lo)],
        Bound::Real(Reals::Fraction) => vec![Value::Float(0.0), Value::Float(1f64.next_up())],
    }
}

#[test]
fn every_bound_is_refused_at_its_key() {
    let mut offered = BTreeSet::new();
    for seed in 0..128 {
        let mut s = arb_scenario(&mut SmallRng::seed_from_u64(seed));
        let text = to_toml(&s);
        let mut probe = Trail::default();
        scenario_keys(&mut probe, &mut s).expect("probing refuses nothing");
        for (path, bound) in probe.bounds {
            for v in outside(&bound) {
                let mut t = parse(&text).expect("emitted TOML parses");
                set(&mut t, &path, v.clone());
                let e = from_table(t).expect_err(&format!("{path} = {v:?} refused"));
                assert_eq!(e.field, path, "{v:?}: {}", e.msg);
                offered.insert(path.clone());
            }
        }
    }
    assert!(offered.len() > 100, "{offered:?}");
}

/// Every rule's field, `*` standing for an index, a link table, a
/// protocol or a pin; a field matches the first pattern that fits it.
#[rustfmt::skip]
const RULES: &[&str] = &[
    "scenario.name", "scenario.seeds", "scenario.protocols", "tcp.conn_per_message",
    "topology.*.ecn_k", "topology.alternate_period_us", "topology.pathlets",
    "topology.shared.trimming", "topology.strategy", "topology.isolation",
    "workload.kind", "workload.start_step_us", "workload.elephants", "workload.min_bytes",
    "workload.mice_min_bytes",
    "fault[*].to_us", "fault[*].flips", "fault[*].link", "fault[*].node",
    "assert.window_us", "assert.corruption_accounting", "assert.cells.*.goodput_mean_min_gbps",
    "assert.cells.*.tenant_ratio_max", "assert.cells.*", "assert.digests.*",
];

/// Draws that leave one rule unrepaired.
const RULE_DRAWS: u64 = 16_384;

/// Each draw leaves one failing rule, chosen at random, unrepaired and
/// repairs nothing after it: the decoder must stop at that rule.
#[test]
fn every_rule_is_refused_at_its_key() {
    let fits = |pattern: &str, field: &str| match pattern.split_once('*') {
        Some((head, tail)) => {
            field.len() > head.len() + tail.len()
                && field.starts_with(head)
                && field.ends_with(tail)
        }
        None => pattern == field,
    };
    let mut refused = BTreeSet::new();
    for seed in 0..RULE_DRAWS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let failed = draw(&mut rng.clone(), None).1.failed;
        if failed == 0 {
            continue;
        }
        let spare = SmallRng::seed_from_u64(!seed).gen_range(0..failed);
        let (s, gen) = draw(&mut rng, Some(spare));
        let want = gen.refusal.expect("the spared rule fails");
        let text = to_toml(&s);
        let got = schema_err(&text);
        assert_eq!(got, want, "seed {seed}, rule {spare} of {failed}\n{text}");
        let rule = (RULES.iter())
            .find(|r| fits(r, &got.field))
            .unwrap_or_else(|| panic!("a rule at {} is not in RULES", got.field));
        refused.insert(*rule);
    }
    let never: Vec<_> = RULES.iter().filter(|r| !refused.contains(*r)).collect();
    assert!(never.is_empty(), "never refused: {never:?}");
}

#[test]
fn keys_out_of_their_kind_are_unknown() {
    // (section, kind) -> the keys that kind lists.
    let mut listed: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();
    for entry in catalog() {
        let Some((scope, key)) = entry.split_once('.') else {
            continue;
        };
        let Some((section, kind)) = scope.split_once('[') else {
            continue;
        };
        if !key.contains(['.', '=']) {
            let kind = kind.trim_end_matches(']').to_string();
            listed
                .entry((section.into(), kind))
                .or_default()
                .insert(key.into());
        }
    }
    let mut offered = 0;
    for seed in 0..32 {
        let s = arb_scenario(&mut SmallRng::seed_from_u64(seed));
        let text = to_toml(&s);
        let mut tables = vec![
            ("topology", s.topology.kind(), "topology".to_string()),
            ("workload", s.workload.kind(), "workload".to_string()),
        ];
        for (i, f) in s.faults.iter().enumerate() {
            tables.push(("fault", FAULTS.name(f), format!("fault[{i}]")));
        }
        for (section, kind, path) in tables {
            let own = &listed[&(section.to_string(), kind.to_string())];
            let foreign: BTreeSet<_> = listed
                .iter()
                .filter(|((s, _), _)| s == section)
                .flat_map(|(_, keys)| keys.difference(own))
                .collect();
            for key in foreign {
                let mut t = parse(&text).expect("emitted TOML parses");
                let field = format!("{path}.{key}");
                set(&mut t, &field, Value::Int(1));
                let e = from_table(t).expect_err(&format!("{field} refused"));
                assert_eq!(
                    (e.field.as_str(), e.msg.as_str()),
                    (field.as_str(), "unknown key")
                );
                offered += 1;
            }
        }
    }
    assert!(offered > 100, "{offered}");
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
    alternate_period_us = 384\ngoodput_bin_us = 32\n\
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
fn flip_period_is_whole_goodput_bins() {
    let doc = [HEAD, ALTERNATE, STEPPED].concat();
    let e = schema_err(&doc.replace("goodput_bin_us = 32", "goodput_bin_us = 100"));
    assert_eq!(e.field, "topology.alternate_period_us");
    assert_eq!(e.msg, "must be a multiple of goodput_bin_us (100), got 384");
    let e = schema_err(&doc.replace("goodput_bin_us = 32\n", ""));
    assert_eq!(e.field, "topology.alternate_period_us");
    assert!(e.msg.contains("(100)"), "msg: {}", e.msg);
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

// ------------------------------ goodput bounds and degrade's link rows

#[test]
fn goodput_bound_decodes_where_cells_report_goodput() {
    let s = from_str(&(streams_like() + "goodput_mean_min_gbps = 50.0\n")).expect("dumbbell bound");
    assert_eq!(s.asserts.cells[0].1.goodput_mean_min_gbps, Some(50.0));
    assert_eq!(from_str(&to_toml(&s)).expect("re-decode"), s);

    let doc = permutation_like() + "[assert.cells.mtp]\ngoodput_mean_min_gbps = 50.0\n";
    let e = schema_err(&doc);
    assert_eq!(e.field, "assert.cells.mtp.goodput_mean_min_gbps");
    assert!(e.msg.contains("leaf-spine"), "msg: {}", e.msg);
}

#[test]
fn degrade_delay_is_a_link_delay() {
    let e = schema_err(&format!(
        "{BASE}\n[[fault]]\nkind = \"degrade\"\nlink = \"a_fwd\"\nat_us = 1\nrate_gbps = 10\ndelay_us = 0\n"
    ));
    assert_eq!(e.field, "fault[0].delay_us");
    assert!(
        e.msg.contains("zero-latency links are not supported"),
        "msg: {}",
        e.msg
    );
}

// ------------------------------- the TCP-terminating proxy (Fig. 2)

const PROXY: &str = "[topology]\nkind = \"proxy\"\nwindow_cap_kb = 64\n\
    [topology.client]\nrate_gbps = 100\ndelay_us = 2\n\
    [topology.server]\nrate_gbps = 40\ndelay_us = 2\n";
const SINGLE: &str = "[workload]\nkind = \"single\"\nbytes = 1000\n";

fn proxy_like() -> String {
    [TCP_HEAD, PROXY, SINGLE].concat()
}

#[test]
fn proxy_document_is_valid_and_roundtrips() {
    let s = from_str(&proxy_like()).expect("document decodes");
    assert_eq!(from_str(&to_toml(&s)).expect("re-decode"), s);
}

#[test]
fn proxy_refuses_mtp() {
    let doc = proxy_like().replace("[\"tcp-newreno\"]", "[\"tcp-newreno\", \"mtp\"]");
    let e = schema_err(&doc);
    assert_eq!(e.field, "scenario.protocols");
    assert!(e.msg.contains("`mtp`"), "msg: {}", e.msg);
    assert!(e.msg.contains("only TCP runs there"), "msg: {}", e.msg);
}

#[test]
fn proxy_runs_only_the_single_workload() {
    let periodic = "[workload]\nkind = \"periodic\"\ncount = 2\nbytes = 1000\ninterval_us = 10\n";
    for workload in [periodic, STREAMS, POISSON] {
        let e = schema_err(&[TCP_HEAD, PROXY, workload].concat());
        assert_eq!(e.field, "workload.kind", "{workload}");
        assert!(e.msg.contains("`proxy`"), "msg: {}", e.msg);
    }
}

#[test]
fn proxy_faults_name_no_link() {
    for link in ["client", "server", "a_fwd", "shared"] {
        let fault = format!(
            "[[fault]]\nkind = \"link_down\"\nlink = \"{link}\"\nat_us = 1\nmode = \"drain\"\n"
        );
        let e = schema_err(&(proxy_like() + &fault));
        assert_eq!(e.field, "fault[0].link", "{link}");
        assert!(e.msg.contains("unknown link"), "msg: {}", e.msg);
    }
    let cut = "[[fault]]\nkind = \"cut_both\"\nlink = \"a\"\nfrom_us = 1\nto_us = 2\n\
        mode = \"drain\"\n";
    let e = schema_err(&(proxy_like() + cut));
    assert_eq!(e.field, "fault[0].link");
}

#[test]
fn window_cap_must_be_positive() {
    let e = schema_err(&proxy_like().replace("window_cap_kb = 64", "window_cap_kb = 0"));
    assert_eq!(e.field, "topology.window_cap_kb");
    assert!(e.msg.contains("out of range"), "msg: {}", e.msg);
}
