//! The scenario emitter: the generator half of `schema_prop.rs`'s
//! parse · emit round-trip. Nothing in the library or `scn` writes
//! scenarios, so it lives with the test that needs it.

use mtp_scenario::schema::{
    FailMode, FaultSpec, Isolation, LeafSpineStrategy, LinkParams, MtpOpts, Scenario, TcpOpts,
    Topology, TwoPathStrategy, Workload,
};
use mtp_scenario::toml::{escape_basic, format_key};

fn fail_mode_key(mode: FailMode) -> &'static str {
    match mode {
        FailMode::Blackhole => "blackhole",
        FailMode::Drain => "drain",
    }
}

fn fault_kind_key(f: &FaultSpec) -> &'static str {
    match f {
        FaultSpec::CutBoth { .. } => "cut_both",
        FaultSpec::LinkDown { .. } => "link_down",
        FaultSpec::LinkUp { .. } => "link_up",
        FaultSpec::Degrade { .. } => "degrade",
        FaultSpec::CorruptRate { .. } => "corrupt_rate",
        FaultSpec::BitflipBurst { .. } => "bitflip_burst",
        FaultSpec::TruncateBurst { .. } => "truncate_burst",
        FaultSpec::CrashRestart { .. } => "crash_restart",
    }
}

/// Render a finite float so it parses back exactly and is unambiguously
/// a float (always contains `.` or an exponent).
fn format_float(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn emit_link(out: &mut String, header: &str, l: &LinkParams) {
    out.push_str(&format!(
        "[{header}]\nrate_gbps = {}\ndelay_us = {}\nqueue_pkts = {}\necn_k = {}\n",
        l.rate_gbps, l.delay_us, l.queue_pkts, l.ecn_k
    ));
}

/// Render a scenario as canonical TOML. `from_str(to_toml(s))` yields a
/// scenario equal to `s` — the roundtrip property `schema_prop.rs` pins.
pub fn to_toml(s: &Scenario) -> String {
    let mut o = String::new();
    o.push_str("[scenario]\n");
    o.push_str(&format!("name = {}\n", escape_basic(&s.name)));
    if !s.description.is_empty() {
        o.push_str(&format!("description = {}\n", escape_basic(&s.description)));
    }
    let seeds: Vec<String> = s.seeds.iter().map(|x| x.to_string()).collect();
    o.push_str(&format!("seeds = [{}]\n", seeds.join(", ")));
    o.push_str(&format!("horizon_us = {}\n", s.horizon_us));
    let protos: Vec<String> = s.protocols.iter().map(|p| escape_basic(p.key())).collect();
    o.push_str(&format!("protocols = [{}]\n", protos.join(", ")));

    if s.mtp != MtpOpts::default() {
        o.push_str("\n[mtp]\n");
        o.push_str(&format!("failover = {}\n", s.mtp.failover));
    }
    if s.tcp != TcpOpts::default() {
        o.push_str("\n[tcp]\n");
        o.push_str(&format!("conn_per_message = {}\n", s.tcp.conn_per_message));
    }

    o.push_str("\n[topology]\n");
    o.push_str(&format!("kind = {}\n", escape_basic(s.topology.kind())));
    match &s.topology {
        Topology::Diamond { path } => emit_link(&mut o, "topology.path", path),
        Topology::TwoPath {
            a,
            b,
            host,
            strategy,
            goodput_bin_us,
            pathlets,
        } => {
            o.push_str(&format!("goodput_bin_us = {goodput_bin_us}\n"));
            o.push_str(&format!("pathlets = {pathlets}\n"));
            match strategy {
                TwoPathStrategy::Alternate { period_us } => {
                    o.push_str("strategy = \"alternate\"\n");
                    o.push_str(&format!("alternate_period_us = {period_us}\n"));
                }
                TwoPathStrategy::Ecmp => o.push_str("strategy = \"ecmp\"\n"),
                TwoPathStrategy::Spray => o.push_str("strategy = \"spray\"\n"),
                TwoPathStrategy::MtpLb => o.push_str("strategy = \"mtp-lb\"\n"),
            }
            emit_link(&mut o, "topology.a", a);
            emit_link(&mut o, "topology.b", b);
            if let Some(host) = host {
                emit_link(&mut o, "topology.host", host);
            }
        }
        Topology::Dumbbell {
            edge,
            shared,
            goodput_bin_us,
            isolation,
            trimming,
        } => {
            o.push_str(&format!("goodput_bin_us = {goodput_bin_us}\n"));
            match isolation {
                None => {}
                Some(Isolation::Drr) => o.push_str("isolation = \"drr\"\n"),
                Some(Isolation::FairShare) => o.push_str("isolation = \"fair-share\"\n"),
            }
            emit_link(&mut o, "topology.edge", edge);
            emit_link(&mut o, "topology.shared", shared);
            if *trimming {
                o.push_str("trimming = true\n");
            }
        }
        Topology::LeafSpine {
            leaves,
            spines,
            hosts_per_leaf,
            host_link,
            spine_link,
            strategy,
        } => {
            o.push_str(&format!("leaves = {leaves}\n"));
            o.push_str(&format!("spines = {spines}\n"));
            o.push_str(&format!("hosts_per_leaf = {hosts_per_leaf}\n"));
            if let Some(strategy) = strategy {
                let key = match strategy {
                    LeafSpineStrategy::Ecmp => "ecmp",
                    LeafSpineStrategy::Spray => "spray",
                    LeafSpineStrategy::MtpLb => "mtp-lb",
                    LeafSpineStrategy::MtpConga => "mtp-conga",
                };
                o.push_str(&format!("strategy = \"{key}\"\n"));
            }
            emit_link(&mut o, "topology.host_link", host_link);
            emit_link(&mut o, "topology.spine_link", spine_link);
        }
    }

    o.push_str("\n[workload]\n");
    o.push_str(&format!("kind = {}\n", escape_basic(s.workload.kind())));
    match &s.workload {
        Workload::Periodic {
            count,
            bytes,
            interval_us,
        } => {
            o.push_str(&format!("count = {count}\n"));
            o.push_str(&format!("bytes = {bytes}\n"));
            o.push_str(&format!("interval_us = {interval_us}\n"));
        }
        Workload::Single {
            bytes,
            start_step_us,
            chunk_bytes,
        } => {
            o.push_str(&format!("bytes = {bytes}\n"));
            if let Some(step) = start_step_us {
                o.push_str(&format!("start_step_us = {step}\n"));
            }
            if let Some(chunk) = chunk_bytes {
                o.push_str(&format!("chunk_bytes = {chunk}\n"));
            }
        }
        Workload::Poisson {
            load,
            min_bytes,
            max_bytes,
            until_us,
        } => {
            o.push_str(&format!("load = {}\n", format_float(*load)));
            o.push_str(&format!("min_bytes = {min_bytes}\n"));
            o.push_str(&format!("max_bytes = {max_bytes}\n"));
            o.push_str(&format!("until_us = {until_us}\n"));
        }
        Workload::Tenants {
            elephants,
            elephant_bytes,
            mice,
            mice_load,
            mice_min_bytes,
            mice_max_bytes,
        } => {
            o.push_str(&format!("elephants = {elephants}\n"));
            o.push_str(&format!("elephant_bytes = {elephant_bytes}\n"));
            o.push_str(&format!("mice = {mice}\n"));
            o.push_str(&format!("mice_load = {}\n", format_float(*mice_load)));
            o.push_str(&format!("mice_min_bytes = {mice_min_bytes}\n"));
            o.push_str(&format!("mice_max_bytes = {mice_max_bytes}\n"));
        }
        Workload::Streams {
            senders,
            messages,
            bytes,
        } => {
            let senders: Vec<String> = senders.iter().map(|n| n.to_string()).collect();
            o.push_str(&format!("senders = [{}]\n", senders.join(", ")));
            o.push_str(&format!("messages = {messages}\n"));
            o.push_str(&format!("bytes = {bytes}\n"));
        }
        Workload::Fanin {
            rounds,
            bytes,
            stagger_us,
            round_gap_us,
        } => {
            o.push_str(&format!("rounds = {rounds}\n"));
            o.push_str(&format!("bytes = {bytes}\n"));
            o.push_str(&format!("stagger_us = {stagger_us}\n"));
            o.push_str(&format!("round_gap_us = {round_gap_us}\n"));
        }
        Workload::Permutation {
            load,
            min_bytes,
            max_bytes,
            alpha,
            until_us,
        } => {
            o.push_str(&format!("load = {}\n", format_float(*load)));
            o.push_str(&format!("min_bytes = {min_bytes}\n"));
            o.push_str(&format!("max_bytes = {max_bytes}\n"));
            o.push_str(&format!("alpha = {}\n", format_float(*alpha)));
            o.push_str(&format!("until_us = {until_us}\n"));
        }
    }

    for f in &s.faults {
        o.push_str("\n[[fault]]\n");
        o.push_str(&format!("kind = {}\n", escape_basic(fault_kind_key(f))));
        match f {
            FaultSpec::CutBoth {
                link,
                from_us,
                to_us,
                mode,
            } => {
                o.push_str(&format!("link = {}\n", escape_basic(link)));
                o.push_str(&format!("from_us = {from_us}\n"));
                o.push_str(&format!("to_us = {to_us}\n"));
                o.push_str(&format!("mode = {}\n", escape_basic(fail_mode_key(*mode))));
            }
            FaultSpec::LinkDown { link, at_us, mode } => {
                o.push_str(&format!("link = {}\n", escape_basic(link)));
                o.push_str(&format!("at_us = {at_us}\n"));
                o.push_str(&format!("mode = {}\n", escape_basic(fail_mode_key(*mode))));
            }
            FaultSpec::LinkUp { link, at_us } => {
                o.push_str(&format!("link = {}\n", escape_basic(link)));
                o.push_str(&format!("at_us = {at_us}\n"));
            }
            FaultSpec::Degrade {
                link,
                at_us,
                rate_gbps,
                delay_us,
            } => {
                o.push_str(&format!("link = {}\n", escape_basic(link)));
                o.push_str(&format!("at_us = {at_us}\n"));
                o.push_str(&format!("rate_gbps = {rate_gbps}\n"));
                o.push_str(&format!("delay_us = {delay_us}\n"));
            }
            FaultSpec::CorruptRate {
                link,
                at_us,
                ppm,
                flips,
                seed_xor,
            } => {
                o.push_str(&format!("link = {}\n", escape_basic(link)));
                o.push_str(&format!("at_us = {at_us}\n"));
                o.push_str(&format!("ppm = {ppm}\n"));
                o.push_str(&format!("flips = {flips}\n"));
                o.push_str(&format!("seed_xor = {seed_xor}\n"));
            }
            FaultSpec::BitflipBurst {
                link,
                at_us,
                pkts,
                flips,
                seed_xor,
            } => {
                o.push_str(&format!("link = {}\n", escape_basic(link)));
                o.push_str(&format!("at_us = {at_us}\n"));
                o.push_str(&format!("pkts = {pkts}\n"));
                o.push_str(&format!("flips = {flips}\n"));
                o.push_str(&format!("seed_xor = {seed_xor}\n"));
            }
            FaultSpec::TruncateBurst {
                link,
                at_us,
                pkts,
                seed_xor,
            } => {
                o.push_str(&format!("link = {}\n", escape_basic(link)));
                o.push_str(&format!("at_us = {at_us}\n"));
                o.push_str(&format!("pkts = {pkts}\n"));
                o.push_str(&format!("seed_xor = {seed_xor}\n"));
            }
            FaultSpec::CrashRestart {
                node,
                from_us,
                to_us,
            } => {
                o.push_str(&format!("node = {}\n", escape_basic(node)));
                o.push_str(&format!("from_us = {from_us}\n"));
                o.push_str(&format!("to_us = {to_us}\n"));
            }
        }
    }

    o.push_str("\n[assert]\n");
    o.push_str(&format!("conservation = {}\n", s.asserts.conservation));
    if s.asserts.corruption_accounting {
        o.push_str("corruption_accounting = true\n");
    }
    if let Some((a, b)) = s.asserts.window_us {
        o.push_str(&format!("window_us = [{a}, {b}]\n"));
    }
    if s.asserts.warmup_bins != 0 {
        o.push_str(&format!("warmup_bins = {}\n", s.asserts.warmup_bins));
    }
    if let Some(v) = s.asserts.fct_below_bytes {
        o.push_str(&format!("fct_below_bytes = {v}\n"));
    }
    for (p, c) in &s.asserts.cells {
        o.push_str(&format!("\n[assert.cells.{}]\n", p.key()));
        if c.exactly_once {
            o.push_str("exactly_once = true\n");
        }
        if let Some(v) = c.completed {
            o.push_str(&format!("completed = {v}\n"));
        }
        if let Some(v) = c.completed_min {
            o.push_str(&format!("completed_min = {v}\n"));
        }
        if let Some(v) = c.during_window_min {
            o.push_str(&format!("during_window_min = {v}\n"));
        }
        if let Some(v) = c.during_window_max {
            o.push_str(&format!("during_window_max = {v}\n"));
        }
        if let Some(v) = c.p50_max_us {
            o.push_str(&format!("p50_max_us = {}\n", format_float(v)));
        }
        if let Some(v) = c.p99_max_us {
            o.push_str(&format!("p99_max_us = {}\n", format_float(v)));
        }
        if let Some(v) = c.timeouts_max {
            o.push_str(&format!("timeouts_max = {v}\n"));
        }
        if let Some(v) = c.goodput_mean_min_gbps {
            o.push_str(&format!("goodput_mean_min_gbps = {}\n", format_float(v)));
        }
        if let Some(v) = c.tenant_ratio_max {
            o.push_str(&format!("tenant_ratio_max = {}\n", format_float(v)));
        }
    }
    if !s.asserts.digests.is_empty() {
        o.push_str("\n[assert.digests]\n");
        for (k, v) in &s.asserts.digests {
            o.push_str(&format!("{} = {}\n", format_key(k), escape_basic(v)));
        }
    }
    o
}
