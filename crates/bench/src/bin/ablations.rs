//! Ablations for the design choices discussed in paper §4.
//!
//! 1. **Pathlet granularity** ("Pathlet ID Choice"): the Fig. 5 network
//!    run with per-path pathlets vs a single pathlet spanning both paths
//!    ("using a single pathlet mimics TCP"). One shared window re-converges
//!    on every flip; per-path windows resume instantly.
//! 2. **Header overhead** ("Packet Header Overheads"): bytes of MTP header
//!    per delivered payload byte as switches append more feedback entries
//!    (0, 1, or 2 stamping hops).
//! 3. **Blob vs message mode** (§3.1.2): a 10 MB transfer under packet
//!    spraying, sent as one message (atomicity violated → spurious NACK
//!    repair) vs as per-packet blob messages (reordering is harmless by
//!    construction).

use mtp_bench::topo::{mtp_pair, parallel_paths, ParallelSpec, PathSpec, SERVER_ADDR};
use mtp_bench::{write_json, ExperimentRecord};
use mtp_core::{MtpConfig, MtpSenderNode, MtpSinkNode, ScheduledMsg};
use mtp_net::{FanoutForwarder, Stamp, StampKind, StaticRoutes, Strategy, SwitchNode};
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_sim::PortId;
use mtp_wire::{EntityId, PathletId};
use serde::Serialize;

#[derive(Serialize)]
struct Ablations {
    granularity: GranularityOut,
    header_overhead: Vec<OverheadRow>,
    blob_vs_message: BlobOut,
    ndp_incast: NdpOut,
}

#[derive(Serialize)]
struct GranularityOut {
    per_path_mean_gbps: f64,
    single_pathlet_mean_gbps: f64,
}

/// Ablation 1: per-path pathlets vs one pathlet for the whole network.
fn granularity() -> GranularityOut {
    let fast = PathSpec::new(Bandwidth::from_gbps(100), Duration::from_micros(1));
    let slow = PathSpec::new(Bandwidth::from_gbps(10), Duration::from_micros(1));
    let horizon = Time::ZERO + Duration::from_millis(6);
    let warm = 1_000 / 32;

    let run = |single: bool| -> f64 {
        // Build manually so the stamps can be aliased to one pathlet.
        let mut sim = mtp_sim::Simulator::new(11);
        let snd = sim.add_node(Box::new(MtpSenderNode::new(
            MtpConfig::default(),
            1,
            SERVER_ADDR,
            EntityId(0),
            1 << 40,
            vec![ScheduledMsg::new(Time::ZERO, 200_000_000)],
        )));
        let sink = sim.add_node(Box::new(MtpSinkNode::new(
            SERVER_ADDR,
            Duration::from_micros(32),
        )));
        let p2 = if single { PathletId(1) } else { PathletId(2) };
        let sw1 = sim.add_node(Box::new(
            SwitchNode::new(
                "sw1",
                Box::new(FanoutForwarder::new(
                    StaticRoutes::new().add(1, PortId(0)),
                    vec![PortId(1), PortId(2)],
                    Strategy::Alternate {
                        period: Duration::from_micros(384),
                    },
                )),
            )
            .with_stamp(PortId(1), Stamp::new(PathletId(1), StampKind::Presence))
            .with_stamp(PortId(2), Stamp::new(p2, StampKind::Presence)),
        ));
        let sw2 = sim.add_node(Box::new(SwitchNode::new(
            "sw2",
            Box::new(FanoutForwarder::new(
                StaticRoutes::new().add(SERVER_ADDR, PortId(0)),
                vec![PortId(1), PortId(2)],
                Strategy::Fixed,
            )),
        )));
        let host = PathSpec::new(Bandwidth::from_gbps(100), Duration::from_micros(1));
        let mk = |p: PathSpec| mtp_sim::LinkCfg::ecn(p.rate, p.delay, p.cap_pkts, p.ecn_k);
        sim.connect(snd, PortId(0), sw1, PortId(0), mk(host), mk(host));
        sim.connect(sw1, PortId(1), sw2, PortId(1), mk(fast), mk(fast));
        sim.connect(sw1, PortId(2), sw2, PortId(2), mk(slow), mk(slow));
        sim.connect(sw2, PortId(0), sink, PortId(0), mk(host), mk(host));
        sim.run_until(horizon);
        mtp_sim::assert_conservation(&sim);
        let rates = sim.node_as::<MtpSinkNode>(sink).goodput.rates_gbps();
        let tail = &rates[warm.min(rates.len())..];
        tail.iter().sum::<f64>() / tail.len().max(1) as f64
    };

    GranularityOut {
        per_path_mean_gbps: run(false),
        single_pathlet_mean_gbps: run(true),
    }
}

#[derive(Serialize)]
struct OverheadRow {
    stamping_hops: usize,
    header_bytes_per_pkt: f64,
    overhead_pct_of_goodput: f64,
}

/// Ablation 2: header overhead as more hops append feedback.
fn header_overhead() -> Vec<OverheadRow> {
    let mut rows = Vec::new();
    for hops in [0usize, 1, 2] {
        let mut sim = mtp_sim::Simulator::new(13);
        let snd = sim.add_node(Box::new(MtpSenderNode::new(
            MtpConfig::default(),
            1,
            SERVER_ADDR,
            EntityId(0),
            1 << 40,
            vec![ScheduledMsg::new(Time::ZERO, 10_000_000)],
        )));
        let sink = sim.add_node(Box::new(MtpSinkNode::new(
            SERVER_ADDR,
            Duration::from_micros(100),
        )));
        // Chain of two switches; stamp the first `hops` of them. The second
        // stamp reports queue depth — a larger TLV — mimicking different
        // resource types en route.
        let mut sw_nodes = Vec::new();
        for i in 0..2 {
            let routes = StaticRoutes::new()
                .add(1, PortId(0))
                .add(SERVER_ADDR, PortId(1));
            let mut sw =
                SwitchNode::new(format!("sw{i}"), Box::new(mtp_net::StaticForwarder(routes)));
            if i < hops {
                let kind = if i == 0 {
                    StampKind::Presence
                } else {
                    StampKind::QueueDepth
                };
                sw = sw.with_stamp(PortId(1), Stamp::new(PathletId(i as u16 + 1), kind));
            }
            sw_nodes.push(sim.add_node(Box::new(sw)));
        }
        let p = PathSpec::new(Bandwidth::from_gbps(100), Duration::from_micros(1));
        let mk = || mtp_sim::LinkCfg::ecn(p.rate, p.delay, p.cap_pkts, p.ecn_k);
        sim.connect(snd, PortId(0), sw_nodes[0], PortId(0), mk(), mk());
        sim.connect(sw_nodes[0], PortId(1), sw_nodes[1], PortId(0), mk(), mk());
        let (to_sink, _) = sim.connect(sw_nodes[1], PortId(1), sink, PortId(0), mk(), mk());
        sim.run_until(Time::ZERO + Duration::from_millis(20));
        mtp_sim::assert_conservation(&sim);
        let goodput = sim.node_as::<MtpSinkNode>(sink).total_goodput();
        let stats = sim.link_stats(to_sink);
        let hdr_bytes = stats.tx_bytes.saturating_sub(goodput);
        rows.push(OverheadRow {
            stamping_hops: hops,
            header_bytes_per_pkt: hdr_bytes as f64 / stats.tx_pkts.max(1) as f64,
            overhead_pct_of_goodput: hdr_bytes as f64 / goodput.max(1) as f64 * 100.0,
        });
    }
    rows
}

#[derive(Serialize)]
struct BlobOut {
    message_mode_fct_us: f64,
    message_mode_retx: u64,
    blob_mode_fct_us: f64,
    blob_mode_retx: u64,
}

/// Ablation 3: 10 MB under packet spraying — one message vs per-packet
/// blob messages.
fn blob_vs_message() -> BlobOut {
    let a = PathSpec::new(Bandwidth::from_gbps(100), Duration::from_micros(1));
    let b = PathSpec::new(Bandwidth::from_gbps(100), Duration::from_micros(2));
    let total: u32 = 10_000_000;
    let run = |blob: bool| -> (f64, u64) {
        let schedule = if blob {
            // Blob mode (§3.1.2): every MTU chunk is an independent message.
            let mtu = 1460u32;
            let n = total.div_ceil(mtu);
            (0..n)
                .map(|i| {
                    let len = if i == n - 1 { total - i * mtu } else { mtu };
                    ScheduledMsg::new(Time::ZERO, len)
                })
                .collect()
        } else {
            vec![ScheduledMsg::new(Time::ZERO, total)]
        };
        let mut tp = parallel_paths(
            17,
            mtp_pair(
                MtpConfig::default(),
                schedule,
                Duration::from_micros(100),
                1,
            ),
            ParallelSpec {
                a,
                b,
                host: PathSpec::host_default(),
                forward: Strategy::Spray { next: 0 },
                reverse: Strategy::Fixed,
            },
        );
        tp.sim.run_until(Time::ZERO + Duration::from_millis(100));
        mtp_sim::assert_conservation(&tp.sim);
        let sender = tp.sim.node_as::<MtpSenderNode>(tp.sender);
        let fct = sender
            .msgs
            .iter()
            .filter_map(|m| m.completed)
            .max()
            .map(|t| t.as_micros_f64())
            .unwrap_or(f64::NAN);
        (fct, sender.sender.stats.retransmissions)
    };
    let (m_fct, m_retx) = run(false);
    let (b_fct, b_retx) = run(true);
    BlobOut {
        message_mode_fct_us: m_fct,
        message_mode_retx: m_retx,
        blob_mode_fct_us: b_fct,
        blob_mode_retx: b_retx,
    }
}

#[derive(Serialize)]
struct NdpOut {
    droptail_p99_us: f64,
    droptail_timeouts: u64,
    trimming_p99_us: f64,
    trimming_timeouts: u64,
}

/// Ablation 4: "implementing NDP in MTP is simple" (§4) — an incast of 16
/// senders into one 9-packet buffer, with plain drop-tail (losses repaired
/// by RTO/gap-NACK) vs an NDP trimming queue (headers survive, receivers
/// NACK instantly, control rides a priority band).
fn ndp_incast() -> NdpOut {
    use mtp_bench::topo::{dumbbell, dumbbell_dst, dumbbell_src, PathSpec};
    use mtp_core::MtpSinkNode;
    use mtp_workload::percentile;

    let n = 16;
    let run = |trimming: bool| -> (f64, u64) {
        let edge = PathSpec::new(Bandwidth::from_gbps(100), Duration::from_micros(1));
        let shared = PathSpec::new(Bandwidth::from_gbps(100), Duration::from_micros(1));
        let shared_queue: Option<Box<dyn mtp_sim::Qdisc>> = if trimming {
            Some(Box::new(mtp_sim::TrimmingQueue::new(9, 9, 256)))
        } else {
            Some(Box::new(mtp_sim::DropTailQueue::new(9)))
        };
        // All 16 senders fire a 64 KB message at t=0: classic incast.
        let mut bell = dumbbell(
            19,
            n,
            |i| {
                Box::new(MtpSenderNode::new(
                    MtpConfig::default(),
                    dumbbell_src(i),
                    dumbbell_dst(i),
                    mtp_wire::EntityId(i as u16),
                    (i as u64 + 1) << 40,
                    vec![ScheduledMsg::new(Time::ZERO, 64 * 1024)],
                ))
            },
            |i| {
                Box::new(MtpSinkNode::new(
                    dumbbell_dst(i),
                    Duration::from_micros(100),
                ))
            },
            edge,
            shared,
            None,
            shared_queue,
        );
        bell.sim.run_until(Time::ZERO + Duration::from_millis(50));
        mtp_sim::assert_conservation(&bell.sim);
        let mut fcts = Vec::new();
        let mut timeouts = 0;
        for &s in &bell.senders {
            let node = bell.sim.node_as::<MtpSenderNode>(s);
            timeouts += node.sender.stats.timeouts;
            if let Some(f) = node.msgs[0].fct() {
                fcts.push(f.as_micros_f64());
            }
        }
        assert_eq!(fcts.len(), n, "incast must complete either way");
        (percentile(&fcts, 99.0), timeouts)
    };
    let (droptail_p99_us, droptail_timeouts) = run(false);
    let (trimming_p99_us, trimming_timeouts) = run(true);
    NdpOut {
        droptail_p99_us,
        droptail_timeouts,
        trimming_p99_us,
        trimming_timeouts,
    }
}

fn main() {
    println!("Ablations (paper section 4 design discussion)\n");

    let g = granularity();
    println!("1. pathlet granularity (Fig. 5 network, mean goodput):");
    println!(
        "   per-path pathlets:         {:.2} Gbps",
        g.per_path_mean_gbps
    );
    println!(
        "   single pathlet (TCP-like): {:.2} Gbps",
        g.single_pathlet_mean_gbps
    );
    println!(
        "   -> separate windows buy {:.1}%\n",
        (g.per_path_mean_gbps / g.single_pathlet_mean_gbps - 1.0) * 100.0
    );

    let oh = header_overhead();
    println!("2. header overhead vs feedback hops:");
    println!(
        "   {:>6} {:>20} {:>14}",
        "hops", "hdr bytes/pkt", "% of goodput"
    );
    for r in &oh {
        println!(
            "   {:>6} {:>20.1} {:>14.2}",
            r.stamping_hops, r.header_bytes_per_pkt, r.overhead_pct_of_goodput
        );
    }
    println!("   -> each feedback entry costs its TLV size per packet (paper: feedback");
    println!("      can be aggregated to contain this)\n");

    let bl = blob_vs_message();
    println!("3. blob vs message mode under packet spraying (10 MB):");
    println!(
        "   one message:       fct {:.1} us, {} spurious retransmissions",
        bl.message_mode_fct_us, bl.message_mode_retx
    );
    println!(
        "   per-packet blob:   fct {:.1} us, {} retransmissions",
        bl.blob_mode_fct_us, bl.blob_mode_retx
    );
    println!("   -> blob mode makes spraying safe: reordering across messages is free\n");

    let ndp = ndp_incast();
    println!("4. NDP via MTP (16-way incast into a 9-packet buffer):");
    println!(
        "   drop-tail:  p99 fct {:.1} us, {} RTO events",
        ndp.droptail_p99_us, ndp.droptail_timeouts
    );
    println!(
        "   trimming:   p99 fct {:.1} us, {} RTO events",
        ndp.trimming_p99_us, ndp.trimming_timeouts
    );
    println!("   -> trimmed headers turn every loss into an instant NACK: repair");
    println!("      without waiting for timeouts (the paper's NDP sketch)");

    let path = write_json(&ExperimentRecord {
        id: "ablations",
        paper_claim: "section 4: pathlet granularity is a tunable trade-off; header overhead \
                      grows with feedback; blob mode tolerates reordering",
        data: Ablations {
            granularity: g,
            header_overhead: oh,
            blob_vs_message: bl,
            ndp_incast: ndp,
        },
    });
    println!("\nwrote {}", path.display());
}
