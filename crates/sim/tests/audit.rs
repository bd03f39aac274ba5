//! Conservation-audit coverage at the engine level: the laws hold across
//! clean runs, overload, trimming, faults, and corruption; a deliberately
//! tampered counter is caught.

use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_sim::{
    Ctx, Headers, LinkCfg, LinkFailMode, Metric, Node, Packet, PortId, Simulator, TrimmingQueue,
};

/// Sends `n` packets of `size` bytes at start.
struct Blaster {
    n: u32,
    size: u32,
}
impl Node for Blaster {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.n {
            ctx.send(PortId(0), Packet::new(Headers::Raw, self.size));
        }
    }
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
}

/// Sends `n` MTP data packets (trimmable / corruptible) at start.
struct MtpBlaster {
    n: u32,
    size: u32,
}
impl Node for MtpBlaster {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.n {
            let hdr = Box::new(mtp_wire::MtpHeader::default());
            ctx.send(PortId(0), Packet::new(Headers::Mtp(hdr), self.size));
        }
    }
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
}

#[derive(Default)]
struct Sink {
    got: usize,
}
impl Node for Sink {
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {
        self.got += 1;
    }
}

fn pair(n: u32, size: u32, cap: usize) -> Simulator {
    let mut sim = Simulator::new(7);
    let a = sim.add_node(Box::new(Blaster { n, size }));
    let b = sim.add_node(Box::new(Sink::default()));
    sim.connect_symmetric(
        a,
        PortId(0),
        b,
        PortId(0),
        Bandwidth::from_gbps(10),
        Duration::from_micros(1),
        cap,
    );
    sim
}

#[test]
fn clean_run_conserves() {
    let mut sim = pair(50, 1500, 64);
    sim.run();
    let report = sim.audit();
    assert!(report.ok(), "{report}");
    assert!(report.laws_checked >= 4);
}

#[test]
fn overload_with_drops_conserves() {
    let mut sim = pair(200, 1500, 4);
    sim.run();
    sim.audit().assert_ok();
    assert!(sim.link_stats(mtp_sim::DirLinkId(0)).dropped_pkts > 0);
}

#[test]
fn mid_run_audit_with_packets_in_flight_conserves() {
    let mut sim = pair(100, 1500, 64);
    // Stop while packets are queued, serializing, and propagating.
    sim.run_until(Time::ZERO + Duration::from_micros(3));
    sim.audit().assert_ok();
    sim.run();
    sim.audit().assert_ok();
}

#[test]
fn trimming_conserves_bytes() {
    let mut sim = Simulator::new(7);
    let a = sim.add_node(Box::new(MtpBlaster { n: 40, size: 1500 }));
    let b = sim.add_node(Box::new(Sink::default()));
    // Tiny data band: most packets are trimmed into the control band.
    sim.connect(
        a,
        PortId(0),
        b,
        PortId(0),
        LinkCfg {
            rate: Bandwidth::from_gbps(10),
            delay: Duration::from_micros(1),
            queue: Box::new(TrimmingQueue::new(2, 1, 8)),
        },
        LinkCfg::drop_tail(Bandwidth::from_gbps(10), Duration::from_micros(1), 16),
    );
    sim.run();
    let st = *sim.link_stats(mtp_sim::DirLinkId(0));
    assert!(st.trimmed_pkts > 0, "scenario must actually trim");
    assert!(st.trim_loss_bytes > 0);
    sim.audit().assert_ok();
}

#[test]
fn faults_and_corruption_conserve() {
    let mut sim = Simulator::new(7);
    let a = sim.add_node(Box::new(MtpBlaster { n: 60, size: 300 }));
    let b = sim.add_node(Box::new(Sink::default()));
    let (ab, _ba) = sim.connect_symmetric(
        a,
        PortId(0),
        b,
        PortId(0),
        Bandwidth::from_gbps(1),
        Duration::from_micros(5),
        64,
    );
    sim.bitflip_burst(ab, 3, 1, 11);
    sim.truncate_burst(ab, 3, 12);
    sim.run_until(Time::ZERO + Duration::from_micros(20));
    sim.fail_link(ab, LinkFailMode::Blackhole);
    sim.run_until(Time::ZERO + Duration::from_micros(40));
    sim.restore_link(ab);
    sim.run_until(Time::ZERO + Duration::from_micros(60));
    sim.crash_node(b);
    sim.run_until(Time::ZERO + Duration::from_micros(80));
    sim.restart_node(b);
    sim.run();
    sim.audit().assert_ok();
    assert!(sim.telemetry().get(Metric::FaultsApplied) >= 6);
}

#[test]
fn tampered_counter_is_caught() {
    let mut sim = pair(20, 1500, 64);
    sim.run();
    sim.audit().assert_ok();
    // A device "forgot" one increment (simulated by adding a phantom one):
    // the registry mirror now disagrees with the engine's own sum.
    sim.telemetry_mut().count(Metric::PktsOffered, 1);
    let report = sim.audit();
    assert!(!report.ok(), "mutation must be caught");
    assert!(
        report.violations.iter().any(|v| v.contains("pkts_offered")),
        "violation names the broken counter: {report}"
    );
}

#[test]
fn snapshot_replays_identically_at_same_seed() {
    let run = || {
        let mut sim = pair(120, 900, 8);
        sim.run();
        sim.snapshot()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.digest(), b.digest(), "diff:\n{}", a.diff(&b));
}

#[test]
fn audit_message_ledger_reconciles_ctx_mirrors() {
    // A node that keeps local counters and mirrors them through Ctx, plus
    // an override of audit_counters: the audit's node-ledger law must hold,
    // and must fail if the mirror is out of sync.
    struct Ledgered {
        malformed: u64,
    }
    impl Node for Ledgered {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
            self.malformed += 1;
            ctx.trace_malformed(&pkt, port);
        }
        fn audit_counters(&self, out: &mut mtp_sim::NodeAuditCounters) {
            out.malformed += self.malformed;
        }
    }
    let mut sim = Simulator::new(3);
    let a = sim.add_node(Box::new(Blaster { n: 6, size: 400 }));
    let b = sim.add_node(Box::new(Ledgered { malformed: 0 }));
    sim.connect_symmetric(
        a,
        PortId(0),
        b,
        PortId(0),
        Bandwidth::from_gbps(10),
        Duration::from_micros(1),
        64,
    );
    sim.run();
    sim.audit().assert_ok();
    assert_eq!(sim.telemetry().get(Metric::PktsMalformed), 6);
    // Desync the mirror: the ledger law must notice.
    sim.telemetry_mut().count(Metric::PktsMalformed, 1);
    assert!(!sim.audit().ok());
}
