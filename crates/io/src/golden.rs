//! The golden workload and its two runs: the simulator reference and the
//! wire replay.
//!
//! Interop proof structure: generate one seeded workload, run it through
//! the discrete-event simulator (virtual time, modeled links), then run
//! the *same* workload over real kernel sockets through
//! [`SenderSession`]/[`Listener`], and demand that the delivered
//! *content* is byte-identical — same message ids, same lengths, same
//! per-message payload digests (as [`crate::payload`] defines content),
//! and an exactly-once [`Ledger`] on both sides, checked by literally the
//! same code. Timings legitimately differ between the two worlds;
//! content may not.
//!
//! Message ids make this comparison possible: both worlds submit the
//! workload's messages in schedule order to a core constructed with the
//! same `msg_id_base`, and the sender allocates ids monotonically, so
//! message *k* gets the same id in both runs.

use std::io;
use std::time::Instant;

use mtp_core::{MtpConfig, MtpSenderNode, MtpSinkNode, ScheduledMsg};
use mtp_faults::Ledger;
use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_sim::{LinkCfg, PortId, Simulator};
use mtp_wire::{EntityId, MsgId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::payload;
use crate::relay::{ChaosConfig, LossyRelay, RelayConfig, RelayStats};
use crate::session::{IoConfig, Listener, SenderSession, SessionConfig, SessionError};

/// The `msg_id_base` both worlds construct their sender with.
pub const GOLDEN_MSG_ID_BASE: u64 = 7 << 32;

/// One seeded message workload, identical across worlds.
#[derive(Debug, Clone)]
pub struct GoldenWorkload {
    /// The seed that produced it (recorded for diagnostics).
    pub seed: u64,
    /// `(submit_offset, bytes)` per message, in submission order.
    pub msgs: Vec<(Duration, u32)>,
}

impl GoldenWorkload {
    /// Generate `n` messages of `min..=max` bytes, submissions staggered
    /// a few microseconds apart so the sim schedule is deterministic.
    pub fn generate(seed: u64, n: usize, min: u32, max: u32) -> GoldenWorkload {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut at = Duration(0);
        let msgs = (0..n)
            .map(|_| {
                let bytes = rng.gen_range(min..=max);
                let this = at;
                at += Duration::from_micros(rng.gen_range(1..=20));
                (this, bytes)
            })
            .collect();
        GoldenWorkload { seed, msgs }
    }

    /// The schedule as sim host submissions starting at `Time::ZERO`.
    pub fn schedule(&self) -> Vec<ScheduledMsg> {
        self.msgs
            .iter()
            .map(|&(off, bytes)| ScheduledMsg::new(Time::ZERO + off, bytes))
            .collect()
    }

    /// Total payload bytes across the workload.
    pub fn total_bytes(&self) -> u64 {
        self.msgs.iter().map(|&(_, b)| b as u64).sum()
    }

    /// The content digest a correct run must reproduce: every message
    /// delivered exactly once with [`crate::payload::fill`] content.
    pub fn expected_digest(&self) -> u64 {
        payload::synth_content_digest((GOLDEN_MSG_ID_BASE..).zip(self.msgs.iter().map(|m| m.1)))
    }
}

/// What the simulator reference run produced.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Exactly-once ledger (already asserted).
    pub ledger: Ledger,
    /// Combined content digest of everything delivered.
    pub content_digest: u64,
}

/// Run `workload` through the simulator on a clean 10 Gbps / 2 µs
/// loopback-like link pair and return its ledger and content digest.
///
/// The sim never materializes payload bytes, so its digest is
/// *synthesized* from the delivered `(id, bytes)` pairs — which is the
/// point: if the wire run reassembles different bytes for any message,
/// its digest (computed from real buffers) will disagree.
pub fn run_sim_golden(workload: &GoldenWorkload) -> SimOutcome {
    let rate = Bandwidth::from_gbps(10);
    let d = Duration::from_micros(2);
    let mut sim = Simulator::new(workload.seed);
    let snd = sim.add_node(Box::new(MtpSenderNode::new(
        MtpConfig::default(),
        1,
        2,
        EntityId(0),
        GOLDEN_MSG_ID_BASE,
        workload.schedule(),
    )));
    let sink = sim.add_node(Box::new(
        MtpSinkNode::new(2, Duration::from_micros(100)).with_sack_redundancy(8),
    ));
    sim.connect(
        snd,
        PortId(0),
        sink,
        PortId(0),
        LinkCfg::drop_tail(rate, d, 1024),
        LinkCfg::drop_tail(rate, d, 1024),
    );
    let horizon = Time::ZERO + Duration::from_millis(500);
    sim.run_until(horizon);
    assert!(
        sim.node_as::<MtpSenderNode>(snd).all_done(),
        "golden sim run failed to complete within its horizon"
    );
    mtp_sim::assert_conservation(&sim);

    let ledger = Ledger::capture([sim.node_as(snd)], sim.node_as(sink));
    ledger.assert_exactly_once("golden sim run");
    let content_digest = payload::synth_content_digest(ledger.delivered.iter().copied());
    SimOutcome {
        ledger,
        content_digest,
    }
}

/// The [`SessionConfig`] the golden harness runs under: the shared
/// `IoConfig` and the golden message-id base. The soak harness derives
/// its chaos configs from this too.
pub fn golden_session_config(cfg: &IoConfig) -> SessionConfig {
    SessionConfig {
        io: cfg.clone(),
        msg_id_base: GOLDEN_MSG_ID_BASE,
        ..SessionConfig::default()
    }
}

/// What a wire run of the golden workload ended with.
#[derive(Debug, Clone)]
pub struct WireOutcome {
    /// The exactly-once ledger, in the simulator's shape.
    pub ledger: Ledger,
    /// Combined content digest of everything delivered.
    pub content_digest: u64,
    /// Retransmissions the sender core sent (diagnostics).
    pub retransmissions: u64,
    /// Relay fault statistics, when a relay was interposed.
    pub relay: Option<RelayStats>,
}

/// Flatten a session-layer error into the `io::Result` the harness
/// promises.
fn sess_io(e: SessionError) -> io::Error {
    match e {
        SessionError::Io(e) => e,
        SessionError::HandshakeTimeout { .. }
        | SessionError::CloseTimeout { .. }
        | SessionError::PeerDead { .. }
        | SessionError::WallDeadline { .. } => {
            io::Error::new(io::ErrorKind::TimedOut, e.to_string())
        }
        other => io::Error::other(other.to_string()),
    }
}

/// Submit `workload` on its schedule through an established session and
/// poll until every message completes (or the wall deadline, an error):
/// due submissions, then a turn, then a wait until readable or the next
/// submission is due. Each message is submitted as a real caller-owned
/// byte buffer whose content matches the deterministic synth corpus, so
/// digests stay comparable with the simulator reference. Returns
/// `(bytes, completed_at)` per message.
fn run_schedule(
    sess: &mut SenderSession,
    workload: &GoldenWorkload,
    deadline: Instant,
) -> io::Result<Vec<(u32, Option<u64>)>> {
    let mut records: Vec<(u32, Option<u64>)> =
        workload.msgs.iter().map(|&(_, b)| (b, None)).collect();
    let mut index: Vec<(u64, usize)> = Vec::new();
    let mut next_sub = 0usize;
    let mut consumed = 0usize;
    loop {
        // Submissions that have come due — or backpressure, in which case
        // drain completions first and come back.
        let now = sess.now();
        let mut blocked = false;
        while next_sub < workload.msgs.len() && Time::ZERO + workload.msgs[next_sub].0 <= now {
            let (_, bytes) = workload.msgs[next_sub];
            let id = sess.next_msg_id();
            let mut buf = vec![0u8; bytes as usize];
            payload::fill(MsgId(id), 0, &mut buf);
            match sess.try_send(buf) {
                Ok(got) => {
                    debug_assert_eq!(got.0, id, "session ids are sequential");
                    index.push((got.0, next_sub));
                    next_sub += 1;
                }
                Err(SessionError::Backpressure { .. }) => {
                    blocked = true;
                    break;
                }
                Err(e) => return Err(sess_io(e)),
            }
        }
        sess.poll().map_err(sess_io)?;
        for &(mid, at) in &sess.completions()[consumed..] {
            if let Ok(k) = index.binary_search_by_key(&mid, |&(m, _)| m) {
                records[index[k].1].1 = Some(at.0);
            }
        }
        consumed = sess.completions().len();
        if next_sub == records.len() && records.iter().all(|r| r.1.is_some()) {
            return Ok(records);
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "wire sender: {}/{} messages before deadline",
                    records.iter().filter(|r| r.1.is_some()).count(),
                    records.len()
                ),
            ));
        }
        // Under backpressure the next schedule slot is already due but
        // cannot be admitted, so do not spin on it.
        let mut wake = std::time::Duration::from_millis(5);
        if !blocked && next_sub < workload.msgs.len() {
            let due = Time::ZERO + workload.msgs[next_sub].0;
            let now = sess.now();
            if due > now {
                wake = wake.min(std::time::Duration::from_nanos((due.0 - now.0) / 1_000));
            }
        }
        if wake.is_zero() {
            continue;
        }
        sess.wait(wake).map_err(sess_io)?;
    }
}

/// Run `workload` over real loopback sockets end to end: bind a
/// listener (serving on a thread of its own), optionally interpose a
/// [`LossyRelay`] (with a NAT'ing control lane), connect a session,
/// replay the schedule, close gracefully, and assemble the ledger.
/// `wall_budget` bounds the whole run.
pub fn run_wire_golden(
    cfg: &IoConfig,
    workload: &GoldenWorkload,
    relay: Option<RelayConfig>,
    wall_budget: std::time::Duration,
) -> io::Result<WireOutcome> {
    let deadline = Instant::now() + wall_budget;
    let scfg = golden_session_config(cfg);
    let mut listener = Listener::bind(&scfg)?;
    let ctrl_dst = listener.hello_addr()?;
    let relay = match relay {
        Some(rcfg) => Some(LossyRelay::start_session(
            rcfg,
            ChaosConfig::default(),
            ctrl_dst,
            listener.pathlet_addrs(),
        )?),
        None => None,
    };
    let server = match &relay {
        Some(r) => r.ctrl_addr().expect("session relay has a ctrl lane"),
        None => ctrl_dst,
    };
    let rx_thread = std::thread::Builder::new()
        .name("mtp-io-rx".into())
        .spawn(move || listener.run_until_closed(deadline))?;
    let tx_res = SenderSession::connect(&scfg, server)
        .and_then(|mut sess| {
            let records = run_schedule(&mut sess, workload, deadline).map_err(SessionError::Io)?;
            sess.close(deadline)?;
            Ok((sess.core().stats.retransmissions, records))
        })
        .map_err(sess_io);
    let rx_res = rx_thread
        .join()
        .map_err(|_| io::Error::other("wire listener thread panicked"))?;
    let relay = relay.map(LossyRelay::stop);
    let (retransmissions, records) = tx_res?;
    let report = rx_res.map_err(sess_io)?;
    let completed: Vec<(u32, u64)> = records
        .iter()
        .filter_map(|&(b, c)| c.map(|at| (b, at)))
        .collect();
    Ok(WireOutcome {
        content_digest: payload::content_digest(&report.digests),
        ledger: Ledger {
            delivered: report.delivered,
            unfinished: records.len() - completed.len(),
            completed,
            goodput: report.goodput,
        },
        retransmissions,
        relay,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_generation_is_deterministic() {
        let a = GoldenWorkload::generate(11, 20, 100, 50_000);
        let b = GoldenWorkload::generate(11, 20, 100, 50_000);
        assert_eq!(a.msgs, b.msgs);
        let c = GoldenWorkload::generate(12, 20, 100, 50_000);
        assert_ne!(a.msgs, c.msgs);
    }

    #[test]
    fn sim_golden_reproduces_expected_digest() {
        let w = GoldenWorkload::generate(3, 12, 64, 20_000);
        let out = run_sim_golden(&w);
        assert_eq!(out.ledger.delivered.len(), 12);
        // The sim delivered every message exactly once, so its digest is
        // exactly the workload's closed-form expectation.
        assert_eq!(out.content_digest, w.expected_digest());
    }
}
