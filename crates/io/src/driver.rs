//! The wire driver: golden workloads over the session transport.
//!
//! Earlier revisions carried bespoke event loops (`WireSender` /
//! `WireReceiver`) that bootstrapped from out-of-band port maps and shut
//! down by a side-channel `AtomicBool`. Both jobs now belong to the
//! session layer ([`crate::session`]): the listener hands out its port
//! map in the HELLO-ACK, and FIN/FIN-ACK says when serving is over. What
//! remains here is the workload harness — [`run_wire_golden`] replays a
//! sim golden workload over real loopback sockets through
//! [`SenderSession`]/[`Listener`] and assembles the same [`Ledger`]
//! shape the simulator produces, so the exactly-once assertion is
//! literally the same code in both worlds.
//!
//! No async runtime — each side is a plain poll loop on its own thread:
//!
//! 1. submit any workload messages that have come due (as real owned
//!    byte buffers — the caller-supplies-bytes path, with backpressure),
//! 2. drain every socket nonblockingly and hand frames to the core,
//! 3. fire the core's timer if its `poll_at()` deadline has passed,
//! 4. block in `poll(2)` until readable or the next deadline.

use std::io;
use std::time::Instant;

use mtp_faults::Ledger;
use mtp_sim::time::{Duration as SimDuration, Time};
use mtp_telemetry::Registry;
use mtp_wire::MsgId;

use crate::frame::DEFAULT_DATAGRAM_BUDGET;
use crate::golden::{GoldenWorkload, GOLDEN_MSG_ID_BASE};
use crate::payload;
use crate::relay::ChaosConfig;
use crate::session::{Listener, SenderSession, SessionConfig, SessionError};
use mtp_core::MtpConfig;

/// Sender and receiver app-port addresses (the MTP header's ports, not
/// UDP ports — UDP ports are ephemeral and per-pathlet).
const SENDER_ADDR: u16 = 1;
const RECEIVER_ADDR: u16 = 2;

/// Configuration shared by both wire endpoints.
#[derive(Debug, Clone)]
pub struct IoConfig {
    /// Sockets (= pathlets = loopback port pairs) per endpoint.
    pub pathlets: usize,
    /// Per-datagram coalescing budget in bytes.
    pub datagram_budget: usize,
    /// Endpoint-core configuration.
    pub mtp: MtpConfig,
    /// Receiver SACK redundancy (`MtpReceiver::with_sack_redundancy`).
    pub sack_redundancy: usize,
    /// Receiver completed-record linger before GC.
    pub gc_linger: SimDuration,
}

impl Default for IoConfig {
    fn default() -> IoConfig {
        // The sim's min_rto default (200µs) is tuned to modeled 2µs
        // links. On a real kernel a preempted thread easily stalls past
        // that, and a spurious RTO storm follows; 3ms rides out
        // scheduler noise while still repairing genuine loss quickly.
        // Correctness is content-based, so timing tuning cannot affect
        // the digests.
        let mtp = MtpConfig {
            min_rto: SimDuration::from_micros(3_000),
            ..MtpConfig::default()
        };
        IoConfig {
            pathlets: 4,
            datagram_budget: DEFAULT_DATAGRAM_BUDGET,
            mtp,
            sack_redundancy: 8,
            gc_linger: SimDuration::from_micros(100_000),
        }
    }
}

/// The [`SessionConfig`] the golden harness runs under: the shared
/// `IoConfig` plus the workspace's canonical app ports and message-id
/// base. The soak harness derives its chaos configs from this too.
pub fn golden_session_config(cfg: &IoConfig) -> SessionConfig {
    SessionConfig {
        io: cfg.clone(),
        client_port: SENDER_ADDR,
        server_port: RECEIVER_ADDR,
        msg_id_base: GOLDEN_MSG_ID_BASE,
        ..SessionConfig::default()
    }
}

/// Flatten a session-layer error into the `io::Result` these harness
/// entry points promise.
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

// ---------------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------------

/// What the receiving side ended a run with.
#[derive(Debug, Clone)]
pub struct WireRxOutcome {
    /// `(msg_id, bytes)` per delivery event, sorted by id.
    pub delivered: Vec<(u64, u32)>,
    /// `(msg_id, bytes, digest)` per delivery, digest computed from the
    /// actually reassembled bytes.
    pub digests: Vec<(u64, u32, u64)>,
    /// First-copy payload bytes delivered.
    pub goodput: u64,
    /// Telemetry counters recorded by the listener.
    pub registry: Registry,
}

impl WireRxOutcome {
    /// Combined content digest of everything delivered.
    pub fn content_digest(&self) -> u64 {
        payload::content_digest(&self.digests)
    }
}

/// What the sending side ended a run with.
#[derive(Debug, Clone)]
pub struct WireTxOutcome {
    /// `(bytes, completed_ps)` per schedule entry that finished.
    pub completed: Vec<(u32, u64)>,
    /// Schedule entries that never completed.
    pub unfinished: usize,
    /// Retransmissions the core sent (diagnostics).
    pub retransmissions: u64,
    /// Telemetry counters recorded by the sender session.
    pub registry: Registry,
}

/// Both ends of a wire run, assembled into the same [`Ledger`] shape the
/// simulator produces — so the exactly-once assertion is literally the
/// same code in both worlds.
#[derive(Debug, Clone)]
pub struct WireOutcome {
    /// The exactly-once ledger.
    pub ledger: Ledger,
    /// Combined content digest of everything delivered.
    pub content_digest: u64,
    /// Sender-side outcome.
    pub tx: WireTxOutcome,
    /// Receiver-side outcome.
    pub rx: WireRxOutcome,
    /// Relay fault statistics, when a relay was interposed.
    pub relay: Option<crate::relay::RelayStats>,
}

impl WireOutcome {
    /// Assemble the two halves.
    pub fn assemble(tx: WireTxOutcome, rx: WireRxOutcome) -> WireOutcome {
        let ledger = Ledger {
            delivered: rx.delivered.clone(),
            completed: tx.completed.clone(),
            unfinished: tx.unfinished,
            goodput: rx.goodput,
        };
        let content_digest = rx.content_digest();
        WireOutcome {
            ledger,
            content_digest,
            tx,
            rx,
            relay: None,
        }
    }
}

// ---------------------------------------------------------------------------
// The golden harness
// ---------------------------------------------------------------------------

/// Submit `workload` on its schedule through an established session and
/// poll until every message completes (or the wall deadline, an error).
/// Each message is submitted as a real caller-owned byte buffer whose
/// content matches the deterministic synth corpus, so digests stay
/// comparable with the simulator reference.
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
        // 1. Submissions that have come due — or backpressure, in which
        //    case drain completions first and come back.
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
        // 2+3. Drain sockets, fire timers, police liveness.
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
        // 4. Sleep until readable or the next deadline. Under
        //    backpressure the next schedule slot is already due but
        //    cannot be admitted, so do not spin on it.
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
/// listener, optionally interpose a
/// [`LossyRelay`](crate::relay::LossyRelay) (with a NAT'ing control
/// lane), connect a session, replay the schedule, close gracefully, and
/// assemble the combined outcome. `wall_budget` bounds the whole run.
pub fn run_wire_golden(
    cfg: &IoConfig,
    workload: &GoldenWorkload,
    relay: Option<crate::relay::RelayConfig>,
    wall_budget: std::time::Duration,
) -> io::Result<WireOutcome> {
    let deadline = Instant::now() + wall_budget;
    let scfg = golden_session_config(cfg);
    let mut listener = Listener::bind(&scfg)?;
    let ctrl_dst = listener.hello_addr()?;
    let relay = match relay {
        Some(rcfg) => Some(crate::relay::LossyRelay::start_session(
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
        .spawn(move || {
            let res = listener.run_until_closed(deadline);
            (listener, res)
        })?;
    let tx_res = SenderSession::connect(&scfg, server)
        .and_then(|mut sess| {
            let records = run_schedule(&mut sess, workload, deadline).map_err(SessionError::Io)?;
            sess.close(deadline)?;
            Ok((sess, records))
        })
        .map_err(sess_io);
    let (listener, rx_res) = rx_thread
        .join()
        .map_err(|_| io::Error::other("wire listener thread panicked"))?;
    let relay_stats = relay.map(crate::relay::LossyRelay::stop);
    let (sess, records) = tx_res?;
    let report = rx_res.map_err(sess_io)?;
    let tx = WireTxOutcome {
        completed: records
            .iter()
            .filter_map(|&(b, c)| c.map(|at| (b, at)))
            .collect(),
        unfinished: records.iter().filter(|r| r.1.is_none()).count(),
        retransmissions: sess.core().stats.retransmissions,
        registry: sess.registry().clone(),
    };
    let rx = WireRxOutcome {
        delivered: report.delivered.clone(),
        digests: report.digests.clone(),
        goodput: report.goodput,
        registry: listener.registry().clone(),
    };
    let mut out = WireOutcome::assemble(tx, rx);
    out.relay = relay_stats;
    Ok(out)
}
