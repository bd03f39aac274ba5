//! The seeded chaos soak: session lifecycle under adversarial faults.
//!
//! Four scenarios, each run under multiple seeds, each required to end
//! in one of exactly two buckets — **exactly-once delivery** (every
//! submitted message delivered once, content verified against the
//! deterministic corpus) or a **typed session failure**
//! ([`SessionError`]). A hang, a busy-loop, a leaked session, or
//! reassembly memory above its cap is a bug the soak exists to catch:
//!
//! * [`ChaosScenario::HandshakeLoss`] — the relay swallows the first
//!   HELLOs (retries must establish), then a dead-drop control lane
//!   (the handshake must fail with its typed timeout, promptly).
//! * [`ChaosScenario::FinLoss`] — heavy loss and duplication on the
//!   control lane while data also suffers: FIN retries and duplicate
//!   FIN re-acks must converge, or time out typed; the listener reaps
//!   the session either way (FIN + linger, or idle death).
//! * [`ChaosScenario::BlackholeFlap`] — one pathlet lane alternates
//!   alive/dead on a period while all lanes drop datagrams; repair
//!   rounds must rotate traffic off the dead phases and deliver.
//! * [`ChaosScenario::PeerKillRestart`] — the listener is killed (and
//!   its sockets closed) mid-transfer: the sender must declare peer
//!   death with the pending ids, and a fresh listener must rebind the
//!   same control port (proof nothing leaked) and serve a new session.
//!
//! [`run_soak_suite`] drives the full matrix and returns machine-shaped
//! [`SoakRun`] records; `bin/chaos_soak.rs` writes them to
//! `results/BENCH_chaos.json`.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mtp_sim::time::Duration as SimDuration;
use mtp_wire::MsgId;
use serde::Serialize;

use crate::golden::golden_session_config;
use crate::payload;
use crate::relay::{ChaosConfig, LossyRelay, RelayConfig, RelayStats};
use crate::session::{
    IoConfig, Listener, SenderSession, SessionConfig, SessionError, SessionReport,
};

/// A chaos scenario the soak can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosScenario {
    /// Lost and delayed HELLOs; then a dead control lane.
    HandshakeLoss,
    /// Lost and duplicated FINs (plus lossy data).
    FinLoss,
    /// A pathlet lane that flaps dead/alive mid-transfer.
    BlackholeFlap,
    /// The listener dies mid-transfer and restarts at the same port.
    PeerKillRestart,
}

impl ChaosScenario {
    /// Every scenario, in suite order.
    pub const ALL: [ChaosScenario; 4] = [
        ChaosScenario::HandshakeLoss,
        ChaosScenario::FinLoss,
        ChaosScenario::BlackholeFlap,
        ChaosScenario::PeerKillRestart,
    ];

    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ChaosScenario::HandshakeLoss => "handshake_loss",
            ChaosScenario::FinLoss => "fin_loss",
            ChaosScenario::BlackholeFlap => "blackhole_flap",
            ChaosScenario::PeerKillRestart => "peer_kill_restart",
        }
    }
}

/// One scenario × seed execution, machine-shaped for
/// `results/BENCH_chaos.json`.
#[derive(Debug, Clone, Serialize)]
pub struct SoakRun {
    /// Scenario name.
    pub scenario: &'static str,
    /// The seed that drove every random decision in the run.
    pub seed: u64,
    /// Terminal bucket: `"exactly_once"` or a typed
    /// [`SessionError::kind`] label.
    pub outcome: String,
    /// Whether this terminal state is one the scenario allows.
    pub pass: bool,
    /// Messages delivered exactly once with verified content.
    pub delivered: usize,
    /// Messages the sender submitted.
    pub submitted: usize,
    /// HELLO rounds the (first successful) handshake took.
    pub handshake_rounds: u32,
    /// FIN rounds the close took (0 if close never ran).
    pub close_rounds: u32,
    /// Retransmissions the sender core issued.
    pub retransmissions: u64,
    /// Peak reassembly bytes the listener held (must stay under cap).
    pub peak_reasm_bytes: u64,
    /// The reassembly cap in force.
    pub reasm_cap: u64,
    /// Sessions still held by the listener at the end (must be 0).
    pub sessions_leaked: usize,
    /// Relay data-lane datagrams forwarded (both directions).
    pub relay_forwarded: u64,
    /// Data lanes that carried at least one sender→receiver datagram.
    pub relay_lanes_with_traffic: usize,
    /// Relay datagram drops (data lanes).
    pub relay_dropped: u64,
    /// Relay data-lane duplicates.
    pub relay_duplicated: u64,
    /// Relay data-lane reorders.
    pub relay_reordered: u64,
    /// Relay blackholed/flapped datagrams.
    pub relay_blackholed: u64,
    /// Relay control-lane drops.
    pub relay_ctrl_dropped: u64,
    /// Relay control-lane duplicates.
    pub relay_ctrl_duplicated: u64,
    /// HELLO-ACK port maps the relay NAT-rewrote.
    pub relay_acks_rewritten: u64,
    /// Wall-clock milliseconds the run took.
    pub wall_ms: f64,
}

/// The whole suite's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct SoakOutcome {
    /// Every scenario × seed run.
    pub runs: Vec<SoakRun>,
    /// True iff every run passed.
    pub pass: bool,
}

/// The soak's session timers: compressed so peer death, linger expiry,
/// and handshake exhaustion all land within a second of wall clock.
fn soak_session_config(cfg: &IoConfig, seed: u64) -> SessionConfig {
    let mut scfg = golden_session_config(cfg);
    scfg.seed = seed;
    scfg.handshake_rto = SimDuration::from_micros(5_000);
    scfg.handshake_rto_max = SimDuration::from_micros(40_000);
    scfg.keepalive_interval = SimDuration::from_micros(20_000);
    // Idle timeout = 20 keepalive intervals: declaring a live peer dead
    // would take ~20 consecutive lost keepalive exchanges (or a 400 ms
    // scheduler stall), so a chaos run's liveness verdicts are about the
    // protocol, not about host jitter.
    scfg.idle_timeout = SimDuration::from_micros(400_000);
    scfg.linger = SimDuration::from_micros(40_000);
    scfg.caps.max_reassembly_bytes = 64 * 1024;
    scfg
}

/// Message sizes for a soak transfer: deterministic per seed, several
/// larger than the per-message MTU so reassembly is real, with a total
/// comfortably above the reassembly cap so admission has to work.
fn soak_sizes(seed: u64, n: usize) -> Vec<u32> {
    (0..n)
        .map(|i| {
            let x = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            1 + (x % 16_000) as u32
        })
        .collect()
}

fn empty_run(scenario: ChaosScenario, seed: u64) -> SoakRun {
    SoakRun {
        scenario: scenario.name(),
        seed,
        outcome: String::new(),
        pass: false,
        delivered: 0,
        submitted: 0,
        handshake_rounds: 0,
        close_rounds: 0,
        retransmissions: 0,
        peak_reasm_bytes: 0,
        reasm_cap: 0,
        sessions_leaked: 0,
        relay_forwarded: 0,
        relay_lanes_with_traffic: 0,
        relay_dropped: 0,
        relay_duplicated: 0,
        relay_reordered: 0,
        relay_blackholed: 0,
        relay_ctrl_dropped: 0,
        relay_ctrl_duplicated: 0,
        relay_acks_rewritten: 0,
        wall_ms: 0.0,
    }
}

fn record_relay(run: &mut SoakRun, stats: &RelayStats) {
    run.relay_forwarded = stats.forwarded;
    run.relay_lanes_with_traffic = stats.lanes_with_traffic;
    run.relay_dropped = stats.dropped;
    run.relay_duplicated = stats.duplicated;
    run.relay_reordered = stats.reordered;
    run.relay_blackholed = stats.blackholed;
    run.relay_ctrl_dropped = stats.ctrl_dropped;
    run.relay_ctrl_duplicated = stats.ctrl_duplicated;
    run.relay_acks_rewritten = stats.acks_rewritten;
}

/// Submit `sizes` as owned buffers (retrying through backpressure),
/// flush, and close. Ids are pushed as they are accepted so the caller
/// keeps an exact submission ledger even when a typed error cuts the
/// transfer short.
fn pump_messages(
    sess: &mut SenderSession,
    sizes: &[u32],
    ids: &mut Vec<u64>,
    deadline: Instant,
) -> Result<(), SessionError> {
    for &bytes in sizes {
        loop {
            let id = sess.next_msg_id();
            let mut buf = vec![0u8; bytes as usize];
            payload::fill(MsgId(id), 0, &mut buf);
            match sess.try_send(buf) {
                Ok(got) => {
                    ids.push(got.0);
                    break;
                }
                Err(SessionError::Backpressure { .. }) => {
                    if Instant::now() >= deadline {
                        return Err(SessionError::WallDeadline {
                            outstanding: sess.outstanding(),
                        });
                    }
                    sess.poll()?;
                    sess.wait(Duration::from_millis(2))?;
                }
                Err(e) => return Err(e),
            }
        }
    }
    sess.flush(deadline)?;
    sess.close(deadline)?;
    Ok(())
}

/// Verify a listener report against the submitted ids: every id
/// delivered exactly once, nothing extra, and every message's content
/// digest matches the deterministic corpus.
fn verify_exactly_once(ids: &[u64], report: &SessionReport) -> Result<(), String> {
    let mut want: Vec<u64> = ids.to_vec();
    want.sort_unstable();
    let got: Vec<u64> = report.delivered.iter().map(|&(id, _)| id).collect();
    if got != want {
        return Err(format!(
            "delivered ids diverge: got {} msgs, want {}",
            got.len(),
            want.len()
        ));
    }
    let mut scratch = Vec::new();
    for &(id, bytes, digest) in &report.digests {
        if digest != payload::synth_message_digest(MsgId(id), bytes, &mut scratch) {
            return Err(format!("content digest mismatch on msg {id}"));
        }
    }
    Ok(())
}

/// A relay-interposed scenario: start listener + relay, connect through
/// the faults, pump a transfer, and classify the terminal state.
fn run_relay_scenario(
    scenario: ChaosScenario,
    seed: u64,
    chaos: ChaosConfig,
    relay_cfg: RelayConfig,
    expect_handshake_failure: bool,
    wall_budget: Duration,
) -> io::Result<SoakRun> {
    let started = Instant::now();
    let deadline = started + wall_budget;
    let cfg = IoConfig::default();
    let scfg = soak_session_config(&cfg, seed);
    let mut run = empty_run(scenario, seed);
    run.reasm_cap = scfg.caps.max_reassembly_bytes;

    let listener = Listener::bind(&scfg)?;
    let ctrl_dst = listener.hello_addr()?;
    let relay = LossyRelay::start_session(relay_cfg, chaos, ctrl_dst, listener.pathlet_addrs())?;
    let server = relay.ctrl_addr().expect("session relay has a ctrl lane");

    // The listener serves until a full lifecycle completes (FIN +
    // linger) or its peer goes silent past the idle timeout — both
    // reap the session. Only a never-connected listener runs to the
    // deadline, which is exactly the handshake-failure scenario.
    let mut listener = listener;
    let rx = std::thread::Builder::new()
        .name("mtp-soak-rx".into())
        .spawn(move || {
            let res = listener.run_until_closed(deadline);
            (listener, res)
        })?;

    let sizes = soak_sizes(seed, 24);
    let mut ids: Vec<u64> = Vec::new();
    let tx_res: Result<(), SessionError> = match SenderSession::connect(&scfg, server) {
        Ok(mut sess) => {
            let res = pump_messages(&mut sess, &sizes, &mut ids, deadline);
            // Record the sender's diagnostics whether it ended clean or
            // typed — a failed run must still explain itself.
            run.submitted = ids.len();
            run.handshake_rounds = sess.handshake_rounds();
            run.close_rounds = sess.close_rounds();
            run.retransmissions = sess.core().stats.retransmissions;
            res
        }
        Err(e) => Err(e),
    };
    // The sender is done (or dead) before joining the listener: a failed
    // close or handshake leaves the listener to reap by idle timeout or
    // deadline on its own.
    let (listener, rx_res) = rx
        .join()
        .map_err(|_| io::Error::other("soak listener thread panicked"))?;
    let stats = relay.stop();
    record_relay(&mut run, &stats);
    run.sessions_leaked = listener.active_sessions();
    run.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    if let Ok(report) = &rx_res {
        run.delivered = report.delivered.len();
        run.peak_reasm_bytes = report.peak_reasm_bytes;
    }

    match tx_res {
        Ok(()) => match rx_res {
            Ok(report) => match verify_exactly_once(&ids, &report) {
                Ok(()) => {
                    run.outcome = "exactly_once".into();
                    run.pass = !expect_handshake_failure
                        && run.peak_reasm_bytes <= run.reasm_cap
                        && run.sessions_leaked == 0;
                }
                Err(why) => {
                    run.outcome = format!("ledger_mismatch: {why}");
                    run.pass = false;
                }
            },
            Err(e) => {
                // Sender finished but the listener ended typed
                // (e.g. every FIN was eaten and it reaped by idle
                // timeout). Typed is a legal bucket; leak is not.
                run.outcome = format!("listener_{}", e.kind());
                run.pass = !expect_handshake_failure && run.sessions_leaked == 0;
            }
        },
        Err(e) => {
            run.outcome = e.kind().into();
            match e {
                SessionError::HandshakeTimeout { .. } => {
                    run.pass = expect_handshake_failure && run.sessions_leaked == 0;
                }
                // A typed close failure after a fully flushed transfer
                // is an allowed terminal state under FIN loss.
                SessionError::CloseTimeout { outstanding, .. } => {
                    run.pass = scenario == ChaosScenario::FinLoss
                        && outstanding == 0
                        && run.sessions_leaked == 0;
                }
                // So is a close-phase liveness expiry with nothing
                // pending: all data was flushed, only the farewell died.
                SessionError::PeerDead { ref pending, .. } => {
                    run.pass = scenario == ChaosScenario::FinLoss
                        && pending.is_empty()
                        && run.sessions_leaked == 0;
                }
                _ => run.pass = false,
            }
        }
    }
    Ok(run)
}

fn handshake_loss(seed: u64, wall_budget: Duration) -> io::Result<Vec<SoakRun>> {
    // Phase A: the relay eats the first two HELLOs; backoff retries
    // must still establish and the transfer must complete.
    let mut a = run_relay_scenario(
        ChaosScenario::HandshakeLoss,
        seed,
        ChaosConfig {
            ctrl_drop_first: 2,
            ..ChaosConfig::default()
        },
        RelayConfig {
            drop_ppm: 10_000,
            dup_ppm: 5_000,
            reorder_ppm: 5_000,
            seed,
            blackhole: None,
        },
        false,
        wall_budget,
    )?;
    if a.pass && a.handshake_rounds < 3 {
        a.outcome = format!(
            "handshake took {} rounds, expected >= 3",
            a.handshake_rounds
        );
        a.pass = false;
    }
    // Phase B: the control lane is a dead drop; the handshake must fail
    // with its typed timeout instead of hanging. The budget is clamped
    // well above the handshake's worst case (~0.3 s of backoff) but low
    // enough that the never-connected listener exits promptly.
    let b = run_relay_scenario(
        ChaosScenario::HandshakeLoss,
        seed.wrapping_add(1),
        ChaosConfig {
            ctrl_drop_ppm: 1_000_000,
            ..ChaosConfig::default()
        },
        RelayConfig {
            drop_ppm: 0,
            dup_ppm: 0,
            reorder_ppm: 0,
            seed,
            blackhole: None,
        },
        true,
        wall_budget.min(Duration::from_secs(3)),
    )?;
    Ok(vec![a, b])
}

fn fin_loss(seed: u64, wall_budget: Duration) -> io::Result<Vec<SoakRun>> {
    // The first two FINs are eaten deterministically (a seeded drop
    // could let them through), so a clean close *must* take at least
    // three rounds — proof the retry path ran. Seeded control loss and
    // duplication ride on top for re-ack and idempotency coverage.
    let mut run = run_relay_scenario(
        ChaosScenario::FinLoss,
        seed,
        ChaosConfig {
            ctrl_drop_ppm: 250_000,
            ctrl_dup_ppm: 200_000,
            fin_drop_first: 2,
            ..ChaosConfig::default()
        },
        RelayConfig {
            drop_ppm: 60_000,
            dup_ppm: 20_000,
            reorder_ppm: 20_000,
            seed,
            blackhole: None,
        },
        false,
        wall_budget,
    )?;
    if run.pass && run.outcome == "exactly_once" && run.close_rounds < 3 {
        run.outcome = format!(
            "close took {} rounds with the first 2 FINs eaten",
            run.close_rounds
        );
        run.pass = false;
    }
    Ok(vec![run])
}

fn blackhole_flap(seed: u64, wall_budget: Duration) -> io::Result<Vec<SoakRun>> {
    // Lane 1 alternates alive/dead every 3 sender→receiver datagrams —
    // a short period so the dead phase provably engages even on a small
    // transfer (coalescing leaves each lane only a handful of
    // datagrams). A run that never blackholed anything proved nothing
    // and fails.
    let mut run = run_relay_scenario(
        ChaosScenario::BlackholeFlap,
        seed,
        ChaosConfig {
            flap: Some((1, 3)),
            ..ChaosConfig::default()
        },
        RelayConfig {
            drop_ppm: 20_000,
            dup_ppm: 5_000,
            reorder_ppm: 5_000,
            seed,
            blackhole: None,
        },
        false,
        wall_budget,
    )?;
    if run.pass && run.relay_blackholed == 0 {
        run.outcome = "flap never engaged".into();
        run.pass = false;
    }
    Ok(vec![run])
}

/// Kill the listener mid-transfer; the sender must fail typed with the
/// pending ids; a fresh listener must rebind the *same* control port
/// (nothing leaked) and serve a clean second session.
fn peer_kill_restart(seed: u64, wall_budget: Duration) -> io::Result<Vec<SoakRun>> {
    let started = Instant::now();
    let deadline = started + wall_budget;
    let cfg = IoConfig::default();
    let scfg = soak_session_config(&cfg, seed);
    let mut run = empty_run(ChaosScenario::PeerKillRestart, seed);
    run.reasm_cap = scfg.caps.max_reassembly_bytes;

    let mut listener = Listener::bind(&scfg)?;
    let ctrl_dst = listener.hello_addr()?;
    let kill = Arc::new(AtomicBool::new(false));
    let kill2 = Arc::clone(&kill);
    let rx = std::thread::Builder::new()
        .name("mtp-soak-victim".into())
        .spawn(move || -> io::Result<usize> {
            while !kill2.load(Ordering::Acquire) {
                listener.poll_once()?;
                listener.wait(Duration::from_millis(2))?;
            }
            // Dropping the listener here closes every socket it owns.
            Ok(listener.delivered_snapshot().len())
        })?;

    let mut sess = SenderSession::connect(&scfg, ctrl_dst)
        .map_err(|e| io::Error::other(format!("kill/restart: first connect failed: {e}")))?;
    run.handshake_rounds = sess.handshake_rounds();
    let sizes = soak_sizes(seed, 24);
    let mut ids = Vec::new();
    // Submit everything (through backpressure), then kill the listener
    // once some — but not all — messages have completed.
    for &bytes in &sizes {
        loop {
            let id = sess.next_msg_id();
            let mut buf = vec![0u8; bytes as usize];
            payload::fill(MsgId(id), 0, &mut buf);
            match sess.try_send(buf) {
                Ok(got) => {
                    ids.push(got.0);
                    break;
                }
                Err(SessionError::Backpressure { .. }) => {
                    if let Err(e) = sess.poll() {
                        return Err(io::Error::other(format!(
                            "kill/restart: poll failed pre-kill: {e}"
                        )));
                    }
                    sess.wait(Duration::from_millis(2))
                        .map_err(|e| io::Error::other(format!("kill/restart: wait failed: {e}")))?;
                }
                Err(e) => {
                    return Err(io::Error::other(format!(
                        "kill/restart: submit failed pre-kill: {e}"
                    )))
                }
            }
        }
        if sess.completions().len() >= 4 {
            break;
        }
    }
    run.submitted = ids.len();
    kill.store(true, Ordering::Release);
    let victim_delivered = rx
        .join()
        .map_err(|_| io::Error::other("victim listener thread panicked"))??;

    // The peer is gone; polling must end in a typed PeerDead within the
    // idle timeout, naming the ids that were stranded.
    let death = sess.flush(deadline);
    run.retransmissions = sess.core().stats.retransmissions;
    run.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    match death {
        Err(SessionError::PeerDead { pending, .. }) => {
            run.outcome = "peer_dead".into();
            // Everything submitted was either delivered pre-kill or is
            // named in the typed error — no silently lost ids.
            let accounted = victim_delivered + pending.len();
            if accounted < ids.len() {
                run.outcome = format!("peer_dead but {} ids unaccounted", ids.len() - accounted);
                run.pass = false;
                return Ok(vec![run]);
            }
        }
        Err(other) => {
            run.outcome = format!("expected peer_dead, got {}", other.kind());
            run.pass = false;
            return Ok(vec![run]);
        }
        Ok(()) => {
            // All messages completed before the kill landed: legal but
            // uninteresting; record it as delivered.
            run.outcome = "completed_before_kill".into();
        }
    }
    drop(sess);

    // Restart: binding the SAME control port only succeeds if the dead
    // listener's socket was actually closed — the no-leak proof.
    let mut revived = Listener::bind_at(&scfg, ctrl_dst)
        .map_err(|e| io::Error::other(format!("kill/restart: rebind at {ctrl_dst} failed: {e}")))?;
    let rx2 = std::thread::Builder::new()
        .name("mtp-soak-revived".into())
        .spawn(move || {
            let res = revived.run_until_closed(deadline);
            (revived, res)
        })?;
    let scfg2 = soak_session_config(&cfg, seed.wrapping_add(7));
    let mut sess2 = SenderSession::connect(&scfg2, ctrl_dst)
        .map_err(|e| io::Error::other(format!("kill/restart: reconnect failed: {e}")))?;
    let sizes2 = soak_sizes(seed.wrapping_add(7), 8);
    let mut ids2 = Vec::new();
    pump_messages(&mut sess2, &sizes2, &mut ids2, deadline)
        .map_err(|e| io::Error::other(format!("kill/restart: second transfer failed: {e}")))?;
    let (revived, report) = rx2
        .join()
        .map_err(|_| io::Error::other("revived listener thread panicked"))?;
    let report = report
        .map_err(|e| io::Error::other(format!("kill/restart: revived listener failed: {e}")))?;
    run.sessions_leaked = revived.active_sessions();
    run.delivered = report.delivered.len();
    run.peak_reasm_bytes = report.peak_reasm_bytes;
    run.close_rounds = sess2.close_rounds();
    run.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    match verify_exactly_once(&ids2, &report) {
        Ok(()) => {
            run.pass = run.sessions_leaked == 0 && run.peak_reasm_bytes <= run.reasm_cap;
        }
        Err(why) => {
            run.outcome = format!("restart ledger mismatch: {why}");
            run.pass = false;
        }
    }
    Ok(vec![run])
}

/// Run one scenario under one seed.
pub fn run_scenario(
    scenario: ChaosScenario,
    seed: u64,
    wall_budget: Duration,
) -> io::Result<Vec<SoakRun>> {
    match scenario {
        ChaosScenario::HandshakeLoss => handshake_loss(seed, wall_budget),
        ChaosScenario::FinLoss => fin_loss(seed, wall_budget),
        ChaosScenario::BlackholeFlap => blackhole_flap(seed, wall_budget),
        ChaosScenario::PeerKillRestart => peer_kill_restart(seed, wall_budget),
    }
}

/// Run the full scenario × seed matrix. `per_run_budget` bounds each
/// individual run's wall clock (a run that needs it has hung — the
/// deadline turns a hang into a visible typed failure).
pub fn run_soak_suite(seeds: &[u64], per_run_budget: Duration) -> io::Result<SoakOutcome> {
    let mut runs = Vec::new();
    for scenario in ChaosScenario::ALL {
        for &seed in seeds {
            runs.extend(run_scenario(scenario, seed, per_run_budget)?);
        }
    }
    let pass = runs.iter().all(|r| r.pass);
    Ok(SoakOutcome { runs, pass })
}
