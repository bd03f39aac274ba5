//! The wire session lifecycle: connect, send, serve, close.
//!
//! PR 8's drivers bootstrapped from fixed out-of-band port maps and shut
//! down by side channel (an `AtomicBool` raised when the sender was
//! done). This module replaces both with a protocol, turning the wire
//! backend into a public connect/accept/send/recv transport:
//!
//! * **Handshake** — a versioned HELLO/HELLO-ACK exchange
//!   ([`mtp_wire::SessionCtrl`]) that assigns session ids and carries
//!   the responder's per-pathlet UDP port map. HELLOs are retried with
//!   capped exponential backoff plus seeded jitter; duplicate HELLOs are
//!   idempotent (the listener re-acks the same session), and another
//!   connector's is answered with a BUSY that fails its `connect` at once
//!   ([`SessionError::Busy`]).
//! * **Liveness** — the connector probes feedback silence with PINGs;
//!   silence past the idle timeout declares the peer dead and fails
//!   every pending message with a typed [`SessionError::PeerDead`]
//!   (carrying the core's [`PathHealth`]) instead of spinning forever.
//! * **Graceful close** — FIN/FIN-ACK with retries; the listener holds
//!   a TIME-WAIT-style linger so a lost FIN-ACK is re-answered rather
//!   than stranding the closer.
//! * **Bounded admission** — send-side caps on inflight messages and
//!   buffered payload bytes ([`SessionError::Backpressure`], never an
//!   unbounded queue) and a receive-side reassembly-byte cap (excess
//!   first-copy data goes unACKed, so the sender repairs it later, when
//!   there is room).
//! * **Turns and pathlet feedback** — a turn (`poll` / `poll_once`)
//!   asks once which sockets have anything queued, drains those, feeds
//!   the core, and flushes once per pathlet, so what a turn's ACKs
//!   release fills whole datagrams and `sendmmsg` batches. The first
//!   `try_send` after a turn transmits at once; any further one before
//!   the next turn leaves with that turn's flush. Data sockets ask
//!   for their buffers on purpose, and the listener — each pathlet's last
//!   hop — stamps congestion-experienced on frames that arrive behind
//!   more than a set share of the granted receive queue, which the
//!   sender's per-pathlet windows converge on in place of loss.
//! * **One control path per endpoint** — control frames ride the same
//!   turn and the same lending drain as data (the listener's control
//!   socket is the last one its readiness question names); every one
//!   received passes one acceptance check (seal, exact length, version,
//!   usable ports), and every one sent is sealed and counted by one
//!   helper.
//! * **One control machine per endpoint** — the HELLO and FIN retries,
//!   PINGs, idle death and TIME-WAIT are the timers of one sans-IO
//!   machine (`control.rs`, which draws its state diagram; DESIGN.md
//!   "Session lifecycle" has the timer table) fed the session's clock. A
//!   turn serves what is due; `wait` sleeps no later than the next timer
//!   of the core or the machine; and `connect`, `flush`, `close` and
//!   `run_until_closed` are one blocking loop of turns and waits.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::time::Instant;

use mtp_core::{MsgDelivered, MtpConfig, MtpReceiver, MtpSender, PathHealth, SenderEvent};
use mtp_sim::time::{Duration as SimDuration, Time};
use mtp_sim::{Headers, Packet};
use mtp_telemetry::{Gauge, Metric, Registry};
use mtp_wire::{
    CtrlKind, EcnCodepoint, EntityId, Feedback, MsgId, MtpHeader, PathFeedback, PathletId, PktType,
    SessionCtrl, TrafficClass, SESSION_WIRE_VERSION,
};

use crate::clock::{until, MonotonicClock};
use crate::control::{Control, Fired, Heard};
use crate::frame::{
    append_ctrl_frame, append_frame, FrameError, FrameIter, FrameKind, DEFAULT_DATAGRAM_BUDGET,
    FRAME_OVERHEAD,
};
use crate::payload;
use crate::socket::{readable_now, wait_readable, BatchSocket, Ready, SendReport};
use crate::sys;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Socket and core configuration, the same on both endpoints.
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
        }
    }
}

/// Bounded-resource admission caps. Every queue a session owns is
/// bounded by one of these; hitting a cap is backpressure (send side)
/// or deferred repair (receive side), never unbounded growth.
#[derive(Debug, Clone, Copy)]
pub struct SessionCaps {
    /// Most messages admitted and not yet completed at the sender.
    pub max_inflight_msgs: usize,
    /// Most payload bytes the sender will hold buffered for
    /// retransmission across all inflight messages.
    pub max_buffered_bytes: u64,
    /// Most reassembly bytes the receiver will hold across partially
    /// received messages. One message is always admitted even if it
    /// alone exceeds the cap (progress guarantee); the enforced bound is
    /// therefore `max(cap, largest single message)`. The listener holds
    /// one delivered message more, outside the cap, while its content
    /// digest waits for the next delivery's to fold with.
    pub max_reassembly_bytes: u64,
}

impl Default for SessionCaps {
    fn default() -> SessionCaps {
        SessionCaps {
            max_inflight_msgs: 64,
            max_buffered_bytes: 16 << 20,
            max_reassembly_bytes: 16 << 20,
        }
    }
}

/// Configuration for one side of a wire session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Socket/core configuration, the same on both endpoints.
    pub io: IoConfig,
    /// MTP app port of the connecting (sending) side.
    pub client_port: u16,
    /// MTP app port of the listening (receiving) side.
    pub server_port: u16,
    /// `msg_id_base` the sender core allocates message ids from.
    pub msg_id_base: u64,
    /// Initial HELLO/FIN retransmission timeout.
    pub handshake_rto: SimDuration,
    /// Backoff cap for HELLO/FIN retransmissions.
    pub handshake_rto_max: SimDuration,
    /// Feedback silence before a liveness PING is sent (and between
    /// successive PINGs).
    pub keepalive_interval: SimDuration,
    /// Feedback silence that declares the peer dead.
    pub idle_timeout: SimDuration,
    /// TIME-WAIT span the listener holds a closed session for, so
    /// duplicate FINs keep being acknowledged after a lost FIN-ACK.
    pub linger: SimDuration,
    /// Admission caps.
    pub caps: SessionCaps,
    /// Seed for handshake jitter and session-id assignment. Two
    /// endpoints may share a seed; ids are drawn from independent
    /// streams.
    pub seed: u64,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            io: IoConfig::default(),
            client_port: 1,
            server_port: 2,
            msg_id_base: 1 << 32,
            handshake_rto: SimDuration::from_micros(10_000),
            handshake_rto_max: SimDuration::from_micros(160_000),
            keepalive_interval: SimDuration::from_micros(50_000),
            idle_timeout: SimDuration::from_micros(600_000),
            linger: SimDuration::from_micros(150_000),
            caps: SessionCaps::default(),
            seed: 0,
        }
    }
}

/// HELLO/FIN attempts before giving up with a typed error.
pub const HANDSHAKE_TRIES: u32 = 8;

// ---------------------------------------------------------------------------
// Errors and state
// ---------------------------------------------------------------------------

/// Why a session operation failed. Every terminal outcome of a session
/// is either clean completion or exactly one of these — the chaos soak
/// asserts there is no third bucket (hangs, busy-loops, leaks).
#[derive(Debug)]
pub enum SessionError {
    /// The HELLO exchange exhausted its retries without a HELLO-ACK.
    HandshakeTimeout {
        /// HELLOs sent.
        tries: u32,
        /// Wall time spent trying.
        elapsed: std::time::Duration,
    },
    /// Feedback silence exceeded the idle timeout: the peer (or the
    /// whole path set) is gone. Pending messages are failed and listed.
    PeerDead {
        /// How long the silence lasted.
        silence: std::time::Duration,
        /// Message ids that were admitted but never completed.
        pending: Vec<u64>,
        /// The sender core's view of the path set at the time of death
        /// (all-quarantined points at the network, none at the peer).
        path_health: PathHealth,
    },
    /// The FIN exchange exhausted its retries without a FIN-ACK.
    CloseTimeout {
        /// FINs sent.
        tries: u32,
        /// Messages still unacknowledged (always 0: close flushes first).
        outstanding: usize,
    },
    /// An admission cap refused the submission; retry after completions
    /// drain. Carries the state that tripped the cap.
    Backpressure {
        /// Messages currently inflight.
        inflight: usize,
        /// Payload bytes currently buffered.
        buffered_bytes: u64,
    },
    /// The session is not in a state that allows the operation.
    Closed,
    /// The listener holds another session and said so (BUSY).
    Busy,
    /// The caller-supplied wall deadline expired.
    WallDeadline {
        /// Messages still outstanding when the deadline hit.
        outstanding: usize,
    },
    /// The socket layer failed.
    Io(io::Error),
}

impl core::fmt::Display for SessionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SessionError::HandshakeTimeout { tries, elapsed } => {
                write!(f, "handshake timed out after {tries} HELLOs ({elapsed:?})")
            }
            SessionError::PeerDead {
                silence,
                pending,
                path_health,
            } => write!(
                f,
                "peer dead after {silence:?} of silence; {} pending messages failed; {path_health}",
                pending.len()
            ),
            SessionError::CloseTimeout { tries, outstanding } => {
                write!(
                    f,
                    "close timed out after {tries} FINs ({outstanding} outstanding)"
                )
            }
            SessionError::Backpressure {
                inflight,
                buffered_bytes,
            } => write!(
                f,
                "backpressure: {inflight} messages inflight, {buffered_bytes} bytes buffered"
            ),
            SessionError::Closed => write!(f, "session is closed"),
            SessionError::Busy => write!(f, "the listener is busy with another session"),
            SessionError::WallDeadline { outstanding } => {
                write!(f, "wall deadline expired with {outstanding} outstanding")
            }
            SessionError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<io::Error> for SessionError {
    fn from(e: io::Error) -> SessionError {
        SessionError::Io(e)
    }
}

impl SessionError {
    /// A short stable label for reports (`results/BENCH_chaos.json`).
    pub fn kind(&self) -> &'static str {
        match self {
            SessionError::HandshakeTimeout { .. } => "handshake_timeout",
            SessionError::PeerDead { .. } => "peer_dead",
            SessionError::CloseTimeout { .. } => "close_timeout",
            SessionError::Backpressure { .. } => "backpressure",
            SessionError::Closed => "closed",
            SessionError::Busy => "busy",
            SessionError::WallDeadline { .. } => "wall_deadline",
            SessionError::Io(_) => "io",
        }
    }
}

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// HELLO sent, awaiting HELLO-ACK.
    Connecting,
    /// Handshake complete; data flows.
    Established,
    /// FIN sent, awaiting FIN-ACK.
    Closing,
    /// (Listener only) closed, lingering to re-ack duplicate FINs.
    TimeWait,
    /// Cleanly closed (a listener: no session held).
    Closed,
    /// Dead by typed error; resources released.
    Failed,
}

impl core::fmt::Display for SessionState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            SessionState::Connecting => "CONNECTING",
            SessionState::Established => "ESTABLISHED",
            SessionState::Closing => "CLOSING",
            SessionState::TimeWait => "TIME-WAIT",
            SessionState::Closed => "CLOSED",
            SessionState::Failed => "FAILED",
        };
        f.write_str(s)
    }
}

/// What every data socket asks the kernel for: a receive queue on the
/// listener's, where data lands, and a send queue on the sender's, where
/// it leaves; nothing is inherited from the host's `rmem_default`. 4 MiB
/// is the largest ask a host tuned to the common `net.core.rmem_max` of
/// 4 MiB grants in full (the kernel clamps a larger one silently, and
/// doubles what it grants). The host this was sized on granted 8 MiB:
/// 504 datagrams of 9000 B at the 16 640 B the kernel charges each, by
/// `SO_MEMINFO`, where the inherited 208 KiB held twelve — less than half
/// of one 256 KiB message.
const SOCKET_BUFFER_ASK: usize = 4 << 20;

/// The marking threshold K as a share of the granted receive queue: a
/// datagram that arrives behind `granted / CE_THRESHOLD_DIV` bytes of
/// datagrams, or more, is stamped congestion-experienced. 1/64 of the
/// 8 MiB granted here is 128 KiB. The listener's own queue is not what
/// binds it — a datagram is charged 1.85× its length, so K is 3 % of
/// what the queue holds and the deepest queue a converging sender leaves
/// (2.2 K, the turn after the first mark) 6 %. Two things downstream of
/// that queue are: its ACKs land in the sender's receive queue, which
/// keeps the host's default (208 KiB: twelve full ACK datagrams, the
/// ACKs of about 1 MB of data), and a thread that serves both ends
/// spends its listener turn on every byte queued (parse, copy, digest;
/// about 2 ns/B) while the sender's 3 ms `min_rto` runs. Swept from
/// 64 KiB to 1 MiB on a session with 8 MiB outstanding (EXPERIMENTS.md):
/// nothing dropped or retransmitted at any K up to 512 KiB, ACK drops
/// and a timeout storm from 1 MiB, `wire_bulk` within 5 % across the
/// range; 1/64 leaves both limits a factor of four.
const CE_THRESHOLD_DIV: usize = 64;

/// DCTCP's instantaneous-K rule over one drain of a socket's receive
/// queue. A drain reads the queue until it is empty, so the bytes read
/// before a datagram are the queue it arrived behind; it is marked when
/// they reach the threshold — `mtp_sim::EcnQueue::enqueue`'s rule, in
/// bytes for packets.
#[derive(Debug)]
struct DrainDepth {
    ahead: usize,
    threshold: usize,
}

impl DrainDepth {
    /// Account a datagram of `len` bytes; whether it is marked.
    fn arrive(&mut self, len: usize) -> bool {
        let ce = self.ahead >= self.threshold;
        self.ahead += len;
        ce
    }
}

fn bind_pathlet_sockets(n: usize) -> io::Result<Vec<BatchSocket>> {
    // An endpoint's sockets — these and a listener's control socket —
    // are asked about in one `poll(2)`.
    if n >= sys::POLL_MAX {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "{n} pathlets: one poll covers an endpoint's sockets, at most {}",
                sys::POLL_MAX
            ),
        ));
    }
    (0..n)
        .map(|_| BatchSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)))
        .collect()
}

/// Bring `registry`'s kernel-drop count up to what `socks` report now:
/// datagrams dropped for want of receive-queue room since they were
/// bound. Nothing where the platform cannot say.
fn count_kernel_drops(registry: &mut Registry, socks: &[BatchSocket]) {
    let total: u64 = socks
        .iter()
        .filter_map(|sock| sock.meminfo().ok())
        .map(|info| info.drops as u64)
        .sum();
    let counted = registry.get(Metric::WireKernelDrops);
    registry.count(Metric::WireKernelDrops, total.saturating_sub(counted));
}

fn invalid<E: std::error::Error + Send + Sync + 'static>(e: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

fn count_sent(registry: &mut Registry, report: SendReport) {
    registry.count(Metric::WireDatagramsTx, report.datagrams as u64);
    registry.count(Metric::WireSendBatches, report.syscalls as u64);
    registry.count(Metric::WireSendWouldBlock, report.would_block as u64);
}

fn count_received(registry: &mut Registry, report: SendReport) {
    registry.count(Metric::WireDatagramsRx, report.datagrams as u64);
    registry.count(Metric::WireRecvBatches, report.syscalls as u64);
    registry.count(Metric::WireRecvEmpty, report.would_block as u64);
}

impl SessionConfig {
    /// Send `ctrl` from `sock` to `to` as a datagram of its own, and count
    /// it. Control never shares a datagram with data: the relay (a
    /// stand-in middlebox) classifies and rewrites control datagrams by
    /// the kind byte at a fixed offset.
    fn send_ctrl(
        &self,
        sock: &BatchSocket,
        to: SocketAddrV4,
        ctrl: &SessionCtrl,
        registry: &mut Registry,
    ) -> io::Result<()> {
        let mut dgram = Vec::with_capacity(FRAME_OVERHEAD + ctrl.wire_len());
        let fits = append_ctrl_frame(&mut dgram, self.io.datagram_budget, ctrl).map_err(invalid)?;
        assert!(fits, "fresh datagram refused a fitting frame");
        count_sent(registry, sock.send_batch(&[(to, &dgram)])?);
        registry.count(Metric::WireFramesTx, 1);
        let retry = ctrl.kind == CtrlKind::Hello && ctrl.seq > 0;
        registry.count(Metric::SessionHandshakeRetries, u64::from(retry));
        let sent = match ctrl.kind {
            CtrlKind::Hello => Metric::SessionHelloTx,
            CtrlKind::Ping | CtrlKind::Pong => Metric::SessionKeepaliveTx,
            CtrlKind::Fin => Metric::SessionFinTx,
            _ => return Ok(()),
        };
        registry.count(sent, 1);
        Ok(())
    }
}

/// What either end accepts as a control frame: it parses with its seal
/// intact and fills its frame exactly, it is of this wire version, and a
/// HELLO-ACK advertises at least one port and no port 0 (nothing can be
/// sent there). A frame that fails is counted — a parse error, or a
/// rejected frame — and goes no further.
fn accept_ctrl(registry: &mut Registry, body: &[u8]) -> Option<SessionCtrl> {
    let ctrl = match SessionCtrl::parse_sealed(body) {
        Ok((ctrl, used)) if used == body.len() => ctrl,
        _ => {
            registry.count(Metric::WireParseErrors, 1);
            return None;
        }
    };
    registry.count(Metric::WireFramesRx, 1);
    let unreachable_ports =
        ctrl.kind == CtrlKind::HelloAck && (ctrl.ports.is_empty() || ctrl.ports.contains(&0));
    if ctrl.version != SESSION_WIRE_VERSION || unreachable_ports {
        registry.count(Metric::SessionCtrlRejected, 1);
        return None;
    }
    Some(ctrl)
}

/// The datagrams one socket is about to send, built in buffers that are
/// reused turn after turn: frames coalesce into the open datagram until
/// the budget (or a change of destination) closes it, and
/// [`flush`](TxQueue::flush) hands the lot to the kernel and keeps the
/// allocations.
#[derive(Default)]
struct TxQueue {
    /// `(destination, datagram)`.
    bufs: Vec<(SocketAddrV4, Vec<u8>)>,
    /// Leading `bufs` holding a datagram of this round.
    used: usize,
}

impl TxQueue {
    fn push_frame(
        &mut self,
        peer: SocketAddrV4,
        budget: usize,
        hdr: &MtpHeader,
        payload: &[u8],
    ) -> Result<(), FrameError> {
        if let Some((to, open)) = self.bufs[..self.used].last_mut() {
            if *to == peer && append_frame(open, budget, hdr, payload)? {
                return Ok(());
            }
        }
        if self.used == self.bufs.len() {
            self.bufs.push((peer, Vec::new()));
        }
        let (to, fresh) = &mut self.bufs[self.used];
        *to = peer;
        fresh.clear();
        self.used += 1;
        // An empty datagram refuses only what `FrameTooBig` already did.
        append_frame(fresh, budget, hdr, payload).map(drop)
    }

    /// Send everything queued, in batches built on the stack.
    fn flush(&mut self, sock: &BatchSocket, registry: &mut Registry) -> io::Result<()> {
        let used = std::mem::take(&mut self.used);
        let nowhere = SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0);
        for chunk in self.bufs[..used].chunks(sys::BATCH) {
            let mut batch: [(SocketAddrV4, &[u8]); sys::BATCH] = [(nowhere, &[]); sys::BATCH];
            for (slot, (to, dgram)) in batch.iter_mut().zip(chunk) {
                *slot = (*to, dgram);
            }
            count_sent(registry, sock.send_batch(&batch[..chunk.len()])?);
        }
        Ok(())
    }
}

/// The listener's one open ACK: every data frame a socket drain delivers
/// from one peer is acknowledged into it while the receiver core lets the
/// frame join (see `MtpReceiver::ack_into`). Its lists keep their
/// capacity from drain to drain; it never enters the header pool, whose
/// data headers would inherit that capacity.
struct OpenAck {
    /// Reset while no ACK is open.
    hdr: MtpHeader,
    /// Where the open ACK goes.
    peer: SocketAddrV4,
}

impl OpenAck {
    /// Queue the open ACK, if there is one, on `tx` and reset it.
    fn seal(&mut self, tx: &mut TxQueue, budget: usize, registry: &mut Registry) -> io::Result<()> {
        if self.hdr.pkt_type != PktType::Ack {
            return Ok(());
        }
        let queued = tx.push_frame(self.peer, budget, &self.hdr, &[]);
        self.hdr.reset();
        queued.map_err(invalid)?;
        registry.count(Metric::WireFramesTx, 1);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Connector / sender session
// ---------------------------------------------------------------------------

/// The connecting, sending end of a wire session.
///
/// Owns one socket per pathlet, the sans-IO [`MtpSender`] core, and the
/// session control state. Built by [`SenderSession::connect`]; fed by
/// [`try_send`](SenderSession::try_send); driven by
/// [`poll`](SenderSession::poll) (or the blocking helpers
/// [`flush`](SenderSession::flush) and [`close`](SenderSession::close)).
pub struct SenderSession {
    cfg: SessionConfig,
    socks: Vec<BatchSocket>,
    peers: Vec<SocketAddrV4>,
    ctrl_peer: SocketAddrV4,
    snd: MtpSender,
    clock: MonotonicClock,
    ctrl: Control,
    /// Payloads of messages `next_msg_id() - payloads.len() ..`, `None`
    /// once completed: the same in-order window as the core's.
    payloads: VecDeque<Option<Vec<u8>>>,
    submitted: u64,
    buffered_bytes: u64,
    retx_rr: u64,
    completions: Vec<(u64, Time)>,
    /// Packets the core has released since the last flush: a whole
    /// turn's worth by the end of [`poll`](SenderSession::poll).
    out_buf: Vec<Packet>,
    /// Lengths of the messages admitted and not yet handed to the core:
    /// the next flush does that, so the core's clock for a message (its
    /// RTT samples, its RTO deadline) starts when its packets really
    /// leave. Their payloads are already in `payloads`.
    parked: Vec<u32>,
    /// A submission has flushed since the last turn; the next ones stay
    /// parked until the turn's flush.
    submitted_this_turn: bool,
    ev_buf: Vec<SenderEvent>,
    /// The header every received frame is parsed into.
    rx_hdr: MtpHeader,
    /// Outgoing datagrams per pathlet socket.
    tx: Vec<TxQueue>,
    registry: Registry,
}

impl SenderSession {
    /// Connect to a listener whose control address is `server`: bind
    /// pathlet sockets, run the HELLO exchange (capped exponential
    /// backoff with jitter), and return an ESTABLISHED session whose
    /// per-pathlet peers came from the HELLO-ACK's port map.
    pub fn connect(
        cfg: &SessionConfig,
        server: SocketAddrV4,
    ) -> Result<SenderSession, SessionError> {
        let clock = MonotonicClock::new();
        let mut s = SenderSession {
            cfg: cfg.clone(),
            // The HELLO leaves by the first pathlet's socket; the others
            // are bound while its answer is on the way.
            socks: bind_pathlet_sockets(1)?,
            peers: Vec::new(),
            ctrl_peer: server,
            snd: MtpSender::new(
                cfg.io.mtp.clone(),
                cfg.client_port,
                EntityId(0),
                cfg.msg_id_base,
            ),
            clock,
            ctrl: Control::connector(cfg, clock.now()),
            payloads: VecDeque::new(),
            submitted: 0,
            buffered_bytes: 0,
            retx_rr: 0,
            completions: Vec::new(),
            out_buf: Vec::new(),
            parked: Vec::new(),
            submitted_this_turn: false,
            ev_buf: Vec::new(),
            rx_hdr: MtpHeader::default(),
            tx: Vec::new(),
            registry: Registry::new(),
        };
        s.serve_ctrl(s.clock.now())?;
        // The HELLO left by the first pathlet's socket and its answer
        // takes a round trip through the peer: time to bind the other
        // pathlets and size every send queue.
        let more = cfg.io.pathlets.saturating_sub(1);
        s.socks.extend(bind_pathlet_sockets(more)?);
        for sock in &s.socks {
            sock.set_send_buffer(SOCKET_BUFFER_ASK)?;
        }
        let established =
            |s: &mut SenderSession, _| (s.state() == SessionState::Established).then_some(Ok(()));
        block(s.clock, &mut s, None, established)?;
        // Keep only as many pathlets as both sides can serve.
        let n = s.peers.len().min(s.socks.len());
        s.peers.truncate(n);
        s.socks.truncate(n);
        s.tx.resize_with(n, TxQueue::default);
        Ok(s)
    }

    /// Send what the control machine has due by `now`, or end the
    /// session with its typed failure. Control frames leave by the socket
    /// the HELLO left by.
    fn serve_ctrl(&mut self, now: Time) -> Result<(), SessionError> {
        while let Some(fired) = self.ctrl.on_timeout(now) {
            let frame = match fired {
                Fired::Send(frame) => frame,
                Fired::Failed(e) => return Err(self.fail(e, now)),
                Fired::Finished => unreachable!("a connector holds no TIME-WAIT"),
            };
            self.cfg
                .send_ctrl(&self.socks[0], self.ctrl_peer, &frame, &mut self.registry)?;
        }
        Ok(())
    }

    /// Submit a message whose bytes the caller owns. The buffer is held
    /// (for retransmission) until the message completes, then dropped.
    /// Fails fast with [`SessionError::Backpressure`] at the caps.
    pub fn try_send(&mut self, bytes: Vec<u8>) -> Result<MsgId, SessionError> {
        let len = u32::try_from(bytes.len()).expect("message larger than u32 bytes");
        assert!(len > 0, "empty messages are not a thing MTP sends");
        self.admit(len as u64)?;
        self.buffered_bytes += len as u64;
        self.submit(len, bytes)
    }

    fn admit(&mut self, add_bytes: u64) -> Result<(), SessionError> {
        if self.state() != SessionState::Established {
            return Err(SessionError::Closed);
        }
        let inflight = self.outstanding();
        if inflight >= self.cfg.caps.max_inflight_msgs
            || self.buffered_bytes + add_bytes > self.cfg.caps.max_buffered_bytes
        {
            self.registry.count(Metric::SessionBackpressure, 1);
            return Err(SessionError::Backpressure {
                inflight,
                buffered_bytes: self.buffered_bytes,
            });
        }
        Ok(())
    }

    /// Take an admitted message. The first submission since the last
    /// turn goes to the core and transmits what its window lets out at
    /// once — an unloaded request never waits for a turn; any further one
    /// shares the flush of the next [`poll`](Self::poll) (or
    /// [`wait`](Self::wait)), coalesced per pathlet like everything a
    /// turn's ACKs release.
    fn submit(&mut self, len: u32, bytes: Vec<u8>) -> Result<MsgId, SessionError> {
        // The core numbers messages in the order it is handed them, which
        // is this order.
        let id = MsgId(self.next_msg_id());
        self.payloads.push_back(Some(bytes));
        self.submitted += 1;
        self.registry.gauge_add(Gauge::MsgsInFlight, 1);
        self.parked.push(len);
        if !self.submitted_this_turn {
            self.submitted_this_turn = true;
            self.dispatch()?;
        }
        Ok(id)
    }

    /// The id of the message at the front of the payload window.
    fn payload_front(&self) -> u64 {
        self.next_msg_id() - self.payloads.len() as u64
    }

    /// The payload-window index of message `id`, if it is not below it.
    fn payload_slot(&self, id: u64) -> Option<usize> {
        id.checked_sub(self.payload_front()).map(|k| k as usize)
    }

    /// Pick the wire pathlet for a packet: hash the message id over the
    /// pathlets its header does not exclude (exclusions come from the
    /// core's quarantine and window-floor logic and land on real ports
    /// here), rotated by the retransmission round.
    fn route(&self, hdr: &MtpHeader) -> usize {
        let n = self.socks.len();
        let key = hdr.msg_id.0 + self.retx_rr;
        let live = |p: &usize| {
            !hdr.path_exclude
                .iter()
                .any(|e| e.path == PathletId(*p as u16))
        };
        match (0..n).filter(live).count() as u64 {
            // Everything excluded: sending somewhere beats deadlock.
            0 => (key % n as u64) as usize,
            k => (0..n)
                .filter(live)
                .nth((key % k) as usize)
                .expect("k pathlets are live"),
        }
    }

    /// Hand the core the messages parked since the last flush, then
    /// seal, coalesce, and transmit the core-emitted packets waiting in
    /// `out_buf`, each with its slice of its message's payload.
    fn dispatch(&mut self) -> Result<(), SessionError> {
        if !self.parked.is_empty() {
            let now = self.clock.now();
            let first = self.next_msg_id() - self.parked.len() as u64;
            for (id, len) in (first..).zip(self.parked.drain(..)) {
                let got = self.snd.send_message(
                    self.cfg.server_port,
                    len,
                    0,
                    TrafficClass::BEST_EFFORT,
                    now,
                    &mut self.out_buf,
                );
                debug_assert_eq!(got.0, id, "the core numbers messages sequentially");
            }
        }
        if self.out_buf.is_empty() {
            return Ok(());
        }
        let budget = self.cfg.io.datagram_budget;
        self.registry
            .count(Metric::WireFramesTx, self.out_buf.len() as u64);
        let mut pkts = std::mem::take(&mut self.out_buf);
        for pkt in pkts.drain(..) {
            let Headers::Mtp(hdr) = pkt.headers else {
                continue;
            };
            let p = self.route(&hdr);
            let len = hdr.pkt_len as usize;
            let off = hdr.pkt_offset as usize;
            // The core emits packets only for messages it has not
            // completed, and a payload leaves the window only at completion.
            let buf = self
                .payload_slot(hdr.msg_id.0)
                .and_then(|k| self.payloads.get(k)?.as_ref())
                .expect("an emitted packet's message holds its payload");
            let bytes = &buf[off..off + len];
            self.tx[p]
                .push_frame(self.peers[p], budget, &hdr, bytes)
                .map_err(invalid)?;
            mtp_sim::pool::recycle_header(hdr);
        }
        self.out_buf = pkts;
        for (q, sock) in self.tx.iter_mut().zip(&self.socks) {
            q.flush(sock, &mut self.registry)?;
        }
        Ok(())
    }

    /// One non-blocking event-loop turn: drain every socket that has
    /// anything queued, feed the core its ACKs and control replies, fire
    /// its timer, then flush — once per pathlet — everything the turn
    /// released and every submission parked since the last one; probe
    /// and police liveness, reap completions. Call [`wait`](Self::wait)
    /// between turns.
    pub fn poll(&mut self) -> Result<(), SessionError> {
        match self.state() {
            // A handshake turn reads and retries: nothing else is sent
            // before the answer, and there is no peer yet to police.
            SessionState::Connecting => {
                self.drain_sockets()?;
                return self.serve_ctrl(self.clock.now());
            }
            SessionState::Established | SessionState::Closing => {}
            _ => return Err(SessionError::Closed),
        }
        self.drain_sockets()?;
        let now = self.clock.now();
        if self.snd.poll_at().is_some_and(|t| t <= now) {
            let released = self.out_buf.len();
            self.snd.on_timer(now, &mut self.out_buf);
            if self.out_buf.len() > released {
                // Route this round of repairs onto the next pathlet: a
                // dead port's packets must not retry the same hole.
                self.retx_rr += 1;
            }
        }
        // What the turn's ACKs, NACKs and timer released leaves together
        // with the submissions parked since the last turn, filling
        // datagrams to the budget and `sendmmsg` batches to 32.
        self.dispatch()?;
        self.submitted_this_turn = false;
        self.serve_ctrl(now)?;
        self.drain_completions();
        Ok(())
    }

    fn drain_sockets(&mut self) -> Result<(), SessionError> {
        // The sockets are lent to the drain, whose callbacks borrow the
        // rest of the session; none of them touches `self.socks`.
        let max = self.cfg.io.datagram_budget + 64;
        let ready = readable_now(&self.socks, max)?;
        self.registry.count(Metric::WireReadyPolls, 1);
        let socks = std::mem::take(&mut self.socks);
        let drained = ready.named(&socks).try_for_each(|(_, sock)| {
            let report = sock.recv_each(max, |bytes, src| {
                for frame in FrameIter::new(bytes) {
                    match frame {
                        Ok((FrameKind::Mtp, body)) => self.on_mtp_frame(body),
                        Ok((FrameKind::Ctrl, body)) => self.on_ctrl_frame(src, body),
                        Err(_) => self.registry.count(Metric::WireParseErrors, 1),
                    }
                }
                Ok::<(), io::Error>(())
            })?;
            count_received(&mut self.registry, report);
            Ok::<(), io::Error>(())
        });
        self.socks = socks;
        Ok(drained?)
    }

    fn on_mtp_frame(&mut self, body: &[u8]) {
        // Nothing the core could use arrives before the handshake ends.
        if self.state() == SessionState::Connecting {
            return;
        }
        if self.rx_hdr.parse_sealed_from(body).is_err() {
            self.registry.count(Metric::WireParseErrors, 1);
            return;
        }
        self.registry.count(Metric::WireFramesRx, 1);
        let now = self.clock.now();
        self.ctrl.heard(now);
        match self.rx_hdr.pkt_type {
            // What the ACK releases waits in `out_buf` for the turn's
            // flush; sending it now would cost a datagram and a system
            // call per ACK.
            PktType::Ack | PktType::Nack => self.snd.on_ack(now, &self.rx_hdr, &mut self.out_buf),
            PktType::Control | PktType::Data => {}
        }
    }

    fn on_ctrl_frame(&mut self, src: SocketAddrV4, body: &[u8]) {
        let Some(ctrl) = accept_ctrl(&mut self.registry, body) else {
            return;
        };
        match self.ctrl.on_frame(self.clock.now(), &ctrl) {
            Heard::Refused | Heard::Answer(_) => {
                self.registry.count(Metric::SessionCtrlRejected, 1)
            }
            // The HELLO-ACK's source is where control replies worked
            // from; its port list is where data goes.
            Heard::Established => {
                self.ctrl_peer = src;
                let ip = *src.ip();
                self.peers = ctrl
                    .ports
                    .iter()
                    .map(|&p| SocketAddrV4::new(ip, p))
                    .collect();
            }
            Heard::Taken if ctrl.kind == CtrlKind::Pong => {
                self.registry.count(Metric::SessionKeepaliveRx, 1)
            }
            Heard::Taken => {}
        }
    }

    /// The typed end of the session at `now`. Peer death fails every
    /// pending message, releases their buffers, and surfaces the core's
    /// path health, so the error says *what* died.
    fn fail(&mut self, mut e: SessionError, now: Time) -> SessionError {
        if let SessionError::PeerDead {
            pending,
            path_health,
            ..
        } = &mut e
        {
            self.registry.count(Metric::SessionPeerDeaths, 1);
            *pending = (self.payload_front()..)
                .zip(&self.payloads)
                .filter_map(|(id, src)| src.is_some().then_some(id))
                .collect();
            self.registry
                .gauge_add(Gauge::MsgsInFlight, -(pending.len() as i64));
            self.payloads.clear();
            self.buffered_bytes = 0;
            *path_health = self.snd.path_health(now);
        }
        e
    }

    fn drain_completions(&mut self) {
        let mut ev = std::mem::take(&mut self.ev_buf);
        self.snd.drain_events(&mut ev);
        for e in ev.drain(..) {
            let SenderEvent::MsgCompleted { id, completed, .. } = e;
            let slot = self.payload_slot(id.0);
            if let Some(buf) = slot.and_then(|k| self.payloads.get_mut(k)?.take()) {
                self.buffered_bytes -= buf.len() as u64;
                self.registry.gauge_add(Gauge::MsgsInFlight, -1);
            }
            self.completions.push((id.0, completed));
        }
        while let Some(None) = self.payloads.front() {
            self.payloads.pop_front();
        }
        self.ev_buf = ev;
    }

    /// Block until a socket is readable, the core's or the control
    /// machine's next deadline, or `max_wait` — whichever is soonest.
    /// Submissions parked since the last turn are transmitted first:
    /// nothing waits across a sleep.
    pub fn wait(&mut self, max_wait: std::time::Duration) -> Result<(), SessionError> {
        self.dispatch()?;
        let timers = [self.snd.poll_at(), self.ctrl.poll_at()];
        let (socks, now) = (&self.socks, self.clock.now());
        Ok(sleep(socks, &mut self.registry, now, &timers, max_wait)?)
    }

    /// Poll until every admitted message completes or `deadline` hits.
    pub fn flush(&mut self, deadline: Instant) -> Result<(), SessionError> {
        block(self.clock, self, Some(deadline), |s, late| {
            match s.outstanding() {
                0 => Some(Ok(())),
                outstanding => late.then_some(Err(SessionError::WallDeadline { outstanding })),
            }
        })
    }

    /// Graceful close: flush outstanding messages, then run the FIN
    /// exchange (the handshake's retries, no round begun past
    /// `deadline`). On success every message was acknowledged *and* the
    /// peer confirmed the goodbye; a lost final FIN-ACK is covered by the
    /// listener's TIME-WAIT re-acks.
    pub fn close(&mut self, deadline: Instant) -> Result<(), SessionError> {
        match self.state() {
            SessionState::Closed => return Ok(()),
            SessionState::Established => {}
            _ => return Err(SessionError::Closed),
        }
        self.flush(deadline)?;
        let now = self.clock.now();
        self.ctrl.close(now, self.clock.at(deadline));
        let closed = self.serve_ctrl(now).and_then(|()| {
            block(self.clock, self, None, |s, _| {
                (s.state() == SessionState::Closed).then_some(Ok(()))
            })
        });
        // ACK datagrams this end's receive queues overflowed, read once
        // the session is over.
        count_kernel_drops(&mut self.registry, &self.socks);
        closed
    }

    /// The session's lifecycle state.
    pub fn state(&self) -> SessionState {
        self.ctrl.state()
    }

    /// The session's clock reading (sim picoseconds since construction).
    pub fn now(&self) -> Time {
        self.clock.now()
    }

    /// The id the *next* submitted message will get (ids are allocated
    /// sequentially from `msg_id_base`) — lets a caller synthesize
    /// content that depends on the id before submitting it.
    pub fn next_msg_id(&self) -> u64 {
        self.cfg.msg_id_base + self.submitted
    }

    /// This side's session id.
    pub fn session_id(&self) -> u64 {
        self.ctrl.ids().0
    }

    /// The listener-assigned peer session id (0 before establishment).
    pub fn peer_session_id(&self) -> u64 {
        self.ctrl.ids().1
    }

    /// HELLO rounds the handshake took (1 = first try answered).
    pub fn handshake_rounds(&self) -> u32 {
        self.ctrl.rounds().0
    }

    /// FIN rounds the close took (0 = close never ran).
    pub fn close_rounds(&self) -> u32 {
        self.ctrl.rounds().1
    }

    /// `(msg_id, completed_at)` for every completed message so far.
    pub fn completions(&self) -> &[(u64, Time)] {
        &self.completions
    }

    /// Messages admitted and not yet completed.
    pub fn outstanding(&self) -> usize {
        self.snd.outstanding() + self.parked.len()
    }

    /// Payload bytes currently buffered for retransmission.
    pub fn buffered_bytes(&self) -> u64 {
        self.buffered_bytes
    }

    /// The sans-IO sender core (for instrumentation and tests).
    pub fn core(&self) -> &MtpSender {
        &self.snd
    }

    /// Telemetry recorded by this session.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

// ---------------------------------------------------------------------------
// Listener / receiver session
// ---------------------------------------------------------------------------

/// What one served session delivered.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The connector's session id.
    pub client_sid: u64,
    /// This listener's session id.
    pub server_sid: u64,
    /// `(msg_id, bytes)` per delivery event, sorted by id.
    pub delivered: Vec<(u64, u32)>,
    /// `(msg_id, bytes, digest)` per delivery, digest computed from the
    /// actually reassembled bytes; sorted.
    pub digests: Vec<(u64, u32, u64)>,
    /// First-copy payload bytes delivered.
    pub goodput: u64,
    /// High-water mark of reassembly bytes held at once.
    pub peak_reasm_bytes: u64,
}

/// What the listener holds for the session its control machine holds.
struct Conn {
    recv: MtpReceiver,
    reasm: HashMap<u64, Vec<u8>>,
    /// Buffers of delivered messages, reused for the next reassembly.
    spare_reasm: Vec<Vec<u8>>,
    reasm_bytes: u64,
    peak_reasm_bytes: u64,
    delivered: Vec<(u64, u32)>,
    digests: Vec<(u64, u32, u64)>,
    /// A delivered message `(id, len, bytes)` whose digest waits for the
    /// next delivery's, so the two fold in one pass
    /// ([`payload::message_digest_pair`]): half the per-byte digest cost
    /// of `wire_bulk`'s messages, for one delivered buffer held past its
    /// delivery. Finalize folds a leftover alone; a death drops it.
    undigested: Option<(u64, u32, Vec<u8>)>,
}

/// The listening, receiving end: owns a control socket (the published
/// rendezvous address) plus one data socket per pathlet, accepts one
/// session at a time, and serves it through FIN and TIME-WAIT.
///
/// Single-session by design — the workspace's wire proofs are pairwise —
/// but nothing leaks between sessions: when a session finalizes (linger
/// expiry or idle death) its state is dropped and the listener accepts
/// the next HELLO, as the kill/restart chaos scenario exercises.
pub struct Listener {
    cfg: SessionConfig,
    /// The data sockets by pathlet, then the control socket: the order a
    /// turn's readiness question names them in.
    socks: Vec<BatchSocket>,
    /// Where the data sockets are bound, read once: every HELLO-ACK
    /// carries them.
    data_addrs: Vec<SocketAddrV4>,
    clock: MonotonicClock,
    ctrl: Control,
    conn: Option<Conn>,
    finished: Vec<SessionReport>,
    died: Option<SessionError>,
    ev_buf: Vec<MsgDelivered>,
    /// The header every received data frame is parsed into.
    rx_hdr: MtpHeader,
    /// The ACK the current data-socket drain is building.
    open_ack: OpenAck,
    /// ACK datagrams per data socket.
    acks: Vec<TxQueue>,
    /// Datagram bytes of queue beyond which an arrival is marked CE.
    ce_threshold: usize,
    registry: Registry,
}

impl Listener {
    /// Bind a listener on an ephemeral control port.
    pub fn bind(cfg: &SessionConfig) -> io::Result<Listener> {
        Listener::bind_at(cfg, SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0))
    }

    /// Bind a listener whose control socket sits at `ctrl_addr` — how a
    /// restarted peer reappears at the address its clients know.
    pub fn bind_at(cfg: &SessionConfig, ctrl_addr: SocketAddrV4) -> io::Result<Listener> {
        let mut socks = bind_pathlet_sockets(cfg.io.pathlets.max(1))?;
        for sock in &socks {
            sock.set_recv_buffer(SOCKET_BUFFER_ASK)?;
        }
        // Every data socket made the same request under the same sysctl,
        // so one read-back stands for all. Where the platform cannot say
        // what a queue holds there is nothing to take a share of, and
        // nothing is marked.
        let granted = socks[0].meminfo().map_or(0, |info| info.rcvbuf as usize);
        let data_addrs: Vec<SocketAddrV4> = socks
            .iter()
            .map(BatchSocket::local_addr)
            .collect::<io::Result<_>>()?;
        socks.push(BatchSocket::bind(ctrl_addr)?);
        let mut registry = Registry::new();
        registry.gauge_add(Gauge::WireRcvbufBytes, granted as i64);
        Ok(Listener {
            cfg: cfg.clone(),
            acks: data_addrs.iter().map(|_| TxQueue::default()).collect(),
            ce_threshold: match granted {
                0 => usize::MAX,
                granted => granted / CE_THRESHOLD_DIV,
            },
            socks,
            data_addrs,
            clock: MonotonicClock::new(),
            ctrl: Control::listener(cfg),
            conn: None,
            finished: Vec::new(),
            died: None,
            ev_buf: Vec::new(),
            rx_hdr: MtpHeader::default(),
            open_ack: OpenAck {
                hdr: MtpHeader::default(),
                peer: SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0),
            },
            registry,
        })
    }

    /// The control (rendezvous) address connectors HELLO.
    pub fn hello_addr(&self) -> io::Result<SocketAddrV4> {
        self.socks[self.data_addrs.len()].local_addr()
    }

    /// The per-pathlet data addresses (what HELLO-ACKs advertise).
    pub fn pathlet_addrs(&self) -> &[SocketAddrV4] {
        &self.data_addrs
    }

    /// Sessions currently held (established or lingering): the leak
    /// check the chaos soak asserts reaches zero.
    pub fn active_sessions(&self) -> usize {
        usize::from(self.conn.is_some())
    }

    /// `(msg_id, bytes)` delivered by the *active* session so far (the
    /// kill scenario snapshots this before dropping the listener).
    pub fn delivered_snapshot(&self) -> Vec<(u64, u32)> {
        self.conn
            .as_ref()
            .map(|c| c.delivered.clone())
            .unwrap_or_default()
    }

    /// The active session's sans-IO receiver core (for instrumentation
    /// and tests).
    pub fn core(&self) -> Option<&MtpReceiver> {
        self.conn.as_ref().map(|c| &c.recv)
    }

    /// Telemetry recorded by this listener.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The marking threshold K: a data frame that arrives behind this
    /// many datagram bytes of receive queue, or more, is acknowledged as
    /// congestion-experienced. A fixed share of what the kernel granted
    /// the data sockets; `usize::MAX` where the platform cannot say.
    pub fn ce_threshold(&self) -> usize {
        self.ce_threshold
    }

    /// Reports of sessions that ran to completion (FIN + linger).
    pub fn take_finished(&mut self) -> Vec<SessionReport> {
        std::mem::take(&mut self.finished)
    }

    /// One non-blocking service turn: ask once which sockets have
    /// anything queued, drain those (data sockets, then control), then
    /// liveness and linger expiry. Call [`wait`](Listener::wait)
    /// between turns, or use [`run_until_closed`](Listener::run_until_closed).
    pub fn poll_once(&mut self) -> io::Result<()> {
        let ready = readable_now(&self.socks, self.cfg.io.datagram_budget + 64)?;
        self.registry.count(Metric::WireReadyPolls, 1);
        self.drain(ready)?;
        while let Some(fired) = self.ctrl.on_timeout(self.clock.now()) {
            match fired {
                Fired::Finished => self.finalize_conn(),
                Fired::Failed(e) => {
                    self.registry.count(Metric::SessionPeerDeaths, 1);
                    self.drop_conn();
                    self.died = Some(e);
                }
                Fired::Send(..) => unreachable!("a listener only answers"),
            }
        }
        Ok(())
    }

    /// End the session: release its state and account what the kernel
    /// dropped at the data sockets while it ran.
    fn drop_conn(&mut self) -> Option<Conn> {
        let conn = self.conn.take()?;
        self.registry.gauge_add(Gauge::SessionsActive, -1);
        self.registry
            .gauge_add(Gauge::SessionReasmBytes, -(conn.reasm_bytes as i64));
        let data = &self.socks[..self.data_addrs.len()];
        count_kernel_drops(&mut self.registry, data);
        Some(conn)
    }

    fn finalize_conn(&mut self) {
        if let Some(conn) = self.drop_conn() {
            let (mut delivered, mut digests) = (conn.delivered, conn.digests);
            if let Some((id, len, buf)) = conn.undigested {
                digests.push((id, len, payload::message_digest(&buf)));
            }
            delivered.sort_unstable();
            digests.sort_unstable();
            let (client_sid, server_sid) = self.ctrl.ids();
            self.finished.push(SessionReport {
                client_sid,
                server_sid,
                delivered,
                digests,
                goodput: conn.recv.stats.goodput_bytes,
                peak_reasm_bytes: conn.peak_reasm_bytes,
            });
        }
    }

    /// One datagram off the control socket `sock`, which answers leave by.
    fn on_ctrl_datagram(
        &mut self,
        sock: &BatchSocket,
        src: SocketAddrV4,
        bytes: &[u8],
    ) -> io::Result<()> {
        for frame in FrameIter::new(bytes) {
            match frame {
                Ok((FrameKind::Ctrl, body)) => self.on_ctrl_frame(sock, src, body)?,
                // Data belongs on a data socket.
                Ok((FrameKind::Mtp, _)) => self.registry.count(Metric::SessionOrphanFrames, 1),
                Err(_) => self.registry.count(Metric::WireParseErrors, 1),
            }
        }
        Ok(())
    }

    fn on_ctrl_frame(
        &mut self,
        sock: &BatchSocket,
        src: SocketAddrV4,
        body: &[u8],
    ) -> io::Result<()> {
        // A version this listener does not speak is refused here too: the
        // connector keeps retrying and times out with a typed handshake
        // error — the defined cross-version outcome.
        let Some(ctrl) = accept_ctrl(&mut self.registry, body) else {
            return Ok(());
        };
        let Heard::Answer(mut reply) = self.ctrl.on_frame(self.clock.now(), &ctrl) else {
            self.registry.count(Metric::SessionCtrlRejected, 1);
            return Ok(());
        };
        let heard = match reply.kind {
            CtrlKind::HelloAck => {
                // A HELLO-ACK while no session is held answers the HELLO
                // that opened one.
                if self.conn.is_none() {
                    self.open();
                }
                reply.ports = self.data_addrs.iter().map(SocketAddrV4::port).collect();
                Metric::SessionHelloRx
            }
            CtrlKind::Pong => Metric::SessionKeepaliveRx,
            CtrlKind::FinAck => Metric::SessionFinRx,
            // BUSY: a refusal, if an answered one.
            _ => Metric::SessionCtrlRejected,
        };
        self.registry.count(heard, 1);
        self.cfg.send_ctrl(sock, src, &reply, &mut self.registry)
    }

    /// Hold the session the control machine just opened.
    fn open(&mut self) {
        self.conn = Some(Conn {
            recv: MtpReceiver::new(self.cfg.server_port)
                .with_sack_redundancy(self.cfg.io.sack_redundancy),
            reasm: HashMap::new(),
            spare_reasm: Vec::new(),
            reasm_bytes: 0,
            peak_reasm_bytes: 0,
            delivered: Vec::new(),
            digests: Vec::new(),
            undigested: None,
        });
        self.registry.gauge_add(Gauge::SessionsActive, 1);
        self.died = None;
    }

    /// Drain the sockets `ready` names, each to empty: the data sockets,
    /// whose ACKs leave together once each is drained, then control.
    fn drain(&mut self, ready: Ready) -> io::Result<()> {
        // The sockets are lent to the drain, whose callbacks borrow the
        // rest of the listener; none of them touches `self.socks`.
        let socks = std::mem::take(&mut self.socks);
        let max = self.cfg.io.datagram_budget + 64;
        let mut deepest = 0;
        let drained = ready.named(&socks).try_for_each(|(p, sock)| {
            if p == self.data_addrs.len() {
                let report =
                    sock.recv_each(max, |bytes, src| self.on_ctrl_datagram(sock, src, bytes))?;
                count_received(&mut self.registry, report);
                return Ok(());
            }
            let mut depth = DrainDepth {
                ahead: 0,
                threshold: self.ce_threshold,
            };
            let report = sock.recv_each(max, |bytes, src| {
                let ce = depth.arrive(bytes.len());
                self.on_data_datagram(p, src, bytes, ce)
            });
            // The drain's last ACK closes with it, even a drain an error
            // cut short.
            let budget = self.cfg.io.datagram_budget;
            self.open_ack
                .seal(&mut self.acks[p], budget, &mut self.registry)?;
            count_received(&mut self.registry, report?);
            deepest = deepest.max(depth.ahead);
            // Coalesced ACKs go back out the socket their data arrived on.
            self.acks[p].flush(sock, &mut self.registry)
        });
        self.socks = socks;
        let was = self.registry.gauge(Gauge::WireDrainBytes);
        self.registry
            .gauge_add(Gauge::WireDrainBytes, deepest as i64 - was);
        drained
    }

    /// One datagram off data socket `p`; `ce` says it arrived behind a
    /// queue at or beyond the marking threshold.
    fn on_data_datagram(
        &mut self,
        p: usize,
        src: SocketAddrV4,
        bytes: &[u8],
        ce: bool,
    ) -> io::Result<()> {
        // Every frame is parsed into the one header, whose lists keep
        // their capacity (an early return forfeits only that).
        let mut hdr = std::mem::take(&mut self.rx_hdr);
        for frame in FrameIter::new(bytes) {
            let body = match frame {
                Ok((FrameKind::Mtp, body)) => body,
                Ok((FrameKind::Ctrl, _)) => {
                    // Control belongs on the control socket.
                    self.registry.count(Metric::SessionCtrlRejected, 1);
                    continue;
                }
                Err(_) => {
                    self.registry.count(Metric::WireParseErrors, 1);
                    break;
                }
            };
            let (used, payload_ok) = match hdr.parse_sealed_from(body) {
                Ok(v) => v,
                Err(_) => {
                    self.registry.count(Metric::WireParseErrors, 1);
                    continue;
                }
            };
            self.registry.count(Metric::WireFramesRx, 1);
            if hdr.pkt_type != PktType::Data {
                continue;
            }
            let established = self.ctrl.state() == SessionState::Established;
            let Some(conn) = self.conn.as_mut().filter(|_| established) else {
                // No session takes this data (it closed, died, or never
                // was): count and drop — no ACK keeps the sender honest.
                self.registry.count(Metric::SessionOrphanFrames, 1);
                continue;
            };
            let data = &body[used..];
            let end = hdr.pkt_offset as u64 + hdr.pkt_len as u64;
            if data.len() != hdr.pkt_len as usize || end > hdr.msg_len_bytes as u64 {
                self.registry.count(Metric::WireParseErrors, 1);
                continue;
            }
            if !payload_ok {
                // Trustworthy header, untrustworthy payload: drop with
                // no ACK, exactly as the sim sink does, and the sender
                // repairs it like any loss.
                self.registry.count(Metric::WirePayloadCsumFail, 1);
                continue;
            }
            // Reassembly admission: a message not yet buffered only
            // starts reassembling if its whole length fits the cap.
            // Refusing means no `on_data`, hence no ACK — the sender
            // retransmits once delivery has drained room. An empty
            // buffer always admits (progress guarantee).
            let msg_new = !conn.reasm.contains_key(&hdr.msg_id.0);
            if msg_new
                && !conn.reasm.is_empty()
                && conn.reasm_bytes + hdr.msg_len_bytes as u64 > self.cfg.caps.max_reassembly_bytes
            {
                self.registry.count(Metric::SessionReasmRefused, 1);
                continue;
            }
            let now = self.clock.now();
            self.ctrl.heard(now);
            // This driver is the pathlet's last hop: it stamps which
            // pathlet (socket) the packet actually used, so the sender's
            // per-pathlet controllers attribute feedback to real ports,
            // and whether the packet found that socket's queue congested.
            // The receiver core echoes the stamp in its ACK.
            hdr.path_feedback.clear();
            hdr.path_feedback.push(PathFeedback {
                path: PathletId(p as u16),
                tc: hdr.tc,
                feedback: Feedback::EcnMark { ce },
            });
            self.registry.count(Metric::WireCeMarked, ce as u64);
            // One ACK per drain and peer, while the core lets each packet
            // join it; a refusal seals it and the packet starts the next.
            let (open, budget) = (&mut self.open_ack, self.cfg.io.datagram_budget);
            let mut seal =
                |open: &mut OpenAck| open.seal(&mut self.acks[p], budget, &mut self.registry);
            if open.peer != src {
                seal(open)?;
                open.peer = src;
            }
            let ecn = EcnCodepoint::Ect0;
            let newly = match conn.recv.ack_into(now, &hdr, ecn, &mut open.hdr) {
                Some(newly) => newly,
                None => {
                    seal(open)?;
                    let fresh = conn.recv.ack_into(now, &hdr, ecn, &mut open.hdr);
                    fresh.expect("a reset header starts a new ACK")
                }
            };
            if newly > 0 {
                if msg_new {
                    conn.reasm_bytes += hdr.msg_len_bytes as u64;
                    conn.peak_reasm_bytes = conn.peak_reasm_bytes.max(conn.reasm_bytes);
                    self.registry
                        .gauge_add(Gauge::SessionReasmBytes, hdr.msg_len_bytes as i64);
                }
                let buf = conn.reasm.entry(hdr.msg_id.0).or_insert_with(|| {
                    let mut buf = conn.spare_reasm.pop().unwrap_or_default();
                    buf.resize(hdr.msg_len_bytes as usize, 0);
                    buf
                });
                buf[hdr.pkt_offset as usize..end as usize].copy_from_slice(data);
            }
            self.drain_deliveries();
        }
        self.rx_hdr = hdr;
        Ok(())
    }

    fn drain_deliveries(&mut self) {
        let Some(conn) = &mut self.conn else {
            return;
        };
        let mut ev = std::mem::take(&mut self.ev_buf);
        conn.recv.drain_events(&mut ev);
        for d in ev.drain(..) {
            let buf = conn.reasm.remove(&d.id.0).unwrap_or_default();
            debug_assert_eq!(buf.len(), d.bytes as usize);
            conn.reasm_bytes -= buf.len() as u64;
            self.registry
                .gauge_add(Gauge::SessionReasmBytes, -(buf.len() as i64));
            conn.delivered.push((d.id.0, d.bytes));
            let Some((id, len, held)) = conn.undigested.take() else {
                conn.undigested = Some((d.id.0, d.bytes, buf));
                continue;
            };
            let (first, second) = payload::message_digest_pair(&held, &buf);
            conn.digests.push((id, len, first));
            conn.digests.push((d.id.0, d.bytes, second));
            for mut spare in [held, buf] {
                spare.clear();
                conn.spare_reasm.push(spare);
            }
        }
        self.ev_buf = ev;
    }

    /// Block until any socket is readable, the control machine's next
    /// deadline (idle death, the end of TIME-WAIT), or `max_wait`.
    pub fn wait(&mut self, max_wait: std::time::Duration) -> io::Result<()> {
        let (socks, now) = (&self.socks, self.clock.now());
        sleep(
            socks,
            &mut self.registry,
            now,
            &[self.ctrl.poll_at()],
            max_wait,
        )
    }

    /// Serve until one full session lifecycle completes (HELLO through
    /// FIN and linger) and return its report; a peer death or the wall
    /// deadline is a typed error. The serve-until-sender-says-done side
    /// channel is gone — the protocol itself says when serving is over.
    pub fn run_until_closed(&mut self, deadline: Instant) -> Result<SessionReport, SessionError> {
        block(self.clock, self, Some(deadline), |l, late| {
            let outstanding = l.conn.as_ref().map_or(0, |c| c.reasm.len());
            let over = l.finished.pop().map(Ok).or_else(|| l.died.take().map(Err));
            over.or_else(|| late.then_some(Err(SessionError::WallDeadline { outstanding })))
        })
    }
}

/// Block until one of `socks` is readable or the soonest of `max_wait`
/// and `timers`.
fn sleep(
    socks: &[BatchSocket],
    registry: &mut Registry,
    now: Time,
    timers: &[Option<Time>],
    max_wait: std::time::Duration,
) -> io::Result<()> {
    let timeout = (timers.iter().flatten()).fold(max_wait, |t, &at| t.min(until(now, at)));
    if !timeout.is_zero() {
        wait_readable(socks, timeout)?;
        registry.count(Metric::WireReadyPolls, 1);
    }
    Ok(())
}

/// Either end, as the one blocking loop drives it.
trait Turns {
    /// A non-blocking turn; with `Some(max_wait)`, a wait until a socket
    /// is readable, a timer is due, or `max_wait` has passed.
    fn step(&mut self, wait: Option<std::time::Duration>) -> Result<(), SessionError>;
}

impl Turns for SenderSession {
    fn step(&mut self, wait: Option<std::time::Duration>) -> Result<(), SessionError> {
        match wait {
            Some(max_wait) => self.wait(max_wait),
            None => self.poll(),
        }
    }
}

impl Turns for Listener {
    fn step(&mut self, wait: Option<std::time::Duration>) -> Result<(), SessionError> {
        Ok(match wait {
            Some(max_wait) => self.wait(max_wait),
            None => self.poll_once(),
        }?)
    }
}

/// The one blocking loop — `connect`, `flush`, `close` and
/// `run_until_closed`: until `done` has an outcome (told whether
/// `deadline` has passed), serve a turn, then wait until a socket is
/// readable, the end's next timer, or `deadline`.
fn block<E: Turns, T>(
    clock: MonotonicClock,
    end: &mut E,
    deadline: Option<Instant>,
    mut done: impl FnMut(&mut E, bool) -> Option<Result<T, SessionError>>,
) -> Result<T, SessionError> {
    let deadline = deadline.map(|d| clock.at(d));
    loop {
        let late = deadline.is_some_and(|d| clock.now() >= d);
        if let Some(outcome) = done(end, late) {
            return outcome;
        }
        end.step(None)?;
        if let Some(outcome) = done(end, false) {
            return outcome;
        }
        let left = deadline.map_or(std::time::Duration::MAX, |d| until(clock.now(), d));
        end.step(Some(left))?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Which datagrams of a hand-built drain the rule marks.
    fn marks(threshold: usize, drain: &[usize]) -> Vec<bool> {
        let mut depth = DrainDepth {
            ahead: 0,
            threshold,
        };
        drain.iter().map(|&len| depth.arrive(len)).collect()
    }

    /// The rule is `EcnQueue`'s: marked when the queue *ahead* has
    /// reached K, so the datagram that crosses K is still clean and the
    /// one that finds exactly K ahead is not.
    #[test]
    fn a_datagram_is_marked_when_the_queue_ahead_reaches_the_threshold() {
        // Below: 2 999 bytes ahead of the last one.
        assert_eq!(marks(3_000, &[1_000, 1_999, 500]), [false; 3]);
        // At: exactly 3 000 ahead.
        assert_eq!(marks(3_000, &[1_000, 2_000, 500]), [false, false, true]);
        // Above, and everything behind it.
        assert_eq!(
            marks(3_000, &[9_000, 100, 100]),
            [false, true, true],
            "the head of a drain found an empty queue, whatever its size"
        );
        // An empty drain marks nothing and has no depth.
        assert_eq!(marks(3_000, &[]), [false; 0]);
        // A platform that cannot size its queue marks nothing.
        assert_eq!(marks(usize::MAX, &[1 << 30, 1 << 30, 1]), [false; 3]);
    }
}
