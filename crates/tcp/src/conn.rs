//! The sans-IO TCP sender state machine.
//!
//! [`SenderConn`] holds one direction of a TCP connection: the send window,
//! congestion state, RTT estimation, and loss recovery. It never touches
//! the simulator directly — callers feed it segments and the clock, and it
//! pushes packets to transmit into a caller-provided `Vec`. This makes the
//! same core usable from host nodes and from the TCP-terminating proxy.
//!
//! Data is virtual: the stream is a byte count, not a buffer. `app_write`
//! extends the stream; sequence numbers are `u64` so wraparound never
//! occurs at simulated scales.

use mtp_sim::packet::{Headers, Packet};
use mtp_sim::time::{Duration, Time};
use mtp_wire::{EcnCodepoint, TcpFlags, TcpHeader};

use crate::cc::{CcVariant, TcpCc};
use crate::{TcpConfig, INIT_CWND_PKTS, MIN_RTO, MSS, TCP_WIRE_OVERHEAD};
use mtp_sim::rtt::RttEstimator;

/// Connection lifecycle state (sender side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderState {
    /// Created, not yet opened.
    Idle,
    /// SYN sent, waiting for SYN-ACK.
    SynSent,
    /// Handshake complete (or skipped); data may flow.
    Established,
}

/// Counters kept by a sender.
#[derive(Debug, Clone, Copy, Default)]
pub struct SenderStats {
    /// Segments retransmitted (fast retransmit + partial ACK + RTO).
    pub retransmissions: u64,
    /// Fast-retransmit events.
    pub fast_retransmits: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Data segments transmitted (including retransmissions).
    pub segments_sent: u64,
}

/// One TCP sender.
#[derive(Debug)]
pub struct SenderConn {
    cfg: TcpConfig,
    conn_id: u32,
    src_port: u16,
    dst_port: u16,
    state: SenderState,
    /// First unacknowledged byte.
    snd_una: u64,
    /// Next byte to transmit.
    snd_nxt: u64,
    /// Total bytes the application has written into the stream.
    app_limit: u64,
    /// Peer's advertised receive window in bytes.
    peer_rwnd: u64,
    cc: TcpCc,
    rtt: RttEstimator,
    dupacks: u32,
    in_recovery: bool,
    /// NewReno `recover`: highest sequence outstanding when loss detected.
    recover: u64,
    /// RTO deadline, if data (or a SYN) is outstanding.
    rto_deadline: Option<Time>,
    /// One timed segment for RTT sampling: (end seq, send time).
    timed: Option<(u64, Time)>,
    /// Classic ECN: a CWR flag should go out on the next data segment.
    cwr_pending: bool,
    /// Counters.
    pub stats: SenderStats,
}

impl SenderConn {
    /// Create a sender for connection `conn_id`.
    pub fn new(cfg: TcpConfig, conn_id: u32, src_port: u16, dst_port: u16) -> SenderConn {
        let cc = TcpCc::new(cfg.variant, MSS, INIT_CWND_PKTS);
        let rtt = RttEstimator::new(MIN_RTO);
        SenderConn {
            cfg,
            conn_id,
            src_port,
            dst_port,
            state: SenderState::Idle,
            snd_una: 0,
            snd_nxt: 0,
            app_limit: 0,
            peer_rwnd: u64::MAX,
            cc,
            rtt,
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            rto_deadline: None,
            timed: None,
            cwr_pending: false,
            stats: SenderStats::default(),
        }
    }

    /// The connection id.
    pub fn conn_id(&self) -> u32 {
        self.conn_id
    }

    /// Lifecycle state.
    pub fn state(&self) -> SenderState {
        self.state
    }

    /// Bytes acknowledged so far.
    pub fn bytes_acked(&self) -> u64 {
        self.snd_una
    }

    /// True when every written byte has been acknowledged.
    pub fn all_acked(&self) -> bool {
        self.state == SenderState::Established && self.snd_una == self.app_limit
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cc.cwnd()
    }

    /// The smoothed RTT estimate, if any.
    pub fn srtt(&self) -> Option<Duration> {
        self.rtt.srtt()
    }

    /// Bytes in flight.
    pub fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Bytes written but not yet acknowledged (send backlog + flight).
    pub fn backlog(&self) -> u64 {
        self.app_limit - self.snd_una
    }

    /// The next time at which [`on_timer`](Self::on_timer) needs to run.
    pub fn next_deadline(&self) -> Option<Time> {
        self.rto_deadline
    }

    /// Open the connection: transmit a SYN (or go straight to established
    /// if the config skips the handshake), then fill the window.
    pub fn open(&mut self, now: Time, out: &mut Vec<Packet>) {
        match self.state {
            SenderState::Idle => {}
            _ => return,
        }
        if self.cfg.handshake {
            self.state = SenderState::SynSent;
            self.timed = Some((0, now));
            out.push(self.make_ctrl(TcpFlags {
                syn: true,
                ..Default::default()
            }));
            self.arm_rto(now);
        } else {
            self.state = SenderState::Established;
            self.poll(now, out);
        }
    }

    /// Append `bytes` to the stream and fill the window.
    pub fn app_write(&mut self, bytes: u64, now: Time, out: &mut Vec<Packet>) {
        self.app_limit += bytes;
        if self.state == SenderState::Established {
            self.poll(now, out);
        }
    }

    /// Process an incoming segment addressed to this sender (an ACK or
    /// SYN-ACK).
    pub fn on_segment(&mut self, now: Time, hdr: &TcpHeader, out: &mut Vec<Packet>) {
        if hdr.flags.syn && hdr.flags.ack {
            if self.state == SenderState::SynSent {
                self.state = SenderState::Established;
                if let Some((_, t)) = self.timed.take() {
                    self.rtt.sample(now.since(t));
                }
                self.peer_rwnd = hdr.rwnd as u64;
                self.rto_deadline = None;
                self.poll(now, out);
            }
            return;
        }
        if !hdr.flags.ack || self.state != SenderState::Established {
            return;
        }
        self.peer_rwnd = hdr.rwnd as u64;
        let ack = hdr.ack;
        let ece = hdr.flags.ece;
        if ece && self.cfg.variant == CcVariant::NewReno {
            self.cwr_pending = true;
        }

        if ack > self.snd_una {
            // New data acknowledged.
            if let Some((end, t)) = self.timed {
                if ack >= end {
                    self.rtt.sample(now.since(t));
                    self.timed = None;
                }
            }
            let acked = ack - self.snd_una;
            self.snd_una = ack;
            // After a go-back-N timeout, a delayed ACK for data sent
            // before the timeout can acknowledge past the rolled-back
            // snd_nxt; those bytes need no retransmission.
            self.snd_nxt = self.snd_nxt.max(ack);
            if self.in_recovery {
                if ack >= self.recover {
                    self.in_recovery = false;
                    self.dupacks = 0;
                    self.cc.on_recovery_exit();
                } else {
                    // NewReno partial ACK: retransmit the next hole, stay in
                    // recovery.
                    self.retransmit_head(now, out);
                }
            } else {
                self.dupacks = 0;
            }
            self.cc
                .on_ack(acked, ece, self.snd_una, self.snd_nxt, self.in_recovery);
            if self.flight() > 0 || self.backlog() > 0 {
                self.arm_rto(now);
            } else {
                self.rto_deadline = None;
            }
            self.poll(now, out);
        } else if ack == self.snd_una && self.flight() == 0 {
            // Pure window update while idle (e.g. a zero-window stall
            // being lifted): nothing is outstanding, so this cannot be a
            // duplicate ACK — just try to transmit again.
            self.poll(now, out);
        } else if ack == self.snd_una && self.flight() > 0 {
            // Duplicate ACK.
            self.dupacks += 1;
            if self.in_recovery {
                self.cc.on_dup_ack_inflation();
                self.poll(now, out);
            } else if self.dupacks == 3 {
                self.in_recovery = true;
                self.recover = self.snd_nxt;
                self.stats.fast_retransmits += 1;
                self.cc.on_fast_retransmit();
                self.retransmit_head(now, out);
            } else {
                // A window update may have unblocked us.
                self.poll(now, out);
            }
        }
    }

    /// Drive timers: call when the wall clock passes
    /// [`next_deadline`](Self::next_deadline).
    pub fn on_timer(&mut self, now: Time, out: &mut Vec<Packet>) {
        let Some(deadline) = self.rto_deadline else {
            return;
        };
        if now < deadline {
            return;
        }
        self.stats.timeouts += 1;
        self.rtt.on_timeout();
        match self.state {
            SenderState::SynSent => {
                out.push(self.make_ctrl(TcpFlags {
                    syn: true,
                    ..Default::default()
                }));
                self.arm_rto(now);
            }
            SenderState::Established => {
                // Go-back-N from the last cumulative ACK.
                self.cc.on_timeout(self.flight());
                self.snd_nxt = self.snd_una;
                self.in_recovery = false;
                self.dupacks = 0;
                self.timed = None;
                self.poll(now, out);
                self.arm_rto(now);
            }
            SenderState::Idle => {}
        }
    }

    /// Fill the window: transmit new segments while congestion and flow
    /// control allow.
    pub fn poll(&mut self, now: Time, out: &mut Vec<Packet>) {
        if self.state != SenderState::Established {
            return;
        }
        let window = self.cc.cwnd().min(self.peer_rwnd);
        while self.flight() < window && self.snd_nxt < self.app_limit {
            let remaining = self.app_limit - self.snd_nxt;
            let len = (MSS as u64).min(remaining) as u32;
            let seq = self.snd_nxt;
            self.snd_nxt += len as u64;
            if self.timed.is_none() {
                self.timed = Some((self.snd_nxt, now));
            }
            out.push(self.make_data(seq, len));
            if self.rto_deadline.is_none() {
                self.arm_rto(now);
            }
        }
    }

    fn retransmit_head(&mut self, now: Time, out: &mut Vec<Packet>) {
        let remaining = self.app_limit - self.snd_una;
        if remaining == 0 {
            return;
        }
        let len = (MSS as u64).min(remaining) as u32;
        let seq = self.snd_una;
        self.stats.retransmissions += 1;
        // Karn: a retransmitted range must not produce an RTT sample.
        self.timed = None;
        out.push(self.make_data(seq, len));
        self.arm_rto(now);
    }

    fn arm_rto(&mut self, now: Time) {
        self.rto_deadline = Some(now + self.rtt.rto());
    }

    fn ect(&self) -> EcnCodepoint {
        match self.cfg.variant {
            CcVariant::Dctcp => EcnCodepoint::Ect0,
            CcVariant::NewReno => EcnCodepoint::NotEct,
        }
    }

    fn make_data(&mut self, seq: u64, len: u32) -> Packet {
        self.stats.segments_sent += 1;
        let cwr = std::mem::take(&mut self.cwr_pending);
        let hdr = TcpHeader {
            conn_id: self.conn_id,
            src_port: self.src_port,
            dst_port: self.dst_port,
            seq,
            ack: 0,
            flags: TcpFlags {
                cwr,
                ..Default::default()
            },
            rwnd: 0,
            payload_len: len as u16,
        };
        let mut pkt = Packet::new(Headers::Tcp(hdr), len + TCP_WIRE_OVERHEAD);
        pkt.ecn = self.ect();
        pkt
    }

    fn make_ctrl(&self, flags: TcpFlags) -> Packet {
        let hdr = TcpHeader {
            conn_id: self.conn_id,
            src_port: self.src_port,
            dst_port: self.dst_port,
            seq: 0,
            ack: 0,
            flags,
            rwnd: 0,
            payload_len: 0,
        };
        // Control segments are never ECT (RFC 3168 / DCTCP practice).
        Packet::new(Headers::Tcp(hdr), TCP_WIRE_OVERHEAD).without_ect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_handshake() -> TcpConfig {
        TcpConfig {
            handshake: false,
            ..TcpConfig::default()
        }
    }

    fn ack(conn_id: u32, ackno: u64, ece: bool, rwnd: u32) -> TcpHeader {
        TcpHeader {
            conn_id,
            src_port: 2,
            dst_port: 1,
            seq: 0,
            ack: ackno,
            flags: TcpFlags {
                ack: true,
                ece,
                ..Default::default()
            },
            rwnd,
            payload_len: 0,
        }
    }

    fn payload(p: &Packet) -> (u64, u32) {
        let h = p.headers.as_tcp().expect("tcp segment");
        (h.seq, h.payload_len as u32)
    }

    #[test]
    fn initial_window_sends_ten_segments() {
        let mut s = SenderConn::new(no_handshake(), 1, 1, 2);
        let mut out = Vec::new();
        s.open(Time::ZERO, &mut out);
        s.app_write(1_000_000, Time::ZERO, &mut out);
        assert_eq!(out.len(), 10, "init cwnd = 10 segments");
        assert_eq!(payload(&out[0]), (0, 1460));
        assert_eq!(payload(&out[9]), (9 * 1460, 1460));
        assert_eq!(s.flight(), 14_600);
    }

    #[test]
    fn handshake_defers_data_until_synack() {
        let mut s = SenderConn::new(TcpConfig::default(), 7, 1, 2);
        let mut out = Vec::new();
        s.open(Time::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].headers.as_tcp().unwrap().flags.syn);
        s.app_write(5000, Time::ZERO, &mut out);
        assert_eq!(out.len(), 1, "no data before SYN-ACK");

        let synack = TcpHeader {
            conn_id: 7,
            flags: TcpFlags {
                syn: true,
                ack: true,
                ..Default::default()
            },
            rwnd: u32::MAX,
            ..TcpHeader::default()
        };
        let t = Time::ZERO + Duration::from_micros(10);
        s.on_segment(t, &synack, &mut out);
        assert_eq!(out.len(), 1 + 4, "5000 B = 4 segments");
        assert_eq!(s.srtt(), Some(Duration::from_micros(10)));
    }

    #[test]
    fn acks_advance_and_release_new_segments() {
        let mut s = SenderConn::new(no_handshake(), 1, 1, 2);
        let mut out = Vec::new();
        s.open(Time::ZERO, &mut out);
        s.app_write(1_000_000, Time::ZERO, &mut out);
        out.clear();
        let t = Time::ZERO + Duration::from_micros(50);
        s.on_segment(t, &ack(1, 1460, false, u32::MAX), &mut out);
        // Slow start: 1460 acked => cwnd grows 1460 => 2 new segments slide.
        assert_eq!(out.len(), 2);
        assert_eq!(s.bytes_acked(), 1460);
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let mut s = SenderConn::new(no_handshake(), 1, 1, 2);
        let mut out = Vec::new();
        s.open(Time::ZERO, &mut out);
        s.app_write(1_000_000, Time::ZERO, &mut out);
        out.clear();
        let t = Time::ZERO + Duration::from_micros(50);
        for _ in 0..2 {
            s.on_segment(t, &ack(1, 0, false, u32::MAX), &mut out);
        }
        assert!(out.is_empty());
        s.on_segment(t, &ack(1, 0, false, u32::MAX), &mut out);
        assert_eq!(out.len(), 1, "fast retransmit of head");
        assert_eq!(payload(&out[0]), (0, 1460));
        assert_eq!(s.stats.fast_retransmits, 1);
        assert_eq!(s.stats.retransmissions, 1);
    }

    #[test]
    fn newreno_partial_ack_retransmits_next_hole() {
        let mut s = SenderConn::new(no_handshake(), 1, 1, 2);
        let mut out = Vec::new();
        s.open(Time::ZERO, &mut out);
        s.app_write(1_000_000, Time::ZERO, &mut out);
        out.clear();
        let t = Time::ZERO + Duration::from_micros(50);
        for _ in 0..3 {
            s.on_segment(t, &ack(1, 0, false, u32::MAX), &mut out);
        }
        out.clear();
        // Partial ACK: first segment arrived after retransmit but the next
        // is also missing.
        s.on_segment(t, &ack(1, 1460, false, u32::MAX), &mut out);
        assert!(
            out.iter().any(|p| payload(p).0 == 1460),
            "hole retransmitted"
        );
        // Full ACK past `recover` exits recovery.
        s.on_segment(t, &ack(1, 14_600, false, u32::MAX), &mut out);
        assert!(!s.in_recovery);
    }

    #[test]
    fn rto_collapses_and_goes_back_n() {
        let mut s = SenderConn::new(no_handshake(), 1, 1, 2);
        let mut out = Vec::new();
        s.open(Time::ZERO, &mut out);
        s.app_write(1_000_000, Time::ZERO, &mut out);
        out.clear();
        let deadline = s.next_deadline().expect("rto armed");
        s.on_timer(deadline, &mut out);
        assert_eq!(s.stats.timeouts, 1);
        assert_eq!(out.len(), 1, "cwnd collapsed to 1 MSS");
        assert_eq!(payload(&out[0]), (0, 1460));
        assert_eq!(s.cwnd(), 1460);
    }

    #[test]
    fn receive_window_limits_flight() {
        let mut s = SenderConn::new(no_handshake(), 1, 1, 2);
        let mut out = Vec::new();
        s.open(Time::ZERO, &mut out);
        s.app_write(1_000_000, Time::ZERO, &mut out);
        out.clear();
        // Peer advertises a 2-segment window.
        let t = Time::ZERO + Duration::from_micros(50);
        s.on_segment(t, &ack(1, 14_600, false, 2920), &mut out);
        assert_eq!(s.flight(), 2920, "flight capped by rwnd");
        out.clear();
        // Window update reopens the gate.
        s.on_segment(t, &ack(1, 14_600, false, 29_200), &mut out);
        assert!(s.flight() > 2920);
    }

    #[test]
    fn zero_window_blocks_completely() {
        let mut s = SenderConn::new(no_handshake(), 1, 1, 2);
        let mut out = Vec::new();
        s.open(Time::ZERO, &mut out);
        s.app_write(1_000_000, Time::ZERO, &mut out);
        out.clear();
        let t = Time::ZERO + Duration::from_micros(50);
        s.on_segment(t, &ack(1, 14_600, false, 0), &mut out);
        assert_eq!(s.flight(), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn completion_detected() {
        let mut s = SenderConn::new(no_handshake(), 1, 1, 2);
        let mut out = Vec::new();
        s.open(Time::ZERO, &mut out);
        s.app_write(1000, Time::ZERO, &mut out);
        assert!(!s.all_acked());
        s.on_segment(
            Time::ZERO + Duration::from_micros(1),
            &ack(1, 1000, false, u32::MAX),
            &mut out,
        );
        assert!(s.all_acked());
        assert_eq!(s.next_deadline(), None, "no RTO with nothing outstanding");
    }

    #[test]
    fn dctcp_marks_are_ect_and_newreno_is_not() {
        let mut s = SenderConn::new(no_handshake(), 1, 1, 2);
        let mut out = Vec::new();
        s.open(Time::ZERO, &mut out);
        s.app_write(1460, Time::ZERO, &mut out);
        assert!(!out[0].ecn.is_ect());

        let mut d = SenderConn::new(
            TcpConfig {
                handshake: false,
                ..TcpConfig::dctcp()
            },
            2,
            1,
            2,
        );
        out.clear();
        d.open(Time::ZERO, &mut out);
        d.app_write(1460, Time::ZERO, &mut out);
        assert!(out[0].ecn.is_ect());
    }
}
