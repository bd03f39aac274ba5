//! # mtp-tcp — baseline stream transports (TCP NewReno and DCTCP)
//!
//! The paper's evaluation compares MTP against TCP-family baselines; this
//! crate provides them on top of the `mtp-sim` simulator:
//!
//! * **TCP NewReno** — byte-stream, cumulative ACKs, slow start /
//!   congestion avoidance, fast retransmit + NewReno partial-ACK recovery,
//!   RFC 6298 RTO estimation, and classic-ECN response (one halving per
//!   window, ECE latched until CWR).
//! * **DCTCP** — the same stream machinery with per-packet ECN echo and the
//!   DCTCP control law: the sender maintains the EWMA marking fraction
//!   `alpha` (gain 1/16) and scales `cwnd` by `1 - alpha/2` once per window
//!   when marks arrive.
//!
//! The protocol logic lives in **sans-IO state machines**
//! ([`conn::SenderConn`], [`recv::ReceiverConn`]) that consume `(time,
//! segment)` and produce packets to transmit — so the same cores drive the
//! host nodes here *and* the TCP-terminating proxy in `mtp-net`
//! (paper Fig. 2). Thin [`Node`](mtp_sim::Node) adapters
//! ([`host::TcpSenderNode`], [`host::TcpSinkNode`]) wire the cores into the
//! simulator.
//!
//! The stream abstraction is the point of comparison: everything the paper
//! says TCP *cannot* do (message mutation, per-message load balancing,
//! per-pathlet congestion state) is structurally impossible here, and the
//! capability record in [`capabilities`] encodes that for Table 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capabilities;
pub mod cc;
pub mod conn;
pub mod host;
pub mod recv;

pub use cc::{CcVariant, TcpCc};
pub use conn::{SenderConn, SenderState};
pub use host::{ConnMirror, TcpSenderNode, TcpSinkNode, TcpWorkloadMode};
pub use mtp_sim::rtt::RttEstimator;
pub use recv::ReceiverConn;

use mtp_sim::time::Duration;

/// Bytes of TCP/IP header overhead carried on the wire by every segment
/// (20 B IP + 20 B TCP; options are not modelled).
pub const TCP_WIRE_OVERHEAD: u32 = 40;

/// Maximum segment payload size in bytes.
pub const MSS: u32 = 1460;
/// Initial congestion window in segments.
pub const INIT_CWND_PKTS: u32 = 10;
/// Lower bound on the retransmission timeout. Datacenter-tuned.
pub const MIN_RTO: Duration = Duration::from_micros(200);

/// Configuration shared by senders and receivers.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Congestion-control variant.
    pub variant: cc::CcVariant,
    /// Whether connection setup costs a SYN/SYN-ACK round trip. The
    /// one-message-per-flow experiment (paper Fig. 3) needs this on.
    pub handshake: bool,
    /// Receive-buffer capacity in bytes; `None` advertises an effectively
    /// unlimited window (the paper's Fig. 2 "unlimited receive window"
    /// configuration).
    pub recv_buffer: Option<u64>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            variant: cc::CcVariant::NewReno,
            handshake: true,
            recv_buffer: None,
        }
    }
}

impl TcpConfig {
    /// The standard DCTCP configuration used throughout the experiments.
    pub fn dctcp() -> TcpConfig {
        TcpConfig {
            variant: cc::CcVariant::Dctcp,
            ..TcpConfig::default()
        }
    }
}
