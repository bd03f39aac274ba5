//! # mtp-core — the MTP endpoint: message transport + pathlet congestion control
//!
//! This crate is the paper's primary contribution, implemented as a library:
//!
//! * **Message transport** (§3.1.2). Applications submit *messages*;
//!   [`sender::MtpSender`] fragments them into packets that each carry the
//!   full message context (id, priority, lengths, offsets), and
//!   [`receiver::MtpReceiver`] reassembles them, SACKs every packet, and
//!   NACKs holes immediately (gaps within a message prove loss because the
//!   network processes messages atomically). Retransmission, scheduling,
//!   and load balancing all operate on `(message, packet)` coordinates —
//!   never on a byte stream — which is what makes in-network **data
//!   mutation** and per-message **load balancing** safe.
//! * **Pathlet congestion control** (§3.1.3). Senders keep one congestion
//!   controller per `(pathlet, traffic class)` pair
//!   ([`pathlets::PathletTable`]): a DCTCP-like window driven by the
//!   TLV-typed feedback the network stamps per pathlet ([`pathlet_cc`]),
//!   ECN marks or an aggregated marking fraction. Senders advertise
//!   congested pathlets back to the network via the header's path-exclude
//!   list.
//! * **Blob mode** (§3.1.2) is a schedule, not a module: bulk data
//!   submitted as independent single-packet messages
//!   (`scenarios/abl_spray_blob.toml` runs one).
//!
//! The sans-IO cores ([`sender::MtpSender`], [`receiver::MtpReceiver`]) are
//! wrapped by simulator nodes in [`host`]; in-network devices that stamp
//! pathlet feedback and balance messages live in the `mtp-net` crate.
//!
//! ## Quick example
//!
//! ```
//! use mtp_core::{MtpConfig, MtpSenderNode, MtpSinkNode, ScheduledMsg};
//! use mtp_sim::time::{Bandwidth, Duration, Time};
//! use mtp_sim::{LinkCfg, PortId, Simulator};
//! use mtp_wire::EntityId;
//!
//! let mut sim = Simulator::new(7);
//! let snd = sim.add_node(Box::new(MtpSenderNode::new(
//!     MtpConfig::default(), 1, 2, EntityId(0), 1,
//!     vec![ScheduledMsg::new(Time::ZERO, 64 * 1024)],
//! )));
//! let sink = sim.add_node(Box::new(MtpSinkNode::new(2, Duration::from_micros(10))));
//! let rate = Bandwidth::from_gbps(100);
//! let d = Duration::from_micros(1);
//! sim.connect(snd, PortId(0), sink, PortId(0),
//!     LinkCfg::ecn(rate, d, 128, 20), LinkCfg::ecn(rate, d, 128, 20));
//! sim.run();
//! assert_eq!(sim.node_as::<MtpSinkNode>(sink).total_goodput(), 64 * 1024);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capabilities;
pub mod config;
pub mod host;
pub mod pathlet_cc;
pub mod pathlets;
pub mod receiver;
pub mod sender;

pub use config::MtpConfig;
pub use host::{
    EndpointMirror, MtpDuplexHost, MtpMsgRecord, MtpSenderNode, MtpSinkNode, ScheduledMsg,
};
pub use pathlet_cc::{CcKind, DctcpLikeCc, FixedWindowCc, PathletCc};
pub use pathlets::{PathletEntry, PathletTable};
pub use receiver::{MsgDelivered, MtpReceiver, MtpReceiverStats};
pub use sender::{MtpSender, MtpSenderStats, PathHealth, SenderEvent, DEFAULT_PATHLET};

/// DCTCP's EWMA gain for the marking-fraction estimate (1/16, as in the
/// DCTCP paper; shared by the pathlet controller and the `mtp-tcp`
/// baseline).
pub const DCTCP_G: f64 = 1.0 / 16.0;
