//! # mtp-wire — wire formats for the MTP message transport
//!
//! This crate implements the **byte-exact MTP packet header** from Figure 4
//! of *"TCP is Harmful to In-Network Computing: Designing a Message
//! Transport Protocol (MTP)"* (HotNets'21), together with the simplified
//! TCP segment header used by the baseline transports in this workspace.
//!
//! The MTP header carries, in every packet:
//!
//! * addressing (source/destination ports),
//! * **message-level information** — message ID, priority, message length in
//!   bytes and packets, this packet's number, offset, and length — which is
//!   what lets in-network devices parse, buffer, mutate, load-balance, and
//!   schedule individual messages with bounded state (paper §3.1.1–3.1.2),
//! * **pathlet congestion-control information** — a *path-exclude* list
//!   (sender → network: "do not use these pathlets"), a *path-feedback* list
//!   (network → receiver: per-pathlet TLV congestion feedback, appended by
//!   switches as the packet traverses them), and an *ACK-path-feedback* list
//!   (receiver → sender: the echoed feedback) (paper §3.1.3),
//! * **SACK and NACK lists** that acknowledge `(message ID, packet number)`
//!   pairs rather than byte ranges, which is what makes in-network data
//!   mutation compatible with reliability (paper §2.2, §3.1.2).
//!
//! [`header::MtpHeader`] is the one representation and the one decoder: an
//! owned structure with [`parse_sealed`](header::MtpHeader::parse_sealed) /
//! [`emit_sealed`](header::MtpHeader::emit_sealed) that round-trip through
//! the byte format. The sealed form is the only byte form: every header on
//! the wire carries its CRC and payload-checksum trailer.
//!
//! The simulator crates carry the owned representation inside simulated
//! packets; round-trip tests (including property-based tests) guarantee the
//! structured form and the wire format cannot drift apart.
//!
//! ## Wire layout
//!
//! All multi-byte fields are network byte order (big endian). The fixed
//! portion is 44 bytes; five variable-length sections follow, with their
//! entry counts stored in the fixed portion:
//!
//! ```text
//! offset  size  field
//!      0     2  src_port
//!      2     2  dst_port
//!      4     1  pkt_type            (Data / Ack / Nack / Control)
//!      5     1  msg_pri             (application-assigned message priority)
//!      6     1  tc                  (traffic class assigned to the message)
//!      7     1  flags               (LAST_PKT, RETX, ECT, TRIMMED)
//!      8     8  msg_id              (unique among outstanding messages)
//!     16     2  entity              (tenant/entity for multi-entity isolation)
//!     18     4  msg_len_pkts        (message length in packets)
//!     22     4  msg_len_bytes       (message length in bytes)
//!     26     4  pkt_num             (this packet's number within the message)
//!     30     2  pkt_len             (this packet's payload length in bytes)
//!     32     4  pkt_offset          (this packet's byte offset in the message)
//!     36     1  path_exclude_count
//!     37     1  path_feedback_count
//!     38     1  ack_path_feedback_count
//!     39     1  sack_count
//!     40     1  nack_count
//!     41     1  integrity_flags     (always 0x03 = sealed, see below)
//!     42     2  header_crc          (CRC-16/CCITT over the header)
//!     44     -  path_exclude        (path_id u16, tc u8) * n            — 3 B each
//!      .     -  path_feedback       (path_id u16, tc u8, TLV) * n       — 5+len B each
//!      .     -  ack_path_feedback   (path_id u16, tc u8, TLV) * n       — 5+len B each
//!      .     -  sack                (msg_id u64, pkt_num u32) * n       — 12 B each
//!      .     -  nack                (msg_id u64, pkt_num u32) * n       — 12 B each
//! ```
//!
//! Feedback values are TLVs (`type u8, len u8, value[len]`) so that
//! different pathlets can report **different congestion signals** in one
//! packet — an ECN mark, an explicit rate, a delay sample, a queue depth
//! (paper §3.1.3, §4 "Managing Complexity"). Which tags a controller reads
//! today is listed at [`Feedback`].
//!
//! ## Integrity (the sealed form)
//!
//! Because in-network devices *trust and mutate* header fields in flight,
//! the header carries its own integrity protection in bytes 41–43 plus a
//! 4-byte payload-checksum trailer after the last variable section (see
//! [`integrity`]). [`MtpHeader::to_sealed_bytes`] /
//! [`MtpHeader::parse_sealed`] produce and require it exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capabilities;
pub mod error;
pub mod feedback;
pub mod header;
pub mod integrity;
pub mod session;
pub mod tcp;
pub mod types;

pub use error::WireError;
pub use feedback::{Feedback, PathFeedback};
pub use header::{MtpHeader, PathExclude, SackEntry};
pub use integrity::{crc16_ccitt, crc32, INTEGRITY_SEALED, PAYLOAD_CSUM_LEN};
pub use session::{
    CtrlKind, SessionCtrl, SESSION_CTRL_CRC_LEN, SESSION_CTRL_FIXED_LEN, SESSION_WIRE_VERSION,
};
pub use tcp::{TcpFlags, TcpHeader, TCP_INTEGRITY_SEALED, TCP_SEALED_LEN};
pub use types::{EcnCodepoint, EntityId, MsgId, PathletId, PktNum, PktType, TrafficClass};

/// Size in bytes of the fixed (non-variable) portion of the MTP header.
pub const FIXED_HEADER_LEN: usize = 44;

/// Bytes per path-exclude entry: `path_id: u16` + `tc: u8`.
pub const PATH_EXCLUDE_ENTRY_LEN: usize = 3;

/// Bytes per SACK/NACK entry: `msg_id: u64` + `pkt_num: u32`.
pub const SACK_ENTRY_LEN: usize = 12;

/// Fixed prefix of a path-feedback entry before the TLV value:
/// `path_id: u16` + `tc: u8` + `fb_type: u8` + `fb_len: u8`.
pub const PATH_FEEDBACK_PREFIX_LEN: usize = 5;
