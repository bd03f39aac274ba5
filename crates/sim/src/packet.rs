//! The simulated packet.
//!
//! A [`Packet`] models one frame on the wire: a typed transport header, an
//! IP-level ECN codepoint, a total wire length (which determines
//! serialization time), and an optional application payload tag used by
//! offloads that actually inspect data (the in-network KVS cache, the
//! compression offload). Payload *bytes* are not simulated — only their
//! length — except where an offload needs content, in which case the
//! compact [`AppData`] tag stands in for it.

use serde::{Deserialize, Serialize};

use mtp_wire::{EcnCodepoint, MtpHeader, TcpHeader};

use crate::time::Time;

/// Globally unique packet identifier (assigned by the simulator, never
/// reused; survives forwarding but not mutation-into-new-packets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PacketId(pub u64);

/// Which wire format a [`Headers::Mangled`] byte buffer originally held.
///
/// Corruption turns a structured header into bytes (the sealed wire form
/// with the fault's bit-flips applied); the receiver-side verifier needs to
/// know which parser to run, exactly as a real NIC knows the ethertype of a
/// frame whose contents it has not yet trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WireProto {
    /// A native MTP packet (sealed MTP header bytes).
    Mtp,
    /// A TCP segment (sealed TCP header bytes).
    Tcp,
}

/// The transport header carried by a packet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Headers {
    /// A TCP segment (baseline transports).
    Tcp(TcpHeader),
    /// An MTP packet. Boxed: the header contains variable-length lists and
    /// dominates `Packet`'s size otherwise.
    Mtp(Box<MtpHeader>),
    /// A raw frame with no modelled transport header (background traffic).
    Raw,
    /// A header whose wire bytes took corruption in flight. The structured
    /// form is gone — all that remains is the (sealed) byte serialization
    /// with the fault's damage applied, which every receiver must verify
    /// before trusting. Built only by the engine's corruption faults.
    Mangled {
        /// Which wire format the bytes held before corruption.
        proto: WireProto,
        /// The damaged sealed wire bytes (possibly truncated).
        bytes: Vec<u8>,
    },
}

impl Headers {
    /// Convenience: borrow the MTP header if this is an MTP packet.
    pub fn as_mtp(&self) -> Option<&MtpHeader> {
        match self {
            Headers::Mtp(h) => Some(h),
            _ => None,
        }
    }

    /// Convenience: mutably borrow the MTP header if this is an MTP packet.
    pub fn as_mtp_mut(&mut self) -> Option<&mut MtpHeader> {
        match self {
            Headers::Mtp(h) => Some(h),
            _ => None,
        }
    }

    /// Convenience: borrow the TCP header if this is a TCP segment.
    pub fn as_tcp(&self) -> Option<&TcpHeader> {
        match self {
            Headers::Tcp(h) => Some(h),
            _ => None,
        }
    }
}

/// Compact stand-in for application payload content, used only by offloads
/// that inspect data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AppData {
    /// A key-value GET request for `key`.
    KvGet {
        /// The requested key.
        key: u64,
    },
    /// A key-value PUT request for `key`.
    KvPut {
        /// The written key.
        key: u64,
    },
    /// A key-value reply.
    KvReply {
        /// The key the reply is for.
        key: u64,
        /// Whether an in-network cache answered it (vs. a backend).
        from_cache: bool,
    },
    /// Opaque application tag (e.g. which blob a packet belongs to).
    Opaque(u64),
}

/// One simulated frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Packet {
    /// Unique id, for tracing and debugging.
    pub id: PacketId,
    /// Total bytes this frame occupies on the wire (headers + payload).
    /// Serialization delay is `wire_len / link_rate`.
    pub wire_len: u32,
    /// IP-level ECN codepoint.
    pub ecn: EcnCodepoint,
    /// Transport header.
    pub headers: Headers,
    /// Optional content tag for data-inspecting offloads.
    pub app: Option<AppData>,
    /// When the original sender transmitted this packet (set once by the
    /// sending endpoint; used for delay-based feedback and FCT accounting).
    pub sent_at: Time,
    /// True if a corruption fault hit the *payload* region of the frame
    /// (the header survived). Receivers model a payload-checksum failure:
    /// data packets so marked are dropped and counted, never delivered to
    /// the application.
    pub payload_dirty: bool,
}

impl Packet {
    /// Build a packet with the given header and wire length. The simulator
    /// fills in `id`; endpoints fill in `sent_at`.
    pub fn new(headers: Headers, wire_len: u32) -> Packet {
        Packet {
            id: PacketId(0),
            wire_len,
            ecn: EcnCodepoint::Ect0,
            headers,
            app: None,
            sent_at: Time::ZERO,
            payload_dirty: false,
        }
    }

    /// Attach an application content tag.
    pub fn with_app(mut self, app: AppData) -> Packet {
        self.app = Some(app);
        self
    }

    /// Mark the packet not-ECN-capable (it will be dropped, not marked, at
    /// an ECN queue).
    pub fn without_ect(mut self) -> Packet {
        self.ecn = EcnCodepoint::NotEct;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_accessors() {
        let mut p = Packet::new(Headers::Mtp(Box::default()), 1500);
        assert!(p.headers.as_mtp().is_some());
        assert!(p.headers.as_tcp().is_none());
        p.headers.as_mtp_mut().unwrap().msg_pri = 9;
        assert_eq!(p.headers.as_mtp().unwrap().msg_pri, 9);

        let t = Packet::new(Headers::Tcp(TcpHeader::default()), 64);
        assert!(t.headers.as_tcp().is_some());
        assert!(t.headers.as_mtp().is_none());
    }

    #[test]
    fn builders() {
        let p = Packet::new(Headers::Raw, 100)
            .with_app(AppData::KvGet { key: 7 })
            .without_ect();
        assert_eq!(p.app, Some(AppData::KvGet { key: 7 }));
        assert!(!p.ecn.is_ect());
    }
}
