//! Session-control wire format: HELLO, FIN, and keepalive frames.
//!
//! The real-wire backend (`mtp-io`) bootstraps a connection with a
//! versioned HELLO/HELLO-ACK exchange (or a BUSY refusal), keeps it alive
//! with PING/PONG probes, and tears it down with FIN/FIN-ACK. Those
//! control frames ride the same datagrams as data frames, so they get the
//! same treatment the sealed MTP header gets: a fixed layout, network
//! byte order, and a CRC-16/CCITT trailer that convicts any in-flight
//! corruption instead of letting a damaged port map poison a session.
//! The format is small and self-delimiting:
//!
//! ```text
//! offset  size  field
//!      0     1  version          (nonzero; current = SESSION_WIRE_VERSION)
//!      1     1  kind             (Hello / HelloAck / Fin / FinAck / Ping / Pong / Busy)
//!      2     2  src_port         (MTP app port of the frame's sender)
//!      4     2  dst_port         (MTP app port of the frame's receiver)
//!      6     8  session_id       (initiator-chosen id; echoed everywhere)
//!     14     8  peer_session_id  (responder-chosen id; 0 until HELLO-ACK)
//!     22     4  seq              (retry round / probe counter, diagnostics)
//!     26     1  n_ports
//!     27     1  reserved         (must be zero)
//!     28    2n  ports            (u16 each: the advertiser's per-pathlet
//!                                 UDP ports, in pathlet-id order)
//!   28+2n    2  crc16            (CRC-16/CCITT over all preceding bytes)
//! ```
//!
//! The port list is what replaces PR 8's fixed out-of-band port maps: a
//! HELLO-ACK carries the responder's per-pathlet UDP ports, so the
//! initiator learns where to spray data. A middlebox (the lossy relay in
//! `mtp-io`) may rewrite the list NAT-style — which is why the frame is
//! re-sealed, never patched in place.

use crate::error::WireError;
use crate::integrity::crc16_ccitt;

/// The session-control wire version this crate emits.
///
/// Parsers accept any **nonzero** version byte and surface it to the
/// caller; the session layer decides whether to speak it. Zero is
/// reserved as an obvious-corruption sentinel.
pub const SESSION_WIRE_VERSION: u8 = 1;

/// Fixed portion of a session-control frame (everything before the port
/// list), in bytes.
pub const SESSION_CTRL_FIXED_LEN: usize = 28;

/// CRC trailer length of a session-control frame, in bytes.
pub const SESSION_CTRL_CRC_LEN: usize = 2;

/// What a session-control frame does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CtrlKind {
    /// Initiator → responder: open a session, advertise my ports.
    Hello = 0,
    /// Responder → initiator: session accepted, here are my ports.
    HelloAck = 1,
    /// Initiator → responder: all messages retired, closing.
    Fin = 2,
    /// Responder → initiator: close acknowledged (re-sent from
    /// TIME-WAIT for every duplicate FIN).
    FinAck = 3,
    /// Liveness probe.
    Ping = 4,
    /// Liveness probe reply.
    Pong = 5,
    /// Responder → initiator: refused, another session is held.
    Busy = 6,
}

impl CtrlKind {
    /// Decode a wire discriminant.
    pub fn from_wire(v: u8) -> Result<CtrlKind, WireError> {
        match v {
            0 => Ok(CtrlKind::Hello),
            1 => Ok(CtrlKind::HelloAck),
            2 => Ok(CtrlKind::Fin),
            3 => Ok(CtrlKind::FinAck),
            4 => Ok(CtrlKind::Ping),
            5 => Ok(CtrlKind::Pong),
            6 => Ok(CtrlKind::Busy),
            other => Err(WireError::BadCtrlKind(other)),
        }
    }
}

/// An owned session-control frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionCtrl {
    /// Wire version (nonzero; emit [`SESSION_WIRE_VERSION`]).
    pub version: u8,
    /// What this frame does.
    pub kind: CtrlKind,
    /// MTP app port of the frame's sender.
    pub src_port: u16,
    /// MTP app port of the frame's receiver.
    pub dst_port: u16,
    /// Initiator-chosen session id, echoed on every frame of the session.
    pub session_id: u64,
    /// Responder-chosen session id (0 until the HELLO-ACK assigns one).
    pub peer_session_id: u64,
    /// Retry round or probe counter — diagnostics only, never compared.
    pub seq: u32,
    /// The advertiser's per-pathlet UDP ports, in pathlet-id order.
    /// Empty on frames that advertise nothing (FIN, PING, PONG).
    pub ports: Vec<u16>,
}

impl SessionCtrl {
    /// A frame of `kind` with the given ids and no port list.
    pub fn new(kind: CtrlKind, session_id: u64, peer_session_id: u64) -> SessionCtrl {
        SessionCtrl {
            version: SESSION_WIRE_VERSION,
            kind,
            src_port: 0,
            dst_port: 0,
            session_id,
            peer_session_id,
            seq: 0,
            ports: Vec::new(),
        }
    }

    /// Encoded size of this frame, CRC trailer included.
    pub fn wire_len(&self) -> usize {
        SESSION_CTRL_FIXED_LEN + 2 * self.ports.len() + SESSION_CTRL_CRC_LEN
    }

    /// Emit the sealed frame into `buf` (must be at least
    /// [`wire_len`](SessionCtrl::wire_len) bytes). Returns bytes written.
    pub fn emit_sealed(&self, buf: &mut [u8]) -> Result<usize, WireError> {
        if self.ports.len() > u8::MAX as usize {
            return Err(WireError::TooManyEntries {
                list: "session ports",
                count: self.ports.len(),
            });
        }
        let need = self.wire_len();
        if buf.len() < need {
            return Err(WireError::Truncated {
                needed: need,
                got: buf.len(),
            });
        }
        buf[0] = self.version;
        buf[1] = self.kind as u8;
        buf[2..4].copy_from_slice(&self.src_port.to_be_bytes());
        buf[4..6].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[6..14].copy_from_slice(&self.session_id.to_be_bytes());
        buf[14..22].copy_from_slice(&self.peer_session_id.to_be_bytes());
        buf[22..26].copy_from_slice(&self.seq.to_be_bytes());
        buf[26] = self.ports.len() as u8;
        buf[27] = 0;
        let mut at = SESSION_CTRL_FIXED_LEN;
        for &p in &self.ports {
            buf[at..at + 2].copy_from_slice(&p.to_be_bytes());
            at += 2;
        }
        let crc = crc16_ccitt(&buf[..at]);
        buf[at..at + 2].copy_from_slice(&crc.to_be_bytes());
        Ok(at + 2)
    }

    /// Emit the sealed frame as a fresh vector.
    pub fn to_sealed_bytes(&self) -> Result<Vec<u8>, WireError> {
        let mut buf = vec![0u8; self.wire_len()];
        let n = self.emit_sealed(&mut buf)?;
        buf.truncate(n);
        Ok(buf)
    }

    /// Parse a sealed frame from the front of `buf`. Returns the frame
    /// and the bytes consumed; callers that know the frame boundary must
    /// also check `consumed == frame.len()` (a corrupted port count can
    /// re-frame the walk, but then the length no longer matches).
    pub fn parse_sealed(buf: &[u8]) -> Result<(SessionCtrl, usize), WireError> {
        let min = SESSION_CTRL_FIXED_LEN + SESSION_CTRL_CRC_LEN;
        if buf.len() < min {
            return Err(WireError::Truncated {
                needed: min,
                got: buf.len(),
            });
        }
        let version = buf[0];
        if version == 0 {
            return Err(WireError::BadCtrlVersion(0));
        }
        let kind = CtrlKind::from_wire(buf[1])?;
        let n_ports = buf[26] as usize;
        let need = SESSION_CTRL_FIXED_LEN + 2 * n_ports + SESSION_CTRL_CRC_LEN;
        if buf.len() < need {
            return Err(WireError::Truncated {
                needed: need,
                got: buf.len(),
            });
        }
        if buf[27] != 0 {
            return Err(WireError::BadReserved);
        }
        let crc_at = need - SESSION_CTRL_CRC_LEN;
        let want = u16::from_be_bytes([buf[crc_at], buf[crc_at + 1]]);
        if crc16_ccitt(&buf[..crc_at]) != want {
            return Err(WireError::BadHeaderCrc);
        }
        let ports = (0..n_ports)
            .map(|k| {
                let at = SESSION_CTRL_FIXED_LEN + 2 * k;
                u16::from_be_bytes([buf[at], buf[at + 1]])
            })
            .collect();
        Ok((
            SessionCtrl {
                version,
                kind,
                src_port: u16::from_be_bytes([buf[2], buf[3]]),
                dst_port: u16::from_be_bytes([buf[4], buf[5]]),
                session_id: u64::from_be_bytes(buf[6..14].try_into().expect("8 bytes")),
                peer_session_id: u64::from_be_bytes(buf[14..22].try_into().expect("8 bytes")),
                seq: u32::from_be_bytes(buf[22..26].try_into().expect("4 bytes")),
                ports,
            },
            need,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SessionCtrl {
        SessionCtrl {
            version: SESSION_WIRE_VERSION,
            kind: CtrlKind::HelloAck,
            src_port: 2,
            dst_port: 1,
            session_id: 0xDEAD_BEEF_0BAD_F00D,
            peer_session_id: 0x1234_5678_9ABC_DEF0,
            seq: 3,
            ports: vec![40_001, 40_002, 40_003, 40_004],
        }
    }

    #[test]
    fn roundtrip_all_kinds() {
        for kind in [
            CtrlKind::Hello,
            CtrlKind::HelloAck,
            CtrlKind::Fin,
            CtrlKind::FinAck,
            CtrlKind::Ping,
            CtrlKind::Pong,
            CtrlKind::Busy,
        ] {
            let mut c = sample();
            c.kind = kind;
            let bytes = c.to_sealed_bytes().unwrap();
            assert_eq!(bytes.len(), c.wire_len());
            let (back, used) = SessionCtrl::parse_sealed(&bytes).unwrap();
            assert_eq!(back, c);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn empty_port_list_roundtrips() {
        let c = SessionCtrl::new(CtrlKind::Ping, 7, 9);
        let bytes = c.to_sealed_bytes().unwrap();
        assert_eq!(bytes.len(), SESSION_CTRL_FIXED_LEN + SESSION_CTRL_CRC_LEN);
        let (back, _) = SessionCtrl::parse_sealed(&bytes).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn every_single_bit_flip_is_rejected_or_reframed() {
        let c = sample();
        let bytes = c.to_sealed_bytes().unwrap();
        for bit in 0..bytes.len() * 8 {
            let mut m = bytes.clone();
            m[bit / 8] ^= 1 << (bit % 8);
            let detected = match SessionCtrl::parse_sealed(&m) {
                Err(_) => true,
                Ok((_, used)) => used != m.len(),
            };
            assert!(detected, "flip at bit {bit} went unnoticed");
        }
    }

    #[test]
    fn truncation_at_every_cut_is_rejected() {
        let bytes = sample().to_sealed_bytes().unwrap();
        for cut in 0..bytes.len() {
            assert!(
                SessionCtrl::parse_sealed(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn zero_version_and_bad_kind_are_typed_errors() {
        let bytes = sample().to_sealed_bytes().unwrap();
        let mut zero_ver = bytes.clone();
        zero_ver[0] = 0;
        assert!(matches!(
            SessionCtrl::parse_sealed(&zero_ver),
            Err(WireError::BadCtrlVersion(0))
        ));
        // An unknown kind is rejected as such even before the CRC check
        // can vouch for it (re-seal so only the kind is wrong).
        let mut c = sample();
        c.kind = CtrlKind::Pong;
        let mut bytes = c.to_sealed_bytes().unwrap();
        bytes[1] = 99;
        let crc_at = bytes.len() - 2;
        let crc = crc16_ccitt(&bytes[..crc_at]).to_be_bytes();
        bytes[crc_at..].copy_from_slice(&crc);
        assert!(matches!(
            SessionCtrl::parse_sealed(&bytes),
            Err(WireError::BadCtrlKind(99))
        ));
    }

    #[test]
    fn oversized_port_list_is_rejected_at_emit() {
        let mut c = sample();
        c.ports = vec![1; 256];
        assert!(matches!(
            c.to_sealed_bytes(),
            Err(WireError::TooManyEntries { .. })
        ));
    }

    #[test]
    fn future_version_parses_and_surfaces() {
        let mut c = sample();
        c.version = 9;
        let bytes = c.to_sealed_bytes().unwrap();
        let (back, _) = SessionCtrl::parse_sealed(&bytes).unwrap();
        assert_eq!(back.version, 9);
    }
}
