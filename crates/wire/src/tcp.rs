//! A simplified TCP segment header for the baseline transports.
//!
//! The baselines in this workspace (TCP NewReno, DCTCP) need a header that
//! captures the fields their control laws read: sequence/acknowledgement
//! numbers, flags (including the ECN echo pair), and the advertised receive
//! window. We model the receive window as a full 32-bit byte count rather
//! than a 16-bit field plus window scaling — the experiments run at
//! 100 Gbps where scaling would always be on, so this loses nothing and
//! avoids simulating an option negotiation the paper never discusses.
//!
//! A `conn_id` field stands in for the 4-tuple: the simulator does not model
//! IP addresses, so connection demultiplexing keys on an explicit ID. This
//! is a modelling convenience, not a protocol change.

use serde::{Deserialize, Serialize};

use crate::error::WireError;

/// TCP header flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash, Serialize, Deserialize)]
pub struct TcpFlags {
    /// Synchronize: connection setup.
    pub syn: bool,
    /// Acknowledgement field is valid.
    pub ack: bool,
    /// Finish: sender is done.
    pub fin: bool,
    /// Reset.
    pub rst: bool,
    /// ECN echo: receiver saw CE; latched until CWR (RFC 3168 / DCTCP uses
    /// per-packet echo, selected by the endpoint configuration).
    pub ece: bool,
    /// Congestion window reduced: sender acknowledges the ECE signal.
    pub cwr: bool,
}

impl TcpFlags {
    fn to_wire(self) -> u8 {
        (self.syn as u8)
            | (self.ack as u8) << 1
            | (self.fin as u8) << 2
            | (self.rst as u8) << 3
            | (self.ece as u8) << 4
            | (self.cwr as u8) << 5
    }

    fn from_wire(v: u8) -> TcpFlags {
        TcpFlags {
            syn: v & 1 != 0,
            ack: v & 2 != 0,
            fin: v & 4 != 0,
            rst: v & 8 != 0,
            ece: v & 16 != 0,
            cwr: v & 32 != 0,
        }
    }
}

/// The simplified TCP segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TcpHeader {
    /// Connection identifier standing in for the 4-tuple.
    pub conn_id: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// First sequence number of the payload.
    pub seq: u64,
    /// Cumulative acknowledgement number (next byte expected).
    pub ack: u64,
    /// Flags.
    pub flags: TcpFlags,
    /// Advertised receive window in bytes.
    pub rwnd: u32,
    /// Payload length in bytes (carried explicitly; the simulator does not
    /// model an IP total-length field).
    pub payload_len: u16,
}

/// Size of the simplified TCP header's fields, before the CRC-32 trailer
/// of its sealed form.
pub const TCP_HEADER_LEN: usize = 32;

/// Encoded size of the sealed TCP header: the 32-byte header with its
/// integrity byte set, followed by a 4-byte CRC-32 trailer. This stands in
/// for the real TCP checksum, which the simplified header otherwise lacks.
pub const TCP_SEALED_LEN: usize = TCP_HEADER_LEN + 4;

/// Value of byte 31 marking a sealed TCP header (a CRC-32 trailer follows).
pub const TCP_INTEGRITY_SEALED: u8 = 1;

impl Default for TcpHeader {
    fn default() -> Self {
        TcpHeader {
            conn_id: 0,
            src_port: 0,
            dst_port: 0,
            seq: 0,
            ack: 0,
            flags: TcpFlags::default(),
            rwnd: u32::MAX,
            payload_len: 0,
        }
    }
}

impl TcpHeader {
    /// Serialize the sealed form: byte 31 set to [`TCP_INTEGRITY_SEALED`]
    /// and a CRC-32 over the whole 32-byte header appended, standing in
    /// for the TCP checksum the simplified header otherwise lacks.
    pub fn to_sealed_bytes(&self) -> [u8; TCP_SEALED_LEN] {
        let mut out = [0u8; TCP_SEALED_LEN];
        out[0..4].copy_from_slice(&self.conn_id.to_be_bytes());
        out[4..6].copy_from_slice(&self.src_port.to_be_bytes());
        out[6..8].copy_from_slice(&self.dst_port.to_be_bytes());
        out[8..16].copy_from_slice(&self.seq.to_be_bytes());
        out[16..24].copy_from_slice(&self.ack.to_be_bytes());
        out[24] = self.flags.to_wire();
        out[25..29].copy_from_slice(&self.rwnd.to_be_bytes());
        out[29..31].copy_from_slice(&self.payload_len.to_be_bytes());
        out[31] = TCP_INTEGRITY_SEALED;
        let crc = crate::integrity::crc32(&out[..TCP_HEADER_LEN]);
        out[TCP_HEADER_LEN..].copy_from_slice(&crc.to_be_bytes());
        out
    }

    /// Parse and verify a sealed TCP header from the front of `buf`.
    /// Returns the header and the bytes consumed. Like the MTP sealed
    /// parser, the integrity byte must match exactly.
    pub fn parse_sealed(buf: &[u8]) -> Result<(TcpHeader, usize), WireError> {
        if buf.len() < TCP_SEALED_LEN {
            return Err(WireError::Truncated {
                needed: TCP_SEALED_LEN,
                got: buf.len(),
            });
        }
        if buf[31] != TCP_INTEGRITY_SEALED {
            return Err(WireError::BadIntegrityFlags(buf[31]));
        }
        let stored = u32::from_be_bytes([
            buf[TCP_HEADER_LEN],
            buf[TCP_HEADER_LEN + 1],
            buf[TCP_HEADER_LEN + 2],
            buf[TCP_HEADER_LEN + 3],
        ]);
        if crate::integrity::crc32(&buf[..TCP_HEADER_LEN]) != stored {
            return Err(WireError::BadHeaderCrc);
        }
        let hdr = TcpHeader {
            conn_id: u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]),
            src_port: u16::from_be_bytes([buf[4], buf[5]]),
            dst_port: u16::from_be_bytes([buf[6], buf[7]]),
            seq: u64::from_be_bytes([
                buf[8], buf[9], buf[10], buf[11], buf[12], buf[13], buf[14], buf[15],
            ]),
            ack: u64::from_be_bytes([
                buf[16], buf[17], buf[18], buf[19], buf[20], buf[21], buf[22], buf[23],
            ]),
            flags: TcpFlags::from_wire(buf[24]),
            rwnd: u32::from_be_bytes([buf[25], buf[26], buf[27], buf[28]]),
            payload_len: u16::from_be_bytes([buf[29], buf[30]]),
        };
        Ok((hdr, TCP_SEALED_LEN))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let hdr = TcpHeader {
            conn_id: 42,
            src_port: 1000,
            dst_port: 80,
            seq: 1 << 40,
            ack: 12345,
            flags: TcpFlags {
                syn: true,
                ack: true,
                ece: true,
                ..Default::default()
            },
            rwnd: 1 << 20,
            payload_len: 1460,
        };
        let bytes = hdr.to_sealed_bytes();
        assert_eq!(TcpHeader::parse_sealed(&bytes), Ok((hdr, TCP_SEALED_LEN)));
    }

    #[test]
    fn all_flags_roundtrip() {
        for bits in 0..64u8 {
            let flags = TcpFlags::from_wire(bits);
            assert_eq!(flags.to_wire(), bits);
        }
    }

    #[test]
    fn sealed_roundtrip() {
        let hdr = TcpHeader {
            conn_id: 9,
            seq: 1 << 33,
            ack: 77,
            payload_len: 1460,
            ..TcpHeader::default()
        };
        let sealed = hdr.to_sealed_bytes();
        let (back, used) = TcpHeader::parse_sealed(&sealed).unwrap();
        assert_eq!(used, TCP_SEALED_LEN);
        assert_eq!(back, hdr);
        // A zero integrity byte is refused before the CRC is read.
        let mut unsealed = sealed;
        unsealed[31] = 0;
        assert_eq!(
            TcpHeader::parse_sealed(&unsealed),
            Err(WireError::BadIntegrityFlags(0))
        );
    }

    #[test]
    fn sealed_detects_every_single_bit_flip() {
        let sealed = TcpHeader {
            conn_id: 3,
            seq: 1234,
            payload_len: 512,
            ..TcpHeader::default()
        }
        .to_sealed_bytes();
        for bit in 0..TCP_SEALED_LEN * 8 {
            let mut m = sealed;
            m[bit / 8] ^= 1 << (bit % 8);
            assert!(TcpHeader::parse_sealed(&m).is_err(), "flip at bit {bit}");
        }
    }

    #[test]
    fn sealed_rejects_truncation_at_every_cut() {
        let sealed = TcpHeader::default().to_sealed_bytes();
        for cut in 0..TCP_SEALED_LEN {
            assert!(
                TcpHeader::parse_sealed(&sealed[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }
}
