//! The owned, high-level MTP header representation.
//!
//! [`MtpHeader`] mirrors Figure 4 of the paper field-for-field. It is the
//! form carried inside simulated packets and manipulated by endpoints and
//! in-network devices; [`MtpHeader::emit_sealed`] /
//! [`MtpHeader::parse_sealed`] convert to and from the byte-exact sealed
//! wire format documented in the crate root, the only byte form it has.

use serde::{Deserialize, Serialize};

use crate::error::WireError;
use crate::feedback::{Feedback, PathFeedback};
use crate::types::{flags, EntityId, MsgId, PathletId, PktNum, PktType, TrafficClass};
use crate::{FIXED_HEADER_LEN, PATH_EXCLUDE_ENTRY_LEN, PATH_FEEDBACK_PREFIX_LEN, SACK_ENTRY_LEN};

/// One entry of the path-exclude list: the sender asks the network not to
/// route this packet over the given pathlet/TC because the sender has
/// received feedback that it is congested (paper §3.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PathExclude {
    /// The pathlet the sender wants avoided.
    pub path: PathletId,
    /// The traffic class for which the exclusion applies.
    pub tc: TrafficClass,
}

/// One entry of the SACK or NACK list: acknowledgements in MTP name
/// `(message, packet)` pairs, never byte ranges (paper §3.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SackEntry {
    /// The message the entry refers to.
    pub msg: MsgId,
    /// The packet number within that message.
    pub pkt: PktNum,
}

/// The complete MTP packet header (paper Figure 4).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MtpHeader {
    /// Source application port.
    pub src_port: u16,
    /// Destination application port.
    pub dst_port: u16,
    /// What kind of packet this is.
    pub pkt_type: PktType,
    /// Application-assigned relative priority of this message.
    pub msg_pri: u8,
    /// Traffic class assigned to this message.
    pub tc: TrafficClass,
    /// Header flags (see [`crate::types::flags`]).
    pub flags: u8,
    /// Unique ID among all outstanding messages from this end-host.
    pub msg_id: MsgId,
    /// Originating entity (tenant) for per-entity isolation.
    pub entity: EntityId,
    /// Message length in packets.
    pub msg_len_pkts: u32,
    /// Message length in bytes.
    pub msg_len_bytes: u32,
    /// This packet's number within the message (0-based).
    pub pkt_num: PktNum,
    /// This packet's payload length in bytes.
    pub pkt_len: u16,
    /// This packet's byte offset within the message.
    pub pkt_offset: u32,
    /// Pathlets the sender asks the network to avoid.
    pub path_exclude: Vec<PathExclude>,
    /// Per-pathlet feedback appended by network devices en route.
    pub path_feedback: Vec<PathFeedback>,
    /// Feedback echoed by the receiver back to the sender.
    pub ack_path_feedback: Vec<PathFeedback>,
    /// Selective acknowledgements: packets that arrived.
    pub sack: Vec<SackEntry>,
    /// Negative acknowledgements: packets known missing.
    pub nack: Vec<SackEntry>,
}

impl Default for MtpHeader {
    fn default() -> Self {
        MtpHeader {
            src_port: 0,
            dst_port: 0,
            pkt_type: PktType::Data,
            msg_pri: 0,
            tc: TrafficClass::BEST_EFFORT,
            flags: 0,
            msg_id: MsgId(0),
            entity: EntityId(0),
            msg_len_pkts: 0,
            msg_len_bytes: 0,
            pkt_num: PktNum(0),
            pkt_len: 0,
            pkt_offset: 0,
            path_exclude: Vec::new(),
            path_feedback: Vec::new(),
            ack_path_feedback: Vec::new(),
            sack: Vec::new(),
            nack: Vec::new(),
        }
    }
}

impl MtpHeader {
    /// Restore the default-constructed state while keeping the capacity of
    /// the variable-length sections, so a recycled header (see the
    /// simulator's header pool) re-fills them without reallocating.
    pub fn reset(&mut self) {
        self.src_port = 0;
        self.dst_port = 0;
        self.pkt_type = PktType::Data;
        self.msg_pri = 0;
        self.tc = TrafficClass::BEST_EFFORT;
        self.flags = 0;
        self.msg_id = MsgId(0);
        self.entity = EntityId(0);
        self.msg_len_pkts = 0;
        self.msg_len_bytes = 0;
        self.pkt_num = PktNum(0);
        self.pkt_len = 0;
        self.pkt_offset = 0;
        self.path_exclude.clear();
        self.path_feedback.clear();
        self.ack_path_feedback.clear();
        self.sack.clear();
        self.nack.clear();
    }

    /// Total encoded length of this header in bytes.
    pub fn wire_len(&self) -> usize {
        FIXED_HEADER_LEN
            + self.path_exclude.len() * PATH_EXCLUDE_ENTRY_LEN
            + self
                .path_feedback
                .iter()
                .map(PathFeedback::wire_len)
                .sum::<usize>()
            + self
                .ack_path_feedback
                .iter()
                .map(PathFeedback::wire_len)
                .sum::<usize>()
            + (self.sack.len() + self.nack.len()) * SACK_ENTRY_LEN
    }

    /// True if this packet carries the [`flags::LAST_PKT`] flag.
    pub fn is_last_pkt(&self) -> bool {
        self.flags & flags::LAST_PKT != 0
    }

    /// True if this packet is a retransmission.
    pub fn is_retx(&self) -> bool {
        self.flags & flags::RETX != 0
    }

    /// True if the packet's payload was trimmed by a switch.
    pub fn is_trimmed(&self) -> bool {
        self.flags & flags::TRIMMED != 0
    }

    /// Write every byte of the sealed header but the CRC (bytes 42–43)
    /// and the trailer into `buf`, which
    /// [`emit_sealed`](Self::emit_sealed) has checked holds them; `need`
    /// is [`wire_len`](Self::wire_len), computed once by the caller since
    /// it walks the feedback lists.
    fn emit_fields(&self, buf: &mut [u8], need: usize) -> Result<(), WireError> {
        for (list, name) in [
            (self.path_exclude.len(), "path_exclude"),
            (self.path_feedback.len(), "path_feedback"),
            (self.ack_path_feedback.len(), "ack_path_feedback"),
            (self.sack.len(), "sack"),
            (self.nack.len(), "nack"),
        ] {
            if list > u8::MAX as usize {
                return Err(WireError::TooManyEntries {
                    list: name,
                    count: list,
                });
            }
        }

        // One length check up front (`need >= FIXED_HEADER_LEN` always),
        // then every fixed-field store compiles to a plain offset write.
        let fixed: &mut [u8; FIXED_HEADER_LEN] = (&mut buf[..FIXED_HEADER_LEN])
            .try_into()
            .expect("length checked above");
        fixed[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        fixed[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        fixed[4] = self.pkt_type as u8;
        fixed[5] = self.msg_pri;
        fixed[6] = self.tc.0;
        fixed[7] = self.flags;
        fixed[8..16].copy_from_slice(&self.msg_id.0.to_be_bytes());
        fixed[16..18].copy_from_slice(&self.entity.0.to_be_bytes());
        fixed[18..22].copy_from_slice(&self.msg_len_pkts.to_be_bytes());
        fixed[22..26].copy_from_slice(&self.msg_len_bytes.to_be_bytes());
        fixed[26..30].copy_from_slice(&self.pkt_num.0.to_be_bytes());
        fixed[30..32].copy_from_slice(&self.pkt_len.to_be_bytes());
        fixed[32..36].copy_from_slice(&self.pkt_offset.to_be_bytes());
        fixed[36] = self.path_exclude.len() as u8;
        fixed[37] = self.path_feedback.len() as u8;
        fixed[38] = self.ack_path_feedback.len() as u8;
        fixed[39] = self.sack.len() as u8;
        fixed[40] = self.nack.len() as u8;
        fixed[41] = crate::integrity::INTEGRITY_SEALED;

        let mut at = FIXED_HEADER_LEN;
        for e in &self.path_exclude {
            buf[at..at + 2].copy_from_slice(&e.path.0.to_be_bytes());
            buf[at + 2] = e.tc.0;
            at += PATH_EXCLUDE_ENTRY_LEN;
        }
        for list in [&self.path_feedback, &self.ack_path_feedback] {
            for e in list {
                buf[at..at + 2].copy_from_slice(&e.path.0.to_be_bytes());
                buf[at + 2] = e.tc.0;
                buf[at + 3] = e.feedback.wire_type();
                let vlen = e.feedback.value_len();
                buf[at + 4] = vlen as u8;
                e.feedback.emit_value(
                    &mut buf[at + PATH_FEEDBACK_PREFIX_LEN..at + PATH_FEEDBACK_PREFIX_LEN + vlen],
                );
                at += PATH_FEEDBACK_PREFIX_LEN + vlen;
            }
        }
        for list in [&self.sack, &self.nack] {
            for e in list {
                let entry: &mut [u8; SACK_ENTRY_LEN] = (&mut buf[at..at + SACK_ENTRY_LEN])
                    .try_into()
                    .expect("length checked above");
                entry[0..8].copy_from_slice(&e.msg.0.to_be_bytes());
                entry[8..12].copy_from_slice(&e.pkt.0.to_be_bytes());
                at += SACK_ENTRY_LEN;
            }
        }
        debug_assert_eq!(at, need);
        Ok(())
    }

    /// Total encoded length of the *sealed* form of this header: the
    /// header with its CRC filled in, plus the payload-checksum trailer.
    pub fn sealed_wire_len(&self) -> usize {
        self.wire_len() + crate::integrity::PAYLOAD_CSUM_LEN
    }

    /// Upper bound on the sealed size of *any* header whose list sections
    /// hold at most the given entry counts, assuming the widest feedback
    /// TLV for every feedback entry. Real-wire drivers use this to prove
    /// a datagram budget can never be exceeded at seal time — the guard
    /// holds for the worst header shape the protocol can emit, not just
    /// the ones a particular run happened to produce.
    pub fn max_sealed_wire_len(
        n_exclude: usize,
        n_feedback: usize,
        n_ack_feedback: usize,
        n_sack: usize,
        n_nack: usize,
    ) -> usize {
        FIXED_HEADER_LEN
            + n_exclude * PATH_EXCLUDE_ENTRY_LEN
            + (n_feedback + n_ack_feedback) * PathFeedback::MAX_WIRE_LEN
            + (n_sack + n_nack) * SACK_ENTRY_LEN
            + crate::integrity::PAYLOAD_CSUM_LEN
    }

    /// CRC-32 over the payload's wire descriptor (`msg_id`, `pkt_num`,
    /// `pkt_offset`, `pkt_len`). Payload bytes are not simulated, so this
    /// descriptor stands in for them: any corruption of the fields that
    /// tie a payload to its place in a message is caught, and the
    /// simulator flags hits to the simulated payload region separately.
    pub fn payload_csum(&self) -> u32 {
        let mut d = [0u8; 18];
        d[0..8].copy_from_slice(&self.msg_id.0.to_be_bytes());
        d[8..12].copy_from_slice(&self.pkt_num.0.to_be_bytes());
        d[12..16].copy_from_slice(&self.pkt_offset.to_be_bytes());
        d[16..18].copy_from_slice(&self.pkt_len.to_be_bytes());
        crate::integrity::crc32(&d)
    }

    /// Serialize the sealed form: the wire header with byte 41 set to
    /// [`INTEGRITY_SEALED`](crate::integrity::INTEGRITY_SEALED), a
    /// CRC-16/CCITT of the whole header in bytes 42–43 (computed with
    /// those two bytes as zero), and the 4-byte payload-checksum trailer.
    pub fn to_sealed_bytes(&self) -> Result<Vec<u8>, WireError> {
        let mut buf = vec![0u8; self.sealed_wire_len()];
        self.emit_sealed(&mut buf)?;
        Ok(buf)
    }

    /// Serialize the sealed form into `buf`, which must be at least
    /// [`sealed_wire_len`](Self::sealed_wire_len) bytes. Returns the
    /// number of bytes written. Unlike
    /// [`to_sealed_bytes`](Self::to_sealed_bytes) this allocates nothing,
    /// so per-frame sealing (the corruption studies' hot path) can run
    /// out of a recycled buffer.
    pub fn emit_sealed(&self, buf: &mut [u8]) -> Result<usize, WireError> {
        let used = self.wire_len();
        let need = used + crate::integrity::PAYLOAD_CSUM_LEN;
        if buf.len() < need {
            return Err(WireError::Truncated {
                needed: need,
                got: buf.len(),
            });
        }
        self.emit_fields(buf, used)?;
        let crc = crate::integrity::header_crc16(&buf[..used]);
        buf[42..44].copy_from_slice(&crc.to_be_bytes());
        buf[used..need].copy_from_slice(&self.payload_csum().to_be_bytes());
        Ok(need)
    }

    /// Parse and verify a sealed header from the front of `buf`.
    ///
    /// Returns the header, the total bytes consumed (header + trailer),
    /// and whether the payload checksum in the trailer matched. A CRC
    /// failure anywhere in the header region is an error; a mismatched
    /// *payload* checksum is not — the header is trustworthy, the payload
    /// is not, and the caller (a receiving endpoint) decides what to do.
    ///
    /// The integrity-flags byte must be exactly `INTEGRITY_SEALED`: there
    /// is no checksum-free form to fall back to, so a damaged flags byte
    /// is refused before any other field is read.
    pub fn parse_sealed(buf: &[u8]) -> Result<(MtpHeader, usize, bool), WireError> {
        let mut hdr = MtpHeader::default();
        let (used, payload_ok) = hdr.parse_sealed_from(buf)?;
        Ok((hdr, used, payload_ok))
    }

    /// [`parse_sealed`](Self::parse_sealed) into a header the caller
    /// owns: every field is overwritten and the list sections keep their
    /// capacity, so a receive loop that parses frame after frame into one
    /// header allocates nothing once the lists have grown. Returns the
    /// bytes consumed and whether the payload checksum matched; on error
    /// the header's contents are unspecified.
    pub fn parse_sealed_from(&mut self, buf: &[u8]) -> Result<(usize, bool), WireError> {
        if buf.len() < FIXED_HEADER_LEN {
            return Err(WireError::Truncated {
                needed: FIXED_HEADER_LEN,
                got: buf.len(),
            });
        }
        if buf[41] != crate::integrity::INTEGRITY_SEALED {
            return Err(WireError::BadIntegrityFlags(buf[41]));
        }
        // The structural walk runs directly on `buf`; it is total and
        // panic-free, so running it before the CRC check is safe — nothing
        // is *trusted* until the CRC over the walked region matches. The
        // CRC is recomputed by the function sealing used, in one walk that
        // reads bytes 42–43 as zero, as they were at sealing time; no copy
        // of the header is made.
        let used = self.parse_inner(buf)?;
        let stored_crc = u16::from_be_bytes([buf[42], buf[43]]);
        if crate::integrity::header_crc16(&buf[..used]) != stored_crc {
            return Err(WireError::BadHeaderCrc);
        }
        let need = used + crate::integrity::PAYLOAD_CSUM_LEN;
        if buf.len() < need {
            return Err(WireError::Truncated {
                needed: need,
                got: buf.len(),
            });
        }
        let stored_csum =
            u32::from_be_bytes([buf[used], buf[used + 1], buf[used + 2], buf[used + 3]]);
        Ok((need, stored_csum == self.payload_csum()))
    }

    /// The structural walk behind
    /// [`parse_sealed_from`](Self::parse_sealed_from), filling `self`.
    /// Bytes 41–43 (integrity flags and CRC) are the caller's to check.
    fn parse_inner(&mut self, buf: &[u8]) -> Result<usize, WireError> {
        if buf.len() < FIXED_HEADER_LEN {
            return Err(WireError::Truncated {
                needed: FIXED_HEADER_LEN,
                got: buf.len(),
            });
        }
        let pkt_type = PktType::from_wire(buf[4]).ok_or(WireError::BadPktType(buf[4]))?;
        let hdr = self;
        hdr.src_port = u16::from_be_bytes([buf[0], buf[1]]);
        hdr.dst_port = u16::from_be_bytes([buf[2], buf[3]]);
        hdr.pkt_type = pkt_type;
        hdr.msg_pri = buf[5];
        hdr.tc = TrafficClass(buf[6]);
        hdr.flags = buf[7];
        hdr.msg_id = MsgId(u64::from_be_bytes([
            buf[8], buf[9], buf[10], buf[11], buf[12], buf[13], buf[14], buf[15],
        ]));
        hdr.entity = EntityId(u16::from_be_bytes([buf[16], buf[17]]));
        hdr.msg_len_pkts = u32::from_be_bytes([buf[18], buf[19], buf[20], buf[21]]);
        hdr.msg_len_bytes = u32::from_be_bytes([buf[22], buf[23], buf[24], buf[25]]);
        hdr.pkt_num = PktNum(u32::from_be_bytes([buf[26], buf[27], buf[28], buf[29]]));
        hdr.pkt_len = u16::from_be_bytes([buf[30], buf[31]]);
        hdr.pkt_offset = u32::from_be_bytes([buf[32], buf[33], buf[34], buf[35]]);
        hdr.path_exclude.clear();
        hdr.path_feedback.clear();
        hdr.ack_path_feedback.clear();
        hdr.sack.clear();
        hdr.nack.clear();
        let n_excl = buf[36] as usize;
        let n_fb = buf[37] as usize;
        let n_ack_fb = buf[38] as usize;
        let n_sack = buf[39] as usize;
        let n_nack = buf[40] as usize;

        let mut at = FIXED_HEADER_LEN;
        let need = |at: usize, n: usize, buf: &[u8]| -> Result<(), WireError> {
            if buf.len() < at + n {
                Err(WireError::Truncated {
                    needed: at + n,
                    got: buf.len(),
                })
            } else {
                Ok(())
            }
        };

        let path_exclude = fixed_entries::<PATH_EXCLUDE_ENTRY_LEN>(buf, at, n_excl)?;
        hdr.path_exclude
            .extend(path_exclude.iter().map(|e| PathExclude {
                path: PathletId(u16::from_be_bytes([e[0], e[1]])),
                tc: TrafficClass(e[2]),
            }));
        at += n_excl * PATH_EXCLUDE_ENTRY_LEN;
        for (count, acked) in [(n_fb, false), (n_ack_fb, true)] {
            for _ in 0..count {
                need(at, PATH_FEEDBACK_PREFIX_LEN, buf)?;
                let path = PathletId(u16::from_be_bytes([buf[at], buf[at + 1]]));
                let tc = TrafficClass(buf[at + 2]);
                let fb_type = buf[at + 3];
                let vlen = buf[at + 4] as usize;
                need(at + PATH_FEEDBACK_PREFIX_LEN, vlen, buf)?;
                let value =
                    &buf[at + PATH_FEEDBACK_PREFIX_LEN..at + PATH_FEEDBACK_PREFIX_LEN + vlen];
                let feedback = Feedback::parse_value(fb_type, value)?;
                let entry = PathFeedback { path, tc, feedback };
                if acked {
                    hdr.ack_path_feedback.push(entry);
                } else {
                    hdr.path_feedback.push(entry);
                }
                at += PATH_FEEDBACK_PREFIX_LEN + vlen;
            }
        }
        for (count, list) in [(n_sack, &mut hdr.sack), (n_nack, &mut hdr.nack)] {
            let entries = fixed_entries::<SACK_ENTRY_LEN>(buf, at, count)?;
            list.extend(entries.iter().map(|e| SackEntry {
                msg: MsgId(u64::from_be_bytes(
                    e[..8].try_into().expect("8 of 12 bytes"),
                )),
                pkt: PktNum(u32::from_be_bytes(
                    e[8..].try_into().expect("4 of 12 bytes"),
                )),
            }));
            at += count * SACK_ENTRY_LEN;
        }
        Ok(at)
    }
}

/// The `n` fixed-size `N`-byte entries of a list section starting at
/// `at`, after one bounds check for the whole section. A section that
/// does not fit reports the end of its first entry that does not, as an
/// entry-by-entry walk would.
fn fixed_entries<const N: usize>(buf: &[u8], at: usize, n: usize) -> Result<&[[u8; N]], WireError> {
    let Some(section) = buf.get(at..at + n * N) else {
        let fit = buf.len().saturating_sub(at) / N;
        return Err(WireError::Truncated {
            needed: at + (fit + 1) * N,
            got: buf.len(),
        });
    };
    Ok(section.as_chunks::<N>().0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MtpHeader {
        MtpHeader {
            src_port: 4000,
            dst_port: 80,
            pkt_type: PktType::Data,
            msg_pri: 3,
            tc: TrafficClass(2),
            flags: flags::LAST_PKT | flags::RETX,
            msg_id: MsgId(0xDEADBEEF_12345678),
            entity: EntityId(7),
            msg_len_pkts: 12,
            msg_len_bytes: 16 * 1024,
            pkt_num: PktNum(11),
            pkt_len: 1460,
            pkt_offset: 11 * 1460,
            path_exclude: vec![PathExclude {
                path: PathletId(9),
                tc: TrafficClass(2),
            }],
            path_feedback: vec![
                PathFeedback {
                    path: PathletId(1),
                    tc: TrafficClass(0),
                    feedback: Feedback::EcnMark { ce: true },
                },
                PathFeedback {
                    path: PathletId(2),
                    tc: TrafficClass(0),
                    feedback: Feedback::RcpRate { mbps: 40_000 },
                },
            ],
            ack_path_feedback: vec![PathFeedback {
                path: PathletId(1),
                tc: TrafficClass(0),
                feedback: Feedback::Delay { ns: 12_000 },
            }],
            sack: vec![
                SackEntry {
                    msg: MsgId(5),
                    pkt: PktNum(0),
                },
                SackEntry {
                    msg: MsgId(5),
                    pkt: PktNum(2),
                },
            ],
            nack: vec![SackEntry {
                msg: MsgId(5),
                pkt: PktNum(1),
            }],
        }
    }

    #[test]
    fn roundtrip_minimal() {
        let hdr = MtpHeader::default();
        let bytes = hdr.to_sealed_bytes().unwrap();
        let len = FIXED_HEADER_LEN + crate::integrity::PAYLOAD_CSUM_LEN;
        assert_eq!(bytes.len(), len);
        assert_eq!(MtpHeader::parse_sealed(&bytes), Ok((hdr, len, true)));
    }

    /// [`sample`] with three exclusions, three SACKs and two NACKs, so a
    /// cut can land past the first entry of every list section.
    fn long_lists() -> MtpHeader {
        let mut hdr = sample();
        for i in 0..2 {
            hdr.path_exclude.push(PathExclude {
                path: PathletId(20 + i),
                tc: TrafficClass(1),
            });
        }
        for (list, pkt) in [(&mut hdr.sack, 4), (&mut hdr.nack, 3)] {
            list.push(SackEntry {
                msg: MsgId(6),
                pkt: PktNum(pkt),
            });
        }
        hdr
    }

    /// The refusal an entry-by-entry walk gives for `hdr`'s encoding cut
    /// to `cut` bytes (`cut >= FIXED_HEADER_LEN`): the end of the first
    /// entry that does not fit, a feedback entry's 5-byte prefix counting
    /// as an entry before its value.
    fn walked_refusal(hdr: &MtpHeader, cut: usize) -> WireError {
        let mut ends = Vec::new();
        let mut at = FIXED_HEADER_LEN;
        for _ in &hdr.path_exclude {
            at += PATH_EXCLUDE_ENTRY_LEN;
            ends.push(at);
        }
        for e in hdr.path_feedback.iter().chain(&hdr.ack_path_feedback) {
            ends.push(at + PATH_FEEDBACK_PREFIX_LEN);
            at += e.wire_len();
            ends.push(at);
        }
        for _ in hdr.sack.iter().chain(&hdr.nack) {
            at += SACK_ENTRY_LEN;
            ends.push(at);
        }
        let needed = *ends.iter().find(|&&end| end > cut).expect("cut inside");
        WireError::Truncated { needed, got: cut }
    }

    #[test]
    fn parse_rejects_bad_type() {
        let hdr = MtpHeader::default();
        let mut bytes = hdr.to_sealed_bytes().unwrap();
        bytes[4] = 0x77;
        assert_eq!(
            MtpHeader::parse_sealed(&bytes),
            Err(WireError::BadPktType(0x77))
        );
    }

    #[test]
    fn emit_rejects_short_buffer() {
        let hdr = sample();
        let mut buf = vec![0u8; hdr.sealed_wire_len() - 1];
        assert!(matches!(
            hdr.emit_sealed(&mut buf),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn emit_rejects_oversized_list() {
        let hdr = MtpHeader {
            sack: (0..300)
                .map(|i| SackEntry {
                    msg: MsgId(i),
                    pkt: PktNum(0),
                })
                .collect(),
            ..MtpHeader::default()
        };
        assert!(matches!(
            hdr.to_sealed_bytes(),
            Err(WireError::TooManyEntries { list: "sack", .. })
        ));
    }

    #[test]
    fn sealed_roundtrip_and_lengths() {
        let hdr = sample();
        let sealed = hdr.to_sealed_bytes().unwrap();
        assert_eq!(sealed.len(), hdr.sealed_wire_len());
        assert_eq!(sealed.len(), hdr.wire_len() + 4);
        let (back, used, payload_ok) = MtpHeader::parse_sealed(&sealed).unwrap();
        assert_eq!(used, sealed.len());
        assert!(payload_ok);
        assert_eq!(back, hdr);
    }

    /// A reused header carries nothing over from the frame before it:
    /// full lists then none, and a failed parse in between.
    #[test]
    fn parse_sealed_from_overwrites_a_reused_header() {
        let full = sample();
        let plain = MtpHeader {
            msg_id: MsgId(9),
            pkt_len: 100,
            ..MtpHeader::default()
        };
        let mut hdr = MtpHeader::default();
        for want in [&full, &plain, &full] {
            let sealed = want.to_sealed_bytes().unwrap();
            assert_eq!(hdr.parse_sealed_from(&sealed), Ok((sealed.len(), true)));
            assert_eq!(&hdr, want);
            assert!(hdr.parse_sealed_from(&sealed[..sealed.len() - 5]).is_err());
        }
    }

    /// Every integrity-flags byte but the sealed one is refused as such,
    /// the all-zero byte of a checksum-free header included.
    #[test]
    fn sealed_rejects_unsealed_flags() {
        let sealed = sample().to_sealed_bytes().unwrap();
        for flags in (0..=u8::MAX).filter(|&f| f != crate::integrity::INTEGRITY_SEALED) {
            let mut m = sealed.clone();
            m[41] = flags;
            assert_eq!(
                MtpHeader::parse_sealed(&m),
                Err(WireError::BadIntegrityFlags(flags))
            );
        }
    }

    #[test]
    fn sealed_detects_every_single_bit_flip_in_header() {
        let hdr = sample();
        let sealed = hdr.to_sealed_bytes().unwrap();
        let hdr_bits = (sealed.len() - 4) * 8;
        for bit in 0..hdr_bits {
            let mut m = sealed.clone();
            m[bit / 8] ^= 1 << (bit % 8);
            assert!(
                MtpHeader::parse_sealed(&m).is_err(),
                "flip at bit {bit} must be detected"
            );
        }
    }

    #[test]
    fn sealed_trailer_flip_flags_payload_not_header() {
        let hdr = sample();
        let mut sealed = hdr.to_sealed_bytes().unwrap();
        let last = sealed.len() - 1;
        sealed[last] ^= 0x40;
        let (back, _, payload_ok) = MtpHeader::parse_sealed(&sealed).unwrap();
        assert_eq!(back, hdr, "header region untouched");
        assert!(!payload_ok, "payload checksum must fail");
    }

    #[test]
    fn sealed_rejects_truncation_at_every_cut() {
        let hdr = long_lists();
        let sealed = hdr.to_sealed_bytes().unwrap();
        for cut in 0..sealed.len() {
            let want = if cut < FIXED_HEADER_LEN {
                WireError::Truncated {
                    needed: FIXED_HEADER_LEN,
                    got: cut,
                }
            } else if cut < hdr.wire_len() {
                walked_refusal(&hdr, cut)
            } else {
                WireError::Truncated {
                    needed: sealed.len(),
                    got: cut,
                }
            };
            assert_eq!(
                MtpHeader::parse_sealed(&sealed[..cut]),
                Err(want),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn flag_helpers() {
        let hdr = sample();
        assert!(hdr.is_last_pkt());
        assert!(hdr.is_retx());
        assert!(!hdr.is_trimmed());
    }

    #[test]
    fn wire_len_matches_emitted() {
        let mut hdr = sample();
        hdr.path_feedback.push(PathFeedback {
            path: PathletId(3),
            tc: TrafficClass(1),
            feedback: Feedback::Trim,
        });
        assert_eq!(
            hdr.to_sealed_bytes().unwrap().len(),
            hdr.wire_len() + crate::integrity::PAYLOAD_CSUM_LEN
        );
    }
}
