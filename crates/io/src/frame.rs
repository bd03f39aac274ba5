//! Datagram framing: many sealed frames per UDP datagram.
//!
//! A UDP datagram is an expensive unit — every one costs a syscall (or a
//! slot in a `sendmmsg` batch) and a trip through the kernel's socket
//! machinery. MTP's control traffic is small (a sealed ACK is well under
//! 200 bytes), so the driver coalesces: a datagram carries a sequence of
//! length-prefixed frames, each tagged with a one-byte *kind* so session
//! control and MTP data can share a wire without probabilistic format
//! sniffing. Frames are the unit inside a datagram; below it, the socket
//! layer ([`crate::socket`]) hands a run of equal datagrams to the kernel
//! as one packet (UDP segmentation offload), which does not change what a
//! datagram holds:
//!
//! ```text
//! datagram := frame*
//! frame    := u16_be(len) ‖ kind(u8) ‖ body
//! kind     := 0 (Mtp: sealed MTP header ‖ payload[pkt_len])
//!           | 1 (Ctrl: sealed session-control frame)
//! ```
//!
//! where `len` counts the kind byte plus body (not the prefix itself).
//! The receiver splits with [`FrameIter`]; a torn tail — a prefix
//! promising more bytes than the datagram holds — is a framing error,
//! never a silent truncation. An *unknown* kind is a per-frame error but
//! does **not** poison the rest of the datagram: the length prefix still
//! frames it, so iteration steps over it (how a v1 node coexists with a
//! future kind).
//!
//! [`append_frame`] is also where the **MTU guard** lives: a frame whose
//! sealed header plus payload cannot fit a datagram budget *at all* is a
//! protocol bug (the header grew past what `MtpConfig::mtu_payload`
//! left room for), and is reported as [`FrameError::FrameTooBig`] at
//! seal time rather than surfacing as an `EMSGSIZE` from the kernel.

use mtp_wire::{MtpHeader, SessionCtrl, WireError};

/// Length of the per-frame big-endian length prefix.
pub const FRAME_PREFIX_LEN: usize = 2;

/// Length of the per-frame kind byte.
pub const FRAME_KIND_LEN: usize = 1;

/// Total per-frame overhead: length prefix plus kind byte.
pub const FRAME_OVERHEAD: usize = FRAME_PREFIX_LEN + FRAME_KIND_LEN;

/// Default per-datagram byte budget.
///
/// Loopback interfaces run an MTU of 65536, but 9000 (jumbo-frame sized)
/// keeps the test traffic honest about what a real NIC path would carry
/// and still coalesces six 1460-byte data packets per datagram.
pub const DEFAULT_DATAGRAM_BUDGET: usize = 9000;

/// What a frame's body holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameKind {
    /// A sealed MTP header followed by that packet's payload bytes.
    Mtp = 0,
    /// A sealed session-control frame ([`SessionCtrl`]).
    Ctrl = 1,
}

/// Why a frame could not be appended to a datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The frame exceeds the datagram budget even in an empty datagram.
    /// This is the seal-time MTU guard firing: the header's variable
    /// sections plus payload outgrew the wire. Carries (frame, budget).
    FrameTooBig {
        /// Total encoded frame size, prefix and kind included.
        frame: usize,
        /// The per-datagram budget it had to fit.
        budget: usize,
    },
    /// The sealed header failed to emit.
    Wire(WireError),
    /// A length prefix promised more bytes than the datagram holds.
    TornFrame {
        /// Bytes the prefix promised.
        promised: usize,
        /// Bytes remaining in the datagram.
        available: usize,
    },
    /// A trailing fragment too short to hold a length prefix and kind.
    TornPrefix,
    /// A frame carried a kind byte this node does not speak. The frame
    /// is skippable (its length is known); iteration continues after it.
    UnknownKind(u8),
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::FrameTooBig { frame, budget } => {
                write!(f, "frame of {frame} bytes exceeds datagram budget {budget}")
            }
            FrameError::Wire(e) => write!(f, "sealed emit failed: {e:?}"),
            FrameError::TornFrame {
                promised,
                available,
            } => write!(
                f,
                "torn frame: prefix promised {promised} bytes, {available} remain"
            ),
            FrameError::TornPrefix => write!(f, "torn frame length prefix"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> FrameError {
        FrameError::Wire(e)
    }
}

/// Append one MTP `header ‖ payload` frame to a datagram under
/// construction.
///
/// Returns `Ok(true)` if appended, `Ok(false)` if the frame is valid but
/// does not fit the *remaining* budget (flush the datagram and retry),
/// and `Err` if the frame could never fit (the MTU guard) or the header
/// would not seal.
pub fn append_frame(
    dgram: &mut Vec<u8>,
    budget: usize,
    hdr: &MtpHeader,
    payload: &[u8],
) -> Result<bool, FrameError> {
    debug_assert_eq!(
        hdr.pkt_len as usize,
        payload.len(),
        "pkt_len/payload mismatch"
    );
    let sealed = hdr.sealed_wire_len();
    let frame = FRAME_OVERHEAD + sealed + payload.len();
    if frame > budget {
        return Err(FrameError::FrameTooBig { frame, budget });
    }
    if dgram.len() + frame > budget {
        return Ok(false);
    }
    let body = FRAME_KIND_LEN + sealed + payload.len();
    dgram.extend_from_slice(&(body as u16).to_be_bytes());
    dgram.push(FrameKind::Mtp as u8);
    let at = dgram.len();
    dgram.resize(at + sealed, 0);
    hdr.emit_sealed(&mut dgram[at..])?;
    dgram.extend_from_slice(payload);
    Ok(true)
}

/// Append one sealed session-control frame to a datagram under
/// construction. Same contract as [`append_frame`].
pub fn append_ctrl_frame(
    dgram: &mut Vec<u8>,
    budget: usize,
    ctrl: &SessionCtrl,
) -> Result<bool, FrameError> {
    let sealed = ctrl.wire_len();
    let frame = FRAME_OVERHEAD + sealed;
    if frame > budget {
        return Err(FrameError::FrameTooBig { frame, budget });
    }
    if dgram.len() + frame > budget {
        return Ok(false);
    }
    dgram.extend_from_slice(&((FRAME_KIND_LEN + sealed) as u16).to_be_bytes());
    dgram.push(FrameKind::Ctrl as u8);
    let at = dgram.len();
    dgram.resize(at + sealed, 0);
    ctrl.emit_sealed(&mut dgram[at..])?;
    Ok(true)
}

/// Iterator over the frames of a received datagram.
///
/// Yields `(kind, body)` pairs; an MTP body goes to
/// [`MtpHeader::parse_sealed`] (which returns how many bytes the sealed
/// header consumed — the rest is payload), a Ctrl body to
/// [`SessionCtrl::parse_sealed`]. Torn frames terminate iteration;
/// an [`FrameError::UnknownKind`] frame is reported but stepped over.
pub struct FrameIter<'a> {
    rest: &'a [u8],
}

impl<'a> FrameIter<'a> {
    /// Split `datagram` into frames.
    pub fn new(datagram: &'a [u8]) -> FrameIter<'a> {
        FrameIter { rest: datagram }
    }
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = Result<(FrameKind, &'a [u8]), FrameError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        if self.rest.len() < FRAME_OVERHEAD {
            self.rest = &[];
            return Some(Err(FrameError::TornPrefix));
        }
        let body = u16::from_be_bytes([self.rest[0], self.rest[1]]) as usize;
        let rest = &self.rest[FRAME_PREFIX_LEN..];
        if body > rest.len() || body < FRAME_KIND_LEN {
            self.rest = &[];
            return Some(Err(FrameError::TornFrame {
                promised: body,
                available: rest.len(),
            }));
        }
        let (frame, tail) = rest.split_at(body);
        self.rest = tail;
        let kind = match frame[0] {
            0 => FrameKind::Mtp,
            1 => FrameKind::Ctrl,
            // The frame is well-delimited, just unintelligible: report
            // it and keep walking the datagram.
            other => return Some(Err(FrameError::UnknownKind(other))),
        };
        Some(Ok((kind, &frame[FRAME_KIND_LEN..])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtp_wire::{CtrlKind, MsgId, PktNum, PktType};

    fn data_hdr(msg: u64, pkt: u32, len: u16) -> MtpHeader {
        MtpHeader {
            pkt_type: PktType::Data,
            msg_id: MsgId(msg),
            msg_len_pkts: 4,
            msg_len_bytes: 4 * 1460,
            pkt_num: PktNum(pkt),
            pkt_len: len,
            pkt_offset: pkt * 1460,
            ..MtpHeader::default()
        }
    }

    #[test]
    fn roundtrip_coalesced_frames() {
        let mut dgram = Vec::new();
        let payloads: Vec<Vec<u8>> = (0..3u32).map(|i| vec![i as u8 + 1; 100]).collect();
        for (i, p) in payloads.iter().enumerate() {
            let hdr = data_hdr(7, i as u32, p.len() as u16);
            assert!(append_frame(&mut dgram, DEFAULT_DATAGRAM_BUDGET, &hdr, p).unwrap());
        }
        let mut seen = 0;
        for frame in FrameIter::new(&dgram) {
            let (kind, body) = frame.unwrap();
            assert_eq!(kind, FrameKind::Mtp);
            let (hdr, used, payload_ok) = MtpHeader::parse_sealed(body).unwrap();
            assert!(payload_ok);
            assert_eq!(hdr.msg_id, MsgId(7));
            assert_eq!(hdr.pkt_num, PktNum(seen));
            assert_eq!(&body[used..], &payloads[seen as usize][..]);
            seen += 1;
        }
        assert_eq!(seen, 3);
    }

    #[test]
    fn ctrl_and_data_share_a_datagram() {
        let mut dgram = Vec::new();
        let mut ctrl = SessionCtrl::new(CtrlKind::HelloAck, 11, 22);
        ctrl.ports = vec![1000, 1001];
        assert!(append_ctrl_frame(&mut dgram, DEFAULT_DATAGRAM_BUDGET, &ctrl).unwrap());
        let hdr = data_hdr(7, 0, 64);
        assert!(append_frame(&mut dgram, DEFAULT_DATAGRAM_BUDGET, &hdr, &[9u8; 64]).unwrap());

        let frames: Vec<(FrameKind, &[u8])> = FrameIter::new(&dgram)
            .collect::<Result<_, _>>()
            .expect("clean iteration");
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].0, FrameKind::Ctrl);
        let (back, used) = SessionCtrl::parse_sealed(frames[0].1).unwrap();
        assert_eq!(back, ctrl);
        assert_eq!(used, frames[0].1.len());
        assert_eq!(frames[1].0, FrameKind::Mtp);
        let (back, _, _) = MtpHeader::parse_sealed(frames[1].1).unwrap();
        assert_eq!(back.msg_id, MsgId(7));
    }

    #[test]
    fn unknown_kind_is_skipped_not_fatal() {
        let mut dgram = Vec::new();
        let hdr = data_hdr(5, 0, 8);
        append_frame(&mut dgram, DEFAULT_DATAGRAM_BUDGET, &hdr, &[1; 8]).unwrap();
        // Splice in a well-framed body with a kind from the future...
        let alien = [0xEE, 0xAA, 0xBB];
        dgram.extend_from_slice(&(alien.len() as u16 + 1).to_be_bytes());
        dgram.push(7);
        dgram.extend_from_slice(&alien);
        // ...followed by another valid frame.
        append_frame(&mut dgram, DEFAULT_DATAGRAM_BUDGET, &hdr, &[1; 8]).unwrap();

        let frames: Vec<_> = FrameIter::new(&dgram).collect();
        assert_eq!(frames.len(), 3);
        assert!(matches!(frames[0], Ok((FrameKind::Mtp, _))));
        assert!(matches!(frames[1], Err(FrameError::UnknownKind(7))));
        assert!(
            matches!(frames[2], Ok((FrameKind::Mtp, _))),
            "iteration must continue past an unknown kind"
        );
    }

    #[test]
    fn full_datagram_defers_not_errors() {
        let mut dgram = Vec::new();
        let payload = vec![0u8; 1460];
        let hdr = data_hdr(1, 0, 1460);
        let frame = FRAME_OVERHEAD + hdr.sealed_wire_len() + payload.len();
        // Budget fits exactly one frame: second append defers.
        let budget = frame + frame / 2;
        assert!(append_frame(&mut dgram, budget, &hdr, &payload).unwrap());
        assert!(!append_frame(&mut dgram, budget, &hdr, &payload).unwrap());
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut dgram = Vec::new();
        let payload = vec![0u8; 1460];
        let hdr = data_hdr(1, 0, 1460);
        let err = append_frame(&mut dgram, 256, &hdr, &payload).unwrap_err();
        assert!(matches!(err, FrameError::FrameTooBig { budget: 256, .. }));
        assert!(
            dgram.is_empty(),
            "failed append must not leave partial bytes"
        );

        let mut ctrl = SessionCtrl::new(CtrlKind::Hello, 1, 0);
        ctrl.ports = vec![0; 100];
        let err = append_ctrl_frame(&mut dgram, 64, &ctrl).unwrap_err();
        assert!(matches!(err, FrameError::FrameTooBig { budget: 64, .. }));
        assert!(dgram.is_empty());
    }

    #[test]
    fn torn_tail_is_an_error() {
        let mut dgram = Vec::new();
        let hdr = data_hdr(9, 0, 8);
        append_frame(&mut dgram, DEFAULT_DATAGRAM_BUDGET, &hdr, &[1; 8]).unwrap();
        // Chop the final payload byte off: the last frame is torn.
        dgram.pop();
        let frames: Vec<_> = FrameIter::new(&dgram).collect();
        assert_eq!(frames.len(), 1);
        assert!(matches!(frames[0], Err(FrameError::TornFrame { .. })));

        // A lone dangling byte can't even hold a prefix.
        let frames: Vec<_> = FrameIter::new(&[0xAB]).collect();
        assert!(matches!(frames[0], Err(FrameError::TornPrefix)));

        // A prefix promising a kindless (zero-length) body is torn too.
        let frames: Vec<_> = FrameIter::new(&[0, 0, 0]).collect();
        assert!(matches!(frames[0], Err(FrameError::TornFrame { .. })));
    }
}
