//! Pathlet congestion-feedback TLVs.
//!
//! "The feedback for each pathlet is identified by a Type-Length-Value.
//! This allows for algorithms like RCP and DCTCP to coexist." (paper §3.1.3)
//!
//! Each entry in the path-feedback / ACK-path-feedback lists is a
//! `(PathletId, TrafficClass, Feedback)` tuple; the feedback itself is one
//! of the TLVs below. Switches append entries as a packet traverses them;
//! the receiver copies the accumulated list into the `ACK Path Feedback`
//! list of its acknowledgement, closing the loop back to the sender.

use serde::{Deserialize, Serialize};

use crate::error::WireError;
use crate::types::{PathletId, TrafficClass};

/// TLV type tags on the wire.
mod tag {
    pub const ECN_MARK: u8 = 0x01;
    pub const ECN_FRACTION: u8 = 0x02;
    pub const RCP_RATE: u8 = 0x03;
    pub const DELAY: u8 = 0x04;
    pub const QUEUE_DEPTH: u8 = 0x05;
    pub const PATH_CHANGE: u8 = 0x06;
    pub const TRIM: u8 = 0x07;
}

/// A single piece of per-pathlet congestion feedback.
///
/// Different pathlets may report different variants in one packet's
/// feedback list. Today one controller reads them: the sender's DCTCP-like
/// pathlet window (`mtp-core`) consumes [`Feedback::EcnMark`] and
/// [`Feedback::EcnFraction`]. Switches stamp `EcnMark` and
/// [`Feedback::QueueDepth`], which the CONGA-style balancer snoops, and
/// the sender follows [`Feedback::PathChange`] to its new active pathlet.
/// The other tags are kept because the wire format (paper Fig. 4) defines
/// them: the codec decodes them from any peer, and a controller that does
/// not read a tag treats it as no congestion signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Feedback {
    /// Binary congestion-experienced indication for this packet on this
    /// pathlet (DCTCP-style single-bit feedback, but attributed to a
    /// specific pathlet rather than to the whole path).
    EcnMark {
        /// True if the pathlet's queue was above its marking threshold.
        ce: bool,
    },
    /// Aggregated marking fraction in units of 1/65535 (paper §4 "feedback
    /// can be aggregated" — a switch may report its recent marking rate
    /// instead of a per-packet bit, shrinking header overhead).
    EcnFraction {
        /// Fraction of recently forwarded packets that were marked,
        /// in units of 1/65535.
        fraction: u16,
    },
    /// Explicit rate allocation in Mbit/s (RCP-style multi-bit feedback).
    RcpRate {
        /// The rate this pathlet currently allocates to a compliant flow.
        mbps: u32,
    },
    /// Queueing-delay sample in nanoseconds (Swift-style delay feedback).
    Delay {
        /// Time the packet spent queued at this pathlet.
        ns: u32,
    },
    /// Instantaneous queue depth in bytes (for load-aware balancing).
    QueueDepth {
        /// Bytes currently enqueued at this pathlet's queue.
        bytes: u32,
    },
    /// Explicit notification that the network re-routed this traffic onto a
    /// new pathlet (e.g. an optical switch reconfigured). Lets senders
    /// switch congestion state in zero RTTs instead of inferring the change.
    PathChange {
        /// The pathlet now in use.
        new_path: PathletId,
    },
    /// The payload of this packet was trimmed (NDP-style). Zero-length TLV.
    Trim,
}

impl Feedback {
    /// The TLV type tag used on the wire.
    pub fn wire_type(&self) -> u8 {
        match self {
            Feedback::EcnMark { .. } => tag::ECN_MARK,
            Feedback::EcnFraction { .. } => tag::ECN_FRACTION,
            Feedback::RcpRate { .. } => tag::RCP_RATE,
            Feedback::Delay { .. } => tag::DELAY,
            Feedback::QueueDepth { .. } => tag::QUEUE_DEPTH,
            Feedback::PathChange { .. } => tag::PATH_CHANGE,
            Feedback::Trim => tag::TRIM,
        }
    }

    /// The length in bytes of the TLV *value* (excluding the 2-byte
    /// type/length prefix).
    pub fn value_len(&self) -> usize {
        match self {
            Feedback::EcnMark { .. } => 1,
            Feedback::EcnFraction { .. } => 2,
            Feedback::RcpRate { .. } => 4,
            Feedback::Delay { .. } => 4,
            Feedback::QueueDepth { .. } => 4,
            Feedback::PathChange { .. } => 2,
            Feedback::Trim => 0,
        }
    }

    /// Write the TLV value into `buf` (which must be exactly
    /// [`value_len`](Self::value_len) bytes).
    pub fn emit_value(&self, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), self.value_len());
        match *self {
            Feedback::EcnMark { ce } => buf[0] = ce as u8,
            Feedback::EcnFraction { fraction } => buf.copy_from_slice(&fraction.to_be_bytes()),
            Feedback::RcpRate { mbps } => buf.copy_from_slice(&mbps.to_be_bytes()),
            Feedback::Delay { ns } => buf.copy_from_slice(&ns.to_be_bytes()),
            Feedback::QueueDepth { bytes } => buf.copy_from_slice(&bytes.to_be_bytes()),
            Feedback::PathChange { new_path } => buf.copy_from_slice(&new_path.0.to_be_bytes()),
            Feedback::Trim => {}
        }
    }

    /// Parse a TLV value given its type tag and value bytes.
    pub fn parse_value(fb_type: u8, value: &[u8]) -> Result<Feedback, WireError> {
        let want = match fb_type {
            tag::ECN_MARK => 1,
            tag::ECN_FRACTION => 2,
            tag::RCP_RATE => 4,
            tag::DELAY => 4,
            tag::QUEUE_DEPTH => 4,
            tag::PATH_CHANGE => 2,
            tag::TRIM => 0,
            other => return Err(WireError::BadFeedbackType(other)),
        };
        if value.len() != want {
            return Err(WireError::BadFeedbackLen {
                fb_type,
                len: value.len() as u8,
            });
        }
        Ok(match fb_type {
            tag::ECN_MARK => Feedback::EcnMark { ce: value[0] != 0 },
            tag::ECN_FRACTION => Feedback::EcnFraction {
                fraction: u16::from_be_bytes([value[0], value[1]]),
            },
            tag::RCP_RATE => Feedback::RcpRate {
                mbps: u32::from_be_bytes([value[0], value[1], value[2], value[3]]),
            },
            tag::DELAY => Feedback::Delay {
                ns: u32::from_be_bytes([value[0], value[1], value[2], value[3]]),
            },
            tag::QUEUE_DEPTH => Feedback::QueueDepth {
                bytes: u32::from_be_bytes([value[0], value[1], value[2], value[3]]),
            },
            tag::PATH_CHANGE => Feedback::PathChange {
                new_path: PathletId(u16::from_be_bytes([value[0], value[1]])),
            },
            tag::TRIM => Feedback::Trim,
            _ => unreachable!("validated above"),
        })
    }
}

/// One entry of the path-feedback (or ACK-path-feedback) list:
/// which pathlet, which traffic class, and what the pathlet reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PathFeedback {
    /// The pathlet this feedback describes.
    pub path: PathletId,
    /// The traffic class the reporting device assigned to this packet.
    pub tc: TrafficClass,
    /// The feedback itself.
    pub feedback: Feedback,
}

impl PathFeedback {
    /// Total encoded size of this entry on the wire.
    pub fn wire_len(&self) -> usize {
        crate::PATH_FEEDBACK_PREFIX_LEN + self.feedback.value_len()
    }

    /// The largest possible encoded size of any feedback entry: the
    /// prefix plus the widest TLV value (the 4-byte variants). Datagram
    /// budgeting uses this to bound a header's sealed size without
    /// knowing which feedback kinds it will carry.
    pub const MAX_WIRE_LEN: usize = crate::PATH_FEEDBACK_PREFIX_LEN + 4;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(fb: Feedback) {
        let mut buf = vec![0u8; fb.value_len()];
        fb.emit_value(&mut buf);
        let back = Feedback::parse_value(fb.wire_type(), &buf).unwrap();
        assert_eq!(fb, back);
    }

    #[test]
    fn max_wire_len_covers_every_variant() {
        let widest = [
            Feedback::EcnMark { ce: true },
            Feedback::EcnFraction { fraction: u16::MAX },
            Feedback::RcpRate { mbps: u32::MAX },
            Feedback::Delay { ns: u32::MAX },
            Feedback::QueueDepth { bytes: u32::MAX },
            Feedback::PathChange {
                new_path: PathletId(u16::MAX),
            },
            Feedback::Trim,
        ];
        for fb in widest {
            let e = PathFeedback {
                path: PathletId(0),
                tc: TrafficClass::BEST_EFFORT,
                feedback: fb,
            };
            assert!(e.wire_len() <= PathFeedback::MAX_WIRE_LEN, "{fb:?}");
        }
    }

    #[test]
    fn tlv_roundtrips() {
        roundtrip(Feedback::EcnMark { ce: true });
        roundtrip(Feedback::EcnMark { ce: false });
        roundtrip(Feedback::EcnFraction { fraction: 0 });
        roundtrip(Feedback::EcnFraction { fraction: 65535 });
        roundtrip(Feedback::RcpRate { mbps: 100_000 });
        roundtrip(Feedback::Delay { ns: 1_234_567 });
        roundtrip(Feedback::QueueDepth { bytes: 128 * 1500 });
        roundtrip(Feedback::PathChange {
            new_path: PathletId(42),
        });
        roundtrip(Feedback::Trim);
    }

    #[test]
    fn rejects_unknown_type() {
        assert_eq!(
            Feedback::parse_value(0x7f, &[]),
            Err(WireError::BadFeedbackType(0x7f))
        );
    }

    #[test]
    fn rejects_wrong_length() {
        assert_eq!(
            Feedback::parse_value(tag::RCP_RATE, &[1, 2]),
            Err(WireError::BadFeedbackLen {
                fb_type: tag::RCP_RATE,
                len: 2
            })
        );
        assert_eq!(
            Feedback::parse_value(tag::TRIM, &[0]),
            Err(WireError::BadFeedbackLen {
                fb_type: tag::TRIM,
                len: 1
            })
        );
    }

    #[test]
    fn entry_wire_len() {
        let e = PathFeedback {
            path: PathletId(1),
            tc: TrafficClass(0),
            feedback: Feedback::RcpRate { mbps: 10 },
        };
        assert_eq!(e.wire_len(), 9);
        let t = PathFeedback {
            path: PathletId(1),
            tc: TrafficClass(0),
            feedback: Feedback::Trim,
        };
        assert_eq!(t.wire_len(), 5);
    }
}
