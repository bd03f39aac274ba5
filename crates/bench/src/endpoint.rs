//! Fixed-seed *endpoint* workloads for the golden-digest test.
//!
//! Where [`crate::hotpath`] stresses the discrete-event engine, these
//! workloads stress the MTP endpoint state machines directly: a
//! deterministic driver shuttles packets between `MtpSender`s and an
//! `MtpReceiver` with no simulator in between, so events/second measures
//! sender/receiver processing cost (message tables, pathlet windows,
//! SACK/NACK handling, feedback echo) rather than event-loop overhead.
//!
//! Two workloads cover the two endpoint hot paths the paper's design
//! leans on:
//!
//! * [`incast_churn`] — many senders, many small messages, lossy and
//!   trimming "wire": SACK/NACK churn, duplicate suppression, immediate
//!   NACK repair, RTO timeouts, completion bookkeeping;
//! * [`multipath_feedback`] — feedback-heavy wire that stamps rotating
//!   per-pathlet TLVs (ECN, delay, rate, queue depth, path changes) onto
//!   every data packet across several traffic classes: pathlet interning,
//!   per-ACK byte attribution, controller demultiplexing, feedback echo.
//!
//! Each run reduces to a line-oriented digest of everything observable:
//! sender and receiver counters, per-(pathlet, TC) windows, completion
//! counts, and an FNV-1a hash over the wire bytes of **every header the
//! endpoints emitted, in order**. `tests/goldens.rs` compares digests
//! against golden files captured on the pre-overhaul endpoint code: an
//! endpoint change that alters any packet, any window, or any counter
//! shows up as a byte diff.

use std::collections::VecDeque;
use std::fmt::Write as _;

use mtp_core::{MsgDelivered, MtpConfig, MtpReceiver, MtpSender, SenderEvent};
use mtp_sim::packet::{Headers, Packet};
use mtp_sim::time::{Duration, Time};
use mtp_wire::types::flags;
use mtp_wire::{
    EcnCodepoint, EntityId, Feedback, MtpHeader, PathFeedback, PathletId, TrafficClass,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::hotpath::HotpathRun;

/// FNV-1a over every emitted header's wire bytes; order-sensitive, so any
/// change in packet contents *or* emission order changes the digest. It
/// hashes the sealed header without its trailer and with bytes 41–43
/// (integrity flags and CRC) read as zero: the bytes the goldens were
/// blessed over, before the header had a CRC.
struct WireHash {
    state: u64,
    scratch: Vec<u8>,
}

impl WireHash {
    fn new() -> WireHash {
        WireHash {
            state: 0xcbf2_9ce4_8422_2325,
            scratch: Vec::new(),
        }
    }

    fn absorb(&mut self, hdr: &MtpHeader) {
        let sealed = hdr.sealed_wire_len();
        if self.scratch.len() < sealed {
            self.scratch.resize(sealed, 0);
        }
        hdr.emit_sealed(&mut self.scratch[..sealed])
            .expect("emit header");
        self.scratch[41..44].fill(0);
        for &b in &self.scratch[..hdr.wire_len()] {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Shared driver state: senders on one side, a receiver on the other,
/// and two one-round-latency "wires" between them.
struct Bench {
    senders: Vec<MtpSender>,
    receiver: MtpReceiver,
    /// Data packets in flight toward the receiver.
    wire_data: VecDeque<Packet>,
    /// ACKs in flight back; each entry remembers which sender it is for.
    wire_acks: VecDeque<(usize, Packet)>,
    out: Vec<Packet>,
    now: Time,
    tick: Duration,
    events: u64,
    completions: u64,
    deliveries: u64,
    dropped: u64,
    trimmed: u64,
    acks_dropped: u64,
    hash: WireHash,
    rng: SmallRng,
    /// Reusable event-drain scratch (counted, then cleared).
    ev_deliv: Vec<MsgDelivered>,
    ev_comp: Vec<SenderEvent>,
}

const RECV_ADDR: u16 = 999;

impl Bench {
    fn new(seed: u64, n_senders: usize, tick: Duration) -> Bench {
        let senders = (0..n_senders)
            .map(|i| {
                MtpSender::new(
                    MtpConfig::default(),
                    (i + 1) as u16,
                    EntityId(i as u16),
                    ((i + 1) as u64) << 32,
                )
            })
            .collect();
        Bench {
            senders,
            receiver: MtpReceiver::new(RECV_ADDR),
            wire_data: VecDeque::new(),
            wire_acks: VecDeque::new(),
            out: Vec::new(),
            now: Time::ZERO,
            tick,
            events: 0,
            completions: 0,
            deliveries: 0,
            dropped: 0,
            trimmed: 0,
            acks_dropped: 0,
            hash: WireHash::new(),
            rng: SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            ev_deliv: Vec::new(),
            ev_comp: Vec::new(),
        }
    }

    fn submit(&mut self, sender: usize, bytes: u32, pri: u8, tc: TrafficClass) {
        let s = &mut self.senders[sender];
        s.send_message(RECV_ADDR, bytes, pri, tc, self.now, &mut self.out);
        self.route_out(sender);
    }

    /// Move everything the sender just emitted onto the data wire.
    fn route_out(&mut self, _sender: usize) {
        for pkt in self.out.drain(..) {
            self.wire_data.push_back(pkt);
        }
    }

    /// Fire any expired retransmission timers.
    fn fire_timers(&mut self) {
        for i in 0..self.senders.len() {
            let due = matches!(self.senders[i].next_deadline(), Some(dl) if dl <= self.now);
            if due {
                self.senders[i].on_timer(self.now, &mut self.out);
                self.events += 1;
                self.route_out(i);
            }
        }
    }

    /// Deliver one round of data packets through `mutate`, which may drop
    /// (return false), trim, stamp feedback, or mark CE.
    fn deliver_data(&mut self, mut mutate: impl FnMut(&mut SmallRng, &mut MtpHeader) -> WireFate) {
        let n = self.wire_data.len();
        for _ in 0..n {
            let mut pkt = self.wire_data.pop_front().expect("counted");
            let Headers::Mtp(ref mut hdr) = pkt.headers else {
                continue;
            };
            match mutate(&mut self.rng, hdr) {
                WireFate::Drop => {
                    self.dropped += 1;
                    mtp_sim::pool::recycle_packet(pkt);
                    continue;
                }
                WireFate::Trim => {
                    hdr.flags |= flags::TRIMMED;
                    pkt.ecn = EcnCodepoint::Ect0;
                    self.trimmed += 1;
                }
                WireFate::Deliver(ecn) => pkt.ecn = ecn,
            }
            let ecn = pkt.ecn;
            let Headers::Mtp(hdr) = pkt.headers else {
                unreachable!("checked above");
            };
            self.hash.absorb(&hdr);
            // The sender's address is carried in src_port; senders are
            // numbered 1..=n.
            let sender = (hdr.src_port - 1) as usize;
            let (ack, _newly) = self.receiver.on_data(self.now, &hdr, ecn);
            self.events += 1;
            mtp_sim::pool::recycle_header(hdr);
            self.receiver.drain_events(&mut self.ev_deliv);
            self.deliveries += self.ev_deliv.len() as u64;
            self.ev_deliv.clear();
            self.wire_acks.push_back((sender, ack));
        }
    }

    /// Deliver one round of ACKs; `drop_p` is the ACK loss probability.
    fn deliver_acks(&mut self, drop_p: f64) {
        let n = self.wire_acks.len();
        for _ in 0..n {
            let (sender, pkt) = self.wire_acks.pop_front().expect("counted");
            if drop_p > 0.0 && self.rng.gen_bool(drop_p) {
                self.acks_dropped += 1;
                mtp_sim::pool::recycle_packet(pkt);
                continue;
            }
            let Headers::Mtp(hdr) = pkt.headers else {
                continue;
            };
            self.hash.absorb(&hdr);
            self.senders[sender].on_ack(self.now, &hdr, &mut self.out);
            self.events += 1;
            mtp_sim::pool::recycle_header(hdr);
            self.senders[sender].drain_events(&mut self.ev_comp);
            self.completions += self.ev_comp.len() as u64;
            self.ev_comp.clear();
            self.route_out(sender);
        }
    }

    fn all_done(&self, msgs_per_sender: u64) -> bool {
        self.senders
            .iter()
            .all(|s| s.stats.msgs_completed == msgs_per_sender)
    }

    fn digest(&self, name: &str, seed: u64, rounds: u64) -> String {
        let mut d = String::new();
        writeln!(
            d,
            "workload={name} seed={seed} rounds={rounds} events={} final_now={}",
            self.events, self.now.0
        )
        .expect("write to String");
        writeln!(
            d,
            "wire: dropped={} trimmed={} acks_dropped={} completions={} deliveries={}",
            self.dropped, self.trimmed, self.acks_dropped, self.completions, self.deliveries
        )
        .expect("write to String");
        for (i, s) in self.senders.iter().enumerate() {
            writeln!(
                d,
                "sender {i}: sent={} retx={} timeouts={} nacks={} completed={} pathlets={} srtt={}",
                s.stats.pkts_sent,
                s.stats.retransmissions,
                s.stats.timeouts,
                s.stats.nacks,
                s.stats.msgs_completed,
                s.known_pathlets(),
                s.srtt().map(|d| d.0).unwrap_or(0),
            )
            .expect("write to String");
            let mut windows: Vec<(u16, u8, u64, u64)> = s
                .pathlets()
                .iter()
                .map(|(&(p, tc), e)| (p.0, tc.0, e.cc.window(), e.inflight))
                .collect();
            windows.sort_unstable();
            write!(d, "windows {i}:").expect("write to String");
            for (p, tc, w, inflight) in windows {
                write!(d, " ({p},{tc})={w}/{inflight}").expect("write to String");
            }
            writeln!(d).expect("write to String");
        }
        let r = &self.receiver.stats;
        writeln!(
            d,
            "recv: seen={} dup={} trimmed={} nacks_sent={} delivered={} goodput={} buffered={}",
            r.pkts_seen,
            r.duplicates,
            r.trimmed,
            r.nacks_sent,
            r.msgs_delivered,
            r.goodput_bytes,
            self.receiver.buffered_bytes()
        )
        .expect("write to String");
        writeln!(d, "hdr_hash={:#018x}", self.hash.state).expect("write to String");
        d
    }
}

enum WireFate {
    Drop,
    Trim,
    Deliver(EcnCodepoint),
}

// ---------------------------------------------------------------- incast

const INCAST_SENDERS: usize = 32;
const INCAST_MSGS: u64 = 200;
const INCAST_ROUND_CAP: u64 = 60_000;

/// Many-message incast with SACK/NACK churn: 32 senders × 200 messages of
/// 1–12 packets each into one receiver, over a wire that drops, trims,
/// and CE-marks data and drops ACKs. Exercises the sender message table,
/// the ready queue, NACK repair, RTO recovery, and receiver reassembly.
pub fn incast_churn(seed: u64) -> HotpathRun {
    let mut b = Bench::new(seed, INCAST_SENDERS, Duration::from_micros(20));
    let mut rounds = 0u64;
    loop {
        // Staggered open-loop submissions: sender i submits message m at
        // round m*2 + (i % 4).
        if rounds < INCAST_MSGS * 2 + 4 {
            for i in 0..INCAST_SENDERS {
                let m = rounds.checked_sub((i % 4) as u64);
                if let Some(m) = m {
                    if m % 2 == 0 && m / 2 < INCAST_MSGS {
                        let k = m / 2;
                        // 1..=12 packets, deterministic per (sender, msg).
                        let pkts = 1 + ((k * 7 + i as u64 * 3) % 12) as u32;
                        let bytes = pkts * 1460 - (k % 700) as u32;
                        let pri = (k % 4) as u8;
                        b.submit(i, bytes, pri, TrafficClass::BEST_EFFORT);
                    }
                }
            }
        }
        b.fire_timers();
        b.deliver_data(|rng, _hdr| {
            if rng.gen_bool(0.02) {
                WireFate::Drop
            } else if rng.gen_bool(0.02) {
                WireFate::Trim
            } else if rng.gen_bool(0.08) {
                WireFate::Deliver(EcnCodepoint::Ce)
            } else {
                WireFate::Deliver(EcnCodepoint::Ect0)
            }
        });
        b.deliver_acks(0.015);
        b.now += b.tick;
        rounds += 1;
        if b.all_done(INCAST_MSGS) || rounds >= INCAST_ROUND_CAP {
            break;
        }
    }
    HotpathRun {
        events: b.events,
        digest: b.digest("incast_churn", seed, rounds),
    }
}

// ------------------------------------------------------------- multipath

const MP_SENDERS: usize = 8;
const MP_MSGS: u64 = 150;
const MP_PATHLETS: u64 = 8;
const MP_ROUND_CAP: u64 = 60_000;

/// Pathlet-feedback-heavy multipath: 8 senders × 150 messages of 4–32
/// packets across 3 traffic classes; every data packet is stamped with
/// rotating per-pathlet feedback TLVs (ECN marks, delay, explicit rate,
/// queue depth) over 8 pathlets, and every 64th packet carries a
/// `PathChange`. Exercises pathlet interning, per-ACK byte attribution,
/// controller demultiplexing, and receiver feedback echo.
pub fn multipath_feedback(seed: u64) -> HotpathRun {
    let mut b = Bench::new(seed, MP_SENDERS, Duration::from_micros(20));
    let mut rounds = 0u64;
    let mut stamp_counter = 0u64;
    loop {
        if rounds < MP_MSGS * 2 + 4 {
            for i in 0..MP_SENDERS {
                let m = rounds.checked_sub((i % 4) as u64);
                if let Some(m) = m {
                    if m % 2 == 0 && m / 2 < MP_MSGS {
                        let k = m / 2;
                        let pkts = 4 + ((k * 11 + i as u64 * 5) % 29) as u32;
                        let bytes = pkts * 1460 - (k % 900) as u32;
                        let tc = TrafficClass((k % 3) as u8);
                        let pri = (k % 4) as u8;
                        b.submit(i, bytes, pri, tc);
                    }
                }
            }
        }
        b.fire_timers();
        b.deliver_data(|rng, hdr| {
            if rng.gen_bool(0.01) {
                return WireFate::Drop;
            }
            stamp_counter += 1;
            let k = stamp_counter;
            let path = PathletId(1 + (k % MP_PATHLETS) as u16);
            let fb = match k % 3 {
                0 => Feedback::EcnMark {
                    ce: rng.gen_bool(0.15),
                },
                1 => Feedback::Delay {
                    ns: (1_000 + (k % 50) * 400) as u32,
                },
                _ => Feedback::RcpRate {
                    mbps: (20_000 + (k % 16) * 5_000) as u32,
                },
            };
            hdr.path_feedback.push(PathFeedback {
                path,
                tc: hdr.tc,
                feedback: fb,
            });
            if k.is_multiple_of(2) {
                let second = PathletId(1 + ((k / 3) % MP_PATHLETS) as u16);
                hdr.path_feedback.push(PathFeedback {
                    path: second,
                    tc: hdr.tc,
                    feedback: if k.is_multiple_of(4) {
                        Feedback::QueueDepth {
                            bytes: (k % 64) as u32 * 1500,
                        }
                    } else {
                        Feedback::EcnFraction {
                            fraction: ((k * 977) % 65536) as u16,
                        }
                    },
                });
            }
            if k.is_multiple_of(64) {
                hdr.path_feedback.push(PathFeedback {
                    path,
                    tc: hdr.tc,
                    feedback: Feedback::PathChange {
                        new_path: PathletId(1 + ((k / 64) % MP_PATHLETS) as u16),
                    },
                });
            }
            WireFate::Deliver(if rng.gen_bool(0.05) {
                EcnCodepoint::Ce
            } else {
                EcnCodepoint::Ect0
            })
        });
        b.deliver_acks(0.0);
        b.now += b.tick;
        rounds += 1;
        if b.all_done(MP_MSGS) || rounds >= MP_ROUND_CAP {
            break;
        }
    }
    HotpathRun {
        events: b.events,
        digest: b.digest("multipath_feedback", seed, rounds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incast_is_deterministic_and_completes() {
        let a = incast_churn(1);
        let b = incast_churn(1);
        assert_eq!(a.digest, b.digest);
        assert!(
            a.digest.contains(&format!(
                "delivered={}",
                INCAST_SENDERS as u64 * INCAST_MSGS
            )),
            "all messages must be delivered:\n{}",
            a.digest.lines().take(40).collect::<Vec<_>>().join("\n")
        );
        assert!(a.events > 10_000, "too small: {} events", a.events);
    }

    #[test]
    fn multipath_is_deterministic_and_completes() {
        let a = multipath_feedback(1);
        let b = multipath_feedback(1);
        assert_eq!(a.digest, b.digest);
        assert!(
            a.digest
                .contains(&format!("delivered={}", MP_SENDERS as u64 * MP_MSGS)),
            "all messages must be delivered"
        );
        assert!(a.events > 10_000, "too small: {} events", a.events);
    }

    #[test]
    fn seeds_differ() {
        assert_ne!(incast_churn(1).digest, incast_churn(2).digest);
        assert_ne!(multipath_feedback(1).digest, multipath_feedback(2).digest);
    }

    #[test]
    fn multipath_observes_many_pathlets() {
        let r = multipath_feedback(3);
        // Every sender should have interned controllers for several
        // (pathlet, tc) pairs beyond the default pathlet.
        for line in r.digest.lines().filter(|l| l.starts_with("sender ")) {
            let pathlets: u64 = line
                .split("pathlets=")
                .nth(1)
                .and_then(|s| s.split_whitespace().next())
                .and_then(|s| s.parse().ok())
                .expect("pathlets field");
            assert!(pathlets >= 8, "expected many pathlets, got {pathlets}");
        }
    }
}
