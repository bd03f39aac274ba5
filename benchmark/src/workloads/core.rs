//! `core_repair`: the reliability layer and the wire codec, nothing else.
//!
//! Eight [`MtpSender`]s feed one [`MtpReceiver`] on one thread under a
//! virtual clock. Every packet is sealed into a frame with
//! [`append_frame`], crosses a seeded in-memory channel that drops,
//! duplicates and reorders, and is split and verified again with
//! [`FrameIter`] and [`MtpHeader::parse_sealed`] before a core sees it.
//! No socket, no event queue: the kernel and the engine do no work here,
//! and because the clock is virtual every count repeats exactly.

use mtp_core::{MsgDelivered, MtpConfig, MtpReceiver, MtpSender, SenderEvent};
use mtp_io::{append_frame, payload, FrameIter, FrameKind, DEFAULT_DATAGRAM_BUDGET};
use mtp_sim::time::{Duration, Time};
use mtp_sim::{Headers, Packet};
use mtp_wire::{
    EcnCodepoint, EntityId, Feedback, MsgId, MtpHeader, PathFeedback, PathletId, PktType,
    TrafficClass,
};
use mtp_workload::SizeDist;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::meter::{HostMeter, Timed};
use crate::metrics::Layers;
use crate::probes;
use crate::run::{
    check_pin, fnv1a, fnv_hex, measure, time_setups, trace_overhead, Outcome, Rep, RunCfg,
    FNV_OFFSET,
};
use crate::trace::{aggregate, Tracer};

const SENDERS: usize = 8;
const PATHLETS: u16 = 4;
const RECEIVER_ADDR: u16 = 100;
/// Messages each sender keeps outstanding.
const WINDOW: usize = 4;
/// Largest message: the web-search tail is capped here.
const MAX_MSG: u64 = 256 * 1024;
/// The virtual clock advances in ticks; a frame sent in one tick arrives
/// in the next, so the round trip is two ticks and the 200 µs minimum
/// RTO is five round trips.
const TICK: Duration = Duration::from_micros(20);
/// Virtual ticks per work slice of the host meter: a few milliseconds.
const TICKS_PER_SLICE: u32 = 128;
/// A run that has not finished by then is stuck.
const MAX_TICKS: u64 = 20_000_000;

const DATA_DROP: f64 = 0.02;
const DATA_DUP: f64 = 0.005;
const DATA_REORDER: f64 = 0.01;
const ACK_DROP: f64 = 0.015;

/// Messages per sender, `(full, smoke)`.
const MSGS_PER_SENDER: (usize, usize) = (1000, 10);

/// Counter digest at the default seed, `(full, smoke)`.
const PIN: (&str, &str) = ("49b85a27876e17e6", "3075f4174ad44ce3");

const SETUPS: usize = 21;
/// Frames a traced run keeps for the codec probes.
const SAMPLE_FRAMES: usize = 4096;

/// The generated input: message sizes per sender, one payload image all
/// messages slice, and the seed of the channel's fate stream.
struct Input {
    sizes: Vec<Vec<u32>>,
    image: Vec<u8>,
    channel_seed: u64,
}

impl Input {
    fn generate(seed: u64, msgs_per_sender: usize) -> Input {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC02E_2E9A);
        let dist = SizeDist::web_search();
        let sizes = (0..SENDERS)
            .map(|_| {
                (0..msgs_per_sender)
                    .map(|_| dist.sample(&mut rng).clamp(1, MAX_MSG) as u32)
                    .collect()
            })
            .collect();
        let mut image = vec![0u8; MAX_MSG as usize];
        payload::fill(MsgId(seed), 0, &mut image);
        Input {
            sizes,
            image,
            channel_seed: rng.next_u64(),
        }
    }

    fn messages(&self) -> u64 {
        self.sizes.iter().map(|s| s.len() as u64).sum()
    }
}

fn msg_id_base(sender: usize) -> u64 {
    (sender as u64 + 1) << 32
}

#[derive(Debug, Default, Clone, Copy)]
struct ChannelStats {
    data_dropped: u64,
    data_duplicated: u64,
    data_reordered: u64,
    acks_dropped: u64,
}

/// What one repetition counted; its `Debug` rendering is digested.
#[derive(Debug, Default)]
struct Counts {
    data_frames_accepted: u64,
    ack_frames_accepted: u64,
    frames_rejected: u64,
    payload_mismatches: u64,
    ticks: u64,
    channel: ChannelStats,
}

/// One repetition's state.
struct Rig<'a> {
    input: &'a Input,
    senders: Vec<MtpSender>,
    receiver: MtpReceiver,
    rng: SmallRng,
    now: Time,
    /// Frames in flight: arriving this tick, and sent during it.
    data_due: Vec<Vec<u8>>,
    data_next: Vec<Vec<u8>>,
    acks_due: Vec<Vec<u8>>,
    acks_next: Vec<Vec<u8>>,
    /// Emptied frame buffers, reused.
    free: Vec<Vec<u8>>,
    next_msg: [usize; SENDERS],
    outstanding: [usize; SENDERS],
    completed: u64,
    delivered: Vec<(u64, u32)>,
    stamp_rr: u16,
    counts: Counts,
    /// The first frames produced, kept in traced runs for the probes.
    sample: Vec<Vec<u8>>,
    out: Vec<Packet>,
    hdrs: Vec<MtpHeader>,
    ev_snd: Vec<SenderEvent>,
    ev_rcv: Vec<MsgDelivered>,
}

impl<'a> Rig<'a> {
    fn new(input: &'a Input) -> Rig<'a> {
        let cfg = MtpConfig::default().with_failover();
        Rig {
            input,
            senders: (0..SENDERS)
                .map(|s| MtpSender::new(cfg.clone(), s as u16 + 1, EntityId(0), msg_id_base(s)))
                .collect(),
            receiver: MtpReceiver::new(RECEIVER_ADDR)
                .with_sack_redundancy(8)
                .with_gc_linger(Duration::from_micros(2_000)),
            rng: SmallRng::seed_from_u64(input.channel_seed),
            now: Time::ZERO,
            data_due: Vec::new(),
            data_next: Vec::new(),
            acks_due: Vec::new(),
            acks_next: Vec::new(),
            free: Vec::new(),
            next_msg: [0; SENDERS],
            outstanding: [0; SENDERS],
            completed: 0,
            delivered: Vec::new(),
            stamp_rr: 0,
            counts: Counts::default(),
            sample: Vec::new(),
            out: Vec::new(),
            hdrs: Vec::new(),
            ev_snd: Vec::new(),
            ev_rcv: Vec::new(),
        }
    }

    /// Seal every packet the cores emitted into a frame and hand it to
    /// the channel.
    fn encode_out(&mut self, tr: &mut Tracer) {
        if self.out.is_empty() {
            return;
        }
        let span = tr.enter("io.frame.encode", self.counts.ticks);
        let n = self.out.len();
        let mut out = std::mem::take(&mut self.out);
        for pkt in out.drain(..) {
            let Headers::Mtp(hdr) = pkt.headers else {
                panic!("a core emitted a non-MTP packet");
            };
            let mut frame = self.free.pop().unwrap_or_default();
            frame.clear();
            let body: &[u8] = if hdr.pkt_type == PktType::Data {
                let at = hdr.pkt_offset as usize;
                &self.input.image[at..at + hdr.pkt_len as usize]
            } else {
                &[]
            };
            let fit = append_frame(&mut frame, DEFAULT_DATAGRAM_BUDGET, &hdr, body)
                .expect("a core frame fits the datagram budget");
            assert!(fit, "an empty datagram refused a fitting frame");
            let is_data = hdr.pkt_type == PktType::Data;
            mtp_sim::pool::recycle_header(hdr);
            if tr.on() && self.sample.len() < SAMPLE_FRAMES {
                self.sample.push(frame.clone());
            }
            if is_data {
                self.channel_data(frame);
            } else {
                self.channel_ack(frame);
            }
        }
        self.out = out;
        tr.exit_calls(span, n as u32);
    }

    fn channel_data(&mut self, frame: Vec<u8>) {
        let fate: f64 = self.rng.gen_range(0.0..1.0);
        if fate < DATA_DROP {
            self.counts.channel.data_dropped += 1;
            self.free.push(frame);
        } else if fate < DATA_DROP + DATA_DUP {
            self.counts.channel.data_duplicated += 1;
            let mut copy = self.free.pop().unwrap_or_default();
            copy.clear();
            copy.extend_from_slice(&frame);
            self.data_next.push(copy);
            self.data_next.push(frame);
        } else if fate < DATA_DROP + DATA_DUP + DATA_REORDER && !self.data_next.is_empty() {
            // Adjacent reorder: overtake the frame sent just before.
            self.counts.channel.data_reordered += 1;
            let at = self.data_next.len() - 1;
            self.data_next.insert(at, frame);
        } else {
            self.data_next.push(frame);
        }
    }

    fn channel_ack(&mut self, frame: Vec<u8>) {
        if self.rng.gen_range(0.0..1.0) < ACK_DROP {
            self.counts.channel.acks_dropped += 1;
            self.free.push(frame);
        } else {
            self.acks_next.push(frame);
        }
    }

    /// Split and verify the frames of `due` into `self.hdrs`.
    fn decode(&mut self, due: &mut Vec<Vec<u8>>, tr: &mut Tracer) {
        let span = tr.enter("io.frame.decode", self.counts.ticks);
        let n = due.len();
        for dgram in due.drain(..) {
            for frame in FrameIter::new(&dgram) {
                let Ok((FrameKind::Mtp, body)) = frame else {
                    self.counts.frames_rejected += 1;
                    continue;
                };
                let Ok((mut hdr, used, payload_ok)) = MtpHeader::parse_sealed(body) else {
                    self.counts.frames_rejected += 1;
                    continue;
                };
                let data = &body[used..];
                if !payload_ok || data.len() != hdr.pkt_len as usize {
                    self.counts.frames_rejected += 1;
                    continue;
                }
                if hdr.pkt_type == PktType::Data {
                    let at = hdr.pkt_offset as usize;
                    if self.input.image.get(at..at + data.len()) != Some(data) {
                        self.counts.payload_mismatches += 1;
                        continue;
                    }
                    // The channel is the first-hop network: it says
                    // which pathlet carried the packet.
                    hdr.path_feedback.clear();
                    hdr.path_feedback.push(PathFeedback {
                        path: PathletId(self.stamp_rr % PATHLETS),
                        tc: hdr.tc,
                        feedback: Feedback::EcnMark { ce: false },
                    });
                    self.stamp_rr = self.stamp_rr.wrapping_add(1);
                }
                self.hdrs.push(hdr);
            }
            self.free.push(dgram);
        }
        tr.exit_calls(span, n as u32);
    }

    fn tick(&mut self, tr: &mut Tracer) {
        let now = self.now;
        let id = self.counts.ticks;

        // Data arriving at the receiver.
        if !self.data_due.is_empty() {
            let mut due = std::mem::take(&mut self.data_due);
            self.decode(&mut due, tr);
            self.data_due = due;
            let span = tr.enter("core.receiver.on_data", id);
            let n = self.hdrs.len();
            for hdr in &self.hdrs {
                let (ack, _) = self.receiver.on_data(now, hdr, EcnCodepoint::Ect0);
                self.out.push(ack);
            }
            tr.exit_calls(span, n as u32);
            self.hdrs.clear();
            self.counts.data_frames_accepted += n as u64;
            self.receiver.drain_events(&mut self.ev_rcv);
            for d in self.ev_rcv.drain(..) {
                self.delivered.push((d.id.0, d.bytes));
            }
            self.encode_out(tr);
        }

        // ACKs arriving at the senders.
        if !self.acks_due.is_empty() {
            let mut due = std::mem::take(&mut self.acks_due);
            self.decode(&mut due, tr);
            self.acks_due = due;
            let span = tr.enter("core.sender.on_ack", id);
            let n = self.hdrs.len();
            for hdr in &self.hdrs {
                let s = (hdr.dst_port as usize).wrapping_sub(1);
                if let Some(snd) = self.senders.get_mut(s) {
                    snd.on_ack(now, hdr, &mut self.out);
                }
            }
            tr.exit_calls(span, n as u32);
            self.hdrs.clear();
            self.counts.ack_frames_accepted += n as u64;
        }

        // Submissions: each sender keeps WINDOW messages outstanding.
        let span = tr.enter("core.sender.send_message", id);
        let mut submitted = 0u32;
        for s in 0..SENDERS {
            while self.outstanding[s] < WINDOW && self.next_msg[s] < self.input.sizes[s].len() {
                let bytes = self.input.sizes[s][self.next_msg[s]];
                self.senders[s].send_message(
                    RECEIVER_ADDR,
                    bytes,
                    0,
                    TrafficClass::BEST_EFFORT,
                    now,
                    &mut self.out,
                );
                self.next_msg[s] += 1;
                self.outstanding[s] += 1;
                submitted += 1;
            }
        }
        tr.exit_calls(span, submitted);

        // Timers: RTO, quarantine release, completed-record GC.
        let span = tr.enter("core.sender.poll_at", id);
        let mut due = [false; SENDERS];
        for (s, snd) in self.senders.iter_mut().enumerate() {
            due[s] = snd.poll_at().is_some_and(|t| t <= now);
        }
        tr.exit_calls(span, SENDERS as u32);
        if due.contains(&true) {
            let span = tr.enter("core.sender.on_timer", id);
            let mut fired = 0u32;
            for (s, snd) in self.senders.iter_mut().enumerate() {
                if due[s] {
                    snd.on_timer(now, &mut self.out);
                    fired += 1;
                }
            }
            tr.exit_calls(span, fired);
        }
        if self.receiver.poll_at().is_some_and(|t| t <= now) {
            let span = tr.enter("core.receiver.on_poll", id);
            self.receiver.on_poll(now);
            tr.exit(span);
        }

        for (s, snd) in self.senders.iter_mut().enumerate() {
            snd.drain_events(&mut self.ev_snd);
            for _ in self.ev_snd.drain(..) {
                self.outstanding[s] -= 1;
                self.completed += 1;
            }
        }
        self.encode_out(tr);

        self.now = now + TICK;
        self.counts.ticks += 1;
        std::mem::swap(&mut self.data_due, &mut self.data_next);
        std::mem::swap(&mut self.acks_due, &mut self.acks_next);
    }

    fn done(&self) -> bool {
        self.completed == self.input.messages()
            && self.data_due.is_empty()
            && self.acks_due.is_empty()
    }

    /// Digest of everything the run counted.
    fn digest(&mut self) -> String {
        self.delivered.sort_unstable();
        let mut h = FNV_OFFSET;
        for (id, bytes) in &self.delivered {
            h = fnv1a(h, &id.to_le_bytes());
            h = fnv1a(h, &bytes.to_le_bytes());
        }
        // Named fields, not `Debug`: a counter added to a library struct
        // later must not move the pin.
        let r = &self.receiver.stats;
        let mut text = format!(
            "now={} delivered={h:016x} {:?} rx={}/{}/{}/{}/{}/{}",
            self.now.0,
            self.counts,
            r.pkts_seen,
            r.duplicates,
            r.trimmed,
            r.nacks_sent,
            r.msgs_delivered,
            r.goodput_bytes
        );
        for snd in &self.senders {
            let s = &snd.stats;
            text.push_str(&format!(
                " tx={}/{}/{}/{}/{}/{}/{}/{}/{}",
                s.pkts_sent,
                s.retransmissions,
                s.timeouts,
                s.nacks,
                s.msgs_completed,
                s.quarantines,
                s.failovers,
                s.reprobes,
                s.evacuated_pkts
            ));
        }
        fnv_hex(&text)
    }
}

/// What one repetition produced.
struct Run {
    rep: Rep,
    digest: String,
    /// Messages that never completed or were not delivered exactly once.
    failed: u64,
    errors: Vec<String>,
    /// Sender counters summed over the eight senders.
    pkts_sent: u64,
    retransmissions: u64,
    timeouts: u64,
    nacks: u64,
    duplicates: u64,
    nacks_sent: u64,
    /// A sample of the frames the run produced, for the probes.
    sample: Vec<Vec<u8>>,
}

fn repetition(input: &Input, meter: &mut HostMeter, tr: &mut Tracer) -> Run {
    let mut rig = Rig::new(input);
    let mut timed = Timed::begin(meter);
    while !rig.done() && rig.counts.ticks < MAX_TICKS {
        let span = tr.enter("core_repair.ticks", rig.counts.ticks);
        for _ in 0..TICKS_PER_SLICE {
            rig.tick(tr);
            if rig.done() {
                break;
            }
        }
        tr.exit(span);
        timed.lap();
    }
    let m = timed.end();

    let mut errors = Vec::new();
    if !rig.done() {
        errors.push(format!(
            "stuck: {}/{} messages completed after {} ticks",
            rig.completed,
            input.messages(),
            rig.counts.ticks
        ));
    }
    let digest = rig.digest();
    // Exactly once: the sorted deliveries are the submitted set.
    let mut expected: Vec<(u64, u32)> = Vec::with_capacity(input.messages() as usize);
    for (s, sizes) in input.sizes.iter().enumerate() {
        for (k, &bytes) in sizes.iter().enumerate() {
            expected.push((msg_id_base(s) + k as u64, bytes));
        }
    }
    let failed = if rig.delivered == expected {
        0
    } else {
        errors.push(format!(
            "ledger: {} deliveries for {} messages submitted",
            rig.delivered.len(),
            expected.len()
        ));
        let delivered_once = expected
            .iter()
            .filter(|e| rig.delivered.iter().filter(|d| d == e).count() == 1)
            .count();
        (expected.len() - delivered_once) as u64
    };
    if rig.counts.payload_mismatches != 0 || rig.counts.frames_rejected != 0 {
        errors.push(format!(
            "codec: {} payload mismatches, {} frames rejected on an honest channel",
            rig.counts.payload_mismatches, rig.counts.frames_rejected
        ));
    }
    let sum = |f: fn(&MtpSender) -> u64| rig.senders.iter().map(f).sum::<u64>();
    Run {
        rep: Rep {
            ops: rig.counts.data_frames_accepted + rig.counts.ack_frames_accepted,
            m,
        },
        digest,
        failed,
        errors,
        pkts_sent: sum(|s| s.stats.pkts_sent),
        retransmissions: sum(|s| s.stats.retransmissions),
        timeouts: sum(|s| s.stats.timeouts),
        nacks: sum(|s| s.stats.nacks),
        duplicates: rig.receiver.stats.duplicates,
        nacks_sent: rig.receiver.stats.nacks_sent,
        sample: rig.sample,
    }
}

/// Run `core_repair`.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut meter = HostMeter::new(cfg.workload.nominal_slice_us);
    let per_sender = if cfg.smoke {
        MSGS_PER_SENDER.1
    } else {
        MSGS_PER_SENDER.0
    };
    let (setup_s, input) = time_setups(SETUPS, &mut meter, || {
        let input = Input::generate(cfg.seed, per_sender);
        // The first repetition's cores are part of what set-up builds.
        drop(Rig::new(&input));
        input
    });
    out.setup_s = setup_s;
    let mut off = Tracer::new(false, cfg.epoch);

    let warm = repetition(&input, &mut meter, &mut off);
    out.attempted = input.messages();
    out.failed = warm.failed;
    for e in warm.errors {
        out.fail(e);
    }
    check_pin(cfg, &mut out, "core_repair", &warm.digest, PIN);
    out.notes
        .set("digest", warm.digest.as_str())
        .set("frames", warm.rep.ops)
        .set("messages", input.messages())
        .set("retransmissions", warm.retransmissions)
        .set("timeouts", warm.timeouts);

    measure(cfg, &mut out, |out| {
        let run = repetition(&input, &mut meter, &mut off);
        if run.digest != warm.digest {
            out.fail(format!(
                "replay digest {} != first {}",
                run.digest, warm.digest
            ));
        }
        Ok(run.rep)
    })?;

    if cfg.trace {
        let mut tr = Tracer::new(true, cfg.epoch);
        let run = repetition(&input, &mut meter, &mut tr);
        let spans = tr.into_spans();
        let agg = aggregate(&spans);
        // Per-call times at nominal host speed, as the end-to-end times.
        let factor = run.rep.m.host_factor;
        let per_call = |name: &str| agg.get(name).map_or(0.0, |a| a.self_ns_per_call() / factor);
        let mut layers = Layers::default();
        layers.set(
            "core.sender.send_message_ns",
            per_call("core.sender.send_message"),
        );
        layers.set("core.sender.on_ack_ns", per_call("core.sender.on_ack"));
        layers.set("core.sender.on_timer_ns", per_call("core.sender.on_timer"));
        layers.set("core.sender.poll_at_ns", per_call("core.sender.poll_at"));
        layers.set("core.sender.pkts_sent", run.pkts_sent as f64);
        layers.set("core.sender.retransmissions", run.retransmissions as f64);
        layers.set("core.sender.timeouts", run.timeouts as f64);
        layers.set("core.sender.nacks", run.nacks as f64);
        layers.set(
            "core.sender.retx_ratio",
            run.retransmissions as f64 / run.pkts_sent as f64,
        );
        layers.set(
            "core.receiver.on_data_ns",
            per_call("core.receiver.on_data"),
        );
        layers.set(
            "core.receiver.on_poll_ns",
            per_call("core.receiver.on_poll"),
        );
        layers.set("core.receiver.duplicates", run.duplicates as f64);
        layers.set("core.receiver.nacks_sent", run.nacks_sent as f64);
        probes::codec(&mut layers, &mut meter, &run.sample);
        probes::telemetry(&mut layers, &mut meter);
        layers.set("trace_overhead_x", trace_overhead(&out.reps, &run.rep));
        out.layers = Some(layers);
        out.spans.push(("main", spans));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn seed_changes_the_input_and_the_digest() {
        let mut off = Tracer::new(false, Instant::now());
        let mut meter = HostMeter::new(500.0);
        let a = repetition(&Input::generate(1, 3), &mut meter, &mut off);
        let a2 = repetition(&Input::generate(1, 3), &mut meter, &mut off);
        let b = repetition(&Input::generate(2, 3), &mut meter, &mut off);
        assert!(a.errors.is_empty(), "{:?}", a.errors);
        assert_eq!(a.failed, 0);
        assert_eq!(a.digest, a2.digest, "same seed must replay exactly");
        assert_ne!(a.digest, b.digest, "another seed must give another input");
    }
}
