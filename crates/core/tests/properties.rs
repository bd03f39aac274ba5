//! Property-based tests of the sans-IO MTP cores: receiver exactly-once
//! delivery under arbitrary arrival orders, sender robustness under
//! adversarial ACK streams, controller window bounds under arbitrary
//! feedback, the TLVs no controller reads changing nothing, and the two
//! bounded-state mechanisms — the sender's sliding message window and the
//! receiver's records that live only while their message is in
//! reassembly — each checked step by step against a model that keeps
//! everything.

use proptest::prelude::*;

use mtp_core::pathlet_cc::{CcKind, WINDOW_CAP, WINDOW_FLOOR};
use mtp_core::{DctcpLikeCc, MtpConfig, MtpReceiver, MtpSender, PathletCc, SenderEvent};
use mtp_sim::time::{Duration, Time};
use mtp_wire::types::flags;
use mtp_wire::{
    EcnCodepoint, EntityId, Feedback, MsgId, MtpHeader, PathFeedback, PathletId, PktNum, PktType,
    SackEntry, TrafficClass,
};

/// Final observable state of one lossy loopback session, compared both
/// against the reference ledger and against a replay of the same seed.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SessionOutcome {
    /// `(msg_id, bytes)` per receiver delivery event, sorted by id.
    delivered: Vec<(u64, u32)>,
    /// `(msg_id, bytes)` per sender completion event, sorted by id.
    completed: Vec<(u64, u32)>,
    /// `(pkts_sent, retransmissions, timeouts, nacks)`.
    stats: (u64, u64, u64, u64),
    /// `(inflight, window)` for every interned pathlet, in intern order.
    windows: Vec<(u64, u64)>,
}

/// `(inflight, window)` for every interned pathlet, in intern order.
fn pathlet_windows(s: &MtpSender) -> Vec<(u64, u64)> {
    (0..s.pathlets().len())
        .map(|i| {
            let e = s.pathlets().at(mtp_core::pathlet_cc::PathIdx(i as u32));
            (e.inflight, e.cc.window())
        })
        .collect()
}

/// Drive random-size messages through a sender↔receiver loopback whose
/// wire drops data packets with probability `drop_pct`% and ACKs with
/// probability `ack_drop_pct`%, occasionally letting the RTO fire instead
/// of delivering. Message `i` gets id `500 + i`. Runs until everything
/// completes (or errs if the session wedges).
fn run_lossy_session(
    seed: u64,
    drop_pct: u32,
    ack_drop_pct: u32,
    sizes: &[u32],
    fixed_window: bool,
) -> Result<SessionOutcome, String> {
    use rand::Rng;
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);

    let cc = if fixed_window {
        CcKind::Fixed { window: 15_000 }
    } else {
        CcKind::DctcpLike {
            init_window: 15_000,
        }
    };
    let mut s = MtpSender::new(
        MtpConfig {
            cc,
            ..MtpConfig::default()
        },
        1,
        EntityId(0),
        500,
    );
    let mut r = MtpReceiver::new(2);

    let mut now = Time::ZERO;
    let mut wire: std::collections::VecDeque<mtp_sim::packet::Packet> =
        std::collections::VecDeque::new();
    let mut next_msg = 0usize;
    let mut sizes_by_id = std::collections::HashMap::new();
    let mut delivered = Vec::new();
    let mut completed = Vec::new();
    let mut sev = Vec::new();
    let mut rev = Vec::new();
    let mut out = Vec::new();

    for step in 0.. {
        if step > 400_000 {
            return Err(format!(
                "session wedged: {} of {} messages complete after {step} steps",
                completed.len(),
                sizes.len()
            ));
        }
        now += Duration::from_micros(1);

        // Stagger submissions randomly through the run (always submit when
        // the session would otherwise go idle).
        let idle = wire.is_empty() && s.outstanding() == 0;
        if next_msg < sizes.len() && (idle || rng.gen_range(0u32..50) == 0) {
            let id = s.send_message(
                2,
                sizes[next_msg],
                0,
                TrafficClass::BEST_EFFORT,
                now,
                &mut out,
            );
            sizes_by_id.insert(id.0, sizes[next_msg]);
            next_msg += 1;
            wire.extend(out.drain(..));
        }

        // Occasionally stall the wire and let the retransmission timer
        // fire instead; always do so when loss has emptied the wire.
        let deadline = s.next_deadline();
        let force_timer = wire.is_empty() && s.outstanding() > 0;
        if let Some(d) = deadline {
            if force_timer || rng.gen_range(0u32..40) == 0 {
                now = Time(now.0.max(d.0));
                s.on_timer(now, &mut out);
                wire.extend(out.drain(..));
            }
        }

        let Some(pkt) = wire.pop_front() else {
            if s.outstanding() == 0 && next_msg == sizes.len() {
                break;
            }
            continue;
        };
        let hdr = pkt.headers.as_mtp().expect("loopback carries MTP");
        if rng.gen_range(0u32..100) < drop_pct {
            continue; // lost in the network
        }
        let (ack, _) = r.on_data(now, hdr, EcnCodepoint::Ect0);
        r.drain_events(&mut rev);
        for ev in rev.drain(..) {
            delivered.push((ev.id.0, ev.bytes));
        }
        if rng.gen_range(0u32..100) < ack_drop_pct {
            continue; // ACK lost on the way back
        }
        let ack_hdr = ack.headers.as_mtp().expect("receiver emits MTP");
        now += Duration::from_micros(1);
        s.on_ack(now, ack_hdr, &mut out);
        wire.extend(out.drain(..));
        s.drain_events(&mut sev);
        for ev in sev.drain(..) {
            let SenderEvent::MsgCompleted { id, .. } = ev;
            completed.push((id.0, sizes_by_id[&id.0]));
        }
    }

    if s.next_deadline().is_some() {
        return Err("quiesced sender still holds a deadline".into());
    }
    if r.buffered_bytes() != 0 {
        return Err("receiver retains buffered bytes after delivery".into());
    }

    delivered.sort_unstable();
    completed.sort_unstable();
    let windows = pathlet_windows(&s);
    Ok(SessionOutcome {
        delivered,
        completed,
        stats: (
            s.stats.pkts_sent,
            s.stats.retransmissions,
            s.stats.timeouts,
            s.stats.nacks,
        ),
        windows,
    })
}

fn data_pkt(msg: u64, pkt: u32, n_pkts: u32, last_len: u16, retx: bool) -> MtpHeader {
    let full = 1460u16;
    let len = if pkt == n_pkts - 1 { last_len } else { full };
    MtpHeader {
        src_port: 1,
        dst_port: 2,
        pkt_type: PktType::Data,
        msg_id: MsgId(msg),
        msg_len_pkts: n_pkts,
        msg_len_bytes: (n_pkts - 1) * full as u32 + last_len as u32,
        pkt_num: PktNum(pkt),
        pkt_len: len,
        pkt_offset: pkt * full as u32,
        flags: (if pkt == n_pkts - 1 {
            flags::LAST_PKT
        } else {
            0
        }) | (if retx { flags::RETX } else { 0 }),
        ..MtpHeader::default()
    }
}

/// What a sender exposes that feedback could move: counters, occupancy,
/// per-pathlet charge and window, the RTO deadline.
fn sender_fingerprint(s: &mut MtpSender) -> String {
    let windows = pathlet_windows(s);
    let deadline = s.next_deadline();
    format!(
        "{:?} {} {} {windows:?} {deadline:?} {:?}",
        s.stats,
        s.outstanding(),
        s.resident(),
        s.active_pathlet()
    )
}

/// Many small messages through a loopback that loses, duplicates and
/// reorders data, loses ACKs and lets the RTO fire, while SACKs and NACKs
/// for messages that completed long ago keep being replayed at the sender.
/// Checks at every step that the window holds exactly the ids from the
/// oldest incomplete one up (`outstanding()` plus the completed ones
/// waiting behind it), that feedback naming only retired ids moves no
/// counter and emits no packet, and at the end the exactly-once ledger.
fn run_window_session(seed: u64, loss_pct: u32, dup_pct: u32, n_msgs: u64) -> Result<(), String> {
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;
    const BASE: u64 = 9_000;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let cfg = MtpConfig {
        cc: CcKind::Fixed { window: 15_000 },
        ..MtpConfig::default()
    };
    let mut s = MtpSender::new(cfg, 1, EntityId(0), BASE);
    let mut r = MtpReceiver::new(2);
    let mut now = Time::ZERO;
    let mut wire = std::collections::VecDeque::new();
    let (mut out, mut sev, mut rev) = (Vec::new(), Vec::new(), Vec::new());
    let mut incomplete: BTreeSet<u64> = BTreeSet::new();
    let (mut submitted, mut delivered, mut completed) = (0u64, Vec::new(), Vec::new());
    // Every SACK entry the receiver ever produced: the replay pool.
    let mut history: Vec<SackEntry> = Vec::new();
    let mut stale_replays = 0u64;

    for step in 0.. {
        if step > 400_000 {
            return Err(format!(
                "wedged with {} of {n_msgs} complete",
                completed.len()
            ));
        }
        now += Duration::from_micros(1);
        if submitted < n_msgs && incomplete.len() < 8 && rng.gen_range(0u32..4) == 0 {
            let bytes = rng.gen_range(1u32..6_000);
            let id = s.send_message(2, bytes, 0, TrafficClass::BEST_EFFORT, now, &mut out);
            if id.0 != BASE + submitted {
                return Err(format!("id {} for submission {submitted}", id.0));
            }
            incomplete.insert(id.0);
            submitted += 1;
            wire.extend(out.drain(..));
        }
        if let Some(d) = s.next_deadline() {
            if wire.is_empty() || rng.gen_range(0u32..60) == 0 {
                now = Time(now.0.max(d.0));
                s.on_timer(now, &mut out);
                wire.extend(out.drain(..));
            }
        }

        // Stale feedback: SACKs and NACKs that name only retired ids.
        let floor = incomplete.first().copied().unwrap_or(BASE + submitted);
        if !history.is_empty() && rng.gen_range(0u32..3) == 0 {
            let mut pick = || history[rng.gen_range(0..history.len())];
            let stale: Vec<SackEntry> =
                (0..6).map(|_| pick()).filter(|e| e.msg.0 < floor).collect();
            if !stale.is_empty() {
                let (sack, nack) = stale.split_at(stale.len() / 2);
                let hdr = MtpHeader {
                    pkt_type: PktType::Ack,
                    sack: sack.to_vec(),
                    nack: nack.to_vec(),
                    ..MtpHeader::default()
                };
                let before = sender_fingerprint(&mut s);
                s.on_ack(now, &hdr, &mut out);
                s.drain_events(&mut sev);
                if !out.is_empty() || !sev.is_empty() || sender_fingerprint(&mut s) != before {
                    return Err(format!("feedback for retired ids {stale:?} had an effect"));
                }
                stale_replays += 1;
            }
        }

        // One packet off the wire: usually the oldest, sometimes not.
        if !wire.is_empty() {
            let at = if rng.gen_range(0u32..8) == 0 {
                rng.gen_range(0..wire.len())
            } else {
                0
            };
            let pkt: mtp_sim::packet::Packet = wire.remove(at).expect("index in range");
            let hdr = pkt.headers.as_mtp().expect("loopback carries MTP");
            let copies = match rng.gen_range(0u32..100) {
                x if x < loss_pct => 0,
                x if x < loss_pct + dup_pct => 2,
                _ => 1,
            };
            for _ in 0..copies {
                let (ack, _) = r.on_data(now, hdr, EcnCodepoint::Ect0);
                r.drain_events(&mut rev);
                delivered.extend(rev.drain(..).map(|ev| ev.id.0));
                let ack_hdr = ack.headers.as_mtp().expect("receiver emits MTP");
                history.extend_from_slice(&ack_hdr.sack);
                if rng.gen_range(0u32..100) < loss_pct / 2 {
                    continue; // ACK lost on the way back
                }
                now += Duration::from_micros(1);
                s.on_ack(now, ack_hdr, &mut out);
                wire.extend(out.drain(..));
            }
        }
        s.drain_events(&mut sev);
        for ev in sev.drain(..) {
            let SenderEvent::MsgCompleted { id, .. } = ev;
            if !incomplete.remove(&id.0) {
                return Err(format!("message {} completed twice", id.0));
            }
            completed.push(id.0);
        }

        let floor = incomplete.first().copied().unwrap_or(BASE + submitted);
        let span = (BASE + submitted - floor) as usize;
        if s.outstanding() != incomplete.len() || s.resident() != span {
            return Err(format!(
                "step {step}: outstanding {} (model {}), resident {} (ids {floor}.. = {span})",
                s.outstanding(),
                incomplete.len(),
                s.resident()
            ));
        }
        if submitted == n_msgs && incomplete.is_empty() && wire.is_empty() {
            break;
        }
    }
    let all: Vec<u64> = (BASE..BASE + n_msgs).collect();
    delivered.sort_unstable();
    completed.sort_unstable();
    if delivered != all || completed != all {
        return Err("exactly-once ledger violated".into());
    }
    if n_msgs >= 20 && stale_replays == 0 {
        return Err("no stale feedback was ever replayed".into());
    }
    Ok(())
}

/// The receiver's record lifetime checked against a model that keeps
/// every id: random arrivals — some trimmed, some flagged as
/// retransmissions — from three interleaved senders, each sending ids
/// from a window of `window` above its oldest incomplete one (so probe
/// runs collide), with one arrival in four a copy of any id the sender
/// has moved past, on a virtual clock that sometimes jumps far ahead.
/// A record must exist
/// exactly while its message is in reassembly: after every operation
/// `in_reassembly()` is the model's incomplete count and `resident()`
/// that plus the runs the completed ids form; `poll_at()` is always
/// `None` and `on_poll` collects nothing. A straggler of a completed
/// message, however late, is a duplicate: acknowledged (unless trimmed),
/// never NACKed, never delivered again, and it adds no record. After each
/// completion every record still in reassembly is found again. Returns
/// how many arrivals were stragglers.
fn run_receiver_model(seed: u64, window: u64, steps: usize) -> Result<u64, String> {
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};
    const BASES: [u64; 3] = [70_000, 3 << 32, 1 << 48];
    // Each sender's oldest incomplete id.
    let mut oldest = BASES;
    let n_pkts = |id: u64| 1 + (id % 3) as u32;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut r = MtpReceiver::new(2);
    // Received-packet bits of each message in reassembly.
    let mut model: BTreeMap<u64, u32> = BTreeMap::new();
    let mut done: BTreeSet<u64> = BTreeSet::new();
    let mut runs = 0usize;
    let mut now = Time::ZERO;
    let mut rev = Vec::new();
    let mut stragglers = 0u64;

    for step in 0..steps {
        now += Duration::from_micros(rng.gen_range(0u64..4));
        if rng.gen_range(0u32..50) == 0 {
            now += Duration::from_micros(rng.gen_range(0u64..1_000_000));
            if r.on_poll(now) != 0 {
                return Err(format!("step {step}: on_poll collected something"));
            }
        }
        let b = rng.gen_range(0..BASES.len());
        let id = if oldest[b] > BASES[b] && rng.gen_range(0u32..4) == 0 {
            rng.gen_range(BASES[b]..oldest[b])
        } else {
            oldest[b] + rng.gen_range(0..window)
        };
        let n = n_pkts(id);
        let pkt = rng.gen_range(0..n);
        let trimmed = rng.gen_range(0u32..8) == 0;
        let mut hdr = data_pkt(id, pkt, n, 100, rng.gen_range(0u32..2) == 0);
        if trimmed {
            hdr.flags |= flags::TRIMMED;
        }
        let want = SackEntry {
            msg: MsgId(id),
            pkt: PktNum(pkt),
        };
        let (dups, trims) = (r.stats.duplicates, r.stats.trimmed);
        let (ack, newly) = r.on_data(now, &hdr, EcnCodepoint::Ect0);
        let ack = ack.headers.as_mtp().expect("ack");
        r.drain_events(&mut rev);
        let delivered = rev.drain(..).count();
        if r.stats.trimmed != trims + u64::from(trimmed) {
            return Err(format!("step {step}: trimmed count for {id}/{pkt}"));
        }
        if ack.sack.contains(&want) == trimmed {
            return Err(format!(
                "step {step}: {id}/{pkt} SACKed although trimmed, or not SACKed"
            ));
        }
        if done.contains(&id) {
            stragglers += 1;
            if newly != 0
                || delivered != 0
                || !ack.nack.is_empty()
                || r.stats.duplicates != dups + u64::from(!trimmed)
            {
                return Err(format!(
                    "step {step}: straggler {id}/{pkt} of a completed message: {newly} new bytes, \
                     {delivered} deliveries, NACKs {:?}",
                    ack.nack
                ));
            }
        } else {
            let got = model.entry(id).or_insert(0);
            let held = *got & (1 << pkt) != 0;
            if trimmed {
                if ack.nack.contains(&want) == held {
                    return Err(format!("step {step}: trimmed {id}/{pkt} NACK disagrees"));
                }
            } else {
                *got |= 1 << pkt;
                if (newly > 0) == held || (r.stats.duplicates > dups) != held {
                    return Err(format!(
                        "step {step}: {id}/{pkt} first copy {}, receiver said {newly} new bytes",
                        !held
                    ));
                }
            }
            let completes = *got == (1 << n) - 1 && !held && !trimmed;
            if delivered != usize::from(completes) {
                return Err(format!("step {step}: delivery events for {id} disagree"));
            }
            if completes {
                model.remove(&id);
                runs += 1;
                runs -= usize::from(done.contains(&(id - 1)));
                runs -= usize::from(done.contains(&(id + 1)));
                done.insert(id);
                while done.contains(&oldest[b]) {
                    oldest[b] += 1;
                }
                // Every record still in reassembly is reachable through
                // the probe map: a copy of a packet it holds is a
                // duplicate, a trimmed copy of one it lacks a NACK, and
                // neither adds a record.
                for (&other, &got) in &model {
                    let (dups, held) = (r.stats.duplicates, r.in_reassembly());
                    let hdr = if got == 0 {
                        let mut hdr = data_pkt(other, 0, n_pkts(other), 100, true);
                        hdr.flags |= flags::TRIMMED;
                        hdr
                    } else {
                        data_pkt(other, got.trailing_zeros(), n_pkts(other), 100, true)
                    };
                    let (ack, _) = r.on_data(now, &hdr, EcnCodepoint::Ect0);
                    let ack = ack.headers.as_mtp().expect("ack");
                    let found = if got == 0 {
                        ack.nack.len() == 1
                    } else {
                        r.stats.duplicates == dups + 1
                    };
                    if !found || r.in_reassembly() != held {
                        return Err(format!(
                            "step {step}: {other} in reassembly lost after {id} completed"
                        ));
                    }
                }
            }
        }
        if r.in_reassembly() != model.len()
            || r.resident() != model.len() + runs
            || r.poll_at().is_some()
        {
            return Err(format!(
                "step {step}: in reassembly {} / {}, resident {} / {} + {runs} runs, poll_at {:?}",
                r.in_reassembly(),
                model.len(),
                r.resident(),
                model.len(),
                r.poll_at()
            ));
        }
    }
    Ok(stragglers)
}

/// A sender with every packet of messages of `sizes` bytes in flight (a
/// window nothing fills), and those packets' headers.
fn sender_in_flight(sizes: &[u32]) -> (MtpSender, Vec<MtpHeader>) {
    let cfg = MtpConfig {
        cc: CcKind::Fixed { window: 1 << 28 },
        ..MtpConfig::default()
    };
    let mut s = MtpSender::new(cfg, 1, EntityId(0), 500);
    let mut out = Vec::new();
    for &bytes in sizes {
        s.send_message(2, bytes, 0, TrafficClass::BEST_EFFORT, Time::ZERO, &mut out);
    }
    let sent = out
        .iter()
        .map(|p| p.headers.as_mtp().expect("data").clone());
    (s, sent.collect())
}

/// What a sender does with `acks`: the packets it retransmits on their
/// NACKs, the messages it completes, and — asked at the end to repair
/// every packet in `sent` — the packets no ACK acknowledged. Each sorted.
type SenderVerdict = (Vec<(u64, u32)>, Vec<u64>, Vec<(u64, u32)>);

fn sender_verdict(mut s: MtpSender, sent: &[MtpHeader], acks: &[MtpHeader]) -> SenderVerdict {
    let mut out = Vec::new();
    let key = |p: &mtp_sim::packet::Packet| {
        let h = p.headers.as_mtp().expect("data");
        assert!(h.is_retx(), "every packet was already in flight");
        (h.msg_id.0, h.pkt_num.0)
    };
    for ack in acks {
        s.on_ack(Time(1), ack, &mut out);
    }
    let mut retx: Vec<_> = out.drain(..).map(|p| key(&p)).collect();
    let mut events = Vec::new();
    s.drain_events(&mut events);
    let mut completed: Vec<u64> = events
        .iter()
        .map(|SenderEvent::MsgCompleted { id, .. }| id.0)
        .collect();
    let probe = MtpHeader {
        pkt_type: PktType::Ack,
        nack: sent
            .iter()
            .map(|h| SackEntry {
                msg: h.msg_id,
                pkt: h.pkt_num,
            })
            .collect(),
        ..MtpHeader::default()
    };
    s.on_ack(Time(2), &probe, &mut out);
    let mut unacked: Vec<_> = out.iter().map(key).collect();
    retx.sort_unstable();
    completed.sort_unstable();
    unacked.sort_unstable();
    (retx, completed, unacked)
}

/// How one run of `coalesced_acks_match` draws its arrivals and seals.
#[derive(Debug, Clone, Copy)]
struct Weather {
    /// Packets lost, %; half as many again are trimmed, and 5 % are
    /// duplicated.
    loss_pct: u32,
    /// While a repair or a duplicate is pending, one arrives in about one
    /// step of this many; the rest arrive after every first copy.
    late_in: u32,
    /// The pathlet, the stamped and the IP-level CE mark each change
    /// about once in this many arrivals.
    flip_in: u32,
    /// Receiver B seals its open ACK after this % of arrivals.
    seal_pct: u32,
}

/// One ACK per packet (`on_data`, receiver A) against `ack_into` with
/// seals at random points (receiver B) over one random arrival sequence
/// drawn as `weather` says: the packets of messages of `sizes` bytes from
/// one sender, interleaved across messages, some lost, trimmed or
/// duplicated, the lost and trimmed ones mostly repaired later by copies
/// flagged RETX; each arrival stamped by one of two pathlets (or none),
/// with a stamped and an IP-level CE mark. B also seals whenever the core
/// refuses a packet.
///
/// Each ACK of B must be the ACK A sent for its first packet extended by
/// the fresh SACK and the NACKs of every packet that joined it, and every
/// such packet's own ACK must echo what B's does (no ACK mixes two
/// echoes). Hence both receivers end with equal stats and deliveries,
/// B's SACKs form the same set as A's and its NACKs the same multiset,
/// and a sender fed either stream acknowledges, completes and repairs
/// the same packets (its windows are not compared).
fn coalesced_acks_match(
    seed: u64,
    sizes: &[u32],
    redundancy: usize,
    weather: Weather,
) -> Result<(), String> {
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeSet, VecDeque};
    let Weather {
        loss_pct,
        late_in,
        flip_in,
        seal_pct,
    } = weather;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let (_, sent) = sender_in_flight(sizes);

    // Per message, its packets in send order; the network keeps that
    // order within a message and interleaves messages.
    let mut queues: Vec<VecDeque<&MtpHeader>> = vec![VecDeque::new(); sizes.len()];
    for h in &sent {
        queues[(h.msg_id.0 - 500) as usize].push_back(h);
    }
    let (mut path, mut stamp_ce, mut ip_ce) = (1u16, false, false);
    let mut repairs: Vec<MtpHeader> = Vec::new();
    let mut arrivals: Vec<(MtpHeader, EcnCodepoint)> = Vec::new();
    loop {
        let live: Vec<usize> = (0..queues.len())
            .filter(|&m| !queues[m].is_empty())
            .collect();
        if live.is_empty() && repairs.is_empty() {
            break;
        }
        let mut hdr = if !repairs.is_empty() && (live.is_empty() || rng.gen_range(0..late_in) == 0)
        {
            repairs.swap_remove(rng.gen_range(0..repairs.len()))
        } else {
            let m = live[rng.gen_range(0..live.len())];
            let h = queues[m].pop_front().expect("live").clone();
            match rng.gen_range(0u32..100) {
                // Lost: a hole the next packet of its message reveals.
                x if x < loss_pct => {
                    let mut repair = h.clone();
                    repair.flags |= flags::RETX;
                    if rng.gen_range(0u32..5) != 0 {
                        repairs.push(repair);
                    }
                    continue;
                }
                // Trimmed: only the header arrives.
                x if x < loss_pct * 3 / 2 => {
                    let mut repair = h.clone();
                    repair.flags |= flags::RETX;
                    repairs.push(repair);
                    let mut h = h;
                    h.flags |= flags::TRIMMED;
                    h
                }
                // Duplicated: a second copy arrives later.
                x if x < loss_pct * 3 / 2 + 5 => {
                    repairs.push(h.clone());
                    h
                }
                _ => h,
            }
        };
        if rng.gen_range(0..flip_in) == 0 {
            path = rng.gen_range(0..3);
        }
        stamp_ce ^= rng.gen_range(0..flip_in) == 0;
        ip_ce ^= rng.gen_range(0..flip_in) == 0;
        hdr.path_feedback.clear();
        if path > 0 {
            hdr.path_feedback.push(PathFeedback {
                path: PathletId(path),
                tc: hdr.tc,
                feedback: Feedback::EcnMark { ce: stamp_ce },
            });
        }
        let ecn = if ip_ce {
            EcnCodepoint::Ce
        } else {
            EcnCodepoint::Ect0
        };
        arrivals.push((hdr, ecn));
    }

    let mut a = MtpReceiver::new(2).with_sack_redundancy(redundancy);
    let mut b = MtpReceiver::new(2).with_sack_redundancy(redundancy);
    let (mut a_acks, mut b_acks) = (Vec::new(), Vec::new());
    // The arrivals each of B's ACKs acknowledged, first one first.
    let mut members: Vec<Vec<usize>> = Vec::new();
    let mut open = MtpHeader::default();
    let seal = |open: &mut MtpHeader, b_acks: &mut Vec<MtpHeader>| {
        if open.pkt_type == PktType::Ack {
            b_acks.push(open.clone());
            open.reset();
        }
    };
    for (i, (hdr, ecn)) in arrivals.iter().enumerate() {
        let now = Time(i as u64);
        let (ack, newly_a) = a.on_data(now, hdr, *ecn);
        a_acks.push(ack.headers.as_mtp().expect("an ACK").clone());
        let newly_b = match b.ack_into(now, hdr, *ecn, &mut open) {
            Some(newly) => newly,
            None => {
                seal(&mut open, &mut b_acks);
                b.ack_into(now, hdr, *ecn, &mut open)
                    .ok_or("a reset header refused a packet")?
            }
        };
        if newly_a != newly_b {
            return Err(format!(
                "arrival {i}: {newly_a} new bytes at A, {newly_b} at B"
            ));
        }
        if members.len() == b_acks.len() {
            members.push(Vec::new());
        }
        members[b_acks.len()].push(i);
        if rng.gen_range(0u32..100) < seal_pct {
            seal(&mut open, &mut b_acks);
        }
    }
    seal(&mut open, &mut b_acks);

    for (j, (got, joined)) in b_acks.iter().zip(&members).enumerate() {
        let mut want = a_acks[joined[0]].clone();
        for &i in &joined[1..] {
            let own = &a_acks[i];
            if own.ack_path_feedback != want.ack_path_feedback {
                return Err(format!(
                    "ACK {j} mixes echoes: {:?} and arrival {i}'s {:?}",
                    want.ack_path_feedback, own.ack_path_feedback
                ));
            }
            // Its fresh SACK leads its own ACK's list (a trimmed header's
            // list is empty).
            want.sack.extend(own.sack.first());
            want.nack.extend_from_slice(&own.nack);
        }
        if *got != want {
            return Err(format!(
                "ACK {j} of arrivals {joined:?}: {got:?}, one ACK per packet says {want:?}"
            ));
        }
        if got.sack.len() > 255 || got.nack.len() > 255 {
            return Err(format!("ACK {j}'s lists outgrow the wire's 255 entries"));
        }
    }
    if a.stats != b.stats {
        return Err(format!("stats {:?} vs {:?}", a.stats, b.stats));
    }
    let (mut a_ev, mut b_ev) = (Vec::new(), Vec::new());
    a.drain_events(&mut a_ev);
    b.drain_events(&mut b_ev);
    if a_ev != b_ev {
        return Err("deliveries differ".into());
    }
    let sacks = |acks: &[MtpHeader]| -> BTreeSet<(u64, u32)> {
        let all = acks.iter().flat_map(|h| &h.sack);
        all.map(|e| (e.msg.0, e.pkt.0)).collect()
    };
    let nacks = |acks: &[MtpHeader]| {
        let all = acks.iter().flat_map(|h| &h.nack);
        let mut v: Vec<(u64, u32)> = all.map(|e| (e.msg.0, e.pkt.0)).collect();
        v.sort_unstable();
        v
    };
    if sacks(&a_acks) != sacks(&b_acks) || nacks(&a_acks) != nacks(&b_acks) {
        return Err("SACK sets or NACK multisets differ".into());
    }
    let verdict = |acks: &[MtpHeader]| sender_verdict(sender_in_flight(sizes).0, &sent, acks);
    let (by_a, by_b) = (verdict(&a_acks), verdict(&b_acks));
    if by_a != by_b {
        return Err(format!(
            "sender fed one ACK per packet: {by_a:?}; coalesced: {by_b:?}"
        ));
    }
    Ok(())
}

/// Seed 6 with windows of 3 keeps at most 9 records, so the probe map
/// stays at its initial 16 cells and mostly full: a completion deletes
/// from the middle of a probe run, and the ids behind the hole stay
/// reachable only if the backward shift moved them (instrumented while
/// writing this: 105 shifts in the run).
#[test]
fn receiver_collection_backward_shifts_probe_runs() {
    let stragglers = run_receiver_model(6, 3, 12_000).unwrap_or_else(|m| panic!("{m}"));
    assert!(stragglers > 0, "no completed message ever came back");
}

/// Seed 9 with windows of 1000 grows the slab and the map: a completion
/// frees a slot anywhere in the slab, the last record moves into it and
/// must have its cell re-pointed (instrumented while writing this: 243
/// such moves in the run).
#[test]
fn receiver_collection_repoints_moved_records() {
    let stragglers = run_receiver_model(9, 1_000, 4_000).unwrap_or_else(|m| panic!("{m}"));
    assert!(stragglers > 0, "no completed message ever came back");
}

proptest! {
    /// Any arrival order with arbitrary duplication: the receiver delivers
    /// each message exactly once with exact byte counts, and acks every
    /// packet.
    #[test]
    fn receiver_exactly_once_any_order(
        n_pkts in 1u32..50,
        last_len in 1u16..1460,
        order_seed in any::<u64>(),
        dup_each in any::<bool>(),
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut arrivals: Vec<u32> = (0..n_pkts).collect();
        if dup_each {
            arrivals.extend(0..n_pkts);
        }
        let mut rng = rand::rngs::SmallRng::seed_from_u64(order_seed);
        arrivals.shuffle(&mut rng);

        let mut r = MtpReceiver::new(2);
        let total = (n_pkts - 1) as u64 * 1460 + last_len as u64;
        let mut goodput = 0u64;
        for (i, pkt) in arrivals.iter().enumerate() {
            // Mark out-of-order packets as retransmissions so spurious
            // NACKs don't fire (we're testing delivery, not repair).
            let hdr = data_pkt(7, *pkt, n_pkts, last_len, i > 0);
            let (ack, newly) = r.on_data(Time(i as u64), &hdr, EcnCodepoint::Ect0);
            goodput += newly;
            let ah = ack.headers.as_mtp().expect("ack");
            prop_assert_eq!(ah.pkt_type, PktType::Ack);
            let want = SackEntry { msg: MsgId(7), pkt: PktNum(*pkt) };
            prop_assert!(ah.sack.contains(&want));
        }
        prop_assert_eq!(goodput, total);
        prop_assert_eq!(r.stats.msgs_delivered, 1);
        let mut delivered = Vec::new();
        r.drain_events(&mut delivered);
        prop_assert_eq!(delivered.len(), 1);
        prop_assert_eq!(r.buffered_bytes(), 0, "completed messages release buffer");
    }

    /// The sender never panics and never over-completes under an
    /// adversarial ACK stream (random SACK/NACK entries, including ids it
    /// never sent, duplicates, and feedback for unknown pathlets).
    #[test]
    fn sender_survives_adversarial_acks(
        msg_bytes in 1u32..200_000,
        entries in prop::collection::vec(
            (any::<bool>(), 0u64..4, 0u32..64, any::<u16>()),
            0..64
        ),
    ) {
        let mut s = MtpSender::new(MtpConfig::default(), 1, EntityId(0), 100);
        let mut out = Vec::new();
        let id = s.send_message(2, msg_bytes, 0, TrafficClass::BEST_EFFORT, Time::ZERO, &mut out);
        for (t, (is_nack, msg_off, pkt, path)) in entries.into_iter().enumerate() {
            let entry = SackEntry { msg: MsgId(100 + msg_off), pkt: PktNum(pkt) };
            let hdr = MtpHeader {
                pkt_type: PktType::Ack,
                sack: if is_nack { vec![] } else { vec![entry] },
                nack: if is_nack { vec![entry] } else { vec![] },
                ack_path_feedback: vec![PathFeedback {
                    path: PathletId(path),
                    tc: TrafficClass::BEST_EFFORT,
                    feedback: Feedback::EcnMark { ce: path % 3 == 0 },
                }],
                ..MtpHeader::default()
            };
            let mut out2 = Vec::new();
            s.on_ack(Time(1 + t as u64), &hdr, &mut out2);
        }
        // Completion events never exceed one for one message.
        let mut events = Vec::new();
        s.drain_events(&mut events);
        let completions = events
            .iter()
            .filter(|e| matches!(e, mtp_core::SenderEvent::MsgCompleted { id: i, .. } if *i == id))
            .count();
        prop_assert!(completions <= 1);
        prop_assert!(s.stats.msgs_completed <= 1);
    }

    /// Driving a full ACK set through in any order completes the message
    /// exactly once.
    #[test]
    fn sender_completes_with_shuffled_sacks(
        msg_kb in 1u32..100,
        seed in any::<u64>(),
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let bytes = msg_kb * 1024;
        let mut s = MtpSender::new(
            MtpConfig { cc: CcKind::Fixed { window: 1 << 28 }, ..MtpConfig::default() },
            1,
            EntityId(0),
            500,
        );
        let mut out = Vec::new();
        let id = s.send_message(2, bytes, 0, TrafficClass::BEST_EFFORT, Time::ZERO, &mut out);
        let n_pkts = bytes.div_ceil(1460);
        prop_assert_eq!(out.len() as u32, n_pkts, "huge fixed window sends all");
        let mut pkts: Vec<u32> = (0..n_pkts).collect();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        pkts.shuffle(&mut rng);
        for (i, p) in pkts.iter().enumerate() {
            let hdr = MtpHeader {
                pkt_type: PktType::Ack,
                sack: vec![SackEntry { msg: id, pkt: PktNum(*p) }],
                ..MtpHeader::default()
            };
            let mut o = Vec::new();
            s.on_ack(Time(1 + i as u64), &hdr, &mut o);
        }
        prop_assert_eq!(s.stats.msgs_completed, 1);
        prop_assert_eq!(s.outstanding(), 0);
        prop_assert_eq!(s.next_deadline(), None);
    }

    /// Random loss / ACK-loss / RTO interleavings through a full
    /// sender↔receiver loopback, checked against a reference ledger: every
    /// submitted message is delivered exactly once with exact bytes, the
    /// sender completes exactly the submitted set, both endpoints quiesce
    /// (nothing outstanding, no pending deadline, no buffered bytes), and
    /// the congestion state lands where the model says — all charged bytes
    /// credited back, and a `Fixed` controller's window untouched by the
    /// carnage. The whole session is then replayed from the same seed and
    /// must reproduce bit-identical stats and windows (the protocol cores
    /// are sans-IO state machines; any divergence means hidden
    /// nondeterminism).
    #[test]
    fn sender_exactly_once_under_random_loss_and_timers(
        seed in any::<u64>(),
        drop_pct in 0u32..40,
        ack_drop_pct in 0u32..20,
        sizes in prop::collection::vec(1u32..40_000, 1..4),
        fixed_window in any::<bool>(),
    ) {
        let outcome = run_lossy_session(seed, drop_pct, ack_drop_pct, &sizes, fixed_window)
            .unwrap_or_else(|m| panic!("{m}"));

        // Reference ledger: the submitted set, delivered exactly once.
        let submitted: Vec<(u64, u32)> = sizes
            .iter()
            .enumerate()
            .map(|(i, b)| (500 + i as u64, *b))
            .collect();
        prop_assert_eq!(&outcome.delivered, &submitted, "receiver ledger");
        prop_assert_eq!(&outcome.completed, &submitted, "sender ledger");

        // CC reference: quiescence credits every charged byte back, and a
        // fixed window ends exactly where it started.
        for &(inflight, window) in &outcome.windows {
            prop_assert_eq!(inflight, 0, "all charged bytes credited");
            prop_assert!((WINDOW_FLOOR..=WINDOW_CAP).contains(&window));
            if fixed_window {
                prop_assert_eq!(window, 15_000, "loss must not move a fixed window");
            }
        }

        // Replay: same seed, same interleaving, same final state.
        let replay = run_lossy_session(seed, drop_pct, ack_drop_pct, &sizes, fixed_window)
            .unwrap_or_else(|m| panic!("{m}"));
        prop_assert_eq!(outcome, replay, "session replay diverged");
    }

    /// The sender's window under loss, duplication, reordering, RTOs and
    /// replayed feedback for long-retired ids (see `run_window_session`).
    #[test]
    fn sender_window_tracks_incomplete_ids_and_ignores_stale_feedback(
        seed in any::<u64>(),
        loss_pct in 0u32..30,
        dup_pct in 0u32..30,
        n_msgs in 20u64..120,
    ) {
        run_window_session(seed, loss_pct, dup_pct, n_msgs).unwrap_or_else(|m| panic!("{m}"));
    }

    /// The receiver's record lifetime against the keep-every-id model,
    /// at window sizes from "every probe collides" to "the map grows
    /// twice" (see `run_receiver_model`).
    #[test]
    fn receiver_collection_matches_model(
        seed in any::<u64>(),
        window in 1u64..200,
        steps in 200usize..3_000,
    ) {
        run_receiver_model(seed, window, steps).unwrap_or_else(|m| panic!("{m}"));
    }

    /// An ACK that packets join at any seal points tells the receiver's
    /// stats, its deliveries and a sender what one ACK per packet does
    /// (see `coalesced_acks_match`). Echoes that never change, no seals
    /// and repairs held to the end let an ACK's lists reach their 255
    /// entries.
    #[test]
    fn coalesced_acks_match_one_ack_per_packet(
        seed in any::<u64>(),
        sizes in prop::collection::vec(1u32..300_000, 1..6),
        redundancy in 1usize..9,
        loss_pct in 0u32..40,
        late_in in prop_oneof![Just(u32::MAX), 1u32..10],
        flip_in in prop_oneof![Just(u32::MAX), 2u32..40],
        seal_pct in prop_oneof![Just(0u32), 0u32..60],
    ) {
        let weather = Weather { loss_pct, late_in, flip_in, seal_pct };
        coalesced_acks_match(seed, &sizes, redundancy, weather).unwrap_or_else(|m| panic!("{m}"));
    }

    /// Every controller keeps its window inside [floor, cap] under
    /// arbitrary loss and arbitrary feedback, every TLV the codec decodes
    /// included: a peer can send any of them in an ACK.
    #[test]
    fn controller_windows_stay_bounded(
        kind_sel in 0usize..2,
        ops in prop::collection::vec((0u8..9, any::<u32>()), 1..200),
    ) {
        let kind = match kind_sel {
            0 => CcKind::DctcpLike { init_window: 15_000 },
            _ => CcKind::Fixed { window: 15_000 },
        };
        let mut cc = kind.build();
        for (op, v) in ops {
            match op {
                0 => cc.on_ack(1500, Some(&Feedback::EcnMark { ce: v % 2 == 0 })),
                1 => cc.on_ack(1500, Some(&Feedback::RcpRate { mbps: v })),
                2 => cc.on_ack(1500, Some(&Feedback::Delay { ns: v })),
                3 => cc.on_ack(u64::from(v) % 100_000, None),
                4 => cc.on_loss(),
                5 => cc.on_ack(1500, Some(&Feedback::QueueDepth { bytes: v })),
                6 => cc.on_ack(1500, Some(&Feedback::PathChange { new_path: PathletId(v as u16) })),
                7 => cc.on_ack(1500, Some(&Feedback::Trim)),
                _ => cc.on_ack(0, Some(&Feedback::EcnFraction { fraction: (v % 65536) as u16 })),
            }
            let w = cc.window();
            prop_assert!(
                (WINDOW_FLOOR..=WINDOW_CAP).contains(&w),
                "{kind:?} window {w} escaped bounds"
            );
        }
    }

    /// The DCTCP-like controller reads only `EcnMark` and `EcnFraction`:
    /// fed any other TLV on every ACK, it keeps the window and `alpha` of
    /// a twin fed no feedback at all, step by step, through marks and
    /// losses that both see.
    #[test]
    fn other_tlvs_read_as_no_congestion_signal(
        ops in prop::collection::vec((0u8..4, 0u64..100_000, 0u8..5, any::<u32>()), 1..200),
    ) {
        let mut fed = DctcpLikeCc::new(15_000);
        let mut none = DctcpLikeCc::new(15_000);
        for (op, acked, sel, v) in ops {
            match op {
                0 | 1 => {
                    let fb = match sel {
                        0 => Feedback::RcpRate { mbps: v },
                        1 => Feedback::Delay { ns: v },
                        2 => Feedback::QueueDepth { bytes: v },
                        3 => Feedback::PathChange { new_path: PathletId(v as u16) },
                        _ => Feedback::Trim,
                    };
                    fed.on_ack(acked, Some(&fb));
                    none.on_ack(acked, None);
                }
                2 => {
                    let mark = Feedback::EcnMark { ce: v % 2 == 0 };
                    fed.on_ack(acked, Some(&mark));
                    none.on_ack(acked, Some(&mark));
                }
                _ => {
                    fed.on_loss();
                    none.on_loss();
                }
            }
            prop_assert_eq!(fed.window(), none.window());
            prop_assert_eq!(fed.alpha().to_bits(), none.alpha().to_bits());
        }
    }
}
