//! An in-process lossy UDP relay.
//!
//! The kernel's loopback path never drops, duplicates, or reorders a
//! datagram, so a wire test that wants loss must manufacture it. The
//! relay sits between the sender and the receiver as a set of real UDP
//! sockets — one per pathlet, plus (for session runs) one control lane —
//! and forwards datagrams both ways while applying seeded faults. Faults
//! are per *datagram*, which on this wire means whole coalesced bundles
//! of frames vanish or repeat at once — strictly harsher than the
//! simulator's per-packet faults.
//!
//! Topology per pathlet `p` (and likewise for the control lane):
//!
//! ```text
//! sender sock[p]  ⇄  relay sock[p]  ⇄  receiver sock[p]
//! ```
//!
//! The relay knows the receiver's addresses up front; it learns the
//! sender's address from the first datagram that is not from the
//! receiver, then forwards by source matching. An optional blackhole
//! kills one pathlet after a fault budget, for failover tests;
//! [`ChaosConfig`] adds a flapping variant plus control-plane faults for
//! the chaos soak.
//!
//! Because the session handshake advertises the listener's *real* data
//! ports inside HELLO-ACK, a relay that merely forwarded bytes would
//! route all subsequent data around itself. The control lane therefore
//! behaves like a NAT'ing middlebox: it rewrites the port map in
//! relayed HELLO-ACKs to its own lane ports (re-sealing the frame), so
//! the sender's data keeps crossing the faulty lanes.

use std::io;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mtp_wire::{CtrlKind, SessionCtrl};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::frame::{append_ctrl_frame, FrameIter, FrameKind, DEFAULT_DATAGRAM_BUDGET};
use crate::socket::{wait_readable, BatchSocket};

/// Largest datagram the relay will receive: the protocol's coalescing
/// budget plus slack. Receiving at 64 KiB would pin `BATCH` slots of
/// that size per thread for traffic that never exceeds ~9 KB.
const RELAY_DATAGRAM_MAX: usize = DEFAULT_DATAGRAM_BUDGET + 64;

/// Seeded fault rates, in parts-per-million per datagram.
#[derive(Debug, Clone)]
pub struct RelayConfig {
    /// Probability of discarding a datagram outright.
    pub drop_ppm: u32,
    /// Probability of forwarding a datagram twice.
    pub dup_ppm: u32,
    /// Probability of holding a datagram back until one more passes it.
    pub reorder_ppm: u32,
    /// RNG seed; one stream drives every fault decision.
    pub seed: u64,
    /// Kill pathlet `.0` entirely after it has forwarded `.1` datagrams
    /// in the sender→receiver direction.
    pub blackhole: Option<(usize, u64)>,
}

impl RelayConfig {
    /// Moderate loss on every pathlet: 2% drop, 1% dup, 1% reorder.
    pub fn lossy(seed: u64) -> RelayConfig {
        RelayConfig {
            drop_ppm: 20_000,
            dup_ppm: 10_000,
            reorder_ppm: 10_000,
            seed,
            blackhole: None,
        }
    }
}

/// Chaos-soak fault knobs layered on top of [`RelayConfig`]: control
/// plane faults and lane flapping. Kept separate so existing
/// data-plane tests construct `RelayConfig` exactly as before.
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    /// Deterministically swallow the first N sender→receiver control
    /// datagrams (HELLO retries must ride over this).
    pub ctrl_drop_first: u32,
    /// Probability of discarding a control datagram, either direction.
    /// `1_000_000` makes the control lane a dead drop — the handshake
    /// must then fail with its typed timeout.
    pub ctrl_drop_ppm: u32,
    /// Probability of forwarding a control datagram twice (duplicate
    /// HELLO/FIN delivery — idempotency food).
    pub ctrl_dup_ppm: u32,
    /// Deterministically swallow the first N sender→receiver control
    /// datagrams that carry a FIN (graceful close must retry over
    /// this — a seeded drop could let the first FIN through).
    pub fin_drop_first: u32,
    /// Flap pathlet `.0`: alternate alive/dead every `.1`
    /// sender→receiver datagrams (a blackhole that heals and relapses).
    pub flap: Option<(usize, u64)>,
}

/// A running relay; dropping it stops and joins the forwarding thread.
pub struct LossyRelay {
    addrs: Vec<SocketAddrV4>,
    ctrl_addr: Option<SocketAddrV4>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<RelayStats>>,
}

/// What the relay did to the traffic, for test diagnostics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelayStats {
    /// Datagrams forwarded unmodified.
    pub forwarded: u64,
    /// Datagrams discarded by the drop fault.
    pub dropped: u64,
    /// Extra copies emitted by the duplicate fault.
    pub duplicated: u64,
    /// Datagrams that were overtaken by a later one.
    pub reordered: u64,
    /// Datagrams swallowed by the blackhole (or a flap's dead phase).
    pub blackholed: u64,
    /// Control-lane datagrams forwarded.
    pub ctrl_forwarded: u64,
    /// Control-lane datagrams discarded (deterministic or seeded).
    pub ctrl_dropped: u64,
    /// Control-lane datagrams forwarded twice.
    pub ctrl_duplicated: u64,
    /// HELLO-ACKs whose advertised port maps were NAT-rewritten.
    pub acks_rewritten: u64,
    /// Lanes (pathlets) that carried at least one sender→receiver
    /// datagram — the spray proof that multi-pathlet traffic really
    /// crossed distinct ports rather than collapsing onto one.
    /// Control-lane traffic is not counted.
    pub lanes_with_traffic: usize,
}

struct Lane {
    sock: BatchSocket,
    dst: SocketAddrV4,
    sender: Option<SocketAddrV4>,
    /// A datagram held back by the reorder fault: (destination, bytes).
    stash: Option<(SocketAddrV4, Vec<u8>)>,
    /// Sender→receiver datagrams seen, for the blackhole/flap budget.
    data_seen: u64,
    dead: bool,
}

struct CtrlLane {
    sock: BatchSocket,
    dst: SocketAddrV4,
    sender: Option<SocketAddrV4>,
    /// Sender→receiver control datagrams seen (drives `ctrl_drop_first`).
    seen: u64,
    /// Sender→receiver FIN datagrams seen (drives `fin_drop_first`).
    fins_seen: u64,
    /// Listener data port → relay lane port, for the HELLO-ACK rewrite.
    port_map: Vec<(u16, u16)>,
}

impl LossyRelay {
    /// Start a data-plane relay in front of `receiver_addrs` (one lane
    /// per pathlet), with no control lane — the pre-session topology.
    pub fn start(cfg: RelayConfig, receiver_addrs: &[SocketAddrV4]) -> io::Result<LossyRelay> {
        LossyRelay::start_inner(cfg, ChaosConfig::default(), None, receiver_addrs)
    }

    /// Start a relay with a control lane in front of the listener's
    /// rendezvous address `ctrl_dst`, plus one data lane per pathlet.
    /// `chaos` adds control-plane faults and lane flapping.
    pub fn start_session(
        cfg: RelayConfig,
        chaos: ChaosConfig,
        ctrl_dst: SocketAddrV4,
        receiver_addrs: &[SocketAddrV4],
    ) -> io::Result<LossyRelay> {
        LossyRelay::start_inner(cfg, chaos, Some(ctrl_dst), receiver_addrs)
    }

    fn start_inner(
        cfg: RelayConfig,
        chaos: ChaosConfig,
        ctrl_dst: Option<SocketAddrV4>,
        receiver_addrs: &[SocketAddrV4],
    ) -> io::Result<LossyRelay> {
        let mut lanes = Vec::with_capacity(receiver_addrs.len());
        let mut addrs = Vec::with_capacity(receiver_addrs.len());
        for &dst in receiver_addrs {
            let sock = BatchSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0))?;
            addrs.push(sock.local_addr()?);
            lanes.push(Lane {
                sock,
                dst,
                sender: None,
                stash: None,
                data_seen: 0,
                dead: false,
            });
        }
        let (ctrl, ctrl_addr) = match ctrl_dst {
            Some(dst) => {
                let sock = BatchSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0))?;
                let addr = sock.local_addr()?;
                let port_map = receiver_addrs
                    .iter()
                    .zip(addrs.iter())
                    .map(|(real, lane)| (real.port(), lane.port()))
                    .collect();
                (
                    Some(CtrlLane {
                        sock,
                        dst,
                        sender: None,
                        seen: 0,
                        fins_seen: 0,
                        port_map,
                    }),
                    Some(addr),
                )
            }
            None => (None, None),
        };
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("mtp-io-relay".into())
            .spawn(move || relay_loop(cfg, chaos, lanes, ctrl, &stop2))?;
        Ok(LossyRelay {
            addrs,
            ctrl_addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The sender-facing data addresses, one per pathlet (same order as
    /// the receiver addresses the relay was started with).
    pub fn addrs(&self) -> &[SocketAddrV4] {
        &self.addrs
    }

    /// The sender-facing control address, when started with a control
    /// lane ([`LossyRelay::start_session`]).
    pub fn ctrl_addr(&self) -> Option<SocketAddrV4> {
        self.ctrl_addr
    }

    /// Stop the forwarding thread and return its fault statistics.
    pub fn stop(mut self) -> RelayStats {
        self.stop.store(true, Ordering::Relaxed);
        match self.handle.take() {
            Some(h) => h.join().unwrap_or_default(),
            None => RelayStats::default(),
        }
    }
}

impl Drop for LossyRelay {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Whether any control frame in this datagram is a FIN.
fn datagram_has_fin(bytes: &[u8]) -> bool {
    FrameIter::new(bytes).any(|frame| match frame {
        Ok((FrameKind::Ctrl, body)) => matches!(
            SessionCtrl::parse_sealed(body),
            Ok((c, used)) if used == body.len() && c.kind == CtrlKind::Fin
        ),
        _ => false,
    })
}

/// Append one raw frame (already-sealed body) to a rebuilt datagram.
fn append_raw(out: &mut Vec<u8>, kind: FrameKind, body: &[u8]) {
    let len = (body.len() + 1) as u16;
    out.extend_from_slice(&len.to_be_bytes());
    out.push(kind as u8);
    out.extend_from_slice(body);
}

/// NAT-rewrite a receiver→sender control datagram: every HELLO-ACK's
/// advertised port list is mapped from the listener's real data ports
/// onto the relay's lane ports and the frame re-sealed. Frames that are
/// not HELLO-ACKs (or fail to parse) pass through byte-identical.
fn rewrite_ctrl_datagram(bytes: &[u8], port_map: &[(u16, u16)], stats: &mut RelayStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len());
    for frame in FrameIter::new(bytes) {
        match frame {
            Ok((FrameKind::Ctrl, body)) => {
                let rewritten = SessionCtrl::parse_sealed(body)
                    .ok()
                    .and_then(|(mut c, used)| {
                        if used != body.len() || c.kind != CtrlKind::HelloAck {
                            return None;
                        }
                        for p in c.ports.iter_mut() {
                            if let Some(&(_, lane)) = port_map.iter().find(|&&(real, _)| real == *p)
                            {
                                *p = lane;
                            }
                        }
                        Some(c)
                    });
                match rewritten {
                    Some(c) => {
                        if append_ctrl_frame(&mut out, usize::MAX, &c).unwrap_or(false) {
                            stats.acks_rewritten += 1;
                        } else {
                            append_raw(&mut out, FrameKind::Ctrl, body);
                        }
                    }
                    None => append_raw(&mut out, FrameKind::Ctrl, body),
                }
            }
            Ok((kind, body)) => append_raw(&mut out, kind, body),
            Err(_) => break,
        }
    }
    out
}

fn relay_loop(
    cfg: RelayConfig,
    chaos: ChaosConfig,
    mut lanes: Vec<Lane>,
    mut ctrl: Option<CtrlLane>,
    stop: &AtomicBool,
) -> RelayStats {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut stats = RelayStats::default();
    let mut dgrams = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let socks = lanes.iter().map(|l| &l.sock);
        let _ = wait_readable(
            socks.chain(ctrl.iter().map(|c| &c.sock)),
            Duration::from_millis(1),
        );
        if let Some(c) = &mut ctrl {
            dgrams.clear();
            if c.sock.recv_batch(RELAY_DATAGRAM_MAX, &mut dgrams).is_ok() {
                for (bytes, src) in dgrams.drain(..) {
                    let from_receiver = src == c.dst;
                    if !from_receiver {
                        c.sender = Some(src);
                        c.seen += 1;
                        if c.seen <= chaos.ctrl_drop_first as u64 {
                            stats.ctrl_dropped += 1;
                            continue;
                        }
                        if chaos.fin_drop_first > 0 && datagram_has_fin(&bytes) {
                            c.fins_seen += 1;
                            if c.fins_seen <= chaos.fin_drop_first as u64 {
                                stats.ctrl_dropped += 1;
                                continue;
                            }
                        }
                    }
                    let fwd_to = if from_receiver {
                        match c.sender {
                            Some(a) => a,
                            None => {
                                stats.ctrl_dropped += 1;
                                continue;
                            }
                        }
                    } else {
                        c.dst
                    };
                    if rng.gen_range(0..1_000_000u32) < chaos.ctrl_drop_ppm {
                        stats.ctrl_dropped += 1;
                        continue;
                    }
                    let payload = if from_receiver {
                        rewrite_ctrl_datagram(&bytes, &c.port_map, &mut stats)
                    } else {
                        bytes
                    };
                    let dup = rng.gen_range(0..1_000_000u32) < chaos.ctrl_dup_ppm;
                    let mut sends: Vec<(SocketAddrV4, &[u8])> = vec![(fwd_to, payload.as_slice())];
                    if dup {
                        sends.push((fwd_to, payload.as_slice()));
                        stats.ctrl_duplicated += 1;
                    }
                    if c.sock.send_batch(&sends).is_ok() {
                        stats.ctrl_forwarded += 1;
                    }
                }
            }
        }
        for (p, lane) in lanes.iter_mut().enumerate() {
            dgrams.clear();
            if lane
                .sock
                .recv_batch(RELAY_DATAGRAM_MAX, &mut dgrams)
                .is_err()
            {
                continue;
            }
            for (bytes, src) in dgrams.drain(..) {
                let from_receiver = src == lane.dst;
                if !from_receiver {
                    lane.sender = Some(src);
                    lane.data_seen += 1;
                    if let Some((hole, after)) = cfg.blackhole {
                        if hole == p && lane.data_seen > after {
                            lane.dead = true;
                        }
                    }
                }
                // A flap is a blackhole that heals and relapses: the
                // lane alternates phases every `period` data datagrams.
                let flapped = matches!(
                    chaos.flap,
                    Some((l, period)) if l == p && period > 0 && (lane.data_seen / period) % 2 == 1
                );
                if lane.dead || flapped {
                    stats.blackholed += 1;
                    continue;
                }
                let fwd_to = if from_receiver {
                    match lane.sender {
                        Some(a) => a,
                        // An ACK before any data: nowhere to send it.
                        None => {
                            stats.dropped += 1;
                            continue;
                        }
                    }
                } else {
                    lane.dst
                };
                if rng.gen_range(0..1_000_000u32) < cfg.drop_ppm {
                    stats.dropped += 1;
                    continue;
                }
                let dup = rng.gen_range(0..1_000_000u32) < cfg.dup_ppm;
                let hold = rng.gen_range(0..1_000_000u32) < cfg.reorder_ppm;
                if hold && lane.stash.is_none() {
                    lane.stash = Some((fwd_to, bytes));
                    continue;
                }
                let mut sends: Vec<(SocketAddrV4, &[u8])> = vec![(fwd_to, bytes.as_slice())];
                if dup {
                    sends.push((fwd_to, bytes.as_slice()));
                    stats.duplicated += 1;
                }
                // Release any held datagram *after* this one: the held
                // one has now been overtaken.
                let held = lane.stash.take();
                if let Some((hdst, hbytes)) = &held {
                    sends.push((*hdst, hbytes.as_slice()));
                    stats.reordered += 1;
                }
                if lane.sock.send_batch(&sends).is_ok() {
                    stats.forwarded += 1;
                }
            }
        }
    }
    // Flush anything still stashed so shutdown is not itself a drop.
    for lane in lanes.iter_mut() {
        if let Some((dst, bytes)) = lane.stash.take() {
            if !lane.dead {
                let _ = lane.sock.send_batch(&[(dst, bytes.as_slice())]);
            }
        }
    }
    stats.lanes_with_traffic = lanes.iter().filter(|l| l.data_seen > 0).count();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::loopback_available;

    #[test]
    fn relay_forwards_both_directions() {
        if !loopback_available() {
            eprintln!("NOTICE: UDP loopback unavailable; skipping relay_forwards_both_directions");
            return;
        }
        let rx = BatchSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).unwrap();
        let relay = LossyRelay::start(
            RelayConfig {
                drop_ppm: 0,
                dup_ppm: 0,
                reorder_ppm: 0,
                seed: 1,
                blackhole: None,
            },
            &[rx.local_addr().unwrap()],
        )
        .unwrap();
        let tx = BatchSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).unwrap();
        tx.send_batch(&[(relay.addrs()[0], &b"ping"[..])]).unwrap();

        let recv_one = |s: &BatchSocket| -> (Vec<u8>, SocketAddrV4) {
            let mut got = Vec::new();
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while got.is_empty() {
                assert!(std::time::Instant::now() < deadline, "relay timeout");
                let _ = wait_readable([s], Duration::from_millis(10));
                s.recv_batch(1500, &mut got).unwrap();
            }
            got.remove(0)
        };

        let (bytes, from) = recv_one(&rx);
        assert_eq!(bytes, b"ping");
        // Reply to the relay (as the MTP receiver replies to a datagram's
        // source); it must come back to the original sender.
        rx.send_batch(&[(from, &b"pong"[..])]).unwrap();
        let (bytes, _) = recv_one(&tx);
        assert_eq!(bytes, b"pong");
        let stats = relay.stop();
        assert_eq!(stats.forwarded, 2);
    }

    #[test]
    fn ctrl_lane_rewrites_hello_ack_ports() {
        if !loopback_available() {
            eprintln!(
                "NOTICE: UDP loopback unavailable; skipping ctrl_lane_rewrites_hello_ack_ports"
            );
            return;
        }
        let data_rx = BatchSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).unwrap();
        let ctrl_rx = BatchSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).unwrap();
        let real_data = data_rx.local_addr().unwrap();
        let relay = LossyRelay::start_session(
            RelayConfig {
                drop_ppm: 0,
                dup_ppm: 0,
                reorder_ppm: 0,
                seed: 1,
                blackhole: None,
            },
            ChaosConfig::default(),
            ctrl_rx.local_addr().unwrap(),
            &[real_data],
        )
        .unwrap();
        let relay_ctrl = relay.ctrl_addr().expect("session relay has a ctrl lane");
        let tx = BatchSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).unwrap();

        // HELLO toward the listener so the relay learns the sender.
        let hello = SessionCtrl::new(CtrlKind::Hello, 7, 0);
        let mut dgram = Vec::new();
        append_ctrl_frame(&mut dgram, 65536, &hello).unwrap();
        tx.send_batch(&[(relay_ctrl, dgram.as_slice())]).unwrap();

        let recv_one = |s: &BatchSocket| -> (Vec<u8>, SocketAddrV4) {
            let mut got = Vec::new();
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while got.is_empty() {
                assert!(std::time::Instant::now() < deadline, "relay timeout");
                let _ = wait_readable([s], Duration::from_millis(10));
                s.recv_batch(RELAY_DATAGRAM_MAX, &mut got).unwrap();
            }
            got.remove(0)
        };
        let (_, from) = recv_one(&ctrl_rx);

        // HELLO-ACK back, advertising the listener's REAL data port.
        let mut ack = SessionCtrl::new(CtrlKind::HelloAck, 7, 9);
        ack.ports = vec![real_data.port()];
        let mut dgram = Vec::new();
        append_ctrl_frame(&mut dgram, 65536, &ack).unwrap();
        ctrl_rx.send_batch(&[(from, dgram.as_slice())]).unwrap();

        // The sender must see the RELAY's lane port instead.
        let (bytes, _) = recv_one(&tx);
        let frames: Vec<_> = FrameIter::new(&bytes).collect::<Result<_, _>>().unwrap();
        assert_eq!(frames.len(), 1);
        let (kind, body) = frames[0];
        assert_eq!(kind, FrameKind::Ctrl);
        let (got, used) = SessionCtrl::parse_sealed(body).unwrap();
        assert_eq!(used, body.len());
        assert_eq!(got.kind, CtrlKind::HelloAck);
        assert_eq!(got.ports, vec![relay.addrs()[0].port()]);
        let stats = relay.stop();
        assert_eq!(stats.acks_rewritten, 1);
    }
}
