//! Probes: a layer's public function replayed in isolation on a sample
//! of what the workload produced. A span cannot separate the codec from
//! the core inside a session; a probe on the same frames can, and gives
//! the cost floor that layer contributes per frame or per datagram.

use std::hint::black_box;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::time::Instant;

use mtp_core::{MtpReceiver, MtpSender};
use mtp_io::{append_frame, BatchSocket, FrameIter, FrameKind, IoConfig, DEFAULT_DATAGRAM_BUDGET};
use mtp_sim::time::{Duration, Time};
use mtp_sim::Headers;
use mtp_telemetry::{HistId, Metric, Registry};
use mtp_wire::{EcnCodepoint, EntityId, MtpHeader, PktType, TrafficClass};

use crate::meter::HostMeter;
use crate::metrics::Layers;
use crate::run::time_setup;

/// Time `f` over `rounds` rounds and return nanoseconds per round at
/// nominal host speed: the rounds run between two reference slices.
fn ns_per_round(meter: &mut HostMeter, rounds: u32, mut f: impl FnMut()) -> f64 {
    let (s, ()) = time_setup(meter, || {
        for _ in 0..rounds {
            f();
        }
    });
    s * 1e9 / rounds as f64
}

/// `telemetry.*`: what one counter add and one histogram record cost.
pub fn telemetry(layers: &mut Layers, meter: &mut HostMeter) {
    const CALLS: u32 = 1_000_000;
    let mut reg = Registry::new();
    let count = ns_per_round(meter, CALLS, || {
        black_box(&mut reg).count(Metric::PktsTx, black_box(1));
    });
    let mut v = 1u64;
    let record = ns_per_round(meter, CALLS, || {
        // Values walk the buckets as completion times do.
        v = v
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        black_box(&mut reg).record(HistId::MsgFctUs, black_box(v >> 44));
    });
    black_box(reg.get(Metric::PktsTx));
    layers.set("telemetry.registry.count_ns", count);
    layers.set("telemetry.hist.record_ns", record);
}

/// `wire.header.*`, `wire.integrity.*` and `io.frame.*` on `sample`:
/// one-frame datagrams the workload produced.
pub fn codec(layers: &mut Layers, meter: &mut HostMeter, sample: &[Vec<u8>]) {
    if sample.is_empty() {
        return;
    }
    let rounds = (200_000 / sample.len()).max(1) as u32;
    let frames = sample.len() as f64;

    let iter = ns_per_round(meter, rounds, || {
        for dgram in sample {
            for frame in FrameIter::new(black_box(dgram)) {
                black_box(&frame);
            }
        }
    });
    layers.set("io.frame.iter_ns_per_frame", iter / frames);

    let bodies: Vec<&[u8]> = sample
        .iter()
        .filter_map(|d| match FrameIter::new(d).next() {
            Some(Ok((FrameKind::Mtp, body))) => Some(body),
            _ => None,
        })
        .collect();
    let parse = ns_per_round(meter, rounds, || {
        for body in &bodies {
            black_box(MtpHeader::parse_sealed(black_box(body)).is_ok());
        }
    });
    layers.set("wire.header.parse_sealed_ns", parse / bodies.len() as f64);

    let parsed: Vec<(MtpHeader, &[u8])> = bodies
        .iter()
        .filter_map(|body| {
            MtpHeader::parse_sealed(body)
                .ok()
                .map(|(hdr, used, _)| (hdr, &body[used..]))
        })
        .collect();
    let mut scratch = vec![0u8; DEFAULT_DATAGRAM_BUDGET];
    let emit = ns_per_round(meter, rounds, || {
        for (hdr, _) in &parsed {
            black_box(black_box(hdr).emit_sealed(&mut scratch).is_ok());
        }
    });
    layers.set("wire.header.emit_sealed_ns", emit / parsed.len() as f64);

    let mut dgram = Vec::with_capacity(DEFAULT_DATAGRAM_BUDGET);
    let append = ns_per_round(meter, rounds, || {
        for (hdr, data) in &parsed {
            dgram.clear();
            black_box(append_frame(&mut dgram, DEFAULT_DATAGRAM_BUDGET, hdr, data).is_ok());
        }
    });
    layers.set("io.frame.append_ns_per_frame", append / parsed.len() as f64);

    let (mut header_bytes, mut payload_bytes) = (0usize, 0usize);
    for (hdr, data) in &parsed {
        header_bytes += hdr.sealed_wire_len();
        payload_bytes += data.len();
    }
    if payload_bytes > 0 {
        layers.set(
            "wire.header.overhead_ratio",
            header_bytes as f64 / payload_bytes as f64,
        );
        // The payload checksum covers the payload's descriptor in the
        // header, so its cost per payload KiB falls as packets grow.
        let data_hdrs: Vec<&MtpHeader> = parsed
            .iter()
            .filter(|(h, _)| h.pkt_type == PktType::Data)
            .map(|(h, _)| h)
            .collect();
        let csum = ns_per_round(meter, rounds, || {
            for hdr in &data_hdrs {
                black_box(black_box(hdr).payload_csum());
            }
        });
        layers.set(
            "wire.integrity.payload_csum_ns_per_kb",
            csum / (payload_bytes as f64 / 1024.0),
        );
    }
}

/// The frames a session produces for messages of `msg_len` bytes, made
/// by private cores with the session's own configuration: data frames
/// and the ACKs that answer them, each its own datagram.
fn session_frames(msg_len: usize) -> Vec<Vec<u8>> {
    const WANT: usize = 512;
    let io = IoConfig::default();
    let mut snd = MtpSender::new(io.mtp.clone(), 1, EntityId(0), 1 << 32);
    let mut rcv = MtpReceiver::new(2).with_sack_redundancy(io.sack_redundancy);
    let image = vec![0xA5u8; msg_len];
    let mut sample = Vec::new();
    let mut now = Time::ZERO;
    let mut out = Vec::new();
    let frame_of = |hdr: &MtpHeader, body: &[u8]| {
        let mut dgram = Vec::new();
        append_frame(&mut dgram, io.datagram_budget, hdr, body).expect("frame fits");
        dgram
    };
    while sample.len() < WANT {
        if out.is_empty() {
            snd.send_message(
                2,
                msg_len as u32,
                0,
                TrafficClass::BEST_EFFORT,
                now,
                &mut out,
            );
        }
        for pkt in std::mem::take(&mut out) {
            let Headers::Mtp(hdr) = pkt.headers else {
                continue;
            };
            let at = hdr.pkt_offset as usize;
            sample.push(frame_of(&hdr, &image[at..at + hdr.pkt_len as usize]));
            let (ack, _) = rcv.on_data(now, &hdr, EcnCodepoint::Ect0);
            if let Headers::Mtp(ack_hdr) = ack.headers {
                sample.push(frame_of(&ack_hdr, &[]));
                snd.on_ack(now, &ack_hdr, &mut out);
            }
        }
        now += Duration::from_micros(10);
    }
    sample
}

/// Coalesce the sample's data frames into one datagram as a session's
/// dispatch would: up to the budget for multi-packet messages, a single
/// frame for one-packet messages.
fn typical_datagram(sample: &[Vec<u8>], msg_len: usize) -> Vec<u8> {
    let io = IoConfig::default();
    let mut dgram = Vec::new();
    for d in sample {
        let Some(Ok((FrameKind::Mtp, body))) = FrameIter::new(d).next() else {
            continue;
        };
        let Ok((hdr, used, _)) = MtpHeader::parse_sealed(body) else {
            continue;
        };
        if hdr.pkt_type != PktType::Data {
            continue;
        }
        match append_frame(&mut dgram, io.datagram_budget, &hdr, &body[used..]) {
            Ok(true) if msg_len > io.mtp.mtu_payload as usize => {}
            _ => break,
        }
    }
    dgram
}

/// `io.socket.*`: a private loopback socket pair moving datagrams of
/// the workload's size — the kernel's cost floor per datagram.
fn socket(layers: &mut Layers, meter: &mut HostMeter, dgram: &[u8]) -> std::io::Result<()> {
    const ROUNDS: usize = 2_000;
    const BATCH: usize = 8;
    let any = SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0);
    let (tx, rx) = (BatchSocket::bind(any)?, BatchSocket::bind(any)?);
    let to = rx.local_addr()?;
    let batch: Vec<(SocketAddrV4, &[u8])> = (0..BATCH).map(|_| (to, dgram)).collect();
    let mut got = Vec::new();
    let (mut send_ns, mut recv_ns, mut received) = (0u128, 0u128, 0usize);
    meter.take_factor();
    for round in 0..ROUNDS {
        if round % 64 == 0 {
            meter.tick();
        }
        let t0 = Instant::now();
        tx.send_batch(&batch)?;
        send_ns += t0.elapsed().as_nanos();
        let mut pending = BATCH;
        let deadline = Instant::now() + std::time::Duration::from_millis(200);
        while pending > 0 && Instant::now() < deadline {
            got.clear();
            let t0 = Instant::now();
            let report = rx.recv_batch(dgram.len() + 64, &mut got)?;
            if report.datagrams > 0 {
                recv_ns += t0.elapsed().as_nanos();
                received += report.datagrams;
                pending = pending.saturating_sub(report.datagrams);
            }
        }
    }
    meter.tick();
    let factor = meter.take_factor();
    layers.set(
        "io.socket.send_batch_ns_per_dgram",
        send_ns as f64 / factor / (ROUNDS * BATCH) as f64,
    );
    layers.set(
        "io.socket.recv_batch_ns_per_dgram",
        recv_ns as f64 / factor / received.max(1) as f64,
    );
    Ok(())
}

/// Every probe a wire workload with messages of `msg_len` bytes reaches.
pub fn wire(layers: &mut Layers, meter: &mut HostMeter, msg_len: usize) {
    let sample = session_frames(msg_len);
    codec(layers, meter, &sample);
    let dgram = typical_datagram(&sample, msg_len);
    if let Err(e) = socket(layers, meter, &dgram) {
        eprintln!("io.socket probe failed: {e}");
    }
}
