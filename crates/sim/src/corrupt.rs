//! Wire-level corruption: materializing, damaging, and re-verifying headers.
//!
//! The simulator normally carries *structured* headers — corruption is the
//! one place where byte realism matters, because the paper's whole premise
//! is that in-network devices parse headers in flight and therefore must
//! survive whatever bytes the physical layer hands them. When a corruption
//! fault fires, the structured header is serialized to its **sealed** wire
//! form (header CRC + payload-checksum trailer, see `mtp_wire::integrity`),
//! the fault's bit-flips or truncation are applied to those bytes, and the
//! packet travels on as [`Headers::Mangled`]. Every receiving node passes
//! each frame through one of two integrity gates before trusting anything
//! in it, and the gates run [`sanitize`]: a verified packet gets its
//! structured header back, a damaged one is rejected with the exact
//! [`WireError`] a hardware pipeline would raise.
//!
//! Flips that land beyond the header region leave the header parseable and
//! instead set [`Packet::payload_dirty`] — the simulated stand-in for a
//! payload checksum failure. A node that forwards frames uses
//! [`admit_relay`], which passes such a frame on; a node that consumes
//! them uses [`admit_terminal`], which refuses it too (no ACK; recovery
//! happens through ordinary loss recovery). Either gate counts, traces
//! and recycles what it refuses, so no node can skip a step.
//!
//! With at most 3 bit-flips per packet, detection is *guaranteed*, not
//! probabilistic: CRC-16/CCITT has Hamming distance 4 out to 32 751 bits,
//! far beyond any header this workspace emits. That is what lets the
//! corruption study assert that malformed-packet counters account for
//! every injected corruption exactly.

use rand::rngs::SmallRng;
use rand::Rng;

use mtp_wire::{MtpHeader, TcpHeader, WireError};

use crate::node::{Ctx, PortId};
use crate::packet::{Headers, Packet, WireProto};
use crate::pool;

/// Serialize a packet's structured header to its sealed wire bytes.
///
/// Returns `None` for frames with no modelled header ([`Headers::Raw`]) and
/// for already-mangled packets.
pub fn materialize(headers: &Headers) -> Option<(WireProto, Vec<u8>)> {
    // The wire image lives in a recycled buffer (capacity retained across
    // frames), so a long corruption run seals headers without touching
    // the allocator.
    let mut bytes = pool::take_buf();
    match headers {
        Headers::Mtp(h) => {
            bytes.resize(h.sealed_wire_len(), 0);
            h.emit_sealed(&mut bytes)
                .expect("structured header is always emittable");
            Some((WireProto::Mtp, bytes))
        }
        Headers::Tcp(h) => {
            bytes.extend_from_slice(&h.to_sealed_bytes());
            Some((WireProto::Tcp, bytes))
        }
        Headers::Raw | Headers::Mangled { .. } => {
            pool::recycle_buf(bytes);
            None
        }
    }
}

/// Verify mangled wire bytes and recover the structured header.
///
/// Returns the reconstructed [`Headers`] plus whether the *payload*
/// checksum failed while the header itself verified (possible only for
/// MTP frames, whose trailer covers the payload descriptor).
pub fn verify(proto: WireProto, bytes: &[u8]) -> Result<(Headers, bool), WireError> {
    match proto {
        WireProto::Mtp => {
            let (hdr, used, payload_ok) = MtpHeader::parse_sealed(bytes)?;
            // The engine knows the exact frame boundary, so the walked
            // header must account for every byte. This closes the one
            // probabilistic gap in CRC detection: a flip in a section
            // count re-frames the CRC region, but it cannot conserve the
            // total length at the same time.
            if used != bytes.len() {
                return Err(WireError::BadReserved);
            }
            Ok((Headers::Mtp(pool::boxed(hdr)), !payload_ok))
        }
        WireProto::Tcp => {
            let (hdr, used) = TcpHeader::parse_sealed(bytes)?;
            if used != bytes.len() {
                return Err(WireError::BadReserved);
            }
            Ok((Headers::Tcp(hdr), false))
        }
    }
}

/// Verify-and-restore a possibly-mangled packet in place.
///
/// For clean packets it is a no-op. For mangled packets it runs
/// [`verify`]: on success the structured header replaces the bytes (a
/// payload-checksum failure folds into [`Packet::payload_dirty`] — header
/// trustworthy, payload not); on failure the packet is left mangled and
/// the error returned. Nodes call it through [`admit_relay`] or
/// [`admit_terminal`], which count, trace and recycle what fails.
pub fn sanitize(pkt: &mut Packet) -> Result<(), WireError> {
    let Headers::Mangled { proto, bytes } = &pkt.headers else {
        return Ok(());
    };
    let (headers, dirty) = verify(*proto, bytes)?;
    if let Headers::Mangled { bytes, .. } = std::mem::replace(&mut pkt.headers, headers) {
        pool::recycle_buf(bytes);
    }
    pkt.payload_dirty |= dirty;
    Ok(())
}

/// The integrity gate of a node that forwards `pkt` (a switch, a load
/// balancer, the cache's relay direction): its header must verify. A
/// payload-damaged frame passes on; the node that consumes it refuses it.
///
/// A refused frame adds one to the caller's `malformed` counter, is traced
/// as [`Malformed`](crate::TraceKind::Malformed) at `port` (which bumps
/// the registry's `pkts_malformed` mirror), goes back to the pool, and
/// `None` is returned.
#[inline]
pub fn admit_relay(
    ctx: &mut Ctx<'_>,
    port: PortId,
    mut pkt: Packet,
    malformed: &mut u64,
) -> Option<Packet> {
    if sanitize(&mut pkt).is_err() {
        return refuse(ctx, port, pkt, malformed);
    }
    Some(pkt)
}

/// The integrity gate of a node that consumes `pkt` (an endpoint, or a
/// device that terminates a message): as [`admit_relay`], and a frame
/// whose payload checksum failed is refused too. Dropping it without an
/// ACK turns wire corruption into a loss the sender already repairs.
#[inline]
pub fn admit_terminal(
    ctx: &mut Ctx<'_>,
    port: PortId,
    mut pkt: Packet,
    malformed: &mut u64,
) -> Option<Packet> {
    if sanitize(&mut pkt).is_err() || pkt.payload_dirty {
        return refuse(ctx, port, pkt, malformed);
    }
    Some(pkt)
}

fn refuse(ctx: &mut Ctx<'_>, port: PortId, pkt: Packet, malformed: &mut u64) -> Option<Packet> {
    *malformed += 1;
    ctx.trace_malformed(&pkt, port);
    pool::recycle_packet(pkt);
    None
}

/// Modelled payload bytes of a frame: what remains of `wire_len` after the
/// structured header's [`MtpHeader::wire_len`], the length the simulator
/// charges (it leaves out the sealed form's 4-byte trailer). Raw frames
/// are all payload; mangled frames report zero (they are never
/// re-corrupted).
pub fn payload_len(pkt: &Packet) -> u32 {
    match &pkt.headers {
        Headers::Tcp(h) => h.payload_len as u32,
        Headers::Mtp(h) => pkt.wire_len.saturating_sub(h.wire_len() as u32),
        Headers::Raw | Headers::Mangled { .. } => 0,
    }
}

/// True if a corruption fault may touch this packet. Already-damaged
/// packets are never corrupted again (each corruption event must map to
/// exactly one malformed-packet count downstream), and raw frames carry
/// no header to damage.
pub fn corruptible(pkt: &Packet) -> bool {
    !pkt.payload_dirty && !matches!(pkt.headers, Headers::Raw | Headers::Mangled { .. })
}

/// Flip `flips` uniformly-drawn bits across the frame (sealed header bytes
/// plus modelled payload region). Flips landing in the header turn the
/// packet into [`Headers::Mangled`]; flips landing beyond it set
/// [`Packet::payload_dirty`]. `wire_len` is unchanged — a bit-flip does
/// not alter timing. Returns false (and does nothing, consuming no
/// randomness) if the packet is not corruptible.
pub fn corrupt_bitflip(pkt: &mut Packet, flips: u8, rng: &mut SmallRng) -> bool {
    if !corruptible(pkt) {
        return false;
    }
    let (proto, mut bytes) = materialize(&pkt.headers).expect("corruptible packets materialize");
    let hdr_bits = bytes.len() * 8;
    let total_bits = hdr_bits + payload_len(pkt) as usize * 8;
    let mut hit_header = false;
    let mut hit_payload = false;
    for _ in 0..flips.max(1) {
        let bit = rng.gen_range(0..total_bits);
        if bit < hdr_bits {
            bytes[bit / 8] ^= 1 << (bit % 8);
            hit_header = true;
        } else {
            hit_payload = true;
        }
    }
    if hit_header {
        let old = std::mem::replace(&mut pkt.headers, Headers::Mangled { proto, bytes });
        recycle_headers(old);
    } else {
        pool::recycle_buf(bytes);
    }
    pkt.payload_dirty |= hit_payload;
    true
}

/// Truncate the frame at a uniformly-drawn cut point within its modelled
/// region (sealed header + payload). A cut inside the header leaves a
/// mangled stub that can never verify; a cut inside the payload leaves the
/// header intact but the payload dirty. `wire_len` shrinks by the bytes
/// lost. Returns false if the packet is not corruptible.
pub fn corrupt_truncate(pkt: &mut Packet, rng: &mut SmallRng) -> bool {
    if !corruptible(pkt) {
        return false;
    }
    let (proto, mut bytes) = materialize(&pkt.headers).expect("corruptible packets materialize");
    let total = bytes.len() + payload_len(pkt) as usize;
    let cut = rng.gen_range(0..total);
    let lost = (total - cut) as u32;
    pkt.wire_len = pkt.wire_len.saturating_sub(lost).max(1);
    if cut < bytes.len() {
        bytes.truncate(cut);
        let old = std::mem::replace(&mut pkt.headers, Headers::Mangled { proto, bytes });
        recycle_headers(old);
    } else {
        pool::recycle_buf(bytes);
        pkt.payload_dirty = true;
    }
    true
}

/// Return any boxed MTP header inside a replaced `Headers` to the pool.
fn recycle_headers(headers: Headers) {
    if let Headers::Mtp(h) = headers {
        pool::recycle_header(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn mtp_packet() -> Packet {
        let mut hdr = MtpHeader {
            msg_id: mtp_wire::MsgId(7),
            pkt_num: mtp_wire::PktNum(2),
            pkt_len: 1000,
            pkt_offset: 2000,
            msg_len_pkts: 4,
            msg_len_bytes: 4000,
            ..MtpHeader::default()
        };
        hdr.sack.push(mtp_wire::SackEntry {
            msg: mtp_wire::MsgId(7),
            pkt: mtp_wire::PktNum(0),
        });
        let wire = hdr.wire_len() as u32 + 1000;
        Packet::new(Headers::Mtp(pool::boxed(hdr)), wire)
    }

    #[test]
    fn materialize_verify_roundtrip_all_protos() {
        let pkts = [
            mtp_packet(),
            Packet::new(Headers::Tcp(TcpHeader::default()), 64),
        ];
        for pkt in pkts {
            let (proto, bytes) = materialize(&pkt.headers).unwrap();
            let (back, dirty) = verify(proto, &bytes).unwrap();
            assert_eq!(back, pkt.headers);
            assert!(!dirty);
        }
        assert!(materialize(&Headers::Raw).is_none());
    }

    /// A frame one byte longer than the header it verifies to is refused:
    /// the engine knows each frame's length, and the accounting identity
    /// (every damaged frame counted once) rests on this check.
    #[test]
    fn verify_refuses_a_frame_longer_than_its_header() {
        let pkts = [
            mtp_packet(),
            Packet::new(Headers::Tcp(TcpHeader::default()), 64),
        ];
        for pkt in pkts {
            let (proto, mut bytes) = materialize(&pkt.headers).unwrap();
            assert!(verify(proto, &bytes).is_ok(), "{proto:?}");
            bytes.push(0);
            assert_eq!(
                verify(proto, &bytes),
                Err(WireError::BadReserved),
                "{proto:?}"
            );
        }
    }

    #[test]
    fn header_flip_mangles_and_sanitize_rejects() {
        let mut rng = SmallRng::seed_from_u64(11);
        // A header-only packet: every flip must land in the header.
        let hdr = MtpHeader::default();
        let wire = hdr.wire_len() as u32;
        let mut pkt = Packet::new(Headers::Mtp(pool::boxed(hdr)), wire);
        assert!(corrupt_bitflip(&mut pkt, 1, &mut rng));
        assert!(matches!(pkt.headers, Headers::Mangled { .. }));
        assert!(sanitize(&mut pkt).is_err());
        // Still mangled after a failed sanitize; never re-corrupted.
        assert!(!corruptible(&pkt));
        assert!(!corrupt_bitflip(&mut pkt, 1, &mut rng));
    }

    #[test]
    fn payload_flip_sets_dirty_and_header_survives() {
        // Huge payload, tiny header: draw until a flip lands in payload
        // only (deterministic for this seed).
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen_dirty_only = false;
        for _ in 0..64 {
            let mut pkt = mtp_packet();
            pkt.wire_len = 1_000_000;
            assert!(corrupt_bitflip(&mut pkt, 1, &mut rng));
            if pkt.payload_dirty && !matches!(pkt.headers, Headers::Mangled { .. }) {
                assert!(sanitize(&mut pkt).is_ok());
                assert!(pkt.payload_dirty);
                seen_dirty_only = true;
                break;
            }
        }
        assert!(seen_dirty_only, "payload flip never observed");
    }

    #[test]
    fn truncation_shrinks_wire_len_and_is_detected() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..32 {
            let mut pkt = mtp_packet();
            let before = pkt.wire_len;
            assert!(corrupt_truncate(&mut pkt, &mut rng));
            assert!(pkt.wire_len < before);
            if matches!(pkt.headers, Headers::Mangled { .. }) {
                assert!(sanitize(&mut pkt).is_err());
            } else {
                assert!(pkt.payload_dirty);
            }
        }
    }

    #[test]
    fn sanitize_restores_undamaged_mangled_bytes() {
        // A mangled packet whose bytes are intact (e.g. all flips hit the
        // trailer) verifies back to its structured form.
        let pkt = mtp_packet();
        let (proto, bytes) = materialize(&pkt.headers).unwrap();
        let mut m = Packet::new(Headers::Mangled { proto, bytes }, pkt.wire_len);
        assert!(sanitize(&mut m).is_ok());
        assert_eq!(m.headers, pkt.headers);
        assert!(!m.payload_dirty);
    }

    /// Hands each `(terminal, frame)` pair to its integrity gate at start
    /// and records which frames passed.
    struct Gate {
        frames: Vec<(bool, Packet)>,
        malformed: u64,
        passed: Vec<Packet>,
        verdicts: Vec<bool>,
    }

    impl crate::Node for Gate {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (terminal, pkt) in std::mem::take(&mut self.frames) {
                let out = if terminal {
                    admit_terminal(ctx, PortId(3), pkt, &mut self.malformed)
                } else {
                    admit_relay(ctx, PortId(3), pkt, &mut self.malformed)
                };
                self.verdicts.push(out.is_some());
                self.passed.extend(out);
            }
        }
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {}
    }

    /// A damaged header is refused in both roles; a payload-damaged frame
    /// passes the relay gate and is refused by the terminal one. Each
    /// refusal counts once at the node and once in the registry, traces
    /// one `Malformed` event at the arrival port, and returns the frame's
    /// buffer to the pool.
    #[test]
    fn gates_refuse_by_role_and_account_for_each_refusal() {
        let mangled = || {
            let (proto, mut bytes) = materialize(&mtp_packet().headers).unwrap();
            bytes[0] ^= 1;
            Packet::new(Headers::Mangled { proto, bytes }, 1000)
        };
        let dirty = || {
            let mut pkt = mtp_packet();
            pkt.payload_dirty = true;
            pkt
        };
        let frames = vec![
            (false, mangled()),
            (true, mangled()),
            (false, dirty()),
            (true, dirty()),
        ];
        // Empty this thread's buffer pool, so that what the gates return
        // to it can be counted.
        while pool::take_buf().capacity() > 0 {}
        let headers_before = pool::pooled();

        let mut sim = crate::Simulator::new(1);
        sim.enable_trace(64);
        let id = sim.add_node(Box::new(Gate {
            frames,
            malformed: 0,
            passed: Vec::new(),
            verdicts: Vec::new(),
        }));
        sim.run();

        let gate = sim.node_as::<Gate>(id);
        assert_eq!(gate.verdicts, [false, false, true, false]);
        assert!(gate.passed[0].payload_dirty);
        assert_eq!(gate.malformed, 3);
        assert_eq!(sim.telemetry().get(crate::Metric::PktsMalformed), 3);
        let traced: Vec<_> = sim
            .trace_events()
            .into_iter()
            .filter(|e| e.kind == crate::TraceKind::Malformed)
            .map(|e| (e.node, e.port))
            .collect();
        assert_eq!(traced, [(id, PortId(3)); 3]);
        // Two mangled wire images and one refused frame's header box.
        let bufs = std::iter::from_fn(|| Some(pool::take_buf()))
            .take_while(|b| b.capacity() > 0)
            .count();
        assert_eq!(bufs, 2);
        assert_eq!(pool::pooled(), headers_before + 1);
    }
}
