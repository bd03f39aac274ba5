//! Wire-level integrity primitives: the header CRC and payload checksum.
//!
//! MTP's premise is that *in-network devices* parse and mutate transport
//! headers in flight, which makes every switch, proxy, cache, and load
//! balancer a decoder exposed to whatever bytes the physical network hands
//! it. A corrupted credit or feedback TLV that parses "successfully" would
//! poison a pathlet window or a cache entry, so a device must be able to
//! verify a header *before* trusting any field in it.
//!
//! Two checks cover a packet:
//!
//! * a **header CRC** — CRC-16/CCITT-FALSE over the entire encoded header
//!   (fixed portion + all variable sections) carried in the two formerly
//!   reserved bytes 42–43, with byte 41 holding the integrity-flags byte.
//!   CRC-16/CCITT has Hamming distance 4 for messages up to 32 751 bits, so
//!   *every* corruption of up to 3 bits inside a header (far larger than any
//!   header this workspace emits) is guaranteed detected, not just
//!   probabilistically;
//! * a **payload checksum** — CRC-32 (IEEE) carried in a 4-byte trailer
//!   after the header. Payload *bytes* are not simulated, so the checksum
//!   covers the payload's wire descriptor (`msg_id`, `pkt_num`,
//!   `pkt_offset`, `pkt_len`); the simulator separately marks packets whose
//!   simulated payload region took a hit, and receivers treat that exactly
//!   as a real checksum failure (drop, no ACK, recover via loss recovery).
//!
//! The sealed form is the only byte form of both headers: every writer
//! seals and every reader verifies. The simulator's digests hash the
//! header with bytes 41–43 read as zero, which is what they hashed before
//! the header had a CRC, so sealing left every golden digest unchanged.

/// Integrity-flags bit: bytes 42–43 carry a header CRC.
pub const INTEGRITY_HDR_CRC: u8 = 0x01;

/// Integrity-flags bit: a payload-checksum trailer follows the header.
pub const INTEGRITY_PAYLOAD_CSUM: u8 = 0x02;

/// The integrity-flags byte of a sealed header: both checks present.
///
/// Sealed parsing requires *exactly* this value. Accepting "no integrity"
/// (0x00) would let a 2-bit flip of the flags byte switch the CRC check
/// off.
pub const INTEGRITY_SEALED: u8 = INTEGRITY_HDR_CRC | INTEGRITY_PAYLOAD_CSUM;

/// Length of the payload-checksum trailer appended to a sealed header.
pub const PAYLOAD_CSUM_LEN: usize = 4;

// ---------------------------------------------------------------------------
// Lookup tables, built at compile time.
//
// `T[k][b]` is the CRC contribution of byte `b` followed by `k` zero bytes,
// so a block of input bytes collapses into independent table loads XORed
// together — no loop-carried dependency inside a block. CRC-16 walks
// 16-byte blocks (see `crc16_update`); CRC-32 walks 8-byte blocks, since
// its inputs are fixed 18- and 32-byte records.
// ---------------------------------------------------------------------------

/// CRC-16/CCITT-FALSE polynomial (MSB-first, non-reflected).
const CRC16_POLY: u16 = 0x1021;

/// CRC-32 (IEEE 802.3) polynomial, reflected.
const CRC32_POLY: u32 = 0xEDB8_8320;

const fn crc16_byte(b: u8) -> u16 {
    let mut crc = (b as u16) << 8;
    let mut i = 0;
    while i < 8 {
        crc = if crc & 0x8000 != 0 {
            (crc << 1) ^ CRC16_POLY
        } else {
            crc << 1
        };
        i += 1;
    }
    crc
}

const fn crc16_tables() -> [[u16; 256]; 16] {
    let mut t = [[0u16; 256]; 16];
    let mut b = 0;
    while b < 256 {
        t[0][b] = crc16_byte(b as u8);
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let v = t[k - 1][b];
            t[k][b] = (v << 8) ^ t[0][(v >> 8) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

const fn crc32_byte(b: u8) -> u32 {
    let mut crc = b as u32;
    let mut i = 0;
    while i < 8 {
        let mask = (crc & 1).wrapping_neg();
        crc = (crc >> 1) ^ (CRC32_POLY & mask);
        i += 1;
    }
    crc
}

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        t[0][b] = crc32_byte(b as u8);
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let v = t[k - 1][b];
            t[k][b] = (v >> 8) ^ t[0][(v & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

static CRC16_T: [[u16; 256]; 16] = crc16_tables();
static CRC32_T: [[u32; 256]; 8] = crc32_tables();

/// Fold `N` bytes (`N` even, at most 16) into a raw CRC-16 state: the
/// 16-bit state is consumed by the first two bytes, the other `N - 2`
/// contribute independently. Those are XORed together first, so only the
/// two state-dependent loads and their two XORs sit on the chain from one
/// fold to the next.
#[inline(always)]
fn crc16_fold<const N: usize>(crc: u16, c: &[u8; N]) -> u16 {
    let mut rest = 0;
    let mut i = 2;
    while i < N {
        rest ^= CRC16_T[N - 1 - i][c[i] as usize];
        i += 1;
    }
    rest ^ CRC16_T[N - 1][((crc >> 8) as u8 ^ c[0]) as usize]
        ^ CRC16_T[N - 2][(crc as u8 ^ c[1]) as usize]
}

/// Advance a raw (un-finalized) CRC-16 state over `bytes`, slice-by-16.
///
/// Cost: 16 table loads and 15 XORs per 16-byte block, of which two
/// loads and two XORs carry the state to the next block, out of 8 KiB of
/// tables (16 × 256 `u16`). A tail of up to 15 bytes folds 8, 4 and 2
/// bytes at a time, so only a last odd byte takes a single-byte step.
/// What it pays: putting the slice-by-8 walk with byte-at-a-time tails
/// back cost `core_repair` 15 % and 11 % of its `ops_per_s` in two runs
/// of ten pairs, winning 0 and 2 of them (EXPERIMENTS.md, "Ablation
/// table").
fn crc16_update(mut crc: u16, bytes: &[u8]) -> u16 {
    let (blocks, tail) = bytes.as_chunks::<16>();
    for block in blocks {
        crc = crc16_fold(crc, block);
    }
    let (eights, tail) = tail.as_chunks::<8>();
    if let Some(c) = eights.first() {
        crc = crc16_fold(crc, c);
    }
    let (fours, tail) = tail.as_chunks::<4>();
    if let Some(c) = fours.first() {
        crc = crc16_fold(crc, c);
    }
    let (twos, tail) = tail.as_chunks::<2>();
    if let Some(c) = twos.first() {
        crc = crc16_fold(crc, c);
    }
    if let Some(&b) = tail.first() {
        crc = (crc << 8) ^ CRC16_T[0][((crc >> 8) as u8 ^ b) as usize];
    }
    crc
}

/// Advance a raw (inverted) CRC-32 state over `bytes`, slice-by-8.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        // The last four loads do not depend on the state: XOR them first,
        // as `crc16_fold` does, so they stay off the chain between blocks.
        let rest = CRC32_T[3][c[4] as usize]
            ^ CRC32_T[2][c[5] as usize]
            ^ CRC32_T[1][c[6] as usize]
            ^ CRC32_T[0][c[7] as usize];
        let a = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = rest
            ^ (CRC32_T[7][(a & 0xFF) as usize] ^ CRC32_T[6][((a >> 8) & 0xFF) as usize])
            ^ (CRC32_T[5][((a >> 16) & 0xFF) as usize] ^ CRC32_T[4][(a >> 24) as usize]);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC32_T[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// One-shot CRC-16/CCITT-FALSE over `bytes`: polynomial 0x1021, init
/// 0xFFFF, no reflection, no final XOR, table-driven slice-by-16.
pub fn crc16_ccitt(bytes: &[u8]) -> u16 {
    crc16_update(0xFFFF, bytes)
}

/// The CRC-16/CCITT-FALSE of an encoded MTP header `hdr` (fixed portion
/// plus every variable section, no trailer) with bytes 42–43, where the
/// CRC itself is stored, read as zero. Sealing and verifying both call
/// this, so they cannot disagree on the zero window.
///
/// One walk, no copy of the header: bytes 0..40 in place, then 40..44 as
/// one 4-byte fold of `[b40, b41, 0, 0]` built on the stack, then the
/// variable sections in place.
pub(crate) fn header_crc16(hdr: &[u8]) -> u16 {
    let (fixed, lists) = hdr
        .split_first_chunk::<{ crate::FIXED_HEADER_LEN }>()
        .expect("an encoded header holds its fixed portion");
    let crc = crc16_update(0xFFFF, &fixed[..40]);
    let crc = crc16_fold(crc, &[fixed[40], fixed[41], 0, 0]);
    crc16_update(crc, lists)
}

/// CRC-32 (IEEE 802.3): reflected polynomial 0xEDB88320, init and final
/// XOR 0xFFFFFFFF. Every caller checksums a fixed 18- or 32-byte record,
/// so the slice-by-8 table walk is the whole implementation.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MtpHeader;

    /// Bit-at-a-time CRC-16/CCITT-FALSE — the reference the table
    /// implementation must match exactly.
    fn crc16_bitwise(bytes: &[u8]) -> u16 {
        let mut crc: u16 = 0xFFFF;
        for &b in bytes {
            crc ^= (b as u16) << 8;
            for _ in 0..8 {
                crc = if crc & 0x8000 != 0 {
                    (crc << 1) ^ 0x1021
                } else {
                    crc << 1
                };
            }
        }
        crc
    }

    /// Bit-at-a-time CRC-32 (IEEE) reference.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    /// Deterministic pseudo-random fill so every length class sees
    /// non-trivial bytes (xorshift64*).
    fn fill(buf: &mut [u8], mut seed: u64) {
        for b in buf.iter_mut() {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            *b = (seed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8;
        }
    }

    #[test]
    fn crc16_table_matches_bitwise_all_lengths() {
        let mut buf = vec![0u8; 2048];
        fill(&mut buf, 0x5EED_0001);
        for len in 0..=2048 {
            let m = &buf[..len];
            assert_eq!(crc16_ccitt(m), crc16_bitwise(m), "len {len}");
            // The walk must compose at any split point (front-heavy,
            // back-heavy, odd cuts): `header_crc16` restarts it twice.
            if len > 0 {
                for cut in [1, len / 3, len / 2, len - 1] {
                    let crc = crc16_update(crc16_update(0xFFFF, &m[..cut]), &m[cut..]);
                    assert_eq!(crc, crc16_bitwise(m), "len {len} cut {cut}");
                }
            }
        }
    }

    /// The header CRC is the plain CRC of a copy with bytes 42–43 zeroed,
    /// at every length a header can have here, whatever those bytes hold.
    #[test]
    fn header_crc16_reads_the_crc_field_as_zero() {
        let mut buf = vec![0u8; 2048];
        fill(&mut buf, 0x4EAD_E242);
        for len in crate::FIXED_HEADER_LEN..=2048 {
            let mut zeroed = buf[..len].to_vec();
            zeroed[42..44].fill(0);
            assert_eq!(
                header_crc16(&buf[..len]),
                crc16_bitwise(&zeroed),
                "len {len}"
            );
        }
    }

    /// A header of exactly `len` encoded bytes, built from 3-byte
    /// exclusions, at most one 5-, 6-, 7- or 9-byte feedback TLV and
    /// 12-byte SACK/NACK entries; `None` if no header is `len` bytes.
    fn header_of_len(len: usize) -> Option<MtpHeader> {
        use crate::{Feedback, PathExclude, PathFeedback, PathletId, SackEntry, TrafficClass};
        let rest = len.checked_sub(crate::FIXED_HEADER_LEN)?;
        let tlvs = [
            (0, None),
            (5, Some(Feedback::Trim)),
            (6, Some(Feedback::EcnMark { ce: true })),
            (7, Some(Feedback::EcnFraction { fraction: 0xA5C3 })),
            (9, Some(Feedback::Delay { ns: 0x0102_0304 })),
        ];
        for n12 in (0..=rest / 12).rev() {
            let r = rest - 12 * n12;
            for (tlv_len, feedback) in tlvs {
                if r < tlv_len || !(r - tlv_len).is_multiple_of(3) {
                    continue;
                }
                let tag = len as u64;
                let entry = |i: usize| SackEntry {
                    msg: crate::MsgId(tag << 40 | i as u64),
                    pkt: crate::PktNum(0xFF00_0000 | i as u32),
                };
                let feedback = feedback.map(|feedback| PathFeedback {
                    path: PathletId(0xBEEF),
                    tc: TrafficClass(3),
                    feedback,
                });
                let mut hdr = MtpHeader {
                    msg_id: crate::MsgId(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    pkt_len: 1400,
                    path_exclude: (0..(r - tlv_len) / 3)
                        .map(|i| PathExclude {
                            path: PathletId(0x7000 + i as u16),
                            tc: TrafficClass(i as u8),
                        })
                        .collect(),
                    sack: (0..n12 - n12 / 2).map(entry).collect(),
                    nack: (n12 - n12 / 2..n12).map(entry).collect(),
                    ..MtpHeader::default()
                };
                // Alternate which feedback list carries the TLV.
                let list = if len.is_multiple_of(2) {
                    &mut hdr.path_feedback
                } else {
                    &mut hdr.ack_path_feedback
                };
                list.extend(feedback);
                return Some(hdr);
            }
        }
        None
    }

    /// Every header length from 44 to 96 bytes puts bytes 42–43 at a
    /// different place relative to the walk's blocks and tails: each
    /// sealed header verifies, stores the bitwise CRC of a copy with
    /// bytes 42–43 zeroed, and refuses every single-bit flip.
    #[test]
    fn sealed_crc_window_holds_at_every_header_length() {
        let mut unformable = Vec::new();
        for len in crate::FIXED_HEADER_LEN..=96 {
            let Some(hdr) = header_of_len(len) else {
                unformable.push(len);
                continue;
            };
            assert_eq!(hdr.wire_len(), len);
            let sealed = hdr.to_sealed_bytes().unwrap();
            let (back, used, payload_ok) = MtpHeader::parse_sealed(&sealed).unwrap();
            assert_eq!(
                (&back, used, payload_ok),
                (&hdr, sealed.len(), true),
                "len {len}"
            );
            let mut zeroed = sealed[..len].to_vec();
            zeroed[42..44].fill(0);
            let stored = u16::from_be_bytes([sealed[42], sealed[43]]);
            assert_eq!(stored, crc16_bitwise(&zeroed), "len {len}");
            for bit in 0..len * 8 {
                let mut m = sealed.clone();
                m[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    MtpHeader::parse_sealed(&m).is_err(),
                    "len {len}: flip at bit {bit} verified"
                );
            }
        }
        // Every part is at least 3 bytes, so no header is 1, 2 or 4 bytes
        // past the fixed portion.
        assert_eq!(unformable, [45, 46, 48]);
    }

    #[test]
    fn crc32_table_matches_bitwise_all_lengths() {
        let mut buf = vec![0u8; 2048];
        fill(&mut buf, 0xC0DE_CAFE);
        for len in 0..=2048 {
            let m = &buf[..len];
            assert_eq!(crc32(m), crc32_bitwise(m), "len {len}");
        }
    }

    #[test]
    fn crc16_known_vector() {
        // The classic "123456789" check value for CRC-16/CCITT-FALSE.
        assert_eq!(crc16_ccitt(b"123456789"), 0x29B1);
        assert_eq!(crc16_ccitt(b""), 0xFFFF);
    }

    #[test]
    fn crc32_known_vector() {
        // The classic "123456789" check value for CRC-32 (IEEE).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc16_detects_every_low_weight_flip() {
        // Exhaustive single- and double-bit flips over a header-sized
        // message must all change the CRC (Hamming distance ≥ 3 at this
        // length; the guarantee extends to 3-bit flips but exhaustive
        // triple coverage is the fuzz suite's job).
        let msg: Vec<u8> = (0u16..64).map(|i| (i * 37) as u8).collect();
        let clean = crc16_ccitt(&msg);
        let bits = msg.len() * 8;
        for i in 0..bits {
            let mut m = msg.clone();
            m[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc16_ccitt(&m), clean, "single flip at bit {i}");
            for j in (i + 1)..bits {
                let mut m2 = m.clone();
                m2[j / 8] ^= 1 << (j % 8);
                assert_ne!(crc16_ccitt(&m2), clean, "double flip {i},{j}");
            }
        }
    }
}
