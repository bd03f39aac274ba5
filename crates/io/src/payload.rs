//! Deterministic payload synthesis and content digests.
//!
//! The simulator never materializes payload bytes — packets carry
//! lengths and a payload *descriptor* checksum. The wire backend does
//! ship real bytes, so comparing the two worlds needs a convention for
//! what a message's content *is*: byte `i` of message `m` is a pure
//! function of `(m, i)`. Both worlds can then compute the same
//! per-message digest — the sim from `(msg_id, bytes)` pairs alone, the
//! wire receiver from the bytes it actually reassembled — and a digest
//! mismatch convicts the transport of corrupting, duplicating, or
//! misplacing payload, byte-for-byte.
//!
//! The function is position-independent per 8-byte block (keyed
//! splitmix64 of the block index), so a packet's worth of payload can be
//! synthesized for any `(offset, len)` range without streaming from
//! byte 0 — exactly what a sender fragmenting at MTU boundaries needs.

use mtp_wire::MsgId;

/// splitmix64: the standard 64-bit finalizer-style mixer.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The 64-bit word covering block `block` (bytes `8*block..8*block+8`)
/// of message `id`.
#[inline]
fn block_word(id: MsgId, block: u64) -> u64 {
    splitmix64(id.0.wrapping_mul(0xA076_1D64_78BD_642F) ^ block)
}

/// Fill `buf` with the bytes of message `id` starting at byte `offset`:
/// the rest of the block `offset` starts inside, whole words, then the
/// head of the block the range ends inside.
pub fn fill(id: MsgId, offset: u32, buf: &mut [u8]) {
    let mut block = u64::from(offset / 8);
    let skip = (offset % 8) as usize;
    let head = ((8 - skip) % 8).min(buf.len());
    let (head_bytes, body) = buf.split_at_mut(head);
    if head > 0 {
        head_bytes.copy_from_slice(&block_word(id, block).to_le_bytes()[skip..skip + head]);
        block += 1;
    }
    let mut words = body.chunks_exact_mut(8);
    for word in &mut words {
        word.copy_from_slice(&block_word(id, block).to_le_bytes());
        block += 1;
    }
    let tail = words.into_remainder();
    if !tail.is_empty() {
        tail.copy_from_slice(&block_word(id, block).to_le_bytes()[..tail.len()]);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// `2^44 + 0x1b3`: not the FNV-1a-64 prime (`2^40 + 0x1b3`), so the
/// digests below are FNV-1a-shaped, not FNV-1a-64. Their values are
/// pinned by `benchmark/` — do not change.
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// The FNV-1a fold (xor a byte, multiply) over a byte slice.
#[inline]
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Digest of one message's reassembled bytes.
pub fn message_digest(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// `(message_digest(a), message_digest(b))` in one pass: the two chains
/// run interleaved over the common prefix, each tail finishes alone.
///
/// Each byte of a fold waits on the multiply before it, so one chain
/// leaves the core mostly idle; a second, independent chain fills those
/// slots: a 256 KiB message folds in about 210 µs paired against 415 µs
/// alone (one core of a 2-vCPU Intel Xeon). Four chains fold in about
/// 105 µs, but the listener would hold three delivered 256 KiB buffers
/// instead of one, so it pairs.
pub(crate) fn message_digest_pair(a: &[u8], b: &[u8]) -> (u64, u64) {
    let common = a.len().min(b.len());
    let (mut ha, mut hb) = (FNV_OFFSET, FNV_OFFSET);
    for (&x, &y) in a[..common].iter().zip(&b[..common]) {
        ha = (ha ^ x as u64).wrapping_mul(FNV_PRIME);
        hb = (hb ^ y as u64).wrapping_mul(FNV_PRIME);
    }
    (fnv1a(ha, &a[common..]), fnv1a(hb, &b[common..]))
}

/// Digest of the message `id` of length `len` as [`fill`] defines it —
/// what [`message_digest`] returns for a correctly delivered copy.
/// `scratch` is reused across calls to avoid re-allocating.
pub fn synth_message_digest(id: MsgId, len: u32, scratch: &mut Vec<u8>) -> u64 {
    scratch.clear();
    scratch.resize(len as usize, 0);
    fill(id, 0, scratch);
    message_digest(scratch)
}

/// Combined digest of a delivered-message set: fold `(id, len, digest)`
/// triples, sorted by id, into one FNV accumulator. Both worlds sort, so
/// delivery *order* (which legitimately differs between sim and kernel
/// scheduling) does not affect the result — content and multiplicity do.
/// A sorted set, as in a [`SessionReport`](crate::SessionReport), is not copied.
pub fn content_digest(msgs: &[(u64, u32, u64)]) -> u64 {
    let mut sorted = std::borrow::Cow::Borrowed(msgs);
    if !msgs.is_sorted() {
        sorted.to_mut().sort_unstable();
    }
    let mut h = FNV_OFFSET;
    for &(id, len, digest) in sorted.iter() {
        h = fnv1a(h, &id.to_le_bytes());
        h = fnv1a(h, &len.to_le_bytes());
        h = fnv1a(h, &digest.to_le_bytes());
    }
    h
}

/// What [`content_digest`] returns for `(id, len)` messages each
/// delivered exactly once with [`fill`] content.
pub fn synth_content_digest(msgs: impl IntoIterator<Item = (u64, u32)>) -> u64 {
    let mut scratch = Vec::new();
    let triples: Vec<(u64, u32, u64)> = msgs
        .into_iter()
        .map(|(id, len)| (id, len, synth_message_digest(MsgId(id), len, &mut scratch)))
        .collect();
    content_digest(&triples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`fill`] one byte at a time: the reference the word writer must
    /// match.
    fn fill_bytewise(id: MsgId, offset: u32, buf: &mut [u8]) {
        for (k, b) in buf.iter_mut().enumerate() {
            let pos = offset as u64 + k as u64;
            *b = block_word(id, pos / 8).to_le_bytes()[(pos % 8) as usize];
        }
    }

    proptest! {
        /// The paired fold is two serial folds, at any two lengths.
        #[test]
        fn digest_pair_equals_two_serial_digests(
            a in prop::collection::vec(any::<u8>(), 0..600),
            b in prop::collection::vec(any::<u8>(), 0..600),
        ) {
            let want = (message_digest(&a), message_digest(&b));
            prop_assert_eq!(message_digest_pair(&a, &b), want);
            prop_assert_eq!(message_digest_pair(&b, &a), (want.1, want.0));
            prop_assert_eq!(message_digest_pair(&a, &[]), (want.0, message_digest(&[])));
        }

        /// Whole-word `fill` writes the bytes the byte loop does, at every
        /// alignment, length and offset a `u32` position allows.
        #[test]
        fn fill_equals_the_bytewise_reference(
            id in any::<u64>(),
            len in 0usize..301,
            align in 0u32..8,
            at in any::<u32>(),
        ) {
            let top = u32::MAX - len as u32;
            let offset = (at % (top / 8 + 1) * 8 + align).min(top);
            let (mut words, mut bytes) = (vec![0u8; len], vec![0u8; len]);
            fill(MsgId(id), offset, &mut words);
            fill_bytewise(MsgId(id), offset, &mut bytes);
            prop_assert_eq!(words, bytes);
        }
    }

    #[test]
    fn fill_covers_every_head_alignment() {
        let id = MsgId(7);
        for offset in 0..16u32 {
            for len in 0..=24 {
                let (mut words, mut bytes) = (vec![0u8; len], vec![0u8; len]);
                fill(id, offset, &mut words);
                fill_bytewise(id, offset, &mut bytes);
                assert_eq!(words, bytes, "offset {offset} len {len}");
            }
        }
        let top = u32::MAX - 300;
        let (mut words, mut bytes) = (vec![0u8; 300], vec![0u8; 300]);
        fill(id, top, &mut words);
        fill_bytewise(id, top, &mut bytes);
        assert_eq!(words, bytes, "the last positions a u32 offset reaches");
    }

    #[test]
    fn fill_is_offset_independent() {
        // Filling [0, 4000) at once must equal filling arbitrary
        // fragments, including ones not aligned to the 8-byte blocks
        // (1460 % 8 == 4, the realistic MTU case).
        let id = MsgId(0xDEAD_BEEF);
        let mut whole = vec![0u8; 4000];
        fill(id, 0, &mut whole);
        for (off, len) in [(0usize, 1460usize), (1460, 1460), (2920, 1080), (3999, 1)] {
            let mut frag = vec![0u8; len];
            fill(id, off as u32, &mut frag);
            assert_eq!(&whole[off..off + len], &frag[..], "fragment at {off}");
        }
    }

    #[test]
    fn different_messages_differ() {
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        fill(MsgId(1), 0, &mut a);
        fill(MsgId(2), 0, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn synth_digest_matches_reassembled_digest() {
        let id = MsgId(42);
        let mut buf = vec![0u8; 3001];
        fill(id, 0, &mut buf);
        let mut scratch = Vec::new();
        assert_eq!(
            message_digest(&buf),
            synth_message_digest(id, 3001, &mut scratch)
        );
    }

    #[test]
    fn content_digest_is_order_independent_but_multiplicity_sensitive() {
        let a = [(1u64, 10u32, 111u64), (2, 20, 222)];
        let b = [(2u64, 20u32, 222u64), (1, 10, 111)];
        assert_eq!(content_digest(&a), content_digest(&b));
        let dup = [(1u64, 10u32, 111u64), (1, 10, 111), (2, 20, 222)];
        assert_ne!(content_digest(&a), content_digest(&dup));
    }
}
