//! Thread-local free-list pool for `Box<MtpHeader>` allocations.
//!
//! Every MTP data packet and ACK carries a boxed header; in a large run the
//! engine would otherwise hit the allocator twice per packet (once to box
//! the header, once to free it when the packet is consumed or dropped).
//! Instead, consumers hand finished headers back with [`recycle_header`]
//! (or whole packets with [`recycle_packet`]) and producers draw from the
//! pool with [`boxed`] / [`take_header`].
//!
//! The pool is thread-local because the simulator itself is single-
//! threaded; parallel seed sweeps (one simulator per thread) each get
//! their own pool with no synchronization.
//!
//! Recycled headers are [`MtpHeader::reset`] on the way out, which clears
//! the variable-length sections but keeps their heap capacity, so steady-
//! state ACK traffic with SACK blocks stops allocating entirely.

use std::cell::RefCell;

use mtp_wire::MtpHeader;

use crate::packet::{Headers, Packet};

thread_local! {
    // The boxes themselves are the pooled resource: they move in and out
    // of `Packet`s without reallocation.
    #[allow(clippy::vec_box)]
    static POOL: RefCell<Vec<Box<MtpHeader>>> = const { RefCell::new(Vec::new()) };

    // Byte buffers for `Headers::Mangled` wire images: the corruption
    // path seals a header into one of these per damaged frame, and
    // `sanitize` / `recycle_packet` hand the buffer back, so steady-state
    // corruption runs stop allocating.
    static BUFS: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Upper bound on pooled boxes; beyond this, recycled headers are freed
/// normally so a burst does not pin memory forever.
const POOL_CAP: usize = 4096;

/// Upper bound on pooled mangled-wire buffers.
const BUF_CAP: usize = 1024;

/// An empty byte buffer for a sealed wire image, reusing a recycled
/// allocation (and its capacity) if one is available.
pub fn take_buf() -> Vec<u8> {
    BUFS.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

/// Return a mangled-wire buffer's allocation to the pool.
pub fn recycle_buf(mut buf: Vec<u8>) {
    buf.clear();
    BUFS.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < BUF_CAP {
            pool.push(buf);
        }
    });
}

/// A default-valued boxed header, reusing a recycled allocation if one is
/// available.
pub fn take_header() -> Box<MtpHeader> {
    match POOL.with(|p| p.borrow_mut().pop()) {
        Some(mut b) => {
            b.reset();
            b
        }
        None => Box::default(),
    }
}

/// Box `hdr`, reusing a recycled allocation if one is available.
pub fn boxed(hdr: MtpHeader) -> Box<MtpHeader> {
    match POOL.with(|p| p.borrow_mut().pop()) {
        Some(mut b) => {
            *b = hdr;
            b
        }
        None => Box::new(hdr),
    }
}

/// Return a finished header's allocation to the pool.
pub fn recycle_header(hdr: Box<MtpHeader>) {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < POOL_CAP {
            pool.push(hdr);
        }
    });
}

/// Return the header allocation(s) of a packet that will never be
/// delivered (e.g. tail-dropped by a queue discipline).
pub fn recycle_packet(pkt: Packet) {
    match pkt.headers {
        Headers::Mtp(hdr) => recycle_header(hdr),
        Headers::Mangled { bytes, .. } => recycle_buf(bytes),
        _ => {}
    }
}

/// Number of boxes currently pooled on this thread (for tests).
pub fn pooled() -> usize {
    POOL.with(|p| p.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_header_comes_back_reset_with_capacity() {
        let mut h = MtpHeader {
            src_port: 9,
            ..MtpHeader::default()
        };
        h.sack.reserve(32);
        let cap = h.sack.capacity();
        recycle_header(Box::new(h));
        let got = take_header();
        assert_eq!(got.src_port, 0, "recycled header must be reset");
        assert!(got.sack.is_empty());
        assert!(got.sack.capacity() >= cap, "capacity must be retained");
    }

    #[test]
    fn recycle_packet_reclaims_mtp_headers() {
        let before = pooled();
        let pkt = Packet::new(Headers::Mtp(Box::default()), 1500);
        recycle_packet(pkt);
        assert_eq!(pooled(), before + 1);
        let raw = Packet::new(Headers::Raw, 100);
        recycle_packet(raw);
        assert_eq!(pooled(), before + 1, "raw packets have nothing to pool");
    }
}
