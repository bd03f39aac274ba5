//! Nonblocking batch UDP sockets.
//!
//! [`BatchSocket`] wraps a `std::net::UdpSocket` and moves datagrams in
//! batches without ever blocking: `sendmmsg`/`recvmmsg` with
//! `MSG_DONTWAIT` where the platform provides them (see [`crate::sys`]),
//! plain `send_to`/`recv_from` loops on a nonblocking socket everywhere
//! else; the platform alone picks the path. A turn asks
//! [`readable_now`] once which sockets have anything queued and drains
//! those alone; the driver blocks only in [`wait_readable`], with a
//! timeout derived from the endpoint cores' `poll_at()` deadlines.

use std::cell::RefCell;
use std::io;
use std::net::{Ipv4Addr, SocketAddrV4, UdpSocket};
use std::time::Duration;

use crate::sys::{self, MemInfo, RecvSlot};

thread_local! {
    /// Reusable receive scratch, per thread: the `recvmmsg` slot array
    /// and the fallback datagram buffer. Sized to the largest `max_size`
    /// a thread has asked for and to the deepest receive it has seen, and
    /// reused forever after — allocating `BATCH × max_size` fresh per
    /// [`BatchSocket::recv_each`] call would dominate the process's
    /// transient heap (32 × 64 KiB = 2 MiB per poll round), and a
    /// worst-case 32 slots would be 290 KB resident on a thread that only
    /// ever answers one HELLO. A drain takes the scratch out for its
    /// duration, so a callback that itself receives gets a fresh one.
    static RECV_SLOTS: RefCell<Vec<RecvSlot>> = const { RefCell::new(Vec::new()) };
    static RECV_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Bring the `recvmmsg` scratch to at least one slot, every slot able to
/// hold `max_size`.
fn size_slots(slots: &mut Vec<RecvSlot>, max_size: usize) {
    if slots.is_empty() || slots[0].buf.len() < max_size {
        *slots = (0..slots.len().max(1))
            .map(|_| RecvSlot::with_capacity(max_size))
            .collect();
    }
}

/// Double the `recvmmsg` scratch, up to [`sys::BATCH`] slots: a receive
/// came back with every slot full, so the queue may hold more and the
/// next drain may be as deep.
fn grow_slots(slots: &mut Vec<RecvSlot>) {
    let size = slots[0].buf.len();
    let more = slots.len().min(sys::BATCH - slots.len());
    slots.extend((0..more).map(|_| RecvSlot::with_capacity(size)));
}

/// Bring the fallback scratch to `max_size` bytes.
fn size_buf(buf: &mut Vec<u8>, max_size: usize) {
    if buf.len() < max_size {
        buf.resize(max_size, 0);
    }
}

/// What one [`BatchSocket::send_batch`] or drain did, for telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendReport {
    /// Datagrams handed to (or taken from) the kernel.
    pub datagrams: usize,
    /// Syscalls that moved at least one.
    pub syscalls: usize,
    /// Syscalls that moved nothing: sends the kernel refused for want of
    /// send-queue room (each retried after a yield), receives that found
    /// the queue empty.
    pub would_block: usize,
}

/// A nonblocking UDP socket that sends and receives in batches.
#[derive(Debug)]
pub struct BatchSocket {
    sock: UdpSocket,
    use_mmsg: bool,
}

impl BatchSocket {
    /// Bind a socket to `addr` (use port 0 for an ephemeral port; read
    /// it back with [`BatchSocket::local_addr`]). Its queues are the
    /// host's default size until [`set_recv_buffer`](Self::set_recv_buffer)
    /// or [`set_send_buffer`](Self::set_send_buffer) says otherwise.
    pub fn bind(addr: SocketAddrV4) -> io::Result<BatchSocket> {
        let sock = UdpSocket::bind(addr)?;
        let use_mmsg = cfg!(target_os = "linux");
        if !use_mmsg {
            sock.set_nonblocking(true)?;
        }
        Ok(BatchSocket { sock, use_mmsg })
    }

    #[cfg(target_os = "linux")]
    fn fd(&self) -> std::os::fd::RawFd {
        use std::os::fd::AsRawFd;
        self.sock.as_raw_fd()
    }

    /// Ask the kernel for a receive queue of `bytes`. It grants what the
    /// host allows ([`meminfo`](Self::meminfo) says how much); where the
    /// platform has no such call the socket keeps the host's default.
    pub fn set_recv_buffer(&self, bytes: usize) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            sys::set_recv_buffer(self.fd(), bytes)
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = bytes;
            Ok(())
        }
    }

    /// Ask the kernel for a send queue of `bytes`; as
    /// [`set_recv_buffer`](Self::set_recv_buffer).
    pub fn set_send_buffer(&self, bytes: usize) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            sys::set_send_buffer(self.fd(), bytes)
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = bytes;
            Ok(())
        }
    }

    /// The queue sizes the kernel granted and the datagrams it has
    /// dropped at this socket so far; `Unsupported` off Linux.
    pub fn meminfo(&self) -> io::Result<MemInfo> {
        #[cfg(target_os = "linux")]
        {
            sys::meminfo(self.fd())
        }
        #[cfg(not(target_os = "linux"))]
        {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "SO_MEMINFO is Linux-only",
            ))
        }
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<SocketAddrV4> {
        match self.sock.local_addr()? {
            std::net::SocketAddr::V4(a) => Ok(a),
            std::net::SocketAddr::V6(a) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("expected an IPv4 socket, bound {a}"),
            )),
        }
    }

    /// Whether this socket is using the batched syscalls (as opposed to
    /// the portable fallback).
    pub fn batched(&self) -> bool {
        self.use_mmsg
    }

    /// Transmit every datagram, batching where possible. `WouldBlock`
    /// mid-batch retries after a brief yield (and is counted): loopback
    /// socket buffers drain in microseconds and the driver has nothing
    /// better to do than deliver what the cores already emitted.
    pub fn send_batch(&self, dgrams: &[(SocketAddrV4, &[u8])]) -> io::Result<SendReport> {
        let mut report = SendReport::default();
        let mut rest = dgrams;
        while !rest.is_empty() {
            let sent = if self.use_mmsg {
                self.send_once_mmsg(rest)
            } else {
                self.sock.send_to(rest[0].1, rest[0].0).map(|_| 1)
            };
            match sent {
                Ok(n) => {
                    report.datagrams += n;
                    report.syscalls += 1;
                    rest = &rest[n..];
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    report.would_block += 1;
                    std::thread::yield_now();
                }
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }

    #[cfg(target_os = "linux")]
    fn send_once_mmsg(&self, dgrams: &[(SocketAddrV4, &[u8])]) -> io::Result<usize> {
        sys::send_batch(self.fd(), dgrams)
    }

    #[cfg(not(target_os = "linux"))]
    fn send_once_mmsg(&self, _dgrams: &[(SocketAddrV4, &[u8])]) -> io::Result<usize> {
        unreachable!("use_mmsg is never set off Linux")
    }

    /// Drain everything currently readable, lending each datagram to
    /// `each` in arrival order out of buffers that are reused from call
    /// to call (datagrams longer than `max_size` are truncated to it).
    /// The queue is read until it is empty, so the bytes lent before a
    /// datagram in one call are the depth of queue it arrived behind.
    /// An error from `each` ends the drain and is returned; what was
    /// still queued stays queued. Zero datagrams simply means nothing
    /// was pending.
    pub fn recv_each<E: From<io::Error>>(
        &self,
        max_size: usize,
        mut each: impl FnMut(&[u8], SocketAddrV4) -> Result<(), E>,
    ) -> Result<SendReport, E> {
        let mut report = SendReport::default();
        if self.use_mmsg {
            let mut slots = RECV_SLOTS.take();
            size_slots(&mut slots, max_size);
            let drained = loop {
                match self.recv_once_mmsg(&mut slots) {
                    Ok(n) => {
                        report.datagrams += n;
                        report.syscalls += 1;
                        if let Some(e) = slots[..n]
                            .iter()
                            .find_map(|slot| each(slot.bytes(), slot.addr).err())
                        {
                            break Err(e);
                        }
                        if n < slots.len() {
                            break Ok(report);
                        }
                        grow_slots(&mut slots);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        report.would_block += 1;
                        break Ok(report);
                    }
                    Err(e) => break Err(e.into()),
                }
            };
            RECV_SLOTS.set(slots);
            return drained;
        }
        let mut buf = RECV_BUF.take();
        size_buf(&mut buf, max_size);
        let drained = loop {
            match self.sock.recv_from(&mut buf) {
                Ok((len, std::net::SocketAddr::V4(src))) => {
                    report.datagrams += 1;
                    report.syscalls += 1;
                    if let Err(e) = each(&buf[..len], src) {
                        break Err(e);
                    }
                }
                Ok((_, std::net::SocketAddr::V6(_))) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    report.would_block += 1;
                    break Ok(report);
                }
                Err(e) => break Err(e.into()),
            }
        };
        RECV_BUF.set(buf);
        drained
    }

    /// [`recv_each`](Self::recv_each) for callers that keep the
    /// datagrams: each is copied into `out` with its source.
    pub fn recv_batch(
        &self,
        max_size: usize,
        out: &mut Vec<(Vec<u8>, SocketAddrV4)>,
    ) -> io::Result<SendReport> {
        self.recv_each(max_size, |bytes, src| {
            out.push((bytes.to_vec(), src));
            Ok(())
        })
    }

    #[cfg(target_os = "linux")]
    fn recv_once_mmsg(&self, slots: &mut [RecvSlot]) -> io::Result<usize> {
        sys::recv_batch(self.fd(), slots)
    }

    #[cfg(not(target_os = "linux"))]
    fn recv_once_mmsg(&self, _slots: &mut [RecvSlot]) -> io::Result<usize> {
        unreachable!("use_mmsg is never set off Linux")
    }
}

/// Which of `socks` are readable, waiting up to `timeout` for the first
/// to become so: bit `i` is the `i`-th socket. One `poll(2)` over a
/// descriptor array on the stack, so at most [`sys::POLL_MAX`] sockets.
#[cfg(target_os = "linux")]
fn ask_readable<'a>(
    socks: impl IntoIterator<Item = &'a BatchSocket>,
    timeout: Duration,
) -> io::Result<u64> {
    let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    sys::poll_readable(socks.into_iter().map(BatchSocket::fd), timeout_ms)
}

/// No `poll(2)`: nap for the shorter of the timeout and 1ms (a turn's
/// question, with none, does not nap at all), answer "all of them,
/// maybe", and let the caller's nonblocking drain discover the truth.
#[cfg(not(target_os = "linux"))]
fn ask_readable<'a>(
    _socks: impl IntoIterator<Item = &'a BatchSocket>,
    timeout: Duration,
) -> io::Result<u64> {
    if !timeout.is_zero() {
        std::thread::sleep(timeout.min(Duration::from_millis(1)));
    }
    Ok(u64::MAX)
}

/// Block until any of `socks` is readable or `timeout` elapses. Returns
/// whether something is (probably) readable; spurious wakeups are fine —
/// every caller follows with a nonblocking drain.
pub fn wait_readable<'a>(
    socks: impl IntoIterator<Item = &'a BatchSocket>,
    timeout: Duration,
) -> io::Result<bool> {
    Ok(ask_readable(socks, timeout)? != 0)
}

/// The answer to a readiness question: which of the sockets asked about
/// are readable, by their position in the question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ready(u64);

impl Ready {
    /// Whether the `i`-th socket asked about is (probably) readable.
    pub fn has(self, i: usize) -> bool {
        self.0 >> i & 1 != 0
    }

    /// Those of `socks` — the leading sockets of the question — that are
    /// named, each with its position.
    pub fn named(self, socks: &[BatchSocket]) -> impl Iterator<Item = (usize, &BatchSocket)> {
        socks.iter().enumerate().filter(move |(i, _)| self.has(*i))
    }
}

/// A turn's one readiness question: which of `socks` have something
/// queued right now. The turn then runs [`BatchSocket::recv_each`] on
/// those alone, so a system call is made for an empty queue only when a
/// drain filled its last batch exactly. A socket named is a "maybe" (it
/// is all the portable path ever answers); one not named had an empty
/// queue when asked.
///
/// The thread's receive scratch is brought to `max_size` *before* the
/// question, not by the first drain that finds data: a fresh thread's
/// first turn then pays for it whether or not anything has arrived yet —
/// ahead of a handshake, not inside it.
pub fn readable_now<'a>(
    socks: impl IntoIterator<Item = &'a BatchSocket>,
    max_size: usize,
) -> io::Result<Ready> {
    let mut socks = socks.into_iter().peekable();
    match socks.peek() {
        Some(sock) if sock.use_mmsg => RECV_SLOTS.with_borrow_mut(|s| size_slots(s, max_size)),
        Some(_) => RECV_BUF.with_borrow_mut(|b| size_buf(b, max_size)),
        None => {}
    }
    ask_readable(socks, Duration::ZERO).map(Ready)
}

/// Whether this environment can bind and exchange loopback UDP at all.
///
/// Sandboxes sometimes forbid sockets; every wire test and binary calls
/// this first and *visibly* skips (never silently passes) when it fails.
pub fn loopback_available() -> bool {
    let Ok(a) = BatchSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)) else {
        return false;
    };
    let Ok(b) = BatchSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)) else {
        return false;
    };
    let (Ok(addr_b), Ok(_)) = (b.local_addr(), a.local_addr()) else {
        return false;
    };
    let probe = b"mtp-io-probe";
    if a.send_batch(&[(addr_b, &probe[..])]).is_err() {
        return false;
    }
    let deadline = std::time::Instant::now() + Duration::from_millis(500);
    let mut got = Vec::new();
    while std::time::Instant::now() < deadline {
        let _ = wait_readable([&b], Duration::from_millis(10));
        match b.recv_batch(1500, &mut got) {
            Ok(_) if !got.is_empty() => return got[0].0 == probe,
            Ok(_) => {}
            Err(_) => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Loopback echo through both the mmsg and the fallback paths: a
    /// batch that fits one `recvmmsg` slot array, then one that needs the
    /// array refilled twice; then a readiness question, whose named
    /// sockets yield what a plain loop over all of them does.
    #[test]
    fn batch_roundtrip_both_paths() {
        if !loopback_available() {
            eprintln!("NOTICE: UDP loopback unavailable; skipping batch_roundtrip_both_paths");
            return;
        }
        for force_fallback in [false, true] {
            let bind = |force: bool| -> BatchSocket {
                let mut s = BatchSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).unwrap();
                if force {
                    s.use_mmsg = false;
                    s.sock.set_nonblocking(true).unwrap();
                }
                s
            };
            let a = bind(force_fallback);
            let b = bind(force_fallback);
            let to_b = b.local_addr().unwrap();

            for count in [sys::BATCH - 1, 2 * sys::BATCH + 5] {
                let payloads: Vec<Vec<u8>> = (0..count).map(|i| vec![i as u8; 64 + i]).collect();
                let dgrams: Vec<(SocketAddrV4, &[u8])> =
                    payloads.iter().map(|p| (to_b, p.as_slice())).collect();
                let report = a.send_batch(&dgrams).unwrap();
                assert_eq!(report.datagrams, count);
                if a.batched() {
                    assert!(report.syscalls < count, "sendmmsg should batch");
                }

                let mut got = Vec::new();
                let mut most_per_call = 0;
                let deadline = std::time::Instant::now() + Duration::from_secs(5);
                while got.len() < count && std::time::Instant::now() < deadline {
                    wait_readable([&b], Duration::from_millis(20)).unwrap();
                    let r = b.recv_batch(2048, &mut got).unwrap();
                    most_per_call = most_per_call.max(r.datagrams);
                }
                assert_eq!(got.len(), count, "force_fallback={force_fallback}");
                // Loopback queues a datagram before its send returns, so
                // one drain of the larger batch has to refill its slots.
                if count > sys::BATCH {
                    assert!(
                        most_per_call > sys::BATCH,
                        "force_fallback={force_fallback}: {most_per_call} of {count} in one drain"
                    );
                }
                let mut seen: Vec<&[u8]> = got.iter().map(|(d, _)| d.as_slice()).collect();
                seen.sort_unstable();
                let mut want: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
                want.sort_unstable();
                assert_eq!(seen, want);
            }

            // Three receivers, the middle one idle. Loopback queues a
            // datagram before its send returns, so nothing has to wait.
            let rx: Vec<BatchSocket> = (0..3).map(|_| bind(force_fallback)).collect();
            let send_round = || {
                for i in 0..2 * sys::BATCH + 5 {
                    let to = rx[i % 2 * 2].local_addr().unwrap();
                    a.send_batch(&[(to, &[i as u8; 40][..])]).unwrap();
                }
            };
            let drain = |socks: &mut dyn Iterator<Item = (usize, &BatchSocket)>| {
                let mut got = Vec::new();
                for (i, sock) in socks {
                    sock.recv_each(2048, |bytes, _src| {
                        got.push((i, bytes.to_vec()));
                        Ok::<(), io::Error>(())
                    })
                    .unwrap();
                }
                got
            };
            send_round();
            let plain = drain(&mut rx.iter().enumerate());
            assert_eq!(plain.len(), 2 * sys::BATCH + 5);
            send_round();
            let ready = readable_now(&rx, 2048).unwrap();
            if cfg!(target_os = "linux") {
                assert_eq!(
                    [ready.has(0), ready.has(1), ready.has(2)],
                    [true, false, true]
                );
            }
            let named = drain(&mut ready.named(&rx));
            assert_eq!(named, plain, "force_fallback={force_fallback}");
            if cfg!(target_os = "linux") {
                assert_eq!(readable_now(&rx, 2048).unwrap(), Ready(0), "all drained");
            }
        }
    }

    /// The `recvmmsg` scratch is as deep as the deepest receive its
    /// thread has seen — doubled each time every slot comes back full —
    /// not a worst case held by every thread that ever polls.
    #[cfg(target_os = "linux")]
    #[test]
    fn receive_scratch_follows_the_deepest_receive() {
        if !loopback_available() {
            eprintln!("NOTICE: UDP loopback unavailable; skipping receive_scratch_follows");
            return;
        }
        // A thread of its own: this one's scratch has already been used.
        let drains = std::thread::spawn(|| {
            let any = SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0);
            let (a, b) = (
                BatchSocket::bind(any).unwrap(),
                BatchSocket::bind(any).unwrap(),
            );
            let to_b = b.local_addr().unwrap();
            [1, 1, 5, 40, 2 * sys::BATCH].map(|count| {
                for _ in 0..count {
                    a.send_batch(&[(to_b, &[0u8; 32][..])]).unwrap();
                }
                let report = b
                    .recv_each(2048, |_bytes, _src| Ok::<(), io::Error>(()))
                    .unwrap();
                assert_eq!(report.datagrams, count);
                let slots = RECV_SLOTS.with_borrow(Vec::len);
                (slots, report.syscalls, report.would_block)
            })
        })
        .join()
        .unwrap();
        // (slots afterwards, receives that carried data, that found nothing)
        assert_eq!(
            drains,
            [
                (2, 1, 1),  // the one slot came back full: look again, double
                (2, 1, 0),  // one of two: the queue is empty, no second look
                (4, 2, 0),  // 2 + 3
                (32, 4, 0), // 4 + 8 + 16 + 12
                (32, 2, 1), // 32 + 32, and a full batch always looks again
            ]
        );
    }

    /// One question covers at most a mask's worth of sockets; more is a
    /// typed error, not a socket silently never asked about.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_question_of_too_many_sockets_is_refused() {
        let err = sys::poll_readable(vec![0; sys::POLL_MAX + 1], 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
