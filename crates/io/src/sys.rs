//! Raw syscall bindings: `sendmmsg`, `recvmmsg`, `poll`, the socket
//! buffer options, and UDP segmentation offload.
//!
//! The workspace vendors no `libc` crate, so the handful of kernel
//! interfaces the wire driver needs beyond `std::net::UdpSocket` are
//! declared here by hand. This is the only module in the crate allowed
//! to contain `unsafe`; everything above it speaks safe Rust
//! ([`crate::socket::BatchSocket`] wraps these behind an automatic
//! fallback to `send_to`/`recv_from`).
//!
//! Struct layouts match `x86_64-unknown-linux-gnu` (the only tier-1
//! target this repo builds on); other platforms compile the stub halves
//! at the bottom, which report `Unsupported` and push callers onto the
//! portable std path.

#![allow(unsafe_code)]

use std::net::SocketAddrV4;

/// Largest number of datagrams moved per `sendmmsg`/`recvmmsg` call.
///
/// Bounded so the per-call scratch (iovecs, headers, addresses) lives in
/// fixed arrays; the kernel caps `vlen` at `UIO_MAXIOV` (1024) anyway.
pub const BATCH: usize = 32;

/// Most datagrams one segmentation run carries (the kernel's
/// `UDP_MAX_SEGMENTS`).
pub const GSO_MAX_SEGMENTS: usize = 64;

/// Most bytes one segmentation run carries: the largest UDP payload an
/// IPv4 packet holds.
pub const GSO_MAX_BYTES: usize = 65_507;

/// Capacity a receive slot needs on a socket with `UDP_GRO` on: the
/// largest coalesced packet the kernel may hand back. A smaller slot
/// loses the segments past its end (`MSG_TRUNC`).
pub const GRO_SLOT: usize = 65_535;

/// Most descriptors one `poll_readable` asks about: its descriptor
/// array lives on the stack and its answer is a bit per descriptor.
pub const POLL_MAX: usize = 64;

/// One receive slot: a caller-owned buffer plus the length, source
/// address and segment size the kernel filled in.
#[derive(Debug)]
pub struct RecvSlot {
    /// Datagram bytes land here; capacity bounds the receivable size.
    pub buf: Vec<u8>,
    /// Valid bytes in `buf` after a receive.
    pub len: usize,
    /// Source address of the datagram.
    pub addr: SocketAddrV4,
    /// Size of each datagram when the kernel coalesced a run of them into
    /// `buf` (`UDP_GRO`; the last may be shorter), 0 when it holds one.
    pub segment: usize,
}

/// What one [`send_batch`] call handed to the kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sent {
    /// Datagrams accepted.
    pub datagrams: usize,
    /// Of those, the ones that left in a segmentation run of two or more.
    pub offloaded: usize,
}

/// What `getsockopt(SO_MEMINFO)` says about a socket's buffers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemInfo {
    /// Receive-queue limit the kernel granted, in bytes of what it
    /// charges a datagram (its buffer's true size, not its length).
    pub rcvbuf: u32,
    /// Send-queue limit the kernel granted, same unit.
    pub sndbuf: u32,
    /// Drop events at the socket since it was created, for want of
    /// receive-queue room: each is one kernel packet, which is one
    /// datagram, or a whole coalesced run on a socket with `UDP_GRO` on.
    pub drops: u32,
}

impl RecvSlot {
    /// A slot able to receive datagrams up to `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> RecvSlot {
        RecvSlot {
            buf: vec![0; capacity],
            len: 0,
            addr: SocketAddrV4::new(std::net::Ipv4Addr::UNSPECIFIED, 0),
            segment: 0,
        }
    }

    /// The received bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    /// The datagrams the slot holds, in order: the one it received, or
    /// the coalesced run cut at [`segment`](Self::segment) bytes.
    pub fn datagrams(&self) -> impl Iterator<Item = &[u8]> {
        let bytes = self.bytes();
        let segment = if self.segment == 0 {
            bytes.len()
        } else {
            self.segment
        };
        // `chunks` yields nothing for an empty datagram, which is still one.
        bytes
            .chunks(segment.max(1))
            .chain(bytes.is_empty().then_some(bytes))
    }
}

/// How many of the leading `dgrams` one segmentation run can carry: one
/// destination and one length, of which only the last may be shorter
/// (never empty), at most `max_run` of them, [`GSO_MAX_SEGMENTS`] and
/// [`GSO_MAX_BYTES`]. 1 whenever they cannot share a kernel packet; 0
/// only for no datagrams.
pub fn run_len(dgrams: &[(SocketAddrV4, &[u8])], max_run: usize) -> usize {
    let Some(&(to, first)) = dgrams.first() else {
        return 0;
    };
    let most = max_run.min(GSO_MAX_SEGMENTS).min(dgrams.len());
    let (mut run, mut bytes) = (1, first.len());
    while run < most {
        let (addr, next) = dgrams[run];
        let fits =
            !next.is_empty() && next.len() <= first.len() && bytes + next.len() <= GSO_MAX_BYTES;
        if addr != to || !fits {
            break;
        }
        (run, bytes) = (run + 1, bytes + next.len());
        if next.len() < first.len() {
            break;
        }
    }
    run
}

#[cfg(target_os = "linux")]
mod linux {
    use super::{run_len, MemInfo, RecvSlot, Sent, BATCH, POLL_MAX};
    use std::io;
    use std::net::SocketAddrV4;
    use std::os::fd::RawFd;

    const AF_INET: u16 = 2;
    const POLLIN: i16 = 0x001;
    /// Per-call nonblocking: the sockets themselves stay in blocking
    /// mode, which saves one `ioctl(FIONBIO)` per socket at bind.
    const MSG_DONTWAIT: i32 = 0x40;
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;
    const SO_MEMINFO: i32 = 55;
    /// Indices into `SO_MEMINFO`'s `u32` array (`SK_MEMINFO_*`).
    const SK_MEMINFO_RCVBUF: usize = 1;
    const SK_MEMINFO_SNDBUF: usize = 3;
    const SK_MEMINFO_DROPS: usize = 8;
    const SK_MEMINFO_VARS: usize = 9;
    const SOL_UDP: i32 = 17;
    const UDP_SEGMENT: i32 = 103;
    const UDP_GRO: i32 = 104;
    const EIO: i32 = 5;
    const EINVAL: i32 = 22;
    /// `CMSG_LEN(sizeof(int))`: what the kernel writes for `UDP_GRO`.
    const CMSG_GRO_LEN: usize = 16 + 4;

    /// One control message with room for an `int`: `CMSG_SPACE(4)` on
    /// this target. It carries a send's `UDP_SEGMENT` (a `u16`) or a
    /// receive's `UDP_GRO` (an `int`).
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct UdpCmsg {
        cmsg_len: usize,
        cmsg_level: i32,
        cmsg_type: i32,
        data: [u8; 8],
    }

    const _: () = assert!(std::mem::size_of::<UdpCmsg>() == 24);

    impl UdpCmsg {
        fn zeroed() -> UdpCmsg {
            UdpCmsg {
                cmsg_len: 0,
                cmsg_level: 0,
                cmsg_type: 0,
                data: [0; 8],
            }
        }

        /// `UDP_SEGMENT`: cut the packet into datagrams of `size` bytes.
        /// The kernel wants exactly `CMSG_LEN(sizeof(u16))`.
        fn segment(size: usize) -> UdpCmsg {
            let mut data = [0; 8];
            data[..2].copy_from_slice(&(size as u16).to_ne_bytes());
            UdpCmsg {
                cmsg_len: 16 + 2,
                cmsg_level: SOL_UDP,
                cmsg_type: UDP_SEGMENT,
                data,
            }
        }

        /// The segment size a receive's `UDP_GRO` message names; 0 for
        /// any other message.
        fn gro_segment(&self) -> usize {
            if self.cmsg_level != SOL_UDP || self.cmsg_type != UDP_GRO {
                return 0;
            }
            let size = i32::from_ne_bytes([self.data[0], self.data[1], self.data[2], self.data[3]]);
            usize::try_from(size).unwrap_or(0)
        }
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16, // network byte order
        sin_addr: u32, // network byte order
        sin_zero: [u8; 8],
    }

    impl SockaddrIn {
        fn from_addr(a: &SocketAddrV4) -> SockaddrIn {
            SockaddrIn {
                sin_family: AF_INET,
                sin_port: a.port().to_be(),
                sin_addr: u32::from_be_bytes(a.ip().octets()).to_be(),
                sin_zero: [0; 8],
            }
        }

        fn to_addr(self) -> SocketAddrV4 {
            SocketAddrV4::new(
                std::net::Ipv4Addr::from(u32::from_be(self.sin_addr).to_be_bytes()),
                u16::from_be(self.sin_port),
            )
        }

        fn zeroed() -> SockaddrIn {
            SockaddrIn {
                sin_family: 0,
                sin_port: 0,
                sin_addr: 0,
                sin_zero: [0; 8],
            }
        }
    }

    #[repr(C)]
    struct IoVec {
        iov_base: *mut u8,
        iov_len: usize,
    }

    #[repr(C)]
    struct MsgHdr {
        msg_name: *mut SockaddrIn,
        msg_namelen: u32,
        msg_iov: *mut IoVec,
        msg_iovlen: usize,
        msg_control: *mut u8,
        msg_controllen: usize,
        msg_flags: i32,
    }

    #[repr(C)]
    struct MMsgHdr {
        msg_hdr: MsgHdr,
        msg_len: u32,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn sendmmsg(sockfd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
        fn recvmmsg(
            sockfd: i32,
            msgvec: *mut MMsgHdr,
            vlen: u32,
            flags: i32,
            timeout: *mut u8, // struct timespec*; always null here
        ) -> i32;
        fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
        fn setsockopt(sockfd: i32, level: i32, name: i32, val: *const u8, len: u32) -> i32;
        fn getsockopt(sockfd: i32, level: i32, name: i32, val: *mut u8, len: *mut u32) -> i32;
    }

    /// A header array with every pointer null, for one call to fill.
    fn empty_headers() -> [MMsgHdr; BATCH] {
        std::array::from_fn(|_| MMsgHdr {
            msg_hdr: MsgHdr {
                msg_name: std::ptr::null_mut(),
                msg_namelen: 0,
                msg_iov: std::ptr::null_mut(),
                msg_iovlen: 0,
                msg_control: std::ptr::null_mut(),
                msg_controllen: 0,
                msg_flags: 0,
            },
            msg_len: 0,
        })
    }

    fn empty_iovecs() -> [IoVec; BATCH] {
        std::array::from_fn(|_| IoVec {
            iov_base: std::ptr::null_mut(),
            iov_len: 0,
        })
    }

    /// Transmit up to [`BATCH`] datagrams in one syscall, each run of them
    /// that [`run_len`] allows (at most `max_run`) as one kernel packet:
    /// one message header with an iovec per datagram and a `UDP_SEGMENT`
    /// control message naming the run's datagram size. The kernel cuts
    /// the packet back into those datagrams, so the wire sees what
    /// `max_run` 1 sends. Returns how many it accepted (possibly fewer
    /// than offered: whole runs only).
    pub fn send_batch(
        fd: RawFd,
        dgrams: &[(SocketAddrV4, &[u8])],
        max_run: usize,
    ) -> io::Result<Sent> {
        let n = dgrams.len().min(BATCH);
        let mut addrs = [SockaddrIn::zeroed(); BATCH];
        let mut iovs = empty_iovecs();
        let mut cmsgs = [UdpCmsg::zeroed(); BATCH];
        let mut hdrs = empty_headers();
        let (mut msgs, mut at) = (0, 0);
        while at < n {
            let run = run_len(&dgrams[at..n], max_run);
            addrs[msgs] = SockaddrIn::from_addr(&dgrams[at].0);
            for (iov, (_, bytes)) in iovs[at..at + run].iter_mut().zip(&dgrams[at..]) {
                // sendmmsg never writes through the iovec; the cast is
                // only to satisfy the (historically non-const) ABI type.
                *iov = IoVec {
                    iov_base: bytes.as_ptr() as *mut u8,
                    iov_len: bytes.len(),
                };
            }
            cmsgs[msgs] = UdpCmsg::segment(dgrams[at].1.len());
            hdrs[msgs].msg_hdr.msg_iovlen = run;
            (msgs, at) = (msgs + 1, at + run);
        }
        // Pointers are taken once everything they point at is written.
        let (iov_base, mut at) = (iovs.as_mut_ptr(), 0);
        for (i, hdr) in hdrs[..msgs].iter_mut().enumerate() {
            let msg = &mut hdr.msg_hdr;
            msg.msg_name = &mut addrs[i];
            msg.msg_namelen = std::mem::size_of::<SockaddrIn>() as u32;
            msg.msg_iov = iov_base.wrapping_add(at);
            if msg.msg_iovlen > 1 {
                msg.msg_control = (&mut cmsgs[i] as *mut UdpCmsg).cast();
                msg.msg_controllen = std::mem::size_of::<UdpCmsg>();
            }
            at += msg.msg_iovlen;
        }
        // SAFETY: every pointer in `hdrs[..msgs]` targets a live stack
        // array or a caller slice that outlives the call; header `i`'s
        // `msg_iovlen` iovecs lie inside `iovs[..n]`, and vlen == msgs
        // bounds the kernel's reads to initialized headers.
        let rc = unsafe { sendmmsg(fd, hdrs.as_mut_ptr(), msgs as u32, MSG_DONTWAIT) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        let runs = hdrs[..rc as usize].iter().map(|hdr| hdr.msg_hdr.msg_iovlen);
        Ok(Sent {
            datagrams: runs.clone().sum(),
            offloaded: runs.filter(|&run| run > 1).sum(),
        })
    }

    /// Receive up to `slots.len().min(BATCH)` kernel packets in one
    /// syscall. Returns how many slots were filled, never 0: when nothing
    /// is queued the kernel reports `EAGAIN`, surfaced as `WouldBlock`.
    /// With `gro`, each slot's `UDP_GRO` control message, if any, is read
    /// into its [`RecvSlot::segment`]; without, `segment` is 0.
    pub fn recv_batch(fd: RawFd, slots: &mut [RecvSlot], gro: bool) -> io::Result<usize> {
        let n = slots.len().min(BATCH);
        let mut addrs = [SockaddrIn::zeroed(); BATCH];
        let mut iovs = empty_iovecs();
        let mut cmsgs = [UdpCmsg::zeroed(); BATCH];
        for (iov, slot) in iovs.iter_mut().zip(&mut slots[..n]) {
            *iov = IoVec {
                iov_base: slot.buf.as_mut_ptr(),
                iov_len: slot.buf.len(),
            };
        }
        let mut hdrs = empty_headers();
        for (i, hdr) in hdrs[..n].iter_mut().enumerate() {
            let msg = &mut hdr.msg_hdr;
            msg.msg_name = &mut addrs[i];
            msg.msg_namelen = std::mem::size_of::<SockaddrIn>() as u32;
            msg.msg_iov = &mut iovs[i];
            msg.msg_iovlen = 1;
            if gro {
                msg.msg_control = (&mut cmsgs[i] as *mut UdpCmsg).cast();
                msg.msg_controllen = std::mem::size_of::<UdpCmsg>();
            }
        }
        // SAFETY: as in `send_batch`; buffers are distinct `Vec`s and
        // control messages distinct array entries, so the kernel's writes
        // cannot alias, and each `msg_controllen` is its entry's size.
        let rc = unsafe {
            recvmmsg(
                fd,
                hdrs.as_mut_ptr(),
                n as u32,
                MSG_DONTWAIT,
                std::ptr::null_mut(),
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        let got = rc as usize;
        for (i, slot) in slots[..got].iter_mut().enumerate() {
            slot.len = hdrs[i].msg_len as usize;
            slot.addr = addrs[i].to_addr();
            slot.segment = if hdrs[i].msg_hdr.msg_controllen >= CMSG_GRO_LEN {
                cmsgs[i].gro_segment()
            } else {
                0
            };
        }
        Ok(got)
    }

    /// Ask which of `fds` are readable, waiting up to `timeout_ms` for
    /// the first to become so (0 only asks). Bit `i` of the answer is the
    /// `i`-th descriptor; more than [`POLL_MAX`] of them is `InvalidInput`.
    /// An error or hang-up pending on a descriptor counts as readable:
    /// the receive that follows is what reports it.
    pub fn poll_readable(fds: impl IntoIterator<Item = RawFd>, timeout_ms: i32) -> io::Result<u64> {
        let mut pfds = [PollFd {
            fd: -1,
            events: 0,
            revents: 0,
        }; POLL_MAX];
        let mut n = 0;
        for fd in fds {
            let Some(slot) = pfds.get_mut(n) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("more than {POLL_MAX} sockets in one poll"),
                ));
            };
            *slot = PollFd {
                fd,
                events: POLLIN,
                revents: 0,
            };
            n += 1;
        }
        // SAFETY: `pfds` is a live, initialized array for the duration of
        // the call, and `n` is at most its length.
        let rc = unsafe { poll(pfds.as_mut_ptr(), n as u64, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            // A signal is not a failure; report "nothing readable yet".
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(pfds[..n]
            .iter()
            .enumerate()
            .filter(|(_, pfd)| pfd.revents != 0)
            .fold(0, |ready, (i, _)| ready | 1 << i))
    }

    /// Set the `int` socket option `level`/`name` on `fd` to `val`.
    pub fn set_option(fd: RawFd, level: i32, name: i32, val: i32) -> io::Result<()> {
        // SAFETY: `val` is a live `int`, which is what every option set
        // through here takes.
        let rc = unsafe {
            setsockopt(
                fd,
                level,
                name,
                (&val as *const i32).cast(),
                std::mem::size_of::<i32>() as u32,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn set_buffer(fd: RawFd, name: i32, bytes: usize) -> io::Result<()> {
        set_option(
            fd,
            SOL_SOCKET,
            name,
            i32::try_from(bytes).unwrap_or(i32::MAX),
        )
    }

    /// Whether the kernel segments runs sent from `fd` (`UDP_SEGMENT`,
    /// Linux 4.18). Asked by setting the socket's default segment size to
    /// 0, which is what it already is: every run names its own. A kernel
    /// without it refuses the option, and would send a run's control
    /// message unread, as one datagram of them all.
    pub fn probe_gso(fd: RawFd) -> bool {
        set_option(fd, SOL_UDP, UDP_SEGMENT, 0).is_ok()
    }

    /// Let the kernel coalesce runs that arrive at `fd` (`UDP_GRO`,
    /// Linux 5.0; refused before). The first socket
    /// of a host to do so flips a kernel-wide switch, which costs about
    /// 18 µs here; later ones cost what any option does.
    pub fn enable_gro(fd: RawFd) -> io::Result<()> {
        set_option(fd, SOL_UDP, UDP_GRO, 1)
    }

    /// Whether a send failed because the kernel would not segment a run
    /// on this socket or route (`EINVAL`, `EIO`), so that sending the
    /// same datagrams one per packet may succeed.
    pub fn refuses_offload(e: &io::Error) -> bool {
        matches!(e.raw_os_error(), Some(EINVAL | EIO))
    }

    /// Ask for a receive queue of `bytes` (`SO_RCVBUF`). The kernel caps
    /// the request at `net.core.rmem_max` and doubles it; read what it
    /// granted with [`meminfo`].
    pub fn set_recv_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
        set_buffer(fd, SO_RCVBUF, bytes)
    }

    /// Ask for a send queue of `bytes` (`SO_SNDBUF`; capped at
    /// `net.core.wmem_max`, doubled).
    pub fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
        set_buffer(fd, SO_SNDBUF, bytes)
    }

    /// The socket's granted buffer sizes and its drop count, in one call.
    pub fn meminfo(fd: RawFd) -> io::Result<MemInfo> {
        let mut vars = [0u32; SK_MEMINFO_VARS];
        let mut len = std::mem::size_of_val(&vars) as u32;
        // SAFETY: `vars` is a live array of `len` bytes; the kernel
        // writes at most `len` and reports how much it wrote.
        let rc = unsafe {
            getsockopt(
                fd,
                SOL_SOCKET,
                SO_MEMINFO,
                vars.as_mut_ptr().cast(),
                &mut len,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(MemInfo {
            rcvbuf: vars[SK_MEMINFO_RCVBUF],
            sndbuf: vars[SK_MEMINFO_SNDBUF],
            drops: vars[SK_MEMINFO_DROPS],
        })
    }
}

#[cfg(target_os = "linux")]
pub use linux::{
    enable_gro, meminfo, poll_readable, probe_gso, recv_batch, refuses_offload, send_batch,
    set_option, set_recv_buffer, set_send_buffer,
};

#[cfg(not(target_os = "linux"))]
mod portable {
    use super::{RecvSlot, Sent};
    use std::io;
    use std::net::SocketAddrV4;

    /// Raw fd stand-in on platforms without the Linux FFI.
    pub type RawFd = i32;

    fn unsupported() -> io::Error {
        io::Error::new(io::ErrorKind::Unsupported, "mmsg syscalls are Linux-only")
    }

    /// Always `Unsupported`; callers fall back to `send_to` loops.
    pub fn send_batch(
        _fd: RawFd,
        _dgrams: &[(SocketAddrV4, &[u8])],
        _max_run: usize,
    ) -> io::Result<Sent> {
        Err(unsupported())
    }

    /// Never: there is no segmentation to refuse.
    pub fn refuses_offload(_e: &io::Error) -> bool {
        false
    }

    /// Always `Unsupported`; callers fall back to `recv_from` loops.
    pub fn recv_batch(_fd: RawFd, _slots: &mut [RecvSlot], _gro: bool) -> io::Result<usize> {
        Err(unsupported())
    }
}

#[cfg(not(target_os = "linux"))]
pub use portable::{recv_batch, refuses_offload, send_batch};
