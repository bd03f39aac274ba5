//! Raw syscall bindings: `sendmmsg`, `recvmmsg`, `poll`, and the socket
//! buffer options.
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

/// Most descriptors one `poll_readable` asks about: its descriptor
/// array lives on the stack and its answer is a bit per descriptor.
pub const POLL_MAX: usize = 64;

/// One receive slot: a caller-owned buffer plus the length and source
/// address the kernel filled in.
#[derive(Debug)]
pub struct RecvSlot {
    /// Datagram bytes land here; capacity bounds the receivable size.
    pub buf: Vec<u8>,
    /// Valid bytes in `buf` after a receive.
    pub len: usize,
    /// Source address of the datagram.
    pub addr: SocketAddrV4,
}

/// What `getsockopt(SO_MEMINFO)` says about a socket's buffers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemInfo {
    /// Receive-queue limit the kernel granted, in bytes of what it
    /// charges a datagram (its buffer's true size, not its length).
    pub rcvbuf: u32,
    /// Send-queue limit the kernel granted, same unit.
    pub sndbuf: u32,
    /// Datagrams the socket has dropped since it was created, for want
    /// of receive-queue room.
    pub drops: u32,
}

impl RecvSlot {
    /// A slot able to receive datagrams up to `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> RecvSlot {
        RecvSlot {
            buf: vec![0; capacity],
            len: 0,
            addr: SocketAddrV4::new(std::net::Ipv4Addr::UNSPECIFIED, 0),
        }
    }

    /// The received bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

#[cfg(target_os = "linux")]
mod linux {
    use super::{MemInfo, RecvSlot, BATCH, POLL_MAX};
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

    /// Transmit up to [`BATCH`] datagrams in one syscall. Returns how
    /// many the kernel accepted (possibly fewer than offered).
    pub fn send_batch(fd: RawFd, dgrams: &[(SocketAddrV4, &[u8])]) -> io::Result<usize> {
        let n = dgrams.len().min(BATCH);
        let mut addrs = [SockaddrIn::zeroed(); BATCH];
        let mut iovs: [IoVec; BATCH] = std::array::from_fn(|_| IoVec {
            iov_base: std::ptr::null_mut(),
            iov_len: 0,
        });
        let mut hdrs: [MMsgHdr; BATCH] = std::array::from_fn(|_| MMsgHdr {
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
        });
        for (i, (addr, bytes)) in dgrams.iter().take(n).enumerate() {
            addrs[i] = SockaddrIn::from_addr(addr);
            iovs[i] = IoVec {
                // sendmmsg never writes through the iovec; the cast is
                // only to satisfy the (historically non-const) ABI type.
                iov_base: bytes.as_ptr() as *mut u8,
                iov_len: bytes.len(),
            };
            hdrs[i].msg_hdr.msg_name = &mut addrs[i];
            hdrs[i].msg_hdr.msg_namelen = std::mem::size_of::<SockaddrIn>() as u32;
            hdrs[i].msg_hdr.msg_iov = &mut iovs[i];
            hdrs[i].msg_hdr.msg_iovlen = 1;
        }
        // SAFETY: every pointer in `hdrs` targets a live stack array or
        // a caller slice that outlives the call; vlen == n bounds the
        // kernel's reads to initialized entries.
        let rc = unsafe { sendmmsg(fd, hdrs.as_mut_ptr(), n as u32, MSG_DONTWAIT) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(rc as usize)
    }

    /// Receive up to `slots.len().min(BATCH)` datagrams in one syscall.
    /// Returns how many slots were filled, never 0: when nothing is
    /// queued the kernel reports `EAGAIN`, surfaced as `WouldBlock`.
    pub fn recv_batch(fd: RawFd, slots: &mut [RecvSlot]) -> io::Result<usize> {
        let n = slots.len().min(BATCH);
        let mut addrs = [SockaddrIn::zeroed(); BATCH];
        let mut iovs: [IoVec; BATCH] = std::array::from_fn(|_| IoVec {
            iov_base: std::ptr::null_mut(),
            iov_len: 0,
        });
        let mut hdrs: [MMsgHdr; BATCH] = std::array::from_fn(|_| MMsgHdr {
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
        });
        for i in 0..n {
            iovs[i] = IoVec {
                iov_base: slots[i].buf.as_mut_ptr(),
                iov_len: slots[i].buf.len(),
            };
            hdrs[i].msg_hdr.msg_name = &mut addrs[i];
            hdrs[i].msg_hdr.msg_namelen = std::mem::size_of::<SockaddrIn>() as u32;
            hdrs[i].msg_hdr.msg_iov = &mut iovs[i];
            hdrs[i].msg_hdr.msg_iovlen = 1;
        }
        // SAFETY: as in `send_batch`; buffers are distinct `Vec`s so the
        // kernel's writes cannot alias.
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
        for i in 0..got {
            slots[i].len = hdrs[i].msg_len as usize;
            slots[i].addr = addrs[i].to_addr();
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

    fn set_buffer(fd: RawFd, name: i32, bytes: usize) -> io::Result<()> {
        let val = i32::try_from(bytes).unwrap_or(i32::MAX);
        // SAFETY: `val` is a live `int`, which is what both options take.
        let rc = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
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
pub use linux::{meminfo, poll_readable, recv_batch, send_batch, set_recv_buffer, set_send_buffer};

#[cfg(not(target_os = "linux"))]
mod portable {
    use super::RecvSlot;
    use std::io;
    use std::net::SocketAddrV4;

    /// Raw fd stand-in on platforms without the Linux FFI.
    pub type RawFd = i32;

    fn unsupported() -> io::Error {
        io::Error::new(io::ErrorKind::Unsupported, "mmsg syscalls are Linux-only")
    }

    /// Always `Unsupported`; callers fall back to `send_to` loops.
    pub fn send_batch(_fd: RawFd, _dgrams: &[(SocketAddrV4, &[u8])]) -> io::Result<usize> {
        Err(unsupported())
    }

    /// Always `Unsupported`; callers fall back to `recv_from` loops.
    pub fn recv_batch(_fd: RawFd, _slots: &mut [RecvSlot]) -> io::Result<usize> {
        Err(unsupported())
    }
}

#[cfg(not(target_os = "linux"))]
pub use portable::{recv_batch, send_batch};
