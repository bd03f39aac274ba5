//! # mtp-io — the real-wire UDP backend
//!
//! Everything protocol-shaped in this workspace lives in the sans-IO
//! cores: [`mtp_core::MtpSender`] and [`mtp_core::MtpReceiver`] consume
//! headers and a clock, and push packets into caller-owned buffers. The
//! simulator drives them through node adapters; this crate drives the
//! *same* state machines over actual UDP sockets on a real kernel. The
//! cores never learn which world they run in — that is the whole point,
//! and the interop test in `tests/interop.rs` proves it by replaying a
//! sim golden workload over 127.0.0.1 and demanding byte-identical
//! delivered content.
//!
//! ## Layout
//!
//! * [`clock`] — monotonic wall clock mapped onto the simulator's
//!   picosecond [`mtp_sim::time::Time`]; the only place a session reads
//!   the time.
//! * [`payload`] — deterministic position-independent payload synthesis
//!   and FNV digests, so both worlds can agree on message *content*
//!   without shipping golden byte blobs around.
//! * [`frame`] — datagram coalescing: many sealed MTP frames per UDP
//!   datagram (GSO/GRO-style, as s2n-quic's platform layer does with
//!   segments), with a hard budget guard at seal time.
//! * [`sys`] — the only unsafe module: `sendmmsg`/`recvmmsg`/`poll` and
//!   the socket-buffer options (`SO_RCVBUF`/`SO_SNDBUF`/`SO_MEMINFO`) as
//!   FFI on Linux; every other platform takes the portable
//!   `send_to`/`recv_from` path.
//! * [`socket`] — nonblocking batch sockets (a drain lends its
//!   datagrams out of reused slots) and multi-socket readiness built on
//!   [`sys`]: a turn's one question and the blocking wait.
//! * [`session`] — the session lifecycle: [`SenderSession`]/[`Listener`]
//!   (and their [`IoConfig`]) with a versioned HELLO/HELLO-ACK handshake
//!   (which carries the per-pathlet port map; a second connector is
//!   answered with BUSY), keepalive liveness with typed peer-death
//!   errors, FIN/FIN-ACK graceful close with TIME-WAIT linger, and bounded
//!   admission (inflight/buffered/reassembly caps). A turn asks once which
//!   sockets have anything queued, drains those, feeds the core, and
//!   flushes once per pathlet — a burst of submissions shares that flush,
//!   only the first of a turn leaves at once; control frames ride the same
//!   drain through one acceptance check, and every control timer of
//!   either end (HELLO/FIN retries, PINGs, idle death, TIME-WAIT) is one
//!   private sans-IO machine, `control.rs`, on the session's clock. The
//!   listener stamps congestion (CE) on frames that arrive behind a deep
//!   receive queue, which is what the sender's pathlet windows converge
//!   on. One socket per pathlet; pathlet ids map to distinct loopback
//!   ports.
//! * [`relay`] — an in-process lossy UDP relay (seeded drop, duplicate,
//!   reorder, blackhole, lane flap, control-plane faults) with a
//!   NAT-style HELLO-ACK port rewrite, for exercising loss on real
//!   sockets.
//! * [`golden`] — the shared golden workload and its two runs: the
//!   simulator reference, and [`run_wire_golden`], which replays it
//!   through the session transport and assembles the same exactly-once
//!   ledger.
//! * [`soak`] — the seeded chaos-soak scenarios: handshake loss, FIN
//!   loss, blackhole flap, peer kill/restart — each must end in
//!   exactly-once delivery or a typed session error.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
mod control;
pub mod frame;
pub mod golden;
pub mod payload;
pub mod relay;
pub mod session;
pub mod soak;
pub mod socket;
pub mod sys;

pub use clock::MonotonicClock;
pub use frame::{
    append_ctrl_frame, append_frame, FrameError, FrameIter, FrameKind, DEFAULT_DATAGRAM_BUDGET,
    FRAME_OVERHEAD,
};
pub use golden::{
    golden_session_config, run_sim_golden, run_wire_golden, GoldenWorkload, SimOutcome,
    WireOutcome, GOLDEN_MSG_ID_BASE,
};
pub use relay::{ChaosConfig, LossyRelay, RelayConfig, RelayStats};
pub use session::{
    IoConfig, Listener, SenderSession, SessionCaps, SessionConfig, SessionError, SessionReport,
    SessionState, HANDSHAKE_TRIES,
};
pub use soak::{run_soak_suite, ChaosScenario, SoakOutcome, SoakRun};
pub use socket::{loopback_available, BatchSocket};
