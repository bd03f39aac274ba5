//! What the single-thread loopback tests share: the bytes of a test
//! message, a helper thread for the two blocking calls, connect and close
//! over it, and the exactly-once check of a finished session.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use mtp_io::{payload, Listener, SenderSession, SessionConfig, SessionReport};
use mtp_wire::MsgId;

/// Message `id`'s `len` bytes of [`payload::fill`] content: what
/// [`assert_exactly_once`] expects delivered.
pub fn message(id: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    payload::fill(MsgId(id), 0, &mut buf);
    buf
}

/// Serve `listener` on a helper thread while `call` blocks on this one
/// (`connect` and `close` need their peer answered).
pub fn served<T>(listener: &mut Listener, call: impl FnOnce() -> T) -> T {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let helper = s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                listener.poll_once().expect("listener turn");
                std::thread::yield_now();
            }
        });
        let value = call();
        stop.store(true, Ordering::Relaxed);
        helper.join().expect("listener helper");
        value
    })
}

/// A listener on loopback and a session established with it.
pub fn connect(scfg: &SessionConfig) -> (Listener, SenderSession) {
    let mut listener = Listener::bind(scfg).expect("bind listener");
    let server = listener.hello_addr().expect("ctrl addr");
    let sess = served(&mut listener, || SenderSession::connect(scfg, server)).expect("connect");
    (listener, sess)
}

/// Close `sess`, serve `listener` through its TIME-WAIT, and return the
/// finished session's report.
pub fn close(
    ctx: &str,
    listener: &mut Listener,
    sess: &mut SenderSession,
    deadline: Instant,
) -> SessionReport {
    served(listener, || sess.close(deadline)).expect("close");
    while listener.active_sessions() > 0 {
        assert!(
            Instant::now() < deadline,
            "{ctx}: listener never left TIME-WAIT"
        );
        listener.poll_once().expect("listener turn");
    }
    listener
        .take_finished()
        .pop()
        .expect("one finished session")
}

/// `report` delivered messages `base .. base + messages`, each of
/// `msg_len` bytes of [`payload::fill`] content, exactly once.
pub fn assert_exactly_once(
    ctx: &str,
    base: u64,
    messages: usize,
    msg_len: usize,
    report: &SessionReport,
) {
    let want: Vec<(u64, u32)> = (0..messages as u64)
        .map(|k| (base + k, msg_len as u32))
        .collect();
    assert_eq!(report.delivered, want, "{ctx}: delivered ledger");
    assert_eq!(
        report.goodput,
        (messages * msg_len) as u64,
        "{ctx}: goodput"
    );
    assert_eq!(
        payload::content_digest(&report.digests),
        payload::synth_content_digest(want),
        "{ctx}: content digest of what was delivered"
    );
}
