//! `wire_bulk`, `wire_rpc` and `wire_pingpong`: one [`SenderSession`]
//! and one [`Listener`] over UDP on the host's loopback interface.
//!
//! All three are closed loops with a fixed number of messages
//! outstanding: the next message is submitted only when one completes.
//! A repetition is a fresh listener and a fresh session: connect, move a
//! fixed number of messages, close. The number is fixed, not the time,
//! so that what a session accumulates — and these sessions never prune —
//! is the same in every repetition on every host.
//!
//! **One thread drives both ends while the clock runs.** The harness
//! alternates `Listener::poll_once` and `SenderSession::poll` on the
//! main thread, so the timed region holds the whole path — submit, seal,
//! coalesce, `sendmmsg`, kernel loopback, `recvmmsg`, parse, reassemble,
//! acknowledge — and nothing that depends on how the host schedules two
//! virtual CPUs against each other. With a thread per end the same
//! workloads ran up to forty times slower whenever the host folded both
//! virtual CPUs onto one core (18 500 → 1 000 round trips a second
//! within half an hour, same code); what moved was the hypervisor's
//! wake-up latency, which the repository does not control. The blocking
//! `connect` and `close` still need the listener served concurrently, so
//! a helper thread serves it during those two calls, outside the timed
//! region, and hands it back.
//!
//! The timed region is cut into windows: every few milliseconds the
//! generator stops submitting, lets the outstanding messages complete,
//! and the host meter runs a reference slice before the next window
//! opens. A window is timed from its first submission to its last
//! completion; handshake, close and TIME-WAIT linger are outside.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mtp_io::{payload, Listener, SenderSession, SessionConfig, SessionError, SessionReport};
use mtp_telemetry::{Metric, Registry};
use mtp_wire::MsgId;

use crate::host;
use crate::meter::{HostMeter, Timed};
use crate::metrics::Layers;
use crate::probes;
use crate::run::{check_pin, measure, trace_overhead, Outcome, Rep, RunCfg};
use crate::stats::{highest_supported, percentile, tail_percentile};
use crate::trace::{aggregate, Agg, Span, Tracer};

/// What distinguishes the three workloads.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Bytes per message.
    pub msg_len: usize,
    /// Messages kept outstanding.
    pub outstanding: usize,
    /// Messages per session, `(full, smoke)`: about two seconds.
    pub messages: (u64, u64),
    /// Content digest of one session's deliveries at the default seed,
    /// `(full, smoke)`.
    pub pin: (&'static str, &'static str),
}

/// 256 KiB messages, 2 outstanding.
pub const BULK: Shape = Shape {
    msg_len: 256 * 1024,
    outstanding: 2,
    messages: (2_000, 40),
    pin: ("db8c31a31684c415", "ff0bc309057dd492"),
};
/// 512 B messages, 16 outstanding.
pub const RPC: Shape = Shape {
    msg_len: 512,
    outstanding: 16,
    messages: (30_000, 600),
    pin: ("0b69c1365a91c35a", "d02e75db3a1bce90"),
};
/// 512 B messages, 1 outstanding.
pub const PINGPONG: Shape = Shape {
    msg_len: 512,
    outstanding: 1,
    messages: (30_000, 600),
    // The same messages as `wire_rpc`, so the same digest.
    pin: ("0b69c1365a91c35a", "d02e75db3a1bce90"),
};

/// The discarded warm-up session moves a tenth of the messages: it only
/// has to fault the allocator's arenas and the kernel's socket paths in.
const WARMUP_SHARE: u64 = 10;
const SETUPS: usize = 15;
/// How long the generator submits before it drains for a reference
/// slice of the host meter.
const WINDOW: Duration = Duration::from_millis(8);
const WALL_LIMIT: Duration = Duration::from_secs(60);

/// Continue the byte fold of [`payload::message_digest`]. The library
/// offers the digest of a whole buffer only; the closed form below needs
/// to resume it after a shared prefix, so the fold is restated here
/// (multiplier as in `mtp_io::payload`) and [`Template::generate`]
/// checks it against the library on every run.
fn digest_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Digest state before the first byte.
const DIGEST_START: u64 = 0xcbf2_9ce4_8422_2325;

/// The generated input: one payload image. A message is the image with
/// its id in the last eight bytes, so every message differs, the
/// submitter pays one copy, and the expected digest of message `id`
/// follows in constant time from the digest state after the shared
/// prefix.
struct Template {
    image: Vec<u8>,
    prefix_state: u64,
}

impl Template {
    fn generate(seed: u64, msg_len: usize) -> Template {
        let mut image = vec![0u8; msg_len];
        payload::fill(MsgId(seed), 0, &mut image);
        let prefix_state = digest_fold(DIGEST_START, &image[..msg_len - 8]);
        let t = Template {
            image,
            prefix_state,
        };
        // The closed form must be the library's digest, or the content
        // check below would compare against the harness's own idea.
        let mut probe = t.image.clone();
        t.stamp(&mut probe, 0x0123_4567_89AB_CDEF);
        assert_eq!(
            t.expected_digest(0x0123_4567_89AB_CDEF),
            payload::message_digest(&probe),
            "closed-form digest disagrees with mtp_io::payload::message_digest"
        );
        t
    }

    fn stamp(&self, buf: &mut [u8], id: u64) {
        let at = buf.len() - 8;
        buf[at..].copy_from_slice(&id.to_le_bytes());
    }

    fn expected_digest(&self, id: u64) -> u64 {
        digest_fold(self.prefix_state, &id.to_le_bytes())
    }
}

/// What [`with_helper`] hands back: the main call's value, the listener,
/// the finished session's report if it was waited for, and when the
/// helper stopped serving.
type Served<T> = (T, Listener, Option<SessionReport>, Instant);

/// Serve `listener` on a helper thread while `main_call` blocks on the
/// main thread (`connect` and `close` need their peer answered), then
/// take the listener back. With `until_finished` the helper keeps
/// serving until the session has closed and lingered, and its report
/// comes back too.
fn with_helper<T>(
    mut listener: Listener,
    until_finished: bool,
    main_call: impl FnOnce() -> T,
) -> Result<Served<T>, String> {
    let stop = Arc::new(AtomicBool::new(false));
    let serving = Arc::new(AtomicBool::new(false));
    let (stop_rx, serving_tx) = (Arc::clone(&stop), Arc::clone(&serving));
    let helper = std::thread::Builder::new()
        .name("listener".to_string())
        .spawn(move || {
            let deadline = Instant::now() + WALL_LIMIT;
            let report = loop {
                let polled = listener.poll_once();
                serving_tx.store(true, Ordering::Release);
                polled.map_err(|e| format!("listener: {e}"))?;
                if let Some(report) = listener.take_finished().pop() {
                    break Some(report);
                }
                let stopped = stop_rx.load(Ordering::Relaxed);
                if (stopped && !until_finished) || Instant::now() >= deadline {
                    break None;
                }
                // No blocking wait: its millisecond granularity would sit
                // in every timed handshake. The helper lives only while
                // the main thread blocks, so it may as well spin.
                std::thread::yield_now();
            };
            Ok::<_, String>((listener, report, Instant::now()))
        })
        .map_err(|e| format!("spawn listener helper: {e}"))?;
    // The main call is timed; how long the host takes to start a thread
    // is not its business. Pairs with the helper's `Release` store.
    while !serving.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let value = main_call();
    stop.store(true, Ordering::Relaxed);
    let (listener, report, finished_at) = helper
        .join()
        .map_err(|_| "listener helper panicked".to_string())??;
    Ok((value, listener, report, finished_at))
}

/// A connected pair and what it cost, as the clock showed it.
struct Connected {
    sess: SenderSession,
    listener: Listener,
    /// Seconds in `Listener::bind`.
    bind_s: f64,
    /// Seconds in `SenderSession::connect`, its peer already serving.
    handshake_s: f64,
}

/// Bind a listener and connect a session to it.
fn connect(tr: &mut Tracer, rep: u64) -> Result<Connected, String> {
    let scfg = SessionConfig::default();
    let t0 = Instant::now();
    let listener = Listener::bind(&scfg).map_err(|e| format!("bind: {e}"))?;
    let server = listener.hello_addr().map_err(|e| format!("bind: {e}"))?;
    let bind_s = t0.elapsed().as_secs_f64();
    let span = tr.enter("io.session.handshake", rep);
    let ((sess, handshake_s), listener, _, _) = with_helper(listener, false, || {
        let t0 = Instant::now();
        let sess = SenderSession::connect(&scfg, server);
        (sess, t0.elapsed().as_secs_f64())
    })?;
    tr.exit(span);
    Ok(Connected {
        sess: sess.map_err(|e| format!("connect: {e}"))?,
        listener,
        bind_s,
        handshake_s,
    })
}

/// What one repetition produced.
struct WireRun {
    rep: Rep,
    bytes: u64,
    latency_us: Vec<f64>,
    /// Completion times, as nanoseconds of timed region before them.
    done_ns: Vec<u64>,
    refusals: u64,
    late_us_max: f64,
    handshake_s: f64,
    close_s: f64,
    linger_s: f64,
    user_s: f64,
    sys_s: f64,
    session: Registry,
    listener: Registry,
    peak_reasm_bytes: u64,
    /// `payload::content_digest` of what the listener delivered.
    content_digest: u64,
    retransmissions: u64,
    timeouts: u64,
    pkts_sent: u64,
    errors: Vec<String>,
    submitted: u64,
    failed: u64,
}

fn repetition(
    shape: Shape,
    template: &Template,
    messages: u64,
    meter: &mut HostMeter,
    tr: &mut Tracer,
    rep_id: u64,
) -> Result<WireRun, String> {
    let Connected {
        mut sess,
        mut listener,
        handshake_s,
        ..
    } = connect(tr, rep_id)?;
    let session_err = |e: SessionError| format!("session: {e}");
    let listener_err = |e: std::io::Error| format!("listener: {e}");

    let base = sess.next_msg_id();
    // Sized before the timed region, so the harness's own bookkeeping
    // never allocates inside it.
    let mut submitted_at: Vec<Instant> = Vec::with_capacity(messages as usize);
    let mut latency_us: Vec<f64> = Vec::with_capacity(messages as usize);
    let mut done_ns: Vec<u64> = Vec::with_capacity(messages as usize);
    // One copy of the image per slot, made right after a submission, so
    // a completion is answered with the next submission at once.
    let mut ready: Vec<Vec<u8>> = (0..shape.outstanding)
        .map(|_| template.image.clone())
        .collect();
    let (mut outstanding, mut consumed, mut refusals) = (0usize, 0usize, 0u64);
    let mut visible: Option<Instant> = None;
    let mut late_ns_max = 0u64;

    let (user0, sys0) = host::cpu_user_sys();
    let hard_stop = Instant::now() + WALL_LIMIT;
    let mut timed = Timed::begin(meter);
    let mut window = 0u64;
    loop {
        let window_end = Instant::now() + WINDOW;
        let span = tr.enter("wire.window", window);
        loop {
            let now = Instant::now();
            if now < window_end && (submitted_at.len() as u64) < messages {
                while outstanding < shape.outstanding && (submitted_at.len() as u64) < messages {
                    let id = sess.next_msg_id();
                    let mut buf = ready.pop().unwrap_or_else(|| template.image.clone());
                    template.stamp(&mut buf, id);
                    let at = Instant::now();
                    if let Some(v) = visible.take() {
                        late_ns_max = late_ns_max.max(at.duration_since(v).as_nanos() as u64);
                    }
                    let send = tr.enter("io.session.try_send", id);
                    let sent = sess.try_send(buf);
                    tr.exit(send);
                    match sent {
                        Ok(got) => {
                            debug_assert_eq!(got.0, id, "session ids are sequential");
                            submitted_at.push(at);
                            outstanding += 1;
                        }
                        Err(SessionError::Backpressure { .. }) => {
                            refusals += 1;
                            break;
                        }
                        Err(e) => return Err(session_err(e)),
                    }
                }
                while ready.len() < shape.outstanding {
                    ready.push(template.image.clone());
                }
            } else if outstanding == 0 {
                break;
            } else if now >= hard_stop {
                return Err(format!(
                    "{outstanding} messages still outstanding at the wall limit"
                ));
            }
            let poll = tr.enter("io.listener.poll_once", window);
            let polled = listener.poll_once();
            tr.exit(poll);
            polled.map_err(listener_err)?;
            let poll = tr.enter("io.session.poll", window);
            let polled = sess.poll();
            tr.exit(poll);
            polled.map_err(session_err)?;
            let completions = sess.completions();
            if completions.len() > consumed {
                let seen = Instant::now();
                let region_ns = timed.elapsed_ns();
                for &(id, _) in &completions[consumed..] {
                    let k = (id - base) as usize;
                    latency_us.push(seen.duration_since(submitted_at[k]).as_nanos() as f64 / 1e3);
                    done_ns.push(region_ns);
                    outstanding -= 1;
                }
                consumed = completions.len();
                visible = Some(seen);
            }
        }
        tr.exit(span);
        // The window ended on its last completion: the gap to the next
        // submission is the reference slice, not generator lateness.
        visible = None;
        window += 1;
        if submitted_at.len() as u64 == messages {
            break;
        }
        timed.lap();
    }
    let m = timed.end();
    let (user1, sys1) = host::cpu_user_sys();

    let span = tr.enter("io.session.close", rep_id);
    let close_began = Instant::now();
    let ((closed, close_s), listener, report, finished_at) = with_helper(listener, true, || {
        let closed = sess.close(Instant::now() + WALL_LIMIT);
        (closed, close_began.elapsed().as_secs_f64())
    })?;
    tr.exit(span);
    closed.map_err(|e| format!("close: {e}"))?;
    // `close` returned once the FIN was acknowledged; the helper served
    // on until the listener's TIME-WAIT ran out.
    let linger_s = finished_at
        .saturating_duration_since(close_began)
        .as_secs_f64()
        - close_s;

    let submitted = submitted_at.len() as u64;
    let mut errors = Vec::new();
    let failed = match &report {
        Some(report) => check_delivery(template, shape, base, submitted, report, &mut errors),
        None => {
            errors.push("listener finished no session".to_string());
            submitted
        }
    };
    if latency_us.len() as u64 != submitted {
        errors.push(format!(
            "{} completions for {submitted} submissions",
            latency_us.len()
        ));
    }
    // The per-message records hold raw clock readings; state them at
    // nominal host speed like every other time.
    for v in &mut latency_us {
        *v /= m.host_factor;
    }
    Ok(WireRun {
        rep: Rep {
            ops: latency_us.len() as u64,
            m,
        },
        bytes: latency_us.len() as u64 * shape.msg_len as u64,
        latency_us,
        done_ns,
        refusals,
        late_us_max: late_ns_max as f64 / 1e3,
        handshake_s,
        close_s,
        linger_s,
        user_s: user1 - user0,
        sys_s: sys1 - sys0,
        session: sess.registry().clone(),
        listener: listener.registry().clone(),
        peak_reasm_bytes: report.as_ref().map_or(0, |r| r.peak_reasm_bytes),
        content_digest: report
            .as_ref()
            .map_or(0, |r| payload::content_digest(&r.digests)),
        retransmissions: sess.core().stats.retransmissions,
        timeouts: sess.core().stats.timeouts,
        pkts_sent: sess.core().stats.pkts_sent,
        errors,
        submitted,
        failed,
    })
}

/// Exactly-once ledger and content digest of what the listener
/// delivered against what was submitted. Returns the messages that were
/// not delivered exactly once and intact.
fn check_delivery(
    template: &Template,
    shape: Shape,
    base: u64,
    submitted: u64,
    report: &SessionReport,
    errors: &mut Vec<String>,
) -> u64 {
    let len = shape.msg_len as u32;
    let expected: Vec<(u64, u32)> = (0..submitted).map(|k| (base + k, len)).collect();
    let mut failed = 0u64;
    if report.delivered != expected {
        let got: std::collections::BTreeMap<u64, u32> = report.delivered.iter().copied().collect();
        let missing = expected
            .iter()
            .filter(|(id, l)| got.get(id) != Some(l))
            .count() as u64;
        let extra = report.delivered.len() as u64 - got.len() as u64;
        errors.push(format!(
            "ledger: {missing} of {submitted} messages not delivered, {extra} delivered twice"
        ));
        failed = missing.max(extra);
    }
    let want: Vec<(u64, u32, u64)> = expected
        .iter()
        .map(|&(id, l)| (id, l, template.expected_digest(id)))
        .collect();
    let (got, want) = (
        payload::content_digest(&report.digests),
        payload::content_digest(&want),
    );
    if got != want {
        errors.push(format!(
            "content digest {got:016x} != closed form {want:016x} of the submitted set"
        ));
        failed = failed.max(1);
    }
    if report.goodput != submitted * len as u64 {
        errors.push(format!(
            "goodput {} bytes for {} submitted",
            report.goodput,
            submitted * len as u64
        ));
    }
    failed
}

/// One timed set-up: generate the input, bind, handshake. Starting the
/// helper thread that serves the listener meanwhile is not part of it.
/// Torn down again without waiting out the linger.
fn setup_once(cfg: &RunCfg, shape: Shape, meter: &mut HostMeter) -> Result<f64, String> {
    let mut off = Tracer::new(false, cfg.epoch);
    meter.take_factor();
    meter.tick();
    let t0 = Instant::now();
    let template = Template::generate(cfg.seed, shape.msg_len);
    let template_s = t0.elapsed().as_secs_f64();
    let Connected {
        mut sess,
        listener,
        bind_s,
        handshake_s,
    } = connect(&mut off, 0)?;
    meter.tick();
    let took = (template_s + bind_s + handshake_s) / meter.take_factor();
    drop(template);
    let (closed, _, _, _) =
        with_helper(listener, false, || sess.close(Instant::now() + WALL_LIMIT))?;
    closed.map_err(|e| format!("close: {e}"))?;
    Ok(took)
}

/// Run one of the wire workloads.
pub fn run(cfg: &RunCfg, shape: Shape) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut meter = HostMeter::new(cfg.workload.nominal_slice_us);
    let messages = if cfg.smoke {
        shape.messages.1
    } else {
        shape.messages.0
    };
    out.notes
        .set(
            "interface",
            "loopback (127.0.0.1); no real link was crossed",
        )
        .set("msg_len", shape.msg_len as u64)
        .set("outstanding", shape.outstanding as u64)
        .set("messages_per_session", messages);
    for _ in 0..SETUPS {
        out.setup_s.push(setup_once(cfg, shape, &mut meter)?);
    }
    let template = Template::generate(cfg.seed, shape.msg_len);
    let mut off = Tracer::new(false, cfg.epoch);

    let absorb = |out: &mut Outcome, run: &WireRun| {
        out.attempted += run.submitted;
        out.failed += run.failed;
        for e in &run.errors {
            out.fail(e.clone());
        }
    };
    let warm = repetition(
        shape,
        &template,
        (messages / WARMUP_SHARE).max(1),
        &mut meter,
        &mut off,
        0,
    )?;
    absorb(&mut out, &warm);
    drop(warm);

    measure(cfg, &mut out, |out| {
        let id = out.reps.len() as u64 + 1;
        let run = repetition(shape, &template, messages, &mut meter, &mut off, id)?;
        absorb(out, &run);
        if id == 1 {
            // Every session moves the same messages: one pin covers all.
            let digest = format!("{:016x}", run.content_digest);
            check_pin(cfg, out, cfg.workload.name, &digest, shape.pin);
            out.notes.set("content_digest", digest);
        }
        Ok(run.rep)
    })?;

    if cfg.trace {
        let mut tr = Tracer::new(true, cfg.epoch);
        let id = out.reps.len() as u64 + 1;
        let run = repetition(shape, &template, messages, &mut meter, &mut tr, id)?;
        absorb(&mut out, &run);
        let spans = tr.into_spans();
        let mut layers = Layers::default();
        session_layers(&mut layers, &run, &spans, &mut out);
        probes::wire(&mut layers, &mut meter, shape.msg_len);
        probes::telemetry(&mut layers, &mut meter);
        layers.set("trace_overhead_x", trace_overhead(&out.reps, &run.rep));
        out.layers = Some(layers);
        out.spans.push(("main", spans));
    }
    Ok(out)
}

fn session_layers(layers: &mut Layers, run: &WireRun, spans: &[Span], out: &mut Outcome) {
    let msgs = run.rep.ops as f64;
    let factor = run.rep.m.host_factor;
    let agg = aggregate(spans);
    let get = |n: &str| agg.get(n).copied().unwrap_or_default();
    // Span times at nominal host speed, as the end-to-end times are.
    let per_call = |a: Agg| a.self_ns_per_call() / factor;
    let busy = |a: Agg| a.self_s() / factor;
    let (try_send, poll, poll_once) = (
        get("io.session.try_send"),
        get("io.session.poll"),
        get("io.listener.poll_once"),
    );
    layers.set("io.session.try_send_ns", per_call(try_send));
    layers.set("io.session.poll_ns", per_call(poll));
    layers.set("io.session.poll_calls", poll.calls as f64);
    layers.set("io.session.busy_s", busy(try_send) + busy(poll));
    layers.set("io.session.handshake_s", run.handshake_s);
    layers.set("io.session.close_s", run.close_s);

    let s = &run.session;
    let (frames, dgrams) = (s.get(Metric::WireFramesTx), s.get(Metric::WireDatagramsTx));
    let (sends, recvs) = (
        s.get(Metric::WireSendBatches),
        s.get(Metric::WireRecvBatches),
    );
    layers.set("io.session.frames_tx", frames as f64);
    layers.set("io.session.datagrams_tx", dgrams as f64);
    layers.set("io.session.send_syscalls", sends as f64);
    layers.set("io.session.recv_syscalls", recvs as f64);
    layers.set(
        "io.session.frames_per_datagram",
        frames as f64 / dgrams.max(1) as f64,
    );
    layers.set(
        "io.session.datagrams_per_send_syscall",
        dgrams as f64 / sends.max(1) as f64,
    );
    let retx_ratio = run.retransmissions as f64 / run.pkts_sent.max(1) as f64;
    layers.set("io.session.retx_ratio", retx_ratio);
    layers.set("io.session.rto_fires", run.timeouts as f64);
    layers.set("io.session.backpressure_refusals", run.refusals as f64);
    layers.set("core.sender.pkts_sent", run.pkts_sent as f64);
    layers.set("core.sender.retransmissions", run.retransmissions as f64);
    layers.set("core.sender.timeouts", run.timeouts as f64);
    layers.set("core.sender.retx_ratio", retx_ratio);

    // Session age: completions in the last third of the timed region
    // over those in the first third.
    let span_ns = run.done_ns.last().copied().unwrap_or(0);
    let first = run.done_ns.iter().filter(|&&t| t < span_ns / 3).count();
    let last = run
        .done_ns
        .iter()
        .filter(|&&t| t >= span_ns / 3 * 2)
        .count();
    layers.set("io.session.age_decay_x", last as f64 / first.max(1) as f64);
    layers.set(
        "io.session.goodput_mbps",
        run.bytes as f64 * 8.0 / run.rep.m.wall_s / 1e6,
    );

    let mut sorted = run.latency_us.clone();
    sorted.sort_by(f64::total_cmp);
    layers.set("io.session.latency_p50_us", percentile(&sorted, 50.0));
    // A percentile without ten samples beyond it is not reported: 0.
    layers.set(
        "io.session.latency_p99_us",
        tail_percentile(&sorted, 99.0).unwrap_or(0.0),
    );
    layers.set(
        "io.session.latency_p999_us",
        tail_percentile(&sorted, 99.9).unwrap_or(0.0),
    );
    out.notes.set("latency_samples", sorted.len() as u64);
    if let Some((p, v)) = highest_supported(&sorted) {
        out.notes
            .set("latency_highest_percentile", p)
            .set("latency_highest_percentile_us", v);
    }

    let l = &run.listener;
    let (lsends, lrecvs) = (
        l.get(Metric::WireSendBatches),
        l.get(Metric::WireRecvBatches),
    );
    layers.set("io.listener.poll_once_ns", per_call(poll_once));
    layers.set("io.listener.busy_s", busy(poll_once));
    layers.set(
        "io.listener.datagrams_rx",
        l.get(Metric::WireDatagramsRx) as f64,
    );
    layers.set("io.listener.recv_syscalls", lrecvs as f64);
    layers.set("io.listener.send_syscalls", lsends as f64);
    layers.set(
        "io.listener.reasm_refused",
        l.get(Metric::SessionReasmRefused) as f64,
    );
    layers.set("io.listener.peak_reasm_bytes", run.peak_reasm_bytes as f64);
    layers.set("io.listener.linger_s", run.linger_s);

    // Counted syscalls: every send batch and every receive batch that
    // returned data, on both ends. Nothing blocks while the clock runs.
    let syscalls = (sends + recvs + lsends + lrecvs) as f64;
    layers.set("io.syscalls_per_mb", syscalls / (run.bytes as f64 / 1e6));
    layers.set("io.syscalls_per_msg", syscalls / msgs);
    layers.set("io.cpu.user_s", run.user_s);
    layers.set("io.cpu.sys_s", run.sys_s);
    layers.set(
        "io.cpu.ns_per_byte",
        run.rep.m.cpu_s * 1e9 / run.bytes as f64,
    );
    layers.set(
        "io.alloc.allocs_per_msg",
        run.rep.m.alloc.allocs as f64 / msgs,
    );
    layers.set(
        "io.alloc.bytes_per_msg",
        run.rep.m.alloc.allocated as f64 / msgs,
    );
    layers.set(
        "io.alloc.heap_kb_per_kmsg",
        run.rep.m.live_delta as f64 / 1024.0 / (msgs / 1e3),
    );
    layers.set("generator_late_us_max", run.late_us_max);
}
