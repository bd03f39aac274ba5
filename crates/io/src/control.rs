//! The session control machine: one per endpoint, on the caller's clock.
//!
//! It owns the HELLO and FIN retries (`handshake_rto` doubling to
//! `handshake_rto_max` plus seeded full jitter in `[0, rto/4]`, at most
//! [`HANDSHAKE_TRIES`] rounds), one PING per `keepalive_interval` of
//! feedback silence, idle death past `idle_timeout`, the listener's
//! TIME-WAIT, the session ids and the [`SessionState`] both roles share.
//! Like the endpoint cores it owns no socket and never reads a clock: it
//! is fed accepted control frames, data-plane feedback and time, and
//! answers with a frame to send, a typed failure, or a finished session.
//!
//! ```text
//! connector: CONNECTING ─HELLO-ACK→ ESTABLISHED ─close→ CLOSING ─FIN-ACK→ CLOSED
//!               │ BUSY, 8 HELLOs        │ silence > idle   │ 8 FINs, deadline, silence > idle
//!               └───────────────────────┴──────────────────┴────────────→ FAILED
//! listener:  CLOSED, FAILED ─HELLO→ ESTABLISHED ─FIN→ TIME-WAIT ─linger→ CLOSED
//!                                       └─ silence > idle → FAILED
//! ```

use mtp_core::PathHealth;
use mtp_sim::time::{Duration, Time};
use mtp_wire::{CtrlKind, SessionCtrl};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::clock::wall;
use crate::session::{SessionConfig, SessionError, SessionState, HANDSHAKE_TRIES};

/// How the machine took an accepted control frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Heard {
    /// Not its to take: count it in `session_ctrl_rejected`, answer nothing.
    Refused,
    /// The listener answers with this frame: a BUSY is a refusal (and
    /// counted as one), a HELLO-ACK may open the session.
    Answer(SessionCtrl),
    /// The connector is established.
    Established,
    /// Taken by the connector as proof of life.
    Taken,
}

/// What a due timer asks of the endpoint.
#[derive(Debug)]
pub(crate) enum Fired {
    /// Send this control frame.
    Send(SessionCtrl),
    /// The session failed; the machine is FAILED.
    Failed(SessionError),
    /// The listener's TIME-WAIT ran out: its session is over.
    Finished,
}

/// One endpoint's control machine.
#[derive(Debug)]
pub(crate) struct Control {
    cfg: SessionConfig,
    listener: bool,
    /// Session ids and retry jitter.
    rng: SmallRng,
    state: SessionState,
    /// The connector's session id and the listener's (0 until known).
    ids: (u64, u64),
    last_heard: Time,
    last_ping: Time,
    ping_seq: u32,
    /// HELLO and FIN rounds sent.
    rounds: (u32, u32),
    /// The current round's timeout before jitter.
    rto: Duration,
    /// When the current HELLO or FIN round ends unanswered, or TIME-WAIT.
    ends: Time,
    /// When the exchange began, and past when it begins no round.
    began: Time,
    deadline: Time,
    /// A BUSY named this connector: the next `on_timeout` fails it.
    busy: bool,
}

impl Control {
    /// A connector's machine, CONNECTING, its first HELLO due at `now`.
    pub(crate) fn connector(cfg: &SessionConfig, now: Time) -> Control {
        let mut c = Control::new(cfg, cfg.seed ^ 0x5E55_1011_C0FF_EE00, false);
        c.ids.0 = c.rng.next_u64() | 1;
        c.start(SessionState::Connecting, now, Time(u64::MAX));
        c
    }

    /// A listener's machine, holding no session.
    pub(crate) fn listener(cfg: &SessionConfig) -> Control {
        Control::new(cfg, cfg.seed ^ 0x0011_57EA_D1AC_CE97, true)
    }

    fn new(cfg: &SessionConfig, seed: u64, listener: bool) -> Control {
        Control {
            cfg: cfg.clone(),
            listener,
            rng: SmallRng::seed_from_u64(seed),
            state: SessionState::Closed,
            ids: (0, 0),
            last_heard: Time::ZERO,
            last_ping: Time::ZERO,
            ping_seq: 0,
            rounds: (0, 0),
            rto: cfg.handshake_rto,
            ends: Time::ZERO,
            began: Time::ZERO,
            deadline: Time::ZERO,
            busy: false,
        }
    }

    /// Start the HELLO (CONNECTING) or FIN (CLOSING) exchange: its first
    /// frame due at `now`, and no round begun once `deadline` has passed.
    fn start(&mut self, state: SessionState, now: Time, deadline: Time) {
        (self.state, self.rto) = (state, self.cfg.handshake_rto);
        (self.ends, self.began, self.deadline) = (now, now, deadline);
    }

    /// Start the FIN exchange.
    pub(crate) fn close(&mut self, now: Time, deadline: Time) {
        self.start(SessionState::Closing, now, deadline);
    }

    /// A frame of `kind` for this session, numbered `seq`, between the app
    /// ports in the direction this end sends.
    fn frame(&self, kind: CtrlKind, seq: u32) -> SessionCtrl {
        let mut ctrl = SessionCtrl::new(kind, self.ids.0, self.ids.1);
        let (client, server) = (self.cfg.client_port, self.cfg.server_port);
        (ctrl.src_port, ctrl.dst_port) = if self.listener {
            (server, client)
        } else {
            (client, server)
        };
        ctrl.seq = seq;
        ctrl
    }

    /// Feedback from the peer on the data plane: proof of life.
    pub(crate) fn heard(&mut self, now: Time) {
        self.last_heard = now;
    }

    /// Take a control frame that passed `accept_ctrl`, heard at `now`.
    pub(crate) fn on_frame(&mut self, now: Time, ctrl: &SessionCtrl) -> Heard {
        use CtrlKind::*;
        use SessionState::*;
        let held = matches!(self.state, Established | TimeWait);
        let heard = match (self.listener, ctrl.kind, self.state) {
            // HELLO, PING or FIN of the session held: a duplicate HELLO
            // (first HELLO-ACK lost, or a retry crossing it) is re-acked,
            // idempotently; a FIN starts TIME-WAIT, and a duplicate one is
            // re-acked from it.
            (true, Hello | Ping | Fin, _) if held && ctrl.session_id == self.ids.0 => {
                if ctrl.kind == Fin && self.state == Established {
                    (self.state, self.ends) = (TimeWait, now + self.cfg.linger);
                }
                let answer = match ctrl.kind {
                    Hello => HelloAck,
                    Ping => Pong,
                    _ => FinAck,
                };
                Heard::Answer(self.frame(answer, ctrl.seq))
            }
            (true, Hello, _) if !held => {
                (self.state, self.ids) = (Established, (ctrl.session_id, self.rng.next_u64() | 1));
                Heard::Answer(self.frame(HelloAck, ctrl.seq))
            }
            // Another connector (bounded state: no queue of half-open
            // peers) is told so, naming no session of this end's, while a
            // session is established; TIME-WAIT is silent, and its next
            // retry outwaits the linger.
            (true, Hello, Established) => {
                let mut busy = self.frame(Busy, ctrl.seq);
                (busy.session_id, busy.peer_session_id) = (ctrl.session_id, 0);
                return Heard::Answer(busy);
            }
            // The connector takes only frames naming its session, and
            // none once a BUSY has ended it.
            (false, ..) if ctrl.session_id != self.ids.0 || self.busy => return Heard::Refused,
            (false, HelloAck, Connecting) => {
                (self.state, self.ids.1, self.last_ping) = (Established, ctrl.peer_session_id, now);
                Heard::Established
            }
            (false, FinAck, Closing) => {
                self.state = Closed;
                Heard::Taken
            }
            (false, Busy, Connecting) => {
                self.busy = true;
                Heard::Taken
            }
            // A duplicate HELLO-ACK or FIN-ACK: stale but harmless, and
            // proof the peer is alive, like a PONG.
            (false, HelloAck | FinAck | Pong, _) => Heard::Taken,
            // The connector's own kinds, a BUSY after the handshake; the
            // listener's: a PING or FIN of a session not held (a FIN after
            // the linger: the closer's retries are bounded), the answers,
            // misdirected or reflected.
            _ => return Heard::Refused,
        };
        self.last_heard = now;
        heard
    }

    /// When `on_timeout` next has work; `None` once CLOSED or FAILED.
    pub(crate) fn poll_at(&self) -> Option<Time> {
        use SessionState::*;
        let ping = self.last_heard.max(self.last_ping) + self.cfg.keepalive_interval;
        let dead = self.last_heard + self.cfg.idle_timeout + Duration(1);
        match self.state {
            _ if self.busy => Some(Time::ZERO),
            Connecting | TimeWait => Some(self.ends),
            Established if self.listener => Some(dead),
            Established => Some(ping.min(dead)),
            Closing => Some(self.ends.min(ping).min(dead)),
            Closed | Failed => None,
        }
    }

    /// Serve one thing due by `now` — a BUSY, a PING, a death, the end of
    /// TIME-WAIT, the next HELLO or FIN round or the end of its retries —
    /// in that order; call it until it returns `None`.
    pub(crate) fn on_timeout(&mut self, now: Time) -> Option<Fired> {
        use SessionState::*;
        if self.poll_at()? > now {
            return None;
        }
        let (silence, ka) = (now.since(self.last_heard), self.cfg.keepalive_interval);
        let live = matches!(self.state, Established | Closing);
        if std::mem::take(&mut self.busy) {
            return Some(self.fail(SessionError::Busy));
        }
        if live && !self.listener && silence >= ka && now.since(self.last_ping) >= ka {
            (self.ping_seq, self.last_ping) = (self.ping_seq + 1, now);
            return Some(Fired::Send(self.frame(CtrlKind::Ping, self.ping_seq)));
        }
        if live && silence > self.cfg.idle_timeout {
            return Some(self.fail(SessionError::PeerDead {
                silence: wall(silence),
                pending: Vec::new(),
                path_health: PathHealth::default(),
            }));
        }
        if self.state == TimeWait {
            self.state = Closed;
            return Some(Fired::Finished);
        }
        // A round of the exchange ended unanswered.
        let (kind, round) = match self.state {
            Connecting => (CtrlKind::Hello, &mut self.rounds.0),
            _ => (CtrlKind::Fin, &mut self.rounds.1),
        };
        if *round == HANDSHAKE_TRIES || (*round > 0 && now >= self.deadline) {
            let (tries, elapsed) = (*round, wall(now.since(self.began)));
            return Some(self.fail(match kind {
                CtrlKind::Hello => SessionError::HandshakeTimeout { tries, elapsed },
                _ => SessionError::CloseTimeout {
                    tries,
                    outstanding: 0,
                },
            }));
        }
        if *round > 0 {
            self.rto = Duration((self.rto.0 * 2).min(self.cfg.handshake_rto_max.0));
        }
        *round += 1;
        let seq = *round - 1;
        // Full jitter on top of the deterministic floor: retries
        // de-synchronize instead of re-colliding with whatever loss
        // pattern ate the previous round.
        self.ends = now + self.rto + Duration(self.rng.gen_range(0..=self.rto.0 / 4));
        Some(Fired::Send(self.frame(kind, seq)))
    }

    fn fail(&mut self, e: SessionError) -> Fired {
        self.state = SessionState::Failed;
        Fired::Failed(e)
    }

    /// Where the session is.
    pub(crate) fn state(&self) -> SessionState {
        self.state
    }

    /// The connector's session id and the listener's (0 until known).
    pub(crate) fn ids(&self) -> (u64, u64) {
        self.ids
    }

    /// HELLO and FIN rounds sent.
    pub(crate) fn rounds(&self) -> (u32, u32) {
        self.rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use CtrlKind::*;
    use SessionState::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn at(n: u64) -> Time {
        Time::ZERO + ms(n)
    }

    /// A frame of `kind` naming `(session_id, peer_session_id)`.
    fn frame(kind: CtrlKind, (sid, peer): (u64, u64)) -> SessionCtrl {
        SessionCtrl::new(kind, sid, peer)
    }

    /// The kind and `seq` of the frame `fired` sends.
    fn sent(fired: Option<Fired>) -> Option<(CtrlKind, u32)> {
        match fired {
            Some(Fired::Send(f)) => Some((f.kind, f.seq)),
            _ => None,
        }
    }

    /// The kind the listener answers with.
    fn answer(heard: Heard) -> Option<CtrlKind> {
        match heard {
            Heard::Answer(f) => Some(f.kind),
            _ => None,
        }
    }

    /// Everything due by `now`, fired.
    fn fire(c: &mut Control, now: Time) -> Vec<Fired> {
        std::iter::from_fn(|| c.on_timeout(now)).collect()
    }

    /// A connector whose first HELLO left at 0 and was answered at `t`.
    fn established(t: Time) -> Control {
        let mut c = Control::connector(&SessionConfig::default(), Time::ZERO);
        assert_eq!(sent(c.on_timeout(Time::ZERO)), Some((Hello, 0)));
        let ack = frame(HelloAck, (c.ids().0, 0x5E));
        assert_eq!(c.on_frame(t, &ack), Heard::Established);
        assert_eq!((c.state(), c.ids().1), (Established, 0x5E));
        c
    }

    /// A listener holding the session of connector `client`, opened at `t`.
    fn holding(client: u64, t: Time) -> Control {
        let mut l = Control::listener(&SessionConfig::default());
        assert_eq!(l.poll_at(), None, "a listener holding nothing has no timer");
        let hello = frame(Hello, (client, 0));
        assert_eq!(answer(l.on_frame(t, &hello)), Some(HelloAck));
        assert_eq!((l.state(), l.ids().0), (Established, client));
        l
    }

    /// Serve `c`'s exchange of `kind` from `now`, its answer never coming
    /// (feedback keeps flowing, so no PING gets in): when each frame went
    /// out, and when and how `c` gave up.
    fn unanswered(c: &mut Control, kind: CtrlKind, mut now: Time) -> (Vec<Time>, Time, Fired) {
        let mut times: Vec<Time> = Vec::new();
        loop {
            c.heard(now);
            while let Some(fired) = c.on_timeout(now) {
                let Fired::Send(f) = fired else {
                    return (times, now, fired);
                };
                assert_eq!((f.kind, f.seq as usize), (kind, times.len()));
                assert!(times.last() < Some(&now), "two frames in one round");
                times.push(now);
            }
            now = c.poll_at().expect("an exchange in progress has a timer");
            let early = c.on_timeout(Time(now.0 - 1));
            assert!(early.is_none(), "a timer fired early");
        }
    }

    /// Each round from one of `times` to the next (the last to `end`) is
    /// its rto plus a jitter in `[0, rto/4]`.
    fn assert_rounds(times: &[Time], end: Time, rtos: &[u64]) {
        assert_eq!(times.len(), rtos.len());
        let mut jittered = 0;
        for ((&from, &to), &rto) in times.iter().zip(times[1..].iter().chain([&end])).zip(rtos) {
            let (round, rto) = (to.since(from), ms(rto));
            assert!(
                round >= rto && round.0 - rto.0 <= rto.0 / 4,
                "{round} for rto {rto}"
            );
            jittered += usize::from(round > rto);
        }
        assert!(jittered > 0, "no round drew any jitter");
    }

    const RTOS: [u64; 8] = [10, 20, 40, 80, 160, 160, 160, 160];

    #[test]
    fn the_hello_schedule_doubles_to_its_cap_then_times_out() {
        let mut c = Control::connector(&SessionConfig::default(), Time::ZERO);
        assert_eq!(
            c.poll_at(),
            Some(Time::ZERO),
            "the first HELLO is due at once"
        );
        let (times, end, fired) = unanswered(&mut c, Hello, Time::ZERO);
        assert_rounds(&times, end, &RTOS);
        match fired {
            Fired::Failed(SessionError::HandshakeTimeout { tries, elapsed }) => {
                assert_eq!(
                    (tries, elapsed),
                    (HANDSHAKE_TRIES, wall(end.since(Time::ZERO)))
                )
            }
            other => panic!("expected a handshake timeout, got {other:?}"),
        }
        assert_eq!((c.state(), c.poll_at(), c.rounds()), (Failed, None, (8, 0)));
    }

    #[test]
    fn the_fin_schedule_is_the_hello_s_and_a_deadline_cuts_it_short() {
        let mut c = established(at(1));
        c.close(at(5), Time(u64::MAX));
        assert_eq!((c.state(), c.poll_at()), (Closing, Some(at(5))));
        let (times, end, fired) = unanswered(&mut c, Fin, at(5));
        assert_rounds(&times, end, &RTOS);
        let timeout = |e: &SessionError| {
            matches!(
                e,
                SessionError::CloseTimeout {
                    tries: 8,
                    outstanding: 0
                }
            )
        };
        assert!(
            matches!(&fired, Fired::Failed(e) if timeout(e)),
            "{fired:?}"
        );
        assert_eq!((c.state(), c.rounds()), (Failed, (1, 8)));

        // No round begins once the deadline has passed: the first ends
        // before it (10-12.5 ms), the second after it.
        let mut c = established(at(1));
        c.close(at(5), at(5) + ms(25));
        let (times, _, fired) = unanswered(&mut c, Fin, at(5));
        assert_eq!(times.len(), 2);
        assert!(matches!(
            fired,
            Fired::Failed(SessionError::CloseTimeout { tries: 2, .. })
        ));

        // A FIN-ACK ends it cleanly, and with it every timer.
        let mut c = established(at(1));
        c.close(at(5), Time(u64::MAX));
        assert_eq!(sent(c.on_timeout(at(5))), Some((Fin, 0)));
        assert_eq!(c.on_frame(at(6), &frame(FinAck, c.ids())), Heard::Taken);
        assert_eq!((c.state(), c.poll_at()), (Closed, None));
    }

    #[test]
    fn every_frame_names_both_sessions_and_travels_between_the_app_ports() {
        let cfg = SessionConfig::default();
        let (client, server) = (cfg.client_port, cfg.server_port);
        let mut c = Control::connector(&cfg, Time::ZERO);
        let Some(Fired::Send(hello)) = c.on_timeout(Time::ZERO) else {
            panic!("no HELLO");
        };
        let sid = c.ids().0;
        assert_eq!(
            hello,
            SessionCtrl {
                src_port: client,
                dst_port: server,
                ..frame(Hello, (sid, 0))
            }
        );
        let mut l = Control::listener(&cfg);
        let Heard::Answer(ack) = l.on_frame(at(1), &hello) else {
            panic!("HELLO unanswered");
        };
        let ids = l.ids();
        assert_eq!(ids.0, sid);
        assert_eq!(
            ack,
            SessionCtrl {
                src_port: server,
                dst_port: client,
                ..frame(HelloAck, ids)
            }
        );
        assert_eq!(c.on_frame(at(2), &ack), Heard::Established);
        assert_eq!(c.ids(), ids, "both ends name the session alike");
        c.close(at(3), Time(u64::MAX));
        let Some(Fired::Send(fin)) = c.on_timeout(at(3)) else {
            panic!("no FIN");
        };
        assert_eq!(
            fin,
            SessionCtrl {
                src_port: client,
                dst_port: server,
                ..frame(Fin, ids)
            }
        );
        let Heard::Answer(fin_ack) = l.on_frame(at(4), &fin) else {
            panic!("FIN unanswered");
        };
        assert_eq!(
            fin_ack,
            SessionCtrl {
                src_port: server,
                dst_port: client,
                ..frame(FinAck, ids)
            }
        );
    }

    #[test]
    fn pings_probe_only_silence_one_per_interval() {
        let mut c = established(at(0));
        let mut pings = Vec::new();
        for t in 0..=400 {
            if t <= 200 && t % 10 == 0 {
                c.heard(at(t));
            }
            for fired in fire(&mut c, at(t)) {
                match sent(Some(fired)) {
                    Some((Ping, seq)) => pings.push((t, seq)),
                    other => panic!("{other:?} at {t} ms"),
                }
            }
        }
        assert_eq!(pings, [(250, 1), (300, 2), (350, 3), (400, 4)]);
    }

    #[test]
    fn a_peer_is_alive_at_exactly_the_idle_timeout_and_dead_a_picosecond_later() {
        let idle = SessionConfig::default().idle_timeout;
        let last = at(3);
        let mut c = established(last);
        let mut l = holding(7, last);
        for end in [&mut c, &mut l] {
            let fired = fire(end, last + idle);
            let pings = fired
                .iter()
                .all(|f| matches!(f, Fired::Send(p) if p.kind == Ping));
            assert!(pings, "{fired:?}");
            assert_eq!(end.poll_at(), Some(last + idle + Duration(1)));
            match end.on_timeout(last + idle + Duration(1)) {
                Some(Fired::Failed(SessionError::PeerDead { silence, .. })) => {
                    assert_eq!(silence, wall(idle + Duration(1)))
                }
                other => panic!("expected a peer death, got {other:?}"),
            }
            assert_eq!((end.state(), end.poll_at()), (Failed, None));
        }
    }

    #[test]
    fn time_wait_re_answers_duplicate_fins_until_the_linger_then_refuses_them() {
        let linger = SessionConfig::default().linger;
        let mut l = holding(7, at(0));
        let fin = frame(Fin, l.ids());
        assert_eq!(answer(l.on_frame(at(10), &fin)), Some(FinAck));
        assert_eq!((l.state(), l.poll_at()), (TimeWait, Some(at(10) + linger)));
        let last = Time((at(10) + linger).0 - 1);
        assert_eq!(answer(l.on_frame(last, &fin)), Some(FinAck));
        assert_eq!(
            l.poll_at(),
            Some(at(10) + linger),
            "a duplicate FIN restarts nothing"
        );
        assert!(l.on_timeout(last).is_none());
        assert!(matches!(
            l.on_timeout(at(10) + linger),
            Some(Fired::Finished)
        ));
        assert_eq!((l.state(), l.poll_at()), (Closed, None));
        assert_eq!(l.on_frame(at(10) + linger, &fin), Heard::Refused);
    }

    #[test]
    fn a_duplicate_hello_is_re_acked_with_the_same_server_sid() {
        let mut l = holding(7, at(0));
        let ids = l.ids();
        for t in [1, 2] {
            let Heard::Answer(ack) = l.on_frame(at(t), &frame(Hello, (7, 0))) else {
                panic!("a duplicate HELLO unanswered");
            };
            assert_eq!(
                (ack.kind, ack.session_id, ack.peer_session_id),
                (HelloAck, 7, ids.1)
            );
            assert_eq!(l.ids(), ids);
        }
        assert_eq!(answer(l.on_frame(at(3), &frame(Ping, ids))), Some(Pong));
    }

    #[test]
    fn another_connector_hears_busy_while_established_and_nothing_from_time_wait() {
        let mut l = holding(7, at(0));
        let ids = l.ids();
        let Heard::Answer(busy) = l.on_frame(at(1), &frame(Hello, (9, 0))) else {
            panic!("the second connector unanswered");
        };
        assert_eq!(
            (busy.kind, busy.session_id, busy.peer_session_id),
            (Busy, 9, 0)
        );
        assert_eq!(
            (l.state(), l.ids()),
            (Established, ids),
            "BUSY opened nothing"
        );
        assert_eq!(answer(l.on_frame(at(2), &frame(Fin, ids))), Some(FinAck));
        assert_eq!(l.on_frame(at(3), &frame(Hello, (9, 0))), Heard::Refused);
        let done = l.poll_at().expect("TIME-WAIT ends");
        assert!(matches!(l.on_timeout(done), Some(Fired::Finished)));
        // The retry after the linger opens a session of its own.
        assert_eq!(
            answer(l.on_frame(done, &frame(Hello, (9, 0)))),
            Some(HelloAck)
        );
        assert_eq!(l.ids().0, 9);
        assert_ne!(l.ids().1, ids.1);

        // The connector: BUSY naming it fails it at once; naming another
        // session, or after the handshake, it is refused.
        let mut c = Control::connector(&SessionConfig::default(), Time::ZERO);
        assert_eq!(sent(c.on_timeout(Time::ZERO)), Some((Hello, 0)));
        let sid = c.ids().0;
        assert_eq!(
            c.on_frame(at(1), &frame(Busy, (sid ^ 2, 0))),
            Heard::Refused
        );
        assert_eq!(c.on_frame(at(1), &frame(Busy, (sid, 0))), Heard::Taken);
        assert_eq!(c.poll_at(), Some(Time::ZERO), "due at once");
        let ack = frame(HelloAck, (sid, 0x5E));
        assert_eq!(c.on_frame(at(1), &ack), Heard::Refused, "BUSY ended it");
        assert!(matches!(
            c.on_timeout(at(1)),
            Some(Fired::Failed(SessionError::Busy))
        ));
        assert_eq!((c.state(), c.poll_at()), (Failed, None));
        let mut c = established(at(1));
        assert_eq!(
            c.on_frame(at(2), &frame(Busy, (c.ids().0, 0))),
            Heard::Refused
        );
        assert_eq!(c.state(), Established);
    }

    /// One step of a random interleaving.
    #[derive(Debug, Clone)]
    enum Op {
        /// Let time pass (microseconds), serving each timer at its instant.
        Advance(u64),
        /// A frame to the connector, naming its session or another.
        ToConnector(CtrlKind, bool),
        /// A frame to the listener from one of three connectors.
        ToListener(CtrlKind, u64),
        /// Data-plane feedback at both ends.
        Heard,
        /// The connector starts closing, with this long (µs) to do it.
        Close(u64),
    }

    const KINDS: [CtrlKind; 7] = [Hello, HelloAck, Fin, FinAck, Ping, Pong, Busy];

    fn op() -> impl Strategy<Value = Op> {
        let draws = (0..10u8, 0..400_000u64, 0..KINDS.len(), 0..5u64);
        draws.prop_map(|(arm, us, kind, pick)| match arm {
            0..=3 => Op::Advance(us / 2),
            // Four in five name the connector's own session.
            4 | 5 => Op::ToConnector(KINDS[kind], pick > 0),
            6 | 7 => Op::ToListener(KINDS[kind], 2 * (pick % 3) + 3),
            8 => Op::Heard,
            _ => Op::Close(us),
        })
    }

    /// The connector's side of what fired: every exit is typed.
    fn connector_fired(c: &Control, fired: Fired) {
        match fired {
            Fired::Send(f) => assert!(matches!(f.kind, Hello | Fin | Ping), "sent {f:?}"),
            Fired::Failed(
                SessionError::HandshakeTimeout { .. }
                | SessionError::CloseTimeout { .. }
                | SessionError::PeerDead { .. }
                | SessionError::Busy,
            ) => assert_eq!((c.state(), c.poll_at()), (Failed, None)),
            other => panic!("a connector fired {other:?}"),
        }
    }

    /// The listener's side: it never sends on its own, and each session it
    /// let go was one it held.
    fn listener_fired(l: &Control, fired: Fired, held: &mut usize) {
        match fired {
            Fired::Finished | Fired::Failed(SessionError::PeerDead { .. }) => *held -= 1,
            other => panic!("a listener fired {other:?}"),
        }
        assert_eq!(l.poll_at(), None);
    }

    proptest! {
        /// Under any interleaving of time and frames: a connector that has
        /// not ended always has a timer (nothing hangs), every way it ends
        /// is a typed error or a clean close, and the listener never holds
        /// more than one session. Ten idle seconds at the end reap both.
        #[test]
        fn any_interleaving_ends_typed_and_holds_at_most_one_session(
            ops in prop::collection::vec(op(), 1..120),
            seed in any::<u64>(),
        ) {
            let cfg = SessionConfig { seed, ..SessionConfig::default() };
            let mut c = Control::connector(&cfg, Time::ZERO);
            let mut l = Control::listener(&cfg);
            let (mut now, mut held) = (Time::ZERO, 0usize);
            for op in ops.into_iter().chain([Op::Advance(10_000_000)]) {
                match op {
                    Op::Advance(us) => {
                        let until = now + Duration::from_micros(us);
                        let next = |c: &Control, l: &Control| {
                            [c.poll_at(), l.poll_at()].into_iter().flatten().min()
                        };
                        while let Some(t) = next(&c, &l).filter(|&t| t <= until) {
                            now = now.max(t);
                            while let Some(f) = c.on_timeout(now) {
                                connector_fired(&c, f);
                            }
                            while let Some(f) = l.on_timeout(now) {
                                listener_fired(&l, f, &mut held);
                            }
                        }
                        now = until;
                    }
                    Op::ToConnector(kind, own) => {
                        let was = c.state();
                        let sid = if own { c.ids().0 } else { c.ids().0 ^ 2 };
                        let heard = c.on_frame(now, &frame(kind, (sid, 0x5E)));
                        prop_assert!(answer(heard.clone()).is_none(), "a connector answered");
                        let opened = was == Connecting && c.state() == Established;
                        prop_assert_eq!(heard == Heard::Established, opened);
                        // A frame ends a connector only with a FIN-ACK.
                        if c.state() == Closed {
                            prop_assert!(was == Closed || (was, kind) == (Closing, FinAck));
                        }
                        prop_assert!(c.state() != Failed || was == Failed);
                    }
                    Op::ToListener(kind, client) => {
                        let was = matches!(l.state(), Established | TimeWait);
                        let heard = l.on_frame(now, &frame(kind, (client, l.ids().1)));
                        if answer(heard) == Some(HelloAck) && !was {
                            held += 1;
                        }
                    }
                    Op::Heard => {
                        if matches!(c.state(), Established | Closing) {
                            c.heard(now);
                        }
                        if l.state() == Established {
                            l.heard(now);
                        }
                    }
                    Op::Close(us) => {
                        if c.state() == Established {
                            c.close(now, now + Duration::from_micros(us));
                        }
                    }
                }
                let live = matches!(c.state(), Connecting | Established | Closing);
                prop_assert_eq!(c.poll_at().is_some(), live, "connector {:?}", c.state());
                prop_assert!(held <= 1);
                prop_assert_eq!(held, usize::from(matches!(l.state(), Established | TimeWait)));
            }
            prop_assert!(matches!(c.state(), Closed | Failed), "{:?} after 10 idle s", c.state());
            prop_assert_eq!(held, 0, "a session outlived 10 idle s");
        }
    }
}
