//! The fault driver: applies a [`FaultSchedule`] to a running simulation
//! at exact virtual times.
//!
//! ## Determinism contract
//!
//! A fault scripted at time `t` is injected after *every* simulation
//! event with `time <= t` has been processed and before any later event
//! runs. The driver achieves this by interleaving `sim.run_until(t)`
//! with fault application, so the packet-level interleaving of faults
//! and traffic is a pure function of `(simulator seed, schedule)` — two
//! runs produce byte-identical traces, queues, and statistics.

use mtp_sim::time::Time;
use mtp_sim::{FaultEvent, Simulator};

use crate::schedule::FaultSchedule;

/// Replays a [`FaultSchedule`] against a [`Simulator`].
#[derive(Debug)]
pub struct FaultDriver {
    pending: Vec<FaultEvent>,
    /// Cursor into `pending` (already-applied prefix).
    next: usize,
}

impl FaultDriver {
    /// A driver for `schedule` (sorted on construction).
    pub fn new(schedule: FaultSchedule) -> FaultDriver {
        FaultDriver {
            pending: schedule.into_sorted(),
            next: 0,
        }
    }

    /// Number of faults not yet injected.
    pub fn remaining(&self) -> usize {
        self.pending.len() - self.next
    }

    /// Advance the simulation to `until`, injecting every scripted fault
    /// whose time has come at its exact instant. Returns `true` if
    /// simulation events remain.
    pub fn run_until(&mut self, sim: &mut Simulator, until: Time) -> bool {
        while self.next < self.pending.len() && self.pending[self.next].at <= until {
            let ev = self.pending[self.next];
            self.next += 1;
            sim.run_until(ev.at);
            ev.kind.apply(sim);
        }
        sim.run_until(until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtp_sim::packet::{Headers, Packet};
    use mtp_sim::time::{Bandwidth, Duration};
    use mtp_sim::{Ctx, DirLinkId, LinkFailMode, Node, PortId};

    /// Sends `n` packets at fixed intervals; counts what comes back.
    struct Metronome {
        n: u32,
        period: Duration,
        got: u32,
    }
    impl Node for Metronome {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for i in 0..self.n {
                ctx.set_timer(Duration(self.period.0 * i as u64), 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
            ctx.send(PortId(0), Packet::new(Headers::Raw, 1500));
        }
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: PortId, _: Packet) {
            self.got += 1;
        }
    }

    struct Echo;
    impl Node for Echo {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
            ctx.send(port, pkt);
        }
    }

    fn build() -> (Simulator, mtp_sim::NodeId, DirLinkId, DirLinkId) {
        let mut sim = Simulator::new(7);
        let m = sim.add_node(Box::new(Metronome {
            n: 10,
            period: Duration::from_micros(10),
            got: 0,
        }));
        let e = sim.add_node(Box::new(Echo));
        let (fwd, rev) = sim.connect_symmetric(
            m,
            PortId(0),
            e,
            PortId(0),
            Bandwidth::from_gbps(10),
            Duration::from_micros(1),
            64,
        );
        (sim, m, fwd, rev)
    }

    #[test]
    fn outage_window_swallows_exactly_the_scripted_span() {
        // 10 echoes at 10 us spacing; a cut over [24 us, 56 us) kills the
        // packets sent at 30, 40, 50 us and nothing else.
        let (mut sim, m, fwd, rev) = build();
        let mut sched = FaultSchedule::new();
        sched.cut_both(
            fwd,
            rev,
            Time::ZERO + Duration::from_micros(24),
            Time::ZERO + Duration::from_micros(56),
            LinkFailMode::Blackhole,
        );
        let mut drv = FaultDriver::new(sched);
        drv.run_until(&mut sim, Time::ZERO + Duration::from_millis(1));
        assert_eq!(sim.node_as::<Metronome>(m).got, 7);
        assert_eq!(drv.remaining(), 0);
    }

    #[test]
    fn replay_is_byte_identical() {
        let run = || {
            let (mut sim, m, fwd, rev) = build();
            let mut sched = FaultSchedule::new();
            sched.cut_both(
                fwd,
                rev,
                Time::ZERO + Duration::from_micros(24),
                Time::ZERO + Duration::from_micros(56),
                LinkFailMode::Blackhole,
            );
            let mut drv = FaultDriver::new(sched);
            drv.run_until(&mut sim, Time::ZERO + Duration::from_millis(1));
            (
                sim.node_as::<Metronome>(m).got,
                sim.events_processed(),
                sim.link_stats(fwd).faulted_pkts,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn faults_apply_after_coincident_events() {
        // A packet transmitted to arrive exactly at the cut instant is
        // delivered: events at `t` run before the fault at `t`.
        let (mut sim, m, fwd, rev) = build();
        // First send at t=0 arrives at 1 us (prop) + 1.2 us (tx) = 2.2 us.
        let arrival = Time::ZERO + Duration(2_200_000 + 1_200_000 + 1_000_000);
        let mut sched = FaultSchedule::new();
        sched.cut_both(fwd, rev, arrival, arrival, LinkFailMode::Blackhole);
        let mut drv = FaultDriver::new(sched);
        drv.run_until(&mut sim, arrival);
        assert_eq!(
            sim.node_as::<Metronome>(m).got,
            1,
            "the coincident echo landed before the cut"
        );
    }
}
