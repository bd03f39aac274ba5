//! Scripted fault schedules.
//!
//! A [`FaultSchedule`] is a plain sorted list of [`FaultEvent`]s — *what*
//! breaks and *when*, in `mtp-sim`'s one fault vocabulary. It is data, not
//! behaviour: applying a schedule to a running simulation is the
//! [`driver`](crate::driver)'s job (or, for a sharded run,
//! [`mtp_sim::ShardedSimulator::schedule_admin`]'s). Keeping the
//! two separate makes a failure experiment reproducible by construction:
//! the schedule is built once from constants, and the driver applies each
//! event at an exact virtual time, so the same `(seed, schedule)` pair
//! always yields the same packet-level execution.

use mtp_sim::time::{Bandwidth, Duration, Time};
use mtp_sim::{DirLinkId, FaultEvent, FaultKind, LinkFailMode, NodeId};

/// An ordered script of faults. Events are kept sorted by time; ties
/// apply in insertion order (the sort is stable), so a schedule built
/// from deterministic inputs replays identically.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Append an arbitrary fault event.
    pub fn push(&mut self, at: Time, kind: FaultKind) -> &mut Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Take one link direction down at `at`.
    pub fn link_down(&mut self, at: Time, link: DirLinkId, mode: LinkFailMode) -> &mut Self {
        self.push(at, FaultKind::LinkDown { link, mode })
    }

    /// Bring one link direction back up at `at`.
    pub fn link_up(&mut self, at: Time, link: DirLinkId) -> &mut Self {
        self.push(at, FaultKind::LinkUp { link })
    }

    /// Cut both directions of a link at `down`, restore both at `up`.
    /// This is the canonical "cable pull" fault.
    pub fn cut_both(
        &mut self,
        fwd: DirLinkId,
        rev: DirLinkId,
        down: Time,
        up: Time,
        mode: LinkFailMode,
    ) -> &mut Self {
        self.link_down(down, fwd, mode)
            .link_down(down, rev, mode)
            .link_up(up, fwd)
            .link_up(up, rev)
    }

    /// Flap both directions of a link: `cycles` repetitions of
    /// (`down_for` dead, `up_for` alive), starting at `from`.
    #[allow(clippy::too_many_arguments)] // a flap is naturally 6 knobs
    pub fn flap(
        &mut self,
        fwd: DirLinkId,
        rev: DirLinkId,
        from: Time,
        down_for: Duration,
        up_for: Duration,
        cycles: u32,
        mode: LinkFailMode,
    ) -> &mut Self {
        let mut t = from;
        for _ in 0..cycles {
            self.cut_both(fwd, rev, t, t + down_for, mode);
            t = t + down_for + up_for;
        }
        self
    }

    /// Degrade a link direction's rate and delay at `at`.
    pub fn degrade(
        &mut self,
        at: Time,
        link: DirLinkId,
        rate: Bandwidth,
        delay: Duration,
    ) -> &mut Self {
        self.push(at, FaultKind::LinkRate { link, rate })
            .push(at, FaultKind::LinkDelay { link, delay })
    }

    /// Flip `flips` bits in each of the next `pkts` corruptible packets
    /// on a link direction, starting at `at`, delivering the damage.
    pub fn bitflip_burst(
        &mut self,
        at: Time,
        link: DirLinkId,
        pkts: u32,
        flips: u8,
        seed: u64,
    ) -> &mut Self {
        self.push(
            at,
            FaultKind::BitflipBurst {
                link,
                pkts,
                flips,
                seed,
            },
        )
    }

    /// Truncate each of the next `pkts` corruptible packets on a link
    /// direction, starting at `at`, delivering the shortened frames.
    pub fn truncate_burst(&mut self, at: Time, link: DirLinkId, pkts: u32, seed: u64) -> &mut Self {
        self.push(at, FaultKind::TruncateBurst { link, pkts, seed })
    }

    /// Arm (or with `ppm = 0` disarm) a steady-state corruption rate on a
    /// link direction at `at`.
    pub fn corrupt_rate(
        &mut self,
        at: Time,
        link: DirLinkId,
        ppm: u32,
        flips: u8,
        seed: u64,
    ) -> &mut Self {
        self.push(
            at,
            FaultKind::CorruptRate {
                link,
                ppm,
                flips,
                seed,
            },
        )
    }

    /// Crash a node at `down` and restart it at `up`.
    pub fn crash_restart(&mut self, node: NodeId, down: Time, up: Time) -> &mut Self {
        self.push(down, FaultKind::NodeCrash { node })
            .push(up, FaultKind::NodeRestart { node })
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scripted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events, sorted by time (stable: same-time events keep insertion
    /// order).
    pub fn into_sorted(mut self) -> Vec<FaultEvent> {
        self.events.sort_by_key(|e| e.at);
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_is_stable_for_ties() {
        let mut s = FaultSchedule::new();
        let t = Time::ZERO + Duration::from_micros(5);
        s.link_down(t, DirLinkId(0), LinkFailMode::Blackhole);
        s.link_down(t, DirLinkId(1), LinkFailMode::Blackhole);
        s.link_down(Time::ZERO, DirLinkId(2), LinkFailMode::Drain);
        let ev = s.into_sorted();
        assert!(matches!(ev[0].kind, FaultKind::LinkDown { link, .. } if link == DirLinkId(2)));
        assert!(matches!(ev[1].kind, FaultKind::LinkDown { link, .. } if link == DirLinkId(0)));
        assert!(matches!(ev[2].kind, FaultKind::LinkDown { link, .. } if link == DirLinkId(1)));
    }

    #[test]
    fn flap_expands_to_paired_cuts() {
        let mut s = FaultSchedule::new();
        s.flap(
            DirLinkId(0),
            DirLinkId(1),
            Time::ZERO,
            Duration::from_micros(100),
            Duration::from_micros(300),
            3,
            LinkFailMode::Blackhole,
        );
        let ev = s.into_sorted();
        assert_eq!(ev.len(), 12, "3 cycles x (2 down + 2 up)");
        assert_eq!(ev.last().expect("events").at, {
            // Third cycle starts at 800 us and is down for 100 us.
            Time::ZERO + Duration::from_micros(900)
        });
    }
}
