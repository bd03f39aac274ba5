//! The fault vocabulary: every scripted disturbance a [`Simulator`]
//! accepts, as plain data.
//!
//! A [`FaultKind`] names one of the engine's fault methods
//! ([`Simulator::fail_link`], [`Simulator::bitflip_burst`],
//! [`Simulator::crash_node`], …) with its arguments, and a [`FaultEvent`]
//! pins it to a virtual time. Both the serial fault driver (`mtp-faults`)
//! and the sharded runtime ([`crate::ShardedSimulator::schedule_admin`])
//! replay the same events through the one [`FaultKind::apply`], so a
//! script means the same thing on either engine.

use crate::engine::{DirLinkId, LinkFailMode, Simulator};
use crate::node::NodeId;
use crate::time::{Bandwidth, Duration, Time};

/// One scripted fault (or repair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Take a link direction down. [`LinkFailMode::Blackhole`] destroys the
    /// queue and the in-flight packet; [`LinkFailMode::Drain`] finishes
    /// what was already accepted but refuses new offers.
    LinkDown {
        /// The affected link direction.
        link: DirLinkId,
        /// Whether queued packets die or drain.
        mode: LinkFailMode,
    },
    /// Bring a link direction back up.
    LinkUp {
        /// The affected link direction.
        link: DirLinkId,
    },
    /// Change a link direction's rate (applies to future transmissions).
    LinkRate {
        /// The affected link direction.
        link: DirLinkId,
        /// The new rate.
        rate: Bandwidth,
    },
    /// Change a link direction's propagation delay. The sharded runtime
    /// refuses this one: a delay below its lookahead would break the
    /// epoch-safety argument.
    LinkDelay {
        /// The affected link direction.
        link: DirLinkId,
        /// The new one-way delay.
        delay: Duration,
    },
    /// Flip `flips` random bits in each of the next `pkts` corruptible
    /// packets on a link direction and **deliver the damaged frames**.
    /// Receivers must detect and reject them via wire integrity checks.
    BitflipBurst {
        /// The affected link direction.
        link: DirLinkId,
        /// How many future corruptible offers to damage.
        pkts: u32,
        /// Bits flipped per packet (keep `<= 3` for guaranteed
        /// header-CRC detection, i.e. exact corruption accounting).
        flips: u8,
        /// Seed for the per-link damage RNG (replays byte-identically).
        seed: u64,
    },
    /// Truncate each of the next `pkts` corruptible packets on a link
    /// direction at a random cut and deliver the shortened frame.
    TruncateBurst {
        /// The affected link direction.
        link: DirLinkId,
        /// How many future corruptible offers to truncate.
        pkts: u32,
        /// Seed for the per-link cut-point RNG.
        seed: u64,
    },
    /// Arm a steady-state bit-flip rate on a link direction: each
    /// corruptible packet is damaged independently with probability
    /// `ppm` per million. `ppm = 0` disarms.
    CorruptRate {
        /// The affected link direction.
        link: DirLinkId,
        /// Corruption probability in packets per million.
        ppm: u32,
        /// Bits flipped per selected packet.
        flips: u8,
        /// Seed for the per-link selection/damage RNG.
        seed: u64,
    },
    /// Crash a node: volatile state reset via its fault hook, pending
    /// deliveries destroyed, timers swallowed, egress flushed.
    NodeCrash {
        /// The crashed node.
        node: NodeId,
    },
    /// Restart a crashed node (its fault hook re-arms timers).
    NodeRestart {
        /// The restarted node.
        node: NodeId,
    },
}

impl FaultKind {
    /// Inject this fault into `sim`, reading the ids as `sim`'s own.
    pub fn apply(&self, sim: &mut Simulator) {
        match *self {
            FaultKind::LinkDown { link, mode } => sim.fail_link(link, mode),
            FaultKind::LinkUp { link } => sim.restore_link(link),
            FaultKind::LinkRate { link, rate } => sim.set_link_rate(link, rate),
            FaultKind::LinkDelay { link, delay } => sim.set_link_delay(link, delay),
            FaultKind::BitflipBurst {
                link,
                pkts,
                flips,
                seed,
            } => sim.bitflip_burst(link, pkts, flips, seed),
            FaultKind::TruncateBurst { link, pkts, seed } => sim.truncate_burst(link, pkts, seed),
            FaultKind::CorruptRate {
                link,
                ppm,
                flips,
                seed,
            } => sim.set_corrupt_rate(link, ppm, flips, seed),
            FaultKind::NodeCrash { node } => sim.crash_node(node),
            FaultKind::NodeRestart { node } => sim.restart_node(node),
        }
    }
}

/// A fault at a point in virtual time. Whoever replays it processes every
/// simulation event at or before `at` first, then injects the fault;
/// events at equal times apply in the order they were scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault applies.
    pub at: Time,
    /// What happens.
    pub kind: FaultKind,
}
