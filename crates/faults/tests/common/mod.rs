//! The failure-study diamond as every test in this directory builds it:
//! [`parallel_paths`] with two equal default paths and ACKs sprayed back,
//! so a single-path cut never silences the reverse channel.

use mtp_core::{MtpConfig, ScheduledMsg};
use mtp_faults::{
    mtp_pair, parallel_paths, LinkSpec, ParallelPaths, ParallelSpec, PATHLET_A, PATHLET_B,
};
use mtp_net::Strategy;
use mtp_sim::time::Duration;

/// The diamond's network, with `forward` as sw1's fan-out.
pub fn diamond_spec(forward: Strategy) -> ParallelSpec {
    ParallelSpec {
        a: LinkSpec::path_default(),
        b: LinkSpec::path_default(),
        host: LinkSpec::host_default(),
        forward,
        reverse: Strategy::Spray { next: 0 },
        b_pathlet: PATHLET_B,
    }
}

/// A failover-enabled MTP sender submitting `schedule` across the diamond:
/// sw1 runs the message-aware balancer (which honors the sender's pathlet
/// exclusions), and the sink repeats SACK blocks in 8 ACKs so the sprayed
/// ACKs that survive a reverse cut cover for the ones that do not.
pub fn mtp_diamond(seed: u64, schedule: Vec<ScheduledMsg>) -> ParallelPaths {
    parallel_paths(
        seed,
        mtp_pair(
            MtpConfig::default().with_failover(),
            schedule,
            Duration::from_micros(100),
            8,
        ),
        diamond_spec(Strategy::mtp_lb(2, vec![Some(PATHLET_A), Some(PATHLET_B)])),
    )
}
