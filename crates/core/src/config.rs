//! MTP endpoint configuration.

use mtp_sim::time::Duration;

use crate::pathlet_cc::{DctcpLikeCc, PathletCc};

/// How long a congested pathlet stays on the advertised exclude list.
/// A pathlet is excluded when its window is driven to the floor by loss —
/// the end-host-to-network half of pathlet congestion control (paper
/// §3.1.3: "end-hosts provide feedback to the network about the pathlets
/// that should not be used").
pub const EXCLUDE_COOLDOWN: Duration = Duration::from_micros(500);
/// Consecutive loss attributions that declare a pathlet dead.
pub const DEAD_AFTER_LOSSES: u32 = 2;
/// A pathlet carrying in-flight bytes that produces no feedback for
/// this many RTOs is declared dead (feedback silence).
pub const SILENCE_RTOS: u32 = 3;
/// First quarantine duration; doubles on each successive declaration
/// (exponential-backoff re-probe).
pub const PROBE_BACKOFF: Duration = Duration::from_micros(500);
/// Quarantine duration cap.
pub const MAX_BACKOFF: Duration = Duration::from_micros(8_000);

/// Configuration for MTP senders and receivers.
#[derive(Debug, Clone)]
pub struct MtpConfig {
    /// Maximum payload bytes per packet.
    pub mtu_payload: u32,
    /// The controller every newly observed pathlet starts as.
    pub cc: PathletCc,
    /// Lower bound on the retransmission timeout.
    pub min_rto: Duration,
    /// Dead-pathlet detection, quarantine and failover (paper §3–4:
    /// endpoints route *around* failed network elements mid-flight). Off
    /// by default so clean-topology experiments keep their exact packet
    /// schedules; failure studies opt in with
    /// [`MtpConfig::with_failover`].
    pub failover: bool,
}

impl Default for MtpConfig {
    fn default() -> Self {
        MtpConfig {
            mtu_payload: 1460,
            cc: PathletCc::DctcpLike(DctcpLikeCc::new()),
            min_rto: Duration::from_micros(200),
            failover: false,
        }
    }
}

impl MtpConfig {
    /// Enable dead-pathlet detection and failover.
    pub fn with_failover(mut self) -> MtpConfig {
        self.failover = true;
        self
    }
}
