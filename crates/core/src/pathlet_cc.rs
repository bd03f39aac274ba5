//! Per-pathlet congestion controllers.
//!
//! MTP end-hosts do not keep one congestion window per flow; they keep one
//! controller per `(pathlet, traffic class)` pair, driven by the TLV-typed
//! feedback the pathlet's switches stamp (paper §3.1.3). This module
//! provides the [`PathletCc`] trait and two controllers:
//!
//! * [`DctcpLikeCc`] — window-based, driven by per-pathlet ECN marks
//!   ([`Feedback::EcnMark`]) or an aggregated marking fraction
//!   ([`Feedback::EcnFraction`]) with DCTCP's `alpha` EWMA response; every
//!   other TLV reads as "no congestion signal";
//! * [`FixedWindowCc`] — a constant window, for tests and ablations.
//!
//! All windows are in bytes and floored at one MTU so a pathlet can always
//! probe, and capped to keep pathological feedback from unbounding state.

use mtp_wire::Feedback;

/// Dense index of an interned `(pathlet, traffic class)` pair within one
/// sender's [`PathletTable`](crate::pathlets::PathletTable).
///
/// The hot paths (per-ACK byte attribution, loss accounting, window
/// lookups on admission) address congestion state through this index with
/// a flat array access instead of hashing the `(PathletId, TrafficClass)`
/// tuple on every packet. Indices are assigned in interning order, are
/// stable for the lifetime of the table, and are meaningless across
/// senders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathIdx(pub u32);

/// Lower bound on any pathlet window: one MTU-sized packet.
pub const WINDOW_FLOOR: u64 = 1500;

/// Upper bound on any pathlet window (1 GiB — far above any experiment's
/// bandwidth-delay product, present only as a safety rail).
pub const WINDOW_CAP: u64 = 1 << 30;

/// A congestion controller for one `(pathlet, traffic class)` pair.
pub trait PathletCc: std::fmt::Debug {
    /// Bytes this pathlet currently admits in flight.
    fn window(&self) -> u64;

    /// An acknowledgement attributed `acked` bytes to this pathlet,
    /// carrying the pathlet's feedback entry (if the ACK echoed one).
    fn on_ack(&mut self, acked: u64, fb: Option<&Feedback>);

    /// A loss (NACK or retransmission timeout) was attributed to this
    /// pathlet.
    fn on_loss(&mut self);
}

/// Which controller family new pathlets get.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CcKind {
    /// [`DctcpLikeCc`] with the given initial window in bytes.
    DctcpLike {
        /// Initial window in bytes.
        init_window: u64,
    },
    /// [`FixedWindowCc`].
    Fixed {
        /// The constant window in bytes.
        window: u64,
    },
}

impl CcKind {
    /// A controller of this kind for a newly observed pathlet.
    pub fn build(self) -> Box<dyn PathletCc> {
        match self {
            CcKind::DctcpLike { init_window } => Box::new(DctcpLikeCc::new(init_window)),
            CcKind::Fixed { window } => Box::new(FixedWindowCc::new(window)),
        }
    }
}

/// DCTCP-style window evolution from per-pathlet ECN marks.
///
/// Slow start / congestion avoidance on unmarked bytes; an `alpha` EWMA of
/// the marked fraction, applied as `w *= 1 - alpha/2` at most once per
/// window of data. The crucial difference from the `mtp-tcp` DCTCP is the
/// *scope*: this window describes one pathlet, so when the network moves
/// traffic to a different pathlet the old state is preserved and the new
/// pathlet's state is already converged (paper §5.1 / Fig. 5).
#[derive(Debug)]
pub struct DctcpLikeCc {
    window: f64,
    ssthresh: f64,
    alpha: f64,
    /// Bytes acked / marked in the current observation window.
    win_acked: f64,
    win_marked: f64,
    /// Bytes of data that must be acked before the next reduction.
    reduce_guard: f64,
    /// Remaining acked bytes until the alpha window closes.
    win_left: f64,
    mtu: f64,
}

impl DctcpLikeCc {
    /// A controller starting with `init_window` bytes.
    pub fn new(init_window: u64) -> DctcpLikeCc {
        let w = init_window as f64;
        DctcpLikeCc {
            window: w,
            ssthresh: f64::INFINITY,
            alpha: 1.0,
            win_acked: 0.0,
            win_marked: 0.0,
            reduce_guard: 0.0,
            win_left: w,
            mtu: WINDOW_FLOOR as f64,
        }
    }

    /// Current alpha estimate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    fn clamp(&mut self) {
        self.window = self.window.clamp(WINDOW_FLOOR as f64, WINDOW_CAP as f64);
    }
}

impl PathletCc for DctcpLikeCc {
    fn window(&self) -> u64 {
        self.window as u64
    }

    fn on_ack(&mut self, acked: u64, fb: Option<&Feedback>) {
        let acked = acked as f64;
        let marked = match fb {
            Some(Feedback::EcnMark { ce }) => *ce,
            Some(Feedback::EcnFraction { fraction }) => {
                // Aggregated feedback: treat the fraction itself as the
                // marked share of these bytes.
                self.win_marked += acked * (*fraction as f64 / 65535.0);
                false
            }
            _ => false,
        };
        self.win_acked += acked;
        if marked {
            self.win_marked += acked;
        }

        if marked && self.reduce_guard <= 0.0 {
            self.window *= 1.0 - self.alpha / 2.0;
            self.ssthresh = self.window;
            self.reduce_guard = self.window;
            self.clamp();
        } else {
            self.reduce_guard -= acked;
            // Growth: slow start below ssthresh, else additive increase.
            if self.window < self.ssthresh {
                self.window += acked;
            } else {
                self.window += self.mtu * acked / self.window;
            }
            self.clamp();
        }

        self.win_left -= acked;
        if self.win_left <= 0.0 {
            if self.win_acked > 0.0 {
                let f = (self.win_marked / self.win_acked).clamp(0.0, 1.0);
                self.alpha = (1.0 - crate::DCTCP_G) * self.alpha + crate::DCTCP_G * f;
            }
            self.win_acked = 0.0;
            self.win_marked = 0.0;
            self.win_left = self.window;
        }
    }

    fn on_loss(&mut self) {
        self.window /= 2.0;
        self.ssthresh = self.window;
        self.reduce_guard = self.window;
        self.clamp();
    }
}

/// A constant window, for unit tests and ablations.
#[derive(Debug)]
pub struct FixedWindowCc {
    window: u64,
}

impl FixedWindowCc {
    /// A controller pinned at `window` bytes.
    pub fn new(window: u64) -> FixedWindowCc {
        FixedWindowCc {
            window: window.clamp(WINDOW_FLOOR, WINDOW_CAP),
        }
    }
}

impl PathletCc for FixedWindowCc {
    fn window(&self) -> u64 {
        self.window
    }

    fn on_ack(&mut self, _: u64, _: Option<&Feedback>) {}

    fn on_loss(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dctcp_like_grows_without_marks() {
        let mut cc = DctcpLikeCc::new(15_000);
        let before = cc.window();
        for _ in 0..10 {
            cc.on_ack(1500, Some(&Feedback::EcnMark { ce: false }));
        }
        assert!(cc.window() > before, "slow start growth");
    }

    #[test]
    fn dctcp_like_reduces_once_per_window() {
        let mut cc = DctcpLikeCc::new(15_000);
        cc.on_ack(1500, Some(&Feedback::EcnMark { ce: true }));
        let after_first = cc.window();
        assert!(after_first < 15_000, "alpha=1 initially => halving");
        // More marks inside the guard window do not reduce again (they grow
        // or hold).
        cc.on_ack(1500, Some(&Feedback::EcnMark { ce: true }));
        assert!(cc.window() >= after_first);
    }

    #[test]
    fn dctcp_like_alpha_decays_when_unmarked() {
        let mut cc = DctcpLikeCc::new(15_000);
        // Ack a full window at a time so each call closes one observation
        // window: alpha multiplies by 15/16 per window.
        for _ in 0..50 {
            cc.on_ack(cc.window(), None);
        }
        assert!(cc.alpha() < 0.1, "alpha={}", cc.alpha());
    }

    #[test]
    fn dctcp_like_respects_floor() {
        let mut cc = DctcpLikeCc::new(3000);
        for _ in 0..64 {
            cc.on_loss();
        }
        assert_eq!(cc.window(), WINDOW_FLOOR);
    }

    #[test]
    fn fixed_window_never_moves() {
        let mut cc = FixedWindowCc::new(30_000);
        cc.on_ack(1500, Some(&Feedback::EcnMark { ce: true }));
        cc.on_loss();
        assert_eq!(cc.window(), 30_000);
    }

    #[test]
    fn kinds_build_their_controllers() {
        let mut dctcp = CcKind::DctcpLike {
            init_window: 15_000,
        }
        .build();
        assert_eq!(dctcp.window(), 15_000);
        dctcp.on_ack(1500, None);
        assert!(dctcp.window() > 15_000, "a DCTCP-like window grows");
        let mut fixed = CcKind::Fixed { window: 1 }.build();
        fixed.on_ack(1500, None);
        assert_eq!(fixed.window(), WINDOW_FLOOR, "a fixed window, floored");
    }
}
