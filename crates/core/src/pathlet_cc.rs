//! Per-pathlet congestion control.
//!
//! MTP end-hosts do not keep one congestion window per flow; they keep one
//! [`PathletCc`] per `(pathlet, traffic class)` pair, driven by the
//! TLV-typed feedback the pathlet's switches stamp (paper §3.1.3). It is one
//! of two windows, stored inline in the pathlet table:
//!
//! * [`DctcpLikeCc`] — window-based, driven by per-pathlet ECN marks
//!   ([`Feedback::EcnMark`]) or an aggregated marking fraction
//!   ([`Feedback::EcnFraction`]) with DCTCP's `alpha` EWMA response
//!   ([`DctcpAlpha`], the estimate `mtp-tcp`'s DCTCP runs); every other
//!   TLV reads as "no congestion signal";
//! * [`PathletCc::Fixed`] — a constant window, for tests and ablations.
//!
//! All windows are in bytes and floored at one MTU so a pathlet can always
//! probe, and capped to keep pathological feedback from unbounding state.

use mtp_sim::DctcpAlpha;
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

/// A new DCTCP-like window: ten MTU-sized packets.
pub const INIT_WINDOW: u64 = 10 * WINDOW_FLOOR;

/// The congestion window of one `(pathlet, traffic class)` pair. A
/// sender's [`MtpConfig::cc`](crate::MtpConfig::cc) is the window every
/// new pathlet starts as.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathletCc {
    /// The DCTCP-like window.
    DctcpLike(DctcpLikeCc),
    /// A constant window of this many bytes, clamped to
    /// `WINDOW_FLOOR..=WINDOW_CAP`.
    Fixed(u64),
}

impl PathletCc {
    /// Bytes this pathlet currently admits in flight.
    #[inline]
    pub fn window(&self) -> u64 {
        match self {
            PathletCc::DctcpLike(cc) => cc.window(),
            PathletCc::Fixed(w) => (*w).clamp(WINDOW_FLOOR, WINDOW_CAP),
        }
    }

    /// An acknowledgement attributed `acked` bytes to this pathlet,
    /// carrying the pathlet's feedback entry (if the ACK echoed one).
    #[inline]
    pub fn on_ack(&mut self, acked: u64, fb: Option<&Feedback>) {
        if let PathletCc::DctcpLike(cc) = self {
            cc.on_ack(acked, fb);
        }
    }

    /// A loss (NACK or retransmission timeout) was attributed to this
    /// pathlet.
    #[inline]
    pub fn on_loss(&mut self) {
        if let PathletCc::DctcpLike(cc) = self {
            cc.on_loss();
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DctcpLikeCc {
    window: f64,
    ssthresh: f64,
    /// The marking-fraction EWMA over observation windows.
    alpha: DctcpAlpha,
    /// Bytes of data that must be acked before the next reduction.
    reduce_guard: f64,
    /// Remaining acked bytes until the alpha window closes.
    win_left: f64,
}

impl Default for DctcpLikeCc {
    fn default() -> Self {
        DctcpLikeCc::new()
    }
}

impl DctcpLikeCc {
    /// A controller starting with [`INIT_WINDOW`] bytes.
    pub const fn new() -> DctcpLikeCc {
        let w = INIT_WINDOW as f64;
        DctcpLikeCc {
            window: w,
            ssthresh: f64::INFINITY,
            alpha: DctcpAlpha::new(),
            reduce_guard: 0.0,
            win_left: w,
        }
    }

    /// Current alpha estimate.
    pub fn alpha(&self) -> f64 {
        self.alpha.alpha()
    }

    fn clamp(&mut self) {
        self.window = self.window.clamp(WINDOW_FLOOR as f64, WINDOW_CAP as f64);
    }

    /// Bytes this pathlet currently admits in flight.
    #[inline]
    pub fn window(&self) -> u64 {
        self.window as u64
    }

    /// See [`PathletCc::on_ack`].
    pub fn on_ack(&mut self, acked: u64, fb: Option<&Feedback>) {
        let acked = acked as f64;
        let (marked, marked_bytes) = match fb {
            Some(Feedback::EcnMark { ce: true }) => (true, acked),
            // Aggregated feedback: treat the fraction itself as the
            // marked share of these bytes.
            Some(Feedback::EcnFraction { fraction }) => {
                (false, acked * (*fraction as f64 / 65535.0))
            }
            _ => (false, 0.0),
        };
        self.alpha.record(acked, marked_bytes);

        if marked && self.reduce_guard <= 0.0 {
            self.window = self.alpha.cut(self.window);
            self.ssthresh = self.window;
            self.reduce_guard = self.window;
            self.clamp();
        } else {
            self.reduce_guard -= acked;
            // Growth: slow start below ssthresh, else additive increase.
            if self.window < self.ssthresh {
                self.window += acked;
            } else {
                self.window += WINDOW_FLOOR as f64 * acked / self.window;
            }
            self.clamp();
        }

        self.win_left -= acked;
        if self.win_left <= 0.0 {
            self.alpha.close();
            self.win_left = self.window;
        }
    }

    /// See [`PathletCc::on_loss`].
    pub fn on_loss(&mut self) {
        self.window /= 2.0;
        self.ssthresh = self.window;
        self.reduce_guard = self.window;
        self.clamp();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dctcp_like_grows_without_marks() {
        let mut cc = DctcpLikeCc::new();
        let before = cc.window();
        for _ in 0..10 {
            cc.on_ack(1500, Some(&Feedback::EcnMark { ce: false }));
        }
        assert!(cc.window() > before, "slow start growth");
    }

    #[test]
    fn dctcp_like_reduces_once_per_window() {
        let mut cc = DctcpLikeCc::new();
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
        let mut cc = DctcpLikeCc::new();
        // Ack a full window at a time so each call closes one observation
        // window: alpha multiplies by 15/16 per window.
        for _ in 0..50 {
            cc.on_ack(cc.window(), None);
        }
        assert!(cc.alpha() < 0.1, "alpha={}", cc.alpha());
    }

    #[test]
    fn dctcp_like_respects_floor() {
        let mut cc = DctcpLikeCc::new();
        for _ in 0..64 {
            cc.on_loss();
        }
        assert_eq!(cc.window(), WINDOW_FLOOR);
    }

    #[test]
    fn fixed_window_never_moves() {
        let mut cc = PathletCc::Fixed(30_000);
        cc.on_ack(1500, Some(&Feedback::EcnMark { ce: true }));
        cc.on_loss();
        assert_eq!(cc.window(), 30_000);
    }

    #[test]
    fn variants_run_their_windows() {
        let mut dctcp = PathletCc::DctcpLike(DctcpLikeCc::new());
        assert_eq!(dctcp.window(), INIT_WINDOW);
        assert_eq!(INIT_WINDOW, 15_000);
        dctcp.on_ack(1500, None);
        assert!(dctcp.window() > 15_000, "a DCTCP-like window grows");
        let mut fixed = PathletCc::Fixed(1);
        fixed.on_ack(1500, None);
        assert_eq!(fixed.window(), WINDOW_FLOOR, "a fixed window, floored");
        assert_eq!(
            PathletCc::Fixed(u64::MAX).window(),
            WINDOW_CAP,
            "and capped"
        );
    }
}
