//! Stream congestion control: NewReno and DCTCP window evolution.
//!
//! Both variants share the slow-start / congestion-avoidance skeleton; they
//! differ in how they respond to ECN:
//!
//! * NewReno treats an ECE-carrying ACK like a loss signal — one
//!   multiplicative halving per window.
//! * DCTCP tracks the fraction `F` of acknowledged bytes that were marked
//!   during each window, maintains `alpha <- (1-g) alpha + g F` with
//!   `g = 1/16`, and scales the window by `1 - alpha/2` once per window —
//!   gentle under mild congestion, aggressive under heavy congestion. The
//!   estimate and the cut are [`DctcpAlpha`], which MTP's pathlet window
//!   runs too.
//!
//! This module deliberately keeps a **single window for the whole
//! connection**: that is TCP's design, and it is exactly what the paper's
//! Fig. 5 exploits — when the network moves a flow between a 100 Gbps and a
//! 10 Gbps path, this one window is wrong for the new path and must
//! re-converge. MTP's per-pathlet windows (in `mtp-core`) avoid that.

use mtp_sim::DctcpAlpha;

/// Which congestion-control law a connection runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcVariant {
    /// Loss-based AIMD with classic-ECN response.
    NewReno,
    /// DCTCP: ECN-fraction proportional response.
    Dctcp,
}

/// Per-connection congestion state.
#[derive(Debug, Clone)]
pub struct TcpCc {
    variant: CcVariant,
    mss: f64,
    cwnd: f64,
    ssthresh: f64,
    /// DCTCP marking-fraction EWMA over observation windows.
    alpha: DctcpAlpha,
    /// Sequence number that closes the current alpha-observation window.
    window_end: u64,
    /// No ECN-driven reduction may occur until `snd_una` passes this —
    /// enforces the "once per window of data" rule.
    next_reduction: u64,
}

impl TcpCc {
    /// Fresh state with an initial window of `init_pkts` segments.
    pub fn new(variant: CcVariant, mss: u32, init_pkts: u32) -> TcpCc {
        let mss = mss as f64;
        TcpCc {
            variant,
            mss,
            cwnd: mss * init_pkts as f64,
            ssthresh: f64::INFINITY,
            alpha: DctcpAlpha::new(),
            window_end: 0,
            next_reduction: 0,
        }
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    /// DCTCP's current `alpha` estimate (1.0 until the first window ends).
    pub fn alpha(&self) -> f64 {
        self.alpha.alpha()
    }

    /// True while in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Process `acked` newly acknowledged bytes whose ACK carried
    /// `ece`; `snd_una`/`snd_nxt` delimit the window-boundary bookkeeping,
    /// `in_recovery` suppresses growth during loss recovery.
    pub fn on_ack(&mut self, acked: u64, ece: bool, snd_una: u64, snd_nxt: u64, in_recovery: bool) {
        let acked_f = acked as f64;
        self.alpha.record(acked_f, if ece { acked_f } else { 0.0 });

        let may_reduce = ece && snd_una >= self.next_reduction;
        match self.variant {
            CcVariant::NewReno => {
                if may_reduce {
                    // Classic ECN: one halving per window, no growth on this ACK.
                    self.ssthresh = (self.cwnd / 2.0).max(2.0 * self.mss);
                    self.cwnd = self.ssthresh;
                    self.next_reduction = snd_nxt;
                    return;
                }
            }
            CcVariant::Dctcp => {
                if may_reduce {
                    // DCTCP reduces once per window, proportionally to alpha.
                    self.cwnd = self.alpha.cut(self.cwnd).max(2.0 * self.mss);
                    self.ssthresh = self.cwnd;
                    self.next_reduction = snd_nxt;
                }
            }
        }

        if snd_una >= self.window_end {
            // NewReno never reads alpha, so its windows may fold too.
            self.alpha.close();
            self.window_end = snd_nxt;
        }

        if in_recovery {
            return;
        }
        if self.in_slow_start() {
            self.cwnd += acked_f;
        } else {
            self.cwnd += self.mss * acked_f / self.cwnd;
        }
    }

    /// Enter fast recovery after triple duplicate ACKs. Returns the new
    /// ssthresh in bytes.
    pub fn on_fast_retransmit(&mut self) -> u64 {
        self.ssthresh = (self.cwnd / 2.0).max(2.0 * self.mss);
        // NewReno inflates by 3 MSS for the three dup-acked segments.
        self.cwnd = self.ssthresh + 3.0 * self.mss;
        self.ssthresh as u64
    }

    /// A duplicate ACK beyond the third inflates the window by one MSS.
    pub fn on_dup_ack_inflation(&mut self) {
        self.cwnd += self.mss;
    }

    /// Deflate to ssthresh when leaving fast recovery.
    pub fn on_recovery_exit(&mut self) {
        self.cwnd = self.ssthresh.max(2.0 * self.mss);
    }

    /// Collapse after a retransmission timeout.
    pub fn on_timeout(&mut self, flight: u64) {
        self.ssthresh = ((flight as f64) / 2.0).max(2.0 * self.mss);
        self.cwnd = self.mss;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1460;

    fn cc(variant: CcVariant) -> TcpCc {
        TcpCc::new(variant, MSS, 10)
    }

    #[test]
    fn slow_start_doubles_per_window() {
        let mut c = cc(CcVariant::NewReno);
        let start = c.cwnd();
        // Ack a full window's worth of bytes: cwnd should double.
        c.on_ack(start, false, start, 2 * start, false);
        assert_eq!(c.cwnd(), 2 * start);
    }

    #[test]
    fn congestion_avoidance_grows_one_mss_per_rtt() {
        let mut c = cc(CcVariant::NewReno);
        c.on_fast_retransmit();
        c.on_recovery_exit();
        let w = c.cwnd();
        assert!(!c.in_slow_start());
        // Ack one window in MSS chunks: growth ~ 1 MSS.
        let mut acked = 0;
        while acked < w {
            c.on_ack(MSS as u64, false, acked, w, false);
            acked += MSS as u64;
        }
        let grown = c.cwnd() - w;
        assert!(
            grown >= (MSS as u64) * 9 / 10 && grown <= (MSS as u64) * 13 / 10,
            "grew {grown} bytes"
        );
    }

    #[test]
    fn newreno_halves_once_per_window_on_ece() {
        let mut c = cc(CcVariant::NewReno);
        let w = c.cwnd();
        c.on_ack(MSS as u64, true, 0, w, false);
        assert_eq!(c.cwnd(), w / 2);
        // Second ECE in the same window: no further reduction.
        c.on_ack(MSS as u64, true, MSS as u64, w, false);
        assert!(c.cwnd() >= w / 2);
    }

    #[test]
    fn dctcp_full_marking_converges_alpha_to_one_and_halves() {
        let mut c = cc(CcVariant::Dctcp);
        // Every ACK marked across many windows: alpha stays ~1, each window
        // halves the window like Reno under persistent congestion.
        let before = c.cwnd();
        let mut una = 0u64;
        for _ in 0..8 {
            let w = c.cwnd();
            let mut acked_in_window = 0;
            while acked_in_window < w {
                c.on_ack(MSS as u64, true, una, una + w, false);
                una += MSS as u64;
                acked_in_window += MSS as u64;
            }
        }
        assert!(c.alpha() > 0.9, "alpha={}", c.alpha());
        // One ~50% cut per window against ~1-2 MSS of additive increase
        // drives the window toward its floor.
        assert!(c.cwnd() < before / 2, "cwnd={} before={}", c.cwnd(), before);
        assert!(c.cwnd() >= 2 * MSS as u64, "floor respected");
    }

    #[test]
    fn dctcp_light_marking_reduces_gently() {
        let mut c = cc(CcVariant::Dctcp);
        // Let alpha decay with several unmarked windows first.
        let mut una = 0u64;
        for _ in 0..20 {
            let w = c.cwnd();
            let mut acked = 0;
            while acked < w {
                c.on_ack(MSS as u64, false, una, una + w, false);
                una += MSS as u64;
                acked += MSS as u64;
            }
        }
        assert!(c.alpha() < 0.3, "alpha={}", c.alpha());
        let w = c.cwnd();
        // One marked ACK now shaves only alpha/2 of the window.
        c.on_ack(MSS as u64, true, una, una + w, false);
        let lost = w - c.cwnd();
        assert!(
            (lost as f64) < 0.2 * w as f64,
            "gentle reduction expected, lost {lost} of {w}"
        );
    }

    #[test]
    fn timeout_collapses_to_one_mss() {
        let mut c = cc(CcVariant::NewReno);
        c.on_timeout(c.cwnd());
        assert_eq!(c.cwnd(), MSS as u64);
        assert!(c.in_slow_start());
    }

    #[test]
    fn fast_retransmit_sets_ssthresh_half() {
        let mut c = cc(CcVariant::NewReno);
        let w = c.cwnd();
        let ss = c.on_fast_retransmit();
        assert_eq!(ss, w / 2);
        assert_eq!(c.cwnd(), w / 2 + 3 * MSS as u64);
        c.on_dup_ack_inflation();
        assert_eq!(c.cwnd(), w / 2 + 4 * MSS as u64);
        c.on_recovery_exit();
        assert_eq!(c.cwnd(), w / 2);
    }
}
