//! DCTCP's marking-fraction estimate, shared by every window that runs
//! the DCTCP law: `mtp-tcp`'s connection window and `mtp-core`'s pathlet
//! window.
//!
//! Over each observation window the caller records acked and marked
//! bytes; when its own rule says the window has closed it calls
//! [`DctcpAlpha::close`], which folds the marked fraction `F` into
//! `alpha <- (1-g) alpha + g F`. A reduction scales a window by
//! `1 - alpha/2` ([`DctcpAlpha::cut`]). When a window closes, when a cut
//! may happen, and what the window does otherwise stay with the caller.

/// DCTCP's EWMA gain for `alpha` (1/16, as in the DCTCP paper).
pub const DCTCP_G: f64 = 1.0 / 16.0;

/// `alpha` and the current observation window's acked and marked bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DctcpAlpha {
    alpha: f64,
    acked: f64,
    marked: f64,
}

impl Default for DctcpAlpha {
    fn default() -> Self {
        DctcpAlpha::new()
    }
}

impl DctcpAlpha {
    /// `alpha = 1` (a first mark halves), nothing recorded.
    pub const fn new() -> DctcpAlpha {
        DctcpAlpha {
            alpha: 1.0,
            acked: 0.0,
            marked: 0.0,
        }
    }

    /// The current estimate.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// `acked` bytes were acknowledged, `marked` of them carried a mark.
    #[inline]
    pub fn record(&mut self, acked: f64, marked: f64) {
        self.acked += acked;
        self.marked += marked;
    }

    /// The observation window closed: fold its marked fraction into
    /// `alpha` (a window that acked nothing leaves it) and start the next.
    #[inline]
    pub fn close(&mut self) {
        if self.acked > 0.0 {
            let f = (self.marked / self.acked).clamp(0.0, 1.0);
            self.alpha = (1.0 - DCTCP_G) * self.alpha + DCTCP_G * f;
        }
        self.acked = 0.0;
        self.marked = 0.0;
    }

    /// Window `w` after one DCTCP reduction.
    #[inline]
    pub fn cut(&self, w: f64) -> f64 {
        w * (1.0 - self.alpha / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmarked_windows_fold_alpha_by_one_minus_g() {
        let mut a = DctcpAlpha::new();
        let mut fold = 1.0f64;
        for _ in 0..40 {
            a.record(1500.0, 0.0);
            a.record(3000.0, 0.0);
            a.close();
            fold = (1.0 - DCTCP_G) * fold + DCTCP_G * 0.0;
            assert_eq!(a.alpha().to_bits(), fold.to_bits());
        }
        assert!(a.alpha() < 0.1);
    }

    #[test]
    fn an_empty_window_leaves_alpha() {
        let mut a = DctcpAlpha::new();
        a.record(1500.0, 0.0);
        a.close();
        let before = a.alpha();
        a.close();
        assert_eq!(a.alpha().to_bits(), before.to_bits());
        // Recording zero bytes still leaves the window empty.
        a.record(0.0, 0.0);
        a.close();
        assert_eq!(a.alpha().to_bits(), before.to_bits());
    }

    #[test]
    fn cut_scales_by_one_minus_half_alpha() {
        let mut a = DctcpAlpha::new();
        for marked in [1500.0, 0.0, 700.0, 0.0, 0.0, 1500.0, 0.0] {
            a.record(1500.0, marked);
            a.close();
            for w in [1500.0, 15_000.0, 123_456.789, (1u64 << 30) as f64] {
                let expect = w * (1.0 - a.alpha() / 2.0);
                assert_eq!(a.cut(w).to_bits(), expect.to_bits());
            }
        }
        assert_eq!(DctcpAlpha::new().cut(15_000.0), 7_500.0, "alpha = 1 halves");
    }
}
