//! The clock boundary between the sans-IO cores and the outside world.
//!
//! The endpoint cores take [`Time`] — picoseconds from an arbitrary
//! epoch — on every call and never read a clock themselves. In the
//! simulator the engine supplies virtual time; on the wire a driver
//! supplies real time from a [`MonotonicClock`]. Because the cores only
//! ever *difference* times (RTT samples, RTO deadlines, quarantine
//! spans), the epoch is free: the clock simply anchors `Time::ZERO` at
//! construction.

use std::time::Instant;

use mtp_sim::time::Time;

/// Real time: `std::time::Instant` elapsed-since-construction, scaled
/// to the simulator's picosecond unit.
#[derive(Debug, Clone, Copy)]
pub struct MonotonicClock {
    start: Instant,
}

impl MonotonicClock {
    /// A clock whose `Time::ZERO` is now.
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            start: Instant::now(),
        }
    }

    /// The current instant.
    pub fn now(&self) -> Time {
        // u64 picoseconds wrap after ~213 days of process uptime; a
        // saturating conversion keeps pathological cases monotone.
        let nanos = self.start.elapsed().as_nanos();
        Time((nanos.saturating_mul(1_000)).min(u64::MAX as u128) as u64)
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_is_monotone() {
        let c = MonotonicClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }
}
