//! The clock boundary between the sans-IO cores and the outside world.
//!
//! The endpoint cores and the session control machine take [`Time`] —
//! picoseconds from an arbitrary epoch — on every call and never read a
//! clock themselves. In the simulator the engine supplies virtual time;
//! on the wire a driver supplies real time from a [`MonotonicClock`].
//! Because they only ever *difference* times (RTT samples, RTO
//! deadlines, quarantine spans, control timers), the epoch is free: the
//! clock simply anchors `Time::ZERO` at construction.

use std::time::Instant;

use mtp_sim::time::{Duration, Time};

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
        self.at(Instant::now())
    }

    /// `instant` on this clock; `Time::ZERO` if it came before the clock.
    pub fn at(&self, instant: Instant) -> Time {
        // u64 picoseconds wrap after ~213 days of process uptime; a
        // saturating conversion keeps pathological cases monotone.
        let nanos = instant.saturating_duration_since(self.start).as_nanos();
        Time((nanos.saturating_mul(1_000)).min(u64::MAX as u128) as u64)
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

/// A sim duration as a wall duration.
pub(crate) fn wall(d: Duration) -> std::time::Duration {
    std::time::Duration::from_nanos(d.0 / 1_000)
}

/// How long a wait for `t` blocks from `now`: whole milliseconds, the
/// unit `poll(2)` counts in, rounded up, so a wait for a deadline never
/// ends before it.
pub(crate) fn until(now: Time, t: Time) -> std::time::Duration {
    std::time::Duration::from_millis(t.0.saturating_sub(now.0).div_ceil(1_000_000_000))
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

    #[test]
    fn an_instant_maps_onto_the_clock() {
        let c = MonotonicClock::new();
        let later = c.start + std::time::Duration::from_micros(1_500);
        assert_eq!(c.at(later), Time(1_500_000_000));
        assert_eq!(c.at(c.start), Time::ZERO);
    }

    #[test]
    fn a_wait_never_ends_before_its_deadline() {
        let now = Time(7);
        assert_eq!(until(now, now), std::time::Duration::ZERO);
        assert_eq!(until(now, Time(6)), std::time::Duration::ZERO);
        let ms = std::time::Duration::from_millis(1);
        assert_eq!(until(now, now + Duration(1)), ms);
        assert_eq!(until(now, now + Duration::from_millis(1)), ms);
        assert_eq!(until(now, now + Duration::from_micros(1_001)), 2 * ms);
    }
}
