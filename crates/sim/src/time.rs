//! Simulation time, durations, and bandwidth.
//!
//! Time is a `u64` count of **picoseconds**. The experiments in the paper
//! mix 100 Gbps serialization times (a 1500 B frame takes exactly 120 ns),
//! microsecond propagation delays, and a 384 µs path-alternation period;
//! picoseconds represent all of these exactly, and a `u64` of picoseconds
//! still covers ~213 days of simulated time.

use serde::{Deserialize, Serialize};

/// An absolute simulation timestamp in picoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Time(pub u64);

/// A span of simulation time in picoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(pub u64);

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Duration {
        Duration(ns * 1_000)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us * 1_000_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000_000_000)
    }

    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000_000_000_000)
    }

    /// Construct from fractional seconds (rounds to the nearest picosecond).
    pub fn from_secs_f64(s: f64) -> Duration {
        Duration((s * 1e12).round() as u64)
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// The duration in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Multiply by an integer factor.
    pub const fn mul(self, k: u64) -> Duration {
        Duration(self.0 * k)
    }
}

impl Time {
    /// The simulation epoch.
    pub const ZERO: Time = Time(0);

    /// The timestamp in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// The timestamp in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier` (saturating: returns zero if `earlier`
    /// is in the future).
    pub fn since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl core::ops::Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl core::ops::Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl core::ops::Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl core::ops::Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl core::fmt::Display for Time {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl core::fmt::Display for Duration {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

/// A link or NIC bandwidth in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    /// Construct from bits per second.
    pub const fn from_bps(bps: u64) -> Bandwidth {
        Bandwidth(bps)
    }

    /// Construct from gigabits per second.
    pub const fn from_gbps(gbps: u64) -> Bandwidth {
        Bandwidth(gbps * 1_000_000_000)
    }

    /// Bits per second.
    pub const fn bps(self) -> u64 {
        self.0
    }

    /// Gigabits per second, as a float.
    pub fn as_gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time to serialize `bytes` onto this link, exact to the picosecond
    /// (rounding up so a transmission never finishes early).
    pub fn serialize_time(self, bytes: u32) -> Duration {
        debug_assert!(self.0 > 0, "zero-bandwidth link");
        let bits = bytes as u64 * 8;
        if bits <= u64::MAX / 1_000_000_000_000 {
            // Every realistic frame (up to ~2 MB) stays in 64 bits: one
            // hardware division instead of the software u128 one
            // (`__udivti3`) on the per-transmission hot path.
            return Duration((bits * 1_000_000_000_000).div_ceil(self.0));
        }
        let ps = (bits as u128 * 1_000_000_000_000).div_ceil(self.0 as u128);
        Duration(ps as u64)
    }

    /// The number of bytes this bandwidth delivers in `d` (rounded down).
    pub fn bytes_in(self, d: Duration) -> u64 {
        ((self.0 as u128 * d.0 as u128) / (8 * 1_000_000_000_000u128)) as u64
    }
}

impl core::fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.1}Gbps", self.as_gbps_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_is_exact_at_100g() {
        // 1500 bytes at 100 Gbps = 120 ns exactly.
        let t = Bandwidth::from_gbps(100).serialize_time(1500);
        assert_eq!(t, Duration::from_nanos(120));
    }

    #[test]
    fn serialization_is_exact_at_40g() {
        // 1500 bytes at 40 Gbps = 300 ns exactly.
        let t = Bandwidth::from_gbps(40).serialize_time(1500);
        assert_eq!(t, Duration::from_nanos(300));
    }

    #[test]
    fn serialization_rounds_up() {
        // 1 byte at 3 bps: 8/3 s = 2.666..s must round up.
        let t = Bandwidth::from_bps(3).serialize_time(1);
        assert_eq!(t.0, 8_000_000_000_000u64.div_ceil(3));
    }

    #[test]
    fn bytes_in_inverts_serialize() {
        let bw = Bandwidth::from_gbps(10);
        let d = bw.serialize_time(123_456);
        let b = bw.bytes_in(d);
        assert!((123_456..=123_457).contains(&b), "got {b}");
    }

    #[test]
    fn time_arithmetic() {
        let t = Time::ZERO + Duration::from_micros(5);
        assert_eq!(t.0, 5_000_000);
        assert_eq!(t - Time::ZERO, Duration::from_micros(5));
        assert_eq!(t.since(Time(9_000_000)), Duration::ZERO);
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(Duration::from_secs(1).0, 1_000_000_000_000);
        assert_eq!(Duration::from_millis(1).0, 1_000_000_000);
        assert_eq!(Duration::from_micros(1).0, 1_000_000);
        assert_eq!(Duration::from_nanos(1).0, 1_000);
        assert!((Duration::from_secs_f64(0.5).as_secs_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Duration::from_micros(384).to_string(), "384.000us");
        assert_eq!(Bandwidth::from_gbps(100).to_string(), "100.0Gbps");
    }
}
