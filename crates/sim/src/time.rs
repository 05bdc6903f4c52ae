//! Simulation time base.
//!
//! Simulated time is an absolute number of nanoseconds since the start of the run
//! ([`SimTime`]); intervals are expressed as [`Duration`].  Both are thin `u64`
//! newtypes so arithmetic never allocates and comparisons are trivially `Copy`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant in simulated time, measured in nanoseconds from the start of
/// the simulation.
///
/// # Example
///
/// ```
/// use sprinkler_sim::{SimTime, Duration};
///
/// let t = SimTime::ZERO + Duration::from_micros(20);
/// assert_eq!(t.as_nanos(), 20_000);
/// assert_eq!(t - SimTime::ZERO, Duration::from_nanos(20_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time in nanoseconds.
///
/// # Example
///
/// ```
/// use sprinkler_sim::Duration;
///
/// let bus = Duration::from_micros(12) + Duration::from_nanos(300);
/// assert_eq!(bus.as_nanos(), 12_300);
/// assert_eq!(bus * 2, Duration::from_nanos(24_600));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as a sentinel for "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from a raw nanosecond count.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the instant as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns the elapsed duration since `earlier`, or [`Duration::ZERO`] if
    /// `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl Duration {
    /// The empty interval.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable interval.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a duration from a raw nanosecond count.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional microseconds, rounding to the nearest
    /// nanosecond.
    pub fn from_micros_f64(us: f64) -> Self {
        Duration((us * 1_000.0).round().max(0.0) as u64)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns `true` if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction; returns [`Duration::ZERO`] on underflow.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        Duration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_construction_roundtrips() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimTime::from_nanos(7).as_nanos(), 7);
    }

    #[test]
    fn duration_construction_roundtrips() {
        assert_eq!(Duration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(Duration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(Duration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(Duration::from_micros_f64(1.5).as_nanos(), 1_500);
    }

    #[test]
    fn simtime_arithmetic() {
        let t = SimTime::from_nanos(100);
        let t2 = t + Duration::from_nanos(50);
        assert_eq!(t2.as_nanos(), 150);
        assert_eq!(t2 - t, Duration::from_nanos(50));
        assert_eq!(t2 - Duration::from_nanos(150), SimTime::ZERO);
    }

    #[test]
    fn saturating_since_handles_future() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(30);
        assert_eq!(late.saturating_since(early), Duration::from_nanos(20));
        assert_eq!(early.saturating_since(late), Duration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let d = Duration::from_nanos(10) + Duration::from_nanos(5);
        assert_eq!(d.as_nanos(), 15);
        assert_eq!((d - Duration::from_nanos(5)).as_nanos(), 10);
        assert_eq!((d * 3).as_nanos(), 45);
        assert_eq!((d / 3).as_nanos(), 5);
        assert_eq!(d.saturating_sub(Duration::from_nanos(100)), Duration::ZERO);
    }

    #[test]
    fn duration_sum() {
        let total: Duration = [1u64, 2, 3].iter().map(|&n| Duration::from_nanos(n)).sum();
        assert_eq!(total.as_nanos(), 6);
    }

    #[test]
    fn display_formats_scale() {
        assert_eq!(format!("{}", Duration::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", Duration::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", Duration::from_millis(5)), "5.000ms");
    }

    #[test]
    fn ordering_and_min_max() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(
            Duration::from_nanos(4).max(Duration::from_nanos(2)),
            Duration::from_nanos(4)
        );
        assert_eq!(
            Duration::from_nanos(4).min(Duration::from_nanos(2)),
            Duration::from_nanos(2)
        );
    }

    #[test]
    fn float_conversions() {
        assert!((Duration::from_micros(1).as_micros_f64() - 1.0).abs() < 1e-9);
        assert!((Duration::from_millis(1).as_millis_f64() - 1.0).abs() < 1e-9);
        assert!((Duration::from_secs(1).as_secs_f64() - 1.0).abs() < 1e-9);
        assert!((SimTime::from_millis(1).as_millis_f64() - 1.0).abs() < 1e-9);
    }
}
