//! Virtual time for the discrete-event simulator.
//!
//! Time is kept in integer nanoseconds so event ordering is exact and
//! runs are bit-reproducible across platforms (no floating-point clock).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time (nanoseconds since simulation start).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time (nanoseconds).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Seconds since simulation start, as f64 (for reporting only).
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`; saturates at zero.
    pub fn since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From seconds (f64, for model parameters).
    pub fn from_secs_f64(secs: f64) -> SimDuration {
        assert!(secs >= 0.0 && secs.is_finite(), "invalid duration: {secs}");
        SimDuration((secs * 1e9).round() as u64)
    }

    /// From milliseconds.
    pub fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// From microseconds.
    pub fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// From nanoseconds.
    pub fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// As f64 seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating duration sum.
    pub fn saturating_add(&self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Scale by an integer factor.
    pub fn scale(&self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Larger of the two.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        assert_eq!(t.0, 5_000_000);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_millis(5));
        assert_eq!(SimTime::ZERO.since(t), SimDuration::ZERO);
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_secs_f64(1.5).0, 1_500_000_000);
        assert_eq!(SimDuration::from_micros(3).0, 3_000);
        assert!((SimDuration::from_millis(250).as_secs_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn scaling() {
        let d = SimDuration::from_micros(10);
        assert_eq!(d.scale(3), SimDuration::from_micros(30));
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimDuration::from_millis(1) < SimDuration::from_millis(2));
        assert_eq!(format!("{}", SimDuration::from_millis(250)), "250.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs_f64(2.0)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_nanos(17)), "17ns");
    }

    #[test]
    #[should_panic]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }
}
