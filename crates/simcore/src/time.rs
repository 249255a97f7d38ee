//! The simulation clock.
//!
//! Simulation time is a count of milliseconds since the start of a run.
//! Milliseconds are fine-grained enough for 802.15.4 packet airtimes
//! (a maximum-length frame is ~4 ms) while keeping arithmetic exact — no
//! floating-point clock drift over multi-hour trials.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub};

/// An instant on the simulation clock, in milliseconds since run start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from whole milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        Self(millis)
    }

    /// Builds an instant from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        Self(secs * 1_000)
    }

    /// Builds an instant from whole minutes.
    #[must_use]
    pub const fn from_mins(mins: u64) -> Self {
        Self(mins * 60_000)
    }

    /// Builds an instant from whole hours.
    #[must_use]
    pub const fn from_hours(hours: u64) -> Self {
        Self(hours * 3_600_000)
    }

    /// This instant as whole milliseconds since run start.
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// This instant as fractional seconds since run start.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This instant as fractional hours since run start.
    #[must_use]
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Formats this instant as a wall-clock label `HH:MM:SS` offset from a
    /// nominal start hour — the paper's trial logs read "13:00", "14:05", …
    #[must_use]
    pub fn as_clock_label(self, start_hour: u64) -> String {
        let total_secs = self.0 / 1_000;
        let h = start_hour + total_secs / 3_600;
        let m = (total_secs % 3_600) / 60;
        let s = total_secs % 60;
        format!("{h:02}:{m:02}:{s:02}")
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a span from whole milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        Self(millis)
    }

    /// Builds a span from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        Self(secs * 1_000)
    }

    /// Builds a span from fractional seconds, rounding to the nearest
    /// millisecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative, got {secs}"
        );
        Self((secs * 1_000.0).round() as u64)
    }

    /// Builds a span from whole minutes.
    #[must_use]
    pub const fn from_mins(mins: u64) -> Self {
        Self(mins * 60_000)
    }

    /// Builds a span from whole hours.
    #[must_use]
    pub const fn from_hours(hours: u64) -> Self {
        Self(hours * 3_600_000)
    }

    /// This span in whole milliseconds.
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// This span in fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// True when the span is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
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

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        assert!(
            self.0 >= rhs.0,
            "cannot subtract later time {rhs} from earlier time {self}"
        );
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: Self) -> Self {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> Self {
        Self(self.0 / rhs)
    }
}

impl Div for SimDuration {
    type Output = u64;
    fn div(self, rhs: Self) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem for SimDuration {
    type Output = SimDuration;
    fn rem(self, rhs: Self) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl bz_state::Persist for SimTime {
    fn save(&self, w: &mut bz_state::Writer) {
        w.put_u64(self.0);
    }

    fn load(r: &mut bz_state::Reader<'_>) -> Result<Self, bz_state::StateError> {
        Ok(Self(r.take_u64()?))
    }
}

impl bz_state::Persist for SimDuration {
    fn save(&self, w: &mut bz_state::Writer) {
        w.put_u64(self.0);
    }

    fn load(r: &mut bz_state::Reader<'_>) -> Result<Self, bz_state::StateError> {
        Ok(Self(r.take_u64()?))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_mins(3), SimTime::from_secs(180));
        assert_eq!(SimTime::from_hours(1), SimTime::from_mins(60));
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2_000));
        assert_eq!(SimDuration::from_hours(2), SimDuration::from_mins(120));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_secs(5));
        assert_eq!(SimDuration::from_secs(4) * 3, SimDuration::from_secs(12));
        assert_eq!(SimDuration::from_secs(12) / 3, SimDuration::from_secs(4));
        assert_eq!(SimDuration::from_secs(12) / SimDuration::from_secs(5), 2);
    }

    #[test]
    #[should_panic(expected = "cannot subtract")]
    fn time_subtraction_panics_when_inverted() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(late.since(early), SimDuration::from_secs(4));
        assert_eq!(early.since(late), SimDuration::ZERO);
    }

    #[test]
    fn fractional_conversions() {
        assert!((SimTime::from_millis(1_500).as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((SimTime::from_mins(90).as_hours_f64() - 1.5).abs() < 1e-12);
        assert_eq!(
            SimDuration::from_secs_f64(2.0004),
            SimDuration::from_millis(2_000)
        );
        assert_eq!(
            SimDuration::from_secs_f64(2.5),
            SimDuration::from_millis(2_500)
        );
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn clock_label_matches_paper_style() {
        // The trial starts at 13:00; 65 minutes in is 14:05.
        let t = SimTime::from_mins(65);
        assert_eq!(t.as_clock_label(13), "14:05:00");
        assert_eq!(SimTime::ZERO.as_clock_label(13), "13:00:00");
        assert_eq!(SimTime::from_secs(90).as_clock_label(13), "13:01:30");
    }

    #[test]
    fn display_forms() {
        assert_eq!(SimTime::from_millis(1_250).to_string(), "t+1.250s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250s");
    }

    #[test]
    fn duration_rem_and_minmax() {
        let a = SimDuration::from_secs(7);
        let b = SimDuration::from_secs(3);
        assert_eq!(a % b, SimDuration::from_secs(1));
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
        assert!(SimDuration::ZERO.is_zero());
    }
}
