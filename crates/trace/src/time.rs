//! Trace-local timestamps.
//!
//! The paper decomposes attack timestamps into `(day, hour)` pairs (§III-B2)
//! because botmasters schedule by bot-activity cycles and defenses deploy on
//! daily/hourly cadence. [`Timestamp`] is seconds since trace start with
//! that decomposition built in.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Add;

/// Seconds in a minute.
pub const MINUTE: u64 = 60;
/// Seconds in an hour.
pub const HOUR: u64 = 3_600;
/// Seconds in a day.
pub const DAY: u64 = 86_400;

/// A trace-local timestamp: seconds since the beginning of the observation
/// window.
///
/// # Example
///
/// ```
/// use ddos_trace::Timestamp;
///
/// let t = Timestamp::from_day_hour(3, 14) + 1800;
/// assert_eq!(t.day(), 3);
/// assert_eq!(t.hour(), 14);
/// assert_eq!(t.second_of_hour(), 1800);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The trace origin (second 0).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Builds a timestamp at the start of the given hour of the given day.
    pub fn from_day_hour(day: u32, hour: u8) -> Self {
        Timestamp(day as u64 * DAY + hour as u64 % 24 * HOUR)
    }

    /// Raw seconds since trace start.
    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// Day index since trace start (0-based).
    pub fn day(self) -> u32 {
        (self.0 / DAY) as u32
    }

    /// Hour of day, `0..24`.
    pub fn hour(self) -> u8 {
        ((self.0 % DAY) / HOUR) as u8
    }

    /// Second within the current hour, `0..3600`.
    pub fn second_of_hour(self) -> u64 {
        self.0 % HOUR
    }

    /// Day-of-month style value `1..=31`, cycling: the paper confines the
    /// day part of its timestamp variable to a closed interval like
    /// `[1, 31]` to expose monthly periodicity.
    pub fn day_of_month(self) -> u8 {
        (self.day() % 31 + 1) as u8
    }

    /// Absolute hour index since trace start.
    pub fn absolute_hour(self) -> u64 {
        self.0 / HOUR
    }

    /// Saturating distance in seconds to another timestamp.
    pub fn abs_diff(self, other: Timestamp) -> u64 {
        self.0.abs_diff(other.0)
    }
}

impl Add<u64> for Timestamp {
    type Output = Timestamp;

    fn add(self, secs: u64) -> Timestamp {
        Timestamp(self.0 + secs)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "d{}h{:02}m{:02}s{:02}",
            self.day(),
            self.hour(),
            (self.0 % HOUR) / MINUTE,
            self.0 % MINUTE
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_round_trips() {
        let t = Timestamp::from_day_hour(5, 23);
        assert_eq!(t.day(), 5);
        assert_eq!(t.hour(), 23);
        assert_eq!(t.second_of_hour(), 0);
        assert_eq!(t.absolute_hour(), 5 * 24 + 23);
    }

    #[test]
    fn hour_wraps() {
        let t = Timestamp::from_day_hour(0, 25); // 25 % 24 = 1
        assert_eq!(t.hour(), 1);
    }

    #[test]
    fn day_of_month_cycles_one_based() {
        assert_eq!(Timestamp::from_day_hour(0, 0).day_of_month(), 1);
        assert_eq!(Timestamp::from_day_hour(30, 0).day_of_month(), 31);
        assert_eq!(Timestamp::from_day_hour(31, 0).day_of_month(), 1);
    }

    #[test]
    fn arithmetic() {
        let a = Timestamp(100);
        let b = a + 50;
        assert_eq!(b.as_secs(), 150);
        assert_eq!(a.abs_diff(b), 50);
        assert_eq!(b.abs_diff(a), 50);
    }

    #[test]
    fn display_format() {
        let t = Timestamp::from_day_hour(2, 3) + 65;
        assert_eq!(t.to_string(), "d2h03m01s05");
    }

    #[test]
    fn ordering_follows_seconds() {
        assert!(Timestamp(5) < Timestamp(6));
        assert_eq!(Timestamp::ZERO, Timestamp::default());
    }
}
