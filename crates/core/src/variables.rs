//! The modeling variables of Table II.
//!
//! Three groups (§III-B): attacker-side botnet state (time-indexed),
//! target-side affinity (time-free), and model outputs (fed back as
//! corrections). These types and fields give the table's symbols concrete,
//! documented homes so every model speaks the same vocabulary; the
//! target-side group is read straight off each attack record. Of the
//! attacker-side group only `A^s` is computed, since it is the only one an
//! experiment forecasts; the activity level `A^f` and active-bot fraction
//! `A^b` (Eq. 1–2) are not.
//!
//! | symbol | type / field |
//! |---|---|
//! | `A^s_{t_i}` | [`crate::features::FeatureExtractor::source_distribution`] |
//! | `T_l` | [`ddos_trace::AttackRecord::target_asn`] |
//! | `T^d_j` | [`ddos_trace::AttackRecord::duration_secs`] (per network: `log_durations` in [`crate::spatial`]) |
//! | `T^{ts}_j` | [`ddos_trace::AttackRecord::start`] as [`TimestampParts`] (per network: `launch_hours` and `launch_gaps` in [`crate::spatial`]) |
//! | `(D^b_{t_i})_j` | [`PredictedAttack::magnitude`] |
//! | `(D^d_{t_i})_j` | [`PredictedAttack::duration_secs`] |
//! | `D^{ts}_{j+1}` | [`PredictedAttack::timestamp`] |

use ddos_trace::Timestamp;
use serde::{Deserialize, Serialize};

/// The decomposed timestamp `(T^{day}, T^{hour})` of §III-B2: the paper
/// confines the day to `[1, 31]` and the hour to `[0, 24)` so predictors
/// can learn daily/monthly periodicity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TimestampParts {
    /// Day-of-month-style component, `1..=31`.
    pub day: u8,
    /// Hour of day, `0..24`.
    pub hour: u8,
}

impl TimestampParts {
    /// Decomposes a trace timestamp.
    pub fn from_timestamp(ts: Timestamp) -> Self {
        TimestampParts { day: ts.day_of_month(), hour: ts.hour() }
    }
}

impl From<Timestamp> for TimestampParts {
    fn from(ts: Timestamp) -> Self {
        TimestampParts::from_timestamp(ts)
    }
}

/// A model's prediction of the next attack (Table II group 3) — also the
/// feedback variables `(D^b)_j`, `(D^d)_j`, `D^{ts}_{j+1}`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictedAttack {
    /// `(D^b_{t_i})_j` — predicted magnitude (bot count).
    pub magnitude: f64,
    /// `(D^d_{t_i})_j` — predicted duration in seconds.
    pub duration_secs: f64,
    /// `D^{ts}_{j+1}` — predicted launch timestamp (day, hour).
    pub timestamp: TimestampParts,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_parts_decompose() {
        let ts = Timestamp::from_day_hour(33, 15);
        let p = TimestampParts::from_timestamp(ts);
        assert_eq!(p.day, 3); // 33 % 31 + 1
        assert_eq!(p.hour, 15);
        let q: TimestampParts = ts.into();
        assert_eq!(p, q);
    }
}
