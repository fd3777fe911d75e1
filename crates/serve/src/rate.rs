//! Sliding-window per-source rate accounting.
//!
//! The admission front end tracks, per submitting source, the timestamps
//! of recently admitted requests and enforces limits over several
//! trailing windows at once — the multi-horizon scheme big-data DDoS
//! detectors apply to per-source request streams (short windows catch
//! bursts, long windows catch sustained abuse). Time is injected by the
//! caller as logical milliseconds, so the accounting is deterministic
//! under test and the service layer is free to feed it a monotonic clock.

use crate::error::ServeError;
use std::collections::HashMap;
use std::collections::VecDeque;

/// One trailing admission window: at most `limit` requests per source in
/// any `secs`-second span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateWindow {
    /// Window length in seconds.
    pub secs: u64,
    /// Admissions allowed inside the window.
    pub limit: usize,
}

impl RateWindow {
    /// Convenience constructor.
    pub fn new(secs: u64, limit: usize) -> Self {
        RateWindow { secs, limit }
    }
}

/// The default multi-horizon window set: a burst window, a sustained
/// window and a long-haul window, tightening proportionally with span.
pub fn default_windows() -> Vec<RateWindow> {
    vec![RateWindow::new(1, 200), RateWindow::new(10, 1_000), RateWindow::new(60, 4_000)]
}

/// Per-source sliding-window rate limiter over logical time.
///
/// Each source owns a monotone deque of admission timestamps
/// (milliseconds); a new request is admitted only if *every* configured
/// window still has headroom, and admission records the timestamp.
/// Timestamps older than the longest window are evicted on the way in,
/// so memory per source is bounded by the largest limit; once per
/// horizon of logical time, sources left with no live stamp are dropped,
/// so memory across sources is bounded by the sources seen within the
/// last two horizons.
#[derive(Debug, Clone)]
pub struct RateLimiter {
    windows: Vec<RateWindow>,
    horizon_millis: u64,
    per_source: HashMap<u64, VecDeque<u64>>,
    /// Logical time at or after which the next admission sweeps out
    /// sources with no live stamp.
    next_sweep_millis: u64,
}

impl RateLimiter {
    /// Builds a limiter over the given windows (sorted internally by
    /// span; an empty set admits everything).
    pub fn new(mut windows: Vec<RateWindow>) -> Self {
        windows.sort_by_key(|w| w.secs);
        let horizon_millis = windows.last().map(|w| w.secs.saturating_mul(1_000)).unwrap_or(0);
        RateLimiter { windows, horizon_millis, per_source: HashMap::new(), next_sweep_millis: 0 }
    }

    /// Attempts to admit one request from `source` at `now_millis`
    /// logical time, recording it on success.
    ///
    /// # Errors
    ///
    /// [`ServeError::RateLimited`] naming the tightest violated window;
    /// a rejected request is *not* recorded (rejections do not consume
    /// budget).
    pub fn admit(&mut self, source: u64, now_millis: u64) -> Result<(), ServeError> {
        if self.windows.is_empty() {
            return Ok(());
        }
        let horizon_cutoff = now_millis.saturating_sub(self.horizon_millis);
        if now_millis >= self.next_sweep_millis {
            // Logical time does not run backwards, so a source whose
            // newest stamp is past the horizon would have every stamp
            // evicted on its next admission: forgetting it changes no
            // decision.
            self.per_source.retain(|_, stamps| stamps.back().is_some_and(|&t| t >= horizon_cutoff));
            self.next_sweep_millis = now_millis.saturating_add(self.horizon_millis.max(1));
        }
        let stamps = self.per_source.entry(source).or_default();
        // Evict everything past the longest horizon.
        while stamps.front().is_some_and(|&t| t < horizon_cutoff) {
            stamps.pop_front();
        }
        for w in &self.windows {
            let cutoff = now_millis.saturating_sub(w.secs.saturating_mul(1_000));
            // Timestamps are pushed in nondecreasing order, so the live
            // span of each window is the deque's tail.
            let start = stamps.partition_point(|&t| t < cutoff);
            if stamps.len() - start >= w.limit {
                return Err(ServeError::RateLimited {
                    source,
                    window_secs: w.secs,
                    limit: w.limit,
                });
            }
        }
        stamps.push_back(now_millis);
        Ok(())
    }

    /// Sources currently tracked: every source with a stamp inside the
    /// longest window, plus sources whose stamps aged out since the last
    /// sweep (sweeps run at most one horizon of logical time apart, on
    /// admission).
    pub fn tracked_sources(&self) -> usize {
        self.per_source.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_set_admits_everything() {
        let mut rl = RateLimiter::new(vec![]);
        for i in 0..10_000 {
            rl.admit(1, i).unwrap();
        }
    }

    #[test]
    fn burst_window_rejects_then_recovers() {
        let mut rl = RateLimiter::new(vec![RateWindow::new(1, 3)]);
        rl.admit(7, 0).unwrap();
        rl.admit(7, 10).unwrap();
        rl.admit(7, 20).unwrap();
        let err = rl.admit(7, 30).unwrap_err();
        assert_eq!(err, ServeError::RateLimited { source: 7, window_secs: 1, limit: 3 });
        // Other sources are unaffected.
        rl.admit(8, 30).unwrap();
        // Once the burst ages past the window, admission resumes.
        rl.admit(7, 1_011).unwrap();
    }

    #[test]
    fn rejections_do_not_consume_budget() {
        let mut rl = RateLimiter::new(vec![RateWindow::new(1, 2)]);
        rl.admit(1, 0).unwrap();
        rl.admit(1, 1).unwrap();
        for t in 2..500 {
            assert!(rl.admit(1, t).is_err());
        }
        // The two *admitted* stamps age out exactly as if the rejected
        // flood never happened.
        rl.admit(1, 1_001).unwrap();
    }

    #[test]
    fn tightest_violated_window_is_reported() {
        // 5 per second, 8 per 10 seconds.
        let mut rl = RateLimiter::new(vec![RateWindow::new(10, 8), RateWindow::new(1, 5)]);
        for i in 0..5 {
            rl.admit(1, i).unwrap();
        }
        // Sixth inside one second: the 1s window trips first.
        assert_eq!(
            rl.admit(1, 5).unwrap_err(),
            ServeError::RateLimited { source: 1, window_secs: 1, limit: 5 }
        );
        // Spread out: the 10s budget (8) trips while 1s has headroom.
        for t in [1_100u64, 2_200, 3_300] {
            rl.admit(1, t).unwrap();
        }
        assert_eq!(
            rl.admit(1, 4_400).unwrap_err(),
            ServeError::RateLimited { source: 1, window_secs: 10, limit: 8 }
        );
    }

    #[test]
    fn horizon_eviction_bounds_memory() {
        let mut rl = RateLimiter::new(vec![RateWindow::new(1, 1_000)]);
        for t in 0..10_000u64 {
            let _ = rl.admit(42, t * 10);
        }
        assert_eq!(rl.tracked_sources(), 1);
        let stamps = rl.per_source.get(&42).unwrap();
        assert!(stamps.len() <= 101, "eviction keeps only the live horizon, got {}", stamps.len());
    }

    #[test]
    fn sweep_forgets_sources_with_no_live_stamp() {
        let mut rl = RateLimiter::new(vec![RateWindow::new(1, 5), RateWindow::new(10, 20)]);
        for source in 0..10_000u64 {
            rl.admit(source, source / 100).unwrap();
        }
        assert_eq!(rl.tracked_sources(), 10_000);
        // Past the 10 s horizon of every stamp, one admission sweeps the
        // rest away.
        rl.admit(u64::MAX, 10_000 + 100).unwrap();
        assert_eq!(rl.tracked_sources(), 1);
        // A source swept away starts over with its full budget.
        for t in 0..5 {
            rl.admit(7, 10_200 + t).unwrap();
        }
        assert!(rl.admit(7, 10_205).is_err());
    }
}
