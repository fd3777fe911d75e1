//! Sliding-window per-source rate accounting.
//!
//! The admission front end enforces, per submitting source, limits over
//! several trailing windows at once — the multi-horizon scheme big-data
//! DDoS detectors apply to per-source request streams (short windows
//! catch bursts, long windows catch sustained abuse). Time is injected
//! by the caller as logical milliseconds, so the accounting is
//! deterministic under test and the service layer is free to feed it a
//! monotonic clock.
//!
//! The accounting is an exact ledger (DESIGN.md §36): one time-ordered
//! log of admissions over all sources, a live count per source and
//! window, and one cursor per window into the log, so an admission costs
//! one hash probe and a few counter updates however many stamps a source
//! holds. Its decisions are those of a timestamp list per source, which
//! the tests keep as the oracle. [`RateLimiter::tracked_sources`] counts
//! exactly the sources with an admission inside the longest window.
//!
//! A batch is admitted all or nothing ([`RateLimiter::admit_all`]): every
//! request is charged to its source at one clock reading, and a refused
//! batch leaves no stamp behind.
//!
//! The limiter takes no lock of its own: the service keeps it inside its
//! batch queue and admits under the queue lock, so a request is stamped
//! if and only if it is queued.

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

    /// The oldest stamp still inside the window at `now_millis`.
    fn cutoff(&self, now_millis: u64) -> u64 {
        now_millis.saturating_sub(self.secs.saturating_mul(1_000))
    }
}

/// The default multi-horizon window set: a burst window, a sustained
/// window and a long-haul window, tightening proportionally with span.
pub fn default_windows() -> Vec<RateWindow> {
    vec![RateWindow::new(1, 200), RateWindow::new(10, 1_000), RateWindow::new(60, 4_000)]
}

/// The most admissions the ledger holds at once, so that every count and
/// slot id fits in a `u32` (48 GiB of log at 12 bytes an admission).
const MAX_LOGGED: usize = u32::MAX as usize;

/// The refusal of an admission the ledger has no room for.
fn ledger_full(logged: usize) -> ServeError {
    ServeError::Overloaded { queued: logged, capacity: MAX_LOGGED }
}

/// Per-source sliding-window rate limiter over logical time.
///
/// A request is admitted only if *every* configured window still has
/// headroom for its source, and admission records it. One ledger serves
/// every source:
///
/// - a log of admissions in time order, held as two parallel deques (the
///   source's slot and the stamp, 12 bytes per admission);
/// - a map from source to a dense slot, slots reused through a free list;
/// - per slot, its live admissions in each window;
/// - per window but the longest, a cursor to its first live admission in
///   the log. The longest window's cursor is the front of the log.
///
/// An admission first moves each cursor past the stamps that left its
/// window, taking each off its slot's count for that window; the log
/// prefix that left the longest window is dropped, and a slot whose
/// longest-window count reaches 0 is freed with its map entry. Every
/// logged admission is passed once per window, so an admission costs
/// O(windows) amortized. Memory is 12 bytes per admission inside the
/// longest window plus one slot per source that has one.
///
/// Logical time does not run backwards: a `now_millis` earlier than the
/// latest one any call passed is read as that latest time, so a late
/// clock reading neither reorders the log nor frees budget early.
#[derive(Debug, Clone)]
pub struct RateLimiter {
    /// Sorted by span; the last is the longest.
    windows: Vec<RateWindow>,
    /// Slot of each logged admission, oldest first.
    log_slots: VecDeque<u32>,
    /// Stamp of each logged admission, parallel to `log_slots`.
    log_stamps: VecDeque<u64>,
    /// Per window but the longest, the log index of its first live stamp.
    cursors: Vec<usize>,
    /// The slot of every source with an admission in the longest window.
    slots: HashMap<u64, u32>,
    /// The source of each slot, so a freed slot can leave `slots`.
    sources: Vec<u64>,
    /// Live admissions of slot `s` in window `w` at `counts[s * windows.len() + w]`.
    counts: Vec<u32>,
    /// Slots no source holds.
    free: Vec<u32>,
    /// The latest logical time any call passed.
    clock: u64,
}

impl RateLimiter {
    /// Builds a limiter over the given windows (sorted internally by
    /// span; an empty set admits everything).
    pub fn new(mut windows: Vec<RateWindow>) -> Self {
        windows.sort_by_key(|w| w.secs);
        RateLimiter {
            cursors: vec![0; windows.len().saturating_sub(1)],
            windows,
            log_slots: VecDeque::new(),
            log_stamps: VecDeque::new(),
            slots: HashMap::new(),
            sources: Vec::new(),
            counts: Vec::new(),
            free: Vec::new(),
            clock: 0,
        }
    }

    /// Attempts to admit one request from `source` at `now_millis`
    /// logical time, recording it on success.
    ///
    /// # Errors
    ///
    /// [`ServeError::RateLimited`] naming the tightest violated window;
    /// a rejected request is *not* recorded (rejections do not consume
    /// budget). [`ServeError::Overloaded`] when the ledger already holds
    /// `u32::MAX` admissions.
    pub fn admit(&mut self, source: u64, now_millis: u64) -> Result<(), ServeError> {
        let n = self.windows.len();
        if n == 0 {
            return Ok(());
        }
        self.clock = self.clock.max(now_millis);
        self.expire();
        let found = self.slots.get(&source).copied();
        let live = |w: usize| found.map_or(0, |slot| self.counts[slot as usize * n + w] as usize);
        if let Some((_, &RateWindow { secs, limit })) =
            self.windows.iter().enumerate().find(|&(w, window)| live(w) >= window.limit)
        {
            return Err(ServeError::RateLimited { source, window_secs: secs, limit });
        }
        let logged = self.log_stamps.len();
        if logged >= MAX_LOGGED {
            return Err(ledger_full(logged));
        }
        let slot = match found {
            Some(slot) => slot,
            None => {
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.sources[slot as usize] = source;
                        slot
                    }
                    None => {
                        // Every live slot holds a logged admission, so
                        // below `MAX_LOGGED` a new slot id fits.
                        let Ok(slot) = u32::try_from(self.sources.len()) else {
                            return Err(ledger_full(logged));
                        };
                        self.sources.push(source);
                        self.counts.resize(self.counts.len() + n, 0);
                        slot
                    }
                };
                self.slots.insert(source, slot);
                slot
            }
        };
        for count in &mut self.counts[slot as usize * n..][..n] {
            *count += 1;
        }
        self.log_slots.push_back(slot);
        self.log_stamps.push_back(self.clock);
        Ok(())
    }

    /// Admits one request per entry of `sources` at `now_millis`, all or
    /// nothing: either every request is recorded, or none is and the
    /// ledger is as if only the clock had advanced.
    ///
    /// The requests are admitted in order, each against the budget the
    /// ones before it left. All are stamped with the same clock, so each
    /// is live in every window and the newest entries of the log; a
    /// refused batch is undone by popping them back off.
    ///
    /// # Errors
    ///
    /// The refusal of the first request [`admit`](RateLimiter::admit)
    /// refuses.
    pub fn admit_all(
        &mut self,
        sources: impl IntoIterator<Item = u64>,
        now_millis: u64,
    ) -> Result<(), ServeError> {
        if self.windows.is_empty() {
            return Ok(());
        }
        for (admitted, source) in sources.into_iter().enumerate() {
            if let Err(e) = self.admit(source, now_millis) {
                self.retract(admitted);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Takes the newest `k` admissions back off the log. They must all be
    /// live in every window (stamped at the current clock), so no cursor
    /// points past them; a slot left with no admission is freed.
    fn retract(&mut self, k: usize) {
        let n = self.windows.len();
        for _ in 0..k {
            let (Some(slot), Some(_)) = (self.log_slots.pop_back(), self.log_stamps.pop_back())
            else {
                return;
            };
            let counts = &mut self.counts[slot as usize * n..][..n];
            for count in counts.iter_mut() {
                *count -= 1;
            }
            if counts[n - 1] == 0 {
                self.slots.remove(&self.sources[slot as usize]);
                self.free.push(slot);
            }
        }
    }

    /// Moves every window's cursor past the stamps that left it at
    /// `clock`, dropping the log prefix the longest window left and
    /// freeing each slot with no admission left in it.
    fn expire(&mut self) {
        let n = self.windows.len();
        let Some((longest, shorter)) = self.windows.split_last() else { return };
        for ((w, window), cursor) in shorter.iter().enumerate().zip(&mut self.cursors) {
            let cutoff = window.cutoff(self.clock);
            while self.log_stamps.get(*cursor).is_some_and(|&t| t < cutoff) {
                self.counts[self.log_slots[*cursor] as usize * n + w] -= 1;
                *cursor += 1;
            }
        }
        // Stamps are non-decreasing and shorter windows cut later, so
        // every shorter cursor has passed what leaves the longest window.
        let cutoff = longest.cutoff(self.clock);
        let mut dropped = 0;
        while self.log_stamps.front().is_some_and(|&t| t < cutoff) {
            self.log_stamps.pop_front();
            let Some(slot) = self.log_slots.pop_front() else { break };
            dropped += 1;
            let live = &mut self.counts[slot as usize * n + n - 1];
            *live -= 1;
            // A shorter window's count never exceeds the longest's, so
            // the freed slot's counts are all 0.
            if *live == 0 {
                self.slots.remove(&self.sources[slot as usize]);
                self.free.push(slot);
            }
        }
        for cursor in &mut self.cursors {
            *cursor -= dropped;
        }
    }

    /// Sources with at least one admission inside the longest window at
    /// the latest time any call passed.
    pub fn tracked_sources(&self) -> usize {
        self.slots.len()
    }
}

/// The per-source timestamp-deque limiter the ledger replaced, kept as
/// the oracle the ledger's decisions are checked against.
#[cfg(test)]
mod reference {
    use super::RateWindow;
    use crate::error::ServeError;
    use std::collections::HashMap;
    use std::collections::VecDeque;

    /// Each source owns a monotone deque of admission timestamps; stamps
    /// older than the longest window are evicted on the source's next
    /// admission, and once per horizon sources with no live stamp are
    /// swept out.
    #[derive(Debug, Clone)]
    pub(super) struct DequeLimiter {
        windows: Vec<RateWindow>,
        horizon_millis: u64,
        per_source: HashMap<u64, VecDeque<u64>>,
        next_sweep_millis: u64,
    }

    impl DequeLimiter {
        pub(super) fn new(mut windows: Vec<RateWindow>) -> Self {
            windows.sort_by_key(|w| w.secs);
            let horizon_millis = windows.last().map(|w| w.secs.saturating_mul(1_000)).unwrap_or(0);
            DequeLimiter {
                windows,
                horizon_millis,
                per_source: HashMap::new(),
                next_sweep_millis: 0,
            }
        }

        pub(super) fn admit(&mut self, source: u64, now_millis: u64) -> Result<(), ServeError> {
            if self.windows.is_empty() {
                return Ok(());
            }
            let horizon_cutoff = now_millis.saturating_sub(self.horizon_millis);
            if now_millis >= self.next_sweep_millis {
                self.per_source
                    .retain(|_, stamps| stamps.back().is_some_and(|&t| t >= horizon_cutoff));
                self.next_sweep_millis = now_millis.saturating_add(self.horizon_millis.max(1));
            }
            let stamps = self.per_source.entry(source).or_default();
            while stamps.front().is_some_and(|&t| t < horizon_cutoff) {
                stamps.pop_front();
            }
            for w in &self.windows {
                let cutoff = now_millis.saturating_sub(w.secs.saturating_mul(1_000));
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

        /// Sources with a stamp inside the longest window at `now_millis`.
        pub(super) fn live_sources(&self, now_millis: u64) -> usize {
            let cutoff = now_millis.saturating_sub(self.horizon_millis);
            self.per_source.values().filter(|s| s.back().is_some_and(|&t| t >= cutoff)).count()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::DequeLimiter;
    use super::*;
    use proptest::prelude::*;

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
        let logged = rl.log_stamps.len();
        assert!(logged <= 101, "eviction keeps only the live horizon, got {logged}");
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

    #[test]
    fn a_refused_new_source_holds_no_slot() {
        let mut rl = RateLimiter::new(vec![RateWindow::new(1, 3), RateWindow::new(10, 0)]);
        for source in 0..100 {
            assert_eq!(
                rl.admit(source, source).unwrap_err(),
                ServeError::RateLimited { source, window_secs: 10, limit: 0 }
            );
        }
        assert_eq!(rl.tracked_sources(), 0);
        assert!(rl.log_stamps.is_empty());
    }

    #[test]
    fn a_late_clock_reading_neither_panics_nor_frees_budget_early() {
        let limited =
            |window_secs, limit| ServeError::RateLimited { source: 1, window_secs, limit };
        let mut rl = RateLimiter::new(vec![RateWindow::new(1, 2), RateWindow::new(10, 3)]);
        rl.admit(1, 5_000).unwrap();
        // Read as 5 000, so the stamp stays inside the 1 s window until
        // 6 000; stamped at 0 it would already have left at 5 999.
        rl.admit(1, 0).unwrap();
        assert_eq!(rl.admit(1, 5_999).unwrap_err(), limited(1, 2));
        assert_eq!(rl.admit(1, 3).unwrap_err(), limited(1, 2));
        // A refused call's time counts too: 6 001 is the clock from here.
        assert_eq!(rl.admit(1, 6_001), Ok(()));
        assert_eq!(rl.admit(1, 6_000).unwrap_err(), limited(10, 3));
        rl.admit(2, 1).unwrap();
        assert!(rl.log_stamps.iter().zip(rl.log_stamps.iter().skip(1)).all(|(a, b)| a <= b));
        assert_eq!(rl.tracked_sources(), 2);
        // Both 5 000 stamps leave the 10 s window after 15 000.
        assert_eq!(rl.admit(1, 15_000).unwrap_err(), limited(10, 3));
        rl.admit(1, 15_001).unwrap();
        // Past every window, one admission leaves one source tracked.
        rl.admit(3, 100_000).unwrap();
        assert_eq!(rl.tracked_sources(), 1);
        assert_eq!(rl.log_stamps.len(), 1);
    }

    /// A window span: 0, `u64::MAX`, the defaults' 10 s and 60 s, or
    /// anything from 1 to 70 s.
    fn secs() -> impl Strategy<Value = u64> {
        (0..6u8, 1..=70u64).prop_map(|(kind, secs)| match kind {
            0 => 0,
            1 => u64::MAX,
            2 => 10,
            3 => 60,
            _ => secs,
        })
    }

    /// A step of logical time: none, a few milliseconds, up to 2.5 s, or
    /// up to 75 s, so that runs of admissions fill windows of every span
    /// and gaps cross each of them.
    fn gap() -> impl Strategy<Value = u64> {
        (0..8u8, 0..75_000u64).prop_map(|(kind, g)| match kind {
            0 | 1 => 0,
            2..=4 => g % 50,
            5 | 6 => g % 2_500,
            _ => g,
        })
    }

    /// The oracle's all-or-nothing batch: each request admitted in turn
    /// on a copy, which replaces the limiter only if all were admitted.
    fn oracle_admit_all(
        oracle: &mut DequeLimiter,
        sources: &[u64],
        now_millis: u64,
    ) -> Result<(), ServeError> {
        let mut trial = oracle.clone();
        for &source in sources {
            trial.admit(source, now_millis)?;
        }
        *oracle = trial;
        Ok(())
    }

    #[test]
    fn a_refused_batch_leaves_no_stamp() {
        let limited =
            |source, window_secs, limit| ServeError::RateLimited { source, window_secs, limit };
        let mut rl = RateLimiter::new(vec![RateWindow::new(1, 3), RateWindow::new(10, 4)]);
        rl.admit(1, 0).unwrap();
        // The batch's third charge to source 1 is its fourth in 1 s.
        assert_eq!(rl.admit_all([2, 1, 1, 1, 3], 5), Err(limited(1, 1, 3)));
        assert_eq!((rl.tracked_sources(), rl.log_stamps.len()), (1, 1));
        // Sources 2 and 3 spent nothing; source 1 still has two.
        rl.admit_all([1, 1, 2, 2, 2], 10).unwrap();
        assert_eq!(rl.admit(2, 10), Err(limited(2, 1, 3)));
        assert_eq!(rl.admit_all([3, 1], 20), Err(limited(1, 1, 3)));
        assert_eq!(rl.tracked_sources(), 2);
        // At 1 100 the stamps at 0 to 10 have left the 1 s window but
        // not the 10 s one, and a later reading of 50 is read as 1 100.
        rl.admit_all([3], 1_100).unwrap();
        assert_eq!(rl.admit_all([1, 1, 3], 50), Err(limited(1, 10, 4)));
        rl.admit_all([1, 3, 3], 60).unwrap();
        assert_eq!(rl.admit(1, 70), Err(limited(1, 10, 4)));
        assert_eq!(rl.tracked_sources(), 3);
        assert_eq!(rl.admit_all(std::iter::empty(), 70), Ok(()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Every decision of the ledger is the deque limiter's, single
        /// admissions and all-or-nothing batches alike, and the ledger
        /// tracks exactly the sources with a stamp in the longest window.
        #[test]
        fn ledger_decides_as_the_deque_limiter(
            windows in proptest::collection::vec((secs(), 0..12usize), 0..5),
            sources in 1..=64u64,
            start in 0..200_000u64,
            events in proptest::collection::vec(
                (proptest::collection::vec(0..64u64, 1..8), 0..4u8, gap()),
                1..2_000,
            ),
        ) {
            let windows: Vec<RateWindow> =
                windows.into_iter().map(|(secs, limit)| RateWindow::new(secs, limit)).collect();
            let mut ledger = RateLimiter::new(windows.clone());
            let mut oracle = DequeLimiter::new(windows);
            let mut now = start;
            for (raws, kind, gap) in events {
                now += gap;
                let batch: Vec<u64> = raws
                    .iter()
                    .map(|raw| (raw % sources).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .collect();
                // One event in four is a batch, the rest single admissions.
                if kind == 0 {
                    prop_assert_eq!(
                        ledger.admit_all(batch.iter().copied(), now),
                        oracle_admit_all(&mut oracle, &batch, now)
                    );
                } else {
                    prop_assert_eq!(ledger.admit(batch[0], now), oracle.admit(batch[0], now));
                }
                prop_assert_eq!(ledger.tracked_sources(), oracle.live_sources(now));
            }
        }
    }
}
