//! Attack records: the unit of the corpus.
//!
//! In the source dataset "a DDoS attack is labeled with a unique DDoS
//! identifier, corresponding to an attack by given DDoS malware family on a
//! given target" (§II-C), carries a start timestamp and a `Duration`
//! attribute, and is associated with the set of bot IPs observed in hourly
//! snapshots. [`AttackRecord`] carries exactly those fields.

use crate::family::FamilyId;
use crate::targets::TargetId;
use crate::time::Timestamp;
use ddos_astopo::Asn;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// The traffic mechanism an attack uses — the paper's introduction calls
/// out "the attack traffic mechanisms utilized to launch the attacks" as
/// one axis of DDoS complexity, and real families mix floods and
/// amplification differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackVector {
    /// TCP SYN flood (state exhaustion).
    SynFlood,
    /// Raw UDP volumetric flood.
    UdpFlood,
    /// Application-layer HTTP request flood.
    HttpFlood,
    /// Reflected/amplified traffic (DNS/NTP-style).
    Amplification,
}

impl AttackVector {
    /// All vectors, in stable order (the categorical-sampler index order).
    pub const ALL: [AttackVector; 4] = [
        AttackVector::SynFlood,
        AttackVector::UdpFlood,
        AttackVector::HttpFlood,
        AttackVector::Amplification,
    ];

    /// Stable index into [`AttackVector::ALL`].
    pub fn index(self) -> usize {
        match self {
            AttackVector::SynFlood => 0,
            AttackVector::UdpFlood => 1,
            AttackVector::HttpFlood => 2,
            AttackVector::Amplification => 3,
        }
    }
}

impl fmt::Display for AttackVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackVector::SynFlood => write!(f, "syn-flood"),
            AttackVector::UdpFlood => write!(f, "udp-flood"),
            AttackVector::HttpFlood => write!(f, "http-flood"),
            AttackVector::Amplification => write!(f, "amplification"),
        }
    }
}

/// Unique identifier of a verified DDoS attack (the paper's "DDoS ID").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct AttackId(pub u64);

impl fmt::Display for AttackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ddos#{}", self.0)
    }
}

/// One bot observed participating in an attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BotObservation {
    /// The bot's IPv4 address (host order).
    pub ip: u32,
    /// The AS hosting the bot (as the commercial IP→ASN mapping would
    /// report it).
    pub asn: Asn,
}

/// A verified DDoS attack record.
///
/// The bot list is private behind [`AttackRecord::bots`] /
/// [`AttackRecord::bots_mut`] so the per-AS histogram — the hottest
/// derived quantity in the spatial models — can be memoized safely:
/// mutation through `bots_mut` drops the cache.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttackRecord {
    /// Unique attack identifier.
    pub id: AttackId,
    /// Launching botnet family.
    pub family: FamilyId,
    /// The victim.
    pub target: TargetId,
    /// The victim's AS (the paper's `T_l` variable).
    pub target_asn: Asn,
    /// Launch time.
    pub start: Timestamp,
    /// Attack duration in seconds (the paper's `Duration` attribute / `T^d`).
    pub duration_secs: u64,
    /// Distinct bots observed over the attack's lifetime.
    bots: Vec<BotObservation>,
    /// Hourly snapshots of the *cumulative* number of distinct bots seen by
    /// the end of each hour of the attack (at least one snapshot).
    pub hourly_bot_counts: Vec<u32>,
    /// Whether this record was flagged as a multistage follow-up: same
    /// target as the family's previous attack, 30 s–24 h after it.
    pub multistage: bool,
    /// The traffic mechanism used.
    pub vector: AttackVector,
    /// Memoized bots-per-AS histogram, sorted ascending by ASN. Pure
    /// derived data: skipped by serde and `PartialEq`, invalidated by
    /// [`AttackRecord::bots_mut`].
    #[serde(skip)]
    hist: OnceLock<Vec<(Asn, u32)>>,
}

impl PartialEq for AttackRecord {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.family == other.family
            && self.target == other.target
            && self.target_asn == other.target_asn
            && self.start == other.start
            && self.duration_secs == other.duration_secs
            && self.bots == other.bots
            && self.hourly_bot_counts == other.hourly_bot_counts
            && self.multistage == other.multistage
            && self.vector == other.vector
    }
}

impl AttackRecord {
    /// Assembles a record from its observed fields.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: AttackId,
        family: FamilyId,
        target: TargetId,
        target_asn: Asn,
        start: Timestamp,
        duration_secs: u64,
        bots: Vec<BotObservation>,
        hourly_bot_counts: Vec<u32>,
        multistage: bool,
        vector: AttackVector,
    ) -> Self {
        AttackRecord {
            id,
            family,
            target,
            target_asn,
            start,
            duration_secs,
            bots,
            hourly_bot_counts,
            multistage,
            vector,
            hist: OnceLock::new(),
        }
    }

    /// The distinct bots observed over the attack's lifetime.
    pub fn bots(&self) -> &[BotObservation] {
        &self.bots
    }

    /// Mutable access to the bot list; drops the memoized histogram so
    /// derived queries stay consistent.
    pub fn bots_mut(&mut self) -> &mut Vec<BotObservation> {
        self.hist.take();
        &mut self.bots
    }

    /// Magnitude of the attack: number of distinct participating bots
    /// (the paper measures attack magnitude by bot count, after Mao et al.).
    pub fn magnitude(&self) -> usize {
        self.bots.len()
    }

    /// The attack's end time.
    pub fn end(&self) -> Timestamp {
        self.start + self.duration_secs
    }

    /// Distinct source ASes, ascending: the keys of
    /// [`AttackRecord::asn_histogram`].
    pub fn source_asns(&self) -> Vec<Asn> {
        self.asn_histogram().iter().map(|&(asn, _)| asn).collect()
    }

    /// Histogram of bots per source AS, ascending by ASN, memoized at
    /// exact capacity; lookups can `binary_search` by ASN. A corpus fills
    /// the memos of its records in one counting pass
    /// ([`crate::Corpus::warm_asn_histograms`]); a record it has not
    /// filled computes its own, once, by sorting the bots' ASNs and
    /// run-length counting them. That sort is the definition the pass
    /// must match.
    pub fn asn_histogram(&self) -> &[(Asn, u32)] {
        self.hist.get_or_init(|| {
            let mut asns: Vec<Asn> = self.bots.iter().map(|b| b.asn).collect();
            asns.sort_unstable();
            let runs = asns.chunk_by(|a, b| a == b);
            let mut hist = Vec::with_capacity(runs.clone().count());
            hist.extend(runs.map(|run| (run[0], run.len() as u32)));
            hist
        })
    }

    /// Memoizes `hist` as this record's histogram unless one is memoized
    /// already. The corpus's counting pass
    /// ([`crate::Corpus::warm_asn_histograms`]) fills records this way;
    /// `hist` must equal what [`AttackRecord::asn_histogram`] computes.
    pub(crate) fn memoize_histogram(&self, hist: Vec<(Asn, u32)>) {
        // A memo some other reader set first holds the same histogram.
        let _ = self.hist.set(hist);
    }

    /// The memoized histogram, if any.
    pub(crate) fn memoized_histogram(&self) -> Option<&Vec<(Asn, u32)>> {
        self.hist.get()
    }

    /// Internal consistency check used by generator tests and property
    /// tests: snapshots must be monotone, end at the full magnitude, and
    /// cover the duration.
    pub fn is_consistent(&self) -> bool {
        let Some(&last) = self.hourly_bot_counts.last() else {
            return false;
        };
        if self.hourly_bot_counts.windows(2).any(|w| w[0] > w[1]) {
            return false;
        }
        if last as usize != self.bots.len() {
            return false;
        }
        let hours_needed = self.duration_secs.div_ceil(crate::time::HOUR).max(1);
        self.hourly_bot_counts.len() as u64 == hours_needed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> AttackRecord {
        AttackRecord::new(
            AttackId(7),
            FamilyId(0),
            TargetId(3),
            Asn(500),
            Timestamp::from_day_hour(2, 10),
            5_400, // 1.5 h → 2 snapshots
            vec![
                BotObservation { ip: 1, asn: Asn(10) },
                BotObservation { ip: 2, asn: Asn(10) },
                BotObservation { ip: 3, asn: Asn(20) },
            ],
            vec![2, 3],
            false,
            AttackVector::SynFlood,
        )
    }

    #[test]
    fn magnitude_counts_bots() {
        assert_eq!(sample().magnitude(), 3);
    }

    #[test]
    fn end_adds_duration() {
        let a = sample();
        assert_eq!(a.end().as_secs(), a.start.as_secs() + 5_400);
    }

    #[test]
    fn source_asns_dedup_sorted() {
        assert_eq!(sample().source_asns(), vec![Asn(10), Asn(20)]);
    }

    #[test]
    fn asn_histogram_counts() {
        assert_eq!(sample().asn_histogram(), &[(Asn(10), 2), (Asn(20), 1)]);
    }

    #[test]
    fn histogram_cache_invalidated_by_mutation() {
        let mut a = sample();
        assert_eq!(a.asn_histogram(), &[(Asn(10), 2), (Asn(20), 1)]);
        a.bots_mut().push(BotObservation { ip: 4, asn: Asn(20) });
        assert_eq!(a.asn_histogram(), &[(Asn(10), 2), (Asn(20), 2)]);
        a.hourly_bot_counts = vec![2, 4];
        assert!(a.is_consistent());
    }

    /// ASNs a random bot list draws from: ASN 0, `u32::MAX` and a small
    /// middle range, so repeats are common.
    fn arb_asn() -> impl Strategy<Value = Asn> {
        (0u32..14).prop_map(|k| match k {
            0 => Asn(0),
            13 => Asn(u32::MAX),
            k => Asn(k),
        })
    }

    fn with_bots(asns: &[Asn]) -> AttackRecord {
        let mut a = sample();
        *a.bots_mut() =
            asns.iter().enumerate().map(|(i, &asn)| BotObservation { ip: i as u32, asn }).collect();
        a
    }

    /// The reference histogram: a `BTreeMap` count.
    fn btree_histogram(asns: &[Asn]) -> Vec<(Asn, u32)> {
        let mut counts: std::collections::BTreeMap<Asn, u32> = std::collections::BTreeMap::new();
        for &asn in asns {
            *counts.entry(asn).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The sort-and-count histogram equals a `BTreeMap` count, its
        /// memo holds no spare capacity, `source_asns` lists its keys, and
        /// `bots_mut` drops the memo.
        #[test]
        fn asn_histogram_matches_btree_count(
            asns in proptest::collection::vec(arb_asn(), 0..64),
            single in arb_asn(),
            n_single in 1usize..8,
            extra in arb_asn(),
        ) {
            for asns in [asns, vec![single; n_single]] {
                let mut a = with_bots(&asns);
                let reference = btree_histogram(&asns);
                prop_assert_eq!(a.asn_histogram(), &reference[..]);
                let memo = a.hist.get().expect("memoized");
                prop_assert_eq!(memo.capacity(), memo.len());
                let keys: Vec<Asn> = reference.iter().map(|&(asn, _)| asn).collect();
                prop_assert_eq!(a.source_asns(), keys);

                a.bots_mut().push(BotObservation { ip: u32::MAX, asn: extra });
                prop_assert!(a.hist.get().is_none());
                let mut grown = asns.clone();
                grown.push(extra);
                prop_assert_eq!(a.asn_histogram(), &btree_histogram(&grown)[..]);
            }
        }
    }

    #[test]
    fn consistency_accepts_valid_record() {
        assert!(sample().is_consistent());
    }

    #[test]
    fn consistency_rejects_bad_snapshots() {
        let mut a = sample();
        a.hourly_bot_counts = vec![3, 2];
        assert!(!a.is_consistent());

        let mut a = sample();
        a.hourly_bot_counts = vec![2, 2]; // final != magnitude
        assert!(!a.is_consistent());

        let mut a = sample();
        a.hourly_bot_counts = vec![3]; // wrong snapshot count for 1.5h
        assert!(!a.is_consistent());

        let mut a = sample();
        a.hourly_bot_counts.clear();
        assert!(!a.is_consistent());
    }

    #[test]
    fn display_ids() {
        assert_eq!(AttackId(5).to_string(), "ddos#5");
    }

    #[test]
    fn vector_index_round_trips() {
        for (i, v) in AttackVector::ALL.iter().enumerate() {
            assert_eq!(v.index(), i);
        }
        assert_eq!(AttackVector::Amplification.to_string(), "amplification");
    }
}
