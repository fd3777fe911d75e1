//! The corpus container: chronological attack records plus the substrate
//! they were observed on.

use crate::attack::AttackRecord;
use crate::family::{FamilyCatalog, FamilyId};
use crate::targets::TargetPopulation;
use crate::{Result, TraceError};
use ddos_astopo::graph::AsGraph;
use ddos_astopo::ipmap::IpAsnMap;
use ddos_astopo::paths::PathOracle;
use ddos_astopo::{Asn, DenseTopology, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A complete verified-attack corpus.
///
/// Holds the chronologically ordered attacks together with the synthetic
/// Internet they were generated on, the IP→ASN mapping, the target
/// population and the family catalog — everything the feature extractors
/// in `ddos-core` need.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Corpus {
    attacks: Vec<AttackRecord>,
    catalog: FamilyCatalog,
    topology: AsGraph,
    ipmap: IpAsnMap,
    targets: TargetPopulation,
    days: u32,
    /// Memoized target-AS → attack-position index. Derived data: skipped
    /// by serde and `PartialEq`; the attack list is immutable after
    /// construction, so the index never goes stale.
    #[serde(skip)]
    by_target_asn: OnceLock<BTreeMap<Asn, Vec<u32>>>,
    /// Memoized valley-free distance oracle over `topology`, shared by
    /// every Eq. 4 computation on this corpus (and by its clones, whose
    /// topology is the same). Derived data like `by_target_asn`.
    #[serde(skip)]
    oracle: OnceLock<Arc<PathOracle>>,
    /// Memoized per-AS address-space table over `topology` and `ipmap`
    /// (Eq. 4's `N_{AS_j}`). Derived data like `by_target_asn`.
    #[serde(skip)]
    address_space: OnceLock<Arc<AddressSpace>>,
    /// Set once [`Corpus::warm_asn_histograms`] has run. Derived data
    /// like `by_target_asn`; a clone of a warmed corpus has warm records.
    #[serde(skip)]
    histograms: OnceLock<()>,
}

/// Eq. 4's `N_{AS_j}` for every AS: the IPv4 addresses allocated to the
/// AS, or 1 for an AS with none. Indexed by dense node id, so a lookup of
/// a topology AS is O(1).
#[derive(Debug)]
pub struct AddressSpace {
    dense: Arc<DenseTopology>,
    by_node: Vec<u64>,
    /// ASes the address map holds but the topology does not, ascending
    /// by ASN.
    off_topology: Vec<(Asn, u64)>,
}

impl AddressSpace {
    fn build(topology: &AsGraph, ipmap: &IpAsnMap) -> Self {
        let dense = topology.dense();
        let mut by_node = vec![1; dense.len()];
        let mut off_topology = Vec::new();
        for (asn, space) in ipmap.address_space_by_asn() {
            match dense.node_id(asn) {
                Some(node) => by_node[node.index()] = space.max(1),
                None => off_topology.push((asn, space.max(1))),
            }
        }
        AddressSpace { dense, by_node, off_topology }
    }

    /// `N_{AS_j}`: the addresses allocated to `asn`, or 1 when it has none.
    pub fn of(&self, asn: Asn) -> u64 {
        match self.dense.node_id(asn) {
            Some(node) => self.by_node[node.index()],
            None => self
                .off_topology
                .binary_search_by_key(&asn, |&(a, _)| a)
                .map_or(1, |i| self.off_topology[i].1),
        }
    }
}

impl PartialEq for Corpus {
    fn eq(&self, other: &Self) -> bool {
        self.attacks == other.attacks
            && self.catalog == other.catalog
            && self.topology == other.topology
            && self.ipmap == other.ipmap
            && self.targets == other.targets
            && self.days == other.days
    }
}

impl Corpus {
    /// Assembles a corpus. Attacks must already be chronologically sorted.
    ///
    /// # Errors
    ///
    /// * [`TraceError::EmptyCorpus`] when no attacks are given.
    /// * [`TraceError::InvalidConfig`] when attacks are out of order.
    pub fn new(
        attacks: Vec<AttackRecord>,
        catalog: FamilyCatalog,
        topology: AsGraph,
        ipmap: IpAsnMap,
        targets: TargetPopulation,
        days: u32,
    ) -> Result<Self> {
        if attacks.is_empty() {
            return Err(TraceError::EmptyCorpus);
        }
        if attacks.windows(2).any(|w| w[0].start > w[1].start) {
            return Err(TraceError::InvalidConfig {
                detail: "attacks must be chronologically sorted".to_string(),
            });
        }
        Ok(Corpus {
            attacks,
            catalog,
            topology,
            ipmap,
            targets,
            days,
            by_target_asn: OnceLock::new(),
            oracle: OnceLock::new(),
            address_space: OnceLock::new(),
            histograms: OnceLock::new(),
        })
    }

    /// All attacks, chronological.
    pub fn attacks(&self) -> &[AttackRecord] {
        &self.attacks
    }

    /// Number of attacks.
    pub fn len(&self) -> usize {
        self.attacks.len()
    }

    /// Whether the corpus is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.attacks.is_empty()
    }

    /// The family catalog.
    pub fn catalog(&self) -> &FamilyCatalog {
        &self.catalog
    }

    /// The synthetic Internet.
    pub fn topology(&self) -> &AsGraph {
        &self.topology
    }

    /// The valley-free distance oracle over [`Corpus::topology`], built
    /// on first use and kept for the corpus's lifetime, so its cone cache
    /// and pair table fill once however many stages compute Eq. 4.
    pub fn path_oracle(&self) -> &PathOracle {
        self.oracle.get_or_init(|| Arc::new(PathOracle::new(&self.topology)))
    }

    /// The per-AS address-space table over [`Corpus::topology`] and
    /// [`Corpus::ip_map`], built on first use and kept for the corpus's
    /// lifetime, so every Eq. 4 computation on it reads one table.
    pub fn address_space(&self) -> &AddressSpace {
        self.address_space
            .get_or_init(|| Arc::new(AddressSpace::build(&self.topology, &self.ipmap)))
    }

    /// Fills every record's memoized [`AttackRecord::asn_histogram`] in
    /// one counting pass over the corpus: each bot's ASN is counted into
    /// one buffer indexed by dense node id ([`DenseTopology::node_id`]),
    /// and a record's touched ids, sorted (ids ascend with ASN), give its
    /// histogram without sorting its bots. Runs once per corpus; later
    /// calls return at once. Records whose memo is already filled keep
    /// it, and a record with a bot outside the topology is left to
    /// compute its own. Every extractor of source-AS features calls it
    /// before reading histograms.
    pub fn warm_asn_histograms(&self) {
        self.histograms.get_or_init(|| {
            let dense = self.topology.dense();
            let mut counts = vec![0u32; dense.len()];
            let mut touched: Vec<NodeId> = Vec::new();
            'records: for attack in &self.attacks {
                if attack.memoized_histogram().is_some() {
                    continue;
                }
                let bots = attack.bots();
                if touched.len() < bots.len() {
                    touched.resize(bots.len(), NodeId(0));
                }
                // Every id is written to the next free place, which only a
                // first sighting claims: no branch on the count.
                let mut distinct = 0;
                for bot in bots {
                    let Some(node) = dense.node_id(bot.asn) else {
                        for node in &touched[..distinct] {
                            counts[node.index()] = 0;
                        }
                        continue 'records;
                    };
                    let count = counts[node.index()];
                    counts[node.index()] = count + 1;
                    touched[distinct] = node;
                    distinct += usize::from(count == 0);
                }
                let touched = &mut touched[..distinct];
                touched.sort_unstable();
                let mut hist = Vec::with_capacity(distinct);
                hist.extend(
                    touched
                        .iter()
                        .map(|node| (dense.asn(*node), std::mem::take(&mut counts[node.index()]))),
                );
                attack.memoize_histogram(hist);
            }
        });
    }

    /// The IP→ASN mapping.
    pub fn ip_map(&self) -> &IpAsnMap {
        &self.ipmap
    }

    /// The target population.
    pub fn targets(&self) -> &TargetPopulation {
        &self.targets
    }

    /// Length of the observation window in days.
    pub fn days(&self) -> u32 {
        self.days
    }

    /// Chronological attacks of one family.
    pub fn family_attacks(&self, family: FamilyId) -> Vec<&AttackRecord> {
        self.attacks.iter().filter(|a| a.family == family).collect()
    }

    /// Chronological attacks on targets inside one AS (the spatial model's
    /// grouping: "all target-related variables characterize DDoS attacks in
    /// the same network region (AS-level)", §V). Served from a memoized
    /// per-AS index built on first use, so repeated queries stop
    /// rescanning the whole corpus.
    pub fn attacks_on_asn(&self, asn: Asn) -> Vec<&AttackRecord> {
        let index = self.by_target_asn.get_or_init(|| {
            let mut index: BTreeMap<Asn, Vec<u32>> = BTreeMap::new();
            for (i, a) in self.attacks.iter().enumerate() {
                index.entry(a.target_asn).or_default().push(i as u32);
            }
            index
        });
        index
            .get(&asn)
            .map(|ix| ix.iter().map(|i| &self.attacks[*i as usize]).collect())
            .unwrap_or_default()
    }

    /// Distinct target ASes observed, ascending.
    pub fn target_asns(&self) -> Vec<Asn> {
        let set: std::collections::BTreeSet<Asn> =
            self.attacks.iter().map(|a| a.target_asn).collect();
        set.into_iter().collect()
    }

    /// Chronological train/test split at `fraction` (the paper uses 80/20:
    /// 40,563 training and 10,141 testing attacks). Test data strictly
    /// follows training data in time, so it "has no effect on training".
    ///
    /// Both halves hold at least one attack.
    ///
    /// # Errors
    ///
    /// * [`TraceError::BadSplit`] unless `0 < fraction < 1`.
    /// * [`TraceError::TooFewAttacks`] when the corpus holds one attack,
    ///   which cannot fill both halves.
    pub fn split(&self, fraction: f64) -> Result<(&[AttackRecord], &[AttackRecord])> {
        if !(fraction > 0.0 && fraction < 1.0) {
            return Err(TraceError::BadSplit(fraction));
        }
        if self.attacks.len() < 2 {
            return Err(TraceError::TooFewAttacks { required: 2, actual: self.attacks.len() });
        }
        let cut = ((self.attacks.len() as f64) * fraction).round() as usize;
        let cut = cut.clamp(1, self.attacks.len() - 1);
        Ok(self.attacks.split_at(cut))
    }

    /// Daily attack counts for a family over the whole window (inactive
    /// days count zero).
    pub fn daily_counts(&self, family: FamilyId) -> Vec<f64> {
        let mut counts = vec![0.0; self.days as usize + 3];
        for a in self.attacks.iter().filter(|a| a.family == family) {
            let d = a.start.day() as usize;
            if d < counts.len() {
                counts[d] += 1.0;
            }
        }
        counts
    }

    /// Daily counts restricted to *active* days (what Table I averages
    /// over).
    pub fn active_daily_counts(&self, family: FamilyId) -> Vec<f64> {
        self.daily_counts(family).into_iter().filter(|c| *c > 0.0).collect()
    }

    /// Validates every structural invariant of the corpus and returns the
    /// first violation found: chronological order, dense ids, record
    /// consistency (snapshots/magnitude/duration), targets resolvable,
    /// bots resolvable through the IP map. Generated corpora always pass;
    /// this is the integrity gate for corpora loaded from external
    /// sources.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidConfig`] describing the violation.
    pub fn validate(&self) -> Result<()> {
        let bad = |detail: String| Err(TraceError::InvalidConfig { detail });
        for (i, a) in self.attacks.iter().enumerate() {
            if a.id.0 != i as u64 {
                return bad(format!("attack at index {i} has id {}", a.id));
            }
            if i > 0 && self.attacks[i - 1].start > a.start {
                return bad(format!("attack {} out of chronological order", a.id));
            }
            if !a.is_consistent() {
                return bad(format!("attack {} has inconsistent snapshots", a.id));
            }
            if self.targets.target(a.target).is_err() {
                return bad(format!("attack {} references unknown {}", a.id, a.target));
            }
            if !self.topology.contains(a.target_asn) {
                return bad(format!("attack {} targets unknown {}", a.id, a.target_asn));
            }
            for b in a.bots() {
                if self.ipmap.lookup(b.ip) != Some(b.asn) {
                    return bad(format!(
                        "attack {}: bot {} does not resolve to {}",
                        a.id,
                        ddos_astopo::ipmap::format_ipv4(b.ip),
                        b.asn
                    ));
                }
            }
            if self.catalog.profile(a.family).is_err() {
                return bad(format!("attack {} references unknown {}", a.id, a.family));
            }
        }
        Ok(())
    }

    /// Per-AS attack counts over all targets, descending by count.
    pub fn hottest_target_asns(&self, n: usize) -> Vec<(Asn, usize)> {
        let mut counts: BTreeMap<Asn, usize> = BTreeMap::new();
        for a in &self.attacks {
            *counts.entry(a.target_asn).or_insert(0) += 1;
        }
        let mut v: Vec<(Asn, usize)> = counts.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::BotObservation;
    use crate::generator::{CorpusConfig, TraceGenerator};

    fn corpus() -> Corpus {
        TraceGenerator::new(CorpusConfig::small(), 71).generate().unwrap()
    }

    /// `warmed`'s records hold the memos that `cold`'s compute for
    /// themselves by the per-record sort, as equal `Vec`s without spare
    /// capacity.
    fn assert_memos_match_the_sort(warmed: &Corpus, cold: &Corpus) {
        for (warm, cold) in warmed.attacks().iter().zip(cold.attacks()) {
            assert!(cold.memoized_histogram().is_none(), "{} was warm", cold.id);
            cold.asn_histogram();
            let (memo, sorted) = (warm.memoized_histogram(), cold.memoized_histogram());
            let memo = memo.unwrap_or_else(|| panic!("{} has no memo", warm.id));
            assert_eq!(Some(memo), sorted, "{}", warm.id);
            assert_eq!(memo.capacity(), memo.len(), "{}", warm.id);
        }
    }

    /// The counting pass gives every record of the small corpus and of
    /// the 30-day medium one the memo the per-record sort gives it. It
    /// does not run during generation, a clone of a warmed corpus holds
    /// the same memos, and `bots_mut` after the pass drops a record's
    /// memo so the record sorts its new bots.
    #[test]
    fn counting_pass_matches_the_per_record_sort() {
        let medium = CorpusConfig { days: 30, ..CorpusConfig::medium() };
        for config in [CorpusConfig::small(), medium] {
            let warmed = TraceGenerator::new(config, 42).generate().unwrap();
            let (cold, cold_for_clone) = (warmed.clone(), warmed.clone());
            assert!(warmed.attacks().iter().all(|a| a.memoized_histogram().is_none()));
            warmed.warm_asn_histograms();
            assert_memos_match_the_sort(&warmed, &cold);
            let clone = warmed.clone();
            clone.warm_asn_histograms();
            assert_memos_match_the_sort(&clone, &cold_for_clone);

            let mut record = warmed.attacks()[0].clone();
            let extra = BotObservation { ip: u32::MAX, asn: record.bots()[0].asn };
            record.bots_mut().push(extra);
            assert!(record.memoized_histogram().is_none());
            let mut expected = warmed.attacks()[0].asn_histogram().to_vec();
            let at = expected.binary_search_by_key(&extra.asn, |&(a, _)| a).unwrap();
            expected[at].1 += 1;
            assert_eq!(record.asn_histogram(), &expected[..]);
        }
    }

    /// The pass leaves alone a record with a bot outside the topology
    /// (the record sorts its own histogram) and a record whose memo is
    /// already filled, and fills every other.
    #[test]
    fn counting_pass_skips_off_topology_bots_and_filled_memos() {
        let template = corpus();
        let off = Asn(4_000_000_000);
        assert!(!template.topology().contains(off));
        let mut attacks = template.attacks()[..3].to_vec();
        attacks[1].bots_mut().push(BotObservation { ip: u32::MAX, asn: off });
        attacks[2].asn_histogram();
        let corpus = Corpus::new(
            attacks.clone(),
            template.catalog().clone(),
            template.topology().clone(),
            template.ip_map().clone(),
            template.targets().clone(),
            template.days(),
        )
        .unwrap();
        let filled = corpus.attacks()[2].memoized_histogram().expect("memo cloned in").as_ptr();
        corpus.warm_asn_histograms();
        let [first, off_topology, memoized] = corpus.attacks() else { panic!("three records") };
        assert!(first.memoized_histogram().is_some());
        assert!(off_topology.memoized_histogram().is_none());
        assert_eq!(memoized.asn_histogram().as_ptr(), filled);
        for (record, reference) in corpus.attacks().iter().zip(&attacks) {
            assert_eq!(record.asn_histogram(), reference.asn_histogram());
        }
        assert_eq!(off_topology.asn_histogram().last(), Some(&(off, 1)));
    }

    #[test]
    fn split_is_chronological_80_20() {
        let c = corpus();
        let (train, test) = c.split(0.8).unwrap();
        assert_eq!(train.len() + test.len(), c.len());
        let ratio = train.len() as f64 / c.len() as f64;
        assert!((ratio - 0.8).abs() < 0.01);
        assert!(train.last().unwrap().start <= test.first().unwrap().start);
    }

    #[test]
    fn split_rejects_bad_fractions() {
        let c = corpus();
        assert!(matches!(c.split(0.0), Err(TraceError::BadSplit(_))));
        assert!(matches!(c.split(1.0), Err(TraceError::BadSplit(_))));
        assert!(matches!(c.split(-0.3), Err(TraceError::BadSplit(_))));
    }

    #[test]
    fn split_of_a_one_attack_corpus_is_a_typed_error() {
        let c = corpus();
        let prefix = |n: usize| {
            Corpus::new(
                c.attacks()[..n].to_vec(),
                c.catalog().clone(),
                c.topology().clone(),
                c.ip_map().clone(),
                c.targets().clone(),
                c.days(),
            )
            .unwrap()
        };
        assert_eq!(prefix(1).split(0.8), Err(TraceError::TooFewAttacks { required: 2, actual: 1 }));
        let two = prefix(2);
        let (train, test) = two.split(0.8).unwrap();
        assert_eq!((train.len(), test.len()), (1, 1));
    }

    #[test]
    fn family_views_partition_the_corpus() {
        let c = corpus();
        let total: usize = c.catalog().iter().map(|(id, _)| c.family_attacks(id).len()).sum();
        assert_eq!(total, c.len());
    }

    #[test]
    fn asn_views_partition_the_corpus() {
        let c = corpus();
        let total: usize = c.target_asns().iter().map(|a| c.attacks_on_asn(*a).len()).sum();
        assert_eq!(total, c.len());
    }

    #[test]
    fn daily_counts_sum_to_family_total() {
        let c = corpus();
        for (id, _) in c.catalog().iter() {
            let total: f64 = c.daily_counts(id).iter().sum();
            assert_eq!(total as usize, c.family_attacks(id).len());
            let active: f64 = c.active_daily_counts(id).iter().sum();
            assert_eq!(active, total);
        }
    }

    #[test]
    fn hottest_asns_sorted_desc() {
        let c = corpus();
        let hot = c.hottest_target_asns(5);
        assert!(!hot.is_empty());
        for w in hot.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn empty_corpus_rejected() {
        let c = corpus();
        let err = Corpus::new(
            Vec::new(),
            c.catalog().clone(),
            c.topology().clone(),
            c.ip_map().clone(),
            c.targets().clone(),
            10,
        );
        assert!(matches!(err, Err(TraceError::EmptyCorpus)));
    }

    #[test]
    fn unsorted_attacks_rejected() {
        let c = corpus();
        let mut attacks: Vec<AttackRecord> = c.attacks().to_vec();
        attacks.swap(0, c.len() - 1);
        let err = Corpus::new(
            attacks,
            c.catalog().clone(),
            c.topology().clone(),
            c.ip_map().clone(),
            c.targets().clone(),
            c.days(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn generated_corpus_validates() {
        let c = corpus();
        c.validate().unwrap();
    }

    #[test]
    fn validate_catches_corruption() {
        let c = corpus();
        // Corrupt one record's snapshots.
        let mut attacks: Vec<AttackRecord> = c.attacks().to_vec();
        attacks[3].hourly_bot_counts.clear();
        let broken = Corpus::new(
            attacks,
            c.catalog().clone(),
            c.topology().clone(),
            c.ip_map().clone(),
            c.targets().clone(),
            c.days(),
        )
        .unwrap();
        let err = broken.validate().unwrap_err();
        assert!(err.to_string().contains("inconsistent"), "{err}");

        // Corrupt a bot's ASN.
        let mut attacks: Vec<AttackRecord> = c.attacks().to_vec();
        attacks[0].bots_mut()[0].asn = ddos_astopo::Asn(999_999);
        let broken = Corpus::new(
            attacks,
            c.catalog().clone(),
            c.topology().clone(),
            c.ip_map().clone(),
            c.targets().clone(),
            c.days(),
        )
        .unwrap();
        assert!(broken.validate().is_err());
    }
}
