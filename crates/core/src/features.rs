//! Feature extraction (§III): turning raw attack records into the model
//! variables of Table II.
//!
//! The [`FeatureExtractor`] borrows a corpus's valley-free
//! [`PathOracle`] ([`Corpus::path_oracle`]) and its per-AS address-space
//! table ([`Corpus::address_space`]), Eq. 4's intra-AS term. All series
//! are chronological (the corpus guarantees attack ordering).

use crate::{ModelError, Result};
use ddos_astopo::paths::{PairScratch, PathOracle};
use ddos_astopo::{Asn, DenseTopology, NodeId};
use ddos_trace::dataset::AddressSpace;
use ddos_trace::{AttackRecord, Corpus};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Feature extractor over one corpus.
///
/// It borrows the corpus's memoized distance oracle and address-space
/// table, so every extractor built on one corpus (and the stages that
/// build them) shares one cone cache, one complete pair table and one
/// `N_{AS_j}` table: a second extractor starts warm and costs nothing to
/// build. The first extractor on a corpus fills every record's ASN
/// histogram in one counting pass ([`Corpus::warm_asn_histograms`]).
/// The tables are indexed by the topology's dense node ids, so Eq. 4
/// finds each `N_{AS_j}` in O(1) and Fig. 2 ranks source ASes by a
/// dense per-AS sum.
///
/// # Example
///
/// ```
/// use ddos_core::features::FeatureExtractor;
/// use ddos_trace::{CorpusConfig, TraceGenerator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let corpus = TraceGenerator::new(CorpusConfig::small(), 42).generate()?;
/// let fx = FeatureExtractor::new(&corpus);
/// let family = corpus.catalog().most_active(1)[0];
/// let attacks = corpus.family_attacks(family);
/// let mags = FeatureExtractor::magnitude_series(&attacks);
/// assert_eq!(mags.len(), attacks.len());
/// let a_s = fx.source_distribution(attacks[0])?;
/// assert!(a_s >= 0.0);
/// let (asns, shares) = fx.as_share_series(&attacks, 3);
/// assert_eq!(shares.len(), asns.len());
/// # Ok(())
/// # }
/// ```
pub struct FeatureExtractor<'c> {
    oracle: &'c PathOracle,
    space: &'c AddressSpace,
    dense: Arc<DenseTopology>,
}

impl<'c> FeatureExtractor<'c> {
    /// Builds an extractor over the corpus's memoized distance oracle,
    /// address-space table and ASN histograms (filling the histograms
    /// first when no extractor has).
    pub fn new(corpus: &'c Corpus) -> Self {
        corpus.warm_asn_histograms();
        FeatureExtractor {
            oracle: corpus.path_oracle(),
            space: corpus.address_space(),
            dense: corpus.topology().dense(),
        }
    }

    /// Per-attack magnitudes (distinct bot counts) — the series behind
    /// Fig. 1.
    pub fn magnitude_series(attacks: &[&AttackRecord]) -> Vec<f64> {
        attacks.iter().map(|a| a.magnitude() as f64).collect()
    }

    /// `A^s` (Eq. 3–4) for a single attack: the intra-AS concentration sum
    /// divided by the mean pairwise inter-AS hop distance of the attack's
    /// source ASes. Larger when bots sit densely in few, close ASes.
    ///
    /// Single-AS attacks have no pairwise distance; the denominator
    /// defaults to 1 hop (maximal concentration).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotEnoughHistory`] when the attack has no bots
    /// (cannot happen for generated corpora).
    pub fn source_distribution(&self, attack: &AttackRecord) -> Result<f64> {
        self.source_distribution_in(attack, &mut PairScratch::default())
    }

    /// [`FeatureExtractor::source_distribution`] with the pair walk's
    /// buffers in `scratch`.
    fn source_distribution_in(
        &self,
        attack: &AttackRecord,
        scratch: &mut PairScratch,
    ) -> Result<f64> {
        let hist = attack.asn_histogram();
        if hist.is_empty() {
            return Err(ModelError::NotEnoughHistory {
                context: "source distribution of an attack without bots".to_string(),
                required: 1,
                actual: 0,
            });
        }
        let intra: f64 = hist.iter().map(|&(asn, n)| n as f64 / self.space.of(asn) as f64).sum();
        // The histogram's keys ascend strictly: the count-free pair walk.
        let asns = hist.iter().map(|(asn, _)| asn);
        let dt = if hist.len() < 2 {
            1.0
        } else {
            self.oracle.mean_pairwise_distance(asns, scratch).max(1.0)
        };
        Ok(intra / dt)
    }

    /// `A^s` over a chronological attack slice, with one pair-walk scratch
    /// for the whole slice.
    ///
    /// # Errors
    ///
    /// Propagates per-attack errors.
    pub fn source_distribution_series(&self, attacks: &[&AttackRecord]) -> Result<Vec<f64>> {
        let mut scratch = PairScratch::default();
        attacks.iter().map(|a| self.source_distribution_in(a, &mut scratch)).collect()
    }

    /// Per-AS bot-share series for a family: for the family's `top_k` most
    /// common source ASes, the fraction of each attack's bots located in
    /// that AS. Returns `(asns, series)` where `series[k]` is chronological
    /// over `attacks`. This is the distribution Fig. 2 predicts.
    ///
    /// The ranking sums each source AS's bots in a table indexed by dense
    /// node id (an AS outside the topology, which only a hand-built record
    /// can hold, in a side map), then orders by total, most first, ties by
    /// ascending ASN. The series take one pass per attack: each attack's
    /// (memoized) histogram is fetched once and every tracked AS is looked
    /// up by binary search.
    pub fn as_share_series(
        &self,
        attacks: &[&AttackRecord],
        top_k: usize,
    ) -> (Vec<Asn>, Vec<Vec<f64>>) {
        let mut by_node = vec![0u64; self.dense.len()];
        let mut off_topology: BTreeMap<Asn, u64> = BTreeMap::new();
        for a in attacks {
            for &(asn, n) in a.asn_histogram() {
                match self.dense.node_id(asn) {
                    Some(node) => by_node[node.index()] += u64::from(n),
                    None => *off_topology.entry(asn).or_insert(0) += u64::from(n),
                }
            }
        }
        let on_topology = by_node.iter().enumerate().filter(|&(_, &total)| total > 0);
        let mut ranked: Vec<(Asn, u64)> = on_topology
            .map(|(node, &total)| (self.dense.asn(NodeId(node as u32)), total))
            .chain(off_topology)
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let asns: Vec<Asn> = ranked.into_iter().take(top_k).map(|(a, _)| a).collect();
        let series = Self::share_series(attacks, &asns);
        (asns, series)
    }

    /// Each of `asns`' per-attack share of the attack's bots, one series
    /// per AS (aligned with `asns`), over `attacks`.
    pub(crate) fn share_series(attacks: &[&AttackRecord], asns: &[Asn]) -> Vec<Vec<f64>> {
        let mut series: Vec<Vec<f64>> = vec![Vec::with_capacity(attacks.len()); asns.len()];
        for a in attacks {
            let hist = a.asn_histogram();
            let total = a.magnitude() as f64;
            for (k, target_asn) in asns.iter().enumerate() {
                let here = hist
                    .binary_search_by_key(target_asn, |(asn, _)| *asn)
                    .map_or(0.0, |i| f64::from(hist[i].1));
                series[k].push(if total > 0.0 { here / total } else { 0.0 });
            }
        }
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddos_astopo::graph::{Relationship, Tier};
    use ddos_astopo::ipmap::Prefix;
    use ddos_trace::{BotObservation, CorpusConfig, TraceGenerator};

    fn corpus() -> Corpus {
        TraceGenerator::new(CorpusConfig::small(), 91).generate().unwrap()
    }

    #[test]
    fn source_distribution_positive_and_concentration_sensitive() {
        let c = corpus();
        let fx = FeatureExtractor::new(&c);
        let fam = c.catalog().most_active(1)[0];
        let attacks = c.family_attacks(fam);
        let series = fx.source_distribution_series(&attacks[..50.min(attacks.len())]).unwrap();
        assert!(series.iter().all(|v| *v > 0.0));
    }

    /// `A^s` by the Eq. 3–4 definition with nothing shared: a `BTreeMap`
    /// address-space lookup per AS and a fresh stand-alone oracle per
    /// attack.
    fn stand_alone_source_distribution(c: &Corpus, attack: &AttackRecord) -> u64 {
        let space = c.ip_map().address_space_by_asn();
        let intra: f64 = attack
            .asn_histogram()
            .iter()
            .map(|(asn, n)| *n as f64 / space.get(asn).copied().unwrap_or(1).max(1) as f64)
            .sum();
        let asns = attack.source_asns();
        let oracle = PathOracle::new(c.topology());
        let scratch = &mut PairScratch::default();
        let dt = if asns.len() < 2 {
            1.0
        } else {
            oracle.mean_pairwise_distance(&asns, scratch).max(1.0)
        };
        (intra / dt).to_bits()
    }

    /// Every extractor on a corpus borrows the corpus's one oracle, and
    /// none of the ways stages reach it changes an `A^s` bit: two
    /// extractors in turn (the second starts warm), a clone taken after
    /// the fill (it shares the oracle), and clones taken before it, used
    /// through the sharded executor at 1 and 2 workers (cold oracles
    /// filled serially or by racing workers).
    #[test]
    fn extractors_share_one_oracle_bit_identically() {
        let c = corpus();
        let (cold_one, cold_two) = (c.clone(), c.clone());
        let attacks: Vec<&AttackRecord> = c.attacks().iter().collect();
        let reference: Vec<u64> =
            attacks.iter().map(|a| stand_alone_source_distribution(&c, a)).collect();
        let bits = |fx: &FeatureExtractor, attacks: &[&AttackRecord]| -> Vec<u64> {
            fx.source_distribution_series(attacks).unwrap().iter().map(|v| v.to_bits()).collect()
        };

        let (first, second) = (FeatureExtractor::new(&c), FeatureExtractor::new(&c));
        assert!(std::ptr::eq(first.oracle, second.oracle));
        assert_eq!(bits(&first, &attacks), reference);
        assert_eq!(bits(&second, &attacks), reference);
        let warm_clone = c.clone();
        let on_clone = FeatureExtractor::new(&warm_clone);
        assert!(std::ptr::eq(on_clone.oracle, first.oracle));
        let clone_attacks: Vec<&AttackRecord> = warm_clone.attacks().iter().collect();
        assert_eq!(bits(&on_clone, &clone_attacks), reference);

        for (workers, cold) in [(1, &cold_one), (2, &cold_two)] {
            let fx = FeatureExtractor::new(cold);
            assert!(!std::ptr::eq(fx.oracle, first.oracle));
            let sharded = ddos_stats::exec::map_indexed(cold.attacks(), Some(workers), |_, a| {
                fx.source_distribution(a).unwrap().to_bits()
            });
            assert_eq!(sharded, reference, "{workers} workers");
        }
    }

    /// The order in which a fresh oracle first sees the endpoints decides
    /// their slots, and so which cone is scattered and which is read when
    /// each row is filled. No order may change an `A^s` bit: the attacks
    /// of one corpus in forward, reversed and shuffled order, each on a
    /// clone whose oracle was never queried, give the stand-alone bits.
    #[test]
    fn source_distribution_is_independent_of_slot_order() {
        let c = corpus();
        let clones = [c.clone(), c.clone(), c.clone()];
        let attacks: Vec<&AttackRecord> = c.attacks().iter().collect();
        let reference: Vec<u64> =
            attacks.iter().map(|a| stand_alone_source_distribution(&c, a)).collect();
        let forward: Vec<usize> = (0..attacks.len()).collect();
        let reversed: Vec<usize> = forward.iter().rev().copied().collect();
        let mut shuffled = forward.clone();
        shuffled.sort_by_key(|&i| (i as u64 ^ 0x5bd1_e995).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        assert_ne!(shuffled, forward);
        for (order, fresh) in [forward, reversed, shuffled].iter().zip(&clones) {
            let fx = FeatureExtractor::new(fresh);
            let mut bits = vec![0u64; order.len()];
            for &i in order {
                bits[i] = fx.source_distribution(&fresh.attacks()[i]).unwrap().to_bits();
            }
            assert_eq!(bits, reference);
        }
    }

    /// Eq. 4 on hostile bot placements, built from a generated corpus
    /// whose topology and address map gain three ASes: bots in (a) an ASN
    /// the topology does not know, (b) two ASes no valley-free path joins,
    /// and (c) an AS whose address space `N_{AS_j}` is all of IPv4, 2^32
    /// addresses. (A histogram count of that scale would take 4 G bot
    /// observations in memory; the address-space count is the one Eq. 4
    /// input a corpus can push to `u32::MAX` scale.) Each attack must give
    /// a finite, non-negative `A^s` equal to the stand-alone definition's
    /// (an AS without address space counts as one address), or a typed
    /// error, never a panic.
    #[test]
    fn source_distribution_survives_hostile_bot_placements() {
        let template = corpus();
        let mut topology = template.topology().clone();
        let stub = topology.tier_members(Tier::Stub)[0];
        let tier2 = topology.tier_members(Tier::Tier2)[0];
        let (unknown, island_t1, island_stub, whole_space) =
            (Asn(4_000_000_000), Asn(4_000_000_001), Asn(4_000_000_002), Asn(4_000_000_003));
        // An island: a tier-1 AS outside the clique with one stub customer.
        topology.add_as(island_t1, Tier::Tier1, 0);
        topology.add_as(island_stub, Tier::Stub, 0);
        topology.add_edge(island_t1, island_stub, Relationship::Customer).unwrap();
        topology.add_as(whole_space, Tier::Stub, 0);
        topology.add_edge(tier2, whole_space, Relationship::Customer).unwrap();
        let mut ip_map = template.ip_map().clone();
        ip_map.insert(Prefix::new(0, 0).unwrap(), whole_space).unwrap();

        let placements: [&[Asn]; 3] =
            [&[unknown, stub], &[island_stub, stub], &[whole_space, whole_space, stub]];
        let attacks: Vec<AttackRecord> = placements
            .iter()
            .map(|asns| {
                let mut attack = template.attacks()[0].clone();
                *attack.bots_mut() = asns
                    .iter()
                    .enumerate()
                    .map(|(i, &asn)| BotObservation { ip: i as u32, asn })
                    .collect();
                attack
            })
            .collect();
        let corpus = Corpus::new(
            attacks,
            template.catalog().clone(),
            topology,
            ip_map,
            template.targets().clone(),
            template.days(),
        )
        .unwrap();
        assert!(!corpus.topology().contains(unknown));
        let oracle = PathOracle::new(corpus.topology());
        assert_eq!(oracle.hop_distance(island_stub, stub), None);
        assert_eq!(corpus.ip_map().address_space_by_asn()[&whole_space], 1 << 32);

        let fx = FeatureExtractor::new(&corpus);
        for (attack, asns) in corpus.attacks().iter().zip(placements) {
            match fx.source_distribution(attack) {
                Ok(a_s) => {
                    assert!(a_s.is_finite() && a_s >= 0.0, "A^s {a_s} for bots in {asns:?}");
                    let reference = stand_alone_source_distribution(&corpus, attack);
                    assert_eq!(a_s.to_bits(), reference, "A^s {a_s} for bots in {asns:?}");
                }
                Err(e) => assert!(!e.to_string().is_empty(), "untyped error for {asns:?}"),
            }
        }
    }

    #[test]
    fn as_share_series_shapes_and_bounds() {
        let c = corpus();
        let fam = c.catalog().most_active(1)[0];
        let attacks = c.family_attacks(fam);
        let (asns, series) = FeatureExtractor::new(&c).as_share_series(&attacks, 5);
        assert!(asns.len() <= 5);
        assert_eq!(series.len(), asns.len());
        for s in &series {
            assert_eq!(s.len(), attacks.len());
            assert!(s.iter().all(|v| (0.0..=1.0).contains(v)));
        }
        // The top AS should carry a substantial average share.
        let avg: f64 = series[0].iter().sum::<f64>() / series[0].len() as f64;
        assert!(avg > 0.02, "top AS share {avg}");
    }

    /// The Fig. 2 ranking by its definition: a `BTreeMap` sum of bots per
    /// source AS, ordered by total (most first), ties by ascending ASN.
    fn btree_ranking(attacks: &[&AttackRecord], top_k: usize) -> Vec<Asn> {
        let mut totals: BTreeMap<Asn, u64> = BTreeMap::new();
        for a in attacks {
            for &(asn, n) in a.asn_histogram() {
                *totals.entry(asn).or_insert(0) += u64::from(n);
            }
        }
        let mut ranked: Vec<(Asn, u64)> = totals.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.into_iter().take(top_k).map(|(a, _)| a).collect()
    }

    /// The dense-table ranking picks the ASes the `BTreeMap` ranking
    /// picks, in its order, and the one-histogram-per-attack pass
    /// reproduces the naive per-(AS, attack) linear rescan bit for bit:
    /// on a family's attacks, and on hand-built attacks whose source ASes
    /// tie on their totals, an AS outside the topology among them, so
    /// the ASN tie-break decides the order.
    #[test]
    fn as_share_series_matches_naive_per_pair_scan() {
        let c = corpus();
        let fx = FeatureExtractor::new(&c);
        let fam = c.catalog().most_active(1)[0];
        let family: Vec<&AttackRecord> = c.family_attacks(fam).into_iter().take(40).collect();
        let mut stubs = c.topology().tier_members(Tier::Stub);
        stubs.sort_unstable();
        // The topology numbers its ASes from 1, so ASN 0 is off it, and
        // below every AS it ties with: the tie-break, not the table's
        // order (topology ids first, the side map after), must rank it.
        let off = Asn(0);
        assert!(!c.topology().contains(off));
        // Bots per AS in every tied attack: stubs 3 and `off` tie, and so
        // do stubs 0, 1 and 5, listed out of ASN order.
        let placement = [(stubs[5], 2), (stubs[1], 2), (off, 3), (stubs[3], 3), (stubs[0], 2)]
            .into_iter()
            .chain([(stubs[2], 1)]);
        let bots: Vec<BotObservation> = placement
            .flat_map(|(asn, n)| std::iter::repeat_n(asn, n))
            .enumerate()
            .map(|(i, asn)| BotObservation { ip: i as u32, asn })
            .collect();
        let tied: Vec<AttackRecord> = c.attacks()[..3]
            .iter()
            .map(|template| {
                let mut attack = template.clone();
                *attack.bots_mut() = bots.clone();
                attack
            })
            .collect();
        let tied: Vec<&AttackRecord> = tied.iter().collect();
        let mixed: Vec<&AttackRecord> = family.iter().chain(&tied).copied().collect();
        let (tied_asns, _) = fx.as_share_series(&tied, 5);
        assert_eq!(tied_asns, [off, stubs[3], stubs[0], stubs[1], stubs[5]]);

        for (attacks, top_k) in [(&family, 7), (&tied, 6), (&tied, 3), (&mixed, 9)] {
            let (asns, series) = fx.as_share_series(attacks, top_k);
            assert_eq!(asns, btree_ranking(attacks, top_k));
            for (k, target_asn) in asns.iter().enumerate() {
                for (i, a) in attacks.iter().enumerate() {
                    let total = a.magnitude() as f64;
                    let here = a
                        .asn_histogram()
                        .iter()
                        .find(|(asn, _)| asn == target_asn)
                        .map_or(0.0, |(_, n)| f64::from(*n));
                    let expected = if total > 0.0 { here / total } else { 0.0 };
                    assert_eq!(series[k][i].to_bits(), expected.to_bits());
                }
            }
        }
    }

    #[test]
    fn concentrated_attack_has_higher_as_coefficient() {
        // Build two synthetic attacks on the same corpus substrate: one
        // with all bots in one AS, one spread across many.
        let c = corpus();
        let fx = FeatureExtractor::new(&c);
        let fam = c.catalog().most_active(1)[0];
        let attacks = c.family_attacks(fam);
        let template = attacks
            .iter()
            .find(|a| a.source_asns().len() >= 4)
            .expect("some attack spans several ASes");

        let mut concentrated = (*template).clone();
        let first_asn = concentrated.bots()[0].asn;
        for b in concentrated.bots_mut() {
            b.asn = first_asn;
        }
        let a_conc = fx.source_distribution(&concentrated).unwrap();
        let a_spread = fx.source_distribution(template).unwrap();
        assert!(a_conc > a_spread, "concentrated {a_conc} should exceed spread {a_spread}");
    }
}
