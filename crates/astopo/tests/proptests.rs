//! Property-based tests for the AS-topology substrate: valley-free
//! distances against a reference search, reachability and LPM correctness
//! over randomized topologies.

use ddos_astopo::gen::{TopologyConfig, TopologyGenerator};
use ddos_astopo::graph::{AsGraph, Relationship, Tier};
use ddos_astopo::ipmap::{IpAsnMap, Prefix, PrefixAllocator};
use ddos_astopo::paths::{PairScratch, PathOracle};
use ddos_astopo::Asn;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Where a valley-free walk stands: still climbing (it may go to a
/// provider, a peer or a customer), just across its one peering, or
/// descending (either way it may only go on to a customer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    Climbing,
    Peered,
    Descending,
}

/// Reference valley-free distances from `src` to every AS it reaches: a
/// plain BFS over `(AS, phase)` states on the graph's own adjacency maps,
/// sharing no code with [`PathOracle`]. An AS's distance is the first
/// time any of its three states is reached.
fn valley_free_reference(topo: &AsGraph, src: Asn) -> BTreeMap<Asn, u32> {
    let mut seen = BTreeSet::from([(src, Phase::Climbing)]);
    let mut best: BTreeMap<Asn, u32> = BTreeMap::new();
    let mut queue = VecDeque::from([(src, Phase::Climbing, 0u32)]);
    while let Some((u, phase, d)) = queue.pop_front() {
        best.entry(u).or_insert(d);
        for (v, rel) in topo.neighbors(u) {
            let next = match (phase, rel) {
                (Phase::Climbing, Relationship::Provider) => Phase::Climbing,
                (Phase::Climbing, Relationship::Peer) => Phase::Peered,
                (_, Relationship::Customer) => Phase::Descending,
                _ => continue,
            };
            if seen.insert((v, next)) {
                queue.push_back((v, next, d + 1));
            }
        }
    }
    best
}

fn arb_config() -> impl Strategy<Value = TopologyConfig> {
    (2usize..5, 4usize..12, 12usize..40, 2u8..5).prop_map(|(t1, t2, stubs, regions)| {
        TopologyConfig {
            n_tier1: t1,
            n_tier2: t2,
            n_stubs: stubs,
            n_regions: regions,
            t2_peering_prob: 0.3,
            max_stub_providers: 2,
            out_of_region_prob: 0.1,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `hop_distance` equals the reference valley-free BFS for every pair
    /// of ASes, so it is both legal (no valley, at most one peering) and
    /// minimal, and every stub pair is reachable (the tier-1 clique
    /// guarantees it).
    #[test]
    fn all_paths_valley_free(config in arb_config(), seed in 0u64..500) {
        let topo = TopologyGenerator::new(config, seed).generate().unwrap();
        let oracle = PathOracle::new(&topo);
        for a in topo.asns() {
            let reference = valley_free_reference(&topo, a);
            for b in topo.asns() {
                let (got, want) = (oracle.hop_distance(a, b), reference.get(&b).copied());
                prop_assert!(got == want, "{a} -> {b}: oracle {got:?}, reference {want:?}");
            }
        }
        let stubs = topo.tier_members(Tier::Stub);
        for a in &stubs {
            for b in &stubs {
                prop_assert!(oracle.hop_distance(*a, *b).is_some(), "{a} -> {b} unreachable");
            }
        }
    }

    /// Hop distance is symmetric and satisfies the identity axiom.
    #[test]
    fn hop_distance_metric_axioms(config in arb_config(), seed in 0u64..500) {
        let topo = TopologyGenerator::new(config, seed).generate().unwrap();
        let oracle = PathOracle::new(&topo);
        let asns: Vec<Asn> = topo.asns().take(8).collect();
        for a in &asns {
            prop_assert_eq!(oracle.hop_distance(*a, *a), Some(0));
            for b in &asns {
                prop_assert_eq!(oracle.hop_distance(*a, *b), oracle.hop_distance(*b, *a));
            }
        }
    }

    /// Prefix allocation is collision-free and LPM maps every allocated
    /// address back to its owner.
    #[test]
    fn allocation_lpm_round_trip(config in arb_config(), seed in 0u64..500, probe in 0u64..4096) {
        let topo = TopologyGenerator::new(config, seed).generate().unwrap();
        let (map, allocs) = PrefixAllocator::new().allocate_for(&topo).unwrap();
        for (asn, prefixes) in allocs.iter().take(12) {
            for p in prefixes {
                let addr = p.address(probe);
                prop_assert_eq!(map.lookup(addr), Some(*asn));
            }
        }
    }

    /// Concurrent batched queries through the deterministic sharded
    /// executor return bit-for-bit the same answers as serial calls: the
    /// Arc-cached cones and the pair-distance table behave as pure values
    /// under racing fills. Every batch asks for the Eq. 4 mean, and the
    /// overlapping batches share one oracle's table.
    #[test]
    fn concurrent_batched_queries_match_serial(config in arb_config(), seed in 0u64..200) {
        let topo = TopologyGenerator::new(config, seed).generate().unwrap();
        let stubs = topo.tier_members(Tier::Stub);
        let batches: Vec<Vec<Asn>> = (0..8)
            .map(|k| stubs.iter().skip(k).step_by(2).copied().take(8).collect())
            .collect();
        let query = |oracle: &PathOracle, b: &[Asn]| {
            oracle.mean_pairwise_distance(b, &mut PairScratch::default()).to_bits()
        };

        // Serial reference on a fresh oracle (cold caches).
        let serial_oracle = PathOracle::new(&topo);
        let serial: Vec<u64> = batches.iter().map(|b| query(&serial_oracle, b)).collect();

        // Concurrent runs, each on another fresh oracle: the shared caches
        // are populated by racing workers.
        for workers in [1, 2, 4] {
            let shared_oracle = PathOracle::new(&topo);
            let concurrent = ddos_stats::exec::map_indexed(&batches, Some(workers), |_, b| {
                query(&shared_oracle, b)
            });
            prop_assert_eq!(&serial, &concurrent);
        }
    }

    /// The table-backed Eq. 4 mean equals, bit for bit, the brute-force
    /// mean of per-pair `hop_distance` over every `i < j` pair of distinct
    /// ASNs, on random multisets with repeats and unknown ASNs and on
    /// their strictly ascending distinct form (the one an attack's ASN
    /// histogram passes, which takes the count-free walk) — whether the
    /// oracle is cold, holds every cone but no pair, or already holds the
    /// answer, and whether the scratch is fresh or reused across queries.
    #[test]
    fn mean_pairwise_distance_matches_brute_force(
        config in arb_config(),
        seed in 0u64..500,
        picks in proptest::collection::vec(0usize..64, 0..24),
    ) {
        let topo = TopologyGenerator::new(config, seed).generate().unwrap();
        let known: Vec<Asn> = topo.asns().collect();
        // Picks past the topology's size stand for ASNs it has never seen.
        let multiset: Vec<Asn> = picks
            .iter()
            .map(|&p| known.get(p).copied().unwrap_or(Asn(u32::MAX - p as u32)))
            .collect();
        let mut distinct = multiset.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let reference = PathOracle::new(&topo);
        let mut reused_scratch = PairScratch::default();
        for asns in [multiset, distinct] {
            let (mut total, mut count) = (0u64, 0u64);
            for (i, a) in asns.iter().enumerate() {
                for b in &asns[i + 1..] {
                    if a != b {
                        if let Some(d) = reference.hop_distance(*a, *b) {
                            total += u64::from(d);
                            count += 1;
                        }
                    }
                }
            }
            let brute = if count == 0 { 0.0 } else { total as f64 / count as f64 };
            let mut mean = |oracle: &PathOracle, asns: &[Asn]| {
                let fresh = oracle.mean_pairwise_distance(asns, &mut PairScratch::default());
                let reused = oracle.mean_pairwise_distance(asns, &mut reused_scratch);
                assert_eq!(fresh.to_bits(), reused.to_bits(), "fresh and reused scratch");
                fresh
            };

            let cold = PathOracle::new(&topo);
            prop_assert_eq!(mean(&cold, &asns).to_bits(), brute.to_bits());
            // Warmed: single-pair queries cache every known AS's cone but
            // leave the pair table empty.
            let warmed = PathOracle::new(&topo);
            for a in &asns {
                warmed.hop_distance(*a, known[0]);
            }
            prop_assert_eq!(mean(&warmed, &asns).to_bits(), brute.to_bits());
            // Reused: the table already holds every pair, some of them
            // filled by an earlier query over part of the input.
            let reused = PathOracle::new(&topo);
            mean(&reused, &asns[..asns.len() / 2]);
            mean(&reused, &asns);
            prop_assert_eq!(mean(&reused, &asns).to_bits(), brute.to_bits());
        }
    }

    /// LPM ignores addresses outside every allocation.
    #[test]
    fn lpm_unallocated_space_is_none(host in 0u32..0xffff) {
        let mut map = IpAsnMap::new();
        map.insert(Prefix::new(0x0a00_0000, 8).unwrap(), Asn(1)).unwrap();
        // 192.0.0.0/8 space was never allocated.
        prop_assert_eq!(map.lookup(0xc000_0000 | host), None);
    }
}
