//! Property-based tests for the AS-topology substrate: valley-free
//! legality, reachability and LPM correctness over randomized topologies.

use ddos_astopo::gen::{TopologyConfig, TopologyGenerator};
use ddos_astopo::graph::{Relationship, Tier};
use ddos_astopo::ipmap::{IpAsnMap, Prefix, PrefixAllocator};
use ddos_astopo::paths::PathOracle;
use ddos_astopo::Asn;
use proptest::prelude::*;

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

    /// Every stub pair is reachable (the tier-1 clique guarantees it) and
    /// every returned path is valley-free.
    #[test]
    fn all_paths_valley_free(config in arb_config(), seed in 0u64..500) {
        let topo = TopologyGenerator::new(config, seed).generate().unwrap();
        let oracle = PathOracle::new(&topo);
        let stubs = topo.tier_members(Tier::Stub);
        // Check a sample of pairs.
        for (i, a) in stubs.iter().enumerate().take(6) {
            for b in stubs.iter().skip(i + 1).take(6) {
                let path = oracle.path(*a, *b);
                prop_assert!(path.is_some(), "{a} -> {b} unreachable");
                let path = path.unwrap();
                // Valley-free legality.
                let mut phase = 0u8; // 0 climbing, 1 peered, 2 descending
                for w in path.windows(2) {
                    match topo.relationship(w[0], w[1]).unwrap() {
                        Relationship::Provider => prop_assert_eq!(phase, 0),
                        Relationship::Peer => {
                            prop_assert_eq!(phase, 0);
                            phase = 1;
                        }
                        Relationship::Customer => phase = 2,
                    }
                }
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

    /// The batched Eq. 4 distance kernel agrees element-wise with the
    /// per-pair scalar query on arbitrary topologies, including repeated
    /// and unknown ASNs in the batch.
    #[test]
    fn pairwise_distances_matches_per_pair_hop_distance(
        config in arb_config(),
        seed in 0u64..500,
    ) {
        let topo = TopologyGenerator::new(config, seed).generate().unwrap();
        let oracle = PathOracle::new(&topo);
        let mut batch: Vec<Asn> = topo.asns().take(10).collect();
        // Repeats and an ASN the topology has never seen.
        if let Some(first) = batch.first().copied() {
            batch.push(first);
        }
        batch.push(Asn(u32::MAX));
        let matrix = oracle.pairwise_distances(&batch);
        prop_assert_eq!(matrix.len(), batch.len());
        for (i, row) in matrix.iter().enumerate() {
            prop_assert_eq!(row.len(), batch.len());
            for (j, cell) in row.iter().enumerate() {
                prop_assert_eq!(*cell, oracle.hop_distance(batch[i], batch[j]));
            }
        }
    }

    /// Concurrent batched queries through the deterministic sharded
    /// executor return bit-for-bit the same answers as serial calls: the
    /// Arc-cached cones and the pair-distance table behave as pure values
    /// under racing fills. Even batches ask for the matrix, odd ones for
    /// the Eq. 4 mean, so both batch queries share one oracle's table.
    #[test]
    fn concurrent_batched_queries_match_serial(config in arb_config(), seed in 0u64..200) {
        let topo = TopologyGenerator::new(config, seed).generate().unwrap();
        let stubs = topo.tier_members(Tier::Stub);
        let batches: Vec<Vec<Asn>> = (0..8)
            .map(|k| stubs.iter().skip(k).step_by(2).copied().take(8).collect())
            .collect();
        let query = |oracle: &PathOracle, k: usize, b: &[Asn]| {
            if k.is_multiple_of(2) {
                (oracle.pairwise_distances(b), 0)
            } else {
                (Vec::new(), oracle.mean_pairwise_distance(b).to_bits())
            }
        };

        // Serial reference on a fresh oracle (cold caches).
        let serial_oracle = PathOracle::new(&topo);
        let serial: Vec<_> =
            batches.iter().enumerate().map(|(k, b)| query(&serial_oracle, k, b)).collect();

        // Concurrent runs, each on another fresh oracle: the shared caches
        // are populated by racing workers.
        for workers in [1, 2, 4] {
            let shared_oracle = PathOracle::new(&topo);
            let concurrent = ddos_stats::exec::map_indexed(&batches, Some(workers), |k, b| {
                query(&shared_oracle, k, b)
            });
            prop_assert_eq!(&serial, &concurrent);
        }
    }

    /// The table-backed Eq. 4 mean equals, bit for bit, the brute-force
    /// mean of per-pair `hop_distance` over every `i < j` pair of distinct
    /// ASNs, on random multisets with repeats and unknown ASNs — whether
    /// the oracle is cold, warmed, or already holds the answer.
    #[test]
    fn mean_pairwise_distance_matches_brute_force(
        config in arb_config(),
        seed in 0u64..500,
        picks in proptest::collection::vec(0usize..64, 0..24),
    ) {
        let topo = TopologyGenerator::new(config, seed).generate().unwrap();
        let known: Vec<Asn> = topo.asns().collect();
        // Picks past the topology's size stand for ASNs it has never seen.
        let asns: Vec<Asn> = picks
            .iter()
            .map(|&p| known.get(p).copied().unwrap_or(Asn(u32::MAX - p as u32)))
            .collect();
        let reference = PathOracle::new(&topo);
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

        let cold = PathOracle::new(&topo);
        prop_assert_eq!(cold.mean_pairwise_distance(&asns).to_bits(), brute.to_bits());
        let warmed = PathOracle::new(&topo);
        warmed.warm(&asns);
        prop_assert_eq!(warmed.mean_pairwise_distance(&asns).to_bits(), brute.to_bits());
        // Reused: the table already holds every pair, some of them filled
        // by the other batch query.
        let reused = PathOracle::new(&topo);
        reused.pairwise_distances(&asns[..asns.len() / 2]);
        reused.mean_pairwise_distance(&asns);
        prop_assert_eq!(reused.mean_pairwise_distance(&asns).to_bits(), brute.to_bits());
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
