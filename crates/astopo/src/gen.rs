//! Synthetic AS-topology generation.
//!
//! Builds the three-tier hierarchy the valley-free distance oracle
//! operates on: a tier-1 clique, tier-2 regionals multi-homed into
//! the clique with lateral peering, and stub ASes multi-homed to tier-2s of
//! their region (with occasional out-of-region backup providers, which is
//! what produces the longer inter-AS distances the `A^s` feature reacts to).

use crate::graph::{AsGraph, Asn, Relationship, Tier};
use crate::{Result, TopoError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration for [`TopologyGenerator`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyConfig {
    /// Number of tier-1 backbone ASes (fully meshed peers).
    pub n_tier1: usize,
    /// Number of tier-2 regional providers.
    pub n_tier2: usize,
    /// Number of stub (edge) ASes.
    pub n_stubs: usize,
    /// Number of geographic regions (tier-2s and stubs are spread across
    /// them round-robin-with-jitter).
    pub n_regions: u8,
    /// Probability that two same-region tier-2s peer laterally.
    pub t2_peering_prob: f64,
    /// Maximum number of providers a stub multi-homes to (at least 1).
    pub max_stub_providers: usize,
    /// Probability that a stub picks one provider outside its region.
    pub out_of_region_prob: f64,
}

impl TopologyConfig {
    /// A compact topology for unit tests and doc examples (~60 ASes).
    pub fn small() -> Self {
        TopologyConfig {
            n_tier1: 3,
            n_tier2: 9,
            n_stubs: 48,
            n_regions: 3,
            t2_peering_prob: 0.4,
            max_stub_providers: 2,
            out_of_region_prob: 0.15,
        }
    }

    /// The Internet-scale topology (~100 k ASes): a dozen backbone
    /// networks, a couple thousand regional providers and ~98 k stubs
    /// across twelve regions. Lateral tier-2 peering is sparse (the pair
    /// probability applies to every same-region pair, and regions hold
    /// ~170 tier-2s each), matching the thin peering mesh of the real
    /// AS graph at this size.
    pub fn internet() -> Self {
        TopologyConfig {
            n_tier1: 12,
            n_tier2: 2_000,
            n_stubs: 98_000,
            n_regions: 12,
            t2_peering_prob: 0.02,
            max_stub_providers: 3,
            out_of_region_prob: 0.05,
        }
    }

    /// The default experiment topology (~600 ASes), large enough that the
    /// AS-level source-distribution feature has room to vary.
    pub fn standard() -> Self {
        TopologyConfig {
            n_tier1: 6,
            n_tier2: 48,
            n_stubs: 560,
            n_regions: 6,
            t2_peering_prob: 0.3,
            max_stub_providers: 3,
            out_of_region_prob: 0.1,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.n_tier1 == 0 || self.n_tier2 == 0 || self.n_stubs == 0 {
            return Err(TopoError::InvalidConfig {
                detail: "every tier must have at least one AS".to_string(),
            });
        }
        if self.n_regions == 0 {
            return Err(TopoError::InvalidConfig {
                detail: "need at least one region".to_string(),
            });
        }
        if self.max_stub_providers == 0 {
            return Err(TopoError::InvalidConfig {
                detail: "stubs need at least one provider".to_string(),
            });
        }
        if !(0.0..=1.0).contains(&self.t2_peering_prob)
            || !(0.0..=1.0).contains(&self.out_of_region_prob)
        {
            return Err(TopoError::InvalidConfig {
                detail: "probabilities must lie in [0, 1]".to_string(),
            });
        }
        Ok(())
    }
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig::standard()
    }
}

/// Deterministic, seeded generator producing an [`AsGraph`].
#[derive(Debug, Clone)]
pub struct TopologyGenerator {
    config: TopologyConfig,
    seed: u64,
}

impl TopologyGenerator {
    /// Creates a generator for the given configuration and seed.
    pub fn new(config: TopologyConfig, seed: u64) -> Self {
        TopologyGenerator { config, seed }
    }

    /// The configuration this generator will use.
    pub fn config(&self) -> &TopologyConfig {
        &self.config
    }

    /// Generates the topology.
    ///
    /// AS numbers are assigned densely: tier-1s get `1..=n_tier1`, tier-2s
    /// follow, stubs last — which makes tier recoverable from the ASN in
    /// tests and keeps fixtures readable.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::InvalidConfig`] for a malformed configuration.
    pub fn generate(&self) -> Result<AsGraph> {
        self.config.validate()?;
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut g = AsGraph::new();

        let t1_start = 1u32;
        let t2_start = t1_start + cfg.n_tier1 as u32;
        let stub_start = t2_start + cfg.n_tier2 as u32;

        // Tier-1 clique: every pair peers.
        for i in 0..cfg.n_tier1 {
            let region = (i % cfg.n_regions as usize) as u8;
            g.add_as(Asn(t1_start + i as u32), Tier::Tier1, region);
        }
        for i in 0..cfg.n_tier1 {
            for j in (i + 1)..cfg.n_tier1 {
                g.add_edge(Asn(t1_start + i as u32), Asn(t1_start + j as u32), Relationship::Peer)?;
            }
        }

        // Tier-2: region round-robin, each buys transit from 1–2 tier-1s,
        // same-region tier-2s peer with probability t2_peering_prob.
        for i in 0..cfg.n_tier2 {
            let asn = Asn(t2_start + i as u32);
            let region = (i % cfg.n_regions as usize) as u8;
            g.add_as(asn, Tier::Tier2, region);
            let primary = Asn(t1_start + rng.gen_range(0..cfg.n_tier1) as u32);
            g.add_edge(primary, asn, Relationship::Customer)?;
            if cfg.n_tier1 > 1 && rng.gen_bool(0.5) {
                let mut backup = primary;
                while backup == primary {
                    backup = Asn(t1_start + rng.gen_range(0..cfg.n_tier1) as u32);
                }
                g.add_edge(backup, asn, Relationship::Customer)?;
            }
        }
        // Region of tier-2 index i, precomputed once: the pair loop below
        // is O(n_tier2²) and per-pair map lookups dominate at 100 k scale.
        let t2_region = |i: usize| (i % cfg.n_regions as usize) as u8;
        for i in 0..cfg.n_tier2 {
            for j in (i + 1)..cfg.n_tier2 {
                if t2_region(i) == t2_region(j) && rng.gen_bool(cfg.t2_peering_prob) {
                    let a = Asn(t2_start + i as u32);
                    let b = Asn(t2_start + j as u32);
                    g.add_edge(a, b, Relationship::Peer)?;
                }
            }
        }

        // Stubs: multi-home to tier-2s, preferring their own region. The
        // per-region provider pools are computed once, in `tier2s` order,
        // so every draw sees exactly the list the per-stub filter built —
        // same candidates, same indices, same RNG stream.
        let tier2s: Vec<Asn> = g.tier_members(Tier::Tier2);
        let mut in_region_pool: Vec<Vec<Asn>> = vec![Vec::new(); cfg.n_regions as usize];
        let mut out_of_region_pool: Vec<Vec<Asn>> = vec![Vec::new(); cfg.n_regions as usize];
        for t in &tier2s {
            let t_region = g.info(*t).ok_or(TopoError::UnknownAs(*t))?.region;
            for r in 0..cfg.n_regions {
                if t_region == r {
                    in_region_pool[r as usize].push(*t);
                } else {
                    out_of_region_pool[r as usize].push(*t);
                }
            }
        }
        for i in 0..cfg.n_stubs {
            let asn = Asn(stub_start + i as u32);
            let region = (i % cfg.n_regions as usize) as u8;
            g.add_as(asn, Tier::Stub, region);
            let in_region = &in_region_pool[region as usize];
            let pool = if in_region.is_empty() { &tier2s } else { in_region };
            let n_providers = rng.gen_range(1..=cfg.max_stub_providers.min(pool.len()));
            let mut chosen = Vec::with_capacity(n_providers);
            while chosen.len() < n_providers {
                let cand = pool[rng.gen_range(0..pool.len())];
                if !chosen.contains(&cand) {
                    chosen.push(cand);
                }
            }
            if rng.gen_bool(cfg.out_of_region_prob) {
                let outsiders: Vec<Asn> = out_of_region_pool[region as usize]
                    .iter()
                    .copied()
                    .filter(|t| !chosen.contains(t))
                    .collect();
                if !outsiders.is_empty() {
                    chosen.push(outsiders[rng.gen_range(0..outsiders.len())]);
                }
            }
            for provider in chosen {
                g.add_edge(provider, asn, Relationship::Customer)?;
            }
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_topology_has_expected_counts() {
        let cfg = TopologyConfig::small();
        let g = TopologyGenerator::new(cfg.clone(), 1).generate().unwrap();
        assert_eq!(g.len(), cfg.n_tier1 + cfg.n_tier2 + cfg.n_stubs);
        assert_eq!(g.tier_members(Tier::Tier1).len(), cfg.n_tier1);
        assert_eq!(g.tier_members(Tier::Tier2).len(), cfg.n_tier2);
        assert_eq!(g.tier_members(Tier::Stub).len(), cfg.n_stubs);
    }

    #[test]
    fn tier1_is_a_clique() {
        let g = TopologyGenerator::new(TopologyConfig::small(), 2).generate().unwrap();
        let t1 = g.tier_members(Tier::Tier1);
        for (i, a) in t1.iter().enumerate() {
            for b in &t1[i + 1..] {
                assert_eq!(g.relationship(*a, *b), Some(Relationship::Peer));
            }
        }
    }

    #[test]
    fn every_stub_has_a_provider() {
        let g = TopologyGenerator::new(TopologyConfig::small(), 3).generate().unwrap();
        for stub in g.tier_members(Tier::Stub) {
            assert!(!g.providers(stub).is_empty(), "{stub} has no provider");
            // Stubs never transit anyone.
            assert!(g.customers(stub).is_empty(), "{stub} has customers");
        }
    }

    #[test]
    fn every_tier2_buys_from_tier1() {
        let g = TopologyGenerator::new(TopologyConfig::small(), 4).generate().unwrap();
        for t2 in g.tier_members(Tier::Tier2) {
            let providers = g.providers(t2);
            assert!(!providers.is_empty());
            for p in providers {
                assert_eq!(g.info(p).unwrap().tier, Tier::Tier1);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TopologyGenerator::new(TopologyConfig::small(), 5).generate().unwrap();
        let b = TopologyGenerator::new(TopologyConfig::small(), 5).generate().unwrap();
        assert_eq!(a, b);
        let c = TopologyGenerator::new(TopologyConfig::small(), 6).generate().unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn regions_are_distributed() {
        let g = TopologyGenerator::new(TopologyConfig::small(), 7).generate().unwrap();
        let regions: std::collections::BTreeSet<u8> =
            g.tier_members(Tier::Stub).iter().map(|s| g.info(*s).unwrap().region).collect();
        assert_eq!(regions.len(), TopologyConfig::small().n_regions as usize);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = TopologyConfig::small();
        cfg.n_tier1 = 0;
        assert!(TopologyGenerator::new(cfg, 1).generate().is_err());

        let mut cfg = TopologyConfig::small();
        cfg.t2_peering_prob = 1.5;
        assert!(TopologyGenerator::new(cfg, 1).generate().is_err());

        let mut cfg = TopologyConfig::small();
        cfg.max_stub_providers = 0;
        assert!(TopologyGenerator::new(cfg, 1).generate().is_err());

        let mut cfg = TopologyConfig::small();
        cfg.n_regions = 0;
        assert!(TopologyGenerator::new(cfg, 1).generate().is_err());
    }

    #[test]
    fn standard_is_default_and_bigger() {
        let std_cfg = TopologyConfig::default();
        assert_eq!(std_cfg, TopologyConfig::standard());
        assert!(std_cfg.n_stubs > TopologyConfig::small().n_stubs);
    }
}
