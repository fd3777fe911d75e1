//! Cross-crate substrate integration: the synthetic Internet, the
//! valley-free distance oracle, the IP→ASN mapping and the trace generator
//! must agree with each other.

use ddos_adversary::astopo::paths::PathOracle;
use ddos_adversary::astopo::Tier;
use ddos_adversary::model::features::FeatureExtractor;
use ddos_adversary::trace::{Corpus, CorpusConfig, TraceGenerator};

fn corpus() -> Corpus {
    TraceGenerator::new(CorpusConfig::small(), 77).generate().unwrap()
}

#[test]
fn corpus_bots_resolve_and_sit_in_stub_ases() {
    let c = corpus();
    for attack in c.attacks().iter().take(100) {
        for bot in attack.bots() {
            // The commercial-mapping stand-in must agree with the record.
            assert_eq!(c.ip_map().lookup(bot.ip), Some(bot.asn));
            // Bots live in stub networks.
            assert_eq!(c.topology().info(bot.asn).unwrap().tier, Tier::Stub);
        }
        // Targets too.
        assert_eq!(c.topology().info(attack.target_asn).unwrap().tier, Tier::Stub);
    }
}

#[test]
fn source_distribution_uses_real_distances() {
    // A^s must be computable for every attack — i.e. every pair of
    // attack-source ASes has a valley-free path.
    let c = corpus();
    let fx = FeatureExtractor::new(&c);
    let oracle = PathOracle::new(c.topology());
    for attack in c.attacks().iter().take(40) {
        let asns = attack.source_asns();
        for pair in asns.windows(2) {
            assert!(
                oracle.hop_distance(pair[0], pair[1]).is_some(),
                "{} and {} unreachable",
                pair[0],
                pair[1]
            );
        }
        assert!(fx.source_distribution(attack).unwrap() > 0.0);
    }
}

#[test]
fn family_geolocation_affinity_is_visible() {
    // Different families should concentrate bots in different ASes —
    // the paper's "location affinity property of botnet families".
    let c = corpus();
    let fams = c.catalog().most_active(2);
    let top_as = |fam| {
        let mut counts: std::collections::BTreeMap<_, usize> = Default::default();
        for a in c.family_attacks(fam) {
            for b in a.bots() {
                *counts.entry(b.asn).or_insert(0) += 1;
            }
        }
        counts.into_iter().max_by_key(|(_, n)| *n).map(|(a, _)| a)
    };
    assert_ne!(top_as(fams[0]), top_as(fams[1]));
}

#[test]
fn timestamp_decomposition_is_consistent_across_crates() {
    let c = corpus();
    for attack in c.attacks().iter().take(200) {
        let parts = ddos_adversary::model::variables::TimestampParts::from_timestamp(attack.start);
        assert_eq!(parts.hour, attack.start.hour());
        assert_eq!(parts.day, attack.start.day_of_month());
        assert!(parts.hour < 24);
        assert!((1..=31).contains(&parts.day));
    }
}

#[test]
fn corpus_magnitudes_match_hourly_snapshots() {
    let c = corpus();
    for attack in c.attacks() {
        assert!(attack.is_consistent(), "{} inconsistent", attack.id);
        assert_eq!(*attack.hourly_bot_counts.last().unwrap() as usize, attack.magnitude());
    }
}
