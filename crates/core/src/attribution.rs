//! Family attribution from source-AS distributions (§VII-B).
//!
//! "ASN distributions also indicate the possible malware utilized by
//! botnets due to the location affinity property of botnet families. As a
//! result, … adversaries could be attributed to certain malware families
//! that could be contained by rapidly updating antivirus signatures and
//! ISPs filtering middleboxes."
//!
//! [`FamilyAttributor`] learns each family's source-AS share profile from
//! training attacks and attributes an unlabeled attack to the family whose
//! profile is closest in total-variation distance. This operationalizes
//! the containment workflow the paper sketches: an operator observing an
//! unattributed attack gets a ranked list of likely families.

use crate::{ModelError, Result};
use ddos_astopo::Asn;
use ddos_trace::{AttackRecord, FamilyId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A family's normalized source-AS share profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilyProfileDist {
    /// The family.
    pub family: FamilyId,
    /// Share of the family's observed bots per AS (sums to 1).
    pub shares: BTreeMap<Asn, f64>,
    /// Number of training attacks behind the profile.
    pub support: usize,
}

/// One attribution verdict: families ranked by distance, closest first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Attribution {
    /// `(family, total-variation distance)` pairs, ascending by distance.
    pub ranking: Vec<(FamilyId, f64)>,
}

impl Attribution {
    /// The most likely family.
    pub fn best(&self) -> FamilyId {
        self.ranking[0].0
    }

    /// Margin between the best and second-best distance (confidence
    /// proxy); 0 when only one family is known.
    pub fn margin(&self) -> f64 {
        if self.ranking.len() < 2 {
            0.0
        } else {
            self.ranking[1].1 - self.ranking[0].1
        }
    }
}

/// Attributes attacks to botnet families by source-AS profile proximity.
///
/// # Example
///
/// ```
/// use ddos_core::attribution::FamilyAttributor;
/// use ddos_trace::{CorpusConfig, TraceGenerator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let corpus = TraceGenerator::new(CorpusConfig::small(), 42).generate()?;
/// let (train, test) = corpus.split(0.8)?;
/// let attributor = FamilyAttributor::fit(train)?;
/// let verdict = attributor.attribute(&test[0])?;
/// assert!(!verdict.ranking.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilyAttributor {
    profiles: Vec<FamilyProfileDist>,
}

impl FamilyAttributor {
    /// Learns per-family AS-share profiles from labeled training attacks.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotEnoughHistory`] when `train` is empty.
    pub fn fit(train: &[AttackRecord]) -> Result<Self> {
        if train.is_empty() {
            return Err(ModelError::NotEnoughHistory {
                context: "family attribution profiles".to_string(),
                required: 1,
                actual: 0,
            });
        }
        let mut counts: BTreeMap<FamilyId, (BTreeMap<Asn, u64>, usize)> = BTreeMap::new();
        for attack in train {
            let entry = counts.entry(attack.family).or_default();
            entry.1 += 1;
            for &(asn, n) in attack.asn_histogram() {
                *entry.0.entry(asn).or_insert(0) += u64::from(n);
            }
        }
        let profiles = counts
            .into_iter()
            .map(|(family, (hist, support))| {
                let total: u64 = hist.values().sum();
                let shares = hist
                    .into_iter()
                    .map(|(asn, n)| (asn, n as f64 / total.max(1) as f64))
                    .collect();
                FamilyProfileDist { family, shares, support }
            })
            .collect();
        Ok(FamilyAttributor { profiles })
    }

    /// The learned profiles.
    pub fn profiles(&self) -> &[FamilyProfileDist] {
        &self.profiles
    }

    /// Attributes one attack: ranks every known family by total-variation
    /// distance between the attack's source-AS distribution and the
    /// family profile.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotEnoughHistory`] for an attack without
    /// bots.
    pub fn attribute(&self, attack: &AttackRecord) -> Result<Attribution> {
        let hist = attack.asn_histogram();
        if hist.is_empty() {
            return Err(ModelError::NotEnoughHistory {
                context: "attribution of an attack without bots".to_string(),
                required: 1,
                actual: 0,
            });
        }
        let total: u64 = hist.iter().map(|&(_, n)| u64::from(n)).sum();
        let attack_shares: BTreeMap<Asn, f64> =
            hist.iter().map(|&(asn, n)| (asn, n as f64 / total as f64)).collect();

        let mut ranking: Vec<(FamilyId, f64)> = self
            .profiles
            .iter()
            .map(|p| (p.family, total_variation(&attack_shares, &p.shares)))
            .collect();
        // NaN distances (NaN profile shares) rank after every real one.
        ranking.sort_by(|a, b| a.1.is_nan().cmp(&b.1.is_nan()).then(a.1.total_cmp(&b.1)));
        Ok(Attribution { ranking })
    }

    /// Attribution accuracy over a labeled test set: the fraction of
    /// attacks whose best-ranked family matches the truth.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotEnoughHistory`] for an empty test set.
    pub fn accuracy(&self, test: &[AttackRecord]) -> Result<f64> {
        if test.is_empty() {
            return Err(ModelError::NotEnoughHistory {
                context: "attribution accuracy".to_string(),
                required: 1,
                actual: 0,
            });
        }
        let correct = test
            .iter()
            .filter(|a| self.attribute(a).map(|v| v.best() == a.family).unwrap_or(false))
            .count();
        Ok(correct as f64 / test.len() as f64)
    }
}

/// Total-variation distance between two sparse distributions:
/// `½ Σ |p(x) − q(x)|` over the union support. 0 = identical, 1 = disjoint.
fn total_variation(p: &BTreeMap<Asn, f64>, q: &BTreeMap<Asn, f64>) -> f64 {
    let mut keys: std::collections::BTreeSet<Asn> = p.keys().copied().collect();
    keys.extend(q.keys().copied());
    0.5 * keys
        .into_iter()
        .map(|k| (p.get(&k).copied().unwrap_or(0.0) - q.get(&k).copied().unwrap_or(0.0)).abs())
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddos_trace::{Corpus, CorpusConfig, TraceGenerator};

    fn corpus() -> Corpus {
        TraceGenerator::new(CorpusConfig::small(), 151).generate().unwrap()
    }

    #[test]
    fn profiles_are_normalized() {
        let c = corpus();
        let (train, _) = c.split(0.8).unwrap();
        let at = FamilyAttributor::fit(train).unwrap();
        assert_eq!(at.profiles().len(), c.catalog().len());
        for p in at.profiles() {
            let total: f64 = p.shares.values().sum();
            assert!((total - 1.0).abs() < 1e-9, "{} sums to {total}", p.family);
            assert!(p.support > 0);
        }
    }

    #[test]
    fn attribution_accuracy_beats_chance_decisively() {
        let c = corpus();
        let (train, test) = c.split(0.8).unwrap();
        let at = FamilyAttributor::fit(train).unwrap();
        let acc = at.accuracy(test).unwrap();
        // Two families with distinct AS affinities: near-perfect expected;
        // demand far better than the 50% coin flip.
        assert!(acc > 0.9, "attribution accuracy {acc}");
    }

    #[test]
    fn ranking_and_margin_are_consistent() {
        let c = corpus();
        let (train, test) = c.split(0.8).unwrap();
        let at = FamilyAttributor::fit(train).unwrap();
        let v = at.attribute(&test[0]).unwrap();
        assert_eq!(v.ranking.len(), c.catalog().len());
        for w in v.ranking.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert!(v.margin() >= 0.0);
        assert_eq!(v.best(), v.ranking[0].0);
    }

    #[test]
    fn nan_profile_ranks_last_instead_of_panicking() {
        let c = corpus();
        let (train, test) = c.split(0.8).unwrap();
        let mut at = FamilyAttributor::fit(train).unwrap();
        let real = at.attribute(&test[0]).unwrap();
        let mut broken = at.profiles[0].clone();
        broken.family = FamilyId(usize::MAX);
        for share in broken.shares.values_mut() {
            *share = f64::NAN;
        }
        at.profiles.insert(0, broken);
        let ranked = at.attribute(&test[0]).unwrap();
        assert_eq!(ranked.best(), real.best());
        let (last, d) = *ranked.ranking.last().unwrap();
        assert_eq!(last, FamilyId(usize::MAX));
        assert!(d.is_nan());
    }

    #[test]
    fn total_variation_properties() {
        let mk = |pairs: &[(u32, f64)]| -> BTreeMap<Asn, f64> {
            pairs.iter().map(|(a, s)| (Asn(*a), *s)).collect()
        };
        let p = mk(&[(1, 0.5), (2, 0.5)]);
        let q = mk(&[(3, 1.0)]);
        assert_eq!(total_variation(&p, &p), 0.0);
        assert!((total_variation(&p, &q) - 1.0).abs() < 1e-12);
        // Symmetry.
        let r = mk(&[(1, 0.2), (2, 0.8)]);
        assert!((total_variation(&p, &r) - total_variation(&r, &p)).abs() < 1e-12);
        assert!((total_variation(&p, &r) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(FamilyAttributor::fit(&[]).is_err());
        let c = corpus();
        let (train, _) = c.split(0.8).unwrap();
        let at = FamilyAttributor::fit(train).unwrap();
        assert!(at.accuracy(&[]).is_err());
        let mut botless = train[0].clone();
        botless.bots_mut().clear();
        assert!(at.attribute(&botless).is_err());
    }
}
