//! The §VII-B use cases: turning predictions into defense actions.
//!
//! Fig. 5 sketches two deployments:
//!
//! 1. **AS-based filtering** (Fig. 5a) — an SDN control plane installs
//!    classification rules for the ASes the model predicts attack traffic
//!    will come from; matching flows detour through scrubbing.
//!    [`AsFilteringSimulator`] measures how much of an actual attack the
//!    predicted rules would have caught, against a random-rule baseline.
//! 2. **Middlebox traversal** (Fig. 5b) — under normal load traffic passes
//!    the load balancer before the firewall; when an attack is expected
//!    the order flips so packets are scrubbed first.
//!    [`MiddleboxSimulator`] measures unprotected attack exposure under a
//!    prediction-triggered flip versus a purely reactive one.

use crate::Result;
use ddos_astopo::Asn;
use ddos_trace::AttackRecord;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Ranks `(asn, predicted share)` pairs by share, highest first, ties by
/// ASN; NaN shares rank after every real one instead of panicking.
fn by_predicted_share(a: &(Asn, f64), b: &(Asn, f64)) -> Ordering {
    a.1.is_nan().cmp(&b.1.is_nan()).then(b.1.total_cmp(&a.1)).then(a.0.cmp(&b.0))
}

/// Outcome of replaying one attack against a set of AS filter rules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FilteringOutcome {
    /// ASes that had rules installed.
    pub filtered_asns: Vec<Asn>,
    /// Fraction of the attack's bots whose AS matched a rule.
    pub coverage: f64,
    /// Number of rules installed (switch TCAM budget).
    pub rules_used: usize,
}

/// Simulates AS-based attack-traffic classification at an SDN ingress.
#[derive(Debug, Clone, Default)]
pub struct AsFilteringSimulator;

impl AsFilteringSimulator {
    /// Creates a simulator.
    pub fn new() -> Self {
        AsFilteringSimulator
    }

    /// Installs rules for the `k` highest-share ASes of a predicted
    /// source distribution (`(asn, predicted share)` pairs) and replays
    /// `attack` through them.
    pub fn apply_predicted(
        &self,
        predicted: &[(Asn, f64)],
        k: usize,
        attack: &AttackRecord,
    ) -> FilteringOutcome {
        let mut ranked: Vec<(Asn, f64)> = predicted.to_vec();
        ranked.sort_by(by_predicted_share);
        let rules: Vec<Asn> = ranked.into_iter().take(k).map(|(a, _)| a).collect();
        self.replay(&rules, attack)
    }

    /// Installs rules for `k` ASes drawn uniformly from `universe`
    /// (the no-model baseline) and replays `attack`.
    pub fn apply_random<R: Rng + ?Sized>(
        &self,
        universe: &[Asn],
        k: usize,
        attack: &AttackRecord,
        rng: &mut R,
    ) -> FilteringOutcome {
        let mut pool = universe.to_vec();
        let k = k.min(pool.len());
        for i in 0..k {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        pool.truncate(k);
        self.replay(&pool, attack)
    }

    /// Replays an attack against explicit rules.
    pub fn replay(&self, rules: &[Asn], attack: &AttackRecord) -> FilteringOutcome {
        let total = attack.magnitude().max(1) as f64;
        let caught = attack.bots().iter().filter(|b| rules.contains(&b.asn)).count() as f64;
        FilteringOutcome {
            filtered_asns: rules.to_vec(),
            coverage: caught / total,
            rules_used: rules.len(),
        }
    }
}

/// Which middlebox order is in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PathOrder {
    /// Load balancer first (normal operation, better throughput).
    LoadBalancerFirst,
    /// Firewall first (attack posture: scrub before anything mutates the
    /// packets).
    FirewallFirst,
}

/// Outcome of one middlebox-traversal episode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraversalOutcome {
    /// Seconds of attack traffic that passed while the path was still
    /// load-balancer-first (unscrubbed exposure).
    pub unprotected_secs: f64,
    /// Seconds the firewall-first posture was held while *no* attack was
    /// running (throughput cost of being early).
    pub overcautious_secs: f64,
    /// When the flip happened, seconds from episode start.
    pub flip_at: f64,
}

/// Simulates the Fig. 5b path-reordering policy over one attack episode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MiddleboxSimulator {
    /// How long before the predicted attack start the flip is scheduled
    /// (the "graceful" margin that minimizes service interruption).
    pub proactive_margin_secs: f64,
    /// Detection latency of the reactive fallback (time from true attack
    /// start to a reactive flip).
    pub detection_delay_secs: f64,
}

impl Default for MiddleboxSimulator {
    fn default() -> Self {
        MiddleboxSimulator { proactive_margin_secs: 1_800.0, detection_delay_secs: 120.0 }
    }
}

impl MiddleboxSimulator {
    /// Proactive policy: flip at `predicted_start − margin` (clamped to the
    /// episode start at 0), then replay an attack over
    /// `[true_start, true_start + duration]`.
    pub fn proactive(
        &self,
        predicted_start: f64,
        true_start: f64,
        duration: f64,
    ) -> TraversalOutcome {
        let flip_at = (predicted_start - self.proactive_margin_secs).max(0.0);
        self.outcome(flip_at, true_start, duration)
    }

    /// Reactive policy: flip only after the attack is detected.
    pub fn reactive(&self, true_start: f64, duration: f64) -> TraversalOutcome {
        let flip_at = true_start + self.detection_delay_secs;
        self.outcome(flip_at, true_start, duration)
    }

    fn outcome(&self, flip_at: f64, true_start: f64, duration: f64) -> TraversalOutcome {
        let attack_end = true_start + duration;
        // Attack time before the flip is unprotected.
        let unprotected = (flip_at.min(attack_end) - true_start).max(0.0);
        // Firewall-first time outside the attack window is overhead.
        let overcautious = (true_start - flip_at).max(0.0);
        TraversalOutcome { unprotected_secs: unprotected, overcautious_secs: overcautious, flip_at }
    }

    /// Convenience comparison of both policies for one episode; returns
    /// `(proactive, reactive)`.
    pub fn compare(
        &self,
        predicted_start: f64,
        true_start: f64,
        duration: f64,
    ) -> Result<(TraversalOutcome, TraversalOutcome)> {
        Ok((
            self.proactive(predicted_start, true_start, duration),
            self.reactive(true_start, duration),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddos_trace::{CorpusConfig, TraceGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_attack() -> AttackRecord {
        let corpus = TraceGenerator::new(CorpusConfig::small(), 131).generate().unwrap();
        corpus
            .attacks()
            .iter()
            .find(|a| a.source_asns().len() >= 3)
            .expect("multi-AS attack exists")
            .clone()
    }

    #[test]
    fn perfect_prediction_gives_full_coverage() {
        let attack = sample_attack();
        let sim = AsFilteringSimulator::new();
        let hist = attack.asn_histogram();
        let predicted: Vec<(Asn, f64)> =
            hist.iter().map(|(a, n)| (*a, *n as f64 / attack.magnitude() as f64)).collect();
        let out = sim.apply_predicted(&predicted, predicted.len(), &attack);
        assert!((out.coverage - 1.0).abs() < 1e-12);
        assert_eq!(out.rules_used, predicted.len());
    }

    #[test]
    fn top_k_prediction_beats_random_rules() {
        let attack = sample_attack();
        let sim = AsFilteringSimulator::new();
        let hist = attack.asn_histogram();
        let predicted: Vec<(Asn, f64)> =
            hist.iter().map(|(a, n)| (*a, *n as f64 / attack.magnitude() as f64)).collect();
        let k = 2;
        let predicted_out = sim.apply_predicted(&predicted, k, &attack);

        // Random baseline over a wide AS universe.
        let universe: Vec<Asn> = (100..200).map(Asn).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let mut random_cov = 0.0;
        for _ in 0..20 {
            random_cov += sim.apply_random(&universe, k, &attack, &mut rng).coverage;
        }
        random_cov /= 20.0;
        assert!(
            predicted_out.coverage > random_cov,
            "predicted {} vs random {random_cov}",
            predicted_out.coverage
        );
    }

    #[test]
    fn nan_predicted_shares_rank_last_instead_of_panicking() {
        let attack = sample_attack();
        let mut predicted: Vec<(Asn, f64)> = attack
            .asn_histogram()
            .iter()
            .map(|(a, n)| (*a, *n as f64 / attack.magnitude() as f64))
            .collect();
        let k = predicted.len();
        let clean = AsFilteringSimulator::new().apply_predicted(&predicted, k, &attack);
        predicted.insert(0, (Asn(u32::MAX), f64::NAN));
        predicted.push((Asn(u32::MAX - 1), -f64::NAN));
        let out = AsFilteringSimulator::new().apply_predicted(&predicted, k, &attack);
        assert_eq!(out.filtered_asns, clean.filtered_asns);
    }

    #[test]
    fn empty_rules_catch_nothing() {
        let attack = sample_attack();
        let out = AsFilteringSimulator::new().replay(&[], &attack);
        assert_eq!(out.coverage, 0.0);
        assert_eq!(out.rules_used, 0);
    }

    #[test]
    fn accurate_proactive_flip_eliminates_exposure() {
        let sim = MiddleboxSimulator::default();
        // Predicted exactly right: flip 30 min early, zero unprotected time.
        let (pro, rea) = sim.compare(10_000.0, 10_000.0, 3_600.0).unwrap();
        assert_eq!(pro.unprotected_secs, 0.0);
        assert!((pro.overcautious_secs - 1_800.0).abs() < 1e-9);
        // Reactive pays the detection delay.
        assert!((rea.unprotected_secs - 120.0).abs() < 1e-9);
        assert_eq!(rea.overcautious_secs, 0.0);
    }

    #[test]
    fn late_prediction_still_caps_exposure_at_duration() {
        let sim = MiddleboxSimulator::default();
        // Prediction an hour late on a 10-minute attack: fully exposed,
        // but never more than the attack duration.
        let out = sim.proactive(14_000.0, 10_000.0, 600.0);
        assert_eq!(out.unprotected_secs, 600.0);
    }

    #[test]
    fn early_flip_costs_overcaution_only() {
        let sim = MiddleboxSimulator::default();
        let out = sim.proactive(5_000.0, 20_000.0, 600.0);
        assert_eq!(out.unprotected_secs, 0.0);
        assert!(out.overcautious_secs > 0.0);
        assert!(out.flip_at < 20_000.0);
    }

    #[test]
    fn flip_never_before_episode_start() {
        let sim = MiddleboxSimulator::default();
        let out = sim.proactive(100.0, 400.0, 50.0);
        assert_eq!(out.flip_at, 0.0);
    }
}
