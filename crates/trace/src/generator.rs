//! The end-to-end trace engine: topology → pools → schedules → attacks.
//!
//! [`TraceGenerator`] builds the substrate (synthetic Internet, address
//! plan, targets) and then runs one `FamilyGen` (in [`crate::stream`]) per
//! family — the crate's only per-day attack loop. Its two entry points
//! differ only in where each family's RNG comes from:
//! [`TraceGenerator::generate`] threads the corpus's one main RNG through
//! the families in catalog order, and
//! [`TraceGenerator::generate_partitioned`] gives every family its own
//! `family_seed` stream, as [`crate::stream::CorpusStream`] does.

use crate::attack::{AttackId, AttackRecord};
use crate::bots::{BotPool, SamplerScratch};
use crate::dataset::Corpus;
use crate::family::{FamilyCatalog, FamilyId};
use crate::scenario::{RegimeParams, ScenarioPolicy};
use crate::stream::FamilyGen;
use crate::targets::{TargetId, TargetPopulation};
use crate::time::{Timestamp, DAY, HOUR};
use crate::{Result, TraceError};
use ddos_astopo::gen::{TopologyConfig, TopologyGenerator};
use ddos_astopo::ipmap::PrefixAllocator;
use ddos_stats::distributions::log_normal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration of a corpus generation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Length of the observation window in days (the paper's window is
    /// roughly 220 days: August 2012 – March 2013).
    pub days: u32,
    /// Botnet family catalog.
    pub catalog: FamilyCatalog,
    /// Synthetic Internet parameters.
    pub topology: TopologyConfig,
    /// Number of target services.
    pub n_targets: u32,
    /// The adversary scenario policy governing how family behavior evolves
    /// over the window. Defaults to [`ScenarioPolicy::Stationary`] (the
    /// paper's static marginals, bit-identical to the pre-scenario
    /// generator).
    #[serde(default)]
    pub scenario: ScenarioPolicy,
}

impl CorpusConfig {
    /// A fast configuration for unit tests (~1–2 k attacks, 2 families).
    pub fn small() -> Self {
        CorpusConfig {
            days: 60,
            catalog: FamilyCatalog::small(),
            topology: TopologyConfig::small(),
            n_targets: 40,
            scenario: ScenarioPolicy::Stationary,
        }
    }

    /// The same configuration under a different adversary policy.
    #[must_use]
    pub fn with_scenario(mut self, scenario: ScenarioPolicy) -> Self {
        self.scenario = scenario;
        self
    }

    /// The paper-scale configuration: 220 days, the 10 Table I families,
    /// ~600 ASes, ~50 k attacks.
    pub fn standard() -> Self {
        CorpusConfig {
            days: 220,
            catalog: FamilyCatalog::icdcs2017(),
            topology: TopologyConfig::standard(),
            n_targets: 300,
            scenario: ScenarioPolicy::Stationary,
        }
    }

    /// A mid-size configuration for benches and examples: all 10 families
    /// at one quarter of the attack volume (the arrival *processes* keep
    /// their Table I shape; only the window shrinks).
    pub fn medium() -> Self {
        CorpusConfig {
            days: 110,
            catalog: FamilyCatalog::icdcs2017(),
            topology: TopologyConfig::standard(),
            n_targets: 150,
            scenario: ScenarioPolicy::Stationary,
        }
    }

    /// The Internet-scale configuration: ×100 the paper's attack volume
    /// over a ~100 k-AS topology. At roughly five million attacks this is
    /// far too large to materialize as an in-RAM [`Corpus`]; drive it
    /// through [`crate::stream::CorpusStream`] instead.
    pub fn internet() -> Self {
        CorpusConfig {
            days: 22_000,
            catalog: FamilyCatalog::internet(),
            topology: TopologyConfig::internet(),
            n_targets: 30_000,
            scenario: ScenarioPolicy::Stationary,
        }
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.days == 0 {
            return Err(TraceError::InvalidConfig { detail: "days must be nonzero".to_string() });
        }
        if self.n_targets == 0 {
            return Err(TraceError::InvalidConfig {
                detail: "need at least one target".to_string(),
            });
        }
        // A deserialized catalog never went through `FamilyCatalog::new`.
        for (_, profile) in self.catalog.iter() {
            profile.validate()?;
        }
        Ok(())
    }
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig::standard()
    }
}

/// Deterministic, seeded corpus generator.
///
/// # Example
///
/// ```
/// use ddos_trace::{CorpusConfig, TraceGenerator};
///
/// # fn main() -> Result<(), ddos_trace::TraceError> {
/// let corpus = TraceGenerator::new(CorpusConfig::small(), 7).generate()?;
/// let again = TraceGenerator::new(CorpusConfig::small(), 7).generate()?;
/// assert_eq!(corpus.attacks().len(), again.attacks().len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: CorpusConfig,
    seed: u64,
}

/// Per-(family, target) duration memory: log-deviation AR(1) state.
pub(crate) type DurationState = HashMap<(FamilyId, TargetId), f64>;

/// Derives a per-family stream seed from the corpus seed via a splitmix64
/// finalizer, so partitioned generation gives every family its own
/// statistically independent RNG stream. Used by the family-partitioned
/// paths ([`TraceGenerator::generate_partitioned`] and
/// [`crate::stream::CorpusStream`]); the single-stream
/// [`TraceGenerator::generate`] never calls this.
pub(crate) fn family_seed(seed: u64, slot: usize) -> u64 {
    let mut z = seed ^ (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generation substrate: synthetic Internet, address plan, targets.
pub(crate) struct Substrate {
    pub(crate) topology: ddos_astopo::AsGraph,
    pub(crate) ipmap: ddos_astopo::ipmap::IpAsnMap,
    pub(crate) allocations:
        std::collections::BTreeMap<ddos_astopo::Asn, Vec<ddos_astopo::ipmap::Prefix>>,
    pub(crate) targets: TargetPopulation,
}

/// Builds the substrate exactly as [`TraceGenerator::generate`] does: the
/// topology from `seed ^ 0xA5`, the RNG-free address plan, and the target
/// spread as the first consumer of the caller's main RNG. Both generators
/// and the stream share this, which is what makes their substrates
/// bit-identical.
pub(crate) fn build_substrate<R: Rng + ?Sized>(
    config: &CorpusConfig,
    seed: u64,
    rng: &mut R,
) -> Result<Substrate> {
    let topology = TopologyGenerator::new(config.topology.clone(), seed ^ 0xA5).generate()?;
    let (ipmap, allocations) = PrefixAllocator::new().allocate_for(&topology)?;
    let targets = TargetPopulation::spread(&topology, &allocations, config.n_targets, rng)?;
    Ok(Substrate { topology, ipmap, allocations, targets })
}

/// Moves a launch to the target's preferred hour (a deterministic offset
/// within ±6 h of the family's regime-shifted diurnal peak) plus Gaussian
/// jitter, keeping the day.
pub(crate) fn preferred_launch<R: Rng + ?Sized>(
    placed: Timestamp,
    target: TargetId,
    profile: &crate::family::FamilyProfile,
    params: &RegimeParams,
    rng: &mut R,
) -> Timestamp {
    let offset = (target.0 as i64 * 7) % 13 - 6; // -6..=6
    let pref = (profile.shifted_peak(params) as i64 + offset).rem_euclid(24) as f64;
    let jitter = profile.hour_jitter * ddos_stats::distributions::standard_normal(rng);
    let hour = (pref + jitter).rem_euclid(24.0);
    let secs = (hour * crate::time::HOUR as f64) as u64 % DAY;
    Timestamp(placed.day() as u64 * DAY + secs)
}

impl TraceGenerator {
    /// Creates a generator.
    pub fn new(config: CorpusConfig, seed: u64) -> Self {
        TraceGenerator { config, seed }
    }

    /// The configuration this generator will run.
    pub fn config(&self) -> &CorpusConfig {
        &self.config
    }

    /// Generates the corpus: the substrate, then every family in catalog
    /// order drawing from the one main RNG, which each family takes over
    /// and hands on to the next.
    ///
    /// # Errors
    ///
    /// Propagates configuration, topology and sampling errors.
    pub fn generate(&self) -> Result<Corpus> {
        self.generate_families(true)
    }

    /// Generates the corpus with per-family RNG streams — the in-RAM
    /// reference for [`crate::stream::CorpusStream`].
    ///
    /// Each family draws from its own `family_seed`-derived stream, so
    /// families are independent and the result is invariant to execution
    /// order. The statistical model and the per-day loop are those of
    /// [`TraceGenerator::generate`], but the draw *sequence* differs, so
    /// the two paths produce different (equally valid) corpora for the
    /// same seed.
    ///
    /// # Errors
    ///
    /// Propagates configuration, topology and sampling errors.
    pub fn generate_partitioned(&self) -> Result<Corpus> {
        self.generate_families(false)
    }

    /// Builds the substrate from the main RNG, runs each family's
    /// [`FamilyGen`] over the whole window, then sorts stably by
    /// `(start, family, target)` and assigns dense chronological ids. With
    /// `shared_rng` every family continues the main RNG where the previous
    /// one left it; otherwise each family seeds its own [`family_seed`]
    /// stream. That RNG source is the only difference between the two
    /// public generators.
    fn generate_families(&self, shared_rng: bool) -> Result<Corpus> {
        self.config.validate()?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let Substrate { topology, ipmap, allocations, targets } =
            build_substrate(&self.config, self.seed, &mut rng)?;
        let targets = Arc::new(targets);
        let mut main_rng = shared_rng.then_some(rng);

        let mut attacks: Vec<AttackRecord> = Vec::new();
        for (family_id, profile) in self.config.catalog.iter() {
            let family_rng = main_rng
                .take()
                .unwrap_or_else(|| StdRng::seed_from_u64(family_seed(self.seed, family_id.0)));
            let mut fam = FamilyGen::new(
                family_id,
                profile.clone(),
                &self.config,
                self.seed,
                &topology,
                &allocations,
                Arc::clone(&targets),
                family_rng,
            )?;
            fam.advance(self.config.days, &mut attacks)?;
            if shared_rng {
                main_rng = Some(fam.into_rng());
            }
        }

        attacks.sort_by_key(|a| (a.start, a.family, a.target));
        for (i, a) in attacks.iter_mut().enumerate() {
            a.id = AttackId(i as u64);
        }
        let targets = Arc::try_unwrap(targets).unwrap_or_else(|arc| (*arc).clone());
        Corpus::new(
            attacks,
            self.config.catalog.clone(),
            topology,
            ipmap,
            targets,
            self.config.days,
        )
    }
}

/// Builds the family's target-preference and vector pickers for one
/// regime: a Zipf over the slot- and regime-rotated target order, and the
/// regime's vector blend. Rebuilt lazily at regime boundaries; under a
/// stationary regime (zero rotation, profile vector weights) the pickers
/// are identical to the pre-scenario static ones. Consumes no randomness.
pub(crate) fn family_pickers(
    profile: &crate::family::FamilyProfile,
    slot: usize,
    targets: &TargetPopulation,
    params: &RegimeParams,
) -> Result<(ddos_stats::distributions::Categorical, ddos_stats::distributions::Categorical)> {
    let target_weights: Vec<f64> = (0..targets.len())
        .map(|i| {
            let rank = targets.preference_rank(i, slot, params);
            1.0 / ((rank + 1) as f64).powf(profile.target_zipf)
        })
        .collect();
    let target_picker =
        ddos_stats::distributions::Categorical::new(&target_weights).map_err(TraceError::Stats)?;
    let vector_picker = ddos_stats::distributions::Categorical::new(&params.vector_weights)
        .map_err(TraceError::Stats)?;
    Ok((target_picker, vector_picker))
}

/// Chooses the victim and (possibly adjusted) launch time. A multistage
/// follow-up re-attacks the previous target 30 s–24 h after the previous
/// launch (§III-A2).
///
/// # Errors
///
/// Propagates sampler parameter errors (none occur for the constant
/// log-normal gap parameters, so the draw stream is unchanged from the
/// previous infallible fallback).
pub(crate) fn pick_target<R: Rng + ?Sized>(
    days: u32,
    multistage_prob: f64,
    prev: &Option<(TargetId, Timestamp)>,
    placed: Timestamp,
    picker: &ddos_stats::distributions::Categorical,
    rng: &mut R,
) -> Result<(TargetId, Timestamp, bool)> {
    if let Some((prev_target, prev_start)) = prev {
        if rng.gen_bool(multistage_prob) {
            // Gap log-normal, median ~45 min, clamped to the band.
            let gap = log_normal(rng, (45.0 * 60.0f64).ln(), 0.5)
                .map_err(TraceError::Stats)?
                .clamp(30.0, (DAY - 1) as f64) as u64;
            let start = *prev_start + gap;
            if start.day() < days {
                return Ok((*prev_target, start, true));
            }
        }
    }
    Ok((TargetId(picker.sample(rng) as u32), placed, false))
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn build_attack<R: Rng + ?Sized>(
    family: FamilyId,
    profile: &crate::family::FamilyProfile,
    params: &RegimeParams,
    pool: &BotPool,
    sampler: &mut SamplerScratch,
    target: TargetId,
    target_asn: ddos_astopo::Asn,
    start: Timestamp,
    activity: f64,
    multistage: bool,
    vector: crate::attack::AttackVector,
    duration_state: &mut DurationState,
    rng: &mut R,
) -> Result<AttackRecord> {
    // Magnitude: log-normal with mean `mean_magnitude`, scaled by the
    // day's activity level (which already folds in regime intensity
    // through the latent rate).
    let sigma = profile.magnitude_sigma;
    let mu = profile.mean_magnitude.ln() - sigma * sigma / 2.0;
    let raw = log_normal(rng, mu, sigma).map_err(TraceError::Stats)? * activity;
    let magnitude = (raw.round() as usize).clamp(3, pool.len());
    let bots = pool.participants_in_regime(params, start.day(), magnitude, sampler, rng);
    let magnitude = bots.len();

    // Duration: per-(family, target) AR(1) in log space around the
    // family median, mildly scaled by magnitude. The AR(1) shape comes
    // from the governing regime, not the static profile.
    let key = (family, target);
    let prev_dev = duration_state.get(&key).copied().unwrap_or(0.0);
    let rho = params.duration_persistence;
    let innov = params.duration_sigma * (1.0 - rho * rho).sqrt();
    let dev = rho * prev_dev + innov * ddos_stats::distributions::standard_normal(rng);
    duration_state.insert(key, dev);
    let mag_factor = (magnitude as f64 / profile.mean_magnitude).powf(0.3);
    let duration = (profile.median_duration_secs * dev.exp() * mag_factor)
        .clamp(30.0, (3 * DAY) as f64) as u64;

    // Hourly cumulative snapshots: linear bot ramp-up over the attack.
    let hours = duration.div_ceil(HOUR).max(1) as usize;
    let hourly_bot_counts: Vec<u32> =
        (1..=hours).map(|h| ((magnitude * h) as f64 / hours as f64).ceil() as u32).collect();

    // id 0 here; the real id is assigned after the global sort.
    Ok(AttackRecord::new(
        AttackId(0),
        family,
        target,
        target_asn,
        start,
        duration,
        bots,
        hourly_bot_counts,
        multistage,
        vector,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus(seed: u64) -> Corpus {
        TraceGenerator::new(CorpusConfig::small(), seed).generate().unwrap()
    }

    #[test]
    fn degenerate_configs_fail_with_typed_errors_not_panics() {
        let zero_days = CorpusConfig { days: 0, ..CorpusConfig::small() };
        let err = TraceGenerator::new(zero_days, 1).generate().unwrap_err();
        assert!(matches!(err, TraceError::InvalidConfig { ref detail } if detail.contains("days")));

        let no_targets = CorpusConfig { n_targets: 0, ..CorpusConfig::small() };
        let err = TraceGenerator::new(no_targets, 1).generate().unwrap_err();
        assert!(
            matches!(err, TraceError::InvalidConfig { ref detail } if detail.contains("target"))
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_corpus(5);
        let b = small_corpus(5);
        assert_eq!(a.attacks().len(), b.attacks().len());
        assert_eq!(a.attacks()[10], b.attacks()[10]);
        let c = small_corpus(6);
        assert_ne!(a.attacks().len(), c.attacks().len());
    }

    #[test]
    fn attacks_are_chronological_with_dense_ids() {
        let c = small_corpus(7);
        for (i, w) in c.attacks().windows(2).enumerate() {
            assert!(w[0].start <= w[1].start, "out of order at {i}");
        }
        for (i, a) in c.attacks().iter().enumerate() {
            assert_eq!(a.id, AttackId(i as u64));
        }
    }

    #[test]
    fn every_attack_is_internally_consistent() {
        let c = small_corpus(8);
        for a in c.attacks() {
            assert!(a.is_consistent(), "{} inconsistent", a.id);
            assert!(a.magnitude() >= 3);
            assert!(a.duration_secs >= 30);
            assert!(a.start.day() < 60 + 3); // multistage may spill ≤ 1 day
        }
    }

    #[test]
    fn corpus_size_matches_expectation() {
        let c = small_corpus(9);
        let expected: f64 =
            CorpusConfig::small().catalog.iter().map(|(_, f)| f.expected_attacks()).sum();
        let n = c.attacks().len() as f64;
        assert!(
            n > expected * 0.5 && n < expected * 1.6,
            "generated {n}, expected about {expected}"
        );
    }

    #[test]
    fn multistage_attacks_hit_previous_target_within_band() {
        let c = small_corpus(10);
        let mut by_family: std::collections::HashMap<FamilyId, Vec<&AttackRecord>> =
            std::collections::HashMap::new();
        for a in c.attacks() {
            by_family.entry(a.family).or_default().push(a);
        }
        let mut checked = 0;
        for attacks in by_family.values() {
            // Attacks are chronological; find multistage ones and verify a
            // prior attack by the family on the same target within the band.
            for (i, a) in attacks.iter().enumerate() {
                if !a.multistage {
                    continue;
                }
                let ok = attacks[..i].iter().rev().any(|p| {
                    p.target == a.target && {
                        let gap = a.start.abs_diff(p.start);
                        (30..DAY).contains(&gap)
                    }
                });
                assert!(ok, "{} flagged multistage without a band-mate", a.id);
                checked += 1;
            }
        }
        assert!(checked > 10, "too few multistage attacks to trust the test ({checked})");
    }

    #[test]
    fn multistage_fraction_is_plausible() {
        let c = small_corpus(11);
        let ms = c.attacks().iter().filter(|a| a.multistage).count() as f64;
        let frac = ms / c.attacks().len() as f64;
        // Catalog probabilities are 0.40–0.45 for the two small families.
        assert!(frac > 0.2 && frac < 0.6, "multistage fraction {frac}");
    }

    #[test]
    fn bots_resolve_through_ip_map() {
        let c = small_corpus(12);
        for a in c.attacks().iter().take(50) {
            for b in a.bots() {
                assert_eq!(c.ip_map().lookup(b.ip), Some(b.asn), "IP map mismatch");
            }
        }
    }

    #[test]
    fn family_target_preferences_differ() {
        let c = small_corpus(13);
        let top_target = |fam: FamilyId| {
            let mut h: std::collections::HashMap<TargetId, usize> =
                std::collections::HashMap::new();
            for a in c.attacks().iter().filter(|a| a.family == fam) {
                *h.entry(a.target).or_insert(0) += 1;
            }
            h.into_iter().max_by_key(|(_, n)| *n).map(|(t, _)| t)
        };
        assert_ne!(top_target(FamilyId(0)), top_target(FamilyId(1)));
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = CorpusConfig::small();
        cfg.days = 0;
        assert!(TraceGenerator::new(cfg, 1).generate().is_err());
        let mut cfg = CorpusConfig::small();
        cfg.n_targets = 0;
        assert!(TraceGenerator::new(cfg, 1).generate().is_err());
    }
}
