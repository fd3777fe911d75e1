//! The adversary scenario layer: regime-switching attacker policies.
//!
//! The paper calibrates each family's marginals once and replays them for
//! the whole window; this module lifts those marginals into a
//! *policy* — a deterministic per-family regime-switching process that
//! mutates intensity, diurnal phase, target-preference rotation, duration
//! AR(1) shape, pool engagement and attack-vector blend at regime
//! boundaries. Every generation path consumes a [`RegimeParams`] view
//! instead of reading the static [`FamilyProfile`] fields directly, so
//! swapping the adversary's strategy is a configuration change, not a
//! generator rewrite.
//!
//! Two invariants make the layer safe to thread through the streaming
//! generator:
//!
//! * **Regime schedules draw from their own stream.** Boundaries and
//!   per-regime mutations come from a dedicated splitmix64 sequence
//!   (`scenario_seed`-derived), never from the family's `StdRng`, so a
//!   policy change never shifts the draw sequence of anything it does not
//!   directly parameterize — and [`ScenarioPolicy::Stationary`] consumes
//!   zero draws, leaving every existing fingerprint byte-identical.
//! * **Schedules are precomputed and day-indexed.** A
//!   [`RegimeSchedule`] is a function of `(policy, profile, days, seed,
//!   slot)` alone; lookups key on the *plan day*, so advancing a family in
//!   1-day or 64-day chunks, serially or across workers, walks the exact
//!   same parameter sequence (the [`crate::stream::CorpusStream`]
//!   safe-emission bound never sees regime state at all).

use crate::family::FamilyProfile;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A built-in attacker policy governing how family behavior evolves over
/// the trace window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ScenarioPolicy {
    /// The paper's static process: one regime equal to the calibrated
    /// profile. Bit-identical to the pre-scenario generator.
    #[default]
    Stationary,
    /// Alternating burst/lull regimes: intensity swings far above and
    /// below the calibrated rate while bursts mobilize a wider slice of
    /// the bot pool and nudge target preferences.
    RotationBurst,
    /// The family walks its target-preference head across the population
    /// in large jumps, resetting per-target duration memory and mutating
    /// the duration AR(1) shape as campaigns move.
    TargetMigration,
    /// The diurnal launch phase drifts forward a few hours per regime —
    /// the botmaster's schedule (or timezone) migrates.
    DiurnalDrift,
    /// The attack-vector mix switches between volumetric, protocol and
    /// application blends (the CE-CMS pattern taxonomy) regime to regime.
    MultiVectorBlend,
}

impl ScenarioPolicy {
    /// Every built-in policy, in stable order.
    pub const ALL: [ScenarioPolicy; 5] = [
        ScenarioPolicy::Stationary,
        ScenarioPolicy::RotationBurst,
        ScenarioPolicy::TargetMigration,
        ScenarioPolicy::DiurnalDrift,
        ScenarioPolicy::MultiVectorBlend,
    ];

    /// Stable lower-case name (CLI and report label).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioPolicy::Stationary => "stationary",
            ScenarioPolicy::RotationBurst => "rotation-burst",
            ScenarioPolicy::TargetMigration => "target-migration",
            ScenarioPolicy::DiurnalDrift => "diurnal-drift",
            ScenarioPolicy::MultiVectorBlend => "multi-vector-blend",
        }
    }

    /// Parses a [`ScenarioPolicy::name`] back to the policy.
    pub fn parse(s: &str) -> Option<Self> {
        ScenarioPolicy::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Whether this is the static single-regime policy.
    pub fn is_stationary(self) -> bool {
        self == ScenarioPolicy::Stationary
    }
}

impl fmt::Display for ScenarioPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The regime-local parameter view the generation stack consumes in place
/// of static profile fields. [`FamilyProfile::stationary_regime`] produces
/// the view equal to the calibrated marginals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegimeParams {
    /// Multiplier on the latent daily attack rate (1.0 = calibrated).
    pub intensity: f64,
    /// Hours added to the family's diurnal peak, `0..24`.
    pub diurnal_shift: u8,
    /// Extra rotation applied to the target-preference rank order.
    pub target_rotation: usize,
    /// AR(1) persistence of per-target log-durations for this regime.
    pub duration_persistence: f64,
    /// Log-space σ of attack duration for this regime.
    pub duration_sigma: f64,
    /// Multiplier on the bot pool's active-window fraction (1.0 =
    /// calibrated; bursts mobilize more of the pool).
    pub pool_engagement: f64,
    /// Relative weights over [`crate::attack::AttackVector::ALL`].
    pub vector_weights: [f64; 4],
}

/// One regime: the day it starts and the parameters in force until the
/// next regime begins.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Regime {
    /// First day (inclusive) this regime governs.
    pub start_day: u32,
    /// The regime-local parameter view.
    pub params: RegimeParams,
}

/// A family's full regime timeline over the trace window: regime 0 always
/// starts on day 0 with the calibrated (stationary) parameters, so every
/// policy's pre-shift behavior *is* the paper's process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegimeSchedule {
    regimes: Vec<Regime>,
}

/// Derives the scenario stream seed for one family. Salting the corpus
/// seed before the splitmix64 finalizer keeps this stream disjoint from
/// [`crate::generator::family_seed`], so regime randomness never collides
/// with generation randomness.
fn scenario_seed(seed: u64, slot: usize) -> u64 {
    let mut z = (seed ^ 0xA076_1D64_78BD_642F) ^ (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Minimal splitmix64 sequence for regime scheduling. Deliberately *not*
/// the family `StdRng`: scenario draws must never perturb generation
/// draws.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl RegimeSchedule {
    /// The single-regime schedule equal to the calibrated profile.
    pub fn stationary(profile: &FamilyProfile) -> Self {
        RegimeSchedule {
            regimes: vec![Regime { start_day: 0, params: profile.stationary_regime() }],
        }
    }

    /// Generates the family's regime timeline for `policy` over
    /// `total_days`, deterministically in `(policy, profile, seed, slot)`.
    /// Regime lengths center on `total_days / 5` (clamped to 7–365 days)
    /// with ±50% jitter; regime 0 is always the stationary view.
    pub fn generate(
        policy: ScenarioPolicy,
        profile: &FamilyProfile,
        total_days: u32,
        seed: u64,
        slot: usize,
    ) -> Self {
        let base = profile.stationary_regime();
        let mut regimes = vec![Regime { start_day: 0, params: base }];
        if policy.is_stationary() {
            return RegimeSchedule { regimes };
        }
        let mut rng = SplitMix64(scenario_seed(seed, slot));
        let mean_len = (total_days / 5).clamp(7, 365);
        let next_len = |rng: &mut SplitMix64| {
            (mean_len / 2).max(1) + (rng.next_u64() % (mean_len as u64 + 1)) as u32
        };
        let mut day = next_len(&mut rng);
        let mut prev = base;
        let mut idx = 1usize;
        while day < total_days {
            let params = mutate(policy, &base, &prev, idx, &mut rng);
            regimes.push(Regime { start_day: day, params });
            prev = params;
            day = day.saturating_add(next_len(&mut rng));
            idx += 1;
        }
        RegimeSchedule { regimes }
    }

    /// All regimes, chronologically; the first always starts on day 0.
    pub fn regimes(&self) -> &[Regime] {
        &self.regimes
    }

    /// Index of the regime governing `day`.
    pub fn index_at(&self, day: u32) -> usize {
        self.regimes.partition_point(|r| r.start_day <= day) - 1
    }

    /// The parameter view governing `day`.
    pub fn params_at(&self, day: u32) -> &RegimeParams {
        &self.regimes[self.index_at(day)].params
    }

    /// Days on which a new regime begins (excludes day 0).
    pub fn boundaries(&self) -> Vec<u32> {
        self.regimes[1..].iter().map(|r| r.start_day).collect()
    }
}

/// Mutates the stationary view into regime `idx`'s parameters under
/// `policy`. `prev` is the previous regime's view, so walks (rotation,
/// phase) accumulate.
fn mutate(
    policy: ScenarioPolicy,
    base: &RegimeParams,
    prev: &RegimeParams,
    idx: usize,
    rng: &mut SplitMix64,
) -> RegimeParams {
    let mut p = *base;
    match policy {
        ScenarioPolicy::Stationary => {}
        ScenarioPolicy::RotationBurst => {
            let u = rng.next_f64();
            if idx % 2 == 1 {
                // Burst: well above the calibrated rate, wider pool window.
                p.intensity = 1.8 + 1.6 * u;
                p.pool_engagement = 1.3;
            } else {
                // Lull between bursts.
                p.intensity = 0.35 + 0.3 * u;
                p.pool_engagement = 0.8;
            }
            p.target_rotation = (rng.next_u64() % 5) as usize;
        }
        ScenarioPolicy::TargetMigration => {
            p.target_rotation = prev.target_rotation + 17 + (rng.next_u64() % 43) as usize;
            p.duration_persistence = 0.25 + 0.5 * rng.next_f64();
            p.duration_sigma = base.duration_sigma * (0.6 + 0.8 * rng.next_f64());
        }
        ScenarioPolicy::DiurnalDrift => {
            p.diurnal_shift = ((prev.diurnal_shift as u64 + 3 + rng.next_u64() % 5) % 24) as u8;
            p.intensity = 0.85 + 0.3 * rng.next_f64();
        }
        ScenarioPolicy::MultiVectorBlend => {
            // CE-CMS style pattern taxonomy, over [syn, udp, http, amp]:
            // volumetric (UDP floods + amplification), protocol (SYN state
            // exhaustion), application (HTTP request floods).
            const BLENDS: [[f64; 4]; 3] =
                [[0.5, 5.0, 0.5, 4.0], [6.0, 2.0, 0.5, 0.5], [0.5, 1.0, 7.0, 0.2]];
            p.vector_weights = BLENDS[(rng.next_u64() % 3) as usize];
            p.intensity = 0.9 + 0.4 * rng.next_f64();
            p.pool_engagement = 1.0 + 0.2 * rng.next_f64();
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::FamilyCatalog;

    fn profile() -> FamilyProfile {
        FamilyCatalog::small().profile(crate::family::FamilyId(0)).unwrap().clone()
    }

    #[test]
    fn stationary_has_one_calibrated_regime() {
        let p = profile();
        let s = RegimeSchedule::generate(ScenarioPolicy::Stationary, &p, 220, 42, 0);
        assert_eq!(s.regimes().len(), 1);
        let params = s.params_at(0);
        assert_eq!(params.intensity, 1.0);
        assert_eq!(params.diurnal_shift, 0);
        assert_eq!(params.target_rotation, 0);
        assert_eq!(params.duration_persistence, p.duration_persistence);
        assert_eq!(params.duration_sigma, p.duration_sigma);
        assert_eq!(params.pool_engagement, 1.0);
        assert_eq!(params.vector_weights, p.vector_weights);
        assert!(s.boundaries().is_empty());
    }

    #[test]
    fn schedules_are_deterministic_per_seed_and_slot() {
        let p = profile();
        for policy in ScenarioPolicy::ALL {
            let a = RegimeSchedule::generate(policy, &p, 220, 7, 3);
            let b = RegimeSchedule::generate(policy, &p, 220, 7, 3);
            assert_eq!(a, b, "{policy} not deterministic");
            if !policy.is_stationary() {
                let c = RegimeSchedule::generate(policy, &p, 220, 8, 3);
                assert_ne!(a, c, "{policy} ignores the seed");
                let d = RegimeSchedule::generate(policy, &p, 220, 7, 4);
                assert_ne!(a, d, "{policy} ignores the slot");
            }
        }
    }

    #[test]
    fn non_stationary_policies_switch_regimes() {
        let p = profile();
        for policy in &ScenarioPolicy::ALL[1..] {
            let s = RegimeSchedule::generate(*policy, &p, 220, 42, 0);
            assert!(s.regimes().len() >= 3, "{policy} produced {} regimes", s.regimes().len());
            assert_eq!(s.regimes()[0].params, p.stationary_regime());
            for w in s.regimes().windows(2) {
                assert!(w[0].start_day < w[1].start_day);
            }
            assert!(s.regimes().last().unwrap().start_day < 220);
        }
    }

    #[test]
    fn day_lookup_matches_regime_spans() {
        let p = profile();
        let s = RegimeSchedule::generate(ScenarioPolicy::RotationBurst, &p, 220, 42, 1);
        for (i, r) in s.regimes().iter().enumerate() {
            assert_eq!(s.index_at(r.start_day), i);
            if i > 0 {
                assert_eq!(s.index_at(r.start_day - 1), i - 1);
            }
        }
        assert_eq!(s.index_at(10_000), s.regimes().len() - 1);
    }

    #[test]
    fn policy_mutations_touch_their_axis() {
        let p = profile();
        let burst = RegimeSchedule::generate(ScenarioPolicy::RotationBurst, &p, 220, 42, 0);
        assert!(burst.regimes()[1..].iter().any(|r| r.params.intensity > 1.5));
        assert!(burst.regimes()[1..].iter().any(|r| r.params.intensity < 0.7));

        let mig = RegimeSchedule::generate(ScenarioPolicy::TargetMigration, &p, 220, 42, 0);
        let rotations: Vec<usize> =
            mig.regimes().iter().map(|r| r.params.target_rotation).collect();
        assert!(rotations.windows(2).all(|w| w[0] < w[1]), "rotation must accumulate");

        let drift = RegimeSchedule::generate(ScenarioPolicy::DiurnalDrift, &p, 220, 42, 0);
        assert!(drift.regimes()[1..].iter().any(|r| r.params.diurnal_shift != 0));
        assert!(drift.regimes().iter().all(|r| r.params.diurnal_shift < 24));

        let blend = RegimeSchedule::generate(ScenarioPolicy::MultiVectorBlend, &p, 220, 42, 0);
        assert!(blend.regimes()[1..].iter().any(|r| r.params.vector_weights != p.vector_weights));
    }

    #[test]
    fn policy_names_round_trip() {
        for policy in ScenarioPolicy::ALL {
            assert_eq!(ScenarioPolicy::parse(policy.name()), Some(policy));
        }
        assert_eq!(ScenarioPolicy::parse("chaos"), None);
        assert_eq!(ScenarioPolicy::default(), ScenarioPolicy::Stationary);
    }
}
