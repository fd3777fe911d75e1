//! Seedable random samplers used by the synthetic trace engine.
//!
//! The workspace deliberately avoids `rand_distr`; the handful of
//! distributions the generator needs (normal, log-normal, Poisson,
//! categorical, diurnal hours) are implemented here with standard textbook
//! algorithms so the whole sampling stack is auditable.
//!
//! All samplers take the RNG by `&mut impl Rng` so callers control seeding
//! and reproducibility.

use crate::{Result, StatsError};
use rand::Rng;

/// Draws a standard normal via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Reject u1 == 0 to keep ln finite.
    let mut u1: f64 = rng.gen();
    while u1 <= f64::MIN_POSITIVE {
        u1 = rng.gen();
    }
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draws from `N(mean, std²)`.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] for a negative `std`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> Result<f64> {
    if std < 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "std",
            detail: format!("standard deviation must be nonnegative, got {std}"),
        });
    }
    Ok(mean + std * standard_normal(rng))
}

/// Draws from a log-normal with the given *log-space* location and scale.
///
/// The median of the resulting distribution is `exp(mu)`.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] for a negative `sigma`.
pub fn log_normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> Result<f64> {
    Ok(normal(rng, mu, sigma)?.exp())
}

/// Draws a Poisson count with the given mean (Knuth for small means,
/// normal approximation with continuity correction for large ones).
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] for a negative mean.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> Result<u64> {
    if mean < 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "mean",
            detail: format!("mean must be nonnegative, got {mean}"),
        });
    }
    if mean == 0.0 {
        return Ok(0);
    }
    if mean < 30.0 {
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return Ok(k);
            }
            k += 1;
        }
    }
    // Normal approximation, adequate for the generator's large-rate days.
    let draw = mean + mean.sqrt() * standard_normal(rng);
    Ok(draw.round().max(0.0) as u64)
}

/// A categorical sampler over arbitrary nonnegative weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    cdf: Vec<f64>,
}

impl Categorical {
    /// Builds the sampler from weights (need not be normalized).
    ///
    /// # Errors
    ///
    /// * [`StatsError::EmptyInput`] for an empty weight list.
    /// * [`StatsError::InvalidParameter`] for negative weights or an
    ///   all-zero weight vector.
    pub fn new(weights: &[f64]) -> Result<Self> {
        if weights.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        if weights.iter().any(|w| *w < 0.0 || !w.is_finite()) {
            return Err(StatsError::InvalidParameter {
                name: "weights",
                detail: "weights must be finite and nonnegative".to_string(),
            });
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "weights",
                detail: "weights must not all be zero".to_string(),
            });
        }
        Ok(Categorical::from_total(weights, total))
    }

    /// The sampler over `weights` summing to `total`, which the caller
    /// has checked: nonempty, finite, nonnegative, `total > 0`.
    fn from_total(weights: &[f64], total: f64) -> Self {
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in weights {
            acc += w / total;
            cdf.push(acc);
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Categorical { cdf }
    }

    /// Draws an index in `0..weights.len()`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // The CDF is finite and non-negative (never -0.0) and `u` is in
        // [0, 1), where `total_cmp` orders exactly as `partial_cmp`.
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether there are zero categories (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

/// A 24-slot diurnal intensity profile: multiplicative hour-of-day factors
/// that average to 1, modeling botmasters' launch-time preferences (§III-B:
/// timestamps decompose into day and hour because launch times follow
/// bot-activity cycles).
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalProfile {
    factors: [f64; 24],
    /// The hour sampler over `factors`, built once per profile.
    hours: Categorical,
}

impl DiurnalProfile {
    /// Uniform profile: every hour equally likely.
    pub fn flat() -> Self {
        DiurnalProfile::from_factors([1.0; 24])
    }

    /// The profile over `factors`, which must all be finite and positive
    /// (both constructors guarantee it).
    fn from_factors(factors: [f64; 24]) -> Self {
        let hours = Categorical::from_total(&factors, factors.iter().sum());
        DiurnalProfile { factors, hours }
    }

    /// A sinusoidal profile peaking at `peak_hour` with the given relative
    /// `amplitude ∈ [0, 1)`; factor(h) = 1 + amplitude·cos(2π(h−peak)/24).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `peak_hour >= 24` or
    /// amplitude is outside `[0, 1)`.
    pub fn sinusoidal(peak_hour: u8, amplitude: f64) -> Result<Self> {
        if peak_hour >= 24 {
            return Err(StatsError::InvalidParameter {
                name: "peak_hour",
                detail: format!("hour must be < 24, got {peak_hour}"),
            });
        }
        if !(0.0..1.0).contains(&amplitude) {
            return Err(StatsError::InvalidParameter {
                name: "amplitude",
                detail: format!("amplitude must lie in [0, 1), got {amplitude}"),
            });
        }
        let mut factors = [0.0; 24];
        for (h, f) in factors.iter_mut().enumerate() {
            let phase = std::f64::consts::TAU * (h as f64 - peak_hour as f64) / 24.0;
            *f = 1.0 + amplitude * phase.cos();
        }
        Ok(DiurnalProfile::from_factors(factors))
    }

    /// The multiplicative factor for the given hour.
    ///
    /// # Panics
    ///
    /// Panics when `hour >= 24`.
    pub fn factor(&self, hour: u8) -> f64 {
        assert!(hour < 24, "hour {hour} out of range");
        self.factors[hour as usize]
    }

    /// Draws an hour of day with probability proportional to the factors.
    pub fn sample_hour<R: Rng + ?Sized>(&self, rng: &mut R) -> u8 {
        self.hours.sample(rng) as u8
    }

    /// All 24 factors.
    pub fn factors(&self) -> &[f64; 24] {
        &self.factors
    }
}

impl Default for DiurnalProfile {
    fn default() -> Self {
        DiurnalProfile::flat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let samples: Vec<f64> = (0..20_000).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut r = rng();
        let samples: Vec<f64> = (0..20_000).map(|_| normal(&mut r, 10.0, 2.0).unwrap()).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 10.0).abs() < 0.1);
        assert!(normal(&mut r, 0.0, -1.0).is_err());
    }

    #[test]
    fn log_normal_is_positive_with_right_median() {
        let mut r = rng();
        let mut samples: Vec<f64> =
            (0..20_001).map(|_| log_normal(&mut r, 2.0, 0.5).unwrap()).collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 2.0f64.exp()).abs() < 0.5, "median {median}");
    }

    #[test]
    fn poisson_small_mean() {
        let mut r = rng();
        let samples: Vec<u64> = (0..20_000).map(|_| poisson(&mut r, 3.0).unwrap()).collect();
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_large_mean_uses_normal_approx() {
        let mut r = rng();
        let samples: Vec<u64> = (0..10_000).map(|_| poisson(&mut r, 144.0).unwrap()).collect();
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((mean - 144.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn poisson_zero_mean() {
        let mut r = rng();
        assert_eq!(poisson(&mut r, 0.0).unwrap(), 0);
        assert!(poisson(&mut r, -1.0).is_err());
    }

    #[test]
    fn categorical_respects_weights() {
        let mut r = rng();
        let c = Categorical::new(&[1.0, 0.0, 3.0]).unwrap();
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[c.sample(&mut r)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!((counts[2] as f64 / counts[0] as f64 - 3.0).abs() < 0.3);
    }

    #[test]
    fn seeded_draws_match_recorded_fingerprints() {
        // FNV-1a over 4,096 seeded draws, recorded when the CDF search
        // compared with `partial_cmp`: the `total_cmp` search must draw
        // the same indices. The zero weights put equal entries in the
        // CDF. The recording drew after 4,096 uniform draws, which are
        // skipped here to reach the same stream position.
        fn fingerprint(draws: impl Iterator<Item = usize>) -> u64 {
            draws.fold(0xcbf2_9ce4_8422_2325, |h, d| (h ^ d as u64).wrapping_mul(0x1000_0000_01b3))
        }
        let mut r = rng();
        for _ in 0..4_096 {
            let _: f64 = r.gen();
        }
        let c = Categorical::new(&[0.0, 3.0, 0.0, 0.0, 1.0, 0.5, 0.0, 2.0]).unwrap();
        let categorical = fingerprint((0..4_096).map(|_| c.sample(&mut r)));
        assert_eq!(categorical, 0x40a0_bdd4_e9c6_52c2);
    }

    #[test]
    fn categorical_rejects_bad_weights() {
        assert!(Categorical::new(&[]).is_err());
        assert!(Categorical::new(&[-1.0, 2.0]).is_err());
        assert!(Categorical::new(&[0.0, 0.0]).is_err());
        assert!(Categorical::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn diurnal_flat_averages_one() {
        let p = DiurnalProfile::flat();
        let avg: f64 = p.factors().iter().sum::<f64>() / 24.0;
        assert!((avg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diurnal_sinusoidal_peaks_at_peak() {
        let p = DiurnalProfile::sinusoidal(14, 0.6).unwrap();
        let peak = p.factor(14);
        for h in 0..24 {
            assert!(p.factor(h) <= peak + 1e-12);
        }
        let avg: f64 = p.factors().iter().sum::<f64>() / 24.0;
        assert!((avg - 1.0).abs() < 1e-9, "profile mean {avg}");
    }

    #[test]
    fn diurnal_sample_hour_prefers_peak() {
        let mut r = rng();
        let p = DiurnalProfile::sinusoidal(12, 0.9).unwrap();
        let mut counts = [0usize; 24];
        for _ in 0..50_000 {
            counts[p.sample_hour(&mut r) as usize] += 1;
        }
        assert!(counts[12] > counts[0] * 3, "peak {} vs trough {}", counts[12], counts[0]);
    }

    #[test]
    fn diurnal_rejects_bad_params() {
        assert!(DiurnalProfile::sinusoidal(24, 0.5).is_err());
        assert!(DiurnalProfile::sinusoidal(3, 1.0).is_err());
    }
}
