//! The sample autocorrelation function (ACF).
//!
//! It feeds the ARIMA order search in [`crate::select`], whose
//! differencing screen reads the lag-1 autocorrelation
//! ([`crate::select::choose_differencing`]).

use crate::{Result, StatsError};

/// Sample autocorrelation function up to lag `max_lag` (inclusive).
///
/// Returns `max_lag + 1` values; index 0 is always `1.0`.
///
/// # Errors
///
/// * [`StatsError::TooShort`] when `series.len() <= max_lag` or the series
///   has fewer than two points.
/// * [`StatsError::InvalidParameter`] for a constant series (zero variance).
/// * [`StatsError::NonFiniteInput`] when the mean or the sum of squared
///   deviations is not finite: a NaN/∞ value, or finite values so large
///   that either overflows.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), ddos_stats::StatsError> {
/// let series: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
/// let acf = ddos_stats::acf::acf(&series, 2)?;
/// assert!((acf[0] - 1.0).abs() < 1e-12);
/// assert!(acf[1] < -0.9); // alternating series: strong negative lag-1 correlation
/// # Ok(())
/// # }
/// ```
pub fn acf(series: &[f64], max_lag: usize) -> Result<Vec<f64>> {
    if series.len() < 2 || series.len() <= max_lag {
        return Err(StatsError::TooShort { required: max_lag + 1, actual: series.len() });
    }
    let n = series.len();
    let mean = series.iter().sum::<f64>() / n as f64;
    let denom: f64 = series.iter().map(|v| (v - mean).powi(2)).sum();
    if !mean.is_finite() || !denom.is_finite() {
        return Err(StatsError::NonFiniteInput);
    }
    if denom == 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "series",
            detail: "constant series has undefined autocorrelation".to_string(),
        });
    }
    let mut out = Vec::with_capacity(max_lag + 1);
    for lag in 0..=max_lag {
        let num: f64 = (0..n - lag).map(|i| (series[i] - mean) * (series[i + lag] - mean)).sum();
        out.push(num / denom);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ar1(phi: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = vec![0.0f64; n];
        for i in 1..n {
            let e: f64 = rng.gen::<f64>() - 0.5;
            x[i] = phi * x[i - 1] + e;
        }
        x
    }

    #[test]
    fn acf_lag_zero_is_one() {
        let s = ar1(0.5, 200, 1);
        let a = acf(&s, 5).unwrap();
        assert!((a[0] - 1.0).abs() < 1e-12);
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn acf_of_ar1_decays_geometrically() {
        let s = ar1(0.8, 5000, 2);
        let a = acf(&s, 3).unwrap();
        assert!(a[1] > 0.7 && a[1] < 0.9, "lag-1 ACF {} should be near 0.8", a[1]);
        // lag-2 ≈ phi²
        assert!((a[2] - a[1] * a[1]).abs() < 0.1);
    }

    #[test]
    fn acf_rejects_constant() {
        assert!(acf(&[3.0; 50], 3).is_err());
    }

    #[test]
    fn acf_rejects_overflowing_series() {
        // Finite values whose sum overflows the mean...
        let huge = [1.0e308, 1.7e308, 1.0e308, 1.7e308];
        assert_eq!(acf(&huge, 1), Err(StatsError::NonFiniteInput));
        // ...or whose mean is finite (0) but whose squared deviations
        // overflow.
        let wide = [-1.0e300, 1.0e300, -1.0e300, 1.0e300];
        assert_eq!(acf(&wide, 1), Err(StatsError::NonFiniteInput));
        assert_eq!(acf(&[1.0, f64::NAN, 2.0], 1), Err(StatsError::NonFiniteInput));
    }

    #[test]
    fn acf_rejects_short() {
        assert!(matches!(acf(&[1.0, 2.0], 5), Err(StatsError::TooShort { .. })));
    }
}
