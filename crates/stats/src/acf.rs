//! Autocorrelation (ACF) and partial autocorrelation (PACF) functions.
//!
//! These feed the ARIMA order-selection machinery in [`crate::select`]: the
//! ACF tail suggests the MA order, the PACF cutoff the AR order, exactly as
//! in the Box–Jenkins methodology the paper's temporal model (§IV) relies on.

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

/// Sample partial autocorrelation function up to lag `max_lag` (inclusive),
/// computed with the Durbin–Levinson recursion.
///
/// Returns `max_lag + 1` values; index 0 is `1.0` by convention.
///
/// # Errors
///
/// Same conditions as [`acf`].
pub fn pacf(series: &[f64], max_lag: usize) -> Result<Vec<f64>> {
    let rho = acf(series, max_lag)?;
    let mut out = vec![1.0];
    if max_lag == 0 {
        return Ok(out);
    }
    // Durbin–Levinson: phi[k][j] are the AR(k) coefficients.
    let mut phi_prev = vec![0.0; max_lag + 1];
    let mut phi_curr = vec![0.0; max_lag + 1];
    phi_prev[1] = rho[1];
    out.push(rho[1]);
    for k in 2..=max_lag {
        let mut num = rho[k];
        let mut den = 1.0;
        for j in 1..k {
            num -= phi_prev[j] * rho[k - j];
            den -= phi_prev[j] * rho[j];
        }
        let phi_kk = if den.abs() < 1e-12 { 0.0 } else { num / den };
        phi_curr[k] = phi_kk;
        for j in 1..k {
            phi_curr[j] = phi_prev[j] - phi_kk * phi_prev[k - j];
        }
        out.push(phi_kk);
        phi_prev[..=k].copy_from_slice(&phi_curr[..=k]);
    }
    Ok(out)
}

/// Large-lag 95% confidence band half-width for the sample ACF of white
/// noise: `1.96 / sqrt(n)`. Lags whose |ACF| exceed this are considered
/// significant when identifying orders.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] when `n == 0`.
pub fn white_noise_band(n: usize) -> Result<f64> {
    if n == 0 {
        return Err(StatsError::EmptyInput);
    }
    Ok(1.96 / (n as f64).sqrt())
}

/// Returns the first lag (≥ 1) whose ACF falls inside the white-noise band,
/// or `None` when all computed lags stay significant.
///
/// A quick heuristic for choosing MA order in Box–Jenkins identification.
///
/// # Errors
///
/// Propagates errors from [`acf`].
pub fn acf_cutoff(series: &[f64], max_lag: usize) -> Result<Option<usize>> {
    let rho = acf(series, max_lag)?;
    let band = white_noise_band(series.len())?;
    Ok(rho.iter().enumerate().skip(1).find(|(_, v)| v.abs() < band).map(|(i, _)| i))
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
        assert_eq!(pacf(&wide, 1), Err(StatsError::NonFiniteInput));
        assert_eq!(acf(&[1.0, f64::NAN, 2.0], 1), Err(StatsError::NonFiniteInput));
    }

    #[test]
    fn acf_rejects_short() {
        assert!(matches!(acf(&[1.0, 2.0], 5), Err(StatsError::TooShort { .. })));
    }

    #[test]
    fn pacf_of_ar1_cuts_off_after_lag_one() {
        let s = ar1(0.7, 5000, 3);
        let p = pacf(&s, 5).unwrap();
        assert!(p[1] > 0.6, "lag-1 PACF {} should be near 0.7", p[1]);
        for (lag, v) in p.iter().enumerate().take(6).skip(2) {
            assert!(v.abs() < 0.1, "PACF at lag {lag} should vanish, got {v}");
        }
    }

    #[test]
    fn pacf_lag_zero_is_one() {
        let s = ar1(0.4, 300, 4);
        assert_eq!(pacf(&s, 0).unwrap(), vec![1.0]);
    }

    #[test]
    fn white_noise_band_shrinks_with_n() {
        assert!(white_noise_band(100).unwrap() > white_noise_band(10_000).unwrap());
        assert!(white_noise_band(0).is_err());
    }

    #[test]
    fn acf_cutoff_detects_white_noise_quickly() {
        let mut rng = StdRng::seed_from_u64(9);
        let s: Vec<f64> = (0..2000).map(|_| rng.gen::<f64>() - 0.5).collect();
        let cut = acf_cutoff(&s, 10).unwrap();
        assert!(matches!(cut, Some(l) if l <= 3), "white noise should cut off early: {cut:?}");
    }

    #[test]
    fn acf_cutoff_none_for_strong_trend() {
        let s: Vec<f64> = (0..500).map(|i| i as f64).collect();
        assert_eq!(acf_cutoff(&s, 5).unwrap(), None);
    }
}
