//! Forecast-accuracy and dispersion metrics.
//!
//! The paper reports RMSE for every prediction experiment (Figs. 1–4 and the
//! §VII-A baseline comparison) and the coefficient of variation for Table I.

use crate::{Result, StatsError};

/// Root-mean-square error between predictions and ground truth.
///
/// # Errors
///
/// * [`StatsError::EmptyInput`] when the slices are empty.
/// * [`StatsError::LengthMismatch`] when lengths differ.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), ddos_stats::StatsError> {
/// let rmse = ddos_stats::metrics::rmse(&[1.0, 2.0], &[1.0, 4.0])?;
/// // Squared errors are 0 and 4, so the RMSE is sqrt(4 / 2) = sqrt(2).
/// assert!((rmse - (2.0f64).sqrt()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn rmse(predicted: &[f64], actual: &[f64]) -> Result<f64> {
    check_pair(predicted, actual)?;
    let n = predicted.len() as f64;
    let ss: f64 = predicted.iter().zip(actual).map(|(p, a)| (p - a).powi(2)).sum();
    Ok((ss / n).sqrt())
}

/// Mean absolute error.
///
/// # Errors
///
/// Same conditions as [`rmse`].
pub fn mae(predicted: &[f64], actual: &[f64]) -> Result<f64> {
    check_pair(predicted, actual)?;
    let n = predicted.len() as f64;
    Ok(predicted.iter().zip(actual).map(|(p, a)| (p - a).abs()).sum::<f64>() / n)
}

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice.
pub fn mean(values: &[f64]) -> Result<f64> {
    if values.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    Ok(values.iter().sum::<f64>() / values.len() as f64)
}

/// Population variance (divides by `n`).
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice.
pub fn variance(values: &[f64]) -> Result<f64> {
    let m = mean(values)?;
    Ok(values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64)
}

/// Population standard deviation.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] for an empty slice.
pub fn std_dev(values: &[f64]) -> Result<f64> {
    Ok(variance(values)?.sqrt())
}

/// Coefficient of variation (relative standard deviation): σ / μ.
///
/// This is the CV column of the paper's Table I, measuring the stability of
/// a botnet family's daily activity level — lower means more stable.
///
/// # Errors
///
/// * [`StatsError::EmptyInput`] for an empty slice.
/// * [`StatsError::InvalidParameter`] when the mean is zero.
pub fn coefficient_of_variation(values: &[f64]) -> Result<f64> {
    let m = mean(values)?;
    if m == 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "values",
            detail: "mean is zero; CV undefined".to_string(),
        });
    }
    Ok(std_dev(values)? / m)
}

/// Builds an empirical histogram with `bins` equal-width buckets over
/// `[min, max]` of the data; returns `(bucket_edges, counts)`.
///
/// The paper's Figures 3–4 present prediction and error *distributions*;
/// this helper produces them.
///
/// # Errors
///
/// * [`StatsError::EmptyInput`] for an empty slice.
/// * [`StatsError::InvalidParameter`] when `bins == 0`.
pub fn histogram(values: &[f64], bins: usize) -> Result<(Vec<f64>, Vec<usize>)> {
    if values.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if bins == 0 {
        return Err(StatsError::InvalidParameter {
            name: "bins",
            detail: "bin count must be nonzero".to_string(),
        });
    }
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let width = if hi > lo { (hi - lo) / bins as f64 } else { 1.0 };
    let edges: Vec<f64> = (0..=bins).map(|i| lo + width * i as f64).collect();
    let mut counts = vec![0usize; bins];
    for v in values {
        let mut idx = ((v - lo) / width) as usize;
        if idx >= bins {
            idx = bins - 1;
        }
        counts[idx] += 1;
    }
    Ok((edges, counts))
}

fn check_pair(a: &[f64], b: &[f64]) -> Result<()> {
    if a.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if a.len() != b.len() {
        return Err(StatsError::LengthMismatch { left: a.len(), right: b.len() });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_zero_for_perfect_prediction() {
        assert_eq!(rmse(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]).unwrap(), 0.0);
    }

    #[test]
    fn rmse_known_value() {
        // errors: 1, -1 → RMSE = 1
        assert!((rmse(&[2.0, 1.0], &[1.0, 2.0]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mae_known_value() {
        assert!((mae(&[2.0, 0.0], &[1.0, 2.0]).unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn mean_and_variance() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&v).unwrap(), 5.0);
        assert_eq!(variance(&v).unwrap(), 4.0);
        assert_eq!(std_dev(&v).unwrap(), 2.0);
    }

    #[test]
    fn cv_matches_definition() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((coefficient_of_variation(&v).unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn cv_rejects_zero_mean() {
        assert!(coefficient_of_variation(&[-1.0, 1.0]).is_err());
    }

    #[test]
    fn histogram_counts_everything() {
        let v = [0.0, 0.1, 0.2, 0.9, 1.0];
        let (edges, counts) = histogram(&v, 2).unwrap();
        assert_eq!(edges.len(), 3);
        assert_eq!(counts.iter().sum::<usize>(), v.len());
        assert_eq!(counts[0], 3);
        assert_eq!(counts[1], 2);
    }

    #[test]
    fn histogram_constant_data() {
        let (_, counts) = histogram(&[5.0, 5.0, 5.0], 4).unwrap();
        assert_eq!(counts.iter().sum::<usize>(), 3);
    }

    #[test]
    fn empty_inputs_error() {
        assert!(rmse(&[], &[]).is_err());
        assert!(mean(&[]).is_err());
        assert!(histogram(&[], 3).is_err());
    }

    #[test]
    fn mismatched_lengths_error() {
        assert!(matches!(rmse(&[1.0], &[1.0, 2.0]), Err(StatsError::LengthMismatch { .. })));
    }
}
