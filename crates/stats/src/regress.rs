//! Cheap regression baselines for the extended §VII-A comparison.
//!
//! The paper benchmarks its models against Always-Same and Always-Mean
//! (Table V); the DDoS-forecasting literature it cites (Gupta et al.)
//! also reports two slightly stronger quick predictors, reproduced here
//! so the forecaster-zoo RMSE table can place the tree ensembles against
//! the full cheap-baseline ladder:
//!
//! * [`PolynomialModel`] — per-feature power expansion (each feature `v`
//!   contributes `v, v², …, v^degree`) fit by ordinary least squares.
//! * [`HuberModel`] — a linear fit made robust to the heavy-tailed
//!   magnitude/duration targets by iteratively-reweighted least squares
//!   with the Huber ψ weight function.

use crate::matrix::{lstsq_into, LstsqScratch};
use crate::ols::LinearModel;
use crate::{Result, StatsError};
use serde::{Deserialize, Serialize};

/// Specification of a [`PolynomialModel`] fit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolyConfig {
    /// Highest power each feature is raised to (`1` reduces to the plain
    /// linear model).
    pub degree: usize,
}

impl Default for PolyConfig {
    fn default() -> Self {
        PolyConfig { degree: 2 }
    }
}

/// A polynomial-expansion regression: OLS on the per-feature power basis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolynomialModel {
    /// Expansion degree actually used per feature (see
    /// [`PolynomialModel::fit`] for the distinct-value cap).
    degrees: Vec<usize>,
    inner: LinearModel,
}

/// Appends the per-feature power expansion of one row to `out`
/// (feature-major: `x₀, x₀², …, x₁, x₁², …`, each feature up to its own
/// degree).
fn expand_row_into(row: &[f64], degrees: &[usize], out: &mut Vec<f64>) {
    for (&v, &degree) in row.iter().zip(degrees) {
        let mut pow = v;
        out.push(pow);
        for _ in 1..degree {
            pow *= v;
            out.push(pow);
        }
    }
}

impl PolynomialModel {
    /// Fits the degree-`config.degree` expansion by OLS.
    ///
    /// A feature taking `k` distinct training values is capped at degree
    /// `k - 1` (floored at 1): on a binary (indicator) feature every
    /// power equals the feature itself, so expanding it would only make
    /// the design collinear — the cap keeps categorical columns of the
    /// spatiotemporal design (Table II has several) at degree 1 instead
    /// of failing the whole fit with a singular matrix.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] for `degree == 0`, plus
    /// everything [`LinearModel::fit`] reports on the expanded design
    /// (notably [`StatsError::SingularMatrix`] when the expansion is
    /// still collinear).
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], config: &PolyConfig) -> Result<Self> {
        if config.degree == 0 {
            return Err(StatsError::InvalidParameter {
                name: "degree",
                detail: "polynomial degree must be at least 1".to_string(),
            });
        }
        if xs.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let n_features = xs[0].len();
        let degrees: Vec<usize> = (0..n_features)
            .map(|f| {
                // Count distinct values, early-exiting once the cap can't
                // bind any more.
                let mut seen: Vec<f64> = Vec::with_capacity(config.degree + 1);
                for row in xs {
                    let v = row.get(f).copied().unwrap_or(f64::NAN);
                    if !seen.contains(&v) {
                        seen.push(v);
                        if seen.len() > config.degree {
                            break;
                        }
                    }
                }
                config.degree.min(seen.len().saturating_sub(1)).max(1)
            })
            .collect();
        let expanded: Vec<Vec<f64>> = xs
            .iter()
            .map(|row| {
                let mut e = Vec::with_capacity(degrees.iter().sum());
                expand_row_into(row, &degrees, &mut e);
                e
            })
            .collect();
        let inner = LinearModel::fit(&expanded, ys)?;
        Ok(PolynomialModel { degrees, inner })
    }

    /// Expansion degree actually used per feature (the configured degree
    /// capped by each feature's distinct-value count).
    pub fn degrees(&self) -> &[usize] {
        &self.degrees
    }

    /// Width of the raw (unexpanded) feature rows.
    pub fn n_features(&self) -> usize {
        self.degrees.len()
    }

    /// Predicts the response for one raw feature row.
    ///
    /// # Errors
    ///
    /// [`StatsError::DimensionMismatch`] on a wrong-width row.
    pub fn predict(&self, x: &[f64]) -> Result<f64> {
        if x.len() != self.degrees.len() {
            return Err(StatsError::DimensionMismatch {
                detail: format!(
                    "input has {} features, model expects {}",
                    x.len(),
                    self.degrees.len()
                ),
            });
        }
        let mut expanded = Vec::with_capacity(self.degrees.iter().sum());
        expand_row_into(x, &self.degrees, &mut expanded);
        self.inner.predict(&expanded)
    }
}

/// Specification of a [`HuberModel`] fit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HuberConfig {
    /// Huber threshold in robust-scale units (1.345 gives 95% Gaussian
    /// efficiency, the textbook default).
    pub delta: f64,
    /// Maximum IRLS iterations.
    pub max_iter: usize,
    /// Convergence tolerance on the coefficient max-change.
    pub tol: f64,
}

impl Default for HuberConfig {
    fn default() -> Self {
        HuberConfig { delta: 1.345, max_iter: 30, tol: 1e-8 }
    }
}

/// A Huber-robust linear regression fit by IRLS.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HuberModel {
    intercept: f64,
    coefficients: Vec<f64>,
    /// IRLS iterations actually run (0 = the OLS start already converged).
    n_iter: usize,
}

/// Median of a scratch copy of `vals` (mean of the middle pair for even
/// lengths). `vals` must be nonempty.
fn median_scratch(vals: &mut [f64]) -> f64 {
    vals.sort_by(f64::total_cmp);
    let n = vals.len();
    if n % 2 == 1 {
        vals[n / 2]
    } else {
        0.5 * (vals[n / 2 - 1] + vals[n / 2])
    }
}

impl HuberModel {
    /// Fits by iteratively-reweighted least squares: an OLS start, then
    /// weighted refits with Huber weights `min(1, δ·s / |r|)` where `s`
    /// is the MAD robust scale of the current residuals, until the
    /// coefficients move less than `tol` or `max_iter` is hit.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] for a non-positive (or NaN)
    /// `delta` or `tol`, or zero `max_iter`; otherwise the
    /// [`LinearModel::fit`] conditions on the initial design.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], config: &HuberConfig) -> Result<Self> {
        let positive = |v: f64| v > 0.0 && v.is_finite();
        if !positive(config.delta) || !positive(config.tol) {
            return Err(StatsError::InvalidParameter {
                name: "delta",
                detail: "huber delta and tol must be positive".to_string(),
            });
        }
        if config.max_iter == 0 {
            return Err(StatsError::InvalidParameter {
                name: "max_iter",
                detail: "huber max_iter must be at least 1".to_string(),
            });
        }
        let start = LinearModel::fit(xs, ys)?;
        let k = xs[0].len();
        let p = k + 1;
        let n = xs.len();
        let mut intercept = start.intercept();
        let mut coefficients = start.coefficients().to_vec();

        let mut resid = vec![0.0; n];
        let mut scratch = vec![0.0; n];
        let mut target = Vec::with_capacity(n);
        let mut design = Vec::with_capacity(n * p);
        let mut beta = Vec::with_capacity(p);
        let mut lstsq = LstsqScratch::default();
        let mut n_iter = 0;
        for _ in 0..config.max_iter {
            for (i, row) in xs.iter().enumerate() {
                let pred =
                    intercept + coefficients.iter().zip(row).map(|(b, v)| b * v).sum::<f64>();
                resid[i] = ys[i] - pred;
            }
            for (s, r) in scratch.iter_mut().zip(resid.iter()) {
                *s = r.abs();
            }
            // 1.4826 · MAD estimates σ consistently under Gaussian noise.
            let scale = 1.4826 * median_scratch(&mut scratch);
            if scale < 1e-12 {
                // (Near-)interpolating fit: every residual is essentially
                // zero and reweighting is ill-defined; the current
                // coefficients are already as robust as they get.
                break;
            }
            let cut = config.delta * scale;
            design.clear();
            target.clear();
            for (row, (&y, &r)) in xs.iter().zip(ys.iter().zip(resid.iter())) {
                let w = if r.abs() <= cut { 1.0 } else { cut / r.abs() };
                let sw = w.sqrt();
                design.push(sw);
                for &v in row {
                    design.push(sw * v);
                }
                target.push(sw * y);
            }
            lstsq_into(&design, n, p, &target, &mut lstsq, &mut beta)?;
            n_iter += 1;
            let step = (intercept - beta[0]).abs().max(
                coefficients
                    .iter()
                    .zip(&beta[1..])
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0_f64, f64::max),
            );
            intercept = beta[0];
            coefficients.copy_from_slice(&beta[1..]);
            if step <= config.tol {
                break;
            }
        }
        Ok(HuberModel { intercept, coefficients, n_iter })
    }

    /// The robust intercept β₀.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The robust slope coefficients β₁..βₖ.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// IRLS iterations run before convergence (or the cap).
    pub fn n_iter(&self) -> usize {
        self.n_iter
    }

    /// Predicts the response for one feature row.
    ///
    /// # Errors
    ///
    /// [`StatsError::DimensionMismatch`] on a wrong-width row.
    pub fn predict(&self, x: &[f64]) -> Result<f64> {
        if x.len() != self.coefficients.len() {
            return Err(StatsError::DimensionMismatch {
                detail: format!(
                    "input has {} regressors, model expects {}",
                    x.len(),
                    self.coefficients.len()
                ),
            });
        }
        Ok(self.intercept + self.coefficients.iter().zip(x).map(|(b, v)| b * v).sum::<f64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_scratch_orders_nan_instead_of_panicking() {
        assert_eq!(median_scratch(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_scratch(&mut [4.0, f64::NAN, 1.0]), 4.0);
    }

    fn quadratic_design() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> =
            (0..40).map(|i| vec![i as f64 * 0.25 - 5.0, (i % 7) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| 2.0 + r[0] * r[0] - 0.5 * r[1]).collect();
        (xs, ys)
    }

    #[test]
    fn polynomial_recovers_quadratic_exactly() {
        let (xs, ys) = quadratic_design();
        let model = PolynomialModel::fit(&xs, &ys, &PolyConfig { degree: 2 }).unwrap();
        for (row, y) in xs.iter().zip(&ys) {
            assert!((model.predict(row).unwrap() - y).abs() < 1e-6);
        }
        // Degree 1 cannot represent the square term.
        let linear = PolynomialModel::fit(&xs, &ys, &PolyConfig { degree: 1 }).unwrap();
        let worst = xs
            .iter()
            .zip(&ys)
            .map(|(row, y)| (linear.predict(row).unwrap() - y).abs())
            .fold(0.0_f64, f64::max);
        assert!(worst > 1.0);
    }

    #[test]
    fn polynomial_rejects_degenerate_inputs() {
        let (xs, ys) = quadratic_design();
        assert!(matches!(
            PolynomialModel::fit(&xs, &ys, &PolyConfig { degree: 0 }),
            Err(StatsError::InvalidParameter { .. })
        ));
        let model = PolynomialModel::fit(&xs, &ys, &PolyConfig::default()).unwrap();
        assert!(matches!(model.predict(&[1.0]), Err(StatsError::DimensionMismatch { .. })));
    }

    #[test]
    fn huber_shrugs_off_outliers_that_wreck_ols() {
        // Clean line plus a handful of gross magnitude outliers (the
        // heavy-tailed shape of attack magnitudes).
        let xs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 * 0.1]).collect();
        let mut ys: Vec<f64> = xs.iter().map(|r| 1.0 + 3.0 * r[0]).collect();
        for i in [5_usize, 23, 41] {
            ys[i] += 500.0;
        }
        let huber = HuberModel::fit(&xs, &ys, &HuberConfig::default()).unwrap();
        let ols = LinearModel::fit(&xs, &ys).unwrap();
        assert!((huber.coefficients()[0] - 3.0).abs() < 0.1, "{:?}", huber);
        assert!((ols.coefficients()[0] - 3.0).abs() > 0.5);
        assert!(huber.n_iter() >= 1);
    }

    #[test]
    fn huber_on_clean_data_matches_ols_closely() {
        let xs: Vec<Vec<f64>> =
            (0..50).map(|i| vec![i as f64 * 0.2, (i % 5) as f64 - 2.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| 0.5 + 2.0 * r[0] - 1.5 * r[1]).collect();
        let huber = HuberModel::fit(&xs, &ys, &HuberConfig::default()).unwrap();
        assert!((huber.intercept() - 0.5).abs() < 1e-6);
        assert!((huber.coefficients()[0] - 2.0).abs() < 1e-6);
        assert!((huber.coefficients()[1] + 1.5).abs() < 1e-6);
    }

    #[test]
    fn huber_validates_config() {
        let (xs, ys) = quadratic_design();
        for bad in [
            HuberConfig { delta: 0.0, ..Default::default() },
            HuberConfig { tol: -1.0, ..Default::default() },
            HuberConfig { max_iter: 0, ..Default::default() },
        ] {
            assert!(matches!(
                HuberModel::fit(&xs, &ys, &bad),
                Err(StatsError::InvalidParameter { .. })
            ));
        }
    }
}
