//! Ordinary least squares: simple and multivariate linear regression.
//!
//! The spatiotemporal model of the paper (§VI) attaches a multivariate
//! linear regression (MLR) to every leaf of a regression tree, through
//! [`LinearModel`]. The temporal model's lag regressions (the AR and
//! Hannan–Rissanen stages in [`crate::arima`]) need only the coefficients,
//! so they write flat designs and call [`lstsq_into`] directly, the solve
//! [`LinearModel::fit_prepared`] ends in.

use crate::codec::{CodecResult, Reader, Writer};
use crate::matrix::{lstsq_into, LstsqScratch};
use crate::{Result, StatsError};
use serde::{Deserialize, Serialize};

/// Reusable buffers for [`LinearModel::fit_prepared`]: the QR workspace
/// plus the solution vector. One scratch serves any sequence of fits of
/// any size; buffers grow to the high-water mark and are reused
/// allocation-free after that.
#[derive(Debug, Default)]
pub struct OlsScratch {
    lstsq: LstsqScratch,
    beta: Vec<f64>,
}

/// A fitted linear model `y = β₀ + β₁ x₁ + … + βₖ xₖ`.
///
/// Construct with [`LinearModel::fit`] (validated rows) or
/// [`LinearModel::fit_prepared`] (a pre-assembled design and reusable
/// buffers).
///
/// # Example
///
/// ```
/// use ddos_stats::ols::LinearModel;
///
/// # fn main() -> Result<(), ddos_stats::StatsError> {
/// let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
/// let ys: Vec<f64> = (0..20).map(|i| 3.0 + 2.0 * i as f64).collect();
/// let model = LinearModel::fit(&xs, &ys)?;
/// assert!((model.intercept() - 3.0).abs() < 1e-8);
/// assert!((model.coefficients()[0] - 2.0).abs() < 1e-8);
/// assert!((model.predict(&[10.0])? - 23.0).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    intercept: f64,
    coefficients: Vec<f64>,
}

impl LinearModel {
    /// Fits a multivariate linear regression with an intercept.
    ///
    /// `xs` holds one row of regressors per observation; `ys` the responses.
    ///
    /// # Errors
    ///
    /// * [`StatsError::EmptyInput`] when `xs` is empty.
    /// * [`StatsError::LengthMismatch`] when `xs.len() != ys.len()`.
    /// * [`StatsError::TooShort`] when there are fewer observations than
    ///   parameters (k + 1).
    /// * [`StatsError::SingularMatrix`] for collinear designs, and for
    ///   finite inputs so large that the solve overflows.
    /// * [`StatsError::NonFiniteInput`] when inputs contain NaN/∞.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64]) -> Result<Self> {
        if xs.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        if xs.len() != ys.len() {
            return Err(StatsError::LengthMismatch { left: xs.len(), right: ys.len() });
        }
        let k = xs[0].len();
        let p = k + 1;
        if xs.len() < p {
            return Err(StatsError::TooShort { required: p, actual: xs.len() });
        }
        for row in xs {
            if row.len() != k {
                return Err(StatsError::DimensionMismatch {
                    detail: format!("regressor row has {} entries, expected {k}", row.len()),
                });
            }
            if row.iter().any(|v| !v.is_finite()) {
                return Err(StatsError::NonFiniteInput);
            }
        }
        if ys.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::NonFiniteInput);
        }

        // Design with a leading column of ones, assembled row-major
        // straight into the flat buffer (no per-row Vec).
        let mut design = Vec::with_capacity(xs.len() * p);
        for r in xs {
            design.push(1.0);
            design.extend_from_slice(r);
        }
        Self::fit_prepared(&design, ys, p, &mut OlsScratch::default())
    }

    /// Fits from a pre-assembled row-major design whose rows already carry
    /// the leading `1.0` intercept column: the OLS core behind
    /// [`LinearModel::fit`], open to callers (CART leaf fits) that keep
    /// the design rows of a parent node alive across its children and
    /// reuse one `scratch` across fits.
    ///
    /// `design` is `ys.len() × p` row-major; `p` counts the intercept
    /// column. Bit-identical to gathering the same rows and calling
    /// [`LinearModel::fit`], which builds this design and calls here.
    ///
    /// Unlike `fit` this does **not** scan for non-finite inputs — the
    /// caller is expected to have validated its samples once up front
    /// (CART does, at dataset construction). Feeding NaN/∞ here yields a
    /// [`StatsError::SingularMatrix`] (the solver refuses a non-finite
    /// solution) instead of [`StatsError::NonFiniteInput`].
    ///
    /// # Errors
    ///
    /// * [`StatsError::EmptyInput`] when `ys` is empty.
    /// * [`StatsError::DimensionMismatch`] when `design.len() != ys.len() * p`.
    /// * [`StatsError::TooShort`] when there are fewer rows than `p`.
    /// * [`StatsError::SingularMatrix`] for collinear or overflowing
    ///   designs.
    pub fn fit_prepared(
        design: &[f64],
        ys: &[f64],
        p: usize,
        scratch: &mut OlsScratch,
    ) -> Result<Self> {
        if ys.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        if design.len() != ys.len() * p {
            return Err(StatsError::DimensionMismatch {
                detail: format!(
                    "design has {} entries, expected {} rows × {p}",
                    design.len(),
                    ys.len()
                ),
            });
        }
        if ys.len() < p {
            return Err(StatsError::TooShort { required: p, actual: ys.len() });
        }

        let beta = &mut scratch.beta;
        lstsq_into(design, ys.len(), p, ys, &mut scratch.lstsq, beta)?;
        Ok(LinearModel { intercept: beta[0], coefficients: beta[1..].to_vec() })
    }

    /// Predicts the response for one regressor row.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] when `x` has the wrong
    /// number of entries.
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

    /// Predicts the response for many regressor rows.
    ///
    /// # Errors
    ///
    /// Same as [`LinearModel::predict`], applied to each row.
    pub fn predict_many(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>> {
        xs.iter().map(|r| self.predict(r)).collect()
    }

    /// The fitted intercept β₀.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The fitted slope coefficients β₁..βₖ.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Number of regressors (excluding the intercept).
    pub fn n_regressors(&self) -> usize {
        self.coefficients.len()
    }

    /// Encodes the fitted model field-for-field into `w` (every `f64`
    /// as its bit pattern): the payload fragment CART leaves embed in
    /// tree artifacts. Round-trip through [`LinearModel::decode`] is the
    /// identity on the struct.
    pub fn encode(&self, w: &mut Writer) {
        w.f64(self.intercept);
        w.f64_seq(&self.coefficients);
    }

    /// Decodes a model encoded by [`LinearModel::encode`].
    ///
    /// # Errors
    ///
    /// [`CodecError`](crate::codec::CodecError) on truncated or
    /// malformed input.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        Ok(LinearModel { intercept: r.f64()?, coefficients: r.f64_seq()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_exact_line() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = xs.iter().map(|r| 5.0 - 1.5 * r[0]).collect();
        let m = LinearModel::fit(&xs, &y).unwrap();
        assert!((m.intercept() - 5.0).abs() < 1e-9);
        assert!((m.coefficients()[0] + 1.5).abs() < 1e-9);
        assert!((r_squared(&m, &xs, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multivariate_recovers_plane() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![(i % 5) as f64, (i / 5) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| 1.0 + 2.0 * r[0] - 3.0 * r[1]).collect();
        let m = LinearModel::fit(&xs, &ys).unwrap();
        assert!((m.intercept() - 1.0).abs() < 1e-8);
        assert!((m.coefficients()[0] - 2.0).abs() < 1e-8);
        assert!((m.coefficients()[1] + 3.0).abs() < 1e-8);
        assert_eq!(m.n_regressors(), 2);
    }

    /// R² of `m`'s predictions on `(xs, ys)`, 1 for a constant response.
    fn r_squared(m: &LinearModel, xs: &[Vec<f64>], ys: &[f64]) -> f64 {
        let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
        let ss_tot: f64 = ys.iter().map(|y| (y - mean_y).powi(2)).sum();
        let ss_res: f64 = xs.iter().zip(ys).map(|(x, y)| (y - m.predict(x).unwrap()).powi(2)).sum();
        if ss_tot > 0.0 {
            1.0 - ss_res / ss_tot
        } else {
            1.0
        }
    }

    #[test]
    fn noisy_fit_has_reasonable_r2() {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> =
            (0..100).map(|i| 2.0 * i as f64 + if i % 3 == 0 { 1.0 } else { -0.5 }).collect();
        let m = LinearModel::fit(&xs, &ys).unwrap();
        let r2 = r_squared(&m, &xs, &ys);
        assert!(r2 > 0.99 && r2 < 1.0, "{r2}");
    }

    #[test]
    fn rejects_mismatched_lengths() {
        let xs = vec![vec![1.0], vec![2.0]];
        assert!(matches!(LinearModel::fit(&xs, &[1.0]), Err(StatsError::LengthMismatch { .. })));
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(LinearModel::fit(&[], &[]), Err(StatsError::EmptyInput)));
    }

    #[test]
    fn rejects_underdetermined() {
        let xs = vec![vec![1.0, 2.0]];
        assert!(matches!(LinearModel::fit(&xs, &[1.0]), Err(StatsError::TooShort { .. })));
    }

    #[test]
    fn rejects_collinear() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert!(LinearModel::fit(&xs, &ys).is_err());
    }

    #[test]
    fn rejects_nan() {
        let xs = vec![vec![1.0], vec![f64::NAN], vec![3.0]];
        assert!(matches!(LinearModel::fit(&xs, &[1.0, 2.0, 3.0]), Err(StatsError::NonFiniteInput)));
    }

    #[test]
    fn predict_validates_width() {
        let xs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..5).map(|i| i as f64).collect();
        let m = LinearModel::fit(&xs, &ys).unwrap();
        assert!(m.predict(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn constant_response_r2_is_one() {
        let xs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let ys = vec![7.0; 5];
        let m = LinearModel::fit(&xs, &ys).unwrap();
        assert!((m.predict(&[3.0]).unwrap() - 7.0).abs() < 1e-9);
        assert!(m.coefficients()[0].abs() < 1e-9);
        assert_eq!(r_squared(&m, &xs, &ys), 1.0);
    }

    #[test]
    fn fit_prepared_matches_gathered_fit_bitwise() {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, ((i * 3) % 11) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| 0.7 * r[0] - 1.3 * r[1] + 4.0).collect();
        let indices: Vec<usize> = vec![3, 5, 8, 13, 21, 34, 1, 2];
        let p = 3;
        let mut design = Vec::new();
        let mut yseg = Vec::new();
        for &i in &indices {
            design.push(1.0);
            design.extend_from_slice(&xs[i]);
            yseg.push(ys[i]);
        }
        let gathered_x: Vec<Vec<f64>> = indices.iter().map(|&i| xs[i].clone()).collect();
        let gathered = LinearModel::fit(&gathered_x, &yseg).unwrap();
        let mut scratch = OlsScratch::default();
        // Twice through the same scratch: reuse must not perturb a bit.
        for _ in 0..2 {
            let prepared = LinearModel::fit_prepared(&design, &yseg, p, &mut scratch).unwrap();
            assert_eq!(prepared.intercept.to_bits(), gathered.intercept.to_bits());
            assert_eq!(prepared.coefficients.len(), gathered.coefficients.len());
            for (a, b) in prepared.coefficients.iter().zip(&gathered.coefficients) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn fit_prepared_validates() {
        let mut scratch = OlsScratch::default();
        assert!(matches!(
            LinearModel::fit_prepared(&[], &[], 2, &mut scratch),
            Err(StatsError::EmptyInput)
        ));
        assert!(matches!(
            LinearModel::fit_prepared(&[1.0, 2.0, 3.0], &[1.0], 2, &mut scratch),
            Err(StatsError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            LinearModel::fit_prepared(&[1.0, 2.0], &[1.0], 2, &mut scratch),
            Err(StatsError::TooShort { .. })
        ));
    }

    #[test]
    fn overflowing_finite_input_is_singular() {
        // Every input is finite, but the squared column norm overflows:
        // the fit must refuse rather than return NaN coefficients.
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![1e200 * (i + 1) as f64]).collect();
        let ys: Vec<f64> = (0..20).map(|i| i as f64).collect();
        assert!(matches!(LinearModel::fit(&xs, &ys), Err(StatsError::SingularMatrix)));
    }

    #[test]
    fn predict_many_matches_predict() {
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64, (i * i) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| r[0] + 0.1 * r[1]).collect();
        let m = LinearModel::fit(&xs, &ys).unwrap();
        let batch = m.predict_many(&xs).unwrap();
        for (row, b) in xs.iter().zip(&batch) {
            assert_eq!(m.predict(row).unwrap(), *b);
        }
    }
}
