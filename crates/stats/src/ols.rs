//! Ordinary least squares: simple and multivariate linear regression.
//!
//! The spatiotemporal model of the paper (§VI) attaches a multivariate
//! linear regression (MLR) to every leaf of a regression tree; the temporal
//! model's AR component is also fit by least squares. Both paths go through
//! [`LinearModel`].

use crate::codec::{CodecResult, Reader, Writer};
use crate::matrix::{lstsq_into, LstsqScratch, Matrix};
use crate::{Result, StatsError};
use serde::{Deserialize, Serialize};

/// Reusable buffers for [`LinearModel::fit_prepared`]: the QR workspace
/// plus the solution and fitted-value vectors. One scratch serves any
/// sequence of fits of any size; buffers grow to the high-water mark and
/// are reused allocation-free after that.
#[derive(Debug, Default)]
pub struct OlsScratch {
    lstsq: LstsqScratch,
    beta: Vec<f64>,
    fitted: Vec<f64>,
}

/// A fitted linear model `y = β₀ + β₁ x₁ + … + βₖ xₖ`.
///
/// Construct with [`LinearModel::fit`] (multivariate) or
/// [`LinearModel::fit_simple`] (single regressor).
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
    r_squared: f64,
    residual_std: f64,
    n_obs: usize,
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
    /// * [`StatsError::SingularMatrix`] for collinear designs.
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

        // Design matrix with leading column of ones, assembled row-major
        // straight into the flat buffer (no per-row Vec).
        let mut data = Vec::with_capacity(xs.len() * p);
        for r in xs {
            data.push(1.0);
            data.extend_from_slice(r);
        }
        let design = Matrix::from_vec(xs.len(), p, data)?;
        Self::fit_design(design, ys, p)
    }

    /// Fits on the observation subset `indices` of `(xs, ys)` without
    /// materializing the subset: bit-identical to
    /// `fit(&gather(xs, indices), &gather(ys, indices))` (the design
    /// matrix rows are assembled in `indices` order and every reduction
    /// runs in the same order), but with one less row-clone pass. This is
    /// the CART leaf-fit hot path: tree growth fits one local model per
    /// node on that node's sample subset.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LinearModel::fit`], evaluated on the selected
    /// subset ([`StatsError::EmptyInput`] for empty `indices`). Callers
    /// must ensure every index is in range; out-of-range indices panic.
    pub fn fit_indexed(xs: &[Vec<f64>], ys: &[f64], indices: &[usize]) -> Result<Self> {
        if indices.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        if xs.len() != ys.len() {
            return Err(StatsError::LengthMismatch { left: xs.len(), right: ys.len() });
        }
        let k = xs[indices[0]].len();
        let p = k + 1;
        if indices.len() < p {
            return Err(StatsError::TooShort { required: p, actual: indices.len() });
        }
        for &i in indices {
            let row = &xs[i];
            if row.len() != k {
                return Err(StatsError::DimensionMismatch {
                    detail: format!("regressor row has {} entries, expected {k}", row.len()),
                });
            }
            if row.iter().any(|v| !v.is_finite()) {
                return Err(StatsError::NonFiniteInput);
            }
        }
        if indices.iter().any(|&i| !ys[i].is_finite()) {
            return Err(StatsError::NonFiniteInput);
        }

        let mut data = Vec::with_capacity(indices.len() * p);
        for &i in indices {
            data.push(1.0);
            data.extend_from_slice(&xs[i]);
        }
        let design = Matrix::from_vec(indices.len(), p, data)?;
        let yv: Vec<f64> = indices.iter().map(|&i| ys[i]).collect();
        Self::fit_design(design, &yv, p)
    }

    /// Shared OLS core over a pre-built design (leading intercept column).
    fn fit_design(design: Matrix, ys: &[f64], p: usize) -> Result<Self> {
        let beta = design.lstsq(ys)?;

        let fitted = design.mat_vec(&beta)?;
        let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
        let ss_tot: f64 = ys.iter().map(|y| (y - mean_y).powi(2)).sum();
        let ss_res: f64 = ys.iter().zip(&fitted).map(|(y, f)| (y - f).powi(2)).sum();
        let r_squared = if ss_tot > 0.0 { 1.0 - ss_res / ss_tot } else { 1.0 };
        let dof = (ys.len() - p).max(1);
        let residual_std = (ss_res / dof as f64).sqrt();

        Ok(LinearModel {
            intercept: beta[0],
            coefficients: beta[1..].to_vec(),
            r_squared,
            residual_std,
            n_obs: ys.len(),
        })
    }

    /// Fits from a pre-assembled row-major design whose rows already carry
    /// the leading `1.0` intercept column — the allocation-free twin of
    /// [`LinearModel::fit_indexed`] for callers (CART leaf fits) that keep
    /// the design rows of a parent node alive across its children.
    ///
    /// `design` is `ys.len() × p` row-major; `p` counts the intercept
    /// column. Bit-identical to gathering the same rows and calling
    /// [`LinearModel::fit`]: the QR, fitted values, and every reduction run
    /// in the same floating-point order.
    ///
    /// Unlike `fit`/`fit_indexed` this does **not** scan for non-finite
    /// inputs — the caller is expected to have validated its samples once
    /// up front (CART does, at dataset construction). Feeding NaN/∞ here
    /// yields a garbage-coefficient model or a [`StatsError::SingularMatrix`]
    /// instead of [`StatsError::NonFiniteInput`].
    ///
    /// # Errors
    ///
    /// * [`StatsError::EmptyInput`] when `ys` is empty.
    /// * [`StatsError::DimensionMismatch`] when `design.len() != ys.len() * p`.
    /// * [`StatsError::TooShort`] when there are fewer rows than `p`.
    /// * [`StatsError::SingularMatrix`] for collinear designs.
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

        // Same reduction order as `Matrix::mat_vec` row by row.
        let fitted = &mut scratch.fitted;
        fitted.clear();
        fitted.extend(
            design
                .chunks_exact(p)
                .map(|row| row.iter().zip(beta.iter()).map(|(a, b)| a * b).sum::<f64>()),
        );
        let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
        let ss_tot: f64 = ys.iter().map(|y| (y - mean_y).powi(2)).sum();
        let ss_res: f64 = ys.iter().zip(fitted.iter()).map(|(y, f)| (y - f).powi(2)).sum();
        let r_squared = if ss_tot > 0.0 { 1.0 - ss_res / ss_tot } else { 1.0 };
        let dof = (ys.len() - p).max(1);
        let residual_std = (ss_res / dof as f64).sqrt();

        Ok(LinearModel {
            intercept: beta[0],
            coefficients: beta[1..].to_vec(),
            r_squared,
            residual_std,
            n_obs: ys.len(),
        })
    }

    /// Fits a simple (single-regressor) linear regression `y = a + b x`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LinearModel::fit`].
    pub fn fit_simple(x: &[f64], y: &[f64]) -> Result<Self> {
        let xs: Vec<Vec<f64>> = x.iter().map(|&v| vec![v]).collect();
        LinearModel::fit(&xs, y)
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

    /// Coefficient of determination R².
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Residual standard deviation (√(SSR / dof)).
    pub fn residual_std(&self) -> f64 {
        self.residual_std
    }

    /// Number of observations used for the fit.
    pub fn n_obs(&self) -> usize {
        self.n_obs
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
        w.f64(self.r_squared);
        w.f64(self.residual_std);
        w.usize(self.n_obs);
    }

    /// Decodes a model encoded by [`LinearModel::encode`].
    ///
    /// # Errors
    ///
    /// [`CodecError`](crate::codec::CodecError) on truncated or
    /// malformed input.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        Ok(LinearModel {
            intercept: r.f64()?,
            coefficients: r.f64_seq()?,
            r_squared: r.f64()?,
            residual_std: r.f64()?,
            n_obs: r.usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_exact_line() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 5.0 - 1.5 * v).collect();
        let m = LinearModel::fit_simple(&x, &y).unwrap();
        assert!((m.intercept() - 5.0).abs() < 1e-9);
        assert!((m.coefficients()[0] + 1.5).abs() < 1e-9);
        assert!((m.r_squared() - 1.0).abs() < 1e-12);
        assert!(m.residual_std() < 1e-8);
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
        assert_eq!(m.n_obs(), 30);
    }

    #[test]
    fn noisy_fit_has_reasonable_r2() {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> =
            (0..100).map(|i| 2.0 * i as f64 + if i % 3 == 0 { 1.0 } else { -0.5 }).collect();
        let m = LinearModel::fit(&xs, &ys).unwrap();
        assert!(m.r_squared() > 0.99);
        assert!(m.residual_std() > 0.0);
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
        assert_eq!(m.r_squared(), 1.0);
    }

    #[test]
    fn fit_indexed_matches_gathered_fit_bitwise() {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, ((i * 3) % 11) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| 0.7 * r[0] - 1.3 * r[1] + 4.0).collect();
        let indices: Vec<usize> = vec![3, 5, 8, 13, 21, 34, 1, 2];
        let gathered_x: Vec<Vec<f64>> = indices.iter().map(|&i| xs[i].clone()).collect();
        let gathered_y: Vec<f64> = indices.iter().map(|&i| ys[i]).collect();
        let direct = LinearModel::fit(&gathered_x, &gathered_y).unwrap();
        let indexed = LinearModel::fit_indexed(&xs, &ys, &indices).unwrap();
        assert_eq!(direct, indexed);
        assert_eq!(
            direct.predict(&[9.0, 2.0]).unwrap().to_bits(),
            indexed.predict(&[9.0, 2.0]).unwrap().to_bits()
        );
    }

    #[test]
    fn fit_prepared_matches_fit_indexed_bitwise() {
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
        let indexed = LinearModel::fit_indexed(&xs, &ys, &indices).unwrap();
        let mut scratch = OlsScratch::default();
        // Twice through the same scratch: reuse must not perturb a bit.
        for _ in 0..2 {
            let prepared = LinearModel::fit_prepared(&design, &yseg, p, &mut scratch).unwrap();
            assert_eq!(prepared.intercept.to_bits(), indexed.intercept.to_bits());
            assert_eq!(prepared.coefficients.len(), indexed.coefficients.len());
            for (a, b) in prepared.coefficients.iter().zip(&indexed.coefficients) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(prepared.r_squared.to_bits(), indexed.r_squared.to_bits());
            assert_eq!(prepared.residual_std.to_bits(), indexed.residual_std.to_bits());
            assert_eq!(prepared.n_obs, indexed.n_obs);
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
    fn fit_indexed_validates() {
        let xs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..5).map(|i| i as f64).collect();
        assert!(matches!(LinearModel::fit_indexed(&xs, &ys, &[]), Err(StatsError::EmptyInput)));
        assert!(matches!(
            LinearModel::fit_indexed(&xs, &ys[..4], &[0, 1]),
            Err(StatsError::LengthMismatch { .. })
        ));
        assert!(matches!(
            LinearModel::fit_indexed(&xs, &ys, &[0]),
            Err(StatsError::TooShort { .. })
        ));
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
