//! Leaf models: what a terminal cell predicts.
//!
//! The paper's spatiotemporal model attaches "a simple model, in this case
//! a multivariate linear model (MLR)" to each leaf (Eq. 8–10). A constant
//! (mean) leaf is also provided — both as the classic CART behavior and as
//! the ablation baseline — and as the fallback when a leaf's design matrix
//! is too small, collinear or too large in magnitude for a finite
//! regression fit.

use crate::{CartError, Result};
use ddos_stats::codec::{CodecError, CodecResult, Reader, Writer};
use ddos_stats::ols::{LinearModel, OlsScratch};
use serde::{Deserialize, Serialize};

/// Which model leaves carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum LeafKind {
    /// Predict the mean of the leaf's training targets (classic CART).
    Constant,
    /// Fit a multivariate linear regression over the leaf's samples
    /// (model tree / M5 style — the paper's choice), falling back to the
    /// mean when the local fit is impossible.
    #[default]
    Linear,
}

impl LeafKind {
    /// Encodes the variant as a one-byte tag (artifact payloads).
    pub fn encode(self, w: &mut Writer) {
        w.u8(match self {
            LeafKind::Constant => 0,
            LeafKind::Linear => 1,
        });
    }

    /// Decodes a tag written by [`LeafKind::encode`].
    ///
    /// # Errors
    ///
    /// [`CodecError::BadTag`] for unknown discriminants.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        match r.u8()? {
            0 => Ok(LeafKind::Constant),
            1 => Ok(LeafKind::Linear),
            t => Err(CodecError::BadTag { context: "LeafKind", tag: t as u64 }),
        }
    }
}

/// A fitted leaf.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LeafModel {
    /// Mean predictor.
    Constant {
        /// The mean of the leaf's training targets.
        mean: f64,
    },
    /// Local multivariate linear regression.
    Linear {
        /// The fitted model.
        model: LinearModel,
    },
}

impl LeafModel {
    /// Fits a leaf of the requested kind on the cell's samples: the
    /// reference oracle's leaf fit (tree growth uses
    /// [`LeafModel::fit_prepared`]).
    ///
    /// # Errors
    ///
    /// Returns [`CartError::EmptyTrainingSet`] for an empty cell.
    #[cfg(test)]
    pub fn fit(kind: LeafKind, xs: &[Vec<f64>], ys: &[f64]) -> Result<Self> {
        if ys.is_empty() {
            return Err(CartError::EmptyTrainingSet);
        }
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        match kind {
            LeafKind::Constant => Ok(LeafModel::Constant { mean }),
            LeafKind::Linear => {
                // An MLR needs more rows than columns (plus intercept) and a
                // non-collinear design; otherwise fall back to the mean.
                match LinearModel::fit(xs, ys) {
                    Ok(model) => Ok(LeafModel::Linear { model }),
                    Err(_) => Ok(LeafModel::Constant { mean }),
                }
            }
        }
    }

    /// Fits a leaf from a pre-assembled design segment: `rows` is the
    /// cell's row-major design with the leading `1.0` intercept column
    /// already in place (width `p`), `ys` the cell's targets in the same
    /// order, and `mean` their mean, `ys.iter().sum::<f64>() / ys.len()`
    /// (the grower computes it once per node for its statistics). This
    /// is the presorted grower's hot path — each node gathers its rows
    /// once from the shared design and fits every requested leaf kind
    /// from that one contiguous cell.
    ///
    /// Bit-identical to `LeafModel::fit` on the rows the segment was
    /// assembled from: every OLS operation runs in the same order over
    /// the same values, and the mean fallback fires
    /// under exactly the same conditions (inputs are pre-validated finite
    /// by tree growth, so the non-finite scan the prepared OLS path skips
    /// could never have fired).
    ///
    /// # Errors
    ///
    /// Returns [`CartError::EmptyTrainingSet`] for an empty cell.
    pub fn fit_prepared(
        kind: LeafKind,
        rows: &[f64],
        p: usize,
        ys: &[f64],
        mean: f64,
        scratch: &mut OlsScratch,
    ) -> Result<Self> {
        if ys.is_empty() {
            return Err(CartError::EmptyTrainingSet);
        }
        match kind {
            LeafKind::Constant => Ok(LeafModel::Constant { mean }),
            LeafKind::Linear => match LinearModel::fit_prepared(rows, ys, p, scratch) {
                Ok(model) => Ok(LeafModel::Linear { model }),
                Err(_) => Ok(LeafModel::Constant { mean }),
            },
        }
    }

    /// Predicts for one feature row.
    ///
    /// # Errors
    ///
    /// Propagates width mismatches from the linear model.
    pub fn predict(&self, x: &[f64]) -> Result<f64> {
        match self {
            LeafModel::Constant { mean } => Ok(*mean),
            LeafModel::Linear { model } => model.predict(x).map_err(|_| {
                CartError::FeatureWidthMismatch { expected: model.n_regressors(), actual: x.len() }
            }),
        }
    }

    /// Whether this leaf fell back to (or was asked for) a constant.
    pub fn is_constant(&self) -> bool {
        matches!(self, LeafModel::Constant { .. })
    }

    /// Encodes the fitted leaf verbatim (tag byte, then the variant's
    /// fields), so decode reconstructs it field-for-field and reloaded
    /// leaves predict bit-identically.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            LeafModel::Constant { mean } => {
                w.u8(0);
                w.f64(*mean);
            }
            LeafModel::Linear { model } => {
                w.u8(1);
                model.encode(w);
            }
        }
    }

    /// Decodes a leaf written by [`LeafModel::encode`].
    ///
    /// # Errors
    ///
    /// [`CodecError::BadTag`] for unknown discriminants, plus whatever
    /// [`LinearModel::decode`] reports for its own payload.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        match r.u8()? {
            0 => Ok(LeafModel::Constant { mean: r.f64()? }),
            1 => Ok(LeafModel::Linear { model: LinearModel::decode(r)? }),
            t => Err(CodecError::BadTag { context: "LeafModel", tag: t as u64 }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_leaf_predicts_mean() {
        let xs = vec![vec![1.0], vec![2.0], vec![3.0]];
        let ys = vec![2.0, 4.0, 6.0];
        let leaf = LeafModel::fit(LeafKind::Constant, &xs, &ys).unwrap();
        assert!(leaf.is_constant());
        assert_eq!(leaf.predict(&[10.0]).unwrap(), 4.0);
    }

    #[test]
    fn linear_leaf_fits_line() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| 3.0 + 2.0 * i as f64).collect();
        let leaf = LeafModel::fit(LeafKind::Linear, &xs, &ys).unwrap();
        assert!(!leaf.is_constant());
        assert!((leaf.predict(&[20.0]).unwrap() - 43.0).abs() < 1e-8);
    }

    #[test]
    fn linear_falls_back_on_tiny_cells() {
        let xs = vec![vec![1.0, 2.0]];
        let ys = vec![5.0];
        let leaf = LeafModel::fit(LeafKind::Linear, &xs, &ys).unwrap();
        assert!(leaf.is_constant());
        assert_eq!(leaf.predict(&[0.0, 0.0]).unwrap(), 5.0);
    }

    #[test]
    fn linear_falls_back_on_collinear_cells() {
        let xs: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let ys: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let leaf = LeafModel::fit(LeafKind::Linear, &xs, &ys).unwrap();
        assert!(leaf.is_constant());
    }

    #[test]
    fn empty_cell_rejected() {
        assert!(matches!(
            LeafModel::fit(LeafKind::Constant, &[], &[]),
            Err(CartError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn fit_prepared_matches_gathered_fit_bitwise() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, ((i * 7) % 5) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| 2.0 * r[0] - r[1] + 1.0).collect();
        let indices = vec![2, 4, 8, 16, 3, 9, 27, 1];
        let p = 3;
        let mut rows = Vec::new();
        let mut yseg = Vec::new();
        for &i in &indices {
            rows.push(1.0);
            rows.extend_from_slice(&xs[i]);
            yseg.push(ys[i]);
        }
        let gathered_x: Vec<Vec<f64>> = indices.iter().map(|&i| xs[i].clone()).collect();
        let mean = yseg.iter().sum::<f64>() / yseg.len() as f64;
        let mut scratch = OlsScratch::default();
        for kind in [LeafKind::Constant, LeafKind::Linear] {
            let gathered = LeafModel::fit(kind, &gathered_x, &yseg).unwrap();
            // Twice through the same scratch: reuse must not perturb a bit.
            for _ in 0..2 {
                let prepared =
                    LeafModel::fit_prepared(kind, &rows, p, &yseg, mean, &mut scratch).unwrap();
                assert_eq!(prepared, gathered);
            }
        }
        // Fallback parity: a tiny cell collapses to the mean on both paths.
        let tiny = LeafModel::fit_prepared(
            LeafKind::Linear,
            &rows[..p],
            p,
            &yseg[..1],
            yseg[0],
            &mut scratch,
        )
        .unwrap();
        assert_eq!(tiny, LeafModel::Constant { mean: yseg[0] });
        assert!(matches!(
            LeafModel::fit_prepared(LeafKind::Linear, &[], 3, &[], 0.0, &mut scratch),
            Err(CartError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn overflowing_cell_falls_back_to_constant() {
        // Finite rows whose solve overflows: the leaf keeps the mean
        // instead of a NaN regression.
        let p = 2;
        let rows: Vec<f64> = (0..20).flat_map(|i| [1.0, 1e200 * (i + 1) as f64]).collect();
        let ys: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let mut scratch = OlsScratch::default();
        let leaf =
            LeafModel::fit_prepared(LeafKind::Linear, &rows, p, &ys, 9.5, &mut scratch).unwrap();
        assert_eq!(leaf, LeafModel::Constant { mean: 9.5 });
    }

    #[test]
    fn codec_round_trip_is_identity() {
        let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64, ((i * 3) % 5) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| 1.5 * r[0] - 0.25 * r[1] + 2.0).collect();
        for kind in [LeafKind::Constant, LeafKind::Linear] {
            let leaf = LeafModel::fit(kind, &xs, &ys).unwrap();
            let mut w = Writer::new();
            leaf.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = LeafModel::decode(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(leaf, back);
            assert_eq!(
                leaf.predict(&xs[7]).unwrap().to_bits(),
                back.predict(&xs[7]).unwrap().to_bits()
            );
        }
        // Unknown discriminants are typed errors, not panics.
        let mut r = Reader::new(&[9]);
        assert!(matches!(
            LeafModel::decode(&mut r),
            Err(CodecError::BadTag { context: "LeafModel", tag: 9 })
        ));
        let mut r = Reader::new(&[7]);
        assert!(matches!(
            LeafKind::decode(&mut r),
            Err(CodecError::BadTag { context: "LeafKind", tag: 7 })
        ));
    }

    #[test]
    fn linear_leaf_rejects_wrong_width() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, ((i * i) % 7) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| r[0] + 0.5 * r[1]).collect();
        let leaf = LeafModel::fit(LeafKind::Linear, &xs, &ys).unwrap();
        assert!(!leaf.is_constant());
        assert!(leaf.predict(&[1.0]).is_err());
    }
}
