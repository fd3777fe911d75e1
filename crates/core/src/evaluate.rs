//! Evaluation helpers: RMSE summaries and error series.
//!
//! Every figure in the paper's evaluation is one of three shapes: a
//! truth-vs-prediction series with an error bar subplot (Fig. 1–2), a
//! value distribution per model (Fig. 3), or an error distribution per
//! model on a log scale (Fig. 4). [`SeriesEvaluation`] holds the first
//! and the signed errors the other two bin; [`RmseTable`] holds the RMSE
//! comparisons.

use crate::{ModelError, Result};
use ddos_stats::metrics::{mae, rmse};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A truth-vs-prediction evaluation of one series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesEvaluation {
    /// Ground-truth values, chronological.
    pub truth: Vec<f64>,
    /// Model predictions, aligned with `truth`.
    pub predicted: Vec<f64>,
    /// Signed errors `predicted − truth` (the bottom subplot of Fig. 1).
    pub errors: Vec<f64>,
    /// Root-mean-square error.
    pub rmse: f64,
    /// Mean absolute error.
    pub mae: f64,
}

impl SeriesEvaluation {
    /// Builds the evaluation.
    ///
    /// # Errors
    ///
    /// Propagates metric errors (empty or mismatched inputs).
    pub fn new(predicted: Vec<f64>, truth: Vec<f64>) -> Result<Self> {
        let r = rmse(&predicted, &truth)?;
        let m = mae(&predicted, &truth)?;
        let errors = predicted.iter().zip(&truth).map(|(p, t)| p - t).collect();
        Ok(SeriesEvaluation { truth, predicted, errors, rmse: r, mae: m })
    }

    /// Number of evaluated points.
    pub fn len(&self) -> usize {
        self.truth.len()
    }

    /// Whether the evaluation is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.truth.is_empty()
    }
}

/// One row of an RMSE comparison table (Figs. 3–4 RMSE text, §VII-A).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RmseRow {
    /// Scope of the measurement (family name, "all targets", …).
    pub scope: String,
    /// The predicted feature ("magnitude", "duration", "hour", …).
    pub feature: String,
    /// The model that produced the prediction.
    pub model: String,
    /// The measured RMSE.
    pub rmse: f64,
}

/// An RMSE comparison table.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RmseTable {
    rows: Vec<RmseRow>,
}

impl RmseTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RmseTable::default()
    }

    /// Appends a row.
    pub fn push(
        &mut self,
        scope: impl Into<String>,
        feature: impl Into<String>,
        model: impl Into<String>,
        rmse: f64,
    ) {
        self.rows.push(RmseRow {
            scope: scope.into(),
            feature: feature.into(),
            model: model.into(),
            rmse,
        });
    }

    /// All rows in insertion order.
    pub fn rows(&self) -> &[RmseRow] {
        &self.rows
    }

    /// The best (lowest-RMSE) model for a given scope/feature pair.
    pub fn winner(&self, scope: &str, feature: &str) -> Option<&RmseRow> {
        self.rows
            .iter()
            .filter(|r| r.scope == scope && r.feature == feature)
            // A NaN RMSE never beats a real one.
            .min_by(|a, b| a.rmse.is_nan().cmp(&b.rmse.is_nan()).then(a.rmse.total_cmp(&b.rmse)))
    }

    /// Whether `model` wins (strictly or ties) every scope/feature cell it
    /// appears in.
    pub fn model_dominates(&self, model: &str) -> bool {
        // The model's first row in each cell it appears in.
        let mut own: std::collections::BTreeMap<(&str, &str), &RmseRow> =
            std::collections::BTreeMap::new();
        for r in self.rows.iter().filter(|r| r.model == model) {
            own.entry((r.scope.as_str(), r.feature.as_str())).or_insert(r);
        }
        if own.is_empty() {
            return false;
        }
        own.iter().all(|((s, f), own)| {
            self.rows
                .iter()
                .filter(|r| r.scope == *s && r.feature == *f)
                .all(|r| own.rmse <= r.rmse + 1e-12)
        })
    }
}

impl fmt::Display for RmseTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<16} {:<14} {:<18} {:>10}", "Scope", "Feature", "Model", "RMSE")?;
        for r in &self.rows {
            writeln!(f, "{:<16} {:<14} {:<18} {:>10.3}", r.scope, r.feature, r.model, r.rmse)?;
        }
        Ok(())
    }
}

/// Validation that two evaluation inputs describe the same points; used by
/// report builders before combining model outputs.
pub fn check_aligned(a: &[f64], b: &[f64]) -> Result<()> {
    if a.len() != b.len() {
        return Err(ModelError::InvalidConfig {
            detail: format!("misaligned evaluation inputs: {} vs {}", a.len(), b.len()),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_rmse_never_wins_a_cell() {
        let mut t = RmseTable::new();
        t.push("all", "count", "broken", f64::NAN);
        t.push("all", "count", "arima", 2.0);
        t.push("all", "count", "mean", 3.0);
        t.push("all", "count", "negated", -f64::NAN);
        assert_eq!(t.winner("all", "count").unwrap().model, "arima");
    }

    #[test]
    fn series_evaluation_basics() {
        let e = SeriesEvaluation::new(vec![1.0, 2.0, 4.0], vec![1.0, 2.0, 2.0]).unwrap();
        assert_eq!(e.errors, vec![0.0, 0.0, 2.0]);
        assert!((e.rmse - (4.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((e.mae - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(e.len(), 3);
        assert!(!e.is_empty());
    }

    #[test]
    fn series_evaluation_rejects_mismatch() {
        assert!(SeriesEvaluation::new(vec![1.0], vec![1.0, 2.0]).is_err());
        assert!(SeriesEvaluation::new(vec![], vec![]).is_err());
    }

    #[test]
    fn rmse_table_winner_and_domination() {
        let mut t = RmseTable::new();
        t.push("DirtJumper", "magnitude", "Temporal", 1.0);
        t.push("DirtJumper", "magnitude", "Always Same", 2.0);
        t.push("DirtJumper", "magnitude", "Always Mean", 3.0);
        t.push("Pandora", "magnitude", "Temporal", 0.5);
        t.push("Pandora", "magnitude", "Always Same", 0.4);
        assert_eq!(t.winner("DirtJumper", "magnitude").unwrap().model, "Temporal");
        assert!(!t.model_dominates("Temporal")); // loses Pandora cell
        assert!(!t.model_dominates("NoSuchModel"));
        let display = t.to_string();
        assert!(display.contains("DirtJumper"));
        assert_eq!(t.rows().len(), 5);
    }

    #[test]
    fn domination_with_clean_sweep() {
        let mut t = RmseTable::new();
        for fam in ["A", "B"] {
            t.push(fam, "x", "Good", 1.0);
            t.push(fam, "x", "Bad", 2.0);
        }
        assert!(t.model_dominates("Good"));
        assert!(!t.model_dominates("Bad"));
    }

    #[test]
    fn check_aligned_works() {
        assert!(check_aligned(&[1.0], &[2.0]).is_ok());
        assert!(check_aligned(&[1.0], &[]).is_err());
    }
}
