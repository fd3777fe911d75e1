//! The naive comparison predictors of §VII-A.
//!
//! "One may advocate a simpler approach in which prediction outcomes are
//! the same as (or the mean of) previous observations." These are those
//! two straw men — **Always-Same** (persistence) and **Always-Mean**
//! (running average) — implemented with the same rolling protocol as the
//! real models so RMSE comparisons are apples-to-apples.

use crate::{ModelError, Result};
use serde::{Deserialize, Serialize};

/// Which naive rule to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BaselineKind {
    /// Predict the previous observation ("Always Same").
    AlwaysSame,
    /// Predict the mean of all observations so far ("Always Mean").
    AlwaysMean,
}

impl std::fmt::Display for BaselineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineKind::AlwaysSame => write!(f, "Always Same"),
            BaselineKind::AlwaysMean => write!(f, "Always Mean"),
        }
    }
}

/// Rolling one-step predictions of `test` given `history`, under the
/// chosen naive rule. Each test element is predicted from everything
/// before it (history plus already-revealed test truth), mirroring
/// the models' rolling protocol.
///
/// # Errors
///
/// Returns [`ModelError::NotEnoughHistory`] when `history` is empty.
pub fn predict_rolling(kind: BaselineKind, history: &[f64], test: &[f64]) -> Result<Vec<f64>> {
    let Some(&(mut last)) = history.last() else {
        return Err(ModelError::NotEnoughHistory {
            context: format!("{kind} baseline"),
            required: 1,
            actual: 0,
        });
    };
    let mut sum: f64 = history.iter().sum();
    let mut n = history.len() as f64;
    let mut out = Vec::with_capacity(test.len());
    for &truth in test {
        let pred = match kind {
            BaselineKind::AlwaysSame => last,
            BaselineKind::AlwaysMean => sum / n,
        };
        out.push(pred);
        last = truth;
        sum += truth;
        n += 1.0;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_same_shifts_by_one() {
        let history = [1.0, 2.0, 3.0];
        let test = [4.0, 5.0, 6.0];
        let p = predict_rolling(BaselineKind::AlwaysSame, &history, &test).unwrap();
        assert_eq!(p, vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn always_mean_tracks_running_mean() {
        let history = [2.0, 4.0];
        let test = [6.0, 8.0];
        let p = predict_rolling(BaselineKind::AlwaysMean, &history, &test).unwrap();
        assert_eq!(p[0], 3.0); // mean of {2,4}
        assert_eq!(p[1], 4.0); // mean of {2,4,6}
    }

    #[test]
    fn empty_history_rejected() {
        assert!(predict_rolling(BaselineKind::AlwaysSame, &[], &[1.0]).is_err());
    }

    #[test]
    fn empty_test_gives_empty_predictions() {
        let p = predict_rolling(BaselineKind::AlwaysMean, &[1.0], &[]).unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn same_is_perfect_on_constant_series() {
        let history = [5.0];
        let test = [5.0; 10];
        let p = predict_rolling(BaselineKind::AlwaysSame, &history, &test).unwrap();
        assert!(p.iter().all(|v| *v == 5.0));
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(BaselineKind::AlwaysSame.to_string(), "Always Same");
        assert_eq!(BaselineKind::AlwaysMean.to_string(), "Always Mean");
    }

    #[test]
    fn mean_is_biased_on_trending_series() {
        // The paper notes the naive models produce "biased results that are
        // almost useless" on dynamic series; verify the bias exists.
        let history: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let test: Vec<f64> = (10..20).map(|i| i as f64).collect();
        let mean_p = predict_rolling(BaselineKind::AlwaysMean, &history, &test).unwrap();
        let same_p = predict_rolling(BaselineKind::AlwaysSame, &history, &test).unwrap();
        let err = |p: &[f64]| -> f64 {
            p.iter().zip(&test).map(|(a, b)| (a - b).abs()).sum::<f64>() / p.len() as f64
        };
        assert!(err(&mean_p) > err(&same_p));
        assert!(err(&mean_p) > 5.0);
    }
}
