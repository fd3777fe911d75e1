//! The temporal model (§IV): ARIMA over the attacker-side series.
//!
//! Each family's chronological attack stream yields the two series the
//! temporal experiments forecast (Fig. 1 and §VII-A): attack magnitudes
//! and the source-distribution coefficient `A^s`. Each is modeled by
//! Eq. 5's ARIMA form, with (p, d, q) chosen per series by AIC grid
//! search (the paper states ARIMA is used but not the orders;
//! Box–Jenkins selection is the standard completion). The paper also
//! names the activity level `A^f` and the active-bot fraction `A^b`;
//! no experiment reads a forecast of either, so neither is fit. The
//! inter-launch interval the spatiotemporal tree reads as `N_int` is not
//! modeled here: `crate::spatiotemporal` fits its own gap ARIMA.

use crate::features::FeatureExtractor;
use crate::{ModelError, Result};
use ddos_stats::arima::Arima;
use ddos_stats::select::{search, SearchConfig};
use ddos_trace::{AttackRecord, FamilyId};
use serde::{Deserialize, Serialize};

/// Temporal-model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TemporalConfig {
    /// Order-search space every series' ARIMA is chosen from.
    pub search: SearchConfig,
    /// Minimum attacks a family needs before fitting.
    pub min_attacks: usize,
}

impl Default for TemporalConfig {
    fn default() -> Self {
        TemporalConfig { search: SearchConfig::default(), min_attacks: 30 }
    }
}

/// A fitted per-family temporal model: one ARIMA for the magnitudes and
/// one for `A^s`.
#[derive(Debug, Clone)]
pub struct TemporalModel {
    family: FamilyId,
    magnitude: Arima,
    source_dist: Arima,
}

impl TemporalModel {
    /// Fits the model on a family's chronological *training* attacks.
    ///
    /// # Errors
    ///
    /// * [`ModelError::NotEnoughHistory`] for fewer than
    ///   `config.min_attacks` attacks.
    /// * Propagates feature-extraction and ARIMA errors.
    pub fn fit(
        fx: &FeatureExtractor<'_>,
        family: FamilyId,
        train: &[&AttackRecord],
        config: &TemporalConfig,
    ) -> Result<Self> {
        if train.len() < config.min_attacks {
            return Err(ModelError::NotEnoughHistory {
                context: format!("temporal model for {family}"),
                required: config.min_attacks,
                actual: train.len(),
            });
        }
        let magnitudes = FeatureExtractor::magnitude_series(train);
        let source = fx.source_distribution_series(train)?;

        let fit_one =
            |series: &[f64]| -> Result<Arima> { Ok(search(series, config.search)?.model) };

        Ok(TemporalModel {
            family,
            magnitude: fit_one(&magnitudes)?,
            source_dist: fit_one(&source)?,
        })
    }

    /// The family this model was fit for.
    pub fn family(&self) -> FamilyId {
        self.family
    }

    /// The fitted magnitude ARIMA.
    pub fn magnitude_model(&self) -> &Arima {
        &self.magnitude
    }

    /// The fitted source-distribution (`A^s`) ARIMA.
    pub fn source_dist_model(&self) -> &Arima {
        &self.source_dist
    }

    /// Rolling one-step magnitude predictions over the family's test
    /// attacks (the protocol behind Fig. 1: predict each attack's
    /// magnitude from everything observed before it).
    ///
    /// # Errors
    ///
    /// Propagates ARIMA errors; `test` must be nonempty.
    pub fn predict_magnitudes(&self, test: &[&AttackRecord]) -> Result<Vec<f64>> {
        let truth = FeatureExtractor::magnitude_series(test);
        Ok(self.magnitude.predict_rolling(&truth)?)
    }

    /// Mean forecast of attack magnitudes `horizon` attacks ahead.
    ///
    /// # Errors
    ///
    /// Propagates ARIMA errors.
    pub fn forecast_magnitude(&self, horizon: usize) -> Result<Vec<f64>> {
        Ok(self.magnitude.forecast(horizon)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddos_stats::metrics::rmse;
    use ddos_trace::{Corpus, CorpusConfig, TraceGenerator};

    fn corpus() -> Corpus {
        TraceGenerator::new(CorpusConfig::small(), 101).generate().unwrap()
    }

    fn split_family(c: &Corpus) -> (Vec<&AttackRecord>, Vec<&AttackRecord>) {
        let fam = c.catalog().most_active(1)[0];
        let attacks = c.family_attacks(fam);
        let cut = (attacks.len() as f64 * 0.8) as usize;
        (attacks[..cut].to_vec(), attacks[cut..].to_vec())
    }

    #[test]
    fn fit_and_predict_magnitudes() {
        let c = corpus();
        let fx = FeatureExtractor::new(&c);
        let fam = c.catalog().most_active(1)[0];
        let (train, test) = split_family(&c);
        let model = TemporalModel::fit(&fx, fam, &train, &TemporalConfig::default()).unwrap();
        assert_eq!(model.family(), fam);
        let preds = model.predict_magnitudes(&test).unwrap();
        assert_eq!(preds.len(), test.len());
        assert!(preds.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn temporal_beats_naive_mean_on_magnitudes() {
        let c = corpus();
        let fx = FeatureExtractor::new(&c);
        let fam = c.catalog().most_active(1)[0];
        let (train, test) = split_family(&c);
        let model = TemporalModel::fit(&fx, fam, &train, &TemporalConfig::default()).unwrap();
        let preds = model.predict_magnitudes(&test).unwrap();
        let truth = FeatureExtractor::magnitude_series(&test);
        let model_rmse = rmse(&preds, &truth).unwrap();

        // Naive: predict the global training mean everywhere.
        let train_mags = FeatureExtractor::magnitude_series(&train);
        let mean = train_mags.iter().sum::<f64>() / train_mags.len() as f64;
        let naive: Vec<f64> = vec![mean; truth.len()];
        let naive_rmse = rmse(&naive, &truth).unwrap();
        assert!(
            model_rmse <= naive_rmse * 1.05,
            "temporal RMSE {model_rmse} should not lose to naive mean {naive_rmse}"
        );
    }

    #[test]
    fn source_dist_prediction_aligns() {
        let c = corpus();
        let fx = FeatureExtractor::new(&c);
        let fam = c.catalog().most_active(1)[0];
        let (train, test) = split_family(&c);
        let model = TemporalModel::fit(&fx, fam, &train, &TemporalConfig::default()).unwrap();
        let test_short: Vec<&AttackRecord> = test.iter().copied().take(40).collect();
        let truth = fx.source_distribution_series(&test_short).unwrap();
        let preds = model.source_dist_model().predict_rolling(&truth).unwrap();
        assert_eq!(preds.len(), test_short.len());
    }

    #[test]
    fn too_little_history_rejected() {
        let c = corpus();
        let fx = FeatureExtractor::new(&c);
        let fam = c.catalog().most_active(1)[0];
        let attacks = c.family_attacks(fam);
        let err = TemporalModel::fit(&fx, fam, &attacks[..5], &TemporalConfig::default());
        assert!(matches!(err, Err(ModelError::NotEnoughHistory { .. })));
    }

    #[test]
    fn forecast_magnitudes_ahead() {
        let c = corpus();
        let fx = FeatureExtractor::new(&c);
        let fam = c.catalog().most_active(1)[0];
        let (train, _) = split_family(&c);
        let model = TemporalModel::fit(&fx, fam, &train, &TemporalConfig::default()).unwrap();
        let fc = model.forecast_magnitude(5).unwrap();
        assert_eq!(fc.len(), 5);
        assert!(fc.iter().all(|v| v.is_finite()));
        assert!(model.magnitude_model().sigma2() >= 0.0);
        assert!(model.source_dist_model().sigma2() >= 0.0);
    }
}
