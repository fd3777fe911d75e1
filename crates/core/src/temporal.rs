//! The temporal model (§IV): ARIMA over the attacker-side series.
//!
//! Each family's chronological attack stream yields four series — attack
//! magnitudes, the running activity level `A^f`, the normalized active-bot
//! fraction `A^b`, the source-distribution coefficient `A^s` — plus the
//! inter-launch intervals. Every series is modeled by Eq. 5's ARIMA form,
//! with (p, d, q) chosen per series by AIC grid search (the paper states
//! ARIMA is used but not the orders; Box–Jenkins selection is the standard
//! completion).

use crate::artifact::{ArtifactKind, ModelArtifact};
use crate::features::FeatureExtractor;
use crate::{ModelError, Result};
use ddos_stats::arima::{Arima, ArimaOrder};
use ddos_stats::codec::{CodecResult, Reader, Writer};
use ddos_stats::diagnostics::{ljung_box, LjungBox};
use ddos_stats::select::{search, SearchConfig};
use ddos_trace::{AttackRecord, FamilyId};
use serde::{Deserialize, Serialize};

/// Temporal-model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TemporalConfig {
    /// Order-search space (ignored when `fixed_order` is set).
    pub search: SearchConfig,
    /// Fix the ARIMA order instead of searching (the ablation knob).
    pub fixed_order: Option<ArimaOrder>,
    /// Minimum attacks a family needs before fitting.
    pub min_attacks: usize,
}

impl Default for TemporalConfig {
    fn default() -> Self {
        TemporalConfig { search: SearchConfig::default(), fixed_order: None, min_attacks: 30 }
    }
}

/// A fitted per-family temporal model: one ARIMA per attacker-side series.
#[derive(Debug, Clone)]
pub struct TemporalModel {
    family: FamilyId,
    magnitude: Arima,
    activity: Arima,
    active_bots: Arima,
    source_dist: Arima,
    intervals: Option<Arima>,
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
        let activity = FeatureExtractor::activity_series(train);
        let active_bots = FeatureExtractor::active_bots_series(train);
        let source = fx.source_distribution_series(train)?;
        let gaps: Vec<f64> =
            train.windows(2).map(|w| w[1].start.abs_diff(w[0].start) as f64).collect();

        let fit_one = |series: &[f64]| -> Result<Arima> {
            match config.fixed_order {
                Some(order) => Ok(Arima::fit(series, order)?),
                None => Ok(search(series, config.search)?.model),
            }
        };

        Ok(TemporalModel {
            family,
            magnitude: fit_one(&magnitudes)?,
            activity: fit_one(&activity)?,
            active_bots: fit_one(&active_bots)?,
            source_dist: fit_one(&source)?,
            intervals: if gaps.len() >= 16 { fit_one(&gaps).ok() } else { None },
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

    /// The fitted activity-level (`A^f`) ARIMA.
    pub fn activity_model(&self) -> &Arima {
        &self.activity
    }

    /// The fitted active-bots (`A^b`) ARIMA.
    pub fn active_bots_model(&self) -> &Arima {
        &self.active_bots
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

    /// One-step prediction of the next inter-launch interval in seconds
    /// (the `N_int` input of the spatiotemporal tree), falling back to the
    /// training-mean interval when the interval series was too short to
    /// model.
    pub fn predict_next_interval(&self) -> Option<f64> {
        match &self.intervals {
            Some(m) => m.forecast(1).ok().map(|v| v[0].max(0.0)),
            None => None,
        }
    }

    /// Magnitude forecast with a symmetric prediction interval — the
    /// provisioning view: a defender sizing scrubbing capacity wants the
    /// upper band (§IV-B warns against "over-provisions of the defense
    /// resources"; the band makes the headroom explicit). `z = 1.96`
    /// gives 95% intervals.
    ///
    /// # Errors
    ///
    /// Propagates ARIMA errors.
    pub fn forecast_magnitude_interval(
        &self,
        horizon: usize,
        z: f64,
    ) -> Result<Vec<(f64, f64, f64)>> {
        Ok(self.magnitude.forecast_with_interval(horizon, z)?)
    }

    /// Goodness-of-fit diagnostics — the paper's *other* validation mode
    /// ("models can be validated in two ways: goodness of fit of the model
    /// and quality of prediction", §III-C). Runs a Ljung–Box whiteness
    /// test on each fitted series' residuals; a well-specified ARIMA
    /// leaves white residuals.
    ///
    /// # Errors
    ///
    /// Propagates Ljung–Box errors for degenerate residual series.
    pub fn goodness_of_fit(&self) -> Result<GoodnessOfFit> {
        let test = |model: &Arima| -> Result<LjungBox> {
            let resid = model.residuals();
            let skip = model.order().p.max(model.order().q);
            let usable = &resid[skip.min(resid.len())..];
            let lags = 10.min(usable.len().saturating_sub(2)).max(1);
            let params = (model.order().p + model.order().q).min(lags.saturating_sub(1));
            Ok(ljung_box(usable, lags, params)?)
        };
        Ok(GoodnessOfFit {
            magnitude: test(&self.magnitude)?,
            activity: test(&self.activity)?,
            active_bots: test(&self.active_bots)?,
            source_dist: test(&self.source_dist)?,
        })
    }
}

impl ModelArtifact for TemporalModel {
    const KIND: ArtifactKind = ArtifactKind::Temporal;

    fn encode_payload(&self, w: &mut Writer) {
        w.usize(self.family.0);
        self.magnitude.encode(w);
        self.activity.encode(w);
        self.active_bots.encode(w);
        self.source_dist.encode(w);
        w.bool(self.intervals.is_some());
        if let Some(m) = &self.intervals {
            m.encode(w);
        }
    }

    fn decode_payload(r: &mut Reader<'_>) -> CodecResult<Self> {
        let family = FamilyId(r.usize()?);
        let magnitude = Arima::decode(r)?;
        let activity = Arima::decode(r)?;
        let active_bots = Arima::decode(r)?;
        let source_dist = Arima::decode(r)?;
        let intervals = if r.bool()? { Some(Arima::decode(r)?) } else { None };
        Ok(TemporalModel { family, magnitude, activity, active_bots, source_dist, intervals })
    }
}

/// Ljung–Box whiteness results for each fitted temporal series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoodnessOfFit {
    /// Residual whiteness of the magnitude model.
    pub magnitude: LjungBox,
    /// Residual whiteness of the `A^f` activity model.
    pub activity: LjungBox,
    /// Residual whiteness of the `A^b` active-bots model.
    pub active_bots: LjungBox,
    /// Residual whiteness of the `A^s` source-distribution model.
    pub source_dist: LjungBox,
}

impl GoodnessOfFit {
    /// Whether every series' residuals look like white noise at level
    /// `alpha` — i.e. the models captured all the linear structure.
    pub fn all_white(&self, alpha: f64) -> bool {
        self.magnitude.looks_white(alpha)
            && self.activity.looks_white(alpha)
            && self.active_bots.looks_white(alpha)
            && self.source_dist.looks_white(alpha)
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
    fn fixed_order_skips_search() {
        let c = corpus();
        let fx = FeatureExtractor::new(&c);
        let fam = c.catalog().most_active(1)[0];
        let (train, _) = split_family(&c);
        let cfg =
            TemporalConfig { fixed_order: Some(ArimaOrder::new(1, 0, 0)), ..Default::default() };
        let model = TemporalModel::fit(&fx, fam, &train, &cfg).unwrap();
        assert_eq!(model.magnitude_model().order(), ArimaOrder::new(1, 0, 0));
        assert_eq!(model.activity_model().order(), ArimaOrder::new(1, 0, 0));
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
    fn magnitude_interval_bounds_point_forecast() {
        let c = corpus();
        let fx = FeatureExtractor::new(&c);
        let fam = c.catalog().most_active(1)[0];
        let (train, _) = split_family(&c);
        let model = TemporalModel::fit(&fx, fam, &train, &TemporalConfig::default()).unwrap();
        let point = model.forecast_magnitude(3).unwrap();
        let bands = model.forecast_magnitude_interval(3, 1.96).unwrap();
        for (p, (m, lo, hi)) in point.iter().zip(&bands) {
            assert_eq!(p, m);
            assert!(lo < m && m < hi);
        }
    }

    #[test]
    fn goodness_of_fit_reports_all_series() {
        let c = corpus();
        let fx = FeatureExtractor::new(&c);
        let fam = c.catalog().most_active(1)[0];
        let (train, _) = split_family(&c);
        let model = TemporalModel::fit(&fx, fam, &train, &TemporalConfig::default()).unwrap();
        let gof = model.goodness_of_fit().unwrap();
        for lb in [gof.magnitude, gof.activity, gof.active_bots, gof.source_dist] {
            assert!(lb.statistic.is_finite());
            assert!((0.0..=1.0).contains(&lb.p_value));
            assert!(lb.dof >= 1);
        }
        // `all_white` must be consistent with the members.
        let expect = gof.magnitude.looks_white(0.01)
            && gof.activity.looks_white(0.01)
            && gof.active_bots.looks_white(0.01)
            && gof.source_dist.looks_white(0.01);
        assert_eq!(gof.all_white(0.01), expect);
    }

    #[test]
    fn artifact_round_trip_preserves_every_prediction_bit() {
        let c = corpus();
        let fx = FeatureExtractor::new(&c);
        let fam = c.catalog().most_active(1)[0];
        let (train, test) = split_family(&c);
        let model = TemporalModel::fit(&fx, fam, &train, &TemporalConfig::default()).unwrap();
        let bytes = model.to_artifact_bytes();
        let back = TemporalModel::from_artifact_bytes(&bytes).unwrap();
        assert_eq!(back.family(), model.family());
        let a = model.predict_magnitudes(&test).unwrap();
        let b = back.predict_magnitudes(&test).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let fa = model.forecast_magnitude(7).unwrap();
        let fb = back.forecast_magnitude(7).unwrap();
        for (x, y) in fa.iter().zip(&fb) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(model.predict_next_interval(), back.predict_next_interval());
        // Re-encoding the reloaded model reproduces the bytes exactly.
        assert_eq!(bytes, back.to_artifact_bytes());
    }

    #[test]
    fn forecast_and_interval() {
        let c = corpus();
        let fx = FeatureExtractor::new(&c);
        let fam = c.catalog().most_active(1)[0];
        let (train, _) = split_family(&c);
        let model = TemporalModel::fit(&fx, fam, &train, &TemporalConfig::default()).unwrap();
        let fc = model.forecast_magnitude(5).unwrap();
        assert_eq!(fc.len(), 5);
        let next = model.predict_next_interval();
        assert!(next.is_some());
        assert!(next.unwrap() >= 0.0);
        assert!(model.active_bots_model().sigma2() >= 0.0);
        assert!(model.source_dist_model().sigma2() >= 0.0);
    }
}
