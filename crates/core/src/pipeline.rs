//! End-to-end experiment orchestration.
//!
//! The [`Pipeline`] reproduces the paper's evaluation protocol: an 80/20
//! chronological split (§III-C: 40,563 training / 10,141 testing attacks
//! in the original corpus), per-model training on the head, rolling
//! one-step prediction over the tail, and RMSE/error reporting. One runner
//! per figure:
//!
//! * [`Pipeline::run_temporal`] → Fig. 1 (attack magnitudes per family),
//! * [`Pipeline::run_spatial_distribution`] → Fig. 2 (source-ASN shares),
//! * [`Pipeline::run_spatiotemporal`] → Figs. 3–4 (timestamp predictions
//!   and error distributions, with the §VI RMSE summary),
//! * [`Pipeline::run_baseline_comparison`] → the §VII-A table.

use crate::baseline::{predict_rolling, BaselineKind};
use crate::evaluate::{RmseTable, SeriesEvaluation};
use crate::features::FeatureExtractor;
use crate::spatial::{DurationModel, SourceDistributionModel, SpatialConfig};
use crate::spatiotemporal::{SpatioTemporalConfig, SpatioTemporalModel, StPrediction};
use crate::temporal::{TemporalConfig, TemporalModel};
use crate::{ModelError, Result};
use ddos_neural::nar::NarModel;
use ddos_stats::exec::map_indexed;
use ddos_stats::metrics::rmse;
use ddos_trace::{AttackRecord, Corpus, FamilyId, Timestamp};
use serde::{Deserialize, Serialize};

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Chronological train fraction (the paper uses 0.8).
    pub split: f64,
    /// Temporal-model configuration.
    pub temporal: TemporalConfig,
    /// Spatial-model configuration.
    pub spatial: SpatialConfig,
    /// Spatiotemporal-model configuration.
    pub spatiotemporal: SpatioTemporalConfig,
    /// Families to evaluate; `None` selects the paper's figure families
    /// (BlackEnergy, DirtJumper, Pandora) that exist in the catalog, or
    /// the most active ones as a fallback.
    pub families: Option<Vec<FamilyId>>,
    /// Worker threads for the fitting hot paths (`None` = all available
    /// cores, `Some(1)` = serial). Execution knob only: every runner
    /// shards its work deterministically and reduces in canonical order,
    /// so reports are bit-identical at any value.
    pub parallelism: Option<usize>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            split: 0.8,
            temporal: TemporalConfig::default(),
            spatial: SpatialConfig::default(),
            spatiotemporal: SpatioTemporalConfig::default(),
            families: None,
            parallelism: None,
        }
    }
}

impl PipelineConfig {
    /// A fast configuration for tests and examples.
    pub fn fast() -> Self {
        PipelineConfig {
            split: 0.8,
            temporal: TemporalConfig::default(),
            spatial: SpatialConfig::fast(),
            spatiotemporal: SpatioTemporalConfig::fast(),
            families: None,
            parallelism: None,
        }
    }

    /// A validating builder starting from the [`PipelineConfig::fast`]
    /// preset used by tests, examples and the benchmarks. Only
    /// [`PipelineConfigBuilder::build`] checks the parallelism request
    /// before a `Pipeline` ever runs.
    pub fn fast_builder() -> PipelineConfigBuilder {
        PipelineConfigBuilder { config: PipelineConfig::fast() }
    }
}

/// Validating builder for [`PipelineConfig`]; see
/// [`PipelineConfig::fast_builder`].
#[derive(Debug, Clone)]
pub struct PipelineConfigBuilder {
    config: PipelineConfig,
}

impl PipelineConfigBuilder {
    /// Sets the spatiotemporal-model configuration.
    pub fn spatiotemporal(mut self, spatiotemporal: SpatioTemporalConfig) -> Self {
        self.config.spatiotemporal = spatiotemporal;
        self
    }

    /// Sets the worker-thread count for the fitting hot paths
    /// (`1` = serial). Execution knob only — reports are bit-identical
    /// at any value.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.config.parallelism = Some(workers);
        self
    }

    /// Validates and returns the finished configuration.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidConfig`] when a parallelism of zero was
    /// requested.
    pub fn build(self) -> Result<PipelineConfig> {
        if self.config.parallelism == Some(0) {
            return Err(ModelError::InvalidConfig {
                detail: "parallelism must be at least 1 worker".to_string(),
            });
        }
        Ok(self.config)
    }
}

/// The experiment orchestrator.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
    seed: u64,
}

/// Fig. 1 result for one family: rolling magnitude predictions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilyTemporalResult {
    /// Family evaluated.
    pub family: FamilyId,
    /// Family name.
    pub name: String,
    /// Truth-vs-prediction evaluation of attack magnitudes over the test
    /// tail.
    pub magnitudes: SeriesEvaluation,
    /// Evaluation of the `A^s` source-distribution coefficient.
    pub source_coefficient: SeriesEvaluation,
}

/// Fig. 1 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemporalReport {
    /// One result per evaluated family.
    pub per_family: Vec<FamilyTemporalResult>,
}

/// Fig. 2 result for one family: source-AS share distributions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilySpatialResult {
    /// Family evaluated.
    pub family: FamilyId,
    /// Family name.
    pub name: String,
    /// The tracked source ASes (most common first).
    pub asns: Vec<ddos_astopo::Asn>,
    /// Mean predicted share per tracked AS over the test tail.
    pub predicted_mean_shares: Vec<f64>,
    /// Mean true share per tracked AS over the test tail.
    pub truth_mean_shares: Vec<f64>,
    /// RMSE over all (attack × AS) share cells.
    pub share_rmse: f64,
}

/// Fig. 2 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpatialDistReport {
    /// One result per evaluated family.
    pub per_family: Vec<FamilySpatialResult>,
}

/// §V per-network duration report: one row per evaluated victim AS.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkDurationResult {
    /// The victim network.
    pub asn: ddos_astopo::Asn,
    /// Train / test attack counts on the network.
    pub n_train: usize,
    /// Number of held-out attacks evaluated.
    pub n_test: usize,
    /// NAR duration RMSE (seconds).
    pub spatial_rmse: f64,
    /// Always-Same duration RMSE (seconds).
    pub always_same_rmse: f64,
    /// Always-Mean duration RMSE (seconds).
    pub always_mean_rmse: f64,
}

/// §V duration-prediction report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpatialDurationReport {
    /// One result per evaluated network, hottest first.
    pub per_network: Vec<NetworkDurationResult>,
}

impl SpatialDurationReport {
    /// Fraction of networks where the NAR beats both naive baselines.
    pub fn win_fraction(&self) -> f64 {
        if self.per_network.is_empty() {
            return 0.0;
        }
        let wins = self
            .per_network
            .iter()
            .filter(|r| {
                r.spatial_rmse <= r.always_same_rmse && r.spatial_rmse <= r.always_mean_rmse
            })
            .count();
        wins as f64 / self.per_network.len() as f64
    }
}

/// Figs. 3–4 report: per-instance predictions plus the RMSE summary the
/// paper quotes in §VI-B.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpatioTemporalReport {
    /// Every evaluated test instance.
    pub predictions: Vec<StPrediction>,
    /// Hour RMSE of the spatiotemporal tree.
    pub st_hour_rmse: f64,
    /// Hour RMSE of the spatial component alone.
    pub spatial_hour_rmse: f64,
    /// Hour RMSE of the temporal component alone.
    pub temporal_hour_rmse: f64,
    /// Day RMSE of the spatiotemporal tree.
    pub st_day_rmse: f64,
    /// Day RMSE of the spatial component alone.
    pub spatial_day_rmse: f64,
    /// Day RMSE of the temporal component alone (the paper omits this
    /// column in Fig. 3 but we report it for completeness).
    pub temporal_day_rmse: f64,
}

impl Pipeline {
    /// Creates a pipeline.
    pub fn new(config: PipelineConfig, seed: u64) -> Self {
        Pipeline { config, seed }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The families this pipeline evaluates on a given corpus.
    pub fn families(&self, corpus: &Corpus) -> Vec<FamilyId> {
        match &self.config.families {
            Some(f) => f.clone(),
            None => {
                let fig = corpus.catalog().figure_families();
                if fig.is_empty() {
                    corpus.catalog().most_active(3)
                } else {
                    fig
                }
            }
        }
    }

    /// The spatial configuration with the pipeline's `parallelism`
    /// threaded through, so the grid search and per-AS fits inherit the
    /// same knob.
    fn spatial_config(&self) -> SpatialConfig {
        SpatialConfig { parallelism: self.config.parallelism, ..self.config.spatial.clone() }
    }

    /// The global-chronological train/test cut (as in the paper): the
    /// launch time of the first test attack. Runners compute it once and
    /// restrict it per family or per network.
    fn cut_time(&self, corpus: &Corpus) -> Result<Timestamp> {
        let (_, test) = corpus.split(self.config.split)?;
        test.first().map(|a| a.start).ok_or_else(|| ModelError::NotEnoughHistory {
            context: "chronological test split".to_string(),
            required: 1,
            actual: 0,
        })
    }

    /// Fits one model per evaluated family on the attacks before the cut,
    /// one executor shard per family, reduced in family order so the list
    /// is identical at any worker count. A family with no test tail, or
    /// whose `fit` returns `None`, is skipped.
    fn fit_per_family<M: Send>(
        &self,
        corpus: &Corpus,
        fit: impl Fn(FamilyId, &[&AttackRecord]) -> Option<M> + Sync,
    ) -> Result<Vec<M>> {
        let families = self.families(corpus);
        let cut = self.cut_time(corpus)?;
        let fitted = map_indexed(&families, self.config.parallelism, |_, &family| {
            let (train, test) = split_at_cut(corpus.family_attacks(family), cut);
            if test.is_empty() {
                return None;
            }
            fit(family, &train)
        });
        Ok(fitted.into_iter().flatten().collect())
    }

    /// Scores each fitted model on its family's attacks from the cut on,
    /// in model order. A family with no test tail, or whose `serve`
    /// returns `Ok(None)`, is skipped; `serve`'s errors propagate.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidConfig`] when no family was scored.
    fn serve_per_family<'m, M: 'm, R>(
        &self,
        corpus: &Corpus,
        models: impl IntoIterator<Item = (FamilyId, &'m M)>,
        experiment: &str,
        mut serve: impl FnMut(FamilyId, &'m M, &[&AttackRecord]) -> Result<Option<R>>,
    ) -> Result<Vec<R>> {
        let cut = self.cut_time(corpus)?;
        let mut per_family = Vec::new();
        for (family, model) in models {
            let (_, test) = split_at_cut(corpus.family_attacks(family), cut);
            if test.is_empty() {
                continue;
            }
            if let Some(result) = serve(family, model, &test)? {
                per_family.push(result);
            }
        }
        if per_family.is_empty() {
            return Err(not_enough_data("family", experiment));
        }
        Ok(per_family)
    }

    /// Fit stage of the Fig. 1 experiment: trains one per-family temporal
    /// (ARIMA) model for every evaluated family with enough data, in
    /// family order. Families failing a guard (empty split, empty test
    /// tail, fit failure) are skipped, exactly as the combined runner
    /// always did.
    ///
    /// # Errors
    ///
    /// Propagates corpus-split errors.
    pub fn fit_temporal(&self, corpus: &Corpus) -> Result<Vec<TemporalModel>> {
        let fx = FeatureExtractor::new(corpus);
        self.fit_per_family(corpus, |family, train| {
            TemporalModel::fit(&fx, family, train, &self.config.temporal).ok()
        })
    }

    /// Serve stage of the Fig. 1 experiment: rolling prediction of attack
    /// magnitudes and the `A^s` coefficient with already-fitted models
    /// (from [`Pipeline::fit_temporal`] or reloaded artifacts). Cheap —
    /// no training happens here.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; returns
    /// [`ModelError::InvalidConfig`] when no family could be evaluated.
    pub fn serve_temporal(
        &self,
        corpus: &Corpus,
        models: &[TemporalModel],
    ) -> Result<TemporalReport> {
        let fx = FeatureExtractor::new(corpus);
        let models = models.iter().map(|m| (m.family(), m));
        let per_family =
            self.serve_per_family(corpus, models, "temporal experiment", |family, model, test| {
                let mag_truth = FeatureExtractor::magnitude_series(test);
                let Ok(mag_pred) = model.magnitude_model().predict_rolling(&mag_truth) else {
                    return Ok(None);
                };
                let Ok(src_truth) = fx.source_distribution_series(test) else { return Ok(None) };
                let Ok(src_pred) = model.source_dist_model().predict_rolling(&src_truth) else {
                    return Ok(None);
                };
                Ok(Some(FamilyTemporalResult {
                    family,
                    name: corpus.catalog().profile(family)?.name.clone(),
                    magnitudes: SeriesEvaluation::new(mag_pred, mag_truth)?,
                    source_coefficient: SeriesEvaluation::new(src_pred, src_truth)?,
                }))
            })?;
        Ok(TemporalReport { per_family })
    }

    /// Runs the Fig. 1 experiment: per-family temporal (ARIMA) rolling
    /// prediction of attack magnitudes and the `A^s` coefficient —
    /// [`Pipeline::fit_temporal`] followed by [`Pipeline::serve_temporal`].
    ///
    /// # Errors
    ///
    /// Propagates model errors; families without enough data are skipped,
    /// and an error is returned only when *no* family could be evaluated.
    pub fn run_temporal(&self, corpus: &Corpus) -> Result<TemporalReport> {
        let models = self.fit_temporal(corpus)?;
        self.serve_temporal(corpus, &models)
    }

    /// Fit stage of the Fig. 2 experiment: trains the per-family
    /// source-ASN distribution models, skipping families without enough
    /// data. Returns `(family, model)` pairs in family order.
    ///
    /// # Errors
    ///
    /// Propagates corpus-split errors.
    pub fn fit_spatial_distribution(
        &self,
        corpus: &Corpus,
    ) -> Result<Vec<(FamilyId, SourceDistributionModel)>> {
        let (fx, spatial) = (FeatureExtractor::new(corpus), self.spatial_config());
        self.fit_per_family(corpus, |family, train| {
            SourceDistributionModel::fit(&fx, train, &spatial, self.seed).ok().map(|m| (family, m))
        })
    }

    /// Serve stage of the Fig. 2 experiment: rolling share-distribution
    /// prediction with already-fitted models.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; returns
    /// [`ModelError::InvalidConfig`] when no family could be evaluated.
    pub fn serve_spatial_distribution(
        &self,
        corpus: &Corpus,
        models: &[(FamilyId, SourceDistributionModel)],
    ) -> Result<SpatialDistReport> {
        let models = models.iter().map(|(family, m)| (*family, m));
        let per_family =
            self.serve_per_family(corpus, models, "spatial experiment", |family, model, test| {
                let Ok(preds) = model.predict_distribution(test) else { return Ok(None) };
                let truth = model.truth_distribution(test);
                let k = model.asns().len();
                let mut pred_mean = vec![0.0; k];
                let mut truth_mean = vec![0.0; k];
                let mut sse = 0.0;
                let mut n = 0.0f64;
                for (p, t) in preds.iter().zip(&truth) {
                    for j in 0..k {
                        pred_mean[j] += p[j];
                        truth_mean[j] += t[j];
                        sse += (p[j] - t[j]).powi(2);
                        n += 1.0;
                    }
                }
                for v in pred_mean.iter_mut().chain(truth_mean.iter_mut()) {
                    *v /= preds.len().max(1) as f64;
                }
                Ok(Some(FamilySpatialResult {
                    family,
                    name: corpus.catalog().profile(family)?.name.clone(),
                    asns: model.asns().to_vec(),
                    predicted_mean_shares: pred_mean,
                    truth_mean_shares: truth_mean,
                    share_rmse: (sse / n.max(1.0)).sqrt(),
                }))
            })?;
        Ok(SpatialDistReport { per_family })
    }

    /// Runs the Fig. 2 experiment: per-family source-ASN distribution
    /// prediction with the NAR-based spatial model —
    /// [`Pipeline::fit_spatial_distribution`] followed by
    /// [`Pipeline::serve_spatial_distribution`].
    ///
    /// # Errors
    ///
    /// Same skip-then-fail policy as [`Pipeline::run_temporal`].
    pub fn run_spatial_distribution(&self, corpus: &Corpus) -> Result<SpatialDistReport> {
        let models = self.fit_spatial_distribution(corpus)?;
        self.serve_spatial_distribution(corpus, &models)
    }

    /// Runs the §V per-network duration experiment: for the `max_networks`
    /// hottest victim ASes, fit the duration NAR on the training window
    /// and predict each held-out attack's duration one step ahead,
    /// against both naive baselines.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when no network had enough
    /// data.
    pub fn run_spatial_durations(
        &self,
        corpus: &Corpus,
        max_networks: usize,
    ) -> Result<SpatialDurationReport> {
        let models = self.fit_spatial_durations(corpus, max_networks)?;
        self.serve_spatial_durations(corpus, &models)
    }

    /// Fit stage of the §V duration experiment: one duration NAR per hot
    /// victim network with enough train/test data, hottest first. Only the
    /// log-duration series is fit: the experiment reads nothing else.
    ///
    /// # Errors
    ///
    /// Propagates corpus-split errors.
    pub fn fit_spatial_durations(
        &self,
        corpus: &Corpus,
        max_networks: usize,
    ) -> Result<Vec<DurationModel>> {
        let cut = self.cut_time(corpus)?;
        let networks = corpus.hottest_target_asns(max_networks);
        let spatial = self.spatial_config();
        // One shard per victim network, hottest first; each network's NAR
        // seed depends only on its ASN, so the fan-out is order-free and
        // the in-order reduction reproduces the serial model list exactly.
        let fitted = map_indexed(&networks, self.config.parallelism, |_, &(asn, _)| {
            let (train, test) = split_at_cut(corpus.attacks_on_asn(asn), cut);
            if train.len() < spatial.min_attacks || test.len() < 3 {
                return None;
            }
            DurationModel::fit(asn, &train, &spatial, self.seed ^ asn.0 as u64).ok()
        });
        Ok(fitted.into_iter().flatten().collect())
    }

    /// Serve stage of the §V duration experiment: one-step duration
    /// prediction (against both naive baselines) with already-fitted
    /// per-network models.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when no network could be
    /// evaluated; propagates baseline/RMSE errors.
    pub fn serve_spatial_durations(
        &self,
        corpus: &Corpus,
        models: &[DurationModel],
    ) -> Result<SpatialDurationReport> {
        let cut = self.cut_time(corpus)?;
        let mut per_network = Vec::new();
        for model in models {
            let asn = model.asn();
            let (train, test) = split_at_cut(corpus.attacks_on_asn(asn), cut);
            if test.len() < 3 {
                continue;
            }
            let Ok(preds) = model.predict_durations(&train, &test) else { continue };
            let train_d: Vec<f64> = train.iter().map(|a| a.duration_secs as f64).collect();
            let test_d: Vec<f64> = test.iter().map(|a| a.duration_secs as f64).collect();
            let same = predict_rolling(BaselineKind::AlwaysSame, &train_d, &test_d)?;
            let mean_p = predict_rolling(BaselineKind::AlwaysMean, &train_d, &test_d)?;
            per_network.push(NetworkDurationResult {
                asn,
                n_train: train.len(),
                n_test: test.len(),
                spatial_rmse: rmse(&preds, &test_d)?,
                always_same_rmse: rmse(&same, &test_d)?,
                always_mean_rmse: rmse(&mean_p, &test_d)?,
            });
        }
        if per_network.is_empty() {
            return Err(not_enough_data("network", "duration experiment"));
        }
        Ok(SpatialDurationReport { per_network })
    }

    /// Runs the Figs. 3–4 experiment: spatiotemporal timestamp prediction
    /// per target, with the spatial and temporal components as the
    /// comparison models — [`Pipeline::fit_spatiotemporal`] followed by
    /// [`Pipeline::serve_spatiotemporal`].
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn run_spatiotemporal(&self, corpus: &Corpus) -> Result<SpatioTemporalReport> {
        let model = self.fit_spatiotemporal(corpus)?;
        self.serve_spatiotemporal(corpus, &model)
    }

    /// Fit stage of the Figs. 3–4 experiment: the spatiotemporal model
    /// on the head of the chronological split. To keep a fitted model,
    /// save it with `ModelArtifact::save_artifact`; artifact round-trips
    /// are bit-exact, so a reloaded model serves identical predictions.
    ///
    /// # Errors
    ///
    /// Propagates corpus-split and fit errors.
    pub fn fit_spatiotemporal(&self, corpus: &Corpus) -> Result<SpatioTemporalModel> {
        let (train, _) = corpus.split(self.config.split)?;
        let st = &self.config.spatiotemporal;
        let spatial = SpatialConfig { parallelism: self.config.parallelism, ..st.spatial.clone() };
        let config = SpatioTemporalConfig { spatial, ..st.clone() };
        SpatioTemporalModel::fit(corpus, train, &config, self.seed)
    }

    /// Serve stage of the Figs. 3–4 experiment: batched tree scoring of
    /// every evaluable test instance plus the RMSE summary. No training
    /// happens here — `model` may come straight from a reloaded artifact.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors; [`ModelError::NotEnoughHistory`]
    /// when no test instance was evaluable.
    pub fn serve_spatiotemporal(
        &self,
        corpus: &Corpus,
        model: &SpatioTemporalModel,
    ) -> Result<SpatioTemporalReport> {
        let (train, test) = corpus.split(self.config.split)?;
        let predictions = model.predict(train, test)?;
        if predictions.is_empty() {
            return Err(ModelError::NotEnoughHistory {
                context: "spatiotemporal test instances".to_string(),
                required: 1,
                actual: 0,
            });
        }
        let col = |f: fn(&StPrediction) -> f64| -> Vec<f64> { predictions.iter().map(f).collect() };
        let truth_hour = col(|p| p.truth_hour);
        let truth_day = col(|p| p.truth_day);
        Ok(SpatioTemporalReport {
            st_hour_rmse: rmse(&col(|p| p.st_hour), &truth_hour)?,
            spatial_hour_rmse: rmse(&col(|p| p.spatial_hour), &truth_hour)?,
            temporal_hour_rmse: rmse(&col(|p| p.temporal_hour), &truth_hour)?,
            st_day_rmse: rmse(&col(|p| p.st_day), &truth_day)?,
            spatial_day_rmse: rmse(&col(|p| p.spatial_day), &truth_day)?,
            temporal_day_rmse: rmse(&col(|p| p.temporal_day), &truth_day)?,
            predictions,
        })
    }

    /// Runs the §VII-A comparison: Temporal/Spatial vs Always-Same vs
    /// Always-Mean RMSE on the five most active families across three
    /// features (magnitude, duration, ASN-distribution coefficient).
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn run_baseline_comparison(&self, corpus: &Corpus) -> Result<RmseTable> {
        let fx = FeatureExtractor::new(corpus);
        let cut = self.cut_time(corpus)?;
        let mut table = RmseTable::new();
        let mut evaluated = 0usize;
        // Walk the activity ranking and keep the five most active families
        // that actually have test data (a family whose activity window
        // closes before the chronological cut cannot be evaluated).
        for family in corpus.catalog().most_active(corpus.catalog().len()) {
            if evaluated >= 5 {
                break;
            }
            let (train, test) = split_at_cut(corpus.family_attacks(family), cut);
            if train.len() < 30 || test.len() < 5 {
                continue;
            }
            evaluated += 1;
            let name = corpus.catalog().profile(family)?.name.clone();

            // Feature 1: magnitude — temporal (ARIMA) vs baselines.
            let train_m = FeatureExtractor::magnitude_series(&train);
            let test_m = FeatureExtractor::magnitude_series(&test);
            if let Ok(model) = TemporalModel::fit(&fx, family, &train, &self.config.temporal) {
                if let Ok(pred) = model.magnitude_model().predict_rolling(&test_m) {
                    table.push(&name, "magnitude", "Temporal/Spatial", rmse(&pred, &test_m)?);
                    self.push_baselines(&mut table, &name, "magnitude", &train_m, &test_m)?;
                }
                // Feature 3: ASN-distribution coefficient A^s.
                let train_s = fx.source_distribution_series(&train)?;
                let test_s = fx.source_distribution_series(&test)?;
                if let Ok(pred) = model.source_dist_model().predict_rolling(&test_s) {
                    table.push(&name, "asn_dist", "Temporal/Spatial", rmse(&pred, &test_s)?);
                    self.push_baselines(&mut table, &name, "asn_dist", &train_s, &test_s)?;
                }
            }

            // Feature 2: duration — spatial (NAR) vs baselines. Durations
            // are a *per-network* feature (§V groups all target-related
            // variables at the AS level), so the series is the family's
            // attacks on its most-attacked victim AS, where the duration
            // persistence the spatial model exploits actually lives —
            // interleaving every target would bury it.
            let mut per_asn: std::collections::BTreeMap<ddos_astopo::Asn, usize> =
                std::collections::BTreeMap::new();
            for a in &train {
                *per_asn.entry(a.target_asn).or_insert(0) += 1;
            }
            if let Some((hot_asn, _)) = per_asn.into_iter().max_by_key(|(asn, n)| (*n, asn.0)) {
                let train_d: Vec<f64> = train
                    .iter()
                    .filter(|a| a.target_asn == hot_asn)
                    .map(|a| a.duration_secs as f64)
                    .collect();
                let test_d: Vec<f64> = test
                    .iter()
                    .filter(|a| a.target_asn == hot_asn)
                    .map(|a| a.duration_secs as f64)
                    .collect();
                let nar_cfg = self.config.spatial.fixed.unwrap_or_default();
                if !test_d.is_empty() && train_d.len() >= 20 {
                    // The NAR models log-durations (heavy-tailed feature);
                    // RMSE is reported on the original scale.
                    let train_log: Vec<f64> = train_d.iter().map(|d| d.max(1.0).ln()).collect();
                    let test_log: Vec<f64> = test_d.iter().map(|d| d.max(1.0).ln()).collect();
                    if let Ok(model) =
                        NarModel::fit(&train_log, nar_cfg, self.seed ^ family.0 as u64)
                    {
                        if let Ok(pred) = model.predict_rolling(&train_log, &test_log) {
                            let pred: Vec<f64> = pred.into_iter().map(f64::exp).collect();
                            table.push(
                                &name,
                                "duration",
                                "Temporal/Spatial",
                                rmse(&pred, &test_d)?,
                            );
                            self.push_baselines(&mut table, &name, "duration", &train_d, &test_d)?;
                        }
                    }
                }
            }
        }
        if table.rows().is_empty() {
            return Err(not_enough_data("family", "baseline comparison"));
        }
        Ok(table)
    }

    fn push_baselines(
        &self,
        table: &mut RmseTable,
        scope: &str,
        feature: &str,
        train: &[f64],
        test: &[f64],
    ) -> Result<()> {
        for kind in [BaselineKind::AlwaysSame, BaselineKind::AlwaysMean] {
            let pred = predict_rolling(kind, train, test)?;
            table.push(scope, feature, kind.to_string(), rmse(&pred, test)?);
        }
        Ok(())
    }
}

/// Attacks launched before the cut, then the rest, each in input order:
/// one family's or one victim network's two sides of the split.
fn split_at_cut(
    attacks: Vec<&AttackRecord>,
    cut: Timestamp,
) -> (Vec<&AttackRecord>, Vec<&AttackRecord>) {
    attacks.into_iter().partition(|a| a.start < cut)
}

/// The error of a runner that evaluated no `unit` (family or network).
fn not_enough_data(unit: &str, experiment: &str) -> ModelError {
    ModelError::InvalidConfig { detail: format!("no {unit} had enough data for the {experiment}") }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddos_trace::{CorpusConfig, TraceGenerator};

    fn corpus() -> Corpus {
        TraceGenerator::new(CorpusConfig::small(), 141).generate().unwrap()
    }

    #[test]
    fn temporal_report_covers_families() {
        let c = corpus();
        let p = Pipeline::new(PipelineConfig::fast(), 1);
        let report = p.run_temporal(&c).unwrap();
        assert!(!report.per_family.is_empty());
        for r in &report.per_family {
            assert!(!r.magnitudes.is_empty());
            assert!(r.magnitudes.rmse.is_finite());
            assert!(r.source_coefficient.rmse.is_finite());
            assert!(!r.name.is_empty());
        }
    }

    #[test]
    fn one_attack_corpus_is_an_error_not_a_panic() {
        let c = corpus();
        let one = Corpus::new(
            c.attacks()[..1].to_vec(),
            c.catalog().clone(),
            c.topology().clone(),
            c.ip_map().clone(),
            c.targets().clone(),
            c.days(),
        )
        .unwrap();
        let p = Pipeline::new(PipelineConfig::fast(), 1);
        assert!(p.run_temporal(&one).is_err());
    }

    #[test]
    fn spatial_report_distributions_normalized() {
        let c = corpus();
        let p = Pipeline::new(PipelineConfig::fast(), 2);
        let report = p.run_spatial_distribution(&c).unwrap();
        assert!(!report.per_family.is_empty());
        for r in &report.per_family {
            assert_eq!(r.asns.len(), r.predicted_mean_shares.len());
            assert!(r.share_rmse.is_finite() && r.share_rmse >= 0.0);
            let t: f64 = r.truth_mean_shares.iter().sum();
            assert!(t <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn spatiotemporal_report_has_rmse_ordering_signal() {
        let c = corpus();
        let p = Pipeline::new(PipelineConfig::fast(), 3);
        let report = p.run_spatiotemporal(&c).unwrap();
        assert!(!report.predictions.is_empty());
        // The combined model should not be much worse than either input.
        assert!(report.st_hour_rmse <= report.spatial_hour_rmse * 1.15);
        assert!(report.st_day_rmse <= report.spatial_day_rmse * 1.15);
        assert!(report.temporal_hour_rmse.is_finite());
        assert!(report.temporal_day_rmse.is_finite());
    }

    #[test]
    fn baseline_comparison_learned_model_wins_cells() {
        let c = corpus();
        let p = Pipeline::new(PipelineConfig::fast(), 4);
        let table = p.run_baseline_comparison(&c).unwrap();
        assert!(!table.rows().is_empty());
        // The learned model must win at least half its cells (the paper
        // reports it always wins; on a small synthetic corpus demand a
        // clear majority).
        let cells: std::collections::BTreeSet<(String, String)> =
            table.rows().iter().map(|r| (r.scope.clone(), r.feature.clone())).collect();
        let mut wins = 0usize;
        for (s, f) in &cells {
            if table.winner(s, f).map(|w| w.model == "Temporal/Spatial").unwrap_or(false) {
                wins += 1;
            }
        }
        assert!(
            wins * 2 >= cells.len(),
            "learned model won only {wins}/{} cells:\n{table}",
            cells.len()
        );
    }

    #[test]
    fn spatial_duration_report_is_sane() {
        let c = corpus();
        let p = Pipeline::new(PipelineConfig::fast(), 6);
        let report = p.run_spatial_durations(&c, 4).unwrap();
        assert!(!report.per_network.is_empty());
        for r in &report.per_network {
            assert!(r.spatial_rmse.is_finite() && r.spatial_rmse >= 0.0);
            assert!(r.n_train >= 12 && r.n_test >= 3);
        }
        // The NAR should win or tie on at least some networks.
        assert!(report.win_fraction() > 0.0, "NAR never beat the baselines");
    }

    #[test]
    fn staged_fit_then_serve_matches_combined_runners() {
        let c = corpus();
        let p = Pipeline::new(PipelineConfig::fast(), 1);
        // Temporal: fit and serve separately, compare to the one-shot run.
        let models = p.fit_temporal(&c).unwrap();
        assert!(!models.is_empty());
        let staged = p.serve_temporal(&c, &models).unwrap();
        assert_eq!(staged, p.run_temporal(&c).unwrap());
        // Durations: same staging contract.
        let nets = p.fit_spatial_durations(&c, 4).unwrap();
        let staged = p.serve_spatial_durations(&c, &nets).unwrap();
        assert_eq!(staged, p.run_spatial_durations(&c, 4).unwrap());
        // Source distributions.
        let dists = p.fit_spatial_distribution(&c).unwrap();
        assert!(!dists.is_empty());
        let staged = p.serve_spatial_distribution(&c, &dists).unwrap();
        assert_eq!(staged, p.run_spatial_distribution(&c).unwrap());
        // Spatiotemporal.
        let model = p.fit_spatiotemporal(&c).unwrap();
        let staged = p.serve_spatiotemporal(&c, &model).unwrap();
        assert_eq!(staged, p.run_spatiotemporal(&c).unwrap());
    }

    #[test]
    fn spatiotemporal_fit_runs_on_the_pipeline_worker_count() {
        use crate::artifact::ModelArtifact;
        let c = corpus();
        let fit = |workers| {
            let config = PipelineConfig::fast_builder().parallelism(workers).build().unwrap();
            let model = Pipeline::new(config, 3).fit_spatiotemporal(&c).unwrap();
            assert_eq!(model.config().spatial.parallelism, Some(workers));
            model.to_artifact_bytes()
        };
        assert!(fit(1) == fit(3), "the artifact depends on the worker count");
    }

    #[test]
    fn families_selection_prefers_figure_families() {
        let c = corpus();
        let p = Pipeline::new(PipelineConfig::fast(), 5);
        let fams = p.families(&c);
        // Small catalog retains DirtJumper and Pandora.
        assert_eq!(fams.len(), 2);
        let explicit = Pipeline::new(
            PipelineConfig { families: Some(vec![FamilyId(0)]), ..PipelineConfig::fast() },
            5,
        );
        assert_eq!(explicit.families(&c), vec![FamilyId(0)]);
    }

    #[test]
    fn builder_validates_parallelism() {
        // The happy path reproduces the preset it starts from.
        assert_eq!(PipelineConfig::fast_builder().build().unwrap(), PipelineConfig::fast());
        let cfg = PipelineConfig::fast_builder().parallelism(2).build().unwrap();
        assert_eq!(cfg.parallelism, Some(2));
        // A zero-worker request is a typed InvalidConfig.
        assert!(matches!(
            PipelineConfig::fast_builder().parallelism(0).build(),
            Err(ModelError::InvalidConfig { .. })
        ));
    }
}
