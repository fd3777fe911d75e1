//! The spatiotemporal model (§VI): a regression tree over the temporal and
//! spatial models' outputs.
//!
//! Per prediction instance (one upcoming attack on one target) the model
//! assembles the paper's two history groups — the last `h` attacks on the
//! target's AS and the last `h` attacks anywhere (the paper uses `h = 10`)
//! — runs the fitted temporal (ARIMA) and spatial (NAR) components on
//! them, and feeds the resulting predictions (`N_tmp`, `N_spa`, `N_int`,
//! …) into a CART tree with MLR leaves, pruned against a holdout with the
//! paper's 0.88 retention factor. Four trees are trained: launch hour,
//! launch day, magnitude and duration. The fitted model keeps only what
//! prediction reads: each ARIMA component as its one-step predictor, the
//! per-AS NAR nets and the four trees.

use crate::artifact::ModelArtifact;
use crate::spatial::{SpatialConfig, SpatialModel};
use crate::variables::{PredictedAttack, TimestampParts};
use crate::{ModelError, Result};
use ddos_astopo::Asn;
use ddos_cart::leaf::LeafKind;
use ddos_cart::prune::prune_holdout;
use ddos_cart::tree::{PresortedDesign, RegressionTree, TreeConfig};
use ddos_cart::CartError;
use ddos_stats::arima::{Arima, ArimaOrder, OneStep};
use ddos_stats::codec::{CodecResult, Reader, Writer};
use ddos_trace::{AttackRecord, Corpus};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Spatiotemporal-model configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpatioTemporalConfig {
    /// History attacks per group (the paper uses 10 for both the same-AS
    /// and the recent group).
    pub history_per_group: usize,
    /// Tree growth parameters.
    pub tree: TreeConfig,
    /// Std-dev retention for pruning (the paper's 0.88). `None` disables
    /// pruning (ablation knob).
    pub prune_retention: Option<f64>,
    /// Spatial sub-model configuration (per-AS NAR nets).
    pub spatial: SpatialConfig,
    /// Fit per-AS NAR models only for this many hottest victim ASes; the
    /// rest fall back to window statistics (keeps training tractable).
    pub max_spatial_models: usize,
}

impl Default for SpatioTemporalConfig {
    fn default() -> Self {
        SpatioTemporalConfig {
            history_per_group: 10,
            tree: TreeConfig { max_depth: 12, min_samples_leaf: 6, ..TreeConfig::default() },
            prune_retention: Some(0.88),
            spatial: SpatialConfig::fast(),
            max_spatial_models: 24,
        }
    }
}

impl SpatioTemporalConfig {
    /// A fast configuration for tests.
    pub fn fast() -> Self {
        SpatioTemporalConfig { history_per_group: 8, max_spatial_models: 4, ..Default::default() }
    }

    /// Encodes the configuration.
    pub fn encode(&self, w: &mut Writer) {
        w.usize(self.history_per_group);
        self.tree.encode(w);
        w.bool(self.prune_retention.is_some());
        if let Some(retention) = self.prune_retention {
            w.f64(retention);
        }
        self.spatial.encode(w);
        w.usize(self.max_spatial_models);
    }

    /// Decodes a configuration written by [`SpatioTemporalConfig::encode`].
    ///
    /// # Errors
    ///
    /// [`ddos_stats::codec::CodecError`] on truncated or malformed input.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        Ok(SpatioTemporalConfig {
            history_per_group: r.usize()?,
            tree: TreeConfig::decode(r)?,
            prune_retention: if r.bool()? { Some(r.f64()?) } else { None },
            spatial: SpatialConfig::decode(r)?,
            max_spatial_models: r.usize()?,
        })
    }
}

/// Feature vector of one prediction instance (one row of the tree design).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceFeatures {
    /// `N_tmp` — hour predicted by the temporal (ARIMA) component from the
    /// recent group.
    pub tmp_hour: f64,
    /// Hour predicted by the spatial (NAR) component from the same-AS
    /// group.
    pub spa_hour: f64,
    /// `N_int` — next inter-launch interval (seconds) predicted by the
    /// temporal component from the recent group.
    pub interval_secs: f64,
    /// Day-of-month predicted by the temporal component.
    pub tmp_day: f64,
    /// Day-of-month predicted by the spatial component.
    pub spa_day: f64,
    /// Mean magnitude over the recent group (the unpruned tree's extra
    /// determinant the paper mentions).
    pub mean_recent_magnitude: f64,
    /// Duration predicted by the spatial component (seconds).
    pub spa_duration: f64,
    /// Hour of the last same-AS attack.
    pub last_as_hour: f64,
    /// Gap (seconds) between the last two same-AS attacks.
    pub last_as_gap: f64,
    /// Hour implied by launching one predicted same-AS gap after the last
    /// same-AS attack — the `N_int`-style composition the paper highlights
    /// as the tree's strongest timestamp signal (multistage follow-ups
    /// land 30 s–24 h after their predecessor).
    pub implied_hour: f64,
    /// Day-of-month implied by the same composition.
    pub implied_day: f64,
    /// 1.0 when the most recent attack anywhere hit this same AS — the
    /// tell of an ongoing multistage chain on this network.
    pub chain_indicator: f64,
    /// Median launch hour of the same-AS history (robust estimate of the
    /// network's preferred attack hour).
    pub as_hour_median: f64,
}

impl InstanceFeatures {
    /// Flattens into the tree's input row. Keep in sync with
    /// [`InstanceFeatures::FEATURE_NAMES`].
    pub fn to_row(self) -> Vec<f64> {
        self.to_array().to_vec()
    }

    /// Whether every feature is finite (no NaN, no ±∞). Serving admission
    /// requires it: the tree walk would carry a non-finite feature
    /// through to a NaN forecast.
    pub fn is_finite(self) -> bool {
        self.to_array().iter().all(|v| v.is_finite())
    }

    /// The features in [`InstanceFeatures::FEATURE_NAMES`] order, without
    /// allocating: the form a reused row buffer is overwritten from.
    pub fn to_array(self) -> [f64; 13] {
        [
            self.tmp_hour,
            self.spa_hour,
            self.interval_secs,
            self.tmp_day,
            self.spa_day,
            self.mean_recent_magnitude,
            self.spa_duration,
            self.last_as_hour,
            self.last_as_gap,
            self.implied_hour,
            self.implied_day,
            self.chain_indicator,
            self.as_hour_median,
        ]
    }

    /// Inverse of [`InstanceFeatures::to_row`]: reconstructs structured
    /// features from a flattened design row. Returns `None` when the row
    /// is not exactly [`InstanceFeatures::FEATURE_NAMES`]`.len()` wide.
    /// This is how serving front ends replay persisted or assembled
    /// design rows as typed requests.
    pub fn from_row(row: &[f64]) -> Option<Self> {
        if row.len() != Self::FEATURE_NAMES.len() {
            return None;
        }
        Some(InstanceFeatures {
            tmp_hour: row[0],
            spa_hour: row[1],
            interval_secs: row[2],
            tmp_day: row[3],
            spa_day: row[4],
            mean_recent_magnitude: row[5],
            spa_duration: row[6],
            last_as_hour: row[7],
            last_as_gap: row[8],
            implied_hour: row[9],
            implied_day: row[10],
            chain_indicator: row[11],
            as_hour_median: row[12],
        })
    }

    /// Human-readable feature names aligned with [`InstanceFeatures::to_row`].
    pub const FEATURE_NAMES: [&'static str; 13] = [
        "N_tmp_hour",
        "N_spa_hour",
        "N_int",
        "N_tmp_day",
        "N_spa_day",
        "mean_recent_magnitude",
        "N_spa_duration",
        "last_as_hour",
        "last_as_gap",
        "implied_hour",
        "implied_day",
        "chain_indicator",
        "as_hour_median",
    ];
}

/// One evaluated prediction: the three models' outputs next to the truth
/// (the rows behind Figures 3–4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StPrediction {
    /// True launch hour.
    pub truth_hour: f64,
    /// True launch day (day-of-month).
    pub truth_day: f64,
    /// True magnitude.
    pub truth_magnitude: f64,
    /// True duration (seconds).
    pub truth_duration: f64,
    /// Spatiotemporal tree predictions.
    pub st_hour: f64,
    /// Spatiotemporal day prediction.
    pub st_day: f64,
    /// Spatiotemporal magnitude prediction.
    pub st_magnitude: f64,
    /// Spatiotemporal duration prediction.
    pub st_duration: f64,
    /// Spatial-only hour prediction (the `N_spa` feature itself).
    pub spatial_hour: f64,
    /// Spatial-only day prediction.
    pub spatial_day: f64,
    /// Temporal-only hour prediction (the `N_tmp` feature itself).
    pub temporal_hour: f64,
    /// Temporal-only day prediction.
    pub temporal_day: f64,
}

impl StPrediction {
    /// The spatiotemporal prediction as a [`PredictedAttack`].
    pub fn predicted_attack(&self) -> PredictedAttack {
        PredictedAttack {
            magnitude: self.st_magnitude,
            duration_secs: self.st_duration,
            timestamp: TimestampParts {
                day: self.st_day.round().clamp(1.0, 31.0) as u8,
                hour: self.st_hour.round().clamp(0.0, 23.0) as u8,
            },
        }
    }
}

/// One forward forecast served from a fitted spatiotemporal model: the
/// four tree outputs with the model's standard output clamps applied.
/// Unlike [`StPrediction`] (an *evaluation* row carrying truth labels and
/// component outputs) this is the pure serving payload — what a forecast
/// service returns per query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackForecast {
    /// Predicted launch hour, clamped to `[0, 24)`.
    pub hour: f64,
    /// Predicted launch day-of-month, clamped to `[1, 31]`.
    pub day: f64,
    /// Predicted magnitude (bots), clamped nonnegative.
    pub magnitude: f64,
    /// Predicted duration in seconds, clamped nonnegative.
    pub duration_secs: f64,
}

impl AttackForecast {
    /// The forecast as a [`PredictedAttack`] (rounded timestamp parts).
    pub fn predicted_attack(&self) -> PredictedAttack {
        PredictedAttack {
            magnitude: self.magnitude,
            duration_secs: self.duration_secs,
            timestamp: TimestampParts {
                day: self.day.round().clamp(1.0, 31.0) as u8,
                hour: self.hour.round().clamp(0.0, 23.0) as u8,
            },
        }
    }
}

/// Reusable working memory for [`SpatioTemporalModel::forecast_rows_into`]:
/// one output buffer per tree, in label order, each filled by that
/// tree's per-row walks. One scratch per serving worker amortizes every
/// per-batch allocation away.
#[derive(Debug, Default, Clone)]
pub struct ForecastScratch {
    outputs: [Vec<f64>; 4],
}

/// The spatiotemporal training design: one feature row per instance plus
/// its `[hour, day, magnitude, duration]` label vector.
pub type TrainingDesign = (Vec<Vec<f64>>, Vec<[f64; 4]>);

/// One prediction instance: structured features plus the
/// `[hour, day, magnitude, duration]` of the attack it predicts.
type Instance = (InstanceFeatures, [f64; 4]);

/// The feature side of the model: the temporal (ARIMA) and spatial (NAR)
/// components whose outputs become each instance's features.
struct Components {
    /// Global temporal components (fit on all training attacks), kept as
    /// the one-step predictors `features_for` applies to the recent
    /// group: the training series the ARIMAs were fit on is not read
    /// again.
    hour_arima: OneStep,
    day_arima: OneStep,
    gap_arima: OneStep,
    /// Per-AS spatial components for the hottest victim networks: the
    /// duration, hour and gap NARs `features_for` reads (`spa_day` is the
    /// window mean, so no day NAR is fit).
    spatial: BTreeMap<Asn, SpatialModel>,
}

impl Components {
    /// Fits the temporal components on the full training stream and the
    /// spatial components per hot victim AS.
    fn fit(train: &[&AttackRecord], config: &SpatioTemporalConfig, seed: u64) -> Result<Self> {
        let h = config.history_per_group;
        if train.len() < h * 4 {
            return Err(ModelError::NotEnoughHistory {
                context: "spatiotemporal training stream".to_string(),
                required: h * 4,
                actual: train.len(),
            });
        }

        // Global temporal components. Fixed small AR orders keep this
        // robust on arbitrary corpora; the per-family temporal model of
        // §IV handles order search.
        let hours: Vec<f64> = train.iter().map(|a| a.start.hour() as f64).collect();
        let days: Vec<f64> = train.iter().map(|a| a.start.day_of_month() as f64).collect();
        let gaps: Vec<f64> =
            train.windows(2).map(|w| w[1].start.abs_diff(w[0].start) as f64).collect();
        let hour_arima = Arima::fit(&hours, ArimaOrder::new(2, 0, 1))?.one_step();
        let day_arima = Arima::fit(&days, ArimaOrder::new(2, 0, 0))?.one_step();
        let gap_arima = Arima::fit(&gaps, ArimaOrder::new(2, 0, 1))?.one_step();

        // Spatial components for the hottest victim ASes (within train).
        let mut per_asn: BTreeMap<Asn, Vec<&AttackRecord>> = BTreeMap::new();
        for a in train {
            per_asn.entry(a.target_asn).or_default().push(a);
        }
        let mut hot: Vec<(Asn, usize)> = per_asn.iter().map(|(asn, v)| (*asn, v.len())).collect();
        hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut spatial = BTreeMap::new();
        for (asn, _) in hot.into_iter().take(config.max_spatial_models) {
            if let Ok(model) =
                SpatialModel::fit(asn, &per_asn[&asn], &config.spatial, seed ^ asn.0 as u64)
            {
                spatial.insert(asn, model);
            }
        }
        Ok(Components { hour_arima, day_arima, gap_arima, spatial })
    }

    /// Walks a chronological attack stream and emits one instance for
    /// every position `k >= from` with at least `h` attacks before it, `h`
    /// of them on its target AS. Attacks before `from` only feed the
    /// histories.
    fn instances(&self, stream: &[&AttackRecord], from: usize, h: usize) -> Vec<Instance> {
        let mut per_asn: HashMap<Asn, Vec<usize>> = HashMap::new();
        let mut out = Vec::new();
        for (k, attack) in stream.iter().enumerate() {
            let asn_history = per_asn.entry(attack.target_asn).or_default();
            if k >= from && k >= h && asn_history.len() >= h {
                let recent = &stream[k - h..k];
                let same_as: Vec<&AttackRecord> =
                    asn_history[asn_history.len() - h..].iter().map(|&i| stream[i]).collect();
                if let Some(features) = self.features_for(recent, &same_as) {
                    out.push((
                        features,
                        [
                            attack.start.hour() as f64,
                            attack.start.day_of_month() as f64,
                            attack.magnitude() as f64,
                            attack.duration_secs as f64,
                        ],
                    ));
                }
            }
            asn_history.push(k);
        }
        out
    }

    /// Computes one instance's features from the two history groups.
    fn features_for(
        &self,
        recent: &[&AttackRecord],
        same_as: &[&AttackRecord],
    ) -> Option<InstanceFeatures> {
        if recent.is_empty() || same_as.len() < 2 {
            return None;
        }
        let recent_hours: Vec<f64> = recent.iter().map(|a| a.start.hour() as f64).collect();
        let recent_days: Vec<f64> = recent.iter().map(|a| a.start.day_of_month() as f64).collect();
        let recent_gaps: Vec<f64> =
            recent.windows(2).map(|w| w[1].start.abs_diff(w[0].start) as f64).collect();
        let as_hours: Vec<f64> = same_as.iter().map(|a| a.start.hour() as f64).collect();
        let as_days: Vec<f64> = same_as.iter().map(|a| a.start.day_of_month() as f64).collect();
        let as_durations: Vec<f64> = same_as.iter().map(|a| a.duration_secs as f64).collect();

        // Temporal component: frozen-ARIMA one-step from the recent group.
        let tmp_hour = self
            .hour_arima
            .predict(&recent_hours)
            .unwrap_or_else(|_| mean(&recent_hours))
            .clamp(0.0, 23.999);
        let tmp_day = self
            .day_arima
            .predict(&recent_days)
            .unwrap_or_else(|_| mean(&recent_days))
            .clamp(1.0, 31.0);
        let interval_secs = if recent_gaps.is_empty() {
            0.0
        } else {
            self.gap_arima.predict(&recent_gaps).unwrap_or_else(|_| mean(&recent_gaps)).max(0.0)
        };

        // Spatial component: per-AS NAR when available, else window stats.
        let asn = same_as[0].target_asn;
        let (spa_duration, spa_hour) = match self.spatial.get(&asn) {
            Some(model) => {
                model.forecast_next(same_as).unwrap_or((mean(&as_durations), mean(&as_hours)))
            }
            None => (mean(&as_durations), mean(&as_hours)),
        };
        let spa_day = mean(&as_days).clamp(1.0, 31.0);

        let last_as_gap = if same_as.len() >= 2 {
            same_as[same_as.len() - 1].start.abs_diff(same_as[same_as.len() - 2].start) as f64
        } else {
            0.0
        };

        // Implied next launch: last same-AS attack plus the predicted
        // same-AS gap (per-AS NAR when fitted, else the window median
        // gap). Multistage follow-ups make this the sharpest timestamp
        // signal available to the tree.
        let as_gaps: Vec<f64> =
            same_as.windows(2).map(|w| w[1].start.abs_diff(w[0].start) as f64).collect();
        let predicted_gap = self
            .spatial
            .get(&asn)
            .and_then(|m| m.forecast_gap(same_as))
            .unwrap_or_else(|| median(&as_gaps));
        let last_start = same_as[same_as.len() - 1].start;
        let implied = last_start + predicted_gap.max(0.0) as u64;
        let implied_hour = implied.hour() as f64;
        let implied_day = implied.day_of_month() as f64;
        let chain_indicator = if recent[recent.len() - 1].target_asn == asn { 1.0 } else { 0.0 };
        let as_hour_median = median(&as_hours);

        Some(InstanceFeatures {
            tmp_hour,
            spa_hour: spa_hour.clamp(0.0, 23.999),
            interval_secs,
            tmp_day,
            spa_day,
            mean_recent_magnitude: mean(
                &recent.iter().map(|a| a.magnitude() as f64).collect::<Vec<_>>(),
            ),
            spa_duration: spa_duration.max(0.0),
            last_as_hour: as_hours[as_hours.len() - 1],
            last_as_gap,
            implied_hour,
            implied_day,
            chain_indicator,
            as_hour_median,
        })
    }

    fn encode(&self, w: &mut Writer) {
        self.hour_arima.encode(w);
        self.day_arima.encode(w);
        self.gap_arima.encode(w);
        // The per-AS spatial models; each payload starts with its own ASN,
        // so the map keys are recovered from the payloads.
        w.usize(self.spatial.len());
        for model in self.spatial.values() {
            model.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        let hour_arima = OneStep::decode(r)?;
        let day_arima = OneStep::decode(r)?;
        let gap_arima = OneStep::decode(r)?;
        let n = r.len(4)?;
        let mut spatial = BTreeMap::new();
        for _ in 0..n {
            let model = SpatialModel::decode(r)?;
            spatial.insert(model.asn(), model);
        }
        Ok(Components { hour_arima, day_arima, gap_arima, spatial })
    }
}

/// The fitted spatiotemporal model.
pub struct SpatioTemporalModel {
    config: SpatioTemporalConfig,
    components: Components,
    /// The four per-target model trees in label order: hour, day,
    /// magnitude, duration.
    trees: [RegressionTree; 4],
}

impl SpatioTemporalModel {
    /// Fits the model: temporal components on the full training stream,
    /// spatial components per hot victim AS, then the four trees on every
    /// training instance with sufficient history.
    ///
    /// # Errors
    ///
    /// * [`ModelError::NotEnoughHistory`] when fewer than ~30 usable
    ///   training instances exist.
    /// * Propagates component errors.
    pub fn fit(
        corpus: &Corpus,
        train: &[AttackRecord],
        config: &SpatioTemporalConfig,
        seed: u64,
    ) -> Result<Self> {
        let stream: Vec<&AttackRecord> = train.iter().collect();
        let components = Components::fit(&stream, config, seed)?;
        let instances = components.instances(&stream, 0, config.history_per_group);
        if instances.len() < 30 {
            return Err(ModelError::NotEnoughHistory {
                context: "spatiotemporal training instances".to_string(),
                required: 30,
                actual: instances.len(),
            });
        }
        let xs: Vec<Vec<f64>> = instances.iter().map(|(f, _)| f.to_row()).collect();
        let label = |idx: usize| -> Vec<f64> { instances.iter().map(|(_, l)| l[idx]).collect() };
        // Grow on the head of the instance stream, prune against the
        // chronological tail (reduced-error pruning with the paper's
        // retention factor), and pick each tree's leaf kind by holdout
        // RMSE: periodic targets (hour) usually prefer constant leaves
        // (MLR leaves extrapolate across the 0/24 wrap) while
        // near-identity targets (day) prefer the paper's MLR leaves — the
        // holdout decides per corpus instead of hard-coding either.
        let grow_n = (xs.len() as f64 * 0.85) as usize;
        let grow_n = grow_n.clamp(20, xs.len());
        // Splits never depend on the leaf kind, so one growth yields both
        // candidate trees for a target.
        let fit_tree = |design: &PresortedDesign, labels: &[f64]| -> Result<RegressionTree> {
            let Some(retention) = config.prune_retention else {
                return Ok(design.fit(labels, &config.tree)?);
            };
            let pruned = |mut tree: RegressionTree| -> Result<(f64, RegressionTree)> {
                prune_holdout(&mut tree, &xs[grow_n..], &labels[grow_n..], retention)?;
                let mut sse = 0.0;
                for (row, y) in xs[grow_n..].iter().zip(&labels[grow_n..]) {
                    let e = tree.predict(row)? - y;
                    sse += e * e;
                }
                Ok((sse, tree))
            };
            let [linear, constant] = design.fit_leaf_kinds(
                &labels[..grow_n],
                &config.tree,
                [LeafKind::Linear, LeafKind::Constant],
            )?;
            let (linear_sse, linear) = pruned(linear)?;
            let (constant_sse, constant) = pruned(constant)?;
            // Constant leaves must win outright: the paper's MLR leaves
            // keep a tie.
            Ok(if constant_sse < linear_sse { constant } else { linear })
        };
        // One presorted design serves all four targets.
        let rows = if config.prune_retention.is_some() { &xs[..grow_n] } else { &xs[..] };
        let design = PresortedDesign::new(rows)?;
        let [hour, day, magnitude, duration] =
            [0, 1, 2, 3].map(|idx| fit_tree(&design, &label(idx)));
        let _ = corpus; // corpus-level context reserved for future features
        Ok(SpatioTemporalModel {
            config: config.clone(),
            components,
            trees: [hour?, day?, magnitude?, duration?],
        })
    }

    /// The raw tree design the model trains on: one `(features, labels)`
    /// row per training instance with sufficient history, where labels are
    /// `[hour, day, magnitude, duration]` of the predicted attack. This is
    /// the "standard spatiotemporal training set" the CART benches and the
    /// goldencheck fingerprints run against.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpatioTemporalModel::fit`], except the minimum
    /// instance count is not enforced (an empty design is returned as-is).
    pub fn training_design(
        train: &[AttackRecord],
        config: &SpatioTemporalConfig,
        seed: u64,
    ) -> Result<TrainingDesign> {
        let stream: Vec<&AttackRecord> = train.iter().collect();
        let components = Components::fit(&stream, config, seed)?;
        let instances = components.instances(&stream, 0, config.history_per_group);
        Ok(instances.into_iter().map(|(f, l)| (f.to_row(), l)).unzip())
    }

    /// The configuration used at fit time.
    pub fn config(&self) -> &SpatioTemporalConfig {
        &self.config
    }

    /// The fitted hour tree.
    pub fn hour_tree(&self) -> &RegressionTree {
        &self.trees[0]
    }

    /// The fitted day tree.
    pub fn day_tree(&self) -> &RegressionTree {
        &self.trees[1]
    }

    /// Evaluates the model over a test stream: for every test attack whose
    /// target AS has accumulated enough history (train attacks plus
    /// already-revealed test attacks), produces the three models'
    /// predictions next to the truth.
    ///
    /// The instance walk collects every queryable test instance first,
    /// then scores them all in one
    /// [`SpatioTemporalModel::forecast_rows_into`] call.
    ///
    /// # Errors
    ///
    /// Propagates tree prediction errors.
    pub fn predict(
        &self,
        train: &[AttackRecord],
        test: &[AttackRecord],
    ) -> Result<Vec<StPrediction>> {
        let stream: Vec<&AttackRecord> = train.iter().chain(test).collect();
        let instances =
            self.components.instances(&stream, train.len(), self.config.history_per_group);
        let rows: Vec<Vec<f64>> = instances.iter().map(|(f, _)| f.to_row()).collect();
        let mut forecasts = Vec::with_capacity(rows.len());
        self.forecast_rows_into(&rows, &mut ForecastScratch::default(), &mut forecasts)?;
        Ok(instances
            .iter()
            .zip(&forecasts)
            .map(|((f, truth), fc)| StPrediction {
                truth_hour: truth[0],
                truth_day: truth[1],
                truth_magnitude: truth[2],
                truth_duration: truth[3],
                st_hour: fc.hour,
                st_day: fc.day,
                st_magnitude: fc.magnitude,
                st_duration: fc.duration_secs,
                spatial_hour: f.spa_hour,
                spatial_day: f.spa_day,
                temporal_hour: f.tmp_hour,
                temporal_day: f.tmp_day,
            })
            .collect())
    }

    /// Scores a batch of flattened design rows through the four trees,
    /// writing one clamped [`AttackForecast`] per row into `out`. This is
    /// the serving kernel: each tree walks every row
    /// ([`RegressionTree::predict`]) into its output buffer in `scratch`,
    /// so a long-lived worker pays zero allocation per batch in steady
    /// state, and results are bit-identical at any batch split (each
    /// row's score depends only on that row — goldencheck and the serve
    /// determinism proptest pin this).
    ///
    /// # Errors
    ///
    /// As [`ModelError::Cart`]:
    /// * [`CartError::FeatureWidthMismatch`] when a row is not exactly
    ///   13 features wide;
    /// * [`CartError::NonFiniteInput`] when a tree's output for any row
    ///   is NaN or infinite (finite but extreme features can overflow an
    ///   MLR leaf). The clamps would pass a NaN through, so such a batch
    ///   is refused instead; `out` is then left empty.
    pub fn forecast_rows_into(
        &self,
        rows: &[Vec<f64>],
        scratch: &mut ForecastScratch,
        out: &mut Vec<AttackForecast>,
    ) -> Result<()> {
        out.clear();
        for (tree, buf) in self.trees.iter().zip(&mut scratch.outputs) {
            buf.clear();
            for row in rows {
                buf.push(tree.predict(row)?);
            }
            if !buf.iter().all(|v| v.is_finite()) {
                return Err(CartError::NonFiniteInput.into());
            }
        }
        let [hours, days, magnitudes, durations] = &scratch.outputs;
        out.extend((0..rows.len()).map(|j| AttackForecast {
            hour: hours[j].clamp(0.0, 23.999),
            day: days[j].clamp(1.0, 31.0),
            magnitude: magnitudes[j].max(0.0),
            duration_secs: durations[j].max(0.0),
        }));
        Ok(())
    }

    /// Convenience wrapper over
    /// [`forecast_rows_into`](SpatioTemporalModel::forecast_rows_into)
    /// for typed features: flattens, scores, returns. The serial
    /// reference path the serve determinism tests compare against.
    ///
    /// # Errors
    ///
    /// Same as [`forecast_rows_into`](SpatioTemporalModel::forecast_rows_into).
    pub fn forecast_features(&self, features: &[InstanceFeatures]) -> Result<Vec<AttackForecast>> {
        let rows: Vec<Vec<f64>> = features.iter().map(|f| f.to_row()).collect();
        let mut scratch = ForecastScratch::default();
        let mut out = Vec::new();
        self.forecast_rows_into(&rows, &mut scratch, &mut out)?;
        Ok(out)
    }
}

impl ModelArtifact for SpatioTemporalModel {
    fn encode_payload(&self, w: &mut Writer) {
        self.config.encode(w);
        self.components.encode(w);
        for tree in &self.trees {
            tree.encode(w);
        }
    }

    fn decode_payload(r: &mut Reader<'_>) -> CodecResult<Self> {
        let config = SpatioTemporalConfig::decode(r)?;
        let components = Components::decode(r)?;
        let mut tree = || RegressionTree::decode(r);
        Ok(SpatioTemporalModel { config, components, trees: [tree()?, tree()?, tree()?, tree()?] })
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[s.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddos_stats::metrics::rmse;
    use ddos_trace::{CorpusConfig, TraceGenerator};

    #[test]
    fn median_orders_nan_instead_of_panicking() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[f64::NAN, 1.0, 3.0]), 3.0);
    }

    fn fitted() -> (ddos_trace::Corpus, SpatioTemporalModel) {
        let corpus = TraceGenerator::new(CorpusConfig::small(), 121).generate().unwrap();
        let (train, _) = corpus.split(0.8).unwrap();
        let model =
            SpatioTemporalModel::fit(&corpus, train, &SpatioTemporalConfig::fast(), 5).unwrap();
        (corpus, model)
    }

    #[test]
    fn arima_section_does_not_grow_with_the_training_stream() {
        // The artifact stores each temporal component's one-step
        // predictor, not its training series: fitting on the first half
        // or on all of the stream encodes the same number of bytes.
        let corpus = TraceGenerator::new(CorpusConfig::small(), 121).generate().unwrap();
        let (train, _) = corpus.split(0.8).unwrap();
        let stream: Vec<&AttackRecord> = train.iter().collect();
        let config = SpatioTemporalConfig { max_spatial_models: 0, ..SpatioTemporalConfig::fast() };
        let arima_bytes = |stream: &[&AttackRecord]| {
            let c = Components::fit(stream, &config, 5).unwrap();
            let mut w = Writer::new();
            for arima in [&c.hour_arima, &c.day_arima, &c.gap_arima] {
                arima.encode(&mut w);
            }
            w.len()
        };
        let half = arima_bytes(&stream[..stream.len() / 2]);
        assert_eq!(half, arima_bytes(&stream));
        // d, constant and two AR coefficients with a length word, thrice.
        assert_eq!(half, 3 * 5 * 8);
    }

    #[test]
    fn forecast_surface_matches_scalar_tree_walks_bitwise() {
        let (corpus, model) = fitted();
        let (train, _) = corpus.split(0.8).unwrap();
        let (rows, _) =
            SpatioTemporalModel::training_design(train, &SpatioTemporalConfig::fast(), 5).unwrap();
        assert!(rows.len() > 20, "need a non-trivial design");

        // from_row inverts to_row exactly.
        let features: Vec<InstanceFeatures> =
            rows.iter().map(|r| InstanceFeatures::from_row(r).unwrap()).collect();
        for (f, r) in features.iter().zip(&rows) {
            assert_eq!(&f.to_row(), r);
        }
        assert!(InstanceFeatures::from_row(&rows[0][..12]).is_none());

        // The serving kernel at any batch split, a reused scratch, and the
        // typed wrapper all reproduce the scalar per-tree walk bit-for-bit.
        let via_features = model.forecast_features(&features).unwrap();
        let mut scratch = ForecastScratch::default();
        for split in [rows.len(), 7, 1] {
            let mut got = Vec::new();
            for chunk in rows.chunks(split) {
                let mut out = Vec::new();
                model.forecast_rows_into(chunk, &mut scratch, &mut out).unwrap();
                got.extend(out);
            }
            assert_eq!(got.len(), rows.len());
            for (j, (a, b)) in got.iter().zip(&via_features).enumerate() {
                assert_eq!(a.hour.to_bits(), b.hour.to_bits(), "row {j} split {split}");
                assert_eq!(a.day.to_bits(), b.day.to_bits());
                assert_eq!(a.magnitude.to_bits(), b.magnitude.to_bits());
                assert_eq!(a.duration_secs.to_bits(), b.duration_secs.to_bits());
            }
        }
        for (row, fc) in rows.iter().zip(&via_features) {
            let hour = model.hour_tree().predict(row).unwrap().clamp(0.0, 23.999);
            assert_eq!(fc.hour.to_bits(), hour.to_bits());
            assert!((0.0..24.0).contains(&fc.hour));
            assert!((1.0..=31.0).contains(&fc.day));
            assert!(fc.magnitude >= 0.0 && fc.duration_secs >= 0.0);
        }
    }

    #[test]
    fn fit_produces_trees_with_leaves() {
        let (_, model) = fitted();
        assert!(model.hour_tree().n_leaves() >= 1);
        assert!(model.day_tree().n_leaves() >= 1);
    }

    #[test]
    fn predictions_are_in_domain() {
        let (corpus, model) = fitted();
        let (train, test) = corpus.split(0.8).unwrap();
        let preds = model.predict(train, test).unwrap();
        assert!(!preds.is_empty(), "no test instances had enough history");
        for p in &preds {
            assert!((0.0..24.0).contains(&p.st_hour));
            assert!((1.0..=31.0).contains(&p.st_day));
            assert!(p.st_magnitude >= 0.0);
            assert!(p.st_duration >= 0.0);
            assert!((0.0..24.0).contains(&p.truth_hour));
            let pa = p.predicted_attack();
            assert!(pa.timestamp.hour < 24);
            assert!((1..=31).contains(&pa.timestamp.day));
        }
    }

    #[test]
    fn st_model_beats_spatial_on_hours() {
        let (corpus, model) = fitted();
        let (train, test) = corpus.split(0.8).unwrap();
        let preds = model.predict(train, test).unwrap();
        let truth: Vec<f64> = preds.iter().map(|p| p.truth_hour).collect();
        let st: Vec<f64> = preds.iter().map(|p| p.st_hour).collect();
        let spa: Vec<f64> = preds.iter().map(|p| p.spatial_hour).collect();
        let st_rmse = rmse(&st, &truth).unwrap();
        let spa_rmse = rmse(&spa, &truth).unwrap();
        assert!(
            st_rmse <= spa_rmse * 1.1,
            "ST hour RMSE {st_rmse} should not lose to spatial {spa_rmse}"
        );
    }

    #[test]
    fn too_small_stream_rejected() {
        let corpus = TraceGenerator::new(CorpusConfig::small(), 122).generate().unwrap();
        let err = SpatioTemporalModel::fit(
            &corpus,
            &corpus.attacks()[..10],
            &SpatioTemporalConfig::fast(),
            1,
        );
        assert!(matches!(err, Err(ModelError::NotEnoughHistory { .. })));
    }

    #[test]
    fn feature_names_align_with_row() {
        let f = InstanceFeatures {
            tmp_hour: 1.0,
            spa_hour: 2.0,
            interval_secs: 3.0,
            tmp_day: 4.0,
            spa_day: 5.0,
            mean_recent_magnitude: 6.0,
            spa_duration: 7.0,
            last_as_hour: 8.0,
            last_as_gap: 9.0,
            implied_hour: 10.0,
            implied_day: 11.0,
            chain_indicator: 1.0,
            as_hour_median: 13.0,
        };
        let row = f.to_row();
        assert_eq!(row.len(), InstanceFeatures::FEATURE_NAMES.len());
        assert_eq!(row, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 1.0, 13.0]);
    }

    #[test]
    fn artifact_round_trip_serves_bit_identical_predictions() {
        let (corpus, model) = fitted();
        let (train, test) = corpus.split(0.8).unwrap();
        let bytes = model.to_artifact_bytes();
        let back = SpatioTemporalModel::from_artifact_bytes(&bytes).unwrap();
        assert_eq!(back.config(), model.config());
        let a = model.predict(train, test).unwrap();
        let b = back.predict(train, test).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            for (u, v) in [
                (x.st_hour, y.st_hour),
                (x.st_day, y.st_day),
                (x.st_magnitude, y.st_magnitude),
                (x.st_duration, y.st_duration),
                (x.spatial_hour, y.spatial_hour),
                (x.spatial_day, y.spatial_day),
                (x.temporal_hour, y.temporal_hour),
                (x.temporal_day, y.temporal_day),
            ] {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
        // Encode is deterministic: re-encoding the reload reproduces the
        // artifact byte-for-byte.
        assert_eq!(bytes, back.to_artifact_bytes());
    }

    #[test]
    fn artifact_bytes_do_not_depend_on_the_worker_count() {
        let corpus = TraceGenerator::new(CorpusConfig::small(), 121).generate().unwrap();
        let (train, _) = corpus.split(0.8).unwrap();
        let fit = |workers| {
            let fast = SpatioTemporalConfig::fast();
            let spatial = SpatialConfig { parallelism: workers, ..fast.spatial.clone() };
            let config = SpatioTemporalConfig { spatial, ..fast };
            SpatioTemporalModel::fit(&corpus, train, &config, 5).unwrap().to_artifact_bytes()
        };
        let serial = fit(Some(1));
        assert!(fit(Some(3)) == serial, "3 workers wrote other bytes than 1");
        assert!(fit(None) == serial, "all cores wrote other bytes than 1");
        // The worker count is not part of the decoded configuration.
        let back = SpatioTemporalModel::from_artifact_bytes(&serial).unwrap();
        assert_eq!(back.config().spatial.parallelism, None);
    }

    #[test]
    fn pruning_disabled_grows_bigger_or_equal_trees() {
        let corpus = TraceGenerator::new(CorpusConfig::small(), 123).generate().unwrap();
        let (train, _) = corpus.split(0.8).unwrap();
        let pruned = SpatioTemporalModel::fit(
            &corpus,
            train,
            &SpatioTemporalConfig { prune_retention: Some(0.88), ..SpatioTemporalConfig::fast() },
            9,
        )
        .unwrap();
        let unpruned = SpatioTemporalModel::fit(
            &corpus,
            train,
            &SpatioTemporalConfig { prune_retention: None, ..SpatioTemporalConfig::fast() },
            9,
        )
        .unwrap();
        assert!(unpruned.hour_tree().n_leaves() >= pruned.hour_tree().n_leaves());
    }

    #[test]
    fn every_learner_round_trips_under_the_one_spatiotemporal_kind() {
        // The model tree is the only learner: its artifact carries the
        // spatiotemporal tag and no learner or variant tags.
        let (_, model) = fitted();
        let bytes = model.to_artifact_bytes();
        assert_eq!(bytes[12], 3, "stamped with the spatiotemporal tag");
        let back = SpatioTemporalModel::from_artifact_bytes(&bytes).unwrap();
        assert_eq!(back.to_artifact_bytes(), bytes);

        // Every other tag names no model: the retired temporal (1),
        // spatial (2), source-distribution (4), forest (5), boosted (6) and
        // ensemble-backed (7) kinds, and tags never written.
        for tag in [0, 1, 2, 4, 5, 6, 7, 8, u8::MAX] {
            let mut retired = bytes.clone();
            retired[12] = tag;
            assert_eq!(
                SpatioTemporalModel::from_artifact_bytes(&retired).map(|_| ()),
                Err(crate::artifact::ArtifactError::UnknownKind { tag })
            );
        }
    }
}
