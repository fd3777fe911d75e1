//! The spatial model (§V): NAR neural networks over per-network series.
//!
//! "All target-related variables characterize DDoS attacks in the same
//! network region (AS-level)" — so the spatial model groups attacks by the
//! victim's AS and fits a nonlinear autoregressive network (Eq. 6–7) to
//! each per-network series a consumer reads. The §V duration experiment
//! reads one, the log durations ([`DurationModel`]); the spatiotemporal
//! model's per-AS components read three, the log durations, launch hours
//! and inter-attack gaps ([`SpatialModel`]). Both fit the duration NAR
//! through the same code with the same seed. A second spatial product is
//! the per-family **source-ASN distribution** predictor behind Fig. 2.

use crate::features::FeatureExtractor;
use crate::{ModelError, Result};
use ddos_astopo::Asn;
use ddos_neural::grid::{grid_search_with, GridSpec};
use ddos_neural::nar::{NarConfig, NarModel};
use ddos_neural::train::TrainConfig;
use ddos_stats::codec::{CodecResult, Reader, Writer};
use ddos_stats::exec::map_indexed;
use ddos_trace::AttackRecord;
use serde::{Deserialize, Serialize};

/// Spatial-model configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpatialConfig {
    /// Grid-search space for the NAR architecture (ignored when `fixed`
    /// is set).
    pub grid: GridSpec,
    /// Fix the architecture instead of grid searching (ablation knob).
    pub fixed: Option<NarConfig>,
    /// Minimum per-network attacks required to fit.
    pub min_attacks: usize,
    /// How many of the family's source ASes the distribution model tracks.
    pub top_k_ases: usize,
    /// Worker threads for grid search and per-AS fits (`None` = all
    /// available cores, `Some(1)` = serial). Execution knob only: fitted
    /// models are bit-identical at any value. Pipeline runners override
    /// this with [`PipelineConfig::parallelism`].
    ///
    /// [`PipelineConfig::parallelism`]: crate::pipeline::PipelineConfig::parallelism
    pub parallelism: Option<usize>,
}

impl Default for SpatialConfig {
    fn default() -> Self {
        SpatialConfig {
            grid: GridSpec::default(),
            fixed: None,
            min_attacks: 20,
            top_k_ases: 8,
            parallelism: None,
        }
    }
}

impl SpatialConfig {
    /// Encodes the configuration (embedded in spatiotemporal artifacts so
    /// a reloaded model reports its fit-time config). `parallelism` is an
    /// execution knob, not part of the model: it is always written as
    /// `None`, so the same model gives the same bytes at any worker count.
    pub fn encode(&self, w: &mut Writer) {
        self.grid.encode(w);
        w.bool(self.fixed.is_some());
        if let Some(cfg) = &self.fixed {
            cfg.encode(w);
        }
        w.usize(self.min_attacks);
        w.usize(self.top_k_ases);
        w.bool(false);
    }

    /// Decodes a configuration written by [`SpatialConfig::encode`]. A
    /// worker count recorded by an older writer is read and dropped:
    /// the decoded `parallelism` is always `None`.
    ///
    /// # Errors
    ///
    /// [`CodecError`](ddos_stats::codec::CodecError) on truncated or malformed input.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        let grid = GridSpec::decode(r)?;
        let fixed = if r.bool()? { Some(NarConfig::decode(r)?) } else { None };
        let min_attacks = r.usize()?;
        let top_k_ases = r.usize()?;
        if r.bool()? {
            r.usize()?;
        }
        Ok(SpatialConfig { grid, fixed, min_attacks, top_k_ases, parallelism: None })
    }

    /// A fast configuration for tests: small fixed architecture, light
    /// training.
    pub fn fast() -> Self {
        SpatialConfig {
            grid: GridSpec {
                delays: vec![2, 3],
                hidden: vec![4],
                train: TrainConfig { max_epochs: 120, patience: 15, ..Default::default() },
            },
            fixed: Some(NarConfig {
                delays: 3,
                hidden: 5,
                train: TrainConfig { max_epochs: 150, patience: 20, ..Default::default() },
            }),
            min_attacks: 12,
            top_k_ases: 5,
            parallelism: None,
        }
    }
}

/// The log of each attack's duration (seconds, floored at 1): the series
/// the duration NAR is fit and run on. Durations are heavy-tailed
/// (log-normal by nature); in log space min-max scaling does not crush the
/// body of the distribution.
fn log_durations(attacks: &[&AttackRecord]) -> Vec<f64> {
    attacks.iter().map(|a| (a.duration_secs as f64).max(1.0).ln()).collect()
}

/// Each attack's launch hour: the series the hour NAR is fit and run on.
fn launch_hours(attacks: &[&AttackRecord]) -> Vec<f64> {
    attacks.iter().map(|a| a.start.hour() as f64).collect()
}

/// The seconds between consecutive launches: the series the gap NAR is
/// fit and run on, one shorter than `attacks`.
fn launch_gaps(attacks: &[&AttackRecord]) -> Vec<f64> {
    attacks.windows(2).map(|w| w[1].start.abs_diff(w[0].start) as f64).collect()
}

/// Fits one per-network NAR: the fixed architecture when one is set, else
/// the grid search.
fn fit_nar(series: &[f64], config: &SpatialConfig, seed: u64) -> Result<NarModel> {
    match &config.fixed {
        Some(cfg) => Ok(NarModel::fit(series, *cfg, seed)?),
        None => Ok(grid_search_with(series, &config.grid, seed, config.parallelism)?.model),
    }
}

/// A fitted per-network duration model: the NAR over one victim
/// network's log durations, the only series the §V duration experiment
/// reads.
#[derive(Debug, Clone)]
pub struct DurationModel {
    asn: Asn,
    nar: NarModel,
}

impl DurationModel {
    /// Fits the log-duration NAR to one victim network's chronological
    /// training attacks, seeded `seed ^ 0xD1`.
    ///
    /// # Errors
    ///
    /// * [`ModelError::NotEnoughHistory`] for too few attacks.
    /// * Propagates NAR fitting errors.
    pub(crate) fn fit(
        asn: Asn,
        train: &[&AttackRecord],
        config: &SpatialConfig,
        seed: u64,
    ) -> Result<Self> {
        if train.len() < config.min_attacks {
            return Err(ModelError::NotEnoughHistory {
                context: format!("spatial model for {asn}"),
                required: config.min_attacks,
                actual: train.len(),
            });
        }
        Ok(DurationModel { asn, nar: fit_nar(&log_durations(train), config, seed ^ 0xD1)? })
    }

    /// The victim network this model covers.
    pub fn asn(&self) -> Asn {
        self.asn
    }

    /// Rolling one-step duration predictions over the network's test
    /// attacks (given its training attacks as history).
    ///
    /// # Errors
    ///
    /// Propagates NAR errors.
    pub(crate) fn predict_durations(
        &self,
        train: &[&AttackRecord],
        test: &[&AttackRecord],
    ) -> Result<Vec<f64>> {
        let preds = self.nar.predict_rolling(&log_durations(train), &log_durations(test))?;
        Ok(preds.into_iter().map(f64::exp).collect())
    }
}

/// A fitted per-network spatial model: the spatiotemporal model's
/// component for one hot victim network. It holds the NARs that
/// component reads: duration and launch hour (`forecast_next`) and
/// inter-attack gaps (`forecast_gap`).
#[derive(Debug, Clone)]
pub struct SpatialModel {
    duration: DurationModel,
    hour: NarModel,
    gaps: Option<NarModel>,
}

impl SpatialModel {
    /// Fits the duration, hour and (with enough gaps) gap NARs to one
    /// victim network's chronological training attacks. The duration NAR
    /// is the duration experiment's fit: `DurationModel::fit`.
    ///
    /// # Errors
    ///
    /// * [`ModelError::NotEnoughHistory`] for too few attacks.
    /// * Propagates NAR fitting errors.
    pub fn fit(
        asn: Asn,
        train: &[&AttackRecord],
        config: &SpatialConfig,
        seed: u64,
    ) -> Result<Self> {
        let duration = DurationModel::fit(asn, train, config, seed)?;
        let hour = fit_nar(&launch_hours(train), config, seed ^ 0xD2)?;
        let gaps = launch_gaps(train);
        let gaps = if gaps.len() >= config.min_attacks {
            fit_nar(&gaps, config, seed ^ 0xD4).ok()
        } else {
            None
        };
        Ok(SpatialModel { duration, hour, gaps })
    }

    /// The victim network this model covers.
    pub fn asn(&self) -> Asn {
        self.duration.asn
    }

    /// One-step forecast of the next duration / hour from history alone.
    ///
    /// # Errors
    ///
    /// Propagates NAR errors.
    pub fn forecast_next(&self, train: &[&AttackRecord]) -> Result<(f64, f64)> {
        let d = self.duration.nar.predict_next(&log_durations(train))?.exp();
        let h = self.hour.predict_next(&launch_hours(train))?.clamp(0.0, 23.999);
        Ok((d, h))
    }

    /// One-step forecast of the gap to the next attack (seconds), when the
    /// gap model exists.
    pub fn forecast_gap(&self, train: &[&AttackRecord]) -> Option<f64> {
        let model = self.gaps.as_ref()?;
        model.predict_next(&launch_gaps(train)).ok().map(|g| g.max(0.0))
    }

    /// Appends the model's bytes to `w`: its part of the spatiotemporal
    /// artifact payload.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u32(self.duration.asn.0);
        self.duration.nar.encode(w);
        self.hour.encode(w);
        w.bool(self.gaps.is_some());
        if let Some(m) = &self.gaps {
            m.encode(w);
        }
    }

    /// Reads a model written by [`SpatialModel::encode`].
    pub(crate) fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        let asn = Asn(r.u32()?);
        let duration = DurationModel { asn, nar: NarModel::decode(r)? };
        let hour = NarModel::decode(r)?;
        let gaps = if r.bool()? { Some(NarModel::decode(r)?) } else { None };
        Ok(SpatialModel { duration, hour, gaps })
    }
}

/// The per-family source-ASN distribution predictor behind Fig. 2: one NAR
/// per top-K source AS over that AS's per-attack bot-share series;
/// predictions are renormalized into a distribution.
#[derive(Debug, Clone)]
pub struct SourceDistributionModel {
    asns: Vec<Asn>,
    models: Vec<NarModel>,
    train_shares: Vec<Vec<f64>>,
}

impl SourceDistributionModel {
    /// Fits the distribution model on a family's chronological training
    /// attacks, ranking their source ASes with `fx`
    /// ([`FeatureExtractor::as_share_series`]).
    ///
    /// # Errors
    ///
    /// * [`ModelError::NotEnoughHistory`] when there are too few attacks
    ///   or no source ASes.
    /// * Propagates NAR errors.
    pub fn fit(
        fx: &FeatureExtractor<'_>,
        train: &[&AttackRecord],
        config: &SpatialConfig,
        seed: u64,
    ) -> Result<Self> {
        if train.len() < config.min_attacks {
            return Err(ModelError::NotEnoughHistory {
                context: "source-distribution model".to_string(),
                required: config.min_attacks,
                actual: train.len(),
            });
        }
        let (asns, series) = fx.as_share_series(train, config.top_k_ases);
        if asns.is_empty() {
            return Err(ModelError::NotEnoughHistory {
                context: "source-distribution model: no source ASes".to_string(),
                required: 1,
                actual: 0,
            });
        }
        let nar_cfg =
            config.fixed.unwrap_or(NarConfig { delays: 3, hidden: 6, ..Default::default() });
        // One independent NAR per tracked AS (seed salted by its rank):
        // fan them out on the sharded executor, then collect in rank
        // order so the first failure reported matches a serial run.
        let models = map_indexed(&series, config.parallelism, |k, s| {
            NarModel::fit(s, nar_cfg, seed ^ (k as u64))
        })
        .into_iter()
        .collect::<std::result::Result<Vec<_>, _>>()?;
        Ok(SourceDistributionModel { asns, models, train_shares: series })
    }

    /// The tracked source ASes, most common first.
    pub fn asns(&self) -> &[Asn] {
        &self.asns
    }

    /// Rolling predictions of the per-AS share distribution over test
    /// attacks. Returns one normalized `Vec<f64>` (aligned with
    /// [`SourceDistributionModel::asns`]) per test attack.
    ///
    /// # Errors
    ///
    /// Propagates NAR errors.
    pub fn predict_distribution(&self, test: &[&AttackRecord]) -> Result<Vec<Vec<f64>>> {
        let truth = FeatureExtractor::share_series(test, &self.asns);
        // Per-AS rolling predictions.
        let mut per_as: Vec<Vec<f64>> = Vec::with_capacity(self.asns.len());
        for (k, model) in self.models.iter().enumerate() {
            per_as.push(model.predict_rolling(&self.train_shares[k], &truth[k])?);
        }
        // Transpose + clamp + renormalize into distributions.
        let mut out = Vec::with_capacity(test.len());
        for j in 0..test.len() {
            let mut row: Vec<f64> = per_as.iter().map(|s| s[j].max(0.0)).collect();
            let total: f64 = row.iter().sum();
            if total > 0.0 {
                for v in &mut row {
                    *v /= total;
                }
            }
            out.push(row);
        }
        Ok(out)
    }

    /// Ground-truth share distribution (over the tracked ASes, normalized)
    /// for each test attack.
    pub fn truth_distribution(&self, test: &[&AttackRecord]) -> Vec<Vec<f64>> {
        test.iter()
            .map(|a| {
                let hist = a.asn_histogram();
                let mut row: Vec<f64> = self
                    .asns
                    .iter()
                    .map(|asn| {
                        hist.binary_search_by_key(asn, |(h, _)| *h)
                            .map_or(0.0, |i| f64::from(hist[i].1))
                    })
                    .collect();
                let total: f64 = row.iter().sum();
                if total > 0.0 {
                    for v in &mut row {
                        *v /= total;
                    }
                }
                row
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddos_trace::{Corpus, CorpusConfig, TraceGenerator};

    fn corpus() -> Corpus {
        TraceGenerator::new(CorpusConfig::small(), 111).generate().unwrap()
    }

    fn hottest_split(c: &Corpus) -> (Asn, Vec<&AttackRecord>, Vec<&AttackRecord>) {
        let asn = c.hottest_target_asns(1)[0].0;
        let attacks = c.attacks_on_asn(asn);
        let cut = (attacks.len() as f64 * 0.8) as usize;
        (asn, attacks[..cut].to_vec(), attacks[cut..].to_vec())
    }

    /// Every growing history of the network's attacks from the training
    /// window on: the histories `forecast_next` is run on below.
    fn histories<'a>(
        train: &[&'a AttackRecord],
        test: &[&'a AttackRecord],
    ) -> Vec<Vec<&'a AttackRecord>> {
        let all: Vec<&AttackRecord> = train.iter().chain(test).copied().collect();
        (train.len()..=all.len()).map(|k| all[..k].to_vec()).collect()
    }

    /// The target-side series (Table II's `T^d_j` and `T^{ts}_j`) align on
    /// the hottest target: one log duration and one launch hour per
    /// attack, one gap fewer, every gap a chronological step.
    #[test]
    fn target_series_gaps_align() {
        let c = corpus();
        let asn = c.hottest_target_asns(1)[0].0;
        let attacks = c.attacks_on_asn(asn);
        assert!(attacks.len() >= 2);
        let durations = log_durations(&attacks);
        let hours = launch_hours(&attacks);
        let gaps = launch_gaps(&attacks);
        assert_eq!(durations.len(), attacks.len());
        assert_eq!(hours.len(), attacks.len());
        assert_eq!(gaps.len(), attacks.len() - 1);
        assert!(durations.iter().all(|d| d.is_finite() && *d >= 0.0));
        assert!(hours.iter().all(|h| (0.0..24.0).contains(h) && h.fract() == 0.0));
        let span = attacks[attacks.len() - 1].start.abs_diff(attacks[0].start) as f64;
        assert_eq!(gaps.iter().sum::<f64>(), span);
    }

    #[test]
    fn fit_and_predict_per_network() {
        let c = corpus();
        let (asn, train, test) = hottest_split(&c);
        let durations = DurationModel::fit(asn, &train, &SpatialConfig::fast(), 1).unwrap();
        assert_eq!(durations.asn(), asn);
        let predicted = durations.predict_durations(&train, &test).unwrap();
        assert_eq!(predicted.len(), test.len());
        assert!(predicted.iter().all(|d| d.is_finite() && *d > 0.0));
        let model = SpatialModel::fit(asn, &train, &SpatialConfig::fast(), 1).unwrap();
        assert_eq!(model.asn(), asn);
        // The hour NAR, one step ahead of every history.
        for history in histories(&train, &test) {
            let (_, h) = model.forecast_next(&history).unwrap();
            assert!((0.0..24.0).contains(&h), "hour {h}");
        }
    }

    #[test]
    fn duration_nar_is_shared_by_both_consumers() {
        // The duration experiment's NAR and the spatiotemporal component's
        // duration NAR are one fit: same series, same seed, same
        // fixed-or-grid path, so the same bytes.
        let c = corpus();
        let (asn, train, _) = hottest_split(&c);
        let bytes = |nar: &NarModel| {
            let mut w = Writer::new();
            nar.encode(&mut w);
            w.into_bytes()
        };
        for config in
            [SpatialConfig::fast(), SpatialConfig { fixed: None, ..SpatialConfig::fast() }]
        {
            let alone = DurationModel::fit(asn, &train, &config, 7).unwrap();
            let component = SpatialModel::fit(asn, &train, &config, 7).unwrap();
            assert_eq!(bytes(&alone.nar), bytes(&component.duration.nar));
        }
    }

    #[test]
    fn forecasts_are_sane() {
        let c = corpus();
        let (asn, train, _) = hottest_split(&c);
        let model = SpatialModel::fit(asn, &train, &SpatialConfig::fast(), 2).unwrap();
        let (d, h) = model.forecast_next(&train).unwrap();
        assert!(d.is_finite());
        assert!((0.0..24.0).contains(&h));
        if let Some(g) = model.forecast_gap(&train) {
            assert!(g >= 0.0);
        }
    }

    #[test]
    fn too_few_attacks_rejected() {
        let c = corpus();
        let (asn, train, _) = hottest_split(&c);
        let err = SpatialModel::fit(asn, &train[..3], &SpatialConfig::fast(), 3);
        assert!(matches!(err, Err(ModelError::NotEnoughHistory { .. })));
    }

    #[test]
    fn source_distribution_predictions_are_distributions() {
        let c = corpus();
        let fam = c.catalog().most_active(1)[0];
        let attacks = c.family_attacks(fam);
        let cut = (attacks.len() as f64 * 0.8) as usize;
        let (train, test) = (attacks[..cut].to_vec(), attacks[cut..cut + 30].to_vec());
        let model = SourceDistributionModel::fit(
            &FeatureExtractor::new(&c),
            &train,
            &SpatialConfig::fast(),
            4,
        )
        .unwrap();
        assert!(!model.asns().is_empty());
        let preds = model.predict_distribution(&test).unwrap();
        assert_eq!(preds.len(), test.len());
        for row in &preds {
            let total: f64 = row.iter().sum();
            assert!((total - 1.0).abs() < 1e-9 || total == 0.0, "row sums to {total}");
            assert!(row.iter().all(|v| *v >= 0.0));
        }
        let truth = model.truth_distribution(&test);
        assert_eq!(truth.len(), preds.len());
    }

    #[test]
    fn spatial_artifact_round_trip_is_bit_identical() {
        let c = corpus();
        let (asn, train, test) = hottest_split(&c);
        let model = SpatialModel::fit(asn, &train, &SpatialConfig::fast(), 6).unwrap();
        let mut w = Writer::new();
        model.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = SpatialModel::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.asn(), model.asn());
        for history in histories(&train, &test) {
            let (d, h) = model.forecast_next(&history).unwrap();
            let (bd, bh) = back.forecast_next(&history).unwrap();
            assert_eq!((d.to_bits(), h.to_bits()), (bd.to_bits(), bh.to_bits()));
            assert_eq!(
                model.forecast_gap(&history).map(f64::to_bits),
                back.forecast_gap(&history).map(f64::to_bits)
            );
        }
        let mut w = Writer::new();
        back.encode(&mut w);
        assert_eq!(bytes, w.into_bytes());
    }

    #[test]
    fn source_distribution_tracks_truth_reasonably() {
        let c = corpus();
        let fam = c.catalog().most_active(1)[0];
        let attacks = c.family_attacks(fam);
        let cut = (attacks.len() as f64 * 0.8) as usize;
        let (train, test) = (attacks[..cut].to_vec(), attacks[cut..].to_vec());
        let model = SourceDistributionModel::fit(
            &FeatureExtractor::new(&c),
            &train,
            &SpatialConfig::fast(),
            5,
        )
        .unwrap();
        let preds = model.predict_distribution(&test).unwrap();
        let truth = model.truth_distribution(&test);
        // Mean absolute share error over all (attack, AS) cells should be
        // small: shares drift slowly by construction.
        let mut err = 0.0;
        let mut n = 0.0;
        for (p, t) in preds.iter().zip(&truth) {
            for (a, b) in p.iter().zip(t) {
                err += (a - b).abs();
                n += 1.0;
            }
        }
        let mae = err / n;
        assert!(mae < 0.2, "share MAE {mae}");
    }
}
