//! Drift evaluation: how forecast quality degrades — and recovers — when
//! the adversary changes behavior mid-window.
//!
//! The paper's models are fit once on a chronological prefix and served
//! on the suffix, which silently assumes the adversary is *stationary*.
//! The scenario layer ([`ddos_trace::scenario`]) breaks that assumption
//! on purpose: a [`ScenarioPolicy`] switches a family's regime-local
//! parameters at deterministic boundaries. This module measures the
//! consequence with a three-point protocol around the first usable
//! boundary `b` of the modeled family's regime schedule:
//!
//! 1. **before** — fit on the pre-shift window minus a holdout, forecast
//!    the holdout: the in-regime error floor.
//! 2. **after** — fit on the full pre-shift window, forecast *across*
//!    the boundary and score the far side: what a deployed, never-refit
//!    model actually experiences.
//! 3. **refit** — refit on a trailing window that ends after the
//!    adaptation span, forecast the same far-side days: what a rolling
//!    refit schedule recovers.
//!
//! All three measurements serve **closed-loop** forecasts — the fitted
//! model recursively feeds its own predictions forward and never sees
//! post-fit truth. That is the deployed-model view (a capacity planner
//! forecasting next month cannot condition on next month), and it is
//! what makes regime shifts visible: under the pipeline's rolling
//! one-step protocol a forecaster absorbs a level shift within a lag or
//! two and drift would hide inside the noise floor.

use crate::{ModelError, Result};
use ddos_cart::ensemble::{BaggedForest, BoostConfig, BoostedTrees, ForestConfig};
use ddos_cart::leaf::LeafKind;
use ddos_cart::tree::{RegressionTree, TreeConfig};
use ddos_neural::nar::{NarConfig, NarModel};
use ddos_neural::train::TrainConfig;
use ddos_stats::arima::{Arima, ArimaOrder};
use ddos_stats::codec::Writer;
use ddos_stats::metrics::rmse;
use ddos_trace::scenario::{RegimeSchedule, ScenarioPolicy};
use ddos_trace::{Corpus, CorpusConfig, FamilyCatalog, FamilyId, FamilyProfile, TraceGenerator};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The daily observable tracked across the regime boundary. Each policy
/// perturbs a different marginal, so each gets the signal that exposes
/// its drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DriftSignal {
    /// Trailing 7-day *median* of launches per calendar day (intensity
    /// drift: rotation bursts shift the launch *level*, but the daily
    /// counts are log-normal-over-Poisson with Table-I coefficients of
    /// variation near 1 — window means are spike-dominated, so the
    /// median is the statistic that actually tracks the regime level.
    /// Trailing, never centered, so the signal stays causal).
    SmoothedDailyCount,
    /// Circular distance, in hours `∈ [0, 12]`, between the day's
    /// *circular mean* launch hour and the family's *base* diurnal peak
    /// (phase drift: a regime's peak shift moves this level by roughly
    /// the shift). The day is reduced to one mean direction *before*
    /// the distance, so per-target hour preferences average out instead
    /// of dominating the variance; circular mean and distance, so hours
    /// never wrap into spurious ±24 jumps at midnight.
    PeakHourDistance,
    /// Fraction of daily launches hitting the family's favorite target
    /// of the opening (pre-shift) regime (preference drift: target
    /// migration rotates the Zipf head away from it).
    TopTargetShare,
    /// Fraction of launches using the HTTP-flood vector (mechanism
    /// drift: multi-vector blends).
    HttpShare,
}

impl DriftSignal {
    /// Stable display name (also the codec tag in report bytes).
    pub fn name(self) -> &'static str {
        match self {
            DriftSignal::SmoothedDailyCount => "smoothed-daily-count",
            DriftSignal::PeakHourDistance => "peak-hour-distance",
            DriftSignal::TopTargetShare => "top-target-share",
            DriftSignal::HttpShare => "http-share",
        }
    }

    /// The signal that best exposes a policy's drift axis.
    pub fn for_policy(policy: ScenarioPolicy) -> Self {
        match policy {
            ScenarioPolicy::Stationary | ScenarioPolicy::RotationBurst => {
                DriftSignal::SmoothedDailyCount
            }
            ScenarioPolicy::DiurnalDrift => DriftSignal::PeakHourDistance,
            ScenarioPolicy::TargetMigration => DriftSignal::TopTargetShare,
            ScenarioPolicy::MultiVectorBlend => DriftSignal::HttpShare,
        }
    }
}

impl fmt::Display for DriftSignal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of one drift experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftConfig {
    /// The adversary policy under test (stamped onto `corpus`).
    pub policy: ScenarioPolicy,
    /// The daily observable to forecast.
    pub signal: DriftSignal,
    /// Corpus shape; its `scenario` field is overridden by `policy`.
    pub corpus: CorpusConfig,
    /// Corpus generation seed (model seeds derive from it).
    pub seed: u64,
    /// Pre-boundary days held out for the in-regime baseline.
    pub holdout: usize,
    /// Days after the boundary the refit waits for (its training data).
    pub adaptation: usize,
    /// Days scored after the adaptation span — the far side.
    pub evaluation: usize,
    /// Trailing-window length of the rolling refit.
    pub refit_window: usize,
}

impl DriftConfig {
    /// The smoke-test shape: the two-family small catalog stretched so
    /// the modeled family stays active across a 720-day window, with a
    /// 25/42/30-day holdout/adaptation/evaluation protocol. The window
    /// is long on purpose: regime lengths scale with it, so the *first*
    /// boundary (the only one the protocol may straddle — an earlier
    /// switch inside the "pre-shift" window would poison the baseline)
    /// reliably leaves enough single-regime history in front of it.
    /// The remaining geometry is pinned by two constraints: the refit
    /// window equals the adaptation span, so the refit trains on purely
    /// post-boundary days (mixing regimes across the boundary taught the
    /// refit the *old* level), and `adaptation + evaluation = 72`, the
    /// minimum regime length a 720-day schedule can generate, so the
    /// scored far side never straddles the *second* boundary.
    #[allow(
        clippy::expect_used,
        reason = "the families are the built-in small catalog's, which validates, with only `active_days` raised to 662"
    )]
    pub fn small(policy: ScenarioPolicy, seed: u64) -> Self {
        let days = 720;
        let families: Vec<FamilyProfile> = FamilyCatalog::small()
            .iter()
            .map(|(_, f)| {
                let mut f = f.clone();
                // Full-window activity: span = ceil(active/0.92) ≥ days
                // pins the activity window to [0, days).
                f.active_days = (days as f64 * 0.92).floor() as u32;
                f
            })
            .collect();
        let catalog = FamilyCatalog::new(families).expect("stretched small catalog is valid");
        let corpus = CorpusConfig { days, catalog, ..CorpusConfig::small() };
        DriftConfig {
            policy,
            signal: DriftSignal::for_policy(policy),
            corpus,
            seed,
            holdout: 25,
            adaptation: 42,
            evaluation: 30,
            refit_window: 42,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.holdout < 5 || self.adaptation < 5 || self.evaluation < 5 {
            return Err(ModelError::InvalidConfig {
                detail: "drift windows need at least 5 days each".to_string(),
            });
        }
        if self.refit_window < 20 {
            return Err(ModelError::InvalidConfig {
                detail: "refit window needs at least 20 days".to_string(),
            });
        }
        Ok(())
    }
}

/// One model's three-point drift measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftRow {
    /// Forecaster name.
    pub model: String,
    /// RMSE on the pre-shift holdout (in-regime floor).
    pub rmse_before: f64,
    /// RMSE on the far side of the boundary, model frozen at the shift.
    pub rmse_after: f64,
    /// RMSE on the same far side after the trailing-window refit.
    pub rmse_refit: f64,
}

impl DriftRow {
    /// `rmse_after − rmse_before`: what the shift cost a frozen model.
    pub fn degradation(&self) -> f64 {
        self.rmse_after - self.rmse_before
    }

    /// `rmse_after − rmse_refit`: what the refit won back.
    pub fn recovery(&self) -> f64 {
        self.rmse_after - self.rmse_refit
    }
}

/// The result of one drift experiment: per-model before/after/refit RMSE
/// around one regime boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftReport {
    /// The policy under test.
    pub policy: ScenarioPolicy,
    /// The forecast signal.
    pub signal: DriftSignal,
    /// Name of the modeled family.
    pub family: String,
    /// The regime boundary day the protocol straddles.
    pub boundary_day: u32,
    /// Days of pre-boundary history (fit data for the frozen model).
    pub pre_days: usize,
    /// Per-model measurements, fixed model order.
    pub rows: Vec<DriftRow>,
}

impl DriftReport {
    /// Mean degradation across models — the smoke lane asserts this is
    /// positive for every non-stationary policy.
    pub fn mean_degradation(&self) -> f64 {
        self.rows.iter().map(DriftRow::degradation).sum::<f64>() / self.rows.len() as f64
    }

    /// Mean recovery across models — the smoke lane asserts the rolling
    /// refit wins back part of the degradation.
    pub fn mean_recovery(&self) -> f64 {
        self.rows.iter().map(DriftRow::recovery).sum::<f64>() / self.rows.len() as f64
    }

    /// Deterministic byte serialization (the goldencheck fingerprint
    /// surface): every field in declaration order via the stats codec.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(1); // report version
        let name = self.policy.name().as_bytes();
        w.usize(name.len());
        w.bytes(name);
        let sig = self.signal.name().as_bytes();
        w.usize(sig.len());
        w.bytes(sig);
        let fam = self.family.as_bytes();
        w.usize(fam.len());
        w.bytes(fam);
        w.u32(self.boundary_day);
        w.usize(self.pre_days);
        w.usize(self.rows.len());
        for r in &self.rows {
            let m = r.model.as_bytes();
            w.usize(m.len());
            w.bytes(m);
            w.f64(r.rmse_before);
            w.f64(r.rmse_after);
            w.f64(r.rmse_refit);
        }
        w.into_bytes()
    }
}

impl fmt::Display for DriftReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "policy {} | signal {} | family {} | boundary day {} ({} pre-shift days)",
            self.policy, self.signal, self.family, self.boundary_day, self.pre_days
        )?;
        writeln!(
            f,
            "  {:<10} {:>12} {:>12} {:>12} {:>13} {:>10}",
            "model", "rmse_before", "rmse_after", "rmse_refit", "degradation", "recovery"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<10} {:>12.4} {:>12.4} {:>12.4} {:>13.4} {:>10.4}",
                r.model,
                r.rmse_before,
                r.rmse_after,
                r.rmse_refit,
                r.degradation(),
                r.recovery()
            )?;
        }
        Ok(())
    }
}

/// Runs the full drift experiment: generates the scenario corpus,
/// extracts the signal series for the most active family, locates a
/// usable regime boundary, and measures every forecaster before/after/
/// refit around it.
///
/// # Errors
///
/// * [`ModelError::InvalidConfig`] when the windows are degenerate or no
///   regime boundary leaves room for the protocol.
/// * [`ModelError::NoAttacksForFamily`] when the modeled family is empty.
/// * Propagates generation and model-fitting errors.
pub fn run(config: &DriftConfig) -> Result<DriftReport> {
    config.validate()?;
    let mut corpus_config = config.corpus.clone();
    corpus_config.scenario = config.policy;
    let corpus = TraceGenerator::new(corpus_config.clone(), config.seed).generate()?;

    let family = corpus_config
        .catalog
        .most_active(1)
        .first()
        .copied()
        .ok_or_else(|| ModelError::InvalidConfig { detail: "empty catalog".to_string() })?;
    let profile = corpus_config.catalog.profile(family)?;
    let series = signal_series(&corpus, family, profile, config.signal)?;

    let boundary = pick_boundary(config, profile, family.0)?;
    let b = boundary as usize;
    let fit_end = b - config.holdout;
    let post_end = b + config.adaptation + config.evaluation;

    let mut rows = Vec::new();
    let model_seed = config.seed ^ 0x5EED_D21F;
    for model in Forecaster::ALL {
        // Before: fit on the pre-shift prefix, forecast the holdout.
        let before =
            model.fit_serve(&series[..fit_end], config.holdout, &series[fit_end..b], model_seed)?;
        // After: fit on the full pre-shift window, forecast across the
        // boundary, score only the far side of the adaptation span.
        let after = model.fit_serve(
            &series[..b],
            config.adaptation + config.evaluation,
            &series[b + config.adaptation..post_end],
            model_seed,
        )?;
        // Refit: trailing window ending after the adaptation span, then
        // forecast the same far-side days.
        let refit_start = (b + config.adaptation).saturating_sub(config.refit_window);
        let refit = model.fit_serve(
            &series[refit_start..b + config.adaptation],
            config.evaluation,
            &series[b + config.adaptation..post_end],
            model_seed,
        )?;
        rows.push(DriftRow {
            model: model.name().to_string(),
            rmse_before: before,
            rmse_after: after,
            rmse_refit: refit,
        });
    }

    Ok(DriftReport {
        policy: config.policy,
        signal: config.signal,
        family: profile.name.clone(),
        boundary_day: boundary,
        pre_days: b,
        rows,
    })
}

/// The forecaster ladder the drift protocol measures: the paper's three
/// model classes plus the ensemble extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Forecaster {
    Arima,
    Nar,
    Cart,
    Forest,
    Boosted,
}

/// Lag order of the tree-family design (one week of daily history).
const TREE_LAGS: usize = 7;

impl Forecaster {
    const ALL: [Forecaster; 5] = [
        Forecaster::Arima,
        Forecaster::Nar,
        Forecaster::Cart,
        Forecaster::Forest,
        Forecaster::Boosted,
    ];

    fn name(self) -> &'static str {
        match self {
            Forecaster::Arima => "ARIMA",
            Forecaster::Nar => "NAR",
            Forecaster::Cart => "CART",
            Forecaster::Forest => "Forest",
            Forecaster::Boosted => "Boosted",
        }
    }

    /// Fits on `fit`, serves `horizon` *closed-loop* forecast steps —
    /// each prediction feeds the next step's inputs; post-fit truth is
    /// never revealed, which is what a deployed frozen model actually
    /// serves — and scores the last `score.len()` steps against `score`.
    ///
    /// Closed-loop (rather than the pipeline's rolling one-step) serving
    /// is deliberate: with truth revealed, a one-step forecaster absorbs
    /// a regime's level shift within a lag or two and the degradation
    /// the shift causes in deployment becomes invisible.
    fn fit_serve(self, fit: &[f64], horizon: usize, score: &[f64], seed: u64) -> Result<f64> {
        // Serving-side guard applied to every model: closed-loop
        // forecasts are clamped to the fit range. A model only learned
        // that range, and recursion on its own out-of-range output can
        // diverge — boosted ensembles geometrically, ARIMA whenever a
        // fitted AR root lands near the unit circle.
        let (lo, hi) = fit
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let preds = match self {
            Forecaster::Arima => Arima::fit(fit, ArimaOrder::new(2, 0, 1))?.forecast(horizon)?,
            Forecaster::Nar => {
                let cfg = NarConfig {
                    delays: 3,
                    hidden: 6,
                    train: TrainConfig { max_epochs: 120, ..TrainConfig::default() },
                };
                NarModel::fit(fit, cfg, seed)?.forecast(fit, horizon)?
            }
            Forecaster::Cart => {
                let (xs, ys) = lag_fit_design(fit)?;
                let tree = RegressionTree::fit(&xs, &ys, &drift_tree_config())?;
                self_fed(fit, horizon, (lo, hi), |row| Ok(tree.predict(row)?))?
            }
            Forecaster::Forest => {
                let (xs, ys) = lag_fit_design(fit)?;
                let cfg = ForestConfig {
                    n_trees: 12,
                    tree: drift_tree_config(),
                    seed,
                    parallelism: None,
                };
                let forest = BaggedForest::fit(&xs, &ys, &cfg)?;
                self_fed(fit, horizon, (lo, hi), |row| Ok(forest.predict(row)?))?
            }
            Forecaster::Boosted => {
                let (xs, ys) = lag_fit_design(fit)?;
                let cfg = BoostConfig {
                    tree: TreeConfig { max_depth: 2, ..drift_tree_config() },
                    ..BoostConfig::default()
                };
                let boosted = BoostedTrees::fit(&xs, &ys, &cfg)?;
                self_fed(fit, horizon, (lo, hi), |row| Ok(boosted.predict(row)?))?
            }
        };
        let tail: Vec<f64> =
            preds[horizon - score.len()..].iter().map(|&p| p.clamp(lo, hi)).collect();
        Ok(rmse(&tail, score)?)
    }
}

/// The tree family's lag design over `fit`, refusing a span too short
/// to yield one row.
fn lag_fit_design(fit: &[f64]) -> Result<(Vec<Vec<f64>>, Vec<f64>)> {
    let (xs, ys) = lag_design(fit);
    if xs.is_empty() {
        return Err(ModelError::NotEnoughHistory {
            context: "drift lag design".to_string(),
            required: TREE_LAGS + 1,
            actual: fit.len(),
        });
    }
    Ok((xs, ys))
}

/// The tree family's tree configuration. A short refit window leaves ~35
/// design rows; the pipeline's default trees (depth 8, linear leaves,
/// 3-sample leaves) memorize that and serve wild closed-loop forecasts.
/// The drift ladder therefore uses shallow constant-leaf trees — the same
/// config for the before/after/refit fits, so the comparison stays fair.
fn drift_tree_config() -> TreeConfig {
    TreeConfig {
        max_depth: 3,
        min_samples_leaf: 7,
        leaf_kind: LeafKind::Constant,
        ..TreeConfig::default()
    }
}

/// Serves `horizon` closed-loop steps of a tree-family model from the last
/// [`TREE_LAGS`] values of `fit`. Predictions become the next step's
/// lagged features, so the `(lo, hi)` clamp applies inside the loop, not
/// just to the scored output.
fn self_fed(
    fit: &[f64],
    horizon: usize,
    (lo, hi): (f64, f64),
    predict_one: impl Fn(&[f64]) -> Result<f64>,
) -> Result<Vec<f64>> {
    let mut window: Vec<f64> = fit[fit.len() - TREE_LAGS..].to_vec();
    let mut preds = Vec::with_capacity(horizon);
    for _ in 0..horizon {
        let row: Vec<f64> = (1..=TREE_LAGS).map(|j| window[window.len() - j]).collect();
        let p = predict_one(&row)?.clamp(lo, hi);
        preds.push(p);
        window.push(p);
    }
    Ok(preds)
}

/// Autoregressive design over one contiguous span: row `t` holds the
/// previous [`TREE_LAGS`] values (most recent first), target is `s[t]`.
fn lag_design(s: &[f64]) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for t in TREE_LAGS..s.len() {
        xs.push((1..=TREE_LAGS).map(|j| s[t - j]).collect());
        ys.push(s[t]);
    }
    (xs, ys)
}

/// Trailing window of [`DriftSignal::SmoothedDailyCount`], in days.
const SMOOTHING_DAYS: usize = 7;

/// Days at the head of the window used to identify the opening regime's
/// favorite target ([`DriftSignal::TopTargetShare`]). Safely inside the
/// first regime: boundaries never occur before `mean_len / 2` days.
const REFERENCE_DAYS: u32 = 21;

/// Extracts the per-day signal series for `family` over the whole trace
/// window, forward-filling days where the signal is undefined (no
/// launches) so every calendar day has a value and regime boundaries map
/// to series indices directly.
fn signal_series(
    corpus: &Corpus,
    family: FamilyId,
    profile: &FamilyProfile,
    signal: DriftSignal,
) -> Result<Vec<f64>> {
    let attacks = corpus.family_attacks(family);
    if attacks.is_empty() {
        return Err(ModelError::NoAttacksForFamily(family));
    }
    // The opening regime's favorite: modal target over the reference head.
    let top_target = match signal {
        DriftSignal::TopTargetShare => {
            let mut per_target: std::collections::BTreeMap<ddos_trace::TargetId, usize> =
                std::collections::BTreeMap::new();
            for a in &attacks {
                if a.start.day() < REFERENCE_DAYS {
                    *per_target.entry(a.target).or_insert(0) += 1;
                }
            }
            per_target.into_iter().max_by_key(|&(t, n)| (n, std::cmp::Reverse(t)))
        }
        _ => None,
    };
    let days = corpus.days() as usize;
    let mut count = vec![0.0f64; days];
    let mut accum = vec![0.0f64; days];
    // Second accumulator, used only by the circular-mean signal (the
    // sine component; `accum` then holds the cosine component).
    let mut accum2 = vec![0.0f64; days];
    for a in &attacks {
        let d = a.start.day() as usize;
        if d >= days {
            continue;
        }
        count[d] += 1.0;
        accum[d] += match signal {
            DriftSignal::SmoothedDailyCount => 0.0,
            DriftSignal::PeakHourDistance => {
                let angle = a.start.hour() as f64 * std::f64::consts::TAU / 24.0;
                accum2[d] += angle.sin();
                angle.cos()
            }
            DriftSignal::TopTargetShare => {
                if top_target.map(|(t, _)| t) == Some(a.target) {
                    1.0
                } else {
                    0.0
                }
            }
            DriftSignal::HttpShare => {
                if a.vector == ddos_trace::AttackVector::HttpFlood {
                    1.0
                } else {
                    0.0
                }
            }
        };
    }
    if signal == DriftSignal::SmoothedDailyCount {
        // Trailing median (never looks ahead): value at day `d` is the
        // median count over `[d − SMOOTHING_DAYS + 1, d]`, truncated at
        // the window start; even-length prefixes average the middle pair.
        let smoothed = (0..days)
            .map(|d| {
                let lo = d.saturating_sub(SMOOTHING_DAYS - 1);
                let mut w: Vec<f64> = count[lo..=d].to_vec();
                w.sort_by(f64::total_cmp);
                let n = w.len();
                if n % 2 == 1 {
                    w[n / 2]
                } else {
                    (w[n / 2 - 1] + w[n / 2]) / 2.0
                }
            })
            .collect();
        return Ok(smoothed);
    }
    // Per-launch signals: defined on active days, forward-filled
    // elsewhere (seeded with the first defined value so the prefix is
    // constant, not zero — zeros would fake a level shift at the window
    // start). PeakHourDistance first reduces the day to its *circular
    // mean* hour and measures that single direction against the base
    // peak: averaging before the distance washes out the day's target
    // mix (each target pulls launches toward its own preferred offset),
    // which would otherwise dominate the day-to-day variance.
    let day_value = |d: usize| match signal {
        DriftSignal::PeakHourDistance => {
            let mean_hour = accum2[d].atan2(accum[d]) * 24.0 / std::f64::consts::TAU;
            let delta = (mean_hour - profile.diurnal_peak as f64).rem_euclid(24.0);
            delta.min(24.0 - delta)
        }
        _ => accum[d] / count[d],
    };
    let first = (0..days)
        .find(|&d| count[d] > 0.0)
        .map(day_value)
        .ok_or(ModelError::NoAttacksForFamily(family))?;
    let mut out = Vec::with_capacity(days);
    let mut last = first;
    for (d, &c) in count.iter().enumerate().take(days) {
        if c > 0.0 {
            last = day_value(d);
        }
        out.push(last);
    }
    Ok(out)
}

/// Locates the first regime boundary of the modeled family that leaves
/// room for the full protocol: enough pre-shift history for fit+holdout
/// and enough post-shift days for adaptation+evaluation. Stationary
/// schedules have no boundary, so the protocol falls back to the same
/// split geometry at the window's midpoint — the control measurement.
fn pick_boundary(config: &DriftConfig, profile: &FamilyProfile, slot: usize) -> Result<u32> {
    let days = config.corpus.days;
    // The before-measurement fits on `b − holdout` days; demand at least
    // 45 so its RMSE reflects the in-regime noise floor rather than an
    // undertrained model (a 4-week fit leaves ARIMA/NAR coefficients
    // noisy enough to dominate the comparison).
    let min_pre = (config.holdout + 45) as u32;
    let post = (config.adaptation + config.evaluation) as u32;
    if config.policy.is_stationary() {
        let mid = days / 2;
        if mid < min_pre || mid + post > days {
            return Err(ModelError::InvalidConfig {
                detail: format!("{days}-day window too short for the stationary control"),
            });
        }
        return Ok(mid);
    }
    // Only the *first* boundary is usable: measuring "before" across an
    // earlier switch would fold drift into the baseline it is compared
    // against.
    let schedule = RegimeSchedule::generate(config.policy, profile, days, config.seed, slot);
    match schedule.boundaries().first() {
        Some(&b) if b >= min_pre && b + post <= days => Ok(b),
        _ => Err(ModelError::InvalidConfig {
            detail: format!(
                "first regime boundary of {} does not leave {min_pre} pre + {post} post days \
                 in a {days}-day window",
                config.policy
            ),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signals_map_to_their_policy_axis() {
        assert_eq!(
            DriftSignal::for_policy(ScenarioPolicy::RotationBurst),
            DriftSignal::SmoothedDailyCount
        );
        assert_eq!(
            DriftSignal::for_policy(ScenarioPolicy::DiurnalDrift),
            DriftSignal::PeakHourDistance
        );
        assert_eq!(
            DriftSignal::for_policy(ScenarioPolicy::TargetMigration),
            DriftSignal::TopTargetShare
        );
        assert_eq!(
            DriftSignal::for_policy(ScenarioPolicy::MultiVectorBlend),
            DriftSignal::HttpShare
        );
    }

    #[test]
    fn config_validation_rejects_degenerate_windows() {
        let mut cfg = DriftConfig::small(ScenarioPolicy::RotationBurst, 1);
        cfg.holdout = 2;
        assert!(run(&cfg).is_err());
        let mut cfg = DriftConfig::small(ScenarioPolicy::RotationBurst, 1);
        cfg.refit_window = 5;
        assert!(run(&cfg).is_err());
    }

    #[test]
    fn report_bytes_are_deterministic_and_nonempty() {
        let report = DriftReport {
            policy: ScenarioPolicy::RotationBurst,
            signal: DriftSignal::SmoothedDailyCount,
            family: "DirtJumper".to_string(),
            boundary_day: 100,
            pre_days: 100,
            rows: vec![DriftRow {
                model: "ARIMA".to_string(),
                rmse_before: 1.0,
                rmse_after: 3.0,
                rmse_refit: 2.0,
            }],
        };
        let a = report.to_bytes();
        assert_eq!(a, report.to_bytes());
        assert!(!a.is_empty());
        assert!((report.mean_degradation() - 2.0).abs() < 1e-12);
        assert!((report.mean_recovery() - 1.0).abs() < 1e-12);
        let shown = report.to_string();
        assert!(shown.contains("rotation-burst"));
        assert!(shown.contains("ARIMA"));
    }

    #[test]
    fn lag_design_shapes() {
        let s: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let (xs, ys) = lag_design(&s);
        assert_eq!(xs.len(), 12 - TREE_LAGS);
        assert_eq!(xs[0], vec![6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0]);
        assert_eq!(ys[0], 7.0);
    }

    /// The CI smoke lane: every non-stationary policy must (a) degrade
    /// the frozen model across its boundary and (b) reward the rolling
    /// refit, on average over the forecaster ladder. The whole protocol
    /// is deterministic at a fixed seed, so these are exact reruns of
    /// the E9 table, not flaky statistical bounds. Per-model recovery is
    /// NOT asserted: on the heavy-tailed count level a boosted ensemble
    /// refit on a 42-day window can lose to the frozen model — a finding
    /// the table reports rather than a failure.
    #[test]
    fn every_policy_degrades_and_refit_recovers_on_average() {
        for policy in ScenarioPolicy::ALL {
            if policy.is_stationary() {
                continue;
            }
            let report = run(&DriftConfig::small(policy, 42)).expect("drift protocol runs");
            assert!(
                report.mean_degradation() > 0.0,
                "{policy}: mean degradation {:+.4} not positive",
                report.mean_degradation()
            );
            assert!(
                report.mean_recovery() > 0.0,
                "{policy}: mean refit recovery {:+.4} not positive",
                report.mean_recovery()
            );
        }
    }

    /// Stationary control: the midpoint "boundary" is a non-event, so
    /// the frozen model's far-side error stays near its in-regime floor
    /// — drift degradation is a property of the policy, not the
    /// protocol.
    #[test]
    fn stationary_control_shows_no_material_degradation() {
        let report =
            run(&DriftConfig::small(ScenarioPolicy::Stationary, 42)).expect("control runs");
        let before: f64 =
            report.rows.iter().map(|r| r.rmse_before).sum::<f64>() / report.rows.len() as f64;
        assert!(
            report.mean_degradation() < before,
            "control degradation {:+.4} exceeds the in-regime floor {before:.4}",
            report.mean_degradation()
        );
    }
}
