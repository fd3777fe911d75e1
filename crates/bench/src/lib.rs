//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each function renders one artifact of the evaluation section as text —
//! the same rows/series the paper reports — and returns the formatted
//! report plus the headline numbers, so the `experiments` binary can print
//! them and the criterion benches can time them.
//!
//! | id | paper artifact | function |
//! |---|---|---|
//! | E1 | Table I — activity level of bots | [`table1`] |
//! | E2 | Fig. 1 — temporal magnitude prediction | [`fig1`] |
//! | E3 | Fig. 2 — source-ASN distribution prediction | [`fig2`] |
//! | E4/E5 | Figs. 3–4 — spatiotemporal timestamps + errors | [`fig3_fig4`] |
//! | E6 | §VII-A — baseline comparison | [`comparison`] |
//! | E7 | Fig. 5 — use cases | [`usecases`] |
//! | E8 | §VII-A extended — forecaster zoo | [`zoo`] |
//! | E9 | scenario drift — degradation & refit recovery | [`drift`] |

use ddos_core::evaluate::RmseTable;
use ddos_core::features::FeatureExtractor;
use ddos_core::pipeline::{Pipeline, PipelineConfig, SpatioTemporalReport};
use ddos_core::spatial::{SourceDistributionModel, SpatialConfig};
use ddos_core::usecases::{AsFilteringSimulator, MiddleboxSimulator};
use ddos_stats::metrics::histogram;
use ddos_trace::stats::{mean_concurrent_attacks, ActivityTable};
use ddos_trace::{Corpus, CorpusConfig, TraceGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// Which corpus scale an experiment runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~1–2 k attacks, 2 families (seconds).
    Small,
    /// ~20 k attacks, all 10 families (tens of seconds).
    Medium,
    /// Paper-scale ~50 k attacks (minutes).
    Standard,
}

impl Scale {
    /// The corpus configuration for this scale.
    pub fn corpus_config(self) -> CorpusConfig {
        match self {
            Scale::Small => CorpusConfig::small(),
            Scale::Medium => CorpusConfig::medium(),
            Scale::Standard => CorpusConfig::standard(),
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "standard" => Some(Scale::Standard),
            _ => None,
        }
    }
}

/// Generates (or regenerates) the corpus for a scale and seed.
pub fn corpus(scale: Scale, seed: u64) -> Corpus {
    TraceGenerator::new(scale.corpus_config(), seed)
        .generate()
        .expect("built-in corpus configurations are valid")
}

/// The pipeline configuration used by the experiments (fast spatial
/// settings keep the NAR grid tractable at every scale).
pub fn pipeline(seed: u64) -> Pipeline {
    Pipeline::new(PipelineConfig::fast(), seed)
}

/// E1 — regenerates Table I and the §II-C concurrency statistic.
pub fn table1(corpus: &Corpus) -> String {
    let table = ActivityTable::compute(corpus).expect("corpus is nonempty");
    let mut out = String::new();
    let _ = writeln!(out, "TABLE I — ACTIVITY LEVEL OF BOTS (regenerated)\n");
    let _ = write!(out, "{table}");
    let _ = writeln!(
        out,
        "\ncorpus: {} verified attacks over {} days; mean concurrent attacks/hour: {:.1}",
        corpus.len(),
        corpus.days(),
        mean_concurrent_attacks(corpus)
    );
    let _ = writeln!(
        out,
        "paper reference: 50,704 attacks, Aug 2012 - Mar 2013, DirtJumper most active\n\
         (144.30/day), AldiBot least (1.29/day); activity ranking here: {}",
        table.activity_ranking().join(" > ")
    );
    out
}

/// E2 — Fig. 1: rolling one-step magnitude predictions per figure family.
pub fn fig1(corpus: &Corpus, seed: u64) -> String {
    let report = pipeline(seed).run_temporal(corpus).expect("temporal experiment runs");
    let mut out = String::new();
    let _ = writeln!(out, "FIG. 1 — PREDICTION OF ATTACKING MAGNITUDES (temporal/ARIMA)\n");
    for fam in &report.per_family {
        let _ = writeln!(
            out,
            "{:<12} {:>5} test attacks | magnitude RMSE {:>8.2} (MAE {:>7.2}) | A^s RMSE {:>8.4}",
            fam.name,
            fam.magnitudes.len(),
            fam.magnitudes.rmse,
            fam.magnitudes.mae,
            fam.source_coefficient.rmse,
        );
        // Series excerpt: the figure's truth-vs-error bars, first 12 points.
        let _ = writeln!(out, "    truth:  {}", fmt_row(&fam.magnitudes.truth, 12));
        let _ = writeln!(out, "    pred:   {}", fmt_row(&fam.magnitudes.predicted, 12));
        let _ = writeln!(out, "    error:  {}", fmt_row(&fam.magnitudes.errors, 12));
    }
    let _ = writeln!(
        out,
        "\npaper shape: predictions track ground truth closely for DirtJumper/Pandora;\n\
         errors stay small relative to magnitudes"
    );
    out
}

/// E3 — Fig. 2: source-ASN share distributions, truth vs prediction.
pub fn fig2(corpus: &Corpus, seed: u64) -> String {
    let report = pipeline(seed).run_spatial_distribution(corpus).expect("spatial experiment runs");
    let mut out = String::new();
    let _ = writeln!(out, "FIG. 2 — PREDICTION OF ATTACKING SOURCE DISTRIBUTIONS (spatial/NAR)\n");
    for fam in &report.per_family {
        let _ = writeln!(
            out,
            "{:<12} share RMSE {:.4} over top {} source ASes",
            fam.name,
            fam.share_rmse,
            fam.asns.len()
        );
        let _ = writeln!(
            out,
            "    AS:        {}",
            fam.asns.iter().map(|a| format!("{a:>9}")).collect::<Vec<_>>().join(" ")
        );
        let _ = writeln!(out, "    truth:     {}", fmt_row(&fam.truth_mean_shares, 99));
        let _ = writeln!(out, "    predicted: {}", fmt_row(&fam.predicted_mean_shares, 99));
    }
    let _ = writeln!(
        out,
        "\npaper shape: predicted AS distributions nearly coincide with ground truth\n\
         (\"almost 100% accurate\" for DirtJumper/Pandora)"
    );
    out
}

/// E4/E5 — Figs. 3–4: spatiotemporal timestamp predictions, value and
/// error distributions, and the §VI RMSE summary.
pub fn fig3_fig4(corpus: &Corpus, seed: u64) -> (String, SpatioTemporalReport) {
    let report = pipeline(seed).run_spatiotemporal(corpus).expect("spatiotemporal runs");
    let mut out = String::new();
    let _ = writeln!(out, "FIG. 3 — SPATIOTEMPORAL PREDICTIONS FOR DDOS ATTACK TIMESTAMPS\n");
    let _ = writeln!(out, "{} per-target prediction instances\n", report.predictions.len());

    let hours_truth: Vec<f64> = report.predictions.iter().map(|p| p.truth_hour).collect();
    let hours_st: Vec<f64> = report.predictions.iter().map(|p| p.st_hour).collect();
    let hours_spa: Vec<f64> = report.predictions.iter().map(|p| p.spatial_hour).collect();
    let hours_tmp: Vec<f64> = report.predictions.iter().map(|p| p.temporal_hour).collect();
    let days_truth: Vec<f64> = report.predictions.iter().map(|p| p.truth_day).collect();
    let days_st: Vec<f64> = report.predictions.iter().map(|p| p.st_day).collect();
    let days_spa: Vec<f64> = report.predictions.iter().map(|p| p.spatial_day).collect();

    let _ = writeln!(out, "attack-day distribution (8 bins):");
    let _ = writeln!(out, "    truth:          {}", fmt_hist(&days_truth, 8));
    let _ = writeln!(out, "    spatiotemporal: {}", fmt_hist(&days_st, 8));
    let _ = writeln!(out, "    spatial:        {}", fmt_hist(&days_spa, 8));
    let _ = writeln!(out, "attack-hour distribution (8 bins):");
    let _ = writeln!(out, "    truth:          {}", fmt_hist(&hours_truth, 8));
    let _ = writeln!(out, "    spatiotemporal: {}", fmt_hist(&hours_st, 8));
    let _ = writeln!(out, "    spatial:        {}", fmt_hist(&hours_spa, 8));
    let _ = writeln!(out, "    temporal:       {}", fmt_hist(&hours_tmp, 8));

    let _ = writeln!(
        out,
        "\nFIG. 4 — SPATIOTEMPORAL PREDICTION ERROR DISTRIBUTIONS (counts per bin)\n"
    );
    let err = |p: &[f64], t: &[f64]| -> Vec<f64> { p.iter().zip(t).map(|(a, b)| a - b).collect() };
    let _ = writeln!(out, "hour errors:");
    let _ = writeln!(out, "    spatiotemporal: {}", fmt_hist(&err(&hours_st, &hours_truth), 8));
    let _ = writeln!(out, "    spatial:        {}", fmt_hist(&err(&hours_spa, &hours_truth), 8));
    let _ = writeln!(out, "    temporal:       {}", fmt_hist(&err(&hours_tmp, &hours_truth), 8));
    let _ = writeln!(out, "day errors:");
    let _ = writeln!(out, "    spatiotemporal: {}", fmt_hist(&err(&days_st, &days_truth), 8));
    let _ = writeln!(out, "    spatial:        {}", fmt_hist(&err(&days_spa, &days_truth), 8));

    let _ = writeln!(out, "\n§VI RMSE SUMMARY (paper: hour 5.0 spatial / 3.82 temporal / 1.85 ST;");
    let _ = writeln!(out, "                  day 5.17 spatial / 2.72 ST)\n");
    let _ = writeln!(
        out,
        "  hour RMSE: spatial {:.2} | temporal {:.2} | spatiotemporal {:.2}",
        report.spatial_hour_rmse, report.temporal_hour_rmse, report.st_hour_rmse
    );
    let _ = writeln!(
        out,
        "  day  RMSE: spatial {:.2} | temporal {:.2} | spatiotemporal {:.2}",
        report.spatial_day_rmse, report.temporal_day_rmse, report.st_day_rmse
    );
    let hour_factor = report.spatial_hour_rmse / report.st_hour_rmse.max(1e-9);
    let day_factor = report.spatial_day_rmse / report.st_day_rmse.max(1e-9);
    let _ = writeln!(
        out,
        "  spatiotemporal improvement over spatial: {hour_factor:.2}x (hours), {day_factor:.2}x (days)"
    );
    (out, report)
}

/// E6 — the §VII-A comparison table.
pub fn comparison(corpus: &Corpus, seed: u64) -> (String, RmseTable) {
    let table = pipeline(seed).run_baseline_comparison(corpus).expect("comparison runs");
    let mut out = String::new();
    let _ = writeln!(out, "§VII-A — TEMPORAL/SPATIAL vs ALWAYS-SAME vs ALWAYS-MEAN (RMSE)\n");
    let _ = write!(out, "{table}");
    let cells: std::collections::BTreeSet<(String, String)> =
        table.rows().iter().map(|r| (r.scope.clone(), r.feature.clone())).collect();
    let wins = cells
        .iter()
        .filter(|(s, f)| table.winner(s, f).map(|w| w.model == "Temporal/Spatial").unwrap_or(false))
        .count();
    let _ = writeln!(
        out,
        "\nlearned model wins {wins}/{} (scope x feature) cells\n\
         paper shape: \"the Temporal/Spatial model always generates better prediction\n\
         results for all three features\"",
        cells.len()
    );
    (out, table)
}

/// The E8 table's rows, in print order; the last three are the tree
/// learners.
const ZOO_MODELS: [&str; 8] =
    ["Always-Same", "Always-Mean", "Linear", "Poly(2)", "Huber", "CART", "Forest", "Boosted"];

/// E8 — the extended §VII-A comparison: the full forecaster zoo scored
/// on the spatiotemporal design (Table II features → hour, day,
/// magnitude, duration), chronological 80/20 split of the instance
/// stream. Next to the paper's Always-Same / Always-Mean baselines this
/// adds the cheap learned predictors of the related forecasting
/// literature (linear, degree-2 polynomial, Huber-robust linear) and the
/// tree family (single CART model tree, bagged forest, boosted model
/// trees), so the ensembles are placed against the whole ladder.
pub fn zoo(corpus: &Corpus, seed: u64) -> String {
    use ddos_cart::ensemble::{BaggedForest, BoostConfig, BoostedTrees, ForestConfig};
    use ddos_cart::tree::RegressionTree;
    use ddos_core::spatiotemporal::{SpatioTemporalConfig, SpatioTemporalModel};
    use ddos_stats::metrics::rmse;
    use ddos_stats::ols::LinearModel;
    use ddos_stats::regress::{HuberConfig, HuberModel, PolyConfig, PolynomialModel};

    let mut out = String::new();
    let _ = writeln!(out, "§VII-A EXTENDED — FORECASTER ZOO ON THE SPATIOTEMPORAL DESIGN (RMSE)\n");

    let (train, _) = corpus.split(0.8).expect("corpus splits");
    let st_cfg = SpatioTemporalConfig::fast();
    let (xs, labels) =
        SpatioTemporalModel::training_design(train, &st_cfg, seed).expect("design builds");
    let cut = (xs.len() as f64 * 0.8) as usize;
    let (xs_tr, xs_te) = (&xs[..cut], &xs[cut..]);
    let _ = writeln!(
        out,
        "design: {} instances x {} features, {} train / {} holdout (chronological)\n",
        xs.len(),
        xs.first().map(Vec::len).unwrap_or(0),
        xs_tr.len(),
        xs_te.len()
    );

    let targets = ["hour", "day", "magnitude", "duration"];
    let models = ZOO_MODELS;
    // scores[model][target]
    let mut scores = vec![[f64::NAN; 4]; models.len()];
    for (t, _) in targets.iter().enumerate() {
        let ys_tr: Vec<f64> = labels[..cut].iter().map(|l| l[t]).collect();
        let ys_te: Vec<f64> = labels[cut..].iter().map(|l| l[t]).collect();
        let score = |preds: &[f64]| rmse(preds, &ys_te).expect("aligned predictions");

        // The paper's two baselines, lifted to the instance stream: the
        // last training observation carried forward, and the training
        // mean.
        let last = *ys_tr.last().expect("nonempty training split");
        scores[0][t] = score(&vec![last; ys_te.len()]);
        let mean = ys_tr.iter().sum::<f64>() / ys_tr.len() as f64;
        scores[1][t] = score(&vec![mean; ys_te.len()]);

        if let Ok(m) = LinearModel::fit(xs_tr, &ys_tr) {
            scores[2][t] = score(&m.predict_many(xs_te).expect("width matches"));
        }
        if let Ok(m) = PolynomialModel::fit(xs_tr, &ys_tr, &PolyConfig { degree: 2 }) {
            let preds: Vec<f64> =
                xs_te.iter().map(|r| m.predict(r).expect("width matches")).collect();
            scores[3][t] = score(&preds);
        }
        if let Ok(m) = HuberModel::fit(xs_tr, &ys_tr, &HuberConfig::default()) {
            let preds: Vec<f64> =
                xs_te.iter().map(|r| m.predict(r).expect("width matches")).collect();
            scores[4][t] = score(&preds);
        }
        let tree = RegressionTree::fit(xs_tr, &ys_tr, &st_cfg.tree).expect("tree fits");
        scores[5][t] = score(&tree.predict_many(xs_te).expect("width matches"));
        let forest = BaggedForest::fit(
            xs_tr,
            &ys_tr,
            &ForestConfig { n_trees: 16, tree: st_cfg.tree, seed, parallelism: None },
        )
        .expect("forest fits");
        scores[6][t] = score(&forest.predict_many(xs_te).expect("width matches"));
        let boosted =
            BoostedTrees::fit(xs_tr, &ys_tr, &BoostConfig::default()).expect("boosted fits");
        scores[7][t] = score(&boosted.predict_many(xs_te).expect("width matches"));
    }

    let _ = write!(out, "  {:<12}", "model");
    for name in targets {
        let _ = write!(out, "{name:>11}");
    }
    let _ = writeln!(out);
    for (m, name) in models.iter().enumerate() {
        let _ = write!(out, "  {name:<12}");
        for &cell in &scores[m] {
            if cell.is_nan() {
                let _ = write!(out, "{:>11}", "n/a");
            } else {
                let _ = write!(out, "{:>11.3}", cell);
            }
        }
        let _ = writeln!(out);
    }
    for (t, name) in targets.iter().enumerate() {
        let best = (0..models.len())
            .filter(|&m| scores[m][t].is_finite())
            .min_by(|&a, &b| scores[a][t].total_cmp(&scores[b][t]))
            .expect("some model scored");
        let _ = writeln!(out, "  best {name}: {}", models[best]);
    }
    out
}

/// E9 — forecast drift under regime-switching adversaries: per-model
/// RMSE before the shift, across it with a frozen model, and after a
/// trailing-window refit, for every non-stationary scenario policy. The
/// experiment generates its own scenario corpora (the drift protocol
/// needs the regime schedule, not the shared stationary corpus).
pub fn drift(seed: u64) -> String {
    use ddos_core::drift::{run, DriftConfig};
    use ddos_trace::ScenarioPolicy;

    let mut out = String::new();
    let _ = writeln!(out, "E9 — FORECAST DRIFT UNDER REGIME-SWITCHING ADVERSARIES\n");
    let _ = writeln!(
        out,
        "protocol: fit on the pre-shift window, then serve closed-loop forecasts (each\n\
         prediction feeds the next step; post-fit truth is never revealed) across the\n\
         first regime boundary; 'refit' re-fits on the post-boundary adaptation window\n\
         and serves the same far-side days.\n"
    );
    for policy in ScenarioPolicy::ALL {
        if policy.is_stationary() {
            continue;
        }
        match run(&DriftConfig::small(policy, seed)) {
            Ok(report) => {
                let _ = writeln!(out, "{report}");
                let _ = writeln!(
                    out,
                    "  mean degradation {:+.4} | mean refit recovery {:+.4}\n",
                    report.mean_degradation(),
                    report.mean_recovery()
                );
            }
            Err(e) => {
                let _ = writeln!(out, "policy {policy}: drift experiment failed: {e}\n");
            }
        }
    }
    out
}

/// E7 — the Fig. 5 use cases, quantified.
pub fn usecases(corpus: &Corpus, seed: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "FIG. 5 — USE CASES\n");

    // (a) AS-based filtering.
    let family = corpus.catalog().most_active(1)[0];
    let attacks = corpus.family_attacks(family);
    let cut = (attacks.len() as f64 * 0.8) as usize;
    let (train, test) = (attacks[..cut].to_vec(), attacks[cut..].to_vec());
    let model = SourceDistributionModel::fit(
        &FeatureExtractor::new(corpus),
        &train,
        &SpatialConfig::fast(),
        seed,
    )
    .expect("distribution model fits");
    let preds = model.predict_distribution(&test).expect("distribution predicts");
    let sim = AsFilteringSimulator::new();
    let universe: Vec<_> = corpus.topology().asns().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut cov_pred, mut cov_rand) = (0.0, 0.0);
    for (attack, dist) in test.iter().zip(&preds) {
        let ranked: Vec<_> = model.asns().iter().copied().zip(dist.iter().copied()).collect();
        cov_pred += sim.apply_predicted(&ranked, 3, attack).coverage;
        cov_rand += sim.apply_random(&universe, 3, attack, &mut rng).coverage;
    }
    let n = test.len() as f64;
    let _ = writeln!(
        out,
        "(a) AS-based filtering, 3 rules/attack over {} test attacks:\n\
         \x20   predicted-AS rules catch {:.1}% of attack traffic; random rules {:.1}%",
        test.len(),
        100.0 * cov_pred / n,
        100.0 * cov_rand / n
    );

    // (b) Middlebox traversal.
    let st = pipeline(seed).run_spatiotemporal(corpus).expect("spatiotemporal runs");
    let sim = MiddleboxSimulator::default();
    let (mut pro, mut rea) = (0.0, 0.0);
    for p in &st.predictions {
        let (a, b) = sim
            .compare(p.st_hour * 3_600.0, p.truth_hour * 3_600.0, p.truth_duration)
            .expect("compare never fails");
        pro += a.unprotected_secs;
        rea += b.unprotected_secs;
    }
    let m = st.predictions.len() as f64;
    let _ = writeln!(
        out,
        "(b) middlebox traversal over {} episodes:\n\
         \x20   mean unscrubbed exposure: proactive {:.0} s vs reactive {:.0} s",
        st.predictions.len(),
        pro / m,
        rea / m
    );
    out
}

/// §III-A2 evidence artifact: the inter-launch-time CDF the multistage
/// band was read off, plus the reconstructed chain statistics.
pub fn multistage_cdf(corpus: &Corpus) -> String {
    use ddos_trace::chains::{band_coverage, inter_launch_cdf, reconstruct_chains};
    let mut out = String::new();
    let _ = writeln!(out, "SEC III-A2 — INTER-LAUNCH TIME CDF AND MULTISTAGE CHAINS\n");
    let cdf = inter_launch_cdf(corpus, 12).expect("corpus has >= 2 attacks");
    let _ = writeln!(out, "inter-launch CDF (gap seconds -> cumulative fraction):");
    for (gap, frac) in &cdf {
        let _ = writeln!(out, "    {:>12.0}s  {:>6.3}", gap, frac);
    }
    let stats = reconstruct_chains(corpus).expect("corpus nonempty");
    let _ = writeln!(
        out,
        "\nchains: {} reconstructed | {:.1}% of attacks chained | mean length {:.2} | max {}",
        stats.chains.len(),
        stats.chained_fraction * 100.0,
        stats.mean_length,
        stats.max_length
    );
    let _ = writeln!(
        out,
        "30 s - 24 h band covers {:.1}% of consecutive same-target gaps\n\
         paper shape: \"this range covers most consecutive DDoS attacks without\n\
         introducing much noise\"",
        band_coverage(corpus) * 100.0
    );
    out
}

/// Writes the flat CSV files behind each figure into `dir` (created if
/// missing): the corpus attack table, the Fig. 1 magnitude series per
/// family, and the Fig. 3 prediction table. Returns the file names
/// written.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn dump_csv(corpus: &Corpus, seed: u64, dir: &std::path::Path) -> std::io::Result<Vec<String>> {
    use ddos_trace::export::{attacks_to_csv, series_to_csv};
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    {
        let mut write = |name: &str, content: String| -> std::io::Result<()> {
            let path = dir.join(name);
            std::fs::write(&path, content)?;
            written.push(name.to_string());
            Ok(())
        };

        write("attacks.csv", attacks_to_csv(corpus))?;

        if let Ok(report) = pipeline(seed).run_temporal(corpus) {
            for fam in &report.per_family {
                let csv = series_to_csv(&fam.magnitudes.truth, &fam.magnitudes.predicted)
                    .expect("aligned series");
                write(&format!("fig1_{}_magnitudes.csv", fam.name.to_lowercase()), csv)?;
            }
        }

        if let Ok(report) = pipeline(seed).run_spatiotemporal(corpus) {
            let mut csv = String::from(
                "truth_hour,st_hour,spatial_hour,temporal_hour,truth_day,st_day,spatial_day\n",
            );
            for p in &report.predictions {
                let _ = writeln!(
                    csv,
                    "{},{},{},{},{},{},{}",
                    p.truth_hour,
                    p.st_hour,
                    p.spatial_hour,
                    p.temporal_hour,
                    p.truth_day,
                    p.st_day,
                    p.spatial_day
                );
            }
            write("fig3_predictions.csv", csv)?;
        }
    }
    Ok(written)
}

fn fmt_row(v: &[f64], n: usize) -> String {
    v.iter().take(n).map(|x| format!("{x:>9.3}")).collect::<Vec<_>>().join(" ")
}

fn fmt_hist(values: &[f64], bins: usize) -> String {
    match histogram(values, bins) {
        Ok((_, counts)) => counts.iter().map(|c| format!("{c:>6}")).collect::<Vec<_>>().join(" "),
        Err(_) => "(empty)".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("standard"), Some(Scale::Standard));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn small_scale_experiments_render() {
        let c = corpus(Scale::Small, 3);
        let t1 = table1(&c);
        assert!(t1.contains("TABLE I"));
        assert!(t1.contains("DirtJumper"));
        let f1 = fig1(&c, 3);
        assert!(f1.contains("FIG. 1"));
        assert!(f1.contains("RMSE"));
    }

    #[test]
    fn zoo_table_scores_every_tree_learner() {
        let text = zoo(&corpus(Scale::Small, 11), 11);
        let rows: Vec<&str> = text
            .lines()
            .filter(|l| ZOO_MODELS.iter().any(|m| l.trim_start().starts_with(&format!("{m} "))))
            .collect();
        assert_eq!(rows.len(), 8, "{text}");
        for tree_row in &rows[5..] {
            assert!(!tree_row.contains("n/a"), "unscored tree learner: {tree_row}");
        }
        let best: Vec<&str> =
            text.lines().filter(|l| l.trim_start().starts_with("best ")).collect();
        assert_eq!(best.len(), 4, "{text}");
        for (line, target) in best.iter().zip(["hour", "day", "magnitude", "duration"]) {
            let winner = line.trim_start().strip_prefix(&format!("best {target}: ")).unwrap();
            assert!(ZOO_MODELS.contains(&winner), "{line}");
        }
    }

    #[test]
    fn fig3_reports_improvement() {
        let c = corpus(Scale::Small, 5);
        let (text, report) = fig3_fig4(&c, 5);
        assert!(text.contains("RMSE SUMMARY"));
        assert!(report.st_day_rmse <= report.spatial_day_rmse);
    }

    #[test]
    fn cdf_artifact_renders() {
        let c = corpus(Scale::Small, 7);
        let text = multistage_cdf(&c);
        assert!(text.contains("INTER-LAUNCH TIME CDF"));
        assert!(text.contains("chains:"));
        assert!(text.contains("band covers"));
    }

    #[test]
    fn csv_dump_writes_expected_files() {
        let c = corpus(Scale::Small, 9);
        let dir = std::env::temp_dir().join(format!("ddos_bench_csv_{}", std::process::id()));
        let files = dump_csv(&c, 9, &dir).unwrap();
        assert!(files.contains(&"attacks.csv".to_string()));
        assert!(files.iter().any(|f| f.starts_with("fig1_")));
        assert!(files.contains(&"fig3_predictions.csv".to_string()));
        for f in &files {
            let content = std::fs::read_to_string(dir.join(f)).unwrap();
            assert!(content.lines().count() > 1, "{f} is empty");
        }
        // The attack CSV round-trips through the parser.
        let attacks_csv = std::fs::read_to_string(dir.join("attacks.csv")).unwrap();
        let rows = ddos_trace::export::parse_attacks_csv(&attacks_csv).unwrap();
        assert_eq!(rows.len(), c.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}
