//! Criterion benches: one per paper table/figure, plus the ablation
//! benches DESIGN.md calls out. Accuracy headlines are printed once per
//! group setup (criterion measures runtime; the `experiments` binary is
//! the accuracy harness).

use criterion::{criterion_group, criterion_main, Criterion};
use ddos_bench::{corpus, pipeline, Scale};
use ddos_core::features::FeatureExtractor;
use ddos_core::pipeline::{Pipeline, PipelineConfig};
use ddos_core::spatiotemporal::{SpatioTemporalConfig, SpatioTemporalModel};
use ddos_core::temporal::TemporalConfig;
use ddos_neural::grid::{grid_search, grid_search_with, GridSpec};
use ddos_neural::nar::{NarConfig, NarModel};
use ddos_neural::train::TrainConfig;
use ddos_stats::arima::{Arima, ArimaOrder};
use ddos_stats::select::{search, SearchConfig};
use ddos_trace::stats::ActivityTable;
use ddos_trace::Corpus;
use std::hint::black_box;
use std::sync::OnceLock;

fn small_corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| corpus(Scale::Small, 42))
}

fn magnitude_series() -> Vec<f64> {
    let c = small_corpus();
    let fam = c.catalog().most_active(1)[0];
    FeatureExtractor::magnitude_series(&c.family_attacks(fam))
}

fn duration_series() -> Vec<f64> {
    let c = small_corpus();
    let fam = c.catalog().most_active(1)[0];
    c.family_attacks(fam).iter().map(|a| a.duration_secs as f64).collect()
}

/// Every series `TemporalModel::fit` runs an order search on, for every
/// family of `corpus` with enough attacks: magnitudes and `A^s`.
fn temporal_series(corpus: &Corpus) -> Vec<Vec<f64>> {
    let fx = FeatureExtractor::new(corpus);
    let min_attacks = TemporalConfig::default().min_attacks;
    let mut out = Vec::new();
    for (family, _) in corpus.catalog().iter() {
        let attacks = corpus.family_attacks(family);
        if attacks.len() < min_attacks {
            continue;
        }
        out.push(FeatureExtractor::magnitude_series(&attacks));
        out.push(fx.source_distribution_series(&attacks).unwrap());
    }
    out
}

/// The full bench names of `ids` in `group`, for `Criterion::selects`.
fn in_group(group: &str, ids: &[&str]) -> Vec<String> {
    ids.iter().map(|id| format!("{group}/{id}")).collect()
}

/// E1 — Table I regeneration.
fn bench_table1(c: &mut Criterion) {
    if !c.selects(["table1_activity_levels"]) {
        return;
    }
    let corpus = small_corpus();
    c.bench_function("table1_activity_levels", |b| {
        b.iter(|| ActivityTable::compute(black_box(corpus)).unwrap())
    });
}

/// E2 — Fig. 1 temporal experiment (fit + rolling predict, all families).
fn bench_fig1_temporal(c: &mut Criterion) {
    if !c.selects(in_group("fig1_temporal", &["run_temporal"])) {
        return;
    }
    let corpus = small_corpus();
    let mut g = c.benchmark_group("fig1_temporal");
    g.sample_size(10);
    g.bench_function("run_temporal", |b| {
        b.iter(|| pipeline(42).run_temporal(black_box(corpus)).unwrap())
    });
    g.finish();
}

/// E3 — Fig. 2 spatial source-distribution experiment.
fn bench_fig2_spatial(c: &mut Criterion) {
    if !c.selects(in_group("fig2_spatial", &["run_spatial_distribution"])) {
        return;
    }
    let corpus = small_corpus();
    let mut g = c.benchmark_group("fig2_spatial");
    g.sample_size(10);
    g.bench_function("run_spatial_distribution", |b| {
        b.iter(|| pipeline(42).run_spatial_distribution(black_box(corpus)).unwrap())
    });
    g.finish();
}

/// E4 — Fig. 3 spatiotemporal experiment (fit + predict).
fn bench_fig3_spatiotemporal(c: &mut Criterion) {
    if !c.selects(in_group("fig3_spatiotemporal", &["run_spatiotemporal"])) {
        return;
    }
    let corpus = small_corpus();
    let mut g = c.benchmark_group("fig3_spatiotemporal");
    g.sample_size(10);
    g.bench_function("run_spatiotemporal", |b| {
        b.iter(|| pipeline(42).run_spatiotemporal(black_box(corpus)).unwrap())
    });
    g.finish();
}

/// E5 — Fig. 4 error-distribution construction from a fitted report.
fn bench_fig4_errors(c: &mut Criterion) {
    if !c.selects(["fig4_error_distributions"]) {
        return;
    }
    let corpus = small_corpus();
    let report = pipeline(42).run_spatiotemporal(corpus).unwrap();
    eprintln!(
        "[fig4 headline] hour RMSE: spatial {:.2} / temporal {:.2} / ST {:.2}",
        report.spatial_hour_rmse, report.temporal_hour_rmse, report.st_hour_rmse
    );
    c.bench_function("fig4_error_distributions", |b| {
        b.iter(|| {
            let errs: Vec<f64> =
                report.predictions.iter().map(|p| p.st_hour - p.truth_hour).collect();
            ddos_stats::metrics::histogram(black_box(&errs), 16).unwrap()
        })
    });
}

/// E6 — §VII-A baseline comparison.
fn bench_comparison_baselines(c: &mut Criterion) {
    if !c.selects(in_group("comparison_baselines", &["run_baseline_comparison"])) {
        return;
    }
    let corpus = small_corpus();
    let mut g = c.benchmark_group("comparison_baselines");
    g.sample_size(10);
    g.bench_function("run_baseline_comparison", |b| {
        b.iter(|| pipeline(42).run_baseline_comparison(black_box(corpus)).unwrap())
    });
    g.finish();
}

/// E7 — Fig. 5 use-case simulators.
fn bench_usecases(c: &mut Criterion) {
    if !c.selects(["usecase_as_filtering_replay", "usecase_middlebox_compare"]) {
        return;
    }
    let corpus = small_corpus();
    c.bench_function("usecase_as_filtering_replay", |b| {
        let sim = ddos_core::usecases::AsFilteringSimulator::new();
        let attack = &corpus.attacks()[0];
        let rules = attack.source_asns();
        b.iter(|| sim.replay(black_box(&rules), black_box(attack)))
    });
    c.bench_function("usecase_middlebox_compare", |b| {
        let sim = ddos_core::usecases::MiddleboxSimulator::default();
        b.iter(|| sim.compare(black_box(36_000.0), 39_600.0, 1_800.0).unwrap())
    });
}

/// Ablation: fixed ARIMA order vs AIC-searched.
fn bench_ablation_arima_order(c: &mut Criterion) {
    if !c.selects(in_group("ablation_arima_order", &["fixed_2_0_1", "aic_search"])) {
        return;
    }
    let series = magnitude_series();
    let fixed_rmse = {
        let cut = series.len() * 8 / 10;
        let m = Arima::fit(&series[..cut], ArimaOrder::new(2, 0, 1)).unwrap();
        let p = m.predict_rolling(&series[cut..]).unwrap();
        ddos_stats::metrics::rmse(&p, &series[cut..]).unwrap()
    };
    let searched_rmse = {
        let cut = series.len() * 8 / 10;
        let m = search(&series[..cut], SearchConfig::default()).unwrap().model;
        let p = m.predict_rolling(&series[cut..]).unwrap();
        ddos_stats::metrics::rmse(&p, &series[cut..]).unwrap()
    };
    eprintln!("[ablation arima] fixed(2,0,1) RMSE {fixed_rmse:.2} vs searched {searched_rmse:.2}");
    let mut g = c.benchmark_group("ablation_arima_order");
    g.bench_function("fixed_2_0_1", |b| {
        b.iter(|| Arima::fit(black_box(&series), ArimaOrder::new(2, 0, 1)).unwrap())
    });
    g.bench_function("aic_search", |b| {
        b.iter(|| search(black_box(&series), SearchConfig::default()).unwrap())
    });
    g.finish();
}

/// Ablation: fixed NAR architecture vs grid search.
fn bench_ablation_nar_grid(c: &mut Criterion) {
    if !c.selects(in_group("ablation_nar_grid", &["fixed_architecture", "grid_search"])) {
        return;
    }
    let series = duration_series();
    let quick_train = TrainConfig { max_epochs: 100, patience: 15, ..Default::default() };
    let mut g = c.benchmark_group("ablation_nar_grid");
    g.sample_size(10);
    g.bench_function("fixed_architecture", |b| {
        b.iter(|| {
            NarModel::fit(
                black_box(&series),
                NarConfig { delays: 3, hidden: 5, train: quick_train },
                7,
            )
            .unwrap()
        })
    });
    g.bench_function("grid_search", |b| {
        b.iter(|| {
            grid_search(
                black_box(&series),
                &GridSpec { delays: vec![2, 3, 4], hidden: vec![4, 8], train: quick_train },
                7,
            )
            .unwrap()
        })
    });
    g.finish();
}

/// Tentpole: serial vs parallel model fitting through the deterministic
/// sharded executor. Outputs are bit-identical at any worker count (see
/// `tests/determinism.rs`), so these rows measure pure wall-clock
/// scaling: on a single-core host serial and parallel are expected to
/// tie; on an N-core host the parallel rows should approach N× on the
/// grid search, whose cells dominate the fitting cost.
fn bench_parallel_executor(c: &mut Criterion) {
    if !c.selects(in_group(
        "parallel_executor",
        &[
            "grid_search_serial_1thread",
            "grid_search_parallel_4threads",
            "pipeline_temporal_serial_1thread",
            "pipeline_temporal_parallel_4threads",
            "pipeline_durations_serial_1thread",
            "pipeline_durations_parallel_4threads",
        ],
    )) {
        return;
    }
    let series = duration_series();
    let quick_train = TrainConfig { max_epochs: 150, patience: 15, ..Default::default() };
    let spec = GridSpec { delays: vec![2, 3, 4], hidden: vec![4, 8], train: quick_train };
    let corpus = small_corpus();
    let mut g = c.benchmark_group("parallel_executor");
    g.sample_size(10);
    for (name, workers) in [("grid_search_serial_1thread", 1), ("grid_search_parallel_4threads", 4)]
    {
        g.bench_function(name, |b| {
            b.iter(|| grid_search_with(black_box(&series), &spec, 7, Some(workers)).unwrap())
        });
    }
    for (name, workers) in
        [("pipeline_temporal_serial_1thread", 1), ("pipeline_temporal_parallel_4threads", 4)]
    {
        let p =
            Pipeline::new(PipelineConfig::fast_builder().parallelism(workers).build().unwrap(), 42);
        g.bench_function(name, |b| b.iter(|| p.run_temporal(black_box(corpus)).unwrap()));
    }
    for (name, workers) in
        [("pipeline_durations_serial_1thread", 1), ("pipeline_durations_parallel_4threads", 4)]
    {
        let p =
            Pipeline::new(PipelineConfig::fast_builder().parallelism(workers).build().unwrap(), 42);
        g.bench_function(name, |b| {
            b.iter(|| p.run_spatial_durations(black_box(corpus), 4).unwrap())
        });
    }
    g.finish();
}

/// Ablation: MLR vs constant model-tree leaves on the ST trees.
fn bench_ablation_tree_leaves(c: &mut Criterion) {
    if !c.selects(in_group("ablation_tree_leaves", &["mlr_leaves", "constant_leaves"])) {
        return;
    }
    let corpus = small_corpus();
    let (train, _) = corpus.split(0.8).unwrap();
    let mut g = c.benchmark_group("ablation_tree_leaves");
    g.sample_size(10);
    for (name, kind) in [
        ("mlr_leaves", ddos_cart::leaf::LeafKind::Linear),
        ("constant_leaves", ddos_cart::leaf::LeafKind::Constant),
    ] {
        let cfg = SpatioTemporalConfig {
            tree: ddos_cart::tree::TreeConfig { leaf_kind: kind, ..Default::default() },
            ..SpatioTemporalConfig::fast()
        };
        g.bench_function(name, |b| {
            b.iter(|| SpatioTemporalModel::fit(corpus, black_box(train), &cfg, 5).unwrap())
        });
    }
    g.finish();
}

/// Ablation: the paper's 0.88 pruning vs none.
fn bench_ablation_pruning(c: &mut Criterion) {
    if !c.selects(in_group("ablation_pruning", &["pruned_088", "unpruned"])) {
        return;
    }
    let corpus = small_corpus();
    let (train, test) = corpus.split(0.8).unwrap();
    for (name, retention) in [("pruned_088", Some(0.88)), ("unpruned", None)] {
        let cfg =
            SpatioTemporalConfig { prune_retention: retention, ..SpatioTemporalConfig::fast() };
        let model = SpatioTemporalModel::fit(corpus, train, &cfg, 5).unwrap();
        let preds = model.predict(train, test).unwrap();
        let truth: Vec<f64> = preds.iter().map(|p| p.truth_hour).collect();
        let st: Vec<f64> = preds.iter().map(|p| p.st_hour).collect();
        let rmse = ddos_stats::metrics::rmse(&st, &truth).unwrap();
        eprintln!(
            "[ablation pruning] {name}: hour tree {} leaves, hour RMSE {rmse:.2}",
            model.hour_tree().n_leaves()
        );
    }
    let mut g = c.benchmark_group("ablation_pruning");
    g.sample_size(10);
    for (name, retention) in [("pruned_088", Some(0.88)), ("unpruned", None)] {
        let cfg =
            SpatioTemporalConfig { prune_retention: retention, ..SpatioTemporalConfig::fast() };
        g.bench_function(name, |b| {
            b.iter(|| SpatioTemporalModel::fit(corpus, black_box(train), &cfg, 5).unwrap())
        });
    }
    g.finish();
}

/// Ablation: the Eq. 3–4 silhouette-style `A^s` vs a naive AS-count
/// feature.
fn bench_ablation_source_feature(c: &mut Criterion) {
    if !c.selects(in_group("ablation_source_feature", &["silhouette_a_s", "naive_as_count"])) {
        return;
    }
    let corpus = small_corpus();
    let fx = FeatureExtractor::new(corpus);
    let fam = corpus.catalog().most_active(1)[0];
    let attacks: Vec<&ddos_trace::AttackRecord> =
        corpus.family_attacks(fam).into_iter().take(100).collect();
    let mut g = c.benchmark_group("ablation_source_feature");
    g.bench_function("silhouette_a_s", |b| {
        b.iter(|| fx.source_distribution_series(black_box(&attacks)).unwrap())
    });
    g.bench_function("naive_as_count", |b| {
        b.iter(|| attacks.iter().map(|a| a.source_asns().len() as f64).collect::<Vec<f64>>())
    });
    g.finish();
}

/// Extension: family attribution from source-AS distributions (§VII-B).
fn bench_attribution(c: &mut Criterion) {
    if !c.selects(in_group("attribution", &["fit_profiles", "attribute_one"])) {
        return;
    }
    let corpus = small_corpus();
    let (train, test) = corpus.split(0.8).unwrap();
    let attributor = ddos_core::attribution::FamilyAttributor::fit(train).unwrap();
    let acc = attributor.accuracy(test).unwrap();
    eprintln!("[attribution headline] accuracy {:.1}%", acc * 100.0);
    let mut g = c.benchmark_group("attribution");
    g.bench_function("fit_profiles", |b| {
        b.iter(|| ddos_core::attribution::FamilyAttributor::fit(black_box(train)).unwrap())
    });
    g.bench_function("attribute_one", |b| {
        b.iter(|| attributor.attribute(black_box(&test[0])).unwrap())
    });
    g.finish();
}

/// Extension: sliding-window AS-entropy early detection (§V-B).
fn bench_entropy_detection(c: &mut Criterion) {
    use ddos_core::detection::{DetectorConfig, EntropyDetector};
    use rand::{Rng, SeedableRng};
    if !c.selects(in_group("entropy_detection", &["calibrate", "scan_2000_connections"])) {
        return;
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let benign: Vec<ddos_astopo::Asn> =
        (0..6_000).map(|_| ddos_astopo::Asn(rng.gen_range(0..60))).collect();
    let detector = EntropyDetector::calibrate(&benign, DetectorConfig::default()).unwrap();
    let stream: Vec<ddos_astopo::Asn> =
        (0..2_000).map(|_| ddos_astopo::Asn(rng.gen_range(0..60))).collect();
    let mut g = c.benchmark_group("entropy_detection");
    g.bench_function("calibrate", |b| {
        b.iter(|| EntropyDetector::calibrate(black_box(&benign), DetectorConfig::default()))
    });
    g.bench_function("scan_2000_connections", |b| {
        b.iter(|| {
            let mut d = detector.clone();
            d.scan(black_box(&stream))
        })
    });
    g.finish();
}

/// Tentpole (PR 3): the flat-memory hot paths. One row per inner loop the
/// dense-index/zero-clone refactor targets: the Eq. 4 source-distribution
/// series, the pairwise valley-free distances behind its `DT` term, and a
/// fixed-epoch NAR training run. `source_distribution_corpus_cold` is
/// Eq. 4 over every attack of `paper-loop`'s 30-day medium corpus, all
/// caches cold: each sample clones a never-queried corpus (the clone is
/// timed too), so the ASN histograms, the distance oracle and the
/// extractor are all built inside the sample.
/// `temporal_order_search_corpus` runs `select::search` over every
/// temporal series of the same corpus (two per family with enough
/// attacks). Before/after medians are recorded in
/// `BENCH_features.json`; outputs are bit-identical across the change
/// (`goldencheck` + the determinism suite are the oracles).
fn bench_flat_hot_paths(c: &mut Criterion) {
    if !c.selects(in_group(
        "flat_hot_paths",
        &[
            "source_distribution_series_100",
            "mean_pairwise_distance_32asns",
            "hop_distance_pair_loop_32asns",
            "source_distribution_corpus_cold",
            "temporal_order_search_corpus",
            "nar_train_120_epochs",
        ],
    )) {
        return;
    }
    let corpus = small_corpus();
    let fx = FeatureExtractor::new(corpus);
    let fam = corpus.catalog().most_active(1)[0];
    let attacks: Vec<&ddos_trace::AttackRecord> =
        corpus.family_attacks(fam).into_iter().take(100).collect();
    let oracle = ddos_astopo::paths::PathOracle::new(corpus.topology());
    let stubs: Vec<ddos_astopo::Asn> =
        corpus.topology().tier_members(ddos_astopo::Tier::Stub).into_iter().take(32).collect();
    let mut g = c.benchmark_group("flat_hot_paths");
    g.sample_size(20);
    g.bench_function("source_distribution_series_100", |b| {
        b.iter(|| fx.source_distribution_series(black_box(&attacks)).unwrap())
    });
    let mut scratch = ddos_astopo::paths::PairScratch::default();
    g.bench_function("mean_pairwise_distance_32asns", |b| {
        b.iter(|| oracle.mean_pairwise_distance(black_box(&stubs), &mut scratch))
    });
    g.bench_function("hop_distance_pair_loop_32asns", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for (i, a) in stubs.iter().enumerate() {
                for b in stubs.iter().skip(i + 1) {
                    if let Some(d) = oracle.hop_distance(black_box(*a), *b) {
                        total += d as u64;
                    }
                }
            }
            total
        })
    });
    let pristine = ddos_trace::TraceGenerator::new(
        ddos_trace::CorpusConfig { days: 30, ..ddos_trace::CorpusConfig::medium() },
        42,
    )
    .generate()
    .unwrap();
    g.bench_function("source_distribution_corpus_cold", |b| {
        b.iter(|| {
            let fresh = black_box(&pristine).clone();
            let fx = FeatureExtractor::new(&fresh);
            fresh.attacks().iter().map(|a| fx.source_distribution(a).unwrap()).sum::<f64>()
        })
    });
    // The same corpus's temporal series, from a clone so that `pristine`
    // stays cold for the row above.
    let series = temporal_series(&pristine.clone());
    let points: usize = series.iter().map(Vec::len).sum();
    eprintln!(
        "[flat_hot_paths] order search over {} temporal series, {points} points",
        series.len()
    );
    g.bench_function("temporal_order_search_corpus", |b| {
        b.iter(|| {
            black_box(&series)
                .iter()
                .map(|s| search(s, SearchConfig::default()).map_or(0, |o| o.table.len()))
                .sum::<usize>()
        })
    });
    let durations = duration_series();
    let fixed_epochs = TrainConfig { max_epochs: 120, patience: 120, validation_fraction: 0.2 };
    g.bench_function("nar_train_120_epochs", |b| {
        b.iter(|| {
            NarModel::fit(
                black_box(&durations),
                NarConfig { delays: 3, hidden: 8, train: fixed_epochs },
                7,
            )
            .unwrap()
        })
    });
    g.finish();
}

/// Tentpole (PR 4): presorted CART growth. One row per leaf kind on the
/// standard spatiotemporal training design (the real §VI workload), plus
/// a larger synthetic design that exposes the O(n log n)-per-node sort
/// the presorted grower removes, plus the spatiotemporal model's eight
/// trees grown from one shared design. Before/after medians are recorded in
/// `BENCH_features.json`; outputs are bit-identical across the change
/// (the `cart_fit_*` / `pipeline_spatiotemporal` goldencheck lines are
/// the oracle).
fn bench_cart_fit(c: &mut Criterion) {
    use ddos_cart::tree::{RegressionTree, TreeConfig};
    if !c.selects(in_group(
        "cart_fit",
        &[
            "st_design_mlr_leaves",
            "st_design_constant_leaves",
            "st_design_8_trees_shared_grower",
            "refit_window_8_trees_shared_grower",
            "synthetic_4000x13_mlr_leaves",
            "synthetic_4000x13_constant_leaves",
        ],
    )) {
        return;
    }
    let corpus = small_corpus();
    let (train, _) = corpus.split(0.8).unwrap();
    let st_cfg = SpatioTemporalConfig::fast();
    let (xs, labels) = SpatioTemporalModel::training_design(train, &st_cfg, 5).unwrap();
    let hours: Vec<f64> = labels.iter().map(|l| l[0]).collect();
    eprintln!("[cart_fit] spatiotemporal design: {} rows x {} features", xs.len(), xs[0].len());
    let mut g = c.benchmark_group("cart_fit");
    g.sample_size(20);
    for (name, kind) in [
        ("st_design_mlr_leaves", ddos_cart::leaf::LeafKind::Linear),
        ("st_design_constant_leaves", ddos_cart::leaf::LeafKind::Constant),
    ] {
        let cfg = TreeConfig { leaf_kind: kind, ..st_cfg.tree };
        g.bench_function(name, |b| {
            b.iter(|| RegressionTree::fit(black_box(&xs), black_box(&hours), &cfg).unwrap())
        });
    }
    // The spatiotemporal model's whole tree step: four targets, each grown
    // once for both leaf kinds, on one presorted design.
    let targets: Vec<Vec<f64>> = (0..4).map(|t| labels.iter().map(|l| l[t]).collect()).collect();
    g.bench_function("st_design_8_trees_shared_grower", |b| {
        use ddos_cart::leaf::LeafKind;
        use ddos_cart::tree::PresortedDesign;
        b.iter(|| {
            let design = PresortedDesign::new(black_box(&xs)).unwrap();
            targets
                .iter()
                .map(|ys| {
                    design
                        .fit_leaf_kinds(ys, &st_cfg.tree, [LeafKind::Linear, LeafKind::Constant])
                        .unwrap()
                })
                .collect::<Vec<_>>()
        })
    });
    // The same eight trees on one `st-refit` window: the 16k attacks before
    // day 56 of the medium rotation-burst corpus, grown on the design's
    // head as `SpatioTemporalModel::fit` does before it prunes. The corpus
    // is built inside the closure, so a filter that skips the row skips it.
    g.bench_function("refit_window_8_trees_shared_grower", |b| {
        use ddos_cart::leaf::LeafKind;
        use ddos_cart::tree::PresortedDesign;
        use ddos_trace::{CorpusConfig, ScenarioPolicy, TraceGenerator};
        let config = CorpusConfig::medium().with_scenario(ScenarioPolicy::RotationBurst);
        let corpus = TraceGenerator::new(config, 42).generate().unwrap();
        let attacks = corpus.attacks();
        let hi = attacks.partition_point(|a| a.start.day() < 56);
        let window = &attacks[hi - 16_000..hi];
        let (xs, labels) = SpatioTemporalModel::training_design(window, &st_cfg, 1).unwrap();
        let grow_n = ((xs.len() as f64 * 0.85) as usize).clamp(20, xs.len());
        let targets: Vec<Vec<f64>> =
            (0..4).map(|t| labels[..grow_n].iter().map(|l| l[t]).collect()).collect();
        eprintln!("[cart_fit] refit window design: {grow_n} rows x {} features", xs[0].len());
        let kinds = [LeafKind::Linear, LeafKind::Constant];
        b.iter(|| {
            let design = PresortedDesign::new(black_box(&xs[..grow_n])).unwrap();
            targets
                .iter()
                .map(|ys| design.fit_leaf_kinds(ys, &st_cfg.tree, kinds).unwrap())
                .collect::<Vec<_>>()
        })
    });
    // Synthetic 4000×13 design: same width as the spatiotemporal one but
    // deep enough that per-node work dominates setup.
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let big_xs: Vec<Vec<f64>> =
        (0..4000).map(|_| (0..13).map(|_| rng.gen::<f64>() * 24.0).collect()).collect();
    let big_ys: Vec<f64> = big_xs
        .iter()
        .map(|r| r[0].sin() * 6.0 + r[4] * 0.5 + if r[7] > 12.0 { 9.0 } else { 0.0 })
        .collect();
    for (name, kind) in [
        ("synthetic_4000x13_mlr_leaves", ddos_cart::leaf::LeafKind::Linear),
        ("synthetic_4000x13_constant_leaves", ddos_cart::leaf::LeafKind::Constant),
    ] {
        let cfg = TreeConfig { leaf_kind: kind, ..st_cfg.tree };
        g.bench_function(name, |b| {
            b.iter(|| RegressionTree::fit(black_box(&big_xs), black_box(&big_ys), &cfg).unwrap())
        });
    }
    g.finish();
}

/// Serving cost on the real 481×13 spatiotemporal training design:
/// per-row `predict` walks of the hour tree, the fitted model scoring
/// the whole design through `forecast_rows_into` in batches of 1 and of
/// 64 rows (the service's batch sizes; 64 is perfbench's score batch),
/// and the versioned-artifact encode/decode cost that gates the
/// fit-once/serve-many split. Medians are recorded in
/// `BENCH_features.json`.
fn bench_serve_batch(c: &mut Criterion) {
    use ddos_cart::tree::RegressionTree;
    use ddos_core::artifact::ModelArtifact;
    use ddos_core::spatiotemporal::ForecastScratch;
    if !c.selects(in_group(
        "serve_batch",
        &[
            "per_row_predict_481x13",
            "forecast_rows_into_1",
            "forecast_rows_into_64",
            "artifact_encode_spatiotemporal",
            "artifact_decode_spatiotemporal",
        ],
    )) {
        return;
    }
    let corpus = small_corpus();
    let (train, _) = corpus.split(0.8).unwrap();
    let st_cfg = SpatioTemporalConfig::fast();
    let (xs, labels) = SpatioTemporalModel::training_design(train, &st_cfg, 5).unwrap();
    let hours: Vec<f64> = labels.iter().map(|l| l[0]).collect();
    let tree = RegressionTree::fit(&xs, &hours, &st_cfg.tree).unwrap();
    eprintln!(
        "[serve_batch] design {} rows x {} features; hour tree {} leaves",
        xs.len(),
        xs[0].len(),
        tree.n_leaves()
    );
    let mut g = c.benchmark_group("serve_batch");
    g.bench_function("per_row_predict_481x13", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(xs.len());
            for row in &xs {
                out.push(tree.predict(black_box(row)).unwrap());
            }
            out
        })
    });
    let model = SpatioTemporalModel::fit(corpus, train, &st_cfg, 5).unwrap();
    let (mut scratch, mut out) = (ForecastScratch::default(), Vec::new());
    for batch in [1, 64] {
        g.bench_function(&format!("forecast_rows_into_{batch}"), |b| {
            b.iter(|| {
                for rows in black_box(&xs).chunks(batch) {
                    model.forecast_rows_into(rows, &mut scratch, &mut out).unwrap();
                }
                out.len()
            })
        });
    }
    let bytes = model.to_artifact_bytes();
    eprintln!("[serve_batch] spatiotemporal artifact: {} bytes", bytes.len());
    g.bench_function("artifact_encode_spatiotemporal", |b| {
        b.iter(|| model.to_artifact_bytes().len())
    });
    g.bench_function("artifact_decode_spatiotemporal", |b| {
        b.iter(|| SpatioTemporalModel::from_artifact_bytes(black_box(&bytes)).unwrap())
    });
    g.finish();
}

/// Forecaster zoo: ensemble fit cost on the real spatiotemporal design —
/// a bagged forest at 1 worker vs all cores (the determinism proptests
/// pin that the outputs are bit-identical, so the speedup is free) and a
/// boosted fit with early stopping. Single-core rows are the honest
/// comparison against `cart_fit`; the parallel row shows the executor
/// headroom on this machine only.
fn bench_ensemble_fit(c: &mut Criterion) {
    use ddos_cart::ensemble::{BaggedForest, BoostConfig, BoostedTrees, ForestConfig};
    if !c.selects(in_group(
        "ensemble_fit",
        &["forest16_481x13_1worker", "forest16_481x13_allcores", "boosted_481x13_earlystop"],
    )) {
        return;
    }
    let corpus = small_corpus();
    let (train, _) = corpus.split(0.8).unwrap();
    let st_cfg = SpatioTemporalConfig::fast();
    let (xs, labels) = SpatioTemporalModel::training_design(train, &st_cfg, 5).unwrap();
    let hours: Vec<f64> = labels.iter().map(|l| l[0]).collect();
    let mut g = c.benchmark_group("ensemble_fit");
    g.sample_size(10);
    for (name, parallelism) in
        [("forest16_481x13_1worker", Some(1)), ("forest16_481x13_allcores", None)]
    {
        let cfg = ForestConfig { n_trees: 16, tree: st_cfg.tree, seed: 7, parallelism };
        g.bench_function(name, |b| {
            b.iter(|| BaggedForest::fit(black_box(&xs), &hours, &cfg).unwrap())
        });
    }
    let boost = BoostConfig::default();
    g.bench_function("boosted_481x13_earlystop", |b| {
        b.iter(|| BoostedTrees::fit(black_box(&xs), &hours, &boost).unwrap())
    });
    g.finish();
}

/// Forecaster zoo serving: the forest's per-row walk over the design.
/// The `ensemble_forest_fit` goldencheck line pins its outputs.
fn bench_ensemble_serve(c: &mut Criterion) {
    use ddos_cart::ensemble::{BaggedForest, ForestConfig};
    if !c.selects(in_group("ensemble_serve", &["forest_per_row_481x13"])) {
        return;
    }
    let corpus = small_corpus();
    let (train, _) = corpus.split(0.8).unwrap();
    let st_cfg = SpatioTemporalConfig::fast();
    let (xs, labels) = SpatioTemporalModel::training_design(train, &st_cfg, 5).unwrap();
    let hours: Vec<f64> = labels.iter().map(|l| l[0]).collect();
    let forest = BaggedForest::fit(
        &xs,
        &hours,
        &ForestConfig { n_trees: 16, tree: st_cfg.tree, seed: 7, parallelism: None },
    )
    .unwrap();
    eprintln!("[ensemble_serve] forest {} trees on {} rows", forest.n_trees(), xs.len());
    let mut g = c.benchmark_group("ensemble_serve");
    g.sample_size(20);
    g.bench_function("forest_per_row_481x13", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(xs.len());
            for row in &xs {
                out.push(forest.predict(black_box(row)).unwrap());
            }
            out
        })
    });
    g.finish();
}

/// Tentpole (PR 6): the long-lived forecast service. Criterion rows for
/// the two serving shapes — single-request round trips through an
/// unbatched service (pure dispatch latency) and a 256-request burst
/// through micro-batch-64 flushes (throughput) — plus a manual 2000
/// round-trip percentile sweep whose p50/p99 and derived throughput are
/// printed as a headline and recorded in `BENCH_features.json`. The
/// `serve_micro_batched` goldencheck line pins that none of this
/// scheduling changes a single output bit.
fn bench_serve_service(c: &mut Criterion) {
    use ddos_serve::{BatchPolicy, ForecastRequest, ForecastService, ServeConfig};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    if !c.selects(in_group("serve_service", &["round_trip_unbatched", "burst_256_microbatch_64"])) {
        return;
    }

    let corpus = small_corpus();
    let (train, _) = corpus.split(0.8).unwrap();
    let st_cfg = SpatioTemporalConfig::fast();
    let model = Arc::new(SpatioTemporalModel::fit(corpus, train, &st_cfg, 5).unwrap());
    let (xs, _) = SpatioTemporalModel::training_design(train, &st_cfg, 5).unwrap();
    let features: Vec<ddos_core::spatiotemporal::InstanceFeatures> = xs
        .iter()
        .map(|r| ddos_core::spatiotemporal::InstanceFeatures::from_row(r).unwrap())
        .collect();
    let request = |i: usize| ForecastRequest {
        source: (i % 5) as u64,
        target: ddos_astopo::Asn(i as u32),
        features: features[i % features.len()],
    };
    let serve_config = |max_batch: usize, delay: Duration| ServeConfig {
        batch: BatchPolicy { max_batch, max_delay: delay },
        queue_capacity: 100_000,
        workers: None,
        rate_windows: Vec::new(),
    };

    // Percentile headline: 2000 single round trips through an unbatched
    // service, plus a burst-throughput measurement on a micro-batching
    // one. eprintln'd here; the recorded rows in BENCH_features.json are
    // copied from this output.
    {
        let handle =
            ForecastService::start_with_model(Arc::clone(&model), serve_config(1, Duration::ZERO));
        let client = handle.client();
        let mut lat_ns: Vec<u64> = (0..2_000)
            .map(|i| {
                let t0 = Instant::now();
                client.submit(request(i)).unwrap().wait().unwrap();
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        lat_ns.sort_unstable();
        let (p50, p99) = (lat_ns[lat_ns.len() / 2], lat_ns[lat_ns.len() * 99 / 100]);
        handle.shutdown().unwrap();

        let handle = ForecastService::start_with_model(
            Arc::clone(&model),
            serve_config(64, Duration::from_micros(200)),
        );
        let client = handle.client();
        let burst: Vec<ForecastRequest> = (0..256).map(request).collect();
        let t0 = Instant::now();
        const ROUNDS: usize = 20;
        for _ in 0..ROUNDS {
            for t in client.submit_batch(&burst).unwrap() {
                t.wait().unwrap();
            }
        }
        let total = t0.elapsed();
        let throughput = (ROUNDS * burst.len()) as f64 / total.as_secs_f64();
        let stats = handle.shutdown().unwrap();
        eprintln!(
            "[serve_service] round-trip p50 {p50} ns, p99 {p99} ns (2000 reqs, unbatched); \
             burst-256/flush-64 throughput {throughput:.0} req/s \
             ({} batches, max flush {})",
            stats.batches, stats.max_batch_len
        );
    }

    let mut g = c.benchmark_group("serve_service");
    g.sample_size(20);
    {
        let handle =
            ForecastService::start_with_model(Arc::clone(&model), serve_config(1, Duration::ZERO));
        let client = handle.client();
        let mut i = 0usize;
        g.bench_function("round_trip_unbatched", |b| {
            b.iter(|| {
                i += 1;
                client.submit(black_box(request(i))).unwrap().wait().unwrap()
            })
        });
        handle.shutdown().unwrap();
    }
    {
        let handle = ForecastService::start_with_model(
            Arc::clone(&model),
            serve_config(64, Duration::from_micros(200)),
        );
        let client = handle.client();
        let burst: Vec<ForecastRequest> = (0..256).map(request).collect();
        g.bench_function("burst_256_microbatch_64", |b| {
            b.iter(|| {
                for t in client.submit_batch(black_box(&burst)).unwrap() {
                    t.wait().unwrap();
                }
            })
        });
        handle.shutdown().unwrap();
    }
    g.finish();
}

/// Per-source rate admission on its own: `RateLimiter::admit` over the
/// traffic of perfbench's `serve-sat` (2^19 requests from 65,536 seeded
/// sources under the default 1/10/60 s windows, on a fresh limiter):
/// once at serve-sat's pace of 1.1 M requests/s, so that the run spans
/// 476 logical milliseconds and no stamp expires, and once spread over
/// 70 s of logical time, so that every window expires stamps. No request
/// is refused on either row.
fn bench_serve_admission(c: &mut Criterion) {
    use ddos_serve::{default_windows, RateLimiter};
    if !c.selects(in_group(
        "serve_admission",
        &["rate_limiter_serve_sat_65536_sources", "rate_limiter_steady_70s"],
    )) {
        return;
    }
    const REQUESTS: u64 = 1 << 19;
    let sources: Vec<u64> = (0..REQUESTS)
        .map(|i| {
            // splitmix64 of the request index.
            let mut z = i.wrapping_mul(0xD1B5_4A32_D192_ED03).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % 65_536
        })
        .collect();
    let run = |span_millis: u64| {
        let mut limiter = RateLimiter::new(default_windows());
        for (i, &source) in (0..REQUESTS).zip(&sources) {
            limiter.admit(black_box(source), i * span_millis / REQUESTS).unwrap();
        }
        limiter.tracked_sources()
    };
    let mut g = c.benchmark_group("serve_admission");
    g.sample_size(10);
    g.bench_function("rate_limiter_serve_sat_65536_sources", |b| b.iter(|| run(REQUESTS / 1_100)));
    g.bench_function("rate_limiter_steady_70s", |b| b.iter(|| run(70_000)));
    g.finish();
}

/// Tentpole (PR 8): the batched fast-tanh kernel. Scalar-libm vs the
/// polynomial kernel over the training loop's actual batch shapes (a
/// hidden-layer stripe and a full-epoch pre-activation buffer). The
/// `tanh_kernel` medians recorded in `BENCH_features.json` are the
/// microscopic half of the story; `nar_train_120_epochs` is the
/// end-to-end half. Accuracy is pinned by the tanh_kernel tests
/// (|error| ≤ 1e-12 against `f64::tanh`). The libm baseline is an
/// inline `f64::tanh` loop: the library has no libm path to call.
fn bench_tanh_kernel(c: &mut Criterion) {
    use ddos_neural::kernel::tanh_fast_slice;
    if !c.selects(in_group("tanh_kernel", &["libm_slice_4096", "fast_slice_4096"])) {
        return;
    }
    fn libm_slice(xs: &mut [f64]) {
        for x in xs {
            *x = x.tanh();
        }
    }
    let mut g = c.benchmark_group("tanh_kernel");
    // Pre-activations sampled like a scaled NAR hidden layer sees them:
    // mostly in the curved region, a tail into saturation.
    let src: Vec<f64> = (0..4096).map(|i| ((i as f64) * 0.37).sin() * 6.0).collect();
    let mut buf = vec![0.0f64; src.len()];
    for (name, f) in [
        ("libm_slice_4096", libm_slice as fn(&mut [f64])),
        ("fast_slice_4096", tanh_fast_slice as fn(&mut [f64])),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                buf.copy_from_slice(black_box(&src));
                f(&mut buf);
                buf[0]
            })
        });
    }
    g.finish();
}

/// QR factorization reuse in CART leaves. The same leaf cell solved
/// through the validated allocating entry ARIMA uses (`fit`: finiteness
/// scan + fresh design + fresh QR buffers) and through the prepared path
/// the grower uses (`fit_prepared`: contiguous design segment + reused QR
/// scratch), plus a tall leaf where the row-pass Householder kernel
/// dominates. Bit-identical outputs (the cart goldencheck lines and
/// `fit_prepared_matches_gathered_fit_bitwise` tests are the oracle);
/// `cart_fit/st_design_mlr_leaves` shows the end-to-end effect.
fn bench_qr_reuse(c: &mut Criterion) {
    use ddos_stats::ols::{LinearModel, OlsScratch};
    use rand::{Rng, SeedableRng};
    if !c
        .selects(in_group("qr_reuse", &["fit_64x14", "fit_prepared_64x14", "fit_prepared_4096x14"]))
    {
        return;
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    // A typical MLR leaf on the spatiotemporal design: 64 rows, 13
    // features (+ intercept).
    let rows = 64usize;
    let p = 14usize;
    let xs: Vec<Vec<f64>> =
        (0..rows).map(|_| (0..p - 1).map(|_| rng.gen::<f64>() * 24.0).collect()).collect();
    let ys: Vec<f64> = xs.iter().map(|r| r.iter().sum::<f64>() * 0.3 + rng.gen::<f64>()).collect();
    let mut design = Vec::with_capacity(rows * p);
    for r in &xs {
        design.push(1.0);
        design.extend_from_slice(r);
    }
    let mut g = c.benchmark_group("qr_reuse");
    g.bench_function("fit_64x14", |b| b.iter(|| LinearModel::fit(black_box(&xs), &ys).unwrap()));
    let mut scratch = OlsScratch::default();
    g.bench_function("fit_prepared_64x14", |b| {
        b.iter(|| LinearModel::fit_prepared(black_box(&design), &ys, p, &mut scratch).unwrap())
    });
    // A tall 14-column leaf, the shape of the upper nodes of a tree on the
    // spatiotemporal design: here the row-pass QR kernel dominates.
    let tall = 4096usize;
    let tall_design: Vec<f64> =
        (0..tall * p).map(|k| if k % p == 0 { 1.0 } else { rng.gen::<f64>() * 24.0 }).collect();
    let tall_ys: Vec<f64> = (0..tall).map(|_| rng.gen::<f64>() * 10.0).collect();
    g.bench_function("fit_prepared_4096x14", |b| {
        b.iter(|| {
            LinearModel::fit_prepared(black_box(&tall_design), &tall_ys, p, &mut scratch).unwrap()
        })
    });
    g.finish();
}

/// Topology operations at internet scale. One 100 k-AS tiered topology
/// ([`TopologyConfig::internet`]) is generated once in setup; the rows
/// then time the Eq. 4 distance term over a 64-stub sample on it: a fresh
/// oracle (cone BFS and pair table filled from scratch) and a reused one
/// (every pair already in the table). Medians are recorded in
/// `BENCH_features.json`; the `goldencheck` fingerprints prove the scale
/// rewrites behind these rows are output-identical.
fn bench_topo_100k(c: &mut Criterion) {
    use ddos_astopo::gen::{TopologyConfig, TopologyGenerator};
    use ddos_astopo::paths::PathOracle;
    use ddos_astopo::Tier;
    if !c.selects(in_group(
        "topo_100k",
        &["mean_pairwise_distance_64stubs_cold", "mean_pairwise_distance_64stubs_warm"],
    )) {
        return;
    }
    let built = std::time::Instant::now();
    let g100k = TopologyGenerator::new(TopologyConfig::internet(), 42).generate().unwrap();
    eprintln!("[topo_100k] generated {} ASes in {:.1?}", g100k.len(), built.elapsed());
    let mut g = c.benchmark_group("topo_100k");
    g.sample_size(10);
    let stubs: Vec<ddos_astopo::Asn> =
        g100k.tier_members(Tier::Stub).into_iter().step_by(1531).take(64).collect();
    let mut scratch = ddos_astopo::paths::PairScratch::default();
    g.bench_function("mean_pairwise_distance_64stubs_cold", |b| {
        b.iter(|| PathOracle::new(&g100k).mean_pairwise_distance(black_box(&stubs), &mut scratch))
    });
    let oracle = PathOracle::new(&g100k);
    oracle.mean_pairwise_distance(&stubs, &mut scratch);
    g.bench_function("mean_pairwise_distance_64stubs_warm", |b| {
        b.iter(|| oracle.mean_pairwise_distance(black_box(&stubs), &mut scratch))
    });
    g.finish();
}

/// Scenario layer cost: streaming the small corpus under each policy
/// (stationary is the "layer off" reference — the regime lookup and
/// picker-rebuild machinery must stay in the noise against it), plus
/// one end-to-end drift report.
fn bench_scenario(c: &mut Criterion) {
    use ddos_core::drift::DriftConfig;
    use ddos_trace::{CorpusConfig, CorpusStream, ScenarioPolicy};
    if !c.selects(in_group(
        "scenario",
        &[
            "stream_small_stationary",
            "stream_small_rotation-burst",
            "stream_small_target-migration",
            "drift_report_rotation_burst",
            "participants_burst",
            "columnar_encode_group",
        ],
    )) {
        return;
    }
    let mut g = c.benchmark_group("scenario");
    g.sample_size(10);
    for policy in
        [ScenarioPolicy::Stationary, ScenarioPolicy::RotationBurst, ScenarioPolicy::TargetMigration]
    {
        g.bench_function(format!("stream_small_{}", policy.name()).as_str(), |b| {
            b.iter(|| {
                let config = CorpusConfig { scenario: policy, ..CorpusConfig::small() };
                CorpusStream::new(black_box(config), 42)
                    .unwrap()
                    .map(|r| r.map(|_| 1u64))
                    .sum::<Result<u64, _>>()
                    .unwrap()
            })
        });
    }
    g.bench_function("drift_report_rotation_burst", |b| {
        b.iter(|| {
            ddos_core::drift::run(black_box(&DriftConfig::small(ScenarioPolicy::RotationBurst, 42)))
                .unwrap()
        })
    });

    // The layers beneath `scenario-stream`: the participant sampler on a
    // DirtJumper-sized pool (9,000 bots) at burst engagement, and the
    // encode of one full row group.
    {
        use ddos_astopo::gen::{TopologyConfig, TopologyGenerator};
        use ddos_astopo::ipmap::PrefixAllocator;
        use ddos_trace::bots::{BotPool, SamplerScratch};
        use ddos_trace::{ColumnarWriter, FamilyCatalog};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let topology = TopologyGenerator::new(TopologyConfig::small(), 42).generate().unwrap();
        let (_, allocations) = PrefixAllocator::new().allocate_for(&topology).unwrap();
        let catalog = FamilyCatalog::icdcs2017();
        let dirtjumper = catalog.profile(catalog.by_name("DirtJumper").unwrap()).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let pool = BotPool::recruit(&topology, &allocations, dirtjumper, 5, &mut rng).unwrap();
        // RotationBurst's burst regime: a 1.3x window and magnitudes well
        // above the calibrated mean.
        let burst =
            ddos_trace::RegimeParams { pool_engagement: 1.3, ..dirtjumper.stationary_regime() };
        let magnitude = 2 * dirtjumper.mean_magnitude as usize;
        let mut scratch = SamplerScratch::default();
        let mut day = 0u32;
        g.bench_function("participants_burst", |b| {
            b.iter(|| {
                day = (day + 1) % 220;
                pool.participants_in_regime(&burst, day, magnitude, &mut scratch, &mut rng)
            })
        });

        // Cloning the records into the writer is part of the measured
        // loop, as in `columnar::write_corpus`.
        let group: Vec<_> = small_corpus().attacks().iter().cycle().take(4_096).cloned().collect();
        g.bench_function("columnar_encode_group", |b| {
            b.iter(|| {
                let mut w = ColumnarWriter::with_group_size(Vec::new(), 4_096).unwrap();
                for a in black_box(&group) {
                    w.push(a.clone()).unwrap();
                }
                w.finish().unwrap()
            })
        });
    }
    g.finish();
}

/// The keystream alone: one million `StdRng::next_u64` words (31,250
/// refills of four ChaCha12 blocks), the draw every trace sampler
/// bottoms out in. The generator carries over between iterations, so
/// every iteration pays the same refills.
fn bench_rng(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    if !c.selects(in_group("rng", &["stdrng_next_u64_1m"])) {
        return;
    }
    let mut g = c.benchmark_group("rng");
    let mut rng = StdRng::seed_from_u64(42);
    g.bench_function("stdrng_next_u64_1m", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1_000_000 {
                acc ^= rng.next_u64();
            }
            acc
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_table1,
    bench_fig1_temporal,
    bench_fig2_spatial,
    bench_fig3_spatiotemporal,
    bench_fig4_errors,
    bench_comparison_baselines,
    bench_usecases,
    bench_ablation_arima_order,
    bench_ablation_nar_grid,
    bench_parallel_executor,
    bench_ablation_tree_leaves,
    bench_ablation_pruning,
    bench_ablation_source_feature,
    bench_flat_hot_paths,
    bench_cart_fit,
    bench_tanh_kernel,
    bench_qr_reuse,
    bench_serve_batch,
    bench_ensemble_fit,
    bench_ensemble_serve,
    bench_serve_service,
    bench_serve_admission,
    bench_attribution,
    bench_entropy_detection,
    bench_topo_100k,
    bench_scenario,
    bench_rng,
);
criterion_main!(benches);
