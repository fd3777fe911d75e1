//! Bit-exact output fingerprints for every hot path the flat-memory and
//! presorted-CART optimizations touch.
//!
//! Prints one FNV-1a hash line per subsystem, folding the `f64::to_bits`
//! of every value in the subsystem's output. Run it before and after a
//! perf refactor and diff the output: identical lines prove the refactor
//! is observationally pure on these paths (the complement of the
//! determinism suite, which only compares worker counts within one
//! build).
//!
//! ```sh
//! cargo run --release -p ddos-bench --bin goldencheck > /tmp/fingerprint.txt
//! ```
//!
//! With `--check <file>` the computed fingerprints are compared against a
//! recorded golden file (one `name hash` pair per line) and the process
//! exits 1 on any mismatch — this is the CI bit-identity gate. A bad
//! argument or an unreadable or malformed golden file is reported on
//! stderr with the usage line, before any fingerprint is computed, and
//! exits 2:
//!
//! ```sh
//! cargo run --release -p ddos-bench --bin goldencheck -- \
//!     --check crates/bench/golden/fingerprints.txt
//! ```

use ddos_bench::{corpus, pipeline, Scale};
use ddos_cart::ensemble::{
    bootstrap_indices, derive_seed, BaggedForest, BoostConfig, BoostedTrees, ForestConfig,
};
use ddos_cart::leaf::LeafKind;
use ddos_cart::prune::prune_holdout;
use ddos_cart::tree::{RegressionTree, TreeConfig};
use ddos_core::artifact::ModelArtifact;
use ddos_core::attribution::FamilyAttributor;
use ddos_core::features::FeatureExtractor;
use ddos_core::spatiotemporal::{InstanceFeatures, SpatioTemporalConfig, SpatioTemporalModel};
use ddos_neural::nar::{NarConfig, NarModel};
use ddos_neural::train::TrainConfig;
use ddos_serve::{BatchPolicy, ForecastRequest, ForecastService, ServeConfig};
use ddos_stats::arima::{Arima, ArimaOrder};
use ddos_stats::codec::Writer;
use ddos_stats::regress::{HuberConfig, HuberModel, PolyConfig, PolynomialModel};
use ddos_trace::{AttackRecord, ColumnarWriter, CorpusStream};

/// Collected `(name, hash)` lines, printed at the end (and optionally
/// diffed against a golden file).
struct Report {
    lines: Vec<(String, u64)>,
}

/// FNV-1a over a stream of u64 words.
struct Fnv<'a> {
    hash: u64,
    report: &'a mut Report,
}

impl<'a> Fnv<'a> {
    fn new(report: &'a mut Report) -> Self {
        Fnv { hash: 0xcbf2_9ce4_8422_2325, report }
    }
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.hash ^= byte as u64;
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.hash ^= byte as u64;
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn done(self, name: &str) {
        self.report.lines.push((name.to_string(), self.hash));
    }
}

/// Fingerprints the full observable surface of a fitted tree: shape and
/// predictions over the training rows plus an off-grid probe lattice.
fn hash_tree(h: &mut Fnv<'_>, tree: &RegressionTree, xs: &[Vec<f64>]) {
    h.word(tree.n_leaves() as u64);
    h.word(tree.depth() as u64);
    for row in xs {
        h.f64(tree.predict(row).unwrap());
    }
    let width = tree.n_features();
    for step in 0..16 {
        let probe: Vec<f64> =
            (0..width).map(|f| (step as f64 - 8.0) * 1.7 + f as f64 * 0.33).collect();
        h.f64(tree.predict(&probe).unwrap());
    }
}

/// A tree's own codec bytes: the form an ensemble's member trees are
/// fingerprinted in.
fn tree_bytes(tree: &RegressionTree) -> Vec<u8> {
    let mut w = Writer::new();
    tree.encode(&mut w);
    w.into_bytes()
}

const USAGE: &str = "usage: goldencheck [--check <golden-file>]";

/// Reports a usage or input error on stderr and exits with status 2
/// (status 1 is reserved for fingerprint mismatches).
fn usage_error(message: &str) -> ! {
    eprintln!("goldencheck: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

/// Reads a golden file into `name → hash`, skipping blank and `#` lines.
fn read_golden(path: &str) -> Result<std::collections::BTreeMap<String, String>, String> {
    let golden = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read golden file {path}: {e}"))?;
    let mut expected = std::collections::BTreeMap::new();
    for (n, line) in golden.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(name), Some(hash)) = (it.next(), it.next()) else {
            return Err(format!("{path}:{}: expected `name hash`, got {line:?}", n + 1));
        };
        expected.insert(name.to_string(), hash.to_string());
    }
    Ok(expected)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let check_path = match args.next().as_deref() {
        Some("--check") => {
            Some(args.next().unwrap_or_else(|| usage_error("--check requires a golden file path")))
        }
        Some(other) => usage_error(&format!("unknown argument {other:?}")),
        None => None,
    };
    // Read the golden file before the long run so a bad path fails fast.
    let expected =
        check_path.as_deref().map(|path| read_golden(path).unwrap_or_else(|e| usage_error(&e)));
    let mut report = Report { lines: Vec::new() };
    run(&mut report);
    for (name, hash) in &report.lines {
        println!("{name:<32} {hash:016x}");
    }

    if let Some(mut expected) = expected {
        let mut failures = 0;
        for (name, hash) in &report.lines {
            match expected.remove(name) {
                Some(want) if want == format!("{hash:016x}") => {}
                Some(want) => {
                    eprintln!("MISMATCH {name}: computed {hash:016x}, golden {want}");
                    failures += 1;
                }
                None => {
                    eprintln!("MISSING golden entry for {name} (computed {hash:016x})");
                    failures += 1;
                }
            }
        }
        for (name, _) in expected {
            eprintln!("STALE golden entry {name} no longer computed");
            failures += 1;
        }
        if failures > 0 {
            eprintln!("goldencheck: {failures} fingerprint failure(s)");
            std::process::exit(1);
        }
        eprintln!("goldencheck: all {} fingerprints match", report.lines.len());
    }
}

fn run(report: &mut Report) {
    let c = corpus(Scale::Small, 42);
    let fx = FeatureExtractor::new(&c);
    let fam = c.catalog().most_active(1)[0];
    let attacks: Vec<&AttackRecord> = c.family_attacks(fam).into_iter().take(120).collect();

    // Eq. 4 source-distribution series.
    let mut h = Fnv::new(report);
    for v in fx.source_distribution_series(&attacks).unwrap() {
        h.f64(v);
    }
    h.done("source_distribution_series");

    // Valley-free distances over stub pairs.
    let oracle = ddos_astopo::paths::PathOracle::new(c.topology());
    let stubs: Vec<ddos_astopo::Asn> =
        c.topology().tier_members(ddos_astopo::Tier::Stub).into_iter().take(24).collect();
    let mut h = Fnv::new(report);
    h.f64(oracle.mean_pairwise_distance(&stubs, &mut ddos_astopo::paths::PairScratch::default()));
    for (i, a) in stubs.iter().enumerate() {
        for b in stubs.iter().skip(i + 1) {
            h.word(oracle.hop_distance(*a, *b).map(u64::from).unwrap_or(u64::MAX));
        }
    }
    h.done("pairwise_hop_distances");

    // Per-AS share series (Fig. 2 input).
    let (asns, series) = fx.as_share_series(&attacks, 8);
    let mut h = Fnv::new(report);
    for a in &asns {
        h.word(a.0 as u64);
    }
    for s in &series {
        for v in s {
            h.f64(*v);
        }
    }
    h.done("as_share_series");

    // NAR fit + rolling prediction.
    let durations: Vec<f64> = attacks.iter().map(|a| a.duration_secs as f64).collect();
    let cut = durations.len() * 8 / 10;
    let train = TrainConfig { max_epochs: 120, patience: 120, ..Default::default() };
    let model =
        NarModel::fit(&durations[..cut], NarConfig { delays: 3, hidden: 6, train }, 7).unwrap();
    let mut h = Fnv::new(report);
    h.f64(model.sigma());
    for v in model.predict_rolling(&durations[..cut], &durations[cut..]).unwrap() {
        h.f64(v);
    }
    for v in model.forecast(&durations[..cut], 12).unwrap() {
        h.f64(v);
    }
    h.done("nar_fit_rolling_forecast");

    // ARIMA rolling prediction.
    let mags = FeatureExtractor::magnitude_series(&attacks);
    let m = Arima::fit(&mags[..cut], ArimaOrder::new(2, 1, 1)).unwrap();
    let mut h = Fnv::new(report);
    for v in m.predict_rolling(&mags[cut..]).unwrap() {
        h.f64(v);
    }
    h.done("arima_predict_rolling");

    // Pipeline reports (temporal + spatial distribution + attribution).
    let t = pipeline(42).run_temporal(&c).unwrap();
    let mut h = Fnv::new(report);
    for f in &t.per_family {
        h.f64(f.magnitudes.rmse);
        for v in &f.magnitudes.predicted {
            h.f64(*v);
        }
    }
    h.done("pipeline_temporal");

    let s = pipeline(42).run_spatial_distribution(&c).unwrap();
    let mut h = Fnv::new(report);
    for f in &s.per_family {
        h.f64(f.share_rmse);
        for v in f.predicted_mean_shares.iter().chain(&f.truth_mean_shares) {
            h.f64(*v);
        }
    }
    h.done("pipeline_spatial_dist");

    // §V duration experiment: per evaluated network, hottest first.
    let d = pipeline(42).run_spatial_durations(&c, 4).unwrap();
    let mut h = Fnv::new(report);
    for n in &d.per_network {
        h.word(n.asn.0 as u64);
        h.word(n.n_train as u64);
        h.word(n.n_test as u64);
        h.f64(n.spatial_rmse);
        h.f64(n.always_same_rmse);
        h.f64(n.always_mean_rmse);
    }
    h.done("pipeline_spatial_durations");

    // E6 baseline comparison (§VII-A): every RMSE row, so the per-family
    // temporal fits behind its magnitude and asn_dist rows are pinned.
    let table = pipeline(42).run_baseline_comparison(&c).unwrap();
    let mut h = Fnv::new(report);
    for r in table.rows() {
        for text in [&r.scope, &r.feature, &r.model] {
            h.word(text.len() as u64);
            h.bytes(text.as_bytes());
        }
        h.f64(r.rmse);
    }
    h.done("pipeline_baseline_comparison");

    let (train_a, test_a) = c.split(0.8).unwrap();
    let at = FamilyAttributor::fit(train_a).unwrap();
    let mut h = Fnv::new(report);
    h.f64(at.accuracy(test_a).unwrap());
    h.done("attribution_accuracy");

    // CART growth on the standard spatiotemporal training set (§VI): the
    // real design the four trees train on, fit with both leaf kinds,
    // unpruned and holdout-pruned. These lines are the bit-identity
    // oracle for the presorted grower.
    let st_cfg = SpatioTemporalConfig::fast();
    let (st_xs, st_labels) = SpatioTemporalModel::training_design(train_a, &st_cfg, 5).unwrap();
    let mut h = Fnv::new(report);
    for (row, labels) in st_xs.iter().zip(&st_labels) {
        for v in row.iter().chain(labels.iter()) {
            h.f64(*v);
        }
    }
    h.done("spatiotemporal_design");

    let hour_labels: Vec<f64> = st_labels.iter().map(|l| l[0]).collect();
    let duration_labels: Vec<f64> = st_labels.iter().map(|l| l[3]).collect();
    let grow_n = st_xs.len() * 85 / 100;
    for (name, kind) in [
        ("cart_fit_mlr_leaves", LeafKind::Linear),
        ("cart_fit_constant_leaves", LeafKind::Constant),
    ] {
        let cfg = TreeConfig { leaf_kind: kind, ..st_cfg.tree };
        let mut h = Fnv::new(report);
        for labels in [&hour_labels, &duration_labels] {
            let tree = RegressionTree::fit(&st_xs, labels, &cfg).unwrap();
            hash_tree(&mut h, &tree, &st_xs);
            // Holdout pruning on a fresh fit: the collapsed leaf models
            // are part of the grower's observable surface.
            let mut retained =
                RegressionTree::fit(&st_xs[..grow_n], &labels[..grow_n], &cfg).unwrap();
            let collapsed =
                prune_holdout(&mut retained, &st_xs[grow_n..], &labels[grow_n..], 0.88).unwrap();
            h.word(collapsed as u64);
            hash_tree(&mut h, &retained, &st_xs);
        }
        h.done(name);
    }

    // The full spatiotemporal pipeline, staged: fit once, then serve.
    // The report fingerprint is unchanged from the combined runner (the
    // fit/serve split is observationally pure); the same fitted model
    // then yields the artifact-bytes and batched-prediction lines below
    // without a second fit.
    let p = pipeline(42);
    let st_model = p.fit_spatiotemporal(&c).unwrap();
    let st = p.serve_spatiotemporal(&c, &st_model).unwrap();
    let mut h = Fnv::new(report);
    h.f64(st.st_hour_rmse);
    h.f64(st.temporal_hour_rmse);
    h.f64(st.spatial_hour_rmse);
    for p in &st.predictions {
        h.f64(p.st_hour);
        h.f64(p.st_day);
        h.f64(p.st_magnitude);
        h.f64(p.st_duration);
    }
    h.done("pipeline_spatiotemporal");

    // Versioned artifact encoding of the fitted spatiotemporal model:
    // every byte of the envelope + payload. Artifacts are deterministic,
    // so a stable line proves serialization didn't drift (a reloaded
    // model serving different bits would trip the lines above instead).
    let artifact = st_model.to_artifact_bytes();
    let mut h = Fnv::new(report);
    h.word(artifact.len() as u64);
    h.bytes(&artifact);
    h.done("spatiotemporal_artifact");

    // Batch prediction (`predict_many`, one `predict` walk per row) over
    // the real training design, on the served model's hour and day trees.
    let mut h = Fnv::new(report);
    for tree in [st_model.hour_tree(), st_model.day_tree()] {
        for v in tree.predict_many(&st_xs).unwrap() {
            h.f64(v);
        }
    }
    h.done("batched_tree_predictions");

    // Micro-batched serving through the forecast service: responses in
    // submission order over the training design. Batch composition and
    // flush timing vary run to run; the forecast bits must not — this is
    // the service-level determinism contract, on the same model the
    // lines above fingerprint.
    let serve_features: Vec<InstanceFeatures> =
        st_xs.iter().map(|row| InstanceFeatures::from_row(row).unwrap()).collect();
    let handle = ForecastService::start_with_model(
        std::sync::Arc::new(st_model),
        ServeConfig {
            batch: BatchPolicy { max_batch: 7, max_delay: std::time::Duration::from_millis(1) },
            queue_capacity: serve_features.len() + 1,
            workers: Some(3),
            rate_windows: Vec::new(),
        },
    );
    let client = handle.client();
    let tickets: Vec<_> = serve_features
        .iter()
        .enumerate()
        .map(|(i, f)| {
            client
                .submit(ForecastRequest {
                    source: i as u64 % 5,
                    target: ddos_astopo::Asn(i as u32),
                    features: *f,
                })
                .unwrap()
        })
        .collect();
    let mut h = Fnv::new(report);
    for ticket in tickets {
        let fc = ticket.wait().unwrap().forecast;
        h.f64(fc.hour);
        h.f64(fc.day);
        h.f64(fc.magnitude);
        h.f64(fc.duration_secs);
    }
    handle.shutdown().unwrap();
    h.done("serve_micro_batched");

    // Streaming generation: the constant-memory iterator over the same
    // Small-scale config and seed. Every field of every record is folded
    // in emission order, pinning both the per-family RNG streams and the
    // chronological merge/id-assignment logic.
    let streamed: Vec<AttackRecord> = CorpusStream::new(Scale::Small.corpus_config(), 42)
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    let mut h = Fnv::new(report);
    for a in &streamed {
        h.word(a.id.0);
        h.word(a.family.0 as u64);
        h.word(a.target.0 as u64);
        h.word(a.target_asn.0 as u64);
        h.word(a.start.as_secs());
        h.word(a.duration_secs);
        h.word(a.multistage as u64);
        h.word(a.vector.index() as u64);
        for &c in &a.hourly_bot_counts {
            h.word(c as u64);
        }
        for bot in a.bots() {
            h.word(bot.ip as u64);
            h.word(bot.asn.0 as u64);
        }
    }
    h.done("corpus_stream");

    // Columnar trace format: the exact on-disk byte stream for the
    // streamed records above. Any change to the container layout, the
    // column encodings, or the checksum scheme shows up here.
    let mut writer = ColumnarWriter::new(Vec::new()).unwrap();
    for a in streamed {
        writer.push(a).unwrap();
    }
    let bytes = writer.finish().unwrap();
    let mut h = Fnv::new(report);
    h.word(bytes.len() as u64);
    h.bytes(&bytes);
    h.done("columnar_trace");

    // Forecaster zoo: bagged-forest and boosted-model-tree fits on a
    // synthetic integer-derived design; the ensembles never touch the
    // neural kernel. Folds the bootstrap stream of the first tree,
    // per-tree shape, batched predictions, and every member tree's codec
    // bytes.
    let zoo_xs: Vec<Vec<f64>> = (0..160)
        .map(|i| (0..5).map(|f| ((i * 37 + f * 11) % 97) as f64 / 9.7 - 5.0).collect())
        .collect();
    let zoo_ys: Vec<f64> = zoo_xs
        .iter()
        .enumerate()
        .map(|(i, r)| r[0] * 1.5 - r[1].abs() + r[2] * 0.7 + (i % 13) as f64 * 0.05)
        .collect();

    let forest = BaggedForest::fit(
        &zoo_xs,
        &zoo_ys,
        &ForestConfig { n_trees: 9, seed: 11, parallelism: Some(3), ..Default::default() },
    )
    .unwrap();
    let mut h = Fnv::new(report);
    h.word(forest.n_trees() as u64);
    for idx in bootstrap_indices(derive_seed(11, 0), zoo_xs.len()) {
        h.word(idx as u64);
    }
    for tree in forest.trees() {
        h.word(tree.n_leaves() as u64);
        h.word(tree.depth() as u64);
    }
    for v in forest.predict_many(&zoo_xs).unwrap() {
        h.f64(v);
    }
    for tree in forest.trees() {
        h.bytes(&tree_bytes(tree));
    }
    h.done("ensemble_forest_fit");

    let boosted = BoostedTrees::fit(&zoo_xs, &zoo_ys, &BoostConfig::default()).unwrap();
    let mut h = Fnv::new(report);
    h.word(boosted.n_stages() as u64);
    h.f64(boosted.f0());
    h.f64(boosted.shrinkage());
    for tree in boosted.trees() {
        h.word(tree.n_leaves() as u64);
        h.word(tree.depth() as u64);
    }
    for v in boosted.predict_many(&zoo_xs).unwrap() {
        h.f64(v);
    }
    for tree in boosted.trees() {
        h.bytes(&tree_bytes(tree));
    }
    h.done("ensemble_boosted_fit");

    // Cheap regression baselines on the same design: the degree-2
    // polynomial OLS fit and the Huber IRLS fit, both solved by the one
    // least-squares kernel.
    let poly = PolynomialModel::fit(&zoo_xs, &zoo_ys, &PolyConfig { degree: 2 }).unwrap();
    let huber = HuberModel::fit(&zoo_xs, &zoo_ys, &HuberConfig::default()).unwrap();
    let mut h = Fnv::new(report);
    for &d in poly.degrees() {
        h.word(d as u64);
    }
    for row in &zoo_xs {
        h.f64(poly.predict(row).unwrap());
    }
    h.word(huber.n_iter() as u64);
    h.f64(huber.intercept());
    for &c in huber.coefficients() {
        h.f64(c);
    }
    for row in &zoo_xs {
        h.f64(huber.predict(row).unwrap());
    }
    h.done("regress_baselines");

    // Regime-switching scenario corpus: the same streaming surface as
    // `corpus_stream`, under a non-stationary policy. Pins the scenario
    // layer end to end — schedule generation, per-regime pickers, regime-
    // local placement/duration/participant draws — while `corpus_stream`
    // above pins that the Stationary default left the base corpus
    // untouched.
    let scenario_cfg = ddos_trace::CorpusConfig {
        scenario: ddos_trace::ScenarioPolicy::RotationBurst,
        ..Scale::Small.corpus_config()
    };
    let mut h = Fnv::new(report);
    for a in CorpusStream::new(scenario_cfg, 42).unwrap() {
        let a = a.unwrap();
        h.word(a.id.0);
        h.word(a.family.0 as u64);
        h.word(a.target.0 as u64);
        h.word(a.target_asn.0 as u64);
        h.word(a.start.as_secs());
        h.word(a.duration_secs);
        h.word(a.multistage as u64);
        h.word(a.vector.index() as u64);
        for &c in &a.hourly_bot_counts {
            h.word(c as u64);
        }
        for bot in a.bots() {
            h.word(bot.ip as u64);
            h.word(bot.asn.0 as u64);
        }
    }
    h.done("scenario_corpus");

    // Drift evaluation report bytes: the full three-point protocol (corpus
    // generation, signal extraction, boundary choice, five forecaster
    // fits) folded through the versioned codec.
    let drift_report = ddos_core::drift::run(&ddos_core::drift::DriftConfig::small(
        ddos_trace::ScenarioPolicy::RotationBurst,
        42,
    ))
    .unwrap();
    let mut h = Fnv::new(report);
    h.bytes(&drift_report.to_bytes());
    h.done("drift_report");
}
