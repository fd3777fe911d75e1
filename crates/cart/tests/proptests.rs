//! Property-based tests for the regression-tree substrate.

use ddos_cart::ensemble::{
    bootstrap_indices, BaggedForest, BoostConfig, BoostedTrees, ForestConfig,
};
use ddos_cart::leaf::LeafKind;
use ddos_cart::prune::prune_holdout;
use ddos_cart::tree::{PresortedDesign, RegressionTree, TreeConfig};
use ddos_cart::CartError;
use proptest::prelude::*;

fn dataset(xs: &[f64]) -> (Vec<Vec<f64>>, Vec<f64>) {
    let rows: Vec<Vec<f64>> = xs.iter().map(|x| vec![*x, x * 0.5]).collect();
    let ys: Vec<f64> = xs.iter().map(|x| if *x < 0.0 { x * 2.0 } else { 10.0 - x }).collect();
    (rows, ys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Training predictions at the training points never have larger SSE
    /// than the single-leaf (root) model: splits only help in-sample.
    #[test]
    fn tree_fits_at_least_as_well_as_root(
        xs in proptest::collection::vec(-20.0f64..20.0, 16..80),
    ) {
        let (rows, ys) = dataset(&xs);
        let deep = RegressionTree::fit(&rows, &ys, &TreeConfig {
            leaf_kind: LeafKind::Constant,
            ..Default::default()
        }).unwrap();
        // A root-only stump: an unsatisfiable split bar keeps the tree at
        // one leaf (depth-0 configs are now rejected up front).
        let stump = RegressionTree::fit(&rows, &ys, &TreeConfig {
            leaf_kind: LeafKind::Constant,
            min_samples_split: usize::MAX,
            ..Default::default()
        }).unwrap();
        let sse = |t: &RegressionTree| -> f64 {
            rows.iter().zip(&ys).map(|(x, y)| (t.predict(x).unwrap() - y).powi(2)).sum()
        };
        prop_assert!(sse(&deep) <= sse(&stump) + 1e-9);
        prop_assert_eq!(stump.n_leaves(), 1);
    }

    /// Pruning never leaves the tree in an unpredictable state and never
    /// increases the leaf count.
    #[test]
    fn pruning_invariants(
        xs in proptest::collection::vec(-20.0f64..20.0, 16..80),
        retention in 0.5f64..1.0,
    ) {
        let (rows, ys) = dataset(&xs);
        let mut t = RegressionTree::fit(&rows, &ys, &TreeConfig::default()).unwrap();
        let before = t.n_leaves();
        prune_holdout(&mut t, &rows, &ys, retention).unwrap();
        prop_assert!(t.n_leaves() <= before);
        for x in rows.iter().take(8) {
            prop_assert!(t.predict(x).unwrap().is_finite());
        }
    }

    /// Finite but extreme magnitudes, up to ±`f64::MAX` in targets and
    /// features: `fit`, `fit_leaf_kinds` and `prune_holdout` either return
    /// `NonFiniteInput` or a tree whose `predict` is finite on every
    /// training row, never a panic, a NaN or an ∞.
    ///
    /// The `keyed` case is 60 rows of targets 1e160 ± 1e150 keyed on
    /// feature 1 (a spread of 1e140 would round away): node statistics
    /// are finite, but every squared target overflows the split scan's
    /// prefix sums, so no cut can be ranked and growth must fail (the
    /// scan once let the first NaN-scored cut win).
    ///
    /// The `overflow` case is 20 rows whose feature 0 is 1e308 or 1.5e308
    /// with step targets: the two values' sum overflows, but their
    /// midpoint is finite, so growth must split there and fit (the
    /// threshold was once `+∞`, sending every row left).
    #[test]
    fn extreme_magnitudes_error_or_predict_finite(
        noise in proptest::collection::vec(-1.0f64..1.0, 12..80),
        y_exponent in 0i32..=308,
        x_exponent in 0i32..=308,
        spike in 0usize..120,
        retention in 0.5f64..1.0,
        case in 0u8..3,
    ) {
        let (y_scale, x_scale) = (10f64.powi(y_exponent), 10f64.powi(x_exponent));
        let (keyed, overflow) = (case == 1, case == 2);
        let n = match case {
            1 => 60,
            2 => 20,
            _ => noise.len(),
        };
        let mut rows: Vec<Vec<f64>> =
            (0..n).map(|i| vec![i as f64 * x_scale.min(1e306), (i % 7) as f64]).collect();
        let mut ys: Vec<f64> = noise.iter().map(|u| u * y_scale).collect();
        if keyed {
            ys = rows.iter().map(|x| 1e160 + if x[1] < 3.0 { 1e150 } else { -1e150 }).collect();
        } else if overflow {
            for (i, row) in rows.iter_mut().enumerate() {
                row[0] = if i % 2 == 0 { 1e308 } else { 1.5e308 };
            }
            ys = rows.iter().map(|x| if x[0] < 1.2e308 { 1.0 } else { 5.0 }).collect();
        } else if let Some(y) = ys.get_mut(spike) {
            *y = f64::MAX.copysign(*y);
        }
        let finite_on_rows = |tree: &RegressionTree| {
            rows.iter().all(|x| tree.predict(x).is_ok_and(f64::is_finite))
        };
        let config = TreeConfig::default();
        let design = PresortedDesign::new(&rows).unwrap();
        let kinds = design.fit_leaf_kinds(&ys, &config, [LeafKind::Constant, LeafKind::Linear]);
        match RegressionTree::fit(&rows, &ys, &config) {
            Ok(mut tree) => {
                prop_assert!(!keyed, "a split was ranked by overflowed squares");
                if overflow {
                    prop_assert!(tree.n_leaves() >= 2, "the overflowing midpoint was not split");
                }
                prop_assert!(finite_on_rows(&tree));
                let [constant, linear] = kinds.unwrap();
                prop_assert!(finite_on_rows(&constant) && finite_on_rows(&linear));
                let holdout = rows.len() * 3 / 4;
                prune_holdout(&mut tree, &rows[holdout..], &ys[holdout..], retention).unwrap();
                prop_assert!(finite_on_rows(&tree));
            }
            Err(e) => {
                prop_assert!(!overflow, "a valid design with an overflowing sum failed: {e:?}");
                prop_assert_eq!(e, CartError::NonFiniteInput);
                prop_assert_eq!(kinds.err(), Some(CartError::NonFiniteInput));
            }
        }
    }

    /// Every training point routes to exactly one leaf — predictions are
    /// total over the training domain (the partition tiles the space).
    #[test]
    fn partition_is_total(
        xs in proptest::collection::vec(-50.0f64..50.0, 12..60),
        probe in -100.0f64..100.0,
    ) {
        let (rows, ys) = dataset(&xs);
        let t = RegressionTree::fit(&rows, &ys, &TreeConfig::default()).unwrap();
        // Arbitrary probes (inside or outside the training range) always
        // land in a leaf.
        prop_assert!(t.predict(&[probe, probe * 0.5]).unwrap().is_finite());
    }

    /// Batch prediction is bit-identical to the scalar walk: it is one
    /// `predict` per row.
    #[test]
    fn predict_many_bitwise_matches_scalar(
        xs in proptest::collection::vec(-40.0f64..40.0, 12..80),
        probes in proptest::collection::vec(-90.0f64..90.0, 1..40),
        mlr in 0u8..2,
    ) {
        let (rows, ys) = dataset(&xs);
        let cfg = TreeConfig {
            leaf_kind: if mlr == 1 { LeafKind::Linear } else { LeafKind::Constant },
            ..Default::default()
        };
        let t = RegressionTree::fit(&rows, &ys, &cfg).unwrap();
        let queries: Vec<Vec<f64>> = probes.iter().map(|p| vec![*p, -p * 0.3]).collect();
        let batch = t.predict_many(&queries).unwrap();
        prop_assert_eq!(batch.len(), queries.len());
        for (q, b) in queries.iter().zip(&batch) {
            prop_assert_eq!(t.predict(q).unwrap().to_bits(), b.to_bits());
        }
    }
}

// Ensemble determinism: the contract the forecaster zoo is built on.
// Case counts are capped separately — every case fits the same forest
// four times (once per worker count).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A bagged forest is bit-identical at every worker count: the
    /// per-tree bootstrap seeds depend only on (cell seed, tree slot) and
    /// the sharded executor reduces in index order, so `parallelism` can
    /// never leak into the fitted model or its predictions.
    #[test]
    fn forest_is_bit_identical_across_worker_counts(
        xs in proptest::collection::vec(-30.0f64..30.0, 24..72),
        seed in 0u64..1_000_000,
        n_trees in 1usize..8,
    ) {
        let (rows, ys) = dataset(&xs);
        let tree = TreeConfig { max_depth: 4, ..Default::default() };
        let fits: Vec<BaggedForest> = [Some(1), None, Some(2), Some(4)]
            .into_iter()
            .map(|parallelism| {
                BaggedForest::fit(&rows, &ys, &ForestConfig {
                    n_trees, tree, seed, parallelism,
                }).unwrap()
            })
            .collect();
        let baseline = &fits[0];
        let base_preds = baseline.predict_many(&rows).unwrap();
        for other in &fits[1..] {
            prop_assert_eq!(other, baseline);
            let preds = other.predict_many(&rows).unwrap();
            for (a, b) in base_preds.iter().zip(&preds) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // Scalar and batched prediction agree bitwise as well.
        for (row, b) in rows.iter().zip(&base_preds) {
            prop_assert_eq!(baseline.predict(row).unwrap().to_bits(), b.to_bits());
        }
    }

    /// The bootstrap index stream is a pure function of (seed, n): same
    /// inputs reproduce the same resample; different seeds are free to
    /// (and in practice do) differ. Every index is in range.
    #[test]
    fn bootstrap_indices_are_reproducible_and_in_range(
        seed in 0u64..u64::MAX,
        n in 1usize..500,
    ) {
        let a = bootstrap_indices(seed, n);
        let b = bootstrap_indices(seed, n);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), n);
        prop_assert!(a.iter().all(|&i| i < n));
        let other = bootstrap_indices(seed ^ 0x9E37_79B9_7F4A_7C15, n);
        if n > 8 {
            // With ≥9 draws over ≥9 values, two independent streams
            // colliding entirely is astronomically unlikely.
            prop_assert_ne!(&a, &other);
        }
    }

    /// Boosted fits are deterministic (same inputs → same model, bitwise)
    /// and the staged batched prediction matches the scalar walk.
    #[test]
    fn boosted_fit_is_deterministic_and_batch_matches_scalar(
        xs in proptest::collection::vec(-25.0f64..25.0, 24..64),
        rounds in 1usize..12,
        shrinkage in 0.05f64..1.0,
    ) {
        let (rows, ys) = dataset(&xs);
        let cfg = BoostConfig { rounds, shrinkage, ..Default::default() };
        let a = BoostedTrees::fit(&rows, &ys, &cfg).unwrap();
        let b = BoostedTrees::fit(&rows, &ys, &cfg).unwrap();
        prop_assert_eq!(&a, &b);
        let batch = a.predict_many(&rows).unwrap();
        for (row, p) in rows.iter().zip(&batch) {
            prop_assert_eq!(a.predict(row).unwrap().to_bits(), p.to_bits());
        }
    }
}
