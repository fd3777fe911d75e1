//! Property-based tests for the regression-tree substrate.

use ddos_cart::ensemble::{
    bootstrap_indices, BaggedForest, BoostConfig, BoostedTrees, ForestConfig,
};
use ddos_cart::leaf::LeafKind;
use ddos_cart::prune::{prune, prune_holdout};
use ddos_cart::reference::fit_reference;
use ddos_cart::tree::{PresortedDesign, RegressionTree, TreeConfig};
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
        prune(&mut t, retention).unwrap();
        prop_assert!(t.n_leaves() <= before);
        for x in rows.iter().take(8) {
            prop_assert!(t.predict(x).unwrap().is_finite());
        }

        let mut t2 = RegressionTree::fit(&rows, &ys, &TreeConfig::default()).unwrap();
        let before2 = t2.n_leaves();
        prune_holdout(&mut t2, &rows, &ys, retention).unwrap();
        prop_assert!(t2.n_leaves() <= before2);
        for x in rows.iter().take(8) {
            prop_assert!(t2.predict(x).unwrap().is_finite());
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

    /// Batched prediction is bit-identical to the scalar walk: the
    /// level-order kernel partitions rows with the same comparison and
    /// evaluates the same leaf model the per-row loop does.
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

// The reference-grower comparisons fit every case twice, once with the
// retained O(n log n · width)-per-node reference implementation — by far
// the most expensive properties in the workspace. Their case counts and
// design sizes are capped separately so the oracle keeps real coverage
// without dominating CI wall-clock (the cost gate the roadmap calls for).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The presorted grower is bit-identical to the retained reference
    /// grower: structurally equal trees (same splits, thresholds, leaf
    /// models, and node statistics — `RegressionTree` derives a full
    /// structural `PartialEq`) and bit-equal predictions, across random
    /// designs (including a low-cardinality feature that forces sort
    /// ties) and random growth configurations.
    #[test]
    fn presorted_grow_matches_reference_grow(
        points in proptest::collection::vec(
            (-50.0f64..50.0, -50.0f64..50.0, 0u8..4), 8..40),
        max_depth in 1usize..7,
        min_samples_split in 2usize..12,
        min_samples_leaf in 1usize..6,
        min_impurity_decrease in 0.0f64..0.05,
        mlr in 0u8..2,
    ) {
        let rows: Vec<Vec<f64>> =
            points.iter().map(|(a, b, c)| vec![*a, *b, *c as f64]).collect();
        let ys: Vec<f64> = points
            .iter()
            .map(|(a, b, c)| if *a < 0.0 { a * 2.0 + b } else { 10.0 - b + *c as f64 })
            .collect();
        let cfg = TreeConfig {
            max_depth,
            min_samples_split,
            min_samples_leaf,
            min_impurity_decrease,
            leaf_kind: if mlr == 1 { LeafKind::Linear } else { LeafKind::Constant },
        };
        let presorted = RegressionTree::fit(&rows, &ys, &cfg).unwrap();
        let reference = fit_reference(&rows, &ys, &cfg).unwrap();
        prop_assert_eq!(&presorted, &reference);
        for row in &rows {
            prop_assert_eq!(
                presorted.predict(row).unwrap().to_bits(),
                reference.predict(row).unwrap().to_bits()
            );
        }
        for probe in [-75.0, -1.0, 0.0, 3.5, 60.0] {
            let p = vec![probe, -probe * 0.7, 2.0];
            prop_assert_eq!(
                presorted.predict(&p).unwrap().to_bits(),
                reference.predict(&p).unwrap().to_bits()
            );
        }
    }

    /// One growth for several leaf kinds, on one presorted design reused
    /// across several targets: each returned tree is structurally equal
    /// to the reference grower's tree for its leaf kind and predicts
    /// bit-identically, and every tree equals a fresh fit on its own.
    #[test]
    fn shared_grower_matches_reference_per_leaf_kind(
        points in proptest::collection::vec(
            (-50.0f64..50.0, -50.0f64..50.0, 0u8..4), 8..40),
        max_depth in 1usize..7,
        min_samples_split in 2usize..12,
        min_samples_leaf in 1usize..6,
        min_impurity_decrease in 0.0f64..0.05,
    ) {
        let rows: Vec<Vec<f64>> =
            points.iter().map(|(a, b, c)| vec![*a, *b, *c as f64]).collect();
        let targets: [Vec<f64>; 3] = [
            points
                .iter()
                .map(|(a, b, c)| if *a < 0.0 { a * 2.0 + b } else { 10.0 - b + *c as f64 })
                .collect(),
            points.iter().map(|(a, b, _)| a * b * 0.01).collect(),
            points.iter().map(|(_, _, c)| (*c as f64).powi(2)).collect(),
        ];
        let cfg = TreeConfig {
            max_depth,
            min_samples_split,
            min_samples_leaf,
            min_impurity_decrease,
            leaf_kind: LeafKind::Linear,
        };
        let design = PresortedDesign::new(&rows).unwrap();
        let kinds = [LeafKind::Linear, LeafKind::Constant];
        for ys in &targets {
            let trees = design.fit_leaf_kinds(ys, &cfg, kinds).unwrap();
            let fresh =
                PresortedDesign::new(&rows).unwrap().fit_leaf_kinds(ys, &cfg, kinds).unwrap();
            prop_assert_eq!(&trees, &fresh);
            for (tree, leaf_kind) in trees.iter().zip(kinds) {
                let kind_cfg = TreeConfig { leaf_kind, ..cfg };
                let reference = fit_reference(&rows, ys, &kind_cfg).unwrap();
                prop_assert_eq!(tree, &reference);
                prop_assert_eq!(tree, &RegressionTree::fit(&rows, ys, &kind_cfg).unwrap());
                prop_assert_eq!(tree, &design.fit(ys, &kind_cfg).unwrap());
                for row in &rows {
                    prop_assert_eq!(
                        tree.predict(row).unwrap().to_bits(),
                        reference.predict(row).unwrap().to_bits()
                    );
                }
            }
        }
    }

    /// Pruning (both the std-retention rule and holdout reduced-error
    /// pruning) collapses exactly the same nodes on a presorted tree as
    /// on the reference tree: the prune statistics (`collapsed` models
    /// and residual stds) are part of the bit-identity contract.
    #[test]
    fn prune_after_fit_matches_reference(
        points in proptest::collection::vec(
            (-30.0f64..30.0, 0u8..6), 16..48),
        retention in 0.5f64..1.0,
        mlr in 0u8..2,
    ) {
        let rows: Vec<Vec<f64>> = points.iter().map(|(a, c)| vec![*a, *c as f64]).collect();
        let ys: Vec<f64> = points
            .iter()
            .map(|(a, c)| (*c as f64) * 3.0 + if *a < 0.0 { -5.0 } else { 5.0 })
            .collect();
        let cfg = TreeConfig {
            min_impurity_decrease: 0.0,
            leaf_kind: if mlr == 1 { LeafKind::Linear } else { LeafKind::Constant },
            ..Default::default()
        };
        let mut presorted = RegressionTree::fit(&rows, &ys, &cfg).unwrap();
        let mut reference = fit_reference(&rows, &ys, &cfg).unwrap();
        let collapsed_p = prune(&mut presorted, retention).unwrap();
        let collapsed_r = prune(&mut reference, retention).unwrap();
        prop_assert_eq!(collapsed_p, collapsed_r);
        prop_assert_eq!(&presorted, &reference);

        let mut presorted_h = RegressionTree::fit(&rows, &ys, &cfg).unwrap();
        let mut reference_h = fit_reference(&rows, &ys, &cfg).unwrap();
        let holdout_n = rows.len() / 3;
        let collapsed_p = prune_holdout(
            &mut presorted_h, &rows[..holdout_n], &ys[..holdout_n], retention).unwrap();
        let collapsed_r = prune_holdout(
            &mut reference_h, &rows[..holdout_n], &ys[..holdout_n], retention).unwrap();
        prop_assert_eq!(collapsed_p, collapsed_r);
        prop_assert_eq!(&presorted_h, &reference_h);
    }
}
