//! The pre-presorting CART grower, retained as a bit-identity oracle.
//!
//! This is the original per-node-sort implementation: every node clones
//! its cell (`gather`), re-sorts the cell's indices per feature, and fits
//! the fallback leaf model separately from the node's own leaf. It is
//! kept verbatim, minus the two crash paths the presorted grower also
//! guards (the `partial_cmp(...).expect` on the sort and the
//! `len - min_samples_leaf` underflow, both unreachable for inputs that
//! pass [`crate::tree::validate`]), and with the grower's typed errors for
//! a non-finite child SSE, which the original let win as NaN, and for a
//! leaf whose residual sum of squares overflows. The module
//! is compiled only for the crate's own tests: the property tests at the
//! bottom assert that [`RegressionTree::fit`], the shared multi-kind
//! grower and pruning produce structurally identical trees with
//! bit-equal predictions.

use crate::leaf::LeafModel;
use crate::tree::{midpoint, validate, Node, RegressionTree, TreeConfig};
use crate::{CartError, Result};

/// Grows a tree with the reference (per-node sorting, cell-cloning)
/// algorithm. Same inputs, same outputs, same errors as
/// [`RegressionTree::fit`] — only slower.
///
/// # Errors
///
/// Identical to [`RegressionTree::fit`].
pub fn fit_reference(xs: &[Vec<f64>], ys: &[f64], config: &TreeConfig) -> Result<RegressionTree> {
    let width = validate(xs, ys, config)?;
    let indices: Vec<usize> = (0..xs.len()).collect();
    let root = grow(xs, ys, &indices, config, 0)?;
    Ok(RegressionTree { root, n_features: width, config: *config })
}

fn node_sse(ys: &[f64], indices: &[usize]) -> f64 {
    let n = indices.len() as f64;
    let sum: f64 = indices.iter().map(|&i| ys[i]).sum();
    let mean = sum / n;
    indices.iter().map(|&i| (ys[i] - mean).powi(2)).sum()
}

fn gather(xs: &[Vec<f64>], ys: &[f64], indices: &[usize]) -> (Vec<Vec<f64>>, Vec<f64>) {
    (indices.iter().map(|&i| xs[i].clone()).collect(), indices.iter().map(|&i| ys[i]).collect())
}

fn grow(
    xs: &[Vec<f64>],
    ys: &[f64],
    indices: &[usize],
    config: &TreeConfig,
    depth: usize,
) -> Result<Node> {
    let node_sse = node_sse(ys, indices);
    let (cell_x, cell_y) = gather(xs, ys, indices);
    let fit_leaf = || -> Result<LeafModel> {
        let model = LeafModel::fit(config.leaf_kind, &cell_x, &cell_y)?;
        check_residuals(&model, &cell_x, &cell_y)?;
        Ok(model)
    };
    let leaf_here = || -> Result<Node> { Ok(Node::Leaf { model: fit_leaf()? }) };

    if depth >= config.max_depth
        || indices.len() < config.min_samples_split
        || node_sse <= f64::EPSILON
        // The original expression `total_n - min_samples_leaf` below
        // underflowed here; an impossible cut range is a leaf.
        || config.min_samples_leaf.saturating_mul(2) > indices.len()
    {
        return leaf_here();
    }

    // Exhaustive best-split scan, re-sorting the cell per feature.
    let width = xs[0].len();
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, child_sse)
    #[allow(clippy::needless_range_loop)] // `feature` indexes rows of `xs`, not one slice
    for feature in 0..width {
        let mut order: Vec<usize> = indices.to_vec();
        order.sort_by(|&a, &b| {
            xs[a][feature].partial_cmp(&xs[b][feature]).unwrap_or(std::cmp::Ordering::Equal)
        });
        // Prefix sums over the sorted order for O(n) threshold scan.
        let vals: Vec<f64> = order.iter().map(|&i| ys[i]).collect();
        let mut prefix_sum = vec![0.0; vals.len() + 1];
        let mut prefix_sq = vec![0.0; vals.len() + 1];
        for (i, v) in vals.iter().enumerate() {
            prefix_sum[i + 1] = prefix_sum[i] + v;
            prefix_sq[i + 1] = prefix_sq[i] + v * v;
        }
        let total_n = vals.len();
        for cut in config.min_samples_leaf..=(total_n - config.min_samples_leaf) {
            let fv_left = xs[order[cut - 1]][feature];
            let fv_right = xs[order[cut]][feature];
            if fv_left == fv_right {
                continue; // cannot split between equal values
            }
            let nl = cut as f64;
            let nr = (total_n - cut) as f64;
            let sse_left = prefix_sq[cut] - prefix_sum[cut].powi(2) / nl;
            let sum_r = prefix_sum[total_n] - prefix_sum[cut];
            let sq_r = prefix_sq[total_n] - prefix_sq[cut];
            let sse_right = sq_r - sum_r.powi(2) / nr;
            let child_sse = sse_left + sse_right;
            if !child_sse.is_finite() {
                return Err(CartError::NonFiniteInput); // squares overflowed: no cut ranks
            }
            if best.as_ref().is_none_or(|(_, _, s)| child_sse < *s) {
                best = Some((feature, midpoint(fv_left, fv_right), child_sse));
            }
        }
    }

    let Some((feature, threshold, child_sse)) = best else {
        return leaf_here();
    };
    let decrease = node_sse - child_sse;
    if decrease < config.min_impurity_decrease * node_sse.max(f64::EPSILON) {
        return leaf_here();
    }

    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
        indices.iter().partition(|&&i| xs[i][feature] <= threshold);
    let left = grow(xs, ys, &left_idx, config, depth + 1)?;
    let right = grow(xs, ys, &right_idx, config, depth + 1)?;
    let collapsed = fit_leaf()?;
    Ok(Node::Internal {
        feature,
        threshold,
        left: Box::new(left),
        right: Box::new(right),
        collapsed,
    })
}

/// Checks a fitted leaf model's residuals on its cell: a residual sum of
/// squares that overflows is a [`CartError::NonFiniteInput`], as in the
/// presorted grower.
fn check_residuals(model: &LeafModel, xs: &[Vec<f64>], ys: &[f64]) -> Result<()> {
    let mut sse = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let e = model.predict(x)? - y;
        sse += e * e;
    }
    if !sse.is_finite() {
        return Err(CartError::NonFiniteInput);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::fit_reference;
    use crate::leaf::LeafKind;
    use crate::prune::prune_holdout;
    use crate::tree::{PresortedDesign, RegressionTree, TreeConfig};
    use proptest::prelude::*;

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

        /// Holdout reduced-error pruning collapses exactly the same nodes
        /// on a presorted tree as on the reference tree: the `collapsed`
        /// fallback models are part of the bit-identity contract.
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

    /// Two adjacent feature values whose sum overflows still split at a
    /// finite midpoint, in both growers alike.
    #[test]
    fn overflowing_midpoint_splits_in_both_growers() {
        let rows: Vec<Vec<f64>> =
            (0..20).map(|i| vec![if i % 2 == 0 { 1e308 } else { 1.5e308 }, i as f64]).collect();
        let ys: Vec<f64> = rows.iter().map(|x| if x[0] < 1.2e308 { 1.0 } else { 5.0 }).collect();
        let cfg = TreeConfig { leaf_kind: LeafKind::Constant, ..TreeConfig::default() };
        let presorted = RegressionTree::fit(&rows, &ys, &cfg).unwrap();
        assert_eq!(presorted, fit_reference(&rows, &ys, &cfg).unwrap());
        assert_eq!(presorted.n_leaves(), 2);
        assert_eq!(presorted.predict(&[1e308, 0.0]).unwrap(), 1.0);
        assert_eq!(presorted.predict(&[1.5e308, 0.0]).unwrap(), 5.0);
    }

    /// `1 + 1 ulp` and `1 + 2 ulp` have a rounded midpoint equal to the
    /// larger value; the threshold must still separate them.
    #[test]
    fn adjacent_float_midpoint_splits_in_both_growers() {
        let a = f64::from_bits(1.0f64.to_bits() + 1);
        let b = f64::from_bits(1.0f64.to_bits() + 2);
        assert_eq!((a + b) / 2.0, b, "the plain midpoint rounds up to b");
        let rows: Vec<Vec<f64>> =
            (0..20).map(|i| vec![if i % 2 == 0 { a } else { b }, i as f64]).collect();
        let ys: Vec<f64> = rows.iter().map(|x| if x[0] == a { 1.0 } else { 5.0 }).collect();
        let cfg = TreeConfig { leaf_kind: LeafKind::Constant, ..TreeConfig::default() };
        let presorted = RegressionTree::fit(&rows, &ys, &cfg).unwrap();
        assert_eq!(presorted, fit_reference(&rows, &ys, &cfg).unwrap());
        assert_eq!(presorted.n_leaves(), 2);
        assert_eq!(presorted.predict(&[a, 0.0]).unwrap(), 1.0);
        assert_eq!(presorted.predict(&[b, 0.0]).unwrap(), 5.0);
    }

    // The split scan's gather, prefix, score and first-minimum passes at
    // the spatiotemporal model's width (13 features) and at node sizes a
    // refit window produces. Capped like the block above: each case runs
    // the reference grower twice on up to 600 rows.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every tree of the shared grower equals the reference grower's on
        /// designs with low-cardinality columns (sort ties, masked cuts), a
        /// column mixing -0.0, 0.0 and 1.0 (equal values of two signs), a
        /// constant column (every cut masked) and `min_samples_leaf` near
        /// `len / 2` (a handful of cuts). With `palindromic` targets —
        /// small integers symmetric in row order — every prefix sum is
        /// exact, so at the root cut `c` and cut `len - c` of feature 0 tie
        /// exactly on `child_sse`, and features 1 (`2i`) and 7 (`-i`, the
        /// reversed order) tie feature 0 cut for cut. The targets' plateau
        /// makes those tied cuts the best ones: the first cut of the first
        /// feature must win, as in the sequential strict-`<` scan.
        #[test]
        fn presorted_grow_matches_reference_grow_at_model_width(
            cells in proptest::collection::vec((0u8..5, -100i32..100, 0usize..3), 64..600),
            palindromic in 0u8..2,
            half_leaf in 0u8..2,
            slack in 0usize..6,
            max_depth in 1usize..6,
            min_impurity_decrease in 0.0f64..0.02,
        ) {
            let n = cells.len();
            let rows: Vec<Vec<f64>> = cells
                .iter()
                .enumerate()
                .map(|(i, &(a, b, c))| {
                    let signed_zero = [-0.0, 0.0, 1.0][c];
                    let (i, a, b) = (i as f64, a as f64, b as f64);
                    vec![
                        i,
                        2.0 * i,
                        a,
                        signed_zero,
                        7.0,
                        b / 8.0,
                        a * signed_zero,
                        -i,
                        (i * 37.0) % 11.0,
                        b.abs(),
                        a + c as f64,
                        if i % 2.0 == 0.0 { -0.0 } else { b },
                        (b % 3.0) * 0.5,
                    ]
                })
                .collect();
            let ys: Vec<f64> = if palindromic == 1 {
                // A plateau over the middle half plus small integer noise,
                // symmetric in row order.
                let y = |m: usize| f64::from(u8::from(m >= n / 4) * 50) + cells[m].0 as f64;
                (0..n).map(|i| y(i.min(n - 1 - i))).collect()
            } else {
                let y = |r: &Vec<f64>| (r[0] * 0.05).sin() * 20.0 + r[5] * 3.0 + r[2] * r[2];
                rows.iter().map(y).collect()
            };
            let min_samples_leaf =
                if half_leaf == 1 { (n / 2).saturating_sub(slack).max(1) } else { 1 + slack };
            let cfg = TreeConfig {
                max_depth,
                min_samples_split: 2,
                min_samples_leaf,
                min_impurity_decrease,
                leaf_kind: LeafKind::Linear,
            };
            let design = PresortedDesign::new(&rows).unwrap();
            let kinds = [LeafKind::Linear, LeafKind::Constant];
            let trees = design.fit_leaf_kinds(&ys, &cfg, kinds).unwrap();
            for (tree, leaf_kind) in trees.iter().zip(kinds) {
                let kind_cfg = TreeConfig { leaf_kind, ..cfg };
                let reference = fit_reference(&rows, &ys, &kind_cfg).unwrap();
                prop_assert_eq!(tree, &reference);
                for row in rows.iter().step_by(7) {
                    prop_assert_eq!(
                        tree.predict(row).unwrap().to_bits(),
                        reference.predict(row).unwrap().to_bits()
                    );
                }
            }
        }
    }
}
