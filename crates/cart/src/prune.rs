//! Reduced-error pruning against a holdout set.
//!
//! "To avoid overfitting, we prune the tree to keep only 88% of the
//! original standard deviations." (§VI-B). Read as a generalization bar
//! for model trees: a subtree is kept only when its holdout RMSE is below
//! `retention ×` the holdout RMSE of the single leaf model the node would
//! collapse into; splits that fail the bar are collapsed. Collapsing
//! proceeds bottom-up.

use crate::tree::{Node, RegressionTree};
use crate::{CartError, Result};

/// Reduced-error pruning against a holdout set: a subtree survives only
/// when its holdout RMSE is at least `(1 − retention)` relatively better
/// than the RMSE of the leaf model the node would collapse into (i.e. the
/// subtree must satisfy `subtree_rmse < retention × collapsed_rmse`).
/// Nodes that receive no holdout samples are kept (no evidence against
/// the training fit). Returns the number of collapsed internal nodes.
///
/// The spatiotemporal model prunes each tree this way: the paper's 0.88
/// retention factor demands a 12% generalization improvement per kept
/// subtree.
///
/// # Errors
///
/// * [`CartError::InvalidParameter`] unless `0 < retention <= 1`.
/// * [`CartError::FeatureWidthMismatch`] when holdout rows have the wrong
///   width.
/// * [`CartError::ShapeMismatch`] when `xs` and `ys` lengths differ.
/// * [`CartError::NonFiniteInput`] when a holdout feature or target is
///   NaN or infinite, or a subtree's or collapsed leaf's holdout SSE is
///   not finite (finite targets whose squared errors overflow): such an
///   SSE cannot rank a subtree against its leaf.
///
/// On error the tree is left unchanged.
pub fn prune_holdout(
    tree: &mut RegressionTree,
    xs: &[Vec<f64>],
    ys: &[f64],
    retention: f64,
) -> Result<usize> {
    if !(retention > 0.0 && retention <= 1.0) {
        return Err(CartError::InvalidParameter {
            name: "retention",
            detail: format!("must lie in (0, 1], got {retention}"),
        });
    }
    if xs.len() != ys.len() {
        return Err(CartError::ShapeMismatch {
            detail: format!("{} holdout rows vs {} targets", xs.len(), ys.len()),
        });
    }
    for row in xs {
        if row.len() != tree.n_features() {
            return Err(CartError::FeatureWidthMismatch {
                expected: tree.n_features(),
                actual: row.len(),
            });
        }
    }
    if xs.iter().flatten().chain(ys).any(|v| !v.is_finite()) {
        return Err(CartError::NonFiniteInput);
    }
    // Prune a copy: an SSE that overflows deep in the recursion must not
    // leave the tree half pruned.
    let indices: Vec<usize> = (0..xs.len()).collect();
    let mut collapsed = 0usize;
    let mut root = tree.root.clone();
    prune_node_holdout(&mut root, xs, ys, &indices, retention, &mut collapsed)?;
    tree.root = root;
    Ok(collapsed)
}

/// Returns the subtree's holdout SSE after pruning below `node`.
fn prune_node_holdout(
    node: &mut Node,
    xs: &[Vec<f64>],
    ys: &[f64],
    indices: &[usize],
    retention: f64,
    collapsed: &mut usize,
) -> Result<f64> {
    let sse_of = |model: &crate::leaf::LeafModel| -> Result<f64> {
        let mut sse = 0.0;
        for &i in indices {
            let e = model.predict(&xs[i])? - ys[i];
            sse += e * e;
        }
        if !sse.is_finite() {
            return Err(CartError::NonFiniteInput);
        }
        Ok(sse)
    };
    let (leaf, sse) = match node {
        Node::Leaf { model } => return sse_of(model),
        Node::Internal { feature, threshold, left, right, collapsed: fallback } => {
            let (li, ri): (Vec<usize>, Vec<usize>) =
                indices.iter().partition(|&&i| xs[i][*feature] <= *threshold);
            let subtree_sse = prune_node_holdout(left, xs, ys, &li, retention, collapsed)?
                + prune_node_holdout(right, xs, ys, &ri, retention, collapsed)?;
            if !subtree_sse.is_finite() {
                return Err(CartError::NonFiniteInput);
            }
            let collapsed_sse = sse_of(fallback)?;
            // With no holdout evidence the split is kept (the training fit
            // is all we know); otherwise the subtree must beat the
            // collapsed leaf by the retention margin.
            let keep = indices.is_empty() || subtree_sse.sqrt() < retention * collapsed_sse.sqrt();
            if keep {
                return Ok(subtree_sse);
            }
            (Node::Leaf { model: fallback.clone() }, collapsed_sse)
        }
    };
    *node = leaf;
    *collapsed += 1;
    Ok(sse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::LeafKind;
    use crate::tree::TreeConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn noise_tree(seed: u64, max_depth: usize) -> RegressionTree {
        // Pure noise: every split is spurious.
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> =
            (0..300).map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()]).collect();
        let ys: Vec<f64> = (0..300).map(|_| rng.gen::<f64>()).collect();
        RegressionTree::fit(
            &xs,
            &ys,
            &TreeConfig {
                max_depth,
                min_impurity_decrease: 0.0,
                leaf_kind: LeafKind::Constant,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn signal_tree() -> RegressionTree {
        let xs: Vec<Vec<f64>> = (-50..50).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (-50..50).map(|i| if i < 0 { 0.0 } else { 100.0 }).collect();
        RegressionTree::fit(
            &xs,
            &ys,
            &TreeConfig { leaf_kind: LeafKind::Constant, ..Default::default() },
        )
        .unwrap()
    }

    /// Noise rows with a disjoint noise holdout: every split is spurious.
    fn noise_holdout(seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> =
            (0..100).map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()]).collect();
        let ys: Vec<f64> = (0..100).map(|_| rng.gen::<f64>()).collect();
        (xs, ys)
    }

    #[test]
    fn lower_retention_prunes_more() {
        // A split survives only if its holdout RMSE beats retention × the
        // collapsed leaf's, so a lower retention is a stricter bar.
        let (xs, ys) = noise_holdout(6);
        let mut strict = noise_tree(5, 8);
        let mut loose = strict.clone();
        prune_holdout(&mut strict, &xs, &ys, 0.5).unwrap();
        prune_holdout(&mut loose, &xs, &ys, 1.0).unwrap();
        assert!(strict.n_leaves() <= loose.n_leaves());
    }

    #[test]
    fn pruned_tree_still_predicts() {
        let (xs, ys) = noise_holdout(8);
        let mut t = noise_tree(7, 6);
        prune_holdout(&mut t, &xs, &ys, 0.88).unwrap();
        let y = t.predict(&[0.5, 0.5]).unwrap();
        assert!(y.is_finite());
        // Noise targets live in [0, 1]; a collapsed mean must too.
        assert!((0.0..=1.0).contains(&y));
    }

    #[test]
    fn holdout_pruning_collapses_noise_keeps_signal() {
        // Noise: holdout errors cannot improve → everything collapses.
        let mut rng = StdRng::seed_from_u64(41);
        let xs: Vec<Vec<f64>> = (0..400).map(|_| vec![rng.gen::<f64>()]).collect();
        let ys: Vec<f64> = (0..400).map(|_| rng.gen::<f64>()).collect();
        let (train_x, val_x) = xs.split_at(300);
        let (train_y, val_y) = ys.split_at(300);
        let mut noise = RegressionTree::fit(
            train_x,
            train_y,
            &TreeConfig {
                min_impurity_decrease: 0.0,
                leaf_kind: LeafKind::Constant,
                ..Default::default()
            },
        )
        .unwrap();
        prune_holdout(&mut noise, val_x, val_y, 0.88).unwrap();
        assert_eq!(noise.n_leaves(), 1, "noise tree should collapse to the root");

        // Signal: the step split survives.
        let xs: Vec<Vec<f64>> = (-60..60).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (-60..60).map(|i| if i < 0 { 0.0 } else { 100.0 }).collect();
        let mut signal = RegressionTree::fit(
            &xs,
            &ys,
            &TreeConfig { leaf_kind: LeafKind::Constant, ..Default::default() },
        )
        .unwrap();
        let collapsed = prune_holdout(&mut signal, &xs, &ys, 0.88).unwrap();
        assert_eq!(collapsed, 0);
        assert_eq!(signal.predict(&[10.0]).unwrap(), 100.0);
    }

    #[test]
    fn holdout_pruning_validates_inputs() {
        let mut t = signal_tree();
        assert!(prune_holdout(&mut t, &[vec![1.0]], &[1.0, 2.0], 0.88).is_err());
        assert!(prune_holdout(&mut t, &[vec![1.0, 2.0]], &[1.0], 0.88).is_err());
        assert!(prune_holdout(&mut t, &[vec![1.0]], &[1.0], 0.0).is_err());
    }

    #[test]
    fn holdout_pruning_with_empty_holdout_keeps_tree() {
        // No evidence either way: trust the training fit.
        let mut t = signal_tree();
        let before = t.n_leaves();
        prune_holdout(&mut t, &[], &[], 0.88).unwrap();
        assert_eq!(t.n_leaves(), before);
    }

    #[test]
    fn non_finite_holdout_is_a_typed_error_and_leaves_the_tree() {
        // A clean two-leaf step tree. One NaN target, one infinite
        // feature, or one finite target whose squared error overflows
        // would otherwise read as "subtree not better" and collapse it.
        let signal = signal_tree();
        assert_eq!(signal.n_leaves(), 2);
        let xs: Vec<Vec<f64>> = (-10..10).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (-10..10).map(|i| if i < 0 { 0.0 } else { 100.0 }).collect();
        let mut nan_target = ys.clone();
        nan_target[3] = f64::NAN;
        let mut huge_target = ys.clone();
        huge_target[15] = 1e300;
        let mut inf_feature = xs.clone();
        inf_feature[4][0] = f64::INFINITY;
        for (xs, ys) in [(&xs, &nan_target), (&xs, &huge_target), (&inf_feature, &ys)] {
            let mut t = signal.clone();
            assert_eq!(prune_holdout(&mut t, xs, ys, 0.88), Err(CartError::NonFiniteInput));
            assert_eq!(t, signal);
        }
        // The clean holdout keeps the split.
        let mut t = signal.clone();
        assert_eq!(prune_holdout(&mut t, &xs, &ys, 0.88), Ok(0));
        assert_eq!(t, signal);
    }

    #[test]
    fn invalid_retention_rejected() {
        let mut t = signal_tree();
        for retention in [0.0, 1.5, -0.1, f64::NAN] {
            assert!(prune_holdout(&mut t, &[vec![1.0]], &[1.0], retention).is_err());
        }
    }
}
