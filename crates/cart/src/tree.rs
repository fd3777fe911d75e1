//! CART growth and prediction.
//!
//! Splits minimize the total sum of squared errors of the two children
//! (equivalently, maximize variance reduction), scanning every feature and
//! every midpoint between consecutive sorted values — the exact CART
//! procedure.
//!
//! Growth is the classic *presorted* CART algorithm. A
//! [`PresortedDesign`] validates the features once, transposes them and
//! sorts each feature column once; every growth on that design copies
//! the sort orders and threads per-feature sorted index segments
//! downward via stable partitions, so split search is O(n·width) per
//! node instead of O(n log n·width), with no per-node working buffers
//! (one shared scratch arena: each node gathers its leaf-fit rows from
//! the design's prepared `[1, x…]` rows into one reused cell buffer).
//! Splits depend only on the targets,
//! never on the leaf kind, so one growth fits every requested leaf kind
//! at each node and returns one tree per kind. The grower is
//! bit-identical to the retained reference implementation in the
//! test-only `reference` module: stable partitions preserve the
//! reference's stable-sort tie order, and every floating-point
//! reduction (node statistics, prefix-sum threshold scan, leaf fits)
//! runs in the same order over the same values. The threshold scan
//! reads contiguous per-node buffers and picks the first minimum with a
//! vectorizable lane reduction; partitions are branchless and read one
//! per-split byte mask. See DESIGN.md §10, §18 and §30 for the full
//! argument.

use crate::leaf::{LeafKind, LeafModel};
use crate::{CartError, Result};
use ddos_stats::codec::{CodecError, CodecResult, Reader, Writer};
use ddos_stats::ols::OlsScratch;
use serde::{Deserialize, Serialize};

/// Growth configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples a node must hold to be considered for splitting.
    pub min_samples_split: usize,
    /// Minimum samples either child of a split must receive.
    pub min_samples_leaf: usize,
    /// Minimum fractional SSE reduction a split must achieve.
    pub min_impurity_decrease: f64,
    /// Leaf model kind (the paper uses MLR leaves).
    pub leaf_kind: LeafKind,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 8,
            min_samples_split: 8,
            min_samples_leaf: 3,
            min_impurity_decrease: 1e-4,
            leaf_kind: LeafKind::Linear,
        }
    }
}

impl TreeConfig {
    /// Encodes the configuration verbatim (artifact payloads).
    pub fn encode(&self, w: &mut Writer) {
        w.usize(self.max_depth);
        w.usize(self.min_samples_split);
        w.usize(self.min_samples_leaf);
        w.f64(self.min_impurity_decrease);
        self.leaf_kind.encode(w);
    }

    /// Decodes a configuration written by [`TreeConfig::encode`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated input or an unknown leaf-kind tag.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        Ok(TreeConfig {
            max_depth: r.usize()?,
            min_samples_split: r.usize()?,
            min_samples_leaf: r.usize()?,
            min_impurity_decrease: r.f64()?,
            leaf_kind: LeafKind::decode(r)?,
        })
    }
}

/// A node of the fitted tree: a split with its children and the leaf it
/// collapses into when pruned, or a leaf.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Node {
    Internal {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
        /// Fallback leaf fit on this node's own samples (used if pruned).
        collapsed: LeafModel,
    },
    Leaf {
        model: LeafModel,
    },
}

/// Hard ceiling on the node-nesting depth [`Node::decode`] will follow.
///
/// A well-formed artifact nests at most `config.max_depth` internal
/// nodes, but a corrupt payload could claim an absurd `max_depth` and
/// then nest tag-1 nodes until the decoder's recursion blows the stack.
/// The budget passed down is therefore `min(max_depth + 1, this)` —
/// far above any tree this crate can realistically grow (growth itself
/// recurses, so trees anywhere near this deep cannot be fit).
const MAX_DECODE_DEPTH: usize = 4096;

impl Node {
    /// Encodes the subtree pre-order: a tag byte (0 = leaf, 1 = internal)
    /// followed by the variant's fields verbatim, children last.
    fn encode(&self, w: &mut Writer) {
        match self {
            Node::Leaf { model } => {
                w.u8(0);
                model.encode(w);
            }
            Node::Internal { feature, threshold, left, right, collapsed } => {
                w.u8(1);
                w.usize(*feature);
                w.f64(*threshold);
                collapsed.encode(w);
                left.encode(w);
                right.encode(w);
            }
        }
    }

    /// Decodes a subtree written by [`Node::encode`], validating the
    /// invariants prediction relies on: split features must index inside
    /// the tree's feature width (prediction reads `x[feature]` without a
    /// bounds check of its own), and nesting must stay within
    /// `depth_budget` so corrupt payloads cannot drive unbounded
    /// recursion.
    fn decode(r: &mut Reader<'_>, n_features: usize, depth_budget: usize) -> CodecResult<Self> {
        match r.u8()? {
            0 => Ok(Node::Leaf { model: LeafModel::decode(r)? }),
            1 => {
                let Some(budget) = depth_budget.checked_sub(1) else {
                    return Err(CodecError::Invalid {
                        detail: "tree nesting exceeds the declared maximum depth".to_string(),
                    });
                };
                let feature = r.usize()?;
                if feature >= n_features {
                    return Err(CodecError::Invalid {
                        detail: format!(
                            "split feature {feature} out of range for width {n_features}"
                        ),
                    });
                }
                let threshold = r.f64()?;
                let collapsed = LeafModel::decode(r)?;
                let left = Node::decode(r, n_features, budget)?;
                let right = Node::decode(r, n_features, budget)?;
                Ok(Node::Internal {
                    feature,
                    threshold,
                    left: Box::new(left),
                    right: Box::new(right),
                    collapsed,
                })
            }
            t => Err(CodecError::BadTag { context: "Node", tag: t as u64 }),
        }
    }
}

/// A fitted CART regression tree (optionally a model tree, depending on
/// [`TreeConfig::leaf_kind`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    pub(crate) root: Node,
    pub(crate) n_features: usize,
    pub(crate) config: TreeConfig,
}

impl RegressionTree {
    /// Grows a tree on `(xs, ys)`.
    ///
    /// # Errors
    ///
    /// * [`CartError::EmptyTrainingSet`] for empty input.
    /// * [`CartError::ShapeMismatch`] for ragged rows or length mismatch.
    /// * [`CartError::NonFiniteInput`] for NaN/∞ values, and for finite
    ///   targets so large that a node's mean or squared deviations, or a
    ///   leaf's residuals, overflow.
    /// * [`CartError::InvalidParameter`] for degenerate configuration.
    ///
    /// This is the one-kind call of the presorted grower; to grow several
    /// trees on one design, build a [`PresortedDesign`] once instead.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], config: &TreeConfig) -> Result<Self> {
        let width = validate(xs, ys, config)?;
        let [tree] = PresortedDesign::build(xs, width).grow(ys, config, [config.leaf_kind])?;
        Ok(tree)
    }

    /// Predicts for one feature row.
    ///
    /// # Errors
    ///
    /// Returns [`CartError::FeatureWidthMismatch`] for wrong-width input.
    pub fn predict(&self, x: &[f64]) -> Result<f64> {
        if x.len() != self.n_features {
            return Err(CartError::FeatureWidthMismatch {
                expected: self.n_features,
                actual: x.len(),
            });
        }
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { model, .. } => return model.predict(x),
                Node::Internal { feature, threshold, left, right, .. } => {
                    node = if x[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Predicts for many rows: [`RegressionTree::predict`] per row, in
    /// row order.
    ///
    /// # Errors
    ///
    /// Same as [`RegressionTree::predict`], for the first failing row.
    pub fn predict_many(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        fn count(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Internal { left, right, .. } => count(left) + count(right),
            }
        }
        count(&self.root)
    }

    /// Maximum depth of any leaf (root = 0).
    pub fn depth(&self) -> usize {
        fn depth(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 0,
                Node::Internal { left, right, .. } => 1 + depth(left).max(depth(right)),
            }
        }
        depth(&self.root)
    }

    /// Number of features the tree was trained with.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Encodes the fitted tree verbatim: configuration, feature width,
    /// then the node structure pre-order. Decoding reconstructs every
    /// field bit-for-bit, so a reloaded tree predicts bit-identically.
    pub fn encode(&self, w: &mut Writer) {
        self.config.encode(w);
        w.usize(self.n_features);
        self.root.encode(w);
    }

    /// Decodes a tree written by [`RegressionTree::encode`].
    ///
    /// Structural invariants are checked during decoding — split features
    /// in range, node nesting bounded by the declared `max_depth` (capped
    /// at an internal hard limit) — so a corrupt or truncated payload
    /// yields a typed [`CodecError`], never a panic or unbounded
    /// recursion downstream.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated, tag-corrupt or inconsistent input.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        let config = TreeConfig::decode(r)?;
        let n_features = r.usize()?;
        if n_features == 0 {
            return Err(CodecError::Invalid { detail: "zero-width feature space".to_string() });
        }
        let budget = config.max_depth.saturating_add(1).min(MAX_DECODE_DEPTH);
        let root = Node::decode(r, n_features, budget)?;
        Ok(RegressionTree { root, n_features, config })
    }
}

/// Validates configuration and training data, returning the feature
/// width. Shared by the presorted grower and [`crate::reference`], so
/// both accept and reject exactly the same inputs.
pub(crate) fn validate(xs: &[Vec<f64>], ys: &[f64], config: &TreeConfig) -> Result<usize> {
    validate_config(config)?;
    if xs.is_empty() || ys.is_empty() {
        return Err(CartError::EmptyTrainingSet);
    }
    if xs.len() != ys.len() {
        return Err(CartError::ShapeMismatch {
            detail: format!("{} rows vs {} targets", xs.len(), ys.len()),
        });
    }
    let width = validate_features(xs)?;
    validate_targets(ys)?;
    Ok(width)
}

fn validate_config(config: &TreeConfig) -> Result<()> {
    if config.max_depth < 1 {
        return Err(CartError::InvalidParameter {
            name: "max_depth",
            detail: "must be at least 1 (a depth-0 tree cannot split)".to_string(),
        });
    }
    if config.min_samples_split < 2 {
        return Err(CartError::InvalidParameter {
            name: "min_samples_split",
            detail: "must be at least 2 (a split needs two children)".to_string(),
        });
    }
    if config.min_samples_leaf < 1 {
        return Err(CartError::InvalidParameter {
            name: "min_samples_leaf",
            detail: "must be at least 1".to_string(),
        });
    }
    if !(config.min_impurity_decrease >= 0.0 && config.min_impurity_decrease.is_finite()) {
        return Err(CartError::InvalidParameter {
            name: "min_impurity_decrease",
            detail: format!(
                "must be finite and non-negative, got {}",
                config.min_impurity_decrease
            ),
        });
    }
    Ok(())
}

/// Checks a non-empty feature matrix, returning its width.
fn validate_features(xs: &[Vec<f64>]) -> Result<usize> {
    let Some(first) = xs.first() else {
        return Err(CartError::EmptyTrainingSet);
    };
    if RowId::try_from(xs.len()).is_err() {
        return Err(CartError::ShapeMismatch {
            detail: format!("{} rows exceed the {} a design can index", xs.len(), RowId::MAX),
        });
    }
    let width = first.len();
    if width == 0 {
        return Err(CartError::ShapeMismatch { detail: "zero-width features".to_string() });
    }
    for (i, row) in xs.iter().enumerate() {
        if row.len() != width {
            return Err(CartError::ShapeMismatch {
                detail: format!("row {i} has width {}, expected {width}", row.len()),
            });
        }
    }
    if xs.iter().flatten().any(|v| !v.is_finite()) {
        return Err(CartError::NonFiniteInput);
    }
    Ok(width)
}

fn validate_targets(ys: &[f64]) -> Result<()> {
    if ys.iter().any(|v| !v.is_finite()) {
        return Err(CartError::NonFiniteInput);
    }
    Ok(())
}

/// A row index within a [`PresortedDesign`]. Growth stores one per row
/// per feature, so a 32-bit index halves its largest buffers.
type RowId = u32;

/// A training design prepared once for any number of tree growths.
///
/// Construction validates the features and builds everything growth
/// reads but never changes: the column-major features, the per-feature
/// sort orders and the `[1, x…]` leaf-fit rows. Each growth copies the
/// sort orders (its partitions permute them) and reads the rest in
/// place, so growing several trees on one design — several targets,
/// several leaf kinds, several boosting rounds — validates, transposes
/// and sorts once instead of once per tree. Trees grown here are
/// identical to [`RegressionTree::fit`] on the same rows.
///
/// # Example
///
/// ```
/// use ddos_cart::leaf::LeafKind;
/// use ddos_cart::tree::{PresortedDesign, RegressionTree, TreeConfig};
///
/// # fn main() -> Result<(), ddos_cart::CartError> {
/// let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, (i % 5) as f64]).collect();
/// let ys: Vec<f64> = xs.iter().map(|r| if r[0] < 20.0 { r[1] } else { 9.0 - r[1] }).collect();
/// let design = PresortedDesign::new(&xs)?;
/// let config = TreeConfig::default();
/// let [linear, constant] =
///     design.fit_leaf_kinds(&ys, &config, [LeafKind::Linear, LeafKind::Constant])?;
/// assert_eq!(linear, RegressionTree::fit(&xs, &ys, &config)?);
/// assert_eq!(linear.n_leaves(), constant.n_leaves());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PresortedDesign {
    /// Row count (stride of `cols` and `sorted`).
    n: usize,
    /// Feature width.
    width: usize,
    /// Column-major copy of the features: `cols[f * n + i] = xs[i][f]`.
    /// Split search touches one feature at a time; the transposed layout
    /// makes both the threshold scan and the partition predicate walk
    /// contiguous memory instead of chasing per-row `Vec` pointers.
    cols: Vec<f64>,
    /// Per-feature sort orders (feature-major segments of length `n`):
    /// `sorted[f * n..][..n]` holds row indices ordered by feature `f`,
    /// ties by ascending row index — exactly the order the reference
    /// grower's per-node stable sort produces.
    sorted: Vec<RowId>,
    /// Row-major leaf-fit rows `[1.0, xs[i]...]` of width `width + 1`,
    /// the OLS design with its intercept column in place.
    rows: Vec<f64>,
}

impl PresortedDesign {
    /// Validates `xs` and prepares it for growth.
    ///
    /// # Errors
    ///
    /// * [`CartError::EmptyTrainingSet`] for no rows.
    /// * [`CartError::ShapeMismatch`] for zero-width or ragged rows.
    /// * [`CartError::NonFiniteInput`] for NaN/∞ values.
    pub fn new(xs: &[Vec<f64>]) -> Result<Self> {
        let width = validate_features(xs)?;
        Ok(Self::build(xs, width))
    }

    /// Prepares already-validated rows of width `width`.
    pub(crate) fn build(xs: &[Vec<f64>], width: usize) -> Self {
        let n = xs.len();
        let mut cols = vec![0.0; width * n];
        for (i, row) in xs.iter().enumerate() {
            for (f, v) in row.iter().enumerate() {
                cols[f * n + i] = *v;
            }
        }
        let mut sorted: Vec<RowId> = vec![0; width * n];
        for (col, seg) in cols.chunks_exact(n).zip(sorted.chunks_exact_mut(n)) {
            for (k, s) in (0..).zip(seg.iter_mut()) {
                *s = k;
            }
            // Stable sort by feature value; ties keep ascending row index.
            // `partial_cmp` cannot observe NaN (inputs are validated
            // finite), and unlike `total_cmp` it keeps -0.0 == 0.0 as a
            // tie, matching the reference sort order exactly.
            seg.sort_by(|&a, &b| {
                col[a as usize].partial_cmp(&col[b as usize]).unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        let mut rows = Vec::with_capacity(n * (width + 1));
        for row in xs {
            rows.push(1.0);
            rows.extend_from_slice(row);
        }
        PresortedDesign { n, width, cols, sorted, rows }
    }

    /// Grows one tree with `config.leaf_kind` leaves on targets `ys`.
    /// Identical to [`RegressionTree::fit`] on the design's rows.
    ///
    /// # Errors
    ///
    /// * [`CartError::InvalidParameter`] for degenerate configuration.
    /// * [`CartError::EmptyTrainingSet`] for empty `ys`.
    /// * [`CartError::ShapeMismatch`] when `ys` and the design differ in
    ///   length.
    /// * [`CartError::NonFiniteInput`] for NaN/∞ targets, and for finite
    ///   targets whose node statistics or leaf residuals overflow.
    pub fn fit(&self, ys: &[f64], config: &TreeConfig) -> Result<RegressionTree> {
        let [tree] = self.fit_leaf_kinds(ys, config, [config.leaf_kind])?;
        Ok(tree)
    }

    /// Grows once on targets `ys` and returns one tree per entry of
    /// `kinds`, in order. Splits never depend on the leaf kind, so the
    /// trees share their structure; each carries leaves of its kind and
    /// equals [`RegressionTree::fit`] with `leaf_kind` set to that kind
    /// (`config.leaf_kind` itself is ignored).
    ///
    /// # Errors
    ///
    /// Same as [`PresortedDesign::fit`].
    pub fn fit_leaf_kinds<const K: usize>(
        &self,
        ys: &[f64],
        config: &TreeConfig,
        kinds: [LeafKind; K],
    ) -> Result<[RegressionTree; K]> {
        validate_config(config)?;
        if ys.is_empty() {
            return Err(CartError::EmptyTrainingSet);
        }
        if ys.len() != self.n {
            return Err(CartError::ShapeMismatch {
                detail: format!("{} rows vs {} targets", self.n, ys.len()),
            });
        }
        validate_targets(ys)?;
        self.grow(ys, config, kinds)
    }

    /// The grower proper, on validated targets and configuration.
    fn grow<const K: usize>(
        &self,
        ys: &[f64],
        config: &TreeConfig,
        kinds: [LeafKind; K],
    ) -> Result<[RegressionTree; K]> {
        let n = self.n;
        let mut growth = Growth {
            design: self,
            ys,
            config,
            kinds: &kinds,
            sorted: self.sorted.clone(),
            idx: (0..).take(n).collect(),
            spill: vec![0; n],
            goes_left: vec![0; n],
            vals: vec![0.0; n],
            prefix_sum: vec![0.0; n + 1],
            prefix_sq: vec![0.0; n + 1],
            scores: vec![0.0; n],
            cell_rows: Vec::with_capacity(n * (self.width + 1)),
            cell_ys: Vec::with_capacity(n),
            ols: OlsScratch::default(),
        };
        let roots = growth.grow(0, n, 0)?;
        debug_assert_eq!(roots.len(), K, "one root per leaf kind");
        // A stand-in root per kind, each replaced by its grown root below.
        let mut trees = kinds.map(|leaf_kind| RegressionTree {
            root: Node::Leaf { model: LeafModel::Constant { mean: 0.0 } },
            n_features: self.width,
            config: TreeConfig { leaf_kind, ..*config },
        });
        for (tree, root) in trees.iter_mut().zip(roots) {
            tree.root = root;
        }
        Ok(trees)
    }
}

/// Node target statistics `(mean, sse)` over the ascending index view
/// (same reduction order as the reference grower's `stats`).
/// The mean is also every leaf fit's mean: `LeafModel::fit` sums the
/// cell's targets in this same order.
///
/// Finite targets near ±`f64::MAX` can overflow the sum or the squared
/// deviations; that is a [`CartError::NonFiniteInput`], not a node whose
/// constant leaf (the same mean) would predict ∞.
fn node_stats(ys: &[f64], indices: &[RowId]) -> Result<(f64, f64)> {
    let n = indices.len() as f64;
    let sum: f64 = indices.iter().map(|&i| ys[i as usize]).sum();
    let mean = sum / n;
    let sse: f64 = indices.iter().map(|&i| (ys[i as usize] - mean).powi(2)).sum();
    if !(mean.is_finite() && sse.is_finite()) {
        return Err(CartError::NonFiniteInput);
    }
    Ok((mean, sse))
}

/// Stable in-place partition of `seg` by `pred` (true-goers first, both
/// sides keeping their relative order) using `spill` as the bounce
/// buffer. Returns the number of true-goers. Branchless: every element is
/// written to both sides and only the counters move by the predicate.
fn stable_partition<T: Copy>(seg: &mut [T], spill: &mut [T], pred: impl Fn(T) -> bool) -> usize {
    let (mut kept, mut spilled) = (0, 0);
    for k in 0..seg.len() {
        let i = seg[k];
        let goes = usize::from(pred(i));
        // `kept <= k`: the slot written was already read.
        seg[kept] = i;
        spill[spilled] = i;
        kept += goes;
        spilled += 1 - goes;
    }
    seg[kept..].copy_from_slice(&spill[..spilled]);
    kept
}

/// The split threshold between two adjacent sorted feature values
/// `a < b`: `(a + b) / 2`, or `a / 2 + b / 2` when the sum overflows
/// (1e308 and 1.5e308, say). Either can round up to `b` itself (for `a`
/// and `b` one ulp apart, say `1 + 1 ulp` and `1 + 2 ulp`); then the
/// threshold is `a`. Both cases would otherwise send the `b` rows left
/// with the `a` rows, off the scored cut.
pub(crate) fn midpoint(a: f64, b: f64) -> f64 {
    let sum = a + b;
    let mid = if sum.is_finite() { sum / 2.0 } else { a / 2.0 + b / 2.0 };
    if mid < b {
        mid
    } else {
        a
    }
}

/// First index of the smallest score. Scores hold no NaN (the scan
/// rejects non-finite unmasked cuts and masks with `+∞`), so eight
/// `<`-selected lanes find the minimum value and `position` its first
/// occurrence: exactly the cut a sequential strict-`<` scan keeps.
/// `None` when every cut is masked.
fn first_min(scores: &[f64]) -> Option<(usize, f64)> {
    let mut lanes = [f64::INFINITY; 8];
    let chunks = scores.chunks_exact(8);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (lane, &s) in lanes.iter_mut().zip(chunk) {
            *lane = if s < *lane { s } else { *lane };
        }
    }
    let min = lanes.iter().chain(tail).fold(f64::INFINITY, |m, &s| if s < m { s } else { m });
    if min == f64::INFINITY {
        return None;
    }
    scores.iter().position(|&s| s == min).map(|c| (c, min))
}

/// One growth's working state over a shared [`PresortedDesign`].
///
/// A node owns the segment `[lo, hi)` of `idx` and of every feature's
/// region of `sorted`; splitting stable-partitions those segments in
/// place, so recursion allocates no working buffers.
struct Growth<'a> {
    design: &'a PresortedDesign,
    ys: &'a [f64],
    config: &'a TreeConfig,
    /// Leaf kinds to fit at every node; `grow` returns one node per kind.
    kinds: &'a [LeafKind],
    /// This growth's copy of the design's sort orders, partitioned in
    /// place as the recursion descends.
    sorted: Vec<RowId>,
    /// Node sample indices in ascending row order (the reference grower's
    /// `indices` list); leaf fits and node statistics iterate this to
    /// keep reduction order identical.
    idx: Vec<RowId>,
    /// Spill buffer for the stable partitions.
    spill: Vec<RowId>,
    /// Per-row side of the current split (`1` = left), written for the
    /// node's rows before its partitions read it.
    goes_left: Vec<u8>,
    /// The node's values of the scanned feature, in its sorted order.
    vals: Vec<f64>,
    /// Prefix sums of targets over a node's sorted order (`len + 1` used;
    /// index 0 stays 0.0).
    prefix_sum: Vec<f64>,
    /// Prefix sums of squared targets.
    prefix_sq: Vec<f64>,
    /// Child SSE of each candidate cut of the scanned feature, `+∞` where
    /// equal values mask the cut.
    scores: Vec<f64>,
    /// The node's leaf-fit rows, gathered from the design in `idx` order
    /// — exactly the rows the reference grower's leaf fit gathers.
    cell_rows: Vec<f64>,
    /// The node's targets in `idx` order.
    cell_ys: Vec<f64>,
    /// Reused QR/OLS working memory for every node's leaf fits.
    ols: OlsScratch,
}

impl Growth<'_> {
    /// Grows the node owning segment `[lo, hi)`, returning one node per
    /// entry of `kinds`.
    fn grow(&mut self, lo: usize, hi: usize, depth: usize) -> Result<Vec<Node>> {
        let config = self.config;
        let len = hi - lo;
        let (mean, node_sse) = node_stats(self.ys, &self.idx[lo..hi])?;
        // One leaf model per kind per node, fit up front: it becomes the
        // node's own model if growth stops here and the pruning fallback
        // (`collapsed`) if the node splits — the reference grower fits
        // exactly one of the two on the same cell, so the work and the
        // result are identical.
        let fits = {
            let p = self.design.width + 1;
            self.cell_rows.clear();
            self.cell_ys.clear();
            for &i in &self.idx[lo..hi] {
                let i = i as usize;
                self.cell_rows.extend_from_slice(&self.design.rows[i * p..(i + 1) * p]);
                self.cell_ys.push(self.ys[i]);
            }
            let (rows, yseg) = (&self.cell_rows, &self.cell_ys);
            let mut fits = Vec::with_capacity(self.kinds.len());
            for &kind in self.kinds {
                let model = LeafModel::fit_prepared(kind, rows, p, yseg, mean, &mut self.ols)?;
                // A constant leaf's residuals sum to the node's own
                // squared-deviation sum, which `node_stats` checked.
                if !model.is_constant() {
                    check_residuals(&model, rows, p, yseg)?;
                }
                fits.push(model);
            }
            fits
        };
        let leaves =
            |fits: Vec<LeafModel>| Ok(fits.into_iter().map(|model| Node::Leaf { model }).collect());

        if depth >= config.max_depth
            || len < config.min_samples_split
            || node_sse <= f64::EPSILON
            // No cut can give both children `min_samples_leaf` samples. This
            // also guards the `len - min_samples_leaf` underflow the
            // pre-presorting grower hit when `min_samples_leaf > len`.
            || config.min_samples_leaf.saturating_mul(2) > len
        {
            return leaves(fits);
        }

        let Some((feature, threshold, child_sse)) = self.best_split(lo, hi)? else {
            return leaves(fits);
        };
        let decrease = node_sse - child_sse;
        if decrease < config.min_impurity_decrease * node_sse.max(f64::EPSILON) {
            return leaves(fits);
        }

        // Stable partition of the ascending index list and of every feature's
        // sorted segment: both sides keep their relative order, so each child
        // inherits exactly the orders a per-node stable sort would rebuild.
        let n = self.design.n;
        let col = &self.design.cols[feature * n..(feature + 1) * n];
        for &i in &self.idx[lo..hi] {
            self.goes_left[i as usize] = u8::from(col[i as usize] <= threshold);
        }
        let mask = &self.goes_left;
        let goes_left = |i: RowId| mask[i as usize] != 0;
        let n_left = stable_partition(&mut self.idx[lo..hi], &mut self.spill, goes_left);
        for sorted in self.sorted.chunks_exact_mut(n) {
            let nl = stable_partition(&mut sorted[lo..hi], &mut self.spill, goes_left);
            debug_assert_eq!(nl, n_left, "inconsistent partition across sort orders");
        }
        let left = self.grow(lo, lo + n_left, depth + 1)?;
        let right = self.grow(lo + n_left, hi, depth + 1)?;
        let internal = |((collapsed, left), right)| Node::Internal {
            feature,
            threshold,
            left: Box::new(left),
            right: Box::new(right),
            collapsed,
        };
        Ok(fits.into_iter().zip(left).zip(right).map(internal).collect())
    }

    /// Exhaustive best-split scan of the node `[lo, hi)` over the
    /// presorted per-feature orders: `(feature, threshold, child_sse)` of
    /// the first cut with the smallest child SSE, features in order and
    /// cuts ascending, or `None` when equal values mask every cut.
    ///
    /// Per feature, one pass gathers the node's sorted values and runs the
    /// prefix sums in local accumulators (the reference order and start
    /// values), and a second pass scores every cut from those contiguous
    /// arrays with the reference expressions. A non-finite child SSE on an
    /// unmasked cut (targets whose squares overflow) is a
    /// [`CartError::NonFiniteInput`]: no cut can be ranked.
    fn best_split(&mut self, lo: usize, hi: usize) -> Result<Option<(usize, f64, f64)>> {
        let (n, len, msl) = (self.design.n, hi - lo, self.config.min_samples_leaf);
        let ys = self.ys;
        let vals = &mut self.vals[..len];
        let prefix_sum = &mut self.prefix_sum[..=len];
        let prefix_sq = &mut self.prefix_sq[..=len];
        // Cuts `msl..=len - msl`: the left child holds `cut` rows.
        let scores = &mut self.scores[..=len - 2 * msl];
        let len_f = len as f64;
        let mut best: Option<(usize, f64, f64)> = None;
        let features = self.design.cols.chunks_exact(n).zip(self.sorted.chunks_exact(n));
        for (feature, (col, sorted)) in features.enumerate() {
            let (mut sum, mut sq) = (0.0, 0.0);
            let prefixes = prefix_sum[1..].iter_mut().zip(&mut prefix_sq[1..]);
            for ((&i, v), (ps, pq)) in sorted[lo..hi].iter().zip(vals.iter_mut()).zip(prefixes) {
                let y = ys[i as usize];
                sum += y;
                sq += y * y;
                (*ps, *pq) = (sum, sq);
                *v = col[i as usize];
            }
            let mut finite = true;
            let cuts = vals[msl - 1..].iter().zip(&vals[msl..]).zip(&prefix_sum[msl..]);
            let cuts = cuts.zip(&prefix_sq[msl..]).zip(scores.iter_mut());
            for (cut, ((((&fv_left, &fv_right), &sum_l), &sq_l), score)) in (msl..).zip(cuts) {
                // Counts below 2^53 convert exactly, so `len - cut` may be
                // taken in f64.
                let nl = cut as f64;
                let nr = len_f - nl;
                let sse_left = sq_l - sum_l * sum_l / nl;
                let sum_r = sum - sum_l;
                let sq_r = sq - sq_l;
                let sse_right = sq_r - sum_r * sum_r / nr;
                let child_sse = sse_left + sse_right;
                // Cannot split between equal values.
                let masked = fv_left == fv_right;
                finite &= masked | child_sse.is_finite();
                *score = if masked { f64::INFINITY } else { child_sse };
            }
            if !finite {
                return Err(CartError::NonFiniteInput);
            }
            if let Some((c, child_sse)) = first_min(scores) {
                if best.as_ref().is_none_or(|(_, _, s)| child_sse < *s) {
                    let cut = msl + c;
                    best = Some((feature, midpoint(vals[cut - 1], vals[cut]), child_sse));
                }
            }
        }
        Ok(best)
    }
}

/// Checks a fitted leaf model's residuals over a prepared contiguous
/// cell: `rows` is the node's design segment (leading `1.0` intercept
/// column, width `p`), `ys` its targets in the same order. A residual
/// sum of squares that overflows (a leaf whose predictions on its own
/// rows are not finite) is a [`CartError::NonFiniteInput`]; the
/// reference grower makes the same check.
fn check_residuals(model: &LeafModel, rows: &[f64], p: usize, ys: &[f64]) -> Result<()> {
    let mut sse = 0.0;
    for (row, &y) in rows.chunks_exact(p).zip(ys) {
        let e = model.predict(&row[1..])? - y;
        sse += e * e;
    }
    if !sse.is_finite() {
        return Err(CartError::NonFiniteInput);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn step_function_needs_one_split() {
        let xs: Vec<Vec<f64>> = (-20..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (-20..20).map(|i| if i < 0 { 1.0 } else { 5.0 }).collect();
        let cfg = TreeConfig { leaf_kind: LeafKind::Constant, ..Default::default() };
        let t = RegressionTree::fit(&xs, &ys, &cfg).unwrap();
        assert_eq!(t.n_leaves(), 2);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.predict(&[-10.0]).unwrap(), 1.0);
        assert_eq!(t.predict(&[10.0]).unwrap(), 5.0);
    }

    #[test]
    fn piecewise_linear_fits_with_mlr_leaves() {
        // y = 2x for x < 0; y = -3x + 10 for x ≥ 0. Two MLR leaves suffice.
        let xs: Vec<Vec<f64>> = (-30..30).map(|i| vec![i as f64 * 0.5]).collect();
        let ys: Vec<f64> =
            xs.iter().map(|r| if r[0] < 0.0 { 2.0 * r[0] } else { -3.0 * r[0] + 10.0 }).collect();
        let t = RegressionTree::fit(&xs, &ys, &TreeConfig::default()).unwrap();
        assert!((t.predict(&[-5.0]).unwrap() + 10.0).abs() < 0.5);
        assert!((t.predict(&[5.0]).unwrap() + 5.0).abs() < 0.5);
    }

    #[test]
    fn interaction_of_two_features() {
        // Mean differs per quadrant: needs splits on both features.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in -10..10 {
            for j in -10..10 {
                xs.push(vec![i as f64, j as f64]);
                ys.push(match (i < 0, j < 0) {
                    (true, true) => 0.0,
                    (true, false) => 10.0,
                    (false, true) => 20.0,
                    (false, false) => 30.0,
                });
            }
        }
        let cfg = TreeConfig { leaf_kind: LeafKind::Constant, ..Default::default() };
        let t = RegressionTree::fit(&xs, &ys, &cfg).unwrap();
        assert_eq!(t.predict(&[-5.0, -5.0]).unwrap(), 0.0);
        assert_eq!(t.predict(&[5.0, 5.0]).unwrap(), 30.0);
        assert!(t.n_leaves() >= 4);
    }

    #[test]
    fn respects_max_depth_and_min_samples() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<Vec<f64>> = (0..200).map(|_| vec![rng.gen::<f64>()]).collect();
        let ys: Vec<f64> = (0..200).map(|_| rng.gen::<f64>()).collect();
        let cfg = TreeConfig {
            max_depth: 3,
            min_samples_leaf: 10,
            min_impurity_decrease: 0.0,
            leaf_kind: LeafKind::Constant,
            ..Default::default()
        };
        let t = RegressionTree::fit(&xs, &ys, &cfg).unwrap();
        assert!(t.depth() <= 3);
        // Route every training row to its leaf; each leaf must hold at
        // least `min_samples_leaf` of them.
        let mut per_leaf = std::collections::HashMap::new();
        for x in &xs {
            let mut node = &t.root;
            while let Node::Internal { feature, threshold, left, right, .. } = node {
                node = if x[*feature] <= *threshold { left } else { right };
            }
            *per_leaf.entry(std::ptr::from_ref(node)).or_insert(0usize) += 1;
        }
        assert_eq!(per_leaf.len(), t.n_leaves());
        assert!(per_leaf.values().all(|&n| n >= 10));
    }

    #[test]
    fn constant_target_gives_single_leaf() {
        let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let ys = vec![7.0; 50];
        let t = RegressionTree::fit(&xs, &ys, &TreeConfig::default()).unwrap();
        assert_eq!(t.n_leaves(), 1);
        assert!((t.predict(&[25.0]).unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn validates_input() {
        let cfg = TreeConfig::default();
        assert!(RegressionTree::fit(&[], &[], &cfg).is_err());
        assert!(RegressionTree::fit(&[vec![1.0]], &[1.0, 2.0], &cfg).is_err());
        assert!(RegressionTree::fit(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 2.0], &cfg).is_err());
        assert!(RegressionTree::fit(&[vec![f64::NAN]], &[1.0], &cfg).is_err());
        let bad = TreeConfig { min_samples_leaf: 0, ..Default::default() };
        assert!(RegressionTree::fit(&[vec![1.0]], &[1.0], &bad).is_err());
    }

    #[test]
    fn prediction_validates_width() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 0.0]).collect();
        let ys: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let t = RegressionTree::fit(&xs, &ys, &TreeConfig::default()).unwrap();
        assert!(matches!(
            t.predict(&[1.0]),
            Err(CartError::FeatureWidthMismatch { expected: 2, actual: 1 })
        ));
        assert_eq!(t.n_features(), 2);
    }

    #[test]
    fn predict_many_matches_scalar() {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 7) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| r[0] * r[0]).collect();
        let t = RegressionTree::fit(&xs, &ys, &TreeConfig::default()).unwrap();
        let batch = t.predict_many(&xs).unwrap();
        for (x, b) in xs.iter().zip(batch) {
            assert_eq!(t.predict(x).unwrap(), b);
        }
    }

    #[test]
    fn batched_traversal_bitwise_matches_scalar_on_random_design() {
        // Multi-feature MLR tree, queried on rows the tree never saw, so
        // every leaf and both sides of many splits are exercised.
        let mut rng = StdRng::seed_from_u64(40);
        let xs: Vec<Vec<f64>> = (0..250)
            .map(|_| vec![rng.gen::<f64>() * 24.0, rng.gen::<f64>() * 31.0, rng.gen::<f64>()])
            .collect();
        let ys: Vec<f64> =
            xs.iter().map(|r| (r[0] * 0.3).sin() * 5.0 + r[1] * 0.1 + r[2] * r[2]).collect();
        let t = RegressionTree::fit(&xs, &ys, &TreeConfig::default()).unwrap();
        assert!(t.n_leaves() > 2, "want a non-trivial tree for this test");
        let queries: Vec<Vec<f64>> = (0..333)
            .map(|_| vec![rng.gen::<f64>() * 30.0, rng.gen::<f64>() * 40.0, rng.gen::<f64>() * 2.0])
            .collect();
        let batch = t.predict_many(&queries).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (q, b) in queries.iter().zip(&batch) {
            assert_eq!(t.predict(q).unwrap().to_bits(), b.to_bits());
        }
        // Empty batch is a no-op, not an error.
        assert!(t.predict_many(&[]).unwrap().is_empty());
    }

    #[test]
    fn batch_validates_width_like_scalar() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 0.0]).collect();
        let ys: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let t = RegressionTree::fit(&xs, &ys, &TreeConfig::default()).unwrap();
        assert!(matches!(
            t.predict_many(&[vec![1.0, 2.0], vec![1.0]]),
            Err(CartError::FeatureWidthMismatch { expected: 2, actual: 1 })
        ));
    }

    #[test]
    fn codec_round_trip_is_identity() {
        let mut rng = StdRng::seed_from_u64(41);
        let xs: Vec<Vec<f64>> =
            (0..180).map(|_| vec![rng.gen::<f64>() * 10.0, rng.gen::<f64>() * 3.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| r[0] * r[0] - 2.0 * r[1]).collect();
        for leaf_kind in [LeafKind::Constant, LeafKind::Linear] {
            let cfg = TreeConfig { leaf_kind, ..Default::default() };
            let t = RegressionTree::fit(&xs, &ys, &cfg).unwrap();
            let mut w = Writer::new();
            t.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = RegressionTree::decode(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(t, back);
            for q in &xs {
                assert_eq!(t.predict(q).unwrap().to_bits(), back.predict(q).unwrap().to_bits());
            }
        }
    }

    #[test]
    fn decode_rejects_corrupt_payloads_without_panicking() {
        let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, (i % 3) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| r[0] + r[1]).collect();
        let t = RegressionTree::fit(&xs, &ys, &TreeConfig::default()).unwrap();
        let mut w = Writer::new();
        t.encode(&mut w);
        let bytes = w.into_bytes();

        // Truncation at every prefix is a typed error, never a panic.
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(RegressionTree::decode(&mut r).is_err(), "prefix {cut} decoded");
        }

        // A split feature outside the feature width is rejected: encode a
        // one-split tree, then shrink the declared width below the split
        // feature's index.
        let narrow_xs: Vec<Vec<f64>> =
            (0..40).map(|i| vec![0.0, if i < 20 { -1.0 } else { 1.0 }]).collect();
        let narrow_ys: Vec<f64> = (0..40).map(|i| if i < 20 { 0.0 } else { 9.0 }).collect();
        let cfg = TreeConfig { leaf_kind: LeafKind::Constant, ..Default::default() };
        let split_on_f1 = RegressionTree::fit(&narrow_xs, &narrow_ys, &cfg).unwrap();
        assert!(matches!(split_on_f1.root, Node::Internal { feature: 1, .. }));
        let shrunk = RegressionTree { n_features: 1, ..split_on_f1 };
        let mut w = Writer::new();
        shrunk.encode(&mut w);
        let shrunk_bytes = w.into_bytes();
        let mut r = Reader::new(&shrunk_bytes);
        assert!(matches!(RegressionTree::decode(&mut r), Err(CodecError::Invalid { .. })));

        // Nesting beyond the declared max_depth is rejected (recursion
        // budget), even when the payload itself is well-formed.
        let leaf = Node::Leaf { model: LeafModel::Constant { mean: 0.0 } };
        let mut deep = leaf.clone();
        for _ in 0..5 {
            deep = Node::Internal {
                feature: 0,
                threshold: 0.0,
                left: Box::new(deep),
                right: Box::new(leaf.clone()),
                collapsed: LeafModel::Constant { mean: 0.0 },
            };
        }
        let shallow_cfg = TreeConfig { max_depth: 2, ..Default::default() };
        let over_deep = RegressionTree { root: deep, n_features: 1, config: shallow_cfg };
        let mut w = Writer::new();
        over_deep.encode(&mut w);
        let deep_bytes = w.into_bytes();
        let mut r = Reader::new(&deep_bytes);
        assert!(matches!(RegressionTree::decode(&mut r), Err(CodecError::Invalid { .. })));
    }

    #[test]
    fn overflowing_node_statistics_are_typed_errors() {
        // Finite targets whose node sums overflow: the tree used to fit,
        // with leaves predicting ∞.
        let xs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let ys: Vec<f64> = (0..60).map(|i| if i % 2 == 0 { 1.7e308 } else { -0.85e308 }).collect();
        let cfg = TreeConfig::default();
        assert_eq!(RegressionTree::fit(&xs, &ys, &cfg).err(), Some(CartError::NonFiniteInput));
        let design = PresortedDesign::new(&xs).unwrap();
        let kinds = design.fit_leaf_kinds(&ys, &cfg, [LeafKind::Constant, LeafKind::Linear]);
        assert_eq!(kinds.err(), Some(CartError::NonFiniteInput));
        // The squared deviations overflow long before the sums do.
        let summable: Vec<f64> = ys.iter().map(|y| y / 64.0).collect();
        assert_eq!(
            RegressionTree::fit(&xs, &summable, &cfg).err(),
            Some(CartError::NonFiniteInput)
        );
        // Targets whose squares stay finite fit, with finite leaves.
        let squarable: Vec<f64> = ys.iter().map(|y| y / 1e160).collect();
        let tree = RegressionTree::fit(&xs, &squarable, &cfg).unwrap();
        assert!(xs.iter().all(|x| tree.predict(x).unwrap().is_finite()));
    }

    #[test]
    fn non_finite_features_error_instead_of_panicking() {
        // Regression: the pre-presorting grower sorted with
        // `partial_cmp(...).expect("finite features")` and panicked on the
        // first NaN cell it compared. Non-finite cells anywhere in the
        // design (or targets) must now surface as a typed error.
        let cfg = TreeConfig::default();
        let mut xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, (i % 3) as f64]).collect();
        let ys: Vec<f64> = (0..20).map(|i| i as f64).collect();
        xs[13][1] = f64::NAN; // mid-row, mid-set — past the shape checks
        assert!(matches!(RegressionTree::fit(&xs, &ys, &cfg), Err(CartError::NonFiniteInput)));
        xs[13][1] = f64::INFINITY;
        assert!(matches!(RegressionTree::fit(&xs, &ys, &cfg), Err(CartError::NonFiniteInput)));
        xs[13][1] = 1.0;
        let mut bad_ys = ys.clone();
        bad_ys[7] = f64::NAN;
        assert!(matches!(RegressionTree::fit(&xs, &bad_ys, &cfg), Err(CartError::NonFiniteInput)));
        bad_ys[7] = f64::NEG_INFINITY;
        assert!(matches!(RegressionTree::fit(&xs, &bad_ys, &cfg), Err(CartError::NonFiniteInput)));
    }

    #[test]
    fn oversized_min_samples_leaf_yields_single_leaf() {
        // Regression: `min_samples_leaf > n` made the cut-range expression
        // `total_n - min_samples_leaf` underflow `usize` and panic. An
        // unsatisfiable leaf minimum now simply stops growth at the root.
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let cfg = TreeConfig {
            min_samples_leaf: 20,
            min_samples_split: 2,
            leaf_kind: LeafKind::Constant,
            ..Default::default()
        };
        let t = RegressionTree::fit(&xs, &ys, &cfg).unwrap();
        assert_eq!(t.n_leaves(), 1);
        assert_eq!(t.predict(&[3.0]).unwrap(), 4.5);
        // Also unsatisfiable without underflowing: 2 * msl > n = 10.
        let cfg = TreeConfig { min_samples_leaf: 6, ..cfg };
        assert_eq!(RegressionTree::fit(&xs, &ys, &cfg).unwrap().n_leaves(), 1);
    }

    #[test]
    fn degenerate_configs_rejected_up_front() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let cases: [(TreeConfig, &str); 5] = [
            (TreeConfig { max_depth: 0, ..Default::default() }, "max_depth"),
            (TreeConfig { min_samples_split: 1, ..Default::default() }, "min_samples_split"),
            (TreeConfig { min_samples_leaf: 0, ..Default::default() }, "min_samples_leaf"),
            (
                TreeConfig { min_impurity_decrease: f64::NAN, ..Default::default() },
                "min_impurity_decrease",
            ),
            (
                TreeConfig { min_impurity_decrease: -0.5, ..Default::default() },
                "min_impurity_decrease",
            ),
        ];
        for (cfg, expected) in cases {
            match RegressionTree::fit(&xs, &ys, &cfg) {
                Err(CartError::InvalidParameter { name, .. }) => assert_eq!(name, expected),
                other => panic!("expected InvalidParameter({expected}), got {other:?}"),
            }
        }
    }

    #[test]
    fn deeper_trees_fit_better() {
        let mut rng = StdRng::seed_from_u64(2);
        let xs: Vec<Vec<f64>> = (0..300).map(|_| vec![rng.gen::<f64>() * 6.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| r[0].sin() * 3.0).collect();
        let shallow = RegressionTree::fit(
            &xs,
            &ys,
            &TreeConfig { max_depth: 1, leaf_kind: LeafKind::Constant, ..Default::default() },
        )
        .unwrap();
        let deep = RegressionTree::fit(
            &xs,
            &ys,
            &TreeConfig { max_depth: 6, leaf_kind: LeafKind::Constant, ..Default::default() },
        )
        .unwrap();
        let sse = |t: &RegressionTree| -> f64 {
            xs.iter().zip(&ys).map(|(x, y)| (t.predict(x).unwrap() - y).powi(2)).sum()
        };
        assert!(sse(&deep) < sse(&shallow) * 0.5);
    }
}
