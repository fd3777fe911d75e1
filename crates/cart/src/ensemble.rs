//! Tree ensembles over the fast CART core: deterministic bagged forests
//! and gradient-boosted model trees.
//!
//! Both learners compose the presorted [`RegressionTree`] grower and the
//! level-order batched predictor, and both are **bit-deterministic**:
//!
//! * [`BaggedForest`] derives one bootstrap seed per tree from the cell
//!   seed with the same splitmix64 mix the trace generator uses for
//!   per-family RNG partitions, fits every tree through the deterministic
//!   sharded executor ([`ddos_stats::exec::map_indexed_with`]), and
//!   reduces in index order — so the fitted forest is bit-identical at
//!   any worker count, and its mean prediction accumulates in tree-index
//!   order on both the scalar and the batched path.
//! * [`BoostedTrees`] is inherently sequential (each stage fits the
//!   previous stage's residuals), so determinism is free; shrinkage and
//!   early stopping on a chronological holdout tail keep the additive
//!   model from memorizing the design.
//!
//! Serving batches one level-order frontier pass per member tree through
//! a shared [`EnsembleScratch`], reusing the same
//! [`PredictScratch`] arena the single-tree serve path uses — predictions
//! are bit-identical to the scalar per-row loops (`predict`), which is
//! what lets the ensembles sit under the goldencheck fingerprint gate
//! and the serve determinism suite unchanged.

use crate::tree::{PredictScratch, PresortedDesign, RegressionTree, TreeConfig};
use crate::{CartError, Result};
use ddos_stats::codec::{CodecError, CodecResult, Reader, Writer};
use ddos_stats::exec::map_indexed_with;
use serde::{Deserialize, Serialize};

/// Derives the bootstrap seed of ensemble slot `slot` from a cell seed —
/// the splitmix64 finalizer over `seed ⊕ slot·φ`, the same derivation the
/// trace generator uses for per-family streams. Changing either input
/// decorrelates the whole stream, and the mapping is pure, so a forest's
/// member seeds are reproducible from `(seed, slot)` alone.
pub fn derive_seed(seed: u64, slot: u64) -> u64 {
    let mut z = seed ^ slot.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Writes the `n` bootstrap row indices of one member tree into `out`
/// (cleared first): draws with replacement from `0..n`, driven by a
/// splitmix64 stream over `seed`. Deterministic in `(seed, n)` — the
/// reproducibility proptests pin this.
pub fn bootstrap_indices_into(seed: u64, n: usize, out: &mut Vec<usize>) {
    out.clear();
    if n == 0 {
        return;
    }
    let mut state = seed;
    out.reserve(n);
    for _ in 0..n {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        out.push((z % n as u64) as usize);
    }
}

/// Allocating convenience over [`bootstrap_indices_into`].
pub fn bootstrap_indices(seed: u64, n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    bootstrap_indices_into(seed, n, &mut out);
    out
}

/// Reusable working memory for batched ensemble prediction: the shared
/// tree-traversal arena plus one per-tree output buffer. One scratch per
/// serving worker amortizes every per-batch allocation away, across any
/// number of ensembles and batch sizes.
#[derive(Debug, Default, Clone)]
pub struct EnsembleScratch {
    /// Level-order traversal arena shared by every member tree.
    pub(crate) tree: PredictScratch,
    /// Per-tree prediction buffer accumulated into the caller's output.
    pub(crate) buf: Vec<f64>,
}

// ---------------------------------------------------------------------------
// Bagged forests
// ---------------------------------------------------------------------------

/// Bagged-forest specification: how many trees, how each is grown, the
/// cell seed the per-tree bootstrap seeds derive from, and how many
/// executor workers fitting may use.
///
/// `parallelism` is a fit-time resource knob only — the fitted forest is
/// bit-identical at any worker count (index-order reduction through the
/// sharded executor), so it participates in neither equality nor the
/// artifact payload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of member trees (≥ 1).
    pub n_trees: usize,
    /// Growth configuration shared by every member tree.
    pub tree: TreeConfig,
    /// Cell seed; member tree `t` bootstraps with [`derive_seed`]`(seed, t)`.
    pub seed: u64,
    /// Worker threads for fitting (`None` = all cores, `Some(0|1)` =
    /// serial). Never affects the fitted bits.
    pub parallelism: Option<usize>,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig { n_trees: 24, tree: TreeConfig::default(), seed: 0, parallelism: None }
    }
}

/// A fitted bagged forest: the mean of its member trees' predictions,
/// accumulated in tree-index order.
#[derive(Debug, Clone, PartialEq)]
pub struct BaggedForest {
    trees: Vec<RegressionTree>,
    seed: u64,
    n_features: usize,
}

impl BaggedForest {
    /// Fits `config.n_trees` trees, each on its own bootstrap resample of
    /// the design, through the deterministic sharded executor. Results
    /// are reduced in tree-index order (first error in canonical order
    /// wins), so the fitted forest — and any error — is bit-identical at
    /// any worker count.
    ///
    /// # Errors
    ///
    /// * [`CartError::InvalidParameter`] when `n_trees == 0`.
    /// * Every error [`RegressionTree::fit`] can produce, from the
    ///   canonically first failing member.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], config: &ForestConfig) -> Result<Self> {
        if config.n_trees == 0 {
            return Err(CartError::InvalidParameter {
                name: "n_trees",
                detail: "a forest needs at least one tree".to_string(),
            });
        }
        let n_features = crate::tree::validate(xs, ys, &config.tree)?;
        let slots: Vec<u64> = (0..config.n_trees as u64).collect();
        // Per-shard scratch: the bootstrap index buffer plus the gathered
        // design. Pure scratch — rebuilt from (seed, slot) before every
        // use — so the executor's determinism contract holds.
        type Scratch = (Vec<usize>, Vec<Vec<f64>>, Vec<f64>);
        let fits = map_indexed_with(
            &slots,
            config.parallelism,
            || -> Scratch { (Vec::new(), Vec::new(), Vec::new()) },
            |(idx, bxs, bys), _, slot| {
                bootstrap_indices_into(derive_seed(config.seed, *slot), xs.len(), idx);
                bxs.clear();
                bys.clear();
                for &i in idx.iter() {
                    bxs.push(xs[i].clone());
                    bys.push(ys[i]);
                }
                RegressionTree::fit(bxs, bys, &config.tree)
            },
        );
        let mut trees = Vec::with_capacity(config.n_trees);
        for fit in fits {
            trees.push(fit?);
        }
        Ok(BaggedForest { trees, seed: config.seed, n_features })
    }

    /// Number of member trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Feature width the forest was trained with.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The cell seed the member bootstrap seeds derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The member trees, in fit (index) order.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Scalar prediction: the mean of the member trees' predictions,
    /// summed in tree-index order. The batched path reproduces this
    /// float-for-float.
    ///
    /// # Errors
    ///
    /// [`CartError::FeatureWidthMismatch`] on a wrong-width row.
    pub fn predict(&self, x: &[f64]) -> Result<f64> {
        let mut acc = 0.0;
        for tree in &self.trees {
            acc += tree.predict(x)?;
        }
        Ok(acc / self.trees.len() as f64)
    }

    /// Batched prediction with caller-owned working memory: one
    /// level-order frontier pass per member tree through the shared
    /// [`PredictScratch`], accumulated into `out` in tree-index order and
    /// divided by the tree count last — exactly the scalar
    /// [`BaggedForest::predict`] float sequence, per row.
    ///
    /// # Errors
    ///
    /// Same as [`BaggedForest::predict`]; on error `out`'s contents are
    /// unspecified.
    pub fn predict_many_with(
        &self,
        xs: &[Vec<f64>],
        scratch: &mut EnsembleScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        out.clear();
        out.resize(xs.len(), 0.0);
        for tree in &self.trees {
            tree.predict_many_with(xs, &mut scratch.tree, &mut scratch.buf)?;
            for (o, b) in out.iter_mut().zip(&scratch.buf) {
                *o += *b;
            }
        }
        let n = self.trees.len() as f64;
        for o in out.iter_mut() {
            *o /= n;
        }
        Ok(())
    }

    /// Allocating convenience over [`BaggedForest::predict_many_with`].
    ///
    /// # Errors
    ///
    /// Same as [`BaggedForest::predict_many_with`].
    pub fn predict_many(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>> {
        let mut scratch = EnsembleScratch::default();
        let mut out = Vec::new();
        self.predict_many_with(xs, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Encodes the fitted forest verbatim: cell seed, feature width, then
    /// every member tree in index order.
    pub fn encode(&self, w: &mut Writer) {
        w.u64(self.seed);
        w.usize(self.n_features);
        w.usize(self.trees.len());
        for tree in &self.trees {
            tree.encode(w);
        }
    }

    /// Decodes a forest written by [`BaggedForest::encode`], validating
    /// the invariants serving relies on (at least one tree, every member
    /// trained at the declared feature width).
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated, malformed or inconsistent input.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        let seed = r.u64()?;
        let n_features = r.usize()?;
        let n_trees = r.len(16)?;
        if n_trees == 0 {
            return Err(CodecError::Invalid { detail: "forest with zero trees".to_string() });
        }
        let mut trees = Vec::with_capacity(n_trees);
        for _ in 0..n_trees {
            let tree = RegressionTree::decode(r)?;
            if tree.n_features() != n_features {
                return Err(CodecError::Invalid {
                    detail: format!(
                        "member tree width {} disagrees with forest width {n_features}",
                        tree.n_features()
                    ),
                });
            }
            trees.push(tree);
        }
        Ok(BaggedForest { trees, seed, n_features })
    }
}

// ---------------------------------------------------------------------------
// Gradient-boosted model trees
// ---------------------------------------------------------------------------

/// Boosted-model-tree specification: stage-tree growth, round budget,
/// shrinkage, and the chronological holdout fraction early stopping
/// scores against.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoostConfig {
    /// Growth configuration of each stage tree (shallow by default:
    /// boosting wants weak learners).
    pub tree: TreeConfig,
    /// Maximum boosting rounds (≥ 1).
    pub rounds: usize,
    /// Learning rate in `(0, 1]`; each stage contributes
    /// `shrinkage · tree(x)`.
    pub shrinkage: f64,
    /// Fraction of the design (chronological tail) held out for early
    /// stopping, in `[0, 0.9]`. `0.0` disables early stopping and runs
    /// every round.
    pub holdout_fraction: f64,
    /// Stop after this many consecutive rounds without a new best holdout
    /// SSE (≥ 1). Ignored when `holdout_fraction == 0`.
    pub patience: usize,
}

impl Default for BoostConfig {
    fn default() -> Self {
        BoostConfig {
            tree: TreeConfig { max_depth: 3, min_samples_leaf: 5, ..TreeConfig::default() },
            rounds: 100,
            shrinkage: 0.1,
            holdout_fraction: 0.2,
            patience: 8,
        }
    }
}

/// A fitted gradient-boosted model-tree ensemble:
/// `f(x) = f0 + Σ_t shrinkage · tree_t(x)`, summed in stage order.
#[derive(Debug, Clone, PartialEq)]
pub struct BoostedTrees {
    f0: f64,
    shrinkage: f64,
    trees: Vec<RegressionTree>,
    n_features: usize,
}

impl BoostedTrees {
    /// Fits by stagewise least-squares boosting: start from the training
    /// mean, fit each stage tree to the current residuals, add it with
    /// shrinkage, and score the chronological holdout tail after every
    /// round. The kept model is truncated to the round with the best
    /// holdout SSE (possibly zero stages — the constant mean — when
    /// boosting never helps). Fitting is sequential by construction, so
    /// the result is deterministic with no executor involvement.
    ///
    /// # Errors
    ///
    /// * [`CartError::InvalidParameter`] on an out-of-domain round
    ///   budget, shrinkage, holdout fraction or patience.
    /// * [`CartError::EmptyTrainingSet`] when the non-holdout head has
    ///   fewer than two rows.
    /// * Every error [`RegressionTree::fit`] can produce.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], config: &BoostConfig) -> Result<Self> {
        if config.rounds == 0 {
            return Err(CartError::InvalidParameter {
                name: "rounds",
                detail: "boosting needs at least one round".to_string(),
            });
        }
        if !(config.shrinkage > 0.0 && config.shrinkage <= 1.0) {
            return Err(CartError::InvalidParameter {
                name: "shrinkage",
                detail: format!("{} is outside (0, 1]", config.shrinkage),
            });
        }
        if !(0.0..=0.9).contains(&config.holdout_fraction) {
            return Err(CartError::InvalidParameter {
                name: "holdout_fraction",
                detail: format!("{} is outside [0, 0.9]", config.holdout_fraction),
            });
        }
        if config.patience == 0 {
            return Err(CartError::InvalidParameter {
                name: "patience",
                detail: "early stopping needs patience of at least one round".to_string(),
            });
        }
        let n_features = crate::tree::validate(xs, ys, &config.tree)?;
        let n = xs.len();
        let mut n_hold = (n as f64 * config.holdout_fraction) as usize;
        if n - n_hold < 2 {
            // Degenerate designs: keep at least two training rows, give
            // up the holdout before giving up the fit.
            n_hold = n.saturating_sub(2);
        }
        let n_train = n - n_hold;
        if n_train < 2 {
            return Err(CartError::EmptyTrainingSet);
        }
        let (train_xs, hold_xs) = xs.split_at(n_train);
        let (train_ys, hold_ys) = ys.split_at(n_train);
        // Every round grows on the same (already validated) rows: prepare
        // them once.
        let design = PresortedDesign::build(train_xs, n_features);

        let f0 = train_ys.iter().sum::<f64>() / n_train as f64;
        let mut fit_train = vec![f0; n_train];
        let mut fit_hold = vec![f0; n_hold];
        let mut residuals = vec![0.0; n_train];
        let mut scratch = EnsembleScratch::default();
        let mut trees: Vec<RegressionTree> = Vec::new();

        let holdout_sse = |fit_hold: &[f64]| -> f64 {
            fit_hold.iter().zip(hold_ys).map(|(p, y)| (p - y) * (p - y)).sum()
        };
        let mut best_len = 0usize;
        let mut best_sse = holdout_sse(&fit_hold);
        let mut since_best = 0usize;

        for _ in 0..config.rounds {
            for (r, (y, f)) in residuals.iter_mut().zip(train_ys.iter().zip(&fit_train)) {
                *r = y - f;
            }
            let tree = design.fit(&residuals, &config.tree)?;
            tree.predict_many_with(train_xs, &mut scratch.tree, &mut scratch.buf)?;
            for (f, p) in fit_train.iter_mut().zip(&scratch.buf) {
                *f += config.shrinkage * p;
            }
            if n_hold > 0 {
                tree.predict_many_with(hold_xs, &mut scratch.tree, &mut scratch.buf)?;
                for (f, p) in fit_hold.iter_mut().zip(&scratch.buf) {
                    *f += config.shrinkage * p;
                }
            }
            trees.push(tree);
            if n_hold > 0 {
                let sse = holdout_sse(&fit_hold);
                if sse < best_sse {
                    best_sse = sse;
                    best_len = trees.len();
                    since_best = 0;
                } else {
                    since_best += 1;
                    if since_best >= config.patience {
                        break;
                    }
                }
            } else {
                best_len = trees.len();
            }
        }
        trees.truncate(best_len);
        Ok(BoostedTrees { f0, shrinkage: config.shrinkage, trees, n_features })
    }

    /// Number of kept boosting stages (zero means the constant mean).
    pub fn n_stages(&self) -> usize {
        self.trees.len()
    }

    /// Feature width the ensemble was trained with.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The additive model's intercept: the training-head mean.
    pub fn f0(&self) -> f64 {
        self.f0
    }

    /// The learning rate every stage is scaled by.
    pub fn shrinkage(&self) -> f64 {
        self.shrinkage
    }

    /// The stage trees, in boosting order.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Scalar prediction: `f0 + Σ shrinkage · tree(x)` in stage order.
    /// The batched path reproduces this float-for-float.
    ///
    /// # Errors
    ///
    /// [`CartError::FeatureWidthMismatch`] on a wrong-width row.
    pub fn predict(&self, x: &[f64]) -> Result<f64> {
        if x.len() != self.n_features {
            return Err(CartError::FeatureWidthMismatch {
                expected: self.n_features,
                actual: x.len(),
            });
        }
        let mut acc = self.f0;
        for tree in &self.trees {
            acc += self.shrinkage * tree.predict(x)?;
        }
        Ok(acc)
    }

    /// Batched prediction with caller-owned working memory: one
    /// level-order frontier pass per stage tree, accumulated into `out`
    /// in stage order with the same `acc += shrinkage · p` step the
    /// scalar path takes per row.
    ///
    /// # Errors
    ///
    /// Same as [`BoostedTrees::predict`]; on error `out`'s contents are
    /// unspecified.
    pub fn predict_many_with(
        &self,
        xs: &[Vec<f64>],
        scratch: &mut EnsembleScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        for x in xs {
            if x.len() != self.n_features {
                return Err(CartError::FeatureWidthMismatch {
                    expected: self.n_features,
                    actual: x.len(),
                });
            }
        }
        out.clear();
        out.resize(xs.len(), self.f0);
        for tree in &self.trees {
            tree.predict_many_with(xs, &mut scratch.tree, &mut scratch.buf)?;
            for (o, p) in out.iter_mut().zip(&scratch.buf) {
                *o += self.shrinkage * p;
            }
        }
        Ok(())
    }

    /// Allocating convenience over [`BoostedTrees::predict_many_with`].
    ///
    /// # Errors
    ///
    /// Same as [`BoostedTrees::predict_many_with`].
    pub fn predict_many(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>> {
        let mut scratch = EnsembleScratch::default();
        let mut out = Vec::new();
        self.predict_many_with(xs, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Encodes the fitted ensemble verbatim: intercept, shrinkage,
    /// feature width, then every stage tree in boosting order.
    pub fn encode(&self, w: &mut Writer) {
        w.f64(self.f0);
        w.f64(self.shrinkage);
        w.usize(self.n_features);
        w.usize(self.trees.len());
        for tree in &self.trees {
            tree.encode(w);
        }
    }

    /// Decodes an ensemble written by [`BoostedTrees::encode`],
    /// validating the invariants serving relies on (finite intercept and
    /// shrinkage, every stage trained at the declared feature width). A
    /// zero-stage payload is valid: it serves the constant intercept.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated, malformed or inconsistent input.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        let f0 = r.f64()?;
        let shrinkage = r.f64()?;
        if !f0.is_finite() || !shrinkage.is_finite() {
            return Err(CodecError::Invalid {
                detail: "non-finite boosting intercept or shrinkage".to_string(),
            });
        }
        let n_features = r.usize()?;
        if n_features == 0 {
            return Err(CodecError::Invalid { detail: "zero-width feature space".to_string() });
        }
        let n_trees = r.len(16)?;
        let mut trees = Vec::with_capacity(n_trees);
        for _ in 0..n_trees {
            let tree = RegressionTree::decode(r)?;
            if tree.n_features() != n_features {
                return Err(CodecError::Invalid {
                    detail: format!(
                        "stage tree width {} disagrees with ensemble width {n_features}",
                        tree.n_features()
                    ),
                });
            }
            trees.push(tree);
        }
        Ok(BoostedTrees { f0, shrinkage, trees, n_features })
    }
}

// ---------------------------------------------------------------------------
// The unified regressor
// ---------------------------------------------------------------------------

/// Any of the three tree-based learners behind one serving surface — the
/// type the spatiotemporal pipeline and `ddos-serve` dispatch through.
/// Every variant predicts bit-identically on the scalar and batched
/// paths, so swapping the learner never perturbs the serving contracts.
#[derive(Debug, Clone, PartialEq)]
pub enum Regressor {
    /// A single CART model tree (the paper's §VI learner).
    Tree(RegressionTree),
    /// A bagged forest of CART trees.
    Forest(BaggedForest),
    /// A gradient-boosted model-tree ensemble.
    Boosted(BoostedTrees),
}

impl Regressor {
    /// Short stable name of the learner variant.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Regressor::Tree(_) => "tree",
            Regressor::Forest(_) => "forest",
            Regressor::Boosted(_) => "boosted",
        }
    }

    /// Feature width the learner was trained with.
    pub fn n_features(&self) -> usize {
        match self {
            Regressor::Tree(t) => t.n_features(),
            Regressor::Forest(f) => f.n_features(),
            Regressor::Boosted(b) => b.n_features(),
        }
    }

    /// The underlying single tree, when the learner is one.
    pub fn as_tree(&self) -> Option<&RegressionTree> {
        match self {
            Regressor::Tree(t) => Some(t),
            _ => None,
        }
    }

    /// Scalar prediction through the variant's own scalar path.
    ///
    /// # Errors
    ///
    /// [`CartError::FeatureWidthMismatch`] on a wrong-width row.
    pub fn predict(&self, x: &[f64]) -> Result<f64> {
        match self {
            Regressor::Tree(t) => t.predict(x),
            Regressor::Forest(f) => f.predict(x),
            Regressor::Boosted(b) => b.predict(x),
        }
    }

    /// Batched prediction through the variant's level-order kernel, all
    /// variants sharing one [`EnsembleScratch`].
    ///
    /// # Errors
    ///
    /// Same as [`Regressor::predict`]; on error `out`'s contents are
    /// unspecified.
    pub fn predict_many_with(
        &self,
        xs: &[Vec<f64>],
        scratch: &mut EnsembleScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        match self {
            Regressor::Tree(t) => t.predict_many_with(xs, &mut scratch.tree, out),
            Regressor::Forest(f) => f.predict_many_with(xs, scratch, out),
            Regressor::Boosted(b) => b.predict_many_with(xs, scratch, out),
        }
    }

    /// Encodes the learner with a leading variant tag (artifact payloads).
    pub fn encode(&self, w: &mut Writer) {
        match self {
            Regressor::Tree(t) => {
                w.u8(0);
                t.encode(w);
            }
            Regressor::Forest(f) => {
                w.u8(1);
                f.encode(w);
            }
            Regressor::Boosted(b) => {
                w.u8(2);
                b.encode(w);
            }
        }
    }

    /// Decodes a learner written by [`Regressor::encode`].
    ///
    /// # Errors
    ///
    /// [`CodecError::BadTag`] on an unknown variant tag, plus every error
    /// the variant decoders can produce.
    pub fn decode(r: &mut Reader<'_>) -> CodecResult<Self> {
        match r.u8()? {
            0 => Ok(Regressor::Tree(RegressionTree::decode(r)?)),
            1 => Ok(Regressor::Forest(BaggedForest::decode(r)?)),
            2 => Ok(Regressor::Boosted(BoostedTrees::decode(r)?)),
            tag => Err(CodecError::BadTag { context: "regressor variant", tag: tag as u64 }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic nonlinear design: no RNG, no tanh, fully
    /// reproducible across hosts.
    fn design(n: usize, width: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let row: Vec<f64> =
                (0..width).map(|f| ((i * 37 + f * 11) % 97) as f64 / 9.7 - 5.0).collect();
            let y = row[0] * 1.5 - row[1 % width].abs()
                + (row[2 % width] * 0.7).sin() * 3.0
                + ((i % 13) as f64) * 0.05;
            xs.push(row);
            ys.push(y);
        }
        (xs, ys)
    }

    #[test]
    fn derive_seed_decorrelates_slots() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        let c = derive_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(42, 0));
    }

    #[test]
    fn bootstrap_indices_are_reproducible_and_in_range() {
        let a = bootstrap_indices(7, 50);
        let b = bootstrap_indices(7, 50);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        assert!(a.iter().all(|&i| i < 50));
        assert_ne!(a, bootstrap_indices(8, 50), "seed must matter");
        assert!(bootstrap_indices(7, 0).is_empty());
        // A bootstrap draw repeats some index with overwhelming
        // probability at n=50; sampling *without* replacement would not.
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(sorted.len() < a.len(), "bootstrap must draw with replacement");
    }

    #[test]
    fn forest_fit_is_bit_identical_at_any_worker_count() {
        let (xs, ys) = design(160, 5);
        let fit = |workers: Option<usize>| {
            let cfg =
                ForestConfig { n_trees: 9, seed: 11, parallelism: workers, ..Default::default() };
            BaggedForest::fit(&xs, &ys, &cfg).unwrap()
        };
        let serial = fit(Some(1));
        for workers in [None, Some(2), Some(4), Some(9)] {
            let par = fit(workers);
            assert_eq!(par, serial, "workers={workers:?}");
            for (row, want) in xs.iter().zip(serial.predict_many(&xs).unwrap()) {
                assert_eq!(par.predict(row).unwrap().to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn forest_batched_matches_scalar_bitwise() {
        let (xs, ys) = design(120, 4);
        let cfg = ForestConfig { n_trees: 7, seed: 3, ..Default::default() };
        let forest = BaggedForest::fit(&xs, &ys, &cfg).unwrap();
        let batch = forest.predict_many(&xs).unwrap();
        for (row, b) in xs.iter().zip(&batch) {
            assert_eq!(forest.predict(row).unwrap().to_bits(), b.to_bits());
        }
        // Forest averaging genuinely differs from any single member.
        let single = forest.trees()[0].predict_many(&xs).unwrap();
        assert!(batch.iter().zip(&single).any(|(a, b)| a != b));
    }

    #[test]
    fn forest_rejects_bad_config_and_bad_rows() {
        let (xs, ys) = design(40, 3);
        let err = BaggedForest::fit(&xs, &ys, &ForestConfig { n_trees: 0, ..Default::default() });
        assert!(matches!(err, Err(CartError::InvalidParameter { name: "n_trees", .. })));
        let forest =
            BaggedForest::fit(&xs, &ys, &ForestConfig { n_trees: 3, ..Default::default() })
                .unwrap();
        assert!(matches!(
            forest.predict(&[1.0]),
            Err(CartError::FeatureWidthMismatch { expected: 3, actual: 1 })
        ));
    }

    #[test]
    fn forest_round_trips_through_codec() {
        let (xs, ys) = design(80, 4);
        let cfg = ForestConfig { n_trees: 5, seed: 99, ..Default::default() };
        let forest = BaggedForest::fit(&xs, &ys, &cfg).unwrap();
        let mut w = Writer::new();
        forest.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = BaggedForest::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, forest);
        assert_eq!(back.seed(), 99);
    }

    #[test]
    fn boosting_improves_training_fit_and_early_stops() {
        let (xs, ys) = design(200, 5);
        let cfg = BoostConfig { rounds: 60, ..Default::default() };
        let model = BoostedTrees::fit(&xs, &ys, &cfg).unwrap();
        assert!(model.n_stages() >= 1, "boosting should keep at least one stage here");
        assert!(model.n_stages() <= 60);
        let preds = model.predict_many(&xs).unwrap();
        let sse: f64 = preds.iter().zip(&ys).map(|(p, y)| (p - y) * (p - y)).sum();
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let sse0: f64 = ys.iter().map(|y| (y - mean) * (y - mean)).sum();
        assert!(sse < sse0 * 0.7, "boosted SSE {sse} should beat the mean baseline {sse0}");
    }

    #[test]
    fn boosted_batched_matches_scalar_bitwise() {
        let (xs, ys) = design(150, 4);
        let model = BoostedTrees::fit(&xs, &ys, &BoostConfig::default()).unwrap();
        let batch = model.predict_many(&xs).unwrap();
        for (row, b) in xs.iter().zip(&batch) {
            assert_eq!(model.predict(row).unwrap().to_bits(), b.to_bits());
        }
    }

    #[test]
    fn boosted_parameter_domains_are_enforced() {
        let (xs, ys) = design(40, 3);
        for (cfg, name) in [
            (BoostConfig { rounds: 0, ..Default::default() }, "rounds"),
            (BoostConfig { shrinkage: 0.0, ..Default::default() }, "shrinkage"),
            (BoostConfig { shrinkage: 1.5, ..Default::default() }, "shrinkage"),
            (BoostConfig { holdout_fraction: 0.95, ..Default::default() }, "holdout_fraction"),
            (BoostConfig { patience: 0, ..Default::default() }, "patience"),
        ] {
            match BoostedTrees::fit(&xs, &ys, &cfg) {
                Err(CartError::InvalidParameter { name: got, .. }) => assert_eq!(got, name),
                other => panic!("expected InvalidParameter({name}), got {other:?}"),
            }
        }
    }

    #[test]
    fn boosted_without_holdout_runs_every_round() {
        let (xs, ys) = design(60, 3);
        let cfg = BoostConfig { rounds: 7, holdout_fraction: 0.0, ..Default::default() };
        let model = BoostedTrees::fit(&xs, &ys, &cfg).unwrap();
        assert_eq!(model.n_stages(), 7);
    }

    #[test]
    fn boosted_round_trips_through_codec() {
        let (xs, ys) = design(100, 4);
        let model = BoostedTrees::fit(&xs, &ys, &BoostConfig::default()).unwrap();
        let mut w = Writer::new();
        model.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = BoostedTrees::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, model);
    }

    #[test]
    fn regressor_dispatch_matches_variants_bitwise() {
        let (xs, ys) = design(90, 4);
        let tree = RegressionTree::fit(&xs, &ys, &TreeConfig::default()).unwrap();
        let forest =
            BaggedForest::fit(&xs, &ys, &ForestConfig { n_trees: 4, ..Default::default() })
                .unwrap();
        let boosted = BoostedTrees::fit(&xs, &ys, &BoostConfig::default()).unwrap();
        let regs = [
            Regressor::Tree(tree.clone()),
            Regressor::Forest(forest.clone()),
            Regressor::Boosted(boosted.clone()),
        ];
        let direct = [
            tree.predict_many(&xs).unwrap(),
            forest.predict_many(&xs).unwrap(),
            boosted.predict_many(&xs).unwrap(),
        ];
        let mut scratch = EnsembleScratch::default();
        for (reg, want) in regs.iter().zip(&direct) {
            let mut out = Vec::new();
            reg.predict_many_with(&xs, &mut scratch, &mut out).unwrap();
            assert_eq!(out.len(), want.len());
            for (a, b) in out.iter().zip(want) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}", reg.kind_name());
            }
            // Tagged codec round trip.
            let mut w = Writer::new();
            reg.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = Regressor::decode(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(&back, reg);
        }
        // Unknown variant tag is a typed error.
        let mut w = Writer::new();
        w.u8(9);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(Regressor::decode(&mut r), Err(CodecError::BadTag { .. })));
    }
}
