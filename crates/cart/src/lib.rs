//! CART regression-tree substrate for the spatiotemporal model.
//!
//! §VI of the paper partitions the feature space recursively and attaches
//! "simpler learning models, like the linear regression" to each cell —
//! i.e. a **model tree**: CART (Breiman et al. \[49\]) growth with
//! variance-reduction splits, pruning to the paper's 88% retention ("we
//! prune the tree to keep only 88% of the original standard deviations",
//! read as a holdout-RMSE bar), and multivariate-linear-regression leaves
//! (Eq. 8–10).
//!
//! * [`leaf`] — leaf models: constant mean or MLR with constant fallback;
//! * [`tree`] — presorted, allocation-free tree growth and prediction;
//! * [`prune`] — bottom-up reduced-error pruning against a holdout set;
//! * [`ensemble`] — deterministic bagged forests and gradient-boosted
//!   model trees over the same grower (the forecaster zoo).
//!
//! The original per-node-sort grower survives only as a test-only
//! module (`reference`), the bit-identity oracle for the presorted
//! grower's property tests.
//!
//! # Example
//!
//! ```
//! use ddos_cart::tree::{RegressionTree, TreeConfig};
//!
//! # fn main() -> Result<(), ddos_cart::CartError> {
//! // y = 1 for x < 0, y = 5 for x ≥ 0: one split suffices.
//! let xs: Vec<Vec<f64>> = (-20..20).map(|i| vec![i as f64]).collect();
//! let ys: Vec<f64> = (-20..20).map(|i| if i < 0 { 1.0 } else { 5.0 }).collect();
//! let tree = RegressionTree::fit(&xs, &ys, &TreeConfig::default())?;
//! assert!((tree.predict(&[-3.0])? - 1.0).abs() < 1e-9);
//! assert!((tree.predict(&[3.0])? - 5.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No library entry point panics: every failure is a typed error.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod ensemble;
pub mod leaf;
pub mod prune;
pub mod tree;

#[cfg(test)]
mod reference;

mod error;

pub use error::CartError;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, CartError>;
