//! Feedforward neural-network substrate for the spatial (NAR) model.
//!
//! The paper's spatial model (§V) is a nonlinear autoregressive (NAR)
//! network: one hidden layer, tan-sigmoid activation (their stated choice),
//! trained per target network, with the number of delays and hidden nodes
//! chosen by grid search. This crate implements that stack from scratch:
//!
//! * [`kernel`] — the batched tan-sigmoid the hidden layer runs through;
//! * [`scale`] — min–max normalization to the sigmoid's linear range;
//! * [`network`] — a one-hidden-layer tan-sigmoid multilayer perceptron;
//! * [`train`] — batch iRPROP− training with early stopping on a
//!   validation split;
//! * [`nar`] — the NAR wrapper: lagged-input construction, one-step and
//!   recursive forecasting (Eq. 6: `T_{j+1} = f(T_j, …, T_{j−q}) + ε`);
//! * [`grid`] — grid search over (delays × hidden nodes), as in §V-A.
//!
//! # Example
//!
//! ```
//! use ddos_neural::nar::{NarConfig, NarModel};
//!
//! # fn main() -> Result<(), ddos_neural::NeuralError> {
//! let series: Vec<f64> = (0..200).map(|i| ((i as f64) * 0.3).sin()).collect();
//! let model = NarModel::fit(&series, NarConfig { delays: 4, hidden: 6, ..Default::default() }, 7)?;
//! let next = model.forecast(&series, 1)?;
//! assert!(next[0].abs() <= 1.5);
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

pub mod grid;
pub mod kernel;
pub mod nar;
pub mod network;
pub mod scale;
pub mod train;

mod error;

pub use error::NeuralError;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, NeuralError>;
