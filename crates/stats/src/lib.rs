//! Time-series and regression substrate for the DDoS adversary-behavior models.
//!
//! This crate provides every statistical primitive the ICDCS 2017 reproduction
//! needs, implemented from scratch so the whole numeric stack stays auditable
//! and offline-safe:
//!
//! * [`matrix`] — the least-squares kernel (Householder QR into reusable
//!   buffers) every regression fit solves through.
//! * [`ols`] — multivariate ordinary-least-squares regression.
//! * [`acf`] — the sample autocorrelation function.
//! * [`arima`] — autoregressive integrated moving-average models: differencing,
//!   conditional-sum-of-squares fitting, multi-step forecasting.
//! * [`select`] — AIC order search for ARIMA.
//! * [`metrics`] — forecast-accuracy and dispersion metrics (RMSE, MAE,
//!   CV, histograms).
//! * [`distributions`] — seedable samplers (normal, log-normal, Poisson,
//!   categorical, diurnal cycles) used by the trace generator.
//! * [`exec`] — deterministic sharded parallel executor backing the
//!   model-fitting hot paths (same outputs at any thread count).
//! * [`codec`] — little-endian `to_bits` encoding primitives underlying
//!   the versioned model-artifact format.
//!
//! # Example
//!
//! Fit an AR(1) process and forecast one step ahead:
//!
//! ```
//! use ddos_stats::arima::{Arima, ArimaOrder};
//!
//! # fn main() -> Result<(), ddos_stats::StatsError> {
//! // A decaying AR(1)-ish series.
//! let series: Vec<f64> = (0..200).map(|i| (0.8f64).powi(i % 7) + (i as f64) * 0.001).collect();
//! let model = Arima::fit(&series, ArimaOrder::new(1, 0, 0))?;
//! let forecast = model.forecast(1)?;
//! assert_eq!(forecast.len(), 1);
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

pub mod acf;
pub mod arima;
pub mod codec;
pub mod distributions;
pub mod exec;
pub mod matrix;
pub mod metrics;
pub mod ols;
pub mod regress;
pub mod select;

mod error;

pub use error::StatsError;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, StatsError>;
