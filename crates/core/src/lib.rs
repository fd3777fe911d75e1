//! Adversary-centric behavior modeling of DDoS attacks — the core library.
//!
//! This crate implements the contribution of *"An Adversary-Centric
//! Behavior Modeling of DDoS Attacks"* (Wang, Mohaisen, Chen — ICDCS 2017):
//! three data-driven models that capture the temporal, spatial and
//! spatiotemporal behavior of botnet-launched DDoS attacks, trained and
//! validated on a corpus of verified attacks, and used to *predict*
//! essential features of future attacks — magnitude, duration, source-AS
//! distribution, and launch timestamp (day and hour).
//!
//! | paper section | module | model |
//! |---|---|---|
//! | §III | [`features`], [`variables`] | feature extraction (Table II) |
//! | §IV | [`temporal`] | ARIMA over per-family magnitude and `A^s` series (Eq. 5) |
//! | §V | [`spatial`] | NAR neural network per target network (Eq. 6–7) |
//! | §VI | [`spatiotemporal`] | regression tree with MLR leaves (Eq. 8–10) |
//! | §VII-A | [`baseline`] | Always-Same / Always-Mean comparisons |
//! | §VII-B | [`usecases`] | AS-based filtering & middlebox traversal |
//! | §VII-B (attribution) | [`attribution`] | family attribution from source-AS profiles |
//! | §V-B (early detection) | [`detection`] | sliding-window AS-entropy detector |
//!
//! [`pipeline`] wires the whole thing together (80/20 chronological split,
//! per-model training, rolling prediction) and [`evaluate`] computes the
//! RMSE tables and error series behind Figures 1–4. [`drift`]
//! stresses the stationarity assumption those splits bake in: it measures
//! every forecaster's RMSE before, across, and after the regime
//! boundaries of a [`ddos_trace::scenario`] policy.
//!
//! # Quickstart
//!
//! ```
//! use ddos_core::pipeline::{Pipeline, PipelineConfig};
//! use ddos_trace::{CorpusConfig, TraceGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let corpus = TraceGenerator::new(CorpusConfig::small(), 42).generate()?;
//! let pipeline = Pipeline::new(PipelineConfig::fast(), 42);
//! let report = pipeline.run_temporal(&corpus)?;
//! assert!(!report.per_family.is_empty());
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

pub mod artifact;
pub mod attribution;
pub mod baseline;
pub mod detection;
pub mod drift;
pub mod evaluate;
pub mod features;
pub mod pipeline;
pub mod spatial;
pub mod spatiotemporal;
pub mod temporal;
pub mod usecases;
pub mod variables;

mod error;

pub use error::ModelError;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, ModelError>;
