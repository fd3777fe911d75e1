//! Synthetic verified-DDoS-attack trace substrate.
//!
//! The ICDCS 2017 paper is built on a proprietary corpus: 50,704 *verified*
//! DDoS attacks observed over seven months (Aug 2012 – Mar 2013) across 10
//! active botnet families, with hourly snapshots of participating bots.
//! That corpus cannot be redistributed, so this crate regenerates a
//! statistically faithful stand-in:
//!
//! * per-family activity calibrated to **every number in Table I** (average
//!   attacks/day, active-day counts, coefficient of variation) via a
//!   doubly-stochastic arrival process (AR(1) log-normal daily rates over a
//!   Poisson layer) — see [`arrival`];
//! * the 30 s–24 h **multistage inter-launch band** of §III-A2;
//! * **diurnal launch cycles** (hour-of-day preferences per family);
//! * per-family **bot pools with churn and AS-geolocation affinity**,
//!   grounded in the [`ddos_astopo`] synthetic Internet so the AS-level
//!   source-distribution feature (Eq. 3–4) is computable end to end;
//! * per-target **affinity and duration persistence**, giving the spatial
//!   and spatiotemporal models the signal they were designed to detect.
//!
//! The trace's *shape* — who is most active, how bursty each family is,
//! where bots sit, how attacks cluster on targets — mirrors what the paper
//! reports, which is what the models consume; absolute numbers are not
//! claimed to match the original measurement.
//!
//! # Quickstart
//!
//! ```
//! use ddos_trace::{CorpusConfig, TraceGenerator};
//!
//! # fn main() -> Result<(), ddos_trace::TraceError> {
//! let corpus = TraceGenerator::new(CorpusConfig::small(), 42).generate()?;
//! assert!(corpus.attacks().len() > 100);
//! let (train, test) = corpus.split(0.8)?;
//! assert!(train.len() > test.len());
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

pub mod arrival;
pub mod attack;
pub mod bots;
pub mod chains;
pub mod columnar;
pub mod dataset;
pub mod export;
pub mod family;
pub mod generator;
pub mod scenario;
pub mod stats;
pub mod stream;
pub mod targets;
pub mod time;

mod error;

pub use attack::{AttackId, AttackRecord, AttackVector, BotObservation};
pub use columnar::{ColumnarReader, ColumnarWriter};
pub use dataset::Corpus;
pub use error::TraceError;
pub use family::{FamilyCatalog, FamilyId, FamilyProfile};
pub use generator::{CorpusConfig, TraceGenerator};
pub use scenario::{RegimeParams, RegimeSchedule, ScenarioPolicy};
pub use stream::{CorpusStream, StreamOptions};
pub use targets::{TargetId, TargetPopulation};
pub use time::Timestamp;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TraceError>;
