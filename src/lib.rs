//! Facade crate for the adversary-centric DDoS behavior-modeling workspace.
//!
//! Re-exports every member crate under one roof so downstream users (and the
//! runnable examples under `examples/`) can depend on a single package:
//!
//! * [`stats`] — time-series/regression substrate (OLS, ARIMA, metrics, …)
//! * [`astopo`] — AS-level Internet substrate (topology generation,
//!   valley-free hop distances, IP→ASN mapping)
//! * [`trace`] — synthetic verified-DDoS-attack corpus generator
//! * [`neural`] — NAR neural-network substrate
//! * [`cart`] — CART regression-tree / model-tree substrate
//! * [`model`] — the paper's contribution: temporal, spatial and
//!   spatiotemporal attack models, baselines and evaluation
//! * [`serve`] — long-lived micro-batching forecast service over fitted
//!   model artifacts (admission control, rate accounting, deterministic
//!   sharded scoring)
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs`, or:
//!
//! ```
//! use ddos_adversary::trace::{CorpusConfig, TraceGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = CorpusConfig::small();
//! let corpus = TraceGenerator::new(config, 42).generate()?;
//! assert!(corpus.attacks().len() > 100);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use ddos_astopo as astopo;
pub use ddos_cart as cart;
pub use ddos_core as model;
pub use ddos_neural as neural;
pub use ddos_serve as serve;
pub use ddos_stats as stats;
pub use ddos_trace as trace;
