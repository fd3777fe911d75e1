//! Long-lived batching forecast service over fitted spatiotemporal
//! artifacts.
//!
//! The fitting pipeline (`ddos-core`) produces versioned model
//! artifacts; this crate is the other half of the split: a serving
//! process that decode-caches those artifacts behind a [`ModelStore`],
//! accepts [`ForecastRequest`]s onto one locked batch queue,
//! accumulates them into micro-batches (flushed on size or deadline),
//! fans each batch across the deterministic sharded executor, and
//! answers each [`ForecastTicket`] through a reusable reply slab — with
//! typed admission control (bounded in-flight depth →
//! [`ServeError::Overloaded`]) and multi-horizon sliding-window
//! per-source rate accounting ([`ServeError::RateLimited`]). Queue,
//! slab and flush buffers are allocated once per service, not per
//! request.
//!
//! The load-bearing property is *bit-identity*: concurrent micro-batched
//! serving returns, for every request, exactly the `f64` bits that a
//! serial [`SpatioTemporalModel::forecast_features`] call over the same
//! features would — at any batch size, flush timing or worker count.
//! Each request's score is a pure function of its own feature row, so
//! batching and sharding are pure scheduling choices. The determinism
//! proptests in `tests/` pin this with `to_bits` equality.
//!
//! ```no_run
//! use ddos_serve::{DirModelStore, ForecastService, ModelStore, ServeConfig};
//! use std::sync::Arc;
//!
//! let store: Arc<dyn ModelStore> = Arc::new(DirModelStore::open("artifacts"));
//! let handle = ForecastService::start(&store, "spatiotemporal", ServeConfig::default())?;
//! let client = handle.client();
//! // ... submit ForecastRequests from any thread, wait on tickets ...
//! let stats = handle.shutdown()?;
//! println!("served {} requests in {} batches", stats.served, stats.batches);
//! # Ok::<(), ddos_serve::ServeError>(())
//! ```
//!
//! [`SpatioTemporalModel::forecast_features`]: ddos_core::spatiotemporal::SpatioTemporalModel::forecast_features

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No library entry point panics: every failure is a typed error.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod error;
pub mod rate;
pub mod service;
pub mod store;

pub use error::{Result, ServeError};
pub use rate::{default_windows, RateLimiter, RateWindow};
pub use service::{
    BatchPolicy, ForecastRequest, ForecastResponse, ForecastService, ForecastTicket, ServeClient,
    ServeConfig, ServeHandle, ServeStats,
};
pub use store::{DirModelStore, MemoryModelStore, ModelStore};

/// Fixtures shared by the unit tests of this crate's modules.
#[cfg(test)]
mod test_support {
    use ddos_core::spatiotemporal::{SpatioTemporalConfig, SpatioTemporalModel};
    use ddos_trace::{CorpusConfig, TraceGenerator};
    use std::sync::{Arc, Mutex, OnceLock};

    /// A spatiotemporal model fitted once on the small corpus.
    pub(crate) fn fitted() -> &'static Arc<SpatioTemporalModel> {
        static CELL: OnceLock<Arc<SpatioTemporalModel>> = OnceLock::new();
        CELL.get_or_init(|| {
            let corpus = TraceGenerator::new(CorpusConfig::small(), 300).generate().unwrap();
            let (train, _) = corpus.split(0.8).unwrap();
            let config = SpatioTemporalConfig::fast();
            Arc::new(SpatioTemporalModel::fit(&corpus, train, &config, 5).unwrap())
        })
    }

    /// Panics on another thread while holding `lock`, leaving it poisoned.
    pub(crate) fn poison<T: Send>(lock: &Mutex<T>) {
        let held = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = lock.lock();
                panic!("a lock holder panicked");
            })
            .join()
        });
        assert!(held.is_err());
        assert!(lock.is_poisoned());
    }
}
