//! The unified serve-facing error type.
//!
//! Everything a serving caller can hit — admission rejections, rate
//! limiting, artifact decode failures, scoring failures — folds into one
//! [`ServeError`], with `From` impls for every substrate error so `?`
//! composes across crate boundaries and callers match a single type.

use ddos_cart::CartError;
use ddos_core::artifact::ArtifactError;
use ddos_core::ModelError;
use ddos_stats::StatsError;
use std::error::Error;
use std::fmt;

/// Any failure a forecast-serving caller can observe.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// Admission control rejected the request: the service already holds
    /// `queued` in-flight requests against a capacity of `capacity`.
    /// Typed so callers can shed load or retry with backoff instead of
    /// string-matching.
    Overloaded {
        /// Requests in flight (queued or batched, not yet answered).
        queued: usize,
        /// The configured admission capacity.
        capacity: usize,
    },
    /// The per-source sliding-window rate accounting rejected the
    /// request: `source` already admitted `limit` requests within the
    /// trailing `window_secs` window.
    RateLimited {
        /// The submitting source identifier.
        source: u64,
        /// The violated window length in seconds.
        window_secs: u64,
        /// The window's admission limit.
        limit: usize,
    },
    /// The service has been shut down; no further requests are accepted.
    ShuttingDown,
    /// The model store has no artifact under the requested key.
    ModelNotFound {
        /// The key that was probed.
        key: String,
    },
    /// The dispatcher disappeared without answering (the service was torn
    /// down while the request was in flight).
    Disconnected,
    /// Scoring panicked while this request's micro-batch was being
    /// scored. Every request of that batch gets this error; the service
    /// keeps serving later batches.
    ScoringPanicked,
    /// Loading or decoding a model artifact failed.
    Artifact(ArtifactError),
    /// Tree scoring failed (e.g. a malformed feature row).
    Cart(CartError),
    /// A statistics-substrate operation failed.
    Stats(StatsError),
    /// A model-layer operation failed.
    Model(ModelError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { queued, capacity } => {
                write!(f, "service overloaded: {queued} requests in flight (capacity {capacity})")
            }
            ServeError::RateLimited { source, window_secs, limit } => {
                write!(
                    f,
                    "source {source} rate-limited: over {limit} requests in the \
                     trailing {window_secs}s window"
                )
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::ModelNotFound { key } => write!(f, "no model artifact under key {key:?}"),
            ServeError::Disconnected => write!(f, "serving worker disconnected before answering"),
            ServeError::ScoringPanicked => {
                write!(f, "scoring panicked; this request's batch was not scored")
            }
            ServeError::Artifact(e) => write!(f, "artifact error: {e}"),
            ServeError::Cart(e) => write!(f, "regression-tree error: {e}"),
            ServeError::Stats(e) => write!(f, "stats error: {e}"),
            ServeError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Artifact(e) => Some(e),
            ServeError::Cart(e) => Some(e),
            ServeError::Stats(e) => Some(e),
            ServeError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArtifactError> for ServeError {
    fn from(e: ArtifactError) -> Self {
        ServeError::Artifact(e)
    }
}

impl From<CartError> for ServeError {
    fn from(e: CartError) -> Self {
        ServeError::Cart(e)
    }
}

impl From<StatsError> for ServeError {
    fn from(e: StatsError) -> Self {
        ServeError::Stats(e)
    }
}

impl From<ModelError> for ServeError {
    fn from(e: ModelError) -> Self {
        ServeError::Model(e)
    }
}

/// Convenience result alias for serving operations.
pub type Result<T> = std::result::Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_impls_fold_substrate_errors() {
        let a: ServeError = ArtifactError::BadMagic.into();
        assert!(matches!(a, ServeError::Artifact(ArtifactError::BadMagic)));
        let c: ServeError = CartError::NonFiniteInput.into();
        assert!(matches!(c, ServeError::Cart(CartError::NonFiniteInput)));
        let s: ServeError = StatsError::EmptyInput.into();
        assert!(matches!(s, ServeError::Stats(StatsError::EmptyInput)));
        let m: ServeError = ModelError::Stats(StatsError::EmptyInput).into();
        assert!(matches!(m, ServeError::Model(_)));
    }

    #[test]
    fn display_messages_are_actionable() {
        let e = ServeError::Overloaded { queued: 128, capacity: 128 };
        assert!(e.to_string().contains("capacity 128"));
        let e = ServeError::RateLimited { source: 7, window_secs: 10, limit: 100 };
        assert!(e.to_string().contains("source 7"));
        assert!(e.to_string().contains("10s"));
        assert!(ServeError::ModelNotFound { key: "st".into() }.to_string().contains("st"));
        // Source chains through to the substrate error.
        let e = ServeError::Artifact(ArtifactError::BadMagic);
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&ServeError::ShuttingDown).is_none());
        assert!(ServeError::ScoringPanicked.to_string().contains("panicked"));
    }
}
