use std::error::Error;
use std::fmt;

use crate::graph::Asn;

/// Error type for the AS-topology substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopoError {
    /// A referenced AS does not exist in the graph.
    UnknownAs(Asn),
    /// An edge was declared twice with conflicting relationships.
    ConflictingEdge {
        /// One endpoint.
        a: Asn,
        /// The other endpoint.
        b: Asn,
    },
    /// A self-loop edge was supplied.
    SelfLoop(Asn),
    /// Generator configuration is invalid.
    InvalidConfig {
        /// Description of the violation.
        detail: String,
    },
    /// A prefix allocation overlapped an existing allocation exactly.
    DuplicatePrefix {
        /// The network address of the offending prefix.
        network: u32,
        /// The prefix length.
        len: u8,
    },
}

impl fmt::Display for TopoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoError::UnknownAs(asn) => write!(f, "unknown AS {asn}"),
            TopoError::ConflictingEdge { a, b } => {
                write!(f, "conflicting relationship declared for edge {a}–{b}")
            }
            TopoError::SelfLoop(asn) => write!(f, "self-loop on AS {asn}"),
            TopoError::InvalidConfig { detail } => write!(f, "invalid topology config: {detail}"),
            TopoError::DuplicatePrefix { network, len } => {
                write!(f, "duplicate prefix {}/{len}", crate::ipmap::format_ipv4(*network))
            }
        }
    }
}

impl Error for TopoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_asn() {
        let e = TopoError::UnknownAs(Asn(42));
        assert!(e.to_string().contains("42"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TopoError>();
    }
}
