//! AS-level Internet substrate for the DDoS adversary-behavior models.
//!
//! The paper's source-distribution feature (Eq. 3–4) needs two pieces of
//! Internet infrastructure that the authors obtained from commercial and
//! public services:
//!
//! 1. an **IP→ASN mapping** (they used a commercial whois dataset \[41\]) —
//!    provided here by [`ipmap::IpAsnMap`], a longest-prefix-match table
//!    over the synthetic Internet's prefix allocations;
//! 2. **inter-AS hop distances** over valley-free paths — provided by
//!    [`paths::PathOracle`].
//!
//! The authors inferred AS business relationships from Route Views tables
//! with Gao's algorithm \[43\], \[44\] only because those tables carry no
//! relationship labels. The synthetic Internet knows its true
//! relationships, so the distances run on them directly.
//!
//! The synthetic topology itself ([`gen::TopologyGenerator`]) follows the
//! classic three-tier hierarchy: a clique of tier-1 transit providers,
//! regional tier-2 networks multi-homed to tier-1s with lateral peering,
//! and stub ASes (where bots and targets live) multi-homed to tier-2s.
//!
//! # Example
//!
//! ```
//! use ddos_astopo::gen::{TopologyConfig, TopologyGenerator};
//! use ddos_astopo::paths::PathOracle;
//!
//! # fn main() -> Result<(), ddos_astopo::TopoError> {
//! let topo = TopologyGenerator::new(TopologyConfig::small(), 7).generate()?;
//! let oracle = PathOracle::new(&topo);
//! let asns: Vec<_> = topo.asns().take(2).collect();
//! let d = oracle.hop_distance(asns[0], asns[1]);
//! assert!(d.is_some());
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

pub mod dense;
pub mod gen;
pub mod graph;
pub mod ipmap;
pub mod paths;

mod error;

pub use dense::{DenseTopology, NodeId};
pub use error::TopoError;
pub use graph::{AsGraph, Asn, Relationship, Tier};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TopoError>;
