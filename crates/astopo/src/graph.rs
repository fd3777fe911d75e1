//! The annotated AS-level graph: nodes are autonomous systems, edges carry
//! business relationships (customer–provider or peer–peer).

use crate::dense::DenseTopology;
use crate::{Result, TopoError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An autonomous system number.
///
/// A transparent newtype so AS numbers cannot be confused with bot counts,
/// hop distances or any other integer flowing through the models.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

/// The hierarchy tier an AS occupies in the synthetic Internet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Tier {
    /// Global transit-free backbone network (tier-1 clique member).
    Tier1,
    /// Regional transit provider buying from tier-1s.
    Tier2,
    /// Edge/stub network: enterprises, campuses, eyeball networks. Bots and
    /// targets live here.
    Stub,
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tier::Tier1 => write!(f, "tier-1"),
            Tier::Tier2 => write!(f, "tier-2"),
            Tier::Stub => write!(f, "stub"),
        }
    }
}

/// The business relationship attached to a directed neighbor entry.
///
/// Stored from the perspective of the node owning the adjacency list: if
/// `b` appears in `a`'s list with [`Relationship::Customer`], then `b` is
/// a customer of `a` (money flows from `b` to `a`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Relationship {
    /// The neighbor is this AS's customer.
    Customer,
    /// The neighbor is this AS's provider.
    Provider,
    /// Settlement-free peer.
    Peer,
}

impl Relationship {
    /// The relationship as seen from the other end of the edge.
    pub fn reverse(self) -> Relationship {
        match self {
            Relationship::Customer => Relationship::Provider,
            Relationship::Provider => Relationship::Customer,
            Relationship::Peer => Relationship::Peer,
        }
    }
}

/// Per-AS metadata.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsInfo {
    /// Hierarchy tier.
    pub tier: Tier,
    /// Coarse geographic region index (the trace generator gives botnet
    /// families regional affinities, mirroring the paper's observation that
    /// "location features have greater impact on the botnet families").
    pub region: u8,
}

/// The annotated AS graph.
///
/// Node set plus, for every node, a sorted neighbor map annotated with
/// relationships. Deterministic iteration order (BTreeMap throughout) keeps
/// every downstream computation reproducible.
///
/// Query-heavy consumers ([`crate::paths::PathOracle`] above all) do not
/// walk the maps: [`AsGraph::dense`] exposes a lazily-built, cached
/// [`DenseTopology`] — a `u32`-interned CSR snapshot — that any mutation
/// invalidates.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AsGraph {
    nodes: BTreeMap<Asn, AsInfo>,
    adj: BTreeMap<Asn, BTreeMap<Asn, Relationship>>,
    /// Cached dense view; rebuilt on demand after any mutation. Skipped by
    /// serde (pure derived data) and by `PartialEq` (the maps are the
    /// source of truth).
    #[serde(skip)]
    dense: OnceLock<Arc<DenseTopology>>,
}

impl PartialEq for AsGraph {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.adj == other.adj
    }
}

impl AsGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        AsGraph::default()
    }

    /// Adds an AS with the given tier and region. Re-adding an existing AS
    /// overwrites its metadata but keeps its edges.
    pub fn add_as(&mut self, asn: Asn, tier: Tier, region: u8) {
        self.nodes.insert(asn, AsInfo { tier, region });
        self.adj.entry(asn).or_default();
        self.dense.take();
    }

    /// Adds an edge, expressed as `provider → customer` or as a peering.
    ///
    /// `rel` is the relationship of `b` as seen from `a` (e.g.
    /// [`Relationship::Customer`] means `b` is `a`'s customer).
    ///
    /// # Errors
    ///
    /// * [`TopoError::UnknownAs`] when either endpoint is absent.
    /// * [`TopoError::SelfLoop`] when `a == b`.
    /// * [`TopoError::ConflictingEdge`] when the edge already exists with a
    ///   different relationship.
    pub fn add_edge(&mut self, a: Asn, b: Asn, rel: Relationship) -> Result<()> {
        if a == b {
            return Err(TopoError::SelfLoop(a));
        }
        if !self.nodes.contains_key(&a) {
            return Err(TopoError::UnknownAs(a));
        }
        if !self.nodes.contains_key(&b) {
            return Err(TopoError::UnknownAs(b));
        }
        if let Some(existing) = self.adj.get(&a).and_then(|m| m.get(&b)) {
            if *existing != rel {
                return Err(TopoError::ConflictingEdge { a, b });
            }
            return Ok(());
        }
        self.adj.entry(a).or_default().insert(b, rel);
        self.adj.entry(b).or_default().insert(a, rel.reverse());
        self.dense.take();
        Ok(())
    }

    /// The dense CSR view of this graph, built on first call and cached
    /// until the next mutation. Returned behind an `Arc` so long-lived
    /// consumers (the path oracle, sharded workers) share one snapshot.
    pub fn dense(&self) -> Arc<DenseTopology> {
        Arc::clone(self.dense.get_or_init(|| Arc::new(DenseTopology::build(self))))
    }

    /// Whether the AS exists.
    pub fn contains(&self, asn: Asn) -> bool {
        self.nodes.contains_key(&asn)
    }

    /// Metadata for an AS.
    pub fn info(&self, asn: Asn) -> Option<&AsInfo> {
        self.nodes.get(&asn)
    }

    /// The relationship of `b` as seen from `a`, if the edge exists.
    pub fn relationship(&self, a: Asn, b: Asn) -> Option<Relationship> {
        self.adj.get(&a).and_then(|m| m.get(&b)).copied()
    }

    /// Iterator over all AS numbers in ascending order.
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.nodes.keys().copied()
    }

    /// Iterator over `(neighbor, relationship)` pairs of an AS (empty for
    /// unknown ASes).
    pub fn neighbors(&self, asn: Asn) -> impl Iterator<Item = (Asn, Relationship)> + '_ {
        self.adj.get(&asn).into_iter().flat_map(|m| m.iter().map(|(k, v)| (*k, *v)))
    }

    /// The customers of an AS.
    pub fn customers(&self, asn: Asn) -> Vec<Asn> {
        self.neighbors(asn).filter(|(_, r)| *r == Relationship::Customer).map(|(n, _)| n).collect()
    }

    /// The providers of an AS.
    pub fn providers(&self, asn: Asn) -> Vec<Asn> {
        self.neighbors(asn).filter(|(_, r)| *r == Relationship::Provider).map(|(n, _)| n).collect()
    }

    /// The peers of an AS.
    pub fn peers(&self, asn: Asn) -> Vec<Asn> {
        self.neighbors(asn).filter(|(_, r)| *r == Relationship::Peer).map(|(n, _)| n).collect()
    }

    /// Total number of ASes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no ASes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.values().map(|m| m.len()).sum::<usize>() / 2
    }

    /// Degree (neighbor count) of an AS; 0 for unknown ASes.
    pub fn degree(&self, asn: Asn) -> usize {
        self.adj.get(&asn).map_or(0, |m| m.len())
    }

    /// All ASes of a given tier, ascending.
    pub fn tier_members(&self, tier: Tier) -> Vec<Asn> {
        self.nodes.iter().filter(|(_, i)| i.tier == tier).map(|(a, _)| *a).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AsGraph {
        let mut g = AsGraph::new();
        g.add_as(Asn(1), Tier::Tier1, 0);
        g.add_as(Asn(2), Tier::Tier2, 0);
        g.add_as(Asn(3), Tier::Stub, 1);
        g.add_edge(Asn(1), Asn(2), Relationship::Customer).unwrap();
        g.add_edge(Asn(2), Asn(3), Relationship::Customer).unwrap();
        g
    }

    #[test]
    fn asn_displays_with_prefix() {
        assert_eq!(Asn(64512).to_string(), "AS64512");
        assert_eq!(Asn::from(7u32), Asn(7));
    }

    #[test]
    fn relationship_reverse_round_trips() {
        for r in [Relationship::Customer, Relationship::Provider, Relationship::Peer] {
            assert_eq!(r.reverse().reverse(), r);
        }
        assert_eq!(Relationship::Customer.reverse(), Relationship::Provider);
        assert_eq!(Relationship::Peer.reverse(), Relationship::Peer);
    }

    #[test]
    fn edges_are_symmetric() {
        let g = tiny();
        assert_eq!(g.relationship(Asn(1), Asn(2)), Some(Relationship::Customer));
        assert_eq!(g.relationship(Asn(2), Asn(1)), Some(Relationship::Provider));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn customer_provider_listing() {
        let g = tiny();
        assert_eq!(g.customers(Asn(1)), vec![Asn(2)]);
        assert_eq!(g.providers(Asn(3)), vec![Asn(2)]);
        assert!(g.peers(Asn(1)).is_empty());
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = tiny();
        assert_eq!(
            g.add_edge(Asn(1), Asn(1), Relationship::Peer),
            Err(TopoError::SelfLoop(Asn(1)))
        );
    }

    #[test]
    fn unknown_endpoint_rejected() {
        let mut g = tiny();
        assert_eq!(
            g.add_edge(Asn(1), Asn(99), Relationship::Peer),
            Err(TopoError::UnknownAs(Asn(99)))
        );
    }

    #[test]
    fn duplicate_edge_idempotent_but_conflict_rejected() {
        let mut g = tiny();
        // Same relationship again: fine.
        g.add_edge(Asn(1), Asn(2), Relationship::Customer).unwrap();
        // Conflicting: rejected.
        assert!(matches!(
            g.add_edge(Asn(1), Asn(2), Relationship::Peer),
            Err(TopoError::ConflictingEdge { .. })
        ));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn tier_members_and_degree() {
        let g = tiny();
        assert_eq!(g.tier_members(Tier::Stub), vec![Asn(3)]);
        assert_eq!(g.degree(Asn(2)), 2);
        assert_eq!(g.degree(Asn(99)), 0);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
    }

    #[test]
    fn info_reports_region() {
        let g = tiny();
        assert_eq!(g.info(Asn(3)).unwrap().region, 1);
        assert!(g.info(Asn(42)).is_none());
    }
}
