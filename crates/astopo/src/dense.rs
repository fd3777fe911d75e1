//! Dense-indexed (CSR) view of an [`AsGraph`].
//!
//! The valley-free distance queries behind Eq. 4 are BFS-and-intersect
//! loops; running them over `BTreeMap` adjacency means a pointer chase and
//! an allocator hit per visited edge. This module interns every ASN into a
//! dense [`NodeId`] (`u32`) and lays out the two edge groups those loops
//! read in one contiguous CSR arena: each node's providers, then its peers,
//! each group ascending by ASN (the order the `BTreeMap` iteration
//! produced). The uphill BFS walks exactly the provider group and the
//! peer-crossing scan exactly the peer group, without a relationship
//! branch per edge. Customer edges are the providers' mirror image and
//! nothing walks them downhill, so the arena does not store them.
//!
//! The view is immutable: [`AsGraph`] builds it lazily on first query and
//! drops it on mutation, so holders always observe a layout consistent
//! with the graph they asked.

use crate::graph::{AsGraph, Asn, Relationship};

/// Dense node index into a [`DenseTopology`] — the interned form of an
/// [`Asn`]. Ids are assigned in ascending ASN order, so iterating
/// `0..len` visits ASes in the same order as [`AsGraph::asns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// CSR-style immutable snapshot of an [`AsGraph`]'s structure.
#[derive(Debug, Clone)]
pub struct DenseTopology {
    /// `NodeId` → `Asn`, ascending (the interning table).
    asns: Vec<Asn>,
    /// The first ASN when the interned ASNs are contiguous (the generator
    /// numbers its ASes `1..=n`): then `node_id` is a subtraction, not a
    /// binary search.
    contiguous_from: Option<u32>,
    /// Node `u`'s providers and peers live at
    /// `nbrs[offsets[u] .. offsets[u + 1]]`.
    offsets: Vec<u32>,
    /// Within `u`'s slice, peers start here (providers come before).
    peer_start: Vec<u32>,
    /// The adjacency arena: providers | peers per node, each group
    /// ascending by ASN.
    nbrs: Vec<NodeId>,
}

impl DenseTopology {
    /// Builds the dense view. Called by [`AsGraph::dense`]; not usually
    /// invoked directly.
    pub fn build(graph: &AsGraph) -> Self {
        let asns: Vec<Asn> = graph.asns().collect();
        let n = asns.len();
        #[allow(
            clippy::expect_used,
            reason = "`AsGraph::add_edge` refuses an endpoint that is not a node, so every \
                      neighbor is in `asns`"
        )]
        let id_of = |asn: Asn| -> NodeId {
            NodeId(asns.binary_search(&asn).expect("neighbor is interned") as u32)
        };
        let mut offsets = Vec::with_capacity(n + 1);
        let mut peer_start = Vec::with_capacity(n);
        let mut nbrs = Vec::new();
        offsets.push(0u32);
        let mut peers_buf: Vec<NodeId> = Vec::new();
        for &asn in &asns {
            peers_buf.clear();
            // One stable pass: providers append directly, peers buffer —
            // each group keeps the ascending ASN order of the underlying
            // BTreeMap iteration.
            for (nbr, rel) in graph.neighbors(asn) {
                match rel {
                    Relationship::Provider => nbrs.push(id_of(nbr)),
                    Relationship::Peer => peers_buf.push(id_of(nbr)),
                    Relationship::Customer => {}
                }
            }
            peer_start.push(nbrs.len() as u32);
            nbrs.extend_from_slice(&peers_buf);
            offsets.push(nbrs.len() as u32);
        }
        let contiguous_from = match (asns.first(), asns.last()) {
            (Some(first), Some(last)) if (last.0 - first.0) as usize == n - 1 => Some(first.0),
            _ => None,
        };
        DenseTopology { asns, contiguous_from, offsets, peer_start, nbrs }
    }

    /// Number of interned ASes.
    pub fn len(&self) -> usize {
        self.asns.len()
    }

    /// Whether the graph had no ASes.
    pub fn is_empty(&self) -> bool {
        self.asns.is_empty()
    }

    /// Interns an ASN, or `None` when the AS is not in the graph. O(1)
    /// over contiguous ASNs, a binary search otherwise.
    pub fn node_id(&self, asn: Asn) -> Option<NodeId> {
        match self.contiguous_from {
            Some(first) => {
                let i = asn.0.wrapping_sub(first);
                (i < self.asns.len() as u32).then_some(NodeId(i))
            }
            None => self.asns.binary_search(&asn).ok().map(|i| NodeId(i as u32)),
        }
    }

    /// The ASN behind a dense id.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range for this topology.
    pub fn asn(&self, id: NodeId) -> Asn {
        self.asns[id.index()]
    }

    /// The providers of `u`, ascending by ASN.
    pub fn providers(&self, u: NodeId) -> &[NodeId] {
        &self.nbrs[self.offsets[u.index()] as usize..self.peer_start[u.index()] as usize]
    }

    /// The peers of `u`, ascending by ASN.
    pub fn peers(&self, u: NodeId) -> &[NodeId] {
        &self.nbrs[self.peer_start[u.index()] as usize..self.offsets[u.index() + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{TopologyConfig, TopologyGenerator};
    use crate::graph::Tier;
    use std::collections::BTreeSet;

    fn topo() -> AsGraph {
        TopologyGenerator::new(TopologyConfig::small(), 19).generate().unwrap()
    }

    #[test]
    fn interning_is_ascending_and_total() {
        let g = topo();
        let d = g.dense();
        assert_eq!(d.len(), g.len());
        let asns: Vec<Asn> = g.asns().collect();
        for (i, asn) in asns.iter().enumerate() {
            assert_eq!(d.asn(NodeId(i as u32)), *asn);
            assert_eq!(d.node_id(*asn), Some(NodeId(i as u32)));
        }
        assert_eq!(d.node_id(Asn(u32::MAX)), None);
    }

    #[test]
    fn node_id_agrees_with_binary_search() {
        let contiguous = topo();
        let mut gapped = AsGraph::new();
        for asn in [0, 3, 4, 90, 1_000, u32::MAX - 1, u32::MAX] {
            gapped.add_as(Asn(asn), Tier::Stub, 0);
        }
        for (g, fast) in [(&contiguous, true), (&gapped, false)] {
            let d = g.dense();
            assert_eq!(d.contiguous_from.is_some(), fast);
            let asns: Vec<Asn> = g.asns().collect();
            let (lo, hi) = (asns[0].0, asns[asns.len() - 1].0);
            let probes = asns
                .iter()
                .flat_map(|a| [a.0.wrapping_sub(1), a.0, a.0.wrapping_add(1)])
                .chain([0, 1, lo.wrapping_sub(2), hi.wrapping_add(2), u32::MAX]);
            for probe in probes {
                let want = asns.binary_search(&Asn(probe)).ok().map(|i| NodeId(i as u32));
                assert_eq!(d.node_id(Asn(probe)), want, "ASN {probe}");
            }
        }
    }

    #[test]
    fn csr_groups_match_btree_adjacency() {
        let g = topo();
        let d = g.dense();
        for asn in g.asns() {
            let u = d.node_id(asn).unwrap();
            let providers: Vec<Asn> = d.providers(u).iter().map(|v| d.asn(*v)).collect();
            let peers: Vec<Asn> = d.peers(u).iter().map(|v| d.asn(*v)).collect();
            assert_eq!(providers, g.providers(asn), "{asn} providers");
            assert_eq!(peers, g.peers(asn), "{asn} peers");
            assert_eq!(providers.len() + peers.len() + g.customers(asn).len(), g.degree(asn));
        }
    }

    #[test]
    fn groups_are_ascending_within_each_node() {
        let g = topo();
        let d = g.dense();
        for asn in g.asns() {
            let u = d.node_id(asn).unwrap();
            for group in [d.providers(u), d.peers(u)] {
                let asns: Vec<Asn> = group.iter().map(|v| d.asn(*v)).collect();
                let mut sorted = asns.clone();
                sorted.sort_unstable();
                assert_eq!(asns, sorted, "{asn} group not ascending");
            }
        }
    }

    #[test]
    fn mutation_invalidates_the_dense_view() {
        let mut g = topo();
        let before = g.dense();
        let new_asn = Asn(9_999_999);
        g.add_as(new_asn, Tier::Stub, 0);
        let t2 = g.tier_members(Tier::Tier2)[0];
        g.add_edge(t2, new_asn, Relationship::Customer).unwrap();
        let after = g.dense();
        assert_eq!(after.len(), before.len() + 1);
        let u = after.node_id(new_asn).unwrap();
        let provs: BTreeSet<Asn> = after.providers(u).iter().map(|v| after.asn(*v)).collect();
        assert!(provs.contains(&t2));
        assert_eq!(before.node_id(new_asn), None, "old snapshot must be unchanged");
    }

    #[test]
    fn empty_graph_dense_view() {
        let g = AsGraph::new();
        let d = g.dense();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }
}
