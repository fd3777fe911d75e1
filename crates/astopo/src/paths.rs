//! Valley-free inter-AS hop distances.
//!
//! The denominator of the paper's source-distribution feature (Eq. 4) is the
//! mean pairwise inter-AS distance of the ASes hosting attack bots. The
//! authors "develop a tool to infer AS relationship … using the relationships
//! between ASes, we could further infer the path from one AS to another …
//! and calculate the distance between them (in hops)". They inferred the
//! relationships because Route Views dumps carry no labels; the synthetic
//! Internet knows its true ones, so this module reads them straight from
//! the annotated [`AsGraph`] and answers the one question Eq. 4 asks: the
//! length of the shortest **valley-free** path (up through providers, at
//! most one peer hop, down through customers — the Gao–Rexford export
//! discipline) between two ASes.

use crate::dense::{DenseTopology, NodeId};
use crate::graph::{AsGraph, Asn};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// [`PairTable`] entry: the pair is 254 hops apart or more, too far to
/// store below the sentinels, so every query recomputes its distance
/// from the two slots' cones.
const PAIR_UNKNOWN: u8 = u8::MAX;

/// [`PairTable`] entry: no valley-free path joins the pair.
const PAIR_UNREACHABLE: u8 = u8::MAX - 1;

/// [`PairTable::slots`] entry of a node the batch query has not seen.
const NO_SLOT: u32 = u32::MAX;

/// Lazily-caching oracle answering valley-free hop-distance queries over an
/// [`AsGraph`].
///
/// Internally it runs one BFS per endpoint over *uphill* (customer→provider)
/// edges and caches the resulting cone peer-closed: every node the cone
/// reaches at its uphill distance, plus every peer of such a node one hop
/// further. A valley-free path climbs to a common ancestor or crosses one
/// peering and then descends, so one sorted merge of one endpoint's
/// peer-closed cone with the other's plain cone finds the shortest one.
/// All traversal runs over the graph's dense CSR view
/// ([`AsGraph::dense`]): cones are sparse entry lists sorted by
/// [`NodeId`] (an AS's transitive provider set is a handful of nodes even
/// at 100 k ASes, so per-cone memory is O(cone), not O(graph)), cached
/// behind `Arc` so a cache hit clones a pointer, never a map.
///
/// The batch query, [`PathOracle::mean_pairwise_distance`], reads a
/// second cache, the pair-distance table, which is complete over the
/// endpoints it has seen. The first time a query sees an endpoint, the
/// endpoint gets the next slot and its whole row, one byte per earlier
/// slot, is filled in one pass; a query then only reads rows. With `m`
/// endpoints seen, the table holds `m(m−1)/2` bytes (about 100 KiB at
/// 454 endpoints), not one per pair of the graph's ASes. A corpus keeps
/// one oracle for its topology, so every stage that computes Eq. 4 over
/// it shares both caches.
///
/// # Example
///
/// ```
/// use ddos_astopo::gen::{TopologyConfig, TopologyGenerator};
/// use ddos_astopo::paths::PathOracle;
///
/// # fn main() -> Result<(), ddos_astopo::TopoError> {
/// let topo = TopologyGenerator::new(TopologyConfig::small(), 1).generate()?;
/// let oracle = PathOracle::new(&topo);
/// let mut asns = topo.asns();
/// let a = asns.next().unwrap();
/// assert_eq!(oracle.hop_distance(a, a), Some(0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PathOracle {
    dense: Arc<DenseTopology>,
    /// Cached uphill BFS results: dense node id → cone. `RwLock` (not
    /// `RefCell`) so one oracle can serve concurrent queries from the
    /// sharded model-fitting executor; a racing recompute inserts the
    /// identical cone, so caching stays pure. Hits clone the `Arc` only.
    uphill: RwLock<HashMap<u32, Arc<UphillCone>>>,
    /// Valley-free distances between every two endpoints the batch query
    /// has seen. Queries read it under the read lock; a query that brings
    /// new endpoints fills their rows under the write lock.
    pairs: RwLock<PairTable>,
}

/// Triangular pair-distance table over dense endpoint *slots*, complete:
/// every pair of slots holds its distance (0–253), [`PAIR_UNREACHABLE`],
/// or [`PAIR_UNKNOWN`] when it is 254 hops apart or more. The pair of
/// slots `a < b` lives at byte `b(b−1)/2 + a`, so slot `b`'s row is the
/// `b` bytes from `b(b−1)/2` on.
#[derive(Debug, Default)]
struct PairTable {
    /// Dense node id → slot, or [`NO_SLOT`]. Grown on demand up to the
    /// largest node id seen, so a lookup is one array read.
    slots: Vec<u32>,
    /// Slot → its endpoint's cone; the length is the number of slots.
    cones: Vec<Arc<UphillCone>>,
    dist: Vec<u8>,
    /// Node-indexed fill scratch: `reach` distance + 1 of the cone being
    /// filled, 0 everywhere else between fills.
    scratch: Vec<u32>,
}

impl PairTable {
    /// First byte of slot `s`'s row.
    fn row_start(s: usize) -> usize {
        s * s.saturating_sub(1) / 2
    }

    /// The slot of `node`, or `None` before the batch query has seen it.
    fn slot_of(&self, node: NodeId) -> Option<u32> {
        self.slots.get(node.index()).copied().filter(|&s| s != NO_SLOT)
    }

    /// Gives `node` the next slot, `cone` being its cone over a topology
    /// of `nodes` ASes, and fills its row against every earlier slot in
    /// one pass: the new cone's `reach` is scattered into the node-indexed
    /// scratch, and each earlier cone's `entries` read from it, which is
    /// [`UphillCone::distance_to`] from the new endpoint (the distance is
    /// symmetric). The row is written before the cone is pushed and the
    /// slot published, so a panic during the fill leaves an unpublished
    /// row that the next fill truncates and rewrites, never a slot with
    /// a half-built row. The scratch is taken out while it holds the
    /// cone, so such a panic drops it rather than leave stale entries.
    fn insert(&mut self, node: NodeId, cone: Arc<UphillCone>, nodes: usize) {
        if self.slot_of(node).is_some() {
            return;
        }
        let s = self.cones.len();
        if self.slots.len() <= node.index() {
            self.slots.resize(node.index() + 1, NO_SLOT);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.resize(nodes, 0);
        for e in &cone.reach {
            scratch[e.node as usize] = e.dist + 1;
        }
        self.dist.truncate(Self::row_start(s));
        self.dist.extend(self.cones.iter().map(|earlier| {
            let best = earlier
                .entries
                .iter()
                .filter_map(|e| scratch[e.node as usize].checked_sub(1).map(|r| r + e.dist))
                .min();
            match best {
                None => PAIR_UNREACHABLE,
                Some(d) => {
                    u8::try_from(d).ok().filter(|&d| d < PAIR_UNREACHABLE).unwrap_or(PAIR_UNKNOWN)
                }
            }
        }));
        for e in &cone.reach {
            scratch[e.node as usize] = 0;
        }
        self.scratch = scratch;
        self.cones.push(cone);
        self.slots[node.index()] = s as u32;
    }

    /// The exact sums of Eq. 4's mean over distinct endpoints with their
    /// multiplicities: `(Σ d·c_i·c_j, Σ c_i·c_j)` over the reachable
    /// pairs. `nodes` carry dense node ids; `slotted` receives them as
    /// slots, sorted, and for each `j` row `j`'s bytes are read at the
    /// earlier slots by [`Endpoint::row_sums`], which sums every byte
    /// without a branch and flags a sentinel. Only a flagged row is read
    /// again, exactly: unreachable pairs skipped, [`PAIR_UNKNOWN`] ones
    /// recomputed from their two cones. `Err` lists the endpoints that
    /// have no slot yet.
    fn sums<E: Endpoint>(
        &self,
        nodes: &[E],
        slotted: &mut Vec<E>,
    ) -> Result<(u64, u64), Vec<NodeId>> {
        slotted.clear();
        for &e in nodes {
            match self.slot_of(NodeId(e.id())) {
                Some(s) => slotted.push(e.with_id(s)),
                None => {
                    let missing = nodes.iter().map(|e| NodeId(e.id()));
                    return Err(missing.filter(|&n| self.slot_of(n).is_none()).collect());
                }
            }
        }
        slotted.sort_unstable_by_key(|e| e.id());
        let (mut total, mut count) = (0u64, 0u64);
        for (j, &ej) in slotted.iter().enumerate().skip(1) {
            let sj = ej.id() as usize;
            let row = &self.dist[Self::row_start(sj)..][..sj];
            let earlier = &slotted[..j];
            let (mut row_total, mut row_count, sentinel) = E::row_sums(row, earlier);
            if sentinel {
                (row_total, row_count) = (0, 0);
                for &ei in earlier {
                    let si = ei.id() as usize;
                    let d = match row[si] {
                        PAIR_UNREACHABLE => continue,
                        PAIR_UNKNOWN => match self.cones[si].distance_to(&self.cones[sj]) {
                            Some(d) => d,
                            None => continue,
                        },
                        d => u32::from(d),
                    };
                    row_total += u64::from(d) * ei.count();
                    row_count += ei.count();
                }
            }
            total += row_total * ej.count();
            count += row_count * ej.count();
        }
        Ok((total, count))
    }
}

/// One distinct endpoint of a batch query: a dense id (its node's, then
/// its slot's) and how many times the query's input holds it. The
/// endpoints of a strictly ascending input are bare `u32` ids counted
/// once, so their walk reads 4 bytes per endpoint and multiplies by no
/// count; an input with repeats carries `(id, count)` pairs.
trait Endpoint: Copy {
    fn id(self) -> u32;
    fn count(self) -> u64;
    fn with_id(self, id: u32) -> Self;

    /// `(Σ d·c, Σ c)` over `row`'s bytes at the `earlier` endpoints'
    /// slots, every byte counted as a distance, and whether any byte is
    /// [`PAIR_UNREACHABLE`] or [`PAIR_UNKNOWN`] (which makes both sums
    /// wrong and sends the row to the exact recount).
    fn row_sums(row: &[u8], earlier: &[Self]) -> (u64, u64, bool);
}

impl Endpoint for u32 {
    fn id(self) -> u32 {
        self
    }

    fn count(self) -> u64 {
        1
    }

    fn with_id(self, id: u32) -> Self {
        id
    }

    fn row_sums(row: &[u8], earlier: &[Self]) -> (u64, u64, bool) {
        // `u32` holds the sum: a row has fewer bytes than the table has
        // slots, and 2^32 / 255 slots would take an 8 PiB table.
        let (mut sum, mut sentinel) = (0u32, false);
        for &s in earlier {
            let d = row[s as usize];
            sum += u32::from(d);
            sentinel |= d >= PAIR_UNREACHABLE;
        }
        (u64::from(sum), earlier.len() as u64, sentinel)
    }
}

impl Endpoint for (u32, u64) {
    fn id(self) -> u32 {
        self.0
    }

    fn count(self) -> u64 {
        self.1
    }

    fn with_id(self, id: u32) -> Self {
        (id, self.1)
    }

    fn row_sums(row: &[u8], earlier: &[Self]) -> (u64, u64, bool) {
        let (mut sum, mut count, mut sentinel) = (0u64, 0u64, false);
        for &(s, c) in earlier {
            let d = row[s as usize];
            sum += u64::from(d) * c;
            count += c;
            sentinel |= d >= PAIR_UNREACHABLE;
        }
        (sum, count, sentinel)
    }
}

/// Reusable buffers of [`PathOracle::mean_pairwise_distance`]. The caller
/// owns them and passes one to each query of a loop (Eq. 4 over an attack
/// series keeps one), so a query over known endpoints allocates nothing.
/// A default scratch is empty and allocates only when first used.
#[derive(Debug, Default)]
pub struct PairScratch {
    /// A strictly ascending input's endpoints: node ids, then slots.
    nodes: Vec<u32>,
    slots: Vec<u32>,
    /// Any other input: its ASNs sorted, then its distinct endpoints with
    /// their multiplicities, as node ids and then as slots.
    sorted: Vec<Asn>,
    counted_nodes: Vec<(u32, u64)>,
    counted_slots: Vec<(u32, u64)>,
}

/// An uphill BFS cone in sparse form, twice over: the nodes the BFS
/// reaches, and their peer closure. Uphill cones are the transitive
/// provider sets, which stay tiny however large the graph grows, so the
/// sparse form costs O(cone + its peers) per cached endpoint, not
/// O(graph).
#[derive(Debug)]
struct UphillCone {
    /// One entry per reached node at its BFS hop count from the root,
    /// ascending by dense node id.
    entries: Vec<ConeEntry>,
    /// Every entry, plus every peer of an entry at `dist + 1`, keeping
    /// the least distance per node, ascending by dense node id: how far
    /// the root is from each node a valley-free path can descend from.
    reach: Vec<ConeEntry>,
}

/// One node of an [`UphillCone`] and its hop count from the root.
#[derive(Debug, Clone, Copy)]
struct ConeEntry {
    node: u32,
    dist: u32,
}

impl UphillCone {
    /// Shortest valley-free distance from this cone's root to `other`'s:
    /// the least `reach` + `entries` sum over the nodes both lists hold,
    /// by one sorted merge. A node in `other.entries` is an ancestor the
    /// path descends from; this cone's `reach` holds it either as an
    /// ancestor too (the two climbs meet) or one peering past one (the
    /// path's single peer crossing), which are all the valley-free
    /// paths. O(|reach| + |other.entries|), independent of graph size.
    fn distance_to(&self, other: &UphillCone) -> Option<u32> {
        let mut best: Option<u32> = None;
        let (mut i, mut j) = (0, 0);
        while i < self.reach.len() && j < other.entries.len() {
            let (ea, eb) = (self.reach[i], other.entries[j]);
            match ea.node.cmp(&eb.node) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let total = ea.dist + eb.dist;
                    if best.is_none_or(|d| total < d) {
                        best = Some(total);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        best
    }
}

impl PathOracle {
    /// Creates an oracle over the given graph's dense view (shared, not
    /// copied). Queries cache uphill BFS cones per endpoint, so reuse one
    /// oracle for many queries.
    pub fn new(graph: &AsGraph) -> Self {
        PathOracle {
            dense: graph.dense(),
            uphill: RwLock::new(HashMap::new()),
            pairs: RwLock::new(PairTable::default()),
        }
    }

    fn cone(&self, start: NodeId) -> Arc<UphillCone> {
        // Poison recovery: a caught panic on another thread holding the
        // lock must not wedge every later query. The cache is sound to
        // reuse after poisoning — entries are pure (a racing recompute
        // inserts an identical cone) and each insert is a single atomic
        // map update, so a poisoned guard never exposes a half-built cone.
        if let Some(c) = self.uphill.read().unwrap_or_else(PoisonError::into_inner).get(&start.0) {
            return Arc::clone(c);
        }
        // Level-synchronous BFS: two compact frontier vectors instead of a
        // deque. Nodes are discovered in the identical order a FIFO queue
        // produces (each level scans in enqueue order), so the distances —
        // and every fingerprinted quantity built on them — are unchanged.
        // The visited set is a sorted id list, not an O(graph) array:
        // uphill cones are tiny, so the O(k log k) inserts are free.
        let mut entries = vec![ConeEntry { node: start.0, dist: 0 }];
        let mut seen = vec![start.0];
        let mut frontier = vec![start];
        let mut next = Vec::new();
        let mut depth = 0u32;
        while !frontier.is_empty() {
            depth += 1;
            for &u in &frontier {
                for &v in self.dense.providers(u) {
                    if let Err(pos) = seen.binary_search(&v.0) {
                        seen.insert(pos, v.0);
                        entries.push(ConeEntry { node: v.0, dist: depth });
                        next.push(v);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        entries.sort_unstable_by_key(|e| e.node);
        let mut reach = entries.clone();
        for e in &entries {
            let peers = self.dense.peers(NodeId(e.node));
            reach.extend(peers.iter().map(|w| ConeEntry { node: w.0, dist: e.dist + 1 }));
        }
        // Least distance first within a node, so the dedup keeps it.
        reach.sort_unstable_by_key(|e| (e.node, e.dist));
        reach.dedup_by_key(|e| e.node);
        reach.shrink_to_fit();
        let cone = Arc::new(UphillCone { entries, reach });
        self.uphill
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(start.0, Arc::clone(&cone));
        cone
    }

    /// Shortest valley-free hop distance between two ASes, or `None` when
    /// no valley-free path exists (or either AS is unknown).
    pub fn hop_distance(&self, a: Asn, b: Asn) -> Option<u32> {
        let na = self.dense.node_id(a)?;
        let nb = self.dense.node_id(b)?;
        if na == nb {
            return Some(0);
        }
        self.cone(na).distance_to(&self.cone(nb))
    }

    /// Mean pairwise valley-free hop distance over a set of ASes — the
    /// `DT` term of the paper's Eq. 4. Unreachable pairs are skipped;
    /// returns 0.0 when fewer than two distinct reachable ASes are given.
    ///
    /// The input is any re-iterable sequence of ASNs (a slice, or the keys
    /// of an attack's ASN histogram read in place) and collapses to unique
    /// ASNs with multiplicities: every ordered pair of distinct values
    /// `x ≠ y` in the naive `i < j` loop contributes `c_x · c_y`
    /// occurrences of the same distance. A strictly ascending input, such
    /// as a histogram's keys, already is a set and is read without a sort
    /// or a count. `scratch` holds the buffers; reuse one across queries.
    /// The distances are read from the oracle's complete pair-distance
    /// table (see [`PathOracle`]) under its read lock. A query that brings
    /// endpoints the table has not seen fetches their cones outside any
    /// lock, then fills their rows and sums under one write lock. The
    /// totals are exact `u64` sums, which no slot order or visiting order
    /// can change, so the result is bit-identical to the per-occurrence
    /// loop on a cold, reused or shared oracle alike. Poison recovery
    /// follows the cone cache: a row is published only once it is whole,
    /// so a poisoned table is still a correct one.
    pub fn mean_pairwise_distance<I>(&self, asns: I, scratch: &mut PairScratch) -> f64
    where
        I: IntoIterator,
        I::Item: Borrow<Asn>,
        I::IntoIter: Clone,
    {
        let asns = asns.into_iter().map(|a| *a.borrow());
        let node = |a: Asn| Some(self.dense.node_id(a)?.0);
        if asns.clone().is_sorted_by(|a, b| a < b) {
            scratch.nodes.clear();
            scratch.nodes.extend(asns.filter_map(node));
            self.batch_mean(&scratch.nodes, &mut scratch.slots)
        } else {
            scratch.sorted.clear();
            scratch.sorted.extend(asns);
            scratch.sorted.sort_unstable();
            let runs = scratch.sorted.chunk_by(|a, b| a == b);
            scratch.counted_nodes.clear();
            scratch
                .counted_nodes
                .extend(runs.filter_map(|run| Some((node(run[0])?, run.len() as u64))));
            self.batch_mean(&scratch.counted_nodes, &mut scratch.counted_slots)
        }
    }

    /// The batch query over distinct endpoints (dense node ids with their
    /// multiplicities), `slotted` being the walk's slot buffer.
    fn batch_mean<E: Endpoint>(&self, nodes: &[E], slotted: &mut Vec<E>) -> f64 {
        if nodes.len() < 2 {
            return 0.0;
        }
        let mut sums =
            self.pairs.read().unwrap_or_else(PoisonError::into_inner).sums(nodes, slotted);
        let (total, count) = loop {
            match sums {
                Ok(sums) => break sums,
                Err(missing) => {
                    let cones: Vec<Arc<UphillCone>> =
                        missing.iter().map(|&n| self.cone(n)).collect();
                    let mut table = self.pairs.write().unwrap_or_else(PoisonError::into_inner);
                    for (&n, cone) in missing.iter().zip(cones) {
                        table.insert(n, cone, self.dense.len());
                    }
                    sums = table.sums(nodes, slotted);
                }
            }
        };
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{TopologyConfig, TopologyGenerator};
    use crate::graph::{Relationship, Tier};

    fn diamond() -> AsGraph {
        // t1a -peer- t1b; each has one tier-2 customer; stubs below.
        //      1 ~~~ 2
        //      |     |
        //      3     4
        //      |     |
        //      5     6
        let mut g = AsGraph::new();
        g.add_as(Asn(1), Tier::Tier1, 0);
        g.add_as(Asn(2), Tier::Tier1, 1);
        g.add_as(Asn(3), Tier::Tier2, 0);
        g.add_as(Asn(4), Tier::Tier2, 1);
        g.add_as(Asn(5), Tier::Stub, 0);
        g.add_as(Asn(6), Tier::Stub, 1);
        g.add_edge(Asn(1), Asn(2), Relationship::Peer).unwrap();
        g.add_edge(Asn(1), Asn(3), Relationship::Customer).unwrap();
        g.add_edge(Asn(2), Asn(4), Relationship::Customer).unwrap();
        g.add_edge(Asn(3), Asn(5), Relationship::Customer).unwrap();
        g.add_edge(Asn(4), Asn(6), Relationship::Customer).unwrap();
        g
    }

    /// The batch query with a fresh scratch.
    fn mean(o: &PathOracle, asns: &[Asn]) -> f64 {
        o.mean_pairwise_distance(asns, &mut PairScratch::default())
    }

    /// The mean of `hop_distance` over every `i < j` pair of distinct
    /// ASNs, skipping unreachable pairs: the per-pair reference for the
    /// batch query.
    fn per_pair_mean(o: &PathOracle, asns: &[Asn]) -> f64 {
        let (mut total, mut count) = (0u64, 0u64);
        for (i, a) in asns.iter().enumerate() {
            for b in asns[i + 1..].iter().filter(|b| *b != a) {
                if let Some(d) = o.hop_distance(*a, *b) {
                    total += u64::from(d);
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }

    /// The table byte of the pair of two distinct slots.
    fn byte(table: &PairTable, a: u32, b: u32) -> u8 {
        let (lo, hi) = (a.min(b) as usize, a.max(b) as usize);
        assert_ne!(lo, hi, "a pair needs two distinct slots");
        table.dist[PairTable::row_start(hi) + lo]
    }

    #[test]
    fn distance_to_self_is_zero() {
        let g = diamond();
        let o = PathOracle::new(&g);
        assert_eq!(o.hop_distance(Asn(5), Asn(5)), Some(0));
        assert_eq!(o.hop_distance(Asn(1), Asn(1)), Some(0));
    }

    #[test]
    fn pure_updown_path() {
        let g = diamond();
        let o = PathOracle::new(&g);
        // 5 → 3 is one uphill hop; 5 → 3 → 1 two.
        assert_eq!(o.hop_distance(Asn(5), Asn(3)), Some(1));
        assert_eq!(o.hop_distance(Asn(5), Asn(1)), Some(2));
        assert_eq!(o.hop_distance(Asn(1), Asn(5)), Some(2));
    }

    #[test]
    fn path_across_peering() {
        let g = diamond();
        let o = PathOracle::new(&g);
        // 5 → 3 → 1 ~ 2 → 4 → 6: up two, across the peering, down two.
        assert_eq!(o.hop_distance(Asn(5), Asn(6)), Some(5));
        // A peer crossing may start or end the path.
        assert_eq!(o.hop_distance(Asn(1), Asn(6)), Some(3));
        assert_eq!(o.hop_distance(Asn(1), Asn(2)), Some(1));
    }

    #[test]
    fn valley_is_forbidden() {
        // Two stubs sharing NO provider chain: 5 and 6 only connect through
        // the peer edge at the top. Remove it and they are unreachable.
        let mut g = diamond();
        // Rebuild without the peering by constructing a fresh graph.
        g = {
            let mut h = AsGraph::new();
            for asn in g.asns() {
                let info = g.info(asn).unwrap().clone();
                h.add_as(asn, info.tier, info.region);
            }
            h.add_edge(Asn(1), Asn(3), Relationship::Customer).unwrap();
            h.add_edge(Asn(2), Asn(4), Relationship::Customer).unwrap();
            h.add_edge(Asn(3), Asn(5), Relationship::Customer).unwrap();
            h.add_edge(Asn(4), Asn(6), Relationship::Customer).unwrap();
            h
        };
        let o = PathOracle::new(&g);
        assert_eq!(o.hop_distance(Asn(5), Asn(6)), None);
    }

    #[test]
    fn sibling_stubs_meet_at_shared_provider() {
        let mut g = diamond();
        g.add_as(Asn(7), Tier::Stub, 0);
        g.add_edge(Asn(3), Asn(7), Relationship::Customer).unwrap();
        let o = PathOracle::new(&g);
        assert_eq!(o.hop_distance(Asn(5), Asn(7)), Some(2));
    }

    #[test]
    fn unknown_as_gives_none() {
        let g = diamond();
        let o = PathOracle::new(&g);
        assert_eq!(o.hop_distance(Asn(5), Asn(99)), None);
    }

    #[test]
    fn generated_topology_fully_reachable() {
        let g = TopologyGenerator::new(TopologyConfig::small(), 11).generate().unwrap();
        let o = PathOracle::new(&g);
        let stubs = g.tier_members(Tier::Stub);
        // Every stub pair must be reachable: the tier-1 clique guarantees it.
        for (i, a) in stubs.iter().enumerate().take(12) {
            for b in stubs.iter().skip(i + 1).take(12) {
                let d = o.hop_distance(*a, *b);
                assert!(d.is_some(), "{a} → {b} unreachable");
                assert!(d.unwrap() >= 2);
            }
        }
    }

    /// Valley-free distances from `src` to every AS it reaches, by a plain
    /// BFS over (AS, phase) states on the graph's adjacency maps. Phase 0
    /// climbs (to a provider, a peer or a customer); phase 1 has crossed
    /// its one peering and phase 2 descends, and both may only go on to a
    /// customer.
    fn valley_free_bfs(g: &AsGraph, src: Asn) -> HashMap<Asn, u32> {
        let mut seen = std::collections::HashSet::from([(src, 0u8)]);
        let mut best = HashMap::new();
        let mut queue = std::collections::VecDeque::from([(src, 0u8, 0u32)]);
        while let Some((u, phase, d)) = queue.pop_front() {
            best.entry(u).or_insert(d);
            for (v, rel) in g.neighbors(u) {
                let next = match (phase, rel) {
                    (0, Relationship::Provider) => 0,
                    (0, Relationship::Peer) => 1,
                    (_, Relationship::Customer) => 2,
                    _ => continue,
                };
                if seen.insert((v, next)) {
                    queue.push_back((v, next, d + 1));
                }
            }
        }
        best
    }

    #[test]
    fn paths_are_valley_free_on_generated_topology() {
        // Every stub-pair distance is that of a shortest valley-free walk:
        // no valley, at most one peering, and nothing shorter exists.
        let g = TopologyGenerator::new(TopologyConfig::small(), 12).generate().unwrap();
        let o = PathOracle::new(&g);
        let stubs = g.tier_members(Tier::Stub);
        for (i, a) in stubs.iter().enumerate().take(8) {
            let reference = valley_free_bfs(&g, *a);
            for b in stubs.iter().skip(i + 1).take(8) {
                let d = o.hop_distance(*a, *b).expect("reachable");
                assert_eq!(Some(&d), reference.get(b), "{a} → {b}");
            }
        }
    }

    /// `g` with every ASN `a` renumbered to `7a + 1000`: the same
    /// relationships over gapped ASNs, so [`DenseTopology::node_id`]
    /// takes its binary-search path.
    fn gapped(g: &AsGraph) -> AsGraph {
        let map = |a: Asn| Asn(a.0 * 7 + 1000);
        let mut h = AsGraph::new();
        for asn in g.asns() {
            let info = g.info(asn).unwrap();
            h.add_as(map(asn), info.tier, info.region);
        }
        for a in g.asns() {
            for (b, rel) in g.neighbors(a) {
                h.add_edge(map(a), map(b), rel).unwrap();
            }
        }
        h
    }

    /// `hop_distance` equals the (AS, phase) BFS reference for every
    /// ordered pair of `g`'s ASes, and the batch mean over every AS
    /// equals the per-pair mean.
    fn assert_matches_reference(g: &AsGraph) {
        let o = PathOracle::new(g);
        let asns: Vec<Asn> = g.asns().collect();
        for &a in &asns {
            let reference = valley_free_bfs(g, a);
            for &b in &asns {
                assert_eq!(o.hop_distance(a, b), reference.get(&b).copied(), "{a} → {b}");
            }
        }
        let cold = PathOracle::new(g);
        assert_eq!(mean(&cold, &asns).to_bits(), per_pair_mean(&o, &asns).to_bits());
    }

    #[test]
    fn hop_distance_matches_reference_on_generated_topologies() {
        for config in [TopologyConfig::small(), TopologyConfig::standard()] {
            let g = TopologyGenerator::new(config, 23).generate().unwrap();
            assert_matches_reference(&g);
        }
    }

    #[test]
    fn hop_distance_matches_reference_on_gapped_asns() {
        let g = gapped(&TopologyGenerator::new(TopologyConfig::small(), 24).generate().unwrap());
        // The ASN span exceeds the AS count: the ASNs are not contiguous.
        let d = g.dense();
        assert_ne!(d.asn(NodeId(d.len() as u32 - 1)).0 - d.asn(NodeId(0)).0, d.len() as u32 - 1);
        assert_matches_reference(&g);
        assert_matches_reference(&gapped(&diamond()));
    }

    #[test]
    fn warmed_oracle_answers_bit_identically_to_cold() {
        let g = TopologyGenerator::new(TopologyConfig::small(), 19).generate().unwrap();
        let stubs = g.tier_members(Tier::Stub);
        let sample: Vec<Asn> = stubs.iter().copied().take(10).collect();

        let cold = PathOracle::new(&g);
        let warmed = PathOracle::new(&g);
        // Warm both caches: single-pair queries fill the cone cache, a
        // mean over a multiset with an unknown ASN and a repeat fills part
        // of the pair table, and warming twice changes nothing.
        let mut warm_set = sample[..6].to_vec();
        warm_set.push(Asn(u32::MAX));
        warm_set.push(sample[0]);
        for _ in 0..2 {
            for a in &sample {
                warmed.hop_distance(*a, sample[0]);
            }
            mean(&warmed, &warm_set);
        }

        assert_eq!(mean(&cold, &sample).to_bits(), mean(&warmed, &sample).to_bits());
        for (i, a) in sample.iter().enumerate() {
            for b in sample.iter().skip(i + 1) {
                assert_eq!(cold.hop_distance(*a, *b), warmed.hop_distance(*a, *b));
            }
        }
    }

    #[test]
    fn mean_pairwise_distance_behaviour() {
        let g = diamond();
        let o = PathOracle::new(&g);
        // {5, 7-like same-side}: single pair distance.
        let d = mean(&o, &[Asn(5), Asn(6)]);
        assert!((d - 5.0).abs() < 1e-12);
        // Degenerate inputs.
        assert_eq!(mean(&o, &[Asn(5)]), 0.0);
        assert_eq!(mean(&o, &[]), 0.0);
        // Duplicates are skipped.
        assert_eq!(mean(&o, &[Asn(5), Asn(5)]), 0.0);
    }

    #[test]
    fn valley_shortcut_is_not_taken() {
        // Give stubs 5 and 6 a shared customer 9: the graph now holds the
        // 2-hop path 5–9–6, but it descends into 9 and climbs back out, a
        // valley no AS exports. The valley-free distance must still climb
        // over the tier-1 peering: 5 hops.
        let mut g = diamond();
        g.add_as(Asn(9), Tier::Stub, 0);
        g.add_edge(Asn(5), Asn(9), Relationship::Customer).unwrap();
        g.add_edge(Asn(6), Asn(9), Relationship::Customer).unwrap();
        assert_eq!(g.relationship(Asn(9), Asn(6)), Some(Relationship::Provider));
        let o = PathOracle::new(&g);
        assert_eq!(o.hop_distance(Asn(5), Asn(6)), Some(5));
        assert_eq!(o.hop_distance(Asn(5), Asn(9)), Some(1));
        assert_eq!(o.hop_distance(Asn(9), Asn(6)), Some(1));
    }

    #[test]
    fn caught_panic_does_not_wedge_the_oracle() {
        let g = diamond();
        let o = PathOracle::new(&g);
        let before = o.hop_distance(Asn(5), Asn(6));
        // Poison the cone cache: panic while holding the write guard, as a
        // panicking cone computation on a worker thread would.
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = o.uphill.write().unwrap();
            panic!("simulated cone-computation panic");
        }));
        assert!(poison.is_err());
        assert!(o.uphill.is_poisoned());
        // Every query class must keep working on the poisoned cache:
        // cached reads, fresh BFS inserts, and the batch query.
        assert_eq!(o.hop_distance(Asn(5), Asn(6)), before);
        assert_eq!(o.hop_distance(Asn(1), Asn(4)), Some(2));
        assert!(mean(&o, &[Asn(5), Asn(6)]) > 0.0);

        // Poison the pair table the same way, once it holds entries.
        let batch = [Asn(1), Asn(3), Asn(5), Asn(6)];
        let batch_mean = mean(&o, &batch);
        assert_eq!(batch_mean.to_bits(), per_pair_mean(&o, &batch).to_bits());
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = o.pairs.write().unwrap();
            panic!("simulated pair-table panic");
        }));
        assert!(poison.is_err());
        assert!(o.pairs.is_poisoned());
        // Cached pairs, new endpoints (slot assignment) and fresh fills.
        assert_eq!(mean(&o, &batch).to_bits(), batch_mean.to_bits());
        let fresh = [Asn(2), Asn(4), Asn(6)];
        assert_eq!(mean(&o, &fresh).to_bits(), per_pair_mean(&o, &fresh).to_bits());
        assert_eq!(mean(&o, &[Asn(4), Asn(5)]), 4.0);
        let table = o.pairs.read().unwrap_or_else(PoisonError::into_inner);
        let slot = |a: Asn| table.slot_of(g.dense().node_id(a).unwrap()).unwrap();
        assert_eq!(byte(&table, slot(Asn(2)), slot(Asn(6))), 2);
    }

    /// Two customer chains of `len` ASes hanging off one tier-1 AS: the
    /// `k`-th AS down one chain is `ASN 1000 + k`, down the other
    /// `ASN 2000 + k`, and the two are `k + k'` valley-free hops apart.
    fn twin_chains(len: u32) -> AsGraph {
        let mut g = AsGraph::new();
        g.add_as(Asn(1), Tier::Tier1, 0);
        for base in [1000, 2000] {
            let mut up = Asn(1);
            for k in 1..=len {
                let asn = Asn(base + k);
                g.add_as(asn, if k == len { Tier::Stub } else { Tier::Tier2 }, 0);
                g.add_edge(up, asn, Relationship::Customer).unwrap();
                up = asn;
            }
        }
        g
    }

    /// The batch query on a reused `scratch`, checking which walk it took:
    /// a strictly ascending input must fill only the count-free walk's
    /// slot buffer, any other input only the counted walk's.
    fn walked_mean(o: &PathOracle, asns: &[Asn], scratch: &mut PairScratch) -> f64 {
        scratch.slots.clear();
        scratch.counted_slots.clear();
        let mean = o.mean_pairwise_distance(asns, scratch);
        if asns.is_sorted_by(|a, b| a < b) {
            assert!(scratch.counted_slots.is_empty(), "{asns:?} took the counted walk");
        } else {
            assert!(scratch.slots.is_empty(), "{asns:?} took the count-free walk");
        }
        mean
    }

    #[test]
    fn long_distances_come_back_exact_not_truncated() {
        let g = twin_chains(130);
        let o = PathOracle::new(&g);
        let (a126, a127, a130) = (Asn(1126), Asn(1127), Asn(1130));
        let (b127, b130) = (Asn(2127), Asn(2130));
        // The sorted batch takes the count-free walk, the shuffled one,
        // which repeats an AS, the counted walk.
        let batch = [a126, a127, a130, b127, b130];
        let shuffled = [b130, a126, a130, b127, a127, a126];
        assert_eq!(o.hop_distance(a126, b127), Some(253));
        assert_eq!(o.hop_distance(a127, b127), Some(254));
        assert_eq!(o.hop_distance(a130, b130), Some(260));
        // A cold table and a table that has seen the batch agree with the
        // per-pair reference, over the batch and over each pair in either
        // order.
        let mut scratch = PairScratch::default();
        for _ in 0..2 {
            for asns in [&batch[..], &shuffled] {
                assert_eq!(
                    walked_mean(&o, asns, &mut scratch).to_bits(),
                    per_pair_mean(&o, asns).to_bits()
                );
            }
            for (i, a) in batch.iter().enumerate() {
                for b in &batch[i + 1..] {
                    let d = f64::from(o.hop_distance(*a, *b).unwrap());
                    assert_eq!(walked_mean(&o, &[*a, *b], &mut scratch), d);
                    assert_eq!(walked_mean(&o, &[*b, *a], &mut scratch), d);
                }
            }
        }
        // 253 hops fits below the sentinels and is stored; 254 and more
        // stay unknown, recomputed by the cone merge on every query.
        let table = o.pairs.read().unwrap();
        let slot = |a: Asn| table.slot_of(g.dense().node_id(a).unwrap()).unwrap();
        assert_eq!(byte(&table, slot(a126), slot(b127)), 253);
        assert_eq!(byte(&table, slot(a127), slot(b127)), PAIR_UNKNOWN);
        assert_eq!(byte(&table, slot(a130), slot(b130)), PAIR_UNKNOWN);
        assert_eq!(byte(&table, slot(a126), slot(a130)), 4);
    }

    #[test]
    fn unreachable_pairs_are_stored_as_unreachable() {
        let mut g = twin_chains(2);
        g.add_as(Asn(9), Tier::Tier1, 0);
        g.add_as(Asn(10), Tier::Stub, 0);
        g.add_edge(Asn(9), Asn(10), Relationship::Customer).unwrap();
        let o = PathOracle::new(&g);
        let batch = [Asn(1002), Asn(10), Asn(2002)];
        let sorted = [Asn(10), Asn(1002), Asn(2002)];
        assert_eq!(
            (
                o.hop_distance(batch[0], batch[1]),
                o.hop_distance(batch[0], batch[2]),
                o.hop_distance(batch[1], batch[2])
            ),
            (None, Some(4), None)
        );
        // Both walks, on a cold table and then on a filled one.
        let mut scratch = PairScratch::default();
        for _ in 0..2 {
            for asns in [batch, sorted] {
                assert_eq!(walked_mean(&o, &asns, &mut scratch), 4.0);
            }
            assert_eq!(walked_mean(&o, &batch[..2], &mut scratch), 0.0);
            assert_eq!(walked_mean(&o, &sorted[..2], &mut scratch), 0.0);
        }
        let table = o.pairs.read().unwrap();
        let slot = |a: Asn| table.slot_of(g.dense().node_id(a).unwrap()).unwrap();
        assert_eq!(byte(&table, slot(Asn(1002)), slot(Asn(10))), PAIR_UNREACHABLE);
        assert_eq!(byte(&table, slot(Asn(10)), slot(Asn(2002))), PAIR_UNREACHABLE);
        assert_eq!(byte(&table, slot(Asn(1002)), slot(Asn(2002))), 4);
        assert_eq!(table.dist.len(), 3);
    }

    /// The complete-table invariant: every slot has a cone and a whole
    /// row, and every pair of slots holds the byte its hop distance
    /// gives: the distance below 254, [`PAIR_UNREACHABLE`] when no path
    /// joins it, and [`PAIR_UNKNOWN`] only at 254 hops or more. Every
    /// AS a query saw together with another known AS has a slot.
    fn assert_table_complete(g: &AsGraph, o: &PathOracle, queried: &[Asn]) {
        let table = o.pairs.read().unwrap();
        let dense = g.dense();
        let mut by_slot = vec![None; table.cones.len()];
        for (node, &s) in table.slots.iter().enumerate() {
            if s != NO_SLOT {
                assert!(by_slot[s as usize].replace(dense.asn(NodeId(node as u32))).is_none());
            }
        }
        let by_slot: Vec<Asn> =
            by_slot.into_iter().map(|a| a.expect("every slot published")).collect();
        for a in queried {
            assert!(
                dense.node_id(*a).is_none_or(|n| table.slot_of(n).is_some()),
                "{a} has no slot"
            );
        }
        assert_eq!(table.dist.len(), PairTable::row_start(by_slot.len()));
        for (b, &asn_b) in by_slot.iter().enumerate() {
            for (a, &asn_a) in by_slot[..b].iter().enumerate() {
                let want = match o.hop_distance(asn_a, asn_b) {
                    None => PAIR_UNREACHABLE,
                    Some(d) if d < 254 => d as u8,
                    Some(_) => PAIR_UNKNOWN,
                };
                assert_eq!(byte(&table, a as u32, b as u32), want, "{asn_a} – {asn_b}");
            }
        }
    }

    #[test]
    fn long_and_unreachable_pairs_keep_the_table_complete() {
        let mut g = twin_chains(130);
        g.add_as(Asn(9), Tier::Tier1, 0);
        g.add_as(Asn(10), Tier::Stub, 0);
        g.add_edge(Asn(9), Asn(10), Relationship::Customer).unwrap();
        let o = PathOracle::new(&g);
        let batches: [&[Asn]; 4] = [
            &[Asn(1130), Asn(2130)],
            &[Asn(10), Asn(1126), Asn(2127), Asn(1)],
            &[Asn(2127), Asn(2127), Asn(1002)],
            &[Asn(1130), Asn(10), Asn(2001), Asn(1127)],
        ];
        let mut queried = Vec::new();
        for batch in batches {
            assert_eq!(mean(&o, batch).to_bits(), per_pair_mean(&o, batch).to_bits());
            queried.extend_from_slice(batch);
            assert_table_complete(&g, &o, &queried);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// After any sequence of batch queries (repeats, single ASes and
        /// ASNs the topology lacks included) the table is complete.
        #[test]
        fn table_stays_complete_over_any_query_sequence(
            seed in 0u64..500,
            batches in proptest::collection::vec(
                proptest::collection::vec(0usize..80, 0..12), 1..8),
        ) {
            let g = TopologyGenerator::new(TopologyConfig::small(), seed).generate().unwrap();
            let known: Vec<Asn> = g.asns().collect();
            let o = PathOracle::new(&g);
            let mut queried = Vec::new();
            for picks in &batches {
                let batch: Vec<Asn> = picks
                    .iter()
                    .map(|&p| known[p * known.len() / 80])
                    .chain((picks.len() % 3 == 0).then_some(Asn(u32::MAX - 1)))
                    .collect();
                mean(&o, &batch);
                let distinct: std::collections::BTreeSet<Asn> =
                    batch.iter().copied().filter(|a| g.contains(*a)).collect();
                if distinct.len() >= 2 {
                    queried.extend(distinct);
                }
                assert_table_complete(&g, &o, &queried);
            }
        }
    }

    #[test]
    fn concentrated_ases_are_closer_than_dispersed() {
        let g = TopologyGenerator::new(TopologyConfig::small(), 13).generate().unwrap();
        let o = PathOracle::new(&g);
        let stubs = g.tier_members(Tier::Stub);
        // Same-region stubs vs cross-region stubs.
        let region0: Vec<Asn> =
            stubs.iter().copied().filter(|s| g.info(*s).unwrap().region == 0).take(6).collect();
        let mixed: Vec<Asn> = stubs.iter().copied().take(6).collect();
        let d_same = mean(&o, &region0);
        let d_mixed = mean(&o, &mixed);
        assert!(
            d_same <= d_mixed + 0.5,
            "same-region {d_same} should not exceed mixed {d_mixed} by much"
        );
    }
}
