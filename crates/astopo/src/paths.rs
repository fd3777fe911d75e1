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
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// [`PairTable`] entry: the pair's distance is not known yet. Pairs at
/// [`PAIR_UNREACHABLE`] hops or more keep this value for good, so the
/// cone merge recomputes them exactly on every query.
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
/// second cache, the pair-distance table: one byte per pair of endpoints
/// it has seen, filled on first use, and found through a node-indexed
/// slot array. Each distinct pair is intersected once per oracle, not
/// once per call, and cones are only fetched for the pairs a call finds
/// missing. With `m` distinct endpoints seen, the table holds `m(m−1)/2`
/// bytes (about 100 KiB at 454 endpoints). A corpus keeps one oracle for
/// its topology, so every stage that computes Eq. 4 over it shares both
/// caches.
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
    /// Valley-free distances between endpoints of the batch query, under
    /// the same lock discipline: a racing fill stores the identical byte.
    pairs: RwLock<PairTable>,
}

/// Triangular pair-distance table over dense endpoint *slots*. An AS
/// gets the next slot the first time the batch query sees it; the pair of
/// slots `a < b` lives at byte `b(b−1)/2 + a`, so a new slot only
/// appends its row. A byte holds the distance (0–253),
/// [`PAIR_UNREACHABLE`] or [`PAIR_UNKNOWN`].
#[derive(Debug, Default)]
struct PairTable {
    /// Dense node id → slot, or [`NO_SLOT`]. Grown on demand up to the
    /// largest node id seen, so a lookup is one array read.
    slots: Vec<u32>,
    /// Number of slots handed out.
    len: u32,
    dist: Vec<u8>,
}

impl PairTable {
    /// Byte offset of the pair of two *distinct* slots.
    fn index(a: u32, b: u32) -> usize {
        debug_assert_ne!(a, b, "a pair needs two distinct slots");
        let (lo, hi) = (a.min(b) as usize, a.max(b) as usize);
        hi * (hi - 1) / 2 + lo
    }

    /// The slot of `node`, or `None` before the batch query has seen it.
    fn slot_of(&self, node: NodeId) -> Option<u32> {
        self.slots.get(node.index()).copied().filter(|&s| s != NO_SLOT)
    }

    /// The slot of `node`, assigning the next one on first sight. The
    /// row grows and the count moves before the slot is published, so a
    /// panic in between leaves spare bytes, never a slot past the end of
    /// the table or two nodes on one slot.
    fn slot(&mut self, node: NodeId) -> u32 {
        if let Some(s) = self.slot_of(node) {
            return s;
        }
        let s = self.len;
        self.dist.resize(s as usize * (s as usize + 1) / 2, PAIR_UNKNOWN);
        if self.slots.len() <= node.index() {
            self.slots.resize(node.index() + 1, NO_SLOT);
        }
        self.len += 1;
        self.slots[node.index()] = s;
        s
    }

    /// `None` when the pair is not known; else its distance.
    fn get(&self, a: u32, b: u32) -> Option<Option<u32>> {
        match self.dist[Self::index(a, b)] {
            PAIR_UNKNOWN => None,
            PAIR_UNREACHABLE => Some(None),
            d => Some(Some(u32::from(d))),
        }
    }

    /// Records a computed distance. Distances that do not fit below the
    /// sentinels are left unknown rather than truncated.
    fn set(&mut self, a: u32, b: u32, d: Option<u32>) {
        let byte = match d {
            None => PAIR_UNREACHABLE,
            Some(d) if d < u32::from(PAIR_UNREACHABLE) => d as u8,
            Some(_) => return,
        };
        self.dist[Self::index(a, b)] = byte;
    }

    /// Calls `f(i, j, distance)` for every pair `i < j` of `slots` the
    /// table knows, and queues the others on `misses`.
    fn walk(
        &self,
        slots: &[u32],
        f: &mut impl FnMut(usize, usize, Option<u32>),
        misses: &mut Vec<(usize, usize)>,
    ) {
        for (j, &sj) in slots.iter().enumerate().skip(1) {
            for (i, &si) in slots[..j].iter().enumerate() {
                match self.get(si, sj) {
                    Some(d) => f(i, j, d),
                    None => misses.push((i, j)),
                }
            }
        }
    }
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

    /// Calls `f(i, j, hop distance)` once for every pair `i < j` of the
    /// *distinct* endpoints `ids`, in no fixed order. Known pairs come
    /// from the pair table under one read lock (one write lock instead
    /// when an endpoint is new and needs a slot); the misses are computed
    /// by [`UphillCone::distance_to`] outside any lock, fetching each
    /// endpoint's cone at most once, and then recorded under one write
    /// lock. Poison recovery follows [`PathOracle::cone`]: every table
    /// update is a single byte store or a grow-then-publish slot, and
    /// entries are pure, so a poisoned table is still a correct one.
    fn for_each_pair(&self, ids: &[NodeId], mut f: impl FnMut(usize, usize, Option<u32>)) {
        let mut slots: Vec<u32> = Vec::with_capacity(ids.len());
        let mut misses: Vec<(usize, usize)> = Vec::new();
        {
            let table = self.pairs.read().unwrap_or_else(PoisonError::into_inner);
            slots.extend(ids.iter().map_while(|&n| table.slot_of(n)));
            if slots.len() == ids.len() {
                table.walk(&slots, &mut f, &mut misses);
            }
        }
        if slots.len() < ids.len() {
            let mut table = self.pairs.write().unwrap_or_else(PoisonError::into_inner);
            slots.clear();
            slots.extend(ids.iter().map(|&n| table.slot(n)));
            table.walk(&slots, &mut f, &mut misses);
        }
        if misses.is_empty() {
            return;
        }
        let mut cones: Vec<Option<Arc<UphillCone>>> = vec![None; ids.len()];
        let mut cone = |x: usize| Arc::clone(cones[x].get_or_insert_with(|| self.cone(ids[x])));
        let computed: Vec<Option<u32>> = misses
            .iter()
            .map(|&(i, j)| {
                let (from, to) = (cone(i), cone(j));
                from.distance_to(&to)
            })
            .collect();
        {
            let mut table = self.pairs.write().unwrap_or_else(PoisonError::into_inner);
            for (&(i, j), &d) in misses.iter().zip(&computed) {
                table.set(slots[i], slots[j], d);
            }
        }
        for (&(i, j), d) in misses.iter().zip(computed) {
            f(i, j, d);
        }
    }

    /// Mean pairwise valley-free hop distance over a set of ASes — the
    /// `DT` term of the paper's Eq. 4. Unreachable pairs are skipped;
    /// returns 0.0 when fewer than two distinct reachable ASes are given.
    ///
    /// The input collapses to unique ASNs with multiplicities (a strictly
    /// ascending input, such as an attack's ASN histogram, already is
    /// one): every ordered pair of distinct values `x ≠ y` in the naive
    /// `i < j` loop contributes `c_x · c_y` occurrences of the same
    /// distance. Each distinct pair's distance comes from the oracle's
    /// pair-distance table (computed once per oracle, see
    /// [`PathOracle`]), and the totals are exact `u64` sums, which no
    /// visiting order can change, so the result is bit-identical to the
    /// per-occurrence loop on a cold, reused or shared oracle alike.
    pub fn mean_pairwise_distance(&self, asns: &[Asn]) -> f64 {
        let node = |a: Asn, c: usize| Some((self.dense.node_id(a)?, c as u64));
        let (ids, counts): (Vec<NodeId>, Vec<u64>) = if asns.is_sorted_by(|a, b| a < b) {
            asns.iter().filter_map(|&a| node(a, 1)).unzip()
        } else {
            let mut sorted = asns.to_vec();
            sorted.sort_unstable();
            sorted.chunk_by(|a, b| a == b).filter_map(|run| node(run[0], run.len())).unzip()
        };
        let mut total = 0u64;
        let mut count = 0u64;
        self.for_each_pair(&ids, |i, j, d| {
            if let Some(d) = d {
                let pairs = counts[i] * counts[j];
                total += u64::from(d) * pairs;
                count += pairs;
            }
        });
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
        assert_eq!(
            cold.mean_pairwise_distance(&asns).to_bits(),
            per_pair_mean(&o, &asns).to_bits()
        );
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
            warmed.mean_pairwise_distance(&warm_set);
        }

        assert_eq!(
            cold.mean_pairwise_distance(&sample).to_bits(),
            warmed.mean_pairwise_distance(&sample).to_bits()
        );
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
        let d = o.mean_pairwise_distance(&[Asn(5), Asn(6)]);
        assert!((d - 5.0).abs() < 1e-12);
        // Degenerate inputs.
        assert_eq!(o.mean_pairwise_distance(&[Asn(5)]), 0.0);
        assert_eq!(o.mean_pairwise_distance(&[]), 0.0);
        // Duplicates are skipped.
        assert_eq!(o.mean_pairwise_distance(&[Asn(5), Asn(5)]), 0.0);
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
        assert!(o.mean_pairwise_distance(&[Asn(5), Asn(6)]) > 0.0);

        // Poison the pair table the same way, once it holds entries.
        let batch = [Asn(1), Asn(3), Asn(5), Asn(6)];
        let mean = o.mean_pairwise_distance(&batch);
        assert_eq!(mean.to_bits(), per_pair_mean(&o, &batch).to_bits());
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = o.pairs.write().unwrap();
            panic!("simulated pair-table panic");
        }));
        assert!(poison.is_err());
        assert!(o.pairs.is_poisoned());
        // Cached pairs, new endpoints (slot assignment) and fresh fills.
        assert_eq!(o.mean_pairwise_distance(&batch).to_bits(), mean.to_bits());
        let fresh = [Asn(2), Asn(4), Asn(6)];
        assert_eq!(o.mean_pairwise_distance(&fresh).to_bits(), per_pair_mean(&o, &fresh).to_bits());
        assert_eq!(o.mean_pairwise_distance(&[Asn(4), Asn(5)]), 4.0);
        let table = o.pairs.read().unwrap_or_else(PoisonError::into_inner);
        let slot = |a: Asn| table.slot_of(g.dense().node_id(a).unwrap()).unwrap();
        assert_eq!(table.get(slot(Asn(2)), slot(Asn(6))), Some(Some(2)));
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

    #[test]
    fn long_distances_come_back_exact_not_truncated() {
        let g = twin_chains(130);
        let o = PathOracle::new(&g);
        let (a126, a127, a130) = (Asn(1126), Asn(1127), Asn(1130));
        let (b127, b130) = (Asn(2127), Asn(2130));
        let batch = [a126, a127, a130, b127, b130];
        assert_eq!(o.hop_distance(a126, b127), Some(253));
        assert_eq!(o.hop_distance(a127, b127), Some(254));
        assert_eq!(o.hop_distance(a130, b130), Some(260));
        // A cold table and a table that has seen the batch agree with the
        // per-pair reference, over the batch and over each pair.
        for _ in 0..2 {
            assert_eq!(
                o.mean_pairwise_distance(&batch).to_bits(),
                per_pair_mean(&o, &batch).to_bits()
            );
            for (i, a) in batch.iter().enumerate() {
                for b in &batch[i + 1..] {
                    let d = o.hop_distance(*a, *b).unwrap();
                    assert_eq!(o.mean_pairwise_distance(&[*a, *b]), f64::from(d));
                }
            }
        }
        // 253 hops fits below the sentinels and is stored; 254 and more
        // stay unknown, recomputed by the cone merge on every query.
        let table = o.pairs.read().unwrap();
        let slot = |a: Asn| table.slot_of(g.dense().node_id(a).unwrap()).unwrap();
        assert_eq!(table.get(slot(a126), slot(b127)), Some(Some(253)));
        assert_eq!(table.get(slot(a127), slot(b127)), None);
        assert_eq!(table.get(slot(a130), slot(b130)), None);
        assert_eq!(table.get(slot(a126), slot(a130)), Some(Some(4)));
    }

    #[test]
    fn unreachable_pairs_are_stored_as_unreachable() {
        let mut g = twin_chains(2);
        g.add_as(Asn(9), Tier::Tier1, 0);
        g.add_as(Asn(10), Tier::Stub, 0);
        g.add_edge(Asn(9), Asn(10), Relationship::Customer).unwrap();
        let o = PathOracle::new(&g);
        let batch = [Asn(1002), Asn(10), Asn(2002)];
        assert_eq!(
            (
                o.hop_distance(batch[0], batch[1]),
                o.hop_distance(batch[0], batch[2]),
                o.hop_distance(batch[1], batch[2])
            ),
            (None, Some(4), None)
        );
        for _ in 0..2 {
            assert_eq!(o.mean_pairwise_distance(&batch), 4.0);
            assert_eq!(o.mean_pairwise_distance(&batch[..2]), 0.0);
        }
        let table = o.pairs.read().unwrap();
        let slot = |a: Asn| table.slot_of(g.dense().node_id(a).unwrap()).unwrap();
        assert_eq!(table.get(slot(Asn(1002)), slot(Asn(10))), Some(None));
        assert_eq!(table.get(slot(Asn(10)), slot(Asn(2002))), Some(None));
        assert_eq!(table.get(slot(Asn(1002)), slot(Asn(2002))), Some(Some(4)));
        assert_eq!(table.dist.len(), 3);
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
        let d_same = o.mean_pairwise_distance(&region0);
        let d_mixed = o.mean_pairwise_distance(&mixed);
        assert!(
            d_same <= d_mixed + 0.5,
            "same-region {d_same} should not exceed mixed {d_mixed} by much"
        );
    }
}
