//! Valley-free path computation and inter-AS hop distances.
//!
//! The denominator of the paper's source-distribution feature (Eq. 4) is the
//! mean pairwise inter-AS distance of the ASes hosting attack bots. The
//! authors "develop a tool to infer AS relationship … using the relationships
//! between ASes, we could further infer the path from one AS to another …
//! and calculate the distance between them (in hops)". This module is that
//! tool's second half: given an annotated [`AsGraph`], it computes shortest
//! **valley-free** paths (up through providers, at most one peer hop, down
//! through customers — the Gao–Rexford export discipline).

use crate::dense::{DenseTopology, NodeId};
use crate::graph::{AsGraph, Asn};
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// Sentinel distance/parent value: "not reached by this BFS".
const UNREACHED: u32 = u32::MAX;

/// [`PairTable`] entry: the pair's distance is not known yet. Pairs at
/// [`PAIR_UNREACHABLE`] hops or more keep this value for good, so the
/// cone merge recomputes them exactly on every query.
const PAIR_UNKNOWN: u8 = u8::MAX;

/// [`PairTable`] entry: no valley-free path joins the pair.
const PAIR_UNREACHABLE: u8 = u8::MAX - 1;

/// Lazily-caching oracle answering hop-distance and path queries over an
/// [`AsGraph`].
///
/// Internally it runs one BFS per endpoint over *uphill* (customer→provider)
/// edges and combines the two uphill cones either at a common ancestor or
/// across a single peering edge — exactly the set of valley-free paths.
/// All traversal runs over the graph's dense CSR view
/// ([`AsGraph::dense`]): cones are sparse entry lists sorted by
/// [`NodeId`] (an AS's transitive provider set is a handful of nodes even
/// at 100 k ASes, so per-cone memory is O(cone), not O(graph)), cached
/// behind `Arc` so a cache hit clones a pointer, never a map.
///
/// Batch queries ([`PathOracle::pairwise_distances`],
/// [`PathOracle::mean_pairwise_distance`]) read a second cache, the
/// pair-distance table: one byte per pair of endpoints any batch query
/// has seen, filled on first use. Each distinct pair is intersected once
/// per oracle, not once per call, and cones are only fetched for the
/// pairs a call finds missing. With `m` distinct endpoints seen, the
/// table holds `m(m−1)/2` bytes (about 100 KiB at 454 endpoints).
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
pub struct PathOracle<'g> {
    graph: &'g AsGraph,
    dense: Arc<DenseTopology>,
    /// Cached uphill BFS results: dense node id → cone. `RwLock` (not
    /// `RefCell`) so one oracle can serve concurrent queries from the
    /// sharded model-fitting executor; a racing recompute inserts the
    /// identical cone, so caching stays pure. Hits clone the `Arc` only.
    uphill: RwLock<HashMap<u32, Arc<UphillCone>>>,
    /// Valley-free distances between endpoints of batch queries, under the
    /// same lock discipline: a racing fill stores the identical byte.
    pairs: RwLock<PairTable>,
}

/// Triangular pair-distance table over dense endpoint *slots*. An AS
/// gets the next slot the first time a batch query sees it; the pair of
/// slots `a < b` lives at byte `b(b−1)/2 + a`, so a new slot only
/// appends its row. A byte holds the distance (0–253),
/// [`PAIR_UNREACHABLE`] or [`PAIR_UNKNOWN`].
#[derive(Debug, Default)]
struct PairTable {
    /// Dense node id → slot.
    slots: HashMap<u32, u32>,
    dist: Vec<u8>,
}

impl PairTable {
    /// Byte offset of the pair of two *distinct* slots.
    fn index(a: u32, b: u32) -> usize {
        debug_assert_ne!(a, b, "a pair needs two distinct slots");
        let (lo, hi) = (a.min(b) as usize, a.max(b) as usize);
        hi * (hi - 1) / 2 + lo
    }

    /// The slot of `node`, assigning the next one on first sight. The
    /// row grows before the slot is published, so a panic in between
    /// leaves spare bytes, never a slot past the end of the table.
    fn slot(&mut self, node: u32) -> u32 {
        if let Some(&s) = self.slots.get(&node) {
            return s;
        }
        let s = self.slots.len();
        self.dist.resize(s * (s + 1) / 2, PAIR_UNKNOWN);
        self.slots.insert(node, s as u32);
        s as u32
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
}

/// An uphill BFS cone in sparse form: one entry per *reached* node,
/// sorted ascending by dense node id. Uphill cones are the transitive
/// provider sets, which stay tiny however large the graph grows, so the
/// sparse form costs O(cone) per cached endpoint where the old flat
/// `dist`/`parent` arrays cost O(graph) — the difference between a
/// 100 k-destination route-table dump holding ~25 MB of cones and one
/// holding ~80 GB.
#[derive(Debug)]
struct UphillCone {
    entries: Vec<ConeEntry>,
}

/// One reached node in an [`UphillCone`]: its BFS hop count from the
/// root and its BFS predecessor ([`UNREACHED`] for the root itself).
#[derive(Debug, Clone, Copy)]
struct ConeEntry {
    node: u32,
    dist: u32,
    parent: u32,
}

impl UphillCone {
    /// The entry for `node`, or `None` when the cone does not reach it.
    fn get(&self, node: NodeId) -> Option<ConeEntry> {
        self.entries.binary_search_by_key(&node.0, |e| e.node).ok().map(|i| self.entries[i])
    }
}

/// How a route was learned at the vantage AS (BGP local-preference class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RouteKind {
    /// Learned from a customer: the destination is in the customer cone.
    Customer,
    /// Learned from a settlement-free peer.
    Peer,
    /// Learned from a provider (costs money; least preferred).
    Provider,
}

impl<'g> PathOracle<'g> {
    /// Creates an oracle over the given graph. Queries cache uphill BFS
    /// cones per endpoint, so reuse one oracle for many queries.
    pub fn new(graph: &'g AsGraph) -> Self {
        let dense = graph.dense();
        PathOracle {
            graph,
            dense,
            uphill: RwLock::new(HashMap::new()),
            pairs: RwLock::new(PairTable::default()),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &AsGraph {
        self.graph
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
        // produces (each level scans in enqueue order), so dist and parent
        // — and every fingerprinted quantity built on them — are unchanged.
        // The visited set is a sorted id list, not an O(graph) array:
        // uphill cones are tiny, so the O(k log k) inserts are free.
        let mut entries = vec![ConeEntry { node: start.0, dist: 0, parent: UNREACHED }];
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
                        entries.push(ConeEntry { node: v.0, dist: depth, parent: u.0 });
                        next.push(v);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        entries.sort_unstable_by_key(|e| e.node);
        let cone = Arc::new(UphillCone { entries });
        self.uphill
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(start.0, Arc::clone(&cone));
        cone
    }

    /// Precomputes and caches the uphill cone of every known AS in
    /// `asns`, sweeping in input order.
    ///
    /// Serving pipelines call this once after loading a model, so the
    /// first real query (often inside a latency-sensitive loop) pays no
    /// BFS cost. Warming is purely a cache operation: cone computation is
    /// deterministic, so a warmed oracle answers every query bit-identically
    /// to a cold one (pinned by test). Unknown ASNs are skipped; warming
    /// the same AS twice is a no-op.
    pub fn warm(&self, asns: &[Asn]) {
        for a in asns {
            if let Some(id) = self.dense.node_id(*a) {
                let _ = self.cone(id);
            }
        }
    }

    /// Shortest valley-free hop distance between two ASes, or `None` when
    /// no valley-free path exists (or either AS is unknown).
    pub fn hop_distance(&self, a: Asn, b: Asn) -> Option<u32> {
        let na = self.dense.node_id(a)?;
        let nb = self.dense.node_id(b)?;
        if na == nb {
            return Some(0);
        }
        let ca = self.cone(na);
        let cb = self.cone(nb);
        self.cone_distance(&ca, &cb)
    }

    /// Shortest valley-free path between two ASes as a sequence of ASNs
    /// (inclusive of both endpoints), or `None` when unreachable.
    pub fn path(&self, a: Asn, b: Asn) -> Option<Vec<Asn>> {
        self.shortest(a, b).map(|(_, p)| p)
    }

    fn shortest(&self, a: Asn, b: Asn) -> Option<(u32, Vec<Asn>)> {
        let na = self.dense.node_id(a)?;
        let nb = self.dense.node_id(b)?;
        if a == b {
            return Some((0, vec![a]));
        }
        let ca = self.cone(na);
        let cb = self.cone(nb);

        // (distance, meet node in a's cone, peer crossed into b's cone).
        let mut best: Option<(u32, NodeId, Option<NodeId>)> = None;

        // Case 1: meet at a common uphill ancestor (pure up–down path).
        // The sorted merge visits common ids ascending — the same order
        // the old dense 0..n scan used — so ties resolve identically.
        let (mut i, mut j) = (0, 0);
        while i < ca.entries.len() && j < cb.entries.len() {
            let (ea, eb) = (ca.entries[i], cb.entries[j]);
            match ea.node.cmp(&eb.node) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let total = ea.dist + eb.dist;
                    if best.as_ref().is_none_or(|(d, _, _)| total < *d) {
                        best = Some((total, NodeId(ea.node), None));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }

        // Case 2: cross exactly one peering edge between the two cones.
        // Entries ascend by node id, matching the old dense scan order.
        for e in &ca.entries {
            for &w in self.dense.peers(NodeId(e.node)) {
                let Some(ew) = cb.get(w) else { continue };
                let total = e.dist + 1 + ew.dist;
                if best.as_ref().is_none_or(|(d, _, _)| total < *d) {
                    best = Some((total, NodeId(e.node), Some(w)));
                }
            }
        }
        best.map(|(d, top_a, peer_b)| (d, join_paths(&self.dense, &ca, &cb, na, nb, top_a, peer_b)))
    }

    /// Shortest valley-free distance between two already-computed cones:
    /// the minimum over common uphill ancestors (a sorted merge of the
    /// two entry lists) and over single peer crossings, without path
    /// reconstruction. O(|ca| + |cb| + peer edges of ca), independent of
    /// graph size.
    fn cone_distance(&self, ca: &UphillCone, cb: &UphillCone) -> Option<u32> {
        let mut best: Option<u32> = None;
        let (mut i, mut j) = (0, 0);
        while i < ca.entries.len() && j < cb.entries.len() {
            let (ea, eb) = (ca.entries[i], cb.entries[j]);
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
        for e in &ca.entries {
            for &w in self.dense.peers(NodeId(e.node)) {
                let Some(ew) = cb.get(w) else { continue };
                let total = e.dist + 1 + ew.dist;
                if best.is_none_or(|d| total < d) {
                    best = Some(total);
                }
            }
        }
        best
    }

    /// The pair-table slots of `ids`, assigning slots to endpoints seen
    /// for the first time (under the write lock, only when one is new).
    fn pair_slots(&self, ids: &[NodeId]) -> Vec<u32> {
        let known: Option<Vec<u32>> = {
            let table = self.pairs.read().unwrap_or_else(PoisonError::into_inner);
            ids.iter().map(|n| table.slots.get(&n.0).copied()).collect()
        };
        known.unwrap_or_else(|| {
            let mut table = self.pairs.write().unwrap_or_else(PoisonError::into_inner);
            ids.iter().map(|n| table.slot(n.0)).collect()
        })
    }

    /// Calls `f(i, j, hop distance)` once for every pair `i < j` of the
    /// *distinct* endpoints `ids`, in no fixed order. Known pairs come
    /// from the pair table under one read lock; the misses are computed
    /// by [`PathOracle::cone_distance`] outside any lock, fetching each
    /// endpoint's cone at most once, and then recorded under one write
    /// lock. Poison recovery follows [`PathOracle::cone`]: every table
    /// update is a single byte store or an append-then-publish slot, and
    /// entries are pure, so a poisoned table is still a correct one.
    fn for_each_pair(&self, ids: &[NodeId], mut f: impl FnMut(usize, usize, Option<u32>)) {
        let slots = self.pair_slots(ids);
        let mut misses: Vec<(usize, usize)> = Vec::new();
        {
            let table = self.pairs.read().unwrap_or_else(PoisonError::into_inner);
            for j in 1..ids.len() {
                for i in 0..j {
                    match table.get(slots[i], slots[j]) {
                        Some(d) => f(i, j, d),
                        None => misses.push((i, j)),
                    }
                }
            }
        }
        if misses.is_empty() {
            return;
        }
        let mut cones: Vec<Option<Arc<UphillCone>>> = vec![None; ids.len()];
        for &(i, j) in &misses {
            for x in [i, j] {
                cones[x].get_or_insert_with(|| self.cone(ids[x]));
            }
        }
        let cone = |x: usize| cones[x].as_deref().expect("fetched above");
        let computed: Vec<Option<u32>> =
            misses.iter().map(|&(i, j)| self.cone_distance(cone(i), cone(j))).collect();
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

    /// Batched valley-free distances over a set of ASes, read from the
    /// oracle's pair-distance table (see [`PathOracle`]); pairs the table
    /// lacks are computed from the cached cones once and recorded.
    ///
    /// `result[i][j]` equals `hop_distance(asns[i], asns[j])`: the matrix
    /// is symmetric, the diagonal is `Some(0)` for known ASes, and rows
    /// and columns of unknown ASes are all `None`. Repeated ASNs collapse
    /// to one endpoint, so a `k`-element query over `u` distinct known
    /// ASes looks up `u(u−1)/2` pairs and fills the `k²` matrix from them.
    pub fn pairwise_distances(&self, asns: &[Asn]) -> Vec<Vec<Option<u32>>> {
        let ids: Vec<Option<NodeId>> = asns.iter().map(|a| self.dense.node_id(*a)).collect();
        let mut distinct: Vec<NodeId> = ids.iter().flatten().copied().collect();
        distinct.sort_unstable();
        distinct.dedup();
        let u = distinct.len();
        let mut local = vec![Some(0); u * u];
        self.for_each_pair(&distinct, |i, j, d| {
            local[i * u + j] = d;
            local[j * u + i] = d;
        });
        let pos: Vec<Option<usize>> =
            ids.iter().map(|id| id.and_then(|n| distinct.binary_search(&n).ok())).collect();
        pos.iter()
            .map(|pi| {
                pos.iter()
                    .map(|pj| match (pi, pj) {
                        (Some(a), Some(b)) => local[a * u + b],
                        _ => None,
                    })
                    .collect()
            })
            .collect()
    }

    /// Downhill BFS from `start` over provider→customer edges: flat
    /// distance and parent arrays covering `start`'s customer cone.
    fn downhill(&self, start: NodeId) -> (Vec<u32>, Vec<u32>) {
        let n = self.dense.len();
        let mut dist = vec![UNREACHED; n];
        let mut parent = vec![UNREACHED; n];
        let mut frontier = vec![start];
        let mut next = Vec::new();
        let mut depth = 0u32;
        dist[start.index()] = 0;
        while !frontier.is_empty() {
            depth += 1;
            for &u in &frontier {
                for &v in self.dense.customers(u) {
                    if dist[v.index()] == UNREACHED {
                        dist[v.index()] = depth;
                        parent[v.index()] = u.0;
                        next.push(v);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        (dist, parent)
    }

    /// How a route was learned at the vantage — BGP local preference
    /// ranks customer routes over peer routes over provider routes
    /// (the Gao–Rexford economic ordering), regardless of length.
    pub fn preferred_route(&self, a: Asn, b: Asn) -> Option<(RouteKind, Vec<Asn>)> {
        let na = self.dense.node_id(a)?;
        let nb = self.dense.node_id(b)?;
        if a == b {
            return Some((RouteKind::Customer, vec![a]));
        }
        // Customer route: b sits in a's customer cone (pure descent).
        let (down_dist, down_parent) = self.downhill(na);
        if down_dist[nb.index()] != UNREACHED {
            let mut path = vec![self.dense.asn(nb)];
            let mut cur = nb;
            while cur != na {
                cur = NodeId(down_parent[cur.index()]);
                path.push(self.dense.asn(cur));
            }
            path.reverse();
            return Some((RouteKind::Customer, path));
        }
        // Peer route: one peer hop, then pure descent from the peer.
        let mut best_peer: Option<Vec<Asn>> = None;
        for &p in self.dense.peers(na) {
            let (pd, pp) = self.downhill(p);
            if pd[nb.index()] != UNREACHED {
                let mut path = vec![self.dense.asn(nb)];
                let mut cur = nb;
                while cur != p {
                    cur = NodeId(pp[cur.index()]);
                    path.push(self.dense.asn(cur));
                }
                path.push(a);
                path.reverse();
                if best_peer.as_ref().is_none_or(|bp| path.len() < bp.len()) {
                    best_peer = Some(path);
                }
            }
        }
        if let Some(path) = best_peer {
            return Some((RouteKind::Peer, path));
        }
        // Provider route: fall back to the general valley-free shortest.
        self.path(a, b).map(|p| (RouteKind::Provider, p))
    }

    /// Shortest *unrestricted* (policy-free) hop distance between two
    /// ASes: plain BFS ignoring business relationships. The baseline for
    /// [`PathOracle::inflation`].
    pub fn unrestricted_distance(&self, a: Asn, b: Asn) -> Option<u32> {
        let na = self.dense.node_id(a)?;
        let nb = self.dense.node_id(b)?;
        if na == nb {
            return Some(0);
        }
        let n = self.dense.len();
        let mut dist = vec![UNREACHED; n];
        let mut frontier = vec![na];
        let mut next = Vec::new();
        let mut depth = 0u32;
        dist[na.index()] = 0;
        while !frontier.is_empty() {
            depth += 1;
            for &u in &frontier {
                for &v in self.dense.neighbors(u) {
                    if v == nb {
                        return Some(depth);
                    }
                    if dist[v.index()] == UNREACHED {
                        dist[v.index()] = depth;
                        next.push(v);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        None
    }

    /// Path inflation between two ASes: the ratio of the valley-free hop
    /// distance to the unrestricted shortest distance — the quantity Gao &
    /// Wang's "extent of AS path inflation by routing policies" \[44\]
    /// measures. `None` when either distance is undefined; 1.0 means
    /// routing policy costs nothing on this pair.
    pub fn inflation(&self, a: Asn, b: Asn) -> Option<f64> {
        let policy = self.hop_distance(a, b)? as f64;
        let free = self.unrestricted_distance(a, b)? as f64;
        if free == 0.0 {
            return Some(1.0);
        }
        Some(policy / free)
    }

    /// Mean path inflation over a sample of AS pairs (skipping unreachable
    /// pairs); 0.0 when no pair is measurable.
    pub fn mean_inflation(&self, pairs: &[(Asn, Asn)]) -> f64 {
        let vals: Vec<f64> = pairs.iter().filter_map(|(a, b)| self.inflation(*a, *b)).collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }

    /// Mean pairwise valley-free hop distance over a set of ASes — the
    /// `DT` term of the paper's Eq. 4. Unreachable pairs are skipped;
    /// returns 0.0 when fewer than two distinct reachable ASes are given.
    ///
    /// The input collapses to unique ASNs with multiplicities: every
    /// ordered pair of distinct values `x ≠ y` in the naive `i < j` loop
    /// contributes `c_x · c_y` occurrences of the same distance. Each
    /// distinct pair's distance comes from the oracle's pair-distance
    /// table (computed once per oracle, see [`PathOracle`]), and the
    /// totals are exact `u64` sums, which no visiting order can change,
    /// so the result is bit-identical to the per-occurrence loop on a
    /// cold, warm or shared oracle alike.
    pub fn mean_pairwise_distance(&self, asns: &[Asn]) -> f64 {
        let mut uniq: Vec<(Asn, u64)> = Vec::new();
        for a in asns {
            match uniq.binary_search_by_key(a, |(x, _)| *x) {
                Ok(i) => uniq[i].1 += 1,
                Err(i) => uniq.insert(i, (*a, 1)),
            }
        }
        let (ids, counts): (Vec<NodeId>, Vec<u64>) =
            uniq.iter().filter_map(|&(a, c)| Some((self.dense.node_id(a)?, c))).unzip();
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

/// Reconstructs the full path from `a` up to `top_a`, optionally across a
/// peering edge to `top_b`, then down to `b`.
fn join_paths(
    dense: &DenseTopology,
    ca: &UphillCone,
    cb: &UphillCone,
    a: NodeId,
    b: NodeId,
    top_a: NodeId,
    peer_b: Option<NodeId>,
) -> Vec<Asn> {
    // Walk from top_a back down to a (the parent pointers point toward a).
    let mut up = Vec::new();
    let mut cur = top_a;
    up.push(dense.asn(cur));
    while cur != a {
        cur = NodeId(ca.get(cur).expect("node on reconstructed path").parent);
        up.push(dense.asn(cur));
    }
    up.reverse(); // now a → … → top_a

    let top_b = peer_b.unwrap_or(top_a);
    let mut down = Vec::new();
    let mut cur = top_b;
    down.push(dense.asn(cur));
    while cur != b {
        cur = NodeId(cb.get(cur).expect("node on reconstructed path").parent);
        down.push(dense.asn(cur));
    }
    // down is top_b → … → b already in order.
    if peer_b.is_some() {
        up.extend(down);
    } else {
        up.extend(down.into_iter().skip(1));
    }
    up
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

    #[test]
    fn distance_to_self_is_zero() {
        let g = diamond();
        let o = PathOracle::new(&g);
        assert_eq!(o.hop_distance(Asn(5), Asn(5)), Some(0));
        assert_eq!(o.path(Asn(5), Asn(5)), Some(vec![Asn(5)]));
    }

    #[test]
    fn pure_updown_path() {
        let g = diamond();
        let o = PathOracle::new(&g);
        // 5 → 3 → 1 is uphill; but to reach 6 we must cross the peer edge.
        assert_eq!(o.hop_distance(Asn(5), Asn(3)), Some(1));
        assert_eq!(o.path(Asn(5), Asn(3)), Some(vec![Asn(5), Asn(3)]));
    }

    #[test]
    fn path_across_peering() {
        let g = diamond();
        let o = PathOracle::new(&g);
        assert_eq!(o.hop_distance(Asn(5), Asn(6)), Some(5));
        assert_eq!(
            o.path(Asn(5), Asn(6)),
            Some(vec![Asn(5), Asn(3), Asn(1), Asn(2), Asn(4), Asn(6)])
        );
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
        assert_eq!(o.path(Asn(5), Asn(7)), Some(vec![Asn(5), Asn(3), Asn(7)]));
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

    #[test]
    fn paths_are_valley_free_on_generated_topology() {
        let g = TopologyGenerator::new(TopologyConfig::small(), 12).generate().unwrap();
        let o = PathOracle::new(&g);
        let stubs = g.tier_members(Tier::Stub);
        for (i, a) in stubs.iter().enumerate().take(8) {
            for b in stubs.iter().skip(i + 1).take(8) {
                let path = o.path(*a, *b).expect("reachable");
                assert_valley_free(&g, &path);
            }
        }
    }

    fn assert_valley_free(g: &AsGraph, path: &[Asn]) {
        // Phases: 0 = climbing (customer→provider), 1 = peered, 2 = descending.
        let mut phase = 0u8;
        for w in path.windows(2) {
            let rel = g.relationship(w[0], w[1]).expect("edge exists");
            match rel {
                Relationship::Provider => {
                    assert_eq!(phase, 0, "climb after descent in {path:?}");
                }
                Relationship::Peer => {
                    assert!(phase == 0, "second peer or peer after descent in {path:?}");
                    phase = 1;
                }
                Relationship::Customer => {
                    phase = 2;
                }
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
    fn route_preference_ranks_customer_first() {
        let g = diamond();
        let o = PathOracle::new(&g);
        // Tier-1 AS1 reaches stub 5 through its customer cone.
        let (kind, path) = o.preferred_route(Asn(1), Asn(5)).unwrap();
        assert_eq!(kind, RouteKind::Customer);
        assert_eq!(path, vec![Asn(1), Asn(3), Asn(5)]);
        // AS1 reaches stub 6 only via its peer AS2.
        let (kind, path) = o.preferred_route(Asn(1), Asn(6)).unwrap();
        assert_eq!(kind, RouteKind::Peer);
        assert_eq!(path, vec![Asn(1), Asn(2), Asn(4), Asn(6)]);
        // Stub 5 reaches stub 6 only by buying transit.
        let (kind, _) = o.preferred_route(Asn(5), Asn(6)).unwrap();
        assert_eq!(kind, RouteKind::Provider);
        // Self route.
        assert_eq!(o.preferred_route(Asn(5), Asn(5)).unwrap().0, RouteKind::Customer);
        // Unknown endpoints.
        assert!(o.preferred_route(Asn(5), Asn(99)).is_none());
    }

    #[test]
    fn preferred_route_can_be_longer_than_shortest() {
        // Economics beat hop count: give AS1 a long customer chain to 6
        // while the peer route stays short. Customer must still win.
        let mut g = diamond();
        g.add_as(Asn(7), Tier::Tier2, 0);
        g.add_edge(Asn(1), Asn(7), Relationship::Customer).unwrap();
        g.add_edge(Asn(7), Asn(6), Relationship::Customer).unwrap();
        let o = PathOracle::new(&g);
        let (kind, path) = o.preferred_route(Asn(1), Asn(6)).unwrap();
        assert_eq!(kind, RouteKind::Customer);
        assert_eq!(path, vec![Asn(1), Asn(7), Asn(6)]);
        // In this graph the customer route happens to be shortest too, so
        // make the customer chain strictly longer via another hop.
        let mut g2 = diamond();
        g2.add_as(Asn(7), Tier::Tier2, 0);
        g2.add_as(Asn(8), Tier::Tier2, 0);
        g2.add_edge(Asn(1), Asn(7), Relationship::Customer).unwrap();
        g2.add_edge(Asn(7), Asn(8), Relationship::Customer).unwrap();
        g2.add_edge(Asn(8), Asn(6), Relationship::Customer).unwrap();
        let o2 = PathOracle::new(&g2);
        let (kind, path) = o2.preferred_route(Asn(1), Asn(6)).unwrap();
        assert_eq!(kind, RouteKind::Customer);
        assert_eq!(path.len(), 4); // longer than the 4-hop... peer route is 1-2-4-6 (4 nodes) too
                                   // The shortest valley-free path ties at 3 hops; preference still
                                   // picks the customer route.
        assert_eq!(o2.hop_distance(Asn(1), Asn(6)), Some(3));
    }

    #[test]
    fn unrestricted_distance_ignores_policy() {
        // In the diamond, the policy-free distance 5↔6 equals the
        // valley-free one (the peer edge is on the only path).
        let g = diamond();
        let o = PathOracle::new(&g);
        assert_eq!(o.unrestricted_distance(Asn(5), Asn(6)), Some(5));
        assert_eq!(o.unrestricted_distance(Asn(5), Asn(5)), Some(0));
        assert_eq!(o.unrestricted_distance(Asn(5), Asn(99)), None);
    }

    #[test]
    fn inflation_is_at_least_one() {
        let g = TopologyGenerator::new(TopologyConfig::small(), 17).generate().unwrap();
        let o = PathOracle::new(&g);
        let stubs = g.tier_members(Tier::Stub);
        let mut pairs = Vec::new();
        for (i, a) in stubs.iter().enumerate().take(8) {
            for b in stubs.iter().skip(i + 1).take(8) {
                pairs.push((*a, *b));
                let infl = o.inflation(*a, *b).expect("reachable");
                assert!(infl >= 1.0 - 1e-12, "inflation {infl} below 1");
            }
        }
        let mean = o.mean_inflation(&pairs);
        assert!(mean >= 1.0);
        assert!(mean < 3.0, "mean inflation {mean} implausibly high");
    }

    #[test]
    fn valley_creates_inflation() {
        // Stub 5 and stub 7 share provider AS3; adding a direct 5–6 link
        // through a *customer* of 6 would create a shortcut that policy
        // forbids. Build: 5 and 6 peer at the bottom — the unrestricted
        // path uses it, the valley-free path cannot shortcut through a
        // stub, but a bottom peering IS usable... so instead create a
        // sibling stub chain: 5 - x - 6 where x is 5's and 6's customer;
        // customer valleys are illegal.
        let mut g = diamond();
        g.add_as(Asn(9), Tier::Stub, 0);
        g.add_edge(Asn(5), Asn(9), Relationship::Customer).unwrap();
        g.add_edge(Asn(6), Asn(9), Relationship::Customer).unwrap();
        let o = PathOracle::new(&g);
        // Unrestricted: 5-9-6 = 2 hops. Valley-free must climb: 5 hops.
        assert_eq!(o.unrestricted_distance(Asn(5), Asn(6)), Some(2));
        assert_eq!(o.hop_distance(Asn(5), Asn(6)), Some(5));
        assert!((o.inflation(Asn(5), Asn(6)).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn warmed_oracle_answers_bit_identically_to_cold() {
        let g = TopologyGenerator::new(TopologyConfig::small(), 19).generate().unwrap();
        let stubs = g.tier_members(Tier::Stub);
        let sample: Vec<Asn> = stubs.iter().copied().take(10).collect();

        let cold = PathOracle::new(&g);
        let warmed = PathOracle::new(&g);
        // Unknown ASNs are skipped; duplicates and re-warming are no-ops.
        let mut warm_set = sample.clone();
        warm_set.push(Asn(u32::MAX));
        warm_set.push(sample[0]);
        warmed.warm(&warm_set);
        warmed.warm(&sample);

        assert_eq!(cold.pairwise_distances(&sample), warmed.pairwise_distances(&sample));
        assert_eq!(
            cold.mean_pairwise_distance(&sample).to_bits(),
            warmed.mean_pairwise_distance(&sample).to_bits()
        );
        for (i, a) in sample.iter().enumerate() {
            for b in sample.iter().skip(i + 1) {
                assert_eq!(cold.hop_distance(*a, *b), warmed.hop_distance(*a, *b));
                assert_eq!(cold.path(*a, *b), warmed.path(*a, *b));
            }
        }
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
        // cached reads, fresh BFS inserts, and batch kernels.
        assert_eq!(o.hop_distance(Asn(5), Asn(6)), before);
        assert_eq!(o.path(Asn(5), Asn(6)).unwrap().len(), 6);
        o.warm(&[Asn(1), Asn(2)]);
        assert!(o.mean_pairwise_distance(&[Asn(5), Asn(6)]) > 0.0);

        // Poison the pair table the same way, once it holds entries.
        let batch = [Asn(1), Asn(3), Asn(5), Asn(6)];
        let matrix = o.pairwise_distances(&batch);
        let mean = o.mean_pairwise_distance(&batch);
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = o.pairs.write().unwrap();
            panic!("simulated pair-table panic");
        }));
        assert!(poison.is_err());
        assert!(o.pairs.is_poisoned());
        // Cached pairs, new endpoints (slot assignment) and fresh fills.
        assert_eq!(o.pairwise_distances(&batch), matrix);
        assert_eq!(o.mean_pairwise_distance(&batch).to_bits(), mean.to_bits());
        assert_eq!(o.pairwise_distances(&[Asn(2), Asn(4), Asn(6)])[0][2], Some(2));
        assert_eq!(o.mean_pairwise_distance(&[Asn(4), Asn(5)]), 4.0);
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
        let expected: Vec<Vec<Option<u32>>> =
            batch.iter().map(|a| batch.iter().map(|b| o.hop_distance(*a, *b)).collect()).collect();
        assert_eq!(expected[0][3], Some(253));
        assert_eq!(expected[1][3], Some(254));
        assert_eq!(expected[2][4], Some(260));
        // A cold table and a table that has seen the batch agree.
        for _ in 0..2 {
            assert_eq!(o.pairwise_distances(&batch), expected);
            assert_eq!(o.mean_pairwise_distance(&[a130, b130]), 260.0);
        }
        // 253 hops fits below the sentinels and is stored; 254 and more
        // stay unknown, recomputed by the cone merge on every query.
        let table = o.pairs.read().unwrap();
        let slot = |a: Asn| table.slots[&g.dense().node_id(a).unwrap().0];
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
        for _ in 0..2 {
            let m = o.pairwise_distances(&batch);
            assert_eq!((m[0][1], m[0][2], m[1][2]), (None, Some(4), None));
            assert_eq!(o.mean_pairwise_distance(&batch), 4.0);
        }
        let table = o.pairs.read().unwrap();
        let slot = |a: Asn| table.slots[&g.dense().node_id(a).unwrap().0];
        assert_eq!(table.get(slot(Asn(1002)), slot(Asn(10))), Some(None));
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
