//! Preprocessing: node ordering and contraction.
//!
//! The contraction loop is the hottest build-time path in the repo, and it is what
//! gates continent-scale experiments: a naive lazy-update loop re-runs the full
//! O(deg²) witness sweep over the dense core on every queue pop and goes superlinear
//! past ~10k vertices. This implementation keeps preprocessing near-linear with three
//! techniques:
//!
//! * **cached priorities with neighbour-only invalidation** — contracting `v` marks
//!   only `v`'s surviving neighbours dirty; a priority is recomputed at most once per
//!   invalidation, when the vertex is popped;
//! * **staged, hop-limited witness searches** — a direct-edge (1-hop) scan, then a
//!   bounded 2-hop neighbour scan, and only for still-unresolved pairs a hop- and
//!   settle-limited multi-target Dijkstra (one search per *source* neighbour, not one
//!   per pair);
//! * **cheap priority estimates** — under lazy updates a priority is recomputed ~2-3×
//!   per vertex; estimates plan with shallow witness budgets
//!   ([`ESTIMATE_SETTLE_LIMIT`], degree-scaled) while the one thorough staged plan per
//!   vertex runs at contraction time (this alone took a 290k build from ~35s to ~19s);
//! * **degree-scaled witness budgets** — each witness-Dijkstra settle scans an
//!   adjacency list, so budgets shrink as the live degree grows: full strength on the
//!   planar bulk, `1/d`-scaled inside the densifying core, where long searches rarely
//!   find witnesses anyway;
//! * **min-degree hash-map endgame** — once the average live degree crosses
//!   [`Limits::core_degree_threshold`], the remaining near-clique core is eliminated
//!   in minimum-live-degree order on hash-map adjacency with 1-hop witness checks
//!   (linear-scan upserts plus futile witness searches previously made the last ~2k
//!   vertices of a 290k build cost more than the first 288k).
//!
//! Witness-search invariant: a *witness* for the pair `(u, t)` around `v` is a path
//! avoiding `v` (and all contracted vertices) of weight **at most** `w(u,v) + w(v,t)`;
//! a pair gets a shortcut iff no pass certifies a witness. Every pass uses the same
//! `<=` comparison, and every limit (hops, settles, cutoff) can only *miss* witnesses,
//! which adds redundant shortcuts but never breaks correctness.

use rnknn_graph::{Graph, NodeId, Weight, INFINITY};
use rnknn_pathfinding::heap::MinHeap;
use rnknn_persist::PVec;
use std::collections::HashMap;

/// Weight of the "deleted neighbours" term in the node priority, which spreads
/// contraction evenly across the network.
const DELETED_NEIGHBOUR_WEIGHT: i64 = 2;

/// Weight of the hierarchy-depth ("level") term in the node priority. Keeping the
/// hierarchy shallow shrinks upward search spaces, which is what query time and
/// IER-CH candidate cost scale with.
const LEVEL_WEIGHT: i64 = 2;

/// The witness-search and endgame limits of one build. Every engine build uses
/// [`Limits::DEFAULT`]; the exactness tests lower them to reach the paths they
/// check. Every limit can only *miss* witnesses, so no value breaks exactness.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Limits {
    /// Maximum number of vertices settled by each bounded witness Dijkstra. One such
    /// search serves *all* unresolved pairs of a source neighbour (multi-target),
    /// so this budget is shared per source, not per pair. Larger values produce
    /// fewer shortcuts (usually a net preprocessing speed-up, since shortcuts feed
    /// back into degree growth).
    pub(crate) witness_settle_limit: usize,
    /// Maximum number of edges a witness path may use in the final bounded-Dijkstra
    /// pass (`0` = unlimited). Witness searches run as staged passes — direct-edge
    /// (1-hop), bounded neighbour scan (2-hop), then this hop-limited Dijkstra — so
    /// the O(deg²) sweep over the dense core stops dominating preprocessing.
    pub(crate) hop_limit: usize,
    /// Average live degree at which the build switches to the dense-core endgame:
    /// the remaining near-clique core is eliminated in minimum-live-degree order on
    /// hash-map adjacency with 1-hop witness checks only (see
    /// `Contractor::contract_rest_by_degree`). `0.0` disables the endgame.
    ///
    /// Grid-like networks (no real highway hierarchy) always densify into such a
    /// core, so on them this fires near the end of every sizeable build; firing
    /// earlier (lower threshold) trades query-time search-space size for build
    /// time. Measured at 69k vertices: threshold 20 ≈ 2× faster build but ≈ 2×
    /// slower queries than threshold 40.
    pub(crate) core_degree_threshold: f64,
}

impl Limits {
    /// The limits of every engine build.
    pub(crate) const DEFAULT: Limits =
        Limits { witness_settle_limit: 256, hop_limit: 8, core_degree_threshold: 40.0 };
}

/// A preprocessed contraction hierarchy over an undirected road network.
///
/// The query arrays are [`PVec`]s: owned vectors when freshly built, zero-copy
/// views into a mapped artifact when loaded from disk (see `crate::persist`).
/// Query code is identical either way.
#[derive(Debug, Clone)]
pub struct ContractionHierarchy {
    /// `rank[v]` = contraction position of `v` (higher = more important).
    pub(crate) rank: PVec<u32>,
    /// Upward adjacency in CSR form: for each vertex, edges (original and shortcuts) to
    /// higher-ranked vertices only.
    pub(crate) up_offsets: PVec<u32>,
    pub(crate) up_targets: PVec<NodeId>,
    pub(crate) up_weights: PVec<Weight>,
    /// Total number of shortcuts added during preprocessing (reported by experiments).
    pub(crate) num_shortcuts: usize,
}

impl ContractionHierarchy {
    /// Builds the hierarchy.
    pub fn build(graph: &Graph) -> Self {
        Self::build_with_limits(graph, Limits::DEFAULT)
    }

    /// Builds the hierarchy under explicit witness and endgame limits.
    pub(crate) fn build_with_limits(graph: &Graph, limits: Limits) -> Self {
        let n = graph.num_vertices();
        let mut c = Contractor::new(graph, limits);

        // Initial priorities, computed once; afterwards a priority is only recomputed
        // when a neighbour's contraction marked it dirty.
        let mut queue: MinHeap<NodeId, i64> = MinHeap::with_capacity(n);
        for v in 0..n as NodeId {
            let p = c.compute_priority(v);
            c.priority[v as usize] = p;
            queue.push(p, v);
        }

        while let Some((key, v)) = queue.pop() {
            if c.contracted[v as usize] {
                continue;
            }
            // Stale duplicate from an earlier requeue: the authoritative entry carries
            // the cached priority.
            if key != c.priority[v as usize] {
                continue;
            }
            if c.dirty[v as usize] {
                c.dirty[v as usize] = false;
                let p = c.compute_priority(v);
                c.priority[v as usize] = p;
                // Requeue whenever the priority rose and any other candidate remains;
                // contracting on a momentarily-empty queue or on a tie with the next
                // best entry is only allowed when the priority did not rise.
                if p > key && !queue.is_empty() {
                    queue.push(p, v);
                    continue;
                }
            }
            c.contract(v);

            // Check whether the dense core has been reached (the live-degree sum is
            // maintained incrementally, so this is O(1) per contraction); if so,
            // freeze the current cached priorities as the contraction order and
            // contract the rest without further recomputation.
            if limits.core_degree_threshold > 0.0
                && c.average_live_degree() > limits.core_degree_threshold
            {
                c.contract_rest_by_degree();
                break;
            }
        }

        c.into_hierarchy()
    }

    /// Number of vertices in the hierarchy.
    pub fn num_vertices(&self) -> usize {
        self.rank.len()
    }

    /// Contraction rank of a vertex (higher = contracted later = more important).
    #[inline]
    pub fn rank(&self, v: NodeId) -> u32 {
        self.rank[v as usize]
    }

    /// Vertices sorted by decreasing importance (highest rank first).
    pub fn vertices_by_importance(&self) -> Vec<NodeId> {
        let mut order: Vec<NodeId> = (0..self.rank.len() as NodeId).collect();
        order.sort_unstable_by_key(|&v| std::cmp::Reverse(self.rank[v as usize]));
        order
    }

    /// Number of shortcut edges added during preprocessing.
    pub fn num_shortcuts(&self) -> usize {
        self.num_shortcuts
    }

    /// Upward edges (towards higher-ranked vertices) of `v`.
    #[inline]
    pub fn upward_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        let lo = self.up_offsets[v as usize] as usize;
        let hi = self.up_offsets[v as usize + 1] as usize;
        self.up_targets[lo..hi].iter().copied().zip(self.up_weights[lo..hi].iter().copied())
    }

    /// Approximate resident size in bytes (Figure 8(a) / 26(b)).
    pub fn memory_bytes(&self) -> usize {
        self.rank.len() * 4
            + self.up_offsets.len() * 4
            + self.up_targets.len() * 4
            + self.up_weights.len() * std::mem::size_of::<Weight>()
    }
}

/// One shortcut that contracting a vertex would create: indices into the neighbour
/// list, the via weight, and whether inserting it creates a *new* edge (as opposed to
/// lowering an existing parallel edge — which [`upsert_edge`] does not count).
#[derive(Clone, Copy)]
struct PlannedShortcut {
    from: usize,
    to: usize,
    weight: Weight,
    is_new: bool,
}

/// All mutable state of one CH build. Keeping it in one struct lets the priority
/// estimate ([`Contractor::compute_priority`]) and the actual contraction
/// ([`Contractor::contract`]) share the same shortcut plan, so the edge-difference
/// term counts exactly the edges a contraction would insert.
struct Contractor {
    limits: Limits,
    /// Working adjacency among not-yet-contracted vertices. Starts as a copy of the
    /// input graph and gains shortcuts as contraction proceeds. Invariant: the list of
    /// a live vertex only contains live vertices (lists are pruned the moment a
    /// neighbour is contracted), which keeps witness searches fast.
    adjacency: Vec<Vec<(NodeId, Weight)>>,
    contracted: Vec<bool>,
    deleted_neighbours: Vec<i64>,
    /// Hierarchy-depth estimate: `level[t] >= level[v] + 1` for every contracted
    /// neighbour `v` of `t`. Penalising deep vertices keeps the hierarchy shallow,
    /// which directly bounds upward search-space sizes at query time.
    level: Vec<i64>,
    /// Cached node priorities; exact unless `dirty` is set.
    priority: Vec<i64>,
    /// Set for the surviving neighbours of every contracted vertex; cleared when the
    /// priority is lazily recomputed.
    dirty: Vec<bool>,
    rank: Vec<u32>,
    next_rank: u32,
    num_shortcuts: usize,
    remaining: usize,
    /// Σ over live vertices of their live adjacency-list lengths, maintained
    /// incrementally so [`Contractor::average_live_degree`] is O(1).
    live_edge_halves: usize,
    scratch: WitnessScratch,
    plan: Vec<PlannedShortcut>,
}

impl Contractor {
    fn new(graph: &Graph, limits: Limits) -> Self {
        let n = graph.num_vertices();
        let adjacency: Vec<Vec<(NodeId, Weight)>> =
            (0..n).map(|v| graph.neighbors(v as NodeId).collect()).collect();
        let live_edge_halves = adjacency.iter().map(|edges| edges.len()).sum();
        Contractor {
            limits,
            adjacency,
            contracted: vec![false; n],
            deleted_neighbours: vec![0i64; n],
            level: vec![0i64; n],
            priority: vec![0i64; n],
            dirty: vec![false; n],
            rank: vec![0u32; n],
            next_rank: 0,
            num_shortcuts: 0,
            remaining: n,
            live_edge_halves,
            scratch: WitnessScratch::new(n),
            plan: Vec::new(),
        }
    }

    fn live_neighbours(&self, v: NodeId) -> Vec<(NodeId, Weight)> {
        self.adjacency[v as usize]
            .iter()
            .copied()
            .filter(|&(t, _)| !self.contracted[t as usize])
            .collect()
    }

    /// Priority of a vertex: edge difference plus a spreading term. The edge
    /// difference uses the same "would a new edge actually be inserted" rule as
    /// [`Contractor::contract`], so the estimate never systematically overcounts
    /// pairs whose shortcut merely lowers an existing parallel edge.
    ///
    /// The estimate plans with a shallow, degree-scaled witness-Dijkstra budget
    /// (from [`ESTIMATE_SETTLE_LIMIT`]): priorities are recomputed ~2-3× per vertex
    /// under lazy updates, and running the full staged search each time made
    /// ordering — not contraction — the dominant build cost at 250k+ vertices.
    /// Witnesses missed by the shallow budget are missed uniformly across
    /// candidates, so the *ranking* barely moves; the thorough passes still run
    /// exactly once per vertex, inside [`Contractor::contract`].
    fn compute_priority(&mut self, v: NodeId) -> i64 {
        let neighbours = self.live_neighbours(v);
        let estimate_settle = (ESTIMATE_SETTLE_LIMIT * 24 / neighbours.len().max(24)).max(8);
        plan_contraction(
            v,
            &neighbours,
            &self.adjacency,
            &self.contracted,
            &self.limits,
            estimate_settle,
            &mut self.scratch,
            &mut self.plan,
        );
        let new_edges = self.plan.iter().filter(|s| s.is_new).count();
        let edge_difference = new_edges as i64 - neighbours.len() as i64;
        edge_difference * 4
            + self.deleted_neighbours[v as usize] * DELETED_NEIGHBOUR_WEIGHT
            + self.level[v as usize] * LEVEL_WEIGHT
    }

    /// Contracts `v`: assigns its rank, prunes and dirties its surviving neighbours,
    /// plans the shortcuts with the full staged witness passes (the one thorough
    /// plan each vertex gets), and inserts them.
    fn contract(&mut self, v: NodeId) {
        self.rank[v as usize] = self.next_rank;
        self.next_rank += 1;
        self.contracted[v as usize] = true;
        self.remaining -= 1;
        let neighbours = self.live_neighbours(v);
        // v's own (all-live, by the adjacency invariant) list leaves the live set.
        self.live_edge_halves -= self.adjacency[v as usize].len();
        let child_level = self.level[v as usize] + 1;
        for &(t, _) in &neighbours {
            self.deleted_neighbours[t as usize] += 1;
            self.level[t as usize] = self.level[t as usize].max(child_level);
            // Neighbour-only invalidation: only these vertices' priorities changed.
            self.dirty[t as usize] = true;
            // Prune edges into the contracted core so witness searches and priority
            // estimates only ever scan live vertices. Without this the working lists
            // of late-contracted hubs grow without bound and preprocessing
            // degenerates from seconds to hours on ~10k-vertex networks.
            let contracted = &self.contracted;
            let before = self.adjacency[t as usize].len();
            self.adjacency[t as usize].retain(|&(x, _)| !contracted[x as usize]);
            self.live_edge_halves -= before - self.adjacency[t as usize].len();
        }
        // Each settle of the witness Dijkstra scans an adjacency list, so its
        // budget is scaled down as the live degree grows — full strength at planar
        // degrees, 1/d-scaled inside the densifying core, where long searches
        // rarely find witnesses anyway (weaker searches only add shortcuts).
        let settle_limit = if self.limits.witness_settle_limit == 0 {
            0
        } else {
            (self.limits.witness_settle_limit * 24 / neighbours.len().max(24)).max(16)
        };
        plan_contraction(
            v,
            &neighbours,
            &self.adjacency,
            &self.contracted,
            &self.limits,
            settle_limit,
            &mut self.scratch,
            &mut self.plan,
        );
        for i in 0..self.plan.len() {
            let s = self.plan[i];
            let (u, _) = neighbours[s.from];
            let (t, _) = neighbours[s.to];
            if upsert_edge(&mut self.adjacency[u as usize], t, s.weight) {
                self.num_shortcuts += 1;
                self.live_edge_halves += 1;
                debug_assert!(s.is_new);
            } else {
                debug_assert!(!s.is_new);
            }
            if upsert_edge(&mut self.adjacency[t as usize], u, s.weight) {
                self.live_edge_halves += 1;
            }
        }
    }

    /// Average degree over the not-yet-contracted vertices, from the incrementally
    /// maintained live-edge sum (exact, because live adjacency lists are pruned
    /// eagerly — see the invariant on `adjacency`).
    fn average_live_degree(&self) -> f64 {
        if self.remaining == 0 {
            return 0.0;
        }
        self.live_edge_halves as f64 / self.remaining as f64
    }

    /// Dense-core endgame: contracts the remaining vertices in (lazily updated)
    /// minimum-live-degree order — the classic fill-reducing elimination rule — with
    /// the 1-hop direct-edge pass as the only witness check, on hash-map adjacency.
    ///
    /// Two cost cliffs motivate the switch. Long witness searches almost never find
    /// a witness inside a near-clique core but still cost `O(budget · degree)` per
    /// source (measured: the last ~1.1k vertices of a 69k build took 41 of 56
    /// seconds under full witness planning). And the linear-scan `upsert_edge` turns
    /// clique fill-in into an `O(degree³)` memory sweep per contraction once degrees
    /// reach the hundreds (measured: ~16 of 50 seconds at 290k). Hash-map adjacency
    /// makes every pair test and insertion O(1), and witness misses only ever add
    /// shortcuts — exactness is untouched (`core_contraction_fallback_stays_exact`).
    fn contract_rest_by_degree(&mut self) {
        let n = self.contracted.len();
        // Move the live core onto hash-map adjacency (weights keyed by neighbour).
        let mut maps: Vec<CoreMap> = vec![CoreMap::default(); n];
        let mut queue: MinHeap<NodeId, i64> = MinHeap::with_capacity(self.remaining);
        for (v, map) in maps.iter_mut().enumerate() {
            if self.contracted[v] {
                continue;
            }
            map.extend(self.adjacency[v].iter().copied());
            queue.push(map.len() as i64, v as NodeId);
        }
        while let Some((key, v)) = queue.pop() {
            if self.contracted[v as usize] {
                continue;
            }
            // Lazy update: degrees drift as the core contracts; requeue on mismatch
            // so the pop order tracks the live minimum degree.
            let degree = maps[v as usize].len() as i64;
            if key != degree {
                queue.push(degree, v);
                continue;
            }
            self.rank[v as usize] = self.next_rank;
            self.next_rank += 1;
            self.contracted[v as usize] = true;
            self.remaining -= 1;
            let neighbours: Vec<(NodeId, Weight)> = maps[v as usize].drain().collect();
            // v's surviving edges all point at later-contracted (higher-ranked)
            // vertices — exactly the upward list `into_hierarchy` reads.
            self.adjacency[v as usize] = neighbours.clone();
            for &(t, _) in &neighbours {
                maps[t as usize].remove(&v);
            }
            for (i, &(u, wu)) in neighbours.iter().enumerate() {
                for &(t, wt) in neighbours.iter().skip(i + 1) {
                    let via = wu + wt;
                    // 1-hop witness: an existing u–t edge at most as heavy as the
                    // via-v path; otherwise insert or lower the shortcut (counted as
                    // a shortcut only when the edge is new, as in `upsert_edge`).
                    let entry = maps[u as usize].entry(t);
                    let is_new = matches!(entry, std::collections::hash_map::Entry::Vacant(_));
                    let slot = entry.or_insert(Weight::MAX);
                    if via < *slot {
                        *slot = via;
                        maps[t as usize].insert(u, via);
                    }
                    if is_new {
                        self.num_shortcuts += 1;
                    }
                }
            }
        }
    }

    /// Assembles the upward graph: for each vertex keep only edges towards
    /// higher-ranked vertices (original edges plus every shortcut accumulated in the
    /// working adjacency).
    fn into_hierarchy(self) -> ContractionHierarchy {
        let n = self.rank.len();
        let mut up_offsets = vec![0u32; n + 1];
        let mut up_targets = Vec::new();
        let mut up_weights = Vec::new();
        for v in 0..n {
            // Deduplicate parallel edges keeping the smallest weight.
            let mut ups: Vec<(NodeId, Weight)> = self.adjacency[v]
                .iter()
                .copied()
                .filter(|&(t, _)| self.rank[t as usize] > self.rank[v])
                .collect();
            ups.sort_unstable_by_key(|&(t, w)| (t, w));
            ups.dedup_by_key(|&mut (t, _)| t);
            for (t, w) in ups {
                up_targets.push(t);
                up_weights.push(w);
            }
            up_offsets[v + 1] = up_targets.len() as u32;
        }

        ContractionHierarchy {
            rank: self.rank.into(),
            up_offsets: up_offsets.into(),
            up_targets: up_targets.into(),
            up_weights: up_weights.into(),
            num_shortcuts: self.num_shortcuts,
        }
    }
}

/// The dense-core endgame performs hundreds of millions of single-`u32`-key map
/// operations; SipHash (std's default, DoS-resistant) is wasted on internal vertex
/// ids, so the core maps use a Fibonacci multiplicative hasher instead (~5 ns →
/// sub-ns per probe).
#[derive(Default, Clone)]
struct FibonacciHasher(u64);

impl std::hash::Hasher for FibonacciHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0 = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type CoreMap = HashMap<NodeId, Weight, std::hash::BuildHasherDefault<FibonacciHasher>>;

/// Settle budget of the witness Dijkstras inside priority *estimates*: deep enough
/// that the edge-difference ranking stays close to the thorough plan's, small enough
/// that the ~2-3 estimates per vertex stop dominating the build (estimates with the
/// full budget made ordering cost 3× contraction cost at 250k+ vertices).
const ESTIMATE_SETTLE_LIMIT: usize = 32;

/// Decides, for every unordered pair of live neighbours of `v`, whether contracting
/// `v` requires a shortcut, writing the required shortcuts into `plan`.
///
/// Pairs are resolved by staged witness passes sharing one invariant — a witness is a
/// path avoiding `v` and all contracted vertices of weight `<=` the via-`v` weight:
///
/// 1. **1-hop**: a direct `u`–`t` edge (one scan of `u`'s list, which also records
///    whether a parallel edge exists for the `is_new` insertion rule);
/// 2. **2-hop**: a bounded scan of `u`'s neighbours' lists;
/// 3. **bounded Dijkstra**: multi-target, hop-limited ([`Limits::hop_limit`]) and
///    settle-limited, run once per *source* neighbour for all still-unresolved
///    targets.
///
/// `dijkstra_settle_limit` is the pass-3 settle budget; `0` skips the Dijkstras
/// entirely, and priority estimates pass a shallow budget derived from
/// [`ESTIMATE_SETTLE_LIMIT`]. A [`Limits::witness_settle_limit`] of `0` also
/// disables pass 2 (its budget scales with the limit).
#[allow(clippy::too_many_arguments)]
fn plan_contraction(
    v: NodeId,
    neighbours: &[(NodeId, Weight)],
    adjacency: &[Vec<(NodeId, Weight)>],
    contracted: &[bool],
    limits: &Limits,
    dijkstra_settle_limit: usize,
    scratch: &mut WitnessScratch,
    plan: &mut Vec<PlannedShortcut>,
) {
    plan.clear();
    if neighbours.len() < 2 {
        return;
    }
    for (i, &(u, wu)) in neighbours.iter().enumerate().take(neighbours.len() - 1) {
        // Register the targets: all later neighbours, each with its via-v cutoff.
        scratch.begin_targets();
        let mut unresolved = 0usize;
        for &(t, wt) in neighbours.iter().skip(i + 1) {
            scratch.add_target(t, wu + wt);
            unresolved += 1;
        }

        // Pass 1 (1-hop): direct edges from u. Also records existing parallel edges,
        // which is what makes the planned `is_new` flag match upsert_edge exactly.
        for &(x, w) in &adjacency[u as usize] {
            if let Some(via) = scratch.target_cutoff(x) {
                scratch.record_direct(x, w);
                if w <= via && scratch.mark_witnessed(x) {
                    unresolved -= 1;
                }
            }
        }

        // Pass 2 (2-hop): scan u's neighbours' lists, bounded so a dense core cannot
        // turn this into a quadratic sweep.
        if unresolved > 0 && limits.witness_settle_limit > 0 {
            let mut budget = limits.witness_settle_limit * 16;
            'two_hop: for &(x, wx) in &adjacency[u as usize] {
                if x == v || contracted[x as usize] {
                    continue;
                }
                for &(y, wxy) in &adjacency[x as usize] {
                    if budget == 0 {
                        break 'two_hop;
                    }
                    budget -= 1;
                    if let Some(via) = scratch.target_cutoff(y) {
                        if wx + wxy <= via && scratch.mark_witnessed(y) {
                            unresolved -= 1;
                            if unresolved == 0 {
                                break 'two_hop;
                            }
                        }
                    }
                }
            }
        }

        // Pass 3: bounded multi-target Dijkstra for the remaining pairs (skipped in
        // the cheap estimation mode).
        if unresolved > 0 && dijkstra_settle_limit > 0 {
            witness_search(
                u,
                v,
                unresolved,
                adjacency,
                contracted,
                limits,
                dijkstra_settle_limit,
                scratch,
            );
        }

        for (j, &(t, wt)) in neighbours.iter().enumerate().skip(i + 1) {
            if !scratch.is_witnessed(t) {
                plan.push(PlannedShortcut {
                    from: i,
                    to: j,
                    weight: wu + wt,
                    is_new: !scratch.has_direct(t),
                });
            }
        }
    }
}

/// Inserts edge `(t, w)` or lowers the weight of an existing parallel edge. Returns true
/// when a new edge was inserted. Keeping the working lists free of parallel edges is
/// what keeps witness searches (which scan these lists) fast.
fn upsert_edge(edges: &mut Vec<(NodeId, Weight)>, t: NodeId, w: Weight) -> bool {
    match edges.iter_mut().find(|(x, _)| *x == t) {
        Some(entry) => {
            if w < entry.1 {
                entry.1 = w;
            }
            false
        }
        None => {
            edges.push((t, w));
            true
        }
    }
}

/// Reusable witness-search state: full-size arrays reset via touched lists, so each
/// search costs no allocations regardless of how many millions of searches
/// preprocessing performs.
struct WitnessScratch {
    /// Tentative distances of the current Dijkstra pass.
    dist: Vec<Weight>,
    /// Edge count of the path behind `dist` (for the hop limit).
    hops: Vec<u32>,
    touched: Vec<NodeId>,
    heap: MinHeap<NodeId>,
    /// Per-target state for the current source: via-v cutoff, direct-edge flag,
    /// witnessed flag. `INFINITY` in `via` means "not a target".
    via: Vec<Weight>,
    direct: Vec<bool>,
    witnessed: Vec<bool>,
    target_touched: Vec<NodeId>,
    /// Largest via cutoff among the current targets (global search bound).
    max_cutoff: Weight,
}

impl WitnessScratch {
    fn new(n: usize) -> Self {
        WitnessScratch {
            dist: vec![INFINITY; n],
            hops: vec![0; n],
            touched: Vec::new(),
            heap: MinHeap::new(),
            via: vec![INFINITY; n],
            direct: vec![false; n],
            witnessed: vec![false; n],
            target_touched: Vec::new(),
            max_cutoff: 0,
        }
    }

    fn reset_search(&mut self) {
        for &t in &self.touched {
            self.dist[t as usize] = INFINITY;
        }
        self.touched.clear();
        self.heap.clear();
    }

    fn begin_targets(&mut self) {
        for &t in &self.target_touched {
            self.via[t as usize] = INFINITY;
            self.direct[t as usize] = false;
            self.witnessed[t as usize] = false;
        }
        self.target_touched.clear();
        self.max_cutoff = 0;
    }

    fn add_target(&mut self, t: NodeId, cutoff: Weight) {
        self.via[t as usize] = cutoff;
        self.target_touched.push(t);
        self.max_cutoff = self.max_cutoff.max(cutoff);
    }

    /// The via cutoff of `t`, or `None` when `t` is not a current target.
    #[inline]
    fn target_cutoff(&self, t: NodeId) -> Option<Weight> {
        let via = self.via[t as usize];
        (via != INFINITY).then_some(via)
    }

    #[inline]
    fn record_direct(&mut self, t: NodeId, _w: Weight) {
        self.direct[t as usize] = true;
    }

    #[inline]
    fn has_direct(&self, t: NodeId) -> bool {
        self.direct[t as usize]
    }

    /// Marks `t` witnessed; returns true when it was not already.
    #[inline]
    fn mark_witnessed(&mut self, t: NodeId) -> bool {
        !std::mem::replace(&mut self.witnessed[t as usize], true)
    }

    #[inline]
    fn is_witnessed(&self, t: NodeId) -> bool {
        self.witnessed[t as usize]
    }
}

/// Bounded multi-target Dijkstra from `source` avoiding `skip` and all contracted
/// vertices, resolving the still-unwitnessed targets registered in `scratch`.
///
/// The global bound is checked **before** a popped vertex is matched against the
/// targets, so the `d > cutoff` semantics are identical for targets and non-targets:
/// once the frontier passes the largest via cutoff, no remaining target can have a
/// witness, and the search stops. A target settled within the bound is a witness iff
/// its distance is `<= ` its own via cutoff (same `<=` rule as the 1-/2-hop passes).
#[allow(clippy::too_many_arguments)]
fn witness_search(
    source: NodeId,
    skip: NodeId,
    mut unresolved: usize,
    adjacency: &[Vec<(NodeId, Weight)>],
    contracted: &[bool],
    limits: &Limits,
    settle_limit: usize,
    scratch: &mut WitnessScratch,
) {
    scratch.reset_search();
    scratch.dist[source as usize] = 0;
    scratch.hops[source as usize] = 0;
    scratch.touched.push(source);
    scratch.heap.push(0, source);
    let cutoff = scratch.max_cutoff;
    let mut settled = 0usize;
    while let Some((d, x)) = scratch.heap.pop() {
        if d > scratch.dist[x as usize] {
            continue;
        }
        // Bound check first: beyond the largest via cutoff nothing can be a witness,
        // so a target settled past the bound must not be reported as one.
        if d > cutoff {
            break;
        }
        if scratch.target_cutoff(x).is_some_and(|via| d <= via) && scratch.mark_witnessed(x) {
            unresolved -= 1;
            if unresolved == 0 {
                break;
            }
        }
        settled += 1;
        if settled > settle_limit {
            break;
        }
        if limits.hop_limit > 0 && scratch.hops[x as usize] >= limits.hop_limit as u32 {
            continue;
        }
        for &(t, w) in &adjacency[x as usize] {
            if t == skip || contracted[t as usize] {
                continue;
            }
            let nd = d + w;
            if nd <= cutoff && nd < scratch.dist[t as usize] {
                if scratch.dist[t as usize] == INFINITY {
                    scratch.touched.push(t);
                }
                scratch.dist[t as usize] = nd;
                scratch.hops[t as usize] = scratch.hops[x as usize] + 1;
                scratch.heap.push(nd, t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::{EdgeWeightKind, GraphBuilder};
    use rnknn_pathfinding::dijkstra;

    #[test]
    fn distances_match_dijkstra_on_random_networks() {
        for kind in [EdgeWeightKind::Distance, EdgeWeightKind::Time] {
            let net = RoadNetwork::generate(&GeneratorConfig::new(800, 21));
            let g = net.graph(kind);
            let ch = ContractionHierarchy::build(&g);
            let n = g.num_vertices() as NodeId;
            for i in 0..60u32 {
                let s = (i * 131) % n;
                let t = (i * 467 + 11) % n;
                assert_eq!(ch.distance(s, t), dijkstra::distance(&g, s, t), "{s}->{t} {kind:?}");
            }
        }
    }

    #[test]
    fn handles_trivial_and_disconnected_graphs() {
        let mut b = GraphBuilder::with_vertices(5);
        b.add_edge(0, 1, 3);
        b.add_edge(1, 2, 4);
        let g = b.build();
        let ch = ContractionHierarchy::build(&g);
        assert_eq!(ch.distance(0, 2), 7);
        assert_eq!(ch.distance(0, 0), 0);
        assert_eq!(ch.distance(0, 4), INFINITY);
        assert_eq!(ch.num_vertices(), 5);
    }

    #[test]
    fn ranks_form_a_permutation() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(300, 2));
        let g = net.graph(EdgeWeightKind::Distance);
        let ch = ContractionHierarchy::build(&g);
        let mut seen = vec![false; g.num_vertices()];
        for v in g.vertices() {
            let r = ch.rank(v) as usize;
            assert!(!seen[r]);
            seen[r] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let order = ch.vertices_by_importance();
        assert_eq!(order.len(), g.num_vertices());
        assert_eq!(ch.rank(order[0]) as usize, g.num_vertices() - 1);
    }

    #[test]
    fn shortcut_count_and_memory_reported() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(500, 9));
        let g = net.graph(EdgeWeightKind::Distance);
        let ch = ContractionHierarchy::build(&g);
        assert!(ch.memory_bytes() > 0);
        // Shortcut count should be modest relative to the number of edges on a planar
        // network.
        assert!(ch.num_shortcuts() < g.num_edges() * 4);
    }

    #[test]
    fn hop_limited_witnesses_stay_exact() {
        // Even a 1-hop limit (only direct edges and single-edge Dijkstra steps can
        // certify witnesses) must stay exact — it merely inserts more shortcuts.
        let net = RoadNetwork::generate(&GeneratorConfig::new(600, 77));
        let g = net.graph(EdgeWeightKind::Time);
        let tight = Limits { hop_limit: 1, ..Limits::DEFAULT };
        let ch = ContractionHierarchy::build_with_limits(&g, tight);
        let unlimited = Limits { hop_limit: 0, ..Limits::DEFAULT };
        let ch_unlimited = ContractionHierarchy::build_with_limits(&g, unlimited);
        let n = g.num_vertices() as NodeId;
        for i in 0..50u32 {
            let s = (i * 211) % n;
            let t = (i * 401 + 3) % n;
            let want = dijkstra::distance(&g, s, t);
            assert_eq!(ch.distance(s, t), want, "hop-limited {s}->{t}");
            assert_eq!(ch_unlimited.distance(s, t), want, "unlimited {s}->{t}");
        }
        // Tighter witness passes can only add shortcuts, never remove them.
        assert!(ch.num_shortcuts() >= ch_unlimited.num_shortcuts());
    }

    #[test]
    fn core_contraction_fallback_stays_exact() {
        // A threshold below the planar average degree forces contract-rest-by-rank
        // almost immediately; distances must still be exact.
        let net = RoadNetwork::generate(&GeneratorConfig::new(700, 5));
        let g = net.graph(EdgeWeightKind::Distance);
        let eager = Limits { core_degree_threshold: 0.1, ..Limits::DEFAULT };
        let ch = ContractionHierarchy::build_with_limits(&g, eager);
        let n = g.num_vertices() as NodeId;
        for i in 0..50u32 {
            let s = (i * 97) % n;
            let t = (i * 307 + 13) % n;
            assert_eq!(ch.distance(s, t), dijkstra::distance(&g, s, t), "{s}->{t}");
        }
        // The fallback still assigns every rank exactly once.
        let mut seen = vec![false; g.num_vertices()];
        for v in g.vertices() {
            seen[ch.rank(v) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn disabled_fallback_and_tiny_settle_limit_stay_exact() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(400, 31));
        let g = net.graph(EdgeWeightKind::Distance);
        let limits =
            Limits { witness_settle_limit: 2, core_degree_threshold: 0.0, ..Limits::DEFAULT };
        let ch = ContractionHierarchy::build_with_limits(&g, limits);
        let n = g.num_vertices() as NodeId;
        for i in 0..40u32 {
            let s = (i * 53) % n;
            let t = (i * 173 + 7) % n;
            assert_eq!(ch.distance(s, t), dijkstra::distance(&g, s, t), "{s}->{t}");
        }
    }
}
