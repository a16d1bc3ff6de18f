//! CH queries: pruned bidirectional upward search, reusable upward search spaces.
//!
//! All searches run on a thread-local, stamped scratch (label tables + heaps
//! reused across queries), so a query allocates nothing beyond its result and never
//! touches a `HashMap`. [`ContractionHierarchy::distance`] is a bidirectional upward
//! Dijkstra that stops each direction as soon as its frontier minimum reaches the best
//! meet found so far — on road networks that prunes most of the full upward search
//! space. Materialised [`ChSearchSpace`]s remain available for consumers that reuse a
//! space across many queries (IER-CH's forward space and per-object target labels —
//! see [`crate::ChTargetDirectory`] — and TNR's access-node searches).

use std::cell::RefCell;

use rnknn_graph::{NodeId, Weight, INFINITY};
use rnknn_pathfinding::budget::{QueryBudget, UNLIMITED};
use rnknn_pathfinding::heap::MinHeap;
use rnknn_pathfinding::scratch::Stamped;

use crate::build::ContractionHierarchy;

/// Effort counters of one CH search (feeds the engine's unified `QueryStats`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChSearchCounters {
    /// Vertices settled across both directions.
    pub settled: u64,
    /// Heap pushes across both directions.
    pub heap_pushes: u64,
    /// Settled vertices whose expansion was skipped by stall-on-demand (their label
    /// was dominated via a higher-ranked neighbour, so no shortest up-down path runs
    /// through them at that distance).
    pub stalled: u64,
}

impl ChSearchCounters {
    /// Accumulates another search's counters into this one.
    pub fn accumulate(&mut self, other: ChSearchCounters) {
        self.settled += other.settled;
        self.heap_pushes += other.heap_pushes;
        self.stalled += other.stalled;
    }
}

/// Reusable per-thread search state: one [`Stamped`] label table and one heap per
/// direction, so "clearing" between queries is a stamp bump instead of an O(n)
/// wipe.
struct QueryScratch {
    /// Tentative distances per direction (0 = forward, 1 = backward); absent
    /// means "unvisited this query".
    label: [Stamped<Weight>; 2],
    heap: [MinHeap<NodeId>; 2],
}

impl QueryScratch {
    fn new() -> Self {
        QueryScratch {
            label: [Stamped::default(), Stamped::default()],
            heap: [MinHeap::new(), MinHeap::new()],
        }
    }

    /// Starts a new query over a hierarchy of `n` vertices.
    fn begin(&mut self, n: usize) {
        for side in 0..2 {
            self.label[side].begin(n);
            self.heap[side].clear();
        }
    }
}

/// Tentative distance of `v` in one direction's table ([`INFINITY`] when unvisited
/// this query).
#[inline]
fn label(labels: &Stamped<Weight>, v: NodeId) -> Weight {
    labels.get(v as usize).unwrap_or(INFINITY)
}

thread_local! {
    static SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::new());
}

const FORWARD: usize = 0;
const BACKWARD: usize = 1;

impl ContractionHierarchy {
    /// Stall-on-demand test for a vertex just popped at distance `d`: when some
    /// upward neighbour `y` already carries a (tentative, hence valid upper-bound)
    /// label with `dist(y) + w(x, y) <= d`, every up-down path through `x` at
    /// distance `d` is dominated by one through `y`, so `x`'s edges need not be
    /// relaxed. Tentative labels suffice for safety — they only ever overestimate,
    /// and the `<=` comparison errs on stalling exactly dominated labels.
    #[inline]
    fn is_stalled(&self, labels: &Stamped<Weight>, x: NodeId, d: Weight) -> bool {
        self.stall_on_demand
            && self.upward_edges(x).any(|(y, w)| {
                let dy = label(labels, y);
                dy != INFINITY && dy + w <= d
            })
    }

    /// Exact network distance between `s` and `t`.
    pub fn distance(&self, s: NodeId, t: NodeId) -> Weight {
        self.distance_with_counters(s, t).0
    }

    /// [`ContractionHierarchy::distance`] plus search-effort counters.
    ///
    /// Runs a bidirectional upward Dijkstra; a direction stops as soon as its frontier
    /// minimum is at least the best meet found so far (every later meet in that
    /// direction would cost at least the frontier minimum), so neither search space is
    /// materialised in full.
    pub fn distance_with_counters(&self, s: NodeId, t: NodeId) -> (Weight, ChSearchCounters) {
        let mut counters = ChSearchCounters::default();
        if s == t {
            return (0, counters);
        }
        let best = SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.begin(self.num_vertices());
            let QueryScratch { label: [forward, backward], heap } = scratch;
            forward.set(s as usize, 0);
            heap[FORWARD].push(0, s);
            backward.set(t as usize, 0);
            heap[BACKWARD].push(0, t);
            counters.heap_pushes += 2;

            let mut best = INFINITY;
            loop {
                // Advance the direction with the smaller frontier, pruning any
                // direction whose frontier minimum can no longer improve the meet.
                let side = match (heap[FORWARD].peek_key(), heap[BACKWARD].peek_key()) {
                    (Some(f), Some(b)) => {
                        if f.min(b) >= best {
                            break;
                        }
                        if f <= b {
                            FORWARD
                        } else {
                            BACKWARD
                        }
                    }
                    (Some(f), None) => {
                        if f >= best {
                            break;
                        }
                        FORWARD
                    }
                    (None, Some(b)) => {
                        if b >= best {
                            break;
                        }
                        BACKWARD
                    }
                    (None, None) => break,
                };
                let (mine, theirs) = if side == FORWARD {
                    (&mut *forward, &*backward)
                } else {
                    (&mut *backward, &*forward)
                };
                let Some((d, x)) = heap[side].pop() else { break };
                if d > label(mine, x) {
                    continue;
                }
                counters.settled += 1;
                let other = label(theirs, x);
                if other != INFINITY {
                    best = best.min(d + other);
                }
                // Stall-on-demand: a dominated label cannot start a shortest
                // up-segment, so its edges are never relaxed (the meet update above
                // is still safe — the label is a valid upper bound).
                if self.is_stalled(mine, x, d) {
                    counters.stalled += 1;
                    continue;
                }
                for (y, w) in self.upward_edges(x) {
                    let nd = d + w;
                    // A label at distance >= best can never improve the meet (both
                    // directions only ascend), so don't even push it.
                    if nd < best && nd < label(mine, y) {
                        mine.set(y as usize, nd);
                        heap[side].push(nd, y);
                        counters.heap_pushes += 1;
                    }
                }
            }
            best
        });
        (best, counters)
    }

    /// Computes the complete upward search space from `v`: the set of vertices reachable
    /// by only ascending in rank, with their (upper-bound) distances.
    ///
    /// Search spaces can be cached and intersected with [`ChSearchSpace::meet`]; IER-CH
    /// reuses the query vertex's forward space across all candidate objects, which is
    /// the CH analogue of G-tree's "materialization".
    pub fn upward_search_space(&self, v: NodeId) -> ChSearchSpace {
        self.search_space_impl(v, |_| false).0
    }

    /// [`ContractionHierarchy::upward_search_space`] with stall-on-demand, writing
    /// into a caller-owned space and reusing its entry buffer. This is the one
    /// routine behind both sides of an IER-CH meet: the oracle materialises the
    /// query's forward space once per kNN query into the engine's pooled
    /// [`ChSearchSpace`], and [`crate::ChTargetDirectory`] fills an object's
    /// target label from the same buffer — so repeated queries allocate nothing
    /// once the buffer has grown to the workload's largest space.
    ///
    /// Dominated labels are still *recorded* (they are valid upper bounds) but not
    /// *expanded*, which shrinks the materialised space the same way stalling
    /// shrinks the bidirectional search (−27% settled at 69k). Safe for meets
    /// against any upward search from the other side, stalled or not, for the
    /// usual stalling reason: a path through a pruned label is matched by one
    /// through the dominating neighbour, which both sides do explore.
    ///
    /// Honors a [`QueryBudget`] (one step per settled vertex; an exhausted budget
    /// leaves a truncated — still sorted — space behind).
    pub fn upward_search_space_stalled_into(
        &self,
        v: NodeId,
        space: &mut ChSearchSpace,
        budget: &QueryBudget,
    ) -> ChSearchCounters {
        self.search_space_into_impl(v, |_| false, self.stall_on_demand, space, budget)
    }

    /// [`ContractionHierarchy::upward_search_space_stopping_at`] writing into a
    /// caller-owned space (the TNR per-candidate backward search reuses one buffer
    /// across the whole candidate loop). `stop` must not issue CH queries of its own.
    pub fn upward_search_space_stopping_at_into(
        &self,
        v: NodeId,
        stop: impl Fn(NodeId) -> bool,
        space: &mut ChSearchSpace,
    ) -> ChSearchCounters {
        self.search_space_into_impl(v, |x| x != v && stop(x), false, space, &UNLIMITED)
    }

    /// Upward search space from `v` that does not expand any vertex for which `stop`
    /// returns true (the vertex itself is still settled). Used by Transit Node Routing,
    /// whose "local" searches stop at transit nodes.
    ///
    /// `stop` must not issue CH queries of its own (the thread-local search scratch is
    /// held while it runs).
    pub fn upward_search_space_stopping_at(
        &self,
        v: NodeId,
        stop: impl Fn(NodeId) -> bool,
    ) -> ChSearchSpace {
        self.search_space_impl(v, |x| x != v && stop(x)).0
    }

    /// [`ContractionHierarchy::upward_search_space_stopping_at`] plus search-effort
    /// counters, so TNR's per-query local searches feed the engine's unified
    /// `QueryStats` like every other CH consumer.
    pub fn upward_search_space_stopping_at_with_counters(
        &self,
        v: NodeId,
        stop: impl Fn(NodeId) -> bool,
    ) -> (ChSearchSpace, ChSearchCounters) {
        self.search_space_impl(v, |x| x != v && stop(x))
    }

    fn search_space_impl(
        &self,
        v: NodeId,
        stop: impl Fn(NodeId) -> bool,
    ) -> (ChSearchSpace, ChSearchCounters) {
        let mut space = ChSearchSpace::new();
        let counters = self.search_space_into_impl(v, stop, false, &mut space, &UNLIMITED);
        (space, counters)
    }

    fn search_space_into_impl(
        &self,
        v: NodeId,
        stop: impl Fn(NodeId) -> bool,
        stall: bool,
        space: &mut ChSearchSpace,
        budget: &QueryBudget,
    ) -> ChSearchCounters {
        let mut counters = ChSearchCounters::default();
        let entries = &mut space.entries;
        entries.clear();
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.begin(self.num_vertices());
            let QueryScratch { label: [labels, _], heap: [heap, _] } = scratch;
            labels.set(v as usize, 0);
            heap.push(0, v);
            counters.heap_pushes += 1;
            while let Some((d, x)) = heap.pop() {
                if d > label(labels, x) {
                    continue;
                }
                entries.push((x, d));
                if !budget.charge(1) {
                    break;
                }
                if stop(x) {
                    continue;
                }
                if stall && self.is_stalled(labels, x, d) {
                    counters.stalled += 1;
                    continue;
                }
                for (y, w) in self.upward_edges(x) {
                    let nd = d + w;
                    if nd < label(labels, y) {
                        labels.set(y as usize, nd);
                        heap.push(nd, y);
                        counters.heap_pushes += 1;
                    }
                }
            }
        });
        counters.settled = entries.len() as u64;
        entries.sort_unstable_by_key(|&(x, _)| x);
        counters
    }
}

/// A materialised CH upward search space: vertex ids with upper-bound distances, sorted
/// by vertex id for merge-joins.
#[derive(Debug, Clone, Default)]
pub struct ChSearchSpace {
    entries: Vec<(NodeId, Weight)>,
}

impl ChSearchSpace {
    /// Creates an empty space, ready to be filled by
    /// [`ContractionHierarchy::upward_search_space_stalled_into`] (no
    /// allocation until then; the entry buffer is reused across refills).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of settled vertices.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty (never the case for spaces produced from a valid vertex).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The settled vertices with their distances, sorted by vertex id.
    pub fn entries(&self) -> &[(NodeId, Weight)] {
        &self.entries
    }

    /// Minimum of `d_self(x) + d_other(x)` over all vertices `x` present in both spaces;
    /// this is the exact network distance when the two spaces come from a forward and a
    /// backward CH search.
    pub fn meet(&self, other: &ChSearchSpace) -> Weight {
        let mut best = INFINITY;
        let mut i = 0;
        let mut j = 0;
        let a = &self.entries;
        let b = &other.entries;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    best = best.min(a[i].1 + b[j].1);
                    i += 1;
                    j += 1;
                }
            }
        }
        best
    }

    /// Distance recorded for a specific vertex, if it was settled.
    pub fn distance_to(&self, v: NodeId) -> Option<Weight> {
        self.entries.binary_search_by_key(&v, |&(x, _)| x).ok().map(|i| self.entries[i].1)
    }
}

/// A dense, stamped projection of one [`ChSearchSpace`] over the vertex set:
/// `get(v)` is one array load instead of a binary search over the sorted entries.
/// Re-pointing the projection at a new space ([`ChSpaceProjection::set_from`]) costs
/// `O(|space|)` — one stamp bump plus one write per entry — so a pooled projection
/// makes the IER-CH candidate loop's meet tests O(1) without ever wiping the
/// n-sized table.
#[derive(Debug, Default)]
pub struct ChSpaceProjection {
    label: Stamped<Weight>,
}

impl ChSpaceProjection {
    /// Creates an empty projection (no allocation until the first `set_from`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Points the projection at `space` over a graph of `n` vertices, invalidating
    /// the previous space's entries.
    pub fn set_from(&mut self, n: usize, space: &ChSearchSpace) {
        self.label.begin(n);
        for &(v, d) in space.entries() {
            self.label.set(v as usize, d);
        }
    }

    /// The projected distance of `v` ([`INFINITY`] when `v` is not in the space).
    #[inline]
    pub fn get(&self, v: NodeId) -> Weight {
        self.label.get(v as usize).unwrap_or(INFINITY)
    }

    /// Bounded meet of the projected (forward) space with a target's upward space
    /// `label`: `min(bound, min_v get(v) + d_v)` in one linear pass — the exact
    /// network distance when that is `< bound`, `bound` otherwise. This is the
    /// IER-CH candidate step: one array load per label entry, no heap, no search.
    pub fn meet_within(&self, label: &[(NodeId, Weight)], bound: Weight) -> Weight {
        // An absent vertex reads `INFINITY` (= `Weight::MAX / 4`), so the sum
        // cannot wrap and simply loses the `min`.
        label.iter().fold(bound, |best, &(v, d)| best.min(self.get(v) + d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ContractionHierarchy;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::EdgeWeightKind;
    use rnknn_pathfinding::dijkstra;

    #[test]
    fn cached_search_space_reuse_matches_fresh_queries() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(600, 33));
        let g = net.graph(EdgeWeightKind::Distance);
        let ch = ContractionHierarchy::build(&g);
        let s: NodeId = 17;
        let space = ch.upward_search_space(s);
        assert!(!space.is_empty());
        assert_eq!(space.distance_to(s), Some(0));
        for t in (0..g.num_vertices() as NodeId).step_by(37) {
            let other = ch.upward_search_space(t);
            assert_eq!(space.meet(&other), dijkstra::distance(&g, s, t), "{s}->{t}");
        }
    }

    #[test]
    fn pruned_bidirectional_distance_matches_full_materialization_meets() {
        // The pruned bidirectional search must produce exactly the meet of the two
        // fully materialised upward spaces — including unreachable pairs.
        for kind in [EdgeWeightKind::Distance, EdgeWeightKind::Time] {
            let net = RoadNetwork::generate(&GeneratorConfig::new(500, 71));
            let g = net.graph(kind);
            let ch = ContractionHierarchy::build(&g);
            let n = g.num_vertices() as NodeId;
            for i in 0..80u32 {
                let s = (i * 379) % n;
                let t = (i * 523 + 7) % n;
                let full = ch.upward_search_space(s).meet(&ch.upward_search_space(t));
                let (pruned, counters) = ch.distance_with_counters(s, t);
                assert_eq!(pruned, full, "{s}->{t} {kind:?}");
                if s != t {
                    assert!(counters.settled > 0);
                    assert!(counters.heap_pushes >= 2);
                }
            }
        }
    }

    #[test]
    fn projection_distance_matches_meet() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(700, 12));
        let g = net.graph(EdgeWeightKind::Time);
        let ch = ContractionHierarchy::build(&g);
        let s: NodeId = 41;
        let forward = ch.upward_search_space(s);
        let mut projection = ChSpaceProjection::new();
        projection.set_from(g.num_vertices(), &forward);
        for t in (0..g.num_vertices() as NodeId).step_by(53) {
            let backward = ch.upward_search_space(t);
            let got = projection.meet_within(backward.entries(), INFINITY);
            assert_eq!(got, forward.meet(&backward), "{s}->{t}");
        }
    }

    #[test]
    fn stalled_space_meets_and_projection_queries_stay_exact() {
        // The stall-pruned spaces (dominated labels recorded, not expanded) must
        // still meet at the exact distance when *both* sides are stalled — the
        // forward space projected, the target's scanned against it, which is the
        // IER-CH label path — and stalling must not enlarge a space.
        for kind in [EdgeWeightKind::Distance, EdgeWeightKind::Time] {
            let net = RoadNetwork::generate(&GeneratorConfig::new(800, 64));
            let g = net.graph(kind);
            let ch = ContractionHierarchy::build(&g);
            let n = g.num_vertices() as NodeId;
            let (mut space, mut target) = (ChSearchSpace::new(), ChSearchSpace::new());
            let mut projection = ChSpaceProjection::new();
            for s in [2u32, n / 3, n - 7] {
                let stalled = ch.upward_search_space_stalled_into(s, &mut space, &UNLIMITED);
                let full = ch.upward_search_space(s);
                assert!(space.len() <= full.len(), "stalling enlarged the space from {s}");
                assert!(stalled.settled <= full.len() as u64);
                projection.set_from(g.num_vertices(), &space);
                for t in (0..n).step_by(29) {
                    let exact = dijkstra::distance(&g, s, t);
                    ch.upward_search_space_stalled_into(t, &mut target, &UNLIMITED);
                    let got = projection.meet_within(target.entries(), INFINITY);
                    assert_eq!(got, exact, "{s}->{t} {kind:?}");
                }
            }
        }
    }

    #[test]
    fn bounded_projection_distance_is_exact_below_the_bound() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(600, 52));
        let g = net.graph(EdgeWeightKind::Distance);
        let ch = ContractionHierarchy::build(&g);
        let s: NodeId = 11;
        let mut projection = ChSpaceProjection::new();
        projection.set_from(g.num_vertices(), &ch.upward_search_space(s));
        let mut target = ChSearchSpace::new();
        for t in (0..g.num_vertices() as NodeId).step_by(41) {
            let exact = dijkstra::distance(&g, s, t);
            ch.upward_search_space_stalled_into(t, &mut target, &UNLIMITED);
            for bound in [0, exact / 2, exact, exact.saturating_add(1), INFINITY] {
                let got = projection.meet_within(target.entries(), bound);
                if exact < bound {
                    assert_eq!(got, exact, "{s}->{t} bound={bound}");
                } else {
                    assert!(got >= bound, "{s}->{t} bound={bound} got={got}");
                }
            }
        }
    }

    #[test]
    fn space_into_reuses_the_buffer_and_matches_fresh_spaces() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(500, 21));
        let g = net.graph(EdgeWeightKind::Distance);
        // With stall-on-demand off, the stalled `_into` variant materialises the
        // full space, so it must equal the allocating one entry for entry.
        let config = crate::ChConfig { stall_on_demand: false, ..Default::default() };
        let ch = ContractionHierarchy::build_with_config(&g, &config);
        let mut space = ChSearchSpace::new();
        assert!(space.is_empty());
        for v in (0..g.num_vertices() as NodeId).step_by(31) {
            let counters = ch.upward_search_space_stalled_into(v, &mut space, &UNLIMITED);
            let fresh = ch.upward_search_space(v);
            assert_eq!(space.entries(), fresh.entries(), "space from {v}");
            assert_eq!(counters.settled, fresh.len() as u64);
            // The stopping variant agrees with its allocating counterpart too.
            let threshold = (g.num_vertices() as u32 * 9) / 10;
            let mut stopped = ChSearchSpace::new();
            ch.upward_search_space_stopping_at_into(v, |x| ch.rank(x) >= threshold, &mut stopped);
            let stopped_fresh = ch.upward_search_space_stopping_at(v, |x| ch.rank(x) >= threshold);
            assert_eq!(stopped.entries(), stopped_fresh.entries());
        }
    }

    #[test]
    fn stopping_search_space_is_a_subset() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(400, 4));
        let g = net.graph(EdgeWeightKind::Distance);
        let ch = ContractionHierarchy::build(&g);
        let full = ch.upward_search_space(5);
        let threshold = (g.num_vertices() as u32 * 9) / 10;
        let stopped = ch.upward_search_space_stopping_at(5, |v| ch.rank(v) >= threshold);
        assert!(stopped.len() <= full.len());
        // Every stopped entry's distance is >= the full space's distance for that vertex.
        for &(v, d) in stopped.entries() {
            let full_d = full.distance_to(v).expect("present in full space");
            assert!(d >= full_d);
        }
    }

    #[test]
    fn scratch_is_reusable_across_hierarchies_of_different_sizes() {
        // The thread-local scratch grows monotonically; interleaving queries against a
        // large and a small hierarchy on the same thread must not leak state.
        let big = RoadNetwork::generate(&GeneratorConfig::new(900, 1));
        let small = RoadNetwork::generate(&GeneratorConfig::new(150, 2));
        let gb = big.graph(EdgeWeightKind::Distance);
        let gs = small.graph(EdgeWeightKind::Distance);
        let chb = ContractionHierarchy::build(&gb);
        let chs = ContractionHierarchy::build(&gs);
        for i in 0..30u32 {
            let sb = (i * 101) % gb.num_vertices() as NodeId;
            let tb = (i * 211 + 5) % gb.num_vertices() as NodeId;
            let ss = (i * 31) % gs.num_vertices() as NodeId;
            let ts = (i * 47 + 3) % gs.num_vertices() as NodeId;
            assert_eq!(chb.distance(sb, tb), dijkstra::distance(&gb, sb, tb));
            assert_eq!(chs.distance(ss, ts), dijkstra::distance(&gs, ss, ts));
        }
    }
}
