//! Dijkstra searches in the flavours needed across the workspace.
//!
//! All variants use the no-decrease-key [`MinHeap`] (the paper's recommendation) and
//! are label-setting, so they are exact on non-negative weights:
//! [`rnknn_graph::GraphBuilder`] produces strictly positive ones, zeros can arrive
//! through `Graph::from_csr` or a loaded artifact (docs/CORRECTNESS.md).

use rnknn_graph::{Graph, NodeId, Weight, INFINITY};

use crate::budget::{QueryBudget, UNLIMITED};
use crate::heap::MinHeap;
use crate::scratch::SearchScratch;
use crate::settled::{BitSettled, SettledContainer};

/// Operation counters reported by the instrumented searches; used by the experiment
/// harness to reproduce the paper's auxiliary series (e.g. vertices settled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Vertices removed from the priority queue and settled.
    pub settled: usize,
    /// Entries pushed onto the priority queue.
    pub pushes: usize,
    /// Edges relaxed (distance updates attempted).
    pub relaxed: usize,
}

/// Point-to-point network distance from `source` to `target`, or [`INFINITY`] when
/// unreachable. Terminates as soon as `target` is settled.
pub fn distance(graph: &Graph, source: NodeId, target: NodeId) -> Weight {
    distance_with_stats_in(graph, source, target, &mut SearchScratch::new()).0
}

/// [`distance`] running on a reusable [`SearchScratch`] and returning operation
/// counters: [`distance_within_with_stats_in`] with no bound and no budget.
pub fn distance_with_stats_in(
    graph: &Graph,
    source: NodeId,
    target: NodeId,
    scratch: &mut SearchScratch,
) -> (Weight, SearchStats) {
    distance_within_with_stats_in(graph, source, target, INFINITY, scratch, &UNLIMITED)
}

/// The point-to-point search: the exact distance when it is `< bound`, otherwise
/// `bound` itself (so [`INFINITY`] when `bound == INFINITY` and `target` is
/// unreachable). The search stops as soon as the frontier minimum reaches `bound`
/// and never pushes labels `>= bound`, so a caller that only needs to know whether
/// a vertex is closer than its current k-th candidate (IER's candidate loop) pays
/// a fraction of the full search. After a warm-up search on `scratch`, repeated
/// queries allocate nothing (the IER Dijkstra-oracle hot path).
///
/// One step of `budget` is charged per settled vertex; an exhausted budget
/// saturates the answer to `bound` (the caller detects truncation via
/// [`QueryBudget::is_exhausted`]).
pub fn distance_within_with_stats_in(
    graph: &Graph,
    source: NodeId,
    target: NodeId,
    bound: Weight,
    scratch: &mut SearchScratch,
    budget: &QueryBudget,
) -> (Weight, SearchStats) {
    let mut stats = SearchStats::default();
    if bound == 0 {
        return (bound, stats);
    }
    if source == target {
        return (0, stats);
    }
    scratch.begin(graph.num_vertices());
    scratch.relax(source, 0);
    stats.pushes += 1;
    while let Some((d, v)) = scratch.heap.pop() {
        if d >= bound {
            return (bound, stats);
        }
        if !scratch.visited.settle(v) {
            continue;
        }
        stats.settled += 1;
        if v == target {
            return (d, stats);
        }
        if !budget.charge(1) {
            break;
        }
        for (t, w) in graph.neighbors(v) {
            stats.relaxed += 1;
            let nd = d + w;
            if nd < bound && scratch.relax(t, nd) {
                stats.pushes += 1;
            }
        }
    }
    // Labels >= bound were pruned, so an exhausted queue only proves the distance
    // is not < bound.
    (bound, stats)
}

/// Full single-source shortest-path distances from `source` to every vertex.
pub fn single_source(graph: &Graph, source: NodeId) -> Vec<Weight> {
    let n = graph.num_vertices();
    let mut dist = vec![INFINITY; n];
    let mut settled = BitSettled::new(n);
    let mut heap: MinHeap<NodeId> = MinHeap::new();
    dist[source as usize] = 0;
    heap.push(0, source);
    while let Some((d, v)) = heap.pop() {
        if !settled.settle(v) {
            continue;
        }
        for (t, w) in graph.neighbors(v) {
            let nd = d + w;
            if nd < dist[t as usize] {
                dist[t as usize] = nd;
                heap.push(nd, t);
            }
        }
    }
    dist
}

/// Single-source shortest-path tree: returns `(distances, parents)` where `parents[v]`
/// is the predecessor of `v` on a shortest path from `source` (or `v` itself for the
/// source and unreachable vertices). Used by the SILC colouring scheme.
pub fn sssp_tree(graph: &Graph, source: NodeId) -> (Vec<Weight>, Vec<NodeId>) {
    let n = graph.num_vertices();
    let mut dist = vec![INFINITY; n];
    let mut parent: Vec<NodeId> = (0..n as NodeId).collect();
    let mut settled = BitSettled::new(n);
    let mut heap: MinHeap<NodeId> = MinHeap::new();
    dist[source as usize] = 0;
    heap.push(0, source);
    while let Some((d, v)) = heap.pop() {
        if !settled.settle(v) {
            continue;
        }
        for (t, w) in graph.neighbors(v) {
            let nd = d + w;
            if nd < dist[t as usize] {
                dist[t as usize] = nd;
                parent[t as usize] = v;
                heap.push(nd, t);
            }
        }
    }
    (dist, parent)
}

/// A compact adjacency (CSR) over the local vertex ids `0..n` of a reduced graph — a
/// partition leaf's induced subgraph, or the border graph of an internal partition
/// node — built once per distance matrix while constructing G-tree and
/// shared read-only by all its row searches.
#[derive(Debug, Clone)]
pub struct LocalGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<Weight>,
}

impl LocalGraph {
    /// Builds the CSR over `n` vertices from an edge list in which every `(a, b, w)` is
    /// one directed edge (callers list both directions of an undirected one).
    pub fn from_edges(n: usize, edges: &[(u32, u32, Weight)]) -> LocalGraph {
        let mut offsets = vec![0u32; n + 1];
        for &(a, _, _) in edges {
            offsets[a as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; edges.len()];
        let mut weights = vec![0 as Weight; edges.len()];
        for &(a, b, w) in edges {
            let slot = cursor[a as usize] as usize;
            targets[slot] = b;
            weights[slot] = w;
            cursor[a as usize] += 1;
        }
        LocalGraph { offsets, targets, weights }
    }

    /// Single-source distances from `source` to every local vertex.
    pub fn sssp(&self, source: u32) -> Vec<Weight> {
        let n = self.offsets.len() - 1;
        let mut dist = vec![INFINITY; n];
        let mut heap: MinHeap<u32> = MinHeap::new();
        dist[source as usize] = 0;
        heap.push(0, source);
        while let Some((d, v)) = heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            let lo = self.offsets[v as usize] as usize;
            let hi = self.offsets[v as usize + 1] as usize;
            for e in lo..hi {
                let t = self.targets[e];
                let nd = d + self.weights[e];
                if nd < dist[t as usize] {
                    dist[t as usize] = nd;
                    heap.push(nd, t);
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn_graph::{GraphBuilder, Point};

    /// 0 --1-- 1 --1-- 2
    /// |               |
    /// 10              1
    /// |               |
    /// 3 ------1------ 4
    fn small_graph() -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..5 {
            b.add_vertex(Point::new(i as f64, 0.0));
        }
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(0, 3, 10);
        b.add_edge(2, 4, 1);
        b.add_edge(3, 4, 1);
        b.build()
    }

    #[test]
    fn point_to_point_distances() {
        let g = small_graph();
        assert_eq!(distance(&g, 0, 0), 0);
        assert_eq!(distance(&g, 0, 2), 2);
        assert_eq!(distance(&g, 0, 4), 3);
        assert_eq!(distance(&g, 0, 3), 4); // via 1,2,4 not the weight-10 edge
        assert_eq!(distance(&g, 3, 1), 3);
    }

    #[test]
    fn stats_are_populated() {
        let g = small_graph();
        let (d, stats) = distance_with_stats_in(&g, 0, 4, &mut SearchScratch::new());
        assert_eq!(d, 3);
        assert!(stats.settled >= 3);
        assert!(stats.pushes >= stats.settled);
        assert!(stats.relaxed >= stats.settled);
    }

    #[test]
    fn bounded_distance_is_exact_below_the_bound_and_saturated_above() {
        let g = small_graph();
        let mut scratch = SearchScratch::new();
        let mut within = |g: &Graph, s, t, bound| {
            distance_within_with_stats_in(g, s, t, bound, &mut scratch, &UNLIMITED)
        };
        for (s, t) in [(0u32, 4u32), (3, 1), (0, 3), (0, 2)] {
            let exact = distance(&g, s, t);
            for bound in [0, 1, exact, exact + 1, exact + 100, INFINITY] {
                let (got, _) = within(&g, s, t, bound);
                if exact < bound {
                    assert_eq!(got, exact, "{s}->{t} bound={bound}");
                } else {
                    assert!(got >= bound, "{s}->{t} bound={bound} got={got}");
                }
            }
        }
        // Unreachable stays INFINITY when the bound is INFINITY.
        let mut b = GraphBuilder::with_vertices(3);
        b.add_edge(0, 1, 1);
        let g2 = b.build();
        assert_eq!(within(&g2, 0, 2, INFINITY).0, INFINITY);
        assert_eq!(within(&g2, 0, 2, 10).0, 10);
    }

    #[test]
    fn scratch_reuse_matches_fresh_searches() {
        let g = small_graph();
        let mut scratch = SearchScratch::new();
        for (s, t) in [(0u32, 4u32), (3, 1), (0, 3), (4, 0), (2, 2)] {
            let fresh = distance_with_stats_in(&g, s, t, &mut SearchScratch::new());
            let reused = distance_with_stats_in(&g, s, t, &mut scratch);
            assert_eq!(fresh, reused, "{s}->{t}");
        }
    }

    #[test]
    fn unreachable_returns_infinity() {
        let mut b = GraphBuilder::with_vertices(3);
        b.add_edge(0, 1, 1);
        let g = b.build();
        assert_eq!(distance(&g, 0, 2), INFINITY);
        let d = single_source(&g, 0);
        assert_eq!(d[2], INFINITY);
    }

    #[test]
    fn single_source_matches_point_to_point() {
        let g = small_graph();
        let all = single_source(&g, 0);
        for t in 0..5 {
            assert_eq!(all[t as usize], distance(&g, 0, t));
        }
    }

    #[test]
    fn sssp_tree_parents_are_consistent() {
        let g = small_graph();
        let (dist, parent) = sssp_tree(&g, 0);
        assert_eq!(parent[0], 0);
        for v in 1..5u32 {
            if dist[v as usize] == INFINITY {
                continue;
            }
            let p = parent[v as usize];
            let w = g.edge_weight(p, v).expect("parent edge exists");
            assert_eq!(dist[p as usize] + w, dist[v as usize]);
        }
    }

    #[test]
    fn exhausted_budget_truncates_and_latches_while_generous_budget_is_bit_identical() {
        let g = small_graph();
        let mut scratch = SearchScratch::new();
        // A one-step quota (checked every step) cannot reach vertex 3 from 0.
        let budget = QueryBudget::new(None, 1, 1);
        let (d, stats) = distance_within_with_stats_in(&g, 0, 3, INFINITY, &mut scratch, &budget);
        assert_eq!(d, INFINITY);
        assert!(budget.is_exhausted());
        assert!(stats.settled >= 1, "a partial search still reports its work");
        // A generous budget must not change the answer or the operation counts.
        let generous = QueryBudget::with_step_limit(1 << 40);
        for (s, t) in [(0u32, 4u32), (3, 1), (0, 3)] {
            let plain = distance_with_stats_in(&g, s, t, &mut scratch);
            let budgeted =
                distance_within_with_stats_in(&g, s, t, INFINITY, &mut scratch, &generous);
            assert_eq!(plain, budgeted, "{s}->{t}");
        }
        assert!(!generous.is_exhausted());
    }

    #[test]
    fn local_graph_matches_graph_variant() {
        let g = small_graph();
        let edges: Vec<(u32, u32, Weight)> =
            g.vertices().flat_map(|v| g.neighbors(v).map(move |(t, w)| (v, t, w))).collect();
        let local = LocalGraph::from_edges(g.num_vertices(), &edges);
        for s in g.vertices() {
            assert_eq!(local.sssp(s), single_source(&g, s));
        }
        // A vertex without edges, and zero-weight edges, are both fine.
        let sparse = LocalGraph::from_edges(4, &[(0, 2, 0), (2, 0, 0), (2, 3, 4), (3, 2, 4)]);
        assert_eq!(sparse.sssp(0), vec![0, INFINITY, 0, 4]);
        assert_eq!(sparse.sssp(1), vec![INFINITY, 0, INFINITY, INFINITY]);
    }
}
