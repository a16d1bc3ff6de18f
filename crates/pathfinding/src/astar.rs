//! A* point-to-point search with an admissible Euclidean heuristic.
//!
//! IER's original formulation computes network distances with Dijkstra; A* with the
//! Euclidean lower bound is the natural first improvement and is included as an
//! additional oracle baseline in the experiment harness.

use rnknn_graph::{EuclideanBound, Graph, NodeId, Weight, INFINITY};

use crate::budget::{QueryBudget, UNLIMITED};
use crate::dijkstra::SearchStats;
use crate::scratch::SearchScratch;

/// Network distance from `source` to `target` using A* guided by `bound`.
///
/// The heuristic must be admissible (never overestimate); [`Graph::euclidean_bound`]
/// produces such a bound for both travel-distance and travel-time graphs.
pub fn astar_distance(
    graph: &Graph,
    bound: &EuclideanBound,
    source: NodeId,
    target: NodeId,
) -> Weight {
    let mut scratch = SearchScratch::new();
    astar_distance_within_with_stats_in(
        graph,
        bound,
        source,
        target,
        INFINITY,
        &mut scratch,
        &UNLIMITED,
    )
    .0
}

/// The A* search: the exact distance when it is `< bound`, otherwise `bound` itself
/// (so [`INFINITY`] when `bound == INFINITY` and `target` is unreachable), plus
/// operation counters in the same [`SearchStats`] vocabulary as the Dijkstra
/// searches, so the IER oracles report comparable effort. Admissibility makes the
/// cut safe: every remaining label's f-score lower-bounds the true distance
/// through it, so once the frontier's f-minimum reaches `bound` no path `< bound`
/// remains.
///
/// Runs on a reusable [`SearchScratch`] (after a warm-up search, repeated queries
/// allocate nothing — the IER A*-oracle hot path): the scratch's distance array
/// stores g-scores, the heap is keyed by f-score. One step of `budget` is charged
/// per settled vertex; an exhausted budget saturates the answer to `bound`.
pub fn astar_distance_within_with_stats_in(
    graph: &Graph,
    bound_fn: &EuclideanBound,
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
    let target_point = graph.coord(target);
    scratch.begin(graph.num_vertices());
    scratch.visited.set_dist(source, 0);
    let h0 = bound_fn.lower_bound(graph.coord(source), target_point);
    if h0 >= bound {
        return (bound, stats);
    }
    scratch.heap.push(h0, source);
    stats.pushes += 1;
    while let Some((f, v)) = scratch.heap.pop() {
        if f >= bound {
            return (bound, stats);
        }
        if !scratch.visited.settle(v) {
            continue;
        }
        stats.settled += 1;
        if v == target {
            return (scratch.visited.dist(v), stats);
        }
        if !budget.charge(1) {
            break;
        }
        let dv = scratch.visited.dist(v);
        for (t, w) in graph.neighbors(v) {
            if scratch.visited.is_settled(t) {
                continue;
            }
            stats.relaxed += 1;
            let nd = dv + w;
            if nd < scratch.visited.dist(t) {
                let h = bound_fn.lower_bound(graph.coord(t), target_point);
                if nd + h >= bound {
                    continue;
                }
                scratch.visited.set_dist(t, nd);
                scratch.heap.push(nd + h, t);
                stats.pushes += 1;
            }
        }
    }
    (bound, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::{EdgeWeightKind, GraphBuilder, Point};

    #[test]
    fn astar_matches_dijkstra_on_a_grid() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(400, 11));
        for kind in [EdgeWeightKind::Distance, EdgeWeightKind::Time] {
            let g = net.graph(kind);
            let bound = g.euclidean_bound();
            let n = g.num_vertices() as NodeId;
            for i in 0..30u32 {
                let s = (i * 37) % n;
                let t = (i * 101 + 7) % n;
                assert_eq!(
                    astar_distance(&g, &bound, s, t),
                    dijkstra::distance(&g, s, t),
                    "mismatch for {s}->{t} ({kind:?})"
                );
            }
        }
    }

    #[test]
    fn astar_trivial_cases() {
        let mut b = GraphBuilder::new();
        b.add_vertex(Point::new(0.0, 0.0));
        b.add_vertex(Point::new(1.0, 0.0));
        b.add_vertex(Point::new(9.0, 9.0));
        b.add_edge(0, 1, 1);
        let g = b.build();
        let bound = g.euclidean_bound();
        assert_eq!(astar_distance(&g, &bound, 0, 0), 0);
        assert_eq!(astar_distance(&g, &bound, 0, 1), 1);
        assert_eq!(astar_distance(&g, &bound, 0, 2), INFINITY);
    }
}
