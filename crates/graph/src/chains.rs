//! Degree-2 chain extraction (Appendix A.1.2).
//!
//! Real road networks contain long runs of degree-2 vertices (shape points along a road
//! with no intersections). When following a shortest path vertex-by-vertex — as the
//! SILC/DisBrw refinement does — there is no decision to make at such vertices: the next
//! vertex is simply "the neighbor we did not come from". The paper exploits this to skip
//! an `O(log |V|)` quadtree lookup per degree-2 vertex and to jump directly to the end of
//! a chain.
//!
//! [`ChainIndex`] precomputes, for every vertex of degree ≤ 2, the two endpoints of the
//! maximal chain containing it, plus a successor function `next(prev, cur)`.

use crate::graph::Graph;
use crate::NodeId;

/// Sentinel meaning "no vertex".
const NONE: NodeId = NodeId::MAX;

/// Precomputed degree-2 chain structure over a graph.
#[derive(Debug, Clone)]
pub struct ChainIndex {
    /// For every vertex: the two chain endpoints if the vertex is interior to a chain
    /// (degree ≤ 2), otherwise `(NONE, NONE)`.
    endpoints: Vec<(NodeId, NodeId)>,
    /// Degree of each vertex, cached for `O(1)` chain tests.
    degree: Vec<u8>,
}

impl ChainIndex {
    /// Builds the chain index for `graph`.
    pub fn build(graph: &Graph) -> ChainIndex {
        let n = graph.num_vertices();
        let degree: Vec<u8> = (0..n).map(|v| graph.degree(v as NodeId).min(255) as u8).collect();
        let mut endpoints = vec![(NONE, NONE); n];

        let mut visited = vec![false; n];
        for v in 0..n as NodeId {
            if degree[v as usize] > 2 || visited[v as usize] || degree[v as usize] == 0 {
                continue;
            }
            // Walk to both ends of the chain containing v.
            let members = collect_chain(graph, &degree, v);
            let first = *members.first().expect("chain has at least one member");
            let last = *members.last().expect("chain has at least one member");
            // Endpoints are the non-chain vertices adjacent to the chain ends (or the
            // chain end itself when the chain dead-ends / forms an isolated cycle).
            let end_a = adjacent_outside(graph, &degree, first).unwrap_or(first);
            let end_b = adjacent_outside(graph, &degree, last).unwrap_or(last);
            for &m in &members {
                visited[m as usize] = true;
                endpoints[m as usize] = (end_a, end_b);
            }
        }
        ChainIndex { endpoints, degree }
    }

    /// True when `v` lies in the interior of a chain (degree ≤ 2).
    #[inline]
    pub fn on_chain(&self, v: NodeId) -> bool {
        self.degree[v as usize] <= 2 && self.endpoints[v as usize].0 != NONE
    }

    /// The two chain endpoints for a chain vertex, or `None` for intersection vertices.
    pub fn endpoints(&self, v: NodeId) -> Option<(NodeId, NodeId)> {
        if self.on_chain(v) {
            Some(self.endpoints[v as usize])
        } else {
            None
        }
    }

    /// Given that the shortest path arrived at chain vertex `cur` from `prev`, returns
    /// the only possible next vertex, or `None` when `cur` is not on a chain interior or
    /// is a dead end.
    pub fn next_on_chain(&self, graph: &Graph, prev: NodeId, cur: NodeId) -> Option<NodeId> {
        if self.degree[cur as usize] > 2 {
            return None;
        }
        let mut other = None;
        for &t in graph.neighbor_ids(cur) {
            if t != prev {
                if other.is_some() {
                    return None; // parallel edges; treat as a decision point
                }
                other = Some(t);
            }
        }
        other
    }

    /// Fraction of vertices with degree ≤ 2 (the statistic the paper quotes: ~50% on the
    /// US network, ~95% on the North-America highway network).
    pub fn low_degree_fraction(&self) -> f64 {
        let low = self.degree.iter().filter(|&&d| d <= 2).count();
        low as f64 / self.degree.len().max(1) as f64
    }

    /// Approximate resident size in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.endpoints.len() * std::mem::size_of::<(NodeId, NodeId)>() + self.degree.len()
    }
}

/// Collects the maximal run of degree-≤2 vertices containing `start`, in path order.
fn collect_chain(graph: &Graph, degree: &[u8], start: NodeId) -> Vec<NodeId> {
    // Walk backwards as far as possible, then forwards collecting.
    let mut first = start;
    let mut prev = NONE;
    let mut guard = 0usize;
    loop {
        guard += 1;
        if guard > degree.len() + 1 {
            break; // isolated cycle of degree-2 vertices; stop anywhere
        }
        let mut stepped = false;
        for &t in graph.neighbor_ids(first) {
            if t != prev && degree[t as usize] <= 2 {
                if t == start {
                    stepped = false; // looped around a cycle
                    break;
                }
                prev = first;
                first = t;
                stepped = true;
                break;
            }
        }
        if !stepped {
            break;
        }
    }
    // Forward collection from `first`.
    let mut members = vec![first];
    let mut prev = NONE;
    let mut cur = first;
    let mut guard = 0usize;
    loop {
        guard += 1;
        if guard > degree.len() + 1 {
            break;
        }
        let mut next = None;
        for &t in graph.neighbor_ids(cur) {
            if t != prev && degree[t as usize] <= 2 && !members.contains(&t) {
                next = Some(t);
                break;
            }
        }
        match next {
            Some(t) => {
                members.push(t);
                prev = cur;
                cur = t;
            }
            None => break,
        }
    }
    members
}

/// Returns a neighbor of `v` that is an intersection (degree > 2), if any.
fn adjacent_outside(graph: &Graph, degree: &[u8], v: NodeId) -> Option<NodeId> {
    graph.neighbor_ids(v).iter().copied().find(|&t| degree[t as usize] > 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::point::Point;

    /// Builds a graph shaped like:  hub0 - a - b - c - hub1,  hub0 - hub1 (direct), and a
    /// pendant d off hub1, where a,b,c are degree-2 chain vertices.
    fn chain_graph() -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_vertex(Point::new(i as f64, 0.0));
        }
        // Add extra edges to make hubs degree > 2.
        b.add_vertex(Point::new(0.0, 1.0)); // 6, pendant on hub0
        let hub0 = 0;
        let hub1 = 4;
        b.add_edge(hub0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(3, hub1, 1);
        b.add_edge(hub0, hub1, 10);
        b.add_edge(hub1, 5, 1);
        b.add_edge(hub0, 6, 1);
        b.build()
    }

    #[test]
    fn chain_vertices_point_to_hub_endpoints() {
        let g = chain_graph();
        let idx = ChainIndex::build(&g);
        for v in [1, 2, 3] {
            assert!(idx.on_chain(v));
            let (a, b) = idx.endpoints(v).unwrap();
            let mut ends = [a, b];
            ends.sort_unstable();
            assert_eq!(ends, [0, 4], "vertex {v} endpoints {a},{b}");
        }
        assert!(!idx.on_chain(0));
        assert!(!idx.on_chain(4));
    }

    #[test]
    fn next_on_chain_follows_the_only_exit() {
        let g = chain_graph();
        let idx = ChainIndex::build(&g);
        assert_eq!(idx.next_on_chain(&g, 0, 1), Some(2));
        assert_eq!(idx.next_on_chain(&g, 1, 2), Some(3));
        assert_eq!(idx.next_on_chain(&g, 3, 2), Some(1));
        // hub is a decision point
        assert_eq!(idx.next_on_chain(&g, 3, 4), None);
    }

    #[test]
    fn pendant_vertices_are_chains_too() {
        let g = chain_graph();
        let idx = ChainIndex::build(&g);
        // vertex 5 is a dead end hanging off hub1; vertex 6 off hub0.
        assert!(idx.on_chain(5));
        assert!(idx.on_chain(6));
        let (a, b) = idx.endpoints(5).unwrap();
        assert!(a == 4 || b == 4);
    }

    #[test]
    fn low_degree_fraction_counts_correctly() {
        let g = chain_graph();
        let idx = ChainIndex::build(&g);
        // 5 of 7 vertices have degree <= 2.
        assert!((idx.low_degree_fraction() - 5.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn handles_pure_cycle_without_hanging() {
        let mut b = GraphBuilder::with_vertices(4);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(3, 0, 1);
        let g = b.build();
        let idx = ChainIndex::build(&g);
        // Every vertex is degree 2; the index must terminate and mark them as chains.
        assert!(idx.on_chain(0));
    }
}
