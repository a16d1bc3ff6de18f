//! Incremental construction of [`crate::Graph`] instances from edge lists.

use crate::graph::Graph;
use crate::point::Point;
use crate::{NodeId, Weight};

/// Collects vertices and undirected edges and produces a CSR [`Graph`].
///
/// Duplicate edges between the same pair of vertices are kept only with their minimum
/// weight; self loops are dropped (neither occurs in road networks but both occur easily
/// in randomly generated test inputs).
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    coords: Vec<Point>,
    edges: Vec<(NodeId, NodeId, Weight)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with `n` vertices placed at the origin. Useful for tests that do
    /// not care about geometry.
    pub fn with_vertices(n: usize) -> Self {
        GraphBuilder { coords: vec![Point::default(); n], edges: Vec::new() }
    }

    /// Adds a vertex with the given coordinates and returns its id.
    pub fn add_vertex(&mut self, p: Point) -> NodeId {
        let id = self.coords.len() as NodeId;
        self.coords.push(p);
        id
    }

    /// Adds an undirected edge of weight `w` between `u` and `v`.
    ///
    /// Zero-weight edges are clamped to weight 1 so that Dijkstra invariants (strictly
    /// positive weights) hold throughout the workspace.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: Weight) {
        if u == v {
            return;
        }
        self.edges.push((u, v, w.max(1)));
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.coords.len()
    }

    /// Number of undirected edges added so far (before deduplication).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Builds the CSR graph.
    pub fn build(mut self) -> Graph {
        let n = self.coords.len();
        // Deduplicate parallel edges, keeping the smallest weight.
        for e in &mut self.edges {
            if e.0 > e.1 {
                std::mem::swap(&mut e.0, &mut e.1);
            }
        }
        self.edges.sort_unstable();
        self.edges.dedup_by(|a, b| {
            if a.0 == b.0 && a.1 == b.1 {
                b.2 = b.2.min(a.2);
                true
            } else {
                false
            }
        });

        let mut degree = vec![0u32; n];
        for &(u, v, _) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0u32);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let m = acc as usize;
        let mut targets = vec![0 as NodeId; m];
        let mut weights = vec![0 as Weight; m];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for &(u, v, w) in &self.edges {
            let cu = cursor[u as usize] as usize;
            targets[cu] = v;
            weights[cu] = w;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize] as usize;
            targets[cv] = u;
            weights[cv] = w;
            cursor[v as usize] += 1;
        }
        Graph::from_csr(offsets, targets, weights, self.coords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_csr_with_symmetric_edges() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(Point::new(0.0, 0.0));
        let c = b.add_vertex(Point::new(1.0, 0.0));
        let d = b.add_vertex(Point::new(2.0, 0.0));
        b.add_edge(a, c, 5);
        b.add_edge(c, d, 7);
        let g = b.build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(c), 2);
        let n: Vec<_> = g.neighbors(a).collect();
        assert_eq!(n, vec![(c, 5)]);
        let n: Vec<_> = g.neighbors(c).collect();
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn deduplicates_parallel_edges_keeping_minimum() {
        let mut b = GraphBuilder::with_vertices(2);
        b.add_edge(0, 1, 9);
        b.add_edge(1, 0, 4);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0).next(), Some((1, 4)));
    }

    #[test]
    fn drops_self_loops_and_clamps_zero_weights() {
        let mut b = GraphBuilder::with_vertices(2);
        b.add_edge(0, 0, 3);
        b.add_edge(0, 1, 0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0).next(), Some((1, 1)));
    }
}
