//! Compressed-sparse-row road-network graph.

use crate::point::{Point, Rect};
use crate::{NodeId, Weight};
use rnknn_persist::PVec;

/// Which physical quantity the edge weights of a [`Graph`] represent.
///
/// The paper evaluates both travel-distance graphs (Sections 7.2–7.4) and travel-time
/// graphs (Section 7.5 / Appendix B); the Euclidean lower bound used by IER and DisBrw
/// differs between the two (see [`EuclideanBound`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeWeightKind {
    /// Edge weights are travel distances; the Euclidean distance between two vertices is
    /// directly a lower bound on their network distance.
    Distance,
    /// Edge weights are travel times; Euclidean distance divided by the maximum speed
    /// `S = max(d_i / w_i)` is a lower bound on network distance.
    Time,
}

/// An in-memory, undirected road network stored in compressed-sparse-row form.
///
/// The adjacency lists of all vertices are concatenated into single `targets` /
/// `weights` arrays, with `offsets[v]..offsets[v+1]` delimiting vertex `v`'s list.
/// This is the cache-friendly layout the paper's Section 6.2 ("Graph Representation")
/// recommends over per-vertex allocations. The three CSR arrays are owned when
/// the graph is built and zero-copy views into the artifact when it is loaded.
#[derive(Debug)]
pub struct Graph {
    pub(crate) offsets: PVec<u32>,
    pub(crate) targets: PVec<NodeId>,
    pub(crate) weights: PVec<Weight>,
    coords: Vec<Point>,
    kind: EdgeWeightKind,
    /// Lazily computed [`EuclideanBound`] (an `O(edges)` scan — recomputing it per
    /// query was the hidden dominant cost of every IER/DisBrw query on large
    /// graphs, so it is cached on first use).
    bound_cache: std::sync::OnceLock<EuclideanBound>,
}

impl Clone for Graph {
    fn clone(&self) -> Self {
        Graph {
            offsets: self.offsets.clone(),
            targets: self.targets.clone(),
            weights: self.weights.clone(),
            coords: self.coords.clone(),
            kind: self.kind,
            bound_cache: std::sync::OnceLock::new(),
        }
    }
}

impl Graph {
    /// Assembles a graph directly from CSR arrays (owned `Vec`s or loaded views).
    /// `offsets` must have length `coords.len() + 1` and reference every entry of
    /// `targets` / `weights` exactly once.
    pub fn from_csr(
        offsets: impl Into<PVec<u32>>,
        targets: impl Into<PVec<NodeId>>,
        weights: impl Into<PVec<Weight>>,
        coords: Vec<Point>,
    ) -> Self {
        let (offsets, targets, weights) = (offsets.into(), targets.into(), weights.into());
        debug_assert_eq!(offsets.len(), coords.len() + 1);
        debug_assert_eq!(targets.len(), weights.len());
        debug_assert_eq!(*offsets.last().unwrap_or(&0) as usize, targets.len());
        Graph {
            offsets,
            targets,
            weights,
            coords,
            kind: EdgeWeightKind::Distance,
            bound_cache: std::sync::OnceLock::new(),
        }
    }

    /// Tags the graph with the physical meaning of its edge weights (and drops any
    /// cached Euclidean bound, which depends on the kind).
    pub fn with_kind(mut self, kind: EdgeWeightKind) -> Self {
        self.kind = kind;
        self.bound_cache = std::sync::OnceLock::new();
        self
    }

    /// The physical meaning of the edge weights.
    pub fn kind(&self) -> EdgeWeightKind {
        self.kind
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.coords.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Number of directed arcs (twice the number of undirected edges).
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Iterates over `(neighbor, edge_weight)` pairs of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        self.targets[lo..hi].iter().copied().zip(self.weights[lo..hi].iter().copied())
    }

    /// Neighbor ids of vertex `v` as a slice (no weights).
    #[inline]
    pub fn neighbor_ids(&self, v: NodeId) -> &[NodeId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// The weight of the edge `(u, v)`, if it exists.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        self.neighbors(u).find(|&(t, _)| t == v).map(|(_, w)| w)
    }

    /// Coordinates of vertex `v`.
    #[inline]
    pub fn coord(&self, v: NodeId) -> Point {
        self.coords[v as usize]
    }

    /// All vertex coordinates, indexed by vertex id.
    pub fn coords(&self) -> &[Point] {
        &self.coords
    }

    /// Euclidean distance between the coordinates of two vertices.
    #[inline]
    pub fn euclidean(&self, u: NodeId, v: NodeId) -> f64 {
        self.coords[u as usize].distance(&self.coords[v as usize])
    }

    /// Bounding rectangle of all vertex coordinates.
    pub fn bounding_rect(&self) -> Rect {
        let mut r = Rect::empty();
        for p in &self.coords {
            r.expand_point(*p);
        }
        r
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = NodeId> {
        0..self.coords.len() as NodeId
    }

    /// Iterator over each undirected edge once, as `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u).filter(move |&(v, _)| u < v).map(move |(v, w)| (u, v, w))
        })
    }

    /// An estimate of the resident size of the graph in bytes (the INE "index size" of
    /// Figure 8(a), which is just the graph itself).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.targets.len() * std::mem::size_of::<NodeId>()
            + self.weights.len() * std::mem::size_of::<Weight>()
            + self.coords.len() * std::mem::size_of::<Point>()
    }

    /// Builds the Euclidean lower-bound helper appropriate for this graph's weight kind
    /// (Section 7.5, "Extending IER"). The underlying `O(edges)` scan runs once per
    /// graph; subsequent calls return the cached value, so per-query construction of
    /// IER searches and oracles is cheap.
    pub fn euclidean_bound(&self) -> EuclideanBound {
        *self.bound_cache.get_or_init(|| self.compute_euclidean_bound())
    }

    fn compute_euclidean_bound(&self) -> EuclideanBound {
        match self.kind {
            EdgeWeightKind::Distance => {
                // Edge weights are proportional to physical length; find the scale that
                // converts Euclidean units into weight units without overestimating.
                // scale = min over edges of w / d  would under-estimate only if some edge
                // is shorter than the Euclidean distance between its endpoints, which
                // cannot happen for travel distances; we still compute it defensively so
                // the bound stays admissible for arbitrary inputs (e.g. unit-weight test
                // graphs).
                let mut scale = f64::INFINITY;
                for (u, v, w) in self.edges() {
                    let d = self.euclidean(u, v);
                    if d > 0.0 {
                        scale = scale.min(w as f64 / d);
                    }
                }
                if !scale.is_finite() {
                    scale = 0.0;
                }
                EuclideanBound { scale }
            }
            EdgeWeightKind::Time => {
                // S = max(d_i / w_i) is the maximum speed; Euclid / S lower-bounds time.
                let mut max_speed = 0.0f64;
                for (u, v, w) in self.edges() {
                    let d = self.euclidean(u, v);
                    if w > 0 {
                        max_speed = max_speed.max(d / w as f64);
                    }
                }
                let scale = if max_speed > 0.0 { 1.0 / max_speed } else { 0.0 };
                EuclideanBound { scale }
            }
        }
    }

    /// Checks whether the graph is connected (all vertices reachable from vertex 0).
    pub fn is_connected(&self) -> bool {
        if self.num_vertices() == 0 {
            return true;
        }
        let mut seen = vec![false; self.num_vertices()];
        let mut stack = vec![0 as NodeId];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(v) = stack.pop() {
            for &t in self.neighbor_ids(v) {
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    count += 1;
                    stack.push(t);
                }
            }
        }
        count == self.num_vertices()
    }
}

/// Converts Euclidean coordinate distance into an admissible lower bound on network
/// distance, for either travel-distance or travel-time graphs.
#[derive(Debug, Clone, Copy)]
pub struct EuclideanBound {
    scale: f64,
}

impl EuclideanBound {
    /// A bound that always returns 0 (admissible for any graph; used when geometry is
    /// meaningless, e.g. unit-weight test graphs).
    pub fn trivial() -> Self {
        EuclideanBound { scale: 0.0 }
    }

    /// The scale factor applied to Euclidean distances.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Lower bound (in edge-weight units) on the network distance between two points.
    #[inline]
    pub fn lower_bound(&self, a: Point, b: Point) -> Weight {
        (a.distance(&b) * self.scale).floor() as Weight
    }

    /// Lower bound from a raw Euclidean distance already computed by the caller.
    #[inline]
    pub fn lower_bound_from_euclidean(&self, euclidean: f64) -> Weight {
        (euclidean * self.scale).floor() as Weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn line_graph() -> Graph {
        // 0 -- 1 -- 2 -- 3 laid out on the x axis, weight = distance.
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_vertex(Point::new(i as f64 * 10.0, 0.0));
        }
        b.add_edge(0, 1, 10);
        b.add_edge(1, 2, 10);
        b.add_edge(2, 3, 10);
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let g = line_graph();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.edge_weight(1, 2), Some(10));
        assert_eq!(g.edge_weight(0, 3), None);
        assert!(g.is_connected());
        assert_eq!(g.edges().count(), 3);
        assert!(g.memory_bytes() > 0);
    }

    #[test]
    fn euclidean_bound_distance_graph_is_admissible() {
        let g = line_graph();
        let b = g.euclidean_bound();
        // distance between 0 and 3 is 30 in both metrics; bound must not exceed it.
        let lb = b.lower_bound(g.coord(0), g.coord(3));
        assert!(lb <= 30);
        assert!(lb >= 29); // scale is 1.0 here, floor() may round down
    }

    #[test]
    fn euclidean_bound_time_graph_divides_by_max_speed() {
        let mut b = GraphBuilder::new();
        b.add_vertex(Point::new(0.0, 0.0));
        b.add_vertex(Point::new(100.0, 0.0));
        b.add_vertex(Point::new(200.0, 0.0));
        // edge 0-1: 100 units at speed 10 -> weight 10; edge 1-2: speed 5 -> weight 20.
        b.add_edge(0, 1, 10);
        b.add_edge(1, 2, 20);
        let g = b.build().with_kind(EdgeWeightKind::Time);
        let eb = g.euclidean_bound();
        // Max speed is 10, so lower bound for 200 units of Euclidean distance is 20,
        // which is <= the true travel time of 30.
        assert_eq!(eb.lower_bound(g.coord(0), g.coord(2)), 20);
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut b = GraphBuilder::with_vertices(4);
        b.add_edge(0, 1, 1);
        b.add_edge(2, 3, 1);
        let g = b.build();
        assert!(!g.is_connected());
    }
}
