//! Object sets and the R-tree object index.

use rnknn_graph::{Graph, NodeId, Point};
use rnknn_spatial::rtree::{BrowserScratch, EuclideanBrowser, RTree, ScratchBrowser};

/// A set of object (POI) vertices on a road network.
#[derive(Debug)]
pub struct ObjectSet {
    /// Sorted, de-duplicated object vertex ids.
    objects: Vec<NodeId>,
    /// One bit per road-network vertex for `O(1)` membership tests.
    bitmap: Vec<u64>,
    /// Human-readable name used in experiment output ("uniform d=0.001", "Hospitals"...).
    name: String,
}

impl Clone for ObjectSet {
    fn clone(&self) -> Self {
        ObjectSet {
            objects: self.objects.clone(),
            bitmap: self.bitmap.clone(),
            name: self.name.clone(),
        }
    }

    /// Field by field, into the target's own buffers (no allocation when they
    /// are large enough).
    fn clone_from(&mut self, source: &Self) {
        self.objects.clone_from(&source.objects);
        self.bitmap.clone_from(&source.bitmap);
        self.name.clone_from(&source.name);
    }
}

impl ObjectSet {
    /// Creates an object set from arbitrary vertex ids (duplicates are removed).
    pub fn new(name: impl Into<String>, num_vertices: usize, mut objects: Vec<NodeId>) -> Self {
        objects.sort_unstable();
        objects.dedup();
        let mut bitmap = vec![0u64; num_vertices.div_ceil(64)];
        for &o in &objects {
            bitmap[(o / 64) as usize] |= 1 << (o % 64);
        }
        ObjectSet { objects, bitmap, name: name.into() }
    }

    /// The set's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Density `|O| / |V|` relative to a road network with `num_vertices` vertices.
    pub fn density(&self, num_vertices: usize) -> f64 {
        self.objects.len() as f64 / num_vertices.max(1) as f64
    }

    /// The sorted object vertex ids.
    pub fn vertices(&self) -> &[NodeId] {
        &self.objects
    }

    /// True when `v` is an object.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.bitmap.get((v / 64) as usize).is_some_and(|w| w & (1 << (v % 64)) != 0)
    }

    /// Adds `v` to the set, returning whether it was newly inserted. `O(log |O|)`
    /// membership check plus a sorted-vector insert — the incremental-update
    /// primitive of the live serving layer.
    pub fn insert(&mut self, v: NodeId) -> bool {
        let word = (v / 64) as usize;
        assert!(word < self.bitmap.len(), "object vertex {v} out of range");
        if self.contains(v) {
            return false;
        }
        self.bitmap[word] |= 1 << (v % 64);
        let at = self.objects.partition_point(|&o| o < v);
        self.objects.insert(at, v);
        true
    }

    /// Removes `v` from the set, returning whether it was present.
    pub fn remove(&mut self, v: NodeId) -> bool {
        if !self.contains(v) {
            return false;
        }
        self.bitmap[(v / 64) as usize] &= !(1 << (v % 64));
        let at = self.objects.partition_point(|&o| o < v);
        debug_assert_eq!(self.objects[at], v);
        self.objects.remove(at);
        true
    }

    /// Size of the raw object list in bytes — the lower bound on object-index storage
    /// that Figure 18(a) labels "INE".
    pub fn memory_bytes(&self) -> usize {
        self.objects.len() * std::mem::size_of::<NodeId>() + self.bitmap.len() * 8
    }
}

/// R-tree over object coordinates: the object index used by IER and by the DB-ENN
/// variant of Distance Browsing.
#[derive(Debug)]
pub struct ObjectRTree {
    rtree: RTree,
}

impl Clone for ObjectRTree {
    fn clone(&self) -> Self {
        ObjectRTree { rtree: self.rtree.clone() }
    }

    /// [`RTree`]'s field-wise copy.
    fn clone_from(&mut self, source: &Self) {
        self.rtree.clone_from(&source.rtree);
    }
}

impl ObjectRTree {
    /// Builds the R-tree for `objects` using coordinates from `graph`.
    pub fn build(graph: &Graph, objects: &ObjectSet) -> Self {
        Self::build_with_capacity(graph, objects, rnknn_spatial::rtree::DEFAULT_NODE_CAPACITY)
    }

    /// Builds the R-tree with an explicit node capacity (tuned in Section 7.4).
    pub fn build_with_capacity(graph: &Graph, objects: &ObjectSet, node_capacity: usize) -> Self {
        let entries: Vec<(Point, u32)> =
            objects.vertices().iter().map(|&o| (graph.coord(o), o)).collect();
        ObjectRTree { rtree: RTree::bulk_load_with_capacity(&entries, node_capacity) }
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.rtree.len()
    }

    /// True when no objects are indexed.
    pub fn is_empty(&self) -> bool {
        self.rtree.is_empty()
    }

    /// The `k` objects nearest to `query` in Euclidean distance.
    pub fn euclidean_knn(&self, query: Point, k: usize) -> Vec<(f64, NodeId)> {
        self.rtree.knn(query, k)
    }

    /// Incremental Euclidean nearest-neighbor browser starting at `query`.
    pub fn browse(&self, query: Point) -> EuclideanBrowser<'_> {
        self.rtree.browse(query)
    }

    /// Indexes a new object incrementally (coordinates come from `graph`). The
    /// caller guards membership — inserting a vertex twice would duplicate it.
    pub fn insert(&mut self, graph: &Graph, v: NodeId) {
        self.rtree.insert(graph.coord(v), v);
    }

    /// Removes an object incrementally, returning whether it was indexed.
    pub fn remove(&mut self, graph: &Graph, v: NodeId) -> bool {
        self.rtree.remove(graph.coord(v), v)
    }

    /// [`ObjectRTree::browse`] on a reusable [`BrowserScratch`] (no per-browse
    /// allocation; the engine's query scratch pool owns one per thread).
    pub fn browse_in<'t, 's>(
        &'t self,
        query: Point,
        scratch: &'s mut BrowserScratch,
    ) -> ScratchBrowser<'t, 's> {
        self.rtree.browse_in(query, scratch)
    }

    /// Resident size in bytes (Figure 18(a)).
    pub fn memory_bytes(&self) -> usize {
        self.rtree.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::EdgeWeightKind;

    #[test]
    fn object_set_membership_and_dedup() {
        let set = ObjectSet::new("test", 100, vec![5, 5, 10, 63, 64, 99]);
        assert_eq!(set.len(), 5);
        assert_eq!(set.name(), "test");
        assert!(set.contains(5));
        assert!(set.contains(64));
        assert!(!set.contains(6));
        assert!(!set.is_empty());
        assert!((set.density(100) - 0.05).abs() < 1e-12);
        assert!(set.memory_bytes() > 0);
    }

    #[test]
    fn rtree_returns_euclidean_neighbors_of_objects_only() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(400, 7));
        let g = net.graph(EdgeWeightKind::Distance);
        let objects = ObjectSet::new(
            "every-seventh",
            g.num_vertices(),
            g.vertices().filter(|v| v % 7 == 0).collect(),
        );
        let rtree = ObjectRTree::build(&g, &objects);
        assert_eq!(rtree.len(), objects.len());
        let q = g.coord(3);
        let knn = rtree.euclidean_knn(q, 5);
        assert_eq!(knn.len(), 5);
        assert!(knn.iter().all(|&(_, o)| objects.contains(o)));
        // Browser yields the same first results.
        let browsed: Vec<NodeId> = rtree.browse(q).take(5).map(|(_, o)| o).collect();
        assert_eq!(browsed, knn.iter().map(|&(_, o)| o).collect::<Vec<_>>());
    }

    /// `clone_from` over another set and tree, after seeded churn on both,
    /// equals `clone`: the same members, name and R-tree browse order.
    #[test]
    fn clone_from_after_churn_equals_clone() {
        use crate::{churn_stream, uniform, ChurnConfig, UpdateEvent};
        let net = RoadNetwork::generate(&GeneratorConfig::new(600, 13));
        let g = net.graph(EdgeWeightKind::Distance);
        let churned = |density: f64, seed: u64| {
            let mut set = uniform(&g, density, seed);
            let mut rtree = ObjectRTree::build(&g, &set);
            let config = ChurnConfig { events: 200, seed, ..Default::default() };
            for event in churn_stream(g.num_vertices(), &set, &config) {
                if event.apply_to(&mut set) {
                    match event {
                        UpdateEvent::Insert(v) => rtree.insert(&g, v),
                        UpdateEvent::Remove(v) => assert!(rtree.remove(&g, v)),
                        UpdateEvent::Move { from, to } => {
                            assert!(rtree.remove(&g, from));
                            rtree.insert(&g, to);
                        }
                    }
                }
            }
            (set, rtree)
        };
        let (source_set, source_tree) = churned(0.05, 1);
        let (mut set, mut rtree) = churned(0.01, 2);
        set.clone_from(&source_set);
        rtree.clone_from(&source_tree);
        let (cloned_set, cloned_tree) = (source_set.clone(), source_tree.clone());
        assert_eq!(set.vertices(), cloned_set.vertices());
        assert_eq!(set.name(), cloned_set.name());
        assert!(g.vertices().all(|v| set.contains(v) == cloned_set.contains(v)));
        assert_eq!(rtree.len(), source_set.len());
        for q in [0, 211, 599] {
            let order = |tree: &ObjectRTree| tree.browse(g.coord(q)).collect::<Vec<_>>();
            assert_eq!(order(&rtree), order(&cloned_tree), "browse from {q}");
        }
    }

    #[test]
    fn empty_object_set_produces_empty_rtree() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(100, 3));
        let g = net.graph(EdgeWeightKind::Distance);
        let set = ObjectSet::new("empty", g.num_vertices(), vec![]);
        let rtree = ObjectRTree::build(&g, &set);
        assert!(rtree.is_empty());
        assert!(rtree.euclidean_knn(g.coord(0), 3).is_empty());
    }
}
