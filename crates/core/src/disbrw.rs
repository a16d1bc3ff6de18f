//! Distance Browsing (Samet et al., SIGMOD 2008) over the SILC index.
//!
//! Distance Browsing maintains, per candidate object, a lower/upper bound interval on
//! its network distance (from the SILC λ ratios) and lazily refines the most promising
//! candidate until the k nearest objects are certain. Two candidate generators are
//! provided, matching the paper's Appendix A.1:
//!
//! * [`DisBrwVariant::DbEnn`] — the paper's improved variant: candidates are produced
//!   incrementally by Euclidean distance from an R-tree (Algorithm 2);
//! * [`DisBrwVariant::ObjectHierarchy`] — the original variant: candidates come from a
//!   quadtree object hierarchy whose nodes are visited in lower-bound order.
//!
//! Both use the degree-2 chain optimisation (Appendix A.1.2) when a [`ChainIndex`] is
//! supplied (the engine passes SILC's own, [`SilcIndex::chains`]).

use rnknn_graph::{ChainIndex, Graph, NodeId, Point, Rect, Weight, INFINITY};
use rnknn_objects::{BrowserScratch, ObjectRTree, ObjectSet};
use rnknn_pathfinding::heap::MinHeap;
use rnknn_pathfinding::{QueryBudget, UNLIMITED};
use rnknn_silc::{IntervalRefiner, SilcIndex};

use crate::KnnResult;

/// Reusable per-thread buffers for Distance Browsing: the candidate pool, the
/// lower-bound refinement queues of both variants and the best-k storage. All
/// buffers keep their capacity across queries (the engine's scratch pool owns one
/// per thread).
#[derive(Debug, Default)]
pub struct DisBrwScratch {
    /// DB-ENN refinement queue (candidate indexes keyed by interval lower bound).
    queue: MinHeap<u32>,
    /// Object-hierarchy mixed queue (nodes + candidates).
    hierarchy_queue: MinHeap<HierarchyElement>,
    /// Candidate pool.
    pool: Vec<Candidate>,
    /// Best-k upper-bound storage.
    best: Vec<(NodeId, Weight)>,
}

/// Which candidate generator Distance Browsing uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisBrwVariant {
    /// Euclidean-NN candidates from an R-tree (Appendix A.1.1; the default).
    DbEnn,
    /// The original object-hierarchy candidate generator.
    ObjectHierarchy,
}

/// Operation counters for one Distance Browsing query.
#[derive(Debug, Clone, Copy, Default)]
pub struct DisBrwStats {
    /// Interval refinement steps performed.
    pub refinements: usize,
    /// Candidate objects whose interval was ever created.
    pub candidates: usize,
    /// Object-hierarchy nodes expanded (zero for DB-ENN).
    pub hierarchy_nodes: usize,
    /// SILC quadtree lookups, by refinements and the final path walks.
    pub quadtree_lookups: u64,
    /// Path steps the chain optimisation took instead of a quadtree lookup.
    pub chain_skips: u64,
}

impl DisBrwStats {
    /// Adds the lookups and chain skips of one pair's refinement or walk.
    fn count(&mut self, walk: &IntervalRefiner) {
        self.quadtree_lookups += walk.quadtree_lookups;
        self.chain_skips += walk.chain_skips;
    }
}

/// Distance Browsing query processor.
#[derive(Debug)]
pub struct DisBrwSearch<'a> {
    graph: &'a Graph,
    silc: &'a SilcIndex,
    chains: Option<&'a ChainIndex>,
    variant: DisBrwVariant,
    euclid_scale: f64,
    /// Cooperative cancellation, charged per refinement / traversal step.
    budget: &'a QueryBudget,
}

/// A candidate object tracked by the search.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    object: NodeId,
    refiner: IntervalRefiner,
}

impl<'a> DisBrwSearch<'a> {
    /// Creates a search with the DB-ENN candidate generator.
    pub fn new(graph: &'a Graph, silc: &'a SilcIndex, chains: Option<&'a ChainIndex>) -> Self {
        Self::with_variant(graph, silc, chains, DisBrwVariant::DbEnn)
    }

    /// Creates a search with an explicit candidate generator.
    pub fn with_variant(
        graph: &'a Graph,
        silc: &'a SilcIndex,
        chains: Option<&'a ChainIndex>,
        variant: DisBrwVariant,
    ) -> Self {
        let euclid_scale = graph.euclidean_bound().scale();
        DisBrwSearch { graph, silc, chains, variant, euclid_scale, budget: &UNLIMITED }
    }

    /// Attaches a [`QueryBudget`] charged once per main-loop step (an interval
    /// refinement or a hierarchy expansion); when exhausted, the search stops
    /// early and finalizes whatever candidates were certain so far.
    pub fn set_budget(&mut self, budget: &'a QueryBudget) {
        self.budget = budget;
    }

    /// The variant in use.
    pub fn variant(&self) -> DisBrwVariant {
        self.variant
    }

    /// The `k` objects nearest to `query` by network distance.
    pub fn knn(
        &self,
        query: NodeId,
        k: usize,
        rtree: &ObjectRTree,
        objects: &ObjectSet,
    ) -> KnnResult {
        self.knn_with_stats(query, k, rtree, objects).0
    }

    /// Same as [`DisBrwSearch::knn`] but also returns operation counters (allocating
    /// all per-query state fresh; the production path is
    /// [`DisBrwSearch::knn_with_stats_in`]).
    pub fn knn_with_stats(
        &self,
        query: NodeId,
        k: usize,
        rtree: &ObjectRTree,
        objects: &ObjectSet,
    ) -> (KnnResult, DisBrwStats) {
        let mut browser = BrowserScratch::new();
        let mut scratch = DisBrwScratch::default();
        let mut result = KnnResult::new();
        let stats = self.knn_with_stats_in(
            query,
            k,
            rtree,
            objects,
            &mut browser,
            &mut scratch,
            &mut result,
        );
        (result, stats)
    }

    /// [`DisBrwSearch::knn_with_stats`] running on reusable buffers and writing into
    /// a caller-owned result vector (cleared first). The candidate pool, refinement
    /// queues, best-k storage and the R-tree browse heap are all reused across
    /// queries; only SILC refinement internals may still allocate.
    #[allow(clippy::too_many_arguments)] // one reusable buffer per kind of state
    pub fn knn_with_stats_in(
        &self,
        query: NodeId,
        k: usize,
        rtree: &ObjectRTree,
        objects: &ObjectSet,
        browser: &mut BrowserScratch,
        scratch: &mut DisBrwScratch,
        result: &mut KnnResult,
    ) -> DisBrwStats {
        match self.variant {
            DisBrwVariant::DbEnn => self.knn_db_enn(query, k, rtree, browser, scratch, result),
            DisBrwVariant::ObjectHierarchy => {
                self.knn_object_hierarchy(query, k, objects, scratch, result)
            }
        }
    }

    /// DB-ENN (Algorithm 2): interleave Euclidean candidate retrieval with interval
    /// refinement, keyed by lower bounds.
    fn knn_db_enn(
        &self,
        query: NodeId,
        k: usize,
        rtree: &ObjectRTree,
        browser_scratch: &mut BrowserScratch,
        scratch: &mut DisBrwScratch,
        result: &mut KnnResult,
    ) -> DisBrwStats {
        let mut stats = DisBrwStats::default();
        result.clear();
        if k == 0 || rtree.is_empty() {
            return stats;
        }
        let query_point = self.graph.coord(query);
        let mut browser = rtree.browse_in(query_point, browser_scratch);
        // Q: candidates keyed by interval lower bound; L: best-k upper bounds.
        let DisBrwScratch { queue, pool, best, .. } = scratch;
        queue.clear();
        pool.clear();
        let mut best: BestK = BestK::new(k, best);

        // Seed with the Euclidean kNNs, then keep the browser suspended.
        for _ in 0..k {
            match browser.next() {
                Some((_, object)) => {
                    self.process_candidate(query, object, pool, queue, &mut best, &mut stats)
                }
                None => break,
            }
        }

        loop {
            if !self.budget.charge(1) {
                break;
            }
            let next_euclid_lb = browser
                .peek_distance()
                .map(|d| (d * self.euclid_scale).floor() as Weight)
                .unwrap_or(INFINITY);
            let next_queue_lb = queue.peek_key().unwrap_or(INFINITY);
            if next_euclid_lb == INFINITY && next_queue_lb == INFINITY {
                break;
            }
            if next_euclid_lb < next_queue_lb {
                // A closer Euclidean candidate may exist: pull it in.
                if let Some((_, object)) = browser.next() {
                    self.process_candidate(query, object, pool, queue, &mut best, &mut stats);
                }
                continue;
            }
            let (lower, idx) = queue.pop().expect("non-empty");
            let candidate = pool[idx as usize];
            let upper = candidate.refiner.interval.upper;
            if upper >= best.dk() && best.len() >= k && lower >= best.dk() {
                break;
            }
            if candidate.refiner.interval.is_exact() {
                // Fully refined and among the best: it is already recorded in `best`.
                continue;
            }
            // Refine one step and re-insert.
            let mut refiner = candidate.refiner;
            self.silc.refine_step(self.graph, self.chains, &mut refiner);
            stats.refinements += 1;
            pool[idx as usize].refiner = refiner;
            best.update(candidate.object, refiner.interval.upper);
            if refiner.interval.lower <= best.dk() {
                queue.push(refiner.interval.lower, idx);
            }
        }

        pool.iter().for_each(|candidate| stats.count(&candidate.refiner));
        self.finalize_into(query, &best, result, &mut stats);
        stats
    }

    /// The original object-hierarchy variant: a quadtree over the objects is traversed
    /// in lower-bound order; leaf objects enter the same refinement machinery. (The
    /// quadtree itself is rebuilt per query — it depends on the object set, not the
    /// engine — so this variant is not allocation-free.)
    fn knn_object_hierarchy(
        &self,
        query: NodeId,
        k: usize,
        objects: &ObjectSet,
        scratch: &mut DisBrwScratch,
        result: &mut KnnResult,
    ) -> DisBrwStats {
        let mut stats = DisBrwStats::default();
        result.clear();
        if k == 0 || objects.is_empty() {
            return stats;
        }
        let query_point = self.graph.coord(query);
        let hierarchy = ObjectHierarchy::build(self.graph, objects);
        // Mixed queue: hierarchy nodes and candidate objects, keyed by lower bound.
        let DisBrwScratch { hierarchy_queue: queue, pool, best, .. } = scratch;
        queue.clear();
        pool.clear();
        let mut best = BestK::new(k, best);
        queue.push(0, HierarchyElement::Node(0));

        while let Some((lower, element)) = queue.pop() {
            if best.len() >= k && lower >= best.dk() {
                break;
            }
            if !self.budget.charge(1) {
                break;
            }
            match element {
                HierarchyElement::Node(idx) => {
                    stats.hierarchy_nodes += 1;
                    let node = &hierarchy.nodes[idx as usize];
                    if node.children.is_empty() {
                        for &object in &node.objects {
                            let euclid_lb = (self.graph.coord(object).distance(&query_point)
                                * self.euclid_scale)
                                .floor() as Weight;
                            if best.len() >= k && euclid_lb >= best.dk() {
                                continue;
                            }
                            self.process_candidate_into(
                                query, object, pool, queue, &mut best, &mut stats,
                            );
                        }
                    } else {
                        for &c in &node.children {
                            let child = &hierarchy.nodes[c as usize];
                            let lb = (child.rect.min_distance(query_point) * self.euclid_scale)
                                .floor() as Weight;
                            if best.len() >= k && lb >= best.dk() {
                                continue;
                            }
                            queue.push(lb, HierarchyElement::Node(c));
                        }
                    }
                }
                HierarchyElement::Candidate(idx) => {
                    let candidate = pool[idx as usize];
                    if candidate.refiner.interval.is_exact() {
                        continue;
                    }
                    let mut refiner = candidate.refiner;
                    self.silc.refine_step(self.graph, self.chains, &mut refiner);
                    stats.refinements += 1;
                    pool[idx as usize].refiner = refiner;
                    best.update(candidate.object, refiner.interval.upper);
                    if refiner.interval.lower <= best.dk() {
                        queue.push(refiner.interval.lower, HierarchyElement::Candidate(idx));
                    }
                }
            }
        }
        pool.iter().for_each(|candidate| stats.count(&candidate.refiner));
        self.finalize_into(query, &best, result, &mut stats);
        stats
    }

    fn process_candidate(
        &self,
        query: NodeId,
        object: NodeId,
        pool: &mut Vec<Candidate>,
        queue: &mut MinHeap<u32>,
        best: &mut BestK,
        stats: &mut DisBrwStats,
    ) {
        let refiner = self.silc.start_refinement(self.graph, query, object);
        stats.candidates += 1;
        best.update(object, refiner.interval.upper);
        let idx = pool.len() as u32;
        pool.push(Candidate { object, refiner });
        if refiner.interval.lower <= best.dk() {
            queue.push(refiner.interval.lower, idx);
        }
    }

    fn process_candidate_into(
        &self,
        query: NodeId,
        object: NodeId,
        pool: &mut Vec<Candidate>,
        queue: &mut MinHeap<HierarchyElement>,
        best: &mut BestK,
        stats: &mut DisBrwStats,
    ) {
        let refiner = self.silc.start_refinement(self.graph, query, object);
        stats.candidates += 1;
        best.update(object, refiner.interval.upper);
        let idx = pool.len() as u32;
        pool.push(Candidate { object, refiner });
        if refiner.interval.lower <= best.dk() {
            queue.push(refiner.interval.lower, HierarchyElement::Candidate(idx));
        }
    }

    /// Converts the best-k upper-bound list into exact results (the bounds of the
    /// winning candidates are fully refined, which costs at most one path walk each),
    /// writing into the caller's (already cleared) result vector. Objects in another
    /// component are dropped, as every other method does, not reported at `INFINITY`.
    fn finalize_into(
        &self,
        query: NodeId,
        best: &BestK<'_>,
        result: &mut KnnResult,
        stats: &mut DisBrwStats,
    ) {
        result.extend(best.entries().iter().map(|&(object, _)| {
            let walk = self.silc.walk(self.graph, query, object, self.chains);
            stats.count(&walk);
            (object, walk.dist_to_next)
        }));
        result.retain(|&(_, d)| d < INFINITY);
        result.sort_unstable_by_key(|&(_, d)| d);
        result.truncate(best.k);
    }
}

/// The `L` structure of Algorithm 1/2: the k smallest upper bounds seen so far, one per
/// object, with `Dk` = the k-th smallest. Operates on borrowed (pooled) storage.
#[derive(Debug)]
struct BestK<'a> {
    k: usize,
    entries: &'a mut Vec<(NodeId, Weight)>,
}

impl<'a> BestK<'a> {
    fn new(k: usize, entries: &'a mut Vec<(NodeId, Weight)>) -> Self {
        entries.clear();
        BestK { k, entries }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn entries(&self) -> &[(NodeId, Weight)] {
        self.entries
    }

    /// Current upper bound on the k-th nearest neighbor's distance.
    fn dk(&self) -> Weight {
        if self.entries.len() >= self.k {
            self.entries[self.k - 1].1
        } else {
            INFINITY
        }
    }

    /// Records (or improves) the upper bound of `object`.
    fn update(&mut self, object: NodeId, upper: Weight) {
        match self.entries.iter_mut().find(|(o, _)| *o == object) {
            Some(entry) => {
                if upper < entry.1 {
                    entry.1 = upper;
                }
            }
            None => self.entries.push((object, upper)),
        }
        self.entries.sort_unstable_by_key(|&(_, u)| u);
        self.entries.truncate(self.k.max(1) * 4); // keep a margin of alternates
    }
}

#[derive(Debug, Clone, Copy)]
enum HierarchyElement {
    Node(u32),
    Candidate(u32),
}

/// A simple quadtree object hierarchy (the original DisBrw candidate generator). Nodes
/// store their bounding rectangle and object count; leaves hold up to
/// `LEAF_CAPACITY` objects (the paper found large, shallow hierarchies best).
#[derive(Debug)]
struct ObjectHierarchy {
    nodes: Vec<HierarchyNode>,
}

#[derive(Debug)]
struct HierarchyNode {
    rect: Rect,
    children: Vec<u32>,
    objects: Vec<NodeId>,
}

const LEAF_CAPACITY: usize = 64;

impl ObjectHierarchy {
    fn build(graph: &Graph, objects: &ObjectSet) -> Self {
        let points: Vec<(Point, NodeId)> =
            objects.vertices().iter().map(|&o| (graph.coord(o), o)).collect();
        let nodes =
            vec![HierarchyNode { rect: Rect::empty(), children: Vec::new(), objects: Vec::new() }];
        let mut hierarchy = ObjectHierarchy { nodes };
        hierarchy.split(0, points);
        hierarchy
    }

    fn split(&mut self, index: usize, points: Vec<(Point, NodeId)>) {
        let mut rect = Rect::empty();
        for &(p, _) in &points {
            rect.expand_point(p);
        }
        self.nodes[index].rect = rect;
        if points.len() <= LEAF_CAPACITY {
            self.nodes[index].objects = points.into_iter().map(|(_, o)| o).collect();
            return;
        }
        let cx = (rect.min_x + rect.max_x) / 2.0;
        let cy = (rect.min_y + rect.max_y) / 2.0;
        let mut quadrants: [Vec<(Point, NodeId)>; 4] = Default::default();
        for (p, o) in points {
            let qi = (p.x > cx) as usize + 2 * (p.y > cy) as usize;
            quadrants[qi].push((p, o));
        }
        for quadrant in quadrants.into_iter().filter(|q| !q.is_empty()) {
            let child = self.nodes.len();
            self.nodes.push(HierarchyNode {
                rect: Rect::empty(),
                children: Vec::new(),
                objects: Vec::new(),
            });
            self.nodes[index].children.push(child as u32);
            self.split(child, quadrant);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::EdgeWeightKind;
    use rnknn_objects::uniform;
    use rnknn_pathfinding::dijkstra;

    fn setup(n: usize, seed: u64) -> (Graph, SilcIndex) {
        let net = RoadNetwork::generate(&GeneratorConfig::new(n, seed));
        let g = net.graph(EdgeWeightKind::Distance);
        let silc = SilcIndex::build(&g);
        (g, silc)
    }

    fn brute_knn(g: &Graph, q: NodeId, k: usize, objects: &ObjectSet) -> Vec<Weight> {
        let all = dijkstra::single_source(g, q);
        let mut d: Vec<Weight> = objects.vertices().iter().map(|&o| all[o as usize]).collect();
        d.sort_unstable();
        d.truncate(k);
        d
    }

    #[test]
    fn db_enn_matches_brute_force() {
        let (g, silc) = setup(500, 41);
        let objects = uniform(&g, 0.03, 7);
        let rtree = ObjectRTree::build(&g, &objects);
        let n = g.num_vertices() as NodeId;
        for use_chains in [false, true] {
            let chain_ref = if use_chains { Some(silc.chains()) } else { None };
            let search = DisBrwSearch::new(&g, &silc, chain_ref);
            for &q in &[0u32, n / 2, n - 5] {
                let want = brute_knn(&g, q, 6, &objects);
                let (got, stats) = search.knn_with_stats(q, 6, &rtree, &objects);
                assert_eq!(
                    got.iter().map(|&(_, d)| d).collect::<Vec<_>>(),
                    want,
                    "q={q} chains={use_chains}"
                );
                assert!(stats.candidates >= got.len());
            }
        }
    }

    #[test]
    fn object_hierarchy_variant_matches_brute_force() {
        let (g, silc) = setup(450, 13);
        let objects = uniform(&g, 0.05, 3);
        let rtree = ObjectRTree::build(&g, &objects);
        let search = DisBrwSearch::with_variant(
            &g,
            &silc,
            Some(silc.chains()),
            DisBrwVariant::ObjectHierarchy,
        );
        assert_eq!(search.variant(), DisBrwVariant::ObjectHierarchy);
        let n = g.num_vertices() as NodeId;
        for &q in &[3u32, n / 4, n - 9] {
            let want = brute_knn(&g, q, 5, &objects);
            let (got, stats) = search.knn_with_stats(q, 5, &rtree, &objects);
            assert_eq!(got.iter().map(|&(_, d)| d).collect::<Vec<_>>(), want, "q={q}");
            assert!(stats.hierarchy_nodes > 0);
        }
    }

    #[test]
    fn sparse_objects_and_k_exceeding_object_count() {
        let (g, silc) = setup(300, 5);
        let objects = ObjectSet::new("three", g.num_vertices(), vec![4, 90, 200]);
        let rtree = ObjectRTree::build(&g, &objects);
        let search = DisBrwSearch::new(&g, &silc, None);
        let got = search.knn(10, 8, &rtree, &objects);
        assert_eq!(got.len(), 3);
        let want = brute_knn(&g, 10, 3, &objects);
        assert_eq!(got.iter().map(|&(_, d)| d).collect::<Vec<_>>(), want);
        assert!(search.knn(10, 0, &rtree, &objects).is_empty());
        let empty = ObjectSet::new("empty", g.num_vertices(), vec![]);
        let empty_tree = ObjectRTree::build(&g, &empty);
        assert!(search.knn(10, 3, &empty_tree, &empty).is_empty());
    }

    #[test]
    fn query_vertex_as_object_is_first() {
        let (g, silc) = setup(250, 9);
        let objects = ObjectSet::new("set", g.num_vertices(), vec![12, 55, 130]);
        let rtree = ObjectRTree::build(&g, &objects);
        let search = DisBrwSearch::new(&g, &silc, Some(silc.chains()));
        let got = search.knn(12, 2, &rtree, &objects);
        assert_eq!(got[0], (12, 0));
        assert_eq!(got.len(), 2);
    }
}
