//! ROAD kNN search (Algorithm 5 / 6 of the paper's appendix).
//!
//! The search expands from the query vertex exactly like INE, but whenever it reaches a
//! vertex that is a border of an object-free Rnet it *bypasses* that Rnet: instead of
//! the vertex's edges it relaxes one Route Overlay row — the kept shortcuts to other
//! borders of the Rnet plus the vertex's edges that leave it — and never explores the
//! Rnet's interior.
//!
//! It is a label-setting search like every other expansion in the workspace: shortcut
//! and edge relaxations alike go through [`SearchScratch::relax`], which queues a label
//! only when it strictly improves the vertex's tentative distance. A shortcut is the
//! network distance between two borders of one Rnet, read from the G-tree's refined
//! matrices: the length of a real path, which may leave the Rnet, and never more than
//! the within-Rnet distance the paper's shortcut holds. So labels are sums of real path
//! lengths and the first pop of a vertex carries its network distance. That is where
//! exactness comes from, and it subsumes the paper's Appendix A.3 repair (never
//! re-insert a settled border): a settled vertex holds its final label, which nothing
//! improves. It also bounds the queue — a border that many already-settled borders of
//! one Rnet can reach is queued once per improvement, not once per shortcut row that
//! names it.
//!
//! The rows are triangle-sparsified (`sparsify` in `index.rs`), so a border of the
//! bypassed Rnet may be reached over several kept shortcuts instead of one, and the
//! kept shortcuts of an Rnet join every pair of its borders at their network distance.
//! Nothing is lost. What a vertex relaxes depends on the vertex and the directory only,
//! so the search is Dijkstra on a fixed graph, and that graph preserves the distance
//! from every vertex `x` to every object `o`, by induction on that distance (among
//! equals, on the edges of a fewest-edges shortest path `P`). If `x` does not bypass,
//! it relaxes its edges, the first of `P` included. If it bypasses an Rnet `R` —
//! object-free, so `o` is outside — let `c` be the last vertex of `P` in `R`: a border
//! of `R`, since `P`'s next edge leaves it, with `d(x, o) = d(x, c) + d(c, o)`. If
//! `c = x`, that edge ends the row. Otherwise the kept shortcuts join `x` to `c` at
//! `d(x, c)`, over positive legs or as one zero-length shortcut, so the first of them
//! ends at a border strictly nearer to `o`, or at `c` with the shorter suffix of `P`
//! still to go, where the induction applies whichever Rnet that vertex bypasses in
//! turn. Only an Rnet read as object-free while it holds an object could break this,
//! and the directory's per-Rnet counts are exact after every update.

use rnknn_graph::{Graph, NodeId, Weight};
use rnknn_pathfinding::scratch::SearchScratch;
use rnknn_pathfinding::{QueryBudget, UNLIMITED};

use crate::association::AssociationDirectory;
use crate::index::RoadIndex;

/// Operation counters for one ROAD query (Figure 9(b) plots `vertices_bypassed`).
#[derive(Debug, Clone, Copy, Default)]
pub struct RoadSearchStats {
    /// Vertices settled by the expansion.
    pub settled: usize,
    /// Priority-queue pushes.
    pub heap_pushes: usize,
    /// Number of Rnet bypass events (an object-free Rnet skipped via shortcuts).
    pub bypasses: usize,
    /// Total interior vertices of bypassed Rnets (an estimate of the expansion work
    /// avoided).
    pub vertices_bypassed: usize,
    /// Overlay entries relaxed: every entry of each bypassed row, the border's edges
    /// that leave the bypassed Rnet included.
    pub shortcuts_relaxed: usize,
}

/// kNN query processor over a ROAD index.
#[derive(Debug)]
pub struct RoadKnn<'a> {
    graph: &'a Graph,
    road: &'a RoadIndex,
    /// Cooperative cancellation, charged per settled vertex.
    budget: &'a QueryBudget,
}

impl<'a> RoadKnn<'a> {
    /// Creates a query processor.
    pub fn new(graph: &'a Graph, road: &'a RoadIndex) -> Self {
        RoadKnn { graph, road, budget: &UNLIMITED }
    }

    /// Attaches a [`QueryBudget`] charged per settled vertex; when exhausted,
    /// the expansion stops early with a truncated result.
    pub fn set_budget(&mut self, budget: &'a QueryBudget) {
        self.budget = budget;
    }

    /// The `k` objects nearest to `query`, in increasing network-distance order.
    pub fn knn(
        &self,
        query: NodeId,
        k: usize,
        directory: &AssociationDirectory,
    ) -> Vec<(NodeId, Weight)> {
        self.knn_with_stats(query, k, directory).0
    }

    /// Same as [`RoadKnn::knn`] but also returns operation counters.
    pub fn knn_with_stats(
        &self,
        query: NodeId,
        k: usize,
        directory: &AssociationDirectory,
    ) -> (Vec<(NodeId, Weight)>, RoadSearchStats) {
        let mut scratch = SearchScratch::new();
        let mut result = Vec::new();
        let stats = self.knn_with_stats_in(query, k, directory, &mut scratch, &mut result);
        (result, stats)
    }

    /// [`RoadKnn::knn_with_stats`] running on a reusable [`SearchScratch`] and writing
    /// into a caller-owned result vector (cleared first). With warmed buffers this
    /// allocates nothing — the engine's per-thread scratch pool calls it this way.
    pub fn knn_with_stats_in(
        &self,
        query: NodeId,
        k: usize,
        directory: &AssociationDirectory,
        scratch: &mut SearchScratch,
        result: &mut Vec<(NodeId, Weight)>,
    ) -> RoadSearchStats {
        let mut stats = RoadSearchStats::default();
        result.clear();
        if k == 0 || directory.num_objects() == 0 {
            return stats;
        }
        scratch.begin(self.graph.num_vertices());
        scratch.relax(query, 0);
        stats.heap_pushes += 1;

        while let Some((d, v)) = scratch.heap.pop() {
            if !scratch.visited.settle(v) {
                continue;
            }
            stats.settled += 1;
            if directory.is_object(v) {
                result.push((v, d));
                if result.len() >= k {
                    break;
                }
            }
            if !self.budget.charge(1) {
                break;
            }
            self.expand(v, d, directory, scratch, &mut stats);
        }
        stats
    }

    /// Expansion step at the settled vertex `v` with distance `d` (the shortcut-tree
    /// traversal of Algorithm 6, specialised to the nested Rnet chain of a
    /// vertex-partitioned hierarchy).
    fn expand(
        &self,
        v: NodeId,
        d: Weight,
        directory: &AssociationDirectory,
        scratch: &mut SearchScratch,
        stats: &mut RoadSearchStats,
    ) {
        let road = self.road;
        // Bypass the highest-level (largest) object-free Rnet of which v is a border:
        // its overlay row — kept shortcuts, then the edges of v that leave the Rnet —
        // is everything v relaxes.
        let (rnets, first_row) = road.border_rows(v);
        if let Some(j) = rnets.iter().position(|&r| !directory.rnet_has_object(r)) {
            let row = road.overlay_row(first_row + j);
            stats.bypasses += 1;
            stats.vertices_bypassed += road.interior_vertices(rnets[j]);
            stats.shortcuts_relaxed += row.len();
            for (t, w) in row {
                if scratch.relax(t, d + w) {
                    stats.heap_pushes += 1;
                }
            }
            return;
        }
        // No bypass possible: relax edges exactly as INE does.
        for (t, w) in self.graph.neighbors(v) {
            if scratch.relax(t, d + w) {
                stats.heap_pushes += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::derive_for_tests;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::testgraphs::{unit_grids, zero_weight_grid};
    use rnknn_graph::EdgeWeightKind;
    use rnknn_pathfinding::dijkstra;

    fn setup(n: usize, seed: u64) -> (Graph, RoadIndex) {
        let net = RoadNetwork::generate(&GeneratorConfig::new(n, seed));
        let g = net.graph(EdgeWeightKind::Distance);
        let road = derive_for_tests(&g, 16);
        (g, road)
    }

    fn brute_knn(g: &Graph, q: NodeId, k: usize, objects: &[NodeId]) -> Vec<Weight> {
        let all = dijkstra::single_source(g, q);
        let mut d: Vec<Weight> = objects.iter().map(|&o| all[o as usize]).collect();
        d.sort_unstable();
        d.truncate(k);
        d
    }

    #[test]
    fn knn_matches_brute_force_across_densities() {
        let (g, road) = setup(900, 21);
        let n = g.num_vertices() as NodeId;
        for modulo in [3u32, 29, 113] {
            let objects: Vec<NodeId> = (0..n).filter(|v| v % modulo == 1).collect();
            let dir = AssociationDirectory::build(&road, g.num_vertices(), &objects);
            let knn = RoadKnn::new(&g, &road);
            for q in [0u32, n / 2, n - 7] {
                let got: Vec<Weight> = knn.knn(q, 8, &dir).iter().map(|&(_, d)| d).collect();
                let want = brute_knn(&g, q, 8, &objects);
                assert_eq!(got, want, "q={q} modulo={modulo}");
            }
        }
    }

    #[test]
    fn sparse_objects_trigger_bypasses() {
        let (g, road) = setup(1200, 2);
        let n = g.num_vertices() as NodeId;
        let objects: Vec<NodeId> = vec![n - 1, n - 2, n - 3];
        let dir = AssociationDirectory::build(&road, g.num_vertices(), &objects);
        let knn = RoadKnn::new(&g, &road);
        let (got, stats) = knn.knn_with_stats(0, 2, &dir);
        let want = brute_knn(&g, 0, 2, &objects);
        assert_eq!(got.iter().map(|&(_, d)| d).collect::<Vec<_>>(), want);
        assert!(stats.bypasses > 0, "expected at least one Rnet bypass");
        assert!(stats.vertices_bypassed > 0);
        // Bypassing must settle fewer vertices than plain Dijkstra would.
        assert!(stats.settled < g.num_vertices());
    }

    #[test]
    fn sparse_searches_queue_improving_labels_only() {
        let (g, road) = setup(2500, 17);
        let n = g.num_vertices() as NodeId;
        assert!(n >= 2000);
        // <= 0.5 % objects: most Rnets are object-free, so most pops are bypasses.
        let objects: Vec<NodeId> = (0..n).filter(|v| v % 250 == 7).collect();
        assert!(objects.len() * 200 <= n as usize);
        let dir = AssociationDirectory::build(&road, g.num_vertices(), &objects);
        let knn = RoadKnn::new(&g, &road);
        let (mut pushes, mut settled, mut relaxed) = (0, 0, 0);
        for i in 0..60 {
            let q = (i * 7919 + 3) % n;
            let (got, stats) = knn.knn_with_stats(q, 5, &dir);
            let want = brute_knn(&g, q, 5, &objects);
            assert_eq!(got.iter().map(|&(_, d)| d).collect::<Vec<_>>(), want, "q={q}");
            pushes += stats.heap_pushes;
            settled += stats.settled;
            relaxed += stats.shortcuts_relaxed;
        }
        assert!(
            pushes <= 4 * settled,
            "{pushes} heap pushes for {settled} settled vertices: every relaxation must go \
             through the label test (at the benchmark's 23k tier, density 0.002, the ratio \
             was 13.9 when only settled borders were skipped and is 3.0 with the test)"
        );
        assert!(
            relaxed <= 10 * settled,
            "{relaxed} overlay entries relaxed for {settled} settled vertices: a bypass must \
             read one triangle-sparsified row (here 6.2 per settled vertex, leaving edges \
             included; a dense border x border row read 19.2 without them — 7.4 against 26.3 \
             at the benchmark's 23k tier, density 0.002)"
        );
    }

    /// Removing every object of an Rnet makes it object-free at once: a search from
    /// one of its borders bypasses it, and every search counts the same bypasses as
    /// on a freshly built directory.
    #[test]
    fn an_rnet_emptied_by_removals_is_bypassed() {
        let (g, road) = setup(1500, 31);
        let n = g.num_vertices() as NodeId;
        let mut objects: Vec<NodeId> = (0..n).filter(|v| v % 40 == 3).collect();
        let mut dir = AssociationDirectory::build(&road, g.num_vertices(), &objects);
        let h = road.hierarchy();
        // A leaf with objects and interior vertices whose parent keeps objects once
        // the leaf's own are gone.
        let emptied = objects
            .iter()
            .map(|&o| road.leaf_of(o))
            .find(|&leaf| {
                let parent = h.parent(leaf).expect("a leaf below the root");
                road.interior_vertices(leaf) > 0
                    && objects
                        .iter()
                        .any(|&o| road.leaf_of(o) != leaf && !h.outside(h.leaf_range(parent), o))
            })
            .expect("a leaf to empty");
        for v in objects.iter().copied().filter(|&o| road.leaf_of(o) == emptied) {
            assert!(dir.remove(&road, v));
        }
        objects.retain(|&o| road.leaf_of(o) != emptied);
        assert!(!dir.rnet_has_object(emptied));
        let fresh = AssociationDirectory::build(&road, g.num_vertices(), &objects);
        assert!(dir == fresh, "the directory differs from a fresh build");

        let knn = RoadKnn::new(&g, &road);
        let border = h.borders(emptied)[0];
        let (rnets, _) = road.border_rows(border);
        let first_free = rnets.iter().copied().find(|&r| !dir.rnet_has_object(r));
        assert_eq!(first_free, Some(emptied), "its border does not bypass the emptied leaf");
        let queries = (0..40).map(|i| (i * 7919 + 11) % n).chain(h.borders(emptied).to_vec());
        for q in queries {
            let (got, stats) = knn.knn_with_stats(q, 6, &dir);
            let (_, want_stats) = knn.knn_with_stats(q, 6, &fresh);
            let got: Vec<Weight> = got.iter().map(|&(_, d)| d).collect();
            assert_eq!(got, brute_knn(&g, q, 6, &objects), "q={q}");
            assert_eq!(stats.bypasses, want_stats.bypasses, "q={q}");
            if q == border {
                assert!(stats.vertices_bypassed >= road.interior_vertices(emptied), "q={q}");
            }
        }
    }

    /// The inputs the generator never produces: unit weights (every shortcut has
    /// equal-length covers), zero-weight edges (borders at distance zero), and several
    /// components with `k` above what the query's component holds.
    #[test]
    fn knn_is_exact_on_ties_zero_weights_and_split_networks() {
        for g in [unit_grids(24, 1), zero_weight_grid(24), unit_grids(12, 4)] {
            let road = derive_for_tests(&g, 16);
            let n = g.num_vertices() as NodeId;
            let objects: Vec<NodeId> = (0..n).filter(|v| v % 37 == 5).collect();
            let dir = AssociationDirectory::build(&road, g.num_vertices(), &objects);
            let knn = RoadKnn::new(&g, &road);
            for i in 0..40 {
                let q = (i * 7919 + 1) % n;
                let (got, stats) = knn.knn_with_stats(q, 6, &dir);
                let mut want = brute_knn(&g, q, 6, &objects);
                want.retain(|&d| d < rnknn_graph::INFINITY);
                assert_eq!(got.iter().map(|&(_, d)| d).collect::<Vec<_>>(), want, "q={q}");
                assert!(stats.bypasses > 0, "q={q}: the overlay was never used");
            }
        }
    }

    #[test]
    fn query_on_an_object_and_k_exceeding_object_count() {
        let (g, road) = setup(400, 6);
        let objects: Vec<NodeId> = vec![10, 20, 30];
        let dir = AssociationDirectory::build(&road, g.num_vertices(), &objects);
        let knn = RoadKnn::new(&g, &road);
        let got = knn.knn(10, 5, &dir);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], (10, 0));
        assert!(knn.knn(10, 0, &dir).is_empty());
    }

    #[test]
    fn results_are_sorted_and_distinct() {
        let (g, road) = setup(700, 13);
        let n = g.num_vertices() as NodeId;
        let objects: Vec<NodeId> = (0..n).filter(|v| v % 11 == 4).collect();
        let dir = AssociationDirectory::build(&road, g.num_vertices(), &objects);
        let knn = RoadKnn::new(&g, &road);
        let got = knn.knn(5, 20, &dir);
        assert_eq!(got.len(), 20);
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
        let mut ids: Vec<NodeId> = got.iter().map(|&(v, _)| v).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20);
    }
}
