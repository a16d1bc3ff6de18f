//! Incremental Euclidean Restriction (Papadias et al., VLDB 2003), revisited with fast
//! shortest-path oracles (Section 5 of the paper).
//!
//! IER retrieves candidate objects in increasing Euclidean distance (from an R-tree)
//! and computes their exact network distances with a pluggable [`DistanceOracle`]. The
//! search stops as soon as the Euclidean lower bound of the next candidate exceeds the
//! network distance of the current k-th candidate. The paper's headline result is that
//! IER combined with a modern oracle (PHL, or G-tree with materialization) is the
//! fastest method in most settings; the original Dijkstra-based IER is kept as the
//! baseline it dethroned (Figure 4).

use rnknn_graph::{EuclideanBound, Graph, NodeId, Weight, INFINITY};
use rnknn_objects::{BrowserScratch, ObjectRTree};
use rnknn_pathfinding::scratch::SearchScratch;
use rnknn_pathfinding::{QueryBudget, UNLIMITED};

use crate::KnnResult;

/// A point-to-point network-distance oracle usable by IER.
///
/// `begin_query` is called once per kNN query with the query vertex, letting oracles
/// with per-source state (MGtree materialization, the CH forward search) reset or
/// pre-compute; `distance_within` is then called once per candidate object.
pub trait DistanceOracle {
    /// Human-readable name used in experiment output ("Dijk", "PHL", "MGtree", ...).
    fn name(&self) -> &'static str;
    /// Prepares the oracle for a sequence of distance queries from `source`.
    fn begin_query(&mut self, _source: NodeId) {}
    /// Network distance from `source` to `target`: exact when it is `< bound`, any
    /// value `>= bound` otherwise (IER passes its current k-th candidate distance
    /// and discards such candidates without reading the value). Pass [`INFINITY`]
    /// for the exact distance ([`INFINITY`] when unreachable). Search oracles prune
    /// against the bound; table-lookup oracles (PHL, TNR) ignore it.
    fn distance_within(&mut self, source: NodeId, target: NodeId, bound: Weight) -> Weight;
    /// Search-effort counters accumulated since construction. Oracles that run real
    /// searches (Dijkstra, A*, CH, TNR) report settles and heap work here so IER's unified
    /// [`crate::QueryStats`] reflects oracle effort; table-lookup oracles keep the
    /// default zeros.
    fn search_stats(&self) -> OracleSearchStats {
        OracleSearchStats::default()
    }
}

/// Search effort an oracle spent answering distance queries (see
/// [`DistanceOracle::search_stats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleSearchStats {
    /// Vertices settled by oracle-internal searches.
    pub nodes_expanded: u64,
    /// Priority-queue operations performed by oracle-internal searches.
    pub heap_operations: u64,
    /// Cells of a precomputed table swept: distance-matrix cells read by G-tree
    /// assembly (MGtree), target-label entries read (CH).
    pub matrix_cells: u64,
}

/// Operation counters for one IER query.
#[derive(Debug, Clone, Copy, Default)]
pub struct IerStats {
    /// Candidates retrieved from the R-tree.
    pub euclidean_candidates: usize,
    /// Exact network-distance computations performed.
    pub network_distance_computations: usize,
    /// Candidates whose network distance was computed but that did not end up in the
    /// kNN result ("false hits"; these grow when the Euclidean bound is loose, e.g. on
    /// travel-time graphs).
    pub false_hits: usize,
}

/// IER query processor, generic over the network-distance oracle.
#[derive(Debug)]
pub struct IerSearch<'a, O: DistanceOracle> {
    graph: &'a Graph,
    oracle: O,
    bound: EuclideanBound,
    budget: &'a QueryBudget,
}

impl<'a, O: DistanceOracle> IerSearch<'a, O> {
    /// Creates an IER search over `graph` using `oracle` for network distances. The
    /// Euclidean lower bound is derived from the graph's weight kind (Section 7.5's
    /// `S = max(d_i / w_i)` scaling for travel times).
    pub fn new(graph: &'a Graph, oracle: O) -> Self {
        let bound = graph.euclidean_bound();
        IerSearch { graph, oracle, bound, budget: &UNLIMITED }
    }

    /// Attaches a [`QueryBudget`], charged once per Euclidean candidate examined
    /// (search oracles additionally charge their own settles — see their
    /// `set_budget` methods). When exhausted, the candidate loop stops early with
    /// a truncated candidate list.
    pub fn set_budget(&mut self, budget: &'a QueryBudget) {
        self.budget = budget;
    }

    /// The oracle's display name.
    pub fn oracle_name(&self) -> &'static str {
        self.oracle.name()
    }

    /// Access to the oracle (e.g. to read its statistics).
    pub fn oracle(&self) -> &O {
        &self.oracle
    }

    /// The `k` objects nearest to `query` by network distance.
    pub fn knn(&mut self, query: NodeId, k: usize, rtree: &ObjectRTree) -> KnnResult {
        self.knn_with_stats(query, k, rtree).0
    }

    /// Same as [`IerSearch::knn`] but also returns operation counters. Allocates the
    /// browse heap and result fresh per call; the production query path is
    /// [`IerSearch::knn_with_stats_into`].
    pub fn knn_with_stats(
        &mut self,
        query: NodeId,
        k: usize,
        rtree: &ObjectRTree,
    ) -> (KnnResult, IerStats) {
        let mut browser = BrowserScratch::new();
        let mut candidates: Vec<(NodeId, Weight)> = Vec::new();
        let stats = self.knn_with_stats_into(query, k, rtree, &mut browser, &mut candidates);
        (candidates, stats)
    }

    /// [`IerSearch::knn_with_stats`] running on a reusable R-tree browse heap and
    /// writing the candidates into a caller-owned vector (cleared first). The
    /// candidate list is kept sorted by binary-search insertion — `O(log k)` to
    /// locate plus a shift, instead of re-sorting the whole list on every improving
    /// insert. With warmed buffers (and an oracle whose own state is pooled) a query
    /// allocates nothing.
    pub fn knn_with_stats_into(
        &mut self,
        query: NodeId,
        k: usize,
        rtree: &ObjectRTree,
        browser_scratch: &mut BrowserScratch,
        candidates: &mut KnnResult,
    ) -> IerStats {
        let mut stats = IerStats::default();
        candidates.clear();
        if k == 0 || rtree.is_empty() {
            return stats;
        }
        candidates.reserve(k + 1);
        self.oracle.begin_query(query);
        let query_point = self.graph.coord(query);
        let mut browser = rtree.browse_in(query_point, browser_scratch);

        // Dk = network distance of the current k-th candidate (upper bound on the k-th
        // nearest neighbor's distance once we hold k candidates).
        let mut dk = INFINITY;
        // Peek the Euclidean lower bound of the next candidate; stop when it cannot
        // beat the current k-th candidate.
        while let Some(next_euclid) = browser.peek_distance() {
            let lower_bound = self.bound.lower_bound_from_euclidean(next_euclid);
            if candidates.len() >= k && lower_bound >= dk {
                break;
            }
            if !self.budget.charge(1) {
                break;
            }
            let Some((_, object)) = browser.next() else { break };
            stats.euclidean_candidates += 1;
            // Candidates at distance >= dk are discarded below, so the oracle may
            // stop searching at dk (exactness of kept candidates is unaffected).
            let d = self.oracle.distance_within(query, object, dk);
            stats.network_distance_computations += 1;
            if d == INFINITY {
                continue;
            }
            if candidates.len() < k {
                let pos = candidates.partition_point(|&(_, e)| e <= d);
                candidates.insert(pos, (object, d));
                if candidates.len() == k {
                    dk = candidates[k - 1].1;
                }
            } else if d < dk {
                candidates.pop();
                let pos = candidates.partition_point(|&(_, e)| e <= d);
                candidates.insert(pos, (object, d));
                dk = candidates[k - 1].1;
                stats.false_hits += 1; // the displaced candidate was a false hit
            } else {
                stats.false_hits += 1;
            }
        }
        stats
    }
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// The original IER oracle: a Dijkstra per candidate (the configuration every
/// previous study used, and the slowest line of Figure 4). The search state is a
/// borrowed [`SearchScratch`] — the engine lends its pooled one — so every
/// candidate reuses the distance tables and heap. Candidate searches are bounded
/// by IER's current k-th candidate.
#[derive(Debug)]
pub struct DijkstraOracle<'a> {
    graph: &'a Graph,
    scratch: &'a mut SearchScratch,
    budget: &'a QueryBudget,
    stats: OracleSearchStats,
}

impl<'a> DijkstraOracle<'a> {
    /// Creates the oracle over `scratch`.
    pub fn new(graph: &'a Graph, scratch: &'a mut SearchScratch) -> Self {
        DijkstraOracle { graph, scratch, budget: &UNLIMITED, stats: OracleSearchStats::default() }
    }

    /// Attaches a [`QueryBudget`] charged per settled vertex inside the
    /// per-candidate Dijkstra searches.
    pub fn set_budget(&mut self, budget: &'a QueryBudget) {
        self.budget = budget;
    }
}

impl<'a> DistanceOracle for DijkstraOracle<'a> {
    fn name(&self) -> &'static str {
        "Dijk"
    }
    fn distance_within(&mut self, source: NodeId, target: NodeId, bound: Weight) -> Weight {
        let (d, stats) = rnknn_pathfinding::dijkstra::distance_within_with_stats_in(
            self.graph,
            source,
            target,
            bound,
            self.scratch,
            self.budget,
        );
        self.stats.nodes_expanded += stats.settled as u64;
        self.stats.heap_operations += stats.pushes as u64;
        d
    }
    fn search_stats(&self) -> OracleSearchStats {
        self.stats
    }
}

/// A* with the Euclidean lower bound — the natural strengthening of the Dijkstra
/// oracle, on a borrowed [`SearchScratch`] exactly like [`DijkstraOracle`]'s.
#[derive(Debug)]
pub struct AStarOracle<'a> {
    graph: &'a Graph,
    bound: EuclideanBound,
    scratch: &'a mut SearchScratch,
    budget: &'a QueryBudget,
    stats: OracleSearchStats,
}

impl<'a> AStarOracle<'a> {
    /// Creates the oracle over `scratch`.
    pub fn new(graph: &'a Graph, scratch: &'a mut SearchScratch) -> Self {
        AStarOracle {
            graph,
            bound: graph.euclidean_bound(),
            scratch,
            budget: &UNLIMITED,
            stats: OracleSearchStats::default(),
        }
    }

    /// Attaches a [`QueryBudget`] charged per settled vertex inside the
    /// per-candidate A* searches.
    pub fn set_budget(&mut self, budget: &'a QueryBudget) {
        self.budget = budget;
    }
}

impl<'a> DistanceOracle for AStarOracle<'a> {
    fn name(&self) -> &'static str {
        "A*"
    }
    fn distance_within(&mut self, source: NodeId, target: NodeId, bound: Weight) -> Weight {
        let (d, stats) = rnknn_pathfinding::astar::astar_distance_within_with_stats_in(
            self.graph,
            &self.bound,
            source,
            target,
            bound,
            self.scratch,
            self.budget,
        );
        self.stats.nodes_expanded += stats.settled as u64;
        self.stats.heap_operations += stats.pushes as u64;
        d
    }
    fn search_stats(&self) -> OracleSearchStats {
        self.stats
    }
}

/// Contraction Hierarchies oracle: one resumable upward search per kNN query, met
/// against each candidate's label. A candidate's backward space depends on the
/// hierarchy and the candidate only, so it is *read* from the object's label in the
/// [`rnknn_ch::ChTargetDirectory`] — filled when the object was inserted, in
/// distance order — and the query's forward search settles only as far as that
/// label's prefix below IER's running k-th distance needs
/// ([`rnknn_ch::ChForwardSearch::distance_within`]). The query writes nothing into
/// the directory, and the forward search is borrowed (the engine lends its pooled
/// one), so a warm query allocates nothing.
#[derive(Debug)]
pub struct ChOracle<'a> {
    ch: &'a rnknn_ch::ContractionHierarchy,
    targets: &'a rnknn_ch::ChTargetDirectory,
    source: Option<NodeId>,
    search: &'a mut rnknn_ch::ChForwardSearch,
    budget: &'a QueryBudget,
    counters: rnknn_ch::ChSearchCounters,
}

impl<'a> ChOracle<'a> {
    /// Creates the oracle over the object set's target directory and a forward
    /// search. Every target asked for must be an object of `targets`.
    pub fn new(
        ch: &'a rnknn_ch::ContractionHierarchy,
        targets: &'a rnknn_ch::ChTargetDirectory,
        search: &'a mut rnknn_ch::ChForwardSearch,
    ) -> Self {
        ChOracle {
            ch,
            targets,
            source: None,
            search,
            budget: &UNLIMITED,
            counters: rnknn_ch::ChSearchCounters::default(),
        }
    }

    /// Attaches a [`QueryBudget`] charged per settled vertex inside the forward
    /// search, and once per candidate with the number of label entries read.
    pub fn set_budget(&mut self, budget: &'a QueryBudget) {
        self.budget = budget;
    }
}

impl<'a> DistanceOracle for ChOracle<'a> {
    fn name(&self) -> &'static str {
        "CH"
    }
    fn begin_query(&mut self, source: NodeId) {
        self.search.begin(self.ch, source, &mut self.counters);
        self.source = Some(source);
    }
    fn distance_within(&mut self, source: NodeId, target: NodeId, bound: Weight) -> Weight {
        if source == target {
            return 0;
        }
        if self.source != Some(source) {
            self.begin_query(source);
        }
        // A budget cut answers "not below the bound" and the dispatch tail raises
        // `DeadlineExceeded` from the latched budget.
        self.search.distance_within(
            self.ch,
            self.targets,
            target,
            bound,
            self.budget,
            &mut self.counters,
        )
    }
    fn search_stats(&self) -> OracleSearchStats {
        OracleSearchStats {
            nodes_expanded: self.counters.settled,
            heap_operations: self.counters.heap_pushes,
            matrix_cells: self.counters.label_entries,
        }
    }
}

/// Hub-labelling ("PHL") oracle: one sorted-array label intersection per candidate.
#[derive(Debug)]
pub struct PhlOracle<'a> {
    labels: &'a rnknn_phl::HubLabels,
    stats: OracleSearchStats,
}

impl<'a> PhlOracle<'a> {
    /// Creates the oracle over prebuilt labels.
    pub fn new(labels: &'a rnknn_phl::HubLabels) -> Self {
        PhlOracle { labels, stats: OracleSearchStats::default() }
    }
}

impl<'a> DistanceOracle for PhlOracle<'a> {
    fn name(&self) -> &'static str {
        "PHL"
    }
    fn distance_within(&mut self, source: NodeId, target: NodeId, _bound: Weight) -> Weight {
        let (d, entries) = self.labels.distance_with_stats(source, target);
        // Label intersection has no heap or settled set; the hub entries examined
        // are its comparable notion of "nodes expanded".
        self.stats.nodes_expanded += entries;
        d
    }
    fn search_stats(&self) -> OracleSearchStats {
        self.stats
    }
}

/// Transit Node Routing oracle over the engine's contraction hierarchy. Per source,
/// the stopped forward search space and the source side of the access-node table are
/// computed once ([`rnknn_tnr::TransitNodeRouting::begin_source`]) and every candidate
/// pays only a stopped backward search plus an `O(|access(t)|)` table fold — the TNR
/// analogue of the IER-CH forward-space reuse.
#[derive(Debug)]
pub struct TnrOracle<'a> {
    ch: &'a rnknn_ch::ContractionHierarchy,
    tnr: &'a rnknn_tnr::TransitNodeRouting,
    state: &'a mut rnknn_tnr::TnrSourceState,
    counters: rnknn_ch::ChSearchCounters,
}

impl<'a> TnrOracle<'a> {
    /// Creates the oracle over `tnr`, the index derived from `ch`, and a source
    /// state (forward stopped space + folded table row, computed once per source).
    pub fn new(
        ch: &'a rnknn_ch::ContractionHierarchy,
        tnr: &'a rnknn_tnr::TransitNodeRouting,
        state: &'a mut rnknn_tnr::TnrSourceState,
    ) -> Self {
        TnrOracle { ch, tnr, state, counters: rnknn_ch::ChSearchCounters::default() }
    }
}

impl<'a> DistanceOracle for TnrOracle<'a> {
    fn name(&self) -> &'static str {
        "TNR"
    }
    fn begin_query(&mut self, source: NodeId) {
        let counters = self.tnr.begin_source(self.ch, source, self.state);
        self.counters.accumulate(counters);
    }
    fn distance_within(&mut self, source: NodeId, target: NodeId, _bound: Weight) -> Weight {
        if self.state.source() != Some(source) {
            self.begin_query(source);
        }
        let (d, counters) =
            self.tnr.distance_from_source_with_counters(self.ch, self.state, target);
        self.counters.accumulate(counters);
        d
    }
    fn search_stats(&self) -> OracleSearchStats {
        OracleSearchStats {
            nodes_expanded: self.counters.settled,
            heap_operations: self.counters.heap_pushes,
            matrix_cells: 0,
        }
    }
}

/// MGtree oracle: G-tree distance assembly with per-source materialization
/// (Section 5), bound-pruned against the caller's current k-th candidate.
impl DistanceOracle for rnknn_gtree::GtreeDistanceOracle<'_> {
    fn name(&self) -> &'static str {
        "MGtree"
    }
    fn begin_query(&mut self, source: NodeId) {
        self.begin_source(source);
    }
    fn distance_within(&mut self, source: NodeId, target: NodeId, bound: Weight) -> Weight {
        if self.source() != source {
            self.begin_source(source);
        }
        rnknn_gtree::GtreeDistanceOracle::distance_within(self, target, bound)
    }
    fn search_stats(&self) -> OracleSearchStats {
        let stats = self.stats();
        OracleSearchStats {
            nodes_expanded: stats.materialized_nodes + stats.leaf_vertices_settled,
            heap_operations: stats.heap_pushes,
            matrix_cells: stats.matrix_cells,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn_ch::{ChForwardSearch, ChTargetDirectory, ContractionHierarchy};
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::EdgeWeightKind;
    use rnknn_gtree::{Gtree, GtreeConfig, GtreeDistanceOracle};
    use rnknn_objects::{uniform, ObjectRTree, ObjectSet};
    use rnknn_pathfinding::dijkstra;
    use rnknn_phl::HubLabels;
    use rnknn_tnr::{TnrSourceState, TransitNodeRouting};

    fn brute_knn(g: &Graph, q: NodeId, k: usize, objects: &ObjectSet) -> Vec<Weight> {
        let all = dijkstra::single_source(g, q);
        let mut d: Vec<Weight> = objects.vertices().iter().map(|&o| all[o as usize]).collect();
        d.sort_unstable();
        d.truncate(k);
        d
    }

    fn small_leaves() -> GtreeConfig {
        GtreeConfig { leaf_capacity: 64, ..Default::default() }
    }

    fn check_oracle<O: DistanceOracle>(
        g: &Graph,
        oracle: O,
        objects: &ObjectSet,
        rtree: &ObjectRTree,
    ) {
        let mut ier = IerSearch::new(g, oracle);
        let n = g.num_vertices() as NodeId;
        for &q in &[1u32, n / 3, n - 2] {
            let want = brute_knn(g, q, 6, objects);
            let (got, stats) = ier.knn_with_stats(q, 6, rtree);
            assert_eq!(
                got.iter().map(|&(_, d)| d).collect::<Vec<_>>(),
                want,
                "oracle {} q={q}",
                ier.oracle_name()
            );
            assert!(stats.network_distance_computations >= got.len());
            assert!(stats.euclidean_candidates >= got.len());
        }
    }

    #[test]
    fn ier_is_exact_with_every_oracle_on_distance_graphs() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(700, 17));
        let g = net.graph(EdgeWeightKind::Distance);
        let objects = uniform(&g, 0.02, 3);
        let rtree = ObjectRTree::build(&g, &objects);

        check_oracle(&g, DijkstraOracle::new(&g, &mut SearchScratch::new()), &objects, &rtree);
        check_oracle(&g, AStarOracle::new(&g, &mut SearchScratch::new()), &objects, &rtree);
        let ch = ContractionHierarchy::build(&g);
        let targets = ChTargetDirectory::build(&ch, objects.vertices());
        check_oracle(
            &g,
            ChOracle::new(&ch, &targets, &mut ChForwardSearch::new()),
            &objects,
            &rtree,
        );
        assert_eq!(targets.len(), objects.len(), "every object has a label");
        let labels = HubLabels::from_ch(&g, &ch).expect("within budget");
        check_oracle(&g, PhlOracle::new(&labels), &objects, &rtree);
        let tnr = TransitNodeRouting::from_ch(&g, &ch);
        let mut state = TnrSourceState::new();
        check_oracle(&g, TnrOracle::new(&ch, &tnr, &mut state), &objects, &rtree);
        let gtree = Gtree::build_with_config(&g, small_leaves());
        check_oracle(&g, GtreeDistanceOracle::new(&gtree, &g, 0), &objects, &rtree);
    }

    #[test]
    fn every_oracle_honors_the_bounded_distance_contract() {
        // `distance_within(s, t, b)` is the Dijkstra truth when that is `< b` and
        // some value `>= b` otherwise, for bounds below, at and above the truth.
        for kind in [EdgeWeightKind::Distance, EdgeWeightKind::Time] {
            let net = RoadNetwork::generate(&GeneratorConfig::new(500, 29));
            let g = net.graph(kind);
            let n = g.num_vertices() as NodeId;
            let ch = ContractionHierarchy::build(&g);
            let probed: Vec<NodeId> = (0..n).step_by(37).collect();
            let targets = ChTargetDirectory::build(&ch, &probed);
            let labels = HubLabels::from_ch(&g, &ch).expect("within budget");
            let tnr = TransitNodeRouting::from_ch(&g, &ch);
            let gtree = Gtree::build_with_config(&g, small_leaves());
            let mut search = ChForwardSearch::new();
            let check = |oracle: &mut dyn DistanceOracle| {
                for s in [3, n / 2] {
                    let truth = dijkstra::single_source(&g, s);
                    for t in (0..n).step_by(37).chain([s]) {
                        let exact = truth[t as usize];
                        for bound in [0, exact / 2, exact, exact + 1, INFINITY] {
                            let got = oracle.distance_within(s, t, bound);
                            let name = oracle.name();
                            if exact < bound {
                                assert_eq!(got, exact, "{name} {kind:?} {s}->{t} bound={bound}");
                            } else {
                                assert!(got >= bound, "{name} {kind:?} {s}->{t} bound={bound}");
                            }
                        }
                    }
                }
            };
            check(&mut DijkstraOracle::new(&g, &mut SearchScratch::new()));
            check(&mut AStarOracle::new(&g, &mut SearchScratch::new()));
            check(&mut ChOracle::new(&ch, &targets, &mut search));
            check(&mut PhlOracle::new(&labels));
            check(&mut TnrOracle::new(&ch, &tnr, &mut TnrSourceState::new()));
            check(&mut GtreeDistanceOracle::new(&gtree, &g, 0));
        }
    }

    #[test]
    fn ier_is_exact_on_travel_time_graphs() {
        // Travel-time graphs use the scaled Euclidean lower bound (more false hits, but
        // still exact results).
        let net = RoadNetwork::generate(&GeneratorConfig::new(600, 23));
        let g = net.graph(EdgeWeightKind::Time);
        let objects = uniform(&g, 0.01, 5);
        let rtree = ObjectRTree::build(&g, &objects);
        check_oracle(&g, DijkstraOracle::new(&g, &mut SearchScratch::new()), &objects, &rtree);
        let gtree = Gtree::build_with_config(&g, small_leaves());
        check_oracle(&g, GtreeDistanceOracle::new(&gtree, &g, 0), &objects, &rtree);
        let ch = ContractionHierarchy::build(&g);
        let labels = HubLabels::from_ch(&g, &ch).expect("within budget");
        check_oracle(&g, PhlOracle::new(&labels), &objects, &rtree);
    }

    #[test]
    fn edge_cases_empty_objects_and_small_k() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(200, 2));
        let g = net.graph(EdgeWeightKind::Distance);
        let empty = ObjectSet::new("empty", g.num_vertices(), vec![]);
        let rtree = ObjectRTree::build(&g, &empty);
        let mut scratch = SearchScratch::new();
        let mut ier = IerSearch::new(&g, DijkstraOracle::new(&g, &mut scratch));
        assert!(ier.knn(0, 5, &rtree).is_empty());

        let two = ObjectSet::new("two", g.num_vertices(), vec![10, 20]);
        let rtree = ObjectRTree::build(&g, &two);
        assert_eq!(ier.knn(10, 5, &rtree).len(), 2);
        assert!(ier.knn(10, 0, &rtree).is_empty());
        assert_eq!(ier.knn(10, 1, &rtree)[0], (10, 0));
    }

    #[test]
    fn false_hits_are_counted_when_euclidean_order_disagrees() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(800, 31));
        // Travel time weights make the Euclidean ordering less reliable.
        let g = net.graph(EdgeWeightKind::Time);
        let objects = uniform(&g, 0.05, 7);
        let rtree = ObjectRTree::build(&g, &objects);
        let mut scratch = SearchScratch::new();
        let mut ier = IerSearch::new(&g, DijkstraOracle::new(&g, &mut scratch));
        let mut total_false = 0;
        let n = g.num_vertices() as NodeId;
        for q in (0..n).step_by(97) {
            let (_, stats) = ier.knn_with_stats(q, 5, &rtree);
            total_false += stats.false_hits;
        }
        // Across many queries on a travel-time graph at this density, at least one
        // Euclidean candidate should have been displaced.
        assert!(total_false > 0);
    }
}
