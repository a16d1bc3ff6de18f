//! Incremental Network Expansion (Papadias et al., VLDB 2003) and the implementation
//! ablation of Figure 7.
//!
//! INE is Dijkstra's algorithm that stops after settling `k` objects. The paper uses it
//! both as the expansion-based baseline and as the vehicle for its in-memory
//! implementation study: each of the four [`IneVariant`]s enables one more of the
//! Section 6.2 optimisations, roughly halving query time each (priority queue without
//! decrease-key, bit-array settled set, single-array CSR graph).

use rnknn_graph::{Graph, NodeId, Weight, INFINITY};
use rnknn_objects::ObjectSet;
use rnknn_pathfinding::heap::{IndexedMinHeap, MinHeap};
use rnknn_pathfinding::scratch::SearchScratch;
use rnknn_pathfinding::settled::{BitSettled, HashSettled, SettledContainer};
use rnknn_pathfinding::{QueryBudget, UNLIMITED};

use crate::KnnResult;

/// The four implementation stages compared in Figure 7 (each includes the previous
/// one's optimisations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IneVariant {
    /// "1st Cut": decrease-key binary heap with a position map, hash-set settled
    /// container, per-vertex adjacency-list objects.
    FirstCut,
    /// "PQueue": the workspace's no-decrease-key [`MinHeap`] (duplicates allowed).
    PQueue,
    /// "Settled": bit-array settled container.
    Settled,
    /// "Graph": single-array CSR graph — the production configuration.
    Graph,
}

impl IneVariant {
    /// All variants in the order Figure 7 plots them.
    pub fn all() -> [IneVariant; 4] {
        [IneVariant::FirstCut, IneVariant::PQueue, IneVariant::Settled, IneVariant::Graph]
    }

    /// Display name matching the figure legend.
    pub fn name(self) -> &'static str {
        match self {
            IneVariant::FirstCut => "1st Cut",
            IneVariant::PQueue => "PQueue",
            IneVariant::Settled => "Settled",
            IneVariant::Graph => "Graph",
        }
    }
}

/// Operation counters for one INE query.
#[derive(Debug, Clone, Copy, Default)]
pub struct IneStats {
    /// Vertices settled before the k-th object was found.
    pub settled: usize,
    /// Priority-queue pushes (or decrease-key operations for the first-cut variant).
    pub heap_operations: usize,
}

/// INE query processor. The default construction uses the fully-optimised "Graph"
/// configuration; [`IneSearch::with_variant`] selects an ablation stage (which may copy
/// the graph into the slower per-vertex adjacency representation).
#[derive(Debug)]
pub struct IneSearch<'a> {
    graph: &'a Graph,
    variant: IneVariant,
    /// Per-vertex adjacency lists used by the non-CSR variants of the Figure 7 ablation.
    boxed_adjacency: Option<Vec<Vec<(NodeId, Weight)>>>,
    /// Cooperative cancellation, charged per settled vertex on the production
    /// pooled path ([`IneSearch::knn_with_stats_in`]). The ablation variants
    /// ignore it — they exist to measure Figure 7, not to serve traffic.
    budget: &'a QueryBudget,
}

impl<'a> IneSearch<'a> {
    /// Creates the production-configuration INE search.
    pub fn new(graph: &'a Graph) -> Self {
        Self::with_variant(graph, IneVariant::Graph)
    }

    /// Creates an INE search using one of the Figure 7 ablation stages.
    pub fn with_variant(graph: &'a Graph, variant: IneVariant) -> Self {
        let boxed_adjacency = if variant == IneVariant::Graph {
            None
        } else {
            Some(graph.vertices().map(|v| graph.neighbors(v).collect()).collect())
        };
        IneSearch { graph, variant, boxed_adjacency, budget: &UNLIMITED }
    }

    /// Attaches a [`QueryBudget`] charged per settled vertex (production pooled
    /// path only); an exhausted budget truncates the expansion early.
    pub fn set_budget(&mut self, budget: &'a QueryBudget) {
        self.budget = budget;
    }

    /// The variant this search uses.
    pub fn variant(&self) -> IneVariant {
        self.variant
    }

    /// The `k` objects nearest to `query`.
    pub fn knn(&self, query: NodeId, k: usize, objects: &ObjectSet) -> KnnResult {
        self.knn_with_stats(query, k, objects).0
    }

    /// Same as [`IneSearch::knn`] but also returns operation counters.
    ///
    /// This path allocates its search state fresh per call (the Figure 7 ablation
    /// semantics); the production query path is [`IneSearch::knn_with_stats_in`].
    pub fn knn_with_stats(
        &self,
        query: NodeId,
        k: usize,
        objects: &ObjectSet,
    ) -> (KnnResult, IneStats) {
        match self.variant {
            IneVariant::FirstCut => self.knn_first_cut(query, k, objects),
            IneVariant::PQueue => self.knn_generic::<HashSettled>(query, k, objects, true),
            IneVariant::Settled => self.knn_generic::<BitSettled>(query, k, objects, true),
            IneVariant::Graph => self.knn_generic::<BitSettled>(query, k, objects, false),
        }
    }

    /// The production ("Graph" variant) INE search running on a reusable
    /// [`SearchScratch`] and writing into a caller-owned result vector (cleared
    /// first). Epoch tags replace the per-query `O(n)` distance-array allocation and
    /// wipe, so with warmed buffers a query allocates nothing. Ablation variants
    /// fall back to the allocating path — their measured cost *is* their allocation
    /// behaviour.
    pub fn knn_with_stats_in(
        &self,
        query: NodeId,
        k: usize,
        objects: &ObjectSet,
        scratch: &mut SearchScratch,
        result: &mut KnnResult,
    ) -> IneStats {
        if self.variant != IneVariant::Graph {
            let (r, stats) = self.knn_with_stats(query, k, objects);
            result.clear();
            result.extend_from_slice(&r);
            return stats;
        }
        let mut stats = IneStats::default();
        result.clear();
        if k == 0 || objects.is_empty() {
            return stats;
        }
        scratch.begin(self.graph.num_vertices());
        scratch.relax(query, 0);
        stats.heap_operations += 1;
        while let Some((d, v)) = scratch.heap.pop() {
            if !scratch.visited.settle(v) {
                continue;
            }
            stats.settled += 1;
            if objects.contains(v) {
                result.push((v, d));
                if result.len() >= k {
                    break;
                }
            }
            if !self.budget.charge(1) {
                break;
            }
            for (t, w) in self.graph.neighbors(v) {
                if scratch.relax(t, d + w) {
                    stats.heap_operations += 1;
                }
            }
        }
        stats
    }

    /// Decrease-key + hash-settled + boxed adjacency: the paper's "first cut".
    fn knn_first_cut(&self, query: NodeId, k: usize, objects: &ObjectSet) -> (KnnResult, IneStats) {
        let mut stats = IneStats::default();
        let mut result = Vec::new();
        if k == 0 || objects.is_empty() {
            return (result, stats);
        }
        let adjacency = self.boxed_adjacency.as_ref().expect("built for non-CSR variants");
        let mut heap = IndexedMinHeap::new(self.graph.num_vertices());
        let mut settled = HashSettled::for_vertices(self.graph.num_vertices());
        heap.push_or_decrease(0, query);
        stats.heap_operations += 1;
        while let Some((d, v)) = heap.pop() {
            if !settled.settle(v) {
                continue;
            }
            stats.settled += 1;
            if objects.contains(v) {
                result.push((v, d));
                if result.len() >= k {
                    break;
                }
            }
            for &(t, w) in &adjacency[v as usize] {
                if !settled.is_settled(t) && heap.push_or_decrease(d + w, t) {
                    stats.heap_operations += 1;
                }
            }
        }
        (result, stats)
    }

    /// The three no-decrease-key stages, parameterised by settled container and graph
    /// representation.
    fn knn_generic<S: SettledContainer>(
        &self,
        query: NodeId,
        k: usize,
        objects: &ObjectSet,
        boxed_graph: bool,
    ) -> (KnnResult, IneStats) {
        let mut stats = IneStats::default();
        let mut result = Vec::new();
        if k == 0 || objects.is_empty() {
            return (result, stats);
        }
        let n = self.graph.num_vertices();
        let mut dist = vec![INFINITY; n];
        let mut settled = S::for_vertices(n);
        let mut heap: MinHeap<NodeId> = MinHeap::new();
        dist[query as usize] = 0;
        heap.push(0, query);
        stats.heap_operations += 1;
        while let Some((d, v)) = heap.pop() {
            if !settled.settle(v) {
                continue;
            }
            stats.settled += 1;
            if objects.contains(v) {
                result.push((v, d));
                if result.len() >= k {
                    break;
                }
            }
            if boxed_graph {
                let adjacency = self.boxed_adjacency.as_ref().expect("built for non-CSR variants");
                for &(t, w) in &adjacency[v as usize] {
                    let nd = d + w;
                    if nd < dist[t as usize] {
                        dist[t as usize] = nd;
                        heap.push(nd, t);
                        stats.heap_operations += 1;
                    }
                }
            } else {
                for (t, w) in self.graph.neighbors(v) {
                    let nd = d + w;
                    if nd < dist[t as usize] {
                        dist[t as usize] = nd;
                        heap.push(nd, t);
                        stats.heap_operations += 1;
                    }
                }
            }
        }
        (result, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::EdgeWeightKind;
    use rnknn_objects::uniform;
    use rnknn_pathfinding::dijkstra;

    fn brute_knn(g: &Graph, q: NodeId, k: usize, objects: &ObjectSet) -> Vec<Weight> {
        let all = dijkstra::single_source(g, q);
        let mut d: Vec<Weight> = objects.vertices().iter().map(|&o| all[o as usize]).collect();
        d.sort_unstable();
        d.truncate(k);
        d
    }

    #[test]
    fn all_variants_return_identical_correct_results() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(800, 3));
        let g = net.graph(EdgeWeightKind::Distance);
        let objects = uniform(&g, 0.02, 11);
        let n = g.num_vertices() as NodeId;
        for &q in &[0u32, n / 2, n - 1] {
            let want = brute_knn(&g, q, 7, &objects);
            for variant in IneVariant::all() {
                let search = IneSearch::with_variant(&g, variant);
                let (got, stats) = search.knn_with_stats(q, 7, &objects);
                assert_eq!(
                    got.iter().map(|&(_, d)| d).collect::<Vec<_>>(),
                    want,
                    "variant {variant:?} q={q}"
                );
                assert!(stats.settled > 0);
                assert!(stats.heap_operations >= stats.settled);
                assert_eq!(search.variant(), variant);
            }
        }
    }

    #[test]
    fn pooled_path_matches_allocating_path() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(600, 5));
        let g = net.graph(EdgeWeightKind::Distance);
        let objects = uniform(&g, 0.03, 4);
        let search = IneSearch::new(&g);
        let mut scratch = SearchScratch::new();
        let mut result = KnnResult::new();
        let n = g.num_vertices() as NodeId;
        for q in (0..n).step_by(53) {
            let (want, want_stats) = search.knn_with_stats(q, 6, &objects);
            let stats = search.knn_with_stats_in(q, 6, &objects, &mut scratch, &mut result);
            assert_eq!(result, want, "q={q}");
            assert_eq!(stats.settled, want_stats.settled, "q={q}");
            assert_eq!(stats.heap_operations, want_stats.heap_operations, "q={q}");
        }
    }

    #[test]
    fn handles_query_on_object_empty_set_and_large_k() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(300, 9));
        let g = net.graph(EdgeWeightKind::Distance);
        let search = IneSearch::new(&g);
        let empty = ObjectSet::new("empty", g.num_vertices(), vec![]);
        assert!(search.knn(5, 3, &empty).is_empty());
        let small = ObjectSet::new("small", g.num_vertices(), vec![7, 8]);
        let got = search.knn(7, 10, &small);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], (7, 0));
        assert!(search.knn(7, 0, &small).is_empty());
    }

    #[test]
    fn variant_names_match_figure_legend() {
        assert_eq!(IneVariant::FirstCut.name(), "1st Cut");
        assert_eq!(IneVariant::Graph.name(), "Graph");
        assert_eq!(IneVariant::all().len(), 4);
    }
}
