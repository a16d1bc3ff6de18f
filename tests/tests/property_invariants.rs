//! Property-style integration tests: core invariants that must hold on arbitrary
//! generated road networks, object sets and query parameters.
//!
//! The parameter space is explored with a deterministic linear-congruential sweep
//! rather than `proptest` (the workspace builds offline, with no external crates);
//! every case is reproducible from the printed parameters.

use rnknn::disbrw::DisBrwSearch;
use rnknn::ier::{DijkstraOracle, IerSearch};
use rnknn::ine::{IneSearch, IneVariant};
use rnknn::verify::{ground_truth, matches_ground_truth};
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::{EdgeWeightKind, Graph, NodeId};
use rnknn_gtree::{Gtree, GtreeConfig, GtreeSearch, LeafSearchMode, OccurrenceList};
use rnknn_objects::{ObjectRTree, ObjectSet};
use rnknn_pathfinding::{dijkstra, SearchScratch};
use rnknn_road::{AssociationDirectory, RoadIndex, RoadKnn};
use rnknn_silc::{SilcConfig, SilcIndex};

/// A tiny deterministic generator for sweep parameters (SplitMix64).
struct Sweep(u64);

impl Sweep {
    fn new(seed: u64) -> Sweep {
        Sweep(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `lo..hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() as usize) % (hi - lo)
    }
}

/// Generates a small road network and an object set from sweep parameters.
fn make_world(
    size: usize,
    seed: u64,
    kind: EdgeWeightKind,
    object_stride: usize,
) -> (Graph, ObjectSet) {
    let net = RoadNetwork::generate(&GeneratorConfig::new(size, seed));
    let graph = net.graph(kind);
    let objects: Vec<NodeId> =
        graph.vertices().filter(|v| (*v as usize) % object_stride == 1).collect();
    let set = ObjectSet::new("prop", graph.num_vertices(), objects);
    (graph, set)
}

/// INE (every ablation variant) always matches the Dijkstra ground truth.
#[test]
fn ine_variants_match_ground_truth() {
    let mut sweep = Sweep::new(1);
    for _ in 0..12 {
        let seed = sweep.next() % 500;
        let size = sweep.range(150, 400);
        let stride = sweep.range(3, 40);
        let k = sweep.range(1, 12);
        let (graph, objects) = make_world(size, seed, EdgeWeightKind::Distance, stride);
        let q = (sweep.next() as NodeId) % graph.num_vertices() as NodeId;
        for variant in IneVariant::all() {
            let answer = IneSearch::with_variant(&graph, variant).knn(q, k, &objects);
            assert!(
                matches_ground_truth(&graph, q, k, &objects, &answer),
                "{variant:?} seed={seed} size={size} stride={stride} k={k} q={q}"
            );
        }
    }
}

/// IER over the R-tree browser is exact for both edge-weight kinds.
#[test]
fn ier_matches_ground_truth() {
    let mut sweep = Sweep::new(2);
    for case in 0..12 {
        let seed = sweep.next() % 500;
        let size = sweep.range(150, 400);
        let stride = sweep.range(3, 40);
        let k = sweep.range(1, 12);
        let kind = if case % 2 == 0 { EdgeWeightKind::Distance } else { EdgeWeightKind::Time };
        let (graph, objects) = make_world(size, seed, kind, stride);
        let q = (sweep.next() as NodeId) % graph.num_vertices() as NodeId;
        let rtree = ObjectRTree::build(&graph, &objects);
        let answer = IerSearch::new(&graph, DijkstraOracle::new(&graph, &mut SearchScratch::new()))
            .knn(q, k, &rtree);
        assert!(
            matches_ground_truth(&graph, q, k, &objects, &answer),
            "seed={seed} size={size} stride={stride} k={k} q={q} kind={kind:?}"
        );
    }
}

/// G-tree point-to-point distances equal Dijkstra and its kNN equals ground truth
/// with both leaf-search modes.
#[test]
fn gtree_matches_ground_truth() {
    let mut sweep = Sweep::new(3);
    for _ in 0..10 {
        let seed = sweep.next() % 300;
        let size = sweep.range(150, 350);
        let stride = sweep.range(3, 30);
        let k = sweep.range(1, 10);
        let tau = sweep.range(16, 64);
        let (graph, objects) = make_world(size, seed, EdgeWeightKind::Distance, stride);
        let q = (sweep.next() as NodeId) % graph.num_vertices() as NodeId;
        let gtree = Gtree::build_with_config(
            &graph,
            GtreeConfig { leaf_capacity: tau, ..Default::default() },
        );
        // Point-to-point spot checks.
        let truth = dijkstra::single_source(&graph, q);
        let mut search = GtreeSearch::new(&gtree, &graph, q);
        for t in (0..graph.num_vertices() as NodeId).step_by(29) {
            assert_eq!(search.distance_to(t), truth[t as usize], "seed={seed} q={q} t={t}");
        }
        // kNN with both leaf-search modes.
        let occurrence = OccurrenceList::build(&gtree, objects.vertices());
        for mode in [LeafSearchMode::Improved, LeafSearchMode::Original] {
            let answer = GtreeSearch::new(&gtree, &graph, q).knn(k, &occurrence, mode);
            assert!(
                matches_ground_truth(&graph, q, k, &objects, &answer),
                "seed={seed} size={size} tau={tau} k={k} q={q} mode={mode:?}"
            );
        }
    }
}

/// ROAD equals ground truth for arbitrary hierarchy shapes: it is derived from a
/// G-tree of any fanout and leaf capacity.
#[test]
fn road_matches_ground_truth() {
    let mut sweep = Sweep::new(4);
    for _ in 0..10 {
        let seed = sweep.next() % 300;
        let size = sweep.range(150, 350);
        let stride = sweep.range(3, 30);
        let k = sweep.range(1, 10);
        let fanout = sweep.range(2, 5);
        let tau = sweep.range(8, 64);
        let (graph, objects) = make_world(size, seed, EdgeWeightKind::Distance, stride);
        let q = (sweep.next() as NodeId) % graph.num_vertices() as NodeId;
        let config = GtreeConfig { fanout, leaf_capacity: tau, ..Default::default() };
        let road = RoadIndex::from_gtree(&graph, &Gtree::build_with_config(&graph, config));
        let directory =
            AssociationDirectory::build(&road, graph.num_vertices(), objects.vertices());
        let answer = RoadKnn::new(&graph, &road).knn(q, k, &directory);
        assert!(
            matches_ground_truth(&graph, q, k, &objects, &answer),
            "seed={seed} size={size} stride={stride} k={k} q={q} fanout={fanout} tau={tau}"
        );
    }
}

/// SILC intervals always bracket the true distance, and Distance Browsing (DB-ENN)
/// equals ground truth.
#[test]
fn silc_and_disbrw_match_ground_truth() {
    let mut sweep = Sweep::new(5);
    for _ in 0..8 {
        let seed = sweep.next() % 200;
        let size = sweep.range(120, 300);
        let stride = sweep.range(3, 25);
        let k = sweep.range(1, 8);
        let (graph, objects) = make_world(size, seed, EdgeWeightKind::Distance, stride);
        let q = (sweep.next() as NodeId) % graph.num_vertices() as NodeId;
        let silc = SilcIndex::try_build(&graph, &SilcConfig { max_vertices: 100_000, threads: 1 })
            .expect("small graph");
        let truth = dijkstra::single_source(&graph, q);
        for t in (0..graph.num_vertices() as NodeId).step_by(17) {
            let interval = silc.interval(&graph, q, t);
            assert!(interval.lower <= truth[t as usize], "seed={seed} q={q} t={t}");
            assert!(interval.upper >= truth[t as usize], "seed={seed} q={q} t={t}");
        }
        let rtree = ObjectRTree::build(&graph, &objects);
        let answer =
            DisBrwSearch::new(&graph, &silc, Some(silc.chains())).knn(q, k, &rtree, &objects);
        assert!(
            matches_ground_truth(&graph, q, k, &objects, &answer),
            "seed={seed} size={size} stride={stride} k={k} q={q}"
        );
    }
}

/// The ground-truth helper itself: results are sorted, within k, and all objects.
#[test]
fn ground_truth_shape() {
    let mut sweep = Sweep::new(6);
    for _ in 0..12 {
        let seed = sweep.next() % 500;
        let size = sweep.range(100, 300);
        let stride = sweep.range(2, 30);
        let k = sweep.range(0, 15);
        let (graph, objects) = make_world(size, seed, EdgeWeightKind::Distance, stride);
        let q = (sweep.next() as NodeId) % graph.num_vertices() as NodeId;
        let truth = ground_truth(&graph, q, k, &objects);
        assert!(truth.len() <= k);
        assert!(truth.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(truth.iter().all(|&(o, _)| objects.contains(o)));
    }
}
