//! Regression guard for G-tree construction at scale: builds must stay exact (kNN
//! agreement with a Dijkstra brute force) at sizes where the pre-refactor assembly
//! went superlinear, and (in release builds) must finish inside a wall-clock budget.
//!
//! History: the seed's assembly ran one full reduced-graph Dijkstra per matrix row
//! over dense child-border cliques in both the bottom-up and the refinement pass; a
//! ~116k-vertex build took ~19s single-threaded in release mode. With sparsified
//! cliques, the min-plus refinement sweep, and level-parallel assembly the same build
//! is ~7s on one core, so the release budgets below have comfortable slack — if one
//! trips, the superlinear assembly is back. The composed-vs-naive matrix equality
//! lives in `rnknn-gtree`'s unit tests (`composition_matches_naive_per_pair_build`).
//! The ROAD index derived from the 23k G-tree is counted here too: it must hold
//! the G-tree's partition, not one of its own.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use rnknn::engine::{Engine, EngineConfig};
use rnknn::ier::IerSearch;
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::{EdgeWeightKind, NodeId, Weight};
use rnknn_gtree::{Gtree, GtreeDistanceOracle, LeafSearchMode, OccurrenceList};
use rnknn_objects::{uniform, ObjectRTree};
use rnknn_pathfinding::dijkstra;

/// Builds a G-tree with the paper's size-based configuration and checks kNN results
/// against a Dijkstra brute force on `queries` query vertices. Returns the build time.
fn build_and_verify(size: usize, kind: EdgeWeightKind, queries: u32) -> Duration {
    let net = RoadNetwork::generate(&GeneratorConfig::new(size, 42));
    let g = net.graph(kind);
    let start = Instant::now();
    let tree = Gtree::build(&g);
    let elapsed = start.elapsed();

    let n = g.num_vertices() as NodeId;
    let objects: Vec<NodeId> = (0..n).filter(|v| v % 37 == 5).collect();
    let occ = OccurrenceList::build(&tree, &objects);
    for i in 0..queries {
        let q = (i * 7919 + 11) % n;
        let truth = dijkstra::single_source(&g, q);
        let mut want: Vec<Weight> = objects.iter().map(|&o| truth[o as usize]).collect();
        want.sort_unstable();
        want.truncate(10);
        for mode in [LeafSearchMode::Improved, LeafSearchMode::Original] {
            let mut search = rnknn_gtree::GtreeSearch::new(&tree, &g, q);
            let got: Vec<Weight> = search.knn(10, &occ, mode).iter().map(|&(_, d)| d).collect();
            assert_eq!(got, want, "kNN from {q} at size {size} {kind:?} {mode:?}");
        }
    }
    elapsed
}

#[test]
fn gtree_knn_matches_dijkstra_at_5k_on_both_weight_kinds() {
    for kind in [EdgeWeightKind::Distance, EdgeWeightKind::Time] {
        let elapsed = build_and_verify(5_000, kind, 4);
        // Debug builds are ~10x slower; only release timings are meaningful.
        if !cfg!(debug_assertions) {
            assert!(elapsed < Duration::from_secs(3), "5k {kind:?} build took {elapsed:?}");
        }
    }
}

/// Mean work per query on the fixed 23k instance the guards below count on: the
/// benchmark's network, density 0.01, k = 10, 200 seeded queries.
struct WorkAt23k {
    /// Matrix and child-minimum table cells a G-tree kNN query reads.
    gtree_cells: u64,
    /// Vertices its source-leaf search settles.
    leaf_settles: u64,
    /// Cells the IER-Gt oracle reads for one IER kNN query.
    ier_gt_cells: u64,
}

/// The benchmark's 23k network with the engine's G-tree (the paper's leaf capacity)
/// and the ROAD index derived from it, built once for every guard.
fn engine_at_23k() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let g = RoadNetwork::generate(&GeneratorConfig::new(20_000, 42))
            .graph(EdgeWeightKind::Distance);
        let config = EngineConfig {
            build_ch: false,
            build_silc: false,
            build_phl: false,
            ..EngineConfig::minimal()
        };
        Engine::build(g, &config)
    })
}

/// [`WorkAt23k`], measured once for every guard.
fn work_per_query_at_23k() -> &'static WorkAt23k {
    static MEANS: OnceLock<WorkAt23k> = OnceLock::new();
    MEANS.get_or_init(|| {
        let engine = engine_at_23k();
        let (g, tree) = (engine.graph(), engine.gtree().expect("G-tree built"));
        let objects = uniform(g, 0.01, 42);
        let occ = OccurrenceList::build(tree, objects.vertices());
        let rtree = ObjectRTree::build(g, &objects);
        let n = g.num_vertices() as u64;
        let queries: Vec<NodeId> = (0..200u64).map(|i| (i * 2_654_435_769 % n) as NodeId).collect();
        let (mut gtree_cells, mut leaf_settles, mut ier_gt_cells) = (0, 0, 0);
        for &q in &queries {
            let mut search = rnknn_gtree::GtreeSearch::new(tree, g, q);
            assert_eq!(search.knn(10, &occ, LeafSearchMode::Improved).len(), 10);
            gtree_cells += search.stats.matrix_cells;
            leaf_settles += search.stats.leaf_vertices_settled;
            let mut ier = IerSearch::new(g, GtreeDistanceOracle::new(tree, g, q));
            assert_eq!(ier.knn(q, 10, &rtree).len(), 10);
            ier_gt_cells += ier.oracle().stats().matrix_cells;
        }
        let per_query = |total: u64| total / queries.len() as u64;
        let work = WorkAt23k {
            gtree_cells: per_query(gtree_cells),
            leaf_settles: per_query(leaf_settles),
            ier_gt_cells: per_query(ier_gt_cells),
        };
        println!(
            "at {n} vertices, d 0.01, k 10: G-tree {} cells, {} leaf settles; IER-Gt {} cells",
            work.gtree_cells, work.leaf_settles, work.ier_gt_cells
        );
        work
    })
}

/// A work guard no box's speed can flip: the mean distance-matrix (and child-minimum
/// table) cells one kNN query reads on the fixed 23k instance. Sweeps that read only
/// each source row's entry borders read 43 508; sweeping every finite source row
/// read 96 192; assembling every enqueued child's row to key it, and sweeping each
/// sibling's row apart from the climb that already streams it, read 194 304. The
/// ceiling sits between the first two.
#[test]
fn gtree_knn_reads_at_most_70k_cells_per_query_at_23k() {
    let mean = work_per_query_at_23k().gtree_cells;
    assert!(mean < 70_000, "{mean} matrix cells per query: are dominated source rows swept?");
}

/// The same guard for the IER-Gt oracle (IER over `GtreeDistanceOracle`) on the
/// same queries: 37 914 cells per query with entry borders, 84 234 without. The
/// ceiling sits between the two.
#[test]
fn ier_gt_reads_at_most_60k_cells_per_query_at_23k() {
    let mean = work_per_query_at_23k().ier_gt_cells;
    assert!(mean < 60_000, "{mean} matrix cells per query: are dominated source rows swept?");
}

/// The same guard for the source-leaf search: the mean vertices it settles per
/// query. Seeded at the leaf's borders and stopped at the leaf's last wanted object
/// it settles 32; relaxing the border clique and settling the whole leaf whenever it
/// holds fewer than k objects settled 54. The ceiling sits between the two.
#[test]
fn gtree_knn_settles_at_most_43_leaf_vertices_per_query_at_23k() {
    let mean = work_per_query_at_23k().leaf_settles;
    assert!(mean < 43, "{mean} leaf vertices settled per query: is the whole leaf searched?");
}

/// ROAD is derived from that G-tree: its Rnets are the G-tree's nodes (341), and its
/// overlay is each node's border × border block of global distances, sparsified,
/// plus the leaving edges — 160 360 entries. ROAD's own partition (fanout 4, leaf
/// Rnets of ≈ 23 vertices, restricted distances) held 227 956 entries over 1 365
/// Rnets. The ceiling sits between the two, so a second partition fails here on any
/// box.
#[test]
fn road_is_the_gtree_partition_with_at_most_180k_overlay_entries_at_23k() {
    let engine = engine_at_23k();
    let (gtree, road) = (engine.gtree().expect("G-tree built"), engine.road().expect("ROAD"));
    assert_eq!(road.num_rnets(), gtree.num_nodes(), "ROAD partitioned the network again");
    assert!(std::sync::Arc::ptr_eq(road.hierarchy(), gtree.hierarchy()), "ROAD copied the tree");
    let entries = road.num_shortcut_entries();
    assert!(entries <= 180_000, "{entries} overlay entries: is ROAD on a partition of its own?");
}

// The 20k build is release-only: the point is the wall-clock regression guard, and in
// debug mode the build alone would dominate the tier-1 suite without adding coverage
// beyond the 5k case above.
#[cfg(not(debug_assertions))]
#[test]
fn gtree_knn_matches_dijkstra_at_20k_within_wall_clock_budget() {
    for kind in [EdgeWeightKind::Distance, EdgeWeightKind::Time] {
        let elapsed = build_and_verify(20_000, kind, 3);
        // Measured ~0.9s per weight kind on one core; 8s means the superlinear
        // assembly is back.
        assert!(elapsed < Duration::from_secs(8), "20k {kind:?} build took {elapsed:?}");
    }
}

// 250k guard for the refinement/composition wall (fixed by the tiled triangle-only
// min-plus sweep with the explicit SIMD kernel and the nearest-first clique
// sparsification): measured ~20s single-core post-fix, ~30s pre-fix and climbing
// superlinearly. One weight kind keeps the release suite's wall-clock reasonable.
#[cfg(not(debug_assertions))]
#[test]
fn gtree_knn_matches_dijkstra_at_250k_within_wall_clock_budget() {
    let elapsed = build_and_verify(250_000, EdgeWeightKind::Distance, 2);
    assert!(elapsed < Duration::from_secs(60), "250k build took {elapsed:?}");
}
