//! IER oracle comparison: reproduce the spirit of Figure 4 interactively — the same IER
//! kNN query answered with each shortest-path oracle, showing why "IER revisited" with a
//! fast oracle beats the classic Dijkstra-based IER.
//!
//! ```sh
//! cargo run --release -p rnknn-examples --bin oracle_comparison
//! ```

use std::time::Instant;

use rnknn::ch::{ChForwardSearch, ChTargetDirectory};
use rnknn::gtree::GtreeDistanceOracle;
use rnknn::ier::{
    AStarOracle, ChOracle, DijkstraOracle, DistanceOracle, IerSearch, PhlOracle, TnrOracle,
};
use rnknn::pathfinding::SearchScratch;
use rnknn::tnr::TnrSourceState;
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::{EdgeWeightKind, NodeId};
use rnknn_objects::{uniform, ObjectRTree};

fn time_oracle<O: DistanceOracle>(
    graph: &rnknn_graph::Graph,
    oracle: O,
    rtree: &ObjectRTree,
    queries: &[NodeId],
    k: usize,
) -> (String, f64, Vec<u64>) {
    let mut ier = IerSearch::new(graph, oracle);
    let name = ier.oracle_name().to_string();
    let start = Instant::now();
    let mut last = Vec::new();
    for &q in queries {
        last = ier.knn(q, k, rtree).iter().map(|&(_, d)| d).collect();
    }
    let avg_micros = start.elapsed().as_micros() as f64 / queries.len() as f64;
    (name, avg_micros, last)
}

fn main() {
    // 20k was far past the CH preprocessing wall before priority caching and
    // hop-limited witness searches; now the whole oracle build is dominated by the
    // other indexes.
    let network = RoadNetwork::generate(&GeneratorConfig::new(20_000, 4));
    let graph = network.graph(EdgeWeightKind::Distance);
    let objects = uniform(&graph, 0.001, 17);
    let rtree = ObjectRTree::build(&graph, &objects);
    println!(
        "IER with different network-distance oracles ({} vertices, {} objects, k=10)",
        graph.num_vertices(),
        objects.len()
    );

    println!("building oracles...");
    let ch_start = Instant::now();
    let ch = rnknn::ch::ContractionHierarchy::build(&graph);
    println!("  CH: {} shortcuts in {:.2}s", ch.num_shortcuts(), ch_start.elapsed().as_secs_f64());
    // PHL and TNR are derived from that one hierarchy; TNR's queries read it too.
    let phl = rnknn::phl::HubLabels::from_ch(&graph, &ch).expect("label budget");
    let tnr = rnknn::tnr::TransitNodeRouting::from_ch(&graph, &ch);
    let gtree = rnknn::gtree::Gtree::build(&graph);

    let n = graph.num_vertices() as NodeId;
    let queries: Vec<NodeId> = (0..40u32).map(|i| (i * 2_654_435) % n).collect();
    let k = 10;

    // Each `X::new(..)` is the oracle the engine ships, borrowing fresh buffers
    // where the engine would lend its pooled ones: every candidate search is
    // bounded by IER's running k-th candidate distance.
    let mut scratch = SearchScratch::new();
    let targets = ChTargetDirectory::build(&ch, objects.vertices());
    let mut search = ChForwardSearch::new();
    let mut state = TnrSourceState::new();
    let rows = vec![
        time_oracle(&graph, DijkstraOracle::new(&graph, &mut scratch), &rtree, &queries, k),
        time_oracle(&graph, AStarOracle::new(&graph, &mut scratch), &rtree, &queries, k),
        time_oracle(&graph, ChOracle::new(&ch, &targets, &mut search), &rtree, &queries, k),
        time_oracle(&graph, TnrOracle::new(&ch, &tnr, &mut state), &rtree, &queries, k),
        time_oracle(&graph, GtreeDistanceOracle::new(&gtree, &graph, 0), &rtree, &queries, k),
        time_oracle(&graph, PhlOracle::new(&phl), &rtree, &queries, k),
    ];

    let reference = rows[0].2.clone();
    println!("\n{:<10} {:>14}   result", "oracle", "avg query (µs)");
    for (name, micros, distances) in &rows {
        assert_eq!(distances, &reference, "all oracles must return identical kNN results");
        println!("{:<10} {:>14.1}   {:?}", name, micros, &distances[..3.min(distances.len())]);
    }
    println!("\nAll oracles return identical results; only the query time differs (Figure 4).");
}
