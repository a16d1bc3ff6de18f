//! Degenerate-query coverage for every method.
//!
//! These are the inputs a server in front of the engine will eventually receive:
//! `k = 0`, `k` beyond the object count, an empty object set, a query standing on an
//! object, and networks with disconnected components. Every method must answer with
//! the same `Result`/empty-answer semantics — never a panic, and never a
//! method-specific interpretation of "no answer".

use rnknn::engine::{Engine, EngineConfig, Method};
use rnknn::{EngineError, IndexKind};
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::testgraphs::{unit_grids, zero_weight_grid};
use rnknn_graph::{GraphBuilder, NodeId, Point, Weight, INFINITY};
use rnknn_gtree::GtreeConfig;
use rnknn_objects::{uniform, ObjectSet};
use rnknn_pathfinding::dijkstra;

fn full_engine(n: usize, seed: u64) -> Engine {
    let net = RoadNetwork::generate(&GeneratorConfig::new(n, seed));
    let config = EngineConfig {
        build_tnr: true,
        gtree_config: GtreeConfig { leaf_capacity: 64, ..Default::default() },
        ..Default::default()
    };
    Engine::build(net.graph(rnknn_graph::EdgeWeightKind::Distance), &config)
}

fn supported(engine: &Engine) -> Vec<Method> {
    Method::ALL.into_iter().filter(|&m| engine.supports(m)).collect()
}

#[test]
fn k_zero_is_invalid_k_for_every_method() {
    let mut engine = full_engine(500, 11);
    engine.set_objects(uniform(engine.graph(), 0.05, 3));
    // k = 0 is rejected before dispatch, so the error is identical for every
    // method — supported or not.
    for method in Method::ALL {
        assert_eq!(
            engine.query(method, 1, 0).unwrap_err(),
            EngineError::InvalidK { k: 0 },
            "{}",
            method.name()
        );
    }
}

#[test]
fn k_beyond_object_count_returns_every_reachable_object() {
    let mut engine = full_engine(500, 12);
    let objects = uniform(engine.graph(), 0.01, 5);
    let count = objects.len();
    assert!(count > 0);
    engine.set_objects(objects);
    for method in supported(&engine) {
        let output = engine.query(method, 7, count + 25).expect("supported");
        assert_eq!(output.result.len(), count, "{}", method.name());
        assert!(
            output.result.windows(2).all(|w| w[0].1 <= w[1].1),
            "{} returned unsorted distances",
            method.name()
        );
    }
}

#[test]
fn empty_object_set_yields_ok_and_empty_for_every_method() {
    let mut engine = full_engine(400, 13);
    engine.set_objects(ObjectSet::new("empty", engine.graph().num_vertices(), vec![]));
    for method in supported(&engine) {
        let output = engine
            .query(method, 3, 5)
            .unwrap_or_else(|e| panic!("{} errored on empty object set: {e}", method.name()));
        assert!(
            output.result.is_empty(),
            "{} fabricated answers from an empty object set",
            method.name()
        );
    }
}

#[test]
fn query_vertex_that_is_an_object_ranks_itself_first_at_distance_zero() {
    let mut engine = full_engine(500, 14);
    let objects = uniform(engine.graph(), 0.02, 9);
    let object_vertex = objects.vertices()[objects.len() / 2];
    engine.set_objects(objects);
    for method in supported(&engine) {
        let output = engine.query(method, object_vertex, 3).expect("supported");
        assert_eq!(
            output.result.first(),
            Some(&(object_vertex, 0)),
            "{} does not rank the co-located object first",
            method.name()
        );
    }
}

/// Two disjoint path components with coordinates far apart. Objects live in both;
/// only the query's component is reachable, so every method must return exactly the
/// reachable objects (unreachable ones are silently dropped, not reported at
/// `INFINITY` and not a panic).
#[test]
fn disconnected_components_drop_unreachable_objects_consistently() {
    let mut b = GraphBuilder::new();
    let per_side = 40usize;
    for i in 0..per_side {
        b.add_vertex(Point::new(i as f64 * 10.0, 0.0));
    }
    for i in 0..per_side {
        b.add_vertex(Point::new(i as f64 * 10.0, 10_000.0));
    }
    for i in 0..per_side - 1 {
        b.add_edge(i as NodeId, (i + 1) as NodeId, 10 + (i as u64 % 7));
        b.add_edge((per_side + i) as NodeId, (per_side + i + 1) as NodeId, 12 + (i as u64 % 5));
    }
    let graph = b.build();
    let n = graph.num_vertices();
    let config = EngineConfig {
        build_tnr: true,
        gtree_config: GtreeConfig { leaf_capacity: 16, ..Default::default() },
        ..Default::default()
    };
    let mut engine = Engine::build(graph, &config);
    // Three objects on the query's side, two on the far component.
    let objects = ObjectSet::new(
        "split",
        n,
        vec![4, 19, 33, (per_side + 5) as NodeId, (per_side + 21) as NodeId],
    );
    engine.set_objects(objects);
    for method in supported(&engine) {
        let output = engine
            .query(method, 0, 10)
            .unwrap_or_else(|e| panic!("{} errored on disconnected graph: {e}", method.name()));
        let vertices: Vec<NodeId> = output.result.iter().map(|&(v, _)| v).collect();
        assert_eq!(
            vertices,
            vec![4, 19, 33],
            "{} must return exactly the reachable objects in distance order",
            method.name()
        );
    }
}

/// The input shapes the generator never produces but the loaders accept — zero-weight
/// edges (reachable through `Graph::from_csr` or a loaded artifact), unit weights
/// (ties everywhere), several components — against Dijkstra, `k` above what some
/// components hold. SILC refuses the zero-weight grid, so there the two Distance
/// Browsing methods answer `MissingIndex` (docs/CORRECTNESS.md, "The weight contract").
#[test]
fn every_method_is_dijkstra_exact_on_zero_weights_ties_and_components() {
    // (network, whether SILC indexes it)
    let shapes =
        [(zero_weight_grid(24), false), (unit_grids(24, 1), true), (unit_grids(9, 5), true)];
    for (shape, (graph, silc_builds)) in shapes.into_iter().enumerate() {
        let n = graph.num_vertices() as NodeId;
        let config = EngineConfig {
            build_tnr: true,
            gtree_config: GtreeConfig { leaf_capacity: 16, ..Default::default() },
            ..Default::default()
        };
        let mut engine = Engine::build(graph, &config);
        let objects: Vec<NodeId> = (0..n).filter(|v| v % 29 == 7).collect();
        engine.set_objects(ObjectSet::new("every-29th", n as usize, objects.clone()));
        assert_eq!(engine.silc().is_some(), silc_builds, "shape {shape}");
        let methods = supported(&engine);
        assert_eq!(methods.len(), if silc_builds { 11 } else { 9 });
        if !silc_builds {
            for method in [Method::DisBrw, Method::DisBrwObjectHierarchy] {
                assert_eq!(
                    engine.query(method, 0, 5).unwrap_err(),
                    EngineError::MissingIndex { method, index: IndexKind::Silc },
                );
            }
        }
        for q in (0..n).step_by(3) {
            let truth = dijkstra::single_source(engine.graph(), q);
            let mut want: Vec<Weight> =
                objects.iter().map(|&o| truth[o as usize]).filter(|&d| d < INFINITY).collect();
            want.sort_unstable();
            want.truncate(5);
            for &method in &methods {
                let output = engine.query(method, q, 5).expect("supported");
                let got: Vec<Weight> = output.result.iter().map(|&(_, d)| d).collect();
                assert_eq!(got, want, "shape {shape}: {} from {q}", method.name());
                assert!(output.result.iter().all(|&(o, d)| truth[o as usize] == d));
            }
        }
    }
}
