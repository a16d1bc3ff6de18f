//! Release-only serving-layer scaling guard (the live-update analogue of
//! `knn_query_scaling.rs`).
//!
//! The serving layer's reason to exist is that applying a churn batch
//! incrementally is far cheaper than `Engine::set_objects`' full rebuild of
//! every object index. This guard pins that claim at the 116k-vertex tier:
//! applying a 1%-of-|O| churn batch through the incremental path must be at
//! least 10x faster than one full rebuild, and must leave the indexes
//! answering exactly like the rebuild.

#![cfg(not(debug_assertions))]

use std::time::Instant;

use rnknn::engine::{Engine, EngineConfig, Method};
use rnknn::verify::ground_truth;
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::{EdgeWeightKind, NodeId};
use rnknn_objects::{churn_stream, uniform, ChurnConfig};

#[test]
fn one_percent_churn_is_10x_cheaper_than_a_rebuild_at_116k() {
    let net = RoadNetwork::generate(&GeneratorConfig::new(100_000, 42));
    let graph = net.graph(EdgeWeightKind::Distance);
    let config = EngineConfig {
        build_gtree: true,
        build_road: true,
        build_silc: false,
        build_ch: false,
        build_phl: false,
        build_tnr: false,
        ..Default::default()
    };
    let engine = Engine::build(graph, &config);
    let objects = uniform(engine.graph(), 0.01, 1);
    let mut membership = objects.clone();
    let num_objects = objects.len();

    // The full-rebuild baseline (R-tree bulk load + occurrence list, which G-tree
    // and ROAD share), measured on the same membership the churn starts from.
    let start = Instant::now();
    let mut live = engine.build_object_indexes(objects.clone());
    let rebuild = start.elapsed();

    // A 1%-of-|O| churn batch through the incremental path.
    let events = churn_stream(
        engine.graph().num_vertices(),
        &membership,
        &ChurnConfig { events: (num_objects / 100).max(10), seed: 7, ..Default::default() },
    );
    assert!(events.len() >= 10, "churn generator under-delivered");
    let start = Instant::now();
    for &event in &events {
        engine.apply_object_update(&mut live, event);
    }
    let incremental = start.elapsed();
    for event in events {
        event.apply_to(&mut membership);
    }

    // Correctness first: the churned bundle answers exactly like a rebuild of the
    // final membership (and like the Dijkstra ground truth).
    let rebuilt = engine.build_object_indexes(membership.clone());
    let n = engine.graph().num_vertices();
    for probe in 0..8u64 {
        let q = ((probe * 2_654_435_769) % n as u64) as NodeId;
        let truth: Vec<_> =
            ground_truth(engine.graph(), q, 10, &membership).iter().map(|&(_, d)| d).collect();
        for method in [Method::Ine, Method::Gtree, Method::Road] {
            let a = engine.query_snapshot(method, q, 10, &live).unwrap();
            let b = engine.query_snapshot(method, q, 10, &rebuilt).unwrap();
            assert_eq!(a.distances(), truth, "{} churned vs truth at q={q}", method.name());
            assert_eq!(
                a.distances(),
                b.distances(),
                "{} churned vs rebuilt at q={q}",
                method.name()
            );
        }
    }

    // The scaling claim. Rebuild is O(|O| log |O| + one occurrence-count walk per
    // object); the batch is ~12 O(depth) edits — 10x is a deliberately
    // conservative floor (measured headroom is orders of magnitude).
    assert!(
        rebuild >= incremental * 10,
        "1% churn ({} events) took {incremental:?}, rebuild of {num_objects} objects took \
         {rebuild:?} — incremental path lost its 10x advantage",
        (num_objects / 100).max(10)
    );
}
