//! The fallible, thread-safe query surface: error paths of `Engine::query`,
//! parallel/sequential agreement of `Engine::knn_batch`, and the unified
//! `QueryStats` contract for all eleven methods.

use std::sync::atomic::{AtomicUsize, Ordering};

use rnknn::verify::ground_truth;
use rnknn::{
    Engine, EngineConfig, EngineError, IndexKind, Method, QueryBudget, QueryOutput, QueryRequest,
};
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::{EdgeWeightKind, NodeId};
use rnknn_gtree::GtreeConfig;
use rnknn_objects::{churn_stream, uniform, ChurnConfig};

fn full_engine(n: usize, seed: u64) -> Engine {
    let net = RoadNetwork::generate(&GeneratorConfig::new(n, seed));
    let graph = net.graph(EdgeWeightKind::Distance);
    let config = EngineConfig {
        build_tnr: true,
        gtree_config: GtreeConfig { leaf_capacity: 64, ..Default::default() },
        ..Default::default()
    };
    Engine::build(graph, &config)
}

#[test]
fn minimal_config_reports_missing_index_not_panic() {
    let net = RoadNetwork::generate(&GeneratorConfig::new(400, 8));
    let graph = net.graph(EdgeWeightKind::Distance);
    let mut engine = Engine::build(graph, &EngineConfig::minimal());
    engine.set_objects(uniform(engine.graph(), 0.05, 3));

    assert_eq!(
        engine.query(Method::IerPhl, 5, 3).unwrap_err(),
        EngineError::MissingIndex { method: Method::IerPhl, index: IndexKind::Phl }
    );
    assert_eq!(
        engine.query(Method::IerCh, 5, 3).unwrap_err(),
        EngineError::MissingIndex { method: Method::IerCh, index: IndexKind::Ch }
    );
    assert_eq!(
        engine.query(Method::IerTnr, 5, 3).unwrap_err(),
        EngineError::MissingIndex { method: Method::IerTnr, index: IndexKind::Tnr }
    );
    assert_eq!(
        engine.query(Method::DisBrw, 5, 3).unwrap_err(),
        EngineError::MissingIndex { method: Method::DisBrw, index: IndexKind::Silc }
    );
    // Even an empty batch surfaces configuration errors (warm-up batches are a
    // reliable configuration check).
    assert_eq!(
        engine.knn_batch(Method::IerPhl, &[], 3).unwrap_err(),
        EngineError::MissingIndex { method: Method::IerPhl, index: IndexKind::Phl }
    );
    // Method::required_indexes keeps supports() and query() in agreement.
    for method in Method::ALL {
        assert_eq!(
            engine.supports(method),
            engine.query(method, 5, 3).is_ok(),
            "{}",
            method.name()
        );
    }
}

#[test]
fn querying_before_set_objects_is_no_objects() {
    let net = RoadNetwork::generate(&GeneratorConfig::new(300, 9));
    let graph = net.graph(EdgeWeightKind::Distance);
    let engine = Engine::build(graph, &EngineConfig::minimal());
    for method in [Method::Ine, Method::Gtree, Method::Road, Method::IerDijkstra] {
        assert_eq!(engine.query(method, 0, 3).unwrap_err(), EngineError::NoObjects);
    }
}

#[test]
fn out_of_range_vertex_and_zero_k_are_rejected() {
    let net = RoadNetwork::generate(&GeneratorConfig::new(300, 10));
    let graph = net.graph(EdgeWeightKind::Distance);
    let mut engine = Engine::build(graph, &EngineConfig::minimal());
    engine.set_objects(uniform(engine.graph(), 0.05, 4));
    let n = engine.graph().num_vertices();

    assert_eq!(
        engine.query(Method::Ine, n as NodeId, 3).unwrap_err(),
        EngineError::InvalidVertex { vertex: n as NodeId, num_vertices: n }
    );
    assert_eq!(
        engine.query(Method::Ine, NodeId::MAX, 3).unwrap_err(),
        EngineError::InvalidVertex { vertex: NodeId::MAX, num_vertices: n }
    );
    assert_eq!(engine.query(Method::Gtree, 3, 0).unwrap_err(), EngineError::InvalidK { k: 0 });
    // Errors are values: format and compare without touching the engine.
    let message = engine.query(Method::Ine, n as NodeId, 3).unwrap_err().to_string();
    assert!(message.contains("out of range"));
}

#[test]
fn knn_batch_agrees_with_sequential_query_for_all_supported_methods() {
    let engine = {
        let mut engine = full_engine(900, 42);
        engine.set_objects(uniform(engine.graph(), 0.02, 11));
        engine
    };
    let n = engine.graph().num_vertices() as NodeId;
    let queries: Vec<NodeId> = (0..32u32).map(|i| (i * 1_237 + 5) % n).collect();
    for method in Method::ALL {
        assert!(engine.supports(method), "{} should be supported", method.name());
        // Explicit 4-way fan-out, independent of how many cores this host reports.
        let batch =
            engine.knn_batch_with_threads(method, &queries, 6, 4).expect("supported method");
        assert_eq!(batch.len(), queries.len());
        for (&q, output) in queries.iter().zip(&batch) {
            let sequential = engine.query(method, q, 6).expect("supported method");
            assert_eq!(
                output.result,
                sequential.result,
                "{} parallel/sequential mismatch at q={q}",
                method.name()
            );
        }
        // The auto-sized entry point returns the same results.
        let auto = engine.knn_batch(method, &queries[..8], 6).expect("supported method");
        for (output, parallel) in auto.iter().zip(&batch) {
            assert_eq!(output.result, parallel.result, "{}", method.name());
        }
    }
}

#[test]
fn shared_engine_answers_from_explicit_worker_threads() {
    // knn_batch uses scoped threads internally; this exercises the Sync contract
    // directly — one engine, four threads, disjoint query slices.
    let engine = {
        let mut engine = full_engine(700, 77);
        engine.set_objects(uniform(engine.graph(), 0.03, 23));
        engine
    };
    let n = engine.graph().num_vertices() as NodeId;
    let queries: Vec<NodeId> = (0..40u32).map(|i| (i * 911 + 13) % n).collect();
    let answered = AtomicUsize::new(0);
    let (engine, answered_ref) = (&engine, &answered);
    std::thread::scope(|scope| {
        for chunk in queries.chunks(queries.len().div_ceil(4)) {
            scope.spawn(move || {
                for &q in chunk {
                    let output = engine.query(Method::IerPhl, q, 5).expect("PHL built");
                    let reference = engine.query(Method::Ine, q, 5).expect("always supported");
                    assert_eq!(output.distances(), reference.distances(), "q={q}");
                    answered_ref.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(answered.load(Ordering::Relaxed), queries.len());
}

#[test]
fn every_method_reports_non_trivial_query_stats() {
    let engine = {
        let mut engine = full_engine(900, 7);
        engine.set_objects(uniform(engine.graph(), 0.01, 3));
        engine
    };
    let n = engine.graph().num_vertices() as NodeId;
    let q = n / 2;
    let ier_variants = [
        Method::IerDijkstra,
        Method::IerAStar,
        Method::IerCh,
        Method::IerPhl,
        Method::IerTnr,
        Method::IerGtree,
    ];
    // Methods whose search machinery runs a priority queue. The label-intersection
    // oracle (IER-PHL), SILC's interval refinement (DisBrw*), and MGtree's
    // matrix-assembly materialization (IER-Gt) legitimately report zero heap
    // operations on oracle-only work.
    let heap_driven = [
        Method::Ine,
        Method::IerDijkstra,
        Method::IerAStar,
        Method::IerCh,
        Method::IerTnr,
        Method::Road,
        Method::Gtree,
    ];
    for method in Method::ALL {
        let output: QueryOutput = engine.query(method, q, 8).expect("supported method");
        assert_eq!(output.result.len(), 8, "{}", method.name());
        let s = output.stats;
        // Every method runs a real search on a non-trivial query, so the unified
        // "vertices settled / hierarchy nodes expanded / hub entries examined"
        // counter must be populated — an all-zero report means an oracle forgot to
        // plumb its counters (the bug this test pins down). One documented
        // exception: DB-ENN expands no object-hierarchy nodes (its effort is the
        // refinement count, mapped to oracle_calls and asserted below).
        if method != Method::DisBrw {
            assert!(s.nodes_expanded > 0, "{} reported zero nodes_expanded", method.name());
        }
        if matches!(method, Method::DisBrw | Method::DisBrwObjectHierarchy) {
            assert!(s.oracle_calls > 0, "{} must report refinements", method.name());
            assert!(s.candidates_examined > 0, "{} must report candidates", method.name());
        }
        if heap_driven.contains(&method) {
            assert!(s.heap_operations > 0, "{} reported zero heap_operations", method.name());
        }
        if ier_variants.contains(&method) {
            assert!(s.oracle_calls > 0, "{} must report oracle calls", method.name());
            assert!(s.candidates_examined > 0, "{} must report candidates", method.name());
        }
        // The two G-tree-backed methods assemble border distances out of the
        // distance matrices; the per-row-batch counter must see that work (it
        // once read zero on the pooled path — the stats blackout this pins down).
        if matches!(method, Method::Gtree | Method::IerGtree) {
            assert!(s.matrix_cells > 0, "{} reported zero matrix_cells", method.name());
        }
    }
}

/// The engine's CH target directory (always present on a [`full_engine`]).
fn ch_targets(engine: &Engine) -> &rnknn::ch::ChTargetDirectory {
    engine.object_indexes().and_then(|live| live.ch_targets()).expect("engine built a CH")
}

/// A budget that runs out while IER-CH extends its forward search gives
/// `DeadlineExceeded`, never a wrong answer, and the unbudgeted query right after it
/// is Dijkstra-exact. Step quotas are swept, so cuts land on every kind of charge; a
/// cut at quota `L` refused a settle exactly when quota `L + 1` settles one more.
#[test]
fn a_budget_cut_forward_extension_is_deadline_exceeded_never_a_wrong_answer() {
    let mut engine = full_engine(900, 19);
    let objects = uniform(engine.graph(), 0.02, 6);
    engine.set_objects(objects.clone());
    let n = engine.graph().num_vertices() as NodeId;
    let queries: Vec<NodeId> = (0..8u32).map(|i| (i * 389 + 2) % n).collect();
    let mut out = QueryOutput::default();
    let mut cuts_in_an_extension = 0;
    for &q in &queries {
        let truth: Vec<_> =
            ground_truth(engine.graph(), q, 6, &objects).iter().map(|&(_, d)| d).collect();
        let mut settled_at_cut = Vec::new();
        for limit in 2..48u64 {
            let starved = QueryBudget::new(None, limit, 1);
            let request = QueryRequest::new(Method::IerCh, q, 6).with_budget(&starved);
            match engine.execute(&request, &mut out) {
                Ok(()) => assert_eq!(out.distances(), truth, "q={q} limit={limit}"),
                Err(EngineError::DeadlineExceeded { partial }) => {
                    settled_at_cut.push(partial.nodes_expanded)
                }
                Err(other) => panic!("q={q} limit={limit}: {other:?}"),
            }
            assert_eq!(engine.query(Method::IerCh, q, 6).unwrap().distances(), truth, "q={q}");
        }
        cuts_in_an_extension += settled_at_cut.windows(2).filter(|w| w[1] == w[0] + 1).count();
    }
    assert!(cuts_in_an_extension > 0, "no quota cut a forward extension");
}

/// G-tree and IER-Gt under every step quota from 1 to the query's whole cost: the
/// quota runs out at every charge the query makes — each row assembly, each key
/// scan of a child-minimum table (charged once a popped node's children are keyed)
/// and each climb with the sibling rows it fills — and, at density 0.1, where most
/// sources' leaves hold objects, each settle of the source-leaf search. Every cut is
/// `DeadlineExceeded`, never a wrong answer, and the unbudgeted query right after it
/// (on the pooled state the cut one left behind) is Dijkstra-exact.
#[test]
fn a_budget_cut_key_scan_or_climb_fill_is_deadline_exceeded_never_a_wrong_answer() {
    let graph =
        RoadNetwork::generate(&GeneratorConfig::new(300, 29)).graph(EdgeWeightKind::Distance);
    let config = EngineConfig {
        build_ch: false,
        build_road: false,
        build_silc: false,
        build_phl: false,
        build_tnr: false,
        gtree_config: GtreeConfig { leaf_capacity: 16, ..Default::default() },
        ..Default::default()
    };
    let mut engine = Engine::build(graph, &config);
    assert!(engine.gtree().unwrap().height() >= 4, "a tree with internal nodes below the root");
    let n = engine.graph().num_vertices() as NodeId;
    let mut out = QueryOutput::default();
    for density in [0.03, 0.1] {
        let objects = uniform(engine.graph(), density, 8);
        engine.set_objects(objects.clone());
        for method in [Method::Gtree, Method::IerGtree] {
            for q in [3 % n, n / 2, n - 5] {
                let truth: Vec<_> =
                    ground_truth(engine.graph(), q, 4, &objects).iter().map(|&(_, d)| d).collect();
                let whole = QueryBudget::unlimited();
                let request = QueryRequest::new(method, q, 4).with_budget(&whole);
                engine.execute(&request, &mut out).unwrap();
                assert_eq!(out.distances(), truth, "{} q={q}", method.name());
                let mut cuts = 0;
                for limit in 1..=whole.steps() {
                    let starved = QueryBudget::new(None, limit, 1);
                    let request = QueryRequest::new(method, q, 4).with_budget(&starved);
                    let what = format!("{} d {density} q={q} limit={limit}", method.name());
                    match engine.execute(&request, &mut out) {
                        Ok(()) => assert_eq!(out.distances(), truth, "{what}"),
                        Err(EngineError::DeadlineExceeded { .. }) => cuts += 1,
                        Err(other) => panic!("{what}: {other:?}"),
                    }
                    let after = engine.query(method, q, 4).unwrap();
                    assert_eq!(after.distances(), truth, "{what}: the query after");
                }
                assert!(cuts > 0, "{} d {density} q={q}: no quota cut the query", method.name());
            }
        }
    }
}

/// The write path fills every CH target label and the read path none: after
/// 10 000 update events every object's label equals a fresh upward search from it,
/// and 1 000 IER-CH queries leave the directory's bytes unchanged.
#[test]
fn object_updates_fill_every_ch_label() {
    let mut engine = full_engine(700, 23);
    let initial = uniform(engine.graph(), 0.05, 4);
    let events = churn_stream(
        engine.graph().num_vertices(),
        &initial,
        &ChurnConfig { events: 10_000, seed: 5, ..Default::default() },
    );
    assert_eq!(events.len(), 10_000);
    engine.set_objects(initial);
    for event in events {
        assert!(engine.update_objects(event).unwrap());
    }
    let (ch, targets) = (engine.ch().unwrap(), ch_targets(&engine));
    assert_eq!(targets.len(), engine.objects().unwrap().len());
    let mut fresh = Vec::new();
    for &v in engine.objects().unwrap().vertices() {
        ch.target_label_into(v, &mut fresh);
        assert_eq!(targets.label(v), Some(fresh.as_slice()), "object {v}");
    }

    let bytes = targets.memory_bytes();
    let n = engine.graph().num_vertices() as NodeId;
    let mut out = QueryOutput::default();
    for i in 0..1_000u32 {
        engine.query_into(Method::IerCh, (i * 389 + 2) % n, 6, &mut out).unwrap();
    }
    assert_eq!(ch_targets(&engine).memory_bytes(), bytes, "a query wrote into the directory");
}
