//! Randomized cross-method conformance harness.
//!
//! The paper's experimental credibility rests on every method answering every query
//! identically; this harness sweeps a seeded configuration matrix — graph size ×
//! edge-weight kind × G-tree leaf capacity × k × object density — and asserts that
//! every method `Engine::supports` reports answers the same ranked kNN set as the
//! INE baseline *and* as the Dijkstra ground truth, including ties-by-distance
//! (vertex identity may differ inside a tie group, distances may not).
//!
//! Everything is derived from one deterministic xorshift stream, so a failure
//! reproduces from the seed printed in the assertion message. The matrix stays
//! debug-CI-sized (the release-only scaling guards live in `ch_scaling.rs` /
//! `gtree_scaling.rs`).

use rnknn::engine::{Engine, EngineConfig, Method};
use rnknn::verify::{ground_truth, matches_ground_truth};
use rnknn::{EngineError, IndexKind, QueryBudget, QueryOutput, QueryRequest};
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::{EdgeWeightKind, Graph, GraphBuilder, NodeId, Point, Weight};
use rnknn_gtree::GtreeConfig;
use rnknn_objects::{churn_stream, uniform, ChurnConfig, ObjectSet, UpdateEvent};

/// xorshift64* — deterministic, dependency-free stream for seeds and query picks.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// One cell of the sweep: everything needed to rebuild the scenario by hand.
/// The fields exist to appear in `{config:?}` assertion messages (derived `Debug`
/// does not count as a read for the dead-code lint).
#[allow(dead_code)]
#[derive(Debug, Clone, Copy)]
struct Config {
    size: usize,
    graph_seed: u64,
    kind: EdgeWeightKind,
    leaf_capacity: usize,
    density: f64,
    object_seed: u64,
    k: usize,
}

/// Asserts every supported method against INE and the ground truth on `queries`.
/// Every method runs **twice back-to-back** from the same engine — the first call
/// may warm the per-thread scratch pool, the second must reuse it bit-for-bit —
/// and on the first query additionally on a **cold thread** (freshly spawned:
/// empty engine scratch, empty G-tree store pool, empty CH/leaf scratches),
/// closing the class of stale-scratch bugs pooling could introduce: whatever the
/// warm thread's buffers hold, they must not change the answer. Returns how many
/// (method × query) checks ran.
fn check_conformance(
    engine: &Engine,
    objects: &ObjectSet,
    queries: &[NodeId],
    config: Config,
) -> usize {
    let mut checks = 0;
    for (qi, &q) in queries.iter().enumerate() {
        let ine = engine
            .query(Method::Ine, q, config.k)
            .unwrap_or_else(|e| panic!("INE failed under {config:?}: {e}"));
        let reference = ine.distances();
        // INE itself must match the Dijkstra ground truth (ties by distance: the
        // distance sequence is fully determined even where vertex identity is not).
        let truth = ground_truth(engine.graph(), q, config.k, objects);
        assert_eq!(
            reference,
            truth.iter().map(|&(_, d)| d).collect::<Vec<_>>(),
            "INE disagrees with Dijkstra ground truth at q={q} under {config:?}"
        );
        for method in Method::ALL {
            if !engine.supports(method) {
                continue;
            }
            let output = engine
                .query(method, q, config.k)
                .unwrap_or_else(|e| panic!("{} failed under {config:?}: {e}", method.name()));
            assert_eq!(
                output.distances(),
                reference,
                "{} disagrees with INE at q={q} under {config:?}",
                method.name()
            );
            assert!(
                matches_ground_truth(engine.graph(), q, config.k, objects, &output.result),
                "{} returned an invalid result (bad vertex or unsorted) at q={q} under {config:?}",
                method.name()
            );
            // Second pass from the now-warm scratch pool: fresh and reused scratch
            // must agree exactly (including vertex identity, not just distances).
            let reused = engine
                .query(method, q, config.k)
                .unwrap_or_else(|e| panic!("{} rerun failed under {config:?}: {e}", method.name()));
            assert_eq!(
                reused.result,
                output.result,
                "{} diverged on scratch reuse at q={q} under {config:?}",
                method.name()
            );
            // Budget-check placement: a budget that never exhausts — generous
            // deadline, unlimited steps, checked at the tightest possible
            // stride — must leave the answer bit-identical to the unbudgeted
            // path. This sweeps the check placement in every method's search
            // loop across the whole seeded matrix.
            let generous = QueryBudget::new(
                Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
                u64::MAX,
                1,
            );
            let mut budgeted = QueryOutput::default();
            engine
                .execute(
                    &QueryRequest::new(method, q, config.k).with_budget(&generous),
                    &mut budgeted,
                )
                .unwrap_or_else(|e| {
                    panic!("{} budgeted rerun failed under {config:?}: {e}", method.name())
                });
            assert_eq!(
                budgeted.result,
                output.result,
                "{} diverged under a generous budget at q={q} under {config:?}",
                method.name()
            );
            // Cold-thread check on the first query of each configuration: a thread
            // that has never run a query owns no pooled state at all.
            if qi == 0 {
                let cold = std::thread::scope(|scope| {
                    scope.spawn(|| engine.query(method, q, config.k)).join().expect("cold thread")
                })
                .unwrap_or_else(|e| {
                    panic!("{} cold-thread query failed under {config:?}: {e}", method.name())
                });
                assert_eq!(
                    cold.result,
                    output.result,
                    "{} warm pool disagrees with a cold thread at q={q} under {config:?}",
                    method.name()
                );
            }
            checks += 1;
        }
    }
    checks
}

#[test]
fn seeded_config_matrix_agrees_across_all_supported_methods() {
    let mut rng = Rng(0x5EED_CAFE_F00D_D00D);
    let mut configurations = 0;
    let mut checks = 0;
    for &size in &[400usize, 900] {
        for &kind in &[EdgeWeightKind::Distance, EdgeWeightKind::Time] {
            for &leaf_capacity in &[32usize, 64] {
                let graph_seed = rng.below(1 << 20);
                let net = RoadNetwork::generate(&GeneratorConfig::new(size, graph_seed));
                let graph = net.graph(kind);
                let engine_config = EngineConfig {
                    build_tnr: true,
                    gtree_config: GtreeConfig { leaf_capacity, ..Default::default() },
                    ..Default::default()
                };
                let mut engine = Engine::build(graph, &engine_config);
                let n = engine.graph().num_vertices() as NodeId;
                for &density in &[0.005f64, 0.05, 0.4] {
                    let object_seed = rng.below(1 << 20);
                    let objects = uniform(engine.graph(), density, object_seed);
                    if objects.is_empty() {
                        continue;
                    }
                    engine.set_objects(objects.clone());
                    // Exercise k below, at, and beyond the object count, plus k=1.
                    for &k in &[1usize, 4, 11, objects.len() + 3] {
                        let queries: Vec<NodeId> =
                            (0..3).map(|_| rng.below(n as u64) as NodeId).collect();
                        let config = Config {
                            size,
                            graph_seed,
                            kind,
                            leaf_capacity,
                            density,
                            object_seed,
                            k,
                        };
                        checks += check_conformance(&engine, &objects, &queries, config);
                        configurations += 1;
                    }
                }
            }
        }
    }
    // The satellite contract: at least 20 seeded configurations in debug CI, every
    // one exercising every supported method.
    assert!(configurations >= 20, "only {configurations} configurations ran");
    assert!(checks >= configurations * Method::ALL.len() / 2, "suspiciously few checks: {checks}");
}

/// Ties-by-distance stress: many objects at identical distances (a grid with unit
/// weights and a dense object set) must still produce identical ranked distance
/// sequences across methods, whatever tie-break each method uses internally.
#[test]
fn tie_heavy_workloads_agree_on_ranked_distances() {
    let mut rng = Rng(0xB01D_FACE_0000_0001);
    let net = RoadNetwork::generate(&GeneratorConfig::new(600, 77));
    let graph = net.graph(EdgeWeightKind::Distance);
    let engine_config = EngineConfig {
        build_tnr: true,
        gtree_config: GtreeConfig { leaf_capacity: 48, ..Default::default() },
        ..Default::default()
    };
    let mut engine = Engine::build(graph, &engine_config);
    let n = engine.graph().num_vertices() as NodeId;
    // Every vertex is an object: distance ties are guaranteed dense, and the k-th
    // distance boundary almost always cuts through a tie group.
    let all: Vec<NodeId> = (0..n).collect();
    let objects = ObjectSet::new("all-vertices", n as usize, all);
    engine.set_objects(objects.clone());
    for k in [2usize, 7, 25] {
        for _ in 0..4 {
            let q = rng.below(n as u64) as NodeId;
            let config = Config {
                size: 600,
                graph_seed: 77,
                kind: EdgeWeightKind::Distance,
                leaf_capacity: 48,
                density: 1.0,
                object_seed: 0,
                k,
            };
            check_conformance(&engine, &objects, &[q], config);
        }
    }
}

/// Budget exhaustion is clean for every supported method: a two-step budget
/// (the limit is inclusive, so exactly one unit of search work is allowed
/// before the cut) makes the search unwind with
/// [`EngineError::DeadlineExceeded`] carrying **non-zero partial stats** — the
/// allowed work is recorded, not discarded — and the same thread's pooled
/// scratch immediately serves an exact unbudgeted query afterwards: exhaustion
/// never wedges or corrupts the pool.
#[test]
fn exhausted_budgets_fail_cleanly_with_partial_stats() {
    let net = RoadNetwork::generate(&GeneratorConfig::new(900, 4242));
    let engine_config = EngineConfig {
        build_tnr: true,
        gtree_config: GtreeConfig { leaf_capacity: 48, ..Default::default() },
        ..Default::default()
    };
    let mut engine = Engine::build(net.graph(EdgeWeightKind::Distance), &engine_config);
    let objects = uniform(engine.graph(), 0.01, 5);
    engine.set_objects(objects.clone());
    let n = engine.graph().num_vertices() as NodeId;
    let k = objects.len().min(8);
    let mut methods_cut = 0;
    for method in Method::ALL {
        if !engine.supports(method) {
            continue;
        }
        for q in [3 as NodeId, n / 2, n - 7] {
            // Two steps (inclusive limit), checked every step: the second
            // charge exhausts, after exactly one unit of search work.
            let starved = QueryBudget::new(None, 2, 1);
            let request = QueryRequest::new(method, q, k).with_budget(&starved);
            match engine.execute(&request, &mut QueryOutput::default()) {
                Err(EngineError::DeadlineExceeded { partial }) => {
                    let work = partial.nodes_expanded
                        + partial.heap_operations
                        + partial.oracle_calls
                        + partial.candidates_examined
                        + partial.matrix_cells;
                    assert!(
                        work > 0,
                        "{} reported DeadlineExceeded with all-zero partial stats at q={q}",
                        method.name()
                    );
                    methods_cut += 1;
                }
                Err(e) => {
                    panic!("{} failed oddly under a starved budget at q={q}: {e}", method.name())
                }
                Ok(_) => panic!(
                    "{} completed under a two-step budget at q={q} — budget never charged",
                    method.name()
                ),
            }
            // The pool survived the unwind: an unbudgeted rerun on this very
            // thread must still be exact.
            let out = engine.query(method, q, k).unwrap();
            assert_eq!(
                out.distances(),
                ground_truth(engine.graph(), q, k, &objects)
                    .iter()
                    .map(|&(_, d)| d)
                    .collect::<Vec<_>>(),
                "{} inexact after a budget-exhausted query at q={q}",
                method.name()
            );
        }
    }
    assert!(methods_cut >= 5 * 3, "only {methods_cut} (method × query) cuts exercised");
}

/// A path `0 — 1 — … — n-1` whose end-to-end distance is exactly `length` (the
/// remainder of the even split rides on the last edge).
fn path_graph(n: usize, length: Weight) -> Graph {
    let mut b = GraphBuilder::new();
    for i in 0..n {
        b.add_vertex(Point::new(i as f64, 0.0));
    }
    let edges = n as Weight - 1;
    for i in 0..edges {
        let w = length / edges + if i == edges - 1 { length % edges } else { 0 };
        b.add_edge(i as NodeId, i as NodeId + 1, w);
    }
    b.build()
}

/// An engine over [`path_graph`] with objects at both ends and in the middle, and
/// the queries (both ends, the middle) whose answers span the whole path.
fn path_engine(length: Weight) -> (Engine, ObjectSet, [NodeId; 3]) {
    const N: usize = 200;
    let config = EngineConfig {
        build_silc: false,
        build_phl: false,
        build_tnr: false,
        gtree_config: GtreeConfig { leaf_capacity: 16, ..Default::default() },
        ..Default::default()
    };
    let mut engine = Engine::build(path_graph(N, length), &config);
    let last = N as NodeId - 1;
    let objects = ObjectSet::new("path", N, vec![0, 1, last / 2, last - 1, last]);
    engine.set_objects(objects.clone());
    (engine, objects, [0, last / 2, last])
}

fn assert_exact(engine: &Engine, objects: &ObjectSet, methods: &[Method], queries: &[NodeId]) {
    for &q in queries {
        let truth = ground_truth(engine.graph(), q, 5, objects);
        for &method in methods {
            let output = engine.query(method, q, 5).expect("supported method");
            assert_eq!(
                output.distances(),
                truth.iter().map(|&(_, d)| d).collect::<Vec<_>>(),
                "{} disagrees with Dijkstra at q={q}",
                method.name()
            );
        }
    }
}

/// Every `GtreeConfig` the API accepts builds a Dijkstra-exact G-tree, and a
/// Dijkstra-exact ROAD derived from it (its Rnets are the G-tree's nodes): fanout 2
/// to 5 against small leaf capacities, at a sparse and a dense object set.
/// Refinement to global distances is not among them: it was an option once, and
/// switched off it made G-tree and IER-Gt answer wrong with no error.
#[test]
fn every_accepted_gtree_config_is_dijkstra_exact() {
    let graph =
        RoadNetwork::generate(&GeneratorConfig::new(600, 31)).graph(EdgeWeightKind::Distance);
    let n = graph.num_vertices() as NodeId;
    let queries: Vec<NodeId> = (0..12u32).map(|i| (i * 97 + 5) % n).collect();
    for fanout in 2..=5 {
        for leaf_capacity in [4, 16, 48] {
            let config = EngineConfig {
                build_ch: false,
                build_silc: false,
                build_phl: false,
                build_tnr: false,
                gtree_config: GtreeConfig { fanout, leaf_capacity, ..Default::default() },
                ..Default::default()
            };
            let mut engine = Engine::build(graph.clone(), &config);
            assert_eq!(engine.gtree().unwrap().config().fanout, fanout);
            for density in [0.01, 0.1] {
                let objects = uniform(engine.graph(), density, 5);
                engine.set_objects(objects.clone());
                let methods = [Method::Gtree, Method::IerGtree, Method::Road];
                assert_exact(&engine, &objects, &methods, &queries);
            }
        }
    }
}

/// The G-tree's range guard admits a graph when twice the eccentricity of each
/// component's first vertex stays below the 32-bit cell sentinel `2^31 − 1`; on a
/// path rooted at one end that is an end-to-end distance of at most `2^30 − 1`.
const LONGEST_PATH_THAT_FITS: Weight = (1 << 30) - 1;

#[test]
fn the_largest_graph_that_fits_the_cell_range_is_answered_exactly() {
    let (engine, objects, queries) = path_engine(LONGEST_PATH_THAT_FITS);
    assert!(engine.supports(Method::Gtree) && engine.supports(Method::IerGtree));
    let methods = [Method::Ine, Method::Gtree, Method::IerGtree, Method::IerCh, Method::Road];
    assert_exact(&engine, &objects, &methods, &queries);
    // The far end really is a whole path away: the cells hold distances up to the
    // guard's limit, not a rescaled or saturated stand-in.
    let far = engine.query(Method::Gtree, 0, 5).unwrap();
    assert_eq!(far.distances().last(), Some(&LONGEST_PATH_THAT_FITS));
}

#[test]
fn a_graph_beyond_the_cell_range_gets_no_gtree_and_every_other_method_stays_exact() {
    // One past the guard, past the sentinel itself, and past `u32` altogether.
    for length in [LONGEST_PATH_THAT_FITS + 1, 3 << 30, (1 << 32) + 5] {
        let (engine, objects, queries) = path_engine(length);
        assert!(engine.gtree().is_none(), "length {length}: a G-tree was built");
        // ROAD is derived from the G-tree, so it is missing with it.
        let missing = [
            (Method::Gtree, IndexKind::Gtree),
            (Method::IerGtree, IndexKind::Gtree),
            (Method::Road, IndexKind::Road),
        ];
        for (method, index) in missing {
            assert!(!engine.supports(method), "length {length}: {} supported", method.name());
            assert_eq!(
                engine.query(method, 0, 5).unwrap_err(),
                EngineError::MissingIndex { method, index },
                "length {length}"
            );
        }
        assert_exact(&engine, &objects, &[Method::Ine, Method::IerCh], &queries);
    }
}

/// Update conformance for the CH object index: a seeded insert/remove/move stream
/// through `ObjectIndexes::apply` — each batch ending in a remove-then-reinsert of
/// one vertex and a move onto a vertex vacated one event earlier — with IER-CH
/// checked against Dijkstra after every batch. After every single event the target
/// directory holds exactly one label per object, a removed object takes its label
/// (and its bytes) with it, and a new or re-inserted object has its label at once.
#[test]
fn ier_ch_and_its_target_directory_track_a_seeded_update_stream() {
    let net = RoadNetwork::generate(&GeneratorConfig::new(700, 2718));
    let config = EngineConfig {
        build_silc: false,
        build_phl: false,
        gtree_config: GtreeConfig { leaf_capacity: 32, ..Default::default() },
        ..Default::default()
    };
    let engine = Engine::build(net.graph(EdgeWeightKind::Distance), &config);
    let n = engine.graph().num_vertices();
    let mut reference = uniform(engine.graph(), 0.03, 77);
    let mut live = engine.build_object_indexes(reference.clone());
    let mut rng = Rng(0xC0FF_EE00_1234_5678);
    for round in 0..10u64 {
        let mut batch = churn_stream(
            n,
            &reference,
            &ChurnConfig { events: 20, seed: 400 + round, ..Default::default() },
        );
        let mut after = reference.clone();
        for event in &batch {
            event.apply_to(&mut after);
        }
        let members = after.vertices();
        let (again, mover, vacated) = (members[0], members[1], members[members.len() - 1]);
        batch.extend([
            UpdateEvent::Remove(again),
            UpdateEvent::Insert(again),
            UpdateEvent::Remove(vacated),
            UpdateEvent::Move { from: mover, to: vacated },
        ]);

        for event in batch {
            let targets = live.ch_targets().expect("engine built a CH");
            let bytes_before = targets.memory_bytes();
            assert!(event.apply_to(&mut reference), "round {round}: {event:?} was a no-op");
            assert!(engine.apply_object_update(&mut live, event), "round {round}: {event:?}");
            let targets = live.ch_targets().unwrap();
            assert_eq!(targets.len(), live.objects().len(), "round {round}: {event:?}");
            let labelled = live.objects().vertices().iter().all(|&v| targets.label(v).is_some());
            assert!(labelled, "round {round}: {event:?} left an object without a label");
            if let UpdateEvent::Remove(v) | UpdateEvent::Move { from: v, .. } = event {
                assert!(targets.label(v).is_none(), "round {round}: {event:?} kept the label");
            }
            if let UpdateEvent::Remove(_) = event {
                assert!(
                    targets.memory_bytes() < bytes_before,
                    "round {round}: {event:?} removed an object but kept its bytes"
                );
            }
        }
        assert_eq!(live.objects().vertices(), reference.vertices(), "round {round}");

        // k beyond |O| makes every object a candidate.
        let k = reference.len() + 1;
        let q0 = rng.below(n as u64) as NodeId;
        for q in [q0, (q0 + 1) % n as NodeId, rng.below(n as u64) as NodeId] {
            let truth: Vec<_> =
                ground_truth(engine.graph(), q, k, &reference).iter().map(|&(_, d)| d).collect();
            let got = engine.query_snapshot(Method::IerCh, q, k, &live).unwrap();
            assert_eq!(got.distances(), truth, "round {round}: IER-CH inexact at q={q}");
        }
    }
}
