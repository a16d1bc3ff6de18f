//! Release-only per-method query-latency regression guard (the query-side analogue
//! of `ch_scaling.rs` / `gtree_scaling.rs`).
//!
//! The committed kNN trajectory is `BENCH_knn_query.json`; this guard holds its
//! 116k tier: each p50 is the fastest of 5 interleaved passes, and every method's
//! summed work must be bit-equal between the built and the loaded engine.
//! Budgets are ≈ 4-5x the p50s this test measures on the 2-core reference box
//! (built / loaded engine at k=10, d=0.01: G-tree ~270 / 290µs, INE ~90 / 105µs,
//! IER-CH ~36 / 52µs, IER-Gt ~160 / 170µs; run with `--nocapture` to see today's)
//! — tight enough that a 10x regression cannot pass, which the previous 16-70x
//! headroom allowed. IER-CH's budget also sits below the ~295µs it took when every
//! query ran the whole upward search from the query vertex, so a return to that
//! search fails it. If one trips, either the pooled query path regressed or an
//! index build changed query-relevant structure.

#![cfg(not(debug_assertions))]

use std::time::{Duration, Instant};

use rnknn::engine::{Engine, EngineConfig, Method};
use rnknn::verify::matches_ground_truth;
use rnknn::{QueryOutput, QueryRequest, QueryStats};
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::{EdgeWeightKind, NodeId};
use rnknn_objects::uniform;

/// The guarded methods and their p50 budgets at 116k.
const BUDGETS: [(Method, Duration); 4] = [
    (Method::Gtree, Duration::from_micros(1_100)),
    (Method::Ine, Duration::from_micros(400)),
    (Method::IerCh, Duration::from_micros(200)),
    (Method::IerGtree, Duration::from_micros(600)),
];

/// Timed passes per method and mode; a p50 is the fastest pass's median.
const PASSES: usize = 5;

/// One pass of `method` over `queries`: the median per-query wall-clock time
/// and the summed work counters (`elapsed_micros` left 0). With `budgeted`,
/// every query runs under a generous wall-clock deadline at the serving
/// layer's default check cadence — the exact configuration a deadline-carrying
/// [`rnknn_serve::KnnRequest`] dispatches with — so the deadline checks'
/// overhead is inside the measurement.
fn pass(
    engine: &Engine,
    method: Method,
    queries: &[NodeId],
    k: usize,
    budgeted: bool,
    out: &mut QueryOutput,
) -> (f64, QueryStats) {
    let mut times: Vec<u64> = Vec::with_capacity(queries.len());
    let mut work = QueryStats::default();
    for &q in queries {
        let budget = rnknn::QueryBudget::new(
            budgeted.then(|| Instant::now() + Duration::from_secs(3600)),
            u64::MAX,
            rnknn::pathfinding::budget::DEFAULT_CHECK_EVERY,
        );
        let start = Instant::now();
        engine
            .execute(&QueryRequest::new(method, q, k).with_budget(&budget), out)
            .expect("measured query");
        times.push(start.elapsed().as_micros() as u64);
        work.accumulate(&QueryStats { elapsed_micros: 0, ..out.stats });
    }
    times.sort_unstable();
    (times[times.len() / 2] as f64, work)
}

/// Applies the exactness gate plus the per-method p50 budgets to one engine and
/// returns each guarded method's summed work over the query set. `label` names
/// the engine provenance ("built" / "loaded") in failures.
fn run_guard(engine: &mut Engine, label: &str) -> Vec<QueryStats> {
    let objects = uniform(engine.graph(), 0.01, 1);
    engine.set_objects(objects.clone());

    let n = engine.graph().num_vertices() as NodeId;
    let queries: Vec<NodeId> =
        (0..200u64).map(|i| ((i * 2_654_435_769) % n as u64) as NodeId).collect();
    let k = 10;

    // Exactness first: a fast-but-wrong query path must never pass the guard.
    for &q in queries.iter().take(3) {
        for (method, _) in BUDGETS {
            let output = engine.query(method, q, k).expect("query");
            assert!(
                matches_ground_truth(engine.graph(), q, k, &objects, &output.result),
                "{} wrong at q={q} on the {label} engine",
                method.name()
            );
        }
    }

    // Warm-up pass: grow every pooled buffer to the workload's high-water mark.
    let mut out = QueryOutput::default();
    let work: Vec<QueryStats> =
        BUDGETS.iter().map(|&(m, _)| pass(engine, m, &queries, k, false, &mut out).1).collect();
    // Then the timed passes, the methods and both modes interleaved within
    // each, so a slow stretch of the host lands on one pass of every method
    // rather than on every pass of one.
    let mut fastest = [[f64::INFINITY; 2]; BUDGETS.len()];
    for p in 0..PASSES {
        for (i, &(method, _)) in BUDGETS.iter().enumerate() {
            // The mode that runs first alternates, so neither always runs on a
            // cache the previous method's pass left behind.
            for budgeted in [p % 2 == 1, p % 2 == 0] {
                let (p50, pass_work) = pass(engine, method, &queries, k, budgeted, &mut out);
                assert_eq!(pass_work, work[i], "{} work differs between passes", method.name());
                let best = &mut fastest[i][budgeted as usize];
                *best = best.min(p50);
            }
        }
    }

    // The deadline-checked serving path has the same thresholds: the
    // cooperative budget checks (one relaxed load + counter compare per charge,
    // a clock read every `DEFAULT_CHECK_EVERY` steps) must be invisible at this
    // granularity — measured overhead is under 2% locally, far inside the 5x
    // headroom these budgets carry.
    for (&(method, budget), p50s) in BUDGETS.iter().zip(&fastest) {
        let name = method.name();
        println!("{name} p50 {p50s:?}µs (plain, deadline-checked) at 116k on the {label} engine");
        for (&p50, mode) in p50s.iter().zip(["", "deadline-checked "]) {
            assert!(
                Duration::from_micros(p50 as u64) < budget,
                "{name} {mode}p50 {p50}µs exceeds the {budget:?} budget at 116k on the {label} \
                 engine"
            );
        }
    }
    work
}

#[test]
fn per_method_query_p50_stays_within_budget_at_116k_built_and_loaded() {
    let net = RoadNetwork::generate(&GeneratorConfig::new(100_000, 42));
    let graph = net.graph(EdgeWeightKind::Distance);
    let config = EngineConfig {
        build_gtree: true,
        build_road: false,
        build_silc: false,
        build_ch: true,
        build_phl: false,
        build_tnr: false,
        ..Default::default()
    };
    let mut engine = Engine::build(graph, &config);
    let built_work = run_guard(&mut engine, "built");

    // ISSUE 8: an engine cold-started from its persisted artifact must meet
    // the same budgets with the same answers — zero-copy views over the
    // mapped arena can't be allowed to trade latency for load speed.
    let dir = std::env::temp_dir().join("rnknn-scaling-guard");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("guard-116k-{}.rnk", std::process::id()));
    engine.save_indexes(&path).expect("save 116k artifact");
    let mut loaded = Engine::load_indexes(&path, &config).expect("load 116k artifact");
    std::fs::remove_file(&path).ok();

    // Identical answers before identical budgets.
    let objects = uniform(engine.graph(), 0.01, 1);
    engine.set_objects(objects.clone());
    loaded.set_objects(objects);
    let n = engine.graph().num_vertices() as NodeId;
    for i in 0..5u64 {
        let q = ((i * 7919 + 1) % n as u64) as NodeId;
        for (method, _) in BUDGETS {
            assert_eq!(
                loaded.query(method, q, 10).unwrap().result,
                engine.query(method, q, 10).unwrap().result,
                "built/loaded diverge: {} q={q}",
                method.name()
            );
        }
    }
    drop(engine);
    let loaded_work = run_guard(&mut loaded, "loaded");
    // The exact gate: the same searches over the same structures do the same
    // work, whatever the host's timing (one summed `QueryStats` per method, in
    // `BUDGETS` order).
    assert_eq!(built_work, loaded_work, "built/loaded work differs over the queries");
}
