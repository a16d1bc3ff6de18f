//! Serving-layer integration tests: interleaved update/query conformance, epoch
//! atomicity under concurrent readers, and pooled-scratch reuse across object
//! sets, bundles and engines.
//!
//! The conformance harness in `conformance_fuzz.rs` proves every method agrees on
//! a *static* object set; this file proves the same property while the object set
//! is **live** — updated incrementally through the serving layer — and that the
//! epoch machinery never exposes a torn object view.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use rnknn::engine::{Engine, EngineConfig, Method, QueryRequest};
use rnknn::verify::{ground_truth, matches_ground_truth};
use rnknn::{EngineScratch, ObjectIndexes, QueryOutput, QueryStats};
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::{EdgeWeightKind, NodeId};
use rnknn_objects::{churn_stream, uniform, ChurnConfig, UpdateEvent};
use rnknn_serve::{EpochSnapshot, KnnRequest, ObjectStore, ServeConfig, ServeFront};

fn build_engine(size: usize, seed: u64) -> Arc<Engine> {
    let net = RoadNetwork::generate(&GeneratorConfig::new(size, seed));
    let graph = net.graph(EdgeWeightKind::Distance);
    Arc::new(Engine::build(graph, &EngineConfig::minimal()))
}

/// After every batch of random updates, every supported method must answer every
/// probe exactly like (a) a freshly rebuilt index bundle over the same membership
/// and (b) the Dijkstra ground truth — ties compared by distance, the only part
/// that is well-defined under ties.
#[test]
fn interleaved_updates_conform_to_a_rebuilt_engine() {
    let engine = build_engine(900, 1234);
    let initial = uniform(engine.graph(), 0.03, 5);
    let mut reference = initial.clone();
    let store = ObjectStore::new(Arc::clone(&engine), initial);

    let methods: Vec<Method> = Method::ALL.into_iter().filter(|&m| engine.supports(m)).collect();
    assert!(methods.len() >= 5, "minimal config should support at least 5 methods");

    let n = engine.graph().num_vertices();
    let k = 6;
    for round in 0..12u64 {
        // One batch of N random updates, applied both to the serving store and to
        // the plain reference set.
        let batch = churn_stream(
            n,
            &reference,
            &ChurnConfig { events: 25, seed: 9001 + round, ..Default::default() },
        );
        for event in batch {
            assert_eq!(
                store.stage(event),
                event.apply_to(&mut reference),
                "round {round}: store and reference disagree on {event:?}"
            );
        }
        let snapshot = store.publish();
        assert_eq!(snapshot.objects().vertices(), reference.vertices(), "round {round}");

        // A freshly rebuilt bundle over the same membership is the oracle for the
        // incrementally-maintained indexes.
        let rebuilt = engine.build_object_indexes(reference.clone());
        for probe in 0..6u32 {
            let q = ((round as u32 * 131 + probe * 977) as usize % n) as NodeId;
            let truth: Vec<_> =
                ground_truth(engine.graph(), q, k, &reference).iter().map(|&(_, d)| d).collect();
            for &method in &methods {
                let live = engine.query_snapshot(method, q, k, snapshot.indexes()).unwrap();
                let fresh = engine.query_snapshot(method, q, k, &rebuilt).unwrap();
                assert_eq!(
                    live.distances(),
                    truth,
                    "round {round}: {} on the live epoch disagrees with ground truth at q={q}",
                    method.name()
                );
                assert_eq!(
                    live.distances(),
                    fresh.distances(),
                    "round {round}: {} live vs rebuilt diverged at q={q}",
                    method.name()
                );
            }
        }
    }
}

/// Epoch swaps are atomic: concurrent readers must always observe a complete
/// snapshot — the pre-publish or post-publish object set, never a mix. The writer
/// alternates a two-sided invariant (exactly one of `a`/`b` is an object, total
/// population constant); any torn view breaks it.
#[test]
fn epoch_swap_is_atomic_under_concurrent_readers() {
    let engine = build_engine(600, 77);
    let initial = uniform(engine.graph(), 0.05, 3);
    let a = *initial.vertices().first().unwrap();
    let b = engine.graph().vertices().find(|&v| !initial.contains(v)).unwrap();
    let population = initial.len();
    let store = Arc::new(ObjectStore::new(Arc::clone(&engine), initial));

    let readers = 4;
    let min_rounds = 200u64;
    let start = Arc::new(Barrier::new(readers + 1));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    // Per-reader progress counters: on a single core the writer can burn through
    // all its rounds before a reader is ever scheduled, so the writer keeps
    // flipping (and yielding) until every reader has validated a few snapshots.
    let checks: Arc<Vec<std::sync::atomic::AtomicU64>> =
        Arc::new((0..readers).map(|_| std::sync::atomic::AtomicU64::new(0)).collect());

    let published = std::thread::scope(|scope| {
        for reader in 0..readers {
            let store = Arc::clone(&store);
            let engine = Arc::clone(&engine);
            let start = Arc::clone(&start);
            let stop = Arc::clone(&stop);
            let checks = Arc::clone(&checks);
            scope.spawn(move || {
                start.wait();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let snap = store.snapshot();
                    let has_a = snap.objects().contains(a);
                    let has_b = snap.objects().contains(b);
                    assert!(
                        has_a ^ has_b,
                        "reader {reader}: torn epoch {} — a={has_a} b={has_b}",
                        snap.epoch()
                    );
                    assert_eq!(
                        snap.objects().len(),
                        population,
                        "reader {reader}: population changed in epoch {}",
                        snap.epoch()
                    );
                    // A query against the pinned epoch must see exactly the flagged
                    // vertex at distance 0.
                    let at = if has_a { a } else { b };
                    let out = engine.query_snapshot(Method::Ine, at, 1, snap.indexes()).unwrap();
                    assert_eq!(out.result[0], (at, 0), "reader {reader}");
                    checks[reader].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }

        start.wait();
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        let (mut from, mut to) = (a, b);
        let mut published = 0u64;
        loop {
            assert!(store.stage(UpdateEvent::Move { from, to }), "round {published}");
            store.publish();
            published += 1;
            std::mem::swap(&mut from, &mut to);
            std::thread::yield_now();
            let everyone_checked =
                checks.iter().all(|c| c.load(std::sync::atomic::Ordering::Relaxed) >= 3);
            // The deadline escape keeps a wedged reader from hanging the test;
            // the per-reader assertion below will then name it.
            if (published >= min_rounds && everyone_checked) || std::time::Instant::now() > deadline
            {
                break;
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        published
    });
    for (reader, c) in checks.iter().enumerate() {
        let observed = c.load(std::sync::atomic::Ordering::Relaxed);
        assert!(observed >= 3, "reader {reader} observed only {observed} snapshots");
    }
    assert_eq!(store.snapshot().epoch(), published);
}

/// Every index the engine can build (G-tree, ROAD, SILC, CH, PHL, TNR), so every
/// method in `Method::ALL` is dispatchable (a query of a missing one errors).
fn build_full_engine(size: usize, seed: u64) -> Engine {
    let net = RoadNetwork::generate(&GeneratorConfig::new(size, seed));
    let config = EngineConfig { build_tnr: true, ..EngineConfig::default() };
    Engine::build(net.graph(EdgeWeightKind::Distance), &config)
}

/// The `set_objects` scratch-reuse regression (the bug class: a pooled per-thread
/// scratch carrying object-derived state across an object-set flip). Worker
/// threads outlive several flips, reusing their thread-local scratch for pooled
/// `Engine::query` calls of every method; every answer must match the ground
/// truth of the set installed for that round.
#[test]
fn object_set_flips_between_pooled_queries_never_leak_stale_state() {
    let engine_slot = std::sync::RwLock::new({
        let mut e = build_full_engine(700, 4242);
        e.set_objects(uniform(e.graph(), 0.02, 0));
        e
    });
    let workers = 4;
    let rounds = 8;
    // Two sync points per round: everyone queries between them; flips happen
    // outside them, under the write lock.
    let barrier = Barrier::new(workers + 1);
    // A worker's failed round is recorded rather than unwound past the barrier,
    // so the other threads still meet it and the test fails instead of hanging.
    let failed_rounds = std::sync::Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let (engine_slot, barrier, failed_rounds) = (&engine_slot, &barrier, &failed_rounds);
            scope.spawn(move || {
                for round in 0..rounds {
                    barrier.wait(); // Flip is complete; this round's set is live.
                    let engine = engine_slot.read().unwrap();
                    let n = engine.graph().num_vertices();
                    let objects = engine.objects().unwrap().clone();
                    let queried = std::panic::catch_unwind(|| {
                        for probe in 0..5 {
                            let q = ((worker * 7919 + round * 131 + probe * 977) % n) as NodeId;
                            let truth: Vec<_> = ground_truth(engine.graph(), q, 4, &objects)
                                .iter()
                                .map(|&(_, d)| d)
                                .collect();
                            for method in Method::ALL {
                                // Pooled path: reuses this OS thread's scratch across
                                // all rounds and therefore across all flips.
                                let out = engine.query(method, q, 4).unwrap();
                                assert_eq!(
                                    out.distances(),
                                    truth,
                                    "worker {worker} round {round}: {} served stale state at q={q}",
                                    method.name()
                                );
                            }
                        }
                    });
                    if queried.is_err() {
                        failed_rounds.lock().unwrap().push((worker, round));
                    }
                    drop(engine);
                    barrier.wait(); // Round done; main may flip again.
                }
            });
        }

        for round in 0..rounds {
            barrier.wait(); // Workers start querying round `round`.
            barrier.wait(); // Workers finished round `round`.
            let mut engine = engine_slot.write().unwrap();
            // Alternate densities so the R-tree/occurrence shapes change radically.
            let density = if round % 2 == 0 { 0.15 } else { 0.008 };
            let objects = uniform(engine.graph(), density, round as u64 + 100);
            engine.set_objects(objects);
        }
    });
    let failed_rounds = failed_rounds.into_inner().unwrap();
    assert!(failed_rounds.is_empty(), "(worker, round)s that failed: {failed_rounds:?}");
}

/// The one rule for pooled state, checked by answers: each search re-arms what it
/// reads, so one explicit scratch driven across two engines of different sizes
/// and three bundles each (dense, sparse, evolved by updates), interleaved query
/// by query, answers every method exactly as a fresh scratch does — same result,
/// same work counters — and as Dijkstra does.
#[test]
fn one_explicit_scratch_across_engines_and_bundles_answers_like_a_fresh_one() {
    let engines = [build_full_engine(700, 77), build_full_engine(300, 78)];
    let bundles: Vec<Vec<ObjectIndexes>> = engines
        .iter()
        .map(|engine| {
            let graph = engine.graph();
            let mut evolved = engine.build_object_indexes(uniform(graph, 0.03, 3));
            let churn = ChurnConfig { events: 60, seed: 4, ..Default::default() };
            for event in churn_stream(graph.num_vertices(), evolved.objects(), &churn) {
                engine.apply_object_update(&mut evolved, event);
            }
            vec![
                engine.build_object_indexes(uniform(graph, 0.15, 1)),
                engine.build_object_indexes(uniform(graph, 0.01, 2)),
                evolved,
            ]
        })
        .collect();

    let k = 5;
    let mut pooled = EngineScratch::new();
    let (mut out, mut fresh_out) = (QueryOutput::default(), QueryOutput::default());
    for probe in 0..6u32 {
        for method in Method::ALL {
            // Every query switches engine or bundle from the one before it.
            for slot in 0..6 {
                let (e, b) = ((slot + probe as usize) % 2, (slot / 2 + probe as usize) % 3);
                let (engine, bundle) = (&engines[e], &bundles[e][b]);
                let q = (probe * 977 + slot as u32 * 131) % engine.graph().num_vertices() as NodeId;
                let request = QueryRequest::new(method, q, k).with_objects(bundle);
                engine.execute_with_scratch(&request, &mut pooled, &mut out).unwrap();
                engine
                    .execute_with_scratch(&request, &mut EngineScratch::new(), &mut fresh_out)
                    .unwrap();
                let at = format!("{} on engine {e}, bundle {b}, q={q}", method.name());
                assert_eq!(out.result, fresh_out.result, "{at}: pooled != fresh");
                let work = |o: &QueryOutput| QueryStats { elapsed_micros: 0, ..o.stats };
                assert_eq!(work(&out), work(&fresh_out), "{at}: pooled work != fresh");
                let exact =
                    matches_ground_truth(engine.graph(), q, k, bundle.objects(), &out.result);
                assert!(exact, "{at}: != Dijkstra");
            }
        }
    }
}

/// Ten paced rounds through a running `ServeFront` — stage a churn batch, publish
/// it as the round's epoch, submit twelve `method` queries, drain — with every
/// response re-checked against the Dijkstra ground truth of the exact epoch it was
/// served from (no publish happens between a round's submit and its drain, so that
/// epoch is known). `pin_round` holds the epochs current at the starts of that
/// round and the one before it across its publish: with both retired bundles
/// pinned (one pin alone never is enough, thanks to the spare), the publish must
/// take the clone fallback. `after_round` sees each round's drained epoch.
fn front_rounds_match_their_epochs(
    engine: Arc<Engine>,
    method: Method,
    pin_round: Option<u64>,
    after_round: impl Fn(u64, &EpochSnapshot),
) -> Arc<ObjectStore> {
    let initial = uniform(engine.graph(), 0.04, 8);
    let mut feeder = initial.clone();
    let store = Arc::new(ObjectStore::new(Arc::clone(&engine), initial));
    let (front, responses) = ServeFront::start(
        Arc::clone(&store),
        ServeConfig { workers: 2, max_batch: 8, ..Default::default() },
    );

    let n = engine.graph().num_vertices();
    let mut id = 0u64;
    let mut pins = Vec::new();
    for round in 0..10u64 {
        if pin_round.is_some_and(|r| round == r || round + 1 == r) {
            pins.push(store.snapshot());
        }
        let fallbacks_before = store.clone_fallbacks();
        let batch = churn_stream(
            n,
            &feeder,
            &ChurnConfig { events: 10, seed: 99 + round, ..Default::default() },
        );
        for event in batch {
            event.apply_to(&mut feeder);
            store.stage(event);
        }
        let snap = store.publish();
        assert_eq!(snap.objects().vertices(), feeder.vertices(), "round {round}");
        if pin_round == Some(round) {
            assert!(store.clone_fallbacks() > fallbacks_before, "a pinned epoch was reused");
            pins.clear();
        }

        let mut queries: std::collections::HashMap<u64, NodeId> = Default::default();
        for probe in 0..12u64 {
            let q = ((round * 257 + probe * 7919) % n as u64) as NodeId;
            queries.insert(id, q);
            front.submit(KnnRequest { id, method, query: q, k: 5, deadline: None }).unwrap();
            id += 1;
        }
        for _ in 0..queries.len() {
            let r = responses.recv_timeout(Duration::from_secs(60)).expect("response timed out");
            assert_eq!(r.epoch, snap.epoch(), "round {round}: response served off-epoch");
            let q = queries[&r.id];
            let truth: Vec<_> = ground_truth(engine.graph(), q, 5, snap.objects())
                .iter()
                .map(|&(_, d)| d)
                .collect();
            assert_eq!(
                r.output.expect("query failed").distances(),
                truth,
                "round {round}: {} response {} diverged from epoch {}'s ground truth at q={q}",
                method.name(),
                r.id,
                snap.epoch()
            );
        }
        after_round(round, &snap);
    }
    drop(front);
    store
}

/// End-to-end: a running `ServeFront` stays correct while updates stream through
/// it.
#[test]
fn serve_front_responses_match_ground_truth_of_their_epoch() {
    front_rounds_match_their_epochs(build_engine(800, 31415), Method::Gtree, None, |_, _| {});
}

/// IER-CH's target labels are filled by the updater once, at stage time in the
/// working bundle; the publish's copy into a reused bundle and a clone fallback
/// both share them. Across both paths every published object has its label, and
/// every response is exact for the epoch it names.
#[test]
fn ier_ch_through_the_front_is_exact_per_epoch_across_reclaims_and_a_clone_fallback() {
    let net = RoadNetwork::generate(&GeneratorConfig::new(800, 2024));
    let config = EngineConfig { build_ch: true, ..EngineConfig::minimal() };
    let engine = Arc::new(Engine::build(net.graph(EdgeWeightKind::Distance), &config));
    let store = front_rounds_match_their_epochs(engine, Method::IerCh, Some(2), |round, snap| {
        let targets = snap.indexes().ch_targets().expect("engine built a CH");
        assert_eq!(targets.len(), snap.objects().len(), "round {round}");
        let labelled = snap.objects().vertices().iter().all(|&v| targets.label(v).is_some());
        assert!(labelled, "round {round}: a published object has no label");
    });
    assert!(store.clone_fallbacks() < 10, "no publish reused a retired bundle");
}
