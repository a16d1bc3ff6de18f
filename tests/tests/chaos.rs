//! Chaos tests for the serving front's robustness layer (docs/ROBUSTNESS.md):
//! sustained 2× queue-capacity overload with seeded fault injection — ~1%
//! worker panics plus stragglers — while updates stream through the store.
//!
//! Invariants under chaos:
//! * every submitted request gets **exactly one** response (no hangs, no
//!   duplicates), with panic-poisoned requests answered `WorkerPanicked`;
//! * the injected-fault counts match the seeded plan's census exactly
//!   (determinism — each panicking id panics once, on whichever worker
//!   generation dequeues it);
//! * shutdown drains and reports exact totals after arbitrary worker carnage;
//! * post-chaos, the store still answers exactly (Dijkstra-verified), i.e. the
//!   epoch machinery survived every mid-batch panic;
//! * a request shed at admission never reaches a worker, so a fault plan that
//!   would panic its id cannot fire.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rnknn::engine::{Engine, EngineConfig, Method};
use rnknn::verify::ground_truth;
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::{EdgeWeightKind, NodeId};
use rnknn_objects::{uniform, UpdateEvent};
use rnknn_serve::{
    FaultDecision, FaultPlan, KnnRequest, KnnResponse, ObjectStore, ServeConfig, ServeError,
    ServeFront,
};

fn build_engine(size: usize, seed: u64) -> Arc<Engine> {
    let net = RoadNetwork::generate(&GeneratorConfig::new(size, seed));
    Arc::new(Engine::build(net.graph(EdgeWeightKind::Distance), &EngineConfig::minimal()))
}

fn request(id: u64, query: NodeId, k: usize) -> KnnRequest {
    KnnRequest { id, method: Method::Ine, query, k, deadline: None }
}

/// The tentpole chaos invariant: overload the front at ~2× its aggregate queue
/// capacity with the seeded chaos plan active, and require exactly one response
/// per request, census-exact fault counters, and exact post-chaos answers.
#[test]
fn overloaded_faulted_front_answers_every_request_exactly_once() {
    let engine = build_engine(800, 4711);
    let objects = uniform(engine.graph(), 0.04, 9);
    let store = Arc::new(ObjectStore::new(Arc::clone(&engine), objects));
    let plan = FaultPlan::chaos(2024);
    let workers = 2usize;
    let queue_capacity = 16usize;
    let k = 3usize;
    let config = ServeConfig {
        workers,
        queue_capacity,
        max_batch: 4,
        fault_plan: Some(plan),
        ..Default::default()
    };
    let (mut front, responses) = ServeFront::start(Arc::clone(&store), config);

    // Enough traffic that blocking `submit` keeps every shard queue pinned at
    // capacity (~2× aggregate capacity outstanding: full queues + in-flight
    // batches) for hundreds of refills.
    let total = (workers * queue_capacity * 20) as u64;
    let (expected_panics, expected_straggles) = plan.census(0..total);
    assert!(expected_panics >= 3, "chaos plan must inject panics ({expected_panics})");
    assert!(expected_straggles >= 3, "chaos plan must inject stragglers ({expected_straggles})");

    let n = engine.graph().num_vertices();
    // Drain on a consumer thread so the producer's blocking submits experience
    // real backpressure instead of deadlocking against an undrained sink.
    let consumer = std::thread::spawn(move || -> Vec<KnnResponse> {
        (0..total)
            .map(|_| {
                responses
                    .recv_timeout(Duration::from_secs(120))
                    .expect("a submitted request hung with no response")
            })
            .collect()
    });
    let spare = engine.graph().vertices().find(|&v| !store.snapshot().objects().contains(v));
    for id in 0..total {
        front.submit(request(id, ((id as usize * 131) % n) as NodeId, k)).unwrap();
        // Interleave live updates so epoch publishes race the worker carnage.
        if id % 64 == 17 {
            if let Some(v) = spare {
                let event =
                    if id % 128 == 17 { UpdateEvent::Insert(v) } else { UpdateEvent::Remove(v) };
                front.submit_update(event).unwrap();
            }
        }
    }

    let answers = consumer.join().expect("consumer thread panicked");
    let mut seen = vec![false; total as usize];
    let mut poisoned = 0u64;
    for r in &answers {
        assert!(
            !std::mem::replace(&mut seen[r.id as usize], true),
            "duplicate response for request {}",
            r.id
        );
        match &r.output {
            Ok(out) => {
                assert!(!out.result.is_empty() && out.result.len() <= k, "request {}", r.id);
                assert_ne!(plan.decide(r.id), FaultDecision::Panic, "a panicked id answered Ok");
            }
            Err(ServeError::WorkerPanicked) => {
                assert_eq!(
                    plan.decide(r.id),
                    FaultDecision::Panic,
                    "request {} poisoned without an injected panic",
                    r.id
                );
                poisoned += 1;
            }
            Err(e) => panic!("request {}: unexpected error {e}", r.id),
        }
    }
    assert_eq!(poisoned, expected_panics, "every injected panic poisons exactly one request");

    let stats = front.shutdown();
    assert_eq!(stats.served, total);
    assert_eq!(stats.worker_panics, expected_panics);
    assert_eq!(stats.worker_restarts, expected_panics);
    assert_eq!(stats.shed_expired, 0);

    // Post-chaos exactness: the final epoch answers like Dijkstra, so no
    // mid-batch panic or mid-publish restart tore the object indexes.
    let snapshot = store.snapshot();
    for probe in 0..8u64 {
        let q = ((probe as usize * 977) % n) as NodeId;
        let truth: Vec<_> = ground_truth(engine.graph(), q, k, snapshot.objects())
            .iter()
            .map(|&(_, d)| d)
            .collect();
        let out = engine.query_snapshot(Method::Ine, q, k, snapshot.indexes()).unwrap();
        assert_eq!(out.distances(), truth, "post-chaos divergence at q={q}");
    }
}

/// A request shed at admission (expired deadline) never reaches a worker: even
/// when the fault plan would panic its id, no panic fires and the answer is
/// `ShedExpired`, not `WorkerPanicked`.
#[test]
fn shed_requests_never_reach_the_fault_plan() {
    let engine = build_engine(400, 7);
    let store = Arc::new(ObjectStore::new(Arc::clone(&engine), uniform(engine.graph(), 0.05, 1)));
    let plan = FaultPlan {
        seed: 1,
        panic_per_mille: 1000,
        straggle_per_mille: 0,
        straggle: Duration::ZERO,
    };
    assert_eq!(plan.decide(0), FaultDecision::Panic, "plan panics every id");
    let (mut front, responses) = ServeFront::start(
        store,
        ServeConfig { workers: 1, fault_plan: Some(plan), ..Default::default() },
    );
    let expired = Instant::now() - Duration::from_millis(1);
    front
        .submit(KnnRequest { id: 0, method: Method::Ine, query: 0, k: 1, deadline: Some(expired) })
        .unwrap();
    let r = responses.recv_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(r.output.unwrap_err(), ServeError::ShedExpired);
    let stats = front.shutdown();
    assert_eq!((stats.served, stats.shed_expired, stats.worker_panics), (1, 1, 0));
}

/// Latency isolation: requests the fault plan leaves alone must not get
/// dramatically slower just because the plan is installed. Sequential
/// round-trips (no queueing) compare a faulted front's un-faulted p50 against a
/// plan-free baseline. The two fronts run side by side and take turns, one
/// round-trip each per id (alternating which goes first), so a stolen time
/// slice lands on both sides' samples alike rather than on one whole run. The
/// aim is within 10%; locally the two are indistinguishable, but a shared CI
/// box needs headroom, so the assertion is a loose 5× (a real
/// regression — e.g. a sleep or lock on the un-faulted path — is orders of
/// magnitude).
#[test]
fn unfaulted_requests_keep_baseline_latency_under_fault_plan() {
    let engine = build_engine(800, 99);
    let objects = uniform(engine.graph(), 0.04, 3);
    let n = engine.graph().num_vertices();
    let k = 3usize;
    let plan = FaultPlan::chaos(7);

    let start_front = |fault_plan: Option<FaultPlan>| {
        let store = Arc::new(ObjectStore::new(Arc::clone(&engine), objects.clone()));
        ServeFront::start(store, ServeConfig { workers: 1, fault_plan, ..Default::default() })
    };
    let mut fronts = [start_front(None), start_front(Some(plan))];
    // Sequential round-trips over ids the plan spares (so both fronts time the
    // exact same untouched requests), after a short warmup.
    let ids: Vec<u64> =
        (0..).filter(|&id| plan.decide(id) == FaultDecision::None).take(96).collect();
    let mut samples = [Vec::with_capacity(ids.len()), Vec::with_capacity(ids.len())];
    for (i, &id) in ids.iter().enumerate() {
        for side in [i % 2, 1 - i % 2] {
            let (front, responses) = &fronts[side];
            let start = Instant::now();
            front.submit(request(id, ((id as usize * 131) % n) as NodeId, k)).unwrap();
            let r = responses.recv_timeout(Duration::from_secs(60)).unwrap();
            assert!(r.output.is_ok(), "un-faulted id {id} must be served");
            if i >= 16 {
                samples[side].push(start.elapsed());
            }
        }
    }
    for (front, _) in &mut fronts {
        front.shutdown();
    }
    let [baseline, faulted] = samples.map(|mut s| {
        s.sort();
        s[s.len() / 2]
    });
    assert!(
        faulted <= baseline.max(Duration::from_micros(50)) * 5,
        "un-faulted p50 regressed under fault plan: baseline {baseline:?}, faulted {faulted:?}"
    );
}
