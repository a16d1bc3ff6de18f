//! Loom models of the [`ServeFront`] submit/serve/shutdown handshake.
//!
//! These explore the full front-end machinery — bounded shard queues, the
//! batching worker, the updater thread and the drain-on-shutdown protocol — all
//! running on the instrumented channel/thread shim, against a real (tiny)
//! engine. Properties:
//!
//! 1. **No lost or duplicated requests** — every submitted request is answered
//!    exactly once and shutdown reports the exact totals, wherever the worker,
//!    updater and closing main thread interleave.
//! 2. **Update visibility** — an update published before a request was
//!    submitted is visible to that request's batch (the per-batch epoch pin
//!    happens after admission).
//! 3. **Supervised respawn** — a worker panic (simulated under the model via
//!    the fault plan, so no real unwinding crosses the shim) poisons exactly
//!    its own request; the dying generation's supervision sentry answers it
//!    `WorkerPanicked`, respawns a fresh generation on the same shard queue,
//!    and neither the leftover batch nor anything still queued is ever lost.
//!    The `mutant-skip-respawn` feature abandons the shard instead and makes
//!    every schedule of that model fail (lost responses → deadlock).
//!
//! Run with `cargo test -p rnknn-serve --features loom-model`; see
//! docs/CORRECTNESS.md for the mutant matrix.

#![cfg(feature = "loom-model")]

use std::num::NonZeroU64;
use std::sync::OnceLock;

use rnknn::{Engine, EngineConfig, Method};
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::EdgeWeightKind;
use rnknn_objects::{ObjectSet, UpdateEvent};
use rnknn_serve::sync::{thread, Arc};
use rnknn_serve::{KnnRequest, ObjectStore, ServeConfig, ServeFront};

const BASE: [u32; 3] = [10, 20, 30];
const FREE: u32 = 40;

fn engine() -> Arc<Engine> {
    static ENGINE: OnceLock<Arc<Engine>> = OnceLock::new();
    Arc::clone(ENGINE.get_or_init(|| {
        let net = RoadNetwork::generate(&GeneratorConfig::new(60, 7));
        Arc::new(Engine::build(net.graph(EdgeWeightKind::Distance), &EngineConfig::minimal()))
    }))
}

fn store() -> Arc<ObjectStore> {
    let engine = engine();
    let num_vertices = engine.graph().num_vertices();
    Arc::new(ObjectStore::new(engine, ObjectSet::new("model", num_vertices, BASE.to_vec())))
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_capacity: 2,
        max_batch: 2,
        publish_every: NonZeroU64::new(1).expect("nonzero"),
        ..Default::default()
    }
}

fn request(id: u64, query: u32) -> KnnRequest {
    KnnRequest { id, method: Method::Ine, query, k: 1, deadline: None }
}

/// Property 1: every request answered exactly once; shutdown drains and joins
/// under every schedule and reports exact totals.
#[test]
fn every_request_is_answered_exactly_once_through_shutdown() {
    loom::model(|| {
        let (mut front, responses) = ServeFront::start(store(), config());
        front.submit(request(0, BASE[0])).expect("submit 0");
        front.submit(request(1, BASE[1])).expect("submit 1");
        let mut seen = [false; 2];
        for _ in 0..2 {
            let r = responses.recv().expect("response");
            assert!(!std::mem::replace(&mut seen[r.id as usize], true), "duplicate {}", r.id);
            let output = r.output.expect("query ok");
            assert_eq!(output.result.len(), 1);
        }
        let stats = front.shutdown();
        assert_eq!(stats.served, 2);
        assert_eq!(stats.updates_applied, 0);
        // Nothing further arrives after a drained shutdown.
        assert!(responses.try_recv().is_err());
    });
}

/// Property 2: an update that published before a request was submitted is
/// visible to that request.
#[test]
fn published_update_is_visible_to_later_requests() {
    loom::model(|| {
        let store = store();
        let (front, responses) = ServeFront::start(Arc::clone(&store), config());

        // A first request may be served against epoch 0, through the same
        // pooled worker scratch the later request reuses.
        front.submit(request(0, BASE[0])).expect("submit 0");

        // Route an insert through the updater thread and wait for its publish.
        front.submit_update(UpdateEvent::Insert(FREE)).expect("submit update");
        while store.snapshot().epoch() == 0 {
            thread::yield_now();
        }

        // Submitted strictly after the publish: the worker pins its batch's
        // epoch after admission, so this request must see the insert.
        front.submit(request(1, FREE)).expect("submit 1");
        for _ in 0..2 {
            let r = responses.recv().expect("response");
            let output = r.output.expect("query ok");
            if r.id == 1 {
                assert!(r.epoch >= 1, "request 1 served from a pre-publish epoch");
                assert_eq!(
                    output.result[0],
                    (FREE, 0),
                    "insert published before submission must be visible"
                );
            }
        }
        drop(front);
    });
}

/// A fault plan that panics exactly the ids in `victims` and leaves the ids in
/// `spared` alone (seed searched deterministically; `decide` is pure).
fn targeted_plan(victims: &[u64], spared: &[u64]) -> rnknn_serve::FaultPlan {
    use rnknn_serve::{FaultDecision, FaultPlan};
    (0u64..100_000)
        .map(|seed| FaultPlan {
            seed,
            panic_per_mille: 500,
            straggle_per_mille: 0,
            straggle: std::time::Duration::ZERO,
        })
        .find(|plan| {
            victims.iter().all(|&id| plan.decide(id) == FaultDecision::Panic)
                && spared.iter().all(|&id| plan.decide(id) == FaultDecision::None)
        })
        .expect("a seed matching the victim set exists")
}

/// Property 3: supervised respawn. The fault plan poisons exactly request 1;
/// under every schedule it is answered `WorkerPanicked`, a fresh generation
/// takes over the shard, and requests 0 and 2 — whether they were
/// already served, leftover in the poisoned batch, or still queued — are all
/// answered exactly once. Under `mutant-skip-respawn` the shard is abandoned
/// and this model fails on every schedule (the third response never arrives).
#[test]
fn panicked_worker_is_respawned_and_no_request_is_lost() {
    let plan = targeted_plan(&[1], &[0, 2]);
    loom::model(move || {
        let mut config = config();
        config.fault_plan = Some(plan);
        let (mut front, responses) = ServeFront::start(store(), config);
        front.submit(request(0, BASE[0])).expect("submit 0");
        front.submit(request(1, BASE[1])).expect("submit 1");
        front.submit(request(2, BASE[2])).expect("submit 2");
        let mut seen = [false; 3];
        for _ in 0..3 {
            let r = responses.recv().expect("response");
            assert!(!std::mem::replace(&mut seen[r.id as usize], true), "duplicate {}", r.id);
            if r.id == 1 {
                assert!(
                    matches!(r.output, Err(rnknn_serve::ServeError::WorkerPanicked)),
                    "poisoned request must be answered with the typed panic error"
                );
            } else {
                assert_eq!(r.output.expect("query ok").result.len(), 1, "request {}", r.id);
            }
        }
        let stats = front.shutdown();
        assert_eq!(stats.served, 3);
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.worker_restarts, 1);
        assert!(responses.try_recv().is_err(), "no extra responses after shutdown");
    });
}

/// Shutdown with an update still queued: the drain protocol applies and
/// publishes it before the updater exits, so nothing staged is ever lost.
#[test]
fn shutdown_flushes_queued_updates() {
    loom::model(|| {
        let store = store();
        let (mut front, responses) = ServeFront::start(Arc::clone(&store), config());
        front.submit_update(UpdateEvent::Insert(FREE)).expect("submit update");
        let stats = front.shutdown();
        assert_eq!(stats.updates_applied, 1);
        assert!(stats.epochs_published >= 1);
        let fin = store.snapshot();
        assert!(fin.objects().contains(FREE), "queued update lost in shutdown");
        drop(responses);
    });
}
