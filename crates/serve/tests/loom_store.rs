//! Loom models of the epoch publish protocol.
//!
//! Each test explores every interleaving (within the explorer's preemption
//! bound) of one writer driving the stage → publish → copy lifecycle against
//! reader threads pinning and releasing [`EpochSnapshot`]s. The properties:
//!
//! 1. **Snapshot atomicity** — a reader sees a staged `Move` entirely or not at
//!    all (XOR membership), never a torn view, no matter where its pin lands.
//! 2. **The copy levels the reused bundle** — events published in epoch `n` are
//!    still present in epoch `n+1` even though `n+1` is staged on a *reused
//!    retired bundle* that held an older epoch (the `mutant-skip-copy` feature
//!    deletes the copy and makes this model fail).
//! 3. **One pinned epoch never forces a clone** — a reader pins at most one
//!    epoch at a time, and the store's spare leaves every publish two retired
//!    bundles to choose from, so `clone_fallbacks()` stays 0 in every schedule,
//!    with no spin and no dependence on the preemption bound (the
//!    `mutant-no-reuse` feature never reuses a retired bundle and fails this in
//!    every schedule).
//!    Every epoch a reader pins holds a CH target label for each of its objects:
//!    the label is filled once, at stage, and travels with its object through the
//!    copy.
//!
//! Run with `cargo test -p rnknn-serve --features loom-model`; see
//! docs/CORRECTNESS.md for the mutant matrix these models reject.

#![cfg(feature = "loom-model")]

use std::sync::OnceLock;

use rnknn::{Engine, EngineConfig};
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::EdgeWeightKind;
use rnknn_objects::{ObjectSet, UpdateEvent};
use rnknn_serve::sync::{thread, Arc};
use rnknn_serve::ObjectStore;

/// Vertices of the 60-vertex model graph used as objects / targets.
const BASE: [u32; 3] = [10, 20, 30];
const FREE_A: u32 = 40;
const FREE_B: u32 = 45;

/// One engine for every execution of every model: the road-network indexes are
/// immutable under this test, and the shim's types (unlike real loom's) may be
/// created outside `model()` and shared into it, so the expensive build is
/// hoisted out of the explored body.
fn engine() -> Arc<Engine> {
    static ENGINE: OnceLock<Arc<Engine>> = OnceLock::new();
    Arc::clone(ENGINE.get_or_init(|| {
        let net = RoadNetwork::generate(&GeneratorConfig::new(60, 7));
        let config = EngineConfig { build_ch: true, ..EngineConfig::minimal() };
        Arc::new(Engine::build(net.graph(EdgeWeightKind::Distance), &config))
    }))
}

fn store() -> Arc<ObjectStore> {
    let engine = engine();
    let num_vertices = engine.graph().num_vertices();
    let objects = ObjectSet::new("model", num_vertices, BASE.to_vec());
    Arc::new(ObjectStore::new(engine, objects))
}

/// Property 1 + 3: a concurrent reader observes a staged move atomically, and
/// its pin, wherever it lands, leaves the publish a retired bundle to copy into.
#[test]
fn move_is_atomic_under_every_schedule() {
    loom::model(|| {
        let store = store();
        let reader = {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                let snap = store.snapshot();
                let at_from = snap.objects().contains(BASE[0]);
                let at_to = snap.objects().contains(FREE_A);
                assert!(
                    at_from ^ at_to,
                    "torn move at epoch {}: from={at_from} to={at_to}",
                    snap.epoch()
                );
            })
        };
        assert!(store.stage(UpdateEvent::Move { from: BASE[0], to: FREE_A }));
        store.publish();
        reader.join().expect("reader");

        let fin = store.snapshot();
        assert_eq!(fin.epoch(), 1);
        assert!(!fin.objects().contains(BASE[0]));
        assert!(fin.objects().contains(FREE_A));
        assert_eq!(
            store.clone_fallbacks(),
            0,
            "one reader's pin forced a clone: the publish found no free retired bundle"
        );
    });
}

/// Property 2 + 3: the bundle reused at publish `n` is brought level by copying
/// epoch `n` into it, so epoch `n+1` still contains epoch `n`'s insert.
#[test]
fn reused_bundle_keeps_previous_epochs_events() {
    loom::model(|| {
        let store = store();
        let reader = {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                // Pin an arbitrary epoch and release promptly; membership of the
                // base objects, and a label per object, must hold in every epoch.
                let snap = store.snapshot();
                assert!(snap.objects().contains(BASE[1]));
                let targets = snap.indexes().ch_targets().expect("the model engine has a CH");
                assert_eq!(targets.len(), snap.objects().len(), "epoch {}", snap.epoch());
                assert!(snap.objects().vertices().iter().all(|&v| targets.label(v).is_some()));
            })
        };
        assert!(store.stage(UpdateEvent::Insert(FREE_A)));
        store.publish();
        assert!(store.stage(UpdateEvent::Insert(FREE_B)));
        store.publish();
        reader.join().expect("reader");

        let fin = store.snapshot();
        assert_eq!(fin.epoch(), 2);
        assert!(
            fin.objects().contains(FREE_A),
            "epoch 1's insert vanished from epoch 2: the reused bundle was not copied level"
        );
        assert!(fin.objects().contains(FREE_B));
        assert_eq!(fin.objects().len(), BASE.len() + 2);
        assert_eq!(store.clone_fallbacks(), 0);
    });
}

/// Concurrent staging from two threads serializes cleanly on the writer lock:
/// both events survive into the next publish, whichever order they land in.
#[test]
fn concurrent_staging_loses_no_events() {
    loom::model(|| {
        let store = store();
        let a = {
            let store = Arc::clone(&store);
            thread::spawn(move || assert!(store.stage(UpdateEvent::Insert(FREE_A))))
        };
        let b = {
            let store = Arc::clone(&store);
            thread::spawn(move || assert!(store.stage(UpdateEvent::Remove(BASE[2]))))
        };
        a.join().expect("stager a");
        b.join().expect("stager b");
        let snap = store.publish();
        assert!(snap.objects().contains(FREE_A));
        assert!(!snap.objects().contains(BASE[2]));
        assert_eq!(snap.objects().len(), BASE.len());
    });
}

/// Epochs are monotonic from any single reader's point of view, across
/// concurrent publishes.
#[test]
fn epochs_are_monotonic_per_reader() {
    loom::model(|| {
        let store = store();
        let reader = {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                let first = store.snapshot().epoch();
                let second = store.snapshot().epoch();
                assert!(second >= first, "epoch went backwards: {first} then {second}");
            })
        };
        store.stage(UpdateEvent::Insert(FREE_A));
        store.publish();
        store.publish();
        reader.join().expect("reader");
        assert_eq!(store.snapshot().epoch(), 2);
    });
}
