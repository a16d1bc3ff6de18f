//! The epoch-snapshotted object store.
//!
//! [`ObjectStore`] is the single writer for a live object set. Mutations
//! ([`UpdateEvent`]s: insert, remove, move, [staged](ObjectStore::stage) one at a
//! time or as a batch) are applied **incrementally** to a private working copy
//! of the engine's [`ObjectIndexes`] (no index is ever rebuilt) and become
//! visible to readers only at a [`publish`]: one atomic swap of an `Arc`-shared
//! [`EpochSnapshot`]. A reader
//! that grabbed a snapshot keeps a fully consistent object-set + index view for
//! as long as it holds the `Arc`, no matter how many epochs are published
//! underneath it — exactly what a pooled kNN query needs.
//!
//! ## Publish by copy
//!
//! An update is applied once: staging applies it, in place, to the working
//! bundle. A publish moves that bundle in as the new epoch (an `Arc` swap, no
//! copy) and makes the next working bundle by copying the new epoch into a
//! superseded bundle that no reader holds, with [`ObjectIndexes`]' field-wise
//! `clone_from`: into that bundle's own buffers, so once warm it allocates
//! nothing, and sharing every CH target label instead of computing it again. A
//! publish costs one copy of the bundle whatever the batch: 4.1 µs at 232
//! objects on the 23k network, where replaying 64 events cost 22 µs (the epoch
//! lifecycle in docs/ARCHITECTURE.md has the measurements).
//!
//! The store starts with three bundles: the working one, the published one and a
//! spare. A publish retires the superseded epoch onto a short list and reuses
//! the oldest retired bundle that no reader pins any more, so a reader pinning
//! one epoch (the newest, say) never costs a clone. Only when readers pin every
//! retired bundle does a publish clone the new epoch instead
//! ([`ObjectStore::clone_fallbacks`]); the pinned bundles stay on the list, up to
//! a small bound, so the pool grows to what the readers pin. Nothing spins or
//! yields, and correctness never depends on which path a publish takes.
//!
//! The store keeps membership, not policy: an object with a lifetime is removed
//! by its owner staging an [`UpdateEvent::Remove`] when the owner's timer fires.
//!
//! [`publish`]: ObjectStore::publish

use crate::sync::{Arc, Mutex, RwLock};

use rnknn::{Engine, ObjectIndexes};
use rnknn_objects::{ObjectSet, UpdateEvent};

/// One published epoch: an immutable object-set + object-index view tagged with
/// the epoch number it was published under. Readers hold it via `Arc` and query
/// through `QueryRequest::with_objects(snapshot.indexes())` / `Engine::query_snapshot`.
#[derive(Debug)]
pub struct EpochSnapshot {
    epoch: u64,
    indexes: ObjectIndexes,
}

impl EpochSnapshot {
    /// The epoch number (0 for the initial build, +1 per publish).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The object indexes of this epoch.
    pub fn indexes(&self) -> &ObjectIndexes {
        &self.indexes
    }

    /// The object set of this epoch.
    pub fn objects(&self) -> &ObjectSet {
        self.indexes.objects()
    }
}

/// Writer-side state: the working bundle and the retired epochs.
struct WriterState {
    /// The next epoch, staged in place. The writer holds its only reference until
    /// a publish moves it into the published slot.
    working: Arc<EpochSnapshot>,
    /// Superseded epochs, oldest first, at most [`MAX_RETIRED`]. Readers may
    /// still pin them; one that nobody pins becomes the next working bundle.
    retired: Vec<Arc<EpochSnapshot>>,
    /// Events staged since the last publish.
    pending: usize,
    /// Publishes that found every retired epoch pinned and cloned the new one.
    clone_fallbacks: u64,
}

impl WriterState {
    fn working_mut(&mut self) -> &mut ObjectIndexes {
        &mut Arc::get_mut(&mut self.working).expect("a reader holds the working bundle").indexes
    }
}

/// The single-writer, many-reader object store (see the module docs).
///
/// All methods take `&self`; update methods serialize on an internal writer lock,
/// while [`ObjectStore::snapshot`] only touches the read-mostly published slot.
/// Updates are **staged**: they take effect on the working copy immediately but
/// readers only observe them after the next [`ObjectStore::publish`].
pub struct ObjectStore {
    engine: Arc<Engine>,
    writer: Mutex<WriterState>,
    published: RwLock<Arc<EpochSnapshot>>,
}

/// How many superseded epochs the store keeps. When readers pin every one of
/// them at a publish, the publish clones, and the pinned epochs stay here so a
/// later publish reuses whichever is released first; past this bound the oldest
/// is let go, and its last reader frees it.
const MAX_RETIRED: usize = 4;

impl ObjectStore {
    /// Builds the store's initial indexes from `initial` and publishes them as
    /// epoch 0. This full build is the only non-incremental step in the store's
    /// life (plus two clones: the working bundle and the spare).
    pub fn new(engine: Arc<Engine>, initial: ObjectSet) -> ObjectStore {
        let indexes = engine.build_object_indexes(initial);
        let mut retired = Vec::with_capacity(MAX_RETIRED + 1);
        retired.push(Arc::new(EpochSnapshot { epoch: 0, indexes: indexes.clone() }));
        let working = Arc::new(EpochSnapshot { epoch: 1, indexes: indexes.clone() });
        ObjectStore {
            engine,
            writer: Mutex::new(WriterState { working, retired, pending: 0, clone_fallbacks: 0 }),
            published: RwLock::new(Arc::new(EpochSnapshot { epoch: 0, indexes })),
        }
    }

    /// The engine whose road-network indexes back every epoch.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The currently-published epoch. Cheap (one `Arc` clone under a read lock);
    /// the returned view stays consistent for as long as the caller holds it.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        self.published.read().expect("object store poisoned").clone()
    }

    /// Stages one [`UpdateEvent`]: an insert, a removal, or a move, which is one
    /// atomic event (readers can never see the object at both or neither
    /// location). Returns whether the working set changed: `false` for an insert
    /// at an occupied vertex, a removal at an empty one, or a move whose source
    /// is empty, whose target is occupied or that goes nowhere.
    pub fn stage(&self, event: UpdateEvent) -> bool {
        let mut w = self.writer.lock().expect("object store poisoned");
        Self::stage_locked(&self.engine, &mut w, event)
    }

    /// Stages `events` in order under one writer lock — the same effect as
    /// [`ObjectStore::stage`] on each in turn. Returns how many changed the
    /// working set (no-ops excluded).
    pub fn stage_batch(&self, events: &[UpdateEvent]) -> u64 {
        let mut w = self.writer.lock().expect("object store poisoned");
        events.iter().map(|&event| u64::from(Self::stage_locked(&self.engine, &mut w, event))).sum()
    }

    fn stage_locked(engine: &Engine, w: &mut WriterState, event: UpdateEvent) -> bool {
        let changed = engine.apply_object_update(w.working_mut(), event);
        w.pending += usize::from(changed);
        changed
    }

    /// Number of staged events not yet visible to readers.
    pub fn pending_updates(&self) -> usize {
        self.writer.lock().expect("object store poisoned").pending
    }

    /// Number of publishes that found every retired epoch pinned by a reader and
    /// cloned the new epoch instead of copying it into a free bundle.
    pub fn clone_fallbacks(&self) -> u64 {
        self.writer.lock().expect("object store poisoned").clone_fallbacks
    }

    /// Atomically publishes the working state as a new epoch and returns it
    /// (also immediately visible to [`ObjectStore::snapshot`] callers). A
    /// publish with nothing pending still advances the epoch.
    pub fn publish(&self) -> Arc<EpochSnapshot> {
        let mut w = self.writer.lock().expect("object store poisoned");
        // Move the working bundle in as the published epoch (no copy)...
        let previous = std::mem::replace(
            &mut *self.published.write().expect("object store poisoned"),
            Arc::clone(&w.working),
        );
        w.retired.push(previous);
        // ...and bring the next working bundle level with it: a copy into the
        // oldest retired epoch no reader pins, or a clone when they all are.
        // Mutant: never reuse a retired epoch, so every publish clones.
        let free = if cfg!(feature = "mutant-no-reuse") {
            None
        } else {
            w.retired.iter_mut().position(|epoch| Arc::get_mut(epoch).is_some())
        };
        let epoch = w.working.epoch + 1;
        let next = match free {
            Some(at) => {
                let mut next = w.retired.remove(at);
                let buffer = Arc::get_mut(&mut next).expect("a retired epoch was pinned again");
                buffer.epoch = epoch;
                // Mutant: skip the copy, so the next epoch publishes from a
                // bundle that lacks every event up to this one.
                if !cfg!(feature = "mutant-skip-copy") {
                    buffer.indexes.clone_from(&w.working.indexes);
                }
                next
            }
            None => {
                w.clone_fallbacks += 1;
                if w.retired.len() > MAX_RETIRED {
                    w.retired.remove(0);
                }
                Arc::new(EpochSnapshot { epoch, indexes: w.working.indexes.clone() })
            }
        };
        w.pending = 0;
        std::mem::replace(&mut w.working, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn::{EngineConfig, Method};
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::EdgeWeightKind;
    use rnknn_objects::uniform;

    fn engine() -> Arc<Engine> {
        let net = RoadNetwork::generate(&GeneratorConfig::new(500, 31));
        Arc::new(Engine::build(net.graph(EdgeWeightKind::Distance), &EngineConfig::minimal()))
    }

    #[test]
    fn updates_stay_invisible_until_publish() {
        let engine = engine();
        let store = ObjectStore::new(Arc::clone(&engine), uniform(engine.graph(), 0.02, 3));
        let before = store.snapshot();
        let v = engine.graph().vertices().find(|&v| !before.objects().contains(v)).unwrap();
        assert!(store.stage(UpdateEvent::Insert(v)));
        assert!(!store.stage(UpdateEvent::Insert(v)), "duplicate insert must be a no-op");
        assert_eq!(store.pending_updates(), 1);
        // Still epoch 0 and still without v.
        let unpublished = store.snapshot();
        assert_eq!(unpublished.epoch(), 0);
        assert!(!unpublished.objects().contains(v));

        let published = store.publish();
        assert_eq!(published.epoch(), 1);
        assert!(published.objects().contains(v));
        assert_eq!(store.pending_updates(), 0);
        // The old Arc still serves its old view.
        assert!(!unpublished.objects().contains(v));
        // And queries against the new epoch see the new object.
        let out = engine.query_snapshot(Method::Ine, v, 1, published.indexes()).unwrap();
        assert_eq!(out.result[0], (v, 0));
    }

    /// Staging a batch under one lock is staging its events one at a time: the
    /// same count of changes, the same published objects and answers, and the
    /// same pending count. The second epoch is staged on a reused bundle that the
    /// first publish's copy brought level, so it checks the copy too.
    #[test]
    fn stage_batch_matches_staging_one_at_a_time() {
        let engine = engine();
        let initial = uniform(engine.graph(), 0.03, 17);
        let batched = ObjectStore::new(Arc::clone(&engine), initial.clone());
        let single = ObjectStore::new(Arc::clone(&engine), initial.clone());
        let present = initial.vertices().to_vec();
        let mut free = engine.graph().vertices().filter(|&v| !initial.contains(v));
        let (a, b, c) = (free.next().unwrap(), free.next().unwrap(), free.next().unwrap());
        let events = [
            UpdateEvent::Insert(a),
            UpdateEvent::Insert(a), // no-op: already present
            UpdateEvent::Move { from: present[0], to: b },
            UpdateEvent::Remove(c), // no-op: absent
            UpdateEvent::Remove(present[1]),
            UpdateEvent::Move { from: present[1], to: c }, // no-op: source gone
            UpdateEvent::Insert(present[1]),
        ];
        assert_eq!(batched.stage_batch(&events), 4, "no-ops must not count");
        let one_by_one = events.iter().filter(|&&e| single.stage(e)).count();
        assert_eq!(one_by_one, 4);
        assert_eq!(batched.pending_updates(), single.pending_updates());
        assert_eq!(batched.stage_batch(&[]), 0);

        let same = |x: &EpochSnapshot, y: &EpochSnapshot| {
            assert_eq!(x.objects().vertices(), y.objects().vertices());
            for q in engine.graph().vertices().step_by(37) {
                let via_x = engine.query_snapshot(Method::Ine, q, 4, x.indexes()).unwrap();
                let via_y = engine.query_snapshot(Method::Ine, q, 4, y.indexes()).unwrap();
                assert_eq!(via_x.result, via_y.result, "query at {q}");
            }
        };
        same(&batched.publish(), &single.publish());
        assert_eq!(batched.stage_batch(&[UpdateEvent::Remove(a)]), 1);
        assert!(single.stage(UpdateEvent::Remove(a)));
        same(&batched.publish(), &single.publish());
        assert_eq!(batched.clone_fallbacks(), 0);
    }

    #[test]
    fn move_is_atomic_and_every_reused_bundle_is_level() {
        let engine = engine();
        let store = ObjectStore::new(Arc::clone(&engine), uniform(engine.graph(), 0.05, 9));
        for round in 0..50u32 {
            let snap = store.snapshot();
            let from = *snap.objects().vertices().first().unwrap();
            let to = engine.graph().vertices().find(|&v| !snap.objects().contains(v)).unwrap();
            let population = snap.objects().len();
            // A reader pinning the newest epoch across the publish never costs a
            // clone: the publish reuses an older bundle.
            let event = UpdateEvent::Move { from, to };
            assert!(store.stage(event), "round {round}");
            assert!(!store.stage(event), "round {round}: a repeated move must no-op");
            let published = store.publish();
            assert!(!published.objects().contains(from));
            assert!(published.objects().contains(to));
            assert_eq!(published.objects().len(), population);
            assert!(snap.objects().contains(from) && !snap.objects().contains(to));
        }
        assert_eq!(store.clone_fallbacks(), 0);
    }

    /// The working bundle a publish levels shares the published CH label of an
    /// inserted object: the label is computed once, at stage.
    #[test]
    fn an_inserted_label_is_shared_with_the_next_working_bundle() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(500, 31));
        let config = EngineConfig { build_ch: true, ..EngineConfig::minimal() };
        let engine = Arc::new(Engine::build(net.graph(EdgeWeightKind::Distance), &config));
        let store = ObjectStore::new(Arc::clone(&engine), uniform(engine.graph(), 0.03, 4));
        for round in 0..4 {
            let v = engine.graph().vertices().find(|&v| !store.snapshot().objects().contains(v));
            let v = v.unwrap();
            assert!(store.stage(UpdateEvent::Insert(v)));
            let published = store.publish();
            let w = store.writer.lock().unwrap();
            let label = |indexes: &ObjectIndexes| {
                let label = indexes.ch_targets().and_then(|t| t.label(v));
                label.expect("inserted object unlabelled").as_ptr()
            };
            let (working, epoch) = (label(&w.working.indexes), label(published.indexes()));
            assert_eq!(working, epoch, "round {round}: label of {v} computed twice");
        }
    }

    /// Forces the clone fallback deterministically. The spare means one pinned
    /// epoch never does, so it takes two: pinning epochs 0 and 1 leaves the
    /// second publish no free bundle, and it must clone — exactly once. The
    /// cloned bundle and a later copied one must both match a from-scratch
    /// rebuild.
    #[test]
    fn pinned_snapshot_forces_exactly_one_clone_fallback_with_correct_contents() {
        let engine = engine();
        let store = ObjectStore::new(Arc::clone(&engine), uniform(engine.graph(), 0.03, 21));
        let first_pin = store.snapshot();
        let mut free = engine.graph().vertices().filter(|&v| !first_pin.objects().contains(v));
        let (a, b, c, d) = (
            free.next().unwrap(),
            free.next().unwrap(),
            free.next().unwrap(),
            free.next().unwrap(),
        );

        // One pinned epoch: the publish copies into the spare.
        assert!(store.stage(UpdateEvent::Insert(a)));
        let second_pin = store.publish();
        assert_eq!(store.clone_fallbacks(), 0, "one pinned epoch forced a clone");
        // Two pinned epochs: every retired bundle is held, so this publish
        // *must* clone.
        assert!(store.stage(UpdateEvent::Insert(b)));
        let cloned = store.publish();
        assert_eq!(store.clone_fallbacks(), 1, "two pinned epochs must force the clone fallback");
        assert_eq!(cloned.epoch(), 2);
        assert!(cloned.objects().contains(a) && cloned.objects().contains(b));
        // The pinned epochs are untouched by the clone.
        assert!(!first_pin.objects().contains(a) && !second_pin.objects().contains(b));
        assert_eq!((first_pin.epoch(), second_pin.epoch()), (0, 1));

        // A published bundle must be indistinguishable from a from-scratch
        // build over the same membership: same objects, same query answers.
        let matches_rebuild = |snap: &EpochSnapshot, queries: &[u32]| {
            let rebuilt = ObjectStore::new(
                Arc::clone(&engine),
                rnknn_objects::ObjectSet::new(
                    "rebuilt",
                    engine.graph().num_vertices(),
                    snap.objects().vertices().to_vec(),
                ),
            );
            let fresh = rebuilt.snapshot();
            assert_eq!(snap.objects().len(), fresh.objects().len());
            for v in engine.graph().vertices() {
                assert_eq!(snap.objects().contains(v), fresh.objects().contains(v), "vertex {v}");
            }
            for &q in queries {
                let via_snap = engine.query_snapshot(Method::Ine, q, 3, snap.indexes()).unwrap();
                let via_fresh = engine.query_snapshot(Method::Ine, q, 3, fresh.indexes()).unwrap();
                assert_eq!(via_snap.result, via_fresh.result, "query at {q}");
            }
        };
        matches_rebuild(&cloned, &[a, b]);

        // Release every pin: the next publish copies into a released bundle,
        // which held epoch 0 or 1. No further fallback.
        drop((first_pin, second_pin, cloned));
        assert!(store.stage(UpdateEvent::Insert(c)));
        let copied = store.publish();
        assert!(store.stage(UpdateEvent::Insert(d)));
        let after = store.publish();
        assert_eq!(store.clone_fallbacks(), 1, "a released bundle must be reused");
        assert_eq!((copied.epoch(), after.epoch()), (3, 4));
        assert!([a, b, c].iter().all(|&v| copied.objects().contains(v)), "the copy lost an insert");
        matches_rebuild(&copied, &[a, b, c]);
        matches_rebuild(&after, &[a, b, c]);
    }
}
