//! Live object-index maintenance: the engine's object set plus every per-method
//! object index, bundled so they can be built together, swapped atomically, and —
//! the serving-layer primitive — **updated incrementally** instead of rebuilt.
//!
//! [`ObjectIndexes`] is what `Engine::set_objects` installs and what a query
//! dispatch reads. The serving layer (`rnknn-serve`) keeps its own copies outside
//! the engine and publishes them as epoch snapshots; both paths go through
//! [`ObjectIndexes::apply`], which maintains each method's object index in place:
//!
//! | index | update strategy |
//! |-------|-----------------|
//! | object set (INE bitmap + sorted list) | exact in-place insert/remove |
//! | R-tree (IER, DB-ENN) | incremental insert / delete with rect refits |
//! | G-tree occurrence list | leaf-path presence propagation, both directions |
//! | ROAD association directory | per-Rnet object counts along the leaf-to-root path, both directions |
//! | CH target directory (IER-CH) | label filled on insert (one upward search), dropped on remove |
//!
//! Every index is exact after every event, and only [`ObjectIndexes::build`] and
//! [`ObjectIndexes::apply`] change one: a query reads the bundle and writes
//! nothing into it.
//!
//! Every successful update advances a process-wide **object generation** counter
//! (also bumped by full rebuilds). The engine stamps the generation a thread's
//! scratch last saw and invalidates object-derived scratch state on mismatch, so
//! a pooled query can never observe a stale object view through its scratch.

use std::sync::atomic::{AtomicU64, Ordering};

use rnknn_ch::{ChTargetDirectory, ContractionHierarchy};
use rnknn_graph::{Graph, NodeId};
use rnknn_gtree::{Gtree, OccurrenceList};
use rnknn_objects::{ObjectRTree, ObjectSet, UpdateEvent};
use rnknn_road::{AssociationDirectory, RoadIndex};

/// Process-wide object-set generation counter. Monotonic across every engine and
/// every snapshot, so one per-thread scratch can interleave queries against many
/// engines/epochs and still detect every object-view change.
static OBJECT_GENERATION: AtomicU64 = AtomicU64::new(0);

/// Draws the next unused object generation (used by builds and updates).
fn next_object_generation() -> u64 {
    OBJECT_GENERATION.fetch_add(1, Ordering::Relaxed) + 1
}

/// An object set together with every derived per-method object index, stamped
/// with the object generation it was produced under.
///
/// Obtain one from `Engine::build_object_indexes` (full rebuild — the Section 7.4
/// decoupled step) and evolve it with [`ObjectIndexes::apply`] (incremental, the
/// serving path). The indexes inside always describe exactly `objects()`.
///
/// `clone_from` copies index by index into the target's own buffers, so a copy
/// over a bundle of the same engine allocates (almost) nothing and shares every
/// CH target label: it is how the serving store brings its working bundle level
/// with a published epoch.
#[derive(Debug)]
pub struct ObjectIndexes {
    objects: ObjectSet,
    rtree: ObjectRTree,
    occurrence: Option<OccurrenceList>,
    association: Option<AssociationDirectory>,
    ch_targets: Option<ChTargetDirectory>,
    generation: u64,
}

impl Clone for ObjectIndexes {
    fn clone(&self) -> Self {
        ObjectIndexes {
            objects: self.objects.clone(),
            rtree: self.rtree.clone(),
            occurrence: self.occurrence.clone(),
            association: self.association.clone(),
            ch_targets: self.ch_targets.clone(),
            generation: self.generation,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // `Option::clone_from` forwards to the inner `clone_from` when both are
        // `Some`, which they are for two bundles of one engine.
        self.objects.clone_from(&source.objects);
        self.rtree.clone_from(&source.rtree);
        self.occurrence.clone_from(&source.occurrence);
        self.association.clone_from(&source.association);
        self.ch_targets.clone_from(&source.ch_targets);
        self.generation = source.generation;
    }
}

impl ObjectIndexes {
    /// Builds all object indexes from scratch for `objects` (the full-rebuild
    /// baseline the incremental path is measured against), the CH target label of
    /// every object included.
    pub fn build(
        graph: &Graph,
        gtree: Option<&Gtree>,
        road: Option<&RoadIndex>,
        ch: Option<&ContractionHierarchy>,
        objects: ObjectSet,
    ) -> ObjectIndexes {
        let rtree = ObjectRTree::build(graph, &objects);
        let occurrence = gtree.map(|g| OccurrenceList::build(g, objects.vertices()));
        let association =
            road.map(|r| AssociationDirectory::build(r, graph.num_vertices(), objects.vertices()));
        let ch_targets = ch.map(|c| ChTargetDirectory::build(c, objects.vertices()));
        ObjectIndexes {
            objects,
            rtree,
            occurrence,
            association,
            ch_targets,
            generation: next_object_generation(),
        }
    }

    /// The object set these indexes describe.
    pub fn objects(&self) -> &ObjectSet {
        &self.objects
    }

    /// The R-tree over the current objects.
    pub fn rtree(&self) -> &ObjectRTree {
        &self.rtree
    }

    /// The G-tree occurrence list (present iff the engine built a G-tree).
    pub fn occurrence(&self) -> Option<&OccurrenceList> {
        self.occurrence.as_ref()
    }

    /// The ROAD association directory (present iff the engine built ROAD).
    pub fn association(&self) -> Option<&AssociationDirectory> {
        self.association.as_ref()
    }

    /// The CH target directory (present iff the engine built a CH).
    pub fn ch_targets(&self) -> Option<&ChTargetDirectory> {
        self.ch_targets.as_ref()
    }

    /// The object generation these indexes were last modified under. Strictly
    /// increasing across rebuilds and applied updates, unique process-wide.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Applies one update event to the set and every index **in place**, without
    /// any rebuild: `O(log |O|)` for the set, `O(log |O| + split)` R-tree
    /// surgery, `O(tree depth)` occurrence and association-count propagation, and
    /// one CH target label filled (an unbudgeted upward search, on the calling
    /// thread) or dropped. Returns whether the event changed anything — the
    /// semantics match [`UpdateEvent::apply_to`] exactly: inserts of members,
    /// removals of non-members and invalid moves are no-ops.
    ///
    /// `graph`, `gtree`, `road` and `ch` must be the same structures these indexes
    /// were built against.
    pub fn apply(
        &mut self,
        graph: &Graph,
        gtree: Option<&Gtree>,
        road: Option<&RoadIndex>,
        ch: Option<&ContractionHierarchy>,
        event: UpdateEvent,
    ) -> bool {
        let applied = match event {
            UpdateEvent::Insert(v) => self.insert(graph, gtree, road, ch, v),
            UpdateEvent::Remove(v) => self.remove(graph, gtree, road, v),
            UpdateEvent::Move { from, to } => {
                if from == to || !self.objects.contains(from) || self.objects.contains(to) {
                    false
                } else {
                    let removed = self.remove(graph, gtree, road, from);
                    debug_assert!(removed);
                    let inserted = self.insert(graph, gtree, road, ch, to);
                    debug_assert!(inserted);
                    true
                }
            }
        };
        if applied {
            self.generation = next_object_generation();
        }
        applied
    }

    fn insert(
        &mut self,
        graph: &Graph,
        gtree: Option<&Gtree>,
        road: Option<&RoadIndex>,
        ch: Option<&ContractionHierarchy>,
        v: NodeId,
    ) -> bool {
        if !self.objects.insert(v) {
            return false;
        }
        self.rtree.insert(graph, v);
        if let (Some(g), Some(occ)) = (gtree, self.occurrence.as_mut()) {
            let inserted = occ.insert(g, v);
            debug_assert!(inserted, "occurrence list out of sync with object set");
        }
        if let (Some(r), Some(assoc)) = (road, self.association.as_mut()) {
            let inserted = assoc.insert(r, v);
            debug_assert!(inserted, "association directory out of sync with object set");
        }
        if let (Some(c), Some(targets)) = (ch, self.ch_targets.as_mut()) {
            let inserted = targets.insert(c, v);
            debug_assert!(inserted, "CH target directory out of sync with object set");
        }
        true
    }

    fn remove(
        &mut self,
        graph: &Graph,
        gtree: Option<&Gtree>,
        road: Option<&RoadIndex>,
        v: NodeId,
    ) -> bool {
        if !self.objects.remove(v) {
            return false;
        }
        let removed = self.rtree.remove(graph, v);
        debug_assert!(removed, "R-tree out of sync with object set");
        if let (Some(g), Some(occ)) = (gtree, self.occurrence.as_mut()) {
            let removed = occ.remove(g, v);
            debug_assert!(removed, "occurrence list out of sync with object set");
        }
        if let (Some(r), Some(assoc)) = (road, self.association.as_mut()) {
            let removed = assoc.remove(r, v);
            debug_assert!(removed, "association directory out of sync with object set");
        }
        if let Some(targets) = self.ch_targets.as_mut() {
            let removed = targets.remove(v);
            debug_assert!(removed, "CH target directory out of sync with object set");
        }
        true
    }
}
