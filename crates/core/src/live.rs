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
//! | occurrence list (G-tree, IER-Gt, ROAD) | one leaf-to-root walk adding or subtracting 1 per node, plus the vertex bit |
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
    ch_targets: Option<ChTargetDirectory>,
    generation: u64,
}

impl Clone for ObjectIndexes {
    fn clone(&self) -> Self {
        ObjectIndexes {
            objects: self.objects.clone(),
            rtree: self.rtree.clone(),
            occurrence: self.occurrence.clone(),
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
        ch: Option<&ContractionHierarchy>,
        objects: ObjectSet,
    ) -> ObjectIndexes {
        let rtree = ObjectRTree::build(graph, &objects);
        let occurrence = gtree.map(|g| OccurrenceList::build(g, objects.vertices()));
        let ch_targets = ch.map(|c| ChTargetDirectory::build(c, objects.vertices()));
        ObjectIndexes {
            objects,
            rtree,
            occurrence,
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

    /// The occurrence list (present iff the engine built a G-tree, which ROAD
    /// implies): the object index G-tree and IER-Gt search through.
    pub fn occurrence(&self) -> Option<&OccurrenceList> {
        self.occurrence.as_ref()
    }

    /// The same occurrence list under ROAD's name for it: its per-node counts and
    /// vertex bitmap are the paper's association directory, since an Rnet is a
    /// G-tree node.
    pub fn association(&self) -> Option<&OccurrenceList> {
        self.occurrence.as_ref()
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
    /// surgery, one `O(tree depth)` walk of the occurrence list's counts, and
    /// one CH target label filled (an unbudgeted upward search, on the calling
    /// thread) or dropped. Returns whether the event changed anything — the
    /// semantics match [`UpdateEvent::apply_to`] exactly: inserts of members,
    /// removals of non-members and invalid moves are no-ops.
    ///
    /// `graph`, `gtree` and `ch` must be the same structures these indexes
    /// were built against.
    pub fn apply(
        &mut self,
        graph: &Graph,
        gtree: Option<&Gtree>,
        ch: Option<&ContractionHierarchy>,
        event: UpdateEvent,
    ) -> bool {
        let applied = match event {
            UpdateEvent::Insert(v) => self.insert(graph, gtree, ch, v),
            UpdateEvent::Remove(v) => self.remove(graph, gtree, v),
            UpdateEvent::Move { from, to } => {
                if from == to || !self.objects.contains(from) || self.objects.contains(to) {
                    false
                } else {
                    let removed = self.remove(graph, gtree, from);
                    debug_assert!(removed);
                    let inserted = self.insert(graph, gtree, ch, to);
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
        if let (Some(c), Some(targets)) = (ch, self.ch_targets.as_mut()) {
            let inserted = targets.insert(c, v);
            debug_assert!(inserted, "CH target directory out of sync with object set");
        }
        true
    }

    fn remove(&mut self, graph: &Graph, gtree: Option<&Gtree>, v: NodeId) -> bool {
        if !self.objects.remove(v) {
            return false;
        }
        let removed = self.rtree.remove(graph, v);
        debug_assert!(removed, "R-tree out of sync with object set");
        if let (Some(g), Some(occ)) = (gtree, self.occurrence.as_mut()) {
            let removed = occ.remove(g, v);
            debug_assert!(removed, "occurrence list out of sync with object set");
        }
        if let Some(targets) = self.ch_targets.as_mut() {
            let removed = targets.remove(v);
            debug_assert!(removed, "CH target directory out of sync with object set");
        }
        true
    }
}
