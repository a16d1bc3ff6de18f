//! The CH object index: one lazily filled target label per object vertex.
//!
//! IER-CH answers a candidate object `t` by meeting the query's forward upward
//! search with `t`'s backward one. The backward space depends on the hierarchy and
//! `t` only — never on the query — so searching it once per candidate per query
//! recomputes the same `(vertex, distance)` set over and over. A
//! [`ChTargetDirectory`] keeps that set beside the object instead: one slot per
//! object vertex whose **label** is the vertex's stall-pruned upward space in settle
//! order — non-decreasing distance — so a candidate costs a scan of the label's
//! prefix below the running bound against the query's forward search, which is
//! extended only when that prefix reaches past it
//! ([`crate::ChForwardSearch::distance_within`]).
//!
//! The write path only creates and drops slots (`O(1)` per update event, no CH
//! search); a label is filled **on the read side**, by the first query that meets
//! its object, through a write-once cell — so it is shared by every thread that
//! reads the directory, lives exactly as long as its object, and there is no
//! capacity, eviction or per-thread copy to tune.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::OnceLock;

use rnknn_graph::{NodeId, Weight};
use rnknn_pathfinding::budget::QueryBudget;

use crate::build::ContractionHierarchy;
use crate::query::ChSearchCounters;

/// A filled label: the settled `(vertex, distance)` pairs in settle order
/// (non-decreasing distance).
type Label = Box<[(NodeId, Weight)]>;

/// Per-object CH target labels (see the module docs).
#[derive(Debug, Clone)]
pub struct ChTargetDirectory {
    /// Identity of the hierarchy the labels are spaces of.
    num_vertices: usize,
    config_fingerprint: u64,
    slots: HashMap<NodeId, OnceLock<Label>>,
}

impl ChTargetDirectory {
    /// A directory beside `ch` with one empty slot per vertex of `objects`. Runs no
    /// search: every label is filled by the first query that needs it.
    pub fn build(ch: &ContractionHierarchy, objects: &[NodeId]) -> Self {
        ChTargetDirectory {
            num_vertices: ch.num_vertices(),
            config_fingerprint: ch.config_fingerprint(),
            slots: objects.iter().map(|&v| (v, OnceLock::new())).collect(),
        }
    }

    /// Creates the (empty) slot of a new object at `v`; false when `v` has one.
    pub fn insert(&mut self, v: NodeId) -> bool {
        match self.slots.entry(v) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(OnceLock::new());
                true
            }
        }
    }

    /// Drops the slot of the object at `v` together with its label; false when `v`
    /// has none.
    pub fn remove(&mut self, v: NodeId) -> bool {
        self.slots.remove(&v).is_some()
    }

    /// Number of slots (= object vertices).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no object has a slot.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// How many slots carry a filled label.
    pub fn filled_labels(&self) -> usize {
        self.slots.values().filter(|slot| slot.get().is_some()).count()
    }

    /// Resident size in bytes: one slot per object plus every filled label. Grows as
    /// queries touch objects and falls when a filled object is removed. Slots are
    /// counted, not the table's capacity, which moves with tombstones and rehashes —
    /// that is, with the process's hash seed.
    pub fn memory_bytes(&self) -> usize {
        let labels: usize =
            self.slots.values().filter_map(OnceLock::get).map(|l| l.len()).sum::<usize>()
                * std::mem::size_of::<(NodeId, Weight)>();
        self.slots.len() * std::mem::size_of::<(NodeId, OnceLock<Label>)>() + labels
    }

    /// The label of target `t`: read from its slot when filled; otherwise filled
    /// into `buffer` (search effort added to `counters`, one budget step per
    /// settle) and, when `t` has a slot, published into it. A target without a
    /// slot is answered from `buffer` alone.
    ///
    /// Returns `None` when `budget` ran out: the label left in `buffer` is then
    /// truncated, so it is neither stored nor handed out.
    pub fn label<'a>(
        &'a self,
        ch: &ContractionHierarchy,
        t: NodeId,
        buffer: &'a mut Vec<(NodeId, Weight)>,
        budget: &QueryBudget,
        counters: &mut ChSearchCounters,
    ) -> Option<&'a [(NodeId, Weight)]> {
        debug_assert!(
            self.num_vertices == ch.num_vertices()
                && self.config_fingerprint == ch.config_fingerprint(),
            "CH target directory queried with a hierarchy it was not built beside"
        );
        let slot = self.slots.get(&t);
        if let Some(label) = slot.and_then(OnceLock::get) {
            return Some(label);
        }
        counters.accumulate(ch.target_label_into(t, buffer, budget));
        if budget.is_exhausted() {
            return None;
        }
        match slot {
            // A racing reader may have published first; both hold the same label.
            Some(slot) => Some(slot.get_or_init(|| buffer.as_slice().into())),
            None => Some(buffer),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ChForwardSearch;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::{EdgeWeightKind, INFINITY};
    use rnknn_pathfinding::budget::UNLIMITED;
    use rnknn_pathfinding::dijkstra;

    #[test]
    fn stalled_label_meets_equal_dijkstra_with_and_without_a_slot() {
        for kind in [EdgeWeightKind::Distance, EdgeWeightKind::Time] {
            let net = RoadNetwork::generate(&GeneratorConfig::new(800, 64));
            let g = net.graph(kind);
            let ch = ContractionHierarchy::build(&g);
            let n = g.num_vertices() as NodeId;
            // Every other probed target has a slot; the rest take the buffer path.
            let with_slot: Vec<NodeId> = (0..n).step_by(58).collect();
            let targets = ChTargetDirectory::build(&ch, &with_slot);
            let (mut search, mut counters) = (ChForwardSearch::new(), ChSearchCounters::default());
            for s in [2u32, n / 3, n - 7] {
                search.begin(&ch, s, &mut counters);
                for t in (0..n).step_by(29) {
                    let exact = dijkstra::distance(&g, s, t);
                    let got = search.distance_within(
                        &ch,
                        &targets,
                        t,
                        INFINITY,
                        &UNLIMITED,
                        &mut counters,
                    );
                    assert_eq!(got, exact, "{s}->{t} {kind:?}");
                }
            }
            assert_eq!(targets.filled_labels(), with_slot.len());
        }
    }

    #[test]
    fn a_filled_label_is_the_stalled_space_in_non_decreasing_distance_order() {
        for kind in [EdgeWeightKind::Distance, EdgeWeightKind::Time] {
            let net = RoadNetwork::generate(&GeneratorConfig::new(600, 8));
            let g = net.graph(kind);
            let ch = ContractionHierarchy::build(&g);
            let n = g.num_vertices() as NodeId;
            let objects: Vec<NodeId> = (0..n).step_by(13).collect();
            let targets = ChTargetDirectory::build(&ch, &objects);
            let (mut buffer, mut counters) = (Vec::new(), ChSearchCounters::default());
            for &t in &objects {
                let label = targets.label(&ch, t, &mut buffer, &UNLIMITED, &mut counters).unwrap();
                assert_eq!(label[0], (t, 0), "a label starts at its own vertex");
                assert!(label.windows(2).all(|w| w[0].1 <= w[1].1), "label of {t} out of order");
                // Each entry is a real upward path, so never shorter than the truth.
                let truth = dijkstra::single_source(&g, t);
                assert!(label.iter().all(|&(h, d)| d >= truth[h as usize]));
                let mut vertices: Vec<NodeId> = label.iter().map(|&(h, _)| h).collect();
                vertices.sort_unstable();
                vertices.dedup();
                assert_eq!(vertices.len(), label.len(), "label of {t} repeats a vertex");
            }
        }
    }

    #[test]
    fn slots_follow_inserts_and_removes_and_a_label_dies_with_its_object() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(400, 9));
        let g = net.graph(EdgeWeightKind::Distance);
        let ch = ContractionHierarchy::build(&g);
        let mut targets = ChTargetDirectory::build(&ch, &[3, 40]);
        assert_eq!((targets.len(), targets.filled_labels()), (2, 0));
        assert!(!targets.insert(3), "duplicate insert");
        assert!(targets.insert(77));
        assert!(!targets.remove(5), "never inserted");

        let empty = targets.memory_bytes();
        let (mut buffer, mut counters) = (Vec::new(), ChSearchCounters::default());
        let label = targets.label(&ch, 40, &mut buffer, &UNLIMITED, &mut counters).unwrap();
        let (filled, label_bytes) = (label.len(), std::mem::size_of_val(label));
        assert_eq!(counters.settled, filled as u64);
        assert_eq!(targets.filled_labels(), 1);
        assert_eq!(targets.memory_bytes(), empty + label_bytes);
        // A second read is served from the slot: no search, the same entries.
        let again = targets.label(&ch, 40, &mut buffer, &UNLIMITED, &mut counters).unwrap().len();
        assert_eq!((again, counters.settled), (filled, filled as u64));

        // A clone carries the filled label; removing the object drops it, and a
        // re-inserted object starts empty again.
        assert_eq!(targets.clone().filled_labels(), 1);
        assert!(targets.remove(40));
        assert_eq!((targets.len(), targets.filled_labels()), (2, 0));
        assert!(targets.memory_bytes() < empty);
        assert!(targets.insert(40));
        assert_eq!((targets.filled_labels(), targets.memory_bytes()), (0, empty));
    }

    #[test]
    fn a_budget_cut_fill_is_neither_stored_nor_returned() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(500, 21));
        let g = net.graph(EdgeWeightKind::Distance);
        let ch = ContractionHierarchy::build(&g);
        let targets = ChTargetDirectory::build(&ch, &[17]);
        let (mut buffer, mut counters) = (Vec::new(), ChSearchCounters::default());
        for t in [17, 18] {
            let starved = QueryBudget::new(None, 4, 1);
            assert!(targets.label(&ch, t, &mut buffer, &starved, &mut counters).is_none());
        }
        assert_eq!(targets.filled_labels(), 0);
        assert!(targets.label(&ch, 17, &mut buffer, &UNLIMITED, &mut counters).is_some());
        assert_eq!(targets.filled_labels(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not built beside")]
    fn a_directory_refuses_a_foreign_hierarchy() {
        let small = RoadNetwork::generate(&GeneratorConfig::new(150, 2));
        let big = RoadNetwork::generate(&GeneratorConfig::new(400, 3));
        let ch_small = ContractionHierarchy::build(&small.graph(EdgeWeightKind::Distance));
        let ch_big = ContractionHierarchy::build(&big.graph(EdgeWeightKind::Distance));
        let targets = ChTargetDirectory::build(&ch_small, &[1]);
        let (mut buffer, mut counters) = (Vec::new(), ChSearchCounters::default());
        let _ = targets.label(&ch_big, 1, &mut buffer, &UNLIMITED, &mut counters);
    }
}
