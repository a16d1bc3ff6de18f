//! The CH object index: one target label per object vertex, filled when the object
//! enters the directory.
//!
//! IER-CH answers a candidate object `t` by meeting the query's forward upward
//! search with `t`'s backward one. The backward space depends on the hierarchy and
//! `t` only — never on the query — so searching it once per candidate per query
//! recomputes the same `(vertex, distance)` set over and over. A
//! [`ChTargetDirectory`] keeps that set beside the object instead: one **label** per
//! object vertex, the vertices its upward search with stall-on-demand settles and
//! does not stall, in settle order — non-decreasing distance. A stalled vertex's
//! distance is dominated via a higher-ranked neighbour, and no meet needs it
//! ([`crate::ChForwardSearch`] has the proof). A candidate costs a scan of the
//! label's prefix below the running bound against the query's forward search, which
//! is extended only when that prefix reaches past it
//! ([`crate::ChForwardSearch::distance_within`]).
//!
//! Labels are written on the **write side** only: [`ChTargetDirectory::build`]
//! fills every object's label and [`ChTargetDirectory::insert`] fills the new one,
//! each with one unbudgeted upward search on the calling thread. A reader only looks
//! labels up. Labels are reference-counted, so a cloned directory — and a directory
//! copied over with `clone_from` — shares them with its original instead of
//! copying or recomputing them.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

use rnknn_graph::{NodeId, Weight};

use crate::build::ContractionHierarchy;

/// A label: the settled, unstalled `(vertex, distance)` pairs in settle order
/// (non-decreasing distance).
type Label = Arc<[(NodeId, Weight)]>;

/// Per-object CH target labels (see the module docs).
#[derive(Debug)]
pub struct ChTargetDirectory {
    /// Identity of the hierarchy the labels are spaces of.
    num_vertices: usize,
    num_shortcuts: usize,
    labels: HashMap<NodeId, Label>,
}

impl Clone for ChTargetDirectory {
    fn clone(&self) -> Self {
        ChTargetDirectory {
            num_vertices: self.num_vertices,
            num_shortcuts: self.num_shortcuts,
            labels: self.labels.clone(),
        }
    }

    /// Field by field: the map keeps its table when the bucket counts agree, and
    /// every label is shared, never copied.
    fn clone_from(&mut self, source: &Self) {
        self.num_vertices = source.num_vertices;
        self.num_shortcuts = source.num_shortcuts;
        self.labels.clone_from(&source.labels);
    }
}

impl ChTargetDirectory {
    /// A directory beside `ch` holding the label of every vertex of `objects`
    /// (duplicates are ignored): one upward search per object.
    pub fn build(ch: &ContractionHierarchy, objects: &[NodeId]) -> Self {
        let mut directory = ChTargetDirectory {
            num_vertices: ch.num_vertices(),
            num_shortcuts: ch.num_shortcuts(),
            labels: HashMap::with_capacity(objects.len()),
        };
        for &v in objects {
            directory.insert(ch, v);
        }
        directory
    }

    /// Fills the label of a new object at `v` (one upward search); false, and no
    /// search, when `v` has one.
    pub fn insert(&mut self, ch: &ContractionHierarchy, v: NodeId) -> bool {
        self.check_hierarchy(ch);
        match self.labels.entry(v) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                let mut label = Vec::new();
                ch.target_label_into(v, &mut label);
                slot.insert(label.into());
                true
            }
        }
    }

    /// Drops the label of the object at `v`; false when `v` has none.
    pub fn remove(&mut self, v: NodeId) -> bool {
        self.labels.remove(&v).is_some()
    }

    /// Number of labels (= object vertices).
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when no object has a label.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Entries over all labels (one per recorded vertex).
    pub fn label_entries(&self) -> usize {
        self.labels.values().map(|l| l.len()).sum()
    }

    /// Resident size in bytes: one entry per object plus its label, counted in full
    /// even when a clone shares it. Entries are counted, not the table's capacity,
    /// which moves with tombstones and rehashes — that is, with the process's hash
    /// seed.
    pub fn memory_bytes(&self) -> usize {
        // An `Arc` allocation carries its strong and weak counts before the data.
        let header = 2 * std::mem::size_of::<usize>();
        let entries: usize =
            self.labels.values().map(|l| header + std::mem::size_of_val(&**l)).sum();
        self.labels.len() * std::mem::size_of::<(NodeId, Label)>() + entries
    }

    /// The label of target `t`, or `None` when `t` is not an object of this
    /// directory.
    #[inline]
    pub fn label(&self, t: NodeId) -> Option<&[(NodeId, Weight)]> {
        self.labels.get(&t).map(|label| &**label)
    }

    /// Debug-asserts that `ch` is the hierarchy this directory was built beside.
    #[inline]
    pub(crate) fn check_hierarchy(&self, ch: &ContractionHierarchy) {
        debug_assert!(
            self.num_vertices == ch.num_vertices() && self.num_shortcuts == ch.num_shortcuts(),
            "CH target directory used with a hierarchy it was not built beside"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{ChForwardSearch, ChSearchCounters};
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::{EdgeWeightKind, INFINITY};
    use rnknn_pathfinding::budget::UNLIMITED;
    use rnknn_pathfinding::dijkstra;

    /// Targets whose label was filled at build and targets without a slot there,
    /// given one by `insert`, meet the forward search at Dijkstra's distance.
    #[test]
    fn stalled_label_meets_equal_dijkstra_with_and_without_a_slot() {
        for kind in [EdgeWeightKind::Distance, EdgeWeightKind::Time] {
            let net = RoadNetwork::generate(&GeneratorConfig::new(800, 64));
            let g = net.graph(kind);
            let ch = ContractionHierarchy::build(&g);
            let n = g.num_vertices() as NodeId;
            let probed: Vec<NodeId> = (0..n).step_by(29).collect();
            let with_slot: Vec<NodeId> = probed.iter().copied().step_by(2).collect();
            let mut targets = ChTargetDirectory::build(&ch, &with_slot);
            for &t in &probed {
                assert_eq!(targets.insert(&ch, t), !with_slot.contains(&t), "{t}");
            }
            let (mut search, mut counters) = (ChForwardSearch::new(), ChSearchCounters::default());
            for s in [2u32, n / 3, n - 7] {
                search.begin(&ch, s, &mut counters);
                for &t in &probed {
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
            assert_eq!(targets.len(), probed.len());
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
            let mut fresh = Vec::new();
            for &t in &objects {
                let label = targets.label(t).expect("every object has a label");
                ch.target_label_into(t, &mut fresh);
                assert_eq!(label, fresh.as_slice(), "label of {t} is not its upward space");
                assert_eq!(label[0], (t, 0), "a label starts at its own vertex");
                assert!(label.windows(2).all(|w| w[0].1 <= w[1].1), "label of {t} out of order");
                // Each entry is a real upward path, so never shorter than the truth.
                let truth = dijkstra::single_source(&g, t);
                assert!(label.iter().all(|&(h, d)| d >= truth[h as usize]));
                let mut vertices: Vec<NodeId> = label.iter().map(|&(h, _)| h).collect();
                vertices.sort_unstable();
                vertices.dedup();
                assert_eq!(vertices.len(), label.len(), "label of {t} repeats a vertex");
                // No entry is dominated via a higher neighbour in the label: on
                // positive weights that neighbour settled first, so the fill would
                // have stalled the entry and left it out.
                let at: HashMap<NodeId, Weight> = label.iter().copied().collect();
                for &(h, d) in label {
                    for (m, w) in ch.upward_edges(h) {
                        assert!(
                            at.get(&m).is_none_or(|&dm| dm + w > d),
                            "label of {t} keeps {h} at {d}, dominated via {m}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn slots_follow_inserts_and_removes_and_a_label_dies_with_its_object() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(400, 9));
        let g = net.graph(EdgeWeightKind::Distance);
        let ch = ContractionHierarchy::build(&g);
        let mut targets = ChTargetDirectory::build(&ch, &[3, 40, 40]);
        assert_eq!(targets.len(), 2);
        assert!(targets.label(3).is_some() && targets.label(5).is_none());
        let two = targets.memory_bytes();
        assert!(!targets.insert(&ch, 3), "duplicate insert");
        assert_eq!(targets.memory_bytes(), two, "a duplicate insert stored a label");
        assert!(!targets.remove(5), "never inserted");

        let mut label = Vec::new();
        ch.target_label_into(77, &mut label);
        assert!(targets.insert(&ch, 77));
        assert_eq!(targets.label(77), Some(label.as_slice()));
        let three = targets.memory_bytes();
        assert!(three > two + std::mem::size_of_val(label.as_slice()));

        // A clone shares every label with its original.
        let clone = targets.clone();
        assert!(std::ptr::eq(clone.label(77).unwrap(), targets.label(77).unwrap()));
        assert_eq!(clone.memory_bytes(), three);
        // Removing the object drops its label; re-inserting it fills it again.
        assert!(targets.remove(77));
        assert_eq!((targets.len(), targets.label(77), targets.memory_bytes()), (2, None, two));
        assert_eq!(clone.label(77), Some(label.as_slice()), "the clone lost a shared label");
        assert!(targets.insert(&ch, 77));
        assert_eq!((targets.label(77), targets.memory_bytes()), (Some(label.as_slice()), three));
    }

    /// `clone_from` over a directory of other objects, after seeded churn on
    /// both, equals `clone`: the same objects, each with the source's own label.
    #[test]
    fn clone_from_after_churn_equals_clone_and_shares_every_label() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(400, 9));
        let ch = ContractionHierarchy::build(&net.graph(EdgeWeightKind::Distance));
        let n = ch.num_vertices() as u64;
        let churned = |modulus: NodeId, mut state: u64| {
            let objects: Vec<NodeId> = (0..n as NodeId).filter(|v| v % modulus == 3).collect();
            let mut targets = ChTargetDirectory::build(&ch, &objects);
            for _ in 0..300 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let v = (state % n) as NodeId;
                if !targets.insert(&ch, v) {
                    assert!(targets.remove(v));
                }
            }
            targets
        };
        let source = churned(6, 0xD6E8_FEB8_6659_FD93);
        let mut target = churned(23, 0xA076_1D64_78BD_642F);
        target.clone_from(&source);
        let cloned = source.clone();
        assert_eq!((target.len(), target.memory_bytes()), (cloned.len(), cloned.memory_bytes()));
        for (v, label) in &source.labels {
            assert!(Arc::ptr_eq(&target.labels[v], label), "label of {v} not shared");
            assert!(Arc::ptr_eq(&cloned.labels[v], label));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not built beside")]
    fn a_directory_refuses_a_foreign_hierarchy() {
        let small = RoadNetwork::generate(&GeneratorConfig::new(150, 2));
        let big = RoadNetwork::generate(&GeneratorConfig::new(400, 3));
        let ch_small = ContractionHierarchy::build(&small.graph(EdgeWeightKind::Distance));
        let ch_big = ContractionHierarchy::build(&big.graph(EdgeWeightKind::Distance));
        let mut targets = ChTargetDirectory::build(&ch_small, &[1]);
        targets.insert(&ch_big, 2);
    }
}
