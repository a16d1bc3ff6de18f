//! Occurrence lists: G-tree's decoupled object index (Section 3.5).
//!
//! Given an object set, the occurrence list records, for every G-tree node, which of
//! its children contain at least one object (and, for leaves, which of their vertices
//! are objects), so that the kNN search can prune object-free subtrees. Construction is
//! a bottom-up propagation from the objects' leaves (the cost measured in Figure 18(b)).

use rnknn_graph::NodeId;

use crate::tree::{Gtree, NodeIndex};

/// An occurrence list for one object set over one G-tree.
#[derive(Debug, PartialEq, Eq)]
pub struct OccurrenceList {
    /// For every G-tree node: indexes (into `node.children`) of children containing
    /// objects.
    children_with_objects: Vec<Vec<u32>>,
    /// For every G-tree node that is a leaf: the object vertices it contains (sorted).
    leaf_objects: Vec<Vec<NodeId>>,
    /// Total number of objects.
    num_objects: usize,
}

impl Clone for OccurrenceList {
    fn clone(&self) -> Self {
        OccurrenceList {
            children_with_objects: self.children_with_objects.clone(),
            leaf_objects: self.leaf_objects.clone(),
            num_objects: self.num_objects,
        }
    }

    /// Field by field: `Vec<Vec<_>>::clone_from` copies each node's list into
    /// the target's own, so a copy over a list of the same G-tree allocates only
    /// where a node's list has outgrown the target's buffer.
    fn clone_from(&mut self, source: &Self) {
        self.children_with_objects.clone_from(&source.children_with_objects);
        self.leaf_objects.clone_from(&source.leaf_objects);
        self.num_objects = source.num_objects;
    }
}

impl OccurrenceList {
    /// Builds the occurrence list for `objects` (road-network vertex ids; duplicates are
    /// ignored).
    pub fn build(gtree: &Gtree, objects: &[NodeId]) -> OccurrenceList {
        let num_nodes = gtree.num_nodes();
        let mut has_object = vec![false; num_nodes];
        let mut leaf_objects: Vec<Vec<NodeId>> = vec![Vec::new(); num_nodes];
        let mut unique: Vec<NodeId> = objects.to_vec();
        unique.sort_unstable();
        unique.dedup();
        let num_objects = unique.len();
        for &o in &unique {
            let leaf = gtree.leaf_of(o);
            leaf_objects[leaf as usize].push(o);
            // Propagate the presence flag up to the root.
            let mut node = leaf;
            loop {
                if has_object[node as usize] {
                    break;
                }
                has_object[node as usize] = true;
                match gtree.hierarchy().parent(node) {
                    Some(p) => node = p,
                    None => break,
                }
            }
        }
        let mut children_with_objects: Vec<Vec<u32>> = vec![Vec::new(); num_nodes];
        for (i, with_objects) in children_with_objects.iter_mut().enumerate() {
            for (ci, &c) in gtree.hierarchy().children(i as NodeIndex).iter().enumerate() {
                if has_object[c as usize] {
                    with_objects.push(ci as u32);
                }
            }
        }
        OccurrenceList { children_with_objects, leaf_objects, num_objects }
    }

    /// Number of (distinct) objects indexed.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Registers a new object at vertex `v` in place, propagating the presence
    /// flag along the leaf-to-root path and stopping as soon as an ancestor
    /// already knows about objects below it — `O(depth)` worst case, usually far
    /// less. Returns whether `v` was newly indexed.
    pub fn insert(&mut self, gtree: &Gtree, v: NodeId) -> bool {
        let leaf = gtree.leaf_of(v);
        let objects = &mut self.leaf_objects[leaf as usize];
        let at = objects.partition_point(|&o| o < v);
        if objects.get(at) == Some(&v) {
            return false;
        }
        let was_occupied = !objects.is_empty();
        objects.insert(at, v);
        self.num_objects += 1;
        if !was_occupied {
            self.propagate_presence(gtree, leaf);
        }
        true
    }

    /// Removes the object at vertex `v` in place; when its leaf empties, the
    /// presence flags along the leaf-to-root path are withdrawn until an ancestor
    /// still holds objects through another child. Returns whether `v` was indexed.
    pub fn remove(&mut self, gtree: &Gtree, v: NodeId) -> bool {
        let leaf = gtree.leaf_of(v);
        let objects = &mut self.leaf_objects[leaf as usize];
        let at = objects.partition_point(|&o| o < v);
        if objects.get(at) != Some(&v) {
            return false;
        }
        objects.remove(at);
        self.num_objects -= 1;
        if objects.is_empty() {
            self.withdraw_presence(gtree, leaf);
        }
        true
    }

    /// Walks from newly-occupied `node` towards the root, recording it (and then
    /// each newly-occupied ancestor) in its parent's `children_with_objects`.
    fn propagate_presence(&mut self, gtree: &Gtree, mut node: NodeIndex) {
        while let Some(parent) = gtree.hierarchy().parent(node) {
            let position = gtree
                .hierarchy()
                .children(parent)
                .iter()
                .position(|&c| c == node)
                .expect("child missing from its parent") as u32;
            let list = &mut self.children_with_objects[parent as usize];
            let at = list.partition_point(|&ci| ci < position);
            if list.get(at) == Some(&position) {
                return; // The parent already knew; ancestors do too.
            }
            let parent_was_occupied = !list.is_empty();
            list.insert(at, position);
            if parent_was_occupied {
                return;
            }
            node = parent;
        }
    }

    /// Walks from newly-emptied `node` towards the root, removing it from its
    /// parent's `children_with_objects`; stops at the first ancestor that still
    /// has objects through another child.
    fn withdraw_presence(&mut self, gtree: &Gtree, mut node: NodeIndex) {
        while let Some(parent) = gtree.hierarchy().parent(node) {
            let position = gtree
                .hierarchy()
                .children(parent)
                .iter()
                .position(|&c| c == node)
                .expect("child missing from its parent") as u32;
            let list = &mut self.children_with_objects[parent as usize];
            let at = list.partition_point(|&ci| ci < position);
            if list.get(at) != Some(&position) {
                return; // Already absent (defensive; flags were consistent).
            }
            list.remove(at);
            if !list.is_empty() {
                return;
            }
            node = parent;
        }
    }

    /// True when the subtree rooted at `node` contains at least one object.
    pub fn has_objects(&self, gtree: &Gtree, node: NodeIndex) -> bool {
        if gtree.hierarchy().is_leaf(node) {
            !self.leaf_objects[node as usize].is_empty()
        } else {
            !self.children_with_objects[node as usize].is_empty()
        }
    }

    /// Children (as indexes into `node.children`) of `node` that contain objects.
    pub fn children_with_objects(&self, node: NodeIndex) -> &[u32] {
        &self.children_with_objects[node as usize]
    }

    /// Object vertices contained in leaf `node`.
    pub fn leaf_objects(&self, node: NodeIndex) -> &[NodeId] {
        &self.leaf_objects[node as usize]
    }

    /// True when vertex `v` (which must lie in leaf `leaf`) is an object.
    pub fn is_object_in_leaf(&self, leaf: NodeIndex, v: NodeId) -> bool {
        self.leaf_objects[leaf as usize].binary_search(&v).is_ok()
    }

    /// Approximate resident size in bytes (Figure 18(a)).
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = 0;
        for c in &self.children_with_objects {
            bytes += std::mem::size_of::<Vec<u32>>() + c.len() * 4;
        }
        for l in &self.leaf_objects {
            bytes += std::mem::size_of::<Vec<NodeId>>() + l.len() * 4;
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::GtreeConfig;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::EdgeWeightKind;

    fn tree() -> (rnknn_graph::Graph, Gtree) {
        let net = RoadNetwork::generate(&GeneratorConfig::new(600, 12));
        let g = net.graph(EdgeWeightKind::Distance);
        let t =
            Gtree::build_with_config(&g, GtreeConfig { leaf_capacity: 40, ..Default::default() });
        (g, t)
    }

    #[test]
    fn occurrence_flags_cover_exactly_the_object_leaves() {
        let (g, tree) = tree();
        let objects: Vec<NodeId> = g.vertices().filter(|v| v % 17 == 0).collect();
        let occ = OccurrenceList::build(&tree, &objects);
        assert_eq!(occ.num_objects(), objects.len());
        for &o in &objects {
            let leaf = tree.leaf_of(o);
            assert!(occ.is_object_in_leaf(leaf, o));
            assert!(occ.leaf_objects(leaf).contains(&o));
            // Every ancestor must report objects below it.
            let mut node = leaf;
            loop {
                assert!(occ.has_objects(&tree, node));
                match tree.hierarchy().parent(node) {
                    Some(p) => node = p,
                    None => break,
                }
            }
        }
        // Non-object vertices are not flagged.
        let non_object = g.vertices().find(|v| v % 17 != 0).unwrap();
        assert!(!occ.is_object_in_leaf(tree.leaf_of(non_object), non_object));
    }

    #[test]
    fn children_with_objects_point_to_occupied_subtrees() {
        let (g, tree) = tree();
        let objects: Vec<NodeId> = g.vertices().filter(|v| v % 29 == 3).collect();
        let occ = OccurrenceList::build(&tree, &objects);
        for i in 0..tree.num_nodes() as NodeIndex {
            for &ci in occ.children_with_objects(i) {
                let child = tree.hierarchy().children(i)[ci as usize];
                assert!(occ.has_objects(&tree, child));
            }
        }
    }

    /// Incremental insert/remove must leave the list structurally identical to a
    /// full rebuild from the same membership, at every step of a random churn.
    #[test]
    fn incremental_updates_match_full_rebuild_under_churn() {
        let (g, tree) = tree();
        let n = g.num_vertices() as NodeId;
        let mut members: Vec<NodeId> = g.vertices().filter(|v| v % 13 == 2).collect();
        let mut occ = OccurrenceList::build(&tree, &members);
        let mut state = 0xDEADBEEFu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..500 {
            if rng() % 2 == 0 && members.len() > 1 {
                let at = (rng() as usize) % members.len();
                let v = members.swap_remove(at);
                assert!(occ.remove(&tree, v), "step {step}: remove({v})");
                assert!(!occ.remove(&tree, v), "step {step}: double remove({v})");
            } else {
                let v = (rng() % n as u64) as NodeId;
                let fresh = !members.contains(&v);
                assert_eq!(occ.insert(&tree, v), fresh, "step {step}: insert({v})");
                if fresh {
                    members.push(v);
                }
            }
            if step % 25 == 0 {
                let rebuilt = OccurrenceList::build(&tree, &members);
                assert_eq!(occ.num_objects(), rebuilt.num_objects(), "step {step}");
                for node in 0..tree.num_nodes() {
                    let node = node as NodeIndex;
                    assert_eq!(
                        occ.children_with_objects(node),
                        rebuilt.children_with_objects(node),
                        "step {step}: node {node} children diverged"
                    );
                    assert_eq!(
                        occ.leaf_objects(node),
                        rebuilt.leaf_objects(node),
                        "step {step}: node {node} leaf objects diverged"
                    );
                }
            }
        }
    }

    /// `clone_from` over a list of another object set, after seeded churn on
    /// both, equals `clone`.
    #[test]
    fn clone_from_after_churn_equals_clone() {
        let (g, tree) = tree();
        let n = g.num_vertices() as u64;
        let churned = |modulus: NodeId, mut state: u64| {
            let members: Vec<NodeId> = g.vertices().filter(|v| v % modulus == 1).collect();
            let mut occ = OccurrenceList::build(&tree, &members);
            for _ in 0..400 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let v = (state % n) as NodeId;
                if !occ.insert(&tree, v) {
                    assert!(occ.remove(&tree, v));
                }
            }
            occ
        };
        let source = churned(7, 0x2545_F491_4F6C_DD1D);
        let mut target = churned(31, 0x9E37_79B9_7F4A_7C15);
        assert_ne!(target, source);
        target.clone_from(&source);
        assert_eq!(target, source.clone());
    }

    #[test]
    fn duplicates_and_empty_sets() {
        let (_, tree) = tree();
        let occ = OccurrenceList::build(&tree, &[5, 5, 5]);
        assert_eq!(occ.num_objects(), 1);
        let empty = OccurrenceList::build(&tree, &[]);
        assert_eq!(empty.num_objects(), 0);
        assert!(!empty.has_objects(&tree, tree.root()));
        assert!(empty.memory_bytes() > 0);
    }
}
