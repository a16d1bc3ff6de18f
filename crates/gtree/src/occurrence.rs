//! Occurrence lists: the one object index over the G-tree's hierarchy.
//!
//! The paper gives G-tree an occurrence list (Section 3.5) and ROAD an association
//! directory; both exist so a search can skip subtrees that hold no objects. ROAD's
//! Rnets are this tree's nodes, so one structure serves both: for one object set it
//! records a subtree object count per node, the sorted objects of every leaf, and a
//! bit per road-network vertex. G-tree's child scans and ROAD's Rnet bypass skip a
//! node whose count is 0, and both leaf tests read the bit. An insert or remove is one
//! leaf-to-root walk adding or subtracting 1 at each node, so the list is exact after
//! every event; construction is that walk per object (the cost of Figure 18(b)).

use rnknn_graph::NodeId;

use crate::tree::{Gtree, NodeIndex};

/// An occurrence list for one object set over one G-tree.
#[derive(Debug, PartialEq, Eq)]
pub struct OccurrenceList {
    /// For every G-tree node: the number of objects in its subtree (node 0, the
    /// root, counts them all).
    counts: Vec<u32>,
    /// For every G-tree node that is a leaf: the object vertices it contains (sorted).
    leaf_objects: Vec<Vec<NodeId>>,
    /// One bit per road-network vertex: set when the vertex is an object.
    vertex_is_object: Vec<u64>,
}

impl Clone for OccurrenceList {
    fn clone(&self) -> Self {
        OccurrenceList {
            counts: self.counts.clone(),
            leaf_objects: self.leaf_objects.clone(),
            vertex_is_object: self.vertex_is_object.clone(),
        }
    }

    /// Field by field: `Vec<Vec<_>>::clone_from` copies each leaf's list into
    /// the target's own, so a copy over a list of the same G-tree allocates only
    /// where a leaf's list has outgrown the target's buffer.
    fn clone_from(&mut self, source: &Self) {
        self.counts.clone_from(&source.counts);
        self.leaf_objects.clone_from(&source.leaf_objects);
        self.vertex_is_object.clone_from(&source.vertex_is_object);
    }
}

impl OccurrenceList {
    /// Builds the occurrence list for `objects` (road-network vertex ids; duplicates are
    /// ignored).
    pub fn build(gtree: &Gtree, objects: &[NodeId]) -> OccurrenceList {
        let num_nodes = gtree.num_nodes();
        let num_vertices = gtree.hierarchy().num_vertices(gtree.root()) as usize;
        let mut list = OccurrenceList {
            counts: vec![0; num_nodes],
            leaf_objects: vec![Vec::new(); num_nodes],
            vertex_is_object: vec![0; num_vertices.div_ceil(64)],
        };
        for &o in objects {
            list.insert(gtree, o);
        }
        list
    }

    /// Number of (distinct) objects indexed.
    pub fn num_objects(&self) -> usize {
        self.counts[0] as usize
    }

    /// Registers a new object at vertex `v` in place: sets its bit, adds it to its
    /// leaf's list and counts it at every node from the leaf up to the root. Returns
    /// whether `v` was newly indexed.
    pub fn insert(&mut self, gtree: &Gtree, v: NodeId) -> bool {
        let (word, mask) = ((v / 64) as usize, 1u64 << (v % 64));
        if self.vertex_is_object[word] & mask != 0 {
            return false;
        }
        self.vertex_is_object[word] |= mask;
        let leaf = gtree.leaf_of(v);
        let objects = &mut self.leaf_objects[leaf as usize];
        objects.insert(objects.partition_point(|&o| o < v), v);
        self.count_path(gtree, leaf, |count| *count += 1);
        true
    }

    /// Removes the object at vertex `v` in place: clears its bit, drops it from its
    /// leaf's list and uncounts it at every node from the leaf up to the root.
    /// Returns whether `v` was indexed.
    pub fn remove(&mut self, gtree: &Gtree, v: NodeId) -> bool {
        let (word, mask) = ((v / 64) as usize, 1u64 << (v % 64));
        if self.vertex_is_object[word] & mask == 0 {
            return false;
        }
        self.vertex_is_object[word] &= !mask;
        let leaf = gtree.leaf_of(v);
        let objects = &mut self.leaf_objects[leaf as usize];
        objects.remove(objects.partition_point(|&o| o < v));
        self.count_path(gtree, leaf, |count| *count -= 1);
        true
    }

    /// Applies `f` to the count of every node from `leaf` up to the root.
    fn count_path(&mut self, gtree: &Gtree, leaf: NodeIndex, f: impl Fn(&mut u32)) {
        let mut node = Some(leaf);
        while let Some(n) = node {
            f(&mut self.counts[n as usize]);
            node = gtree.hierarchy().parent(n);
        }
    }

    /// True when the subtree rooted at `node` contains at least one object.
    #[inline]
    pub fn has_objects(&self, node: NodeIndex) -> bool {
        self.counts[node as usize] != 0
    }

    /// Object vertices contained in leaf `node`.
    pub fn leaf_objects(&self, node: NodeIndex) -> &[NodeId] {
        &self.leaf_objects[node as usize]
    }

    /// True when vertex `v` is an object.
    #[inline]
    pub fn is_object(&self, v: NodeId) -> bool {
        self.vertex_is_object[(v / 64) as usize] & (1u64 << (v % 64)) != 0
    }

    /// Approximate resident size in bytes (Figure 18(a)).
    pub fn memory_bytes(&self) -> usize {
        let lists: usize = self.leaf_objects.iter().map(|l| l.len() * 4).sum();
        self.counts.len() * (4 + std::mem::size_of::<Vec<NodeId>>())
            + lists
            + self.vertex_is_object.len() * 8
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

    /// Brute force over leaf ranges: for every internal node, the children a search
    /// visits (count > 0, in child-index order) are exactly those whose subtree
    /// holds one of `objects`.
    fn assert_children_with_objects_hold_objects(
        tree: &Gtree,
        occ: &OccurrenceList,
        objects: &[NodeId],
    ) {
        let h = tree.hierarchy();
        for p in 0..tree.num_nodes() as NodeIndex {
            let children = h.children(p).iter().copied();
            let visited: Vec<NodeIndex> =
                children.clone().filter(|&c| occ.has_objects(c)).collect();
            let holding: Vec<NodeIndex> = children
                .filter(|&c| objects.iter().any(|&o| !h.outside(h.leaf_range(c), o)))
                .collect();
            assert_eq!(visited, holding, "node {p}");
        }
        assert_eq!(occ.has_objects(tree.root()), !objects.is_empty());
    }

    #[test]
    fn occurrence_flags_cover_exactly_the_object_leaves() {
        let (g, tree) = tree();
        let objects: Vec<NodeId> = g.vertices().filter(|v| v % 17 == 0).collect();
        let occ = OccurrenceList::build(&tree, &objects);
        assert_eq!(occ.num_objects(), objects.len());
        for &o in &objects {
            let leaf = tree.leaf_of(o);
            assert!(occ.is_object(o));
            assert!(occ.leaf_objects(leaf).contains(&o));
            // Every ancestor must report objects below it.
            let mut node = leaf;
            loop {
                assert!(occ.has_objects(node));
                match tree.hierarchy().parent(node) {
                    Some(p) => node = p,
                    None => break,
                }
            }
        }
        // Non-object vertices are not flagged.
        assert!(g.vertices().filter(|v| v % 17 != 0).all(|v| !occ.is_object(v)));
    }

    #[test]
    fn children_with_objects_point_to_occupied_subtrees() {
        let (g, tree) = tree();
        for modulus in [2, 29, 97, 401] {
            let objects: Vec<NodeId> = g.vertices().filter(|v| v % modulus == 3).collect();
            let occ = OccurrenceList::build(&tree, &objects);
            assert_children_with_objects_hold_objects(&tree, &occ, &objects);
        }
    }

    /// Under churn — removes, re-inserts of just-removed vertices, duplicate
    /// inserts and double removes — incremental insert/remove leave the list equal
    /// to a fresh build after every event, and at least one removal empties a node.
    #[test]
    fn incremental_updates_match_full_rebuild_under_churn() {
        let (g, tree) = tree();
        let n = g.num_vertices() as u64;
        let mut members: Vec<NodeId> = g.vertices().filter(|v| v % 19 == 4).collect();
        let mut occ = OccurrenceList::build(&tree, &members);
        let mut state = 0xACE1u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut removed = Vec::new();
        let mut emptied = 0;
        for step in 0..600 {
            let before = occ.counts.clone();
            match rng() % 3 {
                0 if members.len() > 1 => {
                    let v = members.swap_remove((rng() as usize) % members.len());
                    assert!(occ.remove(&tree, v), "step {step}: remove({v})");
                    assert!(!occ.remove(&tree, v), "step {step}: double remove({v})");
                    removed.push(v);
                }
                1 if !removed.is_empty() => {
                    let v = removed.swap_remove((rng() as usize) % removed.len());
                    if !members.contains(&v) {
                        assert!(occ.insert(&tree, v), "step {step}: re-insert({v})");
                        assert!(!occ.insert(&tree, v), "step {step}: duplicate insert({v})");
                        members.push(v);
                    }
                }
                _ => {
                    let v = (rng() % n) as NodeId;
                    let fresh = !members.contains(&v);
                    assert_eq!(occ.insert(&tree, v), fresh, "step {step}: insert({v})");
                    if fresh {
                        members.push(v);
                    }
                }
            }
            assert!(
                occ == OccurrenceList::build(&tree, &members),
                "step {step}: differs from a fresh build"
            );
            assert_eq!(occ.num_objects(), members.len(), "step {step}");
            assert_children_with_objects_hold_objects(&tree, &occ, &members);
            emptied += before.iter().zip(&occ.counts).filter(|&(&b, &a)| b != 0 && a == 0).count();
        }
        assert!(emptied > 0, "no removal emptied a node: the churn is too gentle");
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
        assert!(!empty.has_objects(tree.root()));
        assert!(empty.memory_bytes() > 0);
    }
}
