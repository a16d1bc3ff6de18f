//! Association Directory: ROAD's decoupled object index.
//!
//! For a given object set, the directory answers two questions in `O(1)`:
//! "does this Rnet contain an object?" (an object count per Rnet, kept along every
//! object's leaf-to-root path) and "is this vertex an object?" (a bit per vertex).
//! Section 7.4 measures its size and construction time against the other methods'
//! object indexes.

use rnknn_graph::NodeId;

use crate::index::{RnetIndex, RoadIndex};

/// Association directory for one object set over one ROAD index.
///
/// Exact after every update: [`AssociationDirectory::insert`] increments the count
/// of every Rnet on the object's leaf-to-root path and
/// [`AssociationDirectory::remove`] decrements them, so an Rnet whose last object
/// leaves reads object-free at once.
#[derive(Debug, PartialEq, Eq)]
pub struct AssociationDirectory {
    /// Objects inside each Rnet.
    rnet_objects: Vec<u32>,
    /// One bit per road-network vertex: set when the vertex is an object.
    vertex_is_object: Vec<u64>,
    num_objects: usize,
}

impl Clone for AssociationDirectory {
    fn clone(&self) -> Self {
        AssociationDirectory {
            rnet_objects: self.rnet_objects.clone(),
            vertex_is_object: self.vertex_is_object.clone(),
            num_objects: self.num_objects,
        }
    }

    /// Field by field, into the target's own buffers (no allocation between
    /// directories of one ROAD index).
    fn clone_from(&mut self, source: &Self) {
        self.rnet_objects.clone_from(&source.rnet_objects);
        self.vertex_is_object.clone_from(&source.vertex_is_object);
        self.num_objects = source.num_objects;
    }
}

impl AssociationDirectory {
    /// Builds the directory for `objects` (duplicates are ignored).
    pub fn build(road: &RoadIndex, num_vertices: usize, objects: &[NodeId]) -> Self {
        let mut directory = AssociationDirectory {
            rnet_objects: vec![0; road.num_rnets()],
            vertex_is_object: vec![0; num_vertices.div_ceil(64)],
            num_objects: 0,
        };
        for &o in objects {
            directory.insert(road, o);
        }
        directory
    }

    /// Number of distinct objects indexed.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Registers a new object at vertex `v` in place: sets the vertex bit and
    /// counts the object in every Rnet on its leaf-to-root path. Returns whether `v`
    /// was newly indexed.
    pub fn insert(&mut self, road: &RoadIndex, v: NodeId) -> bool {
        let (word, mask) = ((v / 64) as usize, 1u64 << (v % 64));
        if self.vertex_is_object[word] & mask != 0 {
            return false;
        }
        self.vertex_is_object[word] |= mask;
        self.num_objects += 1;
        self.for_path(road, v, |count| *count += 1);
        true
    }

    /// Removes the object at vertex `v`: clears the vertex bit and uncounts the
    /// object in every Rnet on its leaf-to-root path. Returns whether `v` was
    /// indexed.
    pub fn remove(&mut self, road: &RoadIndex, v: NodeId) -> bool {
        let (word, mask) = ((v / 64) as usize, 1u64 << (v % 64));
        if self.vertex_is_object[word] & mask == 0 {
            return false;
        }
        self.vertex_is_object[word] &= !mask;
        self.num_objects -= 1;
        self.for_path(road, v, |count| *count -= 1);
        true
    }

    /// Applies `f` to the count of every Rnet from `v`'s leaf up to the root.
    fn for_path(&mut self, road: &RoadIndex, v: NodeId, mut f: impl FnMut(&mut u32)) {
        let mut r = Some(road.leaf_of(v));
        while let Some(rnet) = r {
            f(&mut self.rnet_objects[rnet as usize]);
            r = road.hierarchy().parent(rnet);
        }
    }

    /// True when Rnet `r` contains at least one object.
    #[inline]
    pub fn rnet_has_object(&self, r: RnetIndex) -> bool {
        self.rnet_objects[r as usize] != 0
    }

    /// True when vertex `v` is an object.
    #[inline]
    pub fn is_object(&self, v: NodeId) -> bool {
        self.vertex_is_object[(v / 64) as usize] & (1u64 << (v % 64)) != 0
    }

    /// Resident size in bytes (Figure 18(a): ROAD's object index is one of the
    /// smallest, a count per Rnet and a bit per vertex).
    pub fn memory_bytes(&self) -> usize {
        self.rnet_objects.len() * std::mem::size_of::<u32>() + self.vertex_is_object.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::derive_for_tests;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::EdgeWeightKind;

    #[test]
    fn directory_flags_match_object_locations() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(500, 4));
        let g = net.graph(EdgeWeightKind::Distance);
        let road = derive_for_tests(&g, 16);
        let objects: Vec<NodeId> = g.vertices().filter(|v| v % 23 == 1).collect();
        let dir = AssociationDirectory::build(&road, g.num_vertices(), &objects);
        assert_eq!(dir.num_objects(), objects.len());
        for &o in &objects {
            assert!(dir.is_object(o));
            let mut r = road.leaf_of(o);
            loop {
                assert!(dir.rnet_has_object(r));
                match road.hierarchy().parent(r) {
                    Some(p) => r = p,
                    None => break,
                }
            }
        }
        // An Rnet whose subtree holds no objects must not be flagged.
        let h = road.hierarchy();
        for ri in 0..road.num_rnets() as RnetIndex {
            let flagged = dir.rnet_has_object(ri);
            let contains = objects.iter().any(|&o| !h.outside(h.leaf_range(ri), o));
            assert_eq!(flagged, contains, "rnet {ri}");
        }
    }

    /// Under churn — removes, re-inserts of just-removed vertices, duplicate
    /// inserts and double removes — the directory equals a fresh build after every
    /// event.
    #[test]
    fn incremental_updates_equal_a_fresh_build_after_every_event() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(600, 6));
        let g = net.graph(EdgeWeightKind::Distance);
        let road = derive_for_tests(&g, 16);
        let mut members: Vec<NodeId> = g.vertices().filter(|v| v % 19 == 4).collect();
        let mut dir = AssociationDirectory::build(&road, g.num_vertices(), &members);
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
            let before: Vec<bool> =
                (0..road.num_rnets() as RnetIndex).map(|r| dir.rnet_has_object(r)).collect();
            match rng() % 3 {
                0 if members.len() > 1 => {
                    let v = members.swap_remove((rng() as usize) % members.len());
                    assert!(dir.remove(&road, v), "step {step}");
                    assert!(!dir.remove(&road, v), "step {step}: double remove");
                    removed.push(v);
                }
                1 if !removed.is_empty() => {
                    let v = removed.swap_remove((rng() as usize) % removed.len());
                    if !members.contains(&v) {
                        assert!(dir.insert(&road, v), "step {step}: re-insert {v}");
                        assert!(!dir.insert(&road, v), "step {step}: duplicate insert {v}");
                        members.push(v);
                    }
                }
                _ => {
                    let v = (rng() % g.num_vertices() as u64) as NodeId;
                    let fresh = !members.contains(&v);
                    assert_eq!(dir.insert(&road, v), fresh, "step {step}");
                    if fresh {
                        members.push(v);
                    }
                }
            }
            let exact = AssociationDirectory::build(&road, g.num_vertices(), &members);
            assert!(dir == exact, "step {step}: the directory differs from a fresh build");
            assert_eq!(dir.num_objects(), members.len());
            emptied += (0..road.num_rnets() as RnetIndex)
                .filter(|&r| before[r as usize] && !dir.rnet_has_object(r))
                .count();
        }
        assert!(emptied > 0, "no removal emptied an Rnet: the churn is too gentle");
    }

    /// `clone_from` over a directory of another object set, after seeded churn
    /// on both, equals `clone`: the same per-Rnet counts and vertex bits.
    #[test]
    fn clone_from_after_churn_equals_clone() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(600, 6));
        let g = net.graph(EdgeWeightKind::Distance);
        let road = derive_for_tests(&g, 16);
        let n = g.num_vertices() as u64;
        let churned = |modulus: NodeId, mut state: u64| {
            let members: Vec<NodeId> = g.vertices().filter(|v| v % modulus == 2).collect();
            let mut dir = AssociationDirectory::build(&road, g.num_vertices(), &members);
            for _ in 0..400 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let v = (state % n) as NodeId;
                if !dir.insert(&road, v) {
                    assert!(dir.remove(&road, v));
                }
            }
            dir
        };
        let source = churned(5, 0xBF58_476D_1CE4_E5B9);
        let mut target = churned(41, 0x94D0_49BB_1331_11EB);
        assert_ne!(target, source);
        target.clone_from(&source);
        assert_eq!(target, source.clone());
    }

    #[test]
    fn duplicates_and_empty_sets() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(300, 8));
        let g = net.graph(EdgeWeightKind::Distance);
        let road = derive_for_tests(&g, 64);
        let dir = AssociationDirectory::build(&road, g.num_vertices(), &[9, 9, 9]);
        assert_eq!(dir.num_objects(), 1);
        let empty = AssociationDirectory::build(&road, g.num_vertices(), &[]);
        assert_eq!(empty.num_objects(), 0);
        assert!(!empty.rnet_has_object(road.root()));
        assert!(empty.memory_bytes() > 0);
    }
}
