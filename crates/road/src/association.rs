//! Association Directory: ROAD's decoupled object index.
//!
//! For a given object set, the directory answers two questions in `O(1)`:
//! "does this Rnet contain an object?" (one bit per Rnet, propagated bottom-up) and
//! "is this vertex an object?" (a bit per vertex). Section 7.4 measures its size and
//! construction time against the other methods' object indexes.

use rnknn_graph::NodeId;

use crate::index::{RnetIndex, RoadIndex};

/// Association directory for one object set over one ROAD index.
///
/// Incremental maintenance: [`AssociationDirectory::insert`] sets the Rnet bits
/// along the leaf-to-root path eagerly, while [`AssociationDirectory::remove`]
/// only clears the (exact) per-vertex bit and **dirty-marks** the Rnet bits —
/// clearing them would require proving no other object lives in the Rnet, so
/// they are left conservatively stale-true instead. Stale bits cost pruning
/// opportunities, never correctness; [`AssociationDirectory::repair`] rebuilds
/// them from the current object list once enough removals have accumulated
/// (the lazy-repair half of the scheme).
#[derive(Debug, Clone)]
pub struct AssociationDirectory {
    /// One bit per Rnet: set when the Rnet *may* contain an object (exact after
    /// build/repair, conservatively stale between removals and the next repair).
    rnet_has_object: Vec<u64>,
    /// One bit per road-network vertex: set when the vertex is an object (always
    /// exact).
    vertex_is_object: Vec<u64>,
    num_objects: usize,
    /// Removals applied since the Rnet bits were last exact; `0` means the
    /// directory is clean.
    dirty_removals: usize,
}

impl AssociationDirectory {
    /// Builds the directory for `objects` (duplicates are ignored).
    pub fn build(road: &RoadIndex, num_vertices: usize, objects: &[NodeId]) -> Self {
        let mut rnet_has_object = vec![0u64; road.num_rnets().div_ceil(64)];
        let mut vertex_is_object = vec![0u64; num_vertices.div_ceil(64)];
        let mut num_objects = 0usize;
        for &o in objects {
            let word = (o / 64) as usize;
            let mask = 1u64 << (o % 64);
            if vertex_is_object[word] & mask != 0 {
                continue;
            }
            vertex_is_object[word] |= mask;
            num_objects += 1;
            // Propagate the presence bit from the object's leaf Rnet up to the root.
            let mut r = road.leaf_of(o);
            loop {
                let word = (r / 64) as usize;
                let mask = 1u64 << (r % 64);
                if rnet_has_object[word] & mask != 0 {
                    break;
                }
                rnet_has_object[word] |= mask;
                match road.hierarchy().parent(r) {
                    Some(p) => r = p,
                    None => break,
                }
            }
        }
        AssociationDirectory { rnet_has_object, vertex_is_object, num_objects, dirty_removals: 0 }
    }

    /// Number of distinct objects indexed.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Registers a new object at vertex `v` in place: sets the vertex bit and
    /// eagerly propagates the Rnet presence bits up the leaf-to-root path
    /// (stopping at the first ancestor already flagged). Returns whether `v` was
    /// newly indexed.
    pub fn insert(&mut self, road: &RoadIndex, v: NodeId) -> bool {
        let word = (v / 64) as usize;
        let mask = 1u64 << (v % 64);
        if self.vertex_is_object[word] & mask != 0 {
            return false;
        }
        self.vertex_is_object[word] |= mask;
        self.num_objects += 1;
        let mut r = road.leaf_of(v);
        loop {
            let word = (r / 64) as usize;
            let mask = 1u64 << (r % 64);
            if self.rnet_has_object[word] & mask != 0 {
                break;
            }
            self.rnet_has_object[word] |= mask;
            match road.hierarchy().parent(r) {
                Some(p) => r = p,
                None => break,
            }
        }
        true
    }

    /// Removes the object at vertex `v`: the vertex bit is cleared exactly, the
    /// Rnet bits along its path are left **dirty** (stale-true is safe — ROAD
    /// merely loses the bypass for that Rnet until the next [`repair`]). Returns
    /// whether `v` was indexed.
    ///
    /// [`repair`]: AssociationDirectory::repair
    pub fn remove(&mut self, v: NodeId) -> bool {
        let word = (v / 64) as usize;
        let mask = 1u64 << (v % 64);
        if self.vertex_is_object[word] & mask == 0 {
            return false;
        }
        self.vertex_is_object[word] &= !mask;
        self.num_objects -= 1;
        self.dirty_removals += 1;
        true
    }

    /// Removals applied since the Rnet presence bits were last exact.
    pub fn dirty_removals(&self) -> usize {
        self.dirty_removals
    }

    /// True when enough removals have accumulated that a [`repair`] is worthwhile
    /// (the lazy-repair policy: more stale bits than a quarter of the live
    /// objects, with a small absolute floor).
    ///
    /// [`repair`]: AssociationDirectory::repair
    pub fn needs_repair(&self) -> bool {
        self.dirty_removals > 16.max(self.num_objects / 4)
    }

    /// Rebuilds the Rnet presence bits exactly from `objects` (the current object
    /// list), clearing the dirty counter. `O(|O| · depth)` — the propagation half
    /// of a full build, without touching the vertex bits or any allocation.
    pub fn repair(&mut self, road: &RoadIndex, objects: &[NodeId]) {
        self.rnet_has_object.iter_mut().for_each(|w| *w = 0);
        for &o in objects {
            debug_assert!(self.is_object(o), "repair list disagrees with vertex bits");
            let mut r = road.leaf_of(o);
            loop {
                let word = (r / 64) as usize;
                let mask = 1u64 << (r % 64);
                if self.rnet_has_object[word] & mask != 0 {
                    break;
                }
                self.rnet_has_object[word] |= mask;
                match road.hierarchy().parent(r) {
                    Some(p) => r = p,
                    None => break,
                }
            }
        }
        self.dirty_removals = 0;
    }

    /// True when Rnet `r` contains at least one object.
    #[inline]
    pub fn rnet_has_object(&self, r: RnetIndex) -> bool {
        self.rnet_has_object[(r / 64) as usize] & (1u64 << (r % 64)) != 0
    }

    /// True when vertex `v` is an object.
    #[inline]
    pub fn is_object(&self, v: NodeId) -> bool {
        self.vertex_is_object[(v / 64) as usize] & (1u64 << (v % 64)) != 0
    }

    /// Resident size in bytes (Figure 18(a): ROAD's object index is the smallest after
    /// the raw object list because it is just two bit-arrays).
    pub fn memory_bytes(&self) -> usize {
        (self.rnet_has_object.len() + self.vertex_is_object.len()) * 8
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

    /// Under churn the vertex bits stay exact, the Rnet bits stay a superset of a
    /// fresh build's (stale-true is the allowed direction), and `repair` restores
    /// exact equality.
    #[test]
    fn incremental_updates_stay_conservative_and_repair_restores_exactness() {
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
        let num_rnets = road.num_rnets();
        for step in 0..400 {
            if rng() % 2 == 0 && members.len() > 1 {
                let v = members.swap_remove((rng() as usize) % members.len());
                assert!(dir.remove(v), "step {step}");
                assert!(!dir.remove(v), "step {step}: double remove");
            } else {
                let v = (rng() % g.num_vertices() as u64) as NodeId;
                let fresh = !members.contains(&v);
                assert_eq!(dir.insert(&road, v), fresh, "step {step}");
                if fresh {
                    members.push(v);
                }
            }
            assert_eq!(dir.num_objects(), members.len());
            if step % 20 == 0 {
                let exact = AssociationDirectory::build(&road, g.num_vertices(), &members);
                for v in g.vertices() {
                    assert_eq!(dir.is_object(v), exact.is_object(v), "step {step}: vertex {v}");
                }
                for r in 0..num_rnets {
                    let r = r as RnetIndex;
                    // Conservative: never a false negative.
                    assert!(
                        !exact.rnet_has_object(r) || dir.rnet_has_object(r),
                        "step {step}: rnet {r} lost its presence bit"
                    );
                }
                dir.repair(&road, &members);
                assert_eq!(dir.dirty_removals(), 0);
                for r in 0..num_rnets {
                    let r = r as RnetIndex;
                    assert_eq!(
                        dir.rnet_has_object(r),
                        exact.rnet_has_object(r),
                        "step {step}: rnet {r} wrong after repair"
                    );
                }
            }
        }
        // The lazy policy fires after enough removals. Grow the membership first so
        // the drain cannot run out of objects before crossing the threshold.
        for v in g.vertices().filter(|v| v % 19 == 5) {
            if dir.insert(&road, v) {
                members.push(v);
            }
        }
        dir.repair(&road, &members);
        assert!(!dir.needs_repair());
        while !dir.needs_repair() {
            assert!(members.len() > 1, "policy never triggered");
            let v = members.swap_remove(0);
            dir.remove(v);
        }
        assert!(dir.dirty_removals() > 16);
    }

    /// The hard maintenance cycle: the *same* vertices repeatedly removed,
    /// re-inserted and removed again, with repairs landing at every phase
    /// boundary. Targets the stale-true interplay — a re-insert may stop its
    /// upward propagation at an ancestor bit that is only *conservatively* set
    /// from the earlier remove, and a repair between the phases clears exactly
    /// those bits, so the next insert must re-propagate the full path.
    #[test]
    fn repeated_remove_insert_remove_cycles_interleaved_with_repair() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(600, 11));
        let g = net.graph(EdgeWeightKind::Distance);
        let road = derive_for_tests(&g, 16);
        let mut members: Vec<NodeId> = g.vertices().filter(|v| v % 17 == 2).collect();
        let mut dir = AssociationDirectory::build(&road, g.num_vertices(), &members);
        let cyclers: Vec<NodeId> = members.iter().copied().step_by(3).collect();
        assert!(cyclers.len() >= 5, "need enough cycled vertices to be interesting");
        let num_rnets = road.num_rnets();

        let assert_exact_after_repair = |dir: &AssociationDirectory, members: &[NodeId]| {
            let exact = AssociationDirectory::build(&road, g.num_vertices(), members);
            for r in 0..num_rnets {
                let r = r as RnetIndex;
                assert_eq!(dir.rnet_has_object(r), exact.rnet_has_object(r), "rnet {r}");
            }
        };

        for round in 0..4 {
            // Phase 1: remove every cycler. Vertex bits go exact-false, Rnet
            // bits go stale-true, the dirty counter tracks each removal.
            let before = dir.dirty_removals();
            for &v in &cyclers {
                assert!(dir.remove(v), "round {round}: remove {v}");
                assert!(!dir.is_object(v));
            }
            assert_eq!(dir.dirty_removals(), before + cyclers.len());
            members.retain(|v| !cyclers.contains(v));
            // Repair on alternating rounds, so phase 2 re-inserts see both a
            // freshly-cleared path and a conservatively-stale one.
            if round % 2 == 0 {
                dir.repair(&road, &members);
                assert_eq!(dir.dirty_removals(), 0);
                assert_exact_after_repair(&dir, &members);
                for &v in &cyclers {
                    // After an exact repair a cycler's pure singleton path must
                    // have lost its presence bit (unless shared with a survivor
                    // — the root, typically — which stays set).
                    assert!(!dir.is_object(v));
                }
            }

            // Phase 2: re-insert every cycler; the vertex bit and the whole
            // leaf-to-root path must be live again regardless of repair state.
            for &v in &cyclers {
                assert!(dir.insert(&road, v), "round {round}: reinsert {v}");
                members.push(v);
                assert!(dir.is_object(v));
                let mut r = road.leaf_of(v);
                loop {
                    assert!(dir.rnet_has_object(r), "round {round}: path bit lost at rnet {r}");
                    match road.hierarchy().parent(r) {
                        Some(p) => r = p,
                        None => break,
                    }
                }
            }
            dir.repair(&road, &members);
            assert_exact_after_repair(&dir, &members);

            // Phase 3: remove them again immediately after the repair — the
            // next round's insert then starts from a truly cleared path.
            for &v in &cyclers {
                assert!(dir.remove(v), "round {round}: second remove {v}");
            }
            members.retain(|v| !cyclers.contains(v));
            dir.repair(&road, &members);
            assert_exact_after_repair(&dir, &members);

            // Close the round with the cyclers back in, exactly once.
            for &v in &cyclers {
                assert!(dir.insert(&road, v), "round {round}: closing insert {v}");
                assert!(!dir.insert(&road, v), "round {round}: duplicate insert {v}");
                members.push(v);
            }
            assert_eq!(dir.num_objects(), members.len(), "round {round}");
        }
        dir.repair(&road, &members);
        assert_exact_after_repair(&dir, &members);
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
