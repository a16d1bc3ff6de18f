//! ROAD's association directory, read from the shared `OccurrenceList`.
//!
//! The directory is not a structure of ROAD's own: [`RoadKnn`](crate::RoadKnn) reads
//! the G-tree's occurrence list with Rnet indexes, which works only because an Rnet
//! is the G-tree node of the same index. These tests pin that reading: they walk
//! ROAD's own hierarchy (`leaf_of`, `parent`, `leaf_range`) and check the list's
//! per-node flags against it, under builds, churn and copies.

mod tests {
    use crate::index::derive_for_tests;
    use crate::RnetIndex;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::{EdgeWeightKind, NodeId};
    use rnknn_gtree::OccurrenceList;

    #[test]
    fn directory_flags_match_object_locations() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(500, 4));
        let g = net.graph(EdgeWeightKind::Distance);
        let (gtree, road) = derive_for_tests(&g, 16);
        let objects: Vec<NodeId> = g.vertices().filter(|v| v % 23 == 1).collect();
        let dir = OccurrenceList::build(&gtree, &objects);
        assert_eq!(dir.num_objects(), objects.len());
        for &o in &objects {
            assert!(dir.is_object(o));
            let mut r = road.leaf_of(o);
            loop {
                assert!(dir.has_objects(r));
                match road.hierarchy().parent(r) {
                    Some(p) => r = p,
                    None => break,
                }
            }
        }
        // An Rnet whose subtree holds no objects must not be flagged.
        let h = road.hierarchy();
        for ri in 0..road.num_rnets() as RnetIndex {
            let flagged = dir.has_objects(ri);
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
        let (gtree, road) = derive_for_tests(&g, 16);
        let mut members: Vec<NodeId> = g.vertices().filter(|v| v % 19 == 4).collect();
        let mut dir = OccurrenceList::build(&gtree, &members);
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
                (0..road.num_rnets() as RnetIndex).map(|r| dir.has_objects(r)).collect();
            match rng() % 3 {
                0 if members.len() > 1 => {
                    let v = members.swap_remove((rng() as usize) % members.len());
                    assert!(dir.remove(&gtree, v), "step {step}");
                    assert!(!dir.remove(&gtree, v), "step {step}: double remove");
                    removed.push(v);
                }
                1 if !removed.is_empty() => {
                    let v = removed.swap_remove((rng() as usize) % removed.len());
                    if !members.contains(&v) {
                        assert!(dir.insert(&gtree, v), "step {step}: re-insert {v}");
                        assert!(!dir.insert(&gtree, v), "step {step}: duplicate insert {v}");
                        members.push(v);
                    }
                }
                _ => {
                    let v = (rng() % g.num_vertices() as u64) as NodeId;
                    let fresh = !members.contains(&v);
                    assert_eq!(dir.insert(&gtree, v), fresh, "step {step}");
                    if fresh {
                        members.push(v);
                    }
                }
            }
            let exact = OccurrenceList::build(&gtree, &members);
            assert!(dir == exact, "step {step}: the directory differs from a fresh build");
            assert_eq!(dir.num_objects(), members.len());
            emptied += (0..road.num_rnets() as RnetIndex)
                .filter(|&r| before[r as usize] && !dir.has_objects(r))
                .count();
        }
        assert!(emptied > 0, "no removal emptied an Rnet: the churn is too gentle");
    }

    /// `clone_from` over a directory of another object set, after seeded churn
    /// on both, equals `clone`, and the copy flags the same Rnets.
    #[test]
    fn clone_from_after_churn_equals_clone() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(600, 6));
        let g = net.graph(EdgeWeightKind::Distance);
        let (gtree, road) = derive_for_tests(&g, 16);
        let n = g.num_vertices() as u64;
        let churned = |modulus: NodeId, mut state: u64| {
            let members: Vec<NodeId> = g.vertices().filter(|v| v % modulus == 2).collect();
            let mut dir = OccurrenceList::build(&gtree, &members);
            for _ in 0..400 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let v = (state % n) as NodeId;
                if !dir.insert(&gtree, v) {
                    assert!(dir.remove(&gtree, v));
                }
            }
            dir
        };
        let source = churned(5, 0xBF58_476D_1CE4_E5B9);
        let mut target = churned(41, 0x94D0_49BB_1331_11EB);
        assert_ne!(target, source);
        target.clone_from(&source);
        assert_eq!(target, source.clone());
        for r in 0..road.num_rnets() as RnetIndex {
            assert_eq!(target.has_objects(r), source.has_objects(r), "rnet {r}");
        }
    }

    #[test]
    fn duplicates_and_empty_sets() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(300, 8));
        let g = net.graph(EdgeWeightKind::Distance);
        let (gtree, road) = derive_for_tests(&g, 64);
        let dir = OccurrenceList::build(&gtree, &[9, 9, 9]);
        assert_eq!(dir.num_objects(), 1);
        let empty = OccurrenceList::build(&gtree, &[]);
        assert_eq!(empty.num_objects(), 0);
        assert!(!empty.has_objects(road.root()));
        assert!(empty.memory_bytes() > 0);
    }
}
