//! Uniform construction + cost accounting for the three object indexes compared in
//! Section 7.4 / Figure 18.

use std::time::Instant;

use rnknn_graph::Graph;
use rnknn_gtree::{Gtree, OccurrenceList};
use rnknn_road::{AssociationDirectory, RoadIndex};

use crate::set::{ObjectRTree, ObjectSet};

/// Construction time and size of one object index (one point of Figure 18).
#[derive(Debug, Clone, Copy)]
pub struct ObjectIndexCost {
    /// Wall-clock construction time in microseconds.
    pub build_micros: u128,
    /// Resident size in bytes.
    pub bytes: usize,
}

/// Builds the R-tree object index (IER / DB-ENN) and reports its cost.
pub fn build_rtree(graph: &Graph, objects: &ObjectSet) -> (ObjectRTree, ObjectIndexCost) {
    let start = Instant::now();
    let index = ObjectRTree::build(graph, objects);
    let cost =
        ObjectIndexCost { build_micros: start.elapsed().as_micros(), bytes: index.memory_bytes() };
    (index, cost)
}

/// Builds the G-tree occurrence list and reports its cost.
pub fn build_occurrence_list(
    gtree: &Gtree,
    objects: &ObjectSet,
) -> (OccurrenceList, ObjectIndexCost) {
    let start = Instant::now();
    let index = OccurrenceList::build(gtree, objects.vertices());
    let cost =
        ObjectIndexCost { build_micros: start.elapsed().as_micros(), bytes: index.memory_bytes() };
    (index, cost)
}

/// Builds the ROAD association directory and reports its cost.
pub fn build_association_directory(
    graph: &Graph,
    road: &RoadIndex,
    objects: &ObjectSet,
) -> (AssociationDirectory, ObjectIndexCost) {
    let start = Instant::now();
    let index = AssociationDirectory::build(road, graph.num_vertices(), objects.vertices());
    let cost =
        ObjectIndexCost { build_micros: start.elapsed().as_micros(), bytes: index.memory_bytes() };
    (index, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::uniform;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::EdgeWeightKind;
    use rnknn_gtree::GtreeConfig;

    #[test]
    fn all_three_object_indexes_build_and_report_costs() {
        let g =
            RoadNetwork::generate(&GeneratorConfig::new(600, 3)).graph(EdgeWeightKind::Distance);
        let gtree =
            Gtree::build_with_config(&g, GtreeConfig { leaf_capacity: 64, ..Default::default() });
        let road = RoadIndex::from_gtree(&g, &gtree);
        let objects = uniform(&g, 0.05, 7);

        let (rtree, rc) = build_rtree(&g, &objects);
        let (occ, oc) = build_occurrence_list(&gtree, &objects);
        let (ad, ac) = build_association_directory(&g, &road, &objects);

        assert_eq!(rtree.len(), objects.len());
        assert_eq!(occ.num_objects(), objects.len());
        assert_eq!(ad.num_objects(), objects.len());
        for cost in [rc, oc, ac] {
            assert!(cost.bytes > 0);
            // build_micros can legitimately be 0 on a fast machine; just ensure the
            // field is populated without panicking.
            let _ = cost.build_micros;
        }
        // The association directory (a count per Rnet, a bit per vertex) is the
        // smallest index, as in the paper's Figure 18(a).
        assert!(ac.bytes <= rc.bytes);
    }
}
