//! POI-like object sets standing in for the paper's OpenStreetMap extracts (Table 2).
//!
//! The paper's real object sets range from Schools (density ≈ 0.007 of the US network,
//! fairly uniform) to Courthouses (density ≈ 0.00009, very sparse), with Fast Food and
//! Hotels appearing in clusters around towns. The generator reproduces each category's
//! density and clustering character on the synthetic networks so that Figures 13, 15,
//! 25 and 27 can be regenerated (docs/ARCHITECTURE.md, "Substitutions").

use rnknn_graph::Graph;

use crate::generators::{clustered, uniform};
use crate::set::ObjectSet;

/// The eight POI categories of Table 2, ordered from most to least numerous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoiCategory {
    Schools,
    Parks,
    FastFood,
    PostOffices,
    Hospitals,
    Hotels,
    Universities,
    Courthouses,
}

impl PoiCategory {
    /// All categories, largest first (the order of Figure 13's x-axis reversed).
    pub fn all() -> [PoiCategory; 8] {
        use PoiCategory::*;
        [Schools, Parks, FastFood, PostOffices, Hospitals, Hotels, Universities, Courthouses]
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        use PoiCategory::*;
        match self {
            Schools => "School",
            Parks => "Park",
            FastFood => "Fast Food",
            PostOffices => "Post",
            Hospitals => "Hospital",
            Hotels => "Hotel",
            Universities => "University",
            Courthouses => "Court",
        }
    }

    /// Object density (|O| / |V|) of the category on the paper's US road network
    /// (Table 2), which the synthetic sets reproduce.
    pub fn density(self) -> f64 {
        use PoiCategory::*;
        match self {
            Schools => 0.007,
            Parks => 0.003,
            FastFood => 0.001,
            PostOffices => 0.0009,
            Hospitals => 0.0005,
            Hotels => 0.0004,
            Universities => 0.0002,
            Courthouses => 0.00009,
        }
    }

    /// Whether the category's POIs appear in clusters (fast food, hotels) or spread out.
    pub fn is_clustered(self) -> bool {
        matches!(self, PoiCategory::FastFood | PoiCategory::Hotels)
    }

    /// Generates the POI-like object set for this category on `graph`.
    pub fn generate(self, graph: &Graph, seed: u64) -> ObjectSet {
        let n = graph.num_vertices();
        let target = ((n as f64 * self.density()).round() as usize).max(3);
        let seed = seed ^ (self as u64 + 1).wrapping_mul(0x9E37);
        let set = if self.is_clustered() {
            // Clusters of ~5 as in the paper's synthetic clustered sets; clamp to the
            // category's target size so the Table 2 ordering is preserved.
            clustered(graph, target.div_ceil(4).max(1), 5, seed)
        } else {
            uniform(graph, target as f64 / n as f64, seed)
        };
        let mut vertices = set.vertices().to_vec();
        vertices.truncate(target);
        ObjectSet::new(self.name(), n, vertices)
    }
}

/// All eight POI-like object sets for one road network.
#[derive(Debug, Clone)]
pub struct PoiSets {
    sets: Vec<(PoiCategory, ObjectSet)>,
}

impl PoiSets {
    /// Generates every category on `graph`.
    pub fn generate(graph: &Graph, seed: u64) -> PoiSets {
        PoiSets { sets: PoiCategory::all().iter().map(|&c| (c, c.generate(graph, seed))).collect() }
    }

    /// Iterates over `(category, object set)` pairs, largest category first.
    pub fn iter(&self) -> impl Iterator<Item = (PoiCategory, &ObjectSet)> {
        self.sets.iter().map(|(c, s)| (*c, s))
    }

    /// The object set for one category.
    pub fn get(&self, category: PoiCategory) -> &ObjectSet {
        &self.sets.iter().find(|(c, _)| *c == category).expect("all categories generated").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::EdgeWeightKind;

    #[test]
    fn categories_have_decreasing_sizes() {
        let g =
            RoadNetwork::generate(&GeneratorConfig::new(4_000, 2)).graph(EdgeWeightKind::Distance);
        let sets = PoiSets::generate(&g, 5);
        let sizes: Vec<usize> = sets.iter().map(|(_, s)| s.len()).collect();
        // Sizes follow the density ordering (allowing equality for tiny sets).
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1], "sizes not decreasing: {sizes:?}");
        }
        assert!(sets.get(PoiCategory::Schools).len() > sets.get(PoiCategory::Courthouses).len());
        assert_eq!(sets.get(PoiCategory::Hospitals).name(), "Hospital");
    }

    #[test]
    fn densities_roughly_match_the_table() {
        let g =
            RoadNetwork::generate(&GeneratorConfig::new(8_000, 3)).graph(EdgeWeightKind::Distance);
        let schools = PoiCategory::Schools.generate(&g, 1);
        let d = schools.density(g.num_vertices());
        assert!((d - 0.007).abs() < 0.002, "schools density {d}");
        assert!(PoiCategory::FastFood.is_clustered());
        assert!(!PoiCategory::Schools.is_clustered());
        assert_eq!(PoiCategory::all().len(), 8);
    }
}
