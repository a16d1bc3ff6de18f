//! Synthetic road-network generator.
//!
//! The paper evaluates on ten road networks from the 9th DIMACS Implementation
//! Challenge (Table 1), which are derived from US Census TIGER data and are not
//! redistributable inside this repository. This module generates synthetic networks
//! that reproduce the structural properties those experiments depend on:
//!
//! * planar, degree-bounded connectivity (a jittered grid with random edge removal);
//! * a large fraction of degree-1/degree-2 vertices (the paper reports ~20% / ~30% on
//!   the US network), created by subdividing edges into chains;
//! * both travel-distance and travel-time edge weights, where travel time is the edge
//!   length divided by a per-road-class speed, so that travel-time graphs exhibit the
//!   "highway hierarchy" that CH / TNR / PHL exploit;
//! * coordinates consistent with edge lengths, so Euclidean distance is a meaningful
//!   lower bound (critical for IER and DisBrw).
//!
//! The DIMACS-named presets ([`DatasetPreset`]) are scaled-down stand-ins for the
//! paper's datasets (docs/ARCHITECTURE.md, "Substitutions").

use crate::builder::GraphBuilder;
use crate::graph::{EdgeWeightKind, Graph};
use crate::point::Point;
use crate::{NodeId, Weight};

/// A simple, dependency-free xorshift* PRNG.
///
/// The generator must be deterministic across platforms for reproducible experiments;
/// a tiny local PRNG avoids pulling `rand` into the library crates (it stays a
/// dev-dependency only, per docs/ARCHITECTURE.md, "Substitutions").
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed.wrapping_add(0x9E3779B97F4A7C15) }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// Road classes used to assign speeds (and hence travel times) to edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RoadClass {
    Local,
    Arterial,
    Highway,
}

impl RoadClass {
    /// Speed in coordinate-units per time-unit (think metres per second).
    fn speed(self) -> f64 {
        match self {
            RoadClass::Local => 12.0,
            RoadClass::Arterial => 22.0,
            RoadClass::Highway => 33.0,
        }
    }
}

/// Configuration of the synthetic road-network generator.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Approximate number of vertices in the generated network (the result will be
    /// within a few percent of this).
    pub target_vertices: usize,
    /// PRNG seed; identical seeds produce identical networks.
    pub seed: u64,
    /// Probability that a non-tree grid edge is kept. Lower values make the network
    /// sparser and more "rural".
    pub keep_edge_probability: f64,
    /// Fraction of edges subdivided into degree-2 chains.
    pub chain_fraction: f64,
    /// Maximum number of intermediate vertices inserted per subdivided edge.
    pub max_chain_length: usize,
    /// Grid spacing between adjacent base vertices, in coordinate units.
    pub grid_spacing: f64,
    /// Every `highway_stride`-th grid row/column is promoted to an arterial/highway
    /// corridor with higher speeds (this creates the hierarchy travel-time graphs need).
    pub highway_stride: usize,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            target_vertices: 10_000,
            seed: 7,
            keep_edge_probability: 0.85,
            chain_fraction: 0.35,
            max_chain_length: 3,
            grid_spacing: 500.0,
            highway_stride: 8,
        }
    }
}

impl GeneratorConfig {
    /// Convenience constructor fixing only size and seed.
    pub fn new(target_vertices: usize, seed: u64) -> Self {
        GeneratorConfig { target_vertices, seed, ..Default::default() }
    }
}

/// Scaled-down stand-ins for the paper's Table 1 datasets.
///
/// The relative ordering of sizes matches the paper; absolute sizes are scaled so the
/// full experiment sweep runs on a laptop. Pass a `scale > 1.0` to
/// [`DatasetPreset::config`] to enlarge them when more time/memory is available.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DatasetPreset {
    /// Delaware-like (smallest).
    DE,
    /// Vermont-like.
    VT,
    /// Maine-like.
    ME,
    /// Colorado-like.
    CO,
    /// North-West US-like (the paper's median-size default).
    NW,
    /// California/Nevada-like.
    CA,
    /// Eastern US-like.
    E,
    /// Western US-like.
    W,
    /// Central US-like.
    C,
    /// Full United States-like (largest).
    US,
}

impl DatasetPreset {
    /// All presets in increasing size order.
    pub fn all() -> [DatasetPreset; 10] {
        use DatasetPreset::*;
        [DE, VT, ME, CO, NW, CA, E, W, C, US]
    }

    /// Short name used in experiment output, matching the paper's abbreviations.
    pub fn name(self) -> &'static str {
        use DatasetPreset::*;
        match self {
            DE => "DE",
            VT => "VT",
            ME => "ME",
            CO => "CO",
            NW => "NW",
            CA => "CA",
            E => "E",
            W => "W",
            C => "C",
            US => "US",
        }
    }

    /// Baseline vertex count of the scaled-down preset (scale factor 1.0).
    pub fn base_vertices(self) -> usize {
        use DatasetPreset::*;
        match self {
            DE => 1_500,
            VT => 3_000,
            ME => 6_000,
            CO => 12_000,
            NW => 24_000,
            CA => 40_000,
            E => 64_000,
            W => 96_000,
            C => 144_000,
            US => 200_000,
        }
    }

    /// Number of vertices of the real DIMACS dataset this preset stands in for
    /// (reported for documentation in experiment output).
    pub fn paper_vertices(self) -> usize {
        use DatasetPreset::*;
        match self {
            DE => 48_812,
            VT => 95_672,
            ME => 187_315,
            CO => 435_666,
            NW => 1_089_933,
            CA => 1_890_815,
            E => 3_598_623,
            W => 6_262_104,
            C => 14_081_816,
            US => 23_947_347,
        }
    }

    /// Generator configuration for this preset, with size multiplied by `scale`.
    pub fn config(self, scale: f64) -> GeneratorConfig {
        let target = ((self.base_vertices() as f64) * scale).round().max(64.0) as usize;
        GeneratorConfig::new(target, 0xC0FFEE ^ self.base_vertices() as u64)
    }

    /// Generates the road network for this preset.
    pub fn generate(self, scale: f64) -> RoadNetwork {
        RoadNetwork::generate(&self.config(scale))
    }
}

/// A generated road network carrying both travel-distance and travel-time weights.
///
/// Convert it to a [`Graph`] with [`RoadNetwork::graph`] for the weight kind an
/// experiment needs.
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    coords: Vec<Point>,
    /// Undirected edges as `(u, v, travel_distance, travel_time)`.
    edges: Vec<(NodeId, NodeId, Weight, Weight)>,
}

impl RoadNetwork {
    /// Generates a synthetic road network according to `config`.
    pub fn generate(config: &GeneratorConfig) -> RoadNetwork {
        let mut rng = SplitMix64::new(config.seed);

        // The base grid accounts for roughly 1 / (1 + chain overhead) of the final
        // vertex count; the rest comes from chain subdivision.
        let chain_overhead = config.chain_fraction * (config.max_chain_length as f64 + 1.0) / 2.0;
        let base_vertices =
            ((config.target_vertices as f64) / (1.0 + chain_overhead)).max(4.0) as usize;
        let cols = (base_vertices as f64).sqrt().round().max(2.0) as usize;
        let rows = base_vertices.div_ceil(cols).max(2);

        let spacing = config.grid_spacing;
        let mut coords = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                // Jitter each grid point by up to 30% of the spacing.
                let jx = (rng.next_f64() - 0.5) * 0.6 * spacing;
                let jy = (rng.next_f64() - 0.5) * 0.6 * spacing;
                coords.push(Point::new(c as f64 * spacing + jx, r as f64 * spacing + jy));
            }
        }
        let index = |r: usize, c: usize| (r * cols + c) as NodeId;

        // Candidate grid edges: horizontal and vertical neighbors.
        let mut candidate_edges: Vec<(NodeId, NodeId, RoadClass)> = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let class_row = if r % config.highway_stride == 0 {
                    RoadClass::Highway
                } else if r % (config.highway_stride / 2).max(1) == 0 {
                    RoadClass::Arterial
                } else {
                    RoadClass::Local
                };
                let class_col = if c % config.highway_stride == 0 {
                    RoadClass::Highway
                } else if c % (config.highway_stride / 2).max(1) == 0 {
                    RoadClass::Arterial
                } else {
                    RoadClass::Local
                };
                if c + 1 < cols {
                    candidate_edges.push((index(r, c), index(r, c + 1), class_row));
                }
                if r + 1 < rows {
                    candidate_edges.push((index(r, c), index(r + 1, c), class_col));
                }
            }
        }

        // Keep a random spanning structure: process candidates in random order, always
        // keeping edges that connect new components (union-find), and keeping the rest
        // with `keep_edge_probability` (highway edges are always kept so corridors stay
        // contiguous).
        let n_base = coords.len();
        let mut parent: Vec<u32> = (0..n_base as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        // Shuffle candidates (Fisher-Yates).
        for i in (1..candidate_edges.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            candidate_edges.swap(i, j);
        }
        let mut kept: Vec<(NodeId, NodeId, RoadClass)> = Vec::new();
        for (u, v, class) in candidate_edges {
            let ru = find(&mut parent, u);
            let rv = find(&mut parent, v);
            if ru != rv {
                parent[ru as usize] = rv;
                kept.push((u, v, class));
            } else if class == RoadClass::Highway || rng.chance(config.keep_edge_probability) {
                kept.push((u, v, class));
            }
        }

        // Subdivide a fraction of local edges into chains of degree-2 vertices.
        let mut edges: Vec<(NodeId, NodeId, Weight, Weight)> = Vec::new();
        let push_edge = |edges: &mut Vec<(NodeId, NodeId, Weight, Weight)>,
                         coords: &[Point],
                         u: NodeId,
                         v: NodeId,
                         class: RoadClass| {
            let len = coords[u as usize].distance(&coords[v as usize]).max(1.0);
            let dist = len.round() as Weight;
            let time = (len / class.speed() * 10.0).round().max(1.0) as Weight;
            edges.push((u, v, dist.max(1), time));
        };
        for (u, v, class) in kept {
            let subdivide = class == RoadClass::Local && rng.chance(config.chain_fraction);
            if !subdivide || config.max_chain_length == 0 {
                push_edge(&mut edges, &coords, u, v, class);
                continue;
            }
            let pieces = 1 + rng.next_below(config.max_chain_length as u64) as usize;
            let a = coords[u as usize];
            let b = coords[v as usize];
            let mut prev = u;
            for i in 1..=pieces {
                let t = i as f64 / (pieces + 1) as f64;
                // Small perpendicular wiggle so chains are not perfectly straight.
                let wiggle = (rng.next_f64() - 0.5) * 0.1 * config.grid_spacing;
                let dx = b.x - a.x;
                let dy = b.y - a.y;
                let norm = (dx * dx + dy * dy).sqrt().max(1.0);
                let px = -dy / norm * wiggle;
                let py = dx / norm * wiggle;
                let p = Point::new(a.x + dx * t + px, a.y + dy * t + py);
                let mid = coords.len() as NodeId;
                coords.push(p);
                push_edge(&mut edges, &coords, prev, mid, class);
                prev = mid;
            }
            push_edge(&mut edges, &coords, prev, v, class);
        }

        RoadNetwork { coords, edges }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.coords.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Vertex coordinates.
    pub fn coords(&self) -> &[Point] {
        &self.coords
    }

    /// Raw edge list as `(u, v, travel_distance, travel_time)`.
    pub fn edges(&self) -> &[(NodeId, NodeId, Weight, Weight)] {
        &self.edges
    }

    /// Materialises a [`Graph`] carrying the requested weight kind.
    pub fn graph(&self, kind: EdgeWeightKind) -> Graph {
        let mut b = GraphBuilder::new();
        for &p in &self.coords {
            b.add_vertex(p);
        }
        for &(u, v, dist, time) in &self.edges {
            let w = match kind {
                EdgeWeightKind::Distance => dist,
                EdgeWeightKind::Time => time,
            };
            b.add_edge(u, v, w);
        }
        b.build().with_kind(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_network_is_connected_and_near_target_size() {
        let cfg = GeneratorConfig::new(2_000, 42);
        let net = RoadNetwork::generate(&cfg);
        let g = net.graph(EdgeWeightKind::Distance);
        assert!(g.is_connected());
        let n = g.num_vertices();
        assert!(n > 1_500 && n < 2_600, "unexpected vertex count {n}");
        // Road networks are sparse: average degree between 2 and 4.
        let avg_degree = g.num_arcs() as f64 / n as f64;
        assert!(avg_degree > 1.8 && avg_degree < 4.5, "avg degree {avg_degree}");
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let cfg = GeneratorConfig::new(500, 99);
        let a = RoadNetwork::generate(&cfg);
        let b = RoadNetwork::generate(&cfg);
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn travel_time_weights_reflect_speed_classes() {
        let cfg = GeneratorConfig::new(3_000, 1);
        let net = RoadNetwork::generate(&cfg);
        // Time weight should be positively correlated with distance weight but not equal.
        let mut ratio_min = f64::INFINITY;
        let mut ratio_max = 0.0f64;
        for &(_, _, d, t) in net.edges() {
            let r = d as f64 / t as f64;
            ratio_min = ratio_min.min(r);
            ratio_max = ratio_max.max(r);
        }
        assert!(ratio_max > ratio_min * 1.5, "expected multiple speed classes");
    }

    #[test]
    fn has_substantial_fraction_of_low_degree_vertices() {
        let cfg = GeneratorConfig::new(4_000, 3);
        let net = RoadNetwork::generate(&cfg);
        let g = net.graph(EdgeWeightKind::Distance);
        let low = g.vertices().filter(|&v| g.degree(v) <= 2).count();
        let frac = low as f64 / g.num_vertices() as f64;
        assert!(frac > 0.2, "expected >20% degree<=2 vertices, got {frac}");
    }

    #[test]
    fn presets_are_ordered_by_size() {
        let sizes: Vec<_> = DatasetPreset::all().iter().map(|p| p.base_vertices()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted);
        assert_eq!(DatasetPreset::NW.name(), "NW");
        assert!(DatasetPreset::US.paper_vertices() > 20_000_000);
    }

    #[test]
    fn preset_generation_smoke() {
        let net = DatasetPreset::DE.generate(0.1);
        assert!(net.num_vertices() > 100);
        assert!(net.graph(EdgeWeightKind::Time).is_connected());
    }
}
