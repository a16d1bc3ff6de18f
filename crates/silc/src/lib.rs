//! SILC — Spatially Induced Linkage Cognizance (Sankaranarayanan et al., GIS 2005),
//! the index behind Distance Browsing (Samet et al., SIGMOD 2008).
//!
//! For every source vertex `s`, SILC colours every other vertex by the first edge of the
//! shortest path from `s` towards it, stores the colouring as a Morton-ordered region
//! quadtree (contiguous single-colour regions collapse into blocks), and annotates every
//! block with the minimum / maximum ratio `λ = d(s,·) / d_E(s,·)` between network and
//! Euclidean distance. This supports:
//!
//! * `O(log |V|)` retrieval of the next vertex on a shortest path ([`SilcIndex::first_hop`]),
//!   and hence path / distance computation by repeated lookup;
//! * distance *intervals* `[λ⁻·d_E, λ⁺·d_E]` that Distance Browsing refines lazily
//!   ([`SilcIndex::interval`], [`IntervalRefiner`]).
//!
//! The index costs `O(|V|^1.5)` space and an all-pairs shortest-path computation, which
//! is why the paper can only build it for the five smallest road networks; the same
//! limit is expressed here through [`SilcConfig::max_vertices`]. Construction is
//! parallelised across source vertices (the paper uses OpenMP; we use crossbeam scoped
//! threads).
//!
//! The degree-2 chain optimisation of Appendix A.1.2 is supported by passing the
//! index's own [`ChainIndex`] ([`SilcIndex::chains`]) to the path / refinement
//! routines. Queries write nothing into the index: each walk counts its own quadtree
//! lookups and chain skips ([`IntervalRefiner`]).

#![forbid(unsafe_code)]

use rnknn_graph::{ChainIndex, Graph, NodeId, Weight, INFINITY};
use rnknn_pathfinding::sssp_tree;
use rnknn_spatial::morton::CoordinateNormalizer;
use rnknn_spatial::quadtree::RegionQuadtree;

/// Construction parameters for SILC.
#[derive(Debug, Clone)]
pub struct SilcConfig {
    /// Refuse to build the index for graphs with more vertices than this (the paper's
    /// memory-capacity limit, Section 7.2). `try_build` returns `None` beyond it (and
    /// for a graph with a zero-weight edge, whatever its size).
    pub max_vertices: usize,
    /// Number of worker threads used for construction (1 = sequential).
    pub threads: usize,
}

impl Default for SilcConfig {
    fn default() -> Self {
        SilcConfig { max_vertices: 60_000, threads: 4 }
    }
}

/// One quadtree block of a source vertex: a Morton range with a colour and the λ bounds.
#[derive(Debug, Clone, Copy)]
struct SilcBlock {
    morton_lo: u64,
    morton_hi: u64,
    /// Index of the first-hop neighbour in the source's adjacency list.
    color: u16,
    lambda_min: f32,
    lambda_max: f32,
}

/// A lower/upper bound pair on a network distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistanceInterval {
    /// Lower bound (inclusive).
    pub lower: Weight,
    /// Upper bound (inclusive).
    pub upper: Weight,
}

impl DistanceInterval {
    /// The fully-unknown interval.
    pub fn unknown() -> Self {
        DistanceInterval { lower: 0, upper: INFINITY }
    }

    /// True when the interval has collapsed to a single value.
    pub fn is_exact(&self) -> bool {
        self.lower == self.upper
    }
}

/// The SILC index: one coloured quadtree per source vertex.
#[derive(Debug)]
pub struct SilcIndex {
    /// Concatenated blocks of all source vertices.
    blocks: Vec<SilcBlock>,
    /// Per source vertex: start of its block slice (length `|V| + 1`).
    offsets: Vec<u64>,
    /// Morton code of every vertex (shared by all quadtrees).
    vertex_morton: Vec<u64>,
    /// Degree-2 chains of the graph (Appendix A.1.2).
    chains: ChainIndex,
}

impl SilcIndex {
    /// Builds the index, panicking if the graph exceeds the default size limit.
    pub fn build(graph: &Graph) -> SilcIndex {
        Self::try_build(graph, &SilcConfig::default())
            .expect("graph exceeds the SILC size limit; raise SilcConfig::max_vertices")
    }

    /// Builds the index unless the graph exceeds `config.max_vertices` or has a
    /// zero-weight edge: first-hop colouring is not exact under zero-length ties
    /// (docs/CORRECTNESS.md, "The weight contract"), so such a graph is refused
    /// rather than indexed wrongly.
    pub fn try_build(graph: &Graph, config: &SilcConfig) -> Option<SilcIndex> {
        let n = graph.num_vertices();
        if n > config.max_vertices || graph.edges().any(|(_, _, w)| w == 0) {
            return None;
        }
        let normalizer = CoordinateNormalizer::new(graph.bounding_rect());
        let cells: Vec<(u32, u32)> = graph.coords().iter().map(|&p| normalizer.cell(p)).collect();
        let vertex_morton: Vec<u64> = graph.coords().iter().map(|&p| normalizer.code(p)).collect();

        let threads = config.threads.max(1);
        let mut per_source: Vec<Vec<SilcBlock>> = vec![Vec::new(); n];
        if threads == 1 || n < 256 {
            for s in 0..n as NodeId {
                per_source[s as usize] = build_source(graph, &cells, s);
            }
        } else {
            let chunks: Vec<(usize, &mut [Vec<SilcBlock>])> = {
                let chunk = n.div_ceil(threads);
                per_source.chunks_mut(chunk).enumerate().map(|(i, c)| (i * chunk, c)).collect()
            };
            let cells_ref = &cells;
            std::thread::scope(|scope| {
                for (start, slot) in chunks {
                    scope.spawn(move || {
                        for (i, out) in slot.iter_mut().enumerate() {
                            *out = build_source(graph, cells_ref, (start + i) as NodeId);
                        }
                    });
                }
            });
        }

        let mut blocks = Vec::new();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        for source_blocks in per_source {
            blocks.extend_from_slice(&source_blocks);
            offsets.push(blocks.len() as u64);
        }
        let chains = ChainIndex::build(graph);
        Some(SilcIndex { blocks, offsets, vertex_morton, chains })
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of quadtree blocks over all source vertices (the `O(|V|^1.5)` space
    /// driver).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The degree-2 chains of the indexed graph, for the chain optimisation.
    pub fn chains(&self) -> &ChainIndex {
        &self.chains
    }

    /// Approximate resident size in bytes (Figure 8(a)), chains included.
    pub fn memory_bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<SilcBlock>()
            + self.offsets.len() * 8
            + self.vertex_morton.len() * 8
            + self.chains.memory_bytes()
    }

    fn blocks_of(&self, s: NodeId) -> &[SilcBlock] {
        &self.blocks[self.offsets[s as usize] as usize..self.offsets[s as usize + 1] as usize]
    }

    fn locate(&self, s: NodeId, t: NodeId) -> Option<&SilcBlock> {
        let code = self.vertex_morton[t as usize];
        let blocks = self.blocks_of(s);
        let idx = blocks.partition_point(|b| b.morton_lo <= code);
        if idx == 0 {
            return None;
        }
        let b = &blocks[idx - 1];
        if code <= b.morton_hi {
            Some(b)
        } else {
            None
        }
    }

    /// The first vertex after `s` on a shortest path from `s` to `t`, or `None` when `t`
    /// is unreachable (or `t == s`).
    pub fn first_hop(&self, graph: &Graph, s: NodeId, t: NodeId) -> Option<NodeId> {
        if s == t {
            return None;
        }
        let block = self.locate(s, t)?;
        graph.neighbor_ids(s).get(block.color as usize).copied()
    }

    /// Lower/upper bounds on `d(s, t)` from the block containing `t` in `s`'s quadtree.
    pub fn interval(&self, graph: &Graph, s: NodeId, t: NodeId) -> DistanceInterval {
        if s == t {
            return DistanceInterval { lower: 0, upper: 0 };
        }
        let de = graph.euclidean(s, t);
        match self.locate(s, t) {
            None => DistanceInterval { lower: INFINITY, upper: INFINITY },
            Some(b) => {
                if de <= f64::EPSILON {
                    // Coincident coordinates carry no ratio information; fall back to an
                    // uninformative (but safe) interval that refinement will tighten.
                    return DistanceInterval::unknown();
                }
                let lower = (de * b.lambda_min as f64).floor().max(0.0) as Weight;
                let upper = (de * b.lambda_max as f64).ceil() as Weight;
                DistanceInterval { lower, upper }
            }
        }
    }

    /// Computes the full shortest path from `s` to `t` by repeated first-hop lookups
    /// (`O(m log |V|)` where `m` is the path length). Passing a [`ChainIndex`] enables
    /// the Appendix A.1.2 optimisation that skips lookups along degree-2 chains.
    pub fn path(
        &self,
        graph: &Graph,
        s: NodeId,
        t: NodeId,
        chains: Option<&ChainIndex>,
    ) -> Option<Vec<NodeId>> {
        let mut walk = IntervalRefiner::at_source(s, t, DistanceInterval::unknown());
        let mut path = vec![s];
        while walk.next_vertex != t {
            // A longer path repeats a vertex: an inconsistent index, not a loop.
            if path.len() > graph.num_vertices() || !self.advance(graph, chains, &mut walk) {
                return None;
            }
            path.push(walk.next_vertex);
        }
        Some(path)
    }

    /// Walks the shortest path from `s` to `t` to its end (the SILC distance-oracle
    /// mode): the returned walk's interval is the exact distance (`INFINITY` when `t`
    /// is unreachable) and its counters are the lookups and chain skips it took.
    pub fn walk(
        &self,
        graph: &Graph,
        s: NodeId,
        t: NodeId,
        chains: Option<&ChainIndex>,
    ) -> IntervalRefiner {
        let mut walk = IntervalRefiner::at_source(s, t, DistanceInterval::unknown());
        let mut steps = 0;
        while walk.next_vertex != t {
            steps += 1;
            if steps > graph.num_vertices() || !self.advance(graph, chains, &mut walk) {
                walk.dist_to_next = INFINITY;
                break;
            }
        }
        walk.interval = DistanceInterval { lower: walk.dist_to_next, upper: walk.dist_to_next };
        walk
    }

    /// Exact network distance obtained by walking the shortest path
    /// ([`SilcIndex::walk`]).
    pub fn distance(
        &self,
        graph: &Graph,
        s: NodeId,
        t: NodeId,
        chains: Option<&ChainIndex>,
    ) -> Weight {
        self.walk(graph, s, t, chains).dist_to_next
    }

    /// Moves `walk` one vertex along the shortest path to its target (which it must
    /// not have reached): along the chain when it is inside one and `chains` is given,
    /// by a quadtree lookup otherwise. False when no next hop exists.
    fn advance(
        &self,
        graph: &Graph,
        chains: Option<&ChainIndex>,
        walk: &mut IntervalRefiner,
    ) -> bool {
        let cur = walk.next_vertex;
        let on_chain = chains
            .filter(|_| cur != walk.source)
            .and_then(|chains| chains.next_on_chain(graph, walk.prev_vertex, cur));
        let next = match on_chain {
            Some(next) => {
                walk.chain_skips += 1;
                next
            }
            None => {
                walk.quadtree_lookups += 1;
                match self.first_hop(graph, cur, walk.target) {
                    Some(next) => next,
                    None => return false,
                }
            }
        };
        walk.dist_to_next += graph.edge_weight(cur, next).unwrap_or(INFINITY);
        walk.prev_vertex = cur;
        walk.next_vertex = next;
        true
    }

    /// Starts lazy interval refinement of `d(s, t)` (used by Distance Browsing).
    pub fn start_refinement(&self, graph: &Graph, s: NodeId, t: NodeId) -> IntervalRefiner {
        let mut refiner = IntervalRefiner::at_source(s, t, self.interval(graph, s, t));
        refiner.quadtree_lookups = u64::from(s != t);
        refiner
    }

    /// Performs one refinement step: advances one vertex along the shortest path and
    /// recomputes the bounds. Returns `true` when the interval is exact.
    pub fn refine_step(
        &self,
        graph: &Graph,
        chains: Option<&ChainIndex>,
        refiner: &mut IntervalRefiner,
    ) -> bool {
        if refiner.interval.is_exact() {
            return true;
        }
        if refiner.next_vertex != refiner.target && !self.advance(graph, chains, refiner) {
            refiner.interval = DistanceInterval { lower: INFINITY, upper: INFINITY };
            return true;
        }
        if refiner.next_vertex == refiner.target {
            refiner.interval =
                DistanceInterval { lower: refiner.dist_to_next, upper: refiner.dist_to_next };
            return true;
        }
        refiner.quadtree_lookups += 1;
        let tail = self.interval(graph, refiner.next_vertex, refiner.target);
        refiner.interval = DistanceInterval {
            lower: refiner.dist_to_next.saturating_add(tail.lower).max(refiner.interval.lower),
            upper: (refiner.dist_to_next.saturating_add(tail.upper))
                .min(refiner.interval.upper.max(refiner.dist_to_next)),
        };
        // Guard against pathological float rounding: keep the interval well-formed.
        if refiner.interval.lower > refiner.interval.upper {
            let exact = refiner.interval.upper.min(refiner.interval.lower);
            refiner.interval = DistanceInterval { lower: exact, upper: exact };
        }
        refiner.interval.is_exact()
    }
}

/// Lazy refinement state for one `(source, target)` pair (the `[δ⁻, δ⁺]` interval plus
/// the position reached along the shortest path).
#[derive(Debug, Clone, Copy)]
pub struct IntervalRefiner {
    /// The source vertex the interval is measured from.
    pub source: NodeId,
    /// The target vertex.
    pub target: NodeId,
    /// The next intermediate vertex on the shortest path (the paper's `v_n`).
    pub next_vertex: NodeId,
    /// The vertex visited before `next_vertex` (needed by the chain optimisation).
    pub prev_vertex: NodeId,
    /// Exact distance from the source to `next_vertex`.
    pub dist_to_next: Weight,
    /// Current bounds on `d(source, target)`.
    pub interval: DistanceInterval,
    /// Quadtree lookups made for this pair so far.
    pub quadtree_lookups: u64,
    /// Path steps taken along a degree-2 chain instead of a quadtree lookup.
    pub chain_skips: u64,
}

impl IntervalRefiner {
    /// A walk from `source` towards `target` that has not moved yet.
    fn at_source(source: NodeId, target: NodeId, interval: DistanceInterval) -> Self {
        IntervalRefiner {
            source,
            target,
            next_vertex: source,
            prev_vertex: source,
            dist_to_next: 0,
            interval,
            quadtree_lookups: 0,
            chain_skips: 0,
        }
    }
}

/// Builds the coloured quadtree blocks for one source vertex.
fn build_source(graph: &Graph, cells: &[(u32, u32)], s: NodeId) -> Vec<SilcBlock> {
    let (dist, parent) = sssp_tree(graph, s);
    let n = graph.num_vertices();
    // First-hop colour per vertex: the adjacency-list position (at s) of the child of s
    // on the shortest-path tree branch containing the vertex.
    let neighbors = graph.neighbor_ids(s);
    let mut color: Vec<u16> = vec![u16::MAX; n];
    // Process vertices in increasing distance order so parents are coloured first.
    let mut order: Vec<NodeId> =
        (0..n as NodeId).filter(|&v| dist[v as usize] < INFINITY).collect();
    order.sort_unstable_by_key(|&v| dist[v as usize]);
    for &v in &order {
        if v == s {
            continue;
        }
        let p = parent[v as usize];
        if p == s {
            let pos = neighbors.iter().position(|&x| x == v).expect("tree child adjacent to root");
            color[v as usize] = pos as u16;
        } else {
            color[v as usize] = color[p as usize];
        }
    }

    let labelled = |i: usize| -> Option<u16> {
        if i == s as usize || color[i] == u16::MAX {
            None
        } else {
            Some(color[i])
        }
    };
    let quadtree = RegionQuadtree::build(cells, labelled);

    // λ bounds per block, over the vertices the block actually contains.
    let points = quadtree.points();
    let source_point = graph.coord(s);
    let mut blocks = Vec::with_capacity(quadtree.num_blocks());
    for qb in quadtree.blocks() {
        let mut lambda_min = f64::INFINITY;
        let mut lambda_max = 0.0f64;
        for &(_, original) in &points[qb.point_range.0 as usize..qb.point_range.1 as usize] {
            let v = original as usize;
            let de = graph.coord(v as NodeId).distance(&source_point);
            let lambda = if de <= f64::EPSILON {
                // Coincident vertices: any positive ratio; use a neutral 1.0 so the
                // block's bounds stay finite (interval() special-cases d_E = 0 anyway).
                1.0
            } else {
                dist[v] as f64 / de
            };
            lambda_min = lambda_min.min(lambda);
            lambda_max = lambda_max.max(lambda);
        }
        // Widen slightly so f32 rounding can never make the bounds invalid.
        let lambda_min = (lambda_min * (1.0 - 1e-6)) as f32;
        let lambda_max = (lambda_max * (1.0 + 1e-6)) as f32;
        blocks.push(SilcBlock {
            morton_lo: qb.morton_lo,
            morton_hi: qb.morton_hi,
            color: qb.label,
            lambda_min,
            lambda_max,
        });
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::{testgraphs, EdgeWeightKind};
    use rnknn_pathfinding::dijkstra;

    fn setup(n: usize, seed: u64) -> (Graph, SilcIndex) {
        let net = RoadNetwork::generate(&GeneratorConfig::new(n, seed));
        let g = net.graph(EdgeWeightKind::Distance);
        let silc = SilcIndex::build(&g);
        (g, silc)
    }

    #[test]
    fn path_walking_distance_matches_dijkstra() {
        let (g, silc) = setup(400, 31);
        let chains = silc.chains();
        let n = g.num_vertices() as NodeId;
        for i in 0..40u32 {
            let s = (i * 71) % n;
            let t = (i * 181 + 3) % n;
            let truth = dijkstra::distance(&g, s, t);
            assert_eq!(silc.distance(&g, s, t, None), truth, "{s}->{t} plain");
            assert_eq!(silc.distance(&g, s, t, Some(chains)), truth, "{s}->{t} chains");
        }
    }

    #[test]
    fn first_hop_lies_on_a_shortest_path() {
        let (g, silc) = setup(300, 9);
        let n = g.num_vertices() as NodeId;
        for i in 0..30u32 {
            let s = (i * 17) % n;
            let t = (i * 67 + 11) % n;
            if s == t {
                continue;
            }
            let hop = silc.first_hop(&g, s, t).expect("connected");
            let w = g.edge_weight(s, hop).expect("first hop is adjacent");
            assert_eq!(w + dijkstra::distance(&g, hop, t), dijkstra::distance(&g, s, t));
        }
    }

    #[test]
    fn intervals_bound_the_true_distance() {
        let (g, silc) = setup(350, 5);
        let n = g.num_vertices() as NodeId;
        for i in 0..60u32 {
            let s = (i * 101) % n;
            let t = (i * 211 + 7) % n;
            let truth = dijkstra::distance(&g, s, t);
            let interval = silc.interval(&g, s, t);
            assert!(interval.lower <= truth, "{s}->{t}: lower {} > {truth}", interval.lower);
            assert!(interval.upper >= truth, "{s}->{t}: upper {} < {truth}", interval.upper);
        }
    }

    #[test]
    fn refinement_converges_to_the_exact_distance_and_stays_valid() {
        let (g, silc) = setup(300, 21);
        let chains = silc.chains();
        let n = g.num_vertices() as NodeId;
        for (use_chains, i) in [(false, 3u32), (true, 5), (false, 17), (true, 23)] {
            let s = (i * 37) % n;
            let t = (i * 149 + 1) % n;
            let truth = dijkstra::distance(&g, s, t);
            let mut refiner = silc.start_refinement(&g, s, t);
            let chain_ref = if use_chains { Some(chains) } else { None };
            let mut steps = 0;
            loop {
                assert!(refiner.interval.lower <= truth);
                assert!(refiner.interval.upper >= truth);
                if silc.refine_step(&g, chain_ref, &mut refiner) {
                    break;
                }
                steps += 1;
                assert!(steps <= g.num_vertices(), "refinement did not converge");
            }
            assert_eq!(refiner.interval.lower, truth);
            assert_eq!(refiner.interval.upper, truth);
        }
    }

    #[test]
    fn chain_optimisation_saves_quadtree_lookups() {
        let (g, silc) = setup(500, 77);
        let n = g.num_vertices() as NodeId;
        let walks = |chains: Option<&ChainIndex>| {
            (0..20u32).map(|i| silc.walk(&g, (i * 13) % n, (i * 97 + 5) % n, chains)).fold(
                (0, 0),
                |(lookups, skips), walk| {
                    (lookups + walk.quadtree_lookups, skips + walk.chain_skips)
                },
            )
        };
        let (lookups_plain, skips_plain) = walks(None);
        let (lookups_chain, skips) = walks(Some(silc.chains()));
        assert_eq!(skips_plain, 0);
        assert!(skips > 0, "expected some chain skips");
        assert!(lookups_chain < lookups_plain, "{lookups_chain} !< {lookups_plain}");
        // Every step of a walk is either a lookup or a skip.
        assert_eq!(lookups_chain + skips, lookups_plain);
    }

    #[test]
    fn size_limit_is_enforced() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(300, 2));
        let g = net.graph(EdgeWeightKind::Distance);
        assert!(SilcIndex::try_build(&g, &SilcConfig { max_vertices: 10, threads: 1 }).is_none());
        let built = SilcIndex::try_build(&g, &SilcConfig { max_vertices: 10_000, threads: 2 });
        assert!(built.is_some());
        let silc = built.unwrap();
        assert_eq!(silc.num_vertices(), g.num_vertices());
        assert!(silc.num_blocks() > g.num_vertices() / 2);
        assert!(silc.memory_bytes() > 0);
    }

    #[test]
    fn zero_weight_edge_is_refused() {
        let config = SilcConfig { max_vertices: 10_000, threads: 1 };
        assert!(SilcIndex::try_build(&testgraphs::unit_grids(6, 1), &config).is_some());
        assert!(SilcIndex::try_build(&testgraphs::zero_weight_grid(6), &config).is_none());
    }

    #[test]
    fn parallel_and_sequential_builds_agree() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(300, 44));
        let g = net.graph(EdgeWeightKind::Distance);
        let seq =
            SilcIndex::try_build(&g, &SilcConfig { max_vertices: 10_000, threads: 1 }).unwrap();
        let par =
            SilcIndex::try_build(&g, &SilcConfig { max_vertices: 10_000, threads: 4 }).unwrap();
        assert_eq!(seq.num_blocks(), par.num_blocks());
        let n = g.num_vertices() as NodeId;
        for i in 0..20u32 {
            let s = (i * 31) % n;
            let t = (i * 83 + 2) % n;
            assert_eq!(seq.distance(&g, s, t, None), par.distance(&g, s, t, None));
        }
    }

    #[test]
    fn trivial_queries() {
        let (g, silc) = setup(200, 1);
        assert_eq!(silc.distance(&g, 5, 5, None), 0);
        assert_eq!(silc.interval(&g, 5, 5), DistanceInterval { lower: 0, upper: 0 });
        assert_eq!(silc.first_hop(&g, 5, 5), None);
        assert_eq!(silc.path(&g, 7, 7, None), Some(vec![7]));
    }
}
