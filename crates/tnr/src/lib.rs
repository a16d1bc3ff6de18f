//! Transit Node Routing (Bast et al., WEA 2007), derived from a Contraction Hierarchy.
//!
//! TNR is one of the shortest-path oracles the paper plugs into IER (Section 5). This
//! implementation follows the CH-based construction used by the shortest-path
//! experimental study the paper takes its code from:
//!
//! * the transit node set `T` is the top fraction of vertices by CH rank;
//! * the *access nodes* of a vertex `v` are the transit nodes settled by an upward CH
//!   search from `v` that stops expanding at transit nodes, together with their upward
//!   distances;
//! * all transit-to-transit distances are stored in a full table;
//! * a query takes the minimum of (a) the table estimate through the access nodes of
//!   both endpoints, and (b) a *local* CH search that never expands transit nodes.
//!
//! The combination (a)/(b) is exact: if the highest-ranked vertex on the contracted
//! shortest path is a transit node the table estimate is exact, otherwise the whole
//! path survives in the transit-node-free local search. The grid locality filter of the
//! original paper picks the nearby pairs that also run the full CH query (matching the
//! behaviour the paper observes: "CH is the technique used to answer local queries in
//! TNR").
//!
//! The index holds no hierarchy of its own: [`TransitNodeRouting::from_ch`] derives it
//! from the engine's one [`ContractionHierarchy`], and every query reads that same CH.

#![forbid(unsafe_code)]

use rnknn_ch::{ChSearchCounters, ChSearchSpace, ContractionHierarchy};
use rnknn_graph::{Graph, NodeId, Weight, INFINITY};

/// The shape of one derivation. Every engine build uses [`Shape::DEFAULT`]; a test
/// widens the transit set and coarsens the grid to reach more local pairs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shape {
    /// Number of transit nodes, expressed as a fraction of `|V|` (clamped to at least
    /// 16 vertices). The paper uses a 128×128 grid for selection; with CH-based
    /// selection the table size is controlled directly by this fraction.
    pub(crate) transit_fraction: f64,
    /// Side length of the locality-filter grid (`grid_cells × grid_cells`).
    pub(crate) grid_cells: usize,
    /// Pairs whose cells are within this Chebyshev distance are considered "local"
    /// and also run the full CH query.
    pub(crate) locality_radius: i32,
}

impl Shape {
    /// The shape of every engine build.
    pub(crate) const DEFAULT: Shape =
        Shape { transit_fraction: 0.01, grid_cells: 64, locality_radius: 3 };
}

/// The Transit Node Routing index over a contraction hierarchy it does not own.
#[derive(Debug, Clone)]
pub struct TransitNodeRouting {
    /// The lowest CH rank of a transit node: the transit nodes are the vertices ranked
    /// at or above it, and a transit node's table index is its rank minus this.
    first_transit_rank: u32,
    /// For every vertex: `(transit_table_index, upward_distance)` access node pairs.
    access_offsets: Vec<u32>,
    access_nodes: Vec<(u32, Weight)>,
    /// Full |T| × |T| distance table, row-major.
    table: Vec<Weight>,
    /// Grid cell of every vertex (for the locality filter).
    cell: Vec<(i32, i32)>,
    locality_radius: i32,
}

impl TransitNodeRouting {
    /// Derives the index from `ch`, the contraction hierarchy of `graph`. Queries
    /// must pass the same hierarchy.
    ///
    /// The derivation indexes by two invariants of `ch`, which a loaded hierarchy
    /// is checked for (`rnknn_ch::persist::load_ch`): its ranks are a permutation
    /// of `0..n`, so the transit nodes are exactly the top ranks and
    /// `rank − first_transit_rank` is a table index; and every upward edge rises in
    /// rank, so an upward search from a transit node settles only transit nodes.
    /// Its distances are exact only if `ch`'s are.
    pub fn from_ch(graph: &Graph, ch: &ContractionHierarchy) -> Self {
        Self::from_ch_with_shape(graph, ch, Shape::DEFAULT)
    }

    /// [`TransitNodeRouting::from_ch`] under an explicit shape.
    pub(crate) fn from_ch_with_shape(
        graph: &Graph,
        ch: &ContractionHierarchy,
        shape: Shape,
    ) -> Self {
        let n = graph.num_vertices();
        assert_eq!(ch.num_vertices(), n, "the hierarchy must cover every vertex of the graph");
        let num_transit = ((n as f64 * shape.transit_fraction).ceil() as usize).clamp(16.min(n), n);
        let first_transit_rank = (n - num_transit) as u32;
        let is_transit = transit_test(ch, first_transit_rank);
        let index = |v: NodeId| ch.rank(v) - first_transit_rank;
        let mut space = ChSearchSpace::new();

        // Access nodes: upward search stopping at transit nodes.
        let mut access_offsets = vec![0u32; n + 1];
        let mut access_nodes: Vec<(u32, Weight)> = Vec::new();
        for v in 0..n as NodeId {
            ch.upward_search_space_stopping_at_into(v, is_transit, &mut space);
            access_nodes.extend(
                space
                    .entries()
                    .iter()
                    .filter(|&&(x, _)| is_transit(x))
                    .map(|&(x, d)| (index(x), d)),
            );
            access_offsets[v as usize + 1] = access_nodes.len() as u32;
        }

        // Transit-to-transit table. An upward search from a transit node settles only
        // transit nodes (they hold the top ranks), so each node's whole upward space
        // is a short list of table indexes; a row is scattered once and met against
        // every later node's list.
        let mut up_offsets = vec![0usize; num_transit + 1];
        let mut up: Vec<(u32, Weight)> = Vec::new();
        let mut by_index = vec![0 as NodeId; num_transit];
        for v in graph.vertices().filter(|&v| is_transit(v)) {
            by_index[index(v) as usize] = v;
        }
        for (i, &v) in by_index.iter().enumerate() {
            ch.upward_search_space_stopping_at_into(v, |_| false, &mut space);
            up.extend(space.entries().iter().map(|&(x, d)| (index(x), d)));
            up_offsets[i + 1] = up.len();
        }
        let mut table = vec![INFINITY; num_transit * num_transit];
        let mut row = vec![INFINITY; num_transit];
        for a in 0..num_transit {
            let up_a = &up[up_offsets[a]..up_offsets[a + 1]];
            for &(x, d) in up_a {
                row[x as usize] = d;
            }
            table[a * num_transit + a] = 0;
            for b in (a + 1)..num_transit {
                let d = up[up_offsets[b]..up_offsets[b + 1]]
                    .iter()
                    .filter(|&&(x, _)| row[x as usize] != INFINITY)
                    .map(|&(x, d)| row[x as usize] + d)
                    .min()
                    .unwrap_or(INFINITY);
                table[a * num_transit + b] = d;
                table[b * num_transit + a] = d;
            }
            for &(x, _) in up_a {
                row[x as usize] = INFINITY;
            }
        }

        // Locality grid.
        let rect = graph.bounding_rect();
        let cells = shape.grid_cells.max(1) as f64;
        let width = rect.width().max(1e-9);
        let height = rect.height().max(1e-9);
        let cell: Vec<(i32, i32)> = graph
            .coords()
            .iter()
            .map(|p| {
                let cx = (((p.x - rect.min_x) / width) * cells).floor().min(cells - 1.0) as i32;
                let cy = (((p.y - rect.min_y) / height) * cells).floor().min(cells - 1.0) as i32;
                (cx, cy)
            })
            .collect();

        TransitNodeRouting {
            first_transit_rank,
            access_offsets,
            access_nodes,
            table,
            cell,
            locality_radius: shape.locality_radius,
        }
    }

    /// Number of transit nodes.
    pub fn num_transit_nodes(&self) -> usize {
        self.cell.len() - self.first_transit_rank as usize
    }

    /// Average number of access nodes per vertex.
    pub fn average_access_nodes(&self) -> f64 {
        self.access_nodes.len() as f64 / (self.access_offsets.len() - 1).max(1) as f64
    }

    /// Approximate resident size in bytes (the hierarchy it reads is not counted).
    pub fn memory_bytes(&self) -> usize {
        self.access_nodes.len() * (4 + std::mem::size_of::<Weight>())
            + self.access_offsets.len() * 4
            + self.table.len() * std::mem::size_of::<Weight>()
            + self.cell.len() * 8
    }

    fn access(&self, v: NodeId) -> &[(u32, Weight)] {
        let lo = self.access_offsets[v as usize] as usize;
        let hi = self.access_offsets[v as usize + 1] as usize;
        &self.access_nodes[lo..hi]
    }

    /// True when the locality filter classifies the pair as local (the full CH query
    /// runs beside the table).
    pub fn is_local(&self, s: NodeId, t: NodeId) -> bool {
        let (sx, sy) = self.cell[s as usize];
        let (tx, ty) = self.cell[t as usize];
        (sx - tx).abs().max((sy - ty).abs()) <= self.locality_radius
    }

    /// Exact network distance between `s` and `t` over `ch`, the hierarchy the index
    /// was derived from: [`TransitNodeRouting::begin_source`] and
    /// [`TransitNodeRouting::distance_from_source_with_counters`] on a fresh state.
    pub fn distance(&self, ch: &ContractionHierarchy, s: NodeId, t: NodeId) -> Weight {
        let mut state = TnrSourceState::new();
        self.begin_source(ch, s, &mut state);
        self.distance_from_source_with_counters(ch, &mut state, t).0
    }

    /// Prepares `state` for a sequence of distance queries from `s` (the IER-TNR hot
    /// path): materialises the source's stopped forward search space once, and folds
    /// the source side of the access-node table into a per-transit-node vector
    /// `through[b] = min_a (d(s, a) + table[a][b])`, so each candidate pays
    /// `O(|access(t)|)` for the table part. All buffers inside `state` are reused
    /// across calls; returns the search-effort counters of the forward space.
    pub fn begin_source(
        &self,
        ch: &ContractionHierarchy,
        s: NodeId,
        state: &mut TnrSourceState,
    ) -> ChSearchCounters {
        let counters = ch.upward_search_space_stopping_at_into(
            s,
            transit_test(ch, self.first_transit_rank),
            &mut state.space,
        );
        let t_count = self.num_transit_nodes();
        state.through.clear();
        state.through.resize(t_count, INFINITY);
        for &(a, da) in self.access(s) {
            let row = &self.table[a as usize * t_count..(a as usize + 1) * t_count];
            for (b, &through) in row.iter().enumerate() {
                if through != INFINITY && da + through < state.through[b] {
                    state.through[b] = da + through;
                }
            }
        }
        state.source = Some(s);
        counters
    }

    /// Exact network distance from the source prepared by
    /// [`TransitNodeRouting::begin_source`] to `t`, reusing every buffer in `state`:
    /// the minimum of the local search (the two stopped spaces' meet), the table
    /// estimate and, for local pairs, the full CH query.
    pub fn distance_from_source_with_counters(
        &self,
        ch: &ContractionHierarchy,
        state: &mut TnrSourceState,
        t: NodeId,
    ) -> (Weight, ChSearchCounters) {
        let s = state.source.expect("begin_source must be called before distance_from_source");
        let mut effort = ChSearchCounters::default();
        if s == t {
            return (0, effort);
        }
        effort.accumulate(ch.upward_search_space_stopping_at_into(
            t,
            transit_test(ch, self.first_transit_rank),
            &mut state.backward,
        ));
        let local = state.space.meet(&state.backward);
        let mut table = INFINITY;
        for &(b, db) in self.access(t) {
            let through = state.through[b as usize];
            if through != INFINITY && through + db < table {
                table = through + db;
            }
        }
        if self.is_local(s, t) {
            let (ch_distance, cc) = ch.distance_with_counters(s, t);
            effort.accumulate(cc);
            return (local.min(table).min(ch_distance), effort);
        }
        (local.min(table), effort)
    }
}

/// Whether a vertex is a transit node: ranked at or above `first_transit_rank` in `ch`.
fn transit_test(
    ch: &ContractionHierarchy,
    first_transit_rank: u32,
) -> impl Fn(NodeId) -> bool + Copy + '_ {
    move |v| ch.rank(v) >= first_transit_rank
}

/// Reusable per-source query state for [`TransitNodeRouting::begin_source`] /
/// [`TransitNodeRouting::distance_from_source_with_counters`]: the source's stopped
/// forward search space, the folded source side of the access-node table, and a
/// scratch buffer for the per-candidate backward searches. All buffers persist across
/// sources, so re-beginning from a new source allocates nothing in steady state.
#[derive(Debug, Default)]
pub struct TnrSourceState {
    source: Option<NodeId>,
    space: ChSearchSpace,
    through: Vec<Weight>,
    backward: ChSearchSpace,
}

impl TnrSourceState {
    /// Creates an empty state (no allocation until the first `begin_source`).
    pub fn new() -> Self {
        Self::default()
    }

    /// The source the state was last prepared for, if any.
    pub fn source(&self) -> Option<NodeId> {
        self.source
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::EdgeWeightKind;
    use rnknn_pathfinding::dijkstra;

    fn derive(graph: &Graph, shape: Shape) -> (ContractionHierarchy, TransitNodeRouting) {
        let ch = ContractionHierarchy::build(graph);
        let tnr = TransitNodeRouting::from_ch_with_shape(graph, &ch, shape);
        (ch, tnr)
    }

    #[test]
    fn source_state_reuse_matches_pairwise_distances() {
        // One state re-begun from several sources answers what a fresh state does,
        // and both are Dijkstra-exact.
        let net = RoadNetwork::generate(&GeneratorConfig::new(800, 27));
        for kind in [EdgeWeightKind::Distance, EdgeWeightKind::Time] {
            let g = net.graph(kind);
            let (ch, tnr) = derive(&g, Shape::DEFAULT);
            let n = g.num_vertices() as NodeId;
            let mut state = TnrSourceState::new();
            for s in [3u32, n / 2, n - 5] {
                let counters = tnr.begin_source(&ch, s, &mut state);
                assert!(counters.settled > 0);
                assert_eq!(state.source(), Some(s));
                for t in (0..n).step_by(43) {
                    let (got, _) = tnr.distance_from_source_with_counters(&ch, &mut state, t);
                    assert_eq!(got, tnr.distance(&ch, s, t), "{s}->{t} {kind:?}");
                    assert_eq!(got, dijkstra::distance(&g, s, t), "{s}->{t} {kind:?}");
                }
            }
        }
    }

    #[test]
    fn distances_match_dijkstra() {
        for kind in [EdgeWeightKind::Distance, EdgeWeightKind::Time] {
            let net = RoadNetwork::generate(&GeneratorConfig::new(900, 14));
            let g = net.graph(kind);
            let shape = Shape { transit_fraction: 0.02, grid_cells: 16, locality_radius: 2 };
            let (ch, tnr) = derive(&g, shape);
            let n = g.num_vertices() as NodeId;
            let (mut local, mut remote) = (0, 0);
            for i in 0..60u32 {
                let s = (i * 211) % n;
                let t = (i * 389 + 17) % n;
                let truth = dijkstra::distance(&g, s, t);
                assert_eq!(tnr.distance(&ch, s, t), truth, "{s}->{t} {kind:?}");
                *if tnr.is_local(s, t) { &mut local } else { &mut remote } += 1;
            }
            assert!(local > 0 && remote > 0, "{local} local, {remote} remote pairs");
        }
    }

    #[test]
    fn table_estimate_never_underestimates() {
        // Transit-to-transit cells are exact distances, so the estimate through any
        // two access nodes is an upper bound on the true distance.
        let net = RoadNetwork::generate(&GeneratorConfig::new(600, 3));
        let g = net.graph(EdgeWeightKind::Distance);
        let (ch, tnr) = derive(&g, Shape::DEFAULT);
        let t_count = tnr.num_transit_nodes();
        let transit: Vec<NodeId> =
            g.vertices().filter(|&v| ch.rank(v) >= tnr.first_transit_rank).collect();
        assert_eq!(transit.len(), t_count);
        for &a in transit.iter().step_by(5) {
            let truth = dijkstra::single_source(&g, a);
            for &b in &transit {
                let cell = tnr.table[(ch.rank(a) - tnr.first_transit_rank) as usize * t_count
                    + (ch.rank(b) - tnr.first_transit_rank) as usize];
                assert_eq!(cell, truth[b as usize], "table {a}->{b}");
            }
        }
        let n = g.num_vertices() as NodeId;
        for i in 0..40u32 {
            let s = (i * 61) % n;
            let t = (i * 149 + 29) % n;
            let estimate = tnr
                .access(s)
                .iter()
                .flat_map(|&(a, da)| {
                    let row = &tnr.table[a as usize * t_count..(a as usize + 1) * t_count];
                    tnr.access(t).iter().map(move |&(b, db)| da + row[b as usize] + db)
                })
                .min()
                .unwrap_or(INFINITY);
            let truth = dijkstra::distance(&g, s, t);
            assert!(estimate >= truth, "estimate {estimate} < true {truth}");
        }
    }

    #[test]
    fn index_statistics_are_sensible() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(500, 8));
        let g = net.graph(EdgeWeightKind::Distance);
        let (_, tnr) = derive(&g, Shape::DEFAULT);
        assert!(tnr.num_transit_nodes() >= 16);
        assert!(tnr.num_transit_nodes() < g.num_vertices());
        assert!(tnr.average_access_nodes() >= 1.0);
        assert!(tnr.memory_bytes() > tnr.table.len() * std::mem::size_of::<Weight>());
    }

    #[test]
    fn identical_endpoints_are_zero() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(200, 5));
        let g = net.graph(EdgeWeightKind::Distance);
        let (ch, tnr) = derive(&g, Shape::DEFAULT);
        assert_eq!(tnr.distance(&ch, 7, 7), 0);
    }
}
