//! The Rnet hierarchy and Route Overlay, derived from a built G-tree.

use rnknn_graph::{Graph, NodeId, Weight};
use rnknn_gtree::{widen, Cell, Gtree, CELL_INFINITY};
use rnknn_partition::hierarchy::{sparsify, Hierarchy};

/// Index of an Rnet within the hierarchy: the G-tree node it is.
pub type RnetIndex = u32;

/// CSR rows of `(target, weight)` entries, split into parallel arrays like the
/// adjacency lists of [`Graph`] so that an entry costs 12 bytes.
#[derive(Debug, Clone)]
struct Rows {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
    weights: Vec<Weight>,
}

impl Default for Rows {
    fn default() -> Self {
        Rows { offsets: vec![0], targets: Vec::new(), weights: Vec::new() }
    }
}

impl Rows {
    #[inline]
    fn row(&self, i: usize) -> impl ExactSizeIterator<Item = (NodeId, Weight)> + '_ {
        let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        self.targets[lo..hi].iter().copied().zip(self.weights[lo..hi].iter().copied())
    }

    fn push_row(&mut self, entries: impl Iterator<Item = (NodeId, Weight)>) {
        for (t, w) in entries {
            self.targets.push(t);
            self.weights.push(w);
        }
        self.offsets.push(u32::try_from(self.targets.len()).expect("row offsets fit in u32"));
    }

    fn memory_bytes(&self) -> usize {
        (self.offsets.len() + self.targets.len()) * 4
            + self.weights.len() * std::mem::size_of::<Weight>()
    }
}

/// The ROAD road-network index: Rnet hierarchy plus Route Overlay.
#[derive(Debug, Clone)]
pub struct RoadIndex {
    /// The Rnets: a copy of the G-tree's hierarchy, one Rnet per G-tree node, with
    /// its parent, borders and leaf range, and the leaf Rnet of every vertex.
    hierarchy: Hierarchy,
    /// The Route Overlay, one flat vertex-major CSR (Section 6.2: a single array with
    /// offsets). A row is the kept shortcuts of one (Rnet, border) followed by the
    /// border's graph edges that leave the Rnet: its complete out-list while that Rnet
    /// is bypassed.
    overlay: Rows,
    /// Rows `rows_of_vertex[v]..rows_of_vertex[v + 1]` of the overlay belong to `v`, one
    /// per Rnet it borders, top level first: a border of an Rnet is a border of every
    /// deeper Rnet containing it, so they are the last Rnets of [`RoadIndex::chain_of`].
    rows_of_vertex: Vec<u32>,
    /// Per-Rnet containment chains (root's child down to the Rnet itself),
    /// CSR-packed so [`RoadIndex::chain_of`] is an allocation-free slice lookup on
    /// the query hot path.
    chain_entries: Vec<RnetIndex>,
    chain_offsets: Vec<u32>,
}

impl RoadIndex {
    /// Derives the index from `gtree`, built over `graph`: the Rnets are the G-tree's
    /// nodes, and an Rnet's shortcuts are its border × border block of the node's
    /// matrix — global network distances, thinned by [`sparsify`].
    pub fn from_gtree(graph: &Graph, gtree: &Gtree) -> RoadIndex {
        let hierarchy = gtree.hierarchy().clone();
        let kept: Vec<KeptShortcuts> =
            (0..hierarchy.num_parts() as RnetIndex).map(|i| border_shortcuts(gtree, i)).collect();
        let (overlay, rows_of_vertex) = pack_overlay(graph, &hierarchy, &kept);
        // CSR-pack every Rnet's containment chain (top-down, root omitted) so the
        // kNN search reads it as a slice instead of rebuilding a Vec per vertex: an
        // Rnet's chain is its parent's — packed already, parts being in preorder —
        // and then itself.
        let mut chain_offsets = vec![0u32];
        let mut chain_entries: Vec<RnetIndex> = Vec::new();
        for i in 0..hierarchy.num_parts() as RnetIndex {
            if let Some(p) = hierarchy.parent(i).filter(|&p| p != 0) {
                let above =
                    chain_offsets[p as usize] as usize..chain_offsets[p as usize + 1] as usize;
                chain_entries.extend_from_within(above);
            }
            chain_entries.push(i);
            chain_offsets.push(chain_entries.len() as u32);
        }
        RoadIndex { hierarchy, overlay, rows_of_vertex, chain_entries, chain_offsets }
    }

    /// The Rnet hierarchy: every Rnet's parent, children, level, borders (sorted by
    /// vertex id) and leaf range.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Index of the root Rnet (the whole network).
    pub fn root(&self) -> RnetIndex {
        0
    }

    /// Number of Rnets in the hierarchy.
    pub fn num_rnets(&self) -> usize {
        self.hierarchy.num_parts()
    }

    /// The leaf Rnet containing vertex `v`.
    pub fn leaf_of(&self, v: NodeId) -> RnetIndex {
        self.hierarchy.leaf_of(v)
    }

    /// The chain of Rnets containing `v`, from the root's children down to its leaf
    /// Rnet (the root itself is omitted since it can never be bypassed). Served from
    /// the precomputed CSR chains — no allocation on the query hot path.
    pub fn chain_of(&self, v: NodeId) -> &[RnetIndex] {
        let leaf = self.leaf_of(v) as usize;
        let lo = self.chain_offsets[leaf] as usize;
        let hi = self.chain_offsets[leaf + 1] as usize;
        &self.chain_entries[lo..hi]
    }

    /// True when `v` lies inside Rnet `r`.
    fn contains(&self, r: RnetIndex, v: NodeId) -> bool {
        !self.hierarchy.outside(self.hierarchy.leaf_range(r), v)
    }

    /// True when `v` is a border of Rnet `r`.
    pub fn is_border_of(&self, r: RnetIndex, v: NodeId) -> bool {
        self.hierarchy.borders(r).binary_search(&v).is_ok()
    }

    /// The Rnets of which `v` is a border, top level first, and the overlay row of the
    /// first of them; the following Rnets own the following rows.
    #[inline]
    pub(crate) fn border_rows(&self, v: NodeId) -> (&[RnetIndex], usize) {
        let first = self.rows_of_vertex[v as usize] as usize;
        let count = self.rows_of_vertex[v as usize + 1] as usize - first;
        if count == 0 {
            return (&[], first);
        }
        let chain = self.chain_of(v);
        (&chain[chain.len() - count..], first)
    }

    /// Overlay row `row`: everything a border relaxes while its Rnet is bypassed — the
    /// kept shortcuts, then the border's graph edges that leave the Rnet.
    #[inline]
    pub(crate) fn overlay_row(
        &self,
        row: usize,
    ) -> impl ExactSizeIterator<Item = (NodeId, Weight)> + '_ {
        self.overlay.row(row)
    }

    /// Vertices of Rnet `r` that are not its borders.
    #[inline]
    pub(crate) fn interior_vertices(&self, r: RnetIndex) -> usize {
        self.hierarchy.num_vertices(r) as usize - self.hierarchy.borders(r).len()
    }

    /// The kept shortcuts from border `v` of Rnet `r`: pairs of (other border,
    /// network distance). A shortcut is stored only when no third border of `r`
    /// splits it into two shorter ones, so every border of `r` is still reached at its
    /// network distance, possibly over several shortcuts.
    /// Returns `None` when `v` is not a border of `r`.
    pub fn shortcuts_from(
        &self,
        r: RnetIndex,
        v: NodeId,
    ) -> Option<impl Iterator<Item = (NodeId, Weight)> + '_> {
        let (rnets, first_row) = self.border_rows(v);
        let row = first_row + rnets.iter().position(|&x| x == r)?;
        // The row's leaving edges end outside `r`, its shortcuts at borders of `r`.
        Some(self.overlay.row(row).filter(move |&(t, _)| self.contains(r, t)))
    }

    /// Total number of Route Overlay entries stored (kept shortcuts plus leaving edges).
    pub fn num_shortcut_entries(&self) -> usize {
        self.overlay.targets.len()
    }

    /// Resident size in bytes of everything the index holds (Figure 8(a)), its copy
    /// of the G-tree's hierarchy included. The overlay dominates; with
    /// triangle-sparsified rows it is smaller than the G-tree's matrices even though
    /// border lists repeat across levels.
    pub fn memory_bytes(&self) -> usize {
        let words = self.rows_of_vertex.len() + self.chain_entries.len() + self.chain_offsets.len();
        words * 4 + self.overlay.memory_bytes() + self.hierarchy.memory_bytes()
    }
}

/// The kept shortcuts of one Rnet as [`sparsify`] yields them: `(a, b, cell)` over
/// positions in the Rnet's border list, row by row.
type KeptShortcuts = Vec<(u32, u32, Cell)>;

/// The kept shortcuts of Rnet `i`: the border × border block of G-tree node `i`'s
/// matrix (borders × vertices at a leaf, child borders × child borders otherwise;
/// `border_positions` places the node's own borders among them). Refined G-tree
/// cells are global distances, so the block is symmetric and [`sparsify`] applies
/// as is.
fn border_shortcuts(gtree: &Gtree, i: RnetIndex) -> KeptShortcuts {
    let (matrix, positions) = (gtree.matrix(i), gtree.border_positions(i));
    let leaf = gtree.hierarchy().is_leaf(i);
    let mut block = Vec::with_capacity(positions.len() * positions.len());
    for (a, &from) in positions.iter().enumerate() {
        let row = matrix.row(if leaf { a } else { from as usize });
        block.extend(positions.iter().map(|&to| row[to as usize]));
    }
    sparsify(&block, positions.len(), CELL_INFINITY)
}

/// Re-packs the kept shortcuts vertex-major, top level first, each row closed by its
/// vertex's graph edges that leave the Rnet: the overlay and its `rows_of_vertex`
/// as documented on [`RoadIndex`].
fn pack_overlay(graph: &Graph, h: &Hierarchy, kept: &[KeptShortcuts]) -> (Rows, Vec<u32>) {
    let mut overlay = Rows::default();
    let mut rows_of_vertex = Vec::with_capacity(graph.num_vertices() + 1);
    let mut bordered: Vec<(RnetIndex, u32)> = Vec::new();
    for v in graph.vertices() {
        rows_of_vertex.push(overlay.offsets.len() as u32 - 1);
        // Leaf upwards: the Rnets `v` borders and its position in their border lists.
        bordered.clear();
        let mut r = h.leaf_of(v);
        while let Ok(pos) = h.borders(r).binary_search(&v) {
            bordered.push((r, pos as u32));
            r = h.parent(r).expect("the root has no borders");
        }
        for &(r, pos) in bordered.iter().rev() {
            let (borders, kept) = (h.borders(r), &kept[r as usize]);
            let row = &kept[kept.partition_point(|&(a, _, _)| a < pos)..];
            let shortcuts = row.iter().take_while(|&&(a, _, _)| a == pos);
            let shortcuts = shortcuts.map(|&(_, b, d)| (borders[b as usize], widen(d)));
            let leaving = graph.neighbors(v).filter(|&(t, _)| h.outside(h.leaf_range(r), t));
            overlay.push_row(shortcuts.chain(leaving));
        }
    }
    rows_of_vertex.push(overlay.offsets.len() as u32 - 1);
    (overlay, rows_of_vertex)
}

/// A G-tree with leaves of at most `leaf_capacity` vertices and the ROAD index
/// derived from it: the small-network shape the crate's tests search on (the
/// G-tree is what their object indexes are built over).
#[cfg(test)]
pub(crate) fn derive_for_tests(graph: &Graph, leaf_capacity: usize) -> (Gtree, RoadIndex) {
    let config = rnknn_gtree::GtreeConfig { leaf_capacity, ..Default::default() };
    let gtree = Gtree::build_with_config(graph, config);
    let road = RoadIndex::from_gtree(graph, &gtree);
    (gtree, road)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::testgraphs::{unit_grids, zero_weight_grid};
    use rnknn_graph::{EdgeWeightKind, INFINITY};
    use rnknn_pathfinding::dijkstra::{self, LocalGraph};

    fn build(n: usize, seed: u64) -> (Graph, RoadIndex) {
        let net = RoadNetwork::generate(&GeneratorConfig::new(n, seed));
        let g = net.graph(EdgeWeightKind::Distance);
        let (_, idx) = derive_for_tests(&g, 16);
        (g, idx)
    }

    #[test]
    fn hierarchy_structure_is_consistent() {
        let (g, idx) = build(800, 5);
        assert!(idx.num_rnets() > 4);
        let h = idx.hierarchy();
        assert_eq!(h.num_vertices(idx.root()) as usize, g.num_vertices());
        assert!(h.borders(idx.root()).is_empty());
        for v in g.vertices() {
            let chain = idx.chain_of(v);
            assert!(!chain.is_empty());
            // The chain ends at the leaf Rnet of v and each element is the parent of
            // the next.
            assert_eq!(*chain.last().unwrap(), idx.leaf_of(v));
            for w in chain.windows(2) {
                assert_eq!(h.parent(w[1]), Some(w[0]));
            }
        }
    }

    #[test]
    fn borders_have_edges_leaving_their_rnet() {
        let (g, idx) = build(600, 9);
        for ri in 1..idx.num_rnets() as RnetIndex {
            for &b in idx.hierarchy().borders(ri) {
                let outside = g.neighbor_ids(b).iter().any(|&t| !idx.contains(ri, t));
                assert!(outside, "border {b} of rnet {ri} has no outside edge");
                assert!(idx.is_border_of(ri, b));
            }
        }
    }

    #[test]
    fn shortcuts_never_underestimate_and_are_achievable() {
        let (g, idx) = build(500, 3);
        for ri in 1..idx.num_rnets() as RnetIndex {
            for &b in idx.hierarchy().borders(ri).iter().take(3) {
                for (other, d) in idx.shortcuts_from(ri, b).unwrap() {
                    assert_eq!(d, dijkstra::distance(&g, b, other), "shortcut {b}->{other}");
                }
            }
        }
    }

    #[test]
    fn overlay_rows_are_consistent_with_border_lists() {
        let (g, idx) = build(400, 7);
        for v in g.vertices() {
            // The Rnets v borders are exactly the tail of its chain that has rows.
            let chain = idx.chain_of(v);
            let (bordered, first_row) = idx.border_rows(v);
            let (above, tail) = chain.split_at(chain.len() - bordered.len());
            assert_eq!(tail, bordered);
            for &r in above {
                assert!(!idx.is_border_of(r, v));
                assert!(idx.shortcuts_from(r, v).is_none());
            }
            // A row is the kept shortcuts (to borders of the Rnet), then v's leaving edges.
            for (j, &r) in bordered.iter().enumerate() {
                assert!(idx.is_border_of(r, v));
                let mut want: Vec<(NodeId, Weight)> = idx.shortcuts_from(r, v).unwrap().collect();
                assert!(want
                    .iter()
                    .all(|&(b, d)| b != v && idx.is_border_of(r, b) && d < INFINITY));
                want.extend(g.neighbors(v).filter(|&(t, _)| !idx.contains(r, t)));
                let row: Vec<(NodeId, Weight)> = idx.overlay_row(first_row + j).collect();
                assert_eq!(row, want, "row of {v} in rnet {r}");
            }
        }
    }

    /// Border-to-border distances of Rnet `r` over `edges(v)`, `INFINITY` when apart.
    /// `edges` is asked only about vertices it leads to from a border.
    fn border_distances(
        g: &Graph,
        idx: &RoadIndex,
        r: RnetIndex,
        mut edges: impl FnMut(NodeId, &mut Vec<(NodeId, Weight)>),
    ) -> Vec<Weight> {
        let borders = idx.hierarchy().borders(r);
        let mut reached = vec![false; g.num_vertices()];
        borders.iter().for_each(|&b| reached[b as usize] = true);
        let (mut pending, mut out, mut list) = (borders.to_vec(), Vec::new(), Vec::new());
        while let Some(v) = pending.pop() {
            out.clear();
            edges(v, &mut out);
            for &(t, w) in &out {
                list.push((v, t, w));
                if !std::mem::replace(&mut reached[t as usize], true) {
                    pending.push(t);
                }
            }
        }
        let local = LocalGraph::from_edges(g.num_vertices(), &list);
        let mut all = Vec::with_capacity(borders.len() * borders.len());
        for &a in borders {
            let dist = local.sssp(a);
            all.extend(borders.iter().map(|&b| dist[b as usize]));
        }
        all
    }

    /// Ordered pairs of distinct borders, summed over all Rnets of one index.
    #[derive(Debug, Default)]
    struct BorderPairs {
        /// Pairs joined by a stored shortcut.
        kept: usize,
        /// Pairs connected in the network (what a dense clique would store).
        connected: usize,
        /// Connected pairs at distance zero.
        at_zero: usize,
        /// Pairs with no path between them.
        apart: usize,
    }

    /// The triangle rule may drop a shortcut only if the kept ones still carry its
    /// distance: per Rnet, Dijkstra over the kept rows (borders only) must equal
    /// Dijkstra over the whole network.
    fn check_kept_shortcuts(g: &Graph) -> BorderPairs {
        let (_, idx) = derive_for_tests(g, 16);
        let mut pairs = BorderPairs::default();
        for r in (0..idx.num_rnets() as RnetIndex).filter(|&r| r != idx.root()) {
            let borders = idx.hierarchy().borders(r);
            let global = border_distances(g, &idx, r, |v, out| out.extend(g.neighbors(v)));
            let over_kept = border_distances(g, &idx, r, |v, out| {
                out.extend(idx.shortcuts_from(r, v).expect("shortcuts lead to borders of r"));
            });
            if let Some(i) = (0..global.len()).find(|&i| over_kept[i] != global[i]) {
                let (a, b) = (borders[i / borders.len()], borders[i % borders.len()]);
                let (kept, network) = (over_kept[i], global[i]);
                panic!("rnet {r}: {a} -> {b} is {kept} over kept rows, {network} in the network");
            }
            pairs.kept +=
                borders.iter().map(|&b| idx.shortcuts_from(r, b).unwrap().count()).sum::<usize>();
            pairs.apart += global.iter().filter(|&&d| d == INFINITY).count();
            pairs.at_zero += global.iter().filter(|&&d| d == 0).count() - borders.len();
            pairs.connected += global.iter().filter(|&&d| d < INFINITY).count() - borders.len();
        }
        pairs
    }

    #[test]
    fn kept_shortcuts_preserve_every_border_pair_distance() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(900, 12));
        let generated = check_kept_shortcuts(&net.graph(EdgeWeightKind::Distance));
        assert!(generated.kept * 2 < generated.connected, "{generated:?}");
        // Unit weights: nearly every pair has an equal-length cover through a third border.
        let ties = check_kept_shortcuts(&unit_grids(24, 1));
        assert!(ties.kept * 3 < ties.connected, "{ties:?}");
        // Zero-weight edges: a zero leg must not justify a drop (two borders at
        // distance zero would otherwise each drop the other's shortcuts).
        let zeros = check_kept_shortcuts(&zero_weight_grid(24));
        assert!(zeros.at_zero > 0 && zeros.kept < zeros.connected, "{zeros:?}");
        // Several components: unreachable pairs are not stored and stay unreachable.
        let split = check_kept_shortcuts(&unit_grids(9, 5));
        assert!(split.apart > 0 && split.kept < split.connected, "{split:?}");
    }

    /// The Rnets are the G-tree's nodes, on the G-tree's own hierarchy.
    #[test]
    fn rnets_are_the_gtree_nodes() {
        let g =
            RoadNetwork::generate(&GeneratorConfig::new(300, 1)).graph(EdgeWeightKind::Distance);
        let gtree = Gtree::build_with_config(
            &g,
            rnknn_gtree::GtreeConfig { leaf_capacity: 32, ..Default::default() },
        );
        let idx = RoadIndex::from_gtree(&g, &gtree);
        assert_eq!(idx.num_rnets(), gtree.num_nodes());
        assert_eq!(idx.hierarchy(), gtree.hierarchy());
        assert!(idx.num_shortcut_entries() > 0);
        assert!(idx.memory_bytes() > gtree.hierarchy().memory_bytes());
    }
}
