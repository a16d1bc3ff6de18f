//! The Rnet hierarchy and Route Overlay.

use rnknn_graph::{Graph, NodeId, Weight, INFINITY};
use rnknn_partition::Partitioner;
use rnknn_pathfinding::dijkstra;

use std::collections::HashMap;

/// Index of an Rnet within the hierarchy.
pub type RnetIndex = u32;

/// Configuration of the ROAD index.
#[derive(Debug, Clone)]
pub struct RoadConfig {
    /// Fanout `f ≥ 2` of the Rnet hierarchy (the paper uses 4).
    pub fanout: usize,
    /// Number of hierarchy levels `l > 1` below the root (the paper uses 7–11 depending
    /// on network size). Partitioning stops early for Rnets that become too small.
    pub levels: usize,
    /// Rnets with at most this many vertices are not partitioned further even if the
    /// level budget is not exhausted.
    pub min_rnet_vertices: usize,
}

impl Default for RoadConfig {
    fn default() -> Self {
        RoadConfig { fanout: 4, levels: 6, min_rnet_vertices: 32 }
    }
}

impl RoadConfig {
    /// A configuration mirroring the paper's rule of increasing `l` with network size
    /// until leaf Rnets become too small.
    pub fn for_network(num_vertices: usize) -> Self {
        let fanout = 4usize;
        let mut levels = 2usize;
        let mut leaf = num_vertices as f64;
        while leaf / fanout as f64 >= 48.0 && levels < 12 {
            leaf /= fanout as f64;
            levels += 1;
        }
        RoadConfig { fanout, levels, min_rnet_vertices: 32 }
    }
}

/// One Rnet in the hierarchy.
#[derive(Debug, Clone)]
pub struct Rnet {
    /// Parent Rnet (`None` for the root, which is the whole network).
    pub parent: Option<RnetIndex>,
    /// Child Rnets (empty for leaf Rnets).
    pub children: Vec<RnetIndex>,
    /// Hierarchy level (root = 0).
    pub level: u32,
    /// Number of road-network vertices contained in this Rnet.
    pub num_vertices: u32,
    /// Border vertices of this Rnet, sorted by vertex id.
    pub borders: Vec<NodeId>,
    /// Range of leaf-Rnet DFS indexes covered (for `O(1)` containment tests).
    pub leaf_range: (u32, u32),
}

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
    rnets: Vec<Rnet>,
    root: RnetIndex,
    /// Leaf Rnet of every vertex.
    leaf_of_vertex: Vec<RnetIndex>,
    /// The Route Overlay, one flat vertex-major CSR (Section 6.2: a single array with
    /// offsets). A row is the kept shortcuts of one (Rnet, border) followed by the
    /// border's graph edges that leave the Rnet: its complete out-list while that Rnet
    /// is bypassed.
    overlay: Rows,
    /// Rows `rows_of_vertex[v]..rows_of_vertex[v + 1]` of the overlay belong to `v`, one
    /// per Rnet it borders, top level first: a border of an Rnet is a border of every
    /// deeper Rnet containing it, so they are the last Rnets of [`RoadIndex::chain_of`].
    rows_of_vertex: Vec<u32>,
    /// Per Rnet, the vertices that are not its borders (what a bypass skips).
    interior_vertices: Vec<u32>,
    /// Per-Rnet containment chains (root's child down to the Rnet itself),
    /// CSR-packed so [`RoadIndex::chain_of`] is an allocation-free slice lookup on
    /// the query hot path.
    chain_entries: Vec<RnetIndex>,
    chain_offsets: Vec<u32>,
    config: RoadConfig,
}

impl RoadIndex {
    /// Builds the index with a size-appropriate configuration.
    pub fn build(graph: &Graph) -> RoadIndex {
        Self::build_with_config(graph, RoadConfig::for_network(graph.num_vertices()))
    }

    /// Builds the index with an explicit configuration.
    pub fn build_with_config(graph: &Graph, config: RoadConfig) -> RoadIndex {
        assert!(config.fanout >= 2, "fanout must be at least 2");
        assert!(config.levels >= 1, "at least one level of partitioning is required");
        let mut builder = Builder {
            graph,
            config: config.clone(),
            partitioner: Partitioner::new(),
            rnets: Vec::new(),
            leaf_of_vertex: vec![0; graph.num_vertices()],
            next_leaf: 0,
        };
        let all: Vec<NodeId> = graph.vertices().collect();
        let root = builder.build_rnet(None, all, 0);
        builder.compute_borders();
        let kept = builder.compute_shortcuts();
        let (overlay, rows_of_vertex) = builder.pack_overlay(&kept);
        // CSR-pack every Rnet's containment chain (top-down, root omitted) so the
        // kNN search reads it as a slice instead of rebuilding a Vec per vertex.
        let num_rnets = builder.rnets.len();
        let mut chain_offsets = vec![0u32; num_rnets + 1];
        let mut chain_entries: Vec<RnetIndex> = Vec::new();
        for i in 0..num_rnets {
            let start = chain_entries.len();
            let mut cur = i as RnetIndex;
            loop {
                chain_entries.push(cur);
                match builder.rnets[cur as usize].parent {
                    Some(p) if p != root => cur = p,
                    _ => break,
                }
            }
            chain_entries[start..].reverse();
            chain_offsets[i + 1] = chain_entries.len() as u32;
        }
        let interior_vertices =
            builder.rnets.iter().map(|r| r.num_vertices - r.borders.len() as u32).collect();
        RoadIndex {
            interior_vertices,
            rnets: builder.rnets,
            root,
            leaf_of_vertex: builder.leaf_of_vertex,
            overlay,
            rows_of_vertex,
            chain_entries,
            chain_offsets,
            config,
        }
    }

    /// The configuration used to build the index.
    pub fn config(&self) -> &RoadConfig {
        &self.config
    }

    /// All Rnets.
    pub fn rnets(&self) -> &[Rnet] {
        &self.rnets
    }

    /// A single Rnet.
    pub fn rnet(&self, i: RnetIndex) -> &Rnet {
        &self.rnets[i as usize]
    }

    /// Index of the root Rnet (the whole network).
    pub fn root(&self) -> RnetIndex {
        self.root
    }

    /// Number of Rnets in the hierarchy.
    pub fn num_rnets(&self) -> usize {
        self.rnets.len()
    }

    /// The leaf Rnet containing vertex `v`.
    pub fn leaf_of(&self, v: NodeId) -> RnetIndex {
        self.leaf_of_vertex[v as usize]
    }

    /// The chain of Rnets containing `v`, from the root's children down to its leaf
    /// Rnet (the root itself is omitted since it can never be bypassed). Served from
    /// the precomputed CSR chains — no allocation on the query hot path.
    pub fn chain_of(&self, v: NodeId) -> &[RnetIndex] {
        let leaf = self.leaf_of_vertex[v as usize] as usize;
        let lo = self.chain_offsets[leaf] as usize;
        let hi = self.chain_offsets[leaf + 1] as usize;
        &self.chain_entries[lo..hi]
    }

    /// True when `v` lies inside Rnet `r`.
    fn contains(&self, r: RnetIndex, v: NodeId) -> bool {
        let range = self.rnets[r as usize].leaf_range;
        let leaf = self.rnets[self.leaf_of_vertex[v as usize] as usize].leaf_range.0;
        range.0 <= leaf && leaf < range.1
    }

    /// True when `v` is a border of Rnet `r`.
    pub fn is_border_of(&self, r: RnetIndex, v: NodeId) -> bool {
        self.rnets[r as usize].borders.binary_search(&v).is_ok()
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
        self.interior_vertices[r as usize] as usize
    }

    /// The kept shortcuts from border `v` of Rnet `r`: pairs of (other border,
    /// restricted network distance). A shortcut is stored only when no third border
    /// splits it into two shorter ones, so every border of `r` is still reached at its
    /// restricted distance, possibly over several shortcuts.
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

    /// Resident size in bytes of everything the index holds (Figure 8(a)). The
    /// overlay dominates; with triangle-sparsified rows it is smaller than the
    /// G-tree's matrices even though border lists repeat across levels.
    pub fn memory_bytes(&self) -> usize {
        let words = self.leaf_of_vertex.len()
            + self.rows_of_vertex.len()
            + self.interior_vertices.len()
            + self.chain_entries.len()
            + self.chain_offsets.len();
        let mut bytes = words * 4 + self.overlay.memory_bytes();
        for r in &self.rnets {
            bytes += std::mem::size_of::<Rnet>() + r.children.len() * 4 + r.borders.len() * 4;
        }
        bytes
    }
}

struct Builder<'a> {
    graph: &'a Graph,
    config: RoadConfig,
    partitioner: Partitioner,
    rnets: Vec<Rnet>,
    leaf_of_vertex: Vec<RnetIndex>,
    next_leaf: u32,
}

impl<'a> Builder<'a> {
    fn build_rnet(
        &mut self,
        parent: Option<RnetIndex>,
        vertices: Vec<NodeId>,
        level: u32,
    ) -> RnetIndex {
        let index = self.rnets.len() as RnetIndex;
        self.rnets.push(Rnet {
            parent,
            children: Vec::new(),
            level,
            num_vertices: vertices.len() as u32,
            borders: Vec::new(),
            leaf_range: (0, 0),
        });
        let is_leaf =
            level as usize >= self.config.levels || vertices.len() <= self.config.min_rnet_vertices;
        if is_leaf {
            let leaf = self.next_leaf;
            self.next_leaf += 1;
            for &v in &vertices {
                self.leaf_of_vertex[v as usize] = index;
            }
            self.rnets[index as usize].leaf_range = (leaf, leaf + 1);
            // Leaf Rnets keep their vertex list only transiently (during shortcut
            // computation) via `leaf_of_vertex`; nothing else to store.
            return index;
        }
        let assignment = self.partitioner.partition(self.graph, &vertices, self.config.fanout);
        let mut parts: Vec<Vec<NodeId>> = vec![Vec::new(); self.config.fanout];
        for (i, &v) in vertices.iter().enumerate() {
            parts[assignment[i] as usize].push(v);
        }
        let non_empty = parts.iter().filter(|p| !p.is_empty()).count();
        if non_empty <= 1 {
            parts.iter_mut().for_each(|p| p.clear());
            for (i, &v) in vertices.iter().enumerate() {
                parts[i % self.config.fanout].push(v);
            }
        }
        let lo = self.next_leaf;
        let mut children = Vec::new();
        for part in parts.into_iter().filter(|p| !p.is_empty()) {
            children.push(self.build_rnet(Some(index), part, level + 1));
        }
        let hi = self.next_leaf;
        self.rnets[index as usize].children = children;
        self.rnets[index as usize].leaf_range = (lo, hi);
        index
    }

    /// True when vertex `t` lies outside the Rnet covering the leaf range `range`.
    fn outside(&self, range: (u32, u32), t: NodeId) -> bool {
        let leaf = self.rnets[self.leaf_of_vertex[t as usize] as usize].leaf_range.0;
        leaf < range.0 || leaf >= range.1
    }

    fn compute_borders(&mut self) {
        let mut borders: Vec<Vec<NodeId>> = vec![Vec::new(); self.rnets.len()];
        for v in self.graph.vertices() {
            let mut r = self.leaf_of_vertex[v as usize];
            loop {
                let range = self.rnets[r as usize].leaf_range;
                let is_border = self.graph.neighbor_ids(v).iter().any(|&t| self.outside(range, t));
                if !is_border {
                    break;
                }
                borders[r as usize].push(v);
                match self.rnets[r as usize].parent {
                    Some(p) => r = p,
                    None => break,
                }
            }
        }
        for (i, mut b) in borders.into_iter().enumerate() {
            b.sort_unstable();
            b.dedup();
            self.rnets[i].borders = b;
        }
    }

    /// Bottom-up shortcut computation: every Rnet's kept shortcut rows, one per border in
    /// border-list order. An Rnet's dense border matrix lives only until it is
    /// sparsified; its parent composes from the kept rows, which carry the same distances.
    fn compute_shortcuts(&self) -> Vec<Rows> {
        let n_rnets = self.rnets.len();
        let mut order: Vec<usize> = (0..n_rnets).collect();
        order.sort_unstable_by_key(|&i| std::cmp::Reverse(self.rnets[i].level));

        // Vertex lists per leaf Rnet (for restricted Dijkstra).
        let mut leaf_vertices: Vec<Vec<NodeId>> = vec![Vec::new(); n_rnets];
        for v in self.graph.vertices() {
            leaf_vertices[self.leaf_of_vertex[v as usize] as usize].push(v);
        }

        let mut kept = vec![Rows::default(); n_rnets];
        for &i in &order {
            let borders = &self.rnets[i].borders;
            if borders.is_empty() {
                continue;
            }
            let matrix = if self.rnets[i].children.is_empty() {
                self.leaf_shortcut_matrix(&leaf_vertices[i], borders)
            } else {
                self.internal_shortcut_matrix(i, borders, &kept)
            };
            kept[i] = sparsify(borders, &matrix);
        }
        kept
    }

    /// Re-packs the kept rows vertex-major, top level first, each row closed by its
    /// vertex's graph edges that leave the Rnet: the overlay and its `rows_of_vertex`
    /// as documented on [`RoadIndex`].
    fn pack_overlay(&self, kept: &[Rows]) -> (Rows, Vec<u32>) {
        let mut overlay = Rows::default();
        let mut rows_of_vertex = Vec::with_capacity(self.graph.num_vertices() + 1);
        let mut bordered: Vec<(usize, usize)> = Vec::new();
        for v in self.graph.vertices() {
            rows_of_vertex.push(overlay.offsets.len() as u32 - 1);
            // Leaf upwards: the Rnets `v` borders and its position in their border lists.
            bordered.clear();
            let mut r = self.leaf_of_vertex[v as usize] as usize;
            while let Ok(pos) = self.rnets[r].borders.binary_search(&v) {
                bordered.push((r, pos));
                r = self.rnets[r].parent.expect("the root has no borders") as usize;
            }
            for &(r, pos) in bordered.iter().rev() {
                let range = self.rnets[r].leaf_range;
                let leaving = self.graph.neighbors(v).filter(|&(t, _)| self.outside(range, t));
                overlay.push_row(kept[r].row(pos).chain(leaving));
            }
        }
        rows_of_vertex.push(overlay.offsets.len() as u32 - 1);
        (overlay, rows_of_vertex)
    }

    /// Border-to-border distances within a leaf Rnet (Dijkstra on the induced subgraph).
    fn leaf_shortcut_matrix(&self, vertices: &[NodeId], borders: &[NodeId]) -> Vec<Weight> {
        let nb = borders.len();
        let mut local_of: HashMap<NodeId, u32> = HashMap::with_capacity(vertices.len());
        for (pos, &v) in vertices.iter().enumerate() {
            local_of.insert(v, pos as u32);
        }
        let mut adjacency: Vec<Vec<(u32, Weight)>> = vec![Vec::new(); vertices.len()];
        for (pos, &v) in vertices.iter().enumerate() {
            for (t, w) in self.graph.neighbors(v) {
                if let Some(&lt) = local_of.get(&t) {
                    adjacency[pos].push((lt, w));
                }
            }
        }
        let mut matrix = vec![INFINITY; nb * nb];
        for (row, &b) in borders.iter().enumerate() {
            let dist = dijkstra::dijkstra_adjacency(vertices.len(), local_of[&b], |v, out| {
                out.extend_from_slice(&adjacency[v as usize]);
            });
            for (col, &b2) in borders.iter().enumerate() {
                matrix[row * nb + col] = dist[local_of[&b2] as usize];
            }
        }
        matrix
    }

    /// Border-to-border distances within an internal Rnet, computed on the reduced graph
    /// of child borders (children's kept shortcuts + cross edges inside this Rnet).
    fn internal_shortcut_matrix(&self, i: usize, borders: &[NodeId], kept: &[Rows]) -> Vec<Weight> {
        let rnet = &self.rnets[i];
        let mut child_borders: Vec<NodeId> = Vec::new();
        for &c in &rnet.children {
            child_borders.extend_from_slice(&self.rnets[c as usize].borders);
        }
        child_borders.sort_unstable();
        child_borders.dedup();
        let mut local_of: HashMap<NodeId, u32> = HashMap::with_capacity(child_borders.len());
        for (pos, &v) in child_borders.iter().enumerate() {
            local_of.insert(v, pos as u32);
        }
        let n_local = child_borders.len();
        let mut adjacency: Vec<Vec<(u32, Weight)>> = vec![Vec::new(); n_local];
        // Child shortcuts (kept symmetrically, so each row adds its own direction).
        for &c in &rnet.children {
            for (row, &b) in self.rnets[c as usize].borders.iter().enumerate() {
                let out = &mut adjacency[local_of[&b] as usize];
                out.extend(kept[c as usize].row(row).map(|(t, d)| (local_of[&t], d)));
            }
        }
        // Cross edges between different children, inside this Rnet.
        for (pos, &v) in child_borders.iter().enumerate() {
            for (t, w) in self.graph.neighbors(v) {
                if self.outside(rnet.leaf_range, t) {
                    continue;
                }
                if let Some(&lt) = local_of.get(&t) {
                    adjacency[pos].push((lt, w));
                }
            }
        }
        let nb = borders.len();
        let mut matrix = vec![INFINITY; nb * nb];
        for (row, &b) in borders.iter().enumerate() {
            let dist = dijkstra::dijkstra_adjacency(n_local, local_of[&b], |v, out| {
                out.extend_from_slice(&adjacency[v as usize]);
            });
            for (col, &b2) in borders.iter().enumerate() {
                matrix[row * nb + col] = dist[local_of[&b2] as usize];
            }
        }
        matrix
    }
}

/// Thins the dense border × border matrix `m` of one Rnet with the triangle rule that
/// G-tree composition applies to child cliques: shortcut `(a, b)` is dropped when a
/// third border `t` has `m[a][t] + m[t][b] == m[a][b]` with both legs positive. Both
/// legs are then strictly shorter than the shortcut, so by induction on distance every
/// border pair stays connected at exactly `m[a][b]` through kept shortcuts; a
/// zero-length leg never justifies a drop, so equal-distance borders cannot drop each
/// other in a cycle. Unreachable pairs are not stored. `m` is symmetric (the network
/// is undirected), hence so is the kept set.
fn sparsify(borders: &[NodeId], m: &[Weight]) -> Rows {
    let nb = borders.len();
    let mut kept = Rows::default();
    // Witnesses are probed nearest-first: one exists only among borders strictly
    // closer to `a` than `b` is, and is almost always among the closest few.
    let mut nearest: Vec<usize> = (0..nb).collect();
    for a in 0..nb {
        let row_a = &m[a * nb..(a + 1) * nb];
        nearest.sort_unstable_by_key(|&t| row_a[t]);
        let keeps = |b: usize| {
            let (d, row_b) = (row_a[b], &m[b * nb..(b + 1) * nb]);
            let mut legs =
                nearest.iter().map(|&t| (row_a[t], row_b[t])).take_while(|&(at, _)| at < d);
            b != a && d < INFINITY && !legs.any(|(at, tb)| at > 0 && at + tb == d)
        };
        kept.push_row((0..nb).filter(|&b| keeps(b)).map(|b| (borders[b], row_a[b])));
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgraphs::{unit_grids, zero_weight_grid};
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::EdgeWeightKind;

    fn build(n: usize, seed: u64, levels: usize) -> (Graph, RoadIndex) {
        let net = RoadNetwork::generate(&GeneratorConfig::new(n, seed));
        let g = net.graph(EdgeWeightKind::Distance);
        let idx = RoadIndex::build_with_config(
            &g,
            RoadConfig { fanout: 4, levels, min_rnet_vertices: 16 },
        );
        (g, idx)
    }

    #[test]
    fn hierarchy_structure_is_consistent() {
        let (g, idx) = build(800, 5, 3);
        assert!(idx.num_rnets() > 4);
        let root = idx.rnet(idx.root());
        assert_eq!(root.num_vertices as usize, g.num_vertices());
        assert!(root.borders.is_empty());
        for v in g.vertices() {
            let chain = idx.chain_of(v);
            assert!(!chain.is_empty());
            // The chain ends at the leaf Rnet of v and each element is the parent of
            // the next.
            assert_eq!(*chain.last().unwrap(), idx.leaf_of(v));
            for w in chain.windows(2) {
                assert_eq!(idx.rnet(w[1]).parent, Some(w[0]));
            }
        }
    }

    #[test]
    fn borders_have_edges_leaving_their_rnet() {
        let (g, idx) = build(600, 9, 3);
        for (ri, rnet) in idx.rnets().iter().enumerate() {
            if rnet.parent.is_none() {
                continue;
            }
            for &b in &rnet.borders {
                let outside = g.neighbor_ids(b).iter().any(|&t| !idx.contains(ri as RnetIndex, t));
                assert!(outside, "border {b} of rnet {ri} has no outside edge");
                assert!(idx.is_border_of(ri as RnetIndex, b));
            }
        }
    }

    #[test]
    fn shortcuts_never_underestimate_and_are_achievable() {
        let (g, idx) = build(500, 3, 3);
        // Restricted shortcuts are >= the true network distance, and for leaf Rnets on a
        // connected subgraph they equal a realizable path length.
        for (ri, rnet) in idx.rnets().iter().enumerate() {
            if rnet.parent.is_none() || rnet.borders.is_empty() {
                continue;
            }
            for &b in rnet.borders.iter().take(3) {
                for (other, d) in idx.shortcuts_from(ri as RnetIndex, b).unwrap() {
                    let truth = dijkstra::distance(&g, b, other);
                    assert!(d >= truth, "shortcut {b}->{other} = {d} < true {truth}");
                }
            }
        }
    }

    #[test]
    fn overlay_rows_are_consistent_with_border_lists() {
        let (g, idx) = build(400, 7, 3);
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
    fn border_distances(
        g: &Graph,
        idx: &RoadIndex,
        r: RnetIndex,
        mut edges: impl FnMut(NodeId, &mut Vec<(NodeId, Weight)>),
    ) -> Vec<Weight> {
        let borders = &idx.rnet(r).borders;
        let mut all = Vec::with_capacity(borders.len() * borders.len());
        for &a in borders {
            let dist = dijkstra::dijkstra_adjacency(g.num_vertices(), a, &mut edges);
            all.extend(borders.iter().map(|&b| dist[b as usize]));
        }
        all
    }

    /// Ordered pairs of distinct borders, summed over all Rnets of one index.
    #[derive(Debug, Default)]
    struct BorderPairs {
        /// Pairs joined by a stored shortcut.
        kept: usize,
        /// Pairs connected inside their Rnet (what the dense cliques stored).
        connected: usize,
        /// Connected pairs at distance zero.
        at_zero: usize,
        /// Pairs with no path inside their Rnet.
        apart: usize,
    }

    /// The triangle rule may drop a shortcut only if the kept ones still carry its
    /// distance: per Rnet, Dijkstra over the kept rows (borders only) must equal
    /// Dijkstra over the Rnet's induced subgraph.
    fn check_kept_shortcuts(g: &Graph) -> BorderPairs {
        let config = RoadConfig { fanout: 4, levels: 3, min_rnet_vertices: 16 };
        let idx = RoadIndex::build_with_config(g, config);
        let mut pairs = BorderPairs::default();
        for r in (0..idx.num_rnets() as RnetIndex).filter(|&r| r != idx.root()) {
            let borders = &idx.rnet(r).borders;
            let restricted = border_distances(g, &idx, r, |v, out| {
                out.extend(g.neighbors(v).filter(|&(t, _)| idx.contains(r, t)));
            });
            let over_kept = border_distances(g, &idx, r, |v, out| {
                out.extend(idx.shortcuts_from(r, v).expect("shortcuts lead to borders of r"));
            });
            if let Some(i) = (0..restricted.len()).find(|&i| over_kept[i] != restricted[i]) {
                let (a, b) = (borders[i / borders.len()], borders[i % borders.len()]);
                let (kept, inside) = (over_kept[i], restricted[i]);
                panic!("rnet {r}: {a} -> {b} is {kept} over kept rows, {inside} inside the Rnet");
            }
            pairs.kept +=
                borders.iter().map(|&b| idx.shortcuts_from(r, b).unwrap().count()).sum::<usize>();
            pairs.apart += restricted.iter().filter(|&&d| d == INFINITY).count();
            pairs.at_zero += restricted.iter().filter(|&&d| d == 0).count() - borders.len();
            pairs.connected += restricted.iter().filter(|&&d| d < INFINITY).count() - borders.len();
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

    #[test]
    fn config_scales_levels_with_network_size() {
        assert!(RoadConfig::for_network(1_000).levels < RoadConfig::for_network(200_000).levels);
        let (_, idx) = build(300, 1, 2);
        assert!(idx.memory_bytes() > 0);
        assert!(idx.num_shortcut_entries() > 0);
        assert_eq!(idx.config().fanout, 4);
    }
}
