//! The partition hierarchy G-tree is built on and both G-tree and ROAD hold
//! (Sections 3.4 / 3.5; ROAD's Rnets are the G-tree's nodes): the network split
//! recursively into `fanout` parts of at most a leaf capacity, every part's borders,
//! and the edge lists of the two reduced graphs that border-to-border distances are
//! composed on, bottom-up — a leaf's induced subgraph, and an internal part's child
//! borders joined by the graph's own edges (the builder adds its children's border
//! distances, thinned by [`sparsify`], the rule ROAD's shortcuts are thinned by too).
//!
//! The layout is flat (Section 6.2: arrays with offsets): one column per part
//! attribute and one concatenated list each for children, borders and leaf vertices.
//! Three columns ([`Columns`]) describe a hierarchy of a given graph completely;
//! [`Hierarchy::from_columns`] checks them and derives everything else, for the
//! builder and for an index loaded from disk alike.

use std::ops::Range;

use rnknn_graph::{Graph, NodeId, Weight};

use crate::Partitioner;

/// The root's entry in the parent column.
pub const NO_PARENT: u32 = u32::MAX;

/// The recursive partition of one graph, parts numbered in preorder (root = 0): the
/// topology both indexes search on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hierarchy {
    /// Per part: its parent ([`NO_PARENT`] for the root).
    parent: Vec<u32>,
    /// Per part: depth below the root (root = 0).
    level: Vec<u32>,
    /// Per part: number of road-network vertices in it.
    num_vertices: Vec<u32>,
    /// Per part: the range of leaf DFS indexes it covers (`O(1)` containment tests).
    leaf_range: Vec<(u32, u32)>,
    /// `children[child_offsets[p]..child_offsets[p + 1]]`: part `p`'s children in
    /// partition order, which is also ascending (empty for a leaf).
    child_offsets: Vec<u32>,
    children: Vec<u32>,
    /// `borders[border_start[p]..][..num_borders[p]]`: part `p`'s borders — the
    /// vertices with an edge leaving it — sorted by vertex id. Runs are laid out
    /// parent-major: those of one part's children are adjacent, in child order.
    border_start: Vec<u32>,
    num_borders: Vec<u32>,
    borders: Vec<NodeId>,
    /// The leaf part of every vertex.
    leaf_of_vertex: Vec<u32>,
}

/// The vertices of every leaf in partition order: a leaf's local ids, and G-tree's
/// leaf matrix columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafLayout {
    /// `vertices[offsets[p]..offsets[p + 1]]`: the vertices of part `p` if it is a
    /// leaf, nothing otherwise.
    offsets: Vec<u32>,
    vertices: Vec<NodeId>,
    /// The position of every vertex in its leaf's list.
    position: Vec<u32>,
}

/// What a hierarchy is saved as. Levels, child lists, leaf ranges, vertex counts,
/// the vertex ⇄ leaf maps and (with the graph) every border list follow from these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Columns {
    /// Per part, in preorder: its parent ([`NO_PARENT`] for the root, part 0).
    pub parent: Vec<u32>,
    /// Per leaf, in preorder: the number of vertices in it.
    pub leaf_sizes: Vec<u32>,
    /// The leaves' vertex lists, concatenated in the same order.
    pub vertices: Vec<NodeId>,
}

/// Columns that describe no hierarchy of the graph they came with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Malformed {
    /// The offending column of [`Columns`].
    pub column: &'static str,
    /// The rule it breaks.
    pub rule: String,
}

/// A directed edge `(from, to, weight)` between local ids of one reduced graph.
pub type LocalEdge = (u32, u32, Weight);

impl Hierarchy {
    /// Splits `graph` into `fanout` parts recursively; a part of at most
    /// `leaf_capacity` vertices becomes a leaf.
    pub fn build(graph: &Graph, fanout: usize, leaf_capacity: usize) -> (Hierarchy, LeafLayout) {
        assert!(fanout >= 2, "fanout must be at least 2");
        let mut columns = Columns::default();
        let vertices = graph.vertices().collect();
        split(graph, fanout, leaf_capacity, NO_PARENT, vertices, &mut columns);
        Self::from_columns(graph, columns).expect("the recursion numbers parts in preorder")
    }

    /// The hierarchy of `graph` that `columns` describe, or the rule they break:
    /// part 0 is the root and parts are numbered in preorder, every leaf has a size,
    /// and the leaves list every vertex of the graph exactly once.
    pub fn from_columns(
        graph: &Graph,
        columns: Columns,
    ) -> Result<(Hierarchy, LeafLayout), Malformed> {
        let Columns { parent, leaf_sizes, vertices } = columns;
        let bad = |column, rule| Err(Malformed { column, rule });
        let (parts, n) = (parent.len(), graph.num_vertices());
        if parts >= NO_PARENT as usize || parent.first() != Some(&NO_PARENT) {
            return bad("parent", "part 0 must be the root".to_string());
        }
        // Preorder: a part's parent is the previous part or one of its ancestors.
        let mut level = vec![0; parts];
        let mut path = vec![0];
        for i in 1..parts {
            while path.last().is_some_and(|&top| top != parent[i]) {
                path.pop();
            }
            if path.is_empty() {
                let rule =
                    format!("part {i}: parent {} is not on the path to part {}", parent[i], i - 1);
                return bad("parent", rule);
            }
            level[i] = path.len() as u32;
            path.push(i as u32);
        }
        let mut child_offsets = vec![0; parts + 1];
        parent[1..].iter().for_each(|&p| child_offsets[p as usize + 1] += 1);
        (0..parts).for_each(|p| child_offsets[p + 1] += child_offsets[p]);
        let mut children = vec![0; parts - 1];
        let mut next = child_offsets.clone();
        for i in 1..parts {
            let slot = &mut next[parent[i] as usize];
            children[*slot as usize] = i as u32;
            *slot += 1;
        }
        let is_leaf = |p: usize| child_offsets[p] == child_offsets[p + 1];

        // Leaves take DFS indexes in preorder; a part covers its descendants'.
        let num_leaves = (0..parts).filter(|&p| is_leaf(p)).count();
        if leaf_sizes.len() != num_leaves {
            return bad(
                "leaf_sizes",
                format!("{} sizes for {num_leaves} leaves", leaf_sizes.len()),
            );
        }
        let total: u64 = leaf_sizes.iter().map(|&s| u64::from(s)).sum();
        if total != n as u64 || vertices.len() != n {
            let listed = vertices.len();
            let rule = format!("leaves of {total} vertices list {listed} for a graph of {n}");
            return bad("vertices", rule);
        }
        let (mut leaf_range, mut num_vertices, mut offsets) = (Vec::new(), Vec::new(), vec![0]);
        let mut leaf = 0;
        for p in 0..parts {
            let size = if is_leaf(p) { leaf_sizes[leaf as usize] } else { 0 };
            leaf_range.push((leaf, leaf + is_leaf(p) as u32));
            num_vertices.push(size);
            offsets.push(offsets[p] + size);
            leaf += is_leaf(p) as u32;
        }
        for i in (1..parts).rev() {
            let p = parent[i] as usize;
            leaf_range[p].1 = leaf_range[p].1.max(leaf_range[i].1);
            num_vertices[p] += num_vertices[i];
        }

        let mut leaf_of_vertex = vec![NO_PARENT; n];
        let mut position = vec![0; n];
        for p in (0..parts).filter(|&p| is_leaf(p)) {
            let run = &vertices[offsets[p] as usize..offsets[p + 1] as usize];
            for (pos, &v) in run.iter().enumerate() {
                match leaf_of_vertex.get_mut(v as usize) {
                    Some(slot) if *slot == NO_PARENT => *slot = p as u32,
                    _ => {
                        return bad(
                            "vertices",
                            format!("vertex {v} is out of range or listed twice"),
                        )
                    }
                }
                position[v as usize] = pos as u32;
            }
        }

        let mut hierarchy = Hierarchy {
            parent,
            level,
            num_vertices,
            leaf_range,
            child_offsets,
            children,
            border_start: vec![0; parts],
            num_borders: vec![0; parts],
            borders: Vec::new(),
            leaf_of_vertex,
        };
        hierarchy.mark_borders(graph);
        Ok((hierarchy, LeafLayout { offsets, vertices, position }))
    }

    /// The columns [`Hierarchy::from_columns`] rebuilds `self` and `leaves` from.
    pub fn columns(&self, leaves: &LeafLayout) -> Columns {
        let is_leaf = |&p: &u32| self.is_leaf(p);
        let leaf_sizes = (0..self.num_parts() as u32).filter(is_leaf).map(|p| self.num_vertices(p));
        Columns {
            parent: self.parent.clone(),
            leaf_sizes: leaf_sizes.collect(),
            vertices: leaves.vertices.clone(),
        }
    }

    /// Fills every part's border list. A border of a part is a border of every deeper
    /// part containing it, so each vertex walks up from its leaf while an edge still
    /// leaves (none leaves the root); vertices are visited in id order, which leaves
    /// every list sorted.
    fn mark_borders(&mut self, graph: &Graph) {
        let mut found: Vec<(u32, NodeId)> = Vec::new();
        for v in graph.vertices() {
            let mut part = self.leaf_of_vertex[v as usize];
            while part != NO_PARENT {
                let range = self.leaf_range[part as usize];
                if !graph.neighbor_ids(v).iter().any(|&t| self.outside(range, t)) {
                    break;
                }
                found.push((part, v));
                part = self.parent[part as usize];
            }
        }
        found.iter().for_each(|&(part, _)| self.num_borders[part as usize] += 1);
        let mut end = 0;
        for &child in &self.children {
            self.border_start[child as usize] = end;
            end += self.num_borders[child as usize];
        }
        self.borders = vec![0; found.len()];
        let mut next = self.border_start.clone();
        for (part, v) in found {
            self.borders[next[part as usize] as usize] = v;
            next[part as usize] += 1;
        }
    }

    /// Number of parts (leaves and internal).
    pub fn num_parts(&self) -> usize {
        self.parent.len()
    }

    /// Parent of `part` (`None` for the root).
    #[inline]
    pub fn parent(&self, part: u32) -> Option<u32> {
        let parent = self.parent[part as usize];
        (parent != NO_PARENT).then_some(parent)
    }

    /// Depth of `part` below the root (root = 0).
    pub fn level(&self, part: u32) -> u32 {
        self.level[part as usize]
    }

    /// Number of road-network vertices in `part`.
    #[inline]
    pub fn num_vertices(&self, part: u32) -> u32 {
        self.num_vertices[part as usize]
    }

    /// Range of leaf DFS indexes `part` covers; its children tile it in order.
    #[inline]
    pub fn leaf_range(&self, part: u32) -> (u32, u32) {
        self.leaf_range[part as usize]
    }

    /// Children of `part` in partition order (empty for a leaf).
    #[inline]
    pub fn children(&self, part: u32) -> &[u32] {
        let part = part as usize;
        &self.children[self.child_offsets[part] as usize..self.child_offsets[part + 1] as usize]
    }

    /// True when `part` has no children.
    #[inline]
    pub fn is_leaf(&self, part: u32) -> bool {
        self.child_offsets[part as usize] == self.child_offsets[part as usize + 1]
    }

    /// Where `part`'s borders sit in the concatenated border list — and in any table
    /// laid out parallel to it.
    #[inline]
    pub fn border_range(&self, part: u32) -> Range<usize> {
        let start = self.border_start[part as usize] as usize;
        start..start + self.num_borders[part as usize] as usize
    }

    /// Vertices of `part` with an edge leaving it, sorted by vertex id.
    #[inline]
    pub fn borders(&self, part: u32) -> &[NodeId] {
        &self.borders[self.border_range(part)]
    }

    /// The borders of `part`'s children concatenated child by child. Positions in
    /// this list are the local ids of an internal part's reduced graph.
    pub fn child_borders(&self, part: u32) -> &[NodeId] {
        let children = self.children(part);
        let (Some(&first), Some(&last)) = (children.first(), children.last()) else { return &[] };
        &self.borders[self.border_range(first).start..self.border_range(last).end]
    }

    /// Offset of `child`'s borders within its parent's [`Hierarchy::child_borders`]
    /// (`child` is not the root). A parent's first child is the next part in preorder.
    #[inline]
    pub fn base_in_parent(&self, child: u32) -> usize {
        let first = self.parent[child as usize] as usize + 1;
        (self.border_start[child as usize] - self.border_start[first]) as usize
    }

    /// The leaf part containing vertex `v`.
    #[inline]
    pub fn leaf_of(&self, v: NodeId) -> u32 {
        self.leaf_of_vertex[v as usize]
    }

    /// True when vertex `v` lies outside the part covering the leaf range `range`.
    #[inline]
    pub fn outside(&self, range: (u32, u32), v: NodeId) -> bool {
        let leaf = self.leaf_range[self.leaf_of_vertex[v as usize] as usize].0;
        leaf < range.0 || leaf >= range.1
    }

    /// Resident size in bytes.
    pub fn memory_bytes(&self) -> usize {
        let words = self.parent.len()
            + self.level.len()
            + self.num_vertices.len()
            + 2 * self.leaf_range.len()
            + self.child_offsets.len()
            + self.children.len()
            + self.border_start.len()
            + self.num_borders.len()
            + self.borders.len()
            + self.leaf_of_vertex.len();
        words * 4
    }

    /// The local id of `v` inside internal part `part`, which must contain it: its
    /// position in [`Hierarchy::child_borders`], `None` when `v` is no child's border.
    fn local_id(&self, part: u32, v: NodeId) -> Option<u32> {
        let leaf = self.leaf_range[self.leaf_of_vertex[v as usize] as usize].0;
        // Children tile the part's leaf range in order.
        let child = *self.children(part).iter().find(|&&c| leaf < self.leaf_range(c).1)?;
        let pos = self.borders(child).binary_search(&v).ok()?;
        Some((self.base_in_parent(child) + pos) as u32)
    }

    /// The local id of every border inside its own part, parallel to the border
    /// list ([`Hierarchy::border_range`]): the position in a leaf's vertex list, or
    /// in an internal part's [`Hierarchy::child_borders`].
    pub fn border_positions(&self, leaves: &LeafLayout) -> Vec<u32> {
        let mut positions = vec![0; self.borders.len()];
        for part in 0..self.num_parts() as u32 {
            for (slot, &b) in positions[self.border_range(part)].iter_mut().zip(self.borders(part))
            {
                *slot = if self.is_leaf(part) {
                    leaves.position(b)
                } else {
                    self.local_id(part, b).expect("a border of a child")
                };
            }
        }
        positions
    }

    /// The subgraph induced by leaf `leaf`, over positions in its vertex list.
    pub fn leaf_edges(&self, graph: &Graph, leaves: &LeafLayout, leaf: u32) -> Vec<LocalEdge> {
        let mut edges = Vec::new();
        for (pos, &v) in leaves.vertices(leaf).iter().enumerate() {
            for (t, w) in graph.neighbors(v) {
                if self.leaf_of(t) == leaf {
                    edges.push((pos as u32, leaves.position(t), w));
                }
            }
        }
        edges
    }

    /// The graph edges joining two child borders of internal part `part`, over
    /// positions in [`Hierarchy::child_borders`]. Edges inside one child are included;
    /// the child's own border distances make them redundant, never wrong.
    pub fn cross_edges(&self, graph: &Graph, part: u32) -> Vec<LocalEdge> {
        let range = self.leaf_range(part);
        let mut edges = Vec::new();
        for (pos, &v) in self.child_borders(part).iter().enumerate() {
            for (t, w) in graph.neighbors(v).filter(|&(t, _)| !self.outside(range, t)) {
                if let Some(local) = self.local_id(part, t) {
                    edges.push((pos as u32, local, w));
                }
            }
        }
        edges
    }
}

impl LeafLayout {
    /// The vertices of leaf `leaf` in partition order (nothing for an internal part).
    #[inline]
    pub fn vertices(&self, leaf: u32) -> &[NodeId] {
        let leaf = leaf as usize;
        &self.vertices[self.offsets[leaf] as usize..self.offsets[leaf + 1] as usize]
    }

    /// The position of `v` in its leaf's vertex list.
    #[inline]
    pub fn position(&self, v: NodeId) -> u32 {
        self.position[v as usize]
    }

    /// Resident size in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.offsets.len() + self.vertices.len() + self.position.len()) * 4
    }
}

/// Appends the part holding `vertices` below `parent` and, recursively, its
/// descendants.
fn split(
    graph: &Graph,
    fanout: usize,
    leaf_capacity: usize,
    parent: u32,
    vertices: Vec<NodeId>,
    columns: &mut Columns,
) {
    let index = columns.parent.len() as u32;
    columns.parent.push(parent);
    if vertices.len() <= leaf_capacity {
        columns.leaf_sizes.push(vertices.len() as u32);
        columns.vertices.extend(vertices);
        return;
    }
    let assignment = Partitioner::new().partition(graph, &vertices, fanout);
    let mut pieces: Vec<Vec<NodeId>> = vec![Vec::new(); fanout];
    for (&v, &piece) in vertices.iter().zip(&assignment) {
        pieces[piece as usize].push(v);
    }
    // A degenerate partition (everything in one piece, possible on pathological
    // inputs) falls back to a round-robin split so the recursion always terminates.
    if pieces.iter().filter(|p| !p.is_empty()).count() <= 1 {
        pieces.iter_mut().for_each(Vec::clear);
        for (i, &v) in vertices.iter().enumerate() {
            pieces[i % fanout].push(v);
        }
    }
    for piece in pieces.into_iter().filter(|p| !p.is_empty()) {
        split(graph, fanout, leaf_capacity, index, piece, columns);
    }
}

/// Thins the dense border × border matrix `m` (`nb × nb`, row-major, symmetric, cells
/// `>= unreachable` meaning no path) of one part with the triangle rule: pair `(a, b)`
/// is dropped when a third border `t` has `m[a][t] + m[t][b] == m[a][b]` with both
/// legs positive. Both legs are then strictly shorter than the pair, so by induction
/// on distance every border pair stays connected at exactly `m[a][b]` through kept
/// pairs — the reduced graph's metric is unchanged while its edge count falls from
/// Θ(borders²) to near-linear on road networks. A zero-length leg never justifies a
/// drop: two borders at distance zero would otherwise each drop the other's pairs and
/// disconnect both. Unreachable pairs are not kept. Returns the kept `(a, b, m[a][b])`
/// row by row in border order, both directions of every kept pair.
pub fn sparsify<C>(m: &[C], nb: usize, unreachable: C) -> Vec<(u32, u32, C)>
where
    C: Copy + Ord + Default + std::ops::Add<Output = C>,
{
    debug_assert_eq!(m.len(), nb * nb);
    debug_assert!((0..nb).all(|a| (0..a).all(|b| m[a * nb + b] == m[b * nb + a])), "asymmetric");
    let zero = C::default();
    // `m` is symmetric and so is the rule: each pair is judged once, from its lower end.
    let mut keep = vec![false; nb * nb];
    // Witnesses are probed nearest-first: one exists only among borders strictly
    // closer to `a` than `b` is, and is almost always among the closest few (the next
    // border along the same road corridor) — unordered, this scan is an O(nb³) term
    // that dominates upper-level composition.
    let mut nearest: Vec<usize> = (0..nb).collect();
    for a in 0..nb {
        let row_a = &m[a * nb..(a + 1) * nb];
        nearest.sort_unstable_by_key(|&t| row_a[t]);
        for b in (a + 1..nb).filter(|&b| row_a[b] < unreachable) {
            let (d, row_b) = (row_a[b], &m[b * nb..(b + 1) * nb]);
            let mut legs =
                nearest.iter().map(|&t| (row_a[t], row_b[t])).take_while(|&(at, _)| at < d);
            let kept = !legs.any(|(at, tb)| at > zero && at + tb == d);
            (keep[a * nb + b], keep[b * nb + a]) = (kept, kept);
        }
    }
    let kept = (0..nb * nb).filter(|&i| keep[i]);
    kept.map(|i| ((i / nb) as u32, (i % nb) as u32, m[i])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn_graph::testgraphs::{unit_grids, zero_weight_grid};

    /// Grid side for the structural tests: the interpreter is ~100× slower.
    const SIDE: u32 = if cfg!(miri) { 6 } else { 24 };

    fn hierarchies() -> Vec<(Graph, Hierarchy, LeafLayout)> {
        let graphs = [unit_grids(SIDE, 1), zero_weight_grid(SIDE), unit_grids(SIDE / 2, 3)];
        let mut all = Vec::new();
        for g in graphs {
            // Many small leaves, and a shallow tree whose leaves sit two levels down.
            let (deep, deep_leaves) = Hierarchy::build(&g, 4, 16);
            let (shallow, shallow_leaves) = Hierarchy::build(&g, 3, g.num_vertices() / 6);
            all.push((g.clone(), deep, deep_leaves));
            all.push((g, shallow, shallow_leaves));
        }
        all
    }

    fn parts(h: &Hierarchy) -> std::ops::Range<u32> {
        0..h.num_parts() as u32
    }

    #[test]
    fn parts_are_numbered_in_preorder_and_leaf_ranges_tile() {
        for (g, h, leaves) in hierarchies() {
            assert_eq!((h.parent(0), h.level(0)), (None, 0));
            assert_eq!(h.num_vertices(0) as usize, g.num_vertices());
            assert!(h.borders(0).is_empty(), "no edge leaves the whole graph");
            let mut next_leaf = 0;
            for i in parts(&h) {
                if h.is_leaf(i) {
                    assert_eq!(h.leaf_range(i), (next_leaf, next_leaf + 1));
                    assert_eq!(leaves.vertices(i).len(), h.num_vertices(i) as usize);
                    next_leaf += 1;
                    continue;
                }
                assert!(leaves.vertices(i).is_empty());
                // Preorder: the first child follows its parent, each next child
                // follows the previous child's whole subtree.
                assert_eq!(h.children(i)[0], i + 1);
                let mut lo = h.leaf_range(i).0;
                let mut covered = 0;
                for &c in h.children(i) {
                    assert_eq!((h.parent(c), h.level(c)), (Some(i), h.level(i) + 1));
                    assert_eq!(h.leaf_range(c).0, lo);
                    lo = h.leaf_range(c).1;
                    covered += h.num_vertices(c);
                }
                assert_eq!(lo, h.leaf_range(i).1);
                assert_eq!(covered, h.num_vertices(i));
            }
            for v in g.vertices() {
                assert_eq!(leaves.vertices(h.leaf_of(v))[leaves.position(v) as usize], v);
            }
        }
    }

    #[test]
    fn the_stop_rule_decides_the_leaves() {
        let g = unit_grids(SIDE, 1);
        let (by_size, _) = Hierarchy::build(&g, 4, 16);
        assert!(parts(&by_size).all(|p| by_size.is_leaf(p) == (by_size.num_vertices(p) <= 16)));
        // Halves of halves: a sixth of the network fits at level 3 and not above.
        let (halved, _) = Hierarchy::build(&g, 2, g.num_vertices() / 6);
        assert!(parts(&halved).all(|p| halved.is_leaf(p) == (halved.level(p) == 3)));
        assert_eq!(halved.num_parts(), 15);
        let (whole, leaves) = Hierarchy::build(&g, 4, g.num_vertices());
        assert_eq!(whole.num_parts(), 1);
        assert_eq!(leaves.vertices(0), g.vertices().collect::<Vec<_>>());
    }

    #[test]
    fn borders_are_exactly_the_vertices_with_an_edge_leaving() {
        for (g, h, _) in hierarchies() {
            for part in parts(&h) {
                let borders = h.borders(part);
                assert!(borders.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
                let inside = |v: NodeId| !h.outside(h.leaf_range(part), v);
                let want: Vec<NodeId> = g
                    .vertices()
                    .filter(|&v| inside(v) && g.neighbor_ids(v).iter().any(|&t| !inside(t)))
                    .collect();
                assert_eq!(borders, want);
            }
        }
    }

    #[test]
    fn local_ids_and_edge_lists_agree_with_the_graph() {
        for (g, h, leaves) in hierarchies() {
            let all_positions = h.border_positions(&leaves);
            for i in parts(&h) {
                let positions = &all_positions[h.border_range(i)];
                if h.is_leaf(i) {
                    let at = |p: u32| leaves.vertices(i)[p as usize];
                    assert!(positions.iter().map(|&p| at(p)).eq(h.borders(i).iter().copied()));
                    let mut want: Vec<(NodeId, NodeId, Weight)> = Vec::new();
                    for &v in leaves.vertices(i) {
                        let inside = g.neighbors(v).filter(|&(t, _)| h.leaf_of(t) == i);
                        want.extend(inside.map(|(t, w)| (v, t, w)));
                    }
                    let edges = h.leaf_edges(&g, &leaves, i);
                    let got: Vec<_> = edges.iter().map(|&(a, b, w)| (at(a), at(b), w)).collect();
                    assert_eq!(got, want);
                    continue;
                }
                let child_borders = h.child_borders(i);
                for &c in h.children(i) {
                    let run = &child_borders[h.base_in_parent(c)..][..h.borders(c).len()];
                    assert_eq!(run, h.borders(c));
                }
                let last = *h.children(i).last().unwrap();
                assert_eq!(child_borders.len(), h.base_in_parent(last) + h.borders(last).len());
                let at = |p: u32| child_borders[p as usize];
                assert!(positions.iter().map(|&p| at(p)).eq(h.borders(i).iter().copied()));
                let mut want: Vec<(NodeId, NodeId, Weight)> = Vec::new();
                for &v in child_borders {
                    let joined = g.neighbors(v).filter(|&(t, _)| child_borders.contains(&t));
                    want.extend(joined.map(|(t, w)| (v, t, w)));
                }
                let got: Vec<_> =
                    h.cross_edges(&g, i).iter().map(|&(a, b, w)| (at(a), at(b), w)).collect();
                assert_eq!(got, want);
            }
        }
    }

    /// What is saved is enough: the columns of a built hierarchy give it back whole.
    #[test]
    fn columns_round_trip_to_an_equal_hierarchy() {
        for (g, h, leaves) in hierarchies() {
            let columns = h.columns(&leaves);
            assert_eq!(columns.parent.len(), h.num_parts());
            assert_eq!(columns.vertices.len(), g.num_vertices());
            assert_eq!(Hierarchy::from_columns(&g, columns), Ok((h, leaves)));
        }
    }

    /// One mutation per rule of [`Hierarchy::from_columns`], each refused by name.
    #[test]
    fn columns_that_break_a_rule_are_refused_with_the_rule() {
        let g = unit_grids(SIDE, 1);
        let (h, leaves) = Hierarchy::build(&g, 3, g.num_vertices() / 6);
        let good = h.columns(&leaves);
        let last_part = good.parent.len() - 1;
        assert!(h.level(last_part as u32) == 2 && h.is_leaf(1 + 1), "the shape the cases assume");
        type Mutation = fn(&mut Columns, usize);
        let cases: [(Mutation, &str, &str); 8] = [
            (|c, _| c.parent.clear(), "parent", "part 0 must be the root"),
            (|c, _| c.parent[0] = 0, "parent", "part 0 must be the root"),
            // Part 2 is a leaf and so no ancestor of a later part; neither is a part
            // that comes later, or the root's own "parent".
            (|c, last| c.parent[last] = 2, "parent", "parent 2 is not on the path"),
            (|c, last| c.parent[last] = last as u32, "parent", "is not on the path"),
            (|c, last| c.parent[last] = NO_PARENT, "parent", "is not on the path"),
            (|c, _| c.leaf_sizes.push(0), "leaf_sizes", "sizes for"),
            (|c, _| c.leaf_sizes[0] += 1, "vertices", "for a graph of"),
            (|c, _| c.vertices[3] = c.vertices[4], "vertices", "listed twice"),
        ];
        for (case, (mutate, column, rule)) in cases.into_iter().enumerate() {
            let mut columns = good.clone();
            mutate(&mut columns, last_part);
            let refused = Hierarchy::from_columns(&g, columns).expect_err("a broken rule");
            assert_eq!(refused.column, column, "case {case}: {refused:?}");
            assert!(refused.rule.contains(rule), "case {case}: {refused:?}");
        }
        // Re-hanging the last part higher up keeps the numbering preorder: a different,
        // valid hierarchy, whose derived ranges and borders are its own.
        let mut moved = good.clone();
        moved.parent[last_part] = 0;
        let (other, _) = Hierarchy::from_columns(&g, moved).expect("still preorder");
        assert_eq!(other.level(last_part as u32), 1);
        assert_ne!(other, h);
        let other_graph = unit_grids(SIDE + 1, 1);
        let refused = Hierarchy::from_columns(&other_graph, good).expect_err("another graph");
        assert!(refused.rule.contains("for a graph of"), "{refused:?}");
    }

    /// All-pairs closure (Floyd–Warshall) of the kept pairs of `m`.
    fn closure_of_kept(m: &[u64], nb: usize) -> Vec<u64> {
        const FAR: u64 = u64::MAX / 4;
        let mut d = vec![FAR; nb * nb];
        (0..nb).for_each(|a| d[a * nb + a] = 0);
        for (a, b, w) in sparsify(m, nb, FAR) {
            assert_eq!(w, m[a as usize * nb + b as usize]);
            d[a as usize * nb + b as usize] = w;
        }
        for t in 0..nb {
            for a in 0..nb {
                for b in 0..nb {
                    d[a * nb + b] = d[a * nb + b].min(d[a * nb + t] + d[t * nb + b]);
                }
            }
        }
        d
    }

    /// Two borders at distance zero must not drop each other's pairs: with
    /// `d(a,t) = 0` and `d(a,b) = d(t,b) = 5`, `t` is no witness for `(a, b)` nor `a`
    /// for `(t, b)` — dropping both would cut `b` off.
    #[test]
    fn a_zero_length_leg_never_justifies_a_drop() {
        let m = [0u64, 0, 5, 0, 0, 5, 5, 5, 0];
        let kept = sparsify(&m, 3, u64::MAX / 4);
        assert!(kept.contains(&(0, 2, 5)) || kept.contains(&(1, 2, 5)), "{kept:?}");
        assert_eq!(closure_of_kept(&m, 3), m);
        // The same cells at G-tree's width.
        let narrow = m.map(|d| d as u32);
        let kept32 = sparsify(&narrow, 3, u32::MAX / 2);
        assert!(kept32.iter().map(|&(a, b, d)| (a, b, d as u64)).eq(kept.iter().copied()));
    }

    /// On lines and grids (ties everywhere, zero legs, two components) the kept pairs
    /// carry every distance, come out row by row in border order, and are far fewer.
    #[test]
    fn kept_pairs_preserve_every_distance() {
        const FAR: u64 = u64::MAX / 4;
        let side: usize = if cfg!(miri) { 3 } else { 5 };
        let nb = 2 * side * side;
        // Two `side × side` grids apart from each other; `zeros` makes every third
        // horizontal step free.
        for zeros in [false, true] {
            let step = |x: usize| if zeros && x.is_multiple_of(3) { 0 } else { 1 };
            let coordinate = |i: usize| (i / (side * side), (i / side) % side, i % side);
            let mut m = vec![FAR; nb * nb];
            for i in 0..nb {
                for j in 0..nb {
                    let ((ci, yi, xi), (cj, yj, xj)) = (coordinate(i), coordinate(j));
                    if ci == cj {
                        let across: usize = (xi.min(xj)..xi.max(xj)).map(step).sum();
                        m[i * nb + j] = (across + yi.abs_diff(yj)) as u64;
                    }
                }
            }
            let kept = sparsify(&m, nb, FAR);
            assert!(kept.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
            assert!(kept.iter().all(|&(a, b, d)| a != b && d < FAR));
            assert!(kept.iter().all(|&(a, b, d)| kept.contains(&(b, a, d))), "symmetric");
            let connected = m.iter().filter(|&&d| d < FAR).count() - nb;
            assert!(kept.len() < connected, "{} kept of {connected}", kept.len());
            assert_eq!(closure_of_kept(&m, nb), m, "zeros = {zeros}");
        }
    }
}
