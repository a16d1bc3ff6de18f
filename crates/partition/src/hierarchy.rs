//! The partition hierarchy G-tree and ROAD are both built on (Sections 3.4 / 3.5):
//! the network split recursively into `fanout` parts, every part's borders, and the
//! edge lists of the two reduced graphs that border-to-border distances are composed
//! on, bottom-up — a leaf's induced subgraph, and an internal part's child borders
//! joined by the graph's own edges (each builder adds its children's border
//! distances, thinned by [`sparsify`]). Build-time only: each index copies what it
//! stores into its own nodes.

use rnknn_graph::{Graph, NodeId, Weight};

use crate::Partitioner;

/// One part of the hierarchy: the whole network (the root) or a piece of its parent.
#[derive(Debug, Clone)]
pub struct Part {
    /// Parent part (`None` for the root).
    pub parent: Option<u32>,
    /// Child parts, in partition order (empty for a leaf).
    pub children: Vec<u32>,
    /// Depth below the root (root = 0).
    pub level: u32,
    /// Number of road-network vertices in the part.
    pub num_vertices: u32,
    /// Range of leaf DFS indexes the part covers (`O(1)` containment tests).
    pub leaf_range: (u32, u32),
    /// The part's vertices in partition order (leaves only).
    pub vertices: Vec<NodeId>,
    /// Vertices with an edge leaving the part, sorted by vertex id.
    pub borders: Vec<NodeId>,
}

/// The recursive partition of one graph, parts numbered in preorder (root = 0).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// All parts.
    pub parts: Vec<Part>,
    /// The leaf part of every vertex.
    pub leaf_of_vertex: Vec<u32>,
    /// The position of every vertex in its leaf's [`Part::vertices`].
    pub position_in_leaf: Vec<u32>,
}

/// A directed edge `(from, to, weight)` between local ids of one reduced graph.
pub type LocalEdge = (u32, u32, Weight);

impl Hierarchy {
    /// Splits `graph` into `fanout` parts recursively; a part of `len` vertices at
    /// `level` becomes a leaf when `stop(level, len)` says so.
    pub fn build(graph: &Graph, fanout: usize, stop: impl Fn(u32, usize) -> bool) -> Hierarchy {
        assert!(fanout >= 2, "fanout must be at least 2");
        let n = graph.num_vertices();
        let mut hierarchy = Hierarchy {
            parts: Vec::new(),
            leaf_of_vertex: vec![0; n],
            position_in_leaf: vec![0; n],
        };
        hierarchy.split(graph, fanout, &stop, None, graph.vertices().collect(), &mut 0);
        hierarchy.mark_borders(graph);
        hierarchy
    }

    /// Appends the part holding `vertices` and, recursively, its descendants; returns
    /// its index. `next_leaf` is the DFS index the next leaf takes.
    fn split(
        &mut self,
        graph: &Graph,
        fanout: usize,
        stop: &impl Fn(u32, usize) -> bool,
        parent: Option<u32>,
        vertices: Vec<NodeId>,
        next_leaf: &mut u32,
    ) -> u32 {
        let index = self.parts.len() as u32;
        let level = parent.map_or(0, |p| self.parts[p as usize].level + 1);
        self.parts.push(Part {
            parent,
            children: Vec::new(),
            level,
            num_vertices: vertices.len() as u32,
            leaf_range: (*next_leaf, *next_leaf + 1),
            vertices: Vec::new(),
            borders: Vec::new(),
        });
        if stop(level, vertices.len()) {
            for (pos, &v) in vertices.iter().enumerate() {
                self.leaf_of_vertex[v as usize] = index;
                self.position_in_leaf[v as usize] = pos as u32;
            }
            self.parts[index as usize].vertices = vertices;
            *next_leaf += 1;
            return index;
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
        let children = pieces
            .into_iter()
            .filter(|p| !p.is_empty())
            .map(|piece| self.split(graph, fanout, stop, Some(index), piece, next_leaf))
            .collect();
        let part = &mut self.parts[index as usize];
        part.children = children;
        part.leaf_range.1 = *next_leaf;
        index
    }

    /// True when vertex `v` lies outside the part covering the leaf range `range`.
    pub fn outside(&self, range: (u32, u32), v: NodeId) -> bool {
        let leaf = self.parts[self.leaf_of_vertex[v as usize] as usize].leaf_range.0;
        leaf < range.0 || leaf >= range.1
    }

    /// Fills every part's border list. A border of a part is a border of every deeper
    /// part containing it, so each vertex walks up from its leaf while an edge still
    /// leaves; vertices are visited in id order, which leaves every list sorted.
    fn mark_borders(&mut self, graph: &Graph) {
        for v in graph.vertices() {
            let mut part = Some(self.leaf_of_vertex[v as usize]);
            while let Some(p) = part {
                let range = self.parts[p as usize].leaf_range;
                if !graph.neighbor_ids(v).iter().any(|&t| self.outside(range, t)) {
                    break;
                }
                self.parts[p as usize].borders.push(v);
                part = self.parts[p as usize].parent;
            }
        }
    }

    /// The borders of `part`'s children concatenated child by child, and the offset at
    /// which each child's run starts (`children.len() + 1` entries). Positions in this
    /// list are the local ids of an internal part's reduced graph.
    pub fn child_borders(&self, part: u32) -> (Vec<NodeId>, Vec<u32>) {
        let mut borders = Vec::new();
        let mut offsets = vec![0u32];
        for &c in &self.parts[part as usize].children {
            borders.extend_from_slice(&self.parts[c as usize].borders);
            offsets.push(borders.len() as u32);
        }
        (borders, offsets)
    }

    /// The local id of `v` inside `part`, which must contain it: its position in a
    /// leaf's vertex list, or in an internal part's [`Hierarchy::child_borders`] —
    /// `None` there when `v` is no child's border.
    fn local_id(&self, part: u32, v: NodeId) -> Option<u32> {
        let part = &self.parts[part as usize];
        if part.children.is_empty() {
            return Some(self.position_in_leaf[v as usize]);
        }
        let leaf = self.parts[self.leaf_of_vertex[v as usize] as usize].leaf_range.0;
        let mut base = 0;
        for &c in &part.children {
            let child = &self.parts[c as usize];
            // Children tile the part's leaf range in order.
            if leaf < child.leaf_range.1 {
                return child.borders.binary_search(&v).ok().map(|pos| base + pos as u32);
            }
            base += child.borders.len() as u32;
        }
        None
    }

    /// The local ids of `part`'s own borders, in border order.
    pub fn border_positions(&self, part: u32) -> Vec<u32> {
        let borders = &self.parts[part as usize].borders;
        borders.iter().map(|&b| self.local_id(part, b).expect("a border of a child")).collect()
    }

    /// The subgraph induced by leaf `leaf`, over positions in its vertex list.
    pub fn leaf_edges(&self, graph: &Graph, leaf: u32) -> Vec<LocalEdge> {
        let mut edges = Vec::new();
        for (pos, &v) in self.parts[leaf as usize].vertices.iter().enumerate() {
            for (t, w) in graph.neighbors(v) {
                if self.leaf_of_vertex[t as usize] == leaf {
                    edges.push((pos as u32, self.position_in_leaf[t as usize], w));
                }
            }
        }
        edges
    }

    /// The graph edges joining two child borders of internal part `part`, over
    /// positions in [`Hierarchy::child_borders`]. Edges inside one child are included;
    /// the child's own border distances make them redundant, never wrong.
    pub fn cross_edges(&self, graph: &Graph, part: u32) -> Vec<LocalEdge> {
        let Part { children, leaf_range: range, .. } = &self.parts[part as usize];
        let child_borders = children.iter().flat_map(|&c| &self.parts[c as usize].borders);
        let mut edges = Vec::new();
        for (pos, &v) in child_borders.enumerate() {
            for (t, w) in graph.neighbors(v).filter(|&(t, _)| !self.outside(*range, t)) {
                if let Some(local) = self.local_id(part, t) {
                    edges.push((pos as u32, local, w));
                }
            }
        }
        edges
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

    fn hierarchies() -> Vec<(Graph, Hierarchy)> {
        let graphs = [unit_grids(SIDE, 1), zero_weight_grid(SIDE), unit_grids(SIDE / 2, 3)];
        let mut all = Vec::new();
        for g in graphs {
            // The G-tree stop rule and the ROAD one.
            let by_size = Hierarchy::build(&g, 4, |_, len| len <= 16);
            let by_level = Hierarchy::build(&g, 3, |level, len| level >= 2 || len <= 4);
            all.push((g.clone(), by_size));
            all.push((g, by_level));
        }
        all
    }

    #[test]
    fn parts_are_numbered_in_preorder_and_leaf_ranges_tile() {
        for (g, h) in hierarchies() {
            let root = &h.parts[0];
            assert_eq!((root.parent, root.level), (None, 0));
            assert_eq!(root.num_vertices as usize, g.num_vertices());
            assert!(root.borders.is_empty(), "no edge leaves the whole graph");
            let mut next_leaf = 0;
            for (i, part) in h.parts.iter().enumerate() {
                if part.children.is_empty() {
                    assert_eq!(part.leaf_range, (next_leaf, next_leaf + 1));
                    assert_eq!(part.vertices.len(), part.num_vertices as usize);
                    next_leaf += 1;
                    continue;
                }
                assert!(part.vertices.is_empty());
                // Preorder: the first child follows its parent, each next child
                // follows the previous child's whole subtree.
                assert_eq!(part.children[0] as usize, i + 1);
                let mut lo = part.leaf_range.0;
                let mut covered = 0;
                for &c in &part.children {
                    let child = &h.parts[c as usize];
                    assert_eq!((child.parent, child.level), (Some(i as u32), part.level + 1));
                    assert_eq!(child.leaf_range.0, lo);
                    lo = child.leaf_range.1;
                    covered += child.num_vertices;
                }
                assert_eq!(lo, part.leaf_range.1);
                assert_eq!(covered, part.num_vertices);
            }
            for v in g.vertices() {
                let leaf = &h.parts[h.leaf_of_vertex[v as usize] as usize];
                assert_eq!(leaf.vertices[h.position_in_leaf[v as usize] as usize], v);
            }
        }
    }

    #[test]
    fn the_stop_rule_decides_the_leaves() {
        let g = unit_grids(SIDE, 1);
        let by_size = Hierarchy::build(&g, 4, |_, len| len <= 16);
        assert!(by_size.parts.iter().all(|p| p.children.is_empty() == (p.num_vertices <= 16)));
        let by_level = Hierarchy::build(&g, 2, |level, _| level >= 3);
        assert!(by_level.parts.iter().all(|p| p.children.is_empty() == (p.level == 3)));
        assert_eq!(by_level.parts.len(), 15);
        let whole = Hierarchy::build(&g, 4, |_, _| true);
        assert_eq!(whole.parts.len(), 1);
        assert_eq!(whole.parts[0].vertices, g.vertices().collect::<Vec<_>>());
    }

    #[test]
    fn borders_are_exactly_the_vertices_with_an_edge_leaving() {
        for (g, h) in hierarchies() {
            for part in &h.parts {
                assert!(part.borders.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
                let inside = |v: NodeId| !h.outside(part.leaf_range, v);
                let want: Vec<NodeId> = g
                    .vertices()
                    .filter(|&v| inside(v) && g.neighbor_ids(v).iter().any(|&t| !inside(t)))
                    .collect();
                assert_eq!(part.borders, want);
            }
        }
    }

    #[test]
    fn local_ids_and_edge_lists_agree_with_the_graph() {
        for (g, h) in hierarchies() {
            for (i, part) in h.parts.iter().enumerate() {
                let i = i as u32;
                let positions = h.border_positions(i);
                if part.children.is_empty() {
                    let at = |p: u32| part.vertices[p as usize];
                    assert!(positions.iter().map(|&p| at(p)).eq(part.borders.iter().copied()));
                    let mut want: Vec<(NodeId, NodeId, Weight)> = Vec::new();
                    for &v in &part.vertices {
                        let inside =
                            g.neighbors(v).filter(|&(t, _)| h.leaf_of_vertex[t as usize] == i);
                        want.extend(inside.map(|(t, w)| (v, t, w)));
                    }
                    let got: Vec<_> =
                        h.leaf_edges(&g, i).iter().map(|&(a, b, w)| (at(a), at(b), w)).collect();
                    assert_eq!(got, want);
                    continue;
                }
                let (child_borders, offsets) = h.child_borders(i);
                assert_eq!(offsets.len(), part.children.len() + 1);
                for (ci, &c) in part.children.iter().enumerate() {
                    let run = &child_borders[offsets[ci] as usize..offsets[ci + 1] as usize];
                    assert_eq!(run, h.parts[c as usize].borders);
                }
                let at = |p: u32| child_borders[p as usize];
                assert!(positions.iter().map(|&p| at(p)).eq(part.borders.iter().copied()));
                let mut want: Vec<(NodeId, NodeId, Weight)> = Vec::new();
                for &v in &child_borders {
                    let joined = g.neighbors(v).filter(|&(t, _)| child_borders.contains(&t));
                    want.extend(joined.map(|(t, w)| (v, t, w)));
                }
                let got: Vec<_> =
                    h.cross_edges(&g, i).iter().map(|&(a, b, w)| (at(a), at(b), w)).collect();
                assert_eq!(got, want);
            }
        }
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
