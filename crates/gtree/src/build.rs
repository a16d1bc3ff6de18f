//! G-tree construction: bottom-up distance matrices over the shared partition
//! hierarchy (`rnknn_partition::hierarchy`: the recursion, the borders, the reduced
//! graphs' edge lists and the triangle rule) and the top-down exactness refinement.
//!
//! Matrix assembly is the scaling-critical phase and is organised level by level:
//!
//! * **leaves** — one multi-target Dijkstra per border, confined to the leaf's induced
//!   subgraph; independent leaves are fanned across scoped worker threads (the
//!   `knn_batch` pattern from `rnknn-core`);
//! * **internal nodes** — composed bottom-up from the children's already-computed
//!   matrices (border cliques + original cross edges), never re-running searches on the
//!   full graph; the per-row Dijkstras over the reduced border graph run on scoped
//!   worker threads because upper levels hold few nodes but many rows.
//!
//! The top-down refinement pass then upgrades every matrix from subgraph-restricted
//! to exact global distances using the parent's already-exact matrix as external
//! shortcut edges (docs/ARCHITECTURE.md, "G-tree construction"). It always runs:
//! every query reads matrix cells as global distances.

use rnknn_graph::{Graph, NodeId, Weight, INFINITY};
use rnknn_partition::hierarchy::{sparsify, Hierarchy};
use rnknn_pathfinding::dijkstra::LocalGraph;
use rnknn_pathfinding::heap::MinHeap;
use rnknn_persist::PVec;

use crate::distmatrix::{narrow, Cell, DistanceMatrix, CELL_INFINITY};
use crate::kernel::min_plus_into;
use crate::tree::{child_min_offsets, child_min_rows, Gtree, NodeIndex};

/// Configuration of G-tree construction.
#[derive(Debug, Clone)]
pub struct GtreeConfig {
    /// Fanout `f ≥ 2`: number of children per internal node. The paper uses 4.
    pub fanout: usize,
    /// Leaf capacity `τ`: maximum number of vertices per leaf. `0` (the default)
    /// is the paper's size rule ([`GtreeConfig::paper_leaf_capacity`], 64–512),
    /// resolved at build time; a built tree's [`Gtree::config`] reports the
    /// resolved value.
    pub leaf_capacity: usize,
    /// Worker threads for matrix assembly (`0` = one per available core). Construction
    /// is deterministic regardless of the thread count.
    pub build_threads: usize,
}

impl Default for GtreeConfig {
    fn default() -> Self {
        GtreeConfig { fanout: 4, leaf_capacity: 0, build_threads: 0 }
    }
}

impl GtreeConfig {
    /// Leaf capacity the paper uses for a network with `num_vertices` vertices
    /// (64 for DE up to 512 for the US-scale networks), applied to our scaled sizes.
    pub fn paper_leaf_capacity(num_vertices: usize) -> usize {
        match num_vertices {
            0..=2_999 => 64,
            3_000..=15_999 => 128,
            16_000..=79_999 => 256,
            _ => 512,
        }
    }

    /// Leaf capacity for a network with `num_vertices` vertices after resolving `0`
    /// to the paper's size rule.
    pub fn resolved_leaf_capacity(&self, num_vertices: usize) -> usize {
        match self.leaf_capacity {
            0 => Self::paper_leaf_capacity(num_vertices),
            tau => tau,
        }
    }

    /// Worker-thread count after resolving `0` to the available parallelism.
    pub fn resolved_threads(&self) -> usize {
        if self.build_threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.build_threads
        }
    }
}

/// Why a G-tree cannot be built over a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GtreeBuildError {
    /// Some distance the builder stores, or a query can form, does not fit the
    /// 32-bit cell range. The matrices hold exact distances or nothing: the graph
    /// is refused rather than the distance saturated into "unreachable".
    DistanceOutOfRange {
        /// The offending distance (a matrix cell, or twice a component's
        /// eccentricity — the bound on every pairwise distance in it).
        distance: Weight,
        /// The first distance that does not fit ([`CELL_INFINITY`]).
        limit: Weight,
    },
}

impl std::fmt::Display for GtreeBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GtreeBuildError::DistanceOutOfRange { distance, limit } => write!(
                f,
                "network distance {distance} does not fit the G-tree's 32-bit cells \
                 (distances must stay below {limit}); rescale the edge weights"
            ),
        }
    }
}

impl std::error::Error for GtreeBuildError {}

fn out_of_range(distance: Weight) -> GtreeBuildError {
    GtreeBuildError::DistanceOutOfRange { distance, limit: CELL_INFINITY as Weight }
}

/// A matrix whose rows are the given single-source distance vectors, each cell
/// range-checked on the way in.
fn matrix_from_rows(
    rows: impl ExactSizeIterator<Item = Vec<Weight>>,
    cols: usize,
) -> Result<DistanceMatrix, GtreeBuildError> {
    let mut cells: Vec<Cell> = Vec::with_capacity(rows.len() * cols);
    let num_rows = rows.len();
    for dist in rows {
        debug_assert_eq!(dist.len(), cols);
        for d in dist {
            cells.push(narrow(d).ok_or_else(|| out_of_range(d))?);
        }
    }
    Ok(DistanceMatrix::from_cells(num_rows, cols, cells.into()))
}

/// Refuses a graph on which a query could form a distance outside the cell range:
/// one SSSP per connected component, from its lowest-numbered vertex `r`. The
/// network is undirected, so every pairwise distance within the component is at
/// most `d(u, r) + d(r, v) <= 2·ecc(r)`; with that below the sentinel, no border
/// row a query materializes (each entry a true distance) can reach it.
fn check_distance_range(graph: &Graph) -> Result<(), GtreeBuildError> {
    let mut dist = vec![INFINITY; graph.num_vertices()];
    let mut heap: MinHeap<NodeId> = MinHeap::new();
    for root in graph.vertices() {
        if dist[root as usize] != INFINITY {
            continue;
        }
        dist[root as usize] = 0;
        heap.push(0, root);
        let mut eccentricity = 0;
        while let Some((d, v)) = heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            eccentricity = d; // pops are non-decreasing
            for (t, w) in graph.neighbors(v) {
                let nd = d + w;
                if nd < dist[t as usize] {
                    dist[t as usize] = nd;
                    heap.push(nd, t);
                }
            }
        }
        let bound = eccentricity.saturating_mul(2);
        if bound >= CELL_INFINITY as Weight {
            return Err(out_of_range(bound));
        }
    }
    Ok(())
}

impl Gtree {
    /// Builds a G-tree over `graph` with the default configuration (the paper's
    /// fanout and size-based leaf capacity).
    ///
    /// # Panics
    ///
    /// As [`Gtree::build_with_config`].
    pub fn build(graph: &Graph) -> Gtree {
        Self::build_with_config(graph, GtreeConfig::default())
    }

    /// Builds a G-tree with an explicit configuration.
    ///
    /// # Panics
    ///
    /// If the graph's distances do not fit the cell range; callers that take
    /// graphs from outside use [`Gtree::try_build_with_config`].
    pub fn build_with_config(graph: &Graph, config: GtreeConfig) -> Gtree {
        Self::try_build_with_config(graph, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a G-tree, or refuses a graph whose distances do not fit the 32-bit
    /// matrix cells (see [`GtreeBuildError`]).
    pub fn try_build_with_config(
        graph: &Graph,
        config: GtreeConfig,
    ) -> Result<Gtree, GtreeBuildError> {
        let leaf_capacity = config.resolved_leaf_capacity(graph.num_vertices());
        let config = GtreeConfig { leaf_capacity, ..config };
        check_distance_range(graph)?;
        let (hierarchy, leaves) = Hierarchy::build(graph, config.fanout, config.leaf_capacity);
        let border_positions = hierarchy.border_positions(&leaves);
        let matrices = vec![DistanceMatrix::new(0, 0, CELL_INFINITY); hierarchy.num_parts()];
        let child_min_offsets = child_min_offsets(&hierarchy);
        let mut tree = Gtree {
            hierarchy: hierarchy.into(),
            leaves,
            matrices,
            border_positions,
            child_min: PVec::new(),
            child_min_offsets,
            config,
        };
        let mut builder = Builder { graph, tree: &mut tree };
        builder.compute_matrices()?;
        builder.refine_matrices();
        tree.child_min = tree.compute_child_minima().into();
        Ok(tree)
    }

    /// The child-minimum table of the final matrices, node by node and child by
    /// child (see [`child_min_rows`] for which matrix rows each node keeps).
    fn compute_child_minima(&self) -> Vec<Cell> {
        let hierarchy = &self.hierarchy;
        let mut cells = Vec::with_capacity(*self.child_min_offsets.last().expect("n + 1 offsets"));
        for i in 0..self.num_nodes() as NodeIndex {
            let matrix = self.matrix(i);
            let row = |r: usize| match hierarchy.parent(i) {
                None => matrix.row(r),
                Some(_) => matrix.row(self.border_positions(i)[r] as usize),
            };
            for &c in hierarchy.children(i) {
                let base = hierarchy.base_in_parent(c);
                let block = base..base + hierarchy.borders(c).len();
                let least = |r| row(r)[block.clone()].iter().copied().min();
                let column = (0..child_min_rows(hierarchy, i)).map(least);
                cells.extend(column.map(|m| m.unwrap_or(CELL_INFINITY)));
            }
        }
        cells
    }
}

/// Minimum per-row work (in min-plus/relax operations, roughly) below which fanning a
/// matrix computation across threads costs more in spawn/join overhead than it saves;
/// callers drop to a single worker under this bound.
const MIN_PARALLEL_WORK: usize = 1 << 20;

// The min-plus kernel (`out[i] = min(out[i], s + addend[i])`, one portable loop run
// at the CPU's tier) lives in `crate::kernel`, shared with the query-side
// materialization sweep; see that module for the value contract.

/// Rows per refinement-sweep block: every border-row tile loaded in stage 2 is reused
/// by this many output rows before the next tile is streamed in, dividing the sweep's
/// memory traffic by the block height.
const SWEEP_ROW_BLOCK: usize = 16;

/// Columns per refinement-sweep tile: 1024 cells = 4 KiB, so one border-row tile
/// plus one output-row tile stay comfortably L1-resident while the innermost min-plus
/// loop runs over them.
const SWEEP_TILE_COLS: usize = 1024;

/// Runs `f` over `items` on up to `threads` scoped worker threads, returning results
/// in item order (the `Engine::knn_batch` fan-out pattern). Falls back to a plain loop
/// for a single worker or a single item.
fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Copy + Sync,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(|&i| f(i)).collect();
    }
    let chunk_len = items.len().div_ceil(threads.min(items.len()));
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || chunk.iter().map(|&i| f(i)).collect::<Vec<R>>()))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("G-tree build worker panicked")).collect()
    })
}

/// Fills the matrices of a tree whose topology is in place.
struct Builder<'a> {
    graph: &'a Graph,
    tree: &'a mut Gtree,
}

impl<'a> Builder<'a> {
    /// Node indexes grouped by depth (index 0 = root level).
    fn levels(&self) -> Vec<Vec<u32>> {
        let mut levels: Vec<Vec<u32>> = vec![Vec::new(); self.tree.height()];
        for i in 0..self.tree.num_nodes() as u32 {
            levels[self.tree.hierarchy.level(i) as usize].push(i);
        }
        levels
    }

    /// Bottom-up computation of all distance matrices, level-parallel: leaves run one
    /// multi-target Dijkstra per border confined to the leaf subgraph (leaves fanned
    /// across worker threads); internal nodes compose their children's matrices (rows
    /// fanned across worker threads). Every cell is range-checked as it is narrowed
    /// from the searches' `Weight`s; the first one that does not fit ends the build.
    fn compute_matrices(&mut self) -> Result<(), GtreeBuildError> {
        let threads = self.tree.config.resolved_threads();
        for level in self.levels().iter().rev() {
            let (leaves, internals): (Vec<u32>, Vec<u32>) =
                level.iter().partition(|&&i| self.tree.hierarchy.is_leaf(i));
            let this = &*self;
            let matrices = parallel_map(&leaves, threads, |i| this.leaf_matrix(i));
            for (&i, m) in leaves.iter().zip(matrices) {
                self.tree.matrices[i as usize] = m?;
            }
            for i in internals {
                self.tree.matrices[i as usize] = self.internal_matrix(i)?;
            }
        }
        Ok(())
    }

    /// Top-down refinement: upgrade matrices to exact global distances using the
    /// parent's already-exact matrix as "external shortcut" edges between this node's
    /// borders (docs/ARCHITECTURE.md, "G-tree construction"). The root is already exact
    /// (its restriction is the whole graph).
    ///
    /// Refinement never re-runs a search: a node's pass-1 matrix `M` is already the
    /// all-pairs closure of its restricted graph, and the external matrix `ext` holds
    /// *exact global* distances between the node's own borders, so a globally-shortest
    /// path between two matrix endpoints decomposes as inside-segment + one external
    /// hop + inside-segment (the hop from first-exit border `a` to last-entry border
    /// `d` is bounded below by `ext[a][d]`, whatever the excursion does in between).
    /// One min-plus sweep therefore yields exactness:
    /// `refined[x][y] = min(M[x][y], min_{a,d} M[x][a] + ext[a][d] + M[d][y])`.
    fn refine_matrices(&mut self) {
        // The root is level 0; every other node has a parent.
        for level in self.levels().iter().skip(1) {
            for &i in level {
                let ext = self.external_matrix(i);
                let (matrix, pos) = (self.tree.matrix(i), self.tree.border_positions(i));
                let refined = if self.tree.hierarchy.is_leaf(i) {
                    // Border `a`'s matrix column is its leaf position; border `d`'s
                    // matrix row is its border index. Leaf matrices are rectangular
                    // (borders × vertices), so the full sweep applies.
                    let rows: Vec<u32> = (0..pos.len() as u32).collect();
                    self.apply_external(matrix, pos, &rows, &ext, false)
                } else {
                    // Internal matrices are symmetric (undirected network), so the
                    // sweep only computes the upper triangle and mirrors.
                    self.apply_external(matrix, pos, pos, &ext, true)
                };
                self.tree.matrices[i as usize] = refined;
            }
        }
    }

    /// Exact distances between every ordered pair of node `i`'s own borders, read from
    /// the parent's (already refined) matrix as a flat `nb × nb` row-major array.
    fn external_matrix(&self, i: u32) -> Vec<Cell> {
        let hierarchy = &self.tree.hierarchy;
        let parent_matrix = self.tree.matrix(hierarchy.parent(i).expect("non-root"));
        let base = hierarchy.base_in_parent(i);
        let nb = hierarchy.borders(i).len();
        let mut ext = Vec::with_capacity(nb * nb);
        for a in 0..nb {
            ext.extend_from_slice(&parent_matrix.row(base + a)[base..base + nb]);
        }
        ext
    }

    /// One min-plus refinement sweep (see [`Builder::refine_matrices`]): returns
    /// `refined[x][y] = min(m[x][y], min_{a,d} m[x][border_cols[a]] + ext[a*nb+d] +
    /// m[border_rows[d]][y])`. Every sum is a finite cell plus a cell, which cannot
    /// wrap (`crate::kernel`), and every result is a min with the pass-1 value, so
    /// the refined matrix stays in cell range by construction.
    ///
    /// The sweep is organised for the cache and the vectoriser, which is what lets
    /// construction cross the 500k-vertex mark on one core:
    ///
    /// * **row blocks × column tiles** — rows are processed [`SWEEP_ROW_BLOCK`] at a
    ///   time against [`SWEEP_TILE_COLS`]-wide column tiles, so each border row tile
    ///   (the stage-2 operand streamed `rows` times by a naive sweep) is loaded once
    ///   per row *block* and stays L1-resident while every row in the block consumes
    ///   it;
    /// * **bounds-check-free inner loop** — the innermost min-plus runs over
    ///   equal-length slices (`zip`), which the compiler turns into branch-free SIMD;
    /// * **symmetric (triangle-only) mode** — internal-node matrices are symmetric
    ///   (the network is undirected), so only column tiles at or above each row
    ///   block's diagonal are computed and the strict lower triangle is mirrored
    ///   afterwards, halving the sweep. Leaf matrices (borders × vertices,
    ///   rectangular) use the full sweep.
    ///
    /// Row blocks are fanned across worker threads when the matrix is big enough.
    fn apply_external(
        &self,
        m: &DistanceMatrix,
        border_cols: &[u32],
        border_rows: &[u32],
        ext: &[Cell],
        symmetric: bool,
    ) -> DistanceMatrix {
        let rows = m.rows();
        let cols = m.cols();
        let nb = border_cols.len();
        let mflat = m.cells();
        debug_assert!(
            !symmetric
                || (rows == cols
                    && (0..rows.min(64))
                        .all(|x| (0..x).all(|y| mflat[x * cols + y] == mflat[y * cols + x]))),
            "symmetric sweep requested for an asymmetric matrix"
        );
        // The border rows, gathered contiguously so stage 2 streams them in order.
        let border_row_flat: Vec<Cell> =
            border_rows.iter().flat_map(|&d| m.row(d as usize).iter().copied()).collect();
        let block_starts: Vec<usize> = (0..rows).step_by(SWEEP_ROW_BLOCK).collect();
        let border_row_flat = &border_row_flat;
        let threads = if rows * cols * nb.max(1) >= MIN_PARALLEL_WORK {
            self.tree.config.resolved_threads()
        } else {
            1
        };
        let refined_blocks = parallel_map(&block_starts, threads, |r0| {
            let r1 = (r0 + SWEEP_ROW_BLOCK).min(rows);
            // Stage 1: per-row best_via, computed row-major (contiguous `ext` row +
            // contiguous output = branch-free SIMD min-plus), then transposed to
            // d-major (`via[d * rb + r]`) so stage 2 reads the block's d-column
            // contiguously.
            let rb = r1 - r0;
            let mut via_rows = vec![CELL_INFINITY; rb * nb];
            for (ri, x) in (r0..r1).enumerate() {
                let mx = &mflat[x * cols..(x + 1) * cols];
                let out = &mut via_rows[ri * nb..(ri + 1) * nb];
                for (a, &ca) in border_cols.iter().enumerate() {
                    let base = mx[ca as usize];
                    if base >= CELL_INFINITY {
                        continue;
                    }
                    min_plus_into(out, base, &ext[a * nb..(a + 1) * nb]);
                }
            }
            let mut via = vec![CELL_INFINITY; nb * rb];
            for ri in 0..rb {
                for d in 0..nb {
                    via[d * rb + ri] = via_rows[ri * nb + d];
                }
            }
            // Stage 2, tiled: under `symmetric` only columns >= r0 are computed
            // (every (x, y >= x) pair lands in some block with r0 <= x <= y); the
            // mirror pass below fills the strict lower triangle.
            // Triangle mode: columns start at the row block's first row (every
            // needed (x, y >= x) pair still lands in the block, since y >= x >= r0).
            let c_base = if symmetric { r0 } else { 0 };
            let out_stride = cols - c_base;
            let mut out: Vec<Cell> = Vec::with_capacity(rb * out_stride);
            for x in r0..r1 {
                out.extend_from_slice(&mflat[x * cols + c_base..(x + 1) * cols]);
            }
            let mut c0 = c_base;
            while c0 < cols {
                let c1 = (c0 + SWEEP_TILE_COLS).min(cols);
                for d in 0..nb {
                    let mrow = &border_row_flat[d * cols + c0..d * cols + c1];
                    let via_d = &via[d * rb..(d + 1) * rb];
                    for (ri, &s) in via_d.iter().enumerate() {
                        if s >= CELL_INFINITY {
                            continue;
                        }
                        let start = ri * out_stride + (c0 - c_base);
                        let tile = &mut out[start..start + mrow.len()];
                        min_plus_into(tile, s, mrow);
                    }
                }
                c0 = c1;
            }
            (r0, c_base, out)
        });
        // Start from the pass-1 cells: columns below a block's aligned start were
        // skipped by the triangle sweep and keep their pass-1 values until the mirror
        // pass below overwrites them with the refined transposes.
        let mut refined = mflat.to_vec();
        for (r0, c_base, block) in &refined_blocks {
            for (ri, values) in block.chunks(cols - c_base).enumerate() {
                let x = r0 + ri;
                refined[x * cols + c_base..(x + 1) * cols].copy_from_slice(values);
            }
        }
        if symmetric {
            // Mirror the computed upper part into the strict lower triangle. Only
            // entries with y < x's block-aligned start were skipped, but mirroring
            // the whole triangle is cheap and keeps the invariant obvious.
            for x in 0..rows {
                for y in 0..x {
                    refined[x * cols + y] = refined[y * cols + x];
                }
            }
        }
        debug_assert!(refined.iter().all(|&c| c <= CELL_INFINITY), "refined cell out of range");
        DistanceMatrix::from_cells(rows, cols, refined.into())
    }

    /// Computes a leaf's (subgraph-restricted) border-to-vertex matrix: one
    /// multi-target Dijkstra per border, confined to the leaf's induced subgraph.
    fn leaf_matrix(&self, i: u32) -> Result<DistanceMatrix, GtreeBuildError> {
        let n_local = self.tree.leaf_vertices(i).len();
        let edges = self.tree.hierarchy.leaf_edges(self.graph, &self.tree.leaves, i);
        let local = LocalGraph::from_edges(n_local, &edges);
        matrix_from_rows(self.tree.border_positions(i).iter().map(|&pos| local.sssp(pos)), n_local)
    }

    /// Composes an internal node's (subgraph-restricted) child-border-to-child-border
    /// matrix over the reduced graph: the original cross edges between its children,
    /// plus every child's border-to-border distances as intra-child edges — thinned by
    /// the hierarchy's triangle rule ([`sparsify`]), which is what keeps the
    /// upper-level compositions from dominating the build. Row Dijkstras are fanned
    /// across worker threads.
    fn internal_matrix(&self, i: u32) -> Result<DistanceMatrix, GtreeBuildError> {
        let hierarchy = &self.tree.hierarchy;
        let n_local = hierarchy.child_borders(i).len();
        let mut edges = hierarchy.cross_edges(self.graph, i);
        for &c in hierarchy.children(i) {
            let (base, positions) =
                (hierarchy.base_in_parent(c) as u32, self.tree.border_positions(c));
            let nb = positions.len();
            // Flat border-to-border submatrix of the child (symmetric: the network is
            // undirected).
            let mut sub: Vec<Cell> = Vec::with_capacity(nb * nb);
            for a in 0..nb {
                let row = if hierarchy.is_leaf(c) { a } else { positions[a] as usize };
                let row = self.tree.matrix(c).row(row);
                sub.extend(positions.iter().map(|&b| row[b as usize]));
            }
            let kept = sparsify(&sub, nb, CELL_INFINITY);
            edges.extend(kept.iter().map(|&(a, b, d)| (base + a, base + b, d as Weight)));
        }

        let local = LocalGraph::from_edges(n_local, &edges);
        let rows: Vec<u32> = (0..n_local as u32).collect();
        let threads = if n_local * edges.len().max(n_local) >= MIN_PARALLEL_WORK {
            self.tree.config.resolved_threads()
        } else {
            1
        };
        let dists = parallel_map(&rows, threads, |row| local.sssp(row));
        matrix_from_rows(dists.into_iter(), n_local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distmatrix::widen;
    use crate::tree::NodeIndex;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::EdgeWeightKind;
    use rnknn_pathfinding::dijkstra;

    fn build_test_tree(n: usize, seed: u64, tau: usize) -> (Graph, Gtree) {
        let net = RoadNetwork::generate(&GeneratorConfig::new(n, seed));
        let g = net.graph(EdgeWeightKind::Distance);
        let config = GtreeConfig { leaf_capacity: tau, ..Default::default() };
        let tree = Gtree::build_with_config(&g, config);
        (g, tree)
    }

    #[test]
    fn structure_invariants_hold() {
        let (g, tree) = build_test_tree(800, 42, 32);
        let h = tree.hierarchy();
        // Every vertex belongs to exactly one leaf, at the recorded position.
        for v in g.vertices() {
            let leaf = tree.leaf_of(v);
            assert!(h.is_leaf(leaf));
            assert!(tree.leaf_vertices(leaf).len() <= 32);
            assert_eq!(tree.leaf_vertices(leaf)[tree.position_in_leaf(v) as usize], v);
        }
        // Leaf ranges of children tile the parent's range; borders of a node are borders
        // of one of its children.
        for i in (0..tree.num_nodes() as NodeIndex).filter(|&i| !h.is_leaf(i)) {
            let range = h.leaf_range(i);
            let mut covered = 0;
            for &c in h.children(i) {
                let r = h.leaf_range(c);
                covered += r.1 - r.0;
                assert!(range.0 <= r.0 && r.1 <= range.1);
                assert_eq!(h.parent(c), Some(i));
            }
            assert_eq!(covered, range.1 - range.0);
            for b in h.borders(i) {
                assert!(
                    h.child_borders(i).contains(b),
                    "border {b} of node {i} is not a border of any child"
                );
            }
        }
        // The root has no borders (no edges leave the whole graph).
        assert!(h.borders(tree.root()).is_empty());
        assert!(tree.height() >= 2);
        assert!(tree.memory_bytes() > 0);
    }

    #[test]
    fn borders_have_outside_neighbors() {
        let (g, tree) = build_test_tree(600, 7, 50);
        let h = tree.hierarchy();
        for node in 1..tree.num_nodes() as NodeIndex {
            let range = h.leaf_range(node);
            for &b in h.borders(node) {
                let outside = g.neighbor_ids(b).iter().any(|&t| {
                    let tl = h.leaf_range(tree.leaf_of(t)).0;
                    tl < range.0 || tl >= range.1
                });
                assert!(outside, "border {b} has no neighbor outside its node");
            }
        }
    }

    #[test]
    fn leaf_matrix_distances_are_exact_global() {
        let (g, tree) = build_test_tree(500, 3, 40);
        // For a sample of leaves, border-to-vertex matrix entries must equal Dijkstra
        // distances on the full graph (thanks to the refinement pass).
        let h = tree.hierarchy();
        for leaf in (0..tree.num_nodes() as NodeIndex).filter(|&i| h.is_leaf(i)).take(5) {
            for (row, &b) in h.borders(leaf).iter().enumerate().take(3) {
                for (col, &v) in tree.leaf_vertices(leaf).iter().enumerate().step_by(7) {
                    assert_eq!(
                        widen(tree.matrix(leaf).get(row, col)),
                        dijkstra::distance(&g, b, v),
                        "leaf matrix {b}->{v}"
                    );
                }
            }
        }
    }

    #[test]
    fn internal_matrix_distances_are_exact_global() {
        let (g, tree) = build_test_tree(700, 9, 40);
        let h = tree.hierarchy();
        for node in (0..tree.num_nodes() as NodeIndex).filter(|&i| !h.is_leaf(i)).take(4) {
            let cb = h.child_borders(node);
            for i in (0..cb.len()).step_by(5) {
                for j in (0..cb.len()).step_by(7) {
                    assert_eq!(
                        widen(tree.matrix(node).get(i, j)),
                        dijkstra::distance(&g, cb[i], cb[j]),
                        "matrix {}->{}",
                        cb[i],
                        cb[j]
                    );
                }
            }
        }
    }

    #[test]
    fn single_leaf_graph_is_supported() {
        let (g, tree) = build_test_tree(60, 5, 128);
        assert_eq!(tree.num_nodes(), 1);
        assert!(tree.hierarchy().is_leaf(tree.root()));
        assert!(tree.hierarchy().borders(tree.root()).is_empty());
        assert_eq!(tree.leaf_vertices(tree.root()).len(), g.num_vertices());
    }

    #[test]
    fn paper_leaf_capacities() {
        assert_eq!(GtreeConfig::paper_leaf_capacity(1_500), 64);
        assert_eq!(GtreeConfig::paper_leaf_capacity(12_000), 128);
        assert_eq!(GtreeConfig::paper_leaf_capacity(24_000), 256);
        assert_eq!(GtreeConfig::paper_leaf_capacity(200_000), 512);
        let config = GtreeConfig::default();
        assert_eq!(config.resolved_leaf_capacity(24_000), 256);
        assert_eq!(GtreeConfig { leaf_capacity: 40, ..config }.resolved_leaf_capacity(24_000), 40);
    }

    /// Every `build_threads` setting must produce cell-for-cell identical matrices —
    /// the worker count is a performance knob, not a semantics knob.
    #[test]
    fn build_strategies_agree_cell_for_cell() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(700, 21));
        let g = net.graph(EdgeWeightKind::Distance);
        let reference = Gtree::build_with_config(
            &g,
            GtreeConfig { leaf_capacity: 40, build_threads: 1, ..Default::default() },
        );
        let variants = [
            GtreeConfig { leaf_capacity: 40, build_threads: 2, ..Default::default() },
            GtreeConfig { leaf_capacity: 40, build_threads: 4, ..Default::default() },
        ];
        for config in variants {
            let tree = Gtree::build_with_config(&g, config.clone());
            assert_eq!(tree.hierarchy(), reference.hierarchy());
            for (a, b) in tree.matrices().iter().zip(reference.matrices()) {
                assert_eq!(a.rows(), b.rows());
                assert_eq!(a.cols(), b.cols());
                assert_eq!(a.cells(), b.cells(), "cells under {config:?}");
            }
        }
    }

    /// The composed/refined matrices must equal a naive per-pair global-Dijkstra build
    /// — the composition never substitutes for a search it shouldn't.
    #[test]
    fn composition_matches_naive_per_pair_build() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(350, 17));
        let g = net.graph(EdgeWeightKind::Time);
        let tree =
            Gtree::build_with_config(&g, GtreeConfig { leaf_capacity: 32, ..Default::default() });
        let h = tree.hierarchy();
        for node in 0..tree.num_nodes() as NodeIndex {
            // Leaf: borders × vertices; internal: child borders × child borders.
            let (from, to) = if h.is_leaf(node) {
                (h.borders(node), tree.leaf_vertices(node))
            } else {
                (h.child_borders(node), h.child_borders(node))
            };
            for (row, &a) in from.iter().enumerate() {
                let truth = dijkstra::single_source(&g, a);
                for (col, &b) in to.iter().enumerate() {
                    assert_eq!(
                        widen(tree.matrix(node).get(row, col)),
                        truth[b as usize],
                        "{a}->{b}"
                    );
                }
            }
        }
    }
}
