//! G-tree queries: materialized distance assembly, the kNN algorithm (with both leaf
//! searches) and the MGtree point-to-point oracle.
//!
//! All per-query state is pooled in a thread-local [`SearchStore`]: per-node
//! border-distance rows, the kNN traversal queue and the source-leaf search, which
//! runs on a [`SearchScratch`] — the same stamped distance/settled tables and heap
//! every other expansion search uses, so "clearing" between queries is one stamp
//! bump instead of an O(τ) wipe.
//! [`GtreeSearch::new`] takes the store from the pool and `Drop` returns it, so the
//! steady-state kNN query performs **zero heap allocations** — materializing a node
//! reuses that node's row buffer from earlier queries, keyed by a query stamp
//! instead of freshly zeroed vectors. [`GtreeSearch::reset`] re-arms an existing
//! search for a new source (one stamp bump), which is how the IER-Gt oracle hops
//! between sources without touching the allocator.
//!
//! The query-side optimisations (see `docs/METHODS.md` "Query performance"):
//!
//! * **SIMD min-plus assembly** — the row-major sweep `dist[b] = min(dist[b],
//!   src[a] + M[a][b])` over the contiguous matrix arena runs the shared
//!   [`crate::kernel`] min-plus loop (one portable body, compiled per CPU tier by
//!   `rnknn_persist::simd`), the same code the build-side refinement sweep runs.
//!   Border rows are 32-bit cells like the matrices they are swept against; a
//!   distance widens to `Weight` (sentinel → [`INFINITY`]) where it becomes a queue
//!   key or a result.
//! * **Bound-pruned materialization** — once the kNN search holds `k` candidate
//!   distances, their maximum `B` upper-bounds the final answer: source borders
//!   whose distance exceeds `B` are skipped, materialized entries above `B` are
//!   clamped to "unreachable", and whole nodes whose best entry distance exceeds
//!   `B` are never enqueued. Every value `<= B` stays exact (an inflated value is
//!   always `> B`), so results are unchanged; rows remember the bound they were
//!   materialized under and are recomputed when a later caller needs them exact
//!   (`row_bound` in [`SearchStore`]).
//! * **Materialize on pop** — the kNN search assembles an off-path node's border
//!   row only when it pops the node. The queue key of a popped node's child is
//!   `min_i (d_i + T[i][c])` over the node's source borders `i`, read from the
//!   tree's child-minimum table `T` (per source border, the least matrix cell of
//!   each child's column block): one cell per border instead of a sweep of the
//!   child's whole block, exact whenever it is `<= B` like every other value.
//! * **Climb fill** — climbing from the on-path child to a node's own borders
//!   sweeps the on-path child's full matrix rows into one buffer, and every other
//!   child's border row is a block of that buffer: the climb copies each one out,
//!   so a sibling's row (and key) costs no matrix read of its own. The kNN search
//!   climbs before it enqueues siblings, and the IER-Gt oracle shares the path.
//! * **Entry borders** — every sweep (climb, descend, child keys) reads only the
//!   *entry borders* of its source row. Walking the row's entries `d_j` up to the
//!   sweep's bound in `(distance, index)` order, border `j` is skipped when a
//!   border `k` of the same node kept before it has `d_k + D(k, j) <= d_j`, with
//!   `D` the node's diagonal block in its parent's matrix. Refined matrices hold
//!   global distances, so for every column `m`, `d_k + M[k][m] <= d_k + D(k, j) +
//!   M[j][m] <= d_j + M[j][m]`: the minimum over the kept rows is the minimum over
//!   all rows, column by column, and child-minimum keys are unchanged for the same
//!   reason. A skipped border's dominator was kept earlier, so ties and
//!   zero-weight edges never drop both ends of a pair. The test is one SIMD
//!   min-plus of each kept border's block row into a pooled buffer; the list is
//!   built the first time its row is a sweep source and serves every later sweep
//!   under a bound no looser than its own (see `GtreeSearch::ensure_entries`).
//! * **Seeded leaf search** — one Dijkstra over the source leaf serves the kNN
//!   query and the oracle's same-leaf distances. It starts at the source (0) and at
//!   every border `b` of the leaf at `d(q, b)`, the source's column of the leaf
//!   matrix (the leaf's own border row), and relaxes only edges inside the leaf.
//!   The refined leaf matrix holds global distances, and a shortest path to a leaf
//!   vertex enters the leaf for the last time at a border, so every vertex settles
//!   at its global distance: `nb` seeds stand in for the `nb²` border-to-border
//!   shortcuts of the paper's Algorithm 4. The kNN query stops it at the leaf's
//!   last wanted object; the oracle resumes it only until its target settles or
//!   the frontier passes its bound.
//!
//! Rows are mutated strictly in place (disjoint borrows via `get_disjoint_mut`
//! instead of take-and-restore), so a panic mid-materialization can never leave a
//! row emptied-but-marked-valid: the interrupted node's stamp is simply never
//! set, and the next query rematerializes it.

use std::cell;

use rnknn_graph::{Graph, NodeId, Weight, INFINITY};
use rnknn_pathfinding::budget::{QueryBudget, UNLIMITED};
use rnknn_pathfinding::heap::MinHeap;
use rnknn_pathfinding::scratch::{SearchScratch, Stamped};

use crate::distmatrix::{narrow_bound, widen, Cell, CELL_INFINITY};
use crate::kernel;
use crate::occurrence::OccurrenceList;
use crate::tree::{Gtree, NodeIndex};

/// Reusable per-search materialization state, pooled per thread. Border-distance
/// rows are validated by a stamp: a row with no `row_bound` entry this search is
/// "not materialized", so starting a new search (or [`GtreeSearch::reset`]) is one
/// stamp bump — the row buffers keep their capacity and are refilled in place when
/// their node is next materialized.
#[derive(Debug, Default)]
struct SearchStore {
    /// Per G-tree node: distances from the source to the node's borders.
    rows: Vec<Vec<Cell>>,
    /// Per row materialized this search: the kNN bound it was materialized under
    /// ([`CELL_INFINITY`] = exact). Entries above the bound were clamped, so a later
    /// caller that needs the row under a looser bound must rematerialize it; see
    /// [`GtreeSearch::ensure_border_distances`].
    row_bound: Stamped<Cell>,
    /// Per G-tree node: the entry borders of its row (see the module docs), as row
    /// indices in `(distance, index)` order. Built the first time the row is a
    /// sweep source.
    entries: Vec<Vec<u32>>,
    /// Per entry list built this search: the sweep bound it was built under (see
    /// [`GtreeSearch::ensure_entries`]); `None` while it is being rebuilt.
    entry_bound: Stamped<Option<Cell>>,
    /// The row entries an entry list is built from (finite and within its bound),
    /// packed as `distance << 32 | index` so one integer sort orders them.
    entry_order: Vec<u64>,
    /// The least `d_k + D(k, j)` over the borders `k` kept so far, per border `j`.
    dominated: Vec<Cell>,
    /// The source-leaf search, over leaf positions (see the module docs).
    leaf: SearchScratch,
    /// True while `leaf` holds a seeded search with every label exact or
    /// tentative, which a same-leaf distance may resume. Cleared when a search
    /// begins and while one advances, so neither an unseeded (`Original`) search
    /// nor one a panic interrupted is ever resumed.
    leaf_resumable: bool,
    /// The kNN traversal queue.
    queue: MinHeap<Element>,
    /// Full-matrix-width scratch for the climb-case SIMD sweep (the node's own
    /// borders sit at scattered columns; sweeping the whole contiguous row into
    /// this buffer and gathering afterwards beats a strided per-column walk).
    wide: Vec<Cell>,
    /// The `min(k, discovered)` smallest candidate distances seen by the current
    /// kNN query, sorted ascending. Full at `k` entries, its maximum is the
    /// pruning bound `B` (see the module docs).
    knn_cand: Vec<Weight>,
    /// Off-path nodes assembled by descending during the current kNN query, for
    /// the materialize-on-pop assertion.
    #[cfg(test)]
    descended: Vec<NodeIndex>,
}

impl SearchStore {
    /// Starts a new search over a tree of `n` nodes: grows the per-node arrays if
    /// this store has only seen smaller trees, clears the queue and candidate
    /// bound, and invalidates every row.
    fn begin(&mut self, n: usize) {
        if self.rows.len() < n {
            self.rows.resize_with(n, Vec::new);
            self.entries.resize_with(n, Vec::new);
        }
        self.row_bound.begin(n);
        self.entry_bound.begin(n);
        self.leaf_resumable = false;
        self.queue.clear();
        self.knn_cand.clear();
    }
}

thread_local! {
    /// One pooled [`SearchStore`] per thread: `GtreeSearch::new` takes it,
    /// `Drop` puts it back (keeping the larger of the two on collisions), so
    /// back-to-back searches on a thread reuse all materialization buffers.
    static STORE_POOL: cell::Cell<Option<SearchStore>> = const { cell::Cell::new(None) };
}

/// Where the test-only fault injector can fire.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Entering the assembly of a row from matrix cells.
    Assembly,
    /// Entering a sibling's row fill inside a climb.
    Fill,
    /// Keeping a border in an entry list, before its dominance row is swept.
    Entry,
    /// Between settling a source-leaf vertex and relaxing its edges.
    Leaf,
}

#[cfg(test)]
thread_local! {
    /// Test-only fault injection: `Some((site, n))` makes the `n+1`-th pass through
    /// `site` on this thread panic (see the panic-safety regression test).
    static FAIL_AFTER: cell::Cell<Option<(Fault, u32)>> = const { cell::Cell::new(None) };
}

#[cfg(test)]
fn fault_tick(site: Fault) {
    FAIL_AFTER.with(|c| match c.get() {
        Some((armed, 0)) if armed == site => {
            c.set(None);
            panic!("injected {site:?} panic");
        }
        Some((armed, n)) if armed == site => c.set(Some((armed, n - 1))),
        _ => {}
    });
}

/// Operation counters for one G-tree search. `border_computations` is the "path cost"
/// series of Figure 9(b); `materialized_nodes` counts how many node border-distance
/// vectors were computed (and therefore reused by later traversals).
#[derive(Debug, Clone, Copy, Default)]
pub struct GtreeSearchStats {
    /// Border-to-border matrix-cell combinations evaluated during assembly, and
    /// border-to-child combinations read from the child-minimum table for keys.
    pub border_computations: u64,
    /// G-tree nodes whose border distances were assembled from matrix cells (a
    /// sibling row a climb fills from its own sweep is not counted).
    pub materialized_nodes: u64,
    /// Priority-queue pushes performed by the kNN search.
    pub heap_pushes: u64,
    /// Vertices settled by leaf searches.
    pub leaf_vertices_settled: u64,
    /// Distance-matrix and child-minimum-table cells read, counted in per-row
    /// batches (a contiguous row sweep counts every cell it touches, a per-cell
    /// gather the cells it reads).
    pub matrix_cells: u64,
    /// Source-row entries an entry-list build kept as entry borders (every finite
    /// entry within the bound it was built under is either kept or dominated).
    pub entry_rows: u64,
    /// Source-row entries an entry-list build skipped as dominated by an entry
    /// border of the same node (see the module docs): rows no sweep reads.
    pub dominated_rows: u64,
}

/// Which leaf-search algorithm the kNN query uses within the query vertex's leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafSearchMode {
    /// The improved leaf search of Appendix A.2.1 (default): a single Dijkstra over the
    /// leaf subgraph that reaches every leaf vertex at its global distance, stopping at
    /// the leaf's `min(k, objects)`-th object. Where the paper relaxes exact
    /// border-to-border shortcuts, this search starts every border at its distance from
    /// the source (see the module docs).
    Improved,
    /// The original G-tree leaf search: settle every leaf object with a restricted
    /// Dijkstra, then additionally evaluate the path through the borders for each.
    Original,
}

/// Elements of the kNN priority queue.
#[derive(Debug, Clone, Copy)]
enum Element {
    Node(NodeIndex),
    Object(NodeId),
}

/// A per-query (or per-source) search context over a G-tree.
///
/// The context memoizes, for every visited G-tree node, the distances from the source to
/// that node's borders — the paper's "materialization" property. Reusing one context for
/// many distance queries from the same source (as IER-Gt does) amortises the assembly
/// work; the kNN algorithm uses the same cache internally. The memo's storage comes
/// from a thread-local pool (see the module docs), so constructing a search per query
/// allocates nothing in steady state; [`GtreeSearch::reset`] re-arms the same search
/// for a new source.
#[derive(Debug)]
pub struct GtreeSearch<'a> {
    gtree: &'a Gtree,
    graph: &'a Graph,
    source: NodeId,
    source_leaf: NodeIndex,
    /// Pooled materialization state (border rows, same-leaf cache, kNN queue);
    /// returns to the thread pool on drop.
    store: SearchStore,
    /// Cooperative cancellation: charged per materialized matrix cell, per kNN
    /// traversal step and per leaf-search settle. Defaults to [`UNLIMITED`].
    budget: &'a QueryBudget,
    /// Operation counters.
    pub stats: GtreeSearchStats,
}

impl<'a> Drop for GtreeSearch<'a> {
    fn drop(&mut self) {
        let store = std::mem::take(&mut self.store);
        STORE_POOL.with(|pool| {
            let keep = match pool.take() {
                Some(existing) if existing.rows.len() >= store.rows.len() => existing,
                _ => store,
            };
            pool.set(Some(keep));
        });
    }
}

impl<'a> GtreeSearch<'a> {
    /// Creates a search context for queries originating at `source`, taking its
    /// materialization store from the thread-local pool (zero allocations when a
    /// previous search on this thread has warmed the pool).
    pub fn new(gtree: &'a Gtree, graph: &'a Graph, source: NodeId) -> Self {
        let mut store = STORE_POOL.with(|pool| pool.take()).unwrap_or_default();
        store.begin(gtree.num_nodes());
        GtreeSearch {
            gtree,
            graph,
            source,
            source_leaf: gtree.leaf_of(source),
            store,
            budget: &UNLIMITED,
            stats: GtreeSearchStats::default(),
        }
    }

    /// Attaches a [`QueryBudget`]: materialization charges one step per matrix
    /// cell touched, the kNN traversal one per queue pop, and the leaf searches
    /// one per settled vertex. Once the budget exhausts, distance queries return
    /// [`INFINITY`] and the kNN traversal stops early with a truncated result.
    pub fn set_budget(&mut self, budget: &'a QueryBudget) {
        self.budget = budget;
    }

    /// Re-arms this search for a new source: one stamp bump invalidates every
    /// materialized row (their buffers are kept and refilled lazily) and the
    /// counters restart. Equivalent to — but much cheaper than — constructing a
    /// fresh search, and the way long-lived consumers (the IER-Gt oracle) hop
    /// between sources.
    pub fn reset(&mut self, source: NodeId) {
        self.store.begin(self.gtree.num_nodes());
        self.source = source;
        self.source_leaf = self.gtree.leaf_of(source);
        self.stats = GtreeSearchStats::default();
    }

    /// The source vertex of this context.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Exact network distance from the source to `target` (the MGtree oracle).
    pub fn distance_to(&mut self, target: NodeId) -> Weight {
        self.distance_to_within(target, INFINITY)
    }

    /// Bounded network distance: exact whenever the true distance is `<= bound`
    /// (in particular, whenever the returned value is `< bound`), and some value
    /// `> bound` — possibly [`INFINITY`] — otherwise. Materialization prunes
    /// against `bound`, which is how the IER-Gt oracle skips assembly work for
    /// candidates that cannot beat its current k-th neighbor.
    pub fn distance_to_within(&mut self, target: NodeId, bound: Weight) -> Weight {
        if target == self.source {
            return 0;
        }
        if self.budget.is_exhausted() {
            return INFINITY;
        }
        let target_leaf = self.gtree.leaf_of(target);
        if target_leaf == self.source_leaf {
            return self.same_leaf_distance(target, bound);
        }
        self.via_border_distance(target_leaf, target, bound)
    }

    /// The distance to a vertex of the source's own leaf under the
    /// [`GtreeSearch::distance_to_within`] contract: the seeded leaf search, resumed
    /// until `target` settles or the frontier passes `bound`. In the second case the
    /// target's tentative label is a real path length, so it is never below the true
    /// distance, and the true distance is at least the frontier, above `bound`.
    fn same_leaf_distance(&mut self, target: NodeId, bound: Weight) -> Weight {
        if !self.store.leaf_resumable {
            self.begin_leaf_search(true);
        }
        self.store.leaf_resumable = false;
        let pos = self.gtree.position_in_leaf(target);
        loop {
            let leaf = &self.store.leaf;
            if leaf.visited.is_settled(pos) || leaf.heap.peek_key().is_none_or(|d| d > bound) {
                break;
            }
            if self.settle_leaf_vertex().is_none() {
                break;
            }
        }
        if self.budget.is_exhausted() {
            return INFINITY;
        }
        self.store.leaf_resumable = true;
        self.store.leaf.visited.dist(pos)
    }

    /// `min_b dist(source, b) + matrix(b, target)` over the borders of `leaf`.
    /// Exact whenever the true via-border distance is `<= bound`; borders whose
    /// source distance already exceeds the bound are skipped.
    fn via_border_distance(&mut self, leaf: NodeIndex, target: NodeId, bound: Weight) -> Weight {
        let bound = narrow_bound(bound);
        self.ensure_border_distances(leaf, bound);
        let gtree = self.gtree;
        let matrix = gtree.matrix(leaf);
        let col = gtree.position_in_leaf(target) as usize;
        let dists = &self.store.rows[leaf as usize];
        let mut best = INFINITY;
        let mut combinations = 0u64;
        for (bi, &d) in dists.iter().enumerate() {
            if d == CELL_INFINITY || d > bound {
                continue;
            }
            let m = matrix.get(bi, col);
            combinations += 1;
            if m != CELL_INFINITY {
                best = best.min(d as Weight + m as Weight);
            }
        }
        self.stats.border_computations += combinations;
        self.stats.matrix_cells += combinations;
        best
    }

    /// Minimum distance from the source to any border of `node` (the priority-queue
    /// key for G-tree nodes) under a pruning bound: exact whenever the true minimum
    /// is `<= bound`, some value `> bound` otherwise.
    fn min_border_distance_bounded(&mut self, node: NodeIndex, bound: Weight) -> Weight {
        self.ensure_border_distances(node, narrow_bound(bound));
        self.store.rows[node as usize].iter().copied().min().map_or(INFINITY, widen)
    }

    /// The current kNN pruning bound: the k-th smallest candidate distance
    /// discovered so far, or [`INFINITY`] while fewer than `k` are known. Every
    /// discovered distance upper-bounds its object's true distance, so the k-th
    /// smallest upper-bounds the final k-th result — values above it can never
    /// appear in the answer.
    #[inline]
    fn knn_bound(&self, k: usize) -> Weight {
        let cand = &self.store.knn_cand;
        if cand.len() == k {
            *cand.last().expect("k > 0 candidates")
        } else {
            INFINITY
        }
    }

    /// Records a discovered candidate distance (once per distinct object — the
    /// traversal enqueues every object at most once), tightening the bound.
    fn note_candidate(&mut self, d: Weight, k: usize) {
        let cand = &mut self.store.knn_cand;
        if cand.len() == k {
            match cand.last() {
                Some(&worst) if d < worst => {
                    cand.pop();
                }
                _ => return,
            }
        }
        let pos = cand.partition_point(|&e| e <= d);
        cand.insert(pos, d);
    }

    /// Materializes the distances from the source to the borders of `t` (assembly along
    /// the tree path, reusing previously materialized nodes). The row buffer of `t` is
    /// reused from earlier queries — its stamp marks it stale, and it is refilled in
    /// place (disjoint in-place borrows, so a panic mid-assembly leaves no row
    /// emptied-but-valid), so steady-state materialization performs no allocation.
    ///
    /// Under a finite `bound`, source borders beyond the bound are skipped and
    /// entries that come out above it are clamped to [`CELL_INFINITY`]; the bound is
    /// recorded in `row_bound` so a later request needing looser (or exact) values
    /// rematerializes the row (one materialized under a tighter bound is recomputed).
    fn ensure_border_distances(&mut self, t: NodeIndex, bound: Cell) {
        let ti = t as usize;
        if row_serves(&self.store.row_bound, ti, bound) {
            return;
        }
        #[cfg(test)]
        fault_tick(Fault::Assembly);
        let gtree = self.gtree;
        let hierarchy = gtree.hierarchy();
        // Charge the budget for the cells *this* frame touches: recursive
        // assembly calls charge their own deltas, so the mark is re-taken
        // after each nested call returns.
        let mut cells_mark = self.stats.matrix_cells;
        let mut row_bound = bound;
        if t == self.source_leaf {
            // Column of the source vertex in its own leaf matrix: one strided
            // gather per border, always exact (it is the root of every assembly).
            let matrix = gtree.matrix(t);
            let col = gtree.position_in_leaf(self.source) as usize;
            let nb = hierarchy.borders(t).len();
            let out = &mut self.store.rows[ti];
            out.clear();
            out.extend((0..nb).map(|row| matrix.get(row, col)));
            self.stats.matrix_cells += nb as u64;
            row_bound = CELL_INFINITY;
        } else if gtree.is_ancestor_of(t, self.source_leaf) {
            // Climb: combine the child-on-the-path's border distances with this node's
            // matrix to reach this node's own borders.
            let c = gtree.child_towards(t, self.source_leaf);
            self.ensure_border_distances(c, bound);
            self.ensure_entries(c, bound);
            cells_mark = self.stats.matrix_cells;
            let matrix = gtree.matrix(t);
            let base = hierarchy.base_in_parent(c);
            let nb = hierarchy.borders(t).len();
            let stats = &mut self.stats;
            let SearchStore { rows, row_bound: bounds, entries, wide, .. } = &mut self.store;
            let [out, src] = rows
                .get_disjoint_mut([ti, c as usize])
                .expect("a node is distinct from its on-path child");
            // The node's own borders sit at scattered matrix columns, so a
            // direct sweep would be a per-column gather. Instead min-plus the
            // full contiguous rows into the pooled full-width buffer with the
            // SIMD kernel and gather the border positions once at the end —
            // more cells touched than strictly needed, but contiguous, which
            // wins for any realistic border density.
            let width = matrix.cols();
            wide.clear();
            wide.resize(width, CELL_INFINITY);
            let mut active = 0u64;
            for &bi in &entries[c as usize] {
                let d = src[bi as usize];
                if d > bound {
                    break; // entry borders ascend by distance
                }
                active += 1;
                kernel::min_plus_into(wide, d, matrix.row(base + bi as usize));
            }
            #[cfg(test)]
            assert_eq!(
                sweep_every_row(src, bound, width, |out, bi, d| {
                    kernel::min_plus_into(out, d, matrix.row(base + bi))
                }),
                *wide,
                "a climb over the entry borders of node {c} differs from one over every row"
            );
            out.clear();
            out.extend(gtree.border_positions(t).iter().map(|&px| wide[px as usize]));
            stats.border_computations += active * nb as u64;
            stats.matrix_cells += active * width as u64;
            clamp_above(out, bound);
            // Every other child's border row is its column block of `wide`, swept
            // from the same source borders a descend into it would read: fill it.
            for &s in hierarchy.children(t) {
                if s == c || row_serves(bounds, s as usize, bound) {
                    continue;
                }
                #[cfg(test)]
                fault_tick(Fault::Fill);
                let sb = hierarchy.base_in_parent(s);
                let row = &mut rows[s as usize];
                row.clear();
                row.extend_from_slice(&wide[sb..sb + hierarchy.borders(s).len()]);
                clamp_above(row, bound);
                bounds.set(s as usize, bound);
            }
        } else {
            // Descend: this node hangs off the path; go through its parent's matrix.
            let p = hierarchy
                .parent(t)
                .expect("non-root because the root is an ancestor of every leaf");
            let parent_matrix = gtree.matrix(p);
            let t_base = hierarchy.base_in_parent(t);
            // Source side within the parent: either the sibling subtree containing the
            // source (when the parent is an ancestor of the source leaf) or the parent's
            // own borders. `s_base` maps source index `si` to its parent-matrix
            // position: `s_base + si` for a sibling subtree, or the parent's own
            // border positions otherwise.
            let (src_node, s_base) = if gtree.is_ancestor_of(p, self.source_leaf) {
                let s = gtree.child_towards(p, self.source_leaf);
                self.ensure_border_distances(s, bound);
                (s, Some(hierarchy.base_in_parent(s)))
            } else {
                self.ensure_border_distances(p, bound);
                (p, None)
            };
            self.ensure_entries(src_node, bound);
            cells_mark = self.stats.matrix_cells;
            let nb = hierarchy.borders(t).len();
            let stats = &mut self.stats;
            let SearchStore { rows, entries, .. } = &mut self.store;
            let [out, src] = rows
                .get_disjoint_mut([ti, src_node as usize])
                .expect("the materialization source is a sibling or the parent, never t");
            out.clear();
            out.resize(nb, CELL_INFINITY);
            // The target's borders occupy the contiguous parent-matrix columns
            // `t_base..t_base+nb`, so each entry border of the source contributes
            // one contiguous row segment — a pure SIMD min-plus row sweep.
            let segment = |si: usize| {
                let pos = match s_base {
                    Some(sb) => sb + si,
                    None => gtree.border_positions(p)[si] as usize,
                };
                &parent_matrix.row(pos)[t_base..t_base + nb]
            };
            let mut active = 0u64;
            for &si in &entries[src_node as usize] {
                let d = src[si as usize];
                if d > bound {
                    break; // entry borders ascend by distance
                }
                active += 1;
                kernel::min_plus_into(out, d, segment(si as usize));
            }
            #[cfg(test)]
            assert_eq!(
                sweep_every_row(src, bound, nb, |out, si, d| {
                    kernel::min_plus_into(out, d, segment(si))
                }),
                *out,
                "a descend over the entry borders of node {src_node} differs from one over every row"
            );
            stats.border_computations += active * nb as u64;
            stats.matrix_cells += active * nb as u64;
            clamp_above(out, bound);
            #[cfg(test)]
            self.store.descended.push(t);
        }
        self.budget.charge(self.stats.matrix_cells - cells_mark);
        self.stats.materialized_nodes += 1;
        self.store.row_bound.set(ti, row_bound);
    }

    /// Builds the entry list of `x`'s materialized row for sweeps under `bound`,
    /// unless the current one was built under a bound at least as loose: the
    /// row's entries up to `bound` in `(distance, index)` order, less every border
    /// `j` that a border `k` kept before it reaches at no greater distance, `d_k +
    /// D(k, j) <= d_j`, where `D` is `x`'s diagonal block in its parent's matrix
    /// (see the module docs). Keeping `k` min-pluses its block row into
    /// `dominated`, so each later test is one lookup; the last entry needs no row.
    ///
    /// A dominator is never farther than the border it dominates, so the list
    /// under a tighter bound is a prefix of the list under a looser one, and
    /// entries up to `bound` are exact in the row however often it is
    /// rematerialized under looser bounds: the list stays valid for every sweep
    /// whose bound is at most its own.
    fn ensure_entries(&mut self, x: NodeIndex, bound: Cell) {
        let xi = x as usize;
        if self.store.entry_bound.get(xi).flatten().is_some_and(|built| bound <= built) {
            return;
        }
        let gtree = self.gtree;
        let hierarchy = gtree.hierarchy();
        let p = hierarchy.parent(x).expect("a sweep source has borders, so it is not the root");
        let matrix = gtree.matrix(p);
        let base = hierarchy.base_in_parent(x);
        let SearchStore { rows, entries, entry_bound, entry_order, dominated, .. } =
            &mut self.store;
        // Untagged while it is rebuilt, so a panic leaves no half-built list valid.
        entry_bound.set(xi, None);
        let row = &rows[xi];
        let nb = row.len();
        entry_order.clear();
        entry_order.extend(
            row.iter()
                .enumerate()
                .filter(|&(_, &d)| d <= bound && d != CELL_INFINITY)
                .map(|(j, &d)| (d as u64) << 32 | j as u64),
        );
        entry_order.sort_unstable();
        dominated.clear();
        dominated.resize(nb, CELL_INFINITY);
        let list = &mut entries[xi];
        list.clear();
        let mut swept = 0u64;
        for (n, &e) in entry_order.iter().enumerate() {
            let (d, j) = ((e >> 32) as Cell, e as u32 as usize);
            if dominated[j] <= d {
                continue;
            }
            list.push(j as u32);
            #[cfg(test)]
            fault_tick(Fault::Entry);
            if n + 1 < entry_order.len() {
                kernel::min_plus_into(dominated, d, &matrix.row(base + j)[base..base + nb]);
                swept += 1;
            }
        }
        let (kept, cells) = (list.len() as u64, swept * nb as u64);
        self.stats.border_computations += cells;
        self.stats.matrix_cells += cells;
        self.stats.entry_rows += kept;
        self.stats.dominated_rows += entry_order.len() as u64 - kept;
        self.budget.charge(cells);
        entry_bound.set(xi, Some(bound));
    }

    /// k-nearest-neighbor query: the `k` objects of `occurrence` closest to the source
    /// by network distance, as `(vertex, distance)` pairs in increasing distance order.
    pub fn knn(
        &mut self,
        k: usize,
        occurrence: &OccurrenceList,
        mode: LeafSearchMode,
    ) -> Vec<(NodeId, Weight)> {
        let mut result: Vec<(NodeId, Weight)> = Vec::new();
        self.knn_into(k, occurrence, mode, &mut result);
        result
    }

    /// [`GtreeSearch::knn`] writing into a caller-owned result vector (cleared first).
    /// With a warmed pool and a reused result buffer, this performs no allocation.
    ///
    /// Unreachable candidates (`dist == INFINITY`) are skipped at enqueue time —
    /// nothing unreachable ever enters the queue, so a disconnected workload simply
    /// yields fewer than `k` results once the queue drains. Once `k` candidate
    /// distances are known, their maximum prunes both materialization (see
    /// `ensure_border_distances`) and enqueueing: objects and whole subtrees
    /// provably beyond the k-th candidate are dropped without heap work. An
    /// off-path node's row is assembled only when the node is popped (see the
    /// module docs), so no node beyond the k-th answer is ever assembled.
    pub fn knn_into(
        &mut self,
        k: usize,
        occurrence: &OccurrenceList,
        mode: LeafSearchMode,
        result: &mut Vec<(NodeId, Weight)>,
    ) {
        result.clear();
        if k == 0 || occurrence.num_objects() == 0 {
            return;
        }
        let gtree = self.gtree;
        let root = gtree.root();
        self.store.queue.clear();
        self.store.knn_cand.clear();
        #[cfg(test)]
        self.store.descended.clear();

        if !occurrence.leaf_objects(self.source_leaf).is_empty() {
            match mode {
                LeafSearchMode::Improved => self.improved_leaf_search(k, occurrence, result),
                LeafSearchMode::Original => self.original_leaf_search(k, occurrence),
            }
        }

        let mut tn = self.source_leaf;
        let mut tmin = if tn == root {
            INFINITY
        } else {
            let b = self.knn_bound(k);
            self.min_border_distance_bounded(tn, b)
        };

        while result.len() < k && (!self.store.queue.is_empty() || tn != root) {
            if !self.budget.charge(1) {
                break;
            }
            if self.store.queue.is_empty() {
                let (new_tn, new_tmin) = self.expand_tn(tn, k, occurrence);
                tn = new_tn;
                tmin = new_tmin;
                continue;
            }
            let (d, element) = self.store.queue.pop().expect("non-empty");
            if d > tmin && tn != root {
                let (new_tn, new_tmin) = self.expand_tn(tn, k, occurrence);
                tn = new_tn;
                tmin = new_tmin;
                self.store.queue.push(d, element);
                self.stats.heap_pushes += 1;
                continue;
            }
            match element {
                Element::Object(v) => {
                    result.push((v, d));
                }
                Element::Node(x) => {
                    let b = self.knn_bound(k);
                    self.ensure_border_distances(x, narrow_bound(b));
                    if gtree.hierarchy().is_leaf(x) {
                        for &o in occurrence.leaf_objects(x) {
                            let b = self.knn_bound(k);
                            let dist = self.via_border_distance(x, o, b);
                            if dist == INFINITY || dist > b {
                                continue; // unreachable or beyond the k-th candidate
                            }
                            self.store.queue.push(dist, Element::Object(o));
                            self.stats.heap_pushes += 1;
                            self.note_candidate(dist, k);
                        }
                    } else {
                        self.push_children_by_table(x, x, b, occurrence);
                    }
                }
            }
        }
        #[cfg(test)]
        self.assert_only_popped_nodes_descended(k, result);
    }

    /// Enqueues the object-bearing children of `p` (except `src`) under keys from
    /// `p`'s child-minimum table, read against the border row of `src`: `p` itself,
    /// or at the root the on-path child. A key is exact whenever it is `<= bound`:
    /// the border the true minimum leaves through lies within the bound, so its row
    /// entry is exact, and every other term is a real path length or the sentinel.
    /// The pushes are therefore those a sweep of each child's block would make.
    /// Pushing nodes leaves the kNN bound alone, so one `bound` serves every child.
    fn push_children_by_table(
        &mut self,
        p: NodeIndex,
        src: NodeIndex,
        bound: Weight,
        occurrence: &OccurrenceList,
    ) {
        let cell_bound = narrow_bound(bound);
        self.ensure_entries(src, cell_bound);
        let gtree = self.gtree;
        let hierarchy = gtree.hierarchy();
        let first_row = if src == p { 0 } else { hierarchy.base_in_parent(src) };
        let dists = &self.store.rows[src as usize];
        let entries = &self.store.entries[src as usize];
        let mut cells = 0u64;
        for (ci, &c) in hierarchy.children(p).iter().enumerate() {
            if c == src || !occurrence.has_objects(c) {
                continue;
            }
            let minima = &gtree.child_min_column(p, ci)[first_row..first_row + dists.len()];
            // Every term is at most `2 · CELL_INFINITY < 2^32`; the min never exceeds
            // the sentinel it starts from. The list may stop at `bound`: then a key
            // above it is too large, but it is pruned either way.
            let key = entries
                .iter()
                .map(|&i| dists[i as usize] + minima[i as usize])
                .fold(CELL_INFINITY, Cell::min);
            cells += entries.len() as u64;
            #[cfg(test)]
            {
                let full = sweep_every_row(dists, CELL_INFINITY, 1, |out, i, d| {
                    out[0] = out[0].min(d + minima[i])
                })[0];
                assert!(
                    key == full || full > cell_bound,
                    "node {src}: key {key}, over rows {full}"
                );
            }
            let dist = widen(key);
            if dist == INFINITY || dist > bound {
                continue; // unreachable or beyond the k-th candidate
            }
            self.store.queue.push(dist, Element::Node(c));
            self.stats.heap_pushes += 1;
        }
        self.stats.border_computations += cells;
        self.stats.matrix_cells += cells;
        self.budget.charge(cells);
    }

    /// The waste materialize-on-pop removes, checked: when the query found `k`
    /// answers unbudgeted, every off-path node it assembled by descending has a
    /// least border distance (exact, since its row was built under a bound at least
    /// the final k-th answer) no greater than the k-th answer.
    #[cfg(test)]
    fn assert_only_popped_nodes_descended(&self, k: usize, result: &[(NodeId, Weight)]) {
        if result.len() < k || self.budget.is_exhausted() {
            return;
        }
        let kth = result[k - 1].1;
        for &x in &self.store.descended {
            let least = self.store.rows[x as usize].iter().copied().min().map_or(INFINITY, widen);
            assert!(least <= kth, "node {x} assembled at distance {least} > k-th answer {kth}");
        }
    }

    /// Moves the traversal frontier one level up: enqueues the object-bearing siblings
    /// of `tn` under its parent and returns the new `(Tn, Tmin)`. Below the root the
    /// climb to the parent's borders comes first, because it fills every sibling's
    /// row; the root has no borders to climb to, so its children are keyed from its
    /// child-minimum table against `tn`'s borders.
    fn expand_tn(
        &mut self,
        tn: NodeIndex,
        k: usize,
        occurrence: &OccurrenceList,
    ) -> (NodeIndex, Weight) {
        let gtree = self.gtree;
        let parent = match gtree.hierarchy().parent(tn) {
            Some(p) => p,
            None => return (tn, INFINITY),
        };
        let b = self.knn_bound(k);
        if parent == gtree.root() {
            self.push_children_by_table(parent, tn, b, occurrence);
            return (parent, INFINITY);
        }
        let tmin = self.min_border_distance_bounded(parent, b);
        for &c in gtree.hierarchy().children(parent) {
            if c == tn || !occurrence.has_objects(c) {
                continue;
            }
            let dist = self.min_border_distance_bounded(c, b);
            if dist == INFINITY || dist > b {
                continue; // unreachable or beyond the k-th candidate
            }
            self.store.queue.push(dist, Element::Node(c));
            self.stats.heap_pushes += 1;
        }
        (parent, tmin)
    }

    /// Starts the source-leaf search at the source (0) and, when `seeded`, at every
    /// border of the leaf at its distance from the source: the leaf's own border
    /// row, exact and gathered from the leaf matrix. Returns the least border seed
    /// ([`INFINITY`] without seeds): a leaf object settled below it is closer than
    /// anything outside the leaf.
    fn begin_leaf_search(&mut self, seeded: bool) -> Weight {
        let gtree = self.gtree;
        let leaf = self.source_leaf;
        if seeded {
            self.ensure_border_distances(leaf, CELL_INFINITY);
        }
        let SearchStore { rows, leaf: search, leaf_resumable, .. } = &mut self.store;
        *leaf_resumable = false;
        search.begin(gtree.leaf_vertices(leaf).len());
        search.relax(gtree.position_in_leaf(self.source), 0);
        let mut least_seed = INFINITY;
        if seeded {
            for (&d, &pos) in rows[leaf as usize].iter().zip(gtree.border_positions(leaf)) {
                if d != CELL_INFINITY {
                    search.relax(pos, widen(d));
                    least_seed = least_seed.min(widen(d));
                }
            }
        }
        least_seed
    }

    /// Settles the next vertex of the source-leaf search and relaxes its edges
    /// inside the leaf: `(vertex, distance)`, or `None` once the search is drained
    /// or the budget (one step per settle) runs out, leaving the vertex queued.
    fn settle_leaf_vertex(&mut self) -> Option<(NodeId, Weight)> {
        let gtree = self.gtree;
        let leaf = self.source_leaf;
        let search = &mut self.store.leaf;
        loop {
            let (d, p) = search.heap.pop()?;
            if search.visited.is_settled(p) {
                continue;
            }
            if !self.budget.charge(1) {
                search.heap.push(d, p);
                return None;
            }
            search.visited.settle(p);
            self.stats.leaf_vertices_settled += 1;
            #[cfg(test)]
            fault_tick(Fault::Leaf);
            let v = gtree.leaf_vertices(leaf)[p as usize];
            for (t, w) in self.graph.neighbors(v) {
                if gtree.leaf_of(t) == leaf {
                    search.relax(gtree.position_in_leaf(t), d + w);
                }
            }
            return Some((v, d));
        }
    }

    /// Improved leaf search (Appendix A.2.1, Algorithm 4, with border seeds for its
    /// border shortcuts): the seeded leaf search, run until the leaf's
    /// `min(k, objects)`-th object settles. An object below the least seed is a
    /// global nearest neighbor and goes straight into `result`; a later one is
    /// enqueued with its (exact) distance.
    fn improved_leaf_search(
        &mut self,
        k: usize,
        occurrence: &OccurrenceList,
        result: &mut Vec<(NodeId, Weight)>,
    ) {
        let leaf = self.source_leaf;
        let least_seed = self.begin_leaf_search(true);
        let mut wanted = k.min(occurrence.leaf_objects(leaf).len());
        while wanted > 0 {
            let Some((v, d)) = self.settle_leaf_vertex() else { break };
            if occurrence.is_object(v) {
                wanted -= 1;
                if d < least_seed {
                    result.push((v, d));
                } else {
                    self.store.queue.push(d, Element::Object(v));
                    self.stats.heap_pushes += 1;
                }
                self.note_candidate(d, k);
            }
        }
        self.store.leaf_resumable = true;
    }

    /// The original G-tree leaf search: settle every leaf object with the leaf
    /// search unseeded (restricted to the leaf), additionally evaluate the path
    /// through the borders for each object, and enqueue everything (nothing goes
    /// straight to the result).
    fn original_leaf_search(&mut self, k: usize, occurrence: &OccurrenceList) {
        let leaf = self.source_leaf;
        let objects = occurrence.leaf_objects(leaf);
        self.begin_leaf_search(false);
        let mut remaining = objects.len();
        while remaining > 0 {
            let Some((v, _)) = self.settle_leaf_vertex() else { break };
            if occurrence.is_object(v) {
                remaining -= 1;
            }
        }
        for &o in objects {
            let inside = self.store.leaf.visited.dist(self.gtree.position_in_leaf(o));
            let b = self.knn_bound(k);
            let dist = inside.min(self.via_border_distance(leaf, o, b));
            if dist == INFINITY || dist > b {
                continue; // unreachable or beyond the k-th candidate
            }
            self.store.queue.push(dist, Element::Object(o));
            self.stats.heap_pushes += 1;
            self.note_candidate(dist, k);
        }
    }
}

/// Whether row `i` was materialized this search under a bound no tighter than
/// `bound` (a narrowed bound, so [`CELL_INFINITY`] — "exact" — serves every caller).
fn row_serves(row_bound: &Stamped<Cell>, i: usize, bound: Cell) -> bool {
    row_bound.get(i).is_some_and(|rb| bound <= rb)
}

/// The entry-list cross-check's reference: `sweep` (`out`, source index,
/// distance) into `len` fresh cells over every source row that is finite and
/// within `bound`, dominated or not. A sweep that read only the row's entry
/// borders must come out equal.
#[cfg(test)]
fn sweep_every_row(
    row: &[Cell],
    bound: Cell,
    len: usize,
    mut sweep: impl FnMut(&mut [Cell], usize, Cell),
) -> Vec<Cell> {
    let mut full = vec![CELL_INFINITY; len];
    for (i, &d) in row.iter().enumerate() {
        if d != CELL_INFINITY && d <= bound {
            sweep(&mut full, i, d);
        }
    }
    full
}

/// Clamps every entry above a finite pruning `bound` to "unreachable" (such an
/// entry may be inflated — its best source border was skipped — and must never
/// be read as a distance).
fn clamp_above(row: &mut [Cell], bound: Cell) {
    if bound < CELL_INFINITY {
        for o in row.iter_mut().filter(|o| **o > bound) {
            *o = CELL_INFINITY;
        }
    }
}

/// The "MGtree" point-to-point oracle: a thin wrapper around [`GtreeSearch`] that keeps
/// the materialization cache alive across many distance queries from the same source —
/// the property that makes IER-Gt robust to Euclidean false hits (Section 5). The
/// `rnknn` crate implements its IER `DistanceOracle` trait for this type.
#[derive(Debug)]
pub struct GtreeDistanceOracle<'a> {
    search: GtreeSearch<'a>,
}

impl<'a> GtreeDistanceOracle<'a> {
    /// Creates an oracle for distances originating at `source`.
    pub fn new(gtree: &'a Gtree, graph: &'a Graph, source: NodeId) -> Self {
        GtreeDistanceOracle { search: GtreeSearch::new(gtree, graph, source) }
    }

    /// Attaches a [`QueryBudget`] to the wrapped search (see
    /// [`GtreeSearch::set_budget`]).
    pub fn set_budget(&mut self, budget: &'a QueryBudget) {
        self.search.set_budget(budget);
    }

    /// The source vertex distances currently originate at.
    pub fn source(&self) -> NodeId {
        self.search.source()
    }

    /// Re-arms the oracle for a new source (see [`GtreeSearch::reset`]): the
    /// materialization cache is stamp-reset, not rebuilt, so hopping between
    /// sources reuses all of the search's pooled buffers.
    pub fn begin_source(&mut self, source: NodeId) {
        self.search.reset(source);
    }

    /// Exact network distance from the source to `target`.
    pub fn distance(&mut self, target: NodeId) -> Weight {
        self.search.distance_to(target)
    }

    /// Bounded network distance from the source to `target`, with
    /// bound-pruned materialization (see [`GtreeSearch::distance_to_within`]).
    pub fn distance_within(&mut self, target: NodeId, bound: Weight) -> Weight {
        self.search.distance_to_within(target, bound)
    }

    /// Operation counters accumulated so far.
    pub fn stats(&self) -> GtreeSearchStats {
        self.search.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::GtreeConfig;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::testgraphs::{unit_grids, zero_weight_grid};
    use rnknn_graph::EdgeWeightKind;
    use rnknn_pathfinding::dijkstra;

    fn setup(n: usize, seed: u64, tau: usize) -> (Graph, Gtree) {
        let net = RoadNetwork::generate(&GeneratorConfig::new(n, seed));
        let g = net.graph(EdgeWeightKind::Distance);
        let t =
            Gtree::build_with_config(&g, GtreeConfig { leaf_capacity: tau, ..Default::default() });
        (g, t)
    }

    /// Reference kNN by brute force over all objects.
    fn brute_knn(g: &Graph, q: NodeId, k: usize, objects: &[NodeId]) -> Vec<Weight> {
        let all = dijkstra::single_source(g, q);
        let mut d: Vec<Weight> = objects.iter().map(|&o| all[o as usize]).collect();
        d.sort_unstable();
        d.truncate(k);
        d
    }

    #[test]
    fn point_to_point_distances_match_dijkstra() {
        let (g, tree) = setup(700, 4, 50);
        let n = g.num_vertices() as NodeId;
        for s in [0u32, 13, 401] {
            let mut search = GtreeSearch::new(&tree, &g, s % n);
            let truth = dijkstra::single_source(&g, s % n);
            for t in (0..n).step_by(23) {
                assert_eq!(search.distance_to(t), truth[t as usize], "{s}->{t}");
            }
            assert!(search.stats.materialized_nodes > 0);
        }
    }

    #[test]
    fn bounded_distances_honor_the_oracle_contract() {
        // `distance_to_within(t, bound)` must be exact whenever the true distance
        // fits the bound, and must never under-report. Interleaves bounded and
        // exact queries so bounded rows get rematerialized for exact requests.
        let (g, tree) = setup(700, 21, 48);
        let n = g.num_vertices() as NodeId;
        for s in [9u32, 333] {
            let truth = dijkstra::single_source(&g, s);
            let finite: Vec<Weight> =
                (0..n).map(|t| truth[t as usize]).filter(|&d| d < INFINITY).collect();
            let mid = finite[finite.len() / 2];
            let mut search = GtreeSearch::new(&tree, &g, s);
            for t in (0..n).step_by(17) {
                let want = truth[t as usize];
                for bound in [0, mid / 2, mid, INFINITY] {
                    let got = search.distance_to_within(t, bound);
                    assert!(got >= want, "{s}->{t} bound {bound}: {got} < true {want}");
                    if want <= bound {
                        assert_eq!(got, want, "{s}->{t} bound {bound}");
                    }
                }
                // An exact request after the bounded ones must rematerialize.
                assert_eq!(search.distance_to(t), want, "{s}->{t} exact");
            }
        }
    }

    #[test]
    fn knn_matches_brute_force_both_leaf_searches() {
        let (g, tree) = setup(900, 8, 64);
        let n = g.num_vertices() as NodeId;
        let objects: Vec<NodeId> = (0..n).filter(|v| v % 13 == 1).collect();
        let occ = OccurrenceList::build(&tree, &objects);
        for q in [3u32, 250, 777] {
            let q = q % n;
            let want = brute_knn(&g, q, 10, &objects);
            for mode in [LeafSearchMode::Improved, LeafSearchMode::Original] {
                let mut search = GtreeSearch::new(&tree, &g, q);
                let got = search.knn(10, &occ, mode);
                let got_d: Vec<Weight> = got.iter().map(|&(_, d)| d).collect();
                assert_eq!(got_d, want, "query {q} mode {mode:?}");
                // Results are sorted and are actual objects.
                assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
                assert!(got.iter().all(|&(v, _)| objects.contains(&v)));
            }
        }
    }

    /// The input shapes the generator never produces but the loaders accept:
    /// zero-weight edges (distinct borders at distance zero, which must not drop each
    /// other's clique edges during composition), heavy ties, several components.
    /// The kNN runs under both leaf searches, and under a `k` small enough that the
    /// child-minimum keys prune and one large enough to reach every component.
    #[test]
    fn exact_on_zero_weights_ties_and_components() {
        for (case, (g, tau)) in odd_shapes().into_iter().enumerate() {
            let config = GtreeConfig { leaf_capacity: tau, ..Default::default() };
            let tree = Gtree::build_with_config(&g, config);
            let n = g.num_vertices() as NodeId;
            let objects: Vec<NodeId> = (0..n).filter(|v| v % 7 == 3).collect();
            let occ = OccurrenceList::build(&tree, &objects);
            for q in (0..n).step_by(5) {
                let truth = dijkstra::single_source(&g, q);
                let mut oracle = GtreeDistanceOracle::new(&tree, &g, q);
                for t in (0..n).step_by(3) {
                    assert_eq!(oracle.distance(t), truth[t as usize], "case {case}: {q}->{t}");
                }
                for (k, mode) in [(5, LeafSearchMode::Improved), (5, LeafSearchMode::Original)]
                    .into_iter()
                    .chain([(objects.len(), LeafSearchMode::Improved)])
                {
                    let mut search = GtreeSearch::new(&tree, &g, q);
                    let got: Vec<Weight> =
                        search.knn(k, &occ, mode).iter().map(|&(_, d)| d).collect();
                    let want: Vec<Weight> = brute_knn(&g, q, k, &objects)
                        .into_iter()
                        .filter(|&d| d < INFINITY)
                        .collect();
                    assert_eq!(got, want, "case {case}: {k}-NN of {q} {mode:?}");
                }
            }
        }
    }

    /// The oracle's same-leaf distances come from the one resumable leaf search: every
    /// vertex of the source's leaf, asked in shuffled order under bounds 0, mid and
    /// `INFINITY` interleaved with exact calls, on every odd shape, from a source that
    /// is a border and one that is not — after no kNN query, after an `Original` one
    /// (whose unseeded search must not be resumed) and after an `Improved` one.
    #[test]
    fn same_leaf_distances_honor_the_oracle_contract_in_any_order() {
        let generated = setup(900, 8, 32);
        for (case, (g, tau)) in odd_shapes().into_iter().chain([(generated.0, 32)]).enumerate() {
            let config = GtreeConfig { leaf_capacity: tau, ..Default::default() };
            let tree = Gtree::build_with_config(&g, config);
            let n = g.num_vertices() as NodeId;
            let is_border = |v| tree.hierarchy().borders(tree.leaf_of(v)).contains(&v);
            let border = (0..n).find(|&v| is_border(v)).expect("a border");
            let interior = (0..n).find(|&v| !is_border(v)).expect("an interior vertex");
            let objects: Vec<NodeId> = (0..n).filter(|v| v % 5 == 2).collect();
            let occ = OccurrenceList::build(&tree, &objects);
            for source in [border, interior] {
                let truth = dijkstra::single_source(&g, source);
                let mut targets = tree.leaf_vertices(tree.leaf_of(source)).to_vec();
                let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ source as u64;
                for i in (1..targets.len()).rev() {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    targets.swap(i, (state % (i as u64 + 1)) as usize);
                }
                let mut finite: Vec<Weight> =
                    targets.iter().map(|&t| truth[t as usize]).filter(|&d| d < INFINITY).collect();
                finite.sort_unstable();
                let mid = finite[finite.len() / 2];
                for prelude in
                    [None, Some(LeafSearchMode::Original), Some(LeafSearchMode::Improved)]
                {
                    let mut search = GtreeSearch::new(&tree, &g, source);
                    if let Some(mode) = prelude {
                        search.knn(3, &occ, mode);
                    }
                    for (i, &t) in targets.iter().enumerate() {
                        let (want, bound) = (truth[t as usize], [0, mid, INFINITY][i % 3]);
                        let what =
                            format!("case {case}: {source}->{t} bound {bound} after {prelude:?}");
                        let got = search.distance_to_within(t, bound);
                        assert!(got >= want, "{what}: {got} < true {want}");
                        if want <= bound {
                            assert_eq!(got, want, "{what}");
                        }
                        if i % 2 == 1 {
                            assert_eq!(search.distance_to(t), want, "{what}: exact");
                        }
                    }
                }
            }
        }
    }

    /// `(graph, leaf capacity)`: zero-weight edges, unit-weight ties, five components.
    fn odd_shapes() -> [(Graph, usize); 4] {
        [
            (zero_weight_grid(24), 16),
            (zero_weight_grid(24), 32),
            (unit_grids(24, 1), 16),
            (unit_grids(9, 5), 16),
        ]
    }

    /// The least cell of row `r` of node `i`'s matrix over child `c`'s column block,
    /// computed straight from the matrix.
    fn block_minimum(tree: &Gtree, i: NodeIndex, r: usize, c: NodeIndex) -> Cell {
        let h = tree.hierarchy();
        let base = h.base_in_parent(c);
        let block = &tree.matrix(i).row(r)[base..base + h.borders(c).len()];
        block.iter().copied().min().unwrap_or(CELL_INFINITY)
    }

    /// Every child-minimum entry is its block's minimum: at the root for every
    /// matrix row, elsewhere for the rows of the node's own borders.
    fn assert_child_minima_match_matrices(tree: &Gtree) {
        let h = tree.hierarchy();
        for i in (0..tree.num_nodes() as NodeIndex).filter(|&i| !h.is_leaf(i)) {
            let rows: Vec<usize> = if i == tree.root() {
                (0..h.child_borders(i).len()).collect()
            } else {
                tree.border_positions(i).iter().map(|&p| p as usize).collect()
            };
            for (ci, &c) in h.children(i).iter().enumerate() {
                let column = tree.child_min_column(i, ci);
                assert_eq!(column.len(), rows.len(), "node {i} child {c}");
                for (&entry, &r) in column.iter().zip(&rows) {
                    assert_eq!(entry, block_minimum(tree, i, r, c), "node {i} row {r} child {c}");
                }
            }
        }
    }

    /// On the built tree and on the tree loaded back from its artifact, whose table
    /// is a view of the file.
    #[test]
    fn child_minima_are_block_minima_on_every_shape() {
        use crate::persist::{load_gtree, save_gtree};
        use rnknn_persist::{Artifact, ArtifactWriter};
        let generated = setup(900, 8, 32);
        for (g, tau) in odd_shapes().into_iter().chain([(generated.0, 32)]) {
            let config = GtreeConfig { leaf_capacity: tau, ..Default::default() };
            let built = Gtree::build_with_config(&g, config);
            assert_child_minima_match_matrices(&built);
            let mut writer = ArtifactWriter::new(std::io::Cursor::new(Vec::new())).unwrap();
            save_gtree(&built, &mut writer).unwrap();
            let artifact = Artifact::from_vec(writer.finish().unwrap().into_inner()).unwrap();
            let loaded = load_gtree(&artifact, &g, None).unwrap();
            assert!(loaded.child_min.is_view(), "the loaded table was copied");
            assert_child_minima_match_matrices(&loaded);
        }
    }

    /// Materialize-on-pop: over many sources, object densities and `k`, no kNN
    /// query assembles an off-path node beyond its k-th answer (the assertion at
    /// the end of `knn_into`, which every kNN test in this module also runs).
    #[test]
    fn knn_assembles_no_node_beyond_the_kth_answer() {
        let (g, tree) = setup(1500, 44, 32);
        let n = g.num_vertices() as NodeId;
        for (modulus, k) in [(3u32, 10usize), (29, 10), (97, 3), (97, 20)] {
            let objects: Vec<NodeId> = (0..n).filter(|v| v % modulus == 1).collect();
            let occ = OccurrenceList::build(&tree, &objects);
            for q in (0..n).step_by(37) {
                for mode in [LeafSearchMode::Improved, LeafSearchMode::Original] {
                    let got = GtreeSearch::new(&tree, &g, q).knn(k, &occ, mode);
                    let got: Vec<Weight> = got.iter().map(|&(_, d)| d).collect();
                    assert_eq!(got, brute_knn(&g, q, k, &objects), "q={q} k={k} {mode:?}");
                }
            }
        }
    }

    #[test]
    fn knn_with_dense_and_sparse_objects() {
        let (g, tree) = setup(600, 15, 40);
        let n = g.num_vertices() as NodeId;
        // Dense: every other vertex; sparse: a handful of vertices.
        let dense: Vec<NodeId> = (0..n).filter(|v| v % 2 == 0).collect();
        let sparse: Vec<NodeId> = vec![1, n / 2, n - 3];
        for objects in [dense, sparse] {
            let occ = OccurrenceList::build(&tree, &objects);
            for &q in &[0u32, n / 3, n - 1] {
                let want = brute_knn(&g, q, 5, &objects);
                let mut search = GtreeSearch::new(&tree, &g, q);
                let got: Vec<Weight> =
                    search.knn(5, &occ, LeafSearchMode::Improved).iter().map(|&(_, d)| d).collect();
                assert_eq!(got, want, "q={q} |O|={}", objects.len());
            }
        }
    }

    #[test]
    fn k_larger_than_object_count_returns_all_objects() {
        let (g, tree) = setup(300, 2, 32);
        let objects: Vec<NodeId> = vec![5, 17, 100];
        let occ = OccurrenceList::build(&tree, &objects);
        let mut search = GtreeSearch::new(&tree, &g, 50);
        let got = search.knn(10, &occ, LeafSearchMode::Improved);
        assert_eq!(got.len(), 3);
        let want = brute_knn(&g, 50, 3, &objects);
        assert_eq!(got.iter().map(|&(_, d)| d).collect::<Vec<_>>(), want);
    }

    #[test]
    fn query_vertex_that_is_an_object_is_its_own_nearest_neighbor() {
        let (g, tree) = setup(400, 6, 32);
        let objects: Vec<NodeId> = vec![42, 77, 200];
        let occ = OccurrenceList::build(&tree, &objects);
        let mut search = GtreeSearch::new(&tree, &g, 42);
        let got = search.knn(2, &occ, LeafSearchMode::Improved);
        assert_eq!(got[0], (42, 0));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn empty_object_set_and_k_zero() {
        let (g, tree) = setup(300, 9, 32);
        let occ = OccurrenceList::build(&tree, &[]);
        let mut search = GtreeSearch::new(&tree, &g, 10);
        assert!(search.knn(5, &occ, LeafSearchMode::Improved).is_empty());
        let occ2 = OccurrenceList::build(&tree, &[1, 2]);
        assert!(search.knn(0, &occ2, LeafSearchMode::Improved).is_empty());
    }

    #[test]
    fn oracle_materialization_reuses_computations() {
        let (g, tree) = setup(800, 11, 64);
        let n = g.num_vertices() as NodeId;
        let mut oracle = GtreeDistanceOracle::new(&tree, &g, 7);
        let truth = dijkstra::single_source(&g, 7);
        let targets: Vec<NodeId> = (0..n).step_by(41).collect();
        for &t in &targets {
            assert_eq!(oracle.distance(t), truth[t as usize]);
        }
        let first_pass = oracle.stats().materialized_nodes;
        for &t in &targets {
            assert_eq!(oracle.distance(t), truth[t as usize]);
        }
        // The second pass must not materialize any additional nodes.
        assert_eq!(oracle.stats().materialized_nodes, first_pass);
    }

    #[test]
    fn pooled_searches_report_matrix_cells() {
        // `matrix_cells` is the one cell count: matrix work must show up in the
        // per-search batch counter, identically on a cold and on a reused store.
        let (g, tree) = setup(700, 27, 48);
        let n = g.num_vertices() as NodeId;
        let objects: Vec<NodeId> = (0..n).filter(|v| v % 11 == 3).collect();
        let occ = OccurrenceList::build(&tree, &objects);
        let mut cold = GtreeSearch::new(&tree, &g, 5);
        cold.knn(8, &occ, LeafSearchMode::Improved);
        let cells = cold.stats.matrix_cells;
        assert!(cells > 0, "kNN read no matrix cells?");
        drop(cold);
        let mut warm = GtreeSearch::new(&tree, &g, 5);
        warm.knn(8, &occ, LeafSearchMode::Improved);
        assert_eq!(warm.stats.matrix_cells, cells, "store reuse changed the cell count");
    }

    #[test]
    fn leaf_scratch_is_reusable_across_trees_and_leaves() {
        // The thread-local leaf scratch grows monotonically; interleaving queries
        // against a large and a small tree (and many different leaves) on one thread
        // must not leak state between searches.
        let (gb, tb) = setup(900, 31, 64);
        let (gs, ts) = setup(200, 32, 24);
        let nb = gb.num_vertices() as NodeId;
        let ns = gs.num_vertices() as NodeId;
        let objects_b: Vec<NodeId> = (0..nb).filter(|v| v % 11 == 2).collect();
        let objects_s: Vec<NodeId> = (0..ns).filter(|v| v % 7 == 1).collect();
        let occ_b = OccurrenceList::build(&tb, &objects_b);
        let occ_s = OccurrenceList::build(&ts, &objects_s);
        for i in 0..12u32 {
            let qb = (i * 131) % nb;
            let qs = (i * 17) % ns;
            let want_b = brute_knn(&gb, qb, 5, &objects_b);
            let got_b: Vec<Weight> = GtreeSearch::new(&tb, &gb, qb)
                .knn(5, &occ_b, LeafSearchMode::Improved)
                .iter()
                .map(|&(_, d)| d)
                .collect();
            assert_eq!(got_b, want_b, "big tree q={qb}");
            let want_s = brute_knn(&gs, qs, 5, &objects_s);
            let got_s: Vec<Weight> = GtreeSearch::new(&ts, &gs, qs)
                .knn(5, &occ_s, LeafSearchMode::Original)
                .iter()
                .map(|&(_, d)| d)
                .collect();
            assert_eq!(got_s, want_s, "small tree q={qs}");
        }
    }

    #[test]
    fn reset_matches_fresh_searches() {
        let (g, tree) = setup(700, 19, 48);
        let n = g.num_vertices() as NodeId;
        let objects: Vec<NodeId> = (0..n).filter(|v| v % 9 == 4).collect();
        let occ = OccurrenceList::build(&tree, &objects);
        let mut reused = GtreeSearch::new(&tree, &g, 0);
        let mut result = Vec::new();
        for i in 0..10u32 {
            let q = (i * 157 + 3) % n;
            reused.reset(q);
            assert_eq!(reused.source(), q);
            reused.knn_into(6, &occ, LeafSearchMode::Improved, &mut result);
            // `reused` holds its store, so this search runs on a different one.
            let want = GtreeSearch::new(&tree, &g, q).knn(6, &occ, LeafSearchMode::Improved);
            assert_eq!(result, want, "q={q}");
            // The reused search also answers point-to-point queries correctly
            // after the reset (the IER-Gt oracle pattern) — bound-pruned kNN rows
            // must not leak inflated values into exact queries.
            let truth = dijkstra::single_source(&g, q);
            for t in (0..n).step_by(97) {
                assert_eq!(reused.distance_to(t), truth[t as usize], "{q}->{t}");
            }
        }
    }

    #[test]
    fn repeated_queries_share_one_epoch_without_reset() {
        // kNN with a small k (tight bound), then a larger k (looser bound), then
        // exact point-to-point queries — all on one epoch. Rows materialized under
        // the tighter bound must be recomputed, not reused, by the looser callers.
        let (g, tree) = setup(800, 37, 56);
        let n = g.num_vertices() as NodeId;
        let objects: Vec<NodeId> = (0..n).filter(|v| v % 10 == 6).collect();
        let occ = OccurrenceList::build(&tree, &objects);
        let q = 17u32 % n;
        let mut search = GtreeSearch::new(&tree, &g, q);
        let got3: Vec<Weight> =
            search.knn(3, &occ, LeafSearchMode::Improved).iter().map(|&(_, d)| d).collect();
        assert_eq!(got3, brute_knn(&g, q, 3, &objects), "k=3");
        let got12: Vec<Weight> =
            search.knn(12, &occ, LeafSearchMode::Improved).iter().map(|&(_, d)| d).collect();
        assert_eq!(got12, brute_knn(&g, q, 12, &objects), "k=12 after k=3");
        let truth = dijkstra::single_source(&g, q);
        for t in (0..n).step_by(61) {
            assert_eq!(search.distance_to(t), truth[t as usize], "{q}->{t} after kNN");
        }
    }

    #[test]
    fn back_to_back_searches_reuse_the_pooled_store() {
        // Two consecutive (construct, query, drop) cycles on one thread must agree
        // with brute force — the second takes the first's store from the pool with
        // all rows stale-by-epoch, which is exactly the engine's steady state.
        let (g, tree) = setup(500, 23, 40);
        let n = g.num_vertices() as NodeId;
        let objects: Vec<NodeId> = (0..n).filter(|v| v % 7 == 2).collect();
        let occ = OccurrenceList::build(&tree, &objects);
        for q in [5u32, 250, 5, 499 % n] {
            let want = brute_knn(&g, q, 8, &objects);
            let got: Vec<Weight> = GtreeSearch::new(&tree, &g, q)
                .knn(8, &occ, LeafSearchMode::Improved)
                .iter()
                .map(|&(_, d)| d)
                .collect();
            assert_eq!(got, want, "q={q}");
        }
    }

    #[test]
    fn single_leaf_tree_supports_queries() {
        let (g, tree) = setup(80, 3, 200);
        assert_eq!(tree.num_nodes(), 1);
        let objects: Vec<NodeId> = vec![3, 9, 40];
        let occ = OccurrenceList::build(&tree, &objects);
        let mut search = GtreeSearch::new(&tree, &g, 0);
        let got = search.knn(2, &occ, LeafSearchMode::Improved);
        let want = brute_knn(&g, 0, 2, &objects);
        assert_eq!(got.iter().map(|&(_, d)| d).collect::<Vec<_>>(), want);
        let mut s2 = GtreeSearch::new(&tree, &g, 5);
        assert_eq!(s2.distance_to(40), dijkstra::distance(&g, 5, 40));
    }

    #[test]
    fn queries_stay_exact_across_a_forced_epoch_wrap() {
        let (g, tree) = setup(400, 41, 40);
        let n = g.num_vertices() as NodeId;
        let objects: Vec<NodeId> = (0..n).filter(|v| v % 6 == 1).collect();
        let occ = OccurrenceList::build(&tree, &objects);
        let mut search = GtreeSearch::new(&tree, &g, 3);
        search.knn(5, &occ, LeafSearchMode::Improved);
        // Park the stamp at the wrap boundary; the next reset takes the wrap path.
        search.store.row_bound.park_before_wrap();
        search.reset(77 % n);
        let got: Vec<Weight> =
            search.knn(5, &occ, LeafSearchMode::Improved).iter().map(|&(_, d)| d).collect();
        assert_eq!(got, brute_knn(&g, 77 % n, 5, &objects), "post-wrap kNN");
        let truth = dijkstra::single_source(&g, 77 % n);
        for t in (0..n).step_by(37) {
            assert_eq!(search.distance_to(t), truth[t as usize], "post-wrap {t}");
        }
    }

    #[test]
    fn panic_during_materialization_leaves_search_and_pool_usable() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (g, tree) = setup(700, 43, 48);
        let n = g.num_vertices() as NodeId;
        let objects: Vec<NodeId> = (0..n).filter(|v| v % 8 == 5).collect();
        let occ = OccurrenceList::build(&tree, &objects);
        let truth = dijkstra::single_source(&g, 11);
        let far = (0..n).max_by_key(|&t| truth[t as usize].min(INFINITY - 1)).unwrap();

        // The leaf-mates of the source the leaf search settles first and last.
        let leaf_mates = tree.leaf_vertices(tree.leaf_of(11));
        let by_distance = |&&t: &&NodeId| truth[t as usize].min(INFINITY - 1);
        let first = *leaf_mates.iter().filter(|&&t| t != 11).min_by_key(by_distance).unwrap();
        let near = *leaf_mates.iter().max_by_key(by_distance).unwrap();
        let checked: Vec<NodeId> = (0..n).step_by(43).chain(leaf_mates.iter().copied()).collect();

        // The third assembly of the next query panics with its ancestors' rows
        // built but its own not yet tagged valid; the second sibling fill panics
        // with one sibling filled and the climbing node itself not yet tagged; the
        // second kept entry border panics with an entry list half built and not
        // tagged current; the second, fourth or seventh leaf settle panics with that
        // vertex settled but its edges unrelaxed (in a search an earlier same-leaf
        // distance left resumable).
        let leaf_faults = [1, 3, 6].map(|n| ((Fault::Leaf, n), near));
        let far_faults =
            [(Fault::Assembly, 2), (Fault::Fill, 1), (Fault::Entry, 1)].map(|f| (f, far));
        for (fault, target) in far_faults.into_iter().chain(leaf_faults) {
            let mut search = GtreeSearch::new(&tree, &g, 11);
            // A resumable leaf search is what a panic must not leave resumable.
            assert_eq!(search.distance_to(first), truth[first as usize]);
            FAIL_AFTER.with(|c| c.set(Some(fault)));
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {})); // silence the expected backtrace
            let outcome = catch_unwind(AssertUnwindSafe(|| search.distance_to(target)));
            std::panic::set_hook(hook);
            FAIL_AFTER.with(|c| c.set(None));
            assert!(outcome.is_err(), "{fault:?}: the injected panic must fire (too shallow?)");

            // 1. The same search must keep answering exactly — the interrupted
            //    materialization may not have left a half-built row marked valid,
            //    nor the interrupted leaf search a half-relaxed one resumable.
            for &t in &checked {
                assert_eq!(search.distance_to(t), truth[t as usize], "{fault:?}: 11->{t}");
            }
            let got: Vec<Weight> =
                search.knn(6, &occ, LeafSearchMode::Improved).iter().map(|&(_, d)| d).collect();
            assert_eq!(got, brute_knn(&g, 11, 6, &objects), "{fault:?}: same-search kNN");

            // 2. After dropping it, the pooled store a new search inherits must be
            //    clean as well (this used to poison the thread-local pool).
            drop(search);
            let mut next = GtreeSearch::new(&tree, &g, 200 % n);
            let got: Vec<Weight> =
                next.knn(6, &occ, LeafSearchMode::Improved).iter().map(|&(_, d)| d).collect();
            assert_eq!(got, brute_knn(&g, 200 % n, 6, &objects), "{fault:?}: post-drop kNN");
        }
    }
}
