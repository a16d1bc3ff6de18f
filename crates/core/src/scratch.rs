//! The engine's per-thread query scratch pool.
//!
//! Every kNN method needs per-query working state — heaps, distance/settled arrays,
//! candidate buffers, oracle search state. Allocating it per query dominates the
//! cost of short queries on large graphs, so [`EngineScratch`] keeps one instance of
//! everything alive per thread: `Engine::execute` (on `&self`) borrows the calling
//! thread's scratch from a `thread_local` pool and hands it to the method's arm of
//! the dispatch `match` ([`crate::methods`]), which **borrows** whichever fields it
//! needs for the duration of the query — an IER oracle is constructed over `&mut` references to
//! its pooled state (`DijkstraOracle::new(graph, &mut scratch.expansion)`, disjoint
//! from the `&mut scratch.browser` IER itself holds), so nothing is moved out of the
//! pool and there is nothing to hand back. Stale state is invalidated by the stamps
//! of [`rnknn_pathfinding::scratch::Stamped`] tables (one integer bump per query)
//! rather than wiped, the buffers grow to the largest workload seen on the thread
//! and are then reused forever, and the steady-state query path performs **zero
//! heap allocations** for the pooled methods (proven by the allocation-guard test
//! for G-tree, INE and IER-CH).
//!
//! ## Reuse contract
//!
//! * **Thread-local lifecycle** — one scratch per OS thread, created lazily on the
//!   first query and kept until the thread exits. Scratches are never shared, so the
//!   engine stays [`Sync`] and `knn_batch`'s worker threads each warm their own.
//! * **Per-query re-arm** — the one invalidation rule: nothing in the scratch
//!   carries meaning across queries; each query re-arms what it uses (stamp bump
//!   or `clear()` that keeps capacity) before reading it. So a scratch serves
//!   engines of different sizes and object sets changed by `Engine::set_objects`,
//!   an applied update or an epoch swap, interleaved on one thread: tables size
//!   to the largest graph seen, stamps keep smaller queries correct, and every
//!   candidate buffer, browse heap and best-k store is refilled from the queried
//!   bundle.
//! * **One oracle contract** — every IER oracle answers through
//!   [`crate::ier::DistanceOracle::distance_within`] (exact below the bound, anything
//!   `>=` it otherwise), so the pooled state above is only ever driven by one
//!   bounded, budgeted loop body per search algorithm.

use rnknn_objects::BrowserScratch;
use rnknn_pathfinding::scratch::SearchScratch;

use crate::disbrw::DisBrwScratch;

/// Reusable per-thread working state for one query at a time (see the module docs
/// for the reuse contract). Obtain one with [`EngineScratch::new`] — or not at all:
/// `Engine::execute` manages a thread-local instance automatically.
#[derive(Debug, Default)]
pub struct EngineScratch {
    /// Expansion-search state (stamped distances/settled + heap), shared by
    /// INE, ROAD and the Dijkstra/A* IER oracles.
    pub(crate) expansion: SearchScratch,
    /// R-tree browse heap, shared by every IER variant and DB-ENN.
    pub(crate) browser: BrowserScratch,
    /// IER-CH's query side: the resumable forward search (stamped labels + heap,
    /// paused between candidates) and the stamped target table a candidate's label
    /// prefix is projected into when the search has to be extended.
    pub(crate) ch_search: rnknn_ch::ChForwardSearch,
    /// IER-TNR per-source state (stopped forward space, folded table row, backward
    /// space buffer).
    pub(crate) tnr: rnknn_tnr::TnrSourceState,
    /// Distance Browsing candidate pool, refinement queues and best-k storage.
    pub(crate) disbrw: DisBrwScratch,
}

impl EngineScratch {
    /// Creates an empty scratch: nothing is allocated until a query uses a piece.
    pub fn new() -> Self {
        Self::default()
    }
}
