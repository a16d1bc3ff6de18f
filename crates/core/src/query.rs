//! The unified query surface: per-query statistics, the query output, and the
//! road-network indexes a method can require.
//!
//! The paper is a comparative measurement study — every figure reports the same
//! kNN query answered by interchangeable methods with per-query counters. This
//! module makes that shape explicit: a query answers with a [`QueryOutput`] whose
//! [`QueryStats`] normalises the scattered per-method counters (`IneStats`,
//! `IerStats`, `DisBrwStats`, ...) into one vocabulary, and [`IndexKind`] names
//! what [`crate::Method::required_indexes`] declares.

use crate::KnnResult;

/// Unified per-query operation counters, comparable across methods (the paper's
/// Figure 9(b) / Table 3 vocabulary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct QueryStats {
    /// Vertices settled / hierarchy nodes expanded by the search.
    pub nodes_expanded: u64,
    /// Priority-queue operations performed.
    pub heap_operations: u64,
    /// Exact-distance oracle invocations (IER network-distance computations,
    /// DisBrw interval refinements, G-tree border-to-border combinations).
    pub oracle_calls: u64,
    /// Candidate objects examined (Euclidean candidates, interval candidates).
    pub candidates_examined: u64,
    /// Cells of a precomputed table swept: distance-matrix cells read by G-tree
    /// assembly (counted in per-row batches), CH target-label entries scanned by
    /// IER-CH (counted per candidate).
    pub matrix_cells: u64,
    /// Wall-clock time of the query in microseconds (filled in by the engine).
    pub elapsed_micros: u64,
}

impl QueryStats {
    /// Accumulates another query's counters into this one (for workload totals).
    pub fn accumulate(&mut self, other: &QueryStats) {
        self.nodes_expanded += other.nodes_expanded;
        self.heap_operations += other.heap_operations;
        self.oracle_calls += other.oracle_calls;
        self.candidates_examined += other.candidates_examined;
        self.matrix_cells += other.matrix_cells;
        self.elapsed_micros += other.elapsed_micros;
    }
}

/// The answer to one kNN query: the result list plus its operation counters.
///
/// Deliberately not `PartialEq`: `stats.elapsed_micros` is wall-clock time, so
/// whole-output equality would be nondeterministic. Compare `result` (or
/// [`QueryOutput::distances`]) instead.
///
/// An output can be reused across queries with `Engine::query_into` — the result
/// vector is cleared (keeping its capacity) and refilled, which is what makes the
/// steady-state query path allocation-free.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// Object vertices with their network distances, in non-decreasing order.
    pub result: KnnResult,
    /// Operation counters for this query.
    pub stats: QueryStats,
}

impl QueryOutput {
    /// Bundles a result with its counters.
    pub fn new(result: KnnResult, stats: QueryStats) -> QueryOutput {
        QueryOutput { result, stats }
    }

    /// The network distances of the result, in non-decreasing order.
    pub fn distances(&self) -> Vec<rnknn_graph::Weight> {
        self.result.iter().map(|&(_, d)| d).collect()
    }
}

/// The road-network indexes an algorithm can require (object indexes are derived
/// from these plus the current object set and need no separate declaration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// The G-tree (partition tree + distance matrices).
    Gtree,
    /// The ROAD Rnet hierarchy + Route Overlay.
    Road,
    /// The SILC path-coherence quadtrees.
    Silc,
    /// The Contraction Hierarchy.
    Ch,
    /// Hub labels ("PHL").
    Phl,
    /// Transit Node Routing.
    Tnr,
}

impl IndexKind {
    /// Display name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::Gtree => "G-tree",
            IndexKind::Road => "ROAD",
            IndexKind::Silc => "SILC",
            IndexKind::Ch => "CH",
            IndexKind::Phl => "PHL",
            IndexKind::Tnr => "TNR",
        }
    }
}
