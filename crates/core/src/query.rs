//! The unified query surface: per-query statistics, the query context handed to
//! algorithms, and the [`KnnAlgorithm`] trait every method implements.
//!
//! The paper is a comparative measurement study — every figure reports the same
//! kNN query answered by interchangeable methods with per-query counters. This
//! module makes that shape explicit: a method is a [`KnnAlgorithm`], a query
//! answers with a [`QueryOutput`] whose [`QueryStats`] normalises the scattered
//! per-method counters (`IneStats`, `IerStats`, `DisBrwStats`, ...) into one
//! vocabulary, and [`QueryContext`] is the read-only view of the engine's
//! indexes an algorithm runs against.

use rnknn_graph::{Graph, NodeId};
use rnknn_gtree::{Gtree, OccurrenceList};
use rnknn_objects::{ObjectRTree, ObjectSet};
use rnknn_pathfinding::QueryBudget;
use rnknn_road::{AssociationDirectory, RoadIndex};
use rnknn_silc::SilcIndex;

use crate::engine::Method;
use crate::error::EngineError;
use crate::scratch::EngineScratch;
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

/// Read-only view of the engine's state for the duration of one query: the road
/// network, whichever road-network indexes were built, and the current object
/// set with its object indexes. Everything is borrowed immutably, so contexts
/// for many concurrent queries can coexist.
pub struct QueryContext<'a> {
    /// The road network.
    pub graph: &'a Graph,
    /// The G-tree, if built.
    pub gtree: Option<&'a Gtree>,
    /// The ROAD index, if built.
    pub road: Option<&'a RoadIndex>,
    /// The SILC index, if built.
    pub silc: Option<&'a SilcIndex>,
    /// The contraction hierarchy, if built.
    pub ch: Option<&'a rnknn_ch::ContractionHierarchy>,
    /// The hub labels, if built.
    pub phl: Option<&'a rnknn_phl::HubLabels>,
    /// The TNR index, if built.
    pub tnr: Option<&'a rnknn_tnr::TransitNodeRouting>,
    /// The current object set.
    pub objects: &'a ObjectSet,
    /// R-tree over the current object set.
    pub rtree: &'a ObjectRTree,
    /// G-tree occurrence list for the current object set (present iff the G-tree is).
    pub occurrence: Option<&'a OccurrenceList>,
    /// ROAD association directory for the current object set (present iff ROAD is).
    pub association: Option<&'a AssociationDirectory>,
    /// CH target directory for the current object set (present iff the CH is).
    pub ch_targets: Option<&'a rnknn_ch::ChTargetDirectory>,
    /// Cooperative cancellation budget for this query. Methods charge it as they
    /// settle vertices / materialize cells; an exhausted budget makes them unwind
    /// with a truncated answer, which the engine converts into
    /// [`EngineError::DeadlineExceeded`]. Defaults to
    /// [`rnknn_pathfinding::UNLIMITED`] on the non-budgeted entry points.
    pub budget: &'a QueryBudget,
}

impl<'a> QueryContext<'a> {
    /// True when `kind` was built.
    pub fn has(&self, kind: IndexKind) -> bool {
        match kind {
            IndexKind::Gtree => self.gtree.is_some(),
            IndexKind::Road => self.road.is_some(),
            IndexKind::Silc => self.silc.is_some(),
            IndexKind::Ch => self.ch.is_some(),
            IndexKind::Phl => self.phl.is_some(),
            IndexKind::Tnr => self.tnr.is_some(),
        }
    }

    fn missing(method: Method, kind: IndexKind) -> EngineError {
        EngineError::MissingIndex { method, index: kind }
    }

    /// The G-tree, or [`EngineError::MissingIndex`] attributed to `method`.
    pub fn require_gtree(&self, method: Method) -> Result<&'a Gtree, EngineError> {
        self.gtree.ok_or(Self::missing(method, IndexKind::Gtree))
    }

    /// The ROAD index, or [`EngineError::MissingIndex`].
    pub fn require_road(&self, method: Method) -> Result<&'a RoadIndex, EngineError> {
        self.road.ok_or(Self::missing(method, IndexKind::Road))
    }

    /// The SILC index, or [`EngineError::MissingIndex`].
    pub fn require_silc(&self, method: Method) -> Result<&'a SilcIndex, EngineError> {
        self.silc.ok_or(Self::missing(method, IndexKind::Silc))
    }

    /// The contraction hierarchy, or [`EngineError::MissingIndex`].
    pub fn require_ch(
        &self,
        method: Method,
    ) -> Result<&'a rnknn_ch::ContractionHierarchy, EngineError> {
        self.ch.ok_or(Self::missing(method, IndexKind::Ch))
    }

    /// The hub labels, or [`EngineError::MissingIndex`].
    pub fn require_phl(&self, method: Method) -> Result<&'a rnknn_phl::HubLabels, EngineError> {
        self.phl.ok_or(Self::missing(method, IndexKind::Phl))
    }

    /// The TNR index, or [`EngineError::MissingIndex`].
    pub fn require_tnr(
        &self,
        method: Method,
    ) -> Result<&'a rnknn_tnr::TransitNodeRouting, EngineError> {
        self.tnr.ok_or(Self::missing(method, IndexKind::Tnr))
    }

    /// The occurrence list, or [`EngineError::MissingIndex`] (absent iff the G-tree is).
    pub fn require_occurrence(&self, method: Method) -> Result<&'a OccurrenceList, EngineError> {
        self.occurrence.ok_or(Self::missing(method, IndexKind::Gtree))
    }

    /// The CH target directory, or [`EngineError::MissingIndex`] (absent iff the CH is).
    pub fn require_ch_targets(
        &self,
        method: Method,
    ) -> Result<&'a rnknn_ch::ChTargetDirectory, EngineError> {
        self.ch_targets.ok_or(Self::missing(method, IndexKind::Ch))
    }

    /// The association directory, or [`EngineError::MissingIndex`] (absent iff ROAD is).
    pub fn require_association(
        &self,
        method: Method,
    ) -> Result<&'a AssociationDirectory, EngineError> {
        self.association.ok_or(Self::missing(method, IndexKind::Road))
    }
}

/// One kNN method, as the engine's dispatch sees it.
///
/// Implementors are stateless unit structs registered in [`crate::methods`]; all
/// per-query state lives either on the stack of [`KnnAlgorithm::knn_into`] or in
/// the [`EngineScratch`] the engine hands it (one per thread), which is what makes
/// the engine shareable across threads. `Engine::supports`, `Method::name` and
/// dispatch all derive from this trait via the registry, so a new method plugs in
/// by adding one implementor — the facade is untouched.
pub trait KnnAlgorithm: Sync {
    /// The [`Method`] this algorithm implements.
    fn method(&self) -> Method;

    /// Display name matching the paper's figure legends.
    fn name(&self) -> &'static str;

    /// Road-network indexes the algorithm needs (drives `Engine::supports` and
    /// the `MissingIndex` error).
    fn required_indexes(&self) -> &'static [IndexKind] {
        &[]
    }

    /// Answers a kNN query against `ctx`, writing the result into `out` (cleared
    /// first) and reusing whatever pieces of `scratch` the method needs — the
    /// pooled-context hook every registered method implements. `query` and `k` are
    /// validated by the engine before this is called; `out.stats.elapsed_micros` is
    /// filled in by the engine afterwards.
    fn knn_into(
        &self,
        ctx: &QueryContext<'_>,
        query: NodeId,
        k: usize,
        scratch: &mut EngineScratch,
        out: &mut QueryOutput,
    ) -> Result<(), EngineError>;
}
