//! A single facade bundling every index and kNN method.
//!
//! [`Engine`] owns the road network and whichever road-network indexes were requested,
//! plus the currently-injected object set and its per-method object indexes. This
//! mirrors how the paper's experiments operate: road-network indexes are built once,
//! object indexes are cheap and swapped per object set (Section 7.4), and every method
//! answers the same queries.
//!
//! Every query runs through one body, [`Engine::execute_with_scratch`]: a
//! [`QueryRequest`] names the method, vertex and `k` plus the two optional inputs
//! (a [`QueryBudget`] and an external object view), and the body validates, picks
//! the object view and runs the method's arm of the one dispatch `match`
//! ([`crate::methods`]). [`Engine::execute`] supplies the calling
//! thread's pooled scratch; [`Engine::query`], [`Engine::query_into`] and
//! [`Engine::query_snapshot`] are one-line forwards. The engine is [`Sync`]:
//! [`Engine::knn_batch`] fans a query workload across scoped threads over one
//! shared engine.

use std::cell::RefCell;
use std::panic::resume_unwind;
use std::time::Instant;

use rnknn_graph::{Graph, NodeId};
use rnknn_gtree::{Gtree, GtreeConfig};
use rnknn_objects::{ObjectSet, UpdateEvent};
use rnknn_pathfinding::{QueryBudget, UNLIMITED};
use rnknn_road::RoadIndex;
use rnknn_silc::{SilcConfig, SilcIndex};

use crate::error::EngineError;
use crate::live::ObjectIndexes;
use crate::query::{IndexKind, QueryOutput};
use crate::scratch::EngineScratch;

thread_local! {
    /// The engine scratch pool: one [`EngineScratch`] per thread, created lazily on
    /// the first query and reused by every subsequent query on that thread (across
    /// engines — epoch tags keep differently-sized graphs from interfering). This is
    /// what lets `Engine::execute` on `&self` reuse heaps, distance arrays, G-tree
    /// border storage, IER candidate buffers and oracle search spaces while keeping
    /// `Engine: Sync`.
    static ENGINE_SCRATCH: RefCell<EngineScratch> = RefCell::new(EngineScratch::new());
}

/// The kNN methods the engine can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Incremental Network Expansion.
    Ine,
    /// IER with a fresh Dijkstra per candidate (the historical baseline).
    IerDijkstra,
    /// IER with A*.
    IerAStar,
    /// IER with Contraction Hierarchies.
    IerCh,
    /// IER with hub labels ("IER-PHL").
    IerPhl,
    /// IER with Transit Node Routing.
    IerTnr,
    /// IER with the materialized G-tree oracle ("IER-Gt").
    IerGtree,
    /// Distance Browsing with Euclidean-NN candidates (DB-ENN).
    DisBrw,
    /// Distance Browsing with the original object hierarchy.
    DisBrwObjectHierarchy,
    /// ROAD.
    Road,
    /// G-tree.
    Gtree,
}

impl Method {
    /// Every method, in the order the paper introduces them.
    pub const ALL: [Method; 11] = [
        Method::Ine,
        Method::IerDijkstra,
        Method::IerAStar,
        Method::IerCh,
        Method::IerPhl,
        Method::IerTnr,
        Method::IerGtree,
        Method::DisBrw,
        Method::DisBrwObjectHierarchy,
        Method::Road,
        Method::Gtree,
    ];

    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Method::Ine => "INE",
            Method::IerDijkstra => "IER-Dijk",
            Method::IerAStar => "IER-A*",
            Method::IerCh => "IER-CH",
            Method::IerPhl => "IER-PHL",
            Method::IerTnr => "IER-TNR",
            Method::IerGtree => "IER-Gt",
            Method::DisBrw => "DisBrw",
            Method::DisBrwObjectHierarchy => "DisBrw-OH",
            Method::Road => "ROAD",
            Method::Gtree => "Gtree",
        }
    }

    /// The road-network indexes this method needs (drives [`Engine::supports`] and
    /// the `MissingIndex` error, which names the first one absent).
    pub fn required_indexes(self) -> &'static [IndexKind] {
        match self {
            Method::Ine | Method::IerDijkstra | Method::IerAStar => &[],
            Method::IerCh => &[IndexKind::Ch],
            Method::IerPhl => &[IndexKind::Phl],
            // TNR first: the error names the method's own index (a TNR is never
            // built without the CH it is derived from).
            Method::IerTnr => &[IndexKind::Tnr, IndexKind::Ch],
            Method::IerGtree | Method::Gtree => &[IndexKind::Gtree],
            Method::DisBrw | Method::DisBrwObjectHierarchy => &[IndexKind::Silc],
            Method::Road => &[IndexKind::Road],
        }
    }

    /// [`Method::ALL`] as a vector.
    pub fn all() -> Vec<Method> {
        Method::ALL.to_vec()
    }
}

/// One kNN query as [`Engine::execute`] sees it: the method, the query vertex and
/// `k`, plus the two optional inputs (budget and object view).
///
/// ```
/// # use rnknn::{Method, QueryBudget, QueryRequest};
/// let budget = QueryBudget::new(None, 10_000, 256);
/// let request = QueryRequest::new(Method::Gtree, 17, 5).with_budget(&budget);
/// assert!(request.objects.is_none()); // the engine's installed object set
/// ```
#[derive(Debug, Clone, Copy)]
pub struct QueryRequest<'a> {
    /// The kNN method to dispatch to.
    pub method: Method,
    /// The query vertex.
    pub query: NodeId,
    /// How many neighbors to return (must be positive).
    pub k: usize,
    /// Cooperative budget, charged inside the method's search loops (one step per
    /// settled vertex / materialized cell batch, checked in
    /// [`QueryBudget::check_every`]-sized strides). Defaults to [`UNLIMITED`]; a
    /// budget that never exhausts leaves the answer bit-identical.
    pub budget: &'a QueryBudget,
    /// The object view to answer against. `None` (the default) means the engine's
    /// installed set; `Some` is the serving layer's epoch-snapshot path — the
    /// engine contributes the (immutable) road-network indexes, the caller the
    /// object view, so many epochs can serve concurrently over one engine. The
    /// bundle must have been built against this engine
    /// ([`Engine::build_object_indexes`]) and may have been evolved with
    /// [`Engine::apply_object_update`]; the engine's own set is then ignored and
    /// need not exist.
    pub objects: Option<&'a ObjectIndexes>,
}

impl<'a> QueryRequest<'a> {
    /// An unbudgeted request against the engine's installed object set.
    pub fn new(method: Method, query: NodeId, k: usize) -> Self {
        QueryRequest { method, query, k, budget: &UNLIMITED, objects: None }
    }

    /// The same request under `budget`.
    pub fn with_budget(self, budget: &'a QueryBudget) -> Self {
        QueryRequest { budget, ..self }
    }

    /// The same request against the external object view `objects`.
    pub fn with_objects(self, objects: &'a ObjectIndexes) -> Self {
        QueryRequest { objects: Some(objects), ..self }
    }
}

/// Which road-network indexes the engine builds.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Build the G-tree (needed by `Gtree` and `IerGtree`). A graph whose distances
    /// do not fit its 32-bit matrix cells gets none ([`rnknn_gtree::GtreeBuildError`]).
    pub build_gtree: bool,
    /// Build the ROAD index (implies a G-tree build: ROAD is derived from it, and a
    /// graph the G-tree refuses gets no ROAD either).
    pub build_road: bool,
    /// Build the SILC index (needed by both Distance Browsing variants). Skipped
    /// automatically when the graph exceeds the SILC size limit, as in the paper.
    pub build_silc: bool,
    /// Build the Contraction Hierarchy (needed by `IerCh` and `IerTnr`).
    pub build_ch: bool,
    /// Build hub labels (needed by `IerPhl`; implies a CH build: the labels are
    /// derived from it).
    pub build_phl: bool,
    /// Build Transit Node Routing (needed by `IerTnr`; implies a CH build: TNR is
    /// derived from it and its queries read it).
    pub build_tnr: bool,
    /// G-tree shape (fanout, leaf capacity — `0`, the default, is the paper's
    /// size-based rule) and the build's worker threads, which the G-tree, SILC and
    /// the build schedule share (see [`rnknn_gtree::GtreeConfig`]).
    pub gtree_config: GtreeConfig,
    /// SILC size limit (vertices).
    pub silc_max_vertices: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            build_gtree: true,
            build_road: true,
            build_silc: true,
            build_ch: true,
            build_phl: true,
            build_tnr: false,
            gtree_config: GtreeConfig::default(),
            silc_max_vertices: SilcConfig::default().max_vertices,
        }
    }
}

impl EngineConfig {
    /// A configuration that only builds the expansion-based indexes (fast to construct;
    /// useful for examples and tests).
    pub fn minimal() -> Self {
        EngineConfig {
            build_gtree: true,
            build_road: true,
            build_silc: false,
            build_ch: false,
            build_phl: false,
            build_tnr: false,
            ..Default::default()
        }
    }

    /// Whether a contraction hierarchy is needed: asked for, or implied by PHL or
    /// TNR, which are derived from it. The build and the load path both read this.
    pub(crate) fn wants_ch(&self) -> bool {
        self.build_ch || self.build_phl || self.build_tnr
    }

    /// Whether a G-tree is needed: asked for, or implied by ROAD, which is derived
    /// from it. The build and the load path both read this.
    pub(crate) fn wants_gtree(&self) -> bool {
        self.build_gtree || self.build_road
    }
}

/// Construction times of the road-network indexes, in microseconds (Figure 8(b) /
/// Figure 26(a)).
///
/// Each `*_micros` is the wall clock of that one builder, taken inside its own
/// task of the build schedule (`Engine::assemble`): when the contraction
/// hierarchy's chain runs beside the partition family's, the two clocks overlap
/// and each reads contended time, so the parts may sum to more than
/// `total_micros`. For one builder alone, build an engine with only that index.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    /// G-tree construction time.
    pub gtree_micros: u128,
    /// ROAD construction time: its derivation from the G-tree.
    pub road_micros: u128,
    /// SILC construction time.
    pub silc_micros: u128,
    /// Contraction-hierarchy preprocessing time.
    pub ch_micros: u128,
    /// Hub-label construction time (excluding the CH it is derived from).
    pub phl_micros: u128,
    /// Transit-node-routing construction time (excluding the CH it is derived from).
    pub tnr_micros: u128,
    /// Wall clock of the whole schedule, first builder's start to last builder's end.
    pub total_micros: u128,
}

/// Runs one builder and returns what it built with its wall clock in microseconds.
fn timed<T>(build: impl FnOnce() -> T) -> (T, u128) {
    let start = Instant::now();
    let built = build();
    (built, start.elapsed().as_micros())
}

/// Runs `beside` on a scoped thread of its own while `here` runs on the caller's.
/// A panic on either side reaches the caller with its own payload, once both
/// sides have stopped.
fn run_beside<A: Send, B>(beside: impl FnOnce() -> A + Send, here: impl FnOnce() -> B) -> (A, B) {
    std::thread::scope(|scope| {
        let beside = scope.spawn(beside);
        // If `here` panics, the scope joins the thread and resumes that payload.
        let here = here();
        // Joined by hand: left to the scope, a panic in `beside` would surface as
        // "a scoped thread panicked" instead of what the builder said.
        (beside.join().unwrap_or_else(|payload| resume_unwind(payload)), here)
    })
}

/// The engine: road network + road-network indexes + the current object set and its
/// object indexes.
pub struct Engine {
    graph: Graph,
    gtree: Option<Gtree>,
    road: Option<RoadIndex>,
    silc: Option<SilcIndex>,
    ch: Option<rnknn_ch::ContractionHierarchy>,
    phl: Option<rnknn_phl::HubLabels>,
    tnr: Option<rnknn_tnr::TransitNodeRouting>,
    build_times: BuildTimes,
    /// Current object set with its derived object indexes (see [`ObjectIndexes`]).
    live: Option<ObjectIndexes>,
}

impl Engine {
    /// Builds the requested road-network indexes over `graph`.
    pub fn build(graph: Graph, config: &EngineConfig) -> Engine {
        Engine::assemble(graph, config, None, None)
    }

    /// The shared body of [`Engine::build`] and the artifact load path
    /// ([`crate::persist`]): any index handed in as `preloaded_*` is adopted
    /// as-is (its build time stays zero), everything else the config requests
    /// is built here — so a loaded engine can still grow the non-persisted
    /// indexes (ROAD, SILC, PHL, TNR) on top of disk-backed CH and G-tree.
    ///
    /// The builders form two chains that read nothing of each other's: the
    /// partition family then SILC (G-tree → ROAD → SILC, ROAD derived from the
    /// G-tree whether that was built or loaded), and the contraction
    /// hierarchy with its two dependants (CH → PHL → TNR, both derived from the
    /// CH whether that was built or loaded). When a CH has to be
    /// contracted, the first chain has something to build too and the build
    /// thread count allows it, the CH chain runs on its own scoped thread beside
    /// the first; otherwise both run on the caller's, one after the other.
    /// Either way each index comes from the same deterministic call on the same
    /// graph (docs/ARCHITECTURE.md, "Build schedule").
    pub(crate) fn assemble(
        graph: Graph,
        config: &EngineConfig,
        preloaded_gtree: Option<Gtree>,
        preloaded_ch: Option<rnknn_ch::ContractionHierarchy>,
    ) -> Engine {
        let g = &graph;
        let wants_ch = config.wants_ch();
        let wants_gtree = config.wants_gtree();
        let threads = config.gtree_config.resolved_threads();
        let overlap = wants_ch
            && preloaded_ch.is_none()
            && (wants_gtree && preloaded_gtree.is_none() || config.build_road || config.build_silc)
            && threads >= 2;

        let partition_chain = move || {
            let mut times = BuildTimes::default();
            let gtree = if wants_gtree {
                preloaded_gtree.or_else(|| {
                    // A graph whose distances do not fit the G-tree's 32-bit cells is
                    // refused, not approximated: the engine then holds no G-tree and its
                    // methods answer `MissingIndex` (as with a graph SILC refuses).
                    let (gtree, micros) =
                        timed(|| Gtree::try_build_with_config(g, config.gtree_config.clone()).ok());
                    times.gtree_micros = micros;
                    gtree
                })
            } else {
                None
            };
            let road = gtree.as_ref().filter(|_| config.build_road).map(|gtree| {
                let (road, micros) = timed(|| RoadIndex::from_gtree(g, gtree));
                times.road_micros = micros;
                road
            });
            let silc = if config.build_silc {
                let sconfig = SilcConfig { max_vertices: config.silc_max_vertices, threads };
                let (silc, micros) = timed(|| SilcIndex::try_build(g, &sconfig));
                times.silc_micros = micros;
                silc
            } else {
                None
            };
            (gtree, road, silc, times)
        };
        let ch_chain = move || {
            let mut times = BuildTimes::default();
            let ch = wants_ch.then(|| {
                preloaded_ch.unwrap_or_else(|| {
                    let (ch, micros) = timed(|| rnknn_ch::ContractionHierarchy::build(g));
                    times.ch_micros = micros;
                    ch
                })
            });
            let phl = ch.as_ref().filter(|_| config.build_phl).and_then(|ch| {
                let (phl, micros) = timed(|| rnknn_phl::HubLabels::from_ch(g, ch));
                times.phl_micros = micros;
                phl
            });
            let tnr = ch.as_ref().filter(|_| config.build_tnr).map(|ch| {
                let (tnr, micros) = timed(|| rnknn_tnr::TransitNodeRouting::from_ch(g, ch));
                times.tnr_micros = micros;
                tnr
            });
            (ch, phl, tnr, times)
        };

        let start = Instant::now();
        let ((ch, phl, tnr, ch_times), (gtree, road, silc, partition_times)) = if overlap {
            run_beside(ch_chain, partition_chain)
        } else {
            let partition = partition_chain();
            (ch_chain(), partition)
        };
        let build_times = BuildTimes {
            ch_micros: ch_times.ch_micros,
            phl_micros: ch_times.phl_micros,
            tnr_micros: ch_times.tnr_micros,
            total_micros: start.elapsed().as_micros(),
            ..partition_times
        };

        Engine { graph, gtree, road, silc, ch, phl, tnr, build_times, live: None }
    }

    /// The road network.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Index construction times.
    pub fn build_times(&self) -> BuildTimes {
        self.build_times
    }

    /// The G-tree, if built (it may be absent because the graph's distances do not
    /// fit the matrix cells).
    pub fn gtree(&self) -> Option<&Gtree> {
        self.gtree.as_ref()
    }

    /// The ROAD index, if built.
    pub fn road(&self) -> Option<&RoadIndex> {
        self.road.as_ref()
    }

    /// The SILC index, if built (it may be absent because the graph was too large).
    pub fn silc(&self) -> Option<&SilcIndex> {
        self.silc.as_ref()
    }

    /// The contraction hierarchy, if built.
    pub fn ch(&self) -> Option<&rnknn_ch::ContractionHierarchy> {
        self.ch.as_ref()
    }

    /// The hub labels, if built.
    pub fn phl(&self) -> Option<&rnknn_phl::HubLabels> {
        self.phl.as_ref()
    }

    /// The transit node routing index, if built.
    pub(crate) fn tnr(&self) -> Option<&rnknn_tnr::TransitNodeRouting> {
        self.tnr.as_ref()
    }

    /// The current object set, if any.
    pub fn objects(&self) -> Option<&ObjectSet> {
        self.live.as_ref().map(|l| l.objects())
    }

    /// The currently-installed object indexes, if any.
    pub fn object_indexes(&self) -> Option<&ObjectIndexes> {
        self.live.as_ref()
    }

    /// True when `method` can be answered with the indexes that were built (its
    /// [`Method::required_indexes`]).
    pub fn supports(&self, method: Method) -> bool {
        method.required_indexes().iter().all(|&kind| self.has_index(kind))
    }

    /// True when the road-network index `kind` was built.
    pub fn has_index(&self, kind: IndexKind) -> bool {
        match kind {
            IndexKind::Gtree => self.gtree.is_some(),
            IndexKind::Road => self.road.is_some(),
            IndexKind::Silc => self.silc.is_some(),
            IndexKind::Ch => self.ch.is_some(),
            IndexKind::Phl => self.phl.is_some(),
            IndexKind::Tnr => self.tnr.is_some(),
        }
    }

    /// The one validation, shared by [`Engine::execute_with_scratch`] and
    /// `knn_batch*`: `k` must be positive, every index the method requires must
    /// have been built, and there must be an object view — `objects` if given,
    /// the installed set otherwise.
    fn validate<'a>(
        &'a self,
        method: Method,
        k: usize,
        objects: Option<&'a ObjectIndexes>,
    ) -> Result<&'a ObjectIndexes, EngineError> {
        if k == 0 {
            return Err(EngineError::InvalidK { k });
        }
        for &kind in method.required_indexes() {
            if !self.has_index(kind) {
                return Err(EngineError::MissingIndex { method, index: kind });
            }
        }
        objects.or(self.live.as_ref()).ok_or(EngineError::NoObjects)
    }

    /// Injects an object set, rebuilding the per-method object indexes (the cheap,
    /// decoupled step of Section 7.4).
    ///
    /// Installing a new set also advances the process-wide object generation, so
    /// per-thread scratches that served the old set invalidate their object-derived
    /// state on their next query (see [`crate::scratch`]).
    pub fn set_objects(&mut self, objects: ObjectSet) {
        let live = self.build_object_indexes(objects);
        self.set_object_indexes(live);
    }

    /// Installs pre-built object indexes (e.g. an epoch snapshot evolved outside the
    /// engine via [`Engine::apply_object_update`]).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `live` lacks an index this engine's methods expect
    /// (occurrence list without a G-tree build is fine; the reverse is not).
    pub fn set_object_indexes(&mut self, live: ObjectIndexes) {
        debug_assert!(
            self.gtree.is_none() || live.occurrence().is_some(),
            "object indexes lack the occurrence list this engine's G-tree needs"
        );
        debug_assert!(
            self.ch.is_none() || live.ch_targets().is_some(),
            "object indexes lack the target directory this engine's CH needs"
        );
        self.live = Some(live);
    }

    /// Builds a fresh [`ObjectIndexes`] bundle for `objects` against this engine's
    /// road-network indexes, without installing it — the full-rebuild baseline, and
    /// the way the serving layer seeds an epoch before evolving it incrementally.
    pub fn build_object_indexes(&self, objects: ObjectSet) -> ObjectIndexes {
        ObjectIndexes::build(&self.graph, self.gtree.as_ref(), self.ch.as_ref(), objects)
    }

    /// Applies one update event to `live` **in place** (no index rebuild; see
    /// [`ObjectIndexes::apply`] for the per-index strategies and cost). Returns
    /// whether the event changed anything. `live` must have been built against this
    /// engine (via [`Engine::build_object_indexes`] or cloned from another such
    /// bundle).
    pub fn apply_object_update(&self, live: &mut ObjectIndexes, event: UpdateEvent) -> bool {
        live.apply(&self.graph, self.gtree.as_ref(), self.ch.as_ref(), event)
    }

    /// Applies one update event to the engine's installed object indexes in place.
    /// Returns whether the event changed anything; `Err(NoObjects)` if no object set
    /// was ever installed.
    pub fn update_objects(&mut self, event: UpdateEvent) -> Result<bool, EngineError> {
        let mut live = self.live.take().ok_or(EngineError::NoObjects)?;
        let applied = self.apply_object_update(&mut live, event);
        self.live = Some(live);
        Ok(applied)
    }

    /// Answers a kNN query with the chosen method, returning the result together
    /// with unified per-query [`crate::QueryStats`] (a forward to
    /// [`Engine::execute`]; allocates only the returned result vector).
    ///
    /// This never panics: a missing index, a missing object set, an out-of-range
    /// vertex or `k == 0` come back as an [`EngineError`]. The engine is borrowed
    /// immutably, so any number of queries may run concurrently (see
    /// [`Engine::knn_batch`]).
    ///
    /// ```
    /// use rnknn::{Engine, EngineConfig, EngineError, Method};
    /// use rnknn_graph::{generator::{GeneratorConfig, RoadNetwork}, EdgeWeightKind};
    /// use rnknn_objects::uniform;
    ///
    /// let graph = RoadNetwork::generate(&GeneratorConfig::new(500, 7))
    ///     .graph(EdgeWeightKind::Distance);
    /// let objects = uniform(&graph, 0.05, 1);
    /// let mut engine = Engine::build(graph, &EngineConfig::minimal());
    ///
    /// // Querying before objects are injected is an error, not a panic.
    /// assert_eq!(engine.query(Method::Gtree, 17, 5).unwrap_err(), EngineError::NoObjects);
    ///
    /// engine.set_objects(objects);
    /// let output = engine.query(Method::Gtree, 17, 5)?;
    /// assert_eq!(output.result.len(), 5);
    /// // Distances are non-decreasing and the stats are populated.
    /// assert!(output.result.windows(2).all(|w| w[0].1 <= w[1].1));
    /// assert!(output.stats.nodes_expanded > 0);
    /// # Ok::<(), rnknn::EngineError>(())
    /// ```
    pub fn query(
        &self,
        method: Method,
        query: NodeId,
        k: usize,
    ) -> Result<QueryOutput, EngineError> {
        let mut out = QueryOutput::default();
        self.query_into(method, query, k, &mut out)?;
        Ok(out)
    }

    /// [`Engine::query`] writing into a caller-owned [`QueryOutput`]: a forward to
    /// [`Engine::execute`] with the default request (no budget, installed objects).
    pub fn query_into(
        &self,
        method: Method,
        query: NodeId,
        k: usize,
        out: &mut QueryOutput,
    ) -> Result<(), EngineError> {
        self.execute(&QueryRequest::new(method, query, k), out)
    }

    /// [`Engine::query`] against the external object view `live` instead of the
    /// installed set (see [`QueryRequest::objects`]): a forward to
    /// [`Engine::execute`] for tests and callers outside a serving worker.
    pub fn query_snapshot(
        &self,
        method: Method,
        query: NodeId,
        k: usize,
        live: &ObjectIndexes,
    ) -> Result<QueryOutput, EngineError> {
        let mut out = QueryOutput::default();
        self.execute(&QueryRequest::new(method, query, k).with_objects(live), &mut out)?;
        Ok(out)
    }

    /// Answers `request` on the calling thread's pooled scratch, writing into a
    /// caller-owned [`QueryOutput`] (the result vector is cleared, keeping its
    /// capacity, and refilled).
    ///
    /// This is the steady-state serving path: with the per-thread scratch pool it
    /// performs **zero heap allocations** after a warm-up query for the pooled
    /// methods (G-tree, INE, IER-CH and the other IER oracles; proven by the
    /// allocation-guard test), budgeted or not. The reuse contract of the pool is
    /// documented on [`crate::scratch::EngineScratch`].
    pub fn execute(
        &self,
        request: &QueryRequest<'_>,
        out: &mut QueryOutput,
    ) -> Result<(), EngineError> {
        ENGINE_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            self.execute_with_scratch(request, scratch, out)
        })
    }

    /// The one query body: validate, pick the object view, range-check the query
    /// vertex, sync the scratch's object generation and run the method's arm of the
    /// dispatch `match`. [`Engine::execute`] calls it with the thread's pooled scratch; a
    /// serving worker calls it directly with its thread-private one.
    ///
    /// On error, `out` is left cleared. When the request's budget exhausts, the
    /// search unwinds normally — no thread is killed, `scratch` stays reusable —
    /// and the call returns [`EngineError::DeadlineExceeded`] carrying the counters
    /// accumulated so far.
    pub fn execute_with_scratch(
        &self,
        request: &QueryRequest<'_>,
        scratch: &mut EngineScratch,
        out: &mut QueryOutput,
    ) -> Result<(), EngineError> {
        let &QueryRequest { method, query, k, budget, objects } = request;
        out.result.clear();
        out.stats = Default::default();
        let live = self.validate(method, k, objects)?;
        let num_vertices = self.graph.num_vertices();
        if query as usize >= num_vertices {
            return Err(EngineError::InvalidVertex { vertex: query, num_vertices });
        }
        // Mutant hook (`mutant-skip-generation-stamp`, for the serving-layer
        // models only): without the stamp, pooled scratch silently reuses
        // object-dependent state across different object sets.
        if !cfg!(feature = "mutant-skip-generation-stamp") {
            scratch.sync_object_generation(live.generation());
        }
        let start = Instant::now();
        self.dispatch(request, live, scratch, out)?;
        out.stats.elapsed_micros = start.elapsed().as_micros() as u64;
        if budget.is_exhausted() {
            // The search unwound cooperatively with a truncated result; a partial
            // kNN list is not a valid answer, so clear it and surface the typed
            // error with the counters accumulated up to the cancellation point.
            let partial = out.stats;
            out.result.clear();
            out.stats = Default::default();
            return Err(EngineError::DeadlineExceeded { partial });
        }
        Ok(())
    }

    /// Answers a whole query workload in parallel, fanning the queries across
    /// scoped worker threads over this shared engine (the paper's 10,000-query
    /// measurement loops, parallelized). Uses one worker per available core;
    /// results are returned in input order and are identical to running
    /// [`Engine::query`] sequentially.
    ///
    /// ```
    /// use rnknn::{Engine, EngineConfig, Method};
    /// use rnknn_graph::{generator::{GeneratorConfig, RoadNetwork}, EdgeWeightKind, NodeId};
    /// use rnknn_objects::uniform;
    ///
    /// let graph = RoadNetwork::generate(&GeneratorConfig::new(400, 3))
    ///     .graph(EdgeWeightKind::Distance);
    /// let mut engine = Engine::build(graph, &EngineConfig::minimal());
    /// engine.set_objects(uniform(engine.graph(), 0.05, 2));
    ///
    /// let n = engine.graph().num_vertices() as NodeId;
    /// let queries: Vec<NodeId> = (0..16).map(|i| i * 17 % n).collect();
    /// let batch = engine.knn_batch(Method::Ine, &queries, 3)?;
    /// assert_eq!(batch.len(), queries.len());
    /// // Order-preserving: batch[i] answers queries[i].
    /// let sequential = engine.query(Method::Ine, queries[4], 3)?;
    /// assert_eq!(batch[4].result, sequential.result);
    /// # Ok::<(), rnknn::EngineError>(())
    /// ```
    pub fn knn_batch(
        &self,
        method: Method,
        queries: &[NodeId],
        k: usize,
    ) -> Result<Vec<QueryOutput>, EngineError> {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        self.knn_batch_with_threads(method, queries, k, threads)
    }

    /// [`Engine::knn_batch`] with an explicit worker count.
    pub fn knn_batch_with_threads(
        &self,
        method: Method,
        queries: &[NodeId],
        k: usize,
        threads: usize,
    ) -> Result<Vec<QueryOutput>, EngineError> {
        // Surface configuration errors (bad k, missing index) even for an empty
        // workload, so a warm-up batch is a reliable configuration check.
        self.validate(method, k, None)?;
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let threads = threads.max(1).min(queries.len());
        if threads <= 1 {
            return queries.iter().map(|&q| self.query(method, q, k)).collect();
        }
        let chunk_len = queries.len().div_ceil(threads);
        let chunk_results = std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .chunks(chunk_len)
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|&q| self.query(method, q, k))
                            .collect::<Vec<Result<QueryOutput, EngineError>>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("kNN batch worker panicked"))
                .collect::<Vec<_>>()
        });
        chunk_results.into_iter().flatten().collect()
    }
}

// Compile-time guarantee that one `Engine` can be shared across threads — the
// contract `Engine::knn_batch` and any server embedding the engine rely on.
const _: () = {
    fn assert_sync<T: Sync>() {}
    // Referencing the instantiation is enough; the function never runs.
    let _ = assert_sync::<Engine>;
};

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::{EdgeWeightKind, Weight};
    use rnknn_objects::uniform;

    #[test]
    fn engine_answers_identically_across_all_supported_methods() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(900, 77));
        let graph = net.graph(EdgeWeightKind::Distance);
        let gtree_config = GtreeConfig { leaf_capacity: 64, ..GtreeConfig::default() };
        let config = EngineConfig { build_tnr: true, gtree_config, ..Default::default() };
        let mut engine = Engine::build(graph, &config);
        let objects = uniform(engine.graph(), 0.02, 5);
        engine.set_objects(objects);

        let n = engine.graph().num_vertices() as NodeId;
        for &q in &[5u32, n / 2, n - 3] {
            let reference = engine.query(Method::Ine, q, 8).unwrap().distances();
            for m in Method::all() {
                assert!(engine.supports(m), "{} should be supported", m.name());
                let output = engine.query(m, q, 8).unwrap();
                assert_eq!(output.distances(), reference, "method {} disagrees at q={q}", m.name());
                let s = output.stats;
                assert!(
                    s.nodes_expanded + s.heap_operations + s.oracle_calls + s.candidates_examined
                        > 0,
                    "method {} reported trivial stats",
                    m.name()
                );
            }
        }
        assert!(engine.build_times().gtree_micros > 0);
    }

    /// PHL is derived from the engine's one CH: asking for labels alone contracts
    /// the hierarchy, and the labels are exactly the ones derived from it.
    #[test]
    fn hub_labels_alone_are_derived_from_the_engines_ch() {
        let graph =
            RoadNetwork::generate(&GeneratorConfig::new(600, 12)).graph(EdgeWeightKind::Distance);
        let config = EngineConfig { build_phl: true, build_ch: false, ..EngineConfig::minimal() };
        let engine = Engine::build(graph, &config);
        let ch = engine.ch().expect("build_phl implies a CH");
        let derived = rnknn_phl::HubLabels::from_ch(engine.graph(), ch).unwrap();
        let phl = engine.phl().unwrap();
        assert_eq!(phl.average_label_size(), derived.average_label_size());
        assert_eq!(phl.memory_bytes(), derived.memory_bytes());
        assert!(engine.supports(Method::IerPhl) && engine.supports(Method::IerCh));
    }

    /// What a build schedule may not move.
    #[derive(PartialEq)]
    struct BuiltState {
        /// The artifact, whole.
        artifact: Vec<u8>,
        /// ROAD's `(num_rnets, memory_bytes)`.
        road: Option<(usize, usize)>,
        /// Every supported method's answers from 50 vertices.
        answers: Vec<(Method, Vec<(NodeId, Weight)>)>,
    }

    fn built_state(engine: &mut Engine) -> BuiltState {
        engine.set_objects(uniform(engine.graph(), 0.02, 5));
        let n = engine.graph().num_vertices() as NodeId;
        let mut answers = Vec::new();
        for method in Method::all().into_iter().filter(|&m| engine.supports(m)) {
            for i in 0..50 {
                answers.push((method, engine.query(method, (i * 41) % n, 5).unwrap().result));
            }
        }
        let road = engine.road().map(|r| (r.num_rnets(), r.memory_bytes()));
        BuiltState { artifact: engine.save_indexes_to_vec().unwrap(), road, answers }
    }

    fn with_build_threads(config: &EngineConfig, build_threads: usize) -> EngineConfig {
        let gtree_config = GtreeConfig { build_threads, ..config.gtree_config.clone() };
        EngineConfig { gtree_config, ..config.clone() }
    }

    /// The schedule changes when an index is built, never what is built: one thread
    /// (the straight line), the default count and two threads (the CH chain beside
    /// the partition family on any host) agree byte for byte — with the benchmark's
    /// three indexes, and with all six, where PHL and TNR wait for the CH on its
    /// thread and SILC ends the caller's chain.
    #[test]
    fn build_schedule_changes_when_indexes_are_built_never_what() {
        let three = EngineConfig { build_silc: false, build_phl: false, ..Default::default() };
        let six = EngineConfig { build_tnr: true, ..Default::default() };
        // SILC's all-pairs build sets the size of the second pass.
        for (config, vertices, methods) in [(three, 2_000, 7), (six, 1_000, 11)] {
            let graph = RoadNetwork::generate(&GeneratorConfig::new(vertices, 31))
                .graph(EdgeWeightKind::Distance);
            let build = |threads| {
                built_state(&mut Engine::build(
                    graph.clone(),
                    &with_build_threads(&config, threads),
                ))
            };
            let sequential = build(1);
            assert_eq!(sequential.answers.len(), methods * 50);
            for threads in [0, 2] {
                let overlapped = build(threads);
                assert!(overlapped.artifact == sequential.artifact, "{threads}: artifact differs");
                assert_eq!(overlapped.road, sequential.road, "{threads}: ROAD differs");
                assert!(overlapped.answers == sequential.answers, "{threads}: answers differ");
            }
        }
    }

    /// Nothing to overlap, nothing run: with CH and G-tree adopted from the artifact
    /// and no other index requested, no builder's clock starts.
    #[test]
    fn loading_every_requested_index_runs_no_builder() {
        let graph =
            RoadNetwork::generate(&GeneratorConfig::new(2_000, 31)).graph(EdgeWeightKind::Distance);
        let config = EngineConfig {
            build_road: false,
            build_silc: false,
            build_phl: false,
            ..Default::default()
        };
        let mut built = Engine::build(graph, &config);
        let expected = built_state(&mut built);
        let bytes = built.save_indexes_to_vec().unwrap();
        let mut loaded = Engine::load_indexes_from_vec(bytes, &config).unwrap();
        let t = loaded.build_times();
        assert_eq!(
            (t.gtree_micros, t.road_micros, t.silc_micros, t.ch_micros, t.phl_micros, t.tnr_micros),
            (0, 0, 0, 0, 0, 0)
        );
        assert!(built_state(&mut loaded) == expected);
    }

    /// A partition-chain assert raised while the CH chain runs on its thread: the
    /// schedule joins that thread and the caller still sees the builder's own message.
    #[test]
    #[should_panic(expected = "fanout must be at least 2")]
    fn builder_panic_beside_the_ch_thread_keeps_its_payload() {
        let graph =
            RoadNetwork::generate(&GeneratorConfig::new(300, 4)).graph(EdgeWeightKind::Distance);
        let config = EngineConfig {
            gtree_config: GtreeConfig { fanout: 1, ..GtreeConfig::default() },
            build_silc: false,
            build_phl: false,
            ..Default::default()
        };
        Engine::build(graph, &with_build_threads(&config, 2));
    }

    /// The same for the spawned side, which no `EngineConfig` can make panic.
    #[test]
    #[should_panic(expected = "said by the spawned side")]
    fn run_beside_re_raises_the_spawned_sides_payload() {
        run_beside(|| panic!("said by the spawned side"), || ());
    }

    /// The leaf capacity of `gtree_config` is the one the engine's G-tree is built
    /// with, reports and keeps.
    #[test]
    fn the_gtree_config_leaf_capacity_shapes_the_engines_tree() {
        let graph =
            RoadNetwork::generate(&GeneratorConfig::new(2_000, 7)).graph(EdgeWeightKind::Distance);
        let gtree_config = GtreeConfig { leaf_capacity: 32, ..GtreeConfig::default() };
        let config = EngineConfig { build_road: false, gtree_config, ..EngineConfig::minimal() };
        let engine = Engine::build(graph, &config);
        let gtree = engine.gtree().expect("built");
        assert_eq!(gtree.config().leaf_capacity, 32);
        let h = gtree.hierarchy();
        let mut leaves = (0..h.num_parts() as u32).filter(|&i| h.is_leaf(i));
        assert!(leaves.all(|i| h.num_vertices(i) <= 32), "a leaf holds more than 32 vertices");
    }

    #[test]
    fn swapping_object_sets_reuses_road_network_indexes() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(500, 3));
        let graph = net.graph(EdgeWeightKind::Distance);
        let mut engine = Engine::build(graph, &EngineConfig::minimal());
        assert!(!engine.supports(Method::IerPhl));
        assert!(engine.supports(Method::Gtree));

        let sparse = uniform(engine.graph(), 0.005, 1);
        engine.set_objects(sparse);
        let a = engine.query(Method::Gtree, 10, 3).unwrap().result;
        assert_eq!(a, engine.query(Method::Ine, 10, 3).unwrap().result);

        let dense = uniform(engine.graph(), 0.2, 2);
        engine.set_objects(dense);
        let b = engine.query(Method::Road, 10, 3).unwrap().result;
        assert_eq!(b, engine.query(Method::Ine, 10, 3).unwrap().result);
        assert!(b[0].1 <= a[0].1, "denser objects cannot be farther");
    }

    #[test]
    fn method_names_and_lineup() {
        assert_eq!(Method::IerPhl.name(), "IER-PHL");
        assert_eq!(Method::Gtree.name(), "Gtree");
        assert_eq!(Method::all().len(), 11);
        let distinct: std::collections::HashSet<Method> = Method::ALL.into_iter().collect();
        assert_eq!(distinct.len(), 11, "Method::ALL lists a method twice");
        assert_eq!(Method::IerPhl.required_indexes(), &[crate::IndexKind::Phl]);
    }

    #[test]
    fn query_reports_errors_instead_of_panicking() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(300, 4));
        let graph = net.graph(EdgeWeightKind::Distance);
        let mut engine = Engine::build(graph, &EngineConfig::minimal());

        // Before set_objects: NoObjects (for a supported method).
        assert_eq!(engine.query(Method::Ine, 0, 3).unwrap_err(), crate::EngineError::NoObjects);
        // minimal() builds neither PHL nor SILC: MissingIndex, even without objects.
        assert_eq!(
            engine.query(Method::IerPhl, 0, 3).unwrap_err(),
            crate::EngineError::MissingIndex {
                method: Method::IerPhl,
                index: crate::IndexKind::Phl
            }
        );
        assert_eq!(
            engine.query(Method::DisBrw, 0, 3).unwrap_err(),
            crate::EngineError::MissingIndex {
                method: Method::DisBrw,
                index: crate::IndexKind::Silc
            }
        );

        let objects = uniform(engine.graph(), 0.05, 9);
        engine.set_objects(objects);
        let n = engine.graph().num_vertices();
        assert_eq!(
            engine.query(Method::Ine, n as NodeId, 3).unwrap_err(),
            crate::EngineError::InvalidVertex { vertex: n as NodeId, num_vertices: n }
        );
        assert_eq!(
            engine.query(Method::Ine, 0, 0).unwrap_err(),
            crate::EngineError::InvalidK { k: 0 }
        );
        assert!(engine.query(Method::Ine, 0, 3).is_ok());
    }

    /// The drift guard for `Engine::supports` vs what the dispatch arms actually
    /// dereference: for every method and every
    /// index kind, an engine built without that index must (a) report
    /// `supports == false` exactly when the method requires it, and (b) surface a
    /// structured `MissingIndex` naming the method and the first missing index —
    /// never panic inside the algorithm because it grabbed an index it did not
    /// declare in `required_indexes`.
    #[test]
    fn missing_index_is_structured_and_consistent_with_supports_for_every_method() {
        use crate::IndexKind;

        let kinds = [
            IndexKind::Gtree,
            IndexKind::Road,
            IndexKind::Silc,
            IndexKind::Ch,
            IndexKind::Phl,
            IndexKind::Tnr,
        ];
        for &removed in &kinds {
            let config = EngineConfig {
                build_gtree: removed != IndexKind::Gtree,
                // `build_road` implies a G-tree, so removing the G-tree removes ROAD too.
                build_road: removed != IndexKind::Road && removed != IndexKind::Gtree,
                build_silc: removed != IndexKind::Silc,
                // `build_phl` and `build_tnr` imply a CH build, so removing CH
                // removes both.
                build_ch: removed != IndexKind::Ch,
                build_phl: removed != IndexKind::Phl && removed != IndexKind::Ch,
                build_tnr: removed != IndexKind::Tnr && removed != IndexKind::Ch,
                ..Default::default()
            };
            let net = RoadNetwork::generate(&GeneratorConfig::new(300, 5));
            let mut engine = Engine::build(net.graph(EdgeWeightKind::Distance), &config);
            engine.set_objects(uniform(engine.graph(), 0.05, 7));
            for method in Method::ALL {
                let missing: Vec<IndexKind> = method
                    .required_indexes()
                    .iter()
                    .copied()
                    .filter(|&kind| !engine.has_index(kind))
                    .collect();
                assert_eq!(
                    engine.supports(method),
                    missing.is_empty(),
                    "{} supports() disagrees with required_indexes when {} is absent",
                    method.name(),
                    removed.name()
                );
                match engine.query(method, 3, 2) {
                    Ok(_) => {
                        assert!(missing.is_empty(), "{} answered without its index", method.name())
                    }
                    Err(EngineError::MissingIndex { method: m, index }) => {
                        assert_eq!(m, method, "error names the wrong method");
                        assert_eq!(index, missing[0], "error names the wrong index");
                    }
                    Err(other) => panic!("{} returned unexpected error {other}", method.name()),
                }
            }
        }
    }

    /// An object view built on an engine without G-tree, ROAD or CH lacks the object
    /// indexes those methods read. Served by an engine that has the road-network
    /// indexes, each such method answers `MissingIndex` naming its index, never a
    /// panic; the methods that need no object index of their own still answer.
    #[test]
    fn object_view_from_a_bare_engine_is_missing_index_not_panic() {
        let graph =
            RoadNetwork::generate(&GeneratorConfig::new(400, 9)).graph(EdgeWeightKind::Distance);
        let none =
            EngineConfig { build_gtree: false, build_road: false, ..EngineConfig::minimal() };
        let bare = Engine::build(graph.clone(), &none);
        let view = bare.build_object_indexes(uniform(bare.graph(), 0.05, 3));
        assert!(view.occurrence().is_none() && view.association().is_none());
        assert!(view.ch_targets().is_none());

        let config = EngineConfig { build_silc: false, build_phl: false, ..Default::default() };
        let engine = Engine::build(graph, &config);
        for (method, index) in [
            (Method::Gtree, IndexKind::Gtree),
            (Method::Road, IndexKind::Road),
            (Method::IerCh, IndexKind::Ch),
        ] {
            assert!(engine.supports(method), "{}", method.name());
            assert_eq!(
                engine.query_snapshot(method, 5, 3, &view).unwrap_err(),
                EngineError::MissingIndex { method, index }
            );
        }
        let reference = engine.query_snapshot(Method::Ine, 5, 3, &view).unwrap().distances();
        let ier_gtree = engine.query_snapshot(Method::IerGtree, 5, 3, &view).unwrap();
        assert_eq!(ier_gtree.distances(), reference);
    }

    /// Incremental object updates through `update_objects` must answer exactly like
    /// an engine whose indexes were rebuilt from the same membership.
    #[test]
    fn incremental_updates_answer_like_a_rebuilt_engine() {
        use rnknn_objects::{churn_stream, ChurnConfig};

        let net = RoadNetwork::generate(&GeneratorConfig::new(700, 21));
        let graph = net.graph(EdgeWeightKind::Distance);
        let mut engine = Engine::build(graph, &EngineConfig::minimal());
        let initial = uniform(engine.graph(), 0.03, 11);
        let mut reference = initial.clone();
        engine.set_objects(initial);

        let events = churn_stream(
            engine.graph().num_vertices(),
            &reference,
            &ChurnConfig { events: 120, seed: 77, ..Default::default() },
        );
        let n = engine.graph().num_vertices() as NodeId;
        for (i, event) in events.into_iter().enumerate() {
            assert_eq!(engine.update_objects(event).unwrap(), event.apply_to(&mut reference));
            if i % 15 == 0 {
                let q = (i as NodeId * 37) % n;
                let rebuilt = engine.build_object_indexes(reference.clone());
                for m in [Method::Ine, Method::Gtree, Method::Road, Method::IerDijkstra] {
                    let live = engine.query(m, q, 5).unwrap();
                    let fresh = engine.query_snapshot(m, q, 5, &rebuilt).unwrap();
                    assert_eq!(
                        live.distances(),
                        fresh.distances(),
                        "event {i}: {} diverged from rebuild",
                        m.name()
                    );
                }
            }
        }
    }

    /// External snapshots answer through `query_snapshot` without touching (or
    /// requiring) the engine's installed set, and generations stay distinct.
    #[test]
    fn external_snapshots_serve_queries_independently() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(400, 6));
        let graph = net.graph(EdgeWeightKind::Distance);
        let engine = Engine::build(graph, &EngineConfig::minimal());
        // No installed object set at all: query() errors, snapshots still serve.
        assert_eq!(engine.query(Method::Ine, 3, 2).unwrap_err(), EngineError::NoObjects);

        let a = engine.build_object_indexes(uniform(engine.graph(), 0.02, 1));
        let mut b = a.clone();
        assert!(engine.apply_object_update(&mut b, UpdateEvent::Insert(3)));
        assert!(b.generation() > a.generation(), "updates must advance the generation");

        let from_a = engine.query_snapshot(Method::Gtree, 3, 3, &a).unwrap();
        let from_b = engine.query_snapshot(Method::Gtree, 3, 3, &b).unwrap();
        assert_eq!(from_b.result[0], (3, 0), "snapshot b has an object at the query vertex");
        assert_ne!(from_a.result[0].1, 0, "snapshot a must not see b's insert");
        // Conformance against INE on the same snapshot.
        let ine_b = engine.query_snapshot(Method::Ine, 3, 3, &b).unwrap();
        assert_eq!(from_b.distances(), ine_b.distances());
    }

    #[test]
    fn knn_batch_matches_sequential_queries() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(500, 12));
        let graph = net.graph(EdgeWeightKind::Distance);
        let mut engine = Engine::build(graph, &EngineConfig::minimal());
        engine.set_objects(uniform(engine.graph(), 0.02, 5));
        let n = engine.graph().num_vertices() as NodeId;
        let queries: Vec<NodeId> = (0..40u32).map(|i| (i * 131) % n).collect();
        let batch = engine.knn_batch(Method::Gtree, &queries, 4).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (&q, output) in queries.iter().zip(&batch) {
            let sequential = engine.query(Method::Gtree, q, 4).unwrap();
            assert_eq!(output.result, sequential.result, "q={q}");
        }
        assert!(engine.knn_batch(Method::Gtree, &[], 4).unwrap().is_empty());
        assert_eq!(
            engine.knn_batch(Method::Gtree, &queries, 0).unwrap_err(),
            crate::EngineError::InvalidK { k: 0 }
        );
    }
}
