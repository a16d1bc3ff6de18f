//! The method registry: one [`KnnAlgorithm`] implementor per kNN method.
//!
//! This replaces the former giant `match` inside `Engine::knn`. Dispatch,
//! `Engine::supports`, and `Method::name` all read the single [`registry`]
//! below, so adding a method means adding one implementor here and one
//! [`Method`] variant — nothing in the facade changes.

use rnknn_graph::NodeId;
use rnknn_gtree::LeafSearchMode;
use rnknn_road::RoadKnn;

use crate::disbrw::{DisBrwSearch, DisBrwVariant};
use crate::engine::Method;
use crate::error::EngineError;
use crate::ier::{
    AStarOracle, ChOracle, DijkstraOracle, DistanceOracle, IerSearch, PhlOracle, TnrOracle,
};
use crate::ine::IneSearch;
use crate::query::{IndexKind, KnnAlgorithm, QueryContext, QueryOutput, QueryStats};
use crate::scratch::EngineScratch;

/// Every registered method, in the order the paper introduces them.
pub fn registry() -> &'static [&'static dyn KnnAlgorithm] {
    REGISTRY
}

static REGISTRY: &[&dyn KnnAlgorithm] = &[
    &Ine,
    &IerDijkstra,
    &IerAStar,
    &IerCh,
    &IerPhl,
    &IerTnr,
    &IerGtree,
    &DisBrw,
    &DisBrwObjectHierarchy,
    &Road,
    &GtreeKnn,
];

/// Renders the method-vs-required-index table embedded in `docs/ARCHITECTURE.md`,
/// generated from the registry so the documentation can never drift from the code
/// (a unit test asserts the file contains exactly this output).
pub fn method_index_table() -> String {
    let mut out = String::from(
        "| `Method` | display name | required road-network indexes |\n|---|---|---|\n",
    );
    for algorithm in registry() {
        let required = if algorithm.required_indexes().is_empty() {
            "*(none — works on the raw graph)*".to_string()
        } else {
            algorithm.required_indexes().iter().map(|k| k.name()).collect::<Vec<_>>().join(", ")
        };
        out.push_str(&format!(
            "| `{:?}` | {} | {} |\n",
            algorithm.method(),
            algorithm.name(),
            required
        ));
    }
    out
}

/// The implementor registered for `method`.
pub fn algorithm(method: Method) -> &'static dyn KnnAlgorithm {
    REGISTRY
        .iter()
        .copied()
        .find(|a| a.method() == method)
        .expect("every Method variant has a registered KnnAlgorithm")
}

/// Shared body of the six IER variants: run IER with `oracle` (reusing the
/// scratch pool's browse heap and writing into `out`) and translate
/// [`crate::ier::IerStats`] into the unified vocabulary. Oracles with pooled state
/// borrow it from the other fields of the same [`EngineScratch`].
fn ier_knn<O: DistanceOracle>(
    ctx: &QueryContext<'_>,
    oracle: O,
    query: NodeId,
    k: usize,
    browser: &mut rnknn_objects::BrowserScratch,
    out: &mut QueryOutput,
) {
    let mut search = IerSearch::new(ctx.graph, oracle);
    search.set_budget(ctx.budget);
    let stats = search.knn_with_stats_into(query, k, ctx.rtree, browser, &mut out.result);
    let oracle_stats = search.oracle().search_stats();
    out.stats = QueryStats {
        oracle_calls: stats.network_distance_computations as u64,
        candidates_examined: stats.euclidean_candidates as u64,
        nodes_expanded: oracle_stats.nodes_expanded,
        heap_operations: oracle_stats.heap_operations,
        matrix_cells: oracle_stats.matrix_cells,
        ..Default::default()
    };
}

/// Incremental Network Expansion (the expansion-based baseline).
struct Ine;

impl KnnAlgorithm for Ine {
    fn method(&self) -> Method {
        Method::Ine
    }
    fn name(&self) -> &'static str {
        "INE"
    }
    fn knn_into(
        &self,
        ctx: &QueryContext<'_>,
        query: NodeId,
        k: usize,
        scratch: &mut EngineScratch,
        out: &mut QueryOutput,
    ) -> Result<(), EngineError> {
        let mut search = IneSearch::new(ctx.graph);
        search.set_budget(ctx.budget);
        let stats = search.knn_with_stats_in(
            query,
            k,
            ctx.objects,
            &mut scratch.expansion,
            &mut out.result,
        );
        out.stats = QueryStats {
            nodes_expanded: stats.settled as u64,
            heap_operations: stats.heap_operations as u64,
            ..Default::default()
        };
        Ok(())
    }
}

/// IER with a fresh Dijkstra per candidate (the historical baseline).
struct IerDijkstra;

impl KnnAlgorithm for IerDijkstra {
    fn method(&self) -> Method {
        Method::IerDijkstra
    }
    fn name(&self) -> &'static str {
        "IER-Dijk"
    }
    fn knn_into(
        &self,
        ctx: &QueryContext<'_>,
        query: NodeId,
        k: usize,
        scratch: &mut EngineScratch,
        out: &mut QueryOutput,
    ) -> Result<(), EngineError> {
        let mut oracle = DijkstraOracle::new(ctx.graph, &mut scratch.expansion);
        oracle.set_budget(ctx.budget);
        ier_knn(ctx, oracle, query, k, &mut scratch.browser, out);
        Ok(())
    }
}

/// IER with A*.
struct IerAStar;

impl KnnAlgorithm for IerAStar {
    fn method(&self) -> Method {
        Method::IerAStar
    }
    fn name(&self) -> &'static str {
        "IER-A*"
    }
    fn knn_into(
        &self,
        ctx: &QueryContext<'_>,
        query: NodeId,
        k: usize,
        scratch: &mut EngineScratch,
        out: &mut QueryOutput,
    ) -> Result<(), EngineError> {
        let mut oracle = AStarOracle::new(ctx.graph, &mut scratch.expansion);
        oracle.set_budget(ctx.budget);
        ier_knn(ctx, oracle, query, k, &mut scratch.browser, out);
        Ok(())
    }
}

/// IER with Contraction Hierarchies.
struct IerCh;

impl KnnAlgorithm for IerCh {
    fn method(&self) -> Method {
        Method::IerCh
    }
    fn name(&self) -> &'static str {
        "IER-CH"
    }
    fn required_indexes(&self) -> &'static [IndexKind] {
        &[IndexKind::Ch]
    }
    fn knn_into(
        &self,
        ctx: &QueryContext<'_>,
        query: NodeId,
        k: usize,
        scratch: &mut EngineScratch,
        out: &mut QueryOutput,
    ) -> Result<(), EngineError> {
        let ch = ctx.require_ch(self.method())?;
        let targets = ctx.require_ch_targets(self.method())?;
        let mut oracle = ChOracle::new(ch, targets, &mut scratch.ch_search);
        oracle.set_budget(ctx.budget);
        ier_knn(ctx, oracle, query, k, &mut scratch.browser, out);
        Ok(())
    }
}

/// IER with hub labels ("IER-PHL", the paper's headline winner).
struct IerPhl;

impl KnnAlgorithm for IerPhl {
    fn method(&self) -> Method {
        Method::IerPhl
    }
    fn name(&self) -> &'static str {
        "IER-PHL"
    }
    fn required_indexes(&self) -> &'static [IndexKind] {
        &[IndexKind::Phl]
    }
    fn knn_into(
        &self,
        ctx: &QueryContext<'_>,
        query: NodeId,
        k: usize,
        scratch: &mut EngineScratch,
        out: &mut QueryOutput,
    ) -> Result<(), EngineError> {
        let phl = ctx.require_phl(self.method())?;
        ier_knn(ctx, PhlOracle::new(phl), query, k, &mut scratch.browser, out);
        Ok(())
    }
}

/// IER with Transit Node Routing.
struct IerTnr;

impl KnnAlgorithm for IerTnr {
    fn method(&self) -> Method {
        Method::IerTnr
    }
    fn name(&self) -> &'static str {
        "IER-TNR"
    }
    /// TNR first: a missing-index error names the method's own index (a TNR is
    /// never built without the CH it is derived from).
    fn required_indexes(&self) -> &'static [IndexKind] {
        &[IndexKind::Tnr, IndexKind::Ch]
    }
    fn knn_into(
        &self,
        ctx: &QueryContext<'_>,
        query: NodeId,
        k: usize,
        scratch: &mut EngineScratch,
        out: &mut QueryOutput,
    ) -> Result<(), EngineError> {
        let tnr = ctx.require_tnr(self.method())?;
        let ch = ctx.require_ch(self.method())?;
        let oracle = TnrOracle::new(ch, tnr, &mut scratch.tnr);
        ier_knn(ctx, oracle, query, k, &mut scratch.browser, out);
        Ok(())
    }
}

/// IER with the materialized G-tree oracle ("IER-Gt").
struct IerGtree;

impl KnnAlgorithm for IerGtree {
    fn method(&self) -> Method {
        Method::IerGtree
    }
    fn name(&self) -> &'static str {
        "IER-Gt"
    }
    fn required_indexes(&self) -> &'static [IndexKind] {
        &[IndexKind::Gtree]
    }
    fn knn_into(
        &self,
        ctx: &QueryContext<'_>,
        query: NodeId,
        k: usize,
        scratch: &mut EngineScratch,
        out: &mut QueryOutput,
    ) -> Result<(), EngineError> {
        let gtree = ctx.require_gtree(self.method())?;
        let mut oracle = rnknn_gtree::GtreeDistanceOracle::new(gtree, ctx.graph, query);
        oracle.set_budget(ctx.budget);
        ier_knn(ctx, oracle, query, k, &mut scratch.browser, out);
        Ok(())
    }
}

/// Shared body of the two Distance Browsing variants.
fn disbrw_knn(
    ctx: &QueryContext<'_>,
    variant: DisBrwVariant,
    method: Method,
    query: NodeId,
    k: usize,
    scratch: &mut EngineScratch,
    out: &mut QueryOutput,
) -> Result<(), EngineError> {
    let silc = ctx.require_silc(method)?;
    let mut search = DisBrwSearch::with_variant(ctx.graph, silc, Some(silc.chains()), variant);
    search.set_budget(ctx.budget);
    let stats = search.knn_with_stats_in(
        query,
        k,
        ctx.rtree,
        ctx.objects,
        &mut scratch.browser,
        &mut scratch.disbrw,
        &mut out.result,
    );
    out.stats = QueryStats {
        nodes_expanded: stats.hierarchy_nodes as u64,
        oracle_calls: stats.refinements as u64,
        candidates_examined: stats.candidates as u64,
        ..Default::default()
    };
    Ok(())
}

/// Distance Browsing with Euclidean-NN candidates (DB-ENN).
struct DisBrw;

impl KnnAlgorithm for DisBrw {
    fn method(&self) -> Method {
        Method::DisBrw
    }
    fn name(&self) -> &'static str {
        "DisBrw"
    }
    fn required_indexes(&self) -> &'static [IndexKind] {
        &[IndexKind::Silc]
    }
    fn knn_into(
        &self,
        ctx: &QueryContext<'_>,
        query: NodeId,
        k: usize,
        scratch: &mut EngineScratch,
        out: &mut QueryOutput,
    ) -> Result<(), EngineError> {
        disbrw_knn(ctx, DisBrwVariant::DbEnn, self.method(), query, k, scratch, out)
    }
}

/// Distance Browsing with the original object hierarchy.
struct DisBrwObjectHierarchy;

impl KnnAlgorithm for DisBrwObjectHierarchy {
    fn method(&self) -> Method {
        Method::DisBrwObjectHierarchy
    }
    fn name(&self) -> &'static str {
        "DisBrw-OH"
    }
    fn required_indexes(&self) -> &'static [IndexKind] {
        &[IndexKind::Silc]
    }
    fn knn_into(
        &self,
        ctx: &QueryContext<'_>,
        query: NodeId,
        k: usize,
        scratch: &mut EngineScratch,
        out: &mut QueryOutput,
    ) -> Result<(), EngineError> {
        disbrw_knn(ctx, DisBrwVariant::ObjectHierarchy, self.method(), query, k, scratch, out)
    }
}

/// ROAD (Rnet hierarchy with Route Overlay bypassing).
struct Road;

impl KnnAlgorithm for Road {
    fn method(&self) -> Method {
        Method::Road
    }
    fn name(&self) -> &'static str {
        "ROAD"
    }
    fn required_indexes(&self) -> &'static [IndexKind] {
        &[IndexKind::Road]
    }
    fn knn_into(
        &self,
        ctx: &QueryContext<'_>,
        query: NodeId,
        k: usize,
        scratch: &mut EngineScratch,
        out: &mut QueryOutput,
    ) -> Result<(), EngineError> {
        let road = ctx.require_road(self.method())?;
        let directory = ctx.require_association(self.method())?;
        let mut road_knn = RoadKnn::new(ctx.graph, road);
        road_knn.set_budget(ctx.budget);
        let stats = road_knn.knn_with_stats_in(
            query,
            k,
            directory,
            &mut scratch.expansion,
            &mut out.result,
        );
        out.stats = QueryStats {
            nodes_expanded: stats.settled as u64,
            heap_operations: stats.heap_pushes as u64,
            oracle_calls: stats.shortcuts_relaxed as u64,
            ..Default::default()
        };
        Ok(())
    }
}

/// G-tree kNN (occurrence-list traversal with the improved leaf search).
struct GtreeKnn;

impl KnnAlgorithm for GtreeKnn {
    fn method(&self) -> Method {
        Method::Gtree
    }
    fn name(&self) -> &'static str {
        "Gtree"
    }
    fn required_indexes(&self) -> &'static [IndexKind] {
        &[IndexKind::Gtree]
    }
    fn knn_into(
        &self,
        ctx: &QueryContext<'_>,
        query: NodeId,
        k: usize,
        _scratch: &mut EngineScratch,
        out: &mut QueryOutput,
    ) -> Result<(), EngineError> {
        let gtree = ctx.require_gtree(self.method())?;
        let occurrence = ctx.require_occurrence(self.method())?;
        let mut search = rnknn_gtree::GtreeSearch::new(gtree, ctx.graph, query);
        search.set_budget(ctx.budget);
        search.knn_into(k, occurrence, LeafSearchMode::Improved, &mut out.result);
        let stats = search.stats;
        out.stats = QueryStats {
            nodes_expanded: stats.materialized_nodes + stats.leaf_vertices_settled,
            heap_operations: stats.heap_pushes,
            oracle_calls: stats.border_computations,
            matrix_cells: stats.matrix_cells,
            ..Default::default()
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_method_exactly_once() {
        let mut methods: Vec<Method> = registry().iter().map(|a| a.method()).collect();
        assert_eq!(methods.len(), 11);
        methods.dedup();
        assert_eq!(methods.len(), 11, "duplicate Method in registry");
        for &m in &methods {
            assert_eq!(algorithm(m).method(), m);
            assert!(!algorithm(m).name().is_empty());
        }
    }

    /// docs/ARCHITECTURE.md embeds the registry-generated method table verbatim; if
    /// this fails, re-paste the output of [`method_index_table`] into the doc.
    #[test]
    fn architecture_doc_embeds_the_generated_method_table() {
        let doc = include_str!("../../../docs/ARCHITECTURE.md");
        let table = method_index_table();
        assert!(
            doc.contains(&table),
            "docs/ARCHITECTURE.md is out of sync with the method registry.\n\
             Replace its method table with:\n\n{table}"
        );
    }

    #[test]
    fn required_indexes_match_the_paper_table() {
        assert!(algorithm(Method::Ine).required_indexes().is_empty());
        assert!(algorithm(Method::IerDijkstra).required_indexes().is_empty());
        assert_eq!(algorithm(Method::IerPhl).required_indexes(), &[IndexKind::Phl]);
        assert_eq!(algorithm(Method::IerTnr).required_indexes(), &[IndexKind::Tnr, IndexKind::Ch]);
        assert_eq!(algorithm(Method::DisBrw).required_indexes(), &[IndexKind::Silc]);
        assert_eq!(algorithm(Method::Road).required_indexes(), &[IndexKind::Road]);
        assert_eq!(algorithm(Method::Gtree).required_indexes(), &[IndexKind::Gtree]);
    }
}
