//! Query dispatch: one `match` on [`Method`] runs each kNN method's body.
//!
//! [`Method::name`] and [`Method::required_indexes`] are `match`es too, so adding
//! or removing a method is one variant plus one arm in each — the compiler points
//! at every place that needs it.

use rnknn_graph::Graph;
use rnknn_gtree::LeafSearchMode;
use rnknn_objects::{BrowserScratch, ObjectRTree};
use rnknn_road::RoadKnn;

use crate::disbrw::{DisBrwSearch, DisBrwVariant};
use crate::engine::{Engine, Method, QueryRequest};
use crate::error::EngineError;
use crate::ier::{
    AStarOracle, ChOracle, DijkstraOracle, DistanceOracle, IerSearch, PhlOracle, TnrOracle,
};
use crate::ine::IneSearch;
use crate::live::ObjectIndexes;
use crate::query::{IndexKind, QueryOutput, QueryStats};
use crate::scratch::EngineScratch;
use crate::KnnResult;

/// Renders the method-vs-required-index table embedded in `docs/ARCHITECTURE.md`,
/// generated from [`Method::required_indexes`] so the documentation can never drift
/// from the code (a unit test asserts the file contains exactly this output).
pub fn method_index_table() -> String {
    let mut out = String::from(
        "| `Method` | display name | required road-network indexes |\n|---|---|---|\n",
    );
    for method in Method::ALL {
        let required = if method.required_indexes().is_empty() {
            "*(none — works on the raw graph)*".to_string()
        } else {
            method.required_indexes().iter().map(|k| k.name()).collect::<Vec<_>>().join(", ")
        };
        out.push_str(&format!("| `{method:?}` | {} | {required} |\n", method.name()));
    }
    out
}

impl Engine {
    /// Runs `request.method` against the object view `live`, writing the answer into
    /// `out.result` and its counters into `out.stats`. `k`, the query vertex and the
    /// method's road-network indexes were validated by the caller; an object view
    /// built on an engine without one of them lacks its object index, which is
    /// [`EngineError::MissingIndex`] too. Oracles and searches borrow their pooled
    /// state from disjoint fields of `scratch`.
    pub(crate) fn dispatch(
        &self,
        request: &QueryRequest<'_>,
        live: &ObjectIndexes,
        scratch: &mut EngineScratch,
        out: &mut QueryOutput,
    ) -> Result<(), EngineError> {
        let &QueryRequest { method, query, k, budget, .. } = request;
        let missing = |index| EngineError::MissingIndex { method, index };
        let graph = self.graph();
        let rtree = live.rtree();
        let result = &mut out.result;
        out.stats = match method {
            Method::Ine => {
                let mut search = IneSearch::new(graph);
                search.set_budget(budget);
                let objects = live.objects();
                let stats =
                    search.knn_with_stats_in(query, k, objects, &mut scratch.expansion, result);
                QueryStats {
                    nodes_expanded: stats.settled as u64,
                    heap_operations: stats.heap_operations as u64,
                    ..Default::default()
                }
            }
            Method::IerDijkstra => {
                let mut oracle = DijkstraOracle::new(graph, &mut scratch.expansion);
                oracle.set_budget(budget);
                ier_knn(graph, rtree, request, oracle, &mut scratch.browser, result)
            }
            Method::IerAStar => {
                let mut oracle = AStarOracle::new(graph, &mut scratch.expansion);
                oracle.set_budget(budget);
                ier_knn(graph, rtree, request, oracle, &mut scratch.browser, result)
            }
            Method::IerCh => {
                let ch = self.ch().ok_or(missing(IndexKind::Ch))?;
                let targets = live.ch_targets().ok_or(missing(IndexKind::Ch))?;
                let mut oracle = ChOracle::new(ch, targets, &mut scratch.ch_search);
                oracle.set_budget(budget);
                ier_knn(graph, rtree, request, oracle, &mut scratch.browser, result)
            }
            Method::IerPhl => {
                let phl = self.phl().ok_or(missing(IndexKind::Phl))?;
                ier_knn(graph, rtree, request, PhlOracle::new(phl), &mut scratch.browser, result)
            }
            Method::IerTnr => {
                let tnr = self.tnr().ok_or(missing(IndexKind::Tnr))?;
                let ch = self.ch().ok_or(missing(IndexKind::Ch))?;
                let oracle = TnrOracle::new(ch, tnr, &mut scratch.tnr);
                ier_knn(graph, rtree, request, oracle, &mut scratch.browser, result)
            }
            Method::IerGtree => {
                let gtree = self.gtree().ok_or(missing(IndexKind::Gtree))?;
                let mut oracle = rnknn_gtree::GtreeDistanceOracle::new(gtree, graph, query);
                oracle.set_budget(budget);
                ier_knn(graph, rtree, request, oracle, &mut scratch.browser, result)
            }
            Method::DisBrw | Method::DisBrwObjectHierarchy => {
                let silc = self.silc().ok_or(missing(IndexKind::Silc))?;
                let variant = if method == Method::DisBrw {
                    DisBrwVariant::DbEnn
                } else {
                    DisBrwVariant::ObjectHierarchy
                };
                let mut search =
                    DisBrwSearch::with_variant(graph, silc, Some(silc.chains()), variant);
                search.set_budget(budget);
                let stats = search.knn_with_stats_in(
                    query,
                    k,
                    rtree,
                    live.objects(),
                    &mut scratch.browser,
                    &mut scratch.disbrw,
                    result,
                );
                QueryStats {
                    nodes_expanded: stats.hierarchy_nodes as u64,
                    oracle_calls: stats.refinements as u64,
                    candidates_examined: stats.candidates as u64,
                    ..Default::default()
                }
            }
            Method::Road => {
                let road = self.road().ok_or(missing(IndexKind::Road))?;
                let directory = live.association().ok_or(missing(IndexKind::Road))?;
                let mut road_knn = RoadKnn::new(graph, road);
                road_knn.set_budget(budget);
                let stats =
                    road_knn.knn_with_stats_in(query, k, directory, &mut scratch.expansion, result);
                QueryStats {
                    nodes_expanded: stats.settled as u64,
                    heap_operations: stats.heap_pushes as u64,
                    oracle_calls: stats.shortcuts_relaxed as u64,
                    ..Default::default()
                }
            }
            Method::Gtree => {
                let gtree = self.gtree().ok_or(missing(IndexKind::Gtree))?;
                let occurrence = live.occurrence().ok_or(missing(IndexKind::Gtree))?;
                let mut search = rnknn_gtree::GtreeSearch::new(gtree, graph, query);
                search.set_budget(budget);
                search.knn_into(k, occurrence, LeafSearchMode::Improved, result);
                let stats = search.stats;
                QueryStats {
                    nodes_expanded: stats.materialized_nodes + stats.leaf_vertices_settled,
                    heap_operations: stats.heap_pushes,
                    oracle_calls: stats.border_computations,
                    matrix_cells: stats.matrix_cells,
                    ..Default::default()
                }
            }
        };
        Ok(())
    }
}

/// Shared body of the six IER variants: run IER with `oracle` over `rtree` (reusing
/// the pooled browse heap) and translate [`crate::ier::IerStats`] into the unified
/// vocabulary.
fn ier_knn<O: DistanceOracle>(
    graph: &Graph,
    rtree: &ObjectRTree,
    request: &QueryRequest<'_>,
    oracle: O,
    browser: &mut BrowserScratch,
    result: &mut KnnResult,
) -> QueryStats {
    let mut search = IerSearch::new(graph, oracle);
    search.set_budget(request.budget);
    let stats = search.knn_with_stats_into(request.query, request.k, rtree, browser, result);
    let oracle_stats = search.oracle().search_stats();
    QueryStats {
        oracle_calls: stats.network_distance_computations as u64,
        candidates_examined: stats.euclidean_candidates as u64,
        nodes_expanded: oracle_stats.nodes_expanded,
        heap_operations: oracle_stats.heap_operations,
        matrix_cells: oracle_stats.matrix_cells,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// docs/ARCHITECTURE.md embeds the generated method table verbatim; if this
    /// fails, re-paste the output of [`method_index_table`] into the doc.
    #[test]
    fn architecture_doc_embeds_the_generated_method_table() {
        let doc = include_str!("../../../docs/ARCHITECTURE.md");
        let table = method_index_table();
        assert!(
            doc.contains(&table),
            "docs/ARCHITECTURE.md is out of sync with the method table.\n\
             Replace its method table with:\n\n{table}"
        );
    }

    #[test]
    fn required_indexes_match_the_paper_table() {
        assert!(Method::Ine.required_indexes().is_empty());
        assert!(Method::IerDijkstra.required_indexes().is_empty());
        assert_eq!(Method::IerPhl.required_indexes(), &[IndexKind::Phl]);
        assert_eq!(Method::IerTnr.required_indexes(), &[IndexKind::Tnr, IndexKind::Ch]);
        assert_eq!(Method::DisBrw.required_indexes(), &[IndexKind::Silc]);
        assert_eq!(Method::Road.required_indexes(), &[IndexKind::Road]);
        assert_eq!(Method::Gtree.required_indexes(), &[IndexKind::Gtree]);
    }
}
