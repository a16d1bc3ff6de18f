//! G-tree (Zhong et al., TKDE 2015): a balanced partition tree with border-to-border
//! distance matrices, the strongest road-network kNN index the paper evaluates.
//!
//! The crate provides:
//!
//! * [`Gtree`] — the index: a recursive partitioning of the road network (fanout `f`,
//!   leaf capacity `τ`), border sets per node, and per-node distance matrices stored as
//!   flat 1-D arrays grouped by child (the cache-friendly layout of Section 6.1).
//! * [`DistanceMatrix`] — the one matrix layout: a bare row-major arena of 32-bit
//!   [`Cell`]s (the hashed layouts of the paper's Figure 6 / Table 3 live in
//!   `experiments fig6 table3`, filled from these cells). A graph whose distances do
//!   not fit the cell range is refused at build time ([`GtreeBuildError`]).
//! * [`OccurrenceList`] — the decoupled object index (Section 3.5), which also serves
//!   as ROAD's association directory: a subtree object count per node and a bit per
//!   vertex.
//! * [`GtreeSearch`] — materialized distance assembly, the kNN algorithm with the
//!   improved leaf search of Appendix A.2.1 (the original leaf search is kept for the
//!   Figure 22 ablation), and the `MGtree` point-to-point oracle used by IER-Gt. One
//!   source-leaf search serves both: it seeds the leaf's borders at their distances
//!   from the source instead of relaxing the paper's border-to-border shortcuts.
//!   Both assemble rows through the same sweeps, which read only a source row's
//!   entry borders: a border reached through another border of its own node at no
//!   greater distance cannot give a minimum and is skipped.
//!
//! Distance matrices are made globally exact by a top-down refinement pass after the
//! usual bottom-up computation (see docs/ARCHITECTURE.md, "G-tree construction"). It
//! always runs — the queries and the leaf search's seeds read cells as global
//! distances — so every distance returned by this crate equals the Dijkstra distance.

// The only crate in the workspace allowed to contain `unsafe` (the SIMD
// min-plus kernels in `kernel.rs`, shared by the build-side refinement sweep
// and the query-side materialization sweep); every other crate root forbids
// it, enforced
// by `cargo xtask lint`. Unsafe operations must be wrapped in explicit blocks
// even inside `unsafe fn`, each with its own `// SAFETY:` justification.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(missing_docs)]

mod build;
mod distmatrix;
pub mod kernel;
mod occurrence;
pub mod persist;
mod search;
mod tree;

pub use build::{GtreeBuildError, GtreeConfig};
pub use distmatrix::{narrow, widen, Cell, DistanceMatrix, CELL_INFINITY};
pub use occurrence::OccurrenceList;
pub use search::{GtreeDistanceOracle, GtreeSearch, GtreeSearchStats, LeafSearchMode};
pub use tree::{Gtree, NodeIndex};
