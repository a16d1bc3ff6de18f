//! Contraction Hierarchies (Geisberger et al., WEA 2008).
//!
//! CH is one of the fast point-to-point shortest-path techniques the paper combines
//! with IER (Section 5, Figure 4): vertices are contracted in increasing order of
//! importance, inserting shortcut edges that preserve shortest-path distances among the
//! remaining vertices; queries run a bidirectional Dijkstra that only ever relaxes edges
//! towards more important vertices.
//!
//! Preprocessing scales to continent-style inputs: priorities are cached and
//! invalidated neighbour-only, witness searches run as staged hop-limited passes, and
//! a contract-rest-by-degree endgame guards against pathological dense cores. Every
//! hierarchy is built under the same constants, and every query search but the
//! full upward spaces stalls on demand, so [`ContractionHierarchy::build`] takes the
//! graph alone. Queries run on a reusable epoch-tagged scratch with frontier
//! pruning; see [`ContractionHierarchy::distance_with_counters`]. The
//! IER-CH hot path searches upward from the query only as far as its candidates
//! need: a [`ChTargetDirectory`] keeps each object's upward space as a label in
//! distance order, filled when the object is inserted, and one resumable
//! [`ChForwardSearch`] per query meets
//! each candidate's label, extended only when the label's prefix below the running
//! bound reaches past what it has settled.
//!
//! Besides serving as the IER-CH oracle, the hierarchy is what the other two CH-based
//! indexes are derived from: [`rnknn-tnr`](../rnknn_tnr/index.html) selects its
//! transit nodes by rank and searches this hierarchy at query time, and
//! [`rnknn-phl`](../rnknn_phl/index.html) labels vertices in rank order. Neither
//! keeps a hierarchy of its own.

#![forbid(unsafe_code)]

mod build;
pub mod persist;
mod query;
mod targets;

pub use build::ContractionHierarchy;
pub use query::{ChForwardSearch, ChSearchCounters, ChSearchSpace};
pub use targets::ChTargetDirectory;
