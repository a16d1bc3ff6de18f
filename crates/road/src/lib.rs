//! ROAD — Route Overlay and Association Directory (Lee et al., TKDE 2012 / EDBT 2009).
//!
//! ROAD accelerates INE-style expansion by *bypassing* object-free regions (Rnets):
//! the road network is recursively partitioned into a hierarchy of Rnets; for every Rnet
//! the distances between its border vertices are precomputed as shortcuts; during a kNN
//! search, when the expansion reaches a border of an object-free Rnet it relaxes the
//! Rnet's shortcuts instead of exploring its interior.
//!
//! The partition and the distances are the G-tree's: an Rnet is a G-tree node, and its
//! shortcuts are read from the node's refined matrix, so ROAD is derived from a built
//! [`rnknn_gtree::Gtree`] instead of partitioning and searching the network again.
//!
//! The crate provides:
//!
//! * [`RoadIndex`] — the Rnet hierarchy plus Route Overlay (triangle-sparsified border
//!   shortcut rows stored vertex-major in one flat array, as Section 6.2 recommends);
//! * [`RoadKnn`] — the kNN search of Appendix A.3, including the fix that skips
//!   re-inserting already-visited borders.
//!
//! ROAD's association directory is not a structure of its own: the G-tree's
//! [`rnknn_gtree::OccurrenceList`] already holds an exact object count per node (an
//! Rnet) and the object bitmap, so [`RoadKnn`] reads it (Section 7.4 measures the
//! paper's directory, with a bit per Rnet in place of the count).

#![forbid(unsafe_code)]

/// Tests of ROAD's reading of the shared occurrence list (test-only).
#[cfg(test)]
#[path = "directory_tests.rs"]
mod association;
mod index;
mod knn;

pub use index::{RnetIndex, RoadIndex};
pub use knn::{RoadKnn, RoadSearchStats};
