//! Object sets (points of interest) and their decoupled indexes.
//!
//! Every method the paper studies decouples the road-network index from the object
//! index (Section 2.2). This crate provides:
//!
//! * [`ObjectSet`] — a set of object vertices with `O(1)` membership tests;
//! * the paper's object-set generators (Section 4.2): uniform, clustered and
//!   minimum-object-distance sets, plus POI-like presets standing in for the
//!   OpenStreetMap extracts of Table 2 (docs/ARCHITECTURE.md, "Substitutions");
//! * the object indexes whose size and construction time Figure 18 compares:
//!   an R-tree over object coordinates ([`ObjectRTree`], used by IER and DB-ENN),
//!   and the occurrence list that serves as both G-tree's occurrence list and ROAD's
//!   association directory (from `rnknn-gtree`, wrapped by [`builders`] so the
//!   harness can time them uniformly).

#![forbid(unsafe_code)]

pub mod builders;
pub mod generators;
pub mod poi;
pub mod set;

pub use builders::{build_occurrence_list, build_rtree, ObjectIndexCost};
pub use generators::{
    churn_stream, clustered, min_object_distance, uniform, ChurnConfig, MinDistanceSets,
    UpdateEvent,
};
pub use poi::{PoiCategory, PoiSets};
pub use rnknn_spatial::rtree::BrowserScratch;
pub use set::{ObjectRTree, ObjectSet};
