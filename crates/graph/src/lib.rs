//! Road-network graph substrate for the rnknn workspace.
//!
//! This crate provides the in-memory road-network representation shared by every
//! kNN method and shortest-path oracle in the workspace:
//!
//! * [`Graph`] — a compressed-sparse-row (CSR) undirected graph with vertex
//!   coordinates, following the "single edges array + offsets" layout the paper
//!   recommends for cache-friendly expansion (Section 6.2, choice 3).
//! * [`Point`] and Euclidean geometry helpers, including the travel-time lower
//!   bound scaling `S = max(d_i / w_i)` from Section 7.5.
//! * [`generator`] — a synthetic road-network generator used as a substitute for
//!   the 9th DIMACS Challenge datasets (docs/ARCHITECTURE.md, "Substitutions").
//! * [`dimacs`] — a parser/writer for the DIMACS `.gr` / `.co` exchange format so
//!   real datasets can be plugged in when available.
//! * [`chains`] — degree-2 chain extraction used by the SILC/DisBrw degree-2
//!   optimisation (Appendix A.1.2).
//! * [`testgraphs`] — hand-built networks with the input shapes the generator never
//!   produces (ties, zero-weight edges, several components), for tests everywhere.

#![forbid(unsafe_code)]

pub mod builder;
pub mod chains;
pub mod dimacs;
pub mod generator;
pub mod graph;
pub mod persist;
pub mod point;
pub mod testgraphs;

pub use builder::GraphBuilder;
pub use chains::ChainIndex;
pub use generator::{DatasetPreset, GeneratorConfig, RoadNetwork};
pub use graph::{EdgeWeightKind, EuclideanBound, Graph};
pub use point::{Point, Rect};

/// Identifier of a road-network vertex. Vertices are numbered `0..graph.num_vertices()`.
pub type NodeId = u32;

/// Network distance / edge weight. Edge weights are positive; accumulated distances use
/// the same type to avoid conversions in hot loops.
pub type Weight = u64;

/// A value larger than any real network distance, safe to add edge weights to without
/// overflowing.
pub const INFINITY: Weight = Weight::MAX / 4;
