//! Multilevel graph partitioning.
//!
//! G-tree recursively partitions the road network into `f ≥ 2` balanced parts with
//! small edge cut (Section 3.4), and ROAD's Rnets are its parts (Section 3.5). The paper uses the multilevel scheme
//! of Karypis & Kumar (the paper's reference \[18\]) via the G-tree authors' code;
//! since the road-network
//! partitioning problem is NP-complete, any balanced small-cut heuristic preserves the
//! experimental trends (docs/ARCHITECTURE.md, "Substitutions"). This crate implements a
//! self-contained multilevel partitioner:
//!
//! 1. **Coarsening** — repeated heavy-edge matching until the graph is small;
//! 2. **Initial partitioning** — greedy BFS region growing from pseudo-peripheral seeds;
//! 3. **Uncoarsening + refinement** — project the partition back up, applying
//!    boundary Fiduccia–Mattheyses-style moves at every level.
//!
//! `k`-way partitions are produced by recursive bisection, which is how G-tree
//! (fanout `f`) consumes it — through [`hierarchy`], the one build-time module that
//! recurses, finds every part's borders, lists the edges of the reduced graphs their
//! border distances are composed on, and holds the triangle rule
//! ([`hierarchy::sparsify`]) that thins those distances, and ROAD's shortcuts.

#![forbid(unsafe_code)]

pub mod hierarchy;
pub mod multilevel;
pub mod refine;

pub use hierarchy::Hierarchy;
pub use multilevel::Partitioner;

/// A `k`-way partition assignment: `parts[i]` is the part (in `0..k`) of the `i`-th
/// vertex of the partitioned vertex set.
pub type PartitionAssignment = Vec<u32>;
