//! Shortest-path primitives shared by every method in the rnknn workspace.
//!
//! The paper's Section 6.2 shows that the choice of priority queue, settled-vertex
//! container and graph layout changes in-memory kNN performance by integer factors.
//! This crate provides exactly those building blocks so every method uses the same,
//! carefully chosen subroutines (as the paper does "to ensure fairness"):
//!
//! * [`heap`] — min-heaps: the default *no-decrease-key* heap (4-ary, hole-sifting;
//!   duplicates are pushed and stale entries skipped on pop) and an indexed
//!   decrease-key binary heap used only by the "first cut" INE ablation of Figure 7.
//! * [`settled`] — settled-vertex containers: a bit-array (the paper's recommendation)
//!   and a hash-set variant for the same ablation.
//! * [`dijkstra`] — point-to-point and single-source Dijkstra searches, shortest-path
//!   trees, and [`LocalGraph`]: the CSR + SSSP over the reduced graphs G-tree
//!   composes its border distances on.
//! * [`astar`] — A* point-to-point search with a Euclidean lower-bound heuristic.
//! * [`scratch`] — reusable per-search state: [`Stamped`], the workspace's one
//!   epoch-stamped table, and the [`SearchScratch`] built on it — visited set, heap
//!   and the one relaxation step ([`SearchScratch::relax`]) of every pooled
//!   expansion search — so those searches run allocation-free in steady state.
//! * [`budget`] — cooperative per-query deadlines/step quotas ([`QueryBudget`]) that
//!   the point-to-point loops above honor, so a serving layer can cancel a runaway
//!   query without killing its thread.

#![forbid(unsafe_code)]

pub mod astar;
pub mod budget;
pub mod dijkstra;
pub mod heap;
pub mod scratch;
pub mod settled;

pub use astar::astar_distance;
pub use budget::{QueryBudget, UNLIMITED};
pub use dijkstra::{distance, single_source, sssp_tree, LocalGraph, SearchStats};
pub use heap::{IndexedMinHeap, MinHeap};
pub use scratch::{SearchScratch, Stamped, VisitedScratch};
pub use settled::{BitSettled, HashSettled, SettledContainer};
