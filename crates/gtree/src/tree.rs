//! The G-tree data structure: the partition hierarchy it holds, one distance matrix
//! per node, and basic accessors.

use std::sync::Arc;

use rnknn_graph::NodeId;
use rnknn_partition::hierarchy::{Hierarchy, LeafLayout};
use rnknn_persist::PVec;

use crate::build::GtreeConfig;
use crate::distmatrix::{Cell, DistanceMatrix};

/// Index of a G-tree node: its part in [`Gtree::hierarchy`].
pub type NodeIndex = u32;

/// The G-tree index over a road network.
#[derive(Debug, Clone)]
pub struct Gtree {
    /// Nodes, children, borders (a node's child borders grouped child by child: the
    /// layout that makes assembly scans sequential, Figure 5) and the leaf of every
    /// vertex.
    pub(crate) hierarchy: Arc<Hierarchy>,
    /// Every leaf's vertices, in the order of its matrix columns.
    pub(crate) leaves: LeafLayout,
    /// One matrix per node:
    ///
    /// * leaf: borders × leaf vertices, border-to-vertex distances;
    /// * internal: child borders × child borders, border-to-border distances.
    pub(crate) matrices: Vec<DistanceMatrix>,
    /// Parallel to the hierarchy's border list: each border's position among its
    /// node's child borders (internal nodes) or leaf vertices (leaves) — the paper's
    /// "offset array".
    pub(crate) border_positions: Vec<u32>,
    /// The child-minimum table, every internal node's block at
    /// `child_min_offsets[i]..child_min_offsets[i + 1]`: per child, one column over
    /// the source borders the kNN search reads the node from ([`child_min_rows`]),
    /// holding the minimum of that border's matrix row over the child's column
    /// block. A child's queue key is then one cell per source border instead of a
    /// sweep of its whole block.
    pub(crate) child_min: PVec<Cell>,
    pub(crate) child_min_offsets: Vec<usize>,
    pub(crate) config: GtreeConfig,
}

/// The matrix rows node `i`'s child-minimum table covers: the root is read from
/// the borders of whichever child holds the query (every child border, i.e. every
/// matrix row), any other internal node from its own borders; a leaf has no table.
/// Rows are in that order, so a source border's index is its table row (offset by
/// the on-path child's [`Hierarchy::base_in_parent`] at the root).
pub(crate) fn child_min_rows(hierarchy: &Hierarchy, i: NodeIndex) -> usize {
    if hierarchy.is_leaf(i) {
        0
    } else if hierarchy.parent(i).is_none() {
        hierarchy.child_borders(i).len()
    } else {
        hierarchy.borders(i).len()
    }
}

/// Where every node's block of the child-minimum table starts (`num_nodes + 1`
/// offsets, in cells): derived from the hierarchy, never stored.
pub(crate) fn child_min_offsets(hierarchy: &Hierarchy) -> Vec<usize> {
    let mut offsets = vec![0];
    for i in 0..hierarchy.num_parts() as NodeIndex {
        let cells = child_min_rows(hierarchy, i) * hierarchy.children(i).len();
        offsets.push(offsets[i as usize] + cells);
    }
    offsets
}

impl Gtree {
    /// The configuration the tree was built with.
    pub fn config(&self) -> &GtreeConfig {
        &self.config
    }

    /// Index of the root node.
    pub fn root(&self) -> NodeIndex {
        0
    }

    /// The tree's topology: parents, children, borders, leaf ranges. Shared, so
    /// an index over the same nodes (ROAD's Rnets) holds it without a copy.
    #[inline]
    pub fn hierarchy(&self) -> &Arc<Hierarchy> {
        &self.hierarchy
    }

    /// Number of nodes (leaves and internal).
    pub fn num_nodes(&self) -> usize {
        self.matrices.len()
    }

    /// The distance matrix of node `i`.
    #[inline]
    pub fn matrix(&self, i: NodeIndex) -> &DistanceMatrix {
        &self.matrices[i as usize]
    }

    /// Every node's distance matrix, by node index.
    pub fn matrices(&self) -> &[DistanceMatrix] {
        &self.matrices
    }

    /// The matrix positions of node `i`'s own borders, in border order.
    #[inline]
    pub fn border_positions(&self, i: NodeIndex) -> &[u32] {
        &self.border_positions[self.hierarchy.border_range(i)]
    }

    /// Column `ci` of internal node `i`'s child-minimum table: per table row (as
    /// [`child_min_rows`] orders them), the least cell of that matrix row over the
    /// column block of the node's `ci`-th child. A node's columns are stored one
    /// after another, so a key scan reads one contiguous run.
    #[inline]
    pub(crate) fn child_min_column(&self, i: NodeIndex, ci: usize) -> &[Cell] {
        let rows = child_min_rows(&self.hierarchy, i);
        &self.child_min[self.child_min_offsets[i as usize] + ci * rows..][..rows]
    }

    /// The road-network vertices of leaf `i`, in matrix-column order.
    #[inline]
    pub fn leaf_vertices(&self, i: NodeIndex) -> &[NodeId] {
        self.leaves.vertices(i)
    }

    /// The leaf node containing road-network vertex `v`.
    #[inline]
    pub fn leaf_of(&self, v: NodeId) -> NodeIndex {
        self.hierarchy.leaf_of(v)
    }

    /// Position of `v` among its leaf's vertices (its matrix column).
    #[inline]
    pub fn position_in_leaf(&self, v: NodeId) -> u32 {
        self.leaves.position(v)
    }

    /// True when `ancestor` is `node` itself or one of its ancestors.
    pub fn is_ancestor_of(&self, ancestor: NodeIndex, node: NodeIndex) -> bool {
        let a = self.hierarchy.leaf_range(ancestor);
        let n = self.hierarchy.leaf_range(node);
        a.0 <= n.0 && n.1 <= a.1
    }

    /// The child of `ancestor` whose subtree contains `node` (which must be a strict
    /// descendant of `ancestor`).
    pub fn child_towards(&self, ancestor: NodeIndex, node: NodeIndex) -> NodeIndex {
        let target = self.hierarchy.leaf_range(node).0;
        for &c in self.hierarchy.children(ancestor) {
            let r = self.hierarchy.leaf_range(c);
            if r.0 <= target && target < r.1 {
                return c;
            }
        }
        panic!("node {node} is not a descendant of {ancestor}");
    }

    /// Height of the tree (number of levels).
    pub fn height(&self) -> usize {
        let levels = (0..self.num_nodes() as NodeIndex).map(|i| self.hierarchy.level(i));
        levels.max().map_or(0, |deepest| deepest as usize) + 1
    }

    /// Approximate resident size of the index in bytes (Figure 8(a)).
    pub fn memory_bytes(&self) -> usize {
        let matrices = self.matrices.iter().map(DistanceMatrix::memory_bytes).sum::<usize>();
        self.hierarchy.memory_bytes()
            + self.leaves.memory_bytes()
            + self.border_positions.len() * 4
            + self.matrices.len() * std::mem::size_of::<DistanceMatrix>()
            + matrices
            + self.child_min.len() * std::mem::size_of::<Cell>()
            + self.child_min_offsets.len() * std::mem::size_of::<usize>()
    }
}
