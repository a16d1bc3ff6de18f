//! The G-tree data structure: nodes, borders, distance matrices and basic accessors.

use rnknn_graph::NodeId;

use crate::build::GtreeConfig;
use crate::distmatrix::DistanceMatrix;

/// Index of a G-tree node within [`Gtree::nodes`].
pub type NodeIndex = u32;

/// One node of the G-tree. Leaf nodes own a set of road-network vertices; internal nodes
/// own their children and the distance matrix over the children's borders.
#[derive(Debug, Clone)]
pub struct GtreeNode {
    /// Parent node, or `None` for the root.
    pub parent: Option<NodeIndex>,
    /// Child nodes (empty for leaves).
    pub children: Vec<NodeIndex>,
    /// Road-network vertices contained in this node (populated for leaves only; internal
    /// nodes cover the union of their descendants).
    pub leaf_vertices: Vec<NodeId>,
    /// Borders of this node's subgraph: vertices with at least one edge leaving it.
    pub borders: Vec<NodeId>,
    /// Internal nodes: concatenation of the children's border lists, grouped child by
    /// child (the layout that makes assembly scans sequential, Figure 5).
    pub child_borders: Vec<NodeId>,
    /// Internal nodes: start offset of each child's borders within `child_borders`
    /// (length = `children.len() + 1`).
    pub child_border_offsets: Vec<u32>,
    /// Positions of this node's own borders within `child_borders` (internal nodes) or
    /// within `leaf_vertices` (leaves) — the paper's "offset array".
    pub own_border_positions: Vec<u32>,
    /// Distance matrix.
    ///
    /// * leaf: `borders.len() × leaf_vertices.len()`, border-to-vertex distances;
    /// * internal: `child_borders.len() × child_borders.len()`, border-to-border
    ///   distances.
    pub matrix: DistanceMatrix,
    /// Range of leaf DFS indexes covered by this node (used for `O(1)` ancestor tests).
    pub leaf_range: (u32, u32),
    /// Depth in the tree (root = 0).
    pub depth: u32,
}

impl GtreeNode {
    /// True when this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// The G-tree index over a road network.
#[derive(Debug, Clone)]
pub struct Gtree {
    pub(crate) nodes: Vec<GtreeNode>,
    pub(crate) root: NodeIndex,
    /// Leaf node of every road-network vertex.
    pub(crate) leaf_of_vertex: Vec<NodeIndex>,
    /// Position of every vertex inside its leaf's `leaf_vertices` array.
    pub(crate) vertex_position: Vec<u32>,
    pub(crate) config: GtreeConfig,
}

impl Gtree {
    /// The configuration the tree was built with.
    pub fn config(&self) -> &GtreeConfig {
        &self.config
    }

    /// Index of the root node.
    pub fn root(&self) -> NodeIndex {
        self.root
    }

    /// All nodes.
    pub fn nodes(&self) -> &[GtreeNode] {
        &self.nodes
    }

    /// A node by index.
    pub fn node(&self, i: NodeIndex) -> &GtreeNode {
        &self.nodes[i as usize]
    }

    /// Number of nodes (leaves and internal).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The leaf node containing road-network vertex `v`.
    pub fn leaf_of(&self, v: NodeId) -> NodeIndex {
        self.leaf_of_vertex[v as usize]
    }

    /// Position of `v` inside its leaf's `leaf_vertices` array (its matrix column).
    pub fn position_in_leaf(&self, v: NodeId) -> u32 {
        self.vertex_position[v as usize]
    }

    /// True when `ancestor` is `node` itself or one of its ancestors.
    pub fn is_ancestor_of(&self, ancestor: NodeIndex, node: NodeIndex) -> bool {
        let a = &self.nodes[ancestor as usize];
        let n = &self.nodes[node as usize];
        a.leaf_range.0 <= n.leaf_range.0 && n.leaf_range.1 <= a.leaf_range.1
    }

    /// The child of `ancestor` whose subtree contains `node` (which must be a strict
    /// descendant of `ancestor`).
    pub fn child_towards(&self, ancestor: NodeIndex, node: NodeIndex) -> NodeIndex {
        let target = self.nodes[node as usize].leaf_range.0;
        for &c in &self.nodes[ancestor as usize].children {
            let r = self.nodes[c as usize].leaf_range;
            if r.0 <= target && target < r.1 {
                return c;
            }
        }
        panic!("node {node} is not a descendant of {ancestor}");
    }

    /// Height of the tree (number of levels).
    pub fn height(&self) -> usize {
        self.nodes.iter().map(|n| n.depth as usize).max().unwrap_or(0) + 1
    }

    /// Number of leaf nodes.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Average number of borders per node (grows with network size, which is the
    /// mechanism behind G-tree's Figure 9(b) path-cost trend).
    pub fn average_borders(&self) -> f64 {
        let total: usize = self.nodes.iter().map(|n| n.borders.len()).sum();
        total as f64 / self.nodes.len().max(1) as f64
    }

    /// Approximate resident size of the index in bytes (Figure 8(a)).
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = self.leaf_of_vertex.len() * 4 + self.vertex_position.len() * 4;
        for n in &self.nodes {
            bytes += std::mem::size_of::<GtreeNode>()
                + n.children.len() * 4
                + n.leaf_vertices.len() * 4
                + n.borders.len() * 4
                + n.child_borders.len() * 4
                + n.child_border_offsets.len() * 4
                + n.own_border_positions.len() * 4
                + n.matrix.memory_bytes();
        }
        bytes
    }
}
