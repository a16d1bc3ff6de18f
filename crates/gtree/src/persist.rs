//! Artifact save/load for the G-tree.
//!
//! Layout strategy: the G-tree splits into *topology* (parents, children,
//! border lists, vertex↔leaf maps — a few MB even at 580k vertices) and the
//! *distance-matrix arena* (~0.5 GB at 580k). Topology is persisted as
//! concatenated per-node arrays with `u64` offset tables and copied into owned
//! `Vec`s on load, leaving [`GtreeNode`] unchanged for every consumer. The
//! matrices are streamed into **one contiguous arena section of 4-byte cells**
//! addressed by a per-node offset table; on load each node's matrix becomes an
//! O(1) zero-copy [`PVec`] sub-view of the mapped arena — this is what makes
//! the cold start checksum-bound instead of copy-bound.
//!
//! Structural validation on load covers every value the search code uses as
//! an index: tree shape (root/parent/child mutual consistency, depth
//! acyclicity), offset-table monotonicity, vertex and border ids, the
//! vertex↔leaf position maps, and matrix dimensions against border/vertex
//! list lengths. Matrix *cells* are distances, used only arithmetically, and
//! are covered by the arena checksum.

use crate::build::GtreeConfig;
use crate::distmatrix::DistanceMatrix;
use crate::tree::{Gtree, GtreeNode, NodeIndex};
use rnknn_graph::NodeId;
use rnknn_persist::{
    Artifact, ArtifactWriter, Fingerprint, MetaReader, MetaWriter, PVec, PersistError, SharedSlice,
    Tag,
};
use std::io::{Seek, Write};

/// G-tree scalar metadata: config, node/vertex counts, root index.
pub const TAG_META: Tag = Tag::new(b"GT.META\0");
/// Fixed-size per-node records (6 × `u32`: parent, depth, leaf-range pair,
/// matrix rows/cols).
pub const TAG_NODES: Tag = Tag::new(b"GT.NODE\0");
/// Concatenated child lists (`u32`).
pub const TAG_CHILDREN: Tag = Tag::new(b"GT.CHLD\0");
/// Child-list offsets (`u64`, `num_nodes + 1`).
pub const TAG_CHILDREN_OFF: Tag = Tag::new(b"GT.CHOF\0");
/// Concatenated leaf-vertex lists (`u32`).
pub const TAG_LEAF_VERTICES: Tag = Tag::new(b"GT.LFVX\0");
/// Leaf-vertex offsets (`u64`).
pub const TAG_LEAF_VERTICES_OFF: Tag = Tag::new(b"GT.LFOF\0");
/// Concatenated border lists (`u32`).
pub const TAG_BORDERS: Tag = Tag::new(b"GT.BRDR\0");
/// Border-list offsets (`u64`).
pub const TAG_BORDERS_OFF: Tag = Tag::new(b"GT.BROF\0");
/// Concatenated child-border lists (`u32`).
pub const TAG_CHILD_BORDERS: Tag = Tag::new(b"GT.CBRD\0");
/// Child-border offsets (`u64`).
pub const TAG_CHILD_BORDERS_OFF: Tag = Tag::new(b"GT.CBOF\0");
/// Concatenated per-node `child_border_offsets` arrays (`u32`).
pub const TAG_CB_INNER_OFF: Tag = Tag::new(b"GT.CBIO\0");
/// Offsets into [`TAG_CB_INNER_OFF`] (`u64`).
pub const TAG_CB_INNER_OFF_OFF: Tag = Tag::new(b"GT.CBIF\0");
/// Concatenated own-border-position arrays (`u32`).
pub const TAG_OWN_BORDER_POS: Tag = Tag::new(b"GT.OBPO\0");
/// Own-border-position offsets (`u64`).
pub const TAG_OWN_BORDER_POS_OFF: Tag = Tag::new(b"GT.OBOF\0");
/// Matrix arena offsets (`u64`, `num_nodes + 1`, in cells).
pub const TAG_MATRIX_OFF: Tag = Tag::new(b"GT.MXOF\0");
/// The single contiguous matrix arena (`u32` cells, row-major per node).
pub const TAG_ARENA: Tag = Tag::new(b"GT.ARNA\0");
/// Leaf node of every road-network vertex (`u32`).
pub const TAG_LEAF_OF_VERTEX: Tag = Tag::new(b"GT.LEAF\0");
/// Position of every vertex inside its leaf (`u32`).
pub const TAG_VERTEX_POSITION: Tag = Tag::new(b"GT.VPOS\0");

const NODE_RECORD_WORDS: usize = 6;
const NO_PARENT: u32 = u32::MAX;

impl GtreeConfig {
    /// A stable fingerprint over every field that influences the *built tree*.
    ///
    /// `build_threads` is deliberately **excluded**: construction is
    /// deterministic regardless of the worker count (a documented invariant,
    /// tested by `build_determinism`), so a tree built with 8 threads is
    /// byte-identical to one built with 1 and must load under either setting
    /// (the artifacts differ in one word: `GT.META` echoes the configured value).
    /// Everything else — fanout, leaf capacity, refinement — changes the tree
    /// and therefore the fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.push_str("GtreeConfig")
            .push_usize(self.fanout)
            .push_usize(self.leaf_capacity)
            .push_bool(self.exact_refinement);
        fp.finish()
    }
}

fn write_meta_config(meta: &mut MetaWriter, config: &GtreeConfig) {
    meta.usize(config.fanout)
        .usize(config.leaf_capacity)
        .bool(config.exact_refinement)
        .usize(config.build_threads);
}

fn read_meta_config(meta: &mut MetaReader<'_>) -> Result<GtreeConfig, PersistError> {
    let fanout = meta.usize()?;
    let leaf_capacity = meta.usize()?;
    let exact_refinement = meta.bool()?;
    let build_threads = meta.usize()?;
    Ok(GtreeConfig { fanout, leaf_capacity, exact_refinement, build_threads })
}

/// Writes a concatenated per-node `u32` array family: one offsets section
/// (`u64`, `num_nodes + 1`) and one data section.
fn write_concat<W: Write + Seek>(
    writer: &mut ArtifactWriter<W>,
    tag_data: Tag,
    tag_off: Tag,
    nodes: &[GtreeNode],
    get: impl Fn(&GtreeNode) -> &[u32],
) -> Result<(), PersistError> {
    let mut offsets = Vec::with_capacity(nodes.len() + 1);
    let mut total = 0u64;
    offsets.push(0u64);
    for n in nodes {
        total += get(n).len() as u64;
        offsets.push(total);
    }
    writer.begin_section(tag_off)?;
    writer.write_u64s(&offsets)?;
    writer.end_section()?;
    writer.begin_section(tag_data)?;
    for n in nodes {
        writer.write_u32s(get(n))?;
    }
    writer.end_section()?;
    Ok(())
}

/// Reads one family written by [`write_concat`], returning per-node owned
/// `Vec`s after validating the offset table.
fn read_concat(
    artifact: &Artifact,
    tag_data: Tag,
    tag_off: Tag,
    num_nodes: usize,
) -> Result<Vec<Vec<u32>>, PersistError> {
    let offsets: SharedSlice<u64> = artifact.u64s(tag_off)?;
    let data: SharedSlice<u32> = artifact.u32s(tag_data)?;
    if offsets.len() != num_nodes + 1 {
        return Err(PersistError::corrupt(
            tag_off.to_string(),
            format!("expected {} offsets, found {}", num_nodes + 1, offsets.len()),
        ));
    }
    if offsets[0] != 0 || *offsets.last().unwrap() != data.len() as u64 {
        return Err(PersistError::corrupt(
            tag_off.to_string(),
            format!("offset table does not span the {}-element data section", data.len()),
        ));
    }
    if let Some(pos) = offsets.windows(2).position(|w| w[0] > w[1]) {
        return Err(PersistError::corrupt(
            tag_off.to_string(),
            format!("offsets not monotonic at node {pos}"),
        ));
    }
    Ok((0..num_nodes)
        .map(|i| data[offsets[i] as usize..offsets[i + 1] as usize].to_vec())
        .collect())
}

/// Writes the G-tree's sections into an open artifact.
pub fn save_gtree<W: Write + Seek>(
    gtree: &Gtree,
    writer: &mut ArtifactWriter<W>,
) -> Result<(), PersistError> {
    let nodes = gtree.nodes();
    let mut meta = MetaWriter::new();
    write_meta_config(&mut meta, gtree.config());
    meta.u64(gtree.config().fingerprint())
        .usize(nodes.len())
        .usize(gtree.leaf_of_vertex.len())
        .u32(gtree.root());
    writer.begin_section(TAG_META)?;
    writer.write_u64s(meta.words())?;
    writer.end_section()?;

    // Fixed-size per-node records.
    writer.begin_section(TAG_NODES)?;
    for n in nodes {
        let rec: [u32; NODE_RECORD_WORDS] = [
            n.parent.unwrap_or(NO_PARENT),
            n.depth,
            n.leaf_range.0,
            n.leaf_range.1,
            n.matrix.rows() as u32,
            n.matrix.cols() as u32,
        ];
        writer.write_u32s(&rec)?;
    }
    writer.end_section()?;

    write_concat(writer, TAG_CHILDREN, TAG_CHILDREN_OFF, nodes, |n| &n.children)?;
    write_concat(writer, TAG_LEAF_VERTICES, TAG_LEAF_VERTICES_OFF, nodes, |n| &n.leaf_vertices)?;
    write_concat(writer, TAG_BORDERS, TAG_BORDERS_OFF, nodes, |n| &n.borders)?;
    write_concat(writer, TAG_CHILD_BORDERS, TAG_CHILD_BORDERS_OFF, nodes, |n| &n.child_borders)?;
    write_concat(writer, TAG_CB_INNER_OFF, TAG_CB_INNER_OFF_OFF, nodes, |n| {
        &n.child_border_offsets
    })?;
    write_concat(writer, TAG_OWN_BORDER_POS, TAG_OWN_BORDER_POS_OFF, nodes, |n| {
        &n.own_border_positions
    })?;

    // Matrix arena: offsets in cells, then one contiguous section streamed
    // node by node (no intermediate concatenated copy is ever materialised).
    let mut arena_offsets = Vec::with_capacity(nodes.len() + 1);
    let mut total_cells = 0u64;
    arena_offsets.push(0u64);
    for n in nodes {
        total_cells += (n.matrix.rows() * n.matrix.cols()) as u64;
        arena_offsets.push(total_cells);
    }
    writer.begin_section(TAG_MATRIX_OFF)?;
    writer.write_u64s(&arena_offsets)?;
    writer.end_section()?;
    writer.begin_section(TAG_ARENA)?;
    for n in nodes {
        writer.write_u32s(n.matrix.cells())?;
    }
    writer.end_section()?;

    writer.begin_section(TAG_LEAF_OF_VERTEX)?;
    writer.write_u32s(&gtree.leaf_of_vertex)?;
    writer.end_section()?;
    writer.begin_section(TAG_VERTEX_POSITION)?;
    writer.write_u32s(&gtree.vertex_position)?;
    writer.end_section()?;
    Ok(())
}

/// Whether an artifact contains a G-tree index.
pub fn has_gtree(artifact: &Artifact) -> bool {
    artifact.has(TAG_META)
}

/// Reads and validates the G-tree. Topology is copied into owned `Vec`s; each
/// node's matrix is a zero-copy view into the mapped arena.
///
/// `expected_config`, when given, must fingerprint to the stored value.
/// `num_graph_vertices` cross-checks the tree against its graph.
pub fn load_gtree(
    artifact: &Artifact,
    num_graph_vertices: usize,
    expected_config: Option<&GtreeConfig>,
) -> Result<Gtree, PersistError> {
    let mut meta = artifact.meta(TAG_META)?;
    let config = read_meta_config(&mut meta)?;
    let stored_fingerprint = meta.u64()?;
    let num_nodes = meta.usize()?;
    let num_vertices = meta.usize()?;
    let root: NodeIndex = meta.u32()?;
    meta.finish()?;

    if config.fingerprint() != stored_fingerprint {
        return Err(PersistError::corrupt(
            "GT.META",
            format!(
                "stored config fingerprints to {:#018x} but the artifact records {:#018x}",
                config.fingerprint(),
                stored_fingerprint
            ),
        ));
    }
    if let Some(expected) = expected_config {
        let want = expected.fingerprint();
        if want != stored_fingerprint {
            return Err(PersistError::ConfigMismatch {
                index: "gtree",
                stored: stored_fingerprint,
                expected: want,
            });
        }
    }
    if num_vertices != num_graph_vertices {
        return Err(PersistError::corrupt(
            "GT.META",
            format!("tree covers {num_vertices} vertices but the graph has {num_graph_vertices}"),
        ));
    }
    if num_nodes == 0 || root as usize >= num_nodes {
        return Err(PersistError::corrupt(
            "GT.META",
            format!("root {root} out of range for {num_nodes} nodes"),
        ));
    }

    let records = artifact.u32s(TAG_NODES)?;
    if records.len() != num_nodes * NODE_RECORD_WORDS {
        return Err(PersistError::corrupt(
            "GT.NODE",
            format!(
                "expected {} record words for {num_nodes} nodes, found {}",
                num_nodes * NODE_RECORD_WORDS,
                records.len()
            ),
        ));
    }

    let children = read_concat(artifact, TAG_CHILDREN, TAG_CHILDREN_OFF, num_nodes)?;
    let leaf_vertices = read_concat(artifact, TAG_LEAF_VERTICES, TAG_LEAF_VERTICES_OFF, num_nodes)?;
    let borders = read_concat(artifact, TAG_BORDERS, TAG_BORDERS_OFF, num_nodes)?;
    let child_borders = read_concat(artifact, TAG_CHILD_BORDERS, TAG_CHILD_BORDERS_OFF, num_nodes)?;
    let cb_inner = read_concat(artifact, TAG_CB_INNER_OFF, TAG_CB_INNER_OFF_OFF, num_nodes)?;
    let own_border_pos =
        read_concat(artifact, TAG_OWN_BORDER_POS, TAG_OWN_BORDER_POS_OFF, num_nodes)?;

    let arena_offsets = artifact.u64s(TAG_MATRIX_OFF)?;
    let arena = artifact.u32s(TAG_ARENA)?;
    if arena_offsets.len() != num_nodes + 1 {
        return Err(PersistError::corrupt(
            "GT.MXOF",
            format!("expected {} arena offsets, found {}", num_nodes + 1, arena_offsets.len()),
        ));
    }
    if arena_offsets[0] != 0 || *arena_offsets.last().unwrap() != arena.len() as u64 {
        return Err(PersistError::corrupt(
            "GT.MXOF",
            format!("arena offsets do not span the {}-cell arena", arena.len()),
        ));
    }
    if let Some(pos) = arena_offsets.windows(2).position(|w| w[0] > w[1]) {
        return Err(PersistError::corrupt(
            "GT.MXOF",
            format!("arena offsets not monotonic at node {pos}"),
        ));
    }

    let leaf_of_vertex_view = artifact.u32s(TAG_LEAF_OF_VERTEX)?;
    let vertex_position_view = artifact.u32s(TAG_VERTEX_POSITION)?;
    if leaf_of_vertex_view.len() != num_vertices || vertex_position_view.len() != num_vertices {
        return Err(PersistError::corrupt(
            "GT.LEAF",
            format!(
                "vertex maps hold {} / {} entries for {num_vertices} vertices",
                leaf_of_vertex_view.len(),
                vertex_position_view.len()
            ),
        ));
    }

    // Assemble nodes, wiring each matrix to its arena sub-view.
    let mut nodes = Vec::with_capacity(num_nodes);
    for (i, (((((ch, lv), bd), cb), cbi), obp)) in children
        .into_iter()
        .zip(leaf_vertices)
        .zip(borders)
        .zip(child_borders)
        .zip(cb_inner)
        .zip(own_border_pos)
        .enumerate()
    {
        let rec = &records[i * NODE_RECORD_WORDS..(i + 1) * NODE_RECORD_WORDS];
        let parent = if rec[0] == NO_PARENT { None } else { Some(rec[0]) };
        let rows = rec[4] as usize;
        let cols = rec[5] as usize;
        let start = arena_offsets[i] as usize;
        let cells = (arena_offsets[i + 1] - arena_offsets[i]) as usize;
        if rows.checked_mul(cols) != Some(cells) {
            return Err(PersistError::corrupt(
                "GT.MXOF",
                format!("node {i}: {rows}×{cols} matrix does not match its {cells}-cell slot"),
            ));
        }
        let view = arena.slice(start, cells).ok_or_else(|| {
            PersistError::corrupt("GT.ARNA", format!("node {i}: arena slice out of bounds"))
        })?;
        nodes.push(GtreeNode {
            parent,
            children: ch,
            leaf_vertices: lv,
            borders: bd,
            child_borders: cb,
            child_border_offsets: cbi,
            own_border_positions: obp,
            matrix: DistanceMatrix::from_cells(rows, cols, PVec::from_view(view)),
            leaf_range: (rec[2], rec[3]),
            depth: rec[1],
        });
    }

    validate_tree(&nodes, root, num_vertices)?;

    let leaf_of_vertex: Vec<NodeIndex> = leaf_of_vertex_view.to_vec();
    let vertex_position: Vec<u32> = vertex_position_view.to_vec();
    for v in 0..num_vertices {
        let leaf = leaf_of_vertex[v] as usize;
        if leaf >= nodes.len() || !nodes[leaf].is_leaf() {
            return Err(PersistError::corrupt(
                "GT.LEAF",
                format!("vertex {v} maps to node {leaf}, which is not a leaf"),
            ));
        }
        let pos = vertex_position[v] as usize;
        if nodes[leaf].leaf_vertices.get(pos) != Some(&(v as NodeId)) {
            return Err(PersistError::corrupt(
                "GT.VPOS",
                format!("vertex {v} is not at position {pos} of its leaf's vertex list"),
            ));
        }
    }

    Ok(Gtree { nodes, root, leaf_of_vertex, vertex_position, config })
}

/// Tree-shape and index-bound validation over the assembled nodes.
fn validate_tree(
    nodes: &[GtreeNode],
    root: NodeIndex,
    num_vertices: usize,
) -> Result<(), PersistError> {
    let n = nodes.len();
    for (i, node) in nodes.iter().enumerate() {
        match node.parent {
            None => {
                if i as NodeIndex != root {
                    return Err(PersistError::corrupt(
                        "GT.NODE",
                        format!("node {i} has no parent but is not the root ({root})"),
                    ));
                }
                if node.depth != 0 {
                    return Err(PersistError::corrupt(
                        "GT.NODE",
                        format!("root depth is {} (expected 0)", node.depth),
                    ));
                }
            }
            Some(p) => {
                if p as usize >= n {
                    return Err(PersistError::corrupt(
                        "GT.NODE",
                        format!("node {i}: parent {p} out of range"),
                    ));
                }
                // Depth strictly increases child-ward: with parent links and
                // this invariant, cycles are impossible.
                if nodes[p as usize].depth + 1 != node.depth {
                    return Err(PersistError::corrupt(
                        "GT.NODE",
                        format!(
                            "node {i} at depth {} has parent {p} at depth {}",
                            node.depth, nodes[p as usize].depth
                        ),
                    ));
                }
            }
        }
        for &c in &node.children {
            if c as usize >= n {
                return Err(PersistError::corrupt(
                    "GT.CHLD",
                    format!("node {i}: child {c} out of range"),
                ));
            }
            if nodes[c as usize].parent != Some(i as NodeIndex) {
                return Err(PersistError::corrupt(
                    "GT.CHLD",
                    format!("node {i} lists child {c}, whose parent link disagrees"),
                ));
            }
        }
        for &v in node.leaf_vertices.iter().chain(&node.borders) {
            if v as usize >= num_vertices {
                return Err(PersistError::corrupt(
                    "GT.LFVX",
                    format!("node {i}: vertex id {v} out of range"),
                ));
            }
        }
        if node.is_leaf() {
            // Leaf matrix: borders × leaf_vertices.
            if node.matrix.rows() != node.borders.len()
                || node.matrix.cols() != node.leaf_vertices.len()
            {
                return Err(PersistError::corrupt(
                    "GT.NODE",
                    format!(
                        "leaf {i}: {}×{} matrix for {} borders × {} vertices",
                        node.matrix.rows(),
                        node.matrix.cols(),
                        node.borders.len(),
                        node.leaf_vertices.len()
                    ),
                ));
            }
            // Own borders index into the leaf-vertex list.
            for &p in &node.own_border_positions {
                if p as usize >= node.leaf_vertices.len() {
                    return Err(PersistError::corrupt(
                        "GT.OBPO",
                        format!("leaf {i}: border position {p} out of range"),
                    ));
                }
            }
        } else {
            let cb = node.child_borders.len();
            if node.matrix.rows() != cb || node.matrix.cols() != cb {
                return Err(PersistError::corrupt(
                    "GT.NODE",
                    format!(
                        "internal node {i}: {}×{} matrix for {cb} child borders",
                        node.matrix.rows(),
                        node.matrix.cols()
                    ),
                ));
            }
            if node.child_border_offsets.len() != node.children.len() + 1 {
                return Err(PersistError::corrupt(
                    "GT.CBIO",
                    format!(
                        "internal node {i}: {} child-border offsets for {} children",
                        node.child_border_offsets.len(),
                        node.children.len()
                    ),
                ));
            }
            if node.child_border_offsets.first() != Some(&0)
                || node.child_border_offsets.last() != Some(&(cb as u32))
                || node.child_border_offsets.windows(2).any(|w| w[0] > w[1])
            {
                return Err(PersistError::corrupt(
                    "GT.CBIO",
                    format!("internal node {i}: child-border offsets do not span {cb} borders"),
                ));
            }
            for &b in &node.child_borders {
                if b as usize >= num_vertices {
                    return Err(PersistError::corrupt(
                        "GT.CBRD",
                        format!("node {i}: child border id {b} out of range"),
                    ));
                }
            }
            for &p in &node.own_border_positions {
                if p as usize >= cb {
                    return Err(PersistError::corrupt(
                        "GT.OBPO",
                        format!("internal node {i}: border position {p} out of range"),
                    ));
                }
            }
        }
        if node.own_border_positions.len() != node.borders.len() {
            return Err(PersistError::corrupt(
                "GT.OBPO",
                format!(
                    "node {i}: {} border positions for {} borders",
                    node.own_border_positions.len(),
                    node.borders.len()
                ),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn_graph::{EdgeWeightKind, GeneratorConfig, RoadNetwork};
    use std::io::Cursor;

    fn sample(size: usize, seed: u64) -> (rnknn_graph::Graph, Gtree) {
        let graph = RoadNetwork::generate(&GeneratorConfig::new(size, seed))
            .graph(EdgeWeightKind::Distance);
        let config = GtreeConfig { leaf_capacity: 32, ..GtreeConfig::default() };
        let gtree = Gtree::build_with_config(&graph, config);
        (graph, gtree)
    }

    fn save_to_vec(gtree: &Gtree) -> Vec<u8> {
        let mut w = ArtifactWriter::new(Cursor::new(Vec::new())).unwrap();
        save_gtree(gtree, &mut w).unwrap();
        w.finish().unwrap().into_inner()
    }

    #[test]
    fn gtree_round_trips_cell_for_cell() {
        let (graph, gtree) = sample(400, 21);
        let art = Artifact::from_vec(save_to_vec(&gtree)).unwrap();
        assert!(has_gtree(&art));
        let config = GtreeConfig { leaf_capacity: 32, ..GtreeConfig::default() };
        let loaded = load_gtree(&art, graph.num_vertices(), Some(&config)).unwrap();
        assert_eq!(loaded.num_nodes(), gtree.num_nodes());
        assert_eq!(loaded.root(), gtree.root());
        for (a, b) in loaded.nodes().iter().zip(gtree.nodes()) {
            assert_eq!(a.parent, b.parent);
            assert_eq!(a.children, b.children);
            assert_eq!(a.leaf_vertices, b.leaf_vertices);
            assert_eq!(a.borders, b.borders);
            assert_eq!(a.child_borders, b.child_borders);
            assert_eq!(a.child_border_offsets, b.child_border_offsets);
            assert_eq!(a.own_border_positions, b.own_border_positions);
            assert_eq!(a.leaf_range, b.leaf_range);
            assert_eq!(a.depth, b.depth);
            assert_eq!(a.matrix.rows(), b.matrix.rows());
            assert_eq!(a.matrix.cols(), b.matrix.cols());
            // Cell-for-cell arena comparison, the loaded side still a view.
            assert_eq!(a.matrix.cells(), b.matrix.cells());
            assert!(a.matrix.is_view() && !b.matrix.is_view());
        }
        for v in 0..graph.num_vertices() as NodeId {
            assert_eq!(loaded.leaf_of(v), gtree.leaf_of(v));
        }
    }

    #[test]
    fn gtree_config_mismatch_is_rejected() {
        let (graph, gtree) = sample(150, 3);
        let art = Artifact::from_vec(save_to_vec(&gtree)).unwrap();
        let other = GtreeConfig { leaf_capacity: 64, ..GtreeConfig::default() };
        match load_gtree(&art, graph.num_vertices(), Some(&other)) {
            Err(PersistError::ConfigMismatch { index, .. }) => assert_eq!(index, "gtree"),
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        assert!(load_gtree(&art, graph.num_vertices(), None).is_ok());
    }

    /// Locks the fingerprint inputs. `build_threads` must NOT change the
    /// fingerprint (construction is deterministic across thread counts);
    /// every other field must.
    #[test]
    fn fingerprint_covers_tree_shaping_fields_only() {
        let base = GtreeConfig::default().fingerprint();
        assert_eq!(
            GtreeConfig { build_threads: 7, ..GtreeConfig::default() }.fingerprint(),
            base,
            "build_threads must not affect the fingerprint"
        );
        let variants: Vec<GtreeConfig> = vec![
            GtreeConfig { fanout: 5, ..GtreeConfig::default() },
            GtreeConfig { leaf_capacity: 129, ..GtreeConfig::default() },
            GtreeConfig { exact_refinement: false, ..GtreeConfig::default() },
        ];
        let mut seen = vec![base];
        for v in &variants {
            let fp = v.fingerprint();
            assert!(!seen.contains(&fp), "field change did not change the fingerprint: {v:?}");
            seen.push(fp);
        }
        assert_eq!(base, GtreeConfig::default().fingerprint());
    }

    #[test]
    fn vertex_count_mismatch_is_corrupt() {
        let (graph, gtree) = sample(150, 3);
        let art = Artifact::from_vec(save_to_vec(&gtree)).unwrap();
        assert!(matches!(
            load_gtree(&art, graph.num_vertices() + 5, None),
            Err(PersistError::Corrupt { .. })
        ));
    }
}
