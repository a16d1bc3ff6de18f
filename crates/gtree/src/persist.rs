//! Artifact save/load for the G-tree.
//!
//! The G-tree splits into *topology* — the partition hierarchy, under a megabyte
//! even at 580k vertices — and the *distance-matrix arena* (~0.5 GB at 580k). The
//! topology is saved as the hierarchy's three [`Columns`] (`HI.*`: parent links,
//! leaf sizes, leaf vertex lists) and rebuilt on load, over the loaded graph, by the
//! same [`Hierarchy::from_columns`] the builder ends in. The matrices are streamed
//! into **one contiguous arena section of 4-byte cells** addressed by a per-node
//! offset table; on load each node's matrix becomes an O(1) zero-copy [`PVec`]
//! sub-view of the mapped arena — this is what makes the cold start checksum-bound
//! instead of copy-bound.
//!
//! What a successful load has proven, whatever the checksums covered: parts are
//! numbered in preorder under one root (so levels, child lists and the leaf ranges
//! every query steers by are derived, not read); the leaf lists hold every vertex
//! of the graph exactly once; the stored fanout and leaf capacity describe the
//! tree (no part has more children than the fanout, no leaf more vertices than
//! the capacity) and equal the caller's when one is given; border lists,
//! child-border runs and matrix positions are computed from the graph's own edges;
//! and every node's arena slot has exactly the cells its matrix shape (borders ×
//! vertices, or child borders squared) needs.
//! Nothing the search code uses as an index is taken from the file unchecked.
//! Matrix *cells* are distances, used only arithmetically, and are covered by the
//! arena checksum. So are the child-minimum table's cells (`GT.CMIN`), whose
//! section length must equal the shape the hierarchy derives; they are not
//! re-derived from the matrices on load, which would re-read every row they
//! summarise.

use crate::build::GtreeConfig;
use crate::distmatrix::DistanceMatrix;
use crate::tree::{child_min_offsets, Gtree};
use rnknn_graph::Graph;
use rnknn_partition::hierarchy::{Columns, Hierarchy, LeafLayout};
use rnknn_persist::{Artifact, ArtifactWriter, MetaWriter, PVec, PersistError, Tag};
use std::io::{Seek, Write};

/// G-tree scalar metadata: fanout, leaf capacity, the refinement word, node and
/// vertex counts.
pub const TAG_META: Tag = Tag::new(b"GT.META\0");
/// Matrix arena offsets (`u64`, `num_nodes + 1`, in cells).
pub const TAG_MATRIX_OFF: Tag = Tag::new(b"GT.MXOF\0");
/// The single contiguous matrix arena (`u32` cells, row-major per node).
pub const TAG_ARENA: Tag = Tag::new(b"GT.ARNA\0");
/// The child-minimum table (`u32` cells, node by node; its shape follows from the
/// hierarchy): per internal node and source border, the least cell of each child's
/// column block.
pub const TAG_CHILD_MIN: Tag = Tag::new(b"GT.CMIN\0");
/// Hierarchy: the parent of every part, in preorder (`u32`, `u32::MAX` for the root).
pub const TAG_PARENT: Tag = Tag::new(b"HI.PRNT\0");
/// Hierarchy: the vertex count of every leaf, in preorder (`u32`).
pub const TAG_LEAF_SIZES: Tag = Tag::new(b"HI.LFSZ\0");
/// Hierarchy: the leaves' vertex lists, concatenated in preorder (`u32`).
pub const TAG_VERTICES: Tag = Tag::new(b"HI.VERT\0");

/// The `GT.META` word saying the matrices hold exact global distances. Every build
/// refines; a tree recording `false` would answer wrong, so a load refuses it.
const REFINED: bool = true;

/// Writes a hierarchy's `HI.*` sections into an open artifact.
pub fn save_hierarchy<W: Write + Seek>(
    hierarchy: &Hierarchy,
    leaves: &LeafLayout,
    writer: &mut ArtifactWriter<W>,
) -> Result<(), PersistError> {
    let Columns { parent, leaf_sizes, vertices } = hierarchy.columns(leaves);
    for (tag, column) in
        [(TAG_PARENT, parent), (TAG_LEAF_SIZES, leaf_sizes), (TAG_VERTICES, vertices)]
    {
        writer.begin_section(tag)?;
        writer.write_u32s(&column)?;
        writer.end_section()?;
    }
    Ok(())
}

/// Reads the `HI.*` sections as a hierarchy of `graph`, or the rule they break.
pub fn load_hierarchy(
    artifact: &Artifact,
    graph: &Graph,
) -> Result<(Hierarchy, LeafLayout), PersistError> {
    let columns = Columns {
        parent: artifact.u32s(TAG_PARENT)?.to_vec(),
        leaf_sizes: artifact.u32s(TAG_LEAF_SIZES)?.to_vec(),
        vertices: artifact.u32s(TAG_VERTICES)?.to_vec(),
    };
    Hierarchy::from_columns(graph, columns)
        .map_err(|e| PersistError::corrupt(format!("HI.* ({})", e.column), e.rule))
}

/// Writes the G-tree's sections into an open artifact.
pub fn save_gtree<W: Write + Seek>(
    gtree: &Gtree,
    writer: &mut ArtifactWriter<W>,
) -> Result<(), PersistError> {
    let config = gtree.config();
    let mut meta = MetaWriter::new();
    meta.usize(config.fanout)
        .usize(config.leaf_capacity)
        .bool(REFINED)
        .usize(gtree.num_nodes())
        .usize(gtree.hierarchy.num_vertices(gtree.root()) as usize);
    writer.begin_section(TAG_META)?;
    writer.write_u64s(meta.words())?;
    writer.end_section()?;

    save_hierarchy(&gtree.hierarchy, &gtree.leaves, writer)?;

    // Matrix arena: offsets in cells, then one contiguous section streamed
    // node by node (no intermediate concatenated copy is ever materialised).
    let mut arena_offsets = vec![0u64];
    for m in gtree.matrices() {
        arena_offsets.push(arena_offsets[arena_offsets.len() - 1] + m.cells().len() as u64);
    }
    writer.begin_section(TAG_MATRIX_OFF)?;
    writer.write_u64s(&arena_offsets)?;
    writer.end_section()?;
    writer.begin_section(TAG_ARENA)?;
    for m in gtree.matrices() {
        writer.write_u32s(m.cells())?;
    }
    writer.end_section()?;
    writer.begin_section(TAG_CHILD_MIN)?;
    writer.write_u32s(&gtree.child_min)?;
    writer.end_section()
}

/// Whether an artifact contains a G-tree index.
pub fn has_gtree(artifact: &Artifact) -> bool {
    artifact.has(TAG_META)
}

/// Reads and validates the G-tree of `graph` (see the module docs for what that
/// proves). The topology is rebuilt into owned arrays; each node's matrix is a
/// zero-copy view into the mapped arena.
///
/// `expected_config`, when given, must have the stored fanout and leaf capacity
/// (its leaf capacity resolved for `graph`, see
/// [`GtreeConfig::resolved_leaf_capacity`]); the loaded tree carries its
/// `build_threads` (which shapes nothing, and is not stored).
pub fn load_gtree(
    artifact: &Artifact,
    graph: &Graph,
    expected_config: Option<&GtreeConfig>,
) -> Result<Gtree, PersistError> {
    let mut meta = artifact.meta(TAG_META)?;
    let config = GtreeConfig {
        fanout: meta.usize()?,
        leaf_capacity: meta.usize()?,
        build_threads: expected_config.map_or(0, |c| c.build_threads),
    };
    if meta.bool()? != REFINED {
        let detail = "the tree's matrices were never refined to global distances; rebuild it";
        return Err(PersistError::corrupt("GT.META", detail));
    }
    let num_nodes = meta.usize()?;
    let num_vertices = meta.usize()?;
    meta.finish()?;

    if num_vertices != graph.num_vertices() {
        let found = graph.num_vertices();
        return Err(PersistError::corrupt(
            "GT.META",
            format!("tree covers {num_vertices} vertices but the graph has {found}"),
        ));
    }

    let (hierarchy, leaves) = load_hierarchy(artifact, graph)?;
    if hierarchy.num_parts() != num_nodes {
        let found = hierarchy.num_parts();
        return Err(PersistError::corrupt(
            "GT.META",
            format!("{num_nodes} nodes recorded, the hierarchy has {found}"),
        ));
    }
    check_shape(&config, &hierarchy)?;
    if let Some(expected) = expected_config {
        let fields = [
            ("fanout", config.fanout, expected.fanout),
            ("leaf_capacity", config.leaf_capacity, expected.resolved_leaf_capacity(num_vertices)),
        ];
        if let Some(&(field, stored, expected)) = fields.iter().find(|(_, s, e)| s != e) {
            let (stored, expected) = (stored as u64, expected as u64);
            return Err(PersistError::ConfigMismatch { index: "gtree", field, stored, expected });
        }
    }

    // Wire each node's matrix to the arena slot its shape calls for.
    let arena_offsets = artifact.u64s(TAG_MATRIX_OFF)?;
    let arena = artifact.u32s(TAG_ARENA)?;
    if arena_offsets.len() != num_nodes + 1 {
        let found = arena_offsets.len();
        return Err(PersistError::corrupt(
            "GT.MXOF",
            format!("expected {} arena offsets, found {found}", num_nodes + 1),
        ));
    }
    let mut matrices = Vec::with_capacity(num_nodes);
    let mut start = 0usize;
    for i in 0..num_nodes as u32 {
        let (rows, cols) = if hierarchy.is_leaf(i) {
            (hierarchy.borders(i).len(), leaves.vertices(i).len())
        } else {
            (hierarchy.child_borders(i).len(), hierarchy.child_borders(i).len())
        };
        let slot = arena.slice(start, rows * cols);
        let view = slot.filter(|_| arena_offsets[i as usize] == start as u64).ok_or_else(|| {
            let detail = format!("node {i}: no {rows}×{cols} matrix at its arena offset");
            PersistError::corrupt("GT.MXOF", detail)
        })?;
        matrices.push(DistanceMatrix::from_cells(rows, cols, PVec::from_view(view)));
        start += rows * cols;
    }
    if arena_offsets[num_nodes] != start as u64 || start != arena.len() {
        let detail = format!("the matrices take {start} of {} arena cells", arena.len());
        return Err(PersistError::corrupt("GT.MXOF", detail));
    }

    // The child-minimum table: its shape follows from the hierarchy, its cells are
    // distances like the arena's (derived from the matrices at build, not rescanned).
    let child_min_offsets = child_min_offsets(&hierarchy);
    let child_min = artifact.u32s(TAG_CHILD_MIN)?;
    let want = child_min_offsets[num_nodes];
    if child_min.len() != want {
        let found = child_min.len();
        let detail = format!("the tree's child-minimum table has {want} cells, found {found}");
        return Err(PersistError::corrupt("GT.CMIN", detail));
    }

    let border_positions = hierarchy.border_positions(&leaves);
    Ok(Gtree {
        hierarchy: hierarchy.into(),
        leaves,
        matrices,
        border_positions,
        child_min: PVec::from_view(child_min),
        child_min_offsets,
        config,
    })
}

/// Refuses `GT.META` shape words that do not describe `hierarchy`: a fanout below
/// 2, a leaf capacity below 1, a part with more children than the fanout or a
/// leaf with more vertices than the capacity. A built tree never breaks these
/// (`rnknn_partition::hierarchy::split` makes a part a leaf exactly when it fits
/// the capacity, and splits any other into at most `fanout` children).
fn check_shape(config: &GtreeConfig, hierarchy: &Hierarchy) -> Result<(), PersistError> {
    let GtreeConfig { fanout, leaf_capacity, .. } = *config;
    let broken = if fanout < 2 || leaf_capacity < 1 {
        Some("a tree needs a fanout of at least 2 and a leaf capacity of at least 1".to_string())
    } else {
        (0..hierarchy.num_parts() as u32).find_map(|i| {
            let (children, vertices) = (hierarchy.children(i).len(), hierarchy.num_vertices(i));
            if hierarchy.is_leaf(i) && vertices as usize > leaf_capacity {
                Some(format!("leaf {i} holds {vertices} vertices, more than the leaf capacity"))
            } else {
                (children > fanout)
                    .then(|| format!("part {i} has {children} children, more than the fanout"))
            }
        })
    };
    broken.map_or(Ok(()), |detail| {
        let detail = format!("fanout {fanout}, leaf capacity {leaf_capacity}: {detail}");
        Err(PersistError::corrupt("GT.META", detail))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn_graph::{EdgeWeightKind, GeneratorConfig, RoadNetwork};
    use std::io::Cursor;

    fn sample(size: usize, seed: u64) -> (rnknn_graph::Graph, Gtree) {
        sample_with(size, seed, GtreeConfig { leaf_capacity: 32, ..GtreeConfig::default() })
    }

    fn sample_with(size: usize, seed: u64, config: GtreeConfig) -> (rnknn_graph::Graph, Gtree) {
        let graph = RoadNetwork::generate(&GeneratorConfig::new(size, seed))
            .graph(EdgeWeightKind::Distance);
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
        let loaded = load_gtree(&art, &graph, Some(&config)).unwrap();
        assert_eq!(loaded.num_nodes(), gtree.num_nodes());
        // Parents, levels, leaf ranges, children, borders and every vertex's leaf.
        assert_eq!(loaded.hierarchy(), gtree.hierarchy());
        assert_eq!(loaded.leaves, gtree.leaves);
        assert_eq!(loaded.border_positions, gtree.border_positions);
        for (a, b) in loaded.matrices().iter().zip(gtree.matrices()) {
            assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
            // Cell-for-cell arena comparison, the loaded side still a view.
            assert_eq!(a.cells(), b.cells());
            assert!(a.is_view() && !b.is_view());
        }
        // The child-minimum table, cell for cell, and a view as well.
        assert_eq!(loaded.child_min_offsets, gtree.child_min_offsets);
        assert_eq!(loaded.child_min.as_slice(), gtree.child_min.as_slice());
        assert!(loaded.child_min.is_view() && !gtree.child_min.is_view());
        // `build_threads` shapes nothing and is not stored: the caller's comes back.
        assert_eq!(loaded.config().build_threads, config.build_threads);
        let threads = GtreeConfig { build_threads: 3, ..config };
        assert_eq!(load_gtree(&art, &graph, Some(&threads)).unwrap().config().build_threads, 3);
        assert_eq!(load_gtree(&art, &graph, None).unwrap().config().build_threads, 0);
    }

    #[test]
    fn gtree_config_mismatch_is_rejected() {
        let (graph, gtree) = sample(150, 3);
        let art = Artifact::from_vec(save_to_vec(&gtree)).unwrap();
        let other = GtreeConfig { leaf_capacity: 64, ..GtreeConfig::default() };
        match load_gtree(&art, &graph, Some(&other)) {
            Err(PersistError::ConfigMismatch { index, .. }) => assert_eq!(index, "gtree"),
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        assert!(load_gtree(&art, &graph, None).is_ok());
    }

    /// A fanout or leaf-capacity mismatch is refused by field; `build_threads`
    /// shapes nothing and never is, and neither is a default (`0`) leaf capacity
    /// that resolves to the stored one.
    #[test]
    fn shape_mismatch_is_refused_and_build_threads_is_not() {
        let (graph, gtree) = sample(150, 3);
        let art = Artifact::from_vec(save_to_vec(&gtree)).unwrap();
        let stored = GtreeConfig { leaf_capacity: 32, ..GtreeConfig::default() };
        for (other, want) in [
            (GtreeConfig { fanout: 5, ..stored.clone() }, ("fanout", 4, 5)),
            (GtreeConfig { leaf_capacity: 31, ..stored.clone() }, ("leaf_capacity", 32, 31)),
            // `0` resolves to the paper's 64 for this graph.
            (GtreeConfig { leaf_capacity: 0, ..stored.clone() }, ("leaf_capacity", 32, 64)),
        ] {
            match load_gtree(&art, &graph, Some(&other)) {
                Err(PersistError::ConfigMismatch { index, field, stored, expected }) => {
                    assert_eq!((index, (field, stored, expected)), ("gtree", want))
                }
                other => panic!("{want:?}: expected ConfigMismatch, got {other:?}"),
            }
        }
        let threads = GtreeConfig { build_threads: 7, ..stored };
        assert!(load_gtree(&art, &graph, Some(&threads)).is_ok());
        let (graph, gtree) = sample_with(150, 3, GtreeConfig::default());
        let art = Artifact::from_vec(save_to_vec(&gtree)).unwrap();
        assert_eq!(gtree.config().leaf_capacity, 64, "the paper's rule, resolved at build");
        assert!(load_gtree(&art, &graph, Some(&GtreeConfig::default())).is_ok());
    }

    #[test]
    fn vertex_count_mismatch_is_corrupt() {
        let (_, gtree) = sample(150, 3);
        let art = Artifact::from_vec(save_to_vec(&gtree)).unwrap();
        let (other_graph, _) = sample(180, 3);
        assert!(matches!(load_gtree(&art, &other_graph, None), Err(PersistError::Corrupt { .. })));
    }
}
