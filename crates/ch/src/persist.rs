//! Artifact save/load for the contraction hierarchy.
//!
//! The CH query state is four flat arrays (rank permutation + upward-CSR
//! offsets/targets/weights) plus two scalars, which is exactly the shape the
//! artifact format stores zero-copy: on load the arrays become
//! [`rnknn_persist::PVec`] views into the mapped file and the query path
//! runs on them unchanged.
//!
//! Structural validation on load covers everything the query code uses as an
//! index: the rank permutation (every value in range — queries only compare
//! ranks, so a permutation check stronger than range is unnecessary, but range
//! is required for `vertices_by_importance`), CSR offset monotonicity/bounds,
//! and target ids. `up_weights` values are used only arithmetically and are
//! covered by the section checksum.

use crate::build::ContractionHierarchy;
use rnknn_graph::NodeId;
use rnknn_persist::{Artifact, ArtifactWriter, MetaWriter, PVec, PersistError, Tag};
use std::io::{Seek, Write};

/// CH scalar metadata: vertex count, shortcut count.
pub const TAG_META: Tag = Tag::new(b"CH.META\0");
/// Contraction ranks (`u32`, one per vertex).
pub const TAG_RANK: Tag = Tag::new(b"CH.RANK\0");
/// Upward-CSR offsets (`u32`, `num_vertices + 1` entries).
pub const TAG_UP_OFFSETS: Tag = Tag::new(b"CH.UOFF\0");
/// Upward-CSR targets (`u32`).
pub const TAG_UP_TARGETS: Tag = Tag::new(b"CH.UTGT\0");
/// Upward-CSR weights (`u64`).
pub const TAG_UP_WEIGHTS: Tag = Tag::new(b"CH.UWGT\0");

/// Writes the hierarchy's sections into an open artifact.
pub fn save_ch<W: Write + Seek>(
    ch: &ContractionHierarchy,
    writer: &mut ArtifactWriter<W>,
) -> Result<(), PersistError> {
    let mut meta = MetaWriter::new();
    meta.usize(ch.num_vertices()).usize(ch.num_shortcuts);
    writer.begin_section(TAG_META)?;
    writer.write_u64s(meta.words())?;
    writer.end_section()?;

    writer.begin_section(TAG_RANK)?;
    writer.write_u32s(&ch.rank)?;
    writer.end_section()?;

    writer.begin_section(TAG_UP_OFFSETS)?;
    writer.write_u32s(&ch.up_offsets)?;
    writer.end_section()?;

    writer.begin_section(TAG_UP_TARGETS)?;
    writer.write_u32s(&ch.up_targets)?;
    writer.end_section()?;

    writer.begin_section(TAG_UP_WEIGHTS)?;
    writer.write_u64s(&ch.up_weights)?;
    writer.end_section()?;
    Ok(())
}

/// Whether an artifact contains a CH index.
pub fn has_ch(artifact: &Artifact) -> bool {
    artifact.has(TAG_META)
}

/// Reads and validates the hierarchy from an artifact as zero-copy views.
///
/// `num_graph_vertices` cross-checks the hierarchy against the graph it will
/// be queried with. Every hierarchy is built under the same constants, so
/// there is no build config to check.
pub fn load_ch(
    artifact: &Artifact,
    num_graph_vertices: usize,
) -> Result<ContractionHierarchy, PersistError> {
    let mut meta = artifact.meta(TAG_META)?;
    let num_vertices = meta.usize()?;
    let num_shortcuts = meta.usize()?;
    meta.finish()?;

    if num_vertices != num_graph_vertices {
        return Err(PersistError::corrupt(
            "CH.META",
            format!(
                "hierarchy covers {num_vertices} vertices but the graph has \
                 {num_graph_vertices}"
            ),
        ));
    }

    let rank = artifact.u32s(TAG_RANK)?;
    let up_offsets = artifact.u32s(TAG_UP_OFFSETS)?;
    let up_targets = artifact.u32s(TAG_UP_TARGETS)?;
    let up_weights = artifact.u64s(TAG_UP_WEIGHTS)?;

    if rank.len() != num_vertices {
        return Err(PersistError::corrupt(
            "CH.RANK",
            format!("expected {num_vertices} ranks, found {}", rank.len()),
        ));
    }
    if let Some(&bad) = rank.iter().find(|&&r| r as usize >= num_vertices) {
        return Err(PersistError::corrupt(
            "CH.RANK",
            format!("rank {bad} out of range for {num_vertices} vertices"),
        ));
    }
    if up_offsets.len() != num_vertices + 1 {
        return Err(PersistError::corrupt(
            "CH.UOFF",
            format!(
                "expected {} offsets for {num_vertices} vertices, found {}",
                num_vertices + 1,
                up_offsets.len()
            ),
        ));
    }
    if up_offsets.first() != Some(&0) {
        return Err(PersistError::corrupt("CH.UOFF", "offsets[0] is not 0".to_string()));
    }
    if let Some(pos) = up_offsets.windows(2).position(|w| w[0] > w[1]) {
        return Err(PersistError::corrupt(
            "CH.UOFF",
            format!("offsets not monotonic at vertex {pos}"),
        ));
    }
    let num_up_edges = *up_offsets.last().unwrap() as usize;
    if up_targets.len() != num_up_edges || up_weights.len() != num_up_edges {
        return Err(PersistError::corrupt(
            "CH.UTGT",
            format!(
                "upward arrays disagree with offsets: {} targets / {} weights vs \
                 {num_up_edges} edges",
                up_targets.len(),
                up_weights.len()
            ),
        ));
    }
    if let Some(&bad) = up_targets.iter().find(|&&t| t as usize >= num_vertices) {
        return Err(PersistError::corrupt(
            "CH.UTGT",
            format!("upward target {bad} out of range for {num_vertices} vertices"),
        ));
    }

    Ok(ContractionHierarchy {
        rank: PVec::from_view(rank),
        up_offsets: PVec::from_view(up_offsets),
        up_targets: PVec::from_view(up_targets),
        up_weights: PVec::from_view(up_weights),
        num_shortcuts,
    })
}

// NodeId is the element type of `up_targets`; keep the import honest even
// though it is the same type as u32 today.
const _: fn(NodeId) -> u32 = |v| v;

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn_graph::{EdgeWeightKind, GeneratorConfig, RoadNetwork};
    use std::io::Cursor;

    fn sample_ch(size: usize, seed: u64) -> (rnknn_graph::Graph, ContractionHierarchy) {
        let graph = RoadNetwork::generate(&GeneratorConfig::new(size, seed))
            .graph(EdgeWeightKind::Distance);
        let ch = ContractionHierarchy::build(&graph);
        (graph, ch)
    }

    fn save_to_vec(ch: &ContractionHierarchy) -> Vec<u8> {
        let mut w = ArtifactWriter::new(Cursor::new(Vec::new())).unwrap();
        save_ch(ch, &mut w).unwrap();
        w.finish().unwrap().into_inner()
    }

    #[test]
    fn ch_round_trips_field_for_field() {
        let (graph, ch) = sample_ch(300, 11);
        let art = Artifact::from_vec(save_to_vec(&ch)).unwrap();
        assert!(has_ch(&art));
        let loaded = load_ch(&art, graph.num_vertices()).unwrap();
        assert_eq!(&*loaded.rank, &*ch.rank);
        assert_eq!(&*loaded.up_offsets, &*ch.up_offsets);
        assert_eq!(&*loaded.up_targets, &*ch.up_targets);
        assert_eq!(&*loaded.up_weights, &*ch.up_weights);
        assert_eq!(loaded.num_shortcuts(), ch.num_shortcuts());
        assert!(loaded.rank.is_view(), "loaded arrays must be zero-copy views");
        // Distances must agree on a few pairs.
        for (s, t) in [(0u32, 1u32), (5, 250), (17, 123)] {
            assert_eq!(loaded.distance(s, t), ch.distance(s, t));
        }
    }

    #[test]
    fn vertex_count_mismatch_is_corrupt() {
        let (graph, ch) = sample_ch(120, 5);
        let art = Artifact::from_vec(save_to_vec(&ch)).unwrap();
        assert!(matches!(
            load_ch(&art, graph.num_vertices() + 1),
            Err(PersistError::Corrupt { .. })
        ));
    }
}
