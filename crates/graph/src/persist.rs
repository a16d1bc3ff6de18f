//! Artifact save/load for the CSR [`Graph`].
//!
//! The graph is the smallest component of an index artifact (tens of MB at
//! 580k vertices, vs ~1 GB of G-tree matrices), but every loaded index needs
//! it. On load the CSR offsets, targets and weights become
//! [`rnknn_persist::PVec`] views into the artifact, as the CH's arrays and the
//! G-tree arena are: a copy cost 0.25–0.48 ms at 23k, most of it page faults on
//! the fresh allocations. Only the coordinates are copied, because a
//! [`Point`] is two `f64`s, not a `Pod` word.
//!
//! Structural validation on load checks everything the rest of the codebase
//! uses as an *index*: offset monotonicity and bounds, target vertex ids,
//! array-length cross-consistency. Edge weights and coordinates are used only
//! arithmetically, so corrupt values there cannot cause out-of-bounds access;
//! they are covered by the artifact checksums.

use crate::graph::EdgeWeightKind;
use crate::point::Point;
use crate::{Graph, NodeId};
use rnknn_persist::{Artifact, ArtifactWriter, MetaWriter, PVec, PersistError, Tag};
use std::io::{Seek, Write};

/// Graph scalar metadata: weight kind, vertex count, arc count.
pub const TAG_META: Tag = Tag::new(b"G.META\0\0");
/// CSR offsets (`u32`, `num_vertices + 1` entries).
pub const TAG_OFFSETS: Tag = Tag::new(b"G.OFFS\0\0");
/// CSR targets (`u32`, one per directed arc).
pub const TAG_TARGETS: Tag = Tag::new(b"G.TARG\0\0");
/// CSR weights (`u64`, one per directed arc).
pub const TAG_WEIGHTS: Tag = Tag::new(b"G.WGTS\0\0");
/// Vertex coordinates (`u64` f64-bit pairs, two per vertex).
pub const TAG_COORDS: Tag = Tag::new(b"G.COOR\0\0");

fn kind_code(kind: EdgeWeightKind) -> u64 {
    match kind {
        EdgeWeightKind::Distance => 0,
        EdgeWeightKind::Time => 1,
    }
}

/// Writes the graph's sections into an open artifact.
pub fn save_graph<W: Write + Seek>(
    graph: &Graph,
    writer: &mut ArtifactWriter<W>,
) -> Result<(), PersistError> {
    let mut meta = MetaWriter::new();
    meta.u64(kind_code(graph.kind())).usize(graph.num_vertices()).usize(graph.num_arcs());
    writer.begin_section(TAG_META)?;
    writer.write_u64s(meta.words())?;
    writer.end_section()?;

    writer.begin_section(TAG_OFFSETS)?;
    writer.write_u32s(&graph.offsets)?;
    writer.end_section()?;

    writer.begin_section(TAG_TARGETS)?;
    writer.write_u32s(&graph.targets)?;
    writer.end_section()?;

    writer.begin_section(TAG_WEIGHTS)?;
    writer.write_u64s(&graph.weights)?;
    writer.end_section()?;

    writer.begin_section(TAG_COORDS)?;
    for p in graph.coords() {
        writer.write_u64(p.x.to_bits())?;
        writer.write_u64(p.y.to_bits())?;
    }
    writer.end_section()?;
    Ok(())
}

/// Reads and validates the graph from an artifact, its CSR arrays as zero-copy
/// views.
pub fn load_graph(artifact: &Artifact) -> Result<Graph, PersistError> {
    let mut meta = artifact.meta(TAG_META)?;
    let kind = match meta.u64()? {
        0 => EdgeWeightKind::Distance,
        1 => EdgeWeightKind::Time,
        v => {
            return Err(PersistError::corrupt(
                "G.META",
                format!("unknown edge-weight kind code {v}"),
            ))
        }
    };
    let num_vertices = meta.usize()?;
    let num_arcs = meta.usize()?;
    meta.finish()?;

    let offsets_view = artifact.u32s(TAG_OFFSETS)?;
    let targets_view = artifact.u32s(TAG_TARGETS)?;
    let weights_view = artifact.u64s(TAG_WEIGHTS)?;
    let coords_view = artifact.u64s(TAG_COORDS)?;

    if offsets_view.len() != num_vertices + 1 {
        return Err(PersistError::corrupt(
            "G.OFFS",
            format!(
                "expected {} offsets for {num_vertices} vertices, found {}",
                num_vertices + 1,
                offsets_view.len()
            ),
        ));
    }
    if targets_view.len() != num_arcs || weights_view.len() != num_arcs {
        return Err(PersistError::corrupt(
            "G.TARG",
            format!(
                "arc arrays disagree with G.META: {} targets / {} weights vs {num_arcs} arcs",
                targets_view.len(),
                weights_view.len()
            ),
        ));
    }
    if coords_view.len() != num_vertices * 2 {
        return Err(PersistError::corrupt(
            "G.COOR",
            format!(
                "expected {} coordinate words for {num_vertices} vertices, found {}",
                num_vertices * 2,
                coords_view.len()
            ),
        ));
    }
    let offsets: &[u32] = &offsets_view;
    if offsets[0] != 0 {
        return Err(PersistError::corrupt("G.OFFS", "offsets[0] is not 0".to_string()));
    }
    if let Some(pos) = offsets.windows(2).position(|w| w[0] > w[1]) {
        return Err(PersistError::corrupt(
            "G.OFFS",
            format!("offsets not monotonic at vertex {pos}"),
        ));
    }
    if offsets[num_vertices] as usize != num_arcs {
        return Err(PersistError::corrupt(
            "G.OFFS",
            format!(
                "offsets end at {} but the artifact holds {num_arcs} arcs",
                offsets[num_vertices]
            ),
        ));
    }
    let targets: &[NodeId] = &targets_view;
    if let Some(&bad) = targets.iter().find(|&&t| t as usize >= num_vertices) {
        return Err(PersistError::corrupt(
            "G.TARG",
            format!("target vertex {bad} out of range (graph has {num_vertices} vertices)"),
        ));
    }

    let coords: Vec<Point> = coords_view
        .chunks_exact(2)
        .map(|c| Point::new(f64::from_bits(c[0]), f64::from_bits(c[1])))
        .collect();
    let graph = Graph::from_csr(
        PVec::from_view(offsets_view),
        PVec::from_view(targets_view),
        PVec::from_view(weights_view),
        coords,
    );
    Ok(graph.with_kind(kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_persist::Artifact;
    use std::io::Cursor;

    fn round_trip(kind: EdgeWeightKind) {
        let graph = RoadNetwork::generate(&GeneratorConfig::new(200, 7)).graph(kind);
        let mut w = ArtifactWriter::new(Cursor::new(Vec::new())).unwrap();
        save_graph(&graph, &mut w).unwrap();
        let data = w.finish().unwrap().into_inner();
        let loaded = load_graph(&Artifact::from_vec(data).unwrap()).unwrap();
        assert_eq!(loaded.kind(), graph.kind());
        assert_eq!(loaded.num_vertices(), graph.num_vertices());
        assert_eq!(loaded.num_arcs(), graph.num_arcs());
        assert!(
            loaded.offsets.is_view() && loaded.targets.is_view() && loaded.weights.is_view(),
            "loaded CSR arrays must be zero-copy views"
        );
        for v in graph.vertices() {
            assert_eq!(loaded.coord(v), graph.coord(v));
            assert!(loaded.neighbors(v).eq(graph.neighbors(v)));
        }
    }

    #[test]
    fn graph_round_trips_both_weight_kinds() {
        round_trip(EdgeWeightKind::Distance);
        round_trip(EdgeWeightKind::Time);
    }

    #[test]
    fn bad_kind_code_is_corrupt() {
        let graph =
            RoadNetwork::generate(&GeneratorConfig::new(50, 3)).graph(EdgeWeightKind::Distance);
        let mut w = ArtifactWriter::new(Cursor::new(Vec::new())).unwrap();
        // Write meta with a bogus kind but otherwise valid sections.
        let mut meta = MetaWriter::new();
        meta.u64(9).usize(graph.num_vertices()).usize(graph.num_arcs());
        w.begin_section(TAG_META).unwrap();
        w.write_u64s(meta.words()).unwrap();
        w.end_section().unwrap();
        w.begin_section(TAG_OFFSETS).unwrap();
        w.write_u32s(&graph.offsets).unwrap();
        w.end_section().unwrap();
        w.begin_section(TAG_TARGETS).unwrap();
        w.write_u32s(&graph.targets).unwrap();
        w.end_section().unwrap();
        w.begin_section(TAG_WEIGHTS).unwrap();
        w.write_u64s(&graph.weights).unwrap();
        w.end_section().unwrap();
        w.begin_section(TAG_COORDS).unwrap();
        for p in graph.coords() {
            w.write_u64(p.x.to_bits()).unwrap();
            w.write_u64(p.y.to_bits()).unwrap();
        }
        w.end_section().unwrap();
        let data = w.finish().unwrap().into_inner();
        let err = load_graph(&Artifact::from_vec(data).unwrap()).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt { .. }));
    }
}
