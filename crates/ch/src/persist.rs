//! Artifact save/load for the contraction hierarchy.
//!
//! The CH query state is four flat arrays (rank permutation + upward-CSR
//! offsets/targets/weights) plus two scalars, which is exactly the shape the
//! artifact format stores zero-copy: on load the arrays become
//! [`rnknn_persist::PVec`] views into the mapped file and the query path
//! runs on them unchanged.
//!
//! A loaded hierarchy is read by more than its own queries: the engine derives
//! TNR and PHL from it at load. So structural validation on load refuses, as
//! `Corrupt { CH.* }`, everything that could make a query or a derivation index
//! out of bounds or wrap — in one pass over the ranks and one over the upward
//! edges (≈ 0.2 ms of a ≈ 3 ms engine load at 23k, ≈ 1.5 ms of ≈ 20 ms at
//! 116k):
//! - `CH.RANK` must be a permutation of `0..n`. `vertices_by_importance` (PHL's
//!   hub order) must list every vertex once, and TNR takes the top ranks as its
//!   transit set and `rank − first_transit_rank` as a table index.
//! - `CH.UOFF` must be monotonic CSR offsets from 0 to the edge count.
//! - Every `CH.UTGT` target must be a vertex that **outranks its source**. TNR's
//!   upward search from a transit node must settle only transit nodes, whose
//!   table indexes it writes; a forged edge that falls in rank made that index
//!   out of bounds.
//! - Every `CH.UWGT` weight must be below `INFINITY`, so that `label + w` on a
//!   settled label cannot wrap.
//!
//! What no structural check can catch is a forged upward edge that still rises
//! in rank (a forged target, or a forged row boundary that hands an edge to a
//! neighbouring source) or a forged weight below `INFINITY`: each is a
//! different but valid hierarchy, whose distances are wrong. That class rests
//! on the section checksums (docs/PERSISTENCE.md counts it).

use crate::build::ContractionHierarchy;
use rnknn_graph::INFINITY;
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
    let mut seen = vec![false; num_vertices];
    for (v, &r) in rank.iter().enumerate() {
        match seen.get_mut(r as usize) {
            Some(slot) if !*slot => *slot = true,
            Some(_) => {
                return Err(PersistError::corrupt(
                    "CH.RANK",
                    format!("rank {r} repeats at vertex {v}: the ranks are not a permutation"),
                ))
            }
            None => {
                return Err(PersistError::corrupt(
                    "CH.RANK",
                    format!("rank {r} of vertex {v} out of range for {num_vertices} vertices"),
                ))
            }
        }
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
    // One pass over the upward edges: each must rise in rank and weigh less than
    // INFINITY. Rows are a few edges long, and a loop per row mispredicts its
    // exit, so the pass runs over the edges alone: `row_ends[e]` counts the rows
    // that end at edge `e`, and its running sum is the source of edge `e`.
    let mut row_ends = vec![0u32; num_up_edges + 1];
    for &end in &up_offsets[1..] {
        row_ends[end as usize] += 1;
    }
    let mut v = 0;
    for ((&t, &w), &ends) in up_targets.iter().zip(up_weights.iter()).zip(&row_ends) {
        v += ends as usize;
        match rank.get(t as usize) {
            Some(&r) if r > rank[v] => {}
            Some(_) => {
                return Err(PersistError::corrupt(
                    "CH.UTGT",
                    format!("upward edge {v} -> {t} does not rise in rank"),
                ))
            }
            None => {
                return Err(PersistError::corrupt(
                    "CH.UTGT",
                    format!("upward target {t} out of range for {num_vertices} vertices"),
                ))
            }
        }
        if w >= INFINITY {
            return Err(PersistError::corrupt(
                "CH.UWGT",
                format!("upward edge {v} -> {t} weighs {w}, not below INFINITY"),
            ));
        }
    }

    Ok(ContractionHierarchy {
        rank: PVec::from_view(rank),
        up_offsets: PVec::from_view(up_offsets),
        up_targets: PVec::from_view(up_targets),
        up_weights: PVec::from_view(up_weights),
        num_shortcuts,
    })
}

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

    /// Saves `ch` with one array rewritten by `forge` and returns the section the
    /// load names in its `Corrupt` error.
    fn refused_section(
        ch: &ContractionHierarchy,
        forge: impl Fn(&mut ContractionHierarchy),
    ) -> String {
        let mut forged = ch.clone();
        forge(&mut forged);
        let art = Artifact::from_vec(save_to_vec(&forged)).unwrap();
        match load_ch(&art, ch.num_vertices()) {
            Err(PersistError::Corrupt { section, .. }) => section,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn structural_lies_are_refused_by_section() {
        let (_, ch) = sample_ch(300, 11);
        let n = ch.num_vertices() as u32;
        // A repeated rank, and a rank out of range.
        assert_eq!(refused_section(&ch, |c| c.rank.to_mut()[0] = c.rank[1]), "CH.RANK");
        assert_eq!(refused_section(&ch, |c| c.rank.to_mut()[5] = n), "CH.RANK");
        // An upward edge that falls in rank: point it back at its own source.
        let v = (0..n).find(|&v| ch.upward_edges(v).next().is_some()).unwrap();
        let first = ch.up_offsets[v as usize] as usize;
        assert_eq!(refused_section(&ch, |c| c.up_targets.to_mut()[first] = v), "CH.UTGT");
        assert_eq!(refused_section(&ch, |c| c.up_targets.to_mut()[first] = n), "CH.UTGT");
        // A weight that could wrap a label sum.
        assert_eq!(refused_section(&ch, |c| c.up_weights.to_mut()[first] = INFINITY), "CH.UWGT");
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
