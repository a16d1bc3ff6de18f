//! Engine-level index persistence: save the built indexes once, cold-start in
//! milliseconds ever after.
//!
//! One artifact file holds the road network plus the two indexes whose
//! construction dominates preprocessing — the contraction hierarchy (~43s at
//! 580k vertices) and the G-tree (~54s). On load the graph's CSR arrays, the
//! CH arrays and the G-tree distance-matrix arena stay **zero-copy views into
//! the mapped file** (only the graph's coordinates are copied), so the load
//! costs one checksum pass over the file plus the structural checks: a
//! 580k-vertex engine answers its first query 133 ms after the load starts,
//! from a warm page cache, inside a 200 ms budget (`BENCH_cold_start.json`).
//!
//! What is *not* persisted: object sets and object indexes (cheap and swapped
//! per workload, per the paper's decoupled-indexing design), and the
//! ROAD/SILC/PHL/TNR indexes. Their `EngineConfig` build flags still work on
//! the load path — the engine derives ROAD from the loaded G-tree and PHL and
//! TNR from the loaded CH, and builds SILC over the loaded graph — so a loaded
//! engine supports exactly the methods a built one with the same config does;
//! only the CH and G-tree construction time is skipped.
//!
//! Every load fully validates the artifact — magic, format version, per-
//! section checksums and structural invariants — before any query runs, and
//! rejects a G-tree whose stored fanout or leaf capacity differs from the
//! caller's [`rnknn_gtree::GtreeConfig`]. Every CH is built under the same
//! constants, so it has no config to check. See `docs/PERSISTENCE.md` for the
//! format.

use std::fs::File;
use std::io::{BufWriter, Cursor};
use std::path::Path;

use rnknn_persist::{Artifact, ArtifactWriter, PersistError};

use crate::engine::{Engine, EngineConfig};

impl Engine {
    /// Saves the road network and the built CH/G-tree indexes to `path`
    /// (atomically overwritten via a sibling temp file). Returns the artifact
    /// size in bytes.
    pub fn save_indexes(&self, path: impl AsRef<Path>) -> Result<u64, PersistError> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        let file = File::create(&tmp)
            .map_err(|source| PersistError::Io { context: "creating artifact file", source })?;
        let mut writer = ArtifactWriter::new(BufWriter::new(file))?;
        self.write_sections(&mut writer)?;
        let out = writer.finish()?;
        let file = out.into_inner().map_err(|e| PersistError::Io {
            context: "flushing artifact",
            source: e.into_error(),
        })?;
        let len = file
            .metadata()
            .map_err(|source| PersistError::Io { context: "stat of artifact", source })?
            .len();
        // Durable before visible: a crash mid-save must never leave a torn
        // file at the published path.
        file.sync_all()
            .map_err(|source| PersistError::Io { context: "syncing artifact", source })?;
        drop(file);
        std::fs::rename(&tmp, path)
            .map_err(|source| PersistError::Io { context: "publishing artifact", source })?;
        Ok(len)
    }

    /// [`Engine::save_indexes`] into an in-memory buffer — the Miri-friendly
    /// path the corruption tests exercise.
    pub fn save_indexes_to_vec(&self) -> Result<Vec<u8>, PersistError> {
        let mut writer = ArtifactWriter::new(Cursor::new(Vec::new()))?;
        self.write_sections(&mut writer)?;
        Ok(writer.finish()?.into_inner())
    }

    fn write_sections<W: std::io::Write + std::io::Seek>(
        &self,
        writer: &mut ArtifactWriter<W>,
    ) -> Result<(), PersistError> {
        rnknn_graph::persist::save_graph(self.graph(), writer)?;
        if let Some(ch) = self.ch() {
            rnknn_ch::persist::save_ch(ch, writer)?;
        }
        if let Some(gtree) = self.gtree() {
            rnknn_gtree::persist::save_gtree(gtree, writer)?;
        }
        Ok(())
    }

    /// Loads an engine from an artifact file, mmapping it when the platform
    /// allows (falling back to a buffered read). Validation is complete before
    /// this returns: a corrupt, truncated or version-skewed file is a typed
    /// [`PersistError`], never a panic or a wrong answer later.
    ///
    /// `config` plays the same role as in [`Engine::build`]: `build_ch` /
    /// `build_gtree` (or `build_phl` / `build_tnr` / `build_road`, which imply
    /// them) say which
    /// indexes the caller needs (absent-from-artifact is
    /// [`PersistError::MissingSection`]), and `gtree_config`'s fanout and leaf
    /// capacity must equal what the artifact was built with
    /// ([`PersistError::ConfigMismatch`] otherwise). Build flags for the
    /// non-persisted indexes are honoured: ROAD is derived from the loaded
    /// G-tree, PHL and TNR from the loaded CH, and SILC is built over the loaded
    /// graph.
    pub fn load_indexes(
        path: impl AsRef<Path>,
        config: &EngineConfig,
    ) -> Result<Engine, PersistError> {
        let artifact = Artifact::open(path.as_ref())?;
        Engine::load_indexes_from_artifact(&artifact, config)
    }

    /// [`Engine::load_indexes`] over bytes already in memory (the Miri path).
    pub fn load_indexes_from_vec(
        bytes: Vec<u8>,
        config: &EngineConfig,
    ) -> Result<Engine, PersistError> {
        let artifact = Artifact::from_vec(bytes)?;
        Engine::load_indexes_from_artifact(&artifact, config)
    }

    /// The shared load body: validate + assemble an engine from an already-
    /// opened [`Artifact`]. Public so callers holding a mapped artifact (the
    /// serving layer, the cold-start bench) can reuse the mapping.
    pub fn load_indexes_from_artifact(
        artifact: &Artifact,
        config: &EngineConfig,
    ) -> Result<Engine, PersistError> {
        let graph = rnknn_graph::persist::load_graph(artifact)?;
        let num_vertices = graph.num_vertices();

        let ch = if config.wants_ch() {
            if !rnknn_ch::persist::has_ch(artifact) {
                return Err(PersistError::MissingSection {
                    section: "CH index (artifact was saved without build_ch)".to_string(),
                });
            }
            Some(rnknn_ch::persist::load_ch(artifact, num_vertices)?)
        } else {
            None
        };
        let gtree = if config.wants_gtree() {
            if !rnknn_gtree::persist::has_gtree(artifact) {
                return Err(PersistError::MissingSection {
                    section: "G-tree index (artifact was saved without build_gtree)".to_string(),
                });
            }
            Some(rnknn_gtree::persist::load_gtree(artifact, &graph, Some(&config.gtree_config))?)
        } else {
            None
        };

        Ok(Engine::assemble(graph, config, gtree, ch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Method;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::EdgeWeightKind;
    use rnknn_gtree::GtreeConfig;
    use rnknn_objects::uniform;

    fn small_config() -> EngineConfig {
        EngineConfig {
            gtree_config: GtreeConfig { leaf_capacity: 32, ..GtreeConfig::default() },
            build_road: false,
            build_silc: false,
            build_phl: false,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn engine_round_trips_through_memory_and_answers_identically() {
        let graph =
            RoadNetwork::generate(&GeneratorConfig::new(600, 9)).graph(EdgeWeightKind::Distance);
        let config = small_config();
        let mut built = Engine::build(graph, &config);
        let bytes = built.save_indexes_to_vec().unwrap();

        let mut loaded = Engine::load_indexes_from_vec(bytes, &config).unwrap();
        let objects = uniform(built.graph(), 0.03, 4);
        built.set_objects(objects.clone());
        loaded.set_objects(objects);
        for method in [Method::Ine, Method::Gtree, Method::IerGtree, Method::IerCh] {
            for q in [0u32, 123, 599] {
                assert_eq!(
                    loaded.query(method, q, 6).unwrap().result,
                    built.query(method, q, 6).unwrap().result,
                    "loaded engine diverges on {} at q={q}",
                    method.name()
                );
            }
        }
    }

    /// docs/PERSISTENCE.md's "What is persisted" table names every section an
    /// engine writes, so a new or renamed tag cannot land without its row.
    #[test]
    fn every_saved_tag_is_named_in_the_persistence_doc() {
        let doc = include_str!("../../../docs/PERSISTENCE.md");
        let graph =
            RoadNetwork::generate(&GeneratorConfig::new(200, 2)).graph(EdgeWeightKind::Distance);
        let bytes = Engine::build(graph, &small_config()).save_indexes_to_vec().unwrap();
        let artifact = Artifact::from_vec(bytes).unwrap();
        let tags: Vec<String> = artifact.tags().map(|tag| tag.to_string()).collect();
        assert!(tags.iter().any(|t| t.starts_with("CH.")) && tags.iter().any(|t| t == "GT.ARNA"));
        for tag in tags {
            assert!(doc.contains(&format!("`{tag}`")), "docs/PERSISTENCE.md never names `{tag}`");
        }
    }

    #[test]
    fn load_without_needed_index_is_missing_section() {
        let graph =
            RoadNetwork::generate(&GeneratorConfig::new(200, 2)).graph(EdgeWeightKind::Distance);
        // Saved without a CH...
        let config = EngineConfig { build_ch: false, ..small_config() };
        let bytes = Engine::build(graph, &config).save_indexes_to_vec().unwrap();
        // ...loading *with* build_ch, or with build_phl or build_tnr (derived
        // from a CH), must fail loudly, not degrade silently.
        let with_phl = EngineConfig { build_phl: true, ..config.clone() };
        let with_tnr = EngineConfig { build_tnr: true, ..config.clone() };
        for wants_ch in [small_config(), with_phl, with_tnr] {
            match Engine::load_indexes_from_vec(bytes.clone(), &wants_ch) {
                Err(PersistError::MissingSection { section }) => {
                    assert!(section.contains("CH"), "unexpected section: {section}")
                }
                Err(other) => panic!("expected MissingSection, got {other:?}"),
                Ok(_) => panic!("expected MissingSection, load succeeded"),
            }
        }
        assert!(Engine::load_indexes_from_vec(bytes, &config).is_ok());
    }

    #[test]
    fn file_round_trip_via_mmap() {
        let graph =
            RoadNetwork::generate(&GeneratorConfig::new(300, 8)).graph(EdgeWeightKind::Distance);
        let config = small_config();
        let engine = Engine::build(graph, &config);
        let dir = std::env::temp_dir().join("rnknn-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("engine-{}.rnk", std::process::id()));
        let on_disk = engine.save_indexes(&path).unwrap();
        assert_eq!(on_disk, std::fs::metadata(&path).unwrap().len());

        let mut loaded = Engine::load_indexes(&path, &config).unwrap();
        loaded.set_objects(uniform(loaded.graph(), 0.05, 1));
        assert_eq!(loaded.query(Method::Gtree, 7, 3).unwrap().result.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }
}
