//! Round-trip property battery for the on-disk index format (ISSUE 8).
//!
//! The strongest field-for-field/cell-for-cell check available at the public
//! API: serialize a built engine, load it, serialize the loaded engine again,
//! and require the two artifacts to be **byte-identical**. Every persisted
//! field — graph CSR arrays, CH ranks and shortcut CSR, G-tree topology,
//! border lists and every distance-matrix cell — flows through that equality;
//! a single cell lost or permuted anywhere changes the re-serialized bytes.
//! On top of that, every loaded engine must pass the conformance gate the
//! fuzz matrix applies to built engines: all supported methods against the
//! INE baseline and the Dijkstra ground truth.
//!
//! The sweep covers three sizes × both edge-weight kinds, plus the
//! mmap-backed file path, plus the G-tree config check and the format-version
//! gate with their actionable error messages.

use rnknn::engine::{Engine, EngineConfig, Method};
use rnknn::persist_format::checksum;
use rnknn::verify::{ground_truth, matches_ground_truth};
use rnknn::PersistError;
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::{EdgeWeightKind, NodeId};
use rnknn_gtree::GtreeConfig;
use rnknn_objects::{uniform, ObjectSet};

/// The persisted-index configuration of the battery: G-tree + CH (the two
/// indexes the artifact carries), small leaves so every tier has real
/// internal-node structure.
fn battery_config() -> EngineConfig {
    EngineConfig {
        gtree_config: GtreeConfig { leaf_capacity: 32, ..Default::default() },
        build_road: false,
        build_silc: false,
        build_phl: false,
        build_tnr: false,
        ..EngineConfig::default()
    }
}

/// The conformance gate of `conformance_fuzz.rs`, applied to a loaded engine:
/// every supported method must agree with INE and with the Dijkstra ground
/// truth on ranked distances.
fn check_conformance(engine: &Engine, objects: &ObjectSet, queries: &[NodeId], k: usize) {
    for &q in queries {
        let ine = engine.query(Method::Ine, q, k).expect("INE query");
        let truth = ground_truth(engine.graph(), q, k, objects);
        assert_eq!(
            ine.distances(),
            truth.iter().map(|&(_, d)| d).collect::<Vec<_>>(),
            "loaded engine: INE disagrees with Dijkstra at q={q}"
        );
        for method in Method::ALL {
            if !engine.supports(method) {
                continue;
            }
            let output = engine.query(method, q, k).expect("method query");
            assert_eq!(
                output.distances(),
                ine.distances(),
                "loaded engine: {} disagrees with INE at q={q}",
                method.name()
            );
            assert!(
                matches_ground_truth(engine.graph(), q, k, objects, &output.result),
                "loaded engine: {} invalid result at q={q}",
                method.name()
            );
        }
    }
}

/// The bytes of an artifact's `GT.CMIN` (child-minimum table) section.
fn child_min_section(bytes: &[u8]) -> Vec<u8> {
    let artifact = rnknn::persist_format::Artifact::from_vec(bytes.to_vec()).expect("artifact");
    let section = artifact.section_bytes(rnknn_gtree::persist::TAG_CHILD_MIN);
    section.expect("GT.CMIN section").to_vec()
}

#[test]
fn round_trip_is_byte_identical_and_conformant_across_sizes_and_weight_kinds() {
    for &size in &[300usize, 700, 1200] {
        for &kind in &[EdgeWeightKind::Distance, EdgeWeightKind::Time] {
            let graph = RoadNetwork::generate(&GeneratorConfig::new(size, size as u64)).graph(kind);
            let config = battery_config();
            let mut built = Engine::build(graph, &config);
            let bytes = built.save_indexes_to_vec().expect("save built engine");

            let mut loaded =
                Engine::load_indexes_from_vec(bytes.clone(), &config).expect("load engine");
            // Field-for-field, cell-for-cell: re-serializing the loaded engine
            // must reproduce the artifact bit-for-bit.
            let again = loaded.save_indexes_to_vec().expect("re-save loaded engine");
            // The child-minimum table first, so a lost or permuted table cell is
            // named as such; then the whole file.
            let table = child_min_section(&bytes);
            assert!(!table.is_empty(), "no child-minimum table at size={size}");
            assert_eq!(table, child_min_section(&again), "GT.CMIN differs at size={size}");
            assert_eq!(bytes, again, "re-serialized artifact differs at size={size} kind={kind:?}");

            // The loaded engine passes the same conformance gate a built one does.
            let objects = uniform(built.graph(), 0.04, 7);
            built.set_objects(objects.clone());
            loaded.set_objects(objects.clone());
            let n = loaded.graph().num_vertices() as NodeId;
            let queries: Vec<NodeId> =
                (0..4u64).map(|i| ((i * 7919 + 3) % n as u64) as NodeId).collect();
            check_conformance(&loaded, &objects, &queries, 5);
            // And answers exactly what the built engine answers.
            for &q in &queries {
                for method in [Method::Ine, Method::Gtree, Method::IerGtree, Method::IerCh] {
                    assert_eq!(
                        loaded.query(method, q, 5).unwrap().result,
                        built.query(method, q, 5).unwrap().result,
                        "built/loaded diverge: {} q={q} size={size} kind={kind:?}",
                        method.name()
                    );
                }
            }
        }
    }
}

#[test]
fn mmap_file_round_trip_is_byte_identical() {
    let graph =
        RoadNetwork::generate(&GeneratorConfig::new(500, 31)).graph(EdgeWeightKind::Distance);
    let config = battery_config();
    let engine = Engine::build(graph, &config);

    let dir = std::env::temp_dir().join("rnknn-roundtrip-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("roundtrip-{}.rnk", std::process::id()));
    let on_disk = engine.save_indexes(&path).expect("save to file");
    let raw = std::fs::read(&path).unwrap();
    assert_eq!(on_disk, raw.len() as u64);

    // The mmap path and the in-memory path must agree with each other and
    // with the original bytes after a full load → save cycle.
    let via_mmap = Engine::load_indexes(&path, &config).expect("mmap load");
    let via_vec = Engine::load_indexes_from_vec(raw.clone(), &config).expect("vec load");
    assert_eq!(via_mmap.save_indexes_to_vec().unwrap(), raw);
    assert_eq!(via_vec.save_indexes_to_vec().unwrap(), raw);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn loaded_matrices_are_views_into_an_arena_of_four_byte_cells() {
    let graph =
        RoadNetwork::generate(&GeneratorConfig::new(700, 13)).graph(EdgeWeightKind::Distance);
    let config = battery_config();
    let built = Engine::build(graph, &config);
    let bytes = built.save_indexes_to_vec().expect("save");
    let loaded = Engine::load_indexes_from_vec(bytes.clone(), &config).expect("load");

    let (built, loaded) = (built.gtree().unwrap(), loaded.gtree().unwrap());
    let cells: usize = loaded.matrices().iter().map(|m| m.rows() * m.cols()).sum();
    assert!(cells > 10_000, "a tree with real internal matrices");
    for (fresh, view) in built.matrices().iter().zip(loaded.matrices()) {
        assert!(!fresh.is_view(), "a built matrix owns its cells");
        assert!(view.is_view(), "a loaded matrix was copied out of the artifact");
        assert_eq!(view.cells(), fresh.cells());
    }
    // The arena is the cells and nothing else, and the index reports what is resident.
    let artifact = rnknn::persist_format::Artifact::from_vec(bytes).expect("artifact");
    let arena = artifact.section_bytes(rnknn_gtree::persist::TAG_ARENA).expect("arena section");
    assert_eq!(arena.len(), 4 * cells);
    let matrix_bytes: usize = loaded.matrices().iter().map(|m| m.memory_bytes()).sum();
    assert_eq!(matrix_bytes, 4 * cells);
    assert_eq!(loaded.memory_bytes(), built.memory_bytes());
    // The child-minimum table: one 4-byte cell per (source border, child) of every
    // internal node — every child border at the root, its own borders elsewhere.
    let h = loaded.hierarchy();
    let table_cells: usize = (0..loaded.num_nodes() as u32)
        .filter(|&i| !h.is_leaf(i))
        .map(|i| {
            let rows = if i == loaded.root() { h.child_borders(i) } else { h.borders(i) };
            rows.len() * h.children(i).len()
        })
        .sum();
    let table = artifact.section_bytes(rnknn_gtree::persist::TAG_CHILD_MIN).expect("table section");
    assert!(table_cells > 0 && table.len() == 4 * table_cells, "{} table bytes", table.len());
}

#[test]
fn gtree_config_mismatch_is_actionable() {
    let graph =
        RoadNetwork::generate(&GeneratorConfig::new(250, 5)).graph(EdgeWeightKind::Distance);
    let bytes = Engine::build(graph, &battery_config()).save_indexes_to_vec().unwrap();

    // Saved with fanout 4 and leaf capacity 32: a load asking for another shape
    // names the index, the field and both values, so the caller knows what to fix.
    for (gtree_config, field, stored, expected) in [
        (GtreeConfig { fanout: 2, leaf_capacity: 32, ..Default::default() }, "fanout", 4, 2),
        (GtreeConfig { leaf_capacity: 64, ..Default::default() }, "leaf_capacity", 32, 64),
    ] {
        let other = EngineConfig { gtree_config, ..battery_config() };
        let Err(error) = Engine::load_indexes_from_vec(bytes.clone(), &other) else {
            panic!("expected ConfigMismatch on {field}, load succeeded");
        };
        let want = PersistError::ConfigMismatch { index: "gtree", field, stored, expected };
        assert_eq!(error.to_string(), want.to_string());
        let named = format!("gtree `{field}`: artifact {stored}, requested {expected}");
        assert!(error.to_string().contains(&named), "{error}");
    }
}

#[test]
fn bumped_format_version_is_rejected_with_both_versions_named() {
    let graph =
        RoadNetwork::generate(&GeneratorConfig::new(200, 4)).graph(EdgeWeightKind::Distance);
    let config = battery_config();
    let pristine = Engine::build(graph, &config).save_indexes_to_vec().unwrap();
    let supported = rnknn::persist_format::FORMAT_VERSION;

    // A stale artifact (the previous format, whose `GT.META` was longer) and one
    // from the future: patch the version field and forge the header checksum so
    // the version gate itself (not the checksum, and never a `Corrupt` misparse
    // of the old layout) does the rejecting.
    for version in [supported - 1, supported + 1] {
        let mut bytes = pristine.clone();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let ck = checksum(&bytes[0..40]);
        bytes[40..48].copy_from_slice(&ck.to_le_bytes());
        match Engine::load_indexes_from_vec(bytes, &config) {
            Err(PersistError::UnsupportedVersion { found, supported: named }) => {
                assert_eq!(found, version);
                assert_eq!(named, supported);
            }
            Err(other) => panic!("expected UnsupportedVersion, got {other}"),
            Ok(_) => panic!("expected UnsupportedVersion, load succeeded"),
        }
    }
}

#[test]
fn wrong_magic_is_rejected() {
    let graph =
        RoadNetwork::generate(&GeneratorConfig::new(200, 3)).graph(EdgeWeightKind::Distance);
    let config = battery_config();
    let mut bytes = Engine::build(graph, &config).save_indexes_to_vec().unwrap();
    bytes[0] = b'Z';
    assert!(matches!(
        Engine::load_indexes_from_vec(bytes, &config),
        Err(PersistError::BadMagic { .. })
    ));
}
