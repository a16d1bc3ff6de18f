//! Corruption fuzz against the engine-level load path (ISSUE 8).
//!
//! The contract under test: **no sequence of bytes makes `Engine::load_indexes`
//! panic, read out of bounds, or hand back an engine that answers wrong** —
//! corruption is always a typed [`PersistError`]. The format crate proves the
//! exhaustive version of this on a synthetic artifact (every single-bit flip,
//! every truncation); this battery samples the same adversaries on a *real*
//! saved engine, whose artifact is far too large for exhaustive sweeps, via a
//! seeded xorshift stream so any failure reproduces from the printed position.
//!
//! Everything runs through the in-memory path (`load_indexes_from_vec`), the
//! same validation ladder the mmap path uses — byte-source choice cannot
//! change which corruptions are caught, which `mmap_file_round_trip_is_byte_identical`
//! (in `persistence_roundtrip.rs`) pins down separately.

use rnknn::engine::{Engine, EngineConfig, Method};
use rnknn::persist_format::checksum;
use rnknn::PersistError;
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::EdgeWeightKind;
use rnknn_objects::uniform;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

fn battery_config() -> EngineConfig {
    EngineConfig {
        gtree_leaf_capacity: Some(32),
        build_road: false,
        build_silc: false,
        build_phl: false,
        build_tnr: false,
        ..EngineConfig::default()
    }
}

/// A corrupted artifact must yield one of the validation error kinds — never
/// `Io` (nothing touches the filesystem here), never a panic, never `Ok`.
fn assert_typed_rejection(result: Result<Engine, PersistError>, what: &str) {
    match result {
        Err(PersistError::BadMagic { .. })
        | Err(PersistError::UnsupportedVersion { .. })
        | Err(PersistError::Truncated { .. })
        | Err(PersistError::ChecksumMismatch { .. })
        | Err(PersistError::MissingSection { .. })
        | Err(PersistError::Corrupt { .. })
        | Err(PersistError::ConfigMismatch { .. }) => {}
        Err(other) => panic!("{what}: unexpected error kind: {other}"),
        Ok(_) => panic!("{what}: corrupt artifact validated successfully"),
    }
}

fn saved_engine_bytes() -> Vec<u8> {
    let graph =
        RoadNetwork::generate(&GeneratorConfig::new(300, 11)).graph(EdgeWeightKind::Distance);
    Engine::build(graph, &battery_config()).save_indexes_to_vec().expect("save")
}

#[test]
fn seeded_single_bit_flips_are_typed_errors() {
    let bytes = saved_engine_bytes();
    let config = battery_config();
    // Sanity: the pristine artifact loads.
    assert!(Engine::load_indexes_from_vec(bytes.clone(), &config).is_ok());

    let mut rng = Rng(0xC0FF_EE00_DEAD_BEEF);
    for round in 0..256 {
        let byte = rng.below(bytes.len());
        let bit = rng.below(8);
        let mut flipped = bytes.clone();
        flipped[byte] ^= 1 << bit;
        assert_typed_rejection(
            Engine::load_indexes_from_vec(flipped, &config),
            &format!("round {round}: bit flip at byte {byte} bit {bit}"),
        );
    }
}

#[test]
fn seeded_truncations_are_typed_errors() {
    let bytes = saved_engine_bytes();
    let config = battery_config();
    // Boundary cuts plus a seeded sample of interior cuts.
    let mut cuts = vec![0usize, 1, 7, 47, 48, bytes.len() - 1, bytes.len() - 32];
    let mut rng = Rng(0x7A0B_11CE_5EED_0002);
    for _ in 0..48 {
        cuts.push(rng.below(bytes.len()));
    }
    for cut in cuts {
        assert_typed_rejection(
            Engine::load_indexes_from_vec(bytes[..cut].to_vec(), &config),
            &format!("truncation to {cut} bytes"),
        );
    }
}

#[test]
fn section_length_lies_are_typed_errors() {
    let bytes = saved_engine_bytes();
    let config = battery_config();
    let table_offset = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let num_sections = (bytes.len() - table_offset) / 32;
    assert!(num_sections > 3, "expected a multi-section artifact");

    let mut rng = Rng(0x0011_E50F_5EC7_1045);
    for round in 0..32 {
        let entry = rng.below(num_sections);
        let lie: u64 = match round % 4 {
            0 => 0,
            1 => u64::MAX / 2,
            2 => {
                let at = table_offset + entry * 32 + 16;
                u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()).wrapping_add(8)
            }
            _ => rng.next() % (bytes.len() as u64 * 2),
        };
        // Patch the length field of one table entry, then forge the table and
        // header checksums so only the structural validation can object.
        let mut forged = bytes.clone();
        let len_at = table_offset + entry * 32 + 16;
        forged[len_at..len_at + 8].copy_from_slice(&lie.to_le_bytes());
        let table_ck = checksum(&forged[table_offset..]);
        forged[32..40].copy_from_slice(&table_ck.to_le_bytes());
        let header_ck = checksum(&forged[0..40]);
        forged[40..48].copy_from_slice(&header_ck.to_le_bytes());
        assert_typed_rejection(
            Engine::load_indexes_from_vec(forged, &config),
            &format!("round {round}: section {entry} length forged to {lie}"),
        );
    }
}

/// The 48-byte header of the artifact `saved_engine_bytes()` produced under format
/// version 2 (this battery's graph and config at the last commit that wrote `u64`
/// matrix cells): magic, version 2, 28 sections, section table at 213 656 of
/// 214 552 bytes, with the table and header checksums that build computed.
const V2_HEADER: [u8; 48] = [
    82, 78, 75, 78, 73, 68, 88, 0, 2, 0, 0, 0, 28, 0, 0, 0, 152, 66, 3, 0, 0, 0, 0, 0, 24, 70, 3,
    0, 0, 0, 0, 0, 47, 183, 207, 129, 245, 230, 191, 100, 208, 70, 226, 32, 249, 209, 1, 146,
];

/// A version-2 artifact holds 8-byte cells and a five-word `GT.META` config; the
/// version gate must refuse it by name before any section (or even the header's
/// own length fields) is interpreted — alone, and in front of a current body.
#[test]
fn a_real_version_2_header_fails_the_version_gate() {
    let supported = rnknn::persist_format::FORMAT_VERSION;
    assert_eq!(supported, 3, "a format bump re-derives this fixture's expectations");
    let mut grafted = V2_HEADER.to_vec();
    grafted.extend_from_slice(&saved_engine_bytes()[V2_HEADER.len()..]);
    for (what, bytes) in [("bare header", V2_HEADER.to_vec()), ("grafted body", grafted)] {
        match Engine::load_indexes_from_vec(bytes, &battery_config()) {
            Err(PersistError::UnsupportedVersion { found: 2, supported: named }) => {
                assert_eq!(named, supported, "{what}")
            }
            Err(other) => panic!("{what}: expected UnsupportedVersion, got {other}"),
            Ok(_) => panic!("{what}: a version-2 artifact loaded"),
        }
    }
}

/// The "never a wrong answer" half of the contract: after the corruption
/// sweeps, the pristine bytes still load into an engine that answers exactly
/// like the one that saved them.
#[test]
fn pristine_bytes_still_answer_correctly() {
    let graph =
        RoadNetwork::generate(&GeneratorConfig::new(300, 11)).graph(EdgeWeightKind::Distance);
    let config = battery_config();
    let mut built = Engine::build(graph, &config);
    let bytes = built.save_indexes_to_vec().expect("save");
    let mut loaded = Engine::load_indexes_from_vec(bytes, &config).expect("load");
    let objects = uniform(built.graph(), 0.05, 2);
    built.set_objects(objects.clone());
    loaded.set_objects(objects);
    for q in [0u32, 57, 173] {
        assert_eq!(
            loaded.query(Method::Gtree, q, 8).unwrap().result,
            built.query(Method::Gtree, q, 8).unwrap().result,
        );
    }
}
