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
use rnknn::persist_format::{checksum, Tag};
use rnknn::PersistError;
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::EdgeWeightKind;
use rnknn_gtree::persist::{TAG_CHILD_MIN, TAG_META};
use rnknn_gtree::GtreeConfig;
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
        gtree_config: GtreeConfig { leaf_capacity: 32, ..Default::default() },
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

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Recomputes the table and header checksums over whatever the bytes now say.
fn forge_table_and_header_checksums(bytes: &mut [u8]) {
    let table_offset = u64_at(bytes, 16) as usize;
    let table_ck = checksum(&bytes[table_offset..]);
    bytes[32..40].copy_from_slice(&table_ck.to_le_bytes());
    let header_ck = checksum(&bytes[0..40]);
    bytes[40..48].copy_from_slice(&header_ck.to_le_bytes());
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
        forge_table_and_header_checksums(&mut forged);
        assert_typed_rejection(
            Engine::load_indexes_from_vec(forged, &config),
            &format!("round {round}: section {entry} length forged to {lie}"),
        );
    }
}

/// The distances a method answers from every 7th vertex.
fn answers(engine: &Engine, method: Method) -> Vec<Vec<u64>> {
    let n = engine.graph().num_vertices() as u32;
    let distances = |q| engine.query(method, q, 6).unwrap().result.iter().map(|r| r.1).collect();
    (0..n).step_by(7).map(distances).collect()
}

/// Section `tag`'s table entry: `(entry position, data offset, data length)`.
fn section_entry(bytes: &[u8], tag: &[u8; 8]) -> (usize, usize, usize) {
    let table_offset = u64_at(bytes, 16) as usize;
    let entry = (table_offset..bytes.len())
        .step_by(32)
        .find(|&e| &bytes[e..e + 8] == tag)
        .expect("section");
    (entry, u64_at(bytes, entry + 8) as usize, u64_at(bytes, entry + 16) as usize)
}

/// `bytes` with the `u32` at `at`, inside the section `entry` describes, set to
/// `lie`, and that section's checksum, the table's and the header's recomputed, so
/// that only structural validation can object.
fn forge_word(
    bytes: &[u8],
    (entry, offset, len): (usize, usize, usize),
    at: usize,
    lie: u32,
) -> Vec<u8> {
    let mut forged = bytes.to_vec();
    forged[at..at + 4].copy_from_slice(&lie.to_le_bytes());
    let section_ck = checksum(&forged[offset..offset + len.next_multiple_of(8)]);
    forged[entry + 24..entry + 32].copy_from_slice(&section_ck.to_le_bytes());
    forge_table_and_header_checksums(&mut forged);
    forged
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// The `(position, lie)` pairs a battery forges in the section `entry`
/// describes, each lie one of {0, old + 1, old − 1, `u32::MAX`}. Release builds
/// forge every `u32` word of the section with every lie; debug builds, which run
/// the tier-1 suite, forge a seeded sample of `sampled` words, one lie each in
/// turn.
fn forgeries(
    bytes: &[u8],
    (_, offset, len): (usize, usize, usize),
    rng: &mut Rng,
    sampled: usize,
) -> Vec<(usize, u32)> {
    let lies = |at: usize| {
        let old = u32_at(bytes, at);
        [0, old.wrapping_add(1), old.wrapping_sub(1), u32::MAX]
    };
    if cfg!(debug_assertions) {
        (0..sampled)
            .map(|round| {
                let at = offset + 4 * rng.below(len / 4);
                (at, lies(at)[round % 4])
            })
            .collect()
    } else {
        (offset..offset + len).step_by(4).flat_map(|at| lies(at).map(|lie| (at, lie))).collect()
    }
}

/// `bytes` with the `u32` at `at` inside section `entry`'s table entry (its
/// length is the two words at `entry + 16`) set to `lie`, and the section's
/// checksum (over its new extent, where that fits in the file), the table's and
/// the header's recomputed.
fn forge_length_word(bytes: &[u8], entry: usize, at: usize, lie: u32) -> Vec<u8> {
    let mut forged = bytes.to_vec();
    forged[at..at + 4].copy_from_slice(&lie.to_le_bytes());
    let (offset, len) = (u64_at(&forged, entry + 8) as usize, u64_at(&forged, entry + 16));
    let end = usize::try_from(len.next_multiple_of(8)).ok().and_then(|l| offset.checked_add(l));
    if let Some(end) = end.filter(|&end| end <= forged.len()) {
        let section_ck = checksum(&forged[offset..end]);
        forged[entry + 24..entry + 32].copy_from_slice(&section_ck.to_le_bytes());
    }
    forge_table_and_header_checksums(&mut forged);
    forged
}

/// The G-tree battery's load: the battery engine with ROAD derived from the
/// loaded G-tree.
fn gtree_battery_load_config() -> EngineConfig {
    EngineConfig { build_road: true, ..battery_config() }
}

/// A lie the checksums vouch for: one `u32` of one G-tree topology section —
/// `HI.PRNT`, `HI.LFSZ`, `HI.VERT`, `GT.META`, `GT.MXOF`, or the length words of
/// `GT.CMIN`'s table entry (its shape) — overwritten by [`forge_word`] (or
/// [`forge_length_word`]). It must be refused with a typed error, unless the
/// engine that loads answers G-tree, IER-Gt and ROAD (derived from the G-tree at
/// load) queries exactly as INE does; it must never panic. A forged tree shape
/// used to load and then panic (or overflow the stack) in the first query.
/// Every word, every lie in release builds; a seeded sample in debug builds.
#[test]
fn checksum_valid_structural_lies_are_typed_errors_or_harmless() {
    let bytes = saved_engine_bytes();
    let config = gtree_battery_load_config();
    let mut pristine = Engine::load_indexes_from_vec(bytes.clone(), &config).expect("load");
    let objects = uniform(pristine.graph(), 0.05, 2);
    pristine.set_objects(objects.clone());
    let truth = answers(&pristine, Method::Ine);
    let methods = [Method::Gtree, Method::IerGtree, Method::Road];
    for method in methods {
        assert_eq!(answers(&pristine, method), truth, "{method:?} on the pristine artifact");
    }

    let (mut refused, mut rounds, mut panics) = (0, 0, Vec::new());
    let mut check = |what: String, forged: Vec<u8>| {
        rounds += 1;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Engine::load_indexes_from_vec(forged, &config).map(|mut engine| {
                engine.set_objects(objects.clone());
                methods.map(|method| answers(&engine, method) == truth)
            })
        }));
        match outcome {
            Err(_) => panics.push(what),
            Ok(Ok(correct)) => {
                for (method, ok) in methods.iter().zip(correct) {
                    assert!(ok, "{what}: {method:?} answered wrong");
                }
            }
            Ok(Err(error)) => {
                assert_typed_rejection(Err(error), &what);
                refused += 1;
            }
        }
    };
    let mut rng = Rng(0x51DE_CA11_F04E_57EE);
    for tag in [b"HI.PRNT\0", b"HI.LFSZ\0", b"HI.VERT\0", b"GT.META\0", b"GT.MXOF\0"] {
        let entry = section_entry(&bytes, tag);
        for (at, lie) in forgeries(&bytes, entry, &mut rng, 24) {
            let old = u32_at(&bytes, at);
            if lie != old {
                let what =
                    format!("{}: word at {at} forged from {old} to {lie}", tag.escape_ascii());
                check(what, forge_word(&bytes, entry, at, lie));
            }
        }
    }
    let (cmin, ..) = section_entry(&bytes, b"GT.CMIN\0");
    for at in [cmin + 16, cmin + 20] {
        let old = u32_at(&bytes, at);
        for lie in [0, old.wrapping_add(1), old.wrapping_sub(1), u32::MAX] {
            if lie != old {
                let what = format!("GT.CMIN length word at {at} forged from {old} to {lie}");
                check(what, forge_length_word(&bytes, cmin, at, lie));
            }
        }
    }
    let exact = rounds - refused - panics.len();
    println!("{rounds} G-tree structural lies: {refused} refused, {exact} answered exactly");
    assert!(panics.is_empty(), "{} lies panicked: {panics:#?}", panics.len());
    assert!(rounds > 80 && refused * 2 > rounds, "{refused} of {rounds} lies refused");
}

/// The CH battery's engine: a CH with PHL and TNR derived from it at load, no G-tree.
fn ch_battery_config() -> EngineConfig {
    EngineConfig {
        build_gtree: false,
        build_road: false,
        build_silc: false,
        build_ch: true,
        build_phl: true,
        build_tnr: true,
        ..EngineConfig::default()
    }
}

/// A checksum-valid lie in the CH's structure — one `u32` of `CH.META`,
/// `CH.RANK`, `CH.UOFF` or `CH.UTGT` set to 0, old ± 1 or `u32::MAX` by
/// [`forge_word`] — must never panic, at load (where TNR and PHL are derived from
/// the CH) or in a query. It is refused as `Corrupt`, or the engine that loads
/// answers IER-CH, IER-PHL and IER-TNR queries; a wrong answer is allowed only in
/// the class no structural check can catch (docs/PERSISTENCE.md): an upward edge
/// forged to another vertex that still outranks its source — a target forged in
/// `CH.UTGT`, or a row boundary in `CH.UOFF` moved so that an edge changes source.
/// Each is a valid hierarchy with other distances. A forged rank always breaks the
/// permutation and is refused, and so is a forged count in `CH.META`. Every word,
/// every lie in release builds (where the class is counted); a seeded sample in
/// debug builds.
#[test]
fn checksum_valid_ch_lies_are_typed_errors_or_in_the_named_class() {
    let graph =
        RoadNetwork::generate(&GeneratorConfig::new(300, 11)).graph(EdgeWeightKind::Distance);
    let config = ch_battery_config();
    let bytes = Engine::build(graph, &config).save_indexes_to_vec().expect("save");
    let mut pristine = Engine::load_indexes_from_vec(bytes.clone(), &config).expect("load");
    let objects = uniform(pristine.graph(), 0.05, 2);
    pristine.set_objects(objects.clone());
    let truth = answers(&pristine, Method::Ine);
    let methods = [Method::IerCh, Method::IerPhl, Method::IerTnr];
    for method in methods {
        assert_eq!(answers(&pristine, method), truth, "{method:?} on the pristine artifact");
    }

    let mut rng = Rng(0xC4F0_26ED_0017_A11E);
    let (mut rounds, mut refused, mut exact, mut panics) = (0, 0, 0, Vec::new());
    let mut wrong = [0usize; 4]; // lies answered wrongly, per section
    let mut wrong_by_method = [0usize; 3];
    let sections = [b"CH.META\0", b"CH.RANK\0", b"CH.UOFF\0", b"CH.UTGT\0"];
    for (section, tag) in sections.into_iter().enumerate() {
        let entry = section_entry(&bytes, tag);
        for (at, lie) in forgeries(&bytes, entry, &mut rng, 40) {
            let old = u32_at(&bytes, at);
            if lie == old {
                continue;
            }
            let what = format!("{}: word at {at} forged from {old} to {lie}", tag.escape_ascii());
            rounds += 1;
            let forged = forge_word(&bytes, entry, at, lie);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Engine::load_indexes_from_vec(forged, &config).map(|mut engine| {
                    engine.set_objects(objects.clone());
                    methods.map(|method| answers(&engine, method) == truth)
                })
            }));
            match outcome {
                Err(_) => panics.push(what),
                Ok(Err(PersistError::Corrupt { .. })) => refused += 1,
                Ok(Err(other)) => panic!("{what}: expected Corrupt, got {other}"),
                Ok(Ok(correct)) if correct.iter().all(|&c| c) => exact += 1,
                Ok(Ok(correct)) => {
                    wrong[section] += 1;
                    for (count, ok) in wrong_by_method.iter_mut().zip(correct) {
                        *count += usize::from(!ok);
                    }
                }
            }
        }
    }
    println!(
        "{rounds} CH lies: {refused} refused, {exact} answered exactly, {} answered wrong in \
         the named class (CH.UOFF {}, CH.UTGT {}; IER-CH {}, IER-PHL {}, IER-TNR {})",
        wrong[2] + wrong[3],
        wrong[2],
        wrong[3],
        wrong_by_method[0],
        wrong_by_method[1],
        wrong_by_method[2],
    );
    assert!(panics.is_empty(), "{} lies panicked: {panics:#?}", panics.len());
    assert!(rounds >= 100, "only {rounds} lies");
    assert_eq!(wrong[..2], [0, 0], "a forged count or rank loaded and answered wrong");
    assert_eq!(wrong_by_method[1], 0, "PHL reads only the rank order, which a load proves");
}

/// The 48-byte header of the artifact `saved_engine_bytes()` produced under format
/// version 2 (this battery's graph and config at the last commit that wrote `u64`
/// matrix cells): magic, version 2, 28 sections, section table at 213 656 of
/// 214 552 bytes, with the table and header checksums that build computed.
const V2_HEADER: [u8; 48] = [
    82, 78, 75, 78, 73, 68, 88, 0, 2, 0, 0, 0, 28, 0, 0, 0, 152, 66, 3, 0, 0, 0, 0, 0, 24, 70, 3,
    0, 0, 0, 0, 0, 47, 183, 207, 129, 245, 230, 191, 100, 208, 70, 226, 32, 249, 209, 1, 146,
];

/// The same artifact's header under format version 3 (the last commit that wrote the
/// per-node `GT.*` topology sections): 28 sections, table at 128 856 of 129 752 bytes.
const V3_HEADER: [u8; 48] = [
    82, 78, 75, 78, 73, 68, 88, 0, 3, 0, 0, 0, 28, 0, 0, 0, 88, 247, 1, 0, 0, 0, 0, 0, 216, 250, 1,
    0, 0, 0, 0, 0, 200, 98, 208, 171, 225, 189, 190, 93, 200, 100, 79, 136, 87, 202, 91, 14,
];

/// The same artifact's header under format version 4 (the last commit without the
/// `GT.CMIN` child-minimum table): 16 sections, table at 121 056 of 121 568 bytes.
const V4_HEADER: [u8; 48] = [
    82, 78, 75, 78, 73, 68, 88, 0, 4, 0, 0, 0, 16, 0, 0, 0, 224, 216, 1, 0, 0, 0, 0, 0, 224, 218,
    1, 0, 0, 0, 0, 0, 51, 104, 174, 219, 233, 40, 101, 59, 212, 239, 146, 192, 176, 144, 20, 57,
];

/// The same artifact's header under format version 5 (the last commit whose
/// `CH.META` and `GT.META` carried config fingerprints): 17 sections, table at
/// 123 808 of 124 352 bytes.
const V5_HEADER: [u8; 48] = [
    82, 78, 75, 78, 73, 68, 88, 0, 5, 0, 0, 0, 17, 0, 0, 0, 160, 227, 1, 0, 0, 0, 0, 0, 192, 229,
    1, 0, 0, 0, 0, 0, 80, 11, 219, 170, 80, 83, 90, 27, 33, 207, 122, 47, 155, 243, 99, 143,
];

/// The same artifact's header under format version 6 (the last commit whose section
/// checksum was the 8-lane, 64-byte-block hash): 17 sections, table at 123 784 of
/// 124 328 bytes.
const V6_HEADER: [u8; 48] = [
    82, 78, 75, 78, 73, 68, 88, 0, 6, 0, 0, 0, 17, 0, 0, 0, 136, 227, 1, 0, 0, 0, 0, 0, 168, 229,
    1, 0, 0, 0, 0, 0, 11, 106, 61, 105, 86, 205, 245, 13, 33, 136, 193, 89, 134, 8, 181, 133,
];

/// The version gate must refuse a real older header by name before any section (or
/// even the header's own length fields) is interpreted — alone, and in front of a
/// current body.
fn assert_refused_by_the_version_gate(header: [u8; 48], version: u32) {
    let supported = rnknn::persist_format::FORMAT_VERSION;
    assert_eq!(supported, 7, "a format bump re-derives these fixtures' expectations");
    let mut grafted = header.to_vec();
    grafted.extend_from_slice(&saved_engine_bytes()[header.len()..]);
    for (what, bytes) in [("bare header", header.to_vec()), ("grafted body", grafted)] {
        match Engine::load_indexes_from_vec(bytes, &battery_config()) {
            Err(PersistError::UnsupportedVersion { found, supported: named }) => {
                assert_eq!((found, named), (version, supported), "{what}")
            }
            Err(other) => panic!("{what}: expected UnsupportedVersion, got {other}"),
            Ok(_) => panic!("{what}: a version-{version} artifact loaded"),
        }
    }
}

/// A version-2 artifact holds 8-byte cells and a five-word `GT.META` config.
#[test]
fn a_real_version_2_header_fails_the_version_gate() {
    assert_refused_by_the_version_gate(V2_HEADER, 2);
}

/// A version-3 artifact holds the tree as fifteen per-node `GT.*` sections and no
/// `HI.*` family.
#[test]
fn a_real_version_3_header_fails_the_version_gate() {
    assert_refused_by_the_version_gate(V3_HEADER, 3);
}

/// A version-4 artifact has no child-minimum table.
#[test]
fn a_real_version_4_header_fails_the_version_gate() {
    assert_refused_by_the_version_gate(V4_HEADER, 4);
}

/// A version-5 artifact stores config fingerprints in `CH.META` and `GT.META`.
#[test]
fn a_real_version_5_header_fails_the_version_gate() {
    assert_refused_by_the_version_gate(V5_HEADER, 5);
}

/// A version-6 artifact's checksums are the 8-lane hash over 64-byte blocks.
#[test]
fn a_real_version_6_header_fails_the_version_gate() {
    assert_refused_by_the_version_gate(V6_HEADER, 6);
}

/// The artifact re-written section by section, section `target` replaced by
/// `rewrite` of it: every checksum is the writer's own, so only the loader's
/// validation can object.
fn with_section(bytes: &[u8], target: Tag, rewrite: impl Fn(&[u8]) -> Vec<u8>) -> Vec<u8> {
    use rnknn::persist_format::{Artifact, ArtifactWriter};
    let artifact = Artifact::from_vec(bytes.to_vec()).expect("pristine artifact");
    let mut writer = ArtifactWriter::new(std::io::Cursor::new(Vec::new())).expect("writer");
    for tag in artifact.tags() {
        let data = artifact.section_bytes(tag).expect("listed section");
        writer.begin_section(tag).expect("begin");
        if tag == target {
            writer.write_bytes(&rewrite(data)).expect("write");
        } else {
            writer.write_bytes(data).expect("write");
        }
        writer.end_section().expect("end");
    }
    writer.finish().expect("finish").into_inner()
}

/// A child-minimum table one cell short, one cell long, or emptied is refused by
/// name, however well its checksums vouch for it.
#[test]
fn a_resized_child_minimum_table_is_refused_typed() {
    let bytes = saved_engine_bytes();
    let config = battery_config();
    // Re-writing unchanged sections reproduces the artifact exactly.
    assert_eq!(with_section(&bytes, TAG_CHILD_MIN, |t| t.to_vec()), bytes);
    for what in ["truncated", "extended", "emptied"] {
        let resized = with_section(&bytes, TAG_CHILD_MIN, |t| match what {
            "truncated" => t[..t.len() - 4].to_vec(),
            "extended" => [t, &[0; 4]].concat(),
            _ => Vec::new(),
        });
        match Engine::load_indexes_from_vec(resized, &config) {
            Err(PersistError::Corrupt { section, .. }) => assert_eq!(section, "GT.CMIN", "{what}"),
            Err(other) => panic!("{what}: expected Corrupt GT.CMIN, got {other}"),
            Ok(_) => panic!("{what}: a resized child-minimum table loaded"),
        }
    }
}

/// A G-tree whose `GT.META` records unrefined matrices (which a build could once
/// ask for, and whose answers were wrong) is refused by name, before its shape is
/// checked.
#[test]
fn an_unrefined_gtree_is_refused_typed() {
    let bytes = saved_engine_bytes();
    // `GT.META` words: fanout, leaf capacity, refined (1), nodes, vertices.
    let unrefined = with_section(&bytes, TAG_META, |meta| {
        assert_eq!(u64_at(meta, 16), 1, "the refinement word of a built tree");
        [&meta[..16], &0u64.to_le_bytes(), &meta[24..]].concat()
    });
    match Engine::load_indexes_from_vec(unrefined, &battery_config()) {
        Err(PersistError::Corrupt { section, detail }) => {
            assert_eq!(section, "GT.META");
            assert!(detail.contains("refined"), "{detail}");
        }
        Err(other) => panic!("expected Corrupt GT.META, got {other}"),
        Ok(_) => panic!("an unrefined G-tree loaded"),
    }
}

/// `GT.META`'s fanout and leaf-capacity words must describe the tree the `HI.*`
/// sections hold: either word forged below its floor or below what the tree needs
/// is refused by name, however well its checksums vouch for it.
#[test]
fn forged_shape_words_are_refused_typed() {
    let bytes = saved_engine_bytes();
    let config = battery_config();
    let engine = Engine::load_indexes_from_vec(bytes.clone(), &config).expect("load");
    let h = engine.gtree().expect("a G-tree").hierarchy();
    let parts = 0..h.num_parts() as u32;
    let widest = parts.clone().map(|i| h.children(i).len() as u64).max().unwrap();
    let largest = parts.filter(|&i| h.is_leaf(i)).map(|i| u64::from(h.num_vertices(i))).max();
    // `GT.META` words: fanout, leaf capacity, refined, nodes, vertices.
    let (fanout, leaf_capacity) = (0, 1);
    for (word, lie) in [
        (fanout, 0),
        (fanout, 1),
        (fanout, widest - 1),
        (leaf_capacity, 0),
        (leaf_capacity, largest.unwrap() - 1),
    ] {
        let forged = with_section(&bytes, TAG_META, |meta| {
            [&meta[..8 * word], &lie.to_le_bytes(), &meta[8 * word + 8..]].concat()
        });
        match Engine::load_indexes_from_vec(forged, &config) {
            Err(PersistError::Corrupt { section, .. }) => {
                assert_eq!(section, "GT.META", "word {word} forged to {lie}")
            }
            Err(other) => panic!("word {word} forged to {lie}: expected Corrupt, got {other}"),
            Ok(_) => panic!("word {word} forged to {lie}: the lie loaded"),
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
