//! The artifact container format: header, tagged sections, section table.
//!
//! ```text
//! offset 0                                            48
//! ┌──────────────────────────────────────────────────┬──────────────┬─────┬──────────────┬───────────────┐
//! │ header (48 B)                                    │ section 0    │ ... │ section N-1  │ section table │
//! │  magic[8] ver:u32 count:u32 table_off:u64        │ (8-aligned,  │     │              │ (N × 32 B)    │
//! │  file_len:u64 table_ck:u64 header_ck:u64         │  zero-padded │     │              │               │
//! └──────────────────────────────────────────────────┴──────────────┴─────┴──────────────┴───────────────┘
//! table entry: tag[8] offset:u64 len:u64 checksum:u64
//! ```
//!
//! Coverage invariant: **every byte of the file is covered by exactly one
//! checksum.** `header_ck` covers bytes `0..40` (so it covers `table_ck`
//! too); each section checksum covers the section's data *plus its zero pad
//! up to the next 8-byte boundary*; the table checksum covers the table
//! bytes. A flip of any stored checksum field is itself detected (section /
//! table checksums live under the table / header checksums; a flipped
//! `header_ck` no longer matches the recomputed one). Hence any single-bit
//! corruption anywhere in an artifact is caught before data is handed out —
//! the property the corruption-fuzz battery asserts exhaustively.
//!
//! Versioning policy: `FORMAT_VERSION` is a hard gate — there is no
//! cross-version migration; a version bump means "regenerate your artifacts"
//! (they are derived data, rebuilt from the graph in under a minute). Build
//! parameters are checked above this layer, by value, by the index crate
//! that stores them ([`crate::PersistError::ConfigMismatch`]).

use crate::buffer::Bytes;
use crate::error::PersistError;
use crate::hash::{checksum, Checksummer};
use crate::view::{pod_bytes, Pod, SharedSlice};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// First 8 bytes of every artifact.
pub const MAGIC: [u8; 8] = *b"RNKNIDX\0";
/// The single format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 7;
/// Header size in bytes.
pub const HEADER_LEN: usize = 48;
/// Section-table entry size in bytes.
pub const TABLE_ENTRY_LEN: usize = 32;
/// Upper bound on section count (structural sanity; real artifacts have ~30).
pub const MAX_SECTIONS: u32 = 4096;

/// An 8-byte section tag, e.g. `Tag::new(b"CH.RANK\0")`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(pub [u8; 8]);

impl Tag {
    /// A tag from its 8-byte name (pad with `\0`).
    pub const fn new(bytes: &[u8; 8]) -> Tag {
        Tag(*bytes)
    }
}

impl std::fmt::Display for Tag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let end = self.0.iter().position(|&b| b == 0).unwrap_or(8);
        for &b in &self.0[..end] {
            if b.is_ascii_graphic() {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for Tag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tag({self})")
    }
}

#[derive(Clone, Copy)]
struct TableEntry {
    tag: Tag,
    offset: u64,
    len: u64,
    checksum: u64,
}

struct OpenSection {
    tag: Tag,
    offset: u64,
    hasher: Checksummer,
}

fn io_err(context: &'static str) -> impl FnOnce(std::io::Error) -> PersistError {
    move |source| PersistError::Io { context, source }
}

/// Streams an artifact into any `Write + Seek` sink.
///
/// Usage: `new` → (`begin_section` → `write_*`... → `end_section`)* →
/// `finish`. Misuse (nested or duplicate sections, finishing with a section
/// open) panics: those are writer bugs, not data-dependent conditions.
pub struct ArtifactWriter<W: Write + Seek> {
    sink: W,
    pos: u64,
    entries: Vec<TableEntry>,
    open: Option<OpenSection>,
}

impl<W: Write + Seek> ArtifactWriter<W> {
    /// Starts an artifact: reserves the header (rewritten by `finish`).
    pub fn new(mut sink: W) -> Result<ArtifactWriter<W>, PersistError> {
        sink.write_all(&[0u8; HEADER_LEN]).map_err(io_err("writing artifact header"))?;
        Ok(ArtifactWriter { sink, pos: HEADER_LEN as u64, entries: Vec::new(), open: None })
    }

    /// Opens a new section. Sections start on an 8-byte boundary.
    pub fn begin_section(&mut self, tag: Tag) -> Result<(), PersistError> {
        assert!(self.open.is_none(), "begin_section(`{tag}`) while a section is open");
        assert!(self.entries.iter().all(|e| e.tag != tag), "duplicate section tag `{tag}`");
        debug_assert_eq!(self.pos % 8, 0, "sections always start 8-aligned");
        self.open = Some(OpenSection { tag, offset: self.pos, hasher: Checksummer::new() });
        Ok(())
    }

    /// Appends raw bytes to the open section.
    pub fn write_bytes(&mut self, data: &[u8]) -> Result<(), PersistError> {
        let open = self.open.as_mut().expect("write outside a section");
        open.hasher.update(data);
        self.sink.write_all(data).map_err(io_err("writing artifact section"))?;
        self.pos += data.len() as u64;
        Ok(())
    }

    /// Appends a `u32` slice (little-endian image).
    pub fn write_u32s(&mut self, data: &[u32]) -> Result<(), PersistError> {
        let bytes = pod_bytes(data);
        let open = self.open.as_mut().expect("write outside a section");
        open.hasher.update(bytes);
        self.sink.write_all(bytes).map_err(io_err("writing artifact section"))?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    /// Appends a `u64` slice (little-endian image).
    pub fn write_u64s(&mut self, data: &[u64]) -> Result<(), PersistError> {
        let bytes = pod_bytes(data);
        let open = self.open.as_mut().expect("write outside a section");
        open.hasher.update(bytes);
        self.sink.write_all(bytes).map_err(io_err("writing artifact section"))?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    /// Appends one `u64` scalar.
    pub fn write_u64(&mut self, v: u64) -> Result<(), PersistError> {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Closes the open section: records its entry and zero-pads to the next
    /// 8-byte boundary. The pad bytes are **included in the checksum** (every
    /// file byte is covered by some checksum) but not in the recorded length.
    pub fn end_section(&mut self) -> Result<(), PersistError> {
        let mut open = self.open.take().expect("end_section without begin_section");
        let len = self.pos - open.offset;
        let pad = (8 - (self.pos % 8) as usize) % 8;
        if pad > 0 {
            let zeros = [0u8; 8];
            open.hasher.update(&zeros[..pad]);
            self.sink.write_all(&zeros[..pad]).map_err(io_err("padding artifact section"))?;
            self.pos += pad as u64;
        }
        self.entries.push(TableEntry {
            tag: open.tag,
            offset: open.offset,
            len,
            checksum: open.hasher.finish(),
        });
        Ok(())
    }

    /// Writes the section table, rewrites the header, flushes, and returns
    /// the sink.
    pub fn finish(mut self) -> Result<W, PersistError> {
        assert!(self.open.is_none(), "finish with a section still open");
        debug_assert_eq!(self.pos % 8, 0);
        let table_offset = self.pos;
        let mut table = Vec::with_capacity(self.entries.len() * TABLE_ENTRY_LEN);
        for e in &self.entries {
            table.extend_from_slice(&e.tag.0);
            table.extend_from_slice(&e.offset.to_le_bytes());
            table.extend_from_slice(&e.len.to_le_bytes());
            table.extend_from_slice(&e.checksum.to_le_bytes());
        }
        self.sink.write_all(&table).map_err(io_err("writing artifact section table"))?;
        let file_len = table_offset + table.len() as u64;
        let table_checksum = checksum(&table);

        let mut header = [0u8; HEADER_LEN];
        header[0..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&(self.entries.len() as u32).to_le_bytes());
        header[16..24].copy_from_slice(&table_offset.to_le_bytes());
        header[24..32].copy_from_slice(&file_len.to_le_bytes());
        header[32..40].copy_from_slice(&table_checksum.to_le_bytes());
        let header_checksum = checksum(&header[0..40]);
        header[40..48].copy_from_slice(&header_checksum.to_le_bytes());

        self.sink.seek(SeekFrom::Start(0)).map_err(io_err("rewriting artifact header"))?;
        self.sink.write_all(&header).map_err(io_err("rewriting artifact header"))?;
        self.sink.flush().map_err(io_err("flushing artifact"))?;
        Ok(self.sink)
    }
}

/// A fully validated, loaded artifact.
///
/// Construction runs the whole validation ladder — magic, version, header
/// checksum, declared length, table bounds, table checksum, per-section
/// bounds/alignment/checksums — so every accessor afterwards can hand out
/// views without re-checking integrity (structural validation of section
/// *contents* is the loading index's job).
pub struct Artifact {
    buf: Arc<Bytes>,
    entries: Vec<TableEntry>,
}

impl Artifact {
    /// Opens and validates an artifact file (mmap-backed when available).
    pub fn open(path: &Path) -> Result<Artifact, PersistError> {
        Self::from_bytes(Bytes::open(path)?)
    }

    /// Validates an in-memory artifact image (the Miri-exercised path).
    pub fn from_vec(data: Vec<u8>) -> Result<Artifact, PersistError> {
        Self::from_bytes(Bytes::from_vec(data))
    }

    /// Validates an artifact over any [`Bytes`] provider.
    pub fn from_bytes(bytes: Bytes) -> Result<Artifact, PersistError> {
        let buf = Arc::new(bytes);
        let data = buf.as_slice();
        if data.len() < HEADER_LEN {
            return Err(PersistError::Truncated {
                what: "header".into(),
                needed: HEADER_LEN as u64,
                available: data.len() as u64,
            });
        }
        let magic: [u8; 8] = data[0..8].try_into().unwrap();
        if magic != MAGIC {
            return Err(PersistError::BadMagic { found: magic });
        }
        let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let stored_header_ck = u64::from_le_bytes(data[40..48].try_into().unwrap());
        let computed_header_ck = checksum(&data[0..40]);
        if stored_header_ck != computed_header_ck {
            return Err(PersistError::ChecksumMismatch {
                section: "header".into(),
                stored: stored_header_ck,
                computed: computed_header_ck,
            });
        }
        let section_count = u32::from_le_bytes(data[12..16].try_into().unwrap());
        let table_offset = u64::from_le_bytes(data[16..24].try_into().unwrap());
        let file_len = u64::from_le_bytes(data[24..32].try_into().unwrap());
        let stored_table_ck = u64::from_le_bytes(data[32..40].try_into().unwrap());

        let actual_len = data.len() as u64;
        if file_len > actual_len {
            return Err(PersistError::Truncated {
                what: "file body".into(),
                needed: file_len,
                available: actual_len,
            });
        }
        if file_len < actual_len {
            return Err(PersistError::corrupt(
                "header",
                format!(
                    "file is {actual_len} bytes but the header declares {file_len} \
                     ({} trailing bytes)",
                    actual_len - file_len
                ),
            ));
        }
        if section_count > MAX_SECTIONS {
            return Err(PersistError::corrupt(
                "header",
                format!("section count {section_count} exceeds the maximum {MAX_SECTIONS}"),
            ));
        }
        let table_len = u64::from(section_count) * TABLE_ENTRY_LEN as u64;
        let table_end = table_offset.checked_add(table_len).ok_or_else(|| {
            PersistError::corrupt("header", "section table offset overflows".to_string())
        })?;
        if table_offset < HEADER_LEN as u64 || table_offset % 8 != 0 || table_end != file_len {
            return Err(PersistError::corrupt(
                "section table",
                format!(
                    "table at {table_offset}..{table_end} does not sit flush at the end of a \
                     {file_len}-byte file"
                ),
            ));
        }
        let table = &data[table_offset as usize..table_end as usize];
        let computed_table_ck = checksum(table);
        if stored_table_ck != computed_table_ck {
            return Err(PersistError::ChecksumMismatch {
                section: "section table".into(),
                stored: stored_table_ck,
                computed: computed_table_ck,
            });
        }

        let mut entries = Vec::with_capacity(section_count as usize);
        let mut prev_end = HEADER_LEN as u64;
        for i in 0..section_count as usize {
            let e = &table[i * TABLE_ENTRY_LEN..(i + 1) * TABLE_ENTRY_LEN];
            let tag = Tag(e[0..8].try_into().unwrap());
            let offset = u64::from_le_bytes(e[8..16].try_into().unwrap());
            let len = u64::from_le_bytes(e[16..24].try_into().unwrap());
            let stored_ck = u64::from_le_bytes(e[24..32].try_into().unwrap());
            if entries.iter().any(|prev: &TableEntry| prev.tag == tag) {
                return Err(PersistError::corrupt(
                    "section table",
                    format!("duplicate section tag `{tag}`"),
                ));
            }
            let end = offset.checked_add(len).ok_or_else(|| {
                PersistError::corrupt("section table", format!("section `{tag}` length overflows"))
            })?;
            // Sections were written back-to-back and 8-padded; anything else
            // (overlap, gap, reaching into header or table) is a lie.
            if offset != prev_end {
                return Err(PersistError::corrupt(
                    "section table",
                    format!(
                        "section `{tag}` claims offset {offset}, expected {prev_end} \
                         (sections must be contiguous)"
                    ),
                ));
            }
            let padded_end = end
                .checked_add((8 - end % 8) % 8)
                .filter(|&pe| pe <= table_offset)
                .ok_or_else(|| {
                    PersistError::corrupt(
                        "section table",
                        format!("section `{tag}` ({offset}..{end}) exceeds the data region"),
                    )
                })?;
            let covered = &data[offset as usize..padded_end as usize];
            let computed_ck = checksum(covered);
            if computed_ck != stored_ck {
                return Err(PersistError::ChecksumMismatch {
                    section: tag.to_string(),
                    stored: stored_ck,
                    computed: computed_ck,
                });
            }
            entries.push(TableEntry { tag, offset, len, checksum: stored_ck });
            prev_end = padded_end;
        }
        if prev_end != table_offset {
            return Err(PersistError::corrupt(
                "section table",
                format!(
                    "sections end at {prev_end} but the table starts at {table_offset} \
                     (unaccounted bytes)"
                ),
            ));
        }
        Ok(Artifact { buf, entries })
    }

    fn entry(&self, tag: Tag) -> Result<&TableEntry, PersistError> {
        self.entries
            .iter()
            .find(|e| e.tag == tag)
            .ok_or_else(|| PersistError::MissingSection { section: tag.to_string() })
    }

    /// Whether a section with this tag exists.
    pub fn has(&self, tag: Tag) -> bool {
        self.entries.iter().any(|e| e.tag == tag)
    }

    /// The tags present, in file order.
    pub fn tags(&self) -> impl Iterator<Item = Tag> + '_ {
        self.entries.iter().map(|e| e.tag)
    }

    /// Whether the backing buffer is an mmap (false: owned memory).
    pub fn is_mapped(&self) -> bool {
        self.buf.is_mapped()
    }

    /// A section's raw bytes.
    pub fn section_bytes(&self, tag: Tag) -> Result<&[u8], PersistError> {
        let e = self.entry(tag)?;
        Ok(&self.buf.as_slice()[e.offset as usize..(e.offset + e.len) as usize])
    }

    /// A zero-copy typed view of a whole section.
    pub fn view<T: Pod>(&self, tag: Tag) -> Result<SharedSlice<T>, PersistError> {
        let e = self.entry(tag)?;
        let size = std::mem::size_of::<T>() as u64;
        if e.len % size != 0 {
            return Err(PersistError::corrupt(
                tag.to_string(),
                format!(
                    "section length {} is not a multiple of the {size}-byte element size",
                    e.len
                ),
            ));
        }
        SharedSlice::new(Arc::clone(&self.buf), e.offset as usize, (e.len / size) as usize)
            .ok_or_else(|| {
                PersistError::corrupt(tag.to_string(), "section view out of bounds or misaligned")
            })
    }

    /// A zero-copy `u32` view of a section.
    pub fn u32s(&self, tag: Tag) -> Result<SharedSlice<u32>, PersistError> {
        self.view::<u32>(tag)
    }

    /// A zero-copy `u64` view of a section.
    pub fn u64s(&self, tag: Tag) -> Result<SharedSlice<u64>, PersistError> {
        self.view::<u64>(tag)
    }

    /// A cursor over a scalar metadata section (a sequence of `u64` words).
    pub fn meta(&self, tag: Tag) -> Result<MetaReader<'_>, PersistError> {
        let bytes = self.section_bytes(tag)?;
        Ok(MetaReader { section: tag.to_string(), bytes, pos: 0 })
    }
}

impl std::fmt::Debug for Artifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Artifact")
            .field("len", &self.buf.len())
            .field("mapped", &self.buf.is_mapped())
            .field("sections", &self.entries.iter().map(|e| e.tag).collect::<Vec<_>>())
            .finish()
    }
}

/// Sequential reader over a metadata section of `u64` words.
///
/// Each scalar config/topology field is stored as one little-endian `u64`
/// word (`f64` via its bit pattern, `bool` as 0/1 — anything else is reported
/// as corruption). [`MetaReader::finish`] asserts full consumption, so an
/// artifact with extra or missing fields is rejected rather than misread.
pub struct MetaReader<'a> {
    section: String,
    bytes: &'a [u8],
    pos: usize,
}

impl MetaReader<'_> {
    /// Reads the next `u64` word.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        let end = self.pos + 8;
        if end > self.bytes.len() {
            return Err(PersistError::corrupt(
                self.section.clone(),
                format!(
                    "meta section exhausted at byte {} of {} (missing fields)",
                    self.pos,
                    self.bytes.len()
                ),
            ));
        }
        let v = u64::from_le_bytes(self.bytes[self.pos..end].try_into().unwrap());
        self.pos = end;
        Ok(v)
    }

    /// Reads a `u32` stored as a word; range-checked.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| {
            PersistError::corrupt(self.section.clone(), format!("value {v} exceeds u32 range"))
        })
    }

    /// Reads a `usize` stored as a word; range-checked.
    pub fn usize(&mut self) -> Result<usize, PersistError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| {
            PersistError::corrupt(self.section.clone(), format!("value {v} exceeds usize range"))
        })
    }

    /// Reads an `i64` stored as a word (two's-complement bit pattern).
    pub fn i64(&mut self) -> Result<i64, PersistError> {
        Ok(self.u64()? as i64)
    }

    /// Reads an `f64` stored as its bit pattern.
    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool` stored as 0/1; anything else is corruption.
    pub fn bool(&mut self) -> Result<bool, PersistError> {
        match self.u64()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(PersistError::corrupt(
                self.section.clone(),
                format!("value {v} is not a valid bool (expected 0 or 1)"),
            )),
        }
    }

    /// Asserts the section was fully consumed.
    pub fn finish(self) -> Result<(), PersistError> {
        if self.pos != self.bytes.len() {
            return Err(PersistError::corrupt(
                self.section,
                format!(
                    "{} trailing bytes after the last expected field",
                    self.bytes.len() - self.pos
                ),
            ));
        }
        Ok(())
    }
}

/// Writes scalar metadata words; the mirror of [`MetaReader`].
pub struct MetaWriter {
    words: Vec<u64>,
}

impl Default for MetaWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl MetaWriter {
    /// An empty metadata record.
    pub fn new() -> MetaWriter {
        MetaWriter { words: Vec::new() }
    }

    /// Appends a `u64` word.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.words.push(v);
        self
    }

    /// Appends a `u32` (widened).
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.u64(u64::from(v))
    }

    /// Appends a `usize` (widened).
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Appends an `i64` (bit pattern).
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.u64(v as u64)
    }

    /// Appends an `f64` (bit pattern).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Appends a `bool` (0/1).
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u64(u64::from(v))
    }

    /// The accumulated words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn tag(s: &[u8; 8]) -> Tag {
        Tag::new(s)
    }

    fn sample_artifact() -> Vec<u8> {
        let mut w = ArtifactWriter::new(Cursor::new(Vec::new())).unwrap();
        w.begin_section(tag(b"TEST.A\0\0")).unwrap();
        w.write_u32s(&[1, 2, 3, 4, 5]).unwrap(); // 20 bytes → 4 pad bytes
        w.end_section().unwrap();
        w.begin_section(tag(b"TEST.B\0\0")).unwrap();
        w.write_u64s(&[10, 20, 30]).unwrap();
        w.end_section().unwrap();
        w.begin_section(tag(b"TEST.M\0\0")).unwrap();
        let mut m = MetaWriter::new();
        m.u32(7).f64(2.5).bool(true).i64(-3);
        w.write_u64s(m.words()).unwrap();
        w.end_section().unwrap();
        w.finish().unwrap().into_inner()
    }

    #[test]
    fn round_trip() {
        let data = sample_artifact();
        let art = Artifact::from_vec(data).unwrap();
        assert!(art.has(tag(b"TEST.A\0\0")));
        assert!(!art.has(tag(b"NOPE\0\0\0\0")));
        assert_eq!(&*art.u32s(tag(b"TEST.A\0\0")).unwrap(), &[1, 2, 3, 4, 5]);
        assert_eq!(&*art.u64s(tag(b"TEST.B\0\0")).unwrap(), &[10, 20, 30]);
        let mut m = art.meta(tag(b"TEST.M\0\0")).unwrap();
        assert_eq!(m.u32().unwrap(), 7);
        assert_eq!(m.f64().unwrap(), 2.5);
        assert!(m.bool().unwrap());
        assert_eq!(m.i64().unwrap(), -3);
        m.finish().unwrap();
        assert_eq!(art.tags().count(), 3);
    }

    #[test]
    fn missing_section_is_typed() {
        let art = Artifact::from_vec(sample_artifact()).unwrap();
        match art.u64s(tag(b"NOPE\0\0\0\0")) {
            Err(PersistError::MissingSection { section }) => assert_eq!(section, "NOPE"),
            other => panic!("expected MissingSection, got {other:?}"),
        }
    }

    #[test]
    fn wrong_magic_is_typed() {
        let mut data = sample_artifact();
        data[0] = b'X';
        assert!(matches!(Artifact::from_vec(data).unwrap_err(), PersistError::BadMagic { .. }));
    }

    #[test]
    fn bumped_version_is_typed() {
        // Both a stale artifact (the previous format) and one from the future
        // must hit the version gate — never `Corrupt`, never a misparse.
        for version in [FORMAT_VERSION - 1, FORMAT_VERSION + 1] {
            let mut data = sample_artifact();
            // Patch the version field and fix up the header checksum so the gate
            // (not the checksum) rejects it.
            data[8..12].copy_from_slice(&version.to_le_bytes());
            let ck = checksum(&data[0..40]);
            data[40..48].copy_from_slice(&ck.to_le_bytes());
            match Artifact::from_vec(data).unwrap_err() {
                PersistError::UnsupportedVersion { found, supported } => {
                    assert_eq!(found, version);
                    assert_eq!(supported, FORMAT_VERSION);
                }
                other => panic!("expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let data = sample_artifact();
        let baseline = Artifact::from_vec(data.clone()).unwrap();
        let a_words: Vec<u32> = baseline.u32s(tag(b"TEST.A\0\0")).unwrap().to_vec();
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                let err = Artifact::from_vec(flipped)
                    .expect_err(&format!("flip at byte {byte} bit {bit} must not validate"));
                // Must be a typed validation error, and it must never have
                // handed out data first (from_vec is all-or-nothing).
                match err {
                    PersistError::BadMagic { .. }
                    | PersistError::UnsupportedVersion { .. }
                    | PersistError::ChecksumMismatch { .. }
                    | PersistError::Truncated { .. }
                    | PersistError::Corrupt { .. } => {}
                    other => panic!("unexpected error kind for bit flip: {other:?}"),
                }
            }
        }
        assert_eq!(a_words, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn every_truncation_is_detected() {
        let data = sample_artifact();
        for cut in 0..data.len() {
            let err = Artifact::from_vec(data[..cut].to_vec())
                .expect_err(&format!("truncation to {cut} bytes must not validate"));
            assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. }
                        | PersistError::Corrupt { .. }
                        | PersistError::ChecksumMismatch { .. }
                ),
                "truncation to {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn section_length_lie_is_detected() {
        let data = sample_artifact();
        let table_offset = u64::from_le_bytes(data[16..24].try_into().unwrap()) as usize;
        // Lie about section 0's length (entry bytes 16..24 within the table),
        // then forge the table and header checksums so only the structural
        // check can catch it.
        let mut forged = data.clone();
        let len_at = table_offset + 16;
        forged[len_at..len_at + 8].copy_from_slice(&1_000_000u64.to_le_bytes());
        let table_ck = checksum(&forged[table_offset..]);
        forged[32..40].copy_from_slice(&table_ck.to_le_bytes());
        let header_ck = checksum(&forged[0..40]);
        forged[40..48].copy_from_slice(&header_ck.to_le_bytes());
        assert!(matches!(Artifact::from_vec(forged).unwrap_err(), PersistError::Corrupt { .. }));
    }

    #[test]
    fn empty_artifact_with_no_sections_is_valid() {
        let w = ArtifactWriter::new(Cursor::new(Vec::new())).unwrap();
        let data = w.finish().unwrap().into_inner();
        let art = Artifact::from_vec(data).unwrap();
        assert_eq!(art.tags().count(), 0);
    }

    #[test]
    fn empty_file_is_truncated() {
        assert!(matches!(
            Artifact::from_vec(Vec::new()).unwrap_err(),
            PersistError::Truncated { .. }
        ));
    }

    #[test]
    fn odd_length_sections_round_trip() {
        let mut w = ArtifactWriter::new(Cursor::new(Vec::new())).unwrap();
        w.begin_section(tag(b"RAW\0\0\0\0\0")).unwrap();
        w.write_bytes(&[0xAB; 13]).unwrap();
        w.end_section().unwrap();
        w.begin_section(tag(b"AFTER\0\0\0")).unwrap();
        w.write_u64(42).unwrap();
        w.end_section().unwrap();
        let art = Artifact::from_vec(w.finish().unwrap().into_inner()).unwrap();
        assert_eq!(art.section_bytes(tag(b"RAW\0\0\0\0\0")).unwrap(), &[0xAB; 13]);
        assert_eq!(&*art.u64s(tag(b"AFTER\0\0\0")).unwrap(), &[42]);
        // A 13-byte section is not a whole number of u64s.
        assert!(matches!(
            art.u64s(tag(b"RAW\0\0\0\0\0")).unwrap_err(),
            PersistError::Corrupt { .. }
        ));
    }
}
