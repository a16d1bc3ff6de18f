//! The typed error surface of artifact loading.
//!
//! Every way an artifact can be unusable — I/O failure, wrong file, newer
//! format, truncation, bit rot, structural lies, mismatched build config —
//! maps to one variant with an actionable message. Loading never panics and
//! never hands out partially-validated data.

use std::fmt;

/// Why an artifact could not be saved or loaded.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying I/O operation failed.
    Io {
        /// What the operation was doing (e.g. `"writing artifact"`).
        context: &'static str,
        /// The OS error.
        source: std::io::Error,
    },
    /// The file does not start with the rnknn artifact magic.
    BadMagic {
        /// The first 8 bytes actually found.
        found: [u8; 8],
    },
    /// The artifact was written by an incompatible format version.
    UnsupportedVersion {
        /// Version stored in the artifact.
        found: u32,
        /// The single version this build reads ([`crate::FORMAT_VERSION`]).
        supported: u32,
    },
    /// The file is shorter than a declared structure requires.
    Truncated {
        /// Which structure could not be read.
        what: String,
        /// Bytes required.
        needed: u64,
        /// Bytes available.
        available: u64,
    },
    /// A stored checksum does not match the bytes on disk.
    ChecksumMismatch {
        /// The section (or `"header"` / `"section table"`).
        section: String,
        /// Checksum recorded in the artifact.
        stored: u64,
        /// Checksum computed over the bytes.
        computed: u64,
    },
    /// A section this load requires is not present in the artifact.
    MissingSection {
        /// The missing section's tag.
        section: String,
    },
    /// A section's contents fail structural validation (bounds, monotonicity,
    /// cross-section consistency) even though its checksum matched.
    Corrupt {
        /// The offending section.
        section: String,
        /// What exactly is inconsistent.
        detail: String,
    },
    /// The artifact was built under a different index configuration than the
    /// caller requested.
    ConfigMismatch {
        /// Which index (`"gtree"`).
        index: &'static str,
        /// Which build parameter differs (e.g. `"leaf_capacity"`).
        field: &'static str,
        /// The parameter's value in the artifact.
        stored: u64,
        /// The parameter's value the caller requested.
        expected: u64,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { context, source } => {
                write!(f, "I/O error while {context}: {source}")
            }
            PersistError::BadMagic { found } => write!(
                f,
                "not an rnknn index artifact (file starts with {found:02x?}, expected {:02x?}) \
                 — is this the right file?",
                crate::MAGIC
            ),
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "artifact format version {found} is not readable by this build (which supports \
                 version {supported}); re-save the artifact with this binary or use a matching one"
            ),
            PersistError::Truncated { what, needed, available } => write!(
                f,
                "artifact truncated while reading {what}: need {needed} bytes, have {available} \
                 — the file was cut short; regenerate it with --save"
            ),
            PersistError::ChecksumMismatch { section, stored, computed } => write!(
                f,
                "checksum mismatch in `{section}` (stored {stored:#018x}, computed \
                 {computed:#018x}) — the artifact is corrupt; regenerate it with --save"
            ),
            PersistError::MissingSection { section } => write!(
                f,
                "artifact has no `{section}` section — it was saved without this index; \
                 re-save from an engine that built it"
            ),
            PersistError::Corrupt { section, detail } => write!(
                f,
                "structural validation failed in `{section}`: {detail} — refusing to serve \
                 queries from this artifact; regenerate it with --save"
            ),
            PersistError::ConfigMismatch { index, field, stored, expected } => write!(
                f,
                "{index} `{field}`: artifact {stored}, requested {expected} — rebuild the \
                 artifact under the requested config or request the artifact's"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl PersistError {
    /// Convenience constructor for [`PersistError::Corrupt`].
    pub fn corrupt(section: impl Into<String>, detail: impl Into<String>) -> PersistError {
        PersistError::Corrupt { section: section.into(), detail: detail.into() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_actionable() {
        let e = PersistError::UnsupportedVersion { found: 9, supported: 1 };
        assert!(e.to_string().contains("version 9"));
        assert!(e.to_string().contains("re-save"));
        let e =
            PersistError::ChecksumMismatch { section: "CH.RANK".into(), stored: 1, computed: 2 };
        assert!(e.to_string().contains("CH.RANK"));
        assert!(e.to_string().contains("corrupt"));
        let e = PersistError::ConfigMismatch {
            index: "gtree",
            field: "leaf_capacity",
            stored: 32,
            expected: 64,
        };
        assert!(e.to_string().contains("gtree `leaf_capacity`: artifact 32, requested 64"));
        let io = PersistError::Io {
            context: "reading artifact",
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        };
        assert!(std::error::Error::source(&io).is_some());
    }
}
