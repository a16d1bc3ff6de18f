//! Versioned, checksummed on-disk persistence for the rnknn indexes.
//!
//! A production service cannot pay minutes of CH + G-tree preprocessing per
//! process start; the indexes are flat arrays (rank permutations, shortcut CSR,
//! border-distance matrix arenas) that should load in milliseconds. This crate
//! provides the storage substrate the index crates build their `save`/`load`
//! paths on:
//!
//! * [`format::ArtifactWriter`] — streams tagged, checksummed **sections** into
//!   any `Write + Seek` sink (a file, or an in-memory `Cursor<Vec<u8>>`). The
//!   header carries a magic number, a format-version gate and whole-file
//!   bookkeeping; every section records its own length and checksum.
//! * [`format::Artifact`] — the validated read side. Opening an artifact
//!   verifies the magic, version, declared file length, section-table bounds
//!   and **every** section checksum before any data is handed out; every
//!   failure is a typed [`PersistError`], never a panic or a silent wrong read.
//! * [`buffer::Bytes`] — the backing storage: a zero-copy `mmap` of the file on
//!   Linux/x86_64 (raw syscalls — no external crates), falling back to an
//!   owned, 8-aligned heap buffer everywhere else **and under Miri**, so the
//!   entire parsing/validation surface is Miri-checkable through the in-memory
//!   path.
//! * [`view::PVec`] / [`view::SharedSlice`] — the safe, lifetime-free view
//!   layer: a `PVec<T>` is either an owned `Vec<T>` (freshly built index) or a
//!   typed window into an `Arc<Bytes>` (loaded index). Index structs store
//!   `PVec`s and deref to slices, so the query hot paths are identical for
//!   built and mapped indexes.
//! * [`hash::Checksummer`] — the 64-lane section checksum, compiled per CPU
//!   tier.
//! * [`simd`] — CPU-tier detection and dispatch: a portable loop body (the
//!   checksum's, and the G-tree min-plus sweep's) run inside a
//!   `#[target_feature]` function for the strongest tier this CPU supports.
//!
//! This crate is the workspace's only permitted `unsafe` site (`cargo xtask
//! lint`); every site carries a `// SAFETY:` contract. See
//! `docs/PERSISTENCE.md` for the format layout and the safety argument.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(missing_docs)]

#[cfg(not(target_endian = "little"))]
compile_error!(
    "rnknn-persist stores artifacts little-endian and reads them zero-copy; \
     big-endian targets are not supported"
);

pub mod buffer;
pub mod error;
pub mod format;
pub mod hash;
pub mod simd;
pub mod view;

pub use buffer::Bytes;
pub use error::PersistError;
pub use format::{Artifact, ArtifactWriter, MetaReader, MetaWriter, Tag, FORMAT_VERSION, MAGIC};
pub use hash::{checksum, Checksummer};
pub use view::{pod_bytes, PVec, Pod, SharedSlice};
