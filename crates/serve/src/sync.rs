//! Synchronization facade: `std::sync` in production, `loom` under models.
//!
//! Everything concurrency-relevant in this crate imports its primitives from
//! here. Compiled normally the module is a zero-cost re-export of `std`;
//! compiled with the `loom-model` feature every `Arc`, lock, condvar and
//! thread comes from the `loom` schedule explorer instead, which serializes
//! the threads of a `loom::model(...)` body and exhaustively explores the
//! interleavings of their synchronization operations. That is what lets
//! `tests/loom_store.rs`, `tests/loom_front.rs` and `tests/loom_channel.rs`
//! model-check the epoch publish protocol, the front-end shutdown
//! handshake and the channels' park/wake protocol:
//!
//! ```text
//! cargo test -p rnknn-serve --features loom-model
//! ```
//!
//! Deliberately **not** routed through the facade: the monitoring counters
//! (`served`, `updates_applied`, round-robin shard pick). They are
//! load/`fetch_add`-only, no control flow reads them back, and instrumenting
//! them would multiply the explored state space for no added coverage.
//! `docs/CORRECTNESS.md` lists this and the other fidelity limits.

#[cfg(feature = "loom-model")]
pub use loom::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
#[cfg(feature = "loom-model")]
pub use loom::thread;

#[cfg(not(feature = "loom-model"))]
pub use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
#[cfg(not(feature = "loom-model"))]
pub use std::thread;
