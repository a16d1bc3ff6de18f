//! The repo's benchmark: the kNN engine and its serving front measured end to
//! end and layer by layer, **from outside** — by timing calls into each
//! crate's public functions and reading the public `QueryStats`, `FrontStats`,
//! `BuildTimes` and `memory_bytes()`. See `README.md` for the metric glossary
//! and `../BENCHMARK.json` for the gated names and bounds.

#![forbid(unsafe_code)]

pub mod compare;
pub mod embed;
pub mod estimators;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod run;
pub mod schema;
pub mod serve;
pub mod trace;
