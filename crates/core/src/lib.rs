//! rnknn — k-nearest-neighbor query processing on road networks.
//!
//! This crate is the public face of the workspace reproducing *"k-Nearest Neighbors on
//! Road Networks: A Journey in Experimentation and In-Memory Implementation"*
//! (Abeywickrama, Cheema, Taniar; PVLDB 2016). It implements the five kNN methods the
//! paper compares, on top of the substrate crates:
//!
//! | method | module | road-network index | object index |
//! |--------|--------|--------------------|--------------|
//! | INE    | [`ine`] | the graph itself | object bitmap |
//! | IER    | [`ier`] | any [`ier::DistanceOracle`] (Dijkstra, A*, CH, PHL, TNR, MGtree) | R-tree |
//! | DisBrw | [`disbrw`] | SILC | R-tree (DB-ENN) or object hierarchy |
//! | ROAD   | re-exported [`rnknn_road`] | Rnet hierarchy + Route Overlay | Association Directory |
//! | G-tree | re-exported [`rnknn_gtree`] | partition tree + distance matrices | Occurrence List |
//!
//! [`engine::Engine`] bundles everything behind a single facade: build the indexes
//! once, swap object sets freely (decoupled indexing), and answer kNN queries with any
//! method through the fallible [`Engine::query`] API. A query dispatches by one
//! `match` on its [`Method`] ([`methods`]) and returns a [`QueryOutput`]
//! carrying the result list plus unified per-query [`QueryStats`] (the counters behind
//! the paper's figures). The engine is [`Sync`], and [`Engine::knn_batch`] fans a
//! query workload across threads.
//!
//! Queries run on a per-thread [`scratch::EngineScratch`] pool: heaps, epoch-tagged
//! distance arrays, materialization stores and oracle search spaces are reused across
//! queries, so the steady-state serving path ([`Engine::execute`], the one body every
//! entry point forwards to) performs zero heap allocations for the pooled methods —
//! see [`scratch`] for the reuse contract.
//!
//! Object sets need not be swapped wholesale: [`live::ObjectIndexes`] maintains every
//! method's object index **incrementally** under insert/remove/move updates
//! ([`Engine::update_objects`] in place, or [`Engine::apply_object_update`] on
//! caller-owned epoch snapshots served through [`QueryRequest::with_objects`]) — the
//! substrate of the `rnknn-serve` live-traffic layer.
//!
//! ```
//! use rnknn::{Engine, EngineConfig, EngineError, Method};
//! use rnknn_graph::{generator::GeneratorConfig, EdgeWeightKind, generator::RoadNetwork};
//! use rnknn_objects::uniform;
//!
//! let network = RoadNetwork::generate(&GeneratorConfig::new(2_000, 7));
//! let graph = network.graph(EdgeWeightKind::Distance);
//! let objects = uniform(&graph, 0.01, 1);
//! let mut engine = Engine::build(graph, &EngineConfig::default());
//!
//! // Querying before objects are injected is an error, not a panic.
//! assert_eq!(engine.query(Method::Gtree, 17, 5).unwrap_err(), EngineError::NoObjects);
//!
//! engine.set_objects(objects);
//! let output = engine.query(Method::Gtree, 17, 5).unwrap();
//! assert_eq!(output.result, engine.query(Method::Ine, 17, 5).unwrap().result);
//! assert!(output.stats.nodes_expanded > 0); // unified per-query counters
//!
//! // The same workload, fanned across threads over the shared engine.
//! let n = engine.graph().num_vertices() as u32;
//! let queries: Vec<u32> = (0..64).map(|i| i * 31 % n).collect();
//! let batch = engine.knn_batch(Method::Gtree, &queries, 5).unwrap();
//! assert_eq!(batch.len(), queries.len());
//! assert_eq!(batch[0].result, engine.query(Method::Gtree, queries[0], 5).unwrap().result);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod disbrw;
pub mod engine;
pub mod error;
pub mod ier;
pub mod ine;
pub mod live;
pub mod methods;
pub mod persist;
pub mod query;
pub mod scratch;
pub mod verify;

pub use engine::{BuildTimes, Engine, EngineConfig, Method, QueryRequest};
pub use error::EngineError;
pub use live::ObjectIndexes;
pub use query::{IndexKind, QueryOutput, QueryStats};
pub use rnknn_pathfinding::{QueryBudget, UNLIMITED};
pub use rnknn_persist::PersistError;
pub use scratch::EngineScratch;

// Re-export the substrate crates so downstream users need a single dependency.
pub use rnknn_ch as ch;
pub use rnknn_graph as graph;
pub use rnknn_gtree as gtree;
pub use rnknn_objects as objects;
pub use rnknn_partition as partition;
pub use rnknn_pathfinding as pathfinding;
pub use rnknn_persist as persist_format;
pub use rnknn_phl as phl;
pub use rnknn_road as road;
pub use rnknn_silc as silc;
pub use rnknn_spatial as spatial;
pub use rnknn_tnr as tnr;

/// A kNN result: object vertices with their network distances, in non-decreasing
/// distance order.
pub type KnnResult = Vec<(rnknn_graph::NodeId, rnknn_graph::Weight)>;
