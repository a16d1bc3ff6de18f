//! Live-traffic serving layer for road-network kNN.
//!
//! The paper's experiments (Section 7) rebuild every object index per object set —
//! fine for benchmarking decoupled construction, wrong for a live service where
//! taxis appear, vanish and relocate continuously while queries stream in. This
//! crate is that serving layer, in two pieces:
//!
//! * [`ObjectStore`] — the single-writer store for a live object set. Mutations
//!   (an [`rnknn_objects::UpdateEvent`] insert, remove or move, through
//!   [`ObjectStore::stage`]) are applied **incrementally** to every method's
//!   object index (R-tree surgery, G-tree occurrence propagation, ROAD
//!   association dirty-marking — see [`rnknn::live`]) and become visible
//!   atomically at an epoch [`ObjectStore::publish`]. Readers pin an
//!   [`EpochSnapshot`] and keep a consistent object view for as long as they
//!   hold it. A publish copies the new epoch into a bundle no reader holds, so
//!   every update is applied once and a publish allocates nothing once warm.
//!
//! * [`ServeFront`] — a sharded pool of long-lived worker threads, each with a
//!   bounded request queue and its own [`rnknn::EngineScratch`]. Workers admit
//!   requests in batches, pinning the epoch once per batch, so updates publish
//!   between batches without blocking queries (and vice versa). A dedicated
//!   updater thread applies [`rnknn_objects::UpdateEvent`]s and paces epoch
//!   publishes ([`ServeConfig::publish_every`]); it is the only publisher.
//!   The store keeps membership, not policy: a caller whose objects expire
//!   submits a `Remove` when its own timer fires.
//!
//! The front is **deadline-aware and supervised** (see `docs/ROBUSTNESS.md`):
//! requests may carry a [`KnnRequest::deadline`], enforced by shedding before a
//! query runs ([`ServeError::ShedExpired`]) and by a cooperative
//! [`rnknn::QueryBudget`] while it runs; worker panics are isolated per batch,
//! the poisoned request is answered [`ServeError::WorkerPanicked`], and the
//! supervision step on the dying worker's exit path respawns a fresh worker on
//! the same queue. A seeded [`FaultPlan`] ([`fault`]) drives those paths
//! deterministically in chaos tests.
//!
//! ```
//! use rnknn_serve::sync::Arc; // `std::sync::Arc` unless model-checking
//! use rnknn::{Engine, EngineConfig, Method};
//! use rnknn_graph::{generator::{GeneratorConfig, RoadNetwork}, EdgeWeightKind};
//! use rnknn_objects::{uniform, UpdateEvent};
//! use rnknn_serve::{KnnRequest, ObjectStore, ServeConfig, ServeFront};
//!
//! let graph = RoadNetwork::generate(&GeneratorConfig::new(600, 5))
//!     .graph(EdgeWeightKind::Distance);
//! let engine = Arc::new(Engine::build(graph, &EngineConfig::minimal()));
//! let store = Arc::new(ObjectStore::new(Arc::clone(&engine), uniform(engine.graph(), 0.05, 1)));
//!
//! let (front, responses) = ServeFront::start(Arc::clone(&store), ServeConfig::default());
//! for id in 0..32 {
//!     let request =
//!         KnnRequest { id, method: Method::Gtree, query: (id * 13) as u32 % 600, k: 4, deadline: None };
//!     front.submit(request).unwrap();
//! }
//! // Interleave an update; it becomes visible at the updater's next publish.
//! front.submit_update(UpdateEvent::Insert(7)).unwrap();
//!
//! let mut got = 0;
//! while got < 32 {
//!     let response = responses.recv().unwrap();
//!     assert_eq!(response.output.unwrap().result.len(), 4);
//!     got += 1;
//! }
//! drop(front); // shuts down: drains queues, waits for workers and updater
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod channel;
pub mod fault;
pub mod front;
pub mod store;
pub mod sync;

pub use channel::Receiver;
pub use fault::{FaultDecision, FaultPlan};
pub use front::{
    FrontStats, KnnRequest, KnnResponse, ServeConfig, ServeError, ServeFront, SubmitError,
};
pub use store::{EpochSnapshot, ObjectStore};
