//! The sharded, batching, deadline-aware serving front-end.
//!
//! [`ServeFront`] owns a pool of long-lived worker threads, each with its own
//! bounded request queue and its own [`EngineScratch`] (so the zero-allocation
//! steady-state query path applies per worker). Requests are sharded across the
//! workers round-robin; each worker admits requests in **batches**, taking a
//! whole batch off its queue under one lock ([`Receiver::recv_batch`]): it pins
//! the current [`EpochSnapshot`](crate::EpochSnapshot) once per batch, answers
//! every query in the batch against that one consistent object view, then
//! releases the snapshot and re-pins — which is what lets the update thread
//! publish new epochs *between* batches without ever blocking a query or being
//! blocked by one.
//!
//! Updates go through [`ServeFront::submit_update`] onto a dedicated updater
//! thread. It drains its queue in batches, stages each batch incrementally into
//! the [`ObjectStore`] under one writer lock ([`ObjectStore::stage_batch`]), and
//! publishes an epoch every [`ServeConfig::publish_every`] applied events (or
//! when its queue momentarily drains, so a trickle of updates still becomes
//! visible promptly). The updater is the only publisher: workers only read the
//! published slot, so with no updates flowing the epoch never moves.
//!
//! ## Robustness (see `docs/ROBUSTNESS.md`)
//!
//! * **Deadlines.** A [`KnnRequest::deadline`] (or [`ServeConfig::default_deadline`])
//!   is enforced three times: at admission and at dequeue an already-expired
//!   request is **shed** — answered [`ServeError::ShedExpired`] without running —
//!   and while running it becomes a cooperative [`rnknn::QueryBudget`] that cuts
//!   the search short with [`EngineError::DeadlineExceeded`]. Every accepted
//!   request gets exactly one response, shed or served.
//! * **Isolation + supervision.** Each batch runs inside `catch_unwind`; a panic
//!   poisons only the request being served. The supervision logic runs on the
//!   dying generation's exit path (a drop sentry, so it runs even when the
//!   panic escapes the batch guard): it answers the poisoned request with
//!   [`ServeError::WorkerPanicked`], spawns a **fresh** worker generation on the
//!   same shard queue (new thread, new scratch) with the rest of the batch, and
//!   serving continues. Shutdown waits on a liveness channel rather than thread
//!   handles, so it cannot hang on a panicked worker.
//! * **Fault injection.** A seeded [`FaultPlan`] in
//!   [`ServeConfig::fault_plan`] injects deterministic panics and stragglers so
//!   the chaos tests can drive the paths above on demand. Inert when `None`.

use std::num::NonZeroU64;
#[cfg(not(feature = "loom-model"))]
use std::panic::{catch_unwind, AssertUnwindSafe};
// Monitoring counters deliberately bypass the `crate::sync` facade: they are
// observe-only (nothing branches on them inside the protocols under test), and
// instrumenting them would blow up the model checker's state space.
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::channel::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use crate::fault::{FaultDecision, FaultPlan};
use crate::sync::{thread, Arc};

use rnknn::{EngineError, EngineScratch, Method, QueryBudget, QueryOutput, QueryRequest};
use rnknn_graph::NodeId;
use rnknn_objects::UpdateEvent;

use crate::store::ObjectStore;

/// One kNN request: find the `k` objects nearest `query` with `method`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnnRequest {
    /// Caller-chosen correlation id, echoed in the [`KnnResponse`].
    pub id: u64,
    /// The kNN method to dispatch.
    pub method: Method,
    /// The query vertex.
    pub query: NodeId,
    /// How many neighbors.
    pub k: usize,
    /// Absolute deadline. `None` adopts [`ServeConfig::default_deadline`] at
    /// admission. An expired request is shed instead of run; a running request
    /// is cut short cooperatively (see the module docs).
    pub deadline: Option<Instant>,
}

/// Why a request was answered without a kNN result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The engine rejected or cut short the query (bad k, bad vertex, deadline
    /// exhausted mid-search with partial stats, …).
    Engine(EngineError),
    /// The request's deadline had already passed at admission or dequeue; the
    /// query never ran (overload shedding).
    ShedExpired,
    /// The worker serving this exact request panicked; a fresh worker took over
    /// the shard. The query may have partially run — retry if idempotence
    /// matters to the caller.
    WorkerPanicked,
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> ServeError {
        ServeError::Engine(e)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::ShedExpired => write!(f, "deadline expired before the query ran (shed)"),
            ServeError::WorkerPanicked => write!(f, "serving worker panicked on this request"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

/// The answer to one [`KnnRequest`].
#[derive(Debug)]
pub struct KnnResponse {
    /// The request's correlation id.
    pub id: u64,
    /// The epoch the query ran against (all requests of one admitted batch share
    /// an epoch; for a shed request, the epoch current at shedding time).
    pub epoch: u64,
    /// The worker that served the request (`usize::MAX` for a request shed at
    /// admission, which no worker ever saw).
    pub worker: usize,
    /// The result, or the structured reason there is none.
    pub output: Result<QueryOutput, ServeError>,
}

/// Serving knobs. The defaults favour the paper-scale single-machine setup; see
/// `docs/METHODS.md` for the full knob table.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker (shard) count. Defaults to available parallelism.
    pub workers: usize,
    /// Bounded per-worker request-queue capacity; a full shard makes
    /// [`ServeFront::try_submit`] push back instead of buffering unboundedly.
    pub queue_capacity: usize,
    /// Maximum requests a worker admits per epoch pin. Smaller batches observe
    /// fresh epochs sooner; larger ones amortise the snapshot grab.
    pub max_batch: usize,
    /// The updater publishes an epoch after this many applied events (it also
    /// publishes early whenever its queue momentarily drains).
    pub publish_every: NonZeroU64,
    /// Deadline adopted at admission by requests that carry none. `None` (the
    /// default) leaves such requests unbudgeted.
    pub default_deadline: Option<Duration>,
    /// Seeded fault injection for chaos tests. `None` (the default) is inert.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            queue_capacity: 1024,
            max_batch: 32,
            publish_every: NonZeroU64::new(64).unwrap(),
            default_deadline: None,
            fault_plan: None,
        }
    }
}

/// Why a request could not be accepted.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The selected shard's queue is full (backpressure) — retry or shed load.
    Saturated(KnnRequest),
    /// The front is shutting down; no further requests are accepted.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Saturated(r) => write!(f, "shard queue full (request {})", r.id),
            SubmitError::ShuttingDown => write!(f, "serving front is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// All-atomic lifetime counters, shared by workers, the updater and the front
/// handle. [`FrontStats`] is a point-in-time copy.
#[derive(Debug, Default)]
struct FrontCounters {
    served: AtomicU64,
    batches: AtomicU64,
    updates_applied: AtomicU64,
    epochs_published: AtomicU64,
    shed_expired: AtomicU64,
    deadline_exceeded: AtomicU64,
    worker_panics: AtomicU64,
    worker_restarts: AtomicU64,
}

impl FrontCounters {
    fn stats(&self) -> FrontStats {
        FrontStats {
            served: self.served.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            epochs_published: self.epochs_published.load(Ordering::Relaxed),
            shed_expired: self.shed_expired.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
        }
    }
}

/// Lifetime totals, readable live via [`ServeFront::stats`] and returned by
/// [`ServeFront::shutdown`]. Cumulative: a second `shutdown` (or a post-shutdown
/// `stats`) reports the same totals, not zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontStats {
    /// Responses sent (includes shed, deadline-exceeded and panic-poisoned
    /// answers — every accepted request counts exactly once).
    pub served: u64,
    /// Epoch pins (admitted batches) across all workers.
    pub batches: u64,
    /// Update events applied by the updater (no-op events excluded).
    pub updates_applied: u64,
    /// Epochs published by the updater, the store's only publisher. Not
    /// seed-exact: the updater also publishes early whenever its queue drains,
    /// so the count depends on how update arrivals interleave with its batches
    /// (a fast updater that catches its submitter publishes one more epoch).
    pub epochs_published: u64,
    /// Requests shed because their deadline passed before the query ran
    /// (at admission or while queued).
    pub shed_expired: u64,
    /// Requests whose search was cut short by its deadline budget mid-run.
    pub deadline_exceeded: u64,
    /// Worker panics caught (each poisons exactly one request).
    pub worker_panics: u64,
    /// Fresh worker generations spawned to replace panicked ones.
    pub worker_restarts: u64,
}

/// How a worker generation ended.
enum Lifecycle {
    /// The queue closed and drained; the generation line ends here.
    Exited,
    /// A panic was caught (or simulated under the model): `poisoned` is the
    /// request being served (`None` if the panic hit outside a request),
    /// `leftover` the rest of its admitted batch, un-run.
    Panicked { epoch: u64, poisoned: Option<KnnRequest>, leftover: Vec<KnnRequest> },
}

/// Everything a worker generation needs — and everything its successor needs,
/// so supervision can respawn onto the same shard queue. The `alive` token's
/// disconnect (all generations of all shards gone) is what
/// [`ServeFront::shutdown`] waits for instead of joining thread handles, which
/// is why shutdown cannot hang on a panicked worker.
struct WorkerSeed {
    worker: usize,
    store: Arc<ObjectStore>,
    requests: Arc<Receiver<KnnRequest>>,
    respond: Sender<KnnResponse>,
    alive: Sender<std::convert::Infallible>,
    counters: Arc<FrontCounters>,
    max_batch: usize,
    fault_plan: Option<FaultPlan>,
}

impl WorkerSeed {
    fn respawn(&self) -> WorkerSeed {
        WorkerSeed {
            worker: self.worker,
            store: Arc::clone(&self.store),
            requests: Arc::clone(&self.requests),
            respond: self.respond.clone(),
            alive: self.alive.clone(),
            counters: Arc::clone(&self.counters),
            max_batch: self.max_batch,
            fault_plan: self.fault_plan,
        }
    }
}

/// The sharded batching front-end over one [`ObjectStore`] (see the module docs).
///
/// Construction spawns the workers and the updater; [`ServeFront::shutdown`]
/// (or drop) closes the queues, drains in-flight work and waits for every
/// thread to finish. Responses arrive on the [`Receiver`] returned by
/// [`ServeFront::start`], in completion order (not submission order — correlate
/// by `id`).
pub struct ServeFront {
    store: Arc<ObjectStore>,
    shards: Vec<SyncSender<KnnRequest>>,
    updates: Option<Sender<UpdateEvent>>,
    /// Disconnects once every worker generation of every shard has exited —
    /// the quiescence signal [`ServeFront::shutdown`] waits on. Worker threads
    /// are detached; respawned generations inherit a token from their
    /// predecessor, so the channel stays connected across restarts.
    workers_alive: Option<Receiver<std::convert::Infallible>>,
    updater: Option<thread::JoinHandle<()>>,
    respond: Sender<KnnResponse>,
    next_shard: AtomicU64,
    counters: Arc<FrontCounters>,
    default_deadline: Option<Duration>,
}

impl ServeFront {
    /// Spawns the worker pool and updater over `store`, returning the front and
    /// the response stream.
    pub fn start(
        store: Arc<ObjectStore>,
        config: ServeConfig,
    ) -> (ServeFront, Receiver<KnnResponse>) {
        let workers = config.workers.max(1);
        let (respond, responses) = channel::<KnnResponse>();
        let counters = Arc::new(FrontCounters::default());
        let (alive_tx, alive_rx) = channel::<std::convert::Infallible>();

        let mut shards = Vec::with_capacity(workers);
        for worker in 0..workers {
            let (tx, rx) = sync_channel::<KnnRequest>(config.queue_capacity.max(1));
            shards.push(tx);
            let seed = WorkerSeed {
                worker,
                store: Arc::clone(&store),
                requests: Arc::new(rx),
                respond: respond.clone(),
                alive: alive_tx.clone(),
                counters: Arc::clone(&counters),
                max_batch: config.max_batch.max(1),
                fault_plan: config.fault_plan,
            };
            spawn_worker(seed, Vec::new());
        }
        // Only worker generations hold liveness tokens from here on.
        drop(alive_tx);

        let (update_tx, update_rx) = channel::<UpdateEvent>();
        let updater = {
            let store = Arc::clone(&store);
            let counters = Arc::clone(&counters);
            let publish_every = config.publish_every.get();
            thread::Builder::new()
                .name("rnknn-serve-updater".into())
                .spawn(move || updater_loop(store, update_rx, counters, publish_every))
                .expect("failed to spawn serving updater")
        };

        let front = ServeFront {
            store,
            shards,
            updates: Some(update_tx),
            workers_alive: Some(alive_rx),
            updater: Some(updater),
            respond,
            next_shard: AtomicU64::new(0),
            counters,
            default_deadline: config.default_deadline,
        };
        (front, responses)
    }

    /// Warm-starts a serving front from an index artifact on disk (see
    /// `docs/PERSISTENCE.md`): loads the engine via
    /// [`Engine::load_indexes`](rnknn::Engine::load_indexes) — mmap-backed,
    /// fully validated, sub-200ms at 580k vertices from a warm page cache —
    /// seeds the store with `initial` objects, and spawns the worker pool.
    /// This replaces minutes of index construction on the restart path.
    pub fn start_from_artifact(
        path: impl AsRef<std::path::Path>,
        engine_config: &rnknn::EngineConfig,
        initial: rnknn_objects::ObjectSet,
        config: ServeConfig,
    ) -> Result<(ServeFront, Receiver<KnnResponse>), rnknn::PersistError> {
        let engine = Arc::new(rnknn::Engine::load_indexes(path, engine_config)?);
        let store = Arc::new(ObjectStore::new(engine, initial));
        Ok(ServeFront::start(store, config))
    }

    /// The store this front serves from.
    pub fn store(&self) -> &Arc<ObjectStore> {
        &self.store
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Submits a request, blocking while the selected shard's queue is full.
    ///
    /// A request whose deadline has already passed is accepted but **shed**: it
    /// is answered [`ServeError::ShedExpired`] on the response stream without
    /// ever entering a queue.
    pub fn submit(&self, request: KnnRequest) -> Result<(), SubmitError> {
        let request = match self.admit(request) {
            Some(r) => r,
            None => return Ok(()), // shed at admission, already answered
        };
        let shard = self.pick_shard();
        self.shards[shard].send(request).map_err(|_| SubmitError::ShuttingDown)
    }

    /// Submits a request without blocking: a full shard returns
    /// [`SubmitError::Saturated`] with the request handed back. Expired
    /// requests are shed exactly as in [`ServeFront::submit`].
    pub fn try_submit(&self, request: KnnRequest) -> Result<(), SubmitError> {
        let request = match self.admit(request) {
            Some(r) => r,
            None => return Ok(()), // shed at admission, already answered
        };
        let shard = self.pick_shard();
        match self.shards[shard].try_send(request) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(r)) => Err(SubmitError::Saturated(r)),
            Err(TrySendError::Disconnected(_)) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Admission control: stamp the default deadline, shed if already expired.
    /// Returns `None` when the request was shed (and answered).
    fn admit(&self, mut request: KnnRequest) -> Option<KnnRequest> {
        if request.deadline.is_none() {
            if let Some(budget) = self.default_deadline {
                request.deadline = Some(Instant::now() + budget);
            }
        }
        match request.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                self.counters.shed_expired.fetch_add(1, Ordering::Relaxed);
                self.counters.served.fetch_add(1, Ordering::Relaxed);
                let _ = self.respond.send(KnnResponse {
                    id: request.id,
                    epoch: self.store.snapshot().epoch(),
                    worker: usize::MAX,
                    output: Err(ServeError::ShedExpired),
                });
                None
            }
            _ => Some(request),
        }
    }

    /// Enqueues an object update for the updater thread (applied incrementally,
    /// visible at its next epoch publish).
    pub fn submit_update(&self, event: UpdateEvent) -> Result<(), SubmitError> {
        match &self.updates {
            Some(tx) => tx.send(event).map_err(|_| SubmitError::ShuttingDown),
            None => Err(SubmitError::ShuttingDown),
        }
    }

    /// Update events applied so far (no-ops excluded; readable while serving).
    pub fn updates_applied(&self) -> u64 {
        self.counters.updates_applied.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the lifetime counters (readable while serving;
    /// totals are only quiescent after [`ServeFront::shutdown`]).
    pub fn stats(&self) -> FrontStats {
        self.counters.stats()
    }

    /// Round-robin shard choice — uniform under any arrival pattern and cheap
    /// enough to be irrelevant next to a query.
    fn pick_shard(&self) -> usize {
        (self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len() as u64) as usize
    }

    /// Closes the queues, waits for every in-flight request and queued update to
    /// finish, and returns the lifetime totals. Idempotent — a second call
    /// returns the same cumulative totals — and hang-free even if workers
    /// panicked: quiescence is a channel disconnect (every generation's drop
    /// path releases its token, panicking or not), never a thread join that
    /// could wait on a wedged worker.
    pub fn shutdown(&mut self) -> FrontStats {
        // Closing the channels makes every loop exit once drained.
        self.shards.clear();
        drop(self.updates.take());
        if let Some(alive) = self.workers_alive.take() {
            // No message is ever sent (the payload is uninhabited); this blocks
            // exactly until the last worker generation drops its token.
            while alive.recv().is_ok() {}
        }
        if let Some(updater) = self.updater.take() {
            let _ = updater.join();
        }
        self.counters.stats()
    }
}

impl Drop for ServeFront {
    fn drop(&mut self) {
        // Dropped during unwinding, skip the joins: dropping the channel
        // endpoints (field drop order) still disconnects every loop so the
        // threads exit on their own.
        if !std::thread::panicking() {
            self.shutdown();
        }
    }
}

/// Spawns one worker generation (detached — shutdown waits on the liveness
/// channel, not on handles); `initial` is a leftover batch inherited from a
/// panicked predecessor, served before anything is dequeued.
fn spawn_worker(seed: WorkerSeed, initial: Vec<KnnRequest>) {
    let name = format!("rnknn-serve-{}", seed.worker);
    let handle = thread::Builder::new()
        .name(name)
        .spawn(move || {
            // The sentry's Drop runs the supervision step exactly once per
            // generation — even if a panic escapes the batch guard (batch
            // fill, snapshot grab), in which case the recorded `end` is still
            // the `Panicked` default and the drop happens mid-unwind.
            let mut sentry = RespawnSentry { seed: Some(seed), end: None };
            sentry.end = Some(worker_loop(sentry.seed.as_ref().expect("seed present"), initial));
        })
        .expect("failed to spawn serving worker");
    drop(handle);
}

/// Runs the supervision step when a worker generation's thread winds down:
/// nothing on a clean exit; on a panic, answer the poisoned request with the
/// typed error and respawn a fresh generation on the same shard queue. Dropping
/// the seed afterwards releases this generation's liveness token (the successor
/// holds its own), which is what lets [`ServeFront::shutdown`] observe
/// quiescence without joining threads.
struct RespawnSentry {
    seed: Option<WorkerSeed>,
    end: Option<Lifecycle>,
}

impl Drop for RespawnSentry {
    fn drop(&mut self) {
        let seed = match self.seed.take() {
            Some(seed) => seed,
            None => return,
        };
        let end = self.end.take().unwrap_or(Lifecycle::Panicked {
            epoch: 0,
            poisoned: None,
            leftover: Vec::new(),
        });
        let (epoch, poisoned, leftover) = match end {
            Lifecycle::Exited => return, // generation line ends; token drops
            Lifecycle::Panicked { epoch, poisoned, leftover } => (epoch, poisoned, leftover),
        };
        seed.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
        if let Some(poisoned) = poisoned {
            seed.counters.served.fetch_add(1, Ordering::Relaxed);
            let _ = seed.respond.send(KnnResponse {
                id: poisoned.id,
                epoch,
                worker: seed.worker,
                output: Err(ServeError::WorkerPanicked),
            });
        }
        if cfg!(feature = "mutant-skip-respawn") {
            // Mutant: abandon the shard — its queued and leftover requests are
            // never answered (the loom respawn model and the chaos test both
            // catch this as lost responses).
            return;
        }
        seed.counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
        spawn_worker(seed.respawn(), leftover);
    }
}

/// How a served batch ended.
enum BatchEnd {
    Completed,
    Panicked { poisoned: Option<KnnRequest>, leftover: Vec<KnnRequest> },
}

/// One worker generation: admit up to `max_batch` queued requests, pin the epoch
/// once, answer the whole batch against it, repeat until the queue closes or a
/// panic ends the generation. Returns how the generation ended; the caller's
/// sentry runs the supervision step.
fn worker_loop(seed: &WorkerSeed, initial: Vec<KnnRequest>) -> Lifecycle {
    let engine = Arc::clone(seed.store.engine());
    let mut scratch = EngineScratch::new();
    let mut out = QueryOutput::default();
    let mut batch: Vec<KnnRequest> = initial;
    batch.reserve(seed.max_batch.saturating_sub(batch.len()));
    loop {
        // Block for the first request, then take what is queued behind it up
        // to `max_batch`, all under one lock.
        if batch.is_empty() && seed.requests.recv_batch(&mut batch, seed.max_batch).is_err() {
            return Lifecycle::Exited; // closed + drained
        }
        // One epoch pin per batch: every request below sees this exact object view.
        let snapshot = seed.store.snapshot();
        seed.counters.batches.fetch_add(1, Ordering::Relaxed);
        let end = serve_batch(seed, &engine, &snapshot, &mut scratch, &mut out, &mut batch);
        let epoch = snapshot.epoch();
        // `snapshot` drops here, releasing the epoch before the next pin so the
        // store can reuse its bundle.
        drop(snapshot);
        match end {
            BatchEnd::Completed => batch.clear(),
            BatchEnd::Panicked { poisoned, leftover } => {
                return Lifecycle::Panicked { epoch, poisoned, leftover };
            }
        }
    }
}

/// Serves `batch` against one pinned snapshot. In production builds the whole
/// batch runs inside `catch_unwind` with a progress cursor, so a panic is
/// attributed to the exact request being served and the rest of the batch
/// survives as `leftover`. Under `loom-model` the guard is omitted (the shim
/// detects model failures *by* panics) and fault-plan panics short-circuit via
/// `Err` instead of unwinding — same protocol, no unwind.
fn serve_batch(
    seed: &WorkerSeed,
    engine: &rnknn::Engine,
    snapshot: &crate::store::EpochSnapshot,
    scratch: &mut EngineScratch,
    out: &mut QueryOutput,
    batch: &mut [KnnRequest],
) -> BatchEnd {
    let progress = std::cell::Cell::new(0usize);
    let run = |progress: &std::cell::Cell<usize>,
               scratch: &mut EngineScratch,
               out: &mut QueryOutput|
     -> Result<(), ()> {
        for (i, request) in batch.iter().enumerate() {
            progress.set(i);
            run_one(seed, engine, snapshot, scratch, out, request)?;
            progress.set(i + 1);
        }
        Ok(())
    };
    #[cfg(not(feature = "loom-model"))]
    let outcome =
        catch_unwind(AssertUnwindSafe(|| run(&progress, scratch, out))).unwrap_or(Err(()));
    #[cfg(feature = "loom-model")]
    let outcome = run(&progress, scratch, out);
    match outcome {
        Ok(()) => BatchEnd::Completed,
        Err(()) => {
            let done = progress.get();
            BatchEnd::Panicked {
                poisoned: batch.get(done).copied(),
                leftover: batch.get(done + 1..).unwrap_or_default().to_vec(),
            }
        }
    }
}

/// Serves one request: dequeue-time shed, fault injection, budgeted dispatch,
/// response. `Err(())` is a *simulated* panic (loom-model only); production
/// fault panics unwind for real into `serve_batch`'s guard.
fn run_one(
    seed: &WorkerSeed,
    engine: &rnknn::Engine,
    snapshot: &crate::store::EpochSnapshot,
    scratch: &mut EngineScratch,
    out: &mut QueryOutput,
    request: &KnnRequest,
) -> Result<(), ()> {
    let counters = &seed.counters;
    // Dequeue-time shedding: a request that expired while queued never runs.
    if let Some(deadline) = request.deadline {
        if Instant::now() >= deadline {
            counters.shed_expired.fetch_add(1, Ordering::Relaxed);
            counters.served.fetch_add(1, Ordering::Relaxed);
            let _ = seed.respond.send(KnnResponse {
                id: request.id,
                epoch: snapshot.epoch(),
                worker: seed.worker,
                output: Err(ServeError::ShedExpired),
            });
            return Ok(());
        }
    }
    if let Some(plan) = &seed.fault_plan {
        match plan.decide(request.id) {
            FaultDecision::Panic => {
                #[cfg(feature = "loom-model")]
                return Err(());
                #[cfg(not(feature = "loom-model"))]
                panic!("rnknn-serve: fault-injected panic (request {})", request.id);
            }
            FaultDecision::Straggle =>
            {
                #[cfg(not(feature = "loom-model"))]
                std::thread::sleep(plan.straggle)
            }
            FaultDecision::None => {}
        }
    }
    let budget = match request.deadline {
        Some(deadline) => QueryBudget::with_deadline(deadline),
        None => QueryBudget::unlimited(),
    };
    let query = QueryRequest::new(request.method, request.query, request.k)
        .with_budget(&budget)
        .with_objects(snapshot.indexes());
    let result = engine.execute_with_scratch(&query, scratch, out).map(|()| std::mem::take(out));
    if matches!(result, Err(EngineError::DeadlineExceeded { .. })) {
        counters.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }
    counters.served.fetch_add(1, Ordering::Relaxed);
    let response = KnnResponse {
        id: request.id,
        epoch: snapshot.epoch(),
        worker: seed.worker,
        output: result.map_err(ServeError::Engine),
    };
    if seed.respond.send(response).is_err() {
        // Response sink dropped: keep draining requests so submitters blocked
        // on a full shard are not wedged, but stop replying.
    }
    Ok(())
}

/// The updater: stage events in batches as they arrive, publish every
/// `publish_every` applied events and whenever the queue momentarily drains.
fn updater_loop(
    store: Arc<ObjectStore>,
    updates: Receiver<UpdateEvent>,
    counters: Arc<FrontCounters>,
    publish_every: u64,
) {
    let mut batch = Vec::new();
    let mut since_publish = 0u64;
    loop {
        let room = usize::try_from(publish_every - since_publish).unwrap_or(usize::MAX);
        batch.clear();
        // Block for the next event only while nothing staged is unpublished.
        let received = if since_publish == 0 {
            updates.recv_batch(&mut batch, room)
        } else {
            updates.try_recv_batch(&mut batch, room)
        };
        if received.is_err() {
            break;
        }
        let applied = store.stage_batch(&batch);
        counters.updates_applied.fetch_add(applied, Ordering::Relaxed);
        since_publish += applied;
        // A batch shorter than its room left the queue empty.
        if since_publish > 0 && (since_publish >= publish_every || batch.len() < room) {
            store.publish();
            counters.epochs_published.fetch_add(1, Ordering::Relaxed);
            since_publish = 0;
        }
    }
    // Channel closed: flush anything staged.
    if store.pending_updates() > 0 {
        store.publish();
        counters.epochs_published.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn::{Engine, EngineConfig};
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::EdgeWeightKind;
    use rnknn_objects::uniform;

    fn store() -> Arc<ObjectStore> {
        let net = RoadNetwork::generate(&GeneratorConfig::new(500, 47));
        let engine =
            Arc::new(Engine::build(net.graph(EdgeWeightKind::Distance), &EngineConfig::minimal()));
        let objects = uniform(engine.graph(), 0.04, 2);
        Arc::new(ObjectStore::new(engine, objects))
    }

    fn request(id: u64, method: Method, query: NodeId, k: usize) -> KnnRequest {
        KnnRequest { id, method, query, k, deadline: None }
    }

    /// Warm start: an engine saved to disk serves through the front exactly
    /// like the engine that built it, with zero index construction on restart.
    #[test]
    #[cfg(not(feature = "loom-model"))]
    fn warm_start_from_artifact_answers_like_the_built_engine() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(400, 13));
        let econfig = EngineConfig {
            gtree_config: rnknn::gtree::GtreeConfig { leaf_capacity: 32, ..Default::default() },
            build_road: false,
            build_silc: false,
            build_phl: false,
            ..EngineConfig::default()
        };
        let built = Engine::build(net.graph(EdgeWeightKind::Distance), &econfig);
        let dir = std::env::temp_dir().join("rnknn-serve-warmstart");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("front-{}.rnk", std::process::id()));
        built.save_indexes(&path).unwrap();

        let objects = uniform(built.graph(), 0.05, 6);
        let (mut front, responses) = ServeFront::start_from_artifact(
            &path,
            &econfig,
            objects.clone(),
            ServeConfig { workers: 2, ..Default::default() },
        )
        .unwrap();
        let mut reference = built;
        reference.set_objects(objects);
        let n = reference.graph().num_vertices() as NodeId;
        for id in 0..24u64 {
            let query = (id as NodeId * 31) % n;
            front.submit(request(id, Method::Gtree, query, 4)).unwrap();
        }
        for _ in 0..24 {
            let r = responses.recv().unwrap();
            let query = (r.id as NodeId * 31) % n;
            assert_eq!(
                r.output.unwrap().result,
                reference.query(Method::Gtree, query, 4).unwrap().result,
                "request {}",
                r.id
            );
        }
        assert_eq!(front.shutdown().served, 24);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn responses_cover_every_request_and_shutdown_reports_totals() {
        let store = store();
        let engine = Arc::clone(store.engine());
        let config = ServeConfig { workers: 3, max_batch: 4, ..Default::default() };
        let (mut front, responses) = ServeFront::start(Arc::clone(&store), config);
        assert_eq!(front.workers(), 3);
        let n = engine.graph().num_vertices() as NodeId;
        for id in 0..60u64 {
            front.submit(request(id, Method::Ine, (id as NodeId * 29) % n, 3)).unwrap();
        }
        let mut seen = [false; 60];
        for _ in 0..60 {
            let r = responses.recv().unwrap();
            assert!(!std::mem::replace(&mut seen[r.id as usize], true), "duplicate id {}", r.id);
            let output = r.output.unwrap();
            assert_eq!(output.result.len(), 3);
            // Conformance on the exact epoch the worker pinned (epoch 0 here —
            // no updates were submitted).
            assert_eq!(r.epoch, 0);
            let expect = engine
                .query_snapshot(
                    Method::Ine,
                    (r.id as NodeId * 29) % n,
                    3,
                    store.snapshot().indexes(),
                )
                .unwrap();
            assert_eq!(output.result, expect.result, "request {}", r.id);
        }
        let stats = front.shutdown();
        assert_eq!(stats.served, 60);
        assert!(stats.batches >= 60 / 4, "batching cannot exceed max_batch");
        assert_eq!(stats.updates_applied, 0);
        assert_eq!(stats.worker_panics, 0);
        // Idempotent and cumulative: a second shutdown reports the same totals.
        assert_eq!(front.shutdown(), stats);
    }

    /// The updater is the store's only publisher: batches served with no update
    /// submitted leave the store at epoch 0 and publish nothing.
    #[test]
    fn serving_without_updates_never_publishes() {
        let store = store();
        let config = ServeConfig { workers: 2, max_batch: 1, ..Default::default() };
        let (mut front, responses) = ServeFront::start(Arc::clone(&store), config);
        for id in 0..60u64 {
            front.submit(request(id, Method::Ine, id as NodeId, 2)).unwrap();
            assert_eq!(responses.recv().unwrap().epoch, 0, "request {id}");
        }
        let stats = front.shutdown();
        assert!(stats.batches >= 50, "{} batches served", stats.batches);
        assert_eq!(stats.epochs_published, 0);
        assert_eq!(store.snapshot().epoch(), 0);
    }

    #[test]
    fn updates_become_visible_and_errors_are_structured() {
        let store = store();
        let engine = Arc::clone(store.engine());
        let (front, responses) =
            ServeFront::start(Arc::clone(&store), ServeConfig { workers: 1, ..Default::default() });
        let v =
            engine.graph().vertices().find(|&v| !store.snapshot().objects().contains(v)).unwrap();
        front.submit_update(UpdateEvent::Insert(v)).unwrap();
        // Wait until the updater's publish lands, then query the new epoch.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while front.updates_applied() < 1 || store.snapshot().epoch() == 0 {
            assert!(std::time::Instant::now() < deadline, "update never published");
            std::thread::yield_now();
        }
        front.submit(request(1, Method::Gtree, v, 1)).unwrap();
        let r = responses.recv().unwrap();
        assert!(r.epoch >= 1);
        assert_eq!(r.output.unwrap().result[0], (v, 0));

        // Structured errors come back as responses, not panics.
        front.submit(request(2, Method::Ine, 0, 0)).unwrap();
        let r = responses.recv().unwrap();
        assert_eq!(r.output.unwrap_err(), ServeError::Engine(EngineError::InvalidK { k: 0 }));
        let bad = engine.graph().num_vertices() as NodeId;
        front.submit(request(3, Method::Ine, bad, 1)).unwrap();
        let r = responses.recv().unwrap();
        assert!(matches!(
            r.output.unwrap_err(),
            ServeError::Engine(EngineError::InvalidVertex { .. })
        ));
    }

    #[test]
    fn try_submit_pushes_back_when_a_shard_saturates() {
        let store = store();
        // One worker with a tiny queue; flood it faster than it can drain.
        let config =
            ServeConfig { workers: 1, queue_capacity: 1, max_batch: 1, ..Default::default() };
        let (mut front, responses) = ServeFront::start(store, config);
        let mut accepted = 0u64;
        let mut saturated = false;
        for id in 0..10_000u64 {
            match front.try_submit(request(id, Method::Ine, 0, 2)) {
                Ok(()) => accepted += 1,
                Err(SubmitError::Saturated(r)) => {
                    assert_eq!(r.id, id, "saturation must hand the request back");
                    saturated = true;
                    break;
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        assert!(saturated, "a capacity-1 queue must eventually saturate");
        let stats = front.shutdown();
        assert_eq!(stats.served, accepted, "shutdown must drain every accepted request");
        drop(responses);
    }

    /// Expired requests are shed — at admission (never queued) and at dequeue
    /// (queued behind work that outlived their deadline) — and every shed
    /// request still gets exactly one response.
    #[test]
    #[cfg(not(feature = "loom-model"))]
    fn expired_requests_are_shed_with_a_response() {
        let store = store();
        let (mut front, responses) =
            ServeFront::start(store, ServeConfig { workers: 1, ..Default::default() });
        // Already expired at admission.
        let expired = Instant::now() - Duration::from_millis(1);
        front
            .submit(KnnRequest {
                id: 0,
                method: Method::Ine,
                query: 0,
                k: 2,
                deadline: Some(expired),
            })
            .unwrap();
        let r = responses.recv().unwrap();
        assert_eq!(r.id, 0);
        assert_eq!(r.output.unwrap_err(), ServeError::ShedExpired);
        let stats = front.shutdown();
        assert_eq!(stats.shed_expired, 1);
        assert_eq!(stats.served, 1);
        drop(responses);
    }

    /// A fault-injected panic poisons exactly its own request; the rest of the
    /// batch and all later requests are still answered by the respawned worker.
    #[test]
    #[cfg(all(not(feature = "loom-model"), not(feature = "mutant-skip-respawn")))]
    fn injected_panic_poisons_one_request_and_the_worker_respawns() {
        let store = store();
        let n = store.engine().graph().num_vertices() as NodeId;
        // A plan that panics exactly one known id.
        let plan = FaultPlan {
            seed: 99,
            panic_per_mille: 2,
            straggle_per_mille: 0,
            straggle: Duration::ZERO,
        };
        let victim = (0..10_000u64)
            .find(|&id| plan.decide(id) == FaultDecision::Panic)
            .expect("plan must select a victim");
        let config = ServeConfig { workers: 1, fault_plan: Some(plan), ..Default::default() };
        let (mut front, responses) = ServeFront::start(store, config);
        // 199 ids the plan leaves alone, with the victim planted mid-stream.
        let mut ids: Vec<u64> =
            (10_000u64..).filter(|&id| plan.decide(id) == FaultDecision::None).take(199).collect();
        ids.insert(100, victim);
        let (expected_panics, _) = plan.census(ids.iter().copied());
        assert_eq!(expected_panics, 1, "exactly the victim panics");
        for &id in &ids {
            front.submit(request(id, Method::Ine, (id as NodeId) % n, 2)).unwrap();
        }
        let mut answered = std::collections::HashSet::new();
        for _ in 0..ids.len() {
            let r = responses.recv().unwrap();
            assert!(answered.insert(r.id), "duplicate response for {}", r.id);
            if r.id == victim {
                assert_eq!(r.output.unwrap_err(), ServeError::WorkerPanicked);
            } else {
                assert_eq!(r.output.unwrap().result.len(), 2, "request {}", r.id);
            }
        }
        let stats = front.shutdown();
        assert_eq!(stats.served, ids.len() as u64);
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.worker_restarts, 1);
    }

    /// Shutdown must not hang or double-count when workers panicked mid-stream.
    #[test]
    #[cfg(all(not(feature = "loom-model"), not(feature = "mutant-skip-respawn")))]
    fn shutdown_is_idempotent_and_hang_free_after_worker_panics() {
        let store = store();
        let n = store.engine().graph().num_vertices() as NodeId;
        let plan = FaultPlan {
            seed: 5,
            panic_per_mille: 100, // 10%: many generations die and respawn
            straggle_per_mille: 0,
            straggle: Duration::ZERO,
        };
        let config =
            ServeConfig { workers: 2, max_batch: 4, fault_plan: Some(plan), ..Default::default() };
        let (mut front, responses) = ServeFront::start(store, config);
        let ids: Vec<u64> = (0..300).collect();
        let (expected_panics, _) = plan.census(ids.iter().copied());
        assert!(expected_panics > 0, "plan must inject panics for this test to bite");
        for &id in &ids {
            front.submit(request(id, Method::Ine, (id as NodeId) % n, 1)).unwrap();
        }
        let mut answered = std::collections::HashSet::new();
        for _ in 0..ids.len() {
            let r = responses.recv().unwrap();
            assert!(answered.insert(r.id), "duplicate response for {}", r.id);
        }
        let stats = front.shutdown();
        assert_eq!(stats.served, ids.len() as u64);
        assert_eq!(stats.worker_panics, expected_panics);
        assert_eq!(stats.worker_restarts, expected_panics);
        // Idempotent after carnage, and still the same cumulative totals.
        assert_eq!(front.shutdown(), stats);
        drop(responses);
    }
}
