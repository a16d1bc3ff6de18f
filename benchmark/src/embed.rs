//! The embedded phase: `Engine::query_into` on one thread, closed loop, over a
//! fixed query set — plus the cold-start probe that follows it.

use std::path::Path;
use std::time::{Duration, Instant};

use rnknn::verify::ground_truth;
use rnknn::{Engine, EngineConfig, QueryOutput, QueryStats};
use rnknn_graph::{NodeId, Weight};

use crate::estimators::{median, per_vertex_min, percentile_ten_beyond, Percentile};
use crate::schema::{GTREE, K, METHODS};
use crate::trace::Tracer;

/// Span names of the measured queries, by method (span names are `'static`).
const QUERY_SPANS: [&str; 5] = [
    "core.query_into.ine",
    "core.query_into.gtree",
    "core.query_into.ier_gt",
    "core.query_into.ier_ch",
    "core.query_into.road",
];

/// Operations attempted and failed so far; every phase adds to one of these.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Errors, wrong answers, refused submits and missing responses.
    pub failed: u64,
}

impl Tally {
    /// Counts one checked operation; a failure is also printed, once each for
    /// the first few, so that a broken run says what broke.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                println!("FAILED: {}", what());
            }
        }
    }
}

/// The distances of an answer, in order.
pub(crate) fn distances(out: &QueryOutput) -> impl Iterator<Item = Weight> + '_ {
    out.result.iter().map(|&(_, d)| d)
}

/// The correctness gate that runs before any timing: every method on the first
/// `count` query vertices against the Dijkstra ground truth.
pub fn verify(engine: &Engine, queries: &[NodeId], count: usize, tally: &mut Tally) {
    let objects = engine.objects().expect("objects installed before verification");
    let mut out = QueryOutput::default();
    for &q in queries.iter().take(count) {
        let truth = ground_truth(engine.graph(), q, K, objects);
        for (method, tag) in METHODS {
            let answered = engine.query_into(method, q, K, &mut out);
            let ok = answered.is_ok() && distances(&out).eq(truth.iter().map(|&(_, d)| d));
            tally.check(ok, || format!("{tag} at vertex {q}: {answered:?} differs from Dijkstra"));
        }
    }
}

/// The methods `engine` can answer, as indices into [`METHODS`]: all five on a
/// built instance, all but ROAD on one loaded from the artifact (ROAD is not
/// persisted, and rebuilding it would cost most of what loading saves).
pub fn supported(engine: &Engine) -> Vec<usize> {
    (0..METHODS.len()).filter(|&m| engine.supports(METHODS[m].0)).collect()
}

/// Runs every supported method over the first `count` query vertices, untimed
/// per query: fills the per-thread scratch pool and the caches before the first
/// sample.
pub fn warm_up(engine: &Engine, queries: &[NodeId], count: usize) -> Duration {
    let start = Instant::now();
    let mut out = QueryOutput::default();
    for m in supported(engine) {
        let method = METHODS[m].0;
        for &q in queries.iter().take(count) {
            // Errors surface in the measured passes, where they are counted.
            let _ = engine.query_into(method, q, K, &mut out);
            std::hint::black_box(out.result.len());
        }
    }
    start.elapsed()
}

/// What one call of [`measure`] sampled.
#[derive(Debug, Clone)]
pub struct EmbedPasses {
    /// `times[m][pass][vertex]`, ns, methods in [`METHODS`] order. A `u32`
    /// holds 4.2 s, far beyond any query here.
    pub times: Vec<Vec<Vec<u32>>>,
    /// Per method: the first pass's counters, summed over the query set.
    pub counters: Vec<QueryStats>,
    /// Per method: time spent inside its queries over all passes.
    pub busy: Vec<Duration>,
}

impl EmbedPasses {
    /// Passes completed.
    pub fn passes(&self) -> usize {
        self.times.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// The answers of the first pass ever run (`rows[m]` holds `K` distances per
/// query vertex, padded). Every later pass — on this engine instance or any
/// other, they all hold the same network and objects — must reproduce them.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    rows: Vec<Vec<Weight>>,
}

/// The measured passes. A pass runs **method-major** — all queries of one
/// method, then the next — because interleaving methods per query evicts each
/// index from the caches between its own queries and inflates every method by
/// 40–50 %; passes interleave across methods so that drift over the run lands
/// on all of them alike. Passes repeat until `budget` is spent, and at least
/// once; a method the engine lacks the index for is skipped and its `times`
/// stay empty. With `spans` set, every query records a span under that parent.
pub fn measure(
    engine: &Engine,
    queries: &[NodeId],
    budget: Duration,
    reference: &mut Reference,
    tracer: &mut Tracer,
    spans: Option<u32>,
    tally: &mut Tally,
) -> EmbedPasses {
    let start = Instant::now();
    let mut out = QueryOutput::default();
    let mut times: Vec<Vec<Vec<u32>>> = vec![Vec::new(); METHODS.len()];
    let mut counters = vec![QueryStats::default(); METHODS.len()];
    let mut busy = vec![Duration::ZERO; METHODS.len()];
    let methods = supported(engine);
    reference.rows.resize(METHODS.len(), Vec::new());
    let mut passes = 0usize;
    let mut last_pass = Duration::ZERO;
    while passes == 0 || start.elapsed() + last_pass <= budget {
        let pass_start = Instant::now();
        for &m in &methods {
            let (method, tag) = METHODS[m];
            let mut pass_times = Vec::with_capacity(queries.len());
            for (i, &q) in queries.iter().enumerate() {
                let t0 = Instant::now();
                let answered = engine.query_into(method, q, K, &mut out);
                let t1 = Instant::now();
                std::hint::black_box(out.result.len());
                pass_times.push((t1 - t0).as_nanos().min(u32::MAX as u128) as u32);
                if let Some(parent) = spans {
                    tracer.record(QUERY_SPANS[m], parent, 0, t0, t1);
                }
                if passes == 0 {
                    counters[m].accumulate(&out.stats);
                }
                // Padded to K so that a short answer cannot misalign the rows.
                let answer = distances(&out).chain(std::iter::repeat(Weight::MAX)).take(K);
                let ok = if reference.rows[m].len() < (i + 1) * K {
                    reference.rows[m].extend(answer);
                    answered.is_ok()
                } else {
                    answered.is_ok()
                        && answer.eq(reference.rows[m][i * K..(i + 1) * K].iter().copied())
                };
                tally.check(ok, || {
                    format!("{tag} at vertex {q}: {answered:?}, or distances differ from the first pass")
                });
            }
            busy[m] += pass_times.iter().map(|&t| Duration::from_nanos(t as u64)).sum::<Duration>();
            times[m].push(pass_times);
        }
        passes += 1;
        last_pass = pass_start.elapsed();
    }
    EmbedPasses { times, counters, busy }
}

/// A method's `(p50, p99)` in µs over the query set, from every pass of every
/// engine instance: a vertex's cost is the **fastest** of its samples, the p50
/// is the median of those floors and the p99 their 99th percentile under the
/// ten-beyond rule.
///
/// Why the floor: on this box a neighbour's cache traffic slows a G-tree query
/// by up to a third for seconds at a time, and where an instance's arrays land
/// in physical memory moves its floor by ±15 % for as long as it lives. Both
/// only ever add time. A vertex sampled on sixteen independently placed instances
/// at sixteen different moments has met its undisturbed cost at least once far
/// more reliably than any average of those samples settles.
pub fn floor_stats<'a>(passes: impl Iterator<Item = &'a Vec<u32>>) -> (f64, Percentile) {
    let mut floors = per_vertex_min(passes);
    let p50 = median(&mut floors) / 1e3;
    // `median` left the floors sorted.
    let mut p99 = percentile_ten_beyond(&floors, 0.99);
    p99.value /= 1e3;
    (p50, p99)
}

/// One cold start: `Engine::load_indexes` and the first query after it.
#[derive(Debug, Clone, Copy)]
pub struct ColdStart {
    /// The load, ms.
    pub load_ms: f64,
    /// The first query, µs.
    pub first_query_us: f64,
}

/// What a restarted process pays before its first answer: `Engine::load_indexes`
/// (G-tree + CH, mmap-backed, fully validated) plus one G-tree query, checked
/// against Dijkstra. The page cache is warm — the artifact was just written —
/// so this is the sandbox's validation-and-map cost, not a disk's.
pub fn cold_start(
    artifact: &Path,
    config: &EngineConfig,
    built: &Engine,
    query: NodeId,
    tally: &mut Tally,
) -> ColdStart {
    let objects = built.objects().expect("objects installed");
    let truth = ground_truth(built.graph(), query, K, objects);
    let t0 = Instant::now();
    let loaded = Engine::load_indexes(artifact, config);
    let load = t0.elapsed();
    let answer = loaded.as_ref().map_err(|e| e.to_string()).and_then(|engine| {
        // The object indexes are per-workload state, not part of a restart's
        // fixed cost: only the query itself is timed.
        let live = engine.build_object_indexes(objects.clone());
        let t = Instant::now();
        let out = engine.query_snapshot(METHODS[GTREE].0, query, K, &live);
        let spent = t.elapsed();
        out.map(|out| (out, spent)).map_err(|e| e.to_string())
    });
    let ok = matches!(&answer, Ok((out, _)) if distances(out).eq(truth.iter().map(|&(_, d)| d)));
    tally.check(ok, || {
        format!(
            "cold start: first query at vertex {query} wrong or failed: {:?}",
            answer.as_ref().err()
        )
    });
    ColdStart {
        load_ms: load.as_secs_f64() * 1e3,
        first_query_us: answer.map_or(0.0, |(_, spent)| spent.as_secs_f64() * 1e6),
    }
}
