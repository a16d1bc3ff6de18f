//! One run of one workload: set-up, correctness gates, the measured phases, and
//! the assembly of every metric by name.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use rnknn::{BuildTimes, Engine, EngineConfig};
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::EdgeWeightKind;
use rnknn_objects::{uniform, ObjectSet};
use rnknn_serve::{FrontStats, ServeConfig, ServeFront};

use crate::embed::{self, ColdStart, EmbedPasses, Reference, Tally};
use crate::estimators::{median, percentile_ten_beyond, quartiles};
use crate::inputs::{self, ChurnFeed, Fingerprint, DATASET_SEED};
use crate::json::Value;
use crate::layers;
use crate::schema::{self, MetricSpec, Workload, METHODS, OPEN_RATES};
use crate::serve::{self, Capacity, Harness, Rtt};
use crate::trace::{totals_by_name, Tracer};

/// Target vertex count handed to the generator (yields 23 190 vertices). The
/// driver allows all its runs 3420 s together, which is what rules out the
/// 100k tier: its set-up alone takes 17 s.
const TIER: usize = 20_000;
/// The `--smoke` tier (2 216 vertices).
const SMOKE_TIER: usize = 2_000;

/// Engine instances measured per run, and how many of them come from the full
/// build pipeline (`setup_s` is the median over those, and only they hold ROAD);
/// the rest re-load the last built artifact from a fresh copy, which costs a
/// twentieth of a build and places every array anew just the same.
const INSTANCES: usize = 16;
const BUILT_INSTANCES: usize = 3;

/// How `--seconds` is divided among the measured phases (and then evenly
/// among the instances).
const EMBED_SHARE: f64 = 0.55;
const RTT_SHARE: f64 = 0.05;
const CAPACITY_SHARE: f64 = 0.34;
const BURST_SHARE: f64 = 0.06;
/// Events per second the write path sustained on the box this was sized on; a
/// burst is a fixed *count* of events — `BURST_SHARE × seconds ×` this many per
/// run — so that the same seed and run length always apply the same events.
const NOMINAL_UPDATE_EPS: f64 = 1_000_000.0;

/// Query vertices verified against Dijkstra, and warmed up on, per instance.
const VERIFY_QUERIES: usize = 200;
const WARMUP_QUERIES: usize = 50;

/// Seconds per rung of the traced open-loop ladder (whole one-second windows).
const OPEN_SECONDS: f64 = 3.0;
/// Insert-to-visible samples of the traced freshness probe.
const FRESHNESS_SAMPLES: usize = 200;
/// Update events fed to the direct `objects`/`serve_store` probes.
const PROBE_EVENTS: usize = 4096;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phases together, seconds.
    pub seconds: f64,
    /// Record spans, run the layer probes and the open-loop ladder, and report
    /// the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// The only directory the run writes to.
    pub out: PathBuf,
    /// Small tier, one pass: a functional check, not a measurement.
    pub smoke: bool,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Echo of the arguments.
    pub args: RunArgs,
    /// Hash of every generated input.
    pub fingerprint: String,
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// The reported metrics, in schema order.
    pub metrics: Vec<(MetricSpec, f64)>,
}

impl RunReport {
    fn metrics_value(&self) -> Value {
        Value::Obj(
            self.metrics
                .iter()
                .map(|(spec, value)| {
                    let entry = vec![
                        ("value".to_string(), Value::Num(*value)),
                        ("unit".to_string(), Value::Str(spec.unit.to_string())),
                    ];
                    (spec.name.clone(), Value::Obj(entry))
                })
                .collect(),
        )
    }

    /// The driver's result object: exactly `correct`, `attempted`, `failed`, `metrics`.
    fn result(&self) -> Vec<(String, Value)> {
        vec![
            ("correct".to_string(), Value::Bool(self.failed == 0)),
            ("attempted".to_string(), Value::Num(self.attempted as f64)),
            ("failed".to_string(), Value::Num(self.failed as f64)),
            ("metrics".to_string(), self.metrics_value()),
        ]
    }

    /// The result object on one line, as the driver reads it off standard output.
    pub fn result_line(&self) -> String {
        Value::Obj(self.result()).render()
    }

    /// The result file `compare` reads: what identifies the run, then the result object.
    pub fn file_contents(&self) -> String {
        let mut members = vec![
            ("workload".to_string(), Value::Str(self.args.workload.name().to_string())),
            ("seed".to_string(), Value::Num(self.args.seed as f64)),
            ("seconds".to_string(), Value::Num(self.args.seconds)),
            ("trace".to_string(), Value::Num(self.args.trace as u8 as f64)),
            ("smoke".to_string(), Value::Bool(self.args.smoke)),
            ("gen.input_fingerprint".to_string(), Value::Str(self.fingerprint.clone())),
        ];
        members.extend(self.result());
        Value::Obj(members).render()
    }
}

/// The indexes every run builds: G-tree, CH and ROAD (what the five methods need).
fn build_config() -> EngineConfig {
    EngineConfig {
        build_gtree: true,
        build_road: true,
        build_ch: true,
        build_silc: false,
        build_phl: false,
        build_tnr: false,
        ..EngineConfig::default()
    }
}

/// What a cold start loads: the two persisted indexes.
fn cold_config() -> EngineConfig {
    EngineConfig { build_road: false, ..build_config() }
}

/// What the serving front loads: the G-tree alone, its one method's index.
fn front_config() -> EngineConfig {
    EngineConfig { build_ch: false, ..cold_config() }
}

/// One engine instance with the front that serves its artifact.
struct Instance {
    engine: Engine,
    objects: ObjectSet,
    front: ServeFront,
    responses: rnknn_serve::Receiver<rnknn_serve::KnnResponse>,
    /// The artifact both were made from (cold starts load it again).
    artifact: PathBuf,
}

/// What the full build pipeline took.
#[derive(Debug, Clone, Copy)]
struct BuildCost {
    total: Duration,
    generate: Duration,
    build_times: BuildTimes,
    index_build: Duration,
    save: Duration,
    artifact_bytes: u64,
}

/// Warm-starts a one-worker front from `artifact`. One worker, always: the load
/// generator needs this box's other core.
fn start_front(
    artifact: &Path,
    objects: &ObjectSet,
) -> Result<(ServeFront, rnknn_serve::Receiver<rnknn_serve::KnnResponse>), String> {
    let serve_config = ServeConfig { workers: 1, ..ServeConfig::default() };
    ServeFront::start_from_artifact(artifact, &front_config(), objects.clone(), serve_config)
        .map_err(|e| format!("starting the front from {}: {e}", artifact.display()))
}

/// The full pipeline: generate the network, build the indexes, index the
/// objects, save the artifact and warm-start the serving front from it —
/// everything a deployment does before its first query, timed as one piece and
/// span by span.
fn build_instance(
    tier: usize,
    density: f64,
    artifact: &Path,
    tracer: &mut Tracer,
    parent: u32,
) -> Result<(Instance, BuildCost), String> {
    let start = Instant::now();
    let span = tracer.open("graph.generate", parent);
    let graph = RoadNetwork::generate(&GeneratorConfig::new(tier, DATASET_SEED))
        .graph(EdgeWeightKind::Distance);
    tracer.close(span);
    let generate = start.elapsed();

    let span = tracer.open("core.build", parent);
    let mut engine = Engine::build(graph, &build_config());
    tracer.close(span);
    let build_times = engine.build_times();
    tracer.set_attrs(
        span,
        format!(
            "gtree_us={} ch_us={} road_us={}",
            build_times.gtree_micros, build_times.ch_micros, build_times.road_micros
        ),
    );

    let span = tracer.open("objects.index_build", parent);
    let objects = uniform(engine.graph(), density, DATASET_SEED);
    let t = Instant::now();
    let live = engine.build_object_indexes(objects.clone());
    let index_build = t.elapsed();
    engine.set_object_indexes(live);
    tracer.close(span);

    let span = tracer.open("persist.save", parent);
    let t = Instant::now();
    let artifact_bytes =
        engine.save_indexes(artifact).map_err(|e| format!("saving the artifact: {e}"))?;
    let save = t.elapsed();
    tracer.close(span);

    let span = tracer.open("serve_front.start", parent);
    let (front, responses) = start_front(artifact, &objects)?;
    tracer.close(span);

    let cost = BuildCost {
        total: start.elapsed(),
        generate,
        build_times,
        index_build,
        save,
        artifact_bytes,
    };
    Ok((Instance { engine, objects, front, responses, artifact: artifact.to_path_buf() }, cost))
}

/// The restart path: copy the artifact (fresh page-cache pages, so the mapped
/// arrays land somewhere new), load the persisted indexes — CH and G-tree —
/// from the copy, and warm-start a front from it.
fn load_instance(
    artifact: &Path,
    copy: &Path,
    density: f64,
    tracer: &mut Tracer,
    parent: u32,
) -> Result<Instance, String> {
    let span = tracer.open("persist.load_instance", parent);
    std::fs::copy(artifact, copy).map_err(|e| format!("copying the artifact: {e}"))?;
    let mut engine = Engine::load_indexes(copy, &cold_config())
        .map_err(|e| format!("loading {}: {e}", copy.display()))?;
    let objects = uniform(engine.graph(), density, DATASET_SEED);
    engine.set_objects(objects.clone());
    let (front, responses) = start_front(copy, &objects)?;
    tracer.close(span);
    Ok(Instance { engine, objects, front, responses, artifact: copy.to_path_buf() })
}

/// What one instance's measured phases produced.
struct Measured {
    warmup: Duration,
    embedded: EmbedPasses,
    cold: [ColdStart; 2],
    rtt: Rtt,
    capacity: Capacity,
    update_eps: f64,
    front: FrontStats,
    clone_fallbacks: u64,
    /// Whether the per-query and per-request spans were recorded.
    spans: bool,
}

fn median_of<T>(items: &[T], value: impl Fn(&T) -> f64) -> f64 {
    median(&mut items.iter().map(value).collect::<Vec<_>>())
}

/// Upper quartile (Python's exclusive method, as everywhere); the single value
/// when there is only one (smoke runs).
fn upper_quartile(values: &[f64]) -> f64 {
    match values {
        [] => f64::NAN,
        [only] => *only,
        _ => quartiles(values).2,
    }
}

/// A value that a run too short to compute it (a smoke run) reports as zero.
fn or_zero(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

/// Median and ten-beyond p99 of samples pooled over the instances.
fn p50_p99<'a>(samples: impl Iterator<Item = &'a Vec<f64>>) -> (f64, f64) {
    let mut pooled: Vec<f64> = samples.flatten().copied().collect();
    if pooled.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let p50 = median(&mut pooled);
    (p50, percentile_ten_beyond(&pooled, 0.99).value)
}

/// Runs `args.workload` once and reports every metric of the requested kind.
///
/// A run measures [`INSTANCES`] engine instances one after the other, each with
/// its own warm-started front, each for its share of `--seconds`. The point is
/// placement: where an instance's arrays land in physical memory moves a G-tree
/// query's floor by ±15 % on this box for as long as the instance lives, and a
/// neighbour's cache traffic can own seconds outright. Latencies are therefore
/// per-vertex floors over all instances, throughputs the upper quartile of what
/// the instances sustained — both read what the system does when left alone,
/// which is the only thing about it that repeats.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let workload = args.workload;
    let tier = if args.smoke { SMOKE_TIER } else { TIER };
    let (instances, built_instances) =
        if args.smoke { (2, 1) } else { (INSTANCES, BUILT_INSTANCES) };
    let share = |fraction: f64| Duration::from_secs_f64(args.seconds * fraction / instances as f64);
    let burst_events =
        ((args.seconds * BURST_SHARE * NOMINAL_UPDATE_EPS) as usize / instances).max(64);
    let mut tracer = Tracer::new(args.trace, 600_000);
    let mut tally = Tally::default();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    let run_span = tracer.open("run", 0);
    let stem = format!("engine.{}.{}", workload.name(), std::process::id());
    let artifact = args.out.join(format!("{stem}.rnk"));
    let copy = args.out.join(format!("{stem}.copy.rnk"));

    let mut costs: Vec<BuildCost> = Vec::new();
    let mut measured: Vec<Measured> = Vec::new();
    let mut verify_time = Duration::ZERO;
    let mut reference = Reference::default();
    let mut fingerprint = Fingerprint::default();
    let mut shape = String::new();
    for i in 0..instances {
        // The traced extras need every index, ROAD included: the last built instance.
        let extras = args.trace && i + 1 == built_instances;
        // In a traced run every other instance records the per-query and
        // per-request spans: `trace.overhead_share` compares the two halves.
        let spans = args.trace && i % 2 == 1;
        let instance_span = tracer.open("instance", run_span);

        // ---- set-up ---------------------------------------------------------
        let setup_span = tracer.open("setup", instance_span);
        let instance = if i < built_instances {
            let (instance, cost) =
                build_instance(tier, workload.density(), &artifact, &mut tracer, setup_span)?;
            costs.push(cost);
            instance
        } else {
            load_instance(&artifact, &copy, workload.density(), &mut tracer, setup_span)?
        };
        let Instance { engine, objects, front, responses, artifact: served } = instance;
        let graph = engine.graph();
        let num_vertices = graph.num_vertices();

        // Inputs, all from the seed (the update stream is re-seeded per instance:
        // each instance's store starts from the initial object set again).
        let queries =
            inputs::query_vertices(args.seed, num_vertices, workload.query_count(args.smoke));
        let pairs = inputs::vertex_pairs(args.seed, num_vertices);
        let mut feed = ChurnFeed::new(args.seed.wrapping_add(i as u64), num_vertices, &objects);
        feed.ensure(1024);
        fingerprint.events(feed.upcoming());
        let mut harness = Harness::new(front, responses, queries.clone(), feed, workload.churn());

        if i == 0 {
            fingerprint.word(workload.churn() as u64);
            fingerprint.vertices(&queries);
            fingerprint.vertices(objects.vertices());
            for &(s, t) in &pairs {
                fingerprint.word((s as u64) << 32 | t as u64);
            }
            for rate in OPEN_RATES {
                let schedule = inputs::poisson_schedule(args.seed, rate, OPEN_SECONDS);
                fingerprint.word(schedule.len() as u64);
                schedule.iter().for_each(|&due| fingerprint.word(due));
            }
            // The correctness gates run before anything is timed.
            let verify_span = tracer.open("verify", setup_span);
            let start = Instant::now();
            embed::verify(&engine, &queries, VERIFY_QUERIES, &mut tally);
            harness.verify(3, &mut tally);
            verify_time = start.elapsed();
            tracer.close(verify_span);

            // What the built indexes are: the same in every instance of every run.
            let gtree = engine.gtree().expect("G-tree built");
            let ch = engine.ch().expect("CH built");
            let road = engine.road().expect("ROAD built");
            let live = engine.object_indexes().expect("objects installed");
            put("graph.vertices", num_vertices as f64);
            put("graph.edges", graph.num_edges() as f64);
            put("graph.memory_bytes", graph.memory_bytes() as f64);
            put("gtree.memory_bytes", gtree.memory_bytes() as f64);
            put("gtree.tree_nodes", gtree.num_nodes() as f64);
            put("ch.shortcuts", ch.num_shortcuts() as f64);
            put("ch.memory_bytes", ch.memory_bytes() as f64);
            put("road.memory_bytes", road.memory_bytes() as f64);
            put("spatial.rtree_memory_bytes", live.rtree().memory_bytes() as f64);
            put("objects.count", objects.len() as f64);
            put("persist.artifact_bytes", costs[0].artifact_bytes as f64);
            put(
                "index_bytes",
                (graph.memory_bytes()
                    + gtree.memory_bytes()
                    + ch.memory_bytes()
                    + road.memory_bytes()) as f64,
            );
            shape = format!(
                "{num_vertices} vertices, {} objects, {} query vertices",
                objects.len(),
                queries.len()
            );
        }

        // ---- the embedded phase, on a thread of its own ----------------------------
        // The engine's scratch pool is thread-local: a fresh thread per instance
        // places the scratch anew too, and warms it before the first sample.
        let (warmup, embedded, measure_span) = std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let start = Instant::now();
                let warmup = embed::warm_up(&engine, &queries, WARMUP_QUERIES);
                tracer.record("warmup", setup_span, 0, start, Instant::now());
                tracer.close(setup_span);
                let measure_span = tracer.open("measure", instance_span);
                let embed_span = tracer.open("embed", measure_span);
                let embedded = embed::measure(
                    &engine,
                    &queries,
                    share(EMBED_SHARE),
                    &mut reference,
                    &mut tracer,
                    spans.then_some(embed_span),
                    &mut tally,
                );
                tracer.close(embed_span);
                (warmup, embedded, measure_span)
            });
            worker.join().map_err(|_| "the embedded phase panicked".to_string())
        })?;

        // ---- cold start and the serving phases -----------------------------------------
        let cold_span = tracer.open("persist.cold_start", measure_span);
        let cold = [0, 1].map(|j| {
            let query = queries[(2 * i + j) % queries.len()];
            embed::cold_start(&served, &cold_config(), &engine, query, &mut tally)
        });
        tracer.close(cold_span);
        let rtt_span = tracer.open("serve.rtt", measure_span);
        let rtt = serve::rtt(
            &mut harness,
            share(RTT_SHARE),
            &mut tracer,
            spans.then_some(rtt_span),
            &mut tally,
        );
        tracer.close(rtt_span);
        let capacity_span = tracer.open("serve.capacity", measure_span);
        let capacity = serve::capacity(
            &mut harness,
            share(CAPACITY_SHARE),
            &mut tracer,
            spans.then_some(capacity_span),
            &mut tally,
        );
        tracer.close(capacity_span);
        let update_eps =
            serve::update_burst(&mut harness, burst_events, &mut tracer, measure_span, &mut tally);
        tracer.close(measure_span);

        // ---- traced extras ---------------------------------------------------------------
        if extras {
            let mut delays =
                serve::freshness(&mut harness, FRESHNESS_SAMPLES, args.seed, &mut tally);
            put("serve_store.update_visible_p50_us", median(&mut delays));
            put("serve_store.update_visible_p90_us", percentile_ten_beyond(&delays, 0.90).value);
            let ladder_span = tracer.open("serve.open_loop", instance_span);
            for rate in OPEN_RATES {
                let seconds = if args.smoke { 1.0 } else { OPEN_SECONDS };
                let rung = serve::open_loop(&mut harness, rate, seconds, args.seed, &mut tally);
                put(&format!("serve_front.open_p50_us.r{rate}"), or_zero(rung.p50_us));
                put(&format!("serve_front.open_p99_us.r{rate}"), or_zero(rung.p99_us));
                put(&format!("gen.lateness_p99_us.r{rate}"), or_zero(rung.lateness_p99_us));
            }
            tracer.close(ladder_span);
        }
        let (front, clone_fallbacks) = serve::shutdown(&mut harness);
        drop(harness);
        if extras {
            // The probes work on the initial object set — the one the embedded phase
            // measured, so that engine p50 minus direct p50 is dispatch and nothing
            // else — and on an update stream of their own, effective against it.
            let probe_events =
                ChurnFeed::new(args.seed ^ 0x70_0B_E5, num_vertices, &objects).take(PROBE_EVENTS);
            let live = engine.object_indexes().expect("objects installed").clone();
            let engine = Arc::new(engine);
            let layers_span = tracer.open("layers", instance_span);
            let probes = layers::probe(
                &engine,
                &live,
                &queries,
                &pairs,
                &probe_events,
                &mut tracer,
                layers_span,
            );
            tracer.close(layers_span);
            for &(name, value) in &probes {
                put(name, value);
            }
        }
        tracer.close(instance_span);
        measured.push(Measured {
            warmup,
            embedded,
            cold,
            rtt,
            capacity,
            update_eps,
            front,
            clone_fallbacks,
            spans,
        });
    }
    tracer.close(run_span);
    // The artifacts are scratch, not results: 29 MB apiece would pile up.
    let _ = std::fs::remove_file(&artifact);
    let _ = std::fs::remove_file(&copy);

    // ---- end-to-end values ------------------------------------------------------------
    let setup_s = median_of(&costs, |c| c.total.as_secs_f64())
        + verify_time.as_secs_f64()
        + median_of(&measured, |m| m.warmup.as_secs_f64());
    put("setup_s", setup_s);
    let mut p99_evidence = None;
    for (m, (_, tag)) in METHODS.into_iter().enumerate() {
        let (p50, p99) =
            embed::floor_stats(measured.iter().flat_map(|inst| inst.embedded.times[m].iter()));
        put(&format!("knn_p50_us.{tag}"), p50);
        put(&format!("core.knn_p99_us.{tag}"), p99.value);
        p99_evidence = Some(p99);
    }
    let cold: Vec<ColdStart> = measured.iter().flat_map(|m| m.cold).collect();
    let cold_ms: Vec<f64> = cold.iter().map(|c| c.load_ms + c.first_query_us / 1e3).collect();
    // The lower quartile, like every other timing here: what a load costs when
    // nothing else is using the memory system.
    put("cold_start_ms", quartiles(&cold_ms).0);
    let slices: Vec<f64> =
        measured.iter().flat_map(|m| m.capacity.slice_qps.iter().copied()).collect();
    let whole: Vec<f64> = measured.iter().map(|m| m.capacity.qps).collect();
    // Smoke windows are shorter than a slice: fall back to the whole windows.
    let rates = if slices.len() >= 2 { &slices } else { &whole };
    put("serve_capacity_qps", upper_quartile(rates));
    let bursts: Vec<f64> = measured.iter().map(|m| m.update_eps).collect();
    put("update_capacity_eps", upper_quartile(&bursts));

    // ---- per-layer values that need no probe ---------------------------------------------
    put("graph.generate_s", median_of(&costs, |c| c.generate.as_secs_f64()));
    put("gtree.build_s", median_of(&costs, |c| c.build_times.gtree_micros as f64 / 1e6));
    put("ch.build_s", median_of(&costs, |c| c.build_times.ch_micros as f64 / 1e6));
    put("road.build_s", median_of(&costs, |c| c.build_times.road_micros as f64 / 1e6));
    put("objects.index_build_ms", median_of(&costs, |c| c.index_build.as_secs_f64() * 1e3));
    put("persist.save_s", median_of(&costs, |c| c.save.as_secs_f64()));
    put("persist.load_ms", median_of(&cold, |c| c.load_ms));
    put("persist.first_query_us", median_of(&cold, |c| c.first_query_us));
    put("core.warmup_ms", median_of(&measured, |m| m.warmup.as_secs_f64() * 1e3));
    let per_query = workload.query_count(args.smoke) as f64;
    for (m, (_, tag)) in METHODS.into_iter().enumerate() {
        // Exact counts, from the first pass on the first instance.
        let c = &measured[0].embedded.counters[m];
        put(&format!("core.nodes_expanded.{tag}"), c.nodes_expanded as f64 / per_query);
        put(&format!("core.heap_operations.{tag}"), c.heap_operations as f64 / per_query);
        put(&format!("core.oracle_calls.{tag}"), c.oracle_calls as f64 / per_query);
        put(&format!("core.candidates_examined.{tag}"), c.candidates_examined as f64 / per_query);
        put(&format!("core.matrix_cells.{tag}"), c.matrix_cells as f64 / per_query);
        let busy: Duration = measured.iter().map(|inst| inst.embedded.busy[m]).sum();
        put(&format!("core.busy_s.{tag}"), busy.as_secs_f64());
    }
    let (rtt_p50, rtt_p99) = p50_p99(measured.iter().map(|m| &m.rtt.rtt_ns));
    let (search_p50, search_p99) = p50_p99(measured.iter().map(|m| &m.rtt.search_us));
    put("serve_front.rtt_p50_us", or_zero(rtt_p50 / 1e3));
    put("serve_front.rtt_p99_us", or_zero(rtt_p99 / 1e3));
    put("serve_front.search_p50_us", or_zero(search_p50));
    put("serve_front.search_p99_us", or_zero(search_p99));
    put("serve_front.overhead_p50_us", or_zero(rtt_p50 / 1e3 - search_p50));
    put("serve_front.worker_busy_share", median_of(&measured, |m| m.capacity.worker_busy_share));
    put("serve_front.submit_ns", median_of(&measured, |m| m.capacity.submit_ns));
    let (q1, q2, q3) =
        if rates.len() >= 2 { quartiles(rates) } else { (rates[0], rates[0], rates[0]) };
    put("serve_front.qps_q1", q1);
    put("serve_front.qps_q3", q3);
    let sum = |field: fn(&FrontStats) -> u64| {
        measured.iter().map(|m| field(&m.front)).sum::<u64>() as f64
    };
    put("serve_front.mean_batch", sum(|f| f.served) / sum(|f| f.batches).max(1.0));
    put("serve_front.shed_expired", sum(|f| f.shed_expired));
    put("serve_front.deadline_exceeded", sum(|f| f.deadline_exceeded));
    put("serve_front.worker_panics", sum(|f| f.worker_panics));
    put("serve_front.worker_restarts", sum(|f| f.worker_restarts));
    put("serve_store.epochs_published", sum(|f| f.epochs_published));
    put("serve_store.updates_applied", sum(|f| f.updates_applied));
    put(
        "serve_store.clone_fallbacks",
        measured.iter().map(|m| m.clone_fallbacks).sum::<u64>() as f64,
    );
    // Tracing's cost on the workload's own headline: the instances that recorded
    // per-operation spans against the ones that did not.
    let headline = |with_spans: bool| -> f64 {
        let half = || measured.iter().filter(move |m| m.spans == with_spans);
        if workload.is_embed() {
            (0..METHODS.len())
                .map(|m| {
                    embed::floor_stats(half().flat_map(|inst| inst.embedded.times[m].iter())).0
                })
                .sum()
        } else {
            1.0 / upper_quartile(&half().map(|m| m.capacity.qps).collect::<Vec<_>>())
        }
    };
    let overhead = if args.trace { or_zero(headline(true) / headline(false) - 1.0) } else { 0.0 };
    put("trace.overhead_share", overhead);
    put("trace.spans", tracer.spans().len() as f64);
    put("failed_share", tally.failed as f64 / tally.attempted.max(1) as f64);

    let passes: Vec<String> = measured.iter().map(|m| m.embedded.passes().to_string()).collect();
    let p99 = p99_evidence.expect("five methods");
    println!(
        "# {} seed {} seconds {} trace {}{}: {shape}; {} instances ({} built) of {} passes; p99 is p{:.1} with {} of {} floors beyond",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        if args.smoke { " SMOKE" } else { "" },
        measured.len(),
        costs.len(),
        passes.join("+"),
        p99.rank * 100.0,
        p99.beyond,
        p99.samples,
    );
    println!(
        "# capacity: {} slices of {} ms, q/s quartiles {q1:.0} / {q2:.0} / {q3:.0}; {} bursts of {burst_events} events",
        slices.len(),
        serve::SLICE.as_millis(),
        bursts.len(),
    );

    if args.trace {
        let path = args.out.join(format!("trace.{}.json", workload.name()));
        tracer.write_json(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "# {} spans ({} dropped) written to {}; self time by span name:",
            tracer.spans().len(),
            tracer.dropped(),
            path.display()
        );
        for (name, totals) in totals_by_name(tracer.spans()) {
            println!(
                "#   {name:<28} {:>8} spans  total {:>10.3} ms  self {:>10.3} ms",
                totals.count,
                totals.total_ns as f64 / 1e6,
                totals.self_ns as f64 / 1e6
            );
        }
    }

    let specs = if args.trace { schema::per_layer() } else { schema::end_to_end() };
    let metrics: Vec<(MetricSpec, f64)> = specs
        .into_iter()
        .map(|spec| {
            let value = *values
                .get(&spec.name)
                .unwrap_or_else(|| panic!("metric {} was never computed", spec.name));
            (spec, value)
        })
        .collect();
    let report = RunReport {
        args: args.clone(),
        fingerprint: fingerprint.hex(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    };
    for (spec, value) in &report.metrics {
        println!("{:<40} {:>18} {}", spec.name, Value::Num(*value).render(), spec.unit);
    }
    println!("gen.input_fingerprint                    {}", report.fingerprint);
    println!("failed / attempted                       {} / {}", report.failed, report.attempted);

    let millis = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis());
    let path = args.out.join(format!(
        "{}.seed{}.trace{}.{millis}.json",
        workload.name(),
        args.seed,
        args.trace as u8
    ));
    std::fs::write(&path, report.file_contents() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(report)
}
