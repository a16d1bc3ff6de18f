//! Experiment harness shared by the `experiments` and `trajectory_bench` binaries.
//!
//! The harness mirrors the paper's experimental setup (Section 7.1): synthetic stand-ins
//! for the DIMACS road networks ([`rnknn_graph::DatasetPreset`]), uniform / clustered /
//! minimum-distance / POI-like object sets, query workloads averaged over many random
//! query vertices, and per-method timing. Every table and figure of the paper maps to
//! one experiment in the `experiments` binary (run it without arguments for the
//! list). The committed `BENCH_*.json` scaling trajectories come
//! from the `trajectory_bench` binary: the per-bench `measure` functions below
//! return flat [`track::Record`]s, and [`track`] is their one writer and reader.

#![forbid(unsafe_code)]

pub mod cli;
pub mod track;

use std::time::Instant;

use rnknn::engine::{Engine, EngineConfig, Method};
use rnknn::QueryStats;
use rnknn_graph::generator::DatasetPreset;
use rnknn_graph::{EdgeWeightKind, Graph, NodeId};
use rnknn_objects::{uniform, ObjectSet};

/// Default scale factor applied to the dataset presets so the full experiment suite
/// runs on a laptop. Raise it (e.g. `--scale 1.0`) for larger runs.
pub const DEFAULT_SCALE: f64 = 0.15;

/// Default number of query vertices per measurement (the paper averages over 10,000;
/// the harness default keeps full sweeps fast while remaining stable).
pub const DEFAULT_QUERIES: usize = 40;

/// A prepared testbed: road network + engine + query workload.
pub struct Testbed {
    /// The preset this testbed was generated from.
    pub preset: DatasetPreset,
    /// The engine holding the road network and its indexes.
    pub engine: Engine,
    /// Query vertices used for every measurement.
    pub queries: Vec<NodeId>,
}

/// Options controlling testbed construction.
#[derive(Debug, Clone)]
pub struct TestbedOptions {
    /// Scale factor applied to the preset's vertex count.
    pub scale: f64,
    /// Edge-weight kind.
    pub kind: EdgeWeightKind,
    /// Number of query vertices.
    pub num_queries: usize,
    /// Engine configuration (which indexes to build).
    pub engine: EngineConfig,
    /// Index-artifact persistence: save built indexes / cold-start from disk
    /// (the `--save`/`--load` flags of the `experiments` binary).
    pub artifacts: artifacts::ArtifactIo,
}

impl Default for TestbedOptions {
    fn default() -> Self {
        TestbedOptions {
            scale: DEFAULT_SCALE,
            kind: EdgeWeightKind::Distance,
            num_queries: DEFAULT_QUERIES,
            engine: EngineConfig::default(),
            artifacts: artifacts::ArtifactIo::default(),
        }
    }
}

impl Testbed {
    /// Builds a testbed for `preset`. When the options carry a `--load`
    /// directory, the network and the engine's CH/G-tree come from the saved
    /// artifact instead of being generated and built; `--save` persists them
    /// after the build.
    pub fn build(preset: DatasetPreset, options: &TestbedOptions) -> Testbed {
        let tag = format!("{}-{:?}-{}", preset.name().to_lowercase(), options.kind, options.scale);
        let engine = artifacts::obtain_engine(&tag, &options.engine, &options.artifacts, || {
            preset.generate(options.scale).graph(options.kind)
        });
        let n = engine.graph().num_vertices() as NodeId;
        let queries: Vec<NodeId> = (0..options.num_queries as u64)
            .map(|i| ((i * 2_654_435_769) % n as u64) as NodeId)
            .collect();
        Testbed { preset, engine, queries }
    }

    /// The graph under test.
    pub fn graph(&self) -> &Graph {
        self.engine.graph()
    }

    /// Injects a uniform object set of the given density.
    pub fn set_uniform_objects(&mut self, density: f64, seed: u64) -> usize {
        let objects = uniform(self.engine.graph(), density, seed);
        let len = objects.len();
        self.engine.set_objects(objects);
        len
    }

    /// Injects an arbitrary object set.
    pub fn set_objects(&mut self, objects: ObjectSet) {
        self.engine.set_objects(objects);
    }

    /// Average query time in microseconds of `method` over the testbed's query workload.
    pub fn avg_query_micros(&self, method: Method, k: usize) -> f64 {
        if !self.engine.supports(method) {
            return f64::NAN;
        }
        let start = Instant::now();
        let mut sink = 0u64;
        for &q in &self.queries {
            let output = self.engine.query(method, q, k).expect("supported method with objects");
            sink = sink.wrapping_add(output.result.last().map(|&(_, d)| d).unwrap_or(0));
        }
        // Keep the optimiser honest.
        std::hint::black_box(sink);
        start.elapsed().as_micros() as f64 / self.queries.len().max(1) as f64
    }

    /// Aggregate [`QueryStats`] of `method` over the testbed's query workload
    /// (the per-method counters behind Figure 9(b) / Table 3).
    pub fn workload_stats(&self, method: Method, k: usize) -> Option<QueryStats> {
        if !self.engine.supports(method) {
            return None;
        }
        let mut total = QueryStats::default();
        for &q in &self.queries {
            let output = self.engine.query(method, q, k).ok()?;
            total.accumulate(&output.stats);
        }
        Some(total)
    }

    /// Average query time of `method` when the workload is fanned across threads
    /// with [`Engine::knn_batch`] (wall-clock per query, not per-thread work).
    pub fn avg_batch_query_micros(&self, method: Method, k: usize) -> f64 {
        if !self.engine.supports(method) {
            return f64::NAN;
        }
        let start = Instant::now();
        let batch = self.engine.knn_batch(method, &self.queries, k).expect("supported method");
        std::hint::black_box(batch.len());
        start.elapsed().as_micros() as f64 / self.queries.len().max(1) as f64
    }
}

/// One row of an experiment's output: a label plus one value per series.
#[derive(Debug, Clone)]
pub struct Row {
    pub label: String,
    pub values: Vec<f64>,
}

/// A simple fixed-width table mirroring one figure/table of the paper.
#[derive(Debug, Clone)]
pub struct Table {
    /// e.g. "Figure 10(a): query time vs k (NW, d=0.001)".
    pub title: String,
    /// Column label for the row key (e.g. "k", "density").
    pub key: String,
    /// Series names (e.g. method names).
    pub series: Vec<String>,
    /// Unit of the values (e.g. "µs", "MB").
    pub unit: String,
    pub rows: Vec<Row>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, key: &str, series: Vec<String>, unit: &str) -> Table {
        Table {
            title: title.to_string(),
            key: key.to_string(),
            series,
            unit: unit.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, label: impl Into<String>, values: Vec<f64>) {
        self.rows.push(Row { label: label.into(), values });
    }

    /// Renders the table as monospace text (stdout and `experiments_results.md`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        out.push_str(&format!("(values in {})\n", self.unit));
        out.push_str(&format!("{:<16}", self.key));
        for s in &self.series {
            out.push_str(&format!("{:>14}", s));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{:<16}", row.label));
            for v in &row.values {
                if v.is_nan() {
                    out.push_str(&format!("{:>14}", "n/a"));
                } else if *v >= 100.0 {
                    out.push_str(&format!("{:>14.0}", v));
                } else {
                    out.push_str(&format!("{:>14.2}", v));
                }
            }
            out.push('\n');
        }
        out.push('\n');
        out
    }
}

/// The parameter defaults of Table 4.
pub mod defaults {
    /// Default k.
    pub const K: usize = 10;
    /// Default uniform object density.
    pub const DENSITY: f64 = 0.001;
    /// The k values swept by the paper.
    pub const K_SWEEP: [usize; 5] = [1, 5, 10, 25, 50];
    /// The density values swept by the paper.
    pub const DENSITY_SWEEP: [f64; 5] = [0.0001, 0.001, 0.01, 0.1, 1.0];
}

/// The six committed trajectories: `trajectory_bench` subcommand and the
/// `<bench>` of its `BENCH_<bench>.json` (also the first segment of every
/// record name in that file).
pub const BENCHES: [(&str, &str); 6] = [
    ("ch", "ch_build"),
    ("gtree", "gtree_build"),
    ("knn", "knn_query"),
    ("serving", "serving"),
    ("cold-start", "cold_start"),
    ("work", "work"),
];

/// Identity digests (`BENCH_work.json`): what a tier's indexes are and how much
/// work each benchmarked method does on them, all exact counts. Per tier it holds
/// the saved artifact's size and checksum, and per method of
/// [`knn_query::METHODS`] the sum of every `QueryStats` counter over a fixed
/// seeded query set. A change that leaves the indexes and the searches alone
/// leaves the file as it is; one that changes them shows the change as a diff of
/// this file. The tests recompute the 2k tier in every build and the 23k tier
/// in release builds, and compare exactly.
pub mod work {
    use rnknn::engine::{Engine, EngineConfig};
    use rnknn::QueryStats;
    use rnknn_graph::NodeId;
    use rnknn_objects::uniform;

    use crate::artifacts::{engine_config, tier_graph};
    use crate::defaults::K;
    use crate::knn_query::METHODS;
    use crate::track::{self, Record};

    /// The generator sizes of the two tiers (2 216 and 23 190 vertices).
    pub const SIZES: [usize; 2] = [2_000, 20_000];
    /// Queries per method: vertex `i · 2654435769 mod |V|` for `i < QUERIES`.
    const QUERIES: u64 = 200;
    /// Uniform object density (seed 1).
    const DENSITY: f64 = 0.01;

    /// The digest records of the tier generated at `size`, named
    /// `work/<vertices>/...`.
    pub fn measure(size: usize) -> Vec<Record> {
        let config = EngineConfig { build_road: true, ..engine_config(true, true) };
        let mut engine = Engine::build(tier_graph(size), &config);
        let artifact = engine.save_indexes_to_vec().expect("save the tier's indexes");
        let checksum = rnknn_persist::checksum(&artifact);
        engine.set_objects(uniform(engine.graph(), DENSITY, 1));
        let n = engine.graph().num_vertices() as u64;
        let tier = format!("work/{n}");
        // A JSON number holds a 32-bit half exactly, not the whole 64-bit checksum.
        let mut records = track::records(
            &tier,
            &[
                ("artifact_bytes", artifact.len() as f64, "bytes"),
                ("artifact_checksum_hi", (checksum >> 32) as f64, "u32"),
                ("artifact_checksum_lo", (checksum & u64::from(u32::MAX)) as f64, "u32"),
                ("objects", engine.objects().map_or(0, |o| o.len()) as f64, "count"),
                ("queries", QUERIES as f64, "count"),
            ],
        );
        for method in METHODS {
            let mut total = QueryStats::default();
            for i in 0..QUERIES {
                let q = (i * 2_654_435_769 % n) as NodeId;
                let output = engine.query(method, q, K).expect("digest query");
                total.accumulate(&output.stats);
            }
            records.extend(track::records(&format!("{tier}/{}", method.name()), &counters(&total)));
        }
        records
    }

    /// The names of the five exact [`QueryStats`] counters, in record order.
    pub(crate) const COUNTERS: [&str; 5] = [
        "nodes_expanded",
        "heap_operations",
        "oracle_calls",
        "candidates_examined",
        "matrix_cells",
    ];

    /// `total`'s five counters as record fields named by [`COUNTERS`].
    pub(crate) fn counters(total: &QueryStats) -> [(&'static str, f64, &'static str); 5] {
        let values = [
            total.nodes_expanded,
            total.heap_operations,
            total.oracle_calls,
            total.candidates_examined,
            total.matrix_cells,
        ];
        std::array::from_fn(|i| (COUNTERS[i], values[i] as f64, "count"))
    }
}

/// Index-artifact persistence behind the `--save DIR` / `--load DIR` flags:
/// build once, write the versioned artifact, and let every later run (or a
/// fresh process, as the CI scaling job does) cold-start from disk instead of
/// paying the minutes-long CH/G-tree builds.
pub mod artifacts {
    use std::path::PathBuf;
    use std::time::Instant;

    use rnknn::engine::{Engine, EngineConfig};
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::{EdgeWeightKind, Graph};

    /// Where a bench run saves its built indexes and/or loads them from.
    #[derive(Debug, Clone, Default)]
    pub struct ArtifactIo {
        /// Directory to save built indexes into (`--save DIR`).
        pub save_dir: Option<String>,
        /// Directory to load indexes from instead of building (`--load DIR`).
        pub load_dir: Option<String>,
    }

    /// An engine configuration building exactly the named persisted indexes.
    pub(crate) fn engine_config(gtree: bool, ch: bool) -> EngineConfig {
        EngineConfig {
            build_gtree: gtree,
            build_road: false,
            build_silc: false,
            build_ch: ch,
            build_phl: false,
            build_tnr: false,
            ..Default::default()
        }
    }

    /// The generated network of one trajectory tier (seed 42, distance weights).
    pub(crate) fn tier_graph(size: usize) -> Graph {
        RoadNetwork::generate(&GeneratorConfig::new(size, 42)).graph(EdgeWeightKind::Distance)
    }

    /// [`obtain_engine`] for one trajectory tier: the artifact is
    /// `rnknn-<bench>-<size>.rnk`, the network [`tier_graph`]`(size)`.
    pub(crate) fn tier_engine(
        bench: &str,
        size: usize,
        config: &EngineConfig,
        io: &ArtifactIo,
    ) -> Engine {
        obtain_engine(&format!("{bench}-{size}"), config, io, || tier_graph(size))
    }

    /// The load-or-generate → build → save ladder: loads the engine from
    /// `DIR/rnknn-<tag>.rnk` when `--load DIR` is set (`graph` is never called),
    /// builds it over `graph()` otherwise, and saves the built indexes when
    /// `--save DIR` is set. `tag` must be stable between the saving and the
    /// loading run.
    pub(crate) fn obtain_engine(
        tag: &str,
        config: &EngineConfig,
        io: &ArtifactIo,
        graph: impl FnOnce() -> Graph,
    ) -> Engine {
        let path = |dir: &str| PathBuf::from(dir).join(format!("rnknn-{tag}.rnk"));
        let report = |action: &str, bytes: u64, start: Instant| {
            let mib = bytes as f64 / (1024.0 * 1024.0);
            println!(
                "artifact {action} {tag}: {mib:.1} MiB in {:.0}ms",
                start.elapsed().as_secs_f64() * 1e3
            );
        };
        if let Some(dir) = &io.load_dir {
            let (p, start) = (path(dir), Instant::now());
            let engine = Engine::load_indexes(&p, config)
                .unwrap_or_else(|e| panic!("load {}: {e}", p.display()));
            report("loaded", std::fs::metadata(&p).map(|m| m.len()).unwrap_or(0), start);
            return engine;
        }
        let engine = Engine::build(graph(), config);
        if let Some(dir) = &io.save_dir {
            std::fs::create_dir_all(dir).expect("create --save directory");
            let (p, start) = (path(dir), Instant::now());
            let bytes =
                engine.save_indexes(&p).unwrap_or_else(|e| panic!("save {}: {e}", p.display()));
            report("saved", bytes, start);
        }
        engine
    }
}

/// CH construction scaling (`BENCH_ch_build.json`): build hierarchies on
/// generated networks of increasing size and verify exactness against Dijkstra.
pub mod ch_build {
    use rnknn_graph::NodeId;
    use rnknn_pathfinding::dijkstra;

    use crate::artifacts::{engine_config, tier_engine, ArtifactIo};
    use crate::track::{self, Record};

    /// Builds (or `--load`s) a default-config CH per requested size, asserting
    /// exactness against Dijkstra on 20 vertex pairs so a fast-but-wrong build
    /// never lands in the trajectory. A loaded hierarchy reports
    /// `build_seconds` 0; `trajectory_bench` does not track `--load` runs.
    pub fn measure(sizes: &[usize], io: &ArtifactIo) -> Vec<Record> {
        let mut records = Vec::new();
        for &size in sizes {
            let engine = tier_engine("ch", size, &engine_config(false, true), io);
            let (g, ch) = (engine.graph(), engine.ch().expect("CH requested"));
            let n = g.num_vertices() as NodeId;
            for i in 0..20 {
                let s = (i * 7919) % n;
                let t = (i * 104_729 + 31) % n;
                assert_eq!(
                    ch.distance(s, t),
                    dijkstra::distance(g, s, t),
                    "{s}->{t} at size {size}"
                );
            }
            let build_seconds = engine.build_times().ch_micros as f64 / 1e6;
            println!(
                "ch build n={:>7} vertices={:>7} edges={:>7} shortcuts={:>7} time={:.3}s",
                size,
                g.num_vertices(),
                g.num_edges(),
                ch.num_shortcuts(),
                build_seconds
            );
            let tier = format!("ch_build/{}", g.num_vertices());
            records.extend(track::records(
                &tier,
                &[
                    ("edges", g.num_edges() as f64, "count"),
                    ("shortcuts", ch.num_shortcuts() as f64, "count"),
                    ("build_seconds", build_seconds, "s"),
                ],
            ));
        }
        records
    }
}

/// G-tree construction scaling (`BENCH_gtree_build.json`): build G-trees on
/// generated networks of increasing size and verify kNN results against a
/// Dijkstra brute force (the CH analogue is [`ch_build`]).
pub mod gtree_build {
    use rnknn::gtree::{GtreeSearch, LeafSearchMode, OccurrenceList};
    use rnknn_graph::{NodeId, Weight};
    use rnknn_pathfinding::dijkstra;

    use crate::artifacts::{engine_config, tier_engine, ArtifactIo};
    use crate::track::{self, Record};

    /// Builds (or `--load`s) a G-tree per requested size with the paper's
    /// size-based leaf capacity, asserting kNN agreement against a Dijkstra
    /// brute force on 5 query vertices so a fast-but-wrong build never lands
    /// in the trajectory. A loaded tree reports `build_seconds` 0;
    /// `trajectory_bench` does not track `--load` runs.
    pub fn measure(sizes: &[usize], io: &ArtifactIo) -> Vec<Record> {
        let mut records = Vec::new();
        for &size in sizes {
            let engine = tier_engine("gtree", size, &engine_config(true, false), io);
            let (g, tree) = (engine.graph(), engine.gtree().expect("G-tree requested"));
            let n = g.num_vertices() as NodeId;
            let objects: Vec<NodeId> = (0..n).filter(|v| v % 101 == 3).collect();
            let occ = OccurrenceList::build(tree, &objects);
            for i in 0..5 {
                let q = (i * 7919 + 13) % n;
                let truth = dijkstra::single_source(g, q);
                let mut want: Vec<Weight> = objects.iter().map(|&o| truth[o as usize]).collect();
                want.sort_unstable();
                want.truncate(10);
                let mut search = GtreeSearch::new(tree, g, q);
                let got: Vec<Weight> = search
                    .knn(10, &occ, LeafSearchMode::Improved)
                    .iter()
                    .map(|&(_, d)| d)
                    .collect();
                assert_eq!(got, want, "kNN mismatch from {q} at size {size}");
            }
            let build_seconds = engine.build_times().gtree_micros as f64 / 1e6;
            println!(
                "gtree build n={:>7} vertices={:>7} edges={:>7} nodes={:>5} mem={:>9}B time={:.3}s",
                size,
                g.num_vertices(),
                g.num_edges(),
                tree.num_nodes(),
                tree.memory_bytes(),
                build_seconds
            );
            let tier = format!("gtree_build/{}", g.num_vertices());
            records.extend(track::records(
                &tier,
                &[
                    ("edges", g.num_edges() as f64, "count"),
                    ("tree_nodes", tree.num_nodes() as f64, "count"),
                    ("memory_bytes", tree.memory_bytes() as f64, "bytes"),
                    ("build_seconds", build_seconds, "s"),
                ],
            ));
        }
        records
    }
}

/// kNN query-latency scaling (`BENCH_knn_query.json`): build the query-side
/// indexes on generated networks of increasing size, verify every method
/// against the Dijkstra ground truth, then measure per-method work (the summed
/// `QueryStats` counters), p50 latency and queries/sec of `Engine::query_into`
/// on the warm per-thread scratch pool.
pub mod knn_query {
    use std::time::Instant;

    use rnknn::engine::{Engine, EngineConfig, Method};
    use rnknn::verify::matches_ground_truth;
    use rnknn::{QueryOutput, QueryStats};
    use rnknn_graph::NodeId;
    use rnknn_objects::uniform;

    use crate::artifacts::{engine_config, tier_engine, ArtifactIo};
    use crate::defaults::K;
    use crate::track::{self, Record};
    use crate::work::{counters, COUNTERS};

    /// The methods the trajectory tracks: the acceptance trio (G-tree, INE, IER-CH),
    /// IER-Gt, which shares the G-tree materialization pool, and ROAD — the other
    /// expansion search, derived from the G-tree at every tier. The heavier index
    /// builds (SILC, PHL, TNR) are excluded so the 580k tier stays buildable in
    /// minutes.
    pub const METHODS: [Method; 5] =
        [Method::Ine, Method::Gtree, Method::IerGtree, Method::IerCh, Method::Road];

    /// Timed passes per method; `p50_us` and `qps` are their medians.
    const PASSES: usize = 3;

    /// Measures every tracked method at every requested size. Each method is
    /// first verified against the Dijkstra ground truth on 3 query vertices,
    /// so a fast-but-wrong query path never lands in the trajectory — on the
    /// `--load` path this doubles as the loaded-artifact conformance gate. Then
    /// one warm-up pass per method, and three timed passes interleaved
    /// across the methods, so a slow stretch of the host lands on one sample of
    /// each method rather than on every sample of one. Every pass must do the
    /// same work.
    pub fn measure(
        sizes: &[usize],
        queries_per_size: usize,
        density: f64,
        io: &ArtifactIo,
    ) -> Vec<Record> {
        let mut records = Vec::new();
        for &size in sizes {
            let build_start = Instant::now();
            let config = EngineConfig { build_road: true, ..engine_config(true, true) };
            let mut engine = tier_engine("knn", size, &config, io);
            let objects = uniform(engine.graph(), density, 1);
            engine.set_objects(objects.clone());
            let n = engine.graph().num_vertices() as NodeId;
            let build_seconds = build_start.elapsed().as_secs_f64();
            println!(
                "knn query bench n={:>7} vertices={:>7} objects={:>6} (indexes built in {:.1}s)",
                size,
                engine.graph().num_vertices(),
                objects.len(),
                build_seconds
            );
            let queries: Vec<NodeId> = (0..queries_per_size as u64)
                .map(|i| ((i * 2_654_435_769) % n as u64) as NodeId)
                .collect();
            let tier = format!("knn_query/{n}");
            // `engine_build_seconds` is the whole-engine row: network generation,
            // `Engine::build` with the CH chain beside the partition family (its
            // schedule), object install — the figure printed above. The paper's
            // per-index construction series stay one builder at a time:
            // `trajectory_bench ch` / `gtree` build single-index engines and
            // `experiments fig8` / `fig26` call each builder directly.
            records.extend(track::records(
                &tier,
                &[
                    ("objects", objects.len() as f64, "count"),
                    ("queries", queries.len() as f64, "count"),
                    ("engine_build_seconds", build_seconds, "s"),
                ],
            ));
            if let Some(road) = engine.road() {
                let bytes = road.memory_bytes() as f64;
                records.extend(track::records(&tier, &[("ROAD/memory_bytes", bytes, "bytes")]));
            }

            let methods: Vec<Method> =
                METHODS.into_iter().filter(|&m| engine.supports(m)).collect();
            let mut out = QueryOutput::default();
            for &method in &methods {
                // Exactness gate.
                for &q in queries.iter().take(3) {
                    let output = engine.query(method, q, K).expect("query");
                    assert!(
                        matches_ground_truth(engine.graph(), q, K, &objects, &output.result),
                        "{} wrong at q={q} size={size}",
                        method.name()
                    );
                }
                timed_pass(&engine, method, &queries, &mut out);
            }
            let mut passes: Vec<Vec<Pass>> =
                methods.iter().map(|_| Vec::with_capacity(PASSES)).collect();
            for _ in 0..PASSES {
                for (samples, &method) in passes.iter_mut().zip(&methods) {
                    samples.push(timed_pass(&engine, method, &queries, &mut out));
                }
            }
            for (samples, method) in passes.iter_mut().zip(methods) {
                let work = counters(&samples[0].work);
                for pass in &samples[1..] {
                    assert_eq!(
                        counters(&pass.work),
                        work,
                        "{} did different work in two passes over the same queries at {tier}",
                        method.name()
                    );
                }
                let p50 = median(samples.iter().map(|pass| pass.p50_us).collect());
                let qps = median(samples.iter().map(|pass| pass.qps).collect());
                println!("  {:<8} p50={:>8.1}µs ({:>9.0} q/s)", method.name(), p50, qps);
                let mut fields = vec![("p50_us", p50, "µs"), ("qps", qps.round(), "q/s")];
                fields.extend(work);
                records.extend(track::records(&format!("{tier}/{}", method.name()), &fields));
            }
        }
        records
    }

    /// One timed pass of `method` over `queries`.
    struct Pass {
        p50_us: f64,
        qps: f64,
        /// The pass's summed counters.
        work: QueryStats,
    }

    /// Runs `method` once over `queries` with `query_into` on a reused output.
    fn timed_pass(
        engine: &Engine,
        method: Method,
        queries: &[NodeId],
        out: &mut QueryOutput,
    ) -> Pass {
        let mut times = Vec::with_capacity(queries.len());
        let mut work = QueryStats::default();
        let pass_start = Instant::now();
        for &q in queries {
            let start = Instant::now();
            engine.query_into(method, q, K, out).expect("pooled query");
            times.push(start.elapsed().as_micros() as u64);
            work.accumulate(&out.stats);
        }
        let qps = queries.len() as f64 / pass_start.elapsed().as_secs_f64().max(1e-9);
        times.sort_unstable();
        Pass { p50_us: times[times.len() / 2] as f64, qps, work }
    }

    fn median(mut samples: Vec<f64>) -> f64 {
        samples.sort_unstable_by(f64::total_cmp);
        samples[samples.len() / 2]
    }

    /// Fails the run if a method's work or time in `current` moved against
    /// `baseline` (the trajectory file's previous contents), for every tracked
    /// method. Work is gated exactly: each summed `QueryStats` counter must equal
    /// its committed value, on any host. Time is gated coarsely: a `p50_us` may
    /// be at most twice its committed value — wide enough that a shared or
    /// slower host does not fail it, while a search that does the same work at
    /// twice the cost does. Tiers are matched by record name, i.e. by
    /// exact vertex count — the generator is deterministic, so a miss means the
    /// baseline predates a generator change (or the row) and the row is skipped
    /// rather than misjudged. Re-baselining an intentional change is committing
    /// the file the run has already written: its diff is the change's record of
    /// its work.
    pub fn check_regression(current: &[Record], baseline: &[Record]) {
        let (mut exact, mut within, mut skipped) = (0, 0, 0);
        for row in current.iter().filter(|r| r.name.starts_with("knn_query/")) {
            let stat = row.name.rsplit('/').next().unwrap_or_default();
            let timed = stat == "p50_us";
            if !timed && !COUNTERS.contains(&stat) {
                continue;
            }
            let Some(base) = track::value(baseline, &row.name) else {
                skipped += 1;
                continue;
            };
            if timed {
                let limit = base * TIME_TOLERANCE;
                assert!(
                    row.value <= limit,
                    "{} regressed: {:.1}µs > {limit:.1}µs ({TIME_TOLERANCE} × the committed \
                     {base:.1}µs); if intentional, commit the trajectory file this run has written",
                    row.name,
                    row.value
                );
                within += 1;
            } else {
                assert!(
                    row.value == base,
                    "{} changed: {} now, {base} committed; the work is exact, so \
                     re-baselining is committing the diff of the trajectory file this run \
                     has written",
                    row.name,
                    row.value
                );
                exact += 1;
            }
        }
        println!(
            "regression guard: {exact} counters exact, {within} p50s within {TIME_TOLERANCE}× \
             the baseline, {skipped} rows without a baseline skipped"
        );
    }

    /// How far a `p50_us` may rise over its committed value before
    /// [`check_regression`] fails the run.
    const TIME_TOLERANCE: f64 = 2.0;

    #[cfg(test)]
    mod guard_tests {
        use super::*;

        /// One tier's rows: per method its p50 and its five counters.
        fn tier(vertices: usize, gtree_p50: f64) -> Vec<Record> {
            let mut rows = Vec::new();
            for (i, method) in METHODS.into_iter().enumerate() {
                let prefix = format!("knn_query/{vertices}/{}", method.name());
                let p50 = if method == Method::Gtree { gtree_p50 } else { 50.0 + i as f64 };
                rows.push(Record::new(format!("{prefix}/p50_us"), p50, "µs"));
                rows.push(Record::new(format!("{prefix}/qps"), 1e6 / p50, "q/s"));
                for (j, counter) in COUNTERS.into_iter().enumerate() {
                    let value = (1_000 * (i + 1) + j) as f64;
                    rows.push(Record::new(format!("{prefix}/{counter}"), value, "count"));
                }
            }
            rows
        }

        /// The baseline goes through the file shape, as in a real run.
        fn committed(rows: &[Record]) -> Vec<Record> {
            track::read(&track::write(rows)).unwrap()
        }

        /// The panic message of `check_regression(current, baseline)`.
        fn failure(current: &[Record], baseline: &[Record]) -> String {
            let panic = std::panic::catch_unwind(|| check_regression(current, baseline))
                .expect_err("the guard passed");
            panic.downcast_ref::<String>().cloned().unwrap_or_default()
        }

        #[test]
        fn equal_rows_pass() {
            check_regression(&tier(23_190, 100.0), &committed(&tier(23_190, 100.0)));
        }

        #[test]
        fn a_counter_off_by_one_fails_naming_its_row() {
            let baseline = committed(&tier(23_190, 100.0));
            let mut current = tier(23_190, 100.0);
            let row = "knn_query/23190/IER-CH/oracle_calls";
            let at = current.iter().position(|r| r.name == row).unwrap();
            current[at].value += 1.0;
            let message = failure(&current, &baseline);
            assert!(message.contains(row), "{message}");
            assert!(message.contains("4003 now, 4002 committed"), "{message}");
            assert!(message.contains("commit"), "{message}");
        }

        #[test]
        fn p50_at_1_9x_passes_and_at_2_1x_fails() {
            let baseline = committed(&tier(23_190, 100.0));
            check_regression(&tier(23_190, 190.0), &baseline);
            let message = failure(&tier(23_190, 210.0), &baseline);
            assert!(message.contains("knn_query/23190/Gtree/p50_us regressed"), "{message}");
            assert!(message.contains("210.0µs > 200.0µs"), "{message}");
        }

        #[test]
        fn a_tier_without_baseline_is_skipped() {
            let baseline = committed(&tier(23_190, 100.0));
            let mut current = tier(99_999, 9e9);
            for row in &mut current {
                row.value += 7.0;
            }
            check_regression(&current, &baseline);
            // A baseline from before a method had rows: the rest are judged.
            let without_road: Vec<Record> =
                baseline.iter().filter(|r| !r.name.contains("/ROAD/")).cloned().collect();
            check_regression(&tier(23_190, 100.0), &without_road);
        }
    }
}

/// Mixed-workload serving trajectory (`BENCH_serving.json`): spin up the
/// live-traffic stack — [`rnknn_serve::ObjectStore`] epochs plus the
/// [`rnknn_serve::ServeFront`] sharded batching pool — on generated networks of
/// increasing size and measure **sustained queries/sec** while object updates
/// stream through at a configured rate (0%, 1% and 10% of |O| per second).
/// Correctness is gated before any timing: interleaved update/query rounds are
/// verified against the Dijkstra ground truth of their exact epoch.
pub mod serving {
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use rnknn::engine::{Engine, Method};
    use rnknn::verify::ground_truth;
    use rnknn_graph::NodeId;
    use rnknn_objects::{churn_stream, uniform, ChurnConfig, ObjectSet, UpdateEvent};
    use rnknn_serve::{
        FaultPlan, KnnRequest, ObjectStore, ServeConfig, ServeError, ServeFront, SubmitError,
    };

    use crate::artifacts::{engine_config, tier_engine, ArtifactIo};
    use crate::defaults::K;
    use crate::track::{self, Record};

    /// The churn the trajectory tracks: update events per cell, spread evenly over
    /// the cell. A count, not a rate per |O|, so every churn cell applies at least
    /// [`MIN_CHURN_EVENTS`] whatever the tier's object count and cell length.
    pub const CHURN_EVENTS: [u64; 3] = [0, 1_000, 10_000];

    /// The fewest events a churn cell applies; `measure_cell` asserts it.
    pub const MIN_CHURN_EVENTS: u64 = 1_000;

    /// Robustness knobs for a measured run (docs/ROBUSTNESS.md): a per-request
    /// deadline adopted at admission and/or a seeded fault plan. The defaults
    /// (no deadline, no faults) reproduce the committed trajectory exactly.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Robustness {
        /// Deadline stamped on every request at admission (`--deadline-ms`).
        pub deadline: Option<Duration>,
        /// Seeded chaos plan ([`FaultPlan::chaos`]) driving injected worker
        /// panics and stragglers (`--fault-seed`).
        pub fault_plan: Option<FaultPlan>,
    }

    impl Robustness {
        /// Whether a knob is set. Such a run may answer requests with errors,
        /// so its numbers are not the committed trajectory.
        pub fn active(&self) -> bool {
            self.deadline.is_some() || self.fault_plan.is_some()
        }
    }

    /// The serving method: G-tree is the paper's serving-grade pick (fastest of
    /// the always-buildable methods at every size — Figure 9).
    pub const METHOD: Method = Method::Gtree;

    /// The correctness gate: paced update/query rounds against the live store,
    /// each response checked against the Dijkstra ground truth of the exact epoch
    /// it was served from. Panics on any divergence, so a fast-but-wrong serving
    /// stack never lands in the tracking file.
    fn verify_interleaved(
        engine: &Arc<Engine>,
        store: &Arc<ObjectStore>,
        feeder: &mut ObjectSet,
        rounds: u64,
        queries_per_round: u64,
    ) {
        let n = store.engine().graph().num_vertices();
        for round in 0..rounds {
            let batch = churn_stream(
                n,
                feeder,
                &ChurnConfig { events: 8, seed: 5_000 + round, ..Default::default() },
            );
            for event in batch {
                event.apply_to(feeder);
                store.stage(event);
            }
            let snap = store.publish();
            assert_eq!(snap.objects().vertices(), feeder.vertices(), "round {round}");
            for probe in 0..queries_per_round {
                let q = ((round * 7919 + probe * 2_654_435_769) % n as u64) as NodeId;
                let out = engine.query_snapshot(METHOD, q, K, snap.indexes()).expect("query");
                let truth: Vec<_> = ground_truth(engine.graph(), q, K, snap.objects())
                    .iter()
                    .map(|&(_, d)| d)
                    .collect();
                assert_eq!(
                    out.distances(),
                    truth,
                    "round {round}: {} diverged from its epoch's Dijkstra ground truth at q={q}",
                    METHOD.name()
                );
            }
        }
    }

    /// Per-cell response bookkeeping: exactly-once accounting. Error responses
    /// are only legal when a robustness knob is active — a knob-free run still
    /// panics on any `Err`, so the committed trajectory keeps its strict gate.
    /// A closed-loop flood measures no request latency (its queue is always
    /// full), so the cell records none: the repo benchmark's open-loop ladder
    /// is the serving latency.
    struct Tally {
        drained: u64,
        shed: u64,
        deadline_cut: u64,
        poisoned: u64,
        strict: bool,
    }

    impl Tally {
        fn absorb(&mut self, r: &rnknn_serve::KnnResponse) {
            self.drained += 1;
            match &r.output {
                Ok(_) => {}
                Err(ServeError::ShedExpired) if !self.strict => self.shed += 1,
                Err(ServeError::Engine(rnknn::EngineError::DeadlineExceeded { .. }))
                    if !self.strict =>
                {
                    self.deadline_cut += 1
                }
                Err(ServeError::WorkerPanicked) if !self.strict => self.poisoned += 1,
                Err(e) => panic!("request {} failed: {e}", r.id),
            }
        }
    }

    /// One measured cell: drive the front with a saturating query stream for
    /// `duration` while submitting `events` updates at an even pace, then drain
    /// and report sustained QPS plus the shed/cut records under
    /// `<tier>/events=<events>/`.
    fn measure_cell(
        tier: &str,
        store: &Arc<ObjectStore>,
        feeder: &mut ObjectSet,
        workers: usize,
        events: u64,
        duration: Duration,
        robust: Robustness,
    ) -> Vec<Record> {
        let config = ServeConfig {
            workers,
            default_deadline: robust.deadline,
            fault_plan: robust.fault_plan,
            ..Default::default()
        };
        let (front, responses) = ServeFront::start(Arc::clone(store), config);
        let n = store.engine().graph().num_vertices();
        let updates_per_sec = events as f64 / duration.as_secs_f64();

        // Churn is generated in batches from the evolved membership, so every
        // event applies.
        let mut churn_seed = 10_000u64;
        let mut pending: Vec<UpdateEvent> = Vec::new();
        let mut updates_sent = 0u64;
        let mut send_until = |due: u64| {
            while updates_sent < due {
                if pending.is_empty() {
                    pending = churn_stream(
                        n,
                        feeder,
                        &ChurnConfig { events: 256, seed: churn_seed, ..Default::default() },
                    );
                    pending.reverse();
                    churn_seed += 1;
                }
                let event = pending.pop().expect("churn batch");
                event.apply_to(feeder);
                front.submit_update(event).expect("updater alive");
                updates_sent += 1;
            }
        };

        let applied_before = front.updates_applied();
        let start = Instant::now();
        let mut submitted = 0u64;
        let mut id = 0u64;
        let mut tally =
            Tally { drained: 0, shed: 0, deadline_cut: 0, poisoned: 0, strict: !robust.active() };
        loop {
            let elapsed = start.elapsed();
            if elapsed >= duration {
                break;
            }
            // Pace updates: keep the submitted count at updates_per_sec * elapsed.
            send_until((updates_per_sec * elapsed.as_secs_f64()) as u64);
            // Saturating query stream: push until backpressure, then drain.
            let q = ((id * 2_654_435_769) % n as u64) as NodeId;
            // (The front stamps `default_deadline` on admission when the
            // request carries none, so the `--deadline-ms` knob applies here.)
            match front.try_submit(KnnRequest {
                id,
                method: METHOD,
                query: q,
                k: K,
                deadline: None,
            }) {
                Ok(()) => {
                    submitted += 1;
                    id += 1;
                }
                Err(SubmitError::Saturated(_)) => {
                    // Shard full: let the workers catch up by draining responses.
                    if let Ok(r) = responses.recv_timeout(Duration::from_millis(50)) {
                        tally.absorb(&r);
                    }
                }
                Err(e) => panic!("submit failed: {e}"),
            }
            while let Ok(r) = responses.try_recv() {
                tally.absorb(&r);
            }
        }
        send_until(events);
        // Drain the tail (still part of the measured window: the work was real).
        while tally.drained < submitted {
            let r = responses.recv_timeout(Duration::from_secs(60)).expect("drain timed out");
            tally.absorb(&r);
        }
        let seconds = start.elapsed().as_secs_f64();
        let mut front = front;
        let stats = front.shutdown();
        assert_eq!(stats.served, submitted, "front lost requests");
        assert_eq!(stats.shed_expired, tally.shed, "shed accounting diverged");
        assert_eq!(stats.worker_panics, tally.poisoned, "panic accounting diverged");
        let updates_applied = front.updates_applied() - applied_before;
        assert!(
            events == 0 || updates_applied >= MIN_CHURN_EVENTS,
            "a churn cell applied {updates_applied} events, fewer than {MIN_CHURN_EVENTS}"
        );
        assert_eq!(updates_applied, events, "the updater dropped events");
        let qps = submitted as f64 / seconds.max(1e-9);
        println!(
            "  events={events:>5} ({updates_per_sec:>7.1} ev/s): {qps:>8.0} q/s sustained ({submitted} queries, {updates_applied} updates, {} epochs, {seconds:.2}s)",
            stats.epochs_published,
        );
        println!(
            "               shed={} ({:.2}% shed rate) deadline_cut={} panics={}",
            tally.shed,
            100.0 * tally.shed as f64 / submitted.max(1) as f64,
            tally.deadline_cut,
            stats.worker_panics
        );
        track::records(
            &format!("{tier}/events={events}"),
            &[
                ("target_updates_per_sec", updates_per_sec, "events/s"),
                ("updates_applied", updates_applied as f64, "count"),
                ("epochs", stats.epochs_published as f64, "count"),
                ("served", submitted as f64, "count"),
                ("seconds", seconds, "s"),
                ("qps", qps.round(), "q/s"),
                ("shed", tally.shed as f64, "count"),
                ("deadline_cut", tally.deadline_cut as f64, "count"),
                ("worker_panics", stats.worker_panics as f64, "count"),
            ],
        )
    }

    /// Measures every churn cell at every requested size: a
    /// Dijkstra-verified interleaved warm-up, then one sustained-throughput
    /// cell per churn count. `robust` threads the `--deadline-ms` /
    /// `--fault-seed` knobs into every cell's [`ServeConfig`]; the default is
    /// the knob-free committed workload, which panics on any error response.
    /// Under a knob the exactly-once and census asserts inside `measure_cell`
    /// are the gate (the CI chaos smoke), and `trajectory_bench` does not
    /// track the run.
    pub fn measure(
        sizes: &[usize],
        density: f64,
        duration: Duration,
        io: &ArtifactIo,
        robust: Robustness,
    ) -> Vec<Record> {
        let workers = std::thread::available_parallelism().map(|w| w.get()).unwrap_or(1);
        let mut records = Vec::new();
        for &size in sizes {
            let build_start = Instant::now();
            // G-tree only: the method the workload dispatches; INE, which
            // verifies it, needs no index.
            let engine = Arc::new(tier_engine("serve", size, &engine_config(true, false), io));
            let initial = uniform(engine.graph(), density, 1);
            let mut feeder = initial.clone();
            let tier = format!("serving/{}", engine.graph().num_vertices());
            println!(
                "serving bench n={size:>7} {tier} objects={:>6} workers={workers} (built in {:.1}s)",
                initial.len(),
                build_start.elapsed().as_secs_f64()
            );
            records.extend(track::records(
                &tier,
                &[("objects", initial.len() as f64, "count"), ("workers", workers as f64, "count")],
            ));
            let store = Arc::new(ObjectStore::new(Arc::clone(&engine), initial));
            verify_interleaved(&engine, &store, &mut feeder, 3, 3);
            println!("  interleaved update/query rounds Dijkstra-verified");
            for events in CHURN_EVENTS {
                records.extend(measure_cell(
                    &tier,
                    &store,
                    &mut feeder,
                    workers,
                    events,
                    duration,
                    robust,
                ));
            }
        }
        records
    }
}

/// Cold-start trajectory (`BENCH_cold_start.json`): how fast a saved engine
/// becomes query-ready from disk, versus the minutes the CH + G-tree builds
/// take. For each tier the harness builds the query-engine configuration once,
/// saves the artifact, then times repeated loads from a warm page cache — the
/// whole load, and its `Artifact::open` (map and checksums) alone as
/// `verify_ms` — plus the "ready" path: load and answer one verified kNN
/// query (the object indexes are built between the two, off the clock).
pub mod cold_start {
    use std::time::Instant;

    use rnknn::engine::{Engine, Method};
    use rnknn::persist_format::Artifact;
    use rnknn::verify::matches_ground_truth;
    use rnknn_graph::NodeId;
    use rnknn_objects::uniform;

    use crate::artifacts::{engine_config, tier_graph};
    use crate::defaults::K;
    use crate::track::{self, Record};

    /// Measures every requested size: build once, save, then 5 timed opens and
    /// 5 timed loads (medians reported) and one timed load-to-first-answer run
    /// whose result is Dijkstra-verified *after* the clock stops.
    pub fn measure(sizes: &[usize]) -> Vec<Record> {
        let config = engine_config(true, true);
        let dir = std::env::temp_dir().join("rnknn-cold-start");
        std::fs::create_dir_all(&dir).expect("create artifact directory");
        let mut records = Vec::new();
        for &size in sizes {
            let graph = tier_graph(size);
            let vertices = graph.num_vertices();
            let build_start = Instant::now();
            let engine = Engine::build(graph, &config);
            let build_seconds = build_start.elapsed().as_secs_f64();

            let path = dir.join(format!("coldstart-{size}.rnk"));
            let save_start = Instant::now();
            let artifact_bytes = engine.save_indexes(&path).expect("save artifact");
            let save_seconds = save_start.elapsed().as_secs_f64();
            drop(engine);

            // One unmeasured load warms the page cache; then the medians of
            // five alternated passes of each: `Artifact::open` alone (map and
            // every section checksum), and the full load-and-validate.
            drop(Engine::load_indexes(&path, &config).expect("warm-up load"));
            let (mut verify_ms, mut load_ms) = (Vec::new(), Vec::new());
            for _ in 0..5 {
                let start = Instant::now();
                let artifact = Artifact::open(&path).expect("timed open");
                verify_ms.push(start.elapsed().as_secs_f64() * 1e3);
                drop(artifact);
                let start = Instant::now();
                let loaded = Engine::load_indexes(&path, &config).expect("timed load");
                load_ms.push(start.elapsed().as_secs_f64() * 1e3);
                drop(loaded);
            }
            let median = |mut ms: Vec<f64>| {
                ms.sort_by(|a, b| a.total_cmp(b));
                ms[ms.len() / 2]
            };
            let (verify_ms, load_warm_ms) = (median(verify_ms), median(load_ms));

            // Ready = load + first answer. The object indexes are per-workload
            // state, not a restart's fixed cost (filling the IER-CH labels alone
            // takes ≈ 0.5 s at 116k), so they are built off the clock, as the
            // repo benchmark's cold start does; verification happens after the
            // clock stops so it never inflates the number.
            let q = (vertices / 2) as NodeId;
            let load_start = Instant::now();
            let loaded = Engine::load_indexes(&path, &config).expect("ready load");
            let load = load_start.elapsed();
            let objects = uniform(loaded.graph(), 0.01, 1);
            let live = loaded.build_object_indexes(objects.clone());
            let query_start = Instant::now();
            let answer = loaded.query_snapshot(Method::Gtree, q, K, &live).expect("first query");
            let ready_ms = (load + query_start.elapsed()).as_secs_f64() * 1e3;
            assert!(
                matches_ground_truth(loaded.graph(), q, K, &objects, &answer.result),
                "loaded engine answered wrong at q={q} size={size}"
            );

            println!(
                "cold start n={size:>7} vertices={vertices:>7} artifact={:.1}MiB build={build_seconds:.1}s save={:.0}ms verify(p50)={verify_ms:.2}ms load(warm p50)={load_warm_ms:.2}ms ready={ready_ms:.2}ms",
                artifact_bytes as f64 / (1024.0 * 1024.0),
                save_seconds * 1e3,
            );
            let _ = std::fs::remove_file(&path);
            let tier = format!("cold_start/{vertices}");
            records.extend(track::records(
                &tier,
                &[
                    ("artifact_bytes", artifact_bytes as f64, "bytes"),
                    ("build_seconds", build_seconds, "s"),
                    ("save_seconds", save_seconds, "s"),
                    ("verify_ms", verify_ms, "ms"),
                    ("load_warm_ms", load_warm_ms, "ms"),
                    ("ready_ms", ready_ms, "ms"),
                ],
            ));
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_builds_and_times_queries() {
        let options = TestbedOptions {
            scale: 0.05,
            num_queries: 5,
            engine: EngineConfig::minimal(),
            ..Default::default()
        };
        let mut bed = Testbed::build(DatasetPreset::DE, &options);
        assert!(bed.graph().num_vertices() > 50);
        let count = bed.set_uniform_objects(0.01, 3);
        assert!(count > 0);
        let micros = bed.avg_query_micros(Method::Gtree, 5);
        assert!(micros.is_finite() && micros >= 0.0);
        // Unsupported method reports NaN rather than panicking.
        assert!(bed.avg_query_micros(Method::IerPhl, 5).is_nan());
        // Unified stats aggregate over the workload.
        let stats = bed.workload_stats(Method::Gtree, 5).expect("supported");
        assert!(stats.nodes_expanded > 0);
        assert!(bed.workload_stats(Method::IerPhl, 5).is_none());
        // The parallel path answers the same workload.
        assert!(bed.avg_batch_query_micros(Method::Gtree, 5).is_finite());
    }

    /// Recomputes one tier of `BENCH_work.json` and compares it exactly.
    fn work_tier_matches_the_committed_digest(size: usize) {
        let committed = track::read_committed("work");
        let measured = work::measure(size);
        let tier = measured[0].name.rsplit_once('/').expect("tier prefix").0.to_string();
        let committed_tier: Vec<&track::Record> =
            committed.iter().filter(|r| r.name.starts_with(&format!("{tier}/"))).collect();
        let differs: Vec<String> = measured
            .iter()
            .filter(|r| track::value(&committed, &r.name) != Some(r.value))
            .map(|r| {
                format!(
                    "{} = {} (committed {:?})",
                    r.name,
                    r.value,
                    track::value(&committed, &r.name)
                )
            })
            .collect();
        assert!(
            differs.is_empty() && committed_tier.len() == measured.len(),
            "{tier} differs from BENCH_work.json (a change to the indexes or the searches \
             re-baselines with `trajectory_bench work`, and the diff is its record):\n{}",
            differs.join("\n")
        );
    }

    #[test]
    fn work_digest_of_the_2k_tier_is_exact() {
        work_tier_matches_the_committed_digest(work::SIZES[0]);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn work_digest_of_the_23k_tier_is_exact() {
        work_tier_matches_the_committed_digest(work::SIZES[1]);
    }

    #[test]
    fn table_renders_all_rows_and_series() {
        let mut t = Table::new("Figure X", "k", vec!["A".into(), "B".into()], "µs");
        t.push("1", vec![1.0, 2.0]);
        t.push("5", vec![300.0, f64::NAN]);
        let text = t.render();
        assert!(text.contains("Figure X"));
        assert!(text.contains("n/a"));
        assert!(text.lines().count() >= 5);
    }
}
