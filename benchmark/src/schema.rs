//! The benchmark's vocabulary: workloads, methods and every metric name with
//! its unit, direction, layer and the end-to-end metric it is expected to move.
//!
//! `BENCHMARK.json` at the repo root repeats the names, units and directions
//! (and fixes the bounds); `tests/schema.rs` holds the two files to each other
//! in both directions, and to what a run actually emits.

use rnknn::Method;

/// `k` of every kNN query the benchmark issues.
pub const K: usize = 10;

/// The five methods of the embedded phase, in the order a pass runs them.
pub const METHODS: [(Method, &str); 5] = [
    (Method::Ine, "ine"),
    (Method::Gtree, "gtree"),
    (Method::IerGtree, "ier_gt"),
    (Method::IerCh, "ier_ch"),
    (Method::Road, "road"),
];

/// Index of `Method::Gtree` in [`METHODS`] (the serving method).
pub const GTREE: usize = 1;

/// Open-loop arrival rates of the traced ladder, queries per second.
pub const OPEN_RATES: [u32; 3] = [500, 1000, 2000];

/// One parameter point of the system. Every workload runs every phase (the
/// driver's contract wants every metric from every workload); the name says
/// which phase the point was chosen to stress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Far objects: expansion, matrix assembly and the CH oracle do the work.
    EmbedSparse,
    /// Near objects: leaf search, R-tree browse and per-query fixed costs do.
    EmbedDense,
    /// Serving density, reads only: front overhead is a visible share.
    ServeSteady,
    /// Serving density with one update per query beside the reads.
    ServeChurn,
}

impl Workload {
    /// All four, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::EmbedSparse, Workload::EmbedDense, Workload::ServeSteady, Workload::ServeChurn];

    /// The name used on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EmbedSparse => "embed_sparse",
            Workload::EmbedDense => "embed_dense",
            Workload::ServeSteady => "serve_steady",
            Workload::ServeChurn => "serve_churn",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Object density (objects per vertex) of the uniform object set.
    pub fn density(self) -> f64 {
        match self {
            // 46 objects at the 23k tier: k = 10 reaches over a fifth of the graph.
            Workload::EmbedSparse => 0.002,
            Workload::EmbedDense => 0.1,
            Workload::ServeSteady | Workload::ServeChurn => 0.01,
        }
    }

    /// Whether one update event rides along with every served query.
    pub fn churn(self) -> bool {
        self == Workload::ServeChurn
    }

    /// Query vertices of the embedded phase, sized so that one pass over them
    /// (all five methods) fits an instance's share of the default run length:
    /// far objects cost 3.1 ms a vertex (1.2 ms without ROAD), near ones 0.25 ms.
    pub fn query_count(self, smoke: bool) -> usize {
        match (smoke, self) {
            (true, _) => 100,
            (false, Workload::EmbedSparse) => 300,
            (false, Workload::EmbedDense) => 2000,
            (false, _) => 800,
        }
    }

    /// Whether the workload's headline is the embedded phase (else serving).
    pub fn is_embed(self) -> bool {
        matches!(self, Workload::EmbedSparse | Workload::EmbedDense)
    }
}

/// One metric's static description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSpec {
    /// Name as printed, stored and listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, in the driver's alphabet (`us`, not `µs`).
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Exact counts must repeat bit-for-bit between runs of equal inputs.
    pub exact: bool,
    /// The module (layer) the metric belongs to.
    pub layer: &'static str,
    /// The end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

fn spec(
    name: impl Into<String>,
    unit: &'static str,
    higher_is_better: bool,
    exact: bool,
    layer: &'static str,
    moves: &'static str,
) -> MetricSpec {
    MetricSpec { name: name.into(), unit, higher_is_better, exact, layer, moves }
}

/// The end-to-end metrics, emitted by every workload with `--trace 0`.
pub fn end_to_end() -> Vec<MetricSpec> {
    let mut m = vec![
        spec("setup_s", "s", false, false, "all", "-"),
        spec("index_bytes", "bytes", false, true, "all", "-"),
    ];
    for (_, tag) in METHODS {
        m.push(spec(format!("knn_p50_us.{tag}"), "us", false, false, "core", "-"));
    }
    m.push(spec("cold_start_ms", "ms", false, false, "persist", "-"));
    m.push(spec("serve_capacity_qps", "q/s", true, false, "serve", "-"));
    m.push(spec("update_capacity_eps", "events/s", true, false, "serve", "-"));
    m
}

/// The per-layer metrics, emitted by every workload with `--trace 1`.
pub fn per_layer() -> Vec<MetricSpec> {
    const SETUP: &str = "setup_s, index_bytes (all)";
    let mut m = vec![
        spec("failed_share", "ratio", false, false, "all", "the run's `failed` count"),
        spec("graph.generate_s", "s", false, false, "graph", SETUP),
        spec("graph.vertices", "count", false, true, "graph", SETUP),
        spec("graph.edges", "count", false, true, "graph", SETUP),
        spec("graph.memory_bytes", "bytes", false, true, "graph", SETUP),
        spec("partition.build_s", "s", false, false, "partition", "setup_s (all)"),
        spec("gtree.build_s", "s", false, false, "gtree", "setup_s (all)"),
        spec("gtree.memory_bytes", "bytes", false, true, "gtree", "index_bytes, cold_start_ms"),
        spec("gtree.tree_nodes", "count", false, true, "gtree", "index_bytes"),
        spec("gtree.distance_us", "us", false, false, "gtree", "knn_p50_us.ier_gt @ embed_sparse"),
        spec("gtree.knn_direct_us", "us", false, false, "gtree", "knn_p50_us.gtree (all)"),
        spec("ch.build_s", "s", false, false, "ch", "setup_s (all)"),
        spec("ch.shortcuts", "count", false, true, "ch", "index_bytes"),
        spec("ch.memory_bytes", "bytes", false, true, "ch", "index_bytes, cold_start_ms"),
        spec("ch.distance_us", "us", false, false, "ch", "knn_p50_us.ier_ch @ embed_sparse"),
        spec("ch.settled_per_distance", "count", false, true, "ch", "ch.distance_us"),
        spec("ch.stalled_per_distance", "count", false, true, "ch", "ch.distance_us"),
        spec("road.build_s", "s", false, false, "road", "setup_s (all)"),
        spec("road.memory_bytes", "bytes", false, true, "road", "index_bytes"),
        spec("road.knn_direct_us", "us", false, false, "road", "knn_p50_us.road @ embed_sparse"),
        spec(
            "pathfinding.dijkstra_p2p_us",
            "us",
            false,
            false,
            "pathfinding",
            "knn_p50_us.ine @ embed_sparse; flat @ embed_dense",
        ),
        spec(
            "pathfinding.settled_per_p2p",
            "count",
            false,
            true,
            "pathfinding",
            "pathfinding.dijkstra_p2p_us",
        ),
        spec(
            "spatial.rtree_knn_us",
            "us",
            false,
            false,
            "spatial",
            "knn_p50_us.ier_* @ embed_dense",
        ),
        spec("spatial.rtree_memory_bytes", "bytes", false, true, "spatial", "-"),
        spec("spatial.rtree_update_ns", "ns", false, false, "spatial", "update_capacity_eps"),
        spec("objects.index_build_ms", "ms", false, false, "objects", "setup_s (all)"),
        spec("objects.count", "count", false, true, "objects", "-"),
        spec("objects.apply_update_ns", "ns", false, false, "objects", "update_capacity_eps"),
    ];
    for counter in
        ["nodes_expanded", "heap_operations", "oracle_calls", "candidates_examined", "matrix_cells"]
    {
        for (_, tag) in METHODS {
            m.push(spec(
                format!("core.{counter}.{tag}"),
                "count",
                false,
                true,
                "core",
                "the matching knn_p50_us.<method>",
            ));
        }
    }
    for (_, tag) in METHODS {
        // The tails held no bound on this box (README, "Measured noise").
        m.push(spec(format!("core.knn_p99_us.{tag}"), "us", false, false, "core", "none gated"));
    }
    for (_, tag) in METHODS {
        m.push(spec(format!("core.busy_s.{tag}"), "s", false, false, "core", "run length"));
    }
    m.extend([
        spec(
            "core.dispatch_overhead_ns.gtree",
            "ns",
            false,
            false,
            "core",
            "knn_p50_us.gtree @ embed_dense",
        ),
        spec("core.warmup_ms", "ms", false, false, "core", "setup_s (all)"),
        spec("persist.save_s", "s", false, false, "persist", "setup_s (all)"),
        spec("persist.artifact_bytes", "bytes", false, true, "persist", "cold_start_ms"),
        spec("persist.load_ms", "ms", false, false, "persist", "cold_start_ms, setup_s"),
        spec("persist.first_query_us", "us", false, false, "persist", "cold_start_ms"),
    ]);
    const CAPACITY: &str = "serve_capacity_qps (serve_*)";
    for (name, unit, higher) in [
        ("rtt_p50_us", "us", false),
        ("rtt_p99_us", "us", false),
        ("search_p50_us", "us", false),
        ("search_p99_us", "us", false),
        ("overhead_p50_us", "us", false),
        ("worker_busy_share", "ratio", true),
        ("submit_ns", "ns", false),
        ("mean_batch", "count", true),
        ("qps_q1", "q/s", true),
        ("qps_q3", "q/s", true),
        ("shed_expired", "count", false),
        ("deadline_exceeded", "count", false),
        ("worker_panics", "count", false),
        ("worker_restarts", "count", false),
    ] {
        m.push(spec(format!("serve_front.{name}"), unit, higher, false, "serve_front", CAPACITY));
    }
    for stat in ["open_p50_us", "open_p99_us"] {
        for rate in OPEN_RATES {
            m.push(spec(
                format!("serve_front.{stat}.r{rate}"),
                "us",
                false,
                false,
                "serve_front",
                "none gated: open-loop tails are too noisy on this box",
            ));
        }
    }
    for rate in OPEN_RATES {
        m.push(spec(
            format!("gen.lateness_p99_us.r{rate}"),
            "us",
            false,
            false,
            "gen",
            "trust in serve_front.open_*",
        ));
    }
    const UPDATES: &str = "update_capacity_eps; serve_capacity_qps @ serve_churn";
    for (name, unit) in [
        ("epochs_published", "count"),
        ("updates_applied", "count"),
        ("clone_fallbacks", "count"),
        ("update_visible_p50_us", "us"),
        ("update_visible_p90_us", "us"),
        ("stage_ns", "ns"),
        ("publish_us", "us"),
        ("snapshot_ns", "ns"),
    ] {
        m.push(spec(format!("serve_store.{name}"), unit, false, false, "serve_store", UPDATES));
    }
    m.push(spec("trace.spans", "count", false, false, "trace", "-"));
    m.push(spec("trace.overhead_share", "ratio", false, false, "trace", "every timing"));
    m
}
