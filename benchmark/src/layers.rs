//! Direct calls into each layer's public functions, bypassing `Engine` and
//! `ServeFront` — the per-layer numbers of a traced run.
//!
//! Each probe is a closed loop on one thread over inputs drawn from the seed,
//! wrapped in one span; it reports a median per call, and exact operation
//! counts where the layer offers them.

use std::sync::Arc;
use std::time::Instant;

use rnknn::{Engine, ObjectIndexes, QueryOutput};
use rnknn_graph::NodeId;
use rnknn_gtree::{GtreeDistanceOracle, GtreeSearch, LeafSearchMode};
use rnknn_objects::UpdateEvent;
use rnknn_partition::Partitioner;
use rnknn_pathfinding::dijkstra;
use rnknn_pathfinding::scratch::SearchScratch;
use rnknn_road::RoadKnn;
use rnknn_serve::ObjectStore;

use crate::estimators::median;
use crate::schema::{GTREE, K, METHODS};
use crate::trace::Tracer;

/// Median time of one `call`, in ns, timing `batch` calls per clock read (1 for
/// calls that take microseconds; more where a clock read would rival the call).
fn median_ns<T: Copy>(items: &[T], batch: usize, mut call: impl FnMut(T)) -> f64 {
    let mut samples: Vec<f64> = items
        .chunks(batch)
        .map(|chunk| {
            let start = Instant::now();
            for &item in chunk {
                call(item);
            }
            start.elapsed().as_nanos() as f64 / chunk.len() as f64
        })
        .collect();
    median(&mut samples)
}

/// The direct kNN probes run on this long a prefix of the query set: a median
/// needs no more, and ROAD on far objects costs milliseconds per call.
const KNN_PROBE_QUERIES: usize = 256;

/// Runs every probe and returns what each measured, by metric name. `engine`
/// must hold G-tree, CH and ROAD and have `live`'s object set installed;
/// `events` is a stream effective against that set.
pub fn probe(
    engine: &Arc<Engine>,
    live: &ObjectIndexes,
    queries: &[NodeId],
    pairs: &[(NodeId, NodeId)],
    events: &[UpdateEvent],
    tracer: &mut Tracer,
    parent: u32,
) -> Vec<(&'static str, f64)> {
    let graph = engine.graph();
    let gtree = engine.gtree().expect("G-tree built");
    let ch = engine.ch().expect("CH built");
    let road = engine.road().expect("ROAD built");
    let mut measured: Vec<(&'static str, f64)> = Vec::new();
    let mut put = |name: &'static str, value: f64| measured.push((name, value));
    let knn_queries = &queries[..queries.len().min(KNN_PROBE_QUERIES)];

    let span = tracer.open("partition.partition", parent);
    let vertices: Vec<NodeId> = graph.vertices().collect();
    let start = Instant::now();
    let fanout = rnknn_gtree::GtreeConfig::default().fanout;
    std::hint::black_box(Partitioner::new().partition(graph, &vertices, fanout));
    put("partition.build_s", start.elapsed().as_secs_f64());
    tracer.close(span);

    let span = tracer.open("gtree.distance", parent);
    put(
        "gtree.distance_us",
        median_ns(pairs, 1, |(s, t)| {
            std::hint::black_box(GtreeDistanceOracle::new(gtree, graph, s).distance(t));
        }) / 1e3,
    );
    tracer.close(span);

    let span = tracer.open("gtree.knn_into", parent);
    let occurrence = live.occurrence().expect("occurrence list built with the G-tree");
    let mut result = Vec::with_capacity(K);
    // Engine and direct call back to back on each vertex, taking turns to go
    // first (the second finds the first's matrices in cache): the difference of
    // the medians is what `Engine::query_into` adds around the search.
    let mut out = QueryOutput::default();
    let (mut through_engine, mut direct) = (Vec::new(), Vec::new());
    for (i, &q) in knn_queries.iter().enumerate() {
        for engine_turn in [i % 2 == 0, i % 2 != 0] {
            let start = Instant::now();
            if engine_turn {
                let _ = engine.query_into(METHODS[GTREE].0, q, K, &mut out);
                std::hint::black_box(out.result.len());
                through_engine.push(start.elapsed().as_nanos() as f64);
            } else {
                let mut search = GtreeSearch::new(gtree, graph, q);
                search.knn_into(K, occurrence, LeafSearchMode::Improved, &mut result);
                std::hint::black_box(result.len());
                direct.push(start.elapsed().as_nanos() as f64);
            }
        }
    }
    let (through_engine, direct) = (median(&mut through_engine), median(&mut direct));
    put("gtree.knn_direct_us", direct / 1e3);
    put("core.dispatch_overhead_ns.gtree", through_engine - direct);
    tracer.close(span);

    let span = tracer.open("ch.distance", parent);
    let (mut settled, mut stalled) = (0u64, 0u64);
    put(
        "ch.distance_us",
        median_ns(pairs, 1, |(s, t)| {
            let (d, counters) = ch.distance_with_counters(s, t);
            std::hint::black_box(d);
            settled += counters.settled;
            stalled += counters.stalled;
        }) / 1e3,
    );
    put("ch.settled_per_distance", settled as f64 / pairs.len() as f64);
    put("ch.stalled_per_distance", stalled as f64 / pairs.len() as f64);
    tracer.close(span);

    let span = tracer.open("road.knn", parent);
    let directory = live.association().expect("association directory built with ROAD");
    let road_knn = RoadKnn::new(graph, road);
    let mut scratch = SearchScratch::new();
    put(
        "road.knn_direct_us",
        median_ns(knn_queries, 1, |q| {
            road_knn.knn_with_stats_in(q, K, directory, &mut scratch, &mut result);
            std::hint::black_box(result.len());
        }) / 1e3,
    );
    tracer.close(span);

    let span = tracer.open("pathfinding.dijkstra", parent);
    let mut settled = 0usize;
    put(
        "pathfinding.dijkstra_p2p_us",
        median_ns(pairs, 1, |(s, t)| {
            let (d, stats) = dijkstra::distance_with_stats_in(graph, s, t, &mut scratch);
            std::hint::black_box(d);
            settled += stats.settled;
        }) / 1e3,
    );
    put("pathfinding.settled_per_p2p", settled as f64 / pairs.len() as f64);
    tracer.close(span);

    let span = tracer.open("spatial.rtree", parent);
    put(
        "spatial.rtree_knn_us",
        median_ns(queries, 1, |q| {
            std::hint::black_box(live.rtree().euclidean_knn(graph.coord(q), K));
        }) / 1e3,
    );
    // Insert/remove surgery on a private copy, at vertices that hold no object.
    let mut rtree = live.rtree().clone();
    let free: Vec<NodeId> =
        queries.iter().copied().filter(|&q| !live.objects().contains(q)).collect();
    put(
        "spatial.rtree_update_ns",
        median_ns(&free, 16, |v| {
            rtree.insert(graph, v);
            std::hint::black_box(rtree.remove(graph, v));
        }) / 2.0,
    );
    tracer.close(span);

    let span = tracer.open("objects.apply", parent);
    let mut indexes = live.clone();
    put(
        "objects.apply_update_ns",
        median_ns(events, 16, |event| {
            std::hint::black_box(engine.apply_object_update(&mut indexes, event));
        }),
    );
    tracer.close(span);

    let span = tracer.open("serve_store.direct", parent);
    let store = ObjectStore::new(Arc::clone(engine), live.objects().clone());
    let mut publishes = Vec::new();
    let mut stages = Vec::new();
    // The updater's own rhythm: stage 64 events, publish, repeat.
    for batch in events.chunks(64) {
        let start = Instant::now();
        for &event in batch {
            std::hint::black_box(store.stage(event));
        }
        stages.push(start.elapsed().as_nanos() as f64 / batch.len() as f64);
        let start = Instant::now();
        std::hint::black_box(store.publish().epoch());
        publishes.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    put("serve_store.stage_ns", median(&mut stages));
    put("serve_store.publish_us", median(&mut publishes));
    put(
        "serve_store.snapshot_ns",
        median_ns(queries, 16, |_| {
            std::hint::black_box(store.snapshot().epoch());
        }),
    );
    tracer.close(span);
    measured
}
