//! Steady-state allocation guard for the pooled query path.
//!
//! The engine's contract (ISSUE 5 tentpole) is that `Engine::query_into` on a warm
//! per-thread scratch pool performs **zero heap allocations** for the pooled
//! methods. This binary installs a counting global allocator and proves it for
//! G-tree, INE and IER-CH (and, as a bonus, the remaining IER oracle methods),
//! and pins `Engine::query`'s overhead to exactly the returned result vector.
//! IER-CH's target labels are filled by the write path, so a query reads them and
//! writes nothing: one test pins that the first query to meet a just-inserted
//! object allocates nothing either. On the write side, one test pins that a warm
//! `ObjectStore::publish` — a copy of the new epoch into a reused bundle —
//! allocates almost nothing.
//!
//! The counter is **per thread**: `cargo test` runs this binary's tests on sibling
//! threads, and each assertion window must measure the querying thread only — a
//! process-wide counter lets a neighbour's index build pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use rnknn::engine::{Engine, EngineConfig, Method};
use rnknn::{QueryOutput, QueryRequest};
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::{EdgeWeightKind, NodeId};
use rnknn_objects::{churn_stream, uniform, ChurnConfig, UpdateEvent};
use rnknn_serve::ObjectStore;

/// Counts `alloc`/`realloc` calls (deallocations are free to the steady-state
/// argument and are not counted).
struct CountingAllocator;

thread_local! {
    // Const-initialised and destructor-free, so touching it from inside the
    // allocator never allocates and never registers a TLS destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: a thread past its TLS teardown may still free/allocate.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: pure pass-through to `System` plus a thread-local counter bump; every
// layout/pointer contract of `GlobalAlloc` is forwarded unchanged, so `System`'s
// own guarantees carry over verbatim.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; forwarded as-is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }
    // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract; forwarded as-is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract; forwarded as-is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocator calls made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Builds an engine with the indexes the pooled methods need (no SILC — the DisBrw
/// OH hierarchy and SILC refinement are documented as not allocation-free).
fn pooled_engine() -> (Engine, Vec<NodeId>) {
    let net = RoadNetwork::generate(&GeneratorConfig::new(2_000, 77));
    let graph = net.graph(EdgeWeightKind::Distance);
    let config = EngineConfig {
        build_gtree: true,
        build_road: true,
        build_silc: false,
        build_ch: true,
        build_phl: true,
        build_tnr: true,
        ..Default::default()
    };
    let mut engine = Engine::build(graph, &config);
    engine.set_objects(uniform(engine.graph(), 0.02, 9));
    let n = engine.graph().num_vertices() as NodeId;
    let queries: Vec<NodeId> = (0..12u32).map(|i| (i * 157 + 11) % n).collect();
    (engine, queries)
}

#[test]
fn steady_state_queries_allocate_nothing_for_pooled_methods() {
    let (engine, queries) = pooled_engine();
    // Methods whose pooled path must be allocation-free. G-tree, INE and IER-CH are
    // the acceptance set; the IER oracle variants share the same pooled machinery.
    let methods = [
        Method::Gtree,
        Method::Ine,
        Method::IerCh,
        Method::IerDijkstra,
        Method::IerAStar,
        Method::IerPhl,
        Method::IerTnr,
        Method::IerGtree,
        Method::Road,
    ];
    assert_steady_state_allocates_nothing(&engine, &methods, &queries, "a built engine");
}

/// Warms every pooled buffer with two full passes over `queries` (heaps, distance
/// arrays, border rows, candidate lists grow to the workload's high-water mark),
/// then asserts that the exact same queries do not touch the allocator.
fn assert_steady_state_allocates_nothing(
    engine: &Engine,
    methods: &[Method],
    queries: &[NodeId],
    what: &str,
) {
    let k = 8;
    let mut out = QueryOutput::default();
    for &method in methods {
        for _ in 0..2 {
            for &q in queries {
                engine.query_into(method, q, k, &mut out).expect("warm-up query");
            }
        }
        for &q in queries {
            let before = allocations();
            engine.query_into(method, q, k, &mut out).expect("steady-state query");
            let allocated = allocations() - before;
            let name = method.name();
            assert_eq!(allocated, 0, "{name} allocated {allocated} time(s) on {what} at q={q}");
            assert!(!out.result.is_empty(), "{name} returned nothing on {what} at q={q}");
        }
    }
}

/// ISSUE 8: the zero-allocation steady state must survive persistence. An
/// engine whose G-tree matrices are zero-copy views into a loaded artifact
/// runs the same pooled query path — loading must not reintroduce per-query
/// allocations (e.g. by materializing matrix rows on demand).
#[test]
fn steady_state_stays_allocation_free_on_a_loaded_engine() {
    let (engine, queries) = pooled_engine();
    let mut loaded = load_gtree_and_ch(&engine);
    loaded.set_objects(uniform(loaded.graph(), 0.02, 9));
    let methods = [Method::Gtree, Method::Ine, Method::IerCh, Method::IerGtree];
    assert_steady_state_allocates_nothing(&loaded, &methods, &queries, "a loaded engine");
}

/// The engine's saved artifact (CH + G-tree) loaded back with the matching subset.
fn load_gtree_and_ch(engine: &Engine) -> Engine {
    let bytes = engine.save_indexes_to_vec().expect("save engine");
    let config = EngineConfig {
        build_gtree: true,
        build_road: false,
        build_silc: false,
        build_ch: true,
        build_phl: false,
        build_tnr: false,
        ..Default::default()
    };
    Engine::load_indexes_from_vec(bytes, &config).expect("load engine")
}

/// At density 0.1 nearly every source's leaf holds objects, so G-tree's kNN and
/// IER-Gt's same-leaf distances run the pooled source-leaf search on every query:
/// it allocates nothing either, built or loaded.
#[test]
fn the_source_leaf_search_allocates_nothing_at_density_0_1() {
    assert_gtree_methods_allocate_nothing_at(0.1);
}

/// At density 0.002 the objects are far, so G-tree's kNN and IER-Gt's oracle
/// sweep many source rows, each through its pooled entry-border list: building
/// and reading those lists allocates nothing either, built or loaded.
#[test]
fn entry_border_sweeps_allocate_nothing_at_density_0_002() {
    assert_gtree_methods_allocate_nothing_at(0.002);
}

/// G-tree and IER-Gt at `density`, on a built and on a loaded engine.
fn assert_gtree_methods_allocate_nothing_at(density: f64) {
    let (mut built, queries) = pooled_engine();
    let mut loaded = load_gtree_and_ch(&built);
    let methods = [Method::Gtree, Method::IerGtree];
    for (engine, what) in [(&mut built, "a built engine"), (&mut loaded, "a loaded engine")] {
        engine.set_objects(uniform(engine.graph(), density, 9));
        assert_steady_state_allocates_nothing(engine, &methods, &queries, what);
    }
}

/// IER-CH's read path writes nothing: an object's target label is filled by the
/// update that inserts it, so the first query whose candidates include a freshly
/// inserted vertex allocates nothing and leaves the directory's bytes unchanged.
fn first_touch_allocates_nothing(engine: &mut Engine, queries: &[NodeId], label: &str) {
    let k = 8;
    let mut out = QueryOutput::default();
    for _ in 0..2 {
        for &q in queries {
            engine.query_into(Method::IerCh, q, k, &mut out).expect("warm-up query");
        }
    }
    let q = queries[0];
    let v = engine
        .graph()
        .neighbor_ids(q)
        .iter()
        .copied()
        .find(|&v| !engine.objects().unwrap().contains(v))
        .expect("a non-object neighbour of the query vertex");
    assert!(engine.update_objects(UpdateEvent::Insert(v)).unwrap());
    // The insert reshaped the R-tree: re-warm the shared browse heap through an
    // oracle that touches no CH state.
    engine.query_into(Method::IerDijkstra, q, k, &mut out).expect("browse re-warm");

    let bytes = |engine: &Engine| {
        engine.object_indexes().and_then(|live| live.ch_targets()).unwrap().memory_bytes()
    };
    let (bytes_before, before) = (bytes(engine), allocations());
    engine.query_into(Method::IerCh, q, k, &mut out).expect("first-touch query");
    let after = allocations();
    assert!(out.result.iter().any(|&(o, _)| o == v), "{label}: {v} was not a candidate of {q}");
    assert_eq!(after - before, 0, "{label}: the first query to meet {v} allocated");
    assert_eq!(bytes(engine), bytes_before, "{label}: the query wrote into the directory");
}

#[test]
fn a_first_touch_of_an_inserted_object_allocates_nothing_on_built_and_loaded_engines() {
    let (mut engine, queries) = pooled_engine();
    let bytes = engine.save_indexes_to_vec().expect("save engine");
    first_touch_allocates_nothing(&mut engine, &queries, "built");

    let config = EngineConfig {
        build_road: false,
        build_silc: false,
        build_phl: false,
        ..Default::default()
    };
    let mut loaded = Engine::load_indexes_from_vec(bytes, &config).expect("load engine");
    loaded.set_objects(uniform(loaded.graph(), 0.02, 9));
    first_touch_allocates_nothing(&mut loaded, &queries, "loaded");
}

/// The budgeted path shares the zero-allocation steady state: deadline
/// checking must never buy robustness with per-query allocations — neither
/// when the budget is generous (full search, checked every step) nor when it
/// exhausts mid-search (the `DeadlineExceeded` early return, error payload
/// included, is allocation-free on a warm pool).
#[test]
fn budgeted_queries_and_deadline_cuts_allocate_nothing() {
    use rnknn::{EngineError, QueryBudget};
    let (engine, queries) = pooled_engine();
    let k = 8;
    let methods = [Method::Gtree, Method::Ine, Method::IerCh, Method::IerGtree];
    let mut out = QueryOutput::default();
    for &method in &methods {
        for _ in 0..2 {
            for &q in &queries {
                engine.query_into(method, q, k, &mut out).expect("warm-up query");
                // Warm the truncated path too: an exhausted search may park
                // different high-water state in the pool than a completed one.
                let starved = QueryBudget::new(None, 4, 1);
                let _ = engine
                    .execute(&QueryRequest::new(method, q, k).with_budget(&starved), &mut out);
            }
        }
        for &q in &queries {
            // Generous budget, tightest check stride: the full search with a
            // deadline check at every charge must stay allocation-free.
            let generous = QueryBudget::new(
                Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
                u64::MAX,
                1,
            );
            let before = allocations();
            engine
                .execute(&QueryRequest::new(method, q, k).with_budget(&generous), &mut out)
                .expect("budgeted query");
            let after = allocations();
            assert_eq!(
                after - before,
                0,
                "{} allocated {} time(s) under a generous budget at q={q}",
                method.name(),
                after - before
            );
            // Exhausted budget: the early return (truncated search, cleared
            // output, error with partial stats) must also be allocation-free.
            let starved = QueryBudget::new(None, 4, 1);
            let before = allocations();
            let err =
                engine.execute(&QueryRequest::new(method, q, k).with_budget(&starved), &mut out);
            let after = allocations();
            assert!(
                matches!(err, Err(EngineError::DeadlineExceeded { .. })),
                "{} did not exhaust a 4-step budget at q={q}",
                method.name()
            );
            assert_eq!(
                after - before,
                0,
                "{} allocated {} time(s) on the DeadlineExceeded path at q={q}",
                method.name(),
                after - before
            );
        }
    }
}

#[test]
fn query_overhead_over_query_into_is_exactly_the_result_vector() {
    let (engine, queries) = pooled_engine();
    let k = 8;
    let mut out = QueryOutput::default();
    for _ in 0..2 {
        for &q in &queries {
            engine.query_into(Method::Gtree, q, k, &mut out).expect("warm-up");
            let _ = engine.query(Method::Gtree, q, k).expect("warm-up");
        }
    }
    for &q in &queries {
        let before = allocations();
        let output = engine.query(Method::Gtree, q, k).expect("query");
        let after = allocations();
        // A returned `Vec` must be heap-allocated (ownership passes to the caller),
        // so `query` can never be zero-allocation — but it must be exactly that one
        // allocation (possibly grown once while filling: ≤ 2 allocator calls).
        assert!(
            (1..=2).contains(&(after - before)),
            "Engine::query made {} allocator calls at q={q}; expected just the result vector",
            after - before
        );
        drop(output);
    }
}

/// A publish copies the new epoch into a retired bundle's own buffers, so once
/// the buffers have grown to the churn's high-water mark it allocates (almost)
/// nothing. Over a seeded steady churn (insert : remove : move = 1 : 1 : 2, four
/// events per publish) on an engine with every object index — R-tree, G-tree
/// occurrence list, ROAD association directory, CH labels — a warm publish
/// averages at most 2 allocator calls, where a `clone()` of the bundle makes
/// hundreds.
#[test]
fn a_warm_publish_allocates_almost_nothing() {
    let net = RoadNetwork::generate(&GeneratorConfig::new(2_000, 77));
    let config = EngineConfig {
        build_gtree: true,
        build_road: true,
        build_silc: false,
        build_ch: true,
        build_phl: false,
        build_tnr: false,
        ..Default::default()
    };
    let engine = Arc::new(Engine::build(net.graph(EdgeWeightKind::Distance), &config));
    let initial = uniform(engine.graph(), 0.05, 3);
    let store = ObjectStore::new(Arc::clone(&engine), initial.clone());
    let (warm, measured) = (200, 200);
    let churn = ChurnConfig { events: 4 * (warm + measured), seed: 11, ..Default::default() };
    let events = churn_stream(engine.graph().num_vertices(), &initial, &churn);
    let mut allocated = 0;
    for (round, batch) in events.chunks(4).enumerate() {
        assert_eq!(store.stage_batch(batch), batch.len() as u64, "round {round}");
        let before = allocations();
        drop(store.publish());
        if round >= warm {
            allocated += allocations() - before;
        }
    }
    assert_eq!(store.clone_fallbacks(), 0);
    let snapshot = store.snapshot();
    let before = allocations();
    let cloned = snapshot.indexes().clone();
    let clone_allocations = allocations() - before;
    drop(cloned);
    println!(
        "{allocated} allocations over {measured} warm publishes of {} objects; one clone makes \
         {clone_allocations}",
        snapshot.objects().len()
    );
    assert!(
        allocated <= 2 * measured as u64,
        "{allocated} allocations over {measured} warm publishes (a clone makes {clone_allocations})"
    );
}
