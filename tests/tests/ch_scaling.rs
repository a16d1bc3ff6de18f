//! Regression guard for the CH preprocessing dense-core wall: builds must stay exact
//! at sizes where the pre-fix contraction loop went superlinear, and (in release
//! builds) must finish inside a wall-clock budget.
//!
//! History: the seed's lazy-update loop re-ran the full O(deg²) witness sweep on every
//! queue pop; a ~23k-vertex build took ~186s in release mode. With cached priorities,
//! staged hop-limited witness passes, and the pruned query path, the same build is
//! ~1s, so the release budgets below have an order of magnitude of slack — if one
//! trips, the superlinear blowup is back.

use std::time::{Duration, Instant};

use rnknn_ch::{ChSearchSpace, ContractionHierarchy};
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::{EdgeWeightKind, NodeId};
use rnknn_pathfinding::dijkstra;

fn build_and_verify(size: usize, kind: EdgeWeightKind, pairs: u32) -> Duration {
    let net = RoadNetwork::generate(&GeneratorConfig::new(size, 42));
    let g = net.graph(kind);
    let start = Instant::now();
    let ch = ContractionHierarchy::build(&g);
    let elapsed = start.elapsed();
    let n = g.num_vertices() as NodeId;
    for i in 0..pairs {
        let s = (i * 7919) % n;
        let t = (i * 104_729 + 31) % n;
        assert_eq!(
            ch.distance(s, t),
            dijkstra::distance(&g, s, t),
            "{s}->{t} at size {size} {kind:?}"
        );
    }
    elapsed
}

#[test]
fn ch_matches_dijkstra_at_5k_on_both_weight_kinds() {
    for kind in [EdgeWeightKind::Distance, EdgeWeightKind::Time] {
        let elapsed = build_and_verify(5_000, kind, 25);
        // Debug builds are ~10x slower; only release timings are meaningful.
        if !cfg!(debug_assertions) {
            assert!(elapsed < Duration::from_secs(2), "5k {kind:?} build took {elapsed:?}");
        }
    }
}

// The 20k build is release-only: the point is the wall-clock regression guard, and in
// debug mode the build alone would dominate the tier-1 suite without adding coverage
// beyond the 5k case above.
#[cfg(not(debug_assertions))]
#[test]
fn ch_matches_dijkstra_at_20k_within_wall_clock_budget() {
    for kind in [EdgeWeightKind::Distance, EdgeWeightKind::Time] {
        let elapsed = build_and_verify(20_000, kind, 15);
        // Measured ~1.0-1.3s per weight kind; 10s means the dense-core wall is back.
        assert!(elapsed < Duration::from_secs(10), "20k {kind:?} build took {elapsed:?}");
    }
}

// 250k guard for the second scaling wall (the one fixed by cheap priority
// estimates, degree-scaled witness budgets and the min-degree hash-map endgame):
// pre-fix this build took ~390s, post-fix ~19s. One weight kind keeps the release
// suite's wall-clock reasonable; the exactness spread across kinds is covered at
// 5k/20k above.
#[cfg(not(debug_assertions))]
#[test]
fn ch_matches_dijkstra_at_250k_within_wall_clock_budget() {
    let elapsed = build_and_verify(250_000, EdgeWeightKind::Distance, 5);
    assert!(elapsed < Duration::from_secs(60), "250k build took {elapsed:?}");
}

/// Stall-on-demand is a pure search-space optimisation: the pruned bidirectional
/// distance must equal the meet of the two fully materialised upward search spaces
/// (which is the exact network distance), and a stalled target label is never
/// longer than the full upward space of its vertex.
#[test]
fn stall_on_demand_toggle_preserves_exactness_and_prunes() {
    let net = RoadNetwork::generate(&GeneratorConfig::new(2_000, 9));
    for kind in [EdgeWeightKind::Distance, EdgeWeightKind::Time] {
        let g = net.graph(kind);
        let ch = ContractionHierarchy::build(&g);
        let n = g.num_vertices() as NodeId;
        let (mut forward, mut backward) = (ChSearchSpace::new(), ChSearchSpace::new());
        let mut label = Vec::new();
        let mut stalled_total = 0u64;
        for i in 0..60u32 {
            let s = (i * 611) % n;
            let t = (i * 7001 + 17) % n;
            ch.upward_search_space_stopping_at_into(s, |_| false, &mut forward);
            ch.upward_search_space_stopping_at_into(t, |_| false, &mut backward);
            let materialized = forward.meet(&backward);
            let (with_stall, counters) = ch.distance_with_counters(s, t);
            assert_eq!(with_stall, materialized, "stalling broke {s}->{t} {kind:?}");
            stalled_total += counters.stalled;
            for (v, full) in [(s, &forward), (t, &backward)] {
                ch.target_label_into(v, &mut label);
                assert!(label.len() <= full.len(), "the label of {v} outgrew its space ({kind:?})");
            }
        }
        // Across a workload this size stalling must actually fire.
        assert!(stalled_total > 0, "stall-on-demand never pruned anything ({kind:?})");
    }
}
