//! Figures 8 / 26: road-network index construction, compared across indexes on
//! one small network. (The 20k–580k CH and G-tree build-time trajectories are
//! `trajectory_bench ch gtree`.)

use criterion::{criterion_group, criterion_main, Criterion};
use rnknn::ch::ContractionHierarchy;
use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
use rnknn_graph::EdgeWeightKind;
use rnknn_gtree::Gtree;
use rnknn_road::RoadIndex;
use std::time::Duration;

fn bench_construction(c: &mut Criterion) {
    let graph =
        RoadNetwork::generate(&GeneratorConfig::new(2_000, 13)).graph(EdgeWeightKind::Distance);
    let mut group = c.benchmark_group("fig8_construction");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    group.bench_function("gtree", |b| b.iter(|| Gtree::build(&graph).num_nodes()));
    group.bench_function("road", |b| b.iter(|| RoadIndex::build(&graph).num_rnets()));
    group.bench_function("ch", |b| b.iter(|| ContractionHierarchy::build(&graph).num_shortcuts()));
    group.finish();
}

criterion_group!(benches, bench_construction);
criterion_main!(benches);
