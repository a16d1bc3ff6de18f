//! kNN query-latency scaling bench (the query-side counterpart of
//! `ch_build_bench` / `gtree_build_bench`).
//!
//! Builds the query-side indexes (G-tree + CH) on generated networks of increasing
//! size, verifies every tracked method against the Dijkstra ground truth, measures
//! per-method p50 latency and queries/sec of `Engine::query_into` on the warm
//! per-thread scratch pool, and writes the trajectory to
//! `BENCH_knn_query.json` in the workspace root so CI can track steady-state query
//! performance across PRs.
//!
//! Usage: `cargo run --release -p rnknn-bench --bin knn_query_bench
//!         [--sizes 20000,100000,250000,500000] [--queries 400] [--k 10]
//!         [--density 0.01] [--save DIR] [--load DIR] [--smoke]`
//!
//! `--save DIR` persists each tier's built indexes as
//! `DIR/rnknn-knn-<size>.rnk`; `--load DIR` cold-starts every tier from those
//! artifacts instead of rebuilding (the Dijkstra verification gate still runs).

#![forbid(unsafe_code)]

use rnknn_bench::{artifacts, knn_query};

fn main() {
    let mut sizes: Vec<usize> = vec![20_000, 100_000, 250_000, 500_000];
    let mut queries = 400usize;
    let mut k = 10usize;
    // Default workload matches the committed BENCH_knn_query.json trajectory and
    // the run_and_track smoke tier (serving regime: ~1 object per 100 vertices).
    let mut density = 0.01f64;
    let mut io = artifacts::ArtifactIo::none();
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--sizes" => {
                i += 1;
                sizes = args[i].split(',').map(|s| s.trim().parse().expect("size")).collect();
            }
            "--queries" => {
                i += 1;
                queries = args[i].parse().expect("query count");
            }
            "--k" => {
                i += 1;
                k = args[i].parse().expect("k");
            }
            "--density" => {
                i += 1;
                density = args[i].parse().expect("density");
            }
            "--save" => {
                i += 1;
                io.save_dir = Some(args[i].clone());
            }
            "--load" => {
                i += 1;
                io.load_dir = Some(args[i].clone());
            }
            "--smoke" => {
                // The CI tier: identical to what bench_construction smoke-runs.
                knn_query::run_and_track();
                return;
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }

    let points = knn_query::measure(&sizes, queries, k, density, 3, &io);
    let path = knn_query::tracking_file();
    std::fs::write(path, knn_query::render_json(&points)).expect("write BENCH_knn_query.json");
    println!("wrote {path}");
}
