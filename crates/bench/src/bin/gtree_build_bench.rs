//! G-tree construction scaling bench (Figure 9-style build-time trajectory).
//!
//! Builds G-trees on generated networks of increasing size, verifies kNN results
//! against a Dijkstra brute force, and writes the measured build times to
//! `BENCH_gtree_build.json` in the workspace root so CI can track the perf trajectory
//! across PRs. The knob flags mirror [`rnknn::gtree::GtreeConfig`]; unless
//! `--leaf-capacity` is given, the paper's size-based leaf capacity applies per size.
//!
//! Usage: `cargo run --release -p rnknn-bench --bin gtree_build_bench
//!         [--sizes 20000,100000,250000,500000] [--save DIR] [--load DIR]`
//!
//! `--save DIR` persists each built tree (plus its graph) as
//! `DIR/rnknn-gtree-<size>.rnk`; `--load DIR` reloads those artifacts instead
//! of building — the Dijkstra verification gate still runs, but no tracking
//! JSON is written (loads are not build-time measurements).

#![forbid(unsafe_code)]

use rnknn::gtree::GtreeConfig;
use rnknn_bench::{artifacts, gtree_build};

fn main() {
    let mut sizes: Vec<usize> = vec![20_000, 100_000, 250_000, 500_000];
    let mut verify_queries = 5u32;
    let mut io = artifacts::ArtifactIo::none();
    let mut leaf_capacity: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut fanout: Option<usize> = None;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--sizes" => {
                i += 1;
                sizes = args[i].split(',').map(|s| s.trim().parse().expect("size")).collect();
            }
            "--verify-queries" => {
                i += 1;
                verify_queries = args[i].parse().expect("query count");
            }
            "--leaf-capacity" => {
                i += 1;
                leaf_capacity = Some(args[i].parse().expect("leaf capacity"));
            }
            "--threads" => {
                i += 1;
                threads = Some(args[i].parse().expect("thread count"));
            }
            "--fanout" => {
                i += 1;
                fanout = Some(args[i].parse().expect("fanout"));
            }
            "--save" => {
                i += 1;
                io.save_dir = Some(args[i].clone());
            }
            "--load" => {
                i += 1;
                io.load_dir = Some(args[i].clone());
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }

    // One measure() call per size so the paper's size-based leaf capacity applies
    // even when other knobs are overridden.
    let mut points = Vec::new();
    for &size in &sizes {
        let defaults = leaf_capacity.is_none() && fanout.is_none() && threads.is_none();
        let config = if defaults {
            None
        } else {
            let mut config = GtreeConfig {
                leaf_capacity: leaf_capacity
                    .unwrap_or_else(|| GtreeConfig::paper_leaf_capacity(size)),
                ..Default::default()
            };
            if let Some(t) = threads {
                config.build_threads = t;
            }
            if let Some(f) = fanout {
                config.fanout = f;
            }
            Some(config)
        };
        points.extend(gtree_build::measure(&[size], config.as_ref(), verify_queries, &io));
    }
    if io.load_dir.is_some() {
        println!("loaded from artifacts; tracking file left untouched");
        return;
    }
    let path = gtree_build::tracking_file();
    std::fs::write(path, gtree_build::render_json(&points)).expect("write BENCH_gtree_build.json");
    println!("wrote {path}");
}
