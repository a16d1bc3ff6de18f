//! The one producer of the committed `BENCH_*.json` scaling trajectories.
//!
//! Each named bench builds its tiers on generated networks, verifies them
//! against Dijkstra (pair checks for CH, brute-force kNN for G-tree, per-method
//! ground truth for kNN, per-epoch interleaved verification plus exactly-once
//! accounting for serving, post-clock verification for cold start), measures,
//! and merges its records by name into `BENCH_<bench>.json` in the workspace
//! root (`rnknn_bench::track`). After writing, `knn` gates every method's
//! summed query counters exactly and its p50 within 2× against the file's
//! previous contents, and `gtree`, `knn` /
//! `cold-start` fail when the G-tree's or ROAD's `memory_bytes` / the artifact's
//! `artifact_bytes` grew (deterministic counts); re-baselining an intentional
//! change is committing the written file. `work` writes the identity digests
//! (artifact checksums and summed query counters); the crate's tests compare
//! them exactly.

#![forbid(unsafe_code)]

use std::time::Duration;

use rnknn_bench::artifacts::ArtifactIo;
use rnknn_bench::{
    ch_build, cli, cold_start, gtree_build, knn_query, serving, track, work, BENCHES,
};

const USAGE: &str = "\
usage: trajectory_bench <ch|gtree|knn|serving|cold-start|work>... [flags]
  --smoke            the CI tier: smaller sizes (serving: 0.5 s cells instead of 3 s)
  --sizes N,N,..     generator target sizes instead of the tier's (every bench)
  --queries N        measured queries per method and size, default 400 (knn)
  --density D        uniform object density, default 0.01 (knn, serving)
  --save DIR         save each tier's built indexes (ch, gtree, knn, serving)
  --load DIR         load them instead of building; verifies, tracks nothing (same)
  --fault-seed SEED  seeded chaos plan; verifies, tracks nothing (serving)
  --deadline-ms MS   per-request deadline; verifies, tracks nothing (serving)";

/// Which benches read each flag that not every bench reads.
const FLAG_READERS: [(&str, &[&str]); 6] = [
    ("--queries", &["knn"]),
    ("--density", &["knn", "serving"]),
    ("--save", &["ch", "gtree", "knn", "serving"]),
    ("--load", &["ch", "gtree", "knn", "serving"]),
    ("--fault-seed", &["serving"]),
    ("--deadline-ms", &["serving"]),
];

fn run(args: &cli::Args) -> Result<(), String> {
    let benches = args.positionals_in(&BENCHES.map(|(subcommand, _)| subcommand))?;
    for (flag, readers) in FLAG_READERS {
        if args.has(flag) && !benches.iter().any(|b| readers.contains(&b.as_str())) {
            return Err(format!("{flag} is only read by: {}", readers.join(", ")));
        }
    }
    let smoke = args.has("--smoke");
    let sizes: Option<Vec<usize>> = args.list("--sizes")?;
    let tier = |smoke_tier: &[usize], full: &[usize]| {
        sizes.clone().unwrap_or_else(|| if smoke { smoke_tier } else { full }.to_vec())
    };
    let queries = args.value("--queries")?.unwrap_or(400);
    let density = args.value("--density")?.unwrap_or(0.01);
    let io = ArtifactIo { save_dir: args.value("--save")?, load_dir: args.value("--load")? };
    let robust = serving::Robustness {
        deadline: args.value("--deadline-ms")?.map(Duration::from_millis),
        fault_plan: args.value("--fault-seed")?.map(rnknn_serve::FaultPlan::chaos),
    };

    for subcommand in benches {
        const BUILD: [usize; 4] = [20_000, 100_000, 250_000, 500_000];
        // `tracked`: a loaded index has no build time and an error-answering
        // front no throughput worth committing, so such runs only verify.
        let built = io.load_dir.is_none();
        let bench = BENCHES.iter().find(|(s, _)| s == subcommand).expect("validated above").1;
        let (records, tracked) = match bench {
            "ch_build" => (ch_build::measure(&tier(&BUILD[..3], &BUILD), &io), built),
            "gtree_build" => (gtree_build::measure(&tier(&BUILD[..3], &BUILD), &io), built),
            "knn_query" => {
                (knn_query::measure(&tier(&BUILD[..2], &BUILD), queries, density, &io), built)
            }
            "serving" => {
                let seconds = Duration::from_secs_f64(if smoke { 0.5 } else { 3.0 });
                let sizes = tier(&[20_000], &[100_000, 500_000]);
                let records = serving::measure(&sizes, density, seconds, &io, robust);
                (records, built && !robust.active())
            }
            "cold_start" => {
                (cold_start::measure(&tier(&BUILD[..2], &[20_000, 100_000, 500_000])), true)
            }
            "work" => (
                tier(&work::SIZES, &work::SIZES).into_iter().flat_map(work::measure).collect(),
                true,
            ),
            other => unreachable!("BENCHES names no {other}"),
        };
        if !tracked {
            println!("--load / robustness knobs active: BENCH_{bench}.json left untouched");
            continue;
        }
        let previous = track::update(bench, &records);
        match bench {
            "knn_query" => {
                knn_query::check_regression(&records, &previous);
                track::check_bytes_not_grown(&records, &previous, "/memory_bytes");
            }
            "gtree_build" => track::check_bytes_not_grown(&records, &previous, "/memory_bytes"),
            "cold_start" => track::check_bytes_not_grown(&records, &previous, "/artifact_bytes"),
            _ => {}
        }
    }
    Ok(())
}

fn main() {
    let value_flags =
        ["--sizes", "--queries", "--density", "--save", "--load", "--fault-seed", "--deadline-ms"];
    cli::parse(std::env::args().skip(1), &value_flags, &["--smoke"])
        .and_then(|args| run(&args))
        .unwrap_or_else(|e| cli::exit_with_usage(USAGE, &e));
}
