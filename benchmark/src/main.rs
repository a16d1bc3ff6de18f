//! `rnknn-benchmark run …` measures; `rnknn-benchmark compare A B` judges two
//! sets of runs against the bounds in `BENCHMARK.json`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use rnknn_benchmark::compare;
use rnknn_benchmark::run::{run, RunArgs};
use rnknn_benchmark::schema::Workload;

const USAGE: &str = "usage:
  rnknn-benchmark run --seed S [--workload W] [--seconds N] [--trace 0|1] [--out DIR] [--smoke]
      W is one of embed_sparse, embed_dense, serve_steady, serve_churn (default: all four).
      --seconds is the length of the measured phases together (default 20).
      --trace 1 records spans, runs the layer probes and the open-loop ladder and reports
      the per-layer metrics; --traced is the same. Results go under DIR (default
      benchmark/out) and nowhere else. The last line printed is the result object.
  rnknn-benchmark compare A B [--benchmark-json FILE]
      A and B are result directories holding at least three runs per workload each.";

fn parse_run(args: &[String]) -> Result<(Vec<Workload>, RunArgs), String> {
    let mut workloads = Workload::ALL.to_vec();
    let mut run = RunArgs {
        workload: Workload::EmbedSparse,
        seed: 0,
        seconds: 20.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        smoke: false,
    };
    let mut seed_given = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i).ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => {
                let name = value()?;
                workloads =
                    vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?];
            }
            "--seed" => {
                run.seed =
                    value()?.parse().map_err(|_| "--seed takes a whole number".to_string())?;
                seed_given = true;
            }
            "--seconds" => {
                run.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| "--seconds takes a number in (0, 600]".to_string())?;
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--traced" => run.trace = true,
            "--out" => run.out = PathBuf::from(value()?),
            "--smoke" => run.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if !seed_given {
        return Err("--seed is required".to_string());
    }
    Ok((workloads, run))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" => {
            parse_run(rest).and_then(|(workloads, base)| {
                let mut all_correct = true;
                for workload in workloads {
                    let report = run(&RunArgs { workload, ..base.clone() })?;
                    all_correct &= report.failed == 0;
                    println!("{}", report.result_line());
                }
                Ok(all_correct)
            })
        }
        Some((command, rest)) if command == "compare" => compare::main(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Wrong answers or a WORSE verdict: the output above says which.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
