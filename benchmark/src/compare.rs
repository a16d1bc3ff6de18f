//! `compare A B`: two sets of runs judged metric by metric against the bounds
//! in `BENCHMARK.json`.
//!
//! A *set* is at least three runs of a workload, compared by set median.
//! Timings get PASS / WORSE / UNRESOLVED; exact counts must be bit-equal
//! between runs of equal seed; equal seeds must carry equal input fingerprints.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::estimators::{quartiles, spread};
use crate::json::{self, Value};
use crate::schema::{self, MetricSpec, Workload};

/// One run read back from a result file.
#[derive(Debug, Clone)]
struct Run {
    seed: u64,
    fingerprint: String,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// workload name → trace flag → runs.
type RunSet = BTreeMap<(String, bool), Vec<Run>>;

fn read_set(dir: &Path) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        // Result files are `<workload>.seed<S>.trace<T>.<millis>.json`; span files
        // (`trace.<workload>.json`) share the directory and are not results.
        if !name.ends_with(".json") || name.starts_with("trace.") {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let value = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let field =
            |key: &str| value.get(key).ok_or_else(|| format!("{}: no \"{key}\"", path.display()));
        if field("smoke")? == &Value::Bool(true) {
            continue;
        }
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let traced = field("trace")?.as_f64() == Some(1.0);
        let metrics = field("metrics")?
            .as_object()
            .unwrap_or_default()
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        set.entry((workload, traced)).or_default().push(Run {
            seed: field("seed")?.as_f64().unwrap_or(0.0) as u64,
            fingerprint: field("gen.input_fingerprint")?.as_str().unwrap_or_default().to_string(),
            failed: field("failed")?.as_f64().unwrap_or(0.0) as u64,
            metrics,
        });
    }
    Ok(set)
}

/// Reads `end_to_end[*].{name, bound}` out of `BENCHMARK.json`.
pub fn read_bounds(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let value = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = value
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: no \"end_to_end\" list", path.display()))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            name.zip(bound).map(|(n, b)| (n.to_string(), b)).ok_or_else(|| {
                format!("{}: an end_to_end entry lacks name or bound", path.display())
            })
        })
        .collect()
}

/// The verdict on one timing metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Pass,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A set's own spread exceeds the bound and the sets overlap: the runs
    /// cannot tell.
    Unresolved,
}

/// Judges set `b` against set `a`: by how much B's median is worse (as a share
/// of A's; negative = better), and what that means under `bound`.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (_, median_a, _) = quartiles(a);
    let (_, median_b, _) = quartiles(b);
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (median_b - median_a) / median_a;
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let b_dominates = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    let a_dominates = a.iter().all(|&y| b.iter().all(|&x| better(y, x)));
    let noisy = spread(a) > bound || spread(b) > bound;
    let verdict = if noisy && !b_dominates && !(a_dominates && worse_by > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Pass
    };
    (worse_by, verdict)
}

fn column(runs: &[Run], metric: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.metrics.get(metric).copied()).collect()
}

/// Entry point of the `compare` subcommand. `Ok(false)` when anything is WORSE,
/// unequal or failed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let mut dirs = Vec::new();
    let mut benchmark_json = PathBuf::from("BENCHMARK.json");
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--benchmark-json" {
            i += 1;
            benchmark_json = PathBuf::from(args.get(i).ok_or("--benchmark-json needs a value")?);
        } else {
            dirs.push(PathBuf::from(&args[i]));
        }
        i += 1;
    }
    let [dir_a, dir_b] = dirs.as_slice() else {
        return Err("compare takes exactly two result directories".to_string());
    };
    let bounds = read_bounds(&benchmark_json)?;
    let (set_a, set_b) = (read_set(dir_a)?, read_set(dir_b)?);
    let mut good = true;

    for workload in Workload::ALL {
        for (traced, specs) in [(false, schema::end_to_end()), (true, schema::per_layer())] {
            let key = (workload.name().to_string(), traced);
            let (Some(a), Some(b)) = (set_a.get(&key), set_b.get(&key)) else { continue };
            if !traced && (a.len() < 3 || b.len() < 3) {
                return Err(format!(
                    "{}: a set is at least three runs; A has {}, B has {}",
                    workload.name(),
                    a.len(),
                    b.len()
                ));
            }
            println!(
                "\n== {} ({}): A {} runs, B {} runs",
                workload.name(),
                if traced { "per-layer" } else { "end-to-end" },
                a.len(),
                b.len()
            );
            good &= check_runs(a, b);
            println!(
                "{:<40} {:>14} {:>22} {:>14} {:>22} {:>9}  verdict",
                "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B/A"
            );
            for spec in &specs {
                good &= report_metric(spec, a, b, bounds.get(&spec.name).copied());
            }
        }
    }
    Ok(good)
}

/// Failures and input fingerprints: no run may have failed an operation, and
/// runs of equal seed must have had equal inputs.
fn check_runs(a: &[Run], b: &[Run]) -> bool {
    let mut good = true;
    let mut by_seed: BTreeMap<u64, &str> = BTreeMap::new();
    for run in a.iter().chain(b) {
        if run.failed > 0 {
            println!("FAILED OPERATIONS: seed {} failed {}", run.seed, run.failed);
            good = false;
        }
        let first = by_seed.entry(run.seed).or_insert(&run.fingerprint);
        if *first != run.fingerprint {
            println!(
                "INPUTS DIFFER: seed {} has fingerprints {first} and {}",
                run.seed, run.fingerprint
            );
            good = false;
        }
    }
    let seeds: Vec<String> =
        by_seed.iter().map(|(seed, print)| format!("{seed}:{print}")).collect();
    println!("gen.input_fingerprint by seed: {}", seeds.join(" "));
    good
}

fn report_metric(spec: &MetricSpec, a: &[Run], b: &[Run], bound: Option<f64>) -> bool {
    let (va, vb) = (column(a, &spec.name), column(b, &spec.name));
    if va.is_empty() || vb.is_empty() {
        println!("{:<40} missing from a set", spec.name);
        return false;
    }
    let summary = |v: &[f64]| {
        if v.len() >= 2 {
            quartiles(v)
        } else {
            (v[0], v[0], v[0])
        }
    };
    let ((a1, a2, a3), (b1, b2, b3)) = (summary(&va), summary(&vb));
    let (verdict, good) = if spec.exact {
        // An exact count depends on the inputs only: compare runs of equal seed.
        let mut by_seed: BTreeMap<u64, f64> = BTreeMap::new();
        let equal = a.iter().chain(b).all(|run| match run.metrics.get(&spec.name) {
            Some(&v) => *by_seed.entry(run.seed).or_insert(v) == v,
            None => false,
        });
        (if equal { "PASS (bit-equal)" } else { "WORSE (counts differ)" }.to_string(), equal)
    } else if let (Some(bound), true) = (bound, va.len() >= 3 && vb.len() >= 3) {
        let (worse_by, verdict) = judge(&va, &vb, spec.higher_is_better, bound);
        let text = match verdict {
            Verdict::Pass => "PASS",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "UNRESOLVED",
        };
        (
            format!("{text} ({:+.1} % worse, bound {:.0} %)", worse_by * 100.0, bound * 100.0),
            verdict != Verdict::Worse,
        )
    } else {
        ("-".to_string(), true)
    };
    println!(
        "{:<40} {:>14.4} {:>10.4}..{:<10.4} {:>14.4} {:>10.4}..{:<10.4} {:>9.4}  {verdict}",
        spec.name,
        a2,
        a1,
        a3,
        b2,
        b1,
        b3,
        b2 / a2
    );
    good
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_separates_pass_worse_and_unresolved() {
        // Lower is better, bound 10 %.
        let steady = [100.0, 101.0, 99.0];
        assert_eq!(judge(&steady, &[104.0, 105.0, 103.0], false, 0.10).1, Verdict::Pass);
        assert_eq!(judge(&steady, &[120.0, 121.0, 119.0], false, 0.10).1, Verdict::Worse);
        // B is noisy and overlaps A: its median says nothing either way.
        assert_eq!(judge(&steady, &[90.0, 125.0, 140.0], false, 0.10).1, Verdict::Unresolved);
        // Noisy, but every B run beats every A run: resolved in B's favour.
        assert_eq!(judge(&steady, &[50.0, 70.0, 90.0], false, 0.10).1, Verdict::Pass);
        // Higher is better: a drop of a fifth is worse, a rise is not.
        let (by, verdict) = judge(&[1000.0, 1010.0, 990.0], &[800.0, 805.0, 795.0], true, 0.10);
        assert!((by - 0.2).abs() < 1e-9 && verdict == Verdict::Worse);
        assert_eq!(
            judge(&[1000.0, 1010.0, 990.0], &[1200.0, 1190.0, 1210.0], true, 0.10).1,
            Verdict::Pass
        );
    }
}
