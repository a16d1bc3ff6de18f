//! Drives the built binary end to end at the smoke tier: every workload emits
//! exactly the names the schema lists (both kinds), answers are correct, the
//! run writes nowhere but `--out`, and `compare` judges result sets.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rnknn_benchmark::json::{self, Value};
use rnknn_benchmark::schema::{self, MetricSpec, Workload};

const BINARY: &str = env!("CARGO_BIN_EXE_rnknn-benchmark");

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn smoke(workload: Workload, trace: bool, out: &Path) -> Value {
    let output = Command::new(BINARY)
        .args(["run", "--smoke", "--seed", "7", "--seconds", "2", "--workload", workload.name()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(output.status.success(), "{} failed:\n{stdout}", workload.name());
    json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

fn check_result(result: &Value, specs: &[MetricSpec], nonzero: bool) {
    let keys: Vec<&str> = result.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
    let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let listed: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(emitted, listed, "emitted names differ from the schema's");
    for ((name, metric), spec) in metrics.iter().zip(specs) {
        let value = metric.get("value").and_then(Value::as_f64);
        let value = value.unwrap_or_else(|| panic!("{name}: value is not a finite number"));
        assert!(!nonzero || value > 0.0, "{name}: an end-to-end metric is never 0, got {value}");
        assert_eq!(metric.get("unit").and_then(Value::as_str), Some(spec.unit), "{name}");
    }
}

fn git_status(repo: &Path) -> Option<Vec<u8>> {
    let output =
        Command::new("git").arg("-C").arg(repo).args(["status", "--porcelain"]).output().ok()?;
    output.status.success().then_some(output.stdout)
}

#[test]
fn smoke_runs_emit_the_schema_and_write_only_under_out() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    // `None` outside a git checkout (the driver's copy is not one): nothing to compare.
    let before = git_status(&repo);
    let out = scratch("smoke");

    for workload in Workload::ALL {
        check_result(&smoke(workload, false, &out), &schema::end_to_end(), true);
    }
    check_result(&smoke(Workload::ServeChurn, true, &out), &schema::per_layer(), false);

    let written: BTreeSet<String> = std::fs::read_dir(&out)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert!(written.contains("trace.serve_churn.json"), "{written:?}");
    assert_eq!(written.len(), 6, "five result files and one span file: {written:?}");
    let spans = std::fs::read_to_string(out.join("trace.serve_churn.json")).unwrap();
    let spans = json::parse(&spans).expect("the span file is JSON");
    let names: BTreeSet<&str> = spans
        .as_array()
        .unwrap()
        .iter()
        .map(|s| s.get("name").and_then(Value::as_str).unwrap())
        .collect();
    for expected in
        ["run", "setup", "core.build", "measure", "core.query_into.gtree", "request", "search"]
    {
        assert!(names.contains(expected), "no {expected} span among {names:?}");
    }

    assert_eq!(git_status(&repo), before, "the run changed `git status` of the repository");
}

/// Writes a synthetic end-to-end result file whose every metric reads `scale ×
/// (index + 1)`, plus `jitter` per run.
fn write_result(dir: &Path, workload: Workload, run: usize, scale: f64) {
    let metrics: Vec<(String, Value)> = schema::end_to_end()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let base = 100.0 * (i + 1) as f64;
            // Exact counts must not move; timings get the scale and a 1 % jitter.
            let value = if spec.exact { base } else { base * scale * (1.0 + 0.01 * run as f64) };
            let entry = vec![
                ("value".into(), Value::Num(value)),
                ("unit".into(), Value::Str(spec.unit.into())),
            ];
            (spec.name.clone(), Value::Obj(entry))
        })
        .collect();
    let file = Value::Obj(vec![
        ("workload".into(), Value::Str(workload.name().into())),
        ("seed".into(), Value::Num(run as f64)),
        ("seconds".into(), Value::Num(20.0)),
        ("trace".into(), Value::Num(0.0)),
        ("smoke".into(), Value::Bool(false)),
        ("gen.input_fingerprint".into(), Value::Str(format!("{run:016x}"))),
        ("correct".into(), Value::Bool(true)),
        ("attempted".into(), Value::Num(10.0)),
        ("failed".into(), Value::Num(0.0)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    let path = dir.join(format!("{}.seed{run}.trace0.{run}.json", workload.name()));
    std::fs::write(path, file.render()).unwrap();
}

fn compare(a: &Path, b: &Path) -> Output {
    let bounds = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Command::new(BINARY)
        .arg("compare")
        .args([a, b])
        .arg("--benchmark-json")
        .arg(bounds)
        .output()
        .expect("compare runs")
}

#[test]
fn compare_passes_equal_sets_and_flags_a_worse_one() {
    let (a, same, slower) = (scratch("set-a"), scratch("set-same"), scratch("set-slower"));
    for run in 0..3 {
        write_result(&a, Workload::EmbedDense, run, 1.0);
        write_result(&same, Workload::EmbedDense, run, 1.005);
        write_result(&slower, Workload::EmbedDense, run, 1.6);
    }
    let equal = compare(&a, &same);
    let text = String::from_utf8_lossy(&equal.stdout).into_owned();
    assert!(equal.status.success(), "equal sets must pass:\n{text}");
    assert!(text.contains("PASS (bit-equal)") && text.contains("gen.input_fingerprint"), "{text}");
    assert!(!text.contains("WORSE"), "{text}");

    let worse = compare(&a, &slower);
    let text = String::from_utf8_lossy(&worse.stdout).into_owned();
    assert_eq!(worse.status.code(), Some(1), "a slower set must fail:\n{text}");
    // Lower-is-better timings got 60 % worse; throughputs got better and pass.
    assert!(text.contains("knn_p50_us.gtree") && text.contains("WORSE (+6"), "{text}");

    let two_runs = scratch("set-short");
    write_result(&two_runs, Workload::EmbedDense, 0, 1.0);
    write_result(&two_runs, Workload::EmbedDense, 1, 1.0);
    assert_eq!(compare(&a, &two_runs).status.code(), Some(2), "a set is at least three runs");
}
