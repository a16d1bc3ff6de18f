//! `BENCHMARK.json` and `schema.rs` must name the same metrics, both ways, and
//! the file must stay inside the limits the driver enforces before a single run.

use std::collections::BTreeSet;
use std::path::Path;

use rnknn_benchmark::json::{self, Value};
use rnknn_benchmark::schema::{self, MetricSpec, Workload};

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(value: &Value) -> Vec<&str> {
    value.as_object().expect("an object").iter().map(|(k, _)| k.as_str()).collect()
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// Checks one metric list of the file against the schema's, entry by entry.
fn check_list(listed: &[Value], specs: &[MetricSpec], entry_keys: &[&str]) {
    let listed_names: Vec<&str> =
        listed.iter().map(|m| m.get("name").and_then(Value::as_str).expect("name")).collect();
    let schema_names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        listed_names, schema_names,
        "BENCHMARK.json and schema.rs disagree on names or order"
    );
    for (entry, spec) in listed.iter().zip(specs) {
        assert_eq!(keys(entry), entry_keys, "{}: keys", spec.name);
        assert!(valid_name(&spec.name), "{}: not a valid metric name", spec.name);
        let unit = entry.get("unit").and_then(Value::as_str).expect("unit");
        assert_eq!(unit, spec.unit, "{}: unit", spec.name);
        assert!(valid_unit(unit), "{}: unit {unit:?} outside the driver's alphabet", spec.name);
        let better = entry.get("better").and_then(Value::as_str).expect("better");
        assert_eq!(better, if spec.higher_is_better { "higher" } else { "lower" }, "{}", spec.name);
    }
}

#[test]
fn benchmark_json_matches_the_schema_in_both_directions() {
    let file = benchmark_json();
    assert_eq!(
        keys(&file),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"],
        "BENCHMARK.json has exactly these keys"
    );

    let workloads = file.get("workloads").and_then(Value::as_array).unwrap();
    let names: Vec<&str> =
        workloads.iter().map(|w| w.get("name").and_then(Value::as_str).unwrap()).collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    for workload in workloads {
        assert_eq!(keys(workload), ["name", "why"]);
        let why = workload.get("why").and_then(Value::as_str).unwrap();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why is one line of at most 200 characters"
        );
    }

    let end_to_end = file.get("end_to_end").and_then(Value::as_array).unwrap();
    check_list(end_to_end, &schema::end_to_end(), &["name", "unit", "better", "bound"]);
    assert!((1..=16).contains(&end_to_end.len()));
    for entry in end_to_end {
        let bound = entry.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} outside (0, 0.25]");
    }
    let setup = &end_to_end[0];
    assert_eq!(setup.get("name").and_then(Value::as_str), Some("setup_s"));
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
    let largest = end_to_end
        .iter()
        .map(|e| e.get("bound").and_then(Value::as_f64).unwrap())
        .fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound").and_then(Value::as_f64),
        Some(largest),
        "setup_s has the largest bound"
    );

    let per_layer = file.get("per_layer").and_then(Value::as_array).unwrap();
    check_list(per_layer, &schema::per_layer(), &["name", "unit", "better"]);
    assert!((1..=128).contains(&per_layer.len()));

    let all: Vec<String> =
        schema::end_to_end().into_iter().chain(schema::per_layer()).map(|s| s.name).collect();
    assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len(), "a metric name is used once");
}

#[test]
fn command_and_paths_stay_inside_the_benchmark_directory() {
    let file = benchmark_json();
    let paths: Vec<&str> = file
        .get("paths")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = file
        .get("command")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    for word in &command {
        assert!(!word.starts_with('/') && !word.contains(".."), "{word}: leaves the checkout");
        if word.contains('/') {
            assert!(word.starts_with("benchmark/"), "{word}: names a file outside `paths`");
        }
    }
    let seconds = file.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
}
