//! The trajectory spine: every `measure` in this crate returns flat [`Record`]s,
//! and this module is the only code that reads or writes the committed
//! `BENCH_<bench>.json` files in the workspace root.
//!
//! A file is a JSON array holding one `{"name", "value", "unit"}` object per
//! line, so diffs stay line-oriented. Names are `/`-separated paths —
//! `knn_query/115766/Gtree/p50_us`, `serving/23190/rate=0.10/qps` — and
//! [`update`] merges by name: re-measuring one tier never erases another.

use std::path::{Path, PathBuf};

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Record {
    /// A record holding `value` rounded to three decimals (what the file keeps,
    /// so a record compares equal to itself after a write → read round trip).
    /// Panics on what the file cannot hold: a non-finite value, or a string
    /// that would need a JSON escape.
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Record {
        Record::checked(name.into(), value, unit).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Record::new`] with the rejection as an `Err` (the reader's path).
    fn checked(name: String, value: f64, unit: &str) -> Result<Record, String> {
        if !value.is_finite() || name.contains(['"', '\\']) || unit.contains(['"', '\\']) {
            return Err(format!("record {name:?} = {value} {unit:?} is not representable"));
        }
        Ok(Record { name, value: (value * 1e3).round() / 1e3, unit: unit.to_string() })
    }
}

/// One record `<prefix>/<name>` per `(name, value, unit)` field.
pub(crate) fn records(prefix: &str, fields: &[(&str, f64, &str)]) -> Vec<Record> {
    fields
        .iter()
        .map(|(name, value, unit)| Record::new(format!("{prefix}/{name}"), *value, unit))
        .collect()
}

/// The value recorded under `name`, if any.
pub(crate) fn value(records: &[Record], name: &str) -> Option<f64> {
    records.iter().find(|r| r.name == name).map(|r| r.value)
}

/// Renders `records` in the file shape: one record per line.
pub(crate) fn write(records: &[Record]) -> String {
    let lines: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}",
                r.name, r.value, r.unit
            )
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// Parses what [`write`] renders (any JSON whitespace and key order accepted;
/// strings carry no escapes, which [`Record::new`] guarantees).
pub(crate) fn read(text: &str) -> Result<Vec<Record>, String> {
    let mut cursor = Cursor { rest: text };
    let mut records = Vec::new();
    cursor.expect('[')?;
    while !cursor.eat(']') {
        if !records.is_empty() {
            cursor.expect(',')?;
        }
        cursor.expect('{')?;
        let (mut name, mut value, mut unit) = (None, None, None);
        loop {
            let key = cursor.string()?;
            cursor.expect(':')?;
            match key {
                "name" => name = Some(cursor.string()?),
                "value" => value = Some(cursor.number()?),
                "unit" => unit = Some(cursor.string()?),
                other => return Err(format!("unknown key \"{other}\"")),
            }
            if !cursor.eat(',') {
                break;
            }
        }
        cursor.expect('}')?;
        match (name, value, unit) {
            (Some(name), Some(value), Some(unit)) => {
                records.push(Record::checked(name.to_string(), value, unit)?)
            }
            _ => return Err(format!("record {} lacks name, value or unit", records.len())),
        }
    }
    if cursor.rest.trim().is_empty() {
        Ok(records)
    } else {
        Err(format!("trailing text after the array: {:?}", cursor.rest.trim()))
    }
}

struct Cursor<'a> {
    rest: &'a str,
}

impl<'a> Cursor<'a> {
    fn eat(&mut self, token: char) -> bool {
        self.rest = self.rest.trim_start();
        match self.rest.strip_prefix(token) {
            Some(rest) => {
                self.rest = rest;
                true
            }
            None => false,
        }
    }

    fn expect(&mut self, token: char) -> Result<(), String> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(format!(
                "expected '{token}' before {:?}",
                self.rest.chars().take(24).collect::<String>()
            ))
        }
    }

    fn string(&mut self) -> Result<&'a str, String> {
        self.expect('"')?;
        let (text, rest) = self.rest.split_once('"').ok_or("unterminated string")?;
        self.rest = rest;
        Ok(text)
    }

    fn number(&mut self) -> Result<f64, String> {
        self.rest = self.rest.trim_start();
        let end =
            self.rest.find(|c: char| !"+-.eE0123456789".contains(c)).unwrap_or(self.rest.len());
        let (text, rest) = self.rest.split_at(end);
        self.rest = rest;
        text.parse().map_err(|_| format!("expected a number, found {text:?}"))
    }
}

/// Path of `BENCH_<bench>.json` in the workspace root.
fn path(bench: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{bench}.json"))
}

/// The records of the committed `BENCH_<bench>.json`.
#[cfg(test)]
pub(crate) fn read_committed(bench: &str) -> Vec<Record> {
    let path = path(bench);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    read(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Merges `records` into `BENCH_<bench>.json` and returns the file's previous
/// contents (what a regression gate compares against).
pub fn update(bench: &str, records: &[Record]) -> Vec<Record> {
    let previous = update_file(&path(bench), records);
    println!("merged {} measured records into BENCH_{bench}.json", records.len());
    previous
}

/// [`update`] on an explicit file: a record replaces the one of the same name
/// in place, a new name is appended, every other line stays as it was. A
/// missing file counts as empty; an unreadable one is an error, not a reset.
fn update_file(path: &Path, records: &[Record]) -> Vec<Record> {
    let previous = match std::fs::read_to_string(path) {
        Ok(text) => read(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => panic!("{}: {e}", path.display()),
    };
    let mut merged = previous.clone();
    for record in records {
        match merged.iter_mut().find(|r| r.name == record.name) {
            Some(slot) => *slot = record.clone(),
            None => merged.push(record.clone()),
        }
    }
    std::fs::write(path, write(&merged)).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    previous
}

/// Fails the run if a byte count in `current` — every record whose name ends in
/// `field` — *grew* against `baseline` (the file's previous contents). Index and
/// artifact sizes are deterministic for a generator size, so there is no noise to
/// tolerate: any growth is a change someone made. A name the baseline lacks is
/// skipped; re-baselining an intentional growth is committing the file the run
/// has already written.
pub fn check_bytes_not_grown(current: &[Record], baseline: &[Record], field: &str) {
    for record in current.iter().filter(|r| r.name.ends_with(field)) {
        let Some(committed) = value(baseline, &record.name) else {
            println!("byte guard: no baseline for {}, skipping", record.name);
            continue;
        };
        println!("byte guard: {} = {} (committed {committed})", record.name, record.value);
        assert!(
            record.value <= committed,
            "{} grew: {} > committed {committed}; if intentional, commit the trajectory file \
             this run has written",
            record.name,
            record.value
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    mod guard_tests {
        use super::*;

        fn sizes(memory: f64, artifact: f64) -> Vec<Record> {
            vec![
                Record::new("gtree_build/23190/memory_bytes", memory, "bytes"),
                Record::new("gtree_build/23190/build_seconds", 0.7, "s"),
                Record::new("cold_start/23190/artifact_bytes", artifact, "bytes"),
            ]
        }

        #[test]
        fn byte_guard_accepts_equal_smaller_and_unknown() {
            let baseline = read(&write(&sizes(13_500_000.0, 16_000_000.0))).unwrap();
            for field in ["/memory_bytes", "/artifact_bytes"] {
                check_bytes_not_grown(&sizes(13_500_000.0, 16_000_000.0), &baseline, field);
                check_bytes_not_grown(&sizes(13_000_000.0, 15_000_000.0), &baseline, field);
                // A tier the committed file has no row for is skipped, not misjudged.
                check_bytes_not_grown(&sizes(9e12, 9e12), &[], field);
            }
        }

        #[test]
        #[should_panic(expected = "gtree_build/23190/memory_bytes grew")]
        fn byte_guard_rejects_a_grown_gtree() {
            let baseline = read(&write(&sizes(13_500_000.0, 16_000_000.0))).unwrap();
            check_bytes_not_grown(&sizes(13_500_004.0, 16_000_000.0), &baseline, "/memory_bytes");
        }

        #[test]
        #[should_panic(expected = "knn_query/23190/ROAD/memory_bytes grew")]
        fn byte_guard_rejects_a_grown_road_overlay() {
            let row =
                |bytes| vec![Record::new("knn_query/23190/ROAD/memory_bytes", bytes, "bytes")];
            let baseline = read(&write(&row(3_272_416.0))).unwrap();
            check_bytes_not_grown(&row(3_272_428.0), &baseline, "/memory_bytes");
        }

        #[test]
        #[should_panic(expected = "cold_start/23190/artifact_bytes grew")]
        fn byte_guard_rejects_a_grown_artifact() {
            let baseline = read(&write(&sizes(13_500_000.0, 16_000_000.0))).unwrap();
            check_bytes_not_grown(&sizes(13_500_000.0, 16_000_008.0), &baseline, "/artifact_bytes");
        }
    }

    #[test]
    fn write_read_round_trip() {
        let records = vec![
            Record::new("serving/23190/rate=0.10/qps", 3311.0, "q/s"),
            Record::new("ch_build/579515/build_seconds", 47.184, "s"),
            Record::new("cold_start/579515/artifact_bytes", 1_142_878_536.0, "bytes"),
            Record::new("knn_query/115766/IER-Gt/p50_us", 0.0004, "µs"),
        ];
        let text = write(&records);
        assert_eq!(text.lines().count(), records.len() + 2, "one record per line");
        assert!(text.contains("\"value\": 3311,") && text.contains("\"value\": 47.184,"));
        assert_eq!(read(&text).unwrap(), records);
        assert_eq!(records[3].value, 0.0, "values keep three decimals");
        assert_eq!(read("[]").unwrap(), vec![]);
        for bad in ["", "[{\"name\": \"a\"}]", "[{\"nome\": \"a\"}]", "[] x", "[{\"value\": x}]"] {
            assert!(read(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn update_merges_by_name() {
        let path = std::env::temp_dir().join(format!("rnknn-track-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let tier = |v: u32, p50: f64| Record::new(format!("knn_query/{v}/Gtree/p50_us"), p50, "µs");
        assert!(update_file(
            &path,
            &[tier(23_190, 215.0), tier(115_766, 524.0), tier(579_515, 878.0)]
        )
        .is_empty());
        // A smoke run re-measures two tiers: the third line survives untouched
        // and nothing is duplicated.
        let previous = update_file(&path, &[tier(23_190, 200.0), tier(115_766, 500.0)]);
        assert_eq!(value(&previous, "knn_query/23190/Gtree/p50_us"), Some(215.0));
        let merged = read(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(merged, vec![tier(23_190, 200.0), tier(115_766, 500.0), tier(579_515, 878.0)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn committed_trajectories_parse() {
        for (_, bench) in crate::BENCHES {
            let text = std::fs::read_to_string(path(bench)).expect(bench);
            let records = read(&text).unwrap_or_else(|e| panic!("BENCH_{bench}.json: {e}"));
            assert!(!records.is_empty(), "BENCH_{bench}.json is empty");
            assert_eq!(write(&records), text, "BENCH_{bench}.json is not in the writer's form");
            let mut names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
            names.sort_unstable();
            assert!(names.windows(2).all(|w| w[0] != w[1]), "BENCH_{bench}.json repeats a name");
            assert!(names.iter().all(|n| n.starts_with(&format!("{bench}/"))), "{bench}: prefix");
        }
    }
}
