//! The two binaries turn every command-line mistake into usage text on stderr
//! and a non-zero exit, before any network is generated.

use std::process::Command;

fn rejected(binary: &str, args: &[&str], expected: &str) {
    let output = Command::new(binary).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(expected) && stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "{args:?} ran something");
}

#[test]
fn experiments_rejects_bad_command_lines() {
    let binary = env!("CARGO_BIN_EXE_experiments");
    rejected(binary, &[], "nothing to run");
    rejected(binary, &["fig99"], "unknown name 'fig99'");
    rejected(binary, &["fig4", "--scale"], "--scale needs a value");
    rejected(binary, &["fig4", "--scale", "big"], "--scale: cannot parse \"big\"");
    rejected(binary, &["fig4", "--queries", "-3"], "--queries: cannot parse \"-3\"");
}

#[test]
fn trajectory_bench_rejects_bad_command_lines() {
    let binary = env!("CARGO_BIN_EXE_trajectory_bench");
    rejected(binary, &["--smoke"], "nothing to run");
    rejected(binary, &["knn", "road"], "unknown name 'road'");
    rejected(binary, &["knn", "--sizes"], "--sizes needs a value");
    rejected(binary, &["knn", "--sizes", "20k"], "--sizes: cannot parse \"20k\"");
    rejected(binary, &["ch", "--leaf-capacity", "64"], "unknown flag --leaf-capacity");
    rejected(binary, &["knn", "--fault-seed", "7"], "--fault-seed is only read by: serving");
}
