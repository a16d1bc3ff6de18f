//! Unsafe-hygiene lint.
//!
//! Rules, enforced over every workspace crate:
//!
//! 1. Each crate root (`src/lib.rs` / `src/main.rs` / `src/bin/*.rs`) carries
//!    `#![forbid(unsafe_code)]` — unless the crate is on [`UNSAFE_ALLOWLIST`].
//! 2. An allowlisted crate must carry `#![deny(unsafe_op_in_unsafe_fn)]` at
//!    its root, and every `unsafe` block or `unsafe fn` in its sources must be
//!    introduced by a `// SAFETY:` comment (for an `unsafe fn`, a
//!    `/// # Safety` doc section also counts).
//!
//! The scan is line-based and deliberately conservative: `unsafe` tokens inside
//! comments or string literals are ignored, and a `SAFETY` comment must appear
//! in the contiguous run of comment/attribute lines immediately above the
//! `unsafe` token (or trail it on the same line).

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates allowed to contain `unsafe` code. Everything else must forbid it.
/// `rnknn-persist` alone: it hosts the artifact mmap + typed-view layer (the
/// zero-copy cold-start path) and the CPU-tier dispatch that runs the
/// workspace's portable SIMD loops; see docs/PERSISTENCE.md for its safety
/// argument.
const UNSAFE_ALLOWLIST: &[&str] = &["rnknn-persist"];

/// Individual files (workspace-relative, `/`-separated) allowed to contain
/// `unsafe` inside an otherwise-forbidding crate. Integration-test binaries are
/// separate crate roots, so a root `#![forbid]` cannot cover them; each listed
/// file still needs a `// SAFETY:` comment on every site.
const UNSAFE_FILE_ALLOWLIST: &[&str] = &[
    // Counting global allocator: `GlobalAlloc` is an unsafe trait by design.
    "tests/tests/alloc_guard.rs",
];

/// Runs the lint over the workspace rooted at the manifest directory's parent
/// (xtask lives in `crates/xtask`, so the workspace root is two levels up).
pub fn run() -> ExitCode {
    let root = workspace_root();
    let crates = match discover_crates(&root) {
        Ok(crates) => crates,
        Err(err) => {
            eprintln!("xtask lint: {err}");
            return ExitCode::FAILURE;
        }
    };

    let mut failures = Vec::new();
    let mut checked = 0usize;
    for krate in &crates {
        checked += 1;
        if let Err(mut errs) = check_crate(krate) {
            failures.append(&mut errs);
        }
    }

    if failures.is_empty() {
        println!(
            "xtask lint: {checked} crates clean ({} allowed unsafe: {})",
            UNSAFE_ALLOWLIST.len(),
            UNSAFE_ALLOWLIST.join(", ")
        );
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            eprintln!("xtask lint: {failure}");
        }
        eprintln!("xtask lint: {} violation(s)", failures.len());
        ExitCode::FAILURE
    }
}

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR points at crates/xtask when run via `cargo xtask`.
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::current_dir().expect("cwd"));
    manifest.parent().and_then(Path::parent).map(Path::to_path_buf).unwrap_or(manifest)
}

struct Crate {
    name: String,
    /// Crate roots: `src/lib.rs` and/or `src/main.rs`.
    roots: Vec<PathBuf>,
    /// Every `.rs` file under `src/`, `tests/`, `benches/`, `examples/`.
    sources: Vec<PathBuf>,
}

fn discover_crates(root: &Path) -> Result<Vec<Crate>, String> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))
        .map_err(|e| format!("reading {}: {e}", root.join("Cargo.toml").display()))?;
    let mut dirs = Vec::new();
    let mut in_members = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with("members") {
            in_members = true;
        }
        if in_members {
            if let Some(member) = line.split('"').nth(1) {
                dirs.push(root.join(member));
            }
            if line.contains(']') {
                break;
            }
        }
    }
    if dirs.is_empty() {
        return Err("no workspace members found in root Cargo.toml".into());
    }

    let mut crates = Vec::new();
    for dir in dirs {
        let cargo = fs::read_to_string(dir.join("Cargo.toml"))
            .map_err(|e| format!("reading {}: {e}", dir.join("Cargo.toml").display()))?;
        let name = cargo
            .lines()
            .find_map(|l| {
                let l = l.trim();
                l.strip_prefix("name")
                    .and_then(|rest| rest.trim_start().strip_prefix('='))
                    .and_then(|rest| rest.split('"').nth(1))
                    .map(str::to_string)
            })
            .ok_or_else(|| format!("no package name in {}", dir.join("Cargo.toml").display()))?;

        let mut roots = Vec::new();
        for candidate in ["src/lib.rs", "src/main.rs"] {
            let path = dir.join(candidate);
            if path.is_file() {
                roots.push(path);
            }
        }
        // Each `src/bin/*.rs` is its own crate root: a root-level `forbid`
        // does not extend to it, so it must carry its own attribute.
        let mut bins = Vec::new();
        collect_rs(&dir.join("src/bin"), &mut bins);
        roots.append(&mut bins);
        if roots.is_empty() {
            return Err(format!("crate `{name}` has no src/lib.rs or src/main.rs"));
        }

        let mut sources = Vec::new();
        for sub in ["src", "tests", "benches", "examples"] {
            collect_rs(&dir.join(sub), &mut sources);
        }
        crates.push(Crate { name, roots, sources });
    }
    Ok(crates)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn check_crate(krate: &Crate) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    let allowed = UNSAFE_ALLOWLIST.contains(&krate.name.as_str());

    for root in &krate.roots {
        let text = fs::read_to_string(root)
            .map_err(|e| vec![format!("reading {}: {e}", root.display())])?;
        if allowed {
            if !has_inner_attr(&text, "deny(unsafe_op_in_unsafe_fn)") {
                errs.push(format!(
                    "{}: allowlisted crate `{}` must `#![deny(unsafe_op_in_unsafe_fn)]`",
                    root.display(),
                    krate.name
                ));
            }
        } else if !has_inner_attr(&text, "forbid(unsafe_code)") {
            errs.push(format!(
                "{}: crate `{}` must `#![forbid(unsafe_code)]` (or join the allowlist)",
                root.display(),
                krate.name
            ));
        }
    }

    for source in &krate.sources {
        let text = fs::read_to_string(source)
            .map_err(|e| vec![format!("reading {}: {e}", source.display())])?;
        let file_allowed = {
            let normalized = source.to_string_lossy().replace('\\', "/");
            UNSAFE_FILE_ALLOWLIST.iter().any(|f| normalized.ends_with(f))
        };
        for finding in scan_unsafe(&text) {
            if !allowed && !file_allowed {
                errs.push(format!(
                    "{}:{}: `unsafe` in non-allowlisted crate `{}`",
                    source.display(),
                    finding.line,
                    krate.name
                ));
            } else if !finding.documented {
                errs.push(format!(
                    "{}:{}: `unsafe` without a `// SAFETY:` comment",
                    source.display(),
                    finding.line
                ));
            }
        }
    }

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

fn has_inner_attr(text: &str, attr: &str) -> bool {
    let needle = {
        let mut s = String::from("#![");
        let _ = write!(s, "{attr}");
        s.push(']');
        s
    };
    text.lines().any(|l| {
        let compact: String = l.chars().filter(|c| !c.is_whitespace()).collect();
        compact.starts_with(&needle)
    })
}

struct UnsafeSite {
    /// 1-based line number of the `unsafe` token.
    line: usize,
    /// Whether a `SAFETY` comment (or `# Safety` doc section) introduces it.
    documented: bool,
}

/// Finds `unsafe` tokens outside comments and string literals and checks each
/// for an introducing safety comment.
fn scan_unsafe(text: &str) -> Vec<UnsafeSite> {
    let lines: Vec<&str> = text.lines().collect();
    let mut sites = Vec::new();
    for (idx, raw) in lines.iter().enumerate() {
        let code = strip_comments_and_strings(raw);
        if !has_word(&code, "unsafe") {
            continue;
        }
        let documented =
            raw.to_ascii_lowercase().contains("safety") || preceding_block_has_safety(&lines, idx);
        sites.push(UnsafeSite { line: idx + 1, documented });
    }
    sites
}

/// Walks upward through the contiguous run of comment / attribute / empty-ish
/// lines above `idx` looking for a comment mentioning SAFETY.
fn preceding_block_has_safety(lines: &[&str], idx: usize) -> bool {
    for prev in lines[..idx].iter().rev() {
        let t = prev.trim();
        let is_comment = t.starts_with("//");
        let is_attr = t.starts_with("#[") || t.starts_with("#![");
        if is_comment && t.to_ascii_lowercase().contains("safety") {
            return true;
        }
        if !is_comment && !is_attr {
            return false;
        }
    }
    false
}

/// Blanks out `//` line comments and the contents of ordinary string literals
/// so token scans don't match inside them. (Good enough for this codebase: no
/// raw strings or block comments around `unsafe` tokens.)
fn strip_comments_and_strings(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => in_str = false,
                _ => {}
            }
            out.push(' ');
        } else {
            match c {
                '"' => {
                    in_str = true;
                    out.push(' ');
                }
                '/' if chars.peek() == Some(&'/') => break,
                _ => out.push(c),
            }
        }
    }
    out
}

fn has_word(haystack: &str, word: &str) -> bool {
    let bytes = haystack.as_bytes();
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(word) {
        let begin = start + pos;
        let end = begin + word.len();
        let left_ok = begin == 0 || !is_ident(bytes[begin - 1]);
        let right_ok = end == bytes.len() || !is_ident(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        start = end;
    }
    false
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_match_respects_boundaries() {
        assert!(has_word("unsafe {", "unsafe"));
        assert!(has_word("pub unsafe fn f()", "unsafe"));
        assert!(!has_word("unsafely", "unsafe"));
        assert!(!has_word("not_unsafe", "unsafe"));
    }

    #[test]
    fn strings_and_comments_do_not_count() {
        assert!(scan_unsafe("// unsafe in a comment\n").is_empty());
        assert!(scan_unsafe("let s = \"unsafe\";\n").is_empty());
    }

    #[test]
    fn safety_comment_is_detected_across_attributes() {
        let src = "// SAFETY: checked above\n#[inline]\nunsafe { go() }\n";
        let sites = scan_unsafe(src);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].documented);
    }

    #[test]
    fn doc_safety_section_counts_for_unsafe_fn() {
        let src = "/// # Safety\n/// Caller must own it.\npub unsafe fn f() {}\n";
        let sites = scan_unsafe(src);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].documented);
    }

    #[test]
    fn undocumented_unsafe_is_flagged() {
        let src = "let x = 1;\nunsafe { go() }\n";
        let sites = scan_unsafe(src);
        assert_eq!(sites.len(), 1);
        assert!(!sites[0].documented);
    }

    #[test]
    fn inner_attr_detection_ignores_spacing() {
        assert!(has_inner_attr("#![forbid(unsafe_code)]", "forbid(unsafe_code)"));
        assert!(has_inner_attr("#![ forbid( unsafe_code ) ]", "forbid(unsafe_code)"));
        assert!(!has_inner_attr("// #![forbid(unsafe_code)]", "forbid(unsafe_code)"));
    }
}
