//! Argument handling shared by the `experiments` and `trajectory_bench`
//! binaries: every mistake — an unknown flag, a flag without its value, a value
//! that does not parse, an unknown positional — is an `Err` that the binary
//! turns into usage text and a non-zero exit, never a panic or a silent default.

use std::str::FromStr;

/// A parsed command line: positionals in order plus the flags that were given.
#[derive(Debug)]
pub struct Args {
    positionals: Vec<String>,
    flags: Vec<(String, String)>,
}

/// Splits `args` (without the program name) into positionals and flags.
/// `value_flags` take exactly one value, `switches` none.
pub fn parse(
    args: impl IntoIterator<Item = String>,
    value_flags: &[&str],
    switches: &[&str],
) -> Result<Args, String> {
    let mut parsed = Args { positionals: Vec::new(), flags: Vec::new() };
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        if switches.contains(&arg.as_str()) {
            parsed.flags.push((arg, String::new()));
        } else if value_flags.contains(&arg.as_str()) {
            match args.next_if(|next| !next.starts_with("--")) {
                Some(value) => parsed.flags.push((arg, value)),
                None => return Err(format!("{arg} needs a value")),
            }
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg}"));
        } else {
            parsed.positionals.push(arg);
        }
    }
    Ok(parsed)
}

impl Args {
    /// Whether `flag` (switch or value flag) was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(name, _)| name == flag)
    }

    /// The text given for `flag` (the last one wins), `None` when absent.
    fn text(&self, flag: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(name, _)| name == flag).map(|(_, text)| text.as_str())
    }

    /// The parsed value of `flag`, `None` when absent.
    pub fn value<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.text(flag).map(|text| parse_item(flag, text)).transpose()
    }

    /// The parsed comma-separated values of `flag`, `None` when absent.
    pub fn list<T: FromStr>(&self, flag: &str) -> Result<Option<Vec<T>>, String> {
        self.text(flag)
            .map(|text| text.split(',').map(|i| parse_item(flag, i)).collect())
            .transpose()
    }

    /// The positionals, each of which must be one of `allowed` (at least one).
    pub fn positionals_in(&self, allowed: &[&str]) -> Result<&[String], String> {
        match self.positionals.iter().find(|p| !allowed.contains(&p.as_str())) {
            Some(unknown) => Err(format!("unknown name '{unknown}'")),
            None if self.positionals.is_empty() => Err("nothing to run".to_string()),
            None => Ok(&self.positionals),
        }
    }
}

fn parse_item<T: FromStr>(flag: &str, item: &str) -> Result<T, String> {
    item.trim().parse().map_err(|_| format!("{flag}: cannot parse {item:?}"))
}

/// Prints `error` and `usage` to stderr and exits with status 2.
pub fn exit_with_usage(usage: &str, error: &str) -> ! {
    eprintln!("error: {error}\n{usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(String::from), &["--sizes", "--save"], &["--smoke"])
    }

    #[test]
    fn well_formed_lines_parse() {
        let a = args("knn --sizes 20000,100000 serving --smoke --save a --save b").unwrap();
        assert_eq!(a.positionals_in(&["knn", "serving"]).unwrap(), ["knn", "serving"]);
        assert_eq!(a.list::<usize>("--sizes").unwrap(), Some(vec![20_000, 100_000]));
        assert_eq!(a.value::<String>("--save").unwrap().as_deref(), Some("b"));
        assert!(a.has("--smoke") && !a.has("--load"));
        assert_eq!(a.value::<f64>("--density").unwrap(), None);
    }

    #[test]
    fn mistakes_are_errors_not_panics_or_defaults() {
        assert_eq!(args("knn --sizes").unwrap_err(), "--sizes needs a value");
        assert_eq!(args("knn --sizes --smoke").unwrap_err(), "--sizes needs a value");
        assert_eq!(args("knn --leaf-capacity 64").unwrap_err(), "unknown flag --leaf-capacity");
        let a = args("knn fig99 --sizes 20k").unwrap();
        assert!(a.list::<usize>("--sizes").unwrap_err().contains("cannot parse \"20k\""));
        assert_eq!(a.positionals_in(&["knn"]).unwrap_err(), "unknown name 'fig99'");
        assert_eq!(
            args("--smoke").unwrap().positionals_in(&["knn"]).unwrap_err(),
            "nothing to run"
        );
    }
}
