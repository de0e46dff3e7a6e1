//! `cargo run -p xtask -- loc`: first-party Rust lines per crate, split
//! into non-test and test, for the deletion budget each change reports.
//!
//! A `.rs` file's non-test part is every line before its first line
//! that starts with `#[cfg(test)]`; the rest is test. A file under a
//! `tests/` directory is test throughout. `src/`, `tests/` and
//! `examples/` at the repo root belong to the root package, `mssg`.
//! Vendored stand-ins are third-party code and are not counted.

use std::collections::BTreeMap;
use std::fs;
use std::process::ExitCode;

/// Entry point for `cargo run -p xtask -- loc`.
pub fn run(args: &[String]) -> ExitCode {
    if let Some(a) = args.first() {
        eprintln!("xtask loc: unknown argument `{a}`");
        return ExitCode::from(2);
    }
    let Some(root) = crate::lint::repo_root() else {
        eprintln!("xtask loc: cannot locate the workspace root");
        return ExitCode::from(2);
    };
    let mut per_crate: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for file in crate::lint::first_party_sources(&root) {
        let Ok(text) = fs::read_to_string(&file) else {
            continue;
        };
        let rel = crate::lint::rel_path(&root, &file);
        let (non_test, test) = split(&rel, &text);
        let entry = per_crate.entry(crate_of(&rel).to_string()).or_default();
        entry.0 += non_test;
        entry.1 += test;
    }
    println!("{:<12} {:>9} {:>9}", "crate", "non-test", "test");
    let (mut all_non_test, mut all_test) = (0, 0);
    for (name, (non_test, test)) in &per_crate {
        println!("{name:<12} {non_test:>9} {test:>9}");
        all_non_test += non_test;
        all_test += test;
    }
    println!("{:<12} {all_non_test:>9} {all_test:>9}", "total");
    ExitCode::SUCCESS
}

/// The crate a repo-relative path belongs to: the directory under
/// `crates/`, or `mssg` for the root package.
fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("mssg")
}

/// `(non-test, test)` line counts of one file's `text`.
fn split(rel: &str, text: &str) -> (usize, usize) {
    let lines = text.lines().count();
    if rel.starts_with("tests/") || rel.contains("/tests/") {
        return (0, lines);
    }
    let non_test = text
        .lines()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
        .unwrap_or(lines);
    (non_test, lines - non_test)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_splits_at_the_first_cfg_test_and_counts_tests_dirs_as_test() {
        let text = "//! Docs that mention `#[cfg(test)]` mid-line.\n\
                    fn a() {}\n\
                    \n\
                    #[cfg(test)]\n\
                    mod tests {\n\
                    \x20   #[cfg(test)]\n\
                    }\n";
        assert_eq!(split("crates/net/src/wire.rs", text), (3, 4));
        assert_eq!(split("crates/net/tests/framing_props.rs", text), (0, 7));
        assert_eq!(split("tests/determinism.rs", text), (0, 7));
        assert_eq!(split("src/lib.rs", "fn a() {}\n"), (1, 0));
        assert_eq!(crate_of("crates/net/src/wire.rs"), "net");
        assert_eq!(crate_of("examples/quickstart.rs"), "mssg");
        assert_eq!(crate_of("tests/determinism.rs"), "mssg");
    }
}
