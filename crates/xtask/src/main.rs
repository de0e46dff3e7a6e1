//! Project automation tasks, driven as `cargo run -p xtask -- <task>`.
//!
//! - `lint` runs the MSSG project lint suite — checks that are project
//!   policy rather than language rules, so neither rustc nor clippy can
//!   enforce them. See [`lint`] for the rule catalogue.
//! - `verify` runs the named test groups CI runs, and fails on a test-name
//!   filter that matches no test. See [`verify`] for the groups.
//! - `loc` prints first-party Rust lines per crate, non-test and test.
//!   See [`loc`] for how a file is split.

mod lint;
mod loc;
mod verify;

use std::process::ExitCode;

const USAGE: &str =
    "usage: cargo run -p xtask -- lint [--allowlist <file>] | verify [--list | GROUP…] | loc";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint::run(&args[1..]),
        Some("verify") => verify::run(&args[1..]),
        Some("loc") => loc::run(&args[1..]),
        Some(other) => {
            eprintln!("xtask: unknown task `{other}`");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
