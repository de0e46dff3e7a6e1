//! The repo's benchmark: four workloads, six end-to-end metrics measured
//! with tracing off, and a traced pass with direct timed calls into each
//! layer's public functions for the per-layer metrics. `BENCHMARK.json`
//! at the repo root is the contract; README.md here defines every
//! workload and metric and says why.
//!
//! ```text
//! benchmark --workload W [--seed S] [--seconds N] [--trace 0|1]
//!           [--dir D] [--out FILE] [--trace-out FILE] [--smoke]
//! benchmark [--spread N] [...]        every workload, in child processes
//! ```
//!
//! The last line of standard output is the result: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod core_wl;
mod host;
mod layers;
mod metrics;
mod oracle;
mod serve_wl;
mod spans;
mod spread;
mod stats;
mod wire_wl;

use metrics::{Measured, MetricDef, Tally, END_TO_END, PER_LAYER};
use mssg_types::Result;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["grdb-ooc", "mem-hashmap", "serve-mixed", "wire-tcp"];

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;

/// How many times a run repeats its set-up; `setup_s` is the median.
const SETUP_REPS: usize = 3;

#[derive(Clone, Debug)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: Option<PathBuf>,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    smoke: bool,
    spread: usize,
}

/// What a workload needs from the invocation.
pub struct Ctx {
    pub seed: u64,
    /// How long the timed repetitions go on (`--seconds`).
    pub budget: Duration,
    /// Tiny graphs, one repetition: checks the plumbing, not the speed.
    pub smoke: bool,
    pub scratch: host::Scratch,
    pub spans: spans::Recorder,
}

impl Ctx {
    /// Repetitions of a phase go on while this holds: at least `min`
    /// (one in a smoke run), then until `share` of the budget is spent.
    pub fn more_reps(&self, done: usize, min: usize, started: Instant, share: f64) -> bool {
        if self.smoke {
            return done < 1;
        }
        done < min || started.elapsed() < self.budget.mul_f64(share)
    }

    /// `full` normally, `tiny` in a smoke run.
    pub fn size<T>(&self, full: T, tiny: T) -> T {
        if self.smoke {
            tiny
        } else {
            full
        }
    }
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    pub measured: Measured,
    pub tally: Tally,
    /// Per-metric detail for `--out`: name → JSON (spread over reps).
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    /// Keeps the spread of `values` over repetitions for the detail file.
    pub fn spread(&mut self, name: &str, values: &[f64]) -> stats::Summary {
        let summary = stats::Summary::of(values);
        self.detail.push((name.to_string(), summary.to_json()));
        summary
    }

    /// Records a metric whose run value is the best of `reps`, keeping
    /// the spread over reps for the detail file.
    pub fn set_best(&mut self, name: &'static str, reps: &[f64]) {
        let best = self.spread(name, reps).best(metrics::def(name).better);
        self.measured.set(name, best);
    }

    /// Runs `set_up` [`SETUP_REPS`] times (once in a smoke run), letting
    /// go of each product before making the next, and records the median
    /// time as `setup_s`. Returns the last product.
    pub fn timed_set_ups<T>(
        &mut self,
        ctx: &Ctx,
        mut set_up: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        let mut secs = Vec::new();
        let mut product = None;
        for _ in 0..ctx.size(SETUP_REPS, 1) {
            drop(product.take());
            let started = Instant::now();
            product = Some(set_up()?);
            secs.push(started.elapsed().as_secs_f64());
        }
        let median = self.spread("setup_s", &secs).median;
        self.measured.set("setup_s", median);
        Ok(product.expect("set-up ran at least once"))
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark [--workload {}] [--seed S] [--seconds N] [--trace 0|1]\n\
         \x20                [--dir D] [--out FILE] [--trace-out FILE] [--smoke] [--spread N]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        dir: None,
        out: None,
        trace_out: None,
        smoke: false,
        spread: 0,
    };
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = argv.next()?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return None;
                }
                args.workload = Some(value);
            }
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--dir" => args.dir = Some(value.into()),
            "--out" => args.out = Some(value.into()),
            "--trace-out" => args.trace_out = Some(value.into()),
            "--spread" => args.spread = value.parse().ok().filter(|n| *n >= 2)?,
            _ => return None,
        }
    }
    Some(args)
}

/// Runs one workload in this process.
fn run_workload(name: &str, args: &Args) -> Result<Outcome> {
    let root = args.dir.clone().unwrap_or_else(host::default_scratch_root);
    let ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs_f64(args.seconds),
        smoke: args.smoke,
        scratch: host::Scratch::create(&root, name)?,
        spans: spans::Recorder::new(args.trace),
    };
    let spin_before = host::spin_ms();
    let mut outcome = {
        let _root = ctx.spans.enter(name, 0);
        match (name, args.trace) {
            ("grdb-ooc", false) => core_wl::end_to_end(&core_wl::GRDB_OOC, &ctx),
            ("grdb-ooc", true) => core_wl::traced(&core_wl::GRDB_OOC, &ctx),
            ("mem-hashmap", false) => core_wl::end_to_end(&core_wl::MEM_HASHMAP, &ctx),
            ("mem-hashmap", true) => core_wl::traced(&core_wl::MEM_HASHMAP, &ctx),
            ("serve-mixed", false) => serve_wl::end_to_end(&ctx),
            ("serve-mixed", true) => serve_wl::traced(&ctx),
            ("wire-tcp", false) => wire_wl::end_to_end(&ctx),
            ("wire-tcp", true) => wire_wl::traced(&ctx),
            _ => unreachable!("workload names are checked when parsed"),
        }?
    };
    if args.trace {
        let spin = [spin_before, host::spin_ms()];
        outcome.set_best("host.spin_ms", &spin);
        let nesting = spans::check_nesting(&ctx.spans.spans());
        outcome
            .tally
            .check(nesting.is_ok(), || format!("trace: {nesting:?}"));
        if let Some(path) = &args.trace_out {
            std::fs::write(path, ctx.spans.chrome_trace_json())?;
        }
    }
    Ok(outcome)
}

/// Prints every metric by name with its unit, then the result line.
fn report(name: &str, table: &[MetricDef], outcome: &Outcome, args: &Args) -> std::io::Result<()> {
    println!(
        "workload {name} seed {} trace {}",
        args.seed, args.trace as u8
    );
    for m in table {
        let v = outcome.measured.get(m.name).unwrap_or(0.0);
        println!("  {:<34} {:>16.4} {}", m.name, v, m.unit);
    }
    for f in &outcome.tally.first_failures {
        println!("  FAILED: {f}");
    }
    let result = metrics::result_line(table, &outcome.measured, &outcome.tally);
    if let Some(path) = &args.out {
        let detail: Vec<String> = outcome
            .detail
            .iter()
            .map(|(k, v)| format!("{}:{v}", mssg_obs::json::escape(k)))
            .collect();
        let text = format!(
            "{{\"workload\":\"{name}\",\"seed\":{},\"trace\":{},\"smoke\":{},\"result\":{result},\
             \"reps\":{{{}}}}}\n",
            args.seed,
            args.trace,
            args.smoke,
            detail.join(",")
        );
        std::fs::write(path, text)?;
    }
    println!("{result}");
    Ok(())
}

fn main() {
    let Some(args) = parse_args(std::env::args().skip(1)) else {
        usage()
    };
    let Some(name) = args.workload.clone() else {
        std::process::exit(spread::run_all(&args));
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    match run_workload(&name, &args) {
        Ok(outcome) => {
            report(&name, table, &outcome, &args).expect("write the report");
            if outcome.tally.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            // An operation the workload cannot continue past: no result
            // line, non-zero exit.
            eprintln!("benchmark: {name}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Option<Args> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload wire-tcp --seed 7 --seconds 15 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("wire-tcp"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 15.0, true));
        let d = parse("").unwrap();
        assert_eq!(
            (d.seed, d.trace, d.smoke, d.spread),
            (DEFAULT_SEED, false, false, 0)
        );
        assert!(parse("--smoke --spread 3").unwrap().smoke);
    }

    /// The whole path on tiny graphs: every workload, both modes, every
    /// oracle; every end-to-end metric comes out positive and the traced
    /// run's spans nest.
    #[test]
    fn smoke_runs_every_workload_in_both_modes() {
        let dir = std::env::temp_dir().join(format!("mssg-bench-smoke-{}", std::process::id()));
        for name in WORKLOADS {
            for trace in ["0", "1"] {
                let mut args =
                    parse(&format!("--smoke --workload {name} --trace {trace}")).unwrap();
                args.dir = Some(dir.clone());
                let outcome = run_workload(name, &args).unwrap();
                assert_eq!(
                    outcome.tally.failed, 0,
                    "{name} trace {trace}: {:?}",
                    outcome.tally.first_failures
                );
                assert!(outcome.tally.attempted > 0);
                let table = if args.trace { PER_LAYER } else { END_TO_END };
                let line = metrics::result_line(table, &outcome.measured, &outcome.tally);
                assert!(mssg_obs::json::parse(&line).is_ok(), "{line}");
                if !args.trace {
                    for m in END_TO_END {
                        let v = outcome.measured.get(m.name).unwrap_or(0.0);
                        assert!(v > 0.0, "{name}: {} = {v}", m.name);
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed x",
            "--seconds 0",
            "--spread 1",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(parse(bad).is_none(), "{bad}");
        }
    }
}
