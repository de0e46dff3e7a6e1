//! Running every workload: each in a child process of its own (fresh
//! allocator state and its own `VmHWM`), once with tracing off and once
//! traced. With `--spread N`, N end-to-end runs per workload on N seeds
//! and the spread of every end-to-end metric against its bound — the
//! same measure the driver applies — plus two traced runs on one seed to
//! see which per-layer counts repeat exactly.

use crate::metrics::{COUNTS, END_TO_END};
use crate::stats::Summary;
use crate::{host, Args, WORKLOADS};
use mssg_obs::json::{parse, Value};
use std::process::Command;

/// One child run's result line, parsed.
struct ChildRun {
    correct: bool,
    metrics: Vec<(String, f64)>,
    line: String,
}

impl ChildRun {
    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

/// Runs `workload` in a child and parses the last line it printed.
/// `echo` passes the child's own report through.
fn child(
    args: &Args,
    workload: &str,
    seed: u64,
    trace: bool,
    echo: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(dir) = &args.dir {
        cmd.arg("--dir").arg(dir);
    }
    if let (true, Some(path)) = (trace, &args.trace_out) {
        cmd.arg("--trace-out")
            .arg(format!("{}.{workload}.json", path.display()));
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    let line = stdout.lines().last().unwrap_or_default().to_string();
    let fail = |why: &str| {
        format!(
            "{workload} seed {seed} trace {}: {why} ({}): {}",
            trace as u8,
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )
    };
    let v = parse(&line).map_err(|_| fail("no result line"))?;
    let Some(Value::Object(metrics)) = v.get("metrics") else {
        return Err(fail("result line without metrics"));
    };
    Ok(ChildRun {
        correct: v.get("correct") == Some(&Value::Bool(true)) && output.status.success(),
        metrics: metrics
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        line,
    })
}

/// Entry point when no `--workload` is given. Returns the exit code.
pub fn run_all(args: &Args) -> i32 {
    let mut failures = 0;
    let mut results = Vec::new();
    for workload in WORKLOADS {
        let outcome = if args.spread > 0 {
            spread(args, workload)
        } else {
            once(args, workload, &mut results)
        };
        if let Err(why) = outcome {
            eprintln!("benchmark: {why}");
            failures += 1;
        }
    }
    if let (Some(path), 0) = (&args.out, args.spread) {
        let text = format!(
            "{{\"seed\":{},\"runs\":[\n{}\n]}}\n",
            args.seed,
            results.join(",\n")
        );
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("benchmark: {}: {e}", path.display());
            failures += 1;
        }
    }
    (failures > 0) as i32
}

/// One end-to-end run and one traced run of `workload`.
fn once(args: &Args, workload: &str, results: &mut Vec<String>) -> Result<(), String> {
    for trace in [false, true] {
        let run = child(args, workload, args.seed, trace, true)?;
        results.push(format!(
            "{{\"workload\":\"{workload}\",\"trace\":{trace},\"result\":{}}}",
            run.line
        ));
        if !run.correct {
            return Err(format!(
                "{workload} trace {}: operations failed",
                trace as u8
            ));
        }
    }
    Ok(())
}

/// `args.spread` end-to-end runs of `workload` on consecutive seeds, and
/// two traced runs on the first.
fn spread(args: &Args, workload: &str) -> Result<(), String> {
    let mut runs = Vec::new();
    let mut spins = Vec::new();
    for i in 0..args.spread as u64 {
        spins.push(host::spin_ms());
        let run = child(args, workload, args.seed + i, false, false)?;
        if !run.correct {
            return Err(format!(
                "{workload} seed {}: operations failed",
                args.seed + i
            ));
        }
        runs.push(run);
    }
    println!(
        "{workload}: {} runs, seeds {}..={}",
        runs.len(),
        args.seed,
        args.seed + args.spread as u64 - 1
    );
    println!(
        "  {:<14} {:>14} {:>14} {:>14} {:>8} {:>8} {:>6}",
        "metric", "min", "median", "max", "iqr/med", "rng/med", "bound"
    );
    let mut over = Vec::new();
    for m in END_TO_END {
        let values: Vec<f64> = runs.iter().map(|r| r.get(m.name)).collect();
        let s = Summary::of(&values);
        println!(
            "  {:<14} {:>14.4} {:>14.4} {:>14.4} {:>7.1}% {:>7.1}% {:>5.0}%{}",
            m.name,
            s.min,
            s.median,
            s.max,
            100.0 * s.iqr_share(),
            100.0 * s.range_share(),
            100.0 * m.bound,
            if s.iqr_share() > m.bound / 3.0 {
                "  <- above a third of the bound"
            } else {
                ""
            }
        );
        // The driver does not hold set-up time to its spread.
        if m.name != "setup_s" && s.iqr_share() > m.bound {
            over.push(m.name);
        }
    }
    let spins: Vec<String> = spins.iter().map(|s| format!("{s:.1}")).collect();
    println!("  host.spin_ms before each run: {}", spins.join(" "));

    let (a, b) = (
        child(args, workload, args.seed, true, false)?,
        child(args, workload, args.seed, true, false)?,
    );
    for name in COUNTS {
        let (x, y) = (a.get(name), b.get(name));
        if x != 0.0 || y != 0.0 {
            println!("  {name:<34} exact: {:<5} ({x} vs {y})", x == y);
        }
    }
    if !(a.correct && b.correct) {
        return Err(format!("{workload} traced: operations failed"));
    }
    if !over.is_empty() {
        return Err(format!("{workload}: spread above the bound for {over:?}"));
    }
    Ok(())
}
