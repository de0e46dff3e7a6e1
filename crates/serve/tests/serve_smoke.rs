//! Multi-process serving smoke: one `mssg-node serve` process and two
//! `mssg-node query` processes (8 concurrent clients in total) — the CI
//! serve-smoke step runs exactly these tests.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_mssg-node");

/// A running `mssg-node serve` child, killed on drop.
struct ServeProc {
    child: Child,
    stdin: Option<std::process::ChildStdin>,
    stdout: BufReader<std::process::ChildStdout>,
    addr: String,
}

impl ServeProc {
    fn spawn(extra: &[&str]) -> ServeProc {
        let mut child = Command::new(BIN)
            .arg("serve")
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn mssg-node serve");
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut line = String::new();
        // Address first, then READY; anything else before them is a bug.
        let addr = loop {
            line.clear();
            assert!(
                stdout.read_line(&mut line).expect("read serve stdout") > 0,
                "serve exited before announcing an address"
            );
            if let Some(a) = line.strip_prefix("MSSG-SERVE-ADDR") {
                break a.trim().to_string();
            }
        };
        line.clear();
        stdout.read_line(&mut line).expect("read READY line");
        assert!(line.starts_with("MSSG-SERVE-READY"), "got {line:?}");
        ServeProc {
            child,
            stdin,
            stdout,
            addr,
        }
    }

    /// Asks the server to stop and returns its `MSSG-SERVE-STATS` line.
    fn stop(mut self) -> String {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = writeln!(stdin, "stop");
        } // dropping stdin closes it either way
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if self.child.try_wait().expect("wait serve").is_some() {
                break;
            }
            assert!(Instant::now() < deadline, "serve did not stop");
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut stats = String::new();
        let mut line = String::new();
        while self.stdout.read_line(&mut line).unwrap_or(0) > 0 {
            if line.starts_with("MSSG-SERVE-STATS") {
                stats = line.trim().to_string();
            }
            line.clear();
        }
        stats
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Tallies from one `mssg-node query` process.
#[derive(Debug, Default, Clone, Copy)]
struct QueryTally {
    ok: u64,
    overloaded: u64,
    failed: u64,
    cached: u64,
}

fn run_queries(addr: &str, extra: &[&str]) -> std::thread::JoinHandle<QueryTally> {
    let mut cmd = Command::new(BIN);
    cmd.arg("query").arg("--addr").arg(addr).args(extra);
    std::thread::spawn(move || {
        let out = cmd.output().expect("run mssg-node query");
        assert!(
            out.status.success(),
            "query process failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find(|l| l.starts_with("MSSG-QUERY-RESULT"))
            .unwrap_or_else(|| panic!("no result line in {stdout:?}"));
        let field = |name: &str| -> u64 {
            line.split_whitespace()
                .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("missing {name} in {line:?}"))
        };
        QueryTally {
            ok: field("ok"),
            overloaded: field("overloaded"),
            failed: field("failed"),
            cached: field("cached"),
        }
    })
}

/// At comfortable capacity (4 slots, deep queues), 8 concurrent
/// synchronous clients across 2 processes must see zero rejections.
#[test]
fn low_load_sees_zero_overloaded() {
    let serve = ServeProc::spawn(&["--vertices", "200", "--slots", "4"]);
    let procs: Vec<_> = (0..2)
        .map(|_| {
            run_queries(
                &serve.addr,
                &["--clients", "4", "--requests", "12", "--span", "32"],
            )
        })
        .collect();
    let mut total = QueryTally::default();
    for p in procs {
        let t = p.join().expect("query process thread");
        total.ok += t.ok;
        total.overloaded += t.overloaded;
        total.failed += t.failed;
        total.cached += t.cached;
    }
    assert_eq!(total.failed, 0, "no query fails to execute: {total:?}");
    assert_eq!(total.overloaded, 0, "no rejections at low load: {total:?}");
    assert_eq!(total.ok, 2 * 4 * 12);
    assert!(
        total.cached > 0,
        "32 distinct queries asked 96 times must re-hit the cache: {total:?}"
    );
    let stats = serve.stop();
    assert!(stats.starts_with("MSSG-SERVE-STATS"), "got {stats:?}");
}

/// With one slot, a depth-1 queue, and a 100ms execution floor, bursting
/// clients must see at least one *typed* Overloaded rejection — and the
/// run still completes (rejection is an answer, not a hang).
#[test]
fn single_slot_rejects_bursts_typed() {
    let serve = ServeProc::spawn(&[
        "--vertices",
        "200",
        "--slots",
        "1",
        "--queue-depth",
        "1",
        "--cache",
        "0",
        "--exec-floor-ms",
        "100",
    ]);
    let procs: Vec<_> = (0..2)
        .map(|_| {
            run_queries(
                &serve.addr,
                &[
                    "--clients",
                    "4",
                    "--requests",
                    "4",
                    "--burst",
                    "4",
                    "--span",
                    "1000",
                ],
            )
        })
        .collect();
    let mut total = QueryTally::default();
    for p in procs {
        let t = p.join().expect("query process thread");
        total.ok += t.ok;
        total.overloaded += t.overloaded;
        total.failed += t.failed;
        total.cached += t.cached;
    }
    assert_eq!(total.failed, 0, "no query fails to execute: {total:?}");
    assert!(
        total.overloaded >= 1,
        "slots=1 + depth 1 + 4-deep bursts must reject: {total:?}"
    );
    assert_eq!(
        total.ok + total.overloaded,
        2 * 4 * 4,
        "every request is answered or rejected, never dropped: {total:?}"
    );
    drop(serve);
}
