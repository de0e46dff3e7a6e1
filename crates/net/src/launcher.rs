//! Spawns a graph as one OS process per node and brokers their address
//! exchange.
//!
//! Protocol (line-oriented, over the children's stdio):
//!
//! 1. Each child binds `127.0.0.1:0` and prints `MSSG-NODE-ADDR <addr>`
//!    on stdout.
//! 2. The parent collects every address and writes the full
//!    space-separated peer list as one line to every child's stdin.
//! 3. Children establish the TCP mesh, run their node, and exit 0 —
//!    or print `MSSG-NODE-ERROR <message>` and exit non-zero.
//!
//! The parent enforces one overall deadline: when it passes, every
//! child is killed and the launch returns a typed error — a wedged or
//! dead child can never hang the launcher.

use mssg_types::{GraphStorageError, Result};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

/// Stdout marker a child prints once its listener is bound.
pub const ADDR_PREFIX: &str = "MSSG-NODE-ADDR";
/// Stdout marker a child prints before a non-zero exit.
pub const ERROR_PREFIX: &str = "MSSG-NODE-ERROR";

/// How long the launcher waits, once every stdout has closed with an
/// address missing, for a child's exit to become reapable. A child's
/// stdout can close before its exit status is visible to `try_wait`.
const EXIT_GRACE: Duration = Duration::from_secs(5);

/// What a completed cluster run left behind.
#[derive(Debug)]
pub struct ClusterOutput {
    /// Every stdout line each node printed after its address line, in
    /// order — results, stats, whatever the node chose to report.
    pub lines: Vec<Vec<String>>,
}

impl ClusterOutput {
    /// All lines from every node starting with `prefix`, prefix stripped.
    pub fn tagged(&self, prefix: &str) -> Vec<String> {
        self.lines
            .iter()
            .flatten()
            .filter_map(|l| l.strip_prefix(prefix))
            .map(|l| l.trim().to_string())
            .collect()
    }
}

/// Kills every still-running child when dropped, so no error path leaks
/// processes.
struct Reaper {
    children: Vec<Child>,
}

impl Drop for Reaper {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Runs one `Command` per node to completion. Commands are spawned with
/// piped stdin/stdout (stderr is inherited, so child diagnostics reach
/// the terminal); see the module docs for the stdio protocol.
pub fn run_cluster(mut commands: Vec<Command>, deadline: Duration) -> Result<ClusterOutput> {
    let n = commands.len();
    if n == 0 {
        return Err(GraphStorageError::Unsupported(
            "cannot launch a zero-node cluster".into(),
        ));
    }
    let started = Instant::now();
    let overtime = |what: &str| {
        GraphStorageError::Net(format!(
            "cluster launch deadline ({deadline:?}) passed while {what}; killed all {n} node processes"
        ))
    };

    let mut reaper = Reaper {
        children: Vec::new(),
    };
    for (i, cmd) in commands.iter_mut().enumerate() {
        cmd.stdin(Stdio::piped()).stdout(Stdio::piped());
        let child = cmd
            .spawn()
            .map_err(|e| GraphStorageError::Net(format!("spawning node {i}: {e}")))?;
        reaper.children.push(child);
    }

    // One reader thread per child funnels stdout lines into a channel;
    // the channel disconnects when every child's stdout hits EOF.
    let (line_tx, line_rx) = channel::<(usize, String)>();
    for (i, child) in reaper.children.iter_mut().enumerate() {
        let stdout = child.stdout.take().expect("stdout was piped");
        let tx = line_tx.clone();
        thread::Builder::new()
            .name(format!("launcher-out-{i}"))
            .spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    let Ok(line) = line else { break };
                    if tx.send((i, line)).is_err() {
                        break;
                    }
                }
            })
            .map_err(GraphStorageError::Io)?;
    }
    drop(line_tx);

    // Phase 1: collect one address per node.
    let mut addrs: Vec<Option<String>> = vec![None; n];
    let mut lines: Vec<Vec<String>> = vec![Vec::new(); n];
    let mut errors: Vec<Option<String>> = vec![None; n];
    while addrs.iter().any(Option::is_none) {
        if started.elapsed() >= deadline {
            return Err(overtime("waiting for node addresses"));
        }
        match line_rx.recv_timeout(Duration::from_millis(100)) {
            Ok((i, line)) => handle_line(i, line, &mut addrs, &mut lines, &mut errors),
            Err(RecvTimeoutError::Timeout) => check_early_exits(&mut reaper, &addrs, &errors)?,
            Err(RecvTimeoutError::Disconnected) => {
                // EOF is not the terminal signal, the exit is: poll for
                // it, inside the deadline, before giving the code up.
                let until = (Instant::now() + EXIT_GRACE).min(started + deadline);
                loop {
                    check_early_exits(&mut reaper, &addrs, &errors)?;
                    if Instant::now() >= until {
                        break;
                    }
                    thread::sleep(Duration::from_millis(20));
                }
                return Err(GraphStorageError::Net(
                    "every node closed stdout before announcing an address".into(),
                ));
            }
        }
    }

    // Phase 2: hand the full peer list to every node.
    let peer_line = addrs
        .iter()
        .map(|a| a.as_deref().unwrap())
        .collect::<Vec<_>>()
        .join(" ");
    for (i, child) in reaper.children.iter_mut().enumerate() {
        let mut stdin = child.stdin.take().expect("stdin was piped");
        writeln!(stdin, "{peer_line}")
            .map_err(|e| GraphStorageError::Net(format!("sending peer list to node {i}: {e}")))?;
        // Dropping stdin closes it; children read exactly one line.
    }

    // Phase 3: drain output until every node exits, inside the deadline.
    let mut statuses: Vec<Option<std::process::ExitStatus>> = vec![None; n];
    loop {
        while let Ok((i, line)) = line_rx.try_recv() {
            handle_line(i, line, &mut addrs, &mut lines, &mut errors);
        }
        for (i, child) in reaper.children.iter_mut().enumerate() {
            if statuses[i].is_none() {
                statuses[i] = child
                    .try_wait()
                    .map_err(|e| GraphStorageError::Net(format!("waiting on node {i}: {e}")))?;
            }
        }
        if statuses.iter().all(Option::is_some) {
            break;
        }
        if started.elapsed() >= deadline {
            return Err(overtime("waiting for nodes to finish"));
        }
        thread::sleep(Duration::from_millis(20));
    }
    // Late lines can still be in flight after the last exit.
    while let Ok((i, line)) = line_rx.recv_timeout(Duration::from_millis(200)) {
        handle_line(i, line, &mut addrs, &mut lines, &mut errors);
    }

    for (i, status) in statuses.iter().enumerate() {
        let status = status.expect("all nodes exited");
        if !status.success() {
            let detail = errors[i]
                .clone()
                .unwrap_or_else(|| "no error report before exit (killed?)".into());
            // Typed, with the worker's own exit code: the launcher's
            // caller can die with the same code instead of a generic one.
            return Err(GraphStorageError::NodeFailed {
                node: i,
                code: status.code(),
                detail,
            });
        }
    }
    Ok(ClusterOutput { lines })
}

fn handle_line(
    i: usize,
    line: String,
    addrs: &mut [Option<String>],
    lines: &mut [Vec<String>],
    errors: &mut [Option<String>],
) {
    if let Some(addr) = line.strip_prefix(ADDR_PREFIX) {
        addrs[i] = Some(addr.trim().to_string());
        return;
    }
    if let Some(msg) = line.strip_prefix(ERROR_PREFIX) {
        // Remember the report; the exit status decides whether it's fatal.
        errors[i] = Some(msg.trim().to_string());
    }
    lines[i].push(line);
}

/// A child that exits before announcing its address (or reporting an
/// error) kills the launch immediately instead of waiting out the
/// deadline.
fn check_early_exits(
    reaper: &mut Reaper,
    addrs: &[Option<String>],
    errors: &[Option<String>],
) -> Result<()> {
    for (i, child) in reaper.children.iter_mut().enumerate() {
        if addrs[i].is_some() {
            continue;
        }
        if let Some(status) = child
            .try_wait()
            .map_err(|e| GraphStorageError::Net(format!("waiting on node {i}: {e}")))?
        {
            let detail = errors[i]
                .clone()
                .unwrap_or_else(|| "no error report before exit".into());
            return Err(GraphStorageError::NodeFailed {
                node: i,
                code: status.code(),
                detail: format!("exited before announcing an address: {detail}"),
            });
        }
    }
    Ok(())
}

/// Child-side half of the protocol: announce `addr` on stdout and block
/// for the parent's peer list.
pub fn announce_and_gather(addr: &str) -> Result<Vec<String>> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{ADDR_PREFIX} {addr}").map_err(GraphStorageError::Io)?;
    out.flush().map_err(GraphStorageError::Io)?;
    drop(out);
    let mut line = String::new();
    std::io::stdin()
        .lock()
        .read_line(&mut line)
        .map_err(GraphStorageError::Io)?;
    let peers: Vec<String> = line.split_whitespace().map(String::from).collect();
    if peers.is_empty() {
        return Err(GraphStorageError::Net(
            "launcher closed stdin before sending the peer list".into(),
        ));
    }
    Ok(peers)
}

/// Child-side error report, printed just before a non-zero exit.
pub fn report_error(msg: &str) {
    // Collapse to one line so the parent's line protocol stays intact.
    let flat = msg.replace('\n', " | ");
    println!("{ERROR_PREFIX} {flat}");
    let _ = std::io::stdout().flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg(script);
        cmd
    }

    #[test]
    fn brokered_launch_round_trips_addresses() {
        // Each "node" announces a fake address, echoes the peer list back.
        let script = r#"echo "MSSG-NODE-ADDR 127.0.0.1:$$"; read peers; echo "GOT $peers""#;
        let out = run_cluster(vec![sh(script), sh(script)], Duration::from_secs(30)).unwrap();
        let got = out.tagged("GOT ");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], got[1]);
        assert_eq!(got[0].split_whitespace().count(), 2);
    }

    #[test]
    fn failing_node_surfaces_its_error_report() {
        let ok = r#"echo "MSSG-NODE-ADDR 127.0.0.1:1"; read peers"#;
        let bad =
            r#"echo "MSSG-NODE-ADDR 127.0.0.1:2"; read peers; echo "MSSG-NODE-ERROR boom"; exit 3"#;
        let err = run_cluster(vec![sh(ok), sh(bad)], Duration::from_secs(30)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("node 1") && msg.contains("boom"), "got: {msg}");
        // The worker's exit code rides the typed error so the launcher's
        // caller can propagate it as its own.
        match err {
            GraphStorageError::NodeFailed { node, code, .. } => {
                assert_eq!(node, 1);
                assert_eq!(code, Some(3));
            }
            other => panic!("want NodeFailed, got {other:?}"),
        }
    }

    #[test]
    fn deadline_kills_a_wedged_cluster() {
        // `exec` so the deadline kill reaches the sleep itself — a
        // surviving grandchild would hold the inherited pipes open long
        // after the test ends.
        let wedged = r#"echo "MSSG-NODE-ADDR 127.0.0.1:1"; read peers; exec sleep 600"#;
        let start = Instant::now();
        let err = run_cluster(vec![sh(wedged)], Duration::from_millis(1500)).unwrap_err();
        assert!(start.elapsed() < Duration::from_secs(30), "launcher hung");
        assert!(err.to_string().contains("deadline"), "got: {err}");
    }

    #[test]
    fn an_exit_reaped_after_stdout_closes_keeps_its_code() {
        // Stdout closes 300 ms before the exit: EOF alone must not lose
        // the code.
        let dead = r#"exec >&-; sleep 0.3; exit 7"#;
        let start = Instant::now();
        let err = run_cluster(vec![sh(dead)], Duration::from_secs(120)).unwrap_err();
        assert!(start.elapsed() < Duration::from_secs(30));
        assert!(
            matches!(err, GraphStorageError::NodeFailed { code: Some(7), .. }),
            "the exit after EOF carries its code: {err:?}"
        );
    }

    #[test]
    fn early_exit_fails_fast_without_waiting_out_the_deadline() {
        let dead = r#"exit 7"#;
        let start = Instant::now();
        let err = run_cluster(vec![sh(dead)], Duration::from_secs(120)).unwrap_err();
        assert!(start.elapsed() < Duration::from_secs(30));
        assert!(err.to_string().contains("before announcing"), "got: {err}");
        assert!(
            matches!(err, GraphStorageError::NodeFailed { code: Some(7), .. }),
            "early exits carry the code too: {err:?}"
        );
    }
}
