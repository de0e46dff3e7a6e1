//! The project's named test groups, declared once.
//!
//! `cargo run -p xtask -- verify --list` prints every group with the
//! reason it exists; `verify GROUP…` runs the named groups and `verify`
//! alone runs them all. CI runs one group per step, and a change to a
//! layer is checked by the group that guards it.
//!
//! A group is a list of `cargo test` invocations, each with its package
//! and target arguments, its test-name filters and its libtest
//! arguments. `cargo test <filter>` passes when the filter matches no
//! test, so a renamed test would silently leave its group: before
//! anything runs, each distinct target is listed once (`-- --list`) and
//! every filter must match at least one listed test under libtest's rule
//! (the test's name contains the filter). Exit 0 when every invocation
//! passes, 1 on a failing invocation or a filter that matches nothing,
//! 2 on an unknown group.

use std::collections::hash_map::{Entry, HashMap};
use std::ffi::OsString;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// A named set of `cargo test` invocations.
struct Group {
    name: &'static str,
    /// One line: what the group shows about the system.
    why: &'static str,
    /// Each entry is the arguments of one `cargo test -q` call; see
    /// [`Run::parse`].
    runs: &'static [&'static str],
}

/// One `cargo test -q <args> -- <libtest> <filters>` invocation.
#[derive(Debug, PartialEq)]
struct Run {
    /// Package and target selection, e.g. `["-p", "grdb", "--lib"]`.
    args: Vec<&'static str>,
    /// Test-name filters; none runs every test of the targets.
    filters: Vec<&'static str>,
    /// libtest arguments other than filters, e.g. `--nocapture`.
    libtest: Vec<&'static str>,
}

impl Run {
    /// Splits a table entry `<args> [-- <words>]`: after `--`, a word
    /// starting with `--` is a libtest argument, any other a filter.
    fn parse(entry: &'static str) -> Run {
        let (args, rest) = entry.split_once(" -- ").unwrap_or((entry, ""));
        let (libtest, filters) = rest.split_whitespace().partition(|w| w.starts_with("--"));
        Run {
            args: args.split_whitespace().collect(),
            filters,
            libtest,
        }
    }
}

/// Every group, in the order `verify` with no name runs them.
const GROUPS: &[Group] = &[
    Group {
        name: "grdb-shape",
        why: "grDB's I/O counted, not timed: block reads and seeks per expansion, a scan that \
              evicts no reused block, an ingest that reads no more blocks than it writes, \
              batched stores against the model",
        runs: &["-p grdb --test read_shape --test write_shape --test model -- --nocapture"],
    },
    Group {
        name: "bfs-kernel",
        why: "BFS level kernel: visited sets against a HashSet model, a reset set is a fresh \
              one and a search zeroes only the pages it touches, a k-hop expansion on reused \
              scratch returns only its own neighbourhood, the GidMap hasher's bits, every \
              routing × mode against a reference BFS, exact two-sided counts, no message from \
              a copy to itself in any analysis or the distributed workload",
        runs: &[
            "-p mssg-core --lib -- visited:: \
             visited::tests::a_reset_set_is_a_fresh_set \
             visited::tests::a_search_after_a_large_one_zeroes_only_its_own_pages \
             visited::tests::a_reset_drops_the_hashed_directory \
             query::tests::khop_after_a_larger_expansion_returns_only_its_own_neighbourhood \
             bfs::tests::grdb_and_hashmap_clusters_answer_identically \
             bfs::tests::two_sided_counts_match_the_reference \
             bfs::tests::no_program_sends_to_itself",
            "-p mssg-net --lib -- workload::",
            "-p mssg-types --lib -- gidmap",
        ],
    },
    Group {
        name: "superstep-engine",
        why: "Round protocol and resident engines: every analysis phase against malformed \
              messages, one engine per cluster reused, no job reads another's leftovers, a \
              failing copy aborts its job on every peer in under a second, a barrier polls \
              briefly and then parks with the wait booked as blocked time, an idle engine \
              polls for its next job briefly and then parks, concurrent callers answer as \
              the oracles do, a search on an engine's kept scratch answers as on a fresh \
              cluster, a warm search's copies allocate only its messages, its caller at most \
              8 times and a warm k-hop only its answer, a search's report snapshots metrics \
              only with telemetry on, a cluster of 0 or more than MAX_COPIES nodes is \
              refused before any node opens",
        runs: &[
            "-p datacutter --lib -- superstep:: \
             superstep::tests::a_barrier_wait_parks_after_its_poll_and_is_blocked_time \
             superstep::tests::a_message_that_arrives_during_the_poll_keeps_the_protocol",
            "-p mssg-core --lib -- superstep:: superstep::tests::an_idle_engine_parks_after_its_poll \
             bfs::tests::one_engine bfs::tests::back_to_back bfs::tests::a_reused_engine \
             bfs::tests::each_search bfs::tests::concurrent_ bfs::tests::dead_storage_filter \
             bfs::tests::a_failed_db_filter bfs::tests::db_filter_equivalent \
             bfs::tests::search_metrics_need_enabled_telemetry \
             cluster::tests::node_counts_past_the_engines_bound_open_nothing",
            "--test warm_allocs -- warm_queries_allocate_only_their_messages_and_answers",
        ],
    },
    Group {
        name: "determinism",
        why: "Generators, ingested files, block reads, searches (3-copy entries scanned \
              included), components and stats repeat across runs, builds and backends",
        runs: &["--test determinism"],
    },
    Group {
        name: "placement",
        why: "Under every declustering the stored graph does not depend on the front-end \
              count, a killed ingest resumes to it, and a second stream continues it",
        runs: &[
            "-p mssg-core --lib -- ingest:: decluster:: components::",
            "-p mssg-core --test perf_props",
        ],
    },
    Group {
        name: "fault-recovery",
        why: "One fault plan fires as declared, a panicking copy is reported ahead of its \
              peers, resume completes a failed ingest, a resume with another window size is \
              refused",
        runs: &[
            "-p datacutter --lib -- fault:: \
             runtime::tests::panicking_copy_fails_the_run_ahead_of_its_peers \
             runtime::tests::a_copys_own_error_outranks_the_hang_up_it_causes",
            "-p mssg-core --lib -- ingest::tests::resume_with_another_window_size_is_refused",
            "-p mssg-core --test fault_props",
            "-p mssg-core --test perf_props -- second_stream",
        ],
    },
    Group {
        name: "storage-adapters",
        why: "A reopened disk cluster keeps its count and refuses an unsafe resume, an ingest \
              writes no engine metadata, every engine filters metadata as HashMapDb does",
        runs: &[
            "--test persistence",
            "--test properties -- storage_engines_match_reference",
            "-p graphdb -p kvdb -p minisql --lib",
        ],
    },
    Group {
        name: "wire-framing",
        why: "Wire frames round-trip and malformed frames are refused, for any values",
        runs: &["-p mssg-net --test framing_props"],
    },
    Group {
        name: "distributed-smoke",
        why: "A 3-process localhost ingest → BFS through mssg-node matches the in-process run, \
              and every mssg-node mode refuses an unknown flag",
        runs: &["-p mssg-serve --test distributed_smoke"],
    },
    Group {
        name: "cluster-telemetry",
        why: "The merged cluster trace, with its output",
        runs: &["-p mssg-serve --test distributed_smoke -- --nocapture telemetry_launch"],
    },
    Group {
        name: "serve-smoke",
        why: "mssg-node serve answers 8 concurrent query clients",
        runs: &["-p mssg-serve --test serve_smoke"],
    },
    Group {
        name: "serve-plane",
        why: "Serving in process: protocol round trips, a cache hit answered without a slot \
              and counted once, a failed execution answered as a typed failure and never \
              cached, typed overload, fair queues, epoch snapshots, codec and retry properties",
        runs: &[
            "-p mssg-serve --lib --test serve_roundtrip --test serve_epoch --test serve_props",
            "-p mssg-serve --test serve_roundtrip -- a_cache_hit_does_not_wait_for_a_busy_slot \
             repeated_queries_hit_the_cache a_failed_execution_is_a_typed_failure_and_is_not_cached",
        ],
    },
    Group {
        name: "transport",
        why: "Transport unit tests (sockets, credit flow, handshake, close, peer death, \
              loopback): seconds, so a broken dispatch fails before protocol-model",
        runs: &["-p mssg-net --lib"],
    },
    Group {
        name: "modelcheck",
        why: "The model checker's self-tests",
        runs: &["-p mssg-modelcheck"],
    },
    Group {
        name: "channel-model",
        why: "The vendored channel, model-checked: delivery, timeouts that terminate, \
              disconnects that wake, parked-waiter counts that lose no wake-up and leave \
              no signal to nobody, a deadlock negative control",
        runs: &[
            "--test modelcheck_channel",
            "--test modelcheck_channel -- two_parked_receivers_are_each_woken_by_a_send \
             a_parked_sender_is_freed_by_try_recv an_expired_recv_timeout_leaves_no_count_behind",
        ],
    },
    Group {
        name: "race-corpus",
        why: "The race detector's positive and negative controls",
        runs: &["-p mssg-modelcheck --test race_corpus"],
    },
    Group {
        name: "protocol-model",
        why: "The shipping TcpTransport explored over the model link (~3 min; schedule \
              counts on stdout)",
        runs: &["-p mssg-net --test protocol_model -- --nocapture"],
    },
    Group {
        name: "xtask",
        why: "The tooling's own tests: lint rules on fixed input, this table against CI, the \
              loc split between non-test and test lines",
        runs: &["-p xtask -- lint:: verify:: loc::tests::loc_splits_at_the_first_cfg_test"],
    },
    Group {
        name: "graph-verifier",
        why: "The filter-graph verifier's property tests",
        runs: &["-p datacutter --test verify_props"],
    },
    Group {
        name: "transport-chaos",
        why: "Transport chaos: default seeds and directed faults end in the fault-free digest \
              or a typed error; a red run prints its seed (replay: CHAOS_SEED=<n> … one_seed)",
        runs: &["-p mssg-net --test simnet_chaos -- --nocapture"],
    },
    Group {
        name: "serve-chaos",
        why: "Serving-plane chaos: default seeds and directed faults answer identically or \
              fail typed; a red run prints its seed",
        runs: &["-p mssg-serve --test serve_chaos -- --nocapture"],
    },
    Group {
        name: "transport-chaos-wide",
        why: "The transport seed sweep alone, over CHAOS_SEEDS seeds (CI sets 400 on push)",
        runs: &["-p mssg-net --test simnet_chaos -- --nocapture chaos_sweep"],
    },
    Group {
        name: "serve-chaos-wide",
        why: "The serving-plane seed sweep alone, over CHAOS_SEEDS seeds (CI sets 800 on push)",
        runs: &["-p mssg-serve --test serve_chaos -- --nocapture chaos_sweep"],
    },
];

/// Entry point for `cargo run -p xtask -- verify`.
pub fn run(args: &[String]) -> ExitCode {
    if args == ["--list"] {
        for g in GROUPS {
            println!("{:<21} {}", g.name, g.why);
        }
        return ExitCode::SUCCESS;
    }
    let groups = match select(GROUPS, args) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("xtask verify: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = crate::lint::repo_root() else {
        eprintln!("xtask verify: cannot locate the workspace root");
        return ExitCode::from(2);
    };
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    match stale_filters(&groups, |args| list_tests(&cargo, &root, args)) {
        Ok(stale) if stale.is_empty() => {}
        Ok(stale) => {
            for s in stale {
                eprintln!("xtask verify: {s}");
            }
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("xtask verify: {e}");
            return ExitCode::FAILURE;
        }
    }
    for g in groups {
        println!("xtask verify: {} — {}", g.name, g.why);
        for &entry in g.runs {
            let r = Run::parse(entry);
            println!("$ cargo test -q {entry}");
            let ok = Command::new(&cargo)
                .current_dir(&root)
                .args(["test", "-q"])
                .args(&r.args)
                .arg("--")
                .args(&r.libtest)
                .args(&r.filters)
                .status()
                .is_ok_and(|s| s.success());
            if !ok {
                eprintln!(
                    "xtask verify: group `{}` failed: cargo test -q {entry}",
                    g.name
                );
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The groups `names` asks for, in that order; every group when `names`
/// is empty. A name the table does not declare is refused.
fn select<'a>(table: &'a [Group], names: &[String]) -> Result<Vec<&'a Group>, String> {
    if names.is_empty() {
        return Ok(table.iter().collect());
    }
    names
        .iter()
        .map(|n| {
            table
                .iter()
                .find(|g| g.name == n)
                .ok_or_else(|| format!("unknown group `{n}` (`verify --list` prints them)"))
        })
        .collect()
}

/// Lists each distinct target of `groups` once through `list` and
/// returns one message per filter that matches none of its tests.
fn stale_filters(
    groups: &[&Group],
    mut list: impl FnMut(&[&str]) -> Result<Vec<String>, String>,
) -> Result<Vec<String>, String> {
    let mut listed: HashMap<Vec<&str>, Vec<String>> = HashMap::new();
    let mut stale = Vec::new();
    for g in groups {
        for r in g.runs.iter().map(|e| Run::parse(e)) {
            if r.filters.is_empty() {
                continue;
            }
            let tests = match listed.entry(r.args.clone()) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(list(&r.args)?),
            };
            for f in r.filters {
                if !tests.iter().any(|t| t.contains(f)) {
                    stale.push(format!(
                        "group `{}`: filter `{f}` matches no test of `cargo test {}`",
                        g.name,
                        r.args.join(" ")
                    ));
                }
            }
        }
    }
    Ok(stale)
}

/// The test names `cargo test <args> -- --list` prints.
fn list_tests(cargo: &OsString, root: &Path, args: &[&str]) -> Result<Vec<String>, String> {
    let out = Command::new(cargo)
        .current_dir(root)
        .args(["test", "-q"])
        .args(args)
        .args(["--", "--list"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "`cargo test {} -- --list` failed ({})",
            args.join(" "),
            out.status
        ));
    }
    Ok(parse_test_list(&String::from_utf8_lossy(&out.stdout)))
}

/// The names on libtest's `--list` lines of the form `name: test`;
/// benchmarks, summaries and anything else are skipped.
fn parse_test_list(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter_map(|l| l.strip_suffix(": test"))
        .map(str::to_owned)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_list_parser_counts_only_test_lines() {
        let stdout = "\
bfs::tests::two_sided: test
bfs::tests::ring: test
bench_expand: bench
src/lib.rs - Gid (line 12): test

2 tests, 1 benchmarks
     Running unittests src/lib.rs
";
        assert_eq!(
            parse_test_list(stdout),
            [
                "bfs::tests::two_sided",
                "bfs::tests::ring",
                "src/lib.rs - Gid (line 12)"
            ]
        );
    }

    #[test]
    fn a_table_entry_splits_into_args_libtest_and_filters() {
        assert_eq!(
            Run::parse("-p net --test chaos -- --nocapture sweep one_seed"),
            Run {
                args: vec!["-p", "net", "--test", "chaos"],
                filters: vec!["sweep", "one_seed"],
                libtest: vec!["--nocapture"],
            }
        );
        assert_eq!(
            Run::parse("--test determinism"),
            Run {
                args: vec!["--test", "determinism"],
                filters: vec![],
                libtest: vec![],
            }
        );
    }

    #[test]
    fn a_filter_matching_no_listed_test_names_its_group_and_filter() {
        const TABLE: &[Group] = &[Group {
            name: "kernel",
            why: "",
            runs: &[
                "-p core --lib -- bfs:: renamed_away",
                "-p core --lib -- visited::",
                "--test whole",
            ],
        }];
        let mut calls = 0;
        let stale = stale_filters(&select(TABLE, &[]).unwrap(), |args| {
            calls += 1;
            assert_eq!(args, ["-p", "core", "--lib"]);
            Ok(vec![
                "bfs::tests::two_sided".into(),
                "visited::tests::model".into(),
            ])
        })
        .unwrap();
        assert_eq!(
            calls, 1,
            "each target is listed once, one with no filter never"
        );
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert!(
            stale[0].contains("`kernel`") && stale[0].contains("`renamed_away`"),
            "{}",
            stale[0]
        );
    }

    #[test]
    fn an_unknown_group_is_refused() {
        let e = select(GROUPS, &["bfs-kernel".into(), "no-such-group".into()])
            .err()
            .expect("refused");
        assert!(e.contains("`no-such-group`"), "{e}");
        let names: Vec<_> = select(GROUPS, &["determinism".into()]).unwrap();
        assert_eq!(names[0].name, "determinism");
    }

    /// Every group has a unique name, a reason and at least one run, and
    /// CI runs every group and names none the table lacks.
    #[test]
    fn ci_runs_exactly_the_declared_groups() {
        let mut names: Vec<_> = GROUPS.iter().map(|g| g.name).collect();
        assert!(GROUPS
            .iter()
            .all(|g| !g.why.is_empty() && !g.runs.is_empty()));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), GROUPS.len(), "duplicate group names");

        let root = crate::lint::repo_root().expect("workspace root");
        let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("ci.yml");
        let mut in_ci: Vec<&str> = ci
            .lines()
            .filter_map(|l| l.split_once("run: cargo run -q -p xtask -- verify "))
            .flat_map(|(_, groups)| groups.split_whitespace())
            .collect();
        in_ci.sort_unstable();
        in_ci.dedup();
        assert_eq!(in_ci, names);
    }
}
