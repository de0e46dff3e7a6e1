//! The MSSG project lint suite.
//!
//! Each rule is a project-policy invariant that rustc/clippy cannot
//! express:
//!
//! - **`filter-unwrap`** — no `.unwrap()` / `.expect(` inside an
//!   `impl Filter for …` block (outside `#[cfg(test)]` regions). A panic
//!   in a filter copy fails the whole run with an opaque `FilterFailed`;
//!   filters must return typed errors through their `Result` interface
//!   instead.
//! - **`untimed-recv`** — a source file in `crates/core`, `crates/bench`,
//!   or `examples/` that calls `.recv()` on a stream must also configure
//!   `stream_timeout` somewhere in the same file. An untimed recv in a
//!   graph whose peer can die (a crash, a fault plan) hangs forever
//!   instead of surfacing a typed `Timeout`.
//! - **`wire-alloc`** — in `crates/net/`, an allocation
//!   (`Vec::with_capacity(n)`, `vec![x; n]`) whose size involves an
//!   integer decoded off the wire (`from_le_bytes`) must be preceded by
//!   a visible clamp (`MAX_PAYLOAD`/`MAX_…` comparison, `.min(`,
//!   `.clamp(`) within a few lines. A length prefix is attacker-
//!   controlled input; allocating it unclamped turns a corrupt frame
//!   into an allocation bomb.
//! - **`metric-names`** — every literal `counter("…")` / `gauge("…")` /
//!   `histogram("…")` / `span("…")` name in non-test code must appear in
//!   the central registry `crates/obs/src/names.rs`. A typoed metric
//!   name silently forks a time series (and a typoed span name breaks
//!   trace grouping) instead of failing anywhere; the registry makes it
//!   fail here.
//! - **`clock-order`** — no `Ordering::Relaxed` outside `vendor/` and
//!   test code without a `// racecheck:` justification on the line or
//!   within a few lines above. Relaxed provides no happens-before edge,
//!   so every use either carries a written argument for why no ordering
//!   is needed (a counter nobody reads for synchronization) or is a
//!   latent race the vector-clock detector cannot model.
//! - **`shared-mut-escape`** — a field of a `Filter`-implementing type
//!   whose type smuggles shared mutability (`Arc<Mutex<…>>`,
//!   `Arc<RwLock<…>>`, `UnsafeCell<…>`, `SharedBackend`) must be
//!   registered in the repo-root `racecheck.allow` as `Type::field`.
//!   Filters are single-threaded by contract; a shared-mutable field is
//!   a deliberate escape hatch that the race-audit inventory must list,
//!   not an accident.
//! - **`gid-hash`** — no `HashMap<Gid, …>` / `HashSet<Gid>` with the
//!   default hasher in non-test code under `crates/core` or
//!   `crates/graphdb`: use `mssg_types::GidMap` / `GidSet`. These tables
//!   sit on the traversal and storage hot paths, keyed by ids from the
//!   operator's own ingest stream; SipHash there buys nothing and costs a
//!   probe's worth of time per vertex. (Tables keyed by bytes a client
//!   supplies live in `crates/serve`, out of the rule's scope, and keep
//!   SipHash.)
//!
//! False positives are suppressed through the allowlist file
//! `lint.allow` at the repo root (or `--allowlist <file>`), one entry
//! per line: `rule path-substring [message-substring]`. A stale entry —
//! one that matches no current finding — is itself a finding: dead
//! suppressions hide future regressions. Output is
//! `path:line: [rule] message`; the process exits 1 if any violation
//! (or stale entry) survives, and 2 on malformed input (unparseable
//! allowlist lines, unknown flags) — suitable for CI.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One lint finding, pointing at a file and line.
struct Violation {
    rule: &'static str,
    /// Repo-relative path, `/`-separated for stable output.
    path: String,
    line: usize,
    message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// One `rule path-substring [message-substring]` allowlist entry.
#[derive(Debug)]
struct AllowEntry {
    rule: String,
    path_sub: String,
    msg_sub: Option<String>,
    /// 1-based line in the allowlist file, for stale-entry reports.
    line: usize,
}

impl AllowEntry {
    fn matches(&self, v: &Violation) -> bool {
        self.rule == v.rule
            && v.path.contains(&self.path_sub)
            && self
                .msg_sub
                .as_ref()
                .is_none_or(|m| v.message.contains(m.as_str()))
    }
}

/// Entry point for `cargo run -p xtask -- lint`.
pub fn run(args: &[String]) -> ExitCode {
    let root = match repo_root() {
        Some(r) => r,
        None => {
            eprintln!("xtask lint: cannot locate the workspace root");
            return ExitCode::from(2);
        }
    };
    let mut allow_path = root.join("lint.allow");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--allowlist" => match it.next() {
                Some(p) => allow_path = PathBuf::from(p),
                None => {
                    eprintln!("xtask lint: --allowlist needs a file argument");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("xtask lint: unknown flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let allow = match load_allowlist(&allow_path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };
    let race_allow = match load_racecheck_allow(&root.join("racecheck.allow")) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };

    let mut violations = Vec::new();
    let registry = load_name_registry(&root, &mut violations);
    let mut shared_fields = SharedMutInventory::default();
    for file in rust_sources(&root) {
        let Ok(text) = fs::read_to_string(&file) else {
            continue;
        };
        let rel = rel_path(&root, &file);
        check_filter_unwrap(&rel, &text, &mut violations);
        check_untimed_recv(&rel, &text, &mut violations);
        check_wire_alloc(&rel, &text, &mut violations);
        check_clock_order(&rel, &text, &mut violations);
        check_gid_hash(&rel, &text, &mut violations);
        collect_shared_mut(&rel, &text, &mut shared_fields);
        if let Some(reg) = &registry {
            check_metric_names(&rel, &text, reg, &mut violations);
        }
    }
    check_shared_mut_escape(&shared_fields, &race_allow, &mut violations);

    let mut reported = 0usize;
    let mut allowed = 0usize;
    let mut hits = vec![false; allow.len()];
    for v in &violations {
        let mut suppressed = false;
        for (e, hit) in allow.iter().zip(hits.iter_mut()) {
            if e.matches(v) {
                *hit = true;
                suppressed = true;
            }
        }
        if suppressed {
            allowed += 1;
        } else {
            println!("{v}");
            reported += 1;
        }
    }
    // A suppression that suppresses nothing is dead weight that will
    // silently swallow the next real finding at that path: surface it.
    for (e, hit) in allow.iter().zip(hits.iter()) {
        if !hit {
            println!(
                "{}:{}: [stale-allow] entry `{} {}{}` matches no finding — remove it",
                rel_path(&root, &allow_path),
                e.line,
                e.rule,
                e.path_sub,
                e.msg_sub
                    .as_deref()
                    .map(|m| format!(" {m}"))
                    .unwrap_or_default(),
            );
            reported += 1;
        }
    }
    if reported == 0 {
        println!("lint: clean ({allowed} allowlisted)");
        ExitCode::SUCCESS
    } else {
        println!("lint: {reported} violation(s) ({allowed} allowlisted)");
        ExitCode::FAILURE
    }
}

/// Walks up from this crate's manifest dir to the directory whose
/// `Cargo.toml` declares `[workspace]`.
pub(crate) fn repo_root() -> Option<PathBuf> {
    let start = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    for dir in start.ancestors() {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
    }
    None
}

/// Loads `lint.allow`. A missing file is an empty allowlist; a present
/// file with an unparseable line is a hard error (exit 2) — a typoed
/// suppression that silently suppresses nothing is worse than none.
fn load_allowlist(path: &Path) -> Result<Vec<AllowEntry>, String> {
    let Ok(text) = fs::read_to_string(path) else {
        return Ok(Vec::new());
    };
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let l = raw.trim();
        if l.is_empty() || l.starts_with('#') {
            continue;
        }
        let mut parts = l.splitn(3, char::is_whitespace);
        let (Some(rule), Some(path_sub)) = (parts.next(), parts.next()) else {
            return Err(format!(
                "{}:{}: malformed allowlist entry `{l}` — expected \
                 `rule path-substring [message-substring]`",
                path.display(),
                idx + 1
            ));
        };
        entries.push(AllowEntry {
            rule: rule.to_string(),
            path_sub: path_sub.to_string(),
            msg_sub: parts.next().map(|s| s.trim().to_string()),
            line: idx + 1,
        });
    }
    Ok(entries)
}

/// Loads the repo-root `racecheck.allow`: the audited inventory of
/// shared-mutable fields on Filter types, one `Type::field` per line.
/// Missing file ⇒ empty inventory (every escape is a finding);
/// malformed line ⇒ hard error (exit 2).
fn load_racecheck_allow(path: &Path) -> Result<Vec<(String, usize)>, String> {
    let Ok(text) = fs::read_to_string(path) else {
        return Ok(Vec::new());
    };
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let l = raw.trim();
        if l.is_empty() || l.starts_with('#') {
            continue;
        }
        let well_formed = l.split_once("::").is_some_and(|(ty, field)| {
            let ident =
                |s: &str| !s.is_empty() && s.chars().all(|c| c.is_alphanumeric() || c == '_');
            ident(ty) && ident(field)
        });
        if !well_formed {
            return Err(format!(
                "{}:{}: malformed racecheck entry `{l}` — expected `Type::field`",
                path.display(),
                idx + 1
            ));
        }
        entries.push((l.to_string(), idx + 1));
    }
    Ok(entries)
}

/// All first-party `.rs` files, sorted: `crates/**`, `examples/**`,
/// `tests/**`, and `src/**`. Vendored stand-ins are third-party code and
/// exempt from project policy.
pub(crate) fn first_party_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "examples", "tests", "src"] {
        walk(&root.join(top), &mut out);
    }
    out.sort();
    out
}

/// The files the lint checks: [`first_party_sources`] minus `xtask`
/// itself, whose rule tables quote the patterns it searches for.
fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = first_party_sources(root);
    out.retain(|p| !rel_path(root, p).starts_with("crates/xtask/"));
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                walk(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

pub(crate) fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Strips line comments and the *contents* of string literals, so that
/// brace counting and pattern matching see only code. Not a full lexer:
/// raw strings and block comments spanning lines are not handled, which
/// is fine for this codebase's style (and errs toward false positives,
/// which the allowlist absorbs).
fn strip_code(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    let mut in_char = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => {
                    in_str = false;
                    out.push('"');
                }
                _ => {}
            }
            continue;
        }
        if in_char {
            if c == '\\' {
                chars.next();
            } else if c == '\'' {
                in_char = false;
            }
            continue;
        }
        match c {
            '/' if chars.peek() == Some(&'/') => break,
            '"' => {
                in_str = true;
                out.push('"');
            }
            // A lifetime tick (`&'a`) is not a char literal; only treat
            // `'` as one when it closes within a couple of characters.
            '\'' => {
                let rest: String = chars.clone().take(3).collect();
                if rest.starts_with('\\') || rest.chars().nth(1) == Some('\'') {
                    in_char = true;
                } else {
                    out.push(c);
                }
            }
            _ => out.push(c),
        }
    }
    out
}

/// What kind of braced region we are inside of.
#[derive(Clone, Copy, PartialEq)]
enum Region {
    Plain,
    /// An `impl … Filter for …` block.
    FilterImpl,
    /// A region annotated `#[cfg(test)]`.
    Test,
}

/// Flags `.unwrap()` / `.expect(` inside `impl Filter for` blocks,
/// excluding `#[cfg(test)]` regions.
fn check_filter_unwrap(rel: &str, text: &str, out: &mut Vec<Violation>) {
    let mut stack: Vec<Region> = Vec::new();
    let mut pending: Option<Region> = None;
    for (idx, raw) in text.lines().enumerate() {
        let code = strip_code(raw);
        let trimmed = code.trim();
        if trimmed.contains("#[cfg(test)]") {
            pending = Some(Region::Test);
        } else if trimmed.starts_with("impl") && trimmed.contains("Filter for") {
            // Don't let a test region's helper impls escape the test tag.
            if !stack.contains(&Region::Test) {
                pending = Some(Region::FilterImpl);
            }
        }
        let in_impl = stack.contains(&Region::FilterImpl);
        let in_test = stack.contains(&Region::Test);
        if in_impl && !in_test {
            for pat in [".unwrap()", ".expect("] {
                if let Some(col) = code.find(pat) {
                    let _ = col;
                    out.push(Violation {
                        rule: "filter-unwrap",
                        path: rel.to_string(),
                        line: idx + 1,
                        message: format!(
                            "`{pat}…` inside a Filter impl — return the error \
                             through the filter's Result instead of panicking \
                             the copy"
                        ),
                    });
                    break;
                }
            }
        }
        for c in code.chars() {
            match c {
                '{' => {
                    stack.push(pending.take().unwrap_or(Region::Plain));
                }
                '}' => {
                    stack.pop();
                }
                _ => {}
            }
        }
        // An attribute or impl header whose `{` never arrives (e.g.
        // `#[cfg(test)]` on a `use`) shouldn't leak onto the next block,
        // but attributes legitimately sit one or more lines above the
        // brace (`#[cfg(test)]\nmod tests {`), so only clear the marker
        // once a line that is clearly a complete non-block item ends.
        if pending.is_some() && trimmed.ends_with(';') {
            pending = None;
        }
    }
}

/// Directories whose graphs run under fault plans, where a blocking
/// `.recv()` with no stream deadline can hang forever.
const TIMED_RECV_SCOPES: [&str; 3] = ["crates/core/", "crates/bench/", "examples/"];

/// Flags files in those directories that call `.recv()` without
/// configuring `stream_timeout` anywhere in the same file.
fn check_untimed_recv(rel: &str, text: &str, out: &mut Vec<Violation>) {
    if !TIMED_RECV_SCOPES.iter().any(|s| rel.starts_with(s)) {
        return;
    }
    let mut first_recv = None;
    let mut has_timeout = false;
    for (idx, raw) in text.lines().enumerate() {
        let code = strip_code(raw);
        if code.contains(".recv()") && first_recv.is_none() {
            first_recv = Some(idx + 1);
        }
        if code.contains("stream_timeout") || code.contains("recv_timeout") {
            has_timeout = true;
        }
    }
    if let Some(line) = first_recv {
        if !has_timeout {
            out.push(Violation {
                rule: "untimed-recv",
                path: rel.to_string(),
                line,
                message: "blocking recv() with no stream_timeout in scope — a dead \
                          peer hangs this graph forever instead of raising Timeout"
                    .to_string(),
            });
        }
    }
}

/// Directories that parse untrusted network bytes.
const WIRE_ALLOC_SCOPES: [&str; 1] = ["crates/net/"];

/// How many preceding lines may hold the clamp that justifies an
/// allocation from a wire-decoded length.
const WIRE_ALLOC_LOOKBACK: usize = 8;

/// Flags allocations sized by a wire-decoded integer with no clamp in
/// sight. "Wire-decoded" is tracked by taint: any `let` binding whose
/// initializer calls `from_le_bytes` names a length the peer controls;
/// using that name to size `Vec::with_capacity` / `vec![x; n]` requires
/// a bound (`MAX_…` comparison, `.min(`, `.clamp(`) within
/// [`WIRE_ALLOC_LOOKBACK`] lines above the allocation.
fn check_wire_alloc(rel: &str, text: &str, out: &mut Vec<Violation>) {
    if !WIRE_ALLOC_SCOPES.iter().any(|s| rel.starts_with(s)) {
        return;
    }
    let stripped: Vec<String> = text.lines().map(strip_code).collect();

    let mut tainted: Vec<String> = Vec::new();
    for code in &stripped {
        if !code.contains("from_le_bytes") {
            continue;
        }
        let t = code.trim_start();
        if let Some(rest) = t.strip_prefix("let ") {
            let rest = rest.strip_prefix("mut ").unwrap_or(rest);
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                tainted.push(name);
            }
        }
    }
    if tainted.is_empty() {
        return;
    }

    for (idx, code) in stripped.iter().enumerate() {
        let Some(size_expr) = alloc_size_expr(code) else {
            continue;
        };
        let uses_taint = size_expr
            .split(|c: char| !c.is_alphanumeric() && c != '_')
            .any(|tok| tainted.iter().any(|t| t == tok));
        if !uses_taint {
            continue;
        }
        let from = idx.saturating_sub(WIRE_ALLOC_LOOKBACK);
        let clamped = stripped[from..=idx]
            .iter()
            .any(|l| l.contains("MAX_") || l.contains(".min(") || l.contains(".clamp("));
        if !clamped {
            out.push(Violation {
                rule: "wire-alloc",
                path: rel.to_string(),
                line: idx + 1,
                message: format!(
                    "allocation sized by wire-decoded `{}` with no clamp in the \
                     preceding {WIRE_ALLOC_LOOKBACK} lines — bound the length \
                     (MAX_PAYLOAD check, .min/.clamp) before trusting it",
                    size_expr.trim()
                ),
            });
        }
    }
}

/// The size expression of an allocation on this line, if any:
/// the argument of `Vec::with_capacity(…)` or the repeat count of
/// `vec![elem; n]`. Returns `None` for allocation-free lines.
fn alloc_size_expr(code: &str) -> Option<String> {
    if let Some(pos) = code.find("with_capacity(") {
        let rest = &code[pos + "with_capacity(".len()..];
        return Some(balanced_prefix(rest, '(', ')'));
    }
    if let Some(pos) = code.find("vec![") {
        let rest = &code[pos + "vec![".len()..];
        let inner = balanced_prefix(rest, '[', ']');
        if let Some((_, count)) = inner.rsplit_once(';') {
            return Some(count.to_string());
        }
    }
    None
}

/// The prefix of `rest` up to the close delimiter that balances an
/// already-consumed open delimiter (whole string if unbalanced).
fn balanced_prefix(rest: &str, open: char, close: char) -> String {
    let mut depth = 1usize;
    for (i, c) in rest.char_indices() {
        if c == open {
            depth += 1;
        } else if c == close {
            depth -= 1;
            if depth == 0 {
                return rest[..i].to_string();
            }
        }
    }
    rest.to_string()
}

/// How many preceding lines may hold the `// racecheck:` justification
/// for a relaxed atomic.
const CLOCK_ORDER_LOOKBACK: usize = 8;

/// Flags `Ordering::Relaxed` in non-test first-party code with no
/// `// racecheck:` justification on the same line or within
/// [`CLOCK_ORDER_LOOKBACK`] lines above. Relaxed creates no
/// happens-before edge, so each use must either argue in writing why no
/// ordering is needed or pick an ordering the race detector can model.
/// (`vendor/` is exempt by construction: [`rust_sources`] never walks
/// it.)
fn check_clock_order(rel: &str, text: &str, out: &mut Vec<Violation>) {
    if rel.starts_with("tests/") || rel.contains("/tests/") {
        return;
    }
    let raw_lines: Vec<&str> = text.lines().collect();
    let mut stack: Vec<Region> = Vec::new();
    let mut pending: Option<Region> = None;
    for (idx, raw) in raw_lines.iter().enumerate() {
        let code = strip_code(raw);
        let trimmed = code.trim();
        if trimmed.contains("#[cfg(test)]") {
            pending = Some(Region::Test);
        }
        if !stack.contains(&Region::Test) && code.contains("Ordering::Relaxed") {
            let from = idx.saturating_sub(CLOCK_ORDER_LOOKBACK);
            let justified = raw_lines[from..=idx]
                .iter()
                .any(|l| l.contains("racecheck:"));
            if !justified {
                out.push(Violation {
                    rule: "clock-order",
                    path: rel.to_string(),
                    line: idx + 1,
                    message: "`Ordering::Relaxed` with no `// racecheck:` justification \
                              — Relaxed makes no happens-before edge; write down why \
                              none is needed, or use Acquire/Release"
                        .to_string(),
                });
            }
        }
        for c in code.chars() {
            match c {
                '{' => stack.push(pending.take().unwrap_or(Region::Plain)),
                '}' => {
                    stack.pop();
                }
                _ => {}
            }
        }
        if pending.is_some() && trimmed.ends_with(';') {
            pending = None;
        }
    }
}

/// Directories whose vertex-keyed tables sit on the traversal and storage
/// hot paths.
const GID_HASH_SCOPES: [&str; 2] = ["crates/core/", "crates/graphdb/"];

/// Flags `HashMap<Gid, V>` / `HashSet<Gid>` — a vertex-keyed table with
/// the default (SipHash) hasher — in non-test code of the hot-path crates.
/// A table that names its hasher (`HashMap<Gid, V, S>`) passes.
fn check_gid_hash(rel: &str, text: &str, out: &mut Vec<Violation>) {
    if !GID_HASH_SCOPES.iter().any(|s| rel.starts_with(s)) || rel.contains("/tests/") {
        return;
    }
    let mut stack: Vec<Region> = Vec::new();
    let mut pending: Option<Region> = None;
    for (idx, raw) in text.lines().enumerate() {
        let code = strip_code(raw);
        let trimmed = code.trim();
        if trimmed.contains("#[cfg(test)]") {
            pending = Some(Region::Test);
        }
        if !stack.contains(&Region::Test) {
            let compact: String = code.chars().filter(|c| !c.is_whitespace()).collect();
            // (pattern, alias to use, commas in the type's arguments when no
            // hasher is named: `HashMap<K, V>` has one, `HashSet<K>` none).
            for (table, alias, bare_commas) in
                [("HashMap<Gid,", "GidMap", 1), ("HashSet<Gid", "GidSet", 0)]
            {
                let Some(pos) = compact.find(table) else {
                    continue;
                };
                // Both table names are as long as each other.
                let args = balanced_prefix(&compact[pos + "HashMap<".len()..], '<', '>');
                let mut depth = 0usize;
                let top_level_commas = args
                    .chars()
                    .filter(|c| {
                        match c {
                            '<' | '(' | '[' => depth += 1,
                            '>' | ')' | ']' => depth = depth.saturating_sub(1),
                            _ => {}
                        }
                        *c == ',' && depth == 0
                    })
                    .count();
                if top_level_commas == bare_commas {
                    out.push(Violation {
                        rule: "gid-hash",
                        path: rel.to_string(),
                        line: idx + 1,
                        message: format!(
                            "vertex-keyed `{table}…>` with the default hasher — use \
                             `mssg_types::{alias}` (ids come from the operator's own \
                             ingest stream; SipHash per vertex buys nothing here)"
                        ),
                    });
                }
            }
        }
        for c in code.chars() {
            match c {
                '{' => stack.push(pending.take().unwrap_or(Region::Plain)),
                '}' => {
                    stack.pop();
                }
                _ => {}
            }
        }
        if pending.is_some() && trimmed.ends_with(';') {
            pending = None;
        }
    }
}

/// Field types that smuggle shared mutability into a struct.
const SHARED_MUT_PATTERNS: [&str; 4] =
    ["Arc<Mutex<", "Arc<RwLock<", "UnsafeCell<", "SharedBackend"];

/// Cross-file inventory for the `shared-mut-escape` rule: which types
/// implement `Filter`, and which struct fields have shared-mutable
/// types. Collected over every source file first, because a struct and
/// its `impl Filter` block may live apart.
#[derive(Default)]
struct SharedMutInventory {
    filter_types: Vec<String>,
    /// `(type, field, pattern, path, line)` for every shared-mutable field.
    fields: Vec<(String, String, &'static str, String, usize)>,
}

/// Records `impl … Filter for Type` names and shared-mutable struct
/// fields from one file into the inventory. Test regions are skipped:
/// test-only filters exercise the framework, not the product graph.
fn collect_shared_mut(rel: &str, text: &str, inv: &mut SharedMutInventory) {
    if rel.starts_with("tests/") || rel.contains("/tests/") {
        return;
    }
    let mut stack: Vec<Region> = Vec::new();
    let mut pending: Option<Region> = None;
    // Name of the struct whose fields we are currently walking, with the
    // brace depth its body started at.
    let mut in_struct: Option<(String, usize)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let code = strip_code(raw);
        let trimmed = code.trim();
        if trimmed.contains("#[cfg(test)]") {
            pending = Some(Region::Test);
        }
        let in_test = stack.contains(&Region::Test);
        if !in_test {
            if trimmed.starts_with("impl") && trimmed.contains("Filter for") {
                if let Some(pos) = trimmed.find(" for ") {
                    let name: String = trimmed[pos + 5..]
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    if !name.is_empty() {
                        inv.filter_types.push(name);
                    }
                }
            }
            if in_struct.is_none() {
                let header = trimmed.strip_prefix("pub ").unwrap_or(trimmed);
                if let Some(rest) = header.strip_prefix("struct ") {
                    let name: String = rest
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    if !name.is_empty() && trimmed.ends_with('{') {
                        in_struct = Some((name, stack.len()));
                    }
                }
            } else if let Some((sname, depth)) = &in_struct {
                if stack.len() == depth + 1 {
                    if let Some((fname, ftype)) = trimmed.split_once(':') {
                        let fname = fname.strip_prefix("pub ").unwrap_or(fname).trim();
                        let is_ident = !fname.is_empty()
                            && fname.chars().all(|c| c.is_alphanumeric() || c == '_');
                        if is_ident {
                            let compact: String =
                                ftype.chars().filter(|c| !c.is_whitespace()).collect();
                            for pat in SHARED_MUT_PATTERNS {
                                if compact.contains(pat) {
                                    inv.fields.push((
                                        sname.clone(),
                                        fname.to_string(),
                                        pat,
                                        rel.to_string(),
                                        idx + 1,
                                    ));
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
        for c in code.chars() {
            match c {
                '{' => stack.push(pending.take().unwrap_or(Region::Plain)),
                '}' => {
                    stack.pop();
                    if let Some((_, depth)) = &in_struct {
                        if stack.len() <= *depth {
                            in_struct = None;
                        }
                    }
                }
                _ => {}
            }
        }
        if pending.is_some() && trimmed.ends_with(';') {
            pending = None;
        }
    }
}

/// Flags shared-mutable fields of Filter-implementing types that are not
/// registered in the repo-root `racecheck.allow` inventory — and, the
/// other way round, registry entries naming no such field (a field that
/// was removed or renamed leaves a stale audit claim behind).
fn check_shared_mut_escape(
    inv: &SharedMutInventory,
    race_allow: &[(String, usize)],
    out: &mut Vec<Violation>,
) {
    let mut used = vec![false; race_allow.len()];
    for (ty, field, pat, path, line) in &inv.fields {
        if !inv.filter_types.iter().any(|t| t == ty) {
            continue;
        }
        let key = format!("{ty}::{field}");
        let mut registered = false;
        for ((e, _), u) in race_allow.iter().zip(used.iter_mut()) {
            if e == &key {
                *u = true;
                registered = true;
            }
        }
        if !registered {
            out.push(Violation {
                rule: "shared-mut-escape",
                path: path.clone(),
                line: *line,
                message: format!(
                    "Filter type field `{key}` holds shared-mutable state ({pat}…) \
                     but is not registered in racecheck.allow — audit the access \
                     pattern and add it, or remove the sharing"
                ),
            });
        }
    }
    for ((e, line), u) in race_allow.iter().zip(used.iter()) {
        if !u {
            out.push(Violation {
                rule: "stale-allow",
                path: "racecheck.allow".to_string(),
                line: *line,
                message: format!(
                    "racecheck entry `{e}` names no shared-mutable Filter field — \
                     remove it (the field was removed, renamed, or de-shared)"
                ),
            });
        }
    }
}

/// Where the central metric/span name registry lives.
const NAME_REGISTRY_PATH: &str = "crates/obs/src/names.rs";

/// The registered telemetry names, loaded from [`NAME_REGISTRY_PATH`].
struct NameRegistry {
    /// Exact names from `COUNTERS`/`GAUGES`/`HISTOGRAMS`/`SPANS`.
    names: Vec<String>,
    /// `DYNAMIC_PREFIXES` entries, matched by prefix.
    prefixes: Vec<String>,
}

impl NameRegistry {
    fn covers(&self, name: &str) -> bool {
        self.names.iter().any(|n| n == name) || self.prefixes.iter().any(|p| name.starts_with(p))
    }
}

fn load_name_registry(root: &Path, out: &mut Vec<Violation>) -> Option<NameRegistry> {
    let Ok(text) = fs::read_to_string(root.join(NAME_REGISTRY_PATH)) else {
        out.push(Violation {
            rule: "metric-names",
            path: NAME_REGISTRY_PATH.to_string(),
            line: 1,
            message: "cannot read the telemetry name registry".to_string(),
        });
        return None;
    };
    let mut names = Vec::new();
    for marker in [
        "const COUNTERS",
        "const GAUGES",
        "const HISTOGRAMS",
        "const SPANS",
    ] {
        names.extend(const_strings(&text, marker));
    }
    let prefixes = const_strings(&text, "const DYNAMIC_PREFIXES");
    if names.is_empty() {
        out.push(Violation {
            rule: "metric-names",
            path: NAME_REGISTRY_PATH.to_string(),
            line: 1,
            message: "the telemetry name registry declares no names".to_string(),
        });
        return None;
    }
    Some(NameRegistry { names, prefixes })
}

/// The string literals inside the bracketed initializer of the const
/// whose declaration contains `marker`.
fn const_strings(text: &str, marker: &str) -> Vec<String> {
    let Some(start) = text.find(marker) else {
        return Vec::new();
    };
    let slice = &text[start..];
    let end = slice.find("];").map(|e| e + 1).unwrap_or(slice.len());
    quoted_strings(&slice[..end])
}

/// Every `"…"` literal in `text`, contents unescaped enough for plain
/// metric names (which never contain escapes).
fn quoted_strings(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(open) = rest.find('"') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('"') else { break };
        out.push(after[..close].to_string());
        rest = &after[close + 1..];
    }
    out
}

/// Drops a trailing `//` comment but keeps string-literal contents, so
/// metric names survive for extraction while commented-out code does not.
fn cut_comment(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            if c == '\\' {
                out.push(c);
                if let Some(next) = chars.next() {
                    out.push(next);
                }
                continue;
            }
            if c == '"' {
                in_str = false;
            }
            out.push(c);
            continue;
        }
        match c {
            '/' if chars.peek() == Some(&'/') => break,
            '"' => {
                in_str = true;
                out.push(c);
            }
            _ => out.push(c),
        }
    }
    out
}

/// The instrument-call patterns whose literal first argument must be a
/// registered name.
const NAME_CALL_PATTERNS: [&str; 4] = [".counter(\"", ".gauge(\"", ".histogram(\"", ".span(\""];

/// Flags literal instrument names absent from the central registry.
/// Test code is exempt: `#[cfg(test)]` regions and `tests/` directories
/// invent throwaway names freely.
fn check_metric_names(rel: &str, text: &str, reg: &NameRegistry, out: &mut Vec<Violation>) {
    if rel.contains("/tests/") || rel == NAME_REGISTRY_PATH {
        return;
    }
    let mut stack: Vec<Region> = Vec::new();
    let mut pending: Option<Region> = None;
    for (idx, raw) in text.lines().enumerate() {
        let stripped = strip_code(raw);
        let trimmed = stripped.trim();
        if trimmed.contains("#[cfg(test)]") {
            pending = Some(Region::Test);
        }
        if !stack.contains(&Region::Test) {
            let code = cut_comment(raw);
            for pat in NAME_CALL_PATTERNS {
                let mut search = code.as_str();
                while let Some(pos) = search.find(pat) {
                    let arg = &search[pos + pat.len()..];
                    let Some(close) = arg.find('"') else { break };
                    let name = &arg[..close];
                    if !reg.covers(name) {
                        out.push(Violation {
                            rule: "metric-names",
                            path: rel.to_string(),
                            line: idx + 1,
                            message: format!(
                                "telemetry name {name:?} is not in {NAME_REGISTRY_PATH} — \
                                 register it there or fix the typo"
                            ),
                        });
                    }
                    search = &arg[close + 1..];
                }
            }
        }
        for c in stripped.chars() {
            match c {
                '{' => stack.push(pending.take().unwrap_or(Region::Plain)),
                '}' => {
                    stack.pop();
                }
                _ => {}
            }
        }
        if pending.is_some() && trimmed.ends_with(';') {
            pending = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_removes_comments_and_string_contents() {
        assert_eq!(strip_code("let x = 1; // .unwrap()"), "let x = 1; ");
        assert_eq!(strip_code(r#"let s = ".unwrap() {";"#), r#"let s = "";"#);
        assert_eq!(strip_code("let c = '{';"), "let c = ;");
        assert_eq!(
            strip_code("fn f<'a>(x: &'a str) {}"),
            "fn f<'a>(x: &'a str) {}"
        );
    }

    #[test]
    fn filter_unwrap_flags_only_filter_impls() {
        let src = r#"
impl Filter for Producer {
    fn process(&mut self) {
        self.x.lock().unwrap();
    }
}
impl Other {
    fn helper(&self) {
        self.x.lock().unwrap();
    }
}
"#;
        let mut v = Vec::new();
        check_filter_unwrap("crates/demo/src/lib.rs", src, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 4);
        assert_eq!(v[0].rule, "filter-unwrap");
    }

    #[test]
    fn filter_unwrap_skips_cfg_test_regions() {
        let src = r#"
#[cfg(test)]
mod tests {
    impl Filter for TestFilter {
        fn process(&mut self) {
            self.x.lock().unwrap();
        }
    }
}
"#;
        let mut v = Vec::new();
        check_filter_unwrap("crates/demo/src/lib.rs", src, &mut v);
        assert!(
            v.is_empty(),
            "{:?}",
            v.iter().map(|v| v.line).collect::<Vec<_>>()
        );
    }

    #[test]
    fn untimed_recv_is_scoped_and_file_level() {
        let bad = "fn f() { port.recv(); }\n";
        let good = "fn f() { g.stream_timeout(t); port.recv(); }\n";
        let mut v = Vec::new();
        check_untimed_recv("crates/core/src/x.rs", bad, &mut v);
        assert_eq!(v.len(), 1);
        v.clear();
        check_untimed_recv("crates/core/src/x.rs", good, &mut v);
        assert!(v.is_empty());
        // Outside those directories the rule does not apply.
        check_untimed_recv("crates/datacutter/src/x.rs", bad, &mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn wire_alloc_flags_unclamped_wire_lengths() {
        let bad = r#"
fn read(r: &mut impl Read) {
    let len = u32::from_le_bytes(hdr) as usize;
    let mut body = vec![0u8; len];
}
"#;
        let mut v = Vec::new();
        check_wire_alloc("crates/net/src/wire.rs", bad, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "wire-alloc");
        assert!(v[0].message.contains("len"));
        // The same file outside the network scope is not checked.
        v.clear();
        check_wire_alloc("crates/core/src/bfs.rs", bad, &mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn wire_alloc_accepts_clamped_lengths_and_untainted_sizes() {
        let clamped = r#"
fn read(r: &mut impl Read) {
    let len = u32::from_le_bytes(hdr) as usize;
    if len > MAX_PAYLOAD {
        return Err(too_big());
    }
    let mut body = Vec::with_capacity(len);
}
"#;
        let mut v = Vec::new();
        check_wire_alloc("crates/net/src/wire.rs", clamped, &mut v);
        assert!(v.is_empty(), "clamped length still flagged");

        // A size that never came off the wire is not the rule's business,
        // even in a file that decodes wire integers elsewhere.
        let local = r#"
fn setup(n: usize) {
    let tag = u64::from_le_bytes(hdr);
    let routes = vec![None; n];
}
"#;
        check_wire_alloc("crates/net/src/tcp.rs", local, &mut v);
        assert!(v.is_empty(), "untainted size flagged");
    }

    #[test]
    fn metric_names_flags_unregistered_literals_outside_tests() {
        let reg = NameRegistry {
            names: vec!["net.bytes".into(), "ingest.window".into()],
            prefixes: vec!["dc.queue_depth.".into()],
        };
        let src = r#"
fn work(t: &Telemetry) {
    t.metrics.counter("net.bytes").inc();
    t.metrics.counter("net.bytez").inc();
    t.metrics.histogram("dc.queue_depth.store.edges").record(1);
    let _g = t.tracer.span("ingest.window");
    // t.metrics.counter("commented.out").inc();
}
#[cfg(test)]
mod tests {
    fn t(t: &Telemetry) {
        t.metrics.counter("throwaway.name").inc();
    }
}
"#;
        let mut v = Vec::new();
        check_metric_names("crates/demo/src/lib.rs", src, &reg, &mut v);
        assert_eq!(
            v.len(),
            1,
            "{:?}",
            v.iter().map(|v| v.line).collect::<Vec<_>>()
        );
        assert_eq!(v[0].line, 4);
        assert!(v[0].message.contains("net.bytez"));
        // Integration tests are exempt wholesale.
        v.clear();
        check_metric_names("crates/demo/tests/x.rs", src, &reg, &mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn const_strings_reads_one_registry_list_at_a_time() {
        let src = r#"
pub const COUNTERS: &[&str] = &["a.b", "c.d"];
pub const SPANS: &[&str] = &["e.f"];
"#;
        assert_eq!(const_strings(src, "const COUNTERS"), ["a.b", "c.d"]);
        assert_eq!(const_strings(src, "const SPANS"), ["e.f"]);
        assert!(const_strings(src, "const GAUGES").is_empty());
    }

    #[test]
    fn allowlist_entries_match_rule_path_and_message() {
        let entries = load_allowlist_from(
            "# comment\nfilter-unwrap crates/demo lock\nuntimed-recv crates/core\n",
        )
        .expect("well-formed allowlist");
        let v = Violation {
            rule: "filter-unwrap",
            path: "crates/demo/src/lib.rs".into(),
            line: 3,
            message: "`.unwrap()…` lock poisoned".into(),
        };
        assert!(entries[0].matches(&v));
        assert!(!entries[1].matches(&v));
        assert_eq!(entries[0].line, 2, "stale reports need the source line");
    }

    #[test]
    fn malformed_allowlist_lines_are_hard_errors() {
        let err = load_allowlist_from("just-a-rule-no-path\n").unwrap_err();
        assert!(err.contains("malformed allowlist entry"), "{err}");
        assert!(err.contains(":1:"), "error must carry the line: {err}");
    }

    fn load_allowlist_from(text: &str) -> Result<Vec<AllowEntry>, String> {
        // One directory per call: tests run in parallel, and a shared one
        // is removed under a sibling test's feet.
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!("xtask-allow-{}-{call}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lint.allow");
        fs::write(&path, text).unwrap();
        let entries = load_allowlist(&path);
        let _ = fs::remove_dir_all(&dir);
        entries
    }

    #[test]
    fn racecheck_allow_accepts_type_field_and_rejects_junk() {
        let dir = std::env::temp_dir().join(format!("xtask-race-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("racecheck.allow");
        fs::write(&path, "# audited\nCcFilter::backend\n").unwrap();
        assert_eq!(
            load_racecheck_allow(&path).unwrap(),
            [("CcFilter::backend".to_string(), 2)]
        );
        fs::write(&path, "CcFilter.backend\n").unwrap();
        let err = load_racecheck_allow(&path).unwrap_err();
        assert!(err.contains("malformed racecheck entry"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clock_order_wants_a_racecheck_justification() {
        let bad = "fn f(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        let mut v = Vec::new();
        check_clock_order("crates/obs/src/metrics.rs", bad, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "clock-order");
        assert_eq!(v[0].line, 2);

        let justified = "fn f(c: &AtomicU64) {\n    \
                         // racecheck: monotonic counter, read only for display\n    \
                         c.fetch_add(1, Ordering::Relaxed);\n}\n";
        v.clear();
        check_clock_order("crates/obs/src/metrics.rs", justified, &mut v);
        assert!(v.is_empty(), "justified Relaxed still flagged");

        // Test code and integration tests invent counters freely.
        let test_region = "#[cfg(test)]\nmod tests {\n    fn f(c: &AtomicU64) {\n        \
                           c.fetch_add(1, Ordering::Relaxed);\n    }\n}\n";
        v.clear();
        check_clock_order("crates/obs/src/metrics.rs", test_region, &mut v);
        assert!(v.is_empty(), "cfg(test) Relaxed flagged");
        check_clock_order("crates/obs/tests/x.rs", bad, &mut v);
        assert!(v.is_empty(), "tests/ Relaxed flagged");
    }

    #[test]
    fn gid_hash_flags_default_hashers_on_vertex_keys() {
        let bad = r#"
use std::collections::{HashMap, HashSet};
struct Db {
    adj: HashMap<Gid, Vec<(Gid, u32)>>,
    seen: HashSet<Gid>,
}
#[cfg(test)]
mod tests {
    fn model() -> HashSet<Gid> { HashSet::new() }
}
"#;
        let mut v = Vec::new();
        check_gid_hash("crates/graphdb/src/hashmap.rs", bad, &mut v);
        assert_eq!(
            v.iter().map(|v| v.line).collect::<Vec<_>>(),
            [4, 5],
            "{:?}",
            v.iter().map(|v| &v.message).collect::<Vec<_>>()
        );
        assert!(v.iter().all(|v| v.rule == "gid-hash"));
        assert!(v[0].message.contains("GidMap") && v[1].message.contains("GidSet"));
        // Out of scope: request-keyed tables elsewhere keep SipHash.
        v.clear();
        check_gid_hash("crates/serve/src/cache.rs", bad, &mut v);
        check_gid_hash("crates/core/tests/fault_props.rs", bad, &mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn gid_hash_accepts_the_aliases_named_hashers_and_other_keys() {
        let good = r#"
struct Db {
    adj: GidMap<Vec<Gid>>,
    seen: GidSet,
    explicit: HashMap<Gid, u32, BuildHasherDefault<GidHasher>>,
    explicit_set: HashSet<Gid, BuildHasherDefault<GidHasher>>,
    sizes: HashMap<u64, u64>,
    by_name: HashMap<String, Gid>,
}
"#;
        let mut v = Vec::new();
        check_gid_hash("crates/core/src/bfs.rs", good, &mut v);
        assert!(
            v.is_empty(),
            "{:?}",
            v.iter().map(|v| (v.line, &v.message)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn shared_mut_escape_flags_unregistered_filter_fields() {
        let src = r#"
pub struct CcFilter {
    outcome: Arc<Mutex<Option<u64>>>,
    backend: SharedBackend,
    scratch: Vec<u64>,
}
impl Filter for CcFilter {
    fn process(&mut self) {}
}
struct Helper {
    cache: Arc<Mutex<Vec<u8>>>,
}
"#;
        let mut inv = SharedMutInventory::default();
        collect_shared_mut("crates/core/src/cluster.rs", src, &mut inv);
        assert_eq!(inv.filter_types, ["CcFilter"]);
        assert_eq!(inv.fields.len(), 3, "{:?}", inv.fields);

        let mut v = Vec::new();
        check_shared_mut_escape(&inv, &[("CcFilter::outcome".to_string(), 3)], &mut v);
        // `backend` is unregistered; Helper implements no Filter.
        assert_eq!(
            v.len(),
            1,
            "{:?}",
            v.iter().map(|v| &v.message).collect::<Vec<_>>()
        );
        assert_eq!(v[0].rule, "shared-mut-escape");
        assert!(v[0].message.contains("CcFilter::backend"));
    }

    #[test]
    fn racecheck_entries_without_a_field_are_stale() {
        let inv = SharedMutInventory::default();
        let mut v = Vec::new();
        check_shared_mut_escape(&inv, &[("Ghost::field".to_string(), 7)], &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "stale-allow");
        assert_eq!((v[0].path.as_str(), v[0].line), ("racecheck.allow", 7));
        assert!(v[0].message.contains("Ghost::field"), "{}", v[0].message);
    }

    #[test]
    fn shared_mut_ignores_test_regions_and_plain_fields() {
        let src = "#[cfg(test)]\nmod tests {\n    struct TestFilter {\n        \
                   sink: Arc<Mutex<Vec<u64>>>,\n    }\n    impl Filter for TestFilter {\n        \
                   fn process(&mut self) {}\n    }\n}\n";
        let mut inv = SharedMutInventory::default();
        collect_shared_mut("crates/core/src/x.rs", src, &mut inv);
        assert!(inv.filter_types.is_empty() && inv.fields.is_empty());
    }
}
