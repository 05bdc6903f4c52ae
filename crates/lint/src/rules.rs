//! The project rule table and the per-file checking engine.
//!
//! Every rule is data: an entry in [`RULES`] (id + summary + `--explain`
//! text) plus scope/allowlist configuration from `crates/lint/lint.toml`
//! ([`RuleSet`]).  Rules operate on the annotated token stream produced by
//! [`crate::lexer`], so comments, string literals, doc-tests, and
//! `#[cfg(test)]` regions never produce false positives.

use crate::config::Manifest;
use crate::lexer::{Tok, TokKind};

/// One reported rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Rule identifier (`no-unwrap`, …).
    pub rule: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Static documentation for one rule; `--explain <id>` prints `explain`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule identifier, also the `lint.toml` section name.
    pub id: &'static str,
    /// One-line summary for the rule table.
    pub summary: &'static str,
    /// Full `--explain` text: what, why, and how to request an exception.
    pub explain: &'static str,
}

/// The rule reference.  `--explain <rule-id>` prints the long text.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "no-map-in-hot-path",
        summary: "no HashMap/BTreeMap/HashSet in hot-path modules",
        explain: "Hot-path modules (the scheduler round loop and the queue/ledger/candidate \
                  index it reads) must not use std map/set collections: HashMap iteration \
                  order is nondeterministic across runs, which silently breaks the \
                  byte-identical replay the differential proptests and the perf gate depend \
                  on, and tree/hash nodes allocate on churn, which defeats the zero-allocation \
                  replay gate.  Use dense slices, sorted vectors, or the direct-mapped \
                  structures already in crates/ssd/src/{cand,queue}.rs.  The hot-path file \
                  list and per-file allowlist live in [no-map-in-hot-path] in \
                  crates/lint/lint.toml; request an exception by adding an `allow =` entry \
                  with a justification comment in the same change.",
    },
    RuleInfo {
        id: "no-wall-clock",
        summary: "no Instant/SystemTime/thread::sleep/rand in simulation crates",
        explain: "The simulation crates (sim, flash, ssd, core, array, workloads) must be \
                  fully deterministic: time comes from SimTime, randomness from the seeded \
                  sprinkler_sim::rng.  A single wall-clock read or ambient-RNG call makes \
                  replay nondeterministic long before any test notices — the regen_baselines \
                  --check gate requires byte-identical metrics.  Experiment binaries \
                  (crates/experiments/src/bin) are exempt: they *measure* wall time on \
                  purpose.  Scope is the [no-wall-clock] `dir =` list in lint.toml.",
    },
    RuleInfo {
        id: "unsafe-allowlist",
        summary: "unsafe code only in allowlisted files",
        explain: "Unsafe code is confined to an explicit allowlist — today only \
                  crates/sim/src/telemetry.rs, whose CountingAllocator must implement the \
                  inherently-unsafe GlobalAlloc trait.  Everywhere else the workspace is \
                  #![forbid(unsafe)]-by-convention; this rule makes the convention a CI \
                  failure.  The rule applies to test code too.  To add a file, add an \
                  `allow =` entry under [unsafe-allowlist] with a comment explaining why \
                  safe Rust cannot express the construct.",
    },
    RuleInfo {
        id: "no-unwrap",
        summary: "no .unwrap()/.expect() in library code outside tests",
        explain: "Library crates must not panic on recoverable states: propagate Result, \
                  use unwrap_or_else/total_cmp, or restructure so the state is \
                  unrepresentable.  #[cfg(test)] regions and doc-tests are exempt.  There is \
                  no allowlist: every .unwrap()/.expect( in library code outside tests is a \
                  violation.  An internal invariant that cannot fail is a debug_assert!, \
                  checked by every debug-build replay in the test suite.  Scope is the \
                  [library] `dir =` list in lint.toml.",
    },
    RuleInfo {
        id: "relaxed-telemetry",
        summary: "telemetry atomics must use Ordering::Relaxed",
        explain: "TelemetryCounters are always-on hot-path counters; they are documented as \
                  relaxed because no cross-thread ordering is derived from them (each run's \
                  counters are owned by one simulation thread and snapshotted at finalize). \
                  A stronger ordering (SeqCst/Acquire/Release/AcqRel) in telemetry code \
                  would both cost hot-path cycles and suggest a synchronization dependency \
                  that must not exist.  Scope is the [relaxed-telemetry] `file =` list.",
    },
    RuleInfo {
        id: "no-float-eq",
        summary: "no float == / != comparisons in library code",
        explain: "Exact float equality is a determinism and portability hazard: derived \
                  metrics must be compared through integer counters, bit patterns, or \
                  explicit tolerances.  Detection is token-level — a comparison where \
                  either operand is a float literal (1.0, 1e-9, 2f64).  Comparisons of \
                  float-typed variables are left to clippy::float_cmp semantics; this rule \
                  catches the textual pattern that survives review most often.  Test code \
                  is exempt (tests pin exact replay figures on purpose).",
    },
    RuleInfo {
        id: "no-print",
        summary: "no println!/eprintln!/dbg! in library crates",
        explain: "Library crates return data; binaries and experiments print.  A stray \
                  println! in a library hot path is an allocation, a syscall, and interleaved \
                  garbage when array replay runs device threads concurrently.  Report \
                  through RunMetrics/TelemetryCounters instead.  Scope: the [library] `dir =` \
                  list; test regions are exempt.  The CI clippy deny set \
                  (clippy::print_stdout/print_stderr/dbg_macro) enforces the same rule at \
                  type level for the library crates.",
    },
    RuleInfo {
        id: "no-hot-alloc",
        summary: "no allocating calls in `// lint: hot-path` tagged functions",
        explain: "The steady-state replay loop is proven allocation-free dynamically by the \
                  CountingAllocator gate (tests/zero_alloc.rs); this rule mirrors that gate \
                  statically.  Functions tagged with a `// lint: hot-path` comment (and any \
                  whole files under [no-hot-alloc] `file =`) must not contain Vec::new, \
                  vec![, Box::new, .to_vec(, .collect(, or .clone( — reuse pooled buffers \
                  (the queue's slot-kept tag states, the one arena of in-flight memory-request \
                  records) or preallocate in constructors.  Push/insert into retained-capacity \
                  buffers is allowed: capacity sticks at the high-water mark.",
    },
];

/// Looks up a rule's documentation by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Parsed, validated rule configuration (scopes + allowlists).
#[derive(Debug, Default, Clone)]
pub struct RuleSet {
    /// Path prefixes excluded from the scan entirely (`vendor`, `target`).
    pub exclude: Vec<String>,
    /// Library-code scope: rules `no-unwrap`, `no-float-eq`, `no-print`.
    pub library_dirs: Vec<String>,
    /// Determinism scope: rule `no-wall-clock`.
    pub deterministic_dirs: Vec<String>,
    /// Hot-path modules: rule `no-map-in-hot-path`.
    pub hot_path_files: Vec<String>,
    /// Files allowed to use map/set collections despite being hot-path.
    pub map_allow: Vec<String>,
    /// Files allowed to contain `unsafe`.
    pub unsafe_allow: Vec<String>,
    /// Telemetry files: rule `relaxed-telemetry`.
    pub telemetry_files: Vec<String>,
    /// Whole files checked by `no-hot-alloc` (tagged functions always are).
    pub hot_alloc_files: Vec<String>,
}

impl RuleSet {
    /// Builds the rule set from a parsed manifest, rejecting sections that
    /// don't correspond to a known rule or scope (typos must not silently
    /// disable a rule).
    pub fn from_manifest(manifest: &Manifest) -> Result<RuleSet, String> {
        for name in manifest.section_names() {
            let known = name == "scan"
                || name == "library"
                || name == "deterministic"
                || rule_info(name).is_some();
            if !known {
                return Err(format!(
                    "lint.toml: unknown section [{name}] — not a rule id or scope"
                ));
            }
        }
        Ok(RuleSet {
            exclude: manifest.values("scan", "exclude"),
            library_dirs: manifest.values("library", "dir"),
            deterministic_dirs: manifest.values("deterministic", "dir"),
            hot_path_files: manifest.values("no-map-in-hot-path", "file"),
            map_allow: manifest.values("no-map-in-hot-path", "allow"),
            unsafe_allow: manifest.values("unsafe-allowlist", "allow"),
            telemetry_files: manifest.values("relaxed-telemetry", "file"),
            hot_alloc_files: manifest.values("no-hot-alloc", "file"),
        })
    }

    /// Whether `path` (workspace-relative, `/`-separated) is excluded from
    /// the scan.
    pub fn is_excluded(&self, path: &str) -> bool {
        in_dirs(path, &self.exclude)
    }
}

fn in_dirs(path: &str, dirs: &[String]) -> bool {
    dirs.iter()
        .any(|dir| path == dir || path.starts_with(&format!("{dir}/")))
}

fn in_files(path: &str, files: &[String]) -> bool {
    files.iter().any(|file| file == path)
}

/// Lints one file's source against every applicable rule.  `path` must be
/// workspace-relative with `/` separators (it is matched against the config
/// scopes verbatim).
pub fn lint_source(path: &str, src: &str, cfg: &RuleSet) -> Vec<Violation> {
    let toks = crate::lexer::lex(src);
    let mut out = Vec::new();
    if in_files(path, &cfg.hot_path_files) && !in_files(path, &cfg.map_allow) {
        no_map_in_hot_path(path, &toks, &mut out);
    }
    if in_dirs(path, &cfg.deterministic_dirs) {
        no_wall_clock(path, &toks, &mut out);
    }
    if !in_files(path, &cfg.unsafe_allow) {
        unsafe_allowlist(path, &toks, &mut out);
    }
    if in_dirs(path, &cfg.library_dirs) {
        no_unwrap(path, &toks, &mut out);
        no_float_eq(path, &toks, &mut out);
        no_print(path, &toks, &mut out);
    }
    if in_files(path, &cfg.telemetry_files) {
        relaxed_telemetry(path, &toks, &mut out);
    }
    no_hot_alloc(path, &toks, in_files(path, &cfg.hot_alloc_files), &mut out);
    out.sort_by_key(|v| (v.line, v.rule));
    out
}

fn violation(path: &str, line: u32, rule: &'static str, message: String) -> Violation {
    Violation {
        file: path.to_string(),
        line,
        rule,
        message,
    }
}

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

fn punct_at(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
}

fn no_map_in_hot_path(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    for t in toks {
        if t.kind == TokKind::Ident
            && !t.in_test
            && matches!(t.text.as_str(), "HashMap" | "BTreeMap" | "HashSet")
        {
            out.push(violation(
                path,
                t.line,
                "no-map-in-hot-path",
                format!(
                    "`{}` in a hot-path module: iteration order/allocation churn break \
                     deterministic zero-alloc replay (use dense slices or sorted vecs)",
                    t.text
                ),
            ));
        }
    }
}

fn no_wall_clock(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.in_test {
            continue;
        }
        let flagged = match t.text.as_str() {
            "Instant" | "SystemTime" => Some(format!(
                "`{}` in a deterministic simulation crate: time must come from SimTime",
                t.text
            )),
            "sleep"
                if punct_at(toks, i.wrapping_sub(1), "::")
                    && ident_at(toks, i.wrapping_sub(2)) == Some("thread") =>
            {
                Some("`thread::sleep` in a deterministic simulation crate".to_string())
            }
            "rand" if punct_at(toks, i + 1, "::") => Some(
                "`rand::` path in a deterministic simulation crate: use the seeded \
                 sprinkler_sim::rng"
                    .to_string(),
            ),
            _ => None,
        };
        if let Some(message) = flagged {
            out.push(violation(path, t.line, "no-wall-clock", message));
        }
    }
}

fn unsafe_allowlist(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    for t in toks {
        if t.kind == TokKind::Ident && t.text == "unsafe" {
            out.push(violation(
                path,
                t.line,
                "unsafe-allowlist",
                "`unsafe` outside the allowlist (see [unsafe-allowlist] in lint.toml)".to_string(),
            ));
        }
    }
}

fn no_unwrap(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && !t.in_test
            && (t.text == "unwrap" || t.text == "expect")
            && punct_at(toks, i.wrapping_sub(1), ".")
            && punct_at(toks, i + 1, "(")
        {
            out.push(violation(
                path,
                t.line,
                "no-unwrap",
                format!(
                    "`.{}()` in library code: propagate Result or restructure",
                    t.text
                ),
            ));
        }
    }
}

fn relaxed_telemetry(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    for t in toks {
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "SeqCst" | "Acquire" | "Release" | "AcqRel")
        {
            out.push(violation(
                path,
                t.line,
                "relaxed-telemetry",
                format!(
                    "`Ordering::{}` in telemetry code: counters are documented relaxed — \
                     no cross-thread ordering may be derived from them",
                    t.text
                ),
            ));
        }
    }
}

fn no_float_eq(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Punct
            && (t.text == "==" || t.text == "!=")
            && !t.in_test
            && (toks
                .get(i.wrapping_sub(1))
                .is_some_and(|p| p.kind == TokKind::Float)
                || toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Float))
        {
            out.push(violation(
                path,
                t.line,
                "no-float-eq",
                format!(
                    "float `{}` comparison in library code: compare integer counters, \
                     bit patterns, or use an explicit tolerance",
                    t.text
                ),
            ));
        }
    }
}

fn no_print(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && !t.in_test
            && matches!(
                t.text.as_str(),
                "println" | "eprintln" | "print" | "eprint" | "dbg"
            )
            && punct_at(toks, i + 1, "!")
        {
            out.push(violation(
                path,
                t.line,
                "no-print",
                format!(
                    "`{}!` in a library crate: report through RunMetrics/telemetry; \
                     printing belongs to binaries and experiments",
                    t.text
                ),
            ));
        }
    }
}

/// Whether the `Vec`/`Box` ident at `i` is followed by `::new`, allowing an
/// optional turbofish (`Vec::<u8>::new`).
fn path_calls_new(toks: &[Tok], i: usize) -> bool {
    if !punct_at(toks, i + 1, "::") {
        return false;
    }
    let mut j = i + 2;
    if punct_at(toks, j, "<") {
        let mut depth = 1usize;
        j += 1;
        while depth > 0 {
            if punct_at(toks, j, "<") {
                depth += 1;
            } else if punct_at(toks, j, ">") {
                depth -= 1;
            } else if j >= toks.len() {
                return false;
            }
            j += 1;
        }
        if !punct_at(toks, j, "::") {
            return false;
        }
        j += 1;
    }
    ident_at(toks, j) == Some("new")
}

fn no_hot_alloc(path: &str, toks: &[Tok], whole_file: bool, out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        let active = t.in_hot || (whole_file && !t.in_test);
        if !active || t.kind != TokKind::Ident {
            continue;
        }
        let flagged = match t.text.as_str() {
            "Vec" | "Box" if path_calls_new(toks, i) => Some(format!("`{}::new`", t.text)),
            "vec" if punct_at(toks, i + 1, "!") => Some("`vec![`".to_string()),
            "to_vec" | "collect" | "clone"
                if punct_at(toks, i.wrapping_sub(1), ".")
                    && (punct_at(toks, i + 1, "(") || punct_at(toks, i + 1, "::")) =>
            {
                Some(format!("`.{}(`", t.text))
            }
            _ => None,
        };
        if let Some(what) = flagged {
            out.push(violation(
                path,
                t.line,
                "no-hot-alloc",
                format!(
                    "{what} inside a `lint: hot-path` region: the zero-allocation replay \
                     gate forbids steady-state allocation — reuse pooled/retained buffers"
                ),
            ));
        }
    }
}
