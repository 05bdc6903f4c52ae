//! `sprinkler_lint` — the workspace invariant linter.
//!
//! The simulator's correctness story rests on invariants the compiler cannot
//! see: byte-identical deterministic replay, a zero-allocation steady-state
//! loop, dense-handle (no `HashMap`) discipline in the scheduler core, and
//! `unsafe` confined to the counting allocator.  This crate enforces them
//! statically with a hand-rolled token-level lexer ([`lexer`]) and a table of
//! rules-as-data ([`rules::RULES`]) configured by `crates/lint/lint.toml`
//! ([`config`]).  Deliberately dependency-free: it builds offline, before
//! anything else, and can never be broken by the code it polices.
//!
//! # Example
//!
//! Lint one source string against a manifest that puts it in the
//! deterministic scope:
//!
//! ```
//! use sprinkler_lint::{config::Manifest, rules::{lint_source, RuleSet}};
//!
//! let manifest = Manifest::parse("[deterministic]\ndir = crates/sim/src\n")
//!     .expect("valid manifest");
//! let rules = RuleSet::from_manifest(&manifest).expect("valid rules");
//! // A wall-clock read inside a deterministic dir is the canonical violation.
//! let violations = lint_source(
//!     "crates/sim/src/demo.rs",
//!     "fn now() { let _ = std::time::Instant::now(); }",
//!     &rules,
//! );
//! assert!(violations.iter().any(|v| v.rule == "no-wall-clock"));
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod rules;

pub use config::Manifest;
pub use rules::{lint_source, rule_info, RuleInfo, RuleSet, Violation, RULES};

use std::path::{Path, PathBuf};

/// Collects every workspace `.rs` file under `root`, as sorted
/// workspace-relative `/`-separated paths, honouring the `[scan] exclude`
/// prefixes and skipping hidden directories.
pub fn workspace_files(root: &Path, cfg: &RuleSet) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    walk(root, root, cfg, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, cfg: &RuleSet, out: &mut Vec<String>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let Some(rel) = relative(root, &path) else {
            continue;
        };
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || cfg.is_excluded(&rel) {
            continue;
        }
        let kind = entry
            .file_type()
            .map_err(|e| format!("file_type {}: {e}", path.display()))?;
        if kind.is_dir() {
            walk(root, &path, cfg, out)?;
        } else if kind.is_file() && name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> Option<String> {
    let rel = path.strip_prefix(root).ok()?;
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    Some(parts.join("/"))
}

/// Lints the whole workspace rooted at `root`: reads every file from
/// [`workspace_files`] and returns all violations in path order.
pub fn lint_workspace(root: &Path, cfg: &RuleSet) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    for rel in workspace_files(root, cfg)? {
        let full: PathBuf = root.join(rel.split('/').collect::<PathBuf>());
        let src =
            std::fs::read_to_string(&full).map_err(|e| format!("read {}: {e}", full.display()))?;
        violations.extend(lint_source(&rel, &src, cfg));
    }
    Ok(violations)
}

// ---------------------------------------------------------------------------
// Self-tests: the lexer + every rule against embedded positive/negative
// fixture snippets, so the linter itself cannot silently rot.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// A `RuleSet` whose scopes all contain the fixture path `fix.rs`.
    fn fixture_cfg() -> RuleSet {
        let manifest = Manifest::parse(
            "[scan]\n\
             exclude = vendor\n\
             [library]\n\
             dir = .\n\
             [deterministic]\n\
             dir = .\n\
             [no-map-in-hot-path]\n\
             file = ./fix.rs\n\
             [relaxed-telemetry]\n\
             file = ./fix.rs\n",
        )
        .unwrap();
        RuleSet::from_manifest(&manifest).unwrap()
    }

    fn run(src: &str) -> Vec<Violation> {
        lint_source("./fix.rs", src, &fixture_cfg())
    }

    fn rules_hit(src: &str) -> Vec<&'static str> {
        run(src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn clean_fixture_passes_every_rule() {
        let src = "pub fn add(a: u64, b: u64) -> u64 { a + b }\n";
        assert_eq!(run(src), Vec::new());
    }

    #[test]
    fn hashmap_in_hot_path_is_flagged_with_location() {
        let src = "use std::collections::HashMap;\nfn f() {}\n";
        let v = run(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-map-in-hot-path");
        assert_eq!(v[0].line, 1);
        assert_eq!(
            v[0].to_string().split(':').take(2).collect::<Vec<_>>(),
            ["./fix.rs", "1"]
        );
    }

    #[test]
    fn hashmap_inside_string_literal_or_comment_is_ignored() {
        let src = "// a HashMap would break replay\n\
                   /* BTreeMap too */\n\
                   fn f() -> &'static str { \"HashMap HashSet\" }\n";
        assert_eq!(run(src), Vec::new());
    }

    #[test]
    fn wall_clock_and_rand_are_flagged_only_outside_tests() {
        let src = "use std::time::Instant;\n\
                   fn f(d: std::time::Duration) { std::thread::sleep(d); }\n\
                   fn g() -> u64 { rand::random() }\n";
        assert_eq!(
            rules_hit(src),
            ["no-wall-clock", "no-wall-clock", "no-wall-clock"]
        );
        let test_src = "#[cfg(test)]\nmod t {\n    use std::time::Instant;\n}\n";
        assert_eq!(run(test_src), Vec::new());
    }

    #[test]
    fn unsafe_is_flagged_everywhere_except_comments_and_allowlist() {
        let src = "// unsafe in a comment is fine\nfn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        let v = run(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unsafe-allowlist");
        assert_eq!(v[0].line, 2);

        let manifest = Manifest::parse("[unsafe-allowlist]\nallow = ./fix.rs\n").unwrap();
        let cfg = RuleSet::from_manifest(&manifest).unwrap();
        assert!(lint_source("./fix.rs", src, &cfg)
            .iter()
            .all(|v| v.rule != "unsafe-allowlist"));
    }

    #[test]
    fn unsafe_in_test_code_is_still_flagged() {
        let src = "#[test]\nfn t() { let p = 0u8; let _ = unsafe { *(&p as *const u8) }; }\n";
        assert_eq!(rules_hit(src), ["unsafe-allowlist"]);
    }

    #[test]
    fn unwrap_is_flagged_outside_tests_and_exempt_inside() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   fn g(x: Option<u8>) -> u8 { x.expect(\"msg\") }\n\
                   #[cfg(test)]\nmod t {\n    fn h(x: Option<u8>) -> u8 { x.unwrap() }\n}\n\
                   #[test]\nfn u() { Some(1u8).unwrap(); }\n";
        let v = run(src);
        assert_eq!(
            v.iter().map(|v| (v.rule, v.line)).collect::<Vec<_>>(),
            [("no-unwrap", 1), ("no-unwrap", 2)]
        );
    }

    #[test]
    fn doc_comment_examples_are_exempt_from_unwrap() {
        let src = "/// ```\n/// let x = Some(1).unwrap();\n/// ```\nfn f() {}\n";
        assert_eq!(run(src), Vec::new());
    }

    #[test]
    fn non_relaxed_orderings_flagged_in_telemetry_scope() {
        let src = "fn f(c: &std::sync::atomic::AtomicU64) -> u64 {\n\
                   c.load(std::sync::atomic::Ordering::SeqCst)\n}\n";
        assert_eq!(rules_hit(src), ["relaxed-telemetry"]);
        let relaxed = "fn f(c: &std::sync::atomic::AtomicU64) -> u64 {\n\
                       c.load(std::sync::atomic::Ordering::Relaxed)\n}\n";
        assert_eq!(run(relaxed), Vec::new());
    }

    #[test]
    fn float_equality_is_flagged_ranges_and_methods_are_not() {
        let src = "fn f(x: f64) -> bool { x == 0.5 }\nfn g(x: f64) -> bool { 1e-9 != x }\n";
        assert_eq!(rules_hit(src), ["no-float-eq", "no-float-eq"]);
        let ok = "fn f(v: &[u64]) -> u64 { v[0..5].iter().sum::<u64>().max(1) }\n\
                  fn g(n: u64) -> bool { n == 5 }\n";
        assert_eq!(run(ok), Vec::new());
    }

    #[test]
    fn prints_flagged_in_library_scope_but_not_in_tests() {
        let src = "fn f() { println!(\"x\"); }\nfn g() { eprintln!(\"y\"); }\n\
                   #[test]\nfn t() { println!(\"fine\"); }\n";
        assert_eq!(rules_hit(src), ["no-print", "no-print"]);
    }

    #[test]
    fn hot_path_tagged_fn_rejects_allocations_untagged_does_not() {
        let src = "// lint: hot-path\n\
                   fn hot(&mut self) { self.buf = Vec::new(); }\n\
                   fn cold(&mut self) { self.buf = Vec::new(); }\n";
        let v = run(src);
        assert_eq!(
            v.iter().map(|v| (v.rule, v.line)).collect::<Vec<_>>(),
            [("no-hot-alloc", 2)]
        );
    }

    #[test]
    fn hot_path_catches_all_six_alloc_patterns() {
        let src = "// lint: hot-path\n\
                   fn hot(xs: &[u8]) {\n\
                   let a = vec![1u8];\n\
                   let b = Box::new(1u8);\n\
                   let c = xs.to_vec();\n\
                   let d: Vec<u8> = xs.iter().copied().collect();\n\
                   let e = c.clone();\n\
                   let f = Vec::<u8>::new();\n\
                   }\n";
        assert_eq!(run(src).len(), 6);
    }

    #[test]
    fn hot_path_region_ends_at_function_close() {
        let src = "// lint: hot-path\n\
                   fn hot(x: u64) -> u64 { x + 1 }\n\
                   fn after(xs: &[u8]) -> Vec<u8> { xs.to_vec() }\n";
        assert_eq!(run(src), Vec::new());
    }

    #[test]
    fn raw_strings_and_char_literals_do_not_confuse_the_lexer() {
        let src = "fn f() -> (char, &'static str, &'static str) {\n\
                   ('u', r\"unsafe HashMap\", r#\"x.unwrap()\"#)\n}\n";
        assert_eq!(run(src), Vec::new());
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "struct S<'a> { x: &'a [u8] }\nfn f<'b>(s: &'b S<'b>) -> &'b [u8] { s.x }\n";
        assert_eq!(run(src), Vec::new());
    }

    #[test]
    fn unknown_config_section_is_rejected() {
        let manifest = Manifest::parse("[no-unwrp]\nbudget = a.rs = 1\n").unwrap();
        let err = RuleSet::from_manifest(&manifest).unwrap_err();
        assert!(err.contains("no-unwrp"), "{err}");
    }

    #[test]
    fn every_rule_has_explain_text_and_unique_id() {
        let mut seen = std::collections::BTreeSet::new();
        for rule in RULES {
            assert!(seen.insert(rule.id), "duplicate rule id {}", rule.id);
            assert!(!rule.summary.is_empty());
            assert!(rule.explain.len() > 80, "{} explain too short", rule.id);
            assert!(rule_info(rule.id).is_some());
        }
        assert_eq!(RULES.len(), 8);
        assert!(rule_info("nonexistent-rule").is_none());
    }
}
