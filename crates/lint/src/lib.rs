//! **nvp-lint** — the workspace static-analysis pass.
//!
//! The repo's credibility rests on bit-exact, reconstructible artifacts;
//! this crate enforces the determinism discipline *statically*, before
//! any simulation runs. It is dependency-free by design (the build
//! environment is offline): a lightweight in-tree Rust tokenizer feeds
//! five token-level rules:
//!
//! | rule | flags |
//! |------|-------|
//! | `nondet-iter` | `HashMap` / `HashSet` (iteration order is nondeterministic) |
//! | `wall-clock`  | `Instant` / `SystemTime` (wall-clock reads) |
//! | `float-eq`    | `==` / `!=` against a floating-point literal |
//! | `lossy-cast`  | truncating `as` casts of energy/power/time values to integers |
//! | `unsafe-block`| the `unsafe` keyword |
//!
//! Escape hatches, in order of preference:
//!
//! 1. Fix the code (use `BTreeMap`, compare with a tolerance, …).
//! 2. A per-site `// nvp-lint: allow(<rule>)` comment on the offending
//!    line or the line directly above it, which documents intent.
//! 3. The static [`EXEMPTIONS`] list for whole files whose *job* is
//!    the flagged construct (the checkpoint CRC's quantizing casts).
//!
//! Run as `cargo run -p nvp-lint -- check` from the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};

pub mod tokenizer;

use tokenizer::{tokenize, Token, TokenKind};

/// All rule ids, in diagnostic order.
pub const RULES: [&str; 5] =
    ["nondet-iter", "wall-clock", "float-eq", "lossy-cast", "unsafe-block"];

/// Path-prefix exemptions: `(prefix, rule)` pairs (workspace-relative,
/// `/`-separated). The checkpoint CRC module quantizes torn-write
/// prefixes and indexes its lookup table with integer casts of
/// fractional quantities — that truncation is the modeled physics, so
/// the whole file is exempt from `lossy-cast` rather than sprinkled
/// with per-site allows.
pub const EXEMPTIONS: [(&str, &str); 1] = [("crates/sim/src/checkpoint.rs", "lossy-cast")];

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-indexed line of the offending token.
    pub line: usize,
    /// Violated rule id.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.path, self.line, self.rule, self.message)
    }
}

/// Integer target types a truncating `as` cast can hit.
const INT_TYPES: [&str; 12] =
    ["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"];

/// `true` if `name` names an energy/power/time quantity by the
/// workspace's naming convention (`_j`, `_w`, `_s` suffixes and their
/// scaled variants, or an explicit `energy`/`power` stem).
fn is_quantity_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    if lower.contains("energy") || lower.contains("power") {
        return true;
    }
    ["_j", "_nj", "_uj", "_mj", "_w", "_nw", "_uw", "_mw"].iter().any(|s| lower.ends_with(s))
}

/// Runs every rule over one file's source text.
///
/// `path` is used only for diagnostics and exemption matching; pass a
/// workspace-relative, `/`-separated path.
#[must_use]
pub fn lint_source(path: &str, source: &str) -> Vec<Violation> {
    let tokens = tokenize(source);
    let mut out = Vec::new();
    let push = |out: &mut Vec<Violation>, line: usize, rule: &'static str, message: String| {
        out.push(Violation { path: path.to_owned(), line, rule, message });
    };

    for (i, tok) in tokens.iter().enumerate() {
        match tok.kind {
            TokenKind::Ident => match tok.text.as_str() {
                "HashMap" | "HashSet" => push(
                    &mut out,
                    tok.line,
                    "nondet-iter",
                    format!(
                        "`{}` iteration order is nondeterministic; use `BTreeMap`/`BTreeSet` \
                         so report and CSV paths stay byte-identical",
                        tok.text
                    ),
                ),
                "Instant" | "SystemTime" => push(
                    &mut out,
                    tok.line,
                    "wall-clock",
                    format!(
                        "`{}` reads the wall clock; simulation and artifact code must be a \
                         pure function of its inputs",
                        tok.text
                    ),
                ),
                "unsafe" => push(
                    &mut out,
                    tok.line,
                    "unsafe-block",
                    "`unsafe` is forbidden across the workspace".to_owned(),
                ),
                "as" => {
                    let target = tokens.get(i + 1);
                    let source_tok = i.checked_sub(1).and_then(|p| tokens.get(p));
                    if let (Some(src), Some(dst)) = (source_tok, target) {
                        let lossy = dst.kind == TokenKind::Ident
                            && INT_TYPES.contains(&dst.text.as_str())
                            && (src.kind == TokenKind::Float
                                || (src.kind == TokenKind::Ident && is_quantity_name(&src.text)));
                        if lossy {
                            push(
                                &mut out,
                                tok.line,
                                "lossy-cast",
                                format!(
                                    "`{} as {}` truncates a physical quantity; keep energy \
                                     accounting in f64 (or round explicitly and justify)",
                                    src.text, dst.text
                                ),
                            );
                        }
                    }
                }
                _ => {}
            },
            TokenKind::Punct if tok.text == "==" || tok.text == "!=" => {
                let neighbor_is_float =
                    |t: Option<&Token>| t.is_some_and(|t| t.kind == TokenKind::Float);
                if neighbor_is_float(i.checked_sub(1).and_then(|p| tokens.get(p)))
                    || neighbor_is_float(tokens.get(i + 1))
                {
                    push(
                        &mut out,
                        tok.line,
                        "float-eq",
                        format!(
                            "`{}` against a float literal is exact-equality on IEEE-754 \
                             values; compare with a tolerance or justify bit-exactness",
                            tok.text
                        ),
                    );
                }
            }
            _ => {}
        }
    }

    let lines: Vec<&str> = source.lines().collect();
    out.retain(|v| !is_allowed(&lines, v.line, v.rule) && !is_exempt(path, v.rule));
    out
}

/// `true` if line `line` (1-indexed) or the line above carries a
/// `// nvp-lint: allow(<rule>)` directive for `rule`.
fn is_allowed(lines: &[&str], line: usize, rule: &str) -> bool {
    let needle = format!("nvp-lint: allow({rule})");
    let covers = |idx: usize| lines.get(idx).is_some_and(|l| l.contains(&needle));
    covers(line.wrapping_sub(1)) || line >= 2 && covers(line - 2)
}

/// `true` if `path` falls under a static [`EXEMPTIONS`] prefix for `rule`.
fn is_exempt(path: &str, rule: &str) -> bool {
    EXEMPTIONS.iter().any(|(prefix, r)| *r == rule && path.starts_with(prefix))
}

/// Collects every `.rs` file under `root` in sorted (deterministic)
/// order, skipping `target`, `.git`, and other dot-directories.
///
/// # Errors
///
/// Returns the first I/O error encountered while walking.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> =
            std::fs::read_dir(&dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
        entries.sort();
        for entry in entries {
            let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if entry.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(entry);
            } else if name.ends_with(".rs") {
                out.push(entry);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints every `.rs` file under `root`; violations come back sorted by
/// (path, line, rule).
///
/// # Errors
///
/// Returns the first I/O error encountered while reading sources.
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut out = Vec::new();
    for file in workspace_sources(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = std::fs::read_to_string(&file)?;
        out.extend(lint_source(&rel, &source));
    }
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(src: &str) -> Vec<&'static str> {
        lint_source("crates/demo/src/lib.rs", src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn seeded_nondet_iter_is_detected() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        let hits = rules_hit(src);
        assert!(hits.iter().all(|r| *r == "nondet-iter"), "{hits:?}");
        assert_eq!(hits.len(), 3);
        assert!(rules_hit("fn f() { let s = std::collections::HashSet::<u8>::new(); }")
            .contains(&"nondet-iter"));
    }

    #[test]
    fn seeded_wall_clock_is_detected() {
        assert_eq!(rules_hit("fn f() { let t = std::time::Instant::now(); }"), ["wall-clock"]);
        assert_eq!(rules_hit("fn f() { let t = std::time::SystemTime::now(); }"), ["wall-clock"]);
    }

    #[test]
    fn seeded_float_eq_is_detected() {
        assert_eq!(rules_hit("fn f(e: f64) -> bool { e == 0.0 }"), ["float-eq"]);
        assert_eq!(rules_hit("fn f(e: f64) -> bool { 1e-9 != e }"), ["float-eq"]);
        // Integer equality is fine.
        assert_eq!(rules_hit("fn f(n: u64) -> bool { n == 0 }"), [""; 0]);
        // Float comparisons with a tolerance are fine.
        assert_eq!(rules_hit("fn f(e: f64) -> bool { e.abs() < 1e-9 }"), [""; 0]);
    }

    #[test]
    fn seeded_lossy_cast_is_detected() {
        assert_eq!(
            rules_hit("fn f(backup_energy_j: f64) -> u64 { backup_energy_j as u64 }"),
            ["lossy-cast"]
        );
        assert_eq!(
            rules_hit("fn f(sleep_power_w: f64) -> u32 { sleep_power_w as u32 }"),
            ["lossy-cast"]
        );
        assert_eq!(rules_hit("fn f() -> u64 { 1.5 as u64 }"), ["lossy-cast"]);
        // Widening to f64 and unrelated integer casts are fine.
        assert_eq!(
            rules_hit("fn f(n: u32, energy_j: f64) -> f64 { n as f64 * energy_j }"),
            [""; 0]
        );
        assert_eq!(rules_hit("fn f(words: usize) -> u64 { words as u64 }"), [""; 0]);
    }

    #[test]
    fn seeded_unsafe_block_is_detected() {
        assert_eq!(rules_hit("fn f(p: *const u8) -> u8 { unsafe { *p } }"), ["unsafe-block"]);
        // `unsafe_code` (the lint name in attributes) is a different token.
        assert_eq!(rules_hit("#![forbid(unsafe_code)]\nfn f() {}"), [""; 0]);
    }

    #[test]
    fn allow_directive_suppresses_same_line_and_line_above() {
        let same = "fn f(e: f64) -> bool { e == 0.0 } // nvp-lint: allow(float-eq)\n";
        assert_eq!(rules_hit(same), [""; 0]);
        let above =
            "// exact sentinel: nvp-lint: allow(float-eq)\nfn f(e: f64) -> bool { e == 0.0 }\n";
        assert_eq!(rules_hit(above), [""; 0]);
        // The wrong rule name does not suppress.
        let wrong = "fn f(e: f64) -> bool { e == 0.0 } // nvp-lint: allow(wall-clock)\n";
        assert_eq!(rules_hit(wrong), ["float-eq"]);
        // Two lines above is out of range.
        let far = "// nvp-lint: allow(float-eq)\n\nfn f(e: f64) -> bool { e == 0.0 }\n";
        assert_eq!(rules_hit(far), ["float-eq"]);
    }

    #[test]
    fn comments_and_strings_do_not_trigger() {
        assert_eq!(rules_hit("// a HashMap would be nondeterministic here\nfn f() {}"), [""; 0]);
        assert_eq!(rules_hit("/* Instant::now() */ fn f() {}"), [""; 0]);
        assert_eq!(rules_hit("fn f() -> &'static str { \"HashMap unsafe == 0.0\" }"), [""; 0]);
        assert_eq!(rules_hit("//! HashSet in module docs\nfn f() {}"), [""; 0]);
    }

    #[test]
    fn checkpoint_crc_is_exempt_from_lossy_cast_only() {
        // A genuine lossy cast of a quantity: flagged anywhere else...
        let src = "fn f(backup_energy_fraction: f64) -> usize { backup_energy_fraction as usize }";
        assert_eq!(lint_source("crates/sim/src/machine.rs", src).len(), 1);
        // ... but exempt in the checkpoint CRC module, whose job is
        // quantizing fractional write progress into whole words.
        assert_eq!(lint_source("crates/sim/src/checkpoint.rs", src), []);
        // The exemption is rule-scoped: other rules still flag there.
        let clock = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(lint_source("crates/sim/src/checkpoint.rs", clock).len(), 1);
    }

    #[test]
    fn violations_carry_path_line_and_render() {
        let src = "fn a() {}\nfn f() { let t = std::time::Instant::now(); }\n";
        let v = &lint_source("crates/demo/src/lib.rs", src)[0];
        assert_eq!((v.path.as_str(), v.line, v.rule), ("crates/demo/src/lib.rs", 2, "wall-clock"));
        let text = v.to_string();
        assert!(text.starts_with("crates/demo/src/lib.rs:2: wall-clock:"), "{text}");
    }

    /// The gate CI enforces: the workspace tree itself is lint-clean.
    #[test]
    fn workspace_tree_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let violations = check_workspace(&root).expect("workspace walk succeeds");
        assert!(
            violations.is_empty(),
            "workspace has lint violations:\n{}",
            violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
    }

    #[test]
    fn workspace_walk_is_deterministic_and_skips_target() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let a = workspace_sources(&root).unwrap();
        let b = workspace_sources(&root).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.iter().all(|p| !p.components().any(|c| c.as_os_str() == "target")));
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(a, sorted, "source order is sorted");
    }
}
