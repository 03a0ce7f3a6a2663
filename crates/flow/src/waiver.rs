//! Per-site diagnostic waivers.
//!
//! A waiver acknowledges a diagnostic at a specific pc without fixing
//! it — the analog of `nvp-lint`'s `allow(...)` comments, but for
//! program-level findings. In `.nv16` assembly source a waiver is a
//! comment marker:
//!
//! ```text
//! sw r2, 0(r1)    ; nvp-flow: allow(war-hazard) -- replayed store is idempotent here
//! ```
//!
//! The marker binds to the instruction on its own line, or — when the
//! line holds only the comment — to the next instruction below it.

use std::collections::{BTreeMap, BTreeSet};

use crate::analysis::Rule;

/// Marker scanned for inside assembly comments.
pub const MARKER: &str = "nvp-flow: allow(";

/// A set of per-pc rule waivers.
#[derive(Debug, Clone, Default)]
pub struct Waivers {
    sites: BTreeMap<u32, BTreeSet<Rule>>,
}

impl Waivers {
    /// No waivers: every diagnostic is reported.
    #[must_use]
    pub fn none() -> Waivers {
        Waivers::default()
    }

    /// Waives `rule` at instruction address `pc`.
    pub fn allow_at(&mut self, pc: u32, rule: Rule) {
        self.sites.entry(pc).or_default().insert(rule);
    }

    /// `true` if `rule` is waived at `pc`.
    #[must_use]
    pub fn allows(&self, pc: u32, rule: Rule) -> bool {
        self.sites.get(&pc).is_some_and(|rules| rules.contains(&rule))
    }

    /// Extracts waivers from `.nv16` assembly source by replaying the
    /// assembler's line-to-pc mapping: instruction-bearing lines count
    /// up the pc; `.data` /`.text` directives switch sections; comment
    /// markers bind to the instruction on their line or the next one.
    /// Unknown rule names inside a marker are ignored (forward
    /// compatibility with future rules).
    #[must_use]
    pub fn from_asm_source(src: &str) -> Waivers {
        let mut w = Waivers::none();
        let mut pc: u32 = 0;
        let mut in_text = true;
        let mut pending: Vec<Rule> = Vec::new();
        for raw in src.lines() {
            // Split the comment off first; the marker lives inside it.
            let (stmt, comment) = match raw.split_once(';') {
                Some((s, c)) => (s, Some(c)),
                None => (raw, None),
            };
            let mut line_rules: Vec<Rule> = Vec::new();
            if let Some(c) = comment {
                if let Some(idx) = c.find(MARKER) {
                    let rest = &c[idx + MARKER.len()..];
                    if let Some(close) = rest.find(')') {
                        for name in rest[..close].split(',') {
                            if let Some(rule) = Rule::parse(name.trim()) {
                                line_rules.push(rule);
                            }
                        }
                    }
                }
            }
            // Replicate the assembler's notion of "this line emits an
            // instruction": strip labels, skip directives and blanks.
            let mut body = stmt.trim();
            while let Some((head, rest)) = body.split_once(':') {
                if !head.is_empty()
                    && head.chars().all(|ch| ch.is_ascii_alphanumeric() || ch == '_' || ch == '.')
                {
                    body = rest.trim();
                } else {
                    break;
                }
            }
            if body.starts_with('.') {
                if body.starts_with(".data") {
                    in_text = false;
                } else if body.starts_with(".text") {
                    in_text = true;
                }
                continue;
            }
            let emits = in_text && !body.is_empty();
            if emits {
                for rule in line_rules.iter().chain(pending.iter()) {
                    w.allow_at(pc, *rule);
                }
                pending.clear();
                pc += 1;
            } else {
                // Comment-only line: the marker waits for the next
                // instruction.
                pending.extend(line_rules);
            }
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_on_instruction_line_binds_to_its_pc() {
        let src = "li r1, 128\nsw r2, 0(r1) ; nvp-flow: allow(war-hazard)\nhalt";
        let w = Waivers::from_asm_source(src);
        assert!(w.allows(1, Rule::WarHazard));
        assert!(!w.allows(0, Rule::WarHazard));
        assert!(!w.allows(1, Rule::DeadStore));
    }

    #[test]
    fn marker_on_comment_line_binds_to_next_instruction() {
        let src = "; nvp-flow: allow(dead-store) -- double store models a port write\n\
                   li r1, 5\nhalt";
        let w = Waivers::from_asm_source(src);
        assert!(w.allows(0, Rule::DeadStore));
    }

    #[test]
    fn labels_and_directives_do_not_advance_pc() {
        let src = ".equ OUT, 64\nstart:\n  nop\nloop: addi r1, r1, 1 ; nvp-flow: allow(no-progress-loop)\nhalt";
        let w = Waivers::from_asm_source(src);
        assert!(w.allows(1, Rule::NoProgressLoop));
    }

    #[test]
    fn data_section_lines_do_not_count() {
        let src = ".data 8\n.word 1, 2, 3\n.text\nnop ; nvp-flow: allow(unreachable-block)\nhalt";
        let w = Waivers::from_asm_source(src);
        assert!(w.allows(0, Rule::UnreachableBlock));
    }

    #[test]
    fn multiple_rules_in_one_marker() {
        let src = "sw r1, 0(r2) ; nvp-flow: allow(war-hazard, dead-store)\nhalt";
        let w = Waivers::from_asm_source(src);
        assert!(w.allows(0, Rule::WarHazard));
        assert!(w.allows(0, Rule::DeadStore));
    }
}
