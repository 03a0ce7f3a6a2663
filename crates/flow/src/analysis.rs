//! Intermittency-hazard rules.
//!
//! A *backup region* is the code between two backup boundaries: the
//! program entry, every `ckpt` instruction, and `halt` (task commit).
//! After a torn backup the platform restores an **older** checkpoint
//! and replays the region against data memory the first attempt already
//! mutated (`crates/core/src/system.rs` fallback path) — so the rules
//! here ask: *is every region safe to re-execute?*
//!
//! | rule id | finding |
//! |---|---|
//! | `war-hazard` | a dmem word is read, then rewritten, inside one region (replay observes its own future) |
//! | `dead-store` | a store is overwritten before any possible read |
//! | `unreachable-block` | a block no path from entry reaches |
//! | `no-progress-loop` | a checkpoint-free loop whose cheapest iteration exceeds the storable energy |
//!
//! WAR detection is *must-alias*: only constant-propagated addresses
//! are paired, so a reported hazard is real (no false positives), while
//! pointer-arithmetic accesses with non-constant addresses are covered
//! by the over-approximating read/write interval sets rather than this
//! rule. The differential harness (`tests/differential.rs`, over
//! [`trace`](crate::trace)) checks that those sets contain every
//! dynamic access.

use std::collections::{BTreeMap, BTreeSet};

use nvp_core::SystemConfig;
use nvp_isa::{Inst, Program};
use nvp_sim::{CycleModel, EnergyModel, InstClass};

use crate::absint::{self, AbsInt, AccessKind, Interval};
use crate::cfg::{Cfg, CfgError};
use crate::waiver::Waivers;

/// Hard cap on interval-set representation size; beyond it the closest
/// pair is merged into its hull (coverage only grows — sound).
const MAX_INTERVALS: usize = 24;

/// A diagnostic rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Read-then-write of one dmem word inside a backup region.
    WarHazard,
    /// Store overwritten before any possible read.
    DeadStore,
    /// Basic block unreachable from the entry point.
    UnreachableBlock,
    /// Checkpoint-free loop that cannot finish an iteration on a full
    /// energy store.
    NoProgressLoop,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 4] =
        [Rule::WarHazard, Rule::DeadStore, Rule::UnreachableBlock, Rule::NoProgressLoop];

    /// The stable kebab-case id used in reports and waivers.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::WarHazard => "war-hazard",
            Rule::DeadStore => "dead-store",
            Rule::UnreachableBlock => "unreachable-block",
            Rule::NoProgressLoop => "no-progress-loop",
        }
    }

    /// Parses a rule id (the inverse of [`Rule::id`]).
    #[must_use]
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == s)
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// An inclusive pc range a diagnostic refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First involved instruction address.
    pub lo: u32,
    /// Last involved instruction address.
    pub hi: u32,
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// The pc range involved.
    pub span: Span,
    /// Human-readable explanation with concrete addresses.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} @ pc {}..{}: {}", self.rule, self.span.lo, self.span.hi, self.message)
    }
}

/// Platform parameters the rules evaluate against.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Per-instruction cycle model (for loop energy).
    pub cycle_model: CycleModel,
    /// Per-instruction energy model (for loop energy).
    pub energy_model: EnergyModel,
    /// Maximum storable energy, joules (`½CV²` of the capacitor).
    pub max_stored_j: f64,
}

impl Default for AnalysisConfig {
    /// The default platform (`SystemConfig::default()`).
    fn default() -> AnalysisConfig {
        let sys = SystemConfig::default();
        AnalysisConfig {
            cycle_model: sys.cycle_model,
            energy_model: sys.energy_model,
            max_stored_j: 0.5 * sys.capacitance_f * sys.cap_voltage_v * sys.cap_voltage_v,
        }
    }
}

/// The complete result of analyzing one program.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Findings not covered by a waiver, rule-then-pc ordered.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings acknowledged by waivers.
    pub waived: Vec<Diagnostic>,
    /// Every word address the program may read (normalized intervals).
    pub read_set: Vec<Interval>,
    /// Every word address the program may write (normalized intervals).
    pub write_set: Vec<Interval>,
    /// Total basic blocks.
    pub block_count: usize,
    /// Blocks reachable from entry.
    pub reachable_count: usize,
}

impl Analysis {
    /// `true` when no unwaived diagnostics remain.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders the classic text report.
    #[must_use]
    pub fn to_text(&self, name: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let verdict = if self.is_clean() { "clean" } else { "UNSAFE" };
        writeln!(
            out,
            "nvp-flow: {name}: {verdict} — {} block(s), {} reachable, {} diagnostic(s), {} waived",
            self.block_count,
            self.reachable_count,
            self.diagnostics.len(),
            self.waived.len()
        )
        .expect("write to String");
        for d in &self.diagnostics {
            writeln!(out, "  {d}").expect("write to String");
        }
        for d in &self.waived {
            writeln!(out, "  waived: {d}").expect("write to String");
        }
        out
    }
}

// ---- interval-set helpers ------------------------------------------------

/// Sorts, merges overlapping/adjacent intervals, and caps the count by
/// hull-merging the closest pair (coverage never shrinks).
fn normalize(mut v: Vec<Interval>) -> Vec<Interval> {
    if v.is_empty() {
        return v;
    }
    v.sort();
    let mut out: Vec<Interval> = Vec::with_capacity(v.len());
    for iv in v {
        match out.last_mut() {
            Some(last) if u32::from(last.hi) + 1 >= u32::from(iv.lo) => {
                last.hi = last.hi.max(iv.hi);
            }
            _ => out.push(iv),
        }
    }
    while out.len() > MAX_INTERVALS {
        // Merge the pair with the smallest gap.
        let mut best = 0usize;
        let mut best_gap = u32::MAX;
        for i in 0..out.len() - 1 {
            let gap = u32::from(out[i + 1].lo) - u32::from(out[i].hi);
            if gap < best_gap {
                best_gap = gap;
                best = i;
            }
        }
        let merged = Interval { lo: out[best].lo, hi: out[best + 1].hi };
        out[best] = merged;
        out.remove(best + 1);
    }
    out
}

fn set_insert(set: &mut Vec<Interval>, iv: Interval) {
    set.push(iv);
    let taken = std::mem::take(set);
    *set = normalize(taken);
}

/// `true` if `addr` lies inside any interval of the normalized set.
#[must_use]
pub fn set_contains(set: &[Interval], addr: u16) -> bool {
    set.iter().any(|iv| iv.contains(addr))
}

// ---- the analyzer --------------------------------------------------------

/// Runs every pass and rule over `program`.
///
/// # Errors
///
/// Returns [`CfgError`] if the image is empty or contains an
/// undecodable word.
pub fn analyze(
    program: &Program,
    config: &AnalysisConfig,
    waivers: &Waivers,
) -> Result<Analysis, CfgError> {
    let cfg = Cfg::build(program)?;
    let thresholds = absint::thresholds(program, cfg.insts());
    let abs = absint::analyze(&cfg, &thresholds);
    let reachable = cfg.reachable();
    let reachable_count = reachable.iter().filter(|&&r| r).count();

    let mut findings: Vec<Diagnostic> = Vec::new();

    // Global read/write interval sets.
    let mut read_set: Vec<Interval> = Vec::new();
    let mut write_set: Vec<Interval> = Vec::new();
    for acc in &abs.accesses {
        match acc.kind {
            AccessKind::Read => set_insert(&mut read_set, acc.addr),
            AccessKind::Write => set_insert(&mut write_set, acc.addr),
        }
    }

    war_pass(&cfg, &abs, &reachable, &mut findings);
    dead_store_pass(&cfg, &abs, &reachable, &mut findings);
    unreachable_pass(&cfg, &reachable, &mut findings);
    no_progress_pass(&cfg, config, &mut findings);

    // Split findings into reported vs waived.
    findings.sort_by_key(|d| (d.rule, d.span.lo, d.span.hi));
    let (waived, diagnostics) = findings
        .into_iter()
        .partition(|d| waivers.allows(d.span.lo, d.rule) || waivers.allows(d.span.hi, d.rule));

    Ok(Analysis {
        diagnostics,
        waived,
        read_set,
        write_set,
        block_count: cfg.blocks().len(),
        reachable_count,
    })
}

/// Is the edge out of `b` a backup boundary (`ckpt` terminator)?
fn clears_region(cfg: &Cfg, b: usize) -> bool {
    matches!(cfg.insts()[cfg.blocks()[b].end as usize], Inst::Ckpt)
}

/// WAR idempotency rule: a constant-address word read while still
/// *clean* (unwritten since the boundary), then stored to, inside one
/// region. Replaying such a region after a torn backup feeds the store
/// its own earlier output.
fn war_pass(cfg: &Cfg, abs: &AbsInt, reachable: &[bool], findings: &mut Vec<Diagnostic>) {
    let n = cfg.blocks().len();
    // Pass 1 — forward must-written-since-boundary (const addrs only).
    let mut must_in: Vec<Option<BTreeSet<u16>>> = vec![None; n];
    must_in[cfg.entry_block()] = Some(BTreeSet::new());
    let mut work = vec![cfg.entry_block()];
    while let Some(b) = work.pop() {
        let Some(mut set) = must_in[b].clone() else { continue };
        let block = cfg.blocks()[b];
        for pc in block.start..=block.end {
            if let Some(acc) = abs.access_at(pc) {
                if acc.kind == AccessKind::Write {
                    if let Some(a) = acc.addr.as_const() {
                        set.insert(a);
                    }
                }
            }
        }
        let out = if clears_region(cfg, b) { BTreeSet::new() } else { set };
        for e in cfg.succs(b) {
            let next = match &must_in[e.to] {
                None => out.clone(),
                Some(old) => old.intersection(&out).copied().collect(),
            };
            if must_in[e.to].as_ref() != Some(&next) {
                must_in[e.to] = Some(next);
                work.push(e.to);
            }
        }
    }

    // Pass 2 — forward may "read while clean" (addr -> earliest read pc).
    // Gen: const load of an addr not yet must-written. Kill: any const
    // store to the addr (later reads see in-region data — idempotent).
    let mut clean_in: Vec<Option<BTreeMap<u16, u32>>> = vec![None; n];
    clean_in[cfg.entry_block()] = Some(BTreeMap::new());
    let mut work = vec![cfg.entry_block()];
    while let Some(b) = work.pop() {
        let Some(mut map) = clean_in[b].clone() else { continue };
        let mut must = must_in[b].clone().unwrap_or_default();
        let block = cfg.blocks()[b];
        for pc in block.start..=block.end {
            if let Some(acc) = abs.access_at(pc) {
                if let Some(a) = acc.addr.as_const() {
                    match acc.kind {
                        AccessKind::Read => {
                            if !must.contains(&a) {
                                let e = map.entry(a).or_insert(pc);
                                *e = (*e).min(pc);
                            }
                        }
                        AccessKind::Write => {
                            map.remove(&a);
                            must.insert(a);
                        }
                    }
                }
            }
        }
        let out = if clears_region(cfg, b) { BTreeMap::new() } else { map };
        for e in cfg.succs(b) {
            let next = match &clean_in[e.to] {
                None => out.clone(),
                Some(old) => {
                    let mut merged = old.clone();
                    for (&a, &pc) in &out {
                        let e2 = merged.entry(a).or_insert(pc);
                        *e2 = (*e2).min(pc);
                    }
                    merged
                }
            };
            if clean_in[e.to].as_ref() != Some(&next) {
                clean_in[e.to] = Some(next);
                work.push(e.to);
            }
        }
    }

    // Final stable pass: collect read-then-write pairs.
    let mut seen: BTreeSet<(u16, u32)> = BTreeSet::new();
    for (b, block) in cfg.blocks().iter().enumerate() {
        if !reachable[b] {
            continue;
        }
        let mut map = clean_in[b].clone().unwrap_or_default();
        let mut must = must_in[b].clone().unwrap_or_default();
        for pc in block.start..=block.end {
            if let Some(acc) = abs.access_at(pc) {
                if let Some(a) = acc.addr.as_const() {
                    match acc.kind {
                        AccessKind::Read => {
                            if !must.contains(&a) {
                                let e = map.entry(a).or_insert(pc);
                                *e = (*e).min(pc);
                            }
                        }
                        AccessKind::Write => {
                            if let Some(&read_pc) = map.get(&a) {
                                if seen.insert((a, pc)) {
                                    findings.push(Diagnostic {
                                        rule: Rule::WarHazard,
                                        span: Span { lo: read_pc.min(pc), hi: read_pc.max(pc) },
                                        message: format!(
                                            "dmem[{a:#06x}] is read at pc {read_pc} and \
                                             rewritten at pc {pc} inside one backup region; \
                                             replaying the region after a torn backup makes \
                                             the read observe the store's earlier output \
                                             (non-idempotent read-modify-write)"
                                        ),
                                    });
                                }
                            }
                            map.remove(&a);
                            must.insert(a);
                        }
                    }
                }
            }
        }
    }
}

/// Dead-store rule: backward must-overwritten-before-any-may-read.
/// `halt` commits outputs (all memory observable), so only stores
/// provably shadowed by a later store on *every* path are flagged.
fn dead_store_pass(cfg: &Cfg, abs: &AbsInt, reachable: &[bool], findings: &mut Vec<Diagnostic>) {
    let n = cfg.blocks().len();
    // start_state[b]: map addr -> overwriting pc, holding at block entry.
    let mut start_state: Vec<Option<BTreeMap<u16, u32>>> = vec![None; n];

    let transfer = |b: usize, out: &BTreeMap<u16, u32>| -> BTreeMap<u16, u32> {
        let mut map = out.clone();
        let block = cfg.blocks()[b];
        for pc in (block.start..=block.end).rev() {
            if let Some(acc) = abs.access_at(pc) {
                match (acc.kind, acc.addr.as_const()) {
                    (AccessKind::Write, Some(a)) => {
                        map.insert(a, pc);
                    }
                    (AccessKind::Write, None) => {}
                    (AccessKind::Read, Some(a)) => {
                        map.remove(&a);
                    }
                    (AccessKind::Read, None) => {
                        map.retain(|&a, _| !acc.addr.contains(a));
                    }
                }
            }
        }
        map
    };

    // Iterate to fixpoint (must-analysis: successor intersection).
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n).rev() {
            if !reachable[b] {
                continue;
            }
            let mut out: Option<BTreeMap<u16, u32>> = None;
            if cfg.succs(b).is_empty() {
                out = Some(BTreeMap::new());
            } else {
                for e in cfg.succs(b) {
                    let Some(succ_in) = &start_state[e.to] else {
                        // Successor not computed yet: treat as top and
                        // let later rounds tighten it.
                        continue;
                    };
                    out = Some(match out {
                        None => succ_in.clone(),
                        Some(acc) => acc
                            .into_iter()
                            .filter(|(a, _)| succ_in.contains_key(a))
                            .map(|(a, pc)| (a, pc.min(succ_in[&a])))
                            .collect(),
                    });
                }
            }
            let Some(out) = out else { continue };
            let new_start = transfer(b, &out);
            if start_state[b].as_ref() != Some(&new_start) {
                start_state[b] = Some(new_start);
                changed = true;
            }
        }
    }

    // Final pass: a const store into a must-overwritten slot is dead.
    for (b, block) in cfg.blocks().iter().enumerate() {
        if !reachable[b] {
            continue;
        }
        let mut out: BTreeMap<u16, u32> = BTreeMap::new();
        if !cfg.succs(b).is_empty() {
            let mut acc: Option<BTreeMap<u16, u32>> = None;
            for e in cfg.succs(b) {
                let succ_in = start_state[e.to].clone().unwrap_or_default();
                acc = Some(match acc {
                    None => succ_in,
                    Some(prev) => prev
                        .into_iter()
                        .filter(|(a, _)| succ_in.contains_key(a))
                        .map(|(a, pc)| (a, pc.min(succ_in[&a])))
                        .collect(),
                });
            }
            out = acc.unwrap_or_default();
        }
        let mut map = out;
        for pc in (block.start..=block.end).rev() {
            if let Some(acc) = abs.access_at(pc) {
                match (acc.kind, acc.addr.as_const()) {
                    (AccessKind::Write, Some(a)) => {
                        if let Some(&over_pc) = map.get(&a) {
                            findings.push(Diagnostic {
                                rule: Rule::DeadStore,
                                span: Span { lo: pc, hi: pc },
                                message: format!(
                                    "store to dmem[{a:#06x}] at pc {pc} is overwritten at \
                                     pc {over_pc} before any possible read (dead store)"
                                ),
                            });
                        }
                        map.insert(a, pc);
                    }
                    (AccessKind::Write, None) => {}
                    (AccessKind::Read, Some(a)) => {
                        map.remove(&a);
                    }
                    (AccessKind::Read, None) => {
                        map.retain(|&a, _| !acc.addr.contains(a));
                    }
                }
            }
        }
    }
}

/// Unreachable-block rule.
fn unreachable_pass(cfg: &Cfg, reachable: &[bool], findings: &mut Vec<Diagnostic>) {
    for (b, block) in cfg.blocks().iter().enumerate() {
        if reachable[b] {
            continue;
        }
        findings.push(Diagnostic {
            rule: Rule::UnreachableBlock,
            span: Span { lo: block.start, hi: block.end },
            message: format!(
                "block at pc {}..{} is unreachable from the entry point (dead code)",
                block.start, block.end
            ),
        });
    }
}

/// Minimum energy to execute one instruction (branch counted not-taken,
/// the cheaper outcome — an underestimate, so a finding is definite).
fn min_inst_energy_j(inst: Inst, config: &AnalysisConfig) -> f64 {
    let class = InstClass::of(&inst);
    let cycles = config.cycle_model.cycles(class, false);
    config.energy_model.energy(class, cycles)
}

/// No-progress-loop rule: a checkpoint-free natural loop whose
/// *cheapest* full iteration costs more than the capacitor can store.
/// Such a program browns out mid-iteration every time and, with no
/// boundary inside the loop, replays forever.
fn no_progress_pass(cfg: &Cfg, config: &AnalysisConfig, findings: &mut Vec<Diagnostic>) {
    for lp in cfg.natural_loops() {
        let mut has_boundary = false;
        let mut block_cost: BTreeMap<usize, f64> = BTreeMap::new();
        for &b in &lp.body {
            let block = cfg.blocks()[b];
            let mut cost = 0.0f64;
            for pc in block.start..=block.end {
                let inst = cfg.insts()[pc as usize];
                if matches!(inst, Inst::Ckpt | Inst::Halt) {
                    has_boundary = true;
                }
                cost += min_inst_energy_j(inst, config);
            }
            block_cost.insert(b, cost);
        }
        if has_boundary {
            continue;
        }
        // Node-weighted shortest path head -> latch inside the body
        // (Bellman-Ford; |body| rounds suffice, costs are positive).
        let mut dist: BTreeMap<usize, f64> = BTreeMap::new();
        dist.insert(lp.head, block_cost[&lp.head]);
        for _ in 0..lp.body.len() {
            let mut updated = false;
            for &u in &lp.body {
                let Some(&du) = dist.get(&u) else { continue };
                if u != lp.head && u == lp.latch {
                    // Leaving the latch re-enters the header; the
                    // iteration is complete there.
                    continue;
                }
                for e in cfg.succs(u) {
                    if !lp.body.contains(&e.to) || e.to == lp.head {
                        continue;
                    }
                    let cand = du + block_cost[&e.to];
                    let better = match dist.get(&e.to) {
                        None => true,
                        Some(&dv) => cand < dv,
                    };
                    if better {
                        dist.insert(e.to, cand);
                        updated = true;
                    }
                }
            }
            if !updated {
                break;
            }
        }
        let Some(&min_iter) = dist.get(&lp.latch) else { continue };
        if min_iter > config.max_stored_j {
            let lo = lp.body.iter().map(|&b| cfg.blocks()[b].start).min().unwrap_or(0);
            let hi = lp.body.iter().map(|&b| cfg.blocks()[b].end).max().unwrap_or(0);
            findings.push(Diagnostic {
                rule: Rule::NoProgressLoop,
                span: Span { lo, hi },
                message: format!(
                    "checkpoint-free loop needs at least {min_iter:.3e} J per iteration but \
                     the storage capacitor holds at most {:.3e} J — the platform browns out \
                     mid-iteration and can never commit forward progress",
                    config.max_stored_j
                ),
            });
        }
    }
}
