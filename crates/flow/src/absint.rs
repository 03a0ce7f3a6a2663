//! Interval abstract interpretation over the NV16 register file.
//!
//! Every register holds an inclusive `[lo, hi]` interval of possible
//! 16-bit values; `r0` is pinned to `[0, 0]`. The transfer function
//! mirrors the simulator's ALU bit-for-bit on singleton (constant)
//! operands and falls back to sound coarser bounds otherwise, so any
//! value the machine can compute is inside the static interval — the
//! over-approximation contract the differential harness checks.
//!
//! Convergence uses threshold widening: after a block has been
//! re-joined [`WIDEN_AFTER`] times, growing bounds jump outward to the
//! nearest *program constant* (any `li` immediate, symbol value, or
//! data-segment boundary) before giving up to `0`/`0xFFFF`. Loop
//! bounds in the shipped kernels are `li`-loaded constants, so pointer
//! induction variables usually stabilize at their true ranges.

use std::collections::BTreeSet;

use nvp_isa::{Inst, Program, Reg};

use crate::cfg::{Cfg, EdgeKind};

/// Join-count after which a block's input state is widened.
pub const WIDEN_AFTER: u32 = 8;

/// An inclusive interval of 16-bit words (`lo <= hi` always holds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Interval {
    /// Smallest possible value.
    pub lo: u16,
    /// Largest possible value.
    pub hi: u16,
}

/// The full 16-bit range.
pub const TOP: Interval = Interval { lo: 0, hi: u16::MAX };

impl Interval {
    /// The singleton interval `[v, v]`.
    #[must_use]
    pub const fn exact(v: u16) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// Interval from ordered bounds.
    #[must_use]
    pub fn new(lo: u16, hi: u16) -> Interval {
        debug_assert!(lo <= hi);
        Interval { lo, hi }
    }

    /// The constant this interval denotes, if it is a singleton.
    #[must_use]
    pub fn as_const(self) -> Option<u16> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// `true` if `v` may be a value of this interval.
    #[must_use]
    pub fn contains(self, v: u16) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Least upper bound (interval hull).
    #[must_use]
    pub fn join(self, o: Interval) -> Interval {
        Interval { lo: self.lo.min(o.lo), hi: self.hi.max(o.hi) }
    }

    /// Greatest lower bound; `None` when the intervals are disjoint.
    #[must_use]
    pub fn intersect(self, o: Interval) -> Option<Interval> {
        let lo = self.lo.max(o.lo);
        let hi = self.hi.min(o.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Wrapping addition of a constant: both bounds shift together, so
    /// the result stays an interval unless the wrap splits it.
    #[must_use]
    pub fn add_const(self, k: u16) -> Interval {
        let lo = u32::from(self.lo) + u32::from(k);
        let hi = u32::from(self.hi) + u32::from(k);
        if (lo > 0xFFFF) == (hi > 0xFFFF) {
            Interval { lo: (lo & 0xFFFF) as u16, hi: (hi & 0xFFFF) as u16 }
        } else {
            TOP
        }
    }

    /// Wrapping interval addition.
    #[must_use]
    pub fn add_wrapping(self, o: Interval) -> Interval {
        if let Some(k) = o.as_const() {
            return self.add_const(k);
        }
        if let Some(k) = self.as_const() {
            return o.add_const(k);
        }
        let lo = u32::from(self.lo) + u32::from(o.lo);
        let hi = u32::from(self.hi) + u32::from(o.hi);
        if hi - lo <= 0xFFFF && (lo > 0xFFFF) == (hi > 0xFFFF) {
            Interval { lo: (lo & 0xFFFF) as u16, hi: (hi & 0xFFFF) as u16 }
        } else {
            TOP
        }
    }

    /// Wrapping interval subtraction.
    #[must_use]
    pub fn sub_wrapping(self, o: Interval) -> Interval {
        let lo = i32::from(self.lo) - i32::from(o.hi);
        let hi = i32::from(self.hi) - i32::from(o.lo);
        if hi - lo <= 0xFFFF && (lo < 0) == (hi < 0) {
            Interval { lo: (lo & 0xFFFF) as u16, hi: (hi & 0xFFFF) as u16 }
        } else {
            TOP
        }
    }
}

/// Abstract register file: one interval per register, `r0` pinned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegState {
    regs: [Interval; 16],
}

impl RegState {
    /// The machine's power-on state: every register is zero (the
    /// simulator zero-fills the register file at reset).
    #[must_use]
    pub fn zeroed() -> RegState {
        RegState { regs: [Interval::exact(0); 16] }
    }

    /// The interval held by `r`.
    #[must_use]
    pub fn get(&self, r: Reg) -> Interval {
        if r.is_zero() {
            Interval::exact(0)
        } else {
            self.regs[r.index()]
        }
    }

    /// Replaces the interval held by `r` (writes to `r0` are discarded,
    /// matching the hardware).
    pub fn set(&mut self, r: Reg, v: Interval) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Pointwise interval hull.
    #[must_use]
    pub fn join(&self, o: &RegState) -> RegState {
        let mut out = self.clone();
        for i in 1..16 {
            out.regs[i] = out.regs[i].join(o.regs[i]);
        }
        out
    }

    /// Threshold widening of `self` (the established state) by `new`.
    #[must_use]
    pub fn widen(&self, new: &RegState, thresholds: &BTreeSet<u16>) -> RegState {
        let mut out = self.clone();
        for i in 1..16 {
            let old = self.regs[i];
            let grown = new.regs[i];
            let lo = if grown.lo >= old.lo {
                old.lo
            } else {
                thresholds.range(..=grown.lo).next_back().copied().unwrap_or(0)
            };
            let hi = if grown.hi <= old.hi {
                old.hi
            } else {
                thresholds.range(grown.hi..).next().copied().unwrap_or(u16::MAX)
            };
            out.regs[i] = Interval { lo, hi };
        }
        out
    }
}

/// Whether a memory access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A `lw` load.
    Read,
    /// A `sw` store.
    Write,
}

/// One statically derived data-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Address of the `lw`/`sw` instruction.
    pub pc: u32,
    /// Load or store.
    pub kind: AccessKind,
    /// Every word address the access may touch.
    pub addr: Interval,
}

/// Result of the interval fixpoint.
#[derive(Debug, Clone)]
pub struct AbsInt {
    /// Abstract register state *before* each pc executes; `None` for
    /// statically unreachable instructions.
    pub before: Vec<Option<RegState>>,
    /// Every reachable load/store with its address interval, pc-sorted.
    pub accesses: Vec<MemAccess>,
}

impl AbsInt {
    /// The access made by the instruction at `pc`, if it is a reachable
    /// load or store.
    #[must_use]
    pub fn access_at(&self, pc: u32) -> Option<MemAccess> {
        self.accesses.binary_search_by_key(&pc, |a| a.pc).ok().map(|i| self.accesses[i])
    }
}

/// Collects the widening thresholds of a program: `li` immediates,
/// symbol values, data-segment boundaries.
#[must_use]
pub fn thresholds(program: &Program, insts: &[Inst]) -> BTreeSet<u16> {
    let mut t = BTreeSet::new();
    for inst in insts {
        if let Inst::Li { imm, .. } = inst {
            t.insert(*imm);
            t.insert(imm.wrapping_sub(1));
        }
    }
    for &v in program.symbols().values() {
        if v <= u32::from(u16::MAX) {
            t.insert(v as u16);
        }
    }
    for seg in program.data_segments() {
        t.insert(seg.addr);
        let end = seg.end().min(u32::from(u16::MAX));
        t.insert(end as u16);
    }
    t
}

/// The abstract ALU: mirrors [`nvp_sim`]'s concrete semantics exactly
/// on constants, otherwise returns sound bounds. Returns the interval
/// written to the destination register.
fn eval_alu(inst: Inst, st: &RegState, pc: u32) -> Option<(Reg, Interval)> {
    use Inst::*;
    // Exact constant folds replicate machine.rs bit-for-bit.
    let fold2 = |rs1: Reg, rs2: Reg, f: fn(u16, u16) -> u16| -> Option<Interval> {
        match (st.get(rs1).as_const(), st.get(rs2).as_const()) {
            (Some(a), Some(b)) => Some(Interval::exact(f(a, b))),
            _ => None,
        }
    };
    let fold1 = |rs1: Reg, f: &dyn Fn(u16) -> u16| -> Option<Interval> {
        st.get(rs1).as_const().map(|a| Interval::exact(f(a)))
    };
    Some(match inst {
        Add { rd, rs1, rs2 } => (rd, st.get(rs1).add_wrapping(st.get(rs2))),
        Sub { rd, rs1, rs2 } => (rd, st.get(rs1).sub_wrapping(st.get(rs2))),
        And { rd, rs1, rs2 } => {
            let v = fold2(rs1, rs2, |a, b| a & b).unwrap_or_else(|| {
                // x & y never exceeds either operand.
                Interval { lo: 0, hi: st.get(rs1).hi.min(st.get(rs2).hi) }
            });
            (rd, v)
        }
        Or { rd, rs1, rs2 } => {
            let v = fold2(rs1, rs2, |a, b| a | b).unwrap_or(TOP);
            (rd, v)
        }
        Xor { rd, rs1, rs2 } => (rd, fold2(rs1, rs2, |a, b| a ^ b).unwrap_or(TOP)),
        Sll { rd, rs1, rs2 } => (rd, fold2(rs1, rs2, |a, b| a << (b & 0xF)).unwrap_or(TOP)),
        Srl { rd, rs1, rs2 } => {
            let v = fold2(rs1, rs2, |a, b| a >> (b & 0xF))
                .unwrap_or(Interval { lo: 0, hi: st.get(rs1).hi });
            (rd, v)
        }
        Sra { rd, rs1, rs2 } => {
            (rd, fold2(rs1, rs2, |a, b| ((a as i16) >> (b & 0xF)) as u16).unwrap_or(TOP))
        }
        Mul { rd, rs1, rs2 } => {
            let v = fold2(rs1, rs2, |a, b| (i32::from(a as i16) * i32::from(b as i16)) as u16)
                .unwrap_or(TOP);
            (rd, v)
        }
        Mulh { rd, rs1, rs2 } => {
            let v =
                fold2(rs1, rs2, |a, b| ((i32::from(a as i16) * i32::from(b as i16)) >> 16) as u16)
                    .unwrap_or(TOP);
            (rd, v)
        }
        Slt { rd, rs1, rs2 } => {
            let v = fold2(rs1, rs2, |a, b| u16::from((a as i16) < (b as i16)))
                .unwrap_or(Interval { lo: 0, hi: 1 });
            (rd, v)
        }
        Sltu { rd, rs1, rs2 } => {
            let v = fold2(rs1, rs2, |a, b| u16::from(a < b)).unwrap_or(Interval { lo: 0, hi: 1 });
            (rd, v)
        }
        Divu { rd, rs1, rs2 } => {
            let v = fold2(rs1, rs2, |a, b| a.checked_div(b).unwrap_or(0xFFFF)).unwrap_or(TOP);
            (rd, v)
        }
        Remu { rd, rs1, rs2 } => {
            let v = fold2(rs1, rs2, |a, b| if b == 0 { a } else { a % b }).unwrap_or(TOP);
            (rd, v)
        }
        Addi { rd, rs1, imm } => (rd, st.get(rs1).add_const(imm as u16)),
        Andi { rd, rs1, imm } => {
            let v =
                fold1(rs1, &|a| a & imm).unwrap_or(Interval { lo: 0, hi: imm.min(st.get(rs1).hi) });
            (rd, v)
        }
        Ori { rd, rs1, imm } => {
            // x | imm sets at least imm's bits.
            let v = fold1(rs1, &|a| a | imm).unwrap_or(Interval { lo: imm, hi: u16::MAX });
            (rd, v)
        }
        Xori { rd, rs1, imm } => (rd, fold1(rs1, &|a| a ^ imm).unwrap_or(TOP)),
        Slli { rd, rs1, shamt } => {
            let src = st.get(rs1);
            let v = if let Some(a) = src.as_const() {
                Interval::exact(a << shamt)
            } else if u32::from(src.hi) << shamt <= 0xFFFF {
                // No bit falls off the top, so shifting is monotone.
                Interval { lo: src.lo << shamt, hi: src.hi << shamt }
            } else {
                TOP
            };
            (rd, v)
        }
        Srli { rd, rs1, shamt } => {
            let src = st.get(rs1);
            (rd, Interval { lo: src.lo >> shamt, hi: src.hi >> shamt })
        }
        Srai { rd, rs1, shamt } => {
            (rd, fold1(rs1, &|a| ((a as i16) >> shamt) as u16).unwrap_or(TOP))
        }
        Slti { rd, rs1, imm } => {
            let v =
                fold1(rs1, &|a| u16::from((a as i16) < imm)).unwrap_or(Interval { lo: 0, hi: 1 });
            (rd, v)
        }
        Li { rd, imm } => (rd, Interval::exact(imm)),
        Lw { rd, .. } | In { rd, .. } => (rd, TOP),
        // The link value (pc + 1) is truncated to 16 bits by the
        // register file; keep it exact when it fits.
        Jal { rd, .. } | Jalr { rd, .. } => (rd, Interval::exact((pc + 1) as u16)),
        Sw { .. }
        | Beq { .. }
        | Bne { .. }
        | Blt { .. }
        | Bge { .. }
        | Bltu { .. }
        | Bgeu { .. }
        | Nop
        | Halt
        | Ckpt
        | Out { .. } => return None,
    })
}

/// The address interval a `lw`/`sw` at `pc` may touch under `st`.
#[must_use]
pub fn mem_access(inst: Inst, st: &RegState, pc: u32) -> Option<MemAccess> {
    match inst {
        Inst::Lw { rs1, offset, .. } => Some(MemAccess {
            pc,
            kind: AccessKind::Read,
            addr: st.get(rs1).add_const(offset as u16),
        }),
        Inst::Sw { rs1, offset, .. } => Some(MemAccess {
            pc,
            kind: AccessKind::Write,
            addr: st.get(rs1).add_const(offset as u16),
        }),
        _ => None,
    }
}

/// Applies one instruction to the abstract state.
fn transfer(inst: Inst, st: &mut RegState, pc: u32) {
    if let Some((rd, v)) = eval_alu(inst, st, pc) {
        st.set(rd, v);
    }
}

/// Refines `st` along a conditional-branch edge. Returns `None` when
/// the edge is statically infeasible (the branch condition contradicts
/// the interval state). Signed comparisons are left unrefined — sound,
/// just less precise.
fn refine(st: &RegState, inst: Inst, taken: bool) -> Option<RegState> {
    use Inst::*;
    let mut out = st.clone();
    match (inst, taken) {
        // Equality holds: both registers collapse onto their overlap.
        (Beq { rs1, rs2, .. }, true) | (Bne { rs1, rs2, .. }, false) => {
            let both = st.get(rs1).intersect(st.get(rs2))?;
            out.set(rs1, both);
            out.set(rs2, both);
        }
        // Inequality holds: trim a matching endpoint off the other side.
        (Beq { rs1, rs2, .. }, false) | (Bne { rs1, rs2, .. }, true) => {
            let trim = |v: Interval, c: u16| -> Option<Interval> {
                if v.as_const() == Some(c) {
                    None
                } else if v.lo == c {
                    Some(Interval { lo: c + 1, hi: v.hi })
                } else if v.hi == c {
                    Some(Interval { lo: v.lo, hi: c - 1 })
                } else {
                    Some(v)
                }
            };
            if let Some(c) = st.get(rs2).as_const() {
                out.set(rs1, trim(st.get(rs1), c)?);
            } else if let Some(c) = st.get(rs1).as_const() {
                out.set(rs2, trim(st.get(rs2), c)?);
            }
        }
        // rs1 <u rs2 holds.
        (Bltu { rs1, rs2, .. }, true) | (Bgeu { rs1, rs2, .. }, false) => {
            let a = st.get(rs1);
            let b = st.get(rs2);
            if b.hi == 0 || a.lo == u16::MAX {
                return None;
            }
            out.set(rs1, a.intersect(Interval { lo: 0, hi: b.hi - 1 })?);
            out.set(rs2, b.intersect(Interval { lo: a.lo + 1, hi: u16::MAX })?);
        }
        // rs1 >=u rs2 holds.
        (Bltu { rs1, rs2, .. }, false) | (Bgeu { rs1, rs2, .. }, true) => {
            let a = st.get(rs1);
            let b = st.get(rs2);
            out.set(rs1, a.intersect(Interval { lo: b.lo, hi: u16::MAX })?);
            out.set(rs2, b.intersect(Interval { lo: 0, hi: a.hi })?);
        }
        _ => {}
    }
    Some(out)
}

/// Runs the interval fixpoint over `cfg` and returns per-pc states and
/// memory-access intervals.
#[must_use]
pub fn analyze(cfg: &Cfg, thresholds: &BTreeSet<u16>) -> AbsInt {
    let n = cfg.blocks().len();
    let insts = cfg.insts();
    let mut in_state: Vec<Option<RegState>> = vec![None; n];
    let mut joins = vec![0u32; n];
    in_state[cfg.entry_block()] = Some(RegState::zeroed());

    let mut work: Vec<usize> = vec![cfg.entry_block()];
    let mut queued = vec![false; n];
    queued[cfg.entry_block()] = true;

    while let Some(b) = work.pop() {
        queued[b] = false;
        let Some(mut st) = in_state[b].clone() else { continue };
        let block = cfg.blocks()[b];
        for pc in block.start..=block.end {
            transfer(insts[pc as usize], &mut st, pc);
        }
        let term = insts[block.end as usize];
        for edge in cfg.succs(b) {
            let out = match edge.kind {
                EdgeKind::Taken => refine(&st, term, true),
                EdgeKind::Fall if term.is_branch() => refine(&st, term, false),
                _ => Some(st.clone()),
            };
            let Some(out) = out else { continue };
            let (next, grew) = match &in_state[edge.to] {
                None => (out, true),
                Some(old) => {
                    let joined = old.join(&out);
                    if joined == *old {
                        (joined, false)
                    } else {
                        joins[edge.to] += 1;
                        if joins[edge.to] > WIDEN_AFTER {
                            (old.widen(&joined, thresholds), true)
                        } else {
                            (joined, true)
                        }
                    }
                }
            };
            if grew {
                in_state[edge.to] = Some(next);
                if !queued[edge.to] {
                    queued[edge.to] = true;
                    work.push(edge.to);
                }
            } else {
                in_state[edge.to] = Some(next);
            }
        }
    }

    // Final stable pass: per-pc states and access intervals.
    let mut before: Vec<Option<RegState>> = vec![None; insts.len()];
    let mut accesses = Vec::new();
    for (b, block) in cfg.blocks().iter().enumerate() {
        let Some(mut st) = in_state[b].clone() else { continue };
        for pc in block.start..=block.end {
            before[pc as usize] = Some(st.clone());
            if let Some(acc) = mem_access(insts[pc as usize], &st, pc) {
                accesses.push(acc);
            }
            transfer(insts[pc as usize], &mut st, pc);
        }
    }
    accesses.sort_by_key(|a| a.pc);
    AbsInt { before, accesses }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_isa::asm::assemble;

    fn absint_of(src: &str) -> (Cfg, AbsInt) {
        let p = assemble(src).expect("assembles");
        let cfg = Cfg::build(&p).expect("cfg");
        let t = thresholds(&p, cfg.insts());
        let a = analyze(&cfg, &t);
        (cfg, a)
    }

    #[test]
    fn constants_propagate_through_straight_line() {
        let (_, a) = absint_of("li r1, 10\naddi r2, r1, 5\nhalt");
        let st = a.before[2].as_ref().unwrap();
        assert_eq!(st.get(Reg::R2).as_const(), Some(15));
    }

    #[test]
    fn constant_address_load_is_exact() {
        let (_, a) = absint_of("li r1, 0x80\nlw r2, 2(r1)\nhalt");
        let acc = a.access_at(1).unwrap();
        assert_eq!(acc.kind, AccessKind::Read);
        assert_eq!(acc.addr, Interval::exact(0x82));
    }

    #[test]
    fn loop_pointer_stays_bounded_by_li_threshold() {
        // r3 walks 32..64; the bne bound 64 is a li constant, so
        // widening should stop at it instead of 0xFFFF.
        let src = "li r3, 32\nli r4, 64\nloop: sw r3, 0(r3)\naddi r3, r3, 1\n\
                   bne r3, r4, loop\nhalt";
        let (_, a) = absint_of(src);
        let acc = a.access_at(2).unwrap();
        assert_eq!(acc.kind, AccessKind::Write);
        assert!(acc.addr.lo >= 32, "lo = {}", acc.addr.lo);
        assert!(acc.addr.hi <= 64, "hi = {}", acc.addr.hi);
    }

    #[test]
    fn infeasible_equal_edge_is_pruned() {
        // r1 = 1 so `beq r1, r0` can never be taken; the target block
        // keeps r2's constant from the fall-through path only.
        let src = "li r1, 1\nli r2, 7\nbeq r1, r0, 1\nnop\nhalt";
        let (_, a) = absint_of(src);
        let st = a.before[4].as_ref().unwrap();
        assert_eq!(st.get(Reg::R2).as_const(), Some(7));
    }

    #[test]
    fn wrapping_add_collapses_to_top_only_on_split() {
        let i = Interval { lo: 0xFFFE, hi: 0xFFFF };
        assert_eq!(i.add_const(3), Interval { lo: 1, hi: 2 });
        let split = Interval { lo: 1, hi: 0xFFFF }.add_const(1);
        // hi wraps, lo does not: must give up.
        assert_eq!(split, TOP);
    }
}
