//! Basic-block boundary analysis over decoded instruction streams.
//!
//! A *basic block* is a maximal straight-line run of instructions with a
//! single entry (its **leader**) and a single exit (its **terminator** —
//! any control transfer, `halt`, or `ckpt` — or the fall-through edge
//! into the next leader). The `nvp-sim` block engine partitions a
//! program with [`leaders`] at load time and fuses each block's cost
//! accounting; the analysis lives here because block boundaries are a
//! property of the instruction set, not of any particular simulator.

use crate::Inst;

/// Target of a taken branch at `pc` with signed word `offset` (relative
/// to `pc + 1`, the NV16 branch convention).
///
/// A displacement below address 0 saturates to `u32::MAX`, an address no
/// real image can contain, so the following fetch faults instead of
/// silently wrapping.
#[inline]
#[must_use]
pub fn branch_target(pc: u32, offset: i16) -> u32 {
    let target = i64::from(pc) + 1 + i64::from(offset);
    u32::try_from(target).unwrap_or(u32::MAX)
}

impl Inst {
    /// Returns `true` if this instruction ends a basic block: every
    /// control transfer (conditional branches, `jal`, `jalr`), `halt`,
    /// and `ckpt`.
    ///
    /// `ckpt` terminates a block even though control falls through,
    /// because platforms must observe the checkpoint request before the
    /// next instruction executes.
    #[must_use]
    pub fn is_block_terminator(&self) -> bool {
        self.is_branch()
            | matches!(self, Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Halt | Inst::Ckpt)
    }

    /// The statically known target of a control transfer at `pc`: the
    /// taken-path target for conditional branches, the absolute target
    /// for `jal`. `None` for everything else (including `jalr`, whose
    /// target is only known at run time).
    #[must_use]
    pub fn static_target(&self, pc: u32) -> Option<u32> {
        match *self {
            Inst::Beq { offset, .. }
            | Inst::Bne { offset, .. }
            | Inst::Blt { offset, .. }
            | Inst::Bge { offset, .. }
            | Inst::Bltu { offset, .. }
            | Inst::Bgeu { offset, .. } => Some(branch_target(pc, offset)),
            Inst::Jal { target, .. } => Some(target),
            _ => None,
        }
    }
}

/// Marks the basic-block leaders of `code`: `leaders[pc]` is `true` iff
/// address `pc` starts a block. Leaders are the entry point, every
/// statically known control-transfer target (within the image), and the
/// instruction following any terminator.
///
/// Addresses reachable only dynamically (through `jalr`, or by restoring
/// a snapshot taken mid-block) are *not* leaders; an execution engine
/// entering at such an address must run the rest of the enclosing block
/// (or single-step) until it reaches a leader again.
#[must_use]
pub fn leaders(code: &[Inst], entry: u32) -> Vec<bool> {
    let mut is_leader = vec![false; code.len()];
    if let Some(slot) = is_leader.get_mut(entry as usize) {
        *slot = true;
    }
    for (pc, inst) in code.iter().enumerate() {
        if !inst.is_block_terminator() {
            continue;
        }
        if let Some(slot) = is_leader.get_mut(pc + 1) {
            *slot = true;
        }
        let target = inst.static_target(u32::try_from(pc).unwrap_or(u32::MAX));
        if let Some(slot) = target.and_then(|t| is_leader.get_mut(t as usize)) {
            *slot = true;
        }
    }
    is_leader
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn leaders_of(src: &str) -> Vec<bool> {
        let p = assemble(src).expect("assembles");
        let code: Vec<Inst> = p.code().iter().map(|&w| Inst::decode(w).expect("decodes")).collect();
        leaders(&code, p.entry())
    }

    #[test]
    fn straight_line_has_single_leader() {
        assert_eq!(leaders_of("nop\nnop\nnop\nhalt"), vec![true, false, false, false]);
    }

    #[test]
    fn branch_target_and_fallthrough_are_leaders() {
        // 0: li (entry)  1: bne -> 3  2: nop (fall-through leader)
        // 3: nop (target leader)  4: halt  (5 would follow halt; none)
        let l = leaders_of("li r1, 1\nbne r1, r0, 1\nnop\nnop\nhalt");
        assert_eq!(l, vec![true, false, true, true, false]);
    }

    #[test]
    fn backward_branch_marks_loop_head() {
        // 0: li (entry)  1: addi (loop head, branch target)
        // 2: bne -> 1    3: halt (fall-through leader)
        let l = leaders_of("li r1, 4\nx: addi r1, r1, -1\nbne r1, r0, x\nhalt");
        assert_eq!(l, vec![true, true, false, true]);
    }

    #[test]
    fn ckpt_and_jal_split_blocks() {
        // 0: ckpt  1: nop (post-ckpt leader)  2: jal -> 0  3: halt
        let l = leaders_of("ckpt\nnop\njal r0, 0\nhalt");
        assert_eq!(l, vec![true, true, false, true]);
    }

    #[test]
    fn out_of_range_targets_are_ignored() {
        // Branch below zero and past the end: no leader slots to mark.
        let l = leaders_of("beq r0, r0, -5\nbeq r0, r0, 100");
        assert_eq!(l, vec![true, true]);
    }

    #[test]
    fn terminator_classification() {
        assert!(Inst::Halt.is_block_terminator());
        assert!(Inst::Ckpt.is_block_terminator());
        assert!(
            Inst::Jalr { rd: crate::Reg::R0, rs1: crate::Reg::R1, offset: 0 }.is_block_terminator()
        );
        assert!(!Inst::Nop.is_block_terminator());
        assert!(
            !Inst::Lw { rd: crate::Reg::R1, rs1: crate::Reg::R0, offset: 0 }.is_block_terminator()
        );
    }

    #[test]
    fn static_targets() {
        assert_eq!(
            Inst::Beq { rs1: crate::Reg::R0, rs2: crate::Reg::R0, offset: 3 }.static_target(10),
            Some(14)
        );
        assert_eq!(Inst::Jal { rd: crate::Reg::R0, target: 7 }.static_target(10), Some(7));
        assert_eq!(
            Inst::Jalr { rd: crate::Reg::R0, rs1: crate::Reg::R1, offset: 0 }.static_target(10),
            None
        );
        assert_eq!(Inst::Nop.static_target(10), None);
    }

    #[test]
    fn branch_target_saturates_below_zero() {
        assert_eq!(branch_target(2, -5), u32::MAX);
        assert_eq!(branch_target(2, -3), 0);
        assert_eq!(branch_target(0, 4), 5);
    }
}
