//! Classic bit-vector dataflow: register liveness (backward) at
//! basic-block granularity with per-pc expansion.
//!
//! Registers are tracked as 16-bit masks (bit *i* = `r<i>`); `r0` is
//! hardwired zero, never needs preserving, and is masked out of every
//! use/def set so it can never appear live.

use nvp_isa::{Inst, Reg};

use crate::cfg::Cfg;

/// Bit mask for one register; `r0` maps to no bits.
fn bit(r: Reg) -> u16 {
    if r.is_zero() {
        0
    } else {
        1 << r.index()
    }
}

/// Registers read by `inst`, as a mask (`r0` excluded).
#[must_use]
pub fn uses_mask(inst: Inst) -> u16 {
    use Inst::*;
    match inst {
        Add { rs1, rs2, .. }
        | Sub { rs1, rs2, .. }
        | And { rs1, rs2, .. }
        | Or { rs1, rs2, .. }
        | Xor { rs1, rs2, .. }
        | Sll { rs1, rs2, .. }
        | Srl { rs1, rs2, .. }
        | Sra { rs1, rs2, .. }
        | Mul { rs1, rs2, .. }
        | Mulh { rs1, rs2, .. }
        | Slt { rs1, rs2, .. }
        | Sltu { rs1, rs2, .. }
        | Divu { rs1, rs2, .. }
        | Remu { rs1, rs2, .. }
        | Sw { rs2, rs1, .. }
        | Beq { rs1, rs2, .. }
        | Bne { rs1, rs2, .. }
        | Blt { rs1, rs2, .. }
        | Bge { rs1, rs2, .. }
        | Bltu { rs1, rs2, .. }
        | Bgeu { rs1, rs2, .. } => bit(rs1) | bit(rs2),
        Addi { rs1, .. }
        | Andi { rs1, .. }
        | Ori { rs1, .. }
        | Xori { rs1, .. }
        | Slli { rs1, .. }
        | Srli { rs1, .. }
        | Srai { rs1, .. }
        | Slti { rs1, .. }
        | Lw { rs1, .. }
        | Jalr { rs1, .. }
        | Out { rs1, .. } => bit(rs1),
        Li { .. } | Jal { .. } | Nop | Halt | Ckpt | In { .. } => 0,
    }
}

/// The register written by `inst`, as a mask (`r0` writes excluded).
#[must_use]
pub fn def_mask(inst: Inst) -> u16 {
    use Inst::*;
    match inst {
        Add { rd, .. }
        | Sub { rd, .. }
        | And { rd, .. }
        | Or { rd, .. }
        | Xor { rd, .. }
        | Sll { rd, .. }
        | Srl { rd, .. }
        | Sra { rd, .. }
        | Mul { rd, .. }
        | Mulh { rd, .. }
        | Slt { rd, .. }
        | Sltu { rd, .. }
        | Divu { rd, .. }
        | Remu { rd, .. }
        | Addi { rd, .. }
        | Andi { rd, .. }
        | Ori { rd, .. }
        | Xori { rd, .. }
        | Slli { rd, .. }
        | Srli { rd, .. }
        | Srai { rd, .. }
        | Slti { rd, .. }
        | Li { rd, .. }
        | Lw { rd, .. }
        | Jal { rd, .. }
        | Jalr { rd, .. }
        | In { rd, .. } => bit(rd),
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
        | Out { .. } => 0,
    }
}

/// Per-pc live-in register masks. A register is live at `pc` if some
/// path from `pc` reads it before writing it; at a backup taken just
/// before `pc` executes, exactly these registers must be restored for
/// the resumed execution to behave identically.
#[must_use]
pub fn liveness(cfg: &Cfg) -> Vec<u16> {
    let insts = cfg.insts();
    let n = cfg.blocks().len();

    // Block summaries: `use_b` = read before any write inside the
    // block, `def_b` = written inside the block.
    let mut use_b = vec![0u16; n];
    let mut def_b = vec![0u16; n];
    for (b, block) in cfg.blocks().iter().enumerate() {
        for pc in block.start..=block.end {
            let i = insts[pc as usize];
            use_b[b] |= uses_mask(i) & !def_b[b];
            def_b[b] |= def_mask(i);
        }
    }

    let mut live_in = vec![0u16; n];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n).rev() {
            let mut out = 0u16;
            for e in cfg.succs(b) {
                out |= live_in[e.to];
            }
            let new_in = use_b[b] | (out & !def_b[b]);
            if new_in != live_in[b] {
                live_in[b] = new_in;
                changed = true;
            }
        }
    }

    // Expand to per-pc masks by walking each block backward.
    let mut per_pc = vec![0u16; insts.len()];
    for (b, block) in cfg.blocks().iter().enumerate() {
        let mut live = 0u16;
        for e in cfg.succs(b) {
            live |= live_in[e.to];
        }
        for pc in (block.start..=block.end).rev() {
            let i = insts[pc as usize];
            live = uses_mask(i) | (live & !def_mask(i));
            per_pc[pc as usize] = live;
        }
    }
    per_pc
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_isa::asm::assemble;

    fn cfg_of(src: &str) -> Cfg {
        Cfg::build(&assemble(src).expect("assembles")).expect("cfg")
    }

    #[test]
    fn live_in_tracks_reads_back_to_definitions() {
        // r1 defined at 0, read at 2: live at pc 1 and 2, dead after.
        let c = cfg_of("li r1, 4\nnop\nsw r1, 0(r2)\nhalt");
        let live = liveness(&c);
        assert_ne!(live[1] & (1 << 1), 0, "r1 live before its read");
        assert_eq!(live[3] & (1 << 1), 0, "r1 dead after last read");
        // r2 (the base address) is read at pc 2 and never written: live
        // from entry.
        assert_ne!(live[0] & (1 << 2), 0);
    }

    #[test]
    fn r0_is_never_live() {
        let c = cfg_of("sw r0, 0(r0)\nbeq r0, r0, -1\nhalt");
        for mask in liveness(&c) {
            assert_eq!(mask & 1, 0);
        }
    }

    #[test]
    fn loop_carried_register_stays_live_around_backedge() {
        let c = cfg_of("li r1, 8\nloop: addi r2, r2, 1\nbne r2, r1, loop\nhalt");
        let live = liveness(&c);
        // The loop bound r1 is live throughout the loop body.
        assert_ne!(live[1] & (1 << 1), 0);
        assert_ne!(live[2] & (1 << 1), 0);
    }
}
