//! Basic-block fused execution plans.
//!
//! At load time the predecoded image is partitioned into basic blocks
//! (leaders computed by `nvp_isa::blocks`), and each block's body is
//! lowered to a flat [`MicroOp`] list with pre-extracted register slots,
//! pre-converted immediates, and per-op cost. [`Machine::run_blocks`]
//! (`crate::Machine::run_blocks`) then executes a whole block against a
//! local register file without per-instruction dispatch, fetch bounds
//! checks, or per-step counter stores, applying the block's integer
//! accounting as fused adds at the terminator.
//!
//! Energy accounting stays *per-op, in program order*: f64 addition is
//! not associative, so the block engine performs exactly the same
//! sequence of `+=` operations as [`Machine::step`](crate::Machine::step)
//! to keep totals bit-identical.

use nvp_isa::blocks::branch_target;
use nvp_isa::{Inst, Reg};

use crate::machine::Decoded;

/// Register-file slot addressing for block execution: slots `0..=15`
/// mirror the architectural registers; slot 16 absorbs writes to `r0`
/// (which always reads as zero and is never written through `wslot`).
pub(crate) const DISCARD_SLOT: u8 = 16;

/// Number of local register-file slots ([`DISCARD_SLOT`] + 1).
pub(crate) const NUM_SLOTS: usize = 17;

#[inline]
fn rslot(r: Reg) -> u8 {
    r.index() as u8
}

#[inline]
fn wslot(r: Reg) -> u8 {
    if r.is_zero() {
        DISCARD_SLOT
    } else {
        r.index() as u8
    }
}

/// A lowered straight-line instruction: operand slots pre-extracted,
/// immediates pre-converted to their operational form.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MicroKind {
    Add {
        d: u8,
        a: u8,
        b: u8,
    },
    Sub {
        d: u8,
        a: u8,
        b: u8,
    },
    And {
        d: u8,
        a: u8,
        b: u8,
    },
    Or {
        d: u8,
        a: u8,
        b: u8,
    },
    Xor {
        d: u8,
        a: u8,
        b: u8,
    },
    Sll {
        d: u8,
        a: u8,
        b: u8,
    },
    Srl {
        d: u8,
        a: u8,
        b: u8,
    },
    Sra {
        d: u8,
        a: u8,
        b: u8,
    },
    Mul {
        d: u8,
        a: u8,
        b: u8,
    },
    Mulh {
        d: u8,
        a: u8,
        b: u8,
    },
    Slt {
        d: u8,
        a: u8,
        b: u8,
    },
    Sltu {
        d: u8,
        a: u8,
        b: u8,
    },
    Divu {
        d: u8,
        a: u8,
        b: u8,
    },
    Remu {
        d: u8,
        a: u8,
        b: u8,
    },
    /// `imm` is the already-wrapped u16 addend (`imm as u16` of the i16).
    Addi {
        d: u8,
        a: u8,
        imm: u16,
    },
    Andi {
        d: u8,
        a: u8,
        imm: u16,
    },
    Ori {
        d: u8,
        a: u8,
        imm: u16,
    },
    Xori {
        d: u8,
        a: u8,
        imm: u16,
    },
    Slli {
        d: u8,
        a: u8,
        shamt: u8,
    },
    Srli {
        d: u8,
        a: u8,
        shamt: u8,
    },
    Srai {
        d: u8,
        a: u8,
        shamt: u8,
    },
    Slti {
        d: u8,
        a: u8,
        imm: i16,
    },
    Li {
        d: u8,
        imm: u16,
    },
    /// `offset` is the already-wrapped u16 displacement.
    Lw {
        d: u8,
        a: u8,
        offset: u16,
    },
    Sw {
        s: u8,
        a: u8,
        offset: u16,
    },
    Nop,
    /// `port` is the raw (unmasked) port byte, as logged by `step()`.
    Out {
        port: u8,
        s: u8,
    },
    /// `port` is pre-masked to `0..16`.
    In {
        d: u8,
        port: u8,
    },
}

/// One lowered body instruction plus its fixed cost.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MicroOp {
    pub(crate) kind: MicroKind,
    pub(crate) cycles: u32,
    pub(crate) energy_j: f64,
}

impl MicroOp {
    /// Lowers a non-terminator instruction. Returns `None` for block
    /// terminators, which are encoded in [`Term`] instead.
    fn lower(d: &Decoded) -> Option<MicroOp> {
        use Inst::*;
        let kind = match d.inst {
            Add { rd, rs1, rs2 } => MicroKind::Add { d: wslot(rd), a: rslot(rs1), b: rslot(rs2) },
            Sub { rd, rs1, rs2 } => MicroKind::Sub { d: wslot(rd), a: rslot(rs1), b: rslot(rs2) },
            And { rd, rs1, rs2 } => MicroKind::And { d: wslot(rd), a: rslot(rs1), b: rslot(rs2) },
            Or { rd, rs1, rs2 } => MicroKind::Or { d: wslot(rd), a: rslot(rs1), b: rslot(rs2) },
            Xor { rd, rs1, rs2 } => MicroKind::Xor { d: wslot(rd), a: rslot(rs1), b: rslot(rs2) },
            Sll { rd, rs1, rs2 } => MicroKind::Sll { d: wslot(rd), a: rslot(rs1), b: rslot(rs2) },
            Srl { rd, rs1, rs2 } => MicroKind::Srl { d: wslot(rd), a: rslot(rs1), b: rslot(rs2) },
            Sra { rd, rs1, rs2 } => MicroKind::Sra { d: wslot(rd), a: rslot(rs1), b: rslot(rs2) },
            Mul { rd, rs1, rs2 } => MicroKind::Mul { d: wslot(rd), a: rslot(rs1), b: rslot(rs2) },
            Mulh { rd, rs1, rs2 } => MicroKind::Mulh { d: wslot(rd), a: rslot(rs1), b: rslot(rs2) },
            Slt { rd, rs1, rs2 } => MicroKind::Slt { d: wslot(rd), a: rslot(rs1), b: rslot(rs2) },
            Sltu { rd, rs1, rs2 } => MicroKind::Sltu { d: wslot(rd), a: rslot(rs1), b: rslot(rs2) },
            Divu { rd, rs1, rs2 } => MicroKind::Divu { d: wslot(rd), a: rslot(rs1), b: rslot(rs2) },
            Remu { rd, rs1, rs2 } => MicroKind::Remu { d: wslot(rd), a: rslot(rs1), b: rslot(rs2) },
            Addi { rd, rs1, imm } => {
                MicroKind::Addi { d: wslot(rd), a: rslot(rs1), imm: imm as u16 }
            }
            Andi { rd, rs1, imm } => MicroKind::Andi { d: wslot(rd), a: rslot(rs1), imm },
            Ori { rd, rs1, imm } => MicroKind::Ori { d: wslot(rd), a: rslot(rs1), imm },
            Xori { rd, rs1, imm } => MicroKind::Xori { d: wslot(rd), a: rslot(rs1), imm },
            Slli { rd, rs1, shamt } => MicroKind::Slli { d: wslot(rd), a: rslot(rs1), shamt },
            Srli { rd, rs1, shamt } => MicroKind::Srli { d: wslot(rd), a: rslot(rs1), shamt },
            Srai { rd, rs1, shamt } => MicroKind::Srai { d: wslot(rd), a: rslot(rs1), shamt },
            Slti { rd, rs1, imm } => MicroKind::Slti { d: wslot(rd), a: rslot(rs1), imm },
            Li { rd, imm } => MicroKind::Li { d: wslot(rd), imm },
            Lw { rd, rs1, offset } => {
                MicroKind::Lw { d: wslot(rd), a: rslot(rs1), offset: offset as u16 }
            }
            Sw { rs2, rs1, offset } => {
                MicroKind::Sw { s: rslot(rs2), a: rslot(rs1), offset: offset as u16 }
            }
            Nop => MicroKind::Nop,
            Out { port, rs1 } => MicroKind::Out { port, s: rslot(rs1) },
            In { rd, port } => MicroKind::In { d: wslot(rd), port: port & 0xF },
            Beq { .. }
            | Bne { .. }
            | Blt { .. }
            | Bge { .. }
            | Bltu { .. }
            | Bgeu { .. }
            | Jal { .. }
            | Jalr { .. }
            | Halt
            | Ckpt => return None,
        };
        Some(MicroOp { kind, cycles: d.cycles_not_taken, energy_j: d.energy_not_taken_j })
    }
}

/// Conditional-branch comparison operator.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cond {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

/// How a basic block ends. All costs and targets that `step()` would
/// recompute are precomputed here; only data-dependent decisions
/// (branch direction, `jalr` target) remain for run time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Term {
    /// No terminator instruction: the next address is a leader, so the
    /// block simply continues there. Contributes zero cost.
    FallThrough {
        next: u32,
    },
    Branch {
        cond: Cond,
        a: u8,
        b: u8,
        taken_pc: u32,
        fall_pc: u32,
        cycles_nt: u32,
        cycles_t: u32,
        energy_nt_j: f64,
        energy_t_j: f64,
    },
    Jal {
        link_slot: u8,
        link_val: u16,
        target: u32,
        cycles: u32,
        energy_j: f64,
    },
    Jalr {
        link_slot: u8,
        link_val: u16,
        a: u8,
        offset: u16,
        cycles: u32,
        energy_j: f64,
    },
    Halt {
        cycles: u32,
        energy_j: f64,
    },
    Ckpt {
        next: u32,
        cycles: u32,
        energy_j: f64,
    },
}

/// One basic block's fused execution plan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockPlan {
    /// Leader address (word index of the first instruction).
    pub(crate) start: u32,
    /// Index of the first body op in [`BlockTable::ops`].
    pub(crate) op_start: u32,
    /// Number of body ops (one per straight-line instruction).
    pub(crate) op_len: u32,
    /// Retired-instruction count for a full execution of the block:
    /// body ops plus the terminator (fall-throughs count zero).
    pub(crate) insts: u64,
    /// Total cycles of the body ops (terminator excluded).
    pub(crate) body_cycles: u64,
    pub(crate) term: Term,
}

/// The per-image block partition: one [`BlockPlan`] per block plus the
/// flattened body-op pool and the pc → owning plan index map.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockTable {
    pub(crate) plans: Vec<BlockPlan>,
    pub(crate) ops: Vec<MicroOp>,
    /// `owner[pc]` is the index of the plan whose body or terminator
    /// holds `pc`; every address of the image has one.
    owner: Vec<u32>,
}

impl BlockTable {
    /// The plan whose body or terminator holds `pc` (entered mid-block
    /// when `pc` is not its leader), or `None` for a pc outside the
    /// image.
    #[inline]
    pub(crate) fn owner(&self, pc: u32) -> Option<u32> {
        self.owner.get(pc as usize).copied()
    }
}

fn make_term(d: &Decoded, pc: u32) -> Term {
    use Inst::*;
    let branch = |cond, rs1: Reg, rs2: Reg, offset: i16| Term::Branch {
        cond,
        a: rslot(rs1),
        b: rslot(rs2),
        taken_pc: branch_target(pc, offset),
        fall_pc: pc + 1,
        cycles_nt: d.cycles_not_taken,
        cycles_t: d.cycles_taken,
        energy_nt_j: d.energy_not_taken_j,
        energy_t_j: d.energy_taken_j,
    };
    match d.inst {
        Beq { rs1, rs2, offset } => branch(Cond::Eq, rs1, rs2, offset),
        Bne { rs1, rs2, offset } => branch(Cond::Ne, rs1, rs2, offset),
        Blt { rs1, rs2, offset } => branch(Cond::Lt, rs1, rs2, offset),
        Bge { rs1, rs2, offset } => branch(Cond::Ge, rs1, rs2, offset),
        Bltu { rs1, rs2, offset } => branch(Cond::Ltu, rs1, rs2, offset),
        Bgeu { rs1, rs2, offset } => branch(Cond::Geu, rs1, rs2, offset),
        Jal { rd, target } => Term::Jal {
            link_slot: wslot(rd),
            link_val: (pc + 1) as u16,
            target,
            cycles: d.cycles_not_taken,
            energy_j: d.energy_not_taken_j,
        },
        Jalr { rd, rs1, offset } => Term::Jalr {
            link_slot: wslot(rd),
            link_val: (pc + 1) as u16,
            a: rslot(rs1),
            offset: offset as u16,
            cycles: d.cycles_not_taken,
            energy_j: d.energy_not_taken_j,
        },
        Halt => Term::Halt { cycles: d.cycles_not_taken, energy_j: d.energy_not_taken_j },
        Ckpt => {
            Term::Ckpt { next: pc + 1, cycles: d.cycles_not_taken, energy_j: d.energy_not_taken_j }
        }
        _ => unreachable!("make_term called on a non-terminator"),
    }
}

impl BlockTable {
    /// Partitions a predecoded image into basic blocks and lowers each
    /// block body to micro-ops.
    ///
    /// A block starts at every leader and at every address no earlier
    /// block covers: code ahead of a non-zero entry has no leader before
    /// it, and only a dynamic jump reaches it. Every address of the
    /// image therefore belongs to exactly one block, and entries at a
    /// non-leader run as partial blocks.
    pub(crate) fn build(code: &[Decoded], entry: u32) -> BlockTable {
        let insts: Vec<Inst> = code.iter().map(|d| d.inst).collect();
        let is_leader = nvp_isa::blocks::leaders(&insts, entry);
        let mut table =
            BlockTable { plans: Vec::new(), ops: Vec::new(), owner: vec![0; code.len()] };
        let mut pc = 0usize;
        while pc < code.len() {
            let op_start = table.ops.len() as u32;
            let mut body_cycles = 0u64;
            let mut cur = pc;
            let term = loop {
                let d = &code[cur];
                if d.inst.is_block_terminator() {
                    break make_term(d, cur as u32);
                }
                let op = MicroOp::lower(d).expect("non-terminators lower to micro-ops");
                body_cycles += u64::from(op.cycles);
                table.ops.push(op);
                cur += 1;
                if cur >= code.len() || is_leader[cur] {
                    break Term::FallThrough { next: cur as u32 };
                }
            };
            let op_len = table.ops.len() as u32 - op_start;
            let (term_insts, next_scan) = match term {
                Term::FallThrough { next } => (0u64, next as usize),
                _ => (1u64, cur + 1),
            };
            let plan_idx = table.plans.len() as u32;
            let end = pc + op_len as usize + term_insts as usize;
            table.owner[pc..end].fill(plan_idx);
            table.plans.push(BlockPlan {
                start: pc as u32,
                op_start,
                op_len,
                insts: u64::from(op_len) + term_insts,
                body_cycles,
                term,
            });
            pc = next_scan;
        }
        table
    }
}
