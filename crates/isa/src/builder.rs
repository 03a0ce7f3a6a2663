//! Typed, label-aware program construction.
//!
//! [`ProgramBuilder`] is the programmatic alternative to the text
//! assembler: kernels generated from Rust code (parameterized unrolling,
//! computed constants) build instructions directly, with forward/backward
//! control flow expressed through [`Label`]s that are patched at
//! [`build`](ProgramBuilder::build) time.
//!
//! # Example
//!
//! ```
//! use nvp_isa::builder::ProgramBuilder;
//! use nvp_isa::Reg;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! let top = b.new_label();
//! b.li(Reg::R1, 10);
//! b.bind(top)?;
//! b.addi(Reg::R1, Reg::R1, -1);
//! b.bnez(Reg::R1, top);
//! b.halt();
//! let program = b.build()?;
//! assert_eq!(program.code().len(), 4);
//! # Ok(())
//! # }
//! ```

use std::fmt;

use crate::{Inst, Program, Reg};

/// A control-flow label; create with [`ProgramBuilder::new_label`], place
/// with [`ProgramBuilder::bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Errors raised while building a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A label was referenced but never bound.
    UnboundLabel {
        /// The offending label.
        label: Label,
    },
    /// A label was bound twice.
    Rebound {
        /// The offending label.
        label: Label,
    },
    /// A branch displacement does not fit in 16 bits.
    BranchTooFar {
        /// Instruction address of the branch.
        at: u32,
        /// Required displacement.
        displacement: i64,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnboundLabel { label } => write!(f, "label {label:?} was never bound"),
            BuildError::Rebound { label } => write!(f, "label {label:?} bound twice"),
            BuildError::BranchTooFar { at, displacement } => {
                write!(f, "branch at {at} needs displacement {displacement}, out of range")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Which branch instruction a pending fixup expands to.
#[derive(Debug, Clone, Copy)]
enum BranchKind {
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
}

#[derive(Debug, Clone, Copy)]
enum Slot {
    Done(Inst),
    Branch { kind: BranchKind, rs1: Reg, rs2: Reg, target: Label },
    Jal { rd: Reg, target: Label },
}

/// Builds NV16 programs instruction by instruction.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    slots: Vec<Slot>,
    labels: Vec<Option<u32>>,
    data: Vec<(u16, Vec<u16>)>,
    entry: Option<Label>,
}

macro_rules! rrr_method {
    ($(#[$doc:meta])* $name:ident, $variant:ident) => {
        $(#[$doc])*
        pub fn $name(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
            self.push(Inst::$variant { rd, rs1, rs2 })
        }
    };
}

macro_rules! branch_method {
    ($(#[$doc:meta])* $name:ident, $kind:ident) => {
        $(#[$doc])*
        pub fn $name(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Self {
            self.slots.push(Slot::Branch { kind: BranchKind::$kind, rs1, rs2, target });
            self
        }
    };
}

impl ProgramBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current instruction address (where the next instruction lands).
    #[must_use]
    pub fn here(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Allocates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current address.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Rebound`] if the label is already bound.
    pub fn bind(&mut self, label: Label) -> Result<&mut Self, BuildError> {
        let slot = &mut self.labels[label.0];
        if slot.is_some() {
            return Err(BuildError::Rebound { label });
        }
        *slot = Some(self.slots.len() as u32);
        Ok(self)
    }

    /// Appends a raw instruction.
    pub fn push(&mut self, inst: Inst) -> &mut Self {
        self.slots.push(Slot::Done(inst));
        self
    }

    rrr_method!(/// `rd = rs1 + rs2`.
        add, Add);
    rrr_method!(/// `rd = rs1 - rs2`.
        sub, Sub);
    rrr_method!(/// `rd = rs1 & rs2`.
        and, And);
    rrr_method!(/// `rd = rs1 | rs2`.
        or, Or);
    rrr_method!(/// `rd = rs1 ^ rs2`.
        xor, Xor);
    rrr_method!(/// `rd = rs1 * rs2` (low half).
        mul, Mul);
    rrr_method!(/// `rd = rs1 * rs2` (high half).
        mulh, Mulh);
    rrr_method!(/// Signed less-than.
        slt, Slt);
    rrr_method!(/// Unsigned less-than.
        sltu, Sltu);
    rrr_method!(/// Unsigned division.
        divu, Divu);
    rrr_method!(/// Unsigned remainder.
        remu, Remu);

    /// `rd = rs1 + imm`.
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i16) -> &mut Self {
        self.push(Inst::Addi { rd, rs1, imm })
    }

    /// `rd = imm`.
    pub fn li(&mut self, rd: Reg, imm: u16) -> &mut Self {
        self.push(Inst::Li { rd, imm })
    }

    /// `rd = rs1 << shamt`.
    pub fn slli(&mut self, rd: Reg, rs1: Reg, shamt: u8) -> &mut Self {
        self.push(Inst::Slli { rd, rs1, shamt })
    }

    /// `rd = rs1 >> shamt` (logical).
    pub fn srli(&mut self, rd: Reg, rs1: Reg, shamt: u8) -> &mut Self {
        self.push(Inst::Srli { rd, rs1, shamt })
    }

    /// `rd = rs1 >> shamt` (arithmetic).
    pub fn srai(&mut self, rd: Reg, rs1: Reg, shamt: u8) -> &mut Self {
        self.push(Inst::Srai { rd, rs1, shamt })
    }

    /// `rd = dmem[rs1 + offset]`.
    pub fn lw(&mut self, rd: Reg, rs1: Reg, offset: i16) -> &mut Self {
        self.push(Inst::Lw { rd, rs1, offset })
    }

    /// `dmem[rs1 + offset] = rs2`.
    pub fn sw(&mut self, rs2: Reg, rs1: Reg, offset: i16) -> &mut Self {
        self.push(Inst::Sw { rs2, rs1, offset })
    }

    branch_method!(/// Branch to `target` if `rs1 == rs2`.
        beq, Beq);
    branch_method!(/// Branch to `target` if `rs1 != rs2`.
        bne, Bne);
    branch_method!(/// Branch to `target` if `rs1 < rs2` (signed).
        blt, Blt);
    branch_method!(/// Branch to `target` if `rs1 >= rs2` (signed).
        bge, Bge);
    branch_method!(/// Branch to `target` if `rs1 < rs2` (unsigned).
        bltu, Bltu);
    branch_method!(/// Branch to `target` if `rs1 >= rs2` (unsigned).
        bgeu, Bgeu);

    /// Branch to `target` if `rs == 0`.
    pub fn beqz(&mut self, rs: Reg, target: Label) -> &mut Self {
        self.beq(rs, Reg::R0, target)
    }

    /// Branch to `target` if `rs != 0`.
    pub fn bnez(&mut self, rs: Reg, target: Label) -> &mut Self {
        self.bne(rs, Reg::R0, target)
    }

    /// Unconditional jump to `target`.
    pub fn jmp(&mut self, target: Label) -> &mut Self {
        self.slots.push(Slot::Jal { rd: Reg::R0, target });
        self
    }

    /// Call `target`, linking into `r14`.
    pub fn call(&mut self, target: Label) -> &mut Self {
        self.slots.push(Slot::Jal { rd: crate::LINK_REG, target });
        self
    }

    /// Return through `r14`.
    pub fn ret(&mut self) -> &mut Self {
        self.push(Inst::Jalr { rd: Reg::R0, rs1: crate::LINK_REG, offset: 0 })
    }

    /// Copy `rs` into `rd`.
    pub fn mov(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.push(Inst::Add { rd, rs1: rs, rs2: Reg::R0 })
    }

    /// Stop execution.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Inst::Halt)
    }

    /// No-op.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Inst::Nop)
    }

    /// Program-requested checkpoint hint.
    pub fn ckpt(&mut self) -> &mut Self {
        self.push(Inst::Ckpt)
    }

    /// Write `rs` to output `port`.
    pub fn out(&mut self, port: u8, rs: Reg) -> &mut Self {
        self.push(Inst::Out { port, rs1: rs })
    }

    /// Read input `port` into `rd`.
    pub fn inp(&mut self, rd: Reg, port: u8) -> &mut Self {
        self.push(Inst::In { rd, port })
    }

    /// Adds an initialized data segment.
    pub fn data(&mut self, addr: u16, words: &[u16]) -> &mut Self {
        self.data.push((addr, words.to_vec()));
        self
    }

    /// Sets the entry point to a label (defaults to address 0).
    pub fn entry(&mut self, label: Label) -> &mut Self {
        self.entry = Some(label);
        self
    }

    /// Resolves all labels and produces the program image.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] for unbound labels or out-of-range branch
    /// displacements.
    pub fn build(&self) -> Result<Program, BuildError> {
        let resolve = |label: Label| -> Result<u32, BuildError> {
            self.labels[label.0].ok_or(BuildError::UnboundLabel { label })
        };
        let mut program = Program::new();
        for (pc, slot) in self.slots.iter().enumerate() {
            let inst = match *slot {
                Slot::Done(inst) => inst,
                Slot::Jal { rd, target } => Inst::Jal { rd, target: resolve(target)? },
                Slot::Branch { kind, rs1, rs2, target } => {
                    let dest = resolve(target)?;
                    let displacement = i64::from(dest) - pc as i64 - 1;
                    let offset = i16::try_from(displacement)
                        .map_err(|_| BuildError::BranchTooFar { at: pc as u32, displacement })?;
                    match kind {
                        BranchKind::Beq => Inst::Beq { rs1, rs2, offset },
                        BranchKind::Bne => Inst::Bne { rs1, rs2, offset },
                        BranchKind::Blt => Inst::Blt { rs1, rs2, offset },
                        BranchKind::Bge => Inst::Bge { rs1, rs2, offset },
                        BranchKind::Bltu => Inst::Bltu { rs1, rs2, offset },
                        BranchKind::Bgeu => Inst::Bgeu { rs1, rs2, offset },
                    }
                }
            };
            program.push(inst);
        }
        for (addr, words) in &self.data {
            program.add_data(*addr, words);
        }
        if let Some(label) = self.entry {
            program.set_entry(resolve(label)?);
        }
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn builder_matches_assembler() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        let done = b.new_label();
        b.li(Reg::R1, 10);
        b.li(Reg::R2, 0);
        b.bind(top).unwrap();
        b.add(Reg::R2, Reg::R2, Reg::R1);
        b.addi(Reg::R1, Reg::R1, -1);
        b.beqz(Reg::R1, done);
        b.jmp(top);
        b.bind(done).unwrap();
        b.halt();
        let built = b.build().unwrap();

        let assembled = assemble(
            "li r1, 10\nli r2, 0\ntop:\nadd r2, r2, r1\naddi r1, r1, -1\n\
             beqz r1, done\nj top\ndone:\nhalt",
        )
        .unwrap();
        assert_eq!(built.code(), assembled.code());
    }

    #[test]
    fn forward_and_backward_branches() {
        let mut b = ProgramBuilder::new();
        let fwd = b.new_label();
        b.beq(Reg::R0, Reg::R0, fwd); // forward +1
        b.nop();
        b.bind(fwd).unwrap();
        let back = b.new_label();
        b.bind(back).unwrap();
        b.bne(Reg::R1, Reg::R0, back); // backward -1
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(
            Inst::decode(p.code()[0]).unwrap(),
            Inst::Beq { rs1: Reg::R0, rs2: Reg::R0, offset: 1 }
        );
        assert_eq!(
            Inst::decode(p.code()[2]).unwrap(),
            Inst::Bne { rs1: Reg::R1, rs2: Reg::R0, offset: -1 }
        );
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        let ghost = b.new_label();
        b.jmp(ghost);
        assert!(matches!(b.build(), Err(BuildError::UnboundLabel { .. })));
    }

    #[test]
    fn rebinding_is_an_error() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.bind(l).unwrap();
        assert!(matches!(b.bind(l), Err(BuildError::Rebound { .. })));
    }

    #[test]
    fn entry_and_data() {
        let mut b = ProgramBuilder::new();
        b.nop();
        let main = b.new_label();
        b.bind(main).unwrap();
        b.halt();
        b.entry(main);
        b.data(0x80, &[1, 2, 3]);
        let p = b.build().unwrap();
        assert_eq!(p.entry(), 1);
        assert_eq!(p.data_segments()[0].words, vec![1, 2, 3]);
    }

    #[test]
    fn built_program_runs() {
        // Smoke test through Program only (no simulator dependency here):
        // the image decodes cleanly end to end.
        let mut b = ProgramBuilder::new();
        let f = b.new_label();
        b.call(f);
        b.halt();
        b.bind(f).unwrap();
        b.li(Reg::R3, 99);
        b.ret();
        let p = b.build().unwrap();
        for &word in p.code() {
            assert!(Inst::decode(word).is_ok());
        }
        assert_eq!(
            Inst::decode(p.code()[0]).unwrap(),
            Inst::Jal { rd: crate::LINK_REG, target: 2 }
        );
    }
}
