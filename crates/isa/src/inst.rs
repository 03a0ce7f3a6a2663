//! Instruction definitions and binary encoding.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::Reg;

/// Maximum jump target representable by `jal` (20-bit absolute word address).
pub const MAX_JAL_TARGET: u32 = (1 << 20) - 1;

// Opcode bytes. Grouped by format; gaps left for future extension.
mod op {
    pub const ADD: u8 = 0x01;
    pub const SUB: u8 = 0x02;
    pub const AND: u8 = 0x03;
    pub const OR: u8 = 0x04;
    pub const XOR: u8 = 0x05;
    pub const SLL: u8 = 0x06;
    pub const SRL: u8 = 0x07;
    pub const SRA: u8 = 0x08;
    pub const MUL: u8 = 0x09;
    pub const MULH: u8 = 0x0A;
    pub const SLT: u8 = 0x0B;
    pub const SLTU: u8 = 0x0C;
    pub const DIVU: u8 = 0x0D;
    pub const REMU: u8 = 0x0E;

    pub const ADDI: u8 = 0x20;
    pub const ANDI: u8 = 0x21;
    pub const ORI: u8 = 0x22;
    pub const XORI: u8 = 0x23;
    pub const SLLI: u8 = 0x24;
    pub const SRLI: u8 = 0x25;
    pub const SRAI: u8 = 0x26;
    pub const SLTI: u8 = 0x27;
    pub const LI: u8 = 0x28;
    pub const LW: u8 = 0x29;
    pub const SW: u8 = 0x2A;

    pub const BEQ: u8 = 0x40;
    pub const BNE: u8 = 0x41;
    pub const BLT: u8 = 0x42;
    pub const BGE: u8 = 0x43;
    pub const BLTU: u8 = 0x44;
    pub const BGEU: u8 = 0x45;

    pub const JAL: u8 = 0x50;
    pub const JALR: u8 = 0x51;

    pub const NOP: u8 = 0x60;
    pub const HALT: u8 = 0x61;
    pub const CKPT: u8 = 0x62;
    pub const OUT: u8 = 0x63;
    pub const IN: u8 = 0x64;
}

/// One NV16 instruction.
///
/// Arithmetic is 16-bit two's-complement with wrapping semantics. Branch
/// offsets are signed word displacements relative to the *next* instruction
/// (`pc + 1`). `jal` takes an absolute 20-bit word target.
///
/// # Example
///
/// ```
/// use nvp_isa::{Inst, Reg};
///
/// let i = Inst::Addi { rd: Reg::R1, rs1: Reg::R1, imm: -1 };
/// let word = i.encode();
/// assert_eq!(Inst::decode(word).unwrap(), i);
/// assert_eq!(i.to_string(), "addi r1, r1, -1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Inst {
    /// `rd = rs1 + rs2` (wrapping).
    Add {
        /// Destination register.
        rd: Reg,
        /// First operand.
        rs1: Reg,
        /// Second operand.
        rs2: Reg,
    },
    /// `rd = rs1 - rs2` (wrapping).
    Sub {
        /// Destination register.
        rd: Reg,
        /// First operand.
        rs1: Reg,
        /// Second operand.
        rs2: Reg,
    },
    /// `rd = rs1 & rs2`.
    And {
        /// Destination register.
        rd: Reg,
        /// First operand.
        rs1: Reg,
        /// Second operand.
        rs2: Reg,
    },
    /// `rd = rs1 | rs2`.
    Or {
        /// Destination register.
        rd: Reg,
        /// First operand.
        rs1: Reg,
        /// Second operand.
        rs2: Reg,
    },
    /// `rd = rs1 ^ rs2`.
    Xor {
        /// Destination register.
        rd: Reg,
        /// First operand.
        rs1: Reg,
        /// Second operand.
        rs2: Reg,
    },
    /// `rd = rs1 << (rs2 & 0xF)`.
    Sll {
        /// Destination register.
        rd: Reg,
        /// Value to shift.
        rs1: Reg,
        /// Shift amount (low 4 bits used).
        rs2: Reg,
    },
    /// `rd = rs1 >> (rs2 & 0xF)` (logical).
    Srl {
        /// Destination register.
        rd: Reg,
        /// Value to shift.
        rs1: Reg,
        /// Shift amount (low 4 bits used).
        rs2: Reg,
    },
    /// `rd = rs1 >> (rs2 & 0xF)` (arithmetic).
    Sra {
        /// Destination register.
        rd: Reg,
        /// Value to shift.
        rs1: Reg,
        /// Shift amount (low 4 bits used).
        rs2: Reg,
    },
    /// `rd = (rs1 * rs2) & 0xFFFF` — low half of the signed product.
    Mul {
        /// Destination register.
        rd: Reg,
        /// First factor.
        rs1: Reg,
        /// Second factor.
        rs2: Reg,
    },
    /// `rd = (rs1 * rs2) >> 16` — high half of the signed 32-bit product.
    Mulh {
        /// Destination register.
        rd: Reg,
        /// First factor.
        rs1: Reg,
        /// Second factor.
        rs2: Reg,
    },
    /// `rd = (rs1 <ₛ rs2) ? 1 : 0` (signed compare).
    Slt {
        /// Destination register.
        rd: Reg,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
    },
    /// `rd = (rs1 <ᵤ rs2) ? 1 : 0` (unsigned compare).
    Sltu {
        /// Destination register.
        rd: Reg,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
    },
    /// `rd = rs1 / rs2` (unsigned); `0xFFFF` when `rs2 == 0`.
    Divu {
        /// Destination register.
        rd: Reg,
        /// Dividend.
        rs1: Reg,
        /// Divisor.
        rs2: Reg,
    },
    /// `rd = rs1 % rs2` (unsigned); `rs1` when `rs2 == 0`.
    Remu {
        /// Destination register.
        rd: Reg,
        /// Dividend.
        rs1: Reg,
        /// Divisor.
        rs2: Reg,
    },
    /// `rd = rs1 + imm` (wrapping).
    Addi {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Signed immediate.
        imm: i16,
    },
    /// `rd = rs1 & imm`.
    Andi {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Bit-mask immediate.
        imm: u16,
    },
    /// `rd = rs1 | imm`.
    Ori {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Bit-mask immediate.
        imm: u16,
    },
    /// `rd = rs1 ^ imm`.
    Xori {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Bit-mask immediate.
        imm: u16,
    },
    /// `rd = rs1 << shamt`.
    Slli {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Shift amount in `0..16`.
        shamt: u8,
    },
    /// `rd = rs1 >> shamt` (logical).
    Srli {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Shift amount in `0..16`.
        shamt: u8,
    },
    /// `rd = rs1 >> shamt` (arithmetic).
    Srai {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Shift amount in `0..16`.
        shamt: u8,
    },
    /// `rd = (rs1 <ₛ imm) ? 1 : 0`.
    Slti {
        /// Destination register.
        rd: Reg,
        /// Left operand.
        rs1: Reg,
        /// Signed immediate right operand.
        imm: i16,
    },
    /// `rd = imm` — load a 16-bit immediate.
    Li {
        /// Destination register.
        rd: Reg,
        /// Immediate value (raw 16 bits).
        imm: u16,
    },
    /// `rd = dmem[rs1 + offset]`.
    Lw {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Signed word offset.
        offset: i16,
    },
    /// `dmem[rs1 + offset] = rs2`.
    Sw {
        /// Register holding the value to store.
        rs2: Reg,
        /// Base address register.
        rs1: Reg,
        /// Signed word offset.
        offset: i16,
    },
    /// Branch if `rs1 == rs2`.
    Beq {
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Signed word offset from `pc + 1`.
        offset: i16,
    },
    /// Branch if `rs1 != rs2`.
    Bne {
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Signed word offset from `pc + 1`.
        offset: i16,
    },
    /// Branch if `rs1 <ₛ rs2` (signed).
    Blt {
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Signed word offset from `pc + 1`.
        offset: i16,
    },
    /// Branch if `rs1 ≥ₛ rs2` (signed).
    Bge {
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Signed word offset from `pc + 1`.
        offset: i16,
    },
    /// Branch if `rs1 <ᵤ rs2` (unsigned).
    Bltu {
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Signed word offset from `pc + 1`.
        offset: i16,
    },
    /// Branch if `rs1 ≥ᵤ rs2` (unsigned).
    Bgeu {
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Signed word offset from `pc + 1`.
        offset: i16,
    },
    /// `rd = pc + 1; pc = target` — jump-and-link to an absolute address.
    Jal {
        /// Link register (use `r0` to discard).
        rd: Reg,
        /// Absolute word target in `0..2^20`.
        target: u32,
    },
    /// `rd = pc + 1; pc = rs1 + offset` — indirect jump-and-link.
    Jalr {
        /// Link register (use `r0` to discard).
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Signed word offset.
        offset: i16,
    },
    /// No operation.
    Nop,
    /// Stop execution; the program is complete.
    Halt,
    /// Program-requested checkpoint hint for software-managed platforms.
    Ckpt,
    /// Write `rs1` to output port `port`.
    Out {
        /// Port index in `0..16`.
        port: u8,
        /// Register holding the value to emit.
        rs1: Reg,
    },
    /// Read input port `port` into `rd`.
    In {
        /// Destination register.
        rd: Reg,
        /// Port index in `0..16`.
        port: u8,
    },
}

/// Error returned when decoding an instruction word fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    word: u32,
}

impl DecodeError {
    /// The raw word that could not be decoded.
    #[must_use]
    pub fn word(&self) -> u32 {
        self.word
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

#[inline]
fn enc_r(opc: u8, rd: Reg, rs1: Reg, rs2: Reg) -> u32 {
    (u32::from(opc) << 24) | (rd.field() << 20) | (rs1.field() << 16) | (rs2.field() << 12)
}

#[inline]
fn enc_i(opc: u8, rd: Reg, rs1: Reg, imm: u16) -> u32 {
    (u32::from(opc) << 24) | (rd.field() << 20) | (rs1.field() << 16) | u32::from(imm)
}

#[inline]
fn enc_j(opc: u8, rd: Reg, target: u32) -> u32 {
    debug_assert!(target <= MAX_JAL_TARGET);
    (u32::from(opc) << 24) | (rd.field() << 20) | (target & 0xF_FFFF)
}

impl Inst {
    /// Encodes the instruction into its 32-bit binary form.
    ///
    /// # Example
    ///
    /// ```
    /// use nvp_isa::Inst;
    /// assert_eq!(Inst::Nop.encode() >> 24, 0x60);
    /// ```
    #[must_use]
    pub fn encode(self) -> u32 {
        use Inst::*;
        match self {
            Add { rd, rs1, rs2 } => enc_r(op::ADD, rd, rs1, rs2),
            Sub { rd, rs1, rs2 } => enc_r(op::SUB, rd, rs1, rs2),
            And { rd, rs1, rs2 } => enc_r(op::AND, rd, rs1, rs2),
            Or { rd, rs1, rs2 } => enc_r(op::OR, rd, rs1, rs2),
            Xor { rd, rs1, rs2 } => enc_r(op::XOR, rd, rs1, rs2),
            Sll { rd, rs1, rs2 } => enc_r(op::SLL, rd, rs1, rs2),
            Srl { rd, rs1, rs2 } => enc_r(op::SRL, rd, rs1, rs2),
            Sra { rd, rs1, rs2 } => enc_r(op::SRA, rd, rs1, rs2),
            Mul { rd, rs1, rs2 } => enc_r(op::MUL, rd, rs1, rs2),
            Mulh { rd, rs1, rs2 } => enc_r(op::MULH, rd, rs1, rs2),
            Slt { rd, rs1, rs2 } => enc_r(op::SLT, rd, rs1, rs2),
            Sltu { rd, rs1, rs2 } => enc_r(op::SLTU, rd, rs1, rs2),
            Divu { rd, rs1, rs2 } => enc_r(op::DIVU, rd, rs1, rs2),
            Remu { rd, rs1, rs2 } => enc_r(op::REMU, rd, rs1, rs2),
            Addi { rd, rs1, imm } => enc_i(op::ADDI, rd, rs1, imm as u16),
            Andi { rd, rs1, imm } => enc_i(op::ANDI, rd, rs1, imm),
            Ori { rd, rs1, imm } => enc_i(op::ORI, rd, rs1, imm),
            Xori { rd, rs1, imm } => enc_i(op::XORI, rd, rs1, imm),
            Slli { rd, rs1, shamt } => enc_i(op::SLLI, rd, rs1, u16::from(shamt & 0xF)),
            Srli { rd, rs1, shamt } => enc_i(op::SRLI, rd, rs1, u16::from(shamt & 0xF)),
            Srai { rd, rs1, shamt } => enc_i(op::SRAI, rd, rs1, u16::from(shamt & 0xF)),
            Slti { rd, rs1, imm } => enc_i(op::SLTI, rd, rs1, imm as u16),
            Li { rd, imm } => enc_i(op::LI, rd, Reg::R0, imm),
            Lw { rd, rs1, offset } => enc_i(op::LW, rd, rs1, offset as u16),
            Sw { rs2, rs1, offset } => enc_i(op::SW, rs2, rs1, offset as u16),
            Beq { rs1, rs2, offset } => enc_i(op::BEQ, rs1, rs2, offset as u16),
            Bne { rs1, rs2, offset } => enc_i(op::BNE, rs1, rs2, offset as u16),
            Blt { rs1, rs2, offset } => enc_i(op::BLT, rs1, rs2, offset as u16),
            Bge { rs1, rs2, offset } => enc_i(op::BGE, rs1, rs2, offset as u16),
            Bltu { rs1, rs2, offset } => enc_i(op::BLTU, rs1, rs2, offset as u16),
            Bgeu { rs1, rs2, offset } => enc_i(op::BGEU, rs1, rs2, offset as u16),
            Jal { rd, target } => enc_j(op::JAL, rd, target),
            Jalr { rd, rs1, offset } => enc_i(op::JALR, rd, rs1, offset as u16),
            Nop => u32::from(op::NOP) << 24,
            Halt => u32::from(op::HALT) << 24,
            Ckpt => u32::from(op::CKPT) << 24,
            Out { port, rs1 } => {
                (u32::from(op::OUT) << 24) | (u32::from(port & 0xF) << 20) | (rs1.field() << 16)
            }
            In { rd, port } => {
                (u32::from(op::IN) << 24) | (rd.field() << 20) | (u32::from(port & 0xF) << 16)
            }
        }
    }

    /// Decodes a 32-bit instruction word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the opcode byte is not a defined NV16
    /// opcode. Operand fields are always in range by construction (4-bit
    /// register indices).
    pub fn decode(word: u32) -> Result<Inst, DecodeError> {
        use Inst::*;
        let opc = (word >> 24) as u8;
        let rd = Reg::from_field(word >> 20);
        let rs1 = Reg::from_field(word >> 16);
        let rs2 = Reg::from_field(word >> 12);
        let imm = (word & 0xFFFF) as u16;
        let simm = imm as i16;
        let shamt = (imm & 0xF) as u8;
        Ok(match opc {
            op::ADD => Add { rd, rs1, rs2 },
            op::SUB => Sub { rd, rs1, rs2 },
            op::AND => And { rd, rs1, rs2 },
            op::OR => Or { rd, rs1, rs2 },
            op::XOR => Xor { rd, rs1, rs2 },
            op::SLL => Sll { rd, rs1, rs2 },
            op::SRL => Srl { rd, rs1, rs2 },
            op::SRA => Sra { rd, rs1, rs2 },
            op::MUL => Mul { rd, rs1, rs2 },
            op::MULH => Mulh { rd, rs1, rs2 },
            op::SLT => Slt { rd, rs1, rs2 },
            op::SLTU => Sltu { rd, rs1, rs2 },
            op::DIVU => Divu { rd, rs1, rs2 },
            op::REMU => Remu { rd, rs1, rs2 },
            op::ADDI => Addi { rd, rs1, imm: simm },
            op::ANDI => Andi { rd, rs1, imm },
            op::ORI => Ori { rd, rs1, imm },
            op::XORI => Xori { rd, rs1, imm },
            op::SLLI => Slli { rd, rs1, shamt },
            op::SRLI => Srli { rd, rs1, shamt },
            op::SRAI => Srai { rd, rs1, shamt },
            op::SLTI => Slti { rd, rs1, imm: simm },
            op::LI => Li { rd, imm },
            op::LW => Lw { rd, rs1, offset: simm },
            op::SW => Sw { rs2: rd, rs1, offset: simm },
            op::BEQ => Beq { rs1: rd, rs2: rs1, offset: simm },
            op::BNE => Bne { rs1: rd, rs2: rs1, offset: simm },
            op::BLT => Blt { rs1: rd, rs2: rs1, offset: simm },
            op::BGE => Bge { rs1: rd, rs2: rs1, offset: simm },
            op::BLTU => Bltu { rs1: rd, rs2: rs1, offset: simm },
            op::BGEU => Bgeu { rs1: rd, rs2: rs1, offset: simm },
            op::JAL => Jal { rd, target: word & 0xF_FFFF },
            op::JALR => Jalr { rd, rs1, offset: simm },
            op::NOP => Nop,
            op::HALT => Halt,
            op::CKPT => Ckpt,
            op::OUT => Out { port: ((word >> 20) & 0xF) as u8, rs1 },
            op::IN => In { rd, port: ((word >> 16) & 0xF) as u8 },
            _ => return Err(DecodeError { word }),
        })
    }

    /// Returns `true` for conditional branches (`beq`..`bgeu`).
    #[must_use]
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Inst::Beq { .. }
                | Inst::Bne { .. }
                | Inst::Blt { .. }
                | Inst::Bge { .. }
                | Inst::Bltu { .. }
                | Inst::Bgeu { .. }
        )
    }

    /// Returns the mnemonic of this instruction (e.g. `"addi"`).
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        use Inst::*;
        match self {
            Add { .. } => "add",
            Sub { .. } => "sub",
            And { .. } => "and",
            Or { .. } => "or",
            Xor { .. } => "xor",
            Sll { .. } => "sll",
            Srl { .. } => "srl",
            Sra { .. } => "sra",
            Mul { .. } => "mul",
            Mulh { .. } => "mulh",
            Slt { .. } => "slt",
            Sltu { .. } => "sltu",
            Divu { .. } => "divu",
            Remu { .. } => "remu",
            Addi { .. } => "addi",
            Andi { .. } => "andi",
            Ori { .. } => "ori",
            Xori { .. } => "xori",
            Slli { .. } => "slli",
            Srli { .. } => "srli",
            Srai { .. } => "srai",
            Slti { .. } => "slti",
            Li { .. } => "li",
            Lw { .. } => "lw",
            Sw { .. } => "sw",
            Beq { .. } => "beq",
            Bne { .. } => "bne",
            Blt { .. } => "blt",
            Bge { .. } => "bge",
            Bltu { .. } => "bltu",
            Bgeu { .. } => "bgeu",
            Jal { .. } => "jal",
            Jalr { .. } => "jalr",
            Nop => "nop",
            Halt => "halt",
            Ckpt => "ckpt",
            Out { .. } => "out",
            In { .. } => "in",
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Inst::*;
        let m = self.mnemonic();
        match *self {
            Add { rd, rs1, rs2 }
            | Sub { rd, rs1, rs2 }
            | And { rd, rs1, rs2 }
            | Or { rd, rs1, rs2 }
            | Xor { rd, rs1, rs2 }
            | Sll { rd, rs1, rs2 }
            | Srl { rd, rs1, rs2 }
            | Sra { rd, rs1, rs2 }
            | Mul { rd, rs1, rs2 }
            | Mulh { rd, rs1, rs2 }
            | Slt { rd, rs1, rs2 }
            | Sltu { rd, rs1, rs2 }
            | Divu { rd, rs1, rs2 }
            | Remu { rd, rs1, rs2 } => write!(f, "{m} {rd}, {rs1}, {rs2}"),
            Addi { rd, rs1, imm } | Slti { rd, rs1, imm } => write!(f, "{m} {rd}, {rs1}, {imm}"),
            Andi { rd, rs1, imm } | Ori { rd, rs1, imm } | Xori { rd, rs1, imm } => {
                write!(f, "{m} {rd}, {rs1}, {imm:#x}")
            }
            Slli { rd, rs1, shamt } | Srli { rd, rs1, shamt } | Srai { rd, rs1, shamt } => {
                write!(f, "{m} {rd}, {rs1}, {shamt}")
            }
            Li { rd, imm } => write!(f, "li {rd}, {imm}"),
            Lw { rd, rs1, offset } => write!(f, "lw {rd}, {offset}({rs1})"),
            Sw { rs2, rs1, offset } => write!(f, "sw {rs2}, {offset}({rs1})"),
            Beq { rs1, rs2, offset }
            | Bne { rs1, rs2, offset }
            | Blt { rs1, rs2, offset }
            | Bge { rs1, rs2, offset }
            | Bltu { rs1, rs2, offset }
            | Bgeu { rs1, rs2, offset } => write!(f, "{m} {rs1}, {rs2}, {offset}"),
            Jal { rd, target } => write!(f, "jal {rd}, {target}"),
            Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {rs1}, {offset}"),
            Nop | Halt | Ckpt => write!(f, "{m}"),
            Out { port, rs1 } => write!(f, "out {port}, {rs1}"),
            In { rd, port } => write!(f, "in {rd}, {port}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_insts() -> Vec<Inst> {
        use Inst::*;
        let (a, b, c) = (Reg::R1, Reg::R2, Reg::R3);
        vec![
            Add { rd: a, rs1: b, rs2: c },
            Sub { rd: a, rs1: b, rs2: c },
            And { rd: a, rs1: b, rs2: c },
            Or { rd: a, rs1: b, rs2: c },
            Xor { rd: a, rs1: b, rs2: c },
            Sll { rd: a, rs1: b, rs2: c },
            Srl { rd: a, rs1: b, rs2: c },
            Sra { rd: a, rs1: b, rs2: c },
            Mul { rd: a, rs1: b, rs2: c },
            Mulh { rd: a, rs1: b, rs2: c },
            Slt { rd: a, rs1: b, rs2: c },
            Sltu { rd: a, rs1: b, rs2: c },
            Divu { rd: a, rs1: b, rs2: c },
            Remu { rd: a, rs1: b, rs2: c },
            Addi { rd: a, rs1: b, imm: -7 },
            Andi { rd: a, rs1: b, imm: 0xFF00 },
            Ori { rd: a, rs1: b, imm: 0x00FF },
            Xori { rd: a, rs1: b, imm: 0xFFFF },
            Slli { rd: a, rs1: b, shamt: 15 },
            Srli { rd: a, rs1: b, shamt: 1 },
            Srai { rd: a, rs1: b, shamt: 8 },
            Slti { rd: a, rs1: b, imm: -1 },
            Li { rd: a, imm: 0xDEAD },
            Lw { rd: a, rs1: b, offset: -4 },
            Sw { rs2: a, rs1: b, offset: 12 },
            Beq { rs1: a, rs2: b, offset: -2 },
            Bne { rs1: a, rs2: b, offset: 2 },
            Blt { rs1: a, rs2: b, offset: 100 },
            Bge { rs1: a, rs2: b, offset: -100 },
            Bltu { rs1: a, rs2: b, offset: 0 },
            Bgeu { rs1: a, rs2: b, offset: 1 },
            Jal { rd: Reg::R14, target: 0xF_FFFF },
            Jalr { rd: Reg::R0, rs1: Reg::R14, offset: 0 },
            Nop,
            Halt,
            Ckpt,
            Out { port: 15, rs1: c },
            In { rd: a, port: 3 },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for inst in sample_insts() {
            let word = inst.encode();
            assert_eq!(Inst::decode(word).unwrap(), inst, "round trip for {inst}");
        }
    }

    #[test]
    fn decode_rejects_bad_opcode() {
        assert!(Inst::decode(0xFF00_0000).is_err());
        assert!(Inst::decode(0x0000_0000).is_err());
        let err = Inst::decode(0x7F12_3456).unwrap_err();
        assert_eq!(err.word(), 0x7F12_3456);
        assert!(err.to_string().contains("0x7f123456"));
    }

    #[test]
    fn mnemonics_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for inst in sample_insts() {
            assert!(seen.insert(inst.mnemonic()), "dup mnemonic {}", inst.mnemonic());
        }
    }

    #[test]
    fn classification() {
        assert!(Inst::Beq { rs1: Reg::R0, rs2: Reg::R0, offset: 0 }.is_branch());
        assert!(!Inst::Nop.is_branch());
    }

    #[test]
    fn jal_target_masked() {
        let i = Inst::Jal { rd: Reg::R0, target: MAX_JAL_TARGET };
        assert_eq!(Inst::decode(i.encode()).unwrap(), i);
    }
}
