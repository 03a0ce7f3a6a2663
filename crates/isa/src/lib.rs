//! # nvp-isa — the NV16 instruction set
//!
//! `NV16` is a small, deterministic 16-bit Harvard-architecture MCU
//! instruction set designed for nonvolatile-processor (NVP) research. It
//! stands in for the 8051/MSP430-class cores used by published NVP silicon:
//! small register file, word-addressed data memory, single-issue in-order
//! execution — exactly the state profile whose backup/restore cost an NVP
//! study needs to model.
//!
//! The crate provides:
//!
//! * [`Inst`] — the instruction enumeration with binary
//!   [`encode`](Inst::encode)/[`decode`](Inst::decode) (32-bit words),
//! * [`asm::assemble`] — a two-pass assembler for a compact text syntax
//!   (labels, `.data`/`.word`/`.equ` directives, pseudo-instructions),
//! * [`builder::ProgramBuilder`] — a typed, label-aware codegen API for
//!   programs generated from Rust,
//! * [`Program`] — an executable image (code + initialized data segments +
//!   symbol table) consumed by the `nvp-sim` simulator,
//! * a disassembler via [`Inst`]'s [`Display`](core::fmt::Display) impl.
//!
//! ## Architectural summary
//!
//! | Property | Value |
//! |----------|-------|
//! | General registers | `r0`–`r15`, 16-bit; `r0` reads as zero |
//! | Program counter | word index into instruction memory |
//! | Data memory | 16-bit words, 16-bit addresses |
//! | Instruction width | 32 bits |
//! | I/O | 16 output ports (`out`), 16 input ports (`in`) |
//! | NVP hook | `ckpt` marks a program-requested checkpoint |
//!
//! ## Example
//!
//! ```
//! use nvp_isa::asm::assemble;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble(
//!     r#"
//!     ; sum the words 1..=10 into r2
//!         li   r1, 10
//!         li   r2, 0
//!     loop:
//!         add  r2, r2, r1
//!         addi r1, r1, -1
//!         bne  r1, r0, loop
//!         halt
//!     "#,
//! )?;
//! assert_eq!(program.code().len(), 6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod blocks;
pub mod builder;
mod inst;
mod program;
mod reg;

pub use inst::{DecodeError, Inst};
pub use program::{DataSegment, Program};
pub use reg::{Reg, RegParseError};

/// Register conventionally used as the link register by `call`/`ret`.
pub const LINK_REG: Reg = Reg::R14;
