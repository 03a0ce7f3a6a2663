//! Executable program images.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{DecodeError, Inst};

/// A contiguous run of initialized data words.
///
/// Data segments model the ROM-initialized constants and input buffers that
/// the NVP framework loads into data memory before execution (the published
/// NVP RTL frameworks generate inputs as ROM arrays in the same way).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataSegment {
    /// First data-memory word address covered by this segment.
    pub addr: u16,
    /// The initialized words, starting at [`addr`](Self::addr).
    pub words: Vec<u16>,
}

impl DataSegment {
    /// Creates a segment from an address and its initial words.
    #[must_use]
    pub fn new(addr: u16, words: Vec<u16>) -> Self {
        DataSegment { addr, words }
    }

    /// The exclusive end address of this segment.
    #[must_use]
    pub fn end(&self) -> u32 {
        u32::from(self.addr) + self.words.len() as u32
    }
}

/// An executable NV16 program: code, initialized data, entry point, symbols.
///
/// Produced by the assembler ([`crate::asm::assemble`]) or built
/// programmatically; consumed by the `nvp-sim` machine.
///
/// # Example
///
/// ```
/// use nvp_isa::{Inst, Program, Reg};
///
/// let mut p = Program::new();
/// p.push(Inst::Li { rd: Reg::R1, imm: 42 });
/// p.push(Inst::Halt);
/// p.add_data(0x100, &[1, 2, 3]);
/// assert_eq!(p.code().len(), 2);
/// assert_eq!(p.data_segments().len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Program {
    code: Vec<u32>,
    data: Vec<DataSegment>,
    entry: u32,
    symbols: BTreeMap<String, u32>,
}

impl Program {
    /// Creates an empty program.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded instruction words.
    #[must_use]
    pub fn code(&self) -> &[u32] {
        &self.code
    }

    /// The initialized data segments.
    #[must_use]
    pub fn data_segments(&self) -> &[DataSegment] {
        &self.data
    }

    /// The entry-point word address.
    #[must_use]
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Sets the entry-point word address.
    pub fn set_entry(&mut self, entry: u32) {
        self.entry = entry;
    }

    /// Appends an encoded instruction, returning its word address.
    pub fn push(&mut self, inst: Inst) -> u32 {
        self.code.push(inst.encode());
        (self.code.len() - 1) as u32
    }

    /// Appends an initialized data segment.
    pub fn add_data(&mut self, addr: u16, words: &[u16]) {
        self.data.push(DataSegment::new(addr, words.to_vec()));
    }

    /// Records a symbol (label or `.equ` constant).
    pub fn define_symbol(&mut self, name: impl Into<String>, value: u32) {
        self.symbols.insert(name.into(), value);
    }

    /// Looks up a symbol defined by the assembler.
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let p = nvp_isa::asm::assemble("start: halt\n.data 0x20\nbuf: .word 7")?;
    /// assert_eq!(p.symbol("start"), Some(0));
    /// assert_eq!(p.symbol("buf"), Some(0x20));
    /// assert_eq!(p.symbol("missing"), None);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// All symbols in name order.
    #[must_use]
    pub fn symbols(&self) -> &BTreeMap<String, u32> {
        &self.symbols
    }

    /// Disassembles the whole code section, one instruction per line.
    #[must_use]
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (addr, &word) in self.code.iter().enumerate() {
            use fmt::Write;
            match Inst::decode(word) {
                Ok(inst) => writeln!(out, "{addr:5}: {inst}").expect("write to String"),
                Err(_) => writeln!(out, "{addr:5}: .word {word:#010x}").expect("write to String"),
            }
        }
        out
    }

    /// Renders the whole image — symbols, entry point, code, and data
    /// segments — as assembly source that re-assembles to an identical
    /// [`Program`] (full structural equality, not just the code words).
    ///
    /// Symbols are emitted as `.equ` definitions (the symbol table does
    /// not distinguish labels from constants, and the assembler stores
    /// both the same way), instructions with raw numeric operands, and
    /// each non-empty data segment as its own `.data`/`.word` group so
    /// the segment list survives byte-for-byte. Empty data segments
    /// cannot be expressed in source and are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if any stored code word is not a valid
    /// instruction (possible only for hand-built images).
    pub fn render_asm(&self) -> Result<String, DecodeError> {
        use fmt::Write;
        let mut out = String::new();
        for (name, value) in &self.symbols {
            writeln!(out, ".equ {name}, {value}").expect("write to String");
        }
        writeln!(out, ".entry {}", self.entry).expect("write to String");
        for &word in &self.code {
            writeln!(out, "    {}", Inst::decode(word)?).expect("write to String");
        }
        for seg in self.data.iter().filter(|s| !s.words.is_empty()) {
            writeln!(out, ".data {}", seg.addr).expect("write to String");
            for chunk in seg.words.chunks(8) {
                let words: Vec<String> = chunk.iter().map(|w| w.to_string()).collect();
                writeln!(out, "    .word {}", words.join(", ")).expect("write to String");
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;

    fn program(insts: &[Inst]) -> Program {
        let mut p = Program::new();
        for &inst in insts {
            p.push(inst);
        }
        p
    }

    #[test]
    fn push_and_decode() {
        let mut p = Program::new();
        let a0 = p.push(Inst::Nop);
        let a1 = p.push(Inst::Halt);
        assert_eq!((a0, a1), (0, 1));
        assert_eq!(p.code().len(), 2);
        assert_eq!(Inst::decode(p.code()[0]).unwrap(), Inst::Nop);
        assert_eq!(Inst::decode(p.code()[1]).unwrap(), Inst::Halt);
    }

    #[test]
    fn data_segment_end() {
        let s = DataSegment::new(0xFFFE, vec![1, 2, 3]);
        assert_eq!(s.end(), 0x10001);
    }

    #[test]
    fn disassemble_lists_all() {
        let p = program(&[
            Inst::Li { rd: Reg::R1, imm: 5 },
            Inst::Out { port: 0, rs1: Reg::R1 },
            Inst::Halt,
        ]);
        let text = p.disassemble();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("li r1, 5"));
        assert!(text.contains("out 0, r1"));
    }

    #[test]
    fn render_asm_round_trips_exactly() {
        let mut p = program(&[
            Inst::Li { rd: Reg::R1, imm: 0x80 },
            Inst::Lw { rd: Reg::R2, rs1: Reg::R1, offset: -1 },
            Inst::Beq { rs1: Reg::R2, rs2: Reg::R0, offset: 1 },
            Inst::Halt,
        ]);
        p.define_symbol("BUF", 0x80);
        p.add_data(0x80, &[1, 2, 3]);
        p.add_data(0x200, &[0xFFFF]);
        p.set_entry(0);
        let src = p.render_asm().expect("decodable image");
        let rebuilt = crate::asm::assemble(&src).expect("renders valid source");
        assert_eq!(rebuilt, p, "source:\n{src}");
    }

    #[test]
    fn symbols_and_data() {
        let mut p = Program::new();
        p.define_symbol("x", 9);
        p.add_data(0, &[1, 2]);
        p.add_data(10, &[3]);
        assert_eq!(p.symbol("x"), Some(9));
        assert_eq!(p.data_segments().len(), 2);
    }
}
