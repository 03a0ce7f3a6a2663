//! Dynamic trace observer: ground truth for the differential soundness
//! tests.
//!
//! [`record`] steps a real [`Machine`] instruction by instruction,
//! logging every data-memory read and write address. The soundness
//! tests assert these are contained in the static read and write sets.

use std::collections::BTreeSet;

use nvp_isa::{Inst, Program};
use nvp_sim::{CycleModel, EnergyModel, Machine, SimError};

/// The full dynamic trace of one run.
#[derive(Debug, Clone, Default)]
pub struct DynTrace {
    /// Every data word address the program read.
    pub reads: BTreeSet<u16>,
    /// Every data word address the program wrote.
    pub writes: BTreeSet<u16>,
    /// Instructions executed.
    pub executed: u64,
    /// Whether the program reached `halt` within the budget.
    pub halted: bool,
}

/// Runs `program` to halt (or `max_insts`), recording its memory
/// traffic.
///
/// # Errors
///
/// Propagates any [`SimError`] from loading or stepping the machine
/// (undecodable image, data access beyond installed memory, pc out of
/// range).
pub fn record(program: &Program, dmem_words: usize, max_insts: u64) -> Result<DynTrace, SimError> {
    let mut m =
        Machine::with_config(program, dmem_words, CycleModel::default(), EnergyModel::default())?;
    let insts: Vec<Inst> = {
        let mut v = Vec::with_capacity(program.code().len());
        for (pc, &word) in program.code().iter().enumerate() {
            v.push(
                Inst::decode(word).map_err(|source| SimError::Decode { pc: pc as u32, source })?,
            );
        }
        v
    };

    let mut trace = DynTrace::default();
    while !m.halted() && trace.executed < max_insts {
        let pc = m.pc();
        let inst = *insts.get(pc as usize).ok_or(SimError::PcOutOfRange { pc })?;

        // Memory addresses, computed from the *current* register file
        // exactly as the machine will.
        match inst {
            Inst::Lw { rs1, offset, .. } => {
                trace.reads.insert(m.reg(rs1).wrapping_add(offset as u16));
            }
            Inst::Sw { rs1, offset, .. } => {
                trace.writes.insert(m.reg(rs1).wrapping_add(offset as u16));
            }
            _ => {}
        }

        m.step()?;
        trace.executed += 1;
    }
    trace.halted = m.halted();
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_isa::asm::assemble;

    #[test]
    fn trace_records_reads_writes_and_halt() {
        let src = "li r1, 32\nlw r2, 0(r1)\nsw r2, 4(r1)\nhalt";
        let p = assemble(src).expect("assembles");
        let t = record(&p, 128, 100).expect("runs");
        assert!(t.halted);
        assert!(t.reads.contains(&32));
        assert!(t.writes.contains(&36));
    }
}
