//! Per-instruction cycle and energy cost models.

use nvp_isa::Inst;
use serde::{Deserialize, Serialize};

/// Coarse instruction classes used for cycle/energy accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstClass {
    /// Register-register and register-immediate ALU operations.
    Alu,
    /// Multiplications (`mul`, `mulh`).
    Mul,
    /// Division and remainder (`divu`, `remu`) — multi-cycle microcode.
    Div,
    /// Data-memory loads.
    Load,
    /// Data-memory stores.
    Store,
    /// Conditional branches.
    Branch,
    /// Unconditional jumps (`jal`, `jalr`).
    Jump,
    /// Port I/O (`in`, `out`).
    Io,
    /// `nop`, `halt`, `ckpt`.
    System,
}

impl InstClass {
    /// Classifies an instruction.
    ///
    /// # Example
    ///
    /// ```
    /// use nvp_isa::{Inst, Reg};
    /// use nvp_sim::InstClass;
    ///
    /// let i = Inst::Lw { rd: Reg::R1, rs1: Reg::R2, offset: 0 };
    /// assert_eq!(InstClass::of(&i), InstClass::Load);
    /// ```
    #[must_use]
    pub fn of(inst: &Inst) -> InstClass {
        use Inst::*;
        match inst {
            Add { .. }
            | Sub { .. }
            | And { .. }
            | Or { .. }
            | Xor { .. }
            | Sll { .. }
            | Srl { .. }
            | Sra { .. }
            | Slt { .. }
            | Sltu { .. }
            | Addi { .. }
            | Andi { .. }
            | Ori { .. }
            | Xori { .. }
            | Slli { .. }
            | Srli { .. }
            | Srai { .. }
            | Slti { .. }
            | Li { .. } => InstClass::Alu,
            Mul { .. } | Mulh { .. } => InstClass::Mul,
            Divu { .. } | Remu { .. } => InstClass::Div,
            Lw { .. } => InstClass::Load,
            Sw { .. } => InstClass::Store,
            Beq { .. } | Bne { .. } | Blt { .. } | Bge { .. } | Bltu { .. } | Bgeu { .. } => {
                InstClass::Branch
            }
            Jal { .. } | Jalr { .. } => InstClass::Jump,
            Out { .. } | In { .. } => InstClass::Io,
            Nop | Halt | Ckpt => InstClass::System,
        }
    }
}

/// Cycle counts per instruction class (single-issue, in-order NV16 core).
///
/// Defaults model an MCU-class 5-stage pipeline with a 16-cycle iterative
/// divider and 2-cycle data-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CycleModel {
    /// Cycles for single-cycle ALU operations.
    pub alu: u32,
    /// Cycles for multiplications.
    pub mul: u32,
    /// Cycles for division/remainder.
    pub div: u32,
    /// Cycles for loads.
    pub load: u32,
    /// Cycles for stores.
    pub store: u32,
    /// Cycles for a not-taken branch.
    pub branch_not_taken: u32,
    /// Cycles for a taken branch (pipeline refill).
    pub branch_taken: u32,
    /// Cycles for unconditional jumps.
    pub jump: u32,
    /// Cycles for port I/O.
    pub io: u32,
    /// Cycles for `nop`/`halt`/`ckpt`.
    pub system: u32,
}

impl Default for CycleModel {
    fn default() -> Self {
        CycleModel {
            alu: 1,
            mul: 2,
            div: 16,
            load: 2,
            store: 2,
            branch_not_taken: 1,
            branch_taken: 2,
            jump: 2,
            io: 2,
            system: 1,
        }
    }
}

impl CycleModel {
    /// Cycles charged for `inst`, given whether a branch was taken.
    #[must_use]
    pub fn cycles(&self, class: InstClass, taken: bool) -> u32 {
        match class {
            InstClass::Alu => self.alu,
            InstClass::Mul => self.mul,
            InstClass::Div => self.div,
            InstClass::Load => self.load,
            InstClass::Store => self.store,
            InstClass::Branch => {
                if taken {
                    self.branch_taken
                } else {
                    self.branch_not_taken
                }
            }
            InstClass::Jump => self.jump,
            InstClass::Io => self.io,
            InstClass::System => self.system,
        }
    }
}

/// Energy cost model: a base cost per cycle plus per-class extras.
///
/// All values are in **joules**. The default instance is calibrated so an
/// ALU-dominated instruction mix at 1 MHz draws ≈0.209 mW — the operating
/// point measured for wearable NVP prototypes. The data-memory write extra
/// is what an NVP platform overrides to reflect its nonvolatile main-memory
/// technology (ReRAM/FeRAM writes cost more than SRAM writes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Core logic + instruction fetch energy per clock cycle.
    pub base_per_cycle_j: f64,
    /// Extra energy per data-memory read access.
    pub mem_read_extra_j: f64,
    /// Extra energy per data-memory write access.
    pub mem_write_extra_j: f64,
    /// Extra energy per multiplication.
    pub mul_extra_j: f64,
    /// Extra energy per division.
    pub div_extra_j: f64,
    /// Extra energy per port-I/O operation (pad drivers).
    pub io_extra_j: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            base_per_cycle_j: 190e-12,
            mem_read_extra_j: 35e-12,
            mem_write_extra_j: 45e-12,
            mul_extra_j: 60e-12,
            div_extra_j: 120e-12,
            io_extra_j: 80e-12,
        }
    }
}

impl EnergyModel {
    /// Energy charged for an instruction of `class` taking `cycles` cycles.
    #[must_use]
    pub fn energy(&self, class: InstClass, cycles: u32) -> f64 {
        let base = self.base_per_cycle_j * f64::from(cycles);
        let extra = match class {
            InstClass::Mul => self.mul_extra_j,
            InstClass::Div => self.div_extra_j,
            InstClass::Load => self.mem_read_extra_j,
            InstClass::Store => self.mem_write_extra_j,
            InstClass::Io => self.io_extra_j,
            _ => 0.0,
        };
        base + extra
    }

    /// Returns a copy with the data-memory write extra replaced — used by
    /// NVP platforms whose main memory is a nonvolatile technology.
    #[must_use]
    pub fn with_mem_write_extra(mut self, joules: f64) -> Self {
        self.mem_write_extra_j = joules;
        self
    }

    /// Returns a copy with the data-memory read extra replaced.
    #[must_use]
    pub fn with_mem_read_extra(mut self, joules: f64) -> Self {
        self.mem_read_extra_j = joules;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_isa::Reg;

    #[test]
    fn classify_covers_all_groups() {
        use nvp_isa::Inst::*;
        let r = Reg::R1;
        assert_eq!(InstClass::of(&Add { rd: r, rs1: r, rs2: r }), InstClass::Alu);
        assert_eq!(InstClass::of(&Mulh { rd: r, rs1: r, rs2: r }), InstClass::Mul);
        assert_eq!(InstClass::of(&Remu { rd: r, rs1: r, rs2: r }), InstClass::Div);
        assert_eq!(InstClass::of(&Lw { rd: r, rs1: r, offset: 0 }), InstClass::Load);
        assert_eq!(InstClass::of(&Sw { rs2: r, rs1: r, offset: 0 }), InstClass::Store);
        assert_eq!(InstClass::of(&Bgeu { rs1: r, rs2: r, offset: 0 }), InstClass::Branch);
        assert_eq!(InstClass::of(&Jalr { rd: r, rs1: r, offset: 0 }), InstClass::Jump);
        assert_eq!(InstClass::of(&In { rd: r, port: 0 }), InstClass::Io);
        assert_eq!(InstClass::of(&Ckpt), InstClass::System);
    }

    #[test]
    fn branch_cycles_depend_on_outcome() {
        let cm = CycleModel::default();
        assert!(cm.cycles(InstClass::Branch, true) > cm.cycles(InstClass::Branch, false));
    }

    #[test]
    fn default_energy_near_published_operating_point() {
        // An ALU-heavy mix should land near 209 pJ/cycle once the typical
        // fraction of memory/branch operations is included. Sanity-check
        // the pure-ALU floor and the loaded ceiling bracket it.
        let em = EnergyModel::default();
        let alu = em.energy(InstClass::Alu, 1);
        let load = em.energy(InstClass::Load, 2);
        assert!(alu < 209e-12, "ALU floor {alu}");
        assert!(load / 2.0 > 195e-12, "memory-loaded per-cycle {load}");
    }

    #[test]
    fn energy_extras_applied() {
        let em = EnergyModel::default().with_mem_write_extra(1e-9);
        let e = em.energy(InstClass::Store, 2);
        assert!((e - (2.0 * em.base_per_cycle_j + 1e-9)).abs() < 1e-18);
    }
}
