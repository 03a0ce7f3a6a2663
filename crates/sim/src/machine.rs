//! The NV16 machine: architectural state, execution, accounting.

use std::fmt;
use std::sync::Arc;

use nvp_isa::blocks::branch_target;
use nvp_isa::{DecodeError, Inst, Program, Reg};
use serde::{Deserialize, Serialize};

use crate::block::{BlockTable, Cond, MicroKind, MicroOp, Term, NUM_SLOTS};
use crate::stream::Recorder;
use crate::{CycleModel, EnergyModel, InstClass, DEFAULT_DMEM_WORDS};

/// The volatile architectural state an NVP must back up: the register file
/// and the program counter.
///
/// [`ArchState::BITS`] is the raw payload size used by backup-cost models;
/// platform models add their own pipeline/SFR overhead on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ArchState {
    /// Register file contents (`r0` slot is always zero).
    pub regs: [u16; 16],
    /// Program counter (word address).
    pub pc: u32,
}

impl ArchState {
    /// Number of state bits in the snapshot payload (16×16-bit registers +
    /// a 32-bit program counter).
    pub const BITS: u32 = 16 * 16 + 32;
}

/// Per-run performance and energy counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Counters {
    /// Instructions executed.
    pub instructions: u64,
    /// Clock cycles consumed.
    pub cycles: u64,
    /// Core energy consumed, in joules.
    pub energy_j: f64,
}

/// A predecoded code word: the instruction plus the cycle/energy cost
/// of both branch outcomes (identical for non-branches), which the
/// per-step hot path would otherwise recompute from it. Built once per
/// imem word at load time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decoded {
    pub(crate) inst: Inst,
    pub(crate) cycles_not_taken: u32,
    pub(crate) cycles_taken: u32,
    pub(crate) energy_not_taken_j: f64,
    pub(crate) energy_taken_j: f64,
}

impl Decoded {
    fn new(inst: Inst, cycle_model: &CycleModel, energy_model: &EnergyModel) -> Decoded {
        let class = InstClass::of(&inst);
        let cycles_not_taken = cycle_model.cycles(class, false);
        let cycles_taken = cycle_model.cycles(class, true);
        Decoded {
            inst,
            cycles_not_taken,
            cycles_taken,
            energy_not_taken_j: energy_model.energy(class, cycles_not_taken),
            energy_taken_j: energy_model.energy(class, cycles_taken),
        }
    }
}

/// Aggregate outcome of a bounded run of consecutive instructions (see
/// [`Machine::run_blocks`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockStats {
    /// Instructions executed in the block.
    pub executed: u64,
    /// Total cycles charged.
    pub cycles: u64,
    /// Total energy charged, joules.
    pub energy_j: f64,
    /// `true` if the block ended on a `ckpt` instruction.
    pub checkpoint: bool,
}

/// The outcome of executing a single instruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Step {
    /// Cycles charged.
    pub cycles: u32,
    /// Energy charged, in joules.
    pub energy_j: f64,
    /// `true` if the instruction was `halt` (or the machine was already
    /// halted, in which case `cycles == 0`).
    pub halted: bool,
    /// `true` if the instruction was `ckpt` (software checkpoint hint).
    pub checkpoint: bool,
}

/// Errors raised by program loading or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The program counter left the code image.
    PcOutOfRange {
        /// Offending word address.
        pc: u32,
    },
    /// A load/store addressed beyond installed data memory.
    MemOutOfRange {
        /// Offending data word address.
        addr: u16,
        /// Program counter of the faulting instruction.
        pc: u32,
    },
    /// A code word failed to decode (hand-built images only).
    Decode {
        /// Word address of the undecodable word.
        pc: u32,
        /// Underlying decode failure.
        source: DecodeError,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::PcOutOfRange { pc } => write!(f, "program counter {pc} out of range"),
            SimError::MemOutOfRange { addr, pc } => {
                write!(f, "data address {addr:#06x} out of range at pc {pc}")
            }
            SimError::Decode { pc, source } => write!(f, "at pc {pc}: {source}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Decode { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The immutable, shareable part of a loaded program: predecoded code,
/// fused block plans, worst-case step costs, and the initial data-memory
/// contents (zero-fill plus data segments).
///
/// Building an image does all the per-program work — decode, block
/// partitioning, micro-op lowering — exactly once; any number of
/// [`Machine`]s can then be instantiated from the same `Arc`'d image
/// without re-decoding.
/// Monte-Carlo campaigns that run thousands of same-program trials share
/// one image across every trial and every power-failure rebuild.
#[derive(Debug)]
pub struct MachineImage {
    pub(crate) code: Vec<Decoded>,
    pub(crate) blocks: BlockTable,
    max_step_cycles: u32,
    max_step_energy_j: f64,
    pub(crate) entry: u32,
    pub(crate) dmem_init: Vec<u16>,
}

impl MachineImage {
    /// Decodes and lowers a program into a reusable image.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Decode`] if the image contains an undecodable
    /// word and [`SimError::MemOutOfRange`] if a data segment exceeds the
    /// installed data memory.
    pub fn build(
        program: &Program,
        dmem_words: usize,
        cycle_model: CycleModel,
        energy_model: EnergyModel,
    ) -> Result<MachineImage, SimError> {
        let mut code = Vec::with_capacity(program.code().len());
        for (pc, &word) in program.code().iter().enumerate() {
            let inst =
                Inst::decode(word).map_err(|source| SimError::Decode { pc: pc as u32, source })?;
            code.push(Decoded::new(inst, &cycle_model, &energy_model));
        }
        // Worst-case single-step cost over this image, used by platform
        // models to bound how many instructions can safely run as one
        // batch before re-checking energy/time thresholds.
        let max_step_cycles =
            code.iter().map(|d| d.cycles_not_taken.max(d.cycles_taken)).max().unwrap_or(1);
        let max_step_energy_j =
            code.iter().map(|d| d.energy_not_taken_j.max(d.energy_taken_j)).fold(0.0f64, f64::max);
        let mut dmem_init = vec![0u16; dmem_words];
        for seg in program.data_segments() {
            let start = usize::from(seg.addr);
            let end = start + seg.words.len();
            if end > dmem_init.len() {
                return Err(SimError::MemOutOfRange {
                    addr: (end - 1).min(u16::MAX as usize) as u16,
                    pc: 0,
                });
            }
            dmem_init[start..end].copy_from_slice(&seg.words);
        }
        let blocks = BlockTable::build(&code, program.entry());
        Ok(MachineImage {
            code,
            blocks,
            max_step_cycles,
            max_step_energy_j,
            entry: program.entry(),
            dmem_init,
        })
    }

    /// Installed data memory, 16-bit words.
    #[must_use]
    pub fn dmem_words(&self) -> usize {
        self.dmem_init.len()
    }

    /// Worst-case cycles any single instruction in the image can take
    /// (taken-branch outcome included).
    #[must_use]
    pub fn max_step_cycles(&self) -> u32 {
        self.max_step_cycles
    }

    /// Worst-case energy any single instruction in the image can draw,
    /// joules.
    #[must_use]
    pub fn max_step_energy_j(&self) -> f64 {
        self.max_step_energy_j
    }
}

/// A deterministic NV16 machine instance.
///
/// The machine separates *volatile* state (registers + PC, lost on a power
/// failure unless backed up) from *data memory*, whose volatility is a
/// platform property: NVPs keep main memory in NVM, while the conventional
/// baselines lose SRAM contents. Platform models in `nvp-core` call
/// [`snapshot`](Machine::snapshot) / [`restore`](Machine::restore) /
/// [`reset_volatile`](Machine::reset_volatile) to implement their policies.
///
/// The immutable per-program tables live in an `Arc`'d [`MachineImage`];
/// cloning a machine or building one [`from_image`](Machine::from_image)
/// shares them.
#[derive(Debug, Clone)]
pub struct Machine {
    image: Arc<MachineImage>,
    regs: [u16; 16],
    pc: u32,
    halted: bool,
    dmem: Vec<u16>,
    inputs: [u16; 16],
    out_log: Vec<(u8, u16)>,
    counters: Counters,
}

impl Machine {
    /// Creates a machine with default memory size and cost models.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Decode`] if the image contains an undecodable
    /// word and [`SimError::MemOutOfRange`] if a data segment exceeds the
    /// installed data memory.
    pub fn new(program: &Program) -> Result<Machine, SimError> {
        Machine::with_config(
            program,
            DEFAULT_DMEM_WORDS,
            CycleModel::default(),
            EnergyModel::default(),
        )
    }

    /// Creates a machine with explicit memory size and cost models.
    ///
    /// # Errors
    ///
    /// See [`Machine::new`].
    pub fn with_config(
        program: &Program,
        dmem_words: usize,
        cycle_model: CycleModel,
        energy_model: EnergyModel,
    ) -> Result<Machine, SimError> {
        let image = MachineImage::build(program, dmem_words, cycle_model, energy_model)?;
        Ok(Machine::from_image(&Arc::new(image)))
    }

    /// Creates a fresh machine (reset state, initial data memory) from a
    /// prebuilt shared image, skipping decode and block lowering.
    #[must_use]
    pub fn from_image(image: &Arc<MachineImage>) -> Machine {
        Machine {
            image: Arc::clone(image),
            regs: [0; 16],
            pc: image.entry,
            halted: false,
            dmem: image.dmem_init.clone(),
            inputs: [0; 16],
            out_log: Vec::new(),
            counters: Counters::default(),
        }
    }

    /// Executes one instruction.
    ///
    /// A halted machine returns a zero-cost [`Step`] with `halted == true`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PcOutOfRange`] or [`SimError::MemOutOfRange`]
    /// on wild control flow or memory accesses.
    pub fn step(&mut self) -> Result<Step, SimError> {
        if self.halted {
            return Ok(Step { cycles: 0, energy_j: 0.0, halted: true, checkpoint: false });
        }
        let pc = self.pc;
        let decoded = *self.image.code.get(pc as usize).ok_or(SimError::PcOutOfRange { pc })?;
        let mut taken = false;
        let mut checkpoint = false;
        let mut next_pc = pc + 1;

        use Inst::*;
        match decoded.inst {
            Add { rd, rs1, rs2 } => self.wr(rd, self.rd(rs1).wrapping_add(self.rd(rs2))),
            Sub { rd, rs1, rs2 } => self.wr(rd, self.rd(rs1).wrapping_sub(self.rd(rs2))),
            And { rd, rs1, rs2 } => self.wr(rd, self.rd(rs1) & self.rd(rs2)),
            Or { rd, rs1, rs2 } => self.wr(rd, self.rd(rs1) | self.rd(rs2)),
            Xor { rd, rs1, rs2 } => self.wr(rd, self.rd(rs1) ^ self.rd(rs2)),
            Sll { rd, rs1, rs2 } => self.wr(rd, self.rd(rs1) << (self.rd(rs2) & 0xF)),
            Srl { rd, rs1, rs2 } => self.wr(rd, self.rd(rs1) >> (self.rd(rs2) & 0xF)),
            Sra { rd, rs1, rs2 } => {
                self.wr(rd, ((self.rd(rs1) as i16) >> (self.rd(rs2) & 0xF)) as u16);
            }
            Mul { rd, rs1, rs2 } => {
                let p = i32::from(self.rd(rs1) as i16) * i32::from(self.rd(rs2) as i16);
                self.wr(rd, p as u16);
            }
            Mulh { rd, rs1, rs2 } => {
                let p = i32::from(self.rd(rs1) as i16) * i32::from(self.rd(rs2) as i16);
                self.wr(rd, (p >> 16) as u16);
            }
            Slt { rd, rs1, rs2 } => {
                self.wr(rd, u16::from((self.rd(rs1) as i16) < (self.rd(rs2) as i16)));
            }
            Sltu { rd, rs1, rs2 } => self.wr(rd, u16::from(self.rd(rs1) < self.rd(rs2))),
            Divu { rd, rs1, rs2 } => {
                let q = self.rd(rs1).checked_div(self.rd(rs2)).unwrap_or(0xFFFF);
                self.wr(rd, q);
            }
            Remu { rd, rs1, rs2 } => {
                let d = self.rd(rs2);
                self.wr(rd, if d == 0 { self.rd(rs1) } else { self.rd(rs1) % d });
            }
            Addi { rd, rs1, imm } => self.wr(rd, self.rd(rs1).wrapping_add(imm as u16)),
            Andi { rd, rs1, imm } => self.wr(rd, self.rd(rs1) & imm),
            Ori { rd, rs1, imm } => self.wr(rd, self.rd(rs1) | imm),
            Xori { rd, rs1, imm } => self.wr(rd, self.rd(rs1) ^ imm),
            Slli { rd, rs1, shamt } => self.wr(rd, self.rd(rs1) << shamt),
            Srli { rd, rs1, shamt } => self.wr(rd, self.rd(rs1) >> shamt),
            Srai { rd, rs1, shamt } => self.wr(rd, ((self.rd(rs1) as i16) >> shamt) as u16),
            Slti { rd, rs1, imm } => self.wr(rd, u16::from((self.rd(rs1) as i16) < imm)),
            Li { rd, imm } => self.wr(rd, imm),
            Lw { rd, rs1, offset } => {
                let addr = self.rd(rs1).wrapping_add(offset as u16);
                let value = self.read_word(addr).ok_or(SimError::MemOutOfRange { addr, pc })?;
                self.wr(rd, value);
            }
            Sw { rs2, rs1, offset } => {
                let addr = self.rd(rs1).wrapping_add(offset as u16);
                let value = self.rd(rs2);
                if usize::from(addr) >= self.dmem.len() {
                    return Err(SimError::MemOutOfRange { addr, pc });
                }
                self.dmem[usize::from(addr)] = value;
            }
            Beq { rs1, rs2, offset } => {
                taken = self.rd(rs1) == self.rd(rs2);
                if taken {
                    next_pc = branch_target(pc, offset);
                }
            }
            Bne { rs1, rs2, offset } => {
                taken = self.rd(rs1) != self.rd(rs2);
                if taken {
                    next_pc = branch_target(pc, offset);
                }
            }
            Blt { rs1, rs2, offset } => {
                taken = (self.rd(rs1) as i16) < (self.rd(rs2) as i16);
                if taken {
                    next_pc = branch_target(pc, offset);
                }
            }
            Bge { rs1, rs2, offset } => {
                taken = (self.rd(rs1) as i16) >= (self.rd(rs2) as i16);
                if taken {
                    next_pc = branch_target(pc, offset);
                }
            }
            Bltu { rs1, rs2, offset } => {
                taken = self.rd(rs1) < self.rd(rs2);
                if taken {
                    next_pc = branch_target(pc, offset);
                }
            }
            Bgeu { rs1, rs2, offset } => {
                taken = self.rd(rs1) >= self.rd(rs2);
                if taken {
                    next_pc = branch_target(pc, offset);
                }
            }
            Jal { rd, target } => {
                self.wr(rd, (pc + 1) as u16);
                next_pc = target;
            }
            Jalr { rd, rs1, offset } => {
                let target = u32::from(self.rd(rs1).wrapping_add(offset as u16));
                self.wr(rd, (pc + 1) as u16);
                next_pc = target;
            }
            Nop => {}
            Halt => self.halted = true,
            Ckpt => checkpoint = true,
            Out { port, rs1 } => self.out_log.push((port, self.rd(rs1))),
            In { rd, port } => self.wr(rd, self.inputs[usize::from(port & 0xF)]),
        }

        let (cycles, energy) = if taken {
            (decoded.cycles_taken, decoded.energy_taken_j)
        } else {
            (decoded.cycles_not_taken, decoded.energy_not_taken_j)
        };
        self.counters.instructions += 1;
        self.counters.cycles += u64::from(cycles);
        self.counters.energy_j += energy;
        if !self.halted {
            self.pc = next_pc;
        }
        Ok(Step { cycles, energy_j: energy, halted: self.halted, checkpoint })
    }

    /// Runs up to `max_insts` instructions or until `halt`.
    ///
    /// Returns the number of instructions executed.
    ///
    /// # Errors
    ///
    /// Propagates the first execution fault (see [`Machine::step`]).
    pub fn run(&mut self, max_insts: u64) -> Result<u64, SimError> {
        let mut executed = 0;
        while executed < max_insts && !self.halted {
            self.step()?;
            executed += 1;
        }
        Ok(executed)
    }

    /// Former name of the removed superblock tier, kept for callers
    /// written against it; runs [`run_blocks`](Machine::run_blocks).
    #[doc(hidden)]
    pub fn run_superblocks(&mut self, max_insts: u64) -> Result<BlockStats, SimError> {
        self.run_blocks(max_insts)
    }

    /// Runs up to `max_insts` instructions, stopping early on `halt` or
    /// `ckpt`, and returns the block's aggregate cost instead of
    /// per-step values — platform models use this to consult their
    /// energy frontend once per block. Bound `max_insts` with
    /// [`max_step_cycles`](Machine::max_step_cycles) /
    /// [`max_step_energy_j`](Machine::max_step_energy_j) to keep
    /// threshold checks exact.
    ///
    /// Executes whole basic blocks through the fused block plans built
    /// at load time instead of dispatching instruction by instruction.
    ///
    /// Straight-line block bodies run against a local register file with
    /// no per-step counter stores; integer accounting (instructions and
    /// cycles) is applied as fused adds per block. Energy is still
    /// accumulated one addition per instruction in program order,
    /// because f64 addition is not associative — results are
    /// bit-identical to an equivalent sequence of [`step`](Machine::step)
    /// calls, including [`Counters`] and the returned [`BlockStats`].
    ///
    /// A block that cannot run whole runs as a *slice* of its plan: from
    /// a non-leader address (entered via `jalr` or a mid-block
    /// [`restore`](Machine::restore)) the engine runs the block's
    /// remaining suffix, and when fewer than a full block's instructions
    /// remain in `max_insts` it runs the prefix that fits, stopping
    /// exactly at the budget. Slices account cycles per instruction, in
    /// program order. Every address in the image belongs to a block, so
    /// the engine never calls [`step`](Machine::step): a pc outside the
    /// image faults with [`SimError::PcOutOfRange`] here, independently
    /// of the step interpreter. A block whose terminator jumps back to
    /// its own leader repeats inside one dispatch (a *streak*), with its
    /// integer accounting applied once per streak. A `ckpt` ends the run with `checkpoint`
    /// set; a fault ends it with an error.
    ///
    /// # Errors
    ///
    /// Propagates the first execution fault (see [`Machine::step`]);
    /// architectural state and counters reflect every instruction
    /// retired before the fault, exactly as in step mode.
    pub fn run_blocks(&mut self, max_insts: u64) -> Result<BlockStats, SimError> {
        self.run_blocks_tapped(max_insts, None)
    }

    /// [`run_blocks`](Machine::run_blocks), reporting every executed
    /// block terminator to `tap`, a stream recorder.
    pub(crate) fn run_blocks_tapped(
        &mut self,
        max_insts: u64,
        mut tap: Option<&mut Recorder>,
    ) -> Result<BlockStats, SimError> {
        let mut stats = BlockStats::default();
        // Local register file (slot 16 absorbs r0 writes) and energy
        // accumulators, synced back on every exit.
        let mut lr = [0u16; NUM_SLOTS];
        lr[..16].copy_from_slice(&self.regs);
        let mut c_energy = self.counters.energy_j;
        let mut s_energy = 0.0f64;

        while stats.executed < max_insts && !self.halted {
            let Some(plan_idx) = self.image.blocks.owner(self.pc) else {
                // Every address in the image belongs to a block, so this
                // pc lies outside it.
                self.regs.copy_from_slice(&lr[..16]);
                self.counters.energy_j = c_energy;
                return Err(SimError::PcOutOfRange { pc: self.pc });
            };
            let plan = &self.image.blocks.plans[plan_idx as usize];
            let budget = max_insts - stats.executed;
            if self.pc != plan.start || plan.insts > budget {
                // Mid-block entry or budget boundary: run the slice that
                // fits, then re-dispatch.
                self.run_slice(
                    plan_idx,
                    budget,
                    &mut lr,
                    &mut c_energy,
                    &mut s_energy,
                    &mut stats,
                    tap.as_deref_mut(),
                )?;
                if stats.checkpoint {
                    break;
                }
                continue;
            }

            let ops = &self.image.blocks.ops
                [plan.op_start as usize..(plan.op_start + plan.op_len) as usize];
            // Streak loop: hot loops whose terminator jumps back to this
            // same leader re-execute the block without leaving this arm.
            // Integer accounting is associative, so it is applied once
            // per streak (multiplied by the repeat count); energy stays
            // one add per op, in order.
            let mut budget_left = max_insts - stats.executed;
            let mut repeats = 0u64;
            let mut term_cycles = 0u64;
            let mut fault: Option<(usize, u16)> = None;
            'streak: loop {
                if let Some(f) = exec_body(
                    ops,
                    &mut lr,
                    &mut self.dmem,
                    &self.inputs,
                    &mut self.out_log,
                    &mut c_energy,
                    &mut s_energy,
                ) {
                    fault = Some(f);
                    break 'streak;
                }

                let t = exec_term(
                    &plan.term,
                    &mut lr,
                    plan.start + plan.op_len,
                    &mut c_energy,
                    &mut s_energy,
                );
                if let Some(tap) = tap.as_deref_mut() {
                    tap.term(&plan.term, t.taken, t.next);
                }
                term_cycles += u64::from(t.cycles);
                if t.halted {
                    self.halted = true;
                }
                if t.checkpoint {
                    stats.checkpoint = true;
                }
                repeats += 1;
                budget_left -= plan.insts;
                // halt/ckpt ends not just the streak but the call.
                if t.halted || t.checkpoint || t.next != plan.start || plan.insts > budget_left {
                    self.pc = t.next;
                    break 'streak;
                }
            }

            // Fused integer accounting for the full repeats of the streak.
            let retired = plan.insts * repeats;
            self.counters.instructions += retired;
            self.counters.cycles += plan.body_cycles * repeats + term_cycles;
            stats.executed += retired;
            stats.cycles += plan.body_cycles * repeats + term_cycles;

            if let Some((done, addr)) = fault {
                // Partial block: account the retired prefix exactly as
                // step mode would, then report the fault at its pc.
                retire_ops(&mut self.counters, &ops[..done]);
                let pc = plan.start + done as u32;
                return Err(self.fault_at(&lr, c_energy, pc, addr));
            }

            if stats.checkpoint {
                break;
            }
        }

        self.regs.copy_from_slice(&lr[..16]);
        self.counters.energy_j = c_energy;
        stats.energy_j = s_energy;
        Ok(stats)
    }

    /// Runs the part of plan `plan_idx` that starts at `self.pc` (its
    /// leader or any later address in it) and fits in `budget`
    /// instructions: the body ops through [`exec_body`], then the
    /// terminator through [`exec_term`] if it fits too. Every retired
    /// instruction is accounted in program order exactly as
    /// [`step`](Machine::step) would; a fault leaves the machine synced
    /// at the faulting pc.
    #[allow(clippy::too_many_arguments)]
    fn run_slice(
        &mut self,
        plan_idx: u32,
        budget: u64,
        lr: &mut [u16; NUM_SLOTS],
        c_energy: &mut f64,
        s_energy: &mut f64,
        stats: &mut BlockStats,
        tap: Option<&mut Recorder>,
    ) -> Result<(), SimError> {
        let plan = &self.image.blocks.plans[plan_idx as usize];
        let first = (self.pc - plan.start) as usize;
        let body_left = plan.op_len as usize - first;
        let n = (body_left as u64).min(budget) as usize;
        let ops = &self.image.blocks.ops[plan.op_start as usize + first..][..n];
        let fault =
            exec_body(ops, lr, &mut self.dmem, &self.inputs, &mut self.out_log, c_energy, s_energy);
        if let Some((done, addr)) = fault {
            retire_ops(&mut self.counters, &ops[..done]);
            let pc = plan.start + (first + done) as u32;
            return Err(self.fault_at(lr, *c_energy, pc, addr));
        }
        let cycles = retire_ops(&mut self.counters, ops);
        stats.executed += n as u64;
        stats.cycles += cycles;
        self.pc = plan.start + (first + n) as u32;
        let term_insts = plan.insts - u64::from(plan.op_len);
        if n < body_left || term_insts > budget - n as u64 {
            return Ok(());
        }
        let t = exec_term(&plan.term, lr, plan.start + plan.op_len, c_energy, s_energy);
        if let Some(tap) = tap {
            tap.term(&plan.term, t.taken, t.next);
        }
        self.counters.instructions += term_insts;
        self.counters.cycles += u64::from(t.cycles);
        stats.executed += term_insts;
        stats.cycles += u64::from(t.cycles);
        self.halted = t.halted;
        stats.checkpoint = t.checkpoint;
        self.pc = t.next;
        Ok(())
    }

    /// Syncs the local register file and core energy back into the
    /// machine at a faulting load/store and returns the fault, leaving
    /// the machine exactly as step mode would.
    fn fault_at(&mut self, lr: &[u16; NUM_SLOTS], c_energy: f64, pc: u32, addr: u16) -> SimError {
        self.regs.copy_from_slice(&lr[..16]);
        self.counters.energy_j = c_energy;
        self.pc = pc;
        SimError::MemOutOfRange { addr, pc }
    }

    /// Worst-case cycles any single instruction in the loaded image can
    /// take (taken-branch outcome included).
    #[must_use]
    pub fn max_step_cycles(&self) -> u32 {
        self.image.max_step_cycles
    }

    /// Worst-case energy any single instruction in the loaded image can
    /// draw, joules.
    #[must_use]
    pub fn max_step_energy_j(&self) -> f64 {
        self.image.max_step_energy_j
    }

    #[inline]
    fn rd(&self, r: Reg) -> u16 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    #[inline]
    fn wr(&mut self, r: Reg, value: u16) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// `true` once `halt` has executed.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Reads a register (r0 reads as zero).
    #[must_use]
    pub fn reg(&self, r: Reg) -> u16 {
        self.rd(r)
    }

    /// Reads a data-memory word, if within installed memory.
    #[must_use]
    pub fn read_word(&self, addr: u16) -> Option<u16> {
        self.dmem.get(usize::from(addr)).copied()
    }

    /// Full data memory contents.
    #[must_use]
    pub fn dmem(&self) -> &[u16] {
        &self.dmem
    }

    /// Latches an input-port value for subsequent `in` instructions.
    pub fn set_input(&mut self, port: u8, value: u16) {
        self.inputs[usize::from(port & 0xF)] = value;
    }

    /// All `(port, value)` pairs emitted by `out`, in program order.
    #[must_use]
    pub fn out_log(&self) -> &[(u8, u16)] {
        &self.out_log
    }

    /// The performance/energy counters.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Captures the volatile architectural state (registers + PC).
    #[must_use]
    pub fn snapshot(&self) -> ArchState {
        ArchState { regs: self.regs, pc: self.pc }
    }

    /// Restores a previously captured architectural state and clears the
    /// halted flag (a restore resumes execution).
    pub fn restore(&mut self, state: &ArchState) {
        self.regs = state.regs;
        self.pc = state.pc;
        self.halted = false;
    }

    /// Models a power loss on a platform *without* state retention: the
    /// register file is cleared and the PC returns to the entry point.
    /// Data memory is left untouched — callers model its volatility.
    pub fn reset_volatile(&mut self) {
        self.regs = [0; 16];
        self.pc = self.image.entry;
        self.halted = false;
    }
}

/// Outcome of executing a block terminator against the local register
/// file: the successor pc plus the data-dependent accounting bits the
/// caller folds into its own counters.
struct TermOutcome {
    next: u32,
    cycles: u32,
    /// A conditional branch's direction (`false` for other terminators).
    taken: bool,
    halted: bool,
    checkpoint: bool,
}

/// Charges the integer accounting of `ops`, retired one by one as step
/// mode would, to `counters`. Returns their total cycles.
fn retire_ops(counters: &mut Counters, ops: &[MicroOp]) -> u64 {
    let cycles = ops.iter().map(|op| u64::from(op.cycles)).sum();
    counters.instructions += ops.len() as u64;
    counters.cycles += cycles;
    cycles
}

/// Executes a block body's micro-ops against a local register file,
/// adding each op's energy to both accumulators in program order.
/// Returns `Some((op_index, addr))` at the first out-of-range access,
/// with ops `0..op_index` fully applied and the faulting op unretired
/// and uncharged — exactly the state `step()` leaves behind.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn exec_body(
    ops: &[MicroOp],
    lr: &mut [u16; NUM_SLOTS],
    dmem: &mut [u16],
    inputs: &[u16; 16],
    out_log: &mut Vec<(u8, u16)>,
    c_energy: &mut f64,
    s_energy: &mut f64,
) -> Option<(usize, u16)> {
    for (i, op) in ops.iter().enumerate() {
        match op.kind {
            MicroKind::Add { d, a, b } => {
                lr[usize::from(d)] = lr[usize::from(a)].wrapping_add(lr[usize::from(b)]);
            }
            MicroKind::Sub { d, a, b } => {
                lr[usize::from(d)] = lr[usize::from(a)].wrapping_sub(lr[usize::from(b)]);
            }
            MicroKind::And { d, a, b } => {
                lr[usize::from(d)] = lr[usize::from(a)] & lr[usize::from(b)];
            }
            MicroKind::Or { d, a, b } => {
                lr[usize::from(d)] = lr[usize::from(a)] | lr[usize::from(b)];
            }
            MicroKind::Xor { d, a, b } => {
                lr[usize::from(d)] = lr[usize::from(a)] ^ lr[usize::from(b)];
            }
            MicroKind::Sll { d, a, b } => {
                lr[usize::from(d)] = lr[usize::from(a)] << (lr[usize::from(b)] & 0xF);
            }
            MicroKind::Srl { d, a, b } => {
                lr[usize::from(d)] = lr[usize::from(a)] >> (lr[usize::from(b)] & 0xF);
            }
            MicroKind::Sra { d, a, b } => {
                lr[usize::from(d)] =
                    ((lr[usize::from(a)] as i16) >> (lr[usize::from(b)] & 0xF)) as u16;
            }
            MicroKind::Mul { d, a, b } => {
                let p = i32::from(lr[usize::from(a)] as i16) * i32::from(lr[usize::from(b)] as i16);
                lr[usize::from(d)] = p as u16;
            }
            MicroKind::Mulh { d, a, b } => {
                let p = i32::from(lr[usize::from(a)] as i16) * i32::from(lr[usize::from(b)] as i16);
                lr[usize::from(d)] = (p >> 16) as u16;
            }
            MicroKind::Slt { d, a, b } => {
                lr[usize::from(d)] =
                    u16::from((lr[usize::from(a)] as i16) < (lr[usize::from(b)] as i16));
            }
            MicroKind::Sltu { d, a, b } => {
                lr[usize::from(d)] = u16::from(lr[usize::from(a)] < lr[usize::from(b)]);
            }
            MicroKind::Divu { d, a, b } => {
                lr[usize::from(d)] =
                    lr[usize::from(a)].checked_div(lr[usize::from(b)]).unwrap_or(0xFFFF);
            }
            MicroKind::Remu { d, a, b } => {
                let div = lr[usize::from(b)];
                lr[usize::from(d)] =
                    if div == 0 { lr[usize::from(a)] } else { lr[usize::from(a)] % div };
            }
            MicroKind::Addi { d, a, imm } => {
                lr[usize::from(d)] = lr[usize::from(a)].wrapping_add(imm);
            }
            MicroKind::Andi { d, a, imm } => {
                lr[usize::from(d)] = lr[usize::from(a)] & imm;
            }
            MicroKind::Ori { d, a, imm } => {
                lr[usize::from(d)] = lr[usize::from(a)] | imm;
            }
            MicroKind::Xori { d, a, imm } => {
                lr[usize::from(d)] = lr[usize::from(a)] ^ imm;
            }
            MicroKind::Slli { d, a, shamt } => {
                lr[usize::from(d)] = lr[usize::from(a)] << shamt;
            }
            MicroKind::Srli { d, a, shamt } => {
                lr[usize::from(d)] = lr[usize::from(a)] >> shamt;
            }
            MicroKind::Srai { d, a, shamt } => {
                lr[usize::from(d)] = ((lr[usize::from(a)] as i16) >> shamt) as u16;
            }
            MicroKind::Slti { d, a, imm } => {
                lr[usize::from(d)] = u16::from((lr[usize::from(a)] as i16) < imm);
            }
            MicroKind::Li { d, imm } => lr[usize::from(d)] = imm,
            MicroKind::Lw { d, a, offset } => {
                let addr = lr[usize::from(a)].wrapping_add(offset);
                match dmem.get(usize::from(addr)) {
                    Some(&v) => lr[usize::from(d)] = v,
                    None => return Some((i, addr)),
                }
            }
            MicroKind::Sw { s, a, offset } => {
                let addr = lr[usize::from(a)].wrapping_add(offset);
                match dmem.get_mut(usize::from(addr)) {
                    Some(slot) => *slot = lr[usize::from(s)],
                    None => return Some((i, addr)),
                }
            }
            MicroKind::Nop => {}
            MicroKind::Out { port, s } => {
                out_log.push((port, lr[usize::from(s)]));
            }
            MicroKind::In { d, port } => {
                lr[usize::from(d)] = inputs[usize::from(port)];
            }
        }
        *c_energy += op.energy_j;
        *s_energy += op.energy_j;
    }
    None
}

/// Executes a block terminator against the local register file. Energy
/// is charged to both accumulators; integer accounting is returned for
/// the caller to fold in. `halt_pc` is the terminator's own address —
/// as in step mode, `halt` leaves the pc on itself.
#[inline(always)]
fn exec_term(
    term: &Term,
    lr: &mut [u16; NUM_SLOTS],
    halt_pc: u32,
    c_energy: &mut f64,
    s_energy: &mut f64,
) -> TermOutcome {
    let mut out =
        TermOutcome { next: 0, cycles: 0, taken: false, halted: false, checkpoint: false };
    match *term {
        Term::FallThrough { next } => out.next = next,
        Term::Branch {
            cond,
            a,
            b,
            taken_pc,
            fall_pc,
            cycles_nt,
            cycles_t,
            energy_nt_j,
            energy_t_j,
        } => {
            let x = lr[usize::from(a)];
            let y = lr[usize::from(b)];
            let taken = match cond {
                Cond::Eq => x == y,
                Cond::Ne => x != y,
                Cond::Lt => (x as i16) < (y as i16),
                Cond::Ge => (x as i16) >= (y as i16),
                Cond::Ltu => x < y,
                Cond::Geu => x >= y,
            };
            let (cycles, energy) =
                if taken { (cycles_t, energy_t_j) } else { (cycles_nt, energy_nt_j) };
            out.cycles = cycles;
            *c_energy += energy;
            *s_energy += energy;
            out.taken = taken;
            out.next = if taken { taken_pc } else { fall_pc };
        }
        Term::Jal { link_slot, link_val, target, cycles, energy_j } => {
            lr[usize::from(link_slot)] = link_val;
            out.cycles = cycles;
            *c_energy += energy_j;
            *s_energy += energy_j;
            out.next = target;
        }
        Term::Jalr { link_slot, link_val, a, offset, cycles, energy_j } => {
            // Target reads rs1 before the link write (rd == rs1).
            let target = u32::from(lr[usize::from(a)].wrapping_add(offset));
            lr[usize::from(link_slot)] = link_val;
            out.cycles = cycles;
            *c_energy += energy_j;
            *s_energy += energy_j;
            out.next = target;
        }
        Term::Halt { cycles, energy_j } => {
            out.cycles = cycles;
            *c_energy += energy_j;
            *s_energy += energy_j;
            out.halted = true;
            out.next = halt_pc;
        }
        Term::Ckpt { next, cycles, energy_j } => {
            out.cycles = cycles;
            *c_energy += energy_j;
            *s_energy += energy_j;
            out.checkpoint = true;
            out.next = next;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_isa::asm::assemble;

    fn run_src(src: &str) -> Machine {
        let p = assemble(src).expect("assembles");
        let mut m = Machine::new(&p).expect("loads");
        m.run(1_000_000).expect("runs");
        assert!(m.halted(), "program halted");
        m
    }

    #[test]
    fn arithmetic_wraps() {
        let m = run_src("li r1, 0xFFFF\naddi r2, r1, 1\nli r3, 0x8000\nsub r4, r0, r3\nhalt");
        assert_eq!(m.reg(Reg::R2), 0);
        assert_eq!(m.reg(Reg::R4), 0x8000);
    }

    #[test]
    fn signed_ops() {
        let m = run_src(
            "li r1, 0xFFFE   ; -2
             li r2, 3
             mul r3, r1, r2   ; -6
             mulh r4, r1, r2  ; high half of -6 = 0xFFFF
             slt r5, r1, r2   ; -2 < 3
             sltu r6, r1, r2  ; 0xFFFE < 3 unsigned? no
             srai r7, r1, 1   ; -1
             halt",
        );
        assert_eq!(m.reg(Reg::R3) as i16, -6);
        assert_eq!(m.reg(Reg::R4), 0xFFFF);
        assert_eq!(m.reg(Reg::R5), 1);
        assert_eq!(m.reg(Reg::R6), 0);
        assert_eq!(m.reg(Reg::R7) as i16, -1);
    }

    #[test]
    fn division_semantics() {
        let m = run_src(
            "li r1, 17\nli r2, 5\ndivu r3, r1, r2\nremu r4, r1, r2\n\
             divu r5, r1, r0\nremu r6, r1, r0\nhalt",
        );
        assert_eq!(m.reg(Reg::R3), 3);
        assert_eq!(m.reg(Reg::R4), 2);
        assert_eq!(m.reg(Reg::R5), 0xFFFF, "divide by zero yields all-ones");
        assert_eq!(m.reg(Reg::R6), 17, "remainder by zero yields dividend");
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let m = run_src("li r0, 99\nadd r1, r0, r0\nhalt");
        assert_eq!(m.reg(Reg::R0), 0);
        assert_eq!(m.reg(Reg::R1), 0);
    }

    #[test]
    fn loop_sums_memory() {
        let m = run_src(
            "
            li r1, buf
            li r2, 4        ; count
            li r3, 0        ; acc
        loop:
            lw r4, 0(r1)
            add r3, r3, r4
            addi r1, r1, 1
            addi r2, r2, -1
            bnez r2, loop
            sw r3, 0(r0)    ; result at address 0
            halt
        .data 0x100
        buf: .word 10, 20, 30, 40
        ",
        );
        assert_eq!(m.read_word(0), Some(100));
    }

    #[test]
    fn call_and_return() {
        let m = run_src(
            "
            li r1, 5
            call double
            mov r3, r1
            halt
        double:
            add r1, r1, r1
            ret
        ",
        );
        assert_eq!(m.reg(Reg::R3), 10);
    }

    #[test]
    fn io_ports() {
        let p = assemble("in r1, 2\naddi r1, r1, 1\nout 7, r1\nhalt").unwrap();
        let mut m = Machine::new(&p).unwrap();
        m.set_input(2, 41);
        m.run(10).unwrap();
        assert_eq!(m.out_log(), &[(7, 42)]);
    }

    #[test]
    fn ckpt_reports_checkpoint() {
        let p = assemble("ckpt\nhalt").unwrap();
        let mut m = Machine::new(&p).unwrap();
        let s = m.step().unwrap();
        assert!(s.checkpoint);
        let s = m.step().unwrap();
        assert!(s.halted && !s.checkpoint);
    }

    #[test]
    fn halted_machine_steps_free() {
        let p = assemble("halt").unwrap();
        let mut m = Machine::new(&p).unwrap();
        m.step().unwrap();
        let before = *m.counters();
        let s = m.step().unwrap();
        assert!(s.halted);
        assert_eq!(s.cycles, 0);
        assert_eq!(m.counters().instructions, before.instructions);
    }

    #[test]
    fn pc_out_of_range_faults() {
        let p = assemble("nop").unwrap();
        let mut m = Machine::new(&p).unwrap();
        m.step().unwrap();
        assert_eq!(m.step(), Err(SimError::PcOutOfRange { pc: 1 }));
    }

    #[test]
    fn mem_out_of_range_faults() {
        let p = assemble("li r1, 0x7FFF\nlw r2, 1(r1)\nhalt").unwrap();
        let mut m = Machine::new(&p).unwrap(); // default 8192 words
        let err = m.run(10).unwrap_err();
        assert!(matches!(err, SimError::MemOutOfRange { .. }));
    }

    #[test]
    fn data_segment_too_big_rejected() {
        let p = assemble(".text\nhalt\n.data 0x1FFF\n.word 1, 2").unwrap();
        assert!(matches!(
            Machine::with_config(&p, 0x2000, CycleModel::default(), EnergyModel::default()),
            Err(SimError::MemOutOfRange { .. })
        ));
    }

    #[test]
    fn counters_accumulate() {
        let m = run_src("li r1, 2\nli r2, 3\nmul r3, r1, r2\nlw r4, 0(r0)\nsw r4, 1(r0)\nhalt");
        let c = m.counters();
        assert_eq!(c.instructions, 6);
        assert!(c.cycles >= c.instructions);
        assert!(c.energy_j > 0.0);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let p = assemble("li r1, 1\nli r2, 2\nli r3, 3\nhalt").unwrap();
        let mut m = Machine::new(&p).unwrap();
        m.step().unwrap();
        m.step().unwrap();
        let snap = m.snapshot();
        m.run(10).unwrap();
        assert!(m.halted());
        m.restore(&snap);
        assert!(!m.halted());
        assert_eq!(m.pc(), snap.pc);
        assert_eq!(m.reg(Reg::R1), 1);
        assert_eq!(m.reg(Reg::R3), 0, "r3 not yet written at snapshot time");
        m.run(10).unwrap();
        assert_eq!(m.reg(Reg::R3), 3);
    }

    #[test]
    fn reset_volatile_returns_to_entry() {
        let p = assemble(".entry main\nnop\nmain: li r1, 7\nhalt").unwrap();
        let mut m = Machine::new(&p).unwrap();
        m.run(10).unwrap();
        assert_eq!(m.reg(Reg::R1), 7);
        m.reset_volatile();
        assert_eq!(m.pc(), 1);
        assert_eq!(m.reg(Reg::R1), 0);
        assert!(!m.halted());
    }

    #[test]
    fn taken_branch_costs_more() {
        let p = assemble("beq r0, r0, 1\nnop\nhalt").unwrap();
        let mut m = Machine::new(&p).unwrap();
        let taken = m.step().unwrap();
        let cm = CycleModel::default();
        assert_eq!(taken.cycles, cm.branch_taken);
        assert_eq!(m.pc(), 2);
    }

    #[test]
    fn negative_branch_below_zero_faults() {
        let p = assemble("beq r0, r0, -5").unwrap();
        let mut m = Machine::new(&p).unwrap();
        m.step().unwrap();
        assert!(matches!(m.step(), Err(SimError::PcOutOfRange { .. })));
    }

    #[test]
    fn deterministic_energy() {
        let src = "li r1, 100\nx: addi r1, r1, -1\nbnez r1, x\nhalt";
        let a = run_src(src);
        let b = run_src(src);
        assert_eq!(a.counters().energy_j.to_bits(), b.counters().energy_j.to_bits());
        assert_eq!(a.counters().cycles, b.counters().cycles);
    }

    /// Asserts two machines are bit-identical in every observable way.
    fn assert_machines_match(a: &Machine, b: &Machine, what: &str) {
        assert_eq!(a.snapshot(), b.snapshot(), "{what}");
        assert_eq!(a.halted(), b.halted(), "{what}");
        assert_eq!(a.dmem(), b.dmem(), "{what}");
        assert_eq!(a.out_log(), b.out_log(), "{what}");
        let ca = a.counters();
        let cb = b.counters();
        assert_eq!(ca.instructions, cb.instructions, "{what}");
        assert_eq!(ca.cycles, cb.cycles, "{what}");
        assert_eq!(ca.energy_j.to_bits(), cb.energy_j.to_bits(), "counter energy, {what}");
    }

    /// Step-mode reference for [`Machine::run_blocks`]: calls `step()`
    /// up to `max_insts` times, stopping after `halt` or `ckpt`, and
    /// sums the per-step costs.
    fn run_steps(m: &mut Machine, max_insts: u64) -> Result<BlockStats, SimError> {
        let mut stats = BlockStats::default();
        while stats.executed < max_insts && !m.halted() {
            let step = m.step()?;
            stats.executed += 1;
            stats.cycles += u64::from(step.cycles);
            stats.energy_j += step.energy_j;
            if step.checkpoint {
                stats.checkpoint = true;
                break;
            }
        }
        Ok(stats)
    }

    /// Asserts that `run_blocks(budget)` and a `run_steps(budget)` step
    /// loop over the same program leave bit-identical machines and
    /// return bit-identical stats.
    fn assert_block_equivalence(src: &str, budgets: &[u64]) {
        let p = assemble(src).expect("assembles");
        for &budget in budgets {
            let mut by_step = Machine::new(&p).expect("loads");
            let mut by_block = Machine::new(&p).expect("loads");
            match (run_steps(&mut by_step, budget), by_block.run_blocks(budget)) {
                (Ok(sa), Ok(sb)) => {
                    assert_eq!(sa.executed, sb.executed, "budget {budget}");
                    assert_eq!(sa.cycles, sb.cycles, "budget {budget}");
                    assert_eq!(
                        sa.energy_j.to_bits(),
                        sb.energy_j.to_bits(),
                        "stats energy, budget {budget}"
                    );
                    assert_eq!(sa.checkpoint, sb.checkpoint, "budget {budget}");
                }
                (Err(ea), Err(eb)) => assert_eq!(ea, eb, "budget {budget}"),
                (a, b) => panic!("budget {budget}: step {a:?} vs block {b:?}"),
            }
            assert_machines_match(&by_step, &by_block, &format!("budget {budget}"));
        }
    }

    #[test]
    fn blocks_match_steps_on_loop() {
        assert_block_equivalence(
            "li r1, 50\nli r2, 0\nx: add r2, r2, r1\naddi r1, r1, -1\nbnez r1, x\nsw r2, 0(r0)\nhalt",
            &[0, 1, 2, 3, 5, 7, 100, 1_000_000],
        );
    }

    #[test]
    fn blocks_match_steps_on_io_and_ckpt() {
        assert_block_equivalence(
            "in r1, 2\nckpt\naddi r1, r1, 1\nout 7, r1\nckpt\nhalt",
            &[0, 1, 2, 3, 4, 5, 6, 100],
        );
    }

    #[test]
    fn blocks_match_steps_on_call_return() {
        assert_block_equivalence(
            "li r1, 5\ncall double\nmov r3, r1\nhalt\ndouble: add r1, r1, r1\nret",
            &[1, 2, 3, 4, 5, 6, 7, 100],
        );
    }

    #[test]
    fn blocks_match_steps_on_fault() {
        assert_block_equivalence("li r1, 0x7FFF\nli r2, 9\nlw r3, 1(r1)\nhalt", &[1, 2, 3, 100]);
        assert_block_equivalence("li r1, 0x7FFF\nsw r1, 1(r1)\nhalt", &[1, 2, 100]);
        // Wild control flow: pc leaves the image.
        assert_block_equivalence("beq r0, r0, -5", &[1, 2, 100]);
    }

    #[test]
    fn blocks_handle_mid_block_entry() {
        // Restore to a non-leader address: the engine must run the rest
        // of the block from there.
        let p = assemble("li r1, 1\nli r2, 2\nli r3, 3\nli r4, 4\nhalt").unwrap();
        let mut by_step = Machine::new(&p).unwrap();
        let mut by_block = Machine::new(&p).unwrap();
        let mid = ArchState { regs: [0; 16], pc: 2 };
        by_step.restore(&mid);
        by_block.restore(&mid);
        run_steps(&mut by_step, 100).unwrap();
        by_block.run_blocks(100).unwrap();
        assert_eq!(by_step.snapshot(), by_block.snapshot());
        assert_eq!(by_step.counters().energy_j.to_bits(), by_block.counters().energy_j.to_bits());
        assert!(by_block.halted());
        assert_eq!(by_block.reg(Reg::R1), 0, "r1 skipped by mid-block entry");
        assert_eq!(by_block.reg(Reg::R3), 3);
    }

    #[test]
    fn restored_mid_block_snapshot_runs_suffix_exactly() {
        // A loop whose body is one long block. Snapshots taken after
        // every prefix of the run land at every offset inside it; each
        // is restored into fresh machines, and the block engine must run
        // the rest of the block as a suffix slice exactly as step mode,
        // whole and under tight budgets.
        let src = "li r1, 3\nli r5, 0x40\nx: addi r2, r2, 7\nxor r3, r3, r2\nsw r3, 0(r5)\n\
                   addi r5, r5, 1\nslli r4, r2, 1\nadd r3, r3, r4\naddi r1, r1, -1\n\
                   bnez r1, x\nhalt";
        let p = assemble(src).unwrap();
        let mut donor = Machine::new(&p).unwrap();
        let mut mid_block = 0;
        while !donor.halted() {
            let snap = donor.snapshot();
            let blocks = &donor.image.blocks;
            let owner = blocks.owner(snap.pc).expect("pc inside the image");
            if blocks.plans[owner as usize].start != snap.pc {
                mid_block += 1;
            }
            for budget in [1, 2, 3, 5, u64::MAX] {
                let resumed = || {
                    let mut m = Machine::new(&p).unwrap();
                    m.dmem.copy_from_slice(donor.dmem());
                    m.restore(&snap);
                    m
                };
                let (mut by_step, mut by_block) = (resumed(), resumed());
                while !by_step.halted() {
                    let a = run_steps(&mut by_step, budget).unwrap();
                    let b = by_block.run_blocks(budget).unwrap();
                    let what = format!("snapshot at pc {}, budget {budget}", snap.pc);
                    assert_eq!(a.executed, b.executed, "{what}");
                    assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits(), "{what}");
                    assert_machines_match(&by_step, &by_block, &what);
                }
            }
            donor.step().unwrap();
        }
        assert!(mid_block >= 6, "snapshots covered mid-block pcs ({mid_block})");
    }

    #[test]
    fn jalr_link_register_alias() {
        // jalr with rd == rs1 must compute the target before the link
        // write, in both engines.
        let src = "li r1, 3\njalr r1, r1, 0\nhalt\nli r2, 9\nhalt";
        assert_block_equivalence(src, &[1, 2, 3, 100]);
        let p = assemble(src).unwrap();
        let mut m = Machine::new(&p).unwrap();
        m.run_blocks(100).unwrap();
        assert_eq!(m.reg(Reg::R2), 9, "jalr jumped to pre-link rs1 value");
        assert_eq!(m.reg(Reg::R1), 2, "link value written after target read");
    }

    #[test]
    fn block_table_covers_image() {
        let p = assemble("li r1, 4\nx: addi r1, r1, -1\nbnez r1, x\nhalt").unwrap();
        let m = Machine::new(&p).unwrap();
        // entry block [li], loop block [addi, bnez], halt block.
        assert_eq!(m.image.blocks.plans.len(), 3);
        // Code ahead of a non-zero entry has no leader, yet gets a block.
        let p = assemble(".entry main\nnop\nnop\nmain: halt").unwrap();
        let blocks = &Machine::new(&p).unwrap().image.blocks;
        assert_eq!(blocks.plans.len(), 2);
        assert_eq!([0, 1, 2].map(|pc| blocks.owner(pc)), [Some(0), Some(0), Some(1)]);
        assert_eq!(blocks.owner(3), None);
    }

    #[test]
    fn blocks_match_steps_on_code_ahead_of_entry() {
        // Only `jalr` reaches the code ahead of `main`: alternately at
        // its first word and mid-block at its second.
        let src = ".entry main
            ahead: addi r2, r2, 3
                   out 1, r2
                   sw r2, 64(r0)
                   jalr r0, r5, 0
            main:  li r4, 3
            loop:  andi r6, r4, 1
                   jalr r5, r6, 0
                   addi r4, r4, -1
                   bnez r4, loop
                   halt";
        let budgets: Vec<u64> = (1..=20).chain([1_000]).collect();
        assert_block_equivalence(src, &budgets);
        let mut m = Machine::new(&assemble(src).unwrap()).unwrap();
        m.run_blocks(1_000).unwrap();
        assert!(m.halted());
        assert_eq!(m.out_log(), &[(1, 0), (1, 3), (1, 3)], "mid-block, whole, mid-block");
    }

    #[test]
    fn blocks_match_steps_on_jalr_past_the_image() {
        let src = "li r1, 40\nout 2, r1\njalr r3, r1, 0\nhalt";
        assert_block_equivalence(src, &[1, 2, 3, 4, 5, 100]);
        let mut m = Machine::new(&assemble(src).unwrap()).unwrap();
        assert_eq!(m.run_blocks(100), Err(SimError::PcOutOfRange { pc: 40 }));
        assert_eq!((m.pc(), m.reg(Reg::R3), m.counters().instructions), (40, 3, 3));
    }
}
