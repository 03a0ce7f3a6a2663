//! Structure-of-arrays lane batching: W same-program trials in lockstep.
//!
//! A [`LaneMachine`] executes up to [`MAX_LANES`] *lanes* — independent
//! machines running the same [`MachineImage`] — in lockstep through the
//! fused block plans. State is laid out structure-of-arrays: registers
//! slot-major (`regs[slot * width + lane]`), data memory lane-major,
//! inputs and output logs per lane. While lanes are *converged* (same
//! pc, same halted flag, bit-identical counters), one dispatch, one
//! integer-accounting add, and one f64 energy add per op serve every
//! lane; only the `u16` data operations scale with the lane count. That
//! is where the tier's throughput comes from: per-op cost is W cheap
//! lane ops plus one shared bookkeeping step instead of W full scalar
//! pipelines.
//!
//! Sharing the accounting is exact, not approximate: op costs are
//! data-independent, so converged lanes charge identical cycle/energy
//! sequences. The moment lanes would differ they are *peeled* to the
//! scalar tier ([`Machine::run_blocks`]), each carrying its own exact
//! state:
//!
//! - **Branch divergence** — lanes disagreeing with the leading lane's
//!   direction peel *before* the terminator (pc on the branch itself)
//!   and re-execute it scalar, because taken/not-taken costs differ.
//! - **`jalr` spread** — indirect-jump cost is uniform, so the
//!   terminator retires in lockstep and lanes peel *after* it at their
//!   own targets.
//! - **Memory faults** — faulting lanes peel at the faulting op with
//!   the retired prefix accounted exactly as the scalar engine would,
//!   and carry a sticky [`SimError`]; surviving lanes continue.
//! - **No lockstep progress** — a non-leader pc (after `jalr`) or a
//!   block that cannot fit the whole budget peels every lane (a
//!   *scalar fallback*), where the scalar engine's partial-block
//!   slices take over.
//!
//! Peeled lanes keep running on their own machines on subsequent
//! [`run`](LaneMachine::run) calls; [`extract`](LaneMachine::extract)
//! returns any lane as a plain [`Machine`], bit-identical to a scalar
//! machine driven with the same inputs.

use std::sync::Arc;

use crate::block::{BlockPlan, Cond, MicroKind, Term, DISCARD_SLOT, NO_PLAN, NUM_SLOTS};
use crate::machine::{Counters, Machine, MachineImage, SimError};

/// Maximum lanes per [`LaneMachine`] (divergence masks are `u64`).
pub const MAX_LANES: usize = 64;

/// Cumulative statistics for one [`LaneMachine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Blocks dispatched in lockstep.
    pub lockstep_blocks: u64,
    /// Shared instructions retired in lockstep (per-lane count).
    pub lockstep_insts: u64,
    /// Effective instructions retired in lockstep, summed over the
    /// lanes that were converged at each block.
    pub lane_insts: u64,
    /// Lanes peeled to the scalar tier on branch/`jalr` divergence.
    pub divergence_peels: u64,
    /// Lanes peeled to the scalar tier on a memory fault.
    pub fault_peels: u64,
    /// Whole-group peels when lockstep could make no progress
    /// (non-leader pc or block larger than the remaining budget).
    pub scalar_fallbacks: u64,
}

/// W same-program lanes executing in lockstep with SoA state.
#[derive(Debug)]
pub struct LaneMachine {
    image: Arc<MachineImage>,
    width: usize,
    /// Data-memory words per lane.
    words: usize,
    /// Slot-major register file: `regs[slot * width + lane]`, slot 0
    /// all-zero (r0), slot [`DISCARD_SLOT`] absorbing r0 writes.
    regs: Vec<u16>,
    /// Lane-major data memory: `dmem[lane * words + addr]`.
    dmem: Vec<u16>,
    /// Per-lane latched input ports: `inputs[lane * 16 + port]`.
    inputs: Vec<u16>,
    out_logs: Vec<Vec<(u8, u16)>>,
    /// Shared state of the converged lanes.
    pc: u32,
    halted: bool,
    counters: Counters,
    /// Converged live lanes, ascending; parallel bitmask.
    active: Vec<u16>,
    active_mask: u64,
    /// Lanes that left lockstep, each now a scalar machine.
    peeled: Vec<Option<Machine>>,
    /// Sticky per-lane execution fault (the lane is finished).
    errors: Vec<Option<SimError>>,
    stats: LaneStats,
}

impl LaneMachine {
    /// Creates `width` fresh lanes over a shared image.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds [`MAX_LANES`].
    #[must_use]
    pub fn new(image: &Arc<MachineImage>, width: usize) -> LaneMachine {
        assert!((1..=MAX_LANES).contains(&width), "lane width {width} not in 1..={MAX_LANES}");
        let words = image.dmem_init.len();
        let mut dmem = Vec::with_capacity(words * width);
        for _ in 0..width {
            dmem.extend_from_slice(&image.dmem_init);
        }
        LaneMachine {
            image: Arc::clone(image),
            width,
            words,
            regs: vec![0; NUM_SLOTS * width],
            dmem,
            inputs: vec![0; 16 * width],
            out_logs: vec![Vec::new(); width],
            pc: image.entry,
            halted: false,
            counters: Counters::default(),
            active: (0..width as u16).collect(),
            active_mask: if width == MAX_LANES { u64::MAX } else { (1u64 << width) - 1 },
            peeled: vec![None; width],
            errors: vec![None; width],
            stats: LaneStats::default(),
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The shared program image.
    #[must_use]
    pub fn image(&self) -> &Arc<MachineImage> {
        &self.image
    }

    /// Cumulative lane statistics.
    #[must_use]
    pub fn stats(&self) -> LaneStats {
        self.stats
    }

    /// Mean fraction of lanes converged per lockstep block (1.0 = every
    /// block served all lanes; 0.0 before any lockstep execution).
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        if self.stats.lockstep_insts == 0 {
            return 0.0;
        }
        self.stats.lane_insts as f64 / (self.stats.lockstep_insts * self.width as u64) as f64
    }

    /// Latches an input-port value for one lane.
    pub fn set_input(&mut self, lane: usize, port: u8, value: u16) {
        if let Some(m) = self.peeled[lane].as_mut() {
            m.set_input(port, value);
        } else {
            self.inputs[lane * 16 + usize::from(port & 0xF)] = value;
        }
    }

    /// Writes a register in one lane (writes to r0 are discarded).
    pub fn set_reg(&mut self, lane: usize, r: nvp_isa::Reg, value: u16) {
        if let Some(m) = self.peeled[lane].as_mut() {
            m.set_reg(r, value);
        } else if !r.is_zero() {
            self.regs[r.index() * self.width + lane] = value;
        }
    }

    /// Writes a data-memory word in one lane. Returns `false` if out of
    /// range.
    pub fn write_word(&mut self, lane: usize, addr: u16, value: u16) -> bool {
        if let Some(m) = self.peeled[lane].as_mut() {
            return m.write_word(addr, value);
        }
        if usize::from(addr) >= self.words {
            return false;
        }
        self.dmem[lane * self.words + usize::from(addr)] = value;
        true
    }

    /// Reads a data-memory word from one lane, if within range.
    #[must_use]
    pub fn read_word(&self, lane: usize, addr: u16) -> Option<u16> {
        if let Some(m) = self.peeled[lane].as_ref() {
            return m.read_word(addr);
        }
        self.dmem.get(lane * self.words + usize::from(addr)).copied()
    }

    /// `true` once the lane has executed `halt`.
    #[must_use]
    pub fn lane_halted(&self, lane: usize) -> bool {
        match self.peeled[lane].as_ref() {
            Some(m) => m.halted(),
            None => self.halted,
        }
    }

    /// The lane's sticky execution fault, if it faulted.
    #[must_use]
    pub fn lane_error(&self, lane: usize) -> Option<&SimError> {
        self.errors[lane].as_ref()
    }

    /// The lane's counters (shared while converged).
    #[must_use]
    pub fn lane_counters(&self, lane: usize) -> Counters {
        match self.peeled[lane].as_ref() {
            Some(m) => *m.counters(),
            None => self.counters,
        }
    }

    /// `true` when every lane is halted or faulted — further
    /// [`run`](LaneMachine::run) calls cannot make progress.
    #[must_use]
    pub fn all_done(&self) -> bool {
        (0..self.width).all(|l| self.errors[l].is_some() || self.lane_halted(l))
    }

    /// Extracts one lane as a plain scalar [`Machine`] (clone of the
    /// lane's exact state; the lane keeps running in the group).
    #[must_use]
    pub fn extract(&self, lane: usize) -> Machine {
        if let Some(m) = self.peeled[lane].as_ref() {
            return m.clone();
        }
        self.lane_machine(lane, self.pc, self.halted, self.counters, self.out_logs[lane].clone())
    }

    /// Advances every live lane by up to `max_insts` instructions:
    /// previously peeled lanes each run scalar, then the converged group
    /// runs in lockstep. A lockstep `ckpt` stop ends the call early for
    /// the converged group, exactly as it does for
    /// [`Machine::run_blocks`]; faults never abort the group — the
    /// faulting lanes peel with a sticky [`lane_error`](LaneMachine::lane_error).
    pub fn run(&mut self, max_insts: u64) {
        for lane in 0..self.width {
            if self.errors[lane].is_some() {
                continue;
            }
            if let Some(m) = self.peeled[lane].as_mut() {
                if !m.halted() {
                    if let Err(e) = m.run_blocks(max_insts) {
                        self.errors[lane] = Some(e);
                    }
                }
            }
        }
        self.run_lockstep(max_insts);
    }

    fn run_lockstep(&mut self, max_insts: u64) {
        let mut executed = 0u64;
        while executed < max_insts && !self.halted && !self.active.is_empty() {
            let plan_idx = self.image.blocks.leader(self.pc);
            let fits = plan_idx != NO_PLAN
                && self.image.blocks.plans[plan_idx as usize].insts <= max_insts - executed;
            if !fits {
                if executed == 0 {
                    // No lockstep progress possible at all this call:
                    // hand every converged lane to the scalar tier.
                    self.stats.scalar_fallbacks += 1;
                    self.peel_all_and_run(max_insts);
                }
                return;
            }
            let plan = self.image.blocks.plans[plan_idx as usize];
            match self.exec_block(&plan, executed, max_insts) {
                Some(now) => executed = now,
                None => return,
            }
        }
    }

    /// Executes one whole block (body + terminator) in lockstep.
    /// Returns the updated shared-instruction count, or `None` when the
    /// call must stop (halt, ckpt, or every lane peeled away).
    fn exec_block(&mut self, plan: &BlockPlan, executed: u64, max_insts: u64) -> Option<u64> {
        let w = self.width;
        let op_base = plan.op_start as usize;
        let mut c_energy = self.counters.energy_j;

        for i in 0..plan.op_len as usize {
            let op = self.image.blocks.ops[op_base + i];
            match op.kind {
                MicroKind::Add { d, a, b } => {
                    lanewise2(&mut self.regs, w, &self.active, d, a, b, |x, y| x.wrapping_add(y));
                }
                MicroKind::Sub { d, a, b } => {
                    lanewise2(&mut self.regs, w, &self.active, d, a, b, |x, y| x.wrapping_sub(y));
                }
                MicroKind::And { d, a, b } => {
                    lanewise2(&mut self.regs, w, &self.active, d, a, b, |x, y| x & y);
                }
                MicroKind::Or { d, a, b } => {
                    lanewise2(&mut self.regs, w, &self.active, d, a, b, |x, y| x | y);
                }
                MicroKind::Xor { d, a, b } => {
                    lanewise2(&mut self.regs, w, &self.active, d, a, b, |x, y| x ^ y);
                }
                MicroKind::Sll { d, a, b } => {
                    lanewise2(&mut self.regs, w, &self.active, d, a, b, |x, y| x << (y & 0xF));
                }
                MicroKind::Srl { d, a, b } => {
                    lanewise2(&mut self.regs, w, &self.active, d, a, b, |x, y| x >> (y & 0xF));
                }
                MicroKind::Sra { d, a, b } => {
                    lanewise2(&mut self.regs, w, &self.active, d, a, b, |x, y| {
                        ((x as i16) >> (y & 0xF)) as u16
                    });
                }
                MicroKind::Mul { d, a, b } => {
                    lanewise2(&mut self.regs, w, &self.active, d, a, b, |x, y| {
                        (i32::from(x as i16) * i32::from(y as i16)) as u16
                    });
                }
                MicroKind::Mulh { d, a, b } => {
                    lanewise2(&mut self.regs, w, &self.active, d, a, b, |x, y| {
                        ((i32::from(x as i16) * i32::from(y as i16)) >> 16) as u16
                    });
                }
                MicroKind::Slt { d, a, b } => {
                    lanewise2(&mut self.regs, w, &self.active, d, a, b, |x, y| {
                        u16::from((x as i16) < (y as i16))
                    });
                }
                MicroKind::Sltu { d, a, b } => {
                    lanewise2(&mut self.regs, w, &self.active, d, a, b, |x, y| u16::from(x < y));
                }
                MicroKind::Divu { d, a, b } => {
                    lanewise2(&mut self.regs, w, &self.active, d, a, b, |x, y| {
                        x.checked_div(y).unwrap_or(0xFFFF)
                    });
                }
                MicroKind::Remu { d, a, b } => {
                    lanewise2(&mut self.regs, w, &self.active, d, a, b, |x, y| {
                        if y == 0 {
                            x
                        } else {
                            x % y
                        }
                    });
                }
                MicroKind::Addi { d, a, imm } => {
                    lanewise1(&mut self.regs, w, &self.active, d, a, |x| x.wrapping_add(imm));
                }
                MicroKind::Andi { d, a, imm } => {
                    lanewise1(&mut self.regs, w, &self.active, d, a, |x| x & imm);
                }
                MicroKind::Ori { d, a, imm } => {
                    lanewise1(&mut self.regs, w, &self.active, d, a, |x| x | imm);
                }
                MicroKind::Xori { d, a, imm } => {
                    lanewise1(&mut self.regs, w, &self.active, d, a, |x| x ^ imm);
                }
                MicroKind::Slli { d, a, shamt } => {
                    lanewise1(&mut self.regs, w, &self.active, d, a, |x| x << shamt);
                }
                MicroKind::Srli { d, a, shamt } => {
                    lanewise1(&mut self.regs, w, &self.active, d, a, |x| x >> shamt);
                }
                MicroKind::Srai { d, a, shamt } => {
                    lanewise1(&mut self.regs, w, &self.active, d, a, |x| {
                        ((x as i16) >> shamt) as u16
                    });
                }
                MicroKind::Slti { d, a, imm } => {
                    lanewise1(&mut self.regs, w, &self.active, d, a, |x| {
                        u16::from((x as i16) < imm)
                    });
                }
                MicroKind::Li { d, imm } => {
                    lanewise1(&mut self.regs, w, &self.active, d, 0, |_| imm);
                }
                MicroKind::Lw { d, a, offset } => {
                    let a0 = usize::from(a) * w;
                    let d0 = usize::from(d) * w;
                    let mut faults: Option<Vec<(usize, u16)>> = None;
                    for idx in 0..self.active.len() {
                        let l = usize::from(self.active[idx]);
                        let addr = self.regs[a0 + l].wrapping_add(offset);
                        if usize::from(addr) < self.words {
                            self.regs[d0 + l] = self.dmem[l * self.words + usize::from(addr)];
                        } else {
                            faults.get_or_insert_with(Vec::new).push((l, addr));
                        }
                    }
                    if let Some(faults) = faults {
                        self.counters.energy_j = c_energy;
                        self.peel_faulted(&faults, plan, i);
                        if self.active.is_empty() {
                            return None;
                        }
                    }
                }
                MicroKind::Sw { s, a, offset } => {
                    let a0 = usize::from(a) * w;
                    let s0 = usize::from(s) * w;
                    let mut faults: Option<Vec<(usize, u16)>> = None;
                    for idx in 0..self.active.len() {
                        let l = usize::from(self.active[idx]);
                        let addr = self.regs[a0 + l].wrapping_add(offset);
                        if usize::from(addr) < self.words {
                            self.dmem[l * self.words + usize::from(addr)] = self.regs[s0 + l];
                        } else {
                            faults.get_or_insert_with(Vec::new).push((l, addr));
                        }
                    }
                    if let Some(faults) = faults {
                        self.counters.energy_j = c_energy;
                        self.peel_faulted(&faults, plan, i);
                        if self.active.is_empty() {
                            return None;
                        }
                    }
                }
                MicroKind::Nop => {}
                MicroKind::Out { port, s } => {
                    let s0 = usize::from(s) * w;
                    for idx in 0..self.active.len() {
                        let l = usize::from(self.active[idx]);
                        self.out_logs[l].push((port, self.regs[s0 + l]));
                    }
                }
                MicroKind::In { d, port } => {
                    let d0 = usize::from(d) * w;
                    for idx in 0..self.active.len() {
                        let l = usize::from(self.active[idx]);
                        self.regs[d0 + l] = self.inputs[l * 16 + usize::from(port)];
                    }
                }
            }
            // One shared energy add per op: converged lanes charge
            // identical, data-independent per-op costs.
            c_energy += op.energy_j;
        }

        // Terminator. Per-arm peel rules keep every lane's accounting
        // exactly what the scalar engine would have produced.
        let mut stop = false;
        match plan.term {
            Term::FallThrough { next } => {
                self.counters.energy_j = c_energy;
                apply_ints(&mut self.counters, plan, 0, false);
                self.pc = next;
            }
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
                let mask = cond_mask(&self.regs, w, &self.active, cond, a, b);
                let lead_taken = mask & (1u64 << self.active[0]) != 0;
                let divergent = if lead_taken { self.active_mask & !mask } else { mask };
                if divergent != 0 {
                    // Taken/not-taken costs differ, so disagreeing lanes
                    // peel *before* the terminator and re-execute it on
                    // the scalar tier with their own direction.
                    self.counters.energy_j = c_energy;
                    let mut cnt = self.counters;
                    cnt.instructions += u64::from(plan.op_len);
                    cnt.cycles += plan.body_cycles;
                    for (c, add) in cnt.class_counts.iter_mut().zip(&plan.body_class_counts) {
                        *c += add;
                    }
                    let term_pc = plan.start + plan.op_len;
                    // `fits` guaranteed op_len + 1 <= max_insts - executed.
                    let budget_after = max_insts - executed - u64::from(plan.op_len);
                    self.peel_divergent(divergent, term_pc, cnt, budget_after);
                }
                let (cycles, energy) =
                    if lead_taken { (cycles_t, energy_t_j) } else { (cycles_nt, energy_nt_j) };
                c_energy += energy;
                self.counters.energy_j = c_energy;
                apply_ints(&mut self.counters, plan, cycles, lead_taken);
                self.pc = if lead_taken { taken_pc } else { fall_pc };
            }
            Term::Jal { link_slot, link_val, target, cycles, energy_j } => {
                lanewise1(&mut self.regs, w, &self.active, link_slot, 0, |_| link_val);
                c_energy += energy_j;
                self.counters.energy_j = c_energy;
                apply_ints(&mut self.counters, plan, cycles, false);
                self.pc = target;
            }
            Term::Jalr { link_slot, link_val, a, offset, cycles, energy_j } => {
                // Indirect-jump cost is uniform: every lane retires the
                // terminator in lockstep (targets read rs1 before the
                // link write), then lanes peel *after* it at their own
                // targets if they spread.
                let a0 = usize::from(a) * w;
                let mut targets = [0u32; MAX_LANES];
                for idx in 0..self.active.len() {
                    let l = usize::from(self.active[idx]);
                    targets[l] = u32::from(self.regs[a0 + l].wrapping_add(offset));
                }
                lanewise1(&mut self.regs, w, &self.active, link_slot, 0, |_| link_val);
                c_energy += energy_j;
                self.counters.energy_j = c_energy;
                apply_ints(&mut self.counters, plan, cycles, false);
                let lead = targets[usize::from(self.active[0])];
                let mut divergent = 0u64;
                for idx in 0..self.active.len() {
                    let l = usize::from(self.active[idx]);
                    if targets[l] != lead {
                        divergent |= 1u64 << l;
                    }
                }
                if divergent != 0 {
                    let budget_after = max_insts - executed - plan.insts;
                    let cnt = self.counters;
                    for (l, &target) in targets.iter().enumerate().take(self.width) {
                        if divergent & (1u64 << l) != 0 {
                            self.peel_one(l, target, cnt, budget_after);
                        }
                    }
                }
                self.pc = lead;
            }
            Term::Halt { cycles, energy_j } => {
                c_energy += energy_j;
                self.counters.energy_j = c_energy;
                apply_ints(&mut self.counters, plan, cycles, false);
                self.halted = true;
                // As in step mode, pc stays on the halt instruction.
                self.pc = plan.start + plan.op_len;
                stop = true;
            }
            Term::Ckpt { next, cycles, energy_j } => {
                c_energy += energy_j;
                self.counters.energy_j = c_energy;
                apply_ints(&mut self.counters, plan, cycles, false);
                self.pc = next;
                stop = true;
            }
        }

        self.stats.lockstep_blocks += 1;
        self.stats.lockstep_insts += plan.insts;
        self.stats.lane_insts += plan.insts * self.active.len() as u64;
        if stop {
            None
        } else {
            Some(executed + plan.insts)
        }
    }

    /// Peels `faults` lanes at body op `done` of `plan` with the retired
    /// prefix accounted exactly as the scalar fault path does, recording
    /// a sticky [`SimError::MemOutOfRange`] per lane. The shared
    /// `counters.energy_j` must already be synced to the pre-fault-op
    /// accumulator.
    fn peel_faulted(&mut self, faults: &[(usize, u16)], plan: &BlockPlan, done: usize) {
        let mut cnt = self.counters;
        cnt.instructions += done as u64;
        let op_base = plan.op_start as usize;
        for j in 0..done {
            let op = self.image.blocks.ops[op_base + j];
            cnt.cycles += u64::from(op.cycles);
            cnt.class_counts[usize::from(op.class_idx)] += 1;
        }
        let pc = plan.start + done as u32;
        for &(lane, addr) in faults {
            let log = std::mem::take(&mut self.out_logs[lane]);
            let m = self.lane_machine(lane, pc, false, cnt, log);
            self.peeled[lane] = Some(m);
            self.errors[lane] = Some(SimError::MemOutOfRange { addr, pc });
            self.stats.fault_peels += 1;
            self.deactivate(lane);
        }
    }

    /// Peels every lane in `mask` at `pc` with counters `cnt`, then runs
    /// each for the lane's remaining per-call budget on the scalar tier.
    fn peel_divergent(&mut self, mask: u64, pc: u32, cnt: Counters, budget: u64) {
        for l in 0..self.width {
            if mask & (1u64 << l) != 0 {
                self.peel_one(l, pc, cnt, budget);
            }
        }
    }

    fn peel_one(&mut self, lane: usize, pc: u32, cnt: Counters, budget: u64) {
        let log = std::mem::take(&mut self.out_logs[lane]);
        let mut m = self.lane_machine(lane, pc, false, cnt, log);
        self.stats.divergence_peels += 1;
        self.deactivate(lane);
        if budget > 0 {
            if let Err(e) = m.run_blocks(budget) {
                self.errors[lane] = Some(e);
            }
        }
        self.peeled[lane] = Some(m);
    }

    /// Peels every converged lane at the shared pc and runs each for
    /// `budget` scalar instructions (the lockstep no-progress path).
    fn peel_all_and_run(&mut self, budget: u64) {
        let lanes: Vec<usize> = self.active.iter().map(|&l| usize::from(l)).collect();
        for lane in lanes {
            let log = std::mem::take(&mut self.out_logs[lane]);
            let mut m = self.lane_machine(lane, self.pc, self.halted, self.counters, log);
            if let Err(e) = m.run_blocks(budget) {
                self.errors[lane] = Some(e);
            }
            self.peeled[lane] = Some(m);
        }
        self.active.clear();
        self.active_mask = 0;
    }

    /// Builds a scalar [`Machine`] from one lane's SoA state.
    fn lane_machine(
        &self,
        lane: usize,
        pc: u32,
        halted: bool,
        counters: Counters,
        out_log: Vec<(u8, u16)>,
    ) -> Machine {
        let w = self.width;
        let mut regs = [0u16; 16];
        for (slot, r) in regs.iter_mut().enumerate().skip(1) {
            *r = self.regs[slot * w + lane];
        }
        let mut inputs = [0u16; 16];
        inputs.copy_from_slice(&self.inputs[lane * 16..lane * 16 + 16]);
        let dmem = self.dmem[lane * self.words..(lane + 1) * self.words].to_vec();
        Machine::from_lane_parts(
            Arc::clone(&self.image),
            regs,
            pc,
            halted,
            dmem,
            inputs,
            out_log,
            counters,
        )
    }

    fn deactivate(&mut self, lane: usize) {
        self.active.retain(|&l| usize::from(l) != lane);
        self.active_mask &= !(1u64 << lane);
    }
}

/// Folds one whole block's integer accounting into `counters`, exactly
/// as the scalar fused engine does per streak iteration.
fn apply_ints(counters: &mut Counters, plan: &BlockPlan, term_cycles: u32, taken: bool) {
    counters.instructions += plan.insts;
    counters.cycles += plan.body_cycles + u64::from(term_cycles);
    for (c, add) in counters.class_counts.iter_mut().zip(&plan.body_class_counts) {
        *c += add;
    }
    if !matches!(plan.term, Term::FallThrough { .. }) {
        counters.class_counts[usize::from(plan.term_class)] += 1;
    }
    counters.branches_taken += u64::from(taken);
}

/// Applies `f(src)` to the `a` row, writing the `d` row, for the active
/// lanes. Dense groups (no peels yet) take a contiguous, temporary-
/// buffered path the compiler can vectorize; sparse groups loop the
/// active list. `d` may be [`DISCARD_SLOT`]; row 0 (r0) is never a
/// destination.
#[inline(always)]
fn lanewise1(regs: &mut [u16], w: usize, active: &[u16], d: u8, a: u8, f: impl Fn(u16) -> u16) {
    debug_assert!(usize::from(d) != 0 || usize::from(d) == usize::from(DISCARD_SLOT) || d != 0);
    let a0 = usize::from(a) * w;
    let d0 = usize::from(d) * w;
    if active.len() == w {
        let mut ta = [0u16; MAX_LANES];
        ta[..w].copy_from_slice(&regs[a0..a0 + w]);
        for (dst, &x) in regs[d0..d0 + w].iter_mut().zip(&ta[..w]) {
            *dst = f(x);
        }
    } else {
        for &l in active {
            let l = usize::from(l);
            regs[d0 + l] = f(regs[a0 + l]);
        }
    }
}

/// Two-source variant of [`lanewise1`].
#[inline(always)]
fn lanewise2(
    regs: &mut [u16],
    w: usize,
    active: &[u16],
    d: u8,
    a: u8,
    b: u8,
    f: impl Fn(u16, u16) -> u16,
) {
    let a0 = usize::from(a) * w;
    let b0 = usize::from(b) * w;
    let d0 = usize::from(d) * w;
    if active.len() == w {
        let mut ta = [0u16; MAX_LANES];
        let mut tb = [0u16; MAX_LANES];
        ta[..w].copy_from_slice(&regs[a0..a0 + w]);
        tb[..w].copy_from_slice(&regs[b0..b0 + w]);
        for ((dst, &x), &y) in regs[d0..d0 + w].iter_mut().zip(&ta[..w]).zip(&tb[..w]) {
            *dst = f(x, y);
        }
    } else {
        for &l in active {
            let l = usize::from(l);
            regs[d0 + l] = f(regs[a0 + l], regs[b0 + l]);
        }
    }
}

/// Bitmask of active lanes whose branch condition holds.
#[inline(always)]
fn cond_mask(regs: &[u16], w: usize, active: &[u16], cond: Cond, a: u8, b: u8) -> u64 {
    let a0 = usize::from(a) * w;
    let b0 = usize::from(b) * w;
    let mut mask = 0u64;
    for &l in active {
        let l = usize::from(l);
        let x = regs[a0 + l];
        let y = regs[b0 + l];
        let t = match cond {
            Cond::Eq => x == y,
            Cond::Ne => x != y,
            Cond::Lt => (x as i16) < (y as i16),
            Cond::Ge => (x as i16) >= (y as i16),
            Cond::Ltu => x < y,
            Cond::Geu => x >= y,
        };
        mask |= u64::from(t) << l;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CycleModel, EnergyModel, DEFAULT_DMEM_WORDS};
    use nvp_isa::asm::assemble;

    fn image_of(src: &str) -> Arc<MachineImage> {
        let p = assemble(src).expect("assembles");
        Arc::new(
            MachineImage::build(
                &p,
                DEFAULT_DMEM_WORDS,
                CycleModel::default(),
                EnergyModel::default(),
            )
            .expect("builds"),
        )
    }

    fn assert_lane_matches_scalar(lane: &Machine, scalar: &Machine, what: &str) {
        assert_eq!(lane.snapshot(), scalar.snapshot(), "{what}");
        assert_eq!(lane.halted(), scalar.halted(), "{what}");
        assert_eq!(lane.dmem(), scalar.dmem(), "{what}");
        assert_eq!(lane.out_log(), scalar.out_log(), "{what}");
        let cl = lane.counters();
        let cs = scalar.counters();
        assert_eq!(cl.instructions, cs.instructions, "{what}");
        assert_eq!(cl.cycles, cs.cycles, "{what}");
        assert_eq!(cl.energy_j.to_bits(), cs.energy_j.to_bits(), "energy, {what}");
        assert_eq!(cl.class_counts, cs.class_counts, "{what}");
        assert_eq!(cl.branches_taken, cs.branches_taken, "{what}");
    }

    /// Drives a lane group and per-lane scalar machines to completion
    /// with the same per-call budget and asserts bit-identical lanes.
    fn assert_lanes_equivalent(src: &str, lane_inputs: &[&[(u8, u16)]], chunk: u64) {
        let image = image_of(src);
        let width = lane_inputs.len();
        let mut lm = LaneMachine::new(&image, width);
        for (l, ivs) in lane_inputs.iter().enumerate() {
            for &(port, v) in ivs.iter() {
                lm.set_input(l, port, v);
            }
        }
        let mut rounds = 0u32;
        while !lm.all_done() {
            lm.run(chunk);
            rounds += 1;
            assert!(rounds < 1_000_000, "lane group failed to converge");
        }
        for (l, ivs) in lane_inputs.iter().enumerate() {
            let mut scalar = Machine::from_image(&image);
            for &(port, v) in ivs.iter() {
                scalar.set_input(port, v);
            }
            let scalar_err = loop {
                match scalar.run_blocks(chunk) {
                    Ok(s) if s.halted => break None,
                    Ok(_) => {}
                    Err(e) => break Some(e),
                }
            };
            assert_eq!(
                scalar_err.as_ref(),
                lm.lane_error(l),
                "lane {l} fault disposition (chunk {chunk})"
            );
            let lane = lm.extract(l);
            assert_lane_matches_scalar(&lane, &scalar, &format!("lane {l}, chunk {chunk}"));
        }
    }

    /// Input port 0 selects an arm each iteration; port 1 scales work.
    const DIVERGE_SRC: &str = "
        li r1, 300
    loop:
        in r2, 0
        beqz r2, even
        addi r3, r3, 3
        beq r0, r0, join
    even:
        addi r4, r4, 5
    join:
        out 1, r3
        addi r1, r1, -1
        bnez r1, loop
        sw r3, 0(r0)
        sw r4, 1(r0)
        halt
    ";

    #[test]
    fn converged_lanes_match_scalar() {
        // Identical inputs: lanes stay converged the whole run.
        for chunk in [3, 64, 10_000] {
            assert_lanes_equivalent(
                DIVERGE_SRC,
                &[&[(0, 1)], &[(0, 1)], &[(0, 1)], &[(0, 1)]],
                chunk,
            );
        }
    }

    #[test]
    fn divergent_lanes_peel_and_match_scalar() {
        for chunk in [5, 97, 10_000] {
            assert_lanes_equivalent(
                DIVERGE_SRC,
                &[&[(0, 0)], &[(0, 1)], &[(0, 0)], &[(0, 1)], &[(0, 1)]],
                chunk,
            );
        }
    }

    #[test]
    fn divergence_is_counted() {
        let image = image_of(DIVERGE_SRC);
        let mut lm = LaneMachine::new(&image, 2);
        lm.set_input(0, 0, 0);
        lm.set_input(1, 0, 1);
        while !lm.all_done() {
            lm.run(100_000);
        }
        let stats = lm.stats();
        assert!(stats.divergence_peels >= 1, "{stats:?}");
        assert!(stats.lockstep_blocks > 0, "{stats:?}");
        assert!(lm.occupancy() > 0.0 && lm.occupancy() <= 1.0);
    }

    /// Lane address comes from input port 2: in-range lanes complete,
    /// out-of-range lanes fault at the `lw`.
    const FAULT_SRC: &str = "
        in r1, 2
        lw r2, 0(r1)
        addi r2, r2, 1
        sw r2, 2(r0)
        halt
    ";

    #[test]
    fn faulting_lanes_peel_with_exact_error() {
        for chunk in [1, 3, 1000] {
            assert_lanes_equivalent(
                FAULT_SRC,
                &[&[(2, 0)], &[(2, 0x7FFF)], &[(2, 5)], &[(2, 0x6000)]],
                chunk,
            );
        }
    }

    #[test]
    fn jalr_spread_peels_after_terminator() {
        // Each lane's jalr target comes from port 0: two land on one
        // arm, one on the other.
        let src = "
            in r1, 0
            jalr r0, r1, 0
            halt
            li r2, 11
            halt
            li r2, 22
            halt
        ";
        for chunk in [2, 7, 1000] {
            assert_lanes_equivalent(src, &[&[(0, 3)], &[(0, 5)], &[(0, 3)]], chunk);
        }
    }

    #[test]
    fn extract_is_nondestructive() {
        let image = image_of(DIVERGE_SRC);
        let mut lm = LaneMachine::new(&image, 2);
        lm.set_input(0, 0, 1);
        lm.set_input(1, 0, 1);
        lm.run(50);
        let a = lm.extract(0);
        let b = lm.extract(0);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.out_log(), b.out_log());
        while !lm.all_done() {
            lm.run(50);
        }
        assert!(lm.extract(0).halted());
    }

    #[test]
    fn width_bounds_enforced() {
        let image = image_of("halt");
        let lm = LaneMachine::new(&image, MAX_LANES);
        assert_eq!(lm.width(), MAX_LANES);
    }

    #[test]
    #[should_panic(expected = "lane width")]
    fn zero_width_rejected() {
        let image = image_of("halt");
        let _ = LaneMachine::new(&image, 0);
    }
}
