//! Block streams: a task's recorded path through its block plans,
//! replayed without interpretation (see [`BlockStream`] and
//! [`StreamCore`]).

use std::sync::Arc;

use crate::block::Term;
use crate::machine::{ArchState, BlockStats, Machine, MachineImage};

/// A program's recorded path through its block plans.
///
/// A program that halts from reset follows one path through its basic
/// blocks. [`record`](Self::record) runs it with the block engine and
/// keeps only what the plans cannot know ahead of time: one bit per
/// executed conditional branch (its direction) and one byte per executed
/// `jalr` (an index into the stream's table of distinct targets). Every
/// other terminator's successor is static, so a stream holds at most one
/// byte per executed block. It holds no cost: cycles and energy come
/// from the plans of whichever image replays it, so images of one
/// program under different cycle or energy models share one stream.
///
/// The recorder runs the task a second time from the data memory the
/// first run left and requires the same path and the same final memory.
/// Every later task then starts from that memory and repeats that pass,
/// so one stream serves every task of a platform that restarts the
/// program on halt. A program whose second pass differs (it reads its
/// own output) gets no stream.
#[derive(Debug)]
pub struct BlockStream {
    /// The executed branches' directions in execution order, one bit
    /// each (1 taken): branch `i` is bit `i % 64` of word `i / 64`.
    taken: Vec<u64>,
    /// The executed `jalr`s' targets in execution order, as indices into
    /// `targets`.
    jumps: Vec<u8>,
    /// Distinct `jalr` targets, in first-seen order.
    targets: Vec<u32>,
    /// [`fingerprint`] of the recording image.
    fingerprint: u64,
}

/// Branch `i`'s direction in a packed bit vector: 1 taken, 0 not.
#[inline(always)]
fn bit(words: &[u64], i: u64) -> usize {
    (words[(i / 64) as usize] >> (i % 64) & 1) as usize
}

/// The block engine's recording hook: sees each executed terminator,
/// appending its outcome to the path on the first pass and comparing
/// against the path on the second.
#[derive(Default)]
pub(crate) struct Recorder {
    taken: Vec<u64>,
    jumps: Vec<u8>,
    targets: Vec<u32>,
    /// Branches and `jalr`s seen in the current pass.
    branches: u64,
    jalrs: usize,
    /// Set for the second pass, which compares instead of appending.
    retrace: bool,
    diverged: bool,
}

impl Recorder {
    /// Notes one executed terminator: the plan's, a branch's direction
    /// and the successor pc.
    pub(crate) fn term(&mut self, term: &Term, taken: bool, next: u32) {
        match term {
            Term::Branch { .. } if self.retrace => {
                self.diverged |= self.branches / 64 >= self.taken.len() as u64
                    || bit(&self.taken, self.branches) != usize::from(taken);
                self.branches += 1;
            }
            Term::Branch { .. } => {
                if self.branches.is_multiple_of(64) {
                    self.taken.push(0);
                }
                if let Some(word) = self.taken.last_mut() {
                    *word |= u64::from(taken) << (self.branches % 64);
                }
                self.branches += 1;
            }
            Term::Jalr { .. } => {
                let known = self.targets.iter().position(|&t| t == next);
                let index = match known {
                    None if !self.retrace && self.targets.len() < 256 => {
                        self.targets.push(next);
                        self.targets.len() - 1
                    }
                    // A 257th target, or one the first pass never saw.
                    None => usize::MAX,
                    Some(i) => i,
                };
                if self.retrace {
                    self.diverged |=
                        self.jumps.get(self.jalrs).map(|&j| usize::from(j)) != Some(index);
                } else if let Ok(byte) = u8::try_from(index) {
                    self.jumps.push(byte);
                } else {
                    self.diverged = true;
                }
                self.jalrs += 1;
            }
            _ => {}
        }
    }
}

/// Runs `m` to halt through the block engine, at most `max_insts`
/// instructions; `None` on a fault or an exhausted budget.
fn run_task(m: &mut Machine, max_insts: u64, tap: &mut Recorder) -> Option<u64> {
    let mut executed = 0;
    while !m.halted() {
        if executed >= max_insts {
            return None;
        }
        executed += m.run_blocks_tapped(max_insts - executed, Some(tap)).ok()?.executed;
    }
    Some(executed)
}

/// Runs `m` until it has retired `target` instructions in all (`done`
/// so far) or halts. The task was recorded fault-free.
fn run_to(m: &mut Machine, done: &mut u64, target: u64) {
    while *done < target && !m.halted() {
        *done += m.run_blocks(target - *done).expect("a recorded task runs fault-free").executed;
    }
}

/// An image's identity as far as a stream is concerned: entry, code and
/// initial data memory, not its cost models.
fn fingerprint(image: &MachineImage) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    eat(u64::from(image.entry));
    eat(image.code.len() as u64);
    image.code.iter().for_each(|d| eat(u64::from(d.inst.encode())));
    eat(image.dmem_init.len() as u64);
    for chunk in image.dmem_init.chunks(4) {
        eat(chunk.iter().fold(0u64, |acc, &w| acc << 16 | u64::from(w)));
    }
    h
}

impl BlockStream {
    /// Records `image`'s task from reset: runs it to halt with the block
    /// engine, then again from the data memory it left. Returns `None`
    /// if either pass faults or exceeds `max_insts`, or if the second
    /// pass takes another path or leaves other data memory.
    #[must_use]
    pub fn record(image: &Arc<MachineImage>, max_insts: u64) -> Option<BlockStream> {
        let mut m = Machine::from_image(image);
        let mut rec = Recorder::default();
        let task_insts = run_task(&mut m, max_insts, &mut rec)?;
        let after_first = m.dmem().to_vec();
        m.reset_volatile();
        let (branches, jalrs) = (rec.branches, rec.jalrs);
        rec.retrace = true;
        rec.branches = 0;
        rec.jalrs = 0;
        let again = run_task(&mut m, max_insts, &mut rec)?;
        let retraced = !rec.diverged
            && (rec.branches, rec.jalrs, again) == (branches, jalrs, task_insts)
            && m.dmem() == after_first.as_slice();
        let Recorder { mut taken, mut jumps, targets, .. } = rec;
        taken.shrink_to_fit();
        jumps.shrink_to_fit();
        retraced.then(|| BlockStream { taken, jumps, targets, fingerprint: fingerprint(image) })
    }

    /// Bytes the stream holds: its branch bits, its `jalr` bytes and its
    /// target table.
    #[must_use]
    pub fn len_bytes(&self) -> usize {
        8 * self.taken.len() + self.jumps.len() + 4 * self.targets.len()
    }
}

/// A position on a stream: instructions retired since the task started,
/// the plan and op the next instruction is in, and the branches and
/// `jalr`s taken so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamPos {
    at: u64,
    loc: Loc,
    branches: u64,
    jalrs: u32,
}

/// An instruction address as a plan index and an offset into it (the
/// plan's op count names its terminator).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Loc {
    plan: u32,
    off: u32,
}

/// How replay picks a plan's successor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exit {
    /// A fall-through or `jal`: outcome 0.
    Static,
    /// The next branch bit is the outcome.
    Branch,
    /// The next `jalr` byte indexes the stream's target table.
    Jalr,
    Halt,
    Ckpt,
}

/// A block plan as replay reads it: its ops' span in the flattened cost
/// tables, and its terminator's outcomes, 0 (not taken, or the only
/// one) and 1 (taken).
#[derive(Debug, Clone, Copy)]
struct Hop {
    op_start: u32,
    op_len: u32,
    /// Instructions the terminator retires: 0 for a fall-through.
    term_insts: u32,
    exit: Exit,
    /// Successors (a `jalr`'s and a `halt`'s name the terminator itself;
    /// a `jalr`'s real target comes from the stream).
    next: [Loc; 2],
    cycles: [u32; 2],
    energy_j: [f64; 2],
}

/// An image's block plans flattened for replay.
#[derive(Debug, Clone)]
struct Replay {
    hops: Vec<Hop>,
    /// Each op's energy, plans' ops in order.
    energy_j: Vec<f64>,
    /// Prefix sums of the ops' cycles (`ops + 1` entries).
    cycles: Vec<u64>,
    /// The stream's `jalr` targets.
    targets: Vec<Loc>,
}

impl Replay {
    fn new(image: &MachineImage, stream: &BlockStream) -> Replay {
        let blocks = &image.blocks;
        // A target outside the image is never on a recorded path.
        let loc = |pc: u32| {
            blocks.owner(pc).map_or(Loc { plan: u32::MAX, off: 0 }, |plan| Loc {
                plan,
                off: pc - blocks.plans[plan as usize].start,
            })
        };
        let hops = blocks
            .plans
            .iter()
            .enumerate()
            .map(|(i, plan)| {
                let own = Loc { plan: i as u32, off: plan.op_len };
                let (exit, next, cycles, energy_j) = match plan.term {
                    Term::FallThrough { next } => (Exit::Static, [loc(next); 2], [0; 2], [0.0; 2]),
                    Term::Branch {
                        taken_pc,
                        fall_pc,
                        cycles_nt,
                        cycles_t,
                        energy_nt_j,
                        energy_t_j,
                        ..
                    } => (
                        Exit::Branch,
                        [loc(fall_pc), loc(taken_pc)],
                        [cycles_nt, cycles_t],
                        [energy_nt_j, energy_t_j],
                    ),
                    Term::Jal { target, cycles, energy_j, .. } => {
                        (Exit::Static, [loc(target); 2], [cycles; 2], [energy_j; 2])
                    }
                    Term::Jalr { cycles, energy_j, .. } => {
                        (Exit::Jalr, [own; 2], [cycles; 2], [energy_j; 2])
                    }
                    Term::Halt { cycles, energy_j } => {
                        (Exit::Halt, [own; 2], [cycles; 2], [energy_j; 2])
                    }
                    Term::Ckpt { next, cycles, energy_j } => {
                        (Exit::Ckpt, [loc(next); 2], [cycles; 2], [energy_j; 2])
                    }
                };
                let term_insts = (plan.insts - u64::from(plan.op_len)) as u32;
                Hop {
                    op_start: plan.op_start,
                    op_len: plan.op_len,
                    term_insts,
                    exit,
                    next,
                    cycles,
                    energy_j,
                }
            })
            .collect();
        let mut cycles = Vec::with_capacity(blocks.ops.len() + 1);
        cycles.push(0u64);
        for op in &blocks.ops {
            cycles.push(cycles[cycles.len() - 1] + u64::from(op.cycles));
        }
        Replay {
            hops,
            energy_j: blocks.ops.iter().map(|op| op.energy_j).collect(),
            cycles,
            targets: stream.targets.iter().map(|&pc| loc(pc)).collect(),
        }
    }
}

/// Serves a run's execution from a [`BlockStream`].
///
/// [`run_blocks`](Self::run_blocks) answers [`Machine::run_blocks`] for a
/// run that follows the stream: it walks the image's plans along the
/// recorded path and charges each op's cost, energy one add per op in
/// program order as the block engine does, so its [`BlockStats`] are
/// bit-identical. It keeps no registers or data memory. A run that
/// leaves the path (a rollback onto nonvolatile data re-executes
/// instructions against memory they already changed) rebuilds the real
/// machine with [`rebuild`](Self::rebuild) and continues on the block
/// engine.
#[derive(Debug, Clone)]
pub struct StreamCore {
    image: Arc<MachineImage>,
    stream: Arc<BlockStream>,
    replay: Replay,
    /// Where the task starts.
    entry: Loc,
    pos: StreamPos,
    halted: bool,
    /// Whether the task started from a finished task's output rather
    /// than the image's initial data: every task follows one path, but
    /// the first task's data mid-way may differ from a later one's.
    warm: bool,
}

impl StreamCore {
    /// A core at reset over `image`, or `None` if `stream` was recorded
    /// from another program or data memory.
    #[must_use]
    pub fn new(image: &Arc<MachineImage>, stream: &Arc<BlockStream>) -> Option<StreamCore> {
        if fingerprint(image) != stream.fingerprint {
            return None;
        }
        let replay = Replay::new(image, stream);
        let plan = image.blocks.owner(image.entry)?;
        let entry = Loc { plan, off: image.entry - image.blocks.plans[plan as usize].start };
        Some(StreamCore {
            image: Arc::clone(image),
            stream: Arc::clone(stream),
            replay,
            entry,
            pos: StreamPos { loc: entry, ..StreamPos::default() },
            halted: false,
            warm: false,
        })
    }

    /// [`Machine::run_blocks`] along the stream: the same stops (budget,
    /// `halt`, `ckpt`) and bit-identical [`BlockStats`]. A stream never
    /// faults.
    pub fn run_blocks(&mut self, max_insts: u64) -> BlockStats {
        let Replay { hops, energy_j: op_energy_j, cycles: op_cycles, targets } = &self.replay;
        let BlockStream { taken, jumps, .. } = &*self.stream;
        let StreamPos { mut loc, mut branches, mut jalrs, .. } = self.pos;
        let mut stats = BlockStats::default();
        let mut energy_j = 0.0f64;
        while stats.executed < max_insts && !self.halted {
            let hop = &hops[loc.plan as usize];
            let budget = max_insts - stats.executed;
            let body_left = hop.op_len - loc.off;
            let n = u64::from(body_left).min(budget) as u32;
            let first = (hop.op_start + loc.off) as usize;
            let end = first + n as usize;
            for e in &op_energy_j[first..end] {
                energy_j += e;
            }
            stats.cycles += op_cycles[end] - op_cycles[first];
            stats.executed += u64::from(n);
            loc.off += n;
            if n < body_left || u64::from(hop.term_insts) > budget - u64::from(n) {
                break;
            }
            let (k, next) = match hop.exit {
                Exit::Static => (0, hop.next[0]),
                Exit::Branch => {
                    let k = bit(taken, branches);
                    branches += 1;
                    (k, hop.next[k])
                }
                Exit::Jalr => {
                    jalrs += 1;
                    (0, targets[usize::from(jumps[jalrs as usize - 1])])
                }
                Exit::Halt => {
                    self.halted = true;
                    (0, hop.next[0])
                }
                Exit::Ckpt => {
                    stats.checkpoint = true;
                    (0, hop.next[0])
                }
            };
            // A fall-through adds +0.0 J, which leaves any sum of
            // non-negative energies unchanged, bit for bit.
            stats.executed += u64::from(hop.term_insts);
            stats.cycles += u64::from(hop.cycles[k]);
            energy_j += hop.energy_j[k];
            loc = next;
            if stats.checkpoint {
                break;
            }
        }
        self.pos = StreamPos { at: self.pos.at + stats.executed, loc, branches, jalrs };
        stats.energy_j = energy_j;
        stats
    }

    /// `true` once the task's `halt` has executed.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The current position: what a checkpoint of this core stores.
    #[must_use]
    pub fn position(&self) -> StreamPos {
        self.pos
    }

    /// Resumes at `pos`, a position of the current task, as
    /// [`Machine::restore`] resumes a snapshot.
    pub fn restore(&mut self, pos: &StreamPos) {
        self.pos = *pos;
        self.halted = false;
    }

    /// [`Machine::reset_volatile`] where the stream can follow it: after
    /// `halt` (the next task starts from the output data) or before the
    /// task's first instruction. Returns `false`, changing nothing,
    /// mid-task, where a restart would run against data the task
    /// already changed.
    pub fn reset_volatile(&mut self) -> bool {
        if self.halted {
            self.warm = true;
        } else if self.pos.at > 0 {
            return false;
        }
        self.pos = StreamPos { loc: self.entry, ..StreamPos::default() };
        self.halted = false;
        true
    }

    /// Starts over from reset with the image's initial data memory, as a
    /// platform with volatile data memory does after a power failure.
    pub fn reset(&mut self) {
        self.pos = StreamPos { loc: self.entry, ..StreamPos::default() };
        self.halted = false;
        self.warm = false;
    }

    /// The real machine at the current position, rebuilt with the block
    /// engine, and the register image at each of `marks` (positions of
    /// the current task). The machine's registers, pc, data memory and
    /// halt flag are the run's; its counters and output log cover only
    /// the rebuild.
    #[must_use]
    pub fn rebuild(&self, marks: &[StreamPos]) -> (Machine, Vec<ArchState>) {
        let mut m = Machine::from_image(&self.image);
        if self.warm {
            run_to(&mut m, &mut 0, u64::MAX);
            m.reset_volatile();
        }
        let mut order: Vec<usize> = (0..=marks.len()).collect();
        let at = |i: usize| marks.get(i).map_or(self.pos.at, |p| p.at);
        order.sort_unstable_by_key(|&i| at(i));
        let mut states = vec![ArchState::default(); marks.len()];
        let mut here = None;
        let mut done = 0;
        for i in order {
            run_to(&mut m, &mut done, at(i));
            match states.get_mut(i) {
                Some(state) => *state = m.snapshot(),
                None => here = Some(m.clone()),
            }
        }
        let mut here = here.expect("the current position is visited");
        if here.halted() && !self.halted {
            // A restored snapshot of a halted task re-executes its `halt`.
            let state = here.snapshot();
            here.restore(&state);
        }
        (here, states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CycleModel, EnergyModel};
    use nvp_isa::asm::assemble;

    fn image(src: &str) -> Arc<MachineImage> {
        let program = assemble(src).expect("assembles");
        let built =
            MachineImage::build(&program, 256, CycleModel::default(), EnergyModel::default());
        Arc::new(built.expect("builds"))
    }

    /// A loop over memory with a data-dependent branch, a call through
    /// `jalr` and a `ckpt`.
    const MIXED: &str = "
            li r5, 0
        row:
            sw r5, 16(r5)
            andi r1, r5, 3
            bne r1, r0, skip
            jal r15, sub
        skip:
            ckpt
            addi r5, r5, 1
            slti r2, r5, 23
            bne r2, r0, row
            halt
        sub:
            lw r3, 16(r5)
            addi r3, r3, 9
            sw r3, 80(r5)
            jalr r0, r15, 0";

    /// Reads a word early in the task that the task itself rewrites at
    /// its end: the first task and later ones share a path and a final
    /// memory, but not their memory mid-task.
    const REWRITES: &str = "
            lw r1, 0(r0)
            sw r1, 1(r0)
            li r2, 7
            sw r2, 0(r0)
            sw r0, 1(r0)
            halt";

    fn same(a: &BlockStats, b: &BlockStats, ctx: &str) {
        assert_eq!(
            (a.executed, a.cycles, a.energy_j.to_bits(), a.checkpoint),
            (b.executed, b.cycles, b.energy_j.to_bits(), b.checkpoint),
            "{ctx}"
        );
    }

    #[test]
    fn replay_matches_the_block_engine_under_ragged_budgets() {
        for src in [MIXED, REWRITES] {
            let image = image(src);
            let stream = Arc::new(BlockStream::record(&image, 10_000).expect("records"));
            let mut m = Machine::from_image(&image);
            let mut core = StreamCore::new(&image, &stream).expect("fits");
            let mut lcg = 12_345u64;
            for task in 0..3 {
                let mut call = 0;
                while !m.halted() {
                    lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    let budget = (lcg >> 59) % 13;
                    let want = m.run_blocks(budget).expect("runs");
                    let got = core.run_blocks(budget);
                    same(&got, &want, &format!("task {task}, call {call}, budget {budget}"));
                    assert_eq!(core.halted(), m.halted());
                    call += 1;
                }
                m.reset_volatile();
                assert!(core.reset_volatile(), "a halted task restarts on the stream");
            }
        }
    }

    #[test]
    fn rebuild_matches_the_machine_at_every_position() {
        for src in [MIXED, REWRITES] {
            let image = image(src);
            let stream = Arc::new(BlockStream::record(&image, 10_000).expect("records"));
            let mut task = 0;
            run_to(&mut Machine::from_image(&image), &mut task, u64::MAX);
            for warm in [false, true] {
                let mut m = Machine::from_image(&image);
                let mut core = StreamCore::new(&image, &stream).expect("fits");
                if warm {
                    while !m.halted() {
                        m.run_blocks(u64::MAX).expect("runs");
                        core.run_blocks(u64::MAX);
                    }
                    m.reset_volatile();
                    assert!(core.reset_volatile());
                }
                let mut marks = Vec::new();
                let mut states = Vec::new();
                for step in [1, 2, 3, 5, 8, 13, 21, 34] {
                    if m.halted() || core.position().at + step > task {
                        break;
                    }
                    m.run_blocks(step).expect("runs");
                    core.run_blocks(step);
                    marks.push(core.position());
                    states.push(m.snapshot());
                    let (rebuilt, at_marks) = core.rebuild(&marks);
                    let ctx = format!("warm {warm}, at {}", core.position().at);
                    assert_eq!(rebuilt.snapshot(), m.snapshot(), "{ctx}: registers and pc");
                    assert_eq!(rebuilt.dmem(), m.dmem(), "{ctx}: data memory");
                    assert_eq!(rebuilt.halted(), m.halted(), "{ctx}: halt flag");
                    assert_eq!(at_marks, states, "{ctx}: marked register images");
                }
            }
        }
    }

    #[test]
    fn only_a_repeating_halting_program_is_recorded() {
        assert!(BlockStream::record(&image(MIXED), 10_000).is_some());
        // The second task reads the first one's output.
        assert!(BlockStream::record(
            &image("lw r1, 0(r0)\naddi r1, r1, 1\nsw r1, 0(r0)\nhalt"),
            100
        )
        .is_none());
        // The budget runs out before the halt.
        assert!(BlockStream::record(&image(MIXED), 50).is_none());
        // A wild store faults.
        assert!(BlockStream::record(&image("li r1, 4000\nsw r1, 0(r1)\nhalt"), 100).is_none());
    }
}
