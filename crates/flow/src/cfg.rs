//! Control-flow graph construction over NV16 basic blocks.
//!
//! Builds on the block partitioner in [`nvp_isa::blocks`]: the leader
//! bitmap carves the code image into maximal straight-line runs, and
//! this module adds the edges, predecessor lists, reachability,
//! dominators, and natural-loop detection the dataflow passes need.
//!
//! `jalr` has no static target; a program containing one gets an
//! *indirect* edge to every block, which keeps every forward analysis
//! sound (at the cost of precision). No shipped kernel uses `jalr`.

use std::collections::BTreeSet;

use nvp_isa::blocks::{branch_target, leaders};
use nvp_isa::{DecodeError, Inst, Program};

/// Why an edge exists between two blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Fall-through to the next block (includes the not-taken side of a
    /// conditional branch and the instruction after a `ckpt`).
    Fall,
    /// The taken side of a conditional branch.
    Taken,
    /// An unconditional `jal` jump.
    Jump,
    /// A conservative `jalr` edge (target unknown statically).
    Indirect,
}

/// One outgoing CFG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Destination block index.
    pub to: usize,
    /// Edge provenance, used by branch refinement.
    pub kind: EdgeKind,
}

/// One basic block: the maximal straight-line run `[start, end]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// First instruction address of the block (its leader).
    pub start: u32,
    /// Last instruction address of the block (inclusive).
    pub end: u32,
}

impl Block {
    /// Number of instructions in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        (self.end - self.start + 1) as usize
    }

    /// `true` if the block holds no instructions (never constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A natural loop discovered from a dominator back edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// Block index of the loop header.
    pub head: usize,
    /// Block index of the back-edge source (the latch).
    pub latch: usize,
    /// All block indices in the loop body (header included).
    pub body: BTreeSet<usize>,
}

/// Error raised while decoding a program image for analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CfgError {
    /// Address of the undecodable word.
    pub pc: u32,
    /// The decode failure.
    pub source: DecodeError,
}

impl std::fmt::Display for CfgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "undecodable instruction at pc {}: {}", self.pc, self.source)
    }
}

impl std::error::Error for CfgError {}

/// Control-flow graph of an NV16 program.
#[derive(Debug, Clone)]
pub struct Cfg {
    insts: Vec<Inst>,
    blocks: Vec<Block>,
    succs: Vec<Vec<Edge>>,
    preds: Vec<Vec<usize>>,
    block_of: Vec<usize>,
    entry_block: usize,
}

impl Cfg {
    /// Builds the CFG of `program`.
    ///
    /// # Errors
    ///
    /// Returns [`CfgError`] if the image contains an undecodable word
    /// (possible only for hand-built images) or is empty.
    pub fn build(program: &Program) -> Result<Cfg, CfgError> {
        let mut insts = Vec::with_capacity(program.code().len());
        for (pc, &word) in program.code().iter().enumerate() {
            let inst = Inst::decode(word).map_err(|source| CfgError { pc: pc as u32, source })?;
            insts.push(inst);
        }
        if insts.is_empty() {
            // An empty image has nothing to analyze; surface it as an
            // undecodable entry word.
            return Err(CfgError { pc: 0, source: Inst::decode(u32::MAX).unwrap_err() });
        }
        let entry = program.entry().min(insts.len() as u32 - 1);
        let is_leader = leaders(&insts, entry);

        // Carve blocks and build the pc -> block index map.
        let mut blocks: Vec<Block> = Vec::new();
        let mut block_of = vec![0usize; insts.len()];
        for pc in 0..insts.len() {
            if is_leader[pc] || blocks.is_empty() {
                blocks.push(Block { start: pc as u32, end: pc as u32 });
            }
            let last = blocks.len() - 1;
            blocks[last].end = pc as u32;
            block_of[pc] = last;
        }

        let n = blocks.len();
        let mut succs: Vec<Vec<Edge>> = vec![Vec::new(); n];
        for (b, block) in blocks.iter().enumerate() {
            let end_pc = block.end;
            let term = insts[end_pc as usize];
            let fall = (end_pc as usize + 1 < insts.len()).then(|| block_of[end_pc as usize + 1]);
            match term {
                Inst::Halt => {}
                Inst::Jal { target, .. } => {
                    if (target as usize) < insts.len() {
                        succs[b].push(Edge { to: block_of[target as usize], kind: EdgeKind::Jump });
                    }
                }
                Inst::Jalr { .. } => {
                    // Unknown target: conservatively every block.
                    for to in 0..n {
                        succs[b].push(Edge { to, kind: EdgeKind::Indirect });
                    }
                }
                Inst::Beq { offset, .. }
                | Inst::Bne { offset, .. }
                | Inst::Blt { offset, .. }
                | Inst::Bge { offset, .. }
                | Inst::Bltu { offset, .. }
                | Inst::Bgeu { offset, .. } => {
                    let target = branch_target(end_pc, offset);
                    if (target as usize) < insts.len() {
                        succs[b]
                            .push(Edge { to: block_of[target as usize], kind: EdgeKind::Taken });
                    }
                    if let Some(to) = fall {
                        succs[b].push(Edge { to, kind: EdgeKind::Fall });
                    }
                }
                // `ckpt` is a terminator with plain fall-through; a
                // non-terminator last instruction means the block ends
                // at the code boundary (execution would fault past it).
                _ => {
                    if let Some(to) = fall {
                        succs[b].push(Edge { to, kind: EdgeKind::Fall });
                    }
                }
            }
        }
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (b, edges) in succs.iter().enumerate() {
            for e in edges {
                if !preds[e.to].contains(&b) {
                    preds[e.to].push(b);
                }
            }
        }
        let entry_block = block_of[entry as usize];
        Ok(Cfg { insts, blocks, succs, preds, block_of, entry_block })
    }

    /// The decoded instruction stream, indexed by pc.
    #[must_use]
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// All basic blocks in address order.
    #[must_use]
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Index of the block containing the entry point.
    #[must_use]
    pub fn entry_block(&self) -> usize {
        self.entry_block
    }

    /// Block index containing `pc`, if `pc` is inside the image.
    #[must_use]
    pub fn block_of(&self, pc: u32) -> Option<usize> {
        self.block_of.get(pc as usize).copied()
    }

    /// Outgoing edges of block `b`.
    #[must_use]
    pub fn succs(&self, b: usize) -> &[Edge] {
        &self.succs[b]
    }

    /// Per-block reachability from the entry block.
    #[must_use]
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![self.entry_block];
        seen[self.entry_block] = true;
        while let Some(b) = stack.pop() {
            for e in &self.succs[b] {
                if !seen[e.to] {
                    seen[e.to] = true;
                    stack.push(e.to);
                }
            }
        }
        seen
    }

    /// Iterative dominator sets: `dom[b]` holds every block that
    /// dominates `b` (including `b` itself). Unreachable blocks get the
    /// full set (the conventional lattice top).
    #[must_use]
    pub fn dominators(&self) -> Vec<BTreeSet<usize>> {
        let n = self.blocks.len();
        let all: BTreeSet<usize> = (0..n).collect();
        let reachable = self.reachable();
        let mut dom: Vec<BTreeSet<usize>> = vec![all.clone(); n];
        dom[self.entry_block] = BTreeSet::from([self.entry_block]);
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..n {
                if b == self.entry_block || !reachable[b] {
                    continue;
                }
                let mut new: Option<BTreeSet<usize>> = None;
                for &p in &self.preds[b] {
                    if !reachable[p] {
                        continue;
                    }
                    new = Some(match new {
                        None => dom[p].clone(),
                        Some(acc) => acc.intersection(&dom[p]).copied().collect(),
                    });
                }
                let mut new = new.unwrap_or_default();
                new.insert(b);
                if new != dom[b] {
                    dom[b] = new;
                    changed = true;
                }
            }
        }
        dom
    }

    /// Natural loops: for every back edge `latch -> head` where `head`
    /// dominates `latch`, the body is `head` plus every block that can
    /// reach `latch` without passing through `head`. Loops sharing a
    /// header are merged.
    #[must_use]
    pub fn natural_loops(&self) -> Vec<NaturalLoop> {
        let dom = self.dominators();
        let reachable = self.reachable();
        let mut loops: Vec<NaturalLoop> = Vec::new();
        for (latch, edges) in self.succs.iter().enumerate() {
            if !reachable[latch] {
                continue;
            }
            for e in edges {
                let head = e.to;
                if !dom[latch].contains(&head) {
                    continue;
                }
                let mut body = BTreeSet::from([head, latch]);
                let mut stack = vec![latch];
                while let Some(b) = stack.pop() {
                    if b == head {
                        continue;
                    }
                    for &p in &self.preds[b] {
                        if reachable[p] && body.insert(p) {
                            stack.push(p);
                        }
                    }
                }
                if let Some(existing) = loops.iter_mut().find(|l| l.head == head) {
                    existing.body.extend(body);
                    existing.latch = existing.latch.max(latch);
                } else {
                    loops.push(NaturalLoop { head, latch, body });
                }
            }
        }
        loops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_isa::asm::assemble;

    fn cfg_of(src: &str) -> Cfg {
        Cfg::build(&assemble(src).expect("assembles")).expect("builds")
    }

    #[test]
    fn straight_line_is_one_block() {
        let c = cfg_of("nop\nnop\nhalt");
        assert_eq!(c.blocks().len(), 1);
        assert_eq!(c.succs(0), &[]);
        assert!(c.reachable()[0]);
    }

    #[test]
    fn branch_makes_diamond() {
        // 0: bne -> 2 | fall 1; 1: nop -> 2; 2: halt
        let c = cfg_of("bne r1, r0, 1\nnop\nhalt");
        assert_eq!(c.blocks().len(), 3);
        let kinds: Vec<EdgeKind> = c.succs(0).iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![EdgeKind::Taken, EdgeKind::Fall]);
        assert_eq!(c.preds[2], [0, 1]);
    }

    #[test]
    fn loop_is_detected_with_dominating_head() {
        // 0: li; 1: addi; 2: bne -> 1
        let c = cfg_of("li r2, 3\nloop: addi r1, r1, 1\nbne r1, r2, loop\nhalt");
        let loops = c.natural_loops();
        assert_eq!(loops.len(), 1);
        let head_block = c.block_of(1).unwrap();
        assert_eq!(loops[0].head, head_block);
        assert!(loops[0].body.contains(&head_block));
    }

    #[test]
    fn unreachable_block_after_jump() {
        let c = cfg_of("j done\nnop\ndone: halt");
        let reach = c.reachable();
        let dead = c.block_of(1).unwrap();
        assert!(!reach[dead]);
    }

    #[test]
    fn ckpt_terminates_block_with_fallthrough() {
        let c = cfg_of("ckpt\nnop\nhalt");
        assert_eq!(c.blocks().len(), 2);
        assert_eq!(c.succs(0), &[Edge { to: 1, kind: EdgeKind::Fall }]);
    }
}
