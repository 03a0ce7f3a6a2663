//! Execution-tier equivalence over every registry workload kernel.
//!
//! Both execution tiers must be observationally identical: per
//! instruction `step()` dispatch and the fused basic-block engine
//! (`Machine::run_blocks`) — same final registers, same memory digest,
//! same retired-instruction count, and bit-identical energy
//! (`f64::to_bits` — fused execution must preserve the exact
//! per-instruction f64 accumulation order). Checked both for one
//! uninterrupted run and under randomized chunked budgets, which
//! exercises mid-block budget exhaustion, checkpoint early-returns, and
//! re-entry at non-leader program counters.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use nvp_core::{measure_task, SystemConfig};
use nvp_sim::{CycleModel, EnergyModel, Machine, MachineImage};
use nvp_workloads::{GrayImage, KernelKind};

/// Per-kernel instruction budget: enough to finish the small frame or
/// to sample deep into the steady-state loop of kernels that don't.
const BUDGET: u64 = 300_000;

/// FNV-1a over every architectural observable — registers, pc, halt
/// flag, data memory, and the output log (golden-digest style: one
/// number summarizing the whole machine state).
fn state_digest(m: &Machine) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in m.pc().to_le_bytes() {
        eat(b);
    }
    eat(u8::from(m.halted()));
    for r in m.snapshot().regs {
        for b in r.to_le_bytes() {
            eat(b);
        }
    }
    for &w in m.dmem() {
        for b in w.to_le_bytes() {
            eat(b);
        }
    }
    for &(port, value) in m.out_log() {
        eat(port);
        for b in value.to_le_bytes() {
            eat(b);
        }
    }
    h
}

fn assert_same_state(step: &Machine, other: &Machine, ctx: &str) {
    assert_eq!(step.snapshot(), other.snapshot(), "{ctx}: architectural state diverged");
    assert_eq!(step.dmem(), other.dmem(), "{ctx}: data memory diverged");
    assert_eq!(step.out_log(), other.out_log(), "{ctx}: output log diverged");
    assert_eq!(state_digest(step), state_digest(other), "{ctx}: state digest diverged");
    let (cs, cb) = (step.counters(), other.counters());
    assert_eq!(cs.instructions, cb.instructions, "{ctx}: retired counts diverged");
    assert_eq!(cs.cycles, cb.cycles, "{ctx}: cycle counts diverged");
    assert_eq!(
        cs.energy_j.to_bits(),
        cb.energy_j.to_bits(),
        "{ctx}: energy not bit-identical ({} vs {})",
        cs.energy_j,
        cb.energy_j
    );
}

/// Advances `m` with `run_blocks` until it has retired `target`
/// instructions in total (or halted) — `run_blocks` legitimately
/// returns early at checkpoint boundaries, so one call per chunk is
/// not guaranteed to consume the whole chunk budget.
fn blocks_to_target(m: &mut Machine, target: u64) {
    while m.counters().instructions < target && !m.halted() {
        let remaining = target - m.counters().instructions;
        let stats = m.run_blocks(remaining).expect("kernel does not fault");
        if stats.executed == 0 && !stats.checkpoint {
            break;
        }
    }
}

/// Same, with per-instruction `step()` dispatch.
fn steps_to_target(m: &mut Machine, target: u64) {
    while m.counters().instructions < target && !m.halted() {
        m.step().expect("kernel does not fault");
    }
}

/// The shared decoded image both tiers execute from.
fn image_for(kind: KernelKind, frame: &GrayImage) -> Arc<MachineImage> {
    let inst = kind.build(frame).expect("kernel builds");
    Arc::new(
        MachineImage::build(
            inst.program(),
            inst.min_dmem_words(),
            CycleModel::default(),
            EnergyModel::default(),
        )
        .expect("image builds"),
    )
}

#[test]
fn all_kernels_match_step_mode_exactly() {
    let frame = GrayImage::synthetic(7, 16, 16);
    for kind in KernelKind::ALL {
        let image = image_for(kind, &frame);
        let mut by_step = Machine::from_image(&image);
        let mut by_block = Machine::from_image(&image);
        steps_to_target(&mut by_step, BUDGET);
        blocks_to_target(&mut by_block, BUDGET);
        assert_same_state(&by_step, &by_block, &format!("{kind:?} full run"));
    }
}

#[test]
fn all_kernels_match_step_mode_under_chunked_budgets() {
    let frame = GrayImage::synthetic(7, 16, 16);
    let mut rng = StdRng::seed_from_u64(0x5eed_b10c);
    for kind in KernelKind::ALL {
        let image = image_for(kind, &frame);
        let mut by_step = Machine::from_image(&image);
        let mut by_block = Machine::from_image(&image);
        let mut target = 0u64;
        // Ragged chunks land budget boundaries mid-block, so the block
        // engine must run block prefixes and later re-enter at
        // non-leader pcs with suffixes — compare after every chunk, not
        // just at the end.
        for round in 0..64 {
            target += 1 + u64::from(rng.next_u32() % 97);
            steps_to_target(&mut by_step, target);
            blocks_to_target(&mut by_block, target);
            assert_same_state(&by_step, &by_block, &format!("{kind:?} chunk {round}"));
            if by_step.halted() {
                break;
            }
        }
    }
}

/// `measure_task` runs on the block engine; its cost must be the
/// step-mode (`Machine::run`) cost bit for bit, for every kernel at the
/// default (32×32) and quick (16×16) frames.
#[test]
fn measure_task_matches_step_mode_cost() {
    const MAX_INSTS: u64 = 500_000_000;
    for (w, h) in [(32, 32), (16, 16)] {
        let frame = GrayImage::synthetic(7, w, h);
        for kind in KernelKind::ALL {
            let inst = kind.build(&frame).expect("kernel builds");
            let mut cfg = SystemConfig::default();
            cfg.dmem_words = cfg.dmem_words.max(inst.min_dmem_words());
            let cost = measure_task(inst.program(), &cfg, MAX_INSTS).expect("kernel terminates");
            let mut by_step = Machine::with_config(
                inst.program(),
                cfg.dmem_words,
                cfg.cycle_model,
                cfg.energy_model,
            )
            .expect("machine builds");
            by_step.run(MAX_INSTS).expect("kernel runs");
            assert!(by_step.halted(), "{kind:?} at {w}x{h} halts");
            let c = by_step.counters();
            assert_eq!(
                (cost.instructions, cost.cycles, cost.energy_j.to_bits()),
                (c.instructions, c.cycles, c.energy_j.to_bits()),
                "{kind:?} at {w}x{h}"
            );
        }
    }
}
