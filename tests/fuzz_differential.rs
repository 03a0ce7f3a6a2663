//! Differential testing of the execution tiers over fuzzed programs.
//!
//! The grammar fuzzer (`nvp_workloads::fuzz`) generates seeded NV16
//! programs shaped to stress exactly what the block engine specializes
//! on — loops, branch diamonds, subroutines, divide-by-zero, memory
//! traffic — and every program must execute identically under
//! per-instruction `step()` and the block tier. Each program runs with
//! several distinct input-port values so its data-dependent branches
//! take both directions. Wild-mode programs may fault; both tiers must
//! then report the identical error with identical prior state. The
//! block tier is also driven in ragged instruction chunks, as the
//! intermittent platform drives it, so budget boundaries and faults
//! land inside partially executed blocks.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use nvp_sim::{CycleModel, EnergyModel, Machine, MachineImage, SimError};
use nvp_workloads::fuzz::{generate, FuzzClass, FuzzedProgram};

/// Ample headroom over the fuzzer's bounded loops.
const BUDGET: u64 = 200_000;

/// Two independent seed families, as many programs each.
const SEED_FAMILIES: [u64; 2] = [0x00A1_0000, 0x00B2_0000];
const PROGRAMS_PER_FAMILY: u64 = 12;

/// Port-0 inputs each program runs with: the fuzzed `in r7, 0` read
/// makes downstream branch directions input-dependent.
const INPUTS: [u16; 4] = [0x0000, 0x0001, 0x7FFF, 0xFFFE];

fn image_of(f: &FuzzedProgram) -> Arc<MachineImage> {
    Arc::new(
        MachineImage::build(
            &f.program,
            f.dmem_words,
            CycleModel::default(),
            EnergyModel::default(),
        )
        .expect("fuzzed image builds"),
    )
}

/// Runs `m` to halt or fault through `advance`, returning the error.
fn drive(
    m: &mut Machine,
    mut advance: impl FnMut(&mut Machine) -> Result<bool, SimError>,
) -> Option<SimError> {
    loop {
        match advance(m) {
            Ok(true) => return None,
            Ok(false) => {
                assert!(m.counters().instructions < BUDGET, "program exceeded budget");
            }
            Err(e) => return Some(e),
        }
    }
}

fn assert_same(a: &Machine, b: &Machine, ctx: &str, src: &str) {
    assert_eq!(a.snapshot(), b.snapshot(), "{ctx}: state diverged\n{src}");
    assert_eq!(a.dmem(), b.dmem(), "{ctx}: memory diverged\n{src}");
    assert_eq!(a.out_log(), b.out_log(), "{ctx}: output log diverged\n{src}");
    let (ca, cb) = (a.counters(), b.counters());
    assert_eq!(ca.instructions, cb.instructions, "{ctx}: retired counts diverged\n{src}");
    assert_eq!(ca.cycles, cb.cycles, "{ctx}: cycles diverged\n{src}");
    assert_eq!(
        ca.energy_j.to_bits(),
        cb.energy_j.to_bits(),
        "{ctx}: energy not bit-identical\n{src}"
    );
}

/// Exercises one fuzzed program in step mode and the block tier, once
/// per input.
fn check_program(f: &FuzzedProgram, tag: &str) {
    let image = image_of(f);
    for input in INPUTS {
        let mut by_step = Machine::from_image(&image);
        by_step.set_input(0, input);
        let ref_err = drive(&mut by_step, |m| m.step().map(|_| m.halted()));
        let mut by_block = Machine::from_image(&image);
        by_block.set_input(0, input);
        let err = drive(&mut by_block, |m| m.run_blocks(BUDGET).map(|_| m.halted()));
        assert_eq!(err, ref_err, "{tag}: fault disposition, input {input:#x}");
        assert_same(&by_step, &by_block, &format!("{tag}: input {input:#x}"), &f.source);
    }
}

#[test]
fn fuzzed_programs_agree_across_all_tiers() {
    for family in SEED_FAMILIES {
        for i in 0..PROGRAMS_PER_FAMILY {
            let f = generate(family + i, FuzzClass::Safe);
            check_program(&f, &format!("safe seed {:#x}", family + i));
        }
    }
}

#[test]
fn fuzzed_faulting_programs_agree_across_all_tiers() {
    for family in SEED_FAMILIES {
        for i in 0..PROGRAMS_PER_FAMILY {
            let f = generate(family + i, FuzzClass::Wild);
            check_program(&f, &format!("wild seed {:#x}", family + i));
        }
    }
}

/// Steps `m` until it has retired `target` instructions in total (or
/// halted), returning the first fault.
fn steps_to_target(m: &mut Machine, target: u64) -> Result<(), SimError> {
    while m.counters().instructions < target && !m.halted() {
        m.step()?;
    }
    Ok(())
}

/// Same through the block tier, one call per remaining budget: calls
/// return early at `ckpt`, so a chunk may take several.
fn blocks_to_target(m: &mut Machine, target: u64) -> Result<(), SimError> {
    while m.counters().instructions < target && !m.halted() {
        m.run_blocks(target - m.counters().instructions)?;
    }
    Ok(())
}

/// Drives one fuzzed program in ragged chunks through step mode and
/// the block tier, comparing after every chunk. Returns how many
/// instructions the step reference retired before faulting, or `None`
/// if it halted.
fn check_program_chunked(f: &FuzzedProgram, tag: &str, rng: &mut StdRng) -> Option<u64> {
    let image = image_of(f);
    let mut by_step = Machine::from_image(&image);
    let mut by_block = Machine::from_image(&image);
    let mut target = 0u64;
    for round in 0u32.. {
        target += 1 + u64::from(rng.next_u32() % 37);
        let err = steps_to_target(&mut by_step, target).err();
        let ctx = format!("{tag}: chunk {round} (target {target})");
        assert_eq!(blocks_to_target(&mut by_block, target).err(), err, "{ctx}: fault");
        assert_same(&by_step, &by_block, &ctx, &f.source);
        if err.is_some() {
            return Some(by_step.counters().instructions);
        }
        if by_step.halted() {
            return None;
        }
        assert!(target < BUDGET, "{tag}: program exceeded budget\n{}", f.source);
    }
    unreachable!("the round counter outlasts the budget")
}

/// Stops the block tier 1–3 instructions short of the fault point
/// `before_fault`, then lets one unbounded call run into the fault.
/// Unless the faulting op leads its block, that call enters the block
/// mid-way and the fault surfaces from a partial slice; either way it
/// must match step mode's pc, counters and energy.
fn check_fault_in_slice(f: &FuzzedProgram, tag: &str, before_fault: u64) {
    let image = image_of(f);
    let mut by_step = Machine::from_image(&image);
    let err = steps_to_target(&mut by_step, u64::MAX).expect_err("reference faults");
    for short in 1..=before_fault.min(3) {
        let ctx = format!("{tag}: stopped {short} before the fault");
        let mut m = Machine::from_image(&image);
        blocks_to_target(&mut m, before_fault - short).expect("no early fault");
        assert_eq!(blocks_to_target(&mut m, u64::MAX), Err(err.clone()), "{ctx}");
        assert_same(&by_step, &m, &ctx, &f.source);
    }
}

#[test]
fn fuzzed_programs_agree_under_ragged_budgets() {
    let mut rng = StdRng::seed_from_u64(0x00C3_5EED);
    let mut faults = 0;
    for family in SEED_FAMILIES {
        for i in 0..PROGRAMS_PER_FAMILY {
            for class in [FuzzClass::Safe, FuzzClass::Wild] {
                let f = generate(family + i, class);
                let tag = format!("{class:?} seed {:#x}", family + i);
                if let Some(before_fault) = check_program_chunked(&f, &tag, &mut rng) {
                    assert_eq!(class, FuzzClass::Wild, "{tag}: safe program faulted");
                    check_fault_in_slice(&f, &tag, before_fault);
                    faults += 1;
                }
            }
        }
    }
    assert!(faults > 0, "no wild program faulted; the fault paths went unchecked");
}
