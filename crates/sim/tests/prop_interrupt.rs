//! The simulator-level foundation of the NVP guarantee: snapshotting the
//! architectural state, losing the volatile machine, and restoring must
//! be exactly equivalent to never having been interrupted — at *any*
//! interruption points. Deterministically seeded random sweeps replace
//! the original proptest strategies.

use nvp_isa::asm::assemble;
use nvp_isa::Program;
use nvp_sim::{ArchState, Machine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small checksum program with data-dependent control flow: mixes
/// loads, stores, multiplies, branches and I/O over a 64-word buffer.
fn checksum_program() -> Program {
    assemble(
        r"
        .equ N, 64
        .equ BUF, 0x40
            li   r1, BUF
            li   r2, N
            li   r3, 0          ; sum
            li   r4, 1          ; weighted product
        loop:
            lw   r5, 0(r1)
            add  r3, r3, r5
            andi r6, r5, 1
            beqz r6, even
            mul  r4, r4, r5
        even:
            sw   r3, N(r1)      ; running sums to BUF+N..
            addi r1, r1, 1
            addi r2, r2, -1
            bnez r2, loop
            out  0, r3
            out  1, r4
            halt
        ",
    )
    .expect("checksum program assembles")
}

fn fresh_machine(data: &[u16]) -> Machine {
    let mut program = checksum_program();
    program.add_data(0x40, data);
    Machine::new(&program).expect("loads")
}

fn final_state(machine: &Machine) -> (Vec<u16>, Vec<(u8, u16)>) {
    (machine.dmem().to_vec(), machine.out_log().to_vec())
}

fn any_data(rng: &mut StdRng) -> Vec<u16> {
    (0..64).map(|_| rng.random::<u16>()).collect()
}

/// For any input buffer and any set of interruption points, a run with
/// snapshot → volatile-loss → restore cycles produces exactly the same
/// memory and output log as an uninterrupted run.
#[test]
fn interrupted_equals_uninterrupted() {
    let mut rng = StdRng::seed_from_u64(0x51b_001);
    for _ in 0..120 {
        let data = any_data(&mut rng);
        let n_cuts = rng.random::<u32>() as usize % 6;
        let cut_points: Vec<u64> = (0..n_cuts).map(|_| 1 + rng.random::<u64>() % 499).collect();

        // Reference: run to completion without interruptions.
        let mut reference = fresh_machine(&data);
        reference.run(1_000_000).unwrap();
        assert!(reference.halted());
        let want = final_state(&reference);

        // Interrupted: execute in chunks, losing volatile state between.
        let mut machine = fresh_machine(&data);
        for &chunk in &cut_points {
            machine.run(chunk).unwrap();
            if machine.halted() {
                break;
            }
            let snapshot = machine.snapshot();
            // Power failure: registers and PC are garbage afterwards.
            machine.reset_volatile();
            machine.restore(&ArchState { regs: [0xDEAD; 16], pc: 0 });
            // Hardware restore.
            machine.restore(&snapshot);
        }
        machine.run(1_000_000).unwrap();
        assert!(machine.halted());
        assert_eq!(final_state(&machine), want);
    }
}

/// Snapshot/restore is idempotent: restoring twice, or restoring the
/// snapshot of an untouched machine, changes nothing.
#[test]
fn restore_is_idempotent() {
    let mut rng = StdRng::seed_from_u64(0x51b_002);
    for _ in 0..120 {
        let data = any_data(&mut rng);
        let steps = 1 + rng.random::<u64>() % 299;
        let mut machine = fresh_machine(&data);
        machine.run(steps).unwrap();
        let snap = machine.snapshot();
        let before = (machine.pc(), machine.reg(nvp_isa::Reg::R3));
        machine.restore(&snap);
        machine.restore(&snap);
        assert_eq!((machine.pc(), machine.reg(nvp_isa::Reg::R3)), before);
    }
}
