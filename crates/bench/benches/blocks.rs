//! Execution-tier benchmark (`cargo bench --bench blocks`).
//!
//! Compares both execution tiers — `Machine::run` (per-instruction
//! dispatch) and `Machine::run_blocks` (fused basic blocks) — on the
//! tight ALU loop and the Sobel kernel, and cross-checks that they
//! retire the same instruction count, identical architectural state,
//! and bit-identical energy while timing.
//!
//! Set `NVP_BENCH_SMOKE=1` to run a bounded iteration count with a
//! single repetition — CI uses this to keep the bench built and
//! runnable, and to assert the cross-tier digests without timing.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use nvp_isa::asm::assemble;
use nvp_sim::{CycleModel, EnergyModel, Machine, MachineImage};
use nvp_workloads::{GrayImage, KernelKind};

fn smoke() -> bool {
    std::env::var_os("NVP_BENCH_SMOKE").is_some()
}

/// Best-of-`reps` throughput of `advance` on fresh machines,
/// instructions per second.
fn rate(
    mut fresh: impl FnMut() -> Machine,
    advance: impl Fn(&mut Machine, u64) -> u64,
    insts: u64,
    reps: usize,
) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..reps {
        let mut m = fresh();
        let t0 = Instant::now();
        let mut executed = 0;
        while executed < insts {
            executed += advance(&mut m, insts - executed);
            if m.halted() {
                break;
            }
        }
        black_box(&m);
        best = best.max(executed as f64 / t0.elapsed().as_secs_f64());
    }
    best
}

/// Runs both tiers to completion on small budgets and compares final
/// state — a correctness canary inside the bench binary.
fn crosscheck(program: &nvp_isa::Program, budget: u64) {
    let image = Arc::new(
        MachineImage::build(program, 8192, CycleModel::default(), EnergyModel::default())
            .expect("image builds"),
    );
    let mut by_step = Machine::from_image(&image);
    let mut by_block = Machine::from_image(&image);
    by_step.run(budget).expect("step run");
    by_block.run_blocks(budget).expect("block run");
    assert_eq!(by_step.snapshot(), by_block.snapshot(), "architectural state diverged");
    assert_eq!(
        by_step.counters().instructions,
        by_block.counters().instructions,
        "retired counts diverged"
    );
    assert_eq!(
        by_step.counters().energy_j.to_bits(),
        by_block.counters().energy_j.to_bits(),
        "energy totals diverged"
    );
}

fn main() {
    let (insts, reps) = if smoke() { (200_000, 1) } else { (4_000_000, 3) };

    let tight = assemble("start: addi r1, r1, 1\n xor r2, r2, r1\n bne r1, r0, start\n halt")
        .expect("tight loop assembles");
    let frame = GrayImage::synthetic(7, 32, 32);
    let sobel = KernelKind::Sobel.build(&frame).expect("sobel builds");
    let sobel_program = sobel.program().clone();

    crosscheck(&tight, 100_000);
    crosscheck(&sobel_program, 100_000);

    let step_run = |m: &mut Machine, n: u64| m.run(n).expect("program runs");
    let block_run = |m: &mut Machine, n: u64| m.run_blocks(n).expect("program runs").executed;

    let tight_image = Arc::new(
        MachineImage::build(&tight, 64, CycleModel::default(), EnergyModel::default())
            .expect("image builds"),
    );
    let sobel_image = Arc::new(
        MachineImage::build(
            &sobel_program,
            sobel.min_dmem_words(),
            CycleModel::default(),
            EnergyModel::default(),
        )
        .expect("image builds"),
    );

    let tight_step = rate(|| Machine::from_image(&tight_image), step_run, insts, reps);
    let tight_block = rate(|| Machine::from_image(&tight_image), block_run, insts, reps);
    let sobel_step = rate(|| Machine::from_image(&sobel_image), step_run, insts, reps);
    let sobel_block = rate(|| Machine::from_image(&sobel_image), block_run, insts, reps);

    println!("bench blocks/tight_loop_step_per_sec   {tight_step:>14.0}");
    println!("bench blocks/tight_loop_block_per_sec  {tight_block:>14.0}");
    println!("bench blocks/tight_loop_speedup        {:>14.2} x", tight_block / tight_step);
    println!("bench blocks/sobel_step_per_sec        {sobel_step:>14.0}");
    println!("bench blocks/sobel_block_per_sec       {sobel_block:>14.0}");
    println!("bench blocks/sobel_speedup             {:>14.2} x", sobel_block / sobel_step);
    if smoke() {
        println!("bench blocks: smoke mode (bounded iterations, cross-tier digests asserted)");
    }
}
