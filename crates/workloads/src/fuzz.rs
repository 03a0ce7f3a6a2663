//! Seeded grammar-based NV16 program fuzzer.
//!
//! Generates random-but-structured assembly programs for differential
//! testing of the simulator's execution tiers (step / block). The
//! grammar is chosen to exercise exactly the control shapes the block
//! engine specializes on:
//!
//! * straight-line ALU bursts (block fusion),
//! * bounded down-counter loops, including tight self-loops (streak
//!   batching) and multi-block bodies (block-to-block dispatch),
//! * forward branch diamonds whose direction depends on fuzzed register
//!   data (data-dependent terminators),
//! * `call`/`ret` subroutines (`jal`/`jalr` dispatch),
//! * loads and stores confined to a window the program also sizes
//!   (or, in [`FuzzClass::Wild`] mode, occasionally far outside it, to
//!   exercise the fault paths).
//!
//! Every generated program provably halts: loops are down-counters with
//! seeded trip counts, all other control flow is forward, and the
//! subroutines are non-recursive. Generation is a pure function of the
//! seed — the same seed always yields byte-identical source.

use nvp_isa::asm::assemble;
use nvp_isa::Program;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Word address of the fuzzed programs' read/write data window.
const DATA_BASE: u16 = 0x40;

/// Size of the data window, words. Offsets are drawn below this.
const DATA_WINDOW: u16 = 32;

/// How adventurous the generated memory traffic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzClass {
    /// All loads and stores stay inside the declared data window, so
    /// the program runs fault-free on any machine with at least
    /// [`FuzzedProgram::dmem_words`] words.
    Safe,
    /// Like [`Safe`](FuzzClass::Safe), but each memory segment has a
    /// small chance of addressing far beyond the window — the program
    /// may legitimately fault, and every execution tier must fault at
    /// the identical instruction with identical prior state.
    Wild,
}

/// A generated program together with its source and memory requirement.
#[derive(Debug, Clone)]
pub struct FuzzedProgram {
    /// The generated assembly source (kept for error reporting — a
    /// differential mismatch cites the offending program).
    pub source: String,
    /// The assembled program.
    pub program: Program,
    /// Data-memory words the program assumes
    /// ([`FuzzClass::Wild`] programs may still address beyond this).
    pub dmem_words: usize,
}

/// Deterministic segment count for a seed: 6–13 segments.
fn segment_count(rng: &mut StdRng) -> usize {
    6 + (rng.next_u32() as usize % 8)
}

/// A data register name, `r1`–`r7`.
fn data_reg(rng: &mut StdRng) -> String {
    format!("r{}", 1 + rng.next_u32() % 7)
}

/// A register-register ALU mnemonic.
fn alu_op(rng: &mut StdRng) -> &'static str {
    const OPS: [&str; 11] =
        ["add", "sub", "and", "or", "xor", "sll", "srl", "sra", "mul", "mulh", "sltu"];
    OPS[rng.next_u32() as usize % OPS.len()]
}

/// An immediate ALU mnemonic with a seeded immediate.
fn alu_imm(rng: &mut StdRng) -> String {
    const OPS: [&str; 7] = ["addi", "andi", "ori", "xori", "slti", "slli", "srli"];
    let op = OPS[rng.next_u32() as usize % OPS.len()];
    let (d, s) = (data_reg(rng), data_reg(rng));
    match op {
        "slli" | "srli" => format!("    {op} {d}, {s}, {}", rng.next_u32() % 16),
        "addi" | "slti" => format!("    {op} {d}, {s}, {}", (rng.next_u32() as i32 % 201) - 100),
        _ => format!("    {op} {d}, {s}, {:#06x}", rng.next_u32() % 0x10000),
    }
}

/// Emits 1–5 random ALU instructions.
fn emit_alu_burst(out: &mut String, rng: &mut StdRng) {
    for _ in 0..(1 + rng.next_u32() % 5) {
        if rng.next_u32().is_multiple_of(3) {
            out.push_str(&alu_imm(rng));
            out.push('\n');
        } else {
            let (op, d, a, b) = (alu_op(rng), data_reg(rng), data_reg(rng), data_reg(rng));
            out.push_str(&format!("    {op} {d}, {a}, {b}\n"));
        }
    }
}

/// Emits a `divu`/`remu` pair — the divide-by-zero semantics
/// (`divu x/0 = 0xFFFF`, `remu x%0 = x`) are favorite tier bugs.
fn emit_div(out: &mut String, rng: &mut StdRng) {
    let (d, a, b) = (data_reg(rng), data_reg(rng), data_reg(rng));
    let op = if rng.next_u32().is_multiple_of(2) { "divu" } else { "remu" };
    out.push_str(&format!("    {op} {d}, {a}, {b}\n"));
}

/// Emits a bounded down-counter loop. Tight single-block bodies hit
/// streak batching; bodies with an inner branch span blocks.
fn emit_loop(out: &mut String, rng: &mut StdRng, label: &str) {
    let trips = 2 + rng.next_u32() % 24;
    let counter = format!("r{}", 8 + rng.next_u32() % 3);
    out.push_str(&format!("    li {counter}, {trips}\n{label}:\n"));
    emit_alu_burst(out, rng);
    if rng.next_u32().is_multiple_of(3) {
        // A data-dependent skip inside the body splits it into two
        // blocks, so the loop exercises chain formation, not batching.
        let (a, skip) = (data_reg(rng), format!("{label}_skip"));
        out.push_str(&format!("    bnez {a}, {skip}\n"));
        emit_alu_burst(out, rng);
        out.push_str(&format!("{skip}:\n"));
    }
    out.push_str(&format!("    addi {counter}, {counter}, -1\n    bnez {counter}, {label}\n"));
}

/// Emits a load/store pair. `r11` always holds [`DATA_BASE`]; wild
/// programs occasionally aim a load far beyond the window instead.
fn emit_mem(out: &mut String, rng: &mut StdRng, class: FuzzClass) {
    if class == FuzzClass::Wild && rng.next_u32().is_multiple_of(8) {
        let (d, far) = (data_reg(rng), 0x4000 + (rng.next_u32() % 0x1000) as u16);
        out.push_str(&format!("    li r12, {far:#06x}\n    lw {d}, 0({})\n", "r12"));
        return;
    }
    let (s, d) = (data_reg(rng), data_reg(rng));
    let off = rng.next_u32() as u16 % DATA_WINDOW;
    out.push_str(&format!("    sw {s}, {off}(r11)\n    lw {d}, {off}(r11)\n"));
}

/// Emits a forward branch diamond with data-dependent direction.
fn emit_diamond(out: &mut String, rng: &mut StdRng, label: &str) {
    const BRANCHES: [&str; 6] = ["beq", "bne", "blt", "bge", "bltu", "bgeu"];
    let br = BRANCHES[rng.next_u32() as usize % BRANCHES.len()];
    let (a, b) = (data_reg(rng), data_reg(rng));
    let (alt, join) = (format!("{label}_alt"), format!("{label}_join"));
    out.push_str(&format!("    {br} {a}, {b}, {alt}\n"));
    emit_alu_burst(out, rng);
    out.push_str(&format!("    j {join}\n{alt}:\n"));
    emit_alu_burst(out, rng);
    out.push_str(&format!("{join}:\n"));
}

/// Generates one fuzzed program. Panics only if the generator itself
/// emits unassemblable source, which the in-crate tests pin against.
#[must_use]
pub fn generate(seed: u64, class: FuzzClass) -> FuzzedProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut src = String::new();
    src.push_str(&format!("; fuzzed NV16 program, seed {seed:#x}\n.entry main\nmain:\n"));
    src.push_str(&format!("    li r11, {DATA_BASE:#06x}\n"));
    // Seed the data registers so branch directions and memory values
    // vary per program, then mix in one input port (the differential
    // tests vary branch directions per run through it).
    for r in 1..=7 {
        src.push_str(&format!("    li r{r}, {:#06x}\n", rng.next_u32() % 0x10000));
    }
    src.push_str("    in r7, 0\n");
    let segments = segment_count(&mut rng);
    let mut calls = Vec::new();
    for i in 0..segments {
        let label = format!("s{i}");
        match rng.next_u32() % 6 {
            0 => emit_alu_burst(&mut src, &mut rng),
            1 => emit_loop(&mut src, &mut rng, &label),
            2 => emit_mem(&mut src, &mut rng, class),
            3 => emit_diamond(&mut src, &mut rng, &label),
            4 => emit_div(&mut src, &mut rng),
            _ => {
                src.push_str(&format!("    call fn{i}\n"));
                calls.push(i);
            }
        }
    }
    // Publish a result and stop; subroutines live past the halt.
    let r = data_reg(&mut rng);
    src.push_str(&format!("    out 1, {r}\n    halt\n"));
    for i in calls {
        src.push_str(&format!("fn{i}:\n"));
        emit_alu_burst(&mut src, &mut rng);
        src.push_str("    ret\n");
    }
    let program = assemble(&src).unwrap_or_else(|e| panic!("fuzzer emitted bad asm: {e}\n{src}"));
    FuzzedProgram {
        source: src,
        program,
        dmem_words: usize::from(DATA_BASE) + usize::from(DATA_WINDOW),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_sim::{CycleModel, EnergyModel, Machine};

    /// Generous per-program budget: trip counts are ≤ 25 per loop and
    /// segment counts ≤ 13, so honest programs finish in far fewer.
    const BUDGET: u64 = 200_000;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 0xDEAD_BEEF] {
            let a = generate(seed, FuzzClass::Safe);
            let b = generate(seed, FuzzClass::Safe);
            assert_eq!(a.source, b.source, "seed {seed:#x} not reproducible");
        }
    }

    #[test]
    fn safe_programs_assemble_run_and_halt() {
        for seed in 0..40u64 {
            let f = generate(seed, FuzzClass::Safe);
            let mut m = Machine::with_config(
                &f.program,
                f.dmem_words,
                CycleModel::default(),
                EnergyModel::default(),
            )
            .expect("machine loads");
            m.run(BUDGET).unwrap_or_else(|e| panic!("seed {seed:#x} faulted: {e}\n{}", f.source));
            assert!(m.halted(), "seed {seed:#x} did not halt in {BUDGET} steps\n{}", f.source);
        }
    }

    #[test]
    fn wild_programs_fault_or_halt_but_never_hang() {
        let mut faulted = 0;
        for seed in 0..60u64 {
            let f = generate(seed, FuzzClass::Wild);
            let mut m = Machine::with_config(
                &f.program,
                f.dmem_words,
                CycleModel::default(),
                EnergyModel::default(),
            )
            .expect("machine loads");
            match m.run(BUDGET) {
                Ok(_) => assert!(m.halted(), "seed {seed:#x} did not halt\n{}", f.source),
                Err(_) => faulted += 1,
            }
        }
        assert!(faulted > 0, "wild mode never faulted across 60 seeds");
    }

    #[test]
    fn seeds_produce_distinct_programs() {
        let a = generate(1, FuzzClass::Safe);
        let b = generate(2, FuzzClass::Safe);
        assert_ne!(a.source, b.source);
    }
}
