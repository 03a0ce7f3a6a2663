//! Toolchain closure over the real kernel suite: every generated kernel
//! program disassembles to text that re-assembles to the identical
//! binary, and its data segments survive the journey.

use nvp_isa::asm::assemble;
use nvp_workloads::{GrayImage, KernelKind};

#[test]
fn every_kernel_disassembles_and_reassembles() {
    let frame = GrayImage::synthetic(99, 16, 16);
    for kind in KernelKind::ALL {
        let inst = kind.build(&frame).expect("kernel builds");
        // Strip the address column the disassembler prefixes each line
        // with ("   12: addi r1, r1, 1" → "addi r1, r1, 1").
        let text: String = inst
            .program()
            .disassemble()
            .lines()
            .map(|line| {
                let (_, body) = line.split_once(':').expect("addr prefix");
                format!("{}\n", body.trim())
            })
            .collect();
        let rebuilt = assemble(&text)
            .unwrap_or_else(|e| panic!("{kind}: disassembly does not reassemble: {e}"));
        assert_eq!(rebuilt.code(), inst.program().code(), "{kind}: reassembled code differs");
    }
}

#[test]
fn every_kernel_renders_and_reassembles_byte_identically() {
    // The strong closure property: `Program::render_asm` emits source
    // that reassembles to a structurally identical image — code words,
    // data segments, entry point, AND symbol table. Two frame seeds so
    // data-dependent segment contents are exercised too.
    for seed in [7u64, 99] {
        let frame = GrayImage::synthetic(seed, 16, 16);
        for kind in KernelKind::ALL {
            let inst = kind.build(&frame).expect("kernel builds");
            let src = inst.program().render_asm().expect("kernel image decodes");
            let rebuilt = assemble(&src)
                .unwrap_or_else(|e| panic!("{kind}: rendered source does not assemble: {e}"));
            assert_eq!(
                &rebuilt,
                inst.program(),
                "{kind} (seed {seed}): reassembled image differs from the original"
            );
        }
    }
}

#[test]
fn kernel_programs_are_nontrivial() {
    // Guard against degenerate codegen: each kernel is a real program
    // with loops (backward branches) and memory traffic.
    let frame = GrayImage::synthetic(99, 16, 16);
    for kind in KernelKind::ALL {
        let inst = kind.build(&frame).expect("kernel builds");
        let decoded: Vec<nvp_isa::Inst> =
            inst.program().code().iter().map(|&w| nvp_isa::Inst::decode(w).unwrap()).collect();
        assert!(decoded.len() >= 10, "{kind}: only {} instructions", decoded.len());
        let has_backward_edge = decoded.iter().enumerate().any(|(pc, i)| match i {
            nvp_isa::Inst::Beq { offset, .. }
            | nvp_isa::Inst::Bne { offset, .. }
            | nvp_isa::Inst::Blt { offset, .. }
            | nvp_isa::Inst::Bge { offset, .. }
            | nvp_isa::Inst::Bltu { offset, .. }
            | nvp_isa::Inst::Bgeu { offset, .. } => *offset < 0,
            nvp_isa::Inst::Jal { target, .. } => (*target as usize) <= pc,
            _ => false,
        });
        assert!(has_backward_edge, "{kind}: no loop found");
        let is_mem =
            |i: &nvp_isa::Inst| matches!(i, nvp_isa::Inst::Lw { .. } | nvp_isa::Inst::Sw { .. });
        assert!(decoded.iter().any(is_mem), "{kind}: no memory traffic");
        assert!(decoded.iter().any(|i| matches!(i, nvp_isa::Inst::Halt)), "{kind}: no halt");
    }
}
