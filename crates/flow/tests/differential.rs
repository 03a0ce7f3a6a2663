//! Differential soundness harness: static sets must over-approximate
//! dynamic ground truth on every registry kernel.
//!
//! Each kernel runs to completion on the real simulator under a trace
//! observer ([`nvp_flow::record`]) at two image seeds. For every run the
//! harness asserts the over-approximation contract:
//!
//! - every dynamically read word address lies in the static read set;
//! - every dynamically written address lies in the static write set.
//!
//! And, independently, that every shipped kernel analyzes clean.

use nvp_flow::{analyze, record, set_contains, AnalysisConfig, Waivers};
use nvp_workloads::{GrayImage, KernelKind};

const MAX_INSTS: u64 = 5_000_000;

fn check_kernel(kind: KernelKind, seed: u64) {
    let image = GrayImage::synthetic(seed, 16, 16);
    let instance = kind.build(&image).expect("kernel builds");
    let program = instance.program();

    let a = analyze(program, &AnalysisConfig::default(), &Waivers::none()).expect("analyzes");
    assert!(
        a.is_clean(),
        "{} (seed {seed}) must analyze clean, got: {:?}",
        kind.name(),
        a.diagnostics
    );

    let trace = record(program, instance.min_dmem_words(), MAX_INSTS)
        .expect("kernel runs on the simulator");
    assert!(trace.halted, "{} (seed {seed}) must halt within budget", kind.name());

    for &addr in &trace.reads {
        assert!(
            set_contains(&a.read_set, addr),
            "{} (seed {seed}): dynamic read of dmem[{addr:#06x}] outside static read set {:?}",
            kind.name(),
            a.read_set
        );
    }
    for &addr in &trace.writes {
        assert!(
            set_contains(&a.write_set, addr),
            "{} (seed {seed}): dynamic write of dmem[{addr:#06x}] outside static write set {:?}",
            kind.name(),
            a.write_set
        );
    }
}

macro_rules! differential {
    ($($name:ident => $kind:expr),+ $(,)?) => {
        $(
            #[test]
            fn $name() {
                check_kernel($kind, 1);
                check_kernel($kind, 2);
            }
        )+
    };
}

differential! {
    sobel_over_approximates => KernelKind::Sobel,
    median_over_approximates => KernelKind::Median,
    smooth_over_approximates => KernelKind::Smooth,
    edges_over_approximates => KernelKind::Edges,
    corners_over_approximates => KernelKind::Corners,
    integral_over_approximates => KernelKind::Integral,
    fft16_over_approximates => KernelKind::Fft16,
    dct8_over_approximates => KernelKind::Dct8,
    crc16_over_approximates => KernelKind::Crc16,
    strsearch_over_approximates => KernelKind::StrSearch,
    rle_over_approximates => KernelKind::Rle,
    matmul8_over_approximates => KernelKind::MatMul8,
    histogram_over_approximates => KernelKind::Histogram,
    fir8_over_approximates => KernelKind::Fir8,
    downsample_over_approximates => KernelKind::Downsample,
}

/// The registry is exactly the fifteen kernels covered above; a new
/// kernel must be added to this harness to ship.
#[test]
fn registry_is_fully_covered() {
    assert_eq!(KernelKind::ALL.len(), 15);
}
