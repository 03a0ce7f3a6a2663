//! Kernel suite plumbing: build, run, verify.

use std::fmt;

use nvp_isa::asm::AsmError;
use nvp_isa::Program;
use nvp_sim::{CycleModel, EnergyModel, Machine, SimError};
use serde::{Deserialize, Serialize};

use crate::{kernels, GrayImage};

/// Errors from building or running a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// The generated assembly failed to assemble (a kernel bug).
    Asm(AsmError),
    /// The program faulted or did not terminate in the simulator.
    Sim(SimError),
    /// The program ran but did not halt within the instruction budget.
    DidNotHalt {
        /// The instruction budget that was exhausted.
        budget: u64,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Asm(e) => write!(f, "assembly failed: {e}"),
            WorkloadError::Sim(e) => write!(f, "simulation failed: {e}"),
            WorkloadError::DidNotHalt { budget } => {
                write!(f, "program did not halt within {budget} instructions")
            }
        }
    }
}

impl std::error::Error for WorkloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkloadError::Asm(e) => Some(e),
            WorkloadError::Sim(e) => Some(e),
            WorkloadError::DidNotHalt { .. } => None,
        }
    }
}

impl From<AsmError> for WorkloadError {
    fn from(e: AsmError) -> Self {
        WorkloadError::Asm(e)
    }
}

impl From<SimError> for WorkloadError {
    fn from(e: SimError) -> Self {
        WorkloadError::Sim(e)
    }
}

/// The post-sensing kernel suite.
///
/// Image kernels mirror the MiBench/susan-class benchmarks the NVP
/// literature evaluates; the scalar kernels cover the pattern-matching
/// and compression workloads it cites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum KernelKind {
    /// 3×3 Sobel gradient magnitude.
    Sobel,
    /// 3×3 median filter (salt-and-pepper denoise).
    Median,
    /// 3×3 box smoothing (susan.smoothing proxy).
    Smooth,
    /// Thresholded gradient edges (susan.edges proxy).
    Edges,
    /// Neighborhood-dissimilarity corners (susan.corners proxy).
    Corners,
    /// Integral image (summed-area table, wrapping 16-bit).
    Integral,
    /// 16-point fixed-point radix-2 FFT over the first image row.
    Fft16,
    /// 8×8 block DCT + shift quantization over the frame (jpeg.encode proxy).
    Dct8,
    /// CRC-16/CCITT over the frame bytes.
    Crc16,
    /// Count occurrences of a 4-word pattern (pattern matching).
    StrSearch,
    /// Run-length encoding of the frame (tiff/compression proxy).
    Rle,
    /// 8×8 fixed-point matrix multiply of two frame tiles.
    MatMul8,
    /// 16-bin intensity histogram.
    Histogram,
    /// 8-tap moving-average FIR over the frame as a 1-D stream.
    Fir8,
    /// 2×2 average-pooling downsampler (thumbnail proxy).
    Downsample,
}

impl KernelKind {
    /// All kernels in reporting order.
    pub const ALL: [KernelKind; 15] = [
        KernelKind::Sobel,
        KernelKind::Median,
        KernelKind::Smooth,
        KernelKind::Edges,
        KernelKind::Corners,
        KernelKind::Integral,
        KernelKind::Fft16,
        KernelKind::Dct8,
        KernelKind::Crc16,
        KernelKind::StrSearch,
        KernelKind::Rle,
        KernelKind::MatMul8,
        KernelKind::Histogram,
        KernelKind::Fir8,
        KernelKind::Downsample,
    ];

    /// Display name (matches the literature's naming where applicable).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Sobel => "sobel",
            KernelKind::Median => "median",
            KernelKind::Smooth => "smooth",
            KernelKind::Edges => "edges",
            KernelKind::Corners => "corners",
            KernelKind::Integral => "integral",
            KernelKind::Fft16 => "fft16",
            KernelKind::Dct8 => "dct8",
            KernelKind::Crc16 => "crc16",
            KernelKind::StrSearch => "strsearch",
            KernelKind::Rle => "rle",
            KernelKind::MatMul8 => "matmul8",
            KernelKind::Histogram => "histogram",
            KernelKind::Fir8 => "fir8",
            KernelKind::Downsample => "downsample",
        }
    }

    /// Builds an executable instance of this kernel over a frame.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Asm`] only if kernel codegen is broken
    /// (covered by tests for every kernel).
    pub fn build(self, image: &GrayImage) -> Result<KernelInstance, WorkloadError> {
        match self {
            KernelKind::Sobel => kernels::sobel::build(image),
            KernelKind::Median => kernels::median::build(image),
            KernelKind::Smooth => kernels::smooth::build(image),
            KernelKind::Edges => kernels::edges::build(image),
            KernelKind::Corners => kernels::corners::build(image),
            KernelKind::Integral => kernels::integral::build(image),
            KernelKind::Fft16 => kernels::fft16::build(image),
            KernelKind::Dct8 => kernels::dct8::build(image),
            KernelKind::Crc16 => kernels::crc16::build(image),
            KernelKind::StrSearch => kernels::strsearch::build(image),
            KernelKind::Rle => kernels::rle::build(image),
            KernelKind::MatMul8 => kernels::matmul8::build(image),
            KernelKind::Histogram => kernels::histogram::build(image),
            KernelKind::Fir8 => kernels::fir8::build(image),
            KernelKind::Downsample => kernels::downsample::build(image),
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An executable kernel: program image + expected reference output.
#[derive(Debug, Clone)]
pub struct KernelInstance {
    kind: KernelKind,
    program: Program,
    out_addr: u16,
    out_len: usize,
    reference: Vec<u16>,
    min_dmem_words: usize,
    width: usize,
    height: usize,
}

impl KernelInstance {
    pub(crate) fn new(
        kind: KernelKind,
        program: Program,
        out_addr: u16,
        reference: Vec<u16>,
        min_dmem_words: usize,
        width: usize,
        height: usize,
    ) -> Self {
        KernelInstance {
            kind,
            program,
            out_addr,
            out_len: reference.len(),
            reference,
            min_dmem_words,
            width,
            height,
        }
    }

    /// Which kernel this is.
    #[must_use]
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// The executable program image.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Output length in words.
    #[must_use]
    pub fn out_len(&self) -> usize {
        self.out_len
    }

    /// The full-precision reference output.
    #[must_use]
    pub fn reference(&self) -> &[u16] {
        &self.reference
    }

    /// Minimum installed data memory, in words.
    #[must_use]
    pub fn min_dmem_words(&self) -> usize {
        self.min_dmem_words
    }

    /// Frame width this instance was built for.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height this instance was built for.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Extracts the output region from a machine.
    #[must_use]
    pub fn output_of(&self, machine: &Machine) -> Vec<u16> {
        let start = usize::from(self.out_addr);
        machine.dmem()[start..start + self.out_len].to_vec()
    }

    /// Creates a machine loaded with this kernel.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Sim`] if the image fails to load.
    pub fn machine(&self) -> Result<Machine, WorkloadError> {
        Ok(Machine::with_config(
            &self.program,
            self.min_dmem_words,
            CycleModel::default(),
            EnergyModel::default(),
        )?)
    }

    /// Runs the kernel to completion on uninterrupted power and returns
    /// the output region.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if the program faults or exceeds the
    /// 200 M-instruction budget.
    pub fn run_to_completion(&self) -> Result<Vec<u16>, WorkloadError> {
        const BUDGET: u64 = 200_000_000;
        let mut machine = self.machine()?;
        machine.run(BUDGET)?;
        if !machine.halted() {
            return Err(WorkloadError::DidNotHalt { budget: BUDGET });
        }
        Ok(self.output_of(&machine))
    }
}
