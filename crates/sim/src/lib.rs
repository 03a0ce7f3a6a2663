//! # nvp-sim — cycle- and energy-annotated NV16 simulator
//!
//! A deterministic functional simulator for [`nvp_isa`] programs. Every
//! executed instruction is charged a cycle count (from [`CycleModel`]) and
//! an energy cost in joules (from [`EnergyModel`]), so the system-level
//! nonvolatile-processor simulator in `nvp-core` can convert harvested
//! energy into forward progress exactly the way the published NVP
//! frameworks do (an RTL/functional core driven by a system-level energy
//! simulator).
//!
//! The default energy model is calibrated to the measured operating point
//! reported for wearable NVP prototypes: **0.209 mW at 1 MHz** (≈209 pJ per
//! cycle, averaged across the instruction mix).
//!
//! ## Execution
//!
//! [`Machine::step`] executes one instruction and is the reference
//! semantics. [`Machine::run_blocks`] runs the same program through
//! basic-block plans lowered once per [`MachineImage`]; its results are
//! bit-identical to the equivalent sequence of `step` calls, down to
//! counters and energy bit patterns. A [`BlockStream`] records the path
//! one task takes through those plans, and a [`StreamCore`] replays it:
//! it answers `run_blocks` with bit-identical [`BlockStats`] and no
//! interpretation, for runs that never re-execute an instruction against
//! data it already changed. These are the simulator's three execution
//! tiers: `step` is the oracle, the block engine records streams and
//! runs everything a stream cannot serve, and the platform models in
//! `nvp-core` run on `run_blocks` or a stream.
//!
//! ## Example
//!
//! ```
//! use nvp_isa::asm::assemble;
//! use nvp_sim::Machine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble(
//!     "li r1, 3\nli r2, 4\nmul r3, r1, r2\nout 0, r3\nhalt",
//! )?;
//! let mut m = Machine::new(&program)?;
//! m.run(1_000)?;
//! assert!(m.halted());
//! assert_eq!(m.out_log(), &[(0, 12)]);
//! assert!(m.counters().energy_j > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod checkpoint;
mod energy;
mod machine;
mod stream;

pub use checkpoint::{crc32_bytes, crc32_words, torn_prefix_words, Checkpoint, CHECKPOINT_WORDS};
pub use energy::{CycleModel, EnergyModel, InstClass};
pub use machine::{ArchState, BlockStats, Counters, Machine, MachineImage, SimError, Step};
pub use stream::{BlockStream, StreamCore, StreamPos};

/// Default installed data-memory size in 16-bit words (8 Ki-words = 16 KiB).
pub const DEFAULT_DMEM_WORDS: usize = 8192;
