//! # nvp-device — nonvolatile memory device models
//!
//! Device-level substrate for the NVP evaluation framework: the menu of
//! nonvolatile memory technologies a nonvolatile processor can be built
//! from, and the knobs that matter at the architecture level:
//!
//! * [`NvmTechnology`] / [`NvmParams`] — per-technology write/read energy,
//!   latency, retention, and endurance (FeRAM, ReRAM, STT-MRAM, PCM),
//! * [`sttram`] — an analytic STT-RAM model relating write current, write
//!   pulse width, and retention time (the trade-off that makes *adaptive
//!   retention* profitable: most harvesting outages last milliseconds, so
//!   a decade of retention is wasted write energy),
//! * [`RelaxPolicy`] — shaped per-bit retention-relaxation policies
//!   (linear / log / parabola from MSB to LSB) and retention-failure
//!   sampling for restored words,
//! * [`NvffBank`] — distributed nonvolatile flip-flop banks with backup /
//!   restore cost models,
//! * [`ChipProfile`] — a gallery of published NVP silicon operating points
//!   used by the T1 comparison table,
//! * [`EnduranceMeter`] — lifetime estimates under sustained backup rates.
//!
//! All energies are joules, times are seconds; values are behavioural-model
//! outputs calibrated to published silicon (see `DESIGN.md`), not silicon
//! claims.
//!
//! ## Example
//!
//! ```
//! use nvp_device::{NvmTechnology, NvffBank};
//!
//! let bank = NvffBank::new(NvmTechnology::Feram, 512);
//! assert!(bank.backup_energy_j() > 0.0);
//! assert!(bank.backup_time_s() < 1e-5, "distributed backup is microseconds");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chip;
mod endurance;
mod nvff;
mod retention;
pub mod sttram;
mod tech;

pub use chip::{published_chips, ChipProfile};
pub use endurance::EnduranceMeter;
pub use nvff::NvffBank;
pub use retention::{BitRetention, DecayOdds, RelaxPolicy, RetentionShaper};
pub use tech::{NvmParams, NvmTechnology};
