//! # nvp-energy — the energy-harvesting environment
//!
//! Models everything *upstream* of the nonvolatile processor:
//!
//! * [`PowerTrace`] — harvested input power sampled at a fixed period
//!   (0.1 ms in the published NVP frameworks), with CSV import/export,
//! * [`harvester`] — seeded synthetic generators for the four ambient
//!   source classes the NVP literature evaluates (wrist-worn rotational /
//!   piezo, indoor solar, RF, body-thermal), calibrated to the published
//!   envelope: 10–40 µW averages, spikes to ~2000 µW, and 1000–2000
//!   sub-threshold emergencies per 10 s window at a 33 µW operating
//!   threshold,
//! * [`OutageStats`] — outage-duration and power-emergency statistics
//!   (figure F2 of the reconstructed evaluation), and [`TraceSummary`],
//!   the profile and outage statistics of a trace folded in one pass,
//!   which [`harvester::SourceKind::summarize`] streams from a generator
//!   without holding its samples,
//! * [`Rectifier`] and [`Capacitor`] — the AC-DC conversion-efficiency
//!   curve and the energy-storage device with leakage, whose sizing
//!   trade-off is the heart of the NVP-vs-wait-compute comparison,
//! * [`EnergyFrontEnd`] — the complete per-tick income path (rectifier →
//!   trickle/clip options → capacitor charge + leak) shared by every
//!   simulated platform, configured by a [`FrontEndConfig`], and its
//!   idle loop ([`EnergyFrontEnd::idle`]) that banks and sleeps through
//!   a stretch of samples with the stored energy in a register,
//! * [`units`] — dimensional newtypes ([`Joules`], [`Watts`], [`Volts`],
//!   [`Farads`], [`Seconds`]) that make unit slips in the accounting
//!   engine compile errors while staying bit-exact with raw `f64`.
//!
//! ## Example
//!
//! ```
//! use nvp_energy::{harvester, OutageStats};
//!
//! let trace = harvester::wrist_watch(1, 10.0);
//! assert_eq!(trace.len(), 100_000); // 10 s at 0.1 ms
//! let stats = OutageStats::analyze(&trace, 33e-6);
//! assert!(stats.emergency_count > 500, "wearable traces are turbulent");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frontend;
pub mod harvester;
mod stats;
mod trace;
pub mod units;

pub use frontend::{Capacitor, EnergyFrontEnd, FrontEndConfig, IdleSums, Rectifier, TickIncome};
pub use stats::{Histogram, OutageStats, TraceSummary};
pub use trace::PowerTrace;
pub use units::{Farads, Joules, Seconds, Volts, Watts};

/// The sampling period used throughout the published NVP frameworks (0.1 ms).
pub const DEFAULT_DT_S: f64 = 1e-4;

/// The processor operating threshold the survey's statistics assume (33 µW).
pub const OPERATING_THRESHOLD_W: f64 = 33e-6;
