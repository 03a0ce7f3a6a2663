//! # nvp-core — nonvolatile processor architecture & system simulation
//!
//! The primary subject of the reproduced survey: what a nonvolatile
//! processor *is* architecturally, and how it converts an unstable
//! harvested power supply into persistent forward progress.
//!
//! * [`BackupModel`] — lump-sum cost models for the three checkpointing
//!   styles (distributed NV flip-flops, centralized copy, software
//!   checkpointing), built on the `nvp-device` technology menu,
//! * [`BackupPolicy`] / [`Thresholds`] — when to back up and when it is
//!   safe to start,
//! * [`Platform`] / [`drive`] — the shared engine: one trace loop banks
//!   income through the `nvp-energy` [`EnergyFrontEnd`] and ticks any
//!   platform, with a [`SimObserver`] event seam (power-on, backup,
//!   restore, rollback, brown-out, task commit); stretches a platform
//!   only charges and sleeps through take its [`Platform::idle`] fast
//!   path, bit-identical to the generic ticks,
//! * [`IntermittentSystem`] — the system-level NVP platform: a 0.1 ms
//!   energy loop driving the instruction-level `nvp-sim` machine through
//!   off/restore/active/backup phases,
//! * [`FaultPlan`] — seeded fault injection for the safety path itself
//!   (torn backups, retention bit-flips, restore failures), recovered
//!   through CRC-verified A/B checkpoints, bounded retry with threshold
//!   backoff, and graceful degradation (experiment F12),
//! * [`WaitComputeSystem`] — the conventional charge-then-compute
//!   baseline the NVP is compared against (same engine, different
//!   front-end options and phase logic),
//! * [`RunReport`] — forward progress, backup counts, rollbacks, and the
//!   full energy breakdown,
//! * [`AppProfile`] — the system energy-distribution model motivating
//!   local computation (table T2).
//!
//! ## Example: NVP vs. wait-compute on a wearable trace
//!
//! ```
//! use nvp_core::{
//!     measure_task, BackupModel, BackupPolicy, IntermittentSystem,
//!     SystemConfig, WaitComputeConfig, WaitComputeSystem,
//! };
//! use nvp_device::NvmTechnology;
//! use nvp_energy::harvester;
//! use nvp_isa::asm::assemble;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A frame-scale task: ~40k instructions per completion.
//! let program = assemble(
//!     "li r2, 20000\nloop: addi r1, r1, 1\nbne r1, r2, loop\nhalt",
//! )?;
//! let trace = harvester::wrist_watch(1, 5.0);
//!
//! let backup = BackupModel::distributed(NvmTechnology::Feram, 2048);
//! let mut nvp = IntermittentSystem::new(
//!     &program, SystemConfig::default(), backup, BackupPolicy::demand())?;
//! let nvp_report = nvp.run(&trace)?;
//!
//! let cost = measure_task(&program, &SystemConfig::default(), 1_000_000)?;
//! let mut wait = WaitComputeSystem::new(
//!     &program, WaitComputeConfig::default().sized_for(&cost, 1.3))?;
//! let wait_report = wait.run(&trace)?;
//!
//! // On turbulent wearable power the NVP makes more persistent progress.
//! assert!(nvp_report.forward_progress() >= wait_report.forward_progress());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod appmodel;
mod backup;
mod clock;
mod fault;
mod platform;
mod policy;
mod system;
mod wait;

pub use appmodel::{
    AppProfile, EnergyShares, CORE_CLOCK_HZ, CORE_POWER_W, RADIO_POWER_W, RADIO_RATE_BPS,
};
pub use backup::{
    BackupModel, BackupStyle, HW_BACKUP_OVERHEAD, HW_RESTORE_OVERHEAD, HW_SEQ_OVERHEAD,
};
pub use clock::ClockPolicy;
pub use fault::FaultPlan;
pub use nvp_energy::{EnergyFrontEnd, FrontEndConfig, TickIncome};
pub use platform::{drive, drive_observed, NullObserver, Platform, SimEvent, SimObserver};
pub use policy::{BackupPolicy, Thresholds};
pub use system::{
    measure_task, EnergyBreakdown, IntermittentSystem, RunReport, StreamUse, SystemConfig, TaskCost,
};
pub use wait::{WaitComputeConfig, WaitComputeSystem};
