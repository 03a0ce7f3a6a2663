//! # nvp-experiments — the reconstructed evaluation harness
//!
//! One module per table/figure of the reconstructed DATE'17 NVP
//! evaluation (see `DESIGN.md` for the experiment index and the
//! paper-mismatch note). Every experiment is a deterministic function of
//! an [`ExpConfig`]; [`run_all`] regenerates everything and writes
//! CSV/Markdown artifacts.
//!
//! | ID | Module | What it reproduces |
//! |----|--------|--------------------|
//! | T1 | [`t1_chip_gallery`] | published NVP chip/technology comparison |
//! | F1 | [`f1_power_profiles`] | the five wearable power profiles |
//! | F2 | [`f2_outage_stats`] | outage durations & emergency frequencies |
//! | F3 | [`f3_forward_progress`] | NVP vs wait-compute vs software ckpt |
//! | F4 | [`f4_backup_overhead`] | backups/minute & income-energy share |
//! | F5 | [`f5_capacitor_sweep`] | forward progress vs storage size |
//! | F6 | [`f6_restore_sensitivity`] | forward progress vs wake-up latency |
//! | F7 | [`f7_tech_sweep`] | NVM technology × harvester class |
//! | T2 | [`t2_energy_distribution`] | compute/radio/sense energy shares |
//! | F8 | [`f8_frame_latency`] | per-frame latency by platform |
//! | T3 | [`t3_backup_strategies`] | distributed vs centralized vs software |
//! | F9 | [`f9_retention_relaxation`] | shaped-retention backup (extension) |
//! | F10 | [`f10_policy_sweep`] | backup-margin policy sweep (extension) |
//! | F11 | [`f11_clock_scaling`] | income-adaptive clock scaling (extension) |
//! | F12 | [`f12_fault_resilience`] | fault-injection resilience campaign (extension) |
//!
//! ## Example
//!
//! ```
//! use nvp_experiments::{t1_chip_gallery, ExpConfig};
//!
//! let table = t1_chip_gallery::table(&ExpConfig::quick());
//! assert!(table.rows().len() >= 6);
//! println!("{}", table.to_markdown());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod client;
mod common;
mod config;
pub mod feasibility;
pub mod job;
mod par;
mod persist;
pub mod record;
mod registry;
mod report;
mod runner;
mod sched;
mod simcache;
mod stats;
pub mod wire;

pub mod f10_policy_sweep;
pub mod f11_clock_scaling;
pub mod f12_fault_resilience;
pub mod f1_power_profiles;
pub mod f2_outage_stats;
pub mod f3_forward_progress;
pub mod f4_backup_overhead;
pub mod f5_capacitor_sweep;
pub mod f6_restore_sensitivity;
pub mod f7_tech_sweep;
pub mod f8_frame_latency;
pub mod f9_retention_relaxation;
pub mod t1_chip_gallery;
pub mod t2_energy_distribution;
pub mod t3_backup_strategies;

pub use common::{trace_memo_stats, TraceMemoStats};
pub use config::ExpConfig;
pub use job::{run_request, CampaignRequest, CampaignResult};
pub use par::set_thread_override;
pub use registry::{find, registry, Experiment};
pub use report::Table;
pub use runner::{run_all, run_all_sequential, RunArtifacts};
pub use sched::{sched_stats, SchedStats};
pub use simcache::{
    reset_sim_cache, set_cache_dir, sim_cache_memo_stats, sim_cache_stats, SimCacheMemoStats,
    SimCacheStats,
};
pub use stats::{exec_stats, ExecStats};
