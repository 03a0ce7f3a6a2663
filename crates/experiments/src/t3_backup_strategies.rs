//! **T3 — backup-strategy comparison.**
//!
//! The architecture-level choice the survey dwells on: distributed
//! (parallel NV flip-flops) vs. centralized (word-serial copy to an NVM
//! array) vs. software checkpointing, per technology — op costs plus
//! end-to-end forward progress on a wearable trace.

use nvp_core::BackupStyle;
use nvp_device::NvmTechnology;
use nvp_workloads::KernelKind;
use serde::{Deserialize, Serialize};

use crate::common::{kernel, style_setup, watch_trace, Setup};
use crate::plan::{self, Outcomes, Plan};
use crate::report::fmt;
use crate::{ExpConfig, Table};

/// One technology × style measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// NVM technology.
    pub tech: String,
    /// Backup style.
    pub style: String,
    /// Backup time, µs.
    pub backup_us: f64,
    /// Backup energy, nJ.
    pub backup_nj: f64,
    /// Restore time, µs.
    pub restore_us: f64,
    /// Forward progress on the first wearable profile.
    pub fp: u64,
}

/// The style × technology grid (FeRAM and STT-MRAM — the two
/// technologies real NVPs and FRAM MCUs use), technology-major.
fn grid(cfg: &ExpConfig) -> Vec<(NvmTechnology, BackupStyle, Setup)> {
    let inst = kernel(cfg, KernelKind::Sobel);
    let mut out = Vec::new();
    for tech in [NvmTechnology::Feram, NvmTechnology::SttMram] {
        for style in [BackupStyle::Distributed, BackupStyle::Centralized, BackupStyle::Software] {
            out.push((tech, style, style_setup(&inst, style, tech)));
        }
    }
    out
}

/// T3's work: every grid cell on the first profile.
pub(crate) fn plan(cfg: &ExpConfig) -> Plan {
    let inst = kernel(cfg, KernelKind::Sobel);
    let trace = watch_trace(cfg, cfg.profile_seeds[0]);
    let mut plan = Plan::default();
    for (tech, style, setup) in grid(cfg) {
        plan.sim(&format!("{tech} {style:?}"), setup, &inst, &trace);
    }
    plan
}

/// The rows, from [`plan`]'s outcomes.
fn read(cfg: &ExpConfig, out: &mut Outcomes) -> Vec<Row> {
    grid(cfg)
        .into_iter()
        .map(|(tech, style, setup)| {
            let Setup::Nvp { backup, .. } = setup else { unreachable!("T3 runs NVP setups") };
            Row {
                tech: tech.to_string(),
                style: style.to_string(),
                backup_us: backup.backup_time.get() * 1e6,
                backup_nj: backup.backup_energy.get() * 1e9,
                restore_us: backup.restore_time.get() * 1e6,
                fp: out.report().forward_progress(),
            }
        })
        .collect()
}

/// Runs the style × technology grid.
#[must_use]
pub fn rows(cfg: &ExpConfig) -> Vec<Row> {
    plan::build(cfg, plan(cfg), read)
}

/// The table, from [`plan`]'s outcomes.
pub(crate) fn render(cfg: &ExpConfig, out: &mut Outcomes) -> Table {
    let mut t = Table::new(
        "T3",
        "Backup strategies: distributed NVFF vs centralized copy vs software checkpointing",
        &["tech", "style", "backup_us", "backup_nj", "restore_us", "fp"],
    );
    for r in read(cfg, out) {
        t.push_row(vec![
            r.tech,
            r.style,
            fmt(r.backup_us, 2),
            fmt(r.backup_nj, 1),
            fmt(r.restore_us, 2),
            r.fp.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributed_dominates() {
        let rows = rows(&ExpConfig::quick());
        assert_eq!(rows.len(), 6);
        for tech in ["FeRAM", "STT-MRAM"] {
            let fp =
                |style: &str| rows.iter().find(|r| r.tech == tech && r.style == style).unwrap().fp;
            let t = |style: &str| {
                rows.iter().find(|r| r.tech == tech && r.style == style).unwrap().backup_us
            };
            assert!(t("distributed") < t("centralized"), "{tech}");
            assert!(t("centralized") < t("software"), "{tech}");
            assert!(
                fp("distributed") >= fp("software"),
                "{tech}: distributed {} vs software {}",
                fp("distributed"),
                fp("software")
            );
        }
    }
}
