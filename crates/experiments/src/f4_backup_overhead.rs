//! **F4 — backup overheads on wearable traces.**
//!
//! Published calibration targets: 1400–1700 backups per minute, consuming
//! 20–33 % of income energy. This experiment reports the framework's
//! measured values per profile.

use nvp_workloads::KernelKind;
use serde::{Deserialize, Serialize};

use crate::common::{kernel, nvp_setup, watch_trace};
use crate::plan::{self, Outcomes, Plan};
use crate::report::fmt;
use crate::{ExpConfig, Table};

/// Per-profile backup-overhead measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Profile seed.
    pub profile: u64,
    /// Backups per minute.
    pub backups_per_minute: f64,
    /// Restores per minute.
    pub restores_per_minute: f64,
    /// Share of converted income energy spent on backup + restore.
    pub backup_energy_share: f64,
    /// Rollbacks (should be zero under the demand policy).
    pub rollbacks: u64,
}

/// F4's work: the standard NVP on the sobel workload over every
/// profile.
pub(crate) fn plan(cfg: &ExpConfig) -> Plan {
    let inst = kernel(cfg, KernelKind::Sobel);
    let mut plan = Plan::default();
    for &seed in &cfg.profile_seeds {
        plan.sim("standard hardware nvp", nvp_setup(&inst), &inst, &watch_trace(cfg, seed));
    }
    plan
}

/// The rows, from [`plan`]'s outcomes.
fn read(cfg: &ExpConfig, out: &mut Outcomes) -> Vec<Row> {
    cfg.profile_seeds
        .iter()
        .map(|&seed| {
            let r = out.report();
            Row {
                profile: seed,
                backups_per_minute: r.backups_per_minute(),
                restores_per_minute: r.restores as f64 * 60.0 / r.duration_s,
                backup_energy_share: r.backup_energy_share(),
                rollbacks: r.rollbacks,
            }
        })
        .collect()
}

/// Measures backup overheads with the sobel workload.
#[must_use]
pub fn rows(cfg: &ExpConfig) -> Vec<Row> {
    plan::build(cfg, plan(cfg), read)
}

/// The table, from [`plan`]'s outcomes.
pub(crate) fn render(cfg: &ExpConfig, out: &mut Outcomes) -> Table {
    let mut t = Table::new(
        "F4",
        "Backup overheads (published: 1400-1700 backups/min, 20-33% of income energy)",
        &["profile", "backups_per_min", "restores_per_min", "backup_energy_share", "rollbacks"],
    );
    for r in read(cfg, out) {
        t.push_row(vec![
            r.profile.to_string(),
            fmt(r.backups_per_minute, 0),
            fmt(r.restores_per_minute, 0),
            fmt(r.backup_energy_share, 3),
            r.rollbacks.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_in_calibrated_band() {
        for r in rows(&ExpConfig::default()) {
            assert!(
                (400.0..4000.0).contains(&r.backups_per_minute),
                "profile {}: {} backups/min",
                r.profile,
                r.backups_per_minute
            );
            assert!(
                (0.05..0.45).contains(&r.backup_energy_share),
                "profile {}: share {}",
                r.profile,
                r.backup_energy_share
            );
            assert_eq!(r.rollbacks, 0, "demand policy must not roll back");
        }
    }
}
