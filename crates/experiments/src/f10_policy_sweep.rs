//! **F10 — backup-policy sweep (extension experiment).**
//!
//! How much reserve to keep before triggering a demand backup (the
//! TECS'17 bounded-energy-management question), and what purely periodic
//! checkpointing (Mementos-class) costs in lost work on turbulent traces.

use nvp_core::BackupPolicy;
use nvp_workloads::KernelKind;
use serde::{Deserialize, Serialize};

use crate::common::{kernel, standard_backup, system_config_for, watch_trace, Setup};
use crate::plan::{self, Outcomes, Plan};
use crate::{ExpConfig, Table};

/// Swept demand-backup margins (× backup energy).
pub const MARGINS: [f64; 5] = [1.0, 1.5, 2.0, 3.0, 5.0];
/// Swept periodic checkpoint intervals, seconds.
pub const INTERVALS_S: [f64; 3] = [0.005, 0.02, 0.1];

/// One policy point (first profile).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Policy description.
    pub policy: String,
    /// Forward progress.
    pub fp: u64,
    /// Instructions lost to rollbacks.
    pub lost: u64,
    /// Backups performed.
    pub backups: u64,
    /// Rollbacks suffered.
    pub rollbacks: u64,
}

/// The standard NVP under every swept policy, labelled as the table
/// prints it: margins first, intervals after.
fn setups(cfg: &ExpConfig) -> Vec<(String, Setup)> {
    let sys = system_config_for(&kernel(cfg, KernelKind::Sobel));
    let nvp = |policy| Setup::Nvp { sys, backup: standard_backup(), policy };
    MARGINS
        .into_iter()
        .map(|margin| {
            (format!("demand margin {margin:.1}"), nvp(BackupPolicy::OnDemand { margin }))
        })
        .chain(INTERVALS_S.into_iter().map(|interval_s| {
            (
                format!("periodic {} ms", interval_s * 1e3),
                nvp(BackupPolicy::Periodic { interval_s }),
            )
        }))
        .collect()
}

/// F10's work: every swept policy on the first profile.
pub(crate) fn plan(cfg: &ExpConfig) -> Plan {
    let inst = kernel(cfg, KernelKind::Sobel);
    let trace = watch_trace(cfg, cfg.profile_seeds[0]);
    let mut plan = Plan::default();
    for (label, setup) in setups(cfg) {
        plan.sim(&label, setup, &inst, &trace);
    }
    plan
}

/// The rows, margins first, intervals after, from [`plan`]'s outcomes.
fn read(cfg: &ExpConfig, out: &mut Outcomes) -> Vec<Row> {
    setups(cfg)
        .into_iter()
        .map(|(policy, _)| {
            let r = out.report();
            let fp = r.forward_progress();
            Row { policy, fp, lost: r.lost, backups: r.backups, rollbacks: r.rollbacks }
        })
        .collect()
}

/// Sweeps demand margins and periodic intervals.
#[must_use]
pub fn rows(cfg: &ExpConfig) -> Vec<Row> {
    plan::build(cfg, plan(cfg), read)
}

/// The table, from [`plan`]'s outcomes.
pub(crate) fn render(cfg: &ExpConfig, out: &mut Outcomes) -> Table {
    let mut t = Table::new(
        "F10",
        "Backup-policy sweep: demand margins vs periodic checkpointing",
        &["policy", "fp", "lost", "backups", "rollbacks"],
    );
    for r in read(cfg, out) {
        t.push_row(vec![
            r.policy,
            r.fp.to_string(),
            r.lost.to_string(),
            r.backups.to_string(),
            r.rollbacks.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safe_margins_never_lose_work() {
        let rows = rows(&ExpConfig::quick());
        for r in rows.iter().filter(|r| r.policy.starts_with("demand")) {
            assert!(r.fp > 0, "{}", r.policy);
            if !r.policy.contains("1.0") {
                assert_eq!(r.rollbacks, 0, "{}", r.policy);
                assert_eq!(r.lost, 0, "{}", r.policy);
            }
        }
    }

    #[test]
    fn greedy_margin_is_unsafe() {
        // Reserving exactly one backup's worth leaves no slack for the
        // instruction in flight when the floor is crossed — the greedy
        // policy's failure mode.
        let rows = rows(&ExpConfig::quick());
        let greedy = rows.iter().find(|r| r.policy.contains("1.0")).unwrap();
        assert!(greedy.rollbacks > 0, "margin 1.0 should occasionally fail to checkpoint");
    }

    #[test]
    fn periodic_policies_lose_work_on_turbulent_traces() {
        let rows = rows(&ExpConfig::quick());
        let periodic: Vec<_> = rows.iter().filter(|r| r.policy.starts_with("periodic")).collect();
        assert_eq!(periodic.len(), INTERVALS_S.len());
        assert!(
            periodic.iter().any(|r| r.rollbacks > 0),
            "at least one periodic interval must suffer rollbacks"
        );
    }

    #[test]
    fn excessive_margin_costs_forward_progress() {
        let rows = rows(&ExpConfig::quick());
        let fp = |m: &str| rows.iter().find(|r| r.policy.contains(m)).unwrap().fp;
        // A 5x reserve starts later and stops earlier than a 1.5x one.
        assert!(fp("margin 1.5") >= fp("margin 5.0"));
    }
}
