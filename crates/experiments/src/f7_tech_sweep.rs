//! **F7 — NVM technology × harvester class.**
//!
//! Which backup technology suits which ambient source: forward progress
//! for all four NVM technologies (distributed backup) across the four
//! source classes, plus the endurance verdict at each source's backup
//! rate.

use nvp_core::{BackupModel, BackupPolicy};
use nvp_device::{EnduranceMeter, NvmTechnology};
use nvp_energy::harvester::SourceKind;
use serde::{Deserialize, Serialize};

use crate::common::{kernel, source_trace, system_config_for_tech, Setup, STATE_BITS};
use crate::plan::{self, Outcomes, Plan};
use crate::report::fmt;
use crate::{ExpConfig, Table};
use nvp_workloads::{KernelInstance, KernelKind};

/// One technology × source measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// NVM technology.
    pub tech: String,
    /// Harvester class.
    pub source: String,
    /// Forward progress.
    pub fp: u64,
    /// Backups per minute.
    pub backups_per_min: f64,
    /// Projected lifetime at this backup rate, years (∞-safe as f64).
    pub lifetime_years: f64,
}

/// The NVP built from one technology: both the backup path *and* the
/// NVM data memory use `tech`. The harvester sources vary only the
/// trace, not the platform.
fn setup(inst: &KernelInstance, tech: NvmTechnology) -> (String, Setup) {
    let sys = system_config_for_tech(inst, tech);
    let backup = BackupModel::distributed(tech, STATE_BITS);
    let nvp = Setup::Nvp { sys, backup, policy: BackupPolicy::demand() };
    (format!("nvp {tech} backup + data memory"), nvp)
}

/// The technology × source grid, technology-major.
fn grid() -> impl Iterator<Item = (NvmTechnology, SourceKind)> {
    NvmTechnology::ALL
        .into_iter()
        .flat_map(|tech| SourceKind::ALL.into_iter().map(move |source| (tech, source)))
}

/// F7's work: one simulation per grid cell, on the first profile seed
/// of each source.
pub(crate) fn plan(cfg: &ExpConfig) -> Plan {
    let inst = kernel(cfg, KernelKind::Sobel);
    let mut plan = Plan::default();
    for (tech, source) in grid() {
        let (label, nvp) = setup(&inst, tech);
        plan.sim(&label, nvp, &inst, &source_trace(cfg, source, cfg.profile_seeds[0]));
    }
    plan
}

/// The rows, technology-major, from [`plan`]'s outcomes.
fn read(out: &mut Outcomes) -> Vec<Row> {
    grid()
        .map(|(tech, source)| {
            let r = out.report();
            let rate = r.backups as f64 / r.duration_s.max(1e-9);
            let meter = EnduranceMeter::new(tech.params());
            Row {
                tech: tech.to_string(),
                source: source.to_string(),
                fp: r.forward_progress(),
                backups_per_min: r.backups_per_minute(),
                lifetime_years: meter.lifetime_years(rate),
            }
        })
        .collect()
}

/// Runs the full technology × source grid; row order is
/// technology-major.
#[must_use]
pub fn rows(cfg: &ExpConfig) -> Vec<Row> {
    plan::build(cfg, plan(cfg), |_, out| read(out))
}

/// The table, from [`plan`]'s outcomes.
pub(crate) fn render(_cfg: &ExpConfig, out: &mut Outcomes) -> Table {
    let mut t = Table::new(
        "F7",
        "Forward progress and endurance by NVM technology and harvester class",
        &["tech", "source", "fp", "backups_per_min", "lifetime_years"],
    );
    for r in read(out) {
        let life = if r.lifetime_years.is_finite() && r.lifetime_years < 1e6 {
            fmt(r.lifetime_years, 1)
        } else {
            ">1e6".to_owned()
        };
        t.push_row(vec![r.tech, r.source, r.fp.to_string(), fmt(r.backups_per_min, 0), life]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_complete_and_ordered() {
        let rows = rows(&ExpConfig::quick());
        assert_eq!(rows.len(), 16);
        // Solar (strong source) beats thermal (weak) for every tech.
        for tech in NvmTechnology::ALL {
            let f = |src: &str| {
                rows.iter().find(|r| r.tech == tech.to_string() && r.source == src).unwrap().fp
            };
            assert!(
                f("solar-indoor") > f("thermal-body"),
                "{tech}: solar {} vs thermal {}",
                f("solar-indoor"),
                f("thermal-body")
            );
        }
    }

    #[test]
    fn feram_cheap_writes_beat_pcm() {
        let rows = rows(&ExpConfig::quick());
        let fp = |tech: &str| -> u64 { rows.iter().filter(|r| r.tech == tech).map(|r| r.fp).sum() };
        assert!(fp("FeRAM") >= fp("PCM"), "FeRAM {} vs PCM {}", fp("FeRAM"), fp("PCM"));
    }
}
