//! **F5 — storage-capacitor sizing sweep.**
//!
//! The architecture-exploration result (HPCA'15 class): an NVP needs only
//! enough storage to cover restore + one backup + a little useful work —
//! below that it cannot start at all; above it, extra capacitance buys
//! ride-through for short outages with diminishing returns, while the
//! wait-compute platform needs orders of magnitude more storage before it
//! works at all.

use nvp_core::BackupPolicy;
use nvp_workloads::KernelKind;
use serde::{Deserialize, Serialize};

use crate::common::{kernel, standard_backup, system_config_for, wait_config, watch_trace, Setup};
use crate::plan::{self, Outcomes, Plan};
use crate::report::fmt;
use crate::{ExpConfig, Table};

/// Swept capacitances, farads.
pub const CAPACITANCES_F: [f64; 9] =
    [47e-9, 100e-9, 220e-9, 470e-9, 1e-6, 2.2e-6, 10e-6, 47e-6, 220e-6];

/// One sweep point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Storage capacitance, µF.
    pub cap_uf: f64,
    /// NVP forward progress with this buffer size.
    pub nvp_fp: u64,
    /// Wait-compute forward progress with this ESD size.
    pub wait_fp: u64,
}

/// Both platforms at one swept capacitance `c`: the NVP with a `c`
/// buffer and wait-compute with a `c` ESD. The smallest buffers
/// legitimately cannot *start* — that is the measured result.
fn point_setups(cfg: &ExpConfig, c: f64) -> [(String, Setup); 2] {
    let inst = kernel(cfg, KernelKind::Sobel);
    let sys = system_config_for(&inst).with_capacitance(c);
    // The wait-compute start threshold stays task-sized but is capped at
    // 90 % of the ESD capacity (an undersized ESD forces early, risky
    // starts).
    let mut wcfg = wait_config(cfg, KernelKind::Sobel);
    wcfg.capacitance_f = c;
    let capacity = 0.5 * c * wcfg.cap_voltage_v * wcfg.cap_voltage_v;
    wcfg.start_energy_j = wcfg.start_energy_j.min(0.9 * capacity);
    [
        (
            format!("nvp {:.0} nF buffer", c * 1e9),
            Setup::Nvp { sys, backup: standard_backup(), policy: BackupPolicy::demand() },
        ),
        (format!("wait-compute {:.0} nF esd", c * 1e9), Setup::Wait(wcfg)),
    ]
}

/// F5's work: both platforms at every swept capacitance, on the first
/// profile.
pub(crate) fn plan(cfg: &ExpConfig) -> Plan {
    let inst = kernel(cfg, KernelKind::Sobel);
    let trace = watch_trace(cfg, cfg.profile_seeds[0]);
    let mut plan = Plan::default();
    for (label, setup) in CAPACITANCES_F.into_iter().flat_map(|c| point_setups(cfg, c)) {
        plan.sim(&label, setup, &inst, &trace);
    }
    plan
}

/// The rows, in [`CAPACITANCES_F`] order, from [`plan`]'s outcomes.
fn read(out: &mut Outcomes) -> Vec<Row> {
    CAPACITANCES_F
        .iter()
        .map(|&c| {
            let [nvp, wait] = [(); 2].map(|()| out.report().forward_progress());
            Row { cap_uf: c * 1e6, nvp_fp: nvp, wait_fp: wait }
        })
        .collect()
}

/// Sweeps storage size for both platforms on the first profile.
#[must_use]
pub fn rows(cfg: &ExpConfig) -> Vec<Row> {
    plan::build(cfg, plan(cfg), |_, out| read(out))
}

/// The table, from [`plan`]'s outcomes.
pub(crate) fn render(_cfg: &ExpConfig, out: &mut Outcomes) -> Table {
    let mut t = Table::new(
        "F5",
        "Forward progress vs storage capacitance (NVP buffer vs wait-compute ESD)",
        &["cap_uf", "nvp_fp", "wait_fp"],
    );
    for r in read(out) {
        t.push_row(vec![fmt(r.cap_uf, 3), r.nvp_fp.to_string(), r.wait_fp.to_string()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_buffer_cannot_start_nvp() {
        let rows = rows(&ExpConfig::quick());
        // 47 nF at 3.3 V stores ~0.26 µJ — below the NVP start threshold.
        assert_eq!(rows[0].nvp_fp, 0, "47 nF must be unviable");
        // Micro-farad-class buffers work.
        let viable = rows.iter().find(|r| (r.cap_uf - 2.2).abs() < 1e-9).unwrap();
        assert!(viable.nvp_fp > 0);
    }

    #[test]
    fn nvp_needs_less_storage_than_wait() {
        let rows = rows(&ExpConfig::quick());
        let min_nvp = rows.iter().find(|r| r.nvp_fp > 0).map(|r| r.cap_uf);
        let min_wait = rows.iter().find(|r| r.wait_fp > 0).map(|r| r.cap_uf);
        match (min_nvp, min_wait) {
            (Some(n), Some(w)) => assert!(n <= w, "nvp {n} µF vs wait {w} µF"),
            (Some(_), None) => {} // wait never works in the quick window
            other => panic!("unexpected viability pattern {other:?}"),
        }
    }
}
