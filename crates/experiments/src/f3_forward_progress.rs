//! **F3 — forward progress: NVP vs. the conventional platforms.**
//!
//! The survey's headline quantitative claim: on wearable harvester
//! traces, a hardware-managed NVP makes several times the persistent
//! forward progress of a charge-then-compute volatile MCU (published
//! band: 2.2×–5×), with software checkpointing in between.

use nvp_workloads::KernelKind;
use serde::{Deserialize, Serialize};

use crate::common::{kernel, nvp_setup, swckpt_setup, wait_setup, watch_trace, Setup};
use crate::plan::{self, Outcomes, Plan};
use crate::report::fmt_ratio;
use crate::{ExpConfig, Table};

/// Kernels used for the headline comparison (frame-scale workloads).
pub const KERNELS: [KernelKind; 3] = [KernelKind::Sobel, KernelKind::Median, KernelKind::Dct8];

/// One kernel × profile comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Kernel name.
    pub kernel: String,
    /// Profile seed.
    pub profile: u64,
    /// NVP forward progress (committed instructions).
    pub nvp_fp: u64,
    /// Wait-then-compute forward progress.
    pub wait_fp: u64,
    /// Software-checkpointing forward progress.
    pub swckpt_fp: u64,
}

impl Row {
    /// NVP / wait-compute forward-progress ratio, or `None` when the
    /// wait-compute platform completed no frame at all (a common outcome
    /// for heavy kernels — its ESD never accumulates one frame's energy).
    #[must_use]
    pub fn nvp_over_wait(&self) -> Option<f64> {
        (self.wait_fp > 0).then(|| self.nvp_fp as f64 / self.wait_fp as f64)
    }

    /// NVP / software-checkpointing forward-progress ratio.
    #[must_use]
    pub fn nvp_over_swckpt(&self) -> Option<f64> {
        (self.swckpt_fp > 0).then(|| self.nvp_fp as f64 / self.swckpt_fp as f64)
    }
}

/// The three platforms F3 compares on one kernel, in column order:
/// hardware NVP, wait-compute, software checkpointing.
fn kernel_setups(cfg: &ExpConfig, kind: KernelKind) -> [(String, Setup); 3] {
    let inst = kernel(cfg, kind);
    [
        (format!("hardware nvp {}", kind.name()), nvp_setup(&inst)),
        (format!("wait-compute {}", kind.name()), wait_setup(cfg, kind)),
        (format!("software checkpoint {}", kind.name()), swckpt_setup(&inst)),
    ]
}

/// F3's work: the three platforms for every kernel × profile
/// combination, in row order.
pub(crate) fn plan(cfg: &ExpConfig) -> Plan {
    let mut plan = Plan::default();
    for kind in KERNELS {
        let inst = kernel(cfg, kind);
        let setups = kernel_setups(cfg, kind);
        for &seed in &cfg.profile_seeds {
            let trace = watch_trace(cfg, seed);
            for (label, setup) in &setups {
                plan.sim(label, *setup, &inst, &trace);
            }
        }
    }
    plan
}

/// The rows, from [`plan`]'s outcomes.
fn read(cfg: &ExpConfig, out: &mut Outcomes) -> Vec<Row> {
    let mut rows = Vec::new();
    for kind in KERNELS {
        for &seed in &cfg.profile_seeds {
            let [nvp_fp, wait_fp, swckpt_fp] = [(); 3].map(|()| out.report().forward_progress());
            let kernel = kind.name().to_owned();
            rows.push(Row { kernel, profile: seed, nvp_fp, wait_fp, swckpt_fp });
        }
    }
    rows
}

/// Runs the three platforms for every kernel × profile combination.
#[must_use]
pub fn rows(cfg: &ExpConfig) -> Vec<Row> {
    plan::build(cfg, plan(cfg), read)
}

/// Geometric-mean NVP/wait ratio across the rows where wait-compute was
/// viable at all; `None` if it never was.
#[must_use]
pub fn mean_nvp_over_wait(rows: &[Row]) -> Option<f64> {
    let finite: Vec<f64> = rows.iter().filter_map(Row::nvp_over_wait).collect();
    if finite.is_empty() {
        return None;
    }
    let log_sum: f64 = finite.iter().map(|v| v.ln()).sum();
    Some((log_sum / finite.len() as f64).exp())
}

/// The table, from [`plan`]'s outcomes.
pub(crate) fn render(cfg: &ExpConfig, out: &mut Outcomes) -> Table {
    let rows = read(cfg, out);
    let mut t = Table::new(
        "F3",
        "Forward progress: hardware NVP vs wait-compute vs software checkpointing",
        &["kernel", "profile", "nvp_fp", "wait_fp", "swckpt_fp", "nvp/wait", "nvp/swckpt"],
    );
    let ratio = |v: Option<f64>| v.map_or_else(|| "inf".to_owned(), fmt_ratio);
    for r in &rows {
        t.push_row(vec![
            r.kernel.clone(),
            r.profile.to_string(),
            r.nvp_fp.to_string(),
            r.wait_fp.to_string(),
            r.swckpt_fp.to_string(),
            ratio(r.nvp_over_wait()),
            ratio(r.nvp_over_swckpt()),
        ]);
    }
    t.push_row(vec![
        "geomean (wait-viable rows)".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        ratio(mean_nvp_over_wait(&rows)),
        "-".into(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvp_wins_on_wearable_traces() {
        let cfg = ExpConfig::quick();
        let rows = rows(&cfg);
        assert_eq!(rows.len(), KERNELS.len() * cfg.profile_seeds.len());
        for r in &rows {
            assert!(r.nvp_fp > 0, "{} p{}", r.kernel, r.profile);
            assert!(
                r.nvp_fp >= r.wait_fp,
                "{} p{}: nvp {} < wait {}",
                r.kernel,
                r.profile,
                r.nvp_fp,
                r.wait_fp
            );
        }
        let mean = mean_nvp_over_wait(&rows).expect("wait viable for light kernels in quick cfg");
        assert!(mean > 1.3, "published band is 2.2-5x; quick run gives {mean}");
    }
}
