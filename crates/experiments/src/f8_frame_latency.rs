//! **F8 — per-frame latency by platform.**
//!
//! The application-level consequence of forward progress: how long one
//! processed sensor frame takes on harvested power. Published anchor
//! shape (256² frames): wait-compute 1.65/4.9/12.55 s/frame for
//! corners/edges/jpeg-class kernels, improved to 0.97/2.28/5.22 s/frame
//! by a precise NVP. We measure at the configured frame size (default
//! 32²) — absolute numbers scale with pixel count; the *ordering* and
//! the NVP speedup factor are the reproduced shape.

use nvp_workloads::KernelKind;
use serde::{Deserialize, Serialize};

use crate::common::{
    kernel, nvp_setup, seconds_per_frame, task_cost, wait_setup, watch_trace, Setup,
};
use crate::plan::{self, Outcomes, Plan};
use crate::report::{fmt, fmt_ratio};
use crate::{ExpConfig, Table};

/// Kernels compared (lightest to heaviest).
pub const KERNELS: [KernelKind; 6] = [
    KernelKind::Corners,
    KernelKind::Edges,
    KernelKind::Sobel,
    KernelKind::Smooth,
    KernelKind::Median,
    KernelKind::Dct8,
];

/// One kernel's latency comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Kernel name.
    pub kernel: String,
    /// Unconstrained (continuous-power) time per frame, s.
    pub unconstrained_s: f64,
    /// NVP seconds per frame on the trace (`None` = no frame finished).
    pub nvp_s_per_frame: Option<f64>,
    /// Wait-compute seconds per frame on the trace.
    pub wait_s_per_frame: Option<f64>,
}

impl Row {
    /// Wait / NVP latency ratio (NVP speedup), when both completed frames.
    #[must_use]
    pub fn nvp_speedup(&self) -> Option<f64> {
        match (self.nvp_s_per_frame, self.wait_s_per_frame) {
            (Some(n), Some(w)) if n > 0.0 => Some(w / n),
            _ => None,
        }
    }
}

/// The two platforms F8 compares on one kernel: hardware NVP, then
/// wait-compute.
fn kernel_setups(cfg: &ExpConfig, kind: KernelKind) -> [(String, Setup); 2] {
    [
        (format!("hardware nvp {}", kind.name()), nvp_setup(&kernel(cfg, kind))),
        (format!("wait-compute {}", kind.name()), wait_setup(cfg, kind)),
    ]
}

/// F8's work: both platforms for every kernel, on the first profile.
pub(crate) fn plan(cfg: &ExpConfig) -> Plan {
    let trace = watch_trace(cfg, cfg.profile_seeds[0]);
    let mut plan = Plan::default();
    for kind in KERNELS {
        let inst = kernel(cfg, kind);
        for (label, setup) in kernel_setups(cfg, kind) {
            plan.sim(&label, setup, &inst, &trace);
        }
    }
    plan
}

/// The rows, from [`plan`]'s outcomes. The unconstrained time is the
/// task cost the wait-compute setup was sized from, memoized when the
/// plan was made.
fn read(cfg: &ExpConfig, out: &mut Outcomes) -> Vec<Row> {
    KERNELS
        .iter()
        .map(|&kind| {
            let [nvp, wait] = [(); 2].map(|()| out.report());
            Row {
                kernel: kind.name().to_owned(),
                unconstrained_s: task_cost(cfg, kind).time_s(1e6),
                nvp_s_per_frame: seconds_per_frame(&nvp),
                wait_s_per_frame: seconds_per_frame(&wait),
            }
        })
        .collect()
}

/// Measures frame latency for every kernel on the first profile.
#[must_use]
pub fn rows(cfg: &ExpConfig) -> Vec<Row> {
    plan::build(cfg, plan(cfg), read)
}

fn opt(v: Option<f64>, decimals: usize) -> String {
    v.map_or_else(|| "none".to_owned(), |x| fmt(x, decimals))
}

/// The table, from [`plan`]'s outcomes.
pub(crate) fn render(cfg: &ExpConfig, out: &mut Outcomes) -> Table {
    let mut t = Table::new(
        "F8",
        "Seconds per processed frame on harvested power (NVP vs wait-compute)",
        &["kernel", "unconstrained_s", "nvp_s_per_frame", "wait_s_per_frame", "nvp_speedup"],
    );
    for r in read(cfg, out) {
        let speedup = r.nvp_speedup().map_or_else(|| "-".to_owned(), fmt_ratio);
        t.push_row(vec![
            r.kernel.clone(),
            fmt(r.unconstrained_s, 4),
            opt(r.nvp_s_per_frame, 3),
            opt(r.wait_s_per_frame, 3),
            speedup,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvp_frames_complete_and_beat_wait() {
        let cfg = ExpConfig::quick();
        let rows = rows(&cfg);
        for r in &rows {
            assert!(r.unconstrained_s > 0.0);
            let nvp = r.nvp_s_per_frame.unwrap_or(f64::INFINITY);
            let wait = r.wait_s_per_frame.unwrap_or(f64::INFINITY);
            assert!(nvp <= wait * 1.05, "{}: nvp {nvp} vs wait {wait}", r.kernel);
        }
        // At least the light kernels complete frames on the NVP.
        assert!(rows.iter().filter(|r| r.nvp_s_per_frame.is_some()).count() >= 3);
    }

    #[test]
    fn heavier_kernels_take_longer_unconstrained() {
        let rows = rows(&ExpConfig::quick());
        let time = |name: &str| rows.iter().find(|r| r.kernel == name).unwrap().unconstrained_s;
        assert!(time("dct8") > time("sobel"));
        assert!(time("median") > time("smooth"));
    }
}
