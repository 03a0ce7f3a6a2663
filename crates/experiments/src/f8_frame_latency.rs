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

/// Measures frame latency for every kernel on the first profile.
#[must_use]
pub fn rows(cfg: &ExpConfig) -> Vec<Row> {
    let trace = watch_trace(cfg, cfg.profile_seeds[0]);
    KERNELS
        .iter()
        .map(|&kind| {
            let inst = kernel(cfg, kind);
            let cost = task_cost(cfg, kind);
            let [nvp, wait] = kernel_setups(cfg, kind).map(|(_, setup)| setup.run(&inst, &trace));
            Row {
                kernel: kind.name().to_owned(),
                unconstrained_s: cost.time_s(1e6),
                nvp_s_per_frame: seconds_per_frame(&nvp),
                wait_s_per_frame: seconds_per_frame(&wait),
            }
        })
        .collect()
}

fn opt(v: Option<f64>, decimals: usize) -> String {
    v.map_or_else(|| "none".to_owned(), |x| fmt(x, decimals))
}

/// Renders the comparison.
#[must_use]
pub fn table(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "F8",
        "Seconds per processed frame on harvested power (NVP vs wait-compute)",
        &["kernel", "unconstrained_s", "nvp_s_per_frame", "wait_s_per_frame", "nvp_speedup"],
    );
    for r in rows(cfg) {
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

/// Feasibility declaration: the NVP and wait-compute platforms F8 runs
/// for every kernel in the latency ladder.
pub(crate) fn setups(cfg: &ExpConfig) -> Vec<(String, Setup)> {
    KERNELS.into_iter().flat_map(|kind| kernel_setups(cfg, kind)).collect()
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
