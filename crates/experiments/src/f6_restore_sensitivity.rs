//! **F6 — wake-up (restore) latency sensitivity.**
//!
//! Why the silicon race for faster wake-up matters (400 ns JSSC'14 →
//! 3 µs ESSCIRC'12 → 46 µs TCAS-I'17): at a thousand power cycles per
//! 10 s, every microsecond of restore latency is paid over and over.

use nvp_core::BackupPolicy;
use nvp_energy::units::{Joules, Seconds};
use nvp_workloads::KernelKind;
use serde::{Deserialize, Serialize};

use crate::common::{kernel, standard_backup, system_config_for, watch_trace, Setup};
use crate::plan::{self, Outcomes, Plan};
use crate::report::{fmt, fmt_ratio};
use crate::{ExpConfig, Table};

/// Swept restore (wake-up) times, seconds — anchored to published chips
/// plus a pessimistic 200 µs point.
pub const RESTORE_TIMES_S: [f64; 5] = [0.4e-6, 3e-6, 14e-6, 46e-6, 200e-6];

/// Power drawn while waking up (clocks, sense amps, the core ramping),
/// watts. This is what makes wake-up latency expensive in the
/// energy-bound regime: during restore the chip burns energy without
/// committing instructions.
pub const WAKEUP_POWER_W: f64 = 0.5e-3;

/// One sweep point (averaged over profiles).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Restore time, µs.
    pub restore_us: f64,
    /// Mean forward progress across profiles.
    pub mean_fp: f64,
    /// Forward progress relative to the fastest restore point.
    pub relative: f64,
}

/// The NVP at one swept wake-up latency, with its wake-up energy
/// surcharge folded into the backup model.
fn setup(cfg: &ExpConfig, restore: f64) -> (String, Setup) {
    let sys = system_config_for(&kernel(cfg, KernelKind::Sobel));
    let mut backup = standard_backup().with_restore_time(Seconds::new(restore));
    backup.restore_energy += Joules::new(restore * WAKEUP_POWER_W);
    let label = format!("nvp restore {:.1} us", restore * 1e6);
    (label, Setup::Nvp { sys, backup, policy: BackupPolicy::demand() })
}

/// F6's work: the NVP at every swept wake-up latency over every
/// profile.
pub(crate) fn plan(cfg: &ExpConfig) -> Plan {
    let inst = kernel(cfg, KernelKind::Sobel);
    let mut plan = Plan::default();
    for restore in RESTORE_TIMES_S {
        let (label, nvp) = setup(cfg, restore);
        for &seed in &cfg.profile_seeds {
            plan.sim(&label, nvp, &inst, &watch_trace(cfg, seed));
        }
    }
    plan
}

/// The rows, from [`plan`]'s outcomes.
fn read(cfg: &ExpConfig, out: &mut Outcomes) -> Vec<Row> {
    let means: Vec<f64> = RESTORE_TIMES_S
        .iter()
        .map(|_| {
            let total: u64 =
                cfg.profile_seeds.iter().map(|_| out.report().forward_progress()).sum();
            total as f64 / cfg.profile_seeds.len() as f64
        })
        .collect();
    let best = means.first().copied().unwrap_or(1.0).max(1.0);
    RESTORE_TIMES_S
        .iter()
        .zip(means)
        .map(|(&t, mean_fp)| Row { restore_us: t * 1e6, mean_fp, relative: mean_fp / best })
        .collect()
}

/// Sweeps restore latency over the configured profiles.
#[must_use]
pub fn rows(cfg: &ExpConfig) -> Vec<Row> {
    plan::build(cfg, plan(cfg), read)
}

/// The table, from [`plan`]'s outcomes.
pub(crate) fn render(cfg: &ExpConfig, out: &mut Outcomes) -> Table {
    let mut t = Table::new(
        "F6",
        "Forward progress vs restore (wake-up) latency",
        &["restore_us", "mean_fp", "relative_to_fastest"],
    );
    for r in read(cfg, out) {
        t.push_row(vec![fmt(r.restore_us, 1), fmt(r.mean_fp, 0), fmt_ratio(r.relative)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slower_wakeup_never_helps() {
        let rows = rows(&ExpConfig::quick());
        assert_eq!(rows.len(), RESTORE_TIMES_S.len());
        for pair in rows.windows(2) {
            // Allow ~1% trace-alignment noise between adjacent points;
            // the overall trend must still be downward.
            assert!(
                pair[1].mean_fp <= pair[0].mean_fp * 1.01,
                "fp must be (weakly) non-increasing in restore time: {pair:?}"
            );
        }
        assert!(rows[0].mean_fp > 0.0);
        let last = rows.last().unwrap();
        assert!(last.mean_fp <= rows[0].mean_fp, "200 µs wake-up cannot beat 400 ns overall");
    }
}
