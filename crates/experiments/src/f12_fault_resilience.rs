//! **F12 — fault-injection resilience campaign (extension experiment).**
//!
//! Monte-Carlo stress test of the recovery path itself: seeded
//! [`FaultPlan`]s tear backups mid-write, flip stored checkpoint bits
//! during off-time, and fail restores outright, across all three backup
//! styles (distributed NVFFs, centralized copy, software
//! checkpointing). Reported per (style × fault-rate) cell: forward
//! progress relative to the fault-free baseline, committed work lost to
//! corruption, fault/recovery event totals, and the distribution of
//! recovery latencies (corrupt restore → next durable point).
//!
//! *Anchor: reconstructed — the survey has no published fault-injection
//! figure; rates and retention profile are framework choices.*
//!
//! Each trial is a pure function of `(program, config, backup model,
//! policy, plan, trace)`, and the table needs only its `RunReport` and
//! recovery latencies, so F12 plans its trials like every other
//! experiment plans its runs ([`crate::Plan`]): keyed under their own
//! run-kind tag with the `FaultPlan` in the key, valued as the report
//! plus the latencies. Per-trial fault seeds make faulted trials unique
//! within a campaign, so the cache pays on reruns: a warm rerun (or an
//! `nvpd` job repeating a fault seed) simulates nothing, and the
//! fault-free controls, whose plan carries no seed, dedupe across every
//! campaign on the same kernel and trace. Outcomes are read in plan
//! order, and a cached outcome is bit-identical to a computed one, so
//! the table is bit-identical across reruns, cache states and thread
//! counts (pinned by `tests/fault_resilience.rs`).

use nvp_core::{BackupStyle, FaultPlan, RunReport};
use nvp_device::{NvmTechnology, RelaxPolicy, RetentionShaper};
use nvp_workloads::{KernelInstance, KernelKind};
use serde::{Deserialize, Serialize};

use crate::common::{kernel, style_setup, watch_trace, Setup};
use crate::plan::{self, Outcomes, Plan};
use crate::report::{fmt, fmt_ratio};
use crate::simcache::SimOutcome;
use crate::{ExpConfig, Table};

/// Injected fault rates (tear probability per backup; restore failures
/// run at half this rate). `0.0` is the fault-free control row — its
/// forward-progress ratio is exactly 1 by construction.
pub const FAULT_RATES: [f64; 3] = [0.0, 0.05, 0.2];

/// Retention profile for faulted cells: linearly shaped 2 s – 10⁴ s
/// per-bit retention, so checkpoint LSBs decay occasionally over
/// wearable-scale outages (a tail risk, not a certainty) while MSBs
/// survive.
const RETENTION_MIN_S: f64 = 2.0;
/// See [`RETENTION_MIN_S`].
const RETENTION_MAX_S: f64 = 1e4;
/// Checkpoint words are 16-bit.
const FIELD_BITS: usize = 16;

/// One (backup style × fault rate) measurement, aggregated over the
/// configured Monte-Carlo trials.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Backup style label.
    pub style: String,
    /// Backup tear probability (restore failures at half this rate).
    pub fault_rate: f64,
    /// Trials aggregated into this row.
    pub trials: usize,
    /// Mean committed instructions per trial.
    pub mean_committed: f64,
    /// Mean committed instructions surviving corruption per trial.
    pub mean_surviving: f64,
    /// `mean_surviving` relative to the fault-free baseline's committed
    /// count for the same style (1.0 at rate zero by construction).
    pub fp_ratio: f64,
    /// Mean committed instructions lost to corruption per trial.
    pub mean_lost: f64,
    /// Torn backups, summed over trials.
    pub torn: u64,
    /// Backup retries, summed over trials.
    pub retries: u64,
    /// Corrupt/failed restores, summed over trials.
    pub corrupt: u64,
    /// Safe-mode (graceful-degradation) entries, summed over trials.
    pub safe_modes: u64,
    /// Mean latency from a corrupt restore to the next durable point
    /// (backup or task commit), milliseconds; 0 when no recovery
    /// happened.
    pub recovery_ms_mean: f64,
    /// Worst observed recovery latency, milliseconds.
    pub recovery_ms_max: f64,
}

/// The three backup styles of T3, as named fault-campaign platforms.
const STYLES: [(&str, BackupStyle); 3] = [
    ("nvp-distributed", BackupStyle::Distributed),
    ("nvp-centralized", BackupStyle::Centralized),
    ("sw-checkpoint", BackupStyle::Software),
];

/// The platform of each of [`STYLES`] on FeRAM.
fn styles(inst: &KernelInstance) -> [Setup; 3] {
    STYLES.map(|(_, style)| style_setup(inst, style, NvmTechnology::Feram))
}

/// Trials of one (style, rate) cell. The fault-free control runs one
/// trial: the disabled plan is deterministic, so further trials would
/// be identical.
fn trials(cfg: &ExpConfig, rate: f64) -> usize {
    if rate > 0.0 {
        cfg.fault_trials
    } else {
        1
    }
}

/// The fault plan for one (rate, trial) cell. Rate zero is the genuine
/// disabled plan — no RNG draws, bit-identical to the legacy platform.
fn faults_for(cfg: &ExpConfig, rate: f64, style_idx: usize, trial: usize) -> FaultPlan {
    if rate <= 0.0 {
        return FaultPlan::none();
    }
    // SplitMix-style seed mixing: well-separated per-cell streams from
    // one user-facing base seed.
    let cell = (style_idx as u64) << 32 | (trial as u64) << 8 | ((rate * 1000.0) as u64 % 251);
    let seed = cfg
        .fault_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(cell)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let retention =
        RetentionShaper::new(RelaxPolicy::Linear, FIELD_BITS, RETENTION_MIN_S, RETENTION_MAX_S)
            .bit_retention();
    FaultPlan::with_rates(seed, rate, rate * 0.5).with_retention(retention)
}

/// F12's work: every style × fault rate × trial, style-major, on the
/// first profile. Every trial runs the sobel kernel.
pub(crate) fn plan(cfg: &ExpConfig) -> Plan {
    let inst = kernel(cfg, KernelKind::Sobel);
    let trace = watch_trace(cfg, cfg.profile_seeds[0]);
    let mut plan = Plan::default();
    for (si, setup) in styles(&inst).into_iter().enumerate() {
        let label = format!("{} under fault injection", STYLES[si].0);
        for rate in FAULT_RATES {
            for trial in 0..trials(cfg, rate) {
                plan.trial(&label, setup, &inst, &trace, faults_for(cfg, rate, si, trial));
            }
        }
    }
    plan
}

/// The rows, one per style × fault rate, from [`plan`]'s outcomes.
fn read(cfg: &ExpConfig, out: &mut Outcomes) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, _) in STYLES {
        let cells: Vec<Vec<SimOutcome>> = FAULT_RATES
            .iter()
            .map(|&rate| (0..trials(cfg, rate)).map(|_| out.outcome()).collect())
            .collect();
        // The rate-0 control is the baseline the faulted cells are
        // normalized against.
        let baseline: f64 = FAULT_RATES
            .iter()
            .zip(&cells)
            .find(|(&rate, _)| rate <= 0.0)
            .map_or(0.0, |(_, cell)| cell[0].report.committed as f64);
        for (&rate, cell) in FAULT_RATES.iter().zip(&cells) {
            let n = cell.len();
            let mean = |f: &dyn Fn(&RunReport) -> u64| {
                cell.iter().map(|o| f(&o.report) as f64).sum::<f64>() / n as f64
            };
            let mean_committed = mean(&|r| r.committed);
            let mean_surviving = mean(&|r| r.committed_surviving());
            let latencies: Vec<f64> =
                cell.iter().flat_map(|o| o.latencies_ms.iter().copied()).collect();
            rows.push(Row {
                style: name.to_owned(),
                fault_rate: rate,
                trials: n,
                mean_committed,
                mean_surviving,
                fp_ratio: if baseline > 0.0 { mean_surviving / baseline } else { 0.0 },
                mean_lost: mean(&|r| r.committed_lost),
                torn: cell.iter().map(|o| o.report.backups_torn).sum(),
                retries: cell.iter().map(|o| o.report.backup_retries).sum(),
                corrupt: cell.iter().map(|o| o.report.restores_corrupt).sum(),
                safe_modes: cell.iter().map(|o| o.report.safe_mode_entries).sum(),
                recovery_ms_mean: if latencies.is_empty() {
                    0.0
                } else {
                    latencies.iter().sum::<f64>() / latencies.len() as f64
                },
                recovery_ms_max: latencies.iter().fold(0.0, |a, &b| a.max(b)),
            });
        }
    }
    rows
}

/// Runs the full campaign: every style × fault rate × trial.
#[must_use]
pub fn rows(cfg: &ExpConfig) -> Vec<Row> {
    plan::build(cfg, plan(cfg), read)
}

/// The table, from [`plan`]'s outcomes.
pub(crate) fn render(cfg: &ExpConfig, out: &mut Outcomes) -> Table {
    let mut t = Table::new(
        "F12",
        "Fault-injection resilience: forward progress, work lost, recovery latency",
        &[
            "style",
            "fault_rate",
            "trials",
            "mean_committed",
            "mean_surviving",
            "fp_ratio",
            "mean_lost",
            "torn",
            "retries",
            "corrupt",
            "safe_modes",
            "recovery_ms_mean",
            "recovery_ms_max",
        ],
    );
    for r in read(cfg, out) {
        t.push_row(vec![
            r.style,
            fmt(r.fault_rate, 2),
            r.trials.to_string(),
            fmt(r.mean_committed, 0),
            fmt(r.mean_surviving, 0),
            fmt_ratio(r.fp_ratio),
            fmt(r.mean_lost, 0),
            r.torn.to_string(),
            r.retries.to_string(),
            r.corrupt.to_string(),
            r.safe_modes.to_string(),
            fmt(r.recovery_ms_mean, 2),
            fmt(r.recovery_ms_max, 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simcache::hex;

    /// A trial's cache key, pinned like `Setup`'s: a change to the key
    /// derivation must bump the shard schema.
    #[test]
    fn trial_key_is_pinned() {
        let cfg = ExpConfig::quick();
        let inst = kernel(&cfg, KernelKind::Sobel);
        let trace = watch_trace(&cfg, cfg.profile_seeds[0]);
        let mut plan = Plan::default();
        plan.trial("", styles(&inst)[1], &inst, &trace, faults_for(&cfg, 0.05, 1, 2));
        let (_, sim) = plan.sims().next().expect("one planned trial");
        let key = hex(sim.key());
        assert_eq!(key, "b4758fb2c542291bc5bd5ff524cbd1df0ef5b73e4b08286f8cbea1a7d61cda04");
    }

    #[test]
    fn control_rows_are_exactly_fault_free() {
        let rows = rows(&ExpConfig::quick());
        assert_eq!(rows.len(), 3 * FAULT_RATES.len());
        for r in rows.iter().filter(|r| r.fault_rate <= 0.0) {
            assert_eq!(r.trials, 1, "disabled plan is deterministic: one trial suffices");
            assert_eq!(r.fp_ratio, 1.0, "{}: control must normalize to exactly 1", r.style);
            assert_eq!(r.torn + r.retries + r.corrupt + r.safe_modes, 0, "{}", r.style);
            assert_eq!(r.mean_lost, 0.0, "{}", r.style);
            assert_eq!(r.mean_committed, r.mean_surviving, "{}", r.style);
        }
    }

    #[test]
    fn faults_fire_and_survival_never_exceeds_commitment() {
        let rows = rows(&ExpConfig::quick());
        let faulted: Vec<&Row> = rows.iter().filter(|r| r.fault_rate > 0.0).collect();
        assert!(!faulted.is_empty());
        let total_events: u64 = faulted.iter().map(|r| r.torn + r.corrupt).sum();
        assert!(total_events > 0, "no injected fault fired across the whole campaign");
        for r in &faulted {
            assert_eq!(r.trials, ExpConfig::quick().fault_trials);
            assert!(r.mean_surviving <= r.mean_committed + 1e-9, "{}: {r:?}", r.style);
            assert!(r.fp_ratio.is_finite());
        }
        // Recovery latencies only exist where corrupt restores happened.
        for r in rows.iter().filter(|r| r.corrupt == 0) {
            assert_eq!(r.recovery_ms_mean, 0.0, "{}", r.style);
        }
        for r in rows.iter() {
            assert!(r.recovery_ms_max >= r.recovery_ms_mean - 1e-12, "{r:?}");
        }
    }

    #[test]
    fn campaign_is_deterministic_per_seed() {
        let cfg = ExpConfig::quick();
        assert_eq!(rows(&cfg), rows(&cfg));
        // A different base seed reseeds every faulted trial.
        let mut other = cfg.clone();
        other.fault_seed = 99;
        let a = rows(&cfg);
        let b = rows(&other);
        assert_ne!(a, b, "base seed must reach the per-trial fault plans");
        // ... but leaves the fault-free controls untouched.
        for (ra, rb) in a.iter().zip(&b).filter(|(r, _)| r.fault_rate <= 0.0) {
            assert_eq!(ra, rb);
        }
    }
}
