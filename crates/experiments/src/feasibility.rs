//! **Config feasibility validation** — the static checker behind
//! `repro --check`.
//!
//! Every registered experiment plans the labelled simulations its table
//! needs ([`Experiment::plan`]); each planned [`Setup`] is the very
//! value the campaign runs, not a restatement of it. This module
//! checks each planned setup against physical-feasibility rules
//! *before* any simulation runs, so an infeasible reconstruction is a
//! diagnostic instead of a silent zero-progress run. The front end and
//! thresholds it inspects come from the same `nvp-core` derivations
//! ([`nvp_core::SystemConfig::front_end`], [`nvp_core::SystemConfig::thresholds`],
//! [`nvp_core::WaitComputeConfig::front_end`]) the platforms are built with:
//!
//! | rule | meaning |
//! |------|---------|
//! | [`RULE_BACKUP_CAPACITY`] | backup energy must fit in the storage capacitor |
//! | [`RULE_THRESHOLD_ORDER`] | the restore/start threshold must exceed the brown-out reserve |
//! | [`RULE_TRICKLE_CLIP`]    | trickle floor ≤ charger clip, efficiency in (0, 1] |
//! | [`RULE_STORAGE`]         | capacitance, rated voltage, and leak τ must be positive and finite |
//!
//! A *start threshold above the storage capacity* is deliberately **not**
//! an error: capacitor sweeps (F5) include unviable points on purpose —
//! the platform reports zero forward progress, which is the measurement.
//! What is never acceptable is a platform that could start but then
//! loses state because a single backup cannot fit in the store.

use std::collections::BTreeSet;
use std::fmt;

use nvp_energy::Joules;

pub use crate::common::Setup;
use crate::plan::Plan;
use crate::registry::{registry, Experiment};
use crate::ExpConfig;

/// Rule id: the backup (state-save) energy exceeds the maximum energy
/// the storage capacitor can hold, so state is lost on every brown-out.
pub const RULE_BACKUP_CAPACITY: &str = "backup-exceeds-capacity";
/// Rule id: the restore/start threshold does not exceed the brown-out
/// (backup-reserve) threshold, so the platform would oscillate or never
/// leave the off state.
pub const RULE_THRESHOLD_ORDER: &str = "threshold-order";
/// Rule id: the minimum-charging (trickle) floor lies above the charger
/// clip, or the trickle efficiency is outside `(0, 1]`.
pub const RULE_TRICKLE_CLIP: &str = "trickle-above-clip";
/// Rule id: nonphysical storage — capacitance, rated voltage, or leak
/// time constant is zero, negative, or non-finite.
pub const RULE_STORAGE: &str = "nonpositive-storage";

/// One feasibility violation, attributed to an experiment and setup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Registry id of the offending experiment (e.g. `"f5"`).
    pub experiment: String,
    /// Label of the offending setup.
    pub plan: String,
    /// Violated rule id (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Human-readable explanation with the offending values.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: `{}`: {}: {}", self.experiment, self.plan, self.rule, self.message)
    }
}

/// Checks one setup; returns `(rule, message)` pairs for every
/// violation.
#[must_use]
pub fn check_setup(setup: &Setup) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    let fe = match setup {
        Setup::Nvp { sys, .. } => sys.front_end(),
        Setup::Wait(w) => w.front_end(),
    };

    let c = fe.capacitance.get();
    let v = fe.cap_voltage.get();
    let tau = fe.cap_leak_tau.get();
    if !(c > 0.0 && c.is_finite()) {
        out.push((RULE_STORAGE, format!("storage capacitance {c} F is not positive and finite")));
    }
    if !(v > 0.0 && v.is_finite()) {
        out.push((RULE_STORAGE, format!("storage rated voltage {v} V is not positive and finite")));
    }
    if !(tau > 0.0 && tau.is_finite()) {
        out.push((RULE_STORAGE, format!("storage leak time constant {tau} s is not positive")));
    }

    if fe.min_charge_power.get() > fe.max_charge_power.get() {
        out.push((
            RULE_TRICKLE_CLIP,
            format!(
                "trickle floor {} exceeds charger clip {}",
                fe.min_charge_power, fe.max_charge_power
            ),
        ));
    }
    let eff = fe.trickle_efficiency;
    if !(eff > 0.0 && eff <= 1.0) {
        out.push((RULE_TRICKLE_CLIP, format!("trickle efficiency {eff} is outside (0, 1]")));
    }

    match setup {
        Setup::Nvp { sys, backup, policy } => {
            let capacity = fe.max_storage_energy();
            if backup.backup_energy > capacity {
                out.push((
                    RULE_BACKUP_CAPACITY,
                    format!(
                        "backup needs {} but the storage holds at most {}",
                        backup.backup_energy, capacity
                    ),
                ));
            }
            let th = sys.thresholds(backup, policy);
            if th.start <= th.backup_reserve {
                out.push((
                    RULE_THRESHOLD_ORDER,
                    format!(
                        "start threshold {} does not exceed the brown-out reserve {}",
                        th.start, th.backup_reserve
                    ),
                ));
            }
        }
        Setup::Wait(w) => {
            let start = Joules::new(w.start_energy_j);
            if start <= Joules::ZERO {
                out.push((
                    RULE_THRESHOLD_ORDER,
                    format!("start threshold {start} does not exceed the zero brown-out floor"),
                ));
            }
        }
    }
    out
}

/// Checks every setup `exp` plans.
fn check_plan(exp: &Experiment, plan: &Plan) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (label, setup) in plan.setups() {
        for (rule, message) in check_setup(setup) {
            out.push(Diagnostic {
                experiment: exp.id().to_owned(),
                plan: label.to_owned(),
                rule,
                message,
            });
        }
    }
    out
}

/// Plans the full experiment registry and checks it; an empty result
/// means every planned configuration is feasible.
#[must_use]
pub fn check_registry(cfg: &ExpConfig) -> Vec<Diagnostic> {
    registry().iter().flat_map(|e| check_plan(e, &e.plan(cfg))).collect()
}

/// Distinct sim-cache keys among every simulation the registry plans:
/// what a cold campaign simulates.
#[must_use]
pub fn unique_simulations(cfg: &ExpConfig) -> usize {
    let plans: Vec<_> = registry().iter().map(|e| e.plan(cfg)).collect();
    plans.iter().flat_map(|p| p.sims().map(|(_, sim)| sim.key())).collect::<BTreeSet<_>>().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_core::{BackupModel, BackupPolicy, SystemConfig, WaitComputeConfig};
    use nvp_device::NvmTechnology;

    fn nvp(sys: SystemConfig) -> Setup {
        let backup = BackupModel::distributed(NvmTechnology::Feram, 2048);
        Setup::Nvp { sys, backup, policy: BackupPolicy::demand() }
    }

    fn unwrap_violation(setup: &Setup, rule: &str) -> String {
        let violations = check_setup(setup);
        let hit = violations.iter().find(|(r, _)| *r == rule);
        let (_, message) = hit.unwrap_or_else(|| {
            panic!("expected a `{rule}` violation, got {violations:?}");
        });
        message.clone()
    }

    /// Rule 1: a backup that cannot fit in the store is diagnosed.
    #[test]
    fn oversized_backup_is_diagnosed() {
        // 1 nF at 1 V stores 0.5 nJ; a distributed FeRAM backup of 2 kbit
        // state needs ~150 nJ of overhead alone.
        let sys =
            SystemConfig { capacitance_f: 1e-9, cap_voltage_v: 1.0, ..SystemConfig::default() };
        let msg = unwrap_violation(&nvp(sys), RULE_BACKUP_CAPACITY);
        assert!(msg.contains("backup needs"), "{msg}");
        assert!(msg.contains("holds at most"), "{msg}");
    }

    /// Rule 2: start threshold must strictly exceed the brown-out reserve.
    #[test]
    fn inverted_thresholds_are_diagnosed() {
        // With free restores and no work headroom the platform would
        // start exactly at its brown-out reserve.
        let mut backup = BackupModel::distributed(NvmTechnology::Feram, 2048);
        backup.restore_energy = Joules::ZERO;
        let sys = SystemConfig { work_headroom_j: 0.0, ..SystemConfig::default() };
        let setup = Setup::Nvp { sys, backup, policy: BackupPolicy::demand() };
        let msg = unwrap_violation(&setup, RULE_THRESHOLD_ORDER);
        assert!(msg.contains("does not exceed the brown-out reserve"), "{msg}");
        // A wait-compute platform with a zero start threshold is the
        // same class of error.
        let w = WaitComputeConfig { start_energy_j: 0.0, ..WaitComputeConfig::default() };
        let msg = unwrap_violation(&Setup::Wait(w), RULE_THRESHOLD_ORDER);
        assert!(msg.contains("zero brown-out floor"), "{msg}");
    }

    /// Rule 3: the trickle floor must not exceed the charger clip.
    #[test]
    fn trickle_above_clip_is_diagnosed() {
        let w = WaitComputeConfig {
            min_charge_power_w: 1e-3,
            max_charge_power_w: 1e-4,
            ..WaitComputeConfig::default()
        };
        let msg = unwrap_violation(&Setup::Wait(w), RULE_TRICKLE_CLIP);
        assert!(msg.contains("exceeds charger clip"), "{msg}");

        let w = WaitComputeConfig { trickle_efficiency: 0.0, ..WaitComputeConfig::default() };
        let msg = unwrap_violation(&Setup::Wait(w), RULE_TRICKLE_CLIP);
        assert!(msg.contains("outside (0, 1]"), "{msg}");
    }

    /// Rule 4: nonphysical storage parameters are diagnosed.
    #[test]
    fn nonpositive_storage_is_diagnosed() {
        let sys = SystemConfig { capacitance_f: 0.0, ..SystemConfig::default() };
        let msg = unwrap_violation(&nvp(sys), RULE_STORAGE);
        assert!(msg.contains("capacitance"), "{msg}");

        let sys = SystemConfig { cap_leak_tau_s: -1.0, ..SystemConfig::default() };
        let msg = unwrap_violation(&nvp(sys), RULE_STORAGE);
        assert!(msg.contains("leak time constant"), "{msg}");
    }

    /// The default platform configurations are feasible.
    #[test]
    fn default_platforms_are_feasible() {
        assert!(check_setup(&nvp(SystemConfig::default())).is_empty());
        assert!(check_setup(&Setup::Wait(WaitComputeConfig::default())).is_empty());
    }

    /// Every registered experiment plans only feasible setups, in both
    /// the quick and the default configuration, and exactly the
    /// experiments that simulate no platform plan no simulation.
    #[test]
    fn all_registry_entries_pass() {
        const NO_PLATFORM: [&str; 5] = ["t1", "f1", "f2", "f2h", "t2"];
        for cfg in [ExpConfig::quick(), ExpConfig::default()] {
            for exp in registry() {
                assert_eq!(
                    exp.plan(&cfg).simulations() == 0,
                    NO_PLATFORM.contains(&exp.id()),
                    "{}: unexpected simulation plan",
                    exp.id()
                );
            }
            let diags = check_registry(&cfg);
            assert!(
                diags.is_empty(),
                "infeasible setups: {}",
                diags.iter().map(ToString::to_string).collect::<Vec<_>>().join("; ")
            );
        }
        let cfg = ExpConfig::default();
        let planned: usize = registry().iter().map(|e| e.plan(&cfg).simulations()).sum();
        assert_eq!((planned, unique_simulations(&cfg)), (218, 197), "default campaign");
    }

    /// Diagnostics render with experiment, plan, rule, and message.
    #[test]
    fn diagnostic_display_is_complete() {
        let d = Diagnostic {
            experiment: "f5".into(),
            plan: "tiny cap".into(),
            rule: RULE_BACKUP_CAPACITY,
            message: "backup needs 1 J but the storage holds at most 0.5 J".into(),
        };
        let text = d.to_string();
        for needle in ["f5", "tiny cap", RULE_BACKUP_CAPACITY, "holds at most"] {
            assert!(text.contains(needle), "{text}");
        }
    }
}
