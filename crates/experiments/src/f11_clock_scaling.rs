//! **F11 — income-adaptive clock scaling (extension experiment).**
//!
//! The second pillar of the NVP literature after cheap backup: *adapting
//! the compute architecture to exploit dynamic variations in incoming
//! power which would otherwise be wasted* (HPCA'15 / Spendthrift
//! direction). The regime matters on source classes whose income exceeds
//! the base core's draw — an indoor-solar cell delivers ~300 µW against
//! a 210 µW core at 1 MHz, so a fixed-base NVP leaves a third of the
//! income unused (storage fills, surplus spills), while a fixed-fast
//! core churns backups on weak wearable power. The adaptive policy picks
//! the clock per tick from the instantaneous income and buffer fill.
//!
//! Measured finding worth noting: on the wearable traces themselves,
//! pulse power is comparable to the base core draw, so a fixed 1 MHz
//! core already captures nearly everything — adaptation's win comes
//! from covering *both* deployments with one part.

use nvp_core::{BackupPolicy, ClockPolicy, SystemConfig};
use nvp_energy::harvester::SourceKind;
use nvp_workloads::KernelKind;
use serde::{Deserialize, Serialize};

use crate::common::{kernel, source_trace, standard_backup, system_config_for, watch_trace, Setup};
use crate::plan::{self, Outcomes, Plan};
use crate::report::{fmt, fmt_ratio};
use crate::{ExpConfig, Table};

/// One clock-policy measurement across the two source classes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Policy description.
    pub policy: String,
    /// Mean forward progress on the wearable profiles.
    pub fp_wrist: f64,
    /// Forward progress on the indoor-solar trace.
    pub fp_solar: f64,
    /// Fraction of converted solar energy lost to storage spill/leak.
    pub solar_waste_fraction: f64,
    /// Combined (wrist + solar) gain over the fixed base clock.
    pub combined_gain: f64,
}

/// One policy's row from its outcomes: the wearable profiles in seed
/// order, then the solar trace.
fn measure(cfg: &ExpConfig, out: &mut Outcomes, label: String) -> Row {
    let n = cfg.profile_seeds.len() as f64;
    let fp_wrist: f64 =
        cfg.profile_seeds.iter().map(|_| out.report().forward_progress() as f64).sum();
    let rs = out.report();
    Row {
        policy: label,
        fp_wrist: fp_wrist / n,
        fp_solar: rs.forward_progress() as f64,
        solar_waste_fraction: rs.energy.storage_wasted.get() / rs.energy.converted.get().max(1e-18),
        combined_gain: 1.0,
    }
}

/// The standard NVP at every fixed clock multiplier, then under the
/// income-adaptive policy.
fn setups(cfg: &ExpConfig) -> Vec<(String, Setup)> {
    let base = system_config_for(&kernel(cfg, KernelKind::Sobel));
    let nvp = |sys| Setup::Nvp { sys, backup: standard_backup(), policy: BackupPolicy::demand() };
    [1u32, 2, 4, 8]
        .into_iter()
        .map(|mult| {
            (
                format!("fixed {mult} MHz"),
                nvp(SystemConfig { clock_hz: 1e6 * f64::from(mult), ..base }),
            )
        })
        .chain(std::iter::once((
            "adaptive 1-8 MHz".to_owned(),
            nvp(base.with_clock_policy(ClockPolicy::adaptive())),
        )))
        .collect()
}

/// F11's work: every clock policy over each wearable profile, then
/// over the indoor-solar trace.
pub(crate) fn plan(cfg: &ExpConfig) -> Plan {
    let inst = kernel(cfg, KernelKind::Sobel);
    let solar = source_trace(cfg, SourceKind::SolarIndoor, cfg.profile_seeds[0]);
    let mut plan = Plan::default();
    for (label, setup) in setups(cfg) {
        for &seed in &cfg.profile_seeds {
            plan.sim(&label, setup, &inst, &watch_trace(cfg, seed));
        }
        plan.sim(&label, setup, &inst, &solar);
    }
    plan
}

/// The rows, from [`plan`]'s outcomes.
fn read(cfg: &ExpConfig, out: &mut Outcomes) -> Vec<Row> {
    let mut rows: Vec<Row> =
        setups(cfg).into_iter().map(|(label, _)| measure(cfg, out, label)).collect();
    let base_combined = (rows[0].fp_wrist + rows[0].fp_solar).max(1.0);
    for r in &mut rows {
        r.combined_gain = (r.fp_wrist + r.fp_solar) / base_combined;
    }
    rows
}

/// Fixed 1/2/4/8 MHz cores versus the income-adaptive policy, on both
/// the wearable and solar sources.
#[must_use]
pub fn rows(cfg: &ExpConfig) -> Vec<Row> {
    plan::build(cfg, plan(cfg), read)
}

/// The table, from [`plan`]'s outcomes.
pub(crate) fn render(cfg: &ExpConfig, out: &mut Outcomes) -> Table {
    let mut t = Table::new(
        "F11",
        "Clock scaling: fixed frequencies vs income-adaptive (sobel; wearable + solar)",
        &["policy", "fp_wrist", "fp_solar", "solar_waste_fraction", "combined_gain"],
    );
    for r in read(cfg, out) {
        t.push_row(vec![
            r.policy,
            fmt(r.fp_wrist, 0),
            fmt(r.fp_solar, 0),
            fmt(r.solar_waste_fraction, 3),
            fmt_ratio(r.combined_gain),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get<'a>(rows: &'a [Row], name: &str) -> &'a Row {
        rows.iter().find(|r| r.policy.starts_with(name)).unwrap()
    }

    #[test]
    fn base_clock_spills_solar_surplus() {
        let rows = rows(&ExpConfig::quick());
        assert_eq!(rows.len(), 5);
        let base = get(&rows, "fixed 1 MHz");
        let two = get(&rows, "fixed 2 MHz");
        // The under-clocked core wastes a visible chunk of solar income…
        assert!(
            base.solar_waste_fraction > 0.08,
            "base clock should spill solar surplus: {}",
            base.solar_waste_fraction
        );
        // …which a rightly-sized fixed clock recovers.
        assert!(two.fp_solar > base.fp_solar, "{} vs {}", two.fp_solar, base.fp_solar);
        assert!(two.solar_waste_fraction < base.solar_waste_fraction / 2.0);
    }

    #[test]
    fn overclocking_churns_backups_on_weak_power() {
        // Energy per instruction is clock-independent here, so the only
        // way a faster fixed clock loses is overhead: shorter on-periods
        // mean more backup/restore cycles per committed instruction.
        let rows = rows(&ExpConfig::quick());
        let base = get(&rows, "fixed 1 MHz");
        let fast = get(&rows, "fixed 8 MHz");
        assert!(
            fast.fp_wrist < base.fp_wrist,
            "8 MHz should pay backup churn on wearable power: {} vs {}",
            fast.fp_wrist,
            base.fp_wrist
        );
    }

    #[test]
    fn adaptive_covers_both_deployments() {
        let rows = rows(&ExpConfig::quick());
        let base = get(&rows, "fixed 1 MHz");
        let adaptive = get(&rows, "adaptive");
        // Matches (or beats) the base clock on weak wearable power…
        assert!(
            adaptive.fp_wrist >= base.fp_wrist * 0.97,
            "adaptive wrist {} vs base {}",
            adaptive.fp_wrist,
            base.fp_wrist
        );
        // …and captures the solar surplus better than any fixed clock.
        assert!(
            adaptive.fp_solar > base.fp_solar * 1.15,
            "adaptive solar {} vs base {}",
            adaptive.fp_solar,
            base.fp_solar
        );
        for r in &rows {
            assert!(
                adaptive.combined_gain >= r.combined_gain * 0.999,
                "adaptive ({}) must dominate {} ({})",
                adaptive.combined_gain,
                r.policy,
                r.combined_gain
            );
        }
    }
}
