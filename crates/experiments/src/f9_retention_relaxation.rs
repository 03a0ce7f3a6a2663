//! **F9 — shaped retention relaxation (extension experiment).**
//!
//! The "adaptive retention" direction the survey highlights (ISSCC'16
//! ReRAM NVP): most outages last milliseconds, so writing backup bits
//! with decade-class retention wastes write energy. Shaping retention per
//! bit significance (linear / log / parabola in Δ-space) trades backup
//! energy against a small, significance-weighted risk of bit decay.
//!
//! Modelling note: published chips report the *array* write energy, which
//! relaxation scales fully; our calibrated backup cost also carries
//! controller/analog overhead. We take 60 % of the backup energy as
//! retention-sensitive ([`RELAXABLE_FRACTION`]), so measured
//! forward-progress gains here are smaller than the ≈1.4× the
//! approximate-backup literature attributes to its full stack — see
//! `EXPERIMENTS.md`.

use std::sync::OnceLock;

use nvp_core::{BackupModel, BackupPolicy};
use nvp_device::sttram::SttModel;
use nvp_device::{NvmTechnology, RelaxPolicy, RetentionShaper};
use nvp_workloads::{metrics, KernelKind};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::common::{kernel, system_config_for, watch_trace, Setup, STATE_BITS};
use crate::plan::{self, Outcomes, Plan};
use crate::report::{fmt, fmt_ratio};
use crate::{ExpConfig, Table};

/// Fraction of backup energy that scales with retention (array + write
/// drivers); the remainder is fixed controller/analog overhead.
pub const RELAXABLE_FRACTION: f64 = 0.6;
/// LSB retention target, seconds (covers nearly all observed outages).
pub const MIN_RETENTION_S: f64 = 0.01;
/// MSB retention target, seconds (one day).
pub const MAX_RETENTION_S: f64 = 86_400.0;
/// Stored field width used for shaping (8-bit sensor data).
pub const FIELD_BITS: usize = 8;

/// One relaxation-policy measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Shaping policy.
    pub policy: String,
    /// Backup-array write-energy scale (1.0 = no relaxation).
    pub energy_scale: f64,
    /// Effective backup energy, nJ.
    pub backup_nj: f64,
    /// Mean forward progress across profiles.
    pub mean_fp: f64,
    /// Forward progress relative to the uniform (unrelaxed) policy.
    pub fp_gain: f64,
    /// Expected retention-failure (at-risk bit) count summed over the
    /// first profile's outages.
    pub at_risk_bits: u64,
    /// PSNR (dB) of a sobel output degraded by the mean outage.
    pub psnr_typical_db: f64,
    /// PSNR (dB) of a sobel output degraded by the longest outage.
    pub psnr_worst_db: f64,
}

/// The relaxed STT-MRAM backup model of `policy` and its array
/// write-energy scale. Each scale searches the write-pulse space bit by
/// bit, so the four are computed once per process.
fn relaxed_backup(policy: RelaxPolicy) -> (BackupModel, f64) {
    static RELAXED: OnceLock<[(BackupModel, f64); 4]> = OnceLock::new();
    let all = RELAXED.get_or_init(|| {
        RelaxPolicy::ALL.map(|policy| {
            let base = BackupModel::distributed(NvmTechnology::SttMram, STATE_BITS);
            let shaper = RetentionShaper::new(policy, FIELD_BITS, MIN_RETENTION_S, MAX_RETENTION_S);
            let scale = shaper.write_energy_scale(&SttModel::default());
            let mut model = base;
            model.backup_energy =
                base.backup_energy * (1.0 - RELAXABLE_FRACTION + RELAXABLE_FRACTION * scale);
            (model, scale)
        })
    });
    all[RelaxPolicy::ALL.iter().position(|&p| p == policy).expect("a listed policy")]
}

/// The NVP with the relaxed STT-MRAM backup of one retention policy.
fn setup(cfg: &ExpConfig, model: BackupModel) -> Setup {
    let sys = system_config_for(&kernel(cfg, KernelKind::Sobel));
    Setup::Nvp { sys, backup: model, policy: BackupPolicy::demand() }
}

/// A recorded generator stream, read from its start.
struct Replay<'a>(std::slice::Iter<'a, u32>);

impl RngCore for Replay<'_> {
    fn next_u32(&mut self) -> u32 {
        *self.0.next().expect("a field draws at most one f64 per bit")
    }
}

/// PSNR of the sobel output after an outage of `outage_s` under each
/// of [`RelaxPolicy::ALL`], decayed with `StdRng::seed_from_u64(seed)`.
/// Decaying a field draws one f64 for each bit with a nonzero flip odds,
/// and an outage's odds are nonzero for every bit or for none, so a
/// field draws the same words under every policy that draws at all:
/// they are taken once per field and replayed for all four.
fn degraded_psnr(cfg: &ExpConfig, outage_s: f64, seed: u64) -> [f64; 4] {
    let inst = kernel(cfg, KernelKind::Sobel);
    let odds = RelaxPolicy::ALL.map(|policy| {
        RetentionShaper::new(policy, FIELD_BITS, MIN_RETENTION_S, MAX_RETENTION_S)
            .bit_retention()
            .decay_odds(outage_s)
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let mut degraded: [Vec<u16>; 4] = Default::default();
    for &w in inst.reference() {
        let draws: [u32; 2 * FIELD_BITS] = std::array::from_fn(|_| rng.next_u32());
        for (odds, out) in odds.iter().zip(&mut degraded) {
            let mut replay = Replay(draws.iter());
            out.push(odds.degrade(w, &mut replay).0);
            let left = replay.0.len();
            assert!(left == 0 || left == draws.len(), "a field draws for every bit or none");
        }
    }
    degraded.map(|d| metrics::psnr(inst.reference(), &d, 255.0))
}

/// F9's work: the first profile's summary (its outages), then the NVP
/// under every retention policy over every profile.
pub(crate) fn plan(cfg: &ExpConfig) -> Plan {
    let inst = kernel(cfg, KernelKind::Sobel);
    let mut plan = Plan::default();
    plan.summary(&watch_trace(cfg, cfg.profile_seeds[0]));
    for policy in RelaxPolicy::ALL {
        let (model, _) = relaxed_backup(policy);
        let label = format!("stt-mram {policy:?} relaxation");
        for &seed in &cfg.profile_seeds {
            plan.sim(&label, setup(cfg, model), &inst, &watch_trace(cfg, seed));
        }
    }
    plan
}

/// The rows, from [`plan`]'s outcomes.
fn read(cfg: &ExpConfig, out: &mut Outcomes) -> Vec<Row> {
    let summary = out.summary();
    let outages = &summary.outages;
    let typical = degraded_psnr(cfg, outages.mean_outage_s, 11);
    let worst = degraded_psnr(cfg, outages.longest_outage_s, 13);

    let mut baseline_fp = 0.0_f64;
    let mut rows = Vec::new();
    for (i, policy) in RelaxPolicy::ALL.into_iter().enumerate() {
        let (model, scale) = relaxed_backup(policy);
        let total: u64 = cfg.profile_seeds.iter().map(|_| out.report().forward_progress()).sum();
        let mean_fp = total as f64 / cfg.profile_seeds.len() as f64;
        if policy == RelaxPolicy::Uniform {
            baseline_fp = mean_fp;
        }
        let shaper = RetentionShaper::new(policy, FIELD_BITS, MIN_RETENTION_S, MAX_RETENTION_S);
        let retention = shaper.bit_retention();
        let at_risk: u64 =
            outages.outage_durations_s.iter().map(|&d| u64::from(retention.at_risk_bits(d))).sum();
        rows.push(Row {
            policy: policy.to_string(),
            energy_scale: scale,
            backup_nj: model.backup_energy.get() * 1e9,
            mean_fp,
            fp_gain: mean_fp / baseline_fp.max(1.0),
            at_risk_bits: at_risk,
            psnr_typical_db: typical[i],
            psnr_worst_db: worst[i],
        });
    }
    rows
}

/// Runs all four policies over the configured profiles.
#[must_use]
pub fn rows(cfg: &ExpConfig) -> Vec<Row> {
    plan::build(cfg, plan(cfg), read)
}

/// The table, from [`plan`]'s outcomes.
pub(crate) fn render(cfg: &ExpConfig, out: &mut Outcomes) -> Table {
    let mut t = Table::new(
        "F9",
        "Retention-relaxed backup: energy saved, forward-progress gain, decay risk",
        &[
            "policy",
            "array_energy_scale",
            "backup_nj",
            "mean_fp",
            "fp_gain",
            "at_risk_bits",
            "psnr_typical_db",
            "psnr_worst_db",
        ],
    );
    for r in read(cfg, out) {
        let p = |v: f64| if v.is_finite() { fmt(v, 1) } else { "inf".to_owned() };
        t.push_row(vec![
            r.policy,
            fmt(r.energy_scale, 3),
            fmt(r.backup_nj, 1),
            fmt(r.mean_fp, 0),
            fmt_ratio(r.fp_gain),
            r.at_risk_bits.to_string(),
            p(r.psnr_typical_db),
            p(r.psnr_worst_db),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaxation_saves_energy_and_helps_fp() {
        let rows = rows(&ExpConfig::quick());
        assert_eq!(rows.len(), 4);
        let get = |name: &str| rows.iter().find(|r| r.policy == name).unwrap();
        let uniform = get("uniform");
        let log = get("log");
        let linear = get("linear");
        let parabola = get("parabola");
        assert!((uniform.energy_scale - 1.0).abs() < 1e-9);
        assert!(log.energy_scale < linear.energy_scale);
        assert!(linear.energy_scale < parabola.energy_scale);
        assert!(log.backup_nj < uniform.backup_nj);
        // Cheaper backups never hurt forward progress.
        for r in &rows {
            assert!(r.fp_gain >= 0.99, "{}: {}", r.policy, r.fp_gain);
        }
        assert!(log.fp_gain >= parabola.fp_gain * 0.999);
    }

    #[test]
    fn risk_grows_with_aggressiveness() {
        let rows = rows(&ExpConfig::quick());
        let get = |name: &str| rows.iter().find(|r| r.policy == name).unwrap();
        assert_eq!(get("uniform").at_risk_bits, 0, "decade retention never decays in 10 s");
        assert!(get("log").at_risk_bits >= get("parabola").at_risk_bits);
        // Typical-outage quality stays high even for the log policy.
        assert!(get("log").psnr_typical_db > 20.0);
    }
}
