//! Analytic oracle for the charge phase: from an empty store under
//! constant income, the first power-on comes when the exponential
//! approach to the leak equilibrium crosses the start threshold.
//!
//! With converted power `P_conv`, standby draw `P_sleep` and leak time
//! constant `τ`, the store follows `dE/dt = P_conv − P_sleep − E/τ`, so
//! it reaches `E_start` at
//!
//! ```text
//! t* = −τ · ln(1 − E_start / ((P_conv − P_sleep) · τ))
//! ```
//!
//! The cases pick `τ` short enough that the leak stretches `t*` well
//! past the leak-free `E_start / (P_conv − P_sleep)`. Every sample
//! before the wake is an off (or charging) sample, so the whole charge
//! runs through the platforms' idle path.

use nvp::platform::{drive_observed, Platform, SimEvent, SimObserver};
use nvp::prelude::*;

const DT_S: f64 = 1e-4;

/// Records the time of the first `PowerOn`.
#[derive(Default)]
struct FirstPowerOn(Option<f64>);

impl SimObserver for FirstPowerOn {
    fn on_event(&mut self, t_s: f64, event: SimEvent) {
        if event == SimEvent::PowerOn && self.0.is_none() {
            self.0 = Some(t_s);
        }
    }
}

/// The share of the leak equilibrium the start threshold asks for in
/// every case: the leak makes `t*` 1.28× the leak-free time.
const START_SHARE: f64 = 0.4;

/// Charges `platform` from empty under `input_w` and checks its first
/// power-on against `t*`.
///
/// The tolerance: per sample the store does `E ← (E + c)·a − s`, with
/// `c = P_conv·dt`, `s = P_sleep·dt` and `a = exp(−dt/τ)`, which is the
/// closed form sampled every `dt` with amplitude `B = (c·a − s)/(1 − a)`
/// instead of `A = (P_conv − P_sleep)·τ`. With `x = dt/τ`,
/// `B/A − 1 = −x/2 − x·s/(c − s) + O(x²)`, within
/// `ε = x·(1 + s/(c − s))`. An amplitude off by `ε` moves the crossing
/// by at most `τ·ε·r/(1 − r)` to first order, `r = E_start/A`. The
/// platform sees the crossing at the end of the sample that makes it
/// and reports it at that sample's start: one `dt` more.
fn assert_charge_time(
    label: &str,
    platform: &mut dyn Platform,
    input_w: f64,
    (p_conv_w, p_sleep_w): (f64, f64),
    tau_s: f64,
    e_start_j: f64,
) {
    let amplitude = (p_conv_w - p_sleep_w) * tau_s;
    let r = e_start_j / amplitude;
    assert!((0.3..0.5).contains(&r), "{label}: E_start/A = {r}");
    let t_star = -tau_s * (1.0 - r).ln();
    let x = DT_S / tau_s;
    assert!(x <= 0.01, "{label}: dt/τ = {x} is not small");
    let eps = x * (1.0 + p_sleep_w / (p_conv_w - p_sleep_w));
    let tol = DT_S + tau_s * eps * r / (1.0 - r);

    let trace = PowerTrace::constant(DT_S, input_w, 1.2 * t_star + 0.01);
    let mut first = FirstPowerOn::default();
    drive_observed(&trace, platform, &mut first).unwrap();
    let t = first.0.unwrap_or_else(|| panic!("{label}: never powered on (t* = {t_star} s)"));
    assert!(
        (t - t_star).abs() <= tol,
        "{label}: powered on at {t} s, closed form {t_star} s, tolerance {tol} s"
    );
}

#[test]
fn nvp_charge_time_matches_the_closed_form() {
    let program = assemble("start: addi r1, r1, 1\n j start").unwrap();
    let backup = BackupModel::distributed(NvmTechnology::Feram, 2048);
    let policy = BackupPolicy::demand();
    let base = SystemConfig::default();
    let e_start = base.thresholds(&backup, &policy).start.get();
    // The NVP's buffer sits at the rectifier output: no trickle, no clip.
    let input_w = 100e-6;
    let p_conv = base.rectifier.output_w(input_w);
    let tau = e_start / (START_SHARE * (p_conv - base.sleep_power_w));
    let config = SystemConfig { cap_leak_tau_s: tau, ..base };
    let mut nvp = IntermittentSystem::new(&program, config, backup, policy).unwrap();
    let p = (p_conv, config.sleep_power_w);
    assert_charge_time("NVP", &mut nvp, input_w, p, tau, e_start);
}

#[test]
fn wait_compute_charge_time_matches_the_closed_form() {
    let program = assemble("li r2, 100\nloop: addi r1, r1, 1\nbne r1, r2, loop\nhalt").unwrap();
    // Weak input banks a trickle; strong input is clipped at the
    // charger. Both fold into the converted power.
    for (label, input_w, tau) in [("trickle", 40e-6, 5.0), ("clip", 1e-3, 0.5)] {
        let base = WaitComputeConfig { cap_leak_tau_s: tau, ..WaitComputeConfig::default() };
        let mut p_conv = base.rectifier.output_w(input_w);
        if p_conv < base.min_charge_power_w {
            p_conv *= base.trickle_efficiency;
        }
        p_conv = p_conv.min(base.max_charge_power_w);
        let e_start = START_SHARE * (p_conv - base.sleep_power_w) * tau;
        let config = WaitComputeConfig { start_energy_j: e_start, ..base };
        let mut wait = WaitComputeSystem::new(&program, config).unwrap();
        let p = (p_conv, config.sleep_power_w);
        assert_charge_time(&format!("wait-compute, {label}"), &mut wait, input_w, p, tau, e_start);
    }
}
