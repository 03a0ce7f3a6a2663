//! Power-provisioning front end: rectifier and storage capacitor.
//!
//! All stored/flowing quantities are carried by the dimensional
//! newtypes in [`crate::units`]; the `_j`/`_f`/`_v` suffixed methods
//! are thin untyped accessors kept for formatting and tests.

use serde::{Deserialize, Serialize};

use crate::units::{Farads, Joules, Seconds, Volts, Watts};

/// AC-DC rectifier / power-conditioning efficiency model.
///
/// Conversion efficiency collapses at very low input power (diode drops
/// and controller overhead dominate), peaks in the hundreds-of-µW band a
/// wrist harvester actually delivers, and sags slightly at high power.
/// This is the loss mechanism that penalizes "charge a big capacitor
/// first" schemes: energy moved into and out of storage pays the
/// conversion tax twice.
///
/// # Example
///
/// ```
/// use nvp_energy::Rectifier;
///
/// let r = Rectifier::default();
/// assert!(r.efficiency(1e-6) < 0.5, "tiny inputs convert poorly");
/// assert!(r.efficiency(300e-6) > 0.7, "mid-band is efficient");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rectifier {
    /// Peak conversion efficiency (0–1).
    pub peak_efficiency: f64,
    /// Input power at which efficiency reaches half its peak, watts.
    pub knee_w: f64,
    /// Fractional efficiency droop per decade above the knee.
    pub high_power_droop: f64,
}

impl Default for Rectifier {
    fn default() -> Self {
        Rectifier { peak_efficiency: 0.82, knee_w: 8e-6, high_power_droop: 0.02 }
    }
}

impl Rectifier {
    /// Conversion efficiency at the given input power (0–1).
    #[must_use]
    pub fn efficiency(&self, input_w: f64) -> f64 {
        if input_w <= 0.0 {
            return 0.0;
        }
        // Saturating rise past the knee…
        let rise = input_w / (input_w + self.knee_w);
        let droop_onset_w = self.knee_w * 10.0;
        if input_w <= droop_onset_w {
            // No droop below the onset: the general path computes
            // `log10(1.0) == 0.0`, a droop factor of exactly 1.0.
            return (self.peak_efficiency * rise).clamp(0.0, 1.0);
        }
        // …with a gentle droop at high power.
        let decades_above = (input_w / droop_onset_w).max(1.0).log10();
        let droop = 1.0 - self.high_power_droop * decades_above;
        (self.peak_efficiency * rise * droop).clamp(0.0, 1.0)
    }

    /// Output (DC) power delivered for a given harvested input power.
    #[must_use]
    pub fn output_w(&self, input_w: f64) -> f64 {
        input_w * self.efficiency(input_w)
    }

    /// Typed variant of [`output_w`](Self::output_w).
    #[must_use]
    pub fn output(&self, input: Watts) -> Watts {
        Watts::new(self.output_w(input.get()))
    }
}

/// An energy-storage capacitor tracked in the energy domain.
///
/// Capacity is `½·C·V²` at the rated voltage; leakage is exponential
/// self-discharge with time constant `leak_tau` (≈ `R_leak·C`). Small
/// on-chip backup capacitors have τ of hours; large supercapacitor ESDs
/// have τ of minutes-to-hours *and* waste charge every cycle — the core
/// energy trade-off between NVP and wait-then-compute platforms.
///
/// # Example
///
/// ```
/// use nvp_energy::units::{Joules, Seconds};
/// use nvp_energy::Capacitor;
///
/// let mut cap = Capacitor::new(100e-9, 3.3, 3600.0); // 100 nF on-chip
/// let max: Joules = cap.max_energy();
/// cap.charge(2.0 * max); // overcharge clamps at capacity
/// assert!((cap.max_energy() - cap.energy()).get().abs() < 1e-15);
/// assert!(cap.draw(max * 0.5));
/// assert!(!cap.draw(max), "cannot draw more than stored");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Capacitor {
    capacitance: Farads,
    rated_voltage: Volts,
    leak_tau: Seconds,
    energy: Joules,
    wasted: Joules,
    leak_memo: LeakMemo,
}

/// The leaked fraction `1 - exp(-dt/τ)` for the last `dt` passed to
/// [`Capacitor::leak`]: front ends tick at one fixed `dt`, so the
/// exponential is computed once per distinct step, not once per tick.
/// A pure cache of the capacitor's parameters, so it never takes part
/// in equality.
#[derive(Debug, Clone, Copy)]
struct LeakMemo {
    dt_bits: u64,
    lost_frac: f64,
}

impl Default for LeakMemo {
    fn default() -> Self {
        // A NaN `dt` maps to a NaN fraction, as the uncached formula
        // gives, so the empty memo is never wrong.
        LeakMemo { dt_bits: f64::NAN.to_bits(), lost_frac: f64::NAN }
    }
}

impl PartialEq for LeakMemo {
    fn eq(&self, _: &LeakMemo) -> bool {
        true
    }
}

impl Capacitor {
    /// Creates an empty capacitor from raw SI magnitudes.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive.
    #[must_use]
    pub fn new(capacitance_f: f64, rated_voltage_v: f64, leak_tau_s: f64) -> Self {
        Self::from_units(
            Farads::new(capacitance_f),
            Volts::new(rated_voltage_v),
            Seconds::new(leak_tau_s),
        )
    }

    /// Creates an empty capacitor from typed quantities.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive.
    #[must_use]
    pub fn from_units(capacitance: Farads, rated_voltage: Volts, leak_tau: Seconds) -> Self {
        assert!(capacitance > Farads::ZERO, "capacitance must be positive");
        assert!(rated_voltage > Volts::ZERO, "voltage must be positive");
        assert!(leak_tau > Seconds::ZERO, "leakage time constant must be positive");
        Capacitor {
            capacitance,
            rated_voltage,
            leak_tau,
            energy: Joules::ZERO,
            wasted: Joules::ZERO,
            leak_memo: LeakMemo::default(),
        }
    }

    /// Capacitance.
    #[must_use]
    pub fn capacitance(&self) -> Farads {
        self.capacitance
    }

    /// Maximum storable energy, `½CV²`.
    #[must_use]
    pub fn max_energy(&self) -> Joules {
        self.capacitance.energy_at(self.rated_voltage)
    }

    /// Currently stored energy.
    #[must_use]
    pub fn energy(&self) -> Joules {
        self.energy
    }

    /// Currently stored energy in joules (untyped accessor).
    #[must_use]
    pub fn energy_j(&self) -> f64 {
        self.energy.get()
    }

    /// Present terminal voltage implied by the stored energy.
    #[must_use]
    pub fn voltage(&self) -> Volts {
        self.energy.voltage_across(self.capacitance)
    }

    /// Energy lost so far to leakage and overcharge spill.
    #[must_use]
    pub fn wasted(&self) -> Joules {
        self.wasted
    }

    /// Adds harvested energy; overflow beyond capacity is spilled (and
    /// accounted as waste). Returns the energy actually stored.
    pub fn charge(&mut self, amount: Joules) -> Joules {
        debug_assert!(amount >= Joules::ZERO);
        let room = self.max_energy() - self.energy;
        let stored = amount.min(room);
        self.energy += stored;
        self.wasted += amount - stored;
        stored
    }

    /// Draws `amount` if available; returns `false` (and leaves the
    /// store untouched) if there is not enough energy.
    #[must_use = "a failed draw means a power emergency"]
    pub fn draw(&mut self, amount: Joules) -> bool {
        match self.energy.checked_sub(amount) {
            Some(left) => {
                self.energy = left;
                true
            }
            None => false,
        }
    }

    /// Untyped variant of [`draw`](Self::draw).
    #[must_use = "a failed draw means a power emergency"]
    pub fn draw_j(&mut self, joules: f64) -> bool {
        self.draw(Joules::new(joules))
    }

    /// Draws up to `amount`, returning what was actually obtained
    /// (brown-out semantics).
    pub fn draw_up_to(&mut self, amount: Joules) -> Joules {
        let got = amount.min(self.energy);
        self.energy -= got;
        got
    }

    /// Applies self-discharge over a duration.
    pub fn leak(&mut self, dt: Seconds) {
        let lost = self.energy * self.lost_fraction(dt);
        self.energy -= lost;
        self.wasted += lost;
    }

    /// The fraction of stored energy one [`leak`](Self::leak) over `dt`
    /// loses, `1 - exp(-dt/τ)`, memoized per distinct `dt`.
    fn lost_fraction(&mut self, dt: Seconds) -> f64 {
        let dt_bits = dt.get().to_bits();
        if dt_bits != self.leak_memo.dt_bits {
            let kept = (-(dt / self.leak_tau)).exp();
            self.leak_memo = LeakMemo { dt_bits, lost_frac: 1.0 - kept };
        }
        self.leak_memo.lost_frac
    }

    /// Empties the capacitor (deep discharge during a long outage).
    pub fn deplete(&mut self) {
        self.energy = Joules::ZERO;
    }

    /// Fraction of capacity currently filled (0–1).
    #[must_use]
    pub fn fill_fraction(&self) -> f64 {
        self.energy / self.max_energy()
    }
}

/// Configuration of the complete power-provisioning chain between the
/// harvester and the platform's energy storage.
///
/// Every platform shares the same physics — rectifier conversion, an
/// optional minimum-charge trickle penalty, an optional charger input
/// clip, then capacitor charge and leakage. What differs between an NVP
/// (small ceramic buffer directly at the rectifier output) and a
/// wait-then-compute baseline (supercapacitor behind a charger IC) is
/// only the *options*: the NVP disables the trickle and clip effects,
/// the supercap platform enables them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrontEndConfig {
    /// AC-DC conversion model.
    pub rectifier: Rectifier,
    /// Storage capacitance.
    pub capacitance: Farads,
    /// Storage rated voltage.
    pub cap_voltage: Volts,
    /// Storage self-discharge time constant.
    pub cap_leak_tau: Seconds,
    /// Converted input power below which the storage device accepts only
    /// a trickle (supercapacitor minimum-charging-current effect).
    /// [`Watts::ZERO`] disables the effect.
    pub min_charge_power: Watts,
    /// Fraction of sub-minimum trickle power actually banked.
    pub trickle_efficiency: f64,
    /// Charger input power limit: converted power above this is clipped
    /// when banking into storage. [`Watts::INFINITY`] disables the
    /// effect (a buffer directly at the rectifier output has no limit).
    pub max_charge_power: Watts,
}

impl FrontEndConfig {
    /// A front end with storage directly at the rectifier output — no
    /// trickle penalty, no charger clipping (the NVP configuration).
    #[must_use]
    pub fn direct(
        rectifier: Rectifier,
        capacitance: Farads,
        cap_voltage: Volts,
        cap_leak_tau: Seconds,
    ) -> Self {
        FrontEndConfig {
            rectifier,
            capacitance,
            cap_voltage,
            cap_leak_tau,
            min_charge_power: Watts::ZERO,
            trickle_efficiency: 1.0,
            max_charge_power: Watts::INFINITY,
        }
    }

    /// Maximum storable energy of the configured capacitor, `½CV²`.
    #[must_use]
    pub fn max_storage_energy(&self) -> Joules {
        self.capacitance.energy_at(self.cap_voltage)
    }
}

/// The energy delivered during one front-end tick.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TickIncome {
    /// Raw harvested energy offered by the trace this tick.
    pub harvested: Joules,
    /// Energy delivered past the rectifier (after trickle/clip effects)
    /// into storage this tick.
    pub converted: Joules,
}

/// Running sums an [`EnergyFrontEnd::idle`] stretch adds its samples
/// to: what a platform's report accumulates per generic tick while it
/// only banks income and sleeps.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IdleSums {
    /// Raw harvested energy offered by the trace.
    pub harvested: Joules,
    /// Energy delivered past the rectifier into storage.
    pub converted: Joules,
    /// Standby energy drawn from storage.
    pub sleep: Joules,
    /// Simulated time, seconds.
    pub duration_s: f64,
}

/// The per-tick income path shared by every simulated platform:
/// rectifier output → trickle/clip effects → capacitor charge → leakage.
///
/// Extracting this chain into one type is what keeps the NVP-versus-
/// baseline comparison fair: both platforms bank income through exactly
/// the same code, differing only in their [`FrontEndConfig`] options.
///
/// # Example
///
/// ```
/// use nvp_energy::units::{Farads, Joules, Seconds, Volts, Watts};
/// use nvp_energy::{EnergyFrontEnd, FrontEndConfig, Rectifier};
///
/// let mut fe = EnergyFrontEnd::new(FrontEndConfig::direct(
///     Rectifier::default(), Farads::new(2.2e-6), Volts::new(3.3),
///     Seconds::new(3600.0)));
/// let income = fe.tick(Watts::new(300e-6), Seconds::new(1e-4));
/// assert!(income.converted > Joules::ZERO);
/// assert!(income.converted < income.harvested, "conversion is lossy");
/// assert!(fe.storage().energy() > Joules::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyFrontEnd {
    config: FrontEndConfig,
    cap: Capacitor,
}

impl EnergyFrontEnd {
    /// Creates a front end with an empty storage capacitor.
    ///
    /// # Panics
    ///
    /// Panics if the capacitor parameters are non-positive.
    #[must_use]
    pub fn new(config: FrontEndConfig) -> Self {
        let cap =
            Capacitor::from_units(config.capacitance, config.cap_voltage, config.cap_leak_tau);
        EnergyFrontEnd { config, cap }
    }

    /// Banks one tick of harvested input power: applies the rectifier
    /// curve, the trickle and clip options, charges the capacitor, and
    /// applies leakage. Returns the tick's energy income.
    pub fn tick(&mut self, input: Watts, dt: Seconds) -> TickIncome {
        let converted = self.banked_power(input) * dt;
        self.cap.charge(converted);
        self.cap.leak(dt);
        TickIncome { harvested: input * dt, converted }
    }

    /// The rectifier output for `input` after the trickle and clip
    /// options: the power a tick banks.
    fn banked_power(&self, input: Watts) -> Watts {
        let mut out = self.config.rectifier.output(input);
        if out < self.config.min_charge_power {
            // Below the storage device's minimum charging current the
            // bank barely accepts charge.
            out = out * self.config.trickle_efficiency;
        }
        // Spikes above the charger's input limit are clipped.
        out.min(self.config.max_charge_power)
    }

    /// Banks and sleeps through a stretch of `powers` sampled every
    /// `dt`: for each sample, exactly what [`tick`](Self::tick) then
    /// [`Capacitor::draw_up_to`]`(sleep_draw)` do, in the same `f64`
    /// order, adding each sample's harvested and converted income, its
    /// sleep draw and `dt` to `sums` in that order.
    ///
    /// It stops *before* the first sample after which the store would
    /// hold `wake` or more, would spill (charge past capacity), or could
    /// not pay `sleep_draw` in full, and returns how many samples it
    /// consumed; the caller runs that sample through its generic tick.
    /// Neither clamp of the generic path binds on a consumed sample, so
    /// the stored energy stays in a register along a chain of four
    /// dependent operations (charge, leak, their difference, sleep). A
    /// NaN in any exit test stops the stretch.
    ///
    /// # Example
    ///
    /// ```
    /// use nvp_energy::units::{Farads, Joules, Seconds, Volts, Watts};
    /// use nvp_energy::{EnergyFrontEnd, FrontEndConfig, IdleSums, Rectifier};
    ///
    /// let cfg = FrontEndConfig::direct(
    ///     Rectifier::default(), Farads::new(2.2e-6), Volts::new(3.3), Seconds::new(3600.0));
    /// let (dt, sleep) = (Seconds::new(1e-4), Watts::new(50e-9) * Seconds::new(1e-4));
    /// let mut fe = EnergyFrontEnd::new(cfg);
    /// let mut sums = IdleSums::default();
    /// // 20 µW banks about 1.2 nJ a sample: a 1 µJ wake stops the
    /// // stretch after some 850 samples.
    /// let consumed = fe.idle(&[20e-6; 2000], dt, sleep, Joules::new(1e-6), &mut sums);
    /// assert!(consumed > 800 && consumed < 900, "{consumed}");
    /// assert!(fe.storage().energy() < Joules::new(1e-6));
    /// assert!(sums.sleep > Joules::ZERO && sums.converted < sums.harvested);
    /// ```
    pub fn idle(
        &mut self,
        powers: &[f64],
        dt: Seconds,
        sleep_draw: Joules,
        wake: Joules,
        sums: &mut IdleSums,
    ) -> usize {
        let capacity = self.cap.max_energy();
        let lost_frac = self.cap.lost_fraction(dt);
        let IdleSums { mut harvested, mut converted, mut sleep, mut duration_s } = *sums;
        let mut energy = self.cap.energy;
        let mut wasted = self.cap.wasted;
        let mut consumed = 0;
        for &p in powers {
            let input = Watts::new(p);
            let banked = self.banked_power(input) * dt;
            let charged = energy + banked;
            let lost = charged * lost_frac;
            let left = charged - lost;
            // The charge stores all of `banked` (`Capacitor::charge`'s
            // clamp does not bind), the platform stays asleep, and the
            // draw is paid in full (`draw_up_to`'s clamp does not bind).
            let idle = banked <= capacity - energy && left < wake && sleep_draw <= left;
            if !idle {
                break;
            }
            // The charge spills `banked - banked`, +0.0, which leaves
            // `wasted` unchanged: it starts at +0.0 and gains only
            // terms that are +0.0 or positive, so it is never -0.0.
            energy = left - sleep_draw;
            wasted += lost;
            harvested += input * dt;
            converted += banked;
            sleep += sleep_draw;
            duration_s += dt.get();
            consumed += 1;
        }
        self.cap.energy = energy;
        self.cap.wasted = wasted;
        *sums = IdleSums { harvested, converted, sleep, duration_s };
        consumed
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &FrontEndConfig {
        &self.config
    }

    /// Read access to the storage capacitor.
    #[must_use]
    pub fn storage(&self) -> &Capacitor {
        &self.cap
    }

    /// Mutable access to the storage capacitor (platforms draw their
    /// compute/backup/sleep energy directly from storage).
    pub fn storage_mut(&mut self) -> &mut Capacitor {
        &mut self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rectifier_curve_shape() {
        let r = Rectifier::default();
        assert_eq!(r.efficiency(0.0), 0.0); // nvp-lint: allow(float-eq)
        let e_small = r.efficiency(2e-6);
        let e_mid = r.efficiency(200e-6);
        assert!(e_small < e_mid, "{e_small} vs {e_mid}");
        assert!(e_mid <= r.peak_efficiency);
        // Monotone non-increasing far above the knee is allowed but mild.
        let e_high = r.efficiency(2e-3);
        assert!(e_high > 0.6 * r.peak_efficiency);
        // Output power is monotone in input power across the range.
        let mut prev = Watts::ZERO;
        for i in 1..100 {
            let p = 1e-6 * f64::from(i) * f64::from(i);
            let out = r.output(Watts::new(p));
            assert!(out >= prev, "output power must be monotone");
            prev = out;
        }
    }

    #[test]
    fn capacitor_energy_conservation() {
        let mut cap = Capacitor::new(10e-6, 3.3, 100.0);
        let stored = cap.charge(Joules::new(10e-6));
        assert!((stored - Joules::new(10e-6)).get().abs() < 1e-18);
        assert!(cap.draw(Joules::new(4e-6)));
        assert!((cap.energy() - Joules::new(6e-6)).get().abs() < 1e-15);
        assert!(!cap.draw(Joules::new(7e-6)), "insufficient draw must fail");
        assert!(
            (cap.energy() - Joules::new(6e-6)).get().abs() < 1e-15,
            "failed draw must not change state"
        );
        let got = cap.draw_up_to(Joules::new(100.0));
        assert!((got - Joules::new(6e-6)).get().abs() < 1e-15);
        assert_eq!(cap.energy(), Joules::ZERO);
    }

    #[test]
    fn overcharge_spills_to_waste() {
        let mut cap = Capacitor::new(1e-9, 1.0, 100.0);
        let max = cap.max_energy();
        cap.charge(10.0 * max);
        assert!((cap.energy() - max).get().abs() < 1e-18);
        assert!((cap.wasted() - 9.0 * max).get().abs() < 1e-15);
        assert!((cap.fill_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn leakage_is_exponential() {
        let mut cap = Capacitor::new(100e-6, 3.3, 10.0);
        cap.charge(cap.max_energy());
        let e0 = cap.energy();
        cap.leak(Seconds::new(10.0)); // one time constant
        assert!((cap.energy() / e0 - (-1.0_f64).exp()).abs() < 1e-9);
        assert!(cap.wasted() > Joules::ZERO);
    }

    #[test]
    fn voltage_tracks_energy() {
        let mut cap = Capacitor::new(1e-6, 2.0, 100.0);
        cap.charge(cap.max_energy());
        assert!((cap.voltage() - Volts::new(2.0)).get().abs() < 1e-9);
        let _ = cap.draw(cap.energy() * 0.75);
        assert!((cap.voltage() - Volts::new(1.0)).get().abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "capacitance must be positive")]
    fn zero_capacitance_rejected() {
        let _ = Capacitor::new(0.0, 3.3, 1.0);
    }

    /// The `direct` configuration must reproduce the raw rectifier →
    /// charge → leak path bit-for-bit: it is the NVP income path, and
    /// this is the units-migration pin — the typed chain must lower to
    /// exactly the pre-migration `f64` arithmetic.
    #[test]
    fn direct_front_end_matches_raw_path() {
        let r = Rectifier::default();
        let mut fe = EnergyFrontEnd::new(FrontEndConfig::direct(
            r,
            Farads::new(2.2e-6),
            Volts::new(3.3),
            Seconds::new(3600.0),
        ));
        let mut cap = Capacitor::new(2.2e-6, 3.3, 3600.0);
        let dt = 1e-4;
        for i in 0..2000 {
            let p = 2e-3 * (f64::from(i) / 2000.0);
            let income = fe.tick(Watts::new(p), Seconds::new(dt));
            let converted = r.output_w(p) * dt;
            cap.charge(Joules::new(converted));
            cap.leak(Seconds::new(dt));
            assert_eq!(income.converted.get().to_bits(), converted.to_bits());
            assert_eq!(income.harvested.get().to_bits(), (p * dt).to_bits());
            assert_eq!(fe.storage().energy_j().to_bits(), cap.energy_j().to_bits());
            assert_eq!(fe.storage().wasted().get().to_bits(), cap.wasted().get().to_bits());
        }
    }

    #[test]
    fn trickle_penalizes_weak_input() {
        let r = Rectifier::default();
        let direct_cfg =
            || FrontEndConfig::direct(r, Farads::new(100e-6), Volts::new(3.3), Seconds::new(200.0));
        let mut cfg = direct_cfg();
        cfg.min_charge_power = Watts::new(50e-6);
        cfg.trickle_efficiency = 0.15;
        let mut trickled = EnergyFrontEnd::new(cfg);
        let mut direct = EnergyFrontEnd::new(direct_cfg());
        // 30 µW input converts to well under 50 µW: the trickle applies.
        let a = trickled.tick(Watts::new(30e-6), Seconds::new(1e-4));
        let b = direct.tick(Watts::new(30e-6), Seconds::new(1e-4));
        assert!((a.converted - b.converted * 0.15).get().abs() < 1e-18);
        assert_eq!(a.harvested, b.harvested);
    }

    /// Why an idle stretch must stop before a sample: what that
    /// sample's generic path does that the idle loop does not.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Exit {
        Wake,
        Spill,
        SleepClamp,
    }

    /// One sample down the generic path — `tick`, then
    /// `draw_up_to(sleep_draw)`, with the sums added in tick order —
    /// and the exits it takes.
    fn generic_sample(
        fe: &mut EnergyFrontEnd,
        p: f64,
        (dt, sleep_draw, wake): (Seconds, Joules, Joules),
        sums: &mut IdleSums,
    ) -> Vec<Exit> {
        let room = fe.storage().max_energy() - fe.storage().energy();
        let income = fe.tick(Watts::new(p), dt);
        sums.harvested += income.harvested;
        sums.converted += income.converted;
        let mut exits = Vec::new();
        if fe.storage().energy() >= wake {
            exits.push(Exit::Wake);
        }
        if income.converted > room {
            exits.push(Exit::Spill);
        }
        if fe.storage().energy() < sleep_draw {
            exits.push(Exit::SleepClamp);
        }
        sums.sleep += fe.storage_mut().draw_up_to(sleep_draw);
        sums.duration_s += dt.get();
        exits
    }

    fn assert_same(idle: (&EnergyFrontEnd, &IdleSums), generic: (&EnergyFrontEnd, &IdleSums)) {
        let bits = |(fe, sums): (&EnergyFrontEnd, &IdleSums)| {
            [
                fe.storage().energy().get().to_bits(),
                fe.storage().wasted().get().to_bits(),
                sums.harvested.get().to_bits(),
                sums.converted.get().to_bits(),
                sums.sleep.get().to_bits(),
                sums.duration_s.to_bits(),
            ]
        };
        assert_eq!(bits(idle), bits(generic));
    }

    /// Bursty seeded input: stretches of silence, weak income and
    /// spikes, each sample jittered.
    fn bursty_powers(rng: &mut StdRng, len: usize) -> Vec<f64> {
        let mut powers = Vec::with_capacity(len);
        while powers.len() < len {
            let class = rng.random::<f64>();
            let level = if class < 0.3 {
                0.0
            } else if class < 0.8 {
                10f64.powf(rng.random_range_f64(-7.0, -4.0))
            } else {
                10f64.powf(rng.random_range_f64(-4.0, -2.5))
            };
            let stretch = 1 + (rng.random::<f64>() * 400.0) as usize;
            for _ in 0..stretch.min(len - powers.len()) {
                powers.push(level * rng.random_range_f64(0.5, 1.5));
            }
        }
        powers
    }

    #[test]
    fn idle_matches_tick_then_sleep_bit_for_bit() {
        let r = Rectifier::default();
        let direct = |c: f64, tau: f64| {
            FrontEndConfig::direct(r, Farads::new(c), Volts::new(3.3), Seconds::new(tau))
        };
        let mut charger = direct(100e-6, 200.0);
        charger.min_charge_power = Watts::new(50e-6);
        charger.trickle_efficiency = 0.15;
        charger.max_charge_power = Watts::new(150e-6);
        let dt = Seconds::new(1e-4);
        // (front end, sleep draw, wake): an NVP buffer off below its
        // start threshold, a tiny buffer that is done (never wakes, so
        // it fills and spills), and a charger-fed supercapacitor.
        let cases = [
            (direct(2.2e-6, 3600.0), Watts::new(50e-9) * dt, Joules::new(1.5e-6)),
            (direct(10e-9, 0.05), Watts::new(2e-6) * dt, Joules::new(f64::INFINITY)),
            (charger, Watts::new(300e-9) * dt, Joules::new(20e-6)),
        ];
        let mut rng = StdRng::seed_from_u64(0x1d1e);
        let mut seen = std::collections::BTreeSet::new();
        let mut idled = 0;
        for (config, sleep_draw, wake) in cases {
            let params = (dt, sleep_draw, wake);
            for _ in 0..4 {
                let powers = bursty_powers(&mut rng, 20_000);
                let (mut fast, mut slow) =
                    (EnergyFrontEnd::new(config), EnergyFrontEnd::new(config));
                let (mut fast_sums, mut slow_sums) = (IdleSums::default(), IdleSums::default());
                let mut i = 0;
                loop {
                    let n = fast.idle(&powers[i..], dt, sleep_draw, wake, &mut fast_sums);
                    for &p in &powers[i..i + n] {
                        let exits = generic_sample(&mut slow, p, params, &mut slow_sums);
                        assert!(exits.is_empty(), "idle consumed a sample exiting on {exits:?}");
                    }
                    assert_same((&fast, &fast_sums), (&slow, &slow_sums));
                    idled += n;
                    i += n;
                    let Some(&p) = powers.get(i) else { break };
                    // The stopping sample takes the generic path on both.
                    let exits = generic_sample(&mut fast, p, params, &mut fast_sums);
                    assert!(!exits.is_empty(), "idle stopped at sample {i} without an exit");
                    generic_sample(&mut slow, p, params, &mut slow_sums);
                    if exits.contains(&Exit::Wake) {
                        // A woken platform spends most of its store.
                        for fe in [&mut fast, &mut slow] {
                            fe.storage_mut().draw_up_to(wake * 0.9);
                        }
                    }
                    seen.extend(exits);
                    i += 1;
                }
            }
        }
        assert_eq!(
            seen.into_iter().collect::<Vec<_>>(),
            [Exit::Wake, Exit::Spill, Exit::SleepClamp]
        );
        assert!(idled > 120_000, "only {idled} of 240000 samples idled");
    }

    #[test]
    fn clip_limits_strong_input() {
        let r = Rectifier::default();
        let mut cfg =
            FrontEndConfig::direct(r, Farads::new(100e-6), Volts::new(3.3), Seconds::new(200.0));
        cfg.max_charge_power = Watts::new(150e-6);
        let mut fe = EnergyFrontEnd::new(cfg);
        // 2 mW input converts far above the 150 µW clip.
        let income = fe.tick(Watts::new(2e-3), Seconds::new(1e-4));
        assert!((income.converted - Watts::new(150e-6) * Seconds::new(1e-4)).get().abs() < 1e-18);
        assert!(income.harvested > income.converted);
    }
}
