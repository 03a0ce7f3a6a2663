//! Clock-scaling policies: exploiting power spikes that fixed-frequency
//! NVPs waste.
//!
//! Harvested power arrives as spikes many times the core's draw; with a
//! small storage buffer, whatever the core cannot consume in time spills
//! once the capacitor fills. The second pillar of the NVP literature
//! (after cheap backup) is therefore *matching the microarchitecture to
//! the income* — here modelled as frequency scaling: energy per
//! instruction is held constant (fixed supply voltage), so a faster clock
//! converts the same joules into the same instructions, just **soon
//! enough to make room for the next spike**.

use serde::{Deserialize, Serialize};

/// How the core clock is chosen each trace tick.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ClockPolicy {
    /// Run at the configured base clock always.
    #[default]
    Fixed,
    /// Scale among `levels` power-of-two multiples of the base clock
    /// (level 0 = base, level n = base·2ⁿ), choosing the highest level
    /// whose active power fits `margin ×` the instantaneous income —
    /// and forcing the top level when the buffer is nearly full (use the
    /// energy before it spills).
    Adaptive {
        /// Number of doubling steps above the base clock (1–4).
        levels: u8,
        /// Income multiplier a level must fit within (e.g. 0.9).
        margin: f64,
    },
}

impl ClockPolicy {
    /// The default adaptive setting used by the F11 experiment: up to
    /// 8× the base clock, sized to 90 % of instantaneous income.
    #[must_use]
    pub fn adaptive() -> Self {
        ClockPolicy::Adaptive { levels: 3, margin: 0.9 }
    }

    /// Chooses the clock for the next tick.
    ///
    /// * `base_hz` — the platform's base clock,
    /// * `active_power_at_base_w` — core draw at the base clock,
    /// * `income_w` — converted input power over the last tick,
    /// * `fill_fraction` — storage fill level (0–1).
    #[must_use]
    pub fn select_hz(
        &self,
        base_hz: f64,
        active_power_at_base_w: f64,
        income_w: f64,
        fill_fraction: f64,
    ) -> f64 {
        match *self {
            ClockPolicy::Fixed => base_hz,
            ClockPolicy::Adaptive { levels, margin } => {
                let levels = levels.min(4);
                if fill_fraction > 0.8 {
                    // The buffer is about to spill: burn energy as fast
                    // as the fabric allows.
                    return base_hz * f64::from(1u32 << levels);
                }
                let mut best = base_hz;
                for level in 1..=levels {
                    let mult = f64::from(1u32 << level);
                    if active_power_at_base_w * mult <= margin * income_w {
                        best = base_hz * mult;
                    }
                }
                best
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: f64 = 1e6;
    const P: f64 = 0.21e-3;

    #[test]
    fn fixed_never_moves() {
        let p = ClockPolicy::Fixed;
        assert_eq!(p.select_hz(BASE, P, 10.0, 1.0), BASE);
    }

    #[test]
    fn adaptive_tracks_income() {
        let p = ClockPolicy::adaptive();
        // Weak income: stay at base.
        assert_eq!(p.select_hz(BASE, P, 20e-6, 0.2), BASE);
        // Income supports 2x but not 4x.
        let hz = p.select_hz(BASE, P, 0.5e-3, 0.2);
        assert_eq!(hz, 2.0 * BASE);
        // Strong spike: go to the top level.
        let hz = p.select_hz(BASE, P, 2.0e-3, 0.2);
        assert_eq!(hz, 8.0 * BASE);
    }

    #[test]
    fn near_full_buffer_forces_top_speed() {
        let p = ClockPolicy::adaptive();
        assert_eq!(p.select_hz(BASE, P, 0.0, 0.85), 8.0 * BASE);
    }

    #[test]
    fn levels_clamped() {
        let p = ClockPolicy::Adaptive { levels: 7, margin: 1.0 };
        assert_eq!(p.select_hz(BASE, P, 1.0, 0.0), 16.0 * BASE);
    }
}
