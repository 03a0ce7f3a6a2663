//! Write-endurance accounting for backup-heavy duty cycles.
//!
//! A wearable-harvester NVP performs on the order of 1400–1700 backups per
//! minute. Whether a technology survives a decade of that duty is a
//! first-order selection criterion (it is why backup-heavy designs prefer
//! STT-MRAM/FeRAM over ReRAM), so the framework tracks it explicitly.

use serde::{Deserialize, Serialize};

use crate::NvmParams;

/// Seconds per (Julian) year.
pub const SECONDS_PER_YEAR: f64 = 3.156e7;

/// Tracks cumulative writes against a technology's endurance budget.
///
/// # Example
///
/// ```
/// use nvp_device::{EnduranceMeter, NvmTechnology};
///
/// let mut meter = EnduranceMeter::new(NvmTechnology::Reram.params());
/// meter.record_backups(1_000_000);
/// assert!(meter.remaining_fraction() < 1.0);
/// // ReRAM at ~25 backups/s wears out in years, not decades.
/// let life = meter.lifetime_years(25.0);
/// assert!(life < 1000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnduranceMeter {
    params: NvmParams,
    writes: f64,
}

impl EnduranceMeter {
    /// Creates a meter for the given device parameters.
    #[must_use]
    pub fn new(params: NvmParams) -> Self {
        EnduranceMeter { params, writes: 0.0 }
    }

    /// Records `n` full-bank backup operations (each cell written once).
    pub fn record_backups(&mut self, n: u64) {
        self.writes += n as f64;
    }

    /// Total backups recorded so far.
    #[must_use]
    pub fn writes(&self) -> f64 {
        self.writes
    }

    /// Fraction of the endurance budget remaining, clamped to `[0, 1]`.
    #[must_use]
    pub fn remaining_fraction(&self) -> f64 {
        (1.0 - self.writes / self.params.endurance_cycles).clamp(0.0, 1.0)
    }

    /// Projected lifetime in years at a sustained backup rate.
    #[must_use]
    pub fn lifetime_years(&self, backups_per_second: f64) -> f64 {
        if backups_per_second <= 0.0 {
            return f64::INFINITY;
        }
        self.params.endurance_cycles / backups_per_second / SECONDS_PER_YEAR
    }

    /// `true` if the device survives `target_years` at the given rate.
    #[must_use]
    pub fn survives(&self, backups_per_second: f64, target_years: f64) -> bool {
        self.lifetime_years(backups_per_second) >= target_years
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NvmTechnology;

    /// Published backup rates: 1400–1700/minute ≈ 23–28/s.
    const WEARABLE_RATE: f64 = 25.0;

    #[test]
    fn stt_mram_survives_a_decade_at_wearable_rates() {
        let meter = EnduranceMeter::new(NvmTechnology::SttMram.params());
        assert!(meter.survives(WEARABLE_RATE, 10.0));
        let feram = EnduranceMeter::new(NvmTechnology::Feram.params());
        assert!(feram.survives(WEARABLE_RATE, 10.0));
    }

    #[test]
    fn reram_and_pcm_do_not() {
        for tech in [NvmTechnology::Reram, NvmTechnology::Pcm] {
            let meter = EnduranceMeter::new(tech.params());
            assert!(
                !meter.survives(WEARABLE_RATE, 10.0),
                "{tech} unexpectedly survives a decade of backup duty"
            );
        }
    }

    #[test]
    fn recording_depletes_budget() {
        let mut meter = EnduranceMeter::new(NvmTechnology::Reram.params());
        assert_eq!(meter.remaining_fraction(), 1.0);
        meter.record_backups(50_000_000);
        let rem = meter.remaining_fraction();
        assert!(rem < 1.0 && rem > 0.0);
        meter.record_backups(100_000_000);
        assert_eq!(meter.remaining_fraction(), 0.0);
    }

    #[test]
    fn zero_rate_lives_forever() {
        let meter = EnduranceMeter::new(NvmTechnology::Pcm.params());
        assert!(meter.lifetime_years(0.0).is_infinite());
    }
}
