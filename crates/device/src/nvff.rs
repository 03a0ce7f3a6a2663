//! Distributed nonvolatile flip-flop banks.
//!
//! Hardware-managed NVPs pair every pipeline/architectural flip-flop with
//! a nonvolatile shadow cell so the entire machine state can be backed up
//! *in situ*, in parallel, in microseconds. The bank model charges
//! per-bit array energy (from [`NvmParams`]) times a peripheral overhead
//! factor, and serializes the parallel write into a few current-limited
//! groups (writing thousands of NVM bits truly simultaneously would exceed
//! the on-chip capacitor's peak current).

use nvp_energy::units::{Joules, Seconds};
use serde::{Deserialize, Serialize};

use crate::{NvmParams, NvmTechnology};

/// A bank of nonvolatile shadow flip-flops covering `bits` state bits.
///
/// # Example
///
/// ```
/// use nvp_device::{NvffBank, NvmTechnology};
///
/// let bank = NvffBank::new(NvmTechnology::SttMram, 288);
/// // Backup of a ~300-bit state costs nanojoules and microseconds.
/// assert!(bank.backup_energy_j() < 1e-8);
/// assert!(bank.backup_time_s() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NvffBank {
    params: NvmParams,
    bits: u64,
    /// Multiplier covering write drivers, sense amps, and clock tree.
    overhead_factor: f64,
    /// Parallel writes are issued in this many current-limited groups.
    write_groups: u32,
}

impl NvffBank {
    /// Default peripheral-overhead multiplier.
    pub const DEFAULT_OVERHEAD: f64 = 2.0;
    /// Default number of current-limited write groups.
    pub const DEFAULT_WRITE_GROUPS: u32 = 4;

    /// Creates a bank over `bits` state bits using the technology's
    /// default parameters.
    #[must_use]
    pub fn new(tech: NvmTechnology, bits: u64) -> Self {
        Self::with_params(tech.params(), bits)
    }

    /// Creates a bank with explicit device parameters.
    #[must_use]
    pub fn with_params(params: NvmParams, bits: u64) -> Self {
        NvffBank {
            params,
            bits,
            overhead_factor: Self::DEFAULT_OVERHEAD,
            write_groups: Self::DEFAULT_WRITE_GROUPS,
        }
    }

    /// Number of covered state bits.
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// The device parameters in use.
    #[must_use]
    pub fn params(&self) -> &NvmParams {
        &self.params
    }

    /// Energy to back up the full bank once, in joules.
    #[must_use]
    pub fn backup_energy_j(&self) -> f64 {
        self.params.write_energy_j(self.bits) * self.overhead_factor
    }

    /// Time to back up the full bank once, in seconds.
    #[must_use]
    pub fn backup_time_s(&self) -> f64 {
        self.params.write_latency_s * f64::from(self.write_groups)
    }

    /// Energy to restore the full bank once, in joules.
    #[must_use]
    pub fn restore_energy_j(&self) -> f64 {
        self.params.read_energy_j(self.bits) * self.overhead_factor
    }

    /// Time to restore the full bank once, in seconds.
    ///
    /// Reads are low-current, so restore completes in a single group.
    #[must_use]
    pub fn restore_time_s(&self) -> f64 {
        self.params.read_latency_s
    }

    /// Returns a copy whose write energy is scaled by `factor`
    /// (retention-relaxed backup; see [`crate::RetentionShaper`]).
    #[must_use]
    pub fn with_write_energy_scaled(mut self, factor: f64) -> Self {
        self.params = self.params.with_write_energy_scaled(factor);
        self
    }

    /// Typed variant of [`backup_energy_j`](Self::backup_energy_j).
    #[must_use]
    pub fn backup_energy(&self) -> Joules {
        Joules::new(self.backup_energy_j())
    }

    /// Typed variant of [`backup_time_s`](Self::backup_time_s).
    #[must_use]
    pub fn backup_time(&self) -> Seconds {
        Seconds::new(self.backup_time_s())
    }

    /// Typed variant of [`restore_energy_j`](Self::restore_energy_j).
    #[must_use]
    pub fn restore_energy(&self) -> Joules {
        Joules::new(self.restore_energy_j())
    }

    /// Typed variant of [`restore_time_s`](Self::restore_time_s).
    #[must_use]
    pub fn restore_time(&self) -> Seconds {
        Seconds::new(self.restore_time_s())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_scales_with_bits() {
        let small = NvffBank::new(NvmTechnology::Feram, 100);
        let large = NvffBank::new(NvmTechnology::Feram, 1000);
        assert!((large.backup_energy_j() / small.backup_energy_j() - 10.0).abs() < 1e-9);
        assert_eq!(
            small.backup_time_s(),
            large.backup_time_s(),
            "parallel write time is size-independent"
        );
    }

    #[test]
    fn restore_cheaper_than_backup() {
        for tech in NvmTechnology::ALL {
            let bank = NvffBank::new(tech, 512);
            assert!(bank.restore_energy_j() <= bank.backup_energy_j(), "{tech}");
            assert!(bank.restore_time_s() <= bank.backup_time_s(), "{tech}");
        }
    }

    #[test]
    fn relaxed_energy_scaled() {
        let base = NvffBank::new(NvmTechnology::SttMram, 512);
        let relaxed = base.with_write_energy_scaled(0.25);
        assert!((relaxed.backup_energy_j() / base.backup_energy_j() - 0.25).abs() < 1e-9);
        assert_eq!(relaxed.restore_time_s(), base.restore_time_s());
    }
}
