//! Backup/restore cost models for the three checkpointing styles.

use nvp_device::{NvffBank, NvmTechnology};
use nvp_energy::units::{Joules, Seconds};
use serde::{Deserialize, Serialize};

/// How processor state is preserved across power failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackupStyle {
    /// Hardware-managed, distributed nonvolatile flip-flops written in
    /// parallel (the NVP approach).
    Distributed,
    /// Hardware-managed copy of state into a central NVM array, word by
    /// word (DMA-style).
    Centralized,
    /// Software checkpointing: the CPU itself copies live state to NVM
    /// (Hibernus/Mementos-class, e.g. on an FRAM MCU).
    Software,
}

impl BackupStyle {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackupStyle::Distributed => "distributed",
            BackupStyle::Centralized => "centralized",
            BackupStyle::Software => "software",
        }
    }
}

impl std::fmt::Display for BackupStyle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Lump-sum cost of one backup and one restore operation.
///
/// The fixed overheads cover what the array model cannot see: the voltage
/// detector, backup controller sequencing, clock management, and analog
/// settling. They are calibrated so a wearable-trace NVP spends 20–33 %
/// of income energy on backup+restore at the published 1400–1700
/// backups/minute rate (experiment F4).
///
/// # Example
///
/// ```
/// use nvp_core::BackupModel;
/// use nvp_device::NvmTechnology;
///
/// let nvp = BackupModel::distributed(NvmTechnology::Feram, 2048);
/// let sw = BackupModel::software(NvmTechnology::Feram, 2048, 1024, 1e6);
/// assert!(sw.backup_time > 10.0 * nvp.backup_time,
///         "software checkpointing is orders of magnitude slower");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackupModel {
    /// Which style produced this model.
    pub style: BackupStyle,
    /// Technology backing the checkpoint storage.
    pub tech: NvmTechnology,
    /// State bits covered by a checkpoint.
    pub state_bits: u64,
    /// Energy per backup operation.
    pub backup_energy: Joules,
    /// Wall-clock time per backup operation.
    pub backup_time: Seconds,
    /// Energy per restore operation.
    pub restore_energy: Joules,
    /// Wall-clock time per restore operation.
    pub restore_time: Seconds,
}

/// Fixed controller/analog overhead per hardware backup.
pub const HW_BACKUP_OVERHEAD: Joules = Joules::new(150e-9);
/// Fixed controller/analog overhead per hardware restore.
pub const HW_RESTORE_OVERHEAD: Joules = Joules::new(80e-9);
/// Fixed sequencing overhead per hardware backup/restore.
pub const HW_SEQ_OVERHEAD: Seconds = Seconds::new(1e-6);

impl BackupModel {
    /// Distributed NV flip-flop backup (the NVP approach): every state
    /// bit has a shadow cell; the array writes in a few parallel groups.
    #[must_use]
    pub fn distributed(tech: NvmTechnology, state_bits: u64) -> Self {
        let bank = NvffBank::new(tech, state_bits);
        BackupModel {
            style: BackupStyle::Distributed,
            tech,
            state_bits,
            backup_energy: bank.backup_energy() + HW_BACKUP_OVERHEAD,
            backup_time: bank.backup_time() + HW_SEQ_OVERHEAD,
            restore_energy: bank.restore_energy() + HW_RESTORE_OVERHEAD,
            restore_time: bank.restore_time() + HW_SEQ_OVERHEAD,
        }
    }

    /// Centralized hardware copy: state streams into an NVM array one
    /// 16-bit word per array write cycle.
    #[must_use]
    pub fn centralized(tech: NvmTechnology, state_bits: u64) -> Self {
        let p = tech.params();
        let words = state_bits.div_ceil(16);
        BackupModel {
            style: BackupStyle::Centralized,
            tech,
            state_bits,
            backup_energy: p.write_energy(state_bits) * 2.0 // array + mux/bus
                + HW_BACKUP_OVERHEAD,
            backup_time: words as f64 * p.write_latency() + HW_SEQ_OVERHEAD,
            restore_energy: p.read_energy(state_bits) * 2.0 + HW_RESTORE_OVERHEAD,
            restore_time: words as f64 * p.read_latency() + HW_SEQ_OVERHEAD,
        }
    }

    /// Software checkpointing on a `clock_hz` MCU: the CPU copies
    /// `state_bits` of registers/SFRs plus `ram_words` of live RAM into
    /// NVM, spending CPU cycles *and* NVM write energy.
    #[must_use]
    pub fn software(tech: NvmTechnology, state_bits: u64, ram_words: u64, clock_hz: f64) -> Self {
        let p = tech.params();
        let total_words = state_bits.div_ceil(16) + ram_words;
        let total_bits = total_words * 16;
        // ~4 cycles per copied word (load, store, pointer bump, loop).
        let cpu_cycles = total_words * 4;
        let cpu_energy = Joules::new(cpu_cycles as f64 * 209e-12); // 0.209 mW @ 1 MHz core
        let cpu_time = Seconds::new(cpu_cycles as f64 / clock_hz);
        BackupModel {
            style: BackupStyle::Software,
            tech,
            state_bits: total_bits,
            backup_energy: cpu_energy + p.write_energy(total_bits),
            backup_time: cpu_time + total_words as f64 * p.write_latency(),
            restore_energy: cpu_energy + p.read_energy(total_bits),
            restore_time: cpu_time + total_words as f64 * p.read_latency(),
        }
    }

    /// Returns a copy with backup and restore energy/time scaled by
    /// `factor` (for sensitivity sweeps).
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> Self {
        self.backup_energy = self.backup_energy * factor;
        self.backup_time = self.backup_time * factor;
        self.restore_energy = self.restore_energy * factor;
        self.restore_time = self.restore_time * factor;
        self
    }

    /// Returns a copy with the restore time replaced (wake-up-latency
    /// sensitivity study F6).
    #[must_use]
    pub fn with_restore_time(mut self, restore_time: Seconds) -> Self {
        self.restore_time = restore_time;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributed_is_fastest() {
        let d = BackupModel::distributed(NvmTechnology::Feram, 2048);
        let c = BackupModel::centralized(NvmTechnology::Feram, 2048);
        let s = BackupModel::software(NvmTechnology::Feram, 2048, 1024, 1e6);
        assert!(d.backup_time < c.backup_time);
        assert!(c.backup_time < s.backup_time);
        assert!(d.backup_energy < s.backup_energy);
    }

    #[test]
    fn software_checkpoint_is_milliseconds() {
        let s = BackupModel::software(NvmTechnology::Feram, 2048, 1024, 1e6);
        assert!(s.backup_time > Seconds::new(1e-3), "{}", s.backup_time);
        assert!(s.backup_time < Seconds::new(0.1));
    }

    #[test]
    fn round_trip_energy_in_calibrated_band() {
        // The F4 calibration target: a backup+restore pair lands in the
        // high-nanojoule range so 1400-1700 backups/min consume 20-33 %
        // of a ~25 µW income.
        let d = BackupModel::distributed(NvmTechnology::Feram, 2048);
        let rt = d.backup_energy + d.restore_energy;
        assert!(rt > Joules::new(150e-9) && rt < Joules::new(500e-9), "{rt}");
    }

    #[test]
    fn scaling_helpers() {
        let base = BackupModel::distributed(NvmTechnology::Reram, 1024);
        let double = base.scaled(2.0);
        assert!((double.backup_energy / base.backup_energy - 2.0).abs() < 1e-12);
        let slow = base.with_restore_time(Seconds::new(46e-6));
        assert_eq!(slow.restore_time, Seconds::new(46e-6));
        assert_eq!(slow.backup_time, base.backup_time);
    }
}
