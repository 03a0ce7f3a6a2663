//! Gallery of published NVP silicon operating points.
//!
//! These are the chips the DATE'17 survey draws its "why is it trending"
//! narrative from. Operating points are **approximate reconstructions**
//! from the cited publications (headline numbers where published,
//! order-of-magnitude estimates elsewhere); they feed comparison table T1
//! and the restore-latency sensitivity study F6.

use serde::{Deserialize, Serialize};

use crate::NvmTechnology;

/// One published NVP (or NVP-precursor) silicon operating point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipProfile {
    /// Short display name.
    pub name: String,
    /// Backup/restore memory technology.
    pub tech: NvmTechnology,
    /// Nominal clock frequency, Hz.
    pub clock_hz: f64,
    /// Volatile state covered by backup, bits.
    pub state_bits: u64,
    /// Full-state backup (sleep) time, seconds.
    pub backup_time_s: f64,
    /// Full-state restore (wake-up) time, seconds.
    pub restore_time_s: f64,
    /// Energy per full-state backup, joules.
    pub backup_energy_j: f64,
    /// Energy per full-state restore, joules.
    pub restore_energy_j: f64,
    /// Publication the headline numbers come from.
    pub reference: String,
    /// Backup management style: `true` = hardware-managed (transparent),
    /// `false` = software-assisted checkpointing.
    pub hardware_managed: bool,
}

/// Returns the published-chip gallery, oldest first.
///
/// # Example
///
/// ```
/// let chips = nvp_device::published_chips();
/// assert!(chips.len() >= 5);
/// // The ISSCC'16 ReRAM NVP restores ~6x faster than the ESSCIRC'12 part.
/// let reram = chips.iter().find(|c| c.name.contains("ReRAM")).unwrap();
/// let feff = chips.iter().find(|c| c.name.contains("ESSCIRC")).unwrap();
/// assert!(feff.restore_time_s / reram.restore_time_s > 4.0);
/// ```
#[must_use]
pub fn published_chips() -> Vec<ChipProfile> {
    vec![
        ChipProfile {
            name: "FeRAM MCU 82 µA/MHz (ISSCC'11)".to_owned(),
            tech: NvmTechnology::Feram,
            clock_hz: 8.0e6,
            state_bits: 2_048,
            backup_time_s: 10e-6,
            restore_time_s: 5e-6,
            backup_energy_j: 30e-9,
            restore_energy_j: 15e-9,
            reference: "Zwerg et al., ISSCC 2011".to_owned(),
            hardware_managed: false,
        },
        ChipProfile {
            name: "FeFF NVP, 3 µs wake-up (ESSCIRC'12)".to_owned(),
            tech: NvmTechnology::Feram,
            clock_hz: 25.0e6,
            state_bits: 1_500,
            backup_time_s: 5e-6,
            restore_time_s: 3e-6,
            backup_energy_j: 8e-9,
            restore_energy_j: 4e-9,
            reference: "Wang et al., ESSCIRC 2012".to_owned(),
            hardware_managed: true,
        },
        ChipProfile {
            name: "FRAM MCU SoC, <400 ns wake-up (JSSC'14)".to_owned(),
            tech: NvmTechnology::Feram,
            clock_hz: 8.0e6,
            state_bits: 2_537,
            backup_time_s: 2.2e-6,
            restore_time_s: 0.4e-6,
            backup_energy_j: 6e-9,
            restore_energy_j: 2e-9,
            reference: "Khanna et al., JSSC 2014".to_owned(),
            hardware_managed: true,
        },
        ChipProfile {
            name: "ReRAM NVP, 6× restore reduction (ISSCC'16)".to_owned(),
            tech: NvmTechnology::Reram,
            clock_hz: 20.0e6,
            state_bits: 2_048,
            backup_time_s: 3e-6,
            restore_time_s: 0.5e-6,
            backup_energy_j: 12e-9,
            restore_energy_j: 1.5e-9,
            reference: "Liu et al., ISSCC 2016".to_owned(),
            hardware_managed: true,
        },
        ChipProfile {
            name: "MRAM MSP430-class NVP (JETC'16)".to_owned(),
            tech: NvmTechnology::SttMram,
            clock_hz: 16.0e6,
            state_bits: 2_304,
            backup_time_s: 4e-6,
            restore_time_s: 2e-6,
            backup_energy_j: 14e-9,
            restore_energy_j: 3e-9,
            reference: "Senni et al., JETC 2016".to_owned(),
            hardware_managed: true,
        },
        ChipProfile {
            name: "Ferroelectric NVP, 46 µs system wake-up (TCAS-I'17)".to_owned(),
            tech: NvmTechnology::Feram,
            clock_hz: 24.0e6,
            state_bits: 3_200,
            backup_time_s: 14e-6,
            restore_time_s: 46e-6,
            backup_energy_j: 25e-9,
            restore_energy_j: 35e-9,
            reference: "Su et al., TCAS-I 2017".to_owned(),
            hardware_managed: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gallery_is_chronological_and_nonempty() {
        let chips = published_chips();
        assert!(chips.len() >= 6);
        for c in &chips {
            assert!(c.clock_hz > 0.0 && c.state_bits > 0, "{}", c.name);
            assert!(c.backup_time_s > 0.0 && c.restore_time_s > 0.0, "{}", c.name);
            assert!(c.backup_energy_j > 0.0 && c.restore_energy_j > 0.0, "{}", c.name);
            assert!(!c.reference.is_empty());
        }
    }

    #[test]
    fn headline_wakeups_preserved() {
        let chips = published_chips();
        let jssc = chips.iter().find(|c| c.name.contains("JSSC")).unwrap();
        assert!(jssc.restore_time_s <= 400e-9);
        let tcas = chips.iter().find(|c| c.name.contains("TCAS-I")).unwrap();
        assert!((tcas.restore_time_s - 46e-6).abs() < 1e-9);
        assert!((tcas.backup_time_s - 14e-6).abs() < 1e-9);
        let esscirc = chips.iter().find(|c| c.name.contains("ESSCIRC")).unwrap();
        assert!((esscirc.restore_time_s - 3e-6).abs() < 1e-9);
    }
}
