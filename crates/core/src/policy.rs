//! Backup-trigger policies and operating thresholds.

use nvp_energy::units::Joules;
use serde::{Deserialize, Serialize};

use crate::BackupModel;

/// When the platform decides to perform a backup.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BackupPolicy {
    /// Demand backup (hardware NVPs): back up when stored energy falls to
    /// `margin ×` the backup cost. `margin` > 1 reserves headroom; values
    /// near 1 are greedy and risk losing the checkpoint.
    OnDemand {
        /// Reserve multiplier over the backup energy (≥ 0).
        margin: f64,
    },
    /// Periodic checkpointing (Mementos-class): back up every
    /// `interval_s` of active execution, regardless of energy.
    Periodic {
        /// Active-time between checkpoints, seconds.
        interval_s: f64,
    },
    /// Both: periodic checkpoints *and* a demand backup at the energy
    /// floor (Hibernus++-class).
    Hybrid {
        /// Active-time between checkpoints, seconds.
        interval_s: f64,
        /// Reserve multiplier over the backup energy.
        margin: f64,
    },
}

impl BackupPolicy {
    /// The default hardware-NVP policy: demand backup with 1.5× reserve.
    #[must_use]
    pub fn demand() -> Self {
        BackupPolicy::OnDemand { margin: 1.5 }
    }

    /// Energy floor at which a demand backup triggers
    /// ([`Joules::ZERO`] for purely periodic policies).
    #[must_use]
    pub fn reserve(&self, backup: &BackupModel) -> Joules {
        match *self {
            BackupPolicy::OnDemand { margin } | BackupPolicy::Hybrid { margin, .. } => {
                margin * backup.backup_energy
            }
            BackupPolicy::Periodic { .. } => Joules::ZERO,
        }
    }

    /// Periodic interval, if any.
    #[must_use]
    pub fn interval_s(&self) -> Option<f64> {
        match *self {
            BackupPolicy::Periodic { interval_s } | BackupPolicy::Hybrid { interval_s, .. } => {
                Some(interval_s)
            }
            BackupPolicy::OnDemand { .. } => None,
        }
    }
}

/// Operating thresholds derived from a backup model and policy.
///
/// * the platform leaves the off state once stored energy reaches
///   `start` (enough to restore, do useful work, and still afford the
///   next backup),
/// * a demand backup triggers when energy falls to `backup_reserve`.
///
/// # Example
///
/// ```
/// use nvp_core::{BackupModel, BackupPolicy, Thresholds};
/// use nvp_device::NvmTechnology;
/// use nvp_energy::units::Joules;
///
/// let model = BackupModel::distributed(NvmTechnology::Feram, 2048);
/// let th = Thresholds::derive(&model, &BackupPolicy::demand(), Joules::new(500e-9));
/// assert!(th.start > th.backup_reserve);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Thresholds {
    /// Stored energy required to begin (or resume) execution.
    pub start: Joules,
    /// Stored-energy floor that triggers a demand backup.
    pub backup_reserve: Joules,
}

impl Thresholds {
    /// Derives thresholds: the reserve comes from the policy, and the
    /// start level adds the restore cost plus `work_headroom` of
    /// useful-work budget so the platform does not thrash on/off.
    #[must_use]
    pub fn derive(backup: &BackupModel, policy: &BackupPolicy, work_headroom: Joules) -> Self {
        let reserve = policy.reserve(backup).max(backup.backup_energy);
        Thresholds {
            start: reserve + backup.restore_energy + work_headroom,
            backup_reserve: reserve,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_device::NvmTechnology;

    fn model() -> BackupModel {
        BackupModel::distributed(NvmTechnology::Feram, 2048)
    }

    #[test]
    fn demand_reserve_scales_with_margin() {
        let m = model();
        let tight = BackupPolicy::OnDemand { margin: 1.0 };
        let safe = BackupPolicy::OnDemand { margin: 2.0 };
        assert!(safe.reserve(&m) > tight.reserve(&m));
        assert!((tight.reserve(&m) - m.backup_energy).abs() < Joules::new(1e-15));
    }

    #[test]
    fn periodic_has_no_energy_floor() {
        let m = model();
        assert_eq!(BackupPolicy::Periodic { interval_s: 0.01 }.reserve(&m), Joules::ZERO);
        assert_eq!(BackupPolicy::Periodic { interval_s: 0.01 }.interval_s(), Some(0.01));
        assert_eq!(BackupPolicy::demand().interval_s(), None);
    }

    #[test]
    fn thresholds_ordering() {
        let m = model();
        let th = Thresholds::derive(&m, &BackupPolicy::demand(), Joules::new(1e-6));
        assert!(th.start > th.backup_reserve + m.restore_energy * 0.99);
        assert!(th.backup_reserve >= m.backup_energy);
    }

    #[test]
    fn reserve_never_below_backup_cost() {
        let m = model();
        // A sub-unity margin must still reserve at least one backup.
        let th = Thresholds::derive(&m, &BackupPolicy::OnDemand { margin: 0.1 }, Joules::ZERO);
        assert!(th.backup_reserve >= m.backup_energy);
    }
}
