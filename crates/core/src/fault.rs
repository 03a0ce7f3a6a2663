//! Deterministic fault injection for the backup/restore safety path.
//!
//! The platform loop in [`crate::IntermittentSystem`] normally treats
//! backup and restore as infallible; real NVM checkpointing is not
//! (torn writes when the supply collapses mid-backup, retention decay
//! while powered off, peripheral restore failures). A [`FaultPlan`]
//! switches those failure modes on with seeded, reproducible sampling:
//! every run is a pure function of the plan, the trace, and the
//! configuration, so Monte-Carlo campaigns (experiment F12) stay
//! bit-identical across reruns and thread counts.
//!
//! The experiment layer writes every field of the plan into the
//! simulation-cache key, exactly like [`crate::SystemConfig`] and
//! [`crate::BackupModel`], so cached faulted runs never alias fault-free
//! ones.
//!
//! With every rate at zero and no retention profile the plan is
//! [`disabled`](FaultPlan::enabled): the platform draws **no** random
//! numbers and takes the exact legacy code paths, keeping fault-free
//! artifacts byte-identical (pinned by the golden-digest suite).

use nvp_device::BitRetention;
use serde::{Deserialize, Serialize};

/// Seeded fault-injection configuration for an intermittent platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the platform's fault-sampling RNG. Two platforms with
    /// the same plan, program, and trace behave identically.
    pub seed: u64,
    /// Probability that a backup write tears (loses power mid-write,
    /// leaving a partial image whose CRC commit record never lands).
    pub tear_prob: f64,
    /// Probability that a restore fails outright (wake-up logic reads
    /// garbage before checkpoint verification even starts).
    pub restore_fail_prob: f64,
    /// Per-bit retention profile applied to stored checkpoint words over
    /// each off-time interval; `None` models ideal decade-class
    /// retention (no decay).
    pub retention: Option<BitRetention>,
    /// How many times a torn backup (or failed restore) is retried
    /// before the platform gives up and degrades gracefully.
    pub max_retries: u32,
    /// Energy-threshold backoff per backup retry: attempt *k* requires
    /// `backup_energy × backoff^k` in storage before it is attempted,
    /// so a browning-out supply stops burning energy on doomed writes.
    pub retry_backoff: f64,
}

impl FaultPlan {
    /// The fault-free plan: all rates zero, no retention decay. With
    /// this plan the platform is bit-identical to one built without any
    /// plan at all.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            tear_prob: 0.0,
            restore_fail_prob: 0.0,
            retention: None,
            max_retries: 2,
            retry_backoff: 1.5,
        }
    }

    /// A plan with the given seed and tear / restore-failure rates,
    /// default retry bounds, and no retention decay.
    #[must_use]
    pub fn with_rates(seed: u64, tear_prob: f64, restore_fail_prob: f64) -> Self {
        FaultPlan { seed, tear_prob, restore_fail_prob, ..FaultPlan::none() }
    }

    /// Returns a copy with a retention-decay profile for stored
    /// checkpoint words.
    #[must_use]
    pub fn with_retention(mut self, retention: BitRetention) -> Self {
        self.retention = Some(retention);
        self
    }

    /// `true` when any fault mechanism can fire. A disabled plan draws
    /// no random numbers and adds no events, keeping runs bit-identical
    /// to the fault-free platform.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.tear_prob > 0.0 || self.restore_fail_prob > 0.0 || self.retention.is_some()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_device::{RelaxPolicy, RetentionShaper};

    #[test]
    fn none_is_disabled() {
        assert!(!FaultPlan::none().enabled());
        assert!(!FaultPlan::default().enabled());
    }

    #[test]
    fn any_mechanism_enables() {
        assert!(FaultPlan::with_rates(1, 0.1, 0.0).enabled());
        assert!(FaultPlan::with_rates(1, 0.0, 0.1).enabled());
        let ret = RetentionShaper::new(RelaxPolicy::Linear, 16, 0.01, 3600.0).bit_retention();
        assert!(FaultPlan::none().with_retention(ret).enabled());
    }
}
