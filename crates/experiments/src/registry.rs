//! The declarative experiment registry.
//!
//! Every table/figure of the reconstructed evaluation registers here
//! once, as an [`Experiment`]; the runner, the `repro` binary
//! (`--list` / `--only`), and the examples all consult this one list.
//! Adding experiment 16 means writing its module and appending one
//! entry — no runner, binary, or example changes.

use crate::common::Setup;
use crate::{
    f10_policy_sweep, f11_clock_scaling, f12_fault_resilience, f1_power_profiles, f2_outage_stats,
    f3_forward_progress, f4_backup_overhead, f5_capacitor_sweep, f6_restore_sensitivity,
    f7_tech_sweep, f8_frame_latency, f9_retention_relaxation, t1_chip_gallery,
    t2_energy_distribution, t3_backup_strategies, ExpConfig, Table,
};

/// A table/figure builder registered with the evaluation harness.
///
/// Builders must be pure: [`build`](Self::build) is a deterministic
/// function of the [`ExpConfig`], which is what lets the runner
/// evaluate experiments concurrently yet write byte-identical
/// artifacts.
pub struct Experiment {
    id: &'static str,
    title: &'static str,
    build: fn(&ExpConfig) -> Table,
    setups: fn(&ExpConfig) -> Vec<(String, Setup)>,
}

impl Experiment {
    /// Stable lower-case identifier (e.g. `"f5"`) — also the artifact
    /// file stem (`f5.csv`) and the handle `repro --only` accepts.
    #[must_use]
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// One-line human-readable title (shown by `repro --list`).
    #[must_use]
    pub fn title(&self) -> &'static str {
        self.title
    }

    /// Builds the experiment's table for a configuration.
    #[must_use]
    pub fn build(&self, cfg: &ExpConfig) -> Table {
        (self.build)(cfg)
    }

    /// The labelled platform setups [`build`](Self::build) is about
    /// to simulate, for static feasibility checking (`repro --check`).
    /// Empty for experiments that simulate no platform.
    #[must_use]
    pub fn setups(&self, cfg: &ExpConfig) -> Vec<(String, Setup)> {
        (self.setups)(cfg)
    }
}

/// Bin count of the F2 outage-duration histogram artifact.
const F2_HISTOGRAM_BINS: usize = 16;

fn f2_histogram(cfg: &ExpConfig) -> Table {
    f2_outage_stats::histogram_table(cfg, cfg.profile_seeds[0], F2_HISTOGRAM_BINS)
}

/// The declaration of an experiment that tabulates without simulating
/// a platform.
fn no_setups(_cfg: &ExpConfig) -> Vec<(String, Setup)> {
    Vec::new()
}

/// Every registered experiment, in artifact order.
static REGISTRY: [Experiment; 16] = [
    Experiment {
        id: "t1",
        title: "NVP chip & technology gallery (published silicon vs framework models)",
        build: t1_chip_gallery::table,
        setups: no_setups,
    },
    Experiment {
        id: "f1",
        title: "Wearable harvester power profiles (synthetic, seeded)",
        build: f1_power_profiles::table,
        setups: no_setups,
    },
    Experiment {
        id: "f2",
        title: "Power-emergency statistics at the 33 µW operating threshold",
        build: f2_outage_stats::table,
        setups: no_setups,
    },
    Experiment {
        id: "f2h",
        title: "Outage-duration histogram",
        build: f2_histogram,
        setups: no_setups,
    },
    Experiment {
        id: "f3",
        title: "Forward progress: hardware NVP vs wait-compute vs software checkpointing",
        build: f3_forward_progress::table,
        setups: f3_forward_progress::setups,
    },
    Experiment {
        id: "f4",
        title: "Backup overheads (published: 1400-1700 backups/min, 20-33% of income energy)",
        build: f4_backup_overhead::table,
        setups: f4_backup_overhead::setups,
    },
    Experiment {
        id: "f5",
        title: "Forward progress vs storage capacitance (NVP buffer vs wait-compute ESD)",
        build: f5_capacitor_sweep::table,
        setups: f5_capacitor_sweep::setups,
    },
    Experiment {
        id: "f6",
        title: "Forward progress vs restore (wake-up) latency",
        build: f6_restore_sensitivity::table,
        setups: f6_restore_sensitivity::setups,
    },
    Experiment {
        id: "f7",
        title: "Forward progress and endurance by NVM technology and harvester class",
        build: f7_tech_sweep::table,
        setups: f7_tech_sweep::setups,
    },
    Experiment {
        id: "t2",
        title: "System energy distribution by application class",
        build: t2_energy_distribution::table,
        setups: no_setups,
    },
    Experiment {
        id: "f8",
        title: "Seconds per processed frame on harvested power (NVP vs wait-compute)",
        build: f8_frame_latency::table,
        setups: f8_frame_latency::setups,
    },
    Experiment {
        id: "t3",
        title: "Backup strategies: distributed NVFF vs centralized copy vs software",
        build: t3_backup_strategies::table,
        setups: t3_backup_strategies::setups,
    },
    Experiment {
        id: "f9",
        title: "Retention-relaxed backup: energy saved, forward-progress gain, decay risk",
        build: f9_retention_relaxation::table,
        setups: f9_retention_relaxation::setups,
    },
    Experiment {
        id: "f10",
        title: "Backup-policy sweep: demand margins vs periodic checkpointing",
        build: f10_policy_sweep::table,
        setups: f10_policy_sweep::setups,
    },
    Experiment {
        id: "f11",
        title: "Clock scaling: fixed frequencies vs income-adaptive",
        build: f11_clock_scaling::table,
        setups: f11_clock_scaling::setups,
    },
    Experiment {
        id: "f12",
        title: "Fault-injection resilience: torn backups, retention decay, restore failures",
        build: f12_fault_resilience::table,
        setups: f12_fault_resilience::setups,
    },
];

/// The registered experiments, in artifact order.
#[must_use]
pub fn registry() -> &'static [Experiment] {
    &REGISTRY
}

/// Looks up an experiment by id, case-insensitively.
#[must_use]
pub fn find(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.id().eq_ignore_ascii_case(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_lowercase() {
        let mut seen = std::collections::BTreeSet::new();
        for e in registry() {
            assert_eq!(e.id(), e.id().to_lowercase(), "registry ids are lowercase");
            assert!(seen.insert(e.id()), "duplicate experiment id {}", e.id());
            assert!(!e.title().is_empty());
        }
        assert_eq!(registry().len(), 16);
    }

    #[test]
    fn find_is_case_insensitive() {
        assert!(find("f5").is_some());
        assert!(find("F5").is_some());
        assert!(find("F2H").is_some());
        assert!(find("nope").is_none());
    }

    /// Registry ids must match the table ids the builders emit — the
    /// artifact file stem is derived from the table, the `--only`
    /// handle from the registry, and they must agree.
    #[test]
    fn registry_ids_match_table_ids() {
        let cfg = ExpConfig::quick();
        // The two cheapest builders cover both naming styles (T*/F*);
        // the runner test checks the full set on a complete run.
        assert_eq!(find("t1").unwrap().build(&cfg).id().to_lowercase(), "t1");
        assert_eq!(find("f2h").unwrap().build(&cfg).id().to_lowercase(), "f2h");
    }
}
