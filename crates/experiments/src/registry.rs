//! The declarative experiment registry.
//!
//! Every table/figure of the reconstructed evaluation registers here
//! once, as an [`Experiment`]; the job layer ([`crate::job`]), the
//! `repro` binary (`--list` / `--only`), and the examples all consult
//! this one list. Adding experiment 16 means writing its module and
//! appending one entry — no job-layer, binary, or example changes.

use crate::plan::{self, Outcomes, Plan};
use crate::{
    f10_policy_sweep, f11_clock_scaling, f12_fault_resilience, f1_power_profiles, f2_outage_stats,
    f3_forward_progress, f4_backup_overhead, f5_capacitor_sweep, f6_restore_sensitivity,
    f7_tech_sweep, f8_frame_latency, f9_retention_relaxation, t1_chip_gallery,
    t2_energy_distribution, t3_backup_strategies, ExpConfig, Table,
};

/// A table/figure builder registered with the evaluation harness.
///
/// An experiment is a plan and a render: [`plan`](Self::plan) lists
/// the labelled work its table needs, and its render builds the table
/// from that work's outcomes in plan order, without calling the
/// simulator. Both are deterministic functions of the [`ExpConfig`],
/// which is what lets a campaign run every experiment's work in one
/// flat list yet write byte-identical artifacts.
pub struct Experiment {
    id: &'static str,
    title: &'static str,
    plan: fn(&ExpConfig) -> Plan,
    render: fn(&ExpConfig, &mut Outcomes) -> Table,
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

    /// Builds the experiment's table for a configuration: plans it,
    /// runs the plan, and renders.
    #[must_use]
    pub fn build(&self, cfg: &ExpConfig) -> Table {
        plan::build(cfg, self.plan(cfg), self.render)
    }

    /// The labelled work [`build`](Self::build) runs: what a campaign
    /// simulates for this experiment, and what `repro --check` judges.
    /// Empty for experiments that read no trace.
    #[must_use]
    pub fn plan(&self, cfg: &ExpConfig) -> Plan {
        (self.plan)(cfg)
    }

    /// The table, from the outcomes of this experiment's plan.
    pub(crate) fn render(&self, cfg: &ExpConfig, outcomes: &mut Outcomes) -> Table {
        (self.render)(cfg, outcomes)
    }
}

/// Bin count of the F2 outage-duration histogram artifact.
const F2_HISTOGRAM_BINS: usize = 16;

/// Every registered experiment, in artifact order.
static REGISTRY: [Experiment; 16] = [
    Experiment {
        id: "t1",
        title: "NVP chip & technology gallery (published silicon vs framework models)",
        plan: |_| Plan::default(),
        render: |cfg, _| t1_chip_gallery::table(cfg),
    },
    Experiment {
        id: "f1",
        title: "Wearable harvester power profiles (synthetic, seeded)",
        plan: f1_power_profiles::plan,
        render: f1_power_profiles::render,
    },
    Experiment {
        id: "f2",
        title: "Power-emergency statistics at the 33 µW operating threshold",
        plan: f2_outage_stats::plan,
        render: f2_outage_stats::render,
    },
    Experiment {
        id: "f2h",
        title: "Outage-duration histogram",
        plan: |cfg| f2_outage_stats::histogram_plan(cfg, cfg.profile_seeds[0]),
        render: |_, out| f2_outage_stats::histogram(&out.summary(), F2_HISTOGRAM_BINS),
    },
    Experiment {
        id: "f3",
        title: "Forward progress: hardware NVP vs wait-compute vs software checkpointing",
        plan: f3_forward_progress::plan,
        render: f3_forward_progress::render,
    },
    Experiment {
        id: "f4",
        title: "Backup overheads (published: 1400-1700 backups/min, 20-33% of income energy)",
        plan: f4_backup_overhead::plan,
        render: f4_backup_overhead::render,
    },
    Experiment {
        id: "f5",
        title: "Forward progress vs storage capacitance (NVP buffer vs wait-compute ESD)",
        plan: f5_capacitor_sweep::plan,
        render: f5_capacitor_sweep::render,
    },
    Experiment {
        id: "f6",
        title: "Forward progress vs restore (wake-up) latency",
        plan: f6_restore_sensitivity::plan,
        render: f6_restore_sensitivity::render,
    },
    Experiment {
        id: "f7",
        title: "Forward progress and endurance by NVM technology and harvester class",
        plan: f7_tech_sweep::plan,
        render: f7_tech_sweep::render,
    },
    Experiment {
        id: "t2",
        title: "System energy distribution by application class",
        plan: |_| Plan::default(),
        render: |cfg, _| t2_energy_distribution::table(cfg),
    },
    Experiment {
        id: "f8",
        title: "Seconds per processed frame on harvested power (NVP vs wait-compute)",
        plan: f8_frame_latency::plan,
        render: f8_frame_latency::render,
    },
    Experiment {
        id: "t3",
        title: "Backup strategies: distributed NVFF vs centralized copy vs software",
        plan: t3_backup_strategies::plan,
        render: t3_backup_strategies::render,
    },
    Experiment {
        id: "f9",
        title: "Retention-relaxed backup: energy saved, forward-progress gain, decay risk",
        plan: f9_retention_relaxation::plan,
        render: f9_retention_relaxation::render,
    },
    Experiment {
        id: "f10",
        title: "Backup-policy sweep: demand margins vs periodic checkpointing",
        plan: f10_policy_sweep::plan,
        render: f10_policy_sweep::render,
    },
    Experiment {
        id: "f11",
        title: "Clock scaling: fixed frequencies vs income-adaptive",
        plan: f11_clock_scaling::plan,
        render: f11_clock_scaling::render,
    },
    Experiment {
        id: "f12",
        title: "Fault-injection resilience: torn backups, retention decay, restore failures",
        plan: f12_fault_resilience::plan,
        render: f12_fault_resilience::render,
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
        // `tests/determinism.rs` checks the full set on a complete run.
        assert_eq!(find("t1").unwrap().build(&cfg).id().to_lowercase(), "t1");
        assert_eq!(find("f2h").unwrap().build(&cfg).id().to_lowercase(), "f2h");
    }
}
