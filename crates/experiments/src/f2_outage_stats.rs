//! **F2 — outage durations and emergency frequencies.**
//!
//! The statistics that make the NVP case: at a 33 µW operating threshold
//! a wrist harvester suffers on the order of a thousand power emergencies
//! per 10 s window, with outages lasting milliseconds — far too frequent
//! for charge-then-compute platforms, and far shorter than decade-class
//! NVM retention.

use serde::{Deserialize, Serialize};

use nvp_energy::TraceSummary;

use crate::common::watch_trace;
use crate::plan::{self, Outcomes, Plan};
use crate::report::fmt;
use crate::{ExpConfig, Table};

/// Per-profile outage statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Profile seed.
    pub profile: u64,
    /// Falling-edge power emergencies per 10 s.
    pub emergencies_per_10s: f64,
    /// Mean outage duration, ms.
    pub mean_outage_ms: f64,
    /// Longest outage, ms.
    pub longest_outage_ms: f64,
    /// Fraction of time at or above the threshold.
    pub above_threshold: f64,
}

/// F2's work: the profile summaries F1 reads.
pub(crate) use crate::f1_power_profiles::plan;

/// The rows, from [`plan`]'s outcomes.
fn read(cfg: &ExpConfig, out: &mut Outcomes) -> Vec<Row> {
    cfg.profile_seeds
        .iter()
        .map(|&seed| {
            let summary = out.summary();
            let s = &summary.outages;
            Row {
                profile: seed,
                emergencies_per_10s: s.emergencies_per_10s(summary.duration_s),
                mean_outage_ms: s.mean_outage_s * 1e3,
                longest_outage_ms: s.longest_outage_s * 1e3,
                above_threshold: s.above_threshold_fraction,
            }
        })
        .collect()
}

/// Outage statistics for each configured profile.
#[must_use]
pub fn rows(cfg: &ExpConfig) -> Vec<Row> {
    plan::build(cfg, plan(cfg), read)
}

/// The histogram's work: one profile's summary.
pub(crate) fn histogram_plan(cfg: &ExpConfig, profile: u64) -> Plan {
    let mut plan = Plan::default();
    plan.summary(&watch_trace(cfg, profile));
    plan
}

/// The histogram table of `summary`'s outages in `bins` bins.
pub(crate) fn histogram(summary: &TraceSummary, bins: usize) -> Table {
    let hist = summary.outages.histogram(bins);
    let mut t = Table::new("F2h", "Outage-duration histogram", &["bin_start_ms", "count"]);
    for (edge, count) in hist.bin_edges_s.iter().zip(&hist.counts) {
        t.push_row(vec![fmt(edge * 1e3, 2), count.to_string()]);
    }
    t
}

/// The table, from [`plan`]'s outcomes.
pub(crate) fn render(cfg: &ExpConfig, out: &mut Outcomes) -> Table {
    let mut t = Table::new(
        "F2",
        "Power-emergency statistics at the 33 µW operating threshold",
        &["profile", "emergencies_per_10s", "mean_outage_ms", "longest_outage_ms", "on_fraction"],
    );
    for r in read(cfg, out) {
        t.push_row(vec![
            r.profile.to_string(),
            fmt(r.emergencies_per_10s, 0),
            fmt(r.mean_outage_ms, 2),
            fmt(r.longest_outage_ms, 1),
            fmt(r.above_threshold, 3),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emergencies_in_published_band() {
        // Published: 1000-2000 per 10 s; the synthetic generators land in
        // a compatible band across the standard profiles.
        for r in rows(&ExpConfig::default()) {
            assert!(
                (500.0..2500.0).contains(&r.emergencies_per_10s),
                "profile {}: {}",
                r.profile,
                r.emergencies_per_10s
            );
            assert!(r.mean_outage_ms > 1.0, "outages are ms-scale");
        }
    }

    #[test]
    fn histogram_counts_everything() {
        let cfg = ExpConfig::quick();
        let t = histogram(&watch_trace(&cfg, 1).summary(), 10);
        assert_eq!(t.rows().len(), 10);
        let total: u64 = t.rows().iter().map(|r| r[1].parse::<u64>().unwrap()).sum();
        assert!(total > 0);
    }
}
