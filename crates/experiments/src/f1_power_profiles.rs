//! **F1 — the five wearable power profiles.**
//!
//! Summary statistics for the synthetic "watch in daily life" traces
//! (published envelope: 10–40 µW averages, spikes to ~2000 µW). The raw
//! sample series are exported as CSV by the runner for plotting.

use std::sync::Arc;

use nvp_energy::PowerTrace;
use serde::{Deserialize, Serialize};

use crate::common::watch_trace;
use crate::report::fmt;
use crate::{ExpConfig, Table};

/// Per-profile summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Profile seed (1–5).
    pub profile: u64,
    /// Mean power, µW.
    pub average_uw: f64,
    /// Peak power, µW.
    pub peak_uw: f64,
    /// Total harvested energy over the window, µJ.
    pub energy_uj: f64,
    /// Trace duration, s.
    pub duration_s: f64,
}

/// The raw trace for one profile (for CSV export / plotting): the
/// memoized trace every experiment on this profile shares, not a copy.
/// A [`CampaignResult`](crate::CampaignResult) holds it as is and
/// renders its CSV only when written.
#[must_use]
pub fn trace(cfg: &ExpConfig, profile: u64) -> Arc<PowerTrace> {
    watch_trace(cfg, profile).shared()
}

/// [`trace`] under its former name, for the benchmark client, whose
/// `series(cfg, seed).to_csv()` must still yield a
/// [`CampaignResult::profiles`](crate::CampaignResult::profiles)
/// element.
#[doc(hidden)]
#[must_use]
pub fn series(cfg: &ExpConfig, profile: u64) -> Series {
    Series(trace(cfg, profile))
}

/// What [`series`] returns.
#[doc(hidden)]
#[derive(Debug)]
pub struct Series(Arc<PowerTrace>);

impl Series {
    /// The trace itself, not its CSV: a result renders profiles only
    /// when written.
    #[must_use]
    pub fn to_csv(&self) -> Arc<PowerTrace> {
        Arc::clone(&self.0)
    }
}

/// Summary rows for all configured profiles.
#[must_use]
pub fn rows(cfg: &ExpConfig) -> Vec<Row> {
    cfg.profile_seeds
        .iter()
        .map(|&seed| {
            let t = watch_trace(cfg, seed);
            Row {
                profile: seed,
                average_uw: t.average_w() * 1e6,
                peak_uw: t.peak_w() * 1e6,
                energy_uj: t.total_energy_j() * 1e6,
                duration_s: t.duration_s(),
            }
        })
        .collect()
}

/// Renders the summary table.
#[must_use]
pub fn table(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "F1",
        "Wearable harvester power profiles (synthetic, seeded)",
        &["profile", "average_uw", "peak_uw", "energy_uj", "duration_s"],
    );
    for r in rows(cfg) {
        t.push_row(vec![
            r.profile.to_string(),
            fmt(r.average_uw, 1),
            fmt(r.peak_uw, 0),
            fmt(r.energy_uj, 1),
            fmt(r.duration_s, 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_published_envelope() {
        let cfg = ExpConfig::default();
        for r in rows(&cfg) {
            assert!(
                r.average_uw > 8.0 && r.average_uw < 60.0,
                "profile {}: {}",
                r.profile,
                r.average_uw
            );
            assert!(r.peak_uw > 500.0 && r.peak_uw <= 2200.0, "profile {}", r.profile);
        }
    }

    #[test]
    fn series_is_full_length() {
        let cfg = ExpConfig::quick();
        let s = trace(&cfg, 1);
        assert_eq!(s.duration_s(), cfg.trace_duration_s);
    }
}
