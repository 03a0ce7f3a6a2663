//! **F1 — the five wearable power profiles.**
//!
//! Summary statistics for the synthetic "watch in daily life" traces
//! (published envelope: 10–40 µW averages, spikes to ~2000 µW). The raw
//! sample series are exported as CSV by
//! [`CampaignResult::write`](crate::CampaignResult::write) for
//! plotting, streamed from the generator when written.

use serde::{Deserialize, Serialize};

use crate::common::{watch_trace, TraceSpec};
use crate::plan::{self, Outcomes, Plan};
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

/// The raw trace for one profile (for CSV export / plotting), as its
/// spec: a [`CampaignResult`](crate::CampaignResult) holds it as is,
/// and its CSV is streamed from the generator only when written.
pub(crate) fn profile(cfg: &ExpConfig, seed: u64) -> TraceSpec {
    TraceSpec::new(nvp_energy::harvester::SourceKind::WristWatch, seed, cfg.trace_duration_s)
}

/// A profile's spec under the benchmark client's older name, whose
/// `series(cfg, seed).to_csv()` must still yield a
/// [`CampaignResult::profiles`](crate::CampaignResult::profiles)
/// element.
#[doc(hidden)]
#[must_use]
pub fn series(cfg: &ExpConfig, profile: u64) -> Series {
    Series(self::profile(cfg, profile))
}

/// What [`series`] returns.
#[doc(hidden)]
#[derive(Debug)]
pub struct Series(TraceSpec);

impl Series {
    /// The trace's spec, not its CSV: a result renders profiles only
    /// when written.
    #[must_use]
    pub fn to_csv(&self) -> TraceSpec {
        self.0
    }
}

/// F1's work: every profile's summary, in seed order. F2 reads the
/// same summaries.
pub(crate) fn plan(cfg: &ExpConfig) -> Plan {
    let mut plan = Plan::default();
    for &seed in &cfg.profile_seeds {
        plan.summary(&watch_trace(cfg, seed));
    }
    plan
}

/// The rows, from [`plan`]'s outcomes.
fn read(cfg: &ExpConfig, out: &mut Outcomes) -> Vec<Row> {
    cfg.profile_seeds
        .iter()
        .map(|&seed| {
            let s = out.summary();
            Row {
                profile: seed,
                average_uw: s.average_w * 1e6,
                peak_uw: s.peak_w * 1e6,
                energy_uj: s.total_energy_j * 1e6,
                duration_s: s.duration_s,
            }
        })
        .collect()
}

/// Summary rows for all configured profiles.
#[must_use]
pub fn rows(cfg: &ExpConfig) -> Vec<Row> {
    plan::build(cfg, plan(cfg), read)
}

/// The table, from [`plan`]'s outcomes.
pub(crate) fn render(cfg: &ExpConfig, out: &mut Outcomes) -> Table {
    let mut t = Table::new(
        "F1",
        "Wearable harvester power profiles (synthetic, seeded)",
        &["profile", "average_uw", "peak_uw", "energy_uj", "duration_s"],
    );
    for r in read(cfg, out) {
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
        let s = profile(&cfg, 1);
        assert_eq!(s.duration_s(), cfg.trace_duration_s);
        assert_eq!(s.generate().duration_s(), cfg.trace_duration_s);
    }
}
