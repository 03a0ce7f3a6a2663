//! **T2 — system energy distribution by application class.**
//!
//! The motivation table: once IoT nodes post-process locally, computation
//! dominates system energy (published compute shares: temperature sensing
//! 2.4 %, UV metering 16.8 %, pattern matching 59.5 %, image processing
//! up to 95 %).

use nvp_core::AppProfile;
use serde::{Deserialize, Serialize};

use crate::report::fmt;
use crate::{ExpConfig, Table};

/// One application class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Application name.
    pub app: String,
    /// Compute share of per-result energy.
    pub compute_share: f64,
    /// Radio share.
    pub radio_share: f64,
    /// Sensing share.
    pub sense_share: f64,
    /// Compute energy per result, µJ.
    pub compute_uj: f64,
    /// Radio energy per result, µJ.
    pub radio_uj: f64,
}

/// Energy shares for the standard application suite.
#[must_use]
pub fn rows(_cfg: &ExpConfig) -> Vec<Row> {
    AppProfile::standard_suite()
        .into_iter()
        .map(|p| {
            let s = p.shares();
            Row {
                app: p.name.clone(),
                compute_share: s.compute,
                radio_share: s.radio,
                sense_share: s.sense,
                compute_uj: p.compute_energy_j() * 1e6,
                radio_uj: p.radio_energy_j() * 1e6,
            }
        })
        .collect()
}

/// Renders the table.
#[must_use]
pub fn table(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "T2",
        "System energy distribution by application class (89.1 mW radio @ 250 kbps, 0.209 mW core @ 1 MHz)",
        &["application", "compute_share", "radio_share", "sense_share", "compute_uj", "radio_uj"],
    );
    for r in rows(cfg) {
        t.push_row(vec![
            r.app,
            fmt(r.compute_share, 3),
            fmt(r.radio_share, 3),
            fmt(r.sense_share, 3),
            fmt(r.compute_uj, 2),
            fmt(r.radio_uj, 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_shares_reproduced() {
        let rows = rows(&ExpConfig::quick());
        let share = |name: &str| rows.iter().find(|r| r.app.contains(name)).unwrap().compute_share;
        assert!((share("temperature") - 0.024).abs() < 0.01);
        assert!((share("UV") - 0.168).abs() < 0.03);
        assert!((share("pattern") - 0.595).abs() < 0.05);
        assert!(share("image") > 0.9);
    }

    #[test]
    fn shares_sum_to_one() {
        for r in rows(&ExpConfig::quick()) {
            assert!(
                (r.compute_share + r.radio_share + r.sense_share - 1.0).abs() < 1e-9,
                "{}",
                r.app
            );
        }
    }
}
