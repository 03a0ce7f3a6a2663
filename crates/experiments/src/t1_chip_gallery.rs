//! **T1 — NVP chip & technology gallery.**
//!
//! The survey's "who has built one" table: published NVP silicon
//! operating points side by side with this framework's per-technology
//! distributed-backup models.

use nvp_core::BackupModel;
use nvp_device::{published_chips, NvmTechnology};
use serde::{Deserialize, Serialize};

use crate::common::STATE_BITS;
use crate::report::fmt;
use crate::{ExpConfig, Table};

/// One gallery row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Chip or model name.
    pub name: String,
    /// Backup technology.
    pub tech: String,
    /// Clock, MHz.
    pub clock_mhz: f64,
    /// State covered, bits.
    pub state_bits: u64,
    /// Backup time, µs.
    pub backup_us: f64,
    /// Restore (wake-up) time, µs.
    pub restore_us: f64,
    /// Backup energy, nJ.
    pub backup_nj: f64,
    /// Restore energy, nJ.
    pub restore_nj: f64,
    /// Hardware-managed (transparent) backup?
    pub hardware_managed: bool,
    /// Source.
    pub reference: String,
}

/// Gallery rows: all published chips plus this framework's four
/// technology models.
#[must_use]
pub fn rows(_cfg: &ExpConfig) -> Vec<Row> {
    let mut rows: Vec<Row> = published_chips()
        .into_iter()
        .map(|c| Row {
            name: c.name.clone(),
            tech: c.tech.to_string(),
            clock_mhz: c.clock_hz / 1e6,
            state_bits: c.state_bits,
            backup_us: c.backup_time_s * 1e6,
            restore_us: c.restore_time_s * 1e6,
            backup_nj: c.backup_energy_j * 1e9,
            restore_nj: c.restore_energy_j * 1e9,
            hardware_managed: c.hardware_managed,
            reference: c.reference,
        })
        .collect();
    for tech in NvmTechnology::ALL {
        let m = BackupModel::distributed(tech, STATE_BITS);
        rows.push(Row {
            name: format!("nvp-sim model ({tech})"),
            tech: tech.to_string(),
            clock_mhz: 1.0,
            state_bits: STATE_BITS,
            backup_us: m.backup_time.get() * 1e6,
            restore_us: m.restore_time.get() * 1e6,
            backup_nj: m.backup_energy.get() * 1e9,
            restore_nj: m.restore_energy.get() * 1e9,
            hardware_managed: true,
            reference: "this framework".to_owned(),
        });
    }
    rows
}

/// Renders the gallery.
#[must_use]
pub fn table(cfg: &ExpConfig) -> Table {
    let mut t = Table::new(
        "T1",
        "NVP chip & technology gallery (published silicon vs framework models)",
        &[
            "name",
            "tech",
            "clock_mhz",
            "state_bits",
            "backup_us",
            "restore_us",
            "backup_nj",
            "restore_nj",
            "hw_managed",
            "reference",
        ],
    );
    for r in rows(cfg) {
        t.push_row(vec![
            r.name,
            r.tech,
            fmt(r.clock_mhz, 1),
            r.state_bits.to_string(),
            fmt(r.backup_us, 2),
            fmt(r.restore_us, 2),
            fmt(r.backup_nj, 1),
            fmt(r.restore_nj, 1),
            r.hardware_managed.to_string(),
            r.reference,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gallery_has_chips_and_models() {
        let rows = rows(&ExpConfig::quick());
        assert!(rows.len() >= 10);
        assert!(rows.iter().any(|r| r.reference == "this framework"));
        assert!(rows.iter().any(|r| r.reference.contains("ISSCC")));
        for r in &rows {
            assert!(r.backup_us > 0.0 && r.restore_us > 0.0, "{}", r.name);
        }
    }

    #[test]
    fn table_renders() {
        let t = table(&ExpConfig::quick());
        assert_eq!(t.id(), "T1");
        assert_eq!(t.rows().len(), rows(&ExpConfig::quick()).len());
    }
}
