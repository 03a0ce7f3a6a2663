//! Process-wide execution-tier counters.
//!
//! A campaign's run step dispatches every planned simulation as one
//! lane group (see [`crate::plan`]); these monotone process-wide
//! counters are how that dispatch surfaces in campaign summaries. Deltas are taken with
//! [`ExecStats::since`], mirroring the sim-cache and scheduler counter
//! pattern.

use std::sync::atomic::{AtomicU64, Ordering};

/// Execution-tier counters since process start (monotone; see
/// [`exec_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Always 0: the superblock tier that dispatched block chains was
    /// removed. Kept so existing readers of the field still build.
    pub chain_runs: u64,
    /// Always 0, for the same reason as [`chain_runs`](Self::chain_runs).
    pub side_exits: u64,
    /// Lane groups dispatched: one per planned simulation a job ran or
    /// looked up, whether its sim-cache key hit or missed.
    pub lane_groups: u64,
    /// Simulations carried by those lane groups: one each.
    pub lane_group_items: u64,
}

impl ExecStats {
    /// Counter-wise difference `self - earlier` (saturating), for
    /// per-run deltas against the process-wide counters.
    #[must_use]
    pub fn since(self, earlier: ExecStats) -> ExecStats {
        ExecStats {
            chain_runs: 0,
            side_exits: 0,
            lane_groups: self.lane_groups.saturating_sub(earlier.lane_groups),
            lane_group_items: self.lane_group_items.saturating_sub(earlier.lane_group_items),
        }
    }
}

static LANE_GROUPS: AtomicU64 = AtomicU64::new(0);
static LANE_GROUP_ITEMS: AtomicU64 = AtomicU64::new(0);

/// Process-wide execution-tier counters.
#[must_use]
pub fn exec_stats() -> ExecStats {
    ExecStats {
        chain_runs: 0,
        side_exits: 0,
        lane_groups: LANE_GROUPS.load(Ordering::Relaxed),
        lane_group_items: LANE_GROUP_ITEMS.load(Ordering::Relaxed),
    }
}

/// Records one lane-group dispatch of `items` work items.
pub(crate) fn record_lane_group(items: usize) {
    LANE_GROUPS.fetch_add(1, Ordering::Relaxed);
    LANE_GROUP_ITEMS.fetch_add(items as u64, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_is_saturating_and_counterwise() {
        let a = ExecStats { lane_groups: 4, lane_group_items: 17, ..ExecStats::default() };
        let b = ExecStats { lane_groups: 1, lane_group_items: 5, ..ExecStats::default() };
        let d = a.since(b);
        assert_eq!(d.lane_groups, 3);
        assert_eq!(d.lane_group_items, 12);
        assert_eq!(b.since(a), ExecStats::default(), "saturates at zero");
    }

    #[test]
    fn recording_moves_the_global_counters() {
        let before = exec_stats();
        record_lane_group(8);
        let d = exec_stats().since(before);
        assert!(d.lane_groups >= 1);
        assert!(d.lane_group_items >= 8);
        assert_eq!((d.chain_runs, d.side_exits), (0, 0), "no chain tier remains");
    }
}
