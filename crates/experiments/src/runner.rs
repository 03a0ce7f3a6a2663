//! Regenerates tables/figures from the registry and writes artifacts.
//!
//! Since the `nvpd` refactor this module is a thin filesystem adapter
//! over the [`crate::job`] layer: every entry point builds a
//! [`CampaignRequest`], executes it with [`job::run_request`] (one
//! flattened task list on the task scheduler — see
//! [`crate::sched`]), and renders the returned [`CampaignResult`] with
//! its `write` method. The same request/result pair travels over the
//! wire to the campaign server, so in-process and remote runs share one
//! execution path and one artifact renderer — which is what pins them
//! byte-identical under the golden digests. [`run_all_sequential`]
//! produces the same bytes one builder at a time (enforced by
//! `tests/determinism.rs`). A subset by id (`repro --only f5,t1`) is a
//! [`CampaignRequest::only`] passed to [`job::run_request`].

use std::io;
use std::path::{Path, PathBuf};

use crate::job::{self, CampaignRequest, CampaignResult};
use crate::registry::registry;
use crate::sched::sched_stats;
use crate::simcache::{sim_cache_stats, SimCacheStats};
use crate::stats::{exec_stats, ExecStats};
use crate::{f1_power_profiles, ExpConfig, Table};

/// What a runner call produced.
#[derive(Debug)]
pub struct RunArtifacts {
    /// Every regenerated table, in registry order.
    pub tables: Vec<Table>,
    /// Paths of the files written.
    pub files: Vec<PathBuf>,
    /// Simulation-cache hits/misses during this runner call
    /// (experiments replaying an identical simulation skip it).
    pub cache: SimCacheStats,
    /// Execution-tier counters during this runner call: lane-group
    /// dispatch.
    pub exec: ExecStats,
}

/// Executes `result`'s write phase and repackages it as [`RunArtifacts`].
fn into_artifacts(result: CampaignResult, out_dir: &Path) -> io::Result<RunArtifacts> {
    let files = result.write(out_dir)?;
    Ok(RunArtifacts { tables: result.tables, files, cache: result.cache, exec: result.exec })
}

/// Regenerates the full evaluation and writes one CSV per table, one
/// CSV per raw power-profile series, and a combined `RESULTS.md`, into
/// `out_dir` (created if missing). Builders and profile series run as
/// one flattened task list on the task scheduler; set
/// `NVP_THREADS=1` to force a fully sequential run.
///
/// # Errors
///
/// Returns any filesystem error encountered while writing.
pub fn run_all(cfg: &ExpConfig, out_dir: &Path) -> io::Result<RunArtifacts> {
    let result = job::run_request(&CampaignRequest::all(cfg.clone()))?;
    into_artifacts(result, out_dir)
}

/// [`run_all`] with every builder evaluated in registry order on the
/// calling thread — the reference implementation the parallel runner
/// must byte-match. (Point sweeps inside individual experiments still
/// use the shared pool unless `NVP_THREADS=1`.)
///
/// # Errors
///
/// Returns any filesystem error encountered while writing.
pub fn run_all_sequential(cfg: &ExpConfig, out_dir: &Path) -> io::Result<RunArtifacts> {
    let cache_before = sim_cache_stats();
    let sched_before = sched_stats();
    let exec_before = exec_stats();
    let tables: Vec<Table> = registry().iter().map(|e| e.build(cfg)).collect();
    let profiles =
        cfg.profile_seeds.iter().map(|&seed| (seed, f1_power_profiles::trace(cfg, seed))).collect();
    let result = CampaignResult {
        tables,
        profiles,
        cache: sim_cache_stats().since(cache_before),
        sched: sched_stats().since(sched_before),
        exec: exec_stats().since(exec_before),
    };
    into_artifacts(result, out_dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A temp dir unique to this process *and* call site, so concurrent
    /// test invocations never race on `remove_dir_all`.
    fn unique_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("{tag}_{}_{n}", std::process::id()))
    }

    #[test]
    fn run_all_quick_writes_everything() {
        let dir = unique_dir("nvp_exp_runner_test");
        let artifacts = run_all(&ExpConfig::quick(), &dir).unwrap();
        assert_eq!(artifacts.tables.len(), registry().len());
        // 16 tables + 2 profile series + RESULTS.md
        assert_eq!(artifacts.files.len(), 19);
        for f in &artifacts.files {
            assert!(f.exists(), "{}", f.display());
            assert!(fs::metadata(f).unwrap().len() > 0, "{}", f.display());
        }
        // Every artifact file stem agrees with its registry id.
        for (table, exp) in artifacts.tables.iter().zip(registry()) {
            assert_eq!(table.id().to_lowercase(), exp.id(), "table/registry id mismatch");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_all_quick_hits_sim_cache() {
        let cold_dir = unique_dir("nvp_exp_cache_cold");
        let warm_dir = unique_dir("nvp_exp_cache_warm");
        let cold = run_all(&ExpConfig::quick(), &cold_dir).unwrap();
        assert!(cold.cache.hits + cold.cache.misses > 0, "run_all issued no simulations");
        // Every simulation the repeat run needs is now cached, so it
        // must record hits (misses can still appear in the delta from
        // concurrently-running tests — only hits are asserted).
        let warm = run_all(&ExpConfig::quick(), &warm_dir).unwrap();
        assert!(warm.cache.hits > 0, "repeat run_all produced no cache hits: {:?}", warm.cache);
        let _ = fs::remove_dir_all(&cold_dir);
        let _ = fs::remove_dir_all(&warm_dir);
    }
}
