//! The campaign job layer: experiments as values.
//!
//! [`CampaignRequest`] names *what* to run — an experiment selection,
//! an [`ExpConfig`] and a seed override — and [`CampaignResult`] is
//! *what came out* — tables, profile trace specs, and
//! per-job cache/scheduler counters. Neither touches the filesystem:
//! results are values first and files second
//! ([`CampaignResult::write`] renders the artifact set). That split is
//! what lets the same request run in-process (`repro`, the examples) or
//! travel over a socket to the `nvpd` campaign server (see
//! [`crate::wire`]) and come back byte-identical: the golden digests
//! pin both transports because both are this one path.

use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};

use nvp_energy::DEFAULT_DT_S;

use crate::common::TraceSpec;
use crate::plan::{self, Plan};
use crate::registry::{find, registry, Experiment};
use crate::sched::{self, sched_stats, SchedStats};
use crate::simcache::{sim_cache_stats, SimCacheStats};
use crate::stats::{exec_stats, ExecStats};
use crate::{f1_power_profiles, ExpConfig, Table};

/// The most samples a trace may hold, 2²¹: about 209 s at
/// [`DEFAULT_DT_S`], a 16 MiB sample array. It caps the work one
/// simulation does and the memory a job holds per worker: a job holds
/// a trace's samples only while a simulation on it is still to run,
/// about one trace per scheduler worker, however many traces it names
/// (a result carries its profiles as specs, so no frame bounds it any
/// more).
/// [`CampaignRequest::resolve`] refuses a longer `trace_duration_s`
/// before anything is generated, and the wire decoder a profile spec
/// over it.
pub const MAX_TRACE_SAMPLES: u32 = 1 << 21;

/// A self-contained campaign job: everything a run needs, nothing
/// about where artifacts will land.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRequest {
    /// Experiment ids to run (matched case-insensitively against the
    /// registry), or `None` for the full evaluation.
    pub only: Option<Vec<String>>,
    /// The experiment configuration.
    pub config: ExpConfig,
    /// Override for `config.fault_seed` (`repro --seed`, per-job seeds
    /// on the server), or `None` to keep the configured value.
    pub seed: Option<u64>,
}

impl CampaignRequest {
    /// A full-evaluation request.
    #[must_use]
    pub fn all(config: ExpConfig) -> CampaignRequest {
        CampaignRequest { only: None, config, seed: None }
    }

    /// A request for a subset of experiment ids (validated at run time).
    #[must_use]
    pub fn only<S: AsRef<str>>(config: ExpConfig, ids: &[S]) -> CampaignRequest {
        CampaignRequest {
            only: Some(ids.iter().map(|s| s.as_ref().to_string()).collect()),
            config,
            seed: None,
        }
    }

    /// The configuration this request actually runs: `config` with the
    /// seed override folded in.
    #[must_use]
    pub fn effective_config(&self) -> ExpConfig {
        let mut cfg = self.config.clone();
        if let Some(s) = self.seed {
            cfg.fault_seed = s;
        }
        cfg
    }

    /// Checks the configuration and resolves the id selection against
    /// the registry: case-insensitive lookup, duplicates dropped,
    /// registry order restored. The server runs this at admission, so a
    /// request it refuses is never journalled.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] for an unknown id, a
    /// `trace_duration_s` that is not finite and positive or is longer
    /// than [`MAX_TRACE_SAMPLES`] samples, no profile seeds, or a zero
    /// frame dimension.
    pub fn resolve(&self) -> io::Result<Vec<&'static Experiment>> {
        check_config(&self.config)?;
        let Some(ids) = &self.only else {
            return Ok(registry().iter().collect());
        };
        let mut selected: Vec<&'static Experiment> = Vec::new();
        for id in ids {
            let exp = find(id).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("unknown experiment id `{id}` (try `repro --list`)"),
                )
            })?;
            if !selected.iter().any(|e| e.id() == exp.id()) {
                selected.push(exp);
            }
        }
        selected.sort_by_key(|e| registry().iter().position(|r| r.id() == e.id()));
        Ok(selected)
    }
}

/// The configuration checks of [`CampaignRequest::resolve`]: each
/// field that sizes what a job allocates must be one it can run.
fn check_config(cfg: &ExpConfig) -> io::Result<()> {
    let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    if let Err(msg) = check_trace_duration(cfg.trace_duration_s) {
        return invalid(format!("trace_duration_s {msg}"));
    }
    if cfg.profile_seeds.is_empty() {
        return invalid("profile_seeds must name at least one profile".to_string());
    }
    if cfg.frame_w == 0 || cfg.frame_h == 0 {
        return invalid(format!("frame must be non-empty (got {}x{})", cfg.frame_w, cfg.frame_h));
    }
    Ok(())
}

/// Why a job cannot generate a trace of `d` seconds, if it cannot: it
/// is not finite and positive, or it is longer than
/// [`MAX_TRACE_SAMPLES`] samples.
pub(crate) fn check_trace_duration(d: f64) -> Result<(), String> {
    if !(d.is_finite() && d > 0.0) {
        return Err(format!("must be finite and positive (got {d})"));
    }
    if (d / DEFAULT_DT_S).round() > f64::from(MAX_TRACE_SAMPLES) {
        let max_s = f64::from(MAX_TRACE_SAMPLES) * DEFAULT_DT_S;
        return Err(format!("{d} exceeds {max_s:.1} s ({MAX_TRACE_SAMPLES} samples)"));
    }
    Ok(())
}

/// What a campaign job produced: pure values plus per-job counters.
/// Render to disk with [`write`](Self::write).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Every regenerated table, in registry order.
    pub tables: Vec<Table>,
    /// Raw `f1` power-profile traces as `(seed, spec)`, in seed order
    /// (empty unless `f1` was selected). A spec names its trace; no
    /// sample is held. [`write`](Self::write) streams each CSV from the
    /// generator.
    pub profiles: Vec<(u64, TraceSpec)>,
    /// Simulation-cache counters for this job
    /// ([`SimCacheStats::since`] delta over the run).
    pub cache: SimCacheStats,
    /// Task-scheduler counters for this job.
    pub sched: SchedStats,
    /// Execution-tier counters for this job: lane-group dispatch
    /// ([`ExecStats::since`] delta).
    pub exec: ExecStats,
}

impl CampaignResult {
    /// The combined `RESULTS.md` document for this job's tables.
    #[must_use]
    pub fn results_markdown(&self) -> String {
        let mut combined = String::from("# nvp — regenerated evaluation results\n\n");
        for t in &self.tables {
            combined.push_str(&t.to_markdown());
            combined.push('\n');
        }
        combined
    }

    /// Writes the artifact set — one CSV per table, one CSV per profile
    /// series, and `RESULTS.md` — into `out_dir` (created if missing),
    /// returning the paths in write order. In-process and over-the-wire
    /// results render through this one function, which is what keeps
    /// both transports byte-identical.
    /// Each profile streams from its generator into its own file, one
    /// scheduler task per profile, so neither a profile's samples nor
    /// its text is ever held whole.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error encountered while writing.
    pub fn write(&self, out_dir: &Path) -> io::Result<Vec<PathBuf>> {
        fs::create_dir_all(out_dir)?;
        let mut files = Vec::new();
        for t in &self.tables {
            let path = out_dir.join(format!("{}.csv", t.id().to_lowercase()));
            fs::write(&path, t.to_csv())?;
            files.push(path);
        }
        for path in sched::par_map(&self.profiles, |(seed, spec)| -> io::Result<PathBuf> {
            let path = out_dir.join(format!("f1_profile_{seed}.csv"));
            spec.write_csv(File::create(&path)?)?;
            Ok(path)
        }) {
            files.push(path?);
        }
        let md_path = out_dir.join("RESULTS.md");
        fs::write(&md_path, self.results_markdown())?;
        files.push(md_path);
        Ok(files)
    }
}

/// Runs `experiments` as one campaign in three steps: collects their
/// plans, runs every planned entry in one flat scheduler map, and
/// renders each table from its plan's outcomes (see [`plan::run`]).
/// Tables come back in experiment order. Plans build kernels, look up
/// task costs and, for F9, search each relaxation policy's write
/// pulses, so they are a scheduler map of their own, claimed from the
/// last experiment back: F9's plan, the longest, starts first and
/// overlaps the kernel builds F8 and F3 start.
pub(crate) fn run_campaign(cfg: &ExpConfig, experiments: &[&'static Experiment]) -> Vec<Table> {
    let last_first: Vec<_> = experiments.iter().rev().collect();
    let mut plans: Vec<Plan> = sched::par_map(&last_first, |e| e.plan(cfg));
    plans.reverse();
    plan::run(plans, |i, out| experiments[i].render(cfg, out))
}

/// Executes a [`CampaignRequest`] in this process and returns the
/// result as values — no files are written. The raw `f1` profile series
/// are included exactly when `f1` is selected. Cache and scheduler
/// counters are per-job deltas over the process-wide totals (exact when
/// jobs run one at a time, as on the default single-worker server;
/// approximate under concurrent jobs).
///
/// The job runs under whatever simulation store the process has
/// attached: `repro` picks its local store (or none, with
/// `--no-cache`), and the server's resident store serves every job.
/// Each planned entry holds the trace it reads until it has run, so the
/// job holds a trace's samples only while a simulation on it is still
/// to run (about one trace per worker); its run step holds every
/// outcome it looks up until that step returns. Both are let go of
/// whatever other jobs run ([`crate::trace_memo_stats`] counts the
/// traces and their peak).
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidInput`] for a request
/// [`CampaignRequest::resolve`] refuses.
pub fn run_request(req: &CampaignRequest) -> io::Result<CampaignResult> {
    let cache_before = sim_cache_stats();
    let sched_before = sched_stats();
    let exec_before = exec_stats();
    let selected = req.resolve()?;
    let cfg = req.effective_config();
    let tables = run_campaign(&cfg, &selected);
    let profiles = if selected.iter().any(|e| e.id() == "f1") {
        cfg.profile_seeds
            .iter()
            .map(|&seed| (seed, f1_power_profiles::profile(&cfg, seed)))
            .collect()
    } else {
        Vec::new()
    };
    Ok(CampaignResult {
        tables,
        profiles,
        cache: sim_cache_stats().since(cache_before),
        sched: sched_stats().since(sched_before),
        exec: exec_stats().since(exec_before),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_folds_case_dedups_and_restores_registry_order() {
        let req = CampaignRequest::only(ExpConfig::quick(), &["F12", "t1", "f12"]);
        let selected = req.resolve().unwrap();
        let ids: Vec<&str> = selected.iter().map(|e| e.id()).collect();
        assert_eq!(ids, ["t1", "f12"], "registry order, case folded, dedup'd");
    }

    #[test]
    fn resolve_rejects_unknown_ids() {
        let req = CampaignRequest::only(ExpConfig::quick(), &["f99"]);
        let err = req.resolve().map(|v| v.len()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("f99"));
    }

    #[test]
    fn resolve_rejects_configs_no_job_can_run() {
        for cfg in [ExpConfig::quick(), ExpConfig::default()] {
            assert!(CampaignRequest::all(cfg).resolve().is_ok(), "shipped configs are admitted");
        }
        type Edit = fn(&mut ExpConfig);
        let with = |edit: Edit| {
            let mut cfg = ExpConfig::quick();
            edit(&mut cfg);
            CampaignRequest::only(cfg, &["f1"]).resolve().map(|v| v.len())
        };
        let longest: Edit = |c| c.trace_duration_s = f64::from(MAX_TRACE_SAMPLES) * DEFAULT_DT_S;
        assert!(with(longest).is_ok(), "the longest trace is runnable");
        let cases: [(&str, Edit); 8] = [
            ("NaN duration", |c| c.trace_duration_s = f64::NAN),
            ("negative duration", |c| c.trace_duration_s = -1.0),
            ("zero duration", |c| c.trace_duration_s = 0.0),
            ("infinite duration", |c| c.trace_duration_s = f64::INFINITY),
            ("one sample past the cap", |c| {
                c.trace_duration_s = f64::from(MAX_TRACE_SAMPLES + 1) * DEFAULT_DT_S;
            }),
            ("no profile seeds", |c| c.profile_seeds.clear()),
            ("zero frame width", |c| c.frame_w = 0),
            ("zero frame height", |c| c.frame_h = 0),
        ];
        for (what, edit) in cases {
            let err = with(edit).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{what}: {err}");
        }
    }

    #[test]
    fn effective_config_applies_the_seed_override() {
        let mut req = CampaignRequest::all(ExpConfig::quick());
        assert_eq!(req.effective_config().fault_seed, req.config.fault_seed);
        req.seed = Some(99);
        assert_eq!(req.effective_config().fault_seed, 99);
        assert_eq!(req.config.fault_seed, ExpConfig::quick().fault_seed, "request is not mutated");
    }

    #[test]
    fn run_request_is_values_first_and_selects_profiles_with_f1() {
        let req = CampaignRequest::only(ExpConfig::quick(), &["t1"]);
        let result = run_request(&req).unwrap();
        assert_eq!(result.tables.len(), 1);
        assert!(result.profiles.is_empty(), "no f1 selected, no profile series");

        let req = CampaignRequest::only(ExpConfig::quick(), &["F1"]);
        let result = run_request(&req).unwrap();
        assert_eq!(result.tables.len(), 1);
        assert_eq!(result.profiles.len(), ExpConfig::quick().profile_seeds.len());
    }

    #[test]
    fn write_renders_the_classic_artifact_set() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("nvp_job_write_{}_{n}", std::process::id()));

        let req = CampaignRequest::only(ExpConfig::quick(), &["t1", "f2h"]);
        let result = run_request(&req).unwrap();
        let files = result.write(&dir).unwrap();
        // 2 tables + RESULTS.md, no profile series without f1.
        assert_eq!(files.len(), 3);
        for f in &files {
            assert!(f.exists(), "{}", f.display());
        }
        assert!(dir.join("t1.csv").exists());
        assert!(dir.join("f2h.csv").exists());
        assert!(dir.join("RESULTS.md").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_streams_each_profile_as_its_csv() {
        let dir = std::env::temp_dir().join(format!("nvp_job_profiles_{}", std::process::id()));
        let result = run_request(&CampaignRequest::only(ExpConfig::quick(), &["f1"])).unwrap();
        let files = result.write(&dir).unwrap();
        let names: Vec<_> = files.iter().map(|f| f.file_name().unwrap().to_owned()).collect();
        assert_eq!(names, ["f1.csv", "f1_profile_1.csv", "f1_profile_2.csv", "RESULTS.md"]);
        for (seed, spec) in &result.profiles {
            let csv = fs::read_to_string(dir.join(format!("f1_profile_{seed}.csv"))).unwrap();
            assert_eq!(csv, spec.to_csv(), "profile {seed}");
            assert_eq!(csv, spec.generate().to_csv(), "profile {seed}: the sample array's text");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
