//! The `campaign-cold` and `campaign-warm` workloads: full evaluation
//! campaigns, each in a fresh process.

use crate::child::{spawn_campaign, CampaignSpec, ChildReport};
use crate::clock::Stopwatch;
use crate::gen::{DEFAULT_SEED, PINNED_DEFAULT_DIGEST};
use crate::report::{Ctx, Report};
use crate::stats::median;

/// Campaigns timed per run, at least, whatever `--seconds` says.
const MIN_CAMPAIGNS: usize = 3;

/// Runs one child campaign as a counted operation; `None` on failure.
pub fn run_child(ctx: &Ctx, rep: &mut Report, spec: &CampaignSpec) -> Option<ChildReport> {
    rep.attempted += 1;
    match spawn_campaign(spec) {
        Ok(r) => {
            rep.check(!r.text("digest").is_empty(), || "campaign reported no digest".into());
            if ctx.seed == DEFAULT_SEED {
                rep.check(r.text("digest") == PINNED_DEFAULT_DIGEST, || {
                    format!(
                        "default-seed artifact digest {} != pinned {PINNED_DEFAULT_DIGEST}",
                        r.text("digest")
                    )
                });
            }
            Some(r)
        }
        Err(e) => {
            rep.fail(e);
            None
        }
    }
}

/// A campaign with the default worker budget.
#[must_use]
pub fn spec(ctx: &Ctx, cache_dir: Option<String>) -> CampaignSpec {
    CampaignSpec {
        seed: ctx.seed,
        cache_dir,
        out_dir: ctx.path_str("artifacts"),
        ..CampaignSpec::default()
    }
}

/// Fills a persistent sim-cache directory with one cold campaign.
pub fn fill_cache(ctx: &Ctx, rep: &mut Report) -> Option<(String, ChildReport)> {
    let dir = ctx.path_str("simcache");
    let fill = run_child(ctx, rep, &spec(ctx, Some(dir.clone())))?;
    rep.check(fill.count("cache.persisted").unwrap_or(0) > 0, || {
        "the cold fill persisted no simulation".into()
    });
    Some((dir, fill))
}

/// Checks a warm campaign against the cold run that filled its cache.
pub fn check_warm(rep: &mut Report, warm: &ChildReport, fill: &ChildReport) {
    rep.check(warm.text("digest") == fill.text("digest"), || {
        format!("warm artifacts {} differ from cold {}", warm.text("digest"), fill.text("digest"))
    });
    let n = |k| warm.count(k);
    rep.check(n("cache.misses") == Some(0), || {
        format!("warm campaign simulated {:?}", n("cache.misses"))
    });
    rep.check(n("cache.hits") > Some(0) && n("cache.disk_hits") == n("cache.hits"), || {
        format!(
            "warm hits {:?} are not all disk hits ({:?})",
            n("cache.hits"),
            n("cache.disk_hits")
        )
    });
    rep.check(n("records_loaded") > Some(0), || "warm reload loaded no records".into());
}

/// Runs child campaigns until `--seconds` have passed (and at least
/// [`MIN_CAMPAIGNS`]), checking each with `check`.
fn timed(
    ctx: &Ctx,
    rep: &mut Report,
    spec: &CampaignSpec,
    mut check: impl FnMut(&mut Report, &ChildReport),
) -> Vec<ChildReport> {
    let t0 = Stopwatch::start();
    let mut done = Vec::new();
    while done.len() < MIN_CAMPAIGNS || t0.secs() < ctx.seconds {
        let Some(r) = run_child(ctx, rep, spec) else { break };
        check(rep, &r);
        done.push(r);
    }
    done
}

/// Records the end-to-end metrics of a set of campaigns; `setup` is
/// this workload's set-up time of one campaign.
fn end_to_end(
    rep: &mut Report,
    runs: &[ChildReport],
    setup: impl Fn(&ChildReport) -> Result<f64, String>,
) {
    let med = |rep: &mut Report, key: &str| {
        let v: Vec<f64> = runs.iter().filter_map(|r| r.num(key).ok()).collect();
        rep.check(v.len() == runs.len(), || format!("a campaign did not report {key}"));
        median(&v).unwrap_or(0.0)
    };
    let setups = runs.iter().map(setup).collect::<Result<Vec<_>, _>>();
    match setups {
        Ok(v) => rep.metric("setup_s", median(&v).unwrap_or(0.0), "s"),
        Err(e) => rep.fail(e),
    }
    let campaign = med(rep, "campaign_s");
    rep.metric("campaign_s", campaign, "s");
    let latencies: Vec<f64> = runs.iter().map(|r| r.latency_s).collect();
    rep.metric("job_p50_s", median(&latencies).unwrap_or(0.0), "s");
    rep.metric("jobs_per_s", runs.len() as f64 / latencies.iter().sum::<f64>(), "1/s");
    let rss = med(rep, "peak_rss_mb");
    rep.metric("peak_rss_mb", rss, "MB");
    eprintln!("nvpbench: {} campaign(s) timed", runs.len());
}

/// `campaign-cold`, end to end: memory-only cache, fresh process each.
/// Set-up is process start: spawn until the child is ready to run.
pub fn cold(ctx: &Ctx, rep: &mut Report) {
    let mut first: Option<String> = None;
    let runs = timed(ctx, rep, &spec(ctx, None), |rep, r| {
        let digest = r.text("digest").to_string();
        let first = first.get_or_insert_with(|| digest.clone());
        rep.check(*first == digest, || format!("cold artifacts {digest} differ from {first}"));
        rep.check(r.count("cache.misses") > Some(0), || "cold campaign simulated nothing".into());
        rep.check(r.count("cache.disk_hits") == Some(0), || "cold campaign hit disk".into());
    });
    end_to_end(rep, &runs, |r| Ok(r.ready_s));
}

/// `campaign-warm`, end to end: a cold campaign fills a cache directory,
/// then fresh processes reload it with `set_cache_dir` and rerun. Set-up
/// is that reload.
pub fn warm(ctx: &Ctx, rep: &mut Report) {
    let Some((dir, fill)) = fill_cache(ctx, rep) else { return };
    let runs = timed(ctx, rep, &spec(ctx, Some(dir)), |rep, r| check_warm(rep, r, &fill));
    end_to_end(rep, &runs, |r| r.num("reload_s"));
}
