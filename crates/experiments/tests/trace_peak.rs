//! How many trace sample arrays a job holds at once. A job's entries
//! hold the handles on its traces and each drops its handle as soon as
//! it has run, while a campaign claims one trace's simulations back to
//! back, so a trace's samples live only while a simulation on it is
//! still to run: about one trace per worker, however many traces the
//! job names. The peak counter is a high-water mark over the life of
//! the process, which is why this check has a binary of its own, and
//! why its single-worker phase runs first.

use nvp_energy::harvester::sample_count;
use nvp_experiments::{
    reset_sim_cache, run_request, set_cache_dir, set_thread_override, trace_memo_stats,
    CampaignRequest, ExpConfig,
};

/// Distinct trace specs a cold quick campaign reads: the two watch
/// profiles, plus the three other harvester sources F7 sweeps at the
/// first profile seed (as in `trace_lifetime.rs`).
const QUICK_CAMPAIGN_TRACES: u64 = 5;

/// The bytes of one trace's sample array at `cfg`: every trace a
/// campaign reads has the configured duration.
fn trace_bytes(cfg: &ExpConfig) -> u64 {
    (sample_count(cfg.trace_duration_s) * std::mem::size_of::<f64>()) as u64
}

/// One worker holds one trace at a time: a cold quick campaign
/// generates each of its traces once and never holds two. At the
/// default worker count, a job naming six profiles holds at most one
/// trace per worker and one the next simulation will read.
#[test]
fn a_job_holds_about_one_trace_per_worker() {
    set_cache_dir(None).unwrap();
    let quick = ExpConfig::quick();

    set_thread_override(Some(1));
    reset_sim_cache();
    let before = trace_memo_stats();
    let result = run_request(&CampaignRequest::all(quick.clone())).unwrap();
    let after = trace_memo_stats();
    assert!(result.cache.misses > 0, "a cold campaign simulates, so it reads every trace");
    assert_eq!(after.generated - before.generated, QUICK_CAMPAIGN_TRACES, "each trace once");
    assert_eq!(after.peak_resident_bytes, trace_bytes(&quick), "one worker, one trace");
    assert_eq!(after.resident_bytes, 0, "a finished job holds no samples");

    set_thread_override(None);
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut six = quick.clone();
    six.profile_seeds = (6_100..6_106).collect();
    reset_sim_cache();
    let before = trace_memo_stats();
    let result = run_request(&CampaignRequest::all(six.clone())).unwrap();
    let after = trace_memo_stats();
    assert!(result.cache.misses > 0, "a cold campaign simulates");
    let traces = six.profile_seeds.len() as u64 + QUICK_CAMPAIGN_TRACES - 2;
    assert_eq!(after.generated - before.generated, traces, "each trace once");
    let bound = (workers as u64 + 1) * trace_bytes(&six);
    assert!(
        after.peak_resident_bytes <= bound,
        "{workers} worker(s) held {} sample bytes at once, more than {bound}",
        after.peak_resident_bytes
    );
    assert_eq!(after.resident_bytes, 0, "a finished job holds no samples");
    reset_sim_cache();
}
