//! How long memoized trace samples live. A job generates each trace it
//! reads once and the memo lets go of the samples when the last job in
//! flight ends, so a resident server holds only the traces of the jobs
//! it is running. The trace memo and its counters are process-global,
//! which is why these checks live in their own test binary rather than
//! among the crate's parallel unit tests.

use nvp_experiments::{
    reset_sim_cache, run_request, set_cache_dir, trace_memo_stats, CampaignRequest, CampaignResult,
    ExpConfig,
};

/// Serializes the tests in this binary: the trace memo, the sim-cache
/// and their counters are process-global.
fn global_memo_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Every rendered artifact of a result: table CSVs, profile series and
/// `RESULTS.md`.
fn artifacts(result: &CampaignResult) -> Vec<String> {
    let mut out: Vec<String> = result.tables.iter().map(|t| t.to_csv()).collect();
    out.extend(result.profiles.iter().map(|(_, trace)| trace.to_csv()));
    out.push(result.results_markdown());
    out
}

/// Six server-style jobs, each over a profile no other job reads. After
/// every job the memo holds no sample, and rerunning a job regenerates
/// exactly the traces F2 summarizes itself (F3 and F12 are served by the
/// sim-cache and read none), with byte-identical artifacts.
#[test]
fn finished_jobs_release_their_trace_samples() {
    let _guard = global_memo_lock();
    set_cache_dir(None).unwrap();
    let requests: Vec<CampaignRequest> = (0..6)
        .map(|i| {
            let mut config = ExpConfig::quick();
            config.profile_seeds[1] = 4_100 + i;
            CampaignRequest::only(config, &["f2", "f3", "f12"])
        })
        .collect();

    let mut first = Vec::new();
    for req in &requests {
        first.push(run_request(req).unwrap());
        assert_eq!(trace_memo_stats().resident_bytes, 0, "a finished job holds no samples");
    }
    for (req, first) in requests.iter().zip(&first) {
        let before = trace_memo_stats().generated;
        let again = run_request(req).unwrap();
        assert_eq!(trace_memo_stats().resident_bytes, 0, "a finished job holds no samples");
        assert_eq!(artifacts(&again), artifacts(first), "regenerated traces change no byte");
        assert_eq!(again.cache.misses, 0, "the rerun is served by the sim-cache");
        assert_eq!(
            trace_memo_stats().generated - before,
            req.config.profile_seeds.len() as u64,
            "the rerun regenerates F2's traces, which the last job released"
        );
    }
}

/// Distinct trace specs a cold quick campaign reads: the two watch
/// profiles, plus the three other harvester sources F7 sweeps at the
/// first profile seed (F11's solar trace is F7's).
const QUICK_CAMPAIGN_TRACES: u64 = 5;

/// A campaign generates each trace it reads once, however many tasks
/// read it: F1's rows and series and F2 share the watch traces.
#[test]
fn a_campaign_generates_each_trace_once() {
    let _guard = global_memo_lock();
    set_cache_dir(None).unwrap();
    reset_sim_cache();
    let before = trace_memo_stats().generated;
    let result = run_request(&CampaignRequest::all(ExpConfig::quick())).unwrap();
    assert!(result.cache.misses > 0, "a cold campaign simulates, so it reads every trace");
    assert_eq!(trace_memo_stats().generated - before, QUICK_CAMPAIGN_TRACES);
    assert_eq!(trace_memo_stats().resident_bytes, 0, "a finished job holds no samples");
}
