//! How long memoized trace samples live. A job generates each trace it
//! reads once, and the samples are freed with the job's last entry on
//! that trace: its pending entries hold the only strong handles to
//! them, each drops its own once it has run, and the memo keeps weak
//! ones. So a finished job holds no trace, and a resident server only
//! the traces its running jobs have still to read (`trace_peak.rs`
//! bounds how many at once). The trace memo and its counters are
//! process-global,
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
/// every job the memo holds no sample, and rerunning a job generates no
/// trace: F3 and F12 are served by the sim-cache, and F2 streams one
/// summary per profile (the first run released its own with its last
/// entry on the profile), with byte-identical artifacts.
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
        let before = trace_memo_stats();
        let again = run_request(req).unwrap();
        let after = trace_memo_stats();
        assert_eq!(after.resident_bytes, 0, "a finished job holds no samples");
        assert_eq!(artifacts(&again), artifacts(first), "restreamed summaries change no byte");
        assert_eq!(again.cache.misses, 0, "the rerun is served by the sim-cache");
        assert_eq!(after.generated - before.generated, 0, "the rerun reads no sample array");
        assert_eq!(
            after.summarized - before.summarized,
            req.config.profile_seeds.len() as u64,
            "the rerun restreams F2's summaries, which the first run released"
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

/// A warm default campaign, over a store a cold one filled, simulates
/// nothing, so it generates no trace at all: F1, F2 and F9 read one
/// summary per profile, which the cold campaign streamed and stored, so
/// the warm one streams none, and the result carries the profiles as
/// specs.
#[test]
fn a_warm_campaign_generates_no_trace_and_streams_one_summary_per_profile() {
    let _guard = global_memo_lock();
    let dir = std::env::temp_dir().join(format!("nvp_trace_lifetime_warm_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    reset_sim_cache();
    set_cache_dir(Some(&dir)).unwrap();
    let request = CampaignRequest::all(ExpConfig::default());
    let profiles = request.config.profile_seeds.len() as u64;
    let cold = run_request(&request).unwrap();
    assert!(cold.cache.misses > 0, "the cold campaign fills the store");

    // A fresh index over the filled store, as a new process would load.
    reset_sim_cache();
    assert!(set_cache_dir(Some(&dir)).unwrap() > 0, "the store reloads");
    let before = trace_memo_stats();
    let warm = run_request(&request).unwrap();
    let after = trace_memo_stats();
    assert_eq!(warm.cache.misses, 0, "the warm campaign simulates nothing");
    assert_eq!(after.generated - before.generated, 0, "a warm campaign generates no trace");
    assert_eq!(after.summarized - before.summarized, 0, "every summary is read from the store");
    assert_eq!(after.summaries_loaded - before.summaries_loaded, profiles, "one per profile");
    assert_eq!(after.resident_bytes, 0, "a finished job holds no samples");
    assert_eq!(warm.profiles, cold.profiles);
    assert_eq!(artifacts(&warm), artifacts(&cold), "the warm campaign renders the same bytes");

    set_cache_dir(None).unwrap();
    reset_sim_cache();
    let _ = std::fs::remove_dir_all(&dir);
}
