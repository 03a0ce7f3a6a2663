//! A warm rerun only looks things up. A quick campaign fills a
//! persistent store; a fresh index over that store then reruns it, as a
//! new process would: every simulation is served from disk, no trace
//! sample is generated, every trace summary and task cost is read from
//! the store's input records, and every rendered artifact is byte for
//! byte the cold run's.
//!
//! The sim-cache, the trace memo and their counters are process-global,
//! so this check has a test binary of its own.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use nvp::experiments::{
    reset_sim_cache, run_request, set_cache_dir, sim_cache_memo_stats, trace_memo_stats,
    CampaignRequest, CampaignResult, ExpConfig,
};

/// Writes `result`'s artifacts into `dir` and reads every file back.
fn artifacts(result: &CampaignResult, dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let files = result.write(dir).expect("write artifacts");
    assert!(!files.is_empty(), "a campaign writes artifacts");
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("list artifacts") {
        let path = entry.expect("artifact entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).expect("utf-8 name").to_string();
        out.insert(name, fs::read(&path).expect("read artifact"));
    }
    out
}

#[test]
fn a_warm_quick_campaign_only_looks_things_up() {
    let root = std::env::temp_dir().join(format!("nvp_warm_rerun_{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let store = root.join("store");
    let request = CampaignRequest::all(ExpConfig::quick());

    reset_sim_cache();
    assert_eq!(set_cache_dir(Some(&store)).unwrap(), 0, "a fresh store holds no records");
    let cold = run_request(&request).unwrap();
    assert!(cold.cache.misses > 0, "the cold campaign simulates");
    assert_eq!(cold.cache.persisted, cold.cache.misses, "and stores every outcome");
    let cold_files = artifacts(&cold, &root.join("cold"));

    // A fresh index over the filled store, as a new process would load.
    reset_sim_cache();
    assert_eq!(set_cache_dir(Some(&store)).unwrap(), cold.cache.misses, "the store reloads");
    let before = trace_memo_stats();
    let warm = run_request(&request).unwrap();
    let traces = trace_memo_stats();
    let inputs = sim_cache_memo_stats();

    assert_eq!(warm.cache.misses, 0, "the warm campaign simulates nothing");
    assert!(warm.cache.disk_hits > 0, "it is served from disk");
    assert_eq!(warm.cache.hits, warm.cache.disk_hits, "every lookup is a disk hit");
    assert_eq!(traces.generated - before.generated, 0, "no trace sample is generated");
    assert_eq!(traces.summarized - before.summarized, 0, "no trace summary is streamed");
    assert_eq!(
        traces.summaries_loaded - before.summaries_loaded,
        request.config.profile_seeds.len() as u64,
        "one stored summary per profile"
    );
    assert_eq!(inputs.task_costs_measured, 0, "no task cost is measured");
    assert!(inputs.task_costs_loaded > 0, "every task cost is read from the store");
    assert_eq!(artifacts(&warm, &root.join("warm")), cold_files, "the same bytes");

    set_cache_dir(None).unwrap();
    reset_sim_cache();
    let _ = fs::remove_dir_all(&root);
}
