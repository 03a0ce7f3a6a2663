//! A warm rerun only looks things up, and a damaged store costs time,
//! never bytes. A quick campaign fills a persistent store; a fresh index
//! over that store then reruns it, as a new process would: every
//! simulation is served from disk, no trace sample is generated, every
//! trace summary and task cost is read from the store's records, and
//! every rendered artifact is byte for byte the cold run's. Then a
//! shard is cut short, and later its magic is overwritten with the
//! previous schema's: each time the shard is quarantined, counted, kept
//! aside and healed, exactly its lost records are recomputed, and the
//! artifacts keep their bytes.
//!
//! The sim-cache, the trace memo and their counters are process-global,
//! so this check is one sequenced test with a binary of its own.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use nvp::experiments::{
    record, reset_sim_cache, run_request, set_cache_dir, sim_cache_memo_stats, sim_cache_stats,
    trace_memo_stats, CampaignRequest, CampaignResult, ExpConfig,
};

/// Shard magic and record bound of the store's format.
const SHARD_MAGIC: &[u8; 8] = b"nvpsimc4";
const MAX_RECORD_BYTES: u32 = 1 << 16;

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

/// The store's first shard file, by name.
fn first_shard(store: &Path) -> PathBuf {
    let shards = fs::read_dir(store).expect("list store").map(|e| e.expect("entry").path());
    shards.filter(|p| p.extension().is_some_and(|e| e == "log")).min().expect("a shard")
}

/// The outcome and input records an intact shard holds; the first
/// payload byte is the record kind, 0 for an outcome.
fn record_kinds(shard: &Path) -> (u64, u64) {
    let bytes = fs::read(shard).expect("read shard");
    let log = record::scan(&bytes, SHARD_MAGIC, MAX_RECORD_BYTES);
    assert_eq!(log.damaged, 0, "{} is intact", shard.display());
    let outcomes = log.payloads.iter().filter(|p| p[0] == 0).count() as u64;
    (outcomes, log.payloads.len() as u64 - outcomes)
}

/// Trace summaries streamed plus task costs measured so far.
fn inputs_computed() -> u64 {
    trace_memo_stats().summarized + sim_cache_memo_stats().task_costs_measured
}

/// What one rerun over the attached store did.
struct Rerun {
    /// Outcome keys the attach indexed.
    loaded: u64,
    /// Shards the attach quarantined.
    quarantined: u64,
    /// Simulations run.
    misses: u64,
    /// Summaries streamed and task costs measured.
    inputs: u64,
    files: BTreeMap<String, Vec<u8>>,
}

/// Resets the index, re-attaches `store` as a new process would, and
/// reruns `request` into `out`.
fn rerun(request: &CampaignRequest, store: &Path, out: &Path) -> Rerun {
    reset_sim_cache();
    let loaded = set_cache_dir(Some(store)).expect("attach the store");
    let quarantined = sim_cache_stats().quarantined;
    let before = inputs_computed();
    let result = run_request(request).expect("rerun");
    assert_eq!(result.cache.persisted, result.cache.misses, "every recomputed run is stored");
    let inputs = inputs_computed() - before;
    Rerun {
        loaded,
        quarantined,
        misses: result.cache.misses,
        inputs,
        files: artifacts(&result, out),
    }
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
    assert!(cold_files.contains_key("f12.csv"), "the fault campaign's table is compared too");
    let mut stored = fs::read_dir(&store).unwrap().map(|e| e.unwrap().path());
    assert!(
        stored.all(|p| p.extension().is_some_and(|e| e == "log")),
        "the store holds only shards"
    );

    // A fresh index over the filled store, as a new process would load.
    // The attach only indexes: no outcome is decoded until it is looked
    // up, and the finished campaign holds none.
    reset_sim_cache();
    assert_eq!(set_cache_dir(Some(&store)).unwrap(), cold.cache.misses, "the store reloads");
    let attached = sim_cache_memo_stats();
    assert_eq!(attached.resident, 0, "the attach decodes no outcome");
    assert_eq!(attached.on_disk, cold.cache.misses, "it indexes every stored outcome");
    let before = trace_memo_stats();
    let warm = run_request(&request).unwrap();
    let traces = trace_memo_stats();
    let inputs = sim_cache_memo_stats();
    assert_eq!(inputs.reloaded - attached.reloaded, cold.cache.misses, "one read per key");
    assert_eq!(inputs.resident, 0, "and the finished campaign holds none decoded");

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

    // A shard cut by 5 bytes loses its last record: the attach counts
    // and quarantines the shard, keeps it aside and heals it, and the
    // rerun recomputes that one record.
    let shard = first_shard(&store);
    let kinds = record_kinds(&shard);
    let last_is_outcome = {
        let bytes = fs::read(&shard).unwrap();
        let log = record::scan(&bytes, SHARD_MAGIC, MAX_RECORD_BYTES);
        log.payloads.last().expect("a record")[0] == 0
    };
    let len = fs::metadata(&shard).unwrap().len();
    fs::OpenOptions::new().write(true).open(&shard).unwrap().set_len(len - 5).unwrap();
    let cut = rerun(&request, &store, &root.join("cut"));
    let lost_outcomes = u64::from(last_is_outcome);
    assert_eq!(cut.quarantined, 1, "the cut shard is quarantined and counted");
    assert!(shard.with_extension("log.quarantine").exists(), "and kept aside");
    assert_eq!(cut.loaded, cold.cache.misses - lost_outcomes, "its intact records reload");
    assert_eq!(cut.misses, lost_outcomes, "a lost outcome is recomputed");
    assert_eq!(cut.inputs, 1 - lost_outcomes, "a lost input is recomputed");
    assert_eq!(record_kinds(&shard), kinds, "the shard is healed whole");
    assert_eq!(cut.files, cold_files, "the same bytes after a cut");

    // The heal holds: the next attach quarantines nothing.
    let healed = rerun(&request, &store, &root.join("healed"));
    assert_eq!(healed.quarantined, 0, "a healed store is clean");
    assert_eq!(healed.loaded, cold.cache.misses);
    assert_eq!((healed.misses, healed.inputs), (0, 0), "and serves everything");
    assert_eq!(healed.files, cold_files, "the same bytes after the heal");

    // A shard under the previous schema's magic is quarantined whole,
    // and exactly its records are recomputed.
    let shard = first_shard(&store);
    let (outcomes, inputs) = record_kinds(&shard);
    let mut bytes = fs::read(&shard).unwrap();
    bytes[..8].copy_from_slice(b"nvpsimc3");
    fs::write(&shard, &bytes).unwrap();
    let stale = rerun(&request, &store, &root.join("stale"));
    assert_eq!(stale.quarantined, 1, "the stale shard is quarantined and counted");
    assert!(shard.with_extension("log.quarantine.2").exists(), "and kept aside");
    assert_eq!(stale.loaded, cold.cache.misses - outcomes, "none of its records reloads");
    assert_eq!(stale.misses, outcomes, "its outcomes are recomputed");
    assert_eq!(stale.inputs, inputs, "and its inputs");
    assert_eq!(record_kinds(&shard), (outcomes, inputs), "the shard is refilled");
    assert_eq!(stale.files, cold_files, "the same bytes after a stale shard");

    set_cache_dir(None).unwrap();
    reset_sim_cache();
    let _ = fs::remove_dir_all(&root);
}
