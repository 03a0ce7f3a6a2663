//! How long decoded simulation outcomes live. With a persistent store
//! attached, an outcome the store indexes is held only through the
//! leases of the jobs that looked it up, which a job's run step holds
//! until it returns, so the outcome is dropped (demoted to its record)
//! when the last such job ends, and a later lookup re-reads that one
//! record; without a store nothing is demoted. (Trace samples are let
//! go of sooner, entry by entry; see `trace_lifetime.rs`.) The sim-cache
//! and its counters are process-global, which is why these checks live
//! in their own test binary rather than among the crate's parallel unit
//! tests.

use std::path::{Path, PathBuf};

use nvp_experiments::{
    reset_sim_cache, run_request, set_cache_dir, sim_cache_memo_stats, CampaignRequest,
    CampaignResult, ExpConfig,
};

/// Serializes the tests in this binary: the sim-cache, its store and
/// its counters are process-global.
fn global_cache_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn unique_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("{tag}_{}_{n}", std::process::id()))
}

/// Every rendered artifact of a result: table CSVs, profile series and
/// `RESULTS.md`.
fn artifacts(result: &CampaignResult) -> Vec<String> {
    let mut out: Vec<String> = result.tables.iter().map(|t| t.to_csv()).collect();
    out.extend(result.profiles.iter().map(|(_, trace)| trace.to_csv()));
    out.push(result.results_markdown());
    out
}

/// A server-style job: F3 and F12 over a profile seed no other test
/// reads.
fn request(seed: u64) -> CampaignRequest {
    let mut config = ExpConfig::quick();
    config.profile_seeds[1] = seed;
    CampaignRequest::only(config, &["f3", "f12"])
}

/// A fresh index over a fresh store; returns the store's directory.
fn attach_fresh(tag: &str) -> PathBuf {
    let dir = unique_dir(tag);
    reset_sim_cache();
    assert_eq!(set_cache_dir(Some(&dir)).unwrap(), 0, "a fresh store holds no records");
    dir
}

/// The shard files of a store, sorted by name.
fn shards(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    out.sort();
    out
}

/// A finished job leaves no outcome decoded, and a second job over the
/// same keys reads every one back from its record: no simulation, every
/// hit a disk hit, one reload per key, and byte-identical tables.
#[test]
fn finished_jobs_keep_only_the_location_of_stored_outcomes() {
    let _guard = global_cache_lock();
    let dir = attach_fresh("nvp_outcome_lifetime_stored");
    let req = request(5_100);

    let first = run_request(&req).unwrap();
    assert!(first.cache.misses > 0, "a cold job simulates");
    assert_eq!(first.cache.persisted, first.cache.misses, "every outcome is stored");
    let between = sim_cache_memo_stats();
    assert_eq!(between.resident, 0, "a finished job holds no decoded outcome");
    assert_eq!(between.on_disk, first.cache.misses, "each stored outcome keeps its location");

    let again = run_request(&req).unwrap();
    assert_eq!(again.cache.misses, 0, "the rerun is served by the store: {:?}", again.cache);
    assert_eq!(again.cache.hits, first.cache.hits + first.cache.misses);
    assert_eq!(again.cache.hits, again.cache.disk_hits, "every hit is a disk hit");
    assert_eq!(again.cache.persisted, 0);
    let after = sim_cache_memo_stats();
    assert_eq!(after.reloaded - between.reloaded, first.cache.misses, "one reload per key");
    assert_eq!((after.resident, after.on_disk), (0, between.on_disk));
    assert_eq!(artifacts(&again), artifacts(&first), "reloaded outcomes change no byte");

    reset_sim_cache();
    set_cache_dir(None).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Attaching keeps its rules for demoted outcomes: re-attaching the
/// same directory indexes every record again and decodes none, and
/// switching to another directory indexes none of the old one's, so
/// nothing recorded under the old one is served.
#[test]
fn demoted_outcomes_follow_the_attach_rules() {
    let _guard = global_cache_lock();
    let dir_a = attach_fresh("nvp_outcome_lifetime_attach_a");
    let req = request(5_400);
    let first = run_request(&req).unwrap();
    let demoted = sim_cache_memo_stats();
    assert_eq!(demoted.on_disk, first.cache.misses);

    assert_eq!(set_cache_dir(Some(&dir_a)).unwrap(), first.cache.misses, "A indexes every record");
    assert_eq!(sim_cache_memo_stats(), demoted, "every location is kept");

    let dir_b = unique_dir("nvp_outcome_lifetime_attach_b");
    assert_eq!(set_cache_dir(Some(&dir_b)).unwrap(), 0);
    assert_eq!(sim_cache_memo_stats().on_disk, 0, "no location into the old directory is kept");
    let under_b = run_request(&req).unwrap();
    assert_eq!(under_b.cache.misses, first.cache.misses, "the run under B recomputes");
    assert_eq!(under_b.cache.disk_hits, 0, "nothing recorded under A is served");
    assert_eq!(artifacts(&under_b), artifacts(&first));

    reset_sim_cache();
    set_cache_dir(None).unwrap();
    for dir in [&dir_a, &dir_b] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A memory-only cache demotes nothing: its outcomes stay decoded
/// between jobs and no hit touches a disk.
#[test]
fn a_memory_only_cache_demotes_nothing() {
    let _guard = global_cache_lock();
    reset_sim_cache();
    set_cache_dir(None).unwrap();
    let req = request(5_200);

    let first = run_request(&req).unwrap();
    let between = sim_cache_memo_stats();
    assert_eq!(between.resident, first.cache.misses, "every outcome stays decoded");
    assert_eq!((between.on_disk, between.reloaded), (0, 0));

    let again = run_request(&req).unwrap();
    assert_eq!(again.cache.misses, 0);
    let lookups = first.cache.hits + first.cache.misses;
    assert_eq!(again.cache.hits, lookups, "a repeat run hits the memory cache");
    assert_eq!(again.cache.disk_hits, 0, "nothing is served from disk");
    assert_eq!(sim_cache_memo_stats(), between, "a rerun changes nothing the map holds");
    assert_eq!(artifacts(&again), artifacts(&first));
}

/// A shard cut short or bit-flipped after the first job fails the
/// reload of exactly the damaged records: the second job recomputes
/// those two, reloads the rest, and renders the same bytes.
#[test]
fn damaged_records_are_recomputed_not_served() {
    let _guard = global_cache_lock();
    let dir = attach_fresh("nvp_outcome_lifetime_damaged");
    let req = request(5_300);

    let first = run_request(&req).unwrap();
    let between = sim_cache_memo_stats();
    let shards = shards(&dir);
    assert!(shards.len() >= 2, "the job's records span several shards");

    // Cut the last record of one shard short, as a crash mid-append
    // would, and flip a payload byte of the first record of another.
    let cut = &shards[0];
    let len = std::fs::metadata(cut).unwrap().len();
    std::fs::OpenOptions::new().write(true).open(cut).unwrap().set_len(len - 10).unwrap();
    let flipped = &shards[1];
    let mut bytes = std::fs::read(flipped).unwrap();
    bytes[8 + 8 + 40] ^= 0x01; // magic, frame header, then into the report
    std::fs::write(flipped, &bytes).unwrap();

    let again = run_request(&req).unwrap();
    assert_eq!(again.cache.misses, 2, "exactly the damaged records are recomputed");
    assert_eq!(again.cache.persisted, 2, "and stored again");
    assert_eq!(again.cache.hits + again.cache.misses, first.cache.hits + first.cache.misses);
    let after = sim_cache_memo_stats();
    assert_eq!(after.reloaded - between.reloaded, first.cache.misses - 2);
    assert_eq!(artifacts(&again), artifacts(&first), "a damaged record changes no byte");

    reset_sim_cache();
    set_cache_dir(None).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
