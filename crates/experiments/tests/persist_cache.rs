//! End-to-end behavior of the persistent simulation cache through the
//! public API. Each integration-test binary is its own process, so this
//! file owns the process-global cache state and drives it through a
//! full cold-write → reload → warm-serve cycle, exactly what two
//! consecutive `repro` invocations sharing `<out_dir>/.simcache` do.

use std::path::{Path, PathBuf};

use nvp_experiments::{
    record, reset_sim_cache, run_request, set_cache_dir, sim_cache_memo_stats, sim_cache_stats,
    trace_memo_stats, CampaignRequest, CampaignResult, ExpConfig, Table,
};

/// Serializes the tests in this binary: the cache directory, index,
/// and counters are process-global.
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

/// Runs the whole campaign and writes its artifacts into `dir`.
fn run_campaign(cfg: &ExpConfig, dir: &Path) {
    run_request(&CampaignRequest::all(cfg.clone())).unwrap().write(dir).unwrap();
}

fn artifact_bytes(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().into_string().unwrap(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    out.sort();
    out
}

/// The cache state is process-global, so the whole lifecycle lives in
/// one sequenced test: cold run persists, reload serves from disk with
/// zero new simulations, artifacts stay byte-identical, and disabling
/// the store stops appends.
#[test]
fn persistent_cache_round_trips_a_full_campaign() {
    let _guard = global_cache_lock();
    let cfg = ExpConfig::quick();
    let cache_dir = unique_dir("nvp_persist_cache_dir");

    // Start from an empty index and zeroed counters: the tests in this
    // file share the process-wide cache, and whichever ran first left
    // its records and counts behind.
    reset_sim_cache();
    // Cold run: every unique simulation computed and persisted.
    let loaded = set_cache_dir(Some(&cache_dir)).unwrap();
    assert_eq!(loaded, 0, "fresh cache directory has no records");
    let cold_out = unique_dir("nvp_persist_cold_out");
    run_campaign(&cfg, &cold_out);
    let cold = sim_cache_stats();
    assert!(cold.misses > 0, "cold run must compute simulations");
    assert_eq!(cold.disk_hits, 0, "nothing on disk to hit yet");
    assert!(cold.persisted > 0, "cold run persisted nothing");
    assert_eq!(cold.persisted, cold.misses, "every computed run is persisted once: {cold:?}");
    assert!(std::fs::read_dir(&cache_dir).unwrap().count() > 0, "cold run wrote no shard files");

    // Simulate a fresh process: drop the in-memory index, re-open the
    // same directory, and rerun. Everything is served from disk.
    reset_sim_cache();
    let reloaded = set_cache_dir(Some(&cache_dir)).unwrap();
    assert_eq!(reloaded, cold.persisted, "reload must recover every persisted record");
    let warm_out = unique_dir("nvp_persist_warm_out");
    run_campaign(&cfg, &warm_out);
    let warm = sim_cache_stats();
    assert_eq!(warm.misses, 0, "warm-disk run must not resimulate anything");
    assert!(warm.disk_hits > 0, "warm-disk run must serve hits from loaded records");
    assert_eq!(warm.persisted, 0, "nothing new to persist on a warm run");

    // Byte-identical artifacts: the cache is invisible in the output.
    assert_eq!(
        artifact_bytes(&cold_out),
        artifact_bytes(&warm_out),
        "disk-served artifacts differ from computed ones"
    );

    // Disabled store: recomputes but appends nothing.
    reset_sim_cache();
    set_cache_dir(None).unwrap();
    let off_out = unique_dir("nvp_persist_off_out");
    run_campaign(&cfg, &off_out);
    let off = sim_cache_stats();
    assert!(off.misses > 0, "memory-only rerun recomputes");
    assert_eq!(off.persisted, 0, "--no-cache mode must not write records");
    assert_eq!(off.disk_hits, 0);
    assert_eq!(artifact_bytes(&cold_out), artifact_bytes(&off_out), "memory-only artifacts differ");

    for d in [&cache_dir, &cold_out, &warm_out, &off_out] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// A second process appending to the same cache directory only adds
/// records; reloading after an overlapping double-write still recovers
/// a usable cache (duplicate keys are benign).
#[test]
fn reopening_and_reappending_does_not_corrupt() {
    let _guard = global_cache_lock();
    // Runs in the same process as the test above but with its own
    // cache directory; `set_cache_dir` re-resolution is the supported
    // way to repoint the store.
    let cache_dir = unique_dir("nvp_persist_reopen_dir");
    let out_a = unique_dir("nvp_persist_reopen_a");
    let out_b = unique_dir("nvp_persist_reopen_b");
    let mut cfg = ExpConfig::quick();
    cfg.profile_seeds = vec![5];

    reset_sim_cache();
    set_cache_dir(Some(&cache_dir)).unwrap();
    run_campaign(&cfg, &out_a);
    let first = sim_cache_stats();

    // Re-open mid-life (second writer semantics) and run again: the
    // store indexes exactly the records the first pass persisted, and
    // the warm rerun appends nothing.
    let indexed = set_cache_dir(Some(&cache_dir)).unwrap();
    assert_eq!(indexed, first.persisted, "the store indexes every persisted record");
    run_campaign(&cfg, &out_b);
    let second = sim_cache_stats();
    assert_eq!(second.persisted, first.persisted, "warm rerun appended records");
    assert_eq!(artifact_bytes(&out_a), artifact_bytes(&out_b));

    for d in [&cache_dir, &out_a, &out_b] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Repointing the store at a different directory mid-process must not
/// leak records across directories in either direction: entries loaded
/// from the old directory stop being served (and are never copied into
/// the new one), and the old directory's shard files are not appended
/// to by runs that happen under the new one.
#[test]
fn switching_cache_directories_does_not_leak_records() {
    let _guard = global_cache_lock();
    let dir_a = unique_dir("nvp_persist_switch_a");
    let dir_b = unique_dir("nvp_persist_switch_b");
    let out_a = unique_dir("nvp_persist_switch_out_a");
    let out_b = unique_dir("nvp_persist_switch_out_b");
    let mut cfg = ExpConfig::quick();
    cfg.profile_seeds = vec![5];

    // Seed directory A with a cold run.
    reset_sim_cache();
    set_cache_dir(Some(&dir_a)).unwrap();
    run_campaign(&cfg, &out_a);
    let a = sim_cache_stats();
    assert!(a.persisted > 0, "cold run must persist records into A");
    let a_bytes = |dir: &std::path::Path| -> u64 {
        std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().metadata().unwrap().len()).sum()
    };
    let a_size = a_bytes(&dir_a);

    // Fresh index, load A (every entry disk-origin), then switch to B.
    // The switch must drop A's loaded records: the rerun recomputes
    // from scratch and persists into B, never serving A's entries.
    reset_sim_cache();
    let loaded = set_cache_dir(Some(&dir_a)).unwrap();
    assert_eq!(loaded, a.persisted, "reload recovers A's records");
    set_cache_dir(Some(&dir_b)).unwrap();
    run_campaign(&cfg, &out_b);
    let b = sim_cache_stats();
    assert_eq!(b.disk_hits, 0, "A's loaded records must not be served under B");
    assert!(b.misses > 0, "the run under B recomputes everything");
    assert!(b.persisted > 0, "B receives its own records");
    assert_eq!(a_bytes(&dir_a), a_size, "the run under B must not append to A's shards");

    // B is self-contained: a fresh index reloads exactly what the B run
    // persisted — none of A's records were copied across.
    reset_sim_cache();
    let b_loaded = set_cache_dir(Some(&dir_b)).unwrap();
    assert_eq!(b_loaded, b.persisted, "B holds exactly the records persisted under B");

    // The cache indirection stays invisible in the artifacts.
    assert_eq!(artifact_bytes(&out_a), artifact_bytes(&out_b));

    reset_sim_cache();
    set_cache_dir(None).unwrap();
    for d in [&dir_a, &dir_b, &out_a, &out_b] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// F12's fault trials and F5's wait-compute runs go through the cache
/// like every other simulation: rerunning both experiments in a fresh
/// index over the directory the first run filled simulates nothing,
/// serves every lookup from disk, and renders the same tables.
#[test]
fn warm_rerun_of_fault_trials_and_wait_sweep_simulates_nothing() {
    let _guard = global_cache_lock();
    let cache_dir = unique_dir("nvp_persist_f12_dir");
    let request = CampaignRequest::only(ExpConfig::quick(), &["f12", "f5"]);

    reset_sim_cache();
    set_cache_dir(Some(&cache_dir)).unwrap();
    let cold = run_request(&request).unwrap();
    assert!(cold.cache.misses > 0, "cold run must simulate");
    // No two runs of this request share a key, so no insert races.
    assert_eq!(cold.cache.persisted, cold.cache.misses, "every simulation persisted");

    reset_sim_cache();
    let loaded = set_cache_dir(Some(&cache_dir)).unwrap();
    assert_eq!(loaded, cold.cache.persisted, "reload recovers every record");
    let warm = run_request(&request).unwrap();
    assert_eq!(warm.cache.misses, 0, "warm rerun simulated: {:?}", warm.cache);
    assert_eq!(warm.cache.hits, cold.cache.hits + cold.cache.misses, "{:?}", warm.cache);
    assert_eq!(warm.cache.hits, warm.cache.disk_hits, "every hit served from disk");
    assert_eq!(warm.cache.persisted, 0);

    let csvs = |r: &CampaignResult| r.tables.iter().map(Table::to_csv).collect::<Vec<_>>();
    assert_eq!(csvs(&cold), csvs(&warm), "disk-served tables differ from computed ones");
    assert_eq!(cold.results_markdown(), warm.results_markdown());

    reset_sim_cache();
    set_cache_dir(None).unwrap();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Trace summaries and task costs streamed or measured by this process,
/// and read from a store.
fn input_work() -> (u64, u64) {
    let (traces, memo) = (trace_memo_stats(), sim_cache_memo_stats());
    (traces.summarized + memo.task_costs_measured, traces.summaries_loaded + memo.task_costs_loaded)
}

/// Shard magic and record bound of the store's format.
const SHARD_MAGIC: &[u8; 8] = b"nvpsimc4";
const MAX_RECORD_BYTES: u32 = 1 << 16;

/// A store's shard files, sorted.
fn shards(dir: &Path) -> Vec<PathBuf> {
    let mut shards: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    shards.sort();
    shards
}

/// The input records of a store: every intact shard payload that is
/// not an outcome's (kind byte 0), shard by shard in file order.
fn input_records(dir: &Path) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for shard in shards(dir) {
        let bytes = std::fs::read(&shard).unwrap();
        let log = record::scan(&bytes, SHARD_MAGIC, MAX_RECORD_BYTES);
        assert_eq!(log.damaged, 0, "{} is intact", shard.display());
        out.extend(log.payloads.iter().filter(|p| p[0] != 0).map(|p| p.to_vec()));
    }
    out
}

fn sorted(mut records: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    records.sort();
    records
}

/// Trace summaries and task costs are records of their directory's
/// shards: a rerun over the same directory reads every one, a switch to
/// another directory reads none of the old one's and writes its own,
/// and a damaged record is quarantined with its shard and recomputed,
/// never served.
#[test]
fn input_records_follow_their_directory_and_damage_is_recomputed() {
    let _guard = global_cache_lock();
    let (dir_a, dir_b) = (unique_dir("nvp_persist_inputs_a"), unique_dir("nvp_persist_inputs_b"));
    // F2 reads each profile's summary; F8 and the wait baselines of F3
    // read task costs.
    let request = CampaignRequest::only(ExpConfig::quick(), &["f2", "f3", "f8"]);

    reset_sim_cache();
    set_cache_dir(Some(&dir_a)).unwrap();
    let before = input_work();
    let cold = run_request(&request).unwrap();
    let (computed, loaded) = input_work();
    let inputs = computed - before.0;
    assert!(inputs > request.config.profile_seeds.len() as u64, "summaries and task costs");
    assert_eq!(loaded, before.1, "a fresh store holds no input");
    let a_log = input_records(&dir_a);
    assert_eq!(a_log.len() as u64, inputs, "one record per input");

    reset_sim_cache();
    set_cache_dir(Some(&dir_a)).unwrap();
    let before = input_work();
    let warm = run_request(&request).unwrap();
    assert_eq!(input_work(), (before.0, before.1 + inputs), "every input is read back");
    assert_eq!(input_records(&dir_a), a_log, "and none is written again");

    // Load A's inputs, then switch to B: none of them is served there.
    reset_sim_cache();
    set_cache_dir(Some(&dir_a)).unwrap();
    run_request(&CampaignRequest::only(ExpConfig::quick(), &["f8"])).unwrap();
    set_cache_dir(Some(&dir_b)).unwrap();
    let before = input_work();
    let under_b = run_request(&request).unwrap();
    assert_eq!(input_work(), (before.0 + inputs, before.1), "B recomputes every input");
    assert_eq!(input_records(&dir_a), a_log, "the run under B writes nothing to A");
    assert_eq!(sorted(input_records(&dir_b)), sorted(a_log.clone()), "B holds its own records");

    // Damage two of B's input records: move the first shard's inputs
    // behind its outcomes and cut its last one short, and flip a byte
    // of another. Their shards are quarantined, and exactly those two
    // inputs are recomputed.
    let cut_shard = shards(&dir_b)
        .into_iter()
        .find(|shard| {
            let bytes = std::fs::read(shard).unwrap();
            record::scan(&bytes, SHARD_MAGIC, MAX_RECORD_BYTES).payloads.iter().any(|p| p[0] != 0)
        })
        .expect("a shard holds an input");
    let bytes = std::fs::read(&cut_shard).unwrap();
    let payloads = record::scan(&bytes, SHARD_MAGIC, MAX_RECORD_BYTES).payloads;
    let (outcomes, kept): (Vec<&[u8]>, Vec<&[u8]>) = payloads.iter().partition(|p| p[0] == 0);
    let mut image =
        record::log_image(SHARD_MAGIC, outcomes.iter().chain(&kept), MAX_RECORD_BYTES).unwrap();
    image.truncate(image.len() - 3);
    std::fs::write(&cut_shard, &image).unwrap();
    let cut = kept[kept.len() - 1];
    let (flip_shard, flip_at) = shards(&dir_b)
        .into_iter()
        .find_map(|shard| {
            let bytes = std::fs::read(&shard).unwrap();
            let log = record::scan(&bytes, SHARD_MAGIC, MAX_RECORD_BYTES);
            let at = log.payloads.iter().zip(&log.offsets).find(|(p, _)| p[0] != 0 && **p != cut);
            at.map(|(_, &at)| (shard.clone(), at as usize))
        })
        .expect("a second input record");
    let mut flipped = std::fs::read(&flip_shard).unwrap();
    flipped[flip_at + 8 + 40] ^= 0x01;
    std::fs::write(&flip_shard, &flipped).unwrap();
    let damaged_shards = if flip_shard == cut_shard { 1 } else { 2 };

    reset_sim_cache();
    set_cache_dir(Some(&dir_b)).unwrap();
    assert_eq!(sim_cache_stats().quarantined, damaged_shards, "every damaged shard is counted");
    let before = input_work();
    let healed = run_request(&request).unwrap();
    assert_eq!(input_work(), (before.0 + 2, before.1 + inputs - 2), "two recomputed");
    assert_eq!(healed.cache.misses, 0, "no outcome was damaged");
    for shard in [&cut_shard, &flip_shard] {
        let mut kept_aside = shard.as_os_str().to_owned();
        kept_aside.push(".quarantine");
        assert!(Path::new(&kept_aside).exists(), "the damaged shard is kept aside");
    }
    assert_eq!(
        sorted(input_records(&dir_b)),
        sorted(a_log),
        "and healed with its recomputed records"
    );

    let csvs = |r: &CampaignResult| r.tables.iter().map(Table::to_csv).collect::<Vec<_>>();
    for other in [&warm, &under_b, &healed] {
        assert_eq!(csvs(other), csvs(&cold), "stored inputs change no byte");
    }

    reset_sim_cache();
    set_cache_dir(None).unwrap();
    for d in [&dir_a, &dir_b] {
        let _ = std::fs::remove_dir_all(d);
    }
}
