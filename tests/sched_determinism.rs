//! Scheduler determinism: the campaign artifacts are byte-identical no
//! matter how many workers the scheduler runs, and no
//! matter whether the simulation cache is cold or warm. This is the
//! contract that lets `NVP_THREADS` be a pure performance knob and the
//! cache a pure time saver — neither may ever show up in the bytes.
//! A cold run's sim-cache counts are equal at every width too: each key
//! simulates once, however many workers miss it together.

use std::path::{Path, PathBuf};

use nvp::experiments::{
    run_all, run_request, set_thread_override, CampaignRequest, ExpConfig, SimCacheStats,
};

/// A temp dir unique to this process and call, so concurrent test
/// invocations never race on `remove_dir_all`.
fn unique_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("{tag}_{}_{n}", std::process::id()))
}

/// Reads every artifact in `dir` as `(file name, bytes)`, sorted by name.
fn artifact_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
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

fn assert_same_artifacts(tag: &str, reference: &[(String, Vec<u8>)], dir: &Path) {
    let got = artifact_bytes(dir);
    assert_eq!(reference.len(), got.len(), "{tag}: artifact counts differ");
    for ((rn, rb), (gn, gb)) in reference.iter().zip(&got) {
        assert_eq!(rn, gn, "{tag}: artifact names diverge");
        assert_eq!(rb, gb, "{tag}: {rn} differs from the single-thread reference");
    }
}

fn assert_same_counts(tag: &str, reference: SimCacheStats, got: SimCacheStats) {
    let counts = |s: SimCacheStats| (s.misses, s.hits, s.disk_hits);
    assert_eq!(counts(reference), counts(got), "{tag}: (misses, hits, disk hits) differ");
}

/// One test driving every thread-count and cache-temperature variation:
/// the thread override and the cache are process-global, so sequencing
/// the runs inside a single test keeps them race-free, and it is the
/// only test in this process, so the per-run cache deltas are exact.
#[test]
fn artifacts_are_byte_identical_across_thread_counts_and_cache_states() {
    let cfg = ExpConfig::quick();

    // Reference: fully sequential, cold in-memory cache.
    nvp::experiments::reset_sim_cache();
    set_thread_override(Some(1));
    let ref_dir = unique_dir("nvp_sched_det_ref");
    let cold_counts = run_all(&cfg, &ref_dir).unwrap().cache;
    assert!(cold_counts.misses > 0, "a cold run simulates");
    let reference = artifact_bytes(&ref_dir);

    // Warm rerun at the same width: the cache must not leak into bytes.
    let warm_dir = unique_dir("nvp_sched_det_warm1");
    run_all(&cfg, &warm_dir).unwrap();
    assert_same_artifacts("threads=1 warm", &reference, &warm_dir);
    let _ = std::fs::remove_dir_all(&warm_dir);

    // Wider schedules, cold and warm each: claim order, helper
    // recruitment, and cache temperature must all be invisible.
    for threads in [2usize, 8] {
        set_thread_override(Some(threads));
        for temperature in ["cold", "warm"] {
            if temperature == "cold" {
                nvp::experiments::reset_sim_cache();
            }
            let dir = unique_dir("nvp_sched_det_run");
            let counts = run_all(&cfg, &dir).unwrap().cache;
            let tag = format!("threads={threads} {temperature}");
            assert_same_artifacts(&tag, &reference, &dir);
            if temperature == "cold" {
                assert_same_counts(&tag, cold_counts, counts);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // The `nvpd` simulate-job shape: F3 beside F12's nested trial
    // sweep, where an idle caller lends its slot to the sweep. Each run
    // starts cold so F3 simulates while the sweep recruits.
    let request = CampaignRequest::only(ExpConfig::quick(), &["f3", "f12"]);
    let mut job_reference = None;
    for threads in [1usize, 2, 8] {
        set_thread_override(Some(threads));
        nvp::experiments::reset_sim_cache();
        let dir = unique_dir("nvp_sched_det_job");
        let result = run_request(&request).unwrap();
        result.write(&dir).unwrap();
        match &job_reference {
            None => job_reference = Some((artifact_bytes(&dir), result.cache)),
            Some((reference, counts)) => {
                let tag = format!("f3+f12 threads={threads}");
                assert_same_artifacts(&tag, reference, &dir);
                assert_same_counts(&tag, *counts, result.cache);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    set_thread_override(None);
    let _ = std::fs::remove_dir_all(&ref_dir);
}
