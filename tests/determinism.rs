//! Whole-stack determinism: identical seeds and configurations produce
//! bit-identical traces, simulations, and experiment tables.

use std::path::Path;

use nvp::experiments::{
    f1_power_profiles, find, registry, run_request, t1_chip_gallery, CampaignRequest,
    CampaignResult, ExpConfig,
};
use nvp::prelude::*;

#[test]
fn traces_are_pure_functions_of_seed() {
    for seed in [1u64, 99, 12345] {
        let a = harvester::wrist_watch(seed, 3.0);
        let b = harvester::wrist_watch(seed, 3.0);
        assert_eq!(a, b);
    }
    assert_ne!(harvester::wrist_watch(1, 3.0), harvester::wrist_watch(2, 3.0));
}

#[test]
fn full_platform_runs_are_reproducible() {
    let frame = GrayImage::synthetic(5, 16, 16);
    let kernel = KernelKind::Median.build(&frame).unwrap();
    let trace = harvester::wrist_watch(4, 4.0);
    let backup = BackupModel::distributed(NvmTechnology::SttMram, 2048);

    let run = || {
        let mut cfg = SystemConfig::default();
        cfg.dmem_words = cfg.dmem_words.max(kernel.min_dmem_words());
        let mut sys =
            IntermittentSystem::new(kernel.program(), cfg, backup, BackupPolicy::demand()).unwrap();
        let report = sys.run(&trace).unwrap();
        (report, kernel.output_of(sys.machine()))
    };
    let (r1, out1) = run();
    let (r2, out2) = run();
    assert_eq!(r1, r2);
    assert_eq!(out1, out2);
    // Energy accounting is bit-identical, not merely close.
    assert_eq!(r1.energy.compute.get().to_bits(), r2.energy.compute.get().to_bits());
}

#[test]
fn experiment_tables_are_reproducible() {
    let cfg = ExpConfig::quick();
    assert_eq!(t1_chip_gallery::table(&cfg), t1_chip_gallery::table(&cfg));
    let f1 = find("f1").unwrap();
    assert_eq!(f1.build(&cfg), f1.build(&cfg));
}

/// A temp dir unique to this process and call, so concurrent test
/// invocations never race on `remove_dir_all`.
fn unique_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("{tag}_{}_{n}", std::process::id()))
}

/// Runs the whole campaign in this process and writes its artifacts
/// into `dir`.
fn run_campaign(cfg: &ExpConfig, dir: &Path) -> (CampaignResult, Vec<std::path::PathBuf>) {
    let result = run_request(&CampaignRequest::all(cfg.clone())).unwrap();
    let files = result.write(dir).unwrap();
    (result, files)
}

/// Reads every artifact in `dir` as `(file name, bytes)`, sorted by name.
fn artifact_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            let bytes = std::fs::read(e.path()).unwrap();
            (name, bytes)
        })
        .collect();
    out.sort();
    out
}

#[test]
fn run_all_twice_is_identical() {
    let cfg = ExpConfig::quick();
    let dir1 = unique_dir("nvp_det_rerun");
    let dir2 = unique_dir("nvp_det_rerun");
    let (a, _) = run_campaign(&cfg, &dir1);
    let (b, _) = run_campaign(&cfg, &dir2);
    assert_eq!(a.tables.len(), registry().len());
    for ((ta, tb), exp) in a.tables.iter().zip(&b.tables).zip(registry()) {
        assert_eq!(ta, tb, "table {} differs between runs", ta.id());
        // Artifact file stems come from table ids, `--only` handles
        // from registry ids: they must agree.
        assert_eq!(ta.id().to_lowercase(), exp.id(), "table/registry id mismatch");
    }
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir2);
}

/// The campaign, which plans every experiment and runs all their work
/// in one flat scheduler map, must be byte-identical to building each
/// experiment on its own in registry order: every CSV and `RESULTS.md`,
/// for more than one seed set.
#[test]
fn parallel_run_all_matches_sequential_bytes() {
    let mut shifted = ExpConfig::quick();
    shifted.profile_seeds = vec![3, 4];
    shifted.frame_seed = 11;
    for (tag, cfg) in [("quick", ExpConfig::quick()), ("shifted", shifted)] {
        let par_dir = unique_dir("nvp_det_par");
        let seq_dir = unique_dir("nvp_det_seq");
        let (_, par_files) = run_campaign(&cfg, &par_dir);
        let profiles = cfg.profile_seeds.iter();
        let sequential = CampaignResult {
            tables: registry().iter().map(|e| e.build(&cfg)).collect(),
            profiles: profiles.map(|&s| (s, f1_power_profiles::series(&cfg, s).to_csv())).collect(),
            cache: Default::default(),
            sched: Default::default(),
            exec: Default::default(),
        };
        let seq_files = sequential.write(&seq_dir).unwrap();
        assert_eq!(par_files.len(), seq_files.len(), "{tag}: file counts differ");

        let par_bytes = artifact_bytes(&par_dir);
        let seq_bytes = artifact_bytes(&seq_dir);
        assert_eq!(par_bytes.len(), seq_bytes.len(), "{tag}: artifact counts differ");
        for ((pn, pb), (sn, sb)) in par_bytes.iter().zip(&seq_bytes) {
            assert_eq!(pn, sn, "{tag}: artifact names diverge");
            assert_eq!(pb, sb, "{tag}: {pn} differs between parallel and sequential runs");
        }
        let _ = std::fs::remove_dir_all(&par_dir);
        let _ = std::fs::remove_dir_all(&seq_dir);
    }
}
