//! F12 fault-campaign properties: trial outcomes are bit-identical
//! across same-seed reruns and across worker thread counts, and a
//! disabled fault plan is a strict no-op on the platform — the same
//! guarantees the golden-digest suite pins for the artifact files.

use nvp::experiments::{find, set_thread_override, ExpConfig};
use nvp::prelude::*;

/// One faulted platform run: a full plan (tears, restore failures,
/// retention decay) on a choppy wearable trace.
fn faulted_run(seed: u64) -> RunReport {
    let program = assemble("start: addi r1, r1, 1\n sw r1, 0(r0)\n j start").unwrap();
    let retention = RetentionShaper::new(RelaxPolicy::Linear, 16, 0.01, 100.0).bit_retention();
    let plan = FaultPlan::with_rates(seed, 0.3, 0.2).with_retention(retention);
    let mut sys = IntermittentSystem::with_faults(
        &program,
        SystemConfig::default(),
        BackupModel::distributed(NvmTechnology::Feram, 2048),
        BackupPolicy::demand(),
        plan,
    )
    .unwrap();
    sys.run(&harvester::wrist_watch(3, 3.0)).unwrap()
}

#[test]
fn faulted_trials_are_bit_identical_across_same_seed_reruns() {
    let a = faulted_run(17);
    let b = faulted_run(17);
    assert_eq!(a, b);
    // Energy accounting is bit-identical, not merely close.
    assert_eq!(a.energy.compute.get().to_bits(), b.energy.compute.get().to_bits());
    assert_eq!(a.energy.backup.get().to_bits(), b.energy.backup.get().to_bits());
    // A different fault seed is a genuinely different trial.
    assert_ne!(faulted_run(17), faulted_run(18));
}

#[test]
fn f12_table_is_bit_identical_across_thread_counts() {
    let cfg = ExpConfig::quick();
    let f12 = find("f12").unwrap();
    set_thread_override(Some(1));
    let sequential = f12.build(&cfg);
    set_thread_override(Some(3));
    let threaded = f12.build(&cfg);
    set_thread_override(None);
    let default_pool = f12.build(&cfg);
    assert_eq!(sequential.to_csv(), threaded.to_csv(), "1 vs 3 workers");
    assert_eq!(sequential.to_csv(), default_pool.to_csv(), "1 worker vs hardware default");
    // And a same-seed rerun reproduces the table byte-for-byte.
    assert_eq!(sequential.to_csv(), f12.build(&cfg).to_csv());
}

#[test]
fn disabled_fault_plan_is_a_strict_noop() {
    let program = assemble("start: addi r1, r1, 1\n sw r1, 0(r0)\n j start").unwrap();
    let trace = harvester::wrist_watch(5, 3.0);
    let backup = BackupModel::distributed(NvmTechnology::Feram, 2048);
    let plain =
        IntermittentSystem::new(&program, SystemConfig::default(), backup, BackupPolicy::demand())
            .unwrap()
            .run(&trace)
            .unwrap();
    let none = IntermittentSystem::with_faults(
        &program,
        SystemConfig::default(),
        backup,
        BackupPolicy::demand(),
        FaultPlan::none(),
    )
    .unwrap()
    .run(&trace)
    .unwrap();
    assert_eq!(plain, none);
    assert_eq!(plain.energy.compute.get().to_bits(), none.energy.compute.get().to_bits());
    assert_eq!(none.backups_torn + none.restores_corrupt + none.safe_mode_entries, 0);
    assert_eq!(none.committed_lost, 0);
    assert_eq!(none.committed_surviving(), none.committed);
}
