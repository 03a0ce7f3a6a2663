//! The cost-stream tier against the block engine, run for run.
//!
//! A fault-free platform built with `IntermittentSystem::replaying`
//! serves its execution from the program's recorded block stream. Its
//! `RunReport` must be the block engine's bit for bit (every `f64`
//! through `to_bits`) on every program and platform: a fuzzed program
//! and the six kernels, under a demand NVP with nonvolatile data,
//! software checkpointing with volatile data, periodic policies that
//! roll back, a platform that stops at the first halt, and a program
//! that requests its own checkpoints. A periodic policy over
//! nonvolatile data rolls back onto data the lost work changed, so it
//! must leave the stream and still match. A program that reads its own
//! output, or whose second task takes another path, gets no stream. And
//! a campaign really serves instructions from streams, which no
//! artifact digest could show.

use std::sync::Arc;

use nvp::experiments::{cost_stream_stats, run_request, CampaignRequest, ExpConfig};
use nvp::prelude::*;
use nvp_core::{EnergyBreakdown, FaultPlan, StreamUse};
use nvp_sim::{BlockStream, MachineImage, StreamCore};
use nvp_workloads::fuzz::{generate, FuzzClass};

/// Instruction budget of a recording: far above any task here.
const RECORD_BUDGET: u64 = 50_000_000;

/// Every field of a report, floats as their bit patterns. Destructured
/// without `..`, so a new field does not compile until it is compared.
fn bits(r: &RunReport) -> Vec<u64> {
    let RunReport {
        duration_s,
        on_time_s,
        committed,
        executed,
        lost,
        uncommitted_at_end,
        backups,
        restores,
        rollbacks,
        tasks_completed,
        backups_torn,
        backup_retries,
        restores_corrupt,
        safe_mode_entries,
        committed_lost,
        energy,
    } = *r;
    let EnergyBreakdown {
        harvested,
        converted,
        compute,
        backup,
        restore,
        sleep,
        regulator,
        stored_at_end,
        storage_wasted,
    } = energy;
    let joules = [
        harvested,
        converted,
        compute,
        backup,
        restore,
        sleep,
        regulator,
        stored_at_end,
        storage_wasted,
    ];
    let mut out = vec![
        duration_s.to_bits(),
        on_time_s.to_bits(),
        committed,
        executed,
        lost,
        uncommitted_at_end,
        backups,
        restores,
        rollbacks,
        tasks_completed,
        backups_torn,
        backup_retries,
        restores_corrupt,
        safe_mode_entries,
        committed_lost,
    ];
    out.extend(joules.iter().map(|j| j.get().to_bits()));
    out
}

/// A platform under test.
struct Platform {
    name: &'static str,
    sys: SystemConfig,
    backup: BackupModel,
    policy: BackupPolicy,
    /// Whether its runs roll back onto nonvolatile data, and so must
    /// leave the stream.
    leaves: bool,
}

/// The platforms every program runs on, sized for `dmem_words`.
fn platforms(dmem_words: usize) -> Vec<Platform> {
    let mut nv = SystemConfig::default();
    nv.dmem_words = nv.dmem_words.max(dmem_words);
    let volatile = SystemConfig { dmem_nonvolatile: false, ..nv };
    let once = SystemConfig { restart_on_halt: false, ..nv };
    let hw = BackupModel::distributed(NvmTechnology::Feram, 2048);
    let sw = BackupModel::software(NvmTechnology::Feram, 2048, dmem_words as u64, nv.clock_hz);
    let periodic = BackupPolicy::Periodic { interval_s: 2e-3 };
    let platform =
        |name, sys, backup, policy, leaves| Platform { name, sys, backup, policy, leaves };
    vec![
        platform("demand NVP, nonvolatile data", nv, hw, BackupPolicy::demand(), false),
        platform(
            "software checkpoints, volatile data",
            volatile,
            sw,
            BackupPolicy::OnDemand { margin: 1.3 },
            false,
        ),
        platform("periodic, volatile data", volatile, sw, periodic, false),
        platform("demand NVP, stops at halt", once, hw, BackupPolicy::demand(), false),
        platform("periodic, nonvolatile data", nv, hw, periodic, true),
    ]
}

/// Square-wave supply: 30 ms bursts, 80 ms outages.
fn bursty() -> PowerTrace {
    let segments: Vec<(f64, f64)> = (0..25).flat_map(|_| [(300e-6, 0.03), (0.0, 0.08)]).collect();
    PowerTrace::from_segments(1e-4, &segments)
}

fn traces() -> [(&'static str, PowerTrace); 2] {
    [("wrist watch", harvester::wrist_watch(3, 2.5)), ("bursts", bursty())]
}

fn image(program: &Program, sys: &SystemConfig) -> Arc<MachineImage> {
    let built = MachineImage::build(program, sys.dmem_words, sys.cycle_model, sys.energy_model);
    Arc::new(built.expect("image builds"))
}

/// Runs `program` on every platform over every trace through the block
/// engine and through its stream, and asserts the reports are
/// bit-identical. Returns every replayed run's stream use and report.
fn check_program(name: &str, program: &Program, dmem_words: usize) -> Vec<(StreamUse, RunReport)> {
    let mut uses = Vec::new();
    for p in platforms(dmem_words) {
        let image = image(program, &p.sys);
        let stream = BlockStream::record(&image, RECORD_BUDGET)
            .unwrap_or_else(|| panic!("{name} records a stream"));
        let stream = Arc::new(stream);
        for (trace_name, trace) in traces() {
            let ctx = format!("{name} / {} / {trace_name}", p.name);
            let mut block = IntermittentSystem::with_faults_on_image(
                &image,
                p.sys,
                p.backup,
                p.policy,
                FaultPlan::none(),
            );
            let expected = block.run(&trace).expect("runs");
            let mut replay =
                IntermittentSystem::replaying(&image, &stream, p.sys, p.backup, p.policy);
            let got = replay.run(&trace).expect("runs");
            assert_eq!(bits(&got), bits(&expected), "{ctx}: {got:?}\n!= {expected:?}");
            let used = replay.stream_use().expect("a replaying system reports its stream use");
            assert!(used.served > 0, "{ctx}: the stream served nothing");
            if p.leaves {
                assert!(expected.rollbacks > 0, "{ctx}: the run rolls back");
                assert!(used.left, "{ctx}: a rollback onto nonvolatile data leaves the stream");
                assert!(used.served < got.executed, "{ctx}: the block engine ran the rest");
            } else if !p.sys.dmem_nonvolatile {
                assert!(!used.left, "{ctx}: volatile rollbacks restart the stream");
                assert_eq!(used.served, got.executed, "{ctx}: the stream served every instruction");
            }
            uses.push((used, got));
        }
    }
    uses
}

/// The six kernels of the default campaign, on a small frame.
const KERNELS: [KernelKind; 6] = [
    KernelKind::Smooth,
    KernelKind::Sobel,
    KernelKind::Edges,
    KernelKind::Corners,
    KernelKind::Dct8,
    KernelKind::Median,
];

#[test]
fn replayed_kernels_match_the_block_engine_bit_for_bit() {
    let frame = GrayImage::synthetic(5, 16, 16);
    for kind in KERNELS {
        let kernel = kind.build(&frame).expect("kernel builds");
        let runs = check_program(kind.name(), kernel.program(), kernel.min_dmem_words());
        assert!(
            runs.iter().any(|(_, r)| r.tasks_completed > 1 && r.rollbacks > 0),
            "{}: some run restarts after a halt and rolls back",
            kind.name()
        );
    }
}

#[test]
fn replayed_fuzzed_and_checkpointing_programs_match_the_block_engine() {
    // The first fuzzed program of the family whose second task repeats
    // its first: the stream tier must serve it exactly.
    let fuzzed = (0x00C3_0000..0x00C3_0040)
        .map(|seed| generate(seed, FuzzClass::Safe))
        .find(|f| {
            let sys = SystemConfig { dmem_words: f.dmem_words, ..SystemConfig::default() };
            BlockStream::record(&image(&f.program, &sys), RECORD_BUDGET).is_some()
        })
        .expect("some fuzzed program repeats its task");
    check_program(&format!("fuzzed\n{}", fuzzed.source), &fuzzed.program, fuzzed.dmem_words);

    // Squares into an output table, a software checkpoint per row.
    let ckpt = assemble(
        "    li r5, 0
             li r6, 120
         row:
             mul r2, r5, r5
             addi r2, r2, 3
             sw r2, 64(r5)
             li r3, 9
         spin:
             addi r3, r3, -1
             bne r3, r0, spin
             ckpt
             addi r5, r5, 1
             bne r5, r6, row
             halt",
    )
    .expect("assembles");
    let runs = check_program("checkpointing program", &ckpt, 1024);
    assert!(runs.iter().any(|(_, r)| r.backups > 0), "ckpt requests backups");
}

#[test]
fn programs_whose_second_task_differs_get_no_stream() {
    let sys = SystemConfig::default();
    // Reads its own output: the second task counts from 1, not 0.
    let counter = assemble("lw r1, 0(r0)\naddi r1, r1, 1\nsw r1, 0(r0)\nhalt").expect("assembles");
    // Same final memory, but the second task skips the store.
    let flag =
        assemble("lw r1, 0(r0)\nbne r1, r0, 2\nli r2, 1\nsw r2, 0(r0)\nhalt").expect("assembles");
    // Never halts.
    let endless = assemble("top: addi r1, r1, 1\nj top").expect("assembles");
    for (name, program) in [("counter", counter), ("flag", flag), ("endless", endless)] {
        assert!(
            BlockStream::record(&image(&program, &sys), 100_000).is_none(),
            "{name} gets no stream"
        );
    }
    // A stream serves only the program and memory it was recorded from.
    let a = assemble("li r1, 3\nsw r1, 0(r0)\nhalt").expect("assembles");
    let b = assemble("li r1, 4\nsw r1, 0(r0)\nhalt").expect("assembles");
    let stream = Arc::new(BlockStream::record(&image(&a, &sys), 100).expect("a repeats"));
    assert!(StreamCore::new(&image(&a, &sys), &stream).is_some());
    assert!(StreamCore::new(&image(&b, &sys), &stream).is_none(), "another program");
    let smaller = SystemConfig { dmem_words: 4096, ..sys };
    assert!(StreamCore::new(&image(&a, &smaller), &stream).is_none(), "another memory size");
}

#[test]
fn a_campaign_serves_instructions_from_streams() {
    let request = CampaignRequest::only(ExpConfig::quick(), &["f3"]);
    run_request(&request).expect("f3 runs");
    let stats = cost_stream_stats();
    assert!(stats.recorded > 0 && stats.bytes > 0, "streams were recorded: {stats:?}");
    assert!(stats.served > 0, "instructions were served from streams: {stats:?}");
}
