//! Regression-tracked runner benchmark (`cargo bench --bench runner`).
//!
//! Not a Criterion target: a plain `main` that measures the end-to-end
//! evaluation runner and the simulator hot path, then writes the
//! machine-readable snapshot `BENCH_runner.json` at the repository root
//! (override the location with `NVP_BENCH_RUNNER_JSON`). The checked-in
//! copy is the baseline; rerun after perf-sensitive changes and compare.
//!
//! Measured quantities (schema `nvp-bench-runner/5`):
//!
//! * `run_all_quick.parallel_s` / `sequential_s` — best-of-3 wall time
//!   of `run_all(ExpConfig::quick())` on the work-stealing scheduler
//!   vs. the sequential reference forced to one worker via
//!   `set_thread_override`. The parallel and sequential repetitions
//!   are **interleaved** (par, seq, par, seq, …) so slow drift on a
//!   shared host biases both sides equally instead of whichever ran
//!   second. `parallel_4t_s` repeats the parallel side pinned to four
//!   workers; on a single-core host that mostly measures scheduler
//!   overhead, which is the honest number to track there.
//! * `scheduler` — tasks submitted, steals, and helper threads spawned
//!   during one 4-worker `run_all`, from `sched_stats()`.
//! * `sim_cache` — in-memory dedup: one `run_all` against an empty
//!   simulation cache vs. a fully populated one.
//! * `sim_cache_disk` — the persistent store: a cold run that writes
//!   the record log, then a simulated fresh process (index cleared,
//!   directory re-opened) whose run is served entirely from disk.
//! * `f12_campaign` — best-of-3 cold wall time of the F12 Monte-Carlo
//!   fault campaign alone (`run_only(["f12"])`, cache reset per rep),
//!   the workload the lane-group dispatch and shared program image
//!   target, with the lane-group counters from one run.
//! * `simulator.*_steps_per_sec` — `Machine::step` / `run_blocks`
//!   throughput on a branchy ALU loop and the Sobel kernel.
//!
//! A warm-up run first fills the process-wide frame/kernel/trace memo
//! caches, and the simulation cache is reset before every timed
//! repetition unless the measurement is explicitly about cache warmth,
//! so wall times measure real simulation work.

use std::fs;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use nvp_experiments::{
    registry, reset_sim_cache, run_all, run_all_sequential, run_only, sched_stats, set_cache_dir,
    set_thread_override, thread_count, ExpConfig,
};
use nvp_isa::asm::assemble;
use nvp_sim::Machine;
use nvp_workloads::{GrayImage, KernelKind};

const REPS: usize = 3;

fn unique_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("{tag}_{}_{n}", std::process::id()))
}

/// One cold-cache `run_all` (or variant), returning its wall time.
fn time_one(f: impl Fn(&ExpConfig, &std::path::Path) -> std::io::Result<()>) -> f64 {
    let cfg = ExpConfig::quick();
    let dir = unique_dir("nvp_bench_runner");
    reset_sim_cache();
    let t0 = Instant::now();
    f(&cfg, &dir).expect("run succeeds");
    let dt = t0.elapsed().as_secs_f64();
    let _ = fs::remove_dir_all(&dir);
    dt
}

/// Best-of-`REPS` throughput of `advance` on fresh machines, running
/// `insts` instructions per repetition (instructions per second).
fn steps_per_sec(
    mut fresh: impl FnMut() -> Machine,
    advance: impl Fn(&mut Machine, u64) -> u64,
    insts: u64,
) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..REPS {
        let mut m = fresh();
        let t0 = Instant::now();
        let mut executed = 0;
        while executed < insts {
            executed += advance(&mut m, insts - executed);
            if m.halted() {
                break;
            }
        }
        let rate = executed as f64 / t0.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    best
}

#[allow(clippy::too_many_lines)]
fn main() {
    let cfg = ExpConfig::quick();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let parallel_threads = thread_count(registry().len() + cfg.profile_seeds.len());

    // Warm the memo caches so every timed variant sees identical
    // (all-hot) inputs; the simulation cache is reset per repetition.
    {
        let dir = unique_dir("nvp_bench_runner_warmup");
        run_all(&cfg, &dir).expect("warm-up run succeeds");
        let _ = fs::remove_dir_all(&dir);
    }

    // Interleaved best-of-REPS: par, seq, par-4t in each round, so host
    // drift cannot systematically favor one side.
    let run_par = |c: &ExpConfig, d: &std::path::Path| run_all(c, d).map(|a| drop(black_box(a)));
    let run_seq =
        |c: &ExpConfig, d: &std::path::Path| run_all_sequential(c, d).map(|a| drop(black_box(a)));
    let mut parallel_s = f64::INFINITY;
    let mut sequential_s = f64::INFINITY;
    let mut parallel_4t_s = f64::INFINITY;
    for _ in 0..REPS {
        set_thread_override(None);
        parallel_s = parallel_s.min(time_one(run_par));
        set_thread_override(Some(1));
        sequential_s = sequential_s.min(time_one(run_seq));
        set_thread_override(Some(4));
        parallel_4t_s = parallel_4t_s.min(time_one(run_par));
    }
    set_thread_override(None);
    let speedup = sequential_s / parallel_s;
    let speedup_4t = sequential_s / parallel_4t_s;

    // Scheduler counters for one 4-worker campaign.
    let (sched_tasks, sched_steals, sched_helpers) = {
        set_thread_override(Some(4));
        let before = sched_stats();
        let dir = unique_dir("nvp_bench_sched");
        reset_sim_cache();
        run_all(&cfg, &dir).expect("run succeeds");
        let _ = fs::remove_dir_all(&dir);
        set_thread_override(None);
        let d = sched_stats().since(before);
        (d.tasks, d.steals, d.helpers)
    };

    // In-memory cache effectiveness: empty vs. fully populated.
    let (cache_cold_s, cache_warm_s, unique_sims, warm_hits) = {
        reset_sim_cache();
        let dir = unique_dir("nvp_bench_cache");
        let t0 = Instant::now();
        let cold = run_all(&cfg, &dir).expect("cold run succeeds");
        let cold_s = t0.elapsed().as_secs_f64();
        let _ = fs::remove_dir_all(&dir);
        let dir = unique_dir("nvp_bench_cache");
        let t0 = Instant::now();
        let warm = run_all(&cfg, &dir).expect("warm run succeeds");
        let warm_s = t0.elapsed().as_secs_f64();
        let _ = fs::remove_dir_all(&dir);
        (cold_s, warm_s, cold.cache.misses, warm.cache.hits)
    };
    let cache_speedup = cache_cold_s / cache_warm_s;

    // Persistent store: cold run writing the log, then a simulated
    // fresh process (index cleared, directory re-opened) served
    // entirely from disk.
    let (disk_cold_s, disk_warm_s, disk_persisted, disk_reloaded, disk_hits) = {
        let cache_dir = unique_dir("nvp_bench_disk_cache");
        set_cache_dir(Some(&cache_dir)).expect("open bench cache dir");
        reset_sim_cache();
        let dir = unique_dir("nvp_bench_disk");
        let t0 = Instant::now();
        let cold = run_all(&cfg, &dir).expect("cold persist run succeeds");
        let cold_s = t0.elapsed().as_secs_f64();
        let _ = fs::remove_dir_all(&dir);
        reset_sim_cache();
        let reloaded = set_cache_dir(Some(&cache_dir)).expect("reload bench cache dir");
        let dir = unique_dir("nvp_bench_disk");
        let t0 = Instant::now();
        let warm = run_all(&cfg, &dir).expect("warm disk run succeeds");
        let warm_s = t0.elapsed().as_secs_f64();
        let _ = fs::remove_dir_all(&dir);
        set_cache_dir(None).expect("disable bench cache dir");
        let _ = fs::remove_dir_all(&cache_dir);
        (cold_s, warm_s, cold.cache.persisted, reloaded, warm.cache.disk_hits)
    };
    let disk_speedup = disk_cold_s / disk_warm_s;

    // F12 campaign alone, cold, best-of-REPS: the Monte-Carlo fault
    // sweep is what the lane-group dispatch and shared image target.
    let run_f12 =
        |c: &ExpConfig, d: &std::path::Path| run_only(c, d, &["f12"]).map(|a| drop(black_box(a)));
    let mut f12_cold_s = f64::INFINITY;
    for _ in 0..REPS {
        f12_cold_s = f12_cold_s.min(time_one(run_f12));
    }
    let (f12_lane_groups, f12_lane_group_items) = {
        reset_sim_cache();
        let dir = unique_dir("nvp_bench_f12");
        let artifacts = run_only(&cfg, &dir, &["f12"]).expect("f12 run succeeds");
        let _ = fs::remove_dir_all(&dir);
        (artifacts.exec.lane_groups, artifacts.exec.lane_group_items)
    };

    let tight = assemble("start: addi r1, r1, 1\n xor r2, r2, r1\n bne r1, r0, start\n halt")
        .expect("tight loop assembles");
    let step_run = |m: &mut Machine, n: u64| m.run(n).expect("program runs");
    let block_run = |m: &mut Machine, n: u64| m.run_blocks(n).expect("program runs").executed;
    let tight_rate = steps_per_sec(|| Machine::new(&tight).expect("loads"), step_run, 2_000_000);
    let block_rate = steps_per_sec(|| Machine::new(&tight).expect("loads"), block_run, 2_000_000);

    let frame = GrayImage::synthetic(7, 32, 32);
    let sobel = KernelKind::Sobel.build(&frame).expect("sobel builds");
    let sobel_rate = steps_per_sec(|| sobel.machine().expect("loads"), step_run, 2_000_000);

    println!("bench runner/run_all_quick_parallel      {parallel_s:>12.4} s (best of {REPS}, {parallel_threads} thread(s))");
    println!("bench runner/run_all_quick_parallel_4t   {parallel_4t_s:>12.4} s (best of {REPS}, 4 threads)");
    println!("bench runner/run_all_quick_sequential    {sequential_s:>12.4} s (best of {REPS}, 1 thread)");
    println!("bench runner/speedup                     {speedup:>12.2} x on {cores} core(s)");
    println!("bench runner/speedup_4t                  {speedup_4t:>12.2} x on {cores} core(s)");
    println!("bench runner/sched_tasks                 {sched_tasks:>12}");
    println!("bench runner/sched_steals                {sched_steals:>12}");
    println!("bench runner/sched_helpers               {sched_helpers:>12}");
    println!("bench runner/sim_cache_cold              {cache_cold_s:>12.4} s ({unique_sims} unique sims)");
    println!("bench runner/sim_cache_warm              {cache_warm_s:>12.4} s ({warm_hits} hits)");
    println!("bench runner/sim_cache_speedup           {cache_speedup:>12.2} x");
    println!("bench runner/sim_cache_disk_cold         {disk_cold_s:>12.4} s ({disk_persisted} records persisted)");
    println!("bench runner/sim_cache_disk_warm         {disk_warm_s:>12.4} s ({disk_reloaded} reloaded, {disk_hits} disk hits)");
    println!("bench runner/sim_cache_disk_speedup      {disk_speedup:>12.2} x");
    println!("bench runner/f12_campaign_cold           {f12_cold_s:>12.4} s (best of {REPS}, {f12_lane_groups} lane groups / {f12_lane_group_items} trials)");
    println!("bench runner/tight_loop_steps_per_sec    {tight_rate:>12.0}");
    println!("bench runner/block_steps_per_sec         {block_rate:>12.0}");
    println!("bench runner/sobel_steps_per_sec         {sobel_rate:>12.0}");

    let out = std::env::var("NVP_BENCH_RUNNER_JSON").map_or_else(
        |_| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runner.json")),
        PathBuf::from,
    );
    let comment = "recorded by `cargo bench -p nvp-bench --bench runner`; wall times are \
                   best-of-3 with parallel/sequential repetitions interleaved and the \
                   simulation cache reset per repetition; *_threads is the worker count used \
                   for that measurement; sim_cache_disk times a cold persistent-store write \
                   and a fresh-process reload served entirely from disk; f12_campaign is the \
                   cold Monte-Carlo fault sweep alone";
    let json = format!(
        "{{\n  \"schema\": \"nvp-bench-runner/5\",\n  \"comment\": \"{comment}\",\n  \
         \"host_cores\": {cores},\n  \
         \"run_all_quick\": {{\n    \"parallel_s\": {parallel_s:.4},\n    \
         \"parallel_threads\": {parallel_threads},\n    \
         \"parallel_4t_s\": {parallel_4t_s:.4},\n    \
         \"sequential_s\": {sequential_s:.4},\n    \"sequential_threads\": 1,\n    \
         \"speedup\": {speedup:.3},\n    \"speedup_4t\": {speedup_4t:.3}\n  }},\n  \
         \"scheduler\": {{\n    \"threads\": 4,\n    \"tasks\": {sched_tasks},\n    \
         \"steals\": {sched_steals},\n    \"helpers\": {sched_helpers}\n  }},\n  \
         \"sim_cache\": {{\n    \"cold_s\": {cache_cold_s:.4},\n    \
         \"warm_s\": {cache_warm_s:.4},\n    \"speedup\": {cache_speedup:.3},\n    \
         \"unique_sims\": {unique_sims},\n    \"warm_hits\": {warm_hits}\n  }},\n  \
         \"sim_cache_disk\": {{\n    \"cold_persist_s\": {disk_cold_s:.4},\n    \
         \"warm_reload_s\": {disk_warm_s:.4},\n    \"speedup\": {disk_speedup:.3},\n    \
         \"persisted\": {disk_persisted},\n    \"reloaded\": {disk_reloaded},\n    \
         \"disk_hits\": {disk_hits}\n  }},\n  \
         \"f12_campaign\": {{\n    \"cold_s\": {f12_cold_s:.4},\n    \
         \"lane_groups\": {f12_lane_groups},\n    \
         \"lane_group_items\": {f12_lane_group_items}\n  }},\n  \
         \"simulator\": {{\n    \"tight_loop_steps_per_sec\": {tight_rate:.0},\n    \
         \"block_steps_per_sec\": {block_rate:.0},\n    \
         \"sobel_steps_per_sec\": {sobel_rate:.0}\n  }}\n}}\n"
    );
    fs::write(&out, json).expect("write BENCH_runner.json");
    println!("wrote {}", out.display());
}
