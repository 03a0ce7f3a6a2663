//! Traced runs: per-layer metrics, measured from outside by timing
//! calls into each crate's public functions.
//!
//! Every traced run reports the same metric set. Metrics scoped to the
//! workload (`simcache.*`, `sched.tasks|steals|helpers`, `exec.*`) come
//! from the workload's own campaigns or jobs. The rest come from probes
//! every traced run makes alike: child campaigns of three kinds (one
//! worker untraced, one worker split by experiment, full budget), an
//! `nvpd` stage stream (the workload's own stream on `nvpd-mixed`), and
//! micro-probes of the kernels, energy front end, simulator tiers,
//! platform, wire codec and journal.

use std::collections::BTreeSet;
use std::hint::black_box;

use nvp_core::{BackupModel, BackupPolicy, IntermittentSystem, RunReport, SystemConfig};
use nvp_device::NvmTechnology;
use nvp_energy::harvester::SourceKind;
use nvp_energy::units::{Farads, Seconds, Volts, Watts};
use nvp_energy::{EnergyFrontEnd, FrontEndConfig, PowerTrace};
use nvp_experiments::wire::{decode_result_bytes, encode_result_bytes, request_key};
use nvp_experiments::{
    f3_forward_progress, f8_frame_latency, registry, reset_sim_cache, run_request, set_cache_dir,
    CampaignRequest, CampaignResult, ExpConfig,
};
use nvp_sim::{Machine, SimError};
use nvp_workloads::{GrayImage, KernelInstance, KernelKind};
use nvpd::faultplan::ServiceFaultPlan;
use nvpd::journal::Journal;

use crate::campaign::{check_warm, fill_cache, run_child, spec};
use crate::child::{CampaignSpec, ChildReport};
use crate::clock::Stopwatch;
use crate::gen::{campaign_config, JobClass};
use crate::nvpd_mixed::{batches_for, run_stream, StreamRun};
use crate::report::{Ctx, Report};
use crate::stats::{median, percentile};

/// Batches of the `nvpd` stage stream on the campaign workloads: just
/// enough jobs for a p90 with ten samples beyond it.
const PROBE_BATCHES: usize = 6;

/// Repetitions of each micro-probe (the median is reported).
const REPS: usize = 7;

/// Rounds of the probe campaigns: the reconciliation compares medians,
/// since single campaigns in separate processes drift by a fifth.
const PROBE_ROUNDS: usize = 3;

/// The probe campaigns every traced run makes.
struct CampaignProbe {
    /// The first one-worker, untraced campaign; it also emitted its
    /// wire-encoded result.
    one: ChildReport,
    /// The first campaign with the default worker budget.
    full: ChildReport,
    /// The wire encoding of the full campaign's result.
    result_bytes: Vec<u8>,
}

/// Times `f` `n` times; returns the median seconds and the last value.
fn timed<T>(n: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let t = Stopwatch::start();
        last = Some(black_box(f()));
        times.push(t.secs());
    }
    (median(&times).unwrap_or(0.0), last.expect("at least one repetition"))
}

/// Entry point of every `--trace 1` run.
pub fn traced(workload: &str, ctx: &Ctx, rep: &mut Report) {
    if let Err(e) = traced_inner(workload, ctx, rep) {
        rep.fail(e);
    }
    let frac = rep.failed() as f64 / rep.attempted.max(1) as f64;
    rep.metric("failed_frac", frac, "ratio");
}

fn traced_inner(workload: &str, ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let probe = campaign_probe(ctx, rep)?;
    let batches = if workload == "nvpd-mixed" { batches_for(ctx.seconds) } else { PROBE_BATCHES };
    let stream = run_stream(ctx, rep, batches, true).ok_or("nvpd stream failed to start")?;
    nvpd_metrics(rep, &stream)?;
    match workload {
        "campaign-cold" => {
            simcache_metrics(rep, &probe.one)?;
            child_sched_exec(rep, &probe.full, &probe.one)?;
        }
        "campaign-warm" => {
            let (dir, fill) = fill_cache(ctx, rep).ok_or("cold fill failed")?;
            let warm = run_child(ctx, rep, &spec(ctx, Some(dir))).ok_or("warm campaign failed")?;
            check_warm(rep, &warm, &fill);
            simcache_metrics(rep, &warm)?;
            child_sched_exec(rep, &warm, &warm)?;
        }
        _ => stream_scoped(rep, &stream)?,
    }
    let t = Stopwatch::start();
    let opened = Journal::open(&stream.state_dir, ServiceFaultPlan::none());
    rep.metric("journal.open_s", t.secs(), "s");
    let (_, recovery) = opened.map_err(|e| format!("reopen journal: {e}"))?;
    rep.check(recovery.pending.is_empty(), || "journal still holds pending jobs".into());

    let cfg = campaign_config(ctx.seed);
    let frame = GrayImage::synthetic(cfg.frame_seed, cfg.frame_w, cfg.frame_h);
    kernel_metrics(rep, &frame)?;
    let traces = energy_metrics(rep, &cfg);
    let superblock_ns = sim_metrics(rep, &frame)?;
    core_metrics(rep, &frame, &traces[0], superblock_ns)?;
    wire_metrics(rep, ctx, &probe.result_bytes)?;
    journal_metrics(rep, ctx)
}

/// The one-worker, split and full-budget probe campaigns, and the
/// metrics that compare them. Each kind runs [`PROBE_ROUNDS`] times,
/// interleaved so host drift hits all three alike, and the medians are
/// compared.
fn campaign_probe(ctx: &Ctx, rep: &mut Report) -> Result<CampaignProbe, String> {
    let emit = ctx.path_str("full-result.bin");
    let one_worker = CampaignSpec { threads: Some(1), ..spec(ctx, None) };
    let split_spec = CampaignSpec { split: true, ..one_worker.clone() };
    let (mut ones, mut splits, mut fulls) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..PROBE_ROUNDS {
        let emit_result = (round == 0).then(|| emit.clone());
        let one = CampaignSpec { emit_result, ..one_worker.clone() };
        ones.push(run_child(ctx, rep, &one).ok_or("one-worker campaign failed")?);
        splits.push(run_child(ctx, rep, &split_spec).ok_or("split campaign failed")?);
        fulls.push(run_child(ctx, rep, &spec(ctx, None)).ok_or("full-budget campaign failed")?);
    }
    let digest = ones[0].text("digest").to_string();
    for other in ones.iter().chain(&splits).chain(&fulls) {
        rep.check(other.text("digest") == digest, || {
            format!("probe campaigns disagree: {} vs {digest}", other.text("digest"))
        });
    }
    let med = |runs: &[ChildReport], key: &str| -> Result<f64, String> {
        let v = runs.iter().map(|r| r.num(key)).collect::<Result<Vec<_>, _>>()?;
        median(&v).ok_or_else(|| format!("no samples of {key}"))
    };

    let one_s = med(&ones, "campaign_s")?;
    let mut attributed = 0.0;
    for exp in registry() {
        let s = med(&splits, &format!("exp.{}", exp.id()))?;
        attributed += s;
        rep.metric(&format!("experiments.{}_s", exp.id()), s, "s");
    }
    rep.metric("experiments.unattributed_s", one_s - attributed, "s");
    rep.metric("trace.overhead_frac", (med(&splits, "campaign_s")? - one_s) / one_s, "ratio");
    rep.metric("sched.par_speedup", one_s / med(&fulls, "campaign_s")?, "ratio");
    let result_bytes = std::fs::read(&emit).map_err(|e| format!("read emitted result: {e}"))?;
    Ok(CampaignProbe { one: ones.swap_remove(0), full: fulls.swap_remove(0), result_bytes })
}

/// Sim-cache counters and reload of one child campaign.
fn simcache_metrics(rep: &mut Report, r: &ChildReport) -> Result<(), String> {
    let (hits, misses) = (r.num("cache.hits")?, r.num("cache.misses")?);
    rep.metric("simcache.misses", misses, "count");
    rep.metric("simcache.hits", hits, "count");
    rep.metric("simcache.disk_hits", r.num("cache.disk_hits")?, "count");
    rep.metric("simcache.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    rep.metric("simcache.records_loaded", r.num("records_loaded")?, "count");
    rep.metric("simcache.reload_s", r.num("reload_s")?, "s");
    Ok(())
}

/// Scheduler counters from `sched`'s campaign, execution-tier counters
/// from `exec`'s (the one-worker run on `campaign-cold`, where they
/// repeat exactly).
fn child_sched_exec(
    rep: &mut Report,
    sched: &ChildReport,
    exec: &ChildReport,
) -> Result<(), String> {
    for k in ["tasks", "steals", "helpers"] {
        rep.metric(&format!("sched.{k}"), sched.num(&format!("sched.{k}"))?, "count");
    }
    for k in ["chain_runs", "side_exits", "lane_groups"] {
        rep.metric(&format!("exec.{k}"), exec.num(&format!("exec.{k}"))?, "count");
    }
    Ok(())
}

/// Cache, scheduler and tier counters summed over the stream's
/// non-replayed jobs (a replay carries its original job's counters),
/// and a restart's reload of the shards the server's jobs wrote.
fn stream_scoped(rep: &mut Report, run: &StreamRun) -> Result<(), String> {
    let fresh: Vec<&CampaignResult> = run
        .done
        .iter()
        .filter_map(|d| d.outcome.as_ref().ok())
        .filter(|(replayed, _)| !replayed)
        .map(|(_, r)| r)
        .collect();
    let sum = |f: &dyn Fn(&CampaignResult) -> u64| fresh.iter().map(|r| f(r)).sum::<u64>() as f64;
    let (hits, misses) = (sum(&|r| r.cache.hits), sum(&|r| r.cache.misses));
    rep.metric("simcache.misses", misses, "count");
    rep.metric("simcache.hits", hits, "count");
    rep.metric("simcache.disk_hits", sum(&|r| r.cache.disk_hits), "count");
    rep.metric("simcache.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    let persisted = sum(&|r| r.cache.persisted);
    // The server has stopped: empty the in-memory index, as a restarted
    // process starts, and reload the directory.
    reset_sim_cache();
    let t = Stopwatch::start();
    let loaded = set_cache_dir(Some(&run.cache_dir)).map_err(|e| format!("reload cache: {e}"))?;
    rep.metric("simcache.reload_s", t.secs(), "s");
    rep.count("simcache.records_loaded", loaded);
    rep.check(persisted > 0.0 && loaded as f64 >= persisted, || {
        format!("restart loaded {loaded} records of the stream's {persisted}")
    });
    rep.metric("sched.tasks", sum(&|r| r.sched.tasks), "count");
    rep.metric("sched.steals", sum(&|r| r.sched.steals), "count");
    rep.metric("sched.helpers", sum(&|r| r.sched.helpers), "count");
    rep.metric("exec.chain_runs", sum(&|r| r.exec.chain_runs), "count");
    rep.metric("exec.side_exits", sum(&|r| r.exec.side_exits), "count");
    rep.metric("exec.lane_groups", sum(&|r| r.exec.lane_groups), "count");
    Ok(())
}

fn nvpd_metrics(rep: &mut Report, run: &StreamRun) -> Result<(), String> {
    let stages: Vec<(f64, f64)> = run.done.iter().filter_map(|d| d.stages).collect();
    let admit: Vec<f64> = stages.iter().map(|s| s.0).collect();
    let result: Vec<f64> = stages.iter().map(|s| s.1).collect();
    rep.metric("nvpd.admit_s", median(&admit).unwrap_or(0.0), "s");
    rep.metric("nvpd.result_s", median(&result).unwrap_or(0.0), "s");
    for class in JobClass::ALL {
        let lat: Vec<f64> =
            run.done.iter().filter(|d| d.class == class).map(|d| d.latency_s).collect();
        rep.metric(&format!("nvpd.{}_job_p50_s", class.name()), median(&lat).unwrap_or(0.0), "s");
    }
    rep.count("nvpd.replayed", run.stats.replayed);
    rep.count("nvpd.rejected", run.stats.rejected);
    let all: Vec<f64> = run.done.iter().map(|d| d.latency_s).collect();
    rep.metric("job_p90_s", percentile(&all, 90.0).map_err(|e| format!("job_p90_s: {e}"))?, "s");
    Ok(())
}

/// The kernels the campaign builds: F3's and F8's.
fn campaign_kernels() -> BTreeSet<KernelKind> {
    f3_forward_progress::KERNELS.into_iter().chain(f8_frame_latency::KERNELS).collect()
}

fn kernel_metrics(rep: &mut Report, frame: &GrayImage) -> Result<(), String> {
    let kinds = campaign_kernels();
    let (s, built) =
        timed(REPS, || kinds.iter().map(|k| k.build(frame)).collect::<Result<Vec<_>, _>>());
    built.map_err(|e| format!("kernel build: {e}"))?;
    rep.metric("workloads.kernel_build_s", s, "s");
    Ok(())
}

/// Trace generation and front-end ticks over the campaign's watch
/// traces; returns the traces.
fn energy_metrics(rep: &mut Report, cfg: &ExpConfig) -> Vec<PowerTrace> {
    let mut gen_s = Vec::new();
    let mut traces = Vec::new();
    for &seed in &cfg.profile_seeds {
        let t = Stopwatch::start();
        traces.push(black_box(SourceKind::WristWatch.generate(seed, cfg.trace_duration_s)));
        gen_s.push(t.secs());
    }
    rep.metric("energy.trace_gen_s", median(&gen_s).unwrap_or(0.0), "s");

    let sys = SystemConfig::default();
    let fe_cfg = FrontEndConfig::direct(
        sys.rectifier,
        Farads::new(sys.capacitance_f),
        Volts::new(sys.cap_voltage_v),
        Seconds::new(sys.cap_leak_tau_s),
    );
    let samples: usize = traces.iter().map(PowerTrace::len).sum();
    let (s, ()) = timed(REPS, || {
        for trace in &traces {
            let mut fe = EnergyFrontEnd::new(fe_cfg);
            let dt = Seconds::new(trace.dt_s());
            for &p in trace.samples() {
                black_box(fe.tick(Watts::new(p), dt));
            }
        }
    });
    rep.metric("energy.tick_ns", s * 1e9 / samples as f64, "ns");
    traces
}

type Tier = fn(&mut Machine) -> Result<u64, SimError>;

/// Runs every kernel to halt on a fresh machine with `tier`; returns the
/// execution seconds (machine construction excluded) and instructions.
fn run_tier(kernels: &[KernelInstance], tier: Tier) -> Result<(f64, u64), String> {
    let (mut secs, mut insts) = (0.0, 0u64);
    for inst in kernels {
        let mut m = inst.machine().map_err(|e| e.to_string())?;
        let t = Stopwatch::start();
        while !m.halted() {
            let n = tier(&mut m).map_err(|e| format!("{}: {e}", inst.kind()))?;
            if n == 0 && !m.halted() {
                return Err(format!("{} made no progress", inst.kind()));
            }
            insts += n;
        }
        secs += t.secs();
        black_box(&m);
    }
    Ok((secs, insts))
}

/// Per-instruction cost of the step, block and superblock tiers; returns
/// the superblock figure.
fn sim_metrics(rep: &mut Report, frame: &GrayImage) -> Result<f64, String> {
    let kernels = campaign_kernels()
        .into_iter()
        .map(|k| k.build(frame))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let tiers: [(&str, Tier); 3] = [
        ("step", |m| m.run(u64::MAX)),
        ("block", |m| m.run_blocks(u64::MAX).map(|s| s.executed)),
        ("superblock", |m| m.run_superblocks(u64::MAX).map(|s| s.executed)),
    ];
    let mut insts = None;
    let mut last_ns = 0.0;
    for (name, tier) in tiers {
        let mut times = Vec::new();
        for _ in 0..REPS {
            let (s, n) = run_tier(&kernels, tier)?;
            rep.check(*insts.get_or_insert(n) == n, || format!("{name} tier ran {n} instructions"));
            times.push(s);
        }
        last_ns = median(&times).unwrap_or(0.0) * 1e9 / insts.unwrap_or(1).max(1) as f64;
        rep.metric(&format!("sim.{name}_ns_per_inst"), last_ns, "ns");
    }
    rep.count("sim.insts", insts.unwrap_or(0));
    Ok(last_ns)
}

/// `IntermittentSystem::run` of the F3 kernels over one watch trace,
/// configured as the campaign's hardware NVP.
fn core_metrics(
    rep: &mut Report,
    frame: &GrayImage,
    trace: &PowerTrace,
    superblock_ns: f64,
) -> Result<(), String> {
    let kernels = f3_forward_progress::KERNELS
        .iter()
        .map(|k| k.build(frame))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    let mut counts: Option<(u64, u64, u64)> = None;
    for _ in 0..3 {
        let mut secs = 0.0;
        let mut total = (0, 0, 0);
        for inst in &kernels {
            let mut sys = SystemConfig::default();
            sys.dmem_words = sys.dmem_words.max(inst.min_dmem_words());
            let backup = BackupModel::distributed(NvmTechnology::Feram, 2048);
            let mut system =
                IntermittentSystem::new(inst.program(), sys, backup, BackupPolicy::demand())
                    .map_err(|e| e.to_string())?;
            let t = Stopwatch::start();
            let r: RunReport = system.run(trace).map_err(|e| e.to_string())?;
            secs += t.secs();
            total = (total.0 + r.executed, total.1 + r.backups, total.2 + r.restores);
        }
        rep.check(*counts.get_or_insert(total) == total, || {
            format!("platform counts varied: {total:?}")
        });
        times.push(secs);
    }
    let secs = median(&times).unwrap_or(0.0);
    let (executed, backups, restores) = counts.unwrap_or_default();
    rep.metric(
        "core.platform_ns_per_sample",
        secs * 1e9 / (kernels.len() * trace.len()) as f64,
        "ns",
    );
    rep.count("core.executed", executed);
    rep.count("core.backups", backups);
    rep.count("core.restores", restores);
    rep.metric("core.exec_frac", executed as f64 * superblock_ns / (secs * 1e9), "ratio");
    Ok(())
}

/// Codec cost of one result and its request, under `prefix`.
fn codec_metrics(
    rep: &mut Report,
    prefix: &str,
    req: &CampaignRequest,
    bytes: &[u8],
) -> Result<(), String> {
    let (decode_s, decoded) = timed(REPS, || decode_result_bytes(bytes));
    let decoded = decoded.map_err(|e| format!("decode result: {e}"))?;
    let (encode_s, encoded) = timed(REPS, || encode_result_bytes(&decoded));
    rep.check(encoded == bytes, || format!("{prefix} result does not round-trip"));
    let (key_s, _) = timed(REPS, || request_key(req));
    rep.metric(&format!("{prefix}encode_result_us"), encode_s * 1e6, "us");
    rep.metric(&format!("{prefix}decode_result_us"), decode_s * 1e6, "us");
    rep.count(&format!("{prefix}result_bytes"), bytes.len() as u64);
    rep.metric(&format!("{prefix}request_key_us"), key_s * 1e6, "us");
    Ok(())
}

fn quick_f12(seed: u64) -> CampaignRequest {
    let mut req = CampaignRequest::only(ExpConfig::quick(), &["f12"]);
    req.seed = Some(seed);
    req
}

fn wire_metrics(rep: &mut Report, ctx: &Ctx, full_bytes: &[u8]) -> Result<(), String> {
    let full = CampaignRequest::all(campaign_config(ctx.seed));
    codec_metrics(rep, "wire.", &full, full_bytes)?;
    let req = quick_f12(ctx.seed);
    let result = run_request(&req).map_err(|e| e.to_string())?;
    codec_metrics(rep, "wire.f12.", &req, &encode_result_bytes(&result))
}

/// Journal appends, result-store puts and lookups on a scratch state
/// directory, walking each job through the server's order.
fn journal_metrics(rep: &mut Report, ctx: &Ctx) -> Result<(), String> {
    let dir = ctx.path("journal-probe");
    let (journal, _) =
        Journal::open(&dir, ServiceFaultPlan::none()).map_err(|e| format!("open journal: {e}"))?;
    let result = run_request(&quick_f12(ctx.seed)).map_err(|e| e.to_string())?;
    let (mut append, mut put, mut lookup) = (Vec::new(), Vec::new(), Vec::new());
    let us = |t: Stopwatch| t.secs() * 1e6;
    for job in 0..30u64 {
        let req = quick_f12(job);
        let key = request_key(&req);
        let t = Stopwatch::start();
        journal.admitted(job, &key, &req).map_err(|e| e.to_string())?;
        append.push(us(t));
        let t = Stopwatch::start();
        journal.started(job).map_err(|e| e.to_string())?;
        append.push(us(t));
        let t = Stopwatch::start();
        let digest = journal.put_result(&key, &result).map_err(|e| e.to_string())?;
        put.push(us(t));
        let t = Stopwatch::start();
        journal.completed(job, &digest).map_err(|e| e.to_string())?;
        append.push(us(t));
        let t = Stopwatch::start();
        let found = journal.lookup_result(&key);
        lookup.push(us(t));
        rep.check(found.as_ref() == Some(&result), || "result store lost a result".into());
    }
    rep.metric("journal.append_us", median(&append).unwrap_or(0.0), "us");
    rep.metric("journal.put_result_us", median(&put).unwrap_or(0.0), "us");
    rep.metric("journal.lookup_result_us", median(&lookup).unwrap_or(0.0), "us");
    Ok(())
}
