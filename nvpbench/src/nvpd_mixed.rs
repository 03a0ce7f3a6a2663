//! The `nvpd-mixed` workload: one resident `nvpd::Server` on loopback
//! with a state directory, driven closed-loop by one client per core
//! with a seeded stream of four job classes (see [`JobClass`]).

use std::io;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use nvp_experiments::client::{self, ClientConfig};
use nvp_experiments::wire::{
    decode_request_bytes, encode_request_bytes, read_frame, write_frame, Message,
};
use nvp_experiments::{run_request, set_cache_dir, CampaignRequest, CampaignResult};
use nvpd::{Server, ServerConfig, ServerStats};

use crate::child::{artifact_digest, peak_rss_mb};
use crate::clock::Stopwatch;
use crate::gen::{batch_len, job_stream, warmup_requests, Job, JobClass};
use crate::report::{Ctx, Report};
use crate::stats::{median, quartiles, tail};

/// Stream batches per measured second (fixed, so a seed always gives
/// the same job sequence; a batch is about 1.1 s of work on a 2-core
/// host).
const BATCHES_PER_SECOND: f64 = 1.0;

/// Set-ups timed per end-to-end run: this process's own, plus fresh
/// child processes for the rest. A set-up varies by half between
/// processes, so the median needs this many.
const SETUP_SAMPLES: usize = 11;

/// Stream jobs whose artifacts a fresh process recomputes per class.
const VERIFY_PER_CLASS: usize = 2;

/// How long [`stop`] waits for the server before it gives up.
const STOP_DEADLINE_S: f64 = 60.0;

/// Batches for a run of `seconds`: never fewer than it takes to report
/// a p90 with ten samples beyond it.
#[must_use]
pub fn batches_for(seconds: f64) -> usize {
    let min = 100usize.div_ceil(batch_len());
    ((seconds * BATCHES_PER_SECOND).ceil() as usize).max(min)
}

/// Client threads, and so concurrent connections: one per core.
fn clients() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A server with its warm-up done.
struct Running {
    handle: JoinHandle<io::Result<ServerStats>>,
    addr: String,
    setup_s: f64,
    warm: Vec<(CampaignRequest, CampaignResult)>,
}

/// Set-up: attach a fresh sim-cache directory, bind, open the journal
/// (inside `Server::run`) and run the warm-up requests. The server
/// stops by itself after the warm-up plus `stream_jobs` jobs.
fn start(dir: &Path, seed: u64, stream_jobs: usize) -> Result<Running, String> {
    let t0 = Stopwatch::start();
    set_cache_dir(Some(&dir.join("simcache"))).map_err(|e| format!("attach cache: {e}"))?;
    let server = Server::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let requests = warmup_requests(seed);
    let cfg = ServerConfig {
        max_jobs: Some((requests.len() + stream_jobs) as u64),
        state_dir: Some(dir.join("state")),
        ..ServerConfig::default()
    };
    let handle = thread::spawn(move || server.run(&cfg));
    let mut warm = Vec::new();
    for req in requests {
        match client::submit(&addr, &req) {
            Ok(out) => warm.push((req, out.result)),
            Err(e) => {
                let err = format!("warm-up job: {e}");
                let _ = stop(handle, &addr, &req);
                return Err(err);
            }
        }
    }
    Ok(Running { handle, addr, setup_s: t0.secs(), warm })
}

/// Waits for the server to return, at most [`STOP_DEADLINE_S`]. After a
/// failed job it may still be short of its job budget, so cheap filler
/// jobs top it up.
fn stop(
    handle: JoinHandle<io::Result<ServerStats>>,
    addr: &str,
    filler: &CampaignRequest,
) -> Result<ServerStats, String> {
    let quick = ClientConfig {
        timeout: Duration::from_secs(2),
        result_timeout: Duration::from_secs(10),
        retries: 0,
        backoff_base: Duration::from_millis(1),
    };
    let deadline = Stopwatch::start();
    while deadline.secs() < STOP_DEADLINE_S {
        let waited = Stopwatch::start();
        while !handle.is_finished() && waited.secs() < 0.5 {
            thread::sleep(Duration::from_millis(2));
        }
        if handle.is_finished() {
            return match handle.join() {
                Ok(Ok(stats)) => Ok(stats),
                Ok(Err(e)) => Err(format!("server failed: {e}")),
                Err(_) => Err("server thread panicked".to_string()),
            };
        }
        let _ = client::submit_with(addr, filler, &quick);
    }
    Err(format!("server did not stop within {STOP_DEADLINE_S} s"))
}

/// One finished stream job.
pub struct Done {
    /// Its class.
    pub class: JobClass,
    /// The request sent.
    pub request: CampaignRequest,
    /// Client-observed latency, connect to result.
    pub latency_s: f64,
    /// Submit→Accepted and Accepted→Result (traced runs only).
    pub stages: Option<(f64, f64)>,
    /// `(replayed, result)` or what went wrong.
    pub outcome: Result<(bool, CampaignResult), String>,
}

/// Submit, Accepted and Result frames by hand, timing each stage.
fn traced_submit(
    addr: &str,
    req: &CampaignRequest,
) -> Result<((f64, f64), bool, CampaignResult), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
    let submitted = Stopwatch::start();
    write_frame(&mut s, &Message::Submit(req.clone())).map_err(|e| format!("submit: {e}"))?;
    match read_frame(&mut s).map_err(|e| format!("accepted: {e}"))? {
        Message::Accepted { .. } => {}
        other => return Err(format!("expected Accepted, got {other:?}")),
    }
    let admit_s = submitted.secs();
    let accepted = Stopwatch::start();
    match read_frame(&mut s).map_err(|e| format!("result: {e}"))? {
        Message::Result { replayed, result, .. } => {
            Ok(((admit_s, accepted.secs()), replayed, result))
        }
        other => Err(format!("expected Result, got {other:?}")),
    }
}

fn submit_one(addr: &str, job: &Job, traced: bool) -> Done {
    let t0 = Stopwatch::start();
    let (stages, outcome) = if traced {
        match traced_submit(addr, &job.request) {
            Ok((stages, replayed, result)) => (Some(stages), Ok((replayed, result))),
            Err(e) => (None, Err(e)),
        }
    } else {
        let out = client::submit(addr, &job.request).map_err(|e| e.to_string());
        (None, out.map(|o| (o.replayed, o.result)))
    };
    Done { class: job.class, request: job.request.clone(), latency_s: t0.secs(), stages, outcome }
}

/// Everything one stream run produced.
pub struct StreamRun {
    /// Set-up time of this process's server.
    pub setup_s: f64,
    /// Every stream job, in completion order.
    pub done: Vec<Done>,
    /// Wall time of each batch.
    pub batch_s: Vec<f64>,
    /// Wall time of the whole stream.
    pub total_s: f64,
    /// The server's counters after it stopped.
    pub stats: ServerStats,
    /// The server's state directory (journal and result store).
    pub state_dir: PathBuf,
    /// The sim-cache directory the server's jobs persisted to.
    pub cache_dir: PathBuf,
}

/// Starts a server, sends `batches` batches closed-loop, stops the
/// server and checks every output. Counts each job as an operation.
pub fn run_stream(ctx: &Ctx, rep: &mut Report, batches: usize, traced: bool) -> Option<StreamRun> {
    let dir = ctx.path("nvpd");
    let stream = job_stream(ctx.seed, batches);
    let jobs: usize = stream.iter().map(Vec::len).sum();
    let running = match start(&dir, ctx.seed, jobs) {
        Ok(r) => r,
        Err(e) => {
            rep.attempted += 1;
            rep.fail(format!("nvpd set-up: {e}"));
            return None;
        }
    };
    let mut done = Vec::with_capacity(jobs);
    let mut batch_s = Vec::with_capacity(batches);
    let t0 = Stopwatch::start();
    for batch in &stream {
        let next = AtomicUsize::new(0);
        let out = Mutex::new(Vec::with_capacity(batch.len()));
        let tb = Stopwatch::start();
        thread::scope(|s| {
            for _ in 0..clients() {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = batch.get(i) else { break };
                    let d = submit_one(&running.addr, job, traced);
                    out.lock().expect("stream results lock").push(d);
                });
            }
        });
        batch_s.push(tb.secs());
        done.extend(out.into_inner().expect("stream results lock"));
    }
    let total_s = t0.secs();

    let Running { handle, addr, setup_s, warm } = running;
    let stats = match stop(handle, &addr, &warm[0].0) {
        Ok(s) => s,
        Err(e) => {
            rep.fail(e);
            ServerStats::default()
        }
    };
    rep.attempted += jobs as u64;
    check_stream(ctx, rep, &done, &warm);
    rep.check(stats.rejected == 0, || format!("server rejected {} submission(s)", stats.rejected));
    rep.check(stats.completed == (warm.len() + jobs) as u64, || {
        format!("server completed {} of {} jobs", stats.completed, warm.len() + jobs)
    });
    Some(StreamRun {
        setup_s,
        done,
        batch_s,
        total_s,
        stats,
        state_dir: dir.join("state"),
        cache_dir: dir.join("simcache"),
    })
}

/// Output checks: replays are replayed and identical to the original;
/// `f3` and `t1` tables do not depend on the fault seed, so every dedup
/// and tiny job must match its warm-up; simulate jobs must simulate and
/// persist; a sample of each class must match a fresh process's
/// in-process run. Artifacts are digested as `CampaignResult::write`
/// renders them.
fn check_stream(
    ctx: &Ctx,
    rep: &mut Report,
    done: &[Done],
    warm: &[(CampaignRequest, CampaignResult)],
) {
    let out = ctx.path("job-artifacts");
    let mut warm_digests = Vec::new();
    for (req, res) in warm {
        match artifact_digest(res, &out) {
            Ok(d) => warm_digests.push((req.clone(), d)),
            Err(e) => rep.fail(format!("render warm-up artifacts: {e}")),
        }
    }
    let warm_digest = |id: &str| {
        warm_digests
            .iter()
            .find(|(r, _)| r.only.as_deref() == Some(&[id.to_string()][..]))
            .map(|(_, d)| d.clone())
    };
    let mut verify: Vec<(CampaignRequest, String)> = warm_digests.clone();
    for d in done {
        let (replayed, result) = match &d.outcome {
            Ok(o) => o,
            Err(e) => {
                rep.fail(format!("{} job: {e}", d.class.name()));
                continue;
            }
        };
        rep.check(*replayed == (d.class == JobClass::Replay), || {
            format!("{} job came back with replayed={replayed}", d.class.name())
        });
        let got = match artifact_digest(result, &out) {
            Ok(d) => d,
            Err(e) => {
                rep.fail(format!("render {} job artifacts: {e}", d.class.name()));
                continue;
            }
        };
        let expect = match d.class {
            JobClass::Replay => {
                warm_digests.iter().find(|(r, _)| *r == d.request).map(|(_, g)| g.clone())
            }
            JobClass::Dedup => warm_digest("f3"),
            JobClass::Tiny => warm_digest("t1"),
            JobClass::Simulate => None,
        };
        if let Some(expect) = expect {
            rep.check(got == expect, || {
                format!("{} job artifacts {got} != {expect}", d.class.name())
            });
        }
        // F12's Monte-Carlo trials run as lane groups outside the
        // sim-cache; F3's fresh profile misses it and appends shards.
        let (misses, persisted) = (result.cache.misses, result.cache.persisted);
        match d.class {
            JobClass::Simulate => {
                rep.check(result.exec.lane_groups > 0, || "simulate job ran no lane group".into());
                rep.check(misses > 0 && persisted == misses, || {
                    format!("simulate job missed {misses}, persisted {persisted}")
                });
            }
            JobClass::Dedup => rep.check(misses == 0, || format!("dedup job simulated {misses}")),
            _ => {}
        }
        let sampled = verify.iter().filter(|(r, _)| r.only == d.request.only).count();
        if d.class != JobClass::Replay && sampled <= VERIFY_PER_CLASS {
            verify.push((d.request.clone(), got));
        }
    }
    match spawn_verify(ctx, &verify.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>()) {
        Ok(fresh) => {
            rep.check(fresh.len() == verify.len(), || "verify child skipped requests".into());
            for ((req, served), fresh) in verify.iter().zip(&fresh) {
                rep.check(served == fresh, || {
                    format!("nvpd artifacts {served} != in-process {fresh} for {:?}", req.only)
                });
            }
        }
        Err(e) => rep.fail(format!("verify child: {e}")),
    }
}

fn run_child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", args[0]))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", args[0], out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Recomputes `requests` in a fresh process with a memory-only cache and
/// returns their artifact digests.
fn spawn_verify(ctx: &Ctx, requests: &[CampaignRequest]) -> Result<Vec<String>, String> {
    let mut args = vec!["child-verify".to_string(), ctx.path_str("verify-artifacts")];
    for (i, req) in requests.iter().enumerate() {
        let path = ctx.path_str(&format!("verify-{i}.req"));
        std::fs::write(&path, encode_request_bytes(req)).map_err(|e| e.to_string())?;
        args.push(path);
    }
    Ok(run_child(&args)?.lines().map(str::to_string).collect())
}

/// Entry point of `child-verify OUT_DIR REQUEST_FILE...`: prints one
/// artifact digest per request, rendering each into `OUT_DIR`.
///
/// # Errors
///
/// Any unreadable request, failed campaign or rendering failure.
pub fn verify_child_main(args: &[String]) -> Result<(), String> {
    let [out, files @ ..] = args else { return Err("child-verify needs OUT_DIR".into()) };
    set_cache_dir(None).map_err(|e| e.to_string())?;
    for file in files {
        let bytes = std::fs::read(file).map_err(|e| format!("{file}: {e}"))?;
        let req = decode_request_bytes(&bytes).map_err(|e| format!("{file}: {e}"))?;
        let result = run_request(&req).map_err(|e| e.to_string())?;
        let digest = artifact_digest(&result, Path::new(out)).map_err(|e| e.to_string())?;
        println!("{digest}");
    }
    Ok(())
}

/// Entry point of `child-nvpd-setup SEED DIR`: one server set-up (and
/// nothing else) in a fresh process; prints its time.
///
/// # Errors
///
/// Any set-up failure.
pub fn setup_child_main(args: &[String]) -> Result<(), String> {
    let [seed, dir] = args else { return Err("child-nvpd-setup needs SEED DIR".into()) };
    let seed = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
    let running = start(Path::new(dir), seed, 0)?;
    println!("{}", running.setup_s);
    stop(running.handle, &running.addr, &running.warm[0].0).map(|_| ())
}

/// `nvpd-mixed`, end to end.
pub fn end_to_end(ctx: &Ctx, rep: &mut Report) {
    let mut setups = Vec::new();
    for i in 1..SETUP_SAMPLES {
        let args = [
            "child-nvpd-setup".to_string(),
            ctx.seed.to_string(),
            ctx.path_str(&format!("setup-{i}")),
        ];
        match run_child(&args).and_then(|s| s.trim().parse::<f64>().map_err(|e| e.to_string())) {
            Ok(s) => setups.push(s),
            Err(e) => rep.fail(format!("set-up sample: {e}")),
        }
    }
    let Some(run) = run_stream(ctx, rep, batches_for(ctx.seconds), false) else { return };
    setups.push(run.setup_s);
    let latencies: Vec<f64> = run.done.iter().map(|d| d.latency_s).collect();
    rep.metric("setup_s", median(&setups).unwrap_or(0.0), "s");
    rep.metric("campaign_s", median(&run.batch_s).unwrap_or(0.0), "s");
    rep.metric("job_p50_s", median(&latencies).unwrap_or(0.0), "s");
    rep.metric("jobs_per_s", run.done.len() as f64 / run.total_s, "1/s");
    match peak_rss_mb() {
        Ok(mb) => rep.metric("peak_rss_mb", mb, "MB"),
        Err(e) => rep.fail(format!("peak RSS: {e}")),
    }
    for class in JobClass::ALL {
        let lat: Vec<f64> =
            run.done.iter().filter(|d| d.class == class).map(|d| d.latency_s).collect();
        let (q1, q3) = quartiles(&lat).unwrap_or_default();
        eprintln!(
            "nvpbench: {:<8} n={:<4} p50={:.6} s (quartiles {q1:.6} .. {q3:.6})",
            class.name(),
            lat.len(),
            median(&lat).unwrap_or(0.0)
        );
    }
    if let Some((p, v)) = tail(&latencies) {
        eprintln!("nvpbench: all      n={:<4} p{p}={v:.6} s", latencies.len());
    }
    eprintln!(
        "nvpbench: {} job(s) in {} batch(es) over {:.2} s, {} client(s)",
        run.done.len(),
        run.batch_s.len(),
        run.total_s,
        clients()
    );
}
