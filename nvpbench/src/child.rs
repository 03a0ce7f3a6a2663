//! Fresh-process campaign runs.
//!
//! A campaign must start with empty memo caches, which live for the
//! life of a process, so every timed campaign runs in a child process:
//! the benchmark re-executes its own binary with the `child-campaign`
//! subcommand. The child prints `ready` once set up, then `key value`
//! lines when its campaign is done.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufRead, BufReader, Read, Write as _};
use std::path::Path;
use std::process::{Command, Stdio};

use nvp_experiments::wire::{content_digest, encode_result_bytes};
use nvp_experiments::{
    f1_power_profiles, registry, run_request, set_cache_dir, set_thread_override, CampaignRequest,
    CampaignResult,
};

use crate::clock::Stopwatch;
use crate::gen::campaign_config;

/// Lower-case hex of a digest.
#[must_use]
pub fn hex(d: &[u8; 32]) -> String {
    d.iter().fold(String::with_capacity(64), |mut s, b| {
        write!(s, "{b:02x}").expect("write to String");
        s
    })
}

/// Renders `result` into `dir` with `CampaignResult::write`, exactly as
/// `repro` does, and returns SHA-256 over the `sha256sum`-style manifest
/// of the files written (one `<hex>  <file name>` line each, in write
/// order). `dir` is emptied first and removed afterwards, so every call
/// digests one artifact set.
///
/// # Errors
///
/// Any filesystem error.
pub fn artifact_digest(result: &CampaignResult, dir: &Path) -> io::Result<String> {
    if dir.exists() {
        fs::remove_dir_all(dir)?;
    }
    let mut manifest = String::new();
    for path in result.write(dir)? {
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        writeln!(manifest, "{}  {name}", hex(&content_digest(&fs::read(&path)?)))
            .expect("write to String");
    }
    fs::remove_dir_all(dir)?;
    Ok(hex(&content_digest(manifest.as_bytes())))
}

/// Peak resident set (`VmHWM`) of this process, in MB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// How a child campaign runs.
#[derive(Debug, Clone, Default)]
pub struct CampaignSpec {
    /// Run seed (folded into the configuration).
    pub seed: u64,
    /// Worker budget; `None` keeps the default (hardware parallelism).
    pub threads: Option<usize>,
    /// Persistent sim-cache directory, or memory-only.
    pub cache_dir: Option<String>,
    /// Scratch directory the child renders its artifacts into to digest
    /// them (created and removed by the child).
    pub out_dir: String,
    /// Build the experiments one by one, timing each (the traced run).
    pub split: bool,
    /// Write the wire-encoded result here.
    pub emit_result: Option<String>,
}

/// What a child campaign reported, plus the parent-observed times.
#[derive(Debug, Clone)]
pub struct ChildReport {
    fields: BTreeMap<String, String>,
    /// Spawn until the child said it was ready to run the campaign.
    pub ready_s: f64,
    /// Spawn to exit.
    pub latency_s: f64,
}

impl ChildReport {
    /// A numeric field.
    ///
    /// # Errors
    ///
    /// When the child did not report `key` as a number.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        self.fields
            .get(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("child campaign did not report `{key}`"))
    }

    /// A counter field, or `None` when the child did not report it.
    #[must_use]
    pub fn count(&self, key: &str) -> Option<u64> {
        self.fields.get(key).and_then(|v| v.parse().ok())
    }

    /// A text field (empty when missing).
    #[must_use]
    pub fn text(&self, key: &str) -> &str {
        self.fields.get(key).map_or("", String::as_str)
    }
}

/// Runs one campaign in a fresh child process and waits for it.
///
/// # Errors
///
/// When the child cannot start, fails, or reports malformed output.
pub fn spawn_campaign(spec: &CampaignSpec) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child-campaign")
        .args(["--seed", &spec.seed.to_string()])
        .args(["--threads", &spec.threads.unwrap_or(0).to_string()])
        .args(["--cache", spec.cache_dir.as_deref().unwrap_or("-")])
        .args(["--out", &spec.out_dir])
        .args(["--emit-result", spec.emit_result.as_deref().unwrap_or("-")]);
    if spec.split {
        cmd.arg("--split");
    }
    cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::inherit());
    let t0 = Stopwatch::start();
    let mut child = cmd.spawn().map_err(|e| format!("spawn child campaign: {e}"))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout is piped"));
    let mut ready = String::new();
    let read = stdout.read_line(&mut ready);
    let ready_s = t0.secs();
    let mut rest = String::new();
    let read = read.and_then(|_| stdout.read_to_string(&mut rest));
    let status = child.wait().map_err(|e| format!("wait for child campaign: {e}"))?;
    let latency_s = t0.secs();
    read.map_err(|e| format!("read child campaign: {e}"))?;
    if !status.success() {
        return Err(format!("child campaign exited with {status}"));
    }
    if ready.trim_end() != READY {
        return Err(format!("child campaign said `{}` before `{READY}`", ready.trim_end()));
    }
    let fields = rest
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Ok(ChildReport { fields, ready_s, latency_s })
}

/// The child's first stdout line, printed once set-up is done.
const READY: &str = "ready";

fn parse_child(args: &[String]) -> Result<CampaignSpec, String> {
    let mut spec = CampaignSpec::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--split" {
            spec.split = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?.clone();
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--seed" => spec.seed = value.parse().map_err(bad)?,
            "--threads" => spec.threads = Some(value.parse().map_err(bad)?).filter(|&n| n > 0),
            "--cache" => spec.cache_dir = Some(value).filter(|d| d != "-"),
            "--out" => spec.out_dir = value,
            "--emit-result" => spec.emit_result = Some(value).filter(|p| p != "-"),
            other => return Err(format!("unknown child flag `{other}`")),
        }
    }
    if spec.out_dir.is_empty() {
        return Err("child-campaign needs --out".into());
    }
    Ok(spec)
}

/// The campaign `run_request` runs, built one experiment at a time in
/// registry order (then the profile series) so each can be timed.
fn split_campaign(request: &CampaignRequest, put: &mut impl FnMut(&str, String)) -> CampaignResult {
    let cache = nvp_experiments::sim_cache_stats();
    let sched = nvp_experiments::sched_stats();
    let exec = nvp_experiments::exec_stats();
    let cfg = request.effective_config();
    let mut tables = Vec::new();
    for exp in registry() {
        let t = Stopwatch::start();
        tables.push(exp.build(&cfg));
        put(&format!("exp.{}", exp.id()), t.secs().to_string());
    }
    let t = Stopwatch::start();
    let profiles = cfg
        .profile_seeds
        .iter()
        .map(|&s| (s, f1_power_profiles::series(&cfg, s).to_csv()))
        .collect();
    put("profiles_s", t.secs().to_string());
    CampaignResult {
        tables,
        profiles,
        cache: nvp_experiments::sim_cache_stats().since(cache),
        sched: nvp_experiments::sched_stats().since(sched),
        exec: nvp_experiments::exec_stats().since(exec),
    }
}

/// Entry point of `child-campaign`: runs one campaign and prints its
/// figures as `key value` lines.
///
/// # Errors
///
/// Any argument, campaign or filesystem failure, as a message.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let spec = parse_child(args)?;
    let mut out = String::new();
    let mut put = |k: &str, v: String| writeln!(out, "{k} {v}").expect("write to String");
    if spec.threads.is_some() {
        set_thread_override(spec.threads);
    }

    let t = Stopwatch::start();
    let loaded = set_cache_dir(spec.cache_dir.as_deref().map(Path::new))
        .map_err(|e| format!("attach cache: {e}"))?;
    put("reload_s", t.secs().to_string());
    put("records_loaded", loaded.to_string());
    let request = CampaignRequest::all(campaign_config(spec.seed));
    println!("{READY}");
    io::stdout().flush().map_err(|e| format!("signal ready: {e}"))?;

    let t = Stopwatch::start();
    let result = if spec.split {
        split_campaign(&request, &mut put)
    } else {
        run_request(&request).map_err(|e| format!("campaign: {e}"))?
    };
    put("campaign_s", t.secs().to_string());
    // Before the output checks, whose rendering would count.
    put("peak_rss_mb", peak_rss_mb().map_err(|e| e.to_string())?.to_string());

    let digest = artifact_digest(&result, Path::new(&spec.out_dir))
        .map_err(|e| format!("render artifacts: {e}"))?;
    put("digest", digest);
    if let Some(path) = &spec.emit_result {
        fs::write(path, encode_result_bytes(&result)).map_err(|e| format!("emit result: {e}"))?;
    }
    let c = result.cache;
    put("cache.hits", c.hits.to_string());
    put("cache.misses", c.misses.to_string());
    put("cache.disk_hits", c.disk_hits.to_string());
    put("cache.persisted", c.persisted.to_string());
    put("sched.tasks", result.sched.tasks.to_string());
    put("sched.steals", result.sched.steals.to_string());
    put("sched.helpers", result.sched.helpers.to_string());
    put("exec.chain_runs", result.exec.chain_runs.to_string());
    put("exec.side_exits", result.exec.side_exits.to_string());
    put("exec.lane_groups", result.exec.lane_groups.to_string());
    print!("{out}");
    Ok(())
}
