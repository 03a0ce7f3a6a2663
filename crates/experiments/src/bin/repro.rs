//! Regenerates the reconstructed evaluation's tables and figures.
//!
//! Usage: `cargo run --release -p nvp-experiments --bin repro -- --help`
//!
//! Both execution modes build the same [`CampaignRequest`] and render
//! the same [`nvp_experiments::CampaignResult`]: in-process runs call
//! `run_request` directly, and `--connect ADDR` ships the request to a
//! resident `nvpd` campaign server and writes the returned values —
//! byte-identical artifacts either way.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use nvp_experiments::cli::{self, Command};
use nvp_experiments::{
    client, cost_stream_stats, feasibility, key_bytes_hashed, run_request, set_cache_dir,
    set_thread_override, sim_cache_memo_stats, trace_memo_stats, CampaignRequest, CampaignResult,
};

/// Writes a finished campaign's artifacts and reports it, identically
/// for both transports: tables on stdout; then on stderr the remote
/// job line (when there is one), the sim-cache summary, this process's
/// input-memo line (in-process runs only: a remote job's inputs are the
/// server's), the execution-tier summary, and the file count.
fn render(
    result: &CampaignResult,
    job_line: Option<&str>,
    memo_line: Option<&str>,
    out_dir: &Path,
) -> ExitCode {
    let files = match result.write(out_dir) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for t in &result.tables {
        println!("{}", t.to_markdown());
    }
    if let Some(line) = job_line {
        eprintln!("{line}");
    }
    eprintln!(
        "sim cache: {} unique simulations, {} duplicate run(s) deduplicated, \
         {} served from disk, {} record(s) persisted, {} shard(s) quarantined",
        result.cache.misses,
        result.cache.hits,
        result.cache.disk_hits,
        result.cache.persisted,
        result.cache.quarantined
    );
    if let Some(line) = memo_line {
        eprintln!("{line}");
    }
    eprintln!(
        "exec tiers: {} lane group(s) covering {} simulation(s)",
        result.exec.lane_groups, result.exec.lane_group_items
    );
    eprintln!("wrote {} files to {}", files.len(), out_dir.display());
    ExitCode::SUCCESS
}

/// What this process's input memos did: trace summaries read from the
/// store or streamed from the generator, task costs read from the store
/// or measured, the bytes cache-key derivation hashed, and the trace
/// sample arrays generated and the most sample bytes held at once
/// (which depends on the worker count). A second
/// line tells what the block-stream tier did: streams recorded and
/// their bytes, instructions served from them, and runs that left one.
fn memo_line() -> String {
    let traces = trace_memo_stats();
    let memo = sim_cache_memo_stats();
    let streams = cost_stream_stats();
    format!(
        "input memo: {} trace summary(ies) loaded, {} streamed; {} task cost(s) loaded, \
         {} measured; {} key byte(s) hashed; {} trace(s) generated, peak {} byte(s) resident\n\
         cost stream: {} stream(s) recorded, {} byte(s); {} instruction(s) served from \
         streams, {} run(s) left a stream",
        traces.summaries_loaded,
        traces.summarized,
        memo.task_costs_loaded,
        memo.task_costs_measured,
        key_bytes_hashed(),
        traces.generated,
        traces.peak_resident_bytes,
        streams.recorded,
        streams.bytes,
        streams.served,
        streams.left
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match cli::parse(&args) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let (out_dir, only, quick, seed, no_cache, connect, timeout, retries) = match cmd {
        Command::Help => {
            println!("{}", cli::USAGE);
            return ExitCode::SUCCESS;
        }
        Command::List => {
            print!("{}", cli::list_text());
            return ExitCode::SUCCESS;
        }
        Command::Check { quick } => {
            let cfg = Command::config(quick);
            let mut planned = 0;
            for exp in nvp_experiments::registry() {
                let n = exp.plan(&cfg).simulations();
                println!("plan: {} {n} simulation(s)", exp.id());
                planned += n;
            }
            let unique = feasibility::unique_simulations(&cfg);
            println!("plan: {planned} planned simulation(s), {unique} unique");
            let diags = feasibility::check_registry(&cfg);
            if diags.is_empty() {
                println!(
                    "feasibility: all {} registered experiments plan feasible configurations",
                    nvp_experiments::registry().len()
                );
                return ExitCode::SUCCESS;
            }
            for d in &diags {
                eprintln!("infeasible: {d}");
            }
            eprintln!("feasibility: {} violation(s) found", diags.len());
            return ExitCode::FAILURE;
        }
        Command::Run { out_dir, only, quick, seed, no_cache, connect, timeout, retries } => {
            (out_dir, only, quick, seed, no_cache, connect, timeout, retries)
        }
    };

    // Both transports run the identical job: the request is the unit of
    // work, the artifacts a rendering of its result.
    let mut request = CampaignRequest::all(Command::config(quick));
    request.only = only;
    request.seed = seed;

    if let Some(addr) = connect {
        // Thin-client mode: the server simulates, we render. The parser
        // already rejects --no-cache here: the server owns its store.
        let mut cfg = client::ClientConfig::default();
        if let Some(secs) = timeout {
            cfg.timeout = std::time::Duration::from_secs_f64(secs);
        }
        if let Some(n) = retries {
            cfg.retries = n;
        }
        eprintln!("submitting campaign to nvpd at {addr} ...");
        return match client::submit_with(&addr, &request, &cfg) {
            Ok(outcome) => {
                let job_line = format!(
                    "nvpd job {} (queue depth {}{})",
                    outcome.job,
                    outcome.queued,
                    if outcome.replayed { "; replayed from journal" } else { "" }
                );
                render(&outcome.result, Some(&job_line), None, &out_dir)
            }
            Err(e @ client::ClientError::Unreachable { .. }) => {
                // A dead address is a usage error, like a bad flag: the
                // command as typed cannot work.
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // In-process mode. NVP_THREADS=N runs exactly N workers; unset, 0
    // or garbage keeps the hardware default.
    set_thread_override(cli::nvp_threads());
    // Persistent simulation cache: NVP_CACHE_DIR wins over the default
    // <out_dir>/.simcache; --no-cache attaches none, which leaves the
    // library's cache memory-only.
    if !no_cache {
        let cache_dir = std::env::var_os("NVP_CACHE_DIR")
            .filter(|v| !v.is_empty())
            .map_or_else(|| out_dir.join(".simcache"), PathBuf::from);
        if let Err(e) = set_cache_dir(Some(&cache_dir)) {
            eprintln!(
                "warning: sim cache at {} unavailable ({e}); running without",
                cache_dir.display()
            );
        }
    }

    let cfg = request.effective_config();
    eprintln!(
        "regenerating evaluation ({}s traces, {} profiles, {}x{} frames) into {} ...",
        cfg.trace_duration_s,
        cfg.profile_seeds.len(),
        cfg.frame_w,
        cfg.frame_h,
        out_dir.display()
    );
    match run_request(&request) {
        Ok(result) => render(&result, None, Some(&memo_line()), &out_dir),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
