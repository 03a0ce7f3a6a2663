//! The `nvpd` command: serve campaigns.
//!
//! `nvpd serve` binds the daemon and runs jobs until stopped (or until
//! `--max-jobs`). Campaigns are submitted with `repro --connect ADDR`.

use std::path::PathBuf;
use std::process::ExitCode;

use nvp_experiments::{
    cli, key_bytes_hashed, set_cache_dir, set_thread_override, sim_cache_memo_stats,
    trace_memo_stats,
};
use nvpd::{Server, ServerConfig};

/// Command-line reference, printed by `--help` and on usage errors.
const USAGE: &str = "\
nvpd — resident NVP campaign server

USAGE:
    nvpd serve [ADDR] [OPTIONS]
    nvpd --help

Submit campaigns with `repro [OUT_DIR] --connect ADDR [run options]`.

serve options (ADDR defaults to 127.0.0.1:7117; use port 0 for an
ephemeral port and read it back via --port-file):
    --state-dir DIR    durable server state at DIR: the write-ahead job
                       journal plus a content-addressed result store,
                       and the persistent simulation store in
                       DIR/simcache. Admitted jobs survive a crash and
                       resume on restart; completed resubmissions replay
                       without re-simulation.
    --workers N        concurrent jobs (default 1, which keeps each
                       job's cache/scheduler counter deltas exact)
    --max-jobs N       accept N jobs, drain the queue, then exit;
                       0 drains the journal, then exits
    --port-file PATH   write the bound address to PATH once listening

environment:
    NVP_CACHE_DIR      without --state-dir: persistent simulation store
                       (default: in-memory only)
    NVP_THREADS        worker budget shared by every running job: N
                       means exactly N (default: hardware parallelism)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some(other) => Err(format!("unknown subcommand `{other}` (expected `serve`)")),
        None => Err("expected the subcommand `serve`".to_string()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parsed `nvpd serve` options.
struct ServeArgs {
    addr: String,
    port_file: Option<PathBuf>,
    config: ServerConfig,
}

fn parse_serve(args: &[String]) -> Result<ServeArgs, String> {
    let mut out = ServeArgs {
        addr: "127.0.0.1:7117".to_string(),
        port_file: None,
        config: ServerConfig::default(),
    };
    let mut saw_addr = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--state-dir" => out.config.state_dir = Some(PathBuf::from(value("--state-dir")?)),
            "--port-file" => out.port_file = Some(PathBuf::from(value("--port-file")?)),
            "--workers" => out.config.workers = parse_num(&value("--workers")?, "--workers")?,
            "--max-jobs" => {
                out.config.max_jobs = Some(parse_num(&value("--max-jobs")?, "--max-jobs")?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            addr if !saw_addr => {
                if !addr.contains(':') {
                    return Err(format!("`{addr}` is not a bind address (need host:port)"));
                }
                out.addr = addr.to_string();
                saw_addr = true;
            }
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    if out.config.workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    Ok(out)
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag}: `{s}` is not a valid number"))
}

fn serve(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_serve(args)?;
    set_thread_override(cli::nvp_threads());
    // A stateful server keeps its simulation store next to the journal,
    // so one --state-dir makes the whole server durable. A stateless
    // one attaches NVP_CACHE_DIR when set, and without it (or when it
    // fails to open) simulates memory-only.
    if let Some(state) = &opts.config.state_dir {
        let dir = state.join("simcache");
        set_cache_dir(Some(&dir))
            .map_err(|e| format!("cannot attach cache at {}: {e}", dir.display()))?;
    } else if let Some(dir) = std::env::var_os("NVP_CACHE_DIR").filter(|v| !v.is_empty()) {
        let dir = PathBuf::from(dir);
        if let Err(e) = set_cache_dir(Some(&dir)) {
            eprintln!(
                "nvpd: warning: sim cache at {} unavailable ({e}); running without",
                dir.display()
            );
        }
    }
    let server = Server::bind(&opts.addr).map_err(|e| format!("bind {}: {e}", opts.addr))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    if let Some(path) = &opts.port_file {
        std::fs::write(path, bound.to_string())
            .map_err(|e| format!("cannot write port file {}: {e}", path.display()))?;
    }
    eprintln!("nvpd: listening on {bound}");
    let stats = server.run(&opts.config).map_err(|e| format!("server failed: {e}"))?;
    let traces = trace_memo_stats();
    let outcomes = sim_cache_memo_stats();
    eprintln!(
        "nvpd: done — {} accepted, {} completed, {} rejected, {} recovered from journal, \
         {} replayed from result store, {} file(s) quarantined, {} trace(s) generated, \
         {} trace(s) summarized, {} summary(ies) loaded, {} trace byte(s) resident \
         (peak {}), \
         {} task cost(s) loaded, {} task cost(s) measured, {} key byte(s) hashed, \
         {} outcome(s) resident, {} outcome(s) on disk only, {} record(s) reloaded",
        stats.accepted,
        stats.completed,
        stats.rejected,
        stats.recovered,
        stats.replayed,
        stats.quarantined,
        traces.generated,
        traces.summarized,
        traces.summaries_loaded,
        traces.resident_bytes,
        traces.peak_resident_bytes,
        outcomes.task_costs_loaded,
        outcomes.task_costs_measured,
        key_bytes_hashed(),
        outcomes.resident,
        outcomes.on_disk,
        outcomes.reloaded
    );
    Ok(ExitCode::SUCCESS)
}
