//! `nvpbench` — the end-to-end and per-layer benchmark of the nvp
//! workspace.
//!
//! ```text
//! nvpbench --workload <campaign-cold|campaign-warm|nvpd-mixed> --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` times the workload and prints its end-to-end metrics;
//! `--trace 1` prints the per-layer metrics instead. Either way the
//! outputs are checked, and the last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See `README.md`
//! beside this package for what each workload and metric means.

#![forbid(unsafe_code)]

mod campaign;
mod child;
mod clock;
mod gen;
mod layer;
mod nvpd_mixed;
mod report;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Ctx, Report};

fn usage() -> String {
    format!(
        "usage: nvpbench --workload <campaign-cold|campaign-warm|nvpd-mixed> --seed N \
         --seconds S --trace 0|1\n(default seed {}, held-out seed {})",
        gen::DEFAULT_SEED,
        gen::HELDOUT_SEED
    )
}

/// The workloads, by the names `BENCHMARK.json` lists.
const WORKLOADS: [&str; 3] = ["campaign-cold", "campaign-warm", "nvpd-mixed"];

fn parse(args: &[String]) -> Result<(String, Ctx), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {})", WORKLOADS.join(", ")));
    }
    let scratch = PathBuf::from(".nvpbench-scratch").join(format!("run-{}", std::process::id()));
    let ctx = Ctx {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scratch: std::env::current_dir().map_err(|e| e.to_string())?.join(scratch),
    };
    Ok((workload, ctx))
}

fn run(workload: &str, ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    match (workload, ctx.trace) {
        ("campaign-cold", false) => campaign::cold(ctx, &mut rep),
        ("campaign-warm", false) => campaign::warm(ctx, &mut rep),
        ("nvpd-mixed", false) => nvpd_mixed::end_to_end(ctx, &mut rep),
        (w, true) => layer::traced(w, ctx, &mut rep),
        _ => unreachable!("workload validated by parse"),
    }
    rep
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sub = args.first().map(String::as_str);
    let child = match sub {
        Some("child-campaign") => Some(child::child_main(&args[1..])),
        Some("child-nvpd-setup") => Some(nvpd_mixed::setup_child_main(&args[1..])),
        Some("child-verify") => Some(nvpd_mixed::verify_child_main(&args[1..])),
        _ => None,
    };
    if let Some(result) = child {
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("nvpbench {}: {e}", sub.unwrap_or_default());
                ExitCode::FAILURE
            }
        };
    }

    let (workload, ctx) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("nvpbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.scratch) {
        eprintln!("nvpbench: cannot create scratch directory: {e}");
        return ExitCode::FAILURE;
    }
    let rep = run(&workload, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    // Drop the shared parent too once no other run is using it.
    let _ = ctx.scratch.parent().map(std::fs::remove_dir);
    rep.print();
    ExitCode::SUCCESS
}
