//! `nvpa` — the NV16 intermittency-safety analyzer CLI.
//!
//! ```text
//! nvpa kernels [--deny warnings|RULE]...     analyze all registry kernels
//! nvpa <file.nv16> [--deny warnings|RULE]... analyze one assembly file
//! ```
//!
//! Exit codes: `0` clean (or nothing denied), `1` at least one denied
//! diagnostic, `2` usage / IO / assembly / decode errors.

use std::process::ExitCode;

use nvp_flow::{analyze, AnalysisConfig, Rule, Waivers};
use nvp_isa::asm::assemble;
use nvp_workloads::{GrayImage, KernelKind};

/// What `--deny` escalates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Deny {
    /// `--deny warnings`: every rule.
    All,
    /// `--deny <rule-id>`: one rule.
    One(Rule),
}

struct Args {
    target: String,
    deny: Vec<Deny>,
}

fn usage() -> String {
    let rules: Vec<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
    format!(
        "usage: nvpa kernels [--deny warnings|RULE]...\n\
        \x20      nvpa <file.nv16> [--deny warnings|RULE]...\n\
        rules: {}",
        rules.join(", ")
    )
}

fn parse_args(mut argv: std::env::Args) -> Result<Args, String> {
    argv.next(); // program name
    let mut target: Option<String> = None;
    let mut deny = Vec::new();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--deny" => {
                let what = argv.next().ok_or("--deny needs an argument")?;
                if what == "warnings" {
                    deny.push(Deny::All);
                } else {
                    let rule =
                        Rule::parse(&what).ok_or_else(|| format!("unknown rule {what:?}"))?;
                    deny.push(Deny::One(rule));
                }
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            other if target.is_none() => target = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Args { target: target.ok_or("missing target")?, deny })
}

fn denied(deny: &[Deny], rule: Rule) -> bool {
    deny.iter().any(|d| matches!(d, Deny::All) || *d == Deny::One(rule))
}

/// Analyzes one named program; returns whether any denied diagnostic
/// fired.
fn report(
    name: &str,
    program: &nvp_isa::Program,
    config: &AnalysisConfig,
    waivers: &Waivers,
    deny: &[Deny],
) -> Result<bool, String> {
    let analysis = analyze(program, config, waivers).map_err(|e| format!("{name}: {e}"))?;
    print!("{}", analysis.to_text(name));
    Ok(analysis.diagnostics.iter().any(|d| denied(deny, d.rule)))
}

fn run() -> Result<bool, String> {
    let args = parse_args(std::env::args())?;
    let config = AnalysisConfig::default();
    let mut any_denied = false;
    if args.target == "kernels" {
        let image = GrayImage::synthetic(1, 16, 16);
        for kind in KernelKind::ALL {
            let instance = kind.build(&image).map_err(|e| format!("{}: {e}", kind.name()))?;
            any_denied |=
                report(kind.name(), instance.program(), &config, &Waivers::none(), &args.deny)?;
        }
    } else {
        let src =
            std::fs::read_to_string(&args.target).map_err(|e| format!("{}: {e}", args.target))?;
        let program = assemble(&src).map_err(|e| format!("{}: {e}", args.target))?;
        let waivers = Waivers::from_asm_source(&src);
        any_denied |= report(&args.target, &program, &config, &waivers, &args.deny)?;
    }
    Ok(any_denied)
}

fn main() -> ExitCode {
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => {
            eprintln!("nvpa: denied diagnostics present");
            ExitCode::from(1)
        }
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                ExitCode::SUCCESS
            } else {
                eprintln!("nvpa: {msg}");
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        }
    }
}
