//! Argument parsing for the `repro` binary.
//!
//! Kept in the library (rather than the binary) so the parser is unit
//! tested like everything else. The grammar is deliberately tiny:
//!
//! ```text
//! repro [out_dir] [--quick] [--only IDS] [--seed N] [--no-cache]
//!       [--connect ADDR] [--timeout SECS] [--retries N]
//!       [--check] [--list] [--help]
//! ```
//!
//! Unknown `--flags` are rejected with a usage error instead of being
//! silently treated as the output directory, and contradictory
//! combinations (`--check --seed 3`, `--list --only f5`,
//! `--connect --no-cache`, `--timeout` without `--connect`) are
//! rejected instead of silently ignoring one of the flags — the only
//! exception is `--help`, which always wins.

use std::path::PathBuf;

use crate::registry::{find, registry};
use crate::ExpConfig;

/// Usage text shared by `--help` and parse errors.
pub const USAGE: &str = "\
Usage: repro [out_dir] [options]

Regenerates the reconstructed DATE'17 NVP evaluation artifacts.

Arguments:
  out_dir            output directory (default: results)

Options:
  --quick            small traces/frames for a fast smoke run
  --only IDS         comma-separated experiment ids, case-insensitive
                     (e.g. --only f5,T1)
  --seed N           base seed for the F12 fault-injection campaign
                     (default: 1; e.g. --only f12 --seed 7)
  --no-cache         keep the simulation cache memory-only (skip the
                     persistent store in <out_dir>/.simcache or
                     $NVP_CACHE_DIR); not valid with --connect — the
                     nvpd server owns its resident cache
  --connect ADDR     submit the run to an nvpd campaign server at ADDR
                     (e.g. 127.0.0.1:7117) instead of simulating in
                     process; artifacts are still written locally and
                     are byte-identical to an in-process run
  --timeout SECS     with --connect: bound on connecting and on the
                     submit handshake, in seconds (fractions allowed;
                     default 10). An unreachable server is a usage
                     error (exit 2), never a hang.
  --retries N        with --connect: extra attempts after a transient
                     failure, with jittered exponential backoff
                     (default 2). Resubmission is safe — the server
                     deduplicates by idempotency key.
  --check            print every registered experiment's planned
                     simulations, validate their platform setups for
                     physical feasibility and exit (0 = all feasible,
                     1 = diagnostics printed); kernel safety is
                     `nvpa kernels --deny warnings`
  --list             list registered experiments and exit
  --help             show this help and exit";

/// What the command line asked for.
#[derive(Debug, PartialEq)]
pub enum Command {
    /// Print [`USAGE`] and exit successfully.
    Help,
    /// Print the experiment registry and exit successfully.
    List,
    /// Run the config-feasibility validator over the registry and exit
    /// (see [`crate::feasibility`]).
    Check {
        /// Use the quick configuration instead of the default.
        quick: bool,
    },
    /// Regenerate artifacts into `out_dir`; `only: None` means all.
    Run {
        /// Output directory for CSV/Markdown artifacts.
        out_dir: PathBuf,
        /// Selected experiment ids (registry-validated, folded to the
        /// canonical lowercase form), or `None` for the full
        /// evaluation.
        only: Option<Vec<String>>,
        /// Use the quick configuration instead of the default.
        quick: bool,
        /// Base seed for the fault-injection campaign (`--seed`), or
        /// `None` to keep the configuration default.
        seed: Option<u64>,
        /// `--no-cache`: keep the simulation cache memory-only instead
        /// of backing it with the persistent on-disk store.
        no_cache: bool,
        /// `--connect ADDR`: submit to an nvpd campaign server instead
        /// of running in process.
        connect: Option<String>,
        /// `--timeout SECS`: connect/handshake bound for `--connect`,
        /// or `None` for the client default.
        timeout: Option<f64>,
        /// `--retries N`: transient-failure retry budget for
        /// `--connect`, or `None` for the client default.
        retries: Option<u32>,
    },
}

impl Command {
    /// The [`ExpConfig`] a `Run` command asked for.
    #[must_use]
    pub fn config(quick: bool) -> ExpConfig {
        if quick {
            ExpConfig::quick()
        } else {
            ExpConfig::default()
        }
    }
}

/// Renders the registry as an aligned `id  title` listing for `--list`.
#[must_use]
pub fn list_text() -> String {
    let width = registry().iter().map(|e| e.id().len()).max().unwrap_or(0);
    let mut out = String::from("registered experiments (artifact order):\n");
    for e in registry() {
        out.push_str(&format!("  {:width$}  {}\n", e.id(), e.title()));
    }
    out
}

/// Everything the flag loop collected, before mode validation.
#[derive(Default)]
struct Raw {
    out_dir: Option<PathBuf>,
    only: Option<Vec<String>>,
    quick: bool,
    check: bool,
    list: bool,
    seed: Option<u64>,
    no_cache: bool,
    connect: Option<String>,
    timeout: Option<f64>,
    retries: Option<u32>,
}

/// Parses `repro` arguments (without the program name).
///
/// # Errors
///
/// Returns a one-line message (without usage text — callers append
/// [`USAGE`]) for unknown flags, duplicate positional arguments,
/// missing or unknown `--only` ids, and contradictory flag
/// combinations (e.g. `--check --seed 3`, `--list --only f5`,
/// `--connect --no-cache`).
pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Command, String> {
    let mut raw = Raw::default();
    let mut iter = args.iter().map(AsRef::as_ref);
    while let Some(arg) = iter.next() {
        match arg {
            "--help" | "-h" => return Ok(Command::Help),
            "--list" => raw.list = true,
            "--quick" => raw.quick = true,
            "--check" => raw.check = true,
            "--no-cache" => raw.no_cache = true,
            "--only" => {
                let ids = iter.next().ok_or("--only needs a comma-separated id list")?;
                raw.only = Some(parse_only(ids)?);
            }
            "--seed" => {
                let value = iter.next().ok_or("--seed needs an unsigned integer value")?;
                raw.seed = Some(parse_seed(value)?);
            }
            "--connect" => {
                let addr = iter.next().ok_or("--connect needs a server address (host:port)")?;
                raw.connect = Some(parse_connect(addr)?);
            }
            "--timeout" => {
                let value = iter.next().ok_or("--timeout needs a positive seconds value")?;
                raw.timeout = Some(parse_timeout(value)?);
            }
            "--retries" => {
                let value = iter.next().ok_or("--retries needs an unsigned integer value")?;
                raw.retries = Some(parse_retries(value)?);
            }
            _ if arg.starts_with('-') && arg.len() > 1 => {
                return Err(format!("unknown option `{arg}`"));
            }
            _ => {
                if let Some(prev) = &raw.out_dir {
                    return Err(format!(
                        "unexpected argument `{arg}` (out_dir already set to `{}`)",
                        prev.display()
                    ));
                }
                raw.out_dir = Some(PathBuf::from(arg));
            }
        }
    }
    validate(raw)
}

/// Rejects contradictory combinations and assembles the command.
fn validate(raw: Raw) -> Result<Command, String> {
    // Helper naming every run-mode flag present, for error messages.
    let conflicts = |with: &str, allowed_quick: bool| -> Result<(), String> {
        let mut extras = Vec::new();
        if raw.quick && !allowed_quick {
            extras.push("--quick".to_string());
        }
        if let Some(ids) = &raw.only {
            extras.push(format!("--only {}", ids.join(",")));
        }
        if let Some(s) = raw.seed {
            extras.push(format!("--seed {s}"));
        }
        if raw.no_cache {
            extras.push("--no-cache".to_string());
        }
        if let Some(addr) = &raw.connect {
            extras.push(format!("--connect {addr}"));
        }
        if let Some(t) = raw.timeout {
            extras.push(format!("--timeout {t}"));
        }
        if let Some(r) = raw.retries {
            extras.push(format!("--retries {r}"));
        }
        if let Some(dir) = &raw.out_dir {
            extras.push(format!("out_dir `{}`", dir.display()));
        }
        if extras.is_empty() {
            Ok(())
        } else {
            Err(format!("{with} contradicts {}", extras.join(", ")))
        }
    };
    if raw.list && raw.check {
        return Err("--list contradicts --check".to_string());
    }
    if raw.list {
        conflicts("--list", false)?;
        return Ok(Command::List);
    }
    if raw.check {
        conflicts("--check", true)?;
        return Ok(Command::Check { quick: raw.quick });
    }
    if raw.connect.is_some() && raw.no_cache {
        return Err("--connect contradicts --no-cache (the nvpd server owns its resident cache)"
            .to_string());
    }
    if raw.connect.is_none() {
        // Socket policy only makes sense for a socket.
        if raw.timeout.is_some() {
            return Err("--timeout requires --connect".to_string());
        }
        if raw.retries.is_some() {
            return Err("--retries requires --connect".to_string());
        }
    }
    Ok(Command::Run {
        out_dir: raw.out_dir.unwrap_or_else(|| PathBuf::from("results")),
        only: raw.only,
        quick: raw.quick,
        seed: raw.seed,
        no_cache: raw.no_cache,
        connect: raw.connect,
        timeout: raw.timeout,
        retries: raw.retries,
    })
}

/// Parses an `NVP_THREADS` value: a positive integer `N` means exactly
/// `N` workers (`1` forces sequential execution); anything else —
/// unset, empty, zero, garbage — means the hardware default (`None`).
#[must_use]
pub fn parse_nvp_threads(value: Option<&str>) -> Option<usize> {
    value?.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// The worker count `NVP_THREADS` asks for (see [`parse_nvp_threads`]).
/// The `repro` and `nvpd` binaries pass it to
/// [`set_thread_override`](crate::set_thread_override) at start-up;
/// nothing else reads the variable.
#[must_use]
pub fn nvp_threads() -> Option<usize> {
    parse_nvp_threads(std::env::var("NVP_THREADS").ok().as_deref())
}

/// Parses a `--seed` value.
fn parse_seed(value: &str) -> Result<u64, String> {
    value
        .trim()
        .parse::<u64>()
        .map_err(|_| format!("--seed needs an unsigned integer, got `{value}`"))
}

/// Parses a `--timeout` value: positive, finite seconds (fractions
/// allowed).
fn parse_timeout(value: &str) -> Result<f64, String> {
    match value.trim().parse::<f64>() {
        Ok(secs) if secs.is_finite() && secs > 0.0 => Ok(secs),
        _ => Err(format!("--timeout needs a positive seconds value, got `{value}`")),
    }
}

/// Parses a `--retries` value.
fn parse_retries(value: &str) -> Result<u32, String> {
    value
        .trim()
        .parse::<u32>()
        .map_err(|_| format!("--retries needs an unsigned integer, got `{value}`"))
}

/// Parses a `--connect` address: any non-empty `host:port` string (the
/// socket layer validates it fully at connect time).
fn parse_connect(value: &str) -> Result<String, String> {
    let addr = value.trim();
    if addr.is_empty() || !addr.contains(':') {
        return Err(format!("--connect needs a host:port address, got `{value}`"));
    }
    Ok(addr.to_string())
}

/// Splits and registry-validates an `--only` id list, folding each id
/// to its canonical (lowercase) registry form — `F12` and `f12` name
/// the same experiment.
fn parse_only(ids: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for raw in ids.split(',') {
        let id = raw.trim();
        if id.is_empty() {
            continue;
        }
        match find(id) {
            Some(e) => out.push(e.id().to_string()),
            None => {
                let valid: Vec<&str> = registry().iter().map(|e| e.id()).collect();
                return Err(format!(
                    "unknown experiment id `{id}` (valid ids: {})",
                    valid.join(", ")
                ));
            }
        }
    }
    if out.is_empty() {
        return Err("--only needs a comma-separated id list".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_run_everything_into_results() {
        let cmd = parse::<&str>(&[]).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                out_dir: PathBuf::from("results"),
                only: None,
                quick: false,
                seed: None,
                no_cache: false,
                connect: None,
                timeout: None,
                retries: None,
            }
        );
    }

    #[test]
    fn positional_quick_and_only_combine() {
        let cmd = parse(&["out", "--quick", "--only", "F5,t1"]).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                out_dir: PathBuf::from("out"),
                only: Some(vec!["f5".into(), "t1".into()]),
                quick: true,
                seed: None,
                no_cache: false,
                connect: None,
                timeout: None,
                retries: None,
            }
        );
    }

    /// `--only` ids are case-insensitive and fold to the canonical
    /// lowercase registry id, in every spelling.
    #[test]
    fn only_ids_fold_case_to_registry_form() {
        for spelling in ["f12", "F12", "f12 ", " F12"] {
            match parse(&["--only", spelling]).unwrap() {
                Command::Run { only, .. } => {
                    assert_eq!(only, Some(vec!["f12".to_string()]), "spelling {spelling:?}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        match parse(&["--only", "F2H,T1,f5"]).unwrap() {
            Command::Run { only, .. } => {
                assert_eq!(only, Some(vec!["f2h".into(), "t1".into(), "f5".into()]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn seed_flag_parses() {
        let cmd = parse(&["--only", "f12", "--seed", "42"]).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                out_dir: PathBuf::from("results"),
                only: Some(vec!["f12".into()]),
                quick: false,
                seed: Some(42),
                no_cache: false,
                connect: None,
                timeout: None,
                retries: None,
            }
        );
    }

    #[test]
    fn seed_rejects_missing_and_non_integer_values() {
        let err = parse(&["--seed"]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        let err = parse(&["--seed", "lots"]).unwrap_err();
        assert!(err.contains("lots"), "{err}");
        let err = parse(&["--seed", "-3"]).unwrap_err();
        assert!(err.contains("-3"), "{err}");
        let err = parse(&["--seed", "1.5"]).unwrap_err();
        assert!(err.contains("1.5"), "{err}");
    }

    #[test]
    fn help_always_wins() {
        assert_eq!(parse(&["--help", "whatever"]).unwrap(), Command::Help);
        assert_eq!(parse(&["-h"]).unwrap(), Command::Help);
        assert_eq!(parse(&["--list", "--help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["--check", "--seed", "3", "--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn list_alone_lists() {
        assert_eq!(parse(&["--list"]).unwrap(), Command::List);
    }

    #[test]
    fn contradictory_combinations_are_usage_errors() {
        // --list runs nothing, so run-mode flags contradict it.
        let err = parse(&["--list", "--only", "f5"]).unwrap_err();
        assert!(err.contains("--list") && err.contains("--only"), "{err}");
        let err = parse(&["--list", "--quick"]).unwrap_err();
        assert!(err.contains("--list"), "{err}");
        let err = parse(&["--list", "out"]).unwrap_err();
        assert!(err.contains("out_dir"), "{err}");
        let err = parse(&["--list", "--check"]).unwrap_err();
        assert!(err.contains("--check"), "{err}");
        // --check validates configs; a seed, id selection, cache mode,
        // server address, or output directory is meaningless with it.
        let err = parse(&["--check", "--seed", "3"]).unwrap_err();
        assert!(err.contains("--check") && err.contains("--seed 3"), "{err}");
        let err = parse(&["--check", "--only", "f12"]).unwrap_err();
        assert!(err.contains("--only"), "{err}");
        let err = parse(&["--check", "--no-cache"]).unwrap_err();
        assert!(err.contains("--no-cache"), "{err}");
        let err = parse(&["--check", "out"]).unwrap_err();
        assert!(err.contains("out_dir"), "{err}");
        let err = parse(&["--check", "--connect", "h:1"]).unwrap_err();
        assert!(err.contains("--connect"), "{err}");
        // The server owns its cache; --no-cache cannot ride --connect.
        let err = parse(&["--connect", "127.0.0.1:7117", "--no-cache"]).unwrap_err();
        assert!(err.contains("--no-cache"), "{err}");
        // --check --quick stays valid: quick selects which config to
        // validate.
        assert_eq!(parse(&["--check", "--quick"]).unwrap(), Command::Check { quick: true });
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = parse(&["--fast"]).unwrap_err();
        assert!(err.contains("--fast"), "{err}");
        // The old parser treated any non---quick argument as out_dir;
        // a second positional is now an error too.
        let err = parse(&["a", "b"]).unwrap_err();
        assert!(err.contains('b'), "{err}");
        // Unknown flags after --list no longer slide through.
        let err = parse(&["--list", "--bogus"]).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        // Each flag has one spelling: its value is the next argument.
        let err = parse(&["--seed=7"]).unwrap_err();
        assert!(err.contains("unknown option `--seed=7`"), "{err}");
    }

    #[test]
    fn connect_parses_and_validates_shape() {
        match parse(&["--connect", "127.0.0.1:7117"]).unwrap() {
            Command::Run { connect, .. } => assert_eq!(connect.as_deref(), Some("127.0.0.1:7117")),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&["out", "--quick", "--connect", "localhost:9", "--only", "f2"]).unwrap() {
            Command::Run { connect, quick, only, .. } => {
                assert_eq!(connect.as_deref(), Some("localhost:9"));
                assert!(quick);
                assert_eq!(only, Some(vec!["f2".to_string()]));
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&["--connect"]).unwrap_err();
        assert!(err.contains("--connect"), "{err}");
        let err = parse(&["--connect", "noport"]).unwrap_err();
        assert!(err.contains("host:port"), "{err}");
        let err = parse(&["--connect", ""]).unwrap_err();
        assert!(err.contains("host:port"), "{err}");
    }

    #[test]
    fn timeout_and_retries_parse_and_require_connect() {
        match parse(&["--connect", "h:1", "--timeout", "2.5", "--retries", "4"]).unwrap() {
            Command::Run { connect, timeout, retries, .. } => {
                assert_eq!(connect.as_deref(), Some("h:1"));
                assert_eq!(timeout, Some(2.5));
                assert_eq!(retries, Some(4));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&["--connect", "h:1", "--timeout", "0.25", "--retries", "0"]).unwrap() {
            Command::Run { timeout, retries, .. } => {
                assert_eq!(timeout, Some(0.25));
                assert_eq!(retries, Some(0));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Socket policy without a socket is a usage error.
        let err = parse(&["--timeout", "5"]).unwrap_err();
        assert!(err.contains("--timeout") && err.contains("--connect"), "{err}");
        let err = parse(&["--retries", "1"]).unwrap_err();
        assert!(err.contains("--retries") && err.contains("--connect"), "{err}");
        // Value validation.
        for bad in ["0", "-1", "nan", "inf", ""] {
            let err = parse(&["--connect", "h:1", "--timeout", bad]).unwrap_err();
            assert!(err.contains("--timeout"), "{bad}: {err}");
        }
        let err = parse(&["--connect", "h:1", "--retries", "-2"]).unwrap_err();
        assert!(err.contains("--retries"), "{err}");
        // --check / --list reject them like other run-mode flags.
        let err = parse(&["--check", "--connect", "h:1", "--timeout", "1"]).unwrap_err();
        assert!(err.contains("--timeout 1"), "{err}");
    }

    #[test]
    fn only_validates_ids_against_registry() {
        let err = parse(&["--only", "f99"]).unwrap_err();
        assert!(err.contains("f99"), "{err}");
        // The error enumerates every valid id so the user never needs a
        // second round trip through --list.
        for e in registry() {
            assert!(err.contains(e.id()), "error omits valid id {}: {err}", e.id());
        }
        let err = parse(&["--only"]).unwrap_err();
        assert!(err.contains("--only"), "{err}");
        let err = parse(&["--only", ","]).unwrap_err();
        assert!(err.contains("--only"), "{err}");
    }

    #[test]
    fn no_cache_flag_is_recognized() {
        match parse(&["--no-cache"]).unwrap() {
            Command::Run { no_cache, .. } => assert!(no_cache),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&["out", "--quick", "--no-cache", "--only", "f5"]).unwrap() {
            Command::Run { no_cache, quick, .. } => {
                assert!(no_cache);
                assert!(quick);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn check_flag_selects_the_validator() {
        assert_eq!(parse(&["--check"]).unwrap(), Command::Check { quick: false });
        assert_eq!(parse(&["--check", "--quick"]).unwrap(), Command::Check { quick: true });
        assert_eq!(parse(&["--quick", "--check"]).unwrap(), Command::Check { quick: true });
    }

    #[test]
    fn parse_nvp_threads_accepts_positive_integers_only() {
        assert_eq!(parse_nvp_threads(None), None);
        assert_eq!(parse_nvp_threads(Some("")), None);
        assert_eq!(parse_nvp_threads(Some("0")), None);
        assert_eq!(parse_nvp_threads(Some("-3")), None);
        assert_eq!(parse_nvp_threads(Some("lots")), None);
        assert_eq!(parse_nvp_threads(Some("1.5")), None);
        assert_eq!(parse_nvp_threads(Some("4!")), None);
        assert_eq!(parse_nvp_threads(Some("1")), Some(1));
        assert_eq!(parse_nvp_threads(Some(" 8 ")), Some(8));
        assert_eq!(parse_nvp_threads(Some("64")), Some(64));
    }

    #[test]
    fn list_text_names_every_experiment() {
        let text = list_text();
        for e in registry() {
            assert!(text.contains(e.id()), "missing {}", e.id());
            assert!(text.contains(e.title()), "missing title for {}", e.id());
        }
    }
}
