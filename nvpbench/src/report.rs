//! Run context, failure accounting and the result line.

use std::fmt::Write as _;
use std::path::PathBuf;

/// What one benchmark invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Scratch directory inside the checkout, removed at exit.
    pub scratch: PathBuf,
}

impl Ctx {
    /// A fresh path under the scratch directory.
    #[must_use]
    pub fn path(&self, name: &str) -> PathBuf {
        self.scratch.join(name)
    }

    /// [`path`](Self::path) as a string, for child-process arguments.
    #[must_use]
    pub fn path_str(&self, name: &str) -> String {
        self.path(name).to_string_lossy().into_owned()
    }
}

/// Metrics, operation counts and failures of one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted (campaigns or jobs).
    pub attempted: u64,
    failures: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a count metric.
    pub fn count(&mut self, name: &str, value: u64) {
        self.metric(name, value as f64, "count");
    }

    /// Counts a failed operation or output-check mismatch.
    pub fn fail(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("nvpbench: FAILED: {what}");
        self.failures.push(what);
    }

    /// Checks `ok`, counting a failure described by `what` otherwise.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Failures so far.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Prints one human-readable line per metric, then the result line
    /// (the last line of stdout).
    pub fn print(&self) {
        let mut json = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            println!("{name:<36} {value:>16.6} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            write!(
                json,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
            .expect("write to String");
        }
        let failed = self.failed();
        let correct = failed == 0 && self.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
            self.attempted.max(1)
        );
    }
}

/// A JSON number for `v` (non-finite values, which JSON cannot carry,
/// print as 0 and are caught by the caller's checks).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
