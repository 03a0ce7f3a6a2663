//! `repro` under forced thread counts. `NVP_THREADS=N` runs exactly `N`
//! workers, so 8 oversubscribes even a small machine. A quick campaign
//! without a cache must write byte-identical artifacts at 1, 2 and 8
//! workers, and print identical `sim cache:` and `cost stream:` lines:
//! each key simulates once at any width, and the streams it records
//! and the instructions they serve do not depend on who ran what.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("{tag}_{}", std::process::id()))
}

/// What one `repro` run wrote and reported.
struct Run {
    files: BTreeMap<String, Vec<u8>>,
    sim_cache: String,
    cost_stream: String,
}

/// Runs `repro --quick --no-cache` into `out` with `threads` workers.
fn repro(threads: u32, out: &Path) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg(out)
        .args(["--quick", "--no-cache"])
        .env("NVP_THREADS", threads.to_string())
        .env_remove("NVP_CACHE_DIR")
        .output()
        .expect("repro starts");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(output.status.success(), "repro at {threads} thread(s) failed:\n{stderr}");
    let line = |prefix: &str| {
        let found = stderr.lines().find(|l| l.starts_with(prefix));
        found.unwrap_or_else(|| panic!("no `{prefix}` line at {threads} thread(s):\n{stderr}"))
    };
    let mut files = BTreeMap::new();
    for entry in fs::read_dir(out).expect("list artifacts") {
        let path = entry.expect("artifact entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).expect("utf-8 name").to_string();
        files.insert(name, fs::read(&path).expect("read artifact"));
    }
    Run {
        files,
        sim_cache: line("sim cache:").to_string(),
        cost_stream: line("cost stream:").to_string(),
    }
}

/// The number before `label` in `line`.
fn count_before(line: &str, label: &str) -> u64 {
    let head = &line[..line.find(label).unwrap_or_else(|| panic!("`{label}` in `{line}`"))];
    let word = head.split_whitespace().last().expect("a count");
    word.parse().unwrap_or_else(|_| panic!("`{word}` is a count in `{line}`"))
}

#[test]
fn artifacts_and_counts_are_identical_at_1_2_and_8_threads() {
    let root = temp_dir("nvp_thread_matrix");
    let runs: Vec<(u32, Run)> =
        [1, 2, 8].into_iter().map(|t| (t, repro(t, &root.join(format!("t{t}"))))).collect();
    let _ = fs::remove_dir_all(&root);
    let (_, first) = &runs[0];
    assert!(!first.files.is_empty(), "a quick campaign writes artifacts");
    assert!(count_before(&first.sim_cache, "unique simulations") > 0, "{}", first.sim_cache);
    assert!(
        count_before(&first.cost_stream, "instruction(s) served") > 0,
        "a cold campaign serves instructions from streams: {}",
        first.cost_stream
    );
    for (threads, run) in &runs[1..] {
        assert!(run.files == first.files, "artifacts at {threads} threads differ from 1 thread");
        assert_eq!(run.sim_cache, first.sim_cache, "sim cache line at {threads} threads");
        assert_eq!(run.cost_stream, first.cost_stream, "cost stream line at {threads} threads");
    }
}
