//! `repro`'s registry paths: `--list` names every registered experiment
//! with its title, and `--only` writes exactly the selected tables and
//! `RESULTS.md`.

use std::fs;
use std::process::Command;

use nvp_experiments::registry;

#[test]
fn list_prints_every_registry_id_and_title() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro")).arg("--list").output().unwrap();
    assert!(output.status.success(), "repro --list failed");
    let text = String::from_utf8(output.stdout).unwrap();
    for exp in registry() {
        let line = text.lines().find(|l| l.split_whitespace().next() == Some(exp.id()));
        let line = line.unwrap_or_else(|| panic!("--list omits {}:\n{text}", exp.id()));
        assert!(line.contains(exp.title()), "--list shows {} without its title", exp.id());
    }
}

#[test]
fn only_writes_exactly_the_selected_tables() {
    let out = std::env::temp_dir().join(format!("nvp_registry_cli_{}", std::process::id()));
    let _ = fs::remove_dir_all(&out);
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg(&out)
        .args(["--quick", "--only", "f2h,t1"])
        .env_remove("NVP_CACHE_DIR")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "repro --only failed:\n{stderr}");
    // The run's cache directory sits beside the artifacts.
    let mut files: Vec<String> = fs::read_dir(&out)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_type().unwrap().is_file())
        .map(|e| e.file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(files, ["RESULTS.md", "f2h.csv", "t1.csv"]);
    fs::remove_dir_all(&out).unwrap();
}
