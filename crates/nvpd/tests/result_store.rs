//! The result store across `nvpd` processes. A stored result whose
//! entry is damaged is quarantined and its job re-run, never replayed;
//! an intact one is replayed; a server with no state directory answers
//! as an in-process run does. Each test drives the real binary and
//! asserts on the client's typed outcome and on the files the store
//! leaves.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::Duration;

use nvp_experiments::client::{self, RemoteOutcome};
use nvp_experiments::{run_request, CampaignRequest, CampaignResult, ExpConfig};

/// A child `nvpd serve` process, killed if the test fails before it
/// exits.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nvpd_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Starts `nvpd serve --max-jobs N` for the N `requests` (with
/// `--state-dir STATE` when `state` is given), submits them one after
/// another once the port file names its address, and waits for the
/// server to exit.
fn serve(
    state: Option<&Path>,
    port_file: &Path,
    requests: &[&CampaignRequest],
) -> Vec<RemoteOutcome> {
    let _ = fs::remove_file(port_file);
    let mut command = Command::new(env!("CARGO_BIN_EXE_nvpd"));
    command.args(["serve", "127.0.0.1:0"]);
    if let Some(state) = state {
        command.arg("--state-dir").arg(state);
    }
    let child = command
        .args(["--max-jobs", &requests.len().to_string(), "--port-file"])
        .arg(port_file)
        .env_remove("NVP_CACHE_DIR")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn nvpd");
    let mut server = Server(child);
    let addr = (0..400)
        .find_map(|_| {
            let addr = fs::read_to_string(port_file).ok().filter(|a| a.contains(':'));
            if addr.is_none() {
                thread::sleep(Duration::from_millis(25));
            }
            addr
        })
        .expect("nvpd never wrote its port file");
    let outcomes = requests
        .iter()
        .map(|req| client::submit(addr.trim(), req).expect("submit the job"))
        .collect();
    let status = server.0.wait().expect("wait for nvpd");
    assert!(status.success(), "nvpd exited with {status}");
    outcomes
}

/// The artifacts `result` writes into `dir`, name → bytes.
fn artifacts(result: &CampaignResult, dir: &Path) -> BTreeMap<String, Vec<u8>> {
    result.write(dir).expect("write artifacts");
    fs::read_dir(dir)
        .expect("read_dir")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().expect("file name").to_string_lossy().into_owned();
            (name, fs::read(&path).expect("read artifact"))
        })
        .collect()
}

/// The stored results of a state directory.
fn result_entries(state: &Path) -> Vec<PathBuf> {
    fs::read_dir(state.join("results"))
        .expect("the result store exists")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "res"))
        .collect()
}

/// One `t1` result is stored, then its entry's last byte is flipped.
/// A new server over the same state directory quarantines the entry and
/// re-runs the job instead of replaying it, and the re-run renders the
/// first run's artifacts.
#[test]
fn a_damaged_result_store_entry_is_quarantined_not_served() {
    let root = scratch("result_store_damaged");
    let state = root.join("state");
    let port_file = root.join("addr");
    let request = CampaignRequest::only(ExpConfig::quick(), &["t1"]);

    let first = serve(Some(&state), &port_file, &[&request]).remove(0);
    assert!(!first.replayed, "a fresh state directory replays nothing");
    let entries = result_entries(&state);
    assert_eq!(entries.len(), 1, "the job stores one result");
    let entry = &entries[0];
    let mut bytes = fs::read(entry).expect("stored entry");
    *bytes.last_mut().expect("a non-empty entry") ^= 1;
    fs::write(entry, &bytes).expect("damage the entry");

    let second = serve(Some(&state), &port_file, &[&request]).remove(0);
    assert!(!second.replayed, "the damaged entry was served");
    let mut quarantined = entry.clone().into_os_string();
    quarantined.push(".quarantine");
    assert!(Path::new(&quarantined).exists(), "the damaged entry is quarantined");
    assert_eq!(result_entries(&state).len(), 1, "the re-run stores a fresh entry");
    assert_eq!(
        artifacts(&second.result, &root.join("second")),
        artifacts(&first.result, &root.join("first")),
        "the re-run renders the first run's artifacts"
    );

    let _ = fs::remove_dir_all(&root);
}

/// One server answers the same default-config `f1` job twice: the first
/// answer runs, the second replays the stored result (its five profiles
/// travel as trace specs), and both render an in-process run's
/// artifacts.
#[test]
fn a_default_config_f1_result_replays_from_the_store() {
    let root = scratch("result_store_replay");
    let request = CampaignRequest::only(ExpConfig::default(), &["f1"]);
    let local = artifacts(&run_request(&request).expect("in-process run"), &root.join("local"));
    assert_eq!(local.len(), 2 + ExpConfig::default().profile_seeds.len(), "f1, profiles, RESULTS");

    let runs = serve(Some(&root.join("state")), &root.join("addr"), &[&request, &request]);
    let replayed: Vec<bool> = runs.iter().map(|run| run.replayed).collect();
    assert_eq!(replayed, [false, true], "the first answer runs, the second replays");
    for (run, name) in runs.iter().zip(["first", "second"]) {
        assert_eq!(artifacts(&run.result, &root.join(name)), local, "the {name} answer differs");
    }

    let _ = fs::remove_dir_all(&root);
}

/// A server with no state directory answers a quick `f2,f12` job with
/// exactly the artifact bytes an in-process, memory-only run writes.
#[test]
fn a_stateless_server_renders_the_in_process_artifacts() {
    let root = scratch("result_store_stateless");
    let request = CampaignRequest::only(ExpConfig::quick(), &["f2", "f12"]);
    let local = artifacts(&run_request(&request).expect("in-process run"), &root.join("local"));

    let remote = serve(None, &root.join("addr"), &[&request]).remove(0);
    assert!(!remote.replayed, "a stateless server has nothing to replay");
    assert_eq!(artifacts(&remote.result, &root.join("remote")), local);

    let _ = fs::remove_dir_all(&root);
}
