//! A stateless `nvpd` attaches `NVP_CACHE_DIR`. Two fresh server
//! processes share one store and serve the same job in turn: the first
//! simulates and fills the store's shards, the second simulates nothing
//! and serves every lookup from disk, and both results render the same
//! artifact bytes.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::Duration;

use nvp_experiments::{client, CampaignRequest, ExpConfig, SimCacheStats};

/// A child `nvpd serve` process, killed if the test fails before it
/// exits.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Reads every regular file in `dir` into a name → bytes map.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("read_dir") {
        let entry = entry.expect("dir entry");
        if entry.file_type().expect("file type").is_file() {
            let name = entry.file_name().to_string_lossy().into_owned();
            out.insert(name, fs::read(entry.path()).expect("read file"));
        }
    }
    out
}

/// Starts a stateless `nvpd serve --max-jobs 1` over the store at
/// `cache`, submits `request` once the port file names its address, and
/// waits for the server to exit. Returns the job's cache counters and
/// the artifacts its result writes into `root/<run>`.
fn serve_once(
    cache: &Path,
    root: &Path,
    run: &str,
    request: &CampaignRequest,
) -> (SimCacheStats, BTreeMap<String, Vec<u8>>) {
    let port_file = root.join(format!("{run}.addr"));
    let child = Command::new(env!("CARGO_BIN_EXE_nvpd"))
        .args(["serve", "127.0.0.1:0", "--max-jobs", "1", "--port-file"])
        .arg(&port_file)
        .env("NVP_CACHE_DIR", cache)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn nvpd");
    let mut server = Server(child);
    let addr = (0..400)
        .find_map(|_| {
            let addr = fs::read_to_string(&port_file).ok().filter(|a| a.contains(':'));
            if addr.is_none() {
                thread::sleep(Duration::from_millis(25));
            }
            addr
        })
        .expect("nvpd never wrote its port file");
    let outcome = client::submit(addr.trim(), request).expect("submit the job");
    let status = server.0.wait().expect("wait for nvpd");
    assert!(status.success(), "nvpd {run} exited with {status}");
    let out = root.join(run);
    outcome.result.write(&out).expect("write artifacts");
    (outcome.result.cache, dir_bytes(&out))
}

#[test]
fn a_second_stateless_server_is_served_from_the_shared_store() {
    let root: PathBuf =
        std::env::temp_dir().join(format!("nvpd_stateless_attach_{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).expect("scratch directory");
    let cache = root.join("cache");
    let request = CampaignRequest::only(ExpConfig::quick(), &["f3"]);

    let (cold, cold_files) = serve_once(&cache, &root, "a", &request);
    assert!(cold.misses > 0, "the first server simulates");
    assert_eq!(cold.persisted, cold.misses, "and stores every outcome");
    let shards = fs::read_dir(&cache).expect("the store exists").map(|e| e.expect("entry").path());
    assert!(shards.filter(|p| p.extension().is_some_and(|e| e == "log")).count() > 0, "shards");

    let (warm, warm_files) = serve_once(&cache, &root, "b", &request);
    assert_eq!(warm.misses, 0, "the second server simulates nothing: {warm:?}");
    assert_eq!(warm.hits, cold.hits + cold.misses, "it looks up every key");
    assert_eq!(warm.hits, warm.disk_hits, "and serves every hit from disk");
    assert_eq!(warm.persisted, 0);
    assert!(!cold_files.is_empty(), "the job writes artifacts");
    assert_eq!(warm_files, cold_files, "the same artifact bytes");

    let _ = fs::remove_dir_all(&root);
}
