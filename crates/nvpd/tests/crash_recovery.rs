//! Crash-recovery proof: real `nvpd` child processes are killed at
//! seeded crash points — torn journal appends, clean aborts at each
//! journal transition, mid-frame connection drops, and external
//! `SIGKILL` mid-job — then restarted on the same `--state-dir`. Every
//! scenario must end with artifacts byte-identical to an uninterrupted
//! in-process run, and the write-ahead promise must hold: once a client
//! has seen `Accepted`, the eventual answer comes from the durable
//! result store (`replayed: true`) with zero extra unique simulations.
//!
//! The fault points come from [`nvpd::faultplan::derive`], the same
//! seeded-plan discipline the simulator's own `FaultPlan` uses; specs
//! travel to the child in the `NVPD_FAULT_SPEC` environment variable.

use std::collections::BTreeMap;
use std::fs;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use nvp_experiments::wire::{read_frame, write_frame, Message};
use nvp_experiments::{
    client, reset_sim_cache, run_request, set_cache_dir, CampaignRequest, ExpConfig,
};
use nvpd::faultplan::{self, CRASH_EXIT_CODE};

/// The in-process golden runs touch the process-global simulation
/// cache; serialize them so parallel tests don't interleave counters.
fn cache_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("nvpd_crash_{tag}_{}_{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The campaign every scenario runs: real (cached) simulations, so a
/// lost-then-recovered job has genuine work to lose.
fn request() -> CampaignRequest {
    let mut req = CampaignRequest::only(ExpConfig::quick(), &["f3"]);
    req.seed = Some(23);
    req
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

/// A child `nvpd serve` process plus the address it bound.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawns `nvpd serve` on an ephemeral port with the given state
    /// dir, fault spec, and job budget, and waits for its port file.
    fn spawn(state_dir: &Path, fault_spec: Option<&str>, max_jobs: u64) -> Server {
        let port_file = state_dir.join("port.txt");
        let _ = fs::remove_file(&port_file);
        fs::create_dir_all(state_dir).expect("state dir");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_nvpd"));
        cmd.arg("serve")
            .arg("127.0.0.1:0")
            .arg("--state-dir")
            .arg(state_dir)
            .arg("--port-file")
            .arg(&port_file)
            .arg("--max-jobs")
            .arg(max_jobs.to_string())
            .env_remove("NVP_CACHE_DIR")
            .env_remove("NVPD_FAULT_SPEC")
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(spec) = fault_spec {
            cmd.env("NVPD_FAULT_SPEC", spec);
        }
        let child = cmd.spawn().expect("spawn nvpd");
        // Bounded wait for the port file — the child writes it only
        // once the listener is live.
        let mut addr = None;
        for _ in 0..400 {
            if let Ok(text) = fs::read_to_string(&port_file) {
                if text.contains(':') {
                    addr = Some(text.trim().to_string());
                    break;
                }
            }
            thread::sleep(Duration::from_millis(25));
        }
        let addr = addr.expect("child never wrote its port file");
        Server { child, addr }
    }

    /// Polls the child briefly: `Some(code)` if it exited, `None` if it
    /// is still running after the window.
    fn exit_code_within(&mut self, window: Duration) -> Option<i32> {
        let deadline = window.as_millis() / 25;
        for _ in 0..=deadline {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status.code();
            }
            thread::sleep(Duration::from_millis(25));
        }
        None
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Drives the submit protocol by hand so the test knows exactly how far
/// the handshake got before the injected fault tore it down.
struct Attempt {
    accepted: bool,
    completed: bool,
}

fn raw_attempt(addr: &str, req: &CampaignRequest) -> Attempt {
    let mut out = Attempt { accepted: false, completed: false };
    let Ok(mut stream) = TcpStream::connect(addr) else { return out };
    // Generous bound: the job itself runs real simulations before the
    // fault point may fire.
    stream.set_read_timeout(Some(Duration::from_secs(120))).expect("read timeout");
    if write_frame(&mut stream, &Message::Submit(req.clone())).is_err() {
        return out;
    }
    match read_frame(&mut stream) {
        Ok(Message::Accepted { .. }) => out.accepted = true,
        _ => return out,
    }
    if let Ok(Message::Result { .. }) = read_frame(&mut stream) {
        out.completed = true;
    }
    out
}

/// One full crash-and-recover round trip for a fault spec. Returns the
/// final outcome plus what the first (faulted) attempt observed.
fn round_trip(tag: &str, spec: &str, golden: &BTreeMap<String, Vec<u8>>, golden_misses: u64) {
    let state_dir = scratch(tag);
    let req = request();

    // Server A runs with the fault armed. Budget 2 jobs: the faulted
    // attempt plus (if A survives, e.g. a mid-frame drop) the retry.
    let mut a = Server::spawn(&state_dir, Some(spec), 2);
    let attempt = raw_attempt(&a.addr, &req);
    assert!(!attempt.completed, "[{tag}] fault plan `{spec}` failed to disturb the first attempt");

    // A crash-append fault kills A with the sentinel exit code; a
    // connection-drop fault leaves it serving.
    let outcome = match a.exit_code_within(Duration::from_secs(5)) {
        Some(code) => {
            assert_eq!(
                code, CRASH_EXIT_CODE,
                "[{tag}] expected an injected crash, got exit {code}"
            );
            // Restart on the same state dir, fault disarmed: the journal
            // replays, then the client resubmits.
            let b = Server::spawn(&state_dir, None, 1);
            let out = client::submit(&b.addr, &req)
                .unwrap_or_else(|e| panic!("[{tag}] resubmission after restart failed: {e}"));
            out
        }
        None => client::submit(&a.addr, &req)
            .unwrap_or_else(|e| panic!("[{tag}] retry against the surviving server failed: {e}")),
    };

    // Byte-identical artifacts against the uninterrupted golden run.
    let out_dir = scratch(&format!("{tag}_out"));
    outcome.result.write(&out_dir).expect("write artifacts");
    let got = dir_bytes(&out_dir);
    assert_eq!(
        golden.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>(),
        "[{tag}] artifact set differs from the uninterrupted run"
    );
    for (name, bytes) in golden {
        assert_eq!(bytes, &got[name], "[{tag}] {name} differs from the uninterrupted run");
    }

    // The write-ahead promise: once `Accepted` was seen, the admission
    // was durable, so the answer must come from the result store — no
    // re-simulation. Only a fault that struck *before* the promise
    // (e.g. a torn `Admitted` append) may leave a fresh run, and a
    // fresh run costs exactly the golden number of simulations — never
    // more.
    if attempt.accepted {
        assert!(
            outcome.replayed || outcome.result.cache.misses == 0,
            "[{tag}] accepted job re-simulated after recovery: {:?}",
            outcome.result.cache
        );
    } else {
        assert!(
            outcome.replayed
                || outcome.result.cache.misses == 0
                || outcome.result.cache.misses == golden_misses,
            "[{tag}] unexpected simulation count {:?} (golden ran {golden_misses})",
            outcome.result.cache
        );
    }

    let _ = fs::remove_dir_all(&state_dir);
    let _ = fs::remove_dir_all(&out_dir);
}

#[test]
fn seeded_crash_points_all_recover_byte_identical() {
    // The golden, uninterrupted run — in-process, the strongest
    // baseline (remote + journal + crash must match local exactly).
    let req = request();
    let golden_result = {
        let _guard = cache_lock();
        reset_sim_cache();
        let _ = set_cache_dir(None);
        let result = run_request(&req).expect("golden run");
        reset_sim_cache();
        result
    };
    let golden_dir = scratch("golden");
    golden_result.write(&golden_dir).expect("write golden artifacts");
    let golden = dir_bytes(&golden_dir);
    let golden_misses = golden_result.cache.misses;
    assert!(golden_misses > 0, "the campaign must run real simulations to prove dedup");

    // Two handcrafted specs pin the boundary cases regardless of what
    // the seed rotation lands on ...
    round_trip("tear_admitted", "crash-append=1,tear=0", &golden, golden_misses);
    round_trip("after_completed", "crash-append=3", &golden, golden_misses);
    // ... one crashes at the `Started` transition, as the CI smoke does ...
    round_trip("env_spec", "crash-append=2", &golden, golden_misses);
    // ... and the seeded rotation covers ≥20 derived crash points:
    // torn appends at varied offsets, aborts at each journal
    // transition, and mid-frame result drops.
    let mut specs = std::collections::BTreeSet::new();
    for seed in 0..20u64 {
        let spec = faultplan::derive(seed).format();
        specs.insert(spec.clone());
        round_trip(&format!("seed{seed}"), &spec, &golden, golden_misses);
    }
    assert!(specs.len() >= 10, "seed rotation collapsed: {specs:?}");

    let _ = fs::remove_dir_all(&golden_dir);
}

#[test]
fn external_sigkill_mid_job_recovers_byte_identical() {
    let req = request();
    let golden_result = {
        let _guard = cache_lock();
        reset_sim_cache();
        let _ = set_cache_dir(None);
        let result = run_request(&req).expect("golden run");
        reset_sim_cache();
        result
    };
    let golden_dir = scratch("kill_golden");
    golden_result.write(&golden_dir).expect("write golden artifacts");
    let golden = dir_bytes(&golden_dir);

    for round in 0..2 {
        let tag = format!("sigkill{round}");
        let state_dir = scratch(&tag);
        // The delay widens the admitted-but-running window the kill
        // lands in; the attempt runs on its own thread so the test can
        // pull the trigger while the client is still waiting.
        let mut a = Server::spawn(&state_dir, Some("delay-ms=1500"), 1);
        let addr = a.addr.clone();
        let req_clone = req.clone();
        let attempt = thread::spawn(move || raw_attempt(&addr, &req_clone));
        // Give admission time to journal the job and send `Accepted`,
        // then kill -9 the server inside the delayed job window.
        thread::sleep(Duration::from_millis(600));
        a.kill();
        let attempt = attempt.join().expect("attempt thread");
        assert!(attempt.accepted, "[{tag}] the job was admitted before the kill");
        assert!(!attempt.completed, "[{tag}] the kill landed before completion");

        // Restart on the same state dir: the journal must replay the
        // admitted job, and the resubmission must be a replay.
        let b = Server::spawn(&state_dir, None, 1);
        let outcome = client::submit(&b.addr, &req)
            .unwrap_or_else(|e| panic!("[{tag}] resubmission after SIGKILL failed: {e}"));
        assert!(
            outcome.replayed || outcome.result.cache.misses == 0,
            "[{tag}] SIGKILLed job re-simulated after recovery: {:?}",
            outcome.result.cache
        );
        let out_dir = scratch(&format!("{tag}_out"));
        outcome.result.write(&out_dir).expect("write artifacts");
        let got = dir_bytes(&out_dir);
        for (name, bytes) in &golden {
            assert_eq!(bytes, &got[name], "[{tag}] {name} differs from the uninterrupted run");
        }
        let _ = fs::remove_dir_all(&state_dir);
        let _ = fs::remove_dir_all(&out_dir);
    }
    let _ = fs::remove_dir_all(&golden_dir);
}

/// The satellite fix pinned end-to-end: a server that accepts the TCP
/// connection but never answers (or is simply absent) must not hang the
/// client — it times out, reports "server unreachable", and gives up
/// after its bounded retries.
#[test]
fn absent_server_fails_fast_with_unreachable() {
    let err = client::submit_with(
        "127.0.0.1:9", // discard port: nothing listens there
        &request(),
        &client::ClientConfig {
            timeout: Duration::from_millis(300),
            retries: 1,
            ..client::ClientConfig::default()
        },
    )
    .expect_err("no server must mean no hang");
    assert!(matches!(err, client::ClientError::Unreachable { .. }), "{err}");
    assert!(err.to_string().contains("server unreachable at"), "{err}");
}
