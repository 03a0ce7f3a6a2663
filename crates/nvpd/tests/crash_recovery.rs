//! Crash recovery, end to end. A crash leaves the state directory as a
//! prefix of the writes the server made, so the tests build those
//! states themselves (`journal.rs`'s unit tests reopen every torn
//! journal prefix): one in-process restart per crash class, and one
//! real `kill -9` of the `nvpd` binary. Every recovery must render
//! artifacts byte-identical to an uninterrupted in-process run, and the
//! write-ahead promise must hold: once a job's `Admitted` record is
//! whole (the `Accepted` frame follows its fsync), a resubmission is
//! answered from the result store (`replayed`).

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread;

use nvp_experiments::wire::{read_frame, request_key, write_frame, Message};
use nvp_experiments::{
    client, reset_sim_cache, run_request, set_cache_dir, CampaignRequest, CampaignResult, ExpConfig,
};
use nvpd::faultplan::ServiceFaultPlan;
use nvpd::journal::Journal;
use nvpd::{Server, ServerConfig};

/// The in-process runs touch the process-global simulation cache;
/// serialize them so parallel tests don't interleave counters.
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

/// The uninterrupted run, in-process and memory-only.
fn golden(req: &CampaignRequest) -> CampaignResult {
    let _guard = cache_lock();
    reset_sim_cache();
    let _ = set_cache_dir(None);
    let result = run_request(req).expect("golden run");
    reset_sim_cache();
    assert!(result.cache.misses > 0, "the campaign must run real simulations");
    result
}

/// The artifact files a result renders, name → bytes.
fn artifacts(result: &CampaignResult, tag: &str) -> BTreeMap<String, Vec<u8>> {
    let dir = scratch(tag);
    result.write(&dir).expect("write artifacts");
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(&dir).expect("read_dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        out.insert(name, fs::read(entry.path()).expect("read artifact"));
    }
    let _ = fs::remove_dir_all(&dir);
    out
}

/// Where the result store keeps a request's entry.
fn entry_path(state_dir: &Path, req: &CampaignRequest) -> PathBuf {
    let hex: String = request_key(req).iter().map(|b| format!("{b:02x}")).collect();
    state_dir.join("results").join(format!("{hex}.res"))
}

/// The journal's length on disk.
fn journal_len(state_dir: &Path) -> u64 {
    fs::metadata(state_dir.join("journal.log")).expect("journal metadata").len()
}

/// A crash class, named by how far job 0 got before the crash.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Class {
    /// The `Admitted` record was torn: nothing was promised.
    TornAdmitted,
    /// `Admitted` is whole; the job never started.
    Admitted,
    /// `Started` is whole; the job was running.
    Started,
    /// The result is stored; `Completed` never landed.
    Stored,
    /// `Completed` landed; the compaction that follows it did not.
    Completed,
}

/// Leaves `state_dir` as the crash of `class` left it, through the
/// journal's own API and truncation. `result` is what the crashed
/// server would have stored.
fn craft(state_dir: &Path, class: Class, req: &CampaignRequest, result: &CampaignResult) {
    let key = request_key(req);
    let (journal, _) = Journal::open(state_dir, ServiceFaultPlan::none()).expect("open journal");
    let header = journal_len(state_dir);
    journal.admitted(0, &key, req).expect("admit");
    if class == Class::TornAdmitted {
        let torn = (header + journal_len(state_dir)) / 2;
        let file = fs::OpenOptions::new().write(true).open(state_dir.join("journal.log"));
        file.and_then(|f| f.set_len(torn)).expect("tear the Admitted record");
        return;
    }
    if class == Class::Admitted {
        return;
    }
    journal.started(0).expect("start");
    if class == Class::Started {
        return;
    }
    let digest = journal.put_result(&key, result).expect("store the result");
    if class == Class::Stored {
        return;
    }
    // `Completed 0` would empty the live set and compact at once, so a
    // second job keeps one live while it is appended; cutting that
    // job's `Admitted` record out leaves the journal as it stood just
    // before the compaction.
    let started = journal_len(state_dir) as usize;
    let other = CampaignRequest::only(ExpConfig::quick(), &["t1"]);
    journal.admitted(1, &request_key(&other), &other).expect("admit a second job");
    let second = journal_len(state_dir) as usize;
    journal.completed(0, &digest).expect("complete");
    drop(journal);
    let path = state_dir.join("journal.log");
    let mut bytes = fs::read(&path).expect("read journal");
    bytes.drain(started..second);
    fs::write(&path, bytes).expect("write the pre-compaction journal");
}

/// Each crash class, restarted in-process on the state it leaves: the
/// resubmission's artifacts equal the uninterrupted run's, it is a
/// replay whenever `Admitted` was whole, and the store holds the answer
/// by the time the client has it.
#[test]
fn every_crash_class_recovers_byte_identical() {
    let req = request();
    let golden_result = golden(&req);
    let golden = artifacts(&golden_result, "golden");
    let _guard = cache_lock();
    for class in
        [Class::TornAdmitted, Class::Admitted, Class::Started, Class::Stored, Class::Completed]
    {
        let state_dir = scratch(&format!("{class:?}"));
        craft(&state_dir, class, &req, &golden_result);

        // A restarted process starts with an empty memory cache.
        reset_sim_cache();
        let _ = set_cache_dir(None);
        let server = Server::bind("127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr().expect("bound address").to_string();
        let cfg = ServerConfig {
            max_jobs: Some(1),
            state_dir: Some(state_dir.clone()),
            ..ServerConfig::default()
        };
        let run = thread::spawn(move || server.run(&cfg));
        let outcome = client::submit(&addr, &req)
            .unwrap_or_else(|e| panic!("[{class:?}] resubmission failed: {e}"));
        assert!(entry_path(&state_dir, &req).exists(), "[{class:?}] answered, not stored");
        let stats = run.join().expect("server thread").expect("server run");

        assert_eq!(
            outcome.replayed,
            class != Class::TornAdmitted,
            "[{class:?}] a whole Admitted record must be answered from the result store"
        );
        let recovered = matches!(class, Class::Admitted | Class::Started | Class::Stored);
        assert_eq!(stats.recovered, u64::from(recovered), "[{class:?}] jobs recovered");
        assert_eq!(stats.quarantined, u64::from(class == Class::TornAdmitted), "[{class:?}]");
        assert_eq!(artifacts(&outcome.result, "class"), golden, "[{class:?}] artifacts differ");
        let (_, after) =
            Journal::open(&state_dir, ServiceFaultPlan::none()).expect("reopen journal");
        assert!(after.pending.is_empty(), "[{class:?}] a job was left unfinished");
        let _ = fs::remove_dir_all(&state_dir);
    }
    reset_sim_cache();
}

/// A server whose jobs all finished compacts its journal to the header
/// and the next id, so a server restarted on that state keeps counting:
/// after jobs 0, 1 and 2, the next job is 3.
#[test]
fn a_restart_after_compaction_continues_the_job_ids() {
    let _guard = cache_lock();
    let state_dir = scratch("ids");
    let req = CampaignRequest::only(ExpConfig::quick(), &["t1"]);
    let serve = |jobs: u64| -> Vec<u64> {
        let server = Server::bind("127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr().expect("bound address").to_string();
        let cfg = ServerConfig {
            max_jobs: Some(jobs),
            state_dir: Some(state_dir.clone()),
            ..ServerConfig::default()
        };
        let run = thread::spawn(move || server.run(&cfg));
        let ids = (0..jobs).map(|_| client::submit(&addr, &req).expect("submit").job).collect();
        run.join().expect("server thread").expect("server run");
        ids
    };
    assert_eq!(serve(3), [0, 1, 2]);
    let (_, recovery) = Journal::open(&state_dir, ServiceFaultPlan::none()).expect("reopen");
    assert!(recovery.pending.is_empty(), "every job finished, so the journal compacted");
    assert_eq!(serve(1), [3], "the restarted server assigns no id twice");
    let _ = fs::remove_dir_all(&state_dir);
}

/// A child `nvpd serve --max-jobs 1` process on an ephemeral port.
struct Nvpd {
    child: Child,
    addr: String,
    /// Everything the child writes to stderr after its listening line.
    log: Option<thread::JoinHandle<String>>,
}

impl Nvpd {
    /// Spawns the server on `state_dir` and reads its address from the
    /// listening line it prints once the socket is bound.
    fn spawn(state_dir: &Path) -> Nvpd {
        let mut child = Command::new(env!("CARGO_BIN_EXE_nvpd"))
            .args(["serve", "127.0.0.1:0", "--max-jobs", "1", "--state-dir"])
            .arg(state_dir)
            .env_remove("NVP_CACHE_DIR")
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn nvpd");
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let read = stderr.read_line(&mut line).expect("read nvpd stderr");
            assert!(read > 0, "nvpd exited before listening");
            if let Some(addr) = line.trim().strip_prefix("nvpd: listening on ") {
                break addr.to_string();
            }
        };
        let log = thread::spawn(move || {
            let mut rest = String::new();
            let _ = stderr.read_to_string(&mut rest);
            rest
        });
        Nvpd { child, addr, log: Some(log) }
    }

    /// Waits for the child to exit and returns whether it succeeded and
    /// what it logged.
    fn wait(mut self) -> (bool, String) {
        let status = self.child.wait().expect("wait for nvpd");
        let log = self.log.take().expect("log reader").join().expect("log thread");
        (status.success(), log)
    }
}

impl Drop for Nvpd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One real `kill -9`, sent as soon as the client holds `Accepted`: the
/// kill may land mid-job or after the job, and either way the restarted
/// server answers the resubmission from the result store with the
/// uninterrupted run's artifacts.
#[test]
fn a_sigkilled_server_answers_every_accepted_job() {
    let req = request();
    let golden = artifacts(&golden(&req), "kill_golden");
    let state_dir = scratch("sigkill");
    fs::create_dir_all(&state_dir).expect("state dir");

    let mut first = Nvpd::spawn(&state_dir);
    let mut stream = TcpStream::connect(&first.addr).expect("connect");
    write_frame(&mut stream, &Message::Submit(req.clone())).expect("submit");
    match read_frame(&mut stream).expect("the server answers the submission") {
        Message::Accepted { job: 0, .. } => {}
        other => panic!("expected Accepted for job 0, got {other:?}"),
    }
    first.child.kill().expect("SIGKILL nvpd");
    let (_, first_log) = first.wait();
    drop(stream);

    let second = Nvpd::spawn(&state_dir);
    let outcome = client::submit(&second.addr, &req).expect("resubmission after SIGKILL");
    let (exited, second_log) = second.wait();
    assert!(exited, "the restarted server failed:\n{second_log}");
    assert!(
        outcome.replayed,
        "an accepted job was not answered from the result store\n\
         killed server:\n{first_log}\nrestarted server:\n{second_log}"
    );
    assert_eq!(artifacts(&outcome.result, "kill_out"), golden, "recovered artifacts differ");
    let _ = fs::remove_dir_all(&state_dir);
}
