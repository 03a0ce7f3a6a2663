//! Loopback tests: a real `nvpd` server on 127.0.0.1 driven by the real
//! client, pinning the acceptance criteria — over-the-wire artifacts
//! byte-identical to in-process runs, duplicate submissions deduped
//! through the shared cache, and admission control and panicking jobs
//! rejected without taking the server down.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread;

use nvp_experiments::client::{ClientConfig, ClientError};
use nvp_experiments::record::{put_frame, put_str};
use nvp_experiments::wire::{
    encode_request_bytes, read_frame, write_frame, Message, MAX_FRAME_BYTES, PROTOCOL,
};
use nvp_experiments::{
    client, reset_sim_cache, run_request, set_cache_dir, CampaignRequest, ExpConfig,
};
use nvpd::{Server, ServerConfig, ServerStats};

/// The simulation cache is process-global; serialize every test that
/// runs jobs so counters and store state don't interleave.
fn cache_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("nvpd_{tag}_{}_{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Binds a server on an ephemeral loopback port and runs it on its own
/// thread; `max_jobs` must be set in `cfg` so the thread terminates.
fn start_server(cfg: ServerConfig) -> (SocketAddr, thread::JoinHandle<io::Result<ServerStats>>) {
    assert!(cfg.max_jobs.is_some(), "test servers must have a shutdown point");
    let server = Server::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let handle = thread::spawn(move || server.run(&cfg));
    (addr, handle)
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

#[test]
fn wire_and_in_process_runs_render_byte_identical_artifacts() {
    let _guard = cache_lock();
    reset_sim_cache();
    let _ = set_cache_dir(None);

    // The full quick campaign — the same artifact set the golden
    // digests pin — through both transports.
    let request = CampaignRequest::all(ExpConfig::quick());
    let local_dir = scratch("local");
    let local = run_request(&request).expect("in-process run");
    local.write(&local_dir).expect("write local artifacts");

    let (addr, handle) =
        start_server(ServerConfig { max_jobs: Some(1), ..ServerConfig::default() });
    let remote_dir = scratch("remote");
    let outcome = client::submit(&addr.to_string(), &request).expect("remote run");
    outcome.result.write(&remote_dir).expect("write remote artifacts");

    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!((stats.accepted, stats.completed, stats.rejected), (1, 1, 0));

    let local_files = dir_bytes(&local_dir);
    let remote_files = dir_bytes(&remote_dir);
    assert_eq!(
        local_files.keys().collect::<Vec<_>>(),
        remote_files.keys().collect::<Vec<_>>(),
        "same artifact set through both transports"
    );
    for (name, bytes) in &local_files {
        assert_eq!(bytes, &remote_files[name], "{name} differs across transports");
    }

    reset_sim_cache();
    let _ = fs::remove_dir_all(&local_dir);
    let _ = fs::remove_dir_all(&remote_dir);
}

#[test]
fn concurrent_duplicate_submissions_dedup_through_the_shared_store() {
    let _guard = cache_lock();
    reset_sim_cache();
    let cache_dir = scratch("cache");
    set_cache_dir(Some(&cache_dir)).expect("attach persistent store");

    // f3 runs real (cached) simulations; f2/f12 are pure trace
    // statistics and would never touch the store.
    let mut request = CampaignRequest::only(ExpConfig::quick(), &["f3"]);
    request.seed = Some(7);

    let (addr, handle) =
        start_server(ServerConfig { max_jobs: Some(2), ..ServerConfig::default() });
    let (first, second) = thread::scope(|scope| {
        let a = scope.spawn(|| client::submit(&addr.to_string(), &request));
        let b = scope.spawn(|| client::submit(&addr.to_string(), &request));
        (a.join().expect("client a"), b.join().expect("client b"))
    });
    let first = first.expect("first submission");
    let second = second.expect("second submission");
    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!((stats.accepted, stats.completed, stats.rejected), (2, 2, 0));

    // Identical values back on both connections...
    assert_eq!(first.result.tables, second.result.tables);
    assert_eq!(first.result.results_markdown(), second.result.results_markdown());
    // ...and (single-worker server, so per-job deltas are exact) every
    // simulation ran exactly once: whichever job went second was served
    // entirely from the resident cache.
    let (cold, warm) = if first.result.cache.misses >= second.result.cache.misses {
        (&first.result.cache, &second.result.cache)
    } else {
        (&second.result.cache, &first.result.cache)
    };
    assert!(cold.misses > 0, "the cold job simulates");
    assert_eq!(warm.misses, 0, "the duplicate job runs zero new simulations");
    assert!(warm.hits > 0, "the duplicate job is served from the shared store");

    reset_sim_cache();
    let _ = set_cache_dir(None);
    let _ = fs::remove_dir_all(&cache_dir);
}

#[test]
fn admission_control_rejects_without_taking_the_server_down() {
    let _guard = cache_lock();
    reset_sim_cache();
    let _ = set_cache_dir(None);

    let (addr, handle) =
        start_server(ServerConfig { max_jobs: Some(1), ..ServerConfig::default() });
    let addr = addr.to_string();

    // A Submit frame from an `nvpd/4` client is refused at admission
    // with a reason naming the protocol mismatch. That encoding is this
    // protocol's request body under the old tag, plus the trailing
    // cache-policy byte `nvpd/5` dropped.
    let body = encode_request_bytes(&CampaignRequest::only(ExpConfig::quick(), &["t1"]));
    let mut payload = vec![1]; // the Submit message tag
    put_str(&mut payload, "nvpd/4");
    payload.extend_from_slice(&body[4 + PROTOCOL.len()..]);
    payload.push(0); // cache policy: shared
    let mut frame = Vec::new();
    put_frame(&mut frame, &payload, MAX_FRAME_BYTES).expect("frame the old request");
    let mut stream = TcpStream::connect(&addr).expect("connect");
    {
        use io::Write;
        stream.write_all(&frame).expect("send nvpd/4 frame");
    }
    match read_frame(&mut stream).expect("reject frame") {
        Message::Reject { reason, retryable } => {
            assert!(reason.contains("protocol mismatch"), "{reason}");
            assert!(reason.contains("nvpd/4"), "{reason}");
            assert!(!retryable, "a protocol mismatch is not retryable");
        }
        other => panic!("expected Reject, got {other:?}"),
    }

    // Unknown experiment ids are caught before the job takes a slot.
    let bogus = CampaignRequest::only(ExpConfig::quick(), &["f99"]);
    let err = client::submit(&addr, &bogus).expect_err("unknown id must be rejected");
    assert!(err.to_string().contains("unknown experiment id"), "{err}");

    // The server is still healthy: a valid job completes afterwards.
    let ok = CampaignRequest::only(ExpConfig::quick(), &["t1"]);
    let outcome = client::submit(&addr, &ok).expect("valid job after rejects");
    assert_eq!(outcome.result.tables.len(), 1);

    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!((stats.accepted, stats.completed, stats.rejected), (1, 1, 2));
    reset_sim_cache();
}

#[test]
fn malformed_and_out_of_order_frames_draw_a_reject_frame() {
    let _guard = cache_lock();
    reset_sim_cache();
    let _ = set_cache_dir(None);

    let (addr, handle) =
        start_server(ServerConfig { max_jobs: Some(1), ..ServerConfig::default() });
    let addr = addr.to_string();

    // A syntactically valid frame that is not a Submit.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    write_frame(&mut stream, &Message::Accepted { job: 9, queued: 0 }).expect("send frame");
    match read_frame(&mut stream).expect("reject frame") {
        Message::Reject { reason, retryable } => {
            assert!(reason.contains("Submit"), "{reason}");
            assert!(!retryable, "a protocol violation is not retryable");
        }
        other => panic!("expected Reject, got {other:?}"),
    }

    // Garbage bytes with a plausible header shape: rejected as a
    // malformed frame, connection answered rather than wedged.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    {
        use io::Write;
        // len=4, bogus crc, 4 payload bytes.
        stream.write_all(&[4, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4]).expect("send bytes");
    }
    match read_frame(&mut stream).expect("reject frame") {
        Message::Reject { reason, retryable } => {
            assert!(reason.contains("malformed"), "{reason}");
            assert!(!retryable, "a malformed frame is not retryable");
        }
        other => panic!("expected Reject, got {other:?}"),
    }

    // And the server still serves real work.
    let ok = CampaignRequest::only(ExpConfig::quick(), &["t1"]);
    client::submit(&addr, &ok).expect("valid job after malformed frames");
    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!((stats.accepted, stats.completed, stats.rejected), (1, 1, 2));
    reset_sim_cache();
}

#[test]
fn slow_loris_submit_times_out_without_wedging_admission() {
    let _guard = cache_lock();
    reset_sim_cache();
    let _ = set_cache_dir(None);

    // A short submit window so the test stays fast; real deployments
    // keep the 30 s default.
    let cfg = ServerConfig {
        max_jobs: Some(1),
        submit_timeout: std::time::Duration::from_millis(250),
        ..ServerConfig::default()
    };
    let (addr, handle) = start_server(cfg);
    let addr = addr.to_string();

    // The slow loris: opens a connection, dribbles half a frame header,
    // and then stalls forever. Keep the socket alive for the whole test.
    let mut loris = TcpStream::connect(&addr).expect("connect loris");
    {
        use io::Write;
        loris.write_all(&[12, 0]).expect("partial header");
        loris.flush().expect("flush");
    }

    // A well-behaved client right behind it must still be served: the
    // acceptor's read timeout trips, the stalled connection is dropped,
    // and admission moves on.
    let ok = CampaignRequest::only(ExpConfig::quick(), &["t1"]);
    let outcome = client::submit(&addr, &ok).expect("valid job behind a stalled client");
    assert_eq!(outcome.result.tables.len(), 1);

    let stats = handle.join().expect("server thread").expect("server run");
    // The loris is Dropped — neither accepted nor rejected.
    assert_eq!((stats.accepted, stats.completed, stats.rejected), (1, 1, 0));
    drop(loris);
    reset_sim_cache();
}

#[test]
fn journal_replays_pending_jobs_after_a_crash() {
    let _guard = cache_lock();
    reset_sim_cache();
    let _ = set_cache_dir(None);
    let state_dir = scratch("state");

    // Simulate the moment after a crash: a journal holding one job that
    // was admitted (durably promised) but never completed.
    let mut request = CampaignRequest::only(ExpConfig::quick(), &["t1"]);
    request.seed = Some(3);
    let key = nvp_experiments::wire::request_key(&request);
    {
        let (journal, recovery) =
            nvpd::journal::Journal::open(&state_dir, nvpd::faultplan::ServiceFaultPlan::none())
                .expect("open journal");
        assert_eq!(recovery.pending.len(), 0);
        journal.admitted(0, &key, &request).expect("journal the admission");
        // Process "crashes" here: the journal is simply dropped.
    }

    // The restarted server replays the journal, runs the orphaned job
    // (warming the result store), and answers our resubmission of the
    // same request from that store: zero new simulations, flagged as a
    // journal replay on the wire.
    let cfg = ServerConfig {
        max_jobs: Some(1),
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    };
    let (addr, handle) = start_server(cfg);
    let outcome = client::submit(&addr.to_string(), &request).expect("resubmission");
    assert!(outcome.replayed, "resubmission is served from the durable result store");

    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!(stats.recovered, 1, "the admitted-but-unfinished job was re-enqueued");
    assert_eq!(stats.replayed, 1, "the resubmission hit the idempotency key");
    assert_eq!((stats.accepted, stats.completed), (1, 1));
    assert_eq!(stats.quarantined, 0);

    reset_sim_cache();
    let _ = fs::remove_dir_all(&state_dir);
}

#[test]
fn identical_resubmission_replays_without_resimulation() {
    let _guard = cache_lock();
    reset_sim_cache();
    let _ = set_cache_dir(None);
    let state_dir = scratch("idem");

    let mut request = CampaignRequest::only(ExpConfig::quick(), &["f3"]);
    request.seed = Some(11);
    let cfg = ServerConfig {
        max_jobs: Some(2),
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    };
    let (addr, handle) = start_server(cfg);
    let addr = addr.to_string();

    let first = client::submit(&addr, &request).expect("first submission");
    assert!(!first.replayed, "a cold submission actually runs");
    assert!(first.result.cache.misses > 0);

    let second = client::submit(&addr, &request).expect("identical resubmission");
    assert!(second.replayed, "the duplicate is answered from the result store");
    // The replay is the *stored* result, byte-for-byte — including the
    // original run's counters (which is why dedup is asserted via the
    // `replayed` flag, not via `misses == 0`).
    assert_eq!(first.result.tables, second.result.tables);
    assert_eq!(first.result.cache, second.result.cache);
    assert_eq!(first.result.results_markdown(), second.result.results_markdown());

    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!((stats.accepted, stats.completed, stats.replayed), (2, 2, 1));

    reset_sim_cache();
    let _ = fs::remove_dir_all(&state_dir);
}

#[test]
fn zero_job_budget_drains_the_journal_and_returns() {
    let _guard = cache_lock();
    reset_sim_cache();
    let _ = set_cache_dir(None);
    let state_dir = scratch("drain");

    // One job admitted by a previous process and never completed.
    let mut request = CampaignRequest::only(ExpConfig::quick(), &["t1"]);
    request.seed = Some(5);
    let key = nvp_experiments::wire::request_key(&request);
    {
        let (journal, _) =
            nvpd::journal::Journal::open(&state_dir, nvpd::faultplan::ServiceFaultPlan::none())
                .expect("open journal");
        journal.admitted(0, &key, &request).expect("journal the admission");
    }

    // A zero job budget runs the recovered job and returns without
    // waiting for a client. Bounded wait, so a server that blocks in
    // accept fails the test instead of hanging it.
    let cfg = ServerConfig {
        max_jobs: Some(0),
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0").expect("bind loopback");
    let (tx, rx) = std::sync::mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(server.run(&cfg));
    });
    let stats = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("a zero job budget must return without a client")
        .expect("server run");
    assert_eq!((stats.recovered, stats.accepted), (1, 0));

    // The journal is drained: a reopen finds nothing left to run.
    let (_, recovery) =
        nvpd::journal::Journal::open(&state_dir, nvpd::faultplan::ServiceFaultPlan::none())
            .expect("reopen journal");
    assert!(recovery.pending.is_empty(), "the recovered job completed");

    reset_sim_cache();
    let _ = fs::remove_dir_all(&state_dir);
}

/// Submits a job whose builder panics (F8's kernels run out of memory
/// range on a 1×1 frame), then a healthy quick `f3` job, to a two-job
/// server, and returns its counters. The panicking job must draw a
/// non-retryable Reject naming it, and the healthy job its Result.
fn serve_panicking_then_healthy_job(state_dir: Option<PathBuf>) -> ServerStats {
    let (addr, handle) =
        start_server(ServerConfig { max_jobs: Some(2), state_dir, ..ServerConfig::default() });
    let addr = addr.to_string();

    let mut config = ExpConfig::quick();
    (config.frame_w, config.frame_h) = (1, 1);
    let poison = CampaignRequest::only(config, &["f8"]);
    let once = ClientConfig { retries: 0, ..ClientConfig::default() };
    match client::submit_with(&addr, &poison, &once) {
        Err(ClientError::Rejected { reason }) => {
            assert!(reason.contains("job 0 failed: panicked"), "{reason}");
        }
        Err(e) => panic!("expected a non-retryable Reject, got: {e}"),
        Ok(_) => panic!("F8's kernels cannot run on a 1x1 frame"),
    }

    let healthy = CampaignRequest::only(ExpConfig::quick(), &["f3"]);
    let outcome = client::submit(&addr, &healthy).expect("healthy job after a panicking one");
    assert_eq!(outcome.result.tables.len(), 1);
    handle.join().expect("server thread").expect("server run")
}

#[test]
fn a_panicking_job_is_rejected_and_the_worker_serves_the_next() {
    let _guard = cache_lock();
    reset_sim_cache();
    let _ = set_cache_dir(None);

    let stats = serve_panicking_then_healthy_job(None);
    assert_eq!((stats.accepted, stats.completed, stats.rejected), (2, 1, 0));
    reset_sim_cache();
}

#[test]
fn a_panicking_job_is_journalled_as_finished() {
    let _guard = cache_lock();
    reset_sim_cache();
    let _ = set_cache_dir(None);
    let state_dir = scratch("panic");

    let stats = serve_panicking_then_healthy_job(Some(state_dir.clone()));
    assert_eq!((stats.accepted, stats.completed, stats.recovered), (2, 1, 0));

    // Both jobs finished, so the live set emptied and the journal
    // compacted to its 8-byte header; a restart replays nothing.
    let log = fs::read(state_dir.join("journal.log")).expect("read journal");
    assert_eq!(log, b"nvpjrnl1", "journal holds only its header");
    let (_, recovery) =
        nvpd::journal::Journal::open(&state_dir, nvpd::faultplan::ServiceFaultPlan::none())
            .expect("reopen journal");
    assert!(recovery.pending.is_empty(), "the failed job is not replayed");

    reset_sim_cache();
    let _ = fs::remove_dir_all(&state_dir);
}

#[test]
fn a_result_over_the_frame_bound_is_rejected_once_and_journalled_as_finished() {
    let _guard = cache_lock();
    reset_sim_cache();
    let _ = set_cache_dir(None);
    let state_dir = scratch("oversize");
    let (addr, handle) = start_server(ServerConfig {
        max_jobs: Some(1),
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    });

    // Two 120 s F1 profiles encode to about 19.2 MB, past the 16 MiB
    // frame bound, though each alone fits it. With one job budgeted, a
    // client retry would find the server gone.
    let mut config = ExpConfig::quick();
    config.trace_duration_s = 120.0;
    let request = CampaignRequest::only(config, &["f1"]);
    let cfg = ClientConfig { retries: 2, ..ClientConfig::default() };
    match client::submit_with(&addr.to_string(), &request, &cfg) {
        Err(ClientError::Rejected { reason }) => {
            assert!(reason.contains("job 0 failed") && reason.contains("frame bound"), "{reason}");
        }
        Err(e) => panic!("expected a non-retryable Reject, got: {e}"),
        Ok(_) => panic!("a result over the frame bound cannot be sent"),
    }
    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!((stats.accepted, stats.completed), (1, 0));

    let (_, recovery) =
        nvpd::journal::Journal::open(&state_dir, nvpd::faultplan::ServiceFaultPlan::none())
            .expect("reopen journal");
    assert!(recovery.pending.is_empty(), "the oversized job is not replayed");

    reset_sim_cache();
    let _ = fs::remove_dir_all(&state_dir);
}

/// A config no job can run — a trace duration that is NaN, negative,
/// infinite or longer than one frame holds — draws one non-retryable
/// Reject at admission, before anything is journalled, and the server
/// goes on to serve the next job.
#[test]
fn unrunnable_trace_durations_are_rejected_at_admission() {
    let _guard = cache_lock();
    reset_sim_cache();
    let _ = set_cache_dir(None);
    let state_dir = scratch("unrunnable");
    let (addr, handle) = start_server(ServerConfig {
        max_jobs: Some(1),
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    });
    let addr = addr.to_string();

    let retry = ClientConfig { retries: 2, ..ClientConfig::default() };
    for duration in [f64::NAN, -1.0, f64::INFINITY, 1e9] {
        let mut config = ExpConfig::quick();
        config.trace_duration_s = duration;
        let request = CampaignRequest::only(config, &["f1"]);
        match client::submit_with(&addr, &request, &retry) {
            Err(ClientError::Rejected { reason }) => {
                assert!(reason.contains("trace_duration_s"), "{duration}: {reason}");
            }
            Err(e) => panic!("{duration}: expected a non-retryable Reject, got: {e}"),
            Ok(_) => panic!("{duration}: an unrunnable duration was admitted"),
        }
    }
    let log = fs::read(state_dir.join("journal.log")).expect("read journal");
    assert_eq!(log, b"nvpjrnl1", "no refused request is journalled");

    let ok = CampaignRequest::only(ExpConfig::quick(), &["t1"]);
    let outcome = client::submit(&addr, &ok).expect("valid job after rejects");
    assert_eq!(outcome.result.tables.len(), 1);
    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!((stats.accepted, stats.completed, stats.rejected), (1, 1, 4));

    reset_sim_cache();
    let _ = fs::remove_dir_all(&state_dir);
}
