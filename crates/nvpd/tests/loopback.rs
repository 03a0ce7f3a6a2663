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
use nvp_experiments::record::{log_image, put_frame, put_str};
use nvp_experiments::wire::{
    content_digest, encode_request_bytes, encode_result_bytes, frame_bytes, read_frame,
    request_key, write_frame, Message, MAX_FRAME_BYTES, PROTOCOL,
};
use nvp_experiments::{
    client, reset_sim_cache, run_request, set_cache_dir, sim_cache_memo_stats, CampaignRequest,
    CampaignResult, ExpConfig, Table,
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

/// A stateful server restarted over its filled store, attached as
/// `nvpd serve --state-dir` attaches it, that only replays a job decodes
/// no outcome: the attach indexes the store, and the replay reads none
/// of it.
#[test]
fn a_restarted_server_that_only_replays_holds_no_outcome() {
    let _guard = cache_lock();
    let state_dir = scratch("restart");
    let store = state_dir.join("simcache");
    let mut request = CampaignRequest::only(ExpConfig::quick(), &["f3"]);
    request.seed = Some(13);
    let config = || ServerConfig {
        max_jobs: Some(1),
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    };

    reset_sim_cache();
    set_cache_dir(Some(&store)).expect("attach the server's store");
    let (addr, handle) = start_server(config());
    let first = client::submit(&addr.to_string(), &request).expect("cold submission");
    assert!(!first.replayed && first.result.cache.misses > 0, "the first server simulates");
    handle.join().expect("server thread").expect("server run");

    // The restart: a fresh index over the same store, as a new process
    // attaches it.
    reset_sim_cache();
    let indexed = set_cache_dir(Some(&store)).expect("re-attach the server's store");
    assert_eq!(indexed, first.result.cache.misses, "the store indexes every outcome");
    let (addr, handle) = start_server(config());
    let second = client::submit(&addr.to_string(), &request).expect("resubmission");
    assert!(second.replayed, "the restarted server replays");
    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!((stats.completed, stats.replayed), (1, 1));
    let memo = sim_cache_memo_stats();
    assert_eq!(memo.resident, 0, "a server that only replays holds no outcome");
    assert_eq!((memo.on_disk, memo.reloaded), (indexed, 0), "and reads no record");

    reset_sim_cache();
    let _ = set_cache_dir(None);
    let _ = fs::remove_dir_all(&state_dir);
}

#[test]
fn damaged_store_entries_rerun_and_an_intact_one_replays_its_stored_bytes() {
    use std::io::{Cursor, Read as _};
    let _guard = cache_lock();
    reset_sim_cache();
    let _ = set_cache_dir(None);
    let state_dir = scratch("store_entry");

    let mut request = CampaignRequest::only(ExpConfig::quick(), &["t1"]);
    request.seed = Some(17);
    let cfg = ServerConfig {
        max_jobs: Some(5),
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    };
    let (addr, handle) = start_server(cfg);
    let addr = addr.to_string();
    let first = client::submit(&addr, &request).expect("cold submission");
    assert!(!first.replayed);

    // A flipped bit, a truncation, then a flipped result byte under a
    // resealed record CRC, which only the stored digest catches: each
    // entry is quarantined and the job re-runs, storing a fresh entry
    // the next damage hits.
    let entry = state_dir.join("results").join(format!(
        "{}.res",
        nvp_experiments::wire::request_key(&request)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect::<String>()
    ));
    for what in ["bit flip", "truncation", "resealed flip"] {
        let mut bytes = fs::read(&entry).expect("stored entry");
        match what {
            "bit flip" => {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x10;
            }
            "truncation" => {
                bytes.pop();
            }
            _ => {
                // Magic (8), record length and CRC (4 + 4), the stored
                // digest (32), then the result encoding.
                let last = bytes.len() - 1;
                bytes[last] ^= 0x01;
                let crc = nvp_sim::crc32_bytes(&bytes[16..]);
                bytes[12..16].copy_from_slice(&crc.to_le_bytes());
            }
        }
        fs::write(&entry, &bytes).expect("damage the entry");
        let rerun = client::submit(&addr, &request).expect("submission over a damaged entry");
        assert!(!rerun.replayed, "a {what} entry was replayed");
        assert_eq!(rerun.result.tables, first.result.tables, "{what}: the re-run differs");
    }

    // The intact entry replays: its Result frame, read raw off the
    // socket, is the frame of the message it decodes to.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    write_frame(&mut stream, &Message::Submit(request.clone())).expect("submit");
    let Message::Accepted { job, .. } = read_frame(&mut stream).expect("accepted") else {
        panic!("expected an Accepted frame");
    };
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("result frame");
    let msg = read_frame(&mut Cursor::new(&raw)).expect("a decodable Result frame");
    let Message::Result { job: answered, replayed: true, result } = &msg else {
        panic!("expected a replayed Result frame, got {msg:?}");
    };
    assert_eq!((*answered, result), (job, &first.result));
    assert_eq!(raw, frame_bytes(&msg).expect("reframe"), "the replay sent other bytes");

    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!((stats.accepted, stats.completed, stats.replayed), (5, 5, 1));
    assert_eq!(stats.quarantined, 3, "every damaged entry was quarantined");

    reset_sim_cache();
    let _ = fs::remove_dir_all(&state_dir);
}

/// Reads one whole frame, header and payload, off a stream.
fn read_raw_frame(stream: &mut TcpStream) -> io::Result<Vec<u8>> {
    use io::Read;
    let mut frame = vec![0; 8];
    stream.read_exact(&mut frame)?;
    let len = u32::from_le_bytes(frame[..4].try_into().expect("four length bytes"));
    frame.resize(8 + len as usize, 0);
    stream.read_exact(&mut frame[8..])?;
    Ok(frame)
}

/// Relays one client connection to `server`: the client's bytes pass
/// whole, and of the server's, the `Accepted` frame and then the
/// `Result` frame, only its first half when `cut`, after which both
/// sides are closed.
fn relay(client: TcpStream, server: SocketAddr, cut: bool) {
    use io::Write;
    let mut upstream = TcpStream::connect(server).expect("connect to the server");
    let (mut from_client, mut to_server) = (
        client.try_clone().expect("clone the client socket"),
        upstream.try_clone().expect("clone the server socket"),
    );
    let forward = thread::spawn(move || io::copy(&mut from_client, &mut to_server));
    let mut to_client = client;
    let accepted = read_raw_frame(&mut upstream).expect("Accepted frame");
    to_client.write_all(&accepted).expect("relay Accepted");
    let result = read_raw_frame(&mut upstream).expect("Result frame");
    let sent = if cut { &result[..result.len() / 2] } else { &result[..] };
    to_client.write_all(sent).expect("relay the Result frame");
    let _ = to_client.shutdown(std::net::Shutdown::Both);
    let _ = upstream.shutdown(std::net::Shutdown::Both);
    let _ = forward.join().expect("client-to-server relay");
}

/// A connection cut inside the `Result` frame costs the client one
/// retry: a proxy passes the first connection's `Result` frame only up
/// to half its bytes, the client retries through it, and the retry is
/// answered from the result store with the in-process artifacts.
#[test]
fn a_result_frame_cut_mid_frame_is_retried_and_replayed() {
    let _guard = cache_lock();
    reset_sim_cache();
    let _ = set_cache_dir(None);
    let state_dir = scratch("proxy");
    let mut request = CampaignRequest::only(ExpConfig::quick(), &["f3"]);
    request.seed = Some(19);
    let local_dir = scratch("proxy_local");
    run_request(&request).expect("in-process run").write(&local_dir).expect("write local");
    reset_sim_cache();

    let (server, handle) = start_server(ServerConfig {
        max_jobs: Some(2),
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    });
    let proxy = std::net::TcpListener::bind("127.0.0.1:0").expect("bind the proxy");
    let proxy_addr = proxy.local_addr().expect("proxy address").to_string();
    let relays = thread::spawn(move || {
        for cut in [true, false] {
            let (client, _) = proxy.accept().expect("proxy accept");
            relay(client, server, cut);
        }
    });
    let outcome = client::submit(&proxy_addr, &request).expect("the retry is answered");
    relays.join().expect("proxy thread");
    let stats = handle.join().expect("server thread").expect("server run");

    assert!(outcome.replayed, "the retry is answered from the result store");
    assert_eq!((stats.accepted, stats.completed, stats.replayed), (2, 2, 1));
    let remote_dir = scratch("proxy_remote");
    outcome.result.write(&remote_dir).expect("write remote");
    assert_eq!(dir_bytes(&remote_dir), dir_bytes(&local_dir), "the retried artifacts differ");

    reset_sim_cache();
    for dir in [&state_dir, &local_dir, &remote_dir] {
        let _ = fs::remove_dir_all(dir);
    }
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
    // compacted to its 8-byte header and one 17-byte `Next job` record;
    // a restart replays nothing and keeps counting ids.
    let log = fs::read(state_dir.join("journal.log")).expect("read journal");
    assert_eq!((&log[..8], log.len()), (&b"nvpjrnl1"[..], 8 + 17), "header and next id only");
    let (_, recovery) =
        nvpd::journal::Journal::open(&state_dir, nvpd::faultplan::ServiceFaultPlan::none())
            .expect("reopen journal");
    assert!(recovery.pending.is_empty(), "the failed job is not replayed");
    assert_eq!(recovery.next_job, 2, "ids 0 and 1 are not handed out again");

    reset_sim_cache();
    let _ = fs::remove_dir_all(&state_dir);
}

/// A result over the frame bound draws one non-retryable `Reject`, and
/// its job is journalled as finished. Since a result carries its
/// profiles as specs, no job's result outgrows a frame, and the store
/// refuses any result a frame cannot carry, so the vehicle is an entry
/// an older server stored: one synthetic table whose encoding is exactly
/// `MAX_FRAME_BYTES`, which leaves no room for the `Result` frame's job
/// id and flags, written as that server wrote it. (`nvpd`'s unit test
/// of the same name covers a fresh result the store refuses.)
#[test]
fn a_result_over_the_frame_bound_is_rejected_once_and_journalled_as_finished() {
    let _guard = cache_lock();
    reset_sim_cache();
    let _ = set_cache_dir(None);
    let state_dir = scratch("oversize");
    let request = CampaignRequest::only(ExpConfig::quick(), &["t1"]);
    let with_cell = |cell: String| {
        let mut table = Table::new("T1", "one oversized cell", &["cell"]);
        table.push_row(vec![cell]);
        CampaignResult {
            tables: vec![table],
            profiles: Vec::new(),
            cache: Default::default(),
            sched: Default::default(),
            exec: Default::default(),
        }
    };
    let frame_bytes = MAX_FRAME_BYTES as usize;
    let fill = frame_bytes - encode_result_bytes(&with_cell(String::new())).len();
    let result = with_cell("9".repeat(fill));
    assert_eq!(encode_result_bytes(&result).len(), frame_bytes);
    {
        let (journal, _) =
            nvpd::journal::Journal::open(&state_dir, nvpd::faultplan::ServiceFaultPlan::none())
                .expect("open journal");
        assert!(
            journal.put_result(&request_key(&request), &result).is_err(),
            "the store refuses a result no frame can carry"
        );
    }
    // The older server's entry: the result-store magic, then one frame
    // holding the result's digest and its encoding.
    let bytes = encode_result_bytes(&result);
    let mut entry = content_digest(&bytes).to_vec();
    entry.extend_from_slice(&bytes);
    let image = log_image(b"nvprslt2", [&entry], MAX_FRAME_BYTES + 32).expect("frame the entry");
    let name: String = request_key(&request).iter().map(|b| format!("{b:02x}")).collect();
    fs::write(state_dir.join("results").join(format!("{name}.res")), image).expect("store it");
    let (addr, handle) = start_server(ServerConfig {
        max_jobs: Some(1),
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    });

    // With one job budgeted, a client retry would find the server gone.
    let cfg = ClientConfig { retries: 2, ..ClientConfig::default() };
    match client::submit_with(&addr.to_string(), &request, &cfg) {
        Err(ClientError::Rejected { reason }) => {
            assert!(reason.contains("job 0 failed") && reason.contains("frame bound"), "{reason}");
        }
        Err(e) => panic!("expected a non-retryable Reject, got: {e}"),
        Ok(_) => panic!("a result over the frame bound cannot be sent"),
    }
    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!((stats.accepted, stats.completed, stats.replayed), (1, 0, 1));

    let (_, recovery) =
        nvpd::journal::Journal::open(&state_dir, nvpd::faultplan::ServiceFaultPlan::none())
            .expect("reopen journal");
    assert!(recovery.pending.is_empty(), "the oversized job is not replayed");

    reset_sim_cache();
    let _ = fs::remove_dir_all(&state_dir);
}

/// A config no job can run — a trace duration that is NaN, negative,
/// infinite or longer than `MAX_TRACE_SAMPLES` samples — draws one non-retryable
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

/// Two workers overlap jobs over distinct profile seeds (and F12's
/// shared first profile). Each job's tables equal its solo in-process
/// run's, and once the server drains no trace sample and no decoded
/// stored outcome is left: a job lets go of what it read when it ends,
/// whatever other jobs are running.
#[test]
fn two_workers_run_overlapping_jobs_as_each_runs_alone() {
    let _guard = cache_lock();
    let requests: Vec<CampaignRequest> = (0..4)
        .map(|i| {
            let mut config = ExpConfig::quick();
            config.profile_seeds[1] = 6_100 + i;
            CampaignRequest::only(config, &["f2", "f3", "f12"])
        })
        .collect();
    reset_sim_cache();
    let _ = set_cache_dir(None);
    let solo: Vec<CampaignResult> =
        requests.iter().map(|req| run_request(req).expect("solo run")).collect();

    let state_dir = scratch("two_workers");
    reset_sim_cache();
    set_cache_dir(Some(&state_dir.join("simcache"))).expect("attach the server's store");
    let cfg = ServerConfig {
        workers: 2,
        max_jobs: Some(requests.len() as u64),
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    };
    let (addr, handle) = start_server(cfg);
    let addr = addr.to_string();
    let remote: Vec<_> = thread::scope(|scope| {
        let clients: Vec<_> =
            requests.iter().map(|req| scope.spawn(|| client::submit(&addr, req))).collect();
        clients.into_iter().map(|c| c.join().expect("client").expect("submission")).collect()
    });
    let stats = handle.join().expect("server thread").expect("server run");
    assert_eq!((stats.accepted, stats.completed, stats.rejected), (4, 4, 0));

    for ((req, alone), over) in requests.iter().zip(&solo).zip(&remote) {
        let seeds = &req.config.profile_seeds;
        assert!(!over.replayed, "profiles {seeds:?}: a fresh request runs");
        assert_eq!(
            over.result.tables, alone.tables,
            "profiles {seeds:?}: the overlapped job differs"
        );
    }
    let traces = nvp_experiments::trace_memo_stats();
    assert_eq!(traces.resident_bytes, 0, "a drained server holds no trace samples");
    let outcomes = sim_cache_memo_stats();
    assert_eq!(outcomes.resident, 0, "a drained server holds no stored outcome decoded");
    assert!(outcomes.on_disk > 0, "the jobs stored their outcomes");

    reset_sim_cache();
    let _ = set_cache_dir(None);
    let _ = fs::remove_dir_all(&state_dir);
}
