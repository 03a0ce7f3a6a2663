//! # nvpd — the resident campaign server
//!
//! A small TCP daemon that keeps the simulation cache warm across
//! campaigns. Clients (`repro --connect`,
//! [`nvp_experiments::client::submit`]) ship a
//! [`CampaignRequest`] over the [`nvp_experiments::wire`] protocol; the
//! server admits it into a bounded queue, streams an `Accepted` status
//! frame immediately, runs the job through the exact same
//! [`nvp_experiments::run_request`] path an in-process run uses, and
//! streams the `Result` frame back with per-job cache and scheduler
//! counter deltas. Because both transports share that one execution
//! path, the artifacts a client renders are byte-identical to a local
//! run — the golden digests pin both.
//!
//! Admission control rejects, with a `Reject` frame and a reason:
//!
//! * a full queue (back-pressure instead of unbounded buffering),
//! * unknown experiment ids (caught before the job occupies a slot),
//! * malformed or non-`Submit` opening frames, including requests
//!   encoded under another [`nvp_experiments::wire::PROTOCOL`].
//!
//! A job that fails or panics once admitted draws a non-retryable
//! `Reject` naming it; the worker survives and takes the next job.
//!
//! Duplicate submissions are deduplicated through the shared
//! content-addressed cache: the second identical job reports zero new
//! simulations in its `Result` frame.
//!
//! ## Crash consistency
//!
//! With `--state-dir`, the server is crash-consistent end to end: a
//! write-ahead [`journal`] records every admission *before* the
//! `Accepted` frame is sent, so a `kill -9` mid-campaign loses
//! nothing — the restarted server replays the journal, re-enqueues
//! admitted-but-not-completed jobs, and answers resubmissions of
//! already-finished requests from a content-addressed result store
//! (the `Result` frame carries `replayed: true` and costs zero new
//! simulations). `tests/crash_recovery.rs` builds each state a crash
//! can leave — every torn prefix of the journal, each crash class
//! restarted end to end, and one real `kill -9` — and proves recovery
//! byte-identical against an uninterrupted run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faultplan;
pub mod journal;

use std::collections::VecDeque;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use nvp_experiments::wire::{
    frame_bytes, read_frame, request_key, result_frame_bytes, write_frame, Message,
};
use nvp_experiments::{run_request, CampaignRequest, CampaignResult};

use journal::{Digest, Journal, PendingJob};

/// Bounded admission-queue capacity: a submit that finds the queue
/// full is rejected (retryably) rather than buffered without limit.
const QUEUE_CAPACITY: usize = 64;

/// Default bound on how long the acceptor waits for a client's
/// `Submit` frame ([`ServerConfig::submit_timeout`]), so one stalled
/// client cannot wedge admission for everyone else.
pub const DEFAULT_SUBMIT_TIMEOUT: Duration = Duration::from_secs(30);

/// Tuning knobs for [`Server::run`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing jobs. The default is 1, which keeps the
    /// per-job cache/scheduler counter deltas exact; each job's planned
    /// simulations still spread over the scheduler's worker budget
    /// (`NVP_THREADS` for the `nvpd` binary) in one flat run. More
    /// workers overlap whole jobs (a job that starts while another runs
    /// wide runs its simulations on its own thread) at the cost of
    /// approximate per-job counters. Memory is per job at any worker
    /// count, whatever the other workers run: a job holds a trace's
    /// samples only while a simulation on it is still to run (about one
    /// trace per scheduler worker), and the decoded stored outcomes it
    /// reads until it ends.
    pub workers: usize,
    /// Accept this many jobs, then drain the queue and return — the
    /// clean-shutdown path used by tests, benches, and CI smoke runs.
    /// `None` serves forever. Recovered (journal-replayed) jobs do not
    /// count against the budget, so `Some(0)` drains the journal and
    /// returns without accepting a connection.
    pub max_jobs: Option<u64>,
    /// Durable state directory for the write-ahead job journal and the
    /// content-addressed result store. `None` runs the server
    /// memoryless, exactly as before journalling existed.
    pub state_dir: Option<PathBuf>,
    /// How long the acceptor waits for each read of a client's
    /// `Submit` frame before dropping the connection.
    pub submit_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 1,
            max_jobs: None,
            state_dir: None,
            submit_timeout: DEFAULT_SUBMIT_TIMEOUT,
        }
    }
}

/// Counters reported by [`Server::run`] when it returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Jobs admitted into the queue (an `Accepted` frame was sent).
    pub accepted: u64,
    /// Submissions refused at admission (a `Reject` frame was sent).
    pub rejected: u64,
    /// Jobs that ran to completion (a `Result` frame was sent).
    pub completed: u64,
    /// Jobs re-enqueued from the journal at startup (admitted by a
    /// previous process, never completed).
    pub recovered: u64,
    /// Jobs answered from the content-addressed result store without
    /// re-simulation (idempotency-key hits).
    pub replayed: u64,
    /// Damaged files quarantined by the journal/result store this run
    /// (the simulation cache's own quarantines flow separately through
    /// the per-job cache stats).
    pub quarantined: u64,
}

/// An admitted job waiting for a worker: the request, its idempotency
/// key, and (for live submissions) the connection the result frame
/// goes back on. Journal-recovered jobs have no connection — their
/// value is the durable result-store entry the resubmitting client
/// will hit.
struct Job {
    id: u64,
    key: Digest,
    request: CampaignRequest,
    stream: Option<TcpStream>,
}

/// The bounded admission queue: a mutex-guarded deque with a condvar
/// for the workers. `closed` flips when the acceptor is done; workers
/// drain what remains and exit. Generic over the job type so the
/// admission bound is testable without sockets.
struct Queue<T> {
    state: Mutex<(VecDeque<T>, bool)>,
    ready: Condvar,
    capacity: usize,
}

impl<T> Queue<T> {
    fn new(capacity: usize) -> Queue<T> {
        Queue { state: Mutex::new((VecDeque::new(), false)), ready: Condvar::new(), capacity }
    }

    /// The current queue depth if a slot is free, `None` when full.
    /// The acceptor is the *sole* pusher, so a free slot observed here
    /// is still free at the matching [`push`](Self::push) — workers
    /// only ever shrink the queue.
    fn depth_if_free(&self) -> Option<u32> {
        let state = self.state.lock().expect("queue lock");
        if state.0.len() >= self.capacity {
            None
        } else {
            Some(u32::try_from(state.0.len()).unwrap_or(u32::MAX))
        }
    }

    /// Enqueues an admitted job and wakes a worker. Callers must have
    /// observed a free slot via [`depth_if_free`](Self::depth_if_free)
    /// on the same (sole-pusher) thread.
    fn push(&self, job: T) {
        let mut state = self.state.lock().expect("queue lock");
        state.0.push_back(job);
        drop(state);
        self.ready.notify_one();
    }

    /// Blocks for the next job; `None` means the queue is closed and
    /// drained, so the worker should exit.
    fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(job) = state.0.pop_front() {
                return Some(job);
            }
            if state.1 {
                return None;
            }
            state = self.ready.wait(state).expect("queue lock");
        }
    }

    /// Marks the queue closed and wakes every worker to drain it.
    fn close(&self) {
        let mut state = self.state.lock().expect("queue lock");
        state.1 = true;
        drop(state);
        self.ready.notify_all();
    }
}

/// A bound campaign server. [`bind`](Server::bind) it, read the
/// ephemeral port back with [`local_addr`](Server::local_addr), then
/// [`run`](Server::run) it (typically on a dedicated thread).
pub struct Server {
    listener: TcpListener,
}

impl Server {
    /// Binds the listening socket (e.g. `127.0.0.1:0` for an ephemeral
    /// port).
    ///
    /// # Errors
    ///
    /// Any socket bind error passes through.
    pub fn bind(addr: &str) -> io::Result<Server> {
        Ok(Server { listener: TcpListener::bind(addr)? })
    }

    /// The bound address, including the kernel-assigned port when bound
    /// to port 0.
    ///
    /// # Errors
    ///
    /// Any socket introspection error passes through.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until `cfg.max_jobs` jobs have been accepted
    /// (forever when `None`; the budget is checked before each accept,
    /// so `Some(0)` accepts nothing), then drains the queue, joins the
    /// workers, and returns the counters.
    ///
    /// With [`ServerConfig::state_dir`] set, the write-ahead journal
    /// is opened (and replayed) first: recovered jobs are enqueued
    /// *before* the accept loop starts, so — with the default single
    /// worker — recovery completes ahead of any newly admitted job.
    ///
    /// # Errors
    ///
    /// Fatal listener errors pass through, as do state-directory
    /// creation failures; per-connection I/O errors (client gone,
    /// malformed frame) and damaged-but-quarantinable state files are
    /// absorbed into the counters.
    pub fn run(&self, cfg: &ServerConfig) -> io::Result<ServerStats> {
        let queue = Queue::new(QUEUE_CAPACITY);
        let workers = cfg.workers.max(1);
        let mut stats = ServerStats::default();
        let counters = Counters::default();

        let journal = match &cfg.state_dir {
            Some(dir) => {
                let (journal, recovery) = Journal::open(dir, faultplan::ServiceFaultPlan::none())?;
                stats.recovered = recovery.pending.len() as u64;
                if !recovery.pending.is_empty() {
                    eprintln!(
                        "nvpd: journal replay — re-enqueueing {} unfinished job(s)",
                        recovery.pending.len()
                    );
                }
                for PendingJob { id, key, request } in recovery.pending {
                    queue.push(Job { id, key, request, stream: None });
                }
                Some((journal, recovery.next_job))
            }
            None => None,
        };
        let (journal, first_id) = match journal {
            Some((j, next)) => (Some(j), next),
            None => (None, 0),
        };
        let journal = journal.as_ref();

        std::thread::scope(|scope| -> io::Result<()> {
            for _ in 0..workers {
                scope.spawn(|| {
                    while let Some(job) = queue.pop() {
                        run_job(job, journal, &counters);
                    }
                });
            }

            let mut next_job: u64 = first_id;
            while cfg.max_jobs.is_none_or(|max| stats.accepted < max) {
                let stream = match self.listener.accept() {
                    Ok((s, _)) => s,
                    // Transient accept errors (e.g. a connection reset
                    // before accept) should not take the server down.
                    Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                    Err(e) => {
                        queue.close();
                        return Err(e);
                    }
                };
                match admit(stream, next_job, &queue, journal, cfg.submit_timeout) {
                    Admission::Accepted => {
                        next_job += 1;
                        stats.accepted += 1;
                    }
                    Admission::Rejected => stats.rejected += 1,
                    Admission::Dropped => {}
                }
            }
            queue.close();
            Ok(())
        })?;

        stats.completed = counters.completed.load(Ordering::Relaxed);
        stats.replayed = counters.replayed.load(Ordering::Relaxed);
        if let Some(j) = journal {
            stats.quarantined = j.quarantined_total();
        }
        Ok(stats)
    }
}

/// Worker-side counters, shared across the scope by reference.
#[derive(Debug, Default)]
struct Counters {
    completed: AtomicU64,
    replayed: AtomicU64,
}

/// What became of one incoming connection at admission time.
enum Admission {
    /// Job queued; `Accepted` frame sent.
    Accepted,
    /// `Reject` frame sent (or attempted) with a reason.
    Rejected,
    /// Connection unusable (timeout, framing error, client gone) —
    /// nothing was admitted and no reject could be delivered.
    Dropped,
}

/// Reads one `Submit` frame off a fresh connection and either queues
/// the job (streaming `Accepted`) or answers `Reject` with a reason.
///
/// Write-ahead discipline: with a journal attached, the admission is
/// made durable *before* the `Accepted` frame is sent — the server
/// never promises work it could forget.
fn admit(
    mut stream: TcpStream,
    id: u64,
    queue: &Queue<Job>,
    journal: Option<&Journal>,
    submit_timeout: Duration,
) -> Admission {
    // A stalled or hostile client must not wedge the acceptor.
    if stream.set_read_timeout(Some(submit_timeout)).is_err() {
        return Admission::Dropped;
    }
    let request = match read_frame(&mut stream) {
        Ok(Message::Submit(req)) => req,
        Ok(_) => return reject(stream, "expected a Submit frame to open the connection", false),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            return reject(stream, &format!("malformed frame: {e}"), false);
        }
        Err(_) => return Admission::Dropped,
    };
    // Catch unknown experiment ids before the job occupies a queue slot.
    if let Err(e) = request.resolve() {
        return reject(stream, &e.to_string(), false);
    }
    let Some(depth) = queue.depth_if_free() else {
        // The one *retryable* rejection: pressure, not a bad request.
        return reject(stream, "admission queue full; retry later", true);
    };
    let key = request_key(&request);
    if let Some(j) = journal {
        if let Err(e) = j.admitted(id, &key, &request) {
            // Degrade rather than refuse: the job still runs, it just
            // would not survive a crash between here and completion.
            eprintln!("nvpd: warning: journal append failed ({e}); job {id} runs unjournalled");
        }
    }
    // Stream the status frame now, then hand the connection to a
    // worker for the Result frame.
    if write_frame(&mut stream, &Message::Accepted { job: id, queued: depth }).is_err() {
        return Admission::Dropped;
    }
    queue.push(Job { id, key, request, stream: Some(stream) });
    Admission::Accepted
}

/// Sends a `Reject` frame (best effort) and reports the refusal.
/// `retryable` tells the client whether resubmitting later can help.
fn reject(mut stream: TcpStream, reason: &str, retryable: bool) -> Admission {
    let _ = write_frame(&mut stream, &Message::Reject { reason: reason.to_string(), retryable });
    Admission::Rejected
}

/// Sends a finished job's `Result` frame. A frame the bound refused
/// draws a non-retryable `Reject` instead: a retry would only rerun
/// the job. A client that has gone away gets nothing; the work still
/// warmed the cache and the result store, so its retry is a replay.
fn deliver(mut stream: TcpStream, id: u64, frame: io::Result<Vec<u8>>, counters: &Counters) {
    match frame.and_then(|frame| stream.write_all(&frame)) {
        Ok(()) => {
            counters.completed.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) if e.kind() == io::ErrorKind::InvalidData => fail(stream, id, &e),
        Err(_) => {}
    }
}

/// Sends the non-retryable `Reject` of a job that failed (best effort).
fn fail(mut stream: TcpStream, id: u64, e: &io::Error) {
    let msg = Message::Reject { reason: format!("job {id} failed: {e}"), retryable: false };
    let _ = write_frame(&mut stream, &msg);
}

/// Runs one admitted job and streams its `Result` (or failure
/// `Reject`) frame.
///
/// With a journal attached the job walks the recovery state machine:
/// an idempotency-key hit in the result store answers immediately
/// (`replayed: true`, zero new simulations) with the stored digest and
/// the stored result bytes, neither hashed nor decoded; otherwise the
/// job runs, its result is stored content-addressed, and the
/// `Completed` transition (with the stored digest) is journalled —
/// compacting the log when it was the last live entry.
///
/// A job that fails or panics (a config its builders cannot run), or
/// whose result is too big for one frame, draws a non-retryable
/// `Reject` and is journalled as finished with the all-zero digest, so
/// a restart does not replay it; the worker then takes the next job.
/// Unwinding is safe here: memo slots, sim-cache keys and the job's
/// trace scope all release on unwind.
fn run_job(job: Job, journal: Option<&Journal>, counters: &Counters) {
    let Job { id, key, request, stream } = job;

    // Idempotent resubmission: answer from the durable result store.
    if let Some(j) = journal {
        if let Some((digest, result_bytes)) = j.lookup_encoded(&key) {
            if let Err(e) = j.completed(id, &digest) {
                eprintln!("nvpd: warning: journal completion failed for job {id}: {e}");
            }
            counters.replayed.fetch_add(1, Ordering::Relaxed);
            if let Some(stream) = stream {
                deliver(stream, id, result_frame_bytes(id, true, &result_bytes), counters);
            }
            return;
        }
        if let Err(e) = j.started(id) {
            eprintln!("nvpd: warning: journal start failed for job {id}: {e}");
        }
    }

    let outcome =
        panic::catch_unwind(AssertUnwindSafe(|| run_request(&request))).unwrap_or_else(|payload| {
            Err(io::Error::other(format!("panicked: {}", message(&*payload))))
        });
    finish(id, &key, outcome, stream, journal, counters);
}

/// Stores, journals and answers a job that ran: a result goes to the
/// result store and its `Completed` record carries the stored digest;
/// a failure, or a result the store refuses, is journalled as finished
/// with the all-zero digest. The client gets the `Result` frame, or a
/// non-retryable `Reject` when the job failed or its frame is over the
/// bound.
fn finish(
    id: u64,
    key: &Digest,
    outcome: io::Result<CampaignResult>,
    stream: Option<TcpStream>,
    journal: Option<&Journal>,
    counters: &Counters,
) {
    match outcome {
        Ok(result) => {
            if let Some(j) = journal {
                // A result the store refuses (one over the frame bound)
                // is still a finished job: journal it with the all-zero
                // digest, "nothing stored", so no restart reruns it.
                let digest = j.put_result(key, &result).unwrap_or_else(|e| {
                    eprintln!("nvpd: warning: result store put failed for job {id}: {e}");
                    [0; 32]
                });
                if let Err(e) = j.completed(id, &digest) {
                    eprintln!("nvpd: warning: journal completion failed for job {id}: {e}");
                }
            }
            if let Some(stream) = stream {
                let msg = Message::Result { job: id, replayed: false, result };
                deliver(stream, id, frame_bytes(&msg), counters);
            }
        }
        Err(e) => {
            if let Some(j) = journal {
                if let Err(e) = j.completed(id, &[0; 32]) {
                    eprintln!("nvpd: warning: journal completion failed for job {id}: {e}");
                }
            }
            if let Some(stream) = stream {
                fail(stream, id, &e);
            }
        }
    }
}

/// The text a panic carried, when it carried text.
fn message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-text panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_bound_refuses_when_full_and_depth_counts_waiters() {
        let q: Queue<u64> = Queue::new(2);
        assert_eq!(q.depth_if_free(), Some(0), "empty queue admits at depth 0");
        q.push(1);
        assert_eq!(q.depth_if_free(), Some(1), "one job ahead");
        q.push(2);
        assert_eq!(q.depth_if_free(), None, "at capacity: admission refused");
        assert_eq!(q.pop(), Some(1), "FIFO order");
        assert_eq!(q.depth_if_free(), Some(1), "slot freed by the pop");
    }

    #[test]
    fn closed_queue_drains_then_signals_exit() {
        let q: Queue<u64> = Queue::new(4);
        q.push(7);
        q.push(8);
        q.close();
        assert_eq!(q.pop(), Some(7), "close drains queued jobs first");
        assert_eq!(q.pop(), Some(8));
        assert_eq!(q.pop(), None, "then tells workers to exit");
    }

    #[test]
    fn close_wakes_a_blocked_worker() {
        let q: Queue<u64> = Queue::new(1);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| q.pop());
            q.close();
            assert_eq!(waiter.join().expect("worker thread"), None);
        });
    }

    /// No job's result outgrows a frame since a result carries its
    /// profiles as specs, so a synthetic one-cell table stands in: a
    /// result over the frame bound draws one non-retryable `Reject`,
    /// the store refuses it, and the job is journalled as finished, so
    /// a restart does not run it again.
    #[test]
    fn a_result_over_the_frame_bound_is_rejected_once_and_journalled_as_finished() {
        use nvp_experiments::wire::{read_frame, MAX_FRAME_BYTES};
        use nvp_experiments::{ExpConfig, Table};
        use std::net::TcpListener;

        let dir = std::env::temp_dir().join(format!("nvpd_oversize_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, _) = Journal::open(&dir, faultplan::ServiceFaultPlan::none()).unwrap();
        let request = CampaignRequest::only(ExpConfig::quick(), &["t1"]);
        let key = request_key(&request);
        journal.admitted(0, &key, &request).unwrap();
        let mut table = Table::new("T1", "one oversized cell", &["cell"]);
        table.push_row(vec!["9".repeat(MAX_FRAME_BYTES as usize)]);
        let result = CampaignResult {
            tables: vec![table],
            profiles: Vec::new(),
            cache: Default::default(),
            sched: Default::default(),
            exec: Default::default(),
        };

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let counters = Counters::default();
        finish(0, &key, Ok(result), Some(server_side), Some(&journal), &counters);

        match read_frame(&mut client).unwrap() {
            Message::Reject { reason, retryable: false } => {
                assert!(
                    reason.contains("job 0 failed") && reason.contains("frame bound"),
                    "{reason}"
                );
            }
            other => panic!("expected a non-retryable Reject, got {other:?}"),
        }
        let mut rest = Vec::new();
        io::Read::read_to_end(&mut client, &mut rest).unwrap();
        assert!(rest.is_empty(), "one frame, then the connection closes");
        assert_eq!(counters.completed.load(Ordering::Relaxed), 0);
        assert_eq!(journal.lookup_encoded(&key), None, "the store refused the result");
        drop(journal);
        let (_, recovery) = Journal::open(&dir, faultplan::ServiceFaultPlan::none()).unwrap();
        assert!(recovery.pending.is_empty(), "the oversized job is not replayed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_config_is_single_worker_for_exact_per_job_counters() {
        let cfg = ServerConfig::default();
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.max_jobs, None);
    }
}
