//! Write-ahead job journal and content-addressed result store.
//!
//! The source paper's nonvolatile processor survives power failure by
//! checkpointing to NVM and resuming exactly where it left off; this
//! module gives the campaign *server* the same property. Before a job
//! is promised to a client (`Accepted` frame), it is made durable in an
//! append-only journal under `--state-dir`; after a crash, a restarted
//! server replays the journal, re-enqueues every job that was admitted
//! but not completed, and serves already-finished work straight from a
//! content-addressed result store without re-simulating.
//!
//! ## Journal format
//!
//! One file, `journal.log`, using the exact record-framing idiom of
//! the simulation cache's shard logs (`nvp_experiments::persist`) and
//! the checkpoint subsystem's CRC ([`nvp_sim::crc32_bytes`]): an
//! 8-byte magic `b"nvpjrnl1"`, then length-prefixed, CRC-framed
//! records:
//!
//! ```text
//! [len: u32 le] [crc32: u32 le] [payload: len bytes]
//! payload = tag (1 byte) ++ body
//!   tag 1 Admitted:  job u64 ++ key 32B ++ req_len u32 ++ request wire bytes
//!   tag 2 Started:   job u64
//!   tag 3 Completed: job u64 ++ result digest 32B
//! ```
//!
//! `key` is the request's content-addressed idempotency key
//! ([`nvp_experiments::wire::request_key`]); the `Completed` digest is
//! the SHA-256 of the stored result encoding, tying the log to the
//! store.
//!
//! ## Recovery state machine
//!
//! A journal entry moves `Admitted` → `Started` → `Completed`. On
//! open, the scan folds records into a per-job state; every job that
//! never reached `Completed` is **pending** and gets re-enqueued
//! (whether or not it `Started` — jobs are idempotent through the
//! simulation cache, so restarting a half-run job is merely warm). The
//! journal is then **compacted**: rewritten (tmp + atomic rename) to
//! hold exactly the pending `Admitted` records. Compaction also runs
//! at runtime whenever the live set empties.
//!
//! A torn tail record — the shape an injected or real crash leaves —
//! is dropped and counted. Any damage beyond that (bad magic, corrupt
//! interior record) additionally **quarantines** the journal: the file
//! is copied aside as `journal.log.quarantine[.N]` before the rewrite,
//! so the evidence survives while the server carries on with what it
//! could salvage. The store never aborts the server over a bad file.
//!
//! ## Result store
//!
//! `results/<key-hex>.res` holds the canonical wire encoding
//! ([`nvp_experiments::wire::encode_result_bytes`]) of each completed
//! job's values, written tmp-then-rename so readers never observe a
//! half file. Lookups verify decodability; a corrupt entry is
//! quarantined (renamed) and reported as a miss, which simply re-runs
//! the job against the warm simulation cache.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use nvp_experiments::wire::{
    content_digest, decode_request_bytes, decode_result_bytes, encode_request_bytes,
    encode_result_bytes,
};
use nvp_experiments::{CampaignRequest, CampaignResult};
use nvp_sim::crc32_bytes;

use crate::faultplan::{AppendAction, ServiceFaultPlan, CRASH_EXIT_CODE};

/// Journal-file magic: `nvpjrnl` + schema version digit.
const MAGIC: &[u8; 8] = b"nvpjrnl1";

/// Record tags.
const TAG_ADMITTED: u8 = 1;
const TAG_STARTED: u8 = 2;
const TAG_COMPLETED: u8 = 3;

/// Upper bound a record length prefix may claim before the scan stops
/// trusting the framing (a request is a few hundred bytes at most).
const MAX_RECORD_BYTES: u32 = 1 << 20;

/// A 256-bit content digest (idempotency key or result digest).
pub type Digest = [u8; 32];

/// A journalled job that must be re-run (admitted, never completed).
#[derive(Debug, Clone, PartialEq)]
pub struct PendingJob {
    /// The job id the original server assigned (ids stay stable across
    /// restarts so clients' logs line up).
    pub id: u64,
    /// The request's content-addressed idempotency key.
    pub key: Digest,
    /// The request itself, decoded from the journalled wire bytes.
    pub request: CampaignRequest,
}

/// What [`Journal::open`] recovered from a state directory.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Jobs to re-enqueue, in admission order.
    pub pending: Vec<PendingJob>,
    /// The next job id to assign (one past the highest journalled id).
    pub next_job: u64,
    /// Records dropped during the scan (torn tail, corrupt interior).
    pub skipped: u64,
    /// Files quarantined while opening (damaged journal, undecodable
    /// results).
    pub quarantined: u64,
}

/// Per-job fold state during the recovery scan.
#[derive(Debug)]
struct ScanEntry {
    key: Digest,
    request_bytes: Vec<u8>,
    completed: bool,
}

/// Appendable journal state guarded by one lock: the append handle and
/// the live-entry count that triggers compaction.
#[derive(Debug)]
struct Inner {
    file: fs::File,
    /// Admitted-but-not-completed entries in the current journal file.
    live: u64,
}

/// An open write-ahead journal plus its content-addressed result store.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    results_dir: PathBuf,
    faults: ServiceFaultPlan,
    inner: Mutex<Inner>,
    quarantined: AtomicU64,
    compactions: AtomicU64,
}

impl Journal {
    /// Opens (creating if missing) the journal under `state_dir`,
    /// replays it, compacts it down to the pending set, and returns
    /// the recovery outcome.
    ///
    /// # Errors
    ///
    /// Directory/file creation failures pass through; *content* damage
    /// never errors — it is quarantined and counted instead.
    pub fn open(state_dir: &Path, faults: ServiceFaultPlan) -> io::Result<(Journal, Recovery)> {
        let results_dir = state_dir.join("results");
        fs::create_dir_all(&results_dir)?;
        let path = state_dir.join("journal.log");

        let mut recovery = Recovery::default();
        let mut trustworthy = true;
        match fs::read(&path) {
            Ok(bytes) => scan(&bytes, &mut recovery, &mut trustworthy),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(_) => {
                recovery.skipped += 1;
                trustworthy = false;
            }
        }
        if !trustworthy || recovery.skipped > 0 {
            // Keep the evidence. `fs::copy` (not rename) so a crash
            // during the rewrite below still leaves `journal.log` to
            // rescan — recovery must never lose admitted jobs.
            if path.exists() && quarantine_copy(&path).is_ok() {
                recovery.quarantined += 1;
                eprintln!(
                    "nvpd: journal {} damaged ({} record(s) dropped); quarantined a copy",
                    path.display(),
                    recovery.skipped
                );
            }
        }

        let journal = Journal {
            path,
            results_dir,
            faults,
            // Placeholder handle; `rewrite` below installs the real one.
            inner: Mutex::new(Inner {
                file: fs::File::create(state_dir.join(".journal.init"))?,
                live: 0,
            }),
            quarantined: AtomicU64::new(recovery.quarantined),
            compactions: AtomicU64::new(0),
        };
        let _ = fs::remove_file(state_dir.join(".journal.init"));
        // Startup compaction: the new journal holds exactly the
        // pending admissions (tmp + atomic rename, so a crash here
        // leaves the old journal intact).
        journal.rewrite(&recovery.pending)?;
        Ok((journal, recovery))
    }

    /// Journals an admission — MUST be durable before the `Accepted`
    /// frame is sent (write-ahead: promise only what is logged).
    ///
    /// # Errors
    ///
    /// Append I/O errors pass through (callers degrade gracefully).
    pub fn admitted(&self, job: u64, key: &Digest, request: &CampaignRequest) -> io::Result<()> {
        let req_bytes = encode_request_bytes(request);
        let mut body = Vec::with_capacity(1 + 8 + 32 + 4 + req_bytes.len());
        body.push(TAG_ADMITTED);
        body.extend_from_slice(&job.to_le_bytes());
        body.extend_from_slice(key);
        body.extend_from_slice(&(req_bytes.len() as u32).to_le_bytes());
        body.extend_from_slice(&req_bytes);
        let mut inner = self.lock();
        inner.live += 1;
        self.append_record(&mut inner, &body)
    }

    /// Journals the start-of-execution transition.
    ///
    /// # Errors
    ///
    /// Append I/O errors pass through.
    pub fn started(&self, job: u64) -> io::Result<()> {
        let mut body = Vec::with_capacity(9);
        body.push(TAG_STARTED);
        body.extend_from_slice(&job.to_le_bytes());
        let mut inner = self.lock();
        self.append_record(&mut inner, &body)
    }

    /// Journals completion (with the stored result's digest) and
    /// compacts the journal once no live entries remain.
    ///
    /// # Errors
    ///
    /// Append I/O errors pass through.
    pub fn completed(&self, job: u64, digest: &Digest) -> io::Result<()> {
        let mut body = Vec::with_capacity(1 + 8 + 32);
        body.push(TAG_COMPLETED);
        body.extend_from_slice(&job.to_le_bytes());
        body.extend_from_slice(digest);
        let mut inner = self.lock();
        self.append_record(&mut inner, &body)?;
        inner.live = inner.live.saturating_sub(1);
        if inner.live == 0 {
            // Everything journalled is done: shrink the log to its
            // header so restarts replay nothing.
            self.compact(&mut inner)?;
        }
        Ok(())
    }

    /// Stores a completed result under its request's idempotency key
    /// (tmp + atomic rename) and returns the content digest of the
    /// stored bytes.
    ///
    /// # Errors
    ///
    /// Store I/O errors pass through.
    pub fn put_result(&self, key: &Digest, result: &CampaignResult) -> io::Result<Digest> {
        let bytes = encode_result_bytes(result);
        let digest = content_digest(&bytes);
        let path = self.result_path(key);
        if !path.exists() {
            let tmp = path.with_extension("res.tmp");
            fs::write(&tmp, &bytes)?;
            fs::rename(&tmp, &path)?;
        }
        Ok(digest)
    }

    /// Fetches a completed result by idempotency key, or `None` on a
    /// miss. An undecodable entry is quarantined (renamed aside,
    /// counted) and reported as a miss — degradation, not an abort.
    #[must_use]
    pub fn lookup_result(&self, key: &Digest) -> Option<CampaignResult> {
        let path = self.result_path(key);
        let bytes = fs::read(&path).ok()?;
        match decode_result_bytes(&bytes) {
            Ok(result) => Some(result),
            Err(_) => {
                if quarantine_rename(&path).is_ok() {
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "nvpd: result store entry {} undecodable; quarantined",
                        path.display()
                    );
                }
                None
            }
        }
    }

    /// Files this journal has quarantined so far (including at open).
    #[must_use]
    pub fn quarantined_total(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Completed-set compactions performed (startup rewrite excluded).
    #[must_use]
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn result_path(&self, key: &Digest) -> PathBuf {
        self.results_dir.join(format!("{}.res", hex(key)))
    }

    /// Frames `body` and appends it through the fault plan: a planned
    /// tear writes a prefix and aborts the process, leaving exactly the
    /// torn-tail shape recovery must tolerate.
    fn append_record(&self, inner: &mut Inner, body: &[u8]) -> io::Result<()> {
        let mut record = Vec::with_capacity(8 + body.len());
        record.extend_from_slice(&(body.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32_bytes(body).to_le_bytes());
        record.extend_from_slice(body);
        match self.faults.journal_append_action(record.len()) {
            AppendAction::Full => inner.file.write_all(&record),
            AppendAction::TearAndCrash(bytes) => {
                let _ = inner.file.write_all(&record[..bytes]);
                let _ = inner.file.sync_all();
                eprintln!("nvpd: injected crash (torn append, {bytes} of {} bytes)", record.len());
                std::process::exit(CRASH_EXIT_CODE);
            }
            AppendAction::CrashAfter => {
                inner.file.write_all(&record)?;
                let _ = inner.file.sync_all();
                eprintln!("nvpd: injected crash (after append)");
                std::process::exit(CRASH_EXIT_CODE);
            }
        }
    }

    /// Rewrites the journal to `MAGIC` + one `Admitted` record per
    /// pending job, atomically, and installs the fresh append handle.
    fn rewrite(&self, pending: &[PendingJob]) -> io::Result<()> {
        let mut inner = self.lock();
        let tmp = self.path.with_extension("log.tmp");
        {
            let mut out = Vec::new();
            out.extend_from_slice(MAGIC);
            for job in pending {
                let req_bytes = encode_request_bytes(&job.request);
                let mut body = Vec::with_capacity(1 + 8 + 32 + 4 + req_bytes.len());
                body.push(TAG_ADMITTED);
                body.extend_from_slice(&job.id.to_le_bytes());
                body.extend_from_slice(&job.key);
                body.extend_from_slice(&(req_bytes.len() as u32).to_le_bytes());
                body.extend_from_slice(&req_bytes);
                out.extend_from_slice(&(body.len() as u32).to_le_bytes());
                out.extend_from_slice(&crc32_bytes(&body).to_le_bytes());
                out.extend_from_slice(&body);
            }
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&out)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &self.path)?;
        inner.file = fs::OpenOptions::new().append(true).open(&self.path)?;
        inner.live = pending.len() as u64;
        Ok(())
    }

    /// Runtime compaction: every journalled entry is completed, so the
    /// log shrinks back to its header.
    fn compact(&self, inner: &mut Inner) -> io::Result<()> {
        let tmp = self.path.with_extension("log.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(MAGIC)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &self.path)?;
        inner.file = fs::OpenOptions::new().append(true).open(&self.path)?;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Folds journal bytes into a [`Recovery`]; `trustworthy` flips false
/// when the damage goes beyond an ordinary torn tail.
fn scan(bytes: &[u8], recovery: &mut Recovery, trustworthy: &mut bool) {
    use std::collections::BTreeMap;
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        if !bytes.is_empty() {
            recovery.skipped += 1;
            *trustworthy = false;
        }
        return;
    }
    let mut entries: BTreeMap<u64, ScanEntry> = BTreeMap::new();
    let mut off = MAGIC.len();
    while off < bytes.len() {
        let Some(header) = bytes.get(off..off + 8) else {
            recovery.skipped += 1; // torn length/CRC prefix at the tail
            break;
        };
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        if len > MAX_RECORD_BYTES {
            recovery.skipped += 1;
            *trustworthy = false; // implausible framing: stop trusting
            break;
        }
        let Some(body) = bytes.get(off + 8..off + 8 + len as usize) else {
            recovery.skipped += 1; // torn tail record
            break;
        };
        off += 8 + len as usize;
        if crc32_bytes(body) != crc {
            recovery.skipped += 1;
            // Interior corruption (the tail would have been truncated):
            // framing still resyncs on the next length prefix, but the
            // file deserves quarantine.
            *trustworthy = false;
            continue;
        }
        if decode_record(body, &mut entries).is_none() {
            recovery.skipped += 1;
            *trustworthy = false;
        }
    }
    recovery.next_job = entries.keys().next_back().map_or(0, |max| max + 1);
    for (id, entry) in entries {
        if entry.completed {
            continue;
        }
        match decode_request_bytes(&entry.request_bytes) {
            Ok(request) => {
                recovery.pending.push(PendingJob { id, key: entry.key, request });
            }
            Err(_) => {
                // CRC-valid but undecodable request (e.g. journalled by
                // a different protocol revision): drop it — the client
                // will resubmit under the current protocol.
                recovery.skipped += 1;
                *trustworthy = false;
            }
        }
    }
}

/// Applies one CRC-valid record body to the fold state; `None` marks a
/// malformed body.
fn decode_record(
    body: &[u8],
    entries: &mut std::collections::BTreeMap<u64, ScanEntry>,
) -> Option<()> {
    let (&tag, rest) = body.split_first()?;
    match tag {
        TAG_ADMITTED => {
            if rest.len() < 8 + 32 + 4 {
                return None;
            }
            let job = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
            let mut key = [0u8; 32];
            key.copy_from_slice(&rest[8..40]);
            let req_len = u32::from_le_bytes(rest[40..44].try_into().expect("4 bytes")) as usize;
            let req = rest.get(44..44 + req_len)?;
            if rest.len() != 44 + req_len {
                return None; // trailing bytes
            }
            entries.insert(job, ScanEntry { key, request_bytes: req.to_vec(), completed: false });
            Some(())
        }
        TAG_STARTED => {
            let _job: [u8; 8] = rest.try_into().ok()?;
            // Started is informational; recovery re-runs regardless.
            Some(())
        }
        TAG_COMPLETED => {
            if rest.len() != 8 + 32 {
                return None;
            }
            let job = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
            if let Some(entry) = entries.get_mut(&job) {
                entry.completed = true;
            }
            Some(())
        }
        _ => None,
    }
}

/// Copies a damaged journal to the first free `.quarantine[.N]` name
/// (copy, not rename — see [`Journal::open`]).
fn quarantine_copy(path: &Path) -> io::Result<PathBuf> {
    let target = free_quarantine_name(path)?;
    fs::copy(path, &target)?;
    Ok(target)
}

/// Renames a damaged result-store entry to its quarantine name.
fn quarantine_rename(path: &Path) -> io::Result<PathBuf> {
    let target = free_quarantine_name(path)?;
    fs::rename(path, &target)?;
    Ok(target)
}

fn free_quarantine_name(path: &Path) -> io::Result<PathBuf> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::other("path has no utf-8 file name"))?;
    for n in 1..=1000u32 {
        let candidate = if n == 1 {
            dir.join(format!("{name}.quarantine"))
        } else {
            dir.join(format!("{name}.quarantine.{n}"))
        };
        if !candidate.exists() {
            return Ok(candidate);
        }
    }
    Err(io::Error::other("no free quarantine name after 1000 attempts"))
}

/// Lowercase hex of a digest (result-store file names).
fn hex(digest: &Digest) -> String {
    use std::fmt::Write as _;
    digest.iter().fold(String::with_capacity(64), |mut s, b| {
        write!(s, "{b:02x}").expect("write to String");
        s
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_experiments::wire::request_key;
    use nvp_experiments::ExpConfig;

    fn unique_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicUsize;
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("{tag}_{}_{n}", std::process::id()))
    }

    fn request(seed: u64) -> CampaignRequest {
        let mut req = CampaignRequest::all(ExpConfig::quick());
        req.only = Some(vec!["t1".to_string()]);
        req.seed = Some(seed);
        req
    }

    #[test]
    fn fresh_journal_recovers_nothing() {
        let dir = unique_dir("nvpd_journal_fresh");
        let (journal, recovery) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        assert!(recovery.pending.is_empty());
        assert_eq!(recovery.next_job, 0);
        assert_eq!(recovery.skipped, 0);
        assert_eq!(recovery.quarantined, 0);
        assert_eq!(journal.quarantined_total(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn admitted_without_completed_is_reenqueued_with_stable_ids() {
        let dir = unique_dir("nvpd_journal_pending");
        let (journal, _) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        let (ra, rb) = (request(1), request(2));
        let (ka, kb) = (request_key(&ra), request_key(&rb));
        journal.admitted(0, &ka, &ra).unwrap();
        journal.started(0).unwrap();
        journal.admitted(1, &kb, &rb).unwrap();
        drop(journal);

        let (_, recovery) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        assert_eq!(recovery.next_job, 2, "ids keep counting past journalled jobs");
        assert_eq!(recovery.pending.len(), 2, "neither job completed");
        assert_eq!(recovery.pending[0], PendingJob { id: 0, key: ka, request: ra });
        assert_eq!(recovery.pending[1], PendingJob { id: 1, key: kb, request: rb });
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_jobs_are_not_reenqueued_and_empty_live_set_compacts() {
        let dir = unique_dir("nvpd_journal_complete");
        let (journal, _) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        let req = request(3);
        let key = request_key(&req);
        journal.admitted(0, &key, &req).unwrap();
        journal.started(0).unwrap();
        journal.completed(0, &[0u8; 32]).unwrap();
        assert_eq!(journal.compactions(), 1, "live set emptied: journal compacts");
        // Compaction shrank the log to its header.
        assert_eq!(fs::read(dir.join("journal.log")).unwrap(), MAGIC);
        drop(journal);
        let (_, recovery) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        assert!(recovery.pending.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_and_journal_quarantined() {
        let dir = unique_dir("nvpd_journal_torn");
        let (journal, _) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        let (ra, rb) = (request(4), request(5));
        journal.admitted(0, &request_key(&ra), &ra).unwrap();
        journal.admitted(1, &request_key(&rb), &rb).unwrap();
        drop(journal);
        let path = dir.join("journal.log");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 10]).unwrap(); // tear the tail
        let (journal, recovery) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        assert_eq!(recovery.pending.len(), 1, "intact prefix survives");
        assert_eq!(recovery.pending[0].id, 0);
        assert_eq!(recovery.skipped, 1);
        assert_eq!(recovery.quarantined, 1, "damage quarantines the journal");
        assert!(path.with_extension("log.quarantine").exists());
        drop(journal);
        // The rewrite healed the file: reopening is clean.
        let (_, healed) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        assert_eq!(healed.skipped, 0);
        assert_eq!(healed.pending.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_journal_is_quarantined_not_fatal() {
        let dir = unique_dir("nvpd_journal_foreign");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("journal.log"), b"not a journal at all").unwrap();
        let (_, recovery) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        assert!(recovery.pending.is_empty());
        assert_eq!(recovery.quarantined, 1);
        assert!(dir.join("journal.log.quarantine").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_from_an_older_protocol_is_skipped_not_reenqueued() {
        use nvp_experiments::wire::PROTOCOL;
        let dir = unique_dir("nvpd_journal_old_protocol");
        let (journal, _) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        let (current, old) = (request(9), request(10));
        journal.admitted(0, &request_key(&current), &current).unwrap();
        // A CRC-valid `Admitted` record journalled before the `nvpd/4`
        // bump: same framing, request bytes tagged with the old schema.
        let mut old_bytes = encode_request_bytes(&old);
        assert_eq!(PROTOCOL.len(), "nvpd/3".len(), "tag sits after its u32 length");
        old_bytes[4..4 + PROTOCOL.len()].copy_from_slice(b"nvpd/3");
        assert!(decode_request_bytes(&old_bytes).is_err(), "old schema must not decode");
        let mut body = vec![TAG_ADMITTED];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&request_key(&old));
        body.extend_from_slice(&(old_bytes.len() as u32).to_le_bytes());
        body.extend_from_slice(&old_bytes);
        journal.append_record(&mut journal.lock(), &body).unwrap();
        drop(journal);

        let (journal, recovery) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        assert_eq!(recovery.pending.len(), 1, "only the current-protocol job re-enqueues");
        assert_eq!(recovery.pending[0].id, 0);
        assert_eq!(recovery.skipped, 1, "the old-protocol admission is skipped");
        assert_eq!(recovery.next_job, 2, "ids still count past the skipped job");
        assert_eq!(recovery.quarantined, 1);
        assert_eq!(journal.quarantined_total(), 1);
        assert!(dir.join("journal.log.quarantine").exists());
        drop(journal);
        let (_, healed) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        assert_eq!((healed.skipped, healed.pending.len()), (0, 1), "rewrite dropped it");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_store_round_trips_and_quarantines_corruption() {
        let dir = unique_dir("nvpd_journal_results");
        let (journal, _) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        let req = request(6);
        let key = request_key(&req);
        assert!(journal.lookup_result(&key).is_none(), "miss before put");
        let result = nvp_experiments::run_request(&req).unwrap();
        let digest = journal.put_result(&key, &result).unwrap();
        let fetched = journal.lookup_result(&key).expect("hit after put");
        assert_eq!(fetched, result, "store round-trips the result bit-exactly");
        assert_eq!(digest, content_digest(&encode_result_bytes(&result)));
        // Corrupt the stored entry: lookup degrades to a quarantined miss.
        let path = dir.join("results").join(format!("{}.res", hex(&key)));
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() / 2);
        fs::write(&path, &bytes).unwrap();
        assert!(journal.lookup_result(&key).is_none());
        assert_eq!(journal.quarantined_total(), 1);
        assert!(path.with_extension("res.quarantine").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn startup_rewrite_compacts_completed_entries_away() {
        let dir = unique_dir("nvpd_journal_rewrite");
        let (journal, _) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        let (ra, rb) = (request(7), request(8));
        journal.admitted(0, &request_key(&ra), &ra).unwrap();
        journal.admitted(1, &request_key(&rb), &rb).unwrap();
        journal.completed(0, &[1u8; 32]).unwrap();
        let before = fs::metadata(dir.join("journal.log")).unwrap().len();
        drop(journal);
        let (_, recovery) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        assert_eq!(recovery.pending.len(), 1);
        assert_eq!(recovery.pending[0].id, 1);
        let after = fs::metadata(dir.join("journal.log")).unwrap().len();
        assert!(after < before, "startup compaction shrank the journal ({before} -> {after})");
        let _ = fs::remove_dir_all(&dir);
    }
}
