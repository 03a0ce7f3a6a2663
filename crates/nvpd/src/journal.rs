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
//! One file, `journal.log`: the 8-byte magic `b"nvpjrnl1"`, then records
//! in the frame the simulation cache's shards and the wire protocol
//! share ([`nvp_experiments::record`]: length, CRC-32, payload), with
//! payloads built by its field codec:
//!
//! ```text
//! payload = tag (1 byte) ++ job u64 ++ body
//!   tag 1 Admitted:  key 32B ++ req_len u32 ++ request wire bytes
//!   tag 2 Started:   (empty)
//!   tag 3 Completed: result digest 32B
//! ```
//!
//! `key` is the request's content-addressed idempotency key
//! ([`nvp_experiments::wire::request_key`]); the `Completed` digest is
//! the SHA-256 of the stored result encoding, tying the log to the
//! store. The all-zero digest means "failed, nothing stored": a job
//! that errored or panicked is journalled as finished, so a restart
//! does not replay it. An `Admitted` record is fsynced before [`Journal::admitted`]
//! returns, so `Accepted` promises only what a crash cannot take back.
//! `Started` and `Completed` are not: losing one re-runs a job, which
//! the result store and the simulation cache make cheap.
//!
//! ## Recovery state machine
//!
//! A journal entry moves `Admitted` → `Started` → `Completed`. On
//! open, the scan folds records into a per-job state; every job that
//! never reached `Completed` is **pending** and gets re-enqueued
//! (whether or not it `Started` — jobs are idempotent through the
//! simulation cache, so restarting a half-run job is merely warm). The
//! journal is then **compacted**: atomically rewritten to hold exactly
//! the pending `Admitted` records. Compaction also runs at runtime
//! whenever the live set empties.
//!
//! Any damage — a torn tail record (the shape an injected or real crash
//! leaves), a corrupt or undecodable record, an admission journalled by
//! another protocol revision, a foreign file — is counted in
//! [`Recovery::skipped`] and **quarantines** the journal: the file is
//! copied aside as `journal.log.quarantine[.N]` before the rewrite, so
//! the evidence survives while the server carries on with what it could
//! salvage. A torn tail is quarantined too, not only dropped. The store
//! never aborts the server over a bad file.
//!
//! ## Result store
//!
//! `results/<key-hex>.res` holds the canonical wire encoding
//! ([`nvp_experiments::wire::encode_result_bytes`]) of each completed
//! job's values as one record in the shared frame, behind the magic
//! `b"nvprslt1"`, written tmp-fsync-rename so readers never observe a
//! half file. A lookup serves only an entry that is exactly one intact
//! record and decodes; anything else (a CRC mismatch, a missing or
//! extra record, a raw entry from before the framing) is quarantined
//! (moved aside) and reported as a miss, which simply re-runs the job
//! against the warm simulation cache.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use nvp_experiments::record::{self, put_bytes, put_u64, Reader};
use nvp_experiments::wire::{
    content_digest, decode_request_bytes, decode_result_bytes, encode_request_bytes,
    encode_result_bytes, MAX_FRAME_BYTES,
};
use nvp_experiments::{CampaignRequest, CampaignResult};

use crate::faultplan::{AppendAction, ServiceFaultPlan, CRASH_EXIT_CODE};

/// Journal-file magic: `nvpjrnl` + schema version digit.
const MAGIC: &[u8; 8] = b"nvpjrnl1";

/// Result-store entry magic: `nvprslt` + schema version digit.
const RESULT_MAGIC: &[u8; 8] = b"nvprslt1";

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
struct ScanEntry<'a> {
    key: Digest,
    request_bytes: &'a [u8],
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
        match fs::read(&path) {
            Ok(bytes) => scan(&bytes, &mut recovery),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(_) => recovery.skipped += 1,
        }
        // Startup compaction: the new journal holds exactly the pending
        // admissions. A damaged one is copied aside first; either way the
        // old file stays whole until the atomic rename, so a crash here
        // never loses an admitted job.
        let pending = recovery.pending.iter().map(|j| admitted_payload(j.id, &j.key, &j.request));
        let image = record::log_image(MAGIC, pending, MAX_RECORD_BYTES)?;
        if recovery.skipped > 0 && record::quarantine(&path, Some(&image)).is_ok() {
            recovery.quarantined += 1;
            eprintln!(
                "nvpd: journal {} damaged ({} record(s) dropped); quarantined a copy",
                path.display(),
                recovery.skipped
            );
        } else {
            record::replace(&path, &image)?;
        }
        let file = fs::OpenOptions::new().append(true).open(&path)?;
        let journal = Journal {
            path,
            results_dir,
            faults,
            inner: Mutex::new(Inner { file, live: recovery.pending.len() as u64 }),
            quarantined: AtomicU64::new(recovery.quarantined),
        };
        Ok((journal, recovery))
    }

    /// Journals an admission and fsyncs it: it is durable before the
    /// `Accepted` frame is sent (write-ahead: promise only what is
    /// logged).
    ///
    /// # Errors
    ///
    /// Append and sync I/O errors pass through (callers degrade
    /// gracefully).
    pub fn admitted(&self, job: u64, key: &Digest, request: &CampaignRequest) -> io::Result<()> {
        let payload = admitted_payload(job, key, request);
        let mut inner = self.lock();
        inner.live += 1;
        self.append_record(&mut inner, &payload)?;
        inner.file.sync_data()
    }

    /// Journals the start-of-execution transition.
    ///
    /// # Errors
    ///
    /// Append I/O errors pass through.
    pub fn started(&self, job: u64) -> io::Result<()> {
        let mut payload = vec![TAG_STARTED];
        put_u64(&mut payload, job);
        self.append_record(&mut self.lock(), &payload)
    }

    /// Journals completion (with the stored result's digest) and
    /// compacts the journal once no live entries remain.
    ///
    /// # Errors
    ///
    /// Append I/O errors pass through.
    pub fn completed(&self, job: u64, digest: &Digest) -> io::Result<()> {
        let mut payload = vec![TAG_COMPLETED];
        put_u64(&mut payload, job);
        payload.extend_from_slice(digest);
        let mut inner = self.lock();
        self.append_record(&mut inner, &payload)?;
        inner.live = inner.live.saturating_sub(1);
        if inner.live == 0 {
            // Everything journalled is done: shrink the log to its
            // header so restarts replay nothing.
            record::replace(&self.path, MAGIC)?;
            inner.file = fs::OpenOptions::new().append(true).open(&self.path)?;
        }
        Ok(())
    }

    /// Stores a completed result under its request's idempotency key
    /// (tmp + fsync + atomic rename) and returns the content digest of
    /// the stored bytes.
    ///
    /// # Errors
    ///
    /// Store I/O errors pass through.
    pub fn put_result(&self, key: &Digest, result: &CampaignResult) -> io::Result<Digest> {
        let bytes = encode_result_bytes(result);
        let path = self.result_path(key);
        if !path.exists() {
            record::replace(&path, &record::log_image(RESULT_MAGIC, [&bytes], MAX_FRAME_BYTES)?)?;
        }
        Ok(content_digest(&bytes))
    }

    /// Fetches a completed result by idempotency key, or `None` on a
    /// miss. An entry that is not exactly one intact record, or whose
    /// record does not decode, is quarantined (moved aside, counted)
    /// and reported as a miss — degradation, not an abort.
    #[must_use]
    pub fn lookup_result(&self, key: &Digest) -> Option<CampaignResult> {
        self.lookup_stored(key).map(|(_, result)| result)
    }

    /// [`lookup_result`](Self::lookup_result), with the content digest
    /// of the stored payload: the digest [`put_result`](Self::put_result)
    /// returned for it, since the payload is the result's encoding. A
    /// replay journals it without encoding the result again.
    #[must_use]
    pub fn lookup_stored(&self, key: &Digest) -> Option<(Digest, CampaignResult)> {
        let path = self.result_path(key);
        let image = fs::read(&path).ok()?;
        let entry = record::scan(&image, RESULT_MAGIC, MAX_FRAME_BYTES);
        let decoded = match entry.payloads[..] {
            [payload] if entry.damaged == 0 => {
                decode_result_bytes(payload).map(|result| (content_digest(payload), result))
            }
            _ => Err(record::bad("result store entry is not one intact record")),
        };
        if decoded.is_err() && record::quarantine(&path, None).is_ok() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            eprintln!("nvpd: result store entry {} damaged; quarantined", path.display());
        }
        decoded.ok()
    }

    /// Files this journal has quarantined so far (including at open).
    #[must_use]
    pub fn quarantined_total(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn result_path(&self, key: &Digest) -> PathBuf {
        self.results_dir.join(format!("{}.res", hex(key)))
    }

    /// Frames `payload` and appends it through the fault plan: a planned
    /// tear writes a prefix and aborts the process, leaving exactly the
    /// torn-tail shape recovery must tolerate.
    fn append_record(&self, inner: &mut Inner, payload: &[u8]) -> io::Result<()> {
        let mut record = Vec::new();
        record::put_frame(&mut record, payload, MAX_RECORD_BYTES)?;
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
}

/// The payload of an `Admitted` record.
fn admitted_payload(job: u64, key: &Digest, request: &CampaignRequest) -> Vec<u8> {
    let mut payload = vec![TAG_ADMITTED];
    put_u64(&mut payload, job);
    payload.extend_from_slice(key);
    put_bytes(&mut payload, &encode_request_bytes(request));
    payload
}

/// Folds journal bytes into a [`Recovery`], counting every damaged or
/// undecodable record in `skipped`.
fn scan(bytes: &[u8], recovery: &mut Recovery) {
    let log = record::scan(bytes, MAGIC, MAX_RECORD_BYTES);
    recovery.skipped += log.damaged;
    let mut entries = BTreeMap::new();
    for payload in log.payloads {
        if decode_record(payload, &mut entries).is_err() {
            recovery.skipped += 1;
        }
    }
    recovery.next_job = entries.keys().next_back().map_or(0, |max| max + 1);
    for (id, entry) in entries.into_iter().filter(|(_, entry)| !entry.completed) {
        match decode_request_bytes(entry.request_bytes) {
            Ok(request) => recovery.pending.push(PendingJob { id, key: entry.key, request }),
            // CRC-valid but undecodable request (e.g. journalled by a
            // different protocol revision): drop it — the client will
            // resubmit under the current protocol.
            Err(_) => recovery.skipped += 1,
        }
    }
}

/// Applies one CRC-valid record payload to the fold state; an error
/// marks a malformed payload.
fn decode_record<'a>(
    payload: &'a [u8],
    entries: &mut BTreeMap<u64, ScanEntry<'a>>,
) -> io::Result<()> {
    let mut r = Reader::new(payload);
    let (tag, job) = (r.u8()?, r.u64()?);
    match tag {
        TAG_ADMITTED => {
            let (key, request_bytes) = (r.digest()?, r.bytes()?);
            r.done()?;
            entries.insert(job, ScanEntry { key, request_bytes, completed: false });
        }
        // Started is informational; recovery re-runs regardless.
        TAG_STARTED => r.done()?,
        TAG_COMPLETED => {
            r.digest()?;
            r.done()?;
            if let Some(entry) = entries.get_mut(&job) {
                entry.completed = true;
            }
        }
        _ => return Err(record::bad("unknown journal record tag")),
    }
    Ok(())
}

/// Lowercase hex of a byte string (result-store file names).
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
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
        // The live set emptied, so compaction shrank the log to its
        // header.
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
        // A CRC-valid `Admitted` record journalled before the `nvpd/5`
        // bump: same framing, request bytes tagged with the old schema
        // and ending in the cache-policy byte that bump dropped.
        let mut old_bytes = encode_request_bytes(&old);
        assert_eq!(PROTOCOL.len(), "nvpd/4".len(), "tag sits after its u32 length");
        old_bytes[4..4 + PROTOCOL.len()].copy_from_slice(b"nvpd/4");
        old_bytes.push(0);
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
        let stored = journal.lookup_stored(&key).expect("hit after put");
        assert_eq!(stored, (digest, result), "a replay reads back the digest the put returned");
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
    fn result_store_quarantines_an_altered_table_cell() {
        let dir = unique_dir("nvpd_journal_altered_cell");
        let (journal, _) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        let req = request(11);
        let key = request_key(&req);
        let result = nvp_experiments::run_request(&req).unwrap();
        journal.put_result(&key, &result).unwrap();
        // Change one digit of the longest numeric cell: the entry still
        // decodes, so only the record's CRC can tell it was altered.
        let cell = result.tables[0]
            .rows()
            .iter()
            .flatten()
            .filter(|c| c.bytes().any(|b| b.is_ascii_digit()))
            .max_by_key(|c| c.len())
            .expect("t1 has numeric cells");
        let path = dir.join("results").join(format!("{}.res", hex(&key)));
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.windows(cell.len()).position(|w| w == cell.as_bytes()).expect("cell stored");
        let digit = at + cell.bytes().position(|b| b.is_ascii_digit()).unwrap();
        bytes[digit] = if bytes[digit] == b'9' { b'0' } else { bytes[digit] + 1 };
        fs::write(&path, &bytes).unwrap();
        assert!(journal.lookup_result(&key).is_none(), "an altered entry is never served");
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

    /// Pinned bytes of a journal holding one `Admitted` record: a change
    /// here changes the on-disk format. A framing change must bump
    /// [`MAGIC`]; a request-encoding change bumps the wire `PROTOCOL`,
    /// whose stale records recovery skips and quarantines.
    const PINNED_ADMITTED: &str = concat!(
        "6e76706a726e6c318f000000618a885f01070000000000000040a3845bab3c0b003e8200e26c5b6e",
        "8ffaa3700286a0bb35a020e92641bbe3e062000000060000006e7670642f36010100000002000000",
        "74310000000000000040020000000100000000000000020000000000000007000000000000001000",
        "000000000000100000000000000003000000000000000100000000000000010100000000000000",
    );

    #[test]
    fn admitted_record_format_is_pinned() {
        let dir = unique_dir("nvpd_journal_pin");
        let (journal, _) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        let req = request(1);
        journal.admitted(7, &request_key(&req), &req).unwrap();
        assert_eq!(hex(&fs::read(dir.join("journal.log")).unwrap()), PINNED_ADMITTED);
        let _ = fs::remove_dir_all(&dir);
    }
}
