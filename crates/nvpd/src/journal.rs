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
//!   tag 4 Next job:  (empty; the u64 is the next id to assign)
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
//! the pending `Admitted` records, behind one `Next job` record that
//! keeps the id count once the records that set it are gone. Compaction
//! also runs at runtime whenever the live set empties. Recovery assigns
//! the larger of the `Next job` id and one past the highest journalled
//! id, so a restarted server never hands out an id twice.
//!
//! Any damage — a torn tail record (the shape a crash mid-append
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
//! `results/<key-hex>.res` holds one completed job's values as one
//! record in the shared frame, behind the magic `b"nvprslt2"`:
//!
//! ```text
//! entry  = b"nvprslt2" ++ [len u32] [crc32 u32] ++ digest 32B ++ result
//! result = canonical wire encoding (nvp_experiments::wire::encode_result_bytes)
//! digest = SHA-256 of result, the one the `Completed` record carries
//! ```
//!
//! It is written tmp-fsync-rename so readers never observe a half
//! file. The digest is computed when the result is stored, and a replay
//! checks it: [`Journal::lookup_encoded`] hashes the stored result
//! bytes again and serves them, undecoded, only if they match the
//! stored digest. A result carries its profiles as trace specs, so an
//! entry is a few KB and that hash costs tens of microseconds. A lookup
//! serves only an entry that is exactly one intact record whose result
//! matches its digest; anything else (a CRC mismatch, a missing or
//! extra record, a result altered under a resealed CRC, an `nvprslt1`
//! entry from before the digest, a raw entry from before the framing)
//! is quarantined (moved aside) and reported as a miss, which simply
//! re-runs the job against the warm simulation cache.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use nvp_experiments::record::{self, put_bytes, put_u64, Reader};
use nvp_experiments::wire::{
    content_digest, decode_request_bytes, decode_result_bytes, encode_request_bytes,
    encode_result_bytes, MAX_FRAME_BYTES, MAX_RESULT_BYTES,
};
use nvp_experiments::{CampaignRequest, CampaignResult};

use crate::faultplan::ServiceFaultPlan;

/// Journal-file magic: `nvpjrnl` + schema version digit.
const MAGIC: &[u8; 8] = b"nvpjrnl1";

/// Result-store entry magic: `nvprslt` + schema version digit.
/// Version 2 put the result's content digest in front of its encoding.
const RESULT_MAGIC: &[u8; 8] = b"nvprslt2";

/// Bound on a result-store entry's one record when read: the digest plus
/// a frame's worth of result. `put_result` writes only results a frame
/// can carry ([`MAX_RESULT_BYTES`]); the read bound is looser, so an
/// entry an older build stored past that is still read, and its replay
/// is refused once instead of the job running again.
const MAX_ENTRY_BYTES: u32 = MAX_FRAME_BYTES + DIGEST_BYTES as u32;

/// Length of a [`Digest`].
const DIGEST_BYTES: usize = 32;

/// Record tags.
const TAG_ADMITTED: u8 = 1;
const TAG_STARTED: u8 = 2;
const TAG_COMPLETED: u8 = 3;
const TAG_NEXT_JOB: u8 = 4;

/// Upper bound a record length prefix may claim before the scan stops
/// trusting the framing (a request is a few hundred bytes at most).
const MAX_RECORD_BYTES: u32 = 1 << 20;

/// A 256-bit content digest (idempotency key or result digest).
pub type Digest = [u8; DIGEST_BYTES];

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
    /// The next job id to assign: one past the highest journalled id,
    /// or the compacted journal's `Next job` id if that is larger.
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

/// Appendable journal state guarded by one lock: the append handle,
/// the live-entry count that triggers compaction, and the id count a
/// compaction keeps.
#[derive(Debug)]
struct Inner {
    file: fs::File,
    /// Admitted-but-not-completed entries in the current journal file.
    live: u64,
    /// One past the highest id recovered or admitted.
    next_job: u64,
}

/// An open write-ahead journal plus its content-addressed result store.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    results_dir: PathBuf,
    inner: Mutex<Inner>,
    quarantined: AtomicU64,
}

impl Journal {
    /// Opens (creating if missing) the journal under `state_dir`,
    /// replays it, compacts it down to the pending set, and returns
    /// the recovery outcome. The second parameter is ignored; it stays
    /// only because nvpbench passes [`ServiceFaultPlan::none`].
    ///
    /// # Errors
    ///
    /// Directory/file creation failures pass through; *content* damage
    /// never errors — it is quarantined and counted instead.
    pub fn open(state_dir: &Path, _: ServiceFaultPlan) -> io::Result<(Journal, Recovery)> {
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
        let image = compacted_image(recovery.next_job, pending)?;
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
            inner: Mutex::new(Inner {
                file,
                live: recovery.pending.len() as u64,
                next_job: recovery.next_job,
            }),
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
        inner.next_job = inner.next_job.max(job + 1);
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
            // header and the id count, so restarts replay nothing and
            // assign no id twice.
            record::replace(&self.path, &compacted_image(inner.next_job, [])?)?;
            inner.file = fs::OpenOptions::new().append(true).open(&self.path)?;
        }
        Ok(())
    }

    /// Stores a completed result under its request's idempotency key
    /// (tmp + fsync + atomic rename), with the content digest of its
    /// encoding, and returns that digest.
    ///
    /// # Errors
    ///
    /// Store I/O errors pass through, and a result whose encoding is
    /// over [`MAX_RESULT_BYTES`], which no `Result` frame could carry,
    /// is refused as [`io::ErrorKind::InvalidData`].
    pub fn put_result(&self, key: &Digest, result: &CampaignResult) -> io::Result<Digest> {
        let bytes = encode_result_bytes(result);
        if bytes.len() > MAX_RESULT_BYTES as usize {
            return Err(record::bad("result exceeds its frame bound"));
        }
        let digest = content_digest(&bytes);
        let path = self.result_path(key);
        if !path.exists() {
            let mut image = RESULT_MAGIC.to_vec();
            let start = record::begin_frame(&mut image);
            image.extend_from_slice(&digest);
            image.extend_from_slice(&bytes);
            record::end_frame(&mut image, start, MAX_ENTRY_BYTES)?;
            record::replace(&path, &image)?;
        }
        Ok(digest)
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
    /// [`put_result`](Self::put_result) stored beside the result, which
    /// the result's bytes matched.
    #[must_use]
    pub fn lookup_stored(&self, key: &Digest) -> Option<(Digest, CampaignResult)> {
        let (digest, bytes) = self.lookup_encoded(key)?;
        match decode_result_bytes(&bytes) {
            Ok(result) => Some((digest, result)),
            Err(_) => {
                self.quarantine_entry(&self.result_path(key));
                None
            }
        }
    }

    /// The stored content digest and [`encode_result_bytes`] encoding
    /// of a completed result: what a replay sends, with no decode. The
    /// entry's CRC checks the record and a fresh SHA-256 of the result
    /// bytes checks them against the stored digest. An entry that is
    /// not exactly one intact record, or whose result does not match
    /// its digest, is quarantined and reported as a miss. Keys embed
    /// the wire protocol, so an intact entry holds an encoding of the
    /// current protocol.
    #[must_use]
    pub fn lookup_encoded(&self, key: &Digest) -> Option<(Digest, Vec<u8>)> {
        let path = self.result_path(key);
        let image = fs::read(&path).ok()?;
        let entry = record::scan(&image, RESULT_MAGIC, MAX_ENTRY_BYTES);
        match entry.payloads[..] {
            [payload] if entry.damaged == 0 && payload.len() >= DIGEST_BYTES => {
                let (digest, bytes) = payload.split_at(DIGEST_BYTES);
                if content_digest(bytes) == digest {
                    return Some((digest.try_into().expect("digest-sized prefix"), bytes.to_vec()));
                }
            }
            _ => {}
        }
        self.quarantine_entry(&path);
        None
    }

    /// Moves a damaged result-store entry aside and counts it.
    fn quarantine_entry(&self, path: &Path) {
        if record::quarantine(path, None).is_ok() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            eprintln!("nvpd: result store entry {} damaged; quarantined", path.display());
        }
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

    /// Frames `payload` and appends it.
    fn append_record(&self, inner: &mut Inner, payload: &[u8]) -> io::Result<()> {
        let mut record = Vec::new();
        record::put_frame(&mut record, payload, MAX_RECORD_BYTES)?;
        inner.file.write_all(&record)
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

/// A compacted journal: the header, a `Next job` record unless no id
/// was ever assigned, and the `pending` admission payloads.
fn compacted_image(
    next_job: u64,
    pending: impl IntoIterator<Item = Vec<u8>>,
) -> io::Result<Vec<u8>> {
    let next = (next_job > 0).then(|| {
        let mut payload = vec![TAG_NEXT_JOB];
        put_u64(&mut payload, next_job);
        payload
    });
    record::log_image(MAGIC, next.into_iter().chain(pending), MAX_RECORD_BYTES)
}

/// Folds journal bytes into a [`Recovery`], counting every damaged or
/// undecodable record in `skipped`.
fn scan(bytes: &[u8], recovery: &mut Recovery) {
    let log = record::scan(bytes, MAGIC, MAX_RECORD_BYTES);
    recovery.skipped += log.damaged;
    let mut entries = BTreeMap::new();
    let mut next_job = 0;
    for payload in log.payloads {
        if decode_record(payload, &mut entries, &mut next_job).is_err() {
            recovery.skipped += 1;
        }
    }
    let past_journalled = entries.keys().next_back().map_or(0, |max| max + 1);
    recovery.next_job = next_job.max(past_journalled);
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

/// Applies one CRC-valid record payload to the fold state and the
/// `Next job` id; an error marks a malformed payload.
fn decode_record<'a>(
    payload: &'a [u8],
    entries: &mut BTreeMap<u64, ScanEntry<'a>>,
    next_job: &mut u64,
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
        TAG_NEXT_JOB => {
            r.done()?;
            *next_job = (*next_job).max(job);
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
        // header and the next id.
        let compacted = compacted_image(1, []).unwrap();
        assert_eq!(fs::read(dir.join("journal.log")).unwrap(), compacted);
        assert_eq!(compacted.len(), MAGIC.len() + 8 + 9, "one Next job record");
        drop(journal);
        let (_, recovery) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        assert!(recovery.pending.is_empty());
        assert_eq!(recovery.next_job, 1, "ids keep counting past the compaction");
        let _ = fs::remove_dir_all(&dir);
    }

    /// What the result store holds for job 0 in a crash state.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Entry {
        Absent,
        /// A torn `<key>.res.tmp`: the crash came inside `put_result`.
        TornTmp,
        Present,
    }

    /// A crash leaves the journal as a prefix of what was written, so
    /// every byte length is a state a restart may meet. The journal is
    /// driven through admit 0, admit 1, started 0, put_result 0,
    /// completed 0, started 1 and admit 2 (a job stays live throughout,
    /// so no compaction interrupts the sequence), then reopened from each
    /// prefix. Job 0's result entry is there exactly when `put_result 0`
    /// preceded the cut; at the cut where it ran, the entry may also be
    /// missing, or a torn temporary file. Both sides of the compaction
    /// that a last completion starts are states too, and both assign
    /// the next id.
    #[test]
    fn every_torn_journal_prefix_recovers_its_whole_records() {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let work = unique_dir("nvpd_journal_prefixes");
        let (journal, _) = Journal::open(&work, ServiceFaultPlan::none()).unwrap();
        let path = work.join("journal.log");
        let len = || fs::metadata(&path).unwrap().len() as usize;
        let requests: Vec<CampaignRequest> = (20..23).map(request).collect();
        let keys: Vec<Digest> = requests.iter().map(request_key).collect();
        let mut table = nvp_experiments::Table::new("T1", "one cell", &["cell"]);
        table.push_row(vec!["1".to_string()]);
        let result = CampaignResult {
            tables: vec![table],
            profiles: Vec::new(),
            cache: Default::default(),
            sched: Default::default(),
            exec: Default::default(),
        };

        let magic = len();
        journal.admitted(0, &keys[0], &requests[0]).unwrap();
        let admitted0 = len();
        journal.admitted(1, &keys[1], &requests[1]).unwrap();
        let admitted1 = len();
        journal.started(0).unwrap();
        let started0 = len();
        let digest = journal.put_result(&keys[0], &result).unwrap();
        journal.completed(0, &digest).unwrap();
        let completed0 = len();
        journal.started(1).unwrap();
        let started1 = len();
        journal.admitted(2, &keys[2], &requests[2]).unwrap();
        let bytes = fs::read(&path).unwrap();
        let ends = [magic, admitted0, admitted1, started0, completed0, started1, bytes.len()];
        let admissions = [(0, admitted0), (1, admitted1), (2, bytes.len())];
        let entry_name = format!("{}.res", hex(&keys[0]));
        let entry = fs::read(work.join("results").join(&entry_name)).unwrap();

        let mut states = 0;
        for cut in 0..=bytes.len() {
            let entries: &[Entry] = match cut.cmp(&started0) {
                Less => &[Entry::Absent],
                Equal => &[Entry::Absent, Entry::TornTmp, Entry::Present],
                Greater => &[Entry::Present],
            };
            let whole = |&(id, end): &(u64, usize)| (cut >= end).then_some(id);
            let admitted: Vec<u64> = admissions.iter().filter_map(whole).collect();
            let pending: Vec<u64> =
                admitted.iter().copied().filter(|&id| id != 0 || cut < completed0).collect();
            let next_job = admitted.last().map_or(0, |id| id + 1);
            let torn = !ends.contains(&cut);
            for &held in entries {
                let what = format!("cut at {cut} of {} bytes, entry {held:?}", bytes.len());
                let dir = unique_dir("nvpd_journal_prefix");
                let results = dir.join("results");
                fs::create_dir_all(&results).unwrap();
                fs::write(dir.join("journal.log"), &bytes[..cut]).unwrap();
                match held {
                    Entry::Absent => {}
                    Entry::TornTmp => {
                        let tmp = results.join(format!("{entry_name}.tmp"));
                        fs::write(tmp, &entry[..entry.len() / 2]).unwrap();
                    }
                    Entry::Present => fs::write(results.join(&entry_name), &entry).unwrap(),
                }

                let (journal, recovery) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
                let ids: Vec<u64> = recovery.pending.iter().map(|job| job.id).collect();
                assert_eq!(ids, pending, "{what}: pending jobs");
                for job in &recovery.pending {
                    let i = job.id as usize;
                    assert_eq!((job.key, &job.request), (keys[i], &requests[i]), "{what}");
                }
                assert_eq!(recovery.next_job, next_job, "{what}: next job id");
                assert_eq!(recovery.skipped, u64::from(torn), "{what}: records skipped");
                assert_eq!(recovery.quarantined, u64::from(torn), "{what}: files quarantined");
                let copy = fs::read(dir.join("journal.log.quarantine")).ok();
                assert_eq!(copy.as_deref(), torn.then_some(&bytes[..cut]), "{what}: evidence");
                let stored = journal.lookup_encoded(&keys[0]).map(|(d, _)| d);
                assert_eq!(stored, (held == Entry::Present).then_some(digest), "{what}: entry");
                drop(journal);
                let (_, again) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
                assert_eq!(again.skipped, 0, "{what}: the first reopen left damage");
                assert_eq!(again.pending, recovery.pending, "{what}: a second reopen differs");
                let _ = fs::remove_dir_all(&dir);
                states += 1;
            }
        }
        assert_eq!(states, bytes.len() + 3, "every prefix, three entry states at one");

        // The compaction after the last completion appends `Completed 2`
        // and then replaces the file with its header and the next id: a
        // crash leaves the whole old file, perhaps beside a torn
        // `journal.log.tmp`, or the compacted one.
        journal.completed(1, &[0; 32]).unwrap();
        let mut completed2 = vec![TAG_COMPLETED];
        put_u64(&mut completed2, 2);
        completed2.extend_from_slice(&[0; 32]);
        journal.append_record(&mut journal.lock(), &completed2).unwrap();
        let old = fs::read(&path).unwrap();
        drop(journal);
        let compacted = compacted_image(3, []).unwrap();
        for image in [&old, &compacted] {
            let what = format!("compaction side of {} bytes", image.len());
            let dir = unique_dir("nvpd_journal_compaction");
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join("journal.log"), image).unwrap();
            let tmp = dir.join("journal.log.tmp");
            fs::write(&tmp, &MAGIC[..4]).unwrap();
            let (_, recovery) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
            assert!(recovery.pending.is_empty(), "{what}: every job completed");
            assert_eq!((recovery.next_job, recovery.skipped), (3, 0), "{what}");
            assert!(!dir.join("journal.log.quarantine").exists(), "{what}: quarantined");
            assert!(!tmp.exists(), "{what}: the torn temporary file outlived the reopen");
            assert_eq!(fs::read(dir.join("journal.log")).unwrap(), compacted, "{what}");
            let _ = fs::remove_dir_all(&dir);
        }
        let _ = fs::remove_dir_all(&work);
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

    /// The store admits exactly the results a `Result` frame can carry:
    /// the largest replays byte for byte, and one byte more is refused.
    #[test]
    fn the_largest_result_a_frame_carries_is_the_largest_stored() {
        use nvp_experiments::wire::{read_frame, result_frame_bytes, Message};
        use nvp_experiments::Table;
        let dir = unique_dir("nvpd_journal_result_bound");
        let (journal, _) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        let with_cell = |cell: String| {
            let mut table = Table::new("T1", "one long cell", &["cell"]);
            table.push_row(vec![cell]);
            CampaignResult {
                tables: vec![table],
                profiles: Vec::new(),
                cache: Default::default(),
                sched: Default::default(),
                exec: Default::default(),
            }
        };
        let fill = MAX_RESULT_BYTES as usize - encode_result_bytes(&with_cell(String::new())).len();
        let largest = with_cell("9".repeat(fill));
        let bytes = encode_result_bytes(&largest);
        assert_eq!(bytes.len(), MAX_RESULT_BYTES as usize);
        let key = request_key(&request(12));
        let digest = journal.put_result(&key, &largest).unwrap();
        let (stored_digest, stored) = journal.lookup_encoded(&key).expect("stored");
        assert_eq!((stored_digest, stored == bytes), (digest, true), "stored byte for byte");
        let frame = result_frame_bytes(7, true, &stored).expect("one frame carries it");
        let mut longer = stored.clone();
        longer.push(b'9');
        assert!(result_frame_bytes(7, true, &longer).is_err(), "and no byte more");
        let Message::Result { job, replayed, result } = read_frame(&mut frame.as_slice()).unwrap()
        else {
            panic!("expected a Result frame");
        };
        assert_eq!((job, replayed), (7, true));
        assert!(result == largest, "the replay decodes to the stored result");

        let over = with_cell("9".repeat(fill + 1));
        let over_key = request_key(&request(13));
        let refused = journal.put_result(&over_key, &over).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
        assert!(journal.lookup_encoded(&over_key).is_none(), "nothing was stored");
        assert!(!dir.join("results").join(format!("{}.res", hex(&over_key))).exists());
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
        // decodes, so only the record's CRC and digest can tell it was
        // altered.
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
    fn every_truncated_or_bit_flipped_entry_is_a_quarantined_miss() {
        let dir = unique_dir("nvpd_journal_entry_sweep");
        let (journal, _) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        let req = request(12);
        let key = request_key(&req);
        let result = nvp_experiments::run_request(&req).unwrap();
        let digest = journal.put_result(&key, &result).unwrap();
        let path = dir.join("results").join(format!("{}.res", hex(&key)));
        let intact = fs::read(&path).unwrap();
        let quarantined = path.with_extension("res.quarantine");
        let expect_miss = |bytes: &[u8], what: &str| {
            fs::write(&path, bytes).unwrap();
            assert_eq!(journal.lookup_encoded(&key), None, "{what} was served");
            assert!(!path.exists() && quarantined.exists(), "{what} was not quarantined");
            fs::remove_file(&quarantined).unwrap();
        };
        for cut in 0..intact.len() {
            expect_miss(&intact[..cut], &format!("entry cut at {cut}"));
        }
        for bit in 0..intact.len() * 8 {
            let mut flipped = intact.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            expect_miss(&flipped, &format!("entry with bit {bit} flipped"));
        }
        // An entry from before the digest, `nvprslt1`: magic, then the
        // bare result encoding in one intact record.
        let bytes = encode_result_bytes(&result);
        expect_miss(&record::log_image(b"nvprslt1", [&bytes], MAX_FRAME_BYTES).unwrap(), "v1");
        // Restored whole, the entry replays its stored digest and bytes.
        fs::write(&path, &intact).unwrap();
        assert_eq!(journal.lookup_encoded(&key), Some((digest, bytes)));
        let flips = intact.len() as u64 * 8;
        assert_eq!(journal.quarantined_total(), intact.len() as u64 + flips + 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// An entry whose result was altered and whose record CRC was then
    /// resealed passes the CRC; only the stored digest can tell, and a
    /// lookup checks it.
    #[test]
    fn an_altered_result_under_a_resealed_crc_is_a_quarantined_miss() {
        let dir = unique_dir("nvpd_journal_resealed");
        let (journal, _) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        let req = request(14);
        let key = request_key(&req);
        let result = nvp_experiments::run_request(&req).unwrap();
        let digest = journal.put_result(&key, &result).unwrap();
        let path = dir.join("results").join(format!("{}.res", hex(&key)));
        let intact = fs::read(&path).unwrap();
        // magic (8), record header (8), digest (32), then the result.
        let result_at = RESULT_MAGIC.len() + 8 + DIGEST_BYTES;
        for at in [result_at, result_at + (intact.len() - result_at) / 2, intact.len() - 1] {
            let mut altered = intact.clone();
            altered[at] ^= 0x01;
            let payload = &altered[RESULT_MAGIC.len() + 8..];
            let crc = nvp_sim::crc32_bytes(payload);
            altered[RESULT_MAGIC.len() + 4..RESULT_MAGIC.len() + 8]
                .copy_from_slice(&crc.to_le_bytes());
            let scan = record::scan(&altered, RESULT_MAGIC, MAX_ENTRY_BYTES);
            assert_eq!((scan.payloads.len(), scan.damaged), (1, 0), "the CRC is resealed");
            fs::write(&path, &altered).unwrap();
            assert_eq!(journal.lookup_encoded(&key), None, "byte {at}: an altered result served");
            let quarantined = path.with_extension("res.quarantine");
            assert!(!path.exists() && quarantined.exists(), "byte {at} was not quarantined");
            fs::remove_file(&quarantined).unwrap();
        }
        assert_eq!(journal.quarantined_total(), 3);
        fs::write(&path, &intact).unwrap();
        let (stored, _) = journal.lookup_encoded(&key).expect("the intact entry replays");
        assert_eq!(stored, digest);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_replay_frame_is_the_frame_of_the_decoded_result() {
        use nvp_experiments::wire::{frame_bytes, result_frame_bytes, Message};
        let dir = unique_dir("nvpd_journal_replay_frame");
        let (journal, _) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        let req = request(13);
        let key = request_key(&req);
        let result = nvp_experiments::run_request(&req).unwrap();
        let digest = journal.put_result(&key, &result).unwrap();
        let (stored_digest, bytes) = journal.lookup_encoded(&key).expect("hit after put");
        assert_eq!(stored_digest, digest);
        assert_eq!(digest, content_digest(&bytes), "the stored digest is the bytes' SHA-256");
        let decoded = decode_result_bytes(&bytes).unwrap();
        let msg = Message::Result { job: 5, replayed: true, result: decoded };
        assert_eq!(result_frame_bytes(5, true, &bytes).unwrap(), frame_bytes(&msg).unwrap());
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

    /// The startup compaction drops a finished job's records, so it
    /// keeps the id count too: a job finished past a pending one still
    /// holds its id after two restarts.
    #[test]
    fn startup_compaction_keeps_the_id_count() {
        let dir = unique_dir("nvpd_journal_startup_ids");
        let (journal, _) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        let (ra, rb) = (request(11), request(12));
        journal.admitted(0, &request_key(&ra), &ra).unwrap();
        journal.admitted(1, &request_key(&rb), &rb).unwrap();
        journal.completed(1, &[1u8; 32]).unwrap();
        drop(journal);
        for restart in 1..=2 {
            let (_, recovery) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
            let ids: Vec<u64> = recovery.pending.iter().map(|job| job.id).collect();
            assert_eq!(ids, [0], "restart {restart}: pending jobs");
            assert_eq!(recovery.next_job, 2, "restart {restart}: next job id");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Pinned bytes of a journal holding one `Admitted` record: a change
    /// here changes the on-disk format. A framing change must bump
    /// [`MAGIC`]; a request-encoding change bumps the wire `PROTOCOL`,
    /// whose stale records recovery skips and quarantines.
    const PINNED_ADMITTED: &str = concat!(
        "6e76706a726e6c318f000000ba4d0d79010700000000000000713a05269fef6ca79ac9a635a8bd8e",
        "20d95e122fdb6302737bdc086e325b984962000000060000006e7670642f37010100000002000000",
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
