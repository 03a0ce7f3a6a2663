//! Persistent on-disk backing for the simulation-result cache.
//!
//! The in-memory cache in [`crate::simcache`] dies with the process, so
//! a warm full-campaign rerun still pays for every unique simulation.
//! This module makes the cache durable: an **append-only record log**
//! under a cache directory (`NVP_CACHE_DIR`, or `<out_dir>/.simcache`
//! for the `repro` binary), **sharded by the first hex digit** of the
//! SHA-256 content key, so concurrent writers rarely touch the same
//! file and a reload opens at most 16 small files. (A reload pays
//! 5–10 µs per file it opens, more than it pays per record, so fewer,
//! larger shards reload faster.)
//!
//! ## Record format
//!
//! Each shard file `<x>.log` (`x` = first key nibble, hex) starts with
//! the 8-byte magic `b"nvpsimc2"` — the `2` is the schema version,
//! bumped whenever the record layout changes so stale caches are
//! skipped wholesale rather than misdecoded. After the header, records
//! are length-prefixed and CRC-framed:
//!
//! ```text
//! [len: u32 le] [crc32: u32 le] [payload: len bytes]
//! payload = key (32 bytes) ++ RunReport (24 × 8-byte fields, le)
//!           ++ n: u32 le ++ n recovery latencies (8-byte f64 bits, le)
//! ```
//!
//! The latency list is empty for every run kind except an F12
//! fault-campaign trial.
//!
//! The CRC-32 is the checkpoint subsystem's
//! ([`nvp_sim::crc32_bytes`]) — cache integrity and checkpoint
//! integrity share one checksum — and covers the whole payload.
//! Floats are stored as IEEE-754 bit patterns, so a reloaded
//! [`SimOutcome`] is bit-identical to the one computed, and artifacts
//! built from cache hits stay byte-identical to cold runs.
//!
//! ## Failure tolerance
//!
//! Loading is strictly best-effort — a damaged cache can cost time,
//! never correctness:
//!
//! * **Truncated tail** (a writer killed mid-append): the broken tail
//!   record is dropped, every record before it loads.
//! * **Corrupt record** (CRC mismatch, bad length, short payload): the
//!   record is skipped and never served; framing resumes at the next
//!   length prefix when it is trustworthy, otherwise the rest of the
//!   shard is abandoned.
//! * **Concurrent appenders**: records are written with a single
//!   `O_APPEND` write each, so two processes filling the same cache
//!   interleave whole records; a duplicated header (both processes
//!   creating the same shard) is recognized and skipped. Duplicate
//!   keys are benign — both writers computed bit-identical reports.
//!
//! ## Quarantine
//!
//! A shard that shows *any* damage on load — a torn tail, a CRC
//! mismatch, a foreign or stale-schema file — is **quarantined**:
//! renamed to `<name>.quarantine` (suffixed `.2`, `.3`, … if earlier
//! quarantines exist) and counted in [`LoadOutcome::quarantined`], so
//! operators can tell a *cold* cache from a *corrupted* one instead of
//! records silently vanishing. Records salvaged from a damaged shard
//! are still served, and are immediately re-appended to a fresh shard
//! file so the on-disk state heals while the quarantined file preserves
//! the evidence. The counter flows through
//! [`crate::SimCacheStats::quarantined`] into the `repro` cache summary
//! and the `nvpd/3` wire stats.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use nvp_core::RunReport;
use nvp_energy::units::Joules;
use nvp_sim::crc32_bytes;

use crate::simcache::{Digest, SimOutcome};

/// Shard-file magic: `nvpsimc` + schema version digit.
const MAGIC: &[u8; 8] = b"nvpsimc2";

/// Serialized `RunReport`: 2 + 13 + 9 eight-byte fields.
const REPORT_BYTES: usize = 24 * 8;

/// Payload length of a record with no latencies: key + report + count.
const FIXED_PAYLOAD_BYTES: usize = 32 + REPORT_BYTES + 4;

/// Upper bound a length prefix may claim before the loader stops
/// trusting the shard's framing entirely; the writer refuses (does not
/// persist) a longer record. The largest F12 trial logs 77 recovery
/// latencies in the default campaign (an 844-byte payload) and 28 in
/// the quick one, and 72–80 and 27–35 at fault seeds 1–8; the bound
/// leaves room for 483.
const MAX_RECORD_BYTES: u32 = 4096;

/// What [`PersistentStore::open`] recovered from disk.
#[derive(Debug, Default)]
pub(crate) struct LoadOutcome {
    /// Every valid `(key, outcome)` record, shard-major in file order.
    pub records: Vec<(Digest, SimOutcome)>,
    /// Records (or whole unreadable/foreign files) dropped during the
    /// scan — corruption tolerated, never served.
    pub skipped: u64,
    /// Shard files renamed to `*.quarantine` because the scan found
    /// damage in them. Salvaged records were re-appended to a fresh
    /// shard, so a subsequent open reports the directory clean.
    pub quarantined: u64,
}

/// An open cache directory: load-once at open, append-only afterwards.
#[derive(Debug)]
pub(crate) struct PersistentStore {
    dir: PathBuf,
}

impl PersistentStore {
    /// Opens (creating if missing) a cache directory and scans every
    /// shard for valid records.
    pub(crate) fn open(dir: &Path) -> io::Result<(PersistentStore, LoadOutcome)> {
        fs::create_dir_all(dir)?;
        let store = PersistentStore { dir: dir.to_path_buf() };
        let mut outcome = LoadOutcome::default();
        // Deterministic scan order: sorted shard names.
        let mut shards: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "log"))
            .collect();
        shards.sort();
        for shard in shards {
            let mut local = LoadOutcome::default();
            match fs::read(&shard) {
                Ok(bytes) => scan_shard(&bytes, &mut local),
                Err(_) => local.skipped += 1,
            }
            if local.skipped > 0 {
                // Any damage quarantines the whole file: rename it
                // aside as evidence, then heal by re-appending the
                // salvaged records to a fresh shard. Operators see a
                // counter instead of records silently vanishing.
                match quarantine_file(&shard) {
                    Ok(target) => {
                        outcome.quarantined += 1;
                        eprintln!(
                            "warning: sim cache shard {} damaged ({} record(s) lost); \
                             quarantined as {}",
                            shard.display(),
                            local.skipped,
                            target.display()
                        );
                        for (key, outcome) in &local.records {
                            // Healing is best-effort; the records are
                            // already in memory either way.
                            let _ = store.append(key, outcome);
                        }
                    }
                    Err(e) => eprintln!(
                        "warning: sim cache shard {} damaged but could not be quarantined ({e})",
                        shard.display()
                    ),
                }
            }
            outcome.skipped += local.skipped;
            outcome.records.append(&mut local.records);
        }
        Ok((store, outcome))
    }

    /// Appends one record to the key's shard. The header (for a fresh
    /// shard) and the record are each written with a single `O_APPEND`
    /// write, so concurrent appenders interleave whole records. A
    /// record longer than the loader accepts is refused, not written.
    pub(crate) fn append(&self, key: &Digest, outcome: &SimOutcome) -> io::Result<()> {
        let payload = encode_payload(key, outcome);
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&len| len <= MAX_RECORD_BYTES)
            .ok_or_else(|| io::Error::other("sim cache record exceeds the shard record bound"))?;
        let shard = self.dir.join(format!("{:x}.log", key[0] >> 4));
        let fresh = fs::metadata(&shard).map_or(true, |m| m.len() == 0);
        let mut file = fs::OpenOptions::new().create(true).append(true).open(&shard)?;
        let crc = crc32_bytes(&payload);
        let mut record = Vec::with_capacity(MAGIC.len() + 8 + payload.len());
        if fresh {
            // Two processes racing on a fresh shard can both prepend
            // the magic; the loader tolerates a repeated header.
            record.extend_from_slice(MAGIC);
        }
        record.extend_from_slice(&len.to_le_bytes());
        record.extend_from_slice(&crc.to_le_bytes());
        record.extend_from_slice(&payload);
        file.write_all(&record)
    }
}

/// Renames a damaged shard to the first free `<name>.quarantine[.N]`
/// sibling and returns the chosen path.
fn quarantine_file(path: &Path) -> io::Result<PathBuf> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::other("shard path has no utf-8 file name"))?;
    for n in 1..=1000u32 {
        let candidate = if n == 1 {
            dir.join(format!("{name}.quarantine"))
        } else {
            dir.join(format!("{name}.quarantine.{n}"))
        };
        if !candidate.exists() {
            fs::rename(path, &candidate)?;
            return Ok(candidate);
        }
    }
    Err(io::Error::other("no free quarantine name after 1000 attempts"))
}

/// Walks one shard's bytes, pushing valid records and counting damage.
fn scan_shard(bytes: &[u8], outcome: &mut LoadOutcome) {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        // Foreign or stale-schema file: skip wholesale.
        outcome.skipped += 1;
        return;
    }
    let mut off = MAGIC.len();
    while off < bytes.len() {
        // A header written twice by racing shard creators.
        if bytes[off..].starts_with(MAGIC) {
            off += MAGIC.len();
            continue;
        }
        let Some(header) = bytes.get(off..off + 8) else {
            outcome.skipped += 1; // truncated length/CRC prefix
            return;
        };
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        if len > MAX_RECORD_BYTES {
            // The length prefix itself is implausible; framing is no
            // longer trustworthy, abandon the rest of the shard.
            outcome.skipped += 1;
            return;
        }
        let Some(payload) = bytes.get(off + 8..off + 8 + len as usize) else {
            outcome.skipped += 1; // truncated tail record
            return;
        };
        off += 8 + len as usize;
        if crc32_bytes(payload) != crc {
            outcome.skipped += 1; // corrupt record: skip, never serve
            continue;
        }
        match decode_payload(payload) {
            Some(rec) => outcome.records.push(rec),
            None => outcome.skipped += 1, // valid CRC but foreign shape
        }
    }
}

/// Serializes `key ++ report ++ latencies` with every numeric field
/// little-endian and floats as IEEE-754 bit patterns.
fn encode_payload(key: &Digest, outcome: &SimOutcome) -> Vec<u8> {
    let report = &outcome.report;
    let latencies = &outcome.latencies_ms;
    let mut out = Vec::with_capacity(FIXED_PAYLOAD_BYTES + 8 * latencies.len());
    out.extend_from_slice(key);
    let mut f = |v: f64| out.extend_from_slice(&v.to_bits().to_le_bytes());
    f(report.duration_s);
    f(report.on_time_s);
    let mut u = |v: u64| out.extend_from_slice(&v.to_le_bytes());
    u(report.committed);
    u(report.executed);
    u(report.lost);
    u(report.uncommitted_at_end);
    u(report.backups);
    u(report.restores);
    u(report.rollbacks);
    u(report.tasks_completed);
    u(report.backups_torn);
    u(report.backup_retries);
    u(report.restores_corrupt);
    u(report.safe_mode_entries);
    u(report.committed_lost);
    let e = &report.energy;
    for j in [
        e.harvested,
        e.converted,
        e.compute,
        e.backup,
        e.restore,
        e.sleep,
        e.regulator,
        e.stored_at_end,
        e.storage_wasted,
    ] {
        out.extend_from_slice(&j.get().to_bits().to_le_bytes());
    }
    // A list too long for the count is far past `MAX_RECORD_BYTES`,
    // so `append` refuses the record whatever count it carries.
    let count = u32::try_from(latencies.len()).unwrap_or(u32::MAX);
    out.extend_from_slice(&count.to_le_bytes());
    for &ms in latencies {
        out.extend_from_slice(&ms.to_bits().to_le_bytes());
    }
    out
}

/// Inverse of [`encode_payload`]; `None` unless the payload is exactly
/// as long as its latency count says (schema `nvpsimc2`).
fn decode_payload(payload: &[u8]) -> Option<(Digest, SimOutcome)> {
    let count_bytes = payload.get(FIXED_PAYLOAD_BYTES - 4..FIXED_PAYLOAD_BYTES)?;
    let count = u32::from_le_bytes(count_bytes.try_into().expect("4 bytes")) as usize;
    if payload.len() - FIXED_PAYLOAD_BYTES != count.checked_mul(8)? {
        return None;
    }
    let mut key = [0u8; 32];
    key.copy_from_slice(&payload[..32]);
    let mut off = 32;
    let mut next = || {
        let v = u64::from_le_bytes(payload[off..off + 8].try_into().expect("8 bytes"));
        off += 8;
        v
    };
    let mut report = RunReport {
        duration_s: f64::from_bits(next()),
        on_time_s: f64::from_bits(next()),
        committed: next(),
        executed: next(),
        lost: next(),
        uncommitted_at_end: next(),
        backups: next(),
        restores: next(),
        rollbacks: next(),
        tasks_completed: next(),
        backups_torn: next(),
        backup_retries: next(),
        restores_corrupt: next(),
        safe_mode_entries: next(),
        committed_lost: next(),
        ..RunReport::default()
    };
    report.energy.harvested = Joules::new(f64::from_bits(next()));
    report.energy.converted = Joules::new(f64::from_bits(next()));
    report.energy.compute = Joules::new(f64::from_bits(next()));
    report.energy.backup = Joules::new(f64::from_bits(next()));
    report.energy.restore = Joules::new(f64::from_bits(next()));
    report.energy.sleep = Joules::new(f64::from_bits(next()));
    report.energy.regulator = Joules::new(f64::from_bits(next()));
    report.energy.stored_at_end = Joules::new(f64::from_bits(next()));
    report.energy.storage_wasted = Joules::new(f64::from_bits(next()));
    let latencies_ms = payload[FIXED_PAYLOAD_BYTES..]
        .chunks_exact(8)
        .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes"))))
        .collect();
    Some((key, SimOutcome { report, latencies_ms }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unique_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("{tag}_{}_{n}", std::process::id()))
    }

    fn sample_report(salt: u64) -> RunReport {
        let mut r = RunReport {
            duration_s: 2.0 + salt as f64 * 0.125,
            on_time_s: 1.0,
            committed: 1000 + salt,
            executed: 1200 + salt,
            lost: 7,
            backups: 42,
            tasks_completed: 3,
            ..RunReport::default()
        };
        r.energy.compute = Joules::new(1e-6 + salt as f64 * 1e-9);
        r.energy.harvested = Joules::new(2e-6);
        r
    }

    fn plain(salt: u64) -> SimOutcome {
        SimOutcome { report: sample_report(salt), latencies_ms: Vec::new() }
    }

    fn key_of(b: u8) -> Digest {
        let mut k = [0u8; 32];
        k[0] = b;
        k[1] = b.wrapping_add(1);
        k
    }

    #[test]
    fn payload_round_trips_bit_exactly() {
        let outcome = plain(9);
        let key = key_of(0xAB);
        let (k2, o2) = decode_payload(&encode_payload(&key, &outcome)).unwrap();
        assert_eq!(k2, key);
        assert_eq!(o2, outcome);
        assert_eq!(
            o2.report.energy.compute.get().to_bits(),
            outcome.report.energy.compute.get().to_bits()
        );
    }

    /// A trial outcome: `n` recovery latencies cycling through extreme
    /// (NaN-free) bit patterns, on a report with extreme fields.
    fn trial(n: usize) -> SimOutcome {
        const EXTREMES: [f64; 8] = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            1.234_567_890_123_456_7e-3,
        ];
        let mut report = sample_report(3);
        report.duration_s = f64::MAX;
        report.on_time_s = 5e-324;
        report.committed = u64::MAX;
        report.restores_corrupt = n as u64;
        report.energy.storage_wasted = Joules::new(f64::NEG_INFINITY);
        let latencies_ms = (0..n).map(|i| EXTREMES[i % EXTREMES.len()] * (i + 1) as f64).collect();
        SimOutcome { report, latencies_ms }
    }

    #[test]
    fn trial_records_round_trip_bit_exactly() {
        let dir = unique_dir("nvp_persist_trials");
        let (store, _) = PersistentStore::open(&dir).unwrap();
        let longest = (MAX_RECORD_BYTES as usize - FIXED_PAYLOAD_BYTES) / 8;
        let cases =
            [(key_of(0x50), trial(0)), (key_of(0x51), trial(37)), (key_of(0x52), trial(longest))];
        for (key, outcome) in &cases {
            let encoded = encode_payload(key, outcome);
            let (k2, o2) = decode_payload(&encoded).unwrap();
            assert_eq!(k2, *key);
            assert_eq!(encode_payload(&k2, &o2), encoded, "bit-exact in memory");
            store.append(key, outcome).unwrap();
        }
        // One latency past the bound is refused and leaves no trace.
        assert!(store.append(&key_of(0x53), &trial(longest + 1)).is_err());
        let (_, loaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!((loaded.skipped, loaded.quarantined), (0, 0));
        assert_eq!(loaded.records.len(), cases.len());
        for ((key, outcome), (k2, o2)) in cases.iter().zip(&loaded.records) {
            assert_eq!(encode_payload(k2, o2), encode_payload(key, outcome), "bit-exact on disk");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A small shard: one plain record and one trial record.
    fn mixed_shard() -> (Vec<u8>, Vec<Vec<u8>>) {
        let records = [(key_of(0x60), plain(1)), (key_of(0x61), trial(5))];
        let mut bytes = MAGIC.to_vec();
        let mut encoded = Vec::new();
        for (key, outcome) in &records {
            let payload = encode_payload(key, outcome);
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32_bytes(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
            encoded.push(payload);
        }
        (bytes, encoded)
    }

    /// Scans `bytes` and checks every served record is one of
    /// `originals`, bit for bit.
    fn scan_serves_only_originals(bytes: &[u8], originals: &[Vec<u8>]) -> LoadOutcome {
        let mut outcome = LoadOutcome::default();
        scan_shard(bytes, &mut outcome);
        for (key, served) in &outcome.records {
            let encoded = encode_payload(key, served);
            assert!(originals.contains(&encoded), "a damaged record was served");
        }
        outcome
    }

    #[test]
    fn every_truncation_and_bit_flip_serves_no_damaged_record() {
        let (bytes, originals) = mixed_shard();
        let first_end = MAGIC.len() + 8 + originals[0].len();
        let whole = scan_serves_only_originals(&bytes, &originals);
        assert_eq!((whole.records.len(), whole.skipped), (2, 0));
        for cut in 0..bytes.len() {
            let loaded = scan_serves_only_originals(&bytes[..cut], &originals);
            let intact = usize::from(cut >= first_end);
            assert_eq!(loaded.records.len(), intact, "cut at {cut}");
            // Only a cut on a record boundary looks like a shorter clean
            // shard; every other cut is seen as damage.
            let clean = cut == MAGIC.len() || cut == first_end;
            assert_eq!(loaded.skipped == 0, clean, "cut at {cut}");
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let loaded = scan_serves_only_originals(&flipped, &originals);
            assert!(loaded.skipped > 0, "flip of bit {bit} went unnoticed");
        }
        // The previous schema's magic on otherwise valid records.
        let mut stale = bytes.clone();
        stale[..MAGIC.len()].copy_from_slice(b"nvpsimc1");
        let loaded = scan_serves_only_originals(&stale, &originals);
        assert_eq!((loaded.records.len(), loaded.skipped), (0, 1));
    }

    #[test]
    fn append_then_reopen_recovers_all_records() {
        let dir = unique_dir("nvp_persist_roundtrip");
        let (store, loaded) = PersistentStore::open(&dir).unwrap();
        assert!(loaded.records.is_empty());
        for i in 0..20u8 {
            // Spread over a few shards (keys differing in the first
            // hex digit).
            store.append(&key_of((i % 4) << 4), &plain(u64::from(i))).unwrap();
        }
        let (_, reloaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!(reloaded.records.len(), 20);
        assert_eq!(reloaded.skipped, 0);
        assert!(reloaded.records.iter().any(|(k, o)| k[0] == 0x20 && o.report.committed == 1002));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_record_is_dropped_not_fatal() {
        let dir = unique_dir("nvp_persist_trunc");
        let (store, _) = PersistentStore::open(&dir).unwrap();
        let key = key_of(0x11);
        store.append(&key, &plain(1)).unwrap();
        store.append(&key, &plain(2)).unwrap();
        let shard = dir.join("1.log");
        let bytes = fs::read(&shard).unwrap();
        // Chop the second record in half, as a crash mid-append would.
        fs::write(&shard, &bytes[..bytes.len() - FIXED_PAYLOAD_BYTES / 2]).unwrap();
        let (_, loaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!(loaded.records.len(), 1, "intact prefix record must survive");
        assert_eq!(loaded.records[0].1.report.committed, sample_report(1).committed);
        assert_eq!(loaded.skipped, 1);
        assert_eq!(loaded.quarantined, 1);
        assert!(dir.join("1.log.quarantine").exists(), "damaged shard renamed aside");
        // Healing: salvage was re-appended, so the next open is clean.
        let (_, healed) = PersistentStore::open(&dir).unwrap();
        assert_eq!(healed.records.len(), 1);
        assert_eq!(healed.skipped, 0);
        assert_eq!(healed.quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_crc_byte_skips_only_that_record() {
        let dir = unique_dir("nvp_persist_crc");
        let (store, _) = PersistentStore::open(&dir).unwrap();
        let key = key_of(0x22);
        store.append(&key, &plain(1)).unwrap();
        store.append(&key, &plain(2)).unwrap();
        store.append(&key, &plain(3)).unwrap();
        let shard = dir.join("2.log");
        let mut bytes = fs::read(&shard).unwrap();
        // Flip one payload byte inside the *middle* record.
        let middle_payload = MAGIC.len() + (8 + FIXED_PAYLOAD_BYTES) + 8 + 40;
        bytes[middle_payload] ^= 0xFF;
        fs::write(&shard, &bytes).unwrap();
        let (_, loaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!(loaded.records.len(), 2, "records around the corrupt one must survive");
        assert_eq!(loaded.skipped, 1);
        assert_eq!(loaded.quarantined, 1);
        let committed: Vec<u64> = loaded.records.iter().map(|(_, o)| o.report.committed).collect();
        assert_eq!(committed, vec![sample_report(1).committed, sample_report(3).committed]);
        // Both survivors were healed into a fresh shard.
        let (_, healed) = PersistentStore::open(&dir).unwrap();
        assert_eq!(healed.records.len(), 2);
        assert_eq!(healed.quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_quarantines_get_numbered_suffixes() {
        let dir = unique_dir("nvp_persist_requarantine");
        let (store, _) = PersistentStore::open(&dir).unwrap();
        let key = key_of(0x44);
        for round in 1..=3u64 {
            store.append(&key, &plain(round)).unwrap();
            let shard = dir.join("4.log");
            let mut bytes = fs::read(&shard).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            fs::write(&shard, &bytes).unwrap();
            let (_, loaded) = PersistentStore::open(&dir).unwrap();
            assert_eq!(loaded.quarantined, 1, "round {round}");
        }
        assert!(dir.join("4.log.quarantine").exists());
        assert!(dir.join("4.log.quarantine.2").exists());
        assert!(dir.join("4.log.quarantine.3").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_and_stale_schema_files_are_skipped_wholesale() {
        let dir = unique_dir("nvp_persist_foreign");
        let (store, _) = PersistentStore::open(&dir).unwrap();
        store.append(&key_of(0x33), &plain(1)).unwrap();
        fs::write(dir.join("zz.log"), b"nvpsimc0old-schema-bytes").unwrap();
        fs::write(dir.join("not-a-cache.log"), b"short").unwrap();
        let (_, loaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.skipped, 2);
        assert_eq!(loaded.quarantined, 2);
        assert!(dir.join("zz.log.quarantine").exists());
        assert!(dir.join("not-a-cache.log.quarantine").exists());
        assert!(dir.join("3.log").exists(), "healthy shard untouched");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_two_handle_append_recovers_every_record() {
        let dir = unique_dir("nvp_persist_concurrent");
        // Two independent handles on the same directory — the
        // in-process equivalent of two `repro` processes sharing
        // `NVP_CACHE_DIR` — appending into the same shards from two
        // threads.
        let (a, _) = PersistentStore::open(&dir).unwrap();
        let (b, _) = PersistentStore::open(&dir).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..50u64 {
                    a.append(&key_of((i % 3) as u8), &plain(i)).unwrap();
                }
            });
            s.spawn(|| {
                for i in 50..100u64 {
                    b.append(&key_of((i % 3) as u8), &plain(i)).unwrap();
                }
            });
        });
        let (_, loaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!(loaded.skipped, 0, "interleaved whole-record appends never corrupt");
        assert_eq!(loaded.quarantined, 0);
        assert_eq!(loaded.records.len(), 100);
        let mut committed: Vec<u64> =
            loaded.records.iter().map(|(_, o)| o.report.committed).collect();
        committed.sort_unstable();
        let expect: Vec<u64> = (0..100).map(|i| 1000 + i).collect();
        assert_eq!(committed, expect);
        let _ = fs::remove_dir_all(&dir);
    }
}
