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
//! Each shard file `<x>.log` (`x` = first key nibble, hex) is a log in
//! the shared frame format of [`crate::record`]: the 8-byte magic
//! `b"nvpsimc3"` — the digit is the schema version, bumped whenever the
//! record layout or the key derivation changes so stale caches are
//! skipped wholesale rather than misdecoded or kept as dead records
//! (`3` moved keys to canonical field encodings and spec-keyed traces)
//! — then CRC-framed records of at most
//! [`MAX_RECORD_BYTES`] whose payload is
//!
//! ```text
//! key (32 bytes) ++ RunReport (24 × 8-byte fields, le)
//!     ++ n: u32 le ++ n recovery latencies (8-byte f64 bits, le)
//! ```
//!
//! The latency list is empty for every run kind except an F12
//! fault-campaign trial. Floats are stored as IEEE-754 bit patterns, so
//! a reloaded [`SimOutcome`] is bit-identical to the one computed, and
//! artifacts built from cache hits stay byte-identical to cold runs.
//!
//! ## Failure tolerance
//!
//! Loading is strictly best-effort — a damaged cache can cost time,
//! never correctness. The shared scan drops a torn tail record, skips a
//! CRC-bad one, and abandons the rest of a shard whose framing is no
//! longer trustworthy; a CRC-valid record of the wrong shape is skipped
//! too. Records are appended with a single `O_APPEND` write each, so two
//! processes filling the same cache interleave whole records; a header
//! both wrote to a fresh shard is tolerated, and duplicate keys are
//! benign — both writers computed bit-identical reports. Appends are
//! not fsynced: a record lost to a crash only costs its recomputation.
//!
//! ## Quarantine
//!
//! A shard that shows *any* damage on load — a torn tail, a CRC
//! mismatch, a foreign or stale-schema file — is **quarantined**: copied
//! to `<name>.quarantine` (suffixed `.2`, `.3`, … if earlier quarantines
//! exist) and rewritten in place with the records salvaged from it, so
//! the next open is clean while the copy preserves the evidence. It is
//! counted in [`LoadOutcome::quarantined`], so operators can tell a
//! *cold* cache from a *corrupted* one instead of records silently
//! vanishing. The counter flows through
//! [`crate::SimCacheStats::quarantined`] into the `repro` cache summary
//! and the `nvpd` wire stats.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use nvp_core::RunReport;
use nvp_energy::units::Joules;

use crate::record::{self, put_f64, put_f64s, put_u64, Reader};
use crate::simcache::{Digest, SimOutcome};

/// Shard-file magic: `nvpsimc` + schema version digit.
const MAGIC: &[u8; 8] = b"nvpsimc3";

/// Payload length of a record with no latencies: key, 24 eight-byte
/// report fields (2 + 13 + 9), latency count.
const FIXED_PAYLOAD_BYTES: usize = 32 + 24 * 8 + 4;

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
    /// Shard files quarantined because the scan found damage in them.
    /// Each was rewritten with its salvaged records, so a subsequent
    /// open reports the directory clean.
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
        let mut outcome = LoadOutcome::default();
        // Deterministic scan order: sorted shard names.
        let mut shards: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "log"))
            .collect();
        shards.sort();
        for shard in shards {
            // An unreadable shard scans as a foreign one.
            let bytes = fs::read(&shard).unwrap_or_default();
            let mut local = LoadOutcome::default();
            let salvaged = scan_shard(&bytes, &mut local);
            if local.skipped > 0 {
                let healed = record::log_image(MAGIC, salvaged, MAX_RECORD_BYTES)
                    .and_then(|image| record::quarantine(&shard, Some(&image)));
                match healed {
                    Ok(target) => {
                        outcome.quarantined += 1;
                        eprintln!(
                            "warning: sim cache shard {} damaged ({} record(s) lost); \
                             quarantined as {}",
                            shard.display(),
                            local.skipped,
                            target.display()
                        );
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
        Ok((PersistentStore { dir: dir.to_path_buf() }, outcome))
    }

    /// Appends one record to the key's shard. The header (for a fresh
    /// shard) and the record go out in a single `O_APPEND` write, so
    /// concurrent appenders interleave whole records; two racing on a
    /// fresh shard may both write the header, which the scan tolerates.
    /// A record longer than the loader accepts is refused, not written.
    pub(crate) fn append(&self, key: &Digest, outcome: &SimOutcome) -> io::Result<()> {
        let shard = self.dir.join(format!("{:x}.log", key[0] >> 4));
        let fresh = fs::metadata(&shard).map_or(true, |m| m.len() == 0);
        let mut record = if fresh { MAGIC.to_vec() } else { Vec::new() };
        record::put_frame(&mut record, &encode_payload(key, outcome), MAX_RECORD_BYTES)?;
        fs::OpenOptions::new().create(true).append(true).open(&shard)?.write_all(&record)
    }
}

/// Loads one shard image into `outcome` and returns the payloads it
/// served, for a quarantine to salvage.
fn scan_shard<'a>(bytes: &'a [u8], outcome: &mut LoadOutcome) -> Vec<&'a [u8]> {
    let mut log = record::scan(bytes, MAGIC, MAX_RECORD_BYTES);
    outcome.skipped += log.damaged;
    log.payloads.retain(|payload| match decode_payload(payload) {
        Ok(rec) => {
            outcome.records.push(rec);
            true
        }
        Err(_) => {
            outcome.skipped += 1; // valid CRC but foreign shape
            false
        }
    });
    log.payloads
}

/// Serializes `key ++ report ++ latencies`.
fn encode_payload(key: &Digest, outcome: &SimOutcome) -> Vec<u8> {
    let (r, latencies) = (&outcome.report, &outcome.latencies_ms);
    let e = &r.energy;
    let mut out = Vec::with_capacity(FIXED_PAYLOAD_BYTES + 8 * latencies.len());
    out.extend_from_slice(key);
    put_f64(&mut out, r.duration_s);
    put_f64(&mut out, r.on_time_s);
    for v in [
        r.committed,
        r.executed,
        r.lost,
        r.uncommitted_at_end,
        r.backups,
        r.restores,
        r.rollbacks,
        r.tasks_completed,
        r.backups_torn,
        r.backup_retries,
        r.restores_corrupt,
        r.safe_mode_entries,
        r.committed_lost,
    ] {
        put_u64(&mut out, v);
    }
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
        put_f64(&mut out, j.get());
    }
    put_f64s(&mut out, latencies);
    out
}

/// Inverse of [`encode_payload`]; an error unless the payload is
/// exactly as long as its latency count says (schema `nvpsimc3`).
fn decode_payload(payload: &[u8]) -> io::Result<(Digest, SimOutcome)> {
    let mut r = Reader::new(payload);
    let key = r.digest()?;
    let mut report = RunReport {
        duration_s: r.f64()?,
        on_time_s: r.f64()?,
        committed: r.u64()?,
        executed: r.u64()?,
        lost: r.u64()?,
        uncommitted_at_end: r.u64()?,
        backups: r.u64()?,
        restores: r.u64()?,
        rollbacks: r.u64()?,
        tasks_completed: r.u64()?,
        backups_torn: r.u64()?,
        backup_retries: r.u64()?,
        restores_corrupt: r.u64()?,
        safe_mode_entries: r.u64()?,
        committed_lost: r.u64()?,
        ..RunReport::default()
    };
    let e = &mut report.energy;
    for j in [
        &mut e.harvested,
        &mut e.converted,
        &mut e.compute,
        &mut e.backup,
        &mut e.restore,
        &mut e.sleep,
        &mut e.regulator,
        &mut e.stored_at_end,
        &mut e.storage_wasted,
    ] {
        *j = Joules::new(r.f64()?);
    }
    let latencies_ms = r.f64s()?;
    r.done()?;
    Ok((key, SimOutcome { report, latencies_ms }))
}

#[cfg(test)]
pub(crate) mod tests {
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
    pub(crate) fn mixed_shard() -> Vec<u8> {
        let records = [(key_of(0x60), plain(1)), (key_of(0x61), trial(5))];
        let payloads = records.iter().map(|(key, outcome)| encode_payload(key, outcome));
        record::log_image(MAGIC, payloads, MAX_RECORD_BYTES).unwrap()
    }

    /// Loads a shard image through the real loader: every served record
    /// re-encoded, and the damage counted.
    pub(crate) fn load_shard(bytes: &[u8]) -> (Vec<Vec<u8>>, u64) {
        let mut outcome = LoadOutcome::default();
        scan_shard(bytes, &mut outcome);
        let served = outcome.records.iter().map(|(key, served)| encode_payload(key, served));
        (served.collect(), outcome.skipped)
    }

    /// Pinned bytes of a one-record shard: a change here changes the
    /// on-disk format, which must bump the schema digit in [`MAGIC`].
    const PINNED_SHARD: &str = concat!(
        "6e767073696d6333f40000005fae8054606162636465666768696a6b6c6d6e6f7071727374757677",
        "78797a7b7c7d7e7f0000000000000440000000000000f43fe903000000000000b104000000000000",
        "070000000000000000000000000000002a0000000000000029000000000000000000000000000000",
        "03000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "09000000000000008dedb5a0f7c6c03e000000000000000054e41071732ab93e0000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000080",
        "02000000000000000000e03f000000000000f07f",
    );

    #[test]
    fn shard_record_format_is_pinned() {
        let dir = unique_dir("nvp_persist_pin");
        let (store, _) = PersistentStore::open(&dir).unwrap();
        let mut report = RunReport {
            duration_s: 2.5,
            on_time_s: 1.25,
            committed: 1001,
            executed: 1201,
            lost: 7,
            backups: 42,
            restores: 41,
            tasks_completed: 3,
            committed_lost: 9,
            ..RunReport::default()
        };
        report.energy.harvested = Joules::new(2e-6);
        report.energy.compute = Joules::new(1.5e-6);
        report.energy.storage_wasted = Joules::new(-0.0);
        let outcome = SimOutcome { report, latencies_ms: vec![0.5, f64::INFINITY] };
        let key: Digest = std::array::from_fn(|i| 0x60 + i as u8);
        store.append(&key, &outcome).unwrap();
        let bytes = fs::read(dir.join("6.log")).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PINNED_SHARD);
        let _ = fs::remove_dir_all(&dir);
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
