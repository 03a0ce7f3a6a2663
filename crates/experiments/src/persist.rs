//! Persistent on-disk backing for the simulation-result cache.
//!
//! The in-memory cache in [`crate::simcache`] dies with the process, so
//! a warm full-campaign rerun still pays for every unique simulation.
//! This module makes the cache durable: an **append-only record log**
//! under a cache directory a binary attaches (`NVP_CACHE_DIR`, or `<out_dir>/.simcache`
//! for the `repro` binary), **sharded by the first hex digit** of the
//! SHA-256 content key, so concurrent writers rarely touch the same
//! file and an open reads at most 16 small files. (An open pays
//! 5–10 µs per file it reads, more than it pays per record, so fewer,
//! larger shards open faster.)
//!
//! ## Record format
//!
//! Each shard file `<x>.log` (`x` = first key nibble, hex) is a log in
//! the shared frame format of [`crate::record`]: the 8-byte magic
//! `b"nvpsimc4"` — the digit is the schema version, bumped whenever the
//! record layout or the key derivation changes so stale caches are
//! skipped wholesale rather than misdecoded or kept as dead records
//! (`3` moved keys to canonical field encodings and spec-keyed traces,
//! `4` gave every record a kind) — then CRC-framed records of at most
//! [`MAX_RECORD_BYTES`] whose payload is
//!
//! ```text
//! kind: u8 ++ key (32 bytes) ++ value
//! kind 0, a SimOutcome: RunReport (24 × 8-byte fields, le)
//!     ++ n: u32 le ++ n recovery latencies (8-byte f64 bits, le)
//! kind 1, a TraceSummary: average, peak, energy, duration,
//!     threshold (f64 bits), emergencies (u64), longest, mean and
//!     above-threshold fraction (f64 bits), dt (f64 bits),
//!     n: u32, n outage lengths in samples (LEB128 varints)
//! kind 2, a TaskCost: instructions, cycles (u64), energy (f64 bits)
//! ```
//!
//! The latency list is empty for every run kind except an F12
//! fault-campaign trial; summaries and task costs are the *inputs* a
//! campaign derives before it simulates. Floats are stored as IEEE-754
//! bit patterns and outage durations as whole sample counts, so a
//! reloaded value is bit-identical to the one computed and artifacts
//! built from cache hits stay byte-identical to cold runs; a value that
//! would not round-trip, or a record over the bound, is not written.
//!
//! ## One index, one lookup
//!
//! [`PersistentStore::open`] decodes no record. It indexes every intact
//! record of every kind by its key: where its frame lies in the key's
//! shard, how long the frame is, and its kind. A later record of a key
//! replaces an earlier one, and [`PersistentStore::append`] indexes what
//! it writes. [`PersistentStore::get`] is the one read path: it re-reads
//! the key's frame with one seek and one read on the shard's held read
//! handle (the scan's own handle of an intact shard, so a shard is
//! opened once per attach; a healed shard's is opened at its first
//! read), checks its CRC, kind and key, and decodes it. A record that
//! fails any check, or a CRC-valid one that does not decode, is a miss:
//! it is recomputed and appended, and the later record wins. A damaged,
//! truncated or rewritten shard is therefore never served, only
//! recomputed.
//!
//! ## Failure tolerance
//!
//! Loading is strictly best-effort — a damaged cache can cost time,
//! never correctness. The shared scan drops a torn tail record, skips a
//! CRC-bad one, and abandons the rest of a shard whose framing is no
//! longer trustworthy; a CRC-valid record of an unknown kind, too short
//! to hold a key, or in another key's shard is skipped too. Records are
//! appended with a single `O_APPEND` write each, so two processes
//! filling the same cache interleave whole records; a header both wrote
//! to a fresh shard is tolerated, and duplicate keys are benign — both
//! writers computed bit-identical values. Appends are not fsynced: a
//! record lost to a crash only costs its recomputation.
//!
//! ## Quarantine
//!
//! A shard that shows *any* damage on load — a torn tail, a CRC
//! mismatch, a foreign or stale-schema file — is **quarantined**: copied
//! to `<name>.quarantine` (suffixed `.2`, `.3`, … if earlier quarantines
//! exist) and rewritten in place with the records salvaged from it, so
//! the next open is clean while the copy preserves the evidence; the
//! index then names where the salvaged records lie in the healed shard.
//! It is counted in [`LoadOutcome::quarantined`], so operators can tell
//! a *cold* cache from a *corrupted* one instead of records silently
//! vanishing. The counter flows through
//! [`crate::SimCacheStats::quarantined`] into the `repro` cache summary
//! and the `nvpd` wire stats.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use nvp_core::{RunReport, TaskCost};
use nvp_energy::units::Joules;
use nvp_energy::{OutageStats, TraceSummary, DEFAULT_DT_S};

use crate::record::{self, put_f64, put_f64s, put_u32, put_u64, put_varint, Reader};
use crate::simcache::{Digest, SimOutcome};

/// Shard-file magic: `nvpsimc` + schema version digit.
const MAGIC: &[u8; 8] = b"nvpsimc4";

/// Record kinds: the first byte of every payload.
const KIND_OUTCOME: u8 = 0;
const KIND_SUMMARY: u8 = 1;
const KIND_TASK_COST: u8 = 2;

/// Length of a frame header: the length prefix and the CRC.
const HEADER_BYTES: usize = 8;

/// Payload length of an outcome record with no latencies: kind, key, 24
/// eight-byte report fields (2 + 13 + 9), latency count.
const FIXED_PAYLOAD_BYTES: usize = 1 + 32 + 24 * 8 + 4;

/// Upper bound a length prefix may claim before the loader stops
/// trusting the shard's framing entirely; the writer refuses (does not
/// persist) a longer record. It leaves room for an F12 trial of about
/// 8,100 recovery latencies (the largest default-campaign trial logs
/// 77, the largest over a 200 s trace 1,911) and for a trace summary
/// about 50 times as eventful as a default one (about 1.2 KB).
const MAX_RECORD_BYTES: u32 = 1 << 16;

/// The damage [`PersistentStore::open`] found.
#[derive(Debug, Default)]
pub(crate) struct LoadOutcome {
    /// Records (or whole unreadable/foreign files) dropped during the
    /// scan — corruption tolerated, never served.
    pub skipped: u64,
    /// Shard files quarantined because the scan found damage in them.
    /// Each was rewritten with its salvaged records, so a subsequent
    /// open reports the directory clean.
    pub quarantined: u64,
}

/// A value the store keeps, as a record of its own kind.
pub(crate) trait Stored: Sized {
    /// The record kind: the payload's first byte.
    const KIND: u8;
    /// Appends the value's fields; `None` when they would not decode to
    /// the same bits.
    fn put(&self, out: &mut Vec<u8>) -> Option<()>;
    /// Reads the fields [`put`](Self::put) wrote.
    fn get(r: &mut Reader<'_>) -> io::Result<Self>;
}

/// Where a key's record lies in its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Location {
    /// The byte offset of its frame.
    offset: u64,
    /// The length of its frame, header included.
    len: u32,
    /// Its record kind.
    kind: u8,
}

/// An open cache directory: indexed at open, read by location, appended
/// to afterwards.
#[derive(Debug)]
pub(crate) struct PersistentStore {
    dir: PathBuf,
    /// Every intact record's location, by key.
    index: BTreeMap<Digest, Location>,
    /// Each shard's read handle, by first key nibble: the scan's handle
    /// of an intact shard, or opened at the shard's first read.
    readers: [Option<fs::File>; 16],
}

impl PersistentStore {
    /// Opens (creating if missing) a cache directory and indexes every
    /// intact record of every shard; it decodes none of them.
    pub(crate) fn open(dir: &Path) -> io::Result<(PersistentStore, LoadOutcome)> {
        fs::create_dir_all(dir)?;
        let mut store = PersistentStore {
            dir: dir.to_path_buf(),
            index: BTreeMap::new(),
            readers: Default::default(),
        };
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
            let mut bytes = Vec::new();
            let file =
                fs::File::open(&shard).and_then(|mut f| f.read_to_end(&mut bytes).map(|_| f));
            let name = shard.file_name().unwrap_or_default();
            let nibble = (0..16).find(|&n| name == shard_name(n).as_str());
            let (mut records, skipped) = index_shard(&bytes, nibble);
            if let (Some(n), Ok(file), 0) = (nibble, file, skipped) {
                // An intact shard keeps its handle for reading.
                store.readers[usize::from(n)] = Some(file);
            } else if skipped > 0 {
                let salvage = records.iter().map(|(_, at)| payload_at(&bytes, at));
                let healed = record::log_image(MAGIC, salvage, MAX_RECORD_BYTES)
                    .and_then(|image| Ok((record::quarantine(&shard, Some(&image))?, image)));
                match healed {
                    Ok((target, image)) => {
                        // The salvage moved: its records now lie back to back.
                        records = index_shard(&image, nibble).0;
                        outcome.quarantined += 1;
                        eprintln!(
                            "warning: sim cache shard {} damaged ({skipped} record(s) lost); \
                             quarantined as {}",
                            shard.display(),
                            target.display()
                        );
                    }
                    Err(e) => eprintln!(
                        "warning: sim cache shard {} damaged but could not be quarantined ({e})",
                        shard.display()
                    ),
                }
            }
            outcome.skipped += skipped;
            store.index.extend(records);
        }
        Ok((store, outcome))
    }

    /// The value recorded under `key`: its frame re-read with one seek
    /// and one read on its shard's read handle, then checked and decoded
    /// ([`from_frame`]). `None` when the store indexes no record of
    /// `T`'s kind under `key`, or its record fails a check or does not
    /// decode.
    pub(crate) fn get<T: Stored>(&mut self, key: &Digest) -> Option<T> {
        let at = *self.index.get(key).filter(|at| at.kind == T::KIND)?;
        let nibble = key[0] >> 4;
        let reader = &mut self.readers[usize::from(nibble)];
        if reader.is_none() {
            *reader = Some(fs::File::open(self.dir.join(shard_name(nibble))).ok()?);
        }
        let file = reader.as_mut()?;
        let mut frame = vec![0; at.len as usize];
        let read = file.seek(SeekFrom::Start(at.offset)).and_then(|_| file.read_exact(&mut frame));
        let value = read.ok().and_then(|()| from_frame(&frame, key));
        if value.is_none() {
            // Another process may have healed the shard under a new file
            // since the handle was opened: the next read reopens it.
            *reader = None;
        }
        value
    }

    /// Appends `value` under `key` to the key's shard, indexes it, and
    /// returns the byte offset of its frame. The header (for a fresh
    /// shard) and the record go out in a single `O_APPEND` write, so
    /// concurrent appenders interleave whole records; two racing on a
    /// fresh shard may both write the header, which the scan tolerates.
    /// A value that would not round-trip, or a record longer than the
    /// loader accepts, is refused, not written. An `O_APPEND` write
    /// leaves the file position just past its own bytes, wherever other
    /// appenders' records landed, which locates the frame.
    pub(crate) fn append<T: Stored>(&mut self, key: &Digest, value: &T) -> io::Result<u64> {
        let payload = encode(key, value).ok_or_else(|| record::bad("value does not round-trip"))?;
        let shard = self.dir.join(shard_name(key[0] >> 4));
        let fresh = fs::metadata(&shard).map_or(true, |m| m.len() == 0);
        let mut bytes = if fresh { MAGIC.to_vec() } else { Vec::new() };
        let magic = bytes.len();
        record::put_frame(&mut bytes, &payload, MAX_RECORD_BYTES)?;
        let mut file = fs::OpenOptions::new().create(true).append(true).open(&shard)?;
        file.write_all(&bytes)?;
        let len = bytes.len() - magic;
        let offset = file.stream_position()? - len as u64;
        self.index.insert(*key, Location { offset, len: len as u32, kind: T::KIND });
        Ok(offset)
    }

    /// The number of distinct outcome keys the store indexes.
    pub(crate) fn outcomes(&self) -> u64 {
        self.index.values().filter(|at| at.kind == KIND_OUTCOME).count() as u64
    }
}

/// The file name of the shard of keys whose first nibble is `nibble`.
fn shard_name(nibble: u8) -> String {
    format!("{nibble:x}.log")
}

/// Indexes one shard image, whose file is the shard of `nibble` (`None`
/// for a file that is no shard's): every intact record's key and
/// location in file order, and the number of records skipped.
fn index_shard(image: &[u8], nibble: Option<u8>) -> (Vec<(Digest, Location)>, u64) {
    let log = record::scan(image, MAGIC, MAX_RECORD_BYTES);
    let mut skipped = log.damaged;
    let mut records = Vec::with_capacity(log.payloads.len());
    for (payload, offset) in log.payloads.into_iter().zip(log.offsets) {
        // A frame is never empty.
        let kind = payload[0];
        match payload.get(1..33).and_then(|key| Digest::try_from(key).ok()) {
            Some(key) if kind <= KIND_TASK_COST && Some(key[0] >> 4) == nibble => {
                let len = (HEADER_BYTES + payload.len()) as u32;
                records.push((key, Location { offset, len, kind }));
            }
            _ => skipped += 1, // valid CRC but foreign shape or shard
        }
    }
    (records, skipped)
}

/// The payload of the record at `at` in a shard image.
fn payload_at<'a>(image: &'a [u8], at: &Location) -> &'a [u8] {
    &image[at.offset as usize + HEADER_BYTES..][..at.len as usize - HEADER_BYTES]
}

/// Serializes `kind ++ key ++ value`, or `None` when the value would not
/// decode to the same bits.
fn encode<T: Stored>(key: &Digest, value: &T) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(FIXED_PAYLOAD_BYTES);
    out.push(T::KIND);
    out.extend_from_slice(key);
    value.put(&mut out)?;
    Some(out)
}

/// Inverse of [`encode`]; an error unless the payload is exactly one
/// record of `T`'s kind under `key`.
fn decode<T: Stored>(payload: &[u8], key: &Digest) -> io::Result<T> {
    let mut r = Reader::new(payload);
    if r.u8()? != T::KIND || r.digest()? != *key {
        return Err(record::bad("not this key's record"));
    }
    let value = T::get(&mut r)?;
    r.done()?;
    Ok(value)
}

/// The value one whole frame holds: `None` unless the frame's length
/// and CRC check and its payload decodes under `key`.
fn from_frame<T: Stored>(frame: &[u8], key: &Digest) -> Option<T> {
    let mut rest = frame;
    let payload = record::read_frame(&mut rest, MAX_RECORD_BYTES).ok()?;
    rest.is_empty().then(|| decode(&payload, key).ok())?
}

impl Stored for SimOutcome {
    const KIND: u8 = KIND_OUTCOME;

    fn put(&self, out: &mut Vec<u8>) -> Option<()> {
        let r = &self.report;
        let e = &r.energy;
        put_f64(out, r.duration_s);
        put_f64(out, r.on_time_s);
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
            put_u64(out, v);
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
            put_f64(out, j.get());
        }
        put_f64s(out, &self.latencies_ms);
        Some(())
    }

    fn get(r: &mut Reader<'_>) -> io::Result<SimOutcome> {
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
        Ok(SimOutcome { report, latencies_ms: r.f64s()? })
    }
}

impl Stored for TraceSummary {
    const KIND: u8 = KIND_SUMMARY;

    fn put(&self, out: &mut Vec<u8>) -> Option<()> {
        let o = &self.outages;
        for v in [self.average_w, self.peak_w, self.total_energy_j, self.duration_s, o.threshold_w]
        {
            put_f64(out, v);
        }
        put_u64(out, o.emergency_count);
        for v in [o.longest_outage_s, o.mean_outage_s, o.above_threshold_fraction, DEFAULT_DT_S] {
            put_f64(out, v);
        }
        put_u32(out, u32::try_from(o.outage_durations_s.len()).ok()?);
        for &d in &o.outage_durations_s {
            let n = (d / DEFAULT_DT_S).round();
            // Below 2^53 every count converts exactly.
            if !(0.0..9.0e15).contains(&n)
                || (n as u64 as f64 * DEFAULT_DT_S).to_bits() != d.to_bits()
            {
                return None;
            }
            put_varint(out, n as u64);
        }
        Some(())
    }

    fn get(r: &mut Reader<'_>) -> io::Result<TraceSummary> {
        let [average_w, peak_w, total_energy_j, duration_s, threshold_w] =
            [r.f64()?, r.f64()?, r.f64()?, r.f64()?, r.f64()?];
        let emergency_count = r.u64()?;
        let [longest_outage_s, mean_outage_s, above_threshold_fraction, dt_s] =
            [r.f64()?, r.f64()?, r.f64()?, r.f64()?];
        let n = r.count(1)?;
        let outage_durations_s =
            (0..n).map(|_| Ok(r.varint()? as f64 * dt_s)).collect::<io::Result<_>>()?;
        Ok(TraceSummary {
            average_w,
            peak_w,
            total_energy_j,
            duration_s,
            outages: OutageStats {
                threshold_w,
                emergency_count,
                outage_durations_s,
                longest_outage_s,
                mean_outage_s,
                above_threshold_fraction,
            },
        })
    }
}

impl Stored for TaskCost {
    const KIND: u8 = KIND_TASK_COST;

    fn put(&self, out: &mut Vec<u8>) -> Option<()> {
        put_u64(out, self.instructions);
        put_u64(out, self.cycles);
        put_f64(out, self.energy_j);
        Some(())
    }

    fn get(r: &mut Reader<'_>) -> io::Result<TaskCost> {
        Ok(TaskCost { instructions: r.u64()?, cycles: r.u64()?, energy_j: r.f64()? })
    }
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

    /// The `n`th of distinct keys that share `key_of(b)`'s shard.
    fn nth_key(b: u8, n: u64) -> Digest {
        let mut k = key_of(b);
        k[2..10].copy_from_slice(&n.to_le_bytes());
        k
    }

    /// The committed count of the outcome `store` serves under `key`.
    fn committed(store: &mut PersistentStore, key: &Digest) -> Option<u64> {
        store.get::<SimOutcome>(key).map(|o| o.report.committed)
    }

    #[test]
    fn payload_round_trips_bit_exactly() {
        let outcome = plain(9);
        let key = key_of(0xAB);
        let o2: SimOutcome = decode(&encode(&key, &outcome).unwrap(), &key).unwrap();
        assert_eq!(o2, outcome);
        assert_eq!(
            o2.report.energy.compute.get().to_bits(),
            outcome.report.energy.compute.get().to_bits()
        );
        assert!(decode::<SimOutcome>(&encode(&key, &outcome).unwrap(), &key_of(0xAC)).is_err());
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
        let (mut store, _) = PersistentStore::open(&dir).unwrap();
        let longest = (MAX_RECORD_BYTES as usize - FIXED_PAYLOAD_BYTES) / 8;
        // 2,000 latencies: a long-trace F12 trial (one over a 200 s trace
        // logs 1,911).
        let cases = [
            (key_of(0x50), trial(0)),
            (key_of(0x51), trial(37)),
            (key_of(0x52), trial(2000)),
            (key_of(0x53), trial(longest)),
        ];
        for (key, outcome) in &cases {
            let encoded = encode(key, outcome).unwrap();
            let o2: SimOutcome = decode(&encoded, key).unwrap();
            assert_eq!(encode(key, &o2).unwrap(), encoded, "bit-exact in memory");
            store.append(key, outcome).unwrap();
        }
        // One latency past the bound is refused and leaves no trace.
        assert!(store.append(&key_of(0x54), &trial(longest + 1)).is_err());
        let (mut reopened, loaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!((loaded.skipped, loaded.quarantined), (0, 0));
        assert_eq!(reopened.outcomes(), cases.len() as u64);
        for (key, outcome) in &cases {
            let served = reopened.get::<SimOutcome>(key).expect("stored");
            assert_eq!(encode(key, &served), encode(key, outcome), "bit-exact on disk");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A small shard: one plain record, one trial record, one summary
    /// record and one task-cost record, all of shard 6.
    pub(crate) fn mixed_shard() -> Vec<u8> {
        let payloads = [
            encode(&key_of(0x60), &plain(1)),
            encode(&key_of(0x61), &trial(5)),
            encode(&key_of(0x62), &summary(2)),
            encode(&key_of(0x63), &task_cost(1)),
        ];
        record::log_image(MAGIC, payloads.map(Option::unwrap), MAX_RECORD_BYTES).unwrap()
    }

    /// Loads an image of shard 6 through the real loader: every record
    /// its index locates, read back from its frame as a lookup reads it
    /// and re-encoded, in file order, and the damage counted.
    pub(crate) fn load_shard(bytes: &[u8]) -> (Vec<Vec<u8>>, u64) {
        let (records, skipped) = index_shard(bytes, Some(6));
        let served = records.iter().filter_map(|(key, at)| {
            let frame = &bytes[at.offset as usize..][..at.len as usize];
            match at.kind {
                KIND_OUTCOME => encode(key, &from_frame::<SimOutcome>(frame, key)?),
                KIND_SUMMARY => encode(key, &from_frame::<TraceSummary>(frame, key)?),
                _ => encode(key, &from_frame::<TaskCost>(frame, key)?),
            }
        });
        (served.collect(), skipped)
    }

    /// Pinned bytes of a one-record shard: a change here changes the
    /// on-disk format, which must bump the schema digit in [`MAGIC`].
    const PINNED_SHARD: &str = concat!(
        "6e767073696d6334f5000000caa04a7900606162636465666768696a6b6c6d6e6f70717273747576",
        "7778797a7b7c7d7e7f0000000000000440000000000000f43fe903000000000000b1040000000000",
        "00070000000000000000000000000000002a00000000000000290000000000000000000000000000",
        "00030000000000000000000000000000000000000000000000000000000000000000000000000000",
        "0009000000000000008dedb5a0f7c6c03e000000000000000054e41071732ab93e00000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "8002000000000000000000e03f000000000000f07f",
    );

    #[test]
    fn shard_record_format_is_pinned() {
        let dir = unique_dir("nvp_persist_pin");
        let (mut store, _) = PersistentStore::open(&dir).unwrap();
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
        let (mut store, _) = PersistentStore::open(&dir).unwrap();
        assert_eq!(store.outcomes(), 0);
        for i in 0..20u8 {
            // Spread over a few shards (keys differing in the first
            // hex digit).
            store.append(&nth_key((i % 4) << 4, u64::from(i)), &plain(u64::from(i))).unwrap();
        }
        let (mut reopened, loaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!(reopened.outcomes(), 20);
        assert_eq!(loaded.skipped, 0);
        assert_eq!(committed(&mut reopened, &nth_key(0x20, 2)), Some(1002));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appended_and_scanned_offsets_reread_their_records() {
        let dir = unique_dir("nvp_persist_offsets");
        let (mut store, _) = PersistentStore::open(&dir).unwrap();
        let keys = [key_of(0x70), key_of(0x71), key_of(0x72), key_of(0x80)];
        let appended: Vec<u64> = keys
            .iter()
            .zip(0..)
            .map(|(key, salt)| store.append(key, &trial(salt)).unwrap())
            .collect();
        let (mut reopened, _) = PersistentStore::open(&dir).unwrap();
        let scanned: Vec<u64> = keys.iter().map(|key| reopened.index[key].offset).collect();
        assert_eq!(scanned, appended, "append and scan agree on every offset");
        assert_eq!(reopened.index, store.index, "and on every location");
        for (key, salt) in keys.iter().zip(0..) {
            assert_eq!(reopened.get::<SimOutcome>(key), Some(trial(salt)));
            let at = reopened.index[key];
            reopened.index.insert(*key, Location { offset: at.offset + 1, ..at });
            assert!(reopened.get::<SimOutcome>(key).is_none(), "a misplaced offset serves nothing");
            reopened.index.insert(*key, at);
        }
        let second = reopened.index[&keys[1]];
        reopened.index.insert(keys[0], second);
        assert!(
            reopened.get::<SimOutcome>(&keys[0]).is_none(),
            "another key's record is not served"
        );

        // Damage the middle record of shard 7: the healed shard moves
        // the third record, and open indexes where it now lies.
        let shard = dir.join("7.log");
        let mut bytes = fs::read(&shard).unwrap();
        bytes[appended[1] as usize + 8 + 40] ^= 0xFF;
        fs::write(&shard, &bytes).unwrap();
        assert!(store.get::<SimOutcome>(&keys[1]).is_none(), "a CRC-bad record is not served");
        let (mut healed, loaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!(loaded.quarantined, 1);
        assert!(healed.index[&keys[2]].offset < appended[2], "the healed shard closed the gap");
        assert_eq!(healed.get::<SimOutcome>(&keys[2]), Some(trial(2)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_record_is_dropped_not_fatal() {
        let dir = unique_dir("nvp_persist_trunc");
        let (mut store, _) = PersistentStore::open(&dir).unwrap();
        let key = key_of(0x11);
        store.append(&key, &plain(1)).unwrap();
        store.append(&key, &plain(2)).unwrap();
        let shard = dir.join("1.log");
        let bytes = fs::read(&shard).unwrap();
        // Chop the second record in half, as a crash mid-append would.
        fs::write(&shard, &bytes[..bytes.len() - FIXED_PAYLOAD_BYTES / 2]).unwrap();
        let (mut reopened, loaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!(reopened.outcomes(), 1, "intact prefix record must survive");
        assert_eq!(committed(&mut reopened, &key), Some(sample_report(1).committed));
        assert_eq!(loaded.skipped, 1);
        assert_eq!(loaded.quarantined, 1);
        assert!(dir.join("1.log.quarantine").exists(), "damaged shard renamed aside");
        // Healing: salvage was re-appended, so the next open is clean.
        let (reopened, healed) = PersistentStore::open(&dir).unwrap();
        assert_eq!(reopened.outcomes(), 1);
        assert_eq!(healed.skipped, 0);
        assert_eq!(healed.quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_crc_byte_skips_only_that_record() {
        let dir = unique_dir("nvp_persist_crc");
        let (mut store, _) = PersistentStore::open(&dir).unwrap();
        let keys = [key_of(0x22), key_of(0x23), key_of(0x24)];
        for (key, salt) in keys.iter().zip(1..) {
            store.append(key, &plain(salt)).unwrap();
        }
        let shard = dir.join("2.log");
        let mut bytes = fs::read(&shard).unwrap();
        // Flip one payload byte inside the *middle* record.
        let middle_payload = MAGIC.len() + (8 + FIXED_PAYLOAD_BYTES) + 8 + 40;
        bytes[middle_payload] ^= 0xFF;
        fs::write(&shard, &bytes).unwrap();
        let (mut reopened, loaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!(reopened.outcomes(), 2, "records around the corrupt one must survive");
        assert_eq!(loaded.skipped, 1);
        assert_eq!(loaded.quarantined, 1);
        let served: Vec<Option<u64>> = keys.iter().map(|k| committed(&mut reopened, k)).collect();
        let expect = [Some(sample_report(1).committed), None, Some(sample_report(3).committed)];
        assert_eq!(served, expect);
        // Both survivors were healed into a fresh shard.
        let (reopened, healed) = PersistentStore::open(&dir).unwrap();
        assert_eq!(reopened.outcomes(), 2);
        assert_eq!(healed.quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_quarantines_get_numbered_suffixes() {
        let dir = unique_dir("nvp_persist_requarantine");
        let (mut store, _) = PersistentStore::open(&dir).unwrap();
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
        let (mut store, _) = PersistentStore::open(&dir).unwrap();
        store.append(&key_of(0x33), &plain(1)).unwrap();
        fs::write(dir.join("zz.log"), b"nvpsimc0old-schema-bytes").unwrap();
        fs::write(dir.join("not-a-cache.log"), b"short").unwrap();
        let (reopened, loaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!(reopened.outcomes(), 1);
        assert_eq!(loaded.skipped, 2);
        assert_eq!(loaded.quarantined, 2);
        assert!(dir.join("zz.log.quarantine").exists());
        assert!(dir.join("not-a-cache.log.quarantine").exists());
        assert!(dir.join("3.log").exists(), "healthy shard untouched");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_outside_its_keys_shard_is_skipped() {
        let dir = unique_dir("nvp_persist_misplaced");
        fs::create_dir_all(&dir).unwrap();
        let payload = encode(&key_of(0x35), &plain(1)).unwrap();
        let image = record::log_image(MAGIC, [payload], MAX_RECORD_BYTES).unwrap();
        fs::write(dir.join("4.log"), image).unwrap();
        let (mut store, loaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!((loaded.skipped, loaded.quarantined), (1, 1));
        assert!(store.get::<SimOutcome>(&key_of(0x35)).is_none(), "it is not served");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A wearable trace's summary at the operating threshold, as F1, F2
    /// and F9 read it.
    fn summary(seed: u64) -> TraceSummary {
        nvp_energy::harvester::SourceKind::WristWatch.summarize(
            seed,
            1.0,
            nvp_energy::OPERATING_THRESHOLD_W,
        )
    }

    fn task_cost(salt: u64) -> TaskCost {
        TaskCost { instructions: u64::MAX - salt, cycles: 1 << 40, energy_j: 5e-324 }
    }

    /// Every field of a summary as bit patterns, outage list included.
    fn summary_bits(s: &TraceSummary) -> Vec<u64> {
        let o = &s.outages;
        let scalars = [s.average_w, s.peak_w, s.total_energy_j, s.duration_s, o.threshold_w];
        let rest = [o.longest_outage_s, o.mean_outage_s, o.above_threshold_fraction];
        scalars
            .iter()
            .chain(&rest)
            .chain(&o.outage_durations_s)
            .map(|v| v.to_bits())
            .chain([o.emergency_count])
            .collect()
    }

    fn cost_bits(c: &TaskCost) -> [u64; 3] {
        [c.instructions, c.cycles, c.energy_j.to_bits()]
    }

    #[test]
    fn input_records_round_trip_bit_exactly() {
        let dir = unique_dir("nvp_persist_inputs");
        let (mut store, _) = PersistentStore::open(&dir).unwrap();
        assert!(store.get::<TraceSummary>(&key_of(0x90)).is_none(), "an empty store holds nothing");
        let s = summary(5);
        assert!(s.outages.outage_durations_s.len() > 3, "a summary with outages");
        store.append(&key_of(0x90), &s).unwrap();
        store.append(&key_of(0x91), &task_cost(3)).unwrap();
        let (mut reread, loaded) = PersistentStore::open(&dir).unwrap();
        let served = reread.get::<TraceSummary>(&key_of(0x90)).expect("stored");
        assert_eq!(summary_bits(&served), summary_bits(&s), "bit-exact on disk");
        let served = reread.get::<TaskCost>(&key_of(0x91)).expect("stored");
        assert_eq!(cost_bits(&served), cost_bits(&task_cost(3)), "bit-exact on disk");
        assert!(reread.get::<TaskCost>(&key_of(0x90)).is_none(), "a record serves its own kind");
        assert_eq!((reread.outcomes(), loaded.skipped, loaded.quarantined), (0, 0, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn inputs_that_would_not_decode_the_same_are_not_written() {
        let dir = unique_dir("nvp_persist_inputs_refused");
        let (mut store, _) = PersistentStore::open(&dir).unwrap();
        // A duration that is no whole number of samples.
        let mut off_grid = summary(5);
        off_grid.outages.outage_durations_s[0] += 1e-9;
        assert!(store.append(&key_of(0x92), &off_grid).is_err());
        // A record past its bound: one varint byte per outage.
        let mut eventful = summary(5);
        eventful.outages.outage_durations_s = vec![DEFAULT_DT_S; MAX_RECORD_BYTES as usize];
        assert!(store.append(&key_of(0x93), &eventful).is_err());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "nothing was written");
        assert!(PersistentStore::open(&dir)
            .unwrap()
            .0
            .get::<TraceSummary>(&key_of(0x92))
            .is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_damaged_input_record_is_quarantined_and_only_intact_records_are_served() {
        let dir = unique_dir("nvp_persist_inputs_damaged");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("6.log");
        let mut image = mixed_shard();
        let summary_at = record::scan(&image, MAGIC, MAX_RECORD_BYTES).offsets[2] as usize;
        image[summary_at + 8 + 40] ^= 0x01; // into the summary's fields
        fs::write(&path, &image).unwrap();
        let (mut store, loaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!((store.outcomes(), loaded.quarantined), (2, 1));
        assert!(
            store.get::<TraceSummary>(&key_of(0x62)).is_none(),
            "the damaged summary is not served"
        );
        assert_eq!(
            store.get::<TaskCost>(&key_of(0x63)).as_ref().map(cost_bits),
            Some(cost_bits(&task_cost(1)))
        );
        assert!(dir.join("6.log.quarantine").exists(), "the damaged shard is kept aside");
        // Healed: the salvage holds the intact records, and an append
        // lands behind them.
        store.append(&key_of(0x62), &summary(2)).unwrap();
        let (mut reopened, healed) = PersistentStore::open(&dir).unwrap();
        assert_eq!((reopened.outcomes(), healed.skipped, healed.quarantined), (2, 0, 0));
        assert!(reopened.get::<TraceSummary>(&key_of(0x62)).is_some());
        assert!(reopened.get::<TaskCost>(&key_of(0x63)).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_undecodable_record_is_recomputed_and_the_later_record_wins() {
        let dir = unique_dir("nvp_persist_undecodable");
        fs::create_dir_all(&dir).unwrap();
        // A CRC-valid task-cost record and a CRC-valid outcome record,
        // each one byte short.
        let (cost_key, outcome_key) = (key_of(0x94), key_of(0x95));
        let mut short =
            [encode(&cost_key, &task_cost(4)), encode(&outcome_key, &trial(3))].map(Option::unwrap);
        for payload in &mut short {
            payload.pop();
        }
        let image = record::log_image(MAGIC, short, MAX_RECORD_BYTES).unwrap();
        fs::write(dir.join("9.log"), image).unwrap();
        let (mut store, loaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!((loaded.skipped, loaded.quarantined), (0, 0), "their frames are intact");
        assert!(store.get::<TaskCost>(&cost_key).is_none(), "but the cost is a miss");
        assert!(store.get::<SimOutcome>(&outcome_key).is_none(), "and so is the outcome");
        store.append(&cost_key, &task_cost(4)).unwrap();
        store.append(&outcome_key, &trial(3)).unwrap();
        for store in [&mut store, &mut PersistentStore::open(&dir).unwrap().0] {
            let cost = store.get::<TaskCost>(&cost_key);
            assert_eq!(cost.as_ref().map(cost_bits), Some(cost_bits(&task_cost(4))));
            assert_eq!(store.get::<SimOutcome>(&outcome_key), Some(trial(3)));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Pinned bytes of a two-record input shard: a change here changes
    /// the on-disk format, which must bump the schema digit in [`MAGIC`].
    const PINNED_INPUT_SHARD: &str = concat!(
        "6e767073696d633478000000f01dbf3401a0a1000000000000000000000000000000000000000000",
        "0000000000000000002d431cebe2361a3ffca9f1d24d62603f2d431cebe2360a3f000000000000e0",
        "3ffa9cbb5d2f4d013f02000000000000007b14ae47e17a943f45696ff085c9843f000000000000d0",
        "3f2d431cebe2361a3f0200000003c80139000000678de59a02a1a200000000000000000000000000",
        "0000000000000000000000000000000000ffffffffffffffff000000000001000001000000000000",
        "00",
    );

    #[test]
    fn input_record_format_is_pinned() {
        let outages = OutageStats {
            threshold_w: 33e-6,
            emergency_count: 2,
            outage_durations_s: vec![3.0 * DEFAULT_DT_S, 200.0 * DEFAULT_DT_S],
            longest_outage_s: 200.0 * DEFAULT_DT_S,
            mean_outage_s: 101.5 * DEFAULT_DT_S,
            above_threshold_fraction: 0.25,
        };
        let s = TraceSummary {
            average_w: 1e-4,
            peak_w: 2e-3,
            total_energy_j: 5e-5,
            duration_s: 0.5,
            outages,
        };
        let payloads =
            [encode(&key_of(0xa0), &s).unwrap(), encode(&key_of(0xa1), &task_cost(0)).unwrap()];
        let image = record::log_image(MAGIC, &payloads, MAX_RECORD_BYTES).unwrap();
        let hex: String = image.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PINNED_INPUT_SHARD);
    }

    #[test]
    fn concurrent_two_handle_append_recovers_every_record() {
        let dir = unique_dir("nvp_persist_concurrent");
        // Two independent handles on the same directory — the
        // in-process equivalent of two `repro` processes sharing
        // `NVP_CACHE_DIR` — appending into the same shards from two
        // threads.
        let (mut a, _) = PersistentStore::open(&dir).unwrap();
        let (mut b, _) = PersistentStore::open(&dir).unwrap();
        let key = |i: u64| nth_key((i % 3) as u8, i);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..50u64 {
                    a.append(&key(i), &plain(i)).unwrap();
                }
            });
            s.spawn(|| {
                for i in 50..100u64 {
                    b.append(&key(i), &plain(i)).unwrap();
                }
            });
        });
        let (mut reopened, loaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!(loaded.skipped, 0, "interleaved whole-record appends never corrupt");
        assert_eq!(loaded.quarantined, 0);
        assert_eq!(reopened.outcomes(), 100);
        let served: Vec<Option<u64>> =
            (0..100).map(|i| committed(&mut reopened, &key(i))).collect();
        let expect: Vec<Option<u64>> = (0..100).map(|i| Some(1000 + i)).collect();
        assert_eq!(served, expect);
        let _ = fs::remove_dir_all(&dir);
    }
}
