//! Persistent on-disk backing for the simulation-result cache.
//!
//! The in-memory cache in [`crate::simcache`] dies with the process, so
//! a warm full-campaign rerun still pays for every unique simulation.
//! This module makes the cache durable: an **append-only record log**
//! under a cache directory a binary attaches (`NVP_CACHE_DIR`, or `<out_dir>/.simcache`
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
//! [`PersistentStore::open`] decodes every outcome and indexes every
//! input payload by key; [`PersistentStore::input`] decodes one when it
//! is looked up. A CRC-valid input that does not decode is a miss: it
//! is recomputed and appended, and the later record wins at next open.
//!
//! A record's location is the byte offset of its frame in its key's
//! shard: the scan at open and [`PersistentStore::append`] both report
//! it, and [`PersistentStore::read`] re-reads one record from it, so
//! the in-memory index can let go of a decoded outcome and keep only
//! where its record lies.
//!
//! ## Failure tolerance
//!
//! Loading is strictly best-effort — a damaged cache can cost time,
//! never correctness. The shared scan drops a torn tail record, skips a
//! CRC-bad one, and abandons the rest of a shard whose framing is no
//! longer trustworthy; a CRC-valid record of an unknown kind or the
//! wrong shape is skipped too. Records are appended with a single
//! `O_APPEND` write each, so two processes filling the same cache
//! interleave whole records; a header both wrote to a fresh shard is
//! tolerated, and duplicate keys are benign — both writers computed
//! bit-identical values. Appends are not fsynced: a record lost to a
//! crash only costs its recomputation.
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

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// What [`PersistentStore::open`] recovered from disk.
#[derive(Debug, Default)]
pub(crate) struct LoadOutcome {
    /// Every valid `(key, offset, outcome)` record, shard-major in file
    /// order; `offset` locates the record's frame in its shard.
    pub records: Vec<(Digest, u64, SimOutcome)>,
    /// Records (or whole unreadable/foreign files) dropped during the
    /// scan — corruption tolerated, never served.
    pub skipped: u64,
    /// Shard files quarantined because the scan found damage in them.
    /// Each was rewritten with its salvaged records, so a subsequent
    /// open reports the directory clean.
    pub quarantined: u64,
}

/// A value an input record holds.
#[derive(Debug, Clone)]
pub(crate) enum Input {
    /// A trace's summary.
    Summary(Arc<TraceSummary>),
    /// A program's unconstrained task cost.
    TaskCost(TaskCost),
}

/// An open cache directory: load-once at open, append-only afterwards.
#[derive(Debug)]
pub(crate) struct PersistentStore {
    dir: PathBuf,
    /// Every input record's payload by key, decoded on lookup.
    inputs: BTreeMap<Digest, Vec<u8>>,
}

impl PersistentStore {
    /// Opens (creating if missing) a cache directory and scans every
    /// shard for valid records.
    pub(crate) fn open(dir: &Path) -> io::Result<(PersistentStore, LoadOutcome)> {
        fs::create_dir_all(dir)?;
        let mut store = PersistentStore { dir: dir.to_path_buf(), inputs: BTreeMap::new() };
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
            let salvaged = scan_shard(&bytes, &mut local, &mut store.inputs);
            if local.skipped > 0 {
                let healed =
                    record::log_image(MAGIC, &salvaged, MAX_RECORD_BYTES).and_then(|image| {
                        let target = record::quarantine(&shard, Some(&image))?;
                        Ok((target, record::scan(&image, MAGIC, MAX_RECORD_BYTES).offsets))
                    });
                match healed {
                    Ok((target, offsets)) => {
                        // The salvage moved: its records now lie back to back.
                        let outcomes =
                            salvaged.iter().zip(offsets).filter(|(p, _)| p[0] == KIND_OUTCOME);
                        for ((_, at, _), (_, healed_at)) in local.records.iter_mut().zip(outcomes) {
                            *at = healed_at;
                        }
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
        Ok((store, outcome))
    }

    /// Appends an outcome record to the key's shard and returns the byte
    /// offset of its frame ([`append_payload`](Self::append_payload)).
    pub(crate) fn append(&self, key: &Digest, outcome: &SimOutcome) -> io::Result<u64> {
        self.append_payload(key, &encode_payload(key, outcome))
    }

    /// Re-reads `key`'s record at `offset` in its shard, or `None`
    /// unless one intact frame there holds an outcome under `key`: the
    /// CRC and the key check mean a damaged, truncated or rewritten
    /// shard is never served, only recomputed.
    pub(crate) fn read(&self, key: &Digest, offset: u64) -> Option<SimOutcome> {
        let mut file = fs::File::open(self.shard(key)).ok()?;
        file.seek(SeekFrom::Start(offset)).ok()?;
        let payload = record::read_frame(&mut file, MAX_RECORD_BYTES).ok()?;
        let (found, outcome) = decode_payload(&payload).ok()?;
        (found == *key).then_some(outcome)
    }

    /// The input recorded under `key`, decoded; `None` when no record
    /// holds one, or the last record of `key` does not decode.
    pub(crate) fn input(&self, key: &Digest) -> Option<Input> {
        decode_input(self.inputs.get(key)?).ok().map(|(_, input)| input)
    }

    /// Appends `input` under `key` as [`append`](Self::append) appends
    /// an outcome, and indexes it. A value that does not round-trip is
    /// refused, not written.
    pub(crate) fn append_input(&mut self, key: &Digest, input: &Input) -> io::Result<()> {
        let payload =
            encode_input(key, input).ok_or_else(|| record::bad("input does not round-trip"))?;
        self.append_payload(key, &payload)?;
        self.inputs.insert(*key, payload);
        Ok(())
    }

    /// Appends one record to the key's shard. The header (for a fresh
    /// shard) and the record go out in a single `O_APPEND` write, so
    /// concurrent appenders interleave whole records; two racing on a
    /// fresh shard may both write the header, which the scan tolerates.
    /// A record longer than the loader accepts is refused, not written.
    /// Returns the byte offset of the record's frame in the shard: an
    /// `O_APPEND` write leaves the file position just past its own
    /// bytes, wherever other appenders' records landed.
    fn append_payload(&self, key: &Digest, payload: &[u8]) -> io::Result<u64> {
        let shard = self.shard(key);
        let fresh = fs::metadata(&shard).map_or(true, |m| m.len() == 0);
        let mut record = if fresh { MAGIC.to_vec() } else { Vec::new() };
        let magic = record.len();
        record::put_frame(&mut record, payload, MAX_RECORD_BYTES)?;
        let mut file = fs::OpenOptions::new().create(true).append(true).open(&shard)?;
        file.write_all(&record)?;
        Ok(file.stream_position()? - (record.len() - magic) as u64)
    }

    /// The shard file of `key`: its first hex digit.
    fn shard(&self, key: &Digest) -> PathBuf {
        self.dir.join(format!("{:x}.log", key[0] >> 4))
    }
}

/// Loads one shard image: each outcome into `outcome`, with its frame's
/// offset in `bytes`, and each input payload into `inputs` under its
/// key, a later record replacing an earlier one. Returns the payloads
/// it served, for a quarantine to salvage.
fn scan_shard<'a>(
    bytes: &'a [u8],
    outcome: &mut LoadOutcome,
    inputs: &mut BTreeMap<Digest, Vec<u8>>,
) -> Vec<&'a [u8]> {
    let log = record::scan(bytes, MAGIC, MAX_RECORD_BYTES);
    outcome.skipped += log.damaged;
    let mut served = Vec::with_capacity(log.payloads.len());
    for (payload, offset) in log.payloads.into_iter().zip(log.offsets) {
        // A frame is never empty.
        let kept = match payload[0] {
            KIND_OUTCOME => decode_payload(payload)
                .map(|(key, decoded)| outcome.records.push((key, offset, decoded)))
                .is_ok(),
            KIND_SUMMARY | KIND_TASK_COST => payload
                .get(1..33)
                .and_then(|key| Digest::try_from(key).ok())
                .map(|key| inputs.insert(key, payload.to_vec()))
                .is_some(),
            _ => false,
        };
        if kept {
            served.push(payload);
        } else {
            outcome.skipped += 1; // valid CRC but foreign shape
        }
    }
    served
}

/// Serializes `kind ++ key ++ value`, or `None` when the value would not
/// decode to the same bits.
fn encode_input(key: &Digest, input: &Input) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(128);
    match input {
        Input::Summary(s) => {
            out.push(KIND_SUMMARY);
            out.extend_from_slice(key);
            let o = &s.outages;
            for v in [s.average_w, s.peak_w, s.total_energy_j, s.duration_s, o.threshold_w] {
                put_f64(&mut out, v);
            }
            put_u64(&mut out, o.emergency_count);
            for v in [o.longest_outage_s, o.mean_outage_s, o.above_threshold_fraction, DEFAULT_DT_S]
            {
                put_f64(&mut out, v);
            }
            put_u32(&mut out, u32::try_from(o.outage_durations_s.len()).ok()?);
            for &d in &o.outage_durations_s {
                let n = (d / DEFAULT_DT_S).round();
                // Below 2^53 every count converts exactly.
                if !(0.0..9.0e15).contains(&n)
                    || (n as u64 as f64 * DEFAULT_DT_S).to_bits() != d.to_bits()
                {
                    return None;
                }
                put_varint(&mut out, n as u64);
            }
        }
        Input::TaskCost(c) => {
            out.push(KIND_TASK_COST);
            out.extend_from_slice(key);
            put_u64(&mut out, c.instructions);
            put_u64(&mut out, c.cycles);
            put_f64(&mut out, c.energy_j);
        }
    }
    Some(out)
}

/// Inverse of [`encode_input`]; an error unless the payload is exactly
/// one input record of a known kind.
fn decode_input(payload: &[u8]) -> io::Result<(Digest, Input)> {
    let mut r = Reader::new(payload);
    let kind = r.u8()?;
    let key = r.digest()?;
    let input = match kind {
        KIND_SUMMARY => {
            let [average_w, peak_w, total_energy_j, duration_s, threshold_w] =
                [r.f64()?, r.f64()?, r.f64()?, r.f64()?, r.f64()?];
            let emergency_count = r.u64()?;
            let [longest_outage_s, mean_outage_s, above_threshold_fraction, dt_s] =
                [r.f64()?, r.f64()?, r.f64()?, r.f64()?];
            let n = r.count(1)?;
            let outage_durations_s =
                (0..n).map(|_| Ok(r.varint()? as f64 * dt_s)).collect::<io::Result<_>>()?;
            Input::Summary(Arc::new(TraceSummary {
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
            }))
        }
        KIND_TASK_COST => Input::TaskCost(TaskCost {
            instructions: r.u64()?,
            cycles: r.u64()?,
            energy_j: r.f64()?,
        }),
        _ => return Err(record::bad("unknown input record kind")),
    };
    r.done()?;
    Ok((key, input))
}

/// Serializes an outcome record: `kind ++ key ++ report ++ latencies`.
fn encode_payload(key: &Digest, outcome: &SimOutcome) -> Vec<u8> {
    let (r, latencies) = (&outcome.report, &outcome.latencies_ms);
    let e = &r.energy;
    let mut out = Vec::with_capacity(FIXED_PAYLOAD_BYTES + 8 * latencies.len());
    out.push(KIND_OUTCOME);
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

/// Inverse of [`encode_payload`]; an error unless the payload is an
/// outcome record exactly as long as its latency count says.
fn decode_payload(payload: &[u8]) -> io::Result<(Digest, SimOutcome)> {
    let mut r = Reader::new(payload);
    if r.u8()? != KIND_OUTCOME {
        return Err(record::bad("not an outcome record"));
    }
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
        // 2,000 latencies: a long-trace F12 trial (one over a 200 s trace
        // logs 1,911).
        let cases = [
            (key_of(0x50), trial(0)),
            (key_of(0x51), trial(37)),
            (key_of(0x52), trial(2000)),
            (key_of(0x53), trial(longest)),
        ];
        for (key, outcome) in &cases {
            let encoded = encode_payload(key, outcome);
            let (k2, o2) = decode_payload(&encoded).unwrap();
            assert_eq!(k2, *key);
            assert_eq!(encode_payload(&k2, &o2), encoded, "bit-exact in memory");
            store.append(key, outcome).unwrap();
        }
        // One latency past the bound is refused and leaves no trace.
        assert!(store.append(&key_of(0x54), &trial(longest + 1)).is_err());
        let (_, loaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!((loaded.skipped, loaded.quarantined), (0, 0));
        assert_eq!(loaded.records.len(), cases.len());
        for ((key, outcome), (k2, _, o2)) in cases.iter().zip(&loaded.records) {
            assert_eq!(encode_payload(k2, o2), encode_payload(key, outcome), "bit-exact on disk");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A small shard: one plain record, one trial record, one summary
    /// record and one task-cost record.
    pub(crate) fn mixed_shard() -> Vec<u8> {
        let outcomes = [(key_of(0x60), plain(1)), (key_of(0x61), trial(5))];
        let inputs = [
            (key_of(0x62), Input::Summary(Arc::new(summary(2)))),
            (key_of(0x63), Input::TaskCost(task_cost(1))),
        ];
        let payloads = outcomes
            .iter()
            .map(|(key, outcome)| encode_payload(key, outcome))
            .chain(inputs.iter().map(|(key, input)| encode_input(key, input).unwrap()));
        record::log_image(MAGIC, payloads, MAX_RECORD_BYTES).unwrap()
    }

    /// Loads a shard image through the real loader: every record it
    /// serves (an input when looked up) re-encoded, in file order, and
    /// the damage counted.
    pub(crate) fn load_shard(bytes: &[u8]) -> (Vec<Vec<u8>>, u64) {
        let (mut outcome, mut inputs) = (LoadOutcome::default(), BTreeMap::new());
        let served = scan_shard(bytes, &mut outcome, &mut inputs);
        let store = PersistentStore { dir: PathBuf::new(), inputs };
        let reencoded = served.into_iter().filter_map(|p| match decode_payload(p) {
            Ok((key, served)) => Some(encode_payload(&key, &served)),
            Err(_) => {
                let key = Digest::try_from(&p[1..33]).unwrap();
                store.input(&key).map(|input| encode_input(&key, &input).unwrap())
            }
        });
        (reencoded.collect(), outcome.skipped)
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
        assert!(reloaded
            .records
            .iter()
            .any(|(k, _, o)| k[0] == 0x20 && o.report.committed == 1002));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appended_and_scanned_offsets_reread_their_records() {
        let dir = unique_dir("nvp_persist_offsets");
        let (store, _) = PersistentStore::open(&dir).unwrap();
        let keys = [key_of(0x70), key_of(0x71), key_of(0x72), key_of(0x80)];
        let appended: Vec<u64> = keys
            .iter()
            .zip(0..)
            .map(|(key, salt)| store.append(key, &trial(salt)).unwrap())
            .collect();
        let (_, loaded) = PersistentStore::open(&dir).unwrap();
        let scanned: Vec<u64> = loaded.records.iter().map(|&(_, offset, _)| offset).collect();
        assert_eq!(scanned, appended, "append and scan agree on every offset");
        for ((key, offset, outcome), salt) in loaded.records.iter().zip(0..) {
            assert_eq!(store.read(key, *offset).as_ref(), Some(&trial(salt)));
            assert_eq!(*outcome, trial(salt));
            assert!(store.read(key, offset + 1).is_none(), "a misplaced offset serves nothing");
        }
        let (first, second) = (&loaded.records[0], &loaded.records[1]);
        assert!(store.read(&first.0, second.1).is_none(), "another key's record is not served");

        // Damage the middle record of shard 7: the healed shard moves
        // the third record, and open reports where it now lies.
        let shard = dir.join("7.log");
        let mut bytes = fs::read(&shard).unwrap();
        bytes[appended[1] as usize + 8 + 40] ^= 0xFF;
        fs::write(&shard, &bytes).unwrap();
        assert!(store.read(&keys[1], appended[1]).is_none(), "a CRC-bad record is not served");
        let (_, healed) = PersistentStore::open(&dir).unwrap();
        assert_eq!(healed.quarantined, 1);
        let moved = healed.records.iter().find(|(key, ..)| *key == keys[2]).unwrap();
        assert!(moved.1 < appended[2], "the healed shard closed the gap");
        assert_eq!(store.read(&keys[2], moved.1), Some(trial(2)));
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
        assert_eq!(loaded.records[0].2.report.committed, sample_report(1).committed);
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
        let committed: Vec<u64> =
            loaded.records.iter().map(|(_, _, o)| o.report.committed).collect();
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

    fn input_bits(input: &Input) -> Vec<u64> {
        match input {
            Input::Summary(s) => summary_bits(s),
            Input::TaskCost(c) => vec![c.instructions, c.cycles, c.energy_j.to_bits()],
        }
    }

    #[test]
    fn input_records_round_trip_bit_exactly() {
        let dir = unique_dir("nvp_persist_inputs");
        let (mut store, _) = PersistentStore::open(&dir).unwrap();
        assert!(store.input(&key_of(0x90)).is_none(), "an empty store holds nothing");
        let s = summary(5);
        assert!(s.outages.outage_durations_s.len() > 3, "a summary with outages");
        let inputs = [
            (key_of(0x90), Input::Summary(Arc::new(s))),
            (key_of(0x91), Input::TaskCost(task_cost(3))),
        ];
        for (key, input) in &inputs {
            store.append_input(key, input).unwrap();
        }
        let (reread, loaded) = PersistentStore::open(&dir).unwrap();
        for (key, input) in &inputs {
            let served = reread.input(key).expect("stored");
            assert_eq!(input_bits(&served), input_bits(input), "bit-exact on disk");
        }
        assert_eq!((loaded.records.len(), loaded.skipped, loaded.quarantined), (0, 0, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn inputs_that_would_not_decode_the_same_are_not_written() {
        let dir = unique_dir("nvp_persist_inputs_refused");
        let (mut store, _) = PersistentStore::open(&dir).unwrap();
        // A duration that is no whole number of samples.
        let mut off_grid = summary(5);
        off_grid.outages.outage_durations_s[0] += 1e-9;
        assert!(store.append_input(&key_of(0x92), &Input::Summary(Arc::new(off_grid))).is_err());
        // A record past its bound: one varint byte per outage.
        let mut eventful = summary(5);
        eventful.outages.outage_durations_s = vec![DEFAULT_DT_S; MAX_RECORD_BYTES as usize];
        assert!(store.append_input(&key_of(0x93), &Input::Summary(Arc::new(eventful))).is_err());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "nothing was written");
        assert!(PersistentStore::open(&dir).unwrap().0.input(&key_of(0x92)).is_none());
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
        assert_eq!((loaded.records.len(), loaded.quarantined), (2, 1));
        assert!(store.input(&key_of(0x62)).is_none(), "the damaged summary is not served");
        assert_eq!(
            store.input(&key_of(0x63)).as_ref().map(input_bits),
            Some(input_bits(&Input::TaskCost(task_cost(1))))
        );
        assert!(dir.join("6.log.quarantine").exists(), "the damaged shard is kept aside");
        // Healed: the salvage holds the intact records, and an append
        // lands behind them.
        store.append_input(&key_of(0x62), &Input::Summary(Arc::new(summary(2)))).unwrap();
        let (reopened, healed) = PersistentStore::open(&dir).unwrap();
        assert_eq!((healed.records.len(), healed.skipped, healed.quarantined), (2, 0, 0));
        assert!(reopened.input(&key_of(0x62)).is_some() && reopened.input(&key_of(0x63)).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_undecodable_input_record_is_recomputed_and_the_later_record_wins() {
        let dir = unique_dir("nvp_persist_inputs_undecodable");
        fs::create_dir_all(&dir).unwrap();
        // A CRC-valid task-cost record one byte short.
        let mut short = encode_input(&key_of(0x94), &Input::TaskCost(task_cost(4))).unwrap();
        short.pop();
        let image = record::log_image(MAGIC, [short], MAX_RECORD_BYTES).unwrap();
        fs::write(dir.join("9.log"), image).unwrap();
        let (mut store, loaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!((loaded.skipped, loaded.quarantined), (0, 0), "its frame is intact");
        assert!(store.input(&key_of(0x94)).is_none(), "but it is a miss");
        let cost = Input::TaskCost(task_cost(4));
        store.append_input(&key_of(0x94), &cost).unwrap();
        assert_eq!(store.input(&key_of(0x94)).as_ref().map(input_bits), Some(input_bits(&cost)));
        let (reopened, _) = PersistentStore::open(&dir).unwrap();
        assert_eq!(reopened.input(&key_of(0x94)).as_ref().map(input_bits), Some(input_bits(&cost)));
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
        let payloads = [
            encode_input(&key_of(0xa0), &Input::Summary(Arc::new(s))).unwrap(),
            encode_input(&key_of(0xa1), &Input::TaskCost(task_cost(0))).unwrap(),
        ];
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
            loaded.records.iter().map(|(_, _, o)| o.report.committed).collect();
        committed.sort_unstable();
        let expect: Vec<u64> = (0..100).map(|i| 1000 + i).collect();
        assert_eq!(committed, expect);
        let _ = fs::remove_dir_all(&dir);
    }
}
