//! Content-addressed memoization of simulation runs.
//!
//! The evaluation re-runs many *identical* simulations: F4 replays F3's
//! sobel/wearable run to measure backup overheads, F8 replays it for
//! frame latency, and every sweep (F5/F6/F10/F11) includes the default
//! operating point that other experiments also simulate. Each run is a
//! pure function of `(program, system configuration, backup model,
//! policy, power trace)`, so a process-wide cache keyed on a SHA-256
//! digest of exactly those inputs deduplicates them.
//!
//! Key derivation (see `DESIGN.md` § Performance): a [`KeyHasher`]
//! writes every input through the [`crate::record`] field codec and
//! hashes the bytes once.
//!
//! * a schema + run-kind tag (`nvp-simcache/2:nvp`, `:wait`, `:f12`),
//!   so NVP, wait-compute and fault-trial runs of the same inputs can
//!   never collide;
//! * the program image: entry point, code words, initialized data
//!   segments;
//! * the platform configuration — `SystemConfig`/`WaitComputeConfig`,
//!   `BackupModel` and `BackupPolicy` — as explicit canonical encodings
//!   ([`KeyFields`]): every field in declaration order, floats as their
//!   IEEE-754 bit patterns, enum variants by name. Each encoder
//!   destructures its type without `..`, so a new field does not
//!   compile until it is encoded;
//! * the power trace, by its *spec*: the 32-byte digest of the source
//!   kind, seed and duration it was generated from, plus a generator
//!   version (`common::TraceSpec`). A trace is a pure function of its
//!   spec, so no sample is ever hashed;
//! * for an F12 fault-campaign trial, its `FaultPlan` too (seed, rates,
//!   retention profile, retry bounds).
//!
//! Values are [`SimOutcome`]s: the `RunReport`, plus the recovery
//! latencies of an F12 trial (empty for every other run kind), so a
//! trial's table contribution is served without its event stream.
//!
//! ## One fill rule
//!
//! This module also owns [`Memo`] and [`memo`], the process-wide memo
//! behind the shared inputs of [`crate::common`]; the simulation cache
//! fills its keys by the same rule. Each key owns one `OnceLock` slot;
//! the map lock is held only to fetch or insert the slot, so distinct
//! keys fill in parallel, and a caller that finds its key being filled
//! waits for that one fill. Every key therefore simulates at most once
//! per process, at any thread count. Blocking is safe because a fill
//! never looks up another key of its own memo: a simulation reads only
//! memoized *inputs*, whose builds never look up a sim-cache key, so
//! no wait cycle can form.
//!
//! ## Persistence
//!
//! The in-memory index can be backed by an on-disk record log (see
//! [`crate::persist`] for the format), so a *fresh process* rerunning
//! the campaign is served from cache instead of resimulating. Only
//! [`set_cache_dir`] attaches a directory: the `repro` and `nvpd`
//! binaries call it (each reads `NVP_CACHE_DIR` itself), and without
//! that call the cache stays memory-only. Library users, tests and
//! benchmarks therefore never touch the filesystem, and no
//! environment variable changes what they do, unless they opt in. Every
//! first-time insert is appended to the log; reports loaded from disk
//! are bit-identical to recomputed ones (the key is a SHA-256 of every
//! simulation input and the value encoding round-trips float bit
//! patterns), so golden digests cannot tell a warm-disk run from a
//! cold one.
//!
//! ## Lifetime
//!
//! With a store attached, the map keeps decoded outcomes only while a
//! job runs. When the last job in flight ends
//! ([`crate::common::JobScope`]), every outcome the store holds is
//! demoted to the byte offset of its record ([`demote_stored`]): a
//! demoted entry is its key and a 16-byte [`Entry`], about 75 bytes
//! with the map's node overhead, against about 480 decoded. A later
//! lookup re-reads that one record, checks its CRC and its key, and
//! counts a disk hit; a record that fails either check is recomputed,
//! never served. A memory-only cache demotes nothing.
//! [`sim_cache_memo_stats`] counts resident and demoted entries and the
//! records reloaded.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use nvp_core::{
    BackupModel, BackupPolicy, ClockPolicy, FaultPlan, RunReport, SystemConfig, WaitComputeConfig,
};
use nvp_energy::Rectifier;
use nvp_sim::{CycleModel, EnergyModel};

use crate::persist::PersistentStore;
use crate::record::{put_f64, put_f64s, put_str, put_u32, put_u64};

/// A 256-bit content digest (cache key).
pub(crate) type Digest = [u8; 32];

/// What one cached simulation produced.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SimOutcome {
    /// The run's report.
    pub(crate) report: RunReport,
    /// Recovery latencies of an F12 fault trial, in milliseconds, in
    /// event order; empty for every other run kind.
    pub(crate) latencies_ms: Vec<f64>,
}

/// Minimal incremental FIPS 180-4 SHA-256 (the workspace is offline and
/// takes no hashing dependency); validated against the standard test
/// vectors in this module's tests.
pub(crate) struct Sha256 {
    h: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total: u64,
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

fn compress(h: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = hh.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *s = s.wrapping_add(v);
    }
}

impl Sha256 {
    pub(crate) fn new() -> Sha256 {
        Sha256 {
            h: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total: 0,
        }
    }

    pub(crate) fn update(&mut self, mut data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = data.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                // `data` is now empty; a partial buffer must survive
                // until the next update (the remainder path below
                // would clobber `buf_len`).
                return;
            }
            let block = self.buf;
            compress(&mut self.h, &block);
            self.buf_len = 0;
        }
        let mut chunks = data.chunks_exact(64);
        for block in &mut chunks {
            compress(&mut self.h, block);
        }
        let rest = chunks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    pub(crate) fn finalize(mut self) -> Digest {
        let bit_len = self.total.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // The length block must not count toward the message length,
        // but `update` already captured `total` before padding began.
        let tail = bit_len.to_be_bytes();
        let take = 64 - self.buf_len;
        self.buf[self.buf_len..].copy_from_slice(&tail[..take.min(8)]);
        let block = self.buf;
        compress(&mut self.h, &block);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.h) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Builds a cache key: a tag, then fields through the [`crate::record`]
/// codec (integers little-endian, floats as bit patterns, strings and
/// lists behind their length), hashed once by [`finish`](Self::finish).
pub(crate) struct KeyHasher(Vec<u8>);

impl KeyHasher {
    /// Starts a key with a schema + run-kind tag (e.g.
    /// `"nvp-simcache/2:nvp"`).
    pub(crate) fn new(tag: &str) -> KeyHasher {
        let mut out = Vec::with_capacity(4096);
        put_str(&mut out, tag);
        KeyHasher(out)
    }

    /// A value through its canonical encoding.
    pub(crate) fn field(&mut self, value: &impl KeyFields) {
        value.put_key(&mut self.0);
    }

    /// A `u64`.
    pub(crate) fn u64(&mut self, v: u64) {
        put_u64(&mut self.0, v);
    }

    /// A program image: entry, code words, initialized data segments.
    pub(crate) fn program(&mut self, program: &nvp_isa::Program) {
        let out = &mut self.0;
        put_u32(out, program.entry());
        put_count(out, program.code().len());
        program.code().iter().for_each(|&word| put_u32(out, word));
        put_count(out, program.data_segments().len());
        for seg in program.data_segments() {
            put_u32(out, u32::from(seg.addr));
            put_count(out, seg.words.len());
            seg.words.iter().for_each(|&w| out.extend_from_slice(&w.to_le_bytes()));
        }
    }

    /// A precomputed digest (e.g. a trace spec's).
    pub(crate) fn digest(&mut self, d: &Digest) {
        self.0.extend_from_slice(d);
    }

    pub(crate) fn finish(self) -> Digest {
        let mut h = Sha256::new();
        h.update(&self.0);
        h.finalize()
    }
}

/// A list length, as a `u64`.
fn put_count(out: &mut Vec<u8>, n: usize) {
    put_u64(out, n as u64);
}

/// A flag byte.
fn put_flag(out: &mut Vec<u8>, b: bool) {
    out.push(u8::from(b));
}

/// A value's canonical cache-key encoding: every field, in declaration
/// order, through the [`crate::record`] field codec. Floats are written
/// as their bit patterns and enum variants by name, so two values
/// encode equally exactly when their fields are bit-identical.
pub(crate) trait KeyFields {
    /// Appends the encoding to `out`.
    fn put_key(&self, out: &mut Vec<u8>);
}

impl KeyFields for Rectifier {
    fn put_key(&self, out: &mut Vec<u8>) {
        let Rectifier { peak_efficiency, knee_w, high_power_droop } = *self;
        [peak_efficiency, knee_w, high_power_droop].into_iter().for_each(|v| put_f64(out, v));
    }
}

impl KeyFields for CycleModel {
    fn put_key(&self, out: &mut Vec<u8>) {
        let CycleModel {
            alu,
            mul,
            div,
            load,
            store,
            branch_not_taken,
            branch_taken,
            jump,
            io,
            system,
        } = *self;
        [alu, mul, div, load, store, branch_not_taken, branch_taken, jump, io, system]
            .into_iter()
            .for_each(|v| put_u32(out, v));
    }
}

impl KeyFields for EnergyModel {
    fn put_key(&self, out: &mut Vec<u8>) {
        let EnergyModel {
            base_per_cycle_j,
            mem_read_extra_j,
            mem_write_extra_j,
            mul_extra_j,
            div_extra_j,
            io_extra_j,
        } = *self;
        [
            base_per_cycle_j,
            mem_read_extra_j,
            mem_write_extra_j,
            mul_extra_j,
            div_extra_j,
            io_extra_j,
        ]
        .into_iter()
        .for_each(|v| put_f64(out, v));
    }
}

impl KeyFields for ClockPolicy {
    fn put_key(&self, out: &mut Vec<u8>) {
        match *self {
            ClockPolicy::Fixed => put_str(out, "Fixed"),
            ClockPolicy::Adaptive { levels, margin } => {
                put_str(out, "Adaptive");
                put_u32(out, u32::from(levels));
                put_f64(out, margin);
            }
        }
    }
}

impl KeyFields for SystemConfig {
    fn put_key(&self, out: &mut Vec<u8>) {
        let SystemConfig {
            clock_hz,
            capacitance_f,
            cap_voltage_v,
            cap_leak_tau_s,
            rectifier,
            sleep_power_w,
            work_headroom_j,
            dmem_words,
            dmem_nonvolatile,
            restart_on_halt,
            cycle_model,
            energy_model,
            clock_policy,
        } = *self;
        [clock_hz, capacitance_f, cap_voltage_v, cap_leak_tau_s]
            .into_iter()
            .for_each(|v| put_f64(out, v));
        rectifier.put_key(out);
        put_f64(out, sleep_power_w);
        put_f64(out, work_headroom_j);
        put_count(out, dmem_words);
        put_flag(out, dmem_nonvolatile);
        put_flag(out, restart_on_halt);
        cycle_model.put_key(out);
        energy_model.put_key(out);
        clock_policy.put_key(out);
    }
}

impl KeyFields for WaitComputeConfig {
    fn put_key(&self, out: &mut Vec<u8>) {
        let WaitComputeConfig {
            clock_hz,
            capacitance_f,
            cap_voltage_v,
            cap_leak_tau_s,
            rectifier,
            sleep_power_w,
            start_energy_j,
            discharge_efficiency,
            min_charge_power_w,
            trickle_efficiency,
            max_charge_power_w,
            dmem_words,
            cycle_model,
            energy_model,
        } = *self;
        [clock_hz, capacitance_f, cap_voltage_v, cap_leak_tau_s]
            .into_iter()
            .for_each(|v| put_f64(out, v));
        rectifier.put_key(out);
        [
            sleep_power_w,
            start_energy_j,
            discharge_efficiency,
            min_charge_power_w,
            trickle_efficiency,
            max_charge_power_w,
        ]
        .into_iter()
        .for_each(|v| put_f64(out, v));
        put_count(out, dmem_words);
        cycle_model.put_key(out);
        energy_model.put_key(out);
    }
}

impl KeyFields for BackupModel {
    fn put_key(&self, out: &mut Vec<u8>) {
        let BackupModel {
            style,
            tech,
            state_bits,
            backup_energy,
            backup_time,
            restore_energy,
            restore_time,
        } = *self;
        put_str(out, style.name());
        put_str(out, tech.name());
        put_u64(out, state_bits);
        [backup_energy.get(), backup_time.get(), restore_energy.get(), restore_time.get()]
            .into_iter()
            .for_each(|v| put_f64(out, v));
    }
}

impl KeyFields for BackupPolicy {
    fn put_key(&self, out: &mut Vec<u8>) {
        match *self {
            BackupPolicy::OnDemand { margin } => {
                put_str(out, "OnDemand");
                put_f64(out, margin);
            }
            BackupPolicy::Periodic { interval_s } => {
                put_str(out, "Periodic");
                put_f64(out, interval_s);
            }
            BackupPolicy::Hybrid { interval_s, margin } => {
                put_str(out, "Hybrid");
                put_f64(out, interval_s);
                put_f64(out, margin);
            }
        }
    }
}

impl KeyFields for FaultPlan {
    fn put_key(&self, out: &mut Vec<u8>) {
        let FaultPlan { seed, tear_prob, restore_fail_prob, retention, max_retries, retry_backoff } =
            self;
        put_u64(out, *seed);
        put_f64(out, *tear_prob);
        put_f64(out, *restore_fail_prob);
        put_flag(out, retention.is_some());
        if let Some(retention) = retention {
            put_f64s(out, retention.per_bit_s());
        }
        put_u32(out, *max_retries);
        put_f64(out, *retry_backoff);
    }
}

/// Digest of a power trace's samples: dt, length, and every sample's
/// bit pattern — what cache keys hashed before traces were keyed by
/// their spec. `tests/golden_digest.rs` pins every registry trace by
/// these bytes, so a generator edit cannot leave
/// `common::TRACE_GEN_VERSION` standing unnoticed.
#[cfg(test)]
pub(crate) fn trace_digest(trace: &nvp_energy::PowerTrace) -> Digest {
    let mut h = Sha256::new();
    h.update(b"nvp-simcache/1:trace");
    h.update(&trace.dt_s().to_bits().to_le_bytes());
    h.update(&(trace.len() as u64).to_le_bytes());
    for &sample in trace.samples() {
        h.update(&sample.to_bits().to_le_bytes());
    }
    h.finalize()
}

/// Cache hit/miss counters for one runner invocation (or the whole
/// process, via [`sim_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCacheStats {
    /// Simulations answered from the cache (in-memory index). A caller
    /// that waited for another thread's run of the same key counts
    /// here too.
    pub hits: u64,
    /// The subset of [`hits`](Self::hits) whose report was loaded from
    /// the persistent store rather than computed by this process.
    pub disk_hits: u64,
    /// Simulations actually executed (and then cached): one per key
    /// the cache did not hold, at any thread count.
    pub misses: u64,
    /// Reports this process appended to the persistent store.
    pub persisted: u64,
    /// Damaged shard files the persistent store quarantined on load
    /// (renamed `*.quarantine`; salvage re-appended). Distinguishes a
    /// corrupted cache from a merely cold one.
    pub quarantined: u64,
}

impl SimCacheStats {
    /// Counter-wise difference `self - earlier` (saturating), for
    /// per-invocation deltas against process-wide counters.
    #[must_use]
    pub fn since(self, earlier: SimCacheStats) -> SimCacheStats {
        SimCacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            disk_hits: self.disk_hits.saturating_sub(earlier.disk_hits),
            misses: self.misses.saturating_sub(earlier.misses),
            persisted: self.persisted.saturating_sub(earlier.persisted),
            quarantined: self.quarantined.saturating_sub(earlier.quarantined),
        }
    }
}

/// A lazily-initialized process-wide memo: one slot per key, each
/// filled at most once. A `BTreeMap` keeps the internal order a pure
/// function of the keys, so nothing downstream can ever observe
/// insertion order.
pub(crate) type Memo<K, V> = OnceLock<Mutex<BTreeMap<K, Arc<OnceLock<Arc<V>>>>>>;

/// Looks up `key` in a lazily-initialized process-wide memo, building
/// the value with `make` on first use. The map lock is held only to
/// fetch or insert the key's slot; `make` runs outside it, so distinct
/// keys build in parallel while callers of the same key wait for its
/// one build. A panicking `make` leaves the slot empty, and the next
/// lookup of that key builds again. `make` must not look up a key of
/// the same memo that could be waiting on this one.
pub(crate) fn memo<K, V>(cell: &'static Memo<K, V>, key: K, make: impl FnOnce() -> V) -> Arc<V>
where
    K: Ord,
{
    let slot = {
        let mut map = cell.get_or_init(Mutex::default).lock().expect("memo map lock");
        Arc::clone(map.entry(key).or_default())
    };
    Arc::clone(slot.get_or_init(|| Arc::new(make())))
}

/// Where a resident outcome came from, so disk-served hits are
/// countable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// Computed by this process.
    Computed,
    /// Read from the persistent store: loaded when it was attached, or
    /// reloaded after a demotion.
    Disk,
}

/// A decoded outcome the map holds.
struct Resident {
    outcome: SimOutcome,
    origin: Origin,
    /// The byte offset of the outcome's record in its key's shard of the
    /// attached store; `None` when no store took it.
    offset: Option<u64>,
}

/// A key's one slot: empty while its outcome is being filled.
type Slot = OnceLock<Resident>;

/// What the sim-cache map holds for a key. The decoded outcome sits
/// behind the `Live` pointer, so a demoted entry is its key and these
/// 16 bytes.
enum Entry {
    /// The key's slot, being filled or holding its outcome.
    Live(Arc<Slot>),
    /// Demoted: only the attached store holds the outcome, in the
    /// record at this byte offset of the key's shard.
    Stored(u64),
}

static CACHE: Mutex<BTreeMap<Digest, Entry>> = Mutex::new(BTreeMap::new());
/// The attached store, appended to on every miss; `None` is
/// memory-only.
static PERSIST: Mutex<Option<PersistentStore>> = Mutex::new(None);
static HITS: AtomicU64 = AtomicU64::new(0);
static DISK_HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static PERSISTED: AtomicU64 = AtomicU64::new(0);
static QUARANTINED: AtomicU64 = AtomicU64::new(0);
static RELOADED: AtomicU64 = AtomicU64::new(0);

fn cache() -> MutexGuard<'static, BTreeMap<Digest, Entry>> {
    CACHE.lock().expect("sim cache lock")
}

/// Lock order: [`PERSIST`] strictly before the [`CACHE`] map lock
/// (never the reverse), shared by attaching, loading, appending,
/// reloading and demoting. A slot fills (appending or reloading)
/// holding no map lock, so nothing that holds [`PERSIST`] may wait on
/// a slot.
fn persist_lock() -> MutexGuard<'static, Option<PersistentStore>> {
    PERSIST.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A filled slot.
fn filled(outcome: SimOutcome, origin: Origin, offset: Option<u64>) -> Entry {
    Entry::Live(Arc::new(OnceLock::from(Resident { outcome, origin, offset })))
}

/// Opens `dir` and merges its records into the in-memory index (never
/// overwriting an outcome this process already computed). Returns the
/// number of records now serving from memory that came from disk.
///
/// Entries the *previously* attached store supplied are dropped first:
/// re-pointing the cache at a new directory must not keep serving (or
/// counting) another directory's records. A demoted entry stays, not
/// counted, only if the new directory holds a record for its key, and
/// then names that record. Only
/// `tests/persist_cache.rs` and the benchmark's probes attach a second
/// directory in one process. Outcomes this process computed itself
/// stay, which is safe because keys are content addresses: a hit is
/// bit-identical wherever it came from. Such an outcome keeps the
/// offset it was appended at; should it be demoted and that offset not
/// hold its key's record in the new directory, the reload fails its key
/// check and the outcome is recomputed. An empty slot may be
/// mid-simulation, so a disk record replaces it with a filled slot
/// instead of waiting on it (see [`persist_lock`]); the simulation
/// finishes into the slot its own waiters hold.
fn activate(state: &mut Option<PersistentStore>, dir: &Path) -> std::io::Result<u64> {
    let (store, loaded) = PersistentStore::open(dir)?;
    QUARANTINED.fetch_add(loaded.quarantined, Ordering::Relaxed);
    let mut map = cache();
    let mut located = None;
    map.retain(|key, entry| match entry {
        Entry::Live(slot) => slot.get().is_none_or(|r| r.origin == Origin::Computed),
        Entry::Stored(offset) => {
            let located = located.get_or_insert_with(|| {
                let mut first = BTreeMap::new();
                for (key, offset, _) in &loaded.records {
                    first.entry(*key).or_insert(*offset);
                }
                first
            });
            located.get(key).map(|&at| *offset = at).is_some()
        }
    });
    let mut merged = 0u64;
    for (key, offset, outcome) in loaded.records {
        let empty = map
            .get(&key)
            .is_none_or(|entry| matches!(entry, Entry::Live(slot) if slot.get().is_none()));
        if empty {
            map.insert(key, filled(outcome, Origin::Disk, Some(offset)));
            merged += 1;
        }
    }
    drop(map);
    *state = Some(store);
    Ok(merged)
}

/// Points the simulation cache at a persistent directory (`Some`) or
/// makes it memory-only (`None`, the state before any call). Opening a
/// directory loads every valid record into the in-memory index
/// immediately and returns how many were merged; subsequent first-time
/// simulations are appended to it. On `Err` the cache falls back to
/// memory-only — a broken cache directory costs time, never a run.
///
/// The `repro` binary calls this with `$NVP_CACHE_DIR` or
/// `<out_dir>/.simcache` (not at all under `--no-cache`), `nvpd serve`
/// with its state directory's store or `$NVP_CACHE_DIR`; benchmarks
/// call it to measure cold/warm/reload behavior. Calling it again
/// re-attaches: pointing at the same directory after
/// [`reset_sim_cache`] reloads the log from disk, and pointing at a
/// *different* directory first drops every entry the old store
/// contributed, so records never leak between cache directories (see
/// `tests/persist_cache.rs`).
pub fn set_cache_dir(dir: Option<&Path>) -> std::io::Result<u64> {
    let mut state = persist_lock();
    *state = None;
    match dir {
        None => Ok(0),
        Some(d) => activate(&mut state, d),
    }
}

/// Best-effort append of a freshly computed outcome to the attached
/// store; returns where the record landed.
fn persist_append(key: &Digest, outcome: &SimOutcome) -> Option<u64> {
    let state = persist_lock();
    let offset = state.as_ref()?.append(key, outcome).ok()?;
    PERSISTED.fetch_add(1, Ordering::Relaxed);
    Some(offset)
}

/// Re-reads a demoted outcome from the attached store: `None` when no
/// store is attached or its record fails the store's checks.
fn reload(key: &Digest, offset: u64) -> Option<SimOutcome> {
    let outcome = persist_lock().as_ref()?.read(key, offset)?;
    RELOADED.fetch_add(1, Ordering::Relaxed);
    Some(outcome)
}

/// Returns the cached outcome for `key`, or computes it with `run`,
/// appends it to the persistent store and caches it, all through the
/// key's one slot. Distinct keys simulate in parallel; a caller that
/// arrives while its key is being filled waits for that one fill and
/// counts a hit. A demoted key refills from its record and counts a
/// disk hit; should the record fail its checks, `run` recomputes it. A
/// miss is counted exactly when `run` ran here. A panicking `run`
/// leaves the key empty for the next caller.
pub(crate) fn cached_outcome(key: Digest, run: impl FnOnce() -> SimOutcome) -> SimOutcome {
    let (slot, stored) = {
        let mut map = cache();
        let entry = map.entry(key).or_insert_with(|| Entry::Live(Arc::default()));
        match entry {
            Entry::Live(slot) => (Arc::clone(slot), None),
            Entry::Stored(offset) => {
                let stored = Some(*offset);
                let slot = Arc::<Slot>::default();
                *entry = Entry::Live(Arc::clone(&slot));
                (slot, stored)
            }
        }
    };
    let mut ran = false;
    let resident = slot.get_or_init(|| {
        if let Some(outcome) = stored.and_then(|offset| reload(&key, offset)) {
            return Resident { outcome, origin: Origin::Disk, offset: stored };
        }
        ran = true;
        let outcome = run();
        let offset = persist_append(&key, &outcome);
        Resident { outcome, origin: Origin::Computed, offset }
    });
    if ran {
        MISSES.fetch_add(1, Ordering::Relaxed);
    } else {
        HITS.fetch_add(1, Ordering::Relaxed);
        if resident.origin == Origin::Disk {
            DISK_HITS.fetch_add(1, Ordering::Relaxed);
        }
    }
    resident.outcome.clone()
}

/// [`cached_outcome`] for run kinds whose outcome is the report alone.
pub(crate) fn cached_run(key: Digest, run: impl FnOnce() -> RunReport) -> RunReport {
    cached_outcome(key, || SimOutcome { report: run(), latencies_ms: Vec::new() }).report
}

/// Demotes every resident outcome the attached store holds to the
/// offset of its record (see the module's *Lifetime* section). Memory-only caches, and outcomes the store
/// refused, stay resident. [`crate::common::JobScope`] calls this when
/// the last job in flight ends; a caller still holding a slot keeps
/// its outcome.
pub(crate) fn demote_stored() {
    let state = persist_lock();
    if state.is_none() {
        return;
    }
    for entry in cache().values_mut() {
        if let Entry::Live(slot) = entry {
            if let Some(offset) = slot.get().and_then(|r| r.offset) {
                *entry = Entry::Stored(offset);
            }
        }
    }
}

/// Process-wide simulation-cache counters.
#[must_use]
pub fn sim_cache_stats() -> SimCacheStats {
    SimCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        disk_hits: DISK_HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        persisted: PERSISTED.load(Ordering::Relaxed),
        quarantined: QUARANTINED.load(Ordering::Relaxed),
    }
}

/// What the sim-cache map holds, and how often it re-read a record
/// (process-wide, via [`sim_cache_memo_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCacheMemoStats {
    /// Outcomes held decoded right now.
    pub resident: u64,
    /// Outcomes held only as the location of their record in the
    /// attached store; zero without one.
    pub on_disk: u64,
    /// Demoted outcomes re-read from their record since the process
    /// started or the cache was last reset.
    pub reloaded: u64,
}

/// Process-wide sim-cache memo counters.
#[must_use]
pub fn sim_cache_memo_stats() -> SimCacheMemoStats {
    let mut stats =
        SimCacheMemoStats { reloaded: RELOADED.load(Ordering::Relaxed), ..Default::default() };
    for entry in cache().values() {
        match entry {
            Entry::Live(slot) => stats.resident += u64::from(slot.get().is_some()),
            Entry::Stored(_) => stats.on_disk += 1,
        }
    }
    stats
}

/// Clears the in-memory simulation cache and its counters (benchmarks
/// use this to measure cold- vs warm-cache runs). The persistence
/// configuration — and any on-disk records — are untouched; re-point
/// [`set_cache_dir`] at the directory to reload them.
pub fn reset_sim_cache() {
    cache().clear();
    for counter in [&HITS, &DISK_HITS, &MISSES, &PERSISTED, &QUARANTINED, &RELOADED] {
        counter.store(0, Ordering::Relaxed);
    }
}

/// Lower-case hex rendering of a digest, for tests that pin keys.
#[cfg(test)]
pub(crate) fn hex(d: Digest) -> String {
    use std::fmt::Write as _;
    d.iter().fold(String::new(), |mut s, b| {
        write!(s, "{b:02x}").expect("write to String");
        s
    })
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Barrier};
    use std::thread;
    use std::time::Duration;

    use super::*;

    fn one_shot(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    #[test]
    fn sha256_matches_fips_vectors() {
        assert_eq!(
            hex(one_shot(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(one_shot(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(one_shot(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn incremental_updates_match_one_shot() {
        let data: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        let mut h = Sha256::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), one_shot(&data));
    }

    /// A string field, as the tag and enum variants are written.
    struct Text(&'static str);

    impl KeyFields for Text {
        fn put_key(&self, out: &mut Vec<u8>) {
            put_str(out, self.0);
        }
    }

    #[test]
    fn key_fields_are_length_prefixed() {
        // ("ab", "c") and ("a", "bc") must hash differently.
        let mut h1 = KeyHasher::new("t");
        h1.field(&Text("ab"));
        h1.field(&Text("c"));
        let mut h2 = KeyHasher::new("t");
        h2.field(&Text("a"));
        h2.field(&Text("bc"));
        assert_ne!(h1.finish(), h2.finish());
    }

    /// Encodes `base` and each edited copy, and asserts that every edit
    /// moves the encoding and that no two edits collide: each edit
    /// changes one field, so the encoder must write every field.
    fn assert_each_field_is_keyed<T: KeyFields + Clone>(base: &T, edits: &[&dyn Fn(&mut T)]) {
        let encode = |v: &T| {
            let mut out = Vec::new();
            v.put_key(&mut out);
            out
        };
        let mut keys = vec![encode(base)];
        for edit in edits {
            let mut v = base.clone();
            edit(&mut v);
            keys.push(encode(&v));
        }
        for (i, key) in keys.iter().enumerate().skip(1) {
            assert_ne!(*key, keys[0], "edit {} left the key unchanged", i - 1);
        }
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), edits.len() + 1, "two edits encode alike");
    }

    type Edit<T> = Box<dyn Fn(&mut T)>;

    fn twice(v: &mut f64) {
        *v = *v * 2.0 + 1.0;
    }

    /// One edit per field of the rectifier, cycle and energy models,
    /// reached through accessors so both platform configs share them.
    fn model_edits<T: 'static>(
        rect: fn(&mut T) -> &mut Rectifier,
        cyc: fn(&mut T) -> &mut CycleModel,
        en: fn(&mut T) -> &mut EnergyModel,
    ) -> Vec<Edit<T>> {
        vec![
            Box::new(move |c| twice(&mut rect(c).peak_efficiency)),
            Box::new(move |c| twice(&mut rect(c).knee_w)),
            Box::new(move |c| twice(&mut rect(c).high_power_droop)),
            Box::new(move |c| cyc(c).alu += 1),
            Box::new(move |c| cyc(c).mul += 1),
            Box::new(move |c| cyc(c).div += 1),
            Box::new(move |c| cyc(c).load += 1),
            Box::new(move |c| cyc(c).store += 1),
            Box::new(move |c| cyc(c).branch_not_taken += 1),
            Box::new(move |c| cyc(c).branch_taken += 1),
            Box::new(move |c| cyc(c).jump += 1),
            Box::new(move |c| cyc(c).io += 1),
            Box::new(move |c| cyc(c).system += 1),
            Box::new(move |c| twice(&mut en(c).base_per_cycle_j)),
            Box::new(move |c| twice(&mut en(c).mem_read_extra_j)),
            Box::new(move |c| twice(&mut en(c).mem_write_extra_j)),
            Box::new(move |c| twice(&mut en(c).mul_extra_j)),
            Box::new(move |c| twice(&mut en(c).div_extra_j)),
            Box::new(move |c| twice(&mut en(c).io_extra_j)),
        ]
    }

    #[test]
    fn every_system_config_field_is_keyed() {
        let mut edits: Vec<Edit<SystemConfig>> = vec![
            Box::new(|c| twice(&mut c.clock_hz)),
            Box::new(|c| twice(&mut c.capacitance_f)),
            Box::new(|c| twice(&mut c.cap_voltage_v)),
            Box::new(|c| twice(&mut c.cap_leak_tau_s)),
            Box::new(|c| twice(&mut c.sleep_power_w)),
            Box::new(|c| twice(&mut c.work_headroom_j)),
            Box::new(|c| c.dmem_words += 1),
            Box::new(|c| c.dmem_nonvolatile ^= true),
            Box::new(|c| c.restart_on_halt ^= true),
            Box::new(|c| c.clock_policy = ClockPolicy::adaptive()),
        ];
        edits.extend(model_edits(
            |c: &mut SystemConfig| &mut c.rectifier,
            |c| &mut c.cycle_model,
            |c| &mut c.energy_model,
        ));
        let edits: Vec<&dyn Fn(&mut SystemConfig)> = edits.iter().map(|e| &**e).collect();
        assert_each_field_is_keyed(&SystemConfig::default(), &edits);
    }

    #[test]
    fn every_clock_policy_field_is_keyed() {
        let base = ClockPolicy::adaptive();
        let levels = |c: &mut ClockPolicy| {
            if let ClockPolicy::Adaptive { levels, .. } = c {
                *levels += 1;
            }
        };
        let margin = |c: &mut ClockPolicy| {
            if let ClockPolicy::Adaptive { margin, .. } = c {
                twice(margin);
            }
        };
        let fixed = |c: &mut ClockPolicy| *c = ClockPolicy::Fixed;
        assert_each_field_is_keyed(&base, &[&levels, &margin, &fixed]);
    }

    #[test]
    fn every_wait_compute_config_field_is_keyed() {
        let mut edits: Vec<Edit<WaitComputeConfig>> = vec![
            Box::new(|c| twice(&mut c.clock_hz)),
            Box::new(|c| twice(&mut c.capacitance_f)),
            Box::new(|c| twice(&mut c.cap_voltage_v)),
            Box::new(|c| twice(&mut c.cap_leak_tau_s)),
            Box::new(|c| twice(&mut c.sleep_power_w)),
            Box::new(|c| twice(&mut c.start_energy_j)),
            Box::new(|c| twice(&mut c.discharge_efficiency)),
            Box::new(|c| twice(&mut c.min_charge_power_w)),
            Box::new(|c| twice(&mut c.trickle_efficiency)),
            Box::new(|c| twice(&mut c.max_charge_power_w)),
            Box::new(|c| c.dmem_words += 1),
        ];
        edits.extend(model_edits(
            |c: &mut WaitComputeConfig| &mut c.rectifier,
            |c| &mut c.cycle_model,
            |c| &mut c.energy_model,
        ));
        let edits: Vec<&dyn Fn(&mut WaitComputeConfig)> = edits.iter().map(|e| &**e).collect();
        assert_each_field_is_keyed(&WaitComputeConfig::default(), &edits);
    }

    #[test]
    fn every_backup_model_field_is_keyed() {
        use nvp_core::BackupStyle;
        use nvp_device::NvmTechnology;
        use nvp_energy::units::{Joules, Seconds};
        let base = BackupModel::distributed(NvmTechnology::Feram, 2048);
        assert_each_field_is_keyed(
            &base,
            &[
                &|b| b.style = BackupStyle::Centralized,
                &|b| b.tech = NvmTechnology::Reram,
                &|b| b.state_bits += 1,
                &|b| b.backup_energy = Joules::new(b.backup_energy.get() * 2.0),
                &|b| b.backup_time = Seconds::new(b.backup_time.get() * 2.0),
                &|b| b.restore_energy = Joules::new(b.restore_energy.get() * 2.0),
                &|b| b.restore_time = Seconds::new(b.restore_time.get() * 2.0),
            ],
        );
    }

    #[test]
    fn every_backup_policy_field_is_keyed() {
        let base = BackupPolicy::Hybrid { interval_s: 0.01, margin: 1.5 };
        assert_each_field_is_keyed(
            &base,
            &[
                &|p| *p = BackupPolicy::Hybrid { interval_s: 0.02, margin: 1.5 },
                &|p| *p = BackupPolicy::Hybrid { interval_s: 0.01, margin: 1.6 },
                &|p| *p = BackupPolicy::OnDemand { margin: 1.5 },
                &|p| *p = BackupPolicy::Periodic { interval_s: 0.01 },
                &|p| *p = BackupPolicy::OnDemand { margin: 0.01 },
                &|p| *p = BackupPolicy::Periodic { interval_s: 1.5 },
            ],
        );
    }

    #[test]
    fn every_fault_plan_field_is_keyed() {
        use nvp_device::{RelaxPolicy, RetentionShaper};
        let retention = |max_s: f64, bits: usize| {
            RetentionShaper::new(RelaxPolicy::Linear, bits, 2.0, max_s).bit_retention()
        };
        let base = FaultPlan::with_rates(9, 0.05, 0.025).with_retention(retention(1e4, 16));
        assert_each_field_is_keyed(
            &base,
            &[
                &|p| p.seed += 1,
                &|p| twice(&mut p.tear_prob),
                &|p| twice(&mut p.restore_fail_prob),
                &|p| p.retention = None,
                &|p| p.retention = Some(retention(1e3, 16)),
                &|p| p.retention = Some(retention(1e4, 8)),
                &|p| p.max_retries += 1,
                &|p| twice(&mut p.retry_backoff),
            ],
        );
    }

    #[test]
    fn a_demoted_entry_is_its_key_and_an_offset() {
        // The decoded outcome sits behind `Live`'s pointer, never inline:
        // a B-tree node slot of a demoted key is 48 bytes.
        assert_eq!(std::mem::size_of::<Entry>(), 16);
        assert_eq!(std::mem::size_of::<(Digest, Entry)>(), 48);
    }

    #[test]
    fn trace_digest_distinguishes_traces() {
        use nvp_energy::PowerTrace;
        let a = PowerTrace::from_samples(1e-4, vec![1.0e-6, 2.0e-6]);
        let b = PowerTrace::from_samples(1e-4, vec![1.0e-6, 2.0000001e-6]);
        let c = PowerTrace::from_samples(2e-4, vec![1.0e-6, 2.0e-6]);
        assert_ne!(trace_digest(&a), trace_digest(&b));
        assert_ne!(trace_digest(&a), trace_digest(&c));
        assert_eq!(trace_digest(&a), trace_digest(&a));
    }

    const WAIT: Duration = Duration::from_secs(10);

    #[test]
    fn distinct_memo_keys_build_concurrently() {
        static CACHE: Memo<u32, bool> = OnceLock::new();
        // Each build signals it started, then waits for the other's
        // signal. Builds that serialize behind one lock time out.
        let (started_a, seen_by_b) = mpsc::channel();
        let (started_b, seen_by_a) = mpsc::channel();
        let overlapped = thread::scope(|s| {
            let a = s.spawn(move || {
                *memo(&CACHE, 1, || {
                    started_a.send(()).expect("peer alive");
                    seen_by_a.recv_timeout(WAIT).is_ok()
                })
            });
            let b = s.spawn(move || {
                *memo(&CACHE, 2, || {
                    started_b.send(()).expect("peer alive");
                    seen_by_b.recv_timeout(WAIT).is_ok()
                })
            });
            [a.join().expect("build a"), b.join().expect("build b")]
        });
        assert_eq!(overlapped, [true, true], "distinct keys must not build one after another");
    }

    #[test]
    fn a_contended_memo_key_is_built_once() {
        static CACHE: Memo<u32, u64> = OnceLock::new();
        const THREADS: usize = 8;
        let builds = AtomicUsize::new(0);
        let entered = AtomicUsize::new(0);
        let start = Barrier::new(THREADS);
        let values: Vec<Arc<u64>> = thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        entered.fetch_add(1, Ordering::SeqCst);
                        memo(&CACHE, 7, || {
                            // Hold the build open until every caller has
                            // reached the lookup; nothing else blocks
                            // them on the way there.
                            while entered.load(Ordering::SeqCst) < THREADS {
                                thread::yield_now();
                            }
                            builds.fetch_add(1, Ordering::SeqCst) as u64
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("caller")).collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "one build per key");
        assert!(values.iter().all(|v| Arc::ptr_eq(v, &values[0])), "every caller shares it");
    }

    #[test]
    fn a_panicking_memo_build_is_retried_and_spares_other_keys() {
        static CACHE: Memo<u32, u32> = OnceLock::new();
        let failed = std::panic::catch_unwind(|| memo(&CACHE, 1, || panic!("build fails")));
        assert!(failed.is_err());
        assert_eq!(*memo(&CACHE, 2, || 20), 20, "other keys stay usable");
        assert_eq!(*memo(&CACHE, 1, || 10), 10, "the failed key builds again");
        assert_eq!(*memo(&CACHE, 1, || 11), 10, "and then only once");
    }

    fn outcome(committed: u64) -> SimOutcome {
        SimOutcome {
            report: RunReport { committed, ..RunReport::default() },
            latencies_ms: vec![1.5],
        }
    }

    #[test]
    fn a_contended_sim_key_simulates_once() {
        const THREADS: usize = 8;
        let key = KeyHasher::new("test:contended").finish();
        let runs = AtomicUsize::new(0);
        let entered = AtomicUsize::new(0);
        let start = Barrier::new(THREADS);
        let outcomes: Vec<SimOutcome> = thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        entered.fetch_add(1, Ordering::SeqCst);
                        cached_outcome(key, || {
                            // Keep the run open until every caller has
                            // reached the lookup.
                            while entered.load(Ordering::SeqCst) < THREADS {
                                thread::yield_now();
                            }
                            outcome(runs.fetch_add(1, Ordering::SeqCst) as u64)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("caller")).collect()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "one simulation per key");
        assert!(outcomes.iter().all(|o| *o == outcomes[0]), "every caller gets that run's outcome");
    }

    #[test]
    fn a_panicking_simulation_leaves_its_key_empty() {
        let key = KeyHasher::new("test:panicking").finish();
        let failed = std::panic::catch_unwind(|| cached_outcome(key, || panic!("run fails")));
        assert!(failed.is_err());
        let runs = AtomicUsize::new(0);
        let run = || {
            runs.fetch_add(1, Ordering::SeqCst);
            outcome(7)
        };
        assert_eq!(cached_outcome(key, run), outcome(7), "the next caller simulates");
        assert_eq!(cached_outcome(key, run), outcome(7), "and later callers hit");
        assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly once");
    }
}
