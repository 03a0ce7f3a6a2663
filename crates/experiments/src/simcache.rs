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
//! Key derivation (see `DESIGN.md` § Performance):
//!
//! * the program image: entry point, code words, initialized data
//!   segments — hashed directly;
//! * the platform configuration: the `Debug` rendering of
//!   `SystemConfig`/`WaitComputeConfig`, `BackupModel`, and
//!   `BackupPolicy`. Rust's `f64` `Debug` output is the shortest
//!   round-trip representation, so distinct configurations always
//!   render distinctly;
//! * the power trace: dt, length, and every sample's bit pattern,
//!   hashed **once per trace** (`trace_digest`) and reused across runs;
//! * for an F12 fault-campaign trial, the `Debug` rendering of its
//!   `FaultPlan` too (seed, rates, retention profile, retry bounds);
//! * a schema tag + run-kind tag (`:nvp`, `:wait`, `:f12`), so NVP,
//!   wait-compute and fault-trial runs of the same inputs can never
//!   collide.
//!
//! Values are [`SimOutcome`]s: the `RunReport`, plus the recovery
//! latencies of an F12 trial (empty for every other run kind), so a
//! trial's table contribution is served without its event stream. The
//! cache map is a `BTreeMap` for deterministic internal order; the
//! lock is *not* held while a missing value is computed, so concurrent
//! experiments never serialize on a simulation — at worst two threads
//! race to fill the same key with bit-identical outcomes.
//!
//! ## Persistence
//!
//! The in-memory index can be backed by an on-disk record log (see
//! [`crate::persist`] for the format), so a *fresh process* rerunning
//! the campaign is served from cache instead of resimulating. The
//! backing directory is resolved once, lazily, on the first cache
//! access: [`set_cache_dir`] (what the `repro` binary calls, defaulting
//! to `<out_dir>/.simcache` unless `--no-cache`) wins over the
//! `NVP_CACHE_DIR` environment variable; with neither, the cache stays
//! memory-only and behaves exactly as before. Library users and tests
//! therefore never touch the filesystem unless they opt in. Every
//! first-time insert is appended to the log; reports loaded from disk
//! are bit-identical to recomputed ones (the key is a SHA-256 of every
//! simulation input and the value encoding round-trips float bit
//! patterns), so golden digests cannot tell a warm-disk run from a
//! cold one.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use nvp_core::RunReport;
use nvp_energy::PowerTrace;

use crate::persist::PersistentStore;

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

/// Builds a cache key from length-prefixed, type-tagged fields.
pub(crate) struct KeyHasher(Sha256);

impl KeyHasher {
    /// Starts a key with a schema + run-kind tag (e.g.
    /// `"nvp-simcache/1:nvp"`).
    pub(crate) fn new(tag: &str) -> KeyHasher {
        let mut h = KeyHasher(Sha256::new());
        h.str(tag);
        h
    }

    fn len(&mut self, n: usize) {
        self.0.update(&(n as u64).to_le_bytes());
    }

    /// A length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self, s: &str) {
        self.len(s.len());
        self.0.update(s.as_bytes());
    }

    /// A value through its `Debug` rendering (length-prefixed). `f64`
    /// `Debug` is the shortest round-trip form, so distinct values
    /// render distinctly.
    pub(crate) fn debug<T: Debug>(&mut self, value: &T) {
        let mut s = String::new();
        write!(s, "{value:?}").expect("Debug formatting does not fail");
        self.str(&s);
    }

    /// A program image: entry, code words, initialized data segments.
    pub(crate) fn program(&mut self, program: &nvp_isa::Program) {
        self.0.update(&program.entry().to_le_bytes());
        self.len(program.code().len());
        for &word in program.code() {
            self.0.update(&word.to_le_bytes());
        }
        self.len(program.data_segments().len());
        for seg in program.data_segments() {
            self.0.update(&seg.addr.to_le_bytes());
            self.len(seg.words.len());
            for &w in &seg.words {
                self.0.update(&w.to_le_bytes());
            }
        }
    }

    /// A precomputed digest (e.g. a trace's).
    pub(crate) fn digest(&mut self, d: &Digest) {
        self.0.update(d);
    }

    pub(crate) fn finish(self) -> Digest {
        self.0.finalize()
    }
}

/// Digest of a power trace: dt, length, and every sample's bit pattern.
/// Computed once per trace and reused for every run over it.
pub(crate) fn trace_digest(trace: &PowerTrace) -> Digest {
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
    /// Simulations answered from the cache (in-memory index).
    pub hits: u64,
    /// The subset of [`hits`](Self::hits) whose report was loaded from
    /// the persistent store rather than computed by this process.
    pub disk_hits: u64,
    /// Simulations actually executed (and then cached).
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

/// Where a cached report came from, so disk-served hits are countable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// Computed (or being computed) by this process.
    Computed,
    /// Loaded from the persistent store at open time.
    Disk,
}

/// The persistence backing, resolved at most once per process.
#[derive(Debug)]
enum PersistState {
    /// Neither [`set_cache_dir`] nor `NVP_CACHE_DIR` consulted yet.
    Unresolved,
    /// Memory-only (no directory configured, or opening one failed).
    Disabled,
    /// Appending to (and loaded from) an open store.
    Active(PersistentStore),
}

static CACHE: OnceLock<Mutex<BTreeMap<Digest, (SimOutcome, Origin)>>> = OnceLock::new();
static PERSIST: Mutex<PersistState> = Mutex::new(PersistState::Unresolved);
static HITS: AtomicU64 = AtomicU64::new(0);
static DISK_HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static PERSISTED: AtomicU64 = AtomicU64::new(0);
static QUARANTINED: AtomicU64 = AtomicU64::new(0);

fn cache() -> &'static Mutex<BTreeMap<Digest, (SimOutcome, Origin)>> {
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Lock order: [`PERSIST`] strictly before the [`CACHE`] map lock
/// (never the reverse), shared by resolution, loading, and appending.
fn persist_lock() -> std::sync::MutexGuard<'static, PersistState> {
    PERSIST.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Opens `dir` and merges its records into the in-memory index (never
/// overwriting an entry this process already computed). Returns the
/// number of records now serving from memory that came from disk.
///
/// Entries loaded from a *previously* attached store are dropped first:
/// re-pointing the cache at a new directory must not keep serving (or
/// counting) another directory's records — the isolation the `nvpd`
/// server relies on when jobs repoint the store. Reports this process
/// computed itself stay, which is safe because keys are content
/// addresses: a hit is bit-identical wherever it came from.
fn activate(state: &mut PersistState, dir: &Path) -> std::io::Result<u64> {
    let (store, loaded) = PersistentStore::open(dir)?;
    QUARANTINED.fetch_add(loaded.quarantined, Ordering::Relaxed);
    let mut map = cache().lock().expect("sim cache lock");
    map.retain(|_, (_, origin)| *origin != Origin::Disk);
    let mut merged = 0u64;
    for (key, outcome) in loaded.records {
        map.entry(key).or_insert_with(|| {
            merged += 1;
            (outcome, Origin::Disk)
        });
    }
    drop(map);
    *state = PersistState::Active(store);
    Ok(merged)
}

/// Points the simulation cache at a persistent directory (`Some`) or
/// pins it memory-only (`None`), overriding `NVP_CACHE_DIR`. Opening a
/// directory loads every valid record into the in-memory index
/// immediately and returns how many were merged; subsequent first-time
/// simulations are appended to it. On `Err` the cache falls back to
/// memory-only — a broken cache directory costs time, never a run.
///
/// The `repro` binary calls this with `<out_dir>/.simcache` (or `None`
/// under `--no-cache`); benchmarks call it to measure cold/warm/reload
/// behavior. Calling it again re-resolves: pointing at the same
/// directory after [`reset_sim_cache`] reloads the log from disk, and
/// pointing at a *different* directory first drops every entry the old
/// store contributed, so records never leak between cache directories
/// (see `tests/persist_cache.rs`).
pub fn set_cache_dir(dir: Option<&Path>) -> std::io::Result<u64> {
    let mut state = persist_lock();
    match dir {
        None => {
            *state = PersistState::Disabled;
            Ok(0)
        }
        Some(d) => activate(&mut state, d).inspect_err(|_| *state = PersistState::Disabled),
    }
}

/// Resolves `NVP_CACHE_DIR` on the first cache access if no explicit
/// [`set_cache_dir`] call got there first. Unset or empty means
/// memory-only, as does a directory that fails to open.
fn ensure_persist_resolved() {
    let mut state = persist_lock();
    if matches!(*state, PersistState::Unresolved) {
        *state = PersistState::Disabled;
        if let Some(dir) = std::env::var_os("NVP_CACHE_DIR").filter(|v| !v.is_empty()) {
            let _ = activate(&mut state, Path::new(&dir));
        }
    }
}

/// Best-effort append of a freshly computed outcome to the active store.
fn persist_append(key: &Digest, outcome: &SimOutcome) {
    let state = persist_lock();
    if let PersistState::Active(store) = &*state {
        if store.append(key, outcome).is_ok() {
            PERSISTED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Returns the cached outcome for `key`, or computes it with `run` and
/// caches it. The map lock is released while `run` executes, so
/// concurrent distinct simulations proceed in parallel; two threads
/// racing on the same key both compute the (bit-identical) outcome,
/// one insert wins, and only that winner is persisted.
pub(crate) fn cached_outcome(key: Digest, run: impl FnOnce() -> SimOutcome) -> SimOutcome {
    ensure_persist_resolved();
    let hit = cache().lock().expect("sim cache lock").get(&key).cloned();
    if let Some((outcome, origin)) = hit {
        HITS.fetch_add(1, Ordering::Relaxed);
        if origin == Origin::Disk {
            DISK_HITS.fetch_add(1, Ordering::Relaxed);
        }
        return outcome;
    }
    let outcome = run();
    MISSES.fetch_add(1, Ordering::Relaxed);
    let first = cache()
        .lock()
        .expect("sim cache lock")
        .insert(key, (outcome.clone(), Origin::Computed))
        .is_none();
    if first {
        persist_append(&key, &outcome);
    }
    outcome
}

/// [`cached_outcome`] for run kinds whose outcome is the report alone.
pub(crate) fn cached_run(key: Digest, run: impl FnOnce() -> RunReport) -> RunReport {
    cached_outcome(key, || SimOutcome { report: run(), latencies_ms: Vec::new() }).report
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

/// Clears the in-memory simulation cache and its counters (benchmarks
/// use this to measure cold- vs warm-cache runs). The persistence
/// configuration — and any on-disk records — are untouched; re-point
/// [`set_cache_dir`] at the directory to reload them.
pub fn reset_sim_cache() {
    cache().lock().expect("sim cache lock").clear();
    HITS.store(0, Ordering::Relaxed);
    DISK_HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    PERSISTED.store(0, Ordering::Relaxed);
    QUARANTINED.store(0, Ordering::Relaxed);
}

/// Lower-case hex rendering of a digest, for tests that pin keys.
#[cfg(test)]
pub(crate) fn hex(d: Digest) -> String {
    d.iter().fold(String::new(), |mut s, b| {
        write!(s, "{b:02x}").expect("write to String");
        s
    })
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn key_fields_are_length_prefixed() {
        // ("ab", "c") and ("a", "bc") must hash differently.
        let mut h1 = KeyHasher::new("t");
        h1.str("ab");
        h1.str("c");
        let mut h2 = KeyHasher::new("t");
        h2.str("a");
        h2.str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn trace_digest_distinguishes_traces() {
        let a = PowerTrace::from_samples(1e-4, vec![1.0e-6, 2.0e-6]);
        let b = PowerTrace::from_samples(1e-4, vec![1.0e-6, 2.0000001e-6]);
        let c = PowerTrace::from_samples(2e-4, vec![1.0e-6, 2.0e-6]);
        assert_ne!(trace_digest(&a), trace_digest(&b));
        assert_ne!(trace_digest(&a), trace_digest(&c));
        assert_eq!(trace_digest(&a), trace_digest(&a));
    }
}
