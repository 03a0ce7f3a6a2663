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
//! hashes the bytes once; the tag and program image that open a key are
//! hashed once per program and tag, and later keys continue from the
//! memoized state ([`KeyHasher::with_program`]).
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
//! The attached store also keeps the inputs a campaign derives before
//! it simulates, under keys of their own tags (`:summary`, `:task`):
//! trace summaries and task costs ([`stored`], [`store`],
//! [`cached_task_cost`]; the record format is in [`crate::persist`]).
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
//! environment variable changes what they do, unless they opt in.
//! Attaching indexes the store's records and decodes none. A lookup
//! the map misses asks the store, which reads and checks that one
//! record, and counts a disk hit; every first-time simulation is
//! appended to the log. Outcomes read from disk are bit-identical to
//! recomputed ones (the key is a SHA-256 of every simulation input and
//! the value encoding round-trips float bit patterns), so golden
//! digests cannot tell a warm-disk run from a cold one.
//!
//! ## Lifetime
//!
//! A lookup returns a [`Lease`] on its key's slot, and a job holds every
//! lease it took until its run step returns, so a key a job plans twice
//! is read or simulated once and then hit in memory. The map holds a
//! slot strongly only when no record can give its outcome back: the
//! cache is memory-only, or the store refused the outcome. Every other
//! slot, being filled or holding an outcome the attached store indexes,
//! lives only while a lease on it does, and the last lease to drop
//! removes its key from the map; a later lookup reads that key's record
//! again. A record that fails its CRC, kind or key check, or does not
//! decode, is recomputed, never served. [`sim_cache_memo_stats`] counts
//! resident outcomes, the outcome keys the store indexes and the
//! records read.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

use nvp_core::{
    BackupModel, BackupPolicy, ClockPolicy, FaultPlan, RunReport, SystemConfig, TaskCost,
    WaitComputeConfig,
};
use nvp_energy::Rectifier;
use nvp_sim::{CycleModel, EnergyModel};

use crate::persist::{PersistentStore, Stored};
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
#[derive(Clone)]
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
        // One padding step: the 0x80 marker and zeros after the buffered
        // bytes, then the bit length in the last eight bytes of the final
        // block, which is a block of its own when the marker leaves no
        // room for it.
        let bit_len = self.total.wrapping_mul(8);
        let mut block = self.buf;
        block[self.buf_len] = 0x80;
        block[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.h, &block);
            block = [0; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
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
///
/// A key over a program starts from the hash state after its tag and
/// program image ([`with_program`](Self::with_program)), memoized per
/// prefix, so the few programs a campaign runs are each hashed once
/// per tag however many keys name them. The key bytes are the same
/// either way: only how often they are hashed changes.
pub(crate) struct KeyHasher {
    /// The state after the memoized prefix; fresh without one.
    state: Sha256,
    /// Fields after the prefix.
    rest: Vec<u8>,
}

/// Hash states after a tag and a program image: the image's bytes, and
/// one state per tag that has opened a key over it. Each image is kept
/// once, however many tags name it.
type Prefixes = BTreeMap<Vec<u8>, Vec<(&'static str, Sha256)>>;

static PREFIXES: Mutex<Prefixes> = Mutex::new(BTreeMap::new());
/// Bytes key derivation has fed to SHA-256.
static KEY_BYTES: AtomicU64 = AtomicU64::new(0);

impl KeyHasher {
    /// Starts a key with a schema + run-kind tag (e.g.
    /// `"nvp-simcache/2:trace"`).
    pub(crate) fn new(tag: &str) -> KeyHasher {
        let mut rest = Vec::with_capacity(128);
        put_str(&mut rest, tag);
        KeyHasher { state: Sha256::new(), rest }
    }

    /// Starts a key with a tag and a program image (entry, code words,
    /// initialized data segments), continuing from the memoized state
    /// after those bytes.
    pub(crate) fn with_program(tag: &'static str, program: &nvp_isa::Program) -> KeyHasher {
        let segs = program.data_segments();
        let data_bytes: usize = segs.iter().map(|seg| 12 + 2 * seg.words.len()).sum();
        let mut image = Vec::with_capacity(20 + 4 * program.code().len() + data_bytes);
        put_u32(&mut image, program.entry());
        put_count(&mut image, program.code().len());
        program.code().iter().for_each(|&word| put_u32(&mut image, word));
        put_count(&mut image, segs.len());
        for seg in segs {
            put_u32(&mut image, u32::from(seg.addr));
            put_count(&mut image, seg.words.len());
            seg.words.iter().for_each(|&w| image.extend_from_slice(&w.to_le_bytes()));
        }
        // A panicking hash leaves no entry, so a poisoned map holds
        // nothing torn.
        let mut prefixes = PREFIXES.lock().unwrap_or_else(PoisonError::into_inner);
        let known = prefixes.get(&image).and_then(|states| states.iter().find(|(t, _)| *t == tag));
        let state = match known {
            Some((_, state)) => state.clone(),
            None => {
                let mut head = Vec::with_capacity(4 + tag.len());
                put_str(&mut head, tag);
                let mut state = Sha256::new();
                state.update(&head);
                state.update(&image);
                KEY_BYTES.fetch_add((head.len() + image.len()) as u64, Ordering::Relaxed);
                prefixes.entry(image).or_default().push((tag, state.clone()));
                state
            }
        };
        KeyHasher { state, rest: Vec::with_capacity(512) }
    }

    /// A value through its canonical encoding.
    pub(crate) fn field(&mut self, value: &impl KeyFields) {
        value.put_key(&mut self.rest);
    }

    /// A `u64`.
    pub(crate) fn u64(&mut self, v: u64) {
        put_u64(&mut self.rest, v);
    }

    /// A precomputed digest (e.g. a trace spec's).
    pub(crate) fn digest(&mut self, d: &Digest) {
        self.rest.extend_from_slice(d);
    }

    pub(crate) fn finish(mut self) -> Digest {
        KEY_BYTES.fetch_add(self.rest.len() as u64, Ordering::Relaxed);
        self.state.update(&self.rest);
        self.state.finalize()
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

/// Cache hit/miss counters for one campaign job (or the whole process,
/// via [`sim_cache_stats`]).
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

/// A decoded outcome the map holds.
struct Resident {
    outcome: SimOutcome,
    /// Read from the attached store, so hits on it count as disk hits.
    from_disk: bool,
}

/// A key's one slot: empty while its outcome is being filled.
type Slot = OnceLock<Resident>;

/// How the map holds a key's slot.
enum Entry {
    /// For the life of the process: no record can give the outcome
    /// back (the cache is memory-only, or the store refused it).
    Kept(Arc<Slot>),
    /// While a [`Lease`] on it lives: the slot is being filled, or the
    /// attached store indexes its outcome.
    Leased(Weak<Slot>),
}

impl Entry {
    /// The slot, if it is still held.
    fn slot(&self) -> Option<Arc<Slot>> {
        match self {
            Entry::Kept(slot) => Some(Arc::clone(slot)),
            Entry::Leased(slot) => slot.upgrade(),
        }
    }
}

static CACHE: Mutex<BTreeMap<Digest, Entry>> = Mutex::new(BTreeMap::new());
/// The attached store, read on every map miss and appended to on every
/// simulation; `None` is memory-only.
static PERSIST: Mutex<Option<PersistentStore>> = Mutex::new(None);
static HITS: AtomicU64 = AtomicU64::new(0);
static DISK_HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static PERSISTED: AtomicU64 = AtomicU64::new(0);
static QUARANTINED: AtomicU64 = AtomicU64::new(0);
static RELOADED: AtomicU64 = AtomicU64::new(0);
static TASK_COSTS_LOADED: AtomicU64 = AtomicU64::new(0);
static TASK_COSTS_MEASURED: AtomicU64 = AtomicU64::new(0);

fn cache() -> MutexGuard<'static, BTreeMap<Digest, Entry>> {
    CACHE.lock().expect("sim cache lock")
}

/// Lock order: [`PERSIST`] strictly before the [`CACHE`] map lock
/// (never the reverse), shared by attaching and counting; a store read
/// or append takes [`PERSIST`] alone, and a lookup or a dropped
/// [`Lease`] the map lock alone. A slot fills (reading or appending)
/// holding no map lock, so nothing that holds [`PERSIST`] may wait on a
/// slot.
fn persist_lock() -> MutexGuard<'static, Option<PersistentStore>> {
    PERSIST.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Points the simulation cache at a persistent directory (`Some`) or
/// makes it memory-only (`None`, the state before any call). Opening a
/// directory indexes every record it holds (outcomes, trace summaries
/// and task costs) and decodes none: a lookup the map misses reads its
/// one record. Returns the number of distinct outcome keys the store
/// indexes; subsequent first-time simulations are appended to it. On
/// `Err` the cache falls back to memory-only — a broken cache directory
/// costs time, never a run.
///
/// The `repro` binary calls this with `$NVP_CACHE_DIR` or
/// `<out_dir>/.simcache` (not at all under `--no-cache`), `nvpd serve`
/// with its state directory's store or `$NVP_CACHE_DIR`; benchmarks
/// call it to measure cold/warm/reload behavior. Calling it again
/// re-attaches: it drops the previous store and every slot the map
/// holds only for a lease, so records never leak between cache
/// directories (see `tests/persist_cache.rs`). Outcomes no store holds
/// stay, which is safe because keys are content addresses: a hit is
/// bit-identical wherever it came from. Every call forgets the task
/// costs memoized so far, as [`reset_sim_cache`] does.
pub fn set_cache_dir(dir: Option<&Path>) -> std::io::Result<u64> {
    let mut state = persist_lock();
    *state = None;
    crate::common::forget_task_costs();
    cache().retain(|_, entry| matches!(entry, Entry::Kept(_)));
    let Some(dir) = dir else { return Ok(0) };
    let (store, loaded) = PersistentStore::open(dir)?;
    QUARANTINED.fetch_add(loaded.quarantined, Ordering::Relaxed);
    let outcomes = store.outcomes();
    *state = Some(store);
    Ok(outcomes)
}

/// The value recorded under `key` in the attached store; `None` when
/// the cache is memory-only or no intact record under `key` decodes.
pub(crate) fn stored<T: Stored>(key: &Digest) -> Option<T> {
    persist_lock().as_mut()?.get(key)
}

/// Best-effort append of a computed value to the attached store: a
/// value the store refuses is recomputed when next needed. Returns
/// whether the store took it.
pub(crate) fn store<T: Stored>(key: &Digest, value: &T) -> bool {
    persist_lock().as_mut().is_some_and(|store| store.append(key, value).is_ok())
}

/// A program's unconstrained task cost, keyed by `key`: read from the
/// attached store, or measured by `measure` and stored.
pub(crate) fn cached_task_cost(key: &Digest, measure: impl FnOnce() -> TaskCost) -> TaskCost {
    if let Some(cost) = stored(key) {
        TASK_COSTS_LOADED.fetch_add(1, Ordering::Relaxed);
        return cost;
    }
    TASK_COSTS_MEASURED.fetch_add(1, Ordering::Relaxed);
    let cost = measure();
    store(key, &cost);
    cost
}

/// A hold on one key's filled slot, returned by [`cached_outcome`]:
/// while any lease on a key lives, every lookup of the key hits the
/// map. Dropping the last lease on a slot the map holds only for leases
/// removes its key.
pub(crate) struct Lease {
    key: Digest,
    /// Always `Some` until dropped, when it is let go under the map
    /// lock.
    slot: Option<Arc<Slot>>,
}

impl Lease {
    fn slot(&self) -> &Arc<Slot> {
        self.slot.as_ref().expect("a lease holds its slot until dropped")
    }

    /// The key's outcome.
    pub(crate) fn outcome(&self) -> &SimOutcome {
        &self.slot().get().expect("a lease's slot is filled").outcome
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        // A drop must not panic. Every map update is one insert or
        // removal, so a poisoned map holds nothing torn.
        let mut map = CACHE.lock().unwrap_or_else(PoisonError::into_inner);
        // Leases are taken and dropped under the map lock, so the last
        // one on a slot sees its entry unheld.
        drop(self.slot.take());
        if matches!(map.get(&self.key), Some(Entry::Leased(slot)) if slot.strong_count() == 0) {
            map.remove(&self.key);
        }
    }
}

/// Returns a lease on the outcome for `key`, read from the map, from
/// the key's record in the attached store, or computed with `run`,
/// appended to the store and cached, all through the key's one slot.
/// Distinct keys simulate in parallel; a caller that arrives while its
/// key is being filled waits for that one fill and counts a hit. A key
/// the map does not hold fills from its record and counts a disk hit;
/// should the store hold no record that passes its checks, `run`
/// recomputes it. A miss is counted exactly when `run` ran here. A
/// panicking `run` leaves the key empty for the next caller.
pub(crate) fn cached_outcome(key: Digest, run: impl FnOnce() -> SimOutcome) -> Lease {
    let slot = {
        let mut map = cache();
        match map.get(&key).and_then(Entry::slot) {
            Some(slot) => slot,
            None => {
                let slot = Arc::default();
                map.insert(key, Entry::Leased(Arc::downgrade(&slot)));
                slot
            }
        }
    };
    let lease = Lease { key, slot: Some(slot) };
    let (mut ran, mut kept) = (false, false);
    let resident = lease.slot().get_or_init(|| {
        if let Some(outcome) = stored(&key) {
            RELOADED.fetch_add(1, Ordering::Relaxed);
            return Resident { outcome, from_disk: true };
        }
        ran = true;
        let outcome = run();
        if store(&key, &outcome) {
            PERSISTED.fetch_add(1, Ordering::Relaxed);
        } else {
            kept = true;
        }
        Resident { outcome, from_disk: false }
    });
    if ran {
        MISSES.fetch_add(1, Ordering::Relaxed);
    } else {
        HITS.fetch_add(1, Ordering::Relaxed);
        if resident.from_disk {
            DISK_HITS.fetch_add(1, Ordering::Relaxed);
        }
    }
    if kept {
        cache().insert(key, Entry::Kept(Arc::clone(lease.slot())));
    }
    lease
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

/// What the sim-cache map and its store hold, how often a lookup read a
/// record, and where its task costs came from (process-wide, via
/// [`sim_cache_memo_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCacheMemoStats {
    /// Outcomes held decoded right now.
    pub resident: u64,
    /// Distinct outcome keys the attached store indexes; zero without
    /// one. Between jobs none of them is resident.
    pub on_disk: u64,
    /// Outcomes read from the attached store's records since the
    /// process started or the cache was last reset: one per key a job
    /// looked up while the map did not hold it.
    pub reloaded: u64,
    /// Task costs read from the attached store's records since the
    /// process started or the cache was last reset.
    pub task_costs_loaded: u64,
    /// Task costs measured (by simulating the program under continuous
    /// power) since the process started or the cache was last reset.
    pub task_costs_measured: u64,
}

/// Process-wide sim-cache memo counters.
#[must_use]
pub fn sim_cache_memo_stats() -> SimCacheMemoStats {
    let on_disk = persist_lock().as_ref().map_or(0, PersistentStore::outcomes);
    let resident =
        cache().values().filter_map(Entry::slot).filter(|slot| slot.get().is_some()).count() as u64;
    SimCacheMemoStats {
        resident,
        on_disk,
        reloaded: RELOADED.load(Ordering::Relaxed),
        task_costs_loaded: TASK_COSTS_LOADED.load(Ordering::Relaxed),
        task_costs_measured: TASK_COSTS_MEASURED.load(Ordering::Relaxed),
    }
}

/// Bytes cache-key derivation has hashed over the life of the process:
/// each key's fields after its tag and program, plus each tag and
/// program image once per program and tag. Kept apart from
/// [`SimCacheMemoStats`], which describes what the map holds: every
/// lookup hashes key bytes.
#[must_use]
pub fn key_bytes_hashed() -> u64 {
    KEY_BYTES.load(Ordering::Relaxed)
}

/// Clears the in-memory simulation cache and its counters (benchmarks
/// use this to measure cold- vs warm-cache runs), and forgets the task
/// costs memoized so far, as a new process would start. The attached
/// store — its index and its records — is untouched: a lookup still
/// reads it, and re-pointing [`set_cache_dir`] at the directory
/// indexes it afresh.
pub fn reset_sim_cache() {
    cache().clear();
    crate::common::forget_task_costs();
    for counter in [
        &HITS,
        &DISK_HITS,
        &MISSES,
        &PERSISTED,
        &QUARANTINED,
        &RELOADED,
        &TASK_COSTS_LOADED,
        &TASK_COSTS_MEASURED,
    ] {
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
                        .outcome()
                        .clone()
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
        assert_eq!(*cached_outcome(key, run).outcome(), outcome(7), "the next caller simulates");
        assert_eq!(*cached_outcome(key, run).outcome(), outcome(7), "and later callers hit");
        assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly once");
    }
}
