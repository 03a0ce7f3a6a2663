//! Shared helpers: standard platforms, kernels, and run plumbing.
//!
//! The standard inputs (synthetic frame, kernel instances, wearable
//! traces, unconstrained task costs) are pure functions of their
//! parameters and were historically rebuilt by every experiment. They
//! are now memoized in process-wide caches so concurrent experiments
//! share one instance; the caches are keyed on every parameter that
//! influences the value, so results are unchanged. They fill through
//! [`simcache::memo`], the same per-key slot as the simulation cache:
//! distinct inputs build in parallel and each is built once. Frames,
//! kernels and task costs stay for the life of the process. A trace
//! keeps only its spec and digest: its samples live while a job runs
//! and are released when no job is left in flight (see [`JobScope`]),
//! so a resident server holds just the traces of its running jobs. The
//! same release demotes the sim-cache's stored outcomes to the location
//! of their records.
//!
//! Each simulated platform is one [`Setup`] value. Experiments list
//! their setups once; `rows()` runs them and `setups()` hands the same
//! values to the feasibility checker. [`Setup::run`] routes through
//! the content-addressed [`crate::simcache`], so identical
//! `(program, setup, trace)` runs issued by different experiments
//! simulate only once per process.

use std::cmp::Ordering;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use nvp_core::{
    measure_task, BackupModel, BackupPolicy, BackupStyle, IntermittentSystem, RunReport,
    SystemConfig, TaskCost, WaitComputeConfig, WaitComputeSystem,
};
use nvp_device::NvmTechnology;
use nvp_energy::harvester::SourceKind;
use nvp_energy::PowerTrace;
use nvp_workloads::{GrayImage, KernelInstance, KernelKind};

use crate::record::{put_str, put_u64};
use crate::simcache::{self, memo, Digest, KeyFields, KeyHasher, Memo};
use crate::ExpConfig;

/// Volatile state bits of the NV16 core (registers + PC + pipeline FFs),
/// matching the published chips' ~2 kbit backup payloads.
pub(crate) const STATE_BITS: u64 = 2048;

/// Frame identity: everything `GrayImage::synthetic` consumes.
type FrameKey = (u64, usize, usize);

fn frame_key(cfg: &ExpConfig) -> FrameKey {
    (cfg.frame_seed, cfg.frame_w, cfg.frame_h)
}

/// The standard frame for image kernels.
pub(crate) fn frame(cfg: &ExpConfig) -> Arc<GrayImage> {
    static CACHE: Memo<FrameKey, GrayImage> = OnceLock::new();
    memo(&CACHE, frame_key(cfg), || GrayImage::synthetic(cfg.frame_seed, cfg.frame_w, cfg.frame_h))
}

/// Builds (or fetches) a kernel instance on the standard frame.
pub(crate) fn kernel(cfg: &ExpConfig, kind: KernelKind) -> Arc<KernelInstance> {
    static CACHE: Memo<(FrameKey, KernelKind), KernelInstance> = OnceLock::new();
    memo(&CACHE, (frame_key(cfg), kind), || {
        kind.build(&frame(cfg)).expect("kernel builds on standard frame")
    })
}

/// Version of the trace generators behind [`SourceKind::generate`].
/// A trace's cache key names its spec, not its samples, so any change
/// to what a generator emits must bump this, or a persistent cache
/// would serve runs over the old samples. `tests/golden_digest.rs`
/// (`trace_generators_match_golden_digests`) pins every registry
/// trace's samples to catch an edit that forgets.
const TRACE_GEN_VERSION: u64 = 1;

/// Everything a generated trace is a pure function of: the source kind,
/// the seed and the duration (as its bit pattern). It keys both the
/// trace memo and, through [`digest`](Self::digest), the sim-cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TraceSpec {
    kind: SourceKind,
    seed: u64,
    duration_bits: u64,
}

impl TraceSpec {
    fn new(kind: SourceKind, seed: u64, duration_s: f64) -> TraceSpec {
        TraceSpec { kind, seed, duration_bits: duration_s.to_bits() }
    }

    /// The trace's sim-cache key material: a tag, the generator version
    /// and the spec.
    fn digest(&self) -> Digest {
        let mut key = KeyHasher::new("nvp-simcache/2:trace");
        key.u64(TRACE_GEN_VERSION);
        key.field(self);
        key.finish()
    }

    fn generate(&self) -> PowerTrace {
        self.kind.generate(self.seed, f64::from_bits(self.duration_bits))
    }

    fn order(&self) -> (&'static str, u64, u64) {
        (self.kind.name(), self.seed, self.duration_bits)
    }
}

impl Ord for TraceSpec {
    fn cmp(&self, other: &Self) -> Ordering {
        self.order().cmp(&other.order())
    }
}

impl PartialOrd for TraceSpec {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl KeyFields for TraceSpec {
    fn put_key(&self, out: &mut Vec<u8>) {
        let TraceSpec { kind, seed, duration_bits } = *self;
        put_str(out, kind.name());
        put_u64(out, seed);
        put_u64(out, duration_bits);
    }
}

/// One memoized trace: its spec and the spec's digest, kept for the
/// life of the process, and the samples, held only while a job runs.
struct TraceEntry {
    spec: TraceSpec,
    digest: Digest,
    samples: Mutex<Samples>,
}

/// The samples a [`TraceEntry`] holds, and how often it generated them.
#[derive(Default)]
struct Samples {
    held: Option<Arc<PowerTrace>>,
    generations: u64,
}

impl TraceEntry {
    fn samples(&self) -> MutexGuard<'_, Samples> {
        // A panicking generator leaves `held` empty, so a poisoned lock
        // holds nothing torn.
        self.samples.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The samples, generated if the entry holds none. The lock is held
    /// across generation, so concurrent readers of one spec share one.
    fn read(&self) -> Arc<PowerTrace> {
        let mut samples = self.samples();
        let Samples { held, generations } = &mut *samples;
        Arc::clone(held.get_or_insert_with(|| {
            *generations += 1;
            Arc::new(self.spec.generate())
        }))
    }
}

/// A shared power trace keyed by its spec digest, so runs over it are
/// keyed without touching a sample. The samples are generated the first
/// time anything reads them: a run whose sim-cache key hits never
/// builds its trace. Within a job each spec is generated once; see
/// [`JobScope`] for when the memo lets go of them. A handle keeps the
/// samples it has read.
#[derive(Clone)]
pub(crate) struct SimTrace {
    entry: Arc<TraceEntry>,
    samples: OnceLock<Arc<PowerTrace>>,
}

impl SimTrace {
    pub(crate) fn digest(&self) -> &Digest {
        &self.entry.digest
    }

    /// The memoized trace itself, shared rather than copied.
    pub(crate) fn shared(&self) -> Arc<PowerTrace> {
        Arc::clone(self.samples())
    }

    fn samples(&self) -> &Arc<PowerTrace> {
        self.samples.get_or_init(|| self.entry.read())
    }

    /// Whether anything has ever generated this trace's samples.
    #[cfg(test)]
    fn is_generated(&self) -> bool {
        self.entry.samples().generations > 0
    }
}

impl Deref for SimTrace {
    type Target = PowerTrace;

    fn deref(&self) -> &PowerTrace {
        self.samples()
    }
}

/// Every trace spec this process has named, with its samples if held.
static TRACES: Memo<TraceSpec, TraceEntry> = OnceLock::new();

/// A memoized harvester trace for any source kind. F7's technology ×
/// harvester grid and F11's solar variant hit this instead of
/// regenerating the trace per grid cell.
pub(crate) fn source_trace(cfg: &ExpConfig, kind: SourceKind, seed: u64) -> SimTrace {
    let spec = TraceSpec::new(kind, seed, cfg.trace_duration_s);
    let entry = memo(&TRACES, spec, || TraceEntry {
        spec,
        digest: spec.digest(),
        samples: Mutex::default(),
    });
    SimTrace { entry, samples: OnceLock::new() }
}

/// Calls `f` on every trace entry the memo holds.
fn each_trace(mut f: impl FnMut(&TraceEntry)) {
    let Some(map) = TRACES.get() else { return };
    let map = map.lock().unwrap_or_else(PoisonError::into_inner);
    for entry in map.values().filter_map(|slot| slot.get()) {
        f(entry);
    }
}

/// Jobs in flight: the number of live [`JobScope`]s.
static JOBS: Mutex<usize> = Mutex::new(0);

/// One campaign job's hold on the trace memo and the sim-cache. While
/// any scope lives, generated samples stay in the memo, so every task
/// of a job (F1's rows and series, F2, the simulations) shares one
/// generation per spec, and decoded outcomes stay in the sim-cache.
/// When the last scope drops, both let go:
///
/// * the memo empties every trace's samples; specs and digests stay,
///   and a later job that reads a spec regenerates it, byte for byte
///   the same samples;
/// * the sim-cache demotes every outcome the attached store holds to
///   the byte offset of its record ([`simcache::demote_stored`]), and a
///   later job that looks one up re-reads that record. Without a store
///   nothing is demoted.
///
/// A resident server therefore holds only the traces and outcomes of
/// the jobs it is running. `nvpd`'s default single worker runs one job
/// at a time, so every job's end releases; with more workers both are
/// released at idle instants, not per job. The scope releases on
/// unwind too, so a panicking job lets go as well.
pub(crate) struct JobScope(());

impl JobScope {
    pub(crate) fn enter() -> JobScope {
        *jobs() += 1;
        JobScope(())
    }
}

impl Drop for JobScope {
    fn drop(&mut self) {
        let mut jobs = jobs();
        *jobs -= 1;
        // Released under the counter lock, so no job starts mid-sweep.
        if *jobs == 0 {
            each_trace(|entry| entry.samples().held = None);
            simcache::demote_stored();
        }
    }
}

fn jobs() -> MutexGuard<'static, usize> {
    JOBS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Trace-memo counters (process-wide, via [`trace_memo_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceMemoStats {
    /// Trace sample generations over the life of the process. Jobs in
    /// flight generate each spec they read at most once; a spec is
    /// generated again only after the memo released it.
    pub generated: u64,
    /// Sample bytes the memo holds right now; zero between jobs.
    pub resident_bytes: u64,
}

/// Process-wide trace-memo counters.
#[must_use]
pub fn trace_memo_stats() -> TraceMemoStats {
    let mut stats = TraceMemoStats::default();
    each_trace(|entry| {
        let samples = entry.samples();
        stats.generated += samples.generations;
        if let Some(held) = &samples.held {
            stats.resident_bytes += std::mem::size_of_val(held.samples()) as u64;
        }
    });
    stats
}

/// The standard wearable trace for a profile seed.
pub(crate) fn watch_trace(cfg: &ExpConfig, seed: u64) -> SimTrace {
    source_trace(cfg, SourceKind::WristWatch, seed)
}

/// The reference hardware-NVP backup model (distributed FeRAM NVFFs).
pub(crate) fn standard_backup() -> BackupModel {
    BackupModel::distributed(NvmTechnology::Feram, STATE_BITS)
}

/// System configuration sized for a kernel's memory needs.
pub(crate) fn system_config_for(inst: &KernelInstance) -> SystemConfig {
    let mut cfg = SystemConfig::default();
    cfg.dmem_words = cfg.dmem_words.max(inst.min_dmem_words());
    cfg
}

/// System configuration for a kernel on an NVP whose *data memory* is
/// built from the given technology: loads/stores pay that technology's
/// per-bit energies instead of the generic defaults.
pub(crate) fn system_config_for_tech(
    inst: &KernelInstance,
    tech: nvp_device::NvmTechnology,
) -> SystemConfig {
    let p = tech.params();
    let mut cfg = system_config_for(inst);
    cfg.energy_model = cfg
        .energy_model
        .with_mem_write_extra(p.write_energy_j(16))
        .with_mem_read_extra(p.read_energy_j(16));
    cfg
}

/// Unconstrained task cost of the standard kernel for `kind`.
///
/// Keyed on the frame identity and kernel kind — the same key space as
/// [`kernel`] — because the cost is a pure function of the generated
/// program and its data.
pub(crate) fn task_cost(cfg: &ExpConfig, kind: KernelKind) -> TaskCost {
    static CACHE: Memo<(FrameKey, KernelKind), TaskCost> = OnceLock::new();
    *memo(&CACHE, (frame_key(cfg), kind), || {
        let inst = kernel(cfg, kind);
        measure_task(inst.program(), &system_config_for(&inst), 500_000_000)
            .expect("kernel terminates under continuous power")
    })
}

/// One simulated platform: the value an experiment both runs (through
/// the simulation cache) and declares to `repro --check`, so the
/// feasibility checker judges exactly what the simulator is built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Setup {
    /// An intermittent platform: hardware NVP or software checkpointing.
    Nvp {
        /// Platform configuration.
        sys: SystemConfig,
        /// Backup/restore cost model.
        backup: BackupModel,
        /// When to back up.
        policy: BackupPolicy,
    },
    /// The wait-then-compute baseline.
    Wait(WaitComputeConfig),
}

impl Setup {
    /// Runs this platform over a trace, deduplicated through the
    /// simulation cache.
    pub(crate) fn run(&self, inst: &KernelInstance, trace: &SimTrace) -> RunReport {
        simcache::cached_run(self.key(inst, trace), || {
            let report = match *self {
                Setup::Nvp { sys, backup, policy } => {
                    IntermittentSystem::new(inst.program(), sys, backup, policy)
                        .expect("platform builds")
                        .run(trace)
                }
                Setup::Wait(wcfg) => WaitComputeSystem::new(inst.program(), wcfg)
                    .expect("platform builds")
                    .run(trace),
            };
            report.expect("workload does not fault")
        })
    }

    /// The simulation-cache key of [`run`](Self::run), under the
    /// `:nvp` or `:wait` run-kind tag.
    fn key(&self, inst: &KernelInstance, trace: &SimTrace) -> Digest {
        let tag = match self {
            Setup::Nvp { .. } => "nvp-simcache/2:nvp",
            Setup::Wait(_) => "nvp-simcache/2:wait",
        };
        self.key_hasher(tag, inst, trace).finish()
    }

    /// A cache key under `tag` over everything a run of this platform
    /// reads: the program image, each configuration value's canonical
    /// encoding, and the trace's spec digest. Run kinds with more inputs
    /// (F12's fault plan) add them before finishing.
    pub(crate) fn key_hasher(
        &self,
        tag: &str,
        inst: &KernelInstance,
        trace: &SimTrace,
    ) -> KeyHasher {
        let mut key = KeyHasher::new(tag);
        key.program(inst.program());
        match self {
            Setup::Nvp { sys, backup, policy } => {
                key.field(sys);
                key.field(backup);
                key.field(policy);
            }
            Setup::Wait(wcfg) => key.field(wcfg),
        }
        key.digest(trace.digest());
        key
    }
}

/// The reference hardware NVP: distributed FeRAM NVFFs, demand backup.
pub(crate) fn nvp_setup(inst: &KernelInstance) -> Setup {
    style_setup(inst, BackupStyle::Distributed, NvmTechnology::Feram)
}

/// The platform of one backup style on `tech`. Hardware styles back up
/// on demand; software checkpointing (Hibernus-class: volatile SRAM
/// MCU, CPU-copied checkpoints at a voltage trigger) also copies the
/// kernel's live RAM and keeps a 1.3x reserve.
pub(crate) fn style_setup(inst: &KernelInstance, style: BackupStyle, tech: NvmTechnology) -> Setup {
    let mut sys = system_config_for(inst);
    let (backup, policy) = match style {
        BackupStyle::Distributed => {
            (BackupModel::distributed(tech, STATE_BITS), BackupPolicy::demand())
        }
        BackupStyle::Centralized => {
            (BackupModel::centralized(tech, STATE_BITS), BackupPolicy::demand())
        }
        BackupStyle::Software => {
            sys.dmem_nonvolatile = false;
            let ram_words = inst.min_dmem_words() as u64;
            let backup = BackupModel::software(tech, STATE_BITS, ram_words, sys.clock_hz);
            (backup, BackupPolicy::OnDemand { margin: 1.3 })
        }
    };
    Setup::Nvp { sys, backup, policy }
}

/// The software-checkpointing baseline on FeRAM.
pub(crate) fn swckpt_setup(inst: &KernelInstance) -> Setup {
    style_setup(inst, BackupStyle::Software, NvmTechnology::Feram)
}

/// The wait-then-compute baseline for the standard kernel of `kind`:
/// ESD sized for the kernel's task with a 1.3x margin.
pub(crate) fn wait_setup(cfg: &ExpConfig, kind: KernelKind) -> Setup {
    Setup::Wait(wait_config(cfg, kind))
}

/// The configuration behind [`wait_setup`], for sweeps that vary it.
pub(crate) fn wait_config(cfg: &ExpConfig, kind: KernelKind) -> WaitComputeConfig {
    let mut wcfg = WaitComputeConfig::default().sized_for(&task_cost(cfg, kind), 1.3);
    wcfg.dmem_words = wcfg.dmem_words.max(kernel(cfg, kind).min_dmem_words());
    wcfg
}

/// Seconds per completed frame, or `None` if no frame completed.
pub(crate) fn seconds_per_frame(report: &RunReport) -> Option<f64> {
    (report.tasks_completed > 0).then(|| report.duration_s / report.tasks_completed as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simcache::hex;

    /// A run's cache key is a pure function of its inputs, byte for byte
    /// what earlier builds wrote: existing cache directories stay valid
    /// only while these pinned keys hold.
    #[test]
    fn setup_keys_are_pinned() {
        let cfg = ExpConfig::quick();
        let inst = kernel(&cfg, KernelKind::Sobel);
        let trace = watch_trace(&cfg, cfg.profile_seeds[0]);
        let key = |setup: Setup| hex(setup.key(&inst, &trace));
        assert_eq!(
            hex(*trace.digest()),
            "6274a47713c4265909f004e293e784c7245d4f2c27b6b286ebf196f378c2670a"
        );
        assert_eq!(
            key(nvp_setup(&inst)),
            "de8d9b5bc17da1f0d03cf106037e08622bc69b76513fbc5faf004fb6d516cb4c"
        );
        assert_eq!(
            key(swckpt_setup(&inst)),
            "2532d744c028fdd159be320bae7cb5cf32ffccd23ee9929c2eeb0b853e4970d8"
        );
        assert_eq!(
            key(wait_setup(&cfg, KernelKind::Sobel)),
            "9f62bee7a3afbbcfa22b7714a8488ff20854b3a54fc182bb9bd793a38a588d67"
        );
    }

    #[test]
    fn trace_spec_keys_change_with_every_component() {
        let base = TraceSpec::new(SourceKind::WristWatch, 1, 2.0);
        let edits = [
            TraceSpec { kind: SourceKind::SolarIndoor, ..base },
            TraceSpec { seed: 2, ..base },
            TraceSpec::new(SourceKind::WristWatch, 1, 10.0),
        ];
        let mut keys: Vec<Digest> = edits.iter().map(TraceSpec::digest).collect();
        keys.push(base.digest());
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), edits.len() + 1, "every component moves the key");
        assert_eq!(base.digest(), TraceSpec::new(SourceKind::WristWatch, 1, 2.0).digest());
    }

    #[test]
    fn cached_runs_never_generate_their_trace() {
        // A duration no other test uses, so only this test reads these
        // traces.
        let cfg = ExpConfig { trace_duration_s: 0.375, ..ExpConfig::quick() };
        let inst = kernel(&cfg, KernelKind::Sobel);
        let trace = watch_trace(&cfg, 901);
        let setup = nvp_setup(&inst);
        let stored = RunReport { tasks_completed: 7, ..RunReport::default() };
        simcache::cached_run(setup.key(&inst, &trace), || stored);
        assert_eq!(setup.run(&inst, &trace), stored);
        assert!(!trace.is_generated(), "a sim-cache hit reads no sample");

        // F1 and F2 summarize the samples themselves.
        let only = |seed| ExpConfig { profile_seeds: vec![seed], ..cfg.clone() };
        assert_eq!(crate::f1_power_profiles::rows(&only(901)).len(), 1);
        assert!(trace.is_generated());
        let f2_trace = watch_trace(&cfg, 902);
        assert!(!f2_trace.is_generated());
        assert_eq!(crate::f2_outage_stats::rows(&only(902)).len(), 1);
        assert!(f2_trace.is_generated());
    }

    #[test]
    fn memoized_traces_are_the_generators_output() {
        let cfg = ExpConfig::quick();
        let trace = source_trace(&cfg, SourceKind::RfWifi, 3);
        assert_eq!(*trace.shared(), SourceKind::RfWifi.generate(3, cfg.trace_duration_s));
        assert_eq!(*trace.digest(), TraceSpec::new(SourceKind::RfWifi, 3, 2.0).digest());
    }
}
