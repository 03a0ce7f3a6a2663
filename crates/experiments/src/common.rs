//! Shared helpers: standard platforms, kernels, and run plumbing.
//!
//! The standard inputs (synthetic frame, kernel instances and their
//! block streams, wearable traces, unconstrained task costs) are pure
//! functions of their parameters and were historically rebuilt by every
//! experiment. They are now shared, keyed on every parameter that
//! influences the value, so concurrent experiments read one instance
//! and results are unchanged. Frames, kernels, block streams and task
//! costs fill through [`simcache::memo`], the same per-key slot as the
//! simulation cache (distinct inputs build in parallel and each is
//! built once), and stay for the life of the process. A trace is the
//! one input a job owns: every handle on a spec shares one entry, which
//! holds the samples (read only by simulations) and the summary (read
//! by the profile and outage figures, streamed from the generator
//! without a sample array), and both are freed with the spec's last
//! handle. A job's planned entries hold its handles, and each drops its
//! own as soon as it has run, so a trace's samples live only while a
//! simulation on it is still to run: a job holds about one trace per
//! worker, and a resident server only the traces its running jobs have
//! still to read. With
//! a persistent store attached, a summary and a task cost are read from
//! it before they are streamed or measured, and stored after, so a warm
//! rerun computes neither.
//!
//! Each simulated platform is one [`Setup`] value. An experiment's plan
//! lists it with its kernel and trace ([`crate::plan::Plan`]), and the
//! feasibility checker judges the same values. A run is keyed in the
//! content-addressed [`crate::simcache`], so identical
//! `(program, setup, trace)` runs planned by different experiments
//! simulate only once per process.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::io;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

use nvp_core::{
    measure_task, BackupModel, BackupPolicy, BackupStyle, FaultPlan, IntermittentSystem, RunReport,
    SimObserver, SystemConfig, TaskCost, WaitComputeConfig,
};
use nvp_device::NvmTechnology;
use nvp_energy::harvester::{self, SourceKind};
use nvp_energy::{PowerTrace, TraceSummary, OPERATING_THRESHOLD_W};
use nvp_isa::Program;
use nvp_sim::{BlockStream, MachineImage};
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

/// Block streams this process has recorded, by program image and
/// data-memory size (`None` for a program that has none). Like kernel
/// instances they stay for the life of the process: the six default
/// kernels' streams hold 13,184 bytes.
static STREAMS: Memo<Digest, Option<Arc<BlockStream>>> = OnceLock::new();

/// Block-stream counters (process-wide, via [`cost_stream_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostStreamStats {
    /// Streams recorded: at most one per program and data-memory size,
    /// and only when a simulation misses the sim-cache.
    pub recorded: u64,
    /// Bytes the recorded streams hold.
    pub bytes: u64,
    /// Instructions fault-free NVP runs served from streams.
    pub served: u64,
    /// Runs that left their stream for the block engine.
    pub left: u64,
}

/// The counters behind [`CostStreamStats`].
static STREAMS_RECORDED: AtomicU64 = AtomicU64::new(0);
static STREAM_BYTES: AtomicU64 = AtomicU64::new(0);
static STREAM_SERVED: AtomicU64 = AtomicU64::new(0);
static STREAMS_LEFT: AtomicU64 = AtomicU64::new(0);

/// Process-wide block-stream counters.
#[must_use]
pub fn cost_stream_stats() -> CostStreamStats {
    let load = |counter: &AtomicU64| counter.load(AtomicOrdering::Relaxed);
    CostStreamStats {
        recorded: load(&STREAMS_RECORDED),
        bytes: load(&STREAM_BYTES),
        served: load(&STREAM_SERVED),
        left: load(&STREAMS_LEFT),
    }
}

/// `program`'s block stream on `image` (which must be built from it),
/// recorded on first use.
fn block_stream(program: &Program, image: &Arc<MachineImage>) -> Option<Arc<BlockStream>> {
    let mut key = KeyHasher::with_program("nvp-stream/1", program);
    key.u64(image.dmem_words() as u64);
    let stream = memo(&STREAMS, key.finish(), || {
        let stream = BlockStream::record(image, TASK_MAX_INSTS)?;
        STREAMS_RECORDED.fetch_add(1, AtomicOrdering::Relaxed);
        STREAM_BYTES.fetch_add(stream.len_bytes() as u64, AtomicOrdering::Relaxed);
        Some(Arc::new(stream))
    });
    stream.as_ref().clone()
}

/// Runs a fault-free NVP platform over `trace`, serving its execution
/// from the program's block stream when it has one: the report is
/// bit-identical either way.
pub(crate) fn run_fault_free(
    program: &Program,
    image: &Arc<MachineImage>,
    (sys, backup, policy): (SystemConfig, BackupModel, BackupPolicy),
    trace: &PowerTrace,
    obs: &mut dyn SimObserver,
) -> RunReport {
    let mut system = match block_stream(program, image) {
        Some(stream) => IntermittentSystem::replaying(image, &stream, sys, backup, policy),
        None => {
            IntermittentSystem::with_faults_on_image(image, sys, backup, policy, FaultPlan::none())
        }
    };
    let report = system.run_observed(trace, obs).expect("workload does not fault");
    if let Some(used) = system.stream_use() {
        STREAM_SERVED.fetch_add(used.served, AtomicOrdering::Relaxed);
        STREAMS_LEFT.fetch_add(u64::from(used.left), AtomicOrdering::Relaxed);
    }
    report
}

/// Version of the trace generators behind [`SourceKind::generate`].
/// A trace's cache key names its spec, not its samples, so any change
/// to what a generator emits must bump this, or a persistent cache
/// would serve runs over the old samples. `tests/golden_digest.rs`
/// (`trace_generators_match_golden_digests`) pins every registry
/// trace's samples to catch an edit that forgets. A result carries
/// its profiles as specs under this version too, and the wire decoder
/// refuses a foreign one.
pub(crate) const TRACE_GEN_VERSION: u64 = 1;

/// Version of [`TraceSummary`]'s meaning, in its store key: a change to
/// what a summary holds or how it is folded must bump it, or a
/// persistent cache would serve summaries of the old kind.
const SUMMARY_FORMAT: u64 = 1;

/// Everything a generated trace is a pure function of: the source kind,
/// the seed and the duration (as its bit pattern). It keys both the
/// trace memo and, through its digest, the sim-cache, and it stands for
/// an F1 profile in a [`CampaignResult`](crate::CampaignResult): the
/// profile's CSV is rendered from the generator when written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpec {
    kind: SourceKind,
    seed: u64,
    duration_bits: u64,
}

impl TraceSpec {
    /// The spec of `kind`'s trace for `seed` over `duration_s`.
    #[must_use]
    pub(crate) fn new(kind: SourceKind, seed: u64, duration_s: f64) -> TraceSpec {
        TraceSpec { kind, seed, duration_bits: duration_s.to_bits() }
    }

    /// The source kind.
    #[must_use]
    pub(crate) fn kind(&self) -> SourceKind {
        self.kind
    }

    /// The generator seed.
    #[must_use]
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The trace duration, seconds.
    #[must_use]
    pub(crate) fn duration_s(&self) -> f64 {
        f64::from_bits(self.duration_bits)
    }

    /// Samples in the generated trace.
    #[must_use]
    pub(crate) fn sample_count(&self) -> usize {
        harvester::sample_count(self.duration_s())
    }

    /// The trace's sim-cache key material: a tag, the generator version
    /// and the spec.
    fn digest(&self) -> Digest {
        let mut key = KeyHasher::new("nvp-simcache/2:trace");
        key.u64(TRACE_GEN_VERSION);
        key.field(self);
        key.finish()
    }

    /// The generated samples.
    #[must_use]
    pub(crate) fn generate(&self) -> PowerTrace {
        self.kind.generate(self.seed, self.duration_s())
    }

    /// The trace's [`TraceSummary`] at [`OPERATING_THRESHOLD_W`],
    /// streamed from the generator.
    fn summarize(&self) -> TraceSummary {
        self.kind.summarize(self.seed, self.duration_s(), OPERATING_THRESHOLD_W)
    }

    /// The generated trace's CSV ([`PowerTrace::to_csv`]'s text).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = Vec::with_capacity(self.sample_count() * 24 + 16);
        self.write_csv(&mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("the CSV writer emits ASCII")
    }

    /// Streams [`to_csv`](Self::to_csv)'s text into `out` straight from
    /// the generator: no sample array and no whole text is held.
    ///
    /// # Errors
    ///
    /// Any error `out` returns.
    pub fn write_csv<W: io::Write>(&self, out: W) -> io::Result<()> {
        self.kind.write_csv(self.seed, self.duration_s(), out)
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

/// One trace that live handles name: its spec and the spec's digest,
/// and the samples and summary, each filled on first read, so
/// concurrent readers of one spec share one generation and one
/// summary. The entry, and with it both, is freed when its last
/// [`SimTrace`] drops.
struct TraceEntry {
    spec: TraceSpec,
    digest: Digest,
    samples: OnceLock<Arc<PowerTrace>>,
    summary: OnceLock<Arc<TraceSummary>>,
}

/// The counters behind [`TraceMemoStats`].
static GENERATED: AtomicU64 = AtomicU64::new(0);
static SUMMARIZED: AtomicU64 = AtomicU64::new(0);
static SUMMARIES_LOADED: AtomicU64 = AtomicU64::new(0);
static RESIDENT_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_RESIDENT_BYTES: AtomicU64 = AtomicU64::new(0);

/// The bytes of a trace's sample array.
fn sample_bytes(trace: &PowerTrace) -> u64 {
    std::mem::size_of_val(trace.samples()) as u64
}

impl TraceEntry {
    /// The samples, generated on first read. Their bytes count as
    /// resident until the entry drops.
    fn samples(&self) -> &Arc<PowerTrace> {
        self.samples.get_or_init(|| {
            GENERATED.fetch_add(1, AtomicOrdering::Relaxed);
            let samples = Arc::new(self.spec.generate());
            let bytes = sample_bytes(&samples);
            let resident = RESIDENT_BYTES.fetch_add(bytes, AtomicOrdering::Relaxed) + bytes;
            PEAK_RESIDENT_BYTES.fetch_max(resident, AtomicOrdering::Relaxed);
            samples
        })
    }

    /// The summary, on first read taken from the attached store, or
    /// streamed from the generator (no sample array is allocated) and
    /// stored.
    fn summary(&self) -> Arc<TraceSummary> {
        let summary = self.summary.get_or_init(|| {
            let key = self.summary_key();
            if let Some(stored) = simcache::stored(&key) {
                SUMMARIES_LOADED.fetch_add(1, AtomicOrdering::Relaxed);
                return Arc::new(stored);
            }
            SUMMARIZED.fetch_add(1, AtomicOrdering::Relaxed);
            let streamed = Arc::new(self.spec.summarize());
            simcache::store(&key, &*streamed);
            streamed
        });
        Arc::clone(summary)
    }

    /// The summary's store key: the spec digest (which names the
    /// generator version), the threshold and the summary format.
    fn summary_key(&self) -> Digest {
        let mut key = KeyHasher::new("nvp-simcache/2:summary");
        key.u64(SUMMARY_FORMAT);
        key.digest(&self.digest);
        key.u64(OPERATING_THRESHOLD_W.to_bits());
        key.finish()
    }
}

impl Drop for TraceEntry {
    fn drop(&mut self) {
        if let Some(samples) = self.samples.get() {
            RESIDENT_BYTES.fetch_sub(sample_bytes(samples), AtomicOrdering::Relaxed);
        }
    }
}

/// A shared power trace keyed by its spec digest, so runs over it are
/// keyed without touching a sample. The samples are generated the first
/// time a simulation reads them: a run whose sim-cache key hits never
/// builds its trace, and the profile and outage figures read the
/// trace's [`summary`](Self::summary) instead. Every handle on a spec
/// shares one entry, so while any handle lives the spec is generated
/// and summarized at most once. A job's planned entries hold the
/// handles on the traces it reads, and each entry drops its handle as
/// soon as it has run, so a trace's samples are freed with its last
/// pending simulation (see [`crate::plan::run`]).
#[derive(Clone)]
pub(crate) struct SimTrace {
    entry: Arc<TraceEntry>,
}

impl SimTrace {
    pub(crate) fn digest(&self) -> &Digest {
        &self.entry.digest
    }

    /// The trace's spec.
    pub(crate) fn spec(&self) -> TraceSpec {
        self.entry.spec
    }

    /// The trace's statistics at [`OPERATING_THRESHOLD_W`], shared by
    /// every handle on the spec. Reads no sample array.
    pub(crate) fn summary(&self) -> Arc<TraceSummary> {
        self.entry.summary()
    }

    fn samples(&self) -> &Arc<PowerTrace> {
        self.entry.samples()
    }

    /// Whether the samples the handles on this spec share are generated.
    #[cfg(test)]
    fn is_generated(&self) -> bool {
        self.entry.samples.get().is_some()
    }
}

impl Deref for SimTrace {
    type Target = PowerTrace;

    fn deref(&self) -> &PowerTrace {
        self.samples()
    }
}

/// The trace specs live handles name. An entry whose last handle
/// dropped is pruned when the next spec is added.
static TRACES: Mutex<BTreeMap<TraceSpec, Weak<TraceEntry>>> = Mutex::new(BTreeMap::new());

fn traces() -> MutexGuard<'static, BTreeMap<TraceSpec, Weak<TraceEntry>>> {
    TRACES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A harvester trace for any source kind: a handle on the entry of its
/// spec, shared with every other live handle on the spec. F7's
/// technology × harvester grid and F11's solar variant share one
/// generation instead of regenerating the trace per grid cell.
pub(crate) fn source_trace(cfg: &ExpConfig, kind: SourceKind, seed: u64) -> SimTrace {
    let spec = TraceSpec::new(kind, seed, cfg.trace_duration_s);
    let mut map = traces();
    if let Some(entry) = map.get(&spec).and_then(Weak::upgrade) {
        return SimTrace { entry };
    }
    map.retain(|_, entry| entry.strong_count() > 0);
    let entry = Arc::new(TraceEntry {
        spec,
        digest: spec.digest(),
        samples: OnceLock::new(),
        summary: OnceLock::new(),
    });
    map.insert(spec, Arc::downgrade(&entry));
    SimTrace { entry }
}

/// Trace-memo counters (process-wide, via [`trace_memo_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceMemoStats {
    /// Trace sample generations over the life of the process. While any
    /// handle on a spec lives, the spec is generated at most once; it is
    /// generated again only after its last handle dropped. Only
    /// simulations that miss the sim-cache read samples.
    pub generated: u64,
    /// Trace summaries streamed from the generator over the life of the
    /// process: at most one per spec while any handle on it lives, like
    /// [`generated`](Self::generated), and none for a summary the
    /// attached store holds.
    pub summarized: u64,
    /// Trace summaries read from the attached store's shards over the
    /// life of the process, at most one per spec while any handle on it
    /// lives.
    pub summaries_loaded: u64,
    /// Sample bytes live handles hold right now; zero between jobs.
    pub resident_bytes: u64,
    /// The most sample bytes live handles held at once over the life of
    /// the process: a job holds about one trace per worker, so this
    /// depends on the worker count.
    pub peak_resident_bytes: u64,
}

/// Process-wide trace-memo counters.
#[must_use]
pub fn trace_memo_stats() -> TraceMemoStats {
    let load = |counter: &AtomicU64| counter.load(AtomicOrdering::Relaxed);
    TraceMemoStats {
        generated: load(&GENERATED),
        summarized: load(&SUMMARIZED),
        summaries_loaded: load(&SUMMARIES_LOADED),
        resident_bytes: load(&RESIDENT_BYTES),
        peak_resident_bytes: load(&PEAK_RESIDENT_BYTES),
    }
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

/// Instruction budget of a task-cost measurement.
const TASK_MAX_INSTS: u64 = 500_000_000;

/// Task costs this process has looked up, by frame and kernel.
static TASK_COSTS: Memo<(FrameKey, KernelKind), TaskCost> = OnceLock::new();

/// Unconstrained task cost of the standard kernel for `kind`.
///
/// Memoized on the frame identity and kernel kind — the same key space
/// as [`kernel`] — because the cost is a pure function of the generated
/// program and its data. A first lookup reads it from the attached
/// store, keyed (`nvp-simcache/2:task`) by the program image, the
/// `SystemConfig` and the instruction budget, and only on a miss
/// measures it and stores it.
pub(crate) fn task_cost(cfg: &ExpConfig, kind: KernelKind) -> TaskCost {
    *memo(&TASK_COSTS, (frame_key(cfg), kind), || {
        let inst = kernel(cfg, kind);
        let sys = system_config_for(&inst);
        let mut key = KeyHasher::with_program("nvp-simcache/2:task", inst.program());
        key.field(&sys);
        key.u64(TASK_MAX_INSTS);
        simcache::cached_task_cost(&key.finish(), || {
            measure_task(inst.program(), &sys, TASK_MAX_INSTS)
                .expect("kernel terminates under continuous power")
        })
    })
}

/// Forgets every memoized task cost ([`simcache::reset_sim_cache`]).
pub(crate) fn forget_task_costs() {
    if let Some(map) = TASK_COSTS.get() {
        map.lock().unwrap_or_else(PoisonError::into_inner).clear();
    }
}

/// One simulated platform: the value an experiment both plans (run
/// through the simulation cache) and declares to `repro --check`, so
/// the feasibility checker judges exactly what the simulator is built
/// from.
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
    /// The simulation-cache key of a run of this platform, under the
    /// `:nvp` or `:wait` run-kind tag.
    pub(crate) fn key(&self, inst: &KernelInstance, trace: &SimTrace) -> Digest {
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
        tag: &'static str,
        inst: &KernelInstance,
        trace: &SimTrace,
    ) -> KeyHasher {
        let mut key = KeyHasher::with_program(tag, inst.program());
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
        let mut plan = crate::plan::Plan::default();
        plan.sim("", nvp_setup(&inst), &inst, &trace);
        let (_, sim) = plan.sims().next().expect("one planned run");
        let stored = RunReport { tasks_completed: 7, ..RunReport::default() };
        let outcome = simcache::SimOutcome { report: stored, latencies_ms: Vec::new() };
        let stored = simcache::cached_outcome(sim.key(), || outcome.clone());
        assert_eq!(*sim.lookup().outcome(), outcome);
        drop(stored);
        assert!(!trace.is_generated(), "a sim-cache hit reads no sample");

        // F1 and F2 read the trace's streamed summary, not its samples.
        let only = |seed| ExpConfig { profile_seeds: vec![seed], ..cfg.clone() };
        assert_eq!(crate::f1_power_profiles::rows(&only(901)).len(), 1);
        let f2_trace = watch_trace(&cfg, 902);
        assert_eq!(crate::f2_outage_stats::rows(&only(902)).len(), 1);
        assert_eq!(crate::f2_outage_stats::histogram(&f2_trace.summary(), 4).rows().len(), 4);
        assert!(!trace.is_generated() && !f2_trace.is_generated(), "summaries read no array");
    }

    /// A trace's samples are freed with its last handle, while another
    /// trace's handle keeps its own, with no job around either.
    #[test]
    fn a_traces_samples_die_with_its_last_handle() {
        // A duration no other test uses, so only this test holds these
        // traces.
        let cfg = ExpConfig { trace_duration_s: 0.3125, ..ExpConfig::quick() };
        let first = watch_trace(&cfg, 903);
        let again = watch_trace(&cfg, 903);
        let other = watch_trace(&cfg, 904);
        let samples = Arc::downgrade(first.samples());
        let kept = Arc::downgrade(other.samples());
        assert!(Arc::ptr_eq(first.samples(), again.samples()), "handles share one generation");
        drop(first);
        assert!(samples.upgrade().is_some(), "a live handle keeps the samples");
        drop(again);
        assert!(samples.upgrade().is_none(), "the last handle frees them");
        assert!(kept.upgrade().is_some(), "another trace's handle keeps its own");
        assert_eq!(other.len(), other.spec().sample_count());
    }

    #[test]
    fn memoized_traces_are_the_generators_output() {
        let cfg = ExpConfig::quick();
        let trace = source_trace(&cfg, SourceKind::RfWifi, 3);
        assert_eq!(*trace, SourceKind::RfWifi.generate(3, cfg.trace_duration_s));
        assert_eq!(*trace.digest(), TraceSpec::new(SourceKind::RfWifi, 3, 2.0).digest());
        assert_eq!(trace.spec().generate(), *trace);
        assert_eq!(trace.spec().to_csv(), trace.to_csv());
    }

    /// Every trace the registry reads, at the quick and default
    /// configs: the six wearable profiles' and F7's three other
    /// sources at the first profile seed.
    fn registry_specs() -> Vec<TraceSpec> {
        let mut specs = Vec::new();
        for cfg in [ExpConfig::quick(), ExpConfig::default()] {
            let first = cfg.profile_seeds[0];
            let d = cfg.trace_duration_s;
            specs.extend(SourceKind::ALL.map(|kind| TraceSpec::new(kind, first, d)));
            specs.extend(
                cfg.profile_seeds[1..]
                    .iter()
                    .map(|&s| TraceSpec::new(SourceKind::WristWatch, s, d)),
            );
        }
        specs
    }

    /// The streamed summary F1, F2 and F9 read is the array path's
    /// statistics, field for field and bit for bit, outage list
    /// included, on every registry trace.
    #[test]
    fn streamed_summaries_match_the_array_path_on_every_registry_trace() {
        let bits = |x: f64| x.to_bits();
        for spec in registry_specs() {
            let s = spec.summarize();
            let t = spec.generate();
            let what = format!("{spec:?}");
            assert_eq!(bits(s.average_w), bits(t.average_w()), "{what}");
            assert_eq!(bits(s.peak_w), bits(t.peak_w()), "{what}");
            assert_eq!(bits(s.total_energy_j), bits(t.total_energy_j()), "{what}");
            assert_eq!(bits(s.duration_s), bits(t.duration_s()), "{what}");
            let outages = nvp_energy::OutageStats::analyze(&t, OPERATING_THRESHOLD_W);
            assert_eq!(s.outages.emergency_count, outages.emergency_count, "{what}");
            let list = |o: &nvp_energy::OutageStats| {
                let scalars = [o.threshold_w, o.longest_outage_s, o.mean_outage_s];
                let fraction = o.above_threshold_fraction;
                (
                    o.outage_durations_s
                        .iter()
                        .chain(&scalars)
                        .map(|&x| bits(x))
                        .collect::<Vec<_>>(),
                    bits(fraction),
                )
            };
            assert_eq!(list(&s.outages), list(&outages), "{what}");
        }
    }
}
