//! Shared helpers: standard platforms, kernels, and run plumbing.
//!
//! The standard inputs (synthetic frame, kernel instances, wearable
//! traces, unconstrained task costs) are pure functions of their
//! parameters and were historically rebuilt by every experiment. They
//! are now memoized in process-wide caches so concurrent experiments
//! share one instance; the caches are keyed on every parameter that
//! influences the value, so results are unchanged.
//!
//! Simulation *runs* are deduplicated the same way: [`run_nvp_with`]
//! and [`run_wait_with`] route through the content-addressed
//! [`crate::simcache`], so identical `(program, config, trace)` runs
//! issued by different experiments simulate only once per process.

use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

use nvp_core::{
    measure_task, BackupModel, BackupPolicy, IntermittentSystem, RunReport, SystemConfig, TaskCost,
    WaitComputeConfig, WaitComputeSystem,
};
use nvp_device::NvmTechnology;
use nvp_energy::harvester::SourceKind;
use nvp_energy::PowerTrace;
use nvp_workloads::{GrayImage, KernelInstance, KernelKind};

use crate::simcache::{self, Digest, KeyHasher};
use crate::ExpConfig;

/// Volatile state bits of the NV16 core (registers + PC + pipeline FFs),
/// matching the published chips' ~2 kbit backup payloads.
pub(crate) const STATE_BITS: u64 = 2048;

/// Frame identity: everything `GrayImage::synthetic` consumes.
type FrameKey = (u64, usize, usize);

fn frame_key(cfg: &ExpConfig) -> FrameKey {
    (cfg.frame_seed, cfg.frame_w, cfg.frame_h)
}

/// A lazily-initialized process-wide cache of shared values. A
/// `BTreeMap` keeps the cache's internal order a pure function of the
/// keys, so nothing downstream can ever observe insertion order.
type Memo<K, V> = OnceLock<Mutex<BTreeMap<K, Arc<V>>>>;

/// Looks up `key` in a lazily-initialized process-wide cache, building
/// the value with `make` on first use.
fn memo<K, V>(cell: &'static Memo<K, V>, key: K, make: impl FnOnce() -> V) -> Arc<V>
where
    K: Ord,
{
    let cache = cell.get_or_init(|| Mutex::new(BTreeMap::new()));
    // Holding the lock across `make` keeps the code simple and means a
    // value is only ever built once; entries are tiny and builds are
    // fast relative to the simulations that consume them.
    let mut map = cache.lock().unwrap();
    Arc::clone(map.entry(key).or_insert_with(|| Arc::new(make())))
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

/// A shared power trace paired with its content digest, so the digest
/// is computed once per trace no matter how many cached runs use it.
#[derive(Clone)]
pub(crate) struct SimTrace(Arc<(Arc<PowerTrace>, Digest)>);

impl SimTrace {
    pub(crate) fn digest(&self) -> &Digest {
        &self.0 .1
    }

    /// The memoized trace itself, shared rather than copied.
    pub(crate) fn shared(&self) -> Arc<PowerTrace> {
        Arc::clone(&self.0 .0)
    }
}

impl Deref for SimTrace {
    type Target = PowerTrace;

    fn deref(&self) -> &PowerTrace {
        &self.0 .0
    }
}

/// A memoized harvester trace for any source kind. F7's technology ×
/// harvester grid and F11's solar variant hit this instead of
/// regenerating the trace per grid cell.
pub(crate) fn source_trace(cfg: &ExpConfig, kind: SourceKind, seed: u64) -> SimTrace {
    static CACHE: Memo<(&'static str, u64, u64), (Arc<PowerTrace>, Digest)> = OnceLock::new();
    SimTrace(memo(&CACHE, (kind.name(), seed, cfg.trace_duration_s.to_bits()), || {
        let trace = kind.generate(seed, cfg.trace_duration_s);
        let digest = simcache::trace_digest(&trace);
        (Arc::new(trace), digest)
    }))
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

/// Runs the hardware NVP over a trace.
pub(crate) fn run_nvp(inst: &KernelInstance, trace: &SimTrace) -> RunReport {
    run_nvp_with(inst, trace, system_config_for(inst), standard_backup(), BackupPolicy::demand())
}

/// Runs an NVP variant with explicit configuration, deduplicated
/// through the simulation cache: the key covers the program image, the
/// `Debug` renderings of the configuration triple, and the trace
/// digest.
pub(crate) fn run_nvp_with(
    inst: &KernelInstance,
    trace: &SimTrace,
    sys: SystemConfig,
    backup: BackupModel,
    policy: BackupPolicy,
) -> RunReport {
    let mut key = KeyHasher::new("nvp-simcache/1:nvp");
    key.program(inst.program());
    key.debug(&sys);
    key.debug(&backup);
    key.debug(&policy);
    key.digest(trace.digest());
    simcache::cached_run(key.finish(), || {
        let mut system =
            IntermittentSystem::new(inst.program(), sys, backup, policy).expect("platform builds");
        system.run(trace).expect("workload does not fault")
    })
}

/// Runs the wait-then-compute baseline on the standard kernel for
/// `kind`, ESD sized for the kernel's task.
pub(crate) fn run_wait(cfg: &ExpConfig, kind: KernelKind, trace: &SimTrace) -> RunReport {
    let inst = kernel(cfg, kind);
    let cost = task_cost(cfg, kind);
    let mut wcfg = WaitComputeConfig::default().sized_for(&cost, 1.3);
    wcfg.dmem_words = wcfg.dmem_words.max(inst.min_dmem_words());
    run_wait_with(&inst, trace, wcfg)
}

/// Runs a wait-then-compute variant with explicit configuration. Cached
/// like [`run_nvp_with`], under a distinct run-kind tag.
pub(crate) fn run_wait_with(
    inst: &KernelInstance,
    trace: &SimTrace,
    wcfg: WaitComputeConfig,
) -> RunReport {
    let mut key = KeyHasher::new("nvp-simcache/1:wait");
    key.program(inst.program());
    key.debug(&wcfg);
    key.digest(trace.digest());
    simcache::cached_run(key.finish(), || {
        let mut system = WaitComputeSystem::new(inst.program(), wcfg).expect("platform builds");
        system.run(trace).expect("workload does not fault")
    })
}

/// Runs the software-checkpointing baseline (Hibernus-class: volatile
/// SRAM MCU, CPU-copied checkpoints into FeRAM at a voltage trigger).
pub(crate) fn run_software_ckpt(inst: &KernelInstance, trace: &SimTrace) -> RunReport {
    let mut sys = system_config_for(inst);
    sys.dmem_nonvolatile = false;
    let ram_words = inst.min_dmem_words() as u64;
    let backup = BackupModel::software(NvmTechnology::Feram, STATE_BITS, ram_words, sys.clock_hz);
    run_nvp_with(inst, trace, sys, backup, BackupPolicy::OnDemand { margin: 1.3 })
}

/// Seconds per completed frame, or `None` if no frame completed.
pub(crate) fn seconds_per_frame(report: &RunReport) -> Option<f64> {
    (report.tasks_completed > 0).then(|| report.duration_s / report.tasks_completed as f64)
}
