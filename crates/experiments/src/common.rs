//! Shared helpers: standard platforms, kernels, and run plumbing.
//!
//! The standard inputs (synthetic frame, kernel instances, wearable
//! traces, unconstrained task costs) are pure functions of their
//! parameters and were historically rebuilt by every experiment. They
//! are now memoized in process-wide caches so concurrent experiments
//! share one instance; the caches are keyed on every parameter that
//! influences the value, so results are unchanged.
//!
//! Each simulated platform is one [`Setup`] value. Experiments list
//! their setups once; `rows()` runs them and `plans()` hands the same
//! values to the feasibility checker. [`Setup::run`] routes through
//! the content-addressed [`crate::simcache`], so identical
//! `(program, setup, trace)` runs issued by different experiments
//! simulate only once per process.

use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

use nvp_core::{
    measure_task, BackupModel, BackupPolicy, BackupStyle, IntermittentSystem, RunReport,
    SystemConfig, TaskCost, WaitComputeConfig, WaitComputeSystem,
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

    /// The simulation-cache key of [`run`](Self::run): a schema + run-kind
    /// tag (`:nvp` or `:wait`), the program image, the `Debug`
    /// rendering of each configuration value, and the trace digest.
    fn key(&self, inst: &KernelInstance, trace: &SimTrace) -> Digest {
        let mut key = match self {
            Setup::Nvp { .. } => KeyHasher::new("nvp-simcache/1:nvp"),
            Setup::Wait(_) => KeyHasher::new("nvp-simcache/1:wait"),
        };
        key.program(inst.program());
        match self {
            Setup::Nvp { sys, backup, policy } => {
                key.debug(sys);
                key.debug(backup);
                key.debug(policy);
            }
            Setup::Wait(wcfg) => key.debug(wcfg),
        }
        key.digest(trace.digest());
        key.finish()
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
            key(nvp_setup(&inst)),
            "8ff59a055bb92a7e2b84edb024258912669a46673df1c4a7d2b8b6f4e7dddeb8"
        );
        assert_eq!(
            key(swckpt_setup(&inst)),
            "7f99ecc53f425f0b7d5a9210c19fe51a26abf6d47185379dfe0deed78f528804"
        );
        assert_eq!(
            key(wait_setup(&cfg, KernelKind::Sobel)),
            "5b6ef2e4efd4dd30bafaddff1ec0da7834ebaae2840b0b07c13e1c1500b9daee"
        );
    }
}
