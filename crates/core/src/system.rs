//! The system-level intermittent-execution simulator.
//!
//! Mirrors the two-level structure of the published NVP frameworks: a
//! system-level energy loop (0.1 ms trace ticks: harvesting, conversion,
//! capacitor, thresholds) drives the instruction-level machine, deciding
//! when the core runs, backs up, restores, or sleeps.

use nvp_energy::units::{Farads, Joules, Seconds, Volts, Watts};
use nvp_energy::{EnergyFrontEnd, FrontEndConfig, PowerTrace, Rectifier, TickIncome};
use nvp_isa::Program;
use std::sync::Arc;

use nvp_sim::{
    torn_prefix_words, ArchState, Checkpoint, CycleModel, EnergyModel, Machine, MachineImage,
    SimError, CHECKPOINT_WORDS, DEFAULT_DMEM_WORDS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::platform::{drive, drive_observed, Platform, SimEvent, SimObserver};
use crate::{BackupModel, BackupPolicy, ClockPolicy, FaultPlan, Thresholds};

/// Static platform configuration shared by the intermittent platforms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Core clock, Hz.
    pub clock_hz: f64,
    /// Storage capacitance, farads (on-chip scale for NVPs).
    pub capacitance_f: f64,
    /// Capacitor rated voltage, volts.
    pub cap_voltage_v: f64,
    /// Capacitor self-discharge time constant, seconds.
    pub cap_leak_tau_s: f64,
    /// Front-end conversion model.
    pub rectifier: Rectifier,
    /// Chip sleep/standby power while off, watts.
    pub sleep_power_w: f64,
    /// Useful-work budget added to the start threshold so the platform
    /// does not thrash on/off, joules.
    pub work_headroom_j: f64,
    /// Installed data memory, 16-bit words.
    pub dmem_words: usize,
    /// `true` if main data memory is nonvolatile (survives power loss).
    pub dmem_nonvolatile: bool,
    /// Restart the program when it halts (continuous frame processing).
    pub restart_on_halt: bool,
    /// Per-instruction cycle model.
    pub cycle_model: CycleModel,
    /// Per-instruction energy model.
    pub energy_model: EnergyModel,
    /// Clock-scaling policy (fixed base clock by default).
    pub clock_policy: ClockPolicy,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            clock_hz: 1e6,
            capacitance_f: 2.2e-6,
            cap_voltage_v: 3.3,
            cap_leak_tau_s: 3600.0,
            rectifier: Rectifier::default(),
            sleep_power_w: 50e-9,
            work_headroom_j: 0.6e-6,
            dmem_words: DEFAULT_DMEM_WORDS,
            dmem_nonvolatile: true,
            restart_on_halt: true,
            cycle_model: CycleModel::default(),
            energy_model: EnergyModel::default(),
            clock_policy: ClockPolicy::Fixed,
        }
    }
}

impl SystemConfig {
    /// Returns a copy with a different storage capacitance.
    #[must_use]
    pub fn with_capacitance(mut self, farads: f64) -> Self {
        self.capacitance_f = farads;
        self
    }

    /// Returns a copy with a different clock-scaling policy.
    #[must_use]
    pub fn with_clock_policy(mut self, policy: ClockPolicy) -> Self {
        self.clock_policy = policy;
        self
    }

    /// The energy front end of a platform built from this configuration.
    /// An NVP's buffer sits directly at the rectifier output: no trickle
    /// penalty, no charger input clipping.
    #[must_use]
    pub fn front_end(&self) -> FrontEndConfig {
        FrontEndConfig::direct(
            self.rectifier,
            Farads::new(self.capacitance_f),
            Volts::new(self.cap_voltage_v),
            Seconds::new(self.cap_leak_tau_s),
        )
    }

    /// The start/reserve thresholds of a platform built from this
    /// configuration with the given backup model and policy.
    #[must_use]
    pub fn thresholds(&self, backup: &BackupModel, policy: &BackupPolicy) -> Thresholds {
        Thresholds::derive(backup, policy, Joules::new(self.work_headroom_j))
    }
}

/// Where the platform's energy went over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Raw harvested energy offered by the trace.
    pub harvested: Joules,
    /// Energy delivered past the rectifier into storage.
    pub converted: Joules,
    /// Energy spent executing instructions.
    pub compute: Joules,
    /// Energy spent on backup operations.
    pub backup: Joules,
    /// Energy spent on restore operations.
    pub restore: Joules,
    /// Energy spent sleeping (standby draw while off).
    pub sleep: Joules,
    /// Energy lost in the output regulator between storage and load
    /// (only platforms that feed the core through a regulator, i.e. the
    /// wait-compute baseline, incur this).
    pub regulator: Joules,
    /// Energy still held in storage when the run ended (snapshot).
    pub stored_at_end: Joules,
    /// Energy lost to capacitor leakage and overcharge spill (snapshot
    /// of the storage device's cumulative waste).
    pub storage_wasted: Joules,
}

/// The outcome of simulating a platform over a power trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Simulated wall-clock duration, seconds.
    pub duration_s: f64,
    /// Time spent actively executing instructions, seconds.
    pub on_time_s: f64,
    /// Instructions *persistently committed* — the forward-progress metric.
    pub committed: u64,
    /// Instructions executed (committed + lost + still uncommitted).
    pub executed: u64,
    /// Instructions executed but lost to rollbacks.
    pub lost: u64,
    /// Instructions executed since the last checkpoint when the run ended.
    pub uncommitted_at_end: u64,
    /// Successful backup operations.
    pub backups: u64,
    /// Successful restore operations.
    pub restores: u64,
    /// Power-failure rollbacks (volatile state lost).
    pub rollbacks: u64,
    /// Complete program executions (frames finished).
    pub tasks_completed: u64,
    /// Backup writes that tore mid-flight, leaving a partial checkpoint
    /// (fault injection; always 0 with a disabled [`FaultPlan`]).
    pub backups_torn: u64,
    /// Backup retries attempted under the bounded threshold-backoff
    /// policy after a torn write.
    pub backup_retries: u64,
    /// Restores that failed outright or found a checkpoint failing CRC
    /// verification.
    pub restores_corrupt: u64,
    /// Times the bounded retry budget ran out and the platform degraded
    /// gracefully (forced power-down or cold start).
    pub safe_mode_entries: u64,
    /// Committed instructions later invalidated by checkpoint corruption
    /// or a cold start — the platform must re-execute to regain them.
    pub committed_lost: u64,
    /// Energy accounting.
    pub energy: EnergyBreakdown,
}

impl RunReport {
    /// Forward progress: persistently committed instructions (the
    /// literature's conservative metric — work becomes forward progress
    /// only once a checkpoint or task completion makes it durable).
    ///
    /// Note one artifact of finite observation windows: a platform whose
    /// supply never dips to the backup threshold never commits, so its
    /// `forward_progress` is 0 even though nothing was lost — see
    /// [`surviving_work`](Self::surviving_work) for the complementary
    /// view.
    #[must_use]
    pub fn forward_progress(&self) -> u64 {
        self.committed
    }

    /// Work that has not been lost by the end of the run: committed
    /// instructions plus those still pending since the last checkpoint.
    /// Monotone in harvested energy, unlike the commit-gated metric.
    #[must_use]
    pub fn surviving_work(&self) -> u64 {
        self.committed + self.uncommitted_at_end
    }

    /// Fraction of the run spent actively executing.
    #[must_use]
    pub fn on_fraction(&self) -> f64 {
        if self.duration_s > 0.0 {
            self.on_time_s / self.duration_s
        } else {
            0.0
        }
    }

    /// Backups per minute of wall-clock time.
    #[must_use]
    pub fn backups_per_minute(&self) -> f64 {
        if self.duration_s > 0.0 {
            self.backups as f64 * 60.0 / self.duration_s
        } else {
            0.0
        }
    }

    /// Forward progress net of later invalidation: committed work minus
    /// the commits a corrupt checkpoint or cold start forced the
    /// platform to redo. Equals [`forward_progress`](Self::forward_progress)
    /// whenever the fault layer is disabled.
    #[must_use]
    pub fn committed_surviving(&self) -> u64 {
        self.committed.saturating_sub(self.committed_lost)
    }

    /// Share of converted income energy spent on backup + restore.
    #[must_use]
    pub fn backup_energy_share(&self) -> f64 {
        if self.energy.converted > Joules::ZERO {
            (self.energy.backup + self.energy.restore) / self.energy.converted
        } else {
            0.0
        }
    }
}

/// Unconstrained cost of one complete program execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskCost {
    /// Instructions to completion.
    pub instructions: u64,
    /// Cycles to completion.
    pub cycles: u64,
    /// Core energy to completion, joules.
    pub energy_j: f64,
}

impl TaskCost {
    /// Wall-clock time of one uninterrupted execution at `clock_hz`.
    #[must_use]
    pub fn time_s(&self, clock_hz: f64) -> f64 {
        self.cycles as f64 / clock_hz
    }
}

/// Measures a program's unconstrained task cost (continuous power).
///
/// # Errors
///
/// Returns [`SimError`] if the program faults, or a synthetic
/// [`SimError::PcOutOfRange`] if it exceeds `max_insts` without halting.
pub fn measure_task(
    program: &Program,
    config: &SystemConfig,
    max_insts: u64,
) -> Result<TaskCost, SimError> {
    let mut machine =
        Machine::with_config(program, config.dmem_words, config.cycle_model, config.energy_model)?;
    // The block engine is bit-equal to stepping, counters included; it
    // returns early at each `ckpt`, so resume until halt or budget.
    let mut executed = 0;
    while executed < max_insts && !machine.halted() {
        executed += machine.run_blocks(max_insts - executed)?.executed;
    }
    if !machine.halted() {
        return Err(SimError::PcOutOfRange { pc: machine.pc() });
    }
    let c = machine.counters();
    Ok(TaskCost { instructions: c.instructions, cycles: c.cycles, energy_j: c.energy_j })
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Off,
    Restoring {
        left_s: f64,
    },
    Active,
    BackingUp {
        left_s: f64,
        resume: bool,
    },
    /// Program halted and `restart_on_halt` is false.
    Done,
}

/// One durable checkpoint slot: the sealed (or torn) image, the
/// committed-instruction count it represents, and a monotone sequence
/// number so restore can prefer the newest image.
#[derive(Debug, Clone, Copy)]
struct Slot {
    ckpt: Checkpoint,
    committed_at: u64,
    seq: u64,
}

/// An intermittently powered platform with checkpointing.
///
/// One struct models all three checkpointing styles — what differs is the
/// [`BackupModel`] (distributed / centralized / software), the
/// [`BackupPolicy`], and whether data memory is volatile:
///
/// * hardware NVP: `BackupModel::distributed` + `BackupPolicy::demand()`
///   + nonvolatile data memory,
/// * software checkpointing (Hibernus/Mementos-class):
///   `BackupModel::software` + `Hybrid`/`Periodic` policy.
///
/// # Example
///
/// ```
/// use nvp_core::{BackupModel, BackupPolicy, IntermittentSystem, SystemConfig};
/// use nvp_device::NvmTechnology;
/// use nvp_energy::harvester;
/// use nvp_isa::asm::assemble;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = assemble("start: addi r1, r1, 1\n j start")?;
/// let backup = BackupModel::distributed(NvmTechnology::Feram, 2048);
/// let mut sys = IntermittentSystem::new(
///     &program, SystemConfig::default(), backup, BackupPolicy::demand())?;
/// let report = sys.run(&harvester::wrist_watch(1, 2.0))?;
/// assert!(report.forward_progress() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IntermittentSystem {
    config: SystemConfig,
    backup: BackupModel,
    policy: BackupPolicy,
    thresholds: Thresholds,
    /// Shared immutable program image (decoded code + block plans);
    /// campaigns running many trials of one program share a single image.
    image: Arc<MachineImage>,
    machine: Machine,
    fe: EnergyFrontEnd,
    phase: Phase,
    /// Two-slot checkpoint store (A/B images, as in Freezer-class backup
    /// controllers): a torn write can only ruin the slot being written,
    /// so the previous image stays restorable.
    slots: [Option<Slot>; 2],
    write_idx: usize,
    next_seq: u64,
    /// Snapshot taken at backup start, sealed when the write completes.
    pending: Option<ArchState>,
    fault: FaultPlan,
    rng: StdRng,
    backup_attempts: u32,
    restore_attempts: u32,
    /// Time spent powered off since the last power-on (retention decay).
    off_since_s: f64,
    /// Committed count at the last task completion or cold start; the
    /// baseline for `committed_lost` accounting when every checkpoint is
    /// abandoned.
    durable_anchor: u64,
    uncommitted: u64,
    since_ckpt_s: f64,
    time_debt_s: f64,
    current_clock_hz: f64,
    report: RunReport,
}

impl IntermittentSystem {
    /// Creates a platform around a program.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the program image fails to load.
    pub fn new(
        program: &Program,
        config: SystemConfig,
        backup: BackupModel,
        policy: BackupPolicy,
    ) -> Result<Self, SimError> {
        Self::with_faults(program, config, backup, policy, FaultPlan::none())
    }

    /// [`new`](Self::new) with a seeded [`FaultPlan`] injecting torn
    /// backups, retention bit-flips, and restore failures. With a
    /// disabled plan ([`FaultPlan::none`]) the platform draws no random
    /// numbers and is bit-identical to one built with [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the program image fails to load.
    pub fn with_faults(
        program: &Program,
        config: SystemConfig,
        backup: BackupModel,
        policy: BackupPolicy,
        fault: FaultPlan,
    ) -> Result<Self, SimError> {
        let image = Arc::new(MachineImage::build(
            program,
            config.dmem_words,
            config.cycle_model,
            config.energy_model,
        )?);
        Ok(Self::with_faults_on_image(&image, config, backup, policy, fault))
    }

    /// [`with_faults`](Self::with_faults) over a prebuilt shared
    /// [`MachineImage`]. Campaigns dispatching many trials of one
    /// program build the image (decode + block partition) once and share
    /// it across every platform instead of redoing that work per trial.
    ///
    /// The image must have been built with the same `dmem_words`,
    /// `cycle_model`, and `energy_model` as `config`, or the reported
    /// costs will not match the configuration.
    #[must_use]
    pub fn with_faults_on_image(
        image: &Arc<MachineImage>,
        config: SystemConfig,
        backup: BackupModel,
        policy: BackupPolicy,
        fault: FaultPlan,
    ) -> Self {
        let machine = Machine::from_image(image);
        let thresholds = config.thresholds(&backup, &policy);
        let fe = EnergyFrontEnd::new(config.front_end());
        let rng = StdRng::seed_from_u64(fault.seed);
        IntermittentSystem {
            config,
            backup,
            policy,
            thresholds,
            image: Arc::clone(image),
            machine,
            fe,
            phase: Phase::Off,
            slots: [None, None],
            write_idx: 0,
            next_seq: 0,
            pending: None,
            fault,
            rng,
            backup_attempts: 0,
            restore_attempts: 0,
            off_since_s: 0.0,
            durable_anchor: 0,
            uncommitted: 0,
            since_ckpt_s: 0.0,
            time_debt_s: 0.0,
            current_clock_hz: config.clock_hz,
            report: RunReport::default(),
        }
    }

    /// Read access to the machine (for output/quality inspection).
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Latches a sensor value on input `port` for subsequent `in`
    /// instructions — the one piece of machine state a test harness or
    /// sensor model may poke while the platform runs.
    pub fn set_input(&mut self, port: u8, value: u16) {
        self.machine.set_input(port, value);
    }

    /// The accumulated report so far.
    #[must_use]
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// Simulates the platform over a trace, accumulating into the report.
    ///
    /// Can be called repeatedly with successive trace windows. This is
    /// the shared engine loop: see [`drive`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the workload itself faults (wild PC or
    /// memory access) — power failures are *not* errors.
    pub fn run(&mut self, trace: &PowerTrace) -> Result<RunReport, SimError> {
        drive(trace, self)
    }

    /// [`run`](Self::run) with a [`SimObserver`] receiving platform
    /// events (power-on, backup, restore, rollback, brown-out, commit).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the workload itself faults.
    pub fn run_observed(
        &mut self,
        trace: &PowerTrace,
        obs: &mut dyn SimObserver,
    ) -> Result<RunReport, SimError> {
        drive_observed(trace, self, obs)
    }

    /// Advances the phase machine by one tick of `dt` seconds.
    fn advance(&mut self, dt: f64, obs: &mut dyn SimObserver) -> Result<(), SimError> {
        let mut budget = dt - self.time_debt_s;
        self.time_debt_s = 0.0;
        while budget > 1e-12 {
            match self.phase {
                Phase::Off => {
                    if self.fe.storage().energy() >= self.thresholds.start {
                        if self.fe.storage_mut().draw(self.backup.restore_energy) {
                            if self.fault.retention.is_some() {
                                self.decay_checkpoints();
                            }
                            self.off_since_s = 0.0;
                            self.report.energy.restore += self.backup.restore_energy;
                            self.report.restores += 1;
                            obs.on_event(self.report.duration_s, SimEvent::PowerOn);
                            obs.on_event(self.report.duration_s, SimEvent::Restore);
                            self.phase =
                                Phase::Restoring { left_s: self.backup.restore_time.get() };
                        } else {
                            // The start threshold should cover restore;
                            // sleep instead.
                            self.off_since_s += budget;
                            self.sleep(budget);
                            budget = 0.0;
                        }
                    } else {
                        self.off_since_s += budget;
                        self.sleep(budget);
                        budget = 0.0;
                    }
                }
                Phase::Restoring { left_s } => {
                    let t = left_s.min(budget);
                    budget -= t;
                    let left = left_s - t;
                    if left <= 1e-12 {
                        if self.fault.restore_fail_prob > 0.0
                            && self.rng.random::<f64>() < self.fault.restore_fail_prob
                        {
                            // The wake-up restore itself failed (bad
                            // read, peripheral timeout) before any
                            // verification ran.
                            self.report.restores_corrupt += 1;
                            obs.on_event(self.report.duration_s, SimEvent::RestoreCorrupt);
                            self.restore_attempts += 1;
                            if self.restore_attempts > self.fault.max_retries {
                                // Retry budget exhausted: degrade to a
                                // cold start rather than wedge.
                                self.enter_safe_mode(obs);
                                self.restore_attempts = 0;
                                self.abandon_checkpoints();
                                self.since_ckpt_s = 0.0;
                                self.phase = Phase::Active;
                            } else {
                                // Power back down; the next threshold
                                // crossing pays for another attempt.
                                self.phase = Phase::Off;
                            }
                        } else {
                            self.restore_attempts = 0;
                            self.restore_from_best(obs);
                            self.since_ckpt_s = 0.0;
                            self.phase = Phase::Active;
                        }
                    } else {
                        self.phase = Phase::Restoring { left_s: left };
                    }
                }
                Phase::Active => {
                    budget = self.run_active(budget, obs)?;
                }
                Phase::BackingUp { left_s, resume } => {
                    let t = left_s.min(budget);
                    budget -= t;
                    let left = left_s - t;
                    if left <= 1e-12 {
                        let torn = self.fault.tear_prob > 0.0
                            && self.rng.random::<f64>() < self.fault.tear_prob;
                        if torn {
                            self.torn_backup(resume, obs);
                        } else {
                            // The image and its CRC commit record are
                            // durable: commit everything.
                            self.report.committed += self.uncommitted;
                            self.uncommitted = 0;
                            self.seal_backup();
                            self.since_ckpt_s = 0.0;
                            self.backup_attempts = 0;
                            self.phase = if resume { Phase::Active } else { Phase::Off };
                        }
                    } else {
                        self.phase = Phase::BackingUp { left_s: left, resume };
                    }
                }
                Phase::Done => {
                    self.sleep(budget);
                    budget = 0.0;
                }
            }
        }
        // Remember sub-instruction overshoot so long instructions stay
        // accurate across ticks.
        if budget < 0.0 {
            self.time_debt_s = -budget;
        }
        Ok(())
    }

    /// Executes instructions until the budget is spent or a platform
    /// event (backup trigger, halt, brown-out) changes phase. Returns the
    /// remaining (possibly slightly negative) budget.
    ///
    /// Instructions run in batches: using the machine's worst-case
    /// per-step cost, a block size is chosen such that no energy floor,
    /// periodic-checkpoint deadline, or brown-out can be crossed inside
    /// the block, so the threshold checks only need to run per block.
    /// When the remaining slack admits fewer than two instructions, the
    /// loop falls back to the exact single-step path.
    fn run_active(&mut self, mut budget: f64, obs: &mut dyn SimObserver) -> Result<f64, SimError> {
        let clock = self.current_clock_hz;
        let max_step_s = f64::from(self.machine.max_step_cycles()) / clock;
        let max_step_j = self.machine.max_step_energy_j();
        while budget > 1e-12 {
            // Demand backup when energy reaches the reserve floor.
            if self.thresholds.backup_reserve > Joules::ZERO
                && self.fe.storage().energy() <= self.thresholds.backup_reserve
            {
                self.begin_backup(false, obs);
                return Ok(budget);
            }
            // Periodic checkpoint.
            if let Some(interval) = self.policy.interval_s() {
                if self.since_ckpt_s >= interval {
                    self.begin_backup(true, obs);
                    return Ok(budget);
                }
            }
            if self.machine.halted() {
                self.finish_task(obs)?;
                if self.phase == Phase::Done {
                    return Ok(budget);
                }
                continue;
            }
            // Largest block that cannot cross any threshold mid-block,
            // assuming every instruction costs the image's worst case.
            let mut block = safe_count(budget, max_step_s);
            let floor = self.thresholds.backup_reserve.max(Joules::ZERO);
            block = block.min(safe_count((self.fe.storage().energy() - floor).get(), max_step_j));
            if let Some(interval) = self.policy.interval_s() {
                block = block.min(safe_count(interval - self.since_ckpt_s, max_step_s));
            }
            if block >= 2 {
                let stats = self.machine.run_blocks(block)?;
                let t = stats.cycles as f64 / clock;
                budget -= t;
                self.report.on_time_s += t;
                self.since_ckpt_s += t;
                self.report.executed += stats.executed;
                self.uncommitted += stats.executed;
                self.report.energy.compute += Joules::new(stats.energy_j);
                if !self.fe.storage_mut().draw_j(stats.energy_j) {
                    // Unreachable under the block bound, but kept so the
                    // brown-out path cannot be silently skipped.
                    self.fe.storage_mut().deplete();
                    obs.on_event(self.report.duration_s, SimEvent::BrownOut);
                    self.rollback(obs)?;
                    return Ok(budget);
                }
                if stats.checkpoint {
                    self.begin_backup(true, obs);
                    return Ok(budget);
                }
                continue;
            }
            let step = self.machine.step()?;
            let t = f64::from(step.cycles) / clock;
            budget -= t;
            self.report.on_time_s += t;
            self.since_ckpt_s += t;
            self.report.executed += 1;
            self.uncommitted += 1;
            self.report.energy.compute += Joules::new(step.energy_j);
            if !self.fe.storage_mut().draw_j(step.energy_j) {
                // Brown-out mid-instruction: volatile state is gone.
                self.fe.storage_mut().deplete();
                obs.on_event(self.report.duration_s, SimEvent::BrownOut);
                self.rollback(obs)?;
                return Ok(budget);
            }
            if step.checkpoint {
                // Program-requested checkpoint (`ckpt` instruction).
                self.begin_backup(true, obs);
                return Ok(budget);
            }
        }
        Ok(budget)
    }

    /// Starts a backup; `resume` controls whether execution continues
    /// afterwards (periodic checkpoints) or the platform powers down
    /// (demand backups at the energy floor).
    fn begin_backup(&mut self, resume: bool, obs: &mut dyn SimObserver) {
        if self.fe.storage_mut().draw(self.backup.backup_energy) {
            self.report.energy.backup += self.backup.backup_energy;
            self.report.backups += 1;
            obs.on_event(self.report.duration_s, SimEvent::Backup);
            self.pending = Some(self.machine.snapshot());
            self.backup_attempts = 0;
            self.phase = Phase::BackingUp { left_s: self.backup.backup_time.get(), resume };
        } else {
            // Not enough energy left to checkpoint — the greedy-policy
            // failure mode: everything since the last checkpoint is lost.
            self.fe.storage_mut().deplete();
            obs.on_event(self.report.duration_s, SimEvent::BrownOut);
            if let Err(e) = self.rollback(obs) {
                // rollback only errs on reload, which new() validated.
                debug_assert!(false, "rollback failed: {e}");
            }
        }
    }

    /// Handles a program halt: the frame's results are durable, so the
    /// work commits; then either restart for the next frame or stop.
    fn finish_task(&mut self, obs: &mut dyn SimObserver) -> Result<(), SimError> {
        self.report.tasks_completed += 1;
        self.report.committed += self.uncommitted;
        self.uncommitted = 0;
        // The frame's checkpoints reference a finished execution.
        self.slots = [None, None];
        self.write_idx = 0;
        self.pending = None;
        self.durable_anchor = self.report.committed;
        obs.on_event(self.report.duration_s, SimEvent::TaskCommit);
        if self.config.restart_on_halt {
            self.machine.reset_volatile();
        } else {
            self.phase = Phase::Done;
        }
        Ok(())
    }

    /// Loses all volatile state after a brown-out.
    fn rollback(&mut self, obs: &mut dyn SimObserver) -> Result<(), SimError> {
        self.report.rollbacks += 1;
        self.report.lost += self.uncommitted;
        self.uncommitted = 0;
        obs.on_event(self.report.duration_s, SimEvent::Rollback);
        if self.config.dmem_nonvolatile {
            self.machine.reset_volatile();
        } else {
            // Volatile SRAM: rebuild the machine, losing data memory too,
            // and invalidate the checkpoints (they reference lost data).
            self.machine = Machine::from_image(&self.image);
            self.slots = [None, None];
            self.write_idx = 0;
        }
        self.pending = None;
        self.phase = Phase::Off;
        Ok(())
    }

    /// Seals the pending snapshot into the write slot with a matching
    /// CRC and rotates the A/B slots. Called when a backup window
    /// completes untorn; `committed_at` records the post-commit count
    /// so fallback restores can account re-execution precisely.
    fn seal_backup(&mut self) {
        let state = self.pending.take().unwrap_or_else(|| self.machine.snapshot());
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots[self.write_idx] =
            Some(Slot { ckpt: Checkpoint::seal(&state), committed_at: self.report.committed, seq });
        self.write_idx ^= 1;
    }

    /// A backup write tore: store the partial image (CRC never lands),
    /// then either retry under the threshold-backoff policy or give up
    /// and power down (safe mode). The write slot is *not* rotated, so
    /// the previous image survives and a retry overwrites the garbage.
    fn torn_backup(&mut self, resume: bool, obs: &mut dyn SimObserver) {
        self.report.backups_torn += 1;
        obs.on_event(self.report.duration_s, SimEvent::BackupTorn);
        let state = self.pending.unwrap_or_else(|| self.machine.snapshot());
        let written = torn_prefix_words(CHECKPOINT_WORDS, self.rng.random::<f64>());
        let prev = self.slots[self.write_idx].map(|s| s.ckpt);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots[self.write_idx] = Some(Slot {
            ckpt: Checkpoint::torn(&state, prev.as_ref(), written),
            committed_at: self.report.committed + self.uncommitted,
            seq,
        });
        self.backup_attempts += 1;
        // Attempt k is only worth paying for with backoff^k × the backup
        // energy in storage — a collapsing supply stops burning energy
        // on writes that will tear again.
        let attempt_threshold = self.backup.backup_energy
            * self.fault.retry_backoff.powi(self.backup_attempts.min(64) as i32);
        if self.backup_attempts <= self.fault.max_retries
            && self.fe.storage().energy() >= attempt_threshold
            && self.fe.storage_mut().draw(self.backup.backup_energy)
        {
            self.report.energy.backup += self.backup.backup_energy;
            self.report.backups += 1;
            self.report.backup_retries += 1;
            obs.on_event(self.report.duration_s, SimEvent::RetryBackup);
            self.phase = Phase::BackingUp { left_s: self.backup.backup_time.get(), resume };
        } else {
            // Retry budget (or energy) exhausted: degrade gracefully.
            // Power down with the work since the last checkpoint lost;
            // the torn image fails CRC on the next restore and the
            // platform falls back to the previous valid slot.
            self.enter_safe_mode(obs);
            self.report.lost += self.uncommitted;
            self.uncommitted = 0;
            self.backup_attempts = 0;
            self.pending = None;
            self.phase = Phase::Off;
        }
    }

    /// Applies retention decay to every stored checkpoint word for the
    /// off-time accumulated since power-down. Any real flip breaks the
    /// image's CRC, which the restore path then detects.
    fn decay_checkpoints(&mut self) {
        let Some(retention) = self.fault.retention.clone() else { return };
        if self.off_since_s <= 0.0 {
            return;
        }
        for slot in self.slots.iter_mut().flatten() {
            for w in slot.ckpt.words_mut() {
                let (decayed, _flips) = retention.degrade(*w, self.off_since_s, &mut self.rng);
                *w = decayed;
            }
        }
    }

    /// Restores from the newest checkpoint that passes CRC verification,
    /// discarding corrupt images; falls back to a cold start (safe mode)
    /// when nothing verifies. The fault-free path — newest slot valid,
    /// or no slots at all — is byte-identical to the legacy behavior.
    fn restore_from_best(&mut self, obs: &mut dyn SimObserver) {
        let mut order: [Option<usize>; 2] = [None, None];
        for idx in 0..2 {
            if self.slots[idx].is_some() {
                if order[0].is_none() {
                    order[0] = Some(idx);
                } else {
                    order[1] = Some(idx);
                }
            }
        }
        if let (Some(a), Some(b)) = (order[0], order[1]) {
            if self.slots[a].map(|s| s.seq) < self.slots[b].map(|s| s.seq) {
                order.swap(0, 1);
            }
        }
        let mut dropped_newer = false;
        for idx in order.into_iter().flatten() {
            let slot = self.slots[idx].expect("order only lists occupied slots");
            if slot.ckpt.verify() {
                self.machine.restore(&slot.ckpt.state());
                if dropped_newer {
                    // Commits recorded after this older image must be
                    // re-executed to reach the same point again.
                    self.report.committed_lost +=
                        self.report.committed.saturating_sub(slot.committed_at);
                    // Overwrite the discarded slot next, not this one.
                    self.write_idx = idx ^ 1;
                }
                return;
            }
            self.report.restores_corrupt += 1;
            obs.on_event(self.report.duration_s, SimEvent::RestoreCorrupt);
            self.slots[idx] = None;
            dropped_newer = true;
        }
        if dropped_newer {
            // Every stored image failed verification.
            self.enter_safe_mode(obs);
            self.abandon_checkpoints();
        } else {
            // First boot (or post-rollback on volatile memory): nothing
            // saved yet, start from the entry point.
            self.machine.reset_volatile();
        }
    }

    /// Cold start after corruption: every checkpoint is untrusted, so
    /// the platform restarts the frame and the commits since the last
    /// durable anchor are charged to `committed_lost`.
    fn abandon_checkpoints(&mut self) {
        self.slots = [None, None];
        self.write_idx = 0;
        self.pending = None;
        self.report.committed_lost += self.report.committed.saturating_sub(self.durable_anchor);
        self.durable_anchor = self.report.committed;
        self.machine.reset_volatile();
    }

    fn enter_safe_mode(&mut self, obs: &mut dyn SimObserver) {
        self.report.safe_mode_entries += 1;
        obs.on_event(self.report.duration_s, SimEvent::SafeModeEntered);
    }

    /// Rough active core power at the base clock: average energy per
    /// cycle times frequency (used only for clock-policy decisions).
    fn active_power_estimate_w(&self) -> f64 {
        (self.config.energy_model.base_per_cycle_j + 20e-12) * self.config.clock_hz
    }

    fn sleep(&mut self, duration_s: f64) {
        let draw = Watts::new(self.config.sleep_power_w) * Seconds::new(duration_s);
        let got = self.fe.storage_mut().draw_up_to(draw);
        self.report.energy.sleep += got;
    }
}

impl Platform for IntermittentSystem {
    fn front_end(&self) -> &EnergyFrontEnd {
        &self.fe
    }

    fn front_end_mut(&mut self) -> &mut EnergyFrontEnd {
        &mut self.fe
    }

    fn tick(
        &mut self,
        income: TickIncome,
        dt_s: f64,
        obs: &mut dyn SimObserver,
    ) -> Result<(), SimError> {
        self.current_clock_hz = self.config.clock_policy.select_hz(
            self.config.clock_hz,
            self.active_power_estimate_w(),
            (income.converted / Seconds::new(dt_s)).get(),
            self.fe.storage().fill_fraction(),
        );
        self.advance(dt_s, obs)
    }

    fn report_mut(&mut self) -> &mut RunReport {
        &mut self.report
    }

    fn uncommitted(&self) -> u64 {
        self.uncommitted
    }
}

/// How many worst-case steps of size `per_step` fit in `slack` without
/// crossing it. Non-finite or non-positive slack admits none.
fn safe_count(slack: f64, per_step: f64) -> u64 {
    if per_step <= 0.0 || slack <= 0.0 {
        return 0;
    }
    // `as` saturates: an unbounded ratio clamps to u64::MAX.
    (slack / per_step) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_device::NvmTechnology;
    use nvp_energy::harvester;
    use nvp_isa::asm::assemble;

    fn counter_program() -> Program {
        assemble("start:\n addi r1, r1, 1\n sw r1, 0(r0)\n j start").unwrap()
    }

    fn nvp(program: &Program) -> IntermittentSystem {
        IntermittentSystem::new(
            program,
            SystemConfig::default(),
            BackupModel::distributed(NvmTechnology::Feram, 2048),
            BackupPolicy::demand(),
        )
        .unwrap()
    }

    #[test]
    fn strong_power_runs_continuously() {
        let program = counter_program();
        let mut sys = nvp(&program);
        let trace = PowerTrace::constant(1e-4, 2e-3, 1.0); // 2 mW ≫ core draw
        let r = sys.run(&trace).unwrap();
        assert_eq!(r.rollbacks, 0);
        assert!(r.on_fraction() > 0.9, "on fraction {}", r.on_fraction());
        // ~1 MHz, mostly 1-2 cycle instructions over 1 s.
        assert!(r.executed > 300_000, "{}", r.executed);
        assert!(r.backups <= 1);
    }

    #[test]
    fn zero_power_does_nothing() {
        let program = counter_program();
        let mut sys = nvp(&program);
        let r = sys.run(&PowerTrace::constant(1e-4, 0.0, 0.5)).unwrap();
        assert_eq!(r.executed, 0);
        assert_eq!(r.backups, 0);
        assert_eq!(r.on_time_s, 0.0);
    }

    #[test]
    fn interrupted_power_backs_up_and_resumes() {
        let program = counter_program();
        let mut sys = nvp(&program);
        // Strong bursts with gaps long enough to force power-down: the
        // buffer holds ~12 µJ and a 0.3 s gap at ~0.2 mW needs ~60 µJ.
        let trace = PowerTrace::from_segments(
            1e-4,
            &[(1e-3, 0.05), (0.0, 0.3), (1e-3, 0.05), (0.0, 0.3), (1e-3, 0.05)],
        );
        let r = sys.run(&trace).unwrap();
        assert!(r.backups >= 2, "backups {}", r.backups);
        assert!(r.restores >= 2, "restores {}", r.restores);
        assert_eq!(r.rollbacks, 0, "demand policy must not lose state");
        assert!(r.committed > 0);
        // The counter value in NVM survives all outages: it equals the
        // committed+uncommitted increments observed by the program.
        let counter = sys.machine().read_word(0).unwrap();
        assert!(counter > 0);
    }

    #[test]
    fn forward_progress_monotone_with_power() {
        let program = counter_program();
        let mut weak = nvp(&program);
        let mut strong = nvp(&program);
        let weak_r = weak.run(&harvester::wrist_watch(1, 2.0)).unwrap();
        let strong_r = strong.run(&harvester::wrist_watch(1, 2.0).scaled(4.0)).unwrap();
        assert!(strong_r.forward_progress() > weak_r.forward_progress());
    }

    #[test]
    fn wearable_trace_yields_published_backup_rate_band() {
        let program = counter_program();
        let mut sys = nvp(&program);
        let r = sys.run(&harvester::wrist_watch(2, 10.0)).unwrap();
        let per_min = r.backups_per_minute();
        assert!(
            (500.0..4000.0).contains(&per_min),
            "published band is 1400-1700/min; model gives {per_min}"
        );
        let share = r.backup_energy_share();
        assert!(
            (0.05..0.55).contains(&share),
            "published band is 20-33 % of income; model gives {share}"
        );
    }

    #[test]
    fn greedy_policy_risks_rollbacks() {
        let program = counter_program();
        let mut greedy = IntermittentSystem::new(
            &program,
            SystemConfig::default(),
            BackupModel::distributed(NvmTechnology::Feram, 2048),
            BackupPolicy::Periodic { interval_s: 0.5 }, // no demand floor
        )
        .unwrap();
        let trace = harvester::wrist_watch(3, 5.0);
        let r = greedy.run(&trace).unwrap();
        assert!(r.rollbacks > 0, "periodic-only checkpointing must lose work on this trace");
        assert!(r.lost > 0);
    }

    #[test]
    fn periodic_checkpoints_resume_execution() {
        let program = counter_program();
        let mut sys = IntermittentSystem::new(
            &program,
            SystemConfig::default(),
            BackupModel::distributed(NvmTechnology::Feram, 2048),
            BackupPolicy::Hybrid { interval_s: 0.01, margin: 1.5 },
        )
        .unwrap();
        let r = sys.run(&PowerTrace::constant(1e-4, 2e-3, 0.5)).unwrap();
        // 0.5 s / 10 ms → ~50 periodic checkpoints, still mostly on.
        assert!(r.backups >= 30, "{}", r.backups);
        assert!(r.on_fraction() > 0.8);
        assert_eq!(r.rollbacks, 0);
    }

    #[test]
    fn halting_program_counts_tasks() {
        let program =
            assemble("li r2, 50\nloop: addi r1, r1, 1\n bne r1, r2, loop\n sw r1, 0(r0)\n halt")
                .unwrap();
        let mut sys = nvp(&program);
        let r = sys.run(&PowerTrace::constant(1e-4, 2e-3, 0.2)).unwrap();
        assert!(r.tasks_completed > 100, "{}", r.tasks_completed);
        assert_eq!(r.rollbacks, 0);
        assert_eq!(sys.machine().read_word(0), Some(50));
    }

    #[test]
    fn done_phase_when_restart_disabled() {
        let program = assemble("li r1, 3\nsw r1, 0(r0)\nhalt").unwrap();
        let cfg = SystemConfig { restart_on_halt: false, ..SystemConfig::default() };
        let mut sys = IntermittentSystem::new(
            &program,
            cfg,
            BackupModel::distributed(NvmTechnology::Feram, 2048),
            BackupPolicy::demand(),
        )
        .unwrap();
        let r = sys.run(&PowerTrace::constant(1e-4, 2e-3, 0.1)).unwrap();
        assert_eq!(r.tasks_completed, 1);
        assert_eq!(sys.machine().read_word(0), Some(3));
        // All work committed, nothing pending.
        assert_eq!(r.committed, r.executed);
    }

    #[test]
    fn energy_breakdown_is_consistent() {
        let program = counter_program();
        let mut sys = nvp(&program);
        let r = sys.run(&harvester::wrist_watch(4, 3.0)).unwrap();
        let e = r.energy;
        assert!(e.harvested >= e.converted);
        let spent = e.compute + e.backup + e.restore + e.sleep;
        // Spending cannot exceed what was converted (cap may hold some).
        assert!(
            spent <= e.converted + Joules::new(1e-9),
            "spent {spent} vs converted {}",
            e.converted
        );
    }

    #[test]
    fn runs_accumulate_across_calls() {
        let program = counter_program();
        let mut sys = nvp(&program);
        let t = PowerTrace::constant(1e-4, 1e-3, 0.1);
        let r1 = sys.run(&t).unwrap();
        let r2 = sys.run(&t).unwrap();
        assert!(r2.executed > r1.executed);
        assert!((r2.duration_s - 0.2).abs() < 1e-9);
    }

    #[test]
    fn measure_task_cost() {
        let program = assemble("li r2, 10\nloop: addi r1, r1, 1\nbne r1, r2, loop\nhalt").unwrap();
        let cost = measure_task(&program, &SystemConfig::default(), 1_000_000).unwrap();
        assert_eq!(cost.instructions, 22);
        assert!(cost.energy_j > 0.0);
        assert!(cost.time_s(1e6) > 0.0);
    }

    #[test]
    fn measure_task_runs_past_checkpoints_like_step_mode() {
        // The block engine stops at every `ckpt`; the cost must still
        // cover the whole run, as `Machine::run` steps through it.
        let program =
            assemble("li r2, 10\nloop: addi r1, r1, 1\nckpt\nbne r1, r2, loop\nhalt").unwrap();
        let config = SystemConfig::default();
        let cost = measure_task(&program, &config, 1_000_000).unwrap();
        let mut by_step = Machine::with_config(
            &program,
            config.dmem_words,
            config.cycle_model,
            config.energy_model,
        )
        .unwrap();
        by_step.run(1_000_000).unwrap();
        let c = by_step.counters();
        assert_eq!(cost.instructions, 32);
        assert_eq!(
            (cost.instructions, cost.cycles, cost.energy_j.to_bits()),
            (c.instructions, c.cycles, c.energy_j.to_bits())
        );
    }

    #[test]
    fn measure_task_detects_nontermination() {
        let program = counter_program();
        assert!(measure_task(&program, &SystemConfig::default(), 10_000).is_err());
    }

    #[test]
    fn deterministic_runs() {
        let program = counter_program();
        let trace = harvester::wrist_watch(5, 2.0);
        let mut a = nvp(&program);
        let mut b = nvp(&program);
        let ra = a.run(&trace).unwrap();
        let rb = b.run(&trace).unwrap();
        assert_eq!(ra, rb);
    }

    fn faulted(program: &Program, plan: FaultPlan) -> IntermittentSystem {
        IntermittentSystem::with_faults(
            program,
            SystemConfig::default(),
            BackupModel::distributed(NvmTechnology::Feram, 2048),
            BackupPolicy::demand(),
            plan,
        )
        .unwrap()
    }

    /// An outage-heavy trace that forces many backup/restore cycles.
    fn choppy_trace() -> PowerTrace {
        PowerTrace::from_segments(
            1e-4,
            &[
                (1e-3, 0.05),
                (0.0, 0.3),
                (1e-3, 0.05),
                (0.0, 0.3),
                (1e-3, 0.05),
                (0.0, 0.3),
                (1e-3, 0.05),
            ],
        )
    }

    #[test]
    fn disabled_fault_plan_is_bitwise_noop() {
        let program = counter_program();
        let trace = harvester::wrist_watch(6, 3.0);
        let plain = nvp(&program).run(&trace).unwrap();
        let with_none = faulted(&program, FaultPlan::none()).run(&trace).unwrap();
        assert_eq!(plain, with_none);
        assert_eq!(plain.energy.compute.get().to_bits(), with_none.energy.compute.get().to_bits());
        assert_eq!(plain.backups_torn, 0);
        assert_eq!(plain.restores_corrupt, 0);
        assert_eq!(plain.committed_lost, 0);
        assert_eq!(plain.committed_surviving(), plain.forward_progress());
    }

    fn faulted_hybrid(program: &Program, plan: FaultPlan) -> IntermittentSystem {
        IntermittentSystem::with_faults(
            program,
            SystemConfig::default(),
            BackupModel::distributed(NvmTechnology::Feram, 2048),
            BackupPolicy::Hybrid { interval_s: 0.01, margin: 1.5 },
            plan,
        )
        .unwrap()
    }

    #[test]
    fn torn_backups_are_injected_and_recovered() {
        let program = counter_program();
        // Periodic checkpoints under strong power: storage is full when
        // a write tears, so the threshold-backoff retry path engages.
        let mut sys = faulted_hybrid(&program, FaultPlan::with_rates(11, 0.4, 0.0));
        let r = sys.run(&PowerTrace::constant(1e-4, 2e-3, 1.0)).unwrap();
        assert!(r.backups_torn > 0, "tear rate 0.4 must tear something: {r:?}");
        assert!(r.backup_retries > 0, "torn backups must be retried: {r:?}");
        assert!(r.committed > 0, "the platform must still make progress");
    }

    #[test]
    fn demand_tears_without_energy_degrade_instead_of_retrying() {
        let program = counter_program();
        // Demand backups fire at the energy floor: a tear there cannot
        // meet the backed-off retry threshold, so the platform powers
        // down in safe mode rather than burning its last joules.
        let mut sys = faulted(&program, FaultPlan::with_rates(11, 0.6, 0.0));
        let r = sys.run(&choppy_trace()).unwrap();
        assert!(r.backups_torn > 0, "{r:?}");
        assert!(r.safe_mode_entries > 0, "{r:?}");
        assert!(r.committed > 0, "fallback to the previous valid image keeps progress");
    }

    #[test]
    fn restore_failures_fall_back_and_still_progress() {
        let program = counter_program();
        let mut sys = faulted(&program, FaultPlan::with_rates(12, 0.0, 0.5));
        let r = sys.run(&choppy_trace()).unwrap();
        assert!(r.restores_corrupt > 0, "restore-fail rate 0.5 must fire: {r:?}");
        assert!(r.committed > 0, "bounded retries must not wedge the platform");
    }

    #[test]
    fn retention_decay_breaks_checkpoint_crc() {
        use nvp_device::{RelaxPolicy, RetentionShaper};
        let program = counter_program();
        // Millisecond-class retention against 0.3 s outages: stored
        // images decay while the platform is off and fail verification.
        let retention = RetentionShaper::new(RelaxPolicy::Linear, 16, 1e-3, 10e-3).bit_retention();
        let plan = FaultPlan { seed: 13, ..FaultPlan::none() }.with_retention(retention);
        let mut sys = faulted(&program, plan);
        let r = sys.run(&choppy_trace()).unwrap();
        assert!(r.restores_corrupt > 0, "decayed checkpoints must fail CRC: {r:?}");
        assert!(r.committed > 0);
    }

    #[test]
    fn faulted_runs_are_deterministic_per_seed() {
        let program = counter_program();
        let plan = FaultPlan::with_rates(21, 0.4, 0.2);
        let ra = faulted(&program, plan.clone()).run(&choppy_trace()).unwrap();
        let rb = faulted(&program, plan).run(&choppy_trace()).unwrap();
        assert_eq!(ra, rb);
        let rc =
            faulted(&program, FaultPlan::with_rates(22, 0.4, 0.2)).run(&choppy_trace()).unwrap();
        assert_ne!(ra, rc, "different fault seeds should diverge on this trace");
    }

    #[test]
    fn safe_mode_bounds_retry_storms() {
        let program = counter_program();
        // Certain tears: every backup tears, retries always tear again,
        // so the retry budget must run out and safe mode must engage
        // instead of looping forever.
        let plan = FaultPlan::with_rates(31, 1.0, 0.0);
        let mut sys = faulted(&program, plan);
        let r = sys.run(&choppy_trace()).unwrap();
        assert!(r.safe_mode_entries > 0, "{r:?}");
        assert_eq!(r.committed, 0, "no backup ever completes, nothing commits: {r:?}");
        assert!(r.backup_retries <= r.backups_torn * 2);
    }

    #[test]
    fn fault_event_counts_match_report() {
        use std::collections::BTreeMap;
        #[derive(Default)]
        struct Counter(BTreeMap<SimEvent, u64>);
        impl SimObserver for Counter {
            fn on_event(&mut self, _t_s: f64, event: SimEvent) {
                *self.0.entry(event).or_insert(0) += 1;
            }
        }
        let program = counter_program();
        let plan = FaultPlan::with_rates(41, 0.5, 0.3);
        let mut sys = faulted_hybrid(&program, plan);
        let mut obs = Counter::default();
        let trace = PowerTrace::from_segments(
            1e-4,
            &[(2e-3, 0.3), (0.0, 0.3), (2e-3, 0.3), (0.0, 0.3), (2e-3, 0.3)],
        );
        let r = sys.run_observed(&trace, &mut obs).unwrap();
        let get = |e| obs.0.get(&e).copied().unwrap_or(0);
        assert_eq!(get(SimEvent::BackupTorn), r.backups_torn);
        assert_eq!(get(SimEvent::RetryBackup), r.backup_retries);
        assert_eq!(get(SimEvent::RestoreCorrupt), r.restores_corrupt);
        assert_eq!(get(SimEvent::SafeModeEntered), r.safe_mode_entries);
        assert!(r.backups_torn > 0 && r.restores_corrupt > 0, "{r:?}");
    }
}
