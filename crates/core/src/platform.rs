//! The shared platform engine: one trace loop for every platform.
//!
//! Every simulated platform — the hardware NVP, the software-checkpoint
//! variants, the wait-then-compute baseline — consumes the same power
//! traces through the same [`EnergyFrontEnd`] income path and is stepped
//! by the same [`drive`] loop. A platform only implements
//! [`Platform::tick`]: how it spends the tick (and the energy already
//! banked into its storage) on phases, instructions, and checkpoints.
//! A platform that spends most samples only banking income and sleeping
//! also implements [`Platform::idle`], the loop's fast path through
//! such stretches ([`EnergyFrontEnd::idle`]).
//!
//! The engine also carries a [`SimObserver`] event seam: discrete
//! platform events (power-on, backup, restore, rollback, brown-out,
//! task commit) are reported to an observer, with the no-op
//! [`NullObserver`] used when nobody is listening.

use std::num::FpCategory;

use nvp_energy::units::{Joules, Seconds, Watts};
use nvp_energy::{EnergyFrontEnd, IdleSums, PowerTrace, TickIncome};
use nvp_sim::SimError;

use crate::RunReport;

/// A discrete platform event, reported to a [`SimObserver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimEvent {
    /// Stored energy crossed the start threshold: the platform wakes.
    PowerOn,
    /// A checkpoint was successfully paid for and started.
    Backup,
    /// Saved state restoration was successfully paid for and started.
    Restore,
    /// Volatile state was lost and execution rolled back.
    Rollback,
    /// Storage was exhausted mid-operation (precedes a rollback).
    BrownOut,
    /// A complete program execution (frame) became durable.
    TaskCommit,
    /// A backup write tore mid-flight: the checkpoint image is partial
    /// and its commit record never landed (fault injection).
    BackupTorn,
    /// A restore failed or a checkpoint failed CRC verification; the
    /// platform falls back to an older image or a cold start.
    RestoreCorrupt,
    /// A torn backup is being retried under the threshold-backoff
    /// policy.
    RetryBackup,
    /// The bounded retry budget ran out: the platform degrades
    /// gracefully (forced power-down / cold start) instead of wedging.
    SafeModeEntered,
}

/// Receives discrete platform events as the engine simulates.
///
/// The default implementation ignores every event, so observing costs
/// nothing unless a method is overridden — events are rare (backup-rate
/// scale, not instruction scale), so even an active observer is off the
/// simulation hot path.
pub trait SimObserver {
    /// Called when `event` occurs at simulated time `t_s` (seconds since
    /// the start of the run).
    fn on_event(&mut self, t_s: f64, event: SimEvent) {
        let _ = (t_s, event);
    }
}

/// The observer used when no observer is supplied: ignores everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl SimObserver for NullObserver {}

/// An intermittently powered platform that the shared [`drive`] loop can
/// step over a power trace.
///
/// Implementations own an [`EnergyFrontEnd`] (the storage their tick
/// logic draws from) and a [`RunReport`] (the bookkeeping the loop and
/// the tick logic both write). The loop banks each tick's harvested
/// income through the front end *before* calling [`tick`](Self::tick),
/// so platform logic never touches the income path — that physics lives
/// in the front end, whose [`EnergyFrontEnd::idle`] loop repeats it
/// operation for operation for [`idle`](Self::idle) stretches.
pub trait Platform {
    /// Read access to the power-provisioning front end.
    fn front_end(&self) -> &EnergyFrontEnd;

    /// Mutable access to the power-provisioning front end.
    fn front_end_mut(&mut self) -> &mut EnergyFrontEnd;

    /// Advances platform state by one tick of `dt_s` seconds. The tick's
    /// `income` has already been banked into storage; implementations
    /// spend it on restore/compute/backup/sleep and report events to
    /// `obs`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the workload itself faults — power
    /// failures are *not* errors.
    fn tick(
        &mut self,
        income: TickIncome,
        dt_s: f64,
        obs: &mut dyn SimObserver,
    ) -> Result<(), SimError>;

    /// Mutable report access (the drive loop's shared bookkeeping).
    fn report_mut(&mut self) -> &mut RunReport;

    /// Consumes the samples of `trace` from index `from` on that the
    /// platform would spend only banking income and sleeping, and
    /// returns how many it consumed. Each must leave the platform, its
    /// front end and its report bit-identical to a generic tick, which
    /// the loop runs for the first sample not consumed. Such a sample
    /// reports no event. The default consumes nothing.
    fn idle(&mut self, trace: &PowerTrace, from: usize) -> usize {
        let _ = (trace, from);
        0
    }

    /// Instructions executed since the last durable commit.
    fn uncommitted(&self) -> u64;
}

/// Simulates `platform` over `trace` with no observer, accumulating into
/// (and returning a copy of) the platform's report.
///
/// # Errors
///
/// Returns [`SimError`] if the workload faults.
pub fn drive<P: Platform + ?Sized>(
    trace: &PowerTrace,
    platform: &mut P,
) -> Result<RunReport, SimError> {
    drive_observed(trace, platform, &mut NullObserver)
}

/// [`drive`] with a [`SimObserver`] receiving platform events.
///
/// This is *the* trace loop: one tick of income through the front end,
/// then one platform tick, for every sample — except the stretches the
/// platform's [`Platform::idle`] fast path consumes first, which end the
/// same as those generic ticks would. Can be called repeatedly with
/// successive trace windows; the report accumulates.
///
/// # Errors
///
/// Returns [`SimError`] if the workload faults.
pub fn drive_observed<P: Platform + ?Sized>(
    trace: &PowerTrace,
    platform: &mut P,
    obs: &mut dyn SimObserver,
) -> Result<RunReport, SimError> {
    let dt = trace.dt_s();
    let mut i = 0;
    loop {
        i += platform.idle(trace, i);
        let Some(&power) = trace.samples().get(i) else { break };
        let income = platform.front_end_mut().tick(Watts::new(power), Seconds::new(dt));
        let energy = &mut platform.report_mut().energy;
        energy.harvested += income.harvested;
        energy.converted += income.converted;
        platform.tick(income, dt, obs)?;
        platform.report_mut().duration_s += dt;
        i += 1;
    }
    let uncommitted = platform.uncommitted();
    let stored = platform.front_end().storage().energy();
    let wasted = platform.front_end().storage().wasted();
    let report = platform.report_mut();
    report.uncommitted_at_end = uncommitted;
    report.energy.stored_at_end = stored;
    report.energy.storage_wasted = wasted;
    Ok(*report)
}

/// Runs [`EnergyFrontEnd::idle`] for a platform whose phase machine, on
/// a tick of `trace`'s `dt` with `debt_s` carried over, would only sleep
/// at `sleep_power_w` until its store holds `wake`. The phase machines
/// spend a budget of `dt - debt_s` while it exceeds 1e-12 s, so only a
/// zero debt and such a `dt` give each sample exactly one `dt` of sleep.
/// Returns the samples consumed.
pub(crate) fn idle_stretch(
    trace: &PowerTrace,
    from: usize,
    fe: &mut EnergyFrontEnd,
    report: &mut RunReport,
    debt_s: f64,
    sleep_power_w: f64,
    wake: Joules,
) -> usize {
    let dt = trace.dt_s();
    let whole_dt = debt_s.classify() == FpCategory::Zero && dt > 1e-12;
    if !whole_dt {
        return 0;
    }
    let Some(powers) = trace.samples().get(from..) else { return 0 };
    let sleep_draw = Watts::new(sleep_power_w) * Seconds::new(dt);
    let mut sums = IdleSums {
        harvested: report.energy.harvested,
        converted: report.energy.converted,
        sleep: report.energy.sleep,
        duration_s: report.duration_s,
    };
    let consumed = fe.idle(powers, Seconds::new(dt), sleep_draw, wake, &mut sums);
    report.energy.harvested = sums.harvested;
    report.energy.converted = sums.converted;
    report.energy.sleep = sums.sleep;
    report.duration_s = sums.duration_s;
    consumed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        measure_task, BackupModel, BackupPolicy, IntermittentSystem, SystemConfig,
        WaitComputeConfig, WaitComputeSystem,
    };
    use nvp_device::NvmTechnology;
    use nvp_energy::harvester;
    use nvp_isa::asm::assemble;
    use std::collections::BTreeMap;

    /// Counts every event it sees; the map iterates in a deterministic
    /// (declaration) order so summaries are stable.
    #[derive(Default)]
    struct Counter {
        counts: BTreeMap<SimEvent, u64>,
        last_t: f64,
    }

    impl SimObserver for Counter {
        fn on_event(&mut self, t_s: f64, event: SimEvent) {
            assert!(t_s >= self.last_t, "event times must be monotone");
            self.last_t = t_s;
            *self.counts.entry(event).or_insert(0) += 1;
        }
    }

    impl Counter {
        fn get(&self, e: SimEvent) -> u64 {
            self.counts.get(&e).copied().unwrap_or(0)
        }
    }

    #[test]
    fn observer_counts_match_nvp_report() {
        let program = assemble("start: addi r1, r1, 1\n sw r1, 0(r0)\n j start").unwrap();
        let mut sys = IntermittentSystem::new(
            &program,
            SystemConfig::default(),
            BackupModel::distributed(NvmTechnology::Feram, 2048),
            BackupPolicy::demand(),
        )
        .unwrap();
        let trace = harvester::wrist_watch(2, 3.0);
        let mut obs = Counter::default();
        let r = sys.run_observed(&trace, &mut obs).unwrap();
        assert!(r.backups > 0 && r.restores > 0);
        assert_eq!(obs.get(SimEvent::Backup), r.backups);
        assert_eq!(obs.get(SimEvent::Restore), r.restores);
        assert_eq!(obs.get(SimEvent::PowerOn), r.restores);
        assert_eq!(obs.get(SimEvent::Rollback), r.rollbacks);
        assert_eq!(obs.get(SimEvent::TaskCommit), r.tasks_completed);
    }

    #[test]
    fn observer_counts_match_wait_report() {
        let program =
            assemble("li r2, 2000\nloop: addi r1, r1, 1\nbne r1, r2, loop\nsw r1, 0(r0)\nhalt")
                .unwrap();
        let cost = measure_task(&program, &SystemConfig::default(), 10_000_000).unwrap();
        let mut cfg = WaitComputeConfig::default().sized_for(&cost, 1.3);
        cfg.start_energy_j *= 0.3; // force mid-task brown-outs
        let mut sys = WaitComputeSystem::new(&program, cfg).unwrap();
        let trace = nvp_energy::PowerTrace::from_segments(
            1e-4,
            &[(60e-6, 2.0), (0.0, 1.0), (60e-6, 2.0), (0.0, 1.0), (60e-6, 2.0)],
        );
        let mut obs = Counter::default();
        let r = sys.run_observed(&trace, &mut obs).unwrap();
        assert!(r.rollbacks > 0);
        assert_eq!(obs.get(SimEvent::Rollback), r.rollbacks);
        assert_eq!(obs.get(SimEvent::BrownOut), r.rollbacks);
        assert_eq!(obs.get(SimEvent::TaskCommit), r.tasks_completed);
        assert_eq!(obs.get(SimEvent::Backup), 0, "wait-compute never checkpoints");
        assert_eq!(obs.get(SimEvent::Restore), 0);
    }

    #[test]
    fn observed_run_is_byte_identical_to_unobserved() {
        let program = assemble("start: addi r1, r1, 1\n j start").unwrap();
        let trace = harvester::wrist_watch(7, 2.0);
        let build = || {
            IntermittentSystem::new(
                &program,
                SystemConfig::default(),
                BackupModel::distributed(NvmTechnology::Feram, 2048),
                BackupPolicy::demand(),
            )
            .unwrap()
        };
        let plain = build().run(&trace).unwrap();
        let mut obs = Counter::default();
        let observed = build().run_observed(&trace, &mut obs).unwrap();
        assert_eq!(plain, observed);
        assert_eq!(plain.energy.compute.get().to_bits(), observed.energy.compute.get().to_bits());
    }

    #[test]
    fn drive_is_generic_over_platforms() {
        // The same generic loop drives both platform types.
        fn committed(p: &mut impl Platform, trace: &nvp_energy::PowerTrace) -> u64 {
            drive(trace, p).unwrap().committed
        }
        let program =
            assemble("li r2, 50\nloop: addi r1, r1, 1\nbne r1, r2, loop\nsw r1, 0(r0)\nhalt")
                .unwrap();
        let trace = nvp_energy::PowerTrace::constant(1e-4, 2e-3, 0.2);
        let mut nvp = IntermittentSystem::new(
            &program,
            SystemConfig::default(),
            BackupModel::distributed(NvmTechnology::Feram, 2048),
            BackupPolicy::demand(),
        )
        .unwrap();
        let cost = measure_task(&program, &SystemConfig::default(), 1_000_000).unwrap();
        let wait_cfg = WaitComputeConfig::default().sized_for(&cost, 1.3);
        let mut wait = WaitComputeSystem::new(&program, wait_cfg).unwrap();
        // Both make progress under strong constant power via the one loop.
        assert!(committed(&mut nvp, &trace) > 0);
        assert!(committed(&mut wait, &trace) > 0);
    }
}
