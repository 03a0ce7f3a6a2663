//! The conventional "wait-then-compute" baseline platform.
//!
//! A volatile MCU behind a large energy-storage device (ESD): the system
//! charges until the ESD holds enough energy for a *complete* work unit,
//! then executes it in one shot. Strong completion guarantees, but the
//! classic drawbacks the NVP literature documents: double conversion
//! losses through the big capacitor, capacitor leakage during the long
//! charge, and total loss of progress if the estimate was wrong or the
//! outage outlasts the stored charge.

use nvp_energy::units::{Farads, Joules, Seconds, Volts, Watts};
use nvp_energy::{EnergyFrontEnd, FrontEndConfig, PowerTrace, Rectifier, TickIncome};
use nvp_isa::Program;
use nvp_sim::{CycleModel, EnergyModel, Machine, MachineImage, SimError, DEFAULT_DMEM_WORDS};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

use crate::platform::{drive, drive_observed, idle_stretch, Platform, SimEvent, SimObserver};
use crate::{RunReport, TaskCost};

/// Configuration for the wait-then-compute platform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WaitComputeConfig {
    /// Core clock, Hz.
    pub clock_hz: f64,
    /// ESD capacitance, farads (supercapacitor scale).
    pub capacitance_f: f64,
    /// ESD rated voltage, volts.
    pub cap_voltage_v: f64,
    /// ESD self-discharge time constant, seconds (supercaps leak far
    /// faster than on-chip capacitors relative to their charge times).
    pub cap_leak_tau_s: f64,
    /// Front-end conversion model.
    pub rectifier: Rectifier,
    /// Standby draw of the voltage supervisor while charging, watts.
    pub sleep_power_w: f64,
    /// Stored energy required before execution begins, joules.
    pub start_energy_j: f64,
    /// Efficiency of regulating energy *out* of the ESD to the load —
    /// the second half of the double-conversion tax NVPs avoid.
    pub discharge_efficiency: f64,
    /// Converted input power below which the ESD charges poorly
    /// (supercapacitor minimum-charging-current effect, e.g. ~20 µA for
    /// the GZ115), watts.
    pub min_charge_power_w: f64,
    /// Fraction of sub-minimum trickle power actually banked.
    pub trickle_efficiency: f64,
    /// Charger input power limit, watts: harvested spikes above this
    /// clip when banking into the ESD (BQ25504-class chargers limit
    /// input current to ~100 µA). The NVP's small ceramic buffer sits
    /// directly at the rectifier output and has no such limit.
    pub max_charge_power_w: f64,
    /// Installed data memory, 16-bit words (volatile SRAM).
    pub dmem_words: usize,
    /// Per-instruction cycle model.
    pub cycle_model: CycleModel,
    /// Per-instruction energy model.
    pub energy_model: EnergyModel,
}

impl Default for WaitComputeConfig {
    fn default() -> Self {
        WaitComputeConfig {
            clock_hz: 1e6,
            capacitance_f: 100e-6,
            cap_voltage_v: 3.3,
            // 100 µF leaking ~2 µA at 3.3 V → τ ≈ 200 s.
            cap_leak_tau_s: 200.0,
            rectifier: Rectifier::default(),
            sleep_power_w: 300e-9,
            start_energy_j: 100e-6,
            discharge_efficiency: 0.75,
            min_charge_power_w: 50e-6,
            trickle_efficiency: 0.15,
            max_charge_power_w: 150e-6,
            dmem_words: DEFAULT_DMEM_WORDS,
            cycle_model: CycleModel::default(),
            energy_model: EnergyModel::default(),
        }
    }
}

impl WaitComputeConfig {
    /// Sizes the start threshold (and, if needed, the ESD) for a measured
    /// task cost with a safety `margin` (e.g. 1.3 = 30 % headroom).
    ///
    /// # Example
    ///
    /// ```
    /// use nvp_core::{measure_task, SystemConfig, WaitComputeConfig};
    /// use nvp_isa::asm::assemble;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let p = assemble("li r2, 100\nx: addi r1, r1, 1\nbne r1, r2, x\nhalt")?;
    /// let cost = measure_task(&p, &SystemConfig::default(), 1_000_000)?;
    /// let cfg = WaitComputeConfig::default().sized_for(&cost, 1.3);
    /// assert!(cfg.start_energy_j >= cost.energy_j * 1.3);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn sized_for(mut self, task: &TaskCost, margin: f64) -> Self {
        self.start_energy_j = task.energy_j * margin / self.discharge_efficiency;
        let needed_capacity = self.start_energy_j * 1.25;
        let capacity = 0.5 * self.capacitance_f * self.cap_voltage_v * self.cap_voltage_v;
        if capacity < needed_capacity {
            self.capacitance_f = 2.0 * needed_capacity / (self.cap_voltage_v * self.cap_voltage_v);
        }
        self
    }

    /// The energy front end of a platform built from this configuration:
    /// a supercapacitor ESD behind a charger IC, whose trickle and clip
    /// quirks are front-end *options*, not a forked income loop.
    #[must_use]
    pub fn front_end(&self) -> FrontEndConfig {
        FrontEndConfig {
            rectifier: self.rectifier,
            capacitance: Farads::new(self.capacitance_f),
            cap_voltage: Volts::new(self.cap_voltage_v),
            cap_leak_tau: Seconds::new(self.cap_leak_tau_s),
            min_charge_power: Watts::new(self.min_charge_power_w),
            trickle_efficiency: self.trickle_efficiency,
            max_charge_power: Watts::new(self.max_charge_power_w),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum WaitPhase {
    Charging,
    Running,
}

/// The wait-then-compute platform simulator.
///
/// Forward progress commits only when a task completes: a brown-out
/// mid-task loses the volatile SRAM and every instruction since the task
/// began.
#[derive(Debug, Clone)]
pub struct WaitComputeSystem {
    config: WaitComputeConfig,
    /// Decoded program and block plans, shared by every reload.
    image: Arc<MachineImage>,
    machine: Machine,
    fe: EnergyFrontEnd,
    phase: WaitPhase,
    task_progress: u64,
    time_debt_s: f64,
    report: RunReport,
}

impl WaitComputeSystem {
    /// Creates the platform around a program.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the program image fails to load.
    pub fn new(program: &Program, config: WaitComputeConfig) -> Result<Self, SimError> {
        let image = Arc::new(MachineImage::build(
            program,
            config.dmem_words,
            config.cycle_model,
            config.energy_model,
        )?);
        let fe = EnergyFrontEnd::new(config.front_end());
        Ok(WaitComputeSystem {
            config,
            machine: Machine::from_image(&image),
            image,
            fe,
            phase: WaitPhase::Charging,
            task_progress: 0,
            time_debt_s: 0.0,
            report: RunReport::default(),
        })
    }

    /// Simulates over a trace, accumulating into the report. This is
    /// the shared engine loop: see [`drive`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] only for genuine workload faults.
    pub fn run(&mut self, trace: &PowerTrace) -> Result<RunReport, SimError> {
        drive(trace, self)
    }

    /// [`run`](Self::run) with a [`SimObserver`] receiving platform
    /// events (power-on, rollback, brown-out, task commit).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] only for genuine workload faults.
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
                WaitPhase::Charging => {
                    if self.fe.storage().energy() >= Joules::new(self.config.start_energy_j) {
                        obs.on_event(self.report.duration_s, SimEvent::PowerOn);
                        self.phase = WaitPhase::Running;
                    } else {
                        let draw = Watts::new(self.config.sleep_power_w) * Seconds::new(budget);
                        self.report.energy.sleep += self.fe.storage_mut().draw_up_to(draw);
                        budget = 0.0;
                    }
                }
                WaitPhase::Running => {
                    budget = self.run_task(budget, obs)?;
                }
            }
        }
        if budget < 0.0 {
            self.time_debt_s = -budget;
        }
        Ok(())
    }

    fn run_task(&mut self, mut budget: f64, obs: &mut dyn SimObserver) -> Result<f64, SimError> {
        while budget > 1e-12 {
            if self.machine.halted() {
                // Task done: commit, reload for the next frame.
                self.report.tasks_completed += 1;
                self.report.committed += self.task_progress;
                self.task_progress = 0;
                obs.on_event(self.report.duration_s, SimEvent::TaskCommit);
                self.reload();
                if self.fe.storage().energy() < Joules::new(self.config.start_energy_j) {
                    self.phase = WaitPhase::Charging;
                    return Ok(budget);
                }
                continue;
            }
            let step = self.machine.step()?;
            let t = f64::from(step.cycles) / self.config.clock_hz;
            budget -= t;
            self.report.on_time_s += t;
            self.report.executed += 1;
            self.task_progress += 1;
            self.report.energy.compute += Joules::new(step.energy_j);
            // The load is fed through a regulator: the ESD gives up more
            // than the core consumes.
            let drawn = Joules::new(step.energy_j) / self.config.discharge_efficiency;
            self.report.energy.regulator += drawn - Joules::new(step.energy_j);
            if !self.fe.storage_mut().draw(drawn) {
                // Mid-task brown-out: the whole attempt is lost.
                self.fe.storage_mut().deplete();
                self.report.rollbacks += 1;
                self.report.lost += self.task_progress;
                self.task_progress = 0;
                obs.on_event(self.report.duration_s, SimEvent::BrownOut);
                obs.on_event(self.report.duration_s, SimEvent::Rollback);
                self.reload();
                self.phase = WaitPhase::Charging;
                return Ok(budget);
            }
        }
        Ok(budget)
    }

    /// Reinitializes the volatile machine (registers, PC, SRAM).
    fn reload(&mut self) {
        self.machine = Machine::from_image(&self.image);
    }
}

impl Platform for WaitComputeSystem {
    fn front_end(&self) -> &EnergyFrontEnd {
        &self.fe
    }

    fn front_end_mut(&mut self) -> &mut EnergyFrontEnd {
        &mut self.fe
    }

    fn tick(
        &mut self,
        _income: TickIncome,
        dt_s: f64,
        obs: &mut dyn SimObserver,
    ) -> Result<(), SimError> {
        self.advance(dt_s, obs)
    }

    fn report_mut(&mut self) -> &mut RunReport {
        &mut self.report
    }

    fn uncommitted(&self) -> u64 {
        self.task_progress
    }

    /// Charging below the start energy: the tick only banks and sleeps.
    fn idle(&mut self, trace: &PowerTrace, from: usize) -> usize {
        if self.phase != WaitPhase::Charging {
            return 0;
        }
        idle_stretch(
            trace,
            from,
            &mut self.fe,
            &mut self.report,
            self.time_debt_s,
            self.config.sleep_power_w,
            Joules::new(self.config.start_energy_j),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{measure_task, SystemConfig};
    use nvp_energy::harvester;
    use nvp_isa::asm::assemble;

    fn frame_program() -> Program {
        // A "frame": 2000 loop iterations, then halt.
        assemble("li r2, 2000\nloop: addi r1, r1, 1\nbne r1, r2, loop\nsw r1, 0(r0)\nhalt").unwrap()
    }

    fn sized_config(program: &Program) -> WaitComputeConfig {
        let cost = measure_task(program, &SystemConfig::default(), 10_000_000).unwrap();
        WaitComputeConfig::default().sized_for(&cost, 1.3)
    }

    #[test]
    fn completes_tasks_under_strong_power() {
        let program = frame_program();
        let mut sys = WaitComputeSystem::new(&program, sized_config(&program)).unwrap();
        let r = sys.run(&PowerTrace::constant(1e-4, 2e-3, 2.0)).unwrap();
        assert!(r.tasks_completed > 10, "{}", r.tasks_completed);
        assert_eq!(r.rollbacks, 0);
        assert_eq!(r.committed, r.tasks_completed * 4003);
    }

    #[test]
    fn weak_power_spends_most_time_charging() {
        let program = frame_program();
        let mut sys = WaitComputeSystem::new(&program, sized_config(&program)).unwrap();
        let r = sys.run(&harvester::wrist_watch(1, 10.0)).unwrap();
        assert!(r.on_fraction() < 0.3, "{}", r.on_fraction());
    }

    #[test]
    fn commits_only_whole_tasks() {
        let program = frame_program();
        let mut sys = WaitComputeSystem::new(&program, sized_config(&program)).unwrap();
        let r = sys.run(&harvester::wrist_watch(2, 10.0)).unwrap();
        assert_eq!(r.committed % 4003, 0, "partial tasks must not commit");
        assert_eq!(r.backups, 0);
        assert_eq!(r.restores, 0);
    }

    #[test]
    fn undersized_threshold_causes_lost_work() {
        let program = frame_program();
        let mut cfg = sized_config(&program);
        cfg.start_energy_j *= 0.3; // bad estimate: start far too early
        let mut sys = WaitComputeSystem::new(&program, cfg).unwrap();
        // Short feeble bursts: it starts, then browns out mid-task.
        let trace = PowerTrace::from_segments(
            1e-4,
            &[(60e-6, 2.0), (0.0, 1.0), (60e-6, 2.0), (0.0, 1.0), (60e-6, 2.0)],
        );
        let r = sys.run(&trace).unwrap();
        assert!(r.rollbacks > 0, "expected mid-task brown-outs");
        assert!(r.lost > 0);
    }

    #[test]
    fn deterministic() {
        let program = frame_program();
        let trace = harvester::wrist_watch(3, 3.0);
        let mut a = WaitComputeSystem::new(&program, sized_config(&program)).unwrap();
        let mut b = WaitComputeSystem::new(&program, sized_config(&program)).unwrap();
        assert_eq!(a.run(&trace).unwrap(), b.run(&trace).unwrap());
    }
}
