//! The idle fast path is invisible: a platform run with its
//! `Platform::idle` stretches gives the same `RunReport` bits and the
//! same observer event stream as the same platform forced through the
//! generic tick on every sample.
//!
//! `Generic` wraps a platform and keeps the trait's default `idle`,
//! which consumes nothing, so `drive_observed` ticks it sample by
//! sample. The real platform is driven through `Counted`, which
//! delegates `idle` and counts what it consumed, so each case also
//! shows the fast path ran.

use nvp::energy::{EnergyFrontEnd, TickIncome};
use nvp::platform::{drive_observed, Platform, SimEvent, SimObserver};
use nvp::prelude::*;

/// Forwards everything but `idle`, so every sample takes the generic
/// tick.
struct Generic(Box<dyn Platform>);

impl Platform for Generic {
    fn front_end(&self) -> &EnergyFrontEnd {
        self.0.front_end()
    }

    fn front_end_mut(&mut self) -> &mut EnergyFrontEnd {
        self.0.front_end_mut()
    }

    fn tick(
        &mut self,
        income: TickIncome,
        dt_s: f64,
        obs: &mut dyn SimObserver,
    ) -> Result<(), SimError> {
        self.0.tick(income, dt_s, obs)
    }

    fn report_mut(&mut self) -> &mut RunReport {
        self.0.report_mut()
    }

    fn uncommitted(&self) -> u64 {
        self.0.uncommitted()
    }
}

/// Forwards everything, `idle` included, recording each stretch it
/// consumed as `(from, samples)`.
struct Counted {
    inner: Box<dyn Platform>,
    stretches: Vec<(usize, usize)>,
}

impl Counted {
    fn new(inner: Box<dyn Platform>) -> Self {
        Counted { inner, stretches: Vec::new() }
    }

    fn idled(&self) -> usize {
        self.stretches.iter().map(|&(_, n)| n).sum()
    }
}

impl Platform for Counted {
    fn front_end(&self) -> &EnergyFrontEnd {
        self.inner.front_end()
    }

    fn front_end_mut(&mut self) -> &mut EnergyFrontEnd {
        self.inner.front_end_mut()
    }

    fn tick(
        &mut self,
        income: TickIncome,
        dt_s: f64,
        obs: &mut dyn SimObserver,
    ) -> Result<(), SimError> {
        self.inner.tick(income, dt_s, obs)
    }

    fn report_mut(&mut self) -> &mut RunReport {
        self.inner.report_mut()
    }

    fn uncommitted(&self) -> u64 {
        self.inner.uncommitted()
    }

    fn idle(&mut self, trace: &PowerTrace, from: usize) -> usize {
        let consumed = self.inner.idle(trace, from);
        if consumed > 0 {
            self.stretches.push((from, consumed));
        }
        consumed
    }
}

/// Every event with the bits of its time.
#[derive(Default, PartialEq, Debug)]
struct Log(Vec<(u64, SimEvent)>);

impl SimObserver for Log {
    fn on_event(&mut self, t_s: f64, event: SimEvent) {
        self.0.push((t_s.to_bits(), event));
    }
}

/// Every field of a report, floats as their bits.
fn report_bits(r: &RunReport) -> Vec<u64> {
    let RunReport {
        duration_s,
        on_time_s,
        committed,
        executed,
        lost,
        uncommitted_at_end,
        backups,
        restores,
        rollbacks,
        tasks_completed,
        backups_torn,
        backup_retries,
        restores_corrupt,
        safe_mode_entries,
        committed_lost,
        energy: e,
    } = *r;
    let mut bits = vec![duration_s.to_bits(), on_time_s.to_bits()];
    bits.extend([
        committed,
        executed,
        lost,
        uncommitted_at_end,
        backups,
        restores,
        rollbacks,
        tasks_completed,
        backups_torn,
        backup_retries,
        restores_corrupt,
        safe_mode_entries,
        committed_lost,
    ]);
    bits.extend(
        [
            e.harvested,
            e.converted,
            e.compute,
            e.backup,
            e.restore,
            e.sleep,
            e.regulator,
            e.stored_at_end,
            e.storage_wasted,
        ]
        .map(|j| j.get().to_bits()),
    );
    bits
}

/// Drives `platform` over each window in turn, returning the report
/// bits after each window and the events of all of them.
fn drive_windows(platform: &mut dyn Platform, windows: &[PowerTrace]) -> (Vec<Vec<u64>>, Log) {
    let mut log = Log::default();
    let reports = windows
        .iter()
        .map(|w| report_bits(&drive_observed(w, platform, &mut log).unwrap()))
        .collect();
    (reports, log)
}

fn counter() -> Program {
    assemble("start: addi r1, r1, 1\n sw r1, 0(r0)\n j start").unwrap()
}

fn frame() -> Program {
    assemble("li r2, 800\nloop: addi r1, r1, 1\nbne r1, r2, loop\nsw r1, 0(r0)\nhalt").unwrap()
}

fn feram() -> BackupModel {
    BackupModel::distributed(NvmTechnology::Feram, 2048)
}

type Build = fn() -> Box<dyn Platform>;

/// The platform configurations, each with its own idle phases.
fn platforms() -> Vec<(&'static str, Build)> {
    vec![
        ("demand NVP", || {
            let sys = IntermittentSystem::new(
                &counter(),
                SystemConfig::default(),
                feram(),
                BackupPolicy::demand(),
            );
            Box::new(sys.unwrap())
        }),
        ("periodic NVP", || {
            let policy = BackupPolicy::Periodic { interval_s: 2e-3 };
            let sys = IntermittentSystem::new(&counter(), SystemConfig::default(), feram(), policy);
            Box::new(sys.unwrap())
        }),
        ("NVP done after one frame", || {
            let config = SystemConfig { restart_on_halt: false, ..SystemConfig::default() };
            let sys = IntermittentSystem::new(&frame(), config, feram(), BackupPolicy::demand());
            Box::new(sys.unwrap())
        }),
        ("adaptive-clock NVP", || {
            let config = SystemConfig::default().with_clock_policy(ClockPolicy::adaptive());
            let sys = IntermittentSystem::new(&counter(), config, feram(), BackupPolicy::demand());
            Box::new(sys.unwrap())
        }),
        ("faulted NVP", || {
            // Short retentions, so decay odds follow the off time.
            let retention =
                RetentionShaper::new(RelaxPolicy::Linear, 16, 1e-3, 1.0).bit_retention();
            let plan = FaultPlan::with_rates(11, 0.2, 0.3).with_retention(retention);
            let sys = IntermittentSystem::with_faults(
                &counter(),
                SystemConfig::default(),
                feram(),
                BackupPolicy::demand(),
                plan,
            );
            Box::new(sys.unwrap())
        }),
        ("wait-compute", || {
            // The default front end trickles weak input and clips
            // strong input.
            let program = frame();
            let cost = measure_task(&program, &SystemConfig::default(), 1_000_000).unwrap();
            let config = WaitComputeConfig::default().sized_for(&cost, 1.3);
            Box::new(WaitComputeSystem::new(&program, config).unwrap())
        }),
    ]
}

/// The traces, each with a point to split it into two windows at; the
/// segments trace splits inside a silence the platforms sit off
/// through.
fn traces() -> Vec<(&'static str, PowerTrace, f64)> {
    vec![
        ("wrist-watch", harvester::wrist_watch(5, 2.0), 1.0),
        ("solar", harvester::solar_indoor(5, 2.0), 1.0),
        (
            "segments",
            PowerTrace::from_segments(
                1e-4,
                &[
                    (0.0, 0.1),
                    (300e-6, 0.3),
                    (0.0, 0.4),
                    (2e-3, 0.05),
                    (40e-6, 0.3),
                    (0.0, 0.3),
                    (120e-6, 0.5),
                ],
            ),
            // Mid-way through the 0.4 s silence after 0.4 s of income.
            0.6,
        ),
        ("strong constant", PowerTrace::constant(1e-4, 2e-3, 0.5), 0.25),
    ]
}

fn split(trace: &PowerTrace, at_s: f64) -> Vec<PowerTrace> {
    let k = (at_s / trace.dt_s()).round() as usize;
    let (a, b) = trace.samples().split_at(k);
    vec![
        PowerTrace::from_samples(trace.dt_s(), a.to_vec()),
        PowerTrace::from_samples(trace.dt_s(), b.to_vec()),
    ]
}

#[test]
fn idle_stretches_match_generic_ticks_bit_for_bit() {
    let mut idled_somewhere = 0;
    for (platform, build) in platforms() {
        let mut idled = 0;
        for (source, trace, at_s) in traces() {
            let whole = vec![trace.clone()];
            let halves = split(&trace, at_s);
            let (generic, generic_log) = drive_windows(&mut Generic(build()), &whole);
            for windows in [&whole, &halves] {
                let mut real = Counted::new(build());
                let (reports, log) = drive_windows(&mut real, windows);
                let label = format!("{platform} on {source} in {} window(s)", windows.len());
                assert_eq!(reports.last(), generic.last(), "{label}: reports differ");
                assert_eq!(log, generic_log, "{label}: event streams differ");
                idled += real.idled();
            }
            // Splitting the generic run changes nothing either.
            let (generic_halves, generic_halves_log) =
                drive_windows(&mut Generic(build()), &halves);
            assert_eq!(generic_halves.last(), generic.last(), "{platform} on {source}: split");
            assert_eq!(generic_halves_log, generic_log);
        }
        assert!(idled > 0, "{platform}: no sample took the idle path");
        idled_somewhere += idled;
    }
    assert!(idled_somewhere > 100_000, "only {idled_somewhere} samples idled");
}

/// The split point of the segments trace sits in an off stretch: the
/// demand NVP's second window opens with an idle stretch, the rest of
/// the silence carried over from the first window.
#[test]
fn the_segments_split_falls_in_an_off_stretch() {
    let (_, build) = platforms()[0];
    let (_, trace, at_s) = traces().swap_remove(2);
    let halves = split(&trace, at_s);
    let mut real = Counted::new(build());
    drive_observed(&halves[0], &mut real, &mut Log::default()).unwrap();
    let last_of_first = *real.stretches.last().unwrap();
    assert_eq!(last_of_first.0 + last_of_first.1, halves[0].len(), "first window ends idle");
    real.stretches.clear();
    drive_observed(&halves[1], &mut real, &mut Log::default()).unwrap();
    // The silence has 0.2 s (2000 samples) left.
    assert!(matches!(real.stretches.first(), Some(&(0, n)) if n >= 1999), "{:?}", real.stretches);
}
