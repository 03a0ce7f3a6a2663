//! Campaign plans: the work an experiment needs, as values.
//!
//! A simulating experiment is two functions. Its `plan(cfg)` returns a
//! [`Plan`]: the labelled entries its table needs. Each entry is a
//! simulation ([`Sim`]: a [`Setup`], a kernel, a trace and, for an F12
//! trial, a [`FaultPlan`], which is exactly what its sim-cache key
//! hashes) or a trace summary. Its `render(cfg, outcomes)` builds the
//! table from those entries' [`Outcomes`], read in plan order, and
//! never calls the simulator. No experiment picks a simulation from an
//! earlier result, so a campaign runs in three steps: it collects the
//! plans of the selected experiments, runs every entry in one flat
//! [`run`], and renders. [`run`] is the only caller of the simulator;
//! the simulation cache dedupes entries that several experiments plan.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use nvp_core::{
    FaultPlan, IntermittentSystem, NullObserver, RunReport, SimEvent, SimObserver,
    WaitComputeSystem,
};
use nvp_energy::harvester::SourceKind;
use nvp_energy::TraceSummary;
use nvp_sim::MachineImage;
use nvp_workloads::KernelInstance;

use crate::common::{run_fault_free, Setup, SimTrace, TraceSpec};
use crate::sched;
use crate::simcache::{self, Digest, Lease, SimOutcome};
use crate::stats::record_lane_group;
use crate::ExpConfig;

/// One simulation: everything its sim-cache key hashes.
#[derive(Clone)]
pub(crate) struct Sim {
    setup: Setup,
    kernel: Arc<KernelInstance>,
    trace: SimTrace,
    /// An F12 trial's fault plan (the disabled plan for its control);
    /// `None` for every other run. A trial is keyed under its own tag
    /// and also reports its recovery latencies.
    faults: Option<FaultPlan>,
}

impl Sim {
    /// The simulation-cache key: `:nvp` or `:wait` for a plain run,
    /// `:f12` with the fault plan for a trial.
    pub(crate) fn key(&self) -> Digest {
        match &self.faults {
            None => self.setup.key(&self.kernel, &self.trace),
            Some(faults) => {
                let mut key =
                    self.setup.key_hasher("nvp-simcache/2:f12", &self.kernel, &self.trace);
                key.field(faults);
                key.finish()
            }
        }
    }

    /// A deterministic estimate of a simulation's run time: its trace's
    /// sample count, times what a sample costs. A platform executes
    /// while its income allows, so a simulation's cost follows its
    /// source's income: indoor solar delivers hundreds of µW, RF bursts
    /// more than the wearable sources' tens. A faulted trial costs a
    /// little more than a fault-free run (it runs the block engine and
    /// logs its events). On the default campaign a solar run takes
    /// about six times a wrist-watch run, an RF run about twice.
    fn estimate(&self) -> u64 {
        let faulted = self.faults.as_ref().is_some_and(FaultPlan::enabled);
        let income = match self.trace.spec().kind() {
            SourceKind::SolarIndoor => 6,
            SourceKind::RfWifi => 2,
            SourceKind::WristWatch | SourceKind::ThermalBody => 1,
        };
        self.trace.spec().sample_count() as u64 * income * if faulted { 5 } else { 4 }
    }

    /// A lease on the outcome, through the simulation cache.
    pub(crate) fn lookup(&self) -> Lease {
        simcache::cached_outcome(self.key(), || self.simulate())
    }

    /// Runs the simulation. A fault-free NVP run is served from the
    /// kernel's block stream when it has one.
    fn simulate(&self) -> SimOutcome {
        let program = self.kernel.program();
        let (sys, backup, policy) = match self.setup {
            Setup::Nvp { sys, backup, policy } => (sys, backup, policy),
            Setup::Wait(wcfg) => {
                let report = WaitComputeSystem::new(program, wcfg)
                    .expect("platform builds")
                    .run(&self.trace)
                    .expect("workload does not fault");
                return SimOutcome { report, latencies_ms: Vec::new() };
            }
        };
        let image = MachineImage::build(program, sys.dmem_words, sys.cycle_model, sys.energy_model);
        let image = Arc::new(image.expect("platform builds"));
        let platform = (sys, backup, policy);
        let Some(faults) = &self.faults else {
            let report = run_fault_free(program, &image, platform, &self.trace, &mut NullObserver);
            return SimOutcome { report, latencies_ms: Vec::new() };
        };
        let mut log = EventLog::default();
        let report = if faults.enabled() {
            IntermittentSystem::with_faults_on_image(&image, sys, backup, policy, faults.clone())
                .run_observed(&self.trace, &mut log)
                .expect("workload does not fault")
        } else {
            run_fault_free(program, &image, platform, &self.trace, &mut log)
        };
        SimOutcome { report, latencies_ms: recovery_latencies_ms(&log.events) }
    }
}

/// Records the full event stream of one trial.
#[derive(Default)]
struct EventLog {
    events: Vec<(f64, SimEvent)>,
}

impl SimObserver for EventLog {
    fn on_event(&mut self, t_s: f64, event: SimEvent) {
        self.events.push((t_s, event));
    }
}

/// Recovery latencies: time from each corrupt restore to the next
/// durable point (successful backup or task commit), in milliseconds.
fn recovery_latencies_ms(events: &[(f64, SimEvent)]) -> Vec<f64> {
    let mut out = Vec::new();
    for (i, &(t0, e)) in events.iter().enumerate() {
        if e != SimEvent::RestoreCorrupt {
            continue;
        }
        let durable = events[i + 1..]
            .iter()
            .find(|&&(_, e2)| e2 == SimEvent::Backup || e2 == SimEvent::TaskCommit);
        if let Some(&(t1, _)) = durable {
            out.push((t1 - t0) * 1e3);
        }
    }
    out
}

/// One planned entry. Nearly every entry is a simulation, so boxing it
/// would only add an allocation per entry.
#[allow(clippy::large_enum_variant)]
enum Work {
    Sim(Sim),
    Summary(SimTrace),
}

impl Work {
    /// The outcome, and a simulation's lease on it. The entry, and with
    /// it its handle on the trace, drops when this returns.
    fn run(self) -> (Outcome, Option<Lease>) {
        match self {
            Work::Sim(sim) => {
                record_lane_group(1);
                let lease = sim.lookup();
                (Outcome::Sim(lease.outcome().clone()), Some(lease))
            }
            Work::Summary(trace) => (Outcome::Summary(trace.summary()), None),
        }
    }
}

/// The order a run claims `works` in. Trace summaries come first, in
/// plan order (four renders read them). Simulations follow grouped by
/// trace spec, the group with the longest [`Sim::estimate`] first and
/// each group longest first, plan order among equals. A trace's
/// simulations are then claimed back to back, so its samples are freed
/// soon after they are generated, while the longest runs still start
/// early.
fn claim_order(works: &[Work]) -> Vec<usize> {
    let mut groups: BTreeMap<TraceSpec, (u64, usize)> = BTreeMap::new();
    for (i, work) in works.iter().enumerate() {
        if let Work::Sim(sim) = work {
            let group = groups.entry(sim.trace.spec()).or_insert((0, i));
            group.0 = group.0.max(sim.estimate());
        }
    }
    let mut order: Vec<usize> = (0..works.len()).collect();
    order.sort_by_cached_key(|&i| match &works[i] {
        Work::Summary(_) => None,
        Work::Sim(sim) => {
            let (longest, first) = groups[&sim.trace.spec()];
            Some((Reverse(longest), first, Reverse(sim.estimate())))
        }
    });
    order
}

/// What one entry produced.
#[allow(clippy::large_enum_variant)]
enum Outcome {
    Sim(SimOutcome),
    Summary(Arc<TraceSummary>),
}

/// The labelled work one experiment needs, in the order its `render`
/// reads the outcomes.
#[derive(Default)]
pub struct Plan {
    entries: Vec<(String, Work)>,
}

impl Plan {
    /// Adds a plain run of `setup` on `kernel` over `trace`.
    pub(crate) fn sim(
        &mut self,
        label: &str,
        setup: Setup,
        kernel: &Arc<KernelInstance>,
        trace: &SimTrace,
    ) {
        self.push(
            label,
            Sim { setup, kernel: Arc::clone(kernel), trace: trace.clone(), faults: None },
        );
    }

    /// Adds an F12 trial: `setup` under `faults`, keyed apart from a
    /// plain run and reporting its recovery latencies.
    pub(crate) fn trial(
        &mut self,
        label: &str,
        setup: Setup,
        kernel: &Arc<KernelInstance>,
        trace: &SimTrace,
        faults: FaultPlan,
    ) {
        let faults = Some(faults);
        self.push(label, Sim { setup, kernel: Arc::clone(kernel), trace: trace.clone(), faults });
    }

    fn push(&mut self, label: &str, sim: Sim) {
        self.entries.push((on_trace(label, &sim.trace), Work::Sim(sim)));
    }

    /// Adds `trace`'s summary.
    pub(crate) fn summary(&mut self, trace: &SimTrace) {
        self.entries.push((on_trace("summary", trace), Work::Summary(trace.clone())));
    }

    /// Entries planned: simulations and summaries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The planned simulations, labelled, in plan order.
    pub(crate) fn sims(&self) -> impl Iterator<Item = (&str, &Sim)> {
        self.entries.iter().filter_map(|(label, work)| match work {
            Work::Sim(sim) => Some((label.as_str(), sim)),
            Work::Summary(_) => None,
        })
    }

    /// The number of planned simulations: each is one sim-cache lookup
    /// when the plan runs.
    #[must_use]
    pub fn simulations(&self) -> usize {
        self.sims().count()
    }

    /// Each planned simulation's platform, labelled, in plan order: what
    /// `repro --check` judges.
    pub(crate) fn setups(&self) -> impl Iterator<Item = (&str, &Setup)> {
        self.sims().map(|(label, sim)| (label, &sim.setup))
    }
}

/// An entry's label: what it runs, and over which trace.
fn on_trace(label: &str, trace: &SimTrace) -> String {
    let spec = trace.spec();
    format!("{label} on {} trace {}", spec.kind().name(), spec.seed())
}

/// A plan's outcomes, read by `render` in plan order.
pub struct Outcomes(std::vec::IntoIter<Outcome>);

impl Outcomes {
    /// The next simulation's outcome.
    pub(crate) fn outcome(&mut self) -> SimOutcome {
        match self.0.next() {
            Some(Outcome::Sim(outcome)) => outcome,
            _ => panic!("render reads a simulation its plan does not list next"),
        }
    }

    /// The next simulation's report.
    pub(crate) fn report(&mut self) -> RunReport {
        self.outcome().report
    }

    /// The next trace summary.
    pub(crate) fn summary(&mut self) -> Arc<TraceSummary> {
        match self.0.next() {
            Some(Outcome::Summary(summary)) => summary,
            _ => panic!("render reads a summary its plan does not list next"),
        }
    }
}

/// Runs every entry of `plans` in one flat scheduler map and renders
/// each plan from its outcomes with `render`, returning the renders in
/// plan order. A plan renders as soon as its last entry is done, on the
/// worker that finished it, so one experiment's render overlaps the
/// rest of the campaign. Entries are claimed in [`claim_order`], and
/// each counts one lane group if it is a simulation. The run owns the
/// plans: a task drops its entry as soon as the entry has run, so a
/// trace's samples live only while a simulation on it is still to run,
/// and a job holds about one trace per worker however many it names.
/// The run holds each simulation's [`Lease`] until every entry is done,
/// so a key several plans list is looked up once and then hit in
/// memory.
pub(crate) fn run<T: Send>(
    plans: Vec<Plan>,
    render: impl Fn(usize, &mut Outcomes) -> T + Sync,
) -> Vec<T> {
    let lens: Vec<usize> = plans.iter().map(Plan::len).collect();
    let (owner, works): (Vec<usize>, Vec<Work>) = plans
        .into_iter()
        .enumerate()
        .flat_map(|(p, plan)| plan.entries.into_iter().map(move |(_, work)| (p, work)))
        .unzip();
    let order = claim_order(&works);
    let works: Vec<Mutex<Option<Work>>> = works.into_iter().map(|w| Mutex::new(Some(w))).collect();
    let outcomes: Vec<Mutex<Option<Outcome>>> = works.iter().map(|_| Mutex::default()).collect();
    let pending: Vec<AtomicUsize> = lens.iter().map(|&len| AtomicUsize::new(len)).collect();
    let render_plan = |p: usize| {
        let first: usize = lens[..p].iter().sum();
        let mut out = Outcomes(
            outcomes[first..first + lens[p]]
                .iter()
                .map(|slot| lock(slot).take().expect("every entry ran"))
                .collect::<Vec<_>>()
                .into_iter(),
        );
        (p, render(p, &mut out))
    };
    let ran = sched::par_map(&order, |&i| {
        let work = lock(&works[i]).take().expect("every entry is claimed once");
        let (outcome, lease) = work.run();
        *lock(&outcomes[i]) = Some(outcome);
        let p = owner[i];
        (lease, (pending[p].fetch_sub(1, Ordering::AcqRel) == 1).then(|| render_plan(p)))
    });
    let empty = (0..lens.len()).filter(|&p| lens[p] == 0).map(render_plan);
    let ran = ran.into_iter().filter_map(|(_, rendered)| rendered);
    let mut rendered: Vec<(usize, T)> = ran.chain(empty).collect();
    rendered.sort_by_key(|&(p, _)| p);
    rendered.into_iter().map(|(_, table)| table).collect()
}

fn lock<T>(slot: &Mutex<T>) -> MutexGuard<'_, T> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs one experiment's plan on its own and renders it: the path of
/// each module's `rows` and of [`crate::Experiment::build`].
pub(crate) fn build<T: Send>(
    cfg: &ExpConfig,
    plan: Plan,
    render: impl Fn(&ExpConfig, &mut Outcomes) -> T + Sync,
) -> T {
    run(vec![plan], |_, out| render(cfg, out)).pop().expect("one plan, one render")
}
