//! Randomized property tests for the energy-environment models,
//! deterministically seeded so every failure is reproducible.

use nvp_energy::units::{Joules, Seconds};
use nvp_energy::{Capacitor, OutageStats, PowerTrace, Rectifier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn any_trace(rng: &mut StdRng) -> PowerTrace {
    let n = 1 + rng.random::<u32>() as usize % 400;
    let samples: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 2e-3).collect();
    PowerTrace::from_samples(1e-4, samples)
}

/// Operations a capacitor can undergo.
#[derive(Debug, Clone, Copy)]
enum CapOp {
    Charge(f64),
    Draw(f64),
    Leak(f64),
}

fn any_cap_ops(rng: &mut StdRng) -> Vec<CapOp> {
    let n = 1 + rng.random::<u32>() as usize % 60;
    (0..n)
        .map(|_| match rng.random::<u32>() % 3 {
            0 => CapOp::Charge(rng.random::<f64>() * 1e-5),
            1 => CapOp::Draw(rng.random::<f64>() * 1e-5),
            _ => CapOp::Leak(rng.random::<f64>() * 10.0),
        })
        .collect()
}

/// Stored energy stays within `[0, capacity]` and the bookkeeping
/// identity `charged_in == stored + drawn + wasted` holds for any
/// operation sequence.
#[test]
fn capacitor_conservation() {
    let mut rng = StdRng::seed_from_u64(0xe9e_001);
    for _ in 0..200 {
        let ops = any_cap_ops(&mut rng);
        let mut cap = Capacitor::new(2.2e-6, 3.3, 100.0);
        let capacity = cap.max_energy().get();
        let mut charged = 0.0;
        let mut drawn = 0.0;
        for op in ops {
            match op {
                CapOp::Charge(j) => {
                    charged += j;
                    cap.charge(Joules::new(j));
                }
                CapOp::Draw(j) => {
                    if cap.draw_j(j) {
                        drawn += j;
                    }
                }
                CapOp::Leak(dt) => cap.leak(Seconds::new(dt)),
            }
            assert!(cap.energy_j() >= 0.0);
            assert!(cap.energy_j() <= capacity * (1.0 + 1e-12));
            assert!((0.0..=1.0 + 1e-12).contains(&cap.fill_fraction()));
        }
        let balance = cap.energy_j() + drawn + cap.wasted().get();
        assert!(
            (balance - charged).abs() <= charged.max(1e-12) * 1e-9,
            "in {charged} vs out {balance}"
        );
    }
}

/// Rectifier output power is monotone in input power and never exceeds
/// the input.
#[test]
fn rectifier_sane() {
    let mut rng = StdRng::seed_from_u64(0xe9e_002);
    for _ in 0..2000 {
        let a = rng.random::<f64>() * 5e-3;
        let b = rng.random::<f64>() * 5e-3;
        let r = Rectifier::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(r.output_w(lo) <= r.output_w(hi) + 1e-18);
        assert!(r.output_w(hi) <= hi);
        assert!((0.0..=1.0).contains(&r.efficiency(hi)));
    }
}

/// Outage accounting: time above + time in outages equals the trace
/// duration, and emergencies never exceed outage count.
#[test]
fn outage_accounting() {
    let mut rng = StdRng::seed_from_u64(0xe9e_003);
    for _ in 0..200 {
        let trace = any_trace(&mut rng);
        let threshold = 1e-6 + rng.random::<f64>() * (1e-3 - 1e-6);
        let s = OutageStats::analyze(&trace, threshold);
        let outage_time: f64 = s.outage_durations_s.iter().sum();
        let above_time = s.above_threshold_fraction * trace.duration_s();
        assert!((outage_time + above_time - trace.duration_s()).abs() < 1e-9);
        assert!(s.emergency_count as usize <= s.outage_durations_s.len());
        assert!(s.longest_outage_s <= trace.duration_s() + 1e-12);
        assert!(s.histogram(8).total() == s.outage_durations_s.len() as u64);
    }
}

/// Scaling a trace scales its energy linearly.
#[test]
fn scaling_is_linear_in_energy() {
    let mut rng = StdRng::seed_from_u64(0xe9e_005);
    for _ in 0..100 {
        let a = any_trace(&mut rng);
        let k = rng.random::<f64>() * 4.0;
        let scaled = a.scaled(k);
        assert!((scaled.total_energy_j() - a.total_energy_j() * k).abs() < 1e-9);
    }
}
