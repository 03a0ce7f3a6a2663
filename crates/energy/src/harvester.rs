//! Seeded synthetic harvester-trace generators.
//!
//! The published NVP studies evaluate against measured traces from four
//! ambient source classes; those waveforms are not redistributable, so
//! this module synthesizes traces whose *statistics* match the published
//! envelopes (the substitution is documented in `DESIGN.md`):
//!
//! | Source | Character | Published envelope reproduced |
//! |--------|-----------|-------------------------------|
//! | [`wrist_watch`] | unbalanced-ring rotational harvester | 10–40 µW average, spikes to ≈2000 µW, 1000–2000 emergencies / 10 s at 33 µW |
//! | [`solar_indoor`] | indoor photovoltaic | hundreds of µW with second-scale shadow outages |
//! | [`rf_wifi`] | RF/WiFi scavenging | ms-scale packet bursts, very frequent short outages |
//! | [`thermal_body`] | body-heat TEG | tens of µW, slow drift, long sub-threshold epochs |
//!
//! All generators are deterministic functions of `(seed, duration)`.

use std::io;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::trace::CsvWriter;
use crate::{PowerTrace, TraceSummary, DEFAULT_DT_S};

/// The ambient energy-source classes evaluated by the framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SourceKind {
    /// Wrist-worn rotational (piezo/electromagnetic) harvester.
    WristWatch,
    /// Indoor photovoltaic cell.
    SolarIndoor,
    /// RF / WiFi energy scavenging.
    RfWifi,
    /// Body-heat thermoelectric generator.
    ThermalBody,
}

impl SourceKind {
    /// All source kinds in reporting order.
    pub const ALL: [SourceKind; 4] = [
        SourceKind::WristWatch,
        SourceKind::SolarIndoor,
        SourceKind::RfWifi,
        SourceKind::ThermalBody,
    ];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SourceKind::WristWatch => "wrist-watch",
            SourceKind::SolarIndoor => "solar-indoor",
            SourceKind::RfWifi => "rf-wifi",
            SourceKind::ThermalBody => "thermal-body",
        }
    }

    /// The source kind named `name` (as [`name`](Self::name) spells
    /// it), if any.
    #[must_use]
    pub fn from_name(name: &str) -> Option<SourceKind> {
        SourceKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Generates a trace of this source class: the samples its
    /// generator streams, collected.
    #[must_use]
    pub fn generate(self, seed: u64, duration_s: f64) -> PowerTrace {
        let mut samples = Vec::with_capacity(sample_count(duration_s));
        self.stream(seed, duration_s, |p| samples.push(p));
        PowerTrace::from_samples(DEFAULT_DT_S, samples)
    }

    /// Emits the samples of [`generate`](Self::generate)'s trace to
    /// `sink`, in order, one [`DEFAULT_DT_S`] period each, without
    /// holding them: the one generator body behind every consumer.
    pub(crate) fn stream(self, seed: u64, duration_s: f64, sink: impl FnMut(f64)) {
        match self {
            SourceKind::WristWatch => wrist_watch_into(seed, duration_s, sink),
            SourceKind::SolarIndoor => solar_indoor_into(seed, duration_s, sink),
            SourceKind::RfWifi => rf_wifi_into(seed, duration_s, sink),
            SourceKind::ThermalBody => thermal_body_into(seed, duration_s, sink),
        }
    }

    /// The [`TraceSummary`] of [`generate`](Self::generate)'s trace at
    /// `threshold_w`, folded in one streamed pass: no sample array.
    #[must_use]
    pub fn summarize(self, seed: u64, duration_s: f64, threshold_w: f64) -> TraceSummary {
        let mut summary = TraceSummary::builder(DEFAULT_DT_S, threshold_w);
        self.stream(seed, duration_s, |p| summary.push(p));
        summary.finish()
    }

    /// Writes [`PowerTrace::write_csv`]'s text of
    /// [`generate`](Self::generate)'s trace, streamed from the
    /// generator: no sample array, and one block of rows buffered.
    ///
    /// # Errors
    ///
    /// Any error `out` returns.
    pub fn write_csv<W: io::Write>(self, seed: u64, duration_s: f64, out: W) -> io::Result<()> {
        let mut csv = CsvWriter::new(out, DEFAULT_DT_S);
        self.stream(seed, duration_s, |p| csv.push(p));
        csv.finish()
    }
}

/// Samples in a generated trace of `duration_s`: the duration in
/// [`DEFAULT_DT_S`] periods, rounded to nearest.
#[must_use]
pub fn sample_count(duration_s: f64) -> usize {
    (duration_s / DEFAULT_DT_S).round() as usize
}

impl std::fmt::Display for SourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn exp_sample<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    // Inverse-CDF sampling; `random` is in [0, 1), so 1-u is in (0, 1].
    -mean * (1.0 - rng.random::<f64>()).ln()
}

fn lognormal_sample<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    // Box-Muller for one standard normal.
    let u1: f64 = (1.0 - rng.random::<f64>()).max(1e-12);
    let u2: f64 = rng.random();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    median * (sigma * z).exp()
}

/// Synthesizes a wrist-worn rotational-harvester ("watch") trace.
///
/// Activity comes in bursts (arm swings pluck the unbalanced ring, which
/// then rings down): active/idle epochs alternate with sub-second
/// durations, and within an active epoch the output is a train of
/// half-sine pulses of ms-scale width separated by ms-scale gaps.
///
/// # Example
///
/// ```
/// let t = nvp_energy::harvester::wrist_watch(3, 5.0);
/// let avg = t.average_w();
/// assert!(avg > 5e-6 && avg < 60e-6, "published envelope is 10-40 µW, got {avg}");
/// ```
#[must_use]
pub fn wrist_watch(seed: u64, duration_s: f64) -> PowerTrace {
    SourceKind::WristWatch.generate(seed, duration_s)
}

fn wrist_watch_into(seed: u64, duration_s: f64, mut sink: impl FnMut(f64)) {
    let dt = DEFAULT_DT_S;
    let n = sample_count(duration_s);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
    // Per-wearer activity scaling differentiates the five "profiles".
    let vigor = 0.7 + 0.6 * rng.random::<f64>();

    let mut active = rng.random::<f64>() < 0.5;
    let mut epoch_left = exp_sample(&mut rng, if active { 0.6 } else { 0.9 });
    // Pulse state within an active epoch.
    let mut in_pulse = false;
    let mut pulse_left = 0.0;
    let mut pulse_total = 1.0;
    let mut pulse_amp = 0.0;

    for _ in 0..n {
        if epoch_left <= 0.0 {
            active = !active;
            epoch_left = exp_sample(&mut rng, if active { 0.6 } else { 0.9 });
            in_pulse = false;
            pulse_left = 0.0;
        }
        epoch_left -= dt;

        let p = if active {
            if pulse_left <= 0.0 {
                if in_pulse {
                    // Enter a gap.
                    in_pulse = false;
                    pulse_left = exp_sample(&mut rng, 2.5e-3).max(0.5e-3);
                } else {
                    // Start a new pulse.
                    in_pulse = true;
                    pulse_total = exp_sample(&mut rng, 1.5e-3).max(0.6e-3);
                    pulse_left = pulse_total;
                    pulse_amp =
                        (lognormal_sample(&mut rng, 200e-6 * vigor, 0.8)).clamp(20e-6, 2.2e-3);
                }
            }
            pulse_left -= dt;
            if in_pulse {
                let phase = 1.0 - (pulse_left / pulse_total).clamp(0.0, 1.0);
                pulse_amp * (std::f64::consts::PI * phase).sin().max(0.0)
            } else {
                rng.random::<f64>() * 8e-6
            }
        } else {
            rng.random::<f64>() * 6e-6
        };
        sink(p);
    }
}

/// Synthesizes an indoor-solar trace: a slowly wandering baseline of
/// hundreds of µW with occasional second-scale shadow events.
#[must_use]
pub fn solar_indoor(seed: u64, duration_s: f64) -> PowerTrace {
    SourceKind::SolarIndoor.generate(seed, duration_s)
}

fn solar_indoor_into(seed: u64, duration_s: f64, mut sink: impl FnMut(f64)) {
    let dt = DEFAULT_DT_S;
    let n = sample_count(duration_s);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xD134_2543_DE82_EF95).wrapping_add(2));
    let mut base = 150e-6 + 250e-6 * rng.random::<f64>();
    let mut shadow_left = 0.0_f64;
    let mut until_shadow = exp_sample(&mut rng, 4.0);
    for _ in 0..n {
        // Ornstein-Uhlenbeck-style wander of the illumination baseline.
        let target = 300e-6;
        base += (target - base) * dt / 5.0 + 4e-6 * (rng.random::<f64>() - 0.5);
        base = base.clamp(40e-6, 800e-6);
        if shadow_left > 0.0 {
            shadow_left -= dt;
            sink(base * 0.02 + rng.random::<f64>() * 2e-6);
        } else {
            until_shadow -= dt;
            if until_shadow <= 0.0 {
                shadow_left = exp_sample(&mut rng, 0.5).max(0.05);
                until_shadow = exp_sample(&mut rng, 4.0);
            }
            sink(base + rng.random::<f64>() * 10e-6);
        }
    }
}

/// Synthesizes an RF/WiFi scavenging trace: ms-scale packet bursts well
/// above threshold separated by near-zero idle gaps.
#[must_use]
pub fn rf_wifi(seed: u64, duration_s: f64) -> PowerTrace {
    SourceKind::RfWifi.generate(seed, duration_s)
}

fn rf_wifi_into(seed: u64, duration_s: f64, mut sink: impl FnMut(f64)) {
    let dt = DEFAULT_DT_S;
    let n = sample_count(duration_s);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA076_1D64_78BD_642F).wrapping_add(3));
    let mut in_burst = false;
    let mut left = exp_sample(&mut rng, 8e-3);
    let mut amp = 0.0;
    for _ in 0..n {
        if left <= 0.0 {
            in_burst = !in_burst;
            if in_burst {
                left = exp_sample(&mut rng, 3e-3).max(0.3e-3);
                amp = 60e-6 + 160e-6 * rng.random::<f64>();
            } else {
                left = exp_sample(&mut rng, 8e-3).max(0.5e-3);
            }
        }
        left -= dt;
        sink(if in_burst {
            amp * (0.85 + 0.3 * rng.random::<f64>())
        } else {
            rng.random::<f64>() * 4e-6
        });
    }
}

/// Synthesizes a body-heat thermoelectric trace: tens of µW with slow
/// drift, crossing the operating threshold on second-to-minute scales.
#[must_use]
pub fn thermal_body(seed: u64, duration_s: f64) -> PowerTrace {
    SourceKind::ThermalBody.generate(seed, duration_s)
}

fn thermal_body_into(seed: u64, duration_s: f64, mut sink: impl FnMut(f64)) {
    let dt = DEFAULT_DT_S;
    let n = sample_count(duration_s);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(4));
    let period = 8.0 + 10.0 * rng.random::<f64>();
    let phase0 = rng.random::<f64>() * std::f64::consts::TAU;
    let mean = 30e-6 + 8e-6 * rng.random::<f64>();
    let swing = 14e-6 + 6e-6 * rng.random::<f64>();
    // Slow (low-passed) noise so the trace crosses thresholds on the
    // sinusoid's timescale, not per-sample: TEG output has no fast jitter.
    let mut drift = 0.0_f64;
    for i in 0..n {
        let t = i as f64 * dt;
        drift += (-drift) * dt / 0.5 + 0.05e-6 * (rng.random::<f64>() - 0.5);
        let p = mean + swing * (std::f64::consts::TAU * t / period + phase0).sin() + drift;
        sink(p.max(0.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OutageStats, OPERATING_THRESHOLD_W};

    #[test]
    fn generators_are_deterministic() {
        for kind in SourceKind::ALL {
            let a = kind.generate(7, 1.0);
            let b = kind.generate(7, 1.0);
            assert_eq!(a, b, "{kind}");
            let c = kind.generate(8, 1.0);
            assert_ne!(a, c, "{kind} must vary with seed");
        }
    }

    /// Durations covering zero samples, one sample, sample counts that
    /// round up or down from a half-period, and a full second.
    const STREAM_DURATIONS: [f64; 8] = [0.0, 4e-5, 5e-5, 1e-4, 1.5e-4, 2.5e-4, 0.01234, 1.0];

    #[test]
    fn streamed_samples_are_the_generated_trace_bit_for_bit() {
        for kind in SourceKind::ALL {
            for seed in [0, 1, 7, 4_100, u64::MAX] {
                for d in STREAM_DURATIONS {
                    let mut streamed = Vec::new();
                    kind.stream(seed, d, |p| streamed.push(p.to_bits()));
                    let generated = kind.generate(seed, d);
                    let bits: Vec<u64> = generated.samples().iter().map(|p| p.to_bits()).collect();
                    assert_eq!(streamed, bits, "{kind} seed {seed} over {d} s");
                    assert_eq!(streamed.len(), sample_count(d), "{kind} over {d} s");
                }
            }
        }
        assert_eq!(sample_count(0.0), 0);
        assert_eq!(sample_count(4e-5), 0, "under half a period rounds to none");
        assert_eq!(sample_count(5e-5), 1, "an exact half period rounds away from zero");
        assert_eq!(sample_count(2.5e-4), 3, "an exact half period rounds away from zero");
        assert_eq!(sample_count(1.5e-4), 1, "1.5e-4 / 1e-4 falls an ulp under 1.5");
    }

    #[test]
    fn streamed_csv_and_summary_match_the_sample_array() {
        for kind in SourceKind::ALL {
            for seed in [1, 3] {
                for d in STREAM_DURATIONS {
                    let trace = kind.generate(seed, d);
                    let mut csv = Vec::new();
                    kind.write_csv(seed, d, &mut csv).unwrap();
                    assert_eq!(csv, trace.to_csv().into_bytes(), "{kind} seed {seed} over {d} s");
                    let streamed = kind.summarize(seed, d, OPERATING_THRESHOLD_W);
                    let of_array = TraceSummary::of(&trace, OPERATING_THRESHOLD_W);
                    assert_eq!(format!("{streamed:?}"), format!("{of_array:?}"));
                }
            }
        }
    }

    #[test]
    fn source_kinds_round_trip_their_names() {
        for kind in SourceKind::ALL {
            assert_eq!(SourceKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SourceKind::from_name("wrist watch"), None);
    }

    #[test]
    fn watch_matches_published_envelope() {
        for seed in 1..=5 {
            let t = wrist_watch(seed, 10.0);
            let avg = t.average_w();
            assert!(avg > 8e-6 && avg < 60e-6, "seed {seed}: avg {avg}");
            assert!(t.peak_w() > 500e-6, "seed {seed}: peak {}", t.peak_w());
            assert!(t.peak_w() <= 2.2e-3, "seed {seed}: peak {}", t.peak_w());
            let s = OutageStats::analyze(&t, OPERATING_THRESHOLD_W);
            let per10 = s.emergencies_per_10s(t.duration_s());
            assert!(
                (500.0..2500.0).contains(&per10),
                "seed {seed}: {per10} emergencies/10s (published: 1000-2000)"
            );
        }
    }

    #[test]
    fn watch_outages_are_ms_scale() {
        let t = wrist_watch(2, 10.0);
        let s = OutageStats::analyze(&t, OPERATING_THRESHOLD_W);
        assert!(s.mean_outage_s > 1e-3 && s.mean_outage_s < 0.5, "{}", s.mean_outage_s);
        assert!(s.longest_outage_s < 10.0);
    }

    #[test]
    fn solar_is_strong_with_rare_outages() {
        let t = solar_indoor(1, 10.0);
        assert!(t.average_w() > 100e-6);
        let s = OutageStats::analyze(&t, OPERATING_THRESHOLD_W);
        let per10 = s.emergencies_per_10s(t.duration_s());
        assert!(per10 < 50.0, "solar emergencies should be rare: {per10}");
    }

    #[test]
    fn rf_has_very_frequent_short_outages() {
        let t = rf_wifi(1, 10.0);
        let s = OutageStats::analyze(&t, OPERATING_THRESHOLD_W);
        let per10 = s.emergencies_per_10s(t.duration_s());
        assert!(per10 > 400.0, "rf emergencies: {per10}");
        assert!(s.mean_outage_s < 0.05, "{}", s.mean_outage_s);
    }

    #[test]
    fn thermal_is_weak_and_slow() {
        let t = thermal_body(1, 30.0);
        let avg = t.average_w();
        assert!(avg > 15e-6 && avg < 55e-6, "{avg}");
        assert!(t.peak_w() < 80e-6);
        let s = OutageStats::analyze(&t, OPERATING_THRESHOLD_W);
        // Slow sinusoid: few crossings, second-scale outages.
        assert!(s.emergency_count < 40, "{}", s.emergency_count);
        if !s.outage_durations_s.is_empty() {
            assert!(s.longest_outage_s > 0.5);
        }
    }

    #[test]
    fn five_profiles_differ() {
        let profiles: Vec<PowerTrace> = (1..=5).map(|seed| wrist_watch(seed, 2.0)).collect();
        assert_eq!(profiles.len(), 5);
        for i in 0..5 {
            for j in (i + 1)..5 {
                assert_ne!(profiles[i], profiles[j]);
            }
        }
    }
}
