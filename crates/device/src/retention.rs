//! Shaped retention relaxation and retention-failure sampling.
//!
//! Most power outages on wearable harvesters last milliseconds, yet
//! conventional NVPs back up with decade-class retention. *Retention
//! relaxation* writes lower-significance bits with shorter retention (and
//! therefore less energy — see [`crate::sttram`]), accepting a small,
//! significance-weighted probability of bit decay if the outage outlasts
//! a bit's retention. This is the "adaptive retention" direction the
//! DATE'17 survey highlights (ISSCC'16 ReRAM NVP) and is evaluated as
//! experiment F9.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::sttram::{PulseGrid, SttModel};

/// How retention is shaped from the most- to least-significant bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RelaxPolicy {
    /// No relaxation: every bit keeps `max_retention_s` (the baseline).
    Uniform,
    /// Thermal stability Δ falls linearly from MSB to LSB — the
    /// middle-of-the-road shape suited to most kernels.
    Linear,
    /// Δ falls fastest near the MSB (square-root shape) — the most
    /// aggressive energy saver, suited to noise-tolerant kernels.
    Log,
    /// Δ stays near the maximum for upper bits and only drops for the
    /// lowest bits (quadratic shape) — the most conservative policy.
    Parabola,
}

impl RelaxPolicy {
    /// All policies in reporting order.
    pub const ALL: [RelaxPolicy; 4] =
        [RelaxPolicy::Uniform, RelaxPolicy::Linear, RelaxPolicy::Log, RelaxPolicy::Parabola];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RelaxPolicy::Uniform => "uniform",
            RelaxPolicy::Linear => "linear",
            RelaxPolicy::Log => "log",
            RelaxPolicy::Parabola => "parabola",
        }
    }
}

impl std::fmt::Display for RelaxPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-bit retention times for a `bits`-wide stored field.
///
/// Index 0 is the **most significant** bit of the field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BitRetention {
    per_bit_s: Vec<f64>,
}

impl BitRetention {
    /// Retention times, MSB first.
    #[must_use]
    pub fn per_bit_s(&self) -> &[f64] {
        &self.per_bit_s
    }

    /// Field width in bits.
    #[must_use]
    pub fn bits(&self) -> usize {
        self.per_bit_s.len()
    }

    /// Samples retention decay of a stored field after an outage of
    /// `outage_s` seconds: [`decay_odds`](Self::decay_odds) for that
    /// outage, then [`DecayOdds::degrade`]. Returns the possibly
    /// corrupted field and the number of flipped bits.
    pub fn degrade<R: Rng + ?Sized>(&self, field: u16, outage_s: f64, rng: &mut R) -> (u16, u32) {
        self.decay_odds(outage_s).degrade(field, rng)
    }

    /// Per-bit flip probabilities after an outage of `outage_s` seconds.
    ///
    /// Each bit decays with probability `0.5·(1 − exp(−t/τ))` (an
    /// exponential-loss model: a fully decayed cell reads back a coin
    /// flip). Every field stored through the same outage shares these
    /// odds, so a caller decaying many words computes them once.
    #[must_use]
    pub fn decay_odds(&self, outage_s: f64) -> DecayOdds {
        let p_flip =
            self.per_bit_s.iter().map(|&tau| 0.5 * (1.0 - (-outage_s / tau).exp())).collect();
        DecayOdds { p_flip }
    }

    /// Counts how many bit positions have retention shorter than the
    /// outage (i.e. are *at risk*), without sampling.
    #[must_use]
    pub fn at_risk_bits(&self, outage_s: f64) -> u32 {
        self.per_bit_s.iter().filter(|&&tau| tau < outage_s).count() as u32
    }
}

/// The per-bit flip probabilities of one outage, MSB first
/// ([`BitRetention::decay_odds`]).
#[derive(Debug, Clone)]
pub struct DecayOdds {
    p_flip: Vec<f64>,
}

impl DecayOdds {
    /// Samples the decay of one stored field: one uniform draw per bit
    /// whose flip probability is positive, MSB first, and none for the
    /// others (so a zero-length outage consumes no randomness). Returns
    /// the possibly corrupted field and the number of flipped bits. Only
    /// the low [`BitRetention::bits`] bits of `field` participate.
    pub fn degrade<R: Rng + ?Sized>(&self, field: u16, rng: &mut R) -> (u16, u32) {
        let mut out = field;
        let mut flips = 0;
        let width = self.p_flip.len();
        for (i, &p_flip) in self.p_flip.iter().enumerate() {
            if p_flip > 0.0 && rng.random::<f64>() < p_flip {
                let bit_pos = (width - 1 - i) as u16;
                out ^= 1 << bit_pos;
                flips += 1;
            }
        }
        (out, flips)
    }
}

/// Builds per-bit retention profiles and their write-energy implications.
///
/// # Example
///
/// ```
/// use nvp_device::{RelaxPolicy, RetentionShaper};
/// use nvp_device::sttram::SttModel;
///
/// let shaper = RetentionShaper::new(RelaxPolicy::Log, 8, 0.01, 86_400.0);
/// let profile = shaper.bit_retention();
/// assert_eq!(profile.bits(), 8);
/// // MSB keeps the full day; LSB is relaxed to 10 ms.
/// assert!(profile.per_bit_s()[0] > profile.per_bit_s()[7]);
/// let scale = shaper.write_energy_scale(&SttModel::default());
/// assert!(scale < 1.0, "relaxation must save energy");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetentionShaper {
    policy: RelaxPolicy,
    bits: usize,
    min_retention_s: f64,
    max_retention_s: f64,
}

impl RetentionShaper {
    /// Creates a shaper for a `bits`-wide field with LSB retention
    /// `min_retention_s` and MSB retention `max_retention_s`.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`, or retentions are non-positive, or
    /// `min_retention_s > max_retention_s`.
    #[must_use]
    pub fn new(
        policy: RelaxPolicy,
        bits: usize,
        min_retention_s: f64,
        max_retention_s: f64,
    ) -> Self {
        assert!(bits > 0, "bits must be positive");
        assert!(min_retention_s > 0.0 && max_retention_s > 0.0, "retention must be positive");
        assert!(min_retention_s <= max_retention_s, "min retention exceeds max");
        RetentionShaper { policy, bits, min_retention_s, max_retention_s }
    }

    /// The shaping policy.
    #[must_use]
    pub fn policy(&self) -> RelaxPolicy {
        self.policy
    }

    /// Per-bit retention profile, MSB first.
    #[must_use]
    pub fn bit_retention(&self) -> BitRetention {
        let b = self.bits;
        let (min, max) = (self.min_retention_s, self.max_retention_s);
        let per_bit_s = (0..b)
            .map(|i| {
                if b == 1 {
                    return max;
                }
                // Normalized significance: 0.0 at MSB, 1.0 at LSB. Shapes
                // are defined in thermal-stability (log-time) space because
                // write energy tracks Δ = ln(retention/τ₀), not retention
                // itself: w(x) is the fraction of the Δ range given up.
                let x = i as f64 / (b - 1) as f64;
                let w = match self.policy {
                    RelaxPolicy::Uniform => 0.0,
                    RelaxPolicy::Linear => x,
                    RelaxPolicy::Log => x.sqrt(),
                    RelaxPolicy::Parabola => x * x,
                };
                max * (min / max).powf(w)
            })
            .collect();
        BitRetention { per_bit_s }
    }

    /// Average write-energy scale factor relative to uniform
    /// max-retention backup, under the given STT-RAM model.
    ///
    /// Always ≤ 1; [`RelaxPolicy::Log`] saves the most, `Parabola` the
    /// least (among the relaxing policies).
    #[must_use]
    pub fn write_energy_scale(&self, model: &SttModel) -> f64 {
        let grid = PulseGrid::new();
        let uniform =
            model.optimal_write_on(&grid, self.max_retention_s).energy_j * self.bits as f64;
        let shaped: f64 = self
            .bit_retention()
            .per_bit_s()
            .iter()
            .map(|&tau| model.optimal_write_on(&grid, tau).energy_j)
            .sum();
        shaped / uniform
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const DAY: f64 = 86_400.0;

    fn shaper(policy: RelaxPolicy) -> RetentionShaper {
        RetentionShaper::new(policy, 8, 0.01, DAY)
    }

    #[test]
    fn uniform_keeps_max_everywhere() {
        let r = shaper(RelaxPolicy::Uniform).bit_retention();
        assert!(r.per_bit_s().iter().all(|&t| (t - DAY).abs() < 1e-9));
    }

    #[test]
    fn profiles_are_monotone_decreasing() {
        for policy in [RelaxPolicy::Linear, RelaxPolicy::Log, RelaxPolicy::Parabola] {
            let r = shaper(policy).bit_retention();
            for w in r.per_bit_s().windows(2) {
                assert!(w[0] >= w[1], "{policy}: {:?}", r.per_bit_s());
            }
            assert!((r.per_bit_s()[0] - DAY).abs() < 1.0, "{policy} MSB keeps max");
            assert!((r.per_bit_s()[7] - 0.01).abs() < 1e-6, "{policy} LSB reaches min");
        }
    }

    #[test]
    fn energy_ordering_log_saves_most() {
        let m = SttModel::default();
        let uniform = shaper(RelaxPolicy::Uniform).write_energy_scale(&m);
        let linear = shaper(RelaxPolicy::Linear).write_energy_scale(&m);
        let log = shaper(RelaxPolicy::Log).write_energy_scale(&m);
        let parabola = shaper(RelaxPolicy::Parabola).write_energy_scale(&m);
        assert!((uniform - 1.0).abs() < 1e-12);
        assert!(log < linear, "log ({log}) should save more than linear ({linear})");
        assert!(linear < parabola, "linear ({linear}) should save more than parabola ({parabola})");
        assert!(parabola < 1.0);
    }

    #[test]
    fn short_outage_rarely_corrupts() {
        let r = shaper(RelaxPolicy::Linear).bit_retention();
        let mut rng = StdRng::seed_from_u64(7);
        let mut flips = 0;
        for _ in 0..1000 {
            let (_, f) = r.degrade(0xAB, 1e-4, &mut rng); // 0.1 ms outage
            flips += f;
        }
        // All retentions ≥ 10 ms, outage 0.1 ms → flip prob ≤ 0.5 %/bit.
        assert!(flips < 100, "flips {flips}");
    }

    #[test]
    fn long_outage_corrupts_low_bits_first() {
        let r = shaper(RelaxPolicy::Parabola).bit_retention();
        let mut rng = StdRng::seed_from_u64(42);
        let mut low_flips = 0u32;
        let mut high_flips = 0u32;
        for _ in 0..2000 {
            let (out, _) = r.degrade(0x00, 60.0, &mut rng); // 1 minute outage
            low_flips += u32::from(out & 0x0F != 0);
            high_flips += u32::from(out & 0xF0 != 0);
        }
        assert!(low_flips > 4 * high_flips.max(1), "low {low_flips} vs high {high_flips}");
    }

    #[test]
    fn at_risk_counts() {
        let r = shaper(RelaxPolicy::Linear).bit_retention();
        assert_eq!(r.at_risk_bits(0.001), 0, "nothing below min retention");
        assert_eq!(r.at_risk_bits(2.0 * DAY), 8, "everything below a 2-day outage");
        let mid = r.at_risk_bits(DAY / 2.0);
        assert!(mid > 0 && mid < 8);
    }

    #[test]
    fn degrade_is_deterministic_per_seed() {
        let r = shaper(RelaxPolicy::Log).bit_retention();
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        for word in [0u16, 0xFF, 0xA5] {
            assert_eq!(r.degrade(word, 5.0, &mut a), r.degrade(word, 5.0, &mut b));
        }
    }

    #[test]
    fn shared_decay_odds_draw_exactly_as_per_word_degrade() {
        // One set of odds per outage, reused for every word, must flip
        // the same bits and consume the same draws as recomputing them
        // for each word.
        for policy in RelaxPolicy::ALL {
            let r = shaper(policy).bit_retention();
            for outage in [0.0, 0.005, 0.3, DAY] {
                let odds = r.decay_odds(outage);
                let mut shared = StdRng::seed_from_u64(5);
                let mut per_word = StdRng::seed_from_u64(5);
                for word in 0..64u16 {
                    let field = word.wrapping_mul(0x9E37);
                    assert_eq!(
                        odds.degrade(field, &mut shared),
                        r.degrade(field, outage, &mut per_word),
                        "{policy} outage {outage} word {word}"
                    );
                }
                assert_eq!(shared.random::<u64>(), per_word.random::<u64>(), "draws in step");
            }
        }
    }

    #[test]
    #[should_panic(expected = "min retention exceeds max")]
    fn rejects_inverted_range() {
        let _ = RetentionShaper::new(RelaxPolicy::Linear, 8, 10.0, 1.0);
    }

    #[test]
    fn zero_duration_outage_never_flips_and_draws_nothing() {
        let r = shaper(RelaxPolicy::Linear).bit_retention();
        let mut rng = StdRng::seed_from_u64(9);
        for word in [0u16, 0xFF, 0xA5, 0x5A] {
            assert_eq!(r.degrade(word, 0.0, &mut rng), (word, 0));
        }
        // A zero-duration outage must consume no randomness: an RNG that
        // went through degrade(·, 0.0) stays in lockstep with a fresh one
        // (the fault layer's disabled-is-a-no-op guarantee rests on this).
        let mut fresh = StdRng::seed_from_u64(9);
        assert_eq!(rng.random::<f64>().to_bits(), fresh.random::<f64>().to_bits());
    }

    #[test]
    fn outage_beyond_all_retention_flips_every_at_risk_bit_eventually() {
        // A week-long outage dwarfs even the MSB's one-day retention:
        // every bit is at risk and each flips with probability ~0.5.
        let r = shaper(RelaxPolicy::Linear).bit_retention();
        let week = 7.0 * DAY;
        assert_eq!(r.at_risk_bits(week), 8);
        let mut rng = StdRng::seed_from_u64(17);
        let mut seen_flipped = 0u16;
        let mut total_flips = 0u32;
        for _ in 0..200 {
            let (out, flips) = r.degrade(0x00, week, &mut rng);
            assert!(flips <= 8, "cannot flip more bits than the field has");
            assert_eq!(out.count_ones(), flips, "flips must match the returned field");
            seen_flipped |= out;
            total_flips += flips;
        }
        assert_eq!(seen_flipped, 0xFF, "every at-risk bit position must flip eventually");
        // 200 trials × 8 bits × p≈0.5 ⇒ ~800 flips; far from 0 or 1600.
        assert!((400..1200).contains(&total_flips), "flips {total_flips}");
    }

    #[test]
    fn degrade_edge_durations_are_deterministic_per_seed() {
        for policy in RelaxPolicy::ALL {
            let r = shaper(policy).bit_retention();
            for outage in [0.0, 1e-9, 0.01, DAY, 10.0 * DAY] {
                let mut a = StdRng::seed_from_u64(123);
                let mut b = StdRng::seed_from_u64(123);
                for word in [0u16, 0xFFFF, 0xBEEF] {
                    assert_eq!(
                        r.degrade(word, outage, &mut a),
                        r.degrade(word, outage, &mut b),
                        "{policy} outage {outage}"
                    );
                }
            }
        }
    }
}
