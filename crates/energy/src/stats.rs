//! Outage-duration and power-emergency statistics.

use serde::{Deserialize, Serialize};

use crate::PowerTrace;

/// A simple fixed-bin histogram over outage durations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Inclusive lower edge of each bin, seconds.
    pub bin_edges_s: Vec<f64>,
    /// Outage count per bin (`counts.len() == bin_edges_s.len()`); the
    /// final bin is open-ended.
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Builds a histogram of `values` over `n` equal-width bins spanning
    /// `[0, max(values)]`.
    #[must_use]
    pub fn of(values: &[f64], n: usize) -> Histogram {
        let n = n.max(1);
        let max = values.iter().copied().fold(0.0_f64, f64::max).max(f64::MIN_POSITIVE);
        let width = max / n as f64;
        let mut counts = vec![0u64; n];
        for &v in values {
            let bin = ((v / width) as usize).min(n - 1);
            counts[bin] += 1;
        }
        Histogram { bin_edges_s: (0..n).map(|i| i as f64 * width).collect(), counts }
    }

    /// Total number of counted values.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Statistics of sub-threshold intervals ("power emergencies") in a trace.
///
/// An *emergency* begins on a falling edge through the threshold; its
/// *outage duration* runs until power recovers. This reproduces the
/// outage-duration/frequency analysis (figure F2) whose published envelope
/// is 1000–2000 emergencies per 10 s on wrist-harvester traces at 33 µW.
///
/// # Example
///
/// ```
/// use nvp_energy::{OutageStats, PowerTrace};
///
/// let t = PowerTrace::from_segments(1e-4, &[
///     (100e-6, 0.010), (0.0, 0.003), (50e-6, 0.005), (10e-6, 0.002),
/// ]);
/// let s = OutageStats::analyze(&t, 33e-6);
/// assert_eq!(s.emergency_count, 2);
/// assert!((s.longest_outage_s - 0.003).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutageStats {
    /// Threshold used, watts.
    pub threshold_w: f64,
    /// Number of falling-edge crossings (power emergencies).
    pub emergency_count: u64,
    /// Every outage duration, seconds, in order of occurrence.
    pub outage_durations_s: Vec<f64>,
    /// Longest single outage, seconds.
    pub longest_outage_s: f64,
    /// Mean outage duration, seconds (0 if none).
    pub mean_outage_s: f64,
    /// Fraction of trace time spent at or above the threshold.
    pub above_threshold_fraction: f64,
}

impl OutageStats {
    /// Analyzes a trace against an operating-power threshold.
    #[must_use]
    pub fn analyze(trace: &PowerTrace, threshold_w: f64) -> OutageStats {
        let mut fold = OutageFold::new(trace.dt_s(), threshold_w);
        trace.samples().iter().for_each(|&p| fold.push(p));
        fold.finish()
    }

    /// Emergencies normalized to a 10-second window (the survey's unit).
    #[must_use]
    pub fn emergencies_per_10s(&self, trace_duration_s: f64) -> f64 {
        if trace_duration_s <= 0.0 {
            return 0.0;
        }
        self.emergency_count as f64 * 10.0 / trace_duration_s
    }

    /// Histogram of outage durations over `n` bins.
    #[must_use]
    pub fn histogram(&self, n: usize) -> Histogram {
        Histogram::of(&self.outage_durations_s, n)
    }
}

/// [`OutageStats`] folded one sample at a time, in trace order: the
/// one body behind [`OutageStats::analyze`] and [`TraceSummary`].
#[derive(Debug)]
struct OutageFold {
    threshold_w: f64,
    dt_s: f64,
    outages: Vec<f64>,
    /// Samples in the outage under way, if one is.
    current: Option<u64>,
    above_samples: u64,
    samples: u64,
    starts_low: bool,
}

impl OutageFold {
    fn new(dt_s: f64, threshold_w: f64) -> OutageFold {
        OutageFold {
            threshold_w,
            dt_s,
            outages: Vec::new(),
            current: None,
            above_samples: 0,
            samples: 0,
            starts_low: false,
        }
    }

    fn push(&mut self, p: f64) {
        if self.samples == 0 {
            self.starts_low = p < self.threshold_w;
        }
        self.samples += 1;
        if p >= self.threshold_w {
            self.above_samples += 1;
            if let Some(n) = self.current.take() {
                self.outages.push(n as f64 * self.dt_s);
            }
        } else {
            self.current = Some(self.current.unwrap_or(0) + 1);
        }
    }

    fn finish(mut self) -> OutageStats {
        if let Some(n) = self.current {
            self.outages.push(n as f64 * self.dt_s);
        }
        let outages = self.outages;
        // Only count *emergencies* — falling edges. A trace that starts
        // below threshold has an initial outage but no falling edge.
        let emergency_count =
            outages.len() as u64 - u64::from(self.starts_low && !outages.is_empty());
        let longest = outages.iter().copied().fold(0.0, f64::max);
        let mean = if outages.is_empty() {
            0.0
        } else {
            outages.iter().sum::<f64>() / outages.len() as f64
        };
        let above_fraction =
            if self.samples == 0 { 0.0 } else { self.above_samples as f64 / self.samples as f64 };
        OutageStats {
            threshold_w: self.threshold_w,
            emergency_count,
            outage_durations_s: outages,
            longest_outage_s: longest,
            mean_outage_s: mean,
            above_threshold_fraction: above_fraction,
        }
    }
}

/// What the survey's profile and outage figures read from a trace: its
/// [`PowerTrace`] statistics and its [`OutageStats`] at one threshold,
/// each bit-identical to the array path's. It is folded one sample at
/// a time, so a generated trace can be summarized as it streams,
/// without its sample array
/// ([`SourceKind::summarize`](crate::harvester::SourceKind::summarize)).
///
/// # Example
///
/// ```
/// use nvp_energy::harvester::SourceKind;
/// use nvp_energy::OutageStats;
///
/// let s = SourceKind::WristWatch.summarize(3, 1.0, 33e-6);
/// let t = SourceKind::WristWatch.generate(3, 1.0);
/// assert_eq!(s.average_w, t.average_w());
/// assert_eq!(s.outages, OutageStats::analyze(&t, 33e-6));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// [`PowerTrace::average_w`].
    pub average_w: f64,
    /// [`PowerTrace::peak_w`].
    pub peak_w: f64,
    /// [`PowerTrace::total_energy_j`].
    pub total_energy_j: f64,
    /// [`PowerTrace::duration_s`].
    pub duration_s: f64,
    /// [`OutageStats::analyze`] at the threshold summarized at.
    pub outages: OutageStats,
}

impl TraceSummary {
    /// The summary of a whole trace at `threshold_w`, folded over its
    /// sample array.
    #[cfg(test)]
    pub(crate) fn of(trace: &PowerTrace, threshold_w: f64) -> TraceSummary {
        let mut builder = TraceSummary::builder(trace.dt_s(), threshold_w);
        trace.samples().iter().for_each(|&p| builder.push(p));
        builder.finish()
    }

    /// A builder for the trace sampled every `dt_s` whose samples it
    /// will be fed, summarizing outages at `threshold_w`.
    #[must_use]
    pub(crate) fn builder(dt_s: f64, threshold_w: f64) -> TraceSummaryBuilder {
        TraceSummaryBuilder { sum: 0.0, peak: 0.0, outages: OutageFold::new(dt_s, threshold_w) }
    }
}

/// Folds a [`TraceSummary`] from samples pushed in trace order, with
/// the same `f64` operations in the same order as [`PowerTrace`]'s
/// accessors and [`OutageStats::analyze`].
#[derive(Debug)]
pub(crate) struct TraceSummaryBuilder {
    sum: f64,
    peak: f64,
    outages: OutageFold,
}

impl TraceSummaryBuilder {
    /// Folds in the next sample, watts.
    pub(crate) fn push(&mut self, p: f64) {
        self.sum += p;
        self.peak = self.peak.max(p);
        self.outages.push(p);
    }

    /// The summary of every sample pushed.
    #[must_use]
    pub(crate) fn finish(self) -> TraceSummary {
        let n = self.outages.samples;
        let dt_s = self.outages.dt_s;
        TraceSummary {
            average_w: if n == 0 { 0.0 } else { self.sum / n as f64 },
            peak_w: self.peak,
            total_energy_j: self.sum * dt_s,
            duration_s: dt_s * n as f64,
            outages: self.outages.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_edges_not_initial_low() {
        // Starts low: the initial outage is not an emergency.
        let t = PowerTrace::from_segments(1e-3, &[(0.0, 0.01), (1e-3, 0.01), (0.0, 0.01)]);
        let s = OutageStats::analyze(&t, 33e-6);
        assert_eq!(s.emergency_count, 1);
        assert_eq!(s.outage_durations_s.len(), 2);
    }

    #[test]
    fn all_above_no_outage() {
        let t = PowerTrace::constant(1e-4, 1e-3, 0.1);
        let s = OutageStats::analyze(&t, 33e-6);
        assert_eq!(s.emergency_count, 0);
        assert!(s.outage_durations_s.is_empty());
        assert_eq!(s.above_threshold_fraction, 1.0);
        assert_eq!(s.mean_outage_s, 0.0);
    }

    #[test]
    fn all_below_is_one_long_outage() {
        let t = PowerTrace::constant(1e-4, 1e-6, 0.1);
        let s = OutageStats::analyze(&t, 33e-6);
        assert_eq!(s.emergency_count, 0, "no falling edge");
        assert_eq!(s.outage_durations_s.len(), 1);
        assert!((s.longest_outage_s - 0.1).abs() < 1e-9);
        assert_eq!(s.above_threshold_fraction, 0.0);
    }

    #[test]
    fn per_10s_normalization() {
        let t = PowerTrace::from_segments(
            1e-4,
            &[(1e-3, 0.1), (0.0, 0.1), (1e-3, 0.1), (0.0, 0.1), (1e-3, 0.1)],
        );
        let s = OutageStats::analyze(&t, 33e-6);
        assert_eq!(s.emergency_count, 2);
        assert!((s.emergencies_per_10s(t.duration_s()) - 40.0).abs() < 1e-9);
    }

    /// Every field of the summary is the array path's, bit for bit
    /// (`{:?}` prints each `f64` exactly, sign of zero included).
    fn assert_summary_matches(t: &PowerTrace, threshold_w: f64) {
        let s = TraceSummary::of(t, threshold_w);
        let bits = |x: f64| x.to_bits();
        assert_eq!(bits(s.average_w), bits(t.average_w()));
        assert_eq!(bits(s.peak_w), bits(t.peak_w()));
        assert_eq!(bits(s.total_energy_j), bits(t.total_energy_j()));
        assert_eq!(bits(s.duration_s), bits(t.duration_s()));
        assert_eq!(
            format!("{:?}", s.outages),
            format!("{:?}", OutageStats::analyze(t, threshold_w))
        );
    }

    #[test]
    fn summaries_match_the_trace_accessors() {
        let traces = [
            PowerTrace::from_samples(1e-4, vec![]),
            PowerTrace::from_samples(1e-4, vec![0.0]),
            PowerTrace::from_samples(1e-4, vec![40e-6]),
            PowerTrace::from_segments(1e-3, &[(0.0, 0.01), (1e-3, 0.01), (0.0, 0.01)]),
            PowerTrace::from_segments(1e-4, &[(100e-6, 0.01), (0.0, 0.003), (50e-6, 0.005)]),
            PowerTrace::constant(1e-4, 1e-6, 0.1),
        ];
        for t in &traces {
            for threshold in [0.0, 33e-6, 1.0] {
                assert_summary_matches(t, threshold);
            }
        }
    }

    #[test]
    fn histogram_bins_sum() {
        let values = [0.001, 0.002, 0.010, 0.020, 0.020];
        let h = Histogram::of(&values, 4);
        assert_eq!(h.total(), 5);
        assert_eq!(h.counts.len(), 4);
        assert_eq!(h.bin_edges_s.len(), 4);
        // Max value lands in the last bin.
        assert!(h.counts[3] >= 2);
    }

    #[test]
    fn histogram_of_empty() {
        let h = Histogram::of(&[], 8);
        assert_eq!(h.total(), 0);
    }
}
