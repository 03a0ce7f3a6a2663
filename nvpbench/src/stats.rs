//! Order statistics for benchmark samples.
//!
//! Timings are reported as a median plus the highest percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it. A named
//! percentile such as `job_p90_s` is only ever computed when the run
//! has enough samples for it; a short run is an error, never a lower
//! percentile under the same name.

/// Samples a tail percentile must leave beyond itself to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count), or
/// `None` for no samples.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method (the default of
/// Python's `statistics.quantiles(data, n=4)`), or `None` below two
/// samples.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Samples strictly beyond percentile `p` under the nearest-rank rule.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Percentile `p` (0–100] by nearest rank, provided at least
/// [`TAIL_MIN_BEYOND`] samples lie beyond it.
///
/// # Errors
///
/// A message naming the sample count when the run is too short.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    if n == 0 || beyond(n, p) < TAIL_MIN_BEYOND {
        return Err(format!(
            "p{p} needs at least {TAIL_MIN_BEYOND} samples beyond it; the run has {n} sample(s)"
        ));
    }
    Ok(sorted(samples)[rank(n, p) - 1])
}

/// The highest of p99.9, p99, p90 and p50 that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as `(percentile, value)`.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    TAIL_CANDIDATES.iter().find_map(|&p| percentile(samples, p).ok().map(|v| (p, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Ok(90.0));
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        let err = percentile(&short, 90.0).unwrap_err();
        assert!(err.contains("99 sample"), "{err}");
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn tail_picks_the_highest_supported_percentile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 135.0)));
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 15.0)));
        assert_eq!(tail(&[1.0, 2.0, 3.0]), None);
    }
}
