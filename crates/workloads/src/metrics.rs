//! Output-quality metrics (MSE, PSNR).
//!
//! The NVP approximation literature reports quality as mean squared error
//! and peak signal-to-noise ratio against a full-precision baseline;
//! ≥20 dB is conventionally usable, ≥40 dB near-indistinguishable.

/// Mean squared error between two equal-length word sequences.
///
/// # Panics
///
/// Panics if lengths differ or both are empty.
///
/// # Example
///
/// ```
/// let mse = nvp_workloads::metrics::mse(&[0, 0], &[3, 4]);
/// assert!((mse - 12.5).abs() < 1e-12);
/// ```
#[must_use]
pub fn mse(a: &[u16], b: &[u16]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    assert!(!a.is_empty(), "empty inputs");
    let sum: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum();
    sum / a.len() as f64
}

/// Peak signal-to-noise ratio in dB, for signals with peak value `peak`
/// (255 for 8-bit imagery). Identical sequences yield `f64::INFINITY`.
///
/// # Panics
///
/// Panics if lengths differ, inputs are empty, or `peak <= 0`.
///
/// # Example
///
/// ```
/// let db = nvp_workloads::metrics::psnr(&[10, 20], &[10, 20], 255.0);
/// assert!(db.is_infinite());
/// let db = nvp_workloads::metrics::psnr(&[0; 100], &[5; 100], 255.0);
/// assert!(db > 30.0 && db < 40.0);
/// ```
#[must_use]
pub fn psnr(a: &[u16], b: &[u16], peak: f64) -> f64 {
    assert!(peak > 0.0, "peak must be positive");
    let e = mse(a, b);
    // Exact zero is the identical-input sentinel (PSNR = ∞), not a
    // tolerance question. nvp-lint: allow(float-eq)
    if e == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (peak * peak / e).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_basics() {
        assert_eq!(mse(&[1, 2, 3], &[1, 2, 3]), 0.0);
        assert_eq!(mse(&[0], &[10]), 100.0);
    }

    #[test]
    fn psnr_ordering() {
        let base = vec![100u16; 64];
        let slightly_off: Vec<u16> = base.iter().map(|&v| v + 1).collect();
        let very_off: Vec<u16> = base.iter().map(|&v| v + 50).collect();
        let good = psnr(&base, &slightly_off, 255.0);
        let bad = psnr(&base, &very_off, 255.0);
        assert!(good > 40.0, "{good}");
        assert!(bad < good);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = mse(&[1], &[1, 2]);
    }
}
