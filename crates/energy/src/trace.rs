//! Sampled harvested-power traces.

use std::fmt;
use std::io;

use serde::{Deserialize, Serialize};

/// Error returned when parsing a CSV trace fails: the 1-based line and
/// the offending CSV field, so a bad row in a long measured trace can be
/// found and fixed without bisecting the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    line: usize,
    field: &'static str,
    msg: String,
}

impl TraceError {
    fn new(line: usize, field: &'static str, msg: impl Into<String>) -> Self {
        TraceError { line, field, msg: msg.into() }
    }

    /// 1-based line of the offending record.
    #[must_use]
    pub fn line(&self) -> usize {
        self.line
    }

    /// The CSV field the error is about: `"time_s"`, `"power_w"`, or
    /// `"row"` for whole-record problems (e.g. an empty file).
    #[must_use]
    pub fn field(&self) -> &'static str {
        self.field
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}, field `{}`: {}", self.line, self.field, self.msg)
    }
}

impl std::error::Error for TraceError {}

/// `10^p` for every precision [`push_fixed`] writes exactly.
const POW10: [u64; 10] =
    [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000];

/// `"00" "01" … "99"`: two decimal digits per table lookup.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Scaled values at or above `2^51` skip the float fast path: there
/// `ulp(y) ≥ ½` and the fraction can no longer tell a tie apart.
const FAST_LIMIT: f64 = (1u64 << 51) as f64;

/// Appends `x` with `prec` decimals, byte-identical to
/// `format!("{x:.prec$}")`, without going through `core::fmt`.
///
/// On its exact domain (finite, sign bit clear, below 10⁹, `prec` ≤ 9)
/// the value is `m · 2^e` for an integer mantissa `m`, so `x · 10^prec`
/// is the integer `m · 10^prec` shifted by `e`. That product fits a
/// `u128` (under 2⁸³), the shifted-out bits decide round-half-to-even
/// exactly as std does, and the rounded result is below 10¹⁸, so its
/// digits come off a `u64`. Anything else falls back to `format!`.
///
/// Most values never reach the `u128` path. The float fast path
/// computes `y = fl(x · 10^prec)`, one correctly rounded product (the
/// power of ten is exact), so `|y − Y| ≤ ½ ulp(y)` for the exact
/// product `Y`. Below 2⁵¹ every integer is an `f64`, `y as u64`
/// truncates exactly and `f = y − trunc(y)` is exact (it is `y`'s low
/// bits). Rounding is monotone and `n = trunc(y)` is representable,
/// so `Y` and `y` lie on the same side of `n`, except that `y` may
/// round up onto `n + 1`, which only happens when `Y`'s fraction is
/// within half an ulp of 1 and `k = n + 1` is then the right answer.
/// Otherwise `Y` has integer part `n` and fraction within ½ ulp(y) of
/// `f`. When `|f − ½| > ulp(y)`, the fraction of `Y` is therefore
/// strictly on the same side of ½ as `f` (and never exactly ½), so
/// `k = n + (f > ½)` is `Y` rounded to nearest, ties being impossible.
/// Within one ulp of ½ the exact path decides; `f − ½` is exact there
/// (a multiple of ulp(y) below 1).
fn push_fixed(out: &mut Vec<u8>, x: f64, prec: usize) {
    if prec >= POW10.len() || !(x.is_sign_positive() && x < 1e9) {
        use std::io::Write as _;
        write!(out, "{x:.prec$}").expect("write to Vec");
        return;
    }
    let scaled = fast_scaled(x, prec).unwrap_or_else(|| exact_scaled(x, prec));
    push_scaled(out, scaled, prec);
}

/// `round_half_even(x · 10^prec)` from one `f64` product, or `None`
/// when the product is within one ulp of a tie or at least 2⁵¹ (see
/// [`push_fixed`] for why the answer is exact otherwise). `x` and
/// `prec` lie in [`push_fixed`]'s exact domain.
fn fast_scaled(x: f64, prec: usize) -> Option<u64> {
    // Every power of ten in `POW10` is below 2⁵³, so exact as an `f64`.
    let y = x * POW10[prec] as f64;
    if y >= FAST_LIMIT {
        return None;
    }
    // Exact: 0 ≤ y < 2⁵¹.
    let whole = y as u64;
    let frac = y - whole as f64;
    // ulp(y): y's exponent bits with a zero mantissa, times 2⁻⁵²
    // (0 for subnormal y, which lie far below ½).
    let ulp = f64::from_bits(y.to_bits() & 0x7ff0_0000_0000_0000) * f64::EPSILON;
    ((frac - 0.5).abs() > ulp).then(|| whole + u64::from(frac > 0.5))
}

/// `round_half_even(x · 10^prec)` computed exactly from `x`'s mantissa
/// and exponent; `x` and `prec` lie in [`push_fixed`]'s exact domain.
fn exact_scaled(x: f64, prec: usize) -> u64 {
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    let (mantissa, exp) =
        if biased == 0 { (fraction, -1074) } else { (fraction | 1 << 52, biased - 1075) };
    let scale = POW10[prec];
    if exp >= 0 {
        // An integer below 10⁹: the product stays below 10¹⁸.
        return (mantissa << exp) * scale;
    }
    let product = u128::from(mantissa) * u128::from(scale);
    let shift = exp.unsigned_abs();
    if shift >= 128 {
        // product < 2⁸³ ≤ half an ulp of the shift: rounds to zero.
        return 0;
    }
    let q = product >> shift;
    let rem = product & ((1u128 << shift) - 1);
    let half = 1u128 << (shift - 1);
    let up = rem > half || (rem == half && q & 1 == 1);
    u64::try_from(q + u128::from(up)).expect("below 10^18")
}

/// Appends `scaled / 10^prec` with exactly `prec` decimals, two digits
/// per step. `scaled` is below 10¹⁸, so the text fits in 20 bytes.
fn push_scaled(out: &mut Vec<u8>, scaled: u64, prec: usize) {
    fn pair(buf: &mut [u8; 20], at: &mut usize, rest: &mut u64) {
        let i = (*rest % 100) as usize * 2;
        *rest /= 100;
        *at -= 2;
        buf[*at..*at + 2].copy_from_slice(&DIGIT_PAIRS[i..i + 2]);
    }
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut rest = scaled;
    for _ in 0..prec / 2 {
        pair(&mut buf, &mut at, &mut rest);
    }
    if prec % 2 == 1 {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    if prec > 0 {
        at -= 1;
        buf[at] = b'.';
    }
    while rest >= 100 {
        pair(&mut buf, &mut at, &mut rest);
    }
    if rest >= 10 {
        pair(&mut buf, &mut at, &mut rest);
    } else {
        at -= 1;
        buf[at] = b'0' + rest as u8;
    }
    out.extend_from_slice(&buf[at..]);
}

/// A harvested-power trace: input power in watts, sampled every `dt_s`.
///
/// # Example
///
/// ```
/// use nvp_energy::PowerTrace;
///
/// let t = PowerTrace::from_samples(1e-4, vec![10e-6, 20e-6, 0.0, 40e-6]);
/// assert_eq!(t.len(), 4);
/// assert!((t.duration_s() - 4e-4).abs() < 1e-12);
/// assert!((t.average_w() - 17.5e-6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerTrace {
    dt_s: f64,
    samples: Vec<f64>,
}

impl PowerTrace {
    /// Creates a trace from raw samples.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is not positive or any sample is negative/NaN.
    #[must_use]
    pub fn from_samples(dt_s: f64, samples: Vec<f64>) -> Self {
        assert!(dt_s > 0.0, "sample period must be positive");
        assert!(
            samples.iter().all(|p| p.is_finite() && *p >= 0.0),
            "power samples must be finite and non-negative"
        );
        PowerTrace { dt_s, samples }
    }

    /// Creates a constant-power trace of the given duration.
    #[must_use]
    pub fn constant(dt_s: f64, power_w: f64, duration_s: f64) -> Self {
        let n = (duration_s / dt_s).round() as usize;
        Self::from_samples(dt_s, vec![power_w; n])
    }

    /// Builds a trace from `(power_w, duration_s)` segments.
    ///
    /// # Example
    ///
    /// ```
    /// use nvp_energy::PowerTrace;
    /// let t = PowerTrace::from_segments(1e-3, &[(100e-6, 0.01), (0.0, 0.005)]);
    /// assert_eq!(t.len(), 15);
    /// ```
    #[must_use]
    pub fn from_segments(dt_s: f64, segments: &[(f64, f64)]) -> Self {
        let mut samples = Vec::new();
        for &(power, duration) in segments {
            let n = (duration / dt_s).round() as usize;
            samples.extend(std::iter::repeat_n(power, n));
        }
        Self::from_samples(dt_s, samples)
    }

    /// The sampling period in seconds.
    #[must_use]
    pub fn dt_s(&self) -> f64 {
        self.dt_s
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the trace has no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total duration in seconds.
    #[must_use]
    pub fn duration_s(&self) -> f64 {
        self.dt_s * self.samples.len() as f64
    }

    /// The raw samples, watts.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Power at sample index `i`, or 0 beyond the end.
    #[must_use]
    pub fn power_at(&self, i: usize) -> f64 {
        self.samples.get(i).copied().unwrap_or(0.0)
    }

    /// Mean power over the whole trace, watts.
    #[must_use]
    pub fn average_w(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Peak power, watts.
    #[must_use]
    pub fn peak_w(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// Total harvested energy over the trace, joules (before conversion
    /// losses).
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.samples.iter().sum::<f64>() * self.dt_s
    }

    /// Serializes as two-column CSV (`time_s,power_w`) with a header row:
    /// times to 6 decimals, powers to 9, byte-identical to
    /// `format!("{:.6},{:.9}")` on every row. The text is
    /// [`write_csv`](Self::write_csv)'s.
    #[must_use]
    pub fn to_csv(&self) -> String {
        // "0.000100,0.000012345\n" is 21 bytes; longer rows only grow.
        let mut out = Vec::with_capacity(self.samples.len() * 24 + 16);
        self.write_csv(&mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("the CSV writer emits ASCII")
    }

    /// Streams [`to_csv`](Self::to_csv)'s text into `out`, a block of
    /// rows at a time, so a file costs one small buffer rather than the
    /// whole text (about 21 bytes per sample).
    ///
    /// # Errors
    ///
    /// Any error `out` returns.
    pub fn write_csv<W: io::Write>(&self, mut out: W) -> io::Result<()> {
        const BLOCK_ROWS: usize = 4096;
        let mut buf = Vec::with_capacity(BLOCK_ROWS * 24);
        buf.extend_from_slice(b"time_s,power_w\n");
        for (block, chunk) in self.samples.chunks(BLOCK_ROWS).enumerate() {
            for (j, &p) in chunk.iter().enumerate() {
                push_fixed(&mut buf, (block * BLOCK_ROWS + j) as f64 * self.dt_s, 6);
                buf.push(b',');
                push_fixed(&mut buf, p, 9);
                buf.push(b'\n');
            }
            out.write_all(&buf)?;
            buf.clear();
        }
        out.write_all(&buf)
    }

    /// Parses the CSV produced by [`to_csv`](Self::to_csv).
    ///
    /// The sample period is inferred from the first two timestamps; a
    /// single-sample trace uses `dt_s = 1e-4`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on malformed rows or negative power.
    pub fn from_csv(text: &str) -> Result<Self, TraceError> {
        let mut times = Vec::new();
        let mut powers = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || (i == 0 && line.starts_with("time")) {
                continue;
            }
            let mut cols = line.split(',');
            let t: f64 = cols
                .next()
                .ok_or_else(|| TraceError::new(i + 1, "time_s", "missing time column"))?
                .trim()
                .parse()
                .map_err(|e| TraceError::new(i + 1, "time_s", format!("bad time: {e}")))?;
            let p: f64 = cols
                .next()
                .ok_or_else(|| TraceError::new(i + 1, "power_w", "missing power column"))?
                .trim()
                .parse()
                .map_err(|e| TraceError::new(i + 1, "power_w", format!("bad power: {e}")))?;
            if !p.is_finite() || p < 0.0 {
                return Err(TraceError::new(i + 1, "power_w", format!("invalid power {p}")));
            }
            times.push(t);
            powers.push(p);
        }
        if powers.is_empty() {
            return Err(TraceError::new(1, "row", "no samples"));
        }
        let dt = if times.len() >= 2 { (times[1] - times[0]).abs() } else { 1e-4 };
        if dt <= 0.0 {
            return Err(TraceError::new(2, "time_s", "non-increasing timestamps"));
        }
        Ok(PowerTrace { dt_s: dt, samples: powers })
    }

    /// Returns a sub-trace covering `[start_s, start_s + duration_s)`.
    #[must_use]
    pub fn slice(&self, start_s: f64, duration_s: f64) -> PowerTrace {
        let from = ((start_s / self.dt_s).round() as usize).min(self.samples.len());
        let to = (((start_s + duration_s) / self.dt_s).round() as usize).min(self.samples.len());
        PowerTrace { dt_s: self.dt_s, samples: self.samples[from..to].to_vec() }
    }

    /// Returns the trace with every sample scaled by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> PowerTrace {
        assert!(factor >= 0.0, "scale factor must be non-negative");
        PowerTrace { dt_s: self.dt_s, samples: self.samples.iter().map(|p| p * factor).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_and_metrics() {
        let t = PowerTrace::from_segments(1e-4, &[(100e-6, 0.01), (0.0, 0.01)]);
        assert_eq!(t.len(), 200);
        assert!((t.average_w() - 50e-6).abs() < 1e-12);
        assert!((t.peak_w() - 100e-6).abs() < 1e-15);
        assert!((t.total_energy_j() - 100e-6 * 0.01).abs() < 1e-12);
    }

    #[test]
    fn csv_round_trip() {
        let t = PowerTrace::from_samples(1e-4, vec![1e-6, 2e-6, 0.0, 1.5e-3]);
        let parsed = PowerTrace::from_csv(&t.to_csv()).unwrap();
        assert_eq!(parsed.len(), t.len());
        assert!((parsed.dt_s() - t.dt_s()).abs() < 1e-12);
        for (a, b) in parsed.samples().iter().zip(t.samples()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    fn fixed(x: f64, prec: usize) -> String {
        let mut out = Vec::new();
        push_fixed(&mut out, x, prec);
        String::from_utf8(out).unwrap()
    }

    fn assert_matches_std(x: f64) {
        assert_eq!(fixed(x, 6), format!("{x:.6}"), "{x:e} ({:#018x}) at 6", x.to_bits());
        assert_eq!(fixed(x, 9), format!("{x:.9}"), "{x:e} ({:#018x}) at 9", x.to_bits());
    }

    #[test]
    fn fixed_writer_rounds_exact_ties_to_even() {
        assert_eq!(fixed(0.0078125, 6), "0.007812");
        assert_eq!(fixed(3.0 / 128.0, 6), "0.023438");
        assert_eq!(fixed(0.5, 0), "0");
        assert_eq!(fixed(1.5, 0), "2");
        assert_eq!(fixed(2.5, 0), "2");
        // 2⁻¹⁰ = 0.0009765625 is an exact tie at 9 decimals.
        assert_eq!(fixed(1.0 / 1024.0, 9), "0.000976562");
        for k in 1..=40 {
            for num in [1.0, 3.0, 5.0, 7.0, 123.0, 999_999.0] {
                assert_matches_std(num / f64::from(2u32).powi(k));
            }
        }
    }

    #[test]
    fn fixed_writer_matches_std_at_the_edges() {
        let cases = [
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            5e-7,
            4.999_999_999_999_999e-7,
            5e-10,
            0.999_999_5,
            0.999_999_999_5,
            1.0,
            9.999_999_5,
            123_456.789_012_345,
            999_999_999.999_999_9,
            // Large times: 10⁵ s at a 0.1 ms step, and 2⁵² + 1.
            1e5 - 1e-4,
            4_503_599_627_370_497.0 / 8_388_608.0,
        ];
        for x in cases {
            assert_matches_std(x);
        }
        // Seeded bit patterns across the exact domain.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let x = f64::from_bits(state >> 1);
            if x < 1e9 {
                assert_matches_std(x);
            }
            assert_matches_std(f64::from_bits(state >> 1 >> 12 | 0x3f00_0000_0000_0000));
        }
    }

    #[test]
    fn fixed_writer_falls_back_outside_its_domain() {
        for x in [-0.0, -1.5, 1e9, 2.5e15, f64::MAX, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(fixed(x, 6), format!("{x:.6}"));
            assert_eq!(fixed(x, 9), format!("{x:.9}"));
        }
        assert_eq!(fixed(1.25, 12), format!("{:.12}", 1.25));
    }

    #[test]
    fn csv_rows_match_std_formatting() {
        let hand = PowerTrace::from_samples(1e-4, vec![0.0, 1e-6, 0.0078125, 2.0e-3, 1.234_5e-5]);
        assert_csv_matches_std(&hand);
        assert_csv_matches_std(&crate::harvester::SourceKind::WristWatch.generate(3, 1.0));
    }

    fn assert_csv_matches_std(t: &PowerTrace) {
        let mut expect = String::from("time_s,power_w\n");
        for (i, p) in t.samples().iter().enumerate() {
            use std::fmt::Write as _;
            writeln!(expect, "{:.6},{:.9}", i as f64 * t.dt_s(), p).unwrap();
        }
        assert_eq!(t.to_csv(), expect);
    }

    /// Decimal ties such as `d.5e-6` are not `f64`s, so `x · 10^p`
    /// lands within one ulp of the tie, and only the exact path knows
    /// which side of it `x` lies on.
    #[test]
    fn near_ties_take_the_exact_path() {
        for prec in [6, 9] {
            for d in (0..2_000u32).chain([123_456, 999_999, 7_812]) {
                let x = (f64::from(d) + 0.5) / POW10[prec] as f64;
                assert_eq!(fast_scaled(x, prec), None, "{x:e} at {prec}");
                assert_matches_std(x);
            }
        }
        // Exact binary ties: 2⁻⁷ · 10⁶ = 7812.5, 2⁻¹⁰ · 10⁹ = 976562.5.
        assert_eq!(fast_scaled(0.0078125, 6), None);
        assert_eq!(fast_scaled(1.0 / 1024.0, 9), None);
        // One ulp above 2⁻⁷ scales to two ulps above its tie: fast.
        let above = f64::from_bits(0.0078125f64.to_bits() + 1);
        assert_eq!(fast_scaled(above, 6), Some(7813));
        assert_matches_std(above);
    }

    #[test]
    fn fast_path_domain_edges() {
        // At 9 decimals the fast path ends at x · 10⁹ = 2⁵¹, inside the
        // exact domain; find the last `x` below it and the first at it.
        let mut x = FAST_LIMIT / 1e9;
        while x * 1e9 >= FAST_LIMIT {
            x = f64::from_bits(x.to_bits() - 1);
        }
        let outside = f64::from_bits(x.to_bits() + 1);
        assert_eq!(fast_scaled(outside, 9), None, "{outside:e}");
        // Just below 2⁵¹ an ulp is ¼, so only whole products are fast.
        let inside: Vec<f64> = (0..16).map(|back| f64::from_bits(x.to_bits() - back)).collect();
        assert!(inside.iter().any(|&v| fast_scaled(v, 9).is_some()));
        for v in inside.into_iter().chain([outside, f64::from_bits(outside.to_bits() + 1)]) {
            assert_matches_std(v);
        }
        // At 6 decimals the whole exact domain is fast, up to 10⁹.
        let below_1e9 = f64::from_bits(1e9f64.to_bits() - 1);
        assert!(fast_scaled(below_1e9, 6).is_some());
        for v in [below_1e9, 1e9] {
            assert_matches_std(v);
        }
    }

    #[test]
    fn zeros_and_subnormals_match_std() {
        assert_eq!(fast_scaled(0.0, 6), Some(0));
        for x in [0.0, -0.0, f64::from_bits(1), f64::from_bits(0x000f_ffff_ffff_ffff)] {
            assert_matches_std(x);
        }
        for bits in [2u64, 3, 1 << 20, 1 << 51, (1 << 52) - 2] {
            assert_matches_std(f64::from_bits(bits));
            assert_eq!(fast_scaled(f64::from_bits(bits), 9), Some(0));
        }
    }

    #[test]
    fn every_source_profile_csv_matches_std() {
        use crate::harvester::SourceKind;
        for kind in SourceKind::ALL {
            for seed in 1..=5 {
                assert_csv_matches_std(&kind.generate(seed, 10.0));
            }
        }
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(PowerTrace::from_csv("").is_err());
        assert!(PowerTrace::from_csv("time_s,power_w\n0.0,abc").is_err());
        assert!(PowerTrace::from_csv("0.0,-1.0").is_err());
    }

    #[test]
    fn csv_errors_pinpoint_line_and_field() {
        // Bad power value on (1-based) line 3, in the power column.
        let e = PowerTrace::from_csv("time_s,power_w\n0.0,1e-6\n0.0001,abc").unwrap_err();
        assert_eq!(e.line(), 3);
        assert_eq!(e.field(), "power_w");
        assert!(e.to_string().contains("line 3"), "{e}");
        assert!(e.to_string().contains("power_w"), "{e}");

        // Unparsable timestamp on line 2, time column.
        let e = PowerTrace::from_csv("time_s,power_w\nxyz,1e-6").unwrap_err();
        assert_eq!((e.line(), e.field()), (2, "time_s"));

        // A row missing the power column entirely.
        let e = PowerTrace::from_csv("time_s,power_w\n0.0").unwrap_err();
        assert_eq!((e.line(), e.field()), (2, "power_w"));

        // Negative power is rejected with the value in the message.
        let e = PowerTrace::from_csv("time_s,power_w\n0.0,-1.0").unwrap_err();
        assert_eq!((e.line(), e.field()), (2, "power_w"));
        assert!(e.to_string().contains("-1"), "{e}");

        // An empty file is a whole-record problem.
        let e = PowerTrace::from_csv("time_s,power_w\n").unwrap_err();
        assert_eq!((e.line(), e.field()), (1, "row"));

        // Duplicate timestamps make dt non-positive.
        let e = PowerTrace::from_csv("time_s,power_w\n0.0,1e-6\n0.0,1e-6").unwrap_err();
        assert_eq!((e.line(), e.field()), (2, "time_s"));
    }

    #[test]
    fn slice_extracts_window() {
        let t = PowerTrace::from_segments(1e-3, &[(1.0, 0.01), (2.0, 0.01)]);
        let s = t.slice(0.008, 0.004);
        assert_eq!(s.len(), 4);
        assert_eq!(s.samples(), &[1.0, 1.0, 2.0, 2.0]);
        // Out-of-range slice clamps.
        assert_eq!(t.slice(1.0, 1.0).len(), 0);
    }

    #[test]
    fn scaled_multiplies() {
        let t = PowerTrace::from_samples(1e-4, vec![1e-6, 3e-6]);
        let s = t.scaled(2.0);
        assert_eq!(s.samples(), &[2e-6, 6e-6]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_scale_panics() {
        let _ = PowerTrace::from_samples(1e-4, vec![1e-6]).scaled(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_sample_panics() {
        let _ = PowerTrace::from_samples(1e-4, vec![-1.0]);
    }
}
