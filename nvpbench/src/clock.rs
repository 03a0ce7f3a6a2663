//! The benchmark's only clock reads. `nvp-lint` flags wall-clock use in
//! the tree because simulation and artifact code must not depend on
//! it; a benchmark's job is to read it, so the reads live here, each
//! marked, and the rest of the benchmark times through [`Stopwatch`].

/// A started monotonic timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(std::time::Instant); // nvp-lint: allow(wall-clock)

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Stopwatch {
        Stopwatch(std::time::Instant::now()) // nvp-lint: allow(wall-clock)
    }

    /// Seconds since [`start`](Self::start).
    #[must_use]
    pub fn secs(self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}
