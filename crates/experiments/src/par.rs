//! Thread-count configuration for the work-stealing scheduler.
//!
//! The scheduler itself lives in [`crate::sched`]; this module owns the
//! single process-wide answer to "how many workers may run at once".
//! The budget can be forced/limited with the `NVP_THREADS` environment
//! variable, parsed **once** per process (so CI and users get one
//! deterministic answer no matter when the variable changes), or
//! programmatically with [`set_thread_override`], which always wins
//! over the environment. `NVP_THREADS=1` forces fully sequential,
//! inline execution.
//!
//! Nesting-awareness: the budget is *global*, not per `par_map` call. A
//! worker thread that calls back into the scheduler (an experiment's
//! point sweep running inside the campaign-level map) contributes its
//! own thread and draws any extra helpers from the same budget, instead
//! of spawning a fresh scoped pool the way the old fork-join helper did
//! — which is what oversubscribed 1-core hosts.
//!
//! Requested budgets are **clamped to the detected hardware
//! parallelism** by default: `NVP_THREADS=4` on a 1-core host runs one
//! worker instead of four threads time-slicing one core (the measured
//! `speedup_4t = 0.902` regression). Appending `!` (`NVP_THREADS=4!`)
//! or calling [`set_thread_override`] *forces* the count past the
//! clamp, for oversubscription testing and benchmark A/B runs.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Sentinel: `NVP_THREADS` not parsed yet.
const UNPARSED: usize = usize::MAX;
/// Sentinel: no override (use hardware parallelism).
const NO_OVERRIDE: usize = 0;

/// The resolved override, encoded as `n << 1 | forced`: `UNPARSED`
/// until first use, then `NO_OVERRIDE` or the encoded worker cap.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(UNPARSED);

/// Encodes a worker-count override into the atomic's representation.
fn encode(n: usize, forced: bool) -> usize {
    (n << 1) | usize::from(forced)
}

/// Parses an `NVP_THREADS` value: a positive integer caps the worker
/// count (`1` forces sequential execution), clamped to the detected
/// cores unless suffixed with `!` (`"4!"` forces genuine
/// oversubscription); anything else — unset, empty, zero, garbage —
/// means "no override". Returns `(count, forced)`.
pub(crate) fn parse_nvp_threads(value: Option<&str>) -> Option<(usize, bool)> {
    let s = value?.trim();
    let (s, forced) = match s.strip_suffix('!') {
        Some(rest) => (rest.trim_end(), true),
        None => (s, false),
    };
    s.parse::<usize>().ok().filter(|&n| n >= 1).map(|n| (n, forced))
}

/// Programmatically forces (or, with `None`, clears back to the
/// hardware default) the worker-count override, taking precedence over
/// `NVP_THREADS` and exempt from the hardware clamp. Benchmarks use
/// this to time sequential vs parallel runs in one process without
/// mutating the environment.
pub fn set_thread_override(threads: Option<usize>) {
    let v = match threads {
        Some(n) if n >= 1 => encode(n, true),
        _ => NO_OVERRIDE,
    };
    THREAD_OVERRIDE.store(v, Ordering::Relaxed);
}

/// Programmatically requests a worker-count cap that, like a plain
/// `NVP_THREADS=n`, still clamps to the detected hardware parallelism
/// (`None` clears back to the default).
#[cfg(test)]
fn set_thread_limit(threads: Option<usize>) {
    let v = match threads {
        Some(n) if n >= 1 => encode(n, false),
        _ => NO_OVERRIDE,
    };
    THREAD_OVERRIDE.store(v, Ordering::Relaxed);
}

/// The active override as `(count, forced)`: reads `NVP_THREADS` on
/// first call and caches the result for the life of the process.
fn thread_override() -> Option<(usize, bool)> {
    let decode = |v: usize| match v {
        NO_OVERRIDE => None,
        v => Some((v >> 1, v & 1 == 1)),
    };
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        UNPARSED => {
            let env = std::env::var("NVP_THREADS").ok();
            let parsed = parse_nvp_threads(env.as_deref());
            let v = parsed.map_or(NO_OVERRIDE, |(n, forced)| encode(n, forced));
            // Racing first calls parse the same environment and store
            // the same value, so last-write-wins is benign — unless a
            // `set_thread_override` landed in between, which must win.
            let _ =
                THREAD_OVERRIDE.compare_exchange(UNPARSED, v, Ordering::Relaxed, Ordering::Relaxed);
            decode(THREAD_OVERRIDE.load(Ordering::Relaxed))
        }
        v => decode(v),
    }
}

/// The process-wide worker budget: the override if set — clamped to the
/// detected hardware parallelism unless forced — else the hardware
/// parallelism. This bounds the total number of threads doing
/// scheduler work at any instant — the caller of the outermost
/// `par_map` plus every recruited helper, across all nesting levels.
#[must_use]
pub(crate) fn thread_budget() -> usize {
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    match thread_override() {
        Some((n, true)) => n.max(1),
        Some((n, false)) => n.min(hw).max(1),
        None => hw.max(1),
    }
}

/// Number of worker slots for `work` items: the smaller of the item
/// count and the process-wide budget (`NVP_THREADS` /
/// [`set_thread_override`]; `1` forces sequential execution). How many
/// of those slots actually get a thread depends on how much of the
/// budget is free at run time — see the `sched` module.
#[must_use]
pub(crate) fn thread_count(work: usize) -> usize {
    thread_budget().min(work).max(1)
}

/// Serializes every test (here and in `sched`) that mutates the
/// process-global thread override.
#[cfg(test)]
pub(crate) fn test_override_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::test_override_lock as override_lock;
    use super::*;

    #[test]
    fn thread_count_is_bounded() {
        // Sibling tests change the override between any two reads.
        let _guard = override_lock();
        assert_eq!(thread_count(0), 1);
        assert_eq!(thread_count(1), 1);
        assert!(thread_count(1000) >= 1);
        assert!(thread_count(1000) <= thread_budget());
    }

    #[test]
    fn parse_nvp_threads_accepts_positive_integers_only() {
        assert_eq!(parse_nvp_threads(None), None);
        assert_eq!(parse_nvp_threads(Some("")), None);
        assert_eq!(parse_nvp_threads(Some("0")), None);
        assert_eq!(parse_nvp_threads(Some("-3")), None);
        assert_eq!(parse_nvp_threads(Some("lots")), None);
        assert_eq!(parse_nvp_threads(Some("1.5")), None);
        assert_eq!(parse_nvp_threads(Some("1")), Some((1, false)));
        assert_eq!(parse_nvp_threads(Some(" 8 ")), Some((8, false)));
        assert_eq!(parse_nvp_threads(Some("64")), Some((64, false)));
    }

    #[test]
    fn parse_nvp_threads_bang_suffix_forces() {
        assert_eq!(parse_nvp_threads(Some("4!")), Some((4, true)));
        assert_eq!(parse_nvp_threads(Some(" 8! ")), Some((8, true)));
        assert_eq!(parse_nvp_threads(Some("0!")), None);
        assert_eq!(parse_nvp_threads(Some("!")), None);
        assert_eq!(parse_nvp_threads(Some("!4")), None);
    }

    #[test]
    fn override_beats_environment_and_clears() {
        let _guard = override_lock();
        // Other tests exercise `thread_count` concurrently; only probe
        // the explicit-override states, then restore the default.
        set_thread_override(Some(1));
        assert_eq!(thread_count(1000), 1);
        set_thread_override(Some(3));
        assert_eq!(thread_count(1000), 3);
        assert_eq!(thread_count(2), 2);
        set_thread_override(None);
        assert!(thread_count(1000) >= 1);
    }

    #[test]
    fn unforced_budget_clamps_to_detected_cores() {
        let _guard = override_lock();
        let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        // A plain (env-style) request far past the core count clamps.
        set_thread_limit(Some(hw * 4));
        assert_eq!(thread_budget(), hw, "unforced budget must cap at available parallelism");
        // At or below the core count it is honored as given.
        set_thread_limit(Some(1));
        assert_eq!(thread_budget(), 1);
        // A forced override is exempt from the clamp.
        set_thread_override(Some(hw * 4));
        assert_eq!(thread_budget(), hw * 4);
        set_thread_override(None);
        assert!(thread_budget() >= 1);
    }
}
