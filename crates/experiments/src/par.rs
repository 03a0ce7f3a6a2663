//! Thread-count configuration for the task scheduler.
//!
//! The scheduler itself lives in [`crate::sched`]; this module owns the
//! single process-wide answer to "how many workers may run at once":
//! the count given to [`set_thread_override`], else the hardware
//! parallelism, read once per process. The scheduler reads no
//! environment variable; the `repro` and `nvpd` binaries map
//! `NVP_THREADS` onto the override (see [`crate::cli::nvp_threads`]).
//! An override of `1` forces fully sequential, inline execution.
//!
//! The budget is *global*, not per `par_map` call: one call at a time
//! runs wide on it, and a call made meanwhile (nested in one of its
//! tasks, or in a concurrent job) runs inline on its caller's thread,
//! so a 1-core host is never oversubscribed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The worker-count override; `0` means none (use the hardware
/// parallelism).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets the worker budget to exactly `threads` workers, or with `None`
/// (or `Some(0)`) clears it back to the hardware parallelism.
/// Benchmarks use this to time sequential vs parallel runs in one
/// process.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// The process-wide worker budget: the override if set, else the
/// hardware parallelism. It bounds the threads of the one `par_map`
/// call running wide: its caller plus its helpers.
#[must_use]
pub(crate) fn thread_budget() -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => *HARDWARE.get_or_init(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }),
        n => n,
    }
}

/// Number of workers for `work` items: the smaller of the item count
/// and the process-wide budget ([`set_thread_override`]; `1` forces
/// sequential execution).
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
    fn override_sets_exact_budget_and_clears() {
        let _guard = override_lock();
        // Other tests exercise `thread_count` concurrently; only probe
        // the explicit-override states, then restore the default.
        set_thread_override(Some(1));
        assert_eq!(thread_count(1000), 1);
        set_thread_override(Some(3));
        assert_eq!(thread_count(1000), 3);
        assert_eq!(thread_count(2), 2);
        // No clamp to the detected cores: N means exactly N.
        let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        set_thread_override(Some(hw * 4));
        assert_eq!(thread_budget(), hw * 4);
        set_thread_override(Some(0));
        assert_eq!(thread_budget(), hw);
        set_thread_override(None);
        assert_eq!(thread_budget(), hw);
    }
}
