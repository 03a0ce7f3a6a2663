//! Task scheduler for evaluation campaigns.
//!
//! [`par_map`] maps a function over a slice on scoped worker threads
//! and returns results in input order. A campaign calls it once, over
//! the flat list of every simulation its experiments plan (see
//! [`crate::plan`]), so it needs no nesting machinery:
//!
//! * **One claim cursor per call, in list order.** Every worker of a
//!   call, the caller included, claims the next task index from one
//!   shared atomic cursor and retires once the cursor passes the end.
//!   The caller orders the list; a campaign puts its longest entries
//!   first. Task *indices* are what move between threads, so the
//!   cursor carries no borrowed data and the scheduler is
//!   `forbid(unsafe_code)`-clean.
//!
//! * **One wide call at a time.** A call spawns up to
//!   `NVP_THREADS` (or hardware parallelism) minus one helpers; see
//!   [`crate::par::thread_budget`]. A call made while another is
//!   running wide, from one of its tasks or from a concurrent job,
//!   runs inline on its caller's thread, so the host is never
//!   oversubscribed and no pool of tokens is needed.
//!
//! * **Pre-allocated per-index result slots.** Every task writes its
//!   result into its own slot, so input order falls out of the slot
//!   indices and parallel and sequential execution stay byte-identical
//!   no matter which worker claimed which task.
//!
//! A panic inside the mapped function propagates to the caller with
//! its **original payload**: each worker catches the unwind, the first
//! payload is parked, every worker stops claiming tasks, and after the
//! scope joins the helpers the caller resumes the unwind. (Letting a
//! helper's panic reach the scope instead would replace the payload
//! with a generic "a scoped thread panicked".) Result-slot locks are
//! recovered from poisoning for the same reason.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::par::thread_count;

/// Scheduler counters since process start (monotone; see
/// [`sched_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Tasks submitted through the scheduler (including inline runs).
    pub tasks: u64,
    /// Always 0: every worker of a call claims from one shared cursor,
    /// so no task is taken from another worker. Kept only because the
    /// `Result` frame and the benchmark still carry it.
    pub steals: u64,
    /// Helper threads spawned.
    pub helpers: u64,
}

impl SchedStats {
    /// Counter-wise difference `self - earlier` (saturating), for
    /// per-run deltas against the process-wide counters.
    #[must_use]
    pub fn since(self, earlier: SchedStats) -> SchedStats {
        SchedStats {
            tasks: self.tasks.saturating_sub(earlier.tasks),
            steals: self.steals.saturating_sub(earlier.steals),
            helpers: self.helpers.saturating_sub(earlier.helpers),
        }
    }
}

static TASKS: AtomicU64 = AtomicU64::new(0);
static HELPERS: AtomicU64 = AtomicU64::new(0);

/// Set while a call runs wide; every call made meanwhile runs inline.
static WIDE: AtomicBool = AtomicBool::new(false);

/// Process-wide scheduler counters.
#[must_use]
pub fn sched_stats() -> SchedStats {
    SchedStats {
        tasks: TASKS.load(Ordering::Relaxed),
        steals: 0,
        helpers: HELPERS.load(Ordering::Relaxed),
    }
}

/// Clears [`WIDE`] when the wide call ends, also on unwind.
struct Wide;

impl Drop for Wide {
    fn drop(&mut self) {
        WIDE.store(false, Ordering::Release);
    }
}

/// One `par_map` invocation: the task list, the claim cursor, and the
/// result slots, shared by reference with every worker.
struct Run<'env, T, R, F> {
    items: &'env [T],
    f: &'env F,
    /// One slot per task index; each is locked at most twice (result
    /// store, final take), so there is no cross-task contention.
    slots: Vec<Mutex<Option<R>>>,
    /// Claims handed out so far; claim `i` is task `i`.
    next: AtomicUsize,
    /// First panic payload caught in a worker; set together with
    /// [`Self::aborted`].
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Tells every worker to stop claiming tasks (a sibling panicked).
    aborted: AtomicBool,
}

impl<'env, T, R, F> Run<'env, T, R, F>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    fn new(items: &'env [T], f: &'env F) -> Self {
        Run {
            items,
            f,
            slots: (0..items.len()).map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
            aborted: AtomicBool::new(false),
        }
    }

    /// Claims the next unclaimed task index; `None` once every task is
    /// claimed.
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.items.len()).then_some(i)
    }

    /// A worker's main loop: claim, run, store; retires once every task
    /// is claimed or a sibling panicked.
    fn work(&self) {
        while !self.aborted.load(Ordering::Relaxed) {
            let Some(i) = self.claim() else {
                return;
            };
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (self.f)(&self.items[i])
            })) {
                Ok(r) => {
                    // A slot is written exactly once: the cursor hands
                    // out each index exactly once.
                    *self.slots[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
                        Some(r);
                }
                Err(payload) => {
                    // Park the first payload; the caller re-raises it
                    // after the scope joins every helper.
                    let mut slot =
                        self.panic.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    slot.get_or_insert(payload);
                    drop(slot);
                    self.aborted.store(true, Ordering::Relaxed);
                    return;
                }
            }
        }
    }

    /// Every task's result in input order, or the parked panic.
    fn finish(self) -> Vec<R> {
        let panic = self.panic.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        self.slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .expect("every claimed task stores its result")
            })
            .collect()
    }
}

/// Maps `f` over `items` on the scheduler, preserving input order in
/// the output. Workers claim tasks in list order: the caller and up to
/// `thread_budget() - 1` helpers. With a budget of one, a single item,
/// or another call already running wide (this one is then nested in
/// its task or runs beside it in a concurrent job), the map runs
/// inline on the calling thread.
pub(crate) fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    TASKS.fetch_add(items.len() as u64, Ordering::Relaxed);
    let workers = thread_count(items.len());
    if workers <= 1 || WIDE.swap(true, Ordering::Acquire) {
        return items.iter().map(&f).collect();
    }
    let _wide = Wide;
    let run = Run::new(items, &f);
    std::thread::scope(|s| {
        for _ in 1..workers {
            HELPERS.fetch_add(1, Ordering::Relaxed);
            s.spawn(|| run.work());
        }
        run.work();
    });
    run.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::set_thread_override;

    use crate::par::test_override_lock as override_lock;

    #[test]
    fn preserves_input_order() {
        let _guard = override_lock();
        set_thread_override(Some(4));
        let items: Vec<u64> = (0..100).collect();
        // Uneven per-item cost to scramble completion order.
        let out = par_map(&items, |&x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            x * 2
        });
        set_thread_override(None);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[41], |&x| x + 1), vec![42]);
    }

    #[test]
    fn the_cursor_hands_out_tasks_in_list_order() {
        let items = [10u32, 20, 30];
        let f = |&x: &u32| x;
        let run = Run::new(&items, &f);
        let claims: Vec<Option<usize>> = (0..5).map(|_| run.claim()).collect();
        assert_eq!(claims, [Some(0), Some(1), Some(2), None, None]);
    }

    #[test]
    fn steal_heavy_randomized_costs_stay_ordered() {
        let _guard = override_lock();
        set_thread_override(Some(8));
        // Seeded LCG task costs: long and short tasks mixed, so the
        // workers finish out of claim order.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let costs: Vec<u64> = (0..64)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state >> 56
            })
            .collect();
        // Count this call's own invocations: the process-wide task
        // counter also moves with sibling tests' scheduling.
        let calls = AtomicUsize::new(0);
        let out = par_map(&costs, |&c| {
            calls.fetch_add(1, Ordering::Relaxed);
            spin(c * 2_000);
            c
        });
        set_thread_override(None);
        assert_eq!(out, costs, "uneven costs must not reorder results");
        assert_eq!(calls.load(Ordering::Relaxed), 64, "every task runs exactly once");
    }

    /// Busy-spins for about `iters` loop turns, so a task keeps its thread
    /// busy the way a simulation does (sleep would just idle it).
    fn spin(iters: u64) {
        let mut acc = 0u64;
        for i in 0..iters {
            acc = acc.wrapping_add(i ^ iters);
        }
        std::hint::black_box(acc);
    }

    #[test]
    fn panic_in_task_propagates() {
        let _guard = override_lock();
        set_thread_override(Some(4));
        let items: Vec<u32> = (0..32).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(&items, |&x| {
                assert!(x != 17, "boom at 17");
                x
            })
        }));
        set_thread_override(None);
        let err = result.expect_err("worker panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        assert!(msg.contains("boom at 17"), "original panic payload lost: {msg}");
    }

    #[test]
    fn a_nested_call_runs_inline_on_its_worker() {
        let _guard = override_lock();
        set_thread_override(Some(4));
        // Each outer task records its thread and the threads its nested
        // call's items ran on. A concurrent test may hold the wide slot
        // when an outer call starts, so that call runs inline and its
        // nested calls may go wide; retry until an outer call spans
        // several threads, i.e. ran wide itself.
        for attempt in 0.. {
            let outer: Vec<u32> = (0..8).collect();
            let seen = par_map(&outer, |&o| {
                spin(2_000_000);
                let inner: Vec<u32> = (0..8).collect();
                let threads = par_map(&inner, |_| std::thread::current().id());
                (std::thread::current().id(), threads, o)
            });
            if seen.iter().all(|(t, _, _)| *t == seen[0].0) {
                assert!(attempt < 10_000, "no outer call ever ran wide");
                continue;
            }
            for (thread, inner, o) in &seen {
                assert!(
                    inner.iter().all(|t| t == thread),
                    "outer task {o}: its nested call left its worker thread"
                );
            }
            break;
        }
        set_thread_override(None);
    }

    #[test]
    fn sequential_override_runs_inline() {
        let _guard = override_lock();
        set_thread_override(Some(1));
        let before = sched_stats();
        let items: Vec<u32> = (0..10).collect();
        let out = par_map(&items, |&x| x * 3);
        let after = sched_stats();
        set_thread_override(None);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        let delta = after.since(before);
        assert_eq!(delta.tasks, 10);
        assert_eq!(delta.helpers, 0, "NVP_THREADS=1 must never spawn helpers");
    }
}
