//! Task scheduler for the evaluation runner.
//!
//! [`par_map`] maps a function over a slice on scoped worker threads
//! and returns results in input order. Unlike the earlier fork-join
//! helper it is built around these ideas:
//!
//! * **One claim cursor per call, last task first.** Every worker of a
//!   call — the caller and each helper it recruits — claims the next
//!   task index from one shared atomic cursor, and retires once the
//!   cursor passes the end. Indices are handed out from the last to
//!   the first: a campaign's task list ends with the F1 profile
//!   series, about half of a warm campaign's work, so they start first
//!   and the short builders fill in behind them. Task *indices* are
//!   what move between threads, so the cursor carries no borrowed data
//!   and the whole scheduler is `forbid(unsafe_code)`-clean.
//!
//! * **One process-wide worker budget instead of nested pools.** The
//!   number of helper threads holding a budget token across *all*
//!   concurrent and nested [`par_map`] calls is bounded by
//!   `NVP_THREADS` (or hardware parallelism) minus one; see
//!   [`crate::par::thread_budget`]. A
//!   nested call — an experiment's point sweep running inside the
//!   campaign-level map — never spawns a fresh full-size pool: the
//!   calling worker always contributes work itself, and extra helpers
//!   are recruited **dynamically between tasks** only while budget
//!   tokens are free. When the wide part of the campaign drains and
//!   other workers retire, their tokens flow to whatever long-tail
//!   experiment (e.g. F12's Monte-Carlo trials) is still submitting
//!   fine-grained tasks, which is exactly the tail the old
//!   whole-experiment fan-out serialized.
//!
//! * **An idle caller lends its slot downward.** A helper retires and
//!   returns its token once it finds nothing to claim, but a caller
//!   cannot: it must wait at the join for its helpers. While it waits
//!   it lends its slot, and only [`par_map`] calls nested under that
//!   call may borrow it. Each call links a [`Lender`] to the one that
//!   encloses it on the current thread, and a recruiting call walks
//!   that chain upward before it asks the global budget. A borrowed
//!   slot is held by a helper of a call nested inside the lender's
//!   scope, so it is back before the lender's join returns: the waiting
//!   caller and its borrower never run at once, and running tasks stay
//!   within the budget.
//!
//! * **Pre-allocated per-index result slots.** Every task writes its
//!   result into its own pre-allocated slot — no shared `Mutex<Vec>`
//!   on the hot path, no final sort. Input order falls out of the slot
//!   indices, so parallel and sequential execution stay byte-identical
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
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Scope;

use crate::par::{thread_budget, thread_count};

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

/// Budget tokens: the helper threads holding one, across every
/// concurrent and nested [`par_map`] call that draws on the pool — the
/// enforcement point of the worker budget. Helpers on a lent slot do
/// not count here.
struct Pool {
    live: AtomicUsize,
}

/// The process-wide pool. Every outermost call draws on it, and a
/// nested call on its enclosing call's pool.
static POOL: Pool = Pool { live: AtomicUsize::new(0) };

/// Process-wide scheduler counters.
#[must_use]
pub fn sched_stats() -> SchedStats {
    SchedStats {
        tasks: TASKS.load(Ordering::Relaxed),
        steals: 0,
        helpers: HELPERS.load(Ordering::Relaxed),
    }
}

impl Pool {
    /// Claims one helper-thread token if the budget allows, i.e. fewer
    /// than `thread_budget() - 1` helpers are live.
    fn try_acquire(&self) -> bool {
        let limit = thread_budget().saturating_sub(1);
        let mut cur = self.live.load(Ordering::Relaxed);
        while cur < limit {
            match self.live.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
        false
    }
}

/// The slot a [`par_map`] caller lends while it waits at its join,
/// linked to the lender of the call that encloses it.
struct Lender {
    /// Whether the slot is free to borrow: set once the caller has
    /// nothing left to claim, cleared while a borrower holds it.
    lent: AtomicBool,
    /// The enclosing call's lender, or `None` at the outermost call.
    parent: Option<Arc<Lender>>,
    /// The pool this call and every call nested under it draw tokens
    /// from.
    pool: &'static Pool,
}

thread_local! {
    /// The innermost [`par_map`] call this thread is working for: the
    /// head of the chain a nested call links into and borrows along.
    static ENCLOSING: RefCell<Option<Arc<Lender>>> = const { RefCell::new(None) };
}

/// Makes `lender` the thread's innermost call until dropped, then
/// restores the previous one — also on unwind, so a panicking run
/// leaves no stale lender behind for the next call on this thread.
struct Enclosing(Option<Arc<Lender>>);

impl Enclosing {
    fn enter(lender: Arc<Lender>) -> Enclosing {
        Enclosing(ENCLOSING.replace(Some(lender)))
    }
}

impl Drop for Enclosing {
    fn drop(&mut self) {
        ENCLOSING.set(self.0.take());
    }
}

/// The slot a helper thread runs on; returned when the helper exits —
/// also on unwind, so a panicking worker can never leak budget.
enum Slot {
    /// A budget token of the pool.
    Budget(&'static Pool),
    /// A slot borrowed from an enclosing call's waiting caller.
    Lent(Arc<Lender>),
}

impl Slot {
    /// Borrows the nearest lent slot up the enclosing chain, else claims
    /// a token of `pool`.
    fn acquire(pool: &'static Pool) -> Option<Slot> {
        let lent = ENCLOSING.with_borrow(|head| {
            let mut node = head.as_ref();
            while let Some(lender) = node {
                if lender.lent.swap(false, Ordering::Relaxed) {
                    return Some(Slot::Lent(Arc::clone(lender)));
                }
                node = lender.parent.as_ref();
            }
            None
        });
        // Build `Slot::Budget` only once a token is claimed: dropping an
        // unclaimed one would hand back a token nobody took.
        lent.or_else(|| if pool.try_acquire() { Some(Slot::Budget(pool)) } else { None })
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        match self {
            Slot::Budget(pool) => {
                pool.live.fetch_sub(1, Ordering::Relaxed);
            }
            Slot::Lent(lender) => lender.lent.store(true, Ordering::Relaxed),
        }
    }
}

/// One `par_map` invocation: the task list, the claim cursor, and the
/// result slots. Shared by reference with every worker the call
/// recruits.
struct Run<'env, T, R, F> {
    items: &'env [T],
    f: &'env F,
    /// One slot per task index; each is locked at most twice (result
    /// store, final take), so there is no cross-task contention.
    slots: &'env [Mutex<Option<R>>],
    /// Claims handed out so far; claim `i` is task `len - 1 - i`.
    /// Recruiting stops once it reaches the task count — tasks already
    /// executing cannot be helped.
    next: AtomicUsize,
    /// Workers started so far, the caller included.
    started: AtomicUsize,
    /// Worker-slot cap for this call (`thread_count` of the task
    /// count).
    workers: usize,
    /// First panic payload caught in a worker; set together with
    /// [`Self::aborted`].
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Tells every worker to stop claiming tasks (a sibling panicked).
    aborted: AtomicBool,
    /// The slot this call's caller lends while it waits at the join.
    lender: Arc<Lender>,
}

impl<'env, T, R, F> Run<'env, T, R, F>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    fn new(
        items: &'env [T],
        f: &'env F,
        slots: &'env [Mutex<Option<R>>],
        workers: usize,
        lender: Arc<Lender>,
    ) -> Self {
        Run {
            items,
            f,
            slots,
            next: AtomicUsize::new(0),
            started: AtomicUsize::new(1),
            workers,
            panic: Mutex::new(None),
            aborted: AtomicBool::new(false),
            lender,
        }
    }

    /// The parked panic payload, if any worker panicked.
    fn into_panic(self) -> Option<Box<dyn Any + Send>> {
        self.panic.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Claims the next unclaimed task index, last index first; `None`
    /// once every task is claimed.
    fn claim(&self) -> Option<usize> {
        let len = self.items.len();
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < len).then(|| len - 1 - i)
    }

    /// Spawns one more helper if claimable work remains, a worker slot
    /// is open, and a slot is free: one lent by an enclosing call's
    /// waiting caller, or a process-wide budget token. Every worker
    /// calls this between tasks, so capacity freed elsewhere (an outer
    /// experiment finishing) is recruited into whatever call still has
    /// queued tasks.
    fn maybe_recruit<'scope>(&'scope self, scope: &'scope Scope<'scope, '_>) {
        if self.next.load(Ordering::Relaxed) >= self.items.len()
            || self.started.load(Ordering::Relaxed) >= self.workers
        {
            return;
        }
        let Some(slot) = Slot::acquire(self.lender.pool) else {
            return;
        };
        if self.started.fetch_add(1, Ordering::Relaxed) >= self.workers {
            // Lost the worker-slot race; dropping `slot` hands it back.
            return;
        }
        HELPERS.fetch_add(1, Ordering::Relaxed);
        scope.spawn(move || {
            let _slot = slot;
            let _enclosing = Enclosing::enter(Arc::clone(&self.lender));
            self.work(scope);
        });
    }

    /// A worker's main loop: claim, recruit, run; retires once every
    /// task is claimed or a sibling panicked.
    fn work<'scope>(&'scope self, scope: &'scope Scope<'scope, '_>) {
        while !self.aborted.load(Ordering::Relaxed) {
            let Some(i) = self.claim() else {
                return;
            };
            self.maybe_recruit(scope);
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
}

/// Maps `f` over `items` on the scheduler, preserving input order in
/// the output. The caller always participates; helper
/// threads are recruited from the process-wide budget, or from a slot
/// an enclosing call's idle caller lends, while spare capacity and
/// claimable tasks both exist. Once the caller has nothing left to
/// claim, it lends its own slot to the calls nested under its helpers
/// until they join. With a budget of one (or a single item) this
/// degrades to an inline sequential map with zero scheduling overhead,
/// which is also what every nested call does while the pool is
/// saturated.
pub(crate) fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    TASKS.fetch_add(items.len() as u64, Ordering::Relaxed);
    let workers = thread_count(items.len());
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    {
        let parent = ENCLOSING.with_borrow(Clone::clone);
        let pool = parent.as_ref().map_or(&POOL, |p| p.pool);
        let lender = Arc::new(Lender { lent: AtomicBool::new(false), parent, pool });
        let _enclosing = Enclosing::enter(Arc::clone(&lender));
        let run = Run::new(items, &f, &slots, workers, lender);
        std::thread::scope(|s| {
            run.work(s);
            // Nothing left to claim: lend this thread's slot while the
            // scope joins the helpers. Every borrower is a helper of a
            // call nested inside this scope, so it has handed the slot
            // back before the join returns, and nothing can reach the
            // lender after that.
            run.lender.lent.store(true, Ordering::Relaxed);
        });
        // The scope has joined every helper: either all slots are
        // written, or a worker parked a panic to re-raise here.
        if let Some(payload) = run.into_panic() {
            std::panic::resume_unwind(payload);
        }
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every claimed task stores its result")
        })
        .collect()
}

/// Maps `f` over `items` like [`par_map`], recording each item as a
/// one-item *lane group* in [`crate::stats::ExecStats`]. Same-program
/// work (Monte-Carlo trials, sweep points sharing a kernel) goes
/// through here so its dispatch shows in the execution counters. Each
/// item is its own scheduler task: wider groups left a nested sweep
/// only a few task boundaries at which to recruit a freed slot.
pub(crate) fn par_map_groups<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map(items, |item| {
        crate::stats::record_lane_group(1);
        f(item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::set_thread_override;

    use crate::par::test_override_lock as override_lock;

    /// Until the guard drops, the calls this thread makes draw helper
    /// tokens from a pool of their own: sibling tests' calls on the
    /// process-wide pool cannot hold the tokens a test counts on. The
    /// root lender never lends, so it only carries the pool.
    fn private_pool() -> Enclosing {
        let pool: &'static Pool = Box::leak(Box::new(Pool { live: AtomicUsize::new(0) }));
        Enclosing::enter(Arc::new(Lender { lent: AtomicBool::new(false), parent: None, pool }))
    }

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
    fn grouped_dispatch_preserves_order_and_counts_groups() {
        let _guard = override_lock();
        set_thread_override(Some(4));
        let items: Vec<u64> = (0..100).collect();
        let before = crate::stats::exec_stats();
        let out = par_map_groups(&items, |&x| {
            if x % 13 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(150));
            }
            x * 3
        });
        let delta = crate::stats::exec_stats().since(before);
        set_thread_override(None);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        // Every item is its own group. Other tests may record groups
        // concurrently, so the delta is a floor, not an exact count.
        assert!(delta.lane_groups >= 100, "{delta:?}");
        assert!(delta.lane_group_items >= 100, "{delta:?}");
    }

    #[test]
    fn grouped_dispatch_handles_empty_and_single() {
        assert_eq!(par_map_groups(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map_groups(&[41u32], |&x| x + 1), vec![42]);
        let items: Vec<u32> = (0..5).collect();
        assert_eq!(par_map_groups(&items, |&x| x), items);
    }

    #[test]
    fn a_caller_without_helpers_claims_the_last_task_first() {
        let _guard = override_lock();
        let _pool = private_pool();
        set_thread_override(Some(2));
        // Take the private pool's one helper token, so the caller runs
        // every task itself and the claim order is exactly the cursor's.
        let pool = ENCLOSING.with_borrow(|head| head.as_ref().expect("private pool").pool);
        assert!(pool.try_acquire(), "the private pool starts with its token free");
        let held = Slot::Budget(pool);
        let claims = Mutex::new(Vec::new());
        let items: Vec<usize> = (0..5).collect();
        let out = par_map(&items, |&i| {
            claims.lock().unwrap().push(i);
            i * 10
        });
        drop(held);
        set_thread_override(None);
        assert_eq!(out, vec![0, 10, 20, 30, 40], "results stay in input order");
        assert_eq!(claims.into_inner().unwrap(), vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn steal_heavy_randomized_costs_stay_ordered() {
        let _guard = override_lock();
        set_thread_override(Some(8));
        // Seeded LCG task costs: a few long poles early in the index
        // space force the other workers to steal the rest.
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
        assert_eq!(out, costs, "steal-heavy scheduling must not reorder results");
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

    /// Tracks how many leaf tasks run at once and on which threads.
    #[derive(Default)]
    struct Probe {
        live: AtomicUsize,
        max_live: AtomicUsize,
        threads: Mutex<Vec<std::thread::ThreadId>>,
    }

    impl Probe {
        /// Runs one leaf task of `iters` spin turns under the probe.
        fn task(&self, iters: u64) {
            let n = self.live.fetch_add(1, Ordering::SeqCst) + 1;
            self.max_live.fetch_max(n, Ordering::SeqCst);
            let id = std::thread::current().id();
            let mut threads = self.threads.lock().unwrap();
            if !threads.contains(&id) {
                threads.push(id);
            }
            drop(threads);
            spin(iters);
            self.live.fetch_sub(1, Ordering::SeqCst);
        }

        fn max_live(&self) -> usize {
            self.max_live.load(Ordering::SeqCst)
        }

        fn threads_used(&self) -> usize {
            self.threads.lock().unwrap().len()
        }
    }

    /// An outer map of [a task of `iters` spin turns, nested map of 16
    /// busy items]. Under budget 2 the caller takes the first and the
    /// one helper the second; with a short first task the nested map
    /// can only go wide on the caller's lent slot.
    fn task_beside_nested_sweep(first: &Probe, iters: u64, nested: &Probe) {
        let outer = [0u64, 1];
        par_map(&outer, |&o| {
            if o == 0 {
                first.task(iters);
            } else {
                let inner: Vec<u64> = (0..16).collect();
                par_map(&inner, |_| nested.task(2_000_000));
            }
        });
    }

    #[test]
    fn idle_caller_lends_its_slot_to_the_nested_sweep() {
        let _guard = override_lock();
        let _pool = private_pool();
        set_thread_override(Some(2));
        let short = Probe::default();
        let nested = Probe::default();
        task_beside_nested_sweep(&short, 200_000, &nested);
        set_thread_override(None);
        assert!(
            nested.threads_used() >= 2,
            "the nested sweep stayed on {} thread(s) while the caller idled",
            nested.threads_used()
        );
    }

    #[test]
    fn a_private_pool_ignores_tokens_held_on_the_process_pool() {
        let _guard = override_lock();
        set_thread_override(Some(2));
        // Stand in for a sibling test's helper: hold the process-wide
        // pool's only token under budget 2. Without a pool of its own
        // the sweep below could then recruit no helper at all.
        while !POOL.try_acquire() {
            std::thread::yield_now();
        }
        let held = Slot::Budget(&POOL);
        let pool = private_pool();
        let short = Probe::default();
        let nested = Probe::default();
        task_beside_nested_sweep(&short, 200_000, &nested);
        drop(pool);
        drop(held);
        set_thread_override(None);
        assert!(nested.threads_used() >= 2, "stayed on {} thread(s)", nested.threads_used());
    }

    #[test]
    fn lent_slot_never_exceeds_the_budget() {
        let _guard = override_lock();
        let _pool = private_pool();
        set_thread_override(Some(2));
        // One counter across both levels: the short task and every
        // nested item.
        let probe = Probe::default();
        for _ in 0..4 {
            task_beside_nested_sweep(&probe, 200_000, &probe);
        }
        set_thread_override(None);
        assert!(
            probe.max_live() <= 2,
            "budget exceeded: {} tasks ran concurrently under a budget of 2",
            probe.max_live()
        );
    }

    #[test]
    fn lending_leaks_no_slot_on_unwind() {
        let _guard = override_lock();
        let _pool = private_pool();
        set_thread_override(Some(2));
        // The nested sweep borrows the caller's lent slot, then one of
        // its items panics.
        let outer = [0u32, 1];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(&outer, |&o| {
                if o == 0 {
                    spin(200_000);
                } else {
                    let inner: Vec<u32> = (0..16).collect();
                    par_map(&inner, |&i| {
                        spin(2_000_000);
                        assert!(i != 12, "boom at 12");
                    });
                }
            })
        }));
        assert!(result.is_err(), "the nested panic must propagate");
        // Exactly one helper slot remains: two tasks run at once, never
        // three. A long first task keeps the caller from lending, so a
        // stale lent slot would show as a third task. The caller may
        // claim both outer items before its helper starts, so look for
        // the second task over a few rounds.
        let probe = Probe::default();
        for _ in 0..10 {
            task_beside_nested_sweep(&probe, 8_000_000, &probe);
            if probe.max_live() >= 2 {
                break;
            }
        }
        set_thread_override(None);
        assert!(probe.max_live() <= 2, "a slot leaked: {} tasks ran at once", probe.max_live());
        assert_eq!(probe.max_live(), 2, "the helper slot was lost");
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
    fn nested_calls_share_one_budget() {
        let _guard = override_lock();
        let _pool = private_pool();
        set_thread_override(Some(3));
        // 3 threads total => at most 2 helpers live across all nesting
        // levels, however deep the nested maps go.
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        static MAX_LIVE: AtomicUsize = AtomicUsize::new(0);
        let track = || {
            let n = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
            MAX_LIVE.fetch_max(n, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(100));
            LIVE.fetch_sub(1, Ordering::SeqCst);
        };
        let outer: Vec<u32> = (0..8).collect();
        let sums = par_map(&outer, |&o| {
            let inner: Vec<u32> = (0..8).collect();
            par_map(&inner, |&i| {
                track();
                o * 100 + i
            })
            .into_iter()
            .sum::<u32>()
        });
        set_thread_override(None);
        let expect: Vec<u32> = (0..8).map(|o| (0..8).map(|i| o * 100 + i).sum()).collect();
        assert_eq!(sums, expect);
        // Caller + 2 budget helpers = 3 concurrently running tasks max.
        assert!(
            MAX_LIVE.load(Ordering::SeqCst) <= 3,
            "budget exceeded: {} tasks ran concurrently under NVP_THREADS=3",
            MAX_LIVE.load(Ordering::SeqCst)
        );
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
