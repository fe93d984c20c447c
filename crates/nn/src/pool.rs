//! One process-wide pool of helper threads for the kernels' and layers'
//! splits.
//!
//! A split hands the pool an exact-size iterator of independent shares and
//! a closure to run on each ([`for_each`]). The calling thread always works
//! on the shares itself; up to `budget − 1` helper threads join it, where
//! `budget` is the [`crate::kernels::set_matmul_threads`] setting. Every
//! participant claims the next unclaimed share until none is left, so how
//! many threads take part, and which one runs a share, never changes what
//! a share computes: the callers choose their shares from the problem's
//! shape alone, and each share owns the outputs it writes.
//!
//! Helpers are started on the first split that wants them and then live
//! for the rest of the process, parked on a condition variable between
//! splits, so their thread-local scratch (the GEMM's packed panels, the
//! convolutions' padded items) stays warm across calls. A warm split
//! allocates nothing. While the budget is 1 no helper is ever started.
//!
//! The pool runs one split at a time. A caller that finds it busy (another
//! thread's split, or a split nested inside a share) runs its shares
//! inline on its own thread, so nesting cannot deadlock. A panic in a
//! share is caught, and it reaches the caller only after every
//! participant has finished its share: no share still borrows the
//! caller's data when the panic unwinds.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Elements per share of an elementwise pass ([`zip_map`]): 128 KB of
/// `f32`, enough work per share to outweigh a claim.
const GRAIN: usize = 1 << 15;

/// Whether a pass over `elems` elements splits at all: it must span at
/// least two [`GRAIN`]s. Smaller passes cost less than waking a helper.
pub(crate) fn splits(elems: usize) -> bool {
    elems >= 2 * GRAIN
}

/// Runs `work` on every share `items` yields, on the calling thread and
/// up to `budget − 1` pool helpers, when `split`; else, or with a budget
/// of 1 or a single share, on the calling thread alone, in order.
///
/// # Panics
/// Re-raises the first panic of any share, once every participant is
/// done.
pub(crate) fn for_each<I>(split: bool, items: I, work: impl Fn(I::Item) + Sync)
where
    I: ExactSizeIterator + Send,
    I::Item: Send,
{
    let helpers = if split {
        crate::kernels::budget().min(items.len()).saturating_sub(1)
    } else {
        0
    };
    for_each_with(&POOL, helpers, items, work);
}

/// [`for_each`] on `pool` with an explicit number of helpers.
fn for_each_with<I>(pool: &'static Pool, helpers: usize, items: I, work: impl Fn(I::Item) + Sync)
where
    I: ExactSizeIterator + Send,
    I::Item: Send,
{
    if helpers == 0 {
        items.for_each(work);
        return;
    }
    let queue = Mutex::new(items);
    let job = || loop {
        let next = lock(&queue).next();
        let Some(item) = next else { break };
        work(item);
    };
    pool.run(helpers, &job);
}

/// `f(dst chunk, [source chunks])` over matching [`GRAIN`]-element chunks
/// of `dst` and of each of `srcs`, split over the pool when the pass
/// [`splits`]. Every source must be as long as `dst`.
pub(crate) fn zip_map<const N: usize>(
    dst: &mut [f32],
    srcs: [&[f32]; N],
    f: impl Fn(&mut [f32], [&[f32]; N]) + Sync,
) {
    assert!(srcs.iter().all(|s| s.len() == dst.len()), "length mismatch");
    let split = splits(dst.len());
    let chunks = dst.chunks_mut(GRAIN).enumerate().map(|(i, d)| {
        let at = i * GRAIN;
        let parts = srcs.map(|s| &s[at..at + d.len()]);
        (d, parts)
    });
    for_each(split, chunks, |(d, parts)| f(d, parts));
}

/// The lock `m` guards, whether or not a holder panicked: no pool lock is
/// held while a share runs, so a poisoned one still guards whole state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A split's shared job, with its lifetime erased (see [`Pool::run`]).
type Job = &'static (dyn Fn() + Sync);

/// What the submitter and the helpers share.
struct State {
    /// The current split's job; `None` between splits.
    job: Option<Job>,
    /// Bumped once per split, so a helper runs each split at most once.
    round: u64,
    /// Helpers `0..wanted` take part in the current round.
    wanted: usize,
    /// Helpers of the current round that have not finished it.
    running: usize,
    /// Helper threads started so far; never shrinks.
    started: usize,
    /// The first panic a helper caught in the current round.
    panic: Option<Box<dyn Any + Send>>,
}

struct Pool {
    /// Set while a split runs: a second caller runs its shares inline.
    busy: AtomicBool,
    state: Mutex<State>,
    /// Signalled when a round starts.
    start: Condvar,
    /// Signalled when the last helper of a round finishes.
    done: Condvar,
}

/// The process's pool.
static POOL: Pool = Pool::new();

impl Pool {
    const fn new() -> Self {
        Pool {
            busy: AtomicBool::new(false),
            state: Mutex::new(State {
                job: None,
                round: 0,
                wanted: 0,
                running: 0,
                started: 0,
                panic: None,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// Runs `job` on the calling thread and on `helpers` helper threads at
    /// once, returning when all of them have returned; runs it on the
    /// calling thread alone if another split holds the pool.
    fn run(&'static self, helpers: usize, job: &(dyn Fn() + Sync)) {
        // Acquire pairs with the Release that ends the previous split, so
        // this split starts after that one has cleared its job.
        if self
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            job();
            return;
        }
        // Helpers are never joined: each parks between splits for the rest
        // of the process, and hands every panic of a share to the caller.
        let mut state = lock(&self.state);
        while state.started < helpers {
            let index = state.started;
            let spawned = std::thread::Builder::new()
                .name(format!("rlnoc-nn-pool-{index}"))
                .spawn(move || self.helper(index));
            if spawned.is_err() {
                break;
            }
            state.started += 1;
        }
        // SAFETY: this erases the borrow's lifetime so that helper threads
        // can hold `job` while it runs. The borrow is still live whenever a
        // helper reads it: a helper takes the reference only under `state`,
        // during this round, and calls it before it decrements `running`.
        // This function does not return, and does not unwind, until
        // `running` is back to 0 and `job` is cleared from `state`: the
        // caller's own call below runs under `catch_unwind`, and nothing
        // between publishing the job and clearing it can panic (the lock
        // ignores poisoning, the waits do not panic). So no helper can
        // touch `job` after the borrow ends.
        #[allow(unsafe_code)]
        let erased: Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(job) };
        let wanted = helpers.min(state.started);
        state.job = Some(erased);
        state.round += 1;
        state.wanted = wanted;
        state.running = wanted;
        drop(state);
        self.start.notify_all();

        let own = panic::catch_unwind(AssertUnwindSafe(job));

        let mut state = lock(&self.state);
        while state.running > 0 {
            state = self
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.job = None;
        let helper_panic = state.panic.take();
        drop(state);
        self.busy.store(false, Ordering::Release);
        if let Some(payload) = own.err().or(helper_panic) {
            panic::resume_unwind(payload);
        }
    }

    /// The loop of helper `index`: wait for a round that wants it, run the
    /// round's job, report back.
    fn helper(&'static self, index: usize) {
        let mut seen = 0;
        loop {
            let job = {
                let mut state = lock(&self.state);
                loop {
                    if state.round != seen {
                        seen = state.round;
                        if index < state.wanted {
                            break state.job.expect("a round has a job");
                        }
                    }
                    state = self
                        .start
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let result = panic::catch_unwind(AssertUnwindSafe(job));
            let mut state = lock(&self.state);
            if let Err(payload) = result {
                state.panic.get_or_insert(payload);
            }
            state.running -= 1;
            if state.running == 0 {
                self.done.notify_one();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread::{self, ThreadId};
    use std::time::{Duration, Instant};

    /// Waits until `count` participants have arrived, or a second passes;
    /// true if they all did. Shares that wait here run at the same time.
    fn rendezvous(arrived: &AtomicUsize, count: usize) -> bool {
        arrived.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(1);
        while arrived.load(Ordering::SeqCst) < count {
            if Instant::now() > deadline {
                return false;
            }
            thread::yield_now();
        }
        true
    }

    /// A pool of its own, so no other test's split can hold it busy.
    fn own_pool() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

    #[test]
    fn every_share_runs_once_and_writes_its_own_output() {
        let mut out = vec![0usize; 100];
        for_each_with(own_pool(), 1, out.iter_mut().enumerate(), |(i, o)| {
            *o = i * i
        });
        assert!(out.iter().enumerate().all(|(i, &o)| o == i * i));
    }

    /// One test, so its rounds never overlap: a panicking share, the
    /// split after it, and a split nested inside a share.
    #[test]
    fn panics_reach_the_caller_and_nested_splits_run_inline() {
        let pool = own_pool();
        let caller = thread::current().id();

        // Both shares run at once, one on the caller and one on the
        // helper. Whichever of them panics, the panic reaches the caller
        // only once the other, slower share has finished, and the pool is
        // whole again for the next split.
        for panics_on_caller in [false, true] {
            let arrived = AtomicUsize::new(0);
            let finished = AtomicUsize::new(0);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                for_each_with(pool, 1, 0..2, |_| {
                    assert!(rendezvous(&arrived, 2), "shares ran one after another");
                    if (thread::current().id() == caller) == panics_on_caller {
                        panic!("share failed");
                    }
                    thread::sleep(Duration::from_millis(20));
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }));
            let payload = outcome.expect_err("the share's panic re-raises");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"share failed"));
            assert_eq!(
                finished.load(Ordering::SeqCst),
                1,
                "the other share finished first (panic on the caller: {panics_on_caller})"
            );
        }

        // The pool is whole again: the next split is correct.
        let mut out = vec![0u32; 64];
        for_each_with(pool, 1, out.iter_mut().enumerate(), |(i, o)| {
            *o = i as u32 + 1
        });
        assert!(out.iter().enumerate().all(|(i, &o)| o == i as u32 + 1));

        // A split inside a share runs on that share's thread.
        let arrived = AtomicUsize::new(0);
        let nested: Mutex<Vec<(ThreadId, ThreadId)>> = Mutex::new(Vec::new());
        for_each_with(pool, 1, 0..2, |_| {
            assert!(rendezvous(&arrived, 2), "shares ran one after another");
            let outer = thread::current().id();
            for_each_with(pool, 1, 0..4, |_| {
                lock(&nested).push((outer, thread::current().id()));
            });
        });
        let nested = nested.into_inner().unwrap();
        assert_eq!(nested.len(), 8);
        assert!(nested.iter().all(|(outer, inner)| outer == inner));
        assert!(nested.iter().any(|&(outer, _)| outer != caller));
    }
}
