//! The process-wide pool of parked helper threads behind every engine
//! batch.
//!
//! Spawning and joining a batch's threads per call costs tens of
//! microseconds, as much as a small batch's queries. So helpers are started
//! once and parked on a condition variable between batches: a batch hands
//! each helper it wants one owned job, and the calling thread serves
//! alongside them. The pool starts no thread until the first batch asks for
//! a helper, grows to the largest helper count any batch has asked for, and
//! never shrinks.
//!
//! Helpers are detached on purpose: they live as long as the process and
//! hold nothing but the jobs queued for them, so there is no handle to
//! join. A job that unwinds is caught here, so a helper outlives it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// One unit of work for a helper. Jobs own everything they touch, since
/// they may still be queued after the batch that sent them has returned.
pub(crate) type Job = Box<dyn FnOnce() + Send>;

#[derive(Default)]
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled once for every job queued.
    work: Condvar,
}

#[derive(Default)]
struct PoolState {
    queue: VecDeque<Job>,
    helpers: usize,
}

impl Pool {
    /// Every update to the state (a push, a pop, a counter bump) leaves it
    /// valid, and no job runs under the lock, so a poisoned guard is
    /// recovered rather than propagated.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// Queue `helpers` jobs made by `job`, first starting helper threads until
/// the pool holds at least `helpers` of them.
///
/// If the operating system refuses a new thread, only as many jobs are
/// queued as there are helpers, and the caller serves a larger share of
/// its batch itself.
pub(crate) fn submit(helpers: usize, mut job: impl FnMut() -> Job) {
    if helpers == 0 {
        return;
    }
    let pool = POOL.get_or_init(Pool::default);
    let mut state = pool.lock();
    while state.helpers < helpers {
        let spawned = std::thread::Builder::new()
            .name(format!("brepartition-engine-{}", state.helpers))
            .spawn(move || serve(pool));
        if spawned.is_err() {
            break;
        }
        state.helpers += 1;
    }
    for _ in 0..helpers.min(state.helpers) {
        state.queue.push_back(job());
        pool.work.notify_one();
    }
}

/// A helper's life: park until a job is queued, run it, park again.
fn serve(pool: &'static Pool) {
    loop {
        let job = {
            let mut state = pool.lock();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                state = pool.work.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };
        // The job reports its own failures to its batch; an unwind that
        // escapes it must not end the helper.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}
