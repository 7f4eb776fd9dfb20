//! The shared work-stealing thread pool.
//!
//! One process-wide pool ([`global`]) replaces every hand-rolled
//! scoped-thread fan-out in the workspace: the experiment runner
//! (`cas-middleware::runner`) and the federation's stage-1 scatter
//! (`cas-middleware::shard`) both queue their work here, so a sweep
//! saturates the machine once instead of each layer spawning its own
//! threads per call.
//!
//! Shape: `n` persistent workers, each with its own deque. External spawns
//! distribute round-robin; a worker pops its own deque from the front and
//! steals from the back of its siblings when idle. There is no global lock
//! around job execution — only short per-deque critical sections — so
//! nested parallelism (a runner job whose experiment scatters stage 1)
//! composes without tearing down or re-spawning threads.
//!
//! The API is [`WorkPool::scope`], mirroring `std::thread::scope`: closures
//! may borrow from the caller's stack, and the scope blocks until every
//! spawned job has finished — executing *its own scope's* queued jobs
//! while it waits, so a pool is never deadlocked by nested scopes (a
//! thread waiting on an inner scope self-serves instead of sleeping, and
//! never adopts foreign, potentially much longer, work). Panics inside
//! jobs are captured and re-thrown from `scope`, after all sibling jobs
//! have completed (borrow safety first).
//!
//! **Determinism**: the pool schedules jobs in an unspecified order, so
//! callers that need reproducible output must write results into
//! per-job slots (disjoint `&mut` borrows) and reduce in index order
//! afterwards — which is exactly what the runner and the stage-1 scatter
//! do.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// A queued job: the erased closure plus the identity of the scope that
/// spawned it. Workers run any job; a thread *joining* a scope only helps
/// with that scope's own jobs (see `help_until_done`), so a join on a
/// small inner scope can never be stalled behind a stolen long-running
/// outer job, and experiment frames never nest on one stack.
struct Job {
    scope_tag: usize,
    run: Box<dyn FnOnce() + Send + 'static>,
}

/// State shared between the pool handle and its workers.
struct Shared {
    /// One deque per worker. With zero workers the caller's help loop
    /// drains deque 0.
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Jobs pushed but not yet taken (parking gate; see `push`).
    pending_jobs: AtomicUsize,
    /// Round-robin cursor for external pushes.
    rr: AtomicUsize,
    /// Park/wake coordination for idle workers.
    idle: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Enqueues a job and wakes a sleeping worker.
    ///
    /// The `pending_jobs` increment happens *before* the deque insert and
    /// the notify happens under the `idle` lock: a worker that observes
    /// `pending_jobs == 0` while holding that lock is guaranteed to
    /// receive the wakeup this push sends.
    fn push(&self, job: Job) {
        self.pending_jobs.fetch_add(1, Ordering::SeqCst);
        let i = self.rr.fetch_add(1, Ordering::Relaxed) % self.deques.len();
        self.deques[i].lock().unwrap().push_back(job);
        let _guard = self.idle.lock().unwrap();
        self.wake.notify_one();
    }

    /// Takes one job: own deque front first, then steal siblings' backs.
    fn take_job(&self, start: usize) -> Option<Job> {
        let n = self.deques.len();
        for k in 0..n {
            let idx = (start + k) % n;
            let mut dq = self.deques[idx].lock().unwrap();
            let job = if k == 0 {
                dq.pop_front()
            } else {
                dq.pop_back()
            };
            if let Some(job) = job {
                self.pending_jobs.fetch_sub(1, Ordering::SeqCst);
                return Some(job);
            }
        }
        None
    }

    /// Takes one job belonging to the scope identified by `tag`, scanning
    /// each deque (they are short; the lock is held briefly). Used by
    /// joining threads, which must not adopt foreign — potentially much
    /// longer — work while they wait.
    fn take_scope_job(&self, tag: usize) -> Option<Job> {
        for dq in &self.deques {
            let mut dq = dq.lock().unwrap();
            if let Some(pos) = dq.iter().position(|j| j.scope_tag == tag) {
                let job = dq.remove(pos).expect("position is in range");
                self.pending_jobs.fetch_sub(1, Ordering::SeqCst);
                return Some(job);
            }
        }
        None
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(job) = shared.take_job(index) {
            (job.run)();
            continue;
        }
        let guard = shared.idle.lock().unwrap();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if shared.pending_jobs.load(Ordering::SeqCst) == 0 {
            // Timeout as a safety net only; real wakeups come from `push`.
            let _ = shared.wake.wait_timeout(guard, Duration::from_millis(100));
        }
    }
}

/// Completion tracking for one [`WorkPool::scope`] call.
#[derive(Default)]
struct ScopeState {
    /// Spawned jobs not yet finished.
    pending: AtomicUsize,
    done_lock: Mutex<()>,
    done_cv: Condvar,
    /// First captured panic payload, re-thrown by `scope`.
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

impl ScopeState {
    fn finish(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _guard = self.done_lock.lock().unwrap();
            self.done_cv.notify_all();
        }
    }
}

/// Spawn handle passed to the closure of [`WorkPool::scope`].
///
/// Invariant in `'env`, like `std::thread::Scope`: jobs may borrow
/// anything that outlives the `scope` call.
pub struct PoolScope<'pool, 'env> {
    shared: &'pool Shared,
    state: Arc<ScopeState>,
    _marker: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> PoolScope<'pool, 'env> {
    /// Queues `f` on the pool. Returns immediately; the enclosing
    /// [`WorkPool::scope`] call blocks until every spawned job finished.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            // `f` (and its borrows) is consumed and dropped inside the
            // catch, strictly before `finish` releases the scope.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = state.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            state.finish();
        });
        // SAFETY: the lifetime is erased, never the type. `scope` blocks
        // (helping to drain the queues) until `state.pending` reaches
        // zero, i.e. until this closure has run and dropped all its
        // `'env` borrows — the same join-before-return argument that
        // makes `std::thread::scope` sound.
        let run = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        self.shared.push(Job {
            scope_tag: Arc::as_ptr(&self.state) as usize,
            run,
        });
    }
}

/// A persistent work-stealing pool. See the module docs; most callers want
/// [`global`] rather than constructing their own.
pub struct WorkPool {
    shared: Arc<Shared>,
}

impl WorkPool {
    /// A pool with `threads` persistent workers. Zero is allowed: all work
    /// then runs on the thread that calls [`WorkPool::scope`] (useful for
    /// tests and for debugging determinism).
    pub fn with_threads(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            deques: (0..threads.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            pending_jobs: AtomicUsize::new(0),
            rr: AtomicUsize::new(0),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        for i in 0..threads {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("cas-pool-{i}"))
                .spawn(move || worker_loop(shared, i))
                .expect("spawn pool worker");
        }
        WorkPool { shared }
    }

    /// Number of worker threads (the scoping caller helps too).
    pub fn workers(&self) -> usize {
        self.shared.deques.len()
    }

    /// Runs `f` with a spawn handle; blocks until every job spawned
    /// through the handle has completed. The calling thread helps execute
    /// queued jobs while it waits. If any job panicked, the first panic is
    /// re-thrown here — after all jobs finished, so scoped borrows can
    /// never dangle.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&PoolScope<'_, 'env>) -> R,
    {
        let state = Arc::new(ScopeState::default());
        let scope = PoolScope {
            shared: &self.shared,
            state: Arc::clone(&state),
            _marker: PhantomData,
        };
        // If `f` itself panics we still must wait for already-spawned jobs
        // before unwinding past the borrowed frame.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.help_until_done(&state);
        if let Some(payload) = state.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Work-stealing join: execute this scope's queued jobs until its
    /// count hits zero. Only the scope's *own* jobs are adopted — foreign
    /// jobs may be arbitrarily long (a whole experiment replication), and
    /// stealing one here would stall the join and nest unrelated frames
    /// on this stack. A joiner can always run its own jobs, so no cycle
    /// of waiting scopes can starve (each join self-serves).
    fn help_until_done(&self, state: &Arc<ScopeState>) {
        let tag = Arc::as_ptr(state) as usize;
        while state.pending.load(Ordering::SeqCst) > 0 {
            if let Some(job) = self.shared.take_scope_job(tag) {
                (job.run)();
                continue;
            }
            let guard = state.done_lock.lock().unwrap();
            if state.pending.load(Ordering::SeqCst) > 0 {
                // Short timeout: nested scopes running on workers may push
                // new helpable jobs without signalling `done_cv`.
                let _ = state.done_cv.wait_timeout(guard, Duration::from_millis(5));
            }
        }
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let _guard = self.shared.idle.lock().unwrap();
        self.shared.wake.notify_all();
    }
}

/// The process-wide pool, sized to the machine. Created on first use;
/// lives for the life of the process.
pub fn global() -> &'static WorkPool {
    static GLOBAL: OnceLock<WorkPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        WorkPool::with_threads(n)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_runs_all_jobs_with_borrows() {
        let pool = WorkPool::with_threads(4);
        let mut results = vec![0usize; 100];
        pool.scope(|s| {
            for (i, slot) in results.iter_mut().enumerate() {
                s.spawn(move || *slot = i * i);
            }
        });
        for (i, &r) in results.iter().enumerate() {
            assert_eq!(r, i * i);
        }
    }

    #[test]
    fn zero_worker_pool_runs_on_caller() {
        let pool = WorkPool::with_threads(0);
        let mut hits = [false; 8];
        // (arrays: `iter_mut` hands out disjoint `&mut` cells, same as Vec)
        pool.scope(|s| {
            for slot in hits.iter_mut() {
                s.spawn(move || *slot = true);
            }
        });
        assert!(hits.iter().all(|&h| h));
    }

    #[test]
    fn nested_scopes_compose() {
        let pool = WorkPool::with_threads(2);
        let mut outer = [0u64; 8];
        pool.scope(|s| {
            for (i, slot) in outer.iter_mut().enumerate() {
                s.spawn(move || {
                    // Inner fan-out on the *global* pool: a worker waiting
                    // on an inner scope must help, not deadlock.
                    let mut inner = [0u64; 16];
                    global().scope(|s2| {
                        for (j, cell) in inner.iter_mut().enumerate() {
                            s2.spawn(move || *cell = (i * 16 + j) as u64);
                        }
                    });
                    *slot = inner.iter().sum();
                });
            }
        });
        let total: u64 = outer.iter().sum();
        assert_eq!(total, (0..128u64).sum());
    }

    #[test]
    fn panic_propagates_after_siblings_finish() {
        let pool = WorkPool::with_threads(2);
        let finished = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..16 {
                    let finished = &finished;
                    s.spawn(move || {
                        if i == 3 {
                            panic!("boom");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        assert!(caught.is_err(), "panic must propagate out of scope");
        assert_eq!(
            finished.load(Ordering::SeqCst),
            15,
            "siblings ran to completion"
        );
    }

    #[test]
    fn sequential_scopes_reuse_workers() {
        let pool = WorkPool::with_threads(3);
        for round in 0..20 {
            let mut out = [0usize; 10];
            pool.scope(|s| {
                for (i, slot) in out.iter_mut().enumerate() {
                    s.spawn(move || *slot = round + i);
                }
            });
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, round + i);
            }
        }
    }
}
