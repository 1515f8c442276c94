//! [`WorkerPool`]: a persistent, dependency-free thread pool for the
//! parallel counting substrates.
//!
//! Hand-rolled on `std::thread` — no crossbeam, no rayon, no `unsafe` —
//! because this workspace vendors no threading crates. The pool is
//! created once (per run, or process-wide via [`WorkerPool::global`])
//! and reused across every mining level, so the per-scan thread-spawn
//! overhead that made the original scoped-thread `ParallelCounter`
//! *slower* than its sequential twin is paid exactly once.
//!
//! Scheduling is one FIFO queue behind a mutex: a submission pushes its
//! job and wakes one parked worker; an idle worker parks on a condition
//! variable until the queue has a job or the pool shuts down. Because
//! jobs outlive the submitting stack frame (`'static`), callers hand
//! data to workers via `Arc`s.
//!
//! # Fanning a batch out
//!
//! Every pooled counter ([`crate::parallel`], [`crate::sharded`]) fans a
//! batch out through one helper, `WorkerPool::fan_out`: jobs stream
//! results back over an `mpsc` channel, and the submitting thread blocks
//! on it and merges each message into buffers it owns. Jobs stop
//! themselves: each holds its own [`CountProbe::share`]d handle on the
//! run's probe, checks it before claiming a unit of work and charges
//! each unit it completes, so a trip anywhere stops every job at its
//! next unit. If fewer messages arrive than expected while the probe has
//! not stopped, the helper panics rather than let a counter fabricate
//! counts.
//!
//! Worker panics are contained: the worker catches the unwind, counts it
//! ([`WorkerPool::jobs_panicked`]), and keeps serving. A panicking job
//! sends no more messages, so `fan_out` sees an unstopped batch fall
//! short and panics on the calling thread: a counting-kernel bug still
//! fails loudly instead of fabricating counts.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use crate::counting::CountProbe;

/// A unit of work. `'static` because pool workers are persistent
/// threads: a job cannot borrow from the submitting stack frame.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Locks a mutex, ignoring poisoning: the queue and a batch's class rows
/// hold plain data that stays consistent even if a holder panicked, and
/// worker panics are already contained.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The pool's one job queue, consumed FIFO, and the shutdown flag that
/// flips once on drop.
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<Queue>,
    /// Signalled once per submitted job, and for every worker on drop.
    ready: Condvar,
    jobs_run: AtomicU64,
    jobs_panicked: AtomicU64,
}

/// A persistent pool of worker threads serving one FIFO job queue. See
/// the module docs.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("jobs_run", &self.jobs_run())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `n_workers` threads (clamped to at least 1
    /// requested; if the OS refuses every spawn, the pool still works by
    /// running jobs inline on the submitting thread).
    pub fn new(n_workers: usize) -> Self {
        let n = n_workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            jobs_run: AtomicU64::new(0),
            jobs_panicked: AtomicU64::new(0),
        });
        let workers = (0..n)
            .filter_map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ccs-pool-{idx}"))
                    .spawn(move || worker_loop(&shared))
                    .ok()
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// A process-wide pool sized to the machine's available parallelism,
    /// created on first use and reused by every mining run — levels,
    /// runs, and benches all dispatch onto the same resident threads.
    pub fn global() -> &'static Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            Arc::new(WorkerPool::new(n))
        })
    }

    /// Number of live worker threads (0 if every spawn failed, in which
    /// case jobs run inline on the submitting thread).
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// Total jobs executed since the pool was created.
    pub fn jobs_run(&self) -> u64 {
        self.shared.jobs_run.load(Ordering::Relaxed)
    }

    /// Jobs that panicked (the panic was contained and the worker kept
    /// serving).
    pub fn jobs_panicked(&self) -> u64 {
        self.shared.jobs_panicked.load(Ordering::Relaxed)
    }

    /// Submits a job to the back of the queue and wakes one parked
    /// worker. With no live workers the job runs inline before `execute`
    /// returns.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, f: F) {
        if self.workers.is_empty() {
            run_contained(&self.shared, Box::new(f));
            return;
        }
        lock(&self.shared.queue).jobs.push_back(Box::new(f));
        self.shared.ready.notify_one();
    }

    /// Runs `jobs` on the pool and merges their messages on the calling
    /// thread, in arrival order (see the module docs).
    ///
    /// Each job receives a sender for its results; `merge` folds one
    /// message into the caller's state. `expected` is the number of
    /// messages the jobs send when `probe` does not stop them.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `expected` messages arrived and `probe` has
    /// not stopped: a worker died outside the interruption protocol (a
    /// counting-kernel bug).
    pub(crate) fn fan_out<M, J>(
        &self,
        jobs: impl IntoIterator<Item = J>,
        expected: usize,
        probe: &dyn CountProbe,
        mut merge: impl FnMut(M),
    ) where
        M: Send + 'static,
        J: FnOnce(&mpsc::Sender<M>) + Send + 'static,
    {
        let (tx, rx) = mpsc::channel::<M>();
        for job in jobs {
            let tx = tx.clone();
            self.execute(move || job(&tx));
        }
        drop(tx);
        let mut received = 0usize;
        for msg in rx {
            received += 1;
            merge(msg);
        }
        assert!(
            received == expected || probe.should_stop(),
            "pooled counting received {received} of {expected} results (a worker died \
             outside the interruption protocol — counting kernel bug)"
        );
    }
}

impl Drop for WorkerPool {
    /// Drains remaining jobs, then stops and joins every worker.
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Runs one job with panic containment.
fn run_contained(shared: &PoolShared, job: Job) {
    shared.jobs_run.fetch_add(1, Ordering::Relaxed);
    if catch_unwind(AssertUnwindSafe(job)).is_err() {
        shared.jobs_panicked.fetch_add(1, Ordering::Relaxed);
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let queue = lock(&shared.queue);
        let mut queue = shared
            .ready
            .wait_while(queue, |q| q.jobs.is_empty() && !q.shutdown)
            .unwrap_or_else(PoisonError::into_inner);
        // Shutdown drains: exit only once the queue is empty.
        let Some(job) = queue.jobs.pop_front() else {
            return;
        };
        drop(queue);
        run_contained(shared, job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    /// Submits `jobs` through `execute` and collects what they return,
    /// sorted: jobs finish in any order.
    fn run_all<T, F>(pool: &WorkerPool, jobs: impl IntoIterator<Item = F>) -> Vec<T>
    where
        T: Ord + Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        for job in jobs {
            let tx = tx.clone();
            pool.execute(move || {
                let _ = tx.send(job());
            });
        }
        drop(tx);
        let mut got: Vec<T> = rx.iter().collect();
        got.sort_unstable();
        got
    }

    #[test]
    fn pool_is_reused_across_batches_without_respawning() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.n_workers(), 2);
        for round in 0..10 {
            let got = run_all(&pool, (0..8).map(|i| move || i + round));
            assert_eq!(got, (0..8).map(|i| i + round).collect::<Vec<_>>());
        }
        assert_eq!(pool.jobs_run(), 80);
    }

    #[test]
    fn execute_runs_detached_jobs() {
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.execute(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(());
            });
        }
        drop(tx);
        for _ in 0..16 {
            rx.recv().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn a_job_submitted_from_a_worker_runs() {
        let pool = Arc::new(WorkerPool::new(2));
        let (tx, rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        for i in 0..2 {
            let (inner, tx, done_tx) = (Arc::clone(&pool), tx.clone(), done_tx.clone());
            pool.execute(move || {
                inner.execute(move || tx.send(i).unwrap());
                // Release the pool handle before reporting, so the pool
                // is never dropped on one of its own workers.
                drop(inner);
                done_tx.send(()).unwrap();
            });
        }
        drop((tx, done_tx));
        assert_eq!(done_rx.iter().count(), 2);
        let mut got: Vec<i32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn a_panicking_job_is_contained_and_the_worker_keeps_serving() {
        // One worker runs the FIFO queue in order, so the panicking job
        // has finished before any later job reports.
        let pool = WorkerPool::new(1);
        pool.execute(|| panic!("kernel bug"));
        assert_eq!(run_all(&pool, (0..4).map(|i| move || i)), vec![0, 1, 2, 3]);
        assert_eq!(pool.jobs_panicked(), 1);
        assert_eq!(pool.jobs_run(), 5);
    }

    #[test]
    fn zero_worker_request_is_clamped() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.n_workers(), 1);
        assert_eq!(run_all(&pool, [|| 7]), vec![7]);
    }

    #[test]
    fn global_pool_is_shared() {
        let a = Arc::as_ptr(WorkerPool::global());
        let b = Arc::as_ptr(WorkerPool::global());
        assert_eq!(a, b);
        assert!(WorkerPool::global().n_workers() >= 1);
    }

    /// A probe that is stopped once its shared flag is raised.
    struct Flag(Arc<AtomicBool>);

    impl CountProbe for Flag {
        fn should_stop(&self) -> bool {
            self.0.load(Ordering::Relaxed)
        }
        fn charge(&self, _cells: u64) -> bool {
            self.0.store(true, Ordering::Relaxed);
            true
        }
        fn share(&self) -> Arc<dyn CountProbe + Send + Sync> {
            Arc::new(Flag(Arc::clone(&self.0)))
        }
    }

    #[test]
    fn fan_out_merges_every_message() {
        let pool = WorkerPool::new(2);
        let jobs = (0..4u64).map(|j| {
            move |tx: &mpsc::Sender<u64>| {
                for i in 0..3 {
                    let _ = tx.send(j * 10 + i);
                }
            }
        });
        let mut sum = 0;
        pool.fan_out(jobs, 12, &crate::counting::NoProbe, |m| sum += m);
        assert_eq!(sum, (0..4).map(|j| 30 * j + 3).sum::<u64>());
    }

    #[test]
    fn a_charge_in_one_job_stops_every_job() {
        // Each job checks its shared handle before a unit and charges
        // the unit after it; the first charge trips the probe, so every
        // job stops after at most the unit in hand, and the short batch
        // passes because the probe has stopped.
        let pool = WorkerPool::new(2);
        let probe = Flag(Arc::default());
        let jobs = (0..4).map(|_| {
            let probe = probe.share();
            move |tx: &mpsc::Sender<u64>| {
                while !probe.should_stop() {
                    let _ = tx.send(1);
                    probe.charge(1);
                }
            }
        });
        let mut merged = 0;
        pool.fan_out(jobs, usize::MAX, &probe, |_| merged += 1);
        assert!((1..=4).contains(&merged), "{merged} units");
    }

    #[test]
    fn fan_out_panics_when_an_unstopped_job_loses_its_results() {
        let pool = WorkerPool::new(2);
        let jobs = [|_: &mpsc::Sender<u64>| panic!("kernel bug")];
        let probe = Flag(Arc::default());
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.fan_out(jobs, 1, &probe, |_| {});
        }));
        assert!(caught.is_err(), "a lost result must not pass silently");
    }

    #[test]
    fn drop_drains_pending_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(1);
            for _ in 0..32 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Drop joins after the queue drains.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }
}
