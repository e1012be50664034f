//! A persistent compute pool for data-parallel kernels.
//!
//! The pool is a fixed set of worker threads draining a shared MPMC
//! injector channel (the vendored `crossbeam` shim): every idle worker
//! steals the next job from the shared queue, so a slow worker never
//! strands work that a faster sibling could take. Jobs are plain boxed
//! closures; result routing is the submitter's business (the GEMM
//! driver in [`crate::kernel`] hands each job a sender half of a
//! per-call channel).
//!
//! ## Lifecycle
//!
//! [`Pool::global`] lazily spawns the process-wide pool on first use and
//! never tears it down; worker threads block in `recv` and exit only if
//! the injector disconnects (which, for the global pool, is never).
//! Tests and benchmarks can build private pools with [`Pool::new`];
//! dropping such a pool disconnects its channel and the workers drain
//! outstanding jobs and exit.
//!
//! ## Sizing
//!
//! The global pool is sized by the `QREC_THREADS` environment variable,
//! read once at first use; unset, empty, unparsable, or `0` falls back
//! to [`std::thread::available_parallelism`]. `QREC_THREADS=1` keeps
//! every kernel and every [`Ordered`] fan-out on the caller thread (the
//! pool still exists but nothing splits work for it).
//!
//! ## Determinism
//!
//! The pool itself makes no ordering promises — jobs run whenever a
//! worker picks them up. Determinism of parallel kernels is the
//! *kernel's* contract: work is partitioned into ranges whose per-element
//! arithmetic is independent of the partition (see `crate::kernel`), so
//! any interleaving produces bitwise-identical output. Coarser work —
//! the trainer's per-example backward passes — goes through [`Ordered`],
//! which hands results back in submission order so the caller's fold
//! over them never depends on which thread ran what.

use crossbeam::channel::{self, Receiver, Sender};
use std::collections::VecDeque;
use std::env;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;

/// A unit of work executed on a worker thread.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent worker pool over a shared injector queue.
pub struct Pool {
    injector: Sender<Job>,
    threads: usize,
}

impl Pool {
    /// Spawn a pool with `threads` workers (clamped to at least 1).
    ///
    /// Threads are named `qrec-pool-N` and detached; they exit when the
    /// pool (and every outstanding clone of its injector) is dropped.
    /// If the OS refuses to spawn some workers the pool degrades to the
    /// count that did start — and if none did, [`Pool::submit`] runs
    /// jobs inline on the caller.
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let (tx, rx) = channel::unbounded::<Job>();
        let mut spawned = 0usize;
        for i in 0..threads {
            let rx: Receiver<Job> = rx.clone();
            let res = thread::Builder::new()
                .name(format!("qrec-pool-{i}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                });
            if res.is_ok() {
                spawned += 1;
            }
        }
        Pool {
            injector: tx,
            threads: spawned.max(1),
        }
    }

    /// Number of live worker threads (at least 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enqueue a job. If the pool has no live workers (spawn failure at
    /// construction), the job runs inline on the calling thread — the
    /// work always happens, just without parallelism.
    pub fn submit(&self, job: Job) {
        if let Err(send_err) = self.injector.send(job) {
            // Disconnected: no worker will ever run this; do it here.
            let channel::SendError(job) = send_err;
            job();
        }
    }

    /// The process-wide pool, created on first use and sized by
    /// [`configured_threads`].
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(configured_threads()))
    }
}

type Task<T> = Box<dyn FnOnce() -> T + Send>;

/// Run a task, catching a panic so it can be re-raised on the caller.
fn run<T>(task: Task<T>) -> thread::Result<T> {
    panic::catch_unwind(AssertUnwindSafe(task))
}

/// Jobs fanned out over a [`Pool`] whose results come back in
/// submission order.
///
/// Pushed jobs wait in a queue private to this fan-out. Up to
/// `width − 1` pool workers drain it as helpers (see
/// [`Ordered::width`]), and the caller runs queued jobs itself whenever
/// [`pop`] needs a result that is not ready yet (help-first, like the
/// GEMM driver). A thread blocks only once the queue is empty, that is
/// when every outstanding job is already running somewhere, so a job
/// that itself uses the pool (a GEMM inside a backward pass) cannot
/// deadlock it. A panicking job is caught where it ran and re-raised by
/// the [`pop`] that reaches it.
///
/// With a width of 1 each job runs inline inside [`push`]: the caller
/// gets exactly the serial schedule.
///
/// [`pop`]: Ordered::pop
/// [`push`]: Ordered::push
pub struct Ordered<'p, T> {
    pool: &'p Pool,
    helpers: usize,
    /// Helper loops currently submitted or running.
    active: Arc<AtomicUsize>,
    queue_tx: Sender<(usize, Task<T>)>,
    queue_rx: Receiver<(usize, Task<T>)>,
    done_tx: Sender<(usize, thread::Result<T>)>,
    done_rx: Receiver<(usize, thread::Result<T>)>,
    /// Results of jobs `next..next + ready.len()`, `None` until they
    /// arrive.
    ready: VecDeque<Option<thread::Result<T>>>,
    next: usize,
}

impl<'p, T: Send + 'static> Ordered<'p, T> {
    /// An empty fan-out over `pool`.
    pub fn new(pool: &'p Pool) -> Self {
        let (queue_tx, queue_rx) = channel::unbounded();
        let (done_tx, done_rx) = channel::unbounded();
        Ordered {
            pool,
            helpers: pool.threads().min(default_threads()) - 1,
            active: Arc::new(AtomicUsize::new(0)),
            queue_tx,
            queue_rx,
            done_tx,
            done_rx,
            ready: VecDeque::new(),
            next: 0,
        }
    }

    /// Threads that work on this fan-out, the caller included: the
    /// pool's width, capped at the machine's parallelism as in the GEMM
    /// driver (more would only time-slice the same cores).
    pub fn width(&self) -> usize {
        self.helpers + 1
    }

    /// Jobs pushed whose results have not been popped yet.
    pub fn in_flight(&self) -> usize {
        self.ready.len()
    }

    /// Queue a job; its result comes out of [`Ordered::pop`] after the
    /// results of every job pushed before it.
    pub fn push(&mut self, job: impl FnOnce() -> T + Send + 'static) {
        if self.helpers == 0 {
            self.ready.push_back(Some(run(Box::new(job))));
            return;
        }
        let seq = self.next + self.ready.len();
        self.ready.push_back(None);
        // Cannot fail: this fan-out holds the receiver.
        let _ = self.queue_tx.send((seq, Box::new(job)));
        if self.active.fetch_add(1, Ordering::AcqRel) >= self.helpers {
            self.active.fetch_sub(1, Ordering::AcqRel);
            return; // every helper slot is taken; a running helper gets it
        }
        let (queue, done) = (self.queue_rx.clone(), self.done_tx.clone());
        let (active, helpers) = (Arc::clone(&self.active), self.helpers);
        self.pool.submit(Box::new(move || loop {
            while let Ok((seq, task)) = queue.try_recv() {
                let _ = done.send((seq, run(task)));
            }
            active.fetch_sub(1, Ordering::AcqRel);
            // A push that found every slot taken may have queued a job
            // after the last look: take it, unless other helpers hold
            // every slot (they will).
            if queue.is_empty() {
                return;
            }
            if active.fetch_add(1, Ordering::AcqRel) >= helpers {
                active.fetch_sub(1, Ordering::AcqRel);
                return;
            }
        }));
    }

    /// The result of the oldest unpopped job if it has finished;
    /// never blocks.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the job whose result it would return.
    pub fn try_pop(&mut self) -> Option<T> {
        while let Ok((seq, result)) = self.done_rx.try_recv() {
            self.fill(seq, result);
        }
        let result = self.ready.front_mut()?.take()?;
        self.ready.pop_front();
        self.next += 1;
        Some(result.unwrap_or_else(|payload| panic::resume_unwind(payload)))
    }

    /// The result of the oldest unpopped job, or `None` when nothing is
    /// in flight. While that result is outstanding the caller runs
    /// queued jobs itself, and only blocks once all of them are taken.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the job whose result it would return.
    pub fn pop(&mut self) -> Option<T> {
        loop {
            if let Some(value) = self.try_pop() {
                return Some(value);
            }
            if self.ready.is_empty() {
                return None;
            }
            let (seq, result) = match self.queue_rx.try_recv() {
                Ok((seq, task)) => (seq, run(task)),
                // Every outstanding job is running or finished, so a
                // result is on its way. The fan-out holds a sender
                // itself; the channel never disconnects.
                Err(_) => match self.done_rx.recv() {
                    Ok(done) => done,
                    Err(_) => continue,
                },
            };
            self.fill(seq, result);
        }
    }

    fn fill(&mut self, seq: usize, result: thread::Result<T>) {
        if let Some(slot) = self.ready.get_mut(seq - self.next) {
            *slot = Some(result);
        }
    }
}

impl<T> Drop for Ordered<'_, T> {
    /// Drop queued jobs unrun; jobs already running finish and their
    /// results are discarded.
    fn drop(&mut self) {
        while self.queue_rx.try_recv().is_ok() {}
    }
}

/// The worker count the global pool uses: `QREC_THREADS` if it parses
/// to a positive integer, otherwise [`std::thread::available_parallelism`]
/// (1 if even that is unavailable).
///
/// This is a pure read — it never spawns the pool — so servers can
/// report their effective compute-pool size without paying for workers
/// they might not need.
pub fn configured_threads() -> usize {
    match env::var("QREC_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn jobs_run_and_results_route_back() {
        let pool = Pool::new(4);
        assert_eq!(pool.threads(), 4);
        let (tx, rx) = channel::unbounded();
        for i in 0..32usize {
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                tx.send(i * i).unwrap();
            }));
        }
        drop(tx);
        let mut got: Vec<usize> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = Pool::new(0);
        assert_eq!(pool.threads(), 1);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let (tx, rx) = channel::bounded(1);
        pool.submit(Box::new(move || {
            d.fetch_add(1, Ordering::SeqCst);
            tx.send(()).unwrap();
        }));
        rx.recv().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dropping_a_private_pool_drains_outstanding_jobs() {
        let (tx, rx) = channel::unbounded();
        {
            let pool = Pool::new(2);
            for i in 0..8usize {
                let tx = tx.clone();
                pool.submit(Box::new(move || {
                    tx.send(i).unwrap();
                }));
            }
        } // pool dropped: workers drain the queue, then exit
        drop(tx);
        let mut got: Vec<usize> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = Pool::global() as *const Pool;
        let b = Pool::global() as *const Pool;
        assert_eq!(a, b);
        assert!(Pool::global().threads() >= 1);
    }

    #[test]
    fn ordered_results_come_back_in_push_order() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let mut fan = Ordered::new(&pool);
            let mut got = Vec::new();
            for i in 0..64u64 {
                // Later jobs finish first unless results are reordered.
                fan.push(move || {
                    thread::sleep(std::time::Duration::from_micros(64 - i));
                    i
                });
                if fan.in_flight() > threads {
                    got.extend(fan.pop());
                }
            }
            while let Some(v) = fan.pop() {
                got.push(v);
            }
            assert_eq!(got, (0..64).collect::<Vec<_>>(), "threads={threads}");
            assert_eq!(fan.in_flight(), 0);
            assert!(fan.pop().is_none());
        }
    }

    #[test]
    fn ordered_one_thread_pool_runs_jobs_inline() {
        let pool = Pool::new(1);
        let mut fan = Ordered::new(&pool);
        let caller = thread::current().id();
        fan.push(move || thread::current().id() == caller);
        assert_eq!(fan.try_pop(), Some(true));
        assert_eq!(fan.try_pop(), None);
    }

    #[test]
    fn ordered_jobs_may_fan_out_on_the_same_pool() {
        // Every worker is busy with an outer job whose inner fan-out
        // needs the same pool: the inner pops run their own jobs.
        let pool = Arc::new(Pool::new(2));
        let mut outer = Ordered::new(&pool);
        for i in 0..8usize {
            let inner_pool = Arc::clone(&pool);
            outer.push(move || {
                let mut inner = Ordered::new(&inner_pool);
                for j in 0..8usize {
                    inner.push(move || i * 8 + j);
                }
                std::iter::from_fn(|| inner.pop()).sum::<usize>()
            });
        }
        let sums: Vec<usize> = std::iter::from_fn(|| outer.pop()).collect();
        let want: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(sums, want);
    }

    #[test]
    fn ordered_reraises_a_job_panic_on_the_caller() {
        let pool = Pool::new(2);
        let mut fan = Ordered::new(&pool);
        fan.push(|| 1);
        fan.push(|| -> i32 { panic!("job failed") });
        fan.push(|| 3);
        assert_eq!(fan.pop(), Some(1));
        let caught = panic::catch_unwind(AssertUnwindSafe(|| fan.pop()));
        assert!(caught.is_err());
        // The fan-out and the worker that ran the job both survive it.
        assert_eq!(fan.pop(), Some(3));
        fan.push(|| 2);
        assert_eq!(fan.pop(), Some(2));
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }
}
