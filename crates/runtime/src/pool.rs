//! The executor that steps each round's chunks.
//!
//! The engine's unit of parallel work is "process sender chunk `k` of this
//! round" (step every node in the chunk, then counting-sort its messages —
//! see [`crate::router`]). A [`ChunkedExecutor`] of `threads` threads keeps
//! `threads − 1` persistent workers, and the calling thread is the last
//! one. [`ChunkedExecutor::run_indexed`] publishes the round's job and its
//! chunk count; then every thread, the caller included, claims chunk
//! indices from one atomic cursor until none are left, so a thread that
//! finishes a chunk early claims the next one. Between dispatches the
//! workers spin briefly on a generation counter, then park. A dispatch
//! allocates nothing. Determinism is not the executor's job: chunk
//! membership is fixed by the clique size, chunks write only chunk-owned
//! state, and the engine merges chunks in fixed order at the barrier.
//!
//! The trace plane (`cc-trace`) keys its lanes by **chunk index**, not by
//! thread: which thread claims chunk `k` is scheduler-dependent, but chunk
//! `k`'s spans always land on lane `k`, so traces line up across runs and
//! thread counts. The gap between a chunk's seal and `run_indexed`
//! returning — once the last chunk has finished and every worker has let
//! go of the job — is what the engine attributes as that chunk's barrier
//! wait.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};

/// One dispatch's work: `job(k)` processes chunk `k`.
pub(crate) type Job = Arc<dyn Fn(usize) + Send + Sync>;

/// Polls a waiting thread makes before it parks: a few tens of
/// microseconds, enough to span the driver's merge between two rounds, and
/// short enough not to starve the driver on an oversubscribed host.
const SPIN: u32 = 1 << 10;

/// Where a thread waits for a condition that another thread makes true:
/// it polls [`SPIN`] times, then parks. [`Gate::notify`] costs one atomic
/// load while nobody is parked.
#[derive(Default)]
struct Gate {
    lock: Mutex<()>,
    cv: Condvar,
    parked: AtomicUsize,
}

impl Gate {
    /// Returns once `ready()` holds. `ready` must read with `SeqCst`, and
    /// whoever makes it true must store with `SeqCst` and then call
    /// [`Gate::notify`]: either the waiter counted in `parked` is seen, or
    /// the waiter sees the store.
    fn wait_until(&self, ready: impl Fn() -> bool) {
        for _ in 0..SPIN {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock().expect("executor gate poisoned");
        self.parked.fetch_add(1, Ordering::SeqCst);
        while !ready() {
            guard = self.cv.wait(guard).expect("executor gate poisoned");
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wakes every thread parked in [`Gate::wait_until`].
    fn notify(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            drop(self.lock.lock().expect("executor gate poisoned"));
            self.cv.notify_all();
        }
    }
}

/// State shared by the caller and the workers.
#[derive(Default)]
struct Shared {
    /// The published job and its chunk count; `None` between dispatches.
    /// A worker clones it under the lock and counts itself in `holders`.
    dispatch: Mutex<Option<(Job, usize)>>,
    /// Bumped once per published dispatch; workers wait for it to move.
    generation: AtomicU64,
    /// The next chunk index to claim. `Relaxed` suffices: a claim is one
    /// read-modify-write, and the caller's reset reaches the workers
    /// through the `dispatch` lock they take before claiming.
    cursor: AtomicUsize,
    /// Workers holding a clone of the published job.
    holders: AtomicUsize,
    /// Whether a chunk of the current dispatch panicked. `Relaxed`: the
    /// caller reads it only after `holders` dropped to zero, which orders
    /// every worker's store before the read.
    panicked: AtomicBool,
    /// Set once, by `Drop`: the workers exit.
    shutdown: AtomicBool,
    /// Workers wait here for a new generation or the shutdown.
    wake: Gate,
    /// The caller waits here for `holders` to drop to zero.
    done: Gate,
}

impl Shared {
    /// Claims chunks of `0..chunks` from the cursor and runs them until
    /// none are left. A panicking chunk is caught and flagged.
    fn claim(&self, job: &Job, chunks: usize) {
        loop {
            let k = self.cursor.fetch_add(1, Ordering::Relaxed);
            if k >= chunks {
                return;
            }
            if catch_unwind(AssertUnwindSafe(|| job(k))).is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
        }
    }

    /// A worker's life: wait for a dispatch, join it while it is still
    /// published, claim chunks, let go of the job.
    fn work(&self) {
        let mut seen = 0;
        loop {
            self.wake.wait_until(|| {
                self.generation.load(Ordering::SeqCst) != seen
                    || self.shutdown.load(Ordering::SeqCst)
            });
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            seen = self.generation.load(Ordering::SeqCst);
            let held = {
                let dispatch = self.dispatch.lock().expect("executor dispatch poisoned");
                if dispatch.is_some() {
                    self.holders.fetch_add(1, Ordering::SeqCst);
                }
                dispatch.clone()
            };
            // `None`: the caller ran every chunk before this worker woke.
            if let Some((job, chunks)) = held {
                self.claim(&job, chunks);
                drop(job);
                if self.holders.fetch_sub(1, Ordering::SeqCst) == 1 {
                    self.done.notify();
                }
            }
        }
    }
}

/// Runs indexed jobs `job(0), …, job(chunks - 1)` on the calling thread and
/// a fixed set of persistent workers.
pub(crate) struct ChunkedExecutor {
    shared: Arc<Shared>,
    /// `threads − 1` workers; none when `threads == 1`.
    workers: Vec<JoinHandle<()>>,
}

impl ChunkedExecutor {
    /// An executor in which `threads` threads (clamped to at least 1) step
    /// chunks: the caller of [`ChunkedExecutor::run_indexed`] and
    /// `threads − 1` workers spawned here.
    pub(crate) fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared::default());
        let workers = (1..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || shared.work())
            })
            .collect();
        ChunkedExecutor { shared, workers }
    }

    /// Calls `job(k)` for every `k in 0..chunks`, each exactly once, on the
    /// calling thread and the workers. Returns when every call has
    /// finished and no worker holds a clone of `job` any more. A single
    /// chunk, or an executor without workers, runs on the caller alone.
    /// Dispatches share one cursor, hence `&mut self`: one at a time.
    ///
    /// # Panics
    ///
    /// Panics if `job` panicked on any thread, the caller's included. The
    /// panic surfaces only after every chunk of the dispatch has run.
    pub(crate) fn run_indexed(&mut self, chunks: usize, job: &Job) {
        let shared = &*self.shared;
        shared.cursor.store(0, Ordering::Relaxed);
        let publish = chunks > 1 && !self.workers.is_empty();
        if publish {
            *shared.dispatch.lock().expect("executor dispatch poisoned") =
                Some((Arc::clone(job), chunks));
            shared.generation.fetch_add(1, Ordering::SeqCst);
            shared.wake.notify();
        }
        shared.claim(job, chunks);
        if publish {
            // Retract the job: no worker can join the dispatch after this,
            // and every worker that did is counted in `holders`.
            *shared.dispatch.lock().expect("executor dispatch poisoned") = None;
            shared
                .done
                .wait_until(|| shared.holders.load(Ordering::SeqCst) == 0);
        }
        assert!(
            !shared.panicked.swap(false, Ordering::Relaxed),
            "a node program panicked on a worker thread"
        );
    }
}

impl Drop for ChunkedExecutor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify();
        for worker in self.workers.drain(..) {
            // Workers catch every job panic, so there is nothing to report.
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn run_marks(threads: usize, chunks: usize) -> Vec<usize> {
        let mut executor = ChunkedExecutor::new(threads);
        let marks = Arc::new((0..chunks).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
        let job: Job = {
            let marks = Arc::clone(&marks);
            Arc::new(move |k: usize| {
                marks[k].fetch_add(k + 1, Ordering::SeqCst);
            })
        };
        executor.run_indexed(chunks, &job);
        marks.iter().map(|m| m.load(Ordering::SeqCst)).collect()
    }

    #[test]
    fn every_chunk_runs_exactly_once() {
        for threads in [1, 2, 4] {
            let marks = run_marks(threads, 103);
            let expected: Vec<usize> = (1..=103).collect();
            assert_eq!(marks, expected, "threads = {threads}");
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let executor = ChunkedExecutor::new(0);
        assert!(executor.workers.is_empty());
        assert_eq!(run_marks(0, 3), vec![1, 2, 3]);
    }

    #[test]
    fn zero_chunks_is_a_no_op() {
        let mut executor = ChunkedExecutor::new(4);
        let job: Job = Arc::new(|_| panic!("must not run"));
        executor.run_indexed(0, &job);
    }

    #[test]
    fn chunks_actually_run_concurrently() {
        // Two chunks that each wait for the other can only finish if they
        // run on different threads: here, the caller and the one worker.
        let mut executor = ChunkedExecutor::new(2);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let job: Job = {
            let barrier = Arc::clone(&barrier);
            Arc::new(move |_k: usize| {
                barrier.wait();
            })
        };
        // Let the worker finish spinning and park, so the dispatch has to
        // wake it.
        while executor.shared.wake.parked.load(Ordering::SeqCst) == 0 {
            thread::yield_now();
        }
        executor.run_indexed(2, &job);
    }

    #[test]
    fn pool_is_reusable_across_rounds() {
        let mut executor = ChunkedExecutor::new(3);
        let log = Arc::new(Mutex::new(Vec::new()));
        for round in 0..5 {
            let log = Arc::clone(&log);
            let job: Job = Arc::new(move |k: usize| {
                log.lock().unwrap().push((round, k));
            });
            executor.run_indexed(4, &job);
        }
        assert_eq!(log.lock().unwrap().len(), 20);
    }

    #[test]
    #[should_panic(expected = "node program panicked")]
    fn worker_panics_surface_on_the_caller() {
        let mut executor = ChunkedExecutor::new(2);
        let job: Job = Arc::new(|k: usize| {
            if k == 5 {
                panic!("bad chunk");
            }
        });
        executor.run_indexed(8, &job);
    }

    #[test]
    fn no_worker_keeps_the_job_after_a_dispatch() {
        // `Instance::finish` unwraps the plane the job closes over, so the
        // job must be back to its one owner whenever `run_indexed` returns.
        for threads in [2, 4] {
            let mut executor = ChunkedExecutor::new(threads);
            // Chunks long enough that a joined worker is still inside one
            // when the caller runs out of chunks to claim.
            let job: Job = Arc::new(|_| (0..200).for_each(|_| std::hint::spin_loop()));
            for dispatch in 0..1_000 {
                executor.run_indexed(1 + dispatch % 8, &job);
                assert_eq!(Arc::strong_count(&job), 1, "threads {threads}");
            }
        }
    }

    thread_local! {
        static CALLER: Cell<bool> = const { Cell::new(false) };
    }

    #[test]
    fn a_panic_on_the_caller_surfaces_after_every_other_chunk() {
        let mut executor = ChunkedExecutor::new(2);
        let chunks = 16;
        let caller_stepped = Arc::new(AtomicBool::new(false));
        let ran = Arc::new(AtomicUsize::new(0));
        let job: Job = {
            let (caller_stepped, ran) = (Arc::clone(&caller_stepped), Arc::clone(&ran));
            Arc::new(move |_k: usize| {
                if CALLER.with(Cell::get) {
                    if !caller_stepped.swap(true, Ordering::SeqCst) {
                        panic!("bad chunk on the caller");
                    }
                } else {
                    // Hold the worker until the caller has claimed a chunk.
                    while !caller_stepped.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                }
                ran.fetch_add(1, Ordering::SeqCst);
            })
        };
        CALLER.with(|caller| caller.set(true));
        let caught = catch_unwind(AssertUnwindSafe(|| executor.run_indexed(chunks, &job)));
        let payload = caught.expect_err("the caller's panic must surface");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or_default();
        assert!(message.contains("node program panicked"), "{message}");
        assert_eq!(ran.load(Ordering::SeqCst), chunks - 1);
        // The executor survives: the next dispatch runs every chunk once.
        let marks = Arc::new((0..chunks).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
        let count: Job = {
            let marks = Arc::clone(&marks);
            Arc::new(move |k: usize| {
                marks[k].fetch_add(1, Ordering::SeqCst);
            })
        };
        executor.run_indexed(chunks, &count);
        assert!(marks.iter().all(|m| m.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn back_to_back_tiny_dispatches_never_lose_a_wake_up() {
        let mut executor = ChunkedExecutor::new(4);
        let ran = Arc::new(AtomicUsize::new(0));
        let job: Job = {
            let ran = Arc::clone(&ran);
            Arc::new(move |_k: usize| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
        };
        let mut expected = 0;
        for dispatch in 0..20_000 {
            let chunks = dispatch % 4;
            executor.run_indexed(chunks, &job);
            expected += chunks;
        }
        assert_eq!(ran.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn dropping_the_executor_joins_its_workers() {
        let mut executor = ChunkedExecutor::new(4);
        let shared = Arc::clone(&executor.shared);
        executor.run_indexed(8, &(Arc::new(|_| {}) as Job));
        drop(executor);
        // Every worker held a clone of `shared` and released it on exit.
        assert_eq!(Arc::strong_count(&shared), 1);
    }
}
