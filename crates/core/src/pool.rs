//! The executor's persistent worker pool.
//!
//! A [`Pool`] owns up to `threads` OS threads, started the first time a
//! batch needs them and parked between batches, so a sweep pays no thread
//! spawn and whatever a worker keeps per thread — the allocator's
//! per-thread caches — stays warm from one sweep to the next instead of
//! dying with a scoped thread. (The simulator's decode arena is one pool
//! for the process, so what a worker retires there serves every thread
//! either way.) Work is handed out the way it always was:
//! the workers of a batch claim the next unclaimed position from one shared
//! counter until it runs past the end, and every outcome lands in the slot
//! of its position, so the order of *results* is the input order whatever
//! the order of *execution*.
//!
//! Batches borrow: a job may capture references into the submitting
//! thread's stack. That is sound because [`Pool::run`] does not return — by
//! any path — before every claimed position has finished; the one `unsafe`
//! in this crate, the lifetime erasure in `Pool::execute`, carries the
//! argument. A job's panic is caught on the worker, which survives it, and
//! re-raised with its original payload on the submitting thread once the
//! batch has drained.
//!
//! Jobs must not submit to the pool they run on: with every worker blocked
//! in a nested batch nobody would be left to drain it. Any number of other
//! threads may submit at once; batches are served oldest first, and the
//! pool's thread count caps the runs in flight across all of them.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// What a worker runs for each claimed position of a batch.
type Job<'a> = dyn Fn(usize) + Sync + 'a;

/// Locks `mutex`, entering it even when a panic poisoned it: every update
/// made under the pool's locks leaves the data valid at every step, and the
/// paths that take them (a submitter's drop guard, a worker between jobs,
/// the pool's own `Drop`) must not panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One submitted batch: positions `0..len`, each run exactly once.
struct Batch {
    len: usize,
    /// The next unclaimed position. Relaxed everywhere: it only hands out
    /// distinct positions; what the jobs wrote is published by `progress`.
    next: AtomicUsize,
    /// The submitter's job with its lifetime erased; see `Pool::execute`.
    job: &'static Job<'static>,
    progress: Mutex<Progress>,
    /// Signalled when `progress.done` reaches `len`.
    drained: Condvar,
}

#[derive(Default)]
struct Progress {
    /// Positions whose job has returned or panicked.
    done: usize,
    /// The panic of the lowest panicking position, so that which panic the
    /// submitter sees does not depend on scheduling.
    panic: Option<(usize, Box<dyn Any + Send>)>,
}

impl Batch {
    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.len
    }

    /// Claims and runs positions until none is left.
    fn work(&self) {
        loop {
            let k = self.next.fetch_add(1, Ordering::Relaxed);
            if k >= self.len {
                return;
            }
            // The job only fills its own position's slot, so a panic leaves
            // nothing half-updated that the submitter will read: it resumes
            // the unwind instead of looking at any slot.
            let outcome = catch_unwind(AssertUnwindSafe(|| (self.job)(k)));
            let mut progress = lock(&self.progress);
            if let Err(payload) = outcome {
                if progress.panic.as_ref().is_none_or(|(at, _)| k < *at) {
                    progress.panic = Some((k, payload));
                }
            }
            progress.done += 1;
            if progress.done == self.len {
                self.drained.notify_all();
            }
        }
    }
}

#[derive(Default)]
struct Queue {
    /// Batches whose submitters are still waiting, oldest first. A submitter
    /// removes its own batch once it has drained.
    batches: VecDeque<Arc<Batch>>,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when a batch arrives and at shutdown.
    arrived: Condvar,
}

fn worker(shared: &Shared) {
    loop {
        let batch = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(batch) = queue.batches.iter().find(|b| b.has_unclaimed()) {
                    break Arc::clone(batch);
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .arrived
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        batch.work();
    }
}

/// A batch in the queue, on behalf of the thread that submitted it.
/// Dropping it — on return or on unwind — blocks until every position of the
/// batch has finished and then takes the batch out of the queue. This is
/// what ends the erased borrow in `Pool::execute`.
struct Submitted<'p> {
    shared: &'p Shared,
    batch: Arc<Batch>,
}

impl Drop for Submitted<'_> {
    fn drop(&mut self) {
        let mut progress = lock(&self.batch.progress);
        while progress.done < self.batch.len {
            progress = self
                .batch
                .drained
                .wait(progress)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(progress);
        lock(&self.shared.queue)
            .batches
            .retain(|b| !Arc::ptr_eq(b, &self.batch));
    }
}

/// Up to `threads` persistent workers behind one batch queue; see the
/// [module docs](self).
pub(crate) struct Pool {
    threads: usize,
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Pool {
    /// A pool of `threads` workers (clamped to >= 1), none started yet.
    pub(crate) fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
            shared: Arc::default(),
            workers: Mutex::default(),
        }
    }

    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `job` for every element of `items` and returns the outcomes
    /// in `items` order. With one thread, or at most one item, the jobs run
    /// on the calling thread and no worker is started or woken.
    ///
    /// # Panics
    ///
    /// Re-raises, with its original payload, the panic of the job at the
    /// earliest position that panicked — after every other job has finished.
    /// The pool stays usable.
    pub(crate) fn run<T, J>(&self, items: &[usize], job: J) -> Vec<T>
    where
        T: Send + Sync,
        J: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items.iter().map(|&i| job(i)).collect();
        }
        // Slot k receives the outcome of items[k].
        let slots: Vec<OnceLock<T>> = (0..items.len()).map(|_| OnceLock::new()).collect();
        self.execute(workers, items.len(), &|k| {
            let _ = slots[k].set(job(items[k]));
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("all jobs completed"))
            .collect()
    }

    /// Runs `job(k)` for every `k < len` on the workers and returns when all
    /// have finished.
    fn execute(&self, workers: usize, len: usize, job: &Job<'_>) {
        // Before anything is borrowed: a failed spawn panics here.
        self.ensure_workers(workers);
        // SAFETY: only the lifetime changes; the pointee and its vtable are
        // untouched. Workers reach `job` through `batch` alone and call it
        // only for positions claimed below `len`, each of which is counted
        // in `progress.done` after its call has returned or unwound. The
        // `Submitted` guard is built before the batch becomes visible to any
        // worker, and its drop — which runs on return, and on unwind were
        // anything between here and there to panic — blocks until
        // `progress.done == len`. From then on no worker is inside `job` or
        // can enter it (a later claim is >= `len`), although workers may
        // still hold the `Arc<Batch>` itself. So every use of the erased
        // reference happens while this call's caller still holds the real
        // borrow. There is no early return and no `?` between the erasure
        // and the guard's drop, and nothing here forgets the guard.
        let job: &'static Job<'static> = unsafe { std::mem::transmute(job) };
        let submitted = Submitted {
            shared: &self.shared,
            batch: Arc::new(Batch {
                len,
                next: AtomicUsize::new(0),
                job,
                progress: Mutex::default(),
                drained: Condvar::new(),
            }),
        };
        lock(&self.shared.queue)
            .batches
            .push_back(Arc::clone(&submitted.batch));
        self.shared.arrived.notify_all();
        let batch = Arc::clone(&submitted.batch);
        drop(submitted);
        let panic = lock(&batch.progress).panic.take();
        if let Some((_, payload)) = panic {
            resume_unwind(payload);
        }
    }

    /// Starts workers until `wanted` (at most `threads`) are running.
    #[expect(clippy::disallowed_methods, reason = "the pool's workers start here")]
    fn ensure_workers(&self, wanted: usize) {
        debug_assert!(wanted <= self.threads);
        let mut workers = lock(&self.workers);
        while workers.len() < wanted {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("mtvar-worker-{}", workers.len()))
                .spawn(move || worker(&shared))
                .expect("cannot start a pool worker thread");
            workers.push(handle);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.arrived.notify_all();
        for handle in lock(&self.workers).drain(..) {
            // A worker catches its jobs' panics, so it has no panic of its
            // own to report — and a drop must not raise one.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_panic_is_reraised_with_its_payload_and_the_pool_survives() {
        let pool = Pool::new(2);
        let items: Vec<usize> = (0..16).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&items, |i| {
                if i % 5 == 3 {
                    panic!("job {i} exploded");
                }
                i
            })
        }));
        let payload = caught.expect_err("the panic must reach the submitter");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("job 3 exploded"),
            "the earliest panicking position wins, payload intact"
        );
        // Same workers, next batch: nothing was lost with the panic.
        assert_eq!(lock(&pool.workers).len(), 2);
        assert_eq!(pool.run(&items, |i| i + 1), (1..=16).collect::<Vec<_>>());
        assert!(lock(&pool.shared.queue).batches.is_empty());
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "submitters race on threads")]
    fn concurrent_submitters_share_the_workers() {
        let pool = Pool::new(2);
        let items: Vec<usize> = (0..40).collect();
        std::thread::scope(|scope| {
            let submitters: Vec<_> = (0..3)
                .map(|s| {
                    let (pool, items) = (&pool, &items);
                    scope.spawn(move || pool.run(items, |i| i * 10 + s))
                })
                .collect();
            for (s, submitter) in submitters.into_iter().enumerate() {
                let want: Vec<usize> = items.iter().map(|i| i * 10 + s).collect();
                assert_eq!(submitter.join().expect("submitter"), want);
            }
        });
        assert_eq!(lock(&pool.workers).len(), 2, "no submitter grew the pool");
    }

    #[test]
    fn workers_start_on_demand_and_never_for_inline_batches() {
        let pool = Pool::new(4);
        assert_eq!(pool.run(&[7], |i| i), [7]);
        assert_eq!(pool.run(&[], |i| i), Vec::<usize>::new());
        assert_eq!(
            lock(&pool.workers).len(),
            0,
            "inline batches need no worker"
        );
        pool.run(&[1, 2], |i| i);
        assert_eq!(lock(&pool.workers).len(), 2);
        pool.run(&[1, 2, 3, 4, 5, 6], |i| i);
        assert_eq!(lock(&pool.workers).len(), 4);
        assert_eq!(Pool::new(1).run(&[1, 2, 3], |i| i * 2), [2, 4, 6]);
    }
}
