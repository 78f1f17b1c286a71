//! A long-lived worker pool over a crossbeam channel.
//!
//! [`crate::par_map`] covers the regular fork-join patterns; this pool
//! serves irregular ones — the hyperparameter search spawns trials of very
//! different durations while the main thread aggregates results as they
//! arrive.

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Tracks in-flight jobs so [`ThreadPool::wait_idle`] can block.
struct PendingCount {
    count: Mutex<usize>,
    idle: Condvar,
}

/// Decrements the pending count on drop — including during unwinding, so a
/// panicking job still counts as finished.
struct PendingGuard<'a>(&'a PendingCount);

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        let mut count = self.0.count.lock();
        *count -= 1;
        if *count == 0 {
            self.0.idle.notify_all();
        }
    }
}

/// A fixed-size worker pool.
///
/// Jobs are `'static` closures; results should travel back over channels or
/// `Arc<Mutex<...>>` owned by the caller. Dropping the pool signals shutdown
/// and joins every worker (outstanding jobs finish first).
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    pending: Arc<PendingCount>,
}

impl ThreadPool {
    /// Spawns a pool with `threads` workers named `bellamy-worker-<i>` (the
    /// name shows up in debuggers and panic messages).
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a pool needs at least one worker");
        let (sender, receiver) = unbounded::<Job>();
        let pending = Arc::new(PendingCount {
            count: Mutex::new(0),
            idle: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let receiver = receiver.clone();
                let pending = Arc::clone(&pending);
                std::thread::Builder::new()
                    .name(format!("bellamy-worker-{i}"))
                    .spawn(move || {
                        while let Ok(job) = receiver.recv() {
                            // The guard decrements even when the job panics;
                            // without it a panicking job would leave the
                            // pending count stuck and deadlock `wait_idle`
                            // forever.
                            let _guard = PendingGuard(&pending);
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
            pending,
        }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        {
            let mut count = self.pending.count.lock();
            *count += 1;
        }
        self.sender
            .as_ref()
            .expect("pool alive while sender exists")
            .send(Box::new(job))
            .expect("workers outlive the sender");
    }

    /// Blocks until every enqueued job has finished.
    pub fn wait_idle(&self) {
        let mut count = self.pending.count.lock();
        while *count > 0 {
            self.pending.idle.wait(&mut count);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel lets workers drain and exit.
        self.sender.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn executes_all_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn wait_idle_blocks_until_done() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                std::thread::sleep(std::time::Duration::from_millis(3));
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn drop_drains_outstanding_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..32 {
                let c = Arc::clone(&counter);
                pool.execute(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            // No explicit wait: Drop must join after the queue drains.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn results_via_channel() {
        let pool = ThreadPool::new(3);
        let (tx, rx) = crossbeam::channel::unbounded();
        for i in 0..10u32 {
            let tx = tx.clone();
            pool.execute(move || tx.send(i * 2).unwrap());
        }
        drop(tx);
        let mut got: Vec<u32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn reusable_across_batches() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _batch in 0..3 {
            for _ in 0..10 {
                let c = Arc::clone(&counter);
                pool.execute(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            pool.wait_idle();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 30);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn named_pool_names_its_workers() {
        let pool = ThreadPool::new(2);
        let (tx, rx) = crossbeam::channel::unbounded();
        for _ in 0..2 {
            let tx = tx.clone();
            pool.execute(move || {
                tx.send(std::thread::current().name().map(str::to_string))
                    .unwrap();
            });
        }
        pool.wait_idle();
        drop(tx);
        for name in rx.iter() {
            let name = name.expect("worker threads are named");
            assert!(
                name.starts_with("bellamy-worker-"),
                "unexpected name {name}"
            );
        }
    }

    #[test]
    fn panicking_job_does_not_deadlock_wait_idle() {
        // Regression: a panicking job used to kill its worker without
        // decrementing the pending count, wedging wait_idle forever.
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for i in 0..16 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                if i % 4 == 0 {
                    panic!("job {i} failed");
                }
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 12);
        // Workers survive the panics and keep serving jobs.
        let c = Arc::clone(&counter);
        pool.execute(move || {
            c.fetch_add(100, Ordering::Relaxed);
        });
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 112);
    }
}
