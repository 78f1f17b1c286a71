//! A persistent fan-out primitive over the worker pool.
//!
//! [`WorkTeam::run`] executes `f(0..n)` across a fixed set of workers, like
//! a scoped parallel-for — but unlike spawning scoped threads (or boxing a
//! job per call), a team parks **long-lived jobs** on the [`ThreadPool`]
//! once at construction and signals them per step through a generation
//! counter and two condvars. A steady-state `run` call therefore performs
//! no heap allocation, which the zero-allocation training step in
//! `bellamy-core` depends on.
//!
//! The calling thread participates in the index claim loop, so
//! `WorkTeam::new(1)` degenerates to a plain sequential loop with no pool
//! at all.

use crate::pool::ThreadPool;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

/// A type-erased `Fn(usize)` valid for the duration of one `run` call.
#[derive(Clone, Copy)]
struct Task {
    ctx: *const (),
    call: unsafe fn(*const (), usize),
    total: usize,
}

// SAFETY: the pointer is only dereferenced through `call` while the owning
// `run` invocation is blocked waiting for completion, and the closure it
// points to is `Sync` (enforced by `run`'s bound).
unsafe impl Send for Task {}

#[derive(Default)]
struct TeamState {
    generation: u64,
    task: Option<Task>,
    /// Next unclaimed index of the current task.
    next: usize,
    /// Indices claimed but not yet finished.
    in_flight: usize,
    /// Set when a task closure panicked on a worker; rethrown by `run`.
    panicked: bool,
    shutdown: bool,
    /// Helpers that have entered their loop (see [`WorkTeam::new`]).
    started: usize,
}

struct Shared {
    state: Mutex<TeamState>,
    work: Condvar,
    done: Condvar,
}

/// A fixed-size team executing indexed fan-outs; see the module docs.
pub struct WorkTeam {
    shared: Arc<Shared>,
    /// Pool hosting the `threads - 1` helper jobs (`None` for one thread).
    /// Held so its `Drop` joins the helpers after shutdown is signalled.
    _pool: Option<ThreadPool>,
    threads: usize,
}

impl WorkTeam {
    /// Creates a team of `threads` workers (the calling thread counts as
    /// one; `threads - 1` helpers park on a dedicated pool).
    ///
    /// Returns only once every helper is running. A thread allocates while
    /// it starts (the standard library copies its name for the
    /// stack-overflow handler), and on a loaded host a helper can start
    /// long after its first `run` calls were served by the calling thread
    /// alone; waiting here keeps that allocation out of `run`.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(TeamState::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let pool = (threads > 1).then(|| {
            let pool = ThreadPool::new(threads - 1);
            for _ in 0..threads - 1 {
                let shared = Arc::clone(&shared);
                pool.execute(move || helper_loop(&shared));
            }
            let mut state = shared.state.lock();
            while state.started < threads - 1 {
                shared.done.wait(&mut state);
            }
            drop(state);
            pool
        });
        Self {
            shared,
            _pool: pool,
            threads,
        }
    }

    /// Number of workers (including the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(i)` for every `i in 0..n`, each index exactly once, spread
    /// over the team. Blocks until all calls complete; allocation-free once
    /// the team is constructed.
    ///
    /// # Panics
    /// Panics if `f` panicked on any worker (the panic is contained on the
    /// worker and rethrown here, so the team stays usable).
    pub fn run<F: Fn(usize) + Sync>(&self, n: usize, f: F) {
        if n == 0 {
            return;
        }
        if self._pool.is_none() || n == 1 {
            for i in 0..n {
                f(i);
            }
            return;
        }
        unsafe fn call_erased<F: Fn(usize)>(ctx: *const (), i: usize) {
            // SAFETY: `ctx` is the `&f` published below; `run` does not
            // return until every claimed call finished.
            unsafe { (*(ctx as *const F))(i) }
        }
        {
            let mut state = self.shared.state.lock();
            debug_assert!(state.task.is_none(), "run is not reentrant");
            state.task = Some(Task {
                ctx: &f as *const F as *const (),
                call: call_erased::<F>,
                total: n,
            });
            state.next = 0;
            state.in_flight = 0;
            state.generation += 1;
        }
        self.shared.work.notify_all();

        // The calling thread claims indices too.
        work_current_task(&self.shared);

        let mut state = self.shared.state.lock();
        while state.next < n || state.in_flight > 0 {
            self.shared.done.wait(&mut state);
        }
        state.task = None;
        let panicked = std::mem::take(&mut state.panicked);
        drop(state);
        if panicked {
            panic!("a WorkTeam task panicked on a worker thread");
        }
    }
}

impl Drop for WorkTeam {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        // `self._pool` drops next: its channel closes and it joins the
        // helpers, which exit `helper_loop` on the shutdown flag.
    }
}

/// Claims and executes indices of the current task until it is exhausted.
fn work_current_task(shared: &Shared) {
    loop {
        let (task, i) = {
            let mut state = shared.state.lock();
            let Some(task) = state.task else { return };
            if state.next >= task.total {
                return;
            }
            let i = state.next;
            state.next += 1;
            state.in_flight += 1;
            (task, i)
        };
        // Contain panics so one bad shard cannot wedge the whole team.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            (task.call)(task.ctx, i)
        }));
        let mut state = shared.state.lock();
        state.in_flight -= 1;
        if outcome.is_err() {
            state.panicked = true;
        }
        let finished = state.next >= task.total && state.in_flight == 0;
        drop(state);
        if finished {
            shared.done.notify_all();
        }
    }
}

/// The persistent helper job: sleep until a new generation is published,
/// help drain it, repeat until shutdown.
fn helper_loop(shared: &Shared) {
    shared.state.lock().started += 1;
    shared.done.notify_all();
    let mut seen_generation = 0u64;
    loop {
        {
            let mut state = shared.state.lock();
            loop {
                if state.shutdown {
                    return;
                }
                let claimable = state.task.as_ref().is_some_and(|t| state.next < t.total);
                if claimable && state.generation > seen_generation {
                    seen_generation = state.generation;
                    break;
                }
                shared.work.wait(&mut state);
            }
        }
        work_current_task(shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn covers_every_index_exactly_once() {
        let team = WorkTeam::new(4);
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        for _round in 0..50 {
            team.run(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 50));
    }

    #[test]
    fn new_returns_once_every_helper_runs() {
        // A helper still starting when `run` is first called would
        // allocate (thread start-up) inside a supposedly allocation-free
        // step; `new` must have waited for all of them.
        let team = WorkTeam::new(3);
        assert_eq!(team.shared.state.lock().started, 2);
    }

    #[test]
    fn single_thread_runs_inline() {
        let team = WorkTeam::new(1);
        assert_eq!(team.threads(), 1);
        let sum = AtomicUsize::new(0);
        team.run(10, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn team_survives_a_panicking_task() {
        let team = WorkTeam::new(3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            team.run(8, |i| {
                if i == 3 {
                    panic!("shard failure");
                }
            });
        }));
        assert!(result.is_err(), "panic must be rethrown to the caller");
        // The team keeps working afterwards.
        let count = AtomicUsize::new(0);
        team.run(16, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn zero_items_is_a_noop() {
        let team = WorkTeam::new(2);
        team.run(0, |_| panic!("must not be called"));
    }

    #[test]
    fn mutable_sharding_through_cells() {
        // The intended usage pattern: disjoint &mut access via claimed
        // indices.
        use std::cell::UnsafeCell;
        struct Cells(Vec<UnsafeCell<u64>>);
        unsafe impl Sync for Cells {}
        let cells = Cells((0..32).map(|_| UnsafeCell::new(0)).collect());
        let team = WorkTeam::new(4);
        for _ in 0..10 {
            // Capture the Sync wrapper itself, not the non-Sync field path.
            let cells = &cells;
            team.run(32, move |i| {
                // SAFETY: each index is claimed by exactly one worker.
                unsafe { *cells.0[i].get() += i as u64 };
            });
        }
        for (i, c) in cells.0.iter().enumerate() {
            assert_eq!(unsafe { *c.get() }, 10 * i as u64);
        }
    }
}
