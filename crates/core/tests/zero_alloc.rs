//! Proof that the steady-state training step *and* the steady-state batched
//! inference path are allocation-free.
//!
//! A counting global allocator tallies every `alloc`/`realloc`; after the
//! warm-up epochs have sized the tape arenas, gradient workspaces, batch
//! tensors, and buffer pools, further epochs must not touch the allocator
//! at all — on the sequential path *and* on the data-parallel path (the
//! worker team parks persistent jobs, so fanning a step out is signalling
//! only). Likewise, once a `Predictor` has seen a batch shape and the
//! context's property encodings, further `predict_batch`/`predict_sweep`/
//! single-`predict` calls must not allocate, and neither must a
//! fine-tuning epoch. The telemetry instrumentation added to these paths
//! (counters, log₂ latency histograms) is always on, so every window below
//! also proves the record path allocation-free.
//!
//! The counter is process-global, so the tests run one at a time
//! ([`serial`]), and it counts only the threads a test exercises: the test
//! thread holding the serial lock and the library's own threads (all named
//! `bellamy-*`: the worker-team helpers). The harness runs
//! beside every window — libtest's main thread spawns the next test when
//! one finishes, and the new thread allocates while it starts — and those
//! allocations are not the library's.

use bellamy_core::finetune::fine_tune;
use bellamy_core::train::Pretrainer;
use bellamy_core::{
    Bellamy, BellamyConfig, ContextProperties, FinetuneConfig, ModelHub, ModelKey, ModelState,
    PredictQuery, Predictor, PretrainConfig, ReuseStrategy, Service, TrainingSample,
};
use bellamy_encoding::PropertyValue;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set while this thread holds the serial lock.
    static HOLDS_SERIAL: Cell<bool> = const { Cell::new(false) };
}

/// Whether an allocation on the calling thread counts (see the module
/// docs). Allocation-free: a const thread-local and one `prctl` call.
fn counted() -> bool {
    HOLDS_SERIAL.try_with(Cell::get).unwrap_or(false) || on_library_thread()
}

/// True on a thread the library named `bellamy-*`. Reads the kernel's
/// thread name, because asking `std::thread` from inside an allocator can
/// allocate (and re-enter it).
#[cfg(target_os = "linux")]
fn on_library_thread() -> bool {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_GET_NAME: i32 = 16;
    let mut name = [0u8; 16];
    // SAFETY: PR_GET_NAME writes at most 16 bytes, NUL included, into the
    // 16-byte buffer it is given.
    let ok = unsafe { prctl(PR_GET_NAME, name.as_mut_ptr()) } == 0;
    ok && name.starts_with(b"bellamy-")
}

/// Without a portable way to name threads here, count them all.
#[cfg(not(target_os = "linux"))]
fn on_library_thread() -> bool {
    true
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The serial lock, held by each test for its whole body; while held, the
/// holder's allocations count.
struct Serial {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for Serial {
    fn drop(&mut self) {
        HOLDS_SERIAL.with(|h| h.set(false));
    }
}

fn serial() -> Serial {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    HOLDS_SERIAL.with(|h| h.set(true));
    Serial { _guard: guard }
}

/// A small deterministic training set; built by hand so the test does not
/// depend on the (allocation-heavy) trace generators.
fn samples(n: usize) -> Vec<TrainingSample> {
    let node_types = ["m4.xlarge", "c4.2xlarge", "r4.xlarge"];
    (0..n)
        .map(|i| {
            let x = 2.0 + (i % 6) as f64 * 2.0;
            TrainingSample {
                scale_out: x,
                runtime_s: 100.0 + 400.0 / x + 3.0 * (i % 7) as f64,
                props: ContextProperties {
                    essential: vec![
                        PropertyValue::Number(4096 + 512 * (i as u64 % 5)),
                        PropertyValue::text("dense-features"),
                        PropertyValue::text("--iterations 50"),
                        PropertyValue::text(node_types[i % node_types.len()]),
                    ],
                    optional: vec![
                        PropertyValue::Number(16_384),
                        PropertyValue::Number(8),
                        PropertyValue::text("sgd"),
                    ],
                },
            }
        })
        .collect()
}

fn allocations_during_epochs(cfg: &PretrainConfig, n_samples: usize, warmup: usize) -> u64 {
    let samples = samples(n_samples);
    let mut model = Bellamy::new(BellamyConfig::default(), 7);
    let mut trainer = Pretrainer::new(&mut model, &samples, cfg, 13);
    for _ in 0..warmup {
        trainer.run_epoch(&mut model);
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..5 {
        trainer.run_epoch(&mut model);
    }
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn steady_state_step_is_allocation_free_sequential() {
    let _serial = serial();
    let cfg = PretrainConfig {
        epochs: 0,
        batch_size: 8,
        workers: 1,
        shards: 1,
        ..PretrainConfig::default()
    };
    // 24 samples, batch 8: uniform batch shapes.
    let allocs = allocations_during_epochs(&cfg, 24, 2);
    assert_eq!(
        allocs, 0,
        "sequential steady-state epochs must not allocate"
    );
}

#[test]
fn steady_state_step_is_allocation_free_with_ragged_tail_batch() {
    let _serial = serial();
    let cfg = PretrainConfig {
        epochs: 0,
        batch_size: 8,
        workers: 1,
        shards: 2,
        ..PretrainConfig::default()
    };
    // 20 samples, batch 8: epochs alternate 8/8/4-row batches, exercising
    // the buffer-pool recycling across shape changes.
    let allocs = allocations_during_epochs(&cfg, 20, 2);
    assert_eq!(
        allocs, 0,
        "tail-batch shape changes must be served by the pools"
    );
}

#[test]
fn steady_state_step_is_allocation_free_data_parallel() {
    let _serial = serial();
    let cfg = PretrainConfig {
        epochs: 0,
        batch_size: 8,
        workers: 2,
        shards: 2,
        ..PretrainConfig::default()
    };
    let allocs = allocations_during_epochs(&cfg, 24, 2);
    assert_eq!(
        allocs, 0,
        "the worker-team fan-out must be signalling-only in steady state"
    );
}

#[test]
fn finetune_epochs_are_allocation_free() {
    let _serial = serial();
    // Fine-tuning assembles its batch, its context codes and its arena
    // once; each epoch then replays the same tape. With an unreachable MAE
    // target and unbounded patience every run trains exactly its epoch
    // cap, so a run capped at 4N epochs may allocate no more than one
    // capped at N. N = 25 puts `f`'s unfreeze (epoch 63 for 4 samples)
    // inside the longer run only.
    let (state, samples) = fitted_state_and_samples();
    let few = &samples[..4];
    let allocations_for = |epochs: usize| {
        let cfg = FinetuneConfig {
            max_epochs: epochs,
            target_mae: -1.0,
            patience: usize::MAX,
            ..FinetuneConfig::default()
        };
        let mut handle = Bellamy::from_state(&state);
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let report = fine_tune(&mut handle, few, &cfg, ReuseStrategy::PartialUnfreeze, 1);
        let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
        assert_eq!(report.epochs, epochs, "the cap must stop every run");
        allocs
    };
    allocations_for(25); // warm-up: lazily initialized process statics
    let short = allocations_for(25);
    let long = allocations_for(100);
    assert_eq!(
        long, short,
        "fine-tuning epochs beyond the first must not allocate"
    );
}

/// A fitted (not necessarily well-trained — irrelevant for allocation
/// accounting) model snapshot plus a query workload over its training
/// contexts.
fn fitted_state_and_samples() -> (std::sync::Arc<ModelState>, Vec<TrainingSample>) {
    let samples = samples(24);
    let mut model = Bellamy::new(BellamyConfig::default(), 7);
    let mut trainer = Pretrainer::new(&mut model, &samples, &PretrainConfig::default(), 13);
    trainer.run_epoch(&mut model);
    (model.snapshot().expect("fitted"), samples)
}

#[test]
fn steady_state_batched_predict_is_allocation_free() {
    let _serial = serial();
    let (state, samples) = fitted_state_and_samples();
    let queries: Vec<PredictQuery<'_>> = samples
        .iter()
        .map(|s| PredictQuery {
            scale_out: s.scale_out,
            props: &s.props,
        })
        .collect();
    let mut predictor = Predictor::new();
    // Warm-up: size the arena/pools and populate the shared encoding cache.
    for _ in 0..2 {
        predictor.predict_batch(&state, &queries);
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..10 {
        let preds = predictor.predict_batch(&state, &queries);
        assert_eq!(preds.len(), queries.len());
    }
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(allocs, 0, "steady-state predict_batch must not allocate");
}

#[test]
fn steady_state_sweep_and_single_predict_are_allocation_free() {
    let _serial = serial();
    let (state, samples) = fitted_state_and_samples();
    let props = samples[0].props.clone();
    let xs: Vec<f64> = (2..=12).map(|x| x as f64).collect();
    let mut predictor = Predictor::new();
    predictor.predict_sweep(&state, &props, &xs);
    predictor.predict_one(&state, 6.0, &props);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..10 {
        predictor.predict_sweep(&state, &props, &xs);
    }
    let sweep_allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        sweep_allocs, 0,
        "steady-state predict_sweep must not allocate"
    );

    // The alternating sweep/single shapes are both pooled now; the single-
    // query path (what `ModelState::predict` wraps) must also be free.
    predictor.predict_one(&state, 6.0, &props);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..10 {
        predictor.predict_one(&state, 6.0, &props);
    }
    let single_allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        single_allocs, 0,
        "steady-state single-query predict must not allocate"
    );
}

#[test]
fn steady_state_predict_on_a_mapped_state_is_allocation_free() {
    let _serial = serial();
    // Weights recalled through the mmap path live in borrowed storage, not
    // an owned buffer — the kernels must not care. After warm-up, batched
    // prediction over a *mapped* state must be exactly as allocation-free
    // as over an owned one: the mapped slices feed the same kernel calls,
    // and reading a page-cache-backed slice is not an allocation.
    let samples = samples(24);
    let mut model = Bellamy::new(BellamyConfig::default(), 7);
    let mut trainer = Pretrainer::new(&mut model, &samples, &PretrainConfig::default(), 13);
    trainer.run_epoch(&mut model);

    let dir = std::env::temp_dir().join(format!("bellamy-zeroalloc-mmap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = ModelKey::new("grep", "runtime", &BellamyConfig::default());
    ModelHub::at(&dir).unwrap().publish(&key, &model).unwrap();
    let hub = ModelHub::at(&dir).unwrap();
    let state = hub.recall(&key).unwrap();
    assert!(state.weights_mapped(), "the recall must borrow the file");

    let queries: Vec<PredictQuery<'_>> = samples
        .iter()
        .map(|s| PredictQuery {
            scale_out: s.scale_out,
            props: &s.props,
        })
        .collect();
    let mut predictor = Predictor::new();
    for _ in 0..2 {
        predictor.predict_batch(&state, &queries);
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..10 {
        let preds = predictor.predict_batch(&state, &queries);
        assert_eq!(preds.len(), queries.len());
    }
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocs, 0,
        "steady-state predict over mapped weights must not allocate"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn steady_state_client_predict_is_allocation_free() {
    let _serial = serial();
    // The serve front door's single-query path: the client's cached
    // registry entry, a `catch_unwind` around this thread's warm predictor,
    // the query and panic counters, and the sampled latency histogram.
    // After the warm-up sized the arena, pool matrices, and the shared
    // encoding cache (and created the registry entry), a steady-state
    // `predict` must not touch the allocator. Timing is on (the default)
    // and the window spans more than one sampling period, so this also
    // proves the latency record path is the promised single `fetch_add` —
    // no boxing, no formatting.
    assert!(bellamy_telemetry::timing_enabled());
    let (state, samples) = fitted_state_and_samples();
    let props = samples[0].props.clone();
    let service = Service::in_memory();
    let client = service.client_for_state(state);
    for _ in 0..4 {
        client.predict(6.0, &props).expect("warm-up");
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..20 {
        let pred = client.predict(6.0, &props).expect("steady state");
        assert!(pred.is_finite());
    }
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocs, 0,
        "steady-state ModelClient::predict must not allocate"
    );
    assert_eq!(client.batcher_stats().queries, 24);
}

#[test]
fn steady_state_instrumented_memory_recall_is_allocation_free() {
    let _serial = serial();
    // Hub recalls are instrumented (telemetry counters on every path, a
    // latency histogram on disk recalls). The memory-hit path — the one a
    // server leans on per request — must stay allocation-free: a
    // registry lock, one counter `fetch_add`, an `Arc` clone.
    let samples = samples(24);
    let mut model = Bellamy::new(BellamyConfig::default(), 7);
    let mut trainer = Pretrainer::new(&mut model, &samples, &PretrainConfig::default(), 13);
    trainer.run_epoch(&mut model);
    let hub = ModelHub::in_memory();
    let key = ModelKey::new("grep", "runtime-recall", &BellamyConfig::default());
    hub.publish(&key, &model).unwrap();
    for _ in 0..2 {
        hub.recall(&key).unwrap();
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..10 {
        let state = hub.recall(&key).expect("registered key");
        drop(state);
    }
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocs, 0,
        "instrumented steady-state memory recall must not allocate"
    );
    assert!(
        hub.stats().memory_recalls >= 12,
        "the instrumented counter must have seen every recall"
    );
}

#[test]
fn kernel_dispatch_is_allocation_free_in_steady_state() {
    let _serial = serial();
    // The SIMD dispatch layer resolves the kernel table once (a `OnceLock`
    // the first call may initialize — that's warm-up); after that, routing
    // every matrix operation through the table must not touch the
    // allocator. This pins down that the dispatch indirection is free, not
    // just amortized.
    use bellamy_linalg::{kernels, Matrix};

    let a = Matrix::from_fn(9, 7, |i, j| (i as f64 * 0.3) - j as f64);
    let b = Matrix::from_fn(7, 9, |i, j| (j as f64 * 0.7) - i as f64);
    let c = Matrix::from_fn(9, 9, |i, j| (i + j) as f64 * 0.1);
    let mut out = Matrix::zeros(9, 9);
    let mut acc = Matrix::zeros(9, 9);

    // Warm-up: forces the one-time backend resolution and any lazy init.
    let _ = kernels::active_backend();
    a.matmul_into(&b, &mut out);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..10 {
        a.matmul_into(&b, &mut out);
        out.add_into(&c, &mut acc);
        acc.hadamard_into(&c, &mut out);
        out.sub_into(&c, &mut acc);
        acc.scale_into(0.5, &mut out);
        acc.axpy(1.25, &out);
    }
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocs,
        0,
        "kernel dispatch must not allocate in steady state (backend: {})",
        kernels::backend_name()
    );
}

#[test]
fn steady_state_shared_cache_predict_is_allocation_free_and_bounded() {
    let _serial = serial();
    // The encoding memo moved out of the per-thread predictor into the
    // lock-sharded cache inside `ModelState`. The steady-state hit path
    // (read lock + copy) must stay allocation-free, the cache must not
    // grow under a repeating workload, and a *second* predictor serving
    // the same snapshot must benefit from the first one's warm-up (its
    // first batch only pays arena growth, never re-encoding — proven by
    // the cache size staying flat).
    let (state, samples) = fitted_state_and_samples();
    let queries: Vec<PredictQuery<'_>> = samples
        .iter()
        .map(|s| PredictQuery {
            scale_out: s.scale_out,
            props: &s.props,
        })
        .collect();

    let mut first = Predictor::new();
    for _ in 0..2 {
        first.predict_batch(&state, &queries);
    }
    let warm = state.encoding_cache_len();
    assert!(warm > 0, "the workload must populate the shared cache");
    assert!(
        warm <= bellamy_core::state::ENCODE_CACHE_CAP,
        "cache must stay bounded"
    );

    // A second workspace on the same shared state: warm its arena, then
    // demand zero allocations at steady state too.
    let mut second = Predictor::new();
    for _ in 0..2 {
        second.predict_batch(&state, &queries);
    }
    assert_eq!(
        state.encoding_cache_len(),
        warm,
        "a second predictor must reuse the shared encodings, not re-insert"
    );
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..10 {
        first.predict_batch(&state, &queries);
        second.predict_batch(&state, &queries);
    }
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocs, 0,
        "steady-state shared-cache predict path must not allocate"
    );
    assert_eq!(state.encoding_cache_len(), warm, "cache must stay flat");
}
