//! Hub benchmark harness for `bench_snapshot`: recall latency (memory and
//! disk) and concurrent shared-snapshot predict throughput at 1/2/4
//! threads — the serving profile the model-state split exists for.

use bellamy_core::train::pretrain;
use bellamy_core::{
    context_properties, Bellamy, BellamyConfig, ContextProperties, ModelHub, ModelKey, ModelState,
    Predictor, PretrainConfig, TrainingSample,
};
use bellamy_data::{generate_c3o, Algorithm, GeneratorConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Queries per sweep in the throughput measurement (the §IV
/// allocation-search shape).
pub const SWEEP: usize = 64;

/// Disk recall latency (map, verify, state build).
pub struct DiskRecall {
    /// µs for the very first fresh-hub recall of the run (mapping setup,
    /// first pass over the bytes; the page cache is hot, so this is
    /// software cold-start, not major-fault cost).
    pub cold_us: f64,
    /// Mean µs over subsequent fresh-hub recalls.
    pub warm_us: f64,
}

/// Results of one hub benchmark run.
pub struct HubBenchResult {
    /// Mean µs for a memory recall (`Arc` clone out of the registry).
    pub recall_memory_us: f64,
    /// Cold/warm disk recall (fresh hub instance each iteration:
    /// checkpoint map + state build — the restart path).
    pub disk: DiskRecall,
    /// `(threads, queries_per_second)` for the concurrent shared-snapshot
    /// sweep workload.
    pub concurrent_qps: Vec<(usize, f64)>,
}

/// Builds a disk-backed hub with one pretrained model and measures recall
/// latency plus concurrent predict throughput. The directory is removed
/// afterwards.
pub fn run() -> HubBenchResult {
    let data = generate_c3o(&GeneratorConfig::seeded(5));
    let target = data.contexts_for(Algorithm::Sgd)[0];
    let history: Vec<TrainingSample> = data
        .runs_for_algorithm_excluding(Algorithm::Sgd, Some(target.id))
        .iter()
        .map(|r| TrainingSample::from_run(&data.contexts[r.context_id], r))
        .collect();
    let mut model = Bellamy::new(BellamyConfig::default(), 5);
    pretrain(
        &mut model,
        &history,
        &PretrainConfig {
            epochs: 10,
            ..PretrainConfig::default()
        },
        5,
    );

    let dir = std::env::temp_dir().join(format!("bellamy-bench-hub-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = ModelKey::new("sgd", "bench-runtime", &BellamyConfig::default());
    let hub = ModelHub::at(&dir).expect("create hub dir");
    hub.publish(&key, &model).expect("publish");

    // Memory recall: Arc clone out of the registry map.
    let iters = 10_000;
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(hub.recall(&key).expect("memory recall"));
    }
    let recall_memory_us = start.elapsed().as_secs_f64() / iters as f64 * 1e6;

    // Disk recall: a fresh hub instance per iteration (checkpoint map +
    // state build), the restart path.
    let disk = disk_recall_latency(&dir, &key);

    // Concurrent predict throughput on one shared snapshot.
    let state = hub.recall(&key).expect("recall");
    let props = context_properties(target);
    let concurrent_qps = [1usize, 2, 4]
        .iter()
        .map(|&threads| (threads, sweep_throughput(&state, &props, threads)))
        .collect();

    std::fs::remove_dir_all(&dir).ok();
    HubBenchResult {
        recall_memory_us,
        disk,
        concurrent_qps,
    }
}

/// Cold (first) and warm (mean of 50 subsequent) fresh-hub disk recall.
fn disk_recall_latency(dir: &Path, key: &ModelKey) -> DiskRecall {
    let open = || ModelHub::at(dir).expect("open hub dir");
    let start = Instant::now();
    std::hint::black_box(open().recall(key).expect("cold disk recall"));
    let cold_us = start.elapsed().as_secs_f64() * 1e6;

    let iters = 50;
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(open().recall(key).expect("warm disk recall"));
    }
    let warm_us = start.elapsed().as_secs_f64() / iters as f64 * 1e6;
    DiskRecall { cold_us, warm_us }
}

/// Total queries/second over `threads` workers, each driving its own
/// predictor through [`SWEEP`]-query sweeps of one shared snapshot.
fn sweep_throughput(state: &Arc<ModelState>, props: &ContextProperties, threads: usize) -> f64 {
    const SWEEPS_PER_THREAD: usize = 400;
    let scale_outs: Vec<f64> = (0..SWEEP).map(|i| 2.0 + (i % 11) as f64).collect();

    // Warm the shared encoding cache once so every thread measures the
    // steady state.
    Predictor::new().predict_sweep(state, props, &scale_outs);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let state = Arc::clone(state);
            let scale_outs = &scale_outs;
            scope.spawn(move || {
                let mut predictor = Predictor::new();
                let mut acc = 0.0;
                for _ in 0..SWEEPS_PER_THREAD {
                    acc += predictor
                        .predict_sweep(&state, props, scale_outs)
                        .iter()
                        .sum::<f64>();
                }
                std::hint::black_box(acc);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    (threads * SWEEPS_PER_THREAD * SWEEP) as f64 / elapsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_bench_produces_sane_numbers() {
        let r = run();
        assert!(r.recall_memory_us > 0.0);
        assert!(r.disk.cold_us > 0.0, "cold recall unmeasured");
        assert!(r.disk.warm_us > r.recall_memory_us);
        assert_eq!(r.concurrent_qps.len(), 3);
        for (threads, qps) in &r.concurrent_qps {
            assert!(*qps > 0.0, "{threads} threads produced no throughput");
        }
    }
}
