//! Serving benchmark harness for `bench_snapshot` and `benches/serve.rs`:
//! per-query latency (mean, p50, p99) and total throughput of single-query
//! serving at 1/2/4 calling threads, comparing a bare per-thread
//! [`Predictor`] against the [`Service`] client.
//!
//! Both run the same forward pass on the calling thread; the client adds
//! a read of its cached registry entry, a `catch_unwind`, a counter and
//! the sampled latency record. The ratio of the two rows is the price of the
//! front door. The client's panic counter rides along in the result —
//! zero in a healthy run, so any non-zero value in a snapshot is itself a
//! regression signal.

use crate::predict::{workload, PredictWorkload};
use bellamy_core::{Predictor, Service};
use bellamy_telemetry::nearest_rank;
use std::sync::Arc;
use std::time::Instant;

/// Queries each calling thread issues per measurement.
pub const QUERIES_PER_THREAD: usize = 2000;

/// One (mode, thread-count) measurement.
#[derive(Debug, Clone)]
pub struct ServeBenchRow {
    /// `"direct"` or `"client"`.
    pub mode: &'static str,
    /// Calling threads.
    pub threads: usize,
    /// Mean wall-clock µs per query, per calling thread.
    pub us_per_query: f64,
    /// Median per-query latency in µs (across all threads' queries).
    pub p50_us: f64,
    /// 99th-percentile per-query latency in µs.
    pub p99_us: f64,
    /// Total queries per second across all threads.
    pub qps: f64,
}

/// All rows of one serving benchmark run.
pub struct ServeBenchResult {
    /// Measurements for both modes at 1/2/4 threads.
    pub rows: Vec<ServeBenchRow>,
    /// Forward-pass panics the client caught over all its runs. A healthy
    /// benchmark records zero; anything else is a regression worth
    /// investigating.
    pub panics: u64,
}

impl ServeBenchResult {
    /// The `(direct, client)` qps pair at `threads`.
    pub fn qps_pair(&self, threads: usize) -> Option<(f64, f64)> {
        let find = |mode: &str| {
            self.rows
                .iter()
                .find(|r| r.mode == mode && r.threads == threads)
                .map(|r| r.qps)
        };
        Some((find("direct")?, find("client")?))
    }
}

/// Runs the serving benchmark on the standard pre-trained SGD workload.
pub fn run() -> ServeBenchResult {
    let w = workload();
    let mut rows = Vec::new();
    let mut panics = 0;
    for &threads in &[1usize, 2, 4] {
        rows.push(run_direct(&w, threads));
        let (row, run_panics) = run_client(&w, threads);
        rows.push(row);
        panics += run_panics;
    }
    ServeBenchResult { rows, panics }
}

/// Direct serving: each thread owns a `Predictor` and queries the shared
/// snapshot one call at a time.
fn run_direct(w: &PredictWorkload, threads: usize) -> ServeBenchRow {
    let state = Arc::clone(&w.state);
    let props = &w.props;
    let mut latencies: Vec<u64> = Vec::with_capacity(threads * QUERIES_PER_THREAD);
    // Per-thread warm-up, then a barrier-free timed run (threads start
    // within microseconds of each other; the workload dwarfs the skew).
    let mut elapsed = 0.0;
    std::thread::scope(|scope| {
        let start = Instant::now();
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let state = Arc::clone(&state);
                scope.spawn(move || {
                    let mut predictor = Predictor::new();
                    for i in 0..200 {
                        std::hint::black_box(predictor.predict_one(
                            &state,
                            2.0 + (i % 11) as f64,
                            props,
                        ));
                    }
                    let mut lat = Vec::with_capacity(QUERIES_PER_THREAD);
                    let mut acc = 0.0;
                    for i in 0..QUERIES_PER_THREAD {
                        let issued = Instant::now();
                        acc += predictor.predict_one(&state, 2.0 + (i % 11) as f64, props);
                        lat.push(issued.elapsed().as_nanos() as u64);
                    }
                    std::hint::black_box(acc);
                    lat
                })
            })
            .collect();
        for handle in handles {
            latencies.extend(handle.join().expect("bench thread"));
        }
        elapsed = start.elapsed().as_secs_f64();
    });
    row("direct", threads, elapsed, &mut latencies)
}

/// Client serving: every thread sends single queries through clones of
/// one [`Service`] client. Also returns the panics the client caught.
fn run_client(w: &PredictWorkload, threads: usize) -> (ServeBenchRow, u64) {
    let service = Service::builder().build().expect("in-memory service");
    let client = service.client_for_state(Arc::clone(&w.state));
    let props = &w.props;
    let mut latencies: Vec<u64> = Vec::with_capacity(threads * QUERIES_PER_THREAD);
    let mut elapsed = 0.0;
    std::thread::scope(|scope| {
        let start = Instant::now();
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let client = client.clone();
                scope.spawn(move || {
                    for i in 0..200 {
                        std::hint::black_box(
                            client
                                .predict(2.0 + (i % 11) as f64, props)
                                .expect("no panic"),
                        );
                    }
                    let mut lat = Vec::with_capacity(QUERIES_PER_THREAD);
                    let mut acc = 0.0;
                    for i in 0..QUERIES_PER_THREAD {
                        let issued = Instant::now();
                        acc += client
                            .predict(2.0 + (i % 11) as f64, props)
                            .expect("no panic");
                        lat.push(issued.elapsed().as_nanos() as u64);
                    }
                    std::hint::black_box(acc);
                    lat
                })
            })
            .collect();
        for handle in handles {
            latencies.extend(handle.join().expect("bench thread"));
        }
        elapsed = start.elapsed().as_secs_f64();
    });
    (
        row("client", threads, elapsed, &mut latencies),
        client.batcher_stats().panics,
    )
}

/// Cost of the telemetry instrumentation on the steady-state client path:
/// single-thread µs/query with latency timing disabled vs enabled.
#[derive(Debug, Clone)]
pub struct TelemetryOverheadRow {
    /// Best-of-run µs per query with `bellamy_telemetry::set_timing_enabled(false)`.
    pub uninstrumented_us: f64,
    /// Best-of-run µs per query with timing enabled (the default).
    pub instrumented_us: f64,
    /// `(instrumented - uninstrumented) / uninstrumented * 100`. Can dip
    /// slightly negative on a noisy host; the acceptance bound is ≤ 2%.
    pub overhead_pct: f64,
}

/// Measures the client-path cost of the latency-timing instrumentation
/// (the only telemetry the toggle gates — counters always run, exactly as
/// they did before the telemetry subsystem existed). The timing itself is
/// sampled 1-in-8 inside the client, so the ON side pays one sampler
/// `fetch_add` per query plus an amortized `Instant` pair. OFF/ON runs are
/// interleaved and each side keeps its best of five windows, cancelling
/// frequency drift and background noise on shared hosts.
pub fn measure_telemetry_overhead() -> TelemetryOverheadRow {
    let w = workload();
    let service = Service::builder().build().expect("in-memory service");
    let client = service.client_for_state(Arc::clone(&w.state));
    let props = &w.props;
    for i in 0..200 {
        std::hint::black_box(
            client
                .predict(2.0 + (i % 11) as f64, props)
                .expect("no panic"),
        );
    }
    let time_window = || {
        let start = Instant::now();
        let mut acc = 0.0;
        for i in 0..QUERIES_PER_THREAD {
            acc += client
                .predict(2.0 + (i % 11) as f64, props)
                .expect("no panic");
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64() / QUERIES_PER_THREAD as f64 * 1e6
    };
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    for _ in 0..5 {
        bellamy_telemetry::set_timing_enabled(false);
        best_off = best_off.min(time_window());
        bellamy_telemetry::set_timing_enabled(true);
        best_on = best_on.min(time_window());
    }
    TelemetryOverheadRow {
        uninstrumented_us: best_off,
        instrumented_us: best_on,
        overhead_pct: (best_on - best_off) / best_off * 100.0,
    }
}

/// Nearest-rank percentile over a *sorted* nanosecond sample, in µs. The
/// rank selection is `bellamy_telemetry::nearest_rank` — the same shared
/// implementation the telemetry histograms use — so bench and runtime
/// percentiles can never disagree on convention.
fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    nearest_rank(sorted, q) as f64 / 1e3
}

fn row(mode: &'static str, threads: usize, elapsed_s: f64, latencies: &mut [u64]) -> ServeBenchRow {
    latencies.sort_unstable();
    // Warm-up queries are inside the window; subtract them from neither
    // side — they are the same 10% for both modes.
    let per_thread = QUERIES_PER_THREAD + 200;
    ServeBenchRow {
        mode,
        threads,
        us_per_query: elapsed_s / per_thread as f64 * 1e6,
        p50_us: percentile_us(latencies, 0.50),
        p99_us: percentile_us(latencies, 0.99),
        qps: (threads * per_thread) as f64 / elapsed_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_bench_produces_sane_numbers() {
        let r = run();
        assert_eq!(r.rows.len(), 6);
        for row in &r.rows {
            assert!(
                row.qps > 0.0,
                "{} @ {}: no throughput",
                row.mode,
                row.threads
            );
            assert!(row.us_per_query > 0.0);
            assert!(
                row.p50_us > 0.0,
                "{} @ {}: empty p50",
                row.mode,
                row.threads
            );
            assert!(
                row.p99_us >= row.p50_us,
                "{} @ {}: p99 below p50",
                row.mode,
                row.threads
            );
        }
        let (direct, client) = r.qps_pair(4).expect("4-thread rows exist");
        assert!(direct > 0.0 && client > 0.0);
        assert_eq!(r.panics, 0, "a healthy benchmark never panics");
    }

    #[test]
    fn telemetry_overhead_is_finite_and_restores_timing() {
        let row = measure_telemetry_overhead();
        assert!(row.uninstrumented_us > 0.0);
        assert!(row.instrumented_us > 0.0);
        assert!(row.overhead_pct.is_finite());
        // The toggle must be back on after the measurement.
        assert!(bellamy_telemetry::timing_enabled());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut lat: Vec<u64> = (0..=100).map(|i| i * 1000).collect();
        lat.sort_unstable();
        assert_eq!(percentile_us(&lat, 0.0), 0.0);
        assert_eq!(percentile_us(&lat, 0.50), 50.0);
        assert_eq!(percentile_us(&lat, 0.99), 99.0);
        assert_eq!(percentile_us(&lat, 1.0), 100.0);
        assert_eq!(percentile_us(&[], 0.99), 0.0);
    }
}
