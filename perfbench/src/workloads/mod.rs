//! The four workloads. Each prepares during set-up (its warm-up counts in
//! `setup_s`) and then runs timed phases; a traced phase also derives the
//! per-layer metrics from its spans and the program's public counters.

pub mod onboard;
pub mod plan;
pub mod restart;
pub mod serve;

use crate::run::Phase;
use crate::sets::Decisions;
use crate::setup::{Inputs, Setup};
use crate::stats::{histogram_delta, histogram_quantile};
use crate::trace::{durations, Span, Tracer};
use bellamy_core::{BellamyConfig, TelemetrySnapshot};
use bellamy_telemetry::{HistogramSnapshot, MetricValue, NUM_BUCKETS};

/// Spans one traced phase may hold per recording thread (~10 MB).
pub const SPAN_CAPACITY: usize = 1 << 18;

/// What a phase reads: the generated inputs, the set-up, and the seeded
/// decision sets of `plan` and `onboard`.
pub struct Env<'a> {
    pub inputs: &'a Inputs,
    pub setup: &'a Setup,
    pub plan: &'a Decisions,
    pub jobs: &'a Decisions,
}

/// A finished phase: ops, per-layer metrics (traced phases only), and
/// failure events the program counted itself (shed, expired or panicked
/// queries; disk retries; quarantines). Each such event is one failure.
pub struct Outcome {
    pub phase: Phase,
    pub layers: Vec<(&'static str, f64)>,
    pub counted_failures: u64,
}

pub enum Workload {
    Serve(serve::Serve),
    Plan(plan::Plan),
    Onboard(onboard::Onboard),
    Restart(restart::Restart),
}

pub const NAMES: [&str; 4] = ["serve", "plan", "onboard", "restart"];

impl Workload {
    pub fn prepare(name: &str, env: &Env<'_>) -> Result<Self, String> {
        Ok(match name {
            "serve" => Workload::Serve(serve::Serve::prepare(env)?),
            "plan" => Workload::Plan(plan::Plan::prepare(env)?),
            "onboard" => Workload::Onboard(onboard::Onboard),
            "restart" => Workload::Restart(restart::Restart::prepare(env)?),
            other => return Err(format!("unknown workload {other:?}")),
        })
    }

    /// Runs one timed phase. `phase_no` keeps labels unique across the
    /// phases of one process.
    pub fn phase(&self, env: &Env<'_>, seconds: f64, traced: bool, phase_no: u32) -> Outcome {
        match self {
            Workload::Serve(w) => w.phase(env, seconds, traced),
            Workload::Plan(w) => w.phase(env, seconds, traced),
            Workload::Onboard(w) => w.phase(env, seconds, traced, phase_no),
            Workload::Restart(w) => w.phase(env, seconds, traced),
        }
    }
}

pub fn tracer(traced: bool) -> Tracer {
    if traced {
        Tracer::on(SPAN_CAPACITY)
    } else {
        Tracer::off()
    }
}

/// Median duration of the spans named `name`, in µs (0 when none).
pub fn p50_us(spans: &[Span], name: &str) -> f64 {
    let d = durations(spans, name);
    if d.is_empty() {
        return 0.0;
    }
    bellamy_telemetry::nearest_rank(&d, 0.5) as f64 / 1e3
}

/// Sum of the durations of the spans named `name`, in ns.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// All label sets of histogram `name`, summed bucket by bucket.
pub fn histogram_sum(snap: &TelemetrySnapshot, name: &str) -> HistogramSnapshot {
    let mut counts = [0u64; NUM_BUCKETS];
    for s in snap.samples().iter().filter(|s| s.name == name) {
        if let MetricValue::Histogram(h) = &s.value {
            for (c, v) in counts.iter_mut().zip(h.counts()) {
                *c += v;
            }
        }
    }
    HistogramSnapshot::from_counts(counts)
}

/// Observations of histogram `name` recorded between two snapshots.
pub fn histogram_between(
    before: &TelemetrySnapshot,
    after: &TelemetrySnapshot,
    name: &str,
) -> HistogramSnapshot {
    histogram_delta(&histogram_sum(before, name), &histogram_sum(after, name))
}

/// Mean rows per forward pass between two snapshots: rows pushed through
/// the predictor ÷ forward passes (the process-wide predictor counters).
pub fn rows_per_forward(before: &TelemetrySnapshot, after: &TelemetrySnapshot) -> f64 {
    let rows = |s: &TelemetrySnapshot| s.counter("bellamy_predict_queries_total").unwrap_or(0);
    let forwards = histogram_between(before, after, "bellamy_predict_batch_rows").count();
    ratio(
        rows(after).saturating_sub(rows(before)) as f64,
        forwards as f64,
    )
}

/// Interpolated median of a nanosecond histogram, in µs (0 when empty).
pub fn histogram_p50_us(h: &HistogramSnapshot) -> f64 {
    if h.count() == 0 {
        0.0
    } else {
        histogram_quantile(h, 0.5) / 1e3
    }
}

/// Floating-point operations of one prediction row, counted from the
/// model's layer dimensions (two per multiply-add of each matrix product:
/// `f` on the scale-out features, the encoder `g` on every property, the
/// head `z`); activations, biases and encoding are not counted.
pub fn forward_flops_per_row(cfg: &BellamyConfig) -> f64 {
    let props = (cfg.essential_props + cfg.optional_props) as f64;
    let (n, h, m) = (
        cfg.property_dim as f64,
        cfg.hidden_dim as f64,
        cfg.code_dim as f64,
    );
    let (fh, fo) = (cfg.scale_out_hidden_dim as f64, cfg.scale_out_dim as f64);
    let macs = 3.0 * fh + fh * fo + props * (n * h + h * m) + cfg.combined_dim() as f64 * h + h;
    2.0 * macs
}

/// Per-layer metrics of predictor sweeps: median sweep time, time per
/// candidate row, and the achieved forward FLOP rate.
pub fn sweep_metrics(spans: &[Span], rows_of_op: impl Fn(u32) -> u64) -> Vec<(&'static str, f64)> {
    let sweeps: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "predictor.sweep")
        .collect();
    let ns: u64 = sweeps.iter().map(|s| s.duration_ns()).sum();
    let rows: u64 = sweeps.iter().map(|s| rows_of_op(s.op)).sum();
    let flops = rows as f64 * forward_flops_per_row(&BellamyConfig::default());
    vec![
        ("predictor.sweep_us", p50_us(spans, "predictor.sweep")),
        ("predictor.row_ns", ratio(ns as f64, rows as f64)),
        ("kernels.gflops", ratio(flops, ns as f64)),
    ]
}

/// A seeded set-up for the self-tests, each in its own directory under
/// the benchmark's (ignored) output directory.
#[cfg(test)]
pub(crate) mod testenv {
    use super::Env;
    use crate::sets::Decisions;
    use crate::setup::{Inputs, Setup};
    use bellamy_core::ScaleOutRecommendation;

    pub struct TestEnv {
        pub inputs: Inputs,
        pub setup: Setup,
        pub plan: Decisions,
        pub jobs: Decisions,
    }

    impl TestEnv {
        pub fn new(seed: u64, name: &str) -> Self {
            let inputs = Inputs::generate(seed);
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../.perfbench_out/tests")
                .join(name);
            let setup = Setup::build(&inputs, dir).expect("set-up");
            let (plan, jobs) = (Decisions::plan(&inputs), Decisions::onboard(&inputs));
            Self {
                inputs,
                setup,
                plan,
                jobs,
            }
        }

        pub fn env(&self) -> Env<'_> {
            Env {
                inputs: &self.inputs,
                setup: &self.setup,
                plan: &self.plan,
                jobs: &self.jobs,
            }
        }
    }

    /// The next f64 after `x`: the smallest possible wrong answer.
    pub fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    /// A decision one ulp (or one declared-unreachable answer) away.
    pub fn perturbed(a: &Option<ScaleOutRecommendation>) -> Option<ScaleOutRecommendation> {
        match a.clone() {
            Some(mut r) => {
                r.predicted_runtime_s = next_up(r.predicted_runtime_s);
                Some(r)
            }
            None => Some(ScaleOutRecommendation {
                scale_out: 1,
                predicted_runtime_s: 0.0,
                predicted_cost: 0.0,
            }),
        }
    }

    /// Asserts a phase failed some ops, but not all: the perturbed answer
    /// is one entry of the workload's cycle.
    pub fn assert_gate_caught(out: &super::Outcome) {
        let p = &out.phase;
        assert!(
            p.failed >= 1,
            "perturbed answer passed ({} ops)",
            p.attempted
        );
        assert!(p.failed < p.attempted, "every op failed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_forward_flops() {
        // f: 3·16 + 16·8; g: 7·(40·8 + 8·4); z: 28·8 + 8 multiply-adds.
        assert_eq!(
            forward_flops_per_row(&BellamyConfig::default()),
            2.0 * 2872.0
        );
    }
}
