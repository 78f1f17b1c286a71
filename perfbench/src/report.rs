//! Metric declarations, host metadata and the result JSON.

use serde::Value;
use std::collections::BTreeMap;

/// A declared metric: name, unit, and whether higher or lower is better.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Printed by an untraced run.
pub const END_TO_END: &[Metric] = &[
    m("ops_per_s", "1/s", "higher"),
    m("latency_p50_us", "us", "lower"),
    m("latency_p99_us", "us", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("success_rate", "ratio", "higher"),
    m("mre", "ratio", "lower"),
];

/// Printed by a traced run. A metric of a layer the workload does not
/// exercise reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("serve.mean_batch", "count", "higher"),
    m("serve.assist_share", "ratio", "lower"),
    m("serve.flush_us", "us", "lower"),
    m("serve.wait_us", "us", "lower"),
    m("predictor.rows_per_forward", "count", "higher"),
    m("predictor.sweep_us", "us", "lower"),
    m("predictor.row_ns", "ns", "lower"),
    m("predictor.first_answer_us", "us", "lower"),
    m("state.encode_misses", "count", "lower"),
    m("kernels.gflops", "GFLOP/s", "higher"),
    m("hub.lookup_us", "us", "lower"),
    m("hub.finetuned_client_us", "us", "lower"),
    m("hub.lru_hit_share", "ratio", "higher"),
    m("hub.open_us", "us", "lower"),
    m("hub.disk_recall_us.table1", "us", "lower"),
    m("hub.disk_recall_us.wide", "us", "lower"),
    m("checkpoint.mb_per_s", "MB/s", "higher"),
    m("finetune.us", "us", "lower"),
    m("finetune.epochs", "count", "lower"),
    m("finetune.epoch_us", "us", "lower"),
    m("encoding.encode_us", "us", "lower"),
    m("train.pretrain_s", "s", "lower"),
    m("train.step_us", "us", "lower"),
    m("trace.overhead_us", "us", "lower"),
];

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn num(v: impl Into<f64>) -> Value {
    Value::Number(v.into())
}

pub fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

/// `{"name": {"value": v, "unit": u}, ...}` in declaration order.
/// Missing metrics read 0.
pub fn metrics_json(decl: &[Metric], values: &BTreeMap<&str, f64>) -> Value {
    Value::Object(
        decl.iter()
            .map(|d| {
                let v = values.get(d.name).copied().unwrap_or(0.0);
                (
                    d.name.to_string(),
                    obj(vec![("value", num(v)), ("unit", text(d.unit))]),
                )
            })
            .collect(),
    )
}

/// The run's last stdout line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    let v = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("metrics", metrics),
    ]);
    serde_json::to_string(&v).expect("a value tree always renders")
}

/// `VmHWM` (peak resident set) of this process, in MB (2^20 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The checked-out revision, read from `.git` in the working directory
/// without running git; "unknown" outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host facts every record carries: core count and kernel dispatch.
pub fn host_json() -> Value {
    let res = bellamy_linalg::kernels::resolution();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        ("nproc", num(nproc as f64)),
        ("kernel_requested", text(res.requested_name())),
        ("kernel_resolved", text(res.resolved_name())),
        ("git_rev", text(git_rev())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The harness prints exactly the metrics `BENCHMARK.json` declares.
    #[test]
    fn declarations_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, decl) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Value::Array(items) = &bench[key] else {
                panic!("{key} is not a list");
            };
            let declared: Vec<(&str, &str, &str)> = items
                .iter()
                .map(|i| {
                    (
                        i["name"].as_str().unwrap(),
                        i["unit"].as_str().unwrap(),
                        i["better"].as_str().unwrap(),
                    )
                })
                .collect();
            let ours: Vec<(&str, &str, &str)> =
                decl.iter().map(|d| (d.name, d.unit, d.better)).collect();
            assert_eq!(declared, ours, "{key}");
        }
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let mut values = BTreeMap::new();
        values.insert("ops_per_s", 1234.5);
        let line = result_line(true, 10, 0, metrics_json(END_TO_END, &values));
        let v: Value = serde_json::from_str(&line).unwrap();
        let Value::Object(fields) = &v else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["metrics"]["ops_per_s"]["value"], 1234.5);
        assert_eq!(v["metrics"]["mre"]["unit"], "ratio");
    }
}
