//! Service-level contract tests for `Service::telemetry()`: the snapshot
//! must expose the serve-path query and panic counters and latency
//! histogram,
//! the hub's per-mode recall metrics, the process-wide train/predict
//! metrics and kernel resolution, and must render to JSON and Prometheus
//! text. Corrupt-checkpoint quarantines must surface both as a counter and
//! as a structured event.
//!
//! Process-global metrics (train steps, predictor rows, the event log) are
//! shared across the tests in this binary, so assertions on them are lower
//! bounds; per-service serve and hub counters are exact.

use bellamy_core::train::pretrain;
use bellamy_core::{
    event_kind, Bellamy, BellamyConfig, ContextProperties, HubError, ModelKey, ModelState,
    PretrainConfig, Service, TrainingSample,
};
use bellamy_encoding::PropertyValue;
use std::sync::Arc;

/// A small deterministic corpus over a few distinct contexts.
fn corpus() -> Vec<TrainingSample> {
    let node_types = ["m4.xlarge", "c4.2xlarge", "r4.xlarge"];
    (0..24)
        .map(|i| {
            let x = 2.0 + (i % 6) as f64 * 2.0;
            TrainingSample {
                scale_out: x,
                runtime_s: 100.0 + 400.0 / x + 3.0 * (i % 7) as f64,
                props: ContextProperties {
                    essential: vec![
                        PropertyValue::Number(4096 + 512 * (i as u64 % 5)),
                        PropertyValue::text(node_types[i % node_types.len()]),
                    ],
                    optional: vec![PropertyValue::Number(16_384)],
                },
            }
        })
        .collect()
}

fn quick_pretrain() -> PretrainConfig {
    PretrainConfig {
        epochs: 3,
        ..PretrainConfig::default()
    }
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("bellamy-telemetry-{tag}-{}", std::process::id()))
}

fn pretrained() -> Arc<ModelState> {
    let mut model = Bellamy::new(BellamyConfig::default(), 11);
    pretrain(&mut model, &corpus(), &quick_pretrain(), 11);
    model.snapshot().expect("fitted")
}

#[test]
fn snapshot_exposes_serve_hub_train_and_kernel_metrics() {
    let dir = unique_dir("full");
    let _ = std::fs::remove_dir_all(&dir);
    let key = ModelKey::new("telemetry", "runtime", &BellamyConfig::default());
    let samples = corpus();

    // First service: both registries miss, so this pretrains (train-step
    // metrics) and persists a checkpoint for the disk-recall leg below.
    let service = Service::builder()
        .hub_dir(&dir)
        .build()
        .expect("disk-backed service");
    let client = service
        .client_or_pretrain(&key, &quick_pretrain(), 7, || samples.clone())
        .expect("pretrain through the hub");
    for s in &samples {
        client.predict(s.scale_out, &s.props).expect("live service");
    }
    let queries = samples.len() as u64;

    let snap = service.telemetry();

    // Serve path: exact per-service counters and the sampled latency
    // histogram, read from the same atomics as `BatcherStats`.
    assert_eq!(snap.counter("bellamy_serve_queries_total"), Some(queries));
    assert_eq!(snap.counter("bellamy_serve_panics_total"), Some(0));
    let stats = client.batcher_stats();
    assert_eq!(
        (stats.queries, stats.panics),
        (queries, 0),
        "telemetry and BatcherStats must read the same atomics"
    );
    let submit = snap
        .histogram("bellamy_serve_submit_latency_seconds")
        .expect("predict latency histogram");
    // Latency is sampled 1-in-8 (the clock pair costs more than the rest
    // of the record path); this thread predicted sequentially, so the
    // sampled count is exact.
    assert_eq!(submit.count(), queries.div_ceil(8));
    assert!(
        submit.quantile(0.5) <= submit.quantile(0.99),
        "p50 must not exceed p99"
    );
    let serve_metrics: Vec<&str> = snap
        .samples()
        .iter()
        .map(|s| s.name)
        .filter(|name| name.starts_with("bellamy_serve_"))
        .collect();
    assert_eq!(
        serve_metrics,
        [
            "bellamy_serve_queries_total",
            "bellamy_serve_panics_total",
            "bellamy_serve_submit_latency_seconds"
        ],
        "one model served, three serve metrics"
    );

    // Hub: the miss pretrained exactly once; no disk recall yet.
    assert_eq!(snap.counter("bellamy_hub_pretrains_total"), Some(1));
    assert_eq!(snap.counter("bellamy_hub_disk_recalls_total"), Some(0));

    // Process-wide predictor/train metrics (lower bounds — shared with the
    // other tests in this binary).
    assert!(snap.counter("bellamy_train_steps_total").unwrap() >= 1);
    assert!(
        snap.histogram("bellamy_train_step_latency_seconds")
            .expect("train step histogram")
            .count()
            >= 1
    );
    assert!(snap.counter("bellamy_predict_queries_total").unwrap() >= queries);
    assert!(
        snap.histogram("bellamy_predict_batch_rows")
            .expect("batch rows histogram")
            .count()
            >= 1
    );

    // Kernel resolution: the info gauge is a constant 1 carrying the
    // resolution as labels.
    assert_eq!(snap.gauge("bellamy_kernel_info"), Some(1));
    let info = snap
        .samples()
        .iter()
        .find(|s| s.name == "bellamy_kernel_info")
        .expect("kernel info sample");
    assert!(info.label_value("requested").is_some());
    assert!(info.label_value("resolved").is_some());
    assert!(info.label_value("source").is_some());

    // Second service on the same directory: a restart recalls from disk,
    // which must show up in the recall latency histogram.
    let restarted = Service::builder()
        .hub_dir(&dir)
        .build()
        .expect("restarted service");
    restarted.client(&key).expect("disk recall");
    let snap2 = restarted.telemetry();
    assert_eq!(snap2.counter("bellamy_hub_disk_recalls_total"), Some(1));
    assert_eq!(snap2.counter("bellamy_hub_pretrains_total"), Some(0));
    let recall = snap2
        .histogram("bellamy_hub_recall_latency_seconds")
        .expect("recall latency histogram");
    assert_eq!(recall.count(), 1, "one disk recall, one latency sample");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_renders_json_and_prometheus() {
    let state = pretrained();
    let service = Service::builder().build().expect("in-memory service");
    let client = service.client_for_state(Arc::clone(&state));
    for s in corpus().iter().take(8) {
        client.predict(s.scale_out, &s.props).expect("live service");
    }
    let snap = service.telemetry();

    let json = snap.to_json();
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "JSON braces must balance"
    );
    for needle in [
        "\"metrics\"",
        "\"events\"",
        "\"bellamy_serve_queries_total\"",
        "\"bellamy_serve_submit_latency_seconds\"",
        "\"bellamy_hub_recall_latency_seconds\"",
        "\"bellamy_kernel_info\"",
    ] {
        assert!(json.contains(needle), "JSON missing {needle}");
    }

    let prom = snap.to_prometheus();
    for needle in [
        "# HELP bellamy_serve_queries_total",
        "# TYPE bellamy_serve_submit_latency_seconds histogram",
        "le=\"+Inf\"",
        "bellamy_serve_submit_latency_seconds_count",
        "bellamy_hub_recall_latency_seconds_bucket{le=",
        "bellamy_kernel_info{",
    ] {
        assert!(prom.contains(needle), "Prometheus text missing {needle}");
    }
    assert_eq!(
        prom.matches("# HELP bellamy_hub_recall_latency_seconds")
            .count(),
        1,
        "HELP/TYPE headers must render once per metric name, not per label set"
    );
}

#[test]
fn quarantine_surfaces_as_counter_and_event() {
    let dir = unique_dir("quarantine");
    let _ = std::fs::remove_dir_all(&dir);
    let key = ModelKey::new("telemetry", "quarantine", &BellamyConfig::default());
    let samples = corpus();

    {
        let service = Service::builder().hub_dir(&dir).build().expect("service");
        service
            .client_or_pretrain(&key, &quick_pretrain(), 7, || samples.clone())
            .expect("pretrain and persist");
    }

    // A crash mid-write, as a later recall will find it: the checkpoint
    // bytes on disk are garbage.
    let checkpoint = std::fs::read_dir(&dir)
        .expect("hub dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|ext| ext == "blmy"))
        .expect("persisted checkpoint");
    std::fs::write(&checkpoint, b"BLMY\x7f\x7f\x7f\x7fgarbage").expect("corrupt it");

    let restarted = Service::builder().hub_dir(&dir).build().expect("service");
    let err = restarted.client(&key).expect_err("corrupt checkpoint");
    assert!(
        matches!(
            err,
            bellamy_core::BellamyError::Hub(HubError::Corrupt { .. })
        ),
        "got {err:?}"
    );

    let snap = restarted.telemetry();
    assert_eq!(snap.counter("bellamy_hub_quarantined_total"), Some(1));
    assert!(
        snap.events()
            .iter()
            .any(|e| e.kind == event_kind::CHECKPOINT_QUARANTINED && e.detail.contains(".blmy")),
        "quarantine must leave a structured event; got {:?}",
        snap.events()
    );

    std::fs::remove_dir_all(&dir).ok();
}
