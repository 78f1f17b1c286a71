//! Contract tests for the `core::serve` front door: cross-caller
//! micro-batched predictions must be bit-identical to direct `Predictor`
//! calls, both flush paths (capacity and timeout) must fire, and the
//! service must compose with the hub's recall → fine-tune workflow.

use bellamy_core::train::pretrain;
use bellamy_core::{
    BatcherConfig, Bellamy, BellamyConfig, BellamyError, ContextProperties, FinetuneConfig,
    FinetunePolicy, FlushPolicy, HubError, ModelKey, ModelState, Predictor, PretrainConfig,
    ReuseStrategy, Service, TrainingSample,
};
use bellamy_encoding::PropertyValue;
use std::sync::Arc;
use std::time::Duration;

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

fn pretrained() -> (Arc<ModelState>, Vec<TrainingSample>) {
    let samples = corpus();
    let mut model = Bellamy::new(BellamyConfig::default(), 11);
    pretrain(
        &mut model,
        &samples,
        &PretrainConfig {
            epochs: 5,
            ..PretrainConfig::default()
        },
        11,
    );
    (model.snapshot().expect("fitted"), samples)
}

#[test]
fn eight_concurrent_submitters_get_bit_identical_results() {
    let (state, samples) = pretrained();
    let service = Service::builder()
        .batcher(BatcherConfig {
            max_batch: 8,
            max_wait: Duration::from_micros(500),
            // Deadline: all serving goes through the loop, so the flushes
            // genuinely coalesce queries from different callers (the
            // eager policy would let each submitter serve itself here).
            policy: FlushPolicy::Deadline,
            ..BatcherConfig::default()
        })
        .build()
        .expect("in-memory service");
    let client = service.client_for_state(Arc::clone(&state));

    // Direct reference: one predictor, one query at a time.
    let mut reference = Predictor::new();
    let expected: Vec<Vec<u64>> = (0..8)
        .map(|t| {
            samples
                .iter()
                .map(|s| {
                    reference
                        .predict_one(&state, s.scale_out + (t % 3) as f64, &s.props)
                        .to_bits()
                })
                .collect()
        })
        .collect();

    // 8 threads hammer one client (each its own clone), many rounds so
    // flushes interleave submissions from different callers.
    let got: Vec<Vec<u64>> = std::thread::scope(|scope| {
        (0..8)
            .map(|t| {
                let client = client.clone();
                let samples = &samples;
                scope.spawn(move || {
                    let mut bits = Vec::new();
                    for _round in 0..5 {
                        bits.clear();
                        for s in samples.iter() {
                            let pred = client
                                .predict(s.scale_out + (t % 3) as f64, &s.props)
                                .expect("service is live");
                            bits.push(pred.to_bits());
                        }
                    }
                    bits
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("submitter thread"))
            .collect()
    });

    for (t, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g, e, "thread {t}: micro-batched bits drifted from direct");
    }
    let stats = client.batcher_stats();
    assert_eq!(stats.queries, 8 * 5 * samples.len() as u64);
    assert!(stats.batches > 0);
    assert!(
        stats.batches < stats.queries,
        "cross-caller coalescing must form multi-query batches \
         ({} batches for {} queries)",
        stats.batches,
        stats.queries
    );
}

#[test]
fn capacity_flush_fires_when_the_batch_fills() {
    let (state, samples) = pretrained();
    let service = Service::builder()
        .batcher(BatcherConfig {
            max_batch: 2,
            // Far beyond the test timeout: under the strict deadline
            // policy only a capacity flush can release the two parked
            // submitters quickly.
            max_wait: Duration::from_secs(30),
            policy: FlushPolicy::Deadline,
            ..BatcherConfig::default()
        })
        .build()
        .expect("in-memory service");
    let client = service.client_for_state(state);

    let preds: Vec<f64> = std::thread::scope(|scope| {
        (0..2)
            .map(|t| {
                let client = client.clone();
                let props = &samples[t].props;
                scope.spawn(move || client.predict(4.0 + t as f64, props).expect("live"))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("submitter"))
            .collect()
    });
    assert!(preds.iter().all(|p| p.is_finite()));
    let stats = client.batcher_stats();
    assert_eq!(stats.queries, 2);
    assert_eq!(stats.capacity_flushes, 1, "the pair must flush on capacity");
    assert_eq!(stats.timeout_flushes, 0);
}

#[test]
fn timeout_flush_fires_for_a_lone_query() {
    let (state, samples) = pretrained();
    let service = Service::builder()
        .batcher(BatcherConfig {
            max_batch: 1024,
            max_wait: Duration::from_millis(2),
            policy: FlushPolicy::Deadline,
            ..BatcherConfig::default()
        })
        .build()
        .expect("in-memory service");
    let client = service.client_for_state(state);
    let pred = client.predict(6.0, &samples[0].props).expect("live");
    assert!(pred.is_finite());
    let stats = client.batcher_stats();
    assert_eq!(stats.queries, 1);
    assert_eq!(stats.batches, 1);
    assert_eq!(
        stats.timeout_flushes, 1,
        "a lone query can only leave via the timeout flush"
    );
    assert_eq!(stats.capacity_flushes, 0);
}

#[test]
fn eager_policy_quiesce_flushes_a_lone_query_quickly() {
    let (state, samples) = pretrained();
    let service = Service::builder()
        .batcher(BatcherConfig {
            max_batch: 1024,
            // An hour-long deadline: only the quiescence flush can serve
            // a lone query promptly under the eager policy.
            max_wait: Duration::from_secs(3600),
            policy: FlushPolicy::Eager,
            ..BatcherConfig::default()
        })
        .build()
        .expect("in-memory service");
    let client = service.client_for_state(state);
    let start = std::time::Instant::now();
    let pred = client.predict(6.0, &samples[0].props).expect("live");
    assert!(pred.is_finite());
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "eager flush must not wait out the deadline"
    );
    let stats = client.batcher_stats();
    assert_eq!(
        stats.quiesce_flushes + stats.assist_flushes,
        1,
        "the lone query leaves via the quiesce flush (loop) or the \
         assist flush (submitter), never the deadline: {stats:?}"
    );
    assert_eq!(stats.capacity_flushes, 0);
    assert_eq!(stats.timeout_flushes, 0);
}

#[test]
fn batched_entry_points_agree_with_micro_batched_singles() {
    let (state, samples) = pretrained();
    let service = Service::builder()
        .batcher(BatcherConfig {
            max_batch: 4,
            max_wait: Duration::ZERO,
            ..BatcherConfig::default()
        })
        .build()
        .expect("in-memory service");
    let client = service.client_for_state(Arc::clone(&state));
    let props = &samples[0].props;
    let xs: Vec<f64> = (2..=12).map(f64::from).collect();
    let sweep = client.predict_sweep(props, &xs);
    for (&x, &swept) in xs.iter().zip(&sweep) {
        let single = client.predict(x, props).expect("live");
        assert_eq!(
            single.to_bits(),
            swept.to_bits(),
            "sweep and micro-batched single must agree at x={x}"
        );
    }
}

#[test]
fn service_serves_the_full_recall_finetune_workflow() {
    let samples = corpus();
    let dir = std::env::temp_dir().join(format!("bellamy-serve-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = ModelKey::new("grep", "serve-workflow", &BellamyConfig::default());
    let quick = PretrainConfig {
        epochs: 5,
        ..PretrainConfig::default()
    };
    let ft = FinetuneConfig {
        max_epochs: 10,
        patience: 5,
        ..FinetuneConfig::default()
    };

    {
        let service = Service::builder()
            .hub_dir(&dir)
            .finetune_policy(FinetunePolicy {
                config: ft,
                strategy: ReuseStrategy::PartialUnfreeze,
                seed: 3,
            })
            .build()
            .expect("disk-backed service");
        let general = service
            .client_or_pretrain(&key, &quick, 3, || samples.clone())
            .expect("pretrain on miss");
        assert_eq!(service.stats().pretrains, 1);
        assert_eq!(general.registry_key(), Some(key.id()));

        // Policy-driven fine-tuning derives a provenance-carrying child.
        let tuned = service
            .finetuned_client(&key, "serve-ctx", &samples[..4])
            .expect("fine-tune");
        assert_eq!(tuned.state().parent_key(), Some(key.id()));
        // Identical request: served from the descendant LRU.
        let again = service
            .finetuned_client(&key, "serve-ctx", &samples[..4])
            .expect("lru hit");
        assert!(Arc::ptr_eq(tuned.state(), again.state()));
        assert_eq!(service.hub().stats().finetunes, 1);
    }

    // A second service over the same directory recalls without training —
    // the cross-process reuse story through the front door.
    let service = Service::builder().hub_dir(&dir).build().expect("reopen");
    let recalled = service.client(&key).expect("disk recall");
    assert_eq!(service.stats().disk_recalls, 1);
    assert_eq!(service.stats().pretrains, 0);
    let p = recalled.predict(6.0, &samples[0].props).expect("serve");
    assert!(p.is_finite());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unified_error_type_spans_the_layers() {
    let service = Service::in_memory();
    let key = ModelKey::new("sgd", "no-such-model", &BellamyConfig::default());
    // Hub errors surface through the service as BellamyError::Hub.
    let err = service.client(&key).unwrap_err();
    assert!(matches!(err, BellamyError::Hub(_)));
    assert!(err.to_string().contains("no model registered"));
    // Predict errors convert losslessly.
    let unfitted = Bellamy::new(BellamyConfig::default(), 0);
    let err: BellamyError = unfitted.snapshot().unwrap_err().into();
    assert!(matches!(err, BellamyError::Predict(_)));
}

#[test]
fn finetuning_on_no_samples_is_a_typed_error() {
    let service = Service::in_memory();
    let key = ModelKey::new("grep", "no-samples-finetune", &BellamyConfig::default());
    let quick = PretrainConfig {
        epochs: 2,
        ..PretrainConfig::default()
    };
    service
        .client_or_pretrain(&key, &quick, 3, corpus)
        .expect("pretrain on miss");
    let Err(err) = service.finetuned_client(&key, "empty-ctx", &[]) else {
        panic!("no samples must not fine-tune");
    };
    assert!(
        matches!(&err, BellamyError::Hub(HubError::NoSamples(id)) if id == key.id()),
        "{err}"
    );
    assert!(err.to_string().contains("no training samples"));
    assert_eq!(service.hub().stats().finetunes, 0, "nothing was trained");
    // The service stays usable: a real request still fine-tunes.
    service
        .finetuned_client(&key, "ctx", &corpus()[..3])
        .expect("fine-tune");
    assert_eq!(service.hub().stats().finetunes, 1);
}

#[test]
fn pretraining_on_an_empty_corpus_is_a_typed_error() {
    let service = Service::in_memory();
    let key = ModelKey::new("grep", "no-samples-pretrain", &BellamyConfig::default());
    let quick = PretrainConfig {
        epochs: 2,
        ..PretrainConfig::default()
    };
    let Err(err) = service.client_or_pretrain(&key, &quick, 3, Vec::new) else {
        panic!("an empty corpus must not pretrain");
    };
    assert!(
        matches!(&err, BellamyError::Hub(HubError::NoSamples(id)) if id == key.id()),
        "{err}"
    );
    assert_eq!(service.stats().pretrains, 0, "nothing was trained");
    // Nothing was registered, and a retry with data trains the key.
    assert!(service.client(&key).is_err());
    service
        .client_or_pretrain(&key, &quick, 3, corpus)
        .expect("pretrain with data");
    assert_eq!(service.stats().pretrains, 1);
}
