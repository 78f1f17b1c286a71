//! Contract tests for the `core::serve` front door: single queries from
//! concurrent callers must be bit-identical to direct `Predictor` calls
//! and counted exactly, and the service must compose with the hub's
//! recall → fine-tune workflow.

use bellamy_core::train::pretrain;
use bellamy_core::{
    Bellamy, BellamyConfig, BellamyError, ContextProperties, FinetuneConfig, FinetunePolicy,
    HubError, ModelKey, ModelState, Predictor, PretrainConfig, ReuseStrategy, Service,
    TrainingSample,
};
use bellamy_encoding::PropertyValue;
use std::sync::{Arc, Barrier};

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
fn eight_concurrent_callers_get_bit_identical_results() {
    let (state, samples) = pretrained();
    let service = Service::in_memory();
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

    // 8 threads hammer one client (each its own clone) for many rounds,
    // released together, so they race on the snapshot's shared encoding
    // cache and the counters.
    let start = Barrier::new(8);
    let got: Vec<Vec<u64>> = std::thread::scope(|scope| {
        (0..8)
            .map(|t| {
                let client = client.clone();
                let (samples, start) = (&samples, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut bits = Vec::new();
                    for _round in 0..5 {
                        bits.clear();
                        for s in samples.iter() {
                            let pred = client
                                .predict(s.scale_out + (t % 3) as f64, &s.props)
                                .expect("no panic");
                            bits.push(pred.to_bits());
                        }
                    }
                    bits
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect()
    });

    for (t, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g, e, "thread {t}: served bits drifted from direct");
    }
    let stats = client.batcher_stats();
    assert_eq!(stats.queries, 8 * 5 * samples.len() as u64);
    assert_eq!(stats.batches, stats.queries, "one forward pass per query");
    assert_eq!(stats.panics, 0);
}

#[test]
fn batched_entry_points_agree_with_single_queries() {
    let (state, samples) = pretrained();
    let service = Service::in_memory();
    let client = service.client_for_state(Arc::clone(&state));
    let props = &samples[0].props;
    let xs: Vec<f64> = (2..=12).map(f64::from).collect();
    let sweep = client.predict_sweep(props, &xs);
    for (&x, &swept) in xs.iter().zip(&sweep) {
        let single = client.predict(x, props).expect("no panic");
        assert_eq!(
            single.to_bits(),
            swept.to_bits(),
            "sweep and single query must agree at x={x}"
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
